"""Exact work counts of fixed-seed fleet replays, pinned like a golden.

What a replay *does* — events popped, placement attempts, shadow-time
queries, runtime estimates — is a deterministic function of the seed,
so an algorithmic change shows here as an exact diff, without the
timing noise a benchmark has to average away.  Each case replays one
seeded ``mixed_fleet`` trace with counting wrappers on the layer seams
(patched on the classes for the duration of the test).  A count that
moves is a deliberate change, reported like a golden-table diff; a
count that drops is an algorithmic win that needs no timing.

The same holds for an Eq. 2 refit: :data:`REFIT_RING_PEELS` pins how
many ring peels (``build_rings`` calls behind the microbenchmark) one
refit of each built-in wiring runs from an empty memo.

Regenerate the tables after an intended change with
``PYTHONPATH=src python tests/test_work_counts.py``.
"""

from collections import Counter
from functools import wraps
from typing import Dict

import pytest

from repro.allocator import mapa
from repro.cluster import MultiServerScheduler, run_cluster
from repro.comm import microbench
from repro.scenarios import PoissonArrivals, ScenarioSpec, mixed_fleet, paper_mix
from repro.scoring.memo import ScanCache
from repro.scoring.regression import fit_for_hardware
from repro.sim.core import SimulationCore
from repro.sim.disciplines import make_discipline
from repro.sim.engine import EventEngine
from repro.topology.builders import TOPOLOGY_BUILDERS, by_name

#: ``case -> (scheduling, warm scan cache)``.
CASES = {
    "fifo-warm": ("fifo", True),
    "fifo-cold": ("fifo", False),
    "backfill": ("backfill", False),
    "sjf": ("sjf", False),
    "easy-backfill": ("easy-backfill", False),
}

#: ``counter -> (class, method)``: each call of the method counts once.
SEAMS = {
    "core.place": (SimulationCore, "place"),
    "core.try_start": (SimulationCore, "try_start"),
    "core.commit": (SimulationCore, "commit"),
    "core.abort": (SimulationCore, "abort"),
    "core.earliest_fit_time": (SimulationCore, "earliest_fit_time"),
    "core.runtime_estimate": (SimulationCore, "runtime_estimate"),
    "scheduler.try_place": (MultiServerScheduler, "try_place"),
}

#: ``module attribute -> counter``: calls made from the module count once.
#: ``mapa.rescore`` is every score :class:`~repro.allocator.mapa.Mapa`
#: computes itself instead of reading it off the policy's proposal.
RESCORES = {
    "census_of_allocation": "mapa.rescore",
    "preserved_bandwidth": "mapa.rescore",
    "aggregated_bandwidth": "mapa.rescore",
}

#: Pinned counts.  ``engine.events`` counts the events popped (not the
#: final empty pop), ``discipline.schedule`` the discipline's calls and
#: ``scan.*``/``measured.*`` the replay's cache lookups.  Counters that
#: stay zero are listed too.
GOLDEN: Dict[str, Dict[str, int]] = {
    "fifo-warm": {
        "core.abort": 0,
        "core.commit": 0,
        "core.earliest_fit_time": 0,
        "core.place": 0,
        "core.runtime_estimate": 0,
        "core.try_start": 300,
        "discipline.schedule": 600,
        "engine.events": 600,
        "mapa.rescore": 0,
        "measured.bw_lookups": 229,
        "scan.hits": 0,
        "scan.lookups": 0,
        "scheduler.try_place": 300,
    },
    "fifo-cold": {
        "core.abort": 0,
        "core.commit": 0,
        "core.earliest_fit_time": 0,
        "core.place": 0,
        "core.runtime_estimate": 0,
        "core.try_start": 300,
        "discipline.schedule": 600,
        "engine.events": 600,
        "mapa.rescore": 0,
        "measured.bw_lookups": 229,
        "scan.hits": 18,
        "scan.lookups": 263,
        "scheduler.try_place": 300,
    },
    "backfill": {
        "core.abort": 0,
        "core.commit": 0,
        "core.earliest_fit_time": 0,
        "core.place": 0,
        "core.runtime_estimate": 0,
        "core.try_start": 300,
        "discipline.schedule": 600,
        "engine.events": 600,
        "mapa.rescore": 0,
        "measured.bw_lookups": 229,
        "scan.hits": 30,
        "scan.lookups": 120,
        "scheduler.try_place": 300,
    },
    "sjf": {
        "core.abort": 0,
        "core.commit": 0,
        "core.earliest_fit_time": 0,
        "core.place": 0,
        "core.runtime_estimate": 40620,
        "core.try_start": 300,
        "discipline.schedule": 600,
        "engine.events": 600,
        "mapa.rescore": 0,
        "measured.bw_lookups": 229,
        "scan.hits": 34,
        "scan.lookups": 146,
        "scheduler.try_place": 300,
    },
    "easy-backfill": {
        "core.abort": 409,
        "core.commit": 300,
        "core.earliest_fit_time": 573,
        "core.place": 709,
        "core.runtime_estimate": 746,
        "core.try_start": 0,
        "discipline.schedule": 600,
        "engine.events": 600,
        "mapa.rescore": 0,
        "measured.bw_lookups": 638,
        "scan.hits": 24,
        "scan.lookups": 292,
        "scheduler.try_place": 709,
    },
}

#: ``wiring -> ring peels`` of one ``fit_for_hardware`` at the default
#: sizes (2–5) after :func:`~repro.comm.microbench.release_graph_memo`:
#: one peel per distinct channel shape, not per GPU subset.
REFIT_RING_PEELS: Dict[str, int] = {
    "dgx1-v100": 132,
    "dgx1-v100-cube-mesh": 104,
    "dgx1-p100": 49,
    "summit": 10,
    "torus-2d-16": 710,
    "cube-mesh-16": 740,
    "dgx2": 4,
    "big-basin": 132,
    "p3dn": 132,
}


def _trace(fleet):
    return ScenarioSpec(
        num_jobs=300,
        seed=38,
        arrival=PoissonArrivals(rate=50.0),
        mix=paper_mix(),
        name="work-counts",
    ).resolve(fleet.min_gpus_per_server()).build()


def _counting(counts: Counter, name: str, fn):
    @wraps(fn)
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def _counting_pop(counts: Counter, pop):
    @wraps(pop)
    def counted(self):
        event = pop(self)
        if event is not None:
            counts["engine.events"] += 1
        return event

    return counted


def work_counts(case: str, patch) -> Dict[str, int]:
    """Replay ``case`` with counting wrappers installed by ``patch``.

    ``patch(owner, name, value)`` replaces one class attribute for the
    caller's scope (``monkeypatch.setattr`` in the test).
    """
    scheduling, warm = CASES[case]
    counts: Counter = Counter()
    for name, (owner, method) in SEAMS.items():
        patch(owner, method, _counting(counts, name, getattr(owner, method)))
    patch(EventEngine, "pop", _counting_pop(counts, EventEngine.pop))
    for name, counter in RESCORES.items():
        patch(mapa, name, _counting(counts, counter, getattr(mapa, name)))
    discipline = type(make_discipline(scheduling))
    patch(
        discipline,
        "schedule",
        _counting(counts, "discipline.schedule", discipline.schedule),
    )
    fleet = mixed_fleet(4)
    trace = _trace(fleet)
    cache = ScanCache()
    if warm:
        run_cluster(fleet.build(), trace, scan_cache=cache)
        counts.clear()
    sim = run_cluster(
        fleet.build(), trace, scheduling=scheduling, scan_cache=cache
    )
    assert len(sim.log.records) == len(trace.jobs)
    stats = sim.log.cache_stats
    for name in ("scan_lookups", "scan_hits", "measured_bw_lookups"):
        counts[name.replace("_", ".", 1)] = stats[name]
    names = set(SEAMS) | set(RESCORES.values()) | set(counts)
    return {name: counts[name] for name in sorted(names)}


@pytest.mark.parametrize("case", list(CASES))
def test_work_counts_pinned(case, monkeypatch):
    assert work_counts(case, monkeypatch.setattr) == GOLDEN[case]


def refit_ring_peels(patch) -> Dict[str, int]:
    """Ring peels of one cold refit per wiring, counted via ``patch``."""
    counts: Counter = Counter()
    build_rings = microbench.build_rings
    for name in TOPOLOGY_BUILDERS:
        patch(microbench, "build_rings", _counting(counts, name, build_rings))
        microbench.release_graph_memo()
        fit_for_hardware(by_name(name))
    microbench.release_graph_memo()
    return {name: counts[name] for name in TOPOLOGY_BUILDERS}


def test_refit_ring_peels_pinned(monkeypatch):
    assert refit_ring_peels(monkeypatch.setattr) == REFIT_RING_PEELS


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    import json

    table = {}
    for case in CASES:
        with pytest.MonkeyPatch.context() as patch:
            table[case] = work_counts(case, patch.setattr)
    with pytest.MonkeyPatch.context() as patch:
        table["refit_ring_peels"] = refit_ring_peels(patch.setattr)
    print(json.dumps(table, indent=4))
