"""Fleet-scale replay benchmark: 64 heterogeneous servers, 10k jobs.

The scenario subsystem supplies the trace (bursty MMPP arrivals over
the paper's workload mix, one fixed seed) and the fleet (40 DGX-1V +
16 DGX-1P + 8 NVSwitch DGX-2 — three different fabrics behind one
queue); the multi-server scheduler replays it with the incremental
candidate-server index keeping per-event server selection off the
O(fleet) scan path and the content-addressed scan cache
(:mod:`repro.scoring.memo`) serving recurring (wiring, pattern,
free-set) scans from memory.

Six replays, all producing byte-identical logs (compared by SHA-256 of
the canonical JSON serialisation — the digest is computed once per
replay instead of holding and comparing multi-megabyte strings):

1. **batch** engine — the uncached reference;
2. **cached, cold** — fresh :class:`~repro.scoring.memo.ScanCache`;
3-5. **cached, warm ×3** — the same cache, so placements are answered
   by the decision memo the earlier replays left behind;
6. **persistent-tier round trip** — the warm cache is spilled through
   :class:`~repro.experiments.spill.ScanSpillStore`, loaded into a
   *fresh* cache (as a new process would), and replayed once more.

CI-enforced gates (correctness only — replay speed is measured by the
``fleet_fifo_*`` workloads of ``benchmarks/perf/``):

* **exactness** — every replay's digest equal, including the
  spill-warmed one;
* **baseline digest** — equal to the committed
  ``BENCH_fleet_columnar.json`` digest (set ``MAPA_UPDATE_BENCH=1``
  to regenerate after an intentional scenario change);
* **spill hit rate** — the spill-warmed replay must serve
  ≥ ``HIT_RATE_GATE`` of its first-pass scan lookups from the loaded
  partitions.

The table also reports each replay's wall time, for information only.

Cache statistics for every pass are additionally written to
``fleet_cache_stats.json`` next to the result tables, which CI uploads
as a job artifact so hit-rate trends are inspectable per run.

Run standalone:  PYTHONPATH=src python benchmarks/bench_fleet_scale.py
"""

import gc
import hashlib
import json
import os
import statistics
import tempfile
import time
from typing import Dict, Optional, Tuple

from repro.analysis.tables import format_table
from repro.cluster import run_cluster
from repro.experiments.spill import ScanSpillStore
from repro.ioutils import atomic_write_text
from repro.scenarios import MMPPArrivals, ScenarioSpec, mixed_fleet, paper_mix
from repro.scoring.memo import ScanCache

try:
    from conftest import RESULTS_DIR, emit
except ImportError:  # standalone run, outside pytest's benchmarks rootdir
    RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

    def emit(experiment: str, text: str) -> None:
        print(f"\n===== {experiment} =====\n{text}")

#: Fleet size (servers) and trace length (jobs) — the issue's floors.
NUM_SERVERS = 64
NUM_JOBS = 10_000

#: Warm replays on the cold replay's cache.
WARM_REPLAYS = 3

#: Minimum first-pass scan-cache hit rate of the spill-warmed replay.
HIT_RATE_GATE = 0.90

#: Committed baseline: the canonical log digest.
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_fleet_columnar.json"
)

SCENARIO = ScenarioSpec(
    num_jobs=NUM_JOBS,
    seed=2021,
    arrival=MMPPArrivals(
        quiet_rate=1.0, burst_rate=20.0, quiet_dwell=300.0, burst_dwell=60.0
    ),
    mix=paper_mix(),
    name="fleet-scale",
)


def _replay(
    engine: str,
    scan_cache: Optional[ScanCache] = None,
    scan_spill: Optional[ScanSpillStore] = None,
) -> Tuple[str, float, float, Dict[str, float]]:
    """One full replay; returns (digest, wall s, makespan, stats).

    The log is serialised once and reduced to its SHA-256 digest —
    byte-identity checks across many replays then cost 64-byte string
    compares instead of holding every multi-megabyte payload.
    """
    fleet = mixed_fleet(NUM_SERVERS)
    spec = SCENARIO.resolve(fleet.min_gpus_per_server())
    job_file = spec.build()
    servers = fleet.build()
    # Collect before timing, so a collection the previous replay
    # provoked does not land inside this one's wall time.
    gc.collect()
    t0 = time.perf_counter()
    sim = run_cluster(
        servers,
        job_file,
        gpu_policy="preserve",
        engine=engine,
        scan_cache=scan_cache,
        scan_spill=scan_spill,
    )
    wall = time.perf_counter() - t0
    sim.scheduler.check_index()  # the delta-maintained index stayed exact
    digest = hashlib.sha256(
        json.dumps(sim.log.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest, wall, sim.log.makespan, sim.log.cache_stats or {}


def build_table() -> Tuple[str, Dict[str, float], bool]:
    """Run every replay; returns (table text, gate inputs, identical?)."""
    batch_digest, batch_wall, makespan, _ = _replay("batch")

    cache = ScanCache()
    cold_digest, cold_wall, _, cold_stats = _replay("cached", cache)
    warm_digests = []
    warm_walls = []
    warm_stats: Dict[str, float] = {}
    for _ in range(WARM_REPLAYS):
        digest, wall, _, warm_stats = _replay("cached", cache)
        warm_digests.append(digest)
        warm_walls.append(wall)
    warm_wall = statistics.median(warm_walls)

    # Persistent-tier round trip: spill the warm cache, load it into a
    # fresh one (exactly what a new worker process does), replay once.
    with tempfile.TemporaryDirectory(prefix="mapa-fleet-spill-") as spill_dir:
        spill = ScanSpillStore(spill_dir)
        spilled = spill.spill(cache)
        spill_digest, spill_wall, _, spill_stats = _replay(
            "cached", ScanCache(), scan_spill=spill
        )

    digests = [batch_digest, cold_digest, *warm_digests, spill_digest]
    identical = all(digest == batch_digest for digest in digests)
    spill_hit_rate = float(spill_stats.get("scan_hit_rate", 0.0))

    fleet = mixed_fleet(NUM_SERVERS)
    rows = [
        ["fleet", f"{fleet.num_servers} servers ({fleet.label()})"],
        ["jobs replayed", f"{NUM_JOBS}"],
        [
            "arrivals",
            (
                f"MMPP ({SCENARIO.arrival.quiet_rate:g}/s quiet, "
                f"{SCENARIO.arrival.burst_rate:g}/s bursts)"
            ),
        ],
        ["simulated makespan (s)", f"{makespan:.0f}"],
        ["log digest (sha256, 12)", batch_digest[:12]],
        ["batch replay wall (s)", f"{batch_wall:.1f}"],
        ["cached replay wall, cold (s)", f"{cold_wall:.1f}"],
        ["cached replay wall, warm (s)", f"{warm_wall:.2f}"],
        [
            "cold scan-cache hit rate",
            f"{100.0 * float(cold_stats.get('scan_hit_rate', 0.0)):.1f}%",
        ],
        [
            "warm scan lookups (decisions memoized)",
            f"{warm_stats.get('scan_lookups', 0):.0f}",
        ],
        ["scan partitions spilled", f"{spilled}"],
        ["spill-warmed replay wall (s)", f"{spill_wall:.2f}"],
        ["spill-warmed scan hit rate", f"{100.0 * spill_hit_rate:.1f}%"],
        [
            "replay throughput, warm (jobs/s)",
            f"{NUM_JOBS / warm_wall:.0f}",
        ],
        [
            f"byte-identical (all {len(digests)} replays)",
            "yes" if identical else "NO",
        ],
    ]
    text = format_table(
        ["metric", "value"],
        rows,
        title="Fleet-scale replay — heterogeneous fleet, generated scenario",
    )
    gates = {"digest": batch_digest, "spill_hit_rate": spill_hit_rate}
    stats_payload = {
        "fleet": fleet.label(),
        "jobs": NUM_JOBS,
        "log_digest": batch_digest,
        "batch_wall_s": batch_wall,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "spill_wall_s": spill_wall,
        "scan_partitions_spilled": spilled,
        "cold_cache_stats": cold_stats,
        "warm_cache_stats": warm_stats,
        "spill_cache_stats": spill_stats,
        "byte_identical": identical,
    }
    atomic_write_text(
        os.path.join(RESULTS_DIR, "fleet_cache_stats.json"),
        json.dumps(stats_payload, indent=2, sort_keys=True) + "\n",
    )
    if os.environ.get("MAPA_UPDATE_BENCH"):
        atomic_write_text(
            BASELINE_PATH,
            json.dumps(
                {
                    "scenario": "fleet-scale",
                    "servers": NUM_SERVERS,
                    "jobs": NUM_JOBS,
                    "log_digest": batch_digest,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
    return text, gates, identical


def _assert_gates(gates: Dict[str, float], identical: bool) -> None:
    """The CI gates, shared by pytest and standalone runs."""
    assert identical, (
        "replays are not byte-identical (batch / cached cold / cached warm / "
        "spill-warmed)"
    )
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        assert gates["digest"] == baseline["log_digest"], (
            "fleet replay log digest drifted from the committed baseline "
            f"({gates['digest'][:12]} != {baseline['log_digest'][:12]}); "
            "set MAPA_UPDATE_BENCH=1 to regenerate after an intentional "
            "scenario change"
        )
    assert gates["spill_hit_rate"] >= HIT_RATE_GATE, (
        f"spill-warmed hit rate {100.0 * gates['spill_hit_rate']:.1f}% "
        f"under the {100.0 * HIT_RATE_GATE:.0f}% gate"
    )


def test_fleet_scale(benchmark):
    text, gates, identical = benchmark.pedantic(
        build_table, rounds=1, iterations=1
    )
    emit("fleet_scale", text)
    _assert_gates(gates, identical)


if __name__ == "__main__":
    text, gates, identical = build_table()
    emit("fleet_scale", text)
    _assert_gates(gates, identical)
