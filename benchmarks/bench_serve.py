"""Serving benchmark: sustained daemon throughput + warm restart.

The allocation daemon (:mod:`repro.serve`) turns the batch schedulers
into a long-running service; this benchmark holds it to the two
promises that make the service worth running:

1. **throughput** — a pipelined client pumping a seeded
   :class:`~repro.scenarios.spec.ScenarioSpec` job stream through a
   daemon hosting the 64-server heterogeneous fleet (batching on) must
   sustain at least ``RPS_GATE`` requests/sec end-to-end — socket,
   protocol, admission, batched dispatch, response — with at least one
   genuinely batched dispatch (several ops in one scheduler flush);
2. **warm restart** — after a graceful drain (which spills the warm
   scan cache through the persistent
   :class:`~repro.experiments.spill.ScanSpillStore` tier), a *new*
   daemon on the same spill root replaying the same stream must serve
   at least ``WARM_GATE`` of its scan lookups from the rehydrated
   cache — the restart starts hot instead of re-scanning the fleet.

The run writes ``serve_stats.json`` (cold/warm load reports plus both
daemons' full metrics snapshots) next to the result tables; CI uploads
it as the serve-smoke artifact.

Sizes and gates are env-overridable (``MAPA_SERVE_JOBS``,
``MAPA_SERVE_RPS_GATE``, ``MAPA_SERVE_WARM_GATE``) so constrained
runners can still exercise the path.

Run standalone:  PYTHONPATH=src python benchmarks/bench_serve.py
"""

import json
import os
import tempfile
from typing import Any, Dict, Tuple

from repro.analysis.tables import format_table
from repro.ioutils import atomic_write_text
from repro.serve import (
    SERVE_BENCH_FLEET,
    AllocationClient,
    DaemonConfig,
    bench_jobs,
    run_load,
    start_daemon_thread,
)

try:
    from conftest import RESULTS_DIR, emit
except ImportError:  # standalone run, outside pytest's benchmarks rootdir
    RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

    def emit(experiment: str, text: str) -> None:
        print(f"\n===== {experiment} =====\n{text}")


#: Jobs in the load stream (each allocated job is also released, so the
#: daemon answers ~2x this many requests per phase).
NUM_JOBS = int(os.environ.get("MAPA_SERVE_JOBS", "2000"))

#: Sustained requests/sec the cold phase must reach.
RPS_GATE = float(os.environ.get("MAPA_SERVE_RPS_GATE", "1000"))

#: Scan-cache hit rate the restarted daemon must reach on the rerun.
WARM_GATE = float(os.environ.get("MAPA_SERVE_WARM_GATE", "0.9"))

#: Flush window (s): the upper bound on coalescing a pipelined burst
#: into one dispatch; a lone op never waits it out.
FLUSH_WINDOW = 0.002


def _phase(
    spill_root: str, jobs, socket_path: str
) -> Tuple[Any, Dict[str, Any], Dict[str, Any]]:
    """One daemon lifetime: boot, load, stats, drain.

    Returns ``(load report, stats snapshot, drain summary)``.
    """
    config = DaemonConfig(
        fleet=SERVE_BENCH_FLEET,
        flush_window=FLUSH_WINDOW,
        queue_limit=4096,
        spill_root=spill_root,
    )
    handle = start_daemon_thread(config, socket_path=socket_path)
    try:
        with AllocationClient(socket_path=socket_path) as client:
            report = run_load(client, jobs)
            stats = client.stats()
            summary = client.drain()
    finally:
        handle.join(timeout=60)
    return report, stats, summary


def build_table() -> Tuple[str, Dict[str, Any]]:
    """Run both phases; returns (table text, gate values)."""
    jobs = bench_jobs(NUM_JOBS)
    with tempfile.TemporaryDirectory(prefix="mapa-bench-serve-") as tmp:
        spill_root = os.path.join(tmp, "cache")
        cold_report, cold_stats, cold_drain = _phase(
            spill_root, jobs, os.path.join(tmp, "cold.sock")
        )
        warm_report, warm_stats, warm_drain = _phase(
            spill_root, jobs, os.path.join(tmp, "warm.sock")
        )

    cold_counters = cold_stats["counters"]
    warm_counters = warm_stats["counters"]
    warm_cache = warm_stats["cache"]
    gates = {
        "requests_per_sec": cold_report.requests_per_sec,
        "batched_dispatches": cold_counters["batched_dispatches"],
        "cold_drain_clean": bool(cold_drain.get("clean")),
        "spilled_entries": cold_drain.get("spilled_entries", 0),
        "warm_entries": warm_counters["warm_entries"],
        "warm_hit_rate": warm_cache.get("scan_hit_rate", 0.0),
        "warm_drain_clean": bool(warm_drain.get("clean")),
    }

    rows = [
        ["fleet", SERVE_BENCH_FLEET],
        ["jobs per phase", str(NUM_JOBS)],
        ["cold requests/sec", f"{cold_report.requests_per_sec:.0f}"],
        [
            "cold allocated / noroom",
            f"{cold_report.allocated} / {cold_report.noroom}",
        ],
        [
            "cold dispatches (batched)",
            f"{cold_counters['dispatches']} "
            f"({cold_counters['batched_dispatches']} batched, "
            f"max {cold_counters['max_batch']})",
        ],
        ["entries spilled on drain", str(gates["spilled_entries"])],
        ["warm entries rehydrated", str(gates["warm_entries"])],
        ["warm requests/sec", f"{warm_report.requests_per_sec:.0f}"],
        [
            "warm scan-cache hit rate",
            f"{100.0 * gates['warm_hit_rate']:.1f}% "
            f"({warm_cache.get('scan_hits', 0):.0f}"
            f"/{warm_cache.get('scan_lookups', 0):.0f} lookups)",
        ],
        [
            "gates",
            f"rps >= {RPS_GATE:.0f}, warm hits >= "
            f"{100.0 * WARM_GATE:.0f}%, >=1 batched dispatch, clean drains",
        ],
    ]
    text = format_table(
        ["metric", "value"],
        rows,
        title="Allocation daemon: sustained load + warm restart",
    )

    os.makedirs(RESULTS_DIR, exist_ok=True)
    atomic_write_text(
        os.path.join(RESULTS_DIR, "serve_stats.json"),
        json.dumps(
            {
                "jobs": NUM_JOBS,
                "fleet": SERVE_BENCH_FLEET,
                "gates": {
                    "rps_gate": RPS_GATE,
                    "warm_gate": WARM_GATE,
                    **{
                        k: (round(v, 3) if isinstance(v, float) else v)
                        for k, v in gates.items()
                    },
                },
                "cold": {
                    "report": cold_report.as_dict(),
                    "stats": cold_stats,
                    "drain": cold_drain,
                },
                "warm": {
                    "report": warm_report.as_dict(),
                    "stats": warm_stats,
                    "drain": warm_drain,
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    return text, gates


def _assert_gates(gates: Dict[str, Any]) -> None:
    """The CI gates, shared by pytest and standalone runs."""
    assert gates["requests_per_sec"] >= RPS_GATE, (
        f"daemon sustained only {gates['requests_per_sec']:.0f} req/s "
        f"(gate {RPS_GATE:.0f})"
    )
    assert gates["batched_dispatches"] >= 1, (
        "no dispatch ever coalesced more than one op — batching is "
        "not engaging"
    )
    assert gates["cold_drain_clean"] and gates["warm_drain_clean"], (
        "drain was not clean (leases had to be force-released)"
    )
    assert gates["spilled_entries"] > 0, (
        "drain spilled nothing — the warm-restart path has no tier to "
        "rehydrate from"
    )
    assert gates["warm_entries"] > 0, (
        "restarted daemon rehydrated no entries from the spill tier"
    )
    assert gates["warm_hit_rate"] >= WARM_GATE, (
        f"restarted daemon's scan hit rate "
        f"{100.0 * gates['warm_hit_rate']:.1f}% is under the "
        f"{100.0 * WARM_GATE:.0f}% warm gate"
    )


def test_serve(benchmark):
    text, gates = benchmark.pedantic(build_table, rounds=1, iterations=1)
    emit("serve", text)
    _assert_gates(gates)


if __name__ == "__main__":
    text, gates = build_table()
    emit("serve", text)
    _assert_gates(gates)
