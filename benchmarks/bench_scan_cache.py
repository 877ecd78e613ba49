"""Scan-cache microbenchmark: cold vs warm latency, hit rate vs capacity.

Two measurements of the content-addressed scan cache
(:mod:`repro.scoring.memo`):

* **cold vs warm scan latency** — building a DGX-V match table
  (:func:`~repro.policies.scan.batch_scan`) from scratch versus serving the identical request from a warm
  :class:`~repro.policies.scan.CachedScan` (key construction + LRU
  lookup); the ratio is the per-event payoff of a cache hit;
* **hit rate vs LRU capacity** — a fixed single-server trace replayed
  under Preserve at shrinking cache capacities, charting how the hit
  rate degrades (and evictions grow) once the LRU bound bites.  The
  unbounded row is the trace's intrinsic key diversity.

Alongside the human-readable table, the run writes
``BENCH_scan_cache.json`` under the results directory — a trajectory
entry (cold/warm microseconds, speedup, the hit-rate curve).  The
results directory is transient; a committed baseline snapshot lives
at ``benchmarks/BENCH_scan_cache.json`` so future PRs have a perf
reference to diff against.

Wall-clock numbers vary by machine, so nothing here is golden-table
material; the companion correctness locks live in the unit and
property tests.

Run standalone:  PYTHONPATH=src python benchmarks/bench_scan_cache.py
"""

import json
import os
import time
from typing import List, Optional, Tuple

from repro.analysis.tables import format_table
from repro.appgraph import patterns
from repro.ioutils import atomic_write_text
from repro.policies.registry import make_policy
from repro.policies.scan import CachedScan, batch_scan
from repro.scoring.memo import ScanCache
from repro.sim.cluster import run_policy
from repro.topology.builders import dgx1_v100
from repro.workloads.generator import generate_job_file

try:
    from conftest import RESULTS_DIR, emit
except ImportError:  # standalone run, outside pytest's benchmarks rootdir
    RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

    def emit(experiment: str, text: str) -> None:
        print(f"\n===== {experiment} =====\n{text}")

#: Scan shape of the latency measurement: ring(4) over all 8 free GPUs
#: of a DGX-1V — C(8,4)·orbits candidates, a typical mid-size scan.
PATTERN_GPUS = 4

#: Trace length of the capacity sweep.
NUM_JOBS = 1000

#: LRU capacities swept (``None`` = unbounded, the intrinsic ceiling).
CAPACITIES: Tuple[Optional[int], ...] = (8, 32, 128, 512, None)

#: Timing repetitions (medians reported).
REPS = 200


def _median_us(fn, reps: int = REPS) -> float:
    """Median wall time of ``fn()`` in microseconds."""
    samples: List[float] = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return 1e6 * samples[len(samples) // 2]


def measure_latency() -> Tuple[float, float]:
    """(cold build µs, warm hit µs) for the reference scan shape."""
    hardware = dgx1_v100()
    pattern = patterns.ring(PATTERN_GPUS)
    free = hardware.gpus
    cold_us = _median_us(lambda: batch_scan(pattern, hardware, free))
    cached = CachedScan()
    cached.entry(pattern, hardware, free)  # prime
    warm_us = _median_us(lambda: cached.entry(pattern, hardware, free))
    return cold_us, warm_us


def measure_hit_rates() -> List[Tuple[str, float, int, int]]:
    """(capacity label, hit rate, misses, evictions) per swept capacity."""
    hardware = dgx1_v100()
    trace = generate_job_file(
        num_jobs=NUM_JOBS, seed=2021, max_gpus=min(5, hardware.num_gpus)
    )
    rows: List[Tuple[str, float, int, int]] = []
    for capacity in CAPACITIES:
        cache = ScanCache(capacity=capacity)
        policy = make_policy("preserve", cache=cache)
        run_policy(hardware, policy, trace)
        stats = cache.stats
        rows.append(
            (
                "unbounded" if capacity is None else str(capacity),
                stats.hit_rate,
                stats.misses,
                stats.evictions,
            )
        )
    return rows


def build_table() -> Tuple[str, dict]:
    """The result table plus the JSON trajectory payload."""
    cold_us, warm_us = measure_latency()
    speedup = cold_us / warm_us if warm_us > 0 else float("inf")
    curve = measure_hit_rates()
    rows = [
        ["cold scan build (µs)", f"{cold_us:.1f}"],
        ["warm cache hit (µs)", f"{warm_us:.1f}"],
        ["hit:build speedup", f"{speedup:.0f}x"],
    ]
    for label, hit_rate, misses, evictions in curve:
        rows.append(
            [
                f"hit rate @ capacity {label}",
                (
                    f"{100.0 * hit_rate:.1f}% "
                    f"({misses} misses, {evictions} evictions)"
                ),
            ]
        )
    text = format_table(
        ["metric", "value"],
        rows,
        title=(
            f"Scan cache — ring({PATTERN_GPUS}) on DGX-1V, "
            f"{NUM_JOBS}-job capacity sweep"
        ),
    )
    payload = {
        "bench": "scan_cache",
        "pattern": f"ring({PATTERN_GPUS})",
        "cold_us": cold_us,
        "warm_us": warm_us,
        "speedup": speedup,
        "hit_rate_curve": [
            {
                "capacity": label,
                "hit_rate": hit_rate,
                "misses": misses,
                "evictions": evictions,
            }
            for label, hit_rate, misses, evictions in curve
        ],
    }
    return text, payload


def test_scan_cache(benchmark):
    text, payload = benchmark.pedantic(build_table, rounds=1, iterations=1)
    emit("scan_cache", text)
    atomic_write_text(
        os.path.join(RESULTS_DIR, "BENCH_scan_cache.json"),
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )
    # A warm hit must never be slower than rebuilding the scan, and the
    # unbounded cache must dominate every bounded capacity.
    assert payload["speedup"] >= 1.0
    unbounded = payload["hit_rate_curve"][-1]["hit_rate"]
    assert all(
        point["hit_rate"] <= unbounded + 1e-12
        for point in payload["hit_rate_curve"]
    )


if __name__ == "__main__":
    text, payload = build_table()
    emit("scan_cache", text)
    atomic_write_text(
        os.path.join(RESULTS_DIR, "BENCH_scan_cache.json"),
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )
