"""Direct timed calls of public leaf functions, on the workload's own inputs.

Proxies can only see calls that cross an object the benchmark handed
in.  The leaves below sit deeper than that (the scan behind a policy,
the codec behind a store), so a traced run times them directly — on
states, logs and messages *sampled from the workload it just ran*, not
on synthetic inputs, so the per-call cost belongs to the same traffic
as the end-to-end number it is meant to explain.

Each probe is capped (a few hundred calls) and runs after the timed
region, so none of it leaks into an end-to-end metric.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Sequence, Tuple

import numpy as np

from harness import Context, Outcome, perf, timed
from wl_fleet import GPU_POLICY, NODE_POLICY, Replays, ReplayState, replay

from repro.cluster import MultiServerScheduler
from repro.experiments.spill import ScanSpillStore
from repro.policies.scan import CachedScan, batch_scan
from repro.scoring.batch import pair_slots, score_pair_matrix
from repro.scoring.memo import ScanCache
from repro.sim.records import decode_mlog, encode_mlog

#: Cap on sampled scan states per probe (the issue's floor is 200).
MAX_STATES = 400


def _sampled_states(done: Replays) -> List[Tuple[Any, Any, Tuple[int, ...]]]:
    states: List[Tuple[Any, Any, Tuple[int, ...]]] = []
    for tap in done.taps:
        states.extend(tap.states)
    return states[:MAX_STATES]


def scan_probes(out: Outcome, states: Sequence[Tuple[Any, Any, Tuple[int, ...]]]) -> None:
    """``scan.miss_us`` / ``scan.hit_us`` / ``scoring.us_per_match``."""
    if not states:
        return
    start = perf()
    for hardware, pattern, free in states:
        batch_scan(pattern, hardware, free)
    out.metrics["scan.miss_us"] = 1e6 * (perf() - start) / len(states)

    front = CachedScan(ScanCache())
    for hardware, pattern, free in states:
        front.entry(pattern, hardware, free)
    start = perf()
    for hardware, pattern, free in states:
        front.entry(pattern, hardware, free)
    out.metrics["scan.hit_us"] = 1e6 * (perf() - start) / len(states)

    # One pair matrix per state: every k-subset of the free GPUs as a
    # candidate, its k(k-1)/2 links as flat link-table indices.
    matrices = []
    for hardware, pattern, free in states:
        k = pattern.num_gpus
        if k < 2:
            continue
        table = hardware.link_table
        rows = table.rows_of(free)
        subsets = np.array(list(itertools.combinations(rows, k)), dtype=np.intp)
        a_idx, b_idx = pair_slots(k)
        n = len(table.gpus)
        matrices.append((table, subsets[:, a_idx] * n + subsets[:, b_idx]))
    matches = sum(len(matrix) for _, matrix in matrices)
    start = perf()
    for table, matrix in matrices:
        score_pair_matrix(table, matrix)
    out.metrics["scoring.us_per_match"] = (
        1e6 * (perf() - start) / matches if matches else 0.0
    )


def record_probes(out: Outcome, log: Any) -> None:
    """``records.encode_mlog_s`` / ``decode_mlog_s`` / ``to_dict_s``."""
    wall, payload = timed(lambda: encode_mlog(log))
    out.metrics["records.encode_mlog_s"] = wall
    wall, _ = timed(lambda: decode_mlog(payload, lazy=True)[1].numeric_columns())
    out.metrics["records.decode_mlog_s"] = wall
    wall, _ = timed(log.to_dict)
    out.metrics["records.to_dict_s"] = wall


def route_probe(out: Outcome, state: ReplayState) -> None:
    """``scheduler.route_us``: ``CandidateServerIndex.first`` half-busy."""
    inputs = state.inputs
    scheduler = MultiServerScheduler(
        inputs.fleet.build(),
        gpu_policy=GPU_POLICY,
        node_policy=NODE_POLICY,
        scan_cache=state.cache,
    )
    jobs = inputs.job_file.jobs
    # Fill the fleet to about half its GPUs with the trace's first jobs.
    for job in jobs:
        if scheduler.total_free * 2 <= scheduler.total_gpus:
            break
        scheduler.try_place(job.request())
    index = scheduler.candidate_index
    sizes = [job.num_gpus for job in jobs[:2000]]
    start = perf()
    for size in sizes:
        index.first(size)
    out.metrics["scheduler.route_us"] = 1e6 * (perf() - start) / len(sizes)


def spill_probes(
    ctx: Context, out: Outcome, state: ReplayState, cache: ScanCache
) -> None:
    """``spill.*``: spill a cold replay's cache, reload, replay once."""
    inputs = state.inputs
    store = ScanSpillStore(ctx.subdir("spill"))
    wall, _ = timed(lambda: store.spill(cache))
    out.metrics["spill.spill_s"] = wall
    warmed = ScanCache()
    hashes = {hw.topology_hash for hw in inputs.fleet.build()}
    wall, _ = timed(lambda: ScanSpillStore(store.root).load(warmed, hashes))
    out.metrics["spill.load_s"] = wall
    _, log = replay(inputs, warmed, "fifo", inputs.fleet.build())
    out.metrics["spill.warm_hit_rate"] = (log.cache_stats or {}).get(
        "scan_hit_rate", 0.0
    )


# ---------------------------------------------------------------------- #
# per-workload bundles (wl_fleet passes these in)
# ---------------------------------------------------------------------- #
def warm_replay_probes(
    ctx: Context, out: Outcome, done: Replays, state: ReplayState
) -> None:
    record_probes(out, done.last_log)
    route_probe(out, state)


def cold_replay_probes(
    ctx: Context, out: Outcome, done: Replays, state: ReplayState
) -> None:
    scan_probes(out, _sampled_states(done))
    # A cache filled by one cold replay of this trace, then spilled.
    cache = ScanCache()
    replay(state.inputs, cache, "fifo", state.inputs.fleet.build())
    spill_probes(ctx, out, state, cache)
