"""Tests for the backfill scheduling extension and the oracle policy."""

import pytest

from repro.policies.registry import make_policy
from repro.sim.cluster import run_policy
from repro.workloads.generator import generate_job_file
from repro.workloads.jobs import Job, JobFile


class TestBackfill:
    def test_unknown_discipline_rejected(self, dgx):
        with pytest.raises(ValueError):
            run_policy(dgx, make_policy("baseline"), JobFile([]), scheduling="lifo")

    def test_backfill_completes_all_jobs(self, dgx):
        trace = generate_job_file(40, seed=6)
        log = run_policy(
            dgx, make_policy("baseline"), trace, scheduling="backfill"
        )
        assert len(log) == 40

    def test_backfill_starts_small_job_past_blocked_head(self, dgx):
        """An 8-GPU runner blocks a 5-GPU head; a later 2-GPU job can
        backfill only under the backfill discipline."""
        trace = JobFile(
            [
                Job(1, "vgg-16", 6, "ring", True),
                Job(2, "vgg-16", 5, "ring", True),
                Job(3, "gmm", 2, "single", False),
            ]
        )
        fifo = run_policy(dgx, make_policy("baseline"), trace)
        back = run_policy(
            dgx, make_policy("baseline"), trace, scheduling="backfill"
        )
        start_fifo = {r.job_id: r.start_time for r in fifo.records}
        start_back = {r.job_id: r.start_time for r in back.records}
        assert start_fifo[3] > 0.0  # blocked behind the 5-GPU head
        assert start_back[3] == 0.0  # backfilled immediately

    def test_backfill_never_hurts_makespan_much(self, dgx):
        trace = generate_job_file(60, seed=10)
        fifo = run_policy(dgx, make_policy("preserve"), trace)
        back = run_policy(
            dgx, make_policy("preserve"), trace, scheduling="backfill"
        )
        assert back.makespan <= fifo.makespan * 1.05


class TestOraclePolicy:
    def test_registry(self):
        assert make_policy("oracle").name == "oracle"

    def test_oracle_picks_measured_best(self, dgx):
        from itertools import combinations

        from repro.appgraph import patterns
        from repro.comm.microbench import peak_effective_bandwidth
        from repro.policies.base import AllocationRequest

        policy = make_policy("oracle")
        alloc = policy.allocate(
            AllocationRequest(pattern=patterns.ring(3), bandwidth_sensitive=True),
            dgx,
            frozenset(dgx.gpus),
        )
        best = max(
            peak_effective_bandwidth(dgx, s)
            for s in combinations(dgx.gpus, 3)
        )
        assert alloc.scores["measured_bw"] == pytest.approx(best)

    def test_oracle_at_least_matches_preserve_on_trace(self, dgx, dgx_model):
        """The oracle's sensitive-job measured bandwidth should not trail
        Preserve's (it optimises the ground truth directly)."""
        import numpy as np

        trace = generate_job_file(60, seed=12)
        preserve = run_policy(dgx, make_policy("preserve", dgx_model), trace, dgx_model)
        oracle = run_policy(dgx, make_policy("oracle"), trace, dgx_model)
        p = np.mean([r.measured_effective_bw for r in preserve.sensitive() if r.num_gpus > 1])
        o = np.mean([r.measured_effective_bw for r in oracle.sensitive() if r.num_gpus > 1])
        assert o >= p * 0.95
