"""Integration tests for the cluster simulator (paper Fig. 14)."""

import pytest

from repro.cluster import MultiServerSimulator
from repro.policies.registry import make_policy
from repro.sim.cluster import run_all_policies, run_policy
from repro.workloads.generator import generate_job_file
from repro.workloads.jobs import Job, JobFile


@pytest.fixture(scope="module")
def small_trace():
    return generate_job_file(40, seed=7, max_gpus=5)


class TestBasicRuns:
    def test_all_jobs_complete(self, dgx, small_trace):
        log = run_policy(dgx, make_policy("baseline"), small_trace)
        assert len(log) == len(small_trace)
        logged_ids = {r.job_id for r in log}
        assert logged_ids == {j.job_id for j in small_trace}

    def test_state_fully_released(self, dgx, small_trace):
        sim = MultiServerSimulator([dgx], gpu_policy=make_policy("baseline"))
        sim.run(small_trace)
        assert sim.scheduler.total_free == dgx.num_gpus

    def test_oversize_job_rejected(self, dgx):
        jf = JobFile([Job(1, "vgg-16", 9, "ring", True)])
        with pytest.raises(ValueError):
            run_policy(dgx, make_policy("baseline"), jf)

    def test_deterministic(self, dgx, small_trace):
        l1 = run_policy(dgx, make_policy("greedy"), small_trace)
        l2 = run_policy(dgx, make_policy("greedy"), small_trace)
        assert [(r.job_id, r.start_time, r.allocation) for r in l1.records] == [
            (r.job_id, r.start_time, r.allocation) for r in l2.records
        ]


class TestSchedulingSemantics:
    def test_fifo_start_order(self, dgx):
        """With head-of-line blocking, start times follow submission order."""
        jf = generate_job_file(30, seed=13)
        log = run_policy(dgx, make_policy("baseline"), jf)
        starts = {r.job_id: r.start_time for r in log.records}
        ordered = [starts[j.job_id] for j in jf]
        assert ordered == sorted(ordered)

    def test_no_gpu_oversubscription(self, dgx, small_trace):
        """At any instant, concurrently running jobs hold disjoint GPUs."""
        log = run_policy(dgx, make_policy("preserve"), small_trace)
        records = sorted(log.records, key=lambda r: r.start_time)
        for i, a in enumerate(records):
            for b in records[i + 1 :]:
                if b.start_time < a.finish_time and a.start_time < b.finish_time:
                    assert not (set(a.allocation) & set(b.allocation)), (
                        f"jobs {a.job_id} and {b.job_id} overlap in time and GPUs"
                    )

    def test_allocation_sizes_match_requests(self, dgx, small_trace):
        log = run_policy(dgx, make_policy("topo-aware"), small_trace)
        requested = {j.job_id: j.num_gpus for j in small_trace}
        for r in log.records:
            assert len(r.allocation) == requested[r.job_id]

    def test_wait_times_nonnegative(self, dgx, small_trace):
        log = run_policy(dgx, make_policy("greedy"), small_trace)
        assert all(r.wait_time >= -1e-9 for r in log.records)

    def test_exec_time_depends_on_allocation_quality(self, dgx):
        """The same sensitive job runs faster when the policy finds it a
        better-connected allocation."""
        jf = JobFile([Job(1, "vgg-16", 3, "ring", True)])
        t_base = run_policy(dgx, make_policy("baseline"), jf).records[0]
        t_greedy = run_policy(dgx, make_policy("greedy"), jf).records[0]
        assert t_greedy.execution_time <= t_base.execution_time


class TestLogContents:
    def test_single_gpu_jobs_have_zero_bw(self, dgx):
        jf = JobFile([Job(1, "gmm", 1, "single", False)])
        log = run_policy(dgx, make_policy("baseline"), jf)
        rec = log.records[0]
        assert rec.measured_effective_bw == 0.0
        assert rec.allocation == (1,)

    def test_multi_gpu_jobs_have_positive_bw(self, dgx, small_trace):
        log = run_policy(dgx, make_policy("preserve"), small_trace)
        for r in log.multi_gpu():
            assert r.measured_effective_bw > 0
            assert r.predicted_effective_bw >= 0

    def test_log_csv_has_all_rows(self, dgx, small_trace):
        log = run_policy(dgx, make_policy("baseline"), small_trace)
        csv = log.to_csv()
        assert len(csv.strip().splitlines()) == len(small_trace) + 1

    def test_makespan_and_throughput(self, dgx, small_trace):
        log = run_policy(dgx, make_policy("baseline"), small_trace)
        assert log.makespan == max(r.finish_time for r in log.records)
        assert log.throughput == pytest.approx(len(log) / log.makespan)


class TestRunAllPolicies:
    def test_four_logs(self, dgx, small_trace, dgx_model):
        logs = run_all_policies(dgx, small_trace, dgx_model)
        assert set(logs) == {"baseline", "topo-aware", "greedy", "preserve"}
        for log in logs.values():
            assert len(log) == len(small_trace)

    def test_policy_names_recorded(self, dgx, small_trace, dgx_model):
        logs = run_all_policies(dgx, small_trace, dgx_model)
        for name, log in logs.items():
            assert log.policy_name == name
