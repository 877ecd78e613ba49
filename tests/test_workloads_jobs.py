"""Unit tests for jobs, job files and the trace generator."""

import dataclasses

import pytest

from repro.appgraph import patterns
from repro.workloads.catalog import WORKLOADS
from repro.workloads.generator import generate_job_file, generate_ml_job_file
from repro.workloads.jobs import Job, JobFile


class TestJob:
    def test_application_graph(self):
        job = Job(1, "vgg-16", 4, "ring", True)
        assert job.application_graph() == patterns.ring(4)

    def test_single_gpu_always_trivial_pattern(self):
        job = Job(1, "vgg-16", 1, "ring", True)
        assert job.application_graph() == patterns.single(1)

    def test_request_carries_sensitivity(self):
        job = Job(7, "googlenet", 3, "ring", False)
        req = job.request()
        assert req.num_gpus == 3
        assert not req.bandwidth_sensitive
        assert req.job_id == 7

    def test_workload_spec(self):
        job = Job(1, "jacobi", 2, "chain", False)
        assert job.workload_spec() is WORKLOADS["jacobi"]

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Job(1, "vgg-16", 0, "ring", True)
        with pytest.raises(ValueError):
            Job(1, "vgg-16", 2, "ring", True, submit_time=-1.0)

    def test_construction_contract(self):
        """The hand-written ``__init__`` keeps the dataclass contract."""
        positional = Job(3, "vgg-16", 2, "ring", True, 4.5)
        keyword = Job(
            job_id=3,
            workload="vgg-16",
            num_gpus=2,
            pattern="ring",
            bandwidth_sensitive=True,
            submit_time=4.5,
        )
        assert positional == keyword
        assert hash(positional) == hash(keyword)
        assert repr(keyword) == (
            "Job(job_id=3, workload='vgg-16', num_gpus=2, pattern='ring', "
            "bandwidth_sensitive=True, submit_time=4.5)"
        )
        assert Job(3, "vgg-16", 2, "ring", True).submit_time == 0.0
        assert dataclasses.replace(keyword, num_gpus=4).num_gpus == 4
        with pytest.raises(ValueError, match=r"^job 3: num_gpus must be ≥ 1$"):
            Job(3, "vgg-16", 0, "ring", True)
        with pytest.raises(ValueError, match=r"^job 3: negative submit time$"):
            Job(3, "vgg-16", 2, "ring", True, submit_time=-0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            keyword.num_gpus = 8
        with pytest.raises(TypeError):
            Job(3, "vgg-16", 2, "ring")

    def test_csv_roundtrip(self):
        job = Job(5, "resnet-50", 3, "ring", True, submit_time=1.5)
        assert Job.from_csv_row(job.to_csv_row()) == job

    def test_csv_without_submit_time(self):
        job = Job.from_csv_row("2,alexnet,4,ring,1")
        assert job.submit_time == 0.0
        assert job.bandwidth_sensitive

    def test_malformed_row(self):
        with pytest.raises(ValueError):
            Job.from_csv_row("1,vgg-16")


class TestJobFile:
    def test_roundtrip(self):
        jf = JobFile(
            [
                Job(1, "vgg-16", 2, "ring", True),
                Job(2, "gmm", 1, "single", False),
            ]
        )
        assert JobFile.from_csv(jf.to_csv()).jobs == jf.jobs

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            JobFile([Job(1, "vgg-16", 2, "ring", True)] * 2)

    def test_save_load(self, tmp_path):
        jf = generate_job_file(10, seed=1)
        path = tmp_path / "trace.csv"
        jf.save(str(path))
        loaded = JobFile.load(str(path))
        assert loaded.jobs == jf.jobs

    def test_empty_csv(self):
        assert len(JobFile.from_csv("")) == 0

    def test_max_gpus(self):
        jf = generate_job_file(50, seed=3, max_gpus=5)
        assert jf.max_gpus() <= 5


class TestGenerator:
    def test_trace_length(self):
        assert len(generate_job_file(300, seed=2021)) == 300

    def test_deterministic(self):
        a = generate_job_file(50, seed=42)
        b = generate_job_file(50, seed=42)
        assert a.jobs == b.jobs

    def test_different_seeds_differ(self):
        a = generate_job_file(50, seed=1)
        b = generate_job_file(50, seed=2)
        assert a.jobs != b.jobs

    def test_gpu_range(self):
        jf = generate_job_file(200, seed=5, min_gpus=2, max_gpus=4)
        assert all(2 <= j.num_gpus <= 4 for j in jf)

    def test_roughly_uniform_gpu_mix(self):
        """Paper: requested GPU counts follow a uniform distribution."""
        jf = generate_job_file(1000, seed=11, min_gpus=1, max_gpus=5)
        counts = {k: 0 for k in range(1, 6)}
        for j in jf:
            counts[j.num_gpus] += 1
        for k in counts:
            assert 140 <= counts[k] <= 260  # 200 expected

    def test_sensitivity_flags_match_catalogue(self):
        for job in generate_job_file(100, seed=9):
            assert (
                job.bandwidth_sensitive
                == WORKLOADS[job.workload].bandwidth_sensitive
            )

    def test_ml_only_trace(self):
        jf = generate_ml_job_file(60, seed=4)
        assert all(WORKLOADS[j.workload].kind == "ml-training" for j in jf)

    def test_arrival_process(self):
        jf = generate_job_file(30, seed=8, arrival_rate=0.1)
        submits = [j.submit_time for j in jf]
        assert submits == sorted(submits)
        assert submits[0] > 0

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            generate_job_file(10, min_gpus=0)
        with pytest.raises(ValueError):
            generate_job_file(10, min_gpus=4, max_gpus=2)

    def test_unknown_workload_rejected_early(self):
        with pytest.raises(KeyError):
            generate_job_file(10, workload_names=["bert"])
