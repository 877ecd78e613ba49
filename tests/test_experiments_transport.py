"""Unit tests for the sweep transport.

Workers return each cell as a :class:`CellHandle` carrying its
``.mlog`` bytes over the pool pipe; a log the codec rejects comes back
as a plain :class:`CellResult`.  End to end, a parallel sweep creates
no shared memory and is byte-identical to the serial reference.
"""

import copy
from multiprocessing import shared_memory

import pytest

from repro.experiments import ResultStore, TraceSpec, simulate_cell
from repro.experiments.runner import SweepRunner, simulate_cell_packed
from repro.experiments.spec import CellConfig, ExperimentSpec
from repro.experiments.store import CellResult
from repro.experiments.transport import (
    ArenaReader,
    CellHandle,
    TransportConfig,
    new_run_id,
    pack_result,
)
from repro.sim.records import decode_mlog

CELL = CellConfig(
    topology="dgx1-v100",
    policy="baseline",
    discipline="fifo",
    trace=TraceSpec(num_jobs=8),
)


@pytest.fixture(scope="module")
def result():
    return simulate_cell(CELL)


class TestFallbackLadder:
    def test_inline_rung_round_trips(self, result):
        returned = pack_result(result, TransportConfig(run_id=new_run_id()))
        assert isinstance(returned, CellHandle)
        assert returned.config_hash == result.config_hash
        assert returned.label == result.label
        meta, _ = decode_mlog(returned.payload)
        assert meta == {"config_hash": result.config_hash, "label": result.label}
        reader = ArenaReader()
        decoded = reader.materialize(returned)
        assert decoded.log._lazy is not None
        assert decoded.log.to_dict() == result.log.to_dict()
        assert reader.segment_names() == []
        reader.close()

    def test_unencodable_log_falls_back_to_plain_result(self, result):
        broken = copy.deepcopy(result)
        broken.log._thaw() if broken.log._lazy else None
        broken.log._allocation[0] = ("gpu-a",)  # non-integer allocation
        broken = CellResult(
            config_hash=result.config_hash,
            label=result.label,
            log=broken.log,
            cached=False,
        )
        returned = pack_result(broken, TransportConfig(run_id=new_run_id()))
        assert isinstance(returned, CellResult)


class TestWorkerEntry:
    def test_simulate_cell_packed_matches_simulate_cell(self, result):
        returned = simulate_cell_packed(CELL)
        assert isinstance(returned, CellHandle)
        decoded = ArenaReader().materialize(returned)
        assert decoded.log.to_dict() == result.log.to_dict()


class TestKnobsGone:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: SweepRunner(arena_bytes=0),
            lambda: TransportConfig(run_id="r", arena_bytes=0),
            lambda: TransportConfig(run_id="r", store_root="/nowhere"),
            lambda: ResultStore("/nowhere", binary=False),
        ],
        ids=["runner-arena_bytes", "config-arena_bytes",
             "config-store_root", "store-binary"],
    )
    def test_removed_keyword_raises_type_error(self, build):
        with pytest.raises(TypeError):
            build()


class TestEndToEnd:
    def _spec(self):
        return ExperimentSpec(
            name="transport-e2e",
            topologies=("dgx1-v100",),
            policies=("baseline", "preserve"),
            disciplines=("fifo",),
            trace=TraceSpec(num_jobs=10),
        )

    def test_parallel_sweep_is_byte_identical_to_serial(
        self, tmp_path, monkeypatch
    ):
        def no_segments(*_args, **_kwargs):
            raise AssertionError("a sweep created a /dev/shm/psm_* segment")

        # The pool forks after this patch, so it holds in the workers too.
        monkeypatch.setattr(shared_memory, "SharedMemory", no_segments)
        serial = SweepRunner(jobs=1).run(self._spec())
        with SweepRunner(jobs=2, store=ResultStore(str(tmp_path))) as runner:
            parallel = runner.run(self._spec())
        assert parallel.num_simulated == len(serial.results) == 2
        for cell in serial.cells:
            ours = serial.results[cell]
            theirs = parallel.results[cell]
            assert ours.config_hash == theirs.config_hash
            assert ours.log.to_dict() == theirs.log.to_dict()
        assert parallel.transport.segment_names() == []

    def test_summary_rows_leave_logs_lazy(self, tmp_path):
        with SweepRunner(jobs=2, store=ResultStore(str(tmp_path))) as runner:
            outcome = runner.run(self._spec())
        outcome.summary_rows()
        logs = [outcome.results[c].log for c in outcome.cells]
        assert all(log._lazy is not None for log in logs)
        # Touching records thaws exactly that cell.
        assert len(logs[0].records) == 10
        assert logs[0]._lazy is None
        assert logs[1]._lazy is not None

    def test_warm_rerun_hits_binary_tier(self, tmp_path):
        with SweepRunner(jobs=2, store=ResultStore(str(tmp_path))) as runner:
            runner.run(self._spec())
        stats = ResultStore(str(tmp_path)).disk_stats()
        assert (stats.entries, stats.orphans) == (2, 0)
        warm_store = ResultStore(str(tmp_path))
        with SweepRunner(jobs=2, store=warm_store) as runner:
            outcome = runner.run(self._spec())
        assert all(r.cached for r in outcome.results.values())
        assert warm_store.mlog_hits == len(outcome.results) == 2
        assert warm_store.json_hits == warm_store.migrations == 0
