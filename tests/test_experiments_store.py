"""Unit tests for the content-addressed sweep result cache."""

import json
import os
import time

import pytest

from repro.experiments import (
    CellResult,
    ResultStore,
    TraceSpec,
    default_cache_dir,
    simulate_cell,
)
from repro.experiments.spec import CellConfig
from repro.experiments.store import CACHE_DIR_ENV, DEFAULT_CACHE_DIR


@pytest.fixture(scope="module")
def cell():
    return CellConfig(
        topology="dgx1-v100",
        policy="baseline",
        discipline="fifo",
        trace=TraceSpec(num_jobs=8),
    )


@pytest.fixture(scope="module")
def result(cell):
    return simulate_cell(cell)


class TestRoundTrip:
    def test_save_load(self, tmp_path, cell, result):
        store = ResultStore(str(tmp_path))
        assert cell not in store
        store.save(result)
        assert cell in store
        loaded = store.load(cell)
        assert loaded is not None
        assert loaded.cached is True
        assert loaded.config_hash == result.config_hash
        assert loaded.log.to_dict() == result.log.to_dict()
        assert store.hits == 1

    def test_no_partial_files_after_save(self, tmp_path, cell, result):
        store = ResultStore(str(tmp_path))
        store.save(result)
        leftovers = [
            name
            for _, _, names in os.walk(tmp_path)
            for name in names
            if name.endswith(".tmp") or name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_dict_round_trip_preserves_metrics(self, result):
        clone = CellResult.from_dict(result.to_dict())
        assert clone.makespan == result.makespan
        assert clone.throughput == result.throughput


class TestMisses:
    def test_load_missing_counts_miss(self, tmp_path, cell):
        store = ResultStore(str(tmp_path))
        assert store.load(cell) is None
        assert store.misses == 1

    def test_corrupted_entry_is_a_miss(self, tmp_path, cell, result):
        store = ResultStore(str(tmp_path))
        path = store.save(result)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"truncated": ')
        assert store.load(cell) is None

    def test_wrong_shape_entry_is_a_miss(self, tmp_path, cell, result):
        store = ResultStore(str(tmp_path))
        path = store.save(result)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"not": "a result"}, fh)
        assert store.load(cell) is None


def _write_legacy_json(root, result):
    """Stage a pre-``.mlog`` store entry: ``<root>/<hh>/<hash>.json``."""
    fanout = os.path.join(str(root), result.config_hash[:2])
    os.makedirs(fanout, exist_ok=True)
    path = os.path.join(fanout, f"{result.config_hash}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh)
    return path


def _age(path, seconds=7200.0):
    """Back-date a file's mtime so the clear guard sees it as stale."""
    old = time.time() - seconds
    os.utime(path, (old, old))


class TestOrphanTmpAge:
    """``clear(orphans_only=True)`` vs leaked ``mkstemp`` temp files."""

    def _plant_tmp(self, tmp_path, name):
        fanout = tmp_path / "ab"
        fanout.mkdir(exist_ok=True)
        path = fanout / name
        path.write_text("{}", encoding="utf-8")
        return path

    def test_stale_tmp_swept_fresh_tmp_kept(self, tmp_path, cell, result):
        store = ResultStore(str(tmp_path))
        store.save(result)
        stale = self._plant_tmp(tmp_path, ".tmp-stale.json")
        _age(stale)
        fresh = self._plant_tmp(tmp_path, ".tmp-fresh.json")

        removed, freed = store.clear(orphans_only=True)

        assert removed == 1
        assert freed > 0
        assert not stale.exists()
        # a live writer may own this one — untouched until it ages out
        assert fresh.exists()
        assert store.load(cell) is not None

    def test_non_tmp_orphans_ignore_the_guard(self, tmp_path, cell, result):
        store = ResultStore(str(tmp_path))
        store.save(result)
        junk = self._plant_tmp(tmp_path, "debris.txt")  # brand new
        removed, _ = store.clear(orphans_only=True)
        assert removed == 1
        assert not junk.exists()

    def test_zero_age_sweeps_everything(self, tmp_path):
        store = ResultStore(str(tmp_path))
        stale = self._plant_tmp(tmp_path, ".tmp-stale.json")
        _age(stale)
        fresh = self._plant_tmp(tmp_path, ".tmp-fresh.json")
        removed, _ = store.clear(orphans_only=True, tmp_age=0)
        assert removed == 2
        assert not stale.exists() and not fresh.exists()

    def test_full_clear_ignores_the_guard(self, tmp_path, cell, result):
        store = ResultStore(str(tmp_path))
        store.save(result)
        fresh = self._plant_tmp(tmp_path, ".tmp-fresh.json")
        store.clear()
        assert not fresh.exists()
        assert store.load(cell) is None

    def test_disk_stats_counts_tmp_as_orphans(self, tmp_path):
        store = ResultStore(str(tmp_path))
        self._plant_tmp(tmp_path, ".tmp-leak.json")
        stats = store.disk_stats()
        assert stats.orphans == 1
        assert stats.orphan_bytes > 0


class TestDefaults:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "/tmp/somewhere-else")
        assert default_cache_dir() == "/tmp/somewhere-else"

    def test_fallback(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_cache_dir() == DEFAULT_CACHE_DIR


class TestBinaryTier:
    def test_save_writes_mlog_and_load_is_binary_hit(
        self, tmp_path, cell, result
    ):
        store = ResultStore(str(tmp_path))
        path = store.save(result)
        assert path.endswith(".mlog")
        assert not os.path.exists(store._path(result.config_hash))
        loaded = store.load(cell)
        assert loaded is not None
        assert store.mlog_hits == 1 and store.json_hits == 0
        assert loaded.log.to_dict() == result.log.to_dict()

    def test_unencodable_log_is_saved_as_json(self, tmp_path, cell, result):
        import copy

        log = copy.deepcopy(result.log)
        log._thaw() if log._lazy else None
        log._allocation[0] = ("gpu-a",)  # the codec needs integer GPU ids
        broken = CellResult(result.config_hash, result.label, log)
        store = ResultStore(str(tmp_path))
        path = store.save(broken)
        assert path.endswith(".json")
        assert store.mlog_paths() == []
        assert store.load(cell) is not None
        assert store.json_hits == 1 and store.migrations == 0
        assert store.mlog_paths() == []

    def test_json_hit_migrates_read_through(self, tmp_path, cell, result):
        _write_legacy_json(tmp_path, result)
        store = ResultStore(str(tmp_path))
        first = store.load(cell)
        assert first is not None
        assert store.json_hits == 1 and store.migrations == 1
        assert len(store.mlog_paths()) == 1
        # Second load is served from the freshly-written binary twin.
        second = store.load(cell)
        assert store.mlog_hits == 1
        assert second.log.to_dict() == first.log.to_dict()

    def test_corrupt_mlog_falls_back_to_json(self, tmp_path, cell, result):
        _write_legacy_json(tmp_path, result)
        store = ResultStore(str(tmp_path))
        twin = store.save(result)
        with open(twin, "wb") as fh:
            fh.write(b"MLOG garbage")
        loaded = store.load(cell)
        assert loaded is not None
        assert store.json_hits == 1 and store.mlog_hits == 0
        assert loaded.log.to_dict() == result.log.to_dict()
        # The damaged twin was rewritten from the JSON entry.
        again = store.load(cell)
        assert store.mlog_hits == 1 and store.json_hits == 1
        assert store.migrations == 1
        assert again.log.to_dict() == result.log.to_dict()

    def test_payload_round_trip(self, tmp_path, result):
        from repro.sim.records import decode_mlog, encode_mlog

        store = ResultStore(str(tmp_path))
        payload = encode_mlog(result.log, meta={"config_hash": "deadbeef"})
        path = store.save_payload("deadbeef", payload)
        with open(path, "rb") as fh:
            assert fh.read() == payload
        assert store.mlog_paths() == [path]
        meta, log = decode_mlog(payload, lazy=True)
        assert meta["config_hash"] == "deadbeef"
        assert log.to_dict() == result.log.to_dict()

    def test_disk_stats_and_clear_cover_both_tiers(
        self, tmp_path, cell, result
    ):
        _write_legacy_json(tmp_path, result)
        store = ResultStore(str(tmp_path))
        store.load(cell)  # migrate: entry now has a JSON and an .mlog file
        stats = store.disk_stats()
        assert stats.entries == 1
        assert stats.json_entries == 1 and stats.mlog_entries == 1
        assert stats.json_bytes > 0 and stats.mlog_bytes > 0
        rows = dict(
            (tier, (files, nbytes))
            for tier, files, nbytes in stats.tier_rows()
        )
        assert rows["json"] == (1, stats.json_bytes)
        assert rows["mlog"] == (1, stats.mlog_bytes)
        removed, freed = store.clear()
        assert removed == 2 and freed > 0
        after = store.disk_stats()
        assert after.entries == 0
        assert after.json_entries == after.mlog_entries == 0


class TestDiskStatsNeverOpens:
    def test_disk_stats_sizes_entries_without_open(
        self, tmp_path, cell, result, monkeypatch
    ):
        """Regression: stats must come from the dirent/stat, never from
        reading payload bytes — a multi-GiB tier would make ``mapa
        cache stats`` unusable otherwise."""
        store = ResultStore(str(tmp_path))
        store.save(result)
        _write_legacy_json(tmp_path, result)

        opened = []
        real_open = open

        def spy_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        import builtins

        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(os, "open", spy_open)
        stats = store.disk_stats()
        assert opened == []
        assert stats.entries == 1
        assert stats.json_entries == 1 and stats.mlog_entries == 1
