"""Unit tests for the content-addressed sweep result cache."""

import hashlib
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
from repro.sim.records import decode_mlog, encode_mlog


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


class TestMisses:
    def test_load_missing_counts_miss(self, tmp_path, cell):
        store = ResultStore(str(tmp_path))
        assert store.load(cell) is None
        assert store.misses == 1

    def test_corrupted_entry_is_a_miss(self, tmp_path, cell, result):
        store = ResultStore(str(tmp_path))
        path = store.save(result)
        with open(path, "rb") as fh:
            payload = fh.read()
        with open(path, "wb") as fh:
            fh.write(payload[: len(payload) // 2])  # torn write
        assert store.load(cell) is None
        assert store.misses == 1
        assert store.content.corrupt["cells"] == 1

    def test_wrong_shape_entry_is_a_miss(self, tmp_path, cell, result):
        """A sound frame filed under another cell's key is refused."""
        store = ResultStore(str(tmp_path))
        path = store.save(result)
        with open(path, "wb") as fh:
            fh.write(encode_mlog(result.log, meta={"config_hash": "ab" * 32}))
        assert store.load(cell) is None
        assert store.content.corrupt["cells"] == 1


    @pytest.mark.parametrize(
        "old, new", [(b'"n":8,', b'"n":9,'), (b'"job_id"', b'"job_ie"')]
    )
    def test_header_edit_the_crc_misses_is_a_miss(
        self, tmp_path, cell, result, old, new
    ):
        """The CRCs cover the blobs, not the header: a same-length edit
        of the record count or a column name passes the frame and key
        checks, and must still read as a counted miss, not an error."""
        store = ResultStore(str(tmp_path))
        path = store.save(result)
        with open(path, "rb") as fh:
            payload = fh.read()
        assert payload.count(old) == 1
        with open(path, "wb") as fh:
            fh.write(payload.replace(old, new))
        assert store.load(cell) is None
        assert store.misses == 1
        assert store.content.corrupt["cells"] == 1


def _write_legacy_json(root, result):
    """Stage a pre-``cells/`` JSON entry: ``<root>/<hh>/<hash>.json``."""
    fanout = os.path.join(str(root), result.config_hash[:2])
    os.makedirs(fanout, exist_ok=True)
    path = os.path.join(fanout, f"{result.config_hash}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"config_hash": result.config_hash, "log": {}}, fh)
    return path


def _age(path, seconds=7200.0):
    """Back-date a file's mtime so the clear guard sees it as stale."""
    old = time.time() - seconds
    os.utime(path, (old, old))


class TestOrphanTmpAge:
    """``clear(orphans=True)`` vs leaked ``mkstemp`` temp files."""

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

        removed, freed = store.content.clear(orphans=True)

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
        removed, _ = store.content.clear(orphans=True)
        assert removed == 1
        assert not junk.exists()

    def test_zero_age_sweeps_everything(self, tmp_path):
        store = ResultStore(str(tmp_path))
        stale = self._plant_tmp(tmp_path, ".tmp-stale.json")
        _age(stale)
        fresh = self._plant_tmp(tmp_path, ".tmp-fresh.json")
        removed, _ = store.content.clear(orphans=True, tmp_age=0)
        assert removed == 2
        assert not stale.exists() and not fresh.exists()

    def test_full_clear_ignores_the_guard(self, tmp_path, cell, result):
        store = ResultStore(str(tmp_path))
        store.save(result)
        fresh = self._plant_tmp(tmp_path, ".tmp-fresh.json")
        store.content.clear()
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
        assert path == os.path.join(
            str(tmp_path), "cells", result.config_hash[:2],
            f"{result.config_hash}.mlog",
        )
        loaded = store.load(cell)
        assert loaded is not None
        assert store.mlog_hits == 1
        assert store.json_hits == store.migrations == 0
        assert loaded.log.to_dict() == result.log.to_dict()

    def test_unencodable_log_is_not_cached(self, tmp_path, cell, result):
        import copy

        log = copy.deepcopy(result.log)
        log._thaw() if log._lazy else None
        log._job_id[0] = "job-a"  # the codec needs integer job ids
        broken = CellResult(result.config_hash, result.label, log)
        store = ResultStore(str(tmp_path))
        assert store.save(broken) is None
        assert store.disk_stats().entries == 0
        assert store.load(cell) is None and store.misses == 1

    def test_legacy_json_entry_is_an_orphan(self, tmp_path, cell, result):
        legacy = _write_legacy_json(tmp_path, result)
        store = ResultStore(str(tmp_path))
        assert store.load(cell) is None
        assert store.content.corrupt["cells"] == 0  # absent, not corrupt
        stats = store.disk_stats()
        assert (stats.entries, stats.orphans) == (0, 1)
        assert stats.orphan_bytes == os.path.getsize(legacy)
        assert store.content.clear(orphans=True) == (1, stats.orphan_bytes)
        assert not os.path.exists(legacy)

    def test_payload_round_trip(self, tmp_path, result):
        store = ResultStore(str(tmp_path))
        payload = encode_mlog(result.log, meta={"config_hash": "deadbeef"})
        path = store.save_payload("deadbeef", payload)
        with open(path, "rb") as fh:
            assert fh.read() == payload
        assert store.content.scan("cells") == ["deadbeef"]
        meta, log = store.content.get("cells", "deadbeef")
        assert meta["config_hash"] == "deadbeef"
        assert log.to_dict() == result.log.to_dict()
        assert decode_mlog(payload)[1].to_dict() == result.log.to_dict()

    def test_payload_bytes_are_pinned(self):
        """The ``.mlog`` bytes of one seeded cell are frozen: a codec or
        framing change that moves a byte changes every cache key's
        payload, so it must be deliberate."""
        pinned = CellConfig(
            topology="dgx1-v100",
            policy="preserve",
            discipline="fifo",
            trace=TraceSpec(num_jobs=40, seed=2021),
        )
        cell_result = simulate_cell(pinned)
        payload = encode_mlog(
            cell_result.log,
            meta={"config_hash": cell_result.config_hash, "label": cell_result.label},
        )
        assert hashlib.sha256(payload).hexdigest() == (
            "4f65ac096106bfbe01d30152c5e07e13187945bc348f5090f78d3aed3970fa7f"
        )

    def test_disk_stats_and_clear_cover_both_tiers(
        self, tmp_path, cell, result
    ):
        store = ResultStore(str(tmp_path))
        store.save(result)
        scan = store.content.put("scan", "cd" * 32, b"partition")
        stats = store.disk_stats()
        assert (stats.entries, stats.scan_entries, stats.orphans) == (1, 1, 0)
        rows = {tier: (files, nbytes) for tier, files, nbytes in stats.tier_rows()}
        assert rows == {
            "cells": (1, stats.total_bytes),
            "scan": (1, os.path.getsize(scan)),
        }
        removed, freed = store.content.clear()
        assert removed == 2 and freed == stats.total_bytes + stats.scan_bytes
        after = store.disk_stats()
        assert after.entries == after.scan_entries == 0
        assert os.listdir(str(tmp_path)) == []


class TestNamespaceWalk:
    def test_scan_walks_only_its_namespace(
        self, tmp_path, result, monkeypatch
    ):
        """Listing scan partitions must not pay a walk over every cell."""
        store = ResultStore(str(tmp_path))
        store.save(result)
        store.content.put("scan", "cd" * 32, b"partition")
        walked = []
        real_scandir = os.scandir

        def spy_scandir(path):
            walked.append(os.path.relpath(path, str(tmp_path)))
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", spy_scandir)
        assert store.content.scan("scan") == ["cd" * 32]
        assert walked and all(p.startswith("scan") for p in walked)


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
        assert stats.orphans == 1
