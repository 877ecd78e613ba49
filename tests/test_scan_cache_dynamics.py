"""ScanCache soundness under fleet dynamics.

The cache is content-addressed — ``(wiring, pattern, free-bitmask)`` —
so removing a server and re-adding one under the same id must never
surface a stale entry: an entry cached against a *partial* free mask
cannot be served for the repaired (empty, full-mask) server, and a
grown wiring twin must hit the incumbent's entries with bit-identical
results.  These tests pin that, including the persistent
:class:`~repro.experiments.spill.ScanSpillStore` tier.
"""

import hashlib
import json
import struct

from repro.cluster import MultiServerScheduler, run_cluster
from repro.experiments.spill import ScanSpillStore
from repro.experiments.store import partition_hash
from repro.policies.base import AllocationRequest
from repro.scenarios import DynamicsSpec, FleetSpec, ScenarioSpec
from repro.scoring.memo import ScanCache
from repro.appgraph.application import ApplicationGraph


def _ring(num_gpus: int) -> ApplicationGraph:
    edges = tuple(
        (i, (i + 1) % num_gpus) for i in range(num_gpus)
    )
    return ApplicationGraph(f"ring{num_gpus}", num_gpus, edges)


def _request(job_id, num_gpus: int = 4) -> AllocationRequest:
    return AllocationRequest(pattern=_ring(num_gpus), job_id=job_id)


def _digest(log) -> str:
    return hashlib.sha256(
        json.dumps(log.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


def _chaos_setup():
    fleet = FleetSpec.parse("dgx1-v100:3,dgx1-p100:2,dgx2:1")
    trace = (
        ScenarioSpec(num_jobs=120, seed=7, name="cache-chaos")
        .resolve(fleet.min_gpus_per_server())
        .build()
    )
    dynamics = DynamicsSpec(
        seed=5,
        horizon=400.0,
        failures=2,
        mean_downtime=60.0,
        grows=1,
        shrinks=1,
        preemptions=4,
    )
    return fleet, trace, dynamics


class TestStaleMasksAcrossRemoveReadd:
    def test_partial_mask_entry_not_served_after_fail_repair(self):
        """Fail + repair under the same server id: the next placement
        must reflect the (empty) full free mask, not the partial mask
        cached while the server was occupied."""
        cache = ScanCache()
        scheduler = MultiServerScheduler(
            FleetSpec.parse("dgx1-v100:1").build(), scan_cache=cache
        )
        first = scheduler.try_place(_request("a"))
        assert first is not None
        second = scheduler.try_place(_request("b"))
        assert second is not None
        # Same pattern against a half-occupied server: a different,
        # disjoint allocation cached under the partial free mask.
        assert set(second.gpus).isdisjoint(first.gpus)

        casualties = scheduler.fail_server(0)
        assert casualties == ["a", "b"]
        assert scheduler.try_place(_request("c")) is None  # down
        assert scheduler.repair_server(0)

        misses_before = cache.stats.misses
        again = scheduler.try_place(_request("c"))
        assert again is not None
        # The repaired server is empty: full-mask result, served from
        # the cached full-mask state — never the partial-mask one.
        # No fresh scan was needed (the content-addressed tiers — the
        # scan store or its decision memo side-car — answered).
        assert again.gpus == first.gpus
        assert cache.stats.misses == misses_before

    def test_grown_wiring_twin_hits_cache_with_identical_result(self):
        """Drain both incumbents, grow a wiring twin (a brand-new
        server id): the twin's first scan hits the incumbents' entries
        and lands on the same GPUs a cold server would."""
        cache = ScanCache()
        scheduler = MultiServerScheduler(
            FleetSpec.parse("dgx1-v100:2").build(), scan_cache=cache
        )
        first = scheduler.try_place(_request("a"))
        assert first is not None and first.server_index == 0

        assert scheduler.drain_server(0)
        assert scheduler.drain_server(1)
        grown = scheduler.grow_server("dgx1-v100")
        assert grown == 2

        misses_before = cache.stats.misses
        placed = scheduler.try_place(_request("b"))
        assert placed is not None
        assert placed.server_index == grown
        assert placed.gpus == first.gpus
        # Served by the incumbents' content-addressed entries — the
        # twin's first scan never missed.
        assert cache.stats.misses == misses_before
        scheduler.check_index()

    def test_warm_cache_replay_with_churn_is_bit_identical(self):
        """A cache warmed by a full chaos replay — masks from failed,
        repaired, drained and grown states included — cannot change a
        rerun's results, only its speed."""
        fleet, trace, dynamics = _chaos_setup()
        cache = ScanCache()
        cold = _digest(
            run_cluster(
                fleet.build(), trace, scan_cache=cache, dynamics=dynamics
            ).log
        )
        cold_misses = cache.stats.misses
        warm = _digest(
            run_cluster(
                fleet.build(), trace, scan_cache=cache, dynamics=dynamics
            ).log
        )
        assert warm == cold
        # The rerun recomputed nothing: every scan the churn replay
        # needs — including post-repair and post-grow masks — was
        # already content-addressed.
        assert cache.stats.misses == cold_misses


class TestSpillTierUnderChurn:
    def test_spilled_entries_rehydrate_bit_identically(self, tmp_path):
        """Round-trip through the persistent tier across a chaos
        replay (growth included, which warm-loads the newcomer's
        partition): the rehydrated cache serves only sound entries."""
        fleet, trace, dynamics = _chaos_setup()
        reference = _digest(
            run_cluster(fleet.build(), trace, dynamics=dynamics).log
        )

        store = ScanSpillStore(root=str(tmp_path))
        sim = run_cluster(
            fleet.build(),
            trace,
            scan_spill=store,
            dynamics=dynamics,
        )
        assert _digest(sim.log) == reference
        assert sim.scheduler.spill_scan_cache() > 0

        warm_cache = ScanCache()
        warmed = run_cluster(
            fleet.build(),
            trace,
            scan_cache=warm_cache,
            scan_spill=store,
            dynamics=dynamics,
        )
        assert _digest(warmed.log) == reference


class TestSpillSkipsWhatCannotRoundTrip:
    def test_exotic_token_is_skipped_and_its_siblings_spill(self, tmp_path):
        fleet = FleetSpec.parse("dgx1-v100:1")
        trace = (
            ScenarioSpec(num_jobs=20, seed=5, name="spill-exotic")
            .resolve(fleet.min_gpus_per_server())
            .build()
        )
        cache = ScanCache()
        run_cluster(fleet.build(), trace, scan_cache=cache)
        entry = next(e for e in cache.entries() if e.winners)
        token, winner = next(iter(entry.winners.items()))
        entry.winners[("exotic", object())] = winner
        store = ScanSpillStore(root=str(tmp_path))
        assert store.spill(cache) == sum(1 for e in cache.entries() if e.winners)

        warm = ScanCache()
        assert ScanSpillStore(root=str(tmp_path)).load(warm) > 0
        (loaded,) = [e for e in warm.entries() if e.key == entry.key]
        assert token in loaded.winners
        assert len(loaded.winners) == len(entry.winners) - 1
        assert loaded.winners[token].gpus == winner.gpus


def _partition_paths(store):
    """Paths of every spilled partition frame (sorted by key)."""
    return [
        store.content.path("scan", key) for key in store.content.scan("scan")
    ]


class TestSpillCorruptionCounting:
    """Corrupt partitions must be counted, never silently swallowed."""

    def _spilled_store(self, tmp_path):
        fleet = FleetSpec.parse("dgx1-v100:2,dgx1-p100:1")
        trace = (
            ScenarioSpec(num_jobs=40, seed=3, name="spill-corrupt")
            .resolve(fleet.min_gpus_per_server())
            .build()
        )
        store = ScanSpillStore(root=str(tmp_path))
        sim = run_cluster(fleet.build(), trace, scan_spill=store)
        assert sim.scheduler.spill_scan_cache() > 0
        return store

    def test_truncated_partition_counted_load_still_succeeds(self, tmp_path):
        store = self._spilled_store(tmp_path)
        paths = _partition_paths(store)
        assert len(paths) >= 2
        victim = paths[0]
        with open(victim, "rb") as fh:
            data = fh.read()
        with open(victim, "wb") as fh:
            fh.write(data[: len(data) // 2])  # torn write mid-file

        fresh = ScanSpillStore(root=str(tmp_path))
        cache = ScanCache()
        seeded = fresh.load(cache)
        # The surviving partitions still rehydrate...
        assert seeded > 0
        # ...and the damage is visible instead of silent.
        assert fresh.stats.corrupt_partitions == 1
        assert fresh.stats.as_dict() == {
            "corrupt_partitions": 1,
            "skipped_entries": 0,
        }

    def test_version_mismatch_counts_as_corrupt(self, tmp_path):
        store = self._spilled_store(tmp_path)
        victim = _partition_paths(store)[0]
        with open(victim, "r+b") as fh:
            fh.seek(4)  # the preamble's format version
            fh.write(struct.pack("<I", 999))
        fresh = ScanSpillStore(root=str(tmp_path))
        fresh.load(ScanCache())
        assert fresh.stats.corrupt_partitions == 1

    def test_legacy_json_partition_is_an_orphan(self, tmp_path):
        store = self._spilled_store(tmp_path)
        legacy = tmp_path / "scan" / "ab" / ("ab" + "0" * 62 + ".json")
        legacy.parent.mkdir(parents=True, exist_ok=True)
        legacy.write_text(json.dumps({"version": 1, "entries": []}))
        assert store.content.verify("scan") == (len(_partition_paths(store)), 0)
        assert store.content.stats().orphans == 1
        assert store.content.clear(orphans=True)[0] == 1
        assert not legacy.exists()
        assert store.content.verify("scan") == (len(_partition_paths(store)), 0)

    def test_verify_audits_without_mutating_stats(self, tmp_path):
        store = self._spilled_store(tmp_path)
        paths = _partition_paths(store)
        with open(paths[0], "wb") as fh:
            fh.write(b"not a frame at all")

        fresh = ScanSpillStore(root=str(tmp_path))
        valid, corrupt = fresh.content.verify("scan")
        assert corrupt == 1
        assert valid == len(paths) - 1
        # verify() is a read-only audit: cumulative traffic counters
        # only move on real load/spill activity.
        assert fresh.stats.corrupt_partitions == 0

    def test_clean_tier_verifies_clean(self, tmp_path):
        store = self._spilled_store(tmp_path)
        valid, corrupt = store.content.verify("scan")
        assert corrupt == 0
        assert valid == len(_partition_paths(store))


def _edit_first_winner_gpu(path):
    """Rewrite ``gpus[0]`` of a partition's first winner in place.

    The replacement is another valid GPU id of the same digit count, so
    the frame keeps its exact shape — only the blob's CRC can tell.
    """
    with open(path, "rb") as fh:
        frame = bytearray(fh.read())
    _, _, header_len = struct.unpack_from("<4sIQ", frame, 0)
    header = json.loads(bytes(frame[16 : 16 + header_len]))
    (spec,) = header["columns"]
    start = (16 + header_len + 63) // 64 * 64 + spec["offset"]
    entries = json.loads(bytes(frame[start : start + spec["nbytes"]]))
    gpus = entries[0][1][0][1]
    gpus[0] = next(g for g in range(8) if g not in gpus)
    blob = json.dumps(entries, separators=(",", ":")).encode("utf-8")
    assert len(blob) == spec["nbytes"]
    frame[start : start + len(blob)] = blob
    with open(path, "wb") as fh:
        fh.write(bytes(frame))


def _keys(cache):
    return [entry.key for entry in cache.entries()]


class TestEditedWinnerIsRefused:
    """A same-shape edit of one spilled GPU id must seed nothing.

    Without a checksum the edited winner parsed as valid and the warm
    replay committed it: ``AllocationError: GPU … is busy`` (or a
    ``KeyError`` for an id the wiring lacks).
    """

    def test_edited_partition_seeds_nothing_and_replay_is_cold_identical(
        self, tmp_path
    ):
        fleet = FleetSpec.parse("dgx1-v100:2")
        trace = (
            ScenarioSpec(num_jobs=200, seed=0, name="spill-edit")
            .resolve(fleet.min_gpus_per_server())
            .build()
        )
        cache = ScanCache()
        cold = run_cluster(
            fleet.build(), trace, gpu_policy="preserve", scan_cache=cache
        )
        store = ScanSpillStore(root=str(tmp_path))
        assert store.spill(cache) > 0
        victim_key = store.content.scan("scan")[0]
        _edit_first_winner_gpu(store.content.path("scan", victim_key))

        fresh = ScanSpillStore(root=str(tmp_path))
        warm = ScanCache()
        fresh.load(warm)
        assert fresh.stats.corrupt_partitions == 1
        assert fresh.content.verify("scan") == (len(store.content.scan("scan")) - 1, 1)
        def partitions(scan_cache):
            return {partition_hash(th, *pid) for th, pid, _ in _keys(scan_cache)}

        assert victim_key in partitions(cache)
        assert victim_key not in partitions(warm)
        assert len(warm.entries()) > 0

        warmed = run_cluster(
            fleet.build(),
            trace,
            gpu_policy="preserve",
            scan_cache=ScanCache(),
            scan_spill=ScanSpillStore(root=str(tmp_path)),
        )
        assert _digest(warmed.log) == _digest(cold.log)
