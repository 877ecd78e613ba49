"""Sharded fleet replay: scheduler shards in worker processes.

The single-process fleet replay (:mod:`repro.cluster.simulator`) runs
one :class:`~repro.cluster.scheduler.MultiServerScheduler` over the
whole fleet — fine at 64 servers, but placement scans serialize on one
core long before the ROADMAP's O(1k–10k)-server / million-job target.
This module partitions a :class:`~repro.scenarios.fleet.FleetSpec`
into ``K`` contiguous shards, each owning a private
:class:`MultiServerScheduler` inside a dedicated worker process, and
recovers the *exact* single-scheduler replay from their composition:

**Shared read-only topology.**  Each distinct wiring's
:class:`~repro.topology.linktable.LinkTable` dense arrays (link-class
codes, bandwidths, channel counts, per-channel bandwidths, NVLink
flags) are published once through :mod:`multiprocessing.shared_memory`
(:class:`SharedLinkTableView`); every shard maps the one copy and
rehydrates its tables via :meth:`LinkTable.from_arrays` instead of
unpickling per-task duplicates.  The same segment carries a mutable
tail — per-server free-set bitmasks and free counts — that shards
refresh at batch boundaries, giving the parent (and crash forensics) a
fleet-wide state snapshot without a round trip.

**Routing by bucket summaries.**  The parent keeps one *mirror*
:class:`~repro.cluster.scheduler.CandidateServerIndex` per shard,
updated from the placement/release deltas it itself dispatches, so
inter-shard routing — *which shard, which server* — is decided locally
in O(shards · buckets) with zero IPC.  Every shard reply piggybacks its
index's :meth:`~repro.cluster.scheduler.CandidateServerIndex.bucket_summary`
(``max_free`` + free-count histogram); the parent compares it against
the mirror's own summary on every flush, so a routing divergence is
detected at the batch where it happened, not at the end-of-run digest.

**Batched dispatch.**  Arrivals drain from the columnar
:class:`~repro.sim.engine.EventEngine` and buffer into per-shard
operation lists; a batch flushes only when the next event could causally
depend on an undispatched completion (the *optimistic horizon* — see
:class:`ShardedFleetSimulator`).  One IPC round trip then carries many
placements/releases, and the replies carry everything the parent needs
to schedule completions bit-identically.

**Determinism contract.**  A sharded replay is byte-identical to
:func:`repro.cluster.simulator.run_cluster` on the same fleet and trace
— for any shard count, including 1 — under the conditions the
constructor enforces: FIFO discipline, a node policy whose winner is a
pure function of per-server free counts (``first-fit`` / ``pack`` /
``spread``; ``best-score`` is rejected), and registered GPU policies,
which never decline a count-feasible server.  The mirror then predicts
the exact server every placement lands on; each shard verifies the
prediction and raises on the first mismatch.

**Scope.**  Only the static-fleet FIFO replay is sharded: fleet
dynamics, other queue disciplines, the persistent scan tier and the
daemon all run on the single-process scheduler.
"""

from __future__ import annotations

import atexit
import gc
import itertools
import multiprocessing
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import (
    Any,
    Deque,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..comm.microbench import peak_effective_bandwidth, release_graph_memo
from ..scenarios.fleet import FleetSpec
from ..scoring.effective import EffectiveBandwidthModel, PAPER_MODEL
from ..scoring.memo import ScanCache
from ..sim.engine import EventEngine
from ..sim.records import SimulationLog
from ..topology.builders import by_name
from ..topology.hardware import HardwareGraph
from ..topology.linktable import LinkTable
from ..workloads.exectime import execution_time
from ..workloads.jobs import Job, JobFile
from .scheduler import CandidateServerIndex, MultiServerScheduler

_ARRIVAL = "arrival"
_COMPLETION = "completion"

#: Node policies whose winner is a pure function of per-server free
#: counts — the ones the parent-side mirror can route exactly.
#: ``best-score`` inspects intra-server wiring speculatively on every
#: feasible server and is rejected by the sharded scheduler.
SHARDABLE_NODE_POLICIES = ("first-fit", "pack", "spread")


def _mp_context():
    """The ``fork`` multiprocessing context when the platform has it.

    Same rationale as the sweep runner's pool: forked shard workers
    inherit the parent's imported modules (numpy, the topology
    builders) instead of re-importing, and — crucially for fleets —
    inherit nothing mutable they use, since all shard state is built
    inside the worker from the picklable :class:`_ShardConfig`.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return None


# --------------------------------------------------------------------- #
# shared-memory topology + fleet-state segment
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class WiringBlock:
    """Offsets of one distinct wiring's dense arrays inside the segment."""

    topology_hash: str
    gpus: Tuple[int, ...]
    #: Byte offsets of (codes, bandwidths, channels, per_channel, nvlink).
    offsets: Tuple[int, int, int, int, int]

    @property
    def n(self) -> int:
        """GPUs per server of this wiring."""
        return len(self.gpus)


@dataclass(frozen=True)
class SharedFleetManifest:
    """Everything needed to attach the fleet's shared-memory segment.

    Picklable by construction — it rides inside each shard's
    :class:`_ShardConfig` — and self-describing: the segment name, the
    per-wiring array offsets, and the offsets of the mutable per-server
    free-bitmask / free-count tail.
    """

    segment: str
    num_servers: int
    wirings: Tuple[WiringBlock, ...]
    bitmask_offset: int
    counts_offset: int
    size: int


#: Views that still own or map a live segment, swept at interpreter
#: exit so a crashed replay never leaks ``/dev/shm`` entries.
_LIVE_VIEWS: List["SharedLinkTableView"] = []
_SWEEP_REGISTERED = False


def _register_view(view: "SharedLinkTableView") -> None:
    """Track ``view`` for the atexit sweep (idempotent registration)."""
    global _SWEEP_REGISTERED
    _LIVE_VIEWS.append(view)
    if not _SWEEP_REGISTERED:
        atexit.register(_atexit_sweep)
        _SWEEP_REGISTERED = True


def _atexit_sweep() -> None:
    """Close (and, for owners, unlink) every still-live segment view.

    Registered once, runs at interpreter exit.  Normal lifecycles
    (context manager, :meth:`ShardedFleetScheduler.close`) empty
    :data:`_LIVE_VIEWS` long before this fires; the sweep is the
    backstop for error paths that never reached ``close()``.
    """
    for view in list(_LIVE_VIEWS):
        try:
            view.unlink()
            view.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment without registering it with the resource tracker.

    :class:`~multiprocessing.shared_memory.SharedMemory` registers every
    attach unconditionally; patching the tracker's ``register`` to a
    no-op for the constructor call keeps non-owning processes out of
    the tracker entirely (single-threaded attach paths only, which is
    all this module has).
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - always present on POSIX
        return shared_memory.SharedMemory(name=name)
    original = resource_tracker.register
    resource_tracker.register = lambda *_args, **_kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class SharedLinkTableView:
    """One fleet's shared-memory segment: link tables + free state.

    Layout (all 8-byte aligned)::

        for each distinct wiring, sorted by topology hash:
            codes        int64[n²]     Eq. 2 link-class codes
            bandwidths   float64[n²]   pairwise peak bandwidths
            channels     int64[n²]     NVLink channel counts
            per_channel  float64[n²]   per-channel bandwidths
            nvlink       uint8[n²]     direct-NVLink flags (padded)
        free_bitmask     uint64[servers]  per-server free-set bitmask
        free_counts      int64[servers]   per-server free-GPU counts

    The wiring blocks are immutable after :meth:`publish`; the two
    trailing arrays are the mutable fleet-state tail each shard
    refreshes for its own server slots at batch boundaries.  Exactly
    one view — the publisher's — owns the segment and may
    :meth:`unlink` it; attached views only :meth:`close` their mapping.
    The class is a context manager and every instance is registered for
    the module's atexit sweep, so error paths cannot leak segments.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: SharedFleetManifest,
        owner: bool,
    ) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.manifest = manifest
        self.owner = owner
        self._unlinked = False
        _register_view(self)

    # -------------------------------------------------------------- #
    @classmethod
    def publish(
        cls, servers: Sequence[HardwareGraph]
    ) -> "SharedLinkTableView":
        """Create and fill a segment for ``servers``; returns the owner view.

        One wiring block per distinct :attr:`topology_hash` (a
        1024-server fleet of three server models publishes three
        blocks), plus the zero-initialised mutable tail sized to the
        fleet.
        """
        tables: Dict[str, LinkTable] = {}
        for hw in servers:
            tables.setdefault(hw.topology_hash, hw.link_table)
        wirings: List[WiringBlock] = []
        offset = 0
        for wiring_hash in sorted(tables):
            table = tables[wiring_hash]
            n2 = table.n * table.n
            offsets = (
                offset,
                offset + 8 * n2,
                offset + 16 * n2,
                offset + 24 * n2,
                offset + 32 * n2,
            )
            offset += 32 * n2 + 8 * ((n2 + 7) // 8)
            wirings.append(
                WiringBlock(
                    topology_hash=wiring_hash,
                    gpus=table.gpus,
                    offsets=offsets,
                )
            )
        num_servers = len(servers)
        bitmask_offset = offset
        counts_offset = offset + 8 * num_servers
        size = max(counts_offset + 8 * num_servers, 8)
        shm = shared_memory.SharedMemory(create=True, size=size)
        manifest = SharedFleetManifest(
            segment=shm.name,
            num_servers=num_servers,
            wirings=tuple(wirings),
            bitmask_offset=bitmask_offset,
            counts_offset=counts_offset,
            size=size,
        )
        view = cls(shm, manifest, owner=True)
        try:
            for block in wirings:
                table = tables[block.topology_hash]
                n2 = block.n * block.n
                view._array(block.offsets[0], np.int64, n2)[:] = table.codes
                view._array(block.offsets[1], np.float64, n2)[:] = (
                    table.bandwidths
                )
                view._array(block.offsets[2], np.int64, n2)[:] = (
                    table.channels
                )
                view._array(block.offsets[3], np.float64, n2)[:] = (
                    table.per_channel
                )
                view._array(block.offsets[4], np.uint8, n2)[:] = np.fromiter(
                    table.nvlink, dtype=np.uint8, count=n2
                )
            view.free_bitmask[:] = 0
            view.free_counts[:] = 0
        except BaseException:
            view.close()
            view.unlink()
            raise
        return view

    @classmethod
    def attach(cls, manifest: SharedFleetManifest) -> "SharedLinkTableView":
        """Map an already-published segment (shard-worker side).

        The attaching process's :mod:`multiprocessing.resource_tracker`
        would otherwise adopt the segment and unlink it when *this*
        process exits — yanking it out from under the parent and every
        sibling shard (forked workers even share the parent's tracker,
        so an unregister-after-attach would cancel the *owner's*
        registration).  Registration is therefore suppressed for the
        duration of the attach; ownership, tracking and unlink
        responsibility all stay with the publisher.
        """
        shm = _attach_untracked(manifest.segment)
        return cls(shm, manifest, owner=False)

    # -------------------------------------------------------------- #
    def _array(self, offset: int, dtype, count: int) -> np.ndarray:
        """A typed view of ``count`` items at ``offset`` into the segment."""
        if self._shm is None:
            raise ValueError("shared fleet segment is closed")
        return np.frombuffer(
            self._shm.buf, dtype=dtype, count=count, offset=offset
        )

    @property
    def free_bitmask(self) -> np.ndarray:
        """Mutable per-server free-set bitmasks (uint64, fleet-indexed)."""
        return self._array(
            self.manifest.bitmask_offset, np.uint64, self.manifest.num_servers
        )

    @property
    def free_counts(self) -> np.ndarray:
        """Mutable per-server free-GPU counts (int64, fleet-indexed)."""
        return self._array(
            self.manifest.counts_offset, np.int64, self.manifest.num_servers
        )

    def tables(self) -> Dict[str, LinkTable]:
        """Rehydrate one :class:`LinkTable` per published wiring.

        The returned tables' dense hot-path arrays are zero-copy views
        of the mapped segment (see :meth:`LinkTable.from_arrays`), so
        they must not outlive this view's mapping.
        """
        out: Dict[str, LinkTable] = {}
        for block in self.manifest.wirings:
            n2 = block.n * block.n
            out[block.topology_hash] = LinkTable.from_arrays(
                block.gpus,
                self._array(block.offsets[0], np.int64, n2),
                self._array(block.offsets[1], np.float64, n2),
                self._array(block.offsets[2], np.int64, n2),
                self._array(block.offsets[3], np.float64, n2),
                self._array(block.offsets[4], np.uint8, n2),
            )
        return out

    # -------------------------------------------------------------- #
    def close(self) -> None:
        """Drop this process's mapping (idempotent).

        Callers must release every array handed out by :meth:`tables` /
        :attr:`free_bitmask` / :attr:`free_counts` first — a mapping
        with live buffer exports cannot be unmapped (shard runtimes do
        this by dropping their scheduler before closing).
        """
        shm, self._shm = self._shm, None
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - live exports remain
                # Leave the mapping to process exit; the segment itself
                # is still unlinked by the owner, so nothing leaks.
                pass
        if self in _LIVE_VIEWS and (not self.owner or self._unlinked):
            _LIVE_VIEWS.remove(self)

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent, no-op otherwise)."""
        if not self.owner or self._unlinked:
            return
        self._unlinked = True
        try:
            if self._shm is not None:
                self._shm.unlink()
            else:
                _attach_untracked(self.manifest.segment).unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        if self in _LIVE_VIEWS:
            _LIVE_VIEWS.remove(self)

    def __enter__(self) -> "SharedLinkTableView":
        """Context-manager entry: the view itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Guaranteed cleanup: unlink if owner, then close the mapping."""
        self.unlink()
        self.close()


# --------------------------------------------------------------------- #
# shard workers (module-level: picklable by ProcessPoolExecutor)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ShardConfig:
    """Everything a worker needs to build one shard's runtime."""

    token: int
    shard_id: int
    start: int  # global index of this shard's first server
    topologies: Tuple[str, ...]  # per-server names, shard-local order
    gpu_policy: str
    node_policy: str
    model: EffectiveBandwidthModel
    engine: str
    manifest: Optional[SharedFleetManifest]


#: Per-process shard registry, keyed ``(token, shard_id)``.  The token
#: (a parent-side counter) isolates schedulers from each other in
#: inline mode and from stale fork-inherited entries in process mode.
_SHARDS: Dict[Tuple[int, int], "_ShardRuntime"] = {}

#: Monotone scheduler tokens (parent side).
_TOKENS = itertools.count(1)


class _ShardRuntime:
    """One shard's in-worker state: scheduler, memos, shared-state slots.

    Mirrors the arithmetic of :class:`repro.sim.core.SimulationCore`
    exactly — the measured-bandwidth memo keyed by ``(topology_hash,
    gpus)`` and the execution-time memo keyed by ``(workload, n,
    measured)`` reproduce ``try_start``'s floats bit-for-bit — so the
    reply rows the parent logs are the rows the single-process replay
    would have logged.
    """

    def __init__(self, cfg: _ShardConfig) -> None:
        self.cfg = cfg
        self.view: Optional[SharedLinkTableView] = None
        shared_tables: Dict[str, LinkTable] = {}
        if cfg.manifest is not None:
            self.view = SharedLinkTableView.attach(cfg.manifest)
            shared_tables = self.view.tables()
        # One graph per distinct name, link tables shared by wiring
        # hash — FleetSpec.build()'s sharing, sourced from shared
        # memory when published.
        by_topology: Dict[str, HardwareGraph] = {}
        table_by_hash: Dict[str, LinkTable] = dict(shared_tables)
        servers: List[HardwareGraph] = []
        for name in cfg.topologies:
            hardware = by_topology.get(name)
            if hardware is None:
                hardware = by_name(name)
                wiring = hardware.topology_hash
                table = table_by_hash.get(wiring)
                if table is None:
                    table_by_hash[wiring] = hardware.link_table
                else:
                    hardware.adopt_link_table(table)
                by_topology[name] = hardware
            servers.append(hardware)
        self.scheduler = MultiServerScheduler(
            servers,
            gpu_policy=cfg.gpu_policy,
            node_policy=cfg.node_policy,
            model=cfg.model,
            engine=cfg.engine,
            scan_cache=ScanCache() if cfg.engine == "cached" else None,
        )
        self._mbw_memo: Dict[Tuple[str, Tuple[int, ...]], float] = {}
        self._mbw_lookups = 0
        self._mbw_hits = 0
        self._exec_cache: Dict[Tuple[str, int, float], float] = {}
        self.publish_state(range(len(servers)))

    # -------------------------------------------------------------- #
    def publish_state(self, locals_touched) -> None:
        """Write touched servers' free bitmask/count into the segment."""
        if self.view is None:
            return
        start = self.cfg.start
        bitmask = self.view.free_bitmask
        counts = self.view.free_counts
        engines = self.scheduler.engines
        for local in locals_touched:
            slot = start + local
            state = engines[local].state
            bitmask[slot] = state.free_bitmask
            counts[slot] = state.num_free

    def _measured_bw(self, hardware: HardwareGraph, gpus: Tuple[int, ...]) -> float:
        """Memoised microbenchmark bandwidth (same keying as the core)."""
        key = (hardware.topology_hash, gpus)
        self._mbw_lookups += 1
        measured = self._mbw_memo.get(key)
        if measured is None:
            measured = peak_effective_bandwidth(hardware, gpus)
            self._mbw_memo[key] = measured
        else:
            self._mbw_hits += 1
        return measured

    def exec_batch(
        self, ops: Sequence[Tuple]
    ) -> Tuple[List[Tuple], Tuple[int, Tuple[int, ...]]]:
        """Apply one dispatch batch in order; reply per placement.

        ``ops`` entries are ``("p", job, expected_local)`` placements or
        ``("r", job_id)`` releases, in the parent's dispatch order for
        this shard.  Each placement reply is ``(local_server, gpus,
        agg_bw, effective_bw, measured_bw, exec_time)``.  The return
        value piggybacks the shard index's bucket summary so the parent
        verifies its routing mirror on every flush without an extra
        round trip.
        """
        scheduler = self.scheduler
        replies: List[Tuple] = []
        touched = set()
        for op in ops:
            if op[0] == "p":
                _, job, expected = op
                placement = scheduler.try_place(job.request())
                if placement is None:
                    raise RuntimeError(
                        f"shard {self.cfg.shard_id}: policy declined "
                        f"count-feasible job {job.job_id!r} — sharded "
                        "routing requires policies that commit on any "
                        "count-feasible server"
                    )
                local = placement.server_index
                if local != expected:
                    raise RuntimeError(
                        f"shard {self.cfg.shard_id}: job {job.job_id!r} "
                        f"landed on local server {local}, parent mirror "
                        f"predicted {expected}"
                    )
                touched.add(local)
                gpus = placement.gpus
                n = len(gpus)
                if n == 1:
                    measured = 0.0
                else:
                    measured = self._measured_bw(
                        scheduler.hardware_for(local), gpus
                    )
                key = (job.workload, n, measured)
                exec_time = self._exec_cache.get(key)
                if exec_time is None:
                    exec_time = execution_time(
                        job.workload_spec(),
                        n,
                        measured if n > 1 else float("inf"),
                    )
                    self._exec_cache[key] = exec_time
                scores = placement.allocation.scores
                replies.append(
                    (
                        local,
                        gpus,
                        scores.get("agg_bw", 0.0),
                        scores.get("effective_bw", 0.0),
                        measured,
                        exec_time,
                    )
                )
            elif op[0] == "r":
                local, _freed = scheduler.release(op[1])
                touched.add(local)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown shard op {op[0]!r}")
        self.publish_state(touched)
        return replies, scheduler.candidate_index.bucket_summary()

    def stats(self) -> Dict[str, float]:
        """This shard's raw cache counters (scan + measured-bandwidth)."""
        out: Dict[str, float] = {
            "measured_bw_lookups": self._mbw_lookups,
            "measured_bw_hits": self._mbw_hits,
        }
        scan = self.scheduler.scan_cache_stats()
        if scan is not None:
            counters = scan.as_dict()
            counters.pop("hit_rate", None)
            for key, value in counters.items():
                out[f"scan_{key}"] = value
        return out

    def close(self) -> None:
        """Release the shard's shared-memory mapping (worker side).

        Every holder of the shm-backed link-table views must go before
        the mapping can be unmapped: the scheduler (whose graphs cache
        the tables), the process-wide ring-bandwidth memo (whose keys
        pin the graphs), and any reference cycles a GC pass collects.
        """
        view, self.view = self.view, None
        if view is None:
            return
        self.scheduler = None  # type: ignore[assignment]
        self._mbw_memo.clear()
        release_graph_memo()
        gc.collect()
        view.close()


def _shard_init(cfg: _ShardConfig) -> Tuple[int, Tuple[int, Tuple[int, ...]]]:
    """Build (or rebuild) one shard runtime in the calling process.

    Returns ``(pid, bucket summary)`` — the pid feeds tests and crash
    diagnostics, the summary lets the parent cross-check its freshly
    built mirror before any job is dispatched.
    """
    runtime = _ShardRuntime(cfg)
    stale = _SHARDS.pop((cfg.token, cfg.shard_id), None)
    if stale is not None:  # pragma: no cover - re-init path
        stale.close()
    _SHARDS[(cfg.token, cfg.shard_id)] = runtime
    return os.getpid(), runtime.scheduler.candidate_index.bucket_summary()


def _shard_exec(token: int, shard_id: int, ops: Sequence[Tuple]):
    """Run one dispatch batch on the registered shard runtime."""
    return _SHARDS[(token, shard_id)].exec_batch(ops)


def _shard_stats(token: int, shard_id: int) -> Dict[str, float]:
    """Fetch one shard's raw cache counters."""
    return _SHARDS[(token, shard_id)].stats()


def _shard_free_counts(token: int, shard_id: int) -> Tuple[int, ...]:
    """One shard's actual per-server free counts (resync source)."""
    return _SHARDS[(token, shard_id)].scheduler.free_gpu_counts()


def _shard_check(token: int, shard_id: int):
    """Deep-check one shard's index; returns its free counts + summary."""
    runtime = _SHARDS[(token, shard_id)]
    runtime.scheduler.check_index()
    return (
        runtime.scheduler.free_gpu_counts(),
        runtime.scheduler.candidate_index.bucket_summary(),
    )


def _shard_reset(token: int, shard_id: int) -> Tuple[int, Tuple[int, ...]]:
    """Release every job on one shard; returns the fresh bucket summary."""
    runtime = _SHARDS[(token, shard_id)]
    runtime.scheduler.reset()
    runtime.publish_state(range(runtime.scheduler.num_servers))
    return runtime.scheduler.candidate_index.bucket_summary()


def _shard_pid(token: int, shard_id: int) -> int:
    """The pid hosting one shard (process-affinity regression probe)."""
    _ = _SHARDS[(token, shard_id)]
    return os.getpid()


def _shard_drop(token: int, shard_id: int) -> bool:
    """Tear down one shard runtime (worker side); True if it existed."""
    runtime = _SHARDS.pop((token, shard_id), None)
    if runtime is None:
        return False
    runtime.close()
    return True


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardPlan:
    """A contiguous partition of server indices into shards.

    ``boundaries`` has ``K + 1`` entries: shard ``s`` owns global
    servers ``boundaries[s] .. boundaries[s+1] - 1``.  Contiguity in
    ascending index order is what makes global tie-breaking (lowest
    index wins) decomposable into ``(shard, local index)`` — the
    property every routing rule below leans on.
    """

    boundaries: Tuple[int, ...]

    def __post_init__(self) -> None:
        """Validate strict monotonicity and a zero-based first shard."""
        b = tuple(int(x) for x in self.boundaries)
        object.__setattr__(self, "boundaries", b)
        if len(b) < 2 or b[0] != 0:
            raise ValueError(f"bad shard boundaries {b}")
        for lo, hi in zip(b, b[1:]):
            if hi <= lo:
                raise ValueError(
                    f"shard boundaries must be strictly increasing, got {b}"
                )

    @classmethod
    def even(cls, num_servers: int, shards: int) -> "ShardPlan":
        """Split ``num_servers`` into ``shards`` near-equal contiguous runs."""
        if shards < 1:
            raise ValueError("need at least one shard")
        if shards > num_servers:
            raise ValueError(
                f"{shards} shards for {num_servers} servers — shards "
                "cannot be empty"
            )
        base, extra = divmod(num_servers, shards)
        boundaries = [0]
        for s in range(shards):
            boundaries.append(boundaries[-1] + base + (1 if s < extra else 0))
        return cls(boundaries=tuple(boundaries))

    @property
    def num_shards(self) -> int:
        """How many shards the plan defines."""
        return len(self.boundaries) - 1

    @property
    def num_servers(self) -> int:
        """Total servers covered by the plan."""
        return self.boundaries[-1]

    def start(self, shard: int) -> int:
        """Global index of ``shard``'s first server."""
        return self.boundaries[shard]

    def size(self, shard: int) -> int:
        """How many servers ``shard`` owns."""
        return self.boundaries[shard + 1] - self.boundaries[shard]


def aggregate_cache_stats(
    per_shard: Sequence[Mapping[str, float]]
) -> Dict[str, float]:
    """Sum per-shard cache counters into one fleet-wide stats dict.

    Counter keys are summed; the derived ``scan_hit_rate`` is
    recomputed from the summed lookups/hits (a mean of per-shard rates
    would weight idle shards equally with busy ones).
    """
    totals: Dict[str, float] = {}
    for stats in per_shard:
        for key, value in stats.items():
            if key == "scan_hit_rate":
                continue
            totals[key] = totals.get(key, 0) + value
    if "scan_lookups" in totals:
        lookups = totals["scan_lookups"]
        totals["scan_hit_rate"] = (
            totals.get("scan_hits", 0) / lookups if lookups else 0.0
        )
    return totals


class ShardedFleetScheduler:
    """K scheduler shards in worker processes behind one routing front.

    The mechanical layer of the sharded replay: owns the shard plan,
    the worker pools (one single-worker
    :class:`~concurrent.futures.ProcessPoolExecutor` per shard, so a
    shard's scheduler — and its warm scan/decision/bandwidth memos —
    stays pinned to one process for the scheduler's whole lifetime),
    the shared-memory segment, and the per-shard routing mirrors.
    :class:`ShardedFleetSimulator` drives it with route / dispatch /
    flush calls; everything event-loop-shaped lives there.

    Parameters
    ----------
    fleet:
        The declarative fleet description to partition.
    shards:
        Shard count for an even contiguous split (ignored when
        ``boundaries`` is given).
    boundaries:
        Explicit :class:`ShardPlan` boundaries (``K + 1`` ints).
    gpu_policy / node_policy / model / engine:
        Per-shard scheduler construction knobs, exactly as
        :func:`repro.cluster.simulator.run_cluster` takes them.
        ``node_policy`` must be one of
        :data:`SHARDABLE_NODE_POLICIES`.
    mode:
        ``"process"`` (default) runs each shard in a worker process;
        ``"inline"`` runs every shard in the calling process through
        the same code path — no IPC, same results, the test suite's
        fast mode.
    use_shared_memory:
        Publish link tables + fleet state through shared memory.
        Defaults to ``True`` in process mode, ``False`` inline (where
        the tables are already in-process).
    """

    def __init__(
        self,
        fleet: FleetSpec,
        shards: int = 1,
        *,
        boundaries: Optional[Sequence[int]] = None,
        gpu_policy: str = "preserve",
        node_policy: str = "first-fit",
        model: EffectiveBandwidthModel = PAPER_MODEL,
        engine: str = "cached",
        mode: str = "process",
        use_shared_memory: Optional[bool] = None,
    ) -> None:
        if node_policy not in SHARDABLE_NODE_POLICIES:
            raise ValueError(
                f"node policy {node_policy!r} cannot be sharded; the "
                "routing mirror needs a winner that is a pure function "
                f"of free counts (one of {SHARDABLE_NODE_POLICIES})"
            )
        if mode not in ("process", "inline"):
            raise ValueError(f"mode must be 'process' or 'inline', got {mode!r}")
        self.fleet = fleet
        self.gpu_policy = gpu_policy
        self.node_policy = node_policy
        self.model = model
        self.engine = engine
        self.mode = mode
        if boundaries is not None:
            self.plan = ShardPlan(boundaries=tuple(boundaries))
        else:
            self.plan = ShardPlan.even(fleet.num_servers, shards)
        if self.plan.num_servers != fleet.num_servers:
            raise ValueError(
                f"shard plan covers {self.plan.num_servers} servers, "
                f"fleet has {fleet.num_servers}"
            )
        servers = fleet.build()
        self._capacities = [hw.num_gpus for hw in servers]
        self._max_capacity = max(self._capacities)
        names = fleet.topologies
        if use_shared_memory is None:
            use_shared_memory = mode == "process"
        self._view: Optional[SharedLinkTableView] = None
        manifest: Optional[SharedFleetManifest] = None
        if use_shared_memory:
            self._view = SharedLinkTableView.publish(servers)
            manifest = self._view.manifest
        self._token = next(_TOKENS)
        self._closed = False
        K = self.plan.num_shards
        self._pools: List[Optional[ProcessPoolExecutor]] = [None] * K
        try:
            if mode == "process":
                ctx = _mp_context()
                kwargs = {"mp_context": ctx} if ctx is not None else {}
                self._pools = [
                    ProcessPoolExecutor(max_workers=1, **kwargs)
                    for _ in range(K)
                ]
            self._mirrors: List[CandidateServerIndex] = []
            init_summaries = []
            configs = []
            for s in range(K):
                lo, hi = self.plan.boundaries[s], self.plan.boundaries[s + 1]
                configs.append(
                    _ShardConfig(
                        token=self._token,
                        shard_id=s,
                        start=lo,
                        topologies=tuple(names[lo:hi]),
                        gpu_policy=gpu_policy,
                        node_policy=node_policy,
                        model=model,
                        engine=engine,
                        manifest=manifest,
                    )
                )
                caps = self._capacities[lo:hi]
                self._mirrors.append(
                    CandidateServerIndex(list(caps), capacities=list(caps))
                )
            for s, (_pid, summary) in enumerate(
                self._call_all(_shard_init, [(cfg,) for cfg in configs])
            ):
                init_summaries.append(summary)
                self._verify_summary(s, summary)
            # Per-shard dispatch state: op lists and the globally
            # ordered pending-placement ledger flush() replies against.
            self._ops: List[List[Tuple]] = [[] for _ in range(K)]
            self._pending_places: List[Tuple[Job, int, int, float]] = []
        except BaseException:
            self.close()
            raise

    # -------------------------------------------------------------- #
    # worker invocation
    # -------------------------------------------------------------- #
    def _call_all(self, fn, arglists: Sequence[Tuple]) -> List[Any]:
        """Run ``fn`` once per shard (parallel in process mode)."""
        if self.mode == "inline":
            return [fn(*args) for args in arglists]
        futures = [
            self._pools[s].submit(fn, *args)
            for s, args in enumerate(arglists)
        ]
        return [f.result() for f in futures]

    def _call_one(self, shard: int, fn, *args) -> Any:
        """Run ``fn`` on one shard's worker."""
        if self.mode == "inline":
            return fn(*args)
        return self._pools[shard].submit(fn, *args).result()

    # -------------------------------------------------------------- #
    # routing (parent-local, zero IPC)
    # -------------------------------------------------------------- #
    @property
    def num_shards(self) -> int:
        """Shards in the plan."""
        return self.plan.num_shards

    @property
    def num_servers(self) -> int:
        """Servers in the fleet."""
        return len(self._capacities)

    @property
    def max_capacity(self) -> int:
        """Largest server size (bounds :meth:`route` feasibility)."""
        return self._max_capacity

    @property
    def mirrors(self) -> Tuple[CandidateServerIndex, ...]:
        """The per-shard routing mirrors (read-only for callers)."""
        return tuple(self._mirrors)

    def max_free_count(self) -> int:
        """Largest per-server free count fleet-wide, O(shards)."""
        return max(m.max_free for m in self._mirrors)

    def route(self, num_gpus: int) -> Optional[Tuple[int, int]]:
        """``(shard, local server)`` the next placement will land on.

        Decided entirely from the mirrors, reproducing the global
        :class:`CandidateServerIndex` walk of the reference scheduler:

        * ``first-fit`` — lowest global index with enough free GPUs:
          first shard (ascending) whose ``max_free`` fits, then its
          lowest-index feasible server;
        * ``pack`` — global ``(free, index)`` minimum: each shard's
          pack winner, compared by ``(free, shard)``;
        * ``spread`` — global ``(-free, index)`` minimum, analogously.

        Returns ``None`` exactly when no server fits — the condition
        under which the reference ``try_place`` returns ``None`` (its
        policies never decline a count-feasible server).
        """
        if self.node_policy == "first-fit":
            for s, mirror in enumerate(self._mirrors):
                if mirror.max_free >= num_gpus:
                    return s, mirror.first(num_gpus)
            return None
        best: Optional[Tuple[int, int, int]] = None  # (rank, shard, local)
        for s, mirror in enumerate(self._mirrors):
            if mirror.max_free < num_gpus:
                continue
            local = next(mirror.candidates(num_gpus, self.node_policy))
            free = mirror.free_count(local)
            rank = free if self.node_policy == "pack" else -free
            if best is None or (rank, s) < (best[0], best[1]):
                best = (rank, s, local)
        if best is None:
            return None
        return best[1], best[2]

    # -------------------------------------------------------------- #
    # dispatch + flush
    # -------------------------------------------------------------- #
    @property
    def has_pending(self) -> bool:
        """Whether any dispatched operation awaits a flush."""
        return bool(self._pending_places) or any(self._ops)

    def dispatch_place(
        self, job: Job, shard: int, local: int, start_time: float
    ) -> int:
        """Buffer a placement on ``(shard, local)``; returns global index.

        The mirror commits immediately — the free count drops by the
        job's GPU count — so subsequent :meth:`route` calls in the same
        batch see the placement, exactly as the reference index does.
        """
        mirror = self._mirrors[shard]
        mirror.set_free(local, mirror.free_count(local) - job.num_gpus)
        self._ops[shard].append(("p", job, local))
        self._pending_places.append((job, shard, local, start_time))
        return self.plan.start(shard) + local

    def dispatch_release(
        self, job_id: Hashable, shard: int, local: int, num_gpus: int
    ) -> None:
        """Buffer a release; the mirror re-credits the GPUs immediately."""
        mirror = self._mirrors[shard]
        mirror.set_free(local, mirror.free_count(local) + num_gpus)
        self._ops[shard].append(("r", job_id))

    def _verify_summary(
        self, shard: int, summary: Tuple[int, Tuple[int, ...]]
    ) -> None:
        """Compare a shard's piggybacked summary against the mirror."""
        expected = self._mirrors[shard].bucket_summary()
        if summary != expected:
            raise RuntimeError(
                f"shard {shard} bucket summary {summary} diverged from "
                f"routing mirror {expected} — state desync"
            )

    def flush(self) -> List[Tuple[Job, int, int, int, float, Tuple]]:
        """Execute every buffered batch; replies in global dispatch order.

        One round trip per shard with pending work, issued in parallel.
        Each returned entry is ``(job, shard, local, global_server,
        start_time, reply)`` with ``reply = (local, gpus, agg_bw,
        effective_bw, measured_bw, exec_time)``; entries follow the
        global dispatch order, which is what lets the simulator assign
        completion sequence numbers identically to the reference loop.
        Every shard's piggybacked bucket summary is verified against
        its mirror before replies are consumed.
        """
        active = [s for s in range(self.num_shards) if self._ops[s]]
        if not active:
            return []
        if self.mode == "inline":
            raw = [_shard_exec(self._token, s, self._ops[s]) for s in active]
        else:
            futures = [
                self._pools[s].submit(_shard_exec, self._token, s, self._ops[s])
                for s in active
            ]
            raw = [f.result() for f in futures]
        reply_iters = {}
        for s, (replies, summary) in zip(active, raw):
            self._verify_summary(s, summary)
            reply_iters[s] = iter(replies)
        out = []
        for job, shard, local, start_time in self._pending_places:
            reply = next(reply_iters[shard])
            gidx = self.plan.start(shard) + local
            out.append((job, shard, local, gidx, start_time, reply))
        for s in active:
            self._ops[s] = []
        self._pending_places = []
        return out

    # -------------------------------------------------------------- #
    # invariants, stats, lifecycle
    # -------------------------------------------------------------- #
    def check_mirror(self) -> None:
        """Assert mirrors == shard indexes == shared-memory state.

        Deep-checks every shard's own index (bucket structure, counts),
        then compares its actual free counts and summary against the
        parent mirror, and — when the segment is live — against the
        shared-memory free-count slots.  Only meaningful when nothing
        is pending (buffered ops make the mirror intentionally ahead).
        """
        if self.has_pending:
            raise RuntimeError("check_mirror() requires a flushed scheduler")
        results = self._call_all(
            _shard_check,
            [(self._token, s) for s in range(self.num_shards)],
        )
        for s, (free_counts, summary) in enumerate(results):
            self._verify_summary(s, summary)
            if tuple(free_counts) != self._mirrors[s].snapshot():
                raise RuntimeError(
                    f"shard {s} free counts {tuple(free_counts)} != mirror "
                    f"{self._mirrors[s].snapshot()}"
                )
            if self._view is not None:
                lo, hi = self.plan.boundaries[s], self.plan.boundaries[s + 1]
                shm_counts = tuple(
                    int(c) for c in self._view.free_counts[lo:hi]
                )
                if shm_counts != tuple(free_counts):
                    raise RuntimeError(
                        f"shard {s} shared-memory counts {shm_counts} != "
                        f"actual {tuple(free_counts)}"
                    )

    def resync_mirror(self) -> None:
        """Rebuild every mirror from its shard's actual free counts.

        The recovery hook for out-of-band shard mutation (tests poking
        at a shard's engines); normal operation never needs it, exactly
        like :meth:`MultiServerScheduler.resync_index`.
        """
        if self.has_pending:
            raise RuntimeError("resync_mirror() requires a flushed scheduler")
        counts = self._call_all(
            _shard_free_counts,
            [(self._token, s) for s in range(self.num_shards)],
        )
        for s, free in enumerate(counts):
            lo, hi = self.plan.boundaries[s], self.plan.boundaries[s + 1]
            self._mirrors[s] = CandidateServerIndex(
                list(free), capacities=self._capacities[lo:hi]
            )

    def shard_stats(self) -> List[Dict[str, float]]:
        """Raw per-shard cache counters, shard-indexed."""
        return self._call_all(
            _shard_stats, [(self._token, s) for s in range(self.num_shards)]
        )

    def cache_stats(self) -> Dict[str, float]:
        """Fleet-wide aggregated cache counters (see per-shard breakdown)."""
        return aggregate_cache_stats(self.shard_stats())

    def shard_pids(self) -> List[int]:
        """The pid hosting each shard (parent pid in inline mode)."""
        return self._call_all(
            _shard_pid, [(self._token, s) for s in range(self.num_shards)]
        )

    def reset(self) -> None:
        """Release every job on every shard and rebuild the mirrors."""
        self._ops = [[] for _ in range(self.num_shards)]
        self._pending_places = []
        summaries = self._call_all(
            _shard_reset, [(self._token, s) for s in range(self.num_shards)]
        )
        for s, summary in enumerate(summaries):
            lo, hi = self.plan.boundaries[s], self.plan.boundaries[s + 1]
            caps = self._capacities[lo:hi]
            self._mirrors[s] = CandidateServerIndex(
                list(caps), capacities=list(caps)
            )
            self._verify_summary(s, summary)

    def close(self) -> None:
        """Tear everything down: shard runtimes, pools, shared memory.

        Idempotent and exception-tolerant — a shard worker that already
        died (the crash-recovery tests kill one mid-replay) must not
        keep the segment pinned in ``/dev/shm``.
        """
        if self._closed:
            return
        self._closed = True
        for s in range(self.num_shards):
            try:
                self._call_one(s, _shard_drop, self._token, s)
            except Exception:  # pragma: no cover - dead worker
                pass
        for pool in self._pools:
            if pool is not None:
                try:
                    pool.shutdown(wait=False, cancel_futures=True)
                except Exception:  # pragma: no cover - defensive
                    pool.shutdown(wait=False)
        self._pools = [None] * self.num_shards
        if self._view is not None:
            self._view.unlink()
            self._view.close()
            self._view = None

    def __enter__(self) -> "ShardedFleetScheduler":
        """Context-manager entry: the scheduler itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Guaranteed teardown of workers and shared memory."""
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        """Best-effort teardown for schedulers never closed explicitly."""
        try:
            self.close()
        except Exception:
            pass


# --------------------------------------------------------------------- #
# the sharded replay loop
# --------------------------------------------------------------------- #
class ShardedFleetSimulator:
    """FIFO fleet replay over a :class:`ShardedFleetScheduler`.

    Reproduces the columnar core's fused FIFO loop
    (:class:`repro.sim.core.SimulationCore`) with dispatch *batched*
    behind an **optimistic horizon**:

    * every dispatched-but-unflushed placement contributes a lower
      bound on its completion time — ``start + execution_time(workload,
      n, ∞)``, valid because execution time is non-increasing in
      bandwidth;
    * events strictly before the minimum of those bounds are popped
      freely (they cannot causally depend on an undispatched
      completion); the first event at or past it forces a flush, which
      schedules the exact completions and resets the horizon.

    Flush timing is therefore pure performance; correctness needs only
    "never pop past the horizon with placements pending".  Sequence
    numbers also match the reference: arrivals are bulk-scheduled first
    (sequences ``0..n-1`` in both loops), and completions are assigned
    sequences in global dispatch order — the order the reference loop
    schedules them one at a time — so `(time, seq)` tie-breaking, and
    with it the event stream and the log, is byte-identical.
    """

    def __init__(self, scheduler: ShardedFleetScheduler) -> None:
        self.scheduler = scheduler
        self.engine: EventEngine = EventEngine()
        self.log: Optional[SimulationLog] = None
        self._server_jobs: Dict[int, int] = {}
        # Lower-bound execution-time memo for the horizon: keyed like
        # the core's estimate memo, one entry per (workload, GPU count).
        self._lb_cache: Dict[Tuple[str, int], float] = {}
        self._used = False

    # -------------------------------------------------------------- #
    def _exec_lower_bound(self, job: Job) -> float:
        """Infinite-bandwidth runtime — the job's completion lower bound."""
        key = (job.workload, job.num_gpus)
        bound = self._lb_cache.get(key)
        if bound is None:
            bound = execution_time(
                job.workload_spec(), job.num_gpus, float("inf")
            )
            self._lb_cache[key] = bound
        return bound

    def run(self, job_file: JobFile) -> SimulationLog:
        """Replay the whole trace; returns the (byte-identical) log.

        Reusable: a second ``run()`` resets the shards (their caches
        stay warm — that is the point of keeping the workers alive) and
        replays into a fresh engine and log.
        """
        scheduler = self.scheduler
        if self._used:
            scheduler.reset()
        self._used = True
        engine = EventEngine()
        self.engine = engine
        log = SimulationLog(
            f"{scheduler.gpu_policy}/{scheduler.node_policy}",
            f"cluster[{scheduler.num_servers}]",
        )
        self.log = log
        self._server_jobs = {i: 0 for i in range(scheduler.num_servers)}
        stats_base = scheduler.shard_stats()

        jobs = list(job_file)
        times = []
        max_capacity = scheduler.max_capacity
        for job in jobs:
            if job.num_gpus > max_capacity:
                raise ValueError(
                    f"job {job.job_id} requests {job.num_gpus} GPUs; "
                    "no server can ever host it"
                )
            times.append(job.submit_time)
        engine.schedule_many(times, _ARRIVAL, jobs)

        fifo: Deque[Job] = deque()
        running: Dict[Hashable, Tuple[int, int, Tuple]] = {}
        horizon = float("inf")
        inf = float("inf")

        def flush_pending() -> None:
            """Execute buffered batches; schedule the exact completions."""
            nonlocal horizon
            for job, shard, local, gidx, start_t, reply in scheduler.flush():
                _local, gpus, agg_bw, eff_bw, measured, exec_time = reply
                row = (
                    gidx,
                    job.job_id,
                    job.workload,
                    job.num_gpus,
                    job.pattern,
                    job.bandwidth_sensitive,
                    job.submit_time,
                    start_t,
                    start_t + exec_time,
                    gpus,
                    agg_bw,
                    eff_bw,
                    measured,
                )
                running[job.job_id] = (shard, local, row)
                engine.schedule(start_t + exec_time, _COMPLETION, job.job_id)
            horizon = inf

        while True:
            nxt = engine.peek_time()
            if scheduler.has_pending and (nxt is None or nxt >= horizon):
                flush_pending()
                continue
            event = engine.pop()
            if event is None:
                break
            _, kind, payload = event
            if kind == _ARRIVAL:
                fifo.append(payload)
                if len(fifo) > 1:
                    continue
            elif kind == _COMPLETION:
                shard, local, row = running.pop(payload)
                scheduler.dispatch_release(payload, shard, local, row[3])
                self._server_jobs[row[0]] += 1
                log.append_fields(*row[1:])
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown event kind {kind!r}")
            now = engine.now
            while fifo:
                head = fifo[0]
                target = scheduler.route(head.num_gpus)
                if target is None:
                    break
                scheduler.dispatch_place(head, target[0], target[1], now)
                bound = now + self._exec_lower_bound(head)
                if bound < horizon:
                    horizon = bound
                fifo.popleft()
        if scheduler.has_pending:
            # Trailing releases (completions popped after the last
            # placement) still need to reach their shards so post-run
            # invariant checks and warm restarts see a settled fleet.
            scheduler.flush()
        if fifo:
            raise RuntimeError("simulation ended with jobs still queued")
        log.cache_stats = self._run_cache_stats(stats_base)
        return log

    def _run_cache_stats(
        self, base: Sequence[Mapping[str, float]]
    ) -> Dict[str, float]:
        """Per-run cache counters: end-of-run minus the start snapshot.

        Aggregated fleet-wide (same keys the single-process core
        reports) plus a ``per_shard`` breakdown and the shard count.
        Attached to ``log.cache_stats``, which the log's serialisation
        deliberately excludes — so the digest contract is untouched.
        """
        end = self.scheduler.shard_stats()
        per_shard: List[Dict[str, float]] = []
        for before, after in zip(base, end):
            delta = {
                key: after[key] - before.get(key, 0) for key in after
            }
            lookups = delta.get("scan_lookups")
            if lookups is not None:
                delta["scan_hit_rate"] = (
                    delta.get("scan_hits", 0) / lookups if lookups else 0.0
                )
            per_shard.append(delta)
        stats = aggregate_cache_stats(per_shard)
        stats["shards"] = self.scheduler.num_shards
        stats["per_shard"] = per_shard
        return stats

    def jobs_per_server(self) -> Dict[int, int]:
        """How many completed jobs each (global) server hosted."""
        return dict(self._server_jobs)


def run_sharded(
    fleet: FleetSpec,
    job_file: JobFile,
    shards: int = 1,
    *,
    boundaries: Optional[Sequence[int]] = None,
    gpu_policy: str = "preserve",
    node_policy: str = "first-fit",
    model: EffectiveBandwidthModel = PAPER_MODEL,
    engine: str = "cached",
    mode: str = "process",
    use_shared_memory: Optional[bool] = None,
) -> SimulationLog:
    """One-call sharded replay: build, run, tear down, return the log.

    The sharded counterpart of
    :func:`repro.cluster.simulator.run_cluster` for a static fleet under
    FIFO — same byte-identical log for any shard count.  Callers that
    replay repeatedly (the shard benchmark) should hold a
    :class:`ShardedFleetScheduler` and a :class:`ShardedFleetSimulator`
    open instead, so shard caches stay warm across runs.
    """
    with ShardedFleetScheduler(
        fleet,
        shards,
        boundaries=boundaries,
        gpu_policy=gpu_policy,
        node_policy=node_policy,
        model=model,
        engine=engine,
        mode=mode,
        use_shared_memory=use_shared_memory,
    ) as scheduler:
        return ShardedFleetSimulator(scheduler).run(job_file)
