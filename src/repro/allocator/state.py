"""Hardware allocation state management (paper section 3.6).

The hardware graph is updated whenever a job is scheduled (its GPUs and
their incident links leave the pool) and whenever a job finishes (they
return).  :class:`AllocationState` tracks which GPUs are free, which job
owns which GPUs, and enforces the obvious invariants: no GPU is ever
double-allocated and releases restore exactly what was allocated.

The free pool **is the bitmask** (bit *i* = *i*-th GPU of the sorted
GPU tuple): allocate/release validate and flip bits with a couple of
integer operations, and the derived views
(:attr:`AllocationState.free_gpus`, :attr:`AllocationState.free_sorted`)
are rebuilt from the mask lazily on first read after a mutation, then
cached.  The match scan asks for the free set on every simulated event
— often several times per event on a multi-server fleet — so serving a
cached tuple instead of rebuilding a set each time keeps
candidate-server pruning off the hot path.

Placement and release deltas are additionally published two ways for
the caching layers above:

* :attr:`AllocationState.free_bitmask` — one bit per GPU (bit *i* is
  the *i*-th GPU of the sorted GPU tuple), XOR-updated from each
  delta, so the content-addressed scan cache
  (:mod:`repro.scoring.memo`) builds its key in O(1) per event;
* :meth:`AllocationState.drain_dirty` — the accumulated *dirty set* of
  GPUs touched since the last drain, consumed by the multi-server
  scheduler to re-bucket only servers whose free set actually changed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Set, Tuple

from ..topology.hardware import HardwareGraph


class AllocationError(RuntimeError):
    """Raised on conflicting allocate / release operations."""


class AllocationState:
    """Mutable view of which GPUs a server currently has free."""

    def __init__(self, hardware: HardwareGraph) -> None:
        self.hardware = hardware
        self._gpus: Tuple[int, ...] = tuple(sorted(hardware.gpus))
        self._free_frozen: Optional[FrozenSet[int]] = None
        self._free_tuple: Optional[Tuple[int, ...]] = None
        self._version: int = 0
        self._owner: Dict[int, Hashable] = {}
        self._jobs: Dict[Hashable, Tuple[int, ...]] = {}
        # Bit per GPU (position = index in the sorted GPU tuple),
        # XOR-maintained from placement/release deltas; plus the dirty
        # set of GPUs touched since the last drain_dirty().  The mask
        # *is* the free set — the sorted tuple / frozenset views are
        # derived from it lazily, so allocate/release touch only
        # integers and the two job-bookkeeping dicts.
        self._bit: Dict[int, int] = {
            g: 1 << i for i, g in enumerate(self._gpus)
        }
        self._full_mask: int = (1 << len(self._bit)) - 1
        self._mask: int = self._full_mask
        self._nfree: int = len(self._gpus)
        self._dirty: Set[int] = set()

    # ------------------------------------------------------------------ #
    def _invalidate(self) -> None:
        """Drop the cached free-set views after a mutation."""
        self._free_frozen = None
        self._free_tuple = None
        self._version += 1

    @property
    def version(self) -> int:
        """Mutation counter: bumps on every allocate/release/reset.

        For callers that cache per-state derived structures (remapped
        link tables, candidate matrices) and need an O(1) staleness
        check.  No production caller yet — the churn property tests
        pin its semantics so such caches can rely on it.
        """
        return self._version

    @property
    def free_bitmask(self) -> int:
        """The free set as a bitmask, maintained incrementally (O(1)).

        Bit *i* is set iff the *i*-th GPU of the sorted GPU tuple is
        free — the convention :meth:`repro.scoring.memo.ScanCache.bit_masks`
        mirrors, so this value keys the scan cache directly without
        touching the free list.  Every allocate/release XORs exactly
        the delta's bits in (the dirty-set publication).
        """
        return self._mask

    def drain_dirty(self) -> FrozenSet[int]:
        """GPUs whose free/busy state was touched since the last drain.

        Consumers (the multi-server scheduler's candidate index) use a
        non-empty result as the signal that this server's free set —
        and therefore any per-server cached winner — is stale.  The
        set is cleared by the call; it is bounded by the server's GPU
        count, so an unconsumed state never grows without bound.
        """
        dirty = frozenset(self._dirty)
        self._dirty.clear()
        return dirty

    def consume_dirty(self) -> bool:
        """Clear the dirty set; report whether it was non-empty.

        The boolean twin of :meth:`drain_dirty` for consumers that only
        need the staleness *signal*, not the touched GPUs — the
        multi-server scheduler re-buckets a server off its (cached)
        free count alone, so building a frozenset per event is wasted
        work on the hot path.
        """
        if self._dirty:
            self._dirty.clear()
            return True
        return False

    @property
    def free_gpus(self) -> FrozenSet[int]:
        """GPUs currently available for allocation (cached frozenset)."""
        if self._free_frozen is None:
            self._free_frozen = frozenset(self.free_sorted)
        return self._free_frozen

    @property
    def free_sorted(self) -> Tuple[int, ...]:
        """Free GPUs as an ascending tuple (cached; the scan's input).

        Derived from the bitmask on first read after a mutation (one
        pass over the server's GPU tuple, which is already sorted), then
        cached until the next mutation — reading it never re-sorts.
        """
        if self._free_tuple is None:
            mask = self._mask
            bit = self._bit
            self._free_tuple = tuple(g for g in self._gpus if mask & bit[g])
        return self._free_tuple

    @property
    def num_free(self) -> int:
        """Free-GPU count (O(1))."""
        return self._nfree

    @property
    def num_allocated(self) -> int:
        """Allocated-GPU count."""
        return self.hardware.num_gpus - self._nfree

    @property
    def active_jobs(self) -> Tuple[Hashable, ...]:
        """Ids of jobs currently holding GPUs, in allocation order."""
        return tuple(self._jobs)

    def is_free(self, gpu: int) -> bool:
        """Whether ``gpu`` is currently unallocated."""
        bit = self._bit.get(gpu)
        if bit is None:
            raise KeyError(f"unknown GPU {gpu}")
        return bool(self._mask & bit)

    def owner_of(self, gpu: int) -> Hashable | None:
        """Job currently holding ``gpu`` (None if free)."""
        if gpu not in self.hardware:
            raise KeyError(f"unknown GPU {gpu}")
        return self._owner.get(gpu)

    def gpus_of(self, job_id: Hashable) -> Tuple[int, ...]:
        """The GPUs ``job_id`` holds (raises if it holds none)."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise AllocationError(f"job {job_id!r} holds no allocation") from None

    # ------------------------------------------------------------------ #
    def mask_of(self, gpus: Iterable[int]) -> int:
        """The bitmask covering ``gpus`` (OR of their per-GPU bits).

        Raises :class:`KeyError` on a GPU this server does not have.
        Pure in the server's sorted GPU tuple, so callers may memoize
        the result under any key that pins the wiring (the decision
        memo stores it next to each winner).
        """
        bits = self._bit
        delta = 0
        for g in gpus:
            delta |= bits[g]
        return delta

    def allocate_prevalidated(
        self, job_id: Hashable, gpus: Tuple[int, ...], delta: int
    ) -> None:
        """:meth:`allocate` for a ``(gpus, delta)`` pair built by
        :meth:`mask_of` from a decision on this state.

        The decision-memo hit path re-commits the same winner thousands
        of times per replay; validating the whole set with one mask
        intersection (instead of per-GPU dict probes) keeps that path
        O(1) in everything but the owner-table writes.  ``gpus`` must
        be the canonical sorted duplicate-free tuple and ``delta`` its
        exact bitmask — both are stored alongside the memoized winner,
        whose content-addressed key already pins the wiring.

        Unlike :meth:`allocate` this does **not** publish a dirty set:
        the only caller re-buckets its candidate index directly, and
        skipping the set churn is the point of the fast path.
        """
        mask = self._mask
        if (mask & delta) != delta:
            raise AllocationError(
                f"allocation {gpus} overlaps busy GPUs (mask {delta:#x})"
            )
        if job_id in self._jobs:
            raise AllocationError(f"job {job_id!r} already holds an allocation")
        owner = self._owner
        for g in gpus:
            owner[g] = job_id
        self._mask = mask ^ delta
        self._nfree -= len(gpus)
        self._jobs[job_id] = gpus
        self._invalidate()

    def allocate(self, job_id: Hashable, gpus: Iterable[int]) -> None:
        """Assign ``gpus`` to ``job_id``, removing them from the free pool."""
        chosen = tuple(sorted(set(gpus)))
        if not chosen:
            raise AllocationError("empty allocation")
        if job_id in self._jobs:
            raise AllocationError(f"job {job_id!r} already holds an allocation")
        bits = self._bit
        mask = self._mask
        delta = 0
        for g in chosen:
            b = bits.get(g)
            if b is None:
                raise KeyError(f"unknown GPU {g}")
            if not (mask & b):
                raise AllocationError(
                    f"GPU {g} is busy (owned by {self._owner[g]!r})"
                )
            delta |= b
        owner = self._owner
        for g in chosen:
            owner[g] = job_id
        self._mask = mask ^ delta
        self._nfree -= len(chosen)
        self._dirty.update(chosen)
        self._jobs[job_id] = chosen
        self._invalidate()

    def release(self, job_id: Hashable) -> Tuple[int, ...]:
        """Return ``job_id``'s GPUs to the pool; returns the freed GPUs."""
        try:
            gpus = self._jobs.pop(job_id)
        except KeyError:
            raise AllocationError(f"job {job_id!r} holds no allocation") from None
        owner = self._owner
        bits = self._bit
        delta = 0
        for g in gpus:
            del owner[g]
            delta |= bits[g]
        self._mask |= delta
        self._nfree += len(gpus)
        self._dirty.update(gpus)
        self._invalidate()
        return gpus

    def reset(self) -> None:
        """Release everything (e.g. between simulation runs)."""
        mask = self._mask
        self._dirty.update(
            g for g in self._gpus if not (mask & self._bit[g])
        )
        self._mask = self._full_mask
        self._nfree = len(self._gpus)
        self._owner.clear()
        self._jobs.clear()
        self._invalidate()

    def check_invariants(self) -> None:
        """Internal consistency check, used heavily by property tests."""
        free = {g for g in self._gpus if self._mask & self._bit[g]}
        busy = set(self._owner)
        if busy & free:
            raise AssertionError("GPU marked both free and owned")
        if busy | free != set(self._gpus):
            raise AssertionError("GPU neither free nor owned")
        from_jobs = {g for gpus in self._jobs.values() for g in gpus}
        if from_jobs != busy:
            raise AssertionError("job table and owner table disagree")
        for job, gpus in self._jobs.items():
            for g in gpus:
                if self._owner[g] != job:
                    raise AssertionError(f"GPU {g} owner mismatch")
        # The derived views must mirror the mask exactly.
        if self._nfree != len(free):
            raise AssertionError("free count out of sync with bitmask")
        if self._free_frozen is not None and self._free_frozen != free:
            raise AssertionError("cached free frozenset is stale")
        if self._free_tuple is not None and self._free_tuple != tuple(
            sorted(free)
        ):
            raise AssertionError("cached free tuple is stale")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AllocationState({self.hardware.name!r}, "
            f"free={list(self.free_sorted)}, jobs={len(self._jobs)})"
        )
