"""Content-addressed memoization of completed match scans.

A match scan's result is a pure function of three inputs only: the
server's *wiring* (which the precomputed
:class:`~repro.topology.linktable.LinkTable` is derived from), the
application *pattern*, and the *free-GPU set* the pattern is matched
against.  Long replays and fleet sweeps present the same triple
thousands of times — a server that returns to a previously seen free
set re-scores the exact same candidate space — so this module caches
completed scans under a content-addressed key:

``(topology_hash, pattern_id, free_set_bitmask)``

* :attr:`~repro.topology.hardware.HardwareGraph.topology_hash` is the
  name-independent SHA-256 of the wiring, so every server of a fleet
  with identical wiring (including differently named clones such as
  big-basin/p3dn vs DGX-1V) shares one cache partition;
* :func:`pattern_id` identifies a pattern by its structure (slot count
  + edge set), mirroring :class:`~repro.appgraph.application.ApplicationGraph`
  equality;
* the free-set bitmask is maintained *incrementally* by
  :class:`~repro.allocator.state.AllocationState` from placement and
  release deltas (the dirty sets), so key construction is O(1) on the
  allocator's hot path.

Because the key is content-addressed, invalidation is implicit: a
placement or release changes the server's free bitmask, which changes
the key, which routes the next lookup past every stale entry.  Entries
for superseded free sets are never *wrong* — they are exact and become
hits again the moment the free set recurs — they are merely cold, and
the LRU bound reclaims them.

The cache stores opaque values plus a per-entry winner memo for
argmax selections, and counts lookups, hits, misses and evictions so
replays can report steady-state hit rates.  The policies' values are
*restrictions*: the kept row indices of a per-(wiring, pattern)
:class:`~repro.policies.scan.MatchTable` that the cached front-end
keeps in this cache's :attr:`ScanCache.aux` side-car, and their
winners are complete :class:`~repro.policies.base.Allocation` objects.
The cache is deliberately engine-agnostic: nothing here imports the
policy layer, which keeps the dependency arrow pointing downward.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Mapping,
    Optional,
    Tuple,
)

from ..appgraph.application import ApplicationGraph
from ..topology.hardware import HardwareGraph

#: Default LRU bound — generous for single-server runs (a DGX-V has at
#: most 2⁸ free sets) while keeping heterogeneous-fleet sweeps bounded.
DEFAULT_CAPACITY = 4096

#: Cache key: (topology_hash, pattern_id, free-set bitmask).
ScanKey = Tuple[str, Tuple[int, Tuple[Tuple[int, int], ...]], int]


def pattern_id(pattern: ApplicationGraph) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """Structural identity of a pattern: ``(num_gpus, edges)``.

    Name-independent on purpose — it mirrors
    :meth:`ApplicationGraph.__eq__ <repro.appgraph.application.ApplicationGraph.__eq__>`,
    so two patterns that match identically share cache entries even if
    a workload catalog registered them under different names.
    """
    return (pattern.num_gpus, pattern.edges)


@dataclass
class CacheStats:
    """Counters of one :class:`ScanCache`'s lifetime.

    Invariants (pinned by the property tests): ``hits + misses ==
    lookups`` and ``evictions <= misses`` (only an inserted entry can
    ever be evicted, and every insertion was a miss first).
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready snapshot (the ``SimulationLog.cache_stats`` payload)."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class CacheEntry:
    """One cached scan plus the memoized winners selected from it.

    ``value`` is the completed scan (opaque to this module; the cached
    scan front-end stores the kept rows of a match table).
    ``winners`` memoizes argmax selections per objective token — e.g.
    Greedy's AggBW winner, Preserve's Eq. 2 winner under a specific
    coefficient vector — so a cache hit skips not only the scan build
    but also the selection pass.  Tokens must capture everything the
    selection depends on beyond the scan itself (model coefficients,
    objective name); the policies construct them accordingly.

    Entries rehydrated from the persistent spill tier carry their
    winners but **not** the scan (``value is None`` — the winners are
    what replays actually consume).  ``loader`` is the deferred
    rebuild: the cached front-end installs it from the live request's
    inputs — a restriction of the cache's match table to the entry's
    free mask — and :meth:`materialize` invokes it only when a *novel*
    objective token needs the scan.  Because the entry's key pins the
    exact (wiring, pattern, free set), the rebuilt scan is
    bit-identical to the one that was spilled.
    """

    __slots__ = ("key", "value", "winners", "loader")

    def __init__(
        self,
        key: ScanKey,
        value: Any,
        winners: Optional[Mapping[Hashable, Any]] = None,
        loader: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.key = key
        self.value = value
        self.winners: Dict[Hashable, Any] = dict(winners) if winners else {}
        self.loader = loader

    def materialize(self) -> Any:
        """The scan value, rebuilding a spill-rehydrated entry on demand."""
        if self.value is None and self.loader is not None:
            self.value = self.loader()
            self.loader = None
        if self.value is None:
            raise RuntimeError(
                f"cache entry {self.key!r} has no value and no loader; "
                "spill-rehydrated entries must be consumed through the "
                "cached scan front-end, which installs the rebuild hook"
            )
        return self.value

    def winner(self, token: Hashable, compute: Callable[[Any], Any]) -> Any:
        """The memoized winner for ``token``, computing it on first use.

        ``compute`` receives the cached scan and must be a pure
        function of it (plus whatever ``token`` encodes) — the result
        is reused verbatim for every later request with the same token.
        A spill-rehydrated entry serves its stored winners without ever
        touching the scan; the lazy rebuild fires only here, on the
        first novel token.
        """
        try:
            return self.winners[token]
        except KeyError:
            value = self.winners[token] = compute(self.materialize())
            return value


class ScanCache:
    """LRU-bounded, content-addressed store of completed scans.

    Parameters
    ----------
    capacity:
        Maximum entries held; the least recently *used* (looked up or
        inserted) entry is evicted first.  ``None`` disables the bound.

    One instance may serve many servers and many policies at once: the
    key partitions by wiring and pattern, and winner tokens partition
    selections by objective/model, so sharing is always sound — the
    multi-server scheduler hands one cache to every engine of a fleet,
    and the sweep runner reuses one per worker process across cells.
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be ≥ 1 or None, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[ScanKey, CacheEntry]" = OrderedDict()
        # gpu -> bit-position masks, one mapping per distinct hardware
        # graph (equal graphs share: HardwareGraph hashes by wiring).
        self._bit_masks: Dict[HardwareGraph, Mapping[int, int]] = {}
        # Side-car for content-addressed derivatives computed by higher
        # layers (the cached scan's per-(wiring, pattern) match tables,
        # the multi-server scheduler's first-fit decision memo,
        # namespaced by policy/model fingerprint).  Sharing a
        # cache across replays shares these too — that is the point:
        # the cache object is the one thing callers already thread
        # through repeated replays of the same fleet.  Values must be
        # pure functions of their (content-addressed) keys; the cache
        # never interprets them.
        self.aux: Dict[Hashable, Any] = {}

    # ------------------------------------------------------------------ #
    # key construction
    # ------------------------------------------------------------------ #
    def bit_masks(self, hardware: HardwareGraph) -> Mapping[int, int]:
        """Per-GPU bitmask values for ``hardware`` (memoized).

        Bit *i* corresponds to the *i*-th GPU of the sorted GPU tuple,
        matching :attr:`repro.allocator.state.AllocationState.free_bitmask`.
        """
        masks = self._bit_masks.get(hardware)
        if masks is None:
            masks = {g: 1 << i for i, g in enumerate(hardware.gpus)}
            self._bit_masks[hardware] = masks
        return masks

    def free_mask(self, hardware: HardwareGraph, available: Iterable[int]) -> int:
        """Bitmask of a free-GPU collection (for callers without a state).

        The allocator's :class:`~repro.allocator.state.AllocationState`
        maintains this incrementally and passes it down, so the hot
        path never calls this; it serves direct policy invocations.
        """
        masks = self.bit_masks(hardware)
        mask = 0
        for gpu in available:
            mask |= masks[gpu]
        return mask

    def key(
        self,
        hardware: HardwareGraph,
        pattern: ApplicationGraph,
        free_mask: int,
    ) -> ScanKey:
        """The content-addressed key of one scan."""
        return (hardware.topology_hash, pattern_id(pattern), free_mask)

    # ------------------------------------------------------------------ #
    # the store
    # ------------------------------------------------------------------ #
    def lookup(self, key: ScanKey) -> Optional[CacheEntry]:
        """The entry under ``key``, or ``None`` — counts a hit or miss."""
        self.stats.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def insert(self, key: ScanKey, value: Any) -> CacheEntry:
        """Store ``value`` under ``key``, evicting LRU entries if full.

        Returns the (fresh) :class:`CacheEntry`; re-inserting an
        existing key replaces the entry and its winner memo.
        """
        entry = CacheEntry(key, value)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return entry

    def seed(
        self, key: ScanKey, winners: Mapping[Hashable, Any]
    ) -> Optional[CacheEntry]:
        """Install a spill-rehydrated entry without touching the stats.

        Used by the persistent tier when warm-starting a cache from
        disk: the entry arrives with its winners but no scan value (the
        cached front-end installs the lazy rebuild on first use), and
        seeding is bookkeeping, not traffic — lookups/hits/misses stay
        untouched so a warmed replay's *own* hit rate is what the stats
        report.  Seeding never displaces live entries: once the cache
        is full, further seeds are dropped (returns ``None``) rather
        than evicting — disk is allowed to be bigger than memory.
        An existing entry under ``key`` is left untouched.
        """
        if key in self._entries:
            return self._entries[key]
        if self.capacity is not None and len(self._entries) >= self.capacity:
            return None
        entry = CacheEntry(key, None, winners)
        self._entries[key] = entry
        return entry

    def entries(self) -> Tuple[CacheEntry, ...]:
        """Every live entry, least recently used first (for spilling)."""
        return tuple(self._entries.values())

    def invalidate(self, key: ScanKey) -> bool:
        """Drop one entry; returns whether it existed.

        Content addressing makes this unnecessary for correctness —
        it exists for callers that want to bound memory explicitly
        (e.g. dropping a retired server's partition).
        """
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry and the aux side-car (stats are preserved)."""
        self._entries.clear()
        self.aux.clear()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Entries currently held."""
        return len(self._entries)

    def __contains__(self, key: ScanKey) -> bool:
        """Whether ``key`` is cached (does not count as a lookup)."""
        return key in self._entries

    def keys(self) -> Tuple[ScanKey, ...]:
        """The cached keys, least recently used first."""
        return tuple(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScanCache(entries={len(self._entries)}, "
            f"capacity={self.capacity}, hit_rate={self.stats.hit_rate:.2f})"
        )
