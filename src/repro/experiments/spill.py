"""Persistent spill tier for the content-addressed scan cache.

The in-memory :class:`~repro.scoring.memo.ScanCache` dies with its
process, so every fleet replay, sweep worker and CLI invocation pays
the same cold scans again.  This module spills a cache's entries into
the ``scan`` namespace of the shared
:class:`~repro.experiments.store.ContentStore` and rehydrates a fresh
cache from them, so replays start warm across processes *and* machines
(the key is the name-independent wiring hash: any host simulating the
same server wiring shares the partition).

What is spilled
---------------
Winners, not scans.  A cache entry's ``value`` is the kept rows of a
restriction of the cache's per-wiring match table — cheap to rebuild
once the table exists — while what replays actually consume is the
per-objective-token *winner* memo: the complete
:class:`~repro.policies.base.Allocation` each policy selected, its
score vector read off the table.  A winner round-trips as its
``(token, gpus, mapping, scores)`` row (the match is rebuilt from the
pattern via :func:`~repro.matching.candidates.match_from_mapping`;
floats survive JSON bit-exactly; tuple tokens come back as tuples).  A
row keeps only the objective's own scores, the items before
``census_x``: the engine scores the rest on commit, as it always did.  A rehydrated
entry serves every spilled winner without touching a scan; only a
*novel* objective token triggers a lazy restriction of the table (see
:meth:`repro.scoring.memo.CacheEntry.materialize`), which is
bit-identical by construction because the entry's key pins the exact
wiring, pattern and free set.

On disk
-------
One ``mapa-scan`` frame per ``(topology_hash, pattern)`` partition,
at ``<root>/scan/<hh>/<key>.mlog`` with ``key =``
:func:`~repro.experiments.store.partition_hash`.  The frame header
holds the wiring hash and the pattern; the free-set entries travel as
one CRC-covered JSON blob of ``[free_mask, [[token, gpus, mapping,
scores], ...]]`` rows.  The store refuses a frame whose CRC, format or
header key does not check out, so a damaged partition seeds nothing.

Concurrency
-----------
A spill reads the partition, merges its winners in and writes it back
atomically.  Two processes spilling the same partition at once (every
parallel sweep worker spills after each cell) race: the last rename
wins and the other's new entries are lost.  Entries can be lost, but a
winner is never wrong — each frame is whole and every winner in it is
exact for its key — and a lost entry costs one cold scan later.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import takewhile
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..appgraph.application import ApplicationGraph
from ..matching.candidates import match_from_mapping
from ..policies.base import Allocation
from ..scoring.memo import ScanCache
from ..sim.records import encode_frame
from .store import SCAN, ContentStore, partition_hash

def _decode_token(payload: Any) -> Any:
    """A token read back from JSON: lists back to tuples, recursively."""
    if isinstance(payload, list):
        return tuple(_decode_token(item) for item in payload)
    return payload


def _row(token: Any, value: Any) -> Optional[List[Any]]:
    """One winner as a JSON row, or ``None`` when it cannot round-trip."""
    if not isinstance(value, Allocation) or value.match is None:
        return None
    # The objective's own scores only: what follows (the census and
    # PreservedBW) is rescored on commit, so rows stay in one format.
    scores = dict(
        takewhile(lambda item: item[0] != "census_x", value.scores.items())
    )
    if not all(
        isinstance(k, str) and isinstance(v, (int, float))
        for k, v in scores.items()
    ):
        return None
    try:
        json.dumps(token)
    except (TypeError, ValueError):
        return None  # an exotic third-party token never blocks a spill
    return [token, list(value.gpus), list(value.match.mapping), scores]


@dataclass
class SpillStats:
    """Durability counters of one :class:`ScanSpillStore`'s lifetime.

    ``corrupt_partitions`` counts partition frames the content store
    refused (CRC, format or key mismatch); ``skipped_entries`` counts
    free-set entries inside sound partitions that failed to decode.
    Both are cumulative; ``mapa cache stats`` and the serve daemon
    surface them as gauges.
    """

    corrupt_partitions: int = 0
    skipped_entries: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready snapshot (daemon metrics payload)."""
        return {
            "corrupt_partitions": self.corrupt_partitions,
            "skipped_entries": self.skipped_entries,
        }


class ScanSpillStore:
    """Spill/load :class:`~repro.scoring.memo.ScanCache` partitions.

    ``root`` is the cache root shared with the result store —
    ``$MAPA_SWEEP_CACHE`` or ``.mapa_sweep_cache`` when omitted.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.content = ContentStore(root)
        self.root = self.content.root
        self.scan_root = os.path.join(self.root, SCAN)
        self._skipped = 0

    @property
    def stats(self) -> SpillStats:
        """Corrupt partitions (counted by the content store) and skips."""
        return SpillStats(self.content.corrupt[SCAN], self._skipped)

    # ------------------------------------------------------------------ #
    def spill(self, cache: ScanCache) -> int:
        """Write ``cache``'s winner memos to the tier; entries written.

        Entries whose winner memo is empty (or holds only
        unserializable winners) are skipped — there is nothing a future
        process could reuse without rescanning anyway.  Partitions are
        merged with what is already on disk: existing free-set entries
        gain the new winners, fresh masks are appended.
        """
        partitions: Dict[Tuple[str, Any], Dict[int, List[Any]]] = {}
        for entry in cache.entries():
            topology_hash, pid, free_mask = entry.key
            rows = [
                row
                for row in (_row(t, v) for t, v in entry.winners.items())
                if row is not None
            ]
            if rows:
                partitions.setdefault((topology_hash, pid), {})[free_mask] = rows
        written = 0
        for (topology_hash, (num_gpus, edges)), masks in partitions.items():
            key = partition_hash(topology_hash, num_gpus, edges)
            on_disk = self.content.get(SCAN, key)
            for mask, rows in (on_disk[1] if on_disk else ()):
                fresh = masks.setdefault(mask, [])
                tokens = {json.dumps(row[0]) for row in fresh}
                fresh.extend(r for r in rows if json.dumps(r[0]) not in tokens)
            entries = [[mask, masks[mask]] for mask in sorted(masks)]
            header = {
                "topology_hash": topology_hash,
                "pattern": {"num_gpus": num_gpus, "edges": [list(e) for e in edges]},
            }
            blob = json.dumps(entries, separators=(",", ":")).encode("utf-8")
            frame = encode_frame("mapa-scan", header, [("entries", "json", blob)])
            self.content.put(SCAN, key, frame)
            written += len(entries)
        return written

    def load(
        self,
        cache: ScanCache,
        topology_hashes: Optional[Iterable[str]] = None,
    ) -> int:
        """Rehydrate ``cache`` from the tier; entries seeded.

        ``topology_hashes`` restricts loading to the given wirings (the
        multi-server scheduler passes its fleet's hashes so unrelated
        partitions stay on disk).  Seeded entries carry winners only;
        the cached scan front-end installs the lazy scan rebuild on
        first use.  Seeding bypasses the cache's traffic stats, so the
        warmed replay's own first-pass hit rate is what gets reported.
        """
        wanted = None if topology_hashes is None else set(topology_hashes)
        seeded = 0
        for key in self.content.scan(SCAN):
            part = self.content.get(SCAN, key)
            if part is None:
                continue
            header, entries = part
            topology_hash = header["topology_hash"]
            if wanted is not None and topology_hash not in wanted:
                continue
            spec = header["pattern"]
            pattern = ApplicationGraph(
                "spill", spec["num_gpus"], tuple(map(tuple, spec["edges"]))
            )
            pid = (pattern.num_gpus, pattern.edges)
            for slot in entries:
                try:
                    free_mask, rows = slot
                    entry_key = (topology_hash, pid, int(free_mask))
                    winners = {
                        _decode_token(token): Allocation(
                            gpus=tuple(int(g) for g in gpus),
                            match=match_from_mapping(
                                pattern, tuple(int(g) for g in mapping)
                            ),
                            scores={str(k): v for k, v in scores.items()},
                        )
                        for token, gpus, mapping, scores in rows
                    }
                except (AttributeError, KeyError, TypeError, ValueError):
                    self._skipped += 1
                    continue
                if winners and cache.seed(entry_key, winners) is not None:
                    seeded += 1
        return seeded
