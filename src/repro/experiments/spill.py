"""Persistent spill tier for the content-addressed scan cache.

The in-memory :class:`~repro.scoring.memo.ScanCache` dies with its
process, so every fleet replay, sweep worker and CLI invocation pays
the same cold scans again.  This module spills a cache's entries to
disk — through the same content-addressed layout as the
:class:`~repro.experiments.store.ResultStore` — and rehydrates a fresh
cache from them, so replays start warm across processes *and* machines
(the key is the name-independent wiring hash: any host simulating the
same server wiring shares the partition).

What is spilled
---------------
Winners, not scans.  A cache entry's ``value`` is a
:class:`~repro.policies.scan.BatchScan` — a restriction of the cache's
per-wiring match table, cheap to rebuild once the table exists — while
what replays actually consume is the per-objective-token *winner*
memo: the argmax :class:`~repro.policies.base.Allocation` each policy
selected.  A winner round-trips as its ``(gpus, mapping, scores)``
triple (the match is rebuilt from the pattern via
:func:`~repro.matching.candidates.match_from_mapping`; floats survive
JSON bit-exactly), and the objective token — which carries the model's
coefficient vector for Eq. 2 winners — round-trips as nested tuples.
A rehydrated entry therefore serves every spilled winner without
touching a scan; only a *novel* objective token triggers a lazy
restriction of the table (see :meth:`repro.scoring.memo.CacheEntry.materialize`),
which is bit-identical by construction because the entry's key pins the
exact wiring, pattern and free set.

On-disk layout
--------------
One JSON file per ``(topology_hash, pattern_id)`` **partition**, holding
every spilled free-set entry of that pair::

    <root>/scan/<hh>/<hash>.json

where ``<hash>`` is the SHA-256 of the partition key and ``<hh>`` its
two-character fan-out prefix — the same discipline as the result
store's cell entries, so ``mapa cache stats``/``clear`` account for the
tier with the same walk.  Writes are atomic and *merging*: a spill
unions its entries and winners into whatever a concurrent worker
already wrote, so parallel sweep workers never clobber each other's
free masks.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..appgraph.application import ApplicationGraph
from ..ioutils import atomic_write_text
from ..matching.candidates import match_from_mapping
from ..policies.base import Allocation
from ..scoring.memo import ScanCache
from .store import default_cache_dir

#: Subdirectory of the cache root holding the spill tier.
SCAN_SUBDIR = "scan"

#: Payload schema version (bumped on incompatible layout changes).
SPILL_VERSION = 1

_JSON_LEAVES = (str, int, float, bool, type(None))


def _encode_token(token: Any) -> Tuple[bool, Any]:
    """JSON-encode an objective token; ``(ok, payload)``.

    Tokens are nested tuples of scalars (objective names, model
    coefficient vectors).  Tuples become lists; anything else is
    reported unserializable and the winner is skipped best-effort —
    an exotic third-party token never blocks the spill.
    """
    if isinstance(token, _JSON_LEAVES) and not isinstance(token, bool):
        return True, token
    if isinstance(token, bool):
        return True, token
    if isinstance(token, tuple):
        out = []
        for item in token:
            ok, enc = _encode_token(item)
            if not ok:
                return False, None
            out.append(enc)
        return True, out
    return False, None


def _decode_token(payload: Any) -> Any:
    """Invert :func:`_encode_token`: lists back to tuples, recursively."""
    if isinstance(payload, list):
        return tuple(_decode_token(item) for item in payload)
    return payload


def _partition_key(topology_hash: str, pid: Tuple[int, Tuple[Tuple[int, int], ...]]) -> str:
    """Canonical string identity of one (wiring, pattern) partition."""
    num_gpus, edges = pid
    return json.dumps(
        ["scan-partition", SPILL_VERSION, topology_hash, num_gpus, list(map(list, edges))],
        separators=(",", ":"),
    )


def partition_hash(
    topology_hash: str, pid: Tuple[int, Tuple[Tuple[int, int], ...]]
) -> str:
    """SHA-256 content hash naming one partition file."""
    return hashlib.sha256(
        _partition_key(topology_hash, pid).encode("utf-8")
    ).hexdigest()


@dataclass
class SpillStats:
    """Durability counters of one :class:`ScanSpillStore`'s lifetime.

    ``corrupt_partitions`` counts partition files that *exist* but could
    not be parsed or failed validation (truncated JSON from a torn
    write, a foreign payload, a version mismatch) — every one of them
    used to be swallowed silently, degrading warm starts with no
    signal.  ``skipped_entries`` counts per-free-mask entries inside
    otherwise valid partitions that failed to decode.  Both are
    cumulative over the store's lifetime; ``mapa cache stats`` and the
    serve daemon surface them as gauges.
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

    Parameters
    ----------
    root:
        The cache root shared with the result store —
        ``$MAPA_SWEEP_CACHE`` or ``.mapa_sweep_cache`` when omitted.
        The tier lives under ``<root>/scan/``.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        self.scan_root = os.path.join(self.root, SCAN_SUBDIR)
        self.stats = SpillStats()

    # ------------------------------------------------------------------ #
    def _path(self, part_hash: str) -> str:
        return os.path.join(self.scan_root, part_hash[:2], f"{part_hash}.json")

    def partition_paths(self) -> List[str]:
        """Paths of every partition file currently on disk (sorted)."""
        found: List[str] = []
        if not os.path.isdir(self.scan_root):
            return found
        for dirpath, _, filenames in os.walk(self.scan_root):
            for name in filenames:
                if name.endswith(".json"):
                    found.append(os.path.join(dirpath, name))
        return sorted(found)

    # ------------------------------------------------------------------ #
    # spill
    # ------------------------------------------------------------------ #
    @staticmethod
    def _encode_winner(token: Any, value: Any) -> Optional[Dict[str, Any]]:
        """One winner as JSON, or ``None`` when it cannot round-trip."""
        if not isinstance(value, Allocation) or value.match is None:
            return None
        ok, enc_token = _encode_token(token)
        if not ok:
            return None
        scores = dict(value.scores)
        if not all(
            isinstance(k, str) and isinstance(v, (int, float))
            for k, v in scores.items()
        ):
            return None
        return {
            "token": enc_token,
            "gpus": list(value.gpus),
            "mapping": list(value.match.mapping),
            "scores": scores,
        }

    def spill(self, cache: ScanCache) -> int:
        """Write ``cache``'s winner memos to the tier; entries written.

        Entries whose winner memo is empty (or holds only
        unserializable winners) are skipped — there is nothing a future
        process could reuse without rescanning anyway.  Partitions are
        merged with what is already on disk: existing free-mask entries
        gain the new winners, fresh masks are appended.
        """
        partitions: Dict[Tuple[str, Any], Dict[int, Dict[str, Any]]] = {}
        for entry in cache.entries():
            topology_hash, pid, free_mask = entry.key
            encoded = []
            for token, value in entry.winners.items():
                winner = self._encode_winner(token, value)
                if winner is not None:
                    encoded.append(winner)
            if not encoded:
                continue
            partitions.setdefault((topology_hash, pid), {})[free_mask] = {
                "free_mask": free_mask,
                "winners": encoded,
            }
        written = 0
        for (topology_hash, pid), masks in partitions.items():
            part_hash = partition_hash(topology_hash, pid)
            path = self._path(part_hash)
            merged = self._read_partition(path)
            if merged is not None and merged.get("topology_hash") == topology_hash:
                existing = {
                    e["free_mask"]: e for e in merged.get("entries", [])
                }
                for mask, fresh in masks.items():
                    slot = existing.get(mask)
                    if slot is None:
                        existing[mask] = fresh
                    else:
                        tokens = {
                            json.dumps(w["token"]) for w in slot["winners"]
                        }
                        slot["winners"].extend(
                            w
                            for w in fresh["winners"]
                            if json.dumps(w["token"]) not in tokens
                        )
                entries = [existing[m] for m in sorted(existing)]
            else:
                entries = [masks[m] for m in sorted(masks)]
            num_gpus, edges = pid
            payload = {
                "version": SPILL_VERSION,
                "topology_hash": topology_hash,
                "pattern": {
                    "num_gpus": num_gpus,
                    "edges": [list(e) for e in edges],
                },
                "entries": entries,
            }
            atomic_write_text(path, json.dumps(payload))
            written += len(entries)
        return written

    def _read_partition(self, path: str) -> Optional[Dict[str, Any]]:
        """Parse one partition file; ``None`` on absence or corruption.

        Absence (no file yet — the normal state of a partition about to
        be written for the first time) is silent; an *existing* file
        that fails to parse or validate bumps
        :attr:`SpillStats.corrupt_partitions` so the damage is visible
        instead of silently degrading the warm start.  The spill path's
        read-merge-write then overwrites the corrupt file with fresh
        data, so counted corruption also self-heals on the next spill.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, ValueError):
            self.stats.corrupt_partitions += 1
            return None
        if not isinstance(payload, dict) or payload.get("version") != SPILL_VERSION:
            self.stats.corrupt_partitions += 1
            return None
        return payload

    def verify(self) -> Tuple[int, int]:
        """Scan the tier; returns ``(valid, corrupt)`` partition counts.

        A read-only audit for ``mapa cache stats`` and the serve
        daemon's startup gauge: every partition file on disk is parsed
        and validated without touching any cache (and without mutating
        :attr:`stats` — the cumulative counters track real load/spill
        traffic only).
        """
        valid = corrupt = 0
        for path in self.partition_paths():
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (OSError, json.JSONDecodeError, ValueError):
                corrupt += 1
                continue
            if (
                not isinstance(payload, dict)
                or payload.get("version") != SPILL_VERSION
            ):
                corrupt += 1
            else:
                valid += 1
        return valid, corrupt

    # ------------------------------------------------------------------ #
    # load
    # ------------------------------------------------------------------ #
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
        wanted: Optional[Set[str]] = (
            set(topology_hashes) if topology_hashes is not None else None
        )
        seeded = 0
        for path in self.partition_paths():
            payload = self._read_partition(path)
            if payload is None:
                continue
            topology_hash = payload.get("topology_hash")
            if not isinstance(topology_hash, str):
                self.stats.corrupt_partitions += 1
                continue
            if wanted is not None and topology_hash not in wanted:
                continue
            try:
                spec = payload["pattern"]
                num_gpus = int(spec["num_gpus"])
                edges = tuple(
                    (int(u), int(v)) for u, v in spec["edges"]
                )
                pattern = ApplicationGraph("spill", num_gpus, edges)
            except (KeyError, TypeError, ValueError):
                self.stats.corrupt_partitions += 1
                continue
            pid = (pattern.num_gpus, pattern.edges)
            for slot in payload.get("entries", []):
                try:
                    free_mask = int(slot["free_mask"])
                    winners = {
                        _decode_token(w["token"]): Allocation(
                            gpus=tuple(int(g) for g in w["gpus"]),
                            match=match_from_mapping(
                                pattern,
                                tuple(int(g) for g in w["mapping"]),
                            ),
                            scores={
                                str(k): v for k, v in w["scores"].items()
                            },
                        )
                        for w in slot["winners"]
                    }
                except (KeyError, TypeError, ValueError):
                    self.stats.skipped_entries += 1
                    continue
                if not winners:
                    continue
                key = (topology_hash, pid, free_mask)
                if cache.seed(key, winners) is not None:
                    seeded += 1
        return seeded
