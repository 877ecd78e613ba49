"""Content-addressed cache of sweep cell results.

Each simulated cell persists its :class:`~repro.sim.records.SimulationLog`
(plus summary metrics) under the cell's config hash, so an identical
re-run — same trace, topology, policy, discipline, model — is served
from disk instead of re-simulating.

Results are written as ``.mlog`` payloads (the columnar codec of
:mod:`repro.sim.records` — versioned header, dtype manifest, per-column
CRC), decoded lazily so summary-only readers never materialise per-job
records.  JSON is written only for a log the codec rejects.  JSON
entries from older stores stay readable: a JSON hit is migrated
read-through (an ``.mlog`` twin is written next to it, replacing a
damaged one).  Both encodings round-trip floats bit-exactly, so every
table derived from a cached log is byte-identical to one derived from a
fresh simulation.

Writes are atomic (temp file + ``os.replace``) because sweep workers
run in parallel and several processes may target the same store.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..ioutils import atomic_write_bytes, atomic_write_text
from ..sim.records import (
    MlogEncodeError,
    MlogError,
    SimulationLog,
    decode_mlog,
    encode_mlog,
)
from .spec import CellConfig

#: File suffix of the binary-tier payloads.
MLOG_SUFFIX = ".mlog"

#: Environment override for the default cache location.
CACHE_DIR_ENV = "MAPA_SWEEP_CACHE"

#: Default on-disk location (relative to the working directory).
DEFAULT_CACHE_DIR = ".mapa_sweep_cache"

#: Prefix :func:`repro.ioutils.atomic_write_text` gives its temp files.
TMP_PREFIX = ".tmp-"

#: Minimum age (seconds) before ``clear(orphans_only=True)`` considers a
#: ``.tmp-*`` file abandoned.  A temp file younger than this may belong
#: to a live concurrent writer between ``mkstemp`` and ``os.replace``,
#: so it is left alone; one older was leaked by a killed writer (the
#: write-then-rename window is milliseconds, not an hour).
DEFAULT_TMP_AGE = 3600.0


def default_cache_dir() -> str:
    """The cache root: ``$MAPA_SWEEP_CACHE`` or ``.mapa_sweep_cache``."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


@dataclass(frozen=True)
class CellResult:
    """One simulated cell: its config summary plus the full log."""

    config_hash: str
    label: str
    log: SimulationLog
    cached: bool = False

    @property
    def makespan(self) -> float:
        """Finish time of the cell's last job (seconds)."""
        return self.log.makespan

    @property
    def throughput(self) -> float:
        """Completed jobs per simulated second."""
        return self.log.throughput

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload persisted by :meth:`ResultStore.save`."""
        return {
            "config_hash": self.config_hash,
            "label": self.label,
            "log": self.log.to_dict(),
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], cached: bool = False
    ) -> "CellResult":
        """Rebuild a result from its persisted payload."""
        return cls(
            config_hash=payload["config_hash"],
            label=payload["label"],
            log=SimulationLog.from_dict(payload["log"]),
            cached=cached,
        )


@dataclass(frozen=True)
class StoreStats:
    """Disk-usage summary of one :class:`ResultStore` (``mapa cache stats``).

    Three payload tiers share the cache root: sweep-cell results as
    binary ``.mlog`` payloads and/or JSON entries directly under it
    (one cell may own both — a migrated entry keeps its JSON twin for
    back-compat), and spilled scan-cache partitions (*scan entries*)
    under the ``scan/`` subtree (see :mod:`repro.experiments.spill`).
    ``entries`` counts **distinct cached cells** (the union of both
    sweep tiers); ``json_entries``/``mlog_entries`` break the files
    down per tier.  ``orphans`` counts files in no tier — leftover
    temp files from interrupted pre-atomic-write runs, misplaced
    hashes (entry not in its own two-character fan-out directory), or
    stray files of neither suffix, in either subtree.
    """

    entries: int
    total_bytes: int
    orphans: int
    orphan_bytes: int
    scan_entries: int = 0
    scan_bytes: int = 0
    json_entries: int = 0
    json_bytes: int = 0
    mlog_entries: int = 0
    mlog_bytes: int = 0

    @property
    def total_mib(self) -> float:
        """Cell-entry payload size in MiB (both sweep tiers)."""
        return self.total_bytes / (1024 * 1024)

    @property
    def scan_mib(self) -> float:
        """Spilled scan-partition payload size in MiB."""
        return self.scan_bytes / (1024 * 1024)

    @property
    def json_mib(self) -> float:
        """JSON-tier payload size in MiB."""
        return self.json_bytes / (1024 * 1024)

    @property
    def mlog_mib(self) -> float:
        """Binary-tier (``.mlog``) payload size in MiB."""
        return self.mlog_bytes / (1024 * 1024)

    def tier_rows(self) -> List[Tuple[str, int, int]]:
        """``(tier, files, bytes)`` rows shared by the CLI and daemon."""
        return [
            ("json", self.json_entries, self.json_bytes),
            ("mlog", self.mlog_entries, self.mlog_bytes),
            ("scan", self.scan_entries, self.scan_bytes),
        ]


class ResultStore:
    """Filesystem-backed map from config hash to :class:`CellResult`.

    Saves go to the ``.mlog`` tier, and loads decode it lazily; a log
    the codec cannot represent is saved as JSON.  Loading understands
    both tiers.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        self.hits = 0
        self.misses = 0
        #: Loads served by the binary / JSON tier, and JSON entries
        #: that gained an ``.mlog`` twin via read-through migration.
        self.mlog_hits = 0
        self.json_hits = 0
        self.migrations = 0

    # ------------------------------------------------------------------ #
    def _path(self, config_hash: str) -> str:
        """JSON entry path: two-character fan-out dir + hash file name."""
        return os.path.join(self.root, config_hash[:2], f"{config_hash}.json")

    def _mlog_path(self, config_hash: str) -> str:
        """Binary-tier path of a cell (same fan-out, ``.mlog`` suffix)."""
        return os.path.join(
            self.root, config_hash[:2], f"{config_hash}{MLOG_SUFFIX}"
        )

    def __contains__(self, cell: CellConfig) -> bool:
        """Whether a cell's result is already on disk (either tier)."""
        config_hash = cell.config_hash()
        return os.path.exists(self._mlog_path(config_hash)) or os.path.exists(
            self._path(config_hash)
        )

    def _load_mlog(self, config_hash: str) -> Optional[CellResult]:
        """Decode the binary-tier entry, or ``None`` when absent/invalid."""
        try:
            with open(self._mlog_path(config_hash), "rb") as fh:
                payload = fh.read()
        except OSError:
            return None
        try:
            meta, log = decode_mlog(payload, lazy=True)
        except MlogError:
            return None
        stored_hash = meta.get("config_hash")
        if stored_hash is not None and stored_hash != config_hash:
            return None  # misfiled payload — treat as a miss
        return CellResult(
            config_hash=config_hash,
            label=str(meta.get("label", "")),
            log=log,
            cached=True,
        )

    def _load_json(self, config_hash: str) -> Optional[CellResult]:
        """Decode the JSON reference entry, or ``None`` when absent/invalid."""
        try:
            with open(self._path(config_hash), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError, ValueError):
            return None
        try:
            return CellResult.from_dict(payload, cached=True)
        except (KeyError, TypeError):
            return None

    def load(self, cell: CellConfig) -> Optional[CellResult]:
        """Return the cached result for ``cell``, or ``None`` on a miss.

        The binary tier is tried first (and decoded lazily — numeric
        summaries never materialise per-job records); the JSON tier is
        the fallback, and a JSON hit triggers read-through migration:
        the decoded log is re-encoded and its ``.mlog`` twin written —
        or rewritten, when the twin was damaged — so the next load is
        binary.  Unreadable or truncated entries (e.g. from an
        interrupted run on a pre-atomic-write store) count as misses.
        """
        config_hash = cell.config_hash()
        result = self._load_mlog(config_hash)
        if result is not None:
            self.hits += 1
            self.mlog_hits += 1
            return result
        result = self._load_json(config_hash)
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        self.json_hits += 1
        try:
            payload = encode_mlog(
                result.log,
                meta={"config_hash": config_hash, "label": result.label},
            )
            self.save_payload(config_hash, payload)
        except (MlogEncodeError, OSError):
            pass  # migration is best-effort; JSON stays authoritative
        else:
            self.migrations += 1
        return result

    def save(self, result: CellResult) -> str:
        """Atomically persist ``result``; returns the entry's path.

        The ``.mlog`` payload is written; a log the codec cannot
        represent is written as a JSON entry instead.
        """
        try:
            payload = encode_mlog(
                result.log,
                meta={"config_hash": result.config_hash, "label": result.label},
            )
        except MlogEncodeError:
            path = self._path(result.config_hash)
            return atomic_write_text(path, json.dumps(result.to_dict()))
        return self.save_payload(result.config_hash, payload)

    def save_payload(self, config_hash: str, payload: bytes) -> str:
        """Atomically persist an already-encoded ``.mlog`` payload.

        The sweep runner stores each parallel worker's returned bytes
        through this, without re-encoding; it is also part of the
        import surface of ``benchmarks/perf/wl_sweep.py``.
        """
        return atomic_write_bytes(self._mlog_path(config_hash), payload)

    # ------------------------------------------------------------------ #
    # maintenance (the ``mapa cache`` subcommand)
    # ------------------------------------------------------------------ #
    #: Subtree of the root holding the spilled scan-cache tier
    #: (mirrors :data:`repro.experiments.spill.SCAN_SUBDIR`; duplicated
    #: here so the store never imports the spill module).
    SCAN_SUBDIR = "scan"

    def _scan(self) -> Iterator[Tuple["os.DirEntry[str]", str]]:
        """Yield ``(direntry, kind)`` for every file under the root.

        ``kind`` is ``"entry"`` (a JSON sweep-cell result in its own
        two-character fan-out directory, named ``<config_hash>.json``
        with the directory as the hash prefix), ``"mlog"`` (a
        binary-tier payload obeying the same discipline), ``"scan"``
        (a spilled scan-cache partition under the ``scan/`` subtree),
        or ``"orphan"`` — stray temp files, misplaced hashes, debris
        of neither suffix, in either subtree.

        Built on :func:`os.scandir` so callers sizing the store get the
        dirent-cached ``stat`` without ever *opening* a payload —
        ``disk_stats`` must scale with entry count, not cache bytes.
        """
        if not os.path.isdir(self.root):
            return
        stack: List[Tuple[str, Tuple[str, ...]]] = [(self.root, ())]
        while stack:
            dirpath, parts = stack.pop()
            try:
                it = os.scandir(dirpath)
            except OSError:  # pragma: no cover - racing deletion
                continue
            with it:
                for dirent in it:
                    if dirent.is_dir(follow_symlinks=False):
                        stack.append((dirent.path, parts + (dirent.name,)))
                        continue
                    scan_tier = bool(parts) and parts[0] == self.SCAN_SUBDIR
                    fanout = (
                        parts[1] if scan_tier and len(parts) == 2 else (
                            parts[0]
                            if not scan_tier and len(parts) == 1
                            else None
                        )
                    )
                    stem, ext = os.path.splitext(dirent.name)
                    valid = (
                        ext in (".json", MLOG_SUFFIX)
                        and fanout is not None
                        and len(fanout) == 2
                        and stem[:2] == fanout
                        and len(stem) > 2
                    )
                    if not valid:
                        yield dirent, "orphan"
                    elif scan_tier:
                        # the scan tier is JSON-only; an .mlog there
                        # is debris
                        yield dirent, (
                            "scan" if ext == ".json" else "orphan"
                        )
                    else:
                        yield dirent, (
                            "entry" if ext == ".json" else "mlog"
                        )

    def _walk(self) -> Iterator[Tuple[str, str]]:
        """Yield ``(path, kind)`` for every file under the root."""
        for dirent, kind in self._scan():
            yield dirent.path, kind

    def entry_paths(self) -> List[str]:
        """Paths of every valid JSON cell entry on disk (sorted)."""
        return sorted(path for path, kind in self._walk() if kind == "entry")

    def mlog_paths(self) -> List[str]:
        """Paths of every binary-tier payload on disk (sorted)."""
        return sorted(path for path, kind in self._walk() if kind == "mlog")

    def scan_entry_paths(self) -> List[str]:
        """Paths of every spilled scan partition on disk (sorted)."""
        return sorted(path for path, kind in self._walk() if kind == "scan")

    def disk_stats(self) -> StoreStats:
        """Per-tier counts and byte totals for ``mapa cache stats``.

        Sizes come exclusively from the directory scan's ``stat``
        results — no payload is ever opened or parsed, so the call
        costs one ``stat`` per file regardless of how many gigabytes
        the cache holds.  ``entries`` counts distinct cells: a
        migrated cell (JSON + ``.mlog`` side by side) is one entry.
        """
        json_entries = json_bytes = orphans = orphan_bytes = 0
        mlog_entries = mlog_bytes = scan_entries = scan_bytes = 0
        cells = set()
        for dirent, kind in self._scan():
            try:
                size = dirent.stat(follow_symlinks=False).st_size
            except OSError:  # pragma: no cover - racing deletion
                continue
            if kind == "entry":
                json_entries += 1
                json_bytes += size
                cells.add(os.path.splitext(dirent.name)[0])
            elif kind == "mlog":
                mlog_entries += 1
                mlog_bytes += size
                cells.add(os.path.splitext(dirent.name)[0])
            elif kind == "scan":
                scan_entries += 1
                scan_bytes += size
            else:
                orphans += 1
                orphan_bytes += size
        return StoreStats(
            entries=len(cells),
            total_bytes=json_bytes + mlog_bytes,
            orphans=orphans,
            orphan_bytes=orphan_bytes,
            scan_entries=scan_entries,
            scan_bytes=scan_bytes,
            json_entries=json_entries,
            json_bytes=json_bytes,
            mlog_entries=mlog_entries,
            mlog_bytes=mlog_bytes,
        )

    def clear(
        self,
        orphans_only: bool = False,
        tmp_age: float = DEFAULT_TMP_AGE,
    ) -> Tuple[int, int]:
        """Delete cached files; returns ``(files_removed, bytes_removed)``.

        ``orphans_only=True`` removes just the invalid debris — in both
        tiers, so interrupted spills are cleaned up too, while valid
        spilled scan partitions are recognised and kept (the cheap,
        always-safe cleanup).  Otherwise every entry of both tiers goes.
        Empty fan-out directories are pruned either way.  Results can
        always be regenerated — the store is a cache, not a record.

        ``tmp_age`` is the age guard for leaked ``.tmp-*`` files during
        an orphans-only clear: a killed writer leaks its ``mkstemp``
        temp file forever (nothing else ever ages them out), but a
        *live* concurrent writer also owns a ``.tmp-*`` file for the
        instant between create and rename — so only temp files whose
        mtime is at least ``tmp_age`` seconds old are deleted.  Pass
        ``0`` to sweep every temp file (safe only when no writer can be
        running).  Full clears ignore the guard: they already assume
        exclusive ownership of the store.
        """
        import time

        removed = freed = 0
        now = time.time()
        for path, kind in self._walk():
            if orphans_only and kind != "orphan":
                continue
            if orphans_only and os.path.basename(path).startswith(TMP_PREFIX):
                try:
                    age = now - os.path.getmtime(path)
                except OSError:  # pragma: no cover - racing deletion
                    continue
                if age < tmp_age:
                    continue  # possibly a live writer's window
            try:
                size = os.path.getsize(path)
                os.remove(path)
            except OSError:  # pragma: no cover - racing deletion
                continue
            removed += 1
            freed += size
        scan_root = os.path.join(self.root, self.SCAN_SUBDIR)
        for base in (scan_root, self.root):
            if not os.path.isdir(base):
                continue
            for name in sorted(os.listdir(base)):
                sub = os.path.join(base, name)
                if os.path.isdir(sub) and not os.listdir(sub):
                    os.rmdir(sub)
        return removed, freed
