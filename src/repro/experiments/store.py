"""The content-addressed on-disk cache: one store, two namespaces.

:class:`ContentStore` keeps self-checking frames
(:func:`repro.sim.records.encode_frame`) under one path rule::

    <root>/<ns>/<hh>/<key>.mlog

where ``<hh>`` is the key's two-character fan-out prefix.  Two
namespaces share the root:

* ``cells`` — one ``mapa-mlog`` frame per sweep cell, keyed by its
  config hash (written by :class:`ResultStore`);
* ``scan`` — one ``mapa-scan`` frame per ``(wiring, pattern)`` scan
  partition, keyed by :func:`partition_hash` (written by
  :class:`~repro.experiments.spill.ScanSpillStore`).

Every write is atomic (temp file + ``os.replace``), because sweep
workers run in parallel and several processes may target one root.
:meth:`ContentStore.get` returns a frame, opened by its namespace,
only when its preamble, format, every blob CRC and its header's own
key all check out and the namespace can open it; any failure is
counted in :attr:`ContentStore.corrupt` and read as a miss.  The CRCs
cover the blobs, not the JSON header: a flip inside a header name the
key does not cover (a cell's label, say) still opens, so the store
guards against blob damage and misfiled keys, not against every
header edit.  The store is a cache, not a record: anything it refuses
is simply recomputed.  Files that fit no namespace — leftover temp files,
misplaced keys, the ``.json`` cells and partitions of older layouts —
are *orphans*, reported by :meth:`ContentStore.stats` and removed by
``clear(orphans=True)``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..ioutils import atomic_write_bytes
from ..sim.records import (
    MlogEncodeError,
    MlogError,
    SimulationLog,
    decode_frame,
    encode_mlog,
    log_from_frame,
)
from .spec import CellConfig

#: File suffix of every frame in the store.
MLOG_SUFFIX = ".mlog"

#: Environment override for the default cache location.
CACHE_DIR_ENV = "MAPA_SWEEP_CACHE"

#: Default on-disk location (relative to the working directory).
DEFAULT_CACHE_DIR = ".mapa_sweep_cache"

#: Prefix :func:`repro.ioutils.atomic_write_bytes` gives its temp files.
TMP_PREFIX = ".tmp-"

#: Minimum age (seconds) before ``clear(orphans=True)`` considers a
#: ``.tmp-*`` file abandoned.  A temp file younger than this may belong
#: to a live concurrent writer between ``mkstemp`` and ``os.replace``,
#: so it is left alone; one older was leaked by a killed writer (the
#: write-then-rename window is milliseconds, not an hour).
DEFAULT_TMP_AGE = 3600.0

CELLS, SCAN = "cells", "scan"


def default_cache_dir() -> str:
    """The cache root: ``$MAPA_SWEEP_CACHE`` or ``.mapa_sweep_cache``."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


def partition_hash(topology_hash: str, num_gpus: int, edges: Any) -> str:
    """SHA-256 key of one ``(wiring, pattern)`` scan partition."""
    ident = ["scan-partition", 1, topology_hash, num_gpus, [list(e) for e in edges]]
    return hashlib.sha256(
        json.dumps(ident, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


Blobs = List[Tuple[str, str, memoryview]]


def _open_cell(header: Dict[str, Any], blobs: Blobs) -> Tuple[str, Any]:
    """A cell frame's ``(config hash, (meta, lazy log))``."""
    meta, log = log_from_frame(header, blobs, lazy=True)
    return meta["config_hash"], (meta, log)


def _open_scan(header: Dict[str, Any], blobs: Blobs) -> Tuple[str, Any]:
    """A scan partition's ``(partition hash, (header, entries))``."""
    pattern = header["pattern"]
    key = partition_hash(
        header["topology_hash"], pattern["num_gpus"], pattern["edges"]
    )
    ((_, _, entries),) = blobs
    return key, (header, json.loads(bytes(entries)))


#: namespace -> (frame format, opener returning ``(key, value)``); an
#: opener raises on any content its namespace cannot use.
NAMESPACES = {
    CELLS: ("mapa-mlog", _open_cell),
    SCAN: ("mapa-scan", _open_scan),
}


@dataclass(frozen=True)
class StoreStats:
    """Disk usage of one cache root (``mapa cache stats``).

    ``entries``/``total_bytes`` cover the ``cells`` namespace (one file
    per cached sweep cell), ``scan_entries``/``scan_bytes`` the ``scan``
    namespace, and ``orphans`` every file in neither.
    """

    entries: int
    total_bytes: int
    orphans: int
    orphan_bytes: int
    scan_entries: int = 0
    scan_bytes: int = 0

    @property
    def total_mib(self) -> float:
        """Cell payload size in MiB."""
        return self.total_bytes / (1024 * 1024)

    @property
    def scan_mib(self) -> float:
        """Scan-partition payload size in MiB."""
        return self.scan_bytes / (1024 * 1024)

    def tier_rows(self) -> List[Tuple[str, int, int]]:
        """``(namespace, files, bytes)`` rows shared by the CLI and daemon."""
        return [
            (CELLS, self.entries, self.total_bytes),
            (SCAN, self.scan_entries, self.scan_bytes),
        ]


class ContentStore:
    """Frames under ``<root>/<ns>/<hh>/<key>.mlog``, checked on read."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        #: Frames :meth:`get` refused, per namespace.
        self.corrupt = dict.fromkeys(NAMESPACES, 0)

    def path(self, ns: str, key: str) -> str:
        """Where the frame of ``key`` lives in namespace ``ns``."""
        return os.path.join(self.root, ns, key[:2], key + MLOG_SUFFIX)

    def put(self, ns: str, key: str, frame: bytes) -> str:
        """Atomically write ``frame`` under ``key``; returns its path."""
        return atomic_write_bytes(self.path(ns, key), frame)

    def _read(self, ns: str, key: str) -> Tuple[bool, Any]:
        """``(exists, value)``; ``value`` is ``None`` unless it opens."""
        try:
            with open(self.path(ns, key), "rb") as fh:
                frame = fh.read()
        except FileNotFoundError:
            return False, None
        except OSError:
            return True, None
        fmt, open_frame = NAMESPACES[ns]
        try:
            found, value = open_frame(*decode_frame(frame, fmt))
            if found == key:
                return True, value
        except (MlogError, LookupError, TypeError, ValueError):
            pass
        return True, None

    def get(self, ns: str, key: str) -> Any:
        """The opened frame under ``key``, or ``None`` (a refusal is counted).

        A cell opens as ``(meta, lazy log)``, a scan partition as
        ``(header, entries)``.
        """
        exists, value = self._read(ns, key)
        if exists and value is None:
            self.corrupt[ns] += 1
        return value

    def _walk(
        self, ns: Optional[str] = None
    ) -> Iterator[Tuple[Optional[str], "os.DirEntry[str]"]]:
        """``(namespace or None for an orphan, dirent)`` for every file.

        Built on :func:`os.scandir`, so sizing the store costs one
        dirent-cached ``stat`` per file and never opens a payload.
        ``ns`` walks only that namespace's directory.
        """
        stack: List[Tuple[str, Tuple[str, ...]]] = [
            (self.root, ()) if ns is None else (os.path.join(self.root, ns), (ns,))
        ]
        while stack:
            dirpath, parts = stack.pop()
            try:
                it = os.scandir(dirpath)
            except OSError:  # missing root, racing deletion
                continue
            with it:
                for dirent in it:
                    if dirent.is_dir(follow_symlinks=False):
                        stack.append((dirent.path, parts + (dirent.name,)))
                        continue
                    key, ext = os.path.splitext(dirent.name)
                    sound = (
                        len(parts) == 2
                        and parts[0] in NAMESPACES
                        and ext == MLOG_SUFFIX
                        and len(key) > 2
                        and key[:2] == parts[1]
                    )
                    yield (parts[0] if sound else None), dirent

    def scan(self, ns: str) -> List[str]:
        """Keys of every file in namespace ``ns`` (sorted)."""
        return sorted(
            os.path.splitext(dirent.name)[0]
            for kind, dirent in self._walk(ns)
            if kind == ns
        )

    def verify(self, ns: str) -> Tuple[int, int]:
        """``(valid, corrupt)`` frame counts of ``ns``; counts nothing."""
        sound = [self._read(ns, key)[1] is not None for key in self.scan(ns)]
        return sum(sound), len(sound) - sum(sound)

    def stats(self) -> StoreStats:
        """Per-namespace file counts and bytes, from ``stat`` alone."""
        files: Dict[Optional[str], List[int]] = {}
        for kind, dirent in self._walk():
            try:
                size = dirent.stat(follow_symlinks=False).st_size
            except OSError:  # pragma: no cover - racing deletion
                continue
            slot = files.setdefault(kind, [0, 0])
            slot[0] += 1
            slot[1] += size
        (cells, cell_bytes), (scans, scan_bytes), (orphans, orphan_bytes) = (
            files.get(kind, (0, 0)) for kind in (CELLS, SCAN, None)
        )
        return StoreStats(
            cells, cell_bytes, orphans, orphan_bytes, scans, scan_bytes
        )

    def clear(
        self, orphans: bool = False, tmp_age: float = DEFAULT_TMP_AGE
    ) -> Tuple[int, int]:
        """Delete files; returns ``(files_removed, bytes_removed)``.

        ``orphans=True`` removes only files in no namespace, and a
        ``.tmp-*`` file only once its mtime is ``tmp_age`` seconds old:
        a killed writer leaks its temp file forever, but a *live* one
        owns it for the instant between create and rename.  ``0``
        sweeps every temp file.  A full clear removes everything and
        ignores the guard.  Directories left empty are pruned.
        """
        removed = freed = 0
        now = time.time()
        root = os.path.normpath(self.root)
        for kind, dirent in list(self._walk()):
            if orphans and kind is not None:
                continue
            try:
                st = dirent.stat(follow_symlinks=False)
                if (
                    orphans
                    and dirent.name.startswith(TMP_PREFIX)
                    and now - st.st_mtime < tmp_age
                ):
                    continue  # possibly a live writer's window
                os.remove(dirent.path)
            except OSError:  # pragma: no cover - racing deletion
                continue
            removed += 1
            freed += st.st_size
            parent = os.path.dirname(dirent.path)
            while os.path.normpath(parent) != root:
                try:
                    os.rmdir(parent)
                except OSError:  # not empty
                    break
                parent = os.path.dirname(parent)
        return removed, freed


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


class ResultStore:
    """Map from a cell's config hash to its :class:`CellResult`.

    The ``cells`` client of a :class:`ContentStore`: a cell is saved as
    its ``.mlog`` frame and loaded lazily, so summary-only readers never
    materialise per-job records.  A log the codec rejects (non-integer
    job ids) is not cached; its cell re-simulates.  ``json_hits`` and
    ``migrations`` are always 0 — kept only until ROADMAP item 17,
    because the perf harness still reads them.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.content = ContentStore(root)
        self.root = self.content.root
        self.hits = self.misses = self.mlog_hits = 0
        self.json_hits = self.migrations = 0

    def __contains__(self, cell: CellConfig) -> bool:
        """Whether a cell's frame is on disk (sound or not)."""
        return os.path.exists(self.content.path(CELLS, cell.config_hash()))

    def load(self, cell: CellConfig) -> Optional[CellResult]:
        """The cached result for ``cell``, or ``None`` on a miss.

        Absent, torn and corrupt frames — and frames whose ``.mlog``
        header does not decode — are all misses.
        """
        config_hash = cell.config_hash()
        opened = self.content.get(CELLS, config_hash)
        if opened is None:
            self.misses += 1
            return None
        meta, log = opened
        self.hits += 1
        self.mlog_hits += 1
        return CellResult(config_hash, str(meta.get("label", "")), log, True)

    def save(self, result: CellResult) -> Optional[str]:
        """Persist ``result``; its path, or ``None`` when not encodable."""
        try:
            payload = encode_mlog(
                result.log,
                meta={"config_hash": result.config_hash, "label": result.label},
            )
        except MlogEncodeError:
            return None
        return self.save_payload(result.config_hash, payload)

    def save_payload(self, config_hash: str, payload: bytes) -> str:
        """Persist an already-encoded ``.mlog`` payload; returns its path.

        The sweep runner stores each parallel worker's returned bytes
        through this, without re-encoding.
        """
        return self.content.put(CELLS, config_hash, payload)

    def disk_stats(self) -> StoreStats:
        """Files and bytes per namespace, without opening any payload."""
        return self.content.stats()
