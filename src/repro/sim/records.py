"""Per-job log records (the simulator's "Log File" in paper Fig. 14).

:class:`JobRecord` is unchanged — a frozen dataclass, the unit every
analysis helper consumes.  :class:`SimulationLog` however stores the
log **columnar**: one typed buffer per record field (numpy arrays for
the numeric columns, plain lists for strings and allocations) instead
of a list of dataclass instances.  The hot append path
(:meth:`SimulationLog.append_fields`, used by the simulation core)
never builds a :class:`JobRecord` at all; ``records`` / ``__iter__``
materialise them lazily and cache the result, so analysis code sees
the exact objects it always did while replay loops pay only a few
array writes per completion.

Summary accessors are derived from the buffers: ``makespan`` is a
running maximum maintained on append (O(1) — the analysis tables call
it per row), ``throughput`` follows from it, ``execution_times`` and
``to_csv`` are vectorised, and the subset views (``by_workload`` /
``sensitive`` / ``multi_gpu``) filter on the typed columns.
``to_dict`` emits payloads byte-identical to the historical object
implementation (``ndarray.tolist`` round-trips float64 bit-exactly), so
log digests and the golden harness are untouched.

The module also owns the on-disk container.  :func:`encode_frame` /
:func:`decode_frame` write and check one self-describing frame — a
preamble, a JSON header naming its ``format``, aligned blobs each with
its CRC-32 — shared by everything the content store keeps
(:mod:`repro.experiments.store`).  ``.mlog`` (:func:`encode_mlog` /
:func:`decode_mlog`) is the ``mapa-mlog`` frame of one log: one blob
per column, decoded zero-copy and lazily.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class JobRecord:
    """Everything the simulator logged about one completed job."""

    job_id: int
    workload: str
    num_gpus: int
    pattern: str
    bandwidth_sensitive: bool
    submit_time: float
    start_time: float
    finish_time: float
    allocation: Tuple[int, ...]
    agg_bw: float
    predicted_effective_bw: float
    measured_effective_bw: float

    @property
    def execution_time(self) -> float:
        """Wall time the job ran (finish − start)."""
        return self.finish_time - self.start_time

    @property
    def wait_time(self) -> float:
        """Time spent queued (start − submit)."""
        return self.start_time - self.submit_time

    @property
    def turnaround_time(self) -> float:
        """Submit-to-finish latency."""
        return self.finish_time - self.submit_time


#: Initial capacity of the numeric column buffers.
_MIN_CAPACITY = 64


# ---------------------------------------------------------------------- #
# binary columnar codec (the ``.mlog`` format)
# ---------------------------------------------------------------------- #
#: Magic bytes opening every frame.
MLOG_MAGIC = b"MLOG"

#: Frame version; bumped on incompatible layout changes, and checked on
#: decode so an old reader fails with a clean error instead of
#: misinterpreting bytes.
MLOG_VERSION = 1

#: Byte alignment of the blobs inside a frame, so zero-copy
#: ``frombuffer`` views land on aligned addresses.
_MLOG_ALIGN = 64

#: The fixed column manifest: ``(name, little-endian dtype)`` in payload
#: order.  ``alloc_values``/``alloc_offsets`` are the ragged allocation
#: column in flattened CSR form (``offsets`` has ``n + 1`` entries).
MLOG_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("job_id", "<i8"),
    ("workload_code", "<i4"),
    ("pattern_code", "<i4"),
    ("num_gpus", "<i8"),
    ("bandwidth_sensitive", "|b1"),
    ("submit_time", "<f8"),
    ("start_time", "<f8"),
    ("finish_time", "<f8"),
    ("agg_bw", "<f8"),
    ("predicted_effective_bw", "<f8"),
    ("measured_effective_bw", "<f8"),
    ("alloc_values", "<i8"),
    ("alloc_offsets", "<i8"),
)


class MlogError(ValueError):
    """Base class of every frame and ``.mlog`` codec failure."""


class MlogFormatError(MlogError):
    """A frame that cannot be decoded: wrong magic, unknown version or
    format, truncated or bit-flipped bytes, CRC mismatch.  Decoding
    never returns partial data — any inconsistency raises this."""


class MlogEncodeError(MlogError):
    """A log the binary codec cannot represent losslessly (e.g.
    non-integer job ids)."""


def _require_int(value: Any, what: str) -> int:
    """``value`` as a plain int, or :class:`MlogEncodeError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise MlogEncodeError(f"{what} {value!r} is not an integer")
    return int(value)


def _dictionary_encode(
    names: Sequence[str],
) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """``names`` as int32 codes into a first-seen-order name table."""
    codes = np.empty(len(names), dtype=np.int32)
    table: Dict[str, int] = {}
    for i, name in enumerate(names):
        code = table.get(name)
        if code is None:
            if not isinstance(name, str):
                raise MlogEncodeError(f"column value {name!r} is not a string")
            code = table[name] = len(table)
        codes[i] = code
    return codes, tuple(table)


@dataclass(frozen=True)
class LogColumns:
    """A :class:`SimulationLog` snapshotted as contiguous typed arrays.

    The numeric fields are copies of the log's column buffers (trimmed
    to length); the string columns are dictionary-encoded as int32
    codes into the ``workload_names`` / ``pattern_names`` tables
    (first-seen order, so encoding is deterministic); allocations are
    flattened CSR-style into ``alloc_values`` + ``alloc_offsets``.
    ``arrays`` holds exactly the columns of :data:`MLOG_COLUMNS`.
    """

    policy: str
    topology: str
    num_records: int
    workload_names: Tuple[str, ...]
    pattern_names: Tuple[str, ...]
    arrays: Dict[str, np.ndarray]

    def nbytes(self) -> int:
        """Total payload bytes across all column arrays."""
        return sum(int(a.nbytes) for a in self.arrays.values())


class SimulationLog:
    """Ordered, columnar collection of job records plus summary accessors.

    ``cache_stats`` is an optional run-diagnostics payload (scan-cache
    lookup/hit/miss/eviction counters plus the measured-bandwidth memo
    counters) the simulation core attaches after a run.  It is
    deliberately **excluded** from :meth:`to_dict`: cache counters are
    performance telemetry, not simulation output, and keeping them out
    preserves byte-identity between cached and uncached replays of the
    same trace (the property every golden table and the sweep result
    cache rely on).
    """

    def __init__(self, policy_name: str, topology_name: str) -> None:
        self.policy_name = policy_name
        self.topology_name = topology_name
        self.cache_stats: Optional[Dict[str, float]] = None
        self._n = 0
        self._job_id: List[int] = []
        self._workload: List[str] = []
        self._pattern: List[str] = []
        self._allocation: List[Tuple[int, ...]] = []
        self._num_gpus = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._sensitive = np.empty(_MIN_CAPACITY, dtype=np.bool_)
        self._submit = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._start = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._finish = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._agg_bw = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._predicted = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._measured = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._max_finish = 0.0  # running max: O(1) makespan
        self._materialised: Optional[List[JobRecord]] = None
        # Lazy-decode state (set by ``from_columns(..., lazy=True)``):
        # the dictionary-encoded string/allocation columns, thawed into
        # the plain lists above only when something actually needs
        # per-record objects.  ``_buffer_owner`` pins whatever owns the
        # memory the numeric views alias (an ``.mlog`` payload) for as
        # long as this log lives.
        self._lazy: Optional[Dict[str, Any]] = None
        self._buffer_owner: Any = None

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #
    def _grow(self) -> None:
        """Double the numeric buffers (geometric growth, amortised O(1)).

        Also the copy-on-append path for logs rebuilt zero-copy from a
        decoded payload: their views are exactly-sized (capacity == n)
        and read-only, so the first append lands here and replaces them
        with owned, writable buffers.
        """
        cap = max(2 * self._num_gpus.shape[0], _MIN_CAPACITY)
        for name in (
            "_num_gpus",
            "_sensitive",
            "_submit",
            "_start",
            "_finish",
            "_agg_bw",
            "_predicted",
            "_measured",
        ):
            old = getattr(self, name)
            grown = np.empty(cap, dtype=old.dtype)
            grown[: old.shape[0]] = old
            setattr(self, name, grown)

    def append_fields(
        self,
        job_id: int,
        workload: str,
        num_gpus: int,
        pattern: str,
        bandwidth_sensitive: bool,
        submit_time: float,
        start_time: float,
        finish_time: float,
        allocation: Tuple[int, ...],
        agg_bw: float,
        predicted_effective_bw: float,
        measured_effective_bw: float,
    ) -> None:
        """Append one completed job straight into the column buffers.

        The simulation core's hot path: no :class:`JobRecord` is built
        (``records`` materialises lazily if anyone asks).
        """
        if self._lazy is not None:
            self._thaw()
        i = self._n
        if i == self._num_gpus.shape[0]:
            self._grow()
        self._n = i + 1
        self._job_id.append(job_id)
        self._workload.append(workload)
        self._pattern.append(pattern)
        self._allocation.append(allocation)
        self._num_gpus[i] = num_gpus
        self._sensitive[i] = bandwidth_sensitive
        self._submit[i] = submit_time
        self._start[i] = start_time
        self._finish[i] = finish_time
        self._agg_bw[i] = agg_bw
        self._predicted[i] = predicted_effective_bw
        self._measured[i] = measured_effective_bw
        if finish_time > self._max_finish:
            self._max_finish = finish_time
        self._materialised = None

    def append(self, record: JobRecord) -> None:
        """Add one completed job (the simulator appends in completion order)."""
        self.append_fields(
            record.job_id,
            record.workload,
            record.num_gpus,
            record.pattern,
            record.bandwidth_sensitive,
            record.submit_time,
            record.start_time,
            record.finish_time,
            record.allocation,
            record.agg_bw,
            record.predicted_effective_bw,
            record.measured_effective_bw,
        )

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #
    def _thaw(self) -> None:
        """Decode the dictionary-encoded string/allocation columns.

        Logs rebuilt with ``from_columns(..., lazy=True)`` defer this
        until something needs per-record objects (``records``,
        ``to_dict``, ``to_csv``, ``by_workload``, an append); the
        columnar summary accessors never trigger it, which is what lets
        sweep aggregation skip per-job rehydration entirely.
        """
        lazy = self._lazy
        if lazy is None:
            return
        self._lazy = None
        n = self._n
        self._job_id = lazy["job_id"].tolist()
        workload_names = lazy["workload_names"]
        self._workload = [
            workload_names[c] for c in lazy["workload_code"].tolist()
        ]
        pattern_names = lazy["pattern_names"]
        self._pattern = [
            pattern_names[c] for c in lazy["pattern_code"].tolist()
        ]
        offsets = lazy["alloc_offsets"].tolist()
        values = lazy["alloc_values"].tolist()
        self._allocation = [
            tuple(values[offsets[i] : offsets[i + 1]]) for i in range(n)
        ]

    def _record_at(self, i: int) -> JobRecord:
        """Materialise record ``i`` from the column buffers."""
        self._thaw()
        return JobRecord(
            job_id=self._job_id[i],
            workload=self._workload[i],
            num_gpus=int(self._num_gpus[i]),
            pattern=self._pattern[i],
            bandwidth_sensitive=bool(self._sensitive[i]),
            submit_time=float(self._submit[i]),
            start_time=float(self._start[i]),
            finish_time=float(self._finish[i]),
            allocation=self._allocation[i],
            agg_bw=float(self._agg_bw[i]),
            predicted_effective_bw=float(self._predicted[i]),
            measured_effective_bw=float(self._measured[i]),
        )

    @property
    def records(self) -> List[JobRecord]:
        """The log as :class:`JobRecord` objects, in completion order.

        Materialised lazily from the column buffers and cached until
        the next append, so analysis code iterating repeatedly pays the
        object construction once.
        """
        if self._materialised is None:
            self._thaw()
            n = self._n
            gpus = self._num_gpus[:n].tolist()
            sens = self._sensitive[:n].tolist()
            submit = self._submit[:n].tolist()
            start = self._start[:n].tolist()
            finish = self._finish[:n].tolist()
            agg = self._agg_bw[:n].tolist()
            pred = self._predicted[:n].tolist()
            meas = self._measured[:n].tolist()
            self._materialised = [
                JobRecord(*row)
                for row in zip(
                    self._job_id,
                    self._workload,
                    gpus,
                    self._pattern,
                    sens,
                    submit,
                    start,
                    finish,
                    self._allocation,
                    agg,
                    pred,
                    meas,
                )
            ]
        return self._materialised

    def __len__(self) -> int:
        """Number of completed jobs logged."""
        return self._n

    def __iter__(self):
        """Iterate over records in completion order."""
        return iter(self.records)

    # ------------------------------------------------------------------ #
    def by_workload(self, workload: str) -> List[JobRecord]:
        """Records of one workload (e.g. ``"vgg16"``)."""
        records = self.records  # thaws the string columns if needed
        return [
            records[i]
            for i, name in enumerate(self._workload)
            if name == workload
        ]

    def sensitive(self) -> List[JobRecord]:
        """Records of bandwidth-sensitive jobs."""
        records = self.records
        return [records[i] for i in np.flatnonzero(self._sensitive[: self._n])]

    def insensitive(self) -> List[JobRecord]:
        """Records of bandwidth-insensitive jobs."""
        records = self.records
        return [
            records[i] for i in np.flatnonzero(~self._sensitive[: self._n])
        ]

    def multi_gpu(self) -> List[JobRecord]:
        """Records of jobs that used more than one GPU."""
        records = self.records
        return [
            records[i] for i in np.flatnonzero(self._num_gpus[: self._n] > 1)
        ]

    @property
    def makespan(self) -> float:
        """Completion time of the whole trace (O(1): a running max)."""
        return self._max_finish

    @property
    def throughput(self) -> float:
        """Jobs per second over the trace."""
        span = self._max_finish
        return self._n / span if span > 0 else 0.0

    def execution_times(
        self, records: Optional[Sequence[JobRecord]] = None
    ) -> List[float]:
        """Execution times of ``records`` (default: the whole log)."""
        if records is None:
            n = self._n
            return (self._finish[:n] - self._start[:n]).tolist()
        return [r.execution_time for r in records]

    # ------------------------------------------------------------------ #
    # column-level readers (no JobRecord materialisation, no thaw)
    # ------------------------------------------------------------------ #
    def numeric_columns(self) -> Dict[str, np.ndarray]:
        """Read-only views of the numeric columns, trimmed to length.

        Zero-copy — the arrays alias the log's buffers (or, for a log
        decoded lazily from an ``.mlog`` payload, the payload itself) —
        so summary aggregation over a cached sweep never rehydrates
        per-job records.  Keys match :class:`JobRecord` field names.
        """
        n = self._n
        out = {
            "num_gpus": self._num_gpus[:n],
            "bandwidth_sensitive": self._sensitive[:n],
            "submit_time": self._submit[:n],
            "start_time": self._start[:n],
            "finish_time": self._finish[:n],
            "agg_bw": self._agg_bw[:n],
            "predicted_effective_bw": self._predicted[:n],
            "measured_effective_bw": self._measured[:n],
        }
        for arr in out.values():
            arr.flags.writeable = False
        return out

    def wait_times(self) -> np.ndarray:
        """Per-job queueing delay (start − submit), vectorised."""
        n = self._n
        return self._start[:n] - self._submit[:n]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot of the whole log.

        Values are emitted as native Python types (``tolist``
        round-trips the buffers bit-exactly) in :class:`JobRecord` field
        order, so the payload — the input of every log digest — is
        byte-identical to one built from dataclass instances.
        """
        self._thaw()
        n = self._n
        return {
            "policy": self.policy_name,
            "topology": self.topology_name,
            "records": [
                {
                    "job_id": jid,
                    "workload": wl,
                    "num_gpus": gpus,
                    "pattern": pat,
                    "bandwidth_sensitive": sens,
                    "submit_time": submit,
                    "start_time": start,
                    "finish_time": finish,
                    "allocation": alloc,
                    "agg_bw": agg,
                    "predicted_effective_bw": pred,
                    "measured_effective_bw": meas,
                }
                for jid, wl, gpus, pat, sens, submit, start, finish, alloc, agg, pred, meas in zip(
                    self._job_id,
                    self._workload,
                    self._num_gpus[:n].tolist(),
                    self._pattern,
                    self._sensitive[:n].tolist(),
                    self._submit[:n].tolist(),
                    self._start[:n].tolist(),
                    self._finish[:n].tolist(),
                    self._allocation,
                    self._agg_bw[:n].tolist(),
                    self._predicted[:n].tolist(),
                    self._measured[:n].tolist(),
                )
            ],
        }

    # ------------------------------------------------------------------ #
    # binary columnar codec
    # ------------------------------------------------------------------ #
    def to_columns(self) -> LogColumns:
        """Snapshot the log as contiguous typed arrays (see :class:`LogColumns`).

        The numeric buffers are copied (trimmed to length), the string
        columns dictionary-encoded in first-seen order, allocations
        flattened CSR-style — everything :meth:`from_columns` needs to
        rebuild a log whose :meth:`to_dict` payload is byte-identical.
        Raises :class:`MlogEncodeError` for content the binary layout
        cannot hold losslessly (non-integer job ids or GPU indices).
        """
        n = self._n
        arrays: Dict[str, np.ndarray] = {
            "num_gpus": np.array(self._num_gpus[:n], dtype=np.int64),
            "bandwidth_sensitive": np.array(self._sensitive[:n], dtype=np.bool_),
            "submit_time": np.array(self._submit[:n], dtype=np.float64),
            "start_time": np.array(self._start[:n], dtype=np.float64),
            "finish_time": np.array(self._finish[:n], dtype=np.float64),
            "agg_bw": np.array(self._agg_bw[:n], dtype=np.float64),
            "predicted_effective_bw": np.array(self._predicted[:n], dtype=np.float64),
            "measured_effective_bw": np.array(self._measured[:n], dtype=np.float64),
        }
        if self._lazy is not None:
            # Still in coded form — re-snapshot the coded columns
            # directly, no thaw (re-encoding a lazily decoded log is
            # exactly the store's migration/save path).
            lz = self._lazy
            workload_names = tuple(lz["workload_names"])
            pattern_names = tuple(lz["pattern_names"])
            arrays["job_id"] = np.array(lz["job_id"], dtype=np.int64)
            arrays["workload_code"] = np.array(lz["workload_code"], dtype=np.int32)
            arrays["pattern_code"] = np.array(lz["pattern_code"], dtype=np.int32)
            arrays["alloc_values"] = np.array(lz["alloc_values"], dtype=np.int64)
            arrays["alloc_offsets"] = np.array(lz["alloc_offsets"], dtype=np.int64)
        else:
            job_id = np.empty(n, dtype=np.int64)
            try:
                for i, jid in enumerate(self._job_id):
                    job_id[i] = _require_int(jid, "job_id")
            except OverflowError:
                raise MlogEncodeError("job_id does not fit int64") from None
            arrays["job_id"] = job_id
            arrays["workload_code"], workload_names = _dictionary_encode(
                self._workload
            )
            arrays["pattern_code"], pattern_names = _dictionary_encode(
                self._pattern
            )
            offsets = np.empty(n + 1, dtype=np.int64)
            offsets[0] = 0
            values = np.empty(
                sum(len(a) for a in self._allocation), dtype=np.int64
            )
            pos = 0
            try:
                for i, alloc in enumerate(self._allocation):
                    for gpu in alloc:
                        values[pos] = _require_int(gpu, "allocation gpu")
                        pos += 1
                    offsets[i + 1] = pos
            except OverflowError:
                raise MlogEncodeError("allocation gpu does not fit int64") from None
            arrays["alloc_values"] = values
            arrays["alloc_offsets"] = offsets
        return LogColumns(
            policy=self.policy_name,
            topology=self.topology_name,
            num_records=n,
            workload_names=workload_names,
            pattern_names=pattern_names,
            arrays=arrays,
        )

    @classmethod
    def from_columns(
        cls,
        columns: LogColumns,
        lazy: bool = False,
        owner: Any = None,
    ) -> "SimulationLog":
        """Rebuild a log from a :meth:`to_columns` snapshot.

        The numeric buffers alias ``columns``' arrays directly (no
        copy — the arrays may be read-only views into a decoded
        payload; the first append copies them out via the growth
        path).  ``lazy=True`` defers decoding the
        string/allocation columns until per-record objects are actually
        requested; the columnar summary accessors never trigger it.
        ``owner`` is pinned on the log to keep whatever backs the
        arrays (a payload buffer) alive.
        """
        try:
            arrays = {
                name: np.asarray(columns.arrays[name], dtype=np.dtype(dt))
                for name, dt in MLOG_COLUMNS
            }
        except (KeyError, TypeError, ValueError):
            raise MlogFormatError(
                "column set does not match the .mlog manifest"
            ) from None
        n = columns.num_records
        offsets = arrays["alloc_offsets"]
        values = arrays["alloc_values"]
        if n < 0 or len(offsets) != n + 1:
            raise MlogFormatError("allocation offsets length mismatch")
        if n:
            diffs = np.diff(offsets)
            if offsets[0] != 0 or diffs.min() < 0 or offsets[-1] != len(values):
                raise MlogFormatError("allocation offsets are inconsistent")
        elif len(values):
            raise MlogFormatError("allocation values without records")
        for name, codes, table in (
            ("workload", arrays["workload_code"], columns.workload_names),
            ("pattern", arrays["pattern_code"], columns.pattern_names),
        ):
            if len(codes) != n:
                raise MlogFormatError(f"{name} column length mismatch")
            if n and (codes.min() < 0 or codes.max() >= len(table)):
                raise MlogFormatError(f"{name} code outside the name table")
        log = cls(columns.policy, columns.topology)
        log._n = n
        log._buffer_owner = owner if owner is not None else arrays
        if n:
            for attr, col in (
                ("_num_gpus", "num_gpus"),
                ("_sensitive", "bandwidth_sensitive"),
                ("_submit", "submit_time"),
                ("_start", "start_time"),
                ("_finish", "finish_time"),
                ("_agg_bw", "agg_bw"),
                ("_predicted", "predicted_effective_bw"),
                ("_measured", "measured_effective_bw"),
            ):
                arr = arrays[col]
                if len(arr) != n:
                    raise MlogFormatError(f"{col} column length mismatch")
                setattr(log, attr, arr)
            log._max_finish = float(arrays["finish_time"].max())
            if len(arrays["job_id"]) != n:
                raise MlogFormatError("job_id column length mismatch")
            log._lazy = {
                "job_id": arrays["job_id"],
                "workload_code": arrays["workload_code"],
                "workload_names": tuple(columns.workload_names),
                "pattern_code": arrays["pattern_code"],
                "pattern_names": tuple(columns.pattern_names),
                "alloc_values": values,
                "alloc_offsets": offsets,
            }
            if not lazy:
                log._thaw()
        return log

    # ------------------------------------------------------------------ #
    def to_csv(self) -> str:
        """The log as CSV, one row per record (tuples space-joined)."""
        self._thaw()
        cols = [f.name for f in fields(JobRecord)]
        n = self._n
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        for jid, wl, gpus, pat, sens, submit, start, finish, alloc, agg, pred, meas in zip(
            self._job_id,
            self._workload,
            self._num_gpus[:n].tolist(),
            self._pattern,
            self._sensitive[:n].tolist(),
            self._submit[:n].tolist(),
            self._start[:n].tolist(),
            self._finish[:n].tolist(),
            self._allocation,
            self._agg_bw[:n].tolist(),
            self._predicted[:n].tolist(),
            self._measured[:n].tolist(),
        ):
            buf.write(
                f"{jid},{wl},{gpus},{pat},{int(sens)},{submit},{start},"
                f"{finish},{' '.join(str(g) for g in alloc)},{agg},{pred},"
                f"{meas}\n"
            )
        return buf.getvalue()


# ---------------------------------------------------------------------- #
# the frame: preamble + JSON header + aligned, CRC'd blobs
# ---------------------------------------------------------------------- #
#: Fixed-size preamble: magic, format version, header length.
_MLOG_PREAMBLE = struct.Struct("<4sIQ")


def _align(offset: int) -> int:
    """``offset`` rounded up to the payload alignment."""
    return (offset + _MLOG_ALIGN - 1) // _MLOG_ALIGN * _MLOG_ALIGN


def _frame_error(why: str) -> MlogFormatError:
    return MlogFormatError(f"invalid frame: {why}")


def encode_frame(
    fmt: str,
    header: Mapping[str, Any],
    blobs: Sequence[Tuple[str, str, bytes]],
) -> bytes:
    """One self-checking container of named blobs.

    Layout: a fixed preamble (magic ``MLOG``, format version, header
    length), a JSON header ``{"format": fmt, "version", **header,
    "columns": manifest}`` whose manifest gives each blob's name,
    dtype label, byte offset (relative to the aligned data section),
    byte length and CRC-32, then the blobs themselves, each aligned so
    zero-copy ``frombuffer`` views land on aligned addresses.
    ``blobs`` is a sequence of ``(name, dtype, bytes)``.
    """
    manifest = []
    placed = []
    offset = 0
    for name, dtype, blob in blobs:
        offset = _align(offset)
        manifest.append(
            {
                "name": name,
                "dtype": dtype,
                "offset": offset,
                "nbytes": len(blob),
                "crc32": zlib.crc32(blob) & 0xFFFFFFFF,
            }
        )
        placed.append((offset, blob))
        offset += len(blob)
    header_blob = json.dumps(
        {"format": fmt, "version": MLOG_VERSION, **header, "columns": manifest},
        separators=(",", ":"),
    ).encode("utf-8")
    data_start = _align(_MLOG_PREAMBLE.size + len(header_blob))
    out = bytearray(data_start + offset)
    _MLOG_PREAMBLE.pack_into(out, 0, MLOG_MAGIC, MLOG_VERSION, len(header_blob))
    out[_MLOG_PREAMBLE.size : _MLOG_PREAMBLE.size + len(header_blob)] = header_blob
    for blob_offset, blob in placed:
        start = data_start + blob_offset
        out[start : start + len(blob)] = blob
    return bytes(out)


def decode_frame(
    payload: "bytes | bytearray | memoryview", fmt: str
) -> Tuple[Dict[str, Any], List[Tuple[str, str, memoryview]]]:
    """``(header, blobs)`` of an :func:`encode_frame` container of ``fmt``.

    ``blobs`` lists ``(name, dtype, view)`` in manifest order, each view
    a zero-copy slice of ``payload``.  Wrong magic, an unknown version,
    a header of another ``format``, truncated or malformed manifest
    entries and any CRC mismatch raise :class:`MlogFormatError`; partial
    data is never returned.  The CRCs cover the blobs, not the header.
    """
    buf = memoryview(payload)
    if len(buf) < _MLOG_PREAMBLE.size:
        raise _frame_error("shorter than the preamble")
    magic, version, header_len = _MLOG_PREAMBLE.unpack_from(buf, 0)
    if magic != MLOG_MAGIC:
        raise _frame_error("bad magic")
    if version != MLOG_VERSION:
        raise MlogFormatError(
            f"unsupported frame version {version} (expected {MLOG_VERSION})"
        )
    header_end = _MLOG_PREAMBLE.size + header_len
    if header_end > len(buf):
        raise _frame_error("truncated header")
    try:
        header = json.loads(bytes(buf[_MLOG_PREAMBLE.size : header_end]))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _frame_error(f"unparseable header ({exc})") from None
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise _frame_error(f"not a {fmt} frame")
    if header.get("version") != MLOG_VERSION:
        raise _frame_error("header/preamble version mismatch")
    manifest = header.get("columns")
    if not isinstance(manifest, list):
        raise _frame_error("no blob manifest")
    data_start = _align(header_end)
    blobs = []
    for spec in manifest:
        if not isinstance(spec, dict):
            raise _frame_error("malformed manifest entry")
        name, dtype, offset, nbytes = (
            spec.get("name"), spec.get("dtype"), spec.get("offset"), spec.get("nbytes")
        )
        if (
            not isinstance(name, str)
            or not isinstance(dtype, str)
            or not isinstance(offset, int)
            or not isinstance(nbytes, int)
            or offset < 0
            or nbytes < 0
        ):
            raise _frame_error(f"blob {name!r}: malformed manifest entry")
        start = data_start + offset
        stop = start + nbytes
        if stop > len(buf):
            raise _frame_error(f"blob {name}: truncated payload")
        blob = buf[start:stop]
        if zlib.crc32(blob) != spec.get("crc32"):
            raise _frame_error(f"blob {name}: CRC mismatch")
        blobs.append((name, dtype, blob))
    return header, blobs


# ---------------------------------------------------------------------- #
# the ``.mlog`` payload: one frame, one blob per column
# ---------------------------------------------------------------------- #
def encode_mlog(
    log_or_columns: "SimulationLog | LogColumns",
    meta: Optional[Mapping[str, Any]] = None,
) -> bytes:
    """Serialise a log (or a :class:`LogColumns` snapshot) as ``.mlog``.

    A ``mapa-mlog`` frame (see :func:`encode_frame`) whose header
    carries the log metadata and the string name tables, with one blob
    per :data:`MLOG_COLUMNS` column.  ``meta`` is an optional
    JSON-ready mapping stored verbatim in the header (the result store
    puts the cell's ``config_hash``/``label`` there).

    Raises :class:`MlogEncodeError` when the log's content cannot be
    represented losslessly (the result store then skips caching it).
    """
    if isinstance(log_or_columns, SimulationLog):
        columns = log_or_columns.to_columns()
    else:
        columns = log_or_columns
    header = {
        "policy": columns.policy,
        "topology": columns.topology,
        "n": columns.num_records,
        "workloads": list(columns.workload_names),
        "patterns": list(columns.pattern_names),
        "meta": dict(meta) if meta else {},
    }
    blobs = [
        (
            name,
            dtype,
            np.ascontiguousarray(columns.arrays[name], dtype=np.dtype(dtype)).tobytes(),
        )
        for name, dtype in MLOG_COLUMNS
    ]
    return encode_frame("mapa-mlog", header, blobs)


def decode_mlog(
    payload: "bytes | bytearray | memoryview",
    lazy: bool = False,
) -> Tuple[Dict[str, Any], "SimulationLog"]:
    """Decode an ``.mlog`` payload; returns ``(meta, log)``.

    The log's numeric buffers are zero-copy views into ``payload``
    (read-only when the payload is immutable); ``lazy=True`` defers
    string/allocation decoding exactly as
    :meth:`SimulationLog.from_columns` does.  The payload is pinned on
    the log so the backing memory outlives every view.

    Every validation failure — a damaged frame (see
    :func:`decode_frame`), malformed header fields, a column manifest
    of another version — raises :class:`MlogFormatError`; partial data
    is never returned.
    """
    return log_from_frame(*decode_frame(payload, "mapa-mlog"), lazy=lazy)


def log_from_frame(
    header: Mapping[str, Any],
    blobs: Sequence[Tuple[str, str, memoryview]],
    lazy: bool = False,
) -> Tuple[Dict[str, Any], "SimulationLog"]:
    """:func:`decode_mlog` of an already :func:`decode_frame`-d frame."""
    n = header.get("n")
    workloads = header.get("workloads")
    patterns = header.get("patterns")
    if (
        not isinstance(n, int)
        or n < 0
        or not isinstance(workloads, list)
        or not isinstance(patterns, list)
        or not all(isinstance(w, str) for w in workloads)
        or not all(isinstance(p, str) for p in patterns)
        or not isinstance(header.get("policy"), str)
        or not isinstance(header.get("topology"), str)
    ):
        raise _frame_error("malformed .mlog header fields")
    if [(name, dtype) for name, dtype, _ in blobs] != list(MLOG_COLUMNS):
        raise _frame_error("column manifest does not match this version")
    arrays: Dict[str, np.ndarray] = {}
    for name, dtype, blob in blobs:
        dt = np.dtype(dtype)
        if len(blob) % dt.itemsize:
            raise _frame_error(f"column {name}: ragged byte length")
        arr = np.frombuffer(blob, dtype=dt)
        arr.flags.writeable = False
        arrays[name] = arr
    columns = LogColumns(
        policy=header["policy"],
        topology=header["topology"],
        num_records=n,
        workload_names=tuple(workloads),
        pattern_names=tuple(patterns),
        arrays=arrays,
    )
    meta = header.get("meta")
    log = SimulationLog.from_columns(columns, lazy=lazy, owner=blobs)
    return (dict(meta) if isinstance(meta, dict) else {}), log
