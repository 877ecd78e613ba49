"""Event-driven execution engine.

A minimal discrete-event core: a time-ordered queue of events with
stable FIFO tie-breaking.  The cluster simulator drives it with
job-arrival and job-completion events; the engine knows nothing about
GPUs.

:class:`EventEngine` is a **columnar** engine.  Events live in
parallel numpy arrays (time / insertion sequence / interned kind code
/ payload handle) instead of per-event heap objects: a sorted *run*
absorbs bulk schedules (a sorted array is already a valid min-heap, so
replay arrival streams cost one vectorised sort), and a small C
``heapq`` of bare scalar tuples absorbs the dynamic events a
simulation schedules mid-run (completions) — no object per event, and
tuple comparison never reaches the payload because sequences are
unique.  ``pop`` merges the two heads on one ``(time, priority, seq)``
total order.  A plain ``heapq``-of-entries engine with the same API
lives in ``tests/reference/replay.py`` as the oracle the property tests
pop against.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np


#: Default event priority.  Same-timestamp ties break on ``(time,
#: priority, seq)``: lower priorities pop first, and within a priority
#: the insertion sequence preserves the historical FIFO order.  Job
#: events (arrivals, completions) all carry :data:`DEFAULT_PRIORITY`, so
#: a static-fleet replay's pop stream — and every golden table — is
#: unchanged; fleet mutations (failure, repair, autoscale, preemption)
#: schedule at :data:`FLEET_PRIORITY` so a failure at an arrival instant
#: lands *before* the arrival deterministically, on every core and at
#: every shard count.
DEFAULT_PRIORITY = 1

#: Priority for fleet-mutation events (see :data:`DEFAULT_PRIORITY`).
FLEET_PRIORITY = 0


#: Relative width of the past-time tolerance band around ``now``.  An
#: absolute epsilon (the engine used ``1e-12`` for years) stops working
#: once ``now`` grows past ~1e4 seconds: at fleet scale a trace's clock
#: reaches 1e7–1e9 and one ulp of float round-off in ``now + delay``
#: arithmetic is already far larger than any absolute constant.  The
#: band is deliberately tight — ~4.5e4 ulps, i.e. 10 ms at a 1e9-second
#: clock — so accumulated round-off is absorbed but a discipline bug
#: that schedules from a genuinely stale ``now`` still raises loudly.
_REL_EPS = 1e-11

#: Initial capacity of the columnar engine's arrays.
_MIN_CAPACITY = 64


class EventEngine:
    """Time-ordered event queue with deterministic tie-breaking.

    Struct-of-arrays storage: every scheduled event is five scalars —
    its clamped time, its tie-break priority, its global insertion
    sequence, an interned kind code and a handle into the payload list.
    Bulk schedules (:meth:`schedule_many`) land in a lexsorted *run* of
    parallel preallocated arrays consumed by a cursor; singleton
    schedules land in a C ``heapq`` of bare ``(time, priority, seq,
    kind, handle)`` tuples; :meth:`pop` takes whichever head is smaller
    under ``(time, priority, seq)`` — the total order of a plain heap
    of ``(time, priority, seq)`` entries (sequences are unique, so the
    comparison never reaches payloads).
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._payloads: List[Any] = []
        self._kind_codes: Dict[str, int] = {}
        self._kind_names: List[str] = []
        # Sorted bulk run, consumed front-to-back by _cursor.
        self._run_time = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._run_prio = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._run_seq = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._run_kind = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._run_payload = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._run_len = 0
        self._cursor = 0
        # Dynamic events: C heapq over scalar tuples (time, priority,
        # seq, kind code, payload handle).
        self._heap: List[Tuple[float, int, int, int, int]] = []

    # ------------------------------------------------------------------ #
    # shared clamp semantics
    # ------------------------------------------------------------------ #
    def tolerance(self, time: float) -> float:
        """Past/future tolerance band at ``time``: symmetric and relative.

        The band scales with the larger magnitude of ``time`` and
        ``now`` (with an absolute floor of ``_REL_EPS`` near zero), so
        float accumulation at large clocks is absorbed instead of
        raising.
        """
        return _REL_EPS * max(1.0, abs(time), abs(self.now))

    def _clamped(self, time: float) -> float:
        """``time`` clamped into the monotone band, or :class:`ValueError`."""
        if time < self.now:
            if time < self.now - self.tolerance(time):
                raise ValueError(
                    f"cannot schedule event at {time} before current time "
                    f"{self.now}"
                )
            return self.now
        return time

    def _kind_code(self, kind: str) -> int:
        """Intern ``kind`` and return its stable integer code."""
        code = self._kind_codes.get(kind)
        if code is None:
            code = len(self._kind_names)
            self._kind_codes[kind] = code
            self._kind_names.append(kind)
        return code

    def _store_payload(self, payload: Any) -> int:
        """Append ``payload`` to the handle store; -1 encodes ``None``."""
        if payload is None:
            return -1
        self._payloads.append(payload)
        return len(self._payloads) - 1

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        time: float,
        kind: str,
        payload: Any = None,
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        """Enqueue an event at absolute ``time`` (must not be in the past).

        Times within the symmetric tolerance band *before* ``now`` —
        round-off, not logic errors — are clamped to ``now`` so the
        clock stays monotone; anything earlier raises.  ``priority``
        breaks same-timestamp ties before the insertion sequence does
        (lower pops first); job events keep the default.
        """
        time = self._clamped(time)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap,
            (
                time,
                priority,
                seq,
                self._kind_code(kind),
                self._store_payload(payload),
            ),
        )

    def schedule_after(
        self,
        delay: float,
        kind: str,
        payload: Any = None,
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        """Enqueue an event ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("negative delay")
        self.schedule(self.now + delay, kind, payload, priority)

    def intern_kind(self, kind: str) -> int:
        """Pre-intern ``kind`` for :meth:`schedule_after_coded`."""
        return self._kind_code(kind)

    def schedule_after_coded(self, delay: float, code: int, payload: Any) -> None:
        """:meth:`schedule_after` minus per-event interning and checks.

        ``code`` comes from :meth:`intern_kind` and ``delay`` must be
        ≥ 0 (so ``now + delay`` can never fall below ``now`` and the
        clamp is a no-op by construction).  The replay hot loop
        schedules one completion per started job through here;
        ``(time, seq)`` ordering is identical to :meth:`schedule`.
        """
        seq = self._seq
        self._seq = seq + 1
        self._payloads.append(payload)
        heapq.heappush(
            self._heap,
            (self.now + delay, DEFAULT_PRIORITY, seq, code, len(self._payloads) - 1),
        )

    def schedule_many(
        self,
        times: Sequence[float],
        kind: str,
        payloads: Optional[Sequence[Any]] = None,
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        """Bulk-enqueue one event per entry of ``times`` (vectorised).

        Equivalent to calling :meth:`schedule` once per element in
        order — identical clamp/raise semantics, identical ``(time,
        seq)`` total order against events scheduled before or after —
        but the events land in the columnar sorted run via one lexsort
        instead of N heap pushes.  This is the fast path replay
        simulations use for their arrival streams.
        """
        arr = np.asarray(times, dtype=np.float64)
        n = int(arr.shape[0])
        if payloads is not None and len(payloads) != n:
            raise ValueError(
                f"{len(payloads)} payloads for {n} scheduled times"
            )
        if n == 0:
            return
        floor = self.now - _REL_EPS * np.maximum(
            np.maximum(np.abs(arr), abs(self.now)), 1.0
        )
        if bool((arr < floor).any()):
            bad = float(arr[arr < floor][0])
            raise ValueError(
                f"cannot schedule event at {bad} before current time "
                f"{self.now}"
            )
        arr = np.maximum(arr, self.now)  # in-band stragglers clamp to now
        seqs = np.arange(self._seq, self._seq + n, dtype=np.int64)
        self._seq += n
        prios = np.full(n, priority, dtype=np.int64)
        kinds = np.full(n, self._kind_code(kind), dtype=np.int64)
        if payloads is None:
            handles = np.full(n, -1, dtype=np.int64)
        else:
            base = len(self._payloads)
            self._payloads.extend(payloads)
            handles = np.arange(base, base + n, dtype=np.int64)
        live = slice(self._cursor, self._run_len)
        merged_t = np.concatenate([self._run_time[live], arr])
        merged_pr = np.concatenate([self._run_prio[live], prios])
        merged_s = np.concatenate([self._run_seq[live], seqs])
        merged_k = np.concatenate([self._run_kind[live], kinds])
        merged_p = np.concatenate([self._run_payload[live], handles])
        order = np.lexsort((merged_s, merged_pr, merged_t))
        m = merged_t.shape[0]
        if m > self._run_time.shape[0]:
            cap = max(_MIN_CAPACITY, 2 * m)
            self._run_time = np.empty(cap, dtype=np.float64)
            self._run_prio = np.empty(cap, dtype=np.int64)
            self._run_seq = np.empty(cap, dtype=np.int64)
            self._run_kind = np.empty(cap, dtype=np.int64)
            self._run_payload = np.empty(cap, dtype=np.int64)
        self._run_time[:m] = merged_t[order]
        self._run_prio[:m] = merged_pr[order]
        self._run_seq[:m] = merged_s[order]
        self._run_kind[:m] = merged_k[order]
        self._run_payload[:m] = merged_p[order]
        self._run_len = m
        self._cursor = 0

    # ------------------------------------------------------------------ #
    # consumption
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Events not yet popped."""
        return (self._run_len - self._cursor) + len(self._heap)

    def pop(self) -> Optional[Tuple[float, str, Any]]:
        """Advance time to the next event and return it, or ``None``."""
        cursor = self._cursor
        heap = self._heap
        have_run = cursor < self._run_len
        if have_run and heap:
            rt = self._run_time[cursor]
            head = heap[0]
            ht = head[0]
            from_run = rt < ht or (
                rt == ht
                and (self._run_prio[cursor], self._run_seq[cursor])
                < (head[1], head[2])
            )
        elif have_run:
            from_run = True
        elif heap:
            from_run = False
        else:
            return None
        if from_run:
            time = float(self._run_time[cursor])
            kc = int(self._run_kind[cursor])
            ph = int(self._run_payload[cursor])
            self._cursor = cursor + 1
            if self._cursor == self._run_len:
                self._cursor = self._run_len = 0
        else:
            time, _, _, kc, ph = heapq.heappop(heap)
        self.now = time
        payload = None if ph < 0 else self._payloads[ph]
        return time, self._kind_names[kc], payload

    def peek_time(self) -> Optional[float]:
        """Time of the next event without popping it (``None`` if empty)."""
        have_run = self._cursor < self._run_len
        if have_run and self._heap:
            return float(
                min(self._run_time[self._cursor], self._heap[0][0])
            )
        if have_run:
            return float(self._run_time[self._cursor])
        if self._heap:
            return float(self._heap[0][0])
        return None
