"""Event-driven execution engine: one time-ordered ``heapq``.

Events are ``(time, priority, seq, kind, payload)`` tuples.  ``seq`` is
unique, so tuple comparison never reaches ``kind`` or ``payload``: events
pop in ``(time, priority, seq)`` order.  The engine knows nothing of GPUs.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count, repeat
from typing import Any, List, Optional, Sequence, Tuple

#: Priority of job events (arrivals, completions).  Lower priorities pop
#: first at one timestamp, so a fleet mutation at an arrival instant
#: (:data:`FLEET_PRIORITY`) lands before the arrival.
DEFAULT_PRIORITY = 1

#: Priority for fleet-mutation events (see :data:`DEFAULT_PRIORITY`).
FLEET_PRIORITY = 0

#: Relative width of the past-time tolerance band around ``now``: wide
#: enough for float round-off in ``now + delay`` at a 1e9-second clock,
#: tight enough (10 ms there) that a stale ``now`` still raises.
_REL_EPS = 1e-11


class EventEngine:
    """Time-ordered event queue with deterministic tie-breaking."""

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, int, str, Any]] = []

    def tolerance(self, time: float) -> float:
        """Past-time tolerance band at ``time``: symmetric and relative."""
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

    def schedule(
        self,
        time: float,
        kind: str,
        payload: Any = None,
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        """Enqueue an event at absolute ``time``; a time within the
        tolerance band before ``now`` clamps to ``now``, an earlier one
        raises."""
        time = self._clamped(time)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, priority, seq, kind, payload))

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

    def schedule_after_coded(self, delay: float, kind: str, payload: Any) -> None:
        """:meth:`schedule_after` without its checks, for the replay hot
        loop's completions: ``delay`` must be ≥ 0, so no clamp is due."""
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, DEFAULT_PRIORITY, seq, kind, payload))

    def schedule_many(
        self,
        times: Sequence[float],
        kind: str,
        payloads: Optional[Sequence[Any]] = None,
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        """:meth:`schedule` per entry of ``times``, in order, then one
        ``heapify``; a time too far in the past raises before any push."""
        n = len(times)
        if payloads is None:
            payloads = repeat(None, n)
        elif len(payloads) != n:
            raise ValueError(f"{len(payloads)} payloads for {n} scheduled times")
        clamped = [self._clamped(float(t)) for t in times]
        heap, seq = self._heap, self._seq
        self._seq = seq + n
        heap.extend(zip(clamped, repeat(priority), count(seq), repeat(kind), payloads))
        heapify(heap)

    @property
    def pending(self) -> int:
        """Events not yet popped."""
        return len(self._heap)

    def pop(self) -> Optional[Tuple[float, str, Any]]:
        """Advance time to the next event and return it, or ``None``."""
        if not self._heap:
            return None
        time, _, _, kind, payload = heappop(self._heap)
        self.now = time
        return time, kind, payload

    def peek_time(self) -> Optional[float]:
        """Time of the next event without popping it (``None`` if empty)."""
        return self._heap[0][0] if self._heap else None
