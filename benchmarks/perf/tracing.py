"""Span tracing from the benchmark's side of the public API.

The program under test is not instrumented.  A traced run wraps the
calls *into* each layer instead: :class:`Proxy` objects are handed to
public constructors (``SimulationCore(backend=…, log=…)``,
``ShardedFleetSimulator(scheduler)``, ``SweepRunner(store=…)``) and the
:class:`Tracer` records what crosses them.

Two kinds of span, one nesting stack per thread:

* **coarse** spans (:meth:`Tracer.span`) — one record each:
  ``(name, start, end, parent, workload)``.  Repetitions, replays,
  flushes, sweeps.
* **hot** calls (:meth:`Tracer.wrap`) — hundreds of thousands per
  repetition (``try_place``, ``engine.pop``, ``append_fields``), so they
  are folded into one aggregate record per ``(name, enclosing coarse
  span)`` carrying call count, busy time and self time.

A span's **self time** is its duration minus the part its child spans
cover.  Calls are sequential within a thread, so child coverage is the
sum of the children's durations, accumulated on the parent's stack
frame as each child returns — the classic exclusive-time bookkeeping,
O(1) per call and independent of how many spans are kept.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping, Tuple

perf = time.perf_counter

#: Fields of a stack frame: the time the frame's children have covered
#: so far, then the hot-call table and index of the enclosing coarse
#: span (hot frames inherit both from their parent).
_CHILD, _HOT, _SPAN = 0, 1, 2


class Totals(dict):
    """name -> ``(calls, busy s, self s)``; a name never seen did nothing."""

    def __missing__(self, name: str) -> Tuple[int, float, float]:
        return (0, 0.0, 0.0)


class Tracer:
    """In-memory span store for one workload run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: Coarse spans: ``[name, start, end, parent index, self time]``.
        self.spans: List[List[Any]] = []
        #: Hot tables by coarse-span index (``-1``: outside any span).
        #: name -> ``[calls, busy, self]``.
        self.hot: Dict[int, Dict[str, List[float]]] = {-1: {}}
        self._local = threading.local()

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [[0.0, self.hot[-1], -1]]
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one coarse span around the ``with`` body."""
        stack = self._stack()
        parent = stack[-1]
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent[_SPAN], 0.0]
        self.spans.append(record)
        table = self.hot[index] = {}
        frame = [0.0, table, index]
        stack.append(frame)
        start = perf()
        try:
            yield
        finally:
            end = perf()
            stack.pop()
            record[1], record[2] = start, end
            record[4] = (end - start) - frame[_CHILD]
            parent[_CHILD] += end - start

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call folded into the ``name`` aggregate."""
        get_stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = get_stack()
            parent = stack[-1]
            frame = [0.0, parent[_HOT], parent[_SPAN]]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                parent[_CHILD] += elapsed
                cell = frame[_HOT].get(name)
                if cell is None:
                    frame[_HOT][name] = [1, elapsed, elapsed - frame[_CHILD]]
                else:
                    cell[0] += 1
                    cell[1] += elapsed
                    cell[2] += elapsed - frame[_CHILD]

        return traced

    # ------------------------------------------------------------------ #
    # derived numbers
    # ------------------------------------------------------------------ #
    def totals(self, under: str = "") -> Totals:
        """Per-name ``(calls, busy s, self s)`` over the whole trace.

        ``under`` restricts the sum to spans nested (at any depth) below
        a coarse span of that name — e.g. only the traced repetitions,
        not the untraced ones or the leaf probes that follow.
        """
        keep = self._descendants(under) if under else None
        out: Dict[str, List[float]] = {}
        for index, (name, start, end, _parent, self_s) in enumerate(self.spans):
            if keep is not None and index not in keep:
                continue
            cell = out.setdefault(name, [0, 0.0, 0.0])
            cell[0] += 1
            cell[1] += end - start
            cell[2] += self_s
        for index, table in self.hot.items():
            if keep is not None and index not in keep:
                continue
            for name, (calls, busy, self_s) in table.items():
                cell = out.setdefault(name, [0, 0.0, 0.0])
                cell[0] += calls
                cell[1] += busy
                cell[2] += self_s
        return Totals((k, (int(v[0]), v[1], v[2])) for k, v in out.items())

    def _descendants(self, root_name: str) -> set:
        """Indices of coarse spans at or below any span named ``root_name``."""
        keep = set()
        for index, record in enumerate(self.spans):
            # Parents are always recorded before their children.
            if record[0] == root_name or record[3] in keep:
                keep.add(index)
        return keep

    @property
    def num_spans(self) -> int:
        """Records held: coarse spans plus hot aggregates."""
        return len(self.spans) + sum(len(t) for t in self.hot.values())

    def dump(self, path: str) -> None:
        """Write every record as JSON (``trace_<workload>.json``)."""
        records: List[Dict[str, Any]] = []
        for index, (name, start, end, parent, self_s) in enumerate(self.spans):
            records.append(
                {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent if parent >= 0 else None,
                    "self_s": self_s,
                    "workload": self.workload,
                }
            )
        for index, table in self.hot.items():
            for name, (calls, busy, self_s) in table.items():
                records.append(
                    {
                        "name": name,
                        "parent": index if index >= 0 else None,
                        "calls": int(calls),
                        "busy_s": busy,
                        "self_s": self_s,
                        "workload": self.workload,
                    }
                )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "spans": records}, fh)


def trace_metrics(
    tracer: Tracer, untraced_wall: float, traced_wall: float
) -> Dict[str, float]:
    """The ``trace.*`` metrics every traced workload reports.

    ``trace.overhead_ratio`` is traced / untraced repetition wall, both
    measured in the same run; ``trace.attributed_share`` is the share of
    the traced repetitions' wall that lies inside named layer spans
    (everything but the ``rep`` span's own self time).
    """
    _, rep_wall, harness_self = tracer.totals(under="rep")["rep"]
    return {
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.spans": tracer.num_spans,
        "trace.attributed_share": (
            1.0 - harness_self / rep_wall if rep_wall else 0.0
        ),
    }


class Proxy:
    """Stand-in for ``target`` that times the named methods.

    Everything else — attribute reads, attribute *writes* (the core
    assigns ``log.cache_stats``, disciplines rebind ``core.queue``) and
    untimed methods — goes straight through to the real object, so the
    program sees the behaviour it would see without tracing.
    """

    def __init__(
        self, target: Any, tracer: Tracer, timed: Mapping[str, str]
    ) -> None:
        object.__setattr__(self, "_target", target)
        for method, span_name in timed.items():
            object.__setattr__(
                self, method, tracer.wrap(span_name, getattr(target, method))
            )

    def __getattr__(self, attr: str) -> Any:
        return getattr(object.__getattribute__(self, "_target"), attr)

    def __setattr__(self, attr: str, value: Any) -> None:
        setattr(object.__getattribute__(self, "_target"), attr, value)
