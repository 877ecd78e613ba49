"""Shared plumbing of the perf benchmark: context, timing, checks, clean-up.

Everything here is workload-agnostic.  A workload module (``wl_*.py``)
receives a :class:`Context`, builds its inputs from ``ctx.seed``, times
its public-API calls with :func:`timed_loop` / :func:`timed_setups`, and
returns an :class:`Outcome`; ``run.py`` turns that into the printed
table and the final JSON line.

Host time only: every duration in this directory comes from
``time.perf_counter``.  Simulated time appears solely in log digests
and in ``paper.p75_speedup_pct``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Everything a run writes (traces, daemon stderr, scratch stores,
#: sockets) lands below here; the directory is in the root .gitignore.
OUT_DIR = os.path.join(PERF_DIR, "out")

perf = time.perf_counter

#: Set-up samples taken before the timed region by the workloads whose
#: set-up is a ~30 ms pool or shard boot, on top of one per repetition:
#: a median of three such samples moves by a third between runs.
EXTRA_BOOTS = 12


def load_manifest() -> Dict[str, Any]:
    """The root ``BENCHMARK.json`` — the one list of metric names/units."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------- #
# run context and result
# ---------------------------------------------------------------------- #
@dataclass
class Context:
    """One invocation's knobs, handed to the workload."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    quick: bool
    workdir: str
    tracer: Any = None  # tracing.Tracer when traced, else None

    def scale(self, full: int, quick: int) -> int:
        """``full`` normally, ``quick`` under ``--quick`` (smoke sizes)."""
        return quick if self.quick else full

    def subdir(self, name: str) -> str:
        """A fresh empty directory under this run's scratch area."""
        return tempfile.mkdtemp(prefix=f"{name}-", dir=self.workdir)


@dataclass
class Outcome:
    """What a workload measured and checked."""

    #: metric name -> value; run.py attaches the declared unit.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: metric name -> :class:`Samples` behind the reported median.
    samples: Dict[str, "Samples"] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Human-readable correctness failures; empty means correct.
    problems: List[str] = field(default_factory=list)
    #: Free-form extras for the result file (digests, counts, sizes).
    details: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, message: str, operations: int = 1) -> bool:
        """Record a correctness check; a failed one costs ``operations``."""
        if not ok:
            self.problems.append(message)
            self.failed += operations
        return ok


@dataclass(frozen=True)
class Samples:
    """Timed repetitions behind one reported number."""

    values: Tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def median(self) -> float:
        return statistics.median(self.values)

    @property
    def quartiles(self) -> Tuple[float, float]:
        """``(q1, q3)``; both the single value when there is one sample."""
        if self.n < 2:
            return self.values[0], self.values[0]
        q = statistics.quantiles(self.values, n=4)
        return q[0], q[2]

    def as_dict(self) -> Dict[str, Any]:
        q1, q3 = self.quartiles
        return {"n": self.n, "median": self.median, "q1": q1, "q3": q3}


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


# ---------------------------------------------------------------------- #
# timing
# ---------------------------------------------------------------------- #
def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """``(wall seconds, result)`` of one call, GC settled beforehand."""
    gc.collect()
    start = perf()
    result = fn()
    return perf() - start, result


def timed_setups(
    setup: Callable[[], Any],
    repeats: int,
    teardown: Optional[Callable[[Any], None]] = None,
) -> Tuple[Samples, Any]:
    """Run the whole set-up ``repeats`` times; keep the last state.

    Set-up cost is an end-to-end metric with its own bound (so work
    moved out of the timed region still shows), and one sample per
    process would make it as noisy as a cold import — hence several
    full set-ups, median reported, earlier states torn down.
    """
    walls: List[float] = []
    state: Any = None
    for i in range(repeats):
        wall, state = timed(setup)
        walls.append(wall)
        if teardown is not None and i < repeats - 1:
            teardown(state)
    return Samples(tuple(walls)), state


def timed_loop(
    body: Callable[[Any], Any],
    seconds: float,
    min_reps: int = 1,
    prepare: Optional[Callable[[int], Any]] = None,
    after: Optional[Callable[[int, Any], None]] = None,
) -> Samples:
    """Repeat ``body`` until ``seconds`` of *timed* wall have passed.

    ``prepare(rep)`` builds the repetition's argument and
    ``after(rep, result)`` checks its result; both run outside the
    timed region and off the budget's clock, so input construction and
    correctness work never shorten or pollute the measurement.
    """
    walls: List[float] = []
    spent = 0.0
    rep = 0
    while rep < min_reps or spent < seconds:
        arg = prepare(rep) if prepare is not None else rep
        gc.collect()
        start = perf()
        result = body(arg)
        wall = perf() - start
        walls.append(wall)
        spent += wall
        if after is not None:
            after(rep, result)
        rep += 1
    return Samples(tuple(walls))


# ---------------------------------------------------------------------- #
# correctness helpers
# ---------------------------------------------------------------------- #
def log_digest(log: Any) -> str:
    """SHA-256 of the canonical JSON serialisation of a simulation log."""
    return hashlib.sha256(
        json.dumps(log.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


def mlog_digest(log: Any) -> str:
    """SHA-256 of the log's ``.mlog`` encoding.

    The binary codec is content-addressed (re-encoding is byte
    identical), so this is the cheap per-repetition equality check;
    the canonical :func:`log_digest` is taken once per run.
    """
    from repro.sim.records import encode_mlog

    return hashlib.sha256(encode_mlog(log)).hexdigest()


def load_expected(workload: str, seed: int, quick: bool) -> Optional[Dict[str, Any]]:
    """The committed expectations for ``workload`` at this seed, if any.

    Only full-size runs at the seed recorded in ``expected.json`` are
    pinned; other seeds and ``--quick`` check repetition-to-repetition
    equality only.
    """
    if quick:
        return None
    with open(os.path.join(PERF_DIR, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    if seed != expected["seed"]:
        return None
    return expected["workloads"].get(workload)


# ---------------------------------------------------------------------- #
# resources and hygiene
# ---------------------------------------------------------------------- #
def peak_rss_mib() -> float:
    """Peak resident set, this process plus its reaped children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports KiB


def reap_children(timeout: float = 10.0) -> int:
    """Join every multiprocessing child; returns how many were left.

    Pool and shard workers exit asynchronously after ``shutdown``;
    ``active_children`` joins the finished ones as a side effect, so
    polling it both waits for them and folds their peak RSS into
    ``RUSAGE_CHILDREN``.  Stragglers past the timeout are terminated.
    """
    deadline = perf() + timeout
    while multiprocessing.active_children() and perf() < deadline:
        time.sleep(0.01)
    leftover = multiprocessing.active_children()
    for child in leftover:
        child.terminate()
        child.join(1.0)
    return len(leftover)


def _direct_children() -> List[int]:
    """Pids whose parent is this process, zombies included (from /proc)."""
    me = os.getpid()
    pids: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue  # gone between listdir and open
        # "pid (comm) state ppid ..."; comm may hold spaces and parentheses.
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _reaped(pid: int) -> bool:
    """Collect ``pid`` if it has ended; ``True`` when it is gone."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:
        return True  # someone else (subprocess, multiprocessing) reaped it


def stop_all_children(timeout: float = 5.0) -> int:
    """Leave no process behind; returns how many had to be signalled.

    ``multiprocessing.shared_memory`` (the shard layer's topology
    segment) starts a ``resource_tracker`` helper that only exits once
    its parent is gone — i.e. *after* the benchmark has exited, which a
    caller waiting on the benchmark sees as a process left running.  It
    is stopped and waited for here; everything else still parented to
    this process (none, when the workloads cleaned up) is then
    terminated, killed if need be, and reaped.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waitpid()s it
    signalled = 0
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in _direct_children():
            if not _reaped(pid):  # a zombie is reaped here: nothing was running
                os.kill(pid, sig)
                signalled += sig == signal.SIGTERM
        deadline = perf() + timeout
        while [pid for pid in _direct_children() if not _reaped(pid)]:
            if perf() > deadline:
                break
            time.sleep(0.01)
        else:
            break
    return signalled


def shm_segments() -> set:
    """Names of the POSIX shared-memory segments currently published."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def make_workdir(workload: str) -> str:
    """A per-invocation scratch directory under ``out/``.

    Returned *relative to the current directory* when that is shorter:
    the daemon's unix socket lives in here and ``sun_path`` is capped
    at ~107 bytes, which a deep checkout path alone can exceed.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    relative = os.path.relpath(path)
    return relative if len(relative) < len(path) else path


def fingerprint(seed: int) -> Dict[str, Any]:
    """The recorded environment of a result set."""
    import platform
    import subprocess

    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit or None,
        "seed": seed,
    }


def ensure_importable() -> None:
    """Put ``src/`` on ``sys.path`` (and in ``PYTHONPATH`` for children).

    The driver runs the bare command from the checkout root with no
    environment of ours, so the benchmark locates the package itself.
    Daemon and pool children inherit the variable.
    """
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise ImportError(f"no package at {os.path.join(SRC_DIR, 'repro')}")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    existing = os.environ.get("PYTHONPATH", "")
    if SRC_DIR not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            SRC_DIR + (os.pathsep + existing if existing else "")
        )
