"""``serve_churn``: the allocation daemon behind one client connection.

``python -m repro serve`` runs as a **subprocess** on the 64-server
fleet (``--flush-window 0.002 --queue-limit 4096``); the benchmark is
one :class:`~repro.serve.AllocationClient` on its unix socket.

* **Phase A, closed loop** — passes of 1 000 seeded jobs through the
  library's own pipelined generator (``run_load``, ``window=64``,
  ``max_active=128``, ``wait=False``): the next request goes out only as
  replies come back, so a slower daemon is offered less.  About two
  thirds of the 576 GPUs stay live, first-fit walks past full servers,
  and ``noroom`` is a correct (rare) answer.  ``jobs_per_s``.
* **Phase B, open loop** — submits, and the releases that hold the live
  set at 128, leave on a fixed schedule of 2 000 requests/s whatever
  the replies do; each request is timed from when it was *due*, so a
  stall is charged to everything queued behind it.  ``latency_p50_us``.
  The traced run walks the whole 1 000-8 000 req/s ladder instead.

Sender and receiver are this process's two threads; nothing else
touches the connection.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from harness import (
    OUT_DIR,
    Context,
    Outcome,
    Samples,
    percentile,
    perf,
    timed,
    timed_loop,
    timed_setups,
)
from tracing import Proxy, Tracer, trace_metrics

from repro.cluster import MultiServerScheduler
from repro.scenarios import FleetSpec
from repro.scoring.memo import ScanCache
from repro.serve import (
    SERVE_BENCH_FLEET,
    AllocationClient,
    SubmitSpec,
    bench_jobs,
    decode_line,
    encode_line,
    run_load,
)

WINDOW = 64
MAX_ACTIVE = 128
#: Untimed passes that fill the daemon's scan cache and decision memo
#: before the timed ones; throughput is flat from the third pass on.
WARMUP_PASSES = 4
TENANT = "bench"
#: Open-loop rate of the end-to-end latency metric, and the traced ladder.
RATE = 2000
OPEN_STEPS = 5
#: Shortest open-loop step (only the smoke sizes ever hit it).
MIN_STEP_S = 0.1
LADDER = (1000, 2000, 4000, 8000)
#: ``serve.slo_rate_req_s``: highest ladder rate whose p99 stays under this.
SLO_P99_S = 0.020
BOOT_TIMEOUT_S = 60.0


# ---------------------------------------------------------------------- #
# the daemon subprocess
# ---------------------------------------------------------------------- #
class Daemon:
    """One ``python -m repro serve`` child and the way to stop it."""

    def __init__(self, ctx: Context, tag: str) -> None:
        self.socket_path = os.path.join(ctx.workdir, f"{tag}.sock")
        #: Kept next to the trace, outside the (removed) scratch dir.
        self.stderr_path = os.path.join(OUT_DIR, f"daemon_{ctx.workload}.stderr")
        self._stderr = open(self.stderr_path, "ab")
        self._stderr_start = self._stderr.tell()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", self.socket_path,
                "--fleet", SERVE_BENCH_FLEET,
                "--flush-window", "0.002",
                "--queue-limit", "4096",
            ],
            stdout=subprocess.DEVNULL,
            stderr=self._stderr,
        )

    def connect(self) -> AllocationClient:
        """Block until the daemon answers a ping on its socket."""
        deadline = perf() + BOOT_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} during boot; "
                    f"see {self.stderr_path}"
                )
            try:
                client = AllocationClient(socket_path=self.socket_path)
            except (FileNotFoundError, ConnectionRefusedError):
                if perf() > deadline:
                    raise RuntimeError("daemon did not open its socket in time")
                time.sleep(0.005)
                continue
            client.ping()
            return client

    def drain(self, client: AllocationClient) -> Tuple[float, Dict[str, Any]]:
        """Graceful shutdown; ``(seconds until the process is gone, reply)``."""
        start = perf()
        reply = client.drain()
        client.close()
        self.proc.wait(timeout=30)
        return perf() - start, reply

    def stop(self) -> None:
        """Make sure the child is gone, on every exit path."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._stderr.close()

    def stderr_tracebacks(self) -> int:
        """Tracebacks this daemon wrote to its stderr."""
        with open(self.stderr_path, "rb") as fh:
            fh.seek(self._stderr_start)
            return fh.read().count(b"Traceback (most recent call last)")


# ---------------------------------------------------------------------- #
# phase B: the open-loop generator
# ---------------------------------------------------------------------- #
@dataclass
class OpenLoop:
    """What one fixed-rate step saw."""

    rate: int
    sent: int = 0
    replies: int = 0
    errors: int = 0
    noroom: int = 0
    backlog_at_last_send: int = 0
    latencies: List[float] = field(default_factory=list)  # sorted, seconds
    lags: List[float] = field(default_factory=list)  # sorted, seconds


def open_loop(
    client: AllocationClient,
    jobs: List[Any],
    rate: int,
    duration: float,
    tag: str,
) -> OpenLoop:
    """Send ``rate`` requests/s for ``duration`` s; time from due to reply.

    The schedule never waits for a reply.  What goes out in a slot does
    depend on the replies seen so far — a release of the oldest known
    allocation once more than ``MAX_ACTIVE`` are live, else the next
    submit — which is how a real tenant holds a working set, and keeps
    every request valid (no release of a job that got ``noroom``).
    """
    count = max(1, int(rate * duration))
    result = OpenLoop(rate=rate)
    due = [0.0] * count
    latency = [0.0] * count
    active: Deque[Any] = deque()
    received = [0]

    def receive() -> None:
        try:
            for _ in range(count):
                response = client.recv()
                now = perf()
                index = response["id"]
                latency[index] = now - due[index]
                received[0] += 1
                status = response.get("status")
                if status == "allocated":
                    active.append(response["job"])
                elif status == "noroom":
                    result.noroom += 1
                elif status != "released":
                    result.errors += 1
        except (OSError, ConnectionError, KeyError, IndexError):
            pass  # missing replies are counted by the caller

    receiver = threading.Thread(target=receive, name="open-loop-recv")
    gc.collect()
    receiver.start()
    lags: List[float] = []
    interval = 1.0 / rate
    start = perf() + 0.02
    next_job = 0
    for index in range(count):
        slot = start + index * interval
        due[index] = slot
        wait = slot - perf()
        if wait > 0:
            time.sleep(wait)
        lags.append(perf() - slot)
        if len(active) > MAX_ACTIVE:
            client.send({"op": "release", "job": active.popleft(), "id": index})
        else:
            job = jobs[next_job % len(jobs)]
            next_job += 1
            client.send({
                "op": "submit",
                "id": index,
                "job": f"{tag}{next_job}",
                "gpus": job.num_gpus,
                "pattern": job.pattern,
                "workload": job.workload,
                "sensitive": job.bandwidth_sensitive,
                "tenant": TENANT,
                "wait": False,
            })
    result.sent = count
    result.backlog_at_last_send = count - received[0]
    receiver.join(timeout=60)
    result.replies = received[0]
    # Hand the fleet back for the next step: untimed, and pipelined (one
    # blocking call per release would sit out a flush window each).
    for job in active:
        client.send({"op": "release", "job": job})
    for _ in range(len(active)):
        if client.recv().get("status") != "released":
            result.errors += 1
    result.latencies = sorted(latency[: result.replies])
    result.lags = sorted(lags)
    return result


# ---------------------------------------------------------------------- #
# the workload
# ---------------------------------------------------------------------- #
def serve_churn(ctx: Context) -> Outcome:
    out = Outcome()
    # Short passes, many of them: a pass's throughput jitters by ~10 %
    # with how submits happen to fall into the daemon's flush windows,
    # and the median of ~25 passes is what steadies the metric.
    jobs = bench_jobs(ctx.scale(1000, 150), seed=ctx.seed, fleet=SERVE_BENCH_FLEET)
    daemons: List[Daemon] = []
    boots: List[float] = []
    open(os.path.join(OUT_DIR, f"daemon_{ctx.workload}.stderr"), "wb").close()

    def setup() -> Tuple[Daemon, AllocationClient]:
        daemon = Daemon(ctx, f"d{len(daemons)}")
        daemons.append(daemon)
        wall, client = timed(daemon.connect)
        boots.append(wall)
        for warmup in range(1 if ctx.quick else WARMUP_PASSES):
            run_load(client, jobs, window=WINDOW, max_active=MAX_ACTIVE,
                     tenant=TENANT, job_prefix=f"warm{warmup}-")
        return daemon, client

    def teardown(state: Tuple[Daemon, AllocationClient]) -> None:
        daemon, client = state
        daemon.drain(client)
        daemon.stop()

    try:
        setups, (daemon, client) = timed_setups(
            setup, 1 if ctx.traced else ctx.scale(3, 1), teardown
        )
        if ctx.traced:
            _layers(ctx, out, daemon, client, jobs, boots)
        else:
            _end_to_end(ctx, out, daemon, client, jobs, setups)
    finally:
        for daemon in daemons:
            daemon.stop()
    return out


class Recorder:
    """The two client calls ``run_load`` makes, remembering what is sent."""

    def __init__(self, client: AllocationClient, sent: List[Dict[str, Any]]) -> None:
        self._client = client
        self._sent = sent

    def send(self, payload: Dict[str, Any]) -> Any:
        self._sent.append(payload)
        return self._client.send(payload)

    def recv(self) -> Dict[str, Any]:
        return self._client.recv()


def _closed_loop_pass(
    out: Outcome, client: Any, jobs: List[Any], prefix: str
) -> Any:
    """One phase-A pass plus its accounting checks."""
    report = run_load(client, jobs, window=WINDOW, max_active=MAX_ACTIVE,
                      tenant=TENANT, job_prefix=prefix)
    out.attempted += report.requests
    out.check(report.allocated + report.noroom == report.submitted,
              f"pass {prefix}: allocated+noroom != submitted ({report.as_dict()})",
              report.submitted - report.allocated - report.noroom)
    out.check(report.released == report.allocated,
              f"pass {prefix}: released != allocated", 1)
    out.check(report.errors == 0 and report.rejected == 0,
              f"pass {prefix}: {report.errors} errors, {report.rejected} rejected",
              report.errors + report.rejected)
    return report


def _check_step(out: Outcome, step: OpenLoop) -> None:
    out.attempted += step.sent
    missing = step.sent - step.replies
    out.check(missing == 0, f"{step.rate} req/s: {missing} requests got no reply",
              missing)
    out.check(step.errors == 0, f"{step.rate} req/s: {step.errors} error replies",
              step.errors)


def _end_to_end(
    ctx: Context,
    out: Outcome,
    daemon: Daemon,
    client: AllocationClient,
    jobs: List[Any],
    setups: Samples,
) -> None:
    """The untraced run: closed-loop passes, then the open-loop steps."""
    reports: List[Any] = []
    walls = timed_loop(
        lambda rep: _closed_loop_pass(out, client, jobs, f"a{rep}-"),
        ctx.seconds * 0.5, ctx.scale(3, 2),
        after=lambda _rep, report: reports.append(report),
    )
    # The open-loop half in OPEN_STEPS separate steps: a step's p50 sits
    # wherever its 0.5 ms send tick happens to fall against the daemon's
    # 2 ms flush window, so the median over steps is reported rather
    # than one step's luck.
    open_steps = ctx.scale(OPEN_STEPS, 1)
    steps = [
        open_loop(client, jobs, RATE,
                  max(MIN_STEP_S, ctx.seconds * 0.5 / open_steps), f"b{i}-")
        for i in range(open_steps)
    ]
    for step in steps:
        _check_step(out, step)
    _finish(out, daemon, client)
    medians = Samples(tuple(
        1e6 * percentile(step.latencies, 0.50) for step in steps
    ))
    pooled = sorted(x for step in steps for x in step.latencies)
    out.samples["setup_s"] = setups
    out.samples["pass_wall_s"] = walls
    out.samples["latency_p50_us"] = medians
    out.metrics["setup_s"] = setups.median
    out.metrics["jobs_per_s"] = len(jobs) / walls.median
    out.metrics["latency_p50_us"] = medians.median
    out.details.update(
        passes=walls.n, requests_per_pass=reports[-1].requests,
        noroom_per_pass=reports[-1].noroom, open_loop_samples=len(pooled),
        latency_p99_us=1e6 * percentile(pooled, 0.99),
        generator_lag_p99_us=1e6 * max(
            percentile(step.lags, 0.99) for step in steps
        ),
    )


def _layers(
    ctx: Context,
    out: Outcome,
    daemon: Daemon,
    client: AllocationClient,
    jobs: List[Any],
    boots: List[float],
) -> None:
    """The traced run: timed client, the rate ladder, the direct probes."""
    tracer: Tracer = ctx.tracer
    reports: List[Any] = []
    sent: List[Dict[str, Any]] = []
    front = Proxy(Recorder(client, sent), tracer,
                  {"send": "client.send", "recv": "client.recv"})

    def traced_closed(rep: int) -> Any:
        del sent[:]
        with tracer.span("rep"):
            return _closed_loop_pass(out, front, jobs, f"t{rep}-")

    untraced = timed_loop(
        lambda rep: _closed_loop_pass(out, client, jobs, f"u{rep}-"),
        ctx.seconds * 0.08, 1,
    )
    walls = timed_loop(traced_closed, ctx.seconds * 0.22, 1,
                       after=lambda _rep, report: reports.append(report))
    steps = [
        open_loop(client, jobs, rate, max(MIN_STEP_S, ctx.seconds * 0.15), f"r{rate}-")
        for rate in LADDER
    ]
    for step in steps:
        _check_step(out, step)
    stats = client.stats()
    drain_s = _finish(out, daemon, client)

    m = out.metrics
    totals = tracer.totals(under="rep")
    reps = max(1, totals["rep"][0])
    m["client.send_s"] = totals["client.send"][1] / reps
    m["client.recv_wait_s"] = totals["client.recv"][1] / reps
    m["serve.req_per_s"] = reports[-1].requests / walls.median
    m["daemon.boot_s"] = Samples(tuple(boots)).median
    m["daemon.drain_s"] = drain_s
    counters = stats["counters"]
    m["daemon.dispatches"] = counters["dispatches"]
    m["daemon.batched_dispatches"] = counters["batched_dispatches"]
    m["daemon.mean_batch"] = (
        (counters["submits"] + counters["released"]) / counters["dispatches"]
        if counters["dispatches"] else 0.0
    )
    m["daemon.max_batch"] = counters["max_batch"]
    m["daemon.peak_waiting"] = counters["peak_waiting"]
    m["daemon.noroom"] = counters["noroom"]
    m["daemon.rejected"] = counters["rejected_total"]
    m["daemon.stderr_tracebacks"] = daemon.stderr_tracebacks()
    slo_rate = 0
    for step in steps:
        m[f"serve.latency_p50_us.r{step.rate}"] = 1e6 * percentile(step.latencies, 0.50)
        p99 = percentile(step.latencies, 0.99)
        m[f"serve.latency_p99_us.r{step.rate}"] = 1e6 * p99
        # A backlog larger than the SLO's worth of traffic at the last
        # send means the queue was still growing when the step ended.
        if p99 <= SLO_P99_S and step.backlog_at_last_send <= step.rate * SLO_P99_S:
            slo_rate = step.rate
    m["serve.slo_rate_req_s"] = slo_rate
    m["serve.generator_lag_p99_us"] = 1e6 * max(
        percentile(step.lags, 0.99) for step in steps
    )
    _protocol_probe(out, sent)
    _scheduler_share(out, sent, walls.median)
    m.update(trace_metrics(tracer, untraced.median, walls.median))
    out.details.update(passes=walls.n, ladder_samples=[s.replies for s in steps])


def _finish(out: Outcome, daemon: Daemon, client: AllocationClient) -> float:
    """Drain the daemon and check it left cleanly; seconds it took."""
    drain_s, reply = daemon.drain(client)
    out.check(reply.get("status") == "ok", f"drain reply was {reply}")
    out.check(daemon.proc.returncode == 0,
              f"daemon exited with status {daemon.proc.returncode}")
    return drain_s


def _protocol_probe(out: Outcome, sent: List[Dict[str, Any]]) -> None:
    """``protocol.encode_us`` / ``decode_us`` on the pass's own requests."""
    start = perf()
    lines = [encode_line(payload) for payload in sent]
    out.metrics["protocol.encode_us"] = 1e6 * (perf() - start) / len(lines)
    start = perf()
    for line in lines:
        decode_line(line)
    out.metrics["protocol.decode_us"] = 1e6 * (perf() - start) / len(lines)


def _scheduler_share(
    out: Outcome, sent: List[Dict[str, Any]], pass_wall: float
) -> None:
    """``serve.scheduler_share``: the scheduler's part of a pass.

    The pass's request stream applied straight to a
    ``MultiServerScheduler`` — no socket, no JSON, no batching — timed on
    its second application (the first warms the cache as the daemon's
    was) and divided by the pass's wall.
    """
    scheduler = MultiServerScheduler(
        FleetSpec.parse(SERVE_BENCH_FLEET).build(),
        gpu_policy="preserve",
        node_policy="first-fit",
        scan_cache=ScanCache(),
    )
    ops = [
        (SubmitSpec.from_payload(p).request(), None) if p["op"] == "submit"
        else (None, p["job"])
        for p in sent
    ]

    def apply() -> None:
        placed = set()
        for request, job in ops:
            if request is not None:
                if scheduler.try_place(request) is not None:
                    placed.add(request.job_id)
            elif job in placed:
                # The daemon may order a batch differently; a release
                # of a job this replay could not place is skipped.
                placed.discard(job)
                scheduler.release(job)
        for job in placed:
            scheduler.release(job)

    apply()
    wall, _ = timed(apply)
    out.metrics["serve.scheduler_share"] = wall / pass_wall
