"""The allocation daemon: MAPA schedulers behind a long-running socket.

Everything PRs 1–8 built is batch — a process constructs a scheduler,
replays a trace, exits.  :class:`AllocationDaemon` turns the same
schedulers into a service: an asyncio loop accepts newline-delimited
JSON requests (:mod:`repro.serve.protocol`) on a unix socket or TCP
port and owns the three things a service needs that a replay does not:

Admission control
    A bounded FIFO wait queue (``queue_limit``) and per-tenant quotas
    on outstanding jobs and GPUs.  Requests that cannot be admitted get
    an explicit ``rejected`` response with a stable ``reason`` — never
    a silent drop, never an unbounded queue.

Request batching
    The dispatcher runs a batch as soon as it wakes.  With
    ``flush_window > 0`` it first yields loop ticks while each tick
    brings new submits or releases, and ``flush_window`` only bounds
    how long that coalescing may last: a lone op never waits out the
    window, while a pipelined burst (every line already buffered on a
    socket is admitted within one tick) becomes a single scheduler
    dispatch.  The sharded backend turns a whole batch into **one**
    ``flush()`` round trip per shard — the same batching discipline
    the replay simulator uses.  Each reply is written straight to its
    connection; a connection stops being read while its peer does not
    read its replies.

Graceful shutdown
    ``drain`` stops admission, gives in-flight jobs a grace period to
    release, force-releases the rest, spills the warm
    :class:`~repro.scoring.memo.ScanCache` through the persistent
    :class:`~repro.experiments.spill.ScanSpillStore` tier, and dumps a
    metrics snapshot — so the *next* daemon on the same spill root
    starts hot (the warm-restart gate in ``benchmarks/bench_serve.py``).

The scheduler stays swappable behind the request API: ``shards=0``
hosts a :class:`~repro.cluster.scheduler.MultiServerScheduler`
in-process, ``shards>0`` a
:class:`~repro.cluster.sharding.ShardedFleetScheduler` — clients
cannot tell the difference.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Hashable, List, Optional, Tuple

from ..cluster.scheduler import MultiServerScheduler
from ..cluster.sharding import ShardedFleetScheduler
from ..ioutils import atomic_write_bytes, atomic_write_text
from ..scenarios.fleet import FleetSpec
from ..scoring.memo import ScanCache
from ..sim.records import SimulationLog, encode_mlog
from . import protocol
from .protocol import ProtocolError, SubmitSpec

__all__ = [
    "DaemonConfig",
    "ServeMetrics",
    "AllocationDaemon",
    "DaemonHandle",
    "start_daemon_thread",
]

#: Seconds a stopping daemon lets a closed connection flush its last
#: replies before aborting it.
_CLOSE_GRACE_S = 1.0


# ---------------------------------------------------------------------- #
# configuration + metrics
# ---------------------------------------------------------------------- #
@dataclass
class DaemonConfig:
    """Everything ``mapa serve`` can tune about one daemon."""

    fleet: str = "dgx1-v100:4"
    shards: int = 0
    gpu_policy: str = "preserve"
    node_policy: str = "first-fit"
    queue_limit: int = 256
    flush_window: float = 0.0
    quota_gpus: Optional[int] = None
    quota_requests: Optional[int] = None
    spill_root: Optional[str] = None
    metrics_json: Optional[str] = None
    drain_grace: float = 2.0
    shard_mode: str = "process"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot embedded in the metrics dump."""
        return {
            "fleet": self.fleet,
            "shards": self.shards,
            "gpu_policy": self.gpu_policy,
            "node_policy": self.node_policy,
            "queue_limit": self.queue_limit,
            "flush_window": self.flush_window,
            "quota_gpus": self.quota_gpus,
            "quota_requests": self.quota_requests,
            "spill_root": self.spill_root,
        }


@dataclass
class ServeMetrics:
    """Cumulative counters of one daemon's lifetime.

    The scan/measured-bandwidth cache counters that
    :attr:`~repro.sim.records.SimulationLog.cache_stats` reports per
    replay appear here as live gauges instead — same keys, read
    through ``stats`` at any point in the daemon's life.
    """

    requests: int = 0
    submits: int = 0
    allocated: int = 0
    noroom: int = 0
    released: int = 0
    canceled: int = 0
    queued: int = 0
    errors: int = 0
    dispatches: int = 0
    batched_dispatches: int = 0
    max_batch: int = 0
    peak_waiting: int = 0
    connections: int = 0
    forced_releases: int = 0
    spilled_entries: int = 0
    warm_entries: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        """Count one admission rejection under its reason."""
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (``stats`` responses, metrics dump)."""
        return {
            "requests": self.requests,
            "submits": self.submits,
            "allocated": self.allocated,
            "noroom": self.noroom,
            "released": self.released,
            "canceled": self.canceled,
            "queued": self.queued,
            "errors": self.errors,
            "rejected": dict(self.rejected),
            "rejected_total": sum(self.rejected.values()),
            "dispatches": self.dispatches,
            "batched_dispatches": self.batched_dispatches,
            "max_batch": self.max_batch,
            "peak_waiting": self.peak_waiting,
            "connections": self.connections,
            "forced_releases": self.forced_releases,
            "spilled_entries": self.spilled_entries,
            "warm_entries": self.warm_entries,
        }


# ---------------------------------------------------------------------- #
# scheduler backends
# ---------------------------------------------------------------------- #
class _Ticket:
    """One placement's outcome, resolved immediately or at flush."""

    __slots__ = ("server", "gpus", "scores")

    def __init__(
        self,
        server: int,
        gpus: Optional[Tuple[int, ...]] = None,
        scores: Optional[Dict[str, float]] = None,
    ) -> None:
        self.server = server
        self.gpus = gpus
        self.scores = scores


class _SingleBackend:
    """In-process :class:`MultiServerScheduler` behind the daemon API."""

    def __init__(self, config: DaemonConfig) -> None:
        fleet = FleetSpec.parse(config.fleet)
        self.spill_store = None
        if config.spill_root is not None:
            from ..experiments.spill import ScanSpillStore

            self.spill_store = ScanSpillStore(root=config.spill_root)
        self.cache = ScanCache()
        self.scheduler = MultiServerScheduler(
            fleet.build(),
            gpu_policy=config.gpu_policy,
            node_policy=config.node_policy,
            scan_cache=self.cache,
            scan_spill=self.spill_store,
        )
        self.warm_entries = len(self.cache.entries())

    @property
    def max_capacity(self) -> int:
        return self.scheduler.max_active_capacity()

    def place(self, spec: SubmitSpec) -> Optional[_Ticket]:
        placement = self.scheduler.try_place(spec.request())
        if placement is None:
            return None
        scores = {
            str(k): float(v)
            for k, v in placement.allocation.scores.items()
            if isinstance(v, (int, float))
        }
        return _Ticket(placement.server_index, placement.gpus, scores)

    def release(self, job_id: Hashable) -> Tuple[int, int]:
        server, gpus = self.scheduler.release(job_id)
        return server, len(gpus)

    def flush(self) -> None:
        pass

    def cache_stats(self) -> Dict[str, float]:
        stats = self.scheduler.scan_cache_stats()
        out: Dict[str, float] = {}
        if stats is not None:
            counters = stats.as_dict()
            rate = counters.pop("hit_rate")
            for key, value in counters.items():
                out[f"scan_{key}"] = value
            out["scan_hit_rate"] = rate
        return out

    def spill_stats(self) -> Dict[str, int]:
        if self.spill_store is None:
            return {}
        return self.spill_store.stats.as_dict()

    def spill(self) -> int:
        if self.spill_store is None:
            return 0
        return self.scheduler.spill_scan_cache()

    def close(self) -> None:
        pass


class _ShardedBackend:
    """:class:`ShardedFleetScheduler` behind the daemon API.

    Placements buffer through ``dispatch_place`` and resolve at the
    batch's single ``flush()`` (one round trip per shard); routing
    feasibility is known immediately from the parent-side mirrors, so
    admission and the wait queue behave identically to the single
    backend.
    """

    def __init__(self, config: DaemonConfig) -> None:
        self.scheduler = ShardedFleetScheduler(
            FleetSpec.parse(config.fleet),
            shards=config.shards,
            gpu_policy=config.gpu_policy,
            node_policy=config.node_policy,
            mode=config.shard_mode,
            scan_spill_root=config.spill_root,
        )
        self.spill_root = config.spill_root
        self.warm_entries = 0
        self._locations: Dict[Hashable, Tuple[int, int, int]] = {}
        self._pending: List[_Ticket] = []
        self._clock = 0.0

    @property
    def max_capacity(self) -> int:
        return self.scheduler.max_capacity

    def place(self, spec: SubmitSpec) -> Optional[_Ticket]:
        routed = self.scheduler.route(spec.num_gpus)
        if routed is None:
            return None
        shard, local = routed
        # Monotonic pseudo-time: shard replies don't depend on it, the
        # Job row just needs a valid submit time.
        self._clock += 1.0
        server = self.scheduler.dispatch_place(
            spec.job(self._clock), shard, local, self._clock
        )
        self._locations[spec.job_id] = (shard, local, spec.num_gpus)
        ticket = _Ticket(server)
        self._pending.append(ticket)
        return ticket

    def release(self, job_id: Hashable) -> Tuple[int, int]:
        shard, local, num_gpus = self._locations.pop(job_id)
        self.scheduler.dispatch_release(job_id, shard, local, num_gpus)
        return self.scheduler.plan.start(shard) + local, num_gpus

    def flush(self) -> None:
        replies = self.scheduler.flush()
        places = iter(self._pending)
        for (_, _, _, _, _, reply) in replies:
            ticket = next(places)
            ticket.gpus = tuple(int(g) for g in reply[1])
            ticket.scores = {
                "agg_bw": float(reply[2]),
                "effective_bw": float(reply[3]),
            }
        self._pending = []

    def cache_stats(self) -> Dict[str, float]:
        return self.scheduler.cache_stats()

    def spill_stats(self) -> Dict[str, int]:
        return {}

    def spill(self) -> int:
        if self.spill_root is None:
            return 0
        return self.scheduler.spill_scan_cache()

    def close(self) -> None:
        self.scheduler.close()


def _build_backend(config: DaemonConfig):
    if config.shards > 0:
        return _ShardedBackend(config)
    return _SingleBackend(config)


# ---------------------------------------------------------------------- #
# the daemon
# ---------------------------------------------------------------------- #
def _reply(writer, req_id, response: Dict[str, Any]) -> None:
    """Write one response, tagged with its request ``id``, to its
    connection; a connection that is closing gets nothing."""
    if writer.is_closing():
        return
    if req_id is not None:
        response["id"] = req_id
    writer.write(protocol.encode_line(response))


class _Op:
    """One admitted submit/release awaiting its batch dispatch, with
    the connection and request ``id`` its reply goes to."""

    __slots__ = ("kind", "spec", "job_id", "writer", "req_id")

    def __init__(self, kind, spec, job_id, writer, req_id) -> None:
        self.kind = kind
        self.spec = spec
        self.job_id = job_id
        self.writer = writer
        self.req_id = req_id


class _Lease:
    """One placed job in the daemon's ledger."""

    __slots__ = ("tenant", "num_gpus", "ticket", "placed_at")

    def __init__(
        self,
        tenant: str,
        num_gpus: int,
        ticket: _Ticket,
        placed_at: float = 0.0,
    ) -> None:
        self.tenant = tenant
        self.num_gpus = num_gpus
        self.ticket = ticket
        self.placed_at = placed_at


class AllocationDaemon:
    """One serving instance: scheduler, admission, batching, drain."""

    def __init__(self, config: Optional[DaemonConfig] = None) -> None:
        self.config = config or DaemonConfig()
        self.backend = _build_backend(self.config)
        self.metrics = ServeMetrics()
        self.metrics.warm_entries = self.backend.warm_entries
        self._audit = self._audit_store()
        self._pending: List[_Op] = []
        # Submits among ``_pending``: the queue bound's share of it.
        self._pending_submits = 0
        self._waiting: Deque[_Op] = deque()
        self._ledger: Dict[Hashable, _Lease] = {}
        # Service log: one row per completed lease (released or forced),
        # in the same columnar shape as a simulation run so the drain
        # snapshot can be written through the ``.mlog`` codec.
        self._epoch = time.monotonic()
        self._service_log = SimulationLog(
            self.config.gpu_policy, self.config.fleet
        )
        self._release_seq = 0
        self._tenants: Dict[str, List[int]] = {}
        self._known: set = set()
        self._draining = False
        self._drain_summary: Optional[Dict[str, Any]] = None
        self._drain_lock: Optional[asyncio.Lock] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        # Live connection handlers -> their stream writers.
        self._connections: Dict[asyncio.Task, Any] = {}
        self._work: Optional[asyncio.Event] = None
        self._shutdown: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
    ) -> None:
        """Bind the listener and launch the dispatcher task."""
        if (socket_path is None) == (port is None):
            raise ValueError("exactly one of socket_path/port is required")
        self._work = asyncio.Event()
        self._shutdown = asyncio.Event()
        self._drain_lock = asyncio.Lock()
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        if socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=socket_path, limit=protocol.MAX_LINE_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host=host, port=port,
                limit=protocol.MAX_LINE_BYTES,
            )

    @property
    def port(self) -> Optional[int]:
        """The bound TCP port (``None`` on a unix socket)."""
        if self._server is None or not self._server.sockets:
            return None
        name = self._server.sockets[0].getsockname()
        return name[1] if isinstance(name, tuple) else None

    async def serve_until_drained(self) -> Dict[str, Any]:
        """Run until shutdown is requested, then drain and stop.

        The request is the ``_shutdown`` event: a client ``drain`` sets
        it after draining, :meth:`DaemonHandle.stop` sets it from
        another thread.  The drain is idempotent, so either way the
        summary returned is the one drain's.
        """
        assert self._shutdown is not None, "start() first"
        await self._shutdown.wait()
        summary = await self.drain()
        await self._stop()
        return summary

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_until_drained` to drain and stop (in-loop)."""
        self._shutdown.set()

    async def _stop(self) -> None:
        if self._server is not None:
            self._server.close()
        # Close every live connection so its handler reads EOF and
        # returns: a cancelled handler makes asyncio's stream callback
        # log a CancelledError traceback.  close() flushes first, so a
        # peer that stopped reading has its transport aborted after a
        # grace period.  Await every handler, so nothing is left
        # pending when the loop closes.
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            _, stuck = await asyncio.wait(
                list(self._connections), timeout=_CLOSE_GRACE_S
            )
            for task in stuck:
                self._connections[task].transport.abort()
            await asyncio.gather(*stuck, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        self.backend.close()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_conn(self, reader, writer) -> None:
        self.metrics.connections += 1
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError, ValueError):
                    break
                # Closed by _stop: lines still buffered go unanswered.
                if not line or writer.is_closing():
                    break
                if not line.strip():
                    continue
                self.metrics.requests += 1
                try:
                    payload = protocol.decode_line(line)
                except ProtocolError as exc:
                    self.metrics.errors += 1
                    _reply(writer, None, {
                        "status": "error", "reason": str(exc),
                    })
                else:
                    await self._handle_request(payload, writer)
                # Backpressure: a peer that stops reading its replies
                # stops being read.
                try:
                    await writer.drain()
                except ConnectionError:
                    pass
        finally:
            del self._connections[task]
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_request(self, payload, writer) -> None:
        op = payload["op"]
        req_id = payload.get("id")
        if op == "ping":
            _reply(writer, req_id, {
                "status": "ok",
                "version": protocol.PROTOCOL_VERSION,
                "draining": self._draining,
            })
        elif op == "stats":
            _reply(writer, req_id, {
                "status": "ok", "stats": self.metrics_snapshot(),
            })
        elif op == "query":
            _reply(writer, req_id, self._query(payload))
        elif op == "drain":
            summary = await self.drain()
            _reply(writer, req_id, summary)
            self._shutdown.set()
        else:  # submit / release — through the batching pipeline
            immediate = self._admit(op, payload)
            if immediate is not None:
                _reply(writer, req_id, immediate)
            else:
                self._enqueue(op, payload, writer, req_id)

    # ------------------------------------------------------------------ #
    # admission control
    # ------------------------------------------------------------------ #
    def _usage(self, tenant: str) -> List[int]:
        return self._tenants.setdefault(tenant, [0, 0])

    def _admit(self, op: str, payload) -> Optional[Dict[str, Any]]:
        """Gate one submit/release; a dict response means denied here.

        ``None`` means admitted: the op may enter the dispatch pipeline
        (its response comes from the batch).  Rejections are explicit
        and immediate — the queue never absorbs work it cannot hold.
        """
        if op == "release":
            try:
                protocol._require_job_id(payload)
            except ProtocolError as exc:
                self.metrics.errors += 1
                return {"status": "error", "reason": str(exc)}
            return None
        self.metrics.submits += 1
        if self._draining:
            self.metrics.reject(protocol.REJECT_DRAINING)
            return {"status": "rejected", "reason": protocol.REJECT_DRAINING}
        # Size first: no server can hold more than the largest one, and
        # building the pattern for an oversized request could stall the
        # loop (all-to-all over thousands of slots) and fill the memo.
        try:
            job_id, gpus = protocol.submit_size(payload)
            if gpus > self.backend.max_capacity:
                self.metrics.reject(protocol.REJECT_INFEASIBLE)
                return {
                    "status": "rejected",
                    "reason": protocol.REJECT_INFEASIBLE,
                    "job": job_id,
                    "max_gpus": self.backend.max_capacity,
                }
            spec = SubmitSpec.from_payload(payload)
        except ProtocolError as exc:
            self.metrics.errors += 1
            return {"status": "error", "reason": str(exc)}
        if spec.job_id in self._known:
            self.metrics.reject(protocol.REJECT_DUPLICATE)
            return {
                "status": "rejected",
                "reason": protocol.REJECT_DUPLICATE,
                "job": spec.job_id,
            }
        usage = self._usage(spec.tenant)
        quota_jobs = self.config.quota_requests
        quota_gpus = self.config.quota_gpus
        if (quota_jobs is not None and usage[0] + 1 > quota_jobs) or (
            quota_gpus is not None and usage[1] + spec.num_gpus > quota_gpus
        ):
            self.metrics.reject(protocol.REJECT_TENANT_QUOTA)
            return {
                "status": "rejected",
                "reason": protocol.REJECT_TENANT_QUOTA,
                "job": spec.job_id,
                "tenant": spec.tenant,
            }
        backlog = len(self._waiting) + self._pending_submits
        if backlog >= self.config.queue_limit:
            self.metrics.reject(protocol.REJECT_QUEUE_FULL)
            return {
                "status": "rejected",
                "reason": protocol.REJECT_QUEUE_FULL,
                "job": spec.job_id,
            }
        # Admitted: the job now holds quota until it leaves the system.
        usage[0] += 1
        usage[1] += spec.num_gpus
        self._known.add(spec.job_id)
        payload["_spec"] = spec
        return None

    def _enqueue(self, op: str, payload, writer, req_id) -> None:
        if op == "submit":
            spec = payload.pop("_spec")
            self._pending.append(
                _Op("submit", spec, spec.job_id, writer, req_id)
            )
            self._pending_submits += 1
        else:
            self._pending.append(
                _Op("release", None, payload.get("job"), writer, req_id)
            )
        self._work.set()

    def _forget(self, job_id: Hashable, tenant: str, num_gpus: int) -> None:
        """Return a job's quota and id once it leaves the system."""
        self._known.discard(job_id)
        usage = self._usage(tenant)
        usage[0] -= 1
        usage[1] -= num_gpus

    # ------------------------------------------------------------------ #
    # batch dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch_loop(self) -> None:
        window = self.config.flush_window
        loop = asyncio.get_running_loop()
        while True:
            await self._work.wait()
            if window > 0:
                # Coalesce while each loop tick brings new ops; the
                # window bounds how long, it is never waited out.
                deadline = loop.time() + window
                seen = len(self._pending)
                while loop.time() < deadline:
                    await asyncio.sleep(0)
                    if len(self._pending) == seen:
                        break
                    seen = len(self._pending)
            self._work.clear()
            batch, self._pending = self._pending, []
            self._pending_submits = 0
            if batch:
                self._run_batch(batch)

    def _run_batch(self, batch: List[_Op]) -> None:
        """One scheduler dispatch for every op the wake collected."""
        # (op, response) — an allocation's ticket until the flush
        # resolves its GPUs.
        replies: List[Tuple[_Op, Any]] = []
        for op in batch:
            if op.kind == "submit":
                self._batch_submit(op, replies)
            else:
                self._batch_release(op, replies)
        self.backend.flush()
        self.metrics.dispatches += 1
        if len(batch) > 1:
            self.metrics.batched_dispatches += 1
        self.metrics.max_batch = max(self.metrics.max_batch, len(batch))
        self.metrics.peak_waiting = max(
            self.metrics.peak_waiting, len(self._waiting)
        )
        for op, response in replies:
            if isinstance(response, _Ticket):
                response = {
                    "status": "allocated",
                    "job": op.job_id,
                    "server": response.server,
                    "gpus": list(response.gpus)
                    if response.gpus is not None else None,
                    "scores": response.scores,
                }
            _reply(op.writer, op.req_id, response)

    def _place(self, op: _Op, replies) -> bool:
        """Try one submit against the backend; ``False`` means no room."""
        ticket = self.backend.place(op.spec)
        if ticket is None:
            return False
        self._ledger[op.job_id] = _Lease(
            op.spec.tenant,
            op.spec.num_gpus,
            ticket,
            placed_at=time.monotonic() - self._epoch,
        )
        self.metrics.allocated += 1
        replies.append((op, ticket))
        return True

    def _batch_submit(self, op: _Op, replies) -> None:
        # FIFO fairness: while older submits wait, newcomers that are
        # willing to wait queue behind them instead of jumping ahead.
        if self._waiting and op.spec.wait:
            self._waiting.append(op)
            self.metrics.queued += 1
            return
        if self._place(op, replies):
            return
        if op.spec.wait:
            self._waiting.append(op)
            self.metrics.queued += 1
        else:
            self._forget(op.job_id, op.spec.tenant, op.spec.num_gpus)
            self.metrics.noroom += 1
            replies.append((op, {"status": "noroom", "job": op.job_id}))

    def _record_release(self, lease: _Lease) -> None:
        """Append one completed lease to the columnar service log.

        Rows reuse the :class:`~repro.sim.records.SimulationLog` schema
        (workload = tenant, pattern = ``"serve"``, submit/start = the
        placement time relative to the daemon epoch) so a drain can
        serialise the daemon's service history through the same
        ``.mlog`` codec the sweep transport uses.
        """
        now = time.monotonic() - self._epoch
        ticket = lease.ticket
        allocation = (
            tuple(ticket.gpus) if ticket.gpus is not None else ()
        )
        self._service_log.append_fields(
            self._release_seq,
            lease.tenant,
            lease.num_gpus,
            "serve",
            False,
            lease.placed_at,
            lease.placed_at,
            now,
            allocation,
            0.0,
            0.0,
            0.0,
        )
        self._release_seq += 1

    def _batch_release(self, op: _Op, replies) -> None:
        job_id = op.job_id
        lease = self._ledger.pop(job_id, None)
        if lease is not None:
            server, num_gpus = self.backend.release(job_id)
            self._forget(job_id, lease.tenant, lease.num_gpus)
            self._record_release(lease)
            self.metrics.released += 1
            replies.append((op, {
                "status": "released", "job": job_id,
                "server": server, "gpus": num_gpus,
            }))
            self._drain_waiting(replies)
            return
        waiter = next(
            (w for w in self._waiting if w.job_id == job_id), None
        )
        if waiter is not None:
            # Cancel a still-queued submit: answer both sides.
            self._waiting.remove(waiter)
            self._forget(job_id, waiter.spec.tenant, waiter.spec.num_gpus)
            self.metrics.canceled += 1
            replies.append((waiter, {
                "status": "rejected",
                "reason": protocol.REJECT_CANCELED,
                "job": job_id,
            }))
            replies.append((op, {
                "status": "released", "job": job_id, "canceled": True,
            }))
            return
        self.metrics.errors += 1
        replies.append((op, {
            "status": "error", "reason": "unknown-job", "job": job_id,
        }))

    def _drain_waiting(self, replies) -> None:
        """After a release, serve the wait queue head-of-line."""
        while self._waiting:
            head = self._waiting[0]
            if not self._place(head, replies):
                break
            self._waiting.popleft()

    # ------------------------------------------------------------------ #
    # queries + metrics
    # ------------------------------------------------------------------ #
    def _query(self, payload) -> Dict[str, Any]:
        try:
            job_id = protocol._require_job_id(payload)
        except ProtocolError as exc:
            self.metrics.errors += 1
            return {"status": "error", "reason": str(exc)}
        lease = self._ledger.get(job_id)
        if lease is not None:
            ticket = lease.ticket
            return {
                "status": "active",
                "job": job_id,
                "server": ticket.server,
                "gpus": list(ticket.gpus) if ticket.gpus is not None else None,
                "tenant": lease.tenant,
            }
        if any(w.job_id == job_id for w in self._waiting) or any(
            o.kind == "submit" and o.job_id == job_id for o in self._pending
        ):
            return {"status": "waiting", "job": job_id}
        return {"status": "unknown", "job": job_id}

    def _audit_store(self) -> Dict[str, Any]:
        """``spill_audit`` + ``store_tiers`` of the spill root, or ``{}``.

        Reads every partition, so it runs once at startup and once
        after the drain's spill; ``stats`` requests reuse the result.
        The spill root is the shared cache root, so the per-namespace
        breakdown is the one ``mapa cache stats`` prints.
        """
        if self.config.spill_root is None:
            return {}
        from ..experiments.store import SCAN, ContentStore

        content = ContentStore(self.config.spill_root)
        valid, corrupt = content.verify(SCAN)
        return {
            "spill_audit": {
                "valid_partitions": valid,
                "corrupt_partitions": corrupt,
            },
            "store_tiers": {
                ns: {"files": files, "bytes": nbytes}
                for ns, files, nbytes in content.stats().tier_rows()
            },
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Counters + gauges + cache/spill stats as one JSON object.

        ``spill_audit``/``store_tiers`` are as of the last
        :meth:`_audit_store` (startup, or the drain's spill).
        """
        snapshot: Dict[str, Any] = {
            "counters": self.metrics.as_dict(),
            "gauges": {
                "outstanding_jobs": len(self._ledger),
                "outstanding_gpus": sum(
                    l.num_gpus for l in self._ledger.values()
                ),
                "waiting": len(self._waiting),
                "pending": len(self._pending),
                "draining": self._draining,
                "tenants": {
                    t: {"jobs": u[0], "gpus": u[1]}
                    for t, u in sorted(self._tenants.items())
                    if u[0] or u[1]
                },
            },
            "cache": self.backend.cache_stats(),
            "spill": self.backend.spill_stats(),
            "config": self.config.as_dict(),
        }
        snapshot.update(self._audit)
        snapshot["service_log_rows"] = len(self._service_log)
        return snapshot

    # ------------------------------------------------------------------ #
    # graceful shutdown
    # ------------------------------------------------------------------ #
    async def drain(self) -> Dict[str, Any]:
        """Stop admission, drain leases, spill the cache, dump metrics."""
        async with self._drain_lock:
            return await self._drain_locked()

    async def _drain_locked(self) -> Dict[str, Any]:
        if self._drain_summary is not None:
            return self._drain_summary
        self._draining = True
        # Let already-admitted work clear the pipeline first.
        while self._pending:
            self._work.set()
            await asyncio.sleep(0)
        # Nothing will ever free capacity for the wait queue now.
        rejected_waiting = 0
        while self._waiting:
            op = self._waiting.popleft()
            self._forget(op.job_id, op.spec.tenant, op.spec.num_gpus)
            self.metrics.reject(protocol.REJECT_DRAINING)
            rejected_waiting += 1
            _reply(op.writer, op.req_id, {
                "status": "rejected",
                "reason": protocol.REJECT_DRAINING,
                "job": op.job_id,
            })
        # Grace period: clients may still release voluntarily.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_grace
        while self._ledger and loop.time() < deadline:
            await asyncio.sleep(0.02)
        while self._pending:
            await asyncio.sleep(0.01)
        forced = 0
        for job_id in list(self._ledger):
            lease = self._ledger.pop(job_id)
            self.backend.release(job_id)
            self._forget(job_id, lease.tenant, lease.num_gpus)
            self._record_release(lease)
            forced += 1
        self.backend.flush()
        self.metrics.forced_releases = forced
        spilled = self.backend.spill()
        self.metrics.spilled_entries = spilled
        self._audit = self._audit_store()
        snapshot = self.metrics_snapshot()
        if self.config.metrics_json:
            atomic_write_text(
                self.config.metrics_json, json.dumps(snapshot, indent=2)
            )
            # Binary twin: the service log (one row per completed
            # lease) through the same codec the sweep transport uses,
            # so drain snapshots are readable with decode_mlog.
            atomic_write_bytes(
                os.path.splitext(self.config.metrics_json)[0] + ".mlog",
                encode_mlog(
                    self._service_log,
                    meta={
                        "kind": "serve-drain",
                        "forced_releases": forced,
                        "released": self.metrics.released,
                    },
                ),
            )
        self._drain_summary = {
            "status": "ok",
            "clean": forced == 0,
            "forced_releases": forced,
            "rejected_waiting": rejected_waiting,
            "spilled_entries": spilled,
        }
        return self._drain_summary


# ---------------------------------------------------------------------- #
# background hosting (tests, benchmarks, ``mapa serve --bench``)
# ---------------------------------------------------------------------- #
class DaemonHandle:
    """A daemon running on its own event-loop thread."""

    def __init__(self, daemon: AllocationDaemon, loop, thread) -> None:
        self.daemon = daemon
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> Optional[int]:
        return self.daemon.port

    def stop(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Drain from outside the loop, join the thread, return the summary.

        Only wakes the daemon's own :meth:`AllocationDaemon.serve_until_drained`,
        which finishes the drain on its loop; a daemon a client already
        drained has closed that loop, and its summary is returned as is.
        """
        try:
            self._loop.call_soon_threadsafe(self.daemon.request_shutdown)
        except RuntimeError:  # loop closed: a client drain got there first
            pass
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise TimeoutError(f"daemon did not drain within {timeout} s")
        return self.daemon._drain_summary

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the daemon to drain on its own (client-side drain)."""
        self._thread.join(timeout=timeout)


def start_daemon_thread(
    config: DaemonConfig,
    socket_path: Optional[str] = None,
    port: Optional[int] = None,
) -> DaemonHandle:
    """Launch a daemon on a fresh thread; returns once it is accepting.

    ``port=0`` binds an ephemeral TCP port (read it back from
    ``handle.port``).  The thread exits when the daemon drains — via a
    client ``drain`` request or ``handle.stop()``.
    """
    import threading

    loop = asyncio.new_event_loop()
    daemon = AllocationDaemon(config)
    ready = threading.Event()
    failure: List[BaseException] = []

    def runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(
                daemon.start(socket_path=socket_path, port=port)
            )
        except BaseException as exc:  # pragma: no cover - startup failure
            failure.append(exc)
            ready.set()
            return
        ready.set()
        try:
            loop.run_until_complete(daemon.serve_until_drained())
        finally:
            leftover = asyncio.all_tasks(loop)
            for task in leftover:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*leftover, return_exceptions=True)
            )
            loop.close()

    thread = threading.Thread(target=runner, name="mapa-serve", daemon=True)
    thread.start()
    ready.wait()
    if failure:
        raise failure[0]
    return DaemonHandle(daemon, loop, thread)
