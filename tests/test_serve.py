"""The allocation daemon: protocol, admission, batching, drain.

Functional coverage for :mod:`repro.serve` — each test boots a real
daemon on a unix socket (or TCP port) and speaks the NDJSON protocol
through the blocking client.  The concurrency/byte-identity suite
lives in ``test_serve_concurrency.py``.
"""

import json
import os
import threading
import time

import pytest

from repro.serve import (
    AllocationClient,
    DaemonConfig,
    ProtocolError,
    SubmitSpec,
    decode_line,
    encode_line,
    start_daemon_thread,
)

#: Daemon task hygiene: no task left pending, no coroutine left unawaited.
pytestmark = [
    pytest.mark.usefixtures("no_pending_tasks"),
    pytest.mark.filterwarnings("error::RuntimeWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


@pytest.fixture
def serve(tmp_path):
    """Factory: boot a daemon on a unix socket, drain it on teardown.

    Daemons default to ``drain_grace=0``: teardown force-releases the
    leases a test leaves behind instead of waiting out the grace period.
    Tests of the grace period set it explicitly.
    """
    handles = []

    def boot(index=0, **config_kwargs):
        config_kwargs.setdefault("fleet", "dgx1-v100:2")
        config_kwargs.setdefault("drain_grace", 0.0)
        socket_path = str(tmp_path / f"mapa-{index}.sock")
        handle = start_daemon_thread(
            DaemonConfig(**config_kwargs), socket_path=socket_path
        )
        handles.append(handle)
        return socket_path, handle

    yield boot
    for handle in handles:
        if handle._thread.is_alive():
            try:
                handle.stop(timeout=30)
            except Exception:
                pass


class TestProtocol:
    def test_round_trip(self):
        payload = {"op": "ping", "id": 7}
        assert decode_line(encode_line(payload)) == payload

    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json\n")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2]\n")

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError):
            decode_line(encode_line({"op": "explode"}))

    def test_submit_spec_validation(self):
        good = {"op": "submit", "job": "j", "gpus": 4}
        spec = SubmitSpec.from_payload(good)
        assert spec.num_gpus == 4
        assert spec.pattern == "ring"
        assert spec.wait is True
        for bad in (
            {"op": "submit"},                                # no job
            {"op": "submit", "job": "j", "gpus": 0},         # bad count
            {"op": "submit", "job": "j", "gpus": "four"},    # bad type
            {"op": "submit", "job": "j", "pattern": "nope"},  # bad pattern
            {"op": "submit", "job": "j", "workload": "zz"},  # bad workload
            {"op": "submit", "job": "j", "tenant": ""},      # bad tenant
        ):
            with pytest.raises(ProtocolError):
                SubmitSpec.from_payload(bad)

    def test_single_gpu_uses_trivial_pattern(self):
        spec = SubmitSpec.from_payload(
            {"op": "submit", "job": "j", "gpus": 1, "pattern": "ring"}
        )
        assert spec.pattern_graph().num_gpus == 1
        assert spec.pattern_graph().edges == ()


class TestBasicOps:
    def test_allocate_query_release(self, serve):
        socket_path, _ = serve()
        with AllocationClient(socket_path=socket_path) as client:
            response = client.submit("job-1", 4)
            assert response["status"] == "allocated"
            assert response["server"] == 0
            assert len(response["gpus"]) == 4
            assert "effective_bw" in response["scores"]

            queried = client.query("job-1")
            assert queried["status"] == "active"
            assert queried["gpus"] == response["gpus"]

            released = client.release("job-1")
            assert released["status"] == "released"
            assert released["gpus"] == 4
            assert client.query("job-1")["status"] == "unknown"

    def test_malformed_lines_answered_not_dropped(self, serve):
        socket_path, _ = serve()
        with AllocationClient(socket_path=socket_path) as client:
            client._sock.sendall(b"garbage\n")
            assert client.recv()["status"] == "error"
            client._sock.sendall(b'{"op": "explode"}\n')
            assert client.recv()["status"] == "error"
            # the connection survives both
            assert client.ping()["status"] == "ok"

    def test_tcp_port(self, serve):
        handle = start_daemon_thread(
            DaemonConfig(fleet="dgx1-v100:1", drain_grace=0.0), port=0
        )
        try:
            assert handle.port is not None
            with AllocationClient(port=handle.port) as client:
                assert client.ping()["status"] == "ok"
                assert client.submit("t", 2)["status"] == "allocated"
        finally:
            handle.stop(timeout=30)

    def test_unknown_job_release_is_an_error(self, serve):
        socket_path, _ = serve()
        with AllocationClient(socket_path=socket_path) as client:
            response = client.release("never-seen")
            assert response["status"] == "error"
            assert response["reason"] == "unknown-job"

    def test_noroom_probe(self, serve):
        socket_path, _ = serve(fleet="dgx1-v100:1")
        with AllocationClient(socket_path=socket_path) as client:
            assert client.submit("fill", 8)["status"] == "allocated"
            probe = client.submit("probe", 4, wait=False)
            assert probe["status"] == "noroom"
            # a noroom probe leaves no residue: same id reusable
            assert client.submit("probe", 8, wait=False)["status"] == "noroom"
            client.release("fill")
            assert client.submit("probe", 4)["status"] == "allocated"


class TestShutdown:
    def test_stop_with_a_connected_client_logs_nothing(self, serve, caplog):
        """Stopping closes live connections so their handlers return:
        asyncio has no cancelled handler to report."""
        socket_path, handle = serve()
        with AllocationClient(socket_path=socket_path) as client:
            assert client.ping()["status"] == "ok"
            with caplog.at_level("DEBUG", logger="asyncio"):
                handle.stop(timeout=30)
            with pytest.raises(ConnectionError):
                client.recv()
        asyncio_records = [r for r in caplog.records if r.name == "asyncio"]
        assert not asyncio_records, [r.getMessage() for r in asyncio_records]

    def test_stop_aborts_a_peer_that_stopped_reading(self, serve):
        """A client that floods requests and never reads the replies
        leaves its handler blocked on a full send buffer; stopping must
        not wait on it forever."""
        import socket

        socket_path, handle = serve()
        peer = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        peer.connect(socket_path)
        peer.settimeout(0.2)
        burst = encode_line({"op": "ping"}) * 1000
        try:
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                try:
                    peer.sendall(burst)
                except socket.timeout:
                    break  # the daemon stopped reading: its replies are stuck
            else:
                pytest.fail("the daemon kept reading a peer that never reads")
            start = time.monotonic()
            handle.stop(timeout=20)
            assert time.monotonic() - start < 10
        finally:
            peer.close()


class TestAdmission:
    def test_duplicate_job_rejected(self, serve):
        socket_path, _ = serve()
        with AllocationClient(socket_path=socket_path) as client:
            assert client.submit("dup", 2)["status"] == "allocated"
            response = client.submit("dup", 2)
            assert response["status"] == "rejected"
            assert response["reason"] == "duplicate-job"

    def test_oversized_submit_rejected_before_any_pattern_is_built(
        self, serve, monkeypatch
    ):
        """A submit wider than every server is refused on its size alone:
        no pattern is built for it, even when its name is also bad."""
        from repro.appgraph.application import ApplicationGraph

        built = []
        original = ApplicationGraph.__init__

        def spy(self, name, num_gpus, edges):
            built.append(num_gpus)
            if num_gpus > 8:  # never pay for the graph itself
                raise ValueError("spy: oversized pattern built")
            original(self, name, num_gpus, edges)

        monkeypatch.setattr(ApplicationGraph, "__init__", spy)
        socket_path, _ = serve(fleet="dgx1-v100:2")  # 8-GPU servers
        with AllocationClient(socket_path=socket_path) as client:
            for pattern in ("alltoall", "no-such-pattern"):
                response = client.submit(f"huge-{pattern}", 5000, pattern=pattern)
                assert response["status"] == "rejected"
                assert response["reason"] == "infeasible"
                assert response["max_gpus"] == 8
        assert all(width <= 8 for width in built), built

    def test_infeasible_request_rejected_not_queued(self, serve):
        socket_path, _ = serve(fleet="dgx1-v100:2")  # 8-GPU servers
        with AllocationClient(socket_path=socket_path) as client:
            response = client.submit("huge", 9)
            assert response["status"] == "rejected"
            assert response["reason"] == "infeasible"
            assert response["max_gpus"] == 8

    def test_tenant_quota_gpus(self, serve):
        socket_path, _ = serve(quota_gpus=8)
        with AllocationClient(socket_path=socket_path) as client:
            assert client.submit("a", 6, tenant="t1")["status"] == "allocated"
            over = client.submit("b", 4, tenant="t1")
            assert over["status"] == "rejected"
            assert over["reason"] == "tenant-quota"
            # another tenant is unaffected
            assert client.submit("c", 4, tenant="t2")["status"] == "allocated"
            # releasing returns the quota
            client.release("a")
            assert client.submit("b", 4, tenant="t1")["status"] == "allocated"

    def test_tenant_quota_requests(self, serve):
        socket_path, _ = serve(quota_requests=2)
        with AllocationClient(socket_path=socket_path) as client:
            assert client.submit("a", 1)["status"] == "allocated"
            assert client.submit("b", 1)["status"] == "allocated"
            over = client.submit("c", 1)
            assert over["status"] == "rejected"
            assert over["reason"] == "tenant-quota"

    def test_queue_full_rejection(self, serve):
        socket_path, _ = serve(fleet="dgx1-v100:1", queue_limit=2)
        with AllocationClient(socket_path=socket_path) as client:
            assert client.submit("fill", 8)["status"] == "allocated"
            # two waiters fit the queue, the third bounces immediately
            ids = [
                client.send({
                    "op": "submit", "job": f"w{i}", "gpus": 4, "wait": True,
                })
                for i in range(3)
            ]
            rejection = client.recv()
            assert rejection["id"] == ids[2]
            assert rejection["status"] == "rejected"
            assert rejection["reason"] == "queue-full"
            # free capacity: both waiters resolve in FIFO order
            client.send({"op": "release", "job": "fill"})
            got = {client.recv()["id"] for _ in range(3)}
            assert got == {ids[0], ids[1], client._next_id}

    def test_cancel_waiting_submit(self, serve):
        socket_path, _ = serve(fleet="dgx1-v100:1")
        with AllocationClient(socket_path=socket_path) as client:
            assert client.submit("fill", 8)["status"] == "allocated"
            wait_id = client.send(
                {"op": "submit", "job": "parked", "gpus": 4, "wait": True}
            )
            deadline = time.time() + 5
            while client.query("parked")["status"] != "waiting":
                assert time.time() < deadline
            canceled = client.release("parked")
            assert canceled["status"] == "released"
            assert canceled["canceled"] is True
            # the waiter's own rejection may already sit in the stash
            parked = client._stash.pop(wait_id, None) or client.recv()
            assert parked["id"] == wait_id
            assert parked["status"] == "rejected"
            assert parked["reason"] == "canceled"


class TestBatching:
    def test_pipelined_submits_coalesce(self, serve):
        socket_path, _ = serve(fleet="dgx1-v100:4", flush_window=0.05)
        with AllocationClient(socket_path=socket_path) as client:
            ids = [
                client.send({
                    "op": "submit", "job": f"b{i}", "gpus": 2, "wait": False,
                })
                for i in range(6)
            ]
            got = {client.recv()["id"] for _ in ids}
            assert got == set(ids)
            counters = client.stats()["counters"]
            assert counters["batched_dispatches"] >= 1
            assert counters["max_batch"] >= 2

    def test_lone_op_does_not_wait_out_the_window(self, serve):
        """The flush window bounds coalescing; a lone submit is
        dispatched on the next quiet loop tick, not after the window."""
        socket_path, _ = serve(fleet="dgx1-v100:4", flush_window=0.5)
        with AllocationClient(socket_path=socket_path) as client:
            assert client.ping()["status"] == "ok"
            start = time.monotonic()
            response = client.submit("lone", 2)
            elapsed = time.monotonic() - start
            assert response["status"] == "allocated"
            assert elapsed < 0.25, elapsed
            assert client.stats()["counters"]["dispatches"] == 1

    def test_stalled_reader_does_not_stall_other_clients(self, serve):
        """A peer that pipelines submit/release pairs and never reads is
        no longer read once its replies back up; other connections are
        still answered, and stopping leaves no task behind."""
        import socket

        socket_path, handle = serve()
        stalled = threading.Event()
        errors = []

        def flood(peer):
            # Stalled = a send still blocks after a pause in which a
            # daemon that kept reading would have emptied the socket.
            peer.settimeout(0.2)
            deadline = time.monotonic() + 10
            blocked = 0
            batch = 0
            try:
                while time.monotonic() < deadline:
                    burst = b"".join(
                        encode_line({"op": "submit", "job": f"s{batch}-{i}",
                                     "gpus": 1, "wait": False})
                        + encode_line({"op": "release",
                                       "job": f"s{batch}-{i}"})
                        for i in range(200)
                    )
                    batch += 1
                    try:
                        peer.sendall(burst)
                        blocked = 0
                    except socket.timeout:
                        blocked += 1
                        if blocked == 2:
                            stalled.set()
                            return
                        time.sleep(0.5)
                errors.append("the daemon kept reading a silent peer")
            except OSError as exc:
                errors.append(repr(exc))

        peer = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        peer.connect(socket_path)
        flooder = threading.Thread(target=flood, args=(peer,))
        flooder.start()
        try:
            flooder.join(timeout=30)
            assert not errors, errors
            assert stalled.is_set()
            with AllocationClient(socket_path=socket_path, timeout=1.0) as client:
                start = time.monotonic()
                assert client.ping()["status"] == "ok"
                assert "counters" in client.stats()
                assert time.monotonic() - start < 1.0
            start = time.monotonic()
            handle.stop(timeout=20)
            assert time.monotonic() - start < 10
        finally:
            peer.close()


class TestDrain:
    def test_graceful_drain_waits_for_releases(self, serve):
        socket_path, _ = serve(drain_grace=5.0)
        c1 = AllocationClient(socket_path=socket_path)
        c2 = AllocationClient(socket_path=socket_path)
        try:
            # fill the fleet so probes below answer noroom, not allocated
            assert c1.submit("lease-a", 8)["status"] == "allocated"
            assert c1.submit("lease-b", 8)["status"] == "allocated"
            result = {}

            def drainer():
                result["summary"] = c2.drain()

            thread = threading.Thread(target=drainer)
            thread.start()
            # admission closes as soon as the drain starts
            deadline = time.time() + 5
            probe = 0
            while True:
                probe += 1
                response = c1.submit(f"late-{probe}", 1, wait=False)
                if response["status"] == "rejected":
                    assert response["reason"] == "draining"
                    break
                assert response["status"] == "noroom"
                assert time.time() < deadline
            c1.release("lease-a")
            c1.release("lease-b")
            thread.join(timeout=30)
            summary = result["summary"]
            assert summary["status"] == "ok"
            assert summary["clean"] is True
            assert summary["forced_releases"] == 0
        finally:
            c1.close()
            c2.close()

    def test_drain_forces_leases_and_rejects_waiters(self, serve):
        socket_path, _ = serve(fleet="dgx1-v100:1", drain_grace=0.1)
        with AllocationClient(socket_path=socket_path) as client:
            assert client.submit("held", 8)["status"] == "allocated"
            wait_id = client.send(
                {"op": "submit", "job": "parked", "gpus": 4, "wait": True}
            )
            deadline = time.time() + 5
            while client.query("parked")["status"] != "waiting":
                assert time.time() < deadline
            drain_id = client.send({"op": "drain"})
            responses = {}
            for _ in range(2):
                response = client.recv()
                responses[response["id"]] = response
            assert responses[wait_id]["status"] == "rejected"
            assert responses[wait_id]["reason"] == "draining"
            summary = responses[drain_id]
            assert summary["clean"] is False
            assert summary["forced_releases"] == 1
            assert summary["rejected_waiting"] == 1

    def test_metrics_json_written_on_drain(self, serve, tmp_path):
        metrics_path = str(tmp_path / "metrics.json")
        socket_path, handle = serve(metrics_json=metrics_path)
        with AllocationClient(socket_path=socket_path) as client:
            client.submit("m", 2)
            client.release("m")
            client.drain()
        handle.join(timeout=30)
        with open(metrics_path, encoding="utf-8") as fh:
            snapshot = json.load(fh)
        assert snapshot["counters"]["allocated"] == 1
        assert snapshot["counters"]["released"] == 1
        assert "scan_lookups" in snapshot["cache"]
        assert snapshot["gauges"]["outstanding_jobs"] == 0

    def test_drain_writes_service_log_mlog(self, serve, tmp_path):
        """The drain's binary twin: one columnar service-log row per
        completed lease (released or forced), decodable with the sweep
        cache's own reader."""
        from repro.sim.records import decode_mlog

        metrics_path = str(tmp_path / "metrics.json")
        spill_root = str(tmp_path / "cache")
        socket_path, handle = serve(
            metrics_json=metrics_path, spill_root=spill_root
        )
        with AllocationClient(socket_path=socket_path) as client:
            client.submit("done", 1, tenant="alpha")
            client.release("done")
            client.submit("stuck", 2, tenant="beta", wait=False)
            client.drain()
        handle.join(timeout=30)
        with open(str(tmp_path / "metrics.mlog"), "rb") as fh:
            meta, log = decode_mlog(fh.read())
        assert meta["kind"] == "serve-drain"
        assert meta["forced_releases"] == 1
        rows = log.records
        assert [r.workload for r in rows] == ["alpha", "beta"]
        assert all(r.pattern == "serve" for r in rows)
        assert rows[0].num_gpus == 1 and rows[1].num_gpus == 2
        assert all(r.finish_time >= r.start_time >= 0.0 for r in rows)
        with open(metrics_path, encoding="utf-8") as fh:
            snapshot = json.load(fh)
        assert snapshot["service_log_rows"] == 2
        assert set(snapshot["store_tiers"]) == {"cells", "scan"}
        assert snapshot["store_tiers"]["scan"]["files"] > 0


class TestWarmRestart:
    def test_drain_spills_and_restart_rehydrates(self, serve, tmp_path):
        spill_root = str(tmp_path / "cache")
        socket_path, handle = serve(index=0, spill_root=spill_root)
        with AllocationClient(socket_path=socket_path) as client:
            for i in range(4):
                assert client.submit(f"w{i}", 4)["status"] == "allocated"
            for i in range(4):
                client.release(f"w{i}")
            summary = client.drain()
        handle.join(timeout=30)
        assert summary["spilled_entries"] > 0

        socket_path2, handle2 = serve(index=1, spill_root=spill_root)
        with AllocationClient(socket_path=socket_path2) as client:
            stats = client.stats()
            assert stats["counters"]["warm_entries"] > 0
            audit = stats["spill_audit"]
            assert audit["valid_partitions"] > 0
            assert audit["corrupt_partitions"] == 0
            # the rehydrated cache actually serves the rerun
            assert client.submit("again", 4)["status"] == "allocated"
            cache = client.stats()["cache"]
            assert cache["scan_hits"] >= 1
            client.drain()
        handle2.join(timeout=30)

    def test_corrupt_partition_surfaces_in_daemon_metrics(
        self, serve, tmp_path
    ):
        spill_root = str(tmp_path / "cache")
        socket_path, handle = serve(index=0, spill_root=spill_root)
        with AllocationClient(socket_path=socket_path) as client:
            client.submit("seed", 4)
            client.release("seed")
            client.drain()
        handle.join(timeout=30)

        from repro.experiments.store import ContentStore

        content = ContentStore(spill_root)
        keys = content.scan("scan")
        assert keys
        with open(content.path("scan", keys[0]), "wb") as fh:
            fh.write(b"MLOG torn")

        socket_path2, _ = serve(index=1, spill_root=spill_root)
        with AllocationClient(socket_path=socket_path2) as client:
            stats = client.stats()
            assert stats["spill_audit"]["corrupt_partitions"] == 1
            assert stats["spill"]["corrupt_partitions"] == 1
            client.drain()


    def test_stats_requests_read_no_partition(
        self, serve, tmp_path, monkeypatch
    ):
        """The spill audit is taken at startup and after the drain's
        spill; ``stats`` requests serve the cached result and never
        touch the tier, however many arrive."""
        from repro.experiments.store import ContentStore

        spill_root = str(tmp_path / "cache")
        socket_path, handle = serve(index=0, spill_root=spill_root)
        with AllocationClient(socket_path=socket_path) as client:
            client.submit("seed", 4)
            client.release("seed")
            client.drain()
        handle.join(timeout=30)

        socket_path2, _ = serve(index=1, spill_root=spill_root)
        calls = []
        for name in ("get", "verify", "scan", "stats"):
            real = getattr(ContentStore, name)

            def spy(self, *args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(ContentStore, name, spy)
        with AllocationClient(socket_path=socket_path2) as client:
            audits = [client.stats()["spill_audit"] for _ in range(5)]
            assert calls == []
            assert audits[0]["valid_partitions"] > 0
            assert all(audit == audits[0] for audit in audits)
            client.drain()
        assert "verify" in calls  # the drain re-audits after its spill


class TestShardedBackend:
    def test_sharded_matches_single_backend(self, serve):
        ops = [("s", f"j{i}", 2 + 2 * (i % 3)) for i in range(8)]
        ops.insert(5, ("r", "j1", None))
        ops.insert(8, ("r", "j3", None))

        def run(**kwargs):
            socket_path, handle = serve(
                index=kwargs.pop("index"), fleet="dgx1-v100:4", **kwargs
            )
            placed = {}
            with AllocationClient(socket_path=socket_path) as client:
                for op in ops:
                    if op[0] == "s":
                        response = client.submit(op[1], op[2], wait=False)
                        if response["status"] == "allocated":
                            placed[op[1]] = (
                                response["server"], response["gpus"],
                            )
                    else:
                        client.release(op[1])
                        placed.pop(op[1], None)
                client.drain()
            handle.join(timeout=30)
            return placed

        single = run(index=0)
        sharded = run(index=1, shards=2, shard_mode="inline")
        assert json.dumps(single, sort_keys=True) == json.dumps(
            sharded, sort_keys=True
        )

    def test_sharded_stats_aggregate(self, serve):
        socket_path, _ = serve(
            index=0, fleet="dgx1-v100:4", shards=2, shard_mode="inline"
        )
        with AllocationClient(socket_path=socket_path) as client:
            client.submit("a", 4)
            stats = client.stats()
            assert stats["cache"]["scan_lookups"] >= 1
            client.release("a")
            client.drain()
