"""Daemon vs. replay: parallel clients, byte-identical ledger.

The service promise of :mod:`repro.serve` is that putting the
scheduler behind a socket changes *how* operations arrive, not *what*
they decide.  The anchor test here records the exact serial
place/release sequence a seeded :func:`run_cluster` replay drives
through its :class:`MultiServerScheduler`, replays it through a live
daemon from N genuinely concurrent client connections, and requires
the daemon's allocation ledger to be byte-identical (same servers,
same GPU sets) to the simulator's.

A second suite hammers the daemon with unsynchronized clients and
checks the invariants that must survive arbitrary interleaving:
consistent responses, a ledger that matches what clients hold, quota
conservation, and a clean drain.
"""

import json
import threading

import pytest

from repro.cluster.simulator import MultiServerSimulator
from repro.scenarios.fleet import FleetSpec
from repro.scenarios.spec import ScenarioSpec
from repro.serve import AllocationClient, DaemonConfig, start_daemon_thread

FLEET = "dgx1-v100:2,dgx1-p100:1"

#: Daemon task hygiene: no task left pending, no coroutine left unawaited.
pytestmark = [
    pytest.mark.usefixtures("no_pending_tasks"),
    pytest.mark.filterwarnings("error::RuntimeWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


def _scenario(num_jobs=40, seed=7):
    fleet = FleetSpec.parse(FLEET)
    spec = ScenarioSpec(num_jobs=num_jobs, seed=seed, name="serve-conc")
    trace = spec.resolve(fleet.min_gpus_per_server()).build()
    return fleet, trace


def _record_serial(fleet, trace):
    """Run the trace through the batch simulator, recording every
    scheduler call (including failed placement attempts) in order."""
    sim = MultiServerSimulator(fleet.build())
    scheduler = sim.scheduler
    ops, ledger = [], {}
    orig_place, orig_release = scheduler.try_place, scheduler.release

    def rec_place(request):
        placement = orig_place(request)
        if placement is None:
            ops.append(("noroom", request.job_id))
        else:
            ops.append(("place", request.job_id))
            ledger[str(request.job_id)] = [
                placement.server_index,
                [int(g) for g in placement.gpus],
            ]
        return placement

    def rec_release(job_id):
        ops.append(("release", job_id))
        return orig_release(job_id)

    scheduler.try_place = rec_place
    scheduler.release = rec_release
    sim.run(trace)
    return ops, ledger


def _replay_parallel(ops, jobs_by_id, socket_path, num_clients=4):
    """Replay the recorded op sequence through ``num_clients`` live
    connections.  A shared lock hands out ops one at a time in recorded
    order — the clients are real concurrent connections, the *sequence*
    is the serial one, so any divergence is the daemon's doing."""
    clients = [
        AllocationClient(socket_path=socket_path) for _ in range(num_clients)
    ]
    it = iter(ops)
    lock = threading.Lock()
    ledger = {}
    failures = []

    def worker(client):
        while True:
            with lock:
                try:
                    kind, job_id = next(it)
                except StopIteration:
                    return
                try:
                    if kind == "release":
                        response = client.release(job_id)
                        if response.get("status") != "released":
                            raise AssertionError(
                                f"release {job_id!r}: {response}"
                            )
                        continue
                    job = jobs_by_id[job_id]
                    response = client.submit(
                        job.job_id,
                        job.num_gpus,
                        pattern=job.pattern,
                        workload=job.workload,
                        sensitive=job.bandwidth_sensitive,
                        wait=False,
                    )
                    status = response.get("status")
                    if kind == "place":
                        if status != "allocated":
                            raise AssertionError(
                                f"place {job_id!r}: {response}"
                            )
                        ledger[str(job_id)] = [
                            response["server"], response["gpus"],
                        ]
                    elif status != "noroom":
                        raise AssertionError(
                            f"noroom {job_id!r}: {response}"
                        )
                except Exception as exc:  # surface in the main thread
                    failures.append(exc)
                    return

    threads = [
        threading.Thread(target=worker, args=(client,)) for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    for client in clients:
        client.close()
    if failures:
        raise failures[0]
    return ledger


def test_parallel_clients_match_serial_replay(tmp_path):
    """N parallel clients replaying the simulator's op sequence end
    with a byte-identical allocation ledger."""
    fleet, trace = _scenario()
    ops, serial_ledger = _record_serial(fleet, trace)
    assert serial_ledger, "scenario placed nothing — test is vacuous"
    assert any(kind == "release" for kind, _ in ops)

    jobs_by_id = {job.job_id: job for job in trace.jobs}
    config = DaemonConfig(fleet=FLEET, queue_limit=1024)
    socket_path = str(tmp_path / "replay.sock")
    handle = start_daemon_thread(config, socket_path=socket_path)
    try:
        daemon_ledger = _replay_parallel(ops, jobs_by_id, socket_path)
        still_placed = set()
        for kind, job_id in ops:
            if kind == "place":
                still_placed.add(job_id)
            elif kind == "release":
                still_placed.discard(job_id)
        with AllocationClient(socket_path=socket_path) as client:
            gauges = client.stats()["gauges"]
            assert gauges["outstanding_jobs"] == len(still_placed)
            client.drain()
    finally:
        handle.join(timeout=60)

    assert json.dumps(daemon_ledger, sort_keys=True) == json.dumps(
        serial_ledger, sort_keys=True
    )


def test_unsynchronized_clients_keep_ledger_consistent(tmp_path):
    """Free-running clients: whatever the interleaving, every response
    is coherent, the daemon's ledger matches what clients hold, and the
    drain is clean once they let go."""
    num_clients, per_client = 4, 30
    socket_path = str(tmp_path / "stress.sock")
    handle = start_daemon_thread(
        DaemonConfig(fleet=FLEET, queue_limit=1024),
        socket_path=socket_path,
    )
    held = [dict() for _ in range(num_clients)]
    failures = []

    def worker(index):
        try:
            with AllocationClient(socket_path=socket_path) as client:
                for i in range(per_client):
                    job_id = f"c{index}-j{i}"
                    response = client.submit(
                        job_id, 2 + 2 * (i % 3), wait=False
                    )
                    status = response["status"]
                    if status == "allocated":
                        held[index][job_id] = [
                            response["server"], response["gpus"],
                        ]
                    elif status != "noroom":
                        raise AssertionError(f"{job_id}: {response}")
                    # churn: keep at most 3 live per client
                    while len(held[index]) > 3:
                        victim = next(iter(held[index]))
                        released = client.release(victim)
                        if released["status"] != "released":
                            raise AssertionError(f"{victim}: {released}")
                        del held[index][victim]
        except Exception as exc:
            failures.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if failures:
        raise failures[0]

    with AllocationClient(socket_path=socket_path) as client:
        stats = client.stats()
        outstanding = {
            job_id: placed
            for by_client in held
            for job_id, placed in by_client.items()
        }
        assert stats["gauges"]["outstanding_jobs"] == len(outstanding)
        assert stats["gauges"]["outstanding_gpus"] == sum(
            len(placed[1]) for placed in outstanding.values()
        )
        # the daemon's view of each held job matches the client's
        for job_id, (server, gpus) in outstanding.items():
            queried = client.query(job_id)
            assert queried["status"] == "active"
            assert queried["server"] == server
            assert queried["gpus"] == gpus
        counters = stats["counters"]
        assert counters["allocated"] == counters["released"] + len(
            outstanding
        )
        for job_id in outstanding:
            assert client.release(job_id)["status"] == "released"
        summary = client.drain()
        assert summary["clean"] is True
        assert summary["forced_releases"] == 0
    handle.join(timeout=60)
