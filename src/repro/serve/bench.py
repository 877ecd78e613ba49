"""Load generator for the allocation daemon (``mapa serve --bench``).

Drives a running daemon with a :class:`~repro.scenarios.spec.ScenarioSpec`
job stream — the same seeded arrival/mix machinery every replay uses —
over one pipelined client connection, and reports sustained
requests/sec.  Pipelining is the point: submits are fired without
waiting for responses, so the daemon sees a burst of ops on each wake
and coalesces them into batched dispatches (the flush window only
bounds that coalescing) instead of seeing one lonely op per wake.

The generator keeps a bounded set of live allocations (``max_active``)
and releases the oldest as new ones land, so the fleet reaches a
steady churn state — the regime the paper's allocator lives in — rather
than filling once and answering ``noroom`` forever.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from ..scenarios.fleet import FleetSpec
from ..scenarios.spec import ScenarioSpec
from ..workloads.jobs import Job
from .client import AllocationClient

__all__ = [
    "SERVE_BENCH_FLEET",
    "LoadReport",
    "bench_jobs",
    "run_load",
]

#: The 64-server heterogeneous fleet the serving benchmark runs on
#: (40 + 16 + 8 servers; same shape as ``mixed_fleet(64)``).
SERVE_BENCH_FLEET = "dgx1-v100:40,dgx1-p100:16,dgx2:8"


@dataclass
class LoadReport:
    """What one load run did, from the client's point of view."""

    submitted: int
    allocated: int
    noroom: int
    rejected: int
    released: int
    errors: int
    duration: float

    @property
    def requests(self) -> int:
        """Total request/response round trips the run completed."""
        return self.submitted + self.released

    @property
    def requests_per_sec(self) -> float:
        """Sustained throughput over the whole run."""
        return self.requests / self.duration if self.duration > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (benchmark tables, CI artifacts)."""
        return {
            "submitted": self.submitted,
            "allocated": self.allocated,
            "noroom": self.noroom,
            "rejected": self.rejected,
            "released": self.released,
            "errors": self.errors,
            "duration_sec": self.duration,
            "requests": self.requests,
            "requests_per_sec": self.requests_per_sec,
        }


def bench_jobs(
    num_jobs: int,
    seed: int = 11,
    fleet: str = SERVE_BENCH_FLEET,
    name: str = "serve-bench",
) -> List[Job]:
    """The seeded job stream a bench run submits, in arrival order."""
    spec = ScenarioSpec(num_jobs=num_jobs, seed=seed, name=name)
    fleet_spec = FleetSpec.parse(fleet)
    return list(spec.resolve(fleet_spec.min_gpus_per_server()).build().jobs)


def run_load(
    client: AllocationClient,
    jobs: List[Job],
    window: int = 64,
    max_active: int = 48,
    tenant: str = "bench",
    job_prefix: str = "",
) -> LoadReport:
    """Pump ``jobs`` through ``client`` pipelined; returns the report.

    ``window`` bounds in-flight requests (submits + releases) on the
    wire; ``max_active`` bounds live allocations, with the oldest
    released first.  Submits use ``wait=False`` so a full fleet answers
    ``noroom`` immediately instead of parking the pipeline.
    """
    counts = {
        "allocated": 0, "noroom": 0, "rejected": 0,
        "released": 0, "errors": 0,
    }
    active: Deque[Any] = deque()
    outstanding = 0
    released_sent = 0

    def account(response: Dict[str, Any]) -> None:
        status = response.get("status")
        if status == "allocated":
            counts["allocated"] += 1
            active.append(response["job"])
        elif status == "noroom":
            counts["noroom"] += 1
        elif status == "rejected":
            counts["rejected"] += 1
        elif status == "released":
            counts["released"] += 1
        else:
            counts["errors"] += 1

    start = time.perf_counter()
    for job in jobs:
        client.send({
            "op": "submit",
            "job": f"{job_prefix}{job.job_id}",
            "gpus": job.num_gpus,
            "pattern": job.pattern,
            "workload": job.workload,
            "sensitive": job.bandwidth_sensitive,
            "tenant": tenant,
            "wait": False,
        })
        outstanding += 1
        while outstanding >= window:
            account(client.recv())
            outstanding -= 1
        while len(active) > max_active:
            client.send({"op": "release", "job": active.popleft()})
            outstanding += 1
            released_sent += 1
    while outstanding > 0:
        account(client.recv())
        outstanding -= 1
    while active:
        client.send({"op": "release", "job": active.popleft()})
        outstanding += 1
        released_sent += 1
        if outstanding >= window:
            account(client.recv())
            outstanding -= 1
    while outstanding > 0:
        account(client.recv())
        outstanding -= 1
    duration = time.perf_counter() - start
    return LoadReport(
        submitted=len(jobs),
        allocated=counts["allocated"],
        noroom=counts["noroom"],
        rejected=counts["rejected"],
        released=counts["released"],
        errors=counts["errors"],
        duration=duration,
    )
