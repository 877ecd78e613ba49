"""Jobs and job files (paper Fig. 14, top-left).

A job file row is ``ID, NumGPUs, Topology, BW Sensitive`` plus the
workload name; the dispatcher feeds rows into the FIFO queue in order.
Job files round-trip through a simple CSV representation so traces can be
saved, inspected and replayed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..appgraph import patterns
from ..appgraph.application import ApplicationGraph
from ..policies.base import AllocationRequest
from .catalog import Workload, get_workload

#: Writes a field past the frozen ``__setattr__`` (see :meth:`Job.__init__`).
_set = object.__setattr__

_HEADER = "id,workload,num_gpus,pattern,bw_sensitive,submit_time"


@dataclass(frozen=True, init=False)
class Job:
    """One entry of a job file."""

    job_id: int
    workload: str
    num_gpus: int
    pattern: str
    bandwidth_sensitive: bool
    submit_time: float = 0.0

    def __init__(
        self,
        job_id: int,
        workload: str,
        num_gpus: int,
        pattern: str,
        bandwidth_sensitive: bool,
        submit_time: float = 0.0,
    ) -> None:
        """Validate GPU count and submit time, then fill the fields.

        Hand-written: the generated frozen ``__init__`` looks up
        ``object.__setattr__`` per field and then dispatches to
        ``__post_init__``, the larger part of building a 10k-job trace.
        The fields are not written through ``self.__dict__``, which
        would give every job its own dict: twice the memory per job,
        and slower cold replays.
        """
        if num_gpus < 1:
            raise ValueError(f"job {job_id}: num_gpus must be ≥ 1")
        if submit_time < 0:
            raise ValueError(f"job {job_id}: negative submit time")
        _set(self, "job_id", job_id)
        _set(self, "workload", workload)
        _set(self, "num_gpus", num_gpus)
        _set(self, "pattern", pattern)
        _set(self, "bandwidth_sensitive", bandwidth_sensitive)
        _set(self, "submit_time", submit_time)

    # ------------------------------------------------------------------ #
    def application_graph(self) -> ApplicationGraph:
        """The job's communication pattern over its GPU slots.

        Single-GPU jobs always use the trivial pattern regardless of the
        declared pattern name.
        """
        if self.num_gpus == 1:
            return patterns.by_name("single", 1)
        return patterns.by_name(self.pattern, self.num_gpus)

    def request(self) -> AllocationRequest:
        """The allocation request MAPA receives for this job."""
        return AllocationRequest(
            pattern=self.application_graph(),
            bandwidth_sensitive=self.bandwidth_sensitive,
            job_id=self.job_id,
        )

    def workload_spec(self) -> Workload:
        """The catalogued workload profile this job runs."""
        return get_workload(self.workload)

    def to_csv_row(self) -> str:
        """One CSV line in job-file column order."""
        return (
            f"{self.job_id},{self.workload},{self.num_gpus},"
            f"{self.pattern},{int(self.bandwidth_sensitive)},{self.submit_time}"
        )

    @classmethod
    def from_csv_row(cls, row: str) -> "Job":
        """Parse one CSV line (submit time optional, defaults to 0)."""
        parts = [p.strip() for p in row.split(",")]
        if len(parts) not in (5, 6):
            raise ValueError(f"malformed job row: {row!r}")
        submit = float(parts[5]) if len(parts) == 6 else 0.0
        return cls(
            job_id=int(parts[0]),
            workload=parts[1],
            num_gpus=int(parts[2]),
            pattern=parts[3],
            bandwidth_sensitive=bool(int(parts[4])),
            submit_time=submit,
        )


class JobFile:
    """An ordered collection of jobs (the simulator's input)."""

    def __init__(self, jobs: Iterable[Job]) -> None:
        self.jobs: List[Job] = list(jobs)
        ids = [j.job_id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in job file")

    def __len__(self) -> int:
        """Number of jobs in the trace."""
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        """Iterate in submission order."""
        return iter(self.jobs)

    def __getitem__(self, idx: int) -> Job:
        """The ``idx``-th job of the trace."""
        return self.jobs[idx]

    def max_gpus(self) -> int:
        """Largest GPU request in the trace (0 when empty)."""
        return max((j.num_gpus for j in self.jobs), default=0)

    # ------------------------------------------------------------------ #
    def to_csv(self) -> str:
        """The whole trace as CSV, header included."""
        buf = io.StringIO()
        buf.write(_HEADER + "\n")
        for job in self.jobs:
            buf.write(job.to_csv_row() + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "JobFile":
        """Parse a CSV trace (header line optional)."""
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            return cls([])
        start = 1 if lines[0].lower().startswith("id,") else 0
        return cls(Job.from_csv_row(ln) for ln in lines[start:])

    def save(self, path: str) -> None:
        """Write the trace to ``path`` as CSV."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    @classmethod
    def load(cls, path: str) -> "JobFile":
        """Read a CSV trace from ``path``."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_csv(fh.read())
