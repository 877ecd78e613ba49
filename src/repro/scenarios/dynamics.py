"""Seeded fleet-dynamics event streams (failures, autoscale, preemption).

A :class:`DynamicsSpec` is the chaos axis of a scenario: a frozen,
declarative description of the fleet *mutations* a replay injects —
server failure/repair cycles, autoscale shrink (drain-then-remove) and
grow (add-with-shared-wiring), and job preemption with requeue.  Like
an :class:`~repro.scenarios.arrivals.ArrivalProcess` it is a pure value
object: :meth:`DynamicsSpec.build` seeds one fresh
:class:`numpy.random.Generator` from the spec's own seed and draws the
whole event stream in a fixed order, so the same spec produces the same
:class:`FleetEvent` sequence in any process — the property the sweep
cache and the golden chaos tables rely on.

Event semantics (implemented by the simulation cores and the
:class:`~repro.cluster.scheduler.MultiServerScheduler`):

``fail``
    The server goes down instantly.  Every allocation on it dies; the
    spec's *casualty policy* decides whether the victims requeue at the
    front of the queue in allocation order (``casualty="requeue"``, the
    default) or are dropped from the run entirely (``casualty="kill"``).
    Each failure is paired with a ``repair`` drawn an exponential
    downtime later.
``repair``
    The failed server comes back empty and schedulable.
``remove``
    Autoscale shrink: the server is drained — it accepts no new
    placements, running jobs finish naturally — and leaves the fleet.
``add``
    Autoscale grow: a new server of ``topology`` joins, wired through
    the fleet's shared :class:`~repro.topology.linktable.LinkTable`
    (the ``adopt_link_table`` path), immediately schedulable.
``preempt``
    One running job is evicted and requeued at the *back* of the queue.
    The victim is chosen by the spec's victim policy over the running
    jobs ordered by ``(start_time, job_id)``: ``youngest`` (latest
    start), ``oldest`` (earliest start) or ``rank`` (the event's
    ``victim_rank`` modulo the number of running jobs).

Determinism contract: fleet events are injected into the engines at
:data:`~repro.sim.engine.FLEET_PRIORITY`, so a mutation that collides
with a job event's timestamp always applies *first* — identically in
the simulation core and its reference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: Actions a :class:`FleetEvent` can carry, in no particular order.
ACTIONS = ("fail", "repair", "remove", "add", "preempt")

#: Casualty policies for allocations on a failed server.
CASUALTY_POLICIES = ("requeue", "kill")

#: Victim-selection policies for preemption events.
VICTIM_POLICIES = ("youngest", "oldest", "rank")


@dataclass(frozen=True)
class FleetEvent:
    """One concrete fleet mutation at an absolute time.

    ``server`` indexes the *initial* fleet (adds never target a server;
    preemptions pick their victim by policy, not by server).
    ``topology`` names the hardware graph an ``add`` instantiates;
    ``victim_rank`` feeds the ``rank`` victim policy.
    """

    time: float
    action: str
    server: int = -1
    topology: str = ""
    victim_rank: int = 0

    def __post_init__(self) -> None:
        """Validate action and time."""
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fleet action {self.action!r}")
        if self.time < 0:
            raise ValueError(f"fleet event time must be ≥ 0, got {self.time}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "time": self.time,
            "action": self.action,
            "server": self.server,
            "topology": self.topology,
            "victim_rank": self.victim_rank,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FleetEvent":
        """Rebuild an event from its :meth:`to_dict` form."""
        return cls(**dict(payload))


@dataclass(frozen=True)
class DynamicsSpec:
    """Declarative fleet-dynamics axis of a scenario.

    Parameters
    ----------
    seed:
        Seed of the dedicated dynamics generator.  Independent of the
        scenario's trace seed, so the same job stream can be replayed
        under different chaos and vice versa.
    horizon:
        Mutations are drawn uniformly over ``[0, horizon)`` seconds.
    failures:
        Number of failure/repair cycles.  Each failure picks a server
        uniformly from the initial fleet and repairs an
        exponentially-distributed downtime later (mean
        ``mean_downtime``).
    mean_downtime:
        Mean seconds between a failure and its repair.
    grows:
        Autoscale additions.  Each adds one server of ``grow_topology``
        (or a uniformly drawn initial-fleet topology when empty).
    shrinks:
        Autoscale removals (drain-then-remove of a uniformly drawn
        initial-fleet server).
    grow_topology:
        Hardware-graph name the grown servers use; empty means "draw
        from the initial fleet's topologies".
    preemptions:
        Number of single-job eviction events.
    casualty:
        What happens to allocations on a failed server: ``"requeue"``
        (front of queue, allocation order) or ``"kill"`` (dropped).
    victim:
        Preemption victim policy: ``"youngest"``, ``"oldest"`` or
        ``"rank"``.
    """

    seed: int = 7
    horizon: float = 600.0
    failures: int = 0
    mean_downtime: float = 60.0
    grows: int = 0
    shrinks: int = 0
    grow_topology: str = ""
    preemptions: int = 0
    casualty: str = "requeue"
    victim: str = "youngest"

    def __post_init__(self) -> None:
        """Validate counts and policies."""
        if not self.horizon > 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if not self.mean_downtime > 0:
            raise ValueError(
                f"mean_downtime must be > 0, got {self.mean_downtime}"
            )
        for field_name in ("failures", "grows", "shrinks", "preemptions"):
            value = getattr(self, field_name)
            if value < 0:
                raise ValueError(f"{field_name} must be ≥ 0, got {value}")
        if self.casualty not in CASUALTY_POLICIES:
            raise ValueError(
                f"casualty must be one of {CASUALTY_POLICIES}, "
                f"got {self.casualty!r}"
            )
        if self.victim not in VICTIM_POLICIES:
            raise ValueError(
                f"victim must be one of {VICTIM_POLICIES}, got {self.victim!r}"
            )

    @property
    def total_events(self) -> int:
        """Events :meth:`build` emits (failures count twice: +repair)."""
        return (
            2 * self.failures + self.grows + self.shrinks + self.preemptions
        )

    def is_empty(self) -> bool:
        """True when the spec describes no mutations at all."""
        return self.total_events == 0

    # ------------------------------------------------------------------ #
    # event-stream generation
    # ------------------------------------------------------------------ #
    def build(self, topologies: Sequence[str]) -> Tuple[FleetEvent, ...]:
        """The concrete event stream over an initial fleet.

        ``topologies`` is the per-server hardware-graph name of the
        initial fleet (``FleetSpec.topologies``); its length fixes the
        server-index draw range and its values feed topology draws for
        grows.  Draws flow through one fresh generator in a fixed order
        — failures, then shrinks, then grows, then preemptions — and
        the stream is stably sorted by time, so the same
        ``(spec, fleet)`` pair yields the same stream everywhere.
        """
        num_servers = len(topologies)
        if num_servers == 0:
            raise ValueError("cannot build dynamics over an empty fleet")
        rng = np.random.default_rng(self.seed)
        events: List[FleetEvent] = []
        for _ in range(self.failures):
            server = int(rng.integers(num_servers))
            t = float(rng.uniform(0.0, self.horizon))
            downtime = float(rng.exponential(self.mean_downtime))
            events.append(FleetEvent(t, "fail", server=server))
            events.append(FleetEvent(t + downtime, "repair", server=server))
        for _ in range(self.shrinks):
            server = int(rng.integers(num_servers))
            t = float(rng.uniform(0.0, self.horizon))
            events.append(FleetEvent(t, "remove", server=server))
        for _ in range(self.grows):
            if self.grow_topology:
                topology = self.grow_topology
            else:
                topology = topologies[int(rng.integers(num_servers))]
            t = float(rng.uniform(0.0, self.horizon))
            events.append(FleetEvent(t, "add", topology=topology))
        for _ in range(self.preemptions):
            t = float(rng.uniform(0.0, self.horizon))
            rank = int(rng.integers(1 << 16))
            events.append(FleetEvent(t, "preempt", victim_rank=rank))
        events.sort(key=lambda e: e.time)  # stable: draw order breaks ties
        return tuple(events)

    # ------------------------------------------------------------------ #
    # hashing / round-trips
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form, the axis's contribution to cell hashes."""
        return {
            "kind": "dynamics",
            "seed": self.seed,
            "horizon": self.horizon,
            "failures": self.failures,
            "mean_downtime": self.mean_downtime,
            "grows": self.grows,
            "shrinks": self.shrinks,
            "grow_topology": self.grow_topology,
            "preemptions": self.preemptions,
            "casualty": self.casualty,
            "victim": self.victim,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DynamicsSpec":
        """Rebuild a spec from its :meth:`to_dict` form."""
        data = dict(payload)
        kind = data.pop("kind", "dynamics")
        if kind != "dynamics":
            raise ValueError(f"not a dynamics payload: {kind!r}")
        return cls(**data)

    @classmethod
    def parse(cls, text: str) -> "DynamicsSpec":
        """Parse the CLI form ``key=value[,key=value...]``.

        Keys are the dataclass fields; integer/float fields are
        converted, string fields pass through.  Example::

            failures=3,grows=1,shrinks=1,preemptions=5,horizon=400
        """
        spec = cls()
        if not text.strip():
            return spec
        int_fields = {"seed", "failures", "grows", "shrinks", "preemptions"}
        float_fields = {"horizon", "mean_downtime"}
        str_fields = {"grow_topology", "casualty", "victim"}
        updates: Dict[str, Any] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(
                    f"bad dynamics item {item!r}: expected key=value"
                )
            key, _, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if key in int_fields:
                updates[key] = int(value)
            elif key in float_fields:
                updates[key] = float(value)
            elif key in str_fields:
                updates[key] = value
            else:
                known = ", ".join(
                    sorted(int_fields | float_fields | str_fields)
                )
                raise ValueError(
                    f"unknown dynamics key {key!r}; known: {known}"
                )
        return replace(spec, **updates)

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = []
        if self.failures:
            parts.append(
                f"{self.failures} failure/repair "
                f"(mean downtime {self.mean_downtime:g}s, {self.casualty})"
            )
        if self.shrinks:
            parts.append(f"{self.shrinks} shrink")
        if self.grows:
            topo = self.grow_topology or "fleet-drawn"
            parts.append(f"{self.grows} grow ({topo})")
        if self.preemptions:
            parts.append(f"{self.preemptions} preempt ({self.victim})")
        if not parts:
            return "static fleet (no dynamics)"
        return (
            f"dynamics seed {self.seed}, horizon {self.horizon:g}s: "
            + ", ".join(parts)
        )


def dynamics_from_dict(payload: Mapping[str, Any]) -> DynamicsSpec:
    """Module-level alias matching ``arrival_from_dict``'s shape."""
    return DynamicsSpec.from_dict(payload)
