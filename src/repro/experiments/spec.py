"""Declarative experiment specifications.

Every figure and table of the paper is a sweep over (topology × policy ×
queue discipline × trace): generate a trace, simulate it under a grid of
configurations, derive metrics from the logs.  :class:`ExperimentSpec`
captures the grid declaratively; :meth:`ExperimentSpec.expand` flattens
it into deterministic per-cell :class:`CellConfig`\\ s, each of which is
one simulation run and hashes to a stable key for the result cache.

The hash covers exactly the code-relevant parameters (trace shape and
seed, topology, policy, discipline, model mode and fit sizes) plus a
schema version, so editing anything that could change a cell's outcome
changes its key and forces a recompute.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..policies.registry import POLICY_NAMES
from ..scoring.census import census_of_allocation
from ..sim.disciplines import DISCIPLINES
from ..topology.builders import TOPOLOGY_BUILDERS, by_name
from ..workloads.catalog import get_workload
from ..workloads.generator import generate_job_file
from ..workloads.jobs import JobFile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scenarios.spec import ScenarioSpec

#: Bump when the cached result layout (or the meaning of a cell's
#: parameters) changes; every old cache entry then misses cleanly.
CACHE_SCHEMA = "mapa-sweep-v1"

#: The trace axis of a grid: the paper's declarative trace shape or a
#: generated :class:`~repro.scenarios.spec.ScenarioSpec` — both expose
#: ``resolve(num_gpus)`` / ``build()`` / ``to_dict()``, which is all the
#: grid machinery (and the cell hash) ever touches.  Scenario dicts
#: carry a ``"kind": "scenario"`` discriminator, so the two can never
#: collide in the cache.  (Typed as a forward union to keep
#: ``repro.experiments`` import-free of ``repro.scenarios`` at runtime —
#: scenario mixes anchor to :mod:`repro.experiments.presets`, and a
#: module-level import here would close that cycle.)
AnyTraceSpec = Union["TraceSpec", "ScenarioSpec"]

#: Policies a spec may name: the paper's four plus the oracle bound.
SWEEPABLE_POLICIES: Tuple[str, ...] = tuple(POLICY_NAMES) + ("oracle",)


@dataclass(frozen=True)
class TraceSpec:
    """Declarative description of a generated job trace.

    ``max_gpus`` is clamped to the topology's GPU count at expansion
    time (the CLI and benchmarks have always requested
    ``min(5, hw.num_gpus)``), so one trace spec serves every topology in
    a grid while each cell hashes its *resolved* parameters.
    """

    num_jobs: int = 300
    seed: int = 2021
    min_gpus: int = 1
    max_gpus: int = 5
    workload_names: Optional[Tuple[str, ...]] = None
    arrival_rate: Optional[float] = None

    def __post_init__(self) -> None:
        """Validate ranges and normalise the workload-name tuple."""
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be ≥ 1")
        if self.min_gpus < 1 or self.max_gpus < self.min_gpus:
            raise ValueError("need 1 ≤ min_gpus ≤ max_gpus")
        if self.workload_names is not None:
            object.__setattr__(
                self, "workload_names", tuple(self.workload_names)
            )
            for name in self.workload_names:
                get_workload(name)  # validate early

    def resolve(self, num_gpus: int) -> "TraceSpec":
        """Clamp the GPU-request range to a server's GPU count."""
        cap = min(self.max_gpus, num_gpus)
        if cap == self.max_gpus:
            return self
        return replace(self, max_gpus=cap)

    def build(self) -> JobFile:
        """Generate the concrete trace this spec describes."""
        return generate_job_file(
            num_jobs=self.num_jobs,
            workload_names=self.workload_names,
            min_gpus=self.min_gpus,
            max_gpus=self.max_gpus,
            seed=self.seed,
            arrival_rate=self.arrival_rate,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form, the trace's contribution to the cell hash."""
        return {
            "num_jobs": self.num_jobs,
            "seed": self.seed,
            "min_gpus": self.min_gpus,
            "max_gpus": self.max_gpus,
            "workload_names": (
                list(self.workload_names) if self.workload_names else None
            ),
            "arrival_rate": self.arrival_rate,
        }


@dataclass(frozen=True)
class CellConfig:
    """One fully-resolved simulation: a single point of the grid.

    ``model`` selects how allocations are scored: ``"refit"`` fits the
    Eq. 2 model against the topology's simulated microbenchmark (what
    every experiment in this repository uses) or ``"paper"`` applies the
    published Table 2 coefficients as-is.
    """

    topology: str
    policy: str
    discipline: str
    trace: AnyTraceSpec
    model: str = "refit"
    fit_sizes: Tuple[int, ...] = (2, 3, 4, 5)

    @property
    def label(self) -> str:
        """Human-readable cell identifier (``topology/policy/discipline``)."""
        return f"{self.topology}/{self.policy}/{self.discipline}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of every hash-relevant parameter."""
        return {
            "topology": self.topology,
            "policy": self.policy,
            "discipline": self.discipline,
            "trace": self.trace.to_dict(),
            "model": self.model,
            "fit_sizes": list(self.fit_sizes),
        }

    def config_hash(self) -> str:
        """Stable content hash of everything that determines the result."""
        payload = {"schema": CACHE_SCHEMA, "cell": self.to_dict()}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _unique(values: Sequence[str]) -> Tuple[str, ...]:
    """Tuple of ``values`` with duplicates dropped, first-seen order."""
    return tuple(dict.fromkeys(values))


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative grid of simulations.

    Expansion order is deterministic — topologies, then disciplines,
    then policies, each in the order given — so sweep outputs, shard
    assignments and cache keys never depend on iteration order.
    """

    name: str
    topologies: Tuple[str, ...] = ("dgx1-v100",)
    policies: Tuple[str, ...] = tuple(POLICY_NAMES)
    disciplines: Tuple[str, ...] = ("fifo",)
    trace: AnyTraceSpec = field(default_factory=TraceSpec)
    model: str = "refit"
    fit_sizes: Tuple[int, ...] = (2, 3, 4, 5)

    def __post_init__(self) -> None:
        """Dedup the axes and validate every name against its registry."""
        for attr in ("resolve", "build", "to_dict"):
            if not callable(getattr(self.trace, attr, None)):
                raise ValueError(
                    "trace must be a TraceSpec or ScenarioSpec "
                    f"(got {type(self.trace).__name__})"
                )
        # Order-preserving dedup: a repeated axis value would otherwise
        # produce duplicate cells (double-simulated, ambiguous slices).
        object.__setattr__(self, "topologies", _unique(self.topologies))
        object.__setattr__(self, "policies", _unique(self.policies))
        object.__setattr__(self, "disciplines", _unique(self.disciplines))
        object.__setattr__(self, "fit_sizes", tuple(self.fit_sizes))
        if not (self.topologies and self.policies and self.disciplines):
            raise ValueError("every grid axis needs at least one value")
        for topo in self.topologies:
            if topo not in TOPOLOGY_BUILDERS:
                known = ", ".join(sorted(TOPOLOGY_BUILDERS))
                raise ValueError(f"unknown topology {topo!r}; known: {known}")
        for policy in self.policies:
            if policy not in SWEEPABLE_POLICIES:
                known = ", ".join(SWEEPABLE_POLICIES)
                raise ValueError(f"unknown policy {policy!r}; known: {known}")
        for discipline in self.disciplines:
            if discipline not in DISCIPLINES:
                known = ", ".join(DISCIPLINES)
                raise ValueError(
                    f"unknown discipline {discipline!r}; known: {known}"
                )
        if self.model not in ("refit", "paper"):
            raise ValueError("model must be 'refit' or 'paper'")
        if self.model == "refit":
            self._check_fit_sizes()

    def _check_fit_sizes(self) -> None:
        """Reject fit sizes some topology of the grid cannot fit on.

        A refit enumerates every ``size``-GPU subset of each topology, so
        each size must lie in ``2..`` the smallest server's GPU count, and
        the subsets must show at least two distinct (x, y, z) censuses
        (every 2-GPU subset of a DGX-2 shares one) — caught here rather
        than mid-sweep, after other cells have run.
        """
        servers = [by_name(topo) for topo in self.topologies]
        cap = min(hw.num_gpus for hw in servers)
        if not self.fit_sizes or not all(
            isinstance(size, int) and 2 <= size <= cap for size in self.fit_sizes
        ):
            raise ValueError(
                f"fit_sizes must be non-empty ints in 2..{cap} (the "
                f"smallest server in the grid has {cap} GPUs); "
                f"got {self.fit_sizes!r}"
            )
        for hw in servers:
            censuses = (
                census_of_allocation(hw, subset)
                for size in self.fit_sizes
                for subset in combinations(hw.gpus, size)
            )
            first = next(censuses)
            if all(census == first for census in censuses):
                raise ValueError(
                    f"fit_sizes {self.fit_sizes!r} give {hw.name} one "
                    "(x, y, z) census; a refit needs at least two"
                )

    @property
    def num_cells(self) -> int:
        """Grid size: topologies × policies × disciplines."""
        return len(self.topologies) * len(self.policies) * len(self.disciplines)

    def expand(self) -> Tuple[CellConfig, ...]:
        """Flatten the grid into per-cell configs (deterministic order).

        The trace's GPU-request cap is resolved against each topology
        here, so a cell's hash always reflects the trace it actually
        simulates.
        """
        cells: List[CellConfig] = []
        for topo in self.topologies:
            trace = self.trace.resolve(by_name(topo).num_gpus)
            for discipline in self.disciplines:
                for policy in self.policies:
                    cells.append(
                        CellConfig(
                            topology=topo,
                            policy=policy,
                            discipline=discipline,
                            trace=trace,
                            model=self.model,
                            fit_sizes=self.fit_sizes,
                        )
                    )
        return tuple(cells)


_GRID_AXES = ("topology", "policy", "discipline")
_GRID_AXIS_ALIASES = {
    "topology": "topology",
    "topologies": "topology",
    "topo": "topology",
    "policy": "policy",
    "policies": "policy",
    "discipline": "discipline",
    "disciplines": "discipline",
    "scheduling": "discipline",
}


def parse_grid(
    items: Sequence[str],
    trace: Optional[AnyTraceSpec] = None,
    name: str = "cli-sweep",
    model: str = "refit",
) -> ExperimentSpec:
    """Build a spec from ``axis=v1,v2`` strings (the CLI's ``--grid``).

    Axes: ``topology``, ``policy``, ``discipline``.  ``policy=all``
    expands to the paper's four policies, ``discipline=all`` to every
    registered discipline, ``topology=all`` to every registered server.
    Unspecified axes fall back to the spec defaults (DGX-V, the four
    policies, FIFO).
    """
    axes: Dict[str, Tuple[str, ...]] = {}
    for item in items:
        if "=" not in item:
            raise ValueError(
                f"bad grid item {item!r}; expected axis=value[,value...]"
            )
        key, _, raw = item.partition("=")
        key = _GRID_AXIS_ALIASES.get(key.strip().lower())
        if key is None:
            raise ValueError(
                f"unknown grid axis {item.partition('=')[0]!r}; "
                f"known: {', '.join(_GRID_AXES)}"
            )
        if key in axes:
            raise ValueError(f"duplicate grid axis {key!r}")
        values = tuple(v.strip() for v in raw.split(",") if v.strip())
        if not values:
            raise ValueError(f"grid axis {key!r} has no values")
        axes[key] = values

    def axis(key: str, everything: Tuple[str, ...], default: Tuple[str, ...]):
        """One axis's values, with ``all`` expanded to the registry."""
        values = axes.get(key, default)
        if values == ("all",):
            return everything
        return values

    kwargs = {
        "topologies": axis(
            "topology", tuple(sorted(TOPOLOGY_BUILDERS)), ("dgx1-v100",)
        ),
        "policies": axis("policy", tuple(POLICY_NAMES), tuple(POLICY_NAMES)),
        "disciplines": axis("discipline", tuple(DISCIPLINES), ("fifo",)),
    }
    if trace is not None:
        kwargs["trace"] = trace
    return ExperimentSpec(name=name, model=model, **kwargs)
