"""Label-aware subgraph matching (paper section 3.3's proposed extension).

The base MAPA formulation assumes one job GPU per physical GPU.  The
paper sketches how many-to-one mappings (virtualized GPUs, NVIDIA
Multi-Instance GPU) could be supported: "labeling the nodes of the
application / hardware graph with resource requirements / availability
... would require label-aware pattern matching".  This module implements
that machinery:

* vertices carry resource vectors (e.g. compute slices, memory GB);
* a pattern vertex may map onto a data vertex only if every required
  resource fits within the remaining capacity;
* edge labels are checked with a user predicate (e.g. "needs NVLink").

Built on the same VF2 engine as the unlabelled matcher.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from .isomorphism import Adjacency, _order_pattern_vertices

Resources = Mapping[str, float]
EdgePredicate = Callable[[int, int, int, int], bool]
# signature: (pattern_u, pattern_v, data_u, data_v) -> ok


def resources_fit(required: Resources, available: Resources) -> bool:
    """True if every required resource is available in sufficient amount.

    Resources absent from ``available`` count as zero; resources absent
    from ``required`` are not constrained.
    """
    return all(available.get(k, 0.0) >= v for k, v in required.items())


def labeled_monomorphisms(
    pattern_adj: Adjacency,
    data_adj: Adjacency,
    pattern_resources: Mapping[int, Resources],
    data_capacity: Mapping[int, Resources],
    edge_ok: Optional[EdgePredicate] = None,
    many_to_one: bool = False,
    max_results: Optional[int] = None,
) -> Iterator[Dict[int, int]]:
    """Yield label-respecting mappings pattern-vertex → data-vertex.

    Parameters
    ----------
    pattern_resources:
        Per-pattern-vertex resource requirements.
    data_capacity:
        Per-data-vertex available capacity.
    edge_ok:
        Optional predicate applied to every mapped pattern edge.
    many_to_one:
        If True, several pattern vertices may share one data vertex as
        long as their *summed* requirements fit its capacity — the MIG
        co-location regime.  Pattern edges between co-located vertices
        are considered trivially satisfied (on-device communication).
    max_results:
        Stop after this many mappings.
    """
    p_vertices = _order_pattern_vertices(pattern_adj)
    if not p_vertices:
        return
    mapping: Dict[int, int] = {}
    remaining: Dict[int, Dict[str, float]] = {
        v: dict(cap) for v, cap in data_capacity.items()
    }
    emitted = 0

    def fits(pv: int, dv: int) -> bool:
        return resources_fit(
            pattern_resources.get(pv, {}), remaining.get(dv, {})
        )

    def consume(pv: int, dv: int) -> None:
        for k, v in pattern_resources.get(pv, {}).items():
            remaining[dv][k] = remaining[dv].get(k, 0.0) - v

    def restore(pv: int, dv: int) -> None:
        for k, v in pattern_resources.get(pv, {}).items():
            remaining[dv][k] = remaining[dv].get(k, 0.0) + v

    def adjacency_ok(pv: int, dv: int) -> bool:
        for pu, du in mapping.items():
            if pu in pattern_adj[pv]:
                if du == dv:
                    if not many_to_one:
                        return False
                    continue  # co-located: on-device communication
                if du not in data_adj[dv]:
                    return False
                if edge_ok is not None and not edge_ok(pu, pv, du, dv):
                    return False
            elif not many_to_one and du == dv:
                return False
        return True

    def backtrack(depth: int) -> Iterator[Dict[int, int]]:
        nonlocal emitted
        if depth == len(p_vertices):
            yield dict(mapping)
            emitted += 1
            return
        pv = p_vertices[depth]
        used = set(mapping.values())
        for dv in sorted(data_adj):
            if max_results is not None and emitted >= max_results:
                return
            if not many_to_one and dv in used:
                continue
            if not fits(pv, dv):
                continue
            if not adjacency_ok(pv, dv):
                continue
            mapping[pv] = dv
            consume(pv, dv)
            yield from backtrack(depth + 1)
            del mapping[pv]
            restore(pv, dv)

    yield from backtrack(0)


def count_labeled_monomorphisms(
    pattern_adj: Adjacency,
    data_adj: Adjacency,
    pattern_resources: Mapping[int, Resources],
    data_capacity: Mapping[int, Resources],
    **kwargs,
) -> int:
    return sum(
        1
        for _ in labeled_monomorphisms(
            pattern_adj, data_adj, pattern_resources, data_capacity, **kwargs
        )
    )
