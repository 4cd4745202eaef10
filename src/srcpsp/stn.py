"""Simple temporal network machinery shared by the solver and the STNU layer.

A :class:`DistanceGraph` collects difference constraints in lower-bound
convention: an edge ``(i, j, w)`` states ``t_j - t_i >= w``.  One Bellman-Ford
style longest-path relaxation, :func:`_relax`, runs from a virtual origin, so
every time point also satisfies ``t >= 0``.  :func:`_rooted_edges` wires
that origin in one place, for :func:`earliest_schedule`, which returns the
least solution, and for the solver's root, which it then tightens edge by
edge with :func:`_tighten`.  The STNU all-max check calls :func:`_relax`
itself to find a positive cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence


@dataclass(frozen=True)
class DistanceGraph:
    """Difference-constraint graph over integer time points.

    Edges are ``(from_node, to_node, weight)`` with the meaning
    ``t_to - t_from >= weight``.  Parallel edges are allowed; the tightest
    (largest) lower bound dominates.
    """

    node_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for i, j, _ in self.edges:
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise ValueError(f"edge ({i}, {j}) out of range for {self.node_count} nodes")


def _relax(
    node_count: int,
    edges: Sequence[tuple[int, int, int]],
    origin: int,
) -> tuple[list[int] | None, list[int] | None]:
    """Longest paths from ``origin``; returns (distances, None) or (None, cycle).

    Every node must be reachable from ``origin``, so that all distances end
    up finite integers.
    """
    neg_inf = float("-inf")
    dist: list = [neg_inf] * node_count
    dist[origin] = 0
    pred: list[int | None] = [None] * node_count
    last_changed = origin
    for _ in range(node_count):
        changed = False
        for i, j, w in edges:
            if dist[i] != neg_inf and dist[i] + w > dist[j]:
                dist[j] = dist[i] + w
                pred[j] = i
                last_changed = j
                changed = True
        if not changed:
            return dist, None
    # Still relaxing after node_count rounds: walk predecessors into the cycle.
    node = last_changed
    for _ in range(node_count):
        node = pred[node]  # type: ignore[assignment]
    cycle = [node]
    walk = pred[node]
    while walk != node:
        cycle.append(walk)  # type: ignore[arg-type]
        walk = pred[walk]  # type: ignore[index]
    cycle.reverse()
    return None, cycle


def _tighten(
    succ: Sequence[Sequence[tuple[int, int]]],
    dist: list[int],
    edge: tuple[int, int, int],
) -> list[int] | None:
    """Longest paths once ``edge`` joins a consistent system.

    ``succ[i]`` lists the ``(j, w)`` edges out of node ``i``, ``edge`` among
    them, with the virtual origin last; ``dist`` is the least solution
    without ``edge``, origin at 0.  Only what the new edge ``(a, b, w)``
    raises is recomputed: a FIFO queue tightens forward from ``b`` (Cesta &
    Oddi, TIME 1996).  Any raise stems from the new edge, so raising ``a`` or
    the origin closes a positive cycle: the result is None (the origin test
    only stops a contradicted pin sooner).  ``dist`` is never modified; it
    is returned as is when the new edge already holds.
    """
    a, b, w = edge
    if dist[a] + w <= dist[b]:
        return dist
    origin = len(dist) - 1
    dist = dist.copy()
    dist[b] = dist[a] + w
    queued = {b}
    queue = deque((b,))
    while queue:
        u = queue.popleft()
        queued.remove(u)
        du = dist[u]
        for v, x in succ[u]:
            if du + x > dist[v]:
                if v == a or v == origin:
                    return None
                dist[v] = du + x
                if v not in queued:
                    queued.add(v)
                    queue.append(v)
    return dist


def _rooted_edges(
    node_count: int,
    edges: Sequence[tuple[int, int, int]],
    fixed: Mapping[int, int] | None,
) -> list[tuple[int, int, int]]:
    """Tightest ``edges`` with the virtual origin, numbered ``node_count``.

    The origin adds ``t_v >= 0`` for every node and pins each node of
    ``fixed`` to its exact time.  Returns the edge list that ``_relax`` runs
    on.
    """
    origin = node_count
    tight: dict[tuple[int, int], int] = {}
    for i, j, w in edges:
        if (i, j) not in tight or w > tight[(i, j)]:
            tight[(i, j)] = w
    for v, t in (fixed or {}).items():
        if not 0 <= v < node_count:
            raise ValueError(f"fixed node {v} out of range")
        tight[(origin, v)] = max(t, 0)  # t_v >= t
        tight[(v, origin)] = -t  # t_v <= t
    rooted = [(origin, v, 0) for v in range(node_count)]
    for (i, j), w in tight.items():
        rooted.append((i, j, w))
    return rooted


def earliest_schedule(
    g: DistanceGraph,
    fixed: Mapping[int, int] | None = None,
) -> list[int] | None:
    """Minimal nonnegative completion of ``g`` honoring exact ``fixed`` times.

    Returns the earliest start vector, or None when the fixed assignments
    contradict the graph (or each other).
    """
    n = g.node_count
    dist, _ = _relax(n + 1, _rooted_edges(n, g.edges, fixed), n)
    return None if dist is None else dist[:n]
