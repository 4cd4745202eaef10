"""The branch-and-bound search as it was before incremental propagation.

Every node rebuilds its distance graph and reruns Bellman-Ford from the
origin, and conflicts are found by scanning every activity at every start
event.  Tests compare ``srcpsp.solver._search`` and its conflict sweep
against these functions: both searches must visit the same nodes in the
same order and return the same result.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from srcpsp.instances import ProjectInstance
from srcpsp.solver import (
    SaaOutcome,
    Schedule,
    SolveStatus,
    _minimal_conflict_set,
    check_schedule,
)
from srcpsp.stn import DistanceGraph, earliest_schedule


def _first_conflict(
    inst: ProjectInstance,
    durations: Sequence[int],
    starts: Sequence[int],
) -> tuple[int, int, list[int]] | None:
    """Earliest (time, resource, active activities) where usage exceeds capacity."""
    total = inst.n_activities
    events = sorted({starts[j] for j in range(total) if durations[j] > 0})
    for t in events:
        for r in range(inst.n_resources):
            active = [
                j
                for j in range(total)
                if inst.demands[r][j] > 0 and starts[j] <= t < starts[j] + durations[j]
            ]
            if sum(inst.demands[r][j] for j in active) > inst.capacities[r]:
                return t, r, active
    return None


def _search(
    inst: ProjectInstance,
    scenarios: Sequence[Sequence[int]],
    fixed: Mapping[int, int],
    incumbent: Sequence[int] | None,
    time_limit: float,
    node_limit: int,
) -> SaaOutcome:
    """Depth-first branch-and-bound for one start vector over every scenario.

    Precedence constraints are duration-independent, so scenarios differ only
    in their resource profiles and makespans.  Nodes are pruned on the sum of
    the scenario makespans, which orders nodes exactly as their mean does.
    Conflicts are hunted scenario by scenario; branching uses the conflicting
    scenario's durations, which separates that scenario's overlap and keeps
    the search complete.  ``incumbent`` must be feasible for every scenario.
    """
    if not scenarios:
        raise ValueError("at least one scenario required")
    total = inst.n_activities
    for durations in scenarios:
        if len(durations) != total:
            raise ValueError(f"expected {total} durations, got {len(durations)}")
        if any(d < 0 for d in durations):
            raise ValueError("durations must be nonnegative")
    t0 = time.monotonic()

    def makespan_sum(starts: Sequence[int]) -> int:
        return sum(max(s + d for s, d in zip(starts, scen)) for scen in scenarios)

    best_starts = None if incumbent is None else tuple(incumbent)
    best = None if incumbent is None else makespan_sum(incumbent)

    stack: list[tuple[tuple[int, int, int], ...]] = [()]
    nodes = 0
    exhausted = True
    while stack:
        if nodes >= node_limit or time.monotonic() - t0 > time_limit:
            exhausted = False
            break
        added = stack.pop()
        nodes += 1
        starts = earliest_schedule(
            DistanceGraph(node_count=total, edges=inst.temporal_constraints + added),
            fixed,
        )
        if starts is None:
            continue
        bound = makespan_sum(starts)
        if best is not None and bound >= best:
            continue
        for durations in scenarios:
            conflict = _first_conflict(inst, durations, starts)
            if conflict is not None:
                break
        if conflict is None:
            best_starts = tuple(starts)
            best = bound
            continue
        t, r, active = conflict
        subset = _minimal_conflict_set(inst, r, active)
        orderings = [(a, b, durations[a]) for a in subset for b in subset if a != b]
        for edge in reversed(orderings):
            stack.append(added + (edge,))

    if best_starts is None:
        status = SolveStatus.INFEASIBLE if exhausted else SolveStatus.UNKNOWN
        return SaaOutcome(status, None, None, nodes)
    for durations in scenarios:
        sched = Schedule.from_starts(best_starts, durations)
        assert check_schedule(inst, durations, sched).feasible
    status = SolveStatus.OPTIMAL if exhausted else SolveStatus.FEASIBLE
    return SaaOutcome(status, best_starts, best / len(scenarios), nodes)
