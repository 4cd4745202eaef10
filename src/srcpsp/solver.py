"""Deterministic RCPSP/max solving and schedule feasibility checking.

The solver is a branch-and-bound over the temporal distance graph: the root
relaxation is the earliest schedule ignoring resources; a resource conflict
is resolved by branching on ordering edges ``s_b >= s_a + d_a`` between
members of a minimal conflict set.  Any pairwise-overlapping set of intervals
shares a common time point, so every resource-feasible schedule separates at
least one ordered pair of each conflict set; the branching is complete.

One search (``_search``) serves both entry points: it fixes one start
vector for a list of duration scenarios and minimizes their mean makespan.
``solve`` runs it on a single scenario, ``solve_saa`` on the sample-average
method's quantile scenarios.

Each node costs only what is new at it.  What every search on an instance
needs, its edges, their least solution and its packed resource fields, is
built once per instance value (``_instance_data``).  A child copies its
parent's potentials, adds its one new edge to the path's edges in the
adjacency and tightens forward from its head (``stn._tighten``), unless the
lower bound it carries already loses to the incumbent; a conflict's
children are built once per search.  A scenario's conflicts are found by
one start-ordered sweep over the packed fields (``_first_conflict``), one
add or subtract per user for every resource at once.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .instances import ProjectInstance
from .stn import _relax, _rooted_edges, _tighten


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Schedule:
    """Start-time vector with its makespan under a specific duration vector."""

    starts: tuple[int, ...]
    makespan: int

    @classmethod
    def from_starts(cls, starts: Sequence[int], durations: Sequence[int]) -> "Schedule":
        if len(starts) != len(durations):
            raise ValueError("starts and durations must have equal length")
        return cls(
            starts=tuple(starts),
            makespan=max(map(operator.add, starts, durations)),
        )


@dataclass(frozen=True)
class FeasibilityReport:
    """Constraint-by-constraint verdict on one schedule.

    ``precedence_violations`` holds (constraint, slack) with slack < 0;
    ``resource_violations`` holds (resource, time, usage, capacity);
    ``early_starts`` holds (activity, start) with start < 0.
    """

    precedence_violations: tuple[tuple[tuple[int, int, int], int], ...]
    resource_violations: tuple[tuple[int, int, int, int], ...]
    early_starts: tuple[tuple[int, int], ...] = ()

    @property
    def feasible(self) -> bool:
        return not (self.precedence_violations or self.resource_violations or self.early_starts)


@dataclass(frozen=True)
class SolveOutcome:
    status: SolveStatus
    schedule: Schedule | None
    nodes_explored: int


@dataclass(frozen=True)
class SaaOutcome:
    """Shared-start solve over several duration scenarios; objective = mean makespan."""

    status: SolveStatus
    starts: tuple[int, ...] | None
    objective: float | None
    nodes_explored: int


def check_schedule(
    inst: ProjectInstance,
    durations: Sequence[int],
    sched: Schedule,
) -> FeasibilityReport:
    """Check ``sched``'s starts against time 0, its lags and its resource profile.

    Precedence is duration-independent (lags are start-to-start); resources
    are swept over activity intervals [s_j, s_j + d_j), evaluating usage at
    each start event, where any piecewise-constant profile attains its max.
    """
    total = inst.n_activities
    if len(durations) != total:
        raise ValueError(f"expected {total} durations, got {len(durations)}")
    if len(sched.starts) != total:
        raise ValueError(f"expected {total} starts, got {len(sched.starts)}")
    if any(d < 0 for d in durations):
        raise ValueError("durations must be nonnegative")
    starts = sched.starts

    precedence = tuple(
        ((i, j, w), starts[j] - starts[i] - w)
        for i, j, w in inst.temporal_constraints
        if starts[j] - starts[i] < w
    )

    # each start event's running activities, for every resource: one pass in
    # start order drops those ended by ``t``, then adds those starting at it
    running: list[tuple[int, list[int]]] = []
    active: list[int] = []
    live = sorted((j for j in range(total) if durations[j] > 0), key=starts.__getitem__)
    for t, joining in itertools.groupby(live, key=starts.__getitem__):
        active = [j for j in active if starts[j] + durations[j] > t]
        active.extend(joining)
        running.append((t, active))
    resource: list[tuple[int, int, int, int]] = []
    for r, (demands, cap) in enumerate(zip(inst.demands, inst.capacities)):
        for t, active in running:
            usage = sum(map(demands.__getitem__, active))
            if usage > cap:
                resource.append((r, t, usage, cap))
    return FeasibilityReport(
        precedence_violations=precedence,
        resource_violations=tuple(resource),
        early_starts=tuple((j, s) for j, s in enumerate(starts) if s < 0),
    )


# (the activities with a packed load, in activity order, each activity's
# load, the fields' bias, their top bits, each top bit's (resource, users))
_Packing = tuple[list[int], list[int], int, int, dict[int, tuple[int, list[int]]]]
# a scenario's positive-duration users, the rest of the packing, its durations
_SweepPlan = tuple[list[int], list[int], int, int, dict[int, tuple[int, list[int]]], Sequence[int]]


@functools.lru_cache(maxsize=64)
def _instance_data(
    inst: ProjectInstance,
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], _Packing, list[int] | None]:
    """What every search on ``inst`` shares, read-only: the adjacency of the
    origin and lag edges (origin last; a search adds edges to a list copy),
    every resource that can overload, packed into one int, and the root:
    the least solution of the origin and lag edges, origin last at 0, or
    None when the lags alone are contradictory.  A search tightens the root
    into new lists (``stn._tighten`` never modifies its input).

    A resource's users are its activities with nonzero demand.  It can
    overload when their demands sum to a ``total`` above ``cap``.  It then
    owns a field ``total.bit_length() + 1`` bits wide, above the fields of
    lower resources.  Each user's load holds its demand in every field, and
    ``bias`` holds ``2**(width-1) - 1 - cap`` in each, so a field reads
    ``usage + 2**(width-1) - 1 - cap``: its top bit is set exactly when usage
    exceeds capacity.  Usage stays in ``[0, total]`` and
    ``total < 2**(width-1)``, so every field stays in ``[0, 2**width)`` and
    no add or subtract carries or borrows into the next.  A zero-duration
    user is never active and never joins a sweep, so counting it in
    ``total`` only widens a field.
    """
    n = inst.n_activities
    edges = _rooted_edges(n, inst.temporal_constraints, None)
    succ: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for i, j, w in edges:
        succ[i].append((j, w))
    loads = [0] * n
    bias = high = shift = 0
    members: dict[int, tuple[int, list[int]]] = {}
    for r, (cap, demands) in enumerate(zip(inst.capacities, inst.demands)):
        found = [j for j in range(n) if demands[j]]
        total = sum(map(demands.__getitem__, found))
        if total > cap:
            width = total.bit_length() + 1
            for j in found:
                loads[j] += demands[j] << shift
            top = 1 << (shift + width - 1)
            bias += top - ((cap + 1) << shift)
            high |= top
            members[top] = (r, found)
            shift += width
    packing = ([j for j in range(n) if loads[j]], loads, bias, high, members)
    return tuple(map(tuple, succ)), packing, _relax(n + 1, edges, n)[0]


def _first_conflict(
    plan: _SweepPlan,
    starts: Sequence[int],
) -> tuple[int, int, list[int]] | None:
    """Earliest (time, resource, active activities) where usage exceeds capacity.

    ``plan`` is built in :func:`_search`.  One sweep walks the users
    in start order beside them in end order, keeping every resource's usage
    in the fields of one int: at each start ``t`` the users ending ``<= t``
    leave first (intervals are half-open), one subtract each, then the new
    user joins with one add and one mask test covers every resource.  Once
    a resource overloads at ``t``, every other start at ``t`` still joins,
    and the lowest resource over capacity (the lowest set top bit) then
    wins.  The active list is in activity order.
    """
    users, loads, used, high, members, durations = plan  # used starts at the bias: no usage
    ends = list(map(operator.add, starts, durations))
    by_end = sorted(users, key=ends.__getitem__)
    left = 0
    overload = None
    for j in sorted(users, key=starts.__getitem__):
        t = starts[j]
        if overload is not None and t > overload:
            break
        # j itself ends after t, so this stops at j at the latest
        while ends[by_end[left]] <= t:
            used -= loads[by_end[left]]
            left += 1
        used += loads[j]
        if used & high:
            overload = t
    if overload is None:
        return None
    over = used & high
    resource, found = members[over & -over]
    return overload, resource, [k for k in found if starts[k] <= overload < ends[k]]


def _minimal_conflict_set(
    inst: ProjectInstance,
    resource: int,
    active: list[int],
) -> tuple[int, ...]:
    """Smallest (then lexicographically first) subset whose demand sum exceeds capacity;
    ``active`` must be in activity order, as :func:`_first_conflict` returns it."""
    cap = inst.capacities[resource]
    demands = inst.demands[resource]
    top = sorted((demands[j] for j in active), reverse=True)
    for k in range(2, len(active) + 1):
        if sum(top[:k]) <= cap:
            continue  # even the k largest demands fit
        for combo in itertools.combinations(active, k):
            if sum(demands[j] for j in combo) > cap:
                return combo
    raise AssertionError("no conflicting subset in a conflicting active set")


def _search(
    inst: ProjectInstance,
    scenarios: Sequence[Sequence[int]],
    fixed: Mapping[int, int] | None,
    incumbent: Sequence[int] | None,
    time_limit: float,
    node_limit: int,
    floors: Sequence[tuple[int, int, int]] = (),
) -> SaaOutcome:
    """Depth-first branch-and-bound for one start vector over every scenario.

    Precedence constraints are duration-independent, so scenarios differ only
    in their resource profiles and makespans.  Nodes are pruned on the sum of
    the scenario makespans, which orders nodes exactly as their mean does.

    The rooted graph is the origin's ``t >= 0`` edges, the lags, ``floors``
    (lag edges the instance does not hold) and each pin's two origin edges
    (``t <= t_v <= t``).  Its root is the instance's memoised least solution
    tightened by each floor and then each pin edge, one ``_tighten`` per
    edge, so it is the one a full relaxation would find, None included.
    ``incumbent`` seeds the search only if it has one start per activity,
    holds every edge of the rooted graph and no scenario's sweep finds an
    overload.  The closing replay runs ``check_schedule`` and then checks
    the floors and pins, which it does not see.

    A node branches on the first scenario in the list that conflicts, with
    its durations, which separates its overlap and keeps the search
    complete.  If ``d <= d'`` pointwise, every user running at a time under
    ``d`` also runs then under ``d'``, so a conflict under ``d`` is one
    under ``d'``.  When the list is nested in that way, a node probes its
    parent's branching scenario first: it steps down while the lower
    scenario still conflicts, or up until one does.  Otherwise every node
    starts at the first scenario and the upward walk is an in-order scan.
    Both find the same scenario, so the node order does not depend on the
    list's shape.
    """
    if not scenarios:
        raise ValueError("at least one scenario required")
    total = inst.n_activities
    for durations in scenarios:
        if len(durations) != total:
            raise ValueError(f"expected {total} durations, got {len(durations)}")
        if any(d < 0 for d in durations):
            raise ValueError("durations must be nonnegative")
    if not all(0 <= i < total and 0 <= j < total for i, j, _ in floors):
        raise ValueError("floor edge out of activity range")
    fixed = fixed or {}
    for v in fixed:
        if not 0 <= v < total:
            raise ValueError(f"fixed node {v} out of range")
    t0 = time.monotonic()
    adjacency, (packed, *fields), root = _instance_data(inst)
    succ = list(map(list, adjacency))  # the rooted graph; the path's edges come and go
    pins = [edge for v, t in fixed.items() for edge in ((total, v, t), (v, total, -t))]
    for edge in (*floors, *pins):
        succ[edge[0]].append(edge[1:])
        if root is not None:
            root = _tighten(succ, root, edge)
    resources = [([j for j in packed if d[j] > 0], *fields, d) for d in scenarios]
    single = len(scenarios) == 1
    if incumbent is not None:
        x = [*incumbent, 0]  # the origin last, at 0
        if (
            len(incumbent) != total
            or any(x[j] - xi < w for xi, out in zip(x, succ) for j, w in out)
            or any(_first_conflict(found, incumbent) for found in resources)
        ):
            incumbent = None

    def makespan_sum(starts: Sequence[int]) -> int:
        # map stops at the end of the scenario, before the origin's potential
        if single:  # no generator for the one-scenario searches
            return max(map(operator.add, starts, scenarios[0]))
        return sum(max(map(operator.add, starts, scen)) for scen in scenarios)

    best_starts = None if incumbent is None else tuple(incumbent)
    best = float("inf") if incumbent is None else makespan_sum(incumbent)

    # only a nested list lets a child start its hunt at its parent's scenario
    nested = all(
        all(map(operator.le, lower, higher)) for lower, higher in zip(scenarios, scenarios[1:])
    )

    # each entry: the parent's potentials (origin last), depth and the scenario
    # the node's hunt starts at, the node's edge and a lower bound on its makespan
    # (with one scenario, b ends no sooner than dist[a] + d_a + d_b)
    stack: list[tuple[list[int] | None, int, int, tuple[int, int, int] | None, int]] = [
        (root, 0, 0, None, 0)
    ]
    path: list[int] = []  # the path edges' tails; each edge ends its tail's succ list
    # (scenario, resource, active) -> the children's edges and d_a + d_b
    children: dict[tuple[int, int, tuple[int, ...]], list[tuple[tuple[int, int, int], int]]] = {}
    nodes = 0
    exhausted = True
    while stack:
        if nodes >= node_limit or time.monotonic() - t0 > time_limit:
            exhausted = False
            break
        dist, depth, k, edge, bound = stack.pop()
        nodes += 1
        # potentials only rise, so the node's own bound would prune it too
        if bound >= best:
            continue
        while len(path) > depth:  # drop abandoned branches' edges
            succ[path.pop()].pop()
        if edge is not None:
            succ[edge[0]].append(edge[1:])
            path.append(edge[0])
            dist = _tighten(succ, dist, edge)
        if dist is None:
            continue
        bound = makespan_sum(dist)
        if bound >= best:
            continue
        # branch on the first conflicting scenario: step down from ``k`` while
        # the lower scenario still conflicts, or up until one does
        conflict = _first_conflict(resources[k], dist)
        while conflict is not None and k > 0:
            lower = _first_conflict(resources[k - 1], dist)
            if lower is None:
                break
            k -= 1
            conflict = lower
        while conflict is None and k + 1 < len(scenarios):
            k += 1
            conflict = _first_conflict(resources[k], dist)
        if conflict is None:
            best_starts = tuple(dist[:total])
            best = bound
            continue
        _, r, active = conflict
        key = (k, r, tuple(active))
        if key not in children:  # the minimal conflict set is a function of the key
            d = scenarios[k]
            pairs = itertools.permutations(_minimal_conflict_set(inst, r, active), 2)
            children[key] = [((a, b, d[a]), d[a] + d[b]) for a, b in reversed(list(pairs))]
        child = k if nested else 0
        for edge, span in children[key]:
            lower = max(bound, dist[edge[0]] + span) if single else bound
            stack.append((dist, len(path), child, edge, lower))

    if best_starts is None:
        status = SolveStatus.INFEASIBLE if exhausted else SolveStatus.UNKNOWN
        return SaaOutcome(status, None, None, nodes)
    for durations in scenarios:  # the independent replay of what the search trusted
        sched = Schedule.from_starts(best_starts, durations)
        if not check_schedule(inst, durations, sched).feasible:
            raise AssertionError(f"start vector {best_starts} fails check_schedule")
    for i, j, w in floors:  # check_schedule sees neither floors nor pins
        if best_starts[j] - best_starts[i] < w:
            raise AssertionError(f"start vector {best_starts} breaks floor {(i, j, w)}")
    for v, t in fixed.items():
        if best_starts[v] != t:
            raise AssertionError(f"start vector {best_starts} breaks pin {v} at {t}")
    status = SolveStatus.OPTIMAL if exhausted else SolveStatus.FEASIBLE
    return SaaOutcome(status, best_starts, best / len(scenarios), nodes)


def solve(
    inst: ProjectInstance,
    durations: Sequence[int],
    time_limit: float = 60.0,
    fixed: Mapping[int, int] | None = None,
    warm_start: Schedule | None = None,
    node_limit: int = 10_000_000,
    floors: Sequence[tuple[int, int, int]] = (),
) -> SolveOutcome:
    """Minimize makespan by conflict-resolution branch-and-bound.

    ``fixed`` pins exact start times (the reactive method's frozen prefix);
    ``floors`` are lag edges searched and checked as if ``inst`` held them
    (the reactive method's release floors ``(0, j, now)``), so a re-solve
    needs no new instance; ``warm_start`` seeds the incumbent unless
    ``_search`` finds it infeasible or off a pin.  Statuses:
    Optimal when the search exhausts with an incumbent, Infeasible when it
    exhausts without one (or the root graph is contradictory), Feasible or
    Unknown when a limit stops the search with or without an incumbent.
    """
    incumbent = None if warm_start is None else warm_start.starts
    out = _search(inst, [durations], fixed, incumbent, time_limit, node_limit, floors)
    schedule = None if out.starts is None else Schedule.from_starts(out.starts, durations)
    return SolveOutcome(out.status, schedule, out.nodes_explored)


def solve_saa(
    inst: ProjectInstance,
    scenarios: Sequence[Sequence[int]],
    time_limit: float = 300.0,
    node_limit: int = 10_000_000,
) -> SaaOutcome:
    """One start vector feasible for every duration scenario, minimizing mean makespan."""
    return _search(inst, scenarios, {}, None, time_limit, node_limit)
