"""Temporal networks with uncertainty: construction, DC checking, execution.

Timepoints come in pairs: activity j owns start node 2j and end node 2j+1.
Ordinary edges use upper-bound convention, (u, v, w) meaning t_v - t_u <= w.
A contingent link (A, C, low, high) hands C's time to nature: C fires at
t_A + d for some d in [low, high] chosen outside the agent's control.

Dynamic controllability is decided by edge propagation in the style of the
Morris-Muscettola labeled-distance-graph rules: ordinary composition,
upper-case composition, lower-case and cross-case reductions guarded by
strictly negative second legs, and label removal once a wait is covered by
the link's lower bound.  Propagation to quiescence either derives a
contradiction (a negative ordinary self-loop, an activation waiting on its
own link, or an inconsistent all-max projection: not DC, and the witness,
the most negative closed walk of input edges in the contradiction's
derivation, is expanded from shared edge derivations only then) or yields
the closed edge set an executor can dispatch greedily.  Each edge is one
record (weight, derivation) in dense rows indexed by source timepoint, then
by target or contingent label.  The worklist is drained first in, first out,
so each stored edge is processed about once; the order decides some weights
and witnesses (label removal fires only while a wait is loose).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .chaining import PartialOrderSchedule
from .instances import DurationSample, StochasticInstance
from .stn import _relax


class RteError(RuntimeError):
    """Execution was handed a network that is not dispatchable (not a DC closure)."""


@dataclass(frozen=True)
class Stnu:
    """Timepoint graph: 2 nodes per activity, ordinary edges, contingent links."""

    n_activities: int
    ordinary_edges: tuple[tuple[int, int, int], ...]
    contingent_links: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        n = self.n_timepoints
        for u, v, _ in self.ordinary_edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"ordinary edge ({u}, {v}) out of range")
        seen: set[int] = set()
        for a, c, low, high in self.contingent_links:
            if not (0 <= a < n and 0 <= c < n) or a == c:
                raise ValueError(f"bad contingent link ({a}, {c})")
            if not 1 <= low <= high:
                raise ValueError(f"contingent bounds [{low}, {high}] invalid")
            if c in seen:
                raise ValueError(f"timepoint {c} has two incoming contingent links")
            seen.add(c)

    @property
    def n_timepoints(self) -> int:
        return 2 * self.n_activities

    @staticmethod
    def start(j: int) -> int:
        return 2 * j

    @staticmethod
    def end(j: int) -> int:
        return 2 * j + 1

    def label(self, tp: int) -> str:
        return f"{'s' if tp % 2 == 0 else 'f'}{tp // 2}"


class _Dispatch(NamedTuple):
    """A closure's sample-independent dispatch indexes; all but the first and last by timepoint."""
    groups: tuple[int, ...]  # rigid-group roots: each group's lowest member
    members: tuple[tuple[int, ...], ...]  # at a root, its group's controllables
    into: tuple[tuple[tuple[int, int], ...], ...]  # (group, w) of edges from other groups
    activates: tuple[tuple[int, ...], ...]  # the contingents a timepoint activates
    labeled: tuple[tuple[tuple[int, int], ...], ...]  # (group, w) of a label's waits
    pending: tuple[int, ...]  # a group's undetermined requirements at the start
    edges: tuple[tuple[int, int, int], ...]  # the de-duplicated closure, for the sweep


@dataclass(frozen=True)
class Estnu:
    """DC closure ready for execution: tightened ordinary edges plus waits.

    A wait edge (x, a, w, c) with w < 0 reads: while contingent c is
    unobserved, x may not execute before t_a - w; observing c releases it.
    Its activation a must be c's, as ``dc_check`` emits it.
    """

    base: Stnu
    wait_edges: tuple[tuple[int, int, int, int], ...]
    _dispatch: _Dispatch = field(init=False, repr=False, compare=False)  # for rte_execute

    def __post_init__(self) -> None:
        activation = {c: a for a, c, _, _ in self.base.contingent_links}
        for x, a, _, c in self.wait_edges:
            if not 0 <= x < self.base.n_timepoints:
                raise ValueError(f"wait edge source {x} out of range")
            if c not in activation:
                raise ValueError(f"wait edge labeled by non-contingent timepoint {c}")
            if a != activation[c]:
                raise ValueError(f"wait edge activation {a} is not {c}'s activation")
        object.__setattr__(self, "_dispatch", _compile(self.base, self.wait_edges))


@dataclass(frozen=True)
class Controllable:
    estnu: Estnu


@dataclass(frozen=True)
class NotDc:
    """Witness: closed walk (nodes in traversal order) with negative total length."""

    nodes: tuple[int, ...]
    total: int


@dataclass(frozen=True)
class ExecutionTrace:
    times: tuple[int, ...]
    makespan: int
    decisions: tuple[tuple[int, tuple[int, ...]], ...]


def build_stnu(pos: PartialOrderSchedule, stoch: StochasticInstance) -> Stnu:
    """Encode instance lags, duration bounds and chain edges as an STNU.

    Fixed durations (lb = ub) become rigid ordinary pairs; uncertain ones
    become contingent links.  An instance lag (i, j, w) yields the edge
    (start_j, start_i, -w); a chain edge (A, B) yields (start_B, end_A, 0),
    i.e. A must end before B starts.
    """
    if pos.base != stoch.base:
        raise ValueError("partial order schedule and stochastic instance disagree")
    inst = stoch.base
    start, end = Stnu.start, Stnu.end
    edges: list[tuple[int, int, int]] = []
    links: list[tuple[int, int, int, int]] = []
    for j, (lb, ub) in enumerate(stoch.bounds):
        if lb == ub:
            edges.append((start(j), end(j), lb))
            edges.append((end(j), start(j), -lb))
        else:
            links.append((start(j), end(j), lb, ub))
    for i, j, w in inst.temporal_constraints:
        edges.append((start(j), start(i), -w))
    for a, b in pos.chain_edges:
        edges.append((start(b), end(a), 0))
    return Stnu(
        n_activities=inst.n_activities,
        ordinary_edges=tuple(edges),
        contingent_links=tuple(links),
    )


# A derivation is an original edge (from, to, weight) or a pair (first,
# second) of earlier derivations whose walks run one after the other; pairs
# share their parts, so storing one never copies a walk.
_Derivation = tuple
_ABSENT = float("inf")  # the weight of a record not stored: looser than any weight


class _Inconsistent(Exception):
    """Propagation derived a contradiction; args are its derivation."""


class _Propagator:
    """Edge-propagation state; derives the DC closure or raises _Inconsistent.

    Records are dense rows indexed by timepoint: an ordinary edge (u, v)
    has weight ``ow[u][v]`` and derivation ``oh[u][v]``, an upper-case edge
    (u, c) labeled by contingent c has ``uw[u][c]`` and ``uh[u][c]``; an
    absent record weighs ``_ABSENT``.  ``ord_keys`` and ``uc_keys`` list the
    records in first-store order, the order the all-max projection reads.
    """

    def __init__(self, stnu: Stnu) -> None:
        self.stnu = stnu
        n = stnu.n_timepoints
        self.low = {c: low for _, c, low, _ in stnu.contingent_links}
        self.activation = {c: a for a, c, _, _ in stnu.contingent_links}
        self.ow: list[list[int | float]] = [[_ABSENT] * n for _ in range(n)]
        self.oh: list[list[_Derivation | None]] = [[None] * n for _ in range(n)]
        self.uw: list[list[int | float]] = [[_ABSENT] * n for _ in range(n)]
        self.uh: list[list[_Derivation | None]] = [[None] * n for _ in range(n)]
        self.ord_keys: list[tuple[int, int]] = []  # each store's keys, in first-store order
        self.uc_keys: list[tuple[int, int]] = []
        # adjacency by timepoint: ordinary successors, predecessors, upper-case labels
        self.ord_out: list[set[int]] = [set() for _ in range(n)]
        self.ord_in: list[set[int]] = [set() for _ in range(n)]
        self.uc_out: list[set[int]] = [set() for _ in range(n)]
        weights = [abs(w) for _, _, w in stnu.ordinary_edges]
        weights += [abs(low) + abs(high) for _, _, low, high in stnu.contingent_links]
        self.horizon = 1 + sum(weights)
        self.queue: deque[tuple] = deque()  # (is_ord, x, y, w); stale once (x, y) is below w

    # -- storage with minimum-keeping and immediate inconsistency checks --

    def put_ord(self, u: int, v: int, w: int, how: _Derivation) -> None:
        if u == v and w >= 0:
            return  # vacuous self-loop
        row = self.ow[u]
        old = row[v]
        if old <= w:
            return
        if old is _ABSENT:
            self.ord_out[u].add(v)
            self.ord_in[v].add(u)
            self.ord_keys.append((u, v))
        row[v] = w
        self.oh[u][v] = how
        if (u == v and w < 0) or w < -self.horizon:
            raise _Inconsistent(how)
        self.queue.append((True, u, v, w))

    def put_uc(self, u: int, c: int, w: int, how: _Derivation) -> None:
        row = self.uw[u]
        old = row[c]
        if old <= w:
            return
        if old is _ABSENT:
            self.uc_out[u].add(c)
            self.uc_keys.append((u, c))
        row[c] = w
        self.uh[u][c] = how
        if w < -self.horizon or (w < 0 and u == self.activation[c]):
            # past the horizon, or an activation waiting on its own link
            # (released strictly after itself)
            raise _Inconsistent(how)
        self.queue.append((False, u, c, w))
        if w >= -self.low[c]:
            # wait expires no later than the link can fire: unconditional bound
            self.put_ord(u, self.activation[c], w, how)

    # -- rule application --

    def run(self) -> None:
        for u, v, w in self.stnu.ordinary_edges:
            self.put_ord(u, v, w, (u, v, w))
        for a, c, low, high in self.stnu.contingent_links:
            self.put_ord(a, c, high, (a, c, high))
            self.put_ord(c, a, -low, (c, a, -low))
            self.put_uc(c, c, -high, (c, a, -high))
        while self.queue:  # first in, first out
            is_ord, x, y, w = self.queue.popleft()
            if (self.ow if is_ord else self.uw)[x][y] == w:
                (self._from_ord if is_ord else self._from_uc)(x, y, w)

    # stored edges are never self-loops (u != v), so no put grows the set a rule walks;
    # a composition whose edge is stored no looser is skipped before building its derivation
    def _from_ord(self, u: int, v: int, w: int) -> None:
        ow, oh = self.ow, self.oh
        ru, rv, hv = ow[u], ow[v], oh[v]
        how = oh[u][v]
        for y in self.ord_out[v]:  # (u -> v) + (v -> y)
            if w + rv[y] < ru[y]:
                self.put_ord(u, y, w + rv[y], (how, hv[y]))
        for x in self.ord_in[u]:  # (x -> u) + (u -> v)
            rx = ow[x]
            if rx[u] + w < rx[v]:
                self.put_ord(x, v, rx[u] + w, (oh[x][u], how))
        uu, uv, uhv = self.uw[u], self.uw[v], self.uh[v]
        for c in self.uc_out[v]:  # upper-case rule: ordinary prefix
            if w + uv[c] < uu[c]:
                self.put_uc(u, c, w + uv[c], (how, uhv[c]))
        if w < 0 and u in self.low:
            # lower-case rule: the link into u may fire at its minimum
            a, low = self.activation[u], self.low[u]
            self.put_ord(a, v, low + w, ((a, u, low), how))

    def _from_uc(self, u: int, c: int, w: int) -> None:
        ow, oh, uw = self.ow, self.oh, self.uw
        how = self.uh[u][c]
        for x in self.ord_in[u]:
            w1 = ow[x][u]
            if w1 + w < uw[x][c]:
                self.put_uc(x, c, w1 + w, (oh[x][u], how))
        if w < 0 and u in self.low and u != c:
            # cross-case rule: another link's minimum firing precedes this wait
            a, low = self.activation[u], self.low[u]
            self.put_uc(a, c, low + w, ((a, u, low), how))


def _witness(*derivations: _Derivation) -> NotDc:
    """Most negative closed sub-walk of the derivations' original edges, in order."""
    steps: list[tuple[int, int, int]] = []
    stack = list(reversed(derivations))
    while stack:
        how = stack.pop()
        if len(how) == 2:
            stack += (how[1], how[0])
        else:
            steps.append(how)
    nodes = [steps[0][0]]
    prefix = [0]
    for _, to, w in steps:
        nodes.append(to)
        prefix.append(prefix[-1] + w)
    best: tuple[int, int, int] | None = None
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if nodes[i] == nodes[j] and prefix[j] - prefix[i] < 0:
                length = prefix[j] - prefix[i]
                if best is None or length < best[2]:
                    best = (i, j, length)
    # set: a walk below -horizon holds a negative closed sub-walk (simple paths are >= 1 - horizon)
    i, j, length = best  # type: ignore[misc]
    return NotDc(nodes=tuple(nodes[i:j]), total=length)


def _allmax_witness(prop: _Propagator) -> NotDc | None:
    """Negative cycle in the all-max projection (waits read as hard bounds)."""
    n = prop.stnu.n_timepoints
    # ordinary records (never self-loops) in first-store order, then each tighter wait
    tight = {(u, v): (prop.ow[u][v], prop.oh[u][v]) for u, v in prop.ord_keys}
    for u, c in prop.uc_keys:
        v, w = prop.activation[c], prop.uw[u][c]
        if u != v and w < tight.get((u, v), (_ABSENT,))[0]:
            tight[(u, v)] = (w, prop.uh[u][c])
    # upper-bound edge (u, v, w) is the lower-bound edge (v, u, -w); no edge
    # enters the origin n, so a positive cycle never passes through it
    edges = [(n, v, 0) for v in range(n)]
    edges += [(v, u, -w) for (u, v), (w, _) in tight.items()]
    _, cycle = _relax(n + 1, edges, n)
    if cycle is None:
        return None
    cycle.reverse()
    hops = zip(cycle, cycle[1:] + cycle[:1])
    return _witness(*(tight[hop][1] for hop in hops))


def dc_check(stnu: Stnu) -> Controllable | NotDc:
    """Decide dynamic controllability; emit the executable closure on success."""
    prop = _Propagator(stnu)
    try:
        prop.run()
    except _Inconsistent as contradiction:
        return _witness(*contradiction.args)
    cycle = _allmax_witness(prop)
    if cycle is not None:
        return cycle
    rows = range(stnu.n_timepoints)
    ordinary = tuple((u, v, prop.ow[u][v]) for u in rows for v in sorted(prop.ord_out[u]))
    waits = tuple(
        sorted(
            (u, prop.activation[c], prop.uw[u][c], c)
            for u in rows
            for c in prop.uc_out[u]
            if prop.uw[u][c] < -prop.low[c] and u != c
        )
    )
    del prop  # free the derivations before the dispatcher is compiled
    base = replace(stnu, ordinary_edges=ordinary)
    return Controllable(estnu=Estnu(base=base, wait_edges=waits))


def _compile(stnu: Stnu, wait_edges: tuple[tuple[int, int, int, int], ...]) -> _Dispatch:
    """The dispatch indexes of a closure: everything ``rte_execute`` needs but the sample."""
    n = stnu.n_timepoints
    contingent = {c for _, c, _, _ in stnu.contingent_links}
    activates: list[list[int]] = [[] for _ in range(n)]
    for a, c, _, _ in stnu.contingent_links:
        activates[a].append(c)
    # each weight becomes a new int (+ 0) laid out with the indexes: the closure's
    # own ints lie scattered over the checker's heap, which slows every dispatch
    pair: dict[tuple[int, int], int] = {}
    for u, v, w in stnu.ordinary_edges:
        pair[u, v] = min(w, pair.get((u, v), w)) + 0
    # union-find over the rigid pairs; every parent is lower, so a root is
    # its group's lowest member
    parent = list(range(n))
    for (u, v), w in pair.items():
        if w == 0 and pair.get((v, u)) == 0 and u not in contingent and v not in contingent:
            roots = []
            for x in (u, v):
                while parent[x] != x:
                    x = parent[x]
                roots.append(x)
            parent[max(roots)] = min(roots)
    members: list[list[int]] = [[] for _ in range(n)]
    for tp in range(n):
        parent[tp] = parent[parent[tp]]  # lower entries already hold their root
        if tp not in contingent:
            members[parent[tp]].append(tp)
    pending = [0] * n
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), w in pair.items():
        if u not in contingent and parent[v] != parent[u]:
            into[v].append((parent[u], w))
            pending[parent[u]] += w <= 0
    labeled: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x, _, w, c in wait_edges:
        if x not in contingent:
            labeled[c].append((parent[x], w + 0))
            pending[parent[x]] += 1
    groups = tuple(g for g in range(n) if members[g])
    indexes = (tuple(map(tuple, index)) for index in (members, into, activates, labeled))
    return _Dispatch(groups, *indexes, tuple(pending), tuple((*e, w) for e, w in pair.items()))


def rte_execute(estnu: Estnu, sample: DurationSample) -> ExecutionTrace:
    """Dispatch the closure online, always executing the earliest-ready timepoints.

    Contingent timepoints fire at activation + realized duration.  A
    controllable is enabled once every nonpositive outgoing ordinary edge
    points at an executed timepoint and no wait is still undetermined; it
    then executes at the maximum of its released bounds.  Controllables tied
    by mutual 0-edges form a rigid group, keyed by its lowest member, that is
    enabled and executes as one.  Each decision takes the earliest due entry:
    at one instant, firings are observed before any group executes, and the
    decision batches every due firing, or every ready group, at that time.

    Dispatch is event-driven (RTE*, Hunsberger 2016): each group counts its
    undetermined requirements (nonpositive edges to unexecuted timepoints
    outside it, waits on unexecuted activations) and keeps an edge bound,
    max t_v - w over executed heads, plus one wait bound t_a - w per
    unfired label.  Executing a timepoint walks its incoming edges and the
    waits it activates or labels once; ready groups sit in a heap keyed by
    bound and stale entries are skipped.  A wait's bound is dropped when its
    label fires: it then releases at min(t_c, t_a - w) <= now, which no
    longer constrains anything, so group bounds can fall as well as rise.
    On a genuine DC closure this never violates an edge; violations or
    deadlocks mean the input was not such a closure.

    The dispatcher is compiled once per closure, when ``dc_check`` (offline)
    builds the ``Estnu``; a call validates the sample, copies the counts, and
    dispatches and sweeps, so online time is the dispatch alone.
    """
    stnu = estnu.base
    n = stnu.n_timepoints
    if len(sample.durations) != stnu.n_activities:
        raise ValueError(
            f"sample has {len(sample.durations)} durations for {stnu.n_activities} activities"
        )
    realized = [0] * n
    for _, c, low, high in stnu.contingent_links:
        d = sample.durations[c // 2]
        if not low <= d <= high:
            raise ValueError(
                f"realized duration {d} outside [{low}, {high}] for {stnu.label(c)}"
            )
        realized[c] = d
    groups, members, into, activates, labeled, pending_at_start, edges = estnu._dispatch
    # per group: undetermined requirements, edge bound, wait bound per label
    pending = list(pending_at_start)
    edge_bound = [0] * n
    wait_bound: list[dict[int, int]] = [{} for _ in range(n)]
    times: list[int | None] = [None] * n
    executed = 0
    decisions: list[tuple[int, tuple[int, ...]]] = []
    now = 0
    firing: list[tuple[int, int]] = []  # (time, contingent)
    ready: list[tuple[int, int]] = []  # (bound, group); stale unless bound[group] matches
    bound: list[int | None] = [None] * n
    touched = groups
    while True:
        for g in touched:
            if times[g] is None and pending[g] == 0:
                b = max(edge_bound[g], max(wait_bound[g].values(), default=0))
                if bound[g] != b:
                    bound[g] = b
                    heapq.heappush(ready, (b, g))
        if executed == n:
            break
        while ready and (times[ready[0][1]] is not None or bound[ready[0][1]] != ready[0][0]):
            heapq.heappop(ready)
        if not firing and not ready:
            raise RteError("execution deadlocked; input is not a dispatchable DC closure")
        batch = []
        if firing and (not ready or firing[0][0] <= max(now, ready[0][0])):
            now = firing[0][0]
            while firing and firing[0][0] == now:
                batch.append(heapq.heappop(firing)[1])
        else:
            now = max(now, ready[0][0])
            while ready and ready[0][0] <= now:
                b, g = heapq.heappop(ready)
                if times[g] is None and bound[g] == b:
                    batch += members[g]
                    times[g] = now  # taken: a duplicate entry of g is skipped
        batch.sort()
        for tp in batch:
            times[tp] = now
        executed += len(batch)
        decisions.append((now, tuple(batch)))
        touched = set()
        for tp in batch:
            for g, w in into[tp]:
                if times[g] is None:
                    if now - w > edge_bound[g]:
                        edge_bound[g] = now - w  # only rises
                    pending[g] -= w <= 0
                    if not pending[g]:  # a group still waiting needs no bound yet
                        touched.add(g)
            for c in activates[tp]:
                heapq.heappush(firing, (now + realized[c], c))
                for g, w in labeled[c]:
                    pending[g] -= 1
                    wait_bound[g][c] = max(wait_bound[g].get(c, now - w), now - w)
                    if not pending[g]:
                        touched.add(g)
            for g, _ in labeled[tp]:
                wait_bound[g].pop(tp, None)
                touched.add(g)

    for u, v, w in edges:
        if times[v] - times[u] > w:
            raise RteError(
                f"edge {stnu.label(u)} -> {stnu.label(v)} <= {w} violated; "
                "input is not a dispatchable DC closure"
            )
    return ExecutionTrace(times=tuple(times), makespan=max(times), decisions=tuple(decisions))
