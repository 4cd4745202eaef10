"""Tuple-keyed DC propagators, kept as references for ``srcpsp.stnu``.

``DictPropagator`` is ``srcpsp.stnu._Propagator``'s algorithm with every
record in a dict keyed by (source, target) or (source, contingent label),
the layout the library used before it moved to dense rows.  Its worklist is
drained first in, first out, like the library's, so ``fifo_dc_check`` must
return exactly what ``srcpsp.stnu.dc_check`` returns.

``LifoPropagator`` pops the newest entry first, the order before that, and
so tightens each stored edge about nine times.  The rules are the same, but
the closure they reach is not order-independent: label removal fires only
while a wait is still loose, so the order decides which looser ordinary
bounds get recorded.  Tests against ``dc_check`` therefore require equal
verdicts, equal edge key sets and equal execution traces, not equal weights.
"""

from __future__ import annotations

from collections import deque

from srcpsp.stn import _relax
from srcpsp.stnu import (
    Controllable,
    Estnu,
    NotDc,
    Stnu,
    _Inconsistent,
    _witness,
)


class DictPropagator:
    """Edge-propagation state; derives the DC closure or raises _Inconsistent.

    Each edge is one record (weight, derivation), in ``ord`` keyed by
    (source, target) or in ``uc`` keyed by (source, contingent label).
    """

    def __init__(self, stnu: Stnu) -> None:
        self.stnu = stnu
        self.low = {c: low for _, c, low, _ in stnu.contingent_links}
        self.activation = {c: a for a, c, _, _ in stnu.contingent_links}
        self.ord: dict[tuple[int, int], tuple[int, tuple]] = {}
        self.uc: dict[tuple[int, int], tuple[int, tuple]] = {}
        # adjacency by timepoint: ordinary successors, predecessors, upper-case labels
        self.ord_out: list[set[int]] = [set() for _ in range(stnu.n_timepoints)]
        self.ord_in: list[set[int]] = [set() for _ in range(stnu.n_timepoints)]
        self.uc_out: list[set[int]] = [set() for _ in range(stnu.n_timepoints)]
        weights = [abs(w) for _, _, w in stnu.ordinary_edges]
        weights += [abs(low) + abs(high) for _, _, low, high in stnu.contingent_links]
        self.horizon = 1 + sum(weights)
        self.queue: deque[tuple] = deque()  # (rule, store, x, y, w); stale once (x, y) is below w

    def put_ord(self, u: int, v: int, w: int, how: tuple) -> None:
        if u == v and w >= 0:
            return  # vacuous self-loop
        old = self.ord.get((u, v))
        if old is None:
            self.ord_out[u].add(v)
            self.ord_in[v].add(u)
        elif old[0] <= w:
            return
        self.ord[(u, v)] = (w, how)
        if (u == v and w < 0) or w < -self.horizon:
            raise _Inconsistent(how)
        self.queue.append((self._from_ord, self.ord, u, v, w))

    def put_uc(self, u: int, c: int, w: int, how: tuple) -> None:
        old = self.uc.get((u, c))
        if old is None:
            self.uc_out[u].add(c)
        elif old[0] <= w:
            return
        self.uc[(u, c)] = (w, how)
        if w < -self.horizon or (w < 0 and u == self.activation[c]):
            raise _Inconsistent(how)
        self.queue.append((self._from_uc, self.uc, u, c, w))
        if w >= -self.low[c]:
            self.put_ord(u, self.activation[c], w, how)

    def take(self) -> tuple:
        """The next worklist entry: the oldest."""
        return self.queue.popleft()

    def run(self) -> None:
        for u, v, w in self.stnu.ordinary_edges:
            self.put_ord(u, v, w, (u, v, w))
        for a, c, low, high in self.stnu.contingent_links:
            self.put_ord(a, c, high, (a, c, high))
            self.put_ord(c, a, -low, (c, a, -low))
            self.put_uc(c, c, -high, (c, a, -high))
        while self.queue:
            rule, store, x, y, w = self.take()
            if store[(x, y)][0] == w:
                rule(x, y, w)

    def _from_ord(self, u: int, v: int, w: int) -> None:
        stored = self.ord
        how = stored[(u, v)][1]
        for y in self.ord_out[v]:  # (u -> v) + (v -> y)
            w2, how2 = stored[(v, y)]
            old = stored.get((u, y))
            if old is None or w + w2 < old[0]:
                self.put_ord(u, y, w + w2, (how, how2))
        for x in self.ord_in[u]:  # (x -> u) + (u -> v)
            w1, how1 = stored[(x, u)]
            old = stored.get((x, v))
            if old is None or w1 + w < old[0]:
                self.put_ord(x, v, w1 + w, (how1, how))
        for c in self.uc_out[v]:  # upper-case rule: ordinary prefix
            w2, how2 = self.uc[(v, c)]
            self.put_uc(u, c, w + w2, (how, how2))
        if w < 0 and u in self.low:  # lower-case rule
            a, low = self.activation[u], self.low[u]
            self.put_ord(a, v, low + w, ((a, u, low), how))

    def _from_uc(self, u: int, c: int, w: int) -> None:
        how = self.uc[(u, c)][1]
        for x in self.ord_in[u]:
            w1, how1 = self.ord[(x, u)]
            old = self.uc.get((x, c))
            if old is None or w1 + w < old[0]:
                self.put_uc(x, c, w1 + w, (how1, how))
        if w < 0 and u in self.low and u != c:  # cross-case rule
            a, low = self.activation[u], self.low[u]
            self.put_uc(a, c, low + w, ((a, u, low), how))


class LifoPropagator(DictPropagator):
    """``DictPropagator`` with its worklist popped newest first."""

    def take(self) -> tuple:
        """The next worklist entry: the newest."""
        return self.queue.pop()


def _allmax_witness(prop: DictPropagator) -> NotDc | None:
    """Negative cycle in the all-max projection (waits read as hard bounds)."""
    n = prop.stnu.n_timepoints
    tight = dict(prop.ord)
    for (u, c), (w, how) in prop.uc.items():
        v = prop.activation[c]
        if u == v:
            continue
        if (u, v) not in tight or w < tight[(u, v)][0]:
            tight[(u, v)] = (w, how)
    edges = [(n, v, 0) for v in range(n)]
    edges += [(v, u, -w) for (u, v), (w, _) in tight.items()]
    _, cycle = _relax(n + 1, edges, n)
    if cycle is None:
        return None
    cycle.reverse()
    hops = zip(cycle, cycle[1:] + cycle[:1])
    return _witness(*(tight[hop][1] for hop in hops))


def _dc_check(stnu: Stnu, propagator: type[DictPropagator]) -> Controllable | NotDc:
    prop = propagator(stnu)
    try:
        prop.run()
    except _Inconsistent as contradiction:
        return _witness(*contradiction.args)
    cycle = _allmax_witness(prop)
    if cycle is not None:
        return cycle
    ordinary = tuple(sorted((u, v, w) for (u, v), (w, _) in prop.ord.items()))
    waits = tuple(
        sorted(
            (u, prop.activation[c], w, c)
            for (u, c), (w, _) in prop.uc.items()
            if w < -prop.low[c] and u != c
        )
    )
    base = Stnu(
        n_activities=stnu.n_activities,
        ordinary_edges=ordinary,
        contingent_links=stnu.contingent_links,
    )
    return Controllable(estnu=Estnu(base=base, wait_edges=waits))


def fifo_dc_check(stnu: Stnu) -> Controllable | NotDc:
    """``srcpsp.stnu.dc_check`` on the tuple-keyed first-in, first-out propagator."""
    return _dc_check(stnu, DictPropagator)


def dc_check(stnu: Stnu) -> Controllable | NotDc:
    """``srcpsp.stnu.dc_check`` on the last-in, first-out propagator."""
    return _dc_check(stnu, LifoPropagator)
