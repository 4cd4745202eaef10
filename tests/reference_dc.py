"""The last-in, first-out DC propagator, kept as a reference.

``srcpsp.stnu._Propagator`` drains its worklist first in, first out; this is
its predecessor's order, which pops the newest entry first and so tightens
each stored edge about nine times.  The rules are the same, but the closure
they reach is not order-independent: label removal fires only while a wait
is still loose, so the order decides which looser ordinary bounds get
recorded.  The differential tests therefore require equal verdicts, equal
edge key sets and equal execution traces, not equal weights.
"""

from __future__ import annotations

from srcpsp.stnu import (
    Controllable,
    Estnu,
    NotDc,
    Stnu,
    _allmax_witness,
    _Inconsistent,
    _Propagator,
    _witness,
)


class LifoPropagator(_Propagator):
    """``_Propagator`` with its worklist popped newest first."""

    def run(self) -> None:
        for u, v, w in self.stnu.ordinary_edges:
            self.put_ord(u, v, w, (u, v, w))
        for a, c, low, high in self.stnu.contingent_links:
            self.put_ord(a, c, high, (a, c, high))
            self.put_ord(c, a, -low, (c, a, -low))
            self.put_uc(c, c, -high, (c, a, -high))
        while self.queue:
            rule, store, x, y, w = self.queue.pop()
            if store[(x, y)][0] == w:
                rule(x, y, w)


def dc_check(stnu: Stnu) -> Controllable | NotDc:
    """``srcpsp.stnu.dc_check`` on the last-in, first-out propagator."""
    prop = LifoPropagator(stnu)
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
