"""Turn a fixed schedule into a partial order schedule via resource chains.

Each unit of renewable capacity becomes one chain, a total order of the
activities that occupy that unit.  An activity demanding q units of a
resource joins q of its chains.  Consecutive chain members A, B yield the
ordering edge "B starts after A ends"; any start vector satisfying the
instance lags plus these edges is resource-feasible for any duration
realization, because per resource at most capacity-many chains exist and no
chain ever hosts two overlapping activities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .instances import ProjectInstance
from .solver import Schedule, check_schedule


@dataclass(frozen=True)
class PartialOrderSchedule:
    """Instance plus chain edges; ``chains[r][k]`` is resource r's k-th unit order."""

    base: ProjectInstance
    chain_edges: tuple[tuple[int, int], ...]
    chains: tuple[tuple[tuple[int, ...], ...], ...]


def chain(
    inst: ProjectInstance,
    durations: Sequence[int],
    sched: Schedule,
) -> PartialOrderSchedule:
    """Thread activities through per-unit resource chains, earliest first.

    Activities are processed by nondecreasing start (ties: lower index).  An
    activity joins chains whose last member ends by its start, preferring an
    exact end match (reusing a unit the moment it frees keeps chains tight),
    then the earliest-ending chain, then the lowest chain index.
    """
    report = check_schedule(inst, durations, sched)
    if not report.feasible:
        raise ValueError("chaining requires a feasible schedule")
    starts = sched.starts
    total = inst.n_activities
    order = sorted(range(1, total - 1), key=lambda j: (starts[j], j))

    all_chains: list[list[list[int]]] = []
    edges: dict[tuple[int, int], None] = {}  # insertion-ordered: first appearance wins
    for r in range(inst.n_resources):
        chains: list[list[int]] = [[] for _ in range(inst.capacities[r])]
        ends = [0] * inst.capacities[r]
        for j in order:
            need = inst.demands[r][j]
            if need == 0:
                continue
            candidates = sorted(
                (k for k in range(len(chains)) if ends[k] <= starts[j]),
                key=lambda k: (ends[k] != starts[j], ends[k], k),
            )
            if len(candidates) < need:
                raise AssertionError("resource-feasible schedule ran out of chains")
            for k in candidates[:need]:
                if chains[k]:
                    edges[chains[k][-1], j] = None
                chains[k].append(j)
                ends[k] = starts[j] + durations[j]
        all_chains.append(chains)

    return PartialOrderSchedule(
        base=inst,
        chain_edges=tuple(edges),
        chains=tuple(tuple(tuple(c) for c in per_res) for per_res in all_chains),
    )

