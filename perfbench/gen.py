"""Seeded RCPSP/max instances with a planted resource-feasible schedule.

The shape follows the bundled j10 sets (tools/make_instances.py): five
resources used by about half the activities, capacities a little above the
peak demand, a precedence skeleton where each activity follows one or two
lower-numbered ones, and two maximal lags over skeleton arcs.  The
difference is that a start vector is planted while the instance is built:
activities are placed in index order at the earliest time that honours
their predecessors and fits every capacity, and each maximal lag leaves
slack over the planted gap.  The planted schedule is therefore feasible by
construction, and nothing here calls the solver.
"""

from __future__ import annotations

import random

from srcpsp.instances import ProjectInstance, make_stochastic, quantile_durations

RESOURCES = 5
MAX_LAGS = 2


def planted_instance(
    n: int, seed: int, epsilon: float = 1.0
) -> tuple[ProjectInstance, tuple[int, ...]]:
    """An ``n``-activity instance and the start vector planted in it.

    The plan uses the largest durations noise level ``epsilon`` allows, so
    it stays feasible for every realization at that level.
    """
    rng = random.Random(f"perfbench:{n}:{seed}")
    total = n + 2
    durations = [0] + [rng.randint(1, 10) for _ in range(n)] + [0]
    demands = []
    for _ in range(RESOURCES):
        row = [0] * total
        for j in range(1, n + 1):
            if rng.random() < 0.5:
                row[j] = rng.randint(1, 4)
        if max(row) == 0:
            row[rng.randint(1, n)] = 1
        demands.append(row)
    capacities = [max(row) + rng.randint(0, 2) for row in demands]
    unconstrained = ProjectInstance(
        activity_count=n,
        durations=tuple(durations),
        demands=tuple(tuple(row) for row in demands),
        capacities=tuple(capacities),
        temporal_constraints=(),
    )
    longest = quantile_durations(make_stochastic(unconstrained, epsilon), 1).durations

    preds: dict[int, list[int]] = {j: [] for j in range(1, n + 1)}
    for j in range(2, n + 1):
        preds[j] = rng.sample(range(1, j), k=min(j - 1, rng.randint(1, 2)))

    horizon = sum(longest) + 1
    usage = [[0] * horizon for _ in range(RESOURCES)]
    starts = [0] * total
    for j in range(1, n + 1):
        t = max((starts[i] + longest[i] for i in preds[j]), default=0)
        while any(
            usage[r][u] + demands[r][j] > capacities[r]
            for r in range(RESOURCES)
            for u in range(t, t + longest[j])
        ):
            t += 1
        for r in range(RESOURCES):
            for u in range(t, t + longest[j]):
                usage[r][u] += demands[r][j]
        starts[j] = t
    starts[total - 1] = max(starts[j] + longest[j] for j in range(total))

    arcs: dict[tuple[int, int], int] = {}
    for j, before in preds.items():
        for i in before:
            arcs[(i, j)] = durations[i]
    skeleton = sorted(arcs)
    for j in range(1, n + 1):
        arcs[(0, j)] = 0
        arcs[(j, total - 1)] = durations[j]
    # windows as narrow as the bundled sets': only arcs the plan keeps close
    close = [(i, j) for i, j in skeleton if starts[j] - starts[i] <= longest[i] + 2]
    for i, j in rng.sample(close, k=min(MAX_LAGS, len(close))):
        arcs[(j, i)] = -(starts[j] - starts[i] + rng.randint(3, 8))

    inst = ProjectInstance(
        activity_count=n,
        durations=tuple(durations),
        demands=tuple(tuple(row) for row in demands),
        capacities=tuple(capacities),
        temporal_constraints=tuple((i, j, w) for (i, j), w in sorted(arcs.items())),
    )
    return inst, tuple(starts)
