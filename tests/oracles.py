"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's solver machinery: the optimum oracle
enumerates start vectors directly, so agreement with the branch-and-bound is
meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import random

from srcpsp.instances import DurationSample, ProjectInstance, StochasticInstance


def enumeration_horizon(inst: ProjectInstance, durations) -> int:
    return sum(durations) + sum(max(w, 0) for _, _, w in inst.temporal_constraints)


def brute_force_optimum(
    inst: ProjectInstance,
    durations,
    horizon: int | None = None,
) -> tuple[int, tuple[int, ...]] | None:
    """Exhaustive search over integer start vectors in [0, horizon].

    Returns (optimal makespan, a witness start vector) or None when no
    feasible vector exists within the horizon.  Pruning only discards
    assignments that provably cannot beat the incumbent or already violate a
    constraint among assigned activities, so the search stays exhaustive.
    """
    total = inst.n_activities
    H = enumeration_horizon(inst, durations) if horizon is None else horizon
    cons = inst.temporal_constraints
    best: list[tuple[int, tuple[int, ...]] | None] = [None]
    starts = [0] * total

    def partial_resource_ok(k: int) -> bool:
        # usage among activities 0..k only ever grows as more are assigned
        for r in range(inst.n_resources):
            cap = inst.capacities[r]
            for j in range(k + 1):
                if durations[j] == 0 or inst.demands[r][j] == 0:
                    continue
                t = starts[j]
                usage = sum(
                    inst.demands[r][i]
                    for i in range(k + 1)
                    if starts[i] <= t < starts[i] + durations[i]
                )
                if usage > cap:
                    return False
        return True

    def assign(k: int, partial_makespan: int) -> None:
        if best[0] is not None and partial_makespan >= best[0][0]:
            return
        if k == total:
            best[0] = (partial_makespan, tuple(starts))
            return
        lo, hi = 0, H
        for i, j, w in cons:
            if j == k and i < k:
                lo = max(lo, starts[i] + w)
            if i == k and j < k:
                hi = min(hi, starts[j] - w)
        for v in range(lo, hi + 1):
            starts[k] = v
            if not partial_resource_ok(k):
                continue
            assign(k + 1, max(partial_makespan, v + durations[k]))

    assign(0, 0)
    return best[0]


def random_instance(rng: random.Random, max_real: int = 5) -> ProjectInstance:
    """Small random RCPSP/max instance with enumeration horizon <= 15."""
    while True:
        n = rng.randint(1, max_real)
        durations = [0] + [rng.randint(1, 2) for _ in range(n)] + [0]
        n_res = rng.randint(1, 2)
        capacities = [rng.randint(2, 4) for _ in range(n_res)]
        demands = [
            [0] + [rng.randint(0, capacities[r]) for _ in range(n)] + [0]
            for r in range(n_res)
        ]
        constraints: list[tuple[int, int, int]] = [(0, j, 0) for j in range(1, n + 1)]
        for _ in range(rng.randint(0, n)):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            if i != j:
                constraints.append((i, j, rng.randint(-4, 4)))
        inst = ProjectInstance(
            activity_count=n,
            durations=tuple(durations),
            demands=tuple(tuple(row) for row in demands),
            capacities=tuple(capacities),
            temporal_constraints=tuple(constraints),
        )
        if enumeration_horizon(inst, durations) <= 15:
            return inst


def resource_violations(inst: ProjectInstance, durations, starts) -> tuple:
    """``check_schedule``'s resource report by a rescan of every activity for
    each resource at each start event: (resource, time, usage, capacity)
    tuples in (resource, time) order."""
    total = inst.n_activities
    found = []
    events = sorted({starts[j] for j in range(total) if durations[j] > 0})
    for r in range(inst.n_resources):
        cap = inst.capacities[r]
        for t in events:
            usage = sum(
                inst.demands[r][j]
                for j in range(total)
                if starts[j] <= t < starts[j] + durations[j]
            )
            if usage > cap:
                found.append((r, t, usage, cap))
    return tuple(found)


def twin_sample(
    stoch: StochasticInstance,
    sample: DurationSample,
    starts: tuple[int, ...],
    cut: int,
    rng: random.Random,
) -> DurationSample:
    """A sample that an online run with these starts cannot tell from ``sample`` before ``cut``.

    An activity finished by the cut keeps its duration.  One running at the
    cut is redrawn within its bounds to end after the cut, and one not
    started before the cut is redrawn within its bounds.  A non-anticipative
    policy run on the twin starts the same activities before the cut, at the
    same times.
    """
    durations = []
    for (low, high), d, s in zip(stoch.bounds, sample.durations, starts):
        if s + d <= cut:
            durations.append(d)
        elif s < cut:
            durations.append(rng.randint(max(low, cut - s + 1), high))
        else:
            durations.append(rng.randint(low, high))
    return DurationSample(tuple(durations))
