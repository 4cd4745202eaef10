import random

import pytest

from srcpsp.stn import (
    DistanceGraph,
    _relax,
    _rooted_edges,
    _tighten,
    earliest_schedule,
)


def _cycle(g: DistanceGraph) -> list[int] | None:
    """Positive cycle that the relaxation finds from the unpinned origin."""
    n = g.node_count
    return _relax(n + 1, _rooted_edges(g.node_count, g.edges, None), n)[1]


def _tightest(g: DistanceGraph) -> dict[tuple[int, int], int]:
    """The tightest rooted weight of each node pair; parallel edges stay unmerged."""
    weight: dict[tuple[int, int], int] = {}
    for i, j, w in _rooted_edges(g.node_count, g.edges, None):
        weight[(i, j)] = max(w, weight.get((i, j), w))
    return weight


def test_propagate_simple_chain():
    # b starts at least 2 after a, c at least 1 after b
    g = DistanceGraph(node_count=3, edges=((0, 1, 2), (1, 2, 1)))
    assert earliest_schedule(g) == [0, 2, 3]


def test_propagate_empty_graph_is_all_zero():
    g = DistanceGraph(node_count=3, edges=())
    assert earliest_schedule(g) == [0, 0, 0]


def test_propagate_contradictory_window():
    # t1 - t0 >= 5 and t0 - t1 >= -3 (t1 <= t0 + 3): impossible.
    g = DistanceGraph(node_count=2, edges=((0, 1, 5), (1, 0, -3)))
    assert earliest_schedule(g) is None
    assert sorted(_cycle(g)) == [0, 1]


def test_propagate_positive_self_loop():
    g = DistanceGraph(node_count=1, edges=((0, 0, 1),))
    assert earliest_schedule(g) is None
    assert _cycle(g) == [0]


def test_propagate_parallel_edges_keep_tightest():
    g = DistanceGraph(node_count=2, edges=((0, 1, 2), (0, 1, 7), (0, 1, 4)))
    assert earliest_schedule(g) == [0, 7]


def test_propagate_cycle_total_uses_tightest_bounds():
    # Parallel (1, 0) edges: loosest is fine alone, tightest closes the cycle.
    g = DistanceGraph(node_count=2, edges=((0, 1, 3), (1, 0, -5), (1, 0, -2)))
    assert earliest_schedule(DistanceGraph(2, g.edges[:2])) == [0, 3]
    assert earliest_schedule(g) is None
    assert sorted(_cycle(g)) == [0, 1]
    weight = _tightest(g)
    assert weight[(0, 1)] + weight[(1, 0)] == 1


def test_edge_validation():
    with pytest.raises(ValueError):
        DistanceGraph(node_count=2, edges=((0, 2, 1),))


def test_earliest_schedule_fixed_pushes_dependents():
    # d anchored at 0; e exactly 3 after d (min and max lag).
    g = DistanceGraph(node_count=2, edges=((0, 1, 3), (1, 0, -3)))
    sched = earliest_schedule(g, fixed={0: 0})
    assert sched == [0, 3]
    sched = earliest_schedule(g, fixed={0: 2})
    assert sched == [2, 5]


def test_earliest_schedule_fixed_conflict_is_none():
    g = DistanceGraph(node_count=2, edges=((0, 1, 3),))
    assert earliest_schedule(g, fixed={0: 5, 1: 6}) is None


def test_earliest_schedule_fixed_value_respected_without_constraints():
    g = DistanceGraph(node_count=3, edges=())
    assert earliest_schedule(g, fixed={1: 7}) == [0, 7, 0]


def test_earliest_schedule_negative_fixed_rejected():
    g = DistanceGraph(node_count=1, edges=())
    assert earliest_schedule(g, fixed={0: -1}) is None


def test_earliest_schedule_fixed_node_out_of_range():
    g = DistanceGraph(node_count=1, edges=())
    with pytest.raises(ValueError):
        earliest_schedule(g, fixed={3: 0})


def test_earliest_schedule_inconsistent_graph_is_none():
    g = DistanceGraph(node_count=2, edges=((0, 1, 1), (1, 0, 0)))
    assert earliest_schedule(g) is None


def _random_graph(rng: random.Random) -> DistanceGraph:
    n = rng.randint(1, 8)
    m = rng.randint(0, 14)
    edges = tuple(
        (rng.randrange(n), rng.randrange(n), rng.randint(-6, 6)) for _ in range(m)
    )
    return DistanceGraph(node_count=n, edges=edges)


def test_property_potentials_satisfy_all_edges():
    rng = random.Random(20260818)
    seen_consistent = seen_cycles = 0
    for _ in range(300):
        g = _random_graph(rng)
        pot = earliest_schedule(g)
        if pot is not None:
            seen_consistent += 1
            assert all(p >= 0 for p in pot)
            for i, j, w in g.edges:
                assert pot[j] - pot[i] >= w
        else:
            # the witness the STNU all-max check reads: every hop is backed
            # by a relaxed edge, and the hops' bounds sum to a positive value
            seen_cycles += 1
            nodes = _cycle(g)
            weight = _tightest(g)
            hops = [(nodes[k], nodes[(k + 1) % len(nodes)]) for k in range(len(nodes))]
            assert all(hop in weight for hop in hops)
            assert sum(weight[hop] for hop in hops) > 0
    assert seen_consistent > 20 and seen_cycles > 20


def test_property_edge_order_is_irrelevant():
    rng = random.Random(42)
    for _ in range(150):
        g = _random_graph(rng)
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        g2 = DistanceGraph(node_count=g.node_count, edges=tuple(shuffled))
        assert earliest_schedule(g) == earliest_schedule(g2)


def test_property_least_solution():
    # Lowering any single potential violates some constraint or t >= 0.
    rng = random.Random(7)
    for _ in range(120):
        g = _random_graph(rng)
        pot = earliest_schedule(g)
        if pot is None:
            continue
        for v in range(g.node_count):
            lowered = pot.copy()
            lowered[v] -= 1
            ok = lowered[v] >= 0 and all(
                lowered[j] - lowered[i] >= w for i, j, w in g.edges
            )
            assert not ok


def test_property_tighten_matches_full_relaxation():
    # Edges join one at a time, each tightened from its head, as in the
    # branch-and-bound; every step must equal a from-scratch earliest_schedule.
    rng = random.Random(3)
    steps = chains = 0
    for _ in range(300):
        g = _random_graph(rng)
        n = g.node_count
        fixed = {v: rng.randint(-1, 6) for v in rng.sample(range(n), rng.randint(0, min(2, n)))}
        edges = _rooted_edges(n, g.edges, fixed)
        succ = [[(j, w) for i, j, w in edges if i == u] for u in range(n + 1)]
        dist, _ = _relax(n + 1, edges, n)
        assert (None if dist is None else dist[:n]) == earliest_schedule(g, fixed)
        added = ()
        while dist is not None:
            edge = (rng.randrange(n), rng.randrange(n), rng.randint(-3, 4))
            added += (edge,)
            succ[edge[0]].append(edge[1:])
            dist = _tighten(succ, dist, edge)
            full = earliest_schedule(DistanceGraph(n, g.edges + added), fixed)
            assert (None if dist is None else dist[:n]) == full
            assert dist is None or dist[n] == 0
            steps += 1
        chains += bool(added)  # every chain ends in a positive cycle
    assert steps > 300 and chains > 60
