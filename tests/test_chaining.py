import random

import pytest

from srcpsp.chaining import chain
from srcpsp.instances import ProjectInstance, make_stochastic, sample_durations
from srcpsp.solver import Schedule, SolveStatus, check_schedule, solve
from srcpsp.stn import DistanceGraph, earliest_schedule

from oracles import random_instance

A, B, C, D, E = 1, 2, 3, 4, 5


def test_chain_two_activities_single_unit():
    inst = ProjectInstance(
        2,
        (0, 2, 1, 0),
        ((0, 1, 1, 0),),
        (1,),
        ((0, 1, 0), (1, 2, 2)),
    )
    sched = Schedule.from_starts((0, 0, 2, 0), inst.durations)
    pos = chain(inst, inst.durations, sched)
    assert pos.chains == (((1, 2),),)
    assert pos.chain_edges == ((1, 2),)


def test_chain_edge_shared_by_two_resources_appears_once_where_it_first_appears():
    # activities 1 and 2 use both unit resources, activity 3 only resource 1
    inst = ProjectInstance(
        3,
        (0, 2, 2, 2, 0),
        ((0, 1, 1, 0, 0), (0, 1, 1, 1, 0)),
        (1, 1),
        ((0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 4, 2), (2, 4, 2), (3, 4, 2)),
    )
    sched = Schedule.from_starts((0, 0, 2, 4, 6), inst.durations)
    pos = chain(inst, inst.durations, sched)
    assert pos.chain_edges == ((1, 2), (2, 3))
    assert pos.chains == (((1, 2),), ((1, 2, 3),))


def test_chain_estimate_schedule_reproduces_appendix_edges(example_instance):
    # duration estimates with d lifted to 2; schedule a:0 b:2 c:6 d:4 e:7
    inst = example_instance
    est = (0, 2, 5, 3, 2, 2, 0)
    sched = Schedule.from_starts((0, 0, 2, 6, 4, 7, 9), est)
    pos = chain(inst, est, sched)
    assert set(pos.chain_edges) == {(A, D), (D, C), (B, E), (A, B)}


def test_chain_deterministic_schedule_yields_alternate_edges(example_instance):
    inst = example_instance
    sched = Schedule.from_starts((0, 1, 3, 5, 0, 3, 7), inst.durations)
    pos = chain(inst, inst.durations, sched)
    assert set(pos.chain_edges) == {(D, A), (A, E), (E, C), (A, B)}


def test_chain_zero_demand_activity_left_out():
    inst = ProjectInstance(
        2,
        (0, 2, 2, 0),
        ((0, 1, 0, 0),),
        (1,),
        ((0, 1, 0), (0, 2, 0)),
    )
    sched = Schedule.from_starts((0, 0, 0, 0), inst.durations)
    pos = chain(inst, inst.durations, sched)
    flat = {j for per_res in pos.chains for c in per_res for j in c}
    assert 2 not in flat
    assert all(2 not in edge for edge in pos.chain_edges)


def test_chain_demand_counts_respected(example_instance):
    inst = example_instance
    sched = Schedule.from_starts((0, 1, 3, 5, 0, 3, 7), inst.durations)
    pos = chain(inst, inst.durations, sched)
    for j in range(1, 6):
        appearances = sum(c.count(j) for c in pos.chains[0])
        assert appearances == inst.demands[0][j]


def test_chain_rejects_infeasible_schedule(example_instance):
    inst = example_instance
    bad = Schedule.from_starts((0,) * 7, inst.durations)
    with pytest.raises(ValueError, match="feasible"):
        chain(inst, inst.durations, bad)


def test_chain_edges_are_consecutive_pairs(example_instance):
    inst = example_instance
    sched = Schedule.from_starts((0, 1, 3, 5, 0, 3, 7), inst.durations)
    pos = chain(inst, inst.durations, sched)
    expected = set()
    for per_res in pos.chains:
        for c in per_res:
            expected.update(zip(c, c[1:]))
    assert set(pos.chain_edges) == expected


def test_pos_respects_schedule_cases(example_instance):
    def respects(pos, sched, durations):
        # every chain edge holds end-to-start in the schedule
        return all(
            sched.starts[b] >= sched.starts[a] + durations[a]
            for a, b in pos.chain_edges
        )

    inst = example_instance
    sched = Schedule.from_starts((0, 1, 3, 5, 0, 3, 7), inst.durations)
    pos = chain(inst, inst.durations, sched)
    assert respects(pos, sched, inst.durations)
    stretched = tuple(d + 3 if d else 0 for d in inst.durations)
    assert not respects(pos, sched, stretched)


def test_chain_is_deterministic(example_instance):
    inst = example_instance
    sched = Schedule.from_starts((0, 1, 3, 5, 0, 3, 7), inst.durations)
    assert chain(inst, inst.durations, sched) == chain(inst, inst.durations, sched)


def test_property_pos_resource_safety():
    # Any earliest schedule of [instance lags + chain edges under realized
    # durations] must stay feasible, whatever the realization.
    rng = random.Random(20260818)
    trials = 0
    while trials < 500:
        inst = random_instance(rng)
        out = solve(inst, inst.durations, time_limit=10)
        if out.status is not SolveStatus.OPTIMAL:
            continue
        pos = chain(inst, inst.durations, out.schedule)
        stoch = make_stochastic(inst, rng.choice([1, 2]))
        for k in range(5):
            realized = sample_durations(stoch, rng.randrange(2**31)).durations
            edges = list(inst.temporal_constraints)
            edges.extend((a, b, realized[a]) for a, b in pos.chain_edges)
            starts = earliest_schedule(
                DistanceGraph(node_count=inst.n_activities, edges=tuple(edges))
            )
            if starts is None:
                continue  # realized max lags can be contradictory; not chaining's fault
            report = check_schedule(
                inst, realized, Schedule.from_starts(starts, realized)
            )
            assert report.resource_violations == ()
            assert report.feasible
            trials += 1
