import copy
import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from srcpsp.instances import (
    ProjectInstance,
    make_stochastic,
    parse_psplib,
    quantile_durations,
)
from srcpsp import solver
from srcpsp.methods import MethodConfig
from srcpsp.solver import Schedule, SolveStatus, check_schedule, solve, solve_saa
from srcpsp.stn import DistanceGraph, _relax, _rooted_edges, _tighten, earliest_schedule

import reference_solver
from oracles import brute_force_optimum, random_instance, resource_violations

A, B, C, D, E = 1, 2, 3, 4, 5

J10 = Path(__file__).resolve().parent.parent / "data" / "j10"

# Search results on the bundled j10 set at epsilon 1: solve on the 0.9-quantile
# durations (status, makespan, nodes), then solve_saa on the 0.25/0.5/0.75/0.9
# quantile scenarios with node_limit=3000 (status, objective, nodes).  Any
# change to the branching or node order shows up here as a changed node count.
J10_PINNED = (
    ("j10_01", "OPTIMAL", 47, 195, "OPTIMAL", 45.25, 753),
    ("j10_02", "OPTIMAL", 41, 87, "OPTIMAL", 39.75, 299),
    ("j10_03", "OPTIMAL", 59, 127, "OPTIMAL", 57.25, 2899),
    ("j10_04", "OPTIMAL", 54, 125, "OPTIMAL", 52.75, 1057),
    ("j10_05", "OPTIMAL", 40, 15, "OPTIMAL", 38.25, 53),
    ("j10_06", "OPTIMAL", 64, 155, "FEASIBLE", 62.75, 3000),
    ("j10_07", "OPTIMAL", 51, 7, "OPTIMAL", 49.25, 43),
    ("j10_08", "OPTIMAL", 61, 1713, "FEASIBLE", 64.25, 3000),
    ("j10_09", "OPTIMAL", 49, 7, "OPTIMAL", 47.25, 11),
    ("j10_10", "OPTIMAL", 37, 113, "OPTIMAL", 35.75, 1875),
    ("j10_11", "OPTIMAL", 67, 57, "OPTIMAL", 65.75, 207),
    ("j10_12", "OPTIMAL", 32, 203, "OPTIMAL", 31.5, 1357),
)


def sched(inst, starts, durations=None):
    return Schedule.from_starts(starts, durations or inst.durations)


def test_check_schedule_accepts_a_feasible_solution(example_instance):
    inst = example_instance
    # starts a=1, b=3, c=5, d=0, e=3; sink earliest at 7; makespan 8
    report = check_schedule(inst, inst.durations, sched(inst, (0, 1, 3, 5, 0, 3, 7)))
    assert report.feasible
    assert report.precedence_violations == ()
    assert report.resource_violations == ()


def test_check_schedule_proposition_one_shrink(example_instance):
    inst = example_instance
    shrunk = (0, 2, 4, 3, 1, 2, 0)  # d_b 5 -> 4
    report = check_schedule(inst, shrunk, sched(inst, (0, 1, 3, 5, 0, 3, 7)))
    assert report.feasible


def test_check_schedule_all_zero_starts(example_instance):
    inst = example_instance
    report = check_schedule(inst, inst.durations, sched(inst, (0,) * 7))
    assert not report.feasible
    assert ((A, B, 2), -2) in report.precedence_violations
    overloads = [v for v in report.resource_violations if v[1] == 0]
    assert overloads and overloads[0][2] > 4


def test_check_schedule_reports_starts_before_time_zero(example_instance):
    inst = example_instance
    # the optimum shifted one tick earlier: every lag and resource slot holds
    report = check_schedule(inst, inst.durations, sched(inst, (-1, 0, 2, 4, -1, 2, 6)))
    assert report.early_starts == ((0, -1), (4, -1))
    assert report.precedence_violations == () and report.resource_violations == ()
    assert not report.feasible


def test_check_schedule_reports_overloads_as_the_rescan_does():
    # activity 2 has no duration, 3 and 4 start together when 1 ends, and 5
    # spans both events
    inst = ProjectInstance(
        5,
        (0, 2, 0, 2, 1, 3, 0),
        ((0, 2, 3, 2, 2, 2, 0), (0, 1, 1, 1, 1, 0, 0)),
        (3, 1),
        (),
    )
    starts = (0, 0, 2, 2, 2, 0, 5)
    expected = ((0, 0, 4, 3), (0, 2, 6, 3), (1, 2, 2, 1))
    assert resource_violations(inst, inst.durations, starts) == expected
    assert check_schedule(inst, inst.durations, sched(inst, starts)).resource_violations == expected
    rng = random.Random(26)
    several = 0
    for _ in range(2000):
        inst = random_instance(rng, max_real=rng.choice((3, 5)))
        # zero durations and starts on a short range, so that events coincide
        durations = [0] + [rng.randint(0, 3) for _ in range(inst.activity_count)] + [0]
        starts = [rng.randint(-1, 4) for _ in range(inst.n_activities)]
        report = check_schedule(inst, durations, Schedule(tuple(starts), 0))
        assert report.resource_violations == resource_violations(inst, durations, starts)
        several += len(report.resource_violations) > 1
    assert several > 80


def test_check_schedule_makespan_is_recomputed(example_instance):
    inst = example_instance
    s = Schedule.from_starts((0, 1, 3, 5, 0, 3, 7), inst.durations)
    assert s.makespan == 8


def test_check_schedule_size_mismatch(example_instance):
    with pytest.raises(ValueError):
        check_schedule(example_instance, (0, 1), sched(example_instance, (0,) * 7))
    # a negative duration would drop its activity from the resource sweep
    pair = ProjectInstance(
        activity_count=2,
        durations=(0, 2, 2, 0),
        demands=((0, 1, 1, 0),),
        capacities=(1,),
        temporal_constraints=(),
    )
    both_at_zero = Schedule(starts=(0, 0, 0, 0), makespan=2)
    assert check_schedule(pair, (0, 2, 2, 0), both_at_zero).resource_violations
    with pytest.raises(ValueError, match="durations must be nonnegative"):
        check_schedule(pair, (0, 2, -2, 0), both_at_zero)


def test_check_schedule_rejects_start_vector_of_wrong_length(example_instance):
    short = Schedule(starts=(0,) * 6, makespan=0)
    with pytest.raises(ValueError, match="expected 7 starts, got 6"):
        check_schedule(example_instance, example_instance.durations, short)


def test_from_starts_rejects_fewer_starts_than_durations():
    with pytest.raises(ValueError, match="starts and durations must have equal length"):
        Schedule.from_starts((0, 1), (1, 2, 3))


def test_solve_example_optimal(example_instance):
    out = solve(example_instance, example_instance.durations, time_limit=60)
    assert out.status is SolveStatus.OPTIMAL
    assert out.schedule is not None
    assert out.schedule.makespan <= 8
    oracle = brute_force_optimum(example_instance, example_instance.durations)
    assert oracle is not None
    assert out.schedule.makespan == oracle[0] == 8


def test_solve_contradictory_lags_infeasible():
    inst = ProjectInstance(
        2,
        (0, 1, 1, 0),
        ((0, 0, 0, 0),),
        (1,),
        ((1, 2, 2), (2, 1, -1)),
    )
    out = solve(inst, inst.durations)
    assert out.status is SolveStatus.INFEASIBLE
    assert out.schedule is None


def test_solve_single_activity():
    inst = ProjectInstance(1, (0, 4, 0), ((0, 1, 0),), (1,), ((0, 1, 0), (1, 2, 4)))
    out = solve(inst, inst.durations)
    assert out.status is SolveStatus.OPTIMAL
    assert out.schedule.starts[1] == 0
    assert out.schedule.makespan == 4


def test_solve_with_fixed_starts(example_instance):
    inst = example_instance
    out = solve(inst, inst.durations, fixed={D: 0, E: 3})
    assert out.status is SolveStatus.OPTIMAL
    assert out.schedule.starts[D] == 0 and out.schedule.starts[E] == 3


def test_solve_with_contradictory_fixed(example_instance):
    inst = example_instance
    for fixed in ({A: 0, B: 1}, {C: -1}):
        out = solve(inst, inst.durations, fixed=fixed)
        assert (out.status, out.nodes_explored) == (SolveStatus.INFEASIBLE, 1)
        assert out.schedule is None


def test_solve_warm_start_never_worsens(example_instance):
    inst = example_instance
    warm = sched(inst, (0, 1, 3, 5, 0, 3, 7))
    out = solve(inst, inst.durations, warm_start=warm)
    assert out.status is SolveStatus.OPTIMAL
    assert out.schedule.makespan <= warm.makespan


def test_solve_invalid_warm_start_ignored(example_instance):
    inst = example_instance
    out = solve(inst, inst.durations, warm_start=sched(inst, (0,) * 7))
    assert out.status is SolveStatus.OPTIMAL
    assert out.schedule.makespan == 8


def test_solve_ignores_warm_start_with_negative_start_or_broken_pin(example_instance):
    inst = example_instance
    d = inst.durations
    # one tick earlier than the optimum: lag- and resource-feasible, but it
    # starts before time 0, so taking it would report a makespan of 7
    early = sched(inst, (-1, 0, 2, 4, -1, 2, 6))
    assert check_schedule(inst, d, early).early_starts == ((0, -1), (4, -1))
    assert solve(inst, d, warm_start=early) == solve(inst, d)
    # the unpinned optimum starts a at 1; with a pinned to 2 it is no incumbent
    optimum = sched(inst, (0, 1, 3, 5, 0, 3, 7))
    assert solve(inst, d, warm_start=optimum).nodes_explored < solve(inst, d).nodes_explored
    pinned = solve(inst, d, fixed={A: 2})
    assert pinned.schedule.makespan == 9
    assert solve(inst, d, fixed={A: 2}, warm_start=optimum) == pinned


def test_solve_rejects_a_pin_out_of_range_with_or_without_warm_start(example_instance):
    inst = example_instance
    for warm in (None, sched(inst, (0, 1, 3, 5, 0, 3, 7))):
        with pytest.raises(ValueError, match="fixed node 9 out of range"):
            solve(inst, inst.durations, fixed={9: 0}, warm_start=warm)


def test_search_vets_warm_starts_as_a_schedule_replay_does():
    rng = random.Random(2029)
    verdicts = {True: 0, False: 0}
    sole_cause = dict.fromkeys(("length", "pin", "floor", "lag", "overload", "early"), 0)
    cases = 0
    while cases < 2000:
        inst = random_instance(rng)
        d = inst.durations
        solved = solve(inst, d).schedule
        if solved is None:
            continue
        cases += 1
        total = inst.n_activities
        starts = list(solved.starts)
        shape = rng.randrange(4)
        if shape == 0:  # the whole schedule moves, maybe before time 0
            shift = rng.randint(-2, 2)
            starts = [s + shift for s in starts]
        elif shape < 3:  # one or two activities move
            for j in rng.sample(range(total), rng.randint(1, 2)):
                starts[j] += rng.randint(-2, 2)
        pinned = rng.sample(range(total), rng.randint(0, min(2, total)))
        fixed = {v: starts[v] + rng.choice((0, 0, 0, -1, 1)) for v in pinned}
        floors = [  # held exactly, loosely or broken by one
            (i, j, starts[j] - starts[i] + rng.choice((0, 0, -1, 1)))
            for i, j in (rng.sample(range(total), 2) for _ in range(rng.randint(0, 2)))
        ]
        if rng.random() < 0.05:
            starts = starts[:-1] if rng.random() < 0.5 else starts + [0]
        warm = Schedule(starts=tuple(starts), makespan=0)
        # the rule a warm start must pass: right length, every pin equal, every
        # floor held and a feasible replay; each failed part is one cause
        causes = []
        if len(starts) != total:
            causes.append("length")
        else:
            if any(starts[v] != t for v, t in fixed.items()):
                causes.append("pin")
            if any(starts[j] - starts[i] < w for i, j, w in floors):
                causes.append("floor")
            report = check_schedule(inst, d, warm)
            causes += [
                cause
                for cause, found in (
                    ("lag", report.precedence_violations),
                    ("overload", report.resource_violations),
                    ("early", report.early_starts),
                )
                if found
            ]
        got = solve(inst, d, fixed=fixed, warm_start=warm, node_limit=0, floors=floors)
        if causes:
            assert (got.status, got.schedule) == (SolveStatus.UNKNOWN, None), causes
        else:
            assert (got.status, got.schedule.starts) == (SolveStatus.FEASIBLE, warm.starts)
        verdicts[not causes] += 1
        if len(causes) == 1:
            sole_cause[causes[0]] += 1
    assert min(verdicts.values()) > 500, verdicts
    assert min(sole_cause.values()) >= 30, sole_cause


def test_search_replays_its_result_when_asserts_are_stripped():
    # with the conflict sweep blinded the search takes its overloaded root as
    # the answer; under ``python -O`` only an explicit check still stops it
    code = "\n".join((
        "assert False, 'not run under -O'",
        "from pathlib import Path",
        "from srcpsp import solver",
        "from srcpsp.instances import parse_psplib",
        "solver._first_conflict = lambda resources, starts: None",
        f"inst = parse_psplib(Path({str(J10.parent / 'example.sch')!r}).read_text())",
        "solver.solve(inst, inst.durations)",
    ))
    src = str(Path(solver.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, os.environ.get("PYTHONPATH", "")))}
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    last = run.stderr.splitlines()[-1]
    assert run.returncode == 1
    assert last.startswith("AssertionError: start vector") and last.endswith("check_schedule")


def test_solve_saa_rejects_missing_or_misshaped_scenarios(example_instance):
    inst = example_instance
    with pytest.raises(ValueError, match="at least one scenario"):
        solve_saa(inst, [])
    with pytest.raises(ValueError, match="expected 7 durations, got 6"):
        solve_saa(inst, [inst.durations, inst.durations[:-1]])


def test_solve_node_limit_reports_honestly(example_instance):
    inst = example_instance
    out = solve(inst, inst.durations, node_limit=1)
    assert out.status in (SolveStatus.FEASIBLE, SolveStatus.UNKNOWN)
    assert out.nodes_explored <= 1


def test_property_solver_matches_brute_force():
    rng = random.Random(20260818)
    optimal_seen = 0
    for _ in range(200):
        inst = random_instance(rng)
        oracle = brute_force_optimum(inst, inst.durations)
        out = solve(inst, inst.durations, time_limit=10)
        if oracle is None:
            assert out.status is SolveStatus.INFEASIBLE
        else:
            assert out.status is SolveStatus.OPTIMAL
            assert out.schedule.makespan == oracle[0]
            optimal_seen += 1
    assert optimal_seen > 100


def test_property_proposition_one_shrink_invariance():
    rng = random.Random(7)
    trials = 0
    while trials < 1000:
        inst = random_instance(rng)
        out = solve(inst, inst.durations, time_limit=10)
        if out.status is not SolveStatus.OPTIMAL:
            continue
        for _ in range(10):
            shrunk = tuple(
                0 if d == 0 else rng.randint(max(d - 2, 0), d) for d in inst.durations
            )
            report = check_schedule(inst, shrunk, out.schedule)
            assert report.feasible
            trials += 1


def test_saa_single_scenario_matches_solve(example_instance):
    rng = random.Random(31)
    instances = [example_instance] + [random_instance(rng) for _ in range(150)]
    optimal_seen = 0
    for inst in instances:
        out = solve(inst, inst.durations)
        saa = solve_saa(inst, [inst.durations])
        assert saa.status is out.status
        assert saa.nodes_explored == out.nodes_explored
        if out.schedule is None:
            assert saa.starts is None and saa.objective is None
        else:
            assert saa.starts == out.schedule.starts
            assert saa.objective == out.schedule.makespan
            optimal_seen += out.status is SolveStatus.OPTIMAL
    assert optimal_seen > 75


def test_search_results_pinned_on_j10():
    for name, *expected in J10_PINNED:
        stoch = make_stochastic(parse_psplib((J10 / f"{name}.sch").read_text()), 1)
        out = solve(stoch.base, quantile_durations(stoch, 0.9).durations)
        scenarios = [
            quantile_durations(stoch, g).durations for g in (0.25, 0.5, 0.75, 0.9)
        ]
        saa = solve_saa(stoch.base, scenarios, node_limit=3000)
        got = [
            out.status.name,
            out.schedule.makespan,
            out.nodes_explored,
            saa.status.name,
            saa.objective,
            saa.nodes_explored,
        ]
        assert got == expected, name


def test_saa_feasible_for_every_scenario(example_instance):
    inst = example_instance
    low = inst.durations
    high = (0, 3, 7, 5, 2, 3, 0)
    saa = solve_saa(inst, [low, high])
    assert saa.status is SolveStatus.OPTIMAL
    for scen in (low, high):
        assert check_schedule(inst, scen, Schedule.from_starts(saa.starts, scen)).feasible
    with pytest.raises(ValueError, match="nonnegative"):
        solve_saa(inst, [low, (0, 3, -1, 5, 2, 3, 0)])


def test_saa_objective_is_mean_of_scenario_makespans(example_instance):
    inst = example_instance
    low = inst.durations
    high = (0, 3, 7, 5, 2, 3, 0)
    saa = solve_saa(inst, [low, high])
    mk = [max(s + d for s, d in zip(saa.starts, scen)) for scen in (low, high)]
    assert saa.objective == sum(mk) / 2


def test_saa_adding_scenario_never_improves_objective():
    rng = random.Random(5)
    for _ in range(40):
        inst = random_instance(rng, max_real=4)
        base = inst.durations
        bigger = tuple(d + 1 if d else 0 for d in base)
        one = solve_saa(inst, [base], time_limit=10)
        two = solve_saa(inst, [base, bigger], time_limit=10)
        if one.status is SolveStatus.OPTIMAL and two.status is SolveStatus.OPTIMAL:
            assert two.objective >= one.objective


def _outcome(out):
    return out.status, out.starts, out.objective, out.nodes_explored


def test_search_matches_reference_search():
    rng = random.Random(4)
    seen = {"multi": 0, "pinned": 0, "contradictory": 0, "incumbent": 0}
    for case in range(600):
        extra_scenarios = rng.choice((0, 0, 1, 2))
        # seven activities under three scenarios can take 10^5 nodes
        inst = random_instance(rng, max_real=rng.choice((3, 5, 7 - extra_scenarios)))
        total = inst.n_activities
        scenarios = [inst.durations]
        for _ in range(extra_scenarios):
            scenarios.append(tuple(d + rng.randint(0, 2) if d else 0 for d in inst.durations))
        fixed = {}
        if case % 2:
            for v in rng.sample(range(total), rng.randint(1, min(3, total))):
                fixed[v] = rng.randint(-2, 8)  # a negative pin contradicts t >= 0
        node_limit = rng.choice((0, 1, 3, 50, 10**7))
        incumbent = None
        if case % 3 == 0:
            # a feasible start vector that honours the pins, often not optimal
            limit = rng.choice((4, 10**7))
            incumbent = reference_solver._search(inst, scenarios, fixed, None, 60, limit).starts
        new = solver._search(inst, scenarios, fixed, incumbent, 60, node_limit)
        ref = reference_solver._search(inst, scenarios, fixed, incumbent, 60, node_limit)
        assert _outcome(new) == _outcome(ref), case
        seen["multi"] += len(scenarios) > 1
        seen["pinned"] += bool(fixed)
        seen["incumbent"] += incumbent is not None
        root_infeasible = ref.status is SolveStatus.INFEASIBLE and ref.nodes_explored == 1
        seen["contradictory"] += bool(fixed) and root_infeasible
    assert min(seen.values()) > 40, seen


def test_scenario_probing_matches_reference_search(monkeypatch):
    # nested lists let a node probe from its parent's branching scenario;
    # descending and crossing ones take the in-order scan
    branched_later = False
    reference_sweep = reference_solver._first_conflict

    def sweep(inst, durations, starts):
        nonlocal branched_later
        conflict = reference_sweep(inst, durations, starts)
        # the reference scans in list order, so a conflict is where its node branches
        branched_later |= conflict is not None and durations != scenarios[0]
        return conflict

    monkeypatch.setattr(reference_solver, "_first_conflict", sweep)
    rng = random.Random(25)
    seen = {True: 0, False: 0}  # cases that branch past the first scenario, by nestedness
    for case in range(900):
        inst = random_instance(rng, max_real=rng.choice((3, 5)))
        # real activities may shrink to zero in the first scenario; each next
        # scenario moves them by up to ``step`` (0: equal neighbours), upward
        # only unless the list is to cross, and a descending list is reversed
        shape = case % 3
        durations = [d - rng.randint(0, 1) if d else 0 for d in inst.durations]
        scenarios = [tuple(durations)]
        for _ in range(rng.randint(1, 3)):
            step = rng.choice((0, 1, 2, 2))
            low = -step if shape == 2 else 0
            durations = [max(0, d + rng.randint(low, step)) for d in durations]
            durations[0] = durations[-1] = 0
            scenarios.append(tuple(durations))
        if shape == 1:
            scenarios.reverse()
        node_limit = rng.choice((50, 10**7))
        branched_later = False
        new = solver._search(inst, scenarios, {}, None, 60, node_limit)
        ref = reference_solver._search(inst, scenarios, {}, None, 60, node_limit)
        assert _outcome(new) == _outcome(ref), case
        nested = all(all(map(int.__le__, lo, hi)) for lo, hi in zip(scenarios, scenarios[1:]))
        seen[nested] += branched_later
    assert min(seen.values()) >= 40, seen


def test_saa_sweeps_at_most_once_per_node_on_the_desk_instances(monkeypatch):
    calls = 0
    sweep = solver._first_conflict

    def counting(*args):
        nonlocal calls
        calls += 1
        return sweep(*args)

    monkeypatch.setattr(solver, "_first_conflict", counting)
    nodes = 0
    gammas = MethodConfig().saa_gammas
    for path in sorted(J10.glob("*.sch"))[:10]:  # the desk config's instances
        stoch = make_stochastic(parse_psplib(path.read_text()), 1)
        nodes += solve_saa(
            stoch.base, [quantile_durations(stoch, g).durations for g in gammas]
        ).nodes_explored
    # 33,601 sweeps for 37,768 nodes; an in-order scan of the scenarios makes 48,972
    assert calls <= nodes


def test_pinned_search_matches_reference_on_j10():
    # a reactive-style re-solve: the first third of the plan is pinned
    for name, *_ in J10_PINNED:
        stoch = make_stochastic(parse_psplib((J10 / f"{name}.sch").read_text()), 1)
        plan = solve(stoch.base, quantile_durations(stoch, 0.9).durations).schedule
        fixed = {j: s for j, s in enumerate(plan.starts) if 3 * s < plan.makespan}
        median = quantile_durations(stoch, 0.5).durations
        for scenarios in ([median], [median, quantile_durations(stoch, 0.9).durations]):
            new = solver._search(stoch.base, scenarios, fixed, None, 60, 2000)
            ref = reference_solver._search(stoch.base, scenarios, fixed, None, 60, 2000)
            assert _outcome(new) == _outcome(ref), name


def _parallel_twin(inst, rng):
    """The instance plus exact and looser copies of random constraints, all shuffled."""
    given = inst.temporal_constraints
    copies = [(i, j, w - rng.choice((0, 1, 3))) for i, j, w in rng.choices(given, k=len(given))]
    twin = list(given) + copies
    rng.shuffle(twin)
    return dataclasses.replace(inst, temporal_constraints=tuple(twin))


def _searches(inst, scenarios, fixed, node_limit):
    """Each search shape's outcome on one instance, and its earliest schedule under ``fixed``."""
    durations = scenarios[0]
    plain = solve(inst, durations, node_limit=node_limit)
    pinned = solve(inst, durations, fixed=fixed, node_limit=node_limit)
    warm = solve(inst, durations, fixed=fixed, warm_start=plain.schedule, node_limit=node_limit)
    graph = DistanceGraph(inst.n_activities, inst.temporal_constraints)
    return (
        [(out.status, out.schedule, out.nodes_explored) for out in (plain, pinned, warm)],
        _outcome(solve_saa(inst, scenarios, node_limit=node_limit)),
        earliest_schedule(graph, fixed),
    )


def test_search_reads_parallel_edges_at_their_tightest():
    # duplicates and looser copies of constraints change no search: the
    # relaxations keep the tightest of parallel edges, whatever their order
    rng = random.Random(20261020)
    seen = {"optimal": 0, "pinned": 0}
    for case in range(300):
        inst = random_instance(rng, max_real=rng.choice((3, 5)))
        scenarios = [inst.durations] + [
            tuple(d + rng.randint(0, 2) if d else 0 for d in inst.durations)
            for _ in range(rng.randint(1, 2))
        ]
        opt = solve(inst, inst.durations).schedule
        fixed = {} if opt is None else {
            j: s for j, s in enumerate(opt.starts) if rng.random() < 0.3
        }
        twin = _parallel_twin(inst, rng)
        for node_limit in (10**7, rng.choice((1, 5, 20))):
            got = _searches(twin, scenarios, fixed, node_limit)
            assert got == _searches(inst, scenarios, fixed, node_limit), case
        seen["optimal"] += opt is not None
        seen["pinned"] += bool(fixed)
    assert min(seen.values()) > 100, seen
    # a reactive-style re-solve on j10: the plan's started activities are
    # pinned, every other one has a floor at ``now`` beside the source's lags,
    # passed to the search beside the pins or held by the instance as lags
    for name, *_ in J10_PINNED:
        stoch = make_stochastic(parse_psplib((J10 / f"{name}.sch").read_text()), 1)
        scenarios = [quantile_durations(stoch, g).durations for g in (0.9, 0.5, 0.75)]
        plan = solve(stoch.base, scenarios[0]).schedule
        for now in (0, plan.makespan // 4, plan.makespan // 3, plan.makespan // 2):
            fixed, floors = _released(plan, now)
            inst = _holding(stoch.base, floors)
            if now == plan.makespan // 3:
                twin = _parallel_twin(inst, rng)
                got = _searches(twin, scenarios, fixed, 2000)
                assert got == _searches(inst, scenarios, fixed, 2000), name
            for durations in scenarios:
                for warm in (None, plan):
                    got, held = _floored(stoch.base, durations, fixed, floors, warm, 2000)
                    assert got == held, (name, now)


def _released(plan, now):
    """A reactive re-solve's pins (the plan's activities started before ``now``)
    and release floors (every other activity starts at ``now`` or later)."""
    fixed = {j: s for j, s in enumerate(plan.starts) if s < now}
    return fixed, [(0, j, now) for j in range(len(plan.starts)) if j not in fixed]


def _holding(inst, floors):
    """The instance with ``floors`` appended to its lags."""
    return dataclasses.replace(
        inst, temporal_constraints=inst.temporal_constraints + tuple(floors)
    )


def _floored(inst, durations, fixed, floors, warm, node_limit):
    """``solve``'s (status, schedule, nodes) with ``floors`` passed beside the
    pins, and on the instance that holds them as lags."""
    limits = {"fixed": fixed, "warm_start": warm, "node_limit": node_limit}
    passed = solve(inst, durations, floors=floors, **limits)
    held = solve(_holding(inst, floors), durations, **limits)
    return [(out.status, out.schedule, out.nodes_explored) for out in (passed, held)]


def test_floors_search_as_lags_of_the_instance_would():
    # a re-solve's floors join the lags before the pins, so the root, the
    # warm-start vetting and every node are those of the instance holding them
    rng = random.Random(20261021)
    seen = dict.fromkeys(SolveStatus, 0)
    warmed = 0
    for case in range(500):
        inst = random_instance(rng, max_real=rng.choice((3, 5)))
        plan = solve(inst, inst.durations).schedule
        if plan is None:
            continue
        current = tuple(d + rng.randint(0, 2) if d else 0 for d in inst.durations)
        fixed, floors = _released(plan, rng.randint(0, plan.makespan))
        warm = rng.choice((None, plan))
        for node_limit in (1, 5, 20, 10**7):
            got, held = _floored(inst, current, fixed, floors, warm, node_limit)
            assert got == held, case
            seen[held[0]] += 1
        warmed += warm is not None
    assert min(seen.values()) > 25 and warmed > 100, (seen, warmed)


def test_search_replays_its_floors(example_instance, monkeypatch):
    # check_schedule sees only the instance's lags, so with the floors kept
    # from the search only the search's own floor replay stops its answer
    inst = example_instance
    floors = [(0, j, 50) for j in range(1, inst.n_activities)]
    assert min(solve(inst, inst.durations, floors=floors).schedule.starts[1:]) == 50
    tighten = solver._tighten

    def floors_ignored(succ, dist, edge):  # the search's root skips the floors
        return dist if edge in floors else tighten(succ, dist, edge)

    monkeypatch.setattr(solver, "_tighten", floors_ignored)
    with pytest.raises(AssertionError, match=r"^start vector .* breaks floor \(0, 1, 50\)$"):
        solve(inst, inst.durations, floors=floors)
    with pytest.raises(ValueError, match="floor edge out of activity range"):
        solve(inst, inst.durations, floors=[(0, inst.n_activities, 1)])


def test_search_replays_its_pins(example_instance, monkeypatch):
    # check_schedule does not see the pins either, so with them kept from the
    # search's root only the search's own pin replay stops its answer
    inst = example_instance
    origin = inst.n_activities
    assert solve(inst, inst.durations, fixed={2: 9}).schedule.starts[2] == 9
    tighten = solver._tighten

    def pin_ignored(succ, dist, edge):  # the search's root skips the pin
        return dist if edge in ((origin, 2, 9), (2, origin, -9)) else tighten(succ, dist, edge)

    monkeypatch.setattr(solver, "_tighten", pin_ignored)
    with pytest.raises(AssertionError, match=r"^start vector .* breaks pin 2 at 9$"):
        solve(inst, inst.durations, fixed={2: 9})


def _tightened_root(inst, floors, fixed):
    """The memo's root tightened by ``floors``, then by each pin's two origin
    edges, one ``_tighten`` per edge, as the search builds its root."""
    total = inst.n_activities
    adjacency, _, root = solver._instance_data(inst)
    succ = list(map(list, adjacency))
    pins = [edge for v, t in fixed.items() for edge in ((total, v, t), (v, total, -t))]
    for edge in (*floors, *pins):
        if root is None:
            break
        succ[edge[0]].append(edge[1:])
        root = _tighten(succ, root, edge)
    return root


def _relaxed_root(inst, floors, fixed):
    """The slow reference: one Bellman-Ford over the origin, lag, floor and pin edges."""
    n = inst.n_activities
    edges = _rooted_edges(n, (*inst.temporal_constraints, *floors), fixed)
    return _relax(n + 1, edges, n)[0]


def _contradictable(rng, n, fixed, floors):
    """``fixed`` and ``floors`` with random edits that may contradict them:
    shifted and negative pins, self-loop, cyclic and random floors."""
    fixed, floors = dict(fixed), list(floors)
    for _ in range(rng.randint(0, 2)):
        v = rng.randrange(n)
        edit = rng.choice(("shift", "negative", "self", "cycle", "floor"))
        if edit == "shift":
            fixed[v] = fixed.get(v, 0) + rng.randint(-2, 2)
        elif edit == "negative":
            fixed[v] = -rng.randint(1, 3)
        elif edit == "self":
            floors.append((v, v, rng.randint(-1, 2)))
        else:
            u = rng.randrange(n)
            floors.append((u, v, rng.randint(-3, 4)))
            if edit == "cycle":
                floors.append((v, u, rng.randint(-3, 2)))
    return fixed, floors


def test_tightened_root_matches_a_full_relaxation():
    # the memo's lag-only root, tightened edge by edge by a search's floors
    # and pins, is the least solution one Bellman-Ford finds, None included
    rng = random.Random(20261022)
    seen = {"feasible": 0, "infeasible": 0, "lags_contradict": 0}

    def agree(inst, fixed, floors):
        root = _tightened_root(inst, floors, fixed)
        assert root == _relaxed_root(inst, floors, fixed), (inst, fixed, floors)
        seen["feasible" if root is not None else "infeasible"] += 1

    for _ in range(2000):
        inst = random_instance(rng, max_real=rng.choice((3, 5)))
        n = inst.n_activities
        seen["lags_contradict"] += solver._instance_data(inst)[2] is None
        plan = solve(inst, inst.durations).schedule  # or any starts, on contradictory lags
        plan = plan or Schedule(tuple(rng.randint(0, 8) for _ in range(n)), 0)
        fixed, floors = _released(plan, rng.randint(0, max(plan.starts)))
        agree(inst, *_contradictable(rng, n, fixed, floors))
    for path in sorted(J10.glob("*.sch")):
        stoch = make_stochastic(parse_psplib(path.read_text()), 1)
        plan = solve(stoch.base, quantile_durations(stoch, 0.9).durations).schedule
        n = stoch.base.n_activities
        for now in range(0, plan.makespan + 2, 3):
            fixed, floors = _released(plan, now)
            agree(stoch.base, fixed, floors)
            agree(stoch.base, *_contradictable(rng, n, fixed, floors))
    assert seen["lags_contradict"] > 20 and min(seen["feasible"], seen["infeasible"]) > 800, seen


def _fresh_data(inst):
    """The search data of ``inst`` as built for an empty memo."""
    solver._instance_data.cache_clear()
    return solver._instance_data(inst)


def test_instance_data_outlives_a_search_stopped_mid_branch():
    # a stopped search leaves its path's edges on its own copy of the
    # adjacency; the memo's adjacency, shared by every equal instance, keeps none
    stoch = make_stochastic(parse_psplib((J10 / "j10_08.sch").read_text()), 1)
    inst, equal = stoch.base, dataclasses.replace(stoch.base)
    scenarios = [quantile_durations(stoch, g).durations for g in (0.9, 0.5)]
    plan = solve(inst, scenarios[0]).schedule
    fixed, floors = _released(plan, plan.makespan // 3)
    assert equal == inst and equal is not inst

    def searches():
        return [
            solve(inst, scenarios[0]),
            solve(equal, scenarios[1], fixed=fixed, floors=floors, warm_start=plan),
            _outcome(solve_saa(equal, scenarios, node_limit=500)),
        ]

    fresh = _fresh_data(inst)
    built = copy.deepcopy(fresh)
    stopped = solve(inst, scenarios[0], node_limit=20)
    assert (stopped.status, stopped.nodes_explored) == (SolveStatus.FEASIBLE, 20)
    # the root list is shared too: searches that tighten it by floors, by
    # pins, by a contradictory pin or stop at a node limit leave it as built
    first = min(fixed)
    for limits in (
        {"floors": floors},
        {"fixed": fixed},
        {"fixed": fixed, "floors": floors, "node_limit": 7},
        {"fixed": {**fixed, first: fixed[first] + 1}, "floors": floors},
        {"fixed": {first: -1}},
    ):
        solve(inst, scenarios[0], **limits)
    assert solver._instance_data(equal) is fresh and fresh == built  # shared by value
    assert fresh[2] == _relaxed_root(inst, (), None)
    warm = searches()
    assert solver._instance_data(inst) == _fresh_data(inst)
    assert warm == searches()


def test_instances_differing_in_one_demand_or_capacity_share_no_fields():
    inst = parse_psplib((J10 / "j10_01.sch").read_text())
    variants = [inst]
    for r, (row, cap) in enumerate(zip(inst.demands, inst.capacities)):
        j = max(range(inst.n_activities), key=row.__getitem__)
        lowered = (*row[:j], row[j] - 1, *row[j + 1:])
        demands = (*inst.demands[:r], lowered, *inst.demands[r + 1:])
        capacities = (*inst.capacities[:r], cap + 1, *inst.capacities[r + 1:])
        variants.append(dataclasses.replace(inst, demands=demands))
        variants.append(dataclasses.replace(inst, capacities=capacities))
    shared = [solver._instance_data(v)[1] for v in variants]  # built side by side
    fresh = [_fresh_data(v)[1] for v in variants]  # each alone in the memo
    assert shared == fresh
    assert len({id(packing) for packing in shared}) == len(variants)
    assert all(packing != fresh[0] for packing in fresh[1:])


def _sweep_plan(inst, durations):
    """A scenario's sweep plan as the search builds it."""
    packed, *fields = solver._instance_data(inst)[1]
    return [j for j in packed if durations[j] > 0], *fields, durations


def _sweep_matches_reference(inst, durations, starts):
    got = solver._first_conflict(_sweep_plan(inst, durations), starts)
    assert got == reference_solver._first_conflict(inst, durations, starts)
    return got


def test_conflict_sweep_matches_reference_scan():
    rng = random.Random(11)
    conflicts = 0
    for _ in range(3000):
        inst = random_instance(rng, max_real=rng.choice((3, 5)))
        # zero durations for real activities too, and starts on a short
        # range so that many start and end times coincide
        durations = [0] + [rng.randint(0, 3) for _ in range(inst.activity_count)] + [0]
        starts = [rng.randint(0, 4) for _ in range(inst.n_activities)]
        conflicts += _sweep_matches_reference(inst, durations, starts) is not None
    assert 500 < conflicts < 2900
    # wide fields: capacities from 1 to 10**9 and demands at capacity, just
    # over half of it, zero or random, so that fields differ in width and the
    # packed usage crosses the 30- and 60-bit boundaries of Python's ints
    capacities = (1, 7, 8, 255, 256, 2**20, 2**31 - 1, 10**9)
    conflicts = 0
    for _ in range(2000):
        n = rng.randint(2, 6)
        caps = [rng.choice(capacities) for _ in range(rng.randint(1, 6))]
        demands = tuple(
            (0, *(rng.choice((cap, cap // 2 + 1, 0, rng.randint(0, cap))) for _ in range(n)), 0)
            for cap in caps
        )
        durations = [0] + [rng.randint(0, 3) for _ in range(n)] + [0]
        inst = ProjectInstance(n, tuple(durations), demands, tuple(caps), ())
        starts = [rng.randint(0, 4) for _ in range(n + 2)]
        conflicts += _sweep_matches_reference(inst, durations, starts) is not None
    assert 500 < conflicts < 1900


def test_conflict_sweep_edge_cases():
    inst = ProjectInstance(
        5,
        (0, 2, 2, 3, 1, 2, 0),
        ((0, 2, 2, 0, 1, 0, 0), (0, 0, 1, 1, 1, 0, 0)),
        (3, 2),
        (),
    )
    d = inst.durations
    # both resources overload at 3: the lower resource index wins
    assert _sweep_matches_reference(inst, d, (0, 3, 3, 2, 3, 0, 0)) == (3, 0, [1, 2, 4])
    # resource 1 overloads at 1, where activity 5, which uses no resource, starts too
    assert _sweep_matches_reference(inst, d, (0, 6, 0, 0, 1, 1, 0)) == (1, 1, [2, 3, 4])
    # activity 1 ends when activity 2 starts: no overlap on resource 0
    assert _sweep_matches_reference(inst, d, (0, 0, 2, 4, 7, 0, 0)) is None
    # a zero-duration user never loads its resource
    shrunk = (0, 2, 2, 0, 1, 2, 0)
    assert _sweep_matches_reference(inst, shrunk, (0, 5, 0, 0, 0, 0, 0)) is None
    assert _sweep_matches_reference(inst, d, (0, 5, 0, 0, 0, 0, 0)) == (0, 1, [2, 3, 4])

    def one_resource(durations, demands, capacity):
        return ProjectInstance(len(durations) - 2, durations, (demands,), (capacity,), ())

    # three users start together and only the third overloads
    tied = one_resource((0, 2, 2, 2, 0), (0, 1, 2, 1, 0), 3)
    assert _sweep_matches_reference(tied, tied.durations, (0, 1, 1, 1, 0)) == (1, 0, [1, 2, 3])
    # at 1, resource 1 overloads at activity 2's start and resource 0 only at
    # activity 3's, the instant's last start: the lower resource still wins
    late = ProjectInstance(3, (0, 2, 2, 2, 0), ((0, 1, 0, 2, 0), (0, 1, 1, 0, 0)), (2, 1), ())
    assert _sweep_matches_reference(late, late.durations, (0, 1, 1, 1, 0)) == (1, 0, [1, 3])
    # three resources overload at 1, resource 0 only at the instant's last
    # start: the lowest resource still wins
    three = ProjectInstance(
        3, (0, 2, 2, 2, 0), ((0, 1, 1, 1, 0), (0, 1, 1, 0, 0), (0, 1, 1, 1, 0)), (2, 1, 1), ()
    )
    assert _sweep_matches_reference(three, three.durations, (0, 1, 1, 1, 0)) == (1, 0, [1, 2, 3])
    # every resource exactly at capacity while 1 and 2 run, then while 3 runs:
    # no field carries into its top bit or the next field.  Started one step
    # earlier, 3 overloads every resource and resource 0 wins (2 uses none of
    # it, so it is not active there)
    caps = (1, 7, 256, 2**31 - 1)
    full = ProjectInstance(
        3,
        (0, 2, 2, 1, 0),
        tuple((0, q, cap - q, cap, 0) for q, cap in zip((1, 3, 128, 2**30), caps)),
        caps,
        (),
    )
    assert _sweep_matches_reference(full, full.durations, (0, 0, 0, 2, 0)) is None
    assert _sweep_matches_reference(full, full.durations, (0, 0, 0, 1, 0)) == (1, 0, [1, 3])
    # resource 0's users sum exactly to its capacity, so it gets no field;
    # resource 1's sum to capacity + 1 and overload once all three run
    exact = ProjectInstance(3, (0, 2, 2, 2, 0), ((0, 1, 1, 1, 0), (0, 1, 2, 1, 0)), (3, 3), ())
    members = solver._instance_data(exact)[1][4]
    assert [r for r, _ in members.values()] == [1]
    assert _sweep_matches_reference(exact, exact.durations, (0, 0, 1, 1, 0)) == (1, 1, [1, 2, 3])
    # activity 1 ends at 2, exactly when the overload starts, and is not active
    ending = one_resource((0, 2, 2, 1, 1, 0), (0, 2, 1, 2, 1, 0), 3)
    starts = (0, 0, 1, 2, 2, 0)
    assert _sweep_matches_reference(ending, ending.durations, starts) == (2, 0, [2, 3, 4])
    # the two users starting at 0 differ in demand and end, in either order;
    # the short one has left when the overload starts at 2
    for durations, demands, active in (
        ((0, 1, 3, 2, 1, 0), (0, 2, 1, 2, 1, 0), [2, 3, 4]),
        ((0, 3, 1, 2, 1, 0), (0, 1, 2, 2, 1, 0), [1, 3, 4]),
    ):
        split = one_resource(durations, demands, 3)
        starts = (0, 0, 0, 1, 2, 0)
        assert _sweep_matches_reference(split, durations, starts) == (2, 0, active)


def test_limits_are_checked_before_every_node(example_instance):
    inst = example_instance
    # no node is counted, the root included, even when the root pins contradict
    for fixed in ({}, {A: 0, B: 1}):
        for limits in ({"node_limit": 0}, {"time_limit": -1.0}):
            out = solve(inst, inst.durations, fixed=fixed, **limits)
            assert (out.status, out.nodes_explored) == (SolveStatus.UNKNOWN, 0)
    full = solve(inst, inst.durations).nodes_explored
    assert full > 3
    for limit in range(1, full + 2):
        out = solve(inst, inst.durations, node_limit=limit)
        assert out.nodes_explored == min(limit, full)
        assert (out.status is SolveStatus.OPTIMAL) == (limit >= full)
