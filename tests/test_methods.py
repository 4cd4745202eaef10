"""Tests for the execution strategies: offline planning plus one simulated online run."""

from __future__ import annotations

import dataclasses
import logging
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from oracles import random_instance, twin_sample
from srcpsp import methods
from srcpsp.bench import _RUNNERS, derive_seed
from srcpsp.instances import (
    DurationSample,
    ProjectInstance,
    StochasticInstance,
    make_stochastic,
    parse_psplib,
    quantile_durations,
    sample_durations,
)
from srcpsp.methods import (
    FAIL_EXECUTION,
    FAIL_NOT_DC,
    FAIL_SOLVER_INFEASIBLE,
    FAIL_SOLVER_TIMEOUT,
    METHODS,
    PROACTIVE_Q,
    PROACTIVE_SAA,
    REACTIVE,
    STNU,
    MethodConfig,
    MethodRun,
    perfect_information_feasible,
    run_proactive_quantile,
    run_proactive_saa,
    run_reactive,
    run_stnu,
)
from srcpsp.solver import Schedule, SolveStatus, check_schedule, solve, solve_saa

J10 = Path(__file__).resolve().parent.parent / "data" / "j10"

UNCERTAIN_BOUNDS = ((0, 0), (2, 2), (5, 5), (3, 3), (1, 2), (2, 2), (0, 0))

# Two activities on a unit resource; the second is held three units after the
# first starts, so a late first finish lands inside existing slack.
SLACK_LAG = ProjectInstance(
    activity_count=2,
    durations=(0, 2, 2, 0),
    demands=((0, 1, 1, 0),),
    capacities=(1,),
    temporal_constraints=((0, 1, 0), (0, 2, 0), (1, 2, 3)),
)
SLACK_STOCH = StochasticInstance(
    base=SLACK_LAG, bounds=((0, 0), (1, 3), (2, 2), (0, 0)), epsilon=1.0
)

# Same pair without the lag: an early finish frees the resource sooner.
PULL = ProjectInstance(
    activity_count=2,
    durations=(0, 2, 2, 0),
    demands=((0, 1, 1, 0),),
    capacities=(1,),
    temporal_constraints=((0, 1, 0), (0, 2, 0)),
)
PULL_STOCH = StochasticInstance(
    base=PULL, bounds=((0, 0), (1, 3), (2, 2), (0, 0)), epsilon=1.0
)

# min and max lag pin the second start to exactly two after the first, so a
# three-unit first duration always overlaps it on the unit resource
TRAP = ProjectInstance(
    activity_count=2,
    durations=(0, 2, 2, 0),
    demands=((0, 1, 1, 0),),
    capacities=(1,),
    temporal_constraints=((0, 1, 0), (0, 2, 0), (1, 2, 2), (2, 1, -2)),
)
TRAP_STOCH = StochasticInstance(
    base=TRAP, bounds=((0, 0), (2, 3), (2, 2), (0, 0)), epsilon=1.0
)

# positive temporal cycle: no start assignment exists at all
CONTRADICTORY = ProjectInstance(
    activity_count=1,
    durations=(0, 1, 0),
    demands=((0, 1, 0),),
    capacities=(1,),
    temporal_constraints=((0, 1, 5), (1, 0, -1)),
)

# successor chained right behind a stretchable predecessor on a unit resource
OVERRUN = ProjectInstance(
    activity_count=2,
    durations=(0, 1, 2, 0),
    demands=((0, 1, 1, 0),),
    capacities=(1,),
    temporal_constraints=((0, 1, 0), (0, 2, 0), (1, 2, 0)),
)
OVERRUN_STOCH = StochasticInstance(
    base=OVERRUN, bounds=((0, 0), (1, 2), (2, 2), (0, 0)), epsilon=1.0
)

# the second activity is held four units behind the first, whose estimate of
# 4 (gamma 0.5 on 2..6) plans it right where a 6-unit first one still runs
LATE = ProjectInstance(
    activity_count=2,
    durations=(0, 4, 2, 0),
    demands=((0, 1, 1, 0),),
    capacities=(1,),
    temporal_constraints=((0, 1, 0), (0, 2, 0), (1, 2, 4), (1, 3, 4), (2, 3, 2)),
)
LATE_STOCH = StochasticInstance(
    base=LATE, bounds=((0, 0), (2, 6), (2, 2), (0, 0)), epsilon=1.0
)


@pytest.fixture(scope="module")
def example_stoch(example_instance):
    return StochasticInstance(
        base=example_instance, bounds=UNCERTAIN_BOUNDS, epsilon=0.5
    )


def replay(inst: ProjectInstance, run: MethodRun, realized) -> bool:
    return check_schedule(
        inst, realized, Schedule.from_starts(run.starts, realized)
    ).feasible


def test_method_config_rejects_bad_settings():
    with pytest.raises(ValueError):
        MethodConfig(gamma=1.5)
    with pytest.raises(ValueError):
        MethodConfig(saa_gammas=(0.5, -0.1))
    with pytest.raises(ValueError):
        MethodConfig(time_limit_offline=0)
    with pytest.raises(ValueError):
        MethodConfig(time_limit_reschedule=-1.0)
    # nan is neither <= 0 nor > 0
    for limit in ("time_limit_offline", "time_limit_reschedule"):
        with pytest.raises(ValueError, match="time limits must be positive"):
            MethodConfig(**{limit: float("nan")})


def test_method_run_validates_its_fields():
    with pytest.raises(ValueError):
        MethodRun(
            method=PROACTIVE_Q,
            instance="x",
            seed=1,
            feasible=True,
            makespan=None,
            time_offline=0.0,
            time_online=0.0,
            failure_reason=None,
            starts=(0,),
        )
    with pytest.raises(ValueError):
        MethodRun(
            method=PROACTIVE_Q,
            instance="x",
            seed=1,
            feasible=False,
            makespan=None,
            time_offline=-0.5,
            time_online=0.0,
            failure_reason=FAIL_SOLVER_TIMEOUT,
            starts=None,
        )


def test_proactive_quantile_example_top_quantile(example_stoch):
    run = run_proactive_quantile(
        example_stoch, MethodConfig(gamma=1), DurationSample((0, 2, 5, 3, 2, 2, 0))
    )
    assert run.method == PROACTIVE_Q
    assert run.feasible and run.failure_reason is None
    assert run.starts == (0, 0, 2, 6, 4, 7, 9)
    assert run.makespan == 9


def test_proactive_quantile_keeps_plan_on_short_realization(example_stoch):
    run = run_proactive_quantile(
        example_stoch, MethodConfig(gamma=1), DurationSample((0, 2, 5, 3, 1, 2, 0))
    )
    assert run.feasible
    # same fixed starts; the sink activity still pins the makespan at 9
    assert run.starts == (0, 0, 2, 6, 4, 7, 9)
    assert run.makespan == 9


def test_proactive_quantile_degenerate_hits_deterministic_optimum(example_instance):
    stoch = make_stochastic(example_instance, 0.0)
    run = run_proactive_quantile(
        stoch, MethodConfig(gamma=1), DurationSample(example_instance.durations)
    )
    assert run.feasible
    assert run.makespan == 8


def test_top_quantile_plan_survives_every_realization():
    # with gamma=1 the plan is solved against upper-bound durations, so any
    # realization at or below the bounds must execute without violation
    rng = random.Random(0xC0FFEE)
    cfg = MethodConfig(gamma=1)
    checked = 0
    for _ in range(25):
        inst = random_instance(rng, max_real=4)
        stoch = make_stochastic(inst, 1.0)
        for _ in range(3):
            sample = sample_durations(stoch, rng.randrange(2**32))
            run = run_proactive_quantile(stoch, cfg, sample)
            if run.failure_reason == FAIL_SOLVER_INFEASIBLE:
                break
            assert run.feasible, (inst, sample)
            assert replay(inst, run, sample.durations)
            checked += 1
    assert checked >= 20


def test_offline_infeasibility_is_tagged():
    stoch = make_stochastic(CONTRADICTORY, 0.5)
    sample = DurationSample((0, 1, 0))
    for fn in (run_proactive_quantile, run_reactive, run_stnu):
        run = fn(stoch, MethodConfig(), sample)
        assert not run.feasible
        assert run.failure_reason == FAIL_SOLVER_INFEASIBLE
        assert run.makespan is None and run.starts is None
    saa = run_proactive_saa(stoch, MethodConfig(), sample)
    assert saa.failure_reason == FAIL_SOLVER_INFEASIBLE


def test_offline_stop_before_any_incumbent_is_a_timeout(example_stoch, monkeypatch):
    # node_limit=0 stops every offline search before its root node
    for name in ("solve", "solve_saa"):
        search = getattr(methods, name)
        monkeypatch.setattr(
            methods, name, lambda *args, search=search, **kw: search(*args, **kw, node_limit=0)
        )
    sample = DurationSample((0, 2, 5, 3, 2, 2, 0))
    for method, runner in _RUNNERS.items():
        run = runner(example_stoch, METHODS[method].defaults, sample)
        assert run.method == method
        assert not run.feasible
        assert run.failure_reason == FAIL_SOLVER_TIMEOUT
        assert run.makespan is None and run.starts is None


def test_fixed_plan_overrun_is_an_execution_violation():
    run = run_proactive_quantile(
        OVERRUN_STOCH, MethodConfig(gamma=0.5), DurationSample((0, 2, 2, 0))
    )
    assert not run.feasible
    assert run.failure_reason == FAIL_EXECUTION
    assert run.makespan is None
    # the attempted plan stays on the record for auditing
    assert run.starts == (0, 0, 1, 0)


def test_saa_single_scenario_equals_quantile_plan(example_stoch):
    sample = DurationSample((0, 2, 5, 3, 2, 2, 0))
    quant = run_proactive_quantile(example_stoch, MethodConfig(gamma=1), sample)
    saa = run_proactive_saa(example_stoch, MethodConfig(saa_gammas=(1.0,)), sample)
    assert saa.method == PROACTIVE_SAA
    assert (saa.feasible, saa.makespan, saa.starts) == (
        quant.feasible,
        quant.makespan,
        quant.starts,
    )


def test_saa_plan_is_feasible_for_every_scenario(example_stoch):
    cfg = MethodConfig()
    run = run_proactive_saa(example_stoch, cfg, DurationSample((0, 2, 5, 3, 2, 2, 0)))
    assert run.feasible
    for gamma in cfg.saa_gammas:
        scenario = quantile_durations(example_stoch, gamma).durations
        assert replay(example_stoch.base, run, scenario)


def test_saa_config_needs_at_least_one_gamma(example_stoch):
    with pytest.raises(ValueError, match="saa_gammas must be nonempty"):
        run_proactive_saa(
            example_stoch,
            MethodConfig(saa_gammas=()),
            DurationSample((0, 2, 5, 3, 2, 2, 0)),
        )


def test_saa_objective_grows_with_a_dominating_scenario():
    # adding a pointwise-larger scenario both tightens feasibility and
    # contributes the largest per-scenario makespan, so the optimal mean
    # cannot drop
    rng = random.Random(7)
    compared = 0
    while compared < 10:
        inst = random_instance(rng, max_real=4)
        stoch = make_stochastic(inst, 1.0)
        small = [quantile_durations(stoch, g).durations for g in (0.25, 0.5)]
        grown = small + [quantile_durations(stoch, 1.0).durations]
        first = solve_saa(inst, small)
        second = solve_saa(inst, grown)
        if (
            first.status is not SolveStatus.OPTIMAL
            or second.status is not SolveStatus.OPTIMAL
        ):
            continue
        assert second.objective >= first.objective
        compared += 1


def j10_stochastic(name: str, epsilon: float) -> StochasticInstance:
    return make_stochastic(parse_psplib((J10 / f"{name}.sch").read_text()), epsilon)


# summed SAA plan nodes over the 12 j10 instances with the default gammas,
# (dominating scenario first, ascending list) per epsilon
SAA_PLAN_NODES = {1: (2_872, 39_332), 2: (3_600, 44_116)}


@pytest.mark.parametrize("epsilon", sorted(SAA_PLAN_NODES))
def test_saa_plan_branches_on_the_dominating_scenario_on_j10(epsilon):
    # the plan reaches the ascending list's status and objective in under a
    # tenth of its nodes, because every conflict is branched on gamma 0.9
    gammas = MethodConfig().saa_gammas
    planned = ascending = 0
    for i in range(1, 13):
        stoch = j10_stochastic(f"j10_{i:02d}", epsilon)
        plan = methods._saa_plan(stoch, gammas, 300.0)
        scan = solve_saa(stoch.base, [quantile_durations(stoch, g).durations for g in gammas])
        assert (plan.status, plan.objective) == (scan.status, scan.objective), i
        planned += plan.nodes_explored
        ascending += scan.nodes_explored
    assert (planned, ascending) == SAA_PLAN_NODES[epsilon]


def test_saa_plan_ignores_the_order_of_its_gammas():
    default = MethodConfig().saa_gammas
    orders = [
        (0.5, 0.9, 0.25, 0.75),
        (0.9, 0.75, 0.5, 0.25),
        (Fraction(1, 2), 0.25, Fraction(9, 10), 0.75),
    ]
    for i in range(1, 13):
        stoch = j10_stochastic(f"j10_{i:02d}", 1)
        expected = methods._saa_plan(stoch, default, 300.0)
        for gammas in orders:
            assert methods._saa_plan(stoch, gammas, 300.0) == expected, (i, gammas)


def test_reactive_without_deviation_keeps_offline_plan(example_instance):
    stoch = make_stochastic(example_instance, 0.0)
    sample = DurationSample(example_instance.durations)
    run = run_reactive(stoch, MethodConfig(gamma=1), sample)
    base = run_proactive_quantile(stoch, MethodConfig(gamma=1), sample)
    assert run.feasible
    assert run.starts == base.starts
    assert run.makespan == base.makespan == 8
    # every finish matches its estimate, so no re-solve is ever triggered
    assert run.time_online == 0.0


def test_reactive_late_finish_inside_slack():
    run = run_reactive(SLACK_STOCH, MethodConfig(gamma=0.5), DurationSample((0, 3, 2, 0)))
    assert run.feasible and run.failure_reason is None
    # the started activity stays pinned at 0; the successor already had slack
    assert run.starts == (0, 0, 3, 0)
    assert run.makespan == 5
    assert run.time_online > 0.0


def test_reactive_early_finish_pulls_successor_in():
    run = run_reactive(PULL_STOCH, MethodConfig(gamma=0.5), DurationSample((0, 1, 2, 0)))
    assert run.feasible
    assert run.starts == (0, 0, 1, 0)
    assert run.makespan == 3


def test_reactive_unrecoverable_overload_is_an_execution_violation():
    run = run_reactive(TRAP_STOCH, MethodConfig(gamma=0.5), DurationSample((0, 3, 2, 0)))
    assert not run.feasible
    assert run.failure_reason == FAIL_EXECUTION
    assert run.makespan is None
    assert run.time_online > 0.0


def test_reactive_sees_an_overrun_when_its_estimate_falls_due():
    cfg = MethodConfig(gamma=0.5)
    sample = DurationSample((0, 6, 2, 0))
    run = run_reactive(LATE_STOCH, cfg, sample)
    # at 4 and 5 the first activity is seen still running, so the second is
    # held back each time instead of starting on top of it
    assert run.feasible
    assert run.starts == (0, 0, 6, 8)
    assert run.makespan == 8
    assert run_proactive_quantile(LATE_STOCH, cfg, sample).failure_reason == FAIL_EXECUTION


def test_reactive_reschedule_budget_exhaustion_is_a_timeout():
    cfg = MethodConfig(gamma=0.5, time_limit_reschedule=1e-9)
    run = run_reactive(TRAP_STOCH, cfg, DurationSample((0, 3, 2, 0)))
    assert not run.feasible
    assert run.failure_reason == FAIL_SOLVER_TIMEOUT


def test_reactive_replays_its_trace_when_asserts_are_stripped():
    # every plan starts all activities at 0, which overloads the example's
    # capacity-4 resource; under ``python -O`` only an explicit check stops it
    code = "\n".join((
        "assert False, 'not run under -O'",
        "from pathlib import Path",
        "from srcpsp import methods",
        "from srcpsp.instances import make_stochastic, parse_psplib, sample_durations",
        "from srcpsp.solver import Schedule, SolveOutcome, SolveStatus",
        "def at_zero(inst, durations, *args, **kwargs):",
        "    plan = Schedule.from_starts((0,) * inst.n_activities, durations)",
        "    return SolveOutcome(SolveStatus.FEASIBLE, plan, 0)",
        "methods.solve = at_zero",
        f"inst = parse_psplib(Path({str(J10.parent / 'example.sch')!r}).read_text())",
        "stoch = make_stochastic(inst, epsilon=1)",
        "methods.run_reactive(stoch, methods.MethodConfig(), sample_durations(stoch, seed=3))",
    ))
    src = str(Path(methods.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, os.environ.get("PYTHONPATH", "")))}
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 1
    last = run.stderr.splitlines()[-1]
    assert last == "AssertionError: reactive simulation produced an infeasible trace"


def test_stnu_end_to_end_short_realization(example_stoch):
    run = run_stnu(
        example_stoch, MethodConfig(gamma=1), DurationSample((0, 2, 5, 3, 1, 2, 0))
    )
    assert run.method == STNU
    assert run.feasible and run.failure_reason is None
    assert run.starts == (0, 0, 2, 5, 4, 7, 9)
    assert run.makespan == 9


def test_stnu_end_to_end_long_realization(example_stoch):
    run = run_stnu(
        example_stoch, MethodConfig(gamma=1), DurationSample((0, 2, 5, 3, 2, 2, 0))
    )
    assert run.feasible
    assert run.starts == (0, 0, 2, 6, 4, 7, 9)
    assert run.makespan == 9


def test_stnu_rejects_chains_built_from_a_lower_quantile(example_stoch):
    # the gamma=0.5 estimate reproduces the deterministic plan, whose chains
    # route the uncertain activity ahead of a rigid max-lag cluster
    run = run_stnu(
        example_stoch, MethodConfig(gamma=0.5), DurationSample((0, 2, 5, 3, 1, 2, 0))
    )
    assert not run.feasible
    assert run.failure_reason == FAIL_NOT_DC
    assert run.makespan is None and run.starts is None


def test_stnu_degenerate_matches_quantile_makespan(example_instance):
    stoch = make_stochastic(example_instance, 0.0)
    sample = DurationSample(example_instance.durations)
    run = run_stnu(stoch, MethodConfig(gamma=1), sample)
    base = run_proactive_quantile(stoch, MethodConfig(gamma=1), sample)
    assert run.feasible
    assert run.makespan == base.makespan == 8


def test_feasible_runs_replay_through_the_checker():
    rng = random.Random(0xA0D17)
    default = MethodConfig(gamma=0.9)
    top = MethodConfig(gamma=1)
    audited = 0
    for _ in range(15):
        inst = random_instance(rng, max_real=4)
        stoch = make_stochastic(inst, 1.0)
        for _ in range(2):
            sample = sample_durations(stoch, rng.randrange(2**32))
            for fn, cfg in (
                (run_proactive_quantile, default),
                (run_proactive_saa, default),
                (run_reactive, default),
                (run_stnu, top),
            ):
                run = fn(stoch, cfg, sample)
                if not run.feasible:
                    continue
                assert replay(inst, run, sample.durations), (fn.__name__, inst, sample)
                audited += 1
    assert audited >= 40


def test_reactive_online_cost_exceeds_proactive_sweep(monkeypatch):
    # a fake clock that only a solve (1 s) or a feasibility sweep (1/1024 s)
    # moves, so the online times name the steps they count, not machine load
    clock = [0.0]
    calls = []

    def ticking(step, cost):
        def run(*args, **kwargs):
            calls.append(step.__name__)
            clock[0] += cost
            return step(*args, **kwargs)

        return run

    monkeypatch.setattr(methods, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(methods, "solve", ticking(solve, 1.0))
    monkeypatch.setattr(methods, "check_schedule", ticking(check_schedule, 2**-10))
    sample = DurationSample((0, 3, 2, 0))
    cfg = MethodConfig(gamma=0.5)
    pro = run_proactive_quantile(SLACK_STOCH, cfg, sample)
    assert pro.feasible and calls == ["solve", "check_schedule"]
    assert (pro.time_offline, pro.time_online) == (1.0, 2**-10)  # the sweep alone
    calls.clear()
    rea = run_reactive(SLACK_STOCH, cfg, sample)
    assert rea.feasible and calls == ["solve", "solve", "check_schedule"]
    # the plan is offline and the closing trace check is uncounted: online
    # is the one re-solve, which costs strictly more than the sweep
    assert (rea.time_offline, rea.time_online) == (1.0, 1.0)
    assert rea.time_online > pro.time_online


def test_reactive_on_a_reused_plan_equals_a_fresh_plan():
    cfg = METHODS[REACTIVE].defaults
    timeless = lambda run: dataclasses.replace(run, time_offline=0.0, time_online=0.0)
    for name in ("j10_01", "j10_03", "j10_08"):
        stoch = make_stochastic(parse_psplib((J10 / f"{name}.sch").read_text()), 1)
        samples = [sample_durations(stoch, derive_seed(1, name, 1.0, k)) for k in range(3)]
        plans: dict = {}
        with methods.reusing_plans(plans):
            reused = [run_reactive(stoch, cfg, s) for s in samples + samples]
        fresh = [run_reactive(stoch, cfg, s) for s in samples + samples]
        assert any(run.time_online > 0 for run in reused)  # it re-solved
        assert [timeless(run) for run in reused] == [timeless(run) for run in fresh]
        # the plan's two steps, each made once with one measured cost, came
        # out unchanged: the estimate, and the solve keyed by its own arguments
        estimate = quantile_durations(stoch, cfg.gamma)
        limit = cfg.time_limit_offline
        assert {key: step for key, (step, _) in plans.items()} == {
            (quantile_durations, stoch, cfg.gamma): estimate,
            (solve, stoch.base, estimate.durations, limit): solve(
                stoch.base, estimate.durations, time_limit=limit
            ),
        }
        # each row's offline time is the sum of its steps' measured seconds
        assert {run.time_offline for run in reused} == {
            sum(seconds for _, seconds in plans.values())
        }


def test_perfect_information_filter(example_stoch, example_instance):
    assert perfect_information_feasible(
        example_stoch, DurationSample(example_instance.durations), 10.0
    )
    assert not perfect_information_feasible(
        TRAP_STOCH, DurationSample((0, 3, 2, 0)), 10.0
    )


def test_perfect_information_undecided_keeps_the_sample(
    example_stoch, example_instance, caplog
):
    with caplog.at_level(logging.WARNING, logger="srcpsp.methods"):
        kept = perfect_information_feasible(
            example_stoch, DurationSample(example_instance.durations), 1e-9
        )
    assert kept
    assert "undecided" in caplog.text


# (feasible, makespan, failure_reason, starts) of each runner on j10 at
# epsilon 1 with the bench's default method configs and the desk seeds
# derive_seed(1, name, 1.0, k), recorded before the runners shared helpers
METHOD_RUNS_PINNED = {
    ('j10_01', 0, 'proactive_q'): (True, 45, None, (0, 0, 3, 8, 22, 5, 15, 29, 15, 29, 42, 45)),
    ('j10_01', 0, 'proactive_saa'): (True, 44, None, (0, 0, 3, 8, 22, 5, 15, 34, 15, 34, 29, 44)),
    ('j10_01', 0, 'reactive'): (True, 31, None, (0, 0, 3, 7, 15, 4, 11, 21, 11, 21, 18, 31)),
    ('j10_01', 0, 'stnu'): (True, 30, None, (0, 0, 3, 7, 15, 4, 11, 18, 11, 20, 27, 30)),
    ('j10_01', 1, 'proactive_q'): (True, 45, None, (0, 0, 3, 8, 22, 5, 15, 29, 15, 29, 42, 45)),
    ('j10_01', 1, 'proactive_saa'): (True, 45, None, (0, 0, 3, 8, 22, 5, 15, 34, 15, 34, 29, 44)),
    ('j10_01', 1, 'reactive'): (True, 36, None, (0, 0, 2, 6, 16, 3, 10, 22, 10, 22, 33, 36)),
    ('j10_01', 1, 'stnu'): (True, 36, None, (0, 0, 2, 6, 16, 3, 10, 22, 10, 22, 33, 36)),
    ('j10_02', 0, 'proactive_q'): (True, 39, None, (0, 0, 8, 11, 16, 19, 23, 25, 34, 23, 12, 39)),
    ('j10_02', 0, 'proactive_saa'): (True, 39, None, (0, 0, 8, 11, 16, 19, 23, 25, 34, 23, 12, 39)),
    ('j10_02', 0, 'reactive'): (True, 34, None, (0, 0, 8, 11, 16, 19, 21, 23, 29, 21, 12, 34)),
    ('j10_02', 0, 'stnu'): (True, 34, None, (0, 0, 8, 11, 16, 19, 21, 23, 29, 21, 12, 34)),
    ('j10_02', 1, 'proactive_q'): (True, 39, None, (0, 0, 8, 11, 16, 19, 23, 25, 34, 23, 12, 39)),
    ('j10_02', 1, 'proactive_saa'): (True, 39, None, (0, 0, 8, 11, 16, 19, 23, 25, 34, 23, 12, 39)),
    ('j10_02', 1, 'reactive'): (True, 38, None, (0, 0, 8, 11, 16, 19, 22, 24, 33, 22, 12, 38)),
    ('j10_02', 1, 'stnu'): (True, 38, None, (0, 0, 8, 11, 16, 19, 22, 24, 33, 22, 12, 38)),
    ('j10_03', 0, 'proactive_q'): (True, 57, None, (0, 0, 10, 15, 32, 15, 26, 22, 44, 33, 49, 56)),
    ('j10_03', 0, 'proactive_saa'): (True, 57, None, (0, 0, 10, 15, 32, 15, 26, 22, 44, 33, 49, 56)),
    ('j10_03', 0, 'reactive'): (True, 53, None, (0, 0, 10, 15, 27, 15, 26, 22, 37, 43, 42, 51)),
    ('j10_03', 0, 'stnu'): (True, 50, None, (0, 0, 10, 15, 27, 15, 20, 22, 37, 26, 42, 49)),
    ('j10_03', 1, 'proactive_q'): (True, 56, None, (0, 0, 10, 15, 32, 15, 26, 22, 44, 33, 49, 56)),
    ('j10_03', 1, 'proactive_saa'): (True, 56, None, (0, 0, 10, 15, 32, 15, 26, 22, 44, 33, 49, 56)),
    ('j10_03', 1, 'reactive'): (True, 42, None, (0, 0, 7, 10, 27, 10, 27, 15, 23, 34, 34, 42)),
    ('j10_03', 1, 'stnu'): (True, 42, None, (0, 0, 7, 10, 23, 10, 16, 15, 30, 20, 35, 42)),
    ('j10_04', 0, 'proactive_q'): (True, 52, None, (0, 0, 13, 21, 19, 28, 38, 40, 35, 47, 45, 52)),
    ('j10_04', 0, 'proactive_saa'): (True, 52, None, (0, 0, 13, 21, 19, 28, 38, 40, 35, 47, 45, 52)),
    ('j10_04', 0, 'reactive'): (True, 45, None, (0, 0, 12, 18, 18, 24, 32, 34, 31, 40, 39, 45)),
    ('j10_04', 0, 'stnu'): (True, 45, None, (0, 0, 12, 18, 18, 24, 32, 34, 31, 40, 39, 45)),
    ('j10_04', 1, 'proactive_q'): (True, 52, None, (0, 0, 13, 21, 19, 28, 38, 40, 35, 47, 45, 52)),
    ('j10_04', 1, 'proactive_saa'): (True, 52, None, (0, 0, 13, 21, 19, 28, 38, 40, 35, 47, 45, 52)),
    ('j10_04', 1, 'reactive'): (True, 43, None, (0, 0, 10, 17, 16, 22, 29, 31, 29, 38, 36, 43)),
    ('j10_04', 1, 'stnu'): (True, 43, None, (0, 0, 10, 17, 16, 22, 29, 31, 29, 38, 36, 43)),
    ('j10_05', 0, 'proactive_q'): (True, 40, None, (0, 0, 3, 11, 14, 21, 22, 3, 27, 24, 26, 37)),
    ('j10_05', 0, 'proactive_saa'): (True, 40, None, (0, 0, 3, 11, 14, 21, 22, 3, 27, 24, 26, 37)),
    ('j10_05', 0, 'reactive'): (True, 33, None, (0, 0, 3, 11, 12, 19, 19, 3, 20, 19, 21, 30)),
    ('j10_05', 0, 'stnu'): (True, 33, None, (0, 0, 3, 11, 12, 19, 19, 3, 20, 19, 21, 30)),
    ('j10_05', 1, 'proactive_q'): (True, 37, None, (0, 0, 3, 11, 14, 21, 22, 3, 27, 24, 26, 37)),
    ('j10_05', 1, 'proactive_saa'): (True, 37, None, (0, 0, 3, 11, 14, 21, 22, 3, 27, 24, 26, 37)),
    ('j10_05', 1, 'reactive'): (True, 29, None, (0, 0, 2, 10, 7, 14, 19, 2, 19, 17, 21, 29)),
    ('j10_05', 1, 'stnu'): (True, 29, None, (0, 0, 2, 10, 7, 14, 19, 2, 19, 17, 21, 29)),
    ('j10_06', 0, 'proactive_q'): (True, 62, None, (0, 0, 11, 24, 30, 36, 11, 47, 30, 54, 59, 62)),
    ('j10_06', 0, 'proactive_saa'): (True, 62, None, (0, 0, 11, 24, 30, 36, 11, 47, 30, 54, 59, 62)),
    ('j10_06', 0, 'reactive'): (True, 51, None, (0, 0, 10, 22, 26, 31, 10, 43, 26, 38, 48, 51)),
    ('j10_06', 0, 'stnu'): (True, 51, None, (0, 0, 10, 22, 26, 31, 10, 39, 26, 43, 48, 51)),
    ('j10_06', 1, 'proactive_q'): (True, 62, None, (0, 0, 11, 24, 30, 36, 11, 47, 30, 54, 59, 62)),
    ('j10_06', 1, 'proactive_saa'): (True, 62, None, (0, 0, 11, 24, 30, 36, 11, 47, 30, 54, 59, 62)),
    ('j10_06', 1, 'reactive'): (True, 40, None, (0, 0, 9, 17, 27, 21, 9, 32, 19, 35, 37, 40)),
    ('j10_06', 1, 'stnu'): (True, 42, None, (0, 0, 9, 17, 21, 26, 9, 34, 19, 37, 39, 42)),
    ('j10_07', 0, 'proactive_q'): (True, 48, None, (0, 0, 10, 16, 26, 7, 28, 24, 29, 40, 35, 48)),
    ('j10_07', 0, 'proactive_saa'): (True, 48, None, (0, 0, 10, 16, 26, 7, 28, 24, 29, 40, 35, 48)),
    ('j10_07', 0, 'reactive'): (True, 46, None, (0, 0, 8, 14, 24, 7, 26, 22, 27, 38, 33, 46)),
    ('j10_07', 0, 'stnu'): (True, 46, None, (0, 0, 8, 14, 24, 7, 26, 22, 27, 38, 33, 46)),
    ('j10_07', 1, 'proactive_q'): (True, 48, None, (0, 0, 10, 16, 26, 7, 28, 24, 29, 40, 35, 48)),
    ('j10_07', 1, 'proactive_saa'): (True, 48, None, (0, 0, 10, 16, 26, 7, 28, 24, 29, 40, 35, 48)),
    ('j10_07', 1, 'reactive'): (True, 46, None, (0, 0, 9, 15, 25, 7, 27, 23, 28, 38, 34, 46)),
    ('j10_07', 1, 'stnu'): (True, 46, None, (0, 0, 9, 15, 25, 7, 27, 23, 28, 38, 34, 46)),
    ('j10_08', 0, 'proactive_q'): (True, 60, None, (0, 0, 25, 12, 32, 9, 12, 32, 40, 54, 42, 59)),
    ('j10_08', 0, 'proactive_saa'): (True, 61, None, (0, 0, 25, 12, 32, 9, 12, 32, 14, 42, 49, 58)),
    ('j10_08', 0, 'reactive'): (True, 56, None, (0, 0, 11, 11, 17, 9, 27, 17, 25, 38, 44, 53)),
    ('j10_08', 0, 'stnu'): (True, 57, None, (0, 0, 23, 9, 29, 9, 12, 29, 36, 51, 39, 56)),
    ('j10_08', 1, 'proactive_q'): (True, 59, None, (0, 0, 25, 12, 32, 9, 12, 32, 40, 54, 42, 59)),
    ('j10_08', 1, 'proactive_saa'): (True, 58, None, (0, 0, 25, 12, 32, 9, 12, 32, 14, 42, 49, 58)),
    ('j10_08', 1, 'reactive'): (True, 49, None, (0, 0, 22, 12, 27, 9, 12, 27, 35, 44, 35, 49)),
    ('j10_08', 1, 'stnu'): (True, 49, None, (0, 0, 22, 9, 27, 9, 12, 27, 35, 44, 35, 49)),
    ('j10_09', 0, 'proactive_q'): (True, 48, None, (0, 0, 9, 14, 21, 19, 28, 26, 36, 39, 9, 46)),
    ('j10_09', 0, 'proactive_saa'): (True, 48, None, (0, 0, 9, 14, 21, 19, 28, 26, 36, 39, 9, 46)),
    ('j10_09', 0, 'reactive'): (True, 47, None, (0, 0, 9, 14, 20, 19, 27, 25, 35, 38, 9, 45)),
    ('j10_09', 0, 'stnu'): (True, 45, None, (0, 0, 9, 14, 20, 19, 27, 25, 35, 35, 9, 45)),
    ('j10_09', 1, 'proactive_q'): (True, 48, None, (0, 0, 9, 14, 21, 19, 28, 26, 36, 39, 9, 46)),
    ('j10_09', 1, 'proactive_saa'): (True, 48, None, (0, 0, 9, 14, 21, 19, 28, 26, 36, 39, 9, 46)),
    ('j10_09', 1, 'reactive'): (True, 47, None, (0, 0, 9, 14, 21, 19, 27, 26, 35, 38, 9, 45)),
    ('j10_09', 1, 'stnu'): (True, 47, None, (0, 0, 9, 14, 21, 19, 27, 26, 35, 38, 9, 45)),
    ('j10_10', 0, 'proactive_q'): (True, 35, None, (0, 0, 8, 19, 16, 24, 30, 22, 24, 19, 30, 35)),
    ('j10_10', 0, 'proactive_saa'): (True, 35, None, (0, 0, 8, 19, 16, 24, 30, 22, 24, 19, 30, 35)),
    ('j10_10', 0, 'reactive'): (True, 31, None, (0, 0, 7, 16, 15, 21, 26, 19, 21, 16, 26, 31)),
    ('j10_10', 0, 'stnu'): (True, 29, None, (0, 0, 7, 16, 15, 19, 24, 18, 19, 16, 24, 29)),
    ('j10_10', 1, 'proactive_q'): (True, 37, None, (0, 0, 8, 19, 16, 24, 30, 22, 24, 19, 30, 35)),
    ('j10_10', 1, 'proactive_saa'): (True, 37, None, (0, 0, 8, 19, 16, 24, 30, 22, 24, 19, 30, 35)),
    ('j10_10', 1, 'reactive'): (True, 36, None, (0, 0, 8, 19, 16, 24, 29, 22, 24, 19, 29, 34)),
    ('j10_10', 1, 'stnu'): (True, 36, None, (0, 0, 8, 19, 16, 24, 29, 22, 24, 19, 29, 34)),
    ('j10_11', 0, 'proactive_q'): (True, 66, None, (0, 0, 8, 11, 11, 23, 51, 26, 38, 61, 51, 65)),
    ('j10_11', 0, 'proactive_saa'): (True, 66, None, (0, 0, 8, 11, 11, 23, 51, 26, 38, 61, 51, 65)),
    ('j10_11', 0, 'reactive'): (True, 60, None, (0, 0, 8, 10, 10, 21, 45, 23, 33, 55, 45, 59)),
    ('j10_11', 0, 'stnu'): (True, 60, None, (0, 0, 8, 10, 10, 21, 45, 23, 33, 55, 45, 59)),
    ('j10_11', 1, 'proactive_q'): (True, 65, None, (0, 0, 8, 11, 11, 23, 51, 26, 38, 61, 51, 65)),
    ('j10_11', 1, 'proactive_saa'): (True, 65, None, (0, 0, 8, 11, 11, 23, 51, 26, 38, 61, 51, 65)),
    ('j10_11', 1, 'reactive'): (True, 52, None, (0, 0, 8, 10, 9, 19, 38, 21, 30, 48, 38, 52)),
    ('j10_11', 1, 'stnu'): (True, 52, None, (0, 0, 8, 10, 9, 19, 38, 21, 30, 48, 38, 52)),
    ('j10_12', 0, 'proactive_q'): (True, 31, None, (0, 0, 7, 11, 7, 21, 18, 22, 11, 27, 30, 31)),
    ('j10_12', 0, 'proactive_saa'): (True, 31, None, (0, 0, 7, 11, 7, 21, 18, 22, 11, 27, 30, 31)),
    ('j10_12', 0, 'reactive'): (True, 29, None, (0, 0, 7, 11, 7, 21, 18, 22, 11, 26, 28, 29)),
    ('j10_12', 0, 'stnu'): (True, 29, None, (0, 0, 7, 11, 7, 15, 18, 22, 11, 26, 28, 29)),
    ('j10_12', 1, 'proactive_q'): (True, 32, None, (0, 0, 7, 11, 7, 21, 18, 22, 11, 27, 30, 31)),
    ('j10_12', 1, 'proactive_saa'): (True, 32, None, (0, 0, 7, 11, 7, 21, 18, 22, 11, 27, 30, 31)),
    ('j10_12', 1, 'reactive'): (True, 29, None, (0, 0, 7, 11, 7, 21, 18, 22, 11, 24, 27, 28)),
    ('j10_12', 1, 'stnu'): (True, 29, None, (0, 0, 7, 11, 7, 21, 18, 22, 11, 24, 27, 28)),
}


def test_method_runs_pinned_on_j10():
    for i in range(1, 13):
        name = f"j10_{i:02d}"
        stoch = make_stochastic(parse_psplib((J10 / f"{name}.sch").read_text()), 1)
        for k in (0, 1):
            sample = sample_durations(stoch, derive_seed(1, name, 1.0, k))
            for method, runner in _RUNNERS.items():
                run = runner(stoch, METHODS[method].defaults, sample)
                got = (run.feasible, run.makespan, run.failure_reason, run.starts)
                assert got == METHOD_RUNS_PINNED[(name, k, method)], (name, k, method)


def test_repinned_j10_12_saa_starts_are_both_optima():
    # the dominating-first plan starts activity 4 at 7, the ascending list's
    # at 10: both fit every quantile scenario with the same mean makespan
    stoch = j10_stochastic("j10_12", 1)
    scenarios = [quantile_durations(stoch, g).durations for g in MethodConfig().saa_gammas]
    recorded = (0, 0, 7, 11, 10, 21, 18, 22, 11, 27, 30, 31)
    repinned = METHOD_RUNS_PINNED[("j10_12", 0, PROACTIVE_SAA)][3]
    assert [j for j, (a, b) in enumerate(zip(recorded, repinned)) if a != b] == [4]
    plan = methods._saa_plan(stoch, MethodConfig().saa_gammas, 300.0)
    assert (plan.status, plan.starts) == (SolveStatus.OPTIMAL, repinned)
    for starts in (recorded, repinned):
        schedules = [Schedule.from_starts(starts, d) for d in scenarios]
        for durations, schedule in zip(scenarios, schedules):
            assert check_schedule(stoch.base, durations, schedule).feasible
        assert sum(s.makespan for s in schedules) / len(scenarios) == plan.objective


# (instance, sample) at epsilon 2 under the desk master seed, where an
# activity overruns its estimate: reactive's makespan and the clairvoyant optimum
REACTIVE_OVERRUNS_PINNED = {("j10_01", 5): (42, 42), ("j10_02", 0): (37, 32)}


def test_reactive_overruns_pinned_on_j10_at_epsilon_two():
    for (name, k), (makespan, optimum) in REACTIVE_OVERRUNS_PINNED.items():
        stoch = make_stochastic(parse_psplib((J10 / f"{name}.sch").read_text()), 2)
        sample = sample_durations(stoch, derive_seed(20260818, name, 2.0, k))
        run = run_reactive(stoch, METHODS[REACTIVE].defaults, sample)
        assert (run.feasible, run.makespan) == (True, makespan), (name, k)
        clairvoyant = solve(stoch.base, sample.durations)
        assert clairvoyant.status is SolveStatus.OPTIMAL
        assert clairvoyant.schedule.makespan == optimum, (name, k)


def test_online_methods_see_only_the_past():
    # reactive and stnu decide online: a start before time t may depend only on
    # what was observed before t, so a twin sample that agrees on all of that
    # must give the same starts before t; a twin whose run ends infeasible has
    # no starts to compare and is counted, not dropped
    rng = random.Random(0x7A1)
    counts = {method: {"compared": 0, "infeasible": 0} for method in (REACTIVE, STNU)}
    for path in sorted(J10.glob("*.sch")):
        stoch = make_stochastic(parse_psplib(path.read_text()), 2)
        with methods.reusing_plans({}):
            for method, count in counts.items():
                run = METHODS[method].run
                cfg = METHODS[method].defaults
                for _ in range(9):
                    sample = sample_durations(stoch, rng.getrandbits(63))
                    first = run(stoch, cfg, sample)
                    if not first.feasible:
                        continue
                    cut = rng.randint(1, first.makespan)
                    twin = run(stoch, cfg, twin_sample(stoch, sample, first.starts, cut, rng))
                    if not twin.feasible:
                        count["infeasible"] += 1
                        continue
                    count["compared"] += 1
                    before = [(j, s) for j, s in enumerate(first.starts) if s < cut]
                    assert before == [(j, s) for j, s in enumerate(twin.starts) if s < cut], (
                        path.stem, method, sample.seed, cut
                    )
    for method, count in counts.items():
        assert count["compared"] >= 80, method
        assert count["infeasible"] < count["compared"], method


# a value of each MethodConfig field that changes the run of a method reading it
CHANGED_SETTINGS = {
    "gamma": 0.5,
    "saa_gammas": (0.5,),
    "time_limit_offline": 1e-6,
    "time_limit_reschedule": 1e-6,
}


def test_methods_ignore_the_settings_they_do_not_read():
    # bench and simulate reject a setting outside a method's reads, which is
    # sound only if the runner indeed never reads it
    assert set(CHANGED_SETTINGS) == {f.name for f in dataclasses.fields(MethodConfig)}
    untimed = dict(time_offline=0.0, time_online=0.0)
    for name in ("j10_01", "j10_05"):
        stoch = make_stochastic(parse_psplib((J10 / f"{name}.sch").read_text()), 1)
        sample = sample_durations(stoch, derive_seed(1, name, 1.0, 0))
        for method, (run, defaults, reads) in methods.METHODS.items():
            # outside reusing_plans every call makes a fresh plan
            expected = dataclasses.replace(run(stoch, defaults, sample), **untimed)
            for setting, value in CHANGED_SETTINGS.items():
                if setting not in reads:
                    changed = run(stoch, dataclasses.replace(defaults, **{setting: value}), sample)
                    assert dataclasses.replace(changed, **untimed) == expected, (method, setting)
