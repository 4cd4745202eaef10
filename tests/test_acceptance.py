"""Acceptance gate: one test per promised behavior, at the stated tolerance.

Two tests in here are expected to fail and are kept red on purpose; their
docstrings explain why the claimed behavior is unattainable.  Everything
else must pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from itertools import product
from pathlib import Path

import pytest

from oracles import brute_force_optimum, random_instance
from stats_oracle import exact_two_sided_p
from srcpsp.bench import BenchConfig, build_cells, feasibility_csv, run_bench
from srcpsp.chaining import chain
from srcpsp.instances import (
    DurationSample,
    StochasticInstance,
    make_stochastic,
    parse_psplib,
    quantile_durations,
    sample_durations,
)
from srcpsp.methods import PROACTIVE_Q, PROACTIVE_SAA, REACTIVE, STNU
from srcpsp.solver import Schedule, SolveStatus, check_schedule, solve
from srcpsp.stats import (
    PairedSeries,
    UndefinedTest,
    build_partial_ordering,
    magnitude_test,
    method_pair_series,
    proportion_test,
    wilcoxon_pratt,
)
from srcpsp.stn import DistanceGraph, earliest_schedule
from srcpsp.stnu import Controllable, NotDc, Stnu, build_stnu, dc_check, rte_execute

DATA = Path(__file__).resolve().parent.parent / "data"

# five-activity worked example: a..e = 1..5, single resource of capacity 4
EST_DURATIONS = (0, 2, 5, 3, 2, 2, 0)
DET_DURATIONS = (0, 2, 5, 3, 1, 2, 0)
UNCERTAIN_BOUNDS = ((0, 0), (2, 2), (5, 5), (3, 3), (1, 2), (2, 2), (0, 0))


@pytest.fixture(scope="module")
def example():
    return parse_psplib((DATA / "example.sch").read_text(encoding="utf-8"))


def accepts_real_starts(inst, reals: tuple[int, ...]) -> bool:
    """Whether any sink completion makes the real-activity starts feasible."""
    for sink in range(16):
        starts = (0, *reals, sink)
        sched = Schedule.from_starts(starts, inst.durations)
        if check_schedule(inst, inst.durations, sched).feasible:
            return True
    return False


# -- worked-example goldens --------------------------------------------------


def test_example_check_accepts_start_vector_with_c_at_four(example):
    """EXPECTED RED: the start vector (a=1, b=3, c=4, d=0, e=3) is quoted as
    feasible for the five-activity example, but starting c at 4 makes b, c
    and e overlap at time 4 with combined demand 5 on a capacity-4 resource,
    so no completion of this vector passes the checker.  The companion test
    shows the one-slot correction (c=5) is accepted.  Deliberately kept
    failing so the discrepancy stays visible."""
    assert accepts_real_starts(example, (1, 3, 4, 0, 3))


def test_example_check_accepts_start_vector_with_c_at_five(example):
    assert accepts_real_starts(example, (1, 3, 5, 0, 3))


def test_example_solver_is_optimal_and_matches_exhaustive_search(example):
    oracle = brute_force_optimum(example, example.durations, horizon=15)
    assert oracle is not None
    out = solve(example, example.durations, time_limit=10)
    assert out.status is SolveStatus.OPTIMAL
    assert out.schedule.makespan <= 8
    assert out.schedule.makespan == oracle[0]


def test_safe_chaining_is_dynamically_controllable(example):
    # chains a->d, d->c, b->e, a->b with d's duration contingent in [1, 2]
    stoch = StochasticInstance(base=example, bounds=UNCERTAIN_BOUNDS, epsilon=0.5)
    sched = Schedule.from_starts((0, 0, 2, 6, 4, 7, 9), EST_DURATIONS)
    pos = chain(example, EST_DURATIONS, sched)
    assert set(pos.chain_edges) == {(1, 4), (4, 3), (2, 5), (1, 2)}
    assert isinstance(dc_check(build_stnu(pos, stoch)), Controllable)


def test_reversed_chaining_is_rejected_with_minus_one_cycle(example):
    # chains d->a, a->e, e->c, a->b leave no slack for d's long outcome
    stoch = StochasticInstance(base=example, bounds=UNCERTAIN_BOUNDS, epsilon=0.5)
    sched = Schedule.from_starts((0, 1, 3, 5, 0, 3, 7), DET_DURATIONS)
    pos = chain(example, DET_DURATIONS, sched)
    assert set(pos.chain_edges) == {(4, 1), (1, 5), (5, 3), (1, 2)}
    verdict = dc_check(build_stnu(pos, stoch))
    assert isinstance(verdict, NotDc)
    assert verdict.total == -1


def test_online_execution_traces_for_both_outcomes(example):
    stoch = StochasticInstance(base=example, bounds=UNCERTAIN_BOUNDS, epsilon=0.5)
    sched = Schedule.from_starts((0, 0, 2, 6, 4, 7, 9), EST_DURATIONS)
    verdict = dc_check(build_stnu(chain(example, EST_DURATIONS, sched), stoch))
    assert isinstance(verdict, Controllable)

    short = rte_execute(verdict.estnu, DurationSample((0, 2, 5, 3, 1, 2, 0)))
    assert [short.times[Stnu.start(j)] for j in range(1, 6)] == [0, 2, 5, 4, 7]

    long = rte_execute(verdict.estnu, DurationSample((0, 2, 5, 3, 2, 2, 0)))
    assert [long.times[Stnu.start(j)] for j in range(1, 6)] == [0, 2, 6, 4, 7]


# -- randomized property suites ----------------------------------------------


def test_property_quantile_plans_survive_any_smaller_realization():
    # a schedule solved against upper-quantile durations must stay feasible
    # when every activity comes in at or under its estimate
    rng = random.Random(0xACC1)
    cases = 0
    started = time.perf_counter()
    while cases < 200:
        inst = random_instance(rng)
        stoch = make_stochastic(inst, rng.choice([1.0, 2.0]))
        estimate = quantile_durations(stoch, 1)
        out = solve(inst, estimate.durations, time_limit=10)
        if out.status is not SolveStatus.OPTIMAL:
            continue
        for _ in range(4):
            realized = sample_durations(stoch, rng.randrange(2**31))
            report = check_schedule(inst, realized.durations, out.schedule)
            assert report.feasible
            cases += 1
    assert time.perf_counter() - started < 60


def test_property_chained_schedules_never_overload_resources():
    rng = random.Random(0xACC2)
    cases = 0
    started = time.perf_counter()
    while cases < 200:
        inst = random_instance(rng)
        out = solve(inst, inst.durations, time_limit=10)
        if out.status is not SolveStatus.OPTIMAL:
            continue
        pos = chain(inst, inst.durations, out.schedule)
        stoch = make_stochastic(inst, rng.choice([1.0, 2.0]))
        for _ in range(4):
            realized = sample_durations(stoch, rng.randrange(2**31)).durations
            edges = list(inst.temporal_constraints)
            edges.extend((a, b, realized[a]) for a, b in pos.chain_edges)
            starts = earliest_schedule(
                DistanceGraph(node_count=inst.n_activities, edges=tuple(edges))
            )
            if starts is None:
                continue  # realized max lags may contradict; not a chaining defect
            report = check_schedule(
                inst, realized, Schedule.from_starts(starts, realized)
            )
            assert report.resource_violations == ()
            cases += 1
    assert time.perf_counter() - started < 60


def test_property_execution_respects_every_edge_when_controllable():
    from game_oracle import random_stnu

    rng = random.Random(0xACC3)
    cases = 0
    started = time.perf_counter()
    while cases < 200:
        stnu = random_stnu(rng)
        verdict = dc_check(stnu)
        if not isinstance(verdict, Controllable):
            continue
        for _ in range(4):
            durations = [0] * stnu.n_activities
            for _, c, low, high in stnu.contingent_links:
                durations[c // 2] = rng.randint(low, high)
            trace = rte_execute(verdict.estnu, DurationSample(tuple(durations)))
            for u, v, w in stnu.ordinary_edges:
                assert trace.times[v] - trace.times[u] <= w
            for a, c, low, high in stnu.contingent_links:
                assert low <= trace.times[c] - trace.times[a] <= high
            cases += 1
    assert time.perf_counter() - started < 60


def test_property_solver_matches_brute_force_on_small_instances():
    rng = random.Random(0xACC4)
    solved = 0
    started = time.perf_counter()
    for _ in range(200):
        inst = random_instance(rng, max_real=5)
        oracle = brute_force_optimum(inst, inst.durations)
        out = solve(inst, inst.durations, time_limit=10)
        if oracle is None:
            assert out.status is SolveStatus.INFEASIBLE
        else:
            assert out.status is SolveStatus.OPTIMAL
            assert out.schedule.makespan == oracle[0]
            solved += 1
    assert solved >= 100
    assert time.perf_counter() - started < 60


def test_property_test_decisions_are_antisymmetric_and_scale_invariant():
    rng = random.Random(0xACC5)
    started = time.perf_counter()
    for _ in range(200):
        n = rng.randint(4, 15)
        pairs = []
        for _ in range(n):
            a = float(rng.randint(0, 20))
            b = float(rng.randint(0, 20))
            if rng.random() < 0.1:
                a = math.inf
            elif rng.random() < 0.1:
                b = math.inf
            pairs.append((a, b))
        series = PairedSeries(tuple(pairs))
        mirrored = PairedSeries(tuple((b, a) for a, b in series.pairs))
        scale = rng.choice([2, 3, 7])
        scaled = PairedSeries(tuple((a * scale, b * scale) for a, b in pairs))

        try:
            base = wilcoxon_pratt(series)
        except UndefinedTest as undefined:
            assert str(undefined) == "every pair is tied"
            with pytest.raises(UndefinedTest, match="every pair is tied"):
                wilcoxon_pratt(mirrored)
        else:
            flipped = wilcoxon_pratt(mirrored)
            assert flipped.statistic == -base.statistic
            assert flipped.p_value == base.p_value
            assert (flipped.p_value < 0.05) == (base.p_value < 0.05)
            rescaled = wilcoxon_pratt(scaled)
            assert rescaled.statistic == base.statistic
            assert rescaled.p_value == base.p_value

        try:
            share = proportion_test(series)
        except UndefinedTest as undefined:
            assert str(undefined) == "no pair has a winner"
            with pytest.raises(UndefinedTest, match="no pair has a winner"):
                proportion_test(mirrored)
        else:
            flipped = proportion_test(mirrored)
            assert flipped.statistic == share.statistic
            assert flipped.p_value == share.p_value
            assert flipped.extras["proportion_a"] == pytest.approx(
                1 - share.extras["proportion_a"]
            )
            rescaled = proportion_test(scaled)
            assert rescaled.statistic == share.statistic
            assert rescaled.extras["proportion_a"] == share.extras["proportion_a"]

        finite = PairedSeries(
            tuple(p for p in series.pairs if math.isfinite(p[0]) and math.isfinite(p[1]))
        )
        try:
            size = magnitude_test(finite)
        except ValueError:
            pass
        else:
            mirrored_size = magnitude_test(PairedSeries(tuple((b, a) for a, b in finite.pairs)))
            assert mirrored_size.statistic == pytest.approx(-size.statistic)
            assert mirrored_size.p_value == pytest.approx(size.p_value)
            scaled_size = magnitude_test(
                PairedSeries(tuple((a * scale, b * scale) for a, b in finite.pairs))
            )
            assert scaled_size.statistic == pytest.approx(size.statistic, abs=1e-9)
            assert scaled_size.p_value == pytest.approx(size.p_value, abs=1e-9)
    assert time.perf_counter() - started < 60


# -- statistical-test oracles --------------------------------------------------


def signed_series(diffs) -> PairedSeries:
    return PairedSeries(tuple((20.0 + d, 20.0) for d in diffs))


def worst_normal_vs_exact_deviation(sizes) -> float:
    worst = 0.0
    for n in sizes:
        for signs in product((1, -1), repeat=n):
            diffs = [sign * rank for rank, sign in enumerate(signs, start=1)]
            approx = wilcoxon_pratt(signed_series(diffs)).p_value
            exact = exact_two_sided_p(diffs)
            worst = max(worst, abs(approx - exact))
    return worst


def test_signed_rank_tracks_exact_permutation_for_every_size_up_to_twelve():
    """EXPECTED RED: with two or three nonzero differences the normal
    approximation is off by up to 0.129 and 0.077 against the exact
    permutation distribution, so a 0.05 bound over every size up to 12
    cannot hold.  The companion test verifies the bound from four pairs
    up, where the worst case is 0.0488.  Deliberately kept failing."""
    assert worst_normal_vs_exact_deviation(range(1, 13)) <= 0.05


def test_signed_rank_tracks_exact_permutation_from_four_pairs_up():
    assert worst_normal_vs_exact_deviation(range(4, 13)) <= 0.05


def test_win_share_statistic_matches_hand_computations():
    win, loss, tie = (5.0, 9.0), (9.0, 5.0), (7.0, 7.0)
    cases = [
        ([win] * 9 + [loss], 7 / math.sqrt(10), math.erfc(7 / math.sqrt(20)), 0.9),
        ([win] * 8, 7 / math.sqrt(8), math.erfc(7 / 4), 1.0),
        ([win] * 3 + [loss] * 3, 0.0, 1.0, 0.5),
        (
            [win] * 8 + [loss] * 2 + [tie] * 2,
            5 / math.sqrt(10),
            math.erfc(5 / math.sqrt(20)),
            0.8,
        ),
        ([win] + [loss] * 4, 2 / math.sqrt(5), math.erfc(2 / math.sqrt(10)), 0.2),
    ]
    for pairs, z, p, share in cases:
        result = proportion_test(PairedSeries(tuple(pairs)))
        assert result.statistic == pytest.approx(z, abs=1e-9)
        assert result.p_value == pytest.approx(p, abs=1e-9)
        assert result.extras["proportion_a"] == pytest.approx(share, abs=1e-9)
        assert result.n_pairs == len(pairs)


def test_magnitude_statistic_matches_hand_computations():
    # expected values worked out from the normalized differences by hand;
    # with one or two degrees of freedom the two-sided p has an elementary
    # closed form (arctangent, algebraic respectively)
    cases = [
        ([(3, 1), (5, 3)], 3.0, 1 - 2 * math.atan(3.0) / math.pi),
        ([(1, 3), (3, 5)], -3.0, 1 - 2 * math.atan(3.0) / math.pi),
        ([(7, 1), (3, 1), (5, 3)], 2 * math.sqrt(3), 1 - math.sqrt(6 / 7)),
        ([(0, 0), (3, 1), (5, 3)], math.sqrt(3), 1 - math.sqrt(0.6)),
        ([(4, 2), (8, 2)], 3.5, 1 - 2 * math.atan(3.5) / math.pi),
    ]
    for pairs, t, p in cases:
        series = PairedSeries(tuple((float(a), float(b)) for a, b in pairs))
        result = magnitude_test(series)
        assert result.statistic == pytest.approx(t, abs=1e-9)
        assert result.p_value == pytest.approx(p, abs=1e-9)


# -- desk-scale directional comparison ----------------------------------------


def _desk_run(tmp_path_factory, epsilon):
    config = BenchConfig.from_mapping(
        {
            "instance_sets": {"j10": str(DATA / "j10" / "*.sch")},
            "instances_per_set": 10,
            "epsilons": [epsilon],
            "samples_per_instance": 10,
            "method_configs": {"proactive_saa": {"time_limit_offline": 60}},
            "output_dir": str(tmp_path_factory.mktemp("desk")),
            "master_seed": 20260818,
        }
    )
    started = time.perf_counter()
    table, excluded = run_bench(build_cells(config), config.parallelism)
    elapsed = time.perf_counter() - started
    assert elapsed < 1800
    return table, excluded


@pytest.fixture(scope="module")
def desk_table(tmp_path_factory):
    return _desk_run(tmp_path_factory, 1)


# the same desk at epsilon 2, where estimates can fall short and ``reactive`` observes overruns
@pytest.fixture(scope="module")
def desk_table_eps2(tmp_path_factory):
    return _desk_run(tmp_path_factory, 2)


def test_desk_scale_every_method_completes_on_every_cell(desk_table):
    table, excluded = desk_table
    methods = {PROACTIVE_Q, PROACTIVE_SAA, REACTIVE, STNU}
    assert {row.method for row in table.rows} == methods
    cells = {(r.instance, r.sample) for r in table.rows}
    assert len(cells) * len(methods) == len(table.rows)
    assert len(cells) + excluded == 10 * 10


def test_desk_scale_execution_beats_static_plan_on_makespan(desk_table):
    table, _ = desk_table
    runs = table.to_method_runs(epsilon=1.0)
    series = method_pair_series(runs, PROACTIVE_Q, STNU, "quality")
    double_hits = PairedSeries(
        tuple(p for p in series.pairs if math.isfinite(p[0]) and math.isfinite(p[1]))
    )
    assert len(double_hits) >= 10
    result = magnitude_test(double_hits)
    assert result.extras["normalized_mean_b"] < result.extras["normalized_mean_a"]


def test_desk_scale_online_times_order_methods(desk_table):
    table, _ = desk_table
    mean_online = {}
    for method in (PROACTIVE_Q, PROACTIVE_SAA, REACTIVE, STNU):
        times = [r.time_online for r in table.rows if r.method == method]
        mean_online[method] = sum(times) / len(times)
    assert mean_online[PROACTIVE_Q] < mean_online[STNU]
    assert mean_online[PROACTIVE_SAA] < mean_online[STNU]
    assert mean_online[STNU] < mean_online[REACTIVE]


def test_desk_scale_quality_ordering_contains_key_edge(desk_table):
    table, _ = desk_table
    runs = table.to_method_runs(epsilon=1.0)
    series = method_pair_series(runs, PROACTIVE_Q, STNU, "quality")
    significant = False
    try:
        significant = wilcoxon_pratt(series).p_value < 0.05
    except UndefinedTest:
        pass
    if not significant:
        try:
            significant = proportion_test(series).p_value < 0.05
        except UndefinedTest:
            pass
    ordering = build_partial_ordering(runs, "quality", 0.05)
    if significant:
        assert any(
            better == STNU and worse == PROACTIVE_Q
            for better, worse, _ in ordering.edges
        )


# sha256 of the desk table's CSV without its two wall-time columns, and of its
# feasibility CSV; ``srcpsp bench`` on the same desk with default limits gives both
DESK_RESULTS_SHA256 = "7cefc9b47789d904d10b3fc803e5ca977bed8ff521b554874274497186afb36e"
DESK_FEASIBILITY_SHA256 = "8f544a5e82a50f7ec14641b3b2ecb31461154b40a591819783de913c3bb194d8"
DESK_EPS2_RESULTS_SHA256 = "152f27888bd2102bb6993dfe6d963b2c4512773c58e0cef77d8bba4257f8a36f"
DESK_EPS2_FEASIBILITY_SHA256 = "00a7b84434db37e4371a841ab75e58f8039eb45ed3f44b4919b6a55f32683d68"


@pytest.mark.parametrize(
    "desk, results_sha256, feasibility_sha256",
    [
        ("desk_table", DESK_RESULTS_SHA256, DESK_FEASIBILITY_SHA256),
        ("desk_table_eps2", DESK_EPS2_RESULTS_SHA256, DESK_EPS2_FEASIBILITY_SHA256),
    ],
    ids=["eps1", "eps2"],
)
def test_desk_scale_results_match_their_pinned_digests(
    request, desk, results_sha256, feasibility_sha256
):
    table, _ = request.getfixturevalue(desk)
    lines = []
    for line in table.to_csv().splitlines():
        fields = line.split(",")
        del fields[7:9]  # time_offline_ms and time_online_ms
        lines.append(",".join(fields) + "\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == results_sha256
    feasibility = feasibility_csv(table).encode()
    assert hashlib.sha256(feasibility).hexdigest() == feasibility_sha256


# -- rerun determinism ---------------------------------------------------------


def test_bench_reruns_are_identical_modulo_wall_time(tmp_path):
    import srcpsp.bench as bench_mod

    def run_once(out_dir: Path) -> list[str]:
        config = {
            "instance_sets": {"j10": str(DATA / "j10" / "*.sch")},
            "instances_per_set": 2,
            "epsilons": [1],
            "samples_per_instance": 2,
            "output_dir": str(out_dir),
            "master_seed": 424242,
        }
        cfg_path = out_dir.with_suffix(".json")
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert bench_mod.main(["bench", "--config", str(cfg_path)]) == 0
        lines = (out_dir / "results.csv").read_text(encoding="utf-8").splitlines()
        stripped = []
        for line in lines:
            fields = line.split(",")
            del fields[7:9]  # the two wall-time columns
            stripped.append(",".join(fields))
        return stripped

    first = run_once(tmp_path / "first")
    second = run_once(tmp_path / "second")
    assert first == second
    assert len(first) > 1
