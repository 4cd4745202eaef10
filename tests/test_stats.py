"""Tests for the paired comparison tests and the ordering builder."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

from stats_oracle import exact_two_sided_p
from srcpsp import stats
from srcpsp.methods import MethodRun
from srcpsp.stats import (
    INF,
    METRICS,
    QUALITY,
    STRONG,
    TIME_OFFLINE,
    TIME_ONLINE,
    WEAK,
    AllTies,
    NoNonzeroDifferences,
    PairedSeries,
    PartialOrdering,
    TestResult as PairTestResult,
    UndefinedTest,
    ZeroVariance,
    build_partial_ordering,
    magnitude_test,
    proportion_test,
    wilcoxon_pratt,
)


def series_of(diffs, base: float = 10.0) -> PairedSeries:
    """Series with the requested finite differences, all values positive."""
    return PairedSeries(tuple((base + d, base) for d in diffs))


def random_series(rng: random.Random, n: int, with_inf: bool = False) -> PairedSeries:
    pairs = []
    for _ in range(n):
        a = float(rng.randint(0, 8))
        b = float(rng.randint(0, 8))
        if with_inf:
            roll = rng.random()
            if roll < 0.15:
                a = INF
            elif roll < 0.3:
                b = INF
        pairs.append((a, b))
    return PairedSeries(tuple(pairs))


def test_paired_series_drops_double_infinite():
    series = PairedSeries(((1.0, INF), (INF, INF), (2.0, 3.0)))
    assert series.pairs == ((1.0, INF), (2.0, 3.0))
    # the infeasible side is infinitely bad, so the finite side wins
    assert series.differences() == (-INF, -1.0)
    assert len(series) == 2


def test_paired_series_rejects_bad_values():
    with pytest.raises(ValueError):
        PairedSeries(((-1.0, 2.0),))
    with pytest.raises(ValueError):
        PairedSeries(((float("nan"), 2.0),))


def test_result_rejects_inconsistent_flag():
    # significance is derived from p, so only an out-of-range p can contradict it
    with pytest.raises(ValueError):
        PairTestResult(n_pairs=3, statistic=0.0, p_value=1.5, alpha=0.05)
    with pytest.raises(ValueError):
        PairTestResult(n_pairs=3, statistic=0.0, p_value=-0.1, alpha=0.05)
    assert PairTestResult(n_pairs=3, statistic=0.0, p_value=0.04, alpha=0.05).significant
    assert not PairTestResult(n_pairs=3, statistic=0.0, p_value=0.05, alpha=0.05).significant


def test_wilcoxon_symmetric_differences_wash_out():
    res = wilcoxon_pratt(series_of([1, -1, 1, -1]))
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert not res.significant


def test_wilcoxon_eight_identical_losses():
    res = wilcoxon_pratt(series_of([-1] * 8))
    # exact two-sided mass of the all-negative assignment is 2/256
    exact = exact_two_sided_p([-1.0] * 8)
    assert exact == pytest.approx(2 / 256)
    assert abs(res.p_value - exact) < 0.05
    assert res.statistic < 0
    assert res.significant
    assert res.extras["rank_sum_worse_a"] == 0.0


def test_wilcoxon_all_ties_is_undefined():
    with pytest.raises(NoNonzeroDifferences):
        wilcoxon_pratt(PairedSeries(((4.0, 4.0), (7.0, 7.0))))
    with pytest.raises(NoNonzeroDifferences):
        wilcoxon_pratt(PairedSeries(()))


def test_wilcoxon_matches_scipy_normal_approximation():
    rng = random.Random(1)
    compared = 0
    while compared < 200:
        n = rng.randint(2, 15)
        diffs = [float(rng.randint(-5, 5)) for _ in range(n)]
        if all(d == 0 for d in diffs):
            continue
        mine = wilcoxon_pratt(series_of(diffs))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = scipy_stats.wilcoxon(
                diffs,
                zero_method="pratt",
                correction=True,
                alternative="two-sided",
                method="approx",
            )
        assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-11)
        smaller = min(mine.extras["rank_sum_worse_a"], mine.extras["rank_sum_worse_b"])
        assert smaller == pytest.approx(float(ref.statistic))
        compared += 1


def test_wilcoxon_normal_approximation_tracks_exact_distribution():
    # distinct nonzero magnitudes with four or more pairs: zeros and heavy
    # ties shrink the effective sample below what the approximation can carry
    rng = random.Random(2)
    for _ in range(150):
        n = rng.randint(4, 12)
        magnitudes = rng.sample(range(1, 16), n)
        diffs = [float(m if rng.random() < 0.5 else -m) for m in magnitudes]
        res = wilcoxon_pratt(series_of(diffs, base=20.0))
        assert abs(res.p_value - exact_two_sided_p(diffs)) <= 0.05


def test_wilcoxon_antisymmetric_under_swap_even_with_infinities():
    rng = random.Random(3)
    exercised = 0
    for _ in range(200):
        series = random_series(rng, rng.randint(2, 12), with_inf=True)
        if len(series) == 0 or all(d == 0 for d in series.differences()):
            continue
        res = wilcoxon_pratt(series)
        rev = wilcoxon_pratt(PairedSeries(tuple((b, a) for a, b in series.pairs)))
        assert rev.statistic == -res.statistic
        assert rev.p_value == res.p_value
        assert rev.significant == res.significant
        if any(math.isinf(d) for d in series.differences()):
            exercised += 1
    assert exercised >= 20


def test_proportion_unanimous_wins():
    res = proportion_test(PairedSeries(tuple((1.0, 2.0) for _ in range(73))))
    assert res.n_pairs == 73
    assert res.extras["proportion_a"] == 1.0
    assert res.significant


def test_proportion_forty_one_of_sixty_one():
    pairs = [(1.0, 2.0)] * 41 + [(2.0, 1.0)] * 20
    res = proportion_test(PairedSeries(tuple(pairs)))
    assert res.extras["proportion_a"] == pytest.approx(41 / 61, abs=5e-4)
    assert res.significant


def test_proportion_single_win_is_noise():
    res = proportion_test(PairedSeries(((1.0, 2.0),)))
    # the continuity correction exactly cancels a lone win
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert not res.significant


def test_proportion_all_ties_is_undefined():
    with pytest.raises(AllTies):
        proportion_test(PairedSeries(((2.0, 2.0), (3.0, 3.0))))


def test_proportion_infinite_value_loses():
    res = proportion_test(PairedSeries(tuple((3.0, INF) for _ in range(10))))
    assert res.extras["proportion_a"] == 1.0
    assert res.significant


def test_proportion_swap_mirrors_the_share():
    rng = random.Random(4)
    for _ in range(100):
        series = random_series(rng, rng.randint(1, 20), with_inf=True)
        if len(series) == 0 or all(d == 0 for d in series.differences()):
            continue
        res = proportion_test(series)
        rev = proportion_test(PairedSeries(tuple((b, a) for a, b in series.pairs)))
        assert rev.extras["proportion_a"] == pytest.approx(
            1.0 - res.extras["proportion_a"]
        )
        assert rev.statistic == res.statistic
        assert rev.p_value == res.p_value


def test_magnitude_normalizes_by_pair_mean():
    series = PairedSeries(((10.0, 30.0), (20.0, 20.0), (30.0, 10.0), (40.0, 10.0), (0.0, 0.0)))
    res = magnitude_test(series)
    # normalized pairs: (0.5,1.5) (1,1) (1.5,0.5) (1.6,0.4) (1,1); closed form
    # for the resulting t statistic is 6*sqrt(2/197)
    assert res.statistic == pytest.approx(6 * math.sqrt(2 / 197), abs=1e-9)
    assert res.extras["normalized_mean_a"] == pytest.approx(1.12)
    assert res.extras["normalized_mean_b"] == pytest.approx(0.88)


def test_magnitude_matches_paired_t_reference():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 12)
        pairs = [(float(rng.randint(1, 30)), float(rng.randint(1, 30))) for _ in range(n)]
        series = PairedSeries(tuple(pairs))
        norm = [
            ((a / ((a + b) / 2)), (b / ((a + b) / 2))) for a, b in series.pairs
        ]
        deltas = [x - y for x, y in norm]
        if max(deltas) == min(deltas):
            continue
        res = magnitude_test(series)
        ref = scipy_stats.ttest_rel([x for x, _ in norm], [y for _, y in norm])
        assert res.statistic == pytest.approx(float(ref.statistic), abs=1e-10)
        assert res.p_value == pytest.approx(float(ref.pvalue), abs=1e-10)


def test_magnitude_p_value_equals_scipy_t_survival():
    # magnitude_test takes the t tail from scipy.special, not scipy.stats: same numbers
    rng = random.Random(0x57D7)
    for _ in range(500):
        n = rng.randint(2, 40)
        series = PairedSeries(
            tuple((rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)) for _ in range(n))
        )
        res = magnitude_test(series)
        tail = float(scipy_stats.t.sf(abs(res.statistic), n - 1))
        assert res.p_value == min(2.0 * tail, 1.0)


def test_magnitude_contract_violations():
    # an infinite value breaks the contract; too few double hits leave it undefined
    with pytest.raises(ValueError) as violation:
        magnitude_test(PairedSeries(((1.0, INF), (2.0, 3.0))))
    assert not isinstance(violation.value, UndefinedTest)
    with pytest.raises(UndefinedTest):
        magnitude_test(PairedSeries(((1.0, 2.0),)))
    with pytest.raises(ZeroVariance):
        # every pair normalizes to the same (2/3, 4/3) split
        magnitude_test(PairedSeries(((1.0, 2.0), (2.0, 4.0), (5.0, 10.0))))
    with pytest.raises(ZeroVariance):
        magnitude_test(PairedSeries(((3.0, 3.0), (4.0, 4.0))))


def test_rank_tests_are_scale_free_and_magnitude_is_normalized():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(3, 12)
        pairs = [(float(rng.randint(0, 9)), float(rng.randint(0, 9))) for _ in range(n)]
        series = PairedSeries(tuple(pairs))
        scaled = PairedSeries(tuple((3 * a, 3 * b) for a, b in pairs))
        diffs = series.differences()
        if any(d != 0 for d in diffs):
            assert wilcoxon_pratt(scaled).statistic == wilcoxon_pratt(series).statistic
            assert proportion_test(scaled).statistic == proportion_test(series).statistic
        try:
            base = magnitude_test(series)
        except ValueError:
            continue
        assert magnitude_test(scaled).statistic == pytest.approx(
            base.statistic, abs=1e-9
        )


def test_reported_values_stay_in_contract():
    rng = random.Random(7)
    for alpha in (0.01, 0.05, 0.2):
        for _ in range(40):
            series = random_series(rng, rng.randint(1, 15), with_inf=True)
            if len(series) == 0:
                continue
            for fn in (wilcoxon_pratt, proportion_test, magnitude_test):
                try:
                    res = fn(series, alpha)
                except ValueError:
                    continue
                assert 0.0 <= res.p_value <= 1.0
                assert res.significant == (res.p_value < alpha)
                if fn is magnitude_test:
                    assert res.n_pairs == len(series.pairs)
                else:
                    assert res.n_pairs == len(series)


def feasible_run(method: str, instance: str, seed: int, makespan: int,
                 offline: float = 0.01, online: float = 0.001) -> MethodRun:
    return MethodRun(
        method=method,
        instance=instance,
        seed=seed,
        feasible=True,
        makespan=makespan,
        time_offline=offline,
        time_online=online,
        failure_reason=None,
        starts=(0,),
    )


def failed_run(method: str, instance: str, seed: int) -> MethodRun:
    return MethodRun(
        method=method,
        instance=instance,
        seed=seed,
        feasible=False,
        makespan=None,
        time_offline=0.01,
        time_online=0.0,
        failure_reason="solver_infeasible",
        starts=None,
    )


def test_ordering_identical_outcomes_has_no_edges():
    runs = []
    for k in range(20):
        runs.append(feasible_run("alpha", f"i{k}", k, 10))
        runs.append(feasible_run("beta", f"i{k}", k, 10))
    ordering = build_partial_ordering(runs, QUALITY)
    assert ordering.methods == ("alpha", "beta")
    assert ordering.edges == ()
    # constant zero differences leave the magnitude test undefined too
    assert ordering.pair_tests[("alpha", "beta")].magnitude is None


def test_ordering_feasibility_dominance_is_strong_everywhere():
    runs = []
    for k in range(30):
        runs.append(feasible_run("alpha", f"i{k}", k, 5))
        runs.append(failed_run("beta", f"i{k}", k))
    for metric in METRICS:
        ordering = build_partial_ordering(runs, metric)
        assert ordering.edges == (("alpha", "beta", STRONG),)
        assert ordering.pair_tests[("alpha", "beta")].magnitude is None


def test_ordering_weak_edge_when_ranks_disagree_with_counts():
    # A wins often by a little and loses rarely by a lot: the rank test sees
    # nothing, the win-share test does
    runs = []
    for k in range(61):
        if k < 41:
            a_span, b_span = 10, 11
        else:
            a_span, b_span = 100 + k, 10
        runs.append(feasible_run("alpha", f"i{k}", k, a_span))
        runs.append(feasible_run("beta", f"i{k}", k, b_span))
    ordering = build_partial_ordering(runs, QUALITY)
    assert ordering.edges == (("alpha", "beta", WEAK),)


def test_ordering_reproduces_a_total_quality_chain():
    tiers = ("stnu", "react", "saa", "pro")
    runs = []
    rng = random.Random(8)
    for k in range(40):
        jitter = rng.randint(0, 1)
        for rank, method in enumerate(tiers):
            runs.append(feasible_run(method, f"i{k:02d}", 1000 + k, 10 + 3 * rank + jitter))
    ordering = build_partial_ordering(runs, QUALITY)
    expected = set()
    for i, better in enumerate(tiers):
        for worse in tiers[i + 1 :]:
            expected.add((better, worse, STRONG))
    assert set(ordering.edges) == expected
    # magnitude tests exist for every pair and never order anything
    assert len(ordering.pair_tests) == 6
    for tests in ordering.pair_tests.values():
        assert tests.magnitude.n_pairs == 40


def test_ordering_raises_contract_violations_of_a_test(monkeypatch):
    # only an undefined test becomes n/a; any other ValueError is a fault
    def broken(series, alpha):
        raise ValueError("contract violated")

    monkeypatch.setattr(stats, "magnitude_test", broken)
    runs = [
        feasible_run(method, f"i{k}", k, 10 + k % 3 + (method == "beta"))
        for k in range(20)
        for method in ("alpha", "beta")
    ]
    with pytest.raises(ValueError, match="contract violated"):
        build_partial_ordering(runs, QUALITY)


def test_ordering_time_metrics_use_run_walls():
    runs = []
    for k in range(25):
        runs.append(feasible_run("alpha", f"i{k}", k, 10, offline=0.5, online=0.2))
        runs.append(feasible_run("beta", f"i{k}", k, 10, offline=1.0, online=0.1))
    offline = build_partial_ordering(runs, TIME_OFFLINE)
    online = build_partial_ordering(runs, TIME_ONLINE)
    assert offline.edges == (("alpha", "beta", STRONG),)
    assert online.edges == (("beta", "alpha", STRONG),)


def test_ordering_rejects_unknown_metric_and_bad_edges():
    with pytest.raises(ValueError):
        build_partial_ordering([], "latency")
    with pytest.raises(ValueError):
        PartialOrdering(methods=("a",), metric=QUALITY, edges=(("a", "a", STRONG),))
    with pytest.raises(ValueError):
        PartialOrdering(methods=("a", "b"), metric=QUALITY, edges=(("a", "b", "solid"),))
    with pytest.raises(ValueError):
        PartialOrdering(methods=("a",), metric=QUALITY, edges=(("a", "c", STRONG),))
    dag = (("a", "b", STRONG), ("a", "c", WEAK), ("b", "c", STRONG))
    PartialOrdering(methods=("a", "b", "c"), metric=QUALITY, edges=dag)
    cycle = (("a", "b", STRONG), ("b", "c", STRONG), ("c", "a", WEAK))
    with pytest.raises(ValueError, match="method ordering on quality contains a cycle"):
        PartialOrdering(methods=("a", "b", "c"), metric=QUALITY, edges=cycle)


def test_magnitude_test_leaves_scipy_stats_unloaded():
    # srcpsp stats pays for the modules a magnitude test imports on every call
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys; from srcpsp.stats import PairedSeries, magnitude_test; "
        "magnitude_test(PairedSeries(((1.0, 2.0), (3.0, 3.5), (2.0, 1.0)))); "
        "assert 'scipy.special' in sys.modules; "
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded'"
    )
    subprocess.run(
        [sys.executable, "-c", probe], check=True, env=dict(os.environ, PYTHONPATH=str(src))
    )


def test_bench_import_leaves_scipy_unloaded():
    # scipy.stats costs most of a fresh process's start; only magnitude_test needs it
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, srcpsp.bench; assert 'scipy' not in sys.modules, 'scipy loaded'"
    subprocess.run(
        [sys.executable, "-c", probe], check=True, env=dict(os.environ, PYTHONPATH=str(src))
    )
