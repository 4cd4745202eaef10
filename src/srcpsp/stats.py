"""Matched-pairs comparison of method results and partial-ordering construction.

All three metrics are smaller-is-better, and an infeasible run counts as
infinitely bad on every metric.  Pairs are matched on (instance, seed) so
every comparison sees the same realized durations on both sides.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from itertools import groupby

from .methods import MethodRun

logger = logging.getLogger(__name__)

INF = float("inf")

QUALITY = "quality"
TIME_OFFLINE = "time_offline"
TIME_ONLINE = "time_online"
METRICS = (QUALITY, TIME_OFFLINE, TIME_ONLINE)

STRONG = "strong"
WEAK = "weak"


class UndefinedTest(ValueError):
    """The test has no value on this series, so it cannot order the pair."""


class NoNonzeroDifferences(UndefinedTest):
    """Every matched pair is tied, so the signed-rank test is undefined."""


class AllTies(UndefinedTest):
    """No pair has a winner, so the win-share test is undefined."""


class ZeroVariance(UndefinedTest):
    """Normalized differences are constant, so the t statistic is undefined."""


@dataclass(frozen=True)
class PairedSeries:
    """Matched metric values (method A, method B) over shared sample keys.

    Pairs with both sides infinite are dropped at construction: a comparison
    is only meaningful where at least one method produced a real outcome.
    Finite values must be nonnegative.
    """

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        kept = []
        for a, b in self.pairs:
            if math.isnan(a) or math.isnan(b):
                raise ValueError("metric values must not be NaN")
            if a == INF and b == INF:
                continue
            if a < 0 or b < 0:
                raise ValueError("metric values must be >= 0")
            kept.append((float(a), float(b)))
        object.__setattr__(self, "pairs", tuple(kept))

    def __len__(self) -> int:
        return len(self.pairs)

    def differences(self) -> tuple[float, ...]:
        """Per-pair a - b; an infinite side makes the difference +/- infinity."""
        return tuple(a - b for a, b in self.pairs)


@dataclass(frozen=True)
class TestResult:
    """Outcome of one paired test at significance level ``alpha``."""

    n_pairs: int
    statistic: float
    p_value: float
    alpha: float
    extras: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p value {self.p_value} outside [0, 1]")

    @property
    def significant(self) -> bool:
        return self.p_value < self.alpha


@dataclass(frozen=True)
class PairTests:
    """Tests of one method pair; None where a test is undefined.

    The signed-rank and win-share tests order methods; the magnitude test,
    run on the double hits, never does.
    """

    n_pairs: int
    signed_rank: TestResult | None
    win_share: TestResult | None
    magnitude: TestResult | None


@dataclass(frozen=True)
class PartialOrdering:
    """Directed comparison graph for one metric at significance level ``alpha``.

    Edges run from the better to the worse method; ``strong`` edges come from
    the signed-rank test, ``weak`` ones from the win-share test alone, and
    they never form a cycle.  ``pair_tests`` holds the tests of every
    alphabetically ordered method pair.
    """

    methods: tuple[str, ...]
    metric: str
    edges: tuple[tuple[str, str, str], ...]
    pair_tests: dict[tuple[str, str], PairTests] = field(default_factory=dict)
    alpha: float = 0.05

    def __post_init__(self) -> None:
        order: TopologicalSorter[str] = TopologicalSorter()
        for better, worse, strength in self.edges:
            if better == worse:
                raise ValueError("self-edges are not allowed")
            if strength not in (STRONG, WEAK):
                raise ValueError(f"unknown edge strength {strength!r}")
            if better not in self.methods or worse not in self.methods:
                raise ValueError("edge endpoint not in methods")
            order.add(worse, better)
        try:
            order.prepare()
        except CycleError:
            raise ValueError(f"method ordering on {self.metric} contains a cycle") from None


def wilcoxon_pratt(series: PairedSeries, alpha: float = 0.05) -> TestResult:
    """Signed-rank z-test with zeros ranked and then dropped.

    Differences a - b are ranked by absolute value, zeros included; zero
    ranks are removed from both rank sums afterwards and the normal moments
    carry the matching adjustment, plus the usual tie correction and a 0.5
    continuity correction toward the mean.  All infinite differences form
    one extreme tie block with averaged ranks, regardless of sign: that
    keeps the statistic exactly antisymmetric under swapping the series.
    A negative statistic favors method A (its "worse" rank sum is smaller).
    """
    diffs = series.differences()
    n = len(diffs)
    if n == 0 or all(d == 0 for d in diffs):
        raise NoNonzeroDifferences("every pair is tied")
    magnitudes = [abs(d) for d in diffs]
    order = sorted(range(n), key=magnitudes.__getitem__)
    ranks = [0.0] * n
    i = 0
    for _, tied in groupby(order, key=magnitudes.__getitem__):
        block = list(tied)
        j = i + len(block) - 1
        for k in block:
            ranks[k] = (i + j + 2) / 2  # tie block i..j (0-based) shares its mean rank
        i = j + 1
    zeros = sum(1 for d in diffs if d == 0)
    worse_a = float(sum(r for r, d in zip(ranks, diffs) if d > 0))
    worse_b = float(sum(r for r, d in zip(ranks, diffs) if d < 0))
    mean = (n * (n + 1) - zeros * (zeros + 1)) / 4.0
    var = (n * (n + 1) * (2 * n + 1) - zeros * (zeros + 1) * (2 * zeros + 1)) / 24.0
    groups = Counter(r for r, d in zip(ranks, diffs) if d != 0)
    var -= sum(t**3 - t for t in groups.values()) / 48.0
    shift = worse_a - mean
    z = 0.0 if shift == 0 else (shift - math.copysign(0.5, shift)) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2))
    return TestResult(
        n_pairs=n,
        statistic=z,
        p_value=p,
        alpha=alpha,
        extras={"rank_sum_worse_a": worse_a, "rank_sum_worse_b": worse_b},
    )


def proportion_test(series: PairedSeries, alpha: float = 0.05) -> TestResult:
    """z-test on the share of decided pairs won by method A, ties excluded.

    An infinite value loses to any finite one.  The statistic carries a
    1/(2n) discontinuity correction, clamped so the correction can never
    push the deviation past the null; it is nonnegative by construction,
    with the direction recorded in extras["proportion_a"].
    """
    decided = [d for d in series.differences() if d != 0]
    if not decided:
        raise AllTies("no pair has a winner")
    n = len(decided)
    wins_a = sum(1 for d in decided if d < 0)
    share = wins_a / n
    # (|share - 1/2| - 1/(2n)) / sqrt(1/(4n)) in integer form, so swapping
    # the sides mirrors the statistic exactly
    z = max(0, abs(2 * wins_a - n) - 1) / math.sqrt(n)
    p = math.erfc(z / math.sqrt(2))
    return TestResult(
        n_pairs=len(series),
        statistic=z,
        p_value=p,
        alpha=alpha,
        extras={"proportion_a": share, "decided_pairs": float(n)},
    )


def magnitude_test(series: PairedSeries, alpha: float = 0.05) -> TestResult:
    """Paired t-test on pair-mean-normalized values; double hits only.

    Each pair is divided by its own mean, landing both observations in
    [0, 2]; a (0, 0) pair has no scale of its own and normalizes to (1, 1).
    A negative statistic favors method A.
    """
    if any(a == INF or b == INF for a, b in series.pairs):
        raise ValueError("magnitude comparisons need both values finite")
    n = len(series.pairs)
    if n < 2:
        raise UndefinedTest("need at least two double hits")
    norm_a: list[float] = []
    norm_b: list[float] = []
    for a, b in series.pairs:
        center = (a + b) / 2.0
        if center == 0:
            norm_a.append(1.0)
            norm_b.append(1.0)
        else:
            norm_a.append(a / center)
            norm_b.append(b / center)
    deltas = [x - y for x, y in zip(norm_a, norm_b)]
    mean_d = math.fsum(deltas) / n
    scatter = math.fsum((d - mean_d) ** 2 for d in deltas)
    if scatter == 0:
        raise ZeroVariance("normalized differences are constant")
    spread = math.sqrt(scatter / (n - 1))
    t = mean_d / (spread / math.sqrt(n))
    from scipy.special import stdtr  # t.sf's own call, without scipy.stats's slow import
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return TestResult(
        n_pairs=n,
        statistic=t,
        p_value=min(p, 1.0),
        alpha=alpha,
        extras={
            "normalized_mean_a": math.fsum(norm_a) / n,
            "normalized_mean_b": math.fsum(norm_b) / n,
        },
    )


def _metric_value(run: MethodRun, metric: str) -> float:
    if not run.feasible:
        return INF
    if metric == QUALITY:
        return float(run.makespan)  # type: ignore[arg-type]
    if metric == TIME_OFFLINE:
        return run.time_offline
    return run.time_online


_Index = dict[str, dict[tuple[str, int | None], float]]


def _index(runs: Iterable[MethodRun], metric: str) -> _Index:
    """Each method's value on ``metric`` per (instance, seed); later runs of a key win."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    index: _Index = {}
    for run in runs:
        index.setdefault(run.method, {})[(run.instance, run.seed)] = _metric_value(run, metric)
    return index


def _paired(index: _Index, method_a: str, method_b: str) -> PairedSeries:
    by_a, by_b = index.get(method_a, {}), index.get(method_b, {})
    return PairedSeries(tuple((value, by_b[key]) for key, value in by_a.items() if key in by_b))


def method_pair_series(
    runs: Iterable[MethodRun], method_a: str, method_b: str, metric: str
) -> PairedSeries:
    """Series for one method pair on one metric, matched on (instance, seed)."""
    return _paired(_index(runs, metric), method_a, method_b)


def _defined(
    test: Callable[..., TestResult], series: PairedSeries, alpha: float, pair: str
) -> TestResult | None:
    """``test`` on ``series``, or None with a logged note where it is undefined."""
    try:
        return test(series, alpha)
    except UndefinedTest as exc:
        logger.info("%s: %s undefined (%s)", pair, test.__name__, exc)
        return None


def build_partial_ordering(
    runs: Iterable[MethodRun], metric: str, alpha: float = 0.05
) -> PartialOrdering:
    """Compare every method pair on one metric over their shared sample keys.

    A significant signed-rank test yields a strong edge from its winner;
    otherwise a significant win-share test yields a weak edge.  The
    magnitude test runs on the double hits of each pair.  The tests of
    every pair, n=0 pairs included, are kept for the report; a test that
    is undefined on its series (all ties, constant differences, too few
    double hits) is kept as None and leaves the pair unordered on it.
    """
    index = _index(runs, metric)
    methods = tuple(sorted(index))
    edges: list[tuple[str, str, str]] = []
    pair_tests: dict[tuple[str, str], PairTests] = {}
    for i, name_a in enumerate(methods):
        for name_b in methods[i + 1 :]:
            series = _paired(index, name_a, name_b)
            pair = f"{name_a} vs {name_b} on {metric}"
            ranked = _defined(wilcoxon_pratt, series, alpha, pair)
            share = _defined(proportion_test, series, alpha, pair)
            hits = PairedSeries(tuple(p for p in series.pairs if INF not in p))
            magnitude = _defined(magnitude_test, hits, alpha, pair)
            if ranked is not None and ranked.significant:
                a_wins, strength = ranked.statistic < 0, STRONG
            elif share is not None and share.significant:
                a_wins, strength = share.extras["proportion_a"] > 0.5, WEAK
            else:
                strength = ""
            if strength:
                edges.append((name_a, name_b, strength) if a_wins else (name_b, name_a, strength))
            pair_tests[(name_a, name_b)] = PairTests(len(series), ranked, share, magnitude)
    return PartialOrdering(methods, metric, tuple(edges), pair_tests, alpha)
