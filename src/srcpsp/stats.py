"""Matched-pairs comparison of method results and partial-ordering construction.

All three metrics are smaller-is-better, and an infeasible run counts as
infinitely bad on every metric.  Pairs are matched on (instance, seed) so
every comparison sees the same realized durations on both sides.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

from scipy import stats as _scipy_stats

from .methods import MethodRun

logger = logging.getLogger(__name__)

INF = float("inf")

QUALITY = "quality"
TIME_OFFLINE = "time_offline"
TIME_ONLINE = "time_online"
METRICS = (QUALITY, TIME_OFFLINE, TIME_ONLINE)

STRONG = "strong"
WEAK = "weak"


class NoNonzeroDifferences(ValueError):
    """Every matched pair is tied, so the signed-rank test is undefined."""


class AllTies(ValueError):
    """No pair has a winner, so the win-share test is undefined."""


class ZeroVariance(ValueError):
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
        out = []
        for a, b in self.pairs:
            if a == INF:
                out.append(INF)
            elif b == INF:
                out.append(-INF)
            else:
                out.append(a - b)
        return tuple(out)


@dataclass(frozen=True)
class TestResult:
    """Outcome of one paired test; ``significant`` always means p_value < alpha."""

    n_pairs: int
    statistic: float
    p_value: float
    significant: bool
    alpha: float
    extras: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p value {self.p_value} outside [0, 1]")
        if self.significant != (self.p_value < self.alpha):
            raise ValueError("significance flag contradicts the p value")


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
        for better, worse, strength in self.edges:
            if better == worse:
                raise ValueError("self-edges are not allowed")
            if strength not in (STRONG, WEAK):
                raise ValueError(f"unknown edge strength {strength!r}")
            if better not in self.methods or worse not in self.methods:
                raise ValueError("edge endpoint not in methods")
        order: TopologicalSorter[str] = TopologicalSorter()
        for better, worse, _ in self.edges:
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
    ranks = _scipy_stats.rankdata([abs(d) for d in diffs])
    zeros = sum(1 for d in diffs if d == 0)
    worse_a = float(sum(r for r, d in zip(ranks, diffs) if d > 0))
    worse_b = float(sum(r for r, d in zip(ranks, diffs) if d < 0))
    mean = (n * (n + 1) - zeros * (zeros + 1)) / 4.0
    var = (n * (n + 1) * (2 * n + 1) - zeros * (zeros + 1) * (2 * zeros + 1)) / 24.0
    groups: dict[float, int] = {}
    for r, d in zip(ranks, diffs):
        if d != 0:
            groups[r] = groups.get(r, 0) + 1
    var -= sum(t**3 - t for t in groups.values()) / 48.0
    shift = worse_a - mean
    z = 0.0 if shift == 0 else (shift - math.copysign(0.5, shift)) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2))
    return TestResult(
        n_pairs=n,
        statistic=z,
        p_value=p,
        significant=p < alpha,
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
        significant=p < alpha,
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
        raise ValueError("need at least two double hits")
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
    p = 2.0 * float(_scipy_stats.t.sf(abs(t), n - 1))
    return TestResult(
        n_pairs=n,
        statistic=t,
        p_value=min(p, 1.0),
        significant=min(p, 1.0) < alpha,
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


def method_pair_series(
    runs: Iterable[MethodRun], method_a: str, method_b: str, metric: str
) -> PairedSeries:
    """Series for one method pair on one metric, matched on (instance, seed)."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    by_a: dict[tuple[str, int | None], MethodRun] = {}
    by_b: dict[tuple[str, int | None], MethodRun] = {}
    for run in runs:
        if run.method == method_a:
            by_a[(run.instance, run.seed)] = run
        elif run.method == method_b:
            by_b[(run.instance, run.seed)] = run
    return PairedSeries(
        tuple(
            (_metric_value(by_a[key], metric), _metric_value(by_b[key], metric))
            for key in by_a
            if key in by_b
        )
    )


def build_partial_ordering(
    runs: Iterable[MethodRun], metric: str, alpha: float = 0.05
) -> PartialOrdering:
    """Compare every method pair on one metric over their shared sample keys.

    A significant signed-rank test yields a strong edge from its winner;
    otherwise a significant win-share test yields a weak edge.  The
    magnitude test runs on the double hits of each pair.  The tests of
    every pair, n=0 pairs included, are kept for the report.  Undefined
    tests (all ties, constant differences, too few double hits) leave the
    pair unordered with a logged note.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    runs = tuple(runs)
    methods = tuple(sorted({run.method for run in runs}))
    edges: list[tuple[str, str, str]] = []
    pair_tests: dict[tuple[str, str], PairTests] = {}
    for i, name_a in enumerate(methods):
        for name_b in methods[i + 1 :]:
            series = method_pair_series(runs, name_a, name_b, metric)
            try:
                ranked = wilcoxon_pratt(series, alpha)
            except NoNonzeroDifferences:
                ranked = None
            try:
                share = proportion_test(series, alpha)
            except AllTies:
                share = None
            magnitude = None
            if len(series) == 0:
                logger.info(
                    "%s vs %s on %s: no comparable pairs", name_a, name_b, metric
                )
            else:
                edge = None
                if ranked is not None and ranked.significant:
                    if ranked.statistic < 0:
                        edge = (name_a, name_b, STRONG)
                    else:
                        edge = (name_b, name_a, STRONG)
                elif share is not None and share.significant:
                    if share.extras["proportion_a"] > 0.5:
                        edge = (name_a, name_b, WEAK)
                    else:
                        edge = (name_b, name_a, WEAK)
                if edge is not None:
                    edges.append(edge)
                else:
                    logger.info(
                        "%s vs %s on %s: no significant difference",
                        name_a,
                        name_b,
                        metric,
                    )
                hits = PairedSeries(
                    tuple(p for p in series.pairs if p[0] != INF and p[1] != INF)
                )
                try:
                    magnitude = magnitude_test(hits, alpha)
                except ValueError as exc:
                    logger.info(
                        "%s vs %s on %s: magnitude test undefined (%s)",
                        name_a,
                        name_b,
                        metric,
                        exc,
                    )
            pair_tests[(name_a, name_b)] = PairTests(len(series), ranked, share, magnitude)
    return PartialOrdering(
        methods=methods,
        metric=metric,
        edges=tuple(edges),
        pair_tests=pair_tests,
        alpha=alpha,
    )
