"""Scheduling strategies under duration uncertainty.

Each method runs an offline phase (plan construction) and a simulated online
phase against one realized duration sample, and reports a MethodRun record
with feasibility, makespan and the offline/online computation walls.  The
online clock is logical: simulated event times are integers, while the
reported time_online measures only the online computation.

``METHODS`` holds each method's runner, default config and the settings it
reads.  Each runner is a plan step and an execute step.  A plan step is a
plain function, never of the sample, that ``_planned`` keys by its call (the
step and its arguments), so inside ``reusing_plans`` it is made once and
reused for every sample; bench and simulate plan once per (instance,
epsilon) that way.  A quantile plan's estimate is keyed by (instance,
gamma) and its solve by ``solve``'s own arguments, so ``proactive_q``,
``reactive`` and ``stnu`` (gamma 1.0) share one solve whenever their
estimates coincide, as on every j10 instance at epsilon 1.  A row's
time_offline adds the measured cost of every step it uses (for ``stnu``,
the estimate, the solve and the DC closure).  A plan stopped by a
wall-clock limit is shared the same way, so under a binding
time_limit_offline all samples of a group get the one stopped plan.  Outside
``reusing_plans`` every call plans afresh.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, NamedTuple

from .chaining import chain
from .instances import DurationSample, StochasticInstance, quantile_durations
from .solver import (
    SaaOutcome,
    Schedule,
    SolveOutcome,
    SolveStatus,
    check_schedule,
    solve,
    solve_saa,
)
from .stnu import Controllable, Estnu, Stnu, build_stnu, dc_check, rte_execute

logger = logging.getLogger(__name__)

PROACTIVE_Q = "proactive_q"
PROACTIVE_SAA = "proactive_saa"
REACTIVE = "reactive"
STNU = "stnu"

FAIL_SOLVER_INFEASIBLE = "solver_infeasible"
FAIL_SOLVER_TIMEOUT = "solver_timeout"
FAIL_NOT_DC = "not_dc"
FAIL_EXECUTION = "execution_violation"


@dataclass(frozen=True)
class MethodConfig:
    """Tuning knobs; ``METHODS`` holds each method's defaults (``stnu``'s
    gamma is 1.0) and the fields it reads."""

    gamma: float | Fraction = 0.9
    saa_gammas: tuple[float | Fraction, ...] = (0.25, 0.5, 0.75, 0.9)
    time_limit_offline: float = 60.0
    time_limit_reschedule: float = 2.0

    def __post_init__(self) -> None:
        if not self.saa_gammas:
            raise ValueError("saa_gammas must be nonempty")
        for g in (self.gamma, *self.saa_gammas):
            if not 0 <= g <= 1:
                raise ValueError(f"quantile level {g} outside [0, 1]")
        if not (self.time_limit_offline > 0 and self.time_limit_reschedule > 0):
            raise ValueError("time limits must be positive")


@dataclass(frozen=True)
class MethodRun:
    """One method's run on one sample; bench stamps the cell key it ran under."""

    method: str
    instance: str
    seed: int | None
    feasible: bool
    makespan: int | None
    time_offline: float
    time_online: float
    failure_reason: str | None
    starts: tuple[int, ...] | None
    instance_set: str = ""
    epsilon: float | None = None
    sample: int | None = None

    def __post_init__(self) -> None:
        if self.feasible == (self.failure_reason is not None):
            raise ValueError("a run is feasible exactly when it has no failure reason")
        if self.feasible and self.makespan is None:
            raise ValueError("feasible run must report a makespan")
        if not self.feasible and self.makespan is not None:
            raise ValueError("infeasible run must not report a makespan")
        if self.makespan is not None and self.makespan < 0:
            raise ValueError("makespan must be nonnegative")
        if self.time_offline < 0 or self.time_online < 0:
            raise ValueError("time components must be nonnegative")


def _record(
    method: str,
    sample: DurationSample,
    offline: float,
    online: float = 0.0,
    failure: str | None = None,
    starts: tuple[int, ...] | None = None,
    makespan: int | None = None,
) -> MethodRun:
    """A method's run record: feasible exactly when no failure tag is given."""
    return MethodRun(
        method=method,
        instance="",
        seed=sample.seed,
        feasible=failure is None,
        makespan=None if failure else makespan,
        time_offline=offline,
        time_online=online,
        failure_reason=failure,
        starts=starts,
    )


def _offline_tag(status: SolveStatus) -> str | None:
    if status is SolveStatus.INFEASIBLE:
        return FAIL_SOLVER_INFEASIBLE
    if status is SolveStatus.UNKNOWN:
        return FAIL_SOLVER_TIMEOUT
    return None


# The plans of the bench group being run: (step, *args) -> (plan, seconds).  Unset
# outside ``reusing_plans``, where every plan step plans afresh.
_PLANS: ContextVar[dict[tuple, tuple[Any, float]]] = ContextVar("plans")


@contextmanager
def reusing_plans(plans: dict[tuple, tuple[Any, float]]) -> Iterator[None]:
    """Inside the block, each plan step plans once per call and reuses ``plans``.

    A plan step's arguments are the instance and the settings it reads, never
    the sample, so bench and simulate hand in one dict per (instance,
    epsilon) group and drop it with the group: no plan outlives its group.
    """
    token = _PLANS.set(plans)
    try:
        yield
    finally:
        _PLANS.reset(token)


def _planned(step: Callable[..., Any], *args: Any) -> tuple[Any, float]:
    """``step(*args)`` and the seconds it took, or the group's earlier result for that call."""
    plans = _PLANS.get({})  # outside reusing_plans, a memo of this call alone
    key = (step, *args)
    if key not in plans:
        t0 = time.perf_counter()
        plan = step(*args)
        plans[key] = plan, time.perf_counter() - t0
    return plans[key]


def _quantile_plan(
    stoch: StochasticInstance, gamma: float | Fraction, time_limit: float
) -> tuple[DurationSample, SolveOutcome, float]:
    """The gamma-quantile estimate, the plan solved against it and both steps'
    seconds; every gamma whose estimate coincides shares the solve."""
    estimate, estimate_s = _planned(quantile_durations, stoch, gamma)
    out, solve_s = _planned(solve, stoch.base, estimate.durations, time_limit)
    return estimate, out, estimate_s + solve_s


def _saa_plan(
    stoch: StochasticInstance, gammas: tuple[float | Fraction, ...], time_limit: float
) -> SaaOutcome:
    """The SAA solve over the ``gammas`` quantile scenarios, the dominating one first.

    Quantile durations grow with gamma, so sorting the scenarios by duration
    sum, largest first, puts one that dominates every other pointwise at the
    front, whatever the order of ``gammas``.  A conflict in any scenario is
    then one in the first, so every conflicting node branches on it, with
    the strongest orderings.  That stays complete: intervals that overlap
    pairwise share a point, so a start vector feasible for the first
    scenario separates some pair of each of its conflict sets.  The mean
    makespan does not depend on the order.
    """
    scenarios = sorted(
        (quantile_durations(stoch, g).durations for g in gammas), key=sum, reverse=True
    )
    return solve_saa(stoch.base, scenarios, time_limit=time_limit)


def _stnu_closure(
    stoch: StochasticInstance, estimate: DurationSample, out: SolveOutcome
) -> Estnu | str:
    """The chained quantile plan's DC closure, or the failure tag of why there is none."""
    tag = _offline_tag(out.status)
    if tag is not None:
        return tag
    pos = chain(stoch.base, estimate.durations, out.schedule)
    verdict = dc_check(build_stnu(pos, stoch))
    return verdict.estnu if isinstance(verdict, Controllable) else FAIL_NOT_DC


def _execute_fixed(
    method: str,
    stoch: StochasticInstance,
    sample: DurationSample,
    offline: float,
    status: SolveStatus,
    starts: tuple[int, ...] | None,
) -> MethodRun:
    """Online phase of the fixed-start methods: a feasibility sweep, no recourse."""
    tag = _offline_tag(status)
    if tag is not None:
        return _record(method, sample, offline, failure=tag)
    assert starts is not None
    t0 = time.perf_counter()
    schedule = Schedule.from_starts(starts, sample.durations)
    report = check_schedule(stoch.base, sample.durations, schedule)
    online = time.perf_counter() - t0
    failure = None if report.feasible else FAIL_EXECUTION
    return _record(method, sample, offline, online, failure, starts, schedule.makespan)


def run_proactive_quantile(
    stoch: StochasticInstance, cfg: MethodConfig, sample: DurationSample
) -> MethodRun:
    """Solve once against the gamma-quantile durations, then never adapt."""
    _, out, offline = _quantile_plan(stoch, cfg.gamma, cfg.time_limit_offline)
    starts = None if out.schedule is None else out.schedule.starts
    return _execute_fixed(PROACTIVE_Q, stoch, sample, offline, out.status, starts)


def run_proactive_saa(
    stoch: StochasticInstance, cfg: MethodConfig, sample: DurationSample
) -> MethodRun:
    """One start vector feasible for every quantile scenario, minimizing the mean makespan."""
    out, offline = _planned(_saa_plan, stoch, cfg.saa_gammas, cfg.time_limit_offline)
    return _execute_fixed(PROACTIVE_SAA, stoch, sample, offline, out.status, out.starts)


def run_reactive(
    stoch: StochasticInstance, cfg: MethodConfig, sample: DurationSample
) -> MethodRun:
    """Start from a quantile-estimate plan and re-solve whenever an estimate proves wrong.

    An unfinished activity is observed when its finish or its current estimate
    falls due, whichever comes first: it then finishes, or is seen running past
    its estimate, which grows by one.  A wrong estimate re-solves the problem
    with started activities pinned, the current durations, and every unstarted
    activity held at the current instant or later by a release floor
    ``(0, j, now)`` passed to ``solve``, warm-started from the plan.
    """
    inst = stoch.base
    realized = sample.durations
    n = inst.n_activities
    estimate, out, offline = _quantile_plan(stoch, cfg.gamma, cfg.time_limit_offline)
    tag = _offline_tag(out.status)
    if tag is not None:
        return _record(REACTIVE, sample, offline, failure=tag)
    assert out.schedule is not None
    # the plan may be shared with other samples, so re-solves edit copies
    plan = list(out.schedule.starts)
    current = list(estimate.durations)
    done: set[int] = set()
    online = 0.0
    while len(done) < n:
        due = {j: plan[j] + min(realized[j], current[j]) for j in range(n) if j not in done}
        next_t = min(due.values())
        batch = [j for j, t in due.items() if t == next_t]
        deviated = any(realized[j] != current[j] for j in batch)
        for j in batch:
            if realized[j] <= current[j]:
                done.add(j)
                current[j] = realized[j]
            else:  # still running past its estimate
                current[j] += 1
        if not deviated:
            continue
        fixed = {j: plan[j] for j in range(n) if plan[j] < next_t}
        floors = [(0, j, next_t) for j in range(n) if j not in fixed]
        t1 = time.perf_counter()
        res = solve(
            inst,
            tuple(current),
            time_limit=cfg.time_limit_reschedule,
            fixed=fixed,
            floors=floors,
            warm_start=Schedule.from_starts(tuple(plan), tuple(current)),
        )
        online += time.perf_counter() - t1
        if res.schedule is None:
            infeasible = res.status is SolveStatus.INFEASIBLE
            lost = FAIL_EXECUTION if infeasible else FAIL_SOLVER_TIMEOUT
            return _record(REACTIVE, sample, offline, online, lost)
        plan = list(res.schedule.starts)
    trace = Schedule.from_starts(plan, realized)
    report = check_schedule(inst, realized, trace)
    if not report.feasible:
        raise AssertionError("reactive simulation produced an infeasible trace")
    return _record(REACTIVE, sample, offline, online, None, trace.starts, trace.makespan)


def run_stnu(
    stoch: StochasticInstance, cfg: MethodConfig, sample: DurationSample
) -> MethodRun:
    """Chain a quantile-estimate schedule, check controllability, execute online."""
    estimate, out, quantile_s = _quantile_plan(stoch, cfg.gamma, cfg.time_limit_offline)
    estnu, closure_s = _planned(_stnu_closure, stoch, estimate, out)
    offline = quantile_s + closure_s
    if not isinstance(estnu, Estnu):
        return _record(STNU, sample, offline, failure=estnu)
    t1 = time.perf_counter()
    trace = rte_execute(estnu, sample)
    online = time.perf_counter() - t1
    starts = tuple(trace.times[Stnu.start(j)] for j in range(stoch.base.n_activities))
    return _record(STNU, sample, offline, online, None, starts, trace.makespan)


class Method(NamedTuple):
    """A scheduling method: its runner, its default config and the settings it reads."""

    run: Callable[[StochasticInstance, MethodConfig, DurationSample], MethodRun]
    defaults: MethodConfig
    reads: tuple[str, ...]  # MethodConfig fields; setting any other has no effect


# every method, in bench's default order; bench and simulate reject a setting it does not read
METHODS = {
    PROACTIVE_Q: Method(run_proactive_quantile, MethodConfig(), ("gamma", "time_limit_offline")),
    PROACTIVE_SAA: Method(
        run_proactive_saa,
        MethodConfig(time_limit_offline=300.0),
        ("saa_gammas", "time_limit_offline"),
    ),
    REACTIVE: Method(
        run_reactive, MethodConfig(), ("gamma", "time_limit_offline", "time_limit_reschedule")
    ),
    STNU: Method(run_stnu, MethodConfig(gamma=1.0), ("gamma", "time_limit_offline")),
}


def perfect_information_feasible(
    stoch: StochasticInstance, sample: DurationSample, time_limit: float
) -> bool:
    """Whether a clairvoyant scheduler could satisfy this realization at all."""
    out = solve(stoch.base, sample.durations, time_limit=time_limit)
    if out.status is SolveStatus.UNKNOWN:
        logger.warning(
            "perfect-information solve undecided within %.1fs; keeping the sample",
            time_limit,
        )
        return True
    return out.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)
