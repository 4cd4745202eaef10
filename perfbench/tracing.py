"""In-memory spans around the srcpsp functions that cross module boundaries.

The tracer wraps functions from outside the package: it swaps the names
that ``srcpsp.methods``, ``srcpsp.bench`` and ``srcpsp.chaining`` look up at
call time for timing wrappers and puts the originals back afterwards.  A
span records its name, start, end, parent span and request id (a bench
cell, a solver instance or a network); spans stay in memory until the run
ends.  Everything runs in one thread, so a child span always lies inside
its parent and self time is the parent's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import srcpsp.bench
import srcpsp.chaining
import srcpsp.methods
from srcpsp.solver import SolveStatus
from srcpsp.stnu import Controllable

METHODS = ("proactive_q", "proactive_saa", "reactive", "stnu")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    stage: str
    pass_index: int
    info: dict[str, Any] | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _solve_info(out, *args, **kwargs) -> dict[str, Any]:
    return {
        "nodes": out.nodes_explored,
        "optimal": out.status is SolveStatus.OPTIMAL,
        # reactive passes a warm start only when it re-solves
        "resolve": kwargs.get("warm_start") is not None,
    }


def _saa_info(out, *args, **kwargs) -> dict[str, Any]:
    return {"nodes": out.nodes_explored, "optimal": out.status is SolveStatus.OPTIMAL}


def _dc_info(verdict, *args, **kwargs) -> dict[str, Any]:
    if not isinstance(verdict, Controllable):
        return {"dc": False, "closure_edges": 0, "wait_edges": 0}
    return {
        "dc": True,
        "closure_edges": len(verdict.estnu.base.ordinary_edges),
        "wait_edges": len(verdict.estnu.wait_edges),
    }


DESCRIBE: dict[str, Callable[..., dict[str, Any]]] = {
    "solver.solve": _solve_info,
    "solver.solve_saa": _saa_info,
    "chaining.chain": lambda pos, *a, **k: {"edges": len(pos.chain_edges)},
    "stnu.dc_check": _dc_info,
    "stnu.rte_execute": lambda trace, *a, **k: {"decisions": len(trace.decisions)},
    "bench.pi_filter": lambda feasible, *a, **k: {"excluded": not feasible},
    # build_cells shares one stochastic instance per (instance, epsilon)
    "instances.sample_durations": lambda sample, stoch, *a, **k: {
        "plan_key": id(stoch), "seed": sample.seed
    },
}

# (owner, attribute, span name): what the package looks up across modules.
# Untraced runs wrap only the metered subset, whose calls feed end-to-end
# metrics and the deterministic counters.  In bench, a draw opens a cell and
# each method run follows it: these are the units the benchmark times.
METERED = (
    (srcpsp.methods, "solve", "solver.solve"),
    (srcpsp.methods, "solve_saa", "solver.solve_saa"),
    (srcpsp.methods, "chain", "chaining.chain"),
    (srcpsp.methods, "dc_check", "stnu.dc_check"),
    (srcpsp.methods, "rte_execute", "stnu.rte_execute"),
    (srcpsp.bench, "sample_durations", "instances.sample_durations"),
    # bench dispatches to the methods through this table, not by name
    *((srcpsp.bench._RUNNERS, m, f"methods.{m}") for m in METHODS),
)
TRACED = METERED + (
    (srcpsp.methods, "quantile_durations", "instances.quantile_durations"),
    (srcpsp.methods, "check_schedule", "solver.check_schedule"),
    (srcpsp.methods, "build_stnu", "stnu.build_stnu"),
    (srcpsp.chaining, "check_schedule", "solver.check_schedule"),
    (srcpsp.bench, "build_cells", "bench.build_cells"),
    (srcpsp.bench, "parse_psplib", "instances.parse_psplib"),
    (srcpsp.bench, "perfect_information_feasible", "bench.pi_filter"),
    (srcpsp.bench, "check_schedule", "bench.audit"),
    (srcpsp.bench, "feasibility_csv", "bench.write_csv"),
    (srcpsp.bench.ResultsTable, "to_csv", "bench.write_csv"),
    (srcpsp.bench, "build_partial_ordering", "stats.build_partial_ordering"),
)


class Tracer:
    """Collects spans; ``stage`` and ``request`` tag the spans opened next."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stage = ""
        self.request: str | None = None
        self.pass_index = 0
        self.overhead_s = 0.0  # time spent in the wrappers themselves
        self.last_seconds = 0.0  # duration of the span that closed last
        self.before_unit: Callable[[], None] | None = None  # called as a bench unit starts
        self._open: list[int] = []
        self._cells = 0

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        describe = DESCRIBE.get(name)
        starts_cell = name == "instances.sample_durations"
        unit = starts_cell or name.startswith("methods.")
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if unit and self.stage == "bench" and self.before_unit is not None:
                self.before_unit()  # outside the span and the overhead count
            if starts_cell and self.stage == "bench":
                # bench draws each cell's sample first, so a draw opens a cell
                self._cells += 1
                self.request = f"cell{self._cells}"
            entered = clock()
            parent = self._open[-1] if self._open else None
            span = Span(name, 0.0, 0.0, parent, self.request, self.stage, self.pass_index)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._open.pop()
                self.last_seconds = span.end - span.start
            if describe is not None:
                span.info = describe(result, *args, **kwargs)
            self.overhead_s += (span.start - entered) + (clock() - span.end)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, traced: bool) -> Iterator[None]:
        """Wrap the package's cross-module calls for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in TRACED if traced else METERED:
                if isinstance(owner, dict):
                    if attr not in owner:
                        continue
                    saved.append((owner, attr, owner[attr]))
                    owner[attr] = self.wrap(name, owner[attr])
                elif hasattr(owner, attr):
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    def select(self, name: str, stage: str | None = None, since: int = 0) -> list[Span]:
        return [
            s for s in self.spans[since:]
            if s.name == name and (stage is None or s.stage == stage)
        ]

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(
                    {
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "parent": s.parent,
                        "request": s.request,
                        "stage": s.stage,
                        "pass": s.pass_index,
                        "info": s.info,
                    },
                    default=str,
                ) + "\n")


# per-layer metric name -> (unit, better); the traced run reports each one
PER_LAYER: dict[str, tuple[str, str]] = {
    "instances.parse_psplib.s": ("s", "lower"),
    "instances.sample_durations.calls": ("count", "lower"),
    "instances.sample_durations.s": ("s", "lower"),
    "instances.quantile_durations.calls": ("count", "lower"),
    "instances.quantile_durations.s": ("s", "lower"),
    "stn.earliest_schedule.us": ("us", "lower"),
    **{
        f"solver.{fn}.{measure}": unit_better
        for fn in ("solve", "solve_saa")
        for measure, unit_better in (
            ("calls", ("count", "lower")),
            ("s", ("s", "lower")),
            ("nodes", ("count", "lower")),
            ("nodes_per_s", ("1/s", "higher")),
            ("optimal_share", ("share", "higher")),
        )
    },
    "solver.check_schedule.calls": ("count", "lower"),
    "solver.check_schedule.s": ("s", "lower"),
    "chaining.chain.calls": ("count", "lower"),
    "chaining.chain.s": ("s", "lower"),
    "chaining.chain.edges": ("count", "lower"),
    "stnu.build_stnu.s": ("s", "lower"),
    "stnu.dc_check.calls": ("count", "lower"),
    "stnu.dc_check.s": ("s", "lower"),
    "stnu.dc_check.closure_edges": ("count", "lower"),
    "stnu.dc_check.wait_edges": ("count", "lower"),
    "stnu.dc_check.dc_share": ("share", "higher"),
    "stnu.rte_execute.calls": ("count", "lower"),
    "stnu.rte_execute.s": ("s", "lower"),
    "stnu.rte_execute.decisions": ("count", "lower"),
    **{f"methods.{m}.s": ("s", "lower") for m in METHODS},
    **{f"methods.{m}.self_s": ("s", "lower") for m in METHODS},
    "methods.reactive.resolves": ("count", "lower"),
    "methods.reactive.resolve_s": ("s", "lower"),
    "methods.plan_distinct_share": ("share", "higher"),
    "bench.build_cells.s": ("s", "lower"),
    "bench.pi_filter.calls": ("count", "lower"),
    "bench.pi_filter.s": ("s", "lower"),
    "bench.pi_filter.excluded": ("count", "lower"),
    "bench.audit.s": ("s", "lower"),
    "bench.write_csv.s": ("s", "lower"),
    "stats.build_partial_ordering.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from the spans, and the layers that recorded none.

    Counts and times are per pass, so they do not depend on how many passes
    fit in the run; shares and rates are over the whole run.
    ``stn.earliest_schedule.us`` is not a span; the caller fills it in.
    """
    values: dict[str, float] = {"trace.overhead_s": tracer.overhead_s / passes}
    absent: list[str] = []
    own = tracer.self_seconds()
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(tracer.spans):
        by_name.setdefault(span.name, []).append(index)

    def spans(name: str) -> list[Span]:
        return [tracer.spans[i] for i in by_name.get(name, [])]

    def info_sum(name: str, key: str) -> int:
        return sum(s.info[key] for s in spans(name))

    for metric in PER_LAYER:
        if metric in ("stn.earliest_schedule.us", "trace.overhead_s"):
            continue
        layer, _, measure = metric.rpartition(".")
        found = spans(layer)
        if layer == "methods" and measure == "plan_distinct_share":
            found = [s for m in METHODS for s in spans(f"methods.{m}")]
        elif layer == "methods.reactive" and measure.startswith("resolve"):
            found = [s for s in spans("solver.solve") if s.info["resolve"]]
        if not found:
            absent.append(metric)
            continue
        seconds = sum(s.seconds for s in found)
        if measure == "calls" or measure == "resolves":
            values[metric] = len(found) / passes
        elif measure in ("s", "resolve_s"):
            values[metric] = seconds / passes
        elif measure == "self_s":
            values[metric] = sum(own[i] for i in by_name[layer]) / passes
        elif measure == "nodes_per_s":
            values[metric] = info_sum(layer, "nodes") / seconds
        elif measure == "optimal_share":
            values[metric] = sum(s.info["optimal"] for s in found) / len(found)
        elif measure == "dc_share":
            values[metric] = sum(s.info["dc"] for s in found) / len(found)
        elif measure == "excluded":
            values[metric] = sum(s.info["excluded"] for s in found) / passes
        elif measure == "plan_distinct_share":
            # an object id is unique only while the object lives: within a pass
            plan_keys = {
                s.request: (s.pass_index, s.info["plan_key"])
                for s in spans("instances.sample_durations")
            }
            keys = {(plan_keys.get(s.request, s.request), s.name) for s in found}
            values[metric] = len(keys) / len(found)
        else:
            values[metric] = info_sum(layer, measure) / passes
    return values, absent

