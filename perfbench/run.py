#!/usr/bin/env python3
"""srcpsp benchmark: one process, one caller, closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload scale --seed 1 --seconds 45 --trace 0

Workloads (README.md next to this file describes them in full):

- ``scale``: ``solve`` and ``solve_saa`` on generated 20-activity
  instances under fixed node limits; ``chain``, ``build_stnu``,
  ``dc_check`` and ``rte_execute`` on generated 50-activity networks whose
  schedules are planted; one small bench call (``j10_09``, 13 samples).
- ``desk``: ``srcpsp bench`` on the desk config (the first ten bundled j10
  instances, epsilon 1, two samples, all four methods, master seed 1),
  then ``srcpsp stats --metric quality`` on its table.

A run repeats one identical pass of its workload, back to back, until the
next pass would end after ``--seconds``.  Every unit of work a pass does is
timed between two readings of a fixed reference kernel and scaled to the
kernel's nominal speed (``reference.py`` says why).  A per-call metric is
the median over the calls of a pass, each call at its median over the
passes.  Every run prints every end-to-end
metric; desk takes the solver and network metrics from the calls its bench
run makes.  With ``--trace 1`` the per-layer metrics, raw and per pass,
are printed instead.  The last line of standard output is one JSON object;
the lines before it give every metric with its unit and sample count, the
raw medians, the deterministic counters and the environment.  A record of
the run is written under ``perfbench/out/records``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import reference
from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
J10 = ROOT / "data" / "j10"
OUT = HERE / "out"
EXPECTED = HERE / "expected"

WORKLOADS = ("scale", "desk")
METHODS = ("proactive_q", "proactive_saa", "reactive", "stnu")
WALL_COLUMNS = ("time_offline_ms", "time_online_ms")

DESK_INSTANCES = 10
DESK_SAMPLES = 2
MINI_INSTANCE = "j10_09"
MINI_SAMPLES = 13
SOLVER_POOL = 25
SOLVER_ACTIVITIES = 20
SOLVE_NODES = 250
SAA_NODES = 100
NETWORK_POOL = 3
NETWORK_ACTIVITIES = 50
RTE_SAMPLES = 20  # per network
EPSILON = 1.0
NEVER = 3600.0  # a time limit the node limits always beat
MIN_PASSES = 2
SETUP_REPEATS = 3
PROBE_REPEATS = 20
MEMORY_LIMIT = 3 << 30

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "nodes_per_s": "1/s",
    "proactive_q.offline_ms.p50": "ms",
    "proactive_saa.offline_ms.p50": "ms",
    "reactive.online_ms.p50": "ms",
    "stnu.offline_ms.p50": "ms",
    "stnu.online_ms.p50": "ms",
    "solve_ms.p50": "ms",
    "saa_ms.p50": "ms",
    "dc_check_ms.p50": "ms",
    "rte_ms.p50": "ms",
}


@dataclass
class Outcome:
    """What one run did and how much of it checked out."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    changes: list[str] = field(default_factory=list)
    counters: dict[str, Any] = field(default_factory=dict)
    walls: list[float] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def count(self, name: str, value: Any) -> None:
        """Record a counter; every pass must give the same value."""
        if name in self.counters and self.counters[name] != value:
            self.changes.append(f"{name}: {value} in a later pass, {self.counters[name]} in the first")
            return
        self.counters[name] = value


class Meter:
    """Reference readings around timed work (see ``reference.py``)."""

    def __init__(self) -> None:
        self.last = reference.seconds()

    def read(self) -> float:
        self.last = reference.seconds()
        return self.last

    def scale(self, raw: float) -> float:
        """Scale work that ran since the last reading; takes a new reading."""
        before = self.last
        return raw * NOMINAL_S / ((before + self.read()) / 2)


class Timings:
    """Per call kind and pass, the scaled and the raw time of every call.

    Every pass makes the same calls in the same order, so the i-th call of
    a kind is the same call in each pass.  ``parts`` adds up the scaled
    times of the work that makes up the current pass.
    """

    def __init__(self) -> None:
        self.scaled: dict[str, list[list[float]]] = {}
        self.raw: dict[str, list[list[float]]] = {}
        self.parts = 0.0
        self.passes: list[float] = []  # scaled seconds of each pass

    def add(self, kind: str, raw: float, scaled: float, part: bool = False) -> None:
        for series, value in ((self.raw, raw), (self.scaled, scaled)):
            passes = series.setdefault(kind, [])
            while len(passes) <= len(self.passes):
                passes.append([])
            passes[-1].append(value)
        if part:
            self.parts += scaled

    @staticmethod
    def per_call(passes: list[list[float]]) -> list[float]:
        """Each call's median over the passes."""
        width = max(len(p) for p in passes)
        return [statistics.median([p[i] for p in passes if i < len(p)]) for i in range(width)]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expected(name: str) -> Any:
    return json.loads((EXPECTED / f"{name}.json").read_text(encoding="utf-8"))


def _observe(name: str, data: Any, suffix: str = "json") -> None:
    """Keep what this run produced; copying it to expected/ re-baselines."""
    path = OUT / "observed" / f"{name}.{suffix}"
    path.parent.mkdir(parents=True, exist_ok=True)
    text = data if suffix != "json" else json.dumps(data, indent=1, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")


# --------------------------------------------------------------------------
# inputs


@dataclass
class BenchJob:
    """One ``srcpsp bench`` call and the ``srcpsp stats`` call on its table."""

    name: str
    cells: int
    config: Path

    @property
    def results(self) -> Path:
        return self.config.parent / "results.csv"


@dataclass
class SolverInputs:
    instances: list[Any]
    estimates: list[tuple[int, ...]]
    scenarios: list[list[tuple[int, ...]]]
    order: list[int]


@dataclass
class NetworkInputs:
    instances: list[Any]
    stochastic: list[Any]
    longest: list[tuple[int, ...]]
    plans: list[Any]
    samples: list[list[Any]]


@dataclass
class Inputs:
    bench: BenchJob
    solver: SolverInputs | None = None
    network: NetworkInputs | None = None


def prepare_bench(name: str, paths: list[Path], samples: int, master_seed: int) -> BenchJob:
    from srcpsp.bench import BenchConfig, build_cells

    work = OUT / name
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps({
        # listing the files in seed order sets the cell order; the table
        # is sorted before it is written, so the output does not change
        "instance_sets": {"j10": [str(p) for p in paths]},
        "instances_per_set": len(paths),
        "epsilons": [EPSILON],
        "samples_per_instance": samples,
        "methods": list(METHODS),
        "parallelism": 1,
        "output_dir": str(work),
        "master_seed": master_seed,
    }), encoding="utf-8")
    cells = build_cells(BenchConfig.from_json(config))
    if len(cells) != len(paths) * samples:
        raise RuntimeError(f"{name}: expected {len(paths) * samples} cells, built {len(cells)}")
    return BenchJob(name, len(cells), config)


def _longest_checked(stoch, planted: tuple[int, ...]) -> tuple[int, ...]:
    """The longest durations, after checking the planted plan holds under them."""
    from srcpsp.instances import quantile_durations
    from srcpsp.solver import Schedule, check_schedule

    longest = quantile_durations(stoch, 1).durations
    if not check_schedule(stoch.base, longest, Schedule.from_starts(planted, longest)).feasible:
        raise RuntimeError("generator planted an infeasible schedule")
    return longest


def prepare_solver(seed: int) -> SolverInputs:
    from gen import planted_instance
    from srcpsp.instances import make_stochastic, quantile_durations
    from srcpsp.methods import MethodConfig

    defaults = MethodConfig()
    instances, estimates, scenarios = [], [], []
    for k in range(SOLVER_POOL):
        inst, planted = planted_instance(SOLVER_ACTIVITIES, k, EPSILON)
        stoch = make_stochastic(inst, EPSILON)
        _longest_checked(stoch, planted)
        instances.append(inst)
        estimates.append(quantile_durations(stoch, defaults.gamma).durations)
        scenarios.append([quantile_durations(stoch, g).durations for g in defaults.saa_gammas])
    order = list(range(SOLVER_POOL))
    random.Random(seed).shuffle(order)
    return SolverInputs(instances, estimates, scenarios, order)


def prepare_network(seed: int) -> NetworkInputs:
    from gen import planted_instance
    from srcpsp.instances import make_stochastic, sample_durations
    from srcpsp.solver import Schedule

    rng = random.Random(seed)
    inputs = NetworkInputs([], [], [], [], [])
    for k in range(NETWORK_POOL):
        inst, planted = planted_instance(NETWORK_ACTIVITIES, k, EPSILON)
        stoch = make_stochastic(inst, EPSILON)
        longest = _longest_checked(stoch, planted)
        inputs.instances.append(inst)
        inputs.stochastic.append(stoch)
        inputs.longest.append(longest)
        inputs.plans.append(Schedule.from_starts(planted, longest))
        inputs.samples.append(
            [sample_durations(stoch, rng.getrandbits(63)) for _ in range(RTE_SAMPLES)]
        )
    return inputs


def prepare(workload: str, seed: int) -> Inputs:
    if workload == "desk":
        paths = sorted(J10.glob("*.sch"))[:DESK_INSTANCES]
        random.Random(seed).shuffle(paths)
        return Inputs(prepare_bench("desk", paths, DESK_SAMPLES, master_seed=1))
    mini = prepare_bench("mini", [J10 / f"{MINI_INSTANCE}.sch"], MINI_SAMPLES, master_seed=1)
    return Inputs(mini, solver=prepare_solver(seed), network=prepare_network(seed))


# --------------------------------------------------------------------------
# stages: each runs once per pass and times its calls into ``timings``


BENCH_KINDS = {
    "solver.solve": "solve_ms",
    "solver.solve_saa": "saa_ms",
    "stnu.dc_check": "dc_check_ms",
    "stnu.rte_execute": "rte_ms",
}


class BenchStage:
    """``srcpsp bench`` then ``srcpsp stats``, checked against the committed table.

    The meter reads the reference as each bench cell opens and before each
    method run, so a row's time is scaled by the readings right before and
    after its method ran.  With ``own_calls`` the calls bench makes into the
    solver and the STNU feed the per-call metrics too.
    """

    def __init__(self, job: BenchJob, tracer, meter: Meter, timings: Timings,
                 own_calls: bool) -> None:
        self.job = job
        self.tracer = tracer
        self.meter = meter
        self.timings = timings
        self.own_calls = own_calls
        self.marks: list[float] = []
        tracer.before_unit = lambda: self.marks.append(meter.read())

    def run_pass(self, outcome: Outcome) -> None:
        import srcpsp.bench

        job, tracer = self.job, self.tracer
        tracer.stage = "bench"
        operations = job.cells * len(METHODS) + 1
        outcome.attempted += operations
        stats_out = io.StringIO()
        since = len(tracer.spans)
        self.marks = [self.meter.read()]
        try:
            start = time.perf_counter()
            with redirect_stdout(io.StringIO()):
                code = srcpsp.bench.main(["bench", "--config", str(job.config)])
            bench_s = time.perf_counter() - start - sum(self.marks[1:])
            self.marks.append(self.meter.read())
            if code == 0:
                start = time.perf_counter()
                with redirect_stdout(stats_out):
                    code = srcpsp.bench.main(
                        ["stats", "--results", str(job.results), "--metric", "quality"]
                    )
                bench_s += time.perf_counter() - start
        except Exception as exc:  # the call raised: nothing it produced counts
            outcome.fail(operations, f"{job.name}: {exc!r}")
            return
        if code != 0:
            outcome.fail(operations, f"{job.name}: srcpsp exited with {code}")
            return

        # unit i (a draw or a method run) runs between readings i + 1 and i + 2
        units = [s for s in tracer.spans[since:] if _is_unit(s)]
        factors = [NOMINAL_S / ((a + b) / 2) for a, b in zip(self.marks[1:], self.marks[2:])]
        row_factor = {}
        for span, factor in zip(units, factors):
            if span.name == "instances.sample_durations":
                seed = str(span.info["seed"])
            else:
                row_factor[seed, span.name.partition(".")[2]] = factor
        with job.results.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        methods_s = 0.0
        for r in rows:
            factor = row_factor[r["seed"], r["method"]]
            for phase in ("offline", "online"):
                raw = float(r[f"time_{phase}_ms"]) / 1e3
                methods_s += raw
                self.timings.add(f"{r['method']}.{phase}_ms", raw, raw * factor, part=True)
        # set-up, filtering, auditing and writing the table, and the stats call
        rest = bench_s - methods_s
        self.timings.add("bench_rest_ms", rest, rest * statistics.fmean(factors), part=True)
        self.calls(since, factors, outcome)
        outcome.count(f"{job.name}.excluded_cells", job.cells - len(rows) // len(METHODS))

        table = _normalized_table(job.results)
        report = stats_out.getvalue()
        ordering = report[report.index("edges"):] if "edges" in report else report
        _observe(job.name, table, "csv")
        _observe(job.name, {"table_sha256": _sha256(table), "ordering": ordering})
        expected = _expected(job.name)
        if _sha256(table) != expected["table_sha256"]:
            wanted = (EXPECTED / f"{job.name}.csv").read_text(encoding="utf-8").splitlines()[1:]
            got = set(table.splitlines()[1:])
            missing = [line for line in wanted if line not in got]
            outcome.fail(
                max(1, min(len(missing), operations - 1)),
                f"{job.name}: results.csv differs from the committed table, "
                f"first differing row {missing[:1]}",
            )
        if ordering != expected["ordering"]:
            outcome.fail(1, f"{job.name}: quality ordering differs: {ordering!r}")

    def calls(self, since: int, factors: list[float], outcome: Outcome) -> None:
        """Times and counters of the calls the pass made into the metered layers."""
        unit = -1
        for span in self.tracer.spans[since:]:
            if _is_unit(span):
                unit += 1
            elif span.name in BENCH_KINDS and span.stage == "bench" and self.own_calls:
                self.timings.add(BENCH_KINDS[span.name], span.seconds, span.seconds * factors[unit])
        spans = {
            name: self.tracer.select(name, "bench", since)
            for name in ("solver.solve", "solver.solve_saa", "chaining.chain",
                         "stnu.dc_check", "stnu.rte_execute")
        }
        solves, checks = spans["solver.solve"], spans["stnu.dc_check"]
        for name, value in (
            ("bench.solve_nodes_sha256", _sha256(",".join(str(s.info["nodes"]) for s in solves))),
            ("bench.solve_nodes", sum(s.info["nodes"] for s in solves)),
            ("bench.solve_saa_nodes", sum(s.info["nodes"] for s in spans["solver.solve_saa"])),
            ("bench.reactive_resolves", sum(s.info["resolve"] for s in solves)),
            ("bench.chain_edges", sum(s.info["edges"] for s in spans["chaining.chain"])),
            ("bench.closure_edges", sum(s.info["closure_edges"] for s in checks)),
            ("bench.wait_edges", sum(s.info["wait_edges"] for s in checks)),
            ("bench.rte_decisions", sum(s.info["decisions"] for s in spans["stnu.rte_execute"])),
        ):
            outcome.count(name, value)


def _is_unit(span) -> bool:
    """A bench cell's draw or one method run: the stretches the meter reads around."""
    return span.stage == "bench" and (
        span.name == "instances.sample_durations" or span.name.startswith("methods.")
    )


def _normalized_table(results: Path) -> str:
    """results.csv without its two wall-time columns."""
    with results.open(encoding="utf-8", newline="") as handle:
        records = list(csv.reader(handle))
    keep = [i for i, name in enumerate(records[0]) if name not in WALL_COLUMNS]
    return "".join(",".join(r[i] for i in keep) + "\n" for r in records)


class DirectStage:
    """A stage that calls srcpsp itself, with a reading between each two calls."""

    def __init__(self, tracer, meter: Meter, timings: Timings) -> None:
        self.tracer = tracer
        self.meter = meter
        self.timings = timings

    def timed(self, kind: str) -> None:
        """Record the call that just returned."""
        raw = self.tracer.last_seconds
        self.timings.add(kind, raw, self.meter.scale(raw), part=True)


class SolverStage(DirectStage):
    """``solve`` then ``solve_saa`` on every pool instance, each checked."""

    def __init__(self, inputs: SolverInputs, tracer, meter: Meter, timings: Timings) -> None:
        import srcpsp.solver

        super().__init__(tracer, meter, timings)
        self.inputs = inputs
        self.solve = tracer.wrap("solver.solve", srcpsp.solver.solve)
        self.solve_saa = tracer.wrap("solver.solve_saa", srcpsp.solver.solve_saa)

    def run_pass(self, outcome: Outcome) -> None:
        from srcpsp.solver import Schedule, check_schedule

        self.tracer.stage = "solver"
        expected = _expected("solver")["instances"]
        observed = {}
        for k in self.inputs.order:
            self.tracer.request = f"instance{k}"
            inst, scenarios = self.inputs.instances[k], self.inputs.scenarios[k]
            outcome.attempted += 2
            self.meter.read()
            try:
                out = self.solve(
                    inst, self.inputs.estimates[k], time_limit=NEVER, node_limit=SOLVE_NODES
                )
                self.timed("solve_ms")
                saa = self.solve_saa(inst, scenarios, time_limit=NEVER, node_limit=SAA_NODES)
                self.timed("saa_ms")
            except Exception as exc:  # a call that raises is a failed operation
                outcome.fail(2, f"instance{k}: {exc!r}")
                continue
            # a search the node limit stops before any incumbent is a valid,
            # deterministic outcome; the expected values below pin it down
            if out.schedule is not None and not check_schedule(
                inst, self.inputs.estimates[k], out.schedule
            ).feasible:
                outcome.fail(1, f"instance{k}: solve incumbent infeasible")
            if saa.starts is not None and not all(
                check_schedule(inst, d, Schedule.from_starts(saa.starts, d)).feasible
                for d in scenarios
            ):
                outcome.fail(1, f"instance{k}: solve_saa incumbent infeasible")
            got = observed[str(k)] = {
                "solve": {"status": out.status.value, "nodes": out.nodes_explored,
                          "makespan": out.schedule.makespan if out.schedule else None},
                "saa": {"status": saa.status.value, "nodes": saa.nodes_explored,
                        "objective": saa.objective},
            }
            want = expected.get(str(k), {})
            for call, value in (("solve", "makespan"), ("saa", "objective")):
                wanted = want.get(call, {})
                if got[call][value] != wanted.get(value):
                    outcome.fail(1, f"instance{k} {call}: {value} {got[call][value]}, "
                                    f"expected {wanted.get(value)}")
                if got[call]["nodes"] != wanted.get("nodes"):
                    outcome.changes.append(f"instance{k} {call}: {got[call]['nodes']} nodes, "
                                           f"expected {wanted.get('nodes')}")
        self.tracer.request = None
        _observe("solver", {"instances": observed})
        outcome.count("solver.nodes", {
            k: [v["solve"]["nodes"], v["saa"]["nodes"]] for k, v in sorted(observed.items())
        })


class NetworkStage(DirectStage):
    """On every network: chain, build the STNU, check it, execute every sample."""

    def __init__(self, inputs: NetworkInputs, tracer, meter: Meter, timings: Timings) -> None:
        import srcpsp.chaining
        import srcpsp.stnu

        super().__init__(tracer, meter, timings)
        self.inputs = inputs
        self.controllable = srcpsp.stnu.Controllable
        self.chain = tracer.wrap("chaining.chain", srcpsp.chaining.chain)
        self.build_stnu = tracer.wrap("stnu.build_stnu", srcpsp.stnu.build_stnu)
        self.dc_check = tracer.wrap("stnu.dc_check", srcpsp.stnu.dc_check)
        self.rte_execute = tracer.wrap("stnu.rte_execute", srcpsp.stnu.rte_execute)

    def run_pass(self, outcome: Outcome) -> None:
        from srcpsp.solver import Schedule, check_schedule

        self.tracer.stage = "network"
        expected = _expected("network")["networks"]
        observed = {}
        decisions = 0
        for k, inst in enumerate(self.inputs.instances):
            self.tracer.request = f"network{k}"
            outcome.attempted += 1 + RTE_SAMPLES
            self.meter.read()
            try:
                pos = self.chain(inst, self.inputs.longest[k], self.inputs.plans[k])
                self.timed("chain_ms")
                stnu = self.build_stnu(pos, self.inputs.stochastic[k])
                self.timed("build_stnu_ms")
                verdict = self.dc_check(stnu)
                self.timed("dc_check_ms")
                traces = []
                if isinstance(verdict, self.controllable):
                    for sample in self.inputs.samples[k]:
                        traces.append((sample, self.rte_execute(verdict.estnu, sample)))
                        self.timed("rte_ms")
            except Exception as exc:  # a network that raises fails all its calls
                outcome.fail(1 + RTE_SAMPLES, f"network{k}: {exc!r}")
                continue
            dc = isinstance(verdict, self.controllable)
            got = observed[str(k)] = {
                "dc": dc,
                "chain_edges": len(pos.chain_edges),
                "closure_edges": len(verdict.estnu.base.ordinary_edges) if dc else 0,
                "wait_edges": len(verdict.estnu.wait_edges) if dc else 0,
            }
            want = expected.get(str(k), {})
            if dc != want.get("dc"):
                outcome.fail(1 + RTE_SAMPLES, f"network{k}: DC verdict {dc}, expected {want.get('dc')}")
                continue
            for key in ("chain_edges", "closure_edges", "wait_edges"):
                if got[key] != want.get(key):
                    outcome.changes.append(f"network{k}: {got[key]} {key}, expected {want.get(key)}")
            for sample, trace in traces:
                decisions += len(trace.decisions)
                starts = [trace.times[2 * j] for j in range(inst.n_activities)]
                schedule = Schedule.from_starts(starts, sample.durations)
                if not check_schedule(inst, sample.durations, schedule).feasible:
                    outcome.fail(1, f"network{k}: RTE trace infeasible under sample {sample.seed}")
        self.tracer.request = None
        _observe("network", {"networks": observed})
        outcome.count("network.edges", {
            k: [v["chain_edges"], v["closure_edges"], v["wait_edges"]]
            for k, v in sorted(observed.items())
        })
        outcome.count("network.rte_decisions", decisions)


def run_passes(stages: list[Callable[[Outcome], None]], tracer, timings: Timings,
               outcome: Outcome, seconds: float) -> None:
    """Closed loop: identical passes back to back, at least ``MIN_PASSES``,
    until the next pass would end after ``seconds``."""
    start = time.perf_counter()
    while True:
        tracer.pass_index = len(outcome.walls)
        gc.collect()  # every pass starts from the same heap
        timings.parts = 0.0
        began = time.perf_counter()
        for stage in stages:
            stage(outcome)
        outcome.walls.append(time.perf_counter() - began)
        timings.passes.append(timings.parts)
        elapsed = time.perf_counter() - start
        passes = len(outcome.walls)
        if passes >= MIN_PASSES and elapsed + elapsed / passes > seconds:
            break


# --------------------------------------------------------------------------
# metrics


def call_statistics(timings: Timings) -> dict[str, dict[str, float]]:
    """Over the calls of a pass, each at its median over the passes, scaled:
    p50, p90, mean; the raw p50; calls per pass and calls in all."""
    stats = {}
    for kind in sorted(timings.scaled):
        values = [v * 1e3 for v in Timings.per_call(timings.scaled[kind])]
        stats[kind] = {
            "p50": statistics.median(values),
            "p90": (statistics.quantiles(values, n=10, method="inclusive")[8]
                    if len(values) > 1 else values[0]),
            "mean": statistics.fmean(values),
            "raw_p50": statistics.median(Timings.per_call(timings.raw[kind])) * 1e3,
            "calls": len(values),
            "n": sum(len(p) for p in timings.scaled[kind]),
        }
    return stats


def end_to_end(
    calls: dict[str, dict[str, float]], timings: Timings, outcome: Outcome, setup_s: float
) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as (value, sample count)."""
    counters = outcome.counters
    if "solver.nodes" in counters:  # scale: its own solver stage
        nodes = sum(sum(pair) for pair in counters["solver.nodes"].values())
    else:
        nodes = counters["bench.solve_nodes"] + counters["bench.solve_saa_nodes"]
    searched = [calls[kind]["mean"] * calls[kind]["calls"] / 1e3 for kind in ("solve_ms", "saa_ms")]
    metrics: dict[str, tuple[float, int]] = {
        "setup_s": (setup_s, SETUP_REPEATS),
        "wall_s": (statistics.median(timings.passes), len(timings.passes)),
        "nodes_per_s": (nodes / sum(searched), calls["solve_ms"]["n"] + calls["saa_ms"]["n"]),
    }
    for name in END_TO_END:
        key, _, statistic = name.rpartition(".")
        if key in calls:
            metrics[name] = (calls[key][statistic], calls[key]["n"])
    return metrics


def earliest_schedule_us(inputs: Inputs) -> float:
    """Median per-call time of root-graph propagation, over the workload's instances."""
    from srcpsp.instances import parse_psplib
    from srcpsp.stn import DistanceGraph, earliest_schedule

    if inputs.solver is not None:
        instances = inputs.solver.instances + inputs.network.instances
    else:
        paths = sorted(J10.glob("*.sch"))[:DESK_INSTANCES]
        instances = [parse_psplib(p.read_text(encoding="utf-8")) for p in paths]
    per_instance = []
    for inst in instances:
        graph = DistanceGraph(node_count=inst.n_activities, edges=inst.temporal_constraints)
        calls = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            earliest_schedule(graph)
            calls.append(time.perf_counter() - start)
        per_instance.append(statistics.median(calls) * 1e6)
    return statistics.median(per_instance)


# --------------------------------------------------------------------------
# entry point


def measure_setup(workload: str, seed: int) -> tuple[float, Inputs]:
    """Median import time in fresh interpreters plus median input building,
    each scaled by reference readings taken right before and after it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    code = (
        "import time; from reference import seconds, NOMINAL_S; a = seconds(); "
        "t = time.perf_counter(); import srcpsp.bench; t = time.perf_counter() - t; "
        "print(t * NOMINAL_S / ((a + seconds()) / 2))"
    )
    imports = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        imports.append(float(proc.stdout))
    meter = Meter()
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = prepare(workload, seed)
        builds.append(meter.scale(time.perf_counter() - start))
    return statistics.median(imports) + statistics.median(builds), inputs


def environment() -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, traced: bool
        ) -> tuple[Outcome, Timings, Any, float, Inputs]:
    from tracing import Tracer

    setup_s, inputs = measure_setup(workload, seed)
    tracer = Tracer()
    outcome = Outcome()
    meter = Meter()
    timings = Timings()
    with tracer.patched(traced):
        # scale times the solver and network calls of its own stages only
        own = inputs.solver is None
        stages = [BenchStage(inputs.bench, tracer, meter, timings, own_calls=own).run_pass]
        if not own:
            stages += [SolverStage(inputs.solver, tracer, meter, timings).run_pass,
                       NetworkStage(inputs.network, tracer, meter, timings).run_pass]
        run_passes(stages, tracer, timings, outcome, seconds)
    return outcome, timings, tracer, setup_s, inputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="srcpsp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "srcpsp" / "__init__.py").is_file() or not J10.is_dir():
        print(f"perfbench: no srcpsp sources under {ROOT}", file=sys.stderr)
        return 2
    # a runaway closure should fail this run, not exhaust the machine
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    sys.path[:0] = [str(SRC), str(HERE)]
    from tracing import PER_LAYER, layer_metrics

    traced = bool(args.trace)
    outcome, timings, tracer, setup_s, inputs = run(args.workload, args.seed, args.seconds, traced)
    passes = len(outcome.walls)
    record: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "environment": environment(),
        "counters": outcome.counters,
        "behaviour_changes": outcome.changes,
        "problems": outcome.problems,
    }
    lines = [f"passes = {passes}"]
    metrics: dict[str, dict[str, float | str]] = {}
    if traced:
        values, absent = layer_metrics(tracer, passes)
        values["stn.earliest_schedule.us"] = earliest_schedule_us(inputs)
        record["absent"] = absent
        record["wall_s"] = statistics.median(timings.passes)
        for name, (unit, _) in PER_LAYER.items():
            metrics[name] = {"value": values.get(name, 0), "unit": unit}
            lines.append(f"{name} = " + ("absent" if name in absent else f"{values[name]:.6g} {unit}"))
        spans = OUT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.write(spans / f"{args.workload}-seed{args.seed}.jsonl")
    elif all(name.rpartition(".")[0] in timings.scaled for name in END_TO_END if "_ms." in name):
        calls = record["calls"] = call_statistics(timings)
        measured = end_to_end(calls, timings, outcome, setup_s)
        record["samples"] = {name: n for name, (_, n) in measured.items()}
        for name, unit in END_TO_END.items():
            value, n = measured[name]
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name} = {value:.6g} {unit} (n={n})")
        lines.append(f"raw wall of a pass: median {statistics.median(outcome.walls):.6g} s")
        for key, stat in calls.items():
            shown = ", ".join(f"{k} {v:.6g}" for k, v in stat.items() if k not in ("n", "calls"))
            lines.append(f"calls {key}: {shown} ms ({stat['calls']} calls a pass, n={stat['n']})")
    # with a call kind that never completed there is nothing to measure;
    # the failure lines say why
    share = outcome.failed / max(1, outcome.attempted)
    lines.append(f"failed_share = {share:.6g} ({outcome.failed} of {outcome.attempted} operations)")
    lines.append("waits: none measured; one process and one caller, so no layer waits on another")
    record["metrics"] = metrics
    record["failed_share"] = share

    for line in lines:
        print(line)
    print("counters: " + json.dumps(outcome.counters, sort_keys=True))
    for change in outcome.changes:
        print(f"behaviour change: {change}")
    for problem in outcome.problems:
        print(f"failed: {problem}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
