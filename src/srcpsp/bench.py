"""Experiment harness and command line.

Runs method-comparison matrices over instance sets, persists results as
CSV, derives feasibility tables and significance-based method orderings,
and exposes the whole workbench as the ``srcpsp`` console script.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import glob as globlib
import hashlib
import io
import json
import logging
import os
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .instances import (
    DurationSample,
    ParseError,
    StochasticInstance,
    make_stochastic,
    parse_psplib,
    sample_durations,
)
from .methods import (
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
from .solver import Schedule, check_schedule, solve
from .stats import METRICS, STRONG, PartialOrdering, build_partial_ordering

ENV_PARALLELISM = "SRCPSP_JOBS"

CSV_HEADER = (
    "instance_set,instance,epsilon,sample,method,feasible,makespan,"
    "time_offline_ms,time_online_ms,failure_reason,seed"
)

_RUNNERS: dict[str, Callable[[StochasticInstance, MethodConfig, DurationSample], MethodRun]] = {
    PROACTIVE_Q: run_proactive_quantile,
    PROACTIVE_SAA: run_proactive_saa,
    REACTIVE: run_reactive,
    STNU: run_stnu,
}

DEFAULT_METHODS = (PROACTIVE_Q, PROACTIVE_SAA, REACTIVE, STNU)


def _default_method_configs() -> dict[str, MethodConfig]:
    return {
        PROACTIVE_Q: MethodConfig(gamma=0.9, time_limit_offline=60.0),
        PROACTIVE_SAA: MethodConfig(time_limit_offline=300.0),
        REACTIVE: MethodConfig(
            gamma=0.9, time_limit_offline=60.0, time_limit_reschedule=2.0
        ),
        STNU: MethodConfig(gamma=1.0, time_limit_offline=60.0),
    }


def _format_number(value: float) -> str:
    """Canonical text for seeds and epsilons: integral floats print as ints."""
    return f"{value:g}"


def derive_seed(master_seed: int, instance: str, epsilon: float, sample: int) -> int:
    """Stable per-cell seed shared by every method on the same sample."""
    key = f"{master_seed}:{instance}:{_format_number(epsilon)}:{sample}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


# --------------------------------------------------------------------------
# configuration


_CONFIG_KEYS = {
    "instance_sets",
    "instances_per_set",
    "epsilons",
    "samples_per_instance",
    "methods",
    "method_configs",
    "parallelism",
    "output_dir",
    "master_seed",
}


@dataclass(frozen=True)
class BenchConfig:
    """Run-matrix description, usually loaded from a JSON document.

    ``instance_sets`` maps set names to glob patterns; each set contributes
    up to ``instances_per_set`` files in sorted path order.  Every method in
    ``methods`` is run on every (instance, epsilon, sample) cell that
    survives the perfect-information feasibility filter, using the same
    derived seed so method comparisons are paired.
    """

    instance_sets: tuple[tuple[str, tuple[str, ...]], ...]
    instances_per_set: int = 50
    epsilons: tuple[float, ...] = (1.0, 2.0)
    samples_per_instance: int = 10
    methods: tuple[str, ...] = DEFAULT_METHODS
    method_configs: dict[str, MethodConfig] = field(
        default_factory=_default_method_configs
    )
    parallelism: int | None = None
    output_dir: str = "results"
    master_seed: int = 1

    def __post_init__(self) -> None:
        if not self.instance_sets:
            raise ValueError("config needs at least one instance set")
        for name, patterns in self.instance_sets:
            if not name or not patterns:
                raise ValueError(f"instance set {name!r} has no patterns")
        if self.instances_per_set < 1:
            raise ValueError("instances_per_set must be at least 1")
        if self.samples_per_instance < 1:
            raise ValueError("samples_per_instance must be at least 1")
        if not self.epsilons:
            raise ValueError("config needs at least one epsilon")
        if any(eps < 0 for eps in self.epsilons):
            raise ValueError("epsilons must be nonnegative")
        printed: dict[str, float] = {}
        for eps in self.epsilons:
            text = _format_number(eps)
            if text in printed:
                raise ValueError(
                    f"epsilons {printed[text]!r} and {eps!r} both print as {text}, "
                    "so their result rows would clash"
                )
            printed[text] = eps
        if not self.methods:
            raise ValueError("config needs at least one method")
        unknown = sorted(set(self.methods) - set(_RUNNERS))
        if unknown:
            raise ValueError(f"unknown methods: {', '.join(unknown)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate method names")
        unknown = sorted(set(self.method_configs) - set(_RUNNERS))
        if unknown:
            raise ValueError(f"method_configs for unknown methods: {', '.join(unknown)}")
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")

    def jobs(self) -> int:
        """Worker count: explicit setting, else the SRCPSP_JOBS variable, else 1."""
        if self.parallelism is not None:
            return self.parallelism
        raw = os.environ.get(ENV_PARALLELISM, "1")
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_PARALLELISM} must be an integer, got {raw!r}") from exc
        return max(1, workers)

    def config_for(self, method: str) -> MethodConfig:
        configured = self.method_configs.get(method)
        if configured is not None:
            return configured
        return _default_method_configs()[method]

    @classmethod
    def from_mapping(cls, data: Mapping[str, object]) -> BenchConfig:
        unknown = sorted(set(data) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if "instance_sets" not in data:
            raise ValueError("config needs instance_sets")
        raw_sets = data["instance_sets"]
        if not isinstance(raw_sets, Mapping):
            raise ValueError("instance_sets must map set names to glob patterns")
        sets = []
        for name in sorted(raw_sets):
            patterns = raw_sets[name]
            if isinstance(patterns, str):
                patterns = [patterns]
            if not isinstance(patterns, Sequence) or not all(
                isinstance(p, str) for p in patterns
            ):
                raise ValueError(f"instance set {name!r}: patterns must be strings")
            sets.append((str(name), tuple(patterns)))
        kwargs: dict[str, object] = {"instance_sets": tuple(sets)}
        if "instances_per_set" in data:
            kwargs["instances_per_set"] = int(data["instances_per_set"])  # type: ignore[call-overload]
        if "epsilons" in data:
            raw_eps = data["epsilons"]
            if not isinstance(raw_eps, Sequence) or isinstance(raw_eps, str):
                raise ValueError("epsilons must be a list of numbers")
            kwargs["epsilons"] = tuple(float(e) for e in raw_eps)
        if "samples_per_instance" in data:
            kwargs["samples_per_instance"] = int(data["samples_per_instance"])  # type: ignore[call-overload]
        if "methods" in data:
            raw_methods = data["methods"]
            if not isinstance(raw_methods, Sequence) or isinstance(raw_methods, str):
                raise ValueError("methods must be a list of method names")
            kwargs["methods"] = tuple(str(m) for m in raw_methods)
        if "method_configs" in data:
            raw_cfgs = data["method_configs"]
            if not isinstance(raw_cfgs, Mapping):
                raise ValueError("method_configs must map method names to settings")
            defaults = _default_method_configs()
            merged: dict[str, MethodConfig] = dict(defaults)
            for name, overrides in raw_cfgs.items():
                if not isinstance(overrides, Mapping):
                    raise ValueError(f"method_configs[{name!r}] must be an object")
                base = defaults.get(str(name))
                if base is None:
                    raise ValueError(f"method_configs for unknown method {name!r}")
                fields = {f.name for f in dataclasses.fields(MethodConfig)}
                bad = sorted(set(overrides) - fields)
                if bad:
                    raise ValueError(
                        f"method_configs[{name!r}]: unknown settings {', '.join(bad)}"
                    )
                cleaned = {
                    key: tuple(value) if key == "saa_gammas" else value
                    for key, value in overrides.items()
                }
                merged[str(name)] = dataclasses.replace(base, **cleaned)  # type: ignore[arg-type]
            kwargs["method_configs"] = merged
        if "parallelism" in data and data["parallelism"] is not None:
            kwargs["parallelism"] = int(data["parallelism"])  # type: ignore[call-overload]
        if "output_dir" in data:
            kwargs["output_dir"] = str(data["output_dir"])
        if "master_seed" in data:
            kwargs["master_seed"] = int(data["master_seed"])  # type: ignore[call-overload]
        return cls(**kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, path: str | Path) -> BenchConfig:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, Mapping):
            raise ValueError(f"{path}: config must be a JSON object")
        return cls.from_mapping(data)


# --------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class ResultRow:
    """One method execution on one realized sample."""

    instance_set: str
    instance: str
    epsilon: float
    sample: int
    method: str
    feasible: bool
    makespan: int | None
    time_offline_ms: float
    time_online_ms: float
    failure_reason: str | None
    seed: int

    def key(self) -> tuple[str, str, float, int]:
        return (self.method, self.instance, self.epsilon, self.sample)

    def sort_key(self) -> tuple[str, str, float, int, str]:
        return (self.instance_set, self.instance, self.epsilon, self.sample, self.method)

    def csv_fields(self) -> list[str]:
        return [
            self.instance_set,
            self.instance,
            _format_number(self.epsilon),
            str(self.sample),
            self.method,
            "true" if self.feasible else "false",
            "" if self.makespan is None else str(self.makespan),
            f"{self.time_offline_ms:.3f}",
            f"{self.time_online_ms:.3f}",
            self.failure_reason or "",
            str(self.seed),
        ]


@dataclass(frozen=True)
class ResultsTable:
    """Immutable collection of result rows with a uniqueness invariant."""

    rows: tuple[ResultRow, ...]

    def __post_init__(self) -> None:
        seen: set[tuple[str, str, float, int]] = set()
        for row in self.rows:
            key = row.key()
            if key in seen:
                raise ValueError(f"duplicate result row for {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        writer = csv.writer(out, lineterminator="\n")
        for row in self.rows:
            writer.writerow(row.csv_fields())
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> ResultsTable:
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("results CSV is empty") from None
        if header != CSV_HEADER.split(","):
            raise ValueError("results CSV has an unexpected header")
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 11:
                raise ValueError(f"line {lineno}: expected 11 fields, got {len(record)}")
            (
                instance_set,
                instance,
                eps_text,
                sample_text,
                method,
                feasible_text,
                makespan_text,
                offline_text,
                online_text,
                reason,
                seed_text,
            ) = record
            if feasible_text not in ("true", "false"):
                raise ValueError(f"line {lineno}: feasible must be true or false")
            try:
                rows.append(
                    ResultRow(
                        instance_set=instance_set,
                        instance=instance,
                        epsilon=float(eps_text),
                        sample=int(sample_text),
                        method=method,
                        feasible=feasible_text == "true",
                        makespan=None if makespan_text == "" else int(makespan_text),
                        time_offline_ms=float(offline_text),
                        time_online_ms=float(online_text),
                        failure_reason=reason or None,
                        seed=int(seed_text),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        return cls(rows=tuple(rows))

    def to_method_runs(
        self,
        epsilon: float | None = None,
        instance_set: str | None = None,
    ) -> tuple[MethodRun, ...]:
        """Rows as method-run records for the significance tests.

        Milliseconds convert back to seconds; seeds key the pairing, so
        filtering by epsilon keeps scenarios from mixing across noise
        levels even though each cell's seed already differs.
        """
        runs = []
        for row in self.rows:
            if epsilon is not None and row.epsilon != epsilon:
                continue
            if instance_set is not None and row.instance_set != instance_set:
                continue
            runs.append(
                MethodRun(
                    method=row.method,
                    instance=row.instance,
                    seed=row.seed,
                    feasible=row.feasible,
                    makespan=row.makespan,
                    time_offline=row.time_offline_ms / 1000.0,
                    time_online=row.time_online_ms / 1000.0,
                    failure_reason=row.failure_reason,
                    starts=None,
                )
            )
        return tuple(runs)

    def instance_sets(self) -> tuple[str, ...]:
        return tuple(sorted({row.instance_set for row in self.rows}))

    def epsilons(self) -> tuple[float, ...]:
        return tuple(sorted({row.epsilon for row in self.rows}))

    def methods(self) -> tuple[str, ...]:
        return tuple(sorted({row.method for row in self.rows}))


def feasibility_ratio(
    table: ResultsTable, method: str, instance_set: str, epsilon: float
) -> Fraction | None:
    """Exact share of feasible runs in one cell, or None when the cell is empty."""
    total = 0
    feasible = 0
    for row in table.rows:
        if (
            row.method == method
            and row.instance_set == instance_set
            and row.epsilon == epsilon
        ):
            total += 1
            feasible += row.feasible
    if total == 0:
        return None
    return Fraction(feasible, total)


# --------------------------------------------------------------------------
# run matrix


@dataclass(frozen=True)
class _Cell:
    """One (instance, epsilon, sample) unit of work covering every method."""

    instance_set: str
    instance: str
    stochastic: StochasticInstance
    epsilon: float
    sample: int
    seed: int
    methods: tuple[str, ...]
    configs: dict[str, MethodConfig]


def _audit_row(
    stochastic: StochasticInstance, sample: DurationSample, run: MethodRun
) -> None:
    # replay every claimed-feasible execution before it is persisted
    if not run.feasible:
        return
    schedule = Schedule.from_starts(run.starts, sample.durations)
    report = check_schedule(stochastic.base, sample.durations, schedule)
    if not report.feasible:
        raise RuntimeError(
            f"audit failure: {run.method} reported an infeasible execution "
            f"as feasible on {run.instance}"
        )


def _method_row(cell: _Cell, method: str, sample: DurationSample) -> ResultRow:
    """Run one method on the cell's realized sample, audit it, and record it."""
    run = _RUNNERS[method](cell.stochastic, cell.configs[method], sample)
    run = dataclasses.replace(run, instance=cell.instance, seed=cell.seed)
    _audit_row(cell.stochastic, sample, run)
    return ResultRow(
        instance_set=cell.instance_set,
        instance=cell.instance,
        epsilon=cell.epsilon,
        sample=cell.sample,
        method=method,
        feasible=run.feasible,
        makespan=run.makespan,
        time_offline_ms=run.time_offline * 1000.0,
        time_online_ms=run.time_online * 1000.0,
        failure_reason=run.failure_reason,
        seed=cell.seed,
    )


def _run_cell(cell: _Cell) -> list[ResultRow] | None:
    """All methods on one realized sample; None when the cell is excluded."""
    sample = sample_durations(cell.stochastic, cell.seed)
    filter_limit = max(
        cell.configs[method].time_limit_offline for method in cell.methods
    )
    if not perfect_information_feasible(cell.stochastic, sample, filter_limit):
        return None
    return [_method_row(cell, method, sample) for method in cell.methods]


def _resolve_instances(config: BenchConfig) -> list[tuple[str, str, Path]]:
    """(set name, instance id, path) triples in deterministic order.

    Instance ids (file stems) key the result rows, so one id in two places
    is rejected before any cell runs.
    """
    resolved = []
    origin: dict[str, str] = {}
    for set_name, patterns in config.instance_sets:
        paths: list[Path] = []
        seen: set[Path] = set()
        for pattern in patterns:
            for match in sorted(globlib.glob(pattern)):
                path = Path(match)
                if path not in seen:
                    seen.add(path)
                    paths.append(path)
        if not paths:
            raise ValueError(f"instance set {set_name!r} matched no files")
        for path in paths[: config.instances_per_set]:
            where = f"{path} in set {set_name!r}"
            if path.stem in origin:
                raise ValueError(
                    f"instance id {path.stem!r} appears twice: {origin[path.stem]} "
                    f"and {where}"
                )
            origin[path.stem] = where
            resolved.append((set_name, path.stem, path))
    return resolved


def build_cells(config: BenchConfig) -> list[_Cell]:
    cells = []
    configs = {method: config.config_for(method) for method in config.methods}
    for set_name, instance_id, path in _resolve_instances(config):
        base = parse_psplib(path.read_text(encoding="utf-8"))
        for epsilon in config.epsilons:
            stochastic = make_stochastic(base, epsilon)
            for sample in range(config.samples_per_instance):
                seed = derive_seed(config.master_seed, instance_id, epsilon, sample)
                cells.append(
                    _Cell(
                        instance_set=set_name,
                        instance=instance_id,
                        stochastic=stochastic,
                        epsilon=epsilon,
                        sample=sample,
                        seed=seed,
                        methods=config.methods,
                        configs=configs,
                    )
                )
    return cells


def run_bench(
    config: BenchConfig,
    sink: Callable[[ResultRow], None] | None = None,
) -> tuple[ResultsTable, int]:
    """Execute the whole run matrix.

    Returns the sorted results table plus the number of cells excluded by
    the perfect-information filter.  ``sink`` receives rows as they are
    produced (completion order), which lets callers keep partial results
    when a later cell raises.  Work is distributed over ``config.jobs()``
    processes; because cells are independent and the table is sorted at
    the end, serial and parallel runs produce identical tables.
    """
    cells = build_cells(config)
    workers = config.jobs()
    rows: list[ResultRow] = []
    excluded = 0
    executor: ProcessPoolExecutor | None = None
    if workers > 1:
        executor = ProcessPoolExecutor(max_workers=workers)
        produced: Iterable[list[ResultRow] | None] = executor.map(_run_cell, cells)
    else:
        produced = map(_run_cell, cells)
    try:
        for cell_rows in produced:
            if cell_rows is None:
                excluded += 1
                continue
            for row in cell_rows:
                if sink is not None:
                    sink(row)
                rows.append(row)
    finally:
        if executor is not None:
            executor.shutdown()
    rows.sort(key=ResultRow.sort_key)
    return ResultsTable(rows=tuple(rows)), excluded


# --------------------------------------------------------------------------
# reporting


def feasibility_grid(table: ResultsTable) -> str:
    """Per-epsilon grid of feasible-run shares, methods by instance sets."""
    sets = table.instance_sets()
    lines = []
    for epsilon in table.epsilons():
        lines.append(f"feasibility ratios, epsilon={_format_number(epsilon)}")
        name_width = max([len("method")] + [len(m) for m in table.methods()])
        header = "  " + "method".ljust(name_width)
        for set_name in sets:
            header += "  " + set_name.rjust(max(5, len(set_name)))
        lines.append(header)
        for method in table.methods():
            line = "  " + method.ljust(name_width)
            for set_name in sets:
                ratio = feasibility_ratio(table, method, set_name, epsilon)
                text = "-" if ratio is None else f"{float(ratio):.2f}"
                line += "  " + text.rjust(max(5, len(set_name)))
            lines.append(line)
    return "\n".join(lines)


def feasibility_csv(table: ResultsTable) -> str:
    """Exact feasibility shares as CSV, one row per populated cell."""
    out = io.StringIO()
    out.write("epsilon,instance_set,method,feasible_ratio\n")
    writer = csv.writer(out, lineterminator="\n")
    for epsilon in table.epsilons():
        for set_name in table.instance_sets():
            for method in table.methods():
                ratio = feasibility_ratio(table, method, set_name, epsilon)
                if ratio is None:
                    continue
                writer.writerow(
                    [_format_number(epsilon), set_name, method, str(ratio)]
                )
    return out.getvalue()


def ordering_to_dot(ordering: PartialOrdering) -> str:
    """Graphviz rendering: solid edges for strong wins, dashed for weak."""
    lines = [f'digraph "{ordering.metric}" {{', "  rankdir=LR;"]
    for method in ordering.methods:
        lines.append(f'  "{method}";')
    for better, worse, strength in ordering.edges:
        style = "solid" if strength == STRONG else "dashed"
        lines.append(f'  "{better}" -> "{worse}" [style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def assert_acyclic(ordering: PartialOrdering) -> None:
    """Reject orderings whose edges form a cycle."""
    adjacency: dict[str, list[str]] = {m: [] for m in ordering.methods}
    for better, worse, _ in ordering.edges:
        adjacency[better].append(worse)
    done: set[str] = set()
    active: set[str] = set()

    def visit(node: str) -> None:
        if node in done:
            return
        if node in active:
            raise ValueError(f"method ordering on {ordering.metric} contains a cycle")
        active.add(node)
        for nxt in adjacency[node]:
            visit(nxt)
        active.discard(node)
        done.add(node)

    for method in ordering.methods:
        visit(method)


def ordering_report(ordering: PartialOrdering) -> str:
    """Readable pairwise test table plus the resulting edges."""
    lines = [
        f"pairwise tests, metric={ordering.metric}, "
        f"alpha={_format_number(ordering.alpha)}"
    ]
    for (name_a, name_b), tests in ordering.pair_tests.items():
        parts = [f"{name_a} vs {name_b} (n={tests.n_pairs})"]
        ranked = tests.signed_rank
        if ranked is None:
            parts.append("signed-rank n/a")
        else:
            flag = "*" if ranked.significant else ""
            parts.append(
                f"signed-rank z={ranked.statistic:+.3f} p={ranked.p_value:.4f}{flag}"
            )
        share = tests.win_share
        if share is None:
            parts.append("win-share n/a")
        else:
            flag = "*" if share.significant else ""
            parts.append(
                f"win-share {share.extras['proportion_a']:.3f} "
                f"p={share.p_value:.4f}{flag}"
            )
        annotation = ordering.annotations.get((name_a, name_b))
        if annotation is None:
            parts.append("magnitude n/a")
        else:
            parts.append(
                f"magnitude {annotation.extras['normalized_mean_a']:.3f}"
                f"/{annotation.extras['normalized_mean_b']:.3f}"
                f" p={annotation.p_value:.4f}"
            )
        lines.append("  " + "; ".join(parts))
    if ordering.edges:
        lines.append("edges (better -> worse):")
        for better, worse, strength in ordering.edges:
            lines.append(f"  {better} -> {worse} [{strength}]")
    else:
        lines.append("edges: none (no significant differences)")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# command line


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with status 1 instead of argparse's default 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_int_list(text: str, expected: int, label: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{label} must be a comma-separated list of integers") from None
    if len(values) != expected:
        raise ValueError(f"{label} needs {expected} values, got {len(values)}")
    return values


def _cmd_solve(args: argparse.Namespace) -> int:
    base = parse_psplib(Path(args.instance).read_text(encoding="utf-8"))
    if args.durations is None:
        durations = base.durations
    else:
        durations = _parse_int_list(args.durations, len(base.durations), "--durations")
    outcome = solve(base, durations, time_limit=args.time_limit)
    print(f"status: {outcome.status.value}")
    if outcome.schedule is not None:
        print(f"makespan: {outcome.schedule.makespan}")
        print("starts: " + ",".join(str(s) for s in outcome.schedule.starts))
    print(f"nodes: {outcome.nodes_explored}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    base = parse_psplib(Path(args.instance).read_text(encoding="utf-8"))
    starts = _parse_int_list(args.schedule, len(base.durations), "--schedule")
    if args.durations is None:
        durations = base.durations
    else:
        durations = _parse_int_list(args.durations, len(base.durations), "--durations")
    report = check_schedule(base, durations, Schedule.from_starts(starts, durations))
    if report.feasible:
        print("feasible")
    else:
        print("infeasible")
        for (i, j, weight), slack in report.precedence_violations:
            print(f"  lag ({i},{j},{weight}) violated by {-slack}")
        for resource, time, usage, capacity in report.resource_violations:
            print(
                f"  resource {resource} at time {time}: "
                f"usage {usage} exceeds capacity {capacity}"
            )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    if args.epsilon < 0:
        raise ValueError("--epsilon must be nonnegative")
    base = parse_psplib(Path(args.instance).read_text(encoding="utf-8"))
    instance_id = Path(args.instance).stem
    stochastic = make_stochastic(base, args.epsilon)
    config = _default_method_configs()[args.method]
    overrides: dict[str, object] = {}
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    if args.saa_gammas is not None:
        try:
            overrides["saa_gammas"] = tuple(
                float(part) for part in args.saa_gammas.split(",")
            )
        except ValueError:
            raise ValueError("--saa-gammas must be a comma-separated list of numbers") from None
    if args.time_limit_offline is not None:
        overrides["time_limit_offline"] = args.time_limit_offline
    if args.time_limit_reschedule is not None:
        overrides["time_limit_reschedule"] = args.time_limit_reschedule
    if overrides:
        config = dataclasses.replace(config, **overrides)  # type: ignore[arg-type]
    rows = []
    for sample in range(args.samples):
        cell = _Cell(
            instance_set=args.set,
            instance=instance_id,
            stochastic=stochastic,
            epsilon=args.epsilon,
            sample=sample,
            seed=derive_seed(args.seed, instance_id, args.epsilon, sample),
            methods=(args.method,),
            configs={args.method: config},
        )
        realized = sample_durations(stochastic, cell.seed)
        rows.append(_method_row(cell, args.method, realized))
    text = ResultsTable(rows=tuple(rows)).to_csv()
    if args.out is None:
        print(text, end="")
    else:
        path = Path(args.out)
        needs_header = not path.exists() or path.stat().st_size == 0
        with path.open("a", encoding="utf-8") as handle:
            handle.write(text if needs_header else text.partition("\n")[2])
        feasible_count = sum(row.feasible for row in rows)
        print(f"appended {len(rows)} rows ({feasible_count} feasible) to {path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = BenchConfig.from_json(args.config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    # rows stream to disk in completion order so an aborted run keeps its
    # partial results; a successful run rewrites the file in sorted order
    with results_path.open("w", encoding="utf-8") as handle:
        handle.write(CSV_HEADER + "\n")
        writer = csv.writer(handle, lineterminator="\n")

        def sink(row: ResultRow) -> None:
            writer.writerow(row.csv_fields())
            handle.flush()

        table, excluded = run_bench(config, sink)
    results_path.write_text(table.to_csv(), encoding="utf-8")
    feasibility_path = out_dir / "feasibility.csv"
    feasibility_path.write_text(feasibility_csv(table), encoding="utf-8")
    print(
        f"{len(table)} rows over {len(table.methods())} methods "
        f"({excluded} cells excluded as inherently infeasible)"
    )
    print(feasibility_grid(table))
    print(f"results: {results_path}")
    print(f"feasibility: {feasibility_path}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise ValueError("--alpha must lie strictly between 0 and 1")
    table = ResultsTable.from_csv(Path(args.results).read_text(encoding="utf-8"))
    runs = table.to_method_runs(epsilon=args.epsilon, instance_set=args.set)
    if not runs:
        raise ValueError("no rows match the requested filters")
    ordering = build_partial_ordering(runs, args.metric, args.alpha)
    assert_acyclic(ordering)
    print(ordering_report(ordering))
    if args.out is not None:
        Path(args.out).write_text(ordering_to_dot(ordering), encoding="utf-8")
        print(f"ordering graph: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="srcpsp",
        description="Workbench for stochastic RCPSP with minimum and maximum time lags.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="minimize the makespan of one instance")
    p_solve.add_argument("instance", help="instance file")
    p_solve.add_argument("--time-limit", type=float, default=60.0)
    p_solve.add_argument(
        "--durations", help="comma-separated duration override, one value per activity"
    )
    p_solve.set_defaults(handler=_cmd_solve)

    p_check = sub.add_parser("check", help="audit a schedule against an instance")
    p_check.add_argument("--instance", required=True)
    p_check.add_argument(
        "--schedule", required=True, help="comma-separated start times"
    )
    p_check.add_argument(
        "--durations", help="comma-separated duration override, one value per activity"
    )
    p_check.set_defaults(handler=_cmd_check)

    p_sim = sub.add_parser(
        "simulate", help="run one method on sampled realizations of one instance"
    )
    p_sim.add_argument("--instance", required=True)
    p_sim.add_argument("--method", required=True, choices=sorted(_RUNNERS))
    p_sim.add_argument("--epsilon", type=float, required=True)
    p_sim.add_argument("--samples", type=int, default=10)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--set", default="adhoc", help="instance-set label for the rows")
    p_sim.add_argument("--gamma", type=float)
    p_sim.add_argument("--saa-gammas", help="comma-separated quantile levels")
    p_sim.add_argument("--time-limit-offline", type=float)
    p_sim.add_argument("--time-limit-reschedule", type=float)
    p_sim.add_argument("--out", help="CSV file to append rows to (default: stdout)")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_bench = sub.add_parser("bench", help="run a full comparison matrix")
    p_bench.add_argument("--config", required=True, help="JSON configuration file")
    p_bench.set_defaults(handler=_cmd_bench)

    p_stats = sub.add_parser(
        "stats", help="significance tests and method ordering from a results CSV"
    )
    p_stats.add_argument("--results", required=True, help="results CSV file")
    p_stats.add_argument("--metric", required=True, choices=sorted(METRICS))
    p_stats.add_argument("--alpha", type=float, default=0.05)
    p_stats.add_argument("--epsilon", type=float, help="only rows at this epsilon")
    p_stats.add_argument("--set", help="only rows from this instance set")
    p_stats.add_argument("--out", help="write the ordering as a Graphviz file")
    p_stats.set_defaults(handler=_cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"srcpsp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
