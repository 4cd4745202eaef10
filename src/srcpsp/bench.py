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
import math
import sys
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, groupby
from pathlib import Path
from typing import Any, TextIO

from .instances import (
    DurationSample,
    ProjectInstance,
    StochasticInstance,
    make_stochastic,
    parse_psplib,
    sample_durations,
)
from .methods import (
    METHODS,
    MethodConfig,
    MethodRun,
    perfect_information_feasible,
    reusing_plans,
)
from .solver import Schedule, check_schedule, solve
from .stats import METRICS, STRONG, PartialOrdering, build_partial_ordering

# _method_row calls each runner through this dict, so a runner swapped into it is what runs
_RUNNERS = {name: method.run for name, method in METHODS.items()}


def _format_number(value: float) -> str:
    """Canonical text for epsilons and alphas: integral floats print as ints, -0.0 as 0."""
    return f"{value + 0.0:g}"


def derive_seed(master_seed: int, instance: str, epsilon: float, sample: int) -> int:
    """Stable per-cell seed shared by every method on the same sample."""
    key = f"{master_seed}:{instance}:{_format_number(epsilon)}:{sample}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


# --------------------------------------------------------------------------
# configuration


# a config value check: (key, value) -> the value to use, or ValueError
_Check = Callable[[str, object], Any]


def _kind(label: str, test: Callable[[Any], bool]) -> _Check:
    """A config value check: the value passes ``test`` and is not a bool."""

    def check(key: str, value: object) -> Any:
        if isinstance(value, bool) or not test(value):
            raise ValueError(f"{key} must be {label}, got {value!r}")
        return value

    return check


_integer = _kind("an integer", lambda v: isinstance(v, int))
_number = _kind("a finite number", lambda v: isinstance(v, (int, float)) and math.isfinite(v))
_text = _kind("a string", lambda v: isinstance(v, str))
_mapping = _kind("an object", lambda v: isinstance(v, Mapping))
_list = _kind("a list", lambda v: isinstance(v, Sequence) and not isinstance(v, str))


def _list_of(item: _Check) -> _Check:
    return lambda key, value: tuple(
        item(f"{key}[{i}]", v) for i, v in enumerate(_list(key, value))
    )


def _checked(fields: Mapping[str, _Check], data: Mapping[str, Any], prefix: str = "") -> dict:
    """Each value of ``data`` through its field's check; unknown keys fail."""
    unknown = sorted(prefix + str(key) for key in data if key not in fields)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return {key: fields[key](prefix + key, value) for key, value in data.items()}


# a tuple-valued setting is a list of numbers, any other setting one number
_METHOD_FIELDS = {
    f.name: _list_of(_number) if isinstance(f.default, tuple) else _number
    for f in dataclasses.fields(MethodConfig)
}


def _configured(method: str, overrides: Mapping[str, object], prefix: str = "") -> MethodConfig:
    """``method``'s default config with ``overrides``, each a setting the method reads."""
    if unread := sorted(set(overrides) & set(_METHOD_FIELDS) - set(METHODS[method].reads)):
        raise ValueError(f"{method} does not read {', '.join(unread)}")
    checked = _checked(_METHOD_FIELDS, overrides, prefix)
    return dataclasses.replace(METHODS[method].defaults, **checked)


def _method_configs(key: str, value: object) -> dict[str, MethodConfig]:
    """The configs of the methods ``value`` names; BenchConfig adds the rest."""
    configs = {}
    for name, overrides in _mapping(key, value).items():
        if name not in METHODS:
            raise ValueError(f"{key} for unknown method {name!r}")
        where = f"{key}[{name!r}]"
        configs[name] = _configured(name, _mapping(where, overrides), where + ".")
    return configs


def _instance_sets(key: str, value: object) -> tuple[tuple[str, tuple[str, ...]], ...]:
    patterns = _list_of(_text)
    return tuple(
        (name, (globs,) if isinstance(globs, str) else patterns(f"{key}[{name!r}]", globs))
        for name, globs in sorted(_mapping(key, value).items())
    )


_CONFIG_FIELDS = {
    "instance_sets": _instance_sets,
    "instances_per_set": _integer,
    "epsilons": lambda key, value: tuple(map(float, _list_of(_number)(key, value))),
    "samples_per_instance": _integer,
    "methods": _list_of(_text),
    "method_configs": _method_configs,
    "parallelism": _integer,
    "output_dir": _text,
    "master_seed": _integer,
}


@dataclass(frozen=True)
class BenchConfig:
    """Run-matrix description, usually loaded from a JSON document.

    ``instance_sets`` maps set names to glob patterns; each set contributes
    up to ``instances_per_set`` files in sorted path order.  Every method in
    ``methods`` is run on every (instance, epsilon, sample) cell that
    survives the perfect-information feasibility filter, using the same
    derived seed so method comparisons are paired.  ``method_configs`` is
    completed from the defaults when the config is built, and
    ``parallelism`` worker processes run the cells.
    """

    instance_sets: tuple[tuple[str, tuple[str, ...]], ...]
    instances_per_set: int = 50
    epsilons: tuple[float, ...] = (1.0, 2.0)
    samples_per_instance: int = 10
    methods: tuple[str, ...] = tuple(METHODS)
    method_configs: dict[str, MethodConfig] = field(default_factory=dict)
    parallelism: int = 1
    output_dir: str = "results"
    master_seed: int = 1

    def __post_init__(self) -> None:
        if not self.instance_sets:
            raise ValueError("config needs at least one instance set")
        for name, patterns in self.instance_sets:
            if not patterns:
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
        # seeds, keys and rows carry the printed text, so run the value it reads back as
        object.__setattr__(self, "epsilons", tuple(map(float, printed)))
        if not self.methods:
            raise ValueError("config needs at least one method")
        unknown = sorted(set(self.methods) - set(METHODS))
        if unknown:
            raise ValueError(f"unknown methods: {', '.join(unknown)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate method names")
        unknown = sorted(set(self.method_configs) - set(METHODS))
        if unknown:
            raise ValueError(f"method_configs for unknown methods: {', '.join(unknown)}")
        configs = self.method_configs
        object.__setattr__(
            self, "method_configs", {n: configs.get(n, m.defaults) for n, m in METHODS.items()}
        )
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")

    @classmethod
    def from_mapping(cls, data: Mapping[str, object]) -> BenchConfig:
        if "instance_sets" not in data:
            raise ValueError("config needs instance_sets")
        return cls(**_checked(_CONFIG_FIELDS, data))

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


def _seconds_as_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f}"


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"not a finite number: {text}")
    return value


def _printed(epsilon: float) -> float:
    """``epsilon`` as a results file prints it and reads it back."""
    return _finite(_format_number(epsilon))


def _ms_as_seconds(text: str) -> float:
    return _finite(text) / 1000.0


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError("feasible must be true or false")
    return text == "true"


# The results CSV, one column per entry in order: header, MethodRun field,
# field to text, text to field.  Times are seconds in a run, ms in the file.
_COLUMNS: tuple[tuple[str, str, Callable[[Any], str], Callable[[str], Any]], ...] = (
    ("instance_set", "instance_set", str, str),
    ("instance", "instance", str, str),
    ("epsilon", "epsilon", _format_number, _finite),
    ("sample", "sample", str, int),
    ("method", "method", str, str),
    ("feasible", "feasible", lambda v: "true" if v else "false", _flag),
    ("makespan", "makespan", lambda v: "" if v is None else str(v), lambda t: int(t) if t else None),
    ("time_offline_ms", "time_offline", _seconds_as_ms, _ms_as_seconds),
    ("time_online_ms", "time_online", _seconds_as_ms, _ms_as_seconds),
    ("failure_reason", "failure_reason", lambda v: v or "", lambda t: t or None),
    ("seed", "seed", str, int),
)

CSV_HEADER = ",".join(header for header, _, _, _ in _COLUMNS)


def _csv_sink(handle: TextIO, header: bool) -> Callable[[MethodRun], None]:
    """Row writer onto ``handle``, after the header if asked; each row is flushed."""
    if header:
        handle.write(CSV_HEADER + "\n")
    writer = csv.writer(handle, lineterminator="\n")

    def sink(run: MethodRun) -> None:
        writer.writerow([to_text(getattr(run, name)) for _, name, to_text, _ in _COLUMNS])
        handle.flush()

    return sink


def sort_key(run: MethodRun) -> tuple:
    """Results-table order: set, instance, epsilon, sample, method."""
    return (run.instance_set, run.instance, run.epsilon, run.sample, run.method)


def _row_key(run: MethodRun) -> tuple[str, str, float | None, int | None]:
    """What one results table holds at most once: method, instance, epsilon, sample."""
    return (run.method, run.instance, run.epsilon, run.sample)


@dataclass(frozen=True)
class ResultsTable:
    """Immutable collection of cell-stamped method runs, one per cell and method."""

    rows: tuple[MethodRun, ...]

    def __post_init__(self) -> None:
        seen: set[tuple[str, str, float | None, int | None]] = set()
        for row in self.rows:
            if (key := _row_key(row)) in seen:
                raise ValueError(f"duplicate result row for {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self) -> str:
        out = io.StringIO()
        sink = _csv_sink(out, header=True)
        for row in self.rows:
            sink(row)
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> ResultsTable:
        if not text:
            raise ValueError("results CSV is empty")
        reader = csv.reader(io.StringIO(text))
        rows = []
        try:
            if next(reader) != CSV_HEADER.split(","):
                raise ValueError("results CSV has an unexpected header")
            for record in filter(None, reader):  # blank lines hold no record
                if len(record) != len(_COLUMNS):
                    raise ValueError(f"expected {len(_COLUMNS)} fields, got {len(record)}")
                fields = {name: parse(text) for (_, name, _, parse), text in zip(_COLUMNS, record)}
                rows.append(MethodRun(**fields, starts=None))
        # a bad value, a stray carriage return or an oversized field, at the line its record ends
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        return cls(rows=tuple(rows))

    def to_method_runs(
        self,
        epsilon: float | None = None,
        instance_set: str | None = None,
    ) -> tuple[MethodRun, ...]:
        """Runs for the significance tests, optionally of one epsilon or set.

        Seeds key the pairing, so filtering by epsilon keeps scenarios from
        mixing across noise levels even though each cell's seed already
        differs.
        """
        return tuple(
            run
            for run in self.rows
            if (epsilon is None or run.epsilon == epsilon)
            and (instance_set is None or run.instance_set == instance_set)
        )

    def methods(self) -> tuple[str, ...]:
        return tuple(sorted({row.method for row in self.rows}))


def feasibility_shares(table: ResultsTable) -> dict[tuple[float, str, str], Fraction]:
    """Exact share of feasible runs per populated (epsilon, set, method) cell."""
    counts: dict[tuple[float, str, str], list[int]] = {}
    for row in table.rows:
        tally = counts.setdefault((row.epsilon, row.instance_set, row.method), [0, 0])
        tally[0] += row.feasible
        tally[1] += 1
    return {cell: Fraction(feasible, total) for cell, (feasible, total) in counts.items()}


# --------------------------------------------------------------------------
# run matrix


@dataclass(frozen=True)
class _Cell:
    """One (instance, epsilon, sample) unit of work: every method in ``configs``."""

    instance_set: str
    instance: str
    stochastic: StochasticInstance
    sample: int
    seed: int
    configs: dict[str, MethodConfig]


def _method_row(cell: _Cell, method: str, sample: DurationSample) -> MethodRun:
    """Run one method on the cell's realized sample, audit it, and stamp the cell."""
    run = _RUNNERS[method](cell.stochastic, cell.configs[method], sample)
    # replay every claimed-feasible execution, and its makespan, before it is persisted
    if run.feasible:
        if run.starts is None or len(run.starts) != len(sample.durations):
            raise RuntimeError(
                f"audit failure: {method} reported no start for every activity on {cell.instance}"
            )
        schedule = Schedule.from_starts(run.starts, sample.durations)
        report = check_schedule(cell.stochastic.base, sample.durations, schedule)
        if report.early_starts:
            raise RuntimeError(
                f"audit failure: {method} reported a start before time 0 on {cell.instance}"
            )
        if not report.feasible:
            raise RuntimeError(
                f"audit failure: {method} reported an infeasible execution "
                f"as feasible on {cell.instance}"
            )
        if run.makespan != schedule.makespan:
            raise RuntimeError(
                f"audit failure: {method} reported makespan {run.makespan} on "
                f"{cell.instance}, but its starts replay to {schedule.makespan}"
            )
    return dataclasses.replace(
        run,
        instance_set=cell.instance_set,
        instance=cell.instance,
        epsilon=cell.stochastic.epsilon,
        sample=cell.sample,
        seed=cell.seed,
        starts=None,
    )


def _run_cell(cell: _Cell) -> list[MethodRun] | None:
    """All methods on one realized sample; None when the cell is excluded."""
    sample = sample_durations(cell.stochastic, cell.seed)
    filter_limit = max(config.time_limit_offline for config in cell.configs.values())
    if not perfect_information_feasible(cell.stochastic, sample, filter_limit):
        return None
    return [_method_row(cell, method, sample) for method in cell.configs]


def _groups(cells: list[_Cell]) -> list[list[_Cell]]:
    """The cells cut into contiguous runs of one (set, instance, epsilon), in order."""
    return [
        list(group)
        for _, group in groupby(cells, lambda c: (c.instance_set, c.instance, c.stochastic.epsilon))
    ]


def _group_rows(group: list[_Cell]) -> Iterator[list[MethodRun] | None]:
    """Each cell's ``_run_cell`` result as it finishes, every plan made once per group."""
    plans: dict = {}
    for cell in group:
        with reusing_plans(plans):
            cell_rows = _run_cell(cell)
        yield cell_rows


def _run_group(group: list[_Cell]) -> list[list[MethodRun] | None]:
    """A worker's unit: one whole group, so a parallel run also plans once per group."""
    return list(_group_rows(group))


def _resolve_instances(config: BenchConfig) -> list[tuple[str, str, Path]]:
    """(set name, instance id, path) triples in deterministic order.

    Instance ids (file stems) key the result rows, so one id in two places
    is rejected before any cell runs.
    """
    resolved = []
    origin: dict[str, str] = {}
    for set_name, patterns in config.instance_sets:
        paths = list(dict.fromkeys(Path(m) for p in patterns for m in sorted(globlib.glob(p))))
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
    """Every cell of the run matrix, in instance, epsilon and sample order."""
    configs = {method: config.method_configs[method] for method in config.methods}
    cells = []
    for set_name, instance_id, path in _resolve_instances(config):
        base = parse_psplib(path.read_text(encoding="utf-8"))
        for epsilon in config.epsilons:
            stochastic = make_stochastic(base, epsilon)
            # one seed per cell, shared by all its methods so their runs are paired
            for sample in range(config.samples_per_instance):
                seed = derive_seed(config.master_seed, instance_id, stochastic.epsilon, sample)
                cells.append(_Cell(set_name, instance_id, stochastic, sample, seed, configs))
    return cells


def run_bench(
    cells: list[_Cell], workers: int, sink: Callable[[MethodRun], None] | None = None
) -> tuple[ResultsTable, int]:
    """Run built cells over ``workers`` processes into a sorted table.

    Returns the sorted results table plus the number of cells excluded by
    the perfect-information filter.  ``sink`` receives rows as they are
    produced (completion order), which lets callers keep partial results
    when a later cell raises.  Each (instance, epsilon) group of cells plans
    once and runs in one process, so at most one worker per group starts.
    Because plans and cells are independent of the process running them and
    the table is sorted at the end, serial and parallel runs produce
    identical tables.
    """
    rows: list[MethodRun] = []
    excluded = 0
    groups = _groups(cells)
    workers = min(workers, len(groups))  # a pool forks all its workers at the first submit
    if workers > 1:  # imported here, so serial runs do not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        per_group = map(_group_rows, groups) if pool is None else pool.map(_run_group, groups)
        for cell_rows in chain.from_iterable(per_group):
            if cell_rows is None:
                excluded += 1
                continue
            for row in cell_rows:
                if sink is not None:
                    sink(row)
                rows.append(row)
    rows.sort(key=sort_key)
    return ResultsTable(rows=tuple(rows)), excluded


# --------------------------------------------------------------------------
# reporting


def feasibility_grid(table: ResultsTable) -> str:
    """Per-epsilon grid of feasible-run shares, methods by instance sets."""
    shares = feasibility_shares(table)
    sets = sorted({set_name for _, set_name, _ in shares})
    methods = table.methods()
    name_width = max(map(len, ("method", *methods)))

    def row(name: str, texts: Sequence[str]) -> str:
        cells = (f"  {text:>{max(5, len(set_name))}}" for set_name, text in zip(sets, texts))
        return f"  {name:<{name_width}}" + "".join(cells)

    lines = []
    for epsilon in sorted({epsilon for epsilon, _, _ in shares}):
        lines.append(f"feasibility ratios, epsilon={_format_number(epsilon)}")
        lines.append(row("method", sets))
        for method in methods:
            ratios = (shares.get((epsilon, set_name, method)) for set_name in sets)
            lines.append(row(method, ["-" if r is None else f"{float(r):.2f}" for r in ratios]))
    return "\n".join(lines)


def feasibility_csv(table: ResultsTable) -> str:
    """Exact feasibility shares as CSV, one row per populated cell."""
    out = io.StringIO()
    out.write("epsilon,instance_set,method,feasible_ratio\n")
    csv.writer(out, lineterminator="\n").writerows(
        [_format_number(epsilon), set_name, method, str(ratio)]
        for (epsilon, set_name, method), ratio in sorted(feasibility_shares(table).items())
    )
    return out.getvalue()


def _dot_id(name: str) -> str:
    """``name`` as one DOT quoted string, its backslashes and quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def ordering_to_dot(ordering: PartialOrdering) -> str:
    """Graphviz rendering: solid edges for strong wins, dashed for weak."""
    lines = [f"digraph {_dot_id(ordering.metric)} {{", "  rankdir=LR;"]
    for method in ordering.methods:
        lines.append(f"  {_dot_id(method)};")
    for better, worse, strength in ordering.edges:
        style = "solid" if strength == STRONG else "dashed"
        lines.append(f"  {_dot_id(better)} -> {_dot_id(worse)} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# The reported tests: label, PairTests field, the value shown before p (from the
# statistic and the extras), and whether p < alpha is marked (ordering tests only).
_REPORTED_TESTS = (
    ("signed-rank", "signed_rank", "z={statistic:+.3f}", True),
    ("win-share", "win_share", "{proportion_a:.3f}", True),
    ("magnitude", "magnitude", "{normalized_mean_a:.3f}/{normalized_mean_b:.3f}", False),
)


def ordering_report(ordering: PartialOrdering) -> str:
    """Readable pairwise test table plus the resulting edges."""
    lines = [f"pairwise tests, metric={ordering.metric}, alpha={_format_number(ordering.alpha)}"]
    for (name_a, name_b), tests in ordering.pair_tests.items():
        parts = [f"{name_a} vs {name_b} (n={tests.n_pairs})"]
        for label, name, shown, marked in _REPORTED_TESTS:
            result = getattr(tests, name)
            if result is None:
                parts.append(f"{label} n/a")
            else:
                flag = "*" if marked and result.p_value < ordering.alpha else ""
                value = shown.format(statistic=result.statistic, **result.extras)
                parts.append(f"{label} {value} p={result.p_value:.4f}{flag}")
        lines.append("  " + "; ".join(parts))
    if ordering.edges:
        lines.append("edges (better -> worse):")
        for better, worse, strength in ordering.edges:
            lines.append(f"  {better} -> {worse} [{strength}]")
    elif any(t.win_share and t.win_share.p_value < ordering.alpha for t in ordering.pair_tests.values()):
        lines.append("edges: none (each significant win-share closed a cycle and was dropped)")
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


def _comma_list(kind: type[int] | type[float]) -> Callable[[str], tuple]:
    """An argparse type: comma-separated ``kind`` values, else a usage error."""
    label = "integers" if kind is int else "numbers"

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated list of {label}: {text!r}") from None

    return parse


def _one_per_activity(values: tuple[int, ...], expected: int, label: str) -> tuple[int, ...]:
    if len(values) != expected:
        raise ValueError(f"{label} needs {expected} values, got {len(values)}")
    return values


def _instance_and_durations(args: argparse.Namespace) -> tuple[ProjectInstance, tuple[int, ...]]:
    """The ``--instance`` file and its durations, or the ``--durations`` override."""
    base = parse_psplib(Path(args.instance).read_text(encoding="utf-8"))
    if args.durations is None:
        return base, base.durations
    durations = _one_per_activity(args.durations, len(base.durations), "--durations")
    if min(durations) < 0:
        raise ValueError("--durations must be nonnegative")
    return base, durations


def _cmd_solve(args: argparse.Namespace) -> int:
    if not args.time_limit > 0:
        raise ValueError("--time-limit must be positive")
    base, durations = _instance_and_durations(args)
    outcome = solve(base, durations, time_limit=args.time_limit)
    print(f"status: {outcome.status.value}")
    if outcome.schedule is not None:
        print(f"makespan: {outcome.schedule.makespan}")
        print("starts: " + ",".join(str(s) for s in outcome.schedule.starts))
    print(f"nodes: {outcome.nodes_explored}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    base, durations = _instance_and_durations(args)
    starts = _one_per_activity(args.schedule, len(base.durations), "--schedule")
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
        for activity, start in report.early_starts:
            print(f"  activity {activity} starts at {start}, before time 0")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    overrides = {key: value for key in _METHOD_FIELDS if (value := getattr(args, key)) is not None}
    # the cells of a one-instance bench, run without its perfect-information filter
    config = BenchConfig(
        instance_sets=((args.set, (globlib.escape(args.instance),)),),
        epsilons=(args.epsilon,),
        samples_per_instance=args.samples,
        methods=(args.method,),
        method_configs={args.method: _configured(args.method, overrides)},
        master_seed=args.seed,
    )
    cells = build_cells(config)
    path = None if args.out is None else Path(args.out)
    kept = "" if path is None or not path.exists() else path.read_text(encoding="utf-8")
    try:
        taken = {_row_key(row) for row in ResultsTable.from_csv(kept).rows} if kept else set()
    except ValueError as exc:
        raise ValueError(f"{path} is not a results CSV ({exc}); not appending to it") from None
    for cell in cells:
        if (key := (args.method, cell.instance, cell.stochastic.epsilon, cell.sample)) in taken:
            raise ValueError(f"{path} already holds a row for {key}; not appending to it")
    with reusing_plans({}):  # one instance and epsilon: one plan for every sample
        rows = [
            _method_row(cell, args.method, sample_durations(cell.stochastic, cell.seed))
            for cell in cells
        ]
    with nullcontext(sys.stdout) if path is None else path.open("a", encoding="utf-8") as out:
        if kept and not kept.endswith("\n"):  # no row glued onto an unterminated line
            out.write("\n")
        sink = _csv_sink(out, header=not kept)
        for row in rows:
            sink(row)
    if path is not None:
        print(f"appended {len(rows)} rows ({sum(row.feasible for row in rows)} feasible) to {path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = BenchConfig.from_json(args.config)
    # building the cells resolves and parses every instance, so a config
    # rejected there leaves the previous results files alone
    cells = build_cells(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    feasibility_path = out_dir / "feasibility.csv"
    # rows stream to disk in completion order so an aborted run keeps its partial
    # results (and no earlier feasibility table); a success rewrites them sorted
    feasibility_path.unlink(missing_ok=True)
    with results_path.open("w", encoding="utf-8") as handle:
        table, excluded = run_bench(cells, config.parallelism, _csv_sink(handle, header=True))
    results_path.write_text(table.to_csv(), encoding="utf-8")
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
    epsilon = None if args.epsilon is None else _printed(args.epsilon)
    runs = table.to_method_runs(epsilon=epsilon, instance_set=args.set)
    if not runs:
        raise ValueError("no rows match the requested filters")
    ordering = build_partial_ordering(runs, args.metric, args.alpha)
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
    p_solve.set_defaults(handler=_cmd_solve)

    p_check = sub.add_parser("check", help="audit a schedule against an instance")
    p_check.add_argument("--instance", required=True)
    p_check.add_argument(
        "--schedule", required=True, type=_comma_list(int), help="comma-separated start times"
    )
    p_check.set_defaults(handler=_cmd_check)
    for p in (p_solve, p_check):
        p.add_argument(
            "--durations",
            type=_comma_list(int),
            help="comma-separated duration override, one value per activity",
        )

    p_sim = sub.add_parser(
        "simulate", help="run one method on sampled realizations of one instance"
    )
    p_sim.add_argument("--instance", required=True)
    p_sim.add_argument("--method", required=True, choices=sorted(METHODS))
    p_sim.add_argument("--epsilon", type=float, required=True)
    p_sim.add_argument("--samples", type=int, default=10)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--set", default="adhoc", help="instance-set label for the rows")
    for name, check in _METHOD_FIELDS.items():
        flag = "--" + name.replace("_", "-")
        if check is _number:
            p_sim.add_argument(flag, type=float)
        else:
            p_sim.add_argument(flag, type=_comma_list(float), help="comma-separated numbers")
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
    except (OSError, ValueError) as exc:
        print(f"srcpsp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
