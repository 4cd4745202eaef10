"""Harness tests: config loading, seeding, CSV I/O, the run matrix, the CLI."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from srcpsp import bench, methods
from srcpsp.bench import (
    CSV_HEADER,
    BenchConfig,
    ResultsTable,
    build_cells,
    derive_seed,
    feasibility_csv,
    feasibility_grid,
    feasibility_shares,
    ordering_report,
    ordering_to_dot,
    run_bench,
    sort_key,
)
from srcpsp.instances import ProjectInstance, quantile_durations, serialize_psplib
from srcpsp.methods import (
    METHODS,
    PROACTIVE_Q,
    REACTIVE,
    STNU,
    MethodConfig,
    MethodRun,
    run_proactive_quantile,
)
from srcpsp.stats import (
    QUALITY,
    STRONG,
    WEAK,
    PairTests,
    PartialOrdering,
    TestResult as PairTestResult,
    UndefinedTest,
    build_partial_ordering,
    method_pair_series,
    proportion_test,
    wilcoxon_pratt,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
EXAMPLE = DATA / "example.sch"

UNSATISFIABLE = ProjectInstance(
    activity_count=1,
    durations=(0, 1, 0),
    demands=((0, 1, 0),),
    capacities=(1,),
    # window [5, 1] is empty, so no duration vector admits a schedule
    temporal_constraints=((0, 1, 5), (1, 0, -1), (0, 2, 0), (1, 2, 1)),
)


def make_row(**overrides) -> MethodRun:
    base = dict(
        instance_set="j10",
        instance="j10_01",
        epsilon=1.0,
        sample=0,
        method=PROACTIVE_Q,
        feasible=True,
        makespan=20,
        time_offline=0.0125,
        time_online=0.00025,
        failure_reason=None,
        seed=42,
        starts=None,
    )
    base.update(overrides)
    return MethodRun(**base)


# -- seed derivation -------------------------------------------------------


def test_derive_seed_is_stable_and_in_range():
    seed = derive_seed(1, "psp01", 1.0, 0)
    assert seed == derive_seed(1, "psp01", 1.0, 0)
    assert 0 <= seed < 2**63


def test_derive_seed_treats_integral_epsilon_canonically():
    assert derive_seed(5, "x", 1, 3) == derive_seed(5, "x", 1.0, 3)
    assert derive_seed(5, "x", 0.5, 3) != derive_seed(5, "x", 1.0, 3)


def test_derive_seed_separates_cells():
    seeds = {
        derive_seed(master, inst, eps, k)
        for master in (1, 2)
        for inst in ("a", "b")
        for eps in (1.0, 2.0)
        for k in range(3)
    }
    assert len(seeds) == 24


# -- configuration ---------------------------------------------------------


def test_config_defaults_from_minimal_mapping():
    cfg = BenchConfig.from_mapping({"instance_sets": {"j10": "data/j10/*.sch"}})
    assert cfg.instance_sets == (("j10", ("data/j10/*.sch",)),)
    assert cfg.instances_per_set == 50
    assert cfg.epsilons == (1.0, 2.0)
    assert cfg.samples_per_instance == 10
    assert cfg.methods == tuple(METHODS)
    assert cfg.parallelism == 1
    assert cfg.method_configs[STNU].gamma == 1.0
    assert cfg.method_configs["proactive_saa"].time_limit_offline == 300.0
    assert cfg.method_configs["reactive"].time_limit_reschedule == 2.0


def test_config_merges_method_overrides():
    cfg = BenchConfig.from_mapping(
        {
            "instance_sets": {"s": ["a*.sch", "b*.sch"]},
            "method_configs": {
                "stnu": {"gamma": 0.5},
                "proactive_saa": {"saa_gammas": [0.5, 1.0]},
            },
        }
    )
    assert cfg.method_configs["stnu"].gamma == 0.5
    # untouched settings keep their defaults
    assert cfg.method_configs["stnu"].time_limit_offline == 60.0
    assert cfg.method_configs["proactive_saa"].saa_gammas == (0.5, 1.0)
    assert cfg.method_configs["proactive_q"].gamma == 0.9
    # a config built directly is completed from the same defaults
    direct = BenchConfig(instance_sets=(("s", ("*.sch",)),))
    assert direct.method_configs == {name: m.defaults for name, m in METHODS.items()}


@pytest.mark.parametrize(
    "mapping",
    [
        {},
        {"instance_sets": {}},
        {"instance_sets": {"s": "*.sch"}, "bogus_key": 1},
        {"instance_sets": {"s": "*.sch"}, "instances_per_set": 0},
        {"instance_sets": {"s": "*.sch"}, "samples_per_instance": 0},
        {"instance_sets": {"s": "*.sch"}, "epsilons": []},
        {"instance_sets": {"s": "*.sch"}, "epsilons": [-1]},
        {"instance_sets": {"s": "*.sch"}, "methods": []},
        {"instance_sets": {"s": "*.sch"}, "methods": ["warlock"]},
        {"instance_sets": {"s": "*.sch"}, "methods": ["stnu", "stnu"]},
        {"instance_sets": {"s": "*.sch"}, "method_configs": {"warlock": {}}},
        {"instance_sets": {"s": "*.sch"}, "method_configs": {"stnu": {"bogus": 1}}},
        {"instance_sets": {"s": "*.sch"}, "alpha": 0},
        {"instance_sets": {"s": "*.sch"}, "alpha": 1},
        {"instance_sets": {"s": "*.sch"}, "parallelism": 0},
        # wrong value types: truncated, coerced or crashing before
        {"instance_sets": {"s": "*.sch"}, "master_seed": 1.9},
        {"instance_sets": {"s": "*.sch"}, "instances_per_set": 2.7},
        {"instance_sets": {"s": "*.sch"}, "parallelism": 1.5},
        {"instance_sets": {"s": "*.sch"}, "master_seed": True},
        {"instance_sets": {"s": "*.sch"}, "epsilons": ["1"]},
        {"instance_sets": {"s": "*.sch"}, "epsilons": [float("nan")]},
        {"instance_sets": {"s": "*.sch"}, "output_dir": None},
        {"instance_sets": {"s": "*.sch"}, "method_configs": {"stnu": {"gamma": "0.9"}}},
        {"instance_sets": {"s": "*.sch"}, "method_configs": {"proactive_saa": {"saa_gammas": 0.5}}},
        {"instance_sets": {"s": "*.sch"}, "parallelism": None},
        # settings the method never reads
        {"instance_sets": {"s": "*.sch"}, "method_configs": {"proactive_saa": {"gamma": 0.5}}},
        {"instance_sets": {"s": "*.sch"}, "method_configs": {"stnu": {"saa_gammas": [0.5]}}},
        {"instance_sets": {"s": "*.sch"}, "method_configs": {"proactive_q": {"time_limit_reschedule": 1}}},
        {"instance_sets": {"s": "*.sch"}, "method_configs": {"reactive": {"saa_gammas": [0.5]}}},
        # a set with no patterns
        {"instance_sets": {"s": []}},
    ],
)
def test_config_rejects_bad_mappings(mapping):
    with pytest.raises(ValueError):
        BenchConfig.from_mapping(mapping)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"master_seed": 1.9}, "master_seed must be an integer, got 1.9"),
        ({"epsilons": [1, float("inf")]}, r"epsilons\[1\] must be a finite number"),
        ({"output_dir": None}, "output_dir must be a string, got None"),
        (
            {"method_configs": {"stnu": {"time_limit_offline": "60"}}},
            r"method_configs\['stnu'\]\.time_limit_offline must be a finite number",
        ),
        ({"method_configs": {"stnu": {"bogus": 1}}}, r"method_configs\['stnu'\]\.bogus"),
        ({"parallelism": None}, "parallelism must be an integer, got None"),
        (
            {"method_configs": {"proactive_saa": {"gamma": 0.5, "time_limit_reschedule": 1}}},
            "proactive_saa does not read gamma, time_limit_reschedule",
        ),
    ],
)
def test_config_type_errors_name_the_key(setting, message):
    with pytest.raises(ValueError, match=message):
        BenchConfig.from_mapping({"instance_sets": {"s": "*.sch"}, **setting})


def test_config_built_directly_rejects_unknown_method_configs():
    # from_mapping rejects such a key before the dataclass sees it
    with pytest.raises(ValueError, match="method_configs for unknown methods: bogus"):
        BenchConfig(instance_sets=(("s", ("x",)),), method_configs={"bogus": MethodConfig()})


def test_readme_bench_example_shows_the_defaults():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    shown = BenchConfig.from_mapping(example)
    defaults = BenchConfig.from_mapping({"instance_sets": example["instance_sets"]})
    assert set(example) == {f.name for f in dataclasses.fields(BenchConfig)}
    for key in set(example) - {"instance_sets"}:
        assert getattr(shown, key) == getattr(defaults, key), key


def test_readme_names_a_simulate_flag_for_every_method_setting():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    simulate = readme.split("### simulate\n", 1)[1].split("\n### ", 1)[0]
    for setting in dataclasses.fields(MethodConfig):
        assert f"`--{setting.name.replace('_', '-')}`" in simulate, setting.name


def test_config_rejects_epsilons_that_print_alike():
    # both would write epsilon "1" and share every seed
    mapping = {"instance_sets": {"s": "*.sch"}, "epsilons": [1, 1.0000001]}
    with pytest.raises(ValueError, match=r"1\.0 and 1\.0000001 both print as 1,"):
        BenchConfig.from_mapping(mapping)


def test_cli_bench_refuses_negative_zero_beside_zero(tmp_path, monkeypatch, capsys):
    # -0.0 passes the nonnegative check, but prints and seeds as 0
    def no_cell(cell):
        raise AssertionError("a cell ran before the clash was reported")

    monkeypatch.setattr(bench, "_run_cell", no_cell)
    config = {
        "instance_sets": {"demo": str(EXAMPLE)},
        "epsilons": [0, -0.0],
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert bench.main(["bench", "--config", str(cfg_path)]) == 2
    assert "0 and -0.0 both print as 0," in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_from_json_reports_bad_documents(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="invalid JSON"):
        BenchConfig.from_json(path)
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError, match="JSON object"):
        BenchConfig.from_json(path)


# -- results table ---------------------------------------------------------


def test_results_csv_round_trip():
    rows = (
        make_row(sample=0, makespan=20),
        make_row(sample=1, feasible=False, makespan=None, failure_reason="not_dc"),
    )
    table = ResultsTable(rows=rows)
    text = table.to_csv()
    assert text.splitlines()[0] == CSV_HEADER
    again = ResultsTable.from_csv(text)
    assert again.rows == rows


def test_results_csv_skips_blank_lines():
    rows = (make_row(sample=0), make_row(sample=1))
    header, first, second = ResultsTable(rows=rows).to_csv().splitlines()
    text = "\n".join([header, "", first, "", second, ""]) + "\n"
    assert ResultsTable.from_csv(text).rows == rows


def test_results_table_rejects_duplicate_cells():
    row = make_row()
    with pytest.raises(ValueError, match="duplicate"):
        ResultsTable(rows=(row, dataclasses.replace(row, seed=7)))


def test_results_csv_rejects_foreign_headers():
    with pytest.raises(ValueError, match="header"):
        ResultsTable.from_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="empty"):
        ResultsTable.from_csv("")


def test_results_csv_reports_offending_line():
    text = CSV_HEADER + "\nj10,i,1,0,stnu,maybe,3,1.0,1.0,,5\n"
    with pytest.raises(ValueError, match="line 2"):
        ResultsTable.from_csv(text)
    text = CSV_HEADER + "\nj10,i,1,0\n"
    with pytest.raises(ValueError, match="line 2"):
        ResultsTable.from_csv(text)
    # each row must make a valid run record
    good = "j10,i,1,0,stnu,true,3,1.0,1.0,,5\n"
    text = CSV_HEADER + "\n" + good + "j10,i,1,1,stnu,true,,1.0,1.0,,6\n"
    with pytest.raises(ValueError, match="line 3: feasible run must report a makespan"):
        ResultsTable.from_csv(text)
    text = CSV_HEADER + "\n" + good + "j10,i,1,1,stnu,false,,-1.0,1.0,not_dc,6\n"
    with pytest.raises(ValueError, match="line 3: time components must be nonnegative"):
        ResultsTable.from_csv(text)
    # a run is feasible exactly when it has a makespan and no failure tag
    for bad, message in (
        ("j10,i,1,1,stnu,false,12,1.0,1.0,,6", "exactly when it has no failure reason"),
        ("j10,i,1,1,stnu,false,12,1.0,1.0,not_dc,6", "infeasible run must not report a makespan"),
        ("j10,i,1,1,stnu,true,12,1.0,1.0,not_dc,6", "exactly when it has no failure reason"),
        ("j10,i,1,1,stnu,true,-3,1.0,1.0,,6", "makespan must be nonnegative"),
    ):
        with pytest.raises(ValueError, match=f"line 3: .*{message}"):
            ResultsTable.from_csv(CSV_HEADER + "\n" + good + bad + "\n")
    # non-finite numbers are not run records, and a row keyed nan would slip
    # past the duplicate-row check because nan != nan
    for bad in (
        "j10,i,nan,0,stnu,true,3,nan,inf,,5",
        "j10,i,inf,1,stnu,true,3,1.0,1.0,,6",
        "j10,i,1,1,stnu,true,3,nan,1.0,,6",
        "j10,i,1,1,stnu,false,,1.0,inf,not_dc,6",
    ):
        with pytest.raises(ValueError, match="line 3: not a finite number"):
            ResultsTable.from_csv(CSV_HEADER + "\n" + good + bad + "\n")
    # the csv module's own errors: a carriage return inside a field, a field over its size limit
    for bad in ("j10,i\rx,1,1,stnu,true,3,1.0,1.0,,6", "j10," + "i" * 200_000 + ",1,1,stnu,true,3,1.0,1.0,,6"):
        with pytest.raises(ValueError, match="line 3: "):
            ResultsTable.from_csv(CSV_HEADER + "\n" + good + bad + "\n")
    # ... and in the header line
    with pytest.raises(ValueError, match="line 1: "):
        ResultsTable.from_csv(CSV_HEADER.replace("instance,", "inst\rance,") + "\n")
    # a quoted field spanning lines 2-3 puts the next record on line 4
    spanning = 'j10,"i\nj",1,0,stnu,true,3,1.0,1.0,,5\n'
    with pytest.raises(ValueError, match="line 4: feasible must be true or false"):
        ResultsTable.from_csv(CSV_HEADER + "\n" + spanning + "j10,i,1,1,stnu,maybe,3,1.0,1.0,,6\n")


def test_to_method_runs_converts_and_filters():
    rows = (
        make_row(epsilon=1.0, method="stnu", makespan=11),
        make_row(epsilon=2.0, method="stnu", sample=1, seed=43),
        make_row(epsilon=1.0, method="reactive", instance_set="ubo", seed=44),
    )
    # through the CSV, whose time columns are milliseconds
    table = ResultsTable.from_csv(ResultsTable(rows=rows).to_csv())
    runs = table.to_method_runs()
    assert len(runs) == 3
    assert all(isinstance(r, MethodRun) for r in runs)
    assert runs[0].time_offline == pytest.approx(0.0125)
    assert runs[0].time_online == pytest.approx(0.00025)
    only_eps1 = table.to_method_runs(epsilon=1.0)
    assert {r.method for r in only_eps1} == {"stnu", "reactive"}
    only_ubo = table.to_method_runs(instance_set="ubo")
    assert [r.method for r in only_ubo] == ["reactive"]


def test_feasibility_ratio_is_exact_or_absent():
    rows = tuple(
        make_row(sample=k, feasible=k < 7, makespan=20 if k < 7 else None,
                 failure_reason=None if k < 7 else "execution_violation")
        for k in range(10)
    ) + (make_row(method=STNU, epsilon=2.0),)
    table = ResultsTable(rows=rows)
    shares = feasibility_shares(table)
    assert shares == {
        (1.0, "j10", PROACTIVE_Q): Fraction(7, 10),
        (2.0, "j10", STNU): Fraction(1),
    }
    # the empty cells: proactive_q at epsilon 2, stnu at epsilon 1
    assert (2.0, "j10", PROACTIVE_Q) not in shares
    assert (1.0, "j10", STNU) not in shares
    grid = feasibility_grid(table).splitlines()
    assert grid[0] == "feasibility ratios, epsilon=1"
    assert grid[2].split() == [PROACTIVE_Q, "0.70"]
    assert grid[3].split() == [STNU, "-"]
    assert grid[6].split() == [PROACTIVE_Q, "-"]
    assert grid[7].split() == [STNU, "1.00"]
    assert feasibility_csv(table).splitlines()[1:] == [
        "1,j10,proactive_q,7/10",
        "2,j10,stnu,1",
    ]


# -- run matrix ------------------------------------------------------------


def small_config(tmp_path, **overrides) -> BenchConfig:
    mapping = {
        "instance_sets": {"demo": str(EXAMPLE)},
        "instances_per_set": 1,
        "epsilons": [1],
        "samples_per_instance": 3,
        "methods": [PROACTIVE_Q, STNU],
        "output_dir": str(tmp_path / "out"),
        "master_seed": 11,
    }
    mapping.update(overrides)
    return BenchConfig.from_mapping(mapping)


def run_config(config: BenchConfig, sink=None):
    return run_bench(build_cells(config), config.parallelism, sink)


def test_run_bench_produces_sorted_complete_table(tmp_path):
    table, excluded = run_config(small_config(tmp_path))
    assert excluded == 0
    assert len(table) == 6  # 3 samples x 2 methods
    assert [sort_key(r) for r in table.rows] == sorted(
        sort_key(r) for r in table.rows
    )
    assert {r.method for r in table.rows} == {PROACTIVE_Q, STNU}
    # both methods on one sample share the realized scenario
    seeds = {(r.sample, r.seed) for r in table.rows}
    assert len(seeds) == 3


def test_run_bench_is_deterministic_modulo_wall_time(tmp_path):
    def stripped(table):
        return [
            dataclasses.replace(row, time_offline=0.0, time_online=0.0)
            for row in table.rows
        ]

    first, _ = run_config(small_config(tmp_path))
    second, _ = run_config(small_config(tmp_path))
    assert stripped(first) == stripped(second)


def test_run_bench_parallel_matches_serial(tmp_path):
    # two (instance, epsilon) groups, so that two worker processes run
    serial, excluded_s = run_config(small_config(tmp_path, epsilons=[1, 2]))
    parallel, excluded_p = run_config(small_config(tmp_path, epsilons=[1, 2], parallelism=2))
    assert excluded_s == excluded_p
    strip = lambda t: [
        dataclasses.replace(r, time_offline=0.0, time_online=0.0)
        for r in t.rows
    ]
    assert strip(serial) == strip(parallel)


def test_run_bench_starts_no_more_workers_than_groups(tmp_path, monkeypatch):
    pools = []

    class InProcessPool:  # records its width and runs the groups here, starting no process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    two_groups = small_config(tmp_path, epsilons=[1, 2], samples_per_instance=1, parallelism=64)
    table, _ = run_config(two_groups)
    assert pools == [2] and len(table) == 4
    run_config(small_config(tmp_path, samples_per_instance=1, parallelism=64))
    assert pools == [2]  # one group runs serially, without a pool


def test_run_bench_sink_sees_every_row(tmp_path):
    seen = []
    table, _ = run_config(small_config(tmp_path), sink=seen.append)
    assert sorted(sort_key(r) for r in seen) == [sort_key(r) for r in table.rows]


def test_run_bench_excludes_inherently_infeasible_cells(tmp_path):
    path = tmp_path / "unsat.sch"
    path.write_text(serialize_psplib(UNSATISFIABLE), encoding="utf-8")
    cfg = small_config(tmp_path, instance_sets={"bad": str(path)})
    table, excluded = run_config(cfg)
    assert excluded == 3
    assert len(table) == 0


def test_groups_cut_cells_into_contiguous_runs_in_order(tmp_path):
    cells = build_cells(
        small_config(
            tmp_path,
            instance_sets={"a": str(EXAMPLE), "b": str(DATA / "j10" / "j10_01.sch")},
            epsilons=[1, 2],
            samples_per_instance=2,
        )
    )
    key = lambda c: (c.instance_set, c.instance, c.stochastic.epsilon)
    groups = bench._groups(cells)
    assert [cell for group in groups for cell in group] == cells
    assert [key(group[0]) for group in groups] == [
        ("a", "example", 1.0), ("a", "example", 2.0), ("b", "j10_01", 1.0), ("b", "j10_01", 2.0)
    ]
    assert all(len({key(c) for c in group}) == 1 for group in groups)
    # contiguous: a key that comes back after another starts a group of its own
    shuffled = [cells[0], cells[2], cells[1]]
    assert bench._groups(shuffled) == [[cells[0]], [cells[2]], [cells[1]]]
    assert bench._groups([]) == []


def test_bench_plans_once_per_instance_and_epsilon(tmp_path, monkeypatch):
    calls = dict.fromkeys(("solve", "solve_saa", "dc_check"), 0)

    def count(name):
        original = getattr(methods, name)

        def counted(*args, **kwargs):
            if kwargs.get("warm_start") is None:  # a reactive re-solve is online work
                calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(methods, name, counted)

    for name in calls:
        count(name)
    # the filter solves each sample, which is no plan
    monkeypatch.setattr(bench, "perfect_information_feasible", lambda *args: True)
    config = small_config(
        tmp_path,
        instance_sets={"j10": str(DATA / "j10" / "j10_01.sch")},
        methods=list(METHODS),
    )
    table, _ = run_config(config)
    assert len(table) == 3 * 4
    # at epsilon 1 the gamma-0.9 estimate of proactive_q and reactive equals
    # stnu's gamma-1.0 one, so all three share one solve
    assert calls == {"solve": 1, "solve_saa": 1, "dc_check": 1}
    run_config(config)
    assert calls == {"solve": 2, "solve_saa": 2, "dc_check": 2}
    cell = build_cells(config)[0]
    sample = bench.sample_durations(cell.stochastic, cell.seed)
    for _ in range(2):
        run_proactive_quantile(cell.stochastic, cell.configs[PROACTIVE_Q], sample)
    assert calls["solve"] == 4
    # at epsilon 2 the two estimates differ, so stnu solves its own
    wide = small_config(
        tmp_path,
        instance_sets={"j10": str(DATA / "j10" / "j10_01.sch")},
        methods=list(METHODS),
        epsilons=[2],
    )
    stoch = build_cells(wide)[0].stochastic
    assert quantile_durations(stoch, 0.9) != quantile_durations(stoch, 1.0)
    run_config(wide)
    assert calls == {"solve": 6, "solve_saa": 3, "dc_check": 3}


def test_shared_plan_leaves_offline_time_pair_unordered(tmp_path):
    config = small_config(tmp_path, methods=[PROACTIVE_Q, REACTIVE], samples_per_instance=4)
    table, _ = run_config(config)
    offline = {(row.method, row.sample): row.time_offline for row in table.rows}
    assert len(set(offline.values())) == 1  # one measured plan for the group
    ordering = build_partial_ordering(table.to_method_runs(), "time_offline")
    assert ordering.edges == ()
    tests = ordering.pair_tests[(PROACTIVE_Q, REACTIVE)]
    assert tests.n_pairs == 4
    assert tests.signed_rank is None and tests.win_share is None
    assert "signed-rank n/a; win-share n/a" in ordering_report(ordering)


def test_run_bench_rejects_empty_instance_sets(tmp_path):
    cfg = small_config(tmp_path, instance_sets={"ghost": str(tmp_path / "*.none")})
    with pytest.raises(ValueError, match="matched no files"):
        run_config(cfg)


def test_overlapping_patterns_resolve_each_file_once_in_first_match_order():
    j10 = DATA / "j10"
    config = BenchConfig.from_mapping(
        {
            "instance_sets": {"s": [str(j10 / "j10_0[1-3].sch"), str(j10 / "j10_0[2-5].sch")]},
            "instances_per_set": 4,
        }
    )
    resolved = bench._resolve_instances(config)
    assert [instance_id for _, instance_id, _ in resolved] == [f"j10_0{k}" for k in range(1, 5)]


def test_cli_bench_rejects_one_instance_id_in_two_sets(tmp_path, monkeypatch, capsys):
    def no_cell(cell):
        raise AssertionError("a cell ran before the clash was reported")

    monkeypatch.setattr(bench, "_run_cell", no_cell)
    twin = tmp_path / "example.sch"
    twin.write_text(EXAMPLE.read_text(encoding="utf-8"), encoding="utf-8")
    config = {
        "instance_sets": {"a": str(EXAMPLE), "b": str(twin)},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert bench.main(["bench", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "instance id 'example' appears twice" in err
    assert f"{twin} in set 'b'" in err


@pytest.mark.parametrize("fault", ["id_clash", "parse_error", "int64_epsilon"])
def test_cli_bench_rejected_config_keeps_previous_results(tmp_path, capsys, fault):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    previous = out_dir / "results.csv"
    previous.write_text(
        ResultsTable(rows=(make_row(), make_row(sample=1))).to_csv(), encoding="utf-8"
    )
    before = previous.read_bytes()
    shares = out_dir / "feasibility.csv"
    shares.write_text("epsilon,instance_set,method,feasible_ratio\n1,j10,stnu,1\n", encoding="utf-8")
    shares_before = shares.read_bytes()
    other = tmp_path / "example.sch"
    if fault == "id_clash":
        other.write_text(EXAMPLE.read_text(encoding="utf-8"), encoding="utf-8")
    else:
        other = tmp_path / "broken.sch"
        other.write_text("gibberish\n", encoding="utf-8")
    config = {
        "instance_sets": {"a": str(EXAMPLE), "b": str(other)},
        "output_dir": str(out_dir),
    }
    if fault == "int64_epsilon":
        # bounds within float range but beyond what a sample can draw
        config = {**config, "instance_sets": {"a": str(EXAMPLE)}, "epsilons": [1e300]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert bench.main(["bench", "--config", str(cfg_path)]) == 2
    assert "error" in capsys.readouterr().err
    assert previous.read_bytes() == before
    assert shares.read_bytes() == shares_before


def test_cli_bench_aborted_run_leaves_no_stale_feasibility(tmp_path, monkeypatch, capsys):
    calls = []

    def failing_on_second_call(stoch, cfg, sample):
        calls.append(sample.seed)
        if len(calls) == 2:
            raise ValueError("second run fails")
        return methods.run_proactive_quantile(stoch, cfg, sample)

    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "feasibility.csv").write_text("from an earlier run\n", encoding="utf-8")
    monkeypatch.setitem(bench._RUNNERS, PROACTIVE_Q, failing_on_second_call)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "instance_sets": {"demo": str(EXAMPLE)},
        "epsilons": [1],
        "samples_per_instance": 3,
        "methods": [PROACTIVE_Q],
        "output_dir": str(out_dir),
    }), encoding="utf-8")
    assert bench.main(["bench", "--config", str(cfg_path)]) == 2
    assert "second run fails" in capsys.readouterr().err
    assert len(calls) == 2
    # the first run's row streamed to disk; no earlier run's shares sit beside it
    partial = ResultsTable.from_csv((out_dir / "results.csv").read_text(encoding="utf-8"))
    assert [(row.method, row.sample) for row in partial.rows] == [(PROACTIVE_Q, 0)]
    assert not (out_dir / "feasibility.csv").exists()


def test_cli_bench_rejects_mistyped_method_setting(tmp_path, capsys):
    config = {
        "instance_sets": {"demo": str(EXAMPLE)},
        "method_configs": {"stnu": {"gamma": "0.9"}},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert bench.main(["bench", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "method_configs['stnu'].gamma must be a finite number, got '0.9'" in err
    assert not (tmp_path / "out").exists()


def _run_bench_with(tmp_path, method):
    run_config(small_config(tmp_path, methods=[method]))


def _simulate_with(tmp_path, method):
    argv = ["simulate", "--instance", str(EXAMPLE), "--method", method]
    bench.main([*argv, "--epsilon", "1", "--samples", "1"])


@pytest.mark.parametrize(
    "entry", [_run_bench_with, _simulate_with], ids=["run_bench", "simulate"]
)
def test_audit_stops_methods_that_misreport_feasibility(tmp_path, monkeypatch, entry):
    def lying_runner(stoch, cfg, sample):
        total = stoch.base.n_activities
        return MethodRun(
            method=PROACTIVE_Q,
            instance="",
            seed=sample.seed,
            feasible=True,
            makespan=1,
            time_offline=0.0,
            time_online=0.0,
            failure_reason=None,
            starts=tuple([0] * total),  # everything at once: resource overload
        )

    monkeypatch.setitem(bench._RUNNERS, PROACTIVE_Q, lying_runner)
    with pytest.raises(RuntimeError, match="audit"):
        entry(tmp_path, PROACTIVE_Q)

    # a feasible execution that misstates its makespan, the quality metric
    def short_runner(stoch, cfg, sample):
        run = run_proactive_quantile(stoch, cfg, sample)
        assert run.feasible
        return dataclasses.replace(run, makespan=run.makespan - 1)

    monkeypatch.setitem(bench._RUNNERS, PROACTIVE_Q, short_runner)
    replayed = r"reported makespan \d+ on example, but its starts replay to \d+"
    with pytest.raises(RuntimeError, match=replayed):
        entry(tmp_path, PROACTIVE_Q)

    # a feasible claim without a start for every activity cannot be replayed
    for cut in (lambda starts: None, lambda starts: starts[:-1]):

        def startless_runner(stoch, cfg, sample, cut=cut):
            run = run_proactive_quantile(stoch, cfg, sample)
            return dataclasses.replace(run, starts=cut(run.starts))

        monkeypatch.setitem(bench._RUNNERS, PROACTIVE_Q, startless_runner)
        with pytest.raises(RuntimeError, match="proactive_q reported no start for every activity"):
            entry(tmp_path, PROACTIVE_Q)

    # a whole run shifted earlier keeps every lag, the resource profile and a
    # makespan that matches its replay, but starts before time 0
    def early_runner(stoch, cfg, sample):
        run = run_proactive_quantile(stoch, cfg, sample)
        starts = tuple(s - 7 for s in run.starts)
        return dataclasses.replace(run, starts=starts, makespan=run.makespan - 7)

    monkeypatch.setitem(bench._RUNNERS, PROACTIVE_Q, early_runner)
    with pytest.raises(RuntimeError, match="proactive_q reported a start before time 0"):
        entry(tmp_path, PROACTIVE_Q)


# -- reporting -------------------------------------------------------------


def test_ordering_to_dot_styles_edge_strengths():
    ordering = PartialOrdering(
        methods=("a", "b", "c"),
        metric="quality",
        edges=(("a", "b", STRONG), ("b", "c", WEAK)),
    )
    dot = ordering_to_dot(ordering)
    assert dot.startswith('digraph "quality" {')
    assert '"a" -> "b" [style=solid];' in dot
    assert '"b" -> "c" [style=dashed];' in dot
    assert '  "c";' in dot
    assert dot.rstrip().endswith("}")


def test_ordering_report_without_edges_says_so():
    ordering = PartialOrdering(methods=("a", "b"), metric="quality", edges=())
    report = ordering_report(ordering)
    assert report.splitlines() == [
        "pairwise tests, metric=quality, alpha=0.05",
        "edges: none (no significant differences)",
    ]


def _measured(test, series):
    try:
        return test(series)
    except UndefinedTest:
        return None


def _random_runs(rng: random.Random) -> list[MethodRun]:
    """2-4 methods on shared keys: coarse makespans (ties) and some infeasible runs.

    A rotating set cycles which method is best from key to key, so its
    win-shares can close a cycle.
    """
    runs = []
    methods = [f"m{i}" for i in range(rng.randint(2, 4))]
    shift = {method: rng.choice((0, 0, 1, 2)) for method in methods}
    lost = {method: rng.choice((0.0, 0.1, 0.3)) for method in methods}
    rotating = rng.random() < 0.3
    for k in range(rng.randint(4, 40)):
        for i, method in enumerate(methods):
            if rng.random() < lost[method]:
                runs.append(make_row(method=method, instance=f"i{k}", seed=k, feasible=False,
                                     makespan=None, failure_reason="execution_violation"))
            else:
                turn = 10 * ((i + k) % len(methods)) if rotating else shift[method]
                span = 10 + turn + rng.randint(0, 3)
                runs.append(make_row(method=method, instance=f"i{k}", seed=k, makespan=span))
    return runs


def test_ordering_edges_and_report_marks_follow_the_ordering_alpha():
    # the rule written out: a strong edge where the signed-rank p < alpha,
    # otherwise a weak edge where the win-share p < alpha, and a weak edge
    # is dropped where its worse method reaches its better one through the
    # drawn edges; the report marks exactly those two tests' p < alpha
    rng = random.Random(20261020)
    seen = {STRONG: 0, WEAK: 0, "dropped": 0, "marks": 0}
    for _ in range(60):
        runs = _random_runs(rng)
        for alpha in (0.01, 0.05, 0.2):
            ordering = build_partial_ordering(runs, QUALITY, alpha)
            drawn, marked = [], {}
            for name_a, name_b in ordering.pair_tests:
                series = method_pair_series(runs, name_a, name_b, QUALITY)
                ranked = _measured(wilcoxon_pratt, series)
                share = _measured(proportion_test, series)
                if ranked is not None and ranked.p_value < alpha:
                    a_wins, strength = ranked.statistic < 0, STRONG
                elif share is not None and share.p_value < alpha:
                    a_wins, strength = share.extras["proportion_a"] > 0.5, WEAK
                else:
                    strength = ""
                if strength:
                    better, worse = (name_a, name_b) if a_wins else (name_b, name_a)
                    drawn.append((better, worse, strength))
                marked[name_a, name_b] = [
                    result is not None and result.p_value < alpha for result in (ranked, share)
                ]

            def reaches(start, goal):
                reached, frontier = {start}, [start]
                while frontier:
                    here = frontier.pop()
                    step = {w for b, w, _ in drawn if b == here} - reached
                    reached |= step
                    frontier.extend(step)
                return goal in reached

            kept = tuple(e for e in drawn if e[2] == STRONG or not reaches(e[1], e[0]))
            assert ordering.edges == kept
            seen["dropped"] += len(drawn) - len(kept)
            for _, _, strength in kept:
                seen[strength] += 1
            lines = ordering_report(ordering).splitlines()
            for line, (pair, expected) in zip(lines[1:], marked.items()):
                assert line.startswith(f"  {pair[0]} vs {pair[1]} ")
                ranked_part, share_part, magnitude_part = line.split("; ")[1:]
                assert [part.endswith("*") for part in (ranked_part, share_part)] == expected
                assert "*" not in magnitude_part
                seen["marks"] += sum(expected)
    assert min(seen.values()) > 0, seen


def test_ordering_report_marks_by_the_ordering_alpha():
    # one set of pair tests, reported under two alphas: p=0.03 and p=0.1 lie
    # between them, p=0.2 equals the larger one, and magnitude is never marked
    tests = PairTests(
        n_pairs=12,
        signed_rank=PairTestResult(12, -2.17, 0.03, {"rank_sum_worse_a": 10.0}),
        win_share=PairTestResult(12, 1.64, 0.1, {"proportion_a": 0.75, "decided_pairs": 12.0}),
        magnitude=PairTestResult(
            12, -3.1, 0.001, {"normalized_mean_a": 0.9, "normalized_mean_b": 1.1}
        ),
    )
    rows = {}
    for alpha in (0.05, 0.2):
        ordering = PartialOrdering(("a", "b"), QUALITY, (), {("a", "b"): tests}, alpha)
        rows[alpha] = ordering_report(ordering).splitlines()
    assert rows[0.05][1:] == [
        "  a vs b (n=12); signed-rank z=-2.170 p=0.0300*; win-share 0.750 p=0.1000; "
        "magnitude 0.900/1.100 p=0.0010",
        "edges: none (no significant differences)",
    ]
    assert rows[0.2][1:] == [
        "  a vs b (n=12); signed-rank z=-2.170 p=0.0300*; win-share 0.750 p=0.1000*; "
        "magnitude 0.900/1.100 p=0.0010",
        "edges: none (each significant win-share closed a cycle and was dropped)",
    ]
    at_alpha = dataclasses.replace(
        tests, win_share=PairTestResult(12, 1.28, 0.2, {"proportion_a": 0.7})
    )
    ordering = PartialOrdering(("a", "b"), QUALITY, (), {("a", "b"): at_alpha}, 0.2)
    assert "win-share 0.700 p=0.2000;" in ordering_report(ordering)


# -- command line ----------------------------------------------------------


def test_cli_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        bench.main([])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        bench.main(["simulate", "--instance", str(EXAMPLE)])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert "usage" in err
    simulate = ["simulate", "--instance", str(EXAMPLE), "--epsilon", "1"]
    for setting in (["--gamma", "x"], ["--saa-gammas", "0.5,x"]):
        with pytest.raises(SystemExit) as info:
            bench.main([*simulate, "--method", "proactive_saa", *setting])
        assert info.value.code == 1
    assert "argument --saa-gammas: not a comma-separated list of numbers" in capsys.readouterr().err
    # a non-integer start or duration is a usage error, before the instance is read
    check = ["check", "--instance", str(EXAMPLE), "--schedule", "0,1,x"]
    for argv in (check, ["solve", str(EXAMPLE), "--durations", "0,x"]):
        with pytest.raises(SystemExit) as info:
            bench.main(argv)
        assert info.value.code == 1
    err = capsys.readouterr().err
    assert "argument --schedule: not a comma-separated list of integers: '0,1,x'" in err
    assert "argument --durations: not a comma-separated list of integers: '0,x'" in err


def test_cli_data_errors_exit_two(tmp_path, capsys):
    assert bench.main(["solve", str(tmp_path / "missing.sch")]) == 2
    bad = tmp_path / "bad.sch"
    bad.write_text("gibberish\n", encoding="utf-8")
    assert bench.main(["solve", str(bad)]) == 2
    assert (
        bench.main(
            ["check", "--instance", str(EXAMPLE), "--schedule", "1,2,3"]
        )
        == 2
    )
    err = capsys.readouterr().err
    assert "error" in err
    # a negative duration is rejected by check as it is by solve
    negative = ["--durations", "0,-2,5,3,2,2,0"]
    check = ["check", "--instance", str(EXAMPLE), "--schedule", "0,1,3,5,0,3,7"]
    assert bench.main([*check, *negative]) == 2
    assert bench.main(["solve", str(EXAMPLE), *negative]) == 2
    err = capsys.readouterr().err
    assert err.count("--durations must be nonnegative") == 2


def test_cli_oversized_resource_count_exits_two(tmp_path, capsys):
    # the capacity line bounds the header's resource count before anything is sized by it
    path = tmp_path / "oversized.sch"
    text = EXAMPLE.read_text(encoding="utf-8")
    path.write_text(text.replace("\n5 1 0 0\n", "\n5 100000000000000000000 0 0\n", 1), encoding="utf-8")
    assert bench.main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "srcpsp: error: line 17: expected 100000000000000000000 capacities, got 1\n"


def test_cli_rejects_out_of_range_numerics(tmp_path, capsys):
    simulate = ["simulate", "--instance", str(EXAMPLE), "--method", "stnu"]
    assert bench.main([*simulate, "--epsilon", "1", "--samples", "0"]) == 2
    for epsilon in ("-1", "nan", "inf", "1e308", "1e300"):
        assert bench.main([*simulate, "--epsilon", epsilon]) == 2
    assert bench.main([*simulate, "--epsilon", "1", "--time-limit-offline", "nan"]) == 2
    for limit in ("nan", "0"):
        assert bench.main(["solve", str(EXAMPLE), "--time-limit", limit]) == 2
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"instance_sets": {"demo": str(EXAMPLE)}, "epsilons": [1e308],
                    "output_dir": str(tmp_path / "out")}),
        encoding="utf-8",
    )
    assert bench.main(["bench", "--config", str(config)]) == 2
    results = tmp_path / "results.csv"
    results.write_text(
        CSV_HEADER + "\n"
        "j10,j10_01,1,0,stnu,true,40,1.000,1.000,,7\n",
        encoding="utf-8",
    )
    stats = ["stats", "--results", str(results), "--metric", "quality"]
    assert bench.main([*stats, "--alpha", "0"]) == 2
    assert bench.main([*stats, "--alpha", "1.5"]) == 2
    err = capsys.readouterr().err
    assert "--samples" in err
    assert "epsilon must be a finite number >= 0, got nan" in err
    assert "epsilon must be a finite number >= 0, got inf" in err
    # once from simulate, once from the bench config
    assert err.count("epsilon 1e+308 gives activity") == 2
    assert "epsilon 1e+300 gives activity 1 a non-finite or beyond-int64 duration bound" in err
    assert "time_limit_offline must be a finite number, got nan" in err
    assert err.count("--time-limit must be positive") == 2
    assert "--alpha" in err


def test_cli_simulate_rejects_settings_the_method_does_not_read(capsys):
    argv = ["simulate", "--instance", str(EXAMPLE), "--epsilon", "1", "--samples", "1"]
    unread = ["--gamma", "0.1", "--time-limit-reschedule", "5"]
    assert bench.main([*argv, "--method", "proactive_saa", *unread]) == 2
    assert "proactive_saa does not read gamma, time_limit_reschedule" in capsys.readouterr().err
    assert bench.main([*argv, "--method", "stnu", "--saa-gammas", "0.5"]) == 2
    assert "stnu does not read saa_gammas" in capsys.readouterr().err


def test_cli_solve_prints_schedule(capsys):
    assert bench.main(["solve", str(EXAMPLE), "--time-limit", "10"]) == 0
    out = capsys.readouterr().out
    assert "status: Optimal" in out
    assert "makespan: 8" in out
    assert "starts: 0,1,3,5,0,3,7" in out


def test_cli_duration_override_changes_the_answer(capsys):
    # README's example: activity d takes 2 instead of 1
    assert bench.main(["solve", str(EXAMPLE), "--durations", "0,2,5,3,2,2,0"]) == 0
    out = capsys.readouterr().out
    assert "makespan: 9" in out
    assert "starts: 0,0,2,6,4,7,9" in out
    # the default optimum overloads the resource at time 1 once d runs longer
    check = ["check", "--instance", str(EXAMPLE), "--schedule", "0,1,3,5,0,3,7"]
    assert bench.main(check) == 0
    assert capsys.readouterr().out == "feasible\n"
    assert bench.main([*check, "--durations", "0,2,5,3,2,2,0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("infeasible\n")
    assert "resource 0 at time 1: usage 5 exceeds capacity 4" in out


def test_cli_check_reports_both_verdicts(capsys):
    good = "0,1,3,5,0,3,7"
    assert bench.main(["check", "--instance", str(EXAMPLE), "--schedule", good]) == 0
    assert "feasible" in capsys.readouterr().out
    bad = "0,0,0,0,0,0,0"
    assert bench.main(["check", "--instance", str(EXAMPLE), "--schedule", bad]) == 0
    out = capsys.readouterr().out
    assert "infeasible" in out
    assert "violated" in out or "exceeds capacity" in out
    # the optimum shifted one tick earlier breaks no lag and no capacity, only time 0
    assert bench.main(["check", "--instance", str(EXAMPLE), "--schedule=-1,0,2,4,-1,2,6"]) == 0
    out = capsys.readouterr().out
    assert "infeasible" in out
    assert "activity 0 starts at -1, before time 0" in out


def test_cli_simulate_appends_csv(tmp_path, capsys):
    out_file = tmp_path / "runs.csv"
    argv = [
        "simulate",
        "--instance", str(EXAMPLE),
        "--method", "stnu",
        "--epsilon", "1",
        "--samples", "2",
        "--seed", "3",
        "--out", str(out_file),
    ]
    assert bench.main(argv) == 0
    assert bench.main([*argv[:4], PROACTIVE_Q, *argv[5:]]) == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5  # one header, two appended batches of two
    assert all(",stnu," in line for line in lines[1:3])
    assert all(",proactive_q," in line for line in lines[3:])
    assert len(ResultsTable.from_csv("\n".join(lines))) == 4


def test_cli_simulate_appends_after_an_unterminated_last_row(tmp_path):
    out_file = tmp_path / "runs.csv"
    argv = ["simulate", "--instance", str(EXAMPLE), "--epsilon", "1", "--samples", "1"]
    argv += ["--out", str(out_file)]
    assert bench.main([*argv, "--method", STNU]) == 0
    out_file.write_text(out_file.read_text(encoding="utf-8").rstrip("\n"), encoding="utf-8")
    assert bench.main([*argv, "--method", PROACTIVE_Q]) == 0
    table = ResultsTable.from_csv(out_file.read_text(encoding="utf-8"))
    assert [row.method for row in table.rows] == [STNU, PROACTIVE_Q]


def test_cli_simulate_refuses_to_append_a_row_twice(tmp_path, monkeypatch, capsys):
    out_file = tmp_path / "runs.csv"
    argv = ["simulate", "--instance", str(EXAMPLE), "--method", STNU, "--epsilon", "1"]
    argv += ["--seed", "3", "--out", str(out_file)]
    assert bench.main([*argv, "--samples", "1"]) == 0
    before = out_file.read_bytes()

    def no_run(stoch, cfg, sample):
        raise AssertionError("a sample ran before the file's keys were checked")

    monkeypatch.setitem(bench._RUNNERS, STNU, no_run)
    capsys.readouterr()
    assert bench.main([*argv, "--samples", "2"]) == 2  # sample 0 is already in the file
    assert "already holds a row for ('stnu', 'example', 1.0, 0)" in capsys.readouterr().err
    assert out_file.read_bytes() == before


def test_cli_simulate_refuses_to_append_to_a_foreign_csv(tmp_path, monkeypatch, capsys):
    def no_run(stoch, cfg, sample):
        raise AssertionError("a sample ran before the header was checked")

    monkeypatch.setitem(bench._RUNNERS, STNU, no_run)
    foreign = tmp_path / "feasibility.csv"
    foreign.write_text("epsilon,instance_set,method,feasible_ratio\n1,j10,stnu,1\n", encoding="utf-8")
    before = foreign.read_bytes()
    argv = ["simulate", "--instance", str(EXAMPLE), "--method", STNU, "--epsilon", "1"]
    assert bench.main([*argv, "--out", str(foreign)]) == 2
    assert "not a results CSV" in capsys.readouterr().err
    assert foreign.read_bytes() == before


def test_cli_simulate_rows_equal_a_one_instance_bench(tmp_path):
    # simulate runs the cells of a one-instance bench (master_seed = --seed),
    # so its rows are that bench's rows of the method, wall times apart
    def stripped(rows):
        return [dataclasses.replace(r, time_offline=0.0, time_online=0.0) for r in rows]

    config = small_config(
        tmp_path, instance_sets={"x": str(EXAMPLE)}, epsilons=[1.5], master_seed=9
    )
    table, excluded = run_config(config)
    assert excluded == 0
    benched = ResultsTable.from_csv(table.to_csv()).rows  # epsilons as the file prints them
    for method in config.methods:
        out_file = tmp_path / f"{method}.csv"
        argv = ["simulate", "--instance", str(EXAMPLE), "--method", method, "--epsilon", "1.5"]
        argv += ["--samples", "3", "--seed", "9", "--set", "x", "--out", str(out_file)]
        assert bench.main(argv) == 0
        simulated = ResultsTable.from_csv(out_file.read_text(encoding="utf-8")).rows
        assert len(simulated) == 3
        assert stripped(simulated) == stripped(r for r in benched if r.method == method)


def test_cli_simulate_negative_zero_epsilon_runs_epsilon_zero(capsys):
    def rows(epsilon):
        argv = ["simulate", "--instance", str(EXAMPLE), "--method", STNU, "--epsilon", epsilon]
        assert bench.main([*argv, "--samples", "2"]) == 0
        table = ResultsTable.from_csv(capsys.readouterr().out)
        return [dataclasses.replace(r, time_offline=0.0, time_online=0.0) for r in table.rows]

    assert rows("-0") == rows("0")


def test_cli_simulate_epsilon_runs_at_the_value_it_prints(capsys):
    # 1.590993519 prints, keys and seeds as 1.59099, so it must also run as 1.59099
    def rows(epsilon):
        argv = ["simulate", "--instance", str(DATA / "j10" / "j10_02.sch"), "--method", STNU]
        assert bench.main([*argv, "--epsilon", epsilon, "--samples", "10"]) == 0
        table = ResultsTable.from_csv(capsys.readouterr().out)
        return [dataclasses.replace(r, time_offline=0.0, time_online=0.0) for r in table.rows]

    assert rows("1.590993519") == rows("1.59099")
    config = BenchConfig(instance_sets=(("demo", (str(EXAMPLE),)),), epsilons=(1.590993519,))
    assert config.epsilons == (1.59099,)


def test_cli_simulate_prints_csv_without_out(capsys):
    argv = [
        "simulate",
        "--instance", str(EXAMPLE),
        "--method", "proactive_q",
        "--epsilon", "0",
        "--samples", "1",
    ]
    assert bench.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == CSV_HEADER
    assert out[1].split(",")[4] == "proactive_q"
    # an empty set label is a label like any other
    assert bench.main([*argv, "--set", ""]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(",example,0,0,proactive_q,")


def test_cli_bench_writes_results_and_feasibility(tmp_path, capsys):
    config = {
        "instance_sets": {"demo": str(EXAMPLE)},
        "instances_per_set": 1,
        "epsilons": [1],
        "samples_per_instance": 2,
        "methods": ["proactive_q", "stnu"],
        "output_dir": str(tmp_path / "out"),
        "master_seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert bench.main(["bench", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "4 rows" in out
    results = (tmp_path / "out" / "results.csv").read_text(encoding="utf-8")
    assert results.splitlines()[0] == CSV_HEADER
    table = ResultsTable.from_csv(results)
    assert len(table) == 4
    feas = (tmp_path / "out" / "feasibility.csv").read_text(encoding="utf-8")
    assert feas.splitlines()[0] == "epsilon,instance_set,method,feasible_ratio"


def test_cli_stats_emits_report_and_dot(tmp_path, capsys):
    rows = []
    for k in range(30):
        rows.append(
            make_row(
                instance=f"i{k:02d}", method="alpha", makespan=10, seed=k,
                time_offline=0.001, time_online=0.001,
            )
        )
        rows.append(
            make_row(
                instance=f"i{k:02d}", method="beta", makespan=20 + k, seed=k,
                time_offline=0.001, time_online=0.001,
            )
        )
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(ResultsTable(rows=tuple(rows)).to_csv(), encoding="utf-8")
    dot_path = tmp_path / "quality.dot"
    argv = [
        "stats",
        "--results", str(csv_path),
        "--metric", "quality",
        "--out", str(dot_path),
    ]
    assert bench.main(argv) == 0
    out = capsys.readouterr().out
    assert "alpha vs beta" in out
    assert "alpha -> beta [strong]" in out
    assert '"alpha" -> "beta" [style=solid];' in dot_path.read_text(encoding="utf-8")


def test_cli_stats_dot_quotes_every_name(tmp_path, capsys):
    # a CSV's method text reaches the DOT file, quotes and backslashes included
    names = ('a"b', "c\\d")
    rows = [
        make_row(method=name, makespan=10 + 5 * i, instance=f"i{k:02d}", seed=k)
        for k in range(20)
        for i, name in enumerate(names)
    ]
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(ResultsTable(rows=tuple(rows)).to_csv(), encoding="utf-8")
    dot_path = tmp_path / "quality.dot"
    argv = ["stats", "--results", str(csv_path), "--metric", "quality", "--out", str(dot_path)]
    assert bench.main(argv) == 0
    capsys.readouterr()
    quoted = r'"((?:[^"\\]|\\.)*)"'  # one DOT quoted string, with backslash escapes
    node = re.compile(f"  {quoted};")
    edge = re.compile(f"  {quoted} -> {quoted} \\[style=solid\\];")
    lines = dot_path.read_text(encoding="utf-8").splitlines()
    assert lines[:2] == ['digraph "quality" {', "  rankdir=LR;"] and lines[-1] == "}"
    matches = [node.fullmatch(line) for line in lines[2:4]]
    matches += [edge.fullmatch(line) for line in lines[4:-1]]
    assert all(matches), lines
    names_read = [tuple(re.sub(r"\\(.)", r"\1", text) for text in m.groups()) for m in matches]
    assert names_read == [(names[0],), (names[1],), names]


STATS_GOLDEN = """\
pairwise tests, metric=quality, alpha=0.02
  alpha vs beta (n=30); signed-rank z=-4.772 p=0.0000*; win-share 1.000 p=0.0000*; magnitude 0.468/1.532 p=0.0000
  alpha vs delta (n=30); signed-rank z=-0.433 p=0.6649; win-share 0.733 p=0.0176*; magnitude 1.183/0.817 p=0.0153
  alpha vs gamma (n=30); signed-rank n/a; win-share n/a; magnitude n/a
  alpha vs omega (n=0); signed-rank n/a; win-share n/a; magnitude n/a
  beta vs delta (n=30); signed-rank z=+4.772 p=0.0000*; win-share 0.000 p=0.0000*; magnitude 1.590/0.410 p=0.0000
  beta vs gamma (n=30); signed-rank z=+4.772 p=0.0000*; win-share 0.000 p=0.0000*; magnitude 1.532/0.468 p=0.0000
  beta vs omega (n=0); signed-rank n/a; win-share n/a; magnitude n/a
  delta vs gamma (n=30); signed-rank z=+0.433 p=0.6649; win-share 0.267 p=0.0176*; magnitude 0.817/1.183 p=0.0153
  delta vs omega (n=0); signed-rank n/a; win-share n/a; magnitude n/a
  gamma vs omega (n=0); signed-rank n/a; win-share n/a; magnitude n/a
edges (better -> worse):
  alpha -> beta [strong]
  alpha -> delta [weak]
  delta -> beta [strong]
  gamma -> beta [strong]
  gamma -> delta [weak]
"""


def test_cli_stats_report_text_is_pinned(tmp_path, capsys):
    # alpha beats beta outright, wins small and loses big against delta
    # (win-share only), ties gamma everywhere and shares no key with omega
    rows = []
    for k in range(30):
        key = dict(instance=f"i{k:02d}", seed=k)
        rows.append(make_row(method="alpha", makespan=10, **key))
        rows.append(make_row(method="beta", makespan=20 + k, **key))
        rows.append(make_row(method="gamma", makespan=10, **key))
        rows.append(make_row(method="delta", makespan=11 if k < 22 else 1, **key))
    rows.append(make_row(method="omega", instance="x00", seed=99))
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(ResultsTable(rows=tuple(rows)).to_csv(), encoding="utf-8")
    argv = ["stats", "--results", str(csv_path), "--metric", "quality", "--alpha", "0.02"]
    assert bench.main(argv) == 0
    assert capsys.readouterr().out == STATS_GOLDEN


def test_cli_stats_drops_weak_edges_that_close_a_cycle(tmp_path, capsys, caplog):
    # makespans rotate, so alpha beats beta, beta beats gamma and gamma beats
    # alpha on 2 samples in 3 (win-share p=0.0142) while no signed-rank test
    # is significant (p=0.468): the three weak edges would form a cycle
    rotation = ((10, 20, 30), (20, 30, 10), (30, 10, 20))
    rows = [
        make_row(method=method, makespan=span, instance=f"i{k:02d}", seed=k)
        for k in range(60)
        for method, span in zip(("alpha", "beta", "gamma"), rotation[k % 3])
    ]
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(ResultsTable(rows=tuple(rows)).to_csv(), encoding="utf-8")
    assert bench.main(["stats", "--results", str(csv_path), "--metric", "quality"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all("signed-rank z=" in line and " p=0.4680;" in line for line in lines[1:4])
    assert all(" p=0.0142*;" in line for line in lines[1:4])
    assert lines[4:] == ["edges: none (each significant win-share closed a cycle and was dropped)"]
    dropped = sorted(r.getMessage() for r in caplog.records if r.name == "srcpsp.stats")
    assert dropped == [
        f"quality: dropped weak edge {edge}, which closes a cycle"
        for edge in ("alpha -> beta", "beta -> gamma", "gamma -> alpha")
    ]


def test_cli_stats_epsilon_matches_the_printed_value(tmp_path, capsys):
    # epsilon 1.2345678 is written as 1.23457; the filter must find it either way
    rows = []
    for k in range(10):
        key = dict(instance=f"i{k:02d}", seed=k, epsilon=1.2345678)
        rows.append(make_row(method="alpha", makespan=10, **key))
        rows.append(make_row(method="beta", makespan=20 + k, **key))
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(ResultsTable(rows=tuple(rows)).to_csv(), encoding="utf-8")
    argv = ["stats", "--results", str(csv_path), "--metric", "quality"]
    reports = []
    for epsilon in ("1.2345678", "1.23457"):
        assert bench.main([*argv, "--epsilon", epsilon]) == 0
        reports.append(capsys.readouterr().out)
    assert "alpha vs beta (n=10)" in reports[0]
    assert reports[0] == reports[1]


def test_cli_stats_rejects_empty_selection(tmp_path, capsys):
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(
        ResultsTable(rows=(make_row(),)).to_csv(), encoding="utf-8"
    )
    code = bench.main(
        ["stats", "--results", str(csv_path), "--metric", "quality",
         "--epsilon", "9"]
    )
    assert code == 2
    assert "no rows" in capsys.readouterr().err


def test_bench_import_leaves_numpy_and_process_pool_unloaded():
    # a fresh process pays for neither: durations are drawn without numpy, and
    # run_bench imports the process pool only when it runs with workers
    probe = (
        "import sys, srcpsp.bench; "
        "loaded = {'numpy', 'multiprocessing', 'concurrent.futures.process'} & set(sys.modules); "
        "assert not loaded, loaded"
    )
    subprocess.run(
        [sys.executable, "-c", probe],
        check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
