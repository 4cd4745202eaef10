"""Tests for tools/bench_record.py on synthetic perfbench record sets."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_record.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def write_records(directory: Path, walls: dict[str, list[float]], counters=None) -> None:
    """One record per (workload, seed); every gated metric reads the run's wall."""
    directory.mkdir()
    for workload, values in walls.items():
        for seed, value in enumerate(values, start=1):
            record = {
                "workload": workload,
                "seed": seed,
                "metrics": {
                    m["name"]: {"unit": m["unit"], "value": value} for m in SPEC["end_to_end"]
                },
                "counters": (counters or {}).get((workload, seed), {"nodes": 100}),
                "environment": {"nproc": 2, "python": "3.11.7"},
            }
            path = directory / f"{workload}-seed{seed}-trace0.json"
            path.write_text(json.dumps(record), encoding="utf-8")


def run_tool(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *args], cwd=cwd, capture_output=True, text=True
    )


def test_bench_record_summarizes_both_sides(tmp_path):
    parent_walls = {"desk": [2.0, 2.4, 2.2, 2.6], "scale": [5.0, 5.5, 6.0]}
    change_walls = {"desk": [2.1, 2.3, 2.2, 2.5], "scale": [5.1, 5.2, 5.3, 5.4]}
    write_records(tmp_path / "parent", parent_walls)
    write_records(tmp_path / "change", change_walls, {("desk", 2): {"nodes": 99}})
    done = run_tool(tmp_path, "demo", "abc1234", "parent", "def5678", "change")
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "BENCH_demo.json").read_text(encoding="utf-8"))
    assert (record["label"], record["parent"], record["change"]) == ("demo", "abc1234", "def5678")
    assert (record["nproc"], record["python"]) == ([2], ["3.11.7"])
    assert list(record["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    desk = record["workloads"]["desk"]
    assert desk["runs"] == {"parent": 4, "change": 4}
    assert desk["counters_equal"] == {"1": True, "2": False, "3": True, "4": True}
    assert desk["counters_changed"] == {"1": {}, "2": {"nodes": [100, 99]}, "3": {}, "4": {}}
    # the scale change run with seed 4 has no parent run to compare against
    assert record["workloads"]["scale"]["counters_equal"] == {"1": True, "2": True, "3": True}
    assert record["workloads"]["scale"]["counters_changed"] == {"1": {}, "2": {}, "3": {}}
    for name, walls in (("desk", parent_walls["desk"]), ("scale", parent_walls["scale"])):
        metrics = record["workloads"][name]["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
        q1, _, q3 = statistics.quantiles(walls, n=4)
        assert metrics["wall_s"]["parent"] == {"median": statistics.median(walls), "q1_q3": [q1, q3]}
        assert metrics["nodes_per_s"]["better"] == "higher"
    assert desk["metrics"]["wall_s"]["change"]["median"] == statistics.median(change_walls["desk"])


def test_bench_record_names_each_changed_counter(tmp_path):
    parent = {"nodes": 37_768, "edges": 157, "dropped": 1}
    change = {"nodes": 2_556, "edges": 157, "added": 2}
    walls = {"desk": [1.0, 1.1], "scale": [2.0, 2.1]}
    write_records(tmp_path / "parent", walls, {("desk", 2): parent, ("scale", 1): parent})
    write_records(tmp_path / "change", walls, {("desk", 2): change, ("scale", 1): parent})
    done = run_tool(tmp_path, "demo", "a", "parent", "b", "change")
    assert done.returncode == 0, done.stderr
    workloads = json.loads((tmp_path / "BENCH_demo.json").read_text(encoding="utf-8"))["workloads"]
    # the unchanged edge count is left out; a counter on one side only reads null on the other
    assert workloads["desk"]["counters_changed"] == {
        "1": {},
        "2": {"added": [None, 2], "dropped": [1, None], "nodes": [37_768, 2_556]},
    }
    assert workloads["desk"]["counters_equal"] == {"1": True, "2": False}
    assert workloads["scale"]["counters_changed"] == {"1": {}, "2": {}}


def test_bench_record_rejects_thin_sets_and_bad_labels(tmp_path):
    write_records(tmp_path / "parent", {"desk": [2.0, 2.1], "scale": [5.0]})
    write_records(tmp_path / "change", {"desk": [2.0, 2.1], "scale": [5.0, 5.1]})
    done = run_tool(tmp_path, "demo", "a", "parent", "b", "change")
    assert done.returncode == 2
    assert "scale: 1 parent runs; need at least 2" in done.stderr
    assert run_tool(tmp_path, "../demo", "a", "parent", "b", "change").returncode == 2
    assert not list(tmp_path.glob("*.json")) and not (tmp_path.parent / "BENCH_demo.json").exists()
