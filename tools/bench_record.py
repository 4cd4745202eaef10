#!/usr/bin/env python3
"""Write the BENCH_<label>.json record of a change from two sets of perfbench runs.

Usage:

    python3 tools/bench_record.py LABEL PARENT_COMMIT PARENT_DIR CHANGE_COMMIT CHANGE_DIR

PARENT_DIR and CHANGE_DIR each hold the ``<workload>-seed<n>-trace0.json``
records that ``perfbench/run.py`` writes to ``perfbench/out/records``, run
on the parent commit and on the change.  The file, written to the current
directory, holds both commits and, per workload of BENCHMARK.json:

- the number of runs on each side;
- for every gated end-to-end metric, each side's median and [q1, q3],
  ``better_pairs`` [k, m]: k of the m seeds run on both sides read better
  on the change, in the metric's ``better`` direction (a tie counts for
  neither), and ``resolved``: false when the parent's runs spread wider
  than the metric's ``bound`` ((q3 - q1) / median) and some change run
  reads no better than some parent run, since a median within the bound
  then does not show the metric unchanged;
- for every seed run on both sides, whether the deterministic counters are
  equal (a counter that differs is a behaviour change, not noise) and the
  counters that differ, each as [parent value, change value] (null where
  a side has no such counter).

It also lists the ``nproc`` and Python versions the runs reported.  A
workload needs at least two runs on each side.  Uses only the standard
library and the record loader of ``perfbench/compare.py``.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from compare import BENCHMARK, load  # noqa: E402


def _spread(values: list[float]) -> dict[str, object]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1_q3": [q1, q3]}


def _changed_counters(parent: dict[str, object], change: dict[str, object]) -> dict[str, list]:
    """Each counter whose value differs between the sides, as [parent, change]."""
    return {
        name: [parent.get(name), change.get(name)]
        for name in sorted(parent.keys() | change.keys())
        if parent.get(name) != change.get(name)
    }


def _better_pairs(metric: dict[str, str], parent: list[dict], change: list[dict]) -> list[int]:
    """[k, m]: of the m seeds run on both sides, the k whose change run reads strictly better."""
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    wins = sum(
        sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
        for p, c in zip(parent, change)
    )
    return [wins, len(parent)]


def _resolved(metric: dict[str, object], parent: list[float], change: list[float]) -> bool:
    """Whether the parent's spread is within the metric's bound, or every change
    run reads better than every parent run."""
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if q3 - q1 <= metric["bound"] * abs(statistics.median(parent)):
        return True
    if metric["better"] == "higher":
        return min(change) > max(parent)
    return max(change) < min(parent)


def _metric_record(
    metric: dict[str, object], runs: dict[str, list[dict]], paired: dict[str, list[dict]]
) -> dict[str, object]:
    """One metric's spread on each side, its better pairs and whether it is resolved."""
    values = {
        side: [r["metrics"][metric["name"]]["value"] for r in side_runs]
        for side, side_runs in runs.items()
    }
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        **{side: _spread(side_values) for side, side_values in values.items()},
        "better_pairs": _better_pairs(metric, paired["parent"], paired["change"]),
        "resolved": _resolved(metric, values["parent"], values["change"]),
    }


def bench_record(
    label: str, parent_commit: str, parent_dir: str, change_commit: str, change_dir: str
) -> dict[str, object]:
    """The record of one change: its commits, metric spreads and counter changes."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    sides = {"parent": load(Path(parent_dir)), "change": load(Path(change_dir))}
    workloads: dict[str, object] = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {
            side: [r for (w, _), r in sorted(records.items()) if w == workload]
            for side, records in sides.items()
        }
        for side, side_runs in runs.items():
            if len(side_runs) < 2:
                raise ValueError(f"{workload}: {len(side_runs)} {side} runs; need at least 2")
        seeds = sorted(
            seed for (w, seed) in set(sides["parent"]) & set(sides["change"]) if w == workload
        )
        paired = {side: [sides[side][(workload, seed)] for seed in seeds] for side in sides}
        counters = {
            seed: _changed_counters(parent["counters"], change["counters"])
            for seed, parent, change in zip(seeds, paired["parent"], paired["change"])
        }
        workloads[workload] = {
            "runs": {side: len(side_runs) for side, side_runs in runs.items()},
            "metrics": {
                metric["name"]: _metric_record(metric, runs, paired)
                for metric in spec["end_to_end"]
            },
            "counters_equal": {str(seed): not changed for seed, changed in counters.items()},
            "counters_changed": {str(seed): changed for seed, changed in counters.items()},
        }
    environments = [r["environment"] for records in sides.values() for r in records.values()]
    return {
        "label": label,
        "parent": parent_commit,
        "change": change_commit,
        "nproc": sorted({env["nproc"] for env in environments}),
        "python": sorted({env["python"] for env in environments}),
        "workloads": workloads,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    label = argv[0]
    if not re.fullmatch(r"[\w.-]+", label):
        print(f"bench_record: label {label!r} must be letters, digits, '_', '.' or '-'",
              file=sys.stderr)
        return 2
    try:
        record = bench_record(*argv)
    except ValueError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    out = Path(f"BENCH_{label}.json")
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
