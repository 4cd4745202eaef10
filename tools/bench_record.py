#!/usr/bin/env python3
"""Write the BENCH_<label>.json record of a change from two sets of perfbench runs.

Usage:

    python3 tools/bench_record.py LABEL PARENT_COMMIT PARENT_DIR CHANGE_COMMIT CHANGE_DIR

PARENT_DIR and CHANGE_DIR each hold the ``<workload>-seed<n>-trace0.json``
records that ``perfbench/run.py`` writes to ``perfbench/out/records``, run
on the parent commit and on the change.  The file, written to the current
directory, holds both commits and, per workload of BENCHMARK.json:

- the number of runs on each side;
- for every gated end-to-end metric, each side's median and [q1, q3];
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
        counters = {
            seed: _changed_counters(
                sides["parent"][(workload, seed)]["counters"],
                sides["change"][(workload, seed)]["counters"],
            )
            for seed in seeds
        }
        workloads[workload] = {
            "runs": {side: len(side_runs) for side, side_runs in runs.items()},
            "metrics": {
                metric["name"]: {
                    "unit": metric["unit"],
                    "better": metric["better"],
                    **{
                        side: _spread([r["metrics"][metric["name"]]["value"] for r in side_runs])
                        for side, side_runs in runs.items()
                    },
                }
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
