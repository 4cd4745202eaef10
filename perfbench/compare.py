#!/usr/bin/env python3
"""Compare sets of benchmark run records.

Usage:

    python3 perfbench/compare.py perfbench/out/setA [perfbench/out/setB]

Each directory holds the ``<workload>-seed<n>-trace0.json`` records that
``run.py`` writes to ``perfbench/out/records``.  For every workload and
end-to-end metric the script prints each set's median and its spread (the
distance between the first and third quartile over the median) and checks
the spread against the metric's bound in BENCHMARK.json.  Given two sets it
also checks that the second median is no worse than the first by more than
the bound, and that the deterministic counters of runs with the same
workload and seed are identical: a counter that differs is a behaviour
change, not noise.  Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict[tuple[str, int], dict]:
    records = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        records[(record["workload"], record["seed"])] = record
    return records


def summary(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    sets = [load(Path(d)) for d in argv]
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        print(f"== {workload}")
        medians = []
        for records in sets:
            runs = [r for (w, _), r in sorted(records.items()) if w == workload]
            medians.append({})
            if len(runs) < 4:
                print(f"  {len(runs)} runs; need at least 4")
                ok = False
                continue
            for metric in spec["end_to_end"]:
                name = metric["name"]
                median, spread = summary([r["metrics"][name]["value"] for r in runs])
                medians[-1][name] = median
                verdict = "ok" if spread <= metric["bound"] or name == "setup_s" else "SPREAD"
                ok &= verdict == "ok"
                print(
                    f"  {name:32s} median {median:12.6g} {metric['unit']:5s} "
                    f"spread {spread:6.3f} (bound {metric['bound']}) {verdict}"
                )
        if len(sets) == 2 and all(medians):
            for metric in spec["end_to_end"]:
                name = metric["name"]
                first, second = medians[0][name], medians[1][name]
                change = (second - first) / first
                worse = change if metric["better"] == "lower" else -change
                verdict = "ok" if worse <= metric["bound"] else "WORSE"
                ok &= verdict == "ok"
                print(f"  {name:32s} second/first {1 + change:7.3f} {verdict}")
    if len(sets) == 2:
        for key in sorted(set(sets[0]) & set(sets[1])):
            a, b = sets[0][key]["counters"], sets[1][key]["counters"]
            if a != b:
                ok = False
                changed = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
                print(f"behaviour change in {key[0]} seed {key[1]}: {', '.join(changed)}")
        print(f"counters compared on {len(set(sets[0]) & set(sets[1]))} run pairs")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
