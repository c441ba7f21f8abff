"""Recompute reference.json: the optimal weight of every benchmark pattern.

    python3 perfbench/make_reference.py

Each weight is the enumerator's minimum (prefhtn.enumerate_all, the
brute-force baseline), never the best-first planner's answer, so the gate in
run.py checks the planner against an independent computation. A renaming of
constants leaves the optimum unchanged, so one weight per pattern serves
every seed; the instances are built with seed 0.

The enumerator keeps every plan's trace: zeno-4 has 65,536 plans and takes
about 40 s and 1.8 GB, which is why the weights are stored rather than
recomputed on every run.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench_gen  # noqa: E402
import prefhtn  # noqa: E402
from run import parse_instances  # noqa: E402
from prefhtn.sexpr import format_fraction  # noqa: E402

CAPS = prefhtn.EnumerationCaps(max_plans=1_000_000, max_seconds=3600.0)


def main() -> int:
    weights = {}
    for build, patterns, sizes in bench_gen.WORKLOADS.values():
        for n, count in sizes:
            for pattern, legs in patterns(n, count):
                inst = build(pattern, legs, random.Random(0))
                [problem] = parse_instances(prefhtn, [inst])
                oracle = prefhtn.enumerate_all(problem, CAPS)
                weights[pattern] = format_fraction(oracle.best_weight)
                print(f"{pattern}: {oracle.plan_count} plans, weight "
                      f"{weights[pattern]}", flush=True)
    with open(HERE / "reference.json", "w") as fh:
        json.dump({"source": "prefhtn.enumerate_all minimum per pattern",
                   "weights": dict(sorted(weights.items()))}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
