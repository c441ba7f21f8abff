"""Run the benchmark over several seeds, report the spread of every
end-to-end metric, and optionally record the result as the baseline.

    python3 perfbench/make_baseline.py --seeds 1-10
    python3 perfbench/make_baseline.py --seeds 1-5 --workloads flat-zeno
    python3 perfbench/make_baseline.py --seeds 1-10 --write

Each (workload, seed) is one `run.py --trace 0` process measuring for
BENCHMARK.json's run_seconds. For each metric the report gives the median,
the quartiles and the spread (Q3 - Q1) / median beside the metric's bound.

--write also records perfbench/baseline.json: those medians and quartiles,
the per-layer split of one traced run per workload, NE, NC and weight of
every instance of the first seed, the git commit measured and the line count
of src/. It needs a git checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench_gen  # noqa: E402
import run  # noqa: E402

# Which end-to-end metric, on which workloads, each per-layer metric should
# move. Written down before any optimisation, so that a change's claimed
# layer can be checked against where its saving shows.
LAYER_TARGETS = {
    "parser.parse_s": ("setup_s", list(run.WORKLOADS)),
    "search.make_root_s": ("solve_s_p50", ["pref-logistics"]),
    "search.expand_self_s": ("wall_s", ["flat-zeno", "pref-logistics"]),
    "search.expansions": ("wall_s", ["flat-zeno", "pref-logistics"]),
    "search.considered": ("wall_s", ["flat-zeno", "pref-logistics"]),
    "search.ne_per_s": ("wall_s", ["flat-zeno", "pref-logistics"]),
    "search.satisfiers_s": ("wall_s", ["flat-zeno"]),
    "search.satisfiers_calls": ("wall_s", ["flat-zeno"]),
    "search.satisfiers_yield_ratio": ("wall_s", ["flat-zeno"]),
    "search.heap_s": ("peak_rss_mb, wall_s", ["flat-zeno"]),
    "search.heap_peak": ("peak_rss_mb, wall_s", ["flat-zeno"]),
    "model.trace_extend_self_s": ("peak_rss_mb, wall_s",
                                  ["flat-zeno", "check-logistics"]),
    "model.trace_extend_calls": ("peak_rss_mb, wall_s",
                                 ["flat-zeno", "check-logistics"]),
    "model.events_copied": ("peak_rss_mb, wall_s",
                            ["flat-zeno", "check-logistics"]),
    "model.apply_event_s": ("wall_s", ["flat-zeno"]),
    "progression.step_s": ("solve_s_p50, solve_s_p90", ["pref-logistics"]),
    "progression.step_calls": ("solve_s_p50, solve_s_p90",
                               ["pref-logistics"]),
    "progression.bounds_s": ("solve_s_p50, solve_s_p90", ["pref-logistics"]),
    "progression.bounds_calls": ("solve_s_p50, solve_s_p90",
                                 ["pref-logistics"]),
    "progression.progress_bdf_calls": ("solve_s_p50", ["pref-logistics"]),
    "progression.distinct_residuals": ("solve_s_p50", ["pref-logistics"]),
    "progression.residual_reuse_ratio": ("solve_s_p50", ["pref-logistics"]),
    "progression.progress_trace_s": ("solve_s_p50", ["check-logistics"]),
    "formulas.simplify_s": ("solve_s_p50", ["pref-logistics"]),
    "formulas.simplify_calls": ("solve_s_p50", ["pref-logistics"]),
    "semantics.weight_gpf_s": ("solve_s_p50", ["check-logistics"]),
    "semantics.terminated_at_calls": ("solve_s_p50",
                                      ["pref-logistics", "check-logistics"]),
    "semantics.terminated_at_s": ("solve_s_p50",
                                  ["pref-logistics", "check-logistics"]),
    "oracle.enumerate_s": ("solve_s_p50", ["check-logistics"]),
    "oracle.plans": ("solve_s_p50", ["check-logistics"]),
    "trace_overhead_ratio": ("none: the cost of tracing itself",
                             list(run.WORKLOADS)),
}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def instance_counts(seed: int) -> dict:
    """NE, NC and weight of every instance of every workload for `seed`."""
    import prefhtn
    out = {}
    for workload in run.WORKLOADS:
        instances = bench_gen.workload_instances(workload, seed)
        rows = []
        for inst, problem in zip(instances,
                                 run.parse_instances(prefhtn, instances)):
            result = prefhtn.solve(problem)
            rows.append({"instance": inst.pattern,
                         "NE": result.stats.nodes_expanded,
                         "NC": result.stats.nodes_considered,
                         "weight": str(result.weight)})
        out[workload] = rows
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",")

    record = {"end_to_end": {}, "per_layer": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            result = bench_run(workload, seed, seconds, 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {v[-1]:.4g}" for n, v in values.items()), flush=True)
        record["end_to_end"][workload] = {}
        for name, vals in values.items():
            s = spread(vals)
            record["end_to_end"][workload][name] = s
            print(f"  {name:12} median {s['median']:.4g}  quartiles "
                  f"{s['q1']:.4g}..{s['q3']:.4g}  spread {s['spread']:.3f}"
                  f"  bound {bounds[name]}  "
                  f"{'ok' if s['spread'] < bounds[name] / 3 else 'WIDE'}")

    if args.write:
        for workload in workloads:
            traced = bench_run(workload, args.seeds[0], seconds, 1)
            record["per_layer"][workload] = {
                name: m["value"] for name, m in traced["metrics"].items()}
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        src_lines = sum(len(p.read_text().splitlines())
                        for p in (ROOT / "src").rglob("*.py"))
        baseline = {
            "git_sha": sha.stdout.strip(),
            "src_lines": src_lines,
            "run_seconds": seconds,
            "seeds": args.seeds,
            "instances": instance_counts(args.seeds[0]),
            "layer_targets": {name: {"end_to_end": target,
                                     "workloads": wls}
                              for name, (target, wls) in
                              LAYER_TARGETS.items()},
            **record,
        }
        with open(HERE / "baseline.json", "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
