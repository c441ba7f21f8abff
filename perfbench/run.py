"""prefhtn benchmark: seeded scaled instances, exact-answer gate, layer split.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pref-logistics --seed 1 --seconds 40
    python3 perfbench/run.py --workload flat-zeno --seed 1 --trace 1
    python3 perfbench/run.py            # every workload, each in its own process

One run generates the workload's instances from the seed, then repeats
passes until --seconds have elapsed. A pass solves the instances one after
another, a closed loop in one thread. Spread over the run, a set-up imports
prefhtn afresh from src/ and parses every instance. Every answer is checked
against the weight stored in reference.json; a wrong, missing or late
answer counts as failed and makes the run exit with code 1.

Times are each instance's (and each set-up's) fastest in the run: wall_s
is the sum of the instances' fastest solves, solve_s_p50 and solve_s_p90
are percentiles over them. Other processes on a shared machine only ever
add time, in bursts of seconds to minutes. Over the same ten runs of
check-logistics on a shared 2-core host, the quartile distance over the
median was 0.32 for the median pass time and 0.11 for wall_s.

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer split measured
by bench_trace on one traced pass, after untraced passes that give the
tracing overhead, and residual counts from one more pass. Spans of the traced pass go to
perfbench/out/spans-WORKLOAD.csv, replacing those of the previous run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import bench_gen  # noqa: E402
from bench_trace import Tracer  # noqa: E402

WORKLOADS = tuple(bench_gen.WORKLOADS)
SETUPS_PER_RUN = 8
INSTANCE_TIMEOUT = 60.0   # seconds; a slower instance counts as failed

E2E_UNITS = {"wall_s": "s", "solve_s_p50": "s", "solve_s_p90": "s",
             "peak_rss_mb": "MB", "setup_s": "s"}


def load_reference() -> dict[str, Fraction]:
    with open(HERE / "reference.json") as fh:
        return {k: Fraction(v) for k, v in json.load(fh)["weights"].items()}


# --- set-up ------------------------------------------------------------------

def import_prefhtn():
    """A fresh import of prefhtn, so that each set-up pays the full cost."""
    for name in [m for m in sys.modules
                 if m == "prefhtn" or m.startswith("prefhtn.")]:
        del sys.modules[name]
    return importlib.import_module("prefhtn")


def parse_instances(prefhtn, instances):
    parser = prefhtn.parser
    problems = []
    for inst in instances:
        domain = parser.parse_domain(inst.domain_text, "<domain>")
        problem = parser.parse_problem(inst.problem_text, domain, "<problem>")
        problem.preference = parser.parse_preference(
            inst.preference_text, domain, "<preference>")
        problems.append(problem)
    return problems


# --- one instance ------------------------------------------------------------

def solve_one(prefhtn, workload: str, problem, expected: Fraction):
    """Solve one instance; return (outcome, error message or None). The
    outcome is the search Result, or the CheckReport for check-logistics."""
    config = prefhtn.SolveConfig(timeout=INSTANCE_TIMEOUT)
    try:
        if workload == "check-logistics":
            caps = prefhtn.EnumerationCaps(max_seconds=INSTANCE_TIMEOUT)
            report = prefhtn.oracle.cross_check(problem, caps, config)
            if not report.ok:
                failed = [k for k, ok in report.checks.items() if not ok]
                return report, f"cross-check failed: {', '.join(failed)}"
            if report.oracle_weight != expected:
                return report, (f"enumerated weight {report.oracle_weight}, "
                                f"stored {expected}")
            return report, None
        result = prefhtn.search.solve(problem, config)
    except prefhtn.PrefHtnError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    except Exception:  # a crash is a failed instance, not a dead benchmark
        return None, traceback.format_exc()
    if result.status != "ok":
        return result, f"status {result.status}"
    if result.weight != expected:
        return result, f"weight {result.weight}, stored {expected}"
    return result, None


def audit_plan(prefhtn, problem, result, expected: Fraction):
    """Replay the returned plan's trace and rescore it with the direct
    semantics; return an error message or None."""
    try:
        prefhtn.model.validate_trace(result.trace, problem.domain)
    except prefhtn.PrefHtnError as exc:
        return f"returned trace is invalid: {exc}"
    weight = prefhtn.weight_gpf(result.trace, problem.preference,
                                problem.constants)
    if weight != expected:
        return f"returned plan rescores to {weight}, stored {expected}"
    return None


class Run:
    """One workload's instances and what solving them has shown so far."""

    def __init__(self, workload, instances, reference):
        self.workload = workload
        self.instances = instances
        self.expected = [reference[i.pattern] for i in instances]
        self.prefhtn = None
        self.problems: list = []
        self.setups: list[float] = []
        self.times: list[list[float]] = [[] for _ in instances]
        self.passes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.last: list = [None] * len(instances)

    def set_up(self) -> None:
        t0 = time.perf_counter()
        self.prefhtn = import_prefhtn()
        self.problems = parse_instances(self.prefhtn, self.instances)
        self.setups.append(time.perf_counter() - t0)

    def one_pass(self, tracer: Tracer = None) -> float:
        start = time.perf_counter()
        for k, problem in enumerate(self.problems):
            t0 = time.perf_counter()
            if tracer is None:
                outcome, error = solve_one(self.prefhtn, self.workload,
                                           problem, self.expected[k])
            else:
                with tracer.instance_span(k):
                    outcome, error = solve_one(self.prefhtn, self.workload,
                                               problem, self.expected[k])
            self.times[k].append(time.perf_counter() - t0)
            self.attempted += 1
            self.last[k] = outcome if error is None else None
            if error is not None:
                self.fail(k, error)
        return time.perf_counter() - start

    def fail(self, k: int, error: str) -> None:
        self.failed += 1
        print(f"FAILED {self.instances[k].pattern}: {error}", file=sys.stderr)

    def measure(self, seconds: float) -> None:
        """Untraced passes until `seconds` have elapsed (at least one),
        with a set-up before the first and then every seconds/SETUPS_PER_RUN.
        Each fresh import leaves memory behind, so a set-up before every
        pass would make peak RSS grow with the number of passes."""
        start = time.perf_counter()
        deadline, next_setup = start + seconds, start
        while True:
            if time.perf_counter() >= next_setup:
                self.set_up()
                next_setup = time.perf_counter() + seconds / SETUPS_PER_RUN
            self.passes.append(self.one_pass())
            if time.perf_counter() >= deadline:
                return

    def audit(self) -> None:
        """Audit the plan each instance returned on its last pass; a plan
        that fails counts as one more failed solve."""
        if self.workload == "check-logistics":
            return
        for k, (problem, result) in enumerate(zip(self.problems, self.last)):
            if result is None:
                continue  # its last solve already counted as failed
            error = audit_plan(self.prefhtn, problem, result,
                               self.expected[k])
            if error is not None:
                self.fail(k, error)


# --- metrics -----------------------------------------------------------------

def end_to_end(run: Run) -> dict[str, float]:
    best = [min(t) for t in run.times]  # each instance's fastest solve
    cuts = statistics.quantiles(best, n=10, method="inclusive")
    return {
        "wall_s": sum(best),
        "solve_s_p50": cuts[4],
        "solve_s_p90": cuts[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": min(run.setups),
    }


def per_layer(tracer: Tracer, parse: Tracer, residuals: Tracer,
              traced_wall: float, untraced_wall: float
              ) -> dict[str, tuple[float, str]]:
    """The layer split of one traced pass, with parsing and residual
    counts from tracers of their own. untraced_wall is the fastest untraced
    pass, the base of NE/s and of the tracing overhead."""
    inclusive, own = tracer.totals()
    c = tracer.counts

    def s(ns) -> float:
        return ns / 1e9

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    residual_calls = residuals.counts["progression.progress_bdf.calls"]
    distinct = len(residuals.residuals)
    return {
        "parser.parse_s": (s(parse.totals()[0]["parser.parse"]), "s"),
        "search.make_root_s": (s(inclusive["search.make_root"]), "s"),
        "search.expand_self_s": (s(own["search.expand"]), "s"),
        "search.expansions": (c["search.expansions"], "count"),
        "search.considered": (c["search.considered"], "count"),
        "search.ne_per_s": (c["search.expansions"] / untraced_wall, "1/s"),
        "search.satisfiers_s": (s(inclusive["search.satisfiers"]), "s"),
        "search.satisfiers_calls": (c["search.satisfiers.calls"], "count"),
        "search.satisfiers_yield_ratio": (
            ratio(c["search.satisfiers.yields"],
                  c["search.satisfiers.calls"]), "ratio"),
        "search.heap_s": (s(inclusive["search.heap"]), "s"),
        "search.heap_peak": (tracer.heap_peak, "count"),
        "model.trace_extend_self_s": (s(own["model.trace_extend"]), "s"),
        "model.trace_extend_calls": (c["model.trace_extend.calls"], "count"),
        "model.events_copied": (c["model.events_copied"], "count"),
        "model.apply_event_s": (s(inclusive["model.apply_event"]), "s"),
        "progression.step_s": (s(inclusive["progression.step"]), "s"),
        "progression.step_calls": (c["progression.step.calls"], "count"),
        "progression.bounds_s": (s(inclusive["progression.bounds"]), "s"),
        "progression.bounds_calls": (c["progression.bounds.calls"], "count"),
        "progression.progress_bdf_calls": (residual_calls, "count"),
        "progression.distinct_residuals": (distinct, "count"),
        "progression.residual_reuse_ratio": (
            ratio(residual_calls, distinct), "ratio"),
        "progression.progress_trace_s": (
            s(inclusive["progression.progress_trace"]), "s"),
        "formulas.simplify_s": (s(tracer.ns["formulas.simplify"]), "s"),
        "formulas.simplify_calls": (c["formulas.simplify.calls"], "count"),
        "semantics.weight_gpf_s": (s(inclusive["semantics.weight_gpf"]),
                                   "s"),
        "semantics.terminated_at_calls": (
            c["semantics.terminated_at.calls"], "count"),
        "semantics.terminated_at_s": (s(tracer.ns["semantics.terminated_at"]),
                                      "s"),
        "oracle.enumerate_s": (s(inclusive["oracle.enumerate"]), "s"),
        "oracle.plans": (c["oracle.plans"], "count"),
        "trace_overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    }


# --- entry points ------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict[str, Fraction]) -> dict:
    instances = bench_gen.workload_instances(workload, seed)
    run = Run(workload, instances, reference)

    if not trace:
        run.measure(seconds)
        run.audit()
        metrics = {name: (value, E2E_UNITS[name])
                   for name, value in end_to_end(run).items()}
    else:
        run.measure(seconds / 2)
        parse = Tracer()
        parse.install_parser(run.prefhtn)
        try:
            parse_instances(run.prefhtn, instances)
        finally:
            parse.restore()
        tracer = Tracer()
        tracer.install(run.prefhtn)
        try:
            traced_wall = run.one_pass(tracer)
        finally:
            tracer.restore()
        residuals = Tracer()
        residuals.install_residual_counter(run.prefhtn)
        try:
            run.one_pass()
        finally:
            residuals.restore()
        run.audit()
        metrics = per_layer(tracer, parse, residuals, traced_wall,
                            min(run.passes))
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / f"spans-{workload}.csv",
                           [i.pattern for i in instances])
    print(f"{workload}: {len(run.passes)} passes, {len(run.setups)} "
          f"set-ups, {run.attempted} solves")
    # failed_ratio is 0 in every valid run, so it is printed but kept out
    # of the metrics, whose run-to-run changes are judged relative to them
    for name, (value, unit) in [*metrics.items(), ("failed_ratio", (
            run.failed / run.attempted, "ratio"))]:
        print(f"  {name:34} {value:.6g} {unit}")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> int:
    """Every workload, each in a fresh process of its own."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=180)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "prefhtn" / "__init__.py").is_file():
        print(f"prefhtn sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), load_reference())
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
