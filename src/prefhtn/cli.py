"""Command-line front end: solve single problems, benchmark suites, and run
the solver/enumerator cross-check.

Suite directories hold `NAME.htn` (domain), `NAME-k.prob` (problem) and
`NAME-k.pref` (preference) triples; a problem without a matching preference
file runs under the trivial preference. Benchmark output is a side-by-side
brute-force vs. best-first table plus one JSON record per run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

from .errors import CapExceeded, ParseError, ResourceLimit
from .oracle import EnumerationCaps, cross_check, enumerate_all
from .parser import parse_domain, parse_preference, parse_problem
from .search import SolveConfig, solve
from .sexpr import format_fraction

EXIT_OK = 0
EXIT_NOPLAN = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_LIMIT = 4    # a cap other than time: depth or plans
EXIT_MISMATCH = 5  # a failed cross-check or a bench weight mismatch

RECORD_FIELDS = ("problem", "mode", "planCount", "NE", "NC", "duplicates",
                 "frontierPeak", "seconds", "PL", "weight", "status")


def _record(problem: str, mode: str, stats, weight, status: str,
            plan_count: Optional[int] = None) -> dict:
    return {
        "problem": problem,
        "mode": mode,
        "planCount": plan_count,
        "NE": stats.nodes_expanded,
        "NC": stats.nodes_considered,
        "duplicates": stats.duplicates,
        "frontierPeak": stats.frontier_peak,
        "seconds": round(stats.elapsed, 6),
        "PL": stats.plan_length,
        "weight": format_fraction(weight) if weight is not None else None,
        "status": status,
    }


def _load_problem(domain_path: str, problem_path: str,
                  prefs_path: Optional[str]):
    domain = parse_domain(Path(domain_path).read_bytes(), domain_path)
    problem = parse_problem(Path(problem_path).read_bytes(), domain,
                            problem_path)
    if prefs_path:
        problem.preference = parse_preference(Path(prefs_path).read_bytes(),
                                              domain, prefs_path)
    return problem


def _limit_status(kind: str) -> str:
    """The record status of a run cut off by the cap of this kind."""
    return "timeout" if kind == "time" else kind


def _run_one(problem, mode: str, config: SolveConfig,
             timeout: Optional[float]) -> tuple[dict, Optional[tuple]]:
    """One solver run, folded into a RunRecord dict, plus the plan it found.
    A run cut off by a cap has the status "timeout" (time) or the cap's
    kind."""
    if mode == "bestfirst":
        try:
            result = solve(problem, config)
        except ResourceLimit as exc:
            rec = _record(problem.name, mode, exc.stats, None,
                          _limit_status(exc.kind))
            return rec, None
        status = "ok" if result.status == "ok" else "noplan"
        return _record(problem.name, mode, result.stats, result.weight,
                       status), result.plan
    caps = (EnumerationCaps() if timeout is None
            else EnumerationCaps(max_seconds=timeout))
    try:
        oracle = enumerate_all(problem, caps)
    except CapExceeded as exc:
        partial = exc.partial
        return _record(problem.name, mode, partial.stats,
                       partial.best_weight, _limit_status(exc.kind),
                       partial.plan_count), None
    status = "ok" if oracle.plan_count > 0 else "noplan"
    return _record(problem.name, mode, oracle.stats, oracle.best_weight,
                   status, oracle.plan_count), oracle.best_plan


def cmd_solve(args) -> int:
    if args.tiebreak_lex and args.mode == "bruteforce":
        print("usage: --tiebreak-lex needs --mode bestfirst", file=sys.stderr)
        return EXIT_USAGE
    config = SolveConfig(timeout=args.timeout,
                         tiebreak_lex=args.tiebreak_lex)
    problem = _load_problem(args.domain, args.problem, args.prefs)
    rec, plan = _run_one(problem, args.mode, config, args.timeout)
    if args.json:
        print(json.dumps(rec))
    if rec["status"] == "timeout":
        print("timeout", file=sys.stderr)
        return EXIT_TIMEOUT
    if rec["status"] not in ("ok", "noplan"):
        print(f"limit: {rec['status']}", file=sys.stderr)
        return EXIT_LIMIT
    if args.json:
        return EXIT_OK if rec["status"] == "ok" else EXIT_NOPLAN

    if rec["status"] == "noplan":
        print("no plan")
        return EXIT_NOPLAN
    for ev in plan:
        print(ev)
    print(f"weight: {rec['weight']}")
    print(f"NE: {rec['NE']}")
    print(f"NC: {rec['NC']}")
    print(f"duplicates: {rec['duplicates']}")
    print(f"frontierPeak: {rec['frontierPeak']}")
    print(f"seconds: {rec['seconds']}")
    print(f"PL: {rec['PL']}")
    return EXIT_OK


def _suite_triples(suite: str) -> list:
    """The --suite type: (id, domain file, problem file, preference file or
    None) per problem. A suite that is not a directory, or holds no
    problem, is a usage error."""
    root = Path(suite)
    if not root.is_dir():
        raise argparse.ArgumentTypeError(f"{suite} is not a directory")
    out = []
    for prob in sorted(root.glob("*.prob")):
        stem = prob.stem                      # NAME-k
        base = stem.rsplit("-", 1)[0]         # NAME
        dom = root / f"{base}.htn"
        pref = root / f"{stem}.pref"
        out.append((stem, str(dom), str(prob),
                    str(pref) if pref.exists() else None))
    if not out:
        raise argparse.ArgumentTypeError(f"{suite} holds no *.prob file")
    return out


def bench_table(records: list[dict]) -> str:
    """Side-by-side table, sorted by brute-force plan count ascending."""
    by_problem: dict[str, dict[str, dict]] = {}
    for r in records:
        by_problem.setdefault(r["problem"], {})[r["mode"]] = r

    def plan_count(pid: str):
        bf = by_problem[pid].get("bruteforce")
        return (bf or {}).get("planCount") or 0

    header = (f"{'problem':<18}{'#Plan':>7} | "
              f"{'bf-NE':>8}{'bf-s':>9}{'bf-w':>7} | "
              f"{'NE':>8}{'NC':>8}{'dup':>8}{'s':>9}{'PL':>4}{'w':>7}")
    lines = [header, "-" * len(header)]
    for pid in sorted(by_problem, key=lambda p: (plan_count(p), p)):
        bf = by_problem[pid].get("bruteforce", {})
        best = by_problem[pid].get("bestfirst", {})

        def cell(rec, key, width):
            if not rec:
                return " " * (width - 1) + "-"
            if rec["status"] == "timeout" and key == "seconds":
                return f">{rec[key]:.0f}".rjust(width)
            v = rec.get(key)
            return str(v if v is not None else "-").rjust(width)

        lines.append(
            f"{pid:<18}{cell(bf, 'planCount', 7)} | "
            f"{cell(bf, 'NE', 8)}{cell(bf, 'seconds', 9)}"
            f"{cell(bf, 'weight', 7)} | "
            f"{cell(best, 'NE', 8)}{cell(best, 'NC', 8)}"
            f"{cell(best, 'duplicates', 8)}"
            f"{cell(best, 'seconds', 9)}{cell(best, 'PL', 4)}"
            f"{cell(best, 'weight', 7)}")
    return "\n".join(lines)


def cmd_bench(args) -> int:
    """Exit 5 at the first weight mismatch, after printing the table and
    writing the records of every problem run so far, that one included.
    --out is opened before the first problem, so a path that cannot be
    written fails before anything runs."""
    records: list[dict] = []
    code = EXIT_OK
    config = SolveConfig(timeout=args.timeout)
    with open(args.out, "w") if args.out else nullcontext() as fh:
        for pid, dom, prob, pref in args.suite:
            problem = _load_problem(dom, prob, pref)
            bf, _ = _run_one(problem, "bruteforce", config, args.timeout)
            best, _ = _run_one(problem, "bestfirst", config, args.timeout)
            records.extend([bf, best])
            if (bf["status"] == "ok" and best["status"] == "ok"
                    and bf["weight"] != best["weight"]):
                print(f"weight mismatch on {pid}: bruteforce {bf['weight']} "
                      f"vs bestfirst {best['weight']}", file=sys.stderr)
                code = EXIT_MISMATCH
                break
        print(bench_table(records))
        if fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
    return code


def cmd_check(args) -> int:
    """Exit 5 if any check fails, else 4 if a cap cut any problem, else 0."""
    code = EXIT_OK
    for pid, dom, prob, pref in args.suite:
        problem = _load_problem(dom, prob, pref)
        try:
            report = cross_check(problem)
        except CapExceeded as exc:
            print(f"{pid}: enumeration cap hit ({exc.kind})")
            code = max(code, EXIT_LIMIT)
            continue
        for name, ok in report.checks.items():
            print(f"{pid}: {name}: {'pass' if ok else 'FAIL'}")
            if not ok:
                code = EXIT_MISMATCH
    return code


def _seconds(text: str) -> float:
    """A --timeout value: a finite number of seconds, 0 or more."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prefhtn",
        description="preference-optimal HTN planner")
    sub = ap.add_subparsers(dest="command", required=True)
    caps = EnumerationCaps()
    enumeration = (f"enumeration stops at {caps.max_plans:,} plans or "
                   f"{caps.max_seconds:g} s")
    suite = "a directory of NAME.htn, NAME-k.prob and optional NAME-k.pref"

    sp = sub.add_parser("solve", help="solve one problem")
    sp.add_argument("--domain", required=True, help="the domain file (.htn)")
    sp.add_argument("--problem", required=True,
                    help="the problem file (.prob)")
    sp.add_argument("--prefs", default=None,
                    help="the preference file (.pref); without it every "
                         "plan weighs 0")
    sp.add_argument("--mode", choices=("bestfirst", "bruteforce"),
                    default="bestfirst",
                    help="best-first search (default), or brute force, whose "
                         f"{enumeration} (--timeout replaces the "
                         f"{caps.max_seconds:g} s)")
    sp.add_argument("--timeout", type=_seconds, default=None,
                    help="wall-clock seconds, finite and >= 0 (default: "
                         f"none for bestfirst, {caps.max_seconds:g} for "
                         "bruteforce)")
    sp.add_argument("--json", action="store_true",
                    help="print the plan and statistics as one JSON record")
    sp.add_argument("--tiebreak-lex", action="store_true",
                    help="return the lexicographically smallest optimal plan "
                         "(bestfirst only)")
    sp.set_defaults(func=cmd_solve)

    bp = sub.add_parser("bench", help="benchmark a suite directory")
    bp.add_argument("--suite", required=True, type=_suite_triples,
                    help=suite)
    bp.add_argument("--timeout", type=_seconds, default=60.0,
                    help="seconds per problem and mode (default 60); brute "
                         f"force also stops at {caps.max_plans:,} plans")
    bp.add_argument("--out", default=None,
                    help="also write one JSON record per problem and mode")
    bp.set_defaults(func=cmd_bench)

    cp = sub.add_parser("check", help="cross-check solver vs. enumerator",
                        description="Cross-check the solver against the "
                        f"enumerator on each problem; each {enumeration}, "
                        "and check takes no --timeout.")
    cp.add_argument("--suite", required=True, type=_suite_triples,
                    help=suite)
    cp.set_defaults(func=cmd_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing file: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if exc.filename is None:  # not about a path the command line gave
            raise
        print(f"cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
