"""Brute-force baseline: enumerate every solution plan, score each one with
the direct trace semantics, and report the optimum.

Enumeration reuses the planner's expansion relation under the trivial
preference, whose product state is settled at the root and never stepped,
so the two modes can only differ in search order.
Plan weights are computed after enumeration finishes, inside its time cap,
and are excluded from the reported elapsed time, which therefore measures
pure plan generation.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Optional

from . import progression as P
from . import semantics
from .errors import CapExceeded
from .model import OperatorEvent, Problem, Record, Trace, Value, _set
from .parser import empty_preference
from .search import (SearchNode, SearchStats, SolveConfig, _Expander,
                     make_root, solve)


class EnumerationCaps(Value):
    __slots__ = ("max_plans", "max_seconds")

    def __init__(self, max_plans: int = 100_000, max_seconds: float = 600.0):
        assert max_plans > 0 and max_seconds >= 0
        _set(self, "max_plans", max_plans)
        _set(self, "max_seconds", max_seconds)


class OracleResult(Record):
    __slots__ = ("plan_count", "best_plan", "best_weight", "all_weights",
                 "stats", "traces")

    def __init__(self, plan_count: int,
                 best_plan: Optional[tuple[OperatorEvent, ...]],
                 best_weight: Optional[Fraction],
                 all_weights: tuple[Fraction, ...], stats: SearchStats,
                 traces: tuple[Trace, ...]):
        self.plan_count = plan_count
        self.best_plan = best_plan
        self.best_weight = best_weight
        self.all_weights = all_weights  # of the plans scored, in order
        self.stats = stats
        self.traces = traces  # the plans scored, as all_weights


def enumerate_all(problem: Problem, caps: EnumerationCaps = None,
                  config: SolveConfig = None) -> OracleResult:
    """Depth-first exhaustive enumeration of all solution plans, at the
    depth cap of config.

    Deterministic: children come out in method declaration order, then
    grounding order. Raises CapExceeded (carrying the partial result) when a
    cap is hit; a depth cut (see search) is reported after the enumeration,
    with every plan under the cap, or in place of a later time or plan cap.
    The time cap bounds the scoring too: once it has passed, the result
    keeps the traces scored so far, the first len(all_weights) of the
    plan_count found, and an enumeration that finished is reported as cut
    by time (or depth).
    """
    caps = caps or EnumerationCaps()
    stats = SearchStats()
    start = time.monotonic()
    deadline = start + caps.max_seconds
    exp = _Expander(problem, config or SolveConfig(), stats, deadline=deadline)

    traces: list[Trace] = []
    cut = False  # whether a branch was cut at the depth cap

    def record(node: SearchNode):
        if len(traces) >= caps.max_plans:
            raise CapExceeded("depth" if cut else "plans", _finish())
        traces.append(node.trace)

    def _finish() -> OracleResult:
        stats.elapsed = time.monotonic() - start
        gpf, universe = problem.preference, problem.constants
        weights = []
        for t in traces:
            if time.monotonic() > deadline:
                break
            weights.append(semantics.weight_gpf(t, gpf, universe))
        best_i = None
        for i, w in enumerate(weights):
            if best_i is None or w < weights[best_i]:
                best_i = i
        best_plan = traces[best_i].plan() if best_i is not None else None
        best_w = weights[best_i] if best_i is not None else None
        if best_i is not None:
            stats.plan_length = len(best_plan)
        return OracleResult(len(traces), best_plan, best_w, tuple(weights),
                            stats, tuple(traces[:len(weights)]))

    root = make_root(problem, P.init_progressed(empty_preference(),
                                                problem.constants))
    stack: list[SearchNode] = [root]
    try:
        while stack:
            if time.monotonic() > deadline:
                raise CapExceeded("depth" if cut else "time", _finish())
            node = stack.pop()
            if not node.agenda:
                record(node)
                continue
            children = exp.expand(node)
            cut, exp.cut = cut or exp.cut, False
            if exp.late:
                raise CapExceeded("depth" if cut else "time", _finish())
            stats.nodes_considered += len(children)
            stack.extend(reversed(children))
    finally:
        root.progressed.automaton.release()
    result = _finish()
    if cut or len(result.all_weights) < result.plan_count:
        raise CapExceeded("depth" if cut else "time", result)
    return result


class CheckReport(Record):
    __slots__ = ("problem", "plan_count", "solve_weight", "oracle_weight",
                 "checks")

    def __init__(self, problem: str, plan_count: int,
                 solve_weight: Optional[Fraction],
                 oracle_weight: Optional[Fraction],
                 checks: Optional[dict[str, bool]] = None):
        self.problem = problem
        self.plan_count = plan_count
        self.solve_weight = solve_weight
        self.oracle_weight = oracle_weight
        self.checks = {} if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def cross_check(problem: Problem, caps: EnumerationCaps = None,
                config: SolveConfig = None) -> CheckReport:
    """Run the planner and the enumerator against each other. The search
    and the replay run on one automaton: the preference is ground once,
    and the replay finds the transitions the search met already built.

    Asserted properties, one pass/fail entry each:
      * weight-match: the planner's returned weight equals the enumerated
        minimum (both report no plan on unsolvable problems);
      * progression-direct: for every enumerated plan, replaying it through
        progression yields exactly its direct-semantics weight, the one the
        enumeration scored it with (OracleResult.all_weights);
      * prefix-monotone: along every plan's prefix chain, the optimistic
        bound never decreases, the pessimistic bound never increases, and
        both bracket the final weight;
      * bounds-converged: once the bounds meet on a prefix, they equal the
        final weight from then on.
    """
    caps = caps or EnumerationCaps()
    config = config or SolveConfig()
    oracle = enumerate_all(problem, caps, config)
    root = P.init_progressed(problem.preference, problem.constants, problem)
    try:
        result = solve(problem, config, root)
        replays = P.progress_trace(problem.preference, oracle.traces,
                                   problem.constants, root)
    finally:
        root.automaton.release()

    report = CheckReport(problem.name, oracle.plan_count,
                         result.weight, oracle.best_weight)
    if oracle.plan_count == 0:
        report.checks["weight-match"] = result.status == "noplan"
        report.checks["progression-direct"] = True
        report.checks["prefix-monotone"] = True
        report.checks["bounds-converged"] = True
        return report

    report.checks["weight-match"] = (result.status == "ok"
                                     and result.weight == oracle.best_weight)

    prog_ok = mono_ok = conv_ok = True
    for direct, (final, prefix_bounds) in zip(oracle.all_weights, replays):
        if final != direct:
            prog_ok = False
        prev = None
        converged_at = None
        for b in prefix_bounds:
            if b is prev:  # every check gives what it gave on prev
                continue
            if not (b.opt <= final <= b.pess):
                mono_ok = False
            if prev is not None and (b.opt < prev.opt or b.pess > prev.pess):
                mono_ok = False
            if converged_at is None and b.opt == b.pess:
                converged_at = b.opt
            if converged_at is not None and not (b.opt == b.pess == final):
                conv_ok = False
            prev = b
    report.checks["progression-direct"] = prog_ok
    report.checks["prefix-monotone"] = mono_ok
    report.checks["bounds-converged"] = conv_ok
    return report
