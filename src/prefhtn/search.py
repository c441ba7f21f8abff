"""Best-first preference planner over ordered task decomposition.

The frontier holds partial decompositions ordered by (optimistic weight,
pessimistic weight, plan length, insertion order). Expansion drills through
the front of the agenda — firing end events, splicing method bodies, checking
before-constraints — until a ground operator is applied; each reachable
operator yields one child. A node whose agenda empties carries its exact
weight, and the first such node popped is optimal (its optimistic weight is a
lower bound on everything still in the frontier).

The same expansion relation, with the preference bookkeeping switched off,
drives the brute-force enumerator; legality is defined in exactly one place.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import formulas as F
from . import progression as P
from .errors import PreconditionViolation, ResourceLimit, UnboundVariable
from .model import (Atom, EndEvent, Inst, Literal, OperatorEvent, Problem,
                    StartEvent, State, Subst, Task, Trace, Unordered,
                    empty_trace, is_ground, relevant_methods, subst_literal)


@dataclass(frozen=True, slots=True)
class EndMarker:
    """Agenda placeholder that fires the end event of a started instance."""

    inst: Inst


@dataclass(frozen=True, slots=True)
class Check:
    """Agenda placeholder for a method's before-constraint: the literal must
    hold in the state reached when the marker is drilled, or the branch dies."""

    lit: Literal


@dataclass
class SolveConfig:
    timeout: Optional[float] = None        # seconds, wall clock
    max_expansions: Optional[int] = None   # cap on applied operators
    depth_cap: int = 64                    # decomposition recursion depth
    tiebreak_lex: bool = False             # break weight ties lexicographically
    debug: bool = False                    # assert best-first dominance


@dataclass
class SearchStats:
    nodes_expanded: int = 0    # NE: applied operators
    nodes_considered: int = 0  # NC: frontier insertions
    elapsed: float = 0.0
    plan_length: Optional[int] = None


@dataclass(slots=True)
class SearchNode:
    agenda: tuple
    trace: Trace
    progressed: Optional[P.Progressed]
    opt: Fraction
    pess: Fraction
    weight: Optional[Fraction]  # set iff agenda holds no further events
    plan_length: int
    depth: int


@dataclass
class Result:
    status: str  # "ok" | "noplan"
    plan: Optional[tuple[OperatorEvent, ...]]
    weight: Optional[Fraction]
    stats: SearchStats
    trace: Optional[Trace] = None


def satisfiers(pre: tuple[Literal, ...], state: State, sigma: Subst):
    """All substitutions under which every precondition literal holds.

    Positive literals are matched in order: one that the bindings so far
    make ground is looked up in the state's facts; any other is matched
    against the facts of its predicate, sorted, so the enumeration order is
    stable across runs. Negative literals must be ground once the positives
    have bound everything, and are checked last.
    """
    positives = [l.atom for l in pre if l.positive]
    negatives = [l for l in pre if not l.positive]
    facts = state.facts
    by_pred: dict[str, list[Atom]] = {}  # predicate -> its facts, sorted

    def bind(i: int, sigma: Subst):
        if i == len(positives):
            for l in negatives:
                g = subst_literal(l, sigma)
                if not is_ground(g.atom.args):
                    raise UnboundVariable(
                        f"negative precondition {g} not grounded by positives")
                if not state.holds(g):
                    return
            yield sigma
            return
        pred, pattern = positives[i]
        args = tuple([sigma.get(a, a) for a in pattern])
        if "?" not in [a[0] for a in args]:  # ground: one lookup
            if Atom(pred, args) in facts:
                yield from bind(i + 1, sigma)
            return
        candidates = by_pred.get(pred)
        if candidates is None:
            candidates = by_pred[pred] = sorted([a for a in facts
                                                 if a.pred == pred])
        for atom in candidates:
            if len(atom.args) != len(args):
                continue
            ext = dict(sigma)
            ok = True
            for p, a in zip(args, atom.args):
                if p[0] == "?":
                    if ext.setdefault(p, a) != a:
                        ok = False
                        break
                elif p != a:
                    ok = False
                    break
            if ok:
                yield from bind(i + 1, ext)

    yield from bind(0, dict(sigma) if sigma else {})


def _emits(item) -> bool:
    """Whether the agenda item will ever produce a trace event."""
    if isinstance(item, Check):
        return False
    if isinstance(item, Unordered):
        return any(any(_emits(i) for i in mem) for mem in item.members)
    return True  # Task or EndMarker


def _any_emits(agenda) -> bool:
    return any(_emits(item) for item in agenda)


def _step(pf, event, trace: Trace, terminal: bool):
    """Progress pf through the event that ended trace; None stays None."""
    if pf is None:
        return None
    return P.step(pf, P.StepContext(event, trace.final_state, terminal))


def _make_node(agenda, trace: Trace, pf, depth: int, plan_length: int,
               terminal: bool) -> SearchNode:
    if pf is None:
        w = Fraction(0) if terminal else None
        return SearchNode(agenda, trace, None, F.W_MIN, F.W_MAX, w,
                          plan_length, depth)
    if terminal:
        w = P.terminal_weight(pf)
        return SearchNode(agenda, trace, pf, w, w, w, plan_length, depth)
    b = P.bounds(pf)
    return SearchNode(agenda, trace, pf, b.opt, b.pess, None,
                      plan_length, depth)


class _Expander:
    """Shared expansion relation. progressed=None disables all preference
    bookkeeping (brute-force mode): children then carry trivial bounds and
    terminal nodes carry weight None, to be evaluated after the fact."""

    def __init__(self, problem: Problem, config: SolveConfig,
                 stats: SearchStats):
        self.problem = problem
        self.domain = problem.domain
        self.config = config
        self.stats = stats

    def expand(self, node: SearchNode) -> list[SearchNode]:
        return self._drill(node.agenda, node.trace, node.progressed,
                           node.depth, node.plan_length)

    def _drill(self, agenda, trace: Trace, pf, depth: int,
               plan_length: int) -> list[SearchNode]:
        while True:
            head, rest = agenda[0], agenda[1:]

            if isinstance(head, Check):
                if not trace.final_state.holds(head.lit):
                    return []
                agenda = rest
                continue

            if isinstance(head, EndMarker):
                event = EndEvent(head.inst)
                trace = trace.extend(event, self.domain)
                terminal = not _any_emits(rest)
                pf = _step(pf, event, trace, terminal)
                if terminal:
                    return [_make_node(rest, trace, pf, depth, plan_length,
                                       True)]
                agenda = rest
                continue

            if isinstance(head, Unordered):
                members = [m for m in head.members if m]
                if not members:
                    agenda = rest
                    continue
                out: list[SearchNode] = []
                for i, mem in enumerate(members):
                    others = tuple(members[:i] + members[i + 1:])
                    tail = (Unordered(others),) if others else ()
                    out.extend(self._drill(tuple(mem) + tail + rest,
                                           trace, pf, depth, plan_length))
                return out

            task: Task = head
            if task.primitive:
                return self._apply_primitive(task, rest, trace, pf, depth,
                                             plan_length)
            return self._decompose(task, rest, trace, pf, depth, plan_length)

    def _apply_primitive(self, task: Task, rest, trace: Trace, pf,
                         depth: int, plan_length: int) -> list[SearchNode]:
        event = OperatorEvent(task.name, task.args, trace.length)
        try:
            trace = trace.extend(event, self.domain)
        except PreconditionViolation:
            return []
        self.stats.nodes_expanded += 1
        cap = self.config.max_expansions
        if cap is not None and self.stats.nodes_expanded > cap:
            raise ResourceLimit("expansions", self.stats)
        terminal = not _any_emits(rest)
        pf = _step(pf, event, trace, terminal)
        return [_make_node(rest, trace, pf, depth, plan_length + 1, terminal)]

    def _decompose(self, task: Task, rest, trace: Trace, pf,
                   depth: int, plan_length: int) -> list[SearchNode]:
        if depth + 1 > self.config.depth_cap:
            raise ResourceLimit("depth", self.stats)
        out: list[SearchNode] = []
        state = trace.final_state
        for method, sigma0 in relevant_methods(task, self.domain):
            for sigma in satisfiers(method.pre, state, sigma0):
                task_inst = Inst("task", task.name, task.args, trace.length)
                t1 = trace.extend(StartEvent(task_inst), self.domain)
                pf1 = _step(pf, t1.event, t1, False)
                method_inst = Inst("method", method.branch, task.args,
                                   t1.length)
                t2 = t1.extend(StartEvent(method_inst), self.domain)
                pf2 = _step(pf1, t2.event, t2, False)

                subtasks = [st.ground(sigma) for st in method.subtasks]
                if method.unordered:
                    items: list = [Unordered(tuple((st,) for st in subtasks))]
                else:
                    checks: dict[int, list] = {}
                    for lit, idx in method.before:
                        checks.setdefault(idx, []).append(
                            Check(subst_literal(lit, sigma)))
                    items = []
                    for i, st in enumerate(subtasks):
                        items.extend(checks.get(i, ()))
                        items.append(st)
                    items.extend(checks.get(len(subtasks), ()))

                agenda = (tuple(items)
                          + (EndMarker(method_inst), EndMarker(task_inst))
                          + rest)
                out.extend(self._drill(agenda, t2, pf2, depth + 1,
                                       plan_length))
        return out


def _plan_key(node: SearchNode):
    return tuple((e.name,) + e.args for e in node.trace.plan())


def make_root(problem: Problem, with_preference: bool = True
              ) -> tuple[Optional[SearchNode], Optional[SearchNode]]:
    """Build the root node; returns (root, immediate-solution). Exactly one
    of the pair is non-None: an empty task network is already a solution."""
    trace = empty_trace(problem.init)
    agenda = tuple(problem.network)
    terminal = not _any_emits(agenda)
    pf = None
    if with_preference:
        gpf = problem.preference if problem.preference is not None \
            else F.bdf_gpf(F.TRUE)
        pf = _step(P.init_progressed(gpf, problem.constants), None, trace,
                   terminal)
    node = _make_node(agenda, trace, pf, 0, 0, terminal)
    if terminal:
        return None, node
    return node, None


def solve(problem: Problem, config: SolveConfig = None) -> Result:
    """Find a solution plan of minimum preference weight.

    Returns status "noplan" when the task network has no solution at all.
    Raises ResourceLimit when a configured cap (time, expansions, depth) is
    hit before an optimal node surfaces.
    """
    config = config or SolveConfig()
    stats = SearchStats()
    start = time.monotonic()
    exp = _Expander(problem, config, stats)

    def finish(node: Optional[SearchNode]) -> Result:
        stats.elapsed = time.monotonic() - start
        if node is None:
            return Result("noplan", None, None, stats)
        plan = node.trace.plan()
        stats.plan_length = len(plan)
        return Result("ok", plan, node.weight, stats, node.trace)

    root, immediate = make_root(problem)
    if immediate is not None:
        return finish(immediate)

    heap: list = []
    seq = itertools.count()
    heapq.heappush(heap, (root.opt, root.pess, root.plan_length,
                          next(seq), root))
    stats.nodes_considered += 1

    best: Optional[SearchNode] = None
    max_popped_opt = F.W_MIN
    try:
        while heap:
            if config.timeout is not None \
                    and time.monotonic() - start > config.timeout:
                raise ResourceLimit("time", stats)
            opt, _pess, _plen, _seq, node = heapq.heappop(heap)
            if best is not None and opt > best.weight:
                break
            max_popped_opt = max(max_popped_opt, opt)
            if node.weight is not None:
                if best is None:
                    best = node
                    if not config.tiebreak_lex:
                        break
                elif node.weight == best.weight \
                        and _plan_key(node) < _plan_key(best):
                    best = node
                continue
            for child in exp.expand(node):
                heapq.heappush(heap, (child.opt, child.pess, child.plan_length,
                                      next(seq), child))
                stats.nodes_considered += 1
    except ResourceLimit:
        stats.elapsed = time.monotonic() - start
        raise

    if best is not None and config.debug:
        assert max_popped_opt <= best.weight
    return finish(best)
