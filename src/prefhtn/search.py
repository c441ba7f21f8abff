"""Best-first preference planner over ordered task decomposition.

A search node is its agenda, its trace and its progressed preference, a
product state whose bounds (progression.bounds) order the frontier. The
agenda is what remains to do, front first: ground tasks, an Unordered group
of tasks, the ground Literal of a method's before-constraint, and the
pending EndEvent of each started task or method instance. The frontier holds
nodes ordered by _key, (optimistic weight, plan key, nesting, plan length
descending), then by insertion order. The plan key is the tuple of the
plan's (name,) + args under --tiebreak-lex and () otherwise; the nesting is
the number of task end events on the agenda: the tasks still open. Ties of
the optimistic weight thus go depth first, as in SHOP2 and in HTNPREF's
depth tie-break (Sohrabi, Baier & McIlraith, IJCAI 2009), but to the fewest
open tasks first: a recursion that leaves one more task open on each lap,
such as a walk around a cycle, yields to every tied node with fewer tasks
open, where deepest-first alone would follow it down to the depth cap. A
tied branch with more tasks open can still reach the cap first; the cut then
ends the search only if no plan is found at the same bound (below). The plan
key takes the place of the pessimistic weight: over the test corpus that
slot changed no weight and one expansion in 3,810 (the key ablation in the
tests). Expansion drills through the front of the agenda — firing end
events, splicing method bodies, checking before-constraints — until a ground
operator is applied; each reachable operator yields one child. Every agenda
item but a literal emits an event, and a literal always precedes a task, so
a node is terminal exactly when its agenda is empty. Its product state is
then settled and its bounds meet at the exact weight, and the first terminal
node popped is optimal (its optimistic weight is a lower bound on everything
still in the frontier). Under --tiebreak-lex it is also the
lexicographically smallest optimal plan: the plan key of a prefix is never
above that of any of its extensions and opt is admissible, so no other
terminal node is popped while a node on the way to that plan is in the
frontier, and duplicate detection (below) always leaves one there.

The nesting depth of a task is the number of task end events on the agenda
behind it: the tasks still executing around it. A node carries its agenda's
count as nesting; decomposing a task adds one and firing a task's end event
takes one away. A task inside depth_cap or more of them gets no child: that
branch is cut, the popped node's other children are pushed, and so is a
marker at its (optimistic weight, plan key) behind every node tied there;
popping it raises ResourceLimit("depth"). Popped bounds never fall (see
duplicate detection), so a terminal node popped first is still optimal. Once
an expansion has cut, it also cuts each task named as an open one it
decomposed: a recursion that applies no operator, such as two methods (t) ->
(t), would otherwise try 2^depth_cap decompositions, all stood for by the
marker. Where ties broken shortest plan first would return a plan without
reaching the cap, this order returns one of the same weight: a branch cut
below that weight has an equal one that the other order reaches before its
plan. Method bodies are finite, so a decomposition tree of bounded nesting
is finite, as is the search tree.

Duplicate detection. A node's signature (_signature) is the product of its
HTN state and the state of the preference automaton:
  * the facts;
  * the agenda, each end event reduced to (kind, name, args);
  * the preference's product state, one per residual tuple, by identity;
  * one bit per ground reference whose termination progression can read
    (_terminated_refs): whether an instance it matches has terminated.
A node carries these bits as one int, which it inherits from its parent
(the root's are clear: the empty trace holds no instance); only an operator
or end event that terminates an instance of a watched (kind, name) sets
any, so the signature walks no trace for them. The agenda decides the
nesting depth, so the depth cap needs no entry.
Nothing downstream reads an instance uid: event_matches, terminated_at and
window_open read references only. The one other read of the trace is
window_open's: whether t2, a watched ref, has started. An instance has
started once it has terminated or while it executes, and each executing
instance has exactly one end event on the agenda, so t2 has started iff
its terminated bit is set or an end event of t2 is on the agenda; the
started instances need no entry. So two nodes with equal signatures have
the same completions at the same weights, and equal bounds. The key is
checked when a node is popped. Skipping a non-terminal node whose signature
is already closed loses no weight: the node expanded first has each
completion of the skipped one at the same weight, so until a terminal node
is popped the frontier still holds a node on the way to an optimal plan,
and its optimistic weight is at most the optimum. It may change which
optimal plan is returned: two equal nodes can differ in plan length, a node
popped later can carry a smaller key than one popped before it, and the
completions of whichever is expanded are the ones the search goes on with.
The closed set keeps the plan key p1 of the first node expanded with each
signature; () is no proper prefix of (), so without --tiebreak-lex a later
equal node is always skipped. A child's optimistic weight is no lower than
its parent's and its plan key extends its parent's, so the popped
(optimistic weight, plan key) pairs never fall, whatever the nesting and
plan length behind them; a later equal node, with the same bounds, is
therefore popped with a plan key p2 >= p1.
Unless p1 is a proper prefix of p2, p1 + c <= p2 + c for every continuation
c, so the first node has each completion of the later one at the same
weight and a plan key no larger, and the later node is skipped. If p1 is
one, p1 + c and p2 + c = p1 + x + c compare either way, so the later node
is expanded. HPLAN-P makes the same argument when it folds the preference
automata into the planning state (Baier, Bacchus & McIlraith, AIJ 2009).

A product state whose residuals are all constant is settled: every letter
leads back to it, so a node that reaches one keeps it without a
progression step, and its bounds are the exact weight.

The same expansion relation drives the brute-force enumerator, under the
trivial preference: its product state is settled at the root and never
stepped. Legality is defined in exactly one place: which methods apply to
a task, under which bindings and with which ground bodies, is what the
domain's decomposition kernels (model.kernel_table) yield, and nothing else
matches a method.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from fractions import Fraction
from typing import Optional

from . import formulas as F
from . import progression as P
from .errors import PreconditionViolation, ResourceLimit
from .model import (EndEvent, Inst, Literal, OperatorEvent, Problem, Record,
                    StartEvent, State, Task, Trace, Value, args_match,
                    empty_trace, slot_setters)


class Unordered(Value):
    """The remaining subtasks of an unordered method, at least one; any of
    them may go next."""

    __slots__ = ("tasks",)

    def __init__(self, tasks: tuple[Task, ...]):
        _unordered_tasks(self, tasks)

    def __eq__(self, other):
        if type(other) is not Unordered:
            return NotImplemented
        return self is other or self.tasks == other.tasks

    __hash__ = Value.__hash__


(_unordered_tasks,) = slot_setters(Unordered, "tasks")


class SolveConfig(Record):
    __slots__ = ("timeout", "depth_cap", "tiebreak_lex")

    def __init__(self, timeout: Optional[float] = None, depth_cap: int = 64,
                 tiebreak_lex: bool = False):
        self.timeout = timeout            # seconds, wall clock
        self.depth_cap = depth_cap        # task nesting depth
        self.tiebreak_lex = tiebreak_lex  # order weight ties by plan key


class SearchStats(Record):
    __slots__ = ("nodes_expanded", "nodes_considered", "duplicates",
                 "frontier_peak", "elapsed", "plan_length")

    def __init__(self, nodes_expanded: int = 0, nodes_considered: int = 0,
                 duplicates: int = 0, frontier_peak: int = 0,
                 elapsed: float = 0.0, plan_length: Optional[int] = None):
        self.nodes_expanded = nodes_expanded      # NE: applied operators
        self.nodes_considered = nodes_considered  # NC: frontier insertions
        self.duplicates = duplicates  # popped nodes skipped as already closed
        self.frontier_peak = frontier_peak  # most nodes in the frontier
        self.elapsed = elapsed
        self.plan_length = plan_length


class SearchNode(Record):
    __slots__ = ("agenda", "trace", "progressed", "plan_length", "nesting",
                 "terminated")

    def __init__(self, agenda: tuple, trace: Trace, progressed: P.Progressed,
                 plan_length: int, nesting: int, terminated: int):
        self.agenda = agenda
        self.trace = trace
        self.progressed = progressed  # settled once the agenda is empty
        self.plan_length = plan_length
        self.nesting = nesting  # task end events on the agenda
        self.terminated = terminated  # bit i: refs[i] has terminated


class Result(Record):
    __slots__ = ("status", "plan", "weight", "stats", "trace")

    def __init__(self, status: str, plan: Optional[tuple[OperatorEvent, ...]],
                 weight: Optional[Fraction], stats: SearchStats,
                 trace: Optional[Trace] = None):
        self.status = status  # "ok" | "noplan"
        self.plan = plan
        self.weight = weight
        self.stats = stats
        self.trace = trace


def satisfiers(kernel, args: tuple[str, ...], state: State):
    """The ground bodies of one method for the task args in state: its
    kernel's generator (see model.kernel_table), one body per satisfier of
    the method's preconditions, in the order of a sorted scan of the facts.
    The search calls this once per method of each decomposed task."""
    return kernel(args, state)


def _step(pf: P.Progressed, trace: Trace, terminal: bool) -> P.Progressed:
    """Progress pf through the event that ended trace; a settled product
    state, a fixpoint of every letter, stays."""
    if pf.settled:
        return pf
    return P.step(pf, P.StepContext(trace, terminal))


class _Expander:
    """Shared expansion relation: each child carries the product state its
    events step its parent's to. The enumerator's, of the trivial
    preference, is settled at the root and never stepped. refs are the
    ground references whose termination the node's terminated bits record
    (see _signature); watched maps each (kind, name) among them to its
    (bit, args) pairs. A task that would nest depth_cap deep gets no child
    and sets cut, which the caller resets; while it is set, no task named
    in opened[base:nesting], by nesting from the expanded node's, gets one.
    Once the clock has passed the caller's deadline, no task gets a child
    and late is set, so one wide expansion ends there too."""

    def __init__(self, problem: Problem, config: SolveConfig,
                 stats: SearchStats, refs: tuple[F.Ref, ...] = (),
                 deadline: float = math.inf):
        self.domain = problem.domain
        self.config = config
        self.stats = stats
        self.deadline = deadline  # on the time.monotonic clock
        self.cut = self.late = False
        self.opened: list[Optional[str]] = [None] * config.depth_cap
        self.watched: dict[tuple, list] = {}
        for i, ref in enumerate(refs):
            self.watched.setdefault((ref.kind, ref.name), []).append(
                (1 << i, ref.args))

    def _terminate(self, bits: int, kind: str, name: str, args) -> int:
        """bits with those of the refs an instance terminating now matches."""
        for bit, pattern in self.watched.get((kind, name), ()):
            if args_match(pattern, args):
                bits |= bit
        return bits

    def expand(self, node: SearchNode) -> list[SearchNode]:
        self.base = node.nesting
        return self._drill(node.agenda, node.trace, node.progressed,
                           node.plan_length, node.nesting, node.terminated)

    def _drill(self, agenda, trace: Trace, pf, plan_length: int,
               nesting: int, terminated: int) -> list[SearchNode]:
        while True:
            head, rest = agenda[0], agenda[1:]

            # a before-constraint always precedes a task of its method, so
            # a literal is never the last agenda item
            if type(head) is Literal:
                if not trace.final_state.holds(head):
                    return []
                agenda = rest
                continue

            if type(head) is EndEvent:
                trace = trace.extend(head, self.domain)
                if head.inst.kind == "task":
                    nesting -= 1
                if self.watched:
                    terminated = self._terminate(terminated, *head.inst[:3])
                pf = _step(pf, trace, not rest)
                if not rest:
                    return [SearchNode(rest, trace, pf, plan_length, nesting,
                                       terminated)]
                agenda = rest
                continue

            if isinstance(head, Unordered):
                out: list[SearchNode] = []
                tasks = head.tasks
                for i, task in enumerate(tasks):
                    others = tasks[:i] + tasks[i + 1:]
                    tail = (Unordered(others),) if others else ()
                    out.extend(self._drill((task,) + tail + rest, trace, pf,
                                           plan_length, nesting, terminated))
                return out

            task: Task = head
            if task.primitive:
                return self._apply_primitive(task, rest, trace, pf,
                                             plan_length, nesting, terminated)
            return self._decompose(task, rest, trace, pf, plan_length,
                                   nesting, terminated)

    def _apply_primitive(self, task: Task, rest, trace: Trace, pf,
                         plan_length: int, nesting: int, terminated: int
                         ) -> list[SearchNode]:
        event = OperatorEvent(task.name, task.args, trace.length)
        try:
            trace = trace.extend(event, self.domain)
        except PreconditionViolation:
            return []
        self.stats.nodes_expanded += 1
        if self.watched:
            terminated = self._terminate(terminated, "op", task.name,
                                         task.args)
        pf = _step(pf, trace, not rest)
        return [SearchNode(rest, trace, pf, plan_length + 1, nesting,
                           terminated)]

    def _decompose(self, task: Task, rest, trace: Trace, pf,
                   plan_length: int, nesting: int, terminated: int
                   ) -> list[SearchNode]:
        if time.monotonic() > self.deadline:
            self.late = True
            return []
        if nesting >= self.config.depth_cap:
            self.cut = True
            return []
        if self.cut and task.name in self.opened[self.base:nesting]:
            return []
        out: list[SearchNode] = []
        state = trace.final_state
        task_inst = Inst("task", task.name, task.args, trace.length)
        t1 = None  # the task's start, emitted at its first applicable method
        for branch, unordered, kernel in self.domain._kernels.get(task.name,
                                                                   ()):
            for body in satisfiers(kernel, task.args, state):
                if t1 is None:
                    t1 = trace.extend(StartEvent(task_inst), self.domain)
                    pf1 = _step(pf, t1, False)
                method_inst = Inst("method", branch, task.args, t1.length)
                t2 = t1.extend(StartEvent(method_inst), self.domain)
                pf2 = _step(pf1, t2, False)
                if unordered:
                    body = (Unordered(body),) if body else ()
                agenda = (body + (EndEvent(method_inst), EndEvent(task_inst))
                          + rest)
                self.opened[nesting] = task.name
                out.extend(self._drill(agenda, t2, pf2, plan_length,
                                       nesting + 1, terminated))
        return out


def _terminated_refs(phi: F.BDF):
    """The refs whose termination, or for a window's t2 start, progression
    may read on phi or on a residual phi progresses to: every ref but those
    only ever matched against events (an operator's occ, an OccNext)."""
    if not (isinstance(phi, F.Occ) and phi.ref.kind == "op"
            or isinstance(phi, F.OccNext)):
        yield from (v for v in F.node_fields(phi) if isinstance(v, F.Ref))
    for p in F.children(phi):
        yield from _terminated_refs(p)


def _signature(node: SearchNode) -> tuple:
    """What decides the node's completions and their weights (see the
    module docstring)."""
    return (node.trace.final_state.facts,
            tuple([x.inst[:3] if type(x) is EndEvent else x
                   for x in node.agenda]),
            id(node.progressed),
            node.terminated)


def _key(node: SearchNode, lex: bool) -> tuple:
    """The node's frontier order, bar insertion order (module docstring)."""
    return (P.bounds(node.progressed).opt,
            tuple((e.name,) + e.args for e in node.trace.plan()) if lex
            else (), node.nesting, -node.plan_length)


def _proper_prefix(p: tuple, q: tuple) -> bool:
    return len(p) < len(q) and q[:len(p)] == p


def make_root(problem: Problem, start: P.Progressed = None) -> SearchNode:
    """The root node, its product state stepped from start, by default a
    fresh init_progressed of the problem's preference; an empty task
    network makes it terminal."""
    trace = empty_trace(problem.init.indexed(problem.domain))
    agenda = tuple(problem.network)
    if start is None:
        start = P.init_progressed(problem.preference, problem.constants)
    return SearchNode(agenda, trace, _step(start, trace, not agenda), 0, 0, 0)


def solve(problem: Problem, config: SolveConfig = None,
          start: P.Progressed = None) -> Result:
    """Find a solution plan of minimum preference weight.

    Returns status "noplan" when the task network has no solution at all.
    Raises ResourceLimit when a configured cap (time, depth) is hit before
    an optimal node surfaces. Given start, the problem preference's
    init_progressed, it searches from it and leaves the release of its
    automaton to the caller.
    """
    config = config or SolveConfig()
    stats = SearchStats()
    began = time.monotonic()

    root = make_root(problem, start)
    refs = tuple(dict.fromkeys(r for phi in root.progressed.residuals
                               for r in _terminated_refs(phi)))
    deadline = math.inf if config.timeout is None else began + config.timeout
    exp = _Expander(problem, config, stats, refs, deadline)
    lex = config.tiebreak_lex
    closed: dict = {}  # signature -> plan key of its first expansion
    heap: list = []
    seq = itertools.count()

    def push(node: SearchNode) -> None:
        heapq.heappush(heap, _key(node, lex) + (next(seq), node))
        stats.nodes_considered += 1
        if len(heap) > stats.frontier_peak:
            stats.frontier_peak = len(heap)

    push(root)

    found: Optional[SearchNode] = None
    try:
        while heap:
            if time.monotonic() > deadline:
                raise ResourceLimit("time", stats)
            opt, rank, _nesting, _plen, _seq, node = heapq.heappop(heap)
            if node is None:  # the marker of a branch cut at the depth cap
                raise ResourceLimit("depth", stats)
            if not node.agenda:
                found = node
                break
            key = _signature(node)
            if key not in closed:
                closed[key] = rank
            elif not _proper_prefix(closed[key], rank):
                stats.duplicates += 1
                continue
            for child in exp.expand(node):
                push(child)
            if exp.late:
                raise ResourceLimit("time", stats)
            if exp.cut:  # behind every node tied at the cut's bound
                exp.cut = False
                heapq.heappush(heap, (opt, rank, math.inf, 0, next(seq), None))
    finally:
        stats.elapsed = time.monotonic() - began
        if start is None:
            root.progressed.automaton.release()

    if found is None:
        return Result("noplan", None, None, stats)
    plan = found.trace.plan()
    stats.plan_length = len(plan)
    return Result("ok", plan, P.terminal_weight(found.progressed), stats,
                  found.trace)
