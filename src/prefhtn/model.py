"""Ground symbolic vocabulary for HTN planning.

Terms, literals, states, operators, methods, task networks, events and
traces. All values are immutable, and extending one shares structure with
its parent, so search nodes can be extended independently at O(1) new memory
per event: a state keeps its parent's terminated instances as a linked
record and adds one link per newly terminated instance, and a trace is a cell
that points at the trace it extends.

A trace records the full event history, including the start/end events of
nonprimitive tasks and method applications; a plan is the projection of a
trace onto its operator events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Union

from .errors import IllegalEvent, NotNonprimitive, PreconditionViolation


def is_var(term: str) -> bool:
    return term.startswith("?")


def is_ground(args: tuple[str, ...]) -> bool:
    return not any(is_var(a) for a in args)


class Atom(NamedTuple):
    pred: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        return "(%s)" % " ".join((self.pred,) + self.args)


class Literal(NamedTuple):
    atom: Atom
    positive: bool = True

    def negate(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"(not {self.atom})"


Subst = dict[str, str]


def subst_args(args: tuple[str, ...], sigma: Subst) -> tuple[str, ...]:
    return tuple(sigma.get(a, a) for a in args)


def subst_atom(atom: Atom, sigma: Subst) -> Atom:
    return Atom(atom.pred, subst_args(atom.args, sigma))


def subst_literal(lit: Literal, sigma: Subst) -> Literal:
    return Literal(subst_atom(lit.atom, sigma), lit.positive)


def unify_args(pattern: tuple[str, ...], ground: tuple[str, ...],
               sigma: Optional[Subst] = None) -> Optional[Subst]:
    """Match pattern args (may contain variables) against ground args."""
    if len(pattern) != len(ground):
        return None
    out = dict(sigma) if sigma else {}
    for p, g in zip(pattern, ground):
        p = out.get(p, p)
        if is_var(p):
            out[p] = g
        elif p != g:
            return None
    return out


def args_match(pattern: tuple[str, ...], actual: tuple[str, ...]) -> bool:
    """Ground-pattern match with suppressed parameters.

    Equal arity requires positional equality; a shorter pattern matches when
    its args appear in the actual args in order, so a preference may write
    (occ (!book train)) against an operator that carries extra arguments.
    """
    if len(pattern) == len(actual):
        return pattern == actual
    if len(pattern) > len(actual):
        return False
    it = iter(actual)
    return all(p in it for p in pattern)


@dataclass(frozen=True)
class Task:
    name: str
    args: tuple[str, ...] = ()
    primitive: bool = False

    def ground(self, sigma: Subst) -> "Task":
        return Task(self.name, subst_args(self.args, sigma), self.primitive)

    def __str__(self) -> str:
        head = ("!" if self.primitive else "") + self.name
        return "(%s)" % " ".join((head,) + self.args)


@dataclass(frozen=True)
class Operator:
    """STRIPS-style primitive action: literal preconditions, add/delete lists."""

    name: str
    params: tuple[str, ...]
    pre: tuple[Literal, ...] = ()
    add: tuple[Atom, ...] = ()
    delete: tuple[Atom, ...] = ()


@dataclass(frozen=True)
class Unordered:
    """A group of agenda segments whose members may advance in any order."""

    members: tuple[tuple, ...]


@dataclass(frozen=True)
class Method:
    """Decomposition rule for one nonprimitive task.

    before lists (literal, subtask index) pairs: the literal must hold in the
    state immediately before the indexed subtask starts.
    """

    branch: str
    task: Task
    pre: tuple[Literal, ...] = ()
    subtasks: tuple[Task, ...] = ()
    unordered: bool = False
    before: tuple[tuple[Literal, int], ...] = ()


class GroundOperator(NamedTuple):
    """An operator under one binding of its parameters."""

    pre: tuple[Literal, ...]
    delete: frozenset[Atom]
    add: frozenset[Atom]


@dataclass
class Domain:
    name: str
    operators: dict[str, Operator]
    methods: tuple[Method, ...]
    _ground: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def ground(self, name: str, args: tuple[str, ...]) -> GroundOperator:
        """Operator `name` under `args`, grounded once per (name, args)."""
        key = (name, args)
        g = self._ground.get(key)
        if g is None:
            op = self.operators.get(name)
            if op is None:
                raise IllegalEvent(f"unknown operator {name}")
            g = self._ground[key] = ground_operator(op, args)
        return g


class Inst(NamedTuple):
    """One occurrence of an operator, task or method application.

    kind is "op", "task" or "method"; uid is unique within a trace (the index
    of the event that introduced the instance).
    """

    kind: str
    name: str
    args: tuple[str, ...]
    uid: int


@dataclass(frozen=True, slots=True)
class OperatorEvent:
    name: str
    args: tuple[str, ...]
    uid: int

    @property
    def inst(self) -> Inst:
        return Inst("op", self.name, self.args, self.uid)

    def __str__(self) -> str:
        return "(%s)" % " ".join(("!" + self.name,) + self.args)


@dataclass(frozen=True, slots=True)
class StartEvent:
    inst: Inst

    def __str__(self) -> str:
        return f"start[{self.inst.kind} {self.inst.name}{self.inst.args}#{self.inst.uid}]"


@dataclass(frozen=True, slots=True)
class EndEvent:
    inst: Inst

    def __str__(self) -> str:
        return f"end[{self.inst.kind} {self.inst.name}{self.inst.args}#{self.inst.uid}]"


Event = Union[OperatorEvent, StartEvent, EndEvent]


@dataclass(frozen=True, slots=True, eq=False)
class State:
    """Immutable planning state.

    facts holds ground atoms under the closed-world assumption; executing and
    terminated track task/method instances per the two successor state axioms
    (operator occurrences go straight to terminated, never to executing).
    Terminated instances never leave, so a state shares them with its parent:
    terminated_links is a chain of (inst, rest) links, newest first, one per
    terminated instance (None when there is none). max_uid is the largest
    uid started or terminated so far (-1 for none; computed when not given),
    so a start above it needs no scan of the links.
    """

    facts: frozenset[Atom]
    executing: frozenset[Inst] = frozenset()
    terminated_links: Optional[tuple] = field(default=None, kw_only=True,
                                              repr=False)
    max_uid: Optional[int] = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.max_uid is None:
            object.__setattr__(self, "max_uid", max(
                (i.uid for i in itertools.chain(self.executing,
                                                self._terminated())),
                default=-1))

    def _terminated(self) -> Iterator[Inst]:
        link = self.terminated_links
        while link is not None:
            inst, link = link
            yield inst

    @property
    def terminated(self) -> frozenset[Inst]:
        return frozenset(self._terminated())

    def __eq__(self, other) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return (self.facts == other.facts and self.executing == other.executing
                and self.terminated == other.terminated)

    def __hash__(self) -> int:
        return hash((self.facts, self.executing))

    def holds(self, lit: Literal) -> bool:
        present = lit.atom in self.facts
        return present if lit.positive else not present

    def has_executing(self, kind: str, name: str, args: tuple[str, ...]) -> bool:
        return any(i.kind == kind and i.name == name and args_match(args, i.args)
                   for i in self.executing)

    def has_terminated(self, kind: str, name: str, args: tuple[str, ...]) -> bool:
        link = self.terminated_links
        while link is not None:
            i, link = link
            if i.name == name and i.kind == kind and args_match(args, i.args):
                return True
        return False


def ground_operator(op: Operator, args: tuple[str, ...]) -> GroundOperator:
    if len(op.params) != len(args):
        raise PreconditionViolation(None, f"operator {op.name} expects {len(op.params)} args, got {len(args)}")
    sigma = dict(zip(op.params, args))
    return GroundOperator(tuple(subst_literal(l, sigma) for l in op.pre),
                          frozenset(subst_atom(a, sigma) for a in op.delete),
                          frozenset(subst_atom(a, sigma) for a in op.add))


def _apply_ground(state: State, op: GroundOperator, inst: Inst) -> State:
    """STRIPS application: facts' = (facts \\ del) | add, and the operator's
    instance terminates at once."""
    for lit in op.pre:
        if not state.holds(lit):
            raise PreconditionViolation(lit)
    return State((state.facts - op.delete) | op.add, state.executing,
                 terminated_links=(inst, state.terminated_links),
                 max_uid=max(state.max_uid, inst.uid))


def apply_operator(state: State, op: Operator, args: tuple[str, ...], uid: int) -> State:
    return _apply_ground(state, ground_operator(op, args),
                         Inst("op", op.name, args, uid))


def apply_event(state: State, event: Event, domain: Domain) -> State:
    if isinstance(event, OperatorEvent):
        return _apply_ground(state, domain.ground(event.name, event.args),
                             event.inst)
    if isinstance(event, StartEvent):
        inst = event.inst
        if inst.uid <= state.max_uid and (inst in state.executing
                                          or inst in state._terminated()):
            raise IllegalEvent(f"instance already started: {inst}")
        return State(state.facts, state.executing | {inst},
                     terminated_links=state.terminated_links,
                     max_uid=max(state.max_uid, inst.uid))
    if isinstance(event, EndEvent):
        inst = event.inst
        if inst not in state.executing:
            raise IllegalEvent(f"instance not executing: {inst}")
        return State(state.facts, state.executing - {inst},
                     terminated_links=(inst, state.terminated_links),
                     max_uid=state.max_uid)
    raise IllegalEvent(f"unknown event {event!r}")


class Trace:
    """A persistent event sequence, one cell per event: the trace it extends
    (None for the empty trace), the event, the state that event produced and
    the number of events. Extending is O(1) and shares the whole history.
    The events and states tuples (|states| = |events| + 1) are built on
    first use and kept."""

    __slots__ = ("parent", "event", "final_state", "length",
                 "_events", "_states")

    def __init__(self, parent: Optional[Trace], event: Optional[Event],
                 final_state: State):
        self.parent = parent
        self.event = event
        self.final_state = final_state
        if parent is None:
            self.length, self._events, self._states = 0, (), (final_state,)
        else:
            self.length, self._events, self._states = parent.length + 1, None, None

    def _materialize(self, cache: str, value: str) -> tuple:
        """The nearest built ancestor's tuple plus the value of each newer
        cell, kept in this cell."""
        t, newer = self, []
        while getattr(t, cache) is None:
            newer.append(getattr(t, value))
            t = t.parent
        out = getattr(t, cache) + tuple(reversed(newer))
        setattr(self, cache, out)
        return out

    @property
    def events(self) -> tuple[Event, ...]:
        if self._events is None:
            return self._materialize("_events", "event")
        return self._events

    @property
    def states(self) -> tuple[State, ...]:
        if self._states is None:
            return self._materialize("_states", "final_state")
        return self._states

    def plan(self) -> tuple[OperatorEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, OperatorEvent))

    def extend(self, event: Event, domain: Domain) -> "Trace":
        return Trace(self, event, apply_event(self.final_state, event, domain))


def empty_trace(init: State) -> Trace:
    return Trace(None, None, init)


def replay(init: State, events, domain: Domain) -> Trace:
    tr = empty_trace(init)
    for e in events:
        tr = tr.extend(e, domain)
    return tr


def validate_trace(trace: Trace, domain: Domain) -> None:
    """Check the trace invariants; raises IllegalEvent on violation."""
    rebuilt = replay(trace.states[0], trace.events, domain)
    if rebuilt.states != trace.states:
        raise IllegalEvent("states do not follow from event application")
    seen_uids: set[int] = set()
    started: set[Inst] = set()
    for e in trace.events:
        if isinstance(e, (StartEvent, EndEvent)):
            inst = e.inst
            if isinstance(e, StartEvent):
                if inst.uid in seen_uids:
                    raise IllegalEvent(f"duplicate instance id {inst.uid}")
                seen_uids.add(inst.uid)
                started.add(inst)
            elif inst not in started:
                raise IllegalEvent(f"end without start: {inst}")
        else:
            if e.uid in seen_uids:
                raise IllegalEvent(f"duplicate instance id {e.uid}")
            seen_uids.add(e.uid)


def relevant_methods(task: Task, domain: Domain) -> list[tuple[Method, Subst]]:
    """Methods whose head unifies with the ground task, in declaration order."""
    if task.primitive:
        raise NotNonprimitive(f"task {task.name} is primitive")
    out = []
    for m in domain.methods:
        if m.task.name != task.name:
            continue
        sigma = unify_args(m.task.args, task.args)
        if sigma is not None:
            out.append((m, sigma))
    return out


@dataclass
class Problem:
    name: str
    init: State
    network: tuple  # Task | Unordered items, totally ordered
    domain: Domain
    preference: object = None  # formulas.GPF, attached by the caller
    _constants: tuple[str, ...] = field(default=None, repr=False, compare=False)

    @property
    def constants(self) -> tuple[str, ...]:
        """The constant universe: every constant mentioned anywhere in the problem."""
        if self._constants is None:
            seen: set[str] = set()
            for atom in self.init.facts:
                seen.update(atom.args)

            def add_task(t: Task):
                seen.update(a for a in t.args if not is_var(a))

            def add_items(items):
                for it in items:
                    if isinstance(it, Unordered):
                        for mem in it.members:
                            add_items(mem)
                    else:
                        add_task(it)

            add_items(self.network)
            for op in self.domain.operators.values():
                for lit in op.pre:
                    seen.update(a for a in lit.atom.args if not is_var(a))
                for atom in op.add + op.delete:
                    seen.update(a for a in atom.args if not is_var(a))
            for m in self.domain.methods:
                add_task(m.task)
                for lit in m.pre:
                    seen.update(a for a in lit.atom.args if not is_var(a))
                for st in m.subtasks:
                    add_task(st)
            from .formulas import formula_constants  # local import, avoids a cycle
            if self.preference is not None:
                seen.update(formula_constants(self.preference))
            self._constants = tuple(sorted(seen))
        return self._constants
