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

Records. No class here or elsewhere in the planner has generated methods:
a class decorator that writes __init__, __eq__ and __hash__ as source text
and runs it through exec, once per class each time its module is imported,
was the largest part of starting the planner. Every record class derives
instead from one of three bases, which generate nothing:
  * Record: a slotted class whose __slots__ name its fields, in order, with
    a hand-written __init__. Equality goes by class and fields, and the repr
    is Cls(field=value, ...). Slots whose names start with _ are caches,
    which neither reads; a class may also list its _fields itself, as
    Progressed does to leave out the automaton its search shares. Records
    are mutable and unhashable.
  * Value: an immutable Record. Setting or deleting an attribute raises; the
    hash is over (class, fields), computed on first use and kept in the
    _hash slot. Its __init__ sets the slots through object.__setattr__.
    The records built on the search path (Task, the events, State,
    Unordered, Bounds, Progressed) are Values that set them through
    slot_setters instead, which is faster. Task and Unordered, which node
    signatures compare, write their own __eq__. Task, which every signature
    hashes, also writes its own __hash__ and sets _hash to None in
    __init__: reading an unset slot raises, and the exception costs more
    than the hash.
  * Node: a Value that declares its fields as annotations and shares one
    generic __init__; the base of the formula nodes and of Operator and
    Method, which are built once per parse. Formula nodes are also built
    on the search path, by grounding and progression, so Node, like Task,
    sets _hash to None at construction and writes its own __hash__.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional, Union

from .errors import IllegalEvent, NotNonprimitive, PreconditionViolation

_set = object.__setattr__  # sets a slot of a Value in its __init__


def slot_setters(cls: type, *names: str) -> tuple:
    """The __set__ of each named slot of cls. Calling one sets that slot of
    an instance, also of an immutable one, without the attribute lookup
    that object.__setattr__ makes first; the records built on the search
    path fill their slots with them."""
    return tuple(getattr(cls, name).__set__ for name in names)


class Record:
    """A slotted record (see the module docstring)."""

    __slots__ = ()
    _fields: tuple = ()  # the fields that equality and the repr read

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(s for s in cls.__dict__.get("__slots__", ())
                                if not s.startswith("_"))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or all(getattr(self, f) == getattr(other, f)
                                    for f in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """An immutable Record with its hash kept (see the module docstring)."""

    __slots__ = ("_hash",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name}: "
                             f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name}: "
                             f"{type(self).__name__} is immutable")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((type(self), *[getattr(self, f) for f in self._fields]))
            _set(self, "_hash", h)
            return h


class Node(Value):
    """A Value whose fields are its annotations.

    A subclass declares its fields as annotations, in order; a class
    attribute named like a field is that field's default. A node is built
    Cls(v1, v2, ...), with keywords where wanted. Node reads its subclasses'
    annotations once, in __init_subclass__; the fields live in the instance
    __dict__.
    """

    __slots__ = ()
    _defaults: dict = {}  # field -> default, which only trailing fields have

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields
                         if f in cls.__dict__}

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            given = dict(zip(fields, values))
            if (len(values) > len(fields) or not named.keys() <= set(fields)
                    or given.keys() & named.keys()):
                raise TypeError(f"{type(self).__name__} has the fields "
                                f"{fields}, got {len(values)} values and "
                                f"{sorted(named)}")
            given = {**self._defaults, **given, **named}
            if len(given) != len(fields):
                raise TypeError(f"{type(self).__name__} is missing "
                                f"{[f for f in fields if f not in given]}")
            values = [given[f] for f in fields]
        _node_hash(self, None)
        self.__dict__.update(zip(fields, values))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or vars(self) == vars(other)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((type(self), *vars(self).values()))
            _node_hash(self, h)
        return h


(_node_hash,) = slot_setters(Value, "_hash")


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


class Task(Value):
    __slots__ = ("name", "args", "primitive")

    def __init__(self, name: str, args: tuple[str, ...] = (),
                 primitive: bool = False):
        _task_name(self, name)
        _task_args(self, args)
        _task_primitive(self, primitive)
        _task_hash(self, None)

    def __eq__(self, other):
        if type(other) is not Task:
            return NotImplemented
        return self is other or (self.name == other.name
                                 and self.args == other.args
                                 and self.primitive == other.primitive)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((Task, self.name, self.args, self.primitive))
            _task_hash(self, h)
        return h

    def ground(self, sigma: Subst) -> "Task":
        return Task(self.name, subst_args(self.args, sigma), self.primitive)

    def __str__(self) -> str:
        head = ("!" if self.primitive else "") + self.name
        return "(%s)" % " ".join((head,) + self.args)


_task_name, _task_args, _task_primitive, _task_hash = slot_setters(
    Task, "name", "args", "primitive", "_hash")


class Operator(Node):
    """STRIPS-style primitive action: literal preconditions, add/delete lists."""

    name: str
    params: tuple[str, ...]
    pre: tuple[Literal, ...] = ()
    add: tuple[Atom, ...] = ()
    delete: tuple[Atom, ...] = ()


class Method(Node):
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


class Domain(Record):
    """Operators by name and methods in declaration order. Built with it:
    the methods by task name, and the predicates some operator adds or
    deletes; the facts of every other predicate are rigid, the same in
    every state a search reaches."""

    __slots__ = ("name", "operators", "methods", "_ground", "_by_task",
                 "_changed")

    def __init__(self, name: str, operators: dict[str, Operator],
                 methods: tuple[Method, ...]):
        self.name = name
        self.operators = operators
        self.methods = methods
        self._ground: dict = {}
        self._by_task: dict[str, list[Method]] = {}
        for m in methods:
            self._by_task.setdefault(m.task.name, []).append(m)
        self._changed = frozenset(a.pred for op in operators.values()
                                  for a in op.add + op.delete)

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


class OperatorEvent(Value):
    __slots__ = ("name", "args", "uid")

    def __init__(self, name: str, args: tuple[str, ...], uid: int):
        _op_name(self, name)
        _op_args(self, args)
        _op_uid(self, uid)

    @property
    def inst(self) -> Inst:
        return Inst("op", self.name, self.args, self.uid)

    def __str__(self) -> str:
        return "(%s)" % " ".join(("!" + self.name,) + self.args)


_op_name, _op_args, _op_uid = slot_setters(OperatorEvent, "name", "args",
                                           "uid")


class StartEvent(Value):
    __slots__ = ("inst",)

    def __init__(self, inst: Inst):
        _start_inst(self, inst)

    def __str__(self) -> str:
        return f"start[{self.inst.kind} {self.inst.name}{self.inst.args}#{self.inst.uid}]"


(_start_inst,) = slot_setters(StartEvent, "inst")


class EndEvent(Value):
    __slots__ = ("inst",)

    def __init__(self, inst: Inst):
        _end_inst(self, inst)

    def __str__(self) -> str:
        return f"end[{self.inst.kind} {self.inst.name}{self.inst.args}#{self.inst.uid}]"


(_end_inst,) = slot_setters(EndEvent, "inst")


Event = Union[OperatorEvent, StartEvent, EndEvent]


class FactIndex:
    """The facts of one facts object as sorted lists, each built on first
    use: per predicate, and per (predicate, position, constant) the facts
    with that constant at that position. The states that share a facts
    object (a state and its start and end events' successors) share its
    index; an operator's successor starts a new one. The lists of a rigid
    predicate, which no operator adds or deletes, are the same in every
    state of a search, and live in rigid, which all its indexes share."""

    __slots__ = ("facts", "fluent", "rigid", "changed")

    def __init__(self, facts: frozenset[Atom], rigid: dict,
                 changed: frozenset[str]):
        self.facts = facts
        self.fluent: dict = {}
        self.rigid = rigid
        self.changed = changed  # the predicates an operator adds or deletes

    def matching(self, pred: str, args: tuple[str, ...]) -> list[Atom]:
        """The facts of pred, sorted, that have the first constant of the
        pattern args at its position: all of them when args has none."""
        key = pred
        for pos, a in enumerate(args):
            if a[0] != "?":
                key = (pred, pos, a)
                break
        table = self.fluent if pred in self.changed else self.rigid
        out = table.get(key)
        if out is None:
            if key is pred:
                out = sorted([f for f in self.facts if f.pred == pred])
            else:
                out = [f for f in self.matching(pred, ())
                       if len(f.args) > pos and f.args[pos] == a]
            table[key] = out
        return out


class State(Value):
    """Immutable planning state.

    facts holds ground atoms under the closed-world assumption; executing and
    terminated track task/method instances per the two successor state axioms
    (operator occurrences go straight to terminated, never to executing).
    Terminated instances never leave, so a state shares them with its parent:
    terminated_links is a chain of (inst, rest) links, newest first, one per
    terminated instance (None when there is none). max_uid is the largest
    uid started or terminated so far (-1 for none; computed when not given),
    so a start above it needs no scan of the links. Two states are equal
    when their facts, executing and terminated instances are; the hash
    reads the facts and the executing instances. The states of a search
    carry the FactIndex of their facts (see indexed); others carry None.
    """

    __slots__ = ("facts", "executing", "terminated_links", "max_uid",
                 "_index")
    _fields = ("facts", "executing")

    def __init__(self, facts: frozenset[Atom],
                 executing: frozenset[Inst] = frozenset(), *,
                 terminated_links: Optional[tuple] = None,
                 max_uid: Optional[int] = None,
                 index: Optional[FactIndex] = None):
        _state_facts(self, facts)
        _state_executing(self, executing)
        _state_terminated_links(self, terminated_links)
        if max_uid is None:
            max_uid = max((i.uid for i in itertools.chain(
                executing, self._terminated())), default=-1)
        _state_max_uid(self, max_uid)
        _state_index(self, index)

    def indexed(self, domain: Domain) -> State:
        """This state as the root of a search: with a FactIndex of its own,
        whose rigid table is new, so no search reads another's lists."""
        return State(self.facts, self.executing,
                     terminated_links=self.terminated_links,
                     max_uid=self.max_uid,
                     index=FactIndex(self.facts, {}, domain._changed))

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

    __hash__ = Value.__hash__

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


(_state_facts, _state_executing, _state_terminated_links,
 _state_max_uid, _state_index) = slot_setters(
    State, "facts", "executing", "terminated_links", "max_uid", "_index")


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
    facts, index = (state.facts - op.delete) | op.add, state._index
    if index is not None:
        index = FactIndex(facts, index.rigid, index.changed)
    return State(facts, state.executing,
                 terminated_links=(inst, state.terminated_links),
                 max_uid=max(state.max_uid, inst.uid), index=index)


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
                     max_uid=max(state.max_uid, inst.uid),
                     index=state._index)
    if isinstance(event, EndEvent):
        inst = event.inst
        if inst not in state.executing:
            raise IllegalEvent(f"instance not executing: {inst}")
        return State(state.facts, state.executing - {inst},
                     terminated_links=(inst, state.terminated_links),
                     max_uid=state.max_uid, index=state._index)
    raise IllegalEvent(f"unknown event {event!r}")


class Trace:
    """A persistent event sequence, one cell per event: the trace it extends
    (None for the empty trace), the event, the state that event produced and
    the number of events. Extending is O(1) and shares the whole history.
    The events and states tuples (|states| = |events| + 1) are walked off
    the cells on each read."""

    __slots__ = ("parent", "event", "final_state", "length")

    def __init__(self, parent: Optional[Trace], event: Optional[Event],
                 final_state: State):
        self.parent = parent
        self.event = event
        self.final_state = final_state
        self.length = 0 if parent is None else parent.length + 1

    def _walk(self, value: str) -> tuple:
        """The value of each cell, the empty trace's first."""
        out, t = [], self
        while t is not None:
            out.append(getattr(t, value))
            t = t.parent
        return tuple(reversed(out))

    @property
    def events(self) -> tuple[Event, ...]:
        return self._walk("event")[1:]

    @property
    def states(self) -> tuple[State, ...]:
        return self._walk("final_state")

    def plan(self) -> tuple[OperatorEvent, ...]:
        """The operator events, walked off the cells without building the
        events tuple: the --tiebreak-lex plan key reads this on every push."""
        out, t = [], self
        while t.parent is not None:
            if isinstance(t.event, OperatorEvent):
                out.append(t.event)
            t = t.parent
        return tuple(reversed(out))

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
    for m in domain._by_task.get(task.name, ()):
        sigma = unify_args(m.task.args, task.args)
        if sigma is not None:
            out.append((m, sigma))
    return out


class Problem(Record):
    __slots__ = ("name", "init", "network", "domain", "preference",
                 "_constants")

    def __init__(self, name: str, init: State, network: tuple[Task, ...],
                 domain: Domain, preference):
        self.name = name
        self.init = init
        self.network = network  # totally ordered
        self.domain = domain
        self.preference = preference  # formulas.GPF; callers may replace it
        self._constants: Optional[tuple] = None  # (preference, universe)

    @property
    def constants(self) -> tuple[str, ...]:
        """The constant universe: every constant mentioned anywhere in the
        problem, its preference (the one attached at this read) included."""
        if self._constants is None or self._constants[0] is not self.preference:
            seen: set[str] = set()
            for atom in self.init.facts:
                seen.update(atom.args)

            def add_task(t: Task):
                seen.update(a for a in t.args if not is_var(a))

            for t in self.network:
                add_task(t)
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
            seen.update(formula_constants(self.preference))
            self._constants = (self.preference, tuple(sorted(seen)))
        return self._constants[1]
