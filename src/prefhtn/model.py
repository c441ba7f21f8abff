"""Ground symbolic vocabulary for HTN planning.

Terms, literals, states, operators, methods, task networks, events and
traces. All values are immutable, and extending one shares structure with
its parent, so search nodes can be extended independently at O(1) new memory
per event: a trace is a cell that points at the trace it extends, and a
start or end event keeps its parent's state object.

A state is its facts alone. A trace records the full event history,
including the start/end events of nonprimitive tasks and method
applications, and is the one record of which instances have started and
which have terminated; a plan is the projection of a trace onto its
operator events.

Records. No class here or elsewhere in the planner has generated methods:
a class decorator that writes __init__, __eq__ and __hash__ as source text
and runs it through exec, once per class each time its module is imported,
was the largest part of starting the planner. The one thing the planner
generates is a domain's decomposition kernels (kernel_table): one compile
per distinct tuple of methods, made when the Domain is built, so a parse
pays it where set-up time sees it. Every record class derives instead from
one of four bases, which generate nothing:
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
  * Row: a tuple whose items its _fields name, as typing.NamedTuple has
    it, but with a hand-written __new__ (NamedTuple evals one per class).
    Equality, hashing, slicing and unpacking are the tuple's; the repr is
    Cls(field=value, ...). Atom, Literal, GroundOperator, Inst and
    progression's StepContext are Rows.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Callable, Optional, Union

from .errors import IllegalEvent, PreconditionViolation, UnboundVariable

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


try:  # the C descriptor collections.namedtuple reads its fields with
    from _collections import _tuplegetter
except ImportError:  # pragma: no cover - other Python implementations
    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)


class Row(tuple):
    """A tuple with named items (see the module docstring). A subclass
    lists _fields and writes __new__ and __slots__ = ()."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, f"Item {i}: {name}."))

    def __getnewargs__(self):  # pickling and copying pass the items
        return tuple(self)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self)))


def is_var(term: str) -> bool:
    return term.startswith("?")


class Atom(Row):
    __slots__ = ()
    _fields = ("pred", "args")

    def __new__(cls, pred: str, args: tuple[str, ...] = ()):
        return tuple.__new__(cls, (pred, args))

    def __str__(self) -> str:
        return "(%s)" % " ".join((self.pred,) + self.args)


class Literal(Row):
    __slots__ = ()
    _fields = ("atom", "positive")

    def __new__(cls, atom: Atom, positive: bool = True):
        return tuple.__new__(cls, (atom, positive))

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"(not {self.atom})"


Subst = dict[str, str]


def subst_args(args: tuple[str, ...], sigma: Subst) -> tuple[str, ...]:
    return tuple(sigma.get(a, a) for a in args)


def subst_atom(atom: Atom, sigma: Subst) -> Atom:
    return Atom(atom.pred, subst_args(atom.args, sigma))


def subst_literal(lit: Literal, sigma: Subst) -> Literal:
    return Literal(subst_atom(lit.atom, sigma), lit.positive)


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


class GroundOperator(Row):
    """An operator under one binding of its parameters."""

    __slots__ = ()
    _fields = ("pre", "delete", "add")

    def __new__(cls, pre: tuple[Literal, ...], delete: frozenset[Atom],
                add: frozenset[Atom]):
        return tuple.__new__(cls, (pre, delete, add))


class Domain(Record):
    """Operators by name and methods in declaration order. Built with it:
    the decomposition kernels by task name (see kernel_table), and the
    domain's vocabulary, from one walk of its operators and methods: each
    predicate's arity; the rigid predicates, which no operator adds or
    deletes, so their facts are the same in every state a search reaches;
    and the constants written in an operator, a method head, a
    precondition, a :before literal or a subtask."""

    __slots__ = ("name", "operators", "methods", "_ground", "_kernels",
                 "_arity", "_rigid", "_constants")

    def __init__(self, name: str, operators: dict[str, Operator],
                 methods: tuple[Method, ...]):
        self.name = name
        self.operators = operators
        self.methods = methods
        self._ground: dict = {}
        self._kernels = kernel_table(methods)
        atoms, tasks, changed = [], [], set()
        for op in operators.values():
            atoms += [lit.atom for lit in op.pre] + [*op.add, *op.delete]
            changed.update(a.pred for a in op.add + op.delete)
        for m in methods:
            atoms += [lit.atom for lit in m.pre]
            atoms += [lit.atom for lit, _ in m.before]
            tasks += [m.task, *m.subtasks]
        self._arity = {a.pred: len(a.args) for a in atoms}
        self._rigid = frozenset(self._arity.keys() - changed)
        self._constants = frozenset(x for a in atoms + tasks for x in a.args
                                    if not is_var(x))

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


class Inst(Row):
    """One occurrence of an operator, task or method application.

    kind is "op", "task" or "method"; uid is unique within a trace (the index
    of the event that introduced the instance).
    """

    __slots__ = ()
    _fields = ("kind", "name", "args", "uid")

    def __new__(cls, kind: str, name: str, args: tuple[str, ...], uid: int):
        return tuple.__new__(cls, (kind, name, args, uid))


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


# A method's kernel is one generated generator function kernel(args, state):
# it yields the method's ground bodies for the ground task args in state,
# one per satisfier of its preconditions, in a fixed order. It matches the
# head against args; joins the positive preconditions in the order written,
# a literal that the head and the earlier literals make ground as one test
# in the facts, any other as a loop over the facts State.matching gives
# (sorted, keyed on its first constant or bound position), so the yields
# come in the order of a sorted scan; tests the negative preconditions once
# the positives have bound their variables; and builds the body: for an
# ordered method each subtask behind its :before literals, for an unordered
# one the subtasks alone. A body variable that nothing binds stays as
# written. Predicates, constants and names reach the source only through a
# table of constants, so no input text is ever code.

_NESTED_LOOPS = 16  # a function may nest 20 blocks; deeper joins go on in
                    # a function of their own


def _tuple_source(items) -> str:
    return "(%s)" % "".join(f"{x}, " for x in items)


def _kernel_source(k: int, method: Method,
                   const: Callable[[object], str]) -> list[str]:
    """The source of kernel k<k>, method's, and of the functions its join
    goes on in. const(value) names value's entry in the table of constants;
    every other identifier is generated."""
    names: dict[str, str] = {}  # each bound variable -> its local
    functions = [[f"def k{k}(args, state):"]]
    depth = 1
    loops = 0

    def emit(*lines: str) -> None:
        functions[-1].extend("    " * depth + line for line in lines)

    def skip() -> str:  # the statement that drops this candidate
        return "continue" if depth > 1 else "return"

    def term(a: str) -> str:
        return names[a] if a in names else const(a)

    def unpack(pattern, source: str, keyed: Optional[int] = None):
        """Unpack source, matched against pattern, binding the first-seen
        variables; the conditions under which the match fails. The keyed
        position needs no test: the index matched it."""
        targets, fails = [], []
        for j, a in enumerate(pattern):
            if j == keyed:
                targets.append("_")
            elif is_var(a) and a not in names:
                names[a] = f"v{len(names)}"
                targets.append(names[a])
            else:
                targets.append(f"t{j}")
                fails.append(f"t{j} != {term(a)}")
        emit(f"{', '.join(targets)}, = {source}")
        return " or ".join(fails)

    head = method.task.args
    emit(f"if len(args) != {len(head)}:", "    return")
    if head:
        fails = unpack(head, "args")
        if fails:
            emit(f"if {fails}:", "    return")
    emit("facts = state.facts")
    for pred, pattern in [l.atom for l in method.pre if l.positive]:
        known = [j for j, a in enumerate(pattern)
                 if not is_var(a) or a in names]
        if len(known) == len(pattern):
            emit(f"if ({const(pred)}, {_tuple_source(map(term, pattern))})"
                 " not in facts:", f"    {skip()}")
            continue
        if loops and loops % _NESTED_LOOPS == 0:
            params = ", ".join(["facts", "state", *names.values()])
            name = f"k{k}_{len(functions)}"
            emit(f"yield from {name}({params})")
            functions.append([f"def {name}({params}):"])
            depth = 1
        key = const(pred)
        if known:
            key = f"({key}, {known[0]}, {term(pattern[known[0]])})"
        emit(f"for _, fa in state.matching({const(pred)}, {key}):")
        depth += 1
        loops += 1
        emit(f"if len(fa) != {len(pattern)}:", "    continue")
        fails = unpack(pattern, "fa", known[0] if known else None)
        if fails:
            emit(f"if {fails}:", "    continue")
    present = []
    for lit in method.pre:
        if lit.positive:
            continue
        pred, pattern = lit.atom
        if any(is_var(a) and a not in names for a in pattern):
            raise UnboundVariable(
                f"negative precondition {lit} of method {method.branch} is "
                "not grounded by the head or a positive precondition")
        present.append(f"({const(pred)}, {_tuple_source(map(term, pattern))})"
                       " in facts")
    if present:
        emit(f"if {' or '.join(present)}:", f"    {skip()}")

    def task(t: Task) -> str:
        if not any(a in names for a in t.args):
            return const(t)
        return (f"Task({const(t.name)}, {_tuple_source(map(term, t.args))}, "
                f"{bool(t.primitive)})")

    def literal(lit: Literal) -> str:
        pred, args = lit.atom
        if not any(a in names for a in args):
            return const(Literal(Atom(pred, args), lit.positive))
        return (f"Literal(Atom({const(pred)}, {_tuple_source(map(term, args))}"
                f"), {bool(lit.positive)})")

    body = []
    for i, t in enumerate(method.subtasks):
        if not method.unordered:
            body += [literal(lit) for lit, at in method.before if at == i]
        body.append(task(t))
    emit(f"yield {_tuple_source(body)}")
    return [line for fn in functions for line in fn]


@functools.lru_cache(maxsize=64)
def kernel_table(methods: tuple[Method, ...]) -> dict[str, tuple]:
    """Each task name's (branch, unordered, kernel) triples, one per method
    of the task in declaration order. All the kernels of one methods tuple
    come from one compile, made once per distinct tuple: a kernel depends on
    its method alone. Raises UnboundVariable for a negative precondition
    whose variable neither the head nor a positive precondition binds."""
    consts: dict = {}

    def const(value) -> str:
        return f"c{consts.setdefault(value, len(consts))}"

    source = [line for k, m in enumerate(methods)
              for line in _kernel_source(k, m, const)]
    namespace = {"Task": Task, "Literal": Literal, "Atom": Atom}
    namespace.update((f"c{i}", value) for value, i in consts.items())
    exec(compile("\n".join(source), "<kernels>", "exec"), namespace)
    table: dict[str, list] = {}
    for k, m in enumerate(methods):
        table.setdefault(m.task.name, []).append(
            (m.branch, m.unordered, namespace[f"k{k}"]))
    return {name: tuple(kernels) for name, kernels in table.items()}


class State(Value):
    """Immutable planning state: the ground atoms that hold, under the
    closed-world assumption, and nothing else. Two states are equal when
    their facts are. Which instances have started or terminated is a fact
    of the event history, which the Trace keeps (Trace.started and
    Trace.terminated), so a start or end event leaves the state as it is.

    A state indexes its own facts (see matching), in lists built on first
    use. The lists of a rigid predicate are the same in every state of a
    search and live in one table that its states share: indexed makes a
    search's root, and successor passes the table and the rigid predicates
    on. A state made outside a search counts no predicate as rigid.
    """

    __slots__ = ("facts", "_rigid", "_shared", "_lists")

    def __init__(self, facts: frozenset[Atom], rigid: frozenset = frozenset(),
                 shared: Optional[dict] = None):
        _state_facts(self, facts)
        _state_rigid(self, rigid)  # the predicates whose lists are shared
        _state_shared(self, {} if shared is None else shared)
        _state_lists(self, {})  # the lists of every other predicate

    def indexed(self, domain: Domain) -> State:
        """This state as the root of a search: the domain's rigid predicates
        share a table that is new, so no search reads another's lists."""
        return State(self.facts, domain._rigid, {})

    def successor(self, op: GroundOperator) -> State:
        """STRIPS application: facts' = (facts \\ del) | add, in the same
        search as this state."""
        for lit in op.pre:
            if not self.holds(lit):
                raise PreconditionViolation(lit)
        return State((self.facts - op.delete) | op.add, self._rigid,
                     self._shared)

    def holds(self, lit: Literal) -> bool:
        present = lit.atom in self.facts
        return present if lit.positive else not present

    def matching(self, pred: str, key) -> list[Atom]:
        """The facts of pred, sorted: all of them when key is pred, those
        with the constant a at position pos when key is (pred, pos, a)."""
        table = self._shared if pred in self._rigid else self._lists
        out = table.get(key)
        if out is None:
            if type(key) is str:
                out = sorted([f for f in self.facts if f.pred == pred])
            else:
                _, pos, a = key
                out = [f for f in self.matching(pred, pred)
                       if len(f.args) > pos and f.args[pos] == a]
            table[key] = out
        return out


_state_facts, _state_rigid, _state_shared, _state_lists = slot_setters(
    State, "facts", "_rigid", "_shared", "_lists")


def ground_operator(op: Operator, args: tuple[str, ...]) -> GroundOperator:
    if len(op.params) != len(args):
        raise PreconditionViolation(None, f"operator {op.name} expects {len(op.params)} args, got {len(args)}")
    sigma = dict(zip(op.params, args))
    return GroundOperator(tuple(subst_literal(l, sigma) for l in op.pre),
                          frozenset(subst_atom(a, sigma) for a in op.delete),
                          frozenset(subst_atom(a, sigma) for a in op.add))


def apply_event(state: State, event: Event, domain: Domain) -> State:
    """The state after event: an operator's successor; for a start or end
    event, state itself. The protocol of starts and ends is
    validate_trace's to check."""
    if type(event) is OperatorEvent:
        return state.successor(domain.ground(event.name, event.args))
    if type(event) is StartEvent or type(event) is EndEvent:
        return state
    raise IllegalEvent(f"unknown event {event!r}")


class Trace:
    """A persistent event sequence, one cell per event: the trace it extends
    (None for the empty trace), the event, the state that event produced,
    the number of events, and the instances that have started and those
    that have terminated once the event has happened. Each of the last two
    is a chain of (inst, rest) links, newest first (None for none), that a
    cell shares with its parent: a start event adds a link to started, an
    end event one to terminated, and an operator event, whose instance
    starts and terminates at once, one to each. They are the situation
    calculus's successor state axioms of executing and terminated read off
    the history: an instance executes from its start until its end. The
    empty trace holds no instance, as no initial state carries one.
    Extending is O(1) and shares the whole history. The cells, events and
    states tuples (|states| = |events| + 1) are walked off the cells on
    each read."""

    __slots__ = ("parent", "event", "final_state", "length", "started",
                 "terminated")

    def __init__(self, parent: Optional[Trace], event: Optional[Event],
                 final_state: State):
        self.parent = parent
        self.event = event
        self.final_state = final_state
        if parent is None:
            self.length, self.started, self.terminated = 0, None, None
            return
        self.length = parent.length + 1
        inst, kind = event.inst, type(event)
        self.started = (parent.started if kind is EndEvent
                        else (inst, parent.started))
        self.terminated = (parent.terminated if kind is StartEvent
                           else (inst, parent.terminated))

    @property
    def cells(self) -> tuple[Trace, ...]:
        """The cells from the empty trace's to this one."""
        out, t = [], self
        while t is not None:
            out.append(t)
            t = t.parent
        return tuple(reversed(out))

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple([t.event for t in self.cells[1:]])

    @property
    def states(self) -> tuple[State, ...]:
        return tuple([t.final_state for t in self.cells])

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
    """Check the trace invariants, the one check of the start/end protocol:
    each state follows from event application, every instance id is
    introduced once, and each instance ends at most once, after its start.
    Raises IllegalEvent on a violation."""
    rebuilt = replay(trace.states[0], trace.events, domain)
    if rebuilt.states != trace.states:
        raise IllegalEvent("states do not follow from event application")
    seen_uids: set[int] = set()
    started: set[Inst] = set()
    ended: set[Inst] = set()
    for e in trace.events:
        if type(e) is EndEvent:
            if e.inst not in started:
                raise IllegalEvent(f"end without start: {e.inst}")
            if e.inst in ended:
                raise IllegalEvent(f"instance already ended: {e.inst}")
            ended.add(e.inst)
            continue
        inst = e.inst
        if inst.uid in seen_uids:
            raise IllegalEvent(f"duplicate instance id {inst.uid}")
        seen_uids.add(inst.uid)
        started.add(inst)


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
            seen = set(self.domain._constants)
            for x in (*self.init.facts, *self.network):
                seen.update(a for a in x.args if not is_var(a))
            from .formulas import formula_constants  # local import, avoids a cycle
            seen.update(formula_constants(self.preference))
            self._constants = (self.preference, tuple(sorted(seen)))
        return self._constants[1]


def reachable(problem: Problem) -> tuple[dict, dict]:
    """A superset of the constants that can stand at each position of a
    fact in a state that a plan reaches, {(pred, pos): set}, and of those
    that can bind each parameter of an operator event in it, {name: [set
    per parameter]}. It is the position-wise projection of delete-relaxed
    reachability from problem.init (Helmert, AIJ 2009): a fixpoint over
    the positive preconditions and the add lists. A parameter that no
    positive precondition binds may be any constant, and an operator with
    a precondition constant that its position never holds is left out."""
    at: dict = {}
    for fact in problem.init.facts:
        for pos, a in enumerate(fact.args):
            at.setdefault((fact.pred, pos), set()).add(a)
    anything = set(problem.constants)
    rules = [(op, [((lit.atom.pred, pos), a, is_var(a)) for lit in op.pre
                   if lit.positive for pos, a in enumerate(lit.atom.args)],
              [((atom.pred, pos), a, is_var(a)) for atom in op.add
               for pos, a in enumerate(atom.args)])
             for op in problem.domain.operators.values()]
    ops: dict = {}
    grew = True
    while grew:
        grew = False
        for op, pre, add in rules:
            binds: dict = {}
            for key, a, var in pre:
                can = at.get(key, frozenset())
                if not var:
                    if a not in can:
                        break  # the operator does not fire yet
                else:
                    binds[a] = binds[a].intersection(can) if a in binds else can
            else:
                ops[op.name] = [binds.get(p, anything) for p in op.params]
                for key, a, var in add:
                    new = binds.get(a, anything) if var else (a,)
                    cell = at.setdefault(key, set())
                    if not cell.issuperset(new):
                        cell.update(new)
                        grew = True
    return at, ops
