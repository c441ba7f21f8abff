"""Direct evaluation of preference formulas over complete traces.

This is the reference semantics: BDF satisfaction over trace suffixes,
APF/GPF weights, and the preferred-plan ordering. The progression module is
required to agree with it exactly on every complete trace.

Finite-trace LTL conventions: at the last state index, next is false, always
reduces to the formula now, and until reduces to its goal now. Occurrence of
a primitive task is its operator event; occurrence of a nonprimitive task is
its start event; a method application is observed through its start event.

Labels. A trace of n events has states 0..n; event k leads from state k to
state k+1. The label of a BDF is an int whose bit i is its truth on the
suffix from state i; satisfies_bdf reads bit i and weight_gpf bit 0. Each
sub-formula is labelled once over the whole trace, bottom up, the standard
way to check LTL on one finite path (Markey & Schnoebelen, Model Checking a
Path, CONCUR 2003):
  * a literal: the states where it holds; final l: every bit or none;
  * terminated t: a suffix, read off the trace cells' terminated chains,
    since a terminated instance never leaves them;
  * occ t, apply m: the events of t, read from an index of the event
    positions by kind and name;
  * not, and, or: complement within bits 0..n, intersection, union;
  * next p: p shifted down one bit, which leaves bit n clear;
  * always p: the bits above the highest one where p is false;
  * eventually p: the bits up to the highest one where p is true;
  * p until q: one backward pass, u_i = q_i | (p_i & u_{i+1});
  * hold-before(t, l): eventually (l & occ t);
  * hold-after(t, l): eventually (terminated t & l);
  * hold-between(t1, l, t2): eventually of the states where the t1/t2
    window is open (t1 terminated, t2 not started: the states up to t2's
    first occurrence) and l until (l & occ t2) holds; before(t1, t2): the
    same with l true;
  * exists x. p and forall x. p: the union and the intersection of the
    labels of p with x bound to each constant the trace tells apart in p,
    and to one more constant, which stands for all the others (_bindings).
    A constant c is told apart when a leaf of p that reads x matches the
    trace with c for x, the variables of the quantifiers inside p read as
    any constant: a ref an event of its kind and name (events of its
    instances carry its args), a literal a fact of one of the states. Under
    every other constant each such leaf reads what it reads when nothing
    matches (no occurrence, never terminated, a literal's atom never
    held), so p has one label under all of them, and as the join is
    idempotent one of them stands for all (the symmetry reduction of model
    checking: Emerson & Sistla, Symmetry and Model Checking, FMSD 1996). A
    node class with no rule tells every constant apart.
The bindings are an environment that refs and literals read at the leaf, so
no formula is built: a ref is read as its bound (kind, name, args). A trace
costs O(|phi| n) bit operations, times the constants told apart plus one
under each quantifier. Labels are memoised within one call, not across.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from . import formulas as F
from .errors import UnboundVariable
from .model import (Literal, OperatorEvent, StartEvent, Trace, args_match,
                    subst_args, subst_literal)

Ordering = int  # -1: first preferred, 1: second preferred, 0: indistinguishable


def event_key(event) -> tuple:
    """((kind, name), args): the kind and name of the refs event can match,
    and the args it matches them on; (None, None) when it can match none
    (an end event, or no event at all)."""
    if type(event) is OperatorEvent:
        return ("op", event.name), event.args
    if type(event) is StartEvent:
        return event.inst[:2], event.inst.args
    return None, None


def event_matches(event, ref: F.Ref) -> bool:
    key, args = event_key(event)
    return key == (ref.kind, ref.name) and args_match(ref.args, args)


def _linked(links, kind: str, name: str, args) -> bool:
    """Whether an instance on a chain of (inst, rest) links matches."""
    while links is not None:
        i, links = links
        if i.name == name and i.kind == kind and args_match(args, i.args):
            return True
    return False


def terminated_at(trace: Trace, ref: F.Ref) -> bool:
    """An instance ref matches has terminated by the end of trace."""
    return _linked(trace.terminated, ref.kind, ref.name, ref.args)


def window_open(trace: Trace, t1: F.Ref, t2: F.Ref) -> bool:
    """t1 has terminated and t2 has not started (so not terminated either)."""
    return (terminated_at(trace, t1)
            and not _linked(trace.started, t2.kind, t2.name, t2.args))


class _Labels:
    """The labels of one trace: called with a BDF and a binding environment,
    (variable, constant) pairs with the innermost last. memo keeps labels
    by (id(phi), env) and occurrence masks by (kind, name, args)."""

    __slots__ = ("cells", "events", "full", "universe", "memo", "_by_key",
                 "_facts")

    def __init__(self, trace: Trace, universe: tuple[str, ...]):
        self.cells = trace.cells
        self.events = tuple([c.event for c in self.cells[1:]])
        self.full = (2 << trace.length) - 1  # bits 0..n
        self.universe, self.memo = universe, {}
        self._by_key = self._facts = None

    def __call__(self, phi: F.BDF, env: tuple = ()) -> int:
        key = (id(phi), env)  # phi outlives the call, so its id is fixed
        out = self.memo.get(key)
        if out is None:
            rule = _RULES.get(type(phi))
            if rule is None:
                raise UnboundVariable(f"cannot evaluate {phi!r} directly")
            out = self.memo[key] = rule(self, phi, env)
        return out

    def holds(self, lit, env: tuple) -> int:
        lit = subst_literal(lit, dict(env)) if env else lit
        return sum(1 << i for i, c in enumerate(self.cells)
                   if c.final_state.holds(lit))

    def occurs(self, key: tuple) -> int:
        """Bit k when event k matches the ref whose _bind key is key; only
        the events of its kind and name are matched, once per trace. An
        event matches as event_matches has it: by args_match on the args
        event_key gives it."""
        out = self.memo.get(key)
        if out is None:
            pattern = key[2]
            out = self.memo[key] = sum(
                1 << k for k, args in self.by_key(key[:2])
                if args_match(pattern, args))
        return out

    def by_key(self, kind_name: tuple) -> list:
        """The (k, args) of the events that can match a ref of kind_name,
        event k carrying args (event_key); indexed on first use."""
        if self._by_key is None:
            self._by_key = {}
            for k, (key, args) in enumerate(map(event_key, self.events)):
                self._by_key.setdefault(key, []).append((k, args))
        return self._by_key.get(kind_name, ())

    def facts(self, pred: str) -> list:
        """The args of the facts of pred that some state of the trace
        holds; indexed on first use."""
        if self._facts is None:
            states = {id(c.final_state): c.final_state.facts
                      for c in self.cells}
            self._facts = {}
            for atom in frozenset().union(*states.values()):
                self._facts.setdefault(atom.pred, []).append(atom.args)
        return self._facts.get(pred, ())

    def terminated(self, key: tuple) -> int:
        """The states where the ref whose _bind key is key has terminated,
        a suffix, whose first state a binary search over the cells finds."""
        first = bisect_left(self.cells, True,
                            key=lambda c: _linked(c.terminated, *key))
        return self.full >> first << first

    def not_started(self, key: tuple) -> int:
        """The states where no instance the ref matches has started: those
        up to its first occurrence (every state when it has none)."""
        occ = self.occurs(key)
        return ((occ & -occ) << 1) - 1 if occ else self.full


def _bind(ref: F.Ref, env: tuple) -> tuple:
    """The (kind, name, args) of ref with the variables env binds replaced
    by their constants: all the labels read of a ref."""
    if not env:
        return ref.kind, ref.name, ref.args
    return ref.kind, ref.name, subst_args(ref.args, dict(env))


def _up_to_last(m: int) -> int:
    """Bits 0 up to the highest bit of m; none for 0."""
    return (1 << m.bit_length()) - 1


def _until(hold: int, goal: int) -> int:
    """The backward pass u_i = goal_i | (hold_i & u_{i+1}), run on whole
    masks until it settles, one index further back per round."""
    out = goal
    while True:
        step = goal | (hold & (out >> 1))
        if step == out:
            return out
        out = step


def _window(lab: _Labels, phi, env: tuple) -> int:
    """before and hold-between: the bits up to the highest state where the
    t1/t2 window is open and held until (held and occ t2) holds, held being
    the label of the literal (every bit for before)."""
    t1, t2 = _bind(phi.t1, env), _bind(phi.t2, env)
    held = lab.full if type(phi) is F.Before else lab.holds(phi.lit, env)
    maybe = _until(held, held & lab.occurs(t2))
    if maybe:
        maybe &= lab.terminated(t1) & lab.not_started(t2)
    return _up_to_last(maybe)


def _join(lab: _Labels, phi, env: tuple) -> int:
    """The intersection (and, forall) or union (or, exists) of the labels of
    the parts, or of the body under the constants _bindings gives; it stops
    once settled."""
    if type(phi) in (F.And, F.Or):
        parts = ((p, env) for p in phi.parts)
    else:
        parts = ((phi.body, env + ((phi.var, c),))
                 for c in _bindings(lab, phi, env))
    conj = type(phi) in (F.And, F.Forall)
    out, settled = (lab.full, 0) if conj else (0, lab.full)
    for p, e in parts:
        out = out & lab(p, e) if conj else out | lab(p, e)
        if out == settled:
            break
    return out


def _bindings(lab: _Labels, phi, env: tuple) -> tuple:
    """The constants of the universe, in its order, that the trace tells
    apart in the body of the quantifier phi under env, and the first of the
    others, which stands for them all (see the module docstring)."""
    told = _told_apart(lab, phi.body, phi.var, dict(env), frozenset())
    if told is None:
        return lab.universe
    rest = next((c for c in lab.universe if c not in told), None)
    return tuple([c for c in lab.universe if c in told or c == rest])


def _told_apart(lab: _Labels, phi, var: str, sigma: dict,
                wild: frozenset):
    """The constants c under which a ref or literal of phi that reads var
    matches an event or a fact of the trace, with c for var, sigma's
    constants for the variables it binds and any constant for those in
    wild, the variables of the quantifiers inside; None when phi has a
    node with no rule, which may tell any constant apart."""
    cls = type(phi)
    if cls not in _RULES:
        return None
    if cls is F.Exists or cls is F.Forall:
        if phi.var == var:  # shadowed: the body does not read var
            return set()
        return _told_apart(lab, phi.body, var, sigma, wild | {phi.var})
    out = set()
    for v in vars(phi).values():
        if type(v) is F.Ref or type(v) is Literal:
            args = v.args if type(v) is F.Ref else v.atom.args
            if var not in args:
                continue
            j = args.index(var)  # a second var reads as any constant
            pattern = tuple([None if a in wild or a == var
                             else sigma.get(a, a) for a in args])
            if type(v) is F.Ref:
                candidates = [a for _, a in lab.by_key((v.kind, v.name))]
            else:
                candidates = [a for a in lab.facts(v.atom.pred)
                              if len(a) == len(args)]
            for actual in candidates:
                out.update(_fits(pattern, j, actual))
        elif type(v) is not str:  # sub-formulas, one or a tuple of parts
            for p in (v if type(v) is tuple else (v,)):
                sub = _told_apart(lab, p, var, sigma, wild)
                if sub is None:
                    return None
                out |= sub
    return out


def _fits(pattern: tuple, j: int, actual: tuple) -> tuple:
    """The args of actual that position j of pattern can take when pattern
    matches actual as args_match has it, None matching any arg. It embeds
    in actual in order (at equal length, that is equality), so they lie
    between the leftmost embedding of the part before j and the rightmost
    of the part after it."""
    lo = _embed(pattern[:j], actual)
    after = _embed(pattern[:j:-1], actual[::-1])
    return actual[lo:len(actual) - after] if lo >= 0 and after >= 0 else ()


def _embed(pattern: tuple, actual: tuple) -> int:
    """The length of the shortest prefix of actual that pattern embeds in,
    in order, None matching any arg; -1 when none does."""
    i, n = 0, len(actual)
    for p in pattern:
        while i < n and p is not None and p != actual[i]:
            i += 1
        if i == n:
            return -1
        i += 1
    return i


# One rule per node class, rule(labels, phi, env) -> label. Progression-
# internal nodes (OccNext, Window) have none.
_RULES = {
    F.TrueC: lambda lab, phi, env: lab.full,
    F.FalseC: lambda lab, phi, env: 0,
    F.LitF: lambda lab, phi, env: lab.holds(phi.lit, env),
    F.Final: lambda lab, phi, env:
        lab.full if lab.holds(phi.lit, env) >> len(lab.events) else 0,
    F.Occ: lambda lab, phi, env: lab.occurs(_bind(phi.ref, env)),
    F.Apply: lambda lab, phi, env: lab.occurs(_bind(phi.ref, env)),
    F.Terminated: lambda lab, phi, env: lab.terminated(_bind(phi.ref, env)),
    F.Before: _window,
    F.HoldBefore: lambda lab, phi, env: _up_to_last(
        lab.holds(phi.lit, env) & lab.occurs(_bind(phi.t, env))),
    F.HoldAfter: lambda lab, phi, env: _up_to_last(
        lab.terminated(_bind(phi.t, env)) & lab.holds(phi.lit, env)),
    F.HoldBetween: _window,
    F.Not: lambda lab, phi, env: lab.full ^ lab(phi.sub, env),
    F.And: _join,
    F.Or: _join,
    F.Exists: _join,
    F.Forall: _join,
    F.Next: lambda lab, phi, env: lab(phi.sub, env) >> 1,
    F.Always: lambda lab, phi, env:  # the bits above the last false one
        lab.full & -(1 << (lab.full ^ lab(phi.sub, env)).bit_length()),
    F.Eventually: lambda lab, phi, env: _up_to_last(lab(phi.sub, env)),
    F.Until: lambda lab, phi, env:
        _until(lab(phi.hold, env), lab(phi.goal, env)),
}


def satisfies_bdf(trace: Trace, i: int, phi: F.BDF,
                  universe: tuple[str, ...] = ()) -> bool:
    """Truth of phi over the trace suffix starting at state index i."""
    if not 0 <= i <= trace.length:
        raise ValueError(f"state index {i} is outside 0..{trace.length}")
    return bool(_Labels(trace, universe)(phi) >> i & 1)


def weight_bdf(trace: Trace, phi: F.BDF, universe: tuple[str, ...] = ()) -> Fraction:
    """0 when the BDF is satisfied from the initial state, else 1."""
    return F.W_MIN if satisfies_bdf(trace, 0, phi, universe) else F.W_MAX


def weight_apf(trace: Trace, apf: F.APF, universe: tuple[str, ...] = ()) -> Fraction:
    """The value of the first satisfied alternative; 1 when none holds."""
    return weight_gpf(trace, F.Atomic(apf), universe)


def weight_gpf(trace: Trace, gpf: F.GPF, universe: tuple[str, ...] = ()) -> Fraction:
    label = _Labels(trace, universe)
    return F.gpf_weight(gpf, lambda b: label(b) & 1)


def compare_plans(trace_a: Trace, trace_b: Trace, gpf: F.GPF,
                  universe: tuple[str, ...] = ()) -> Ordering:
    """-1 when A is preferred, 1 when B is, 0 when indistinguishable."""
    wa = weight_gpf(trace_a, gpf, universe)
    wb = weight_gpf(trace_b, gpf, universe)
    if wa != wb:
        return -1 if wa < wb else 1
    return 0
