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
  * terminated t: a suffix, since terminated instances never leave a state;
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
    window is open (t1 terminated, t2 neither started nor terminated) and
    l until (l & occ t2) holds; before(t1, t2): the same with l true;
  * exists x. p and forall x. p: the union and the intersection of the
    labels of p with x bound to each constant of the universe.
The bindings are an environment that refs and literals read at the leaf, so
no formula is built: a ref is read as its bound (kind, name, args). A trace
costs O(|phi| n) bit operations, times |U| under each quantifier. Labels
are memoised within one call, not across.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from . import formulas as F
from .errors import UnboundVariable
from .model import (OperatorEvent, StartEvent, State, Trace, args_match,
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


def terminated_at(state: State, ref: F.Ref) -> bool:
    return state.has_terminated(ref.kind, ref.name, ref.args)


def executing_at(state: State, kind: str, name: str, args) -> bool:
    # operator occurrences are never "executing"
    return kind != "op" and state.has_executing(kind, name, args)


def window_open(state: State, t1: F.Ref, t2: F.Ref) -> bool:
    """t1 has terminated and t2 has neither started nor terminated."""
    return (terminated_at(state, t1)
            and not executing_at(state, t2.kind, t2.name, t2.args)
            and not terminated_at(state, t2))


class _Labels:
    """The labels of one trace: called with a BDF and a binding environment,
    (variable, constant) pairs with the innermost last. memo keeps labels
    by (id(phi), env) and occurrence masks by (kind, name, args)."""

    __slots__ = ("states", "events", "full", "universe", "memo", "_by_key")

    def __init__(self, trace: Trace, universe: tuple[str, ...]):
        self.states, self.events = trace.states, trace.events
        self.full = (2 << trace.length) - 1  # bits 0..n
        self.universe, self.memo, self._by_key = universe, {}, None

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
        return sum(1 << i for i, s in enumerate(self.states) if s.holds(lit))

    def occurs(self, key: tuple) -> int:
        """Bit k when event k matches the ref whose _bind key is key; only
        the events of its kind and name are matched, once per trace. An
        event matches as event_matches has it: by args_match on the args
        event_key gives it."""
        out = self.memo.get(key)
        if out is None:
            if self._by_key is None:
                self._by_key = {}
                for k, (kind_name, args) in enumerate(map(event_key,
                                                          self.events)):
                    self._by_key.setdefault(kind_name, []).append((k, args))
            pattern = key[2]
            out = self.memo[key] = sum(
                1 << k for k, args in self._by_key.get(key[:2], ())
                if args_match(pattern, args))
        return out

    def terminated(self, key: tuple) -> int:
        """The states where the ref whose _bind key is key has terminated,
        a suffix. After state 0 an operator instance terminates at its own
        event, so the suffix starts after the ref's first occurrence; a
        binary search finds it otherwise."""
        if self.states[0].has_terminated(*key):
            return self.full
        if key[0] == "op":
            occ = self.occurs(key)
            first = (occ & -occ).bit_length() or len(self.states)
        else:
            first = bisect_left(self.states, True,
                                key=lambda s: s.has_terminated(*key))
        return self.full >> first << first


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
        maybe &= lab.terminated(t1) & ~lab.terminated(t2)
    for s in reversed(range(maybe.bit_length())):
        if maybe >> s & 1 and not executing_at(lab.states[s], *t2):
            return (2 << s) - 1
    return 0


def _join(lab: _Labels, phi, env: tuple) -> int:
    """The intersection (and, forall) or union (or, exists) of the labels of
    the parts, or of the body under each constant of the universe; it stops
    once settled."""
    if type(phi) in (F.And, F.Or):
        parts = ((p, env) for p in phi.parts)
    else:
        parts = ((phi.body, env + ((phi.var, c),)) for c in lab.universe)
    conj = type(phi) in (F.And, F.Forall)
    out, settled = (lab.full, 0) if conj else (0, lab.full)
    for p, e in parts:
        out = out & lab(p, e) if conj else out | lab(p, e)
        if out == settled:
            break
    return out


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
    assert 0 <= i <= trace.length
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
