"""Direct evaluation of preference formulas over complete traces.

This is the reference semantics: BDF satisfaction over trace suffixes,
APF/GPF weights, and the preferred-plan ordering. The progression module is
required to agree with it exactly on every complete trace.

Finite-trace LTL conventions: at the last state index, next is false, always
reduces to the formula now, and until reduces to its goal now. Occurrence of
a primitive task is its operator event; occurrence of a nonprimitive task is
its start event; a method application is observed through its start event.
"""

from __future__ import annotations

from fractions import Fraction

from . import formulas as F
from .errors import UnboundVariable
from .model import OperatorEvent, StartEvent, State, Trace, args_match

Ordering = int  # -1: first preferred, 1: second preferred, 0: indistinguishable


def event_matches(event, ref: F.Ref) -> bool:
    if ref.kind == "op":
        return (isinstance(event, OperatorEvent) and event.name == ref.name
                and args_match(ref.args, event.args))
    if not isinstance(event, StartEvent):
        return False
    inst = event.inst
    return (inst.kind == ref.kind and inst.name == ref.name
            and args_match(ref.args, inst.args))


def event_name(event) -> str | None:
    """The name of every ref event_matches(event, ref) accepts; None when it
    accepts none (an end event, or no event at all)."""
    if isinstance(event, OperatorEvent):
        return event.name
    if isinstance(event, StartEvent):
        return event.inst.name
    return None


def terminated_at(state: State, ref: F.Ref) -> bool:
    return state.has_terminated(ref.kind, ref.name, ref.args)


def executing_at(state: State, ref: F.Ref) -> bool:
    # operator occurrences are never "executing"
    return ref.kind != "op" and state.has_executing(ref.kind, ref.name, ref.args)


def window_open(state: State, t1: F.Ref, t2: F.Ref) -> bool:
    """t1 has terminated and t2 has neither started nor terminated."""
    return (terminated_at(state, t1) and not executing_at(state, t2)
            and not terminated_at(state, t2))


def _window_witness(trace: Trace, start: int, t1: F.Ref, t2: F.Ref,
                    lit=None) -> bool:
    """An index s1 >= start where the t1/t2 window is open, followed by an
    event of t2 at s2 >= s1, with lit (unless None) holding in states s1..s2.
    before(t1, t2) is the witness without a literal, hold-between with one."""
    last = trace.length
    for s1 in range(start, last + 1):
        if not window_open(trace.states[s1], t1, t2):
            continue
        for s2 in range(s1, last):
            if event_matches(trace.events[s2], t2) and (
                    lit is None or all(trace.states[i].holds(lit)
                                       for i in range(s1, s2 + 1))):
                return True
    return False


def satisfies_bdf(trace: Trace, i: int, phi: F.BDF,
                  universe: tuple[str, ...] = ()) -> bool:
    """Truth of phi over the trace suffix starting at state index i."""
    assert 0 <= i <= trace.length
    rule = _RULES.get(type(phi))
    if rule is None:
        raise UnboundVariable(f"cannot evaluate {phi!r} directly")
    return rule(trace, i, phi, universe)


# One rule per node class, rule(trace, i, phi, universe); the last state
# index is trace.length. Progression-internal nodes (Mon, OccNext) have none.

def _occurs(trace, i, phi, universe):
    return i < trace.length and event_matches(trace.events[i], phi.ref)


def _hold_before(trace, i, phi, universe):
    return any(trace.states[s1].holds(phi.lit)
               and event_matches(trace.events[s1], phi.t)
               for s1 in range(i, trace.length))


def _hold_after(trace, i, phi, universe):
    return any(terminated_at(trace.states[s1], phi.t)
               and trace.states[s1].holds(phi.lit)
               for s1 in range(i, trace.length + 1))


def _exists(trace, i, phi, universe):
    return any(satisfies_bdf(trace, i, F.subst_bdf(phi.body, {phi.var: c}),
                             universe)
               for c in universe)


def _forall(trace, i, phi, universe):
    return all(satisfies_bdf(trace, i, F.subst_bdf(phi.body, {phi.var: c}),
                             universe)
               for c in universe)


def _always(trace, i, phi, universe):
    return all(satisfies_bdf(trace, j, phi.sub, universe)
               for j in range(i, trace.length + 1))


def _eventually(trace, i, phi, universe):
    return any(satisfies_bdf(trace, j, phi.sub, universe)
               for j in range(i, trace.length + 1))


def _until(trace, i, phi, universe):
    for j in range(i, trace.length + 1):
        if satisfies_bdf(trace, j, phi.goal, universe):
            return True
        if not satisfies_bdf(trace, j, phi.hold, universe):
            return False
    return False


_RULES = {
    F.TrueC: lambda trace, i, phi, universe: True,
    F.FalseC: lambda trace, i, phi, universe: False,
    F.LitF: lambda trace, i, phi, universe: trace.states[i].holds(phi.lit),
    F.Final: lambda trace, i, phi, universe: trace.final_state.holds(phi.lit),
    F.Occ: _occurs,
    F.Apply: _occurs,
    F.Last: lambda trace, i, phi, universe: i == trace.length,
    F.Terminated: lambda trace, i, phi, universe:
        terminated_at(trace.states[i], phi.ref),
    F.Before: lambda trace, i, phi, universe:
        _window_witness(trace, i, phi.t1, phi.t2),
    F.HoldBefore: _hold_before,
    F.HoldAfter: _hold_after,
    F.HoldBetween: lambda trace, i, phi, universe:
        _window_witness(trace, i, phi.t1, phi.t2, phi.lit),
    F.Not: lambda trace, i, phi, universe:
        not satisfies_bdf(trace, i, phi.sub, universe),
    F.And: lambda trace, i, phi, universe:
        all(satisfies_bdf(trace, i, p, universe) for p in phi.parts),
    F.Or: lambda trace, i, phi, universe:
        any(satisfies_bdf(trace, i, p, universe) for p in phi.parts),
    F.Exists: _exists,
    F.Forall: _forall,
    F.Next: lambda trace, i, phi, universe:
        i < trace.length and satisfies_bdf(trace, i + 1, phi.sub, universe),
    F.Always: _always,
    F.Eventually: _eventually,
    F.Until: _until,
}


def weight_bdf(trace: Trace, phi: F.BDF, universe: tuple[str, ...] = ()) -> Fraction:
    """0 when the BDF is satisfied from the initial state, else 1."""
    return F.W_MIN if satisfies_bdf(trace, 0, phi, universe) else F.W_MAX


def weight_apf(trace: Trace, apf: F.APF, universe: tuple[str, ...] = ()) -> Fraction:
    """The value of the first satisfied alternative; 1 when none holds."""
    return weight_gpf(trace, F.Atomic(apf), universe)


def weight_gpf(trace: Trace, gpf: F.GPF, universe: tuple[str, ...] = ()) -> Fraction:
    return F.gpf_weight(gpf, lambda b: satisfies_bdf(trace, 0, b, universe))


def compare_plans(trace_a: Trace, trace_b: Trace, gpf: F.GPF,
                  universe: tuple[str, ...] = ()) -> Ordering:
    """-1 when A is preferred, 1 when B is, 0 when indistinguishable."""
    wa = weight_gpf(trace_a, gpf, universe)
    wb = weight_gpf(trace_b, gpf, universe)
    if wa != wb:
        return -1 if wa < wb else 1
    return 0
