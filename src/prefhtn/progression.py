"""Formula progression and the optimistic/pessimistic weight bounds.

A progressed preference is a fixed skeleton plus a flat residual tuple. The
skeleton is the quantifier-expanded preference with each BDF replaced by its
position in the tuple; the tuple holds, per BDF, the residual still to be
satisfied by the rest of the trace. A step progresses every residual and
keeps the skeleton; the bounds and the terminal weight are the one GPF fold
(formulas.gpf_weight) read over the skeleton. Progression runs once through
the initial state (no event) and then once per event; the step that produces
a complete plan is flagged terminal, at which point every residual collapses
to a constant and the bounds coincide with the true weight.

The steps run through an automaton that one search (or one trace replay)
builds lazily and shares across its nodes. Its states are the interned
residuals: each distinct residual is one object, so a state is found by
identity. A residual's letter is the terminal flag plus the values of the
reads progress_bdf makes of the step on it (holds on its literals;
event_matches, terminated_at and executing_at, or window_open, on its refs),
so the letter decides the successor and the transition is looked up instead
of recomputed. A miss calls progress_bdf, which stays the one progression
rule; _sat and the bounds are memoised the same way. Nothing is kept across
searches, so no problem sees another's residuals.

Residual conventions (all indices relative to the event sequence):

  * occ(X) and apply(X) hatch occNext(X) and eventually(terminated(X));
    occNext is resolved against the next event.
  * before/hold* constructs hatch three-valued monitors; pending monitors
    count as satisfied under the optimistic bound and falsified under the
    pessimistic one.
  * final(l) stays open until the terminal step. Its pessimistic bound is
    "unsatisfied", not the current value of l: a fluent that is true now but
    deleted later would otherwise let the pessimistic weight increase along
    a prefix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import formulas as F
from . import semantics
from .errors import UnboundVariable
from .model import State, Trace


@dataclass(frozen=True)
class Progressed:
    """skeleton: the ground preference with BDF number i standing for
    residuals[i], the residual of that BDF after the steps so far; every
    residual is interned in automaton, which the whole search shares."""

    skeleton: F.GPF
    residuals: tuple[F.BDF, ...]
    automaton: Automaton = field(compare=False, repr=False)


@dataclass(frozen=True)
class Bounds:
    opt: Fraction
    pess: Fraction

    def __post_init__(self):
        assert self.opt <= self.pess


@dataclass(frozen=True)
class StepContext:
    """One progression step: the event just taken (None for the initial step),
    the state it produced, and whether the plan is complete after it."""

    event: object
    state: State
    terminal: bool


def init_progressed(gpf: F.GPF, universe: tuple[str, ...]) -> Progressed:
    """Ground the quantifiers and number the BDFs (no step yet). map_gpf and
    gpf_bdfs both visit a Cond's condition before its body, so the numbers
    are the positions in gpf_bdfs."""
    gpf = F.expand_gpf(gpf, universe)
    counter = itertools.count()
    automaton = Automaton()
    return Progressed(F.map_gpf(gpf, lambda _: next(counter)),
                      tuple(automaton.intern(b) for b in F.gpf_bdfs(gpf)),
                      automaton)


# --- monitors ---------------------------------------------------------------------

def _resolve(value: bool, neg: bool) -> F.BDF:
    return F.const(value != neg)


def _hatch_monitor(phi: F.BDF, neg: bool, ctx: StepContext) -> F.BDF:
    """Create a monitor at the current index and give it its birth-state check."""
    if isinstance(phi, F.Before):
        mon = F.Mon("before", phi.t1, None, phi.t2, neg,
                    armed=semantics.window_open(ctx.state, phi.t1, phi.t2))
        if ctx.terminal:
            return _resolve(False, neg)  # no event can still occur
        return mon
    if isinstance(phi, F.HoldBefore):
        if ctx.terminal:
            return _resolve(False, neg)
        return F.Mon("hold-before", phi.t, phi.lit, None, neg,
                     fprev=ctx.state.holds(phi.lit))
    if isinstance(phi, F.HoldAfter):
        sat_now = (semantics.terminated_at(ctx.state, phi.t)
                   and ctx.state.holds(phi.lit))
        if sat_now:
            return _resolve(True, neg)
        if ctx.terminal:
            return _resolve(False, neg)
        return F.Mon("hold-after", phi.t, phi.lit, None, neg)
    if isinstance(phi, F.HoldBetween):
        if ctx.terminal:
            return _resolve(False, neg)
        armed = (semantics.window_open(ctx.state, phi.t1, phi.t2)
                 and ctx.state.holds(phi.lit))
        return F.Mon("hold-between", phi.t1, phi.lit, phi.t2, neg, armed=armed)
    raise TypeError(f"not a monitored construct: {phi!r}")


def _step_monitor(mon: F.Mon, ctx: StepContext) -> F.BDF:
    event, state = ctx.event, ctx.state

    if mon.construct == "before":
        if event is not None and semantics.event_matches(event, mon.t2):
            return _resolve(mon.armed, mon.neg)
        if ctx.terminal:
            return _resolve(False, mon.neg)
        return replace(mon, armed=mon.armed
                       or semantics.window_open(state, mon.t1, mon.t2))

    if mon.construct == "hold-before":
        if (event is not None and semantics.event_matches(event, mon.t1)
                and mon.fprev):
            return _resolve(True, mon.neg)
        if ctx.terminal:
            return _resolve(False, mon.neg)
        return replace(mon, fprev=state.holds(mon.lit))

    if mon.construct == "hold-after":
        if semantics.terminated_at(state, mon.t1) and state.holds(mon.lit):
            return _resolve(True, mon.neg)
        if ctx.terminal:
            return _resolve(False, mon.neg)
        return mon

    if mon.construct == "hold-between":
        if event is not None and semantics.event_matches(event, mon.t2):
            return _resolve(mon.armed, mon.neg)
        if ctx.terminal:
            return _resolve(False, mon.neg)
        armed = ((mon.armed or semantics.window_open(state, mon.t1, mon.t2))
                 and state.holds(mon.lit))
        return replace(mon, armed=armed)

    raise TypeError(f"unknown monitor {mon.construct}")


# --- one progression step ----------------------------------------------------------

_MONITORED = (F.Before, F.HoldBefore, F.HoldAfter, F.HoldBetween)


def progress_bdf(phi: F.BDF, ctx: StepContext) -> F.BDF:
    """Progress one residual BDF through one step."""
    if isinstance(phi, (F.TrueC, F.FalseC)):
        return phi
    if isinstance(phi, F.LitF):
        return F.const(ctx.state.holds(phi.lit))
    if isinstance(phi, F.Final):
        return F.const(ctx.state.holds(phi.lit)) if ctx.terminal else phi
    if isinstance(phi, (F.Occ, F.Apply)):
        if ctx.terminal:
            return F.FALSE
        if phi.ref.kind == "op":
            # an operator terminates at its own event; the termination
            # obligation is implied by the occurrence
            return F.OccNext(phi.ref)
        return F.mk_and([F.OccNext(phi.ref),
                         F.Eventually(F.Terminated(phi.ref))])
    if isinstance(phi, F.OccNext):
        return F.const(ctx.event is not None
                       and semantics.event_matches(ctx.event, phi.ref))
    if isinstance(phi, F.Terminated):
        return F.const(semantics.terminated_at(ctx.state, phi.ref))
    if isinstance(phi, F.Last):
        # a non-terminal step has a successor, so its index is not the last
        return F.const(ctx.terminal)
    if isinstance(phi, F.Mon):
        return _step_monitor(phi, ctx)
    if isinstance(phi, _MONITORED):
        return _hatch_monitor(phi, False, ctx)
    if isinstance(phi, F.Not):
        sub = phi.sub
        if isinstance(sub, _MONITORED):
            return _hatch_monitor(sub, True, ctx)
        inner = progress_bdf(sub, ctx)
        if isinstance(inner, F.TrueC):
            return F.FALSE
        if isinstance(inner, F.FalseC):
            return F.TRUE
        return F.Not(inner)
    if isinstance(phi, F.And):
        return F.mk_and([progress_bdf(p, ctx) for p in phi.parts])
    if isinstance(phi, F.Or):
        return F.mk_or([progress_bdf(p, ctx) for p in phi.parts])
    if isinstance(phi, F.Next):
        return F.FALSE if ctx.terminal else phi.sub
    if isinstance(phi, F.Always):
        now = progress_bdf(phi.sub, ctx)
        return now if ctx.terminal else F.mk_and([now, phi])
    if isinstance(phi, F.Eventually):
        now = progress_bdf(phi.sub, ctx)
        return now if ctx.terminal else F.mk_or([now, phi])
    if isinstance(phi, F.Until):
        goal_now = progress_bdf(phi.goal, ctx)
        if ctx.terminal:
            return goal_now
        hold_now = progress_bdf(phi.hold, ctx)
        return F.mk_or([goal_now, F.mk_and([hold_now, phi])])
    if isinstance(phi, (F.Exists, F.Forall)):
        raise UnboundVariable("quantifiers must be grounded before progression")
    raise TypeError(f"cannot progress {phi!r}")


def step(pf: Progressed, ctx: StepContext) -> Progressed:
    residuals = pf.automaton.step(pf.residuals, ctx)
    if residuals is pf.residuals:
        return pf
    return Progressed(pf.skeleton, residuals, pf.automaton)


# --- bounds ------------------------------------------------------------------------

def _sat(phi: F.BDF, opt: bool) -> bool:
    """Whether one residual counts as satisfied under the optimistic (opt)
    or the pessimistic view. It reads no state: progress_bdf only builds
    Terminated under Eventually, where the walk stops."""
    if isinstance(phi, F.TrueC):
        return True
    if isinstance(phi, F.FalseC):
        return False
    if isinstance(phi, F.And):
        return all(_sat(p, opt) for p in phi.parts)
    if isinstance(phi, F.Or):
        return any(_sat(p, opt) for p in phi.parts)
    if isinstance(phi, F.Not):
        return not _sat(phi.sub, not opt)
    # every other residual is a pending obligation: optimistically it will be
    # met, pessimistically it never is
    return opt


def bounds(pf: Progressed) -> Bounds:
    """Each bound judges the alternatives under its own view and the
    conditions under the other: an undecided condition may still turn out
    unmet, which scores the best weight."""
    views = pf.automaton.views(pf.residuals)
    memo = pf.automaton.bounds_by_views
    out = memo.get(views)
    if out is None:
        opt, pess = views[0].__getitem__, views[1].__getitem__
        out = memo[views] = Bounds(
            F.gpf_weight(pf.skeleton, opt, pess),
            F.gpf_weight(pf.skeleton, pess, opt))
    return out


# --- the automaton -------------------------------------------------------------------

def _reads(phi: F.BDF) -> list:
    """The (probe, args) pairs whose values, with the terminal flag, decide
    progress_bdf(phi, ctx): each is a read progress_bdf makes of ctx on phi
    or on a sub-formula it progresses. event_matches reads ctx.event (false
    when there is none); every other probe reads ctx.state, as
    probe(ctx.state, *args)."""
    if isinstance(phi, (F.LitF, F.Final)):
        return [(State.holds, (phi.lit,))]
    if isinstance(phi, F.OccNext):
        return [(semantics.event_matches, (phi.ref,))]
    if isinstance(phi, F.Terminated):
        return [(semantics.terminated_at, (phi.ref,))]
    if isinstance(phi, F.Before):
        return [(semantics.window_open, (phi.t1, phi.t2))]
    if isinstance(phi, F.HoldBefore):
        return [(State.holds, (phi.lit,))]
    if isinstance(phi, F.HoldAfter):
        return [(semantics.terminated_at, (phi.t,)), (State.holds, (phi.lit,))]
    if isinstance(phi, F.HoldBetween):
        return [(semantics.window_open, (phi.t1, phi.t2)),
                (State.holds, (phi.lit,))]
    if isinstance(phi, F.Mon):
        if phi.construct == "hold-before":
            reads = [(semantics.event_matches, (phi.t1,))]
        elif phi.construct == "hold-after":
            reads = [(semantics.terminated_at, (phi.t1,))]
        else:  # an armed window stays armed without looking again
            reads = [(semantics.event_matches, (phi.t2,))]
            if not phi.armed:
                reads.append((semantics.window_open, (phi.t1, phi.t2)))
        if phi.lit is not None:
            reads.append((State.holds, (phi.lit,)))
        return reads
    if isinstance(phi, (F.Not, F.Always, F.Eventually)):
        return _reads(phi.sub)
    if isinstance(phi, (F.And, F.Or)):
        return [r for p in phi.parts for r in _reads(p)]
    if isinstance(phi, F.Until):
        return _reads(phi.hold) + _reads(phi.goal)
    return []  # TrueC, FalseC, Occ, Apply, Last, Next: the flag decides


class _Residual:
    """One automaton state: its probes, its outgoing transitions keyed by
    letter, and its _sat values keyed by view. The event probes are numbered
    and grouped by ref name, as an event can only match the refs that carry
    its name."""

    __slots__ = ("state_reads", "event_refs", "delta", "sat")

    def __init__(self, phi: F.BDF):
        self.state_reads = []
        self.event_refs: dict[str, list] = {}
        numbers = itertools.count()
        for probe, args in dict.fromkeys(_reads(phi)):
            if probe is semantics.event_matches:
                self.event_refs.setdefault(args[0].name, []).append(
                    (next(numbers), args[0]))
            else:
                self.state_reads.append((probe, args))
        self.delta: dict = {}
        self.sat: dict = {}


class Automaton:
    """The part of a preference's progression automaton one search visits,
    built as the search reaches it. States are the interned residuals;
    constants are their own successors and never get a state."""

    def __init__(self):
        self._interned: dict = {F.TRUE: F.TRUE, F.FALSE: F.FALSE}
        self._states: dict[int, _Residual] = {}  # id of an interned residual
        # bounds() of the one skeleton this automaton serves, keyed by views
        self.bounds_by_views: dict = {}

    def intern(self, phi: F.BDF) -> F.BDF:
        return self._interned.setdefault(phi, phi)

    def _add_state(self, phi: F.BDF) -> _Residual:
        st = self._states[id(phi)] = _Residual(phi)
        return st

    def step(self, residuals: tuple, ctx: StepContext) -> tuple:
        """The successor of each residual under the letter ctx spells for
        it: the terminal flag, the values of the state probes and the numbers
        of the event probes that hold. The same tuple comes back when no
        residual moved."""
        state, event = ctx.state, ctx.event
        name = semantics.event_name(event)
        matches = semantics.event_matches
        out = []
        moved = False
        for phi in residuals:
            if phi is F.TRUE or phi is F.FALSE:
                out.append(phi)
                continue
            st = self._states.get(id(phi)) or self._add_state(phi)
            letter = (ctx.terminal,)
            if st.state_reads:
                letter += tuple([probe(state, *args)
                                 for probe, args in st.state_reads])
            refs = st.event_refs.get(name)
            if refs:
                letter += tuple([i for i, ref in refs if matches(event, ref)])
            nxt = st.delta.get(letter)
            if nxt is None:
                nxt = st.delta[letter] = self.intern(progress_bdf(phi, ctx))
            moved = moved or nxt is not phi
            out.append(nxt)
        return tuple(out) if moved else residuals

    def views(self, residuals: tuple
              ) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
        """_sat of each residual under the optimistic and the pessimistic
        view."""
        opt, pess = [], []
        for phi in residuals:
            if phi is F.TRUE or phi is F.FALSE:
                opt.append(phi is F.TRUE)
                pess.append(phi is F.TRUE)
                continue
            st = self._states.get(id(phi)) or self._add_state(phi)
            for view, out in ((True, opt), (False, pess)):
                value = st.sat.get(view)
                if value is None:
                    value = st.sat[view] = _sat(phi, view)
                out.append(value)
        return tuple(opt), tuple(pess)


def _eval_const(phi: F.BDF) -> bool:
    """The value of a terminal residual: the terminal step resolves every
    obligation and mk_and/mk_or fold the constants, so none is left open."""
    if isinstance(phi, F.TrueC):
        return True
    if isinstance(phi, F.FalseC):
        return False
    raise ValueError(f"unresolved residual at terminal: {phi!r}")


def terminal_weight(pf: Progressed) -> Fraction:
    """Exact weight of a fully progressed (terminal) formula."""
    return F.gpf_weight(pf.skeleton, lambda i: _eval_const(pf.residuals[i]))


# --- whole-trace replay --------------------------------------------------------------

def progress_trace(gpf: F.GPF, trace: Trace, universe: tuple[str, ...]
                   ) -> tuple[Fraction, list[Bounds]]:
    """Replay a complete trace through progression.

    Returns the terminal weight and the bounds after every step (the entry
    for the final step collapses to the exact weight).
    """
    pf = init_progressed(gpf, universe)
    events, states = trace.events, trace.states
    n = len(events)
    prefix_bounds: list[Bounds] = []
    for i in range(n + 1):
        event = events[i - 1] if i > 0 else None
        terminal = i == n
        pf = step(pf, StepContext(event, states[i], terminal))
        if terminal:
            w = terminal_weight(pf)
            prefix_bounds.append(Bounds(w, w))
        else:
            prefix_bounds.append(bounds(pf))
    return terminal_weight(pf), prefix_bounds
