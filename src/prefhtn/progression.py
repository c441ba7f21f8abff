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

The steps run through a two-level automaton, built lazily: one per
search, per progress_trace call, or per cross-check, shared by its search
and its replay, and across their nodes or traces.
A letter is the terminal flag plus the values of the reads progress_bdf makes
of the step's trace cell (holds on its state's literals; event_matches on
its event, terminated_at and window_open on its started and terminated
chains): it decides the successor, so a transition met once is looked up
after. Product states serve the hits: a Progressed, interned by its residual
tuple, reads the union of its residuals' probes, and one lookup steps them
all. Residual states serve the misses: each interned residual is stepped
on its own letter, and a residual transition not met before calls
progress_bdf, the one progression rule.
No automaton outlives its search, call or cross-check, so no problem sees
another's.

progress_trace also shares the steps themselves. The traces of one
enumeration are parent-linked cells that share their prefixes, and a
non-terminal step's result is a function of the previous result and the
cell alone, so the Progressed after a cell is the same on every trace
through it. Each distinct cell is stepped once, non-terminally; a trace's
terminal step starts from its parent cell's Progressed.

Residual conventions (all indices relative to the event sequence):

  * occ(X) and apply(X) hatch occNext(X) and eventually(terminated(X));
    occNext is resolved against the next event.
  * before/hold* constructs are unfolded before the first step into the
    LTL formulas they abbreviate (unfold), over at(t) = next(occNext(t)),
    terminated and the Window leaf of the t1/t2 window, by the one walk
    that grounds the quantifiers (formulas.ground) as it meets them.
  * A quantifier of a search's or cross-check's preference is ground over
    the constants less the instances that no plan can make anything but
    the join's unit (model.reachable): those are never residuals.
  * An obligation still pending counts as satisfied under the optimistic
    bound and falsified under the pessimistic one, and a not judges its
    sub-formula under the other view (_sat). That is strong Kleene
    evaluation with pending as the unknown value, so each bound stays
    admissible and monotone whatever formula a not stands over.
  * final(l) stays open until the terminal step. Its pessimistic bound is
    "unsatisfied", not the current value of l: a fluent that is true now but
    deleted later would otherwise let the pessimistic weight increase along
    a prefix.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import formulas as F
from . import semantics
from .errors import UnboundVariable
from .model import Problem, Row, Trace, Value, reachable, slot_setters


class Progressed(Value):
    """One product state: skeleton is the ground preference with BDF number
    i standing for residuals[i], the residual of that BDF after the steps
    so far. automaton interns it by its residuals; it keeps its probes and
    transitions from its first step on (Automaton.probe), and its Bounds.
    It is settled when every residual is a constant: then every letter
    leads back to it, and a search need not step it."""

    __slots__ = ("skeleton", "residuals", "automaton", "settled", "_probes",
                 "_bounds")
    _fields = ("skeleton", "residuals")

    def __init__(self, skeleton: F.GPF, residuals: tuple[F.BDF, ...],
                 automaton: Automaton):
        _progressed_skeleton(self, skeleton)
        _progressed_residuals(self, residuals)
        _progressed_automaton(self, automaton)
        _progressed_settled(self, all(phi is F.TRUE or phi is F.FALSE
                                      for phi in residuals))
        _progressed_probes(self, None)
        _progressed_bounds(self, None)


(_progressed_skeleton, _progressed_residuals, _progressed_automaton,
 _progressed_settled, _progressed_probes, _progressed_bounds) = slot_setters(
    Progressed, "skeleton", "residuals", "automaton", "settled", "_probes",
    "_bounds")


class Bounds(Value):
    __slots__ = ("opt", "pess")

    def __init__(self, opt: Fraction, pess: Fraction):
        assert opt <= pess
        _bounds_opt(self, opt)
        _bounds_pess(self, pess)


_bounds_opt, _bounds_pess = slot_setters(Bounds, "opt", "pess")


class StepContext(Row):
    """One progression step: the trace cell it reads, whose event was just
    taken (None for the initial step) and whose state that event produced,
    and whether the plan is complete after it."""

    __slots__ = ()
    _fields = ("trace", "terminal")

    def __new__(cls, trace: Trace, terminal: bool):
        return tuple.__new__(cls, (trace, terminal))


def init_progressed(gpf: F.GPF, universe: tuple[str, ...],
                    problem: Problem = None) -> Progressed:
    """Ground the quantifiers and unfold the before/hold* constructs of
    each BDF in one walk of the parsed formula (formulas.ground with
    unfold), and number the BDFs (no step yet). map_gpf and gpf_bdfs both
    visit a Cond's condition before its body, so the numbers are the
    positions in gpf_bdfs. Given the problem, a quantifier keeps only the
    instances that a plan of it can make anything but the join's unit,
    by the analysis of model.reachable, made at the first quantifier the
    walk meets and dropped with this call."""
    counter = itertools.count()
    automaton = Automaton()
    analysis = []  # model.reachable(problem), once a quantifier needs it

    def reach():
        if not analysis:
            analysis.append(reachable(problem))
        return analysis[0]

    analysed = None if problem is None else reach
    return automaton.product(F.map_gpf(gpf, lambda _: next(counter)),
                             tuple(automaton.intern(F.ground(b, universe,
                                                             unfold, analysed))
                                   for b in F.gpf_bdfs(gpf)))


def _at(t: F.Ref) -> F.BDF:
    """Event k matches t, read at index k: the Next hides the event before
    the index, which OccNext alone would read."""
    return F.Next(F.OccNext(t))


def unfold(phi: F.BDF) -> F.BDF:
    """A before/hold* construct as the LTL formula it abbreviates (see
    semantics), over at, terminated and the t1/t2 window; any other as is."""
    if isinstance(phi, F.HoldBefore):
        return F.Eventually(F.And((F.LitF(phi.lit), _at(phi.t))))
    if isinstance(phi, F.HoldAfter):
        return F.Eventually(F.And((F.Terminated(phi.t), F.LitF(phi.lit))))
    if isinstance(phi, F.Before):
        at2 = _at(phi.t2)
        return F.And((F.Until(F.Not(at2), F.Window(phi.t1, phi.t2)),
                      F.Eventually(at2)))
    if isinstance(phi, F.HoldBetween):
        at2, held = _at(phi.t2), F.LitF(phi.lit)
        return F.Until(F.Not(at2), F.And((
            F.Window(phi.t1, phi.t2),
            F.Until(held, F.And((held, at2))))))
    return phi


# --- one progression step ----------------------------------------------------------

def progress_bdf(phi: F.BDF, ctx: StepContext) -> F.BDF:
    """Progress one residual BDF through one step by the rule of its class;
    the rules recurse through this function."""
    rule = _PROGRESS.get(type(phi))
    if rule is None:
        if isinstance(phi, (F.Exists, F.Forall)):
            raise UnboundVariable("quantifiers must be grounded before progression")
        raise TypeError(f"cannot progress {phi!r}")
    return rule(phi, ctx)


def _occ(phi, ctx: StepContext) -> F.BDF:
    """occ and apply: an operator terminates at its own event."""
    if ctx.terminal:
        return F.FALSE
    if phi.ref.kind == "op":
        return F.OccNext(phi.ref)
    return F.mk_and([F.OccNext(phi.ref), F.Eventually(F.Terminated(phi.ref))])


def _not(phi: F.Not, ctx: StepContext) -> F.BDF:
    inner = progress_bdf(phi.sub, ctx)
    if isinstance(inner, (F.TrueC, F.FalseC)):
        return F.const(isinstance(inner, F.FalseC))
    return F.Not(inner)


def _now_or_later(phi, ctx: StepContext, join) -> F.BDF:
    """always (join is mk_and) and eventually (mk_or): sub now, joined with
    phi again from the next index unless this one is the last."""
    now = progress_bdf(phi.sub, ctx)
    return now if ctx.terminal else join([now, phi])


def _until(phi: F.Until, ctx: StepContext) -> F.BDF:
    goal_now = progress_bdf(phi.goal, ctx)
    if ctx.terminal:
        return goal_now
    return F.mk_or([goal_now, F.mk_and([progress_bdf(phi.hold, ctx), phi])])


def _literal(trace: Trace, lit) -> bool:
    """The truth of lit in the cell's state: the probe of a literal."""
    return trace.final_state.holds(lit)


# One rule per node class, rule(phi, ctx) -> residual. Quantifiers and the
# before/hold* constructs have none: they are gone before the first step.
_PROGRESS = {
    F.TrueC: lambda phi, ctx: phi,
    F.FalseC: lambda phi, ctx: phi,
    F.LitF: lambda phi, ctx: F.const(_literal(ctx.trace, phi.lit)),
    F.Final: lambda phi, ctx:
        F.const(_literal(ctx.trace, phi.lit)) if ctx.terminal else phi,
    F.Occ: _occ,
    F.Apply: _occ,
    F.OccNext: lambda phi, ctx: F.const(
        semantics.event_matches(ctx.trace.event, phi.ref)),
    F.Terminated: lambda phi, ctx:
        F.const(semantics.terminated_at(ctx.trace, phi.ref)),
    F.Window: lambda phi, ctx:
        F.const(semantics.window_open(ctx.trace, phi.t1, phi.t2)),
    F.Not: _not,
    F.And: lambda phi, ctx: F.mk_and([progress_bdf(p, ctx) for p in phi.parts]),
    F.Or: lambda phi, ctx: F.mk_or([progress_bdf(p, ctx) for p in phi.parts]),
    F.Next: lambda phi, ctx: F.FALSE if ctx.terminal else phi.sub,
    F.Always: lambda phi, ctx: _now_or_later(phi, ctx, F.mk_and),
    F.Eventually: lambda phi, ctx: _now_or_later(phi, ctx, F.mk_or),
    F.Until: _until,
}


def step(pf: Progressed, ctx: StepContext) -> Progressed:
    """pf's successor under the letter ctx spells for it. Only a letter pf
    has not met steps its residuals; a step that moves none of them returns
    pf itself."""
    reads, refs, delta = pf._probes or pf.automaton.probe(pf)
    letter = _letter(reads, refs, ctx)
    nxt = delta.get(letter)
    if nxt is None:
        nxt = delta[letter] = pf.automaton.product(
            pf.skeleton, pf.automaton.step(pf.residuals, ctx))
    return nxt


# --- bounds ------------------------------------------------------------------------

def _sat(phi: F.BDF, opt: bool) -> bool:
    """Whether one residual counts as satisfied under the optimistic (opt)
    or the pessimistic view. It reads no state: Terminated appears only
    under Eventually and Window only under Until, where the walk stops."""
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
    out = pf._bounds
    if out is None:
        sats = [pf.automaton.state(phi).sat for phi in pf.residuals]
        opt, pess = (lambda i: sats[i][0]), (lambda i: sats[i][1])
        out = Bounds(F.gpf_weight(pf.skeleton, opt, pess),
                     F.gpf_weight(pf.skeleton, pess, opt))
        _progressed_bounds(pf, out)
    return out


# --- the automaton -------------------------------------------------------------------

def _reads(phi: F.BDF) -> list:
    """The (probe, args) pairs whose values, with the terminal flag, decide
    progress_bdf(phi, ctx): each is a read progress_bdf makes of ctx on phi
    or on a sub-formula it progresses. event_matches reads the cell's event
    (false when there is none); every other probe reads the cell, as
    probe(ctx.trace, *args)."""
    if isinstance(phi, (F.LitF, F.Final)):
        return [(_literal, (phi.lit,))]
    if isinstance(phi, F.OccNext):
        return [(semantics.event_matches, (phi.ref,))]
    if isinstance(phi, F.Terminated):
        return [(semantics.terminated_at, (phi.ref,))]
    if isinstance(phi, F.Window):
        return [(semantics.window_open, (phi.t1, phi.t2))]
    if isinstance(phi, (F.Not, F.Always, F.Eventually)):
        return _reads(phi.sub)
    if isinstance(phi, (F.And, F.Or)):
        return [r for p in phi.parts for r in _reads(p)]
    if isinstance(phi, F.Until):
        return _reads(phi.hold) + _reads(phi.goal)
    return []  # TrueC, FalseC, Occ, Apply, Next: the flag decides


def _group(refs) -> dict:
    """{(kind, name): ([(number, ref), ...], memo)}: refs numbered once each,
    grouped by the key of the events that can match them (see _letter)."""
    out: dict = {}
    for i, ref in enumerate(dict.fromkeys(refs)):
        out.setdefault((ref.kind, ref.name), ([], {}))[0].append((i, ref))
    return out


def _letter(reads, refs: dict, ctx: StepContext) -> tuple:
    """The letter ctx spells for a state that probes reads and refs (see
    _group): the terminal flag, the value of each read and the numbers of
    the refs the event matches. event_matches reads only the kind, name and
    args of both sides, so each group memoises the numbers by args."""
    letter, trace = (ctx.terminal,), ctx.trace
    if reads:  # most product states read none
        letter += tuple([probe(trace, *args) for probe, args in reads])
    event = trace.event
    key, args = semantics.event_key(event)
    group = refs.get(key)
    if group is None:
        return letter
    numbers = group[1].get(args)
    if numbers is None:
        numbers = group[1][args] = tuple([
            i for i, ref in group[0] if semantics.event_matches(event, ref)])
    return letter + numbers


class _Residual:
    """One residual state: its state reads, its event refs (see _group),
    its outgoing transitions keyed by letter, and its _sat under the
    optimistic and the pessimistic view."""

    __slots__ = ("state_reads", "event_refs", "delta", "sat")

    def __init__(self, phi: F.BDF):
        reads = dict.fromkeys(_reads(phi))
        self.state_reads = [r for r in reads
                            if r[0] is not semantics.event_matches]
        self.event_refs = _group(args[0] for probe, args in reads
                                 if probe is semantics.event_matches)
        self.delta: dict = {}
        self.sat = (_sat(phi, True), _sat(phi, False))


class Automaton:
    """The part of a preference's progression automaton that one search,
    replay or cross-check visits, built as it is reached (see the module
    docstring). Its product states are the Progressed of the one skeleton
    it serves, by residual tuple; its residual states the _Residual of each
    interned residual."""

    def __init__(self):
        self._interned: dict = {F.TRUE: F.TRUE, F.FALSE: F.FALSE}
        self._states: dict[int, _Residual] = {}  # id of an interned residual
        self._products: dict[tuple, Progressed] = {}

    def intern(self, phi: F.BDF) -> F.BDF:
        return self._interned.setdefault(phi, phi)

    def state(self, phi: F.BDF) -> _Residual:
        st = self._states.get(id(phi))
        if st is None:
            st = self._states[id(phi)] = _Residual(phi)
        return st

    def product(self, skeleton: F.GPF, residuals: tuple) -> Progressed:
        """The one product state of a tuple of interned residuals."""
        pf = self._products.get(residuals)
        if pf is None:
            pf = self._products[residuals] = Progressed(skeleton, residuals,
                                                        self)
        return pf

    def probe(self, pf: Progressed) -> tuple:
        """Give pf the union of its residuals' probes, read off their
        states, and a transition table: (state reads, event refs, {})."""
        sts = [self.state(phi) for phi in pf.residuals]
        reads = tuple(dict.fromkeys(r for st in sts for r in st.state_reads))
        refs = _group(ref for st in sts for refs, _ in st.event_refs.values()
                      for _, ref in refs)
        out = (reads, refs, {})
        _progressed_probes(pf, out)
        return out

    def step(self, residuals: tuple, ctx: StepContext) -> tuple:
        """The successor of each residual under the letter ctx spells for
        it, which it reads itself. The same tuple comes back when no
        residual moved."""
        out = []
        moved = False
        for phi in residuals:
            if phi is F.TRUE or phi is F.FALSE:
                out.append(phi)
                continue
            st = self.state(phi)
            letter = _letter(st.state_reads, st.event_refs, ctx)
            nxt = st.delta.get(letter)
            if nxt is None:
                nxt = st.delta[letter] = self.intern(progress_bdf(phi, ctx))
            moved = moved or nxt is not phi
            out.append(nxt)
        return tuple(out) if moved else residuals

    def release(self) -> None:
        """Break the cycles between this automaton and its product states
        (each refers to it, and its transitions to product states), so that
        reference counting frees them all once the last node drops them."""
        for pf in self._products.values():
            _progressed_probes(pf, None)
        self._products.clear()


def terminal_weight(pf: Progressed) -> Fraction:
    """Exact weight of a fully progressed (terminal) formula. The terminal
    step resolves every obligation and mk_and/mk_or fold the constants, so
    pf is settled and its bounds meet at the weight."""
    if not pf.settled:
        raise ValueError(f"unresolved residual at terminal: {pf.residuals!r}")
    return bounds(pf).opt


# --- whole-trace replay --------------------------------------------------------------

def progress_trace(gpf: F.GPF, traces, universe: tuple[str, ...],
                   start: Progressed = None
                   ) -> list[tuple[Fraction, list[Bounds]]]:
    """Replay complete traces through progression, all on one automaton:
    start's, an init_progressed(gpf, universe) whose release is left to the
    caller, or by default a fresh one.

    Returns, per trace, the terminal weight and the bounds after every step
    (the entry for the final step collapses to the exact weight). A trace
    cell's non-terminal Progressed and its bounds depend only on the events
    and states from the root to that cell, so each cell the traces share is
    stepped once; a trace's terminal step starts from its parent cell's.
    """
    root = start or init_progressed(gpf, universe)
    done: dict = {}  # trace cell -> its non-terminal Progressed
    out = []
    try:
        for trace in traces:
            pf, prefix = root, []
            for cell in trace.cells[:-1]:
                if cell not in done:
                    done[cell] = step(pf, StepContext(cell, False))
                pf = done[cell]
                prefix.append(bounds(pf))
            pf = step(pf, StepContext(trace, True))
            prefix.append(bounds(pf))
            out.append((terminal_weight(pf), prefix))
    finally:
        if start is None:
            root.automaton.release()
    return out
