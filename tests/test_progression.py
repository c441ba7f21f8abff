"""Progression rules, the before/hold-* constructs, and the
optimistic/pessimistic bounds."""

import gc
import typing
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from conftest import MINI_DOMAIN, fixture_ids, load_fixture

import prefhtn.formulas as F
import prefhtn.progression as P
from prefhtn import semantics
from prefhtn.errors import ResourceLimit, UnboundVariable
from prefhtn.model import (Atom, EndEvent, Literal, OperatorEvent,
                           StartEvent, State, Trace, replay)
from prefhtn.oracle import EnumerationCaps, cross_check, enumerate_all
from prefhtn.parser import (empty_preference, parse_domain,
                            parse_preference, parse_problem)
from prefhtn.search import SolveConfig, solve
from prefhtn.progression import Bounds, progress_trace
from prefhtn.randgen import GenConfig, gen_instance
from prefhtn.semantics import weight_gpf


def replay_pref(text, domain, trace):
    gpf = parse_preference(text, domain)
    universe = ("train", "ticket")
    [replay] = progress_trace(gpf, [trace], universe)
    return replay


class TestProgressionRules:
    def test_occ_resolves_at_own_event(self, mini_domain, mini_trace):
        # eventually(occ(!book-train)) settles exactly when the event fires:
        # steps 0-2 are undecided, the book-train event (step 3) decides it
        weight, bnds = replay_pref("(eventually (occ (!book-train)))",
                                   mini_domain, mini_trace)
        assert weight == 0
        assert [b.opt == b.pess for b in bnds] == \
            [False, False, False, True, True, True, True]
        assert bnds[3] == Bounds(Fraction(0), Fraction(0))

    def test_occ_task_needs_termination(self, mini_domain, mini_trace):
        # the task starts at step 1 but only terminates at the final step,
        # so the formula stays undecided until the end marker
        weight, bnds = replay_pref("(eventually (occ (arrange-trans)))",
                                   mini_domain, mini_trace)
        assert weight == 0
        assert bnds[1].opt != bnds[1].pess
        assert bnds[-1] == Bounds(Fraction(0), Fraction(0))

    def test_always_falsifies_immediately(self, mini_domain, mini_trace):
        # (paid) is false in the initial state, so always(paid) is decided
        # at step 0 and the bounds never move again
        weight, bnds = replay_pref("(always (paid))", mini_domain, mini_trace)
        assert weight == 1
        assert all(b == Bounds(Fraction(1), Fraction(1)) for b in bnds)

    def test_final_stays_open_until_terminal(self, mini_domain, mini_trace):
        # (paid) becomes true mid-trace, but final() must not commit early:
        # a later delete could still falsify it
        weight, bnds = replay_pref("(final (paid))", mini_domain, mini_trace)
        assert weight == 0
        assert all(b == Bounds(Fraction(0), Fraction(1)) for b in bnds[:-1])
        assert bnds[-1] == Bounds(Fraction(0), Fraction(0))

    def test_next_and_until(self, mini_domain, mini_trace):
        w, _ = replay_pref("(until (not (paid)) (paid))",
                           mini_domain, mini_trace)
        assert w == 0
        w, _ = replay_pref("(until (paid) (has-car))",
                           mini_domain, mini_trace)
        assert w == 1


class TestConstructs:
    @pytest.mark.parametrize("text,expected", [
        # book-train ends before pay begins
        ("(before (!book-train) (!pay))", 0),
        # pay never precedes book-train
        ("(before (!pay) (!book-train))", 1),
        # t2 never occurs at all: falsified at the terminal step
        ("(before (!book-train) (!book-car))", 1),
        ("(hold-before (!pay) (has-ticket))", 0),
        ("(hold-before (!pay) (paid))", 1),
        ("(hold-after (arrange-trans) (paid))", 0),
        ("(hold-after (arrange-trans) (has-car))", 1),
        ("(hold-between (!book-train) (has-ticket) (!pay))", 0),
        ("(hold-between (!book-train) (paid) (!pay))", 1),
        # a negated construct resolves to the opposite constant
        ("(not (before (!pay) (!book-train)))", 0),
        ("(not (hold-before (!pay) (has-ticket)))", 1),
    ])
    def test_construct_weights(self, mini_domain, mini_trace, text, expected):
        weight, _ = replay_pref(text, mini_domain, mini_trace)
        assert weight == expected

    @pytest.mark.parametrize("text", [
        "(before (!book-train) (!pay))",
        "(before (!pay) (!book-train))",
        "(hold-before (!pay) (has-ticket))",
        "(hold-after (arrange-trans) (paid))",
        "(hold-between (!book-train) (has-ticket) (!pay))",
        "(eventually (occ (!pay)))",
        "(always (not (occ (!book-car))))",
        "(eventually (before (!book-train) (!pay)))",
        "(&! (eventually (occ (!pay)))"
        "    (>> ((always (not (occ (!book-car)))) 0) ((and) 1/2)))",
        # a negated next is false where the next holds, and true at the
        # final index, which has no successor
        "(not (next (paid)))",
        "(always (not (next (paid))))",
        # a method application is observed through its start event
        "(eventually (apply (by-train-trans)))",
        "(not (apply (by-car-trans)))",
    ])
    def test_constructs_match_direct_semantics(self, mini_domain,
                                               mini_trace, text):
        gpf = parse_preference(text, mini_domain)
        universe = ("train",)
        [(weight, _)] = progress_trace(gpf, [mini_trace], universe)
        assert weight == weight_gpf(mini_trace, gpf, universe)


# The mini domain plus a tour that visits one of two constants, so that a
# quantifier ranges over a universe of two.
NEGATION_DOMAIN = MINI_DOMAIN.rstrip()[:-1] + """
  (:operator (!visit ?c) :pre () :del () :add ((seen ?c)))
  (:method (tour) :name via-a :pre () :tasks ((!visit a) (!pay)))
  (:method (tour) :name via-b :pre () :tasks ((!visit b)))
)
"""
_NEGATION_FORMULAS = ["(eventually (has-car))", "(always (not (seen b)))",
                      "(next (apply (by-car-trans)))",
                      "(until (not (paid)) (has-ticket))"]
_NEGATION_BODIES = ["(eventually (and (seen ?x) (has-car)))",
                    "(until (not (occ (!visit ?x))) (occ (!book-car)))",
                    "(and (eventually (occ (!visit ?x)))"
                    " (next (apply (by-train-trans))))"]
_NEGATION_LITERALS = ["(has-ticket)", "(seen a)", "(seen b)"]


def _rewrites():
    """(not ..., the form negation normal form rewrote it into) pairs: one
    per dual, over a few operands each."""
    out = []
    for p in _NEGATION_FORMULAS:
        out.append((f"(not (always {p}))", f"(eventually (not {p}))"))
        out.append((f"(not (next {p}))",
                    f"(or (not (next (and))) (next (not {p})))"))
        for q in _NEGATION_FORMULAS:
            if p == q:
                continue
            out.append((f"(not (and {p} {q}))", f"(or (not {p}) (not {q}))"))
            out.append((f"(not (until {p} {q}))",
                        f"(or (always (not {q})) (until (not {q}) "
                        f"(and (not {p}) (not {q}))))"))
    for body in _NEGATION_BODIES:
        out.append((f"(not (exists (?x) {body}))",
                    f"(forall (?x) (not {body}))"))
    for lit in _NEGATION_LITERALS:
        out.append((f"(not (final {lit}))", f"(final (not {lit}))"))
    return out


class TestNegation:
    """A not over any formula weighs what its negation normal form does,
    on every plan, under the direct semantics, under progression and as
    the best-first optimum."""

    @pytest.fixture(scope="class")
    def domain(self):
        return parse_domain(NEGATION_DOMAIN, "<negation>")

    def _problem(self, domain, text):
        problem = parse_problem(
            "(problem p :init () :tasks ((arrange-trans) (tour)))", domain)
        problem.preference = parse_preference(text, domain)
        return problem

    @pytest.mark.parametrize("negated,rewritten", _rewrites())
    def test_weighs_as_its_rewrite(self, domain, negated, rewritten):
        weights = []
        for text in (negated, rewritten):
            problem = self._problem(domain, text)
            gpf, universe = problem.preference, problem.constants
            assert universe == ("a", "b")
            traces = enumerate_all(problem).traces
            direct = [weight_gpf(t, gpf, universe) for t in traces]
            replayed = [w for w, _ in progress_trace(gpf, traces, universe)]
            assert replayed == direct
            weights.append((direct, solve(problem).weight))
        assert weights[0] == weights[1]
        assert weights[0][1] == min(weights[0][0])

    def test_rewrites_tell_plans_apart(self, domain):
        # most pairs weigh the four plans unequally, so the check above is
        # not met by constant weights alone
        spread = 0
        for negated, _ in _rewrites():
            problem = self._problem(domain, negated)
            traces = enumerate_all(problem).traces
            assert len(traces) == 4
            spread += len({weight_gpf(t, problem.preference,
                                      problem.constants) for t in traces}) > 1
        assert spread > len(_rewrites()) // 2

# Operators only: an operator terminates at its own event, so before(t1, t2)
# has its window open from the t1 event up to the t2 event.
TIMING_DOMAIN = """
(domain timing
  (:operator (!t1) :pre () :del () :add ())
  (:operator (!t2) :pre () :del () :add ())
  (:operator (!set) :pre () :del () :add ((l)))
  (:operator (!clear) :pre () :del ((l)) :add ())
  (:operator (!wait) :pre () :del () :add ()))
"""
# The bounds after each step, the initial one first: "?" is (0, 1), "0" is
# (0, 0) and "1" is (1, 1).
BOUNDS = {"?": Bounds(Fraction(0), Fraction(1)),
          "0": Bounds(Fraction(0), Fraction(0)),
          "1": Bounds(Fraction(1), Fraction(1))}
NEGATED = {"?": "?", "0": "1", "1": "0"}


class TestBoundsTiming:
    @pytest.mark.parametrize("text,plan,expected", [
        # t2 occurs while the window is closed: falsified by the t2 event
        ("(before (!t1) (!t2))", "t2 t1 wait", "?111"),
        # armed by the t1 event, satisfied by the t2 event
        ("(before (!t1) (!t2))", "t1 wait t2 wait", "???00"),
        # armed, but t2 never comes: falsified at the terminal step
        ("(before (!t1) (!t2))", "t1 wait", "??1"),
        # l holds in the state the t2 event leaves from
        ("(hold-before (!t2) (l))", "set t2 wait", "??00"),
        # l only holds after the t2 event
        ("(hold-before (!t2) (l))", "t2 set", "??1"),
        # the event itself clears or sets l: what counts is the state it
        # leaves from
        ("(hold-before (!clear) (l))", "set clear", "??0"),
        ("(hold-before (!set) (l))", "set", "?1"),
        ("(hold-after (!t1) (l))", "t1 set wait", "??00"),
        # l held only before t1 terminated
        ("(hold-after (!t1) (l))", "set clear t1", "???1"),
        ("(hold-between (!t1) (l) (!t2))", "set t1 wait t2 wait", "????00"),
        # l cleared inside the window: it could still come back before t2
        ("(hold-between (!t1) (l) (!t2))", "set t1 clear t2", "????1"),
        ("(hold-between (!t1) (l) (!t2))", "t2 set t1", "?111"),
    ])
    @pytest.mark.parametrize("negated", [False, True], ids=["pos", "neg"])
    def test_bounds_after_every_step(self, text, plan, expected, negated):
        domain = parse_domain(TIMING_DOMAIN, "<timing>")
        if negated:
            text = f"(not {text})"
            expected = "".join(NEGATED[c] for c in expected)
        events = [OperatorEvent(name, (), uid)
                  for uid, name in enumerate(plan.split())]
        trace = replay(State(frozenset()), events, domain)
        gpf = parse_preference(text, domain)
        [(weight, bnds)] = progress_trace(gpf, [trace], ())
        assert bnds == [BOUNDS[c] for c in expected]
        assert weight == weight_gpf(trace, gpf) == bnds[-1].opt


class TestBounds:
    def test_bounds_invariant(self):
        with pytest.raises(AssertionError):
            Bounds(Fraction(1), Fraction(0))

    def test_apf_bounds_collapse_when_decided(self, mini_domain, mini_trace):
        # after the book-train event the first alternative is falsified and
        # the second (vacuous) one satisfied, pinning both bounds at 0.4
        weight, bnds = replay_pref(
            "(>> ((always (not (occ (!book-train)))) 0) ((and) 0.4))",
            mini_domain, mini_trace)
        assert weight == Fraction(2, 5)
        assert bnds[0] == Bounds(Fraction(0), Fraction(2, 5))
        assert bnds[3] == Bounds(Fraction(2, 5), Fraction(2, 5))

    def test_last_is_false_before_the_final_step(self, mini_domain,
                                                 mini_trace):
        # (not (next (and))) holds only at the final index, so a step that
        # is not the last one already decides it
        weight, bnds = replay_pref("(not (next (and)))",
                                   mini_domain, mini_trace)
        assert weight == 1
        assert bnds[0] == Bounds(Fraction(1), Fraction(1))

    def test_cond_unresolved_guard_bounds(self, mini_domain, mini_trace):
        # while the guard is undecided the weight may still come out 0,
        # so the optimistic bound must stay at 0
        weight, bnds = replay_pref(
            "(if (eventually (occ (!book-car))) (final (has-car)))",
            mini_domain, mini_trace)
        assert weight == 0  # guard never fires
        assert bnds[0].opt == 0


class TestAgainstOracle:
    def test_travel4_optimal_weight_and_bracketing(self):
        problem = load_fixture("travel", 4)
        oracle = enumerate_all(problem)
        assert oracle.best_weight == Fraction(2, 5)
        universe = problem.constants
        for trace in oracle.traces:
            [(weight, bnds)] = progress_trace(problem.preference, [trace],
                                              universe)
            assert weight == weight_gpf(trace, problem.preference, universe)
            for b in bnds:
                assert b.opt <= weight <= b.pess

    def test_mutated_progression_is_caught(self, monkeypatch):
        # negative control: break one progression rule and make sure the
        # progression-direct cross check actually notices
        original = P.progress_bdf

        def broken(phi, ctx):
            if isinstance(phi, F.Eventually):
                return F.TRUE
            return original(phi, ctx)

        monkeypatch.setattr(P, "progress_bdf", broken)
        report = cross_check(load_fixture("travel", 2),
                             EnumerationCaps(max_seconds=60.0))
        assert not report.checks["progression-direct"]


def _plain_bounds(skeleton, residuals):
    """bounds() without the automaton: _sat on each residual."""
    def opt(i):
        return P._sat(residuals[i], True)

    def pess(i):
        return P._sat(residuals[i], False)

    return Bounds(F.gpf_weight(skeleton, opt, pess),
                  F.gpf_weight(skeleton, pess, opt))


class TestAutomaton:
    def test_memo_matches_plain_progression(self):
        # every trace of the fixtures and of 30 random instances, stepped
        # through one automaton per problem (shared by its traces, as in a
        # search) and through progress_bdf on every residual at every step
        problems = [load_fixture(suite, k) for suite, k in fixture_ids()]
        problems += [gen_instance(GenConfig(seed=seed))[0]
                     for seed in range(30)]
        steps = 0
        for problem in problems:
            root = P.init_progressed(problem.preference, problem.constants)
            oracle = enumerate_all(problem)
            for trace in oracle.traces:
                pf, plain = root, root.residuals
                n = len(trace.events)
                for i, cell in enumerate(trace.cells):
                    ctx = P.StepContext(cell, i == n)
                    pf = P.step(pf, ctx)
                    plain = tuple(P.progress_bdf(r, ctx) for r in plain)
                    assert pf.residuals == plain
                    assert P.bounds(pf) == _plain_bounds(pf.skeleton, plain)
                    steps += 1
        assert steps > 10_000


class TestSharedReplay:
    def test_one_call_equals_one_call_per_trace(self):
        # all of a problem's traces replayed in one call (one automaton,
        # shared prefix cells) give each trace the same final weight and
        # the same prefix bounds as replaying it alone
        problems = [load_fixture(suite, k) for suite, k in fixture_ids()]
        problems += [gen_instance(GenConfig(seed=seed))[0]
                     for seed in range(100)]
        traces = 0
        for problem in problems:
            gpf, universe = problem.preference, problem.constants
            oracle = enumerate_all(problem)
            shared = progress_trace(gpf, oracle.traces, universe)
            alone = [progress_trace(gpf, [t], universe)[0]
                     for t in oracle.traces]
            assert shared == alone, problem.name
            traces += len(alone)
        assert traces > 1000

    @pytest.mark.parametrize("suite,k", [("travel", 1), ("logistics", 1),
                                         ("zeno", 1)])
    def test_cross_check_steps_each_cell_once(self, monkeypatch, suite, k):
        replayed, steps = [], []
        original_step, original_replay = P.step, P.progress_trace

        def counting_step(pf, ctx):
            if replayed:  # cross_check replays after its search has run
                steps.append(ctx)
            return original_step(pf, ctx)

        def recording_replay(gpf, traces, universe, start=None):
            replayed.extend(traces)
            return original_replay(gpf, traces, universe, start)

        monkeypatch.setattr(P, "step", counting_step)
        monkeypatch.setattr(P, "progress_trace", recording_replay)
        report = cross_check(load_fixture(suite, k))
        assert report.ok and len(replayed) == report.plan_count > 1

        cells = {}  # every proper prefix of a replayed trace, by identity
        for trace in replayed:
            cell = trace.parent
            while cell is not None:
                cells[id(cell)] = cell
                cell = cell.parent
        inner = [ctx for ctx in steps if not ctx.terminal]
        terminal = [ctx for ctx in steps if ctx.terminal]
        assert len(terminal) == len(replayed)
        assert sorted(id(ctx.trace) for ctx in inner) == sorted(cells)
        # the traces do share prefixes, so this is fewer than one step per
        # event of every trace
        assert len(inner) < sum(t.length for t in replayed)


class TestCrossCheckSharesOneAutomaton:
    """cross_check grounds the preference once: its search and its replay
    step one automaton."""

    def test_one_init_for_the_preference(self, monkeypatch):
        made, released = [], []
        original_init = P.init_progressed
        original_release = P.Automaton.release

        def recording_init(gpf, universe):
            pf = original_init(gpf, universe)
            made.append((gpf, pf.automaton))
            return pf

        def recording_release(automaton):
            released.append(automaton)
            original_release(automaton)

        monkeypatch.setattr(P, "init_progressed", recording_init)
        monkeypatch.setattr(P.Automaton, "release", recording_release)
        problem = load_fixture("logistics", 1)
        assert cross_check(problem).ok
        # the enumerator's trivial preference, then the problem's
        assert [gpf for gpf, _ in made] == [empty_preference(),
                                            problem.preference]
        # each released once
        assert sorted(map(id, released)) == sorted(id(a) for _, a in made)

    @pytest.mark.parametrize("suite,k", [("travel", 1), ("logistics", 1),
                                         ("zeno", 1)])
    def test_replay_steps_the_search_automaton(self, monkeypatch, suite,
                                               k):
        made, searched, replayed, calls = [], [], [], []
        original_init, original_step = P.init_progressed, P.step
        original_replay, original_bdf = P.progress_trace, P.progress_bdf

        def recording_init(gpf, universe):
            pf = original_init(gpf, universe)
            made.append(pf.automaton)
            return pf

        def recording_step(pf, ctx):
            (replayed if calls else searched).append(pf.automaton)
            return original_step(pf, ctx)

        def counting_replay(*args):
            calls.append(0)
            return original_replay(*args)

        def counting_bdf(phi, ctx):
            if calls:
                calls[-1] += 1
            return original_bdf(phi, ctx)

        monkeypatch.setattr(P, "init_progressed", recording_init)
        monkeypatch.setattr(P, "step", recording_step)
        monkeypatch.setattr(P, "progress_trace", counting_replay)
        monkeypatch.setattr(P, "progress_bdf", counting_bdf)
        problem = load_fixture(suite, k)
        assert cross_check(problem).ok
        automaton = made[-1]
        assert searched and replayed
        assert all(a is automaton for a in searched + replayed)
        # the search's transitions serve the replay: a fresh automaton
        # calls progress_bdf more often on the same traces
        P.progress_trace(problem.preference, enumerate_all(problem).traces,
                         problem.constants)
        assert calls[0] < calls[1]


def _record_steps(monkeypatch):
    """Every (pf, ctx, successor) that progression.step returns, in order."""
    seen, original = [], P.step

    def recording_step(pf, ctx):
        nxt = original(pf, ctx)
        seen.append((pf, ctx, nxt))
        return nxt

    monkeypatch.setattr(P, "step", recording_step)
    return seen


def _assert_one_state_per_tuple(steps):
    """Equal residual tuples reached in one automaton are one Progressed,
    with one Bounds equal to the automaton-free computation. Returns how
    many steps from a state other than the one it reaches arrive at a
    tuple that an earlier step had reached: the sharing shown."""
    by_tuple, shared = {}, 0
    for pf, _ctx, nxt in steps:
        shared += pf is not nxt and nxt.residuals in by_tuple
        assert by_tuple.setdefault(nxt.residuals, nxt) is nxt
    for pf in by_tuple.values():
        b = P.bounds(pf)
        assert b is P.bounds(pf)
        assert b == _plain_bounds(pf.skeleton, pf.residuals)
    return shared


class TestProductStates:
    def test_a_search_keeps_one_state_per_residual_tuple(self, monkeypatch):
        steps = _record_steps(monkeypatch)
        problems = [load_fixture(suite, k) for suite, k in fixture_ids()]
        problems += [gen_instance(GenConfig(seed=seed))[0]
                     for seed in range(30)]
        shared = 0
        for problem in problems:
            steps.clear()
            assert solve(problem).status in ("ok", "noplan")
            assert len({id(pf.automaton) for pf, _, _ in steps}) <= 1
            shared += _assert_one_state_per_tuple(steps)
        # two different prefixes do reach one residual tuple
        assert shared > 0

    def test_a_replay_keeps_one_state_per_residual_tuple(self, monkeypatch):
        steps = _record_steps(monkeypatch)
        problem = load_fixture("logistics", 2)
        oracle = enumerate_all(problem)
        progress_trace(problem.preference, oracle.traces, problem.constants)
        assert _assert_one_state_per_tuple(steps) > 0
        # the bounds a replay reports are the states' own
        pfs = {id(nxt): nxt for _, _, nxt in steps}
        assert all(P.bounds(pf) is pf._bounds for pf in pfs.values())

    def test_a_self_loop_returns_the_state_itself(self, mini_domain,
                                                  mini_trace):
        gpf = parse_preference("(final (paid))", mini_domain)
        pf = P.init_progressed(gpf, ())
        ctx = P.StepContext(mini_trace.cells[0], False)
        assert P.step(pf, ctx) is pf
        assert P.step(pf, ctx) is pf  # now a transition lookup

    def test_terminal_weight_needs_a_settled_state(self, mini_domain,
                                                   mini_trace):
        # a settled state's weight is its bounds'; an open residual at the
        # end of a plan is a progression fault, not a weight
        gpf = parse_preference("(eventually (occ (!pay)))", mini_domain)
        pf = P.init_progressed(gpf, ())
        assert not pf.settled
        with pytest.raises(ValueError, match="unresolved residual at terminal"):
            P.terminal_weight(pf)
        ctx = P.StepContext(mini_trace.cells[0], True)
        done = P.step(pf, ctx)
        assert done.settled
        assert P.terminal_weight(done) == P.bounds(done).opt \
            == P.bounds(done).pess
        pf.automaton.release()

    def test_a_settled_state_is_a_fixpoint_the_search_does_not_step(
            self, monkeypatch, mini_domain, mini_trace):
        # the trivial preference is settled from the start: every letter
        # leads back to it, and a search never steps it
        root = P.init_progressed(empty_preference(), ())
        assert root.settled
        for cell in mini_trace.cells:
            for terminal in (False, True):
                ctx = P.StepContext(cell, terminal)
                assert P.step(root, ctx) is root
        steps = _record_steps(monkeypatch)
        problems = [load_fixture(suite, k) for suite, k in fixture_ids()]
        problems += [gen_instance(GenConfig(seed=seed))[0]
                     for seed in range(30)]
        settled = 0
        for problem in problems:
            steps.clear()
            solve(problem)
            for pf, _ctx, nxt in steps:
                assert not pf.settled  # a settled state is never stepped
                assert nxt.settled == all(phi is F.TRUE or phi is F.FALSE
                                          for phi in nxt.residuals)
                settled += nxt.settled
            problem.preference = empty_preference()
            steps.clear()
            solve(problem)
            assert steps == []
        assert settled > 0


def _unsolvable():
    """The mini domain with !pay blocked, under a preference over !pay."""
    domain = parse_domain(MINI_DOMAIN.replace(
        "(:operator (!pay) :pre ()", "(:operator (!pay) :pre ((blocked))"))
    problem = parse_problem("(problem p :init () :tasks ((arrange-trans)))",
                            domain)
    problem.preference = parse_preference(
        "(>> ((eventually (occ (!pay))) 0) ((and) 1))", domain)
    return problem


class TestAutomatonLifetime:
    @pytest.mark.parametrize("run", ["solve", "progress_trace",
                                     "cross_check", "enumerate_all",
                                     "cross_check-noplan",
                                     "cross_check-timeout"])
    def test_freed_when_its_search_returns(self, monkeypatch, run):
        # without the cyclic collector: product states and their automaton
        # refer to each other while the search runs
        made, original = [], P.init_progressed

        def recording_init(*args):
            pf = original(*args)
            made.append(weakref.ref(pf.automaton))
            return pf

        monkeypatch.setattr(P, "init_progressed", recording_init)
        problem = load_fixture("logistics", 1)
        traces = enumerate_all(problem).traces
        gc.collect()
        gc.disable()
        try:
            if run == "solve":
                solve(problem)
            elif run == "progress_trace":
                progress_trace(problem.preference, traces, problem.constants)
            elif run == "enumerate_all":
                enumerate_all(problem)
            elif run == "cross_check-noplan":
                assert cross_check(_unsolvable()).plan_count == 0
            elif run == "cross_check-timeout":
                with pytest.raises(ResourceLimit):  # raised by the search
                    cross_check(problem, config=SolveConfig(timeout=0))
            else:
                cross_check(problem)
            assert made and all(ref() is None for ref in made)
        finally:
            gc.enable()


# An operator a and a method branch a whose start events carry the same
# args, and a task t whose branches run a with several args tuples, in
# either order under an unordered top task.
LETTER_DOMAIN = """
(domain letters
  (:operator (!a ?x ?y) :pre () :del () :add ((done ?x ?y)))
  (:operator (!b ?x) :pre () :del () :add ((seen ?x)))
  (:method (t ?x ?y) :name a :pre () :tasks ((!a ?x ?y) (!b ?x)))
  (:method (t ?x ?y) :name other :pre () :tasks ((!a ?y ?x)))
  (:method (top) :name both :pre () :unordered :tasks ((t c d) (t d d))))
"""
# (occ (!a c)) names a by one of its two args: a subsequence match. The
# method refs (apply (a ...)) share their name with the operator.
LETTER_PREFERENCE = """
(&! (>> ((eventually (occ (!a c))) 0) ((always (not (apply (a c d)))) 1/2))
    (>> ((until (not (occ (!a c d))) (apply (a d d))) 0)
        ((eventually (occ (!a d c))) 3/10))
    (>> ((forall (?z) (eventually (occ (!b ?z)))) 0)
        ((eventually (done d d)) 1/5)))
"""


def _numbered_refs(refs):
    """The refs of a _group, in number order."""
    pairs = sorted(pair for group, _ in refs.values() for pair in group)
    assert [i for i, _ in pairs] == list(range(len(pairs)))
    return [ref for _, ref in pairs]


class TestLetters:
    @pytest.fixture
    def problem(self):
        domain = parse_domain(LETTER_DOMAIN)
        problem = parse_problem("(problem p :init () :tasks ((top)))", domain)
        problem.preference = parse_preference(LETTER_PREFERENCE, domain)
        return problem

    def test_replay_matches_plain_progression_and_direct_semantics(
            self, problem):
        gpf, universe = problem.preference, problem.constants
        oracle = enumerate_all(problem)
        assert oracle.plan_count == 8
        assert len(set(oracle.all_weights)) > 2
        replays = progress_trace(gpf, oracle.traces, universe)
        root = P.init_progressed(gpf, universe)
        for trace, (weight, prefix) in zip(oracle.traces, replays):
            assert weight == weight_gpf(trace, gpf, universe)
            plain, n = root.residuals, trace.length
            for i, (cell, b) in enumerate(zip(trace.cells, prefix)):
                ctx = P.StepContext(cell, i == n)
                plain = tuple(P.progress_bdf(r, ctx) for r in plain)
                if i < n:
                    assert b == _plain_bounds(root.skeleton, plain)
                else:
                    assert b == Bounds(weight, weight)

    def test_memoised_numbers_are_the_matching_refs(self, monkeypatch,
                                                    problem):
        steps = _record_steps(monkeypatch)
        oracle = enumerate_all(problem)
        progress_trace(problem.preference, oracle.traces, problem.constants)
        events = {e for t in oracle.traces for e in t.events}
        assert {type(e) for e in events} == {OperatorEvent, StartEvent,
                                             EndEvent}
        assert {e.args for e in events if type(e) is OperatorEvent
                and e.name == "a"} == {("c", "d"), ("d", "c"), ("d", "d")}
        # the start of method a carries the args of an operator a event
        assert {e.inst.args for e in events if type(e) is StartEvent
                and e.inst[:2] == ("method", "a")} == {("c", "d"), ("d", "d")}
        states = {id(pf): pf for pf, _, _ in steps}.values()
        keys, last = set(), oracle.traces[0]
        for pf in states:
            # progress_trace dropped its states' probes on return
            reads, refs = pf.automaton.probe(pf)[:2]
            keys |= set(refs)
            numbered = _numbered_refs(refs)
            for e in events:
                for _ in range(2):  # the second call reads the memo
                    ctx = P.StepContext(Trace(last, e, last.final_state),
                                        False)
                    letter = P._letter(reads, refs, ctx)
                    assert list(letter[1 + len(reads):]) == [
                        i for i, ref in enumerate(numbered)
                        if semantics.event_matches(e, ref)]
        assert {("op", "a"), ("method", "a")} <= keys

    def test_residual_states_number_their_own_refs(self, problem):
        universe = problem.constants
        root = P.init_progressed(problem.preference, universe)
        for phi in root.residuals:
            refs = root.automaton.state(phi).event_refs
            assert set(_numbered_refs(refs)) == {
                args[0] for probe, args in P._reads(phi)
                if probe is semantics.event_matches}

    def _corpus(self, problem):
        return [problem] + [load_fixture(suite, k)
                            for suite, k in fixture_ids()] + [
            gen_instance(GenConfig(seed=seed))[0] for seed in range(30)]

    def test_a_step_reads_each_probe_once(self, monkeypatch, problem):
        # outside progress_bdf, which reads the step itself on a residual
        # transition not met before, a product state's letter evaluates each
        # probe at most once; only a miss reads again, once per residual
        # that holds the probe, as each residual reads its own letter
        stepping, inside, missing = [False], [0], [False]
        reads, again = [], []

        def counted(fn, record=True):
            def probe(*args):
                if record and stepping[0] and not inside[0]:
                    (again if missing[0] else reads).append(
                        (probe, id(args[0]), args[1:]))
                inside[0] += 1
                try:
                    return fn(*args)
                finally:
                    inside[0] -= 1
            return probe

        original_step = P.step

        def one_step(pf, ctx):
            stepping[0] = True
            reads.clear()
            again.clear()
            try:
                return original_step(pf, ctx)
            finally:
                stepping[0] = False
                assert len(reads) == len(set(reads))
                owned = [set(P._reads(phi)) for phi in pf.residuals
                         if phi is not F.TRUE and phi is not F.FALSE]
                for (probe, _, args), n in Counter(again).items():
                    assert n <= sum((probe, args) in o for o in owned)
                total[0] += len(reads)
                reread[0] += len(again)

        total, reread, misses = [0], [0], [0]
        original_miss = P.Automaton.step

        def counted_miss(*args):
            misses[0] += 1
            missing[0] = True
            try:
                return original_miss(*args)
            finally:
                missing[0] = False

        for name in ("event_matches", "terminated_at", "window_open"):
            monkeypatch.setattr(semantics, name,
                                counted(getattr(semantics, name)))
        monkeypatch.setattr(P, "_literal", counted(P._literal))
        monkeypatch.setattr(P, "progress_bdf", counted(P.progress_bdf, False))
        monkeypatch.setattr(P, "step", one_step)
        monkeypatch.setattr(P.Automaton, "step", counted_miss)
        for p in self._corpus(problem):
            solve(p)
        assert total[0] > 1000 and misses[0] > 100 and reread[0] > 0


def _chain_progress_bdf(phi, ctx):
    """progress_bdf as a chain of isinstance tests, the reference for its
    dispatch table."""
    if isinstance(phi, (F.TrueC, F.FalseC)):
        return phi
    if isinstance(phi, F.LitF):
        return F.const(ctx.trace.final_state.holds(phi.lit))
    if isinstance(phi, F.Final):
        return (F.const(ctx.trace.final_state.holds(phi.lit)) if ctx.terminal
                else phi)
    if isinstance(phi, (F.Occ, F.Apply)):
        if ctx.terminal:
            return F.FALSE
        if phi.ref.kind == "op":
            return F.OccNext(phi.ref)
        return F.mk_and([F.OccNext(phi.ref),
                         F.Eventually(F.Terminated(phi.ref))])
    if isinstance(phi, F.OccNext):
        return F.const(ctx.trace.event is not None
                       and semantics.event_matches(ctx.trace.event, phi.ref))
    if isinstance(phi, F.Terminated):
        return F.const(semantics.terminated_at(ctx.trace, phi.ref))
    if isinstance(phi, F.Window):
        return F.const(semantics.window_open(ctx.trace, phi.t1, phi.t2))
    if isinstance(phi, F.Not):
        inner = _chain_progress_bdf(phi.sub, ctx)
        if isinstance(inner, F.TrueC):
            return F.FALSE
        if isinstance(inner, F.FalseC):
            return F.TRUE
        return F.Not(inner)
    if isinstance(phi, F.And):
        return F.mk_and([_chain_progress_bdf(p, ctx) for p in phi.parts])
    if isinstance(phi, F.Or):
        return F.mk_or([_chain_progress_bdf(p, ctx) for p in phi.parts])
    if isinstance(phi, F.Next):
        return F.FALSE if ctx.terminal else phi.sub
    if isinstance(phi, F.Always):
        now = _chain_progress_bdf(phi.sub, ctx)
        return now if ctx.terminal else F.mk_and([now, phi])
    if isinstance(phi, F.Eventually):
        now = _chain_progress_bdf(phi.sub, ctx)
        return now if ctx.terminal else F.mk_or([now, phi])
    if isinstance(phi, F.Until):
        goal_now = _chain_progress_bdf(phi.goal, ctx)
        if ctx.terminal:
            return goal_now
        hold_now = _chain_progress_bdf(phi.hold, ctx)
        return F.mk_or([goal_now, F.mk_and([hold_now, phi])])
    if isinstance(phi, (F.Exists, F.Forall)):
        raise UnboundVariable("quantifiers must be grounded")
    raise TypeError(f"cannot progress {phi!r}")


_OP = F.Ref("op", "book-train")
_TASK = F.Ref("task", "arrange-trans")
_LIT = Literal(Atom("paid", ()), True)
_HELD, _OPEN = F.LitF(_LIT), F.Occ(_TASK)
# one or more formulas of each class of the BDF union
_ONE_OF_EACH = [
    F.TRUE, F.FALSE, F.TrueC(), _HELD, F.Final(_LIT), F.Occ(_OP), _OPEN,
    F.Apply(F.Ref("method", "by-train-trans")), F.Before(_OP, _TASK),
    F.HoldBefore(_OP, _LIT), F.HoldAfter(_TASK, _LIT),
    F.HoldBetween(_OP, _LIT, _TASK), F.Not(_HELD), F.Not(_OPEN),
    F.And((_HELD, _OPEN)), F.Or((_HELD, _OPEN)), F.Exists("?y", _HELD),
    F.Forall("?y", _HELD), F.Next(_HELD), F.Always(_HELD),
    F.Eventually(_OPEN), F.Until(_OPEN, _HELD), F.Until(_HELD, _OPEN),
    F.OccNext(_OP), F.OccNext(_TASK), F.Terminated(_TASK),
    F.Window(_OP, _TASK),
]


def _outcome(progress, phi, ctx):
    try:
        return progress(phi, ctx)
    except Exception as exc:  # the class of what it raises
        return type(exc)


def test_dispatch_table_equals_the_chain(mini_trace):
    assert {type(phi) for phi in _ONE_OF_EACH} == set(typing.get_args(F.BDF))
    # every step of the mini trace, terminal and not: no event, start, end
    # and operator events, and states before and after paid holds and
    # arrange-trans terminates
    contexts = [P.StepContext(cell, terminal) for cell in mini_trace.cells
                for terminal in (False, True)]
    outcomes = set()
    for phi in _ONE_OF_EACH:
        for ctx in contexts:
            out = _outcome(P.progress_bdf, phi, ctx)
            assert out == _outcome(_chain_progress_bdf, phi, ctx), (phi, ctx)
            outcomes.add(out if isinstance(out, type) else type(out))
    assert {UnboundVariable, TypeError, F.TrueC, F.FalseC, F.OccNext,
            F.Or, F.And} <= outcomes
