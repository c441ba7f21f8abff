"""Progression rules, monitors, and the optimistic/pessimistic bounds."""

from fractions import Fraction

import pytest

from conftest import fixture_ids, load_fixture

import prefhtn.formulas as F
import prefhtn.progression as P
from prefhtn.oracle import EnumerationCaps, cross_check, enumerate_all
from prefhtn.parser import parse_preference
from prefhtn.progression import Bounds, progress_trace
from prefhtn.randgen import GenConfig, gen_instance
from prefhtn.semantics import weight_gpf


def replay_pref(text, domain, trace):
    gpf = parse_preference(text, domain)
    universe = ("train", "ticket")
    return progress_trace(gpf, trace, universe)


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


class TestMonitors:
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
        # negated monitors resolve to the opposite constant
        ("(not (before (!pay) (!book-train)))", 0),
        ("(not (hold-before (!pay) (has-ticket)))", 1),
    ])
    def test_monitor_weights(self, mini_domain, mini_trace, text, expected):
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
        # nnf turns a negated next into last-or-next, and Last must hold
        # exactly at the final index
        "(not (next (paid)))",
        "(always (not (next (paid))))",
        # a method application is observed through its start event
        "(eventually (apply (by-train-trans)))",
        "(not (apply (by-car-trans)))",
    ])
    def test_monitors_match_direct_semantics(self, mini_domain, mini_trace,
                                             text):
        gpf = parse_preference(text, mini_domain)
        universe = ("train",)
        weight, _ = progress_trace(gpf, mini_trace, universe)
        assert weight == weight_gpf(mini_trace, gpf, universe)


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
        oracle = enumerate_all(problem, keep_traces=True)
        assert oracle.best_weight == Fraction(2, 5)
        universe = problem.constants
        for trace in oracle.traces:
            weight, bnds = progress_trace(problem.preference, trace, universe)
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
            gpf = problem.preference if problem.preference is not None \
                else F.bdf_gpf(F.TRUE)
            root = P.init_progressed(gpf, problem.constants)
            oracle = enumerate_all(problem, keep_traces=True)
            for trace in oracle.traces:
                pf, plain = root, root.residuals
                n = len(trace.events)
                for i, state in enumerate(trace.states):
                    ctx = P.StepContext(trace.events[i - 1] if i else None,
                                        state, i == n)
                    pf = P.step(pf, ctx)
                    plain = tuple(P.progress_bdf(r, ctx) for r in plain)
                    assert pf.residuals == plain
                    assert P.bounds(pf) == _plain_bounds(pf.skeleton, plain)
                    steps += 1
        assert steps > 10_000
