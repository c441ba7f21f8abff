"""Direct trace evaluation: BDF satisfaction and APF/GPF weights."""

from fractions import Fraction

import pytest

from conftest import FIXTURES, fixture_ids, load_fixture

from prefhtn import formulas as F
from prefhtn import semantics
from prefhtn.errors import UnboundVariable
from prefhtn.model import (Atom, EndEvent, Inst, Literal, OperatorEvent,
                           State, StartEvent, replay)
from prefhtn.oracle import EnumerationCaps, cross_check, enumerate_all
from prefhtn.parser import (BDF_FORMS, parse_domain, parse_preference,
                            parse_problem)
from prefhtn.randgen import GenConfig, gen_instance
from prefhtn.semantics import (compare_plans, satisfies_bdf, weight_apf,
                               weight_bdf, weight_gpf)

ZERO, ONE = Fraction(0), Fraction(1)


def lit(pred, *args, positive=True):
    return Literal(Atom(pred, tuple(args)), positive)


def occ_op(name, *args):
    return F.Occ(F.Ref("op", name, tuple(args)))


def occ_task(name, *args):
    return F.Occ(F.Ref("task", name, tuple(args)))


class TestSatisfiesBDF:
    def test_eventually_occ_of_present_operator(self, mini_trace):
        phi = F.Eventually(occ_op("book-train"))
        assert satisfies_bdf(mini_trace, 0, phi)

    def test_before_with_absent_second_task(self, mini_trace):
        phi = F.Before(F.Ref("task", "arrange-trans", ()),
                       F.Ref("task", "arrange-acc", ()))
        assert not satisfies_bdf(mini_trace, 0, phi)

    def test_always_true_constant(self, mini_trace):
        assert satisfies_bdf(mini_trace, 0, F.Always(F.TRUE))

    def test_occ_means_occurs_next(self, mini_trace):
        # the first event is the task start, not the booking operator
        assert not satisfies_bdf(mini_trace, 0, occ_op("book-train"))
        assert satisfies_bdf(mini_trace, 2, occ_op("book-train"))

    def test_occ_of_task_matches_start_event(self, mini_trace):
        assert satisfies_bdf(mini_trace, 0, occ_task("arrange-trans"))

    def test_apply_matches_method_start(self, mini_trace):
        phi = F.Apply(F.Ref("method", "by-train-trans", ()))
        assert satisfies_bdf(mini_trace, 1, phi)
        assert not satisfies_bdf(mini_trace, 0, phi)

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_an_index_outside_the_trace_is_refused(self, mini_trace, offset):
        # -1 and n + 1; a plain assert would answer False under python -O
        i = -1 if offset < 0 else mini_trace.length + 1
        with pytest.raises(ValueError, match=f"{i} is outside 0..6"):
            satisfies_bdf(mini_trace, i, F.TRUE)

    def test_next_false_at_last_index(self, mini_trace):
        last = len(mini_trace.events)
        assert not satisfies_bdf(mini_trace, last, F.Next(F.TRUE))

    def test_final_reads_last_state(self, mini_trace):
        assert satisfies_bdf(mini_trace, 0, F.Final(lit("paid")))
        assert not satisfies_bdf(mini_trace, 0, F.Final(lit("has-car")))

    def test_hold_before(self, mini_trace):
        # "paid" is false right up to the pay event, true afterwards
        assert not satisfies_bdf(
            mini_trace, 0, F.HoldBefore(F.Ref("op", "pay", ()), lit("paid")))
        assert satisfies_bdf(
            mini_trace, 0,
            F.HoldBefore(F.Ref("op", "pay", ()), lit("has-ticket")))

    def test_hold_after(self, mini_trace):
        assert satisfies_bdf(
            mini_trace, 0,
            F.HoldAfter(F.Ref("task", "arrange-trans", ()), lit("paid")))

    def test_until(self, mini_trace):
        phi = F.Until(F.LitF(lit("paid", positive=False)), F.LitF(lit("paid")))
        assert satisfies_bdf(mini_trace, 0, phi)

    def test_hold_between_needs_the_literal_at_the_event(self, mini_trace):
        # the window after book-train opens at state 3, where pay occurs:
        # has-ticket holds there, paid only after pay
        t1, t2 = F.Ref("op", "book-train", ()), F.Ref("op", "pay", ())
        assert satisfies_bdf(mini_trace, 0,
                             F.HoldBetween(t1, lit("has-ticket"), t2))
        assert not satisfies_bdf(mini_trace, 0,
                                 F.HoldBetween(t1, lit("paid"), t2))

    def test_terminated_is_read_from_every_cell(self, mini_domain):
        acc = Inst("task", "arrange-acc", (), 1)
        task = Inst("task", "arrange-trans", (), 4)
        trace = replay(State(frozenset()),
                       [OperatorEvent("pay", (), 0), StartEvent(acc),
                        StartEvent(Inst("method", "by-hotel", (), 2)),
                        EndEvent(acc), StartEvent(task),
                        OperatorEvent("book-train", (), 5)],
                       mini_domain)
        for ref in [F.Ref("op", "pay", ()), F.Ref("task", "arrange-acc", ()),
                    F.Ref("op", "book-train", ()),
                    F.Ref("task", "arrange-trans", ())]:
            assert [satisfies_bdf(trace, i, F.Terminated(ref))
                    for i in range(trace.length + 1)] == \
                [semantics.terminated_at(c, ref) for c in trace.cells]


class TestWeightBDF:
    def test_satisfied_is_zero(self, mini_trace):
        assert weight_bdf(mini_trace, F.Eventually(occ_op("pay"))) == ZERO

    def test_falsified_is_one(self, mini_trace):
        assert weight_bdf(mini_trace, F.Eventually(occ_op("book-car"))) == ONE

    def test_false_constant_is_one(self, mini_trace):
        assert weight_bdf(mini_trace, F.FALSE) == ONE


class TestWeightAPF:
    def apf(self, phi0, phi1):
        return F.APF(((phi0, ZERO), (phi1, Fraction(2, 5))))

    def test_second_alternative_only(self, mini_trace):
        apf = self.apf(F.Eventually(occ_op("book-car")),
                       F.Eventually(occ_op("book-train")))
        assert weight_apf(mini_trace, apf) == Fraction(2, 5)

    def test_min_index_wins(self, mini_trace):
        apf = self.apf(F.Eventually(occ_op("book-train")),
                       F.Eventually(occ_op("pay")))
        assert weight_apf(mini_trace, apf) == ZERO

    def test_none_satisfied(self, mini_trace):
        apf = self.apf(F.Eventually(occ_op("book-car")), F.FALSE)
        assert weight_apf(mini_trace, apf) == ONE


class TestWeightGPF:
    def test_conditional_unmet_condition_is_zero(self, mini_trace):
        gpf = F.Cond(F.Eventually(occ_op("book-car")), F.bdf_gpf(F.FALSE))
        assert weight_gpf(mini_trace, gpf) == ZERO

    def test_conditional_met_condition_scores_body(self, mini_trace):
        gpf = F.Cond(F.Eventually(occ_op("book-train")), F.bdf_gpf(F.FALSE))
        assert weight_gpf(mini_trace, gpf) == ONE

    def test_general_conjunction_is_max(self, mini_trace):
        gpf = F.Conj((F.bdf_gpf(F.TRUE),
                      F.Atomic(F.APF(((F.FALSE, ZERO),
                                      (F.TRUE, Fraction(2, 5)))))))
        assert weight_gpf(mini_trace, gpf) == Fraction(2, 5)

    def test_general_disjunction_is_min(self, mini_trace):
        gpf = F.Disj((F.Atomic(F.APF(((F.FALSE, ZERO),
                                      (F.TRUE, Fraction(3, 10))))),
                      F.bdf_gpf(F.FALSE)))
        assert weight_gpf(mini_trace, gpf) == Fraction(3, 10)

    def test_monotone_substitution(self, mini_trace):
        # replacing a conjunct with one of smaller weight never raises
        # the conjunction's weight (and dually for disjunction)
        small = F.bdf_gpf(F.TRUE)                       # weight 0
        large = F.bdf_gpf(F.FALSE)                      # weight 1
        other = F.Atomic(F.APF(((F.FALSE, ZERO), (F.TRUE, Fraction(1, 2)))))
        assert weight_gpf(mini_trace, F.Conj((small, other))) \
            <= weight_gpf(mini_trace, F.Conj((large, other)))
        assert weight_gpf(mini_trace, F.Disj((small, other))) \
            <= weight_gpf(mini_trace, F.Disj((large, other)))


class TestQuantifiers:
    def test_exists_equals_or_expansion(self, mini_domain, mini_trace):
        universe = ("train", "ticket")
        gpf = parse_preference(
            "(exists (?x) (final (has-ticket)))", mini_domain)
        expanded = F.map_gpf(gpf, lambda b: F.ground(b, universe))
        assert weight_gpf(mini_trace, gpf, universe) \
            == weight_gpf(mini_trace, expanded, universe)

    def test_forall_equals_and_expansion(self, mini_domain, mini_trace):
        dom = mini_domain
        gpf = parse_preference("(forall (?x) (eventually (paid)))", dom)
        universe = ("a", "b")
        expanded = F.map_gpf(gpf, lambda b: F.ground(b, universe))
        assert weight_gpf(mini_trace, gpf, universe) \
            == weight_gpf(mini_trace, expanded, universe)


class TestComparePlans:
    def test_direct_weight_comparison(self, mini_trace, mini_domain):
        good = F.bdf_gpf(F.Eventually(occ_op("book-train")))
        # compare the same trace under two lenses by swapping preference:
        # here compare two traces under one preference instead
        from prefhtn.model import replay, OperatorEvent, State
        other = replay(State(frozenset()),
                       [OperatorEvent("book-car", (), 0)], mini_domain)
        assert compare_plans(mini_trace, other, good) == -1
        assert compare_plans(other, mini_trace, good) == 1

    def test_equal_weights_indistinguishable(self, mini_trace):
        assert compare_plans(mini_trace, mini_trace, F.bdf_gpf(F.TRUE)) == 0

    def test_lexicographic_tiebreak(self, mini_trace, mini_domain):
        from prefhtn.model import replay, OperatorEvent, State
        other = replay(State(frozenset()),
                       [OperatorEvent("book-car", (), 0)], mini_domain)
        # constituent weights: mini_trace (0.4, 0) vs other (0.4, 0.3)
        shared = F.Atomic(F.APF(((F.FALSE, ZERO), (F.TRUE, Fraction(2, 5)))))
        split = F.Atomic(F.APF((
            (F.Eventually(occ_op("book-train")), ZERO),
            (F.TRUE, Fraction(3, 10)))))
        gpf = F.Conj((shared, split))
        assert compare_plans(mini_trace, other, gpf) == 0


class TestDirectRules:
    def test_every_parsed_node_class_has_a_rule(self):
        parsed = {cls for cls, _ in BDF_FORMS.values()}
        parsed |= {F.TrueC, F.FalseC, F.LitF, F.And, F.Or, F.Exists,
                   F.Forall}
        assert parsed <= set(semantics._RULES)

    @pytest.mark.parametrize("phi", [
        F.Window(F.Ref("task", "arrange-trans", ()), F.Ref("op", "pay", ())),
        F.OccNext(F.Ref("op", "pay", ())),
    ])
    def test_progression_nodes_have_no_rule(self, mini_trace, phi):
        with pytest.raises(UnboundVariable):
            satisfies_bdf(mini_trace, 0, phi)

    def test_mutated_direct_rule_is_caught(self, monkeypatch):
        # negative control on the direct side: travel-2 ranks plans by
        # eventually(occ ...); scoring eventually as always must make the
        # enumerated weights disagree with progression
        monkeypatch.setitem(semantics._RULES, F.Eventually,
                            semantics._RULES[F.Always])
        report = cross_check(load_fixture("travel", 2),
                             EnumerationCaps(max_seconds=60.0))
        assert not report.checks["progression-direct"]


# A two-package logistics problem in which the plane flies pkg1 from
# airport1 to airport2, so every plan has one fly event.
FLY_PROBLEM = """
(problem fly-2
  :init ((truck t1) (vehicle t1) (truck t2) (vehicle t2) (plane a1)
         (vehicle a1) (veh-at t1 depot) (veh-at t2 airport1)
         (veh-at a1 airport1) (road depot office) (road office depot)
         (road depot dock) (road dock depot) (road office dock)
         (road dock office) (road depot airport1) (road airport1 depot)
         (road office airport1) (road airport1 office)
         (air airport1 airport2) (air airport2 airport1)
         (at pkg1 airport1) (at pkg2 office))
  :tasks ((deliver pkg1 airport2) (deliver pkg2 depot)))
"""


def enumerated(problem):
    return enumerate_all(problem, EnumerationCaps(max_seconds=60.0)).traces


class TestLabelCost:
    def test_nested_formula_matches_each_event_of_its_name_once(
            self, monkeypatch):
        # re-walking every suffix from every index made 661 event_matches
        # calls on the 31-event trace here; one label per sub-formula makes
        # one call per event named fly
        dom = parse_domain((FIXTURES / "logistics" / "logistics.htn")
                           .read_bytes())
        traces = enumerated(parse_problem(FLY_PROBLEM, dom))
        phi = parse_preference(
            "(always (eventually (always (not (occ (!fly))))))", dom)
        calls = []
        matches = semantics.event_matches
        monkeypatch.setattr(semantics, "event_matches",
                            lambda e, ref: calls.append(e) or matches(e, ref))
        for trace in traces:
            flies = [e for e in trace.events
                     if semantics.event_key(e)[0] == ("op", "fly")]
            assert flies
            calls.clear()
            assert semantics.weight_gpf(trace, phi) == ZERO
            assert len(calls) <= len(flies)
            assert set(map(id, calls)) <= set(map(id, flies))


def traces_under_test():
    """(trace, preference, universe) for every enumerated trace of the
    fixtures and of randgen seeds 0-49."""
    problems = [load_fixture(suite, k) for suite, k in fixture_ids()]
    problems += [gen_instance(GenConfig(seed=seed))[0] for seed in range(50)]
    for problem in problems:
        for trace in enumerated(problem):
            yield trace, problem.preference, problem.constants


def subformulas(phi, out):
    out.setdefault(phi, None)
    for p in F.children(phi):
        subformulas(p, out)
    return out


def by_definition(phi, trace, sat):
    """phi's truth at every index, from its definition as a quantification
    over indices of sat(psi), the truth vector of a sub-formula psi."""
    last = trace.length
    idx = range(last + 1)
    if isinstance(phi, F.Always):
        p = sat(phi.sub)
        return [all(p[j] for j in range(i, last + 1)) for i in idx]
    if isinstance(phi, F.Eventually):
        p = sat(phi.sub)
        return [any(p[j] for j in range(i, last + 1)) for i in idx]
    if isinstance(phi, F.Next):
        p = sat(phi.sub)
        return [i < last and p[i + 1] for i in idx]
    if isinstance(phi, F.Until):
        h, g = sat(phi.hold), sat(phi.goal)
        return [any(g[j] and all(h[k] for k in range(i, j))
                    for j in range(i, last + 1)) for i in idx]
    if isinstance(phi, F.HoldBefore):
        lit, occ = sat(F.LitF(phi.lit)), sat(F.Occ(phi.t))
        return [any(lit[s] and occ[s] for s in range(i, last)) for i in idx]
    if isinstance(phi, F.HoldAfter):
        lit, term = sat(F.LitF(phi.lit)), sat(F.Terminated(phi.t))
        return [any(term[s] and lit[s] for s in range(i, last + 1))
                for i in idx]
    # before, and hold-between with its literal held from s1 through s2
    lit = ([True] * (last + 1) if isinstance(phi, F.Before)
           else sat(F.LitF(phi.lit)))
    occ2 = sat(F.Occ(phi.t2))
    opened = [semantics.window_open(c, phi.t1, phi.t2) for c in trace.cells]
    return [any(opened[s1] and any(occ2[s2] and all(lit[k] for k in
                                                    range(s1, s2 + 1))
                                   for s2 in range(s1, last))
                for s1 in range(i, last + 1)) for i in idx]


TEMPORAL = (F.Always, F.Eventually, F.Next, F.Until, F.Before, F.HoldBefore,
            F.HoldAfter, F.HoldBetween)


class TestLabelsAtEveryIndex:
    def test_temporal_and_window_rules_match_their_definitions(self):
        seen = set()
        for trace, gpf, universe in traces_under_test():
            truth = {}

            def sat(psi):
                if psi not in truth:
                    truth[psi] = [satisfies_bdf(trace, i, psi, universe)
                                  for i in range(trace.length + 1)]
                return truth[psi]

            subs = {}
            for b in F.gpf_bdfs(gpf):
                subformulas(b, subs)
            for phi in subs:
                if isinstance(phi, TEMPORAL):
                    seen.add(type(phi))
                    assert sat(phi) == by_definition(phi, trace, sat), phi
        assert seen == set(TEMPORAL)

    def test_quantifiers_build_no_formula(self, monkeypatch):
        problem = load_fixture("logistics", 2)
        gpf = parse_preference(
            "(&! (>> ((forall (?p) (always (not (occ (!load ?p t2))))) 0)"
            "        ((exists (?p) (final (at ?p office))) 1/2))"
            "    (exists (?v) (hold-after (!unload pkg1 ?v)"
            "                             (veh-at ?v office))))",
            problem.domain)
        universe = problem.constants
        traces = enumerated(problem)
        expanded = F.map_gpf(gpf, lambda b: F.ground(b, universe))
        expected = [weight_gpf(t, expanded, universe) for t in traces]
        assert len(set(expected)) > 1

        def refuse(*args):
            raise AssertionError("ground called while evaluating")

        monkeypatch.setattr(F, "ground", refuse)
        assert [weight_gpf(t, gpf, universe) for t in traces] == expected


# (!a ?x ?y) and (!b ?x) change nothing; (!mark ?x) adds (marked ?x).
SYMMETRY_DOMAIN = """(domain sym
  (:operator (!a ?x ?y) :pre () :del () :add ())
  (:operator (!b ?x) :pre () :del () :add ())
  (:operator (!mark ?x) :pre () :del () :add ((marked ?x))))"""


def symmetry_trace(*events):
    """The trace of the operator events, each (name, args...), from an
    empty state."""
    dom = parse_domain(SYMMETRY_DOMAIN)
    return dom, replay(State(frozenset()), [
        OperatorEvent(name, tuple(args), k)
        for k, (name, *args) in enumerate(events)], dom)


class TestQuantifierBindings:
    """A quantifier labels its body under the constants the trace tells
    apart and one more that stands for the rest (semantics._bindings)."""

    UNIVERSE = ("c1", "c2", "c3")

    def bindings(self, trace, dom, text):
        [(phi, _)] = parse_preference(text, dom).apf.alts
        return semantics._bindings(semantics._Labels(trace, self.UNIVERSE),
                                   phi, ())

    @pytest.mark.parametrize("text, told", [
        # c3 is in no (!a ...) event: only its binding keeps a out of the
        # trace, so the representative alone makes the exists true
        ("(exists (?x) (always (not (occ (!a ?x)))))", ("c1", "c2")),
        # a literal: c3 is never marked
        ("(exists (?x) (always (not (marked ?x))))", ("c1", "c2")),
    ])
    def test_the_representative_alone_decides(self, text, told):
        dom, trace = symmetry_trace(("a", "c1", "c2"), ("mark", "c1"),
                                    ("a", "c2", "c1"), ("mark", "c2"))
        assert self.bindings(trace, dom, text) == told + ("c3",)
        gpf = parse_preference(text, dom)
        assert weight_gpf(trace, gpf, self.UNIVERSE) == ZERO
        grounded = F.map_gpf(gpf, lambda b: F.ground(b, self.UNIVERSE))
        assert weight_gpf(trace, grounded, self.UNIVERSE) == ZERO

    def test_an_inner_variable_matches_any_constant(self):
        # with ?y read as any constant, (!a c1 c1) tells c1 apart, and c2,
        # for which no (!a c2 ?y) occurs, makes the forall false; read as
        # a constant, ?y would tell nothing apart and c1 would stand alone
        text = "(forall (?x) (exists (?y) (occ (!a ?x ?y))))"
        dom, trace = symmetry_trace(("a", "c1", "c1"))
        assert self.bindings(trace, dom, text) == ("c1", "c2")
        gpf = parse_preference(text, dom)
        grounded = F.map_gpf(gpf, lambda b: F.ground(b, self.UNIVERSE))
        assert weight_gpf(trace, grounded, self.UNIVERSE) == ONE
        assert weight_gpf(trace, gpf, self.UNIVERSE) == ONE

    def test_a_shadowed_variable_tells_nothing_apart(self):
        dom, trace = symmetry_trace(("b", "c2"))
        text = "(exists (?x) (exists (?x) (eventually (occ (!b ?x)))))"
        assert self.bindings(trace, dom, text) == ("c1",)
        assert weight_gpf(trace, parse_preference(text, dom),
                          self.UNIVERSE) == ZERO

    def test_a_suppressed_argument_is_matched_as_args_match_has_it(self):
        # a shorter ref embeds in the args in order: (!a ?x c2) in
        # (!a c1 c2) only with c1 for ?x, (!a ?x) with either arg
        dom, trace = symmetry_trace(("a", "c1", "c2"), ("a", "c3", "c1"))
        assert semantics._fits((None, "c2"), 0, ("c1", "c2")) == ("c1",)
        assert semantics._fits((None,), 0, ("c3", "c1")) == ("c3", "c1")
        assert semantics._fits(("c3", None, None), 2,
                               ("c3", "c1", "c2")) == ("c2",)
        assert semantics._fits(("c2", None, None), 2,
                               ("c3", "c1", "c2")) == ()
        assert semantics._fits((None, "c1"), 0, ("c2", "c1", "c1")) == (
            "c2", "c1")
        assert self.bindings(
            trace, dom, "(exists (?x) (eventually (occ (!a ?x c2))))") == (
                "c1", "c2")

    def test_a_node_with_no_rule_binds_every_constant(self):
        dom, trace = symmetry_trace(("b", "c1"))
        window = F.Window(F.Ref("op", "b", ("?x",)), F.Ref("op", "a", ()))
        phi = F.Exists("?x", F.Or((window, F.Occ(F.Ref("op", "b", ("?x",))))))
        assert semantics._bindings(semantics._Labels(trace, self.UNIVERSE),
                                   phi, ()) == self.UNIVERSE
