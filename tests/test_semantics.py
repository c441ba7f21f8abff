"""Direct trace evaluation: BDF satisfaction and APF/GPF weights."""

from fractions import Fraction

import pytest

from prefhtn import formulas as F
from prefhtn.model import Atom, Literal
from prefhtn.parser import parse_preference
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
        expanded = F.expand_gpf(gpf, universe)
        assert weight_gpf(mini_trace, gpf, universe) \
            == weight_gpf(mini_trace, expanded, universe)

    def test_forall_equals_and_expansion(self, mini_domain, mini_trace):
        dom = mini_domain
        gpf = parse_preference("(forall (?x) (eventually (paid)))", dom)
        universe = ("a", "b")
        assert weight_gpf(mini_trace, gpf, universe) \
            == weight_gpf(mini_trace, F.expand_gpf(gpf, universe), universe)


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
        # constituent vectors: mini_trace (0.4, 0) vs other (0.4, 0.3)
        shared = F.Atomic(F.APF(((F.FALSE, ZERO), (F.TRUE, Fraction(2, 5)))))
        split = F.Atomic(F.APF((
            (F.Eventually(occ_op("book-train")), ZERO),
            (F.TRUE, Fraction(3, 10)))))
        gpf = F.Conj((shared, split))
        assert compare_plans(mini_trace, other, gpf) == 0
        assert compare_plans(mini_trace, other, gpf, lex_tiebreak=True) == -1
