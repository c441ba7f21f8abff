"""Domain/problem/preference grammar, validation errors, and round-trips."""

import random
from fractions import Fraction

import pytest

from prefhtn import formulas as F
from prefhtn.errors import (ArityMismatch, BadValueOrder, DuplicateName,
                            NonGroundInit, ParseError, UnknownMethodName,
                            UnknownPredicate, UnknownTask)
from prefhtn.parser import (parse_domain, parse_preference, parse_problem,
                            print_domain, print_preference, print_problem)
from tests.conftest import FIXTURES, MINI_DOMAIN


class TestParseDomain:
    def test_single_operator(self):
        dom = parse_domain(
            "(domain travel (:operator (!book-train ?t)"
            " :pre ((avail ?t)) :del ((avail ?t)) :add ((has-ticket ?t))))")
        assert set(dom.operators) == {"book-train"}
        assert dom.operators["book-train"].params == ("?t",)

    def test_method_with_ordered_subtasks(self):
        dom = parse_domain(
            "(domain d (:operator (!book-flight ?f) :pre () :del () :add ())"
            " (:operator (!pay ?c) :pre () :del () :add ())"
            " (:method (arrange-trans ?f ?c) :name by-flight :pre ()"
            "  :tasks ((!book-flight ?f) (!pay ?c))))")
        (m,) = dom.methods
        assert [t.name for t in m.subtasks] == ["book-flight", "pay"]
        assert all(t.primitive for t in m.subtasks)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_domain("(domain d (:operator (!a)")

    def test_duplicate_operator_name(self):
        with pytest.raises(DuplicateName):
            parse_domain("(domain d"
                         " (:operator (!a) :pre () :del () :add ())"
                         " (:operator (!a) :pre () :del () :add ()))")

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse_domain("(domain d (:operator (!a)"
                         " :pre ((p x) (p x y)) :del () :add ()))")

    def test_unbound_negative_precondition_rejected(self):
        # ?x appears only under not, so nothing can bind it
        with pytest.raises(ParseError) as exc:
            parse_domain(
                "(domain d (:operator (!go ?x) :pre () :del () :add ((at ?x)))"
                " (:method (t) :name m :pre ((not (at ?x)))"
                "  :tasks ((!go ?x))))")
        assert exc.value.token == "?x"
        assert "negative precondition" in str(exc.value)

    def test_negative_precondition_bound_by_head_or_positive(self):
        dom = parse_domain(
            "(domain d (:operator (!go ?x) :pre () :del () :add ((at ?x)))"
            " (:method (t ?y) :name m :pre ((place ?x) (not (at ?x))"
            "  (not (at ?y))) :tasks ((!go ?x))))")
        (m,) = dom.methods
        assert [l.positive for l in m.pre] == [True, False, False]

    def test_unknown_subtask(self):
        with pytest.raises(UnknownTask):
            parse_domain("(domain d (:operator (!a) :pre () :del () :add ())"
                         " (:method (t) :name m :pre () :tasks ((ghost))))")


class TestParseProblem:
    def test_minimal(self, mini_domain):
        prob = parse_problem("(problem p :init ((paid)) :tasks"
                             " ((arrange-trans)))", mini_domain)
        assert len(prob.network) == 1
        assert not prob.network[0].primitive

    def test_unknown_task(self, mini_domain):
        with pytest.raises(UnknownTask):
            parse_problem("(problem p :init () :tasks ((ghost)))",
                          mini_domain)

    def test_nonground_init(self, mini_domain):
        with pytest.raises(NonGroundInit):
            parse_problem("(problem p :init ((paid ?x)) :tasks ())",
                          mini_domain)

    def test_unknown_init_predicate(self, mini_domain):
        with pytest.raises(UnknownPredicate):
            parse_problem("(problem p :init ((ghost)) :tasks ())",
                          mini_domain)


class TestParsePreference:
    def test_quantified_bdf(self):
        dom = parse_domain(
            "(domain d (:operator (!book-car ?c ?agency)"
            " :pre ((car ?c)) :del () :add ()))")
        gpf = parse_preference(
            "(exists (?c) (eventually (occ (!book-car ?c enterprise))))", dom)
        assert isinstance(gpf, F.Atomic)
        body = gpf.apf.alts[0][0]
        assert isinstance(body, F.Exists)

    def test_apf_values(self, mini_domain):
        gpf = parse_preference(
            "(>> ((eventually (occ (!book-train))) 0)"
            "    ((eventually (occ (!book-car))) 0.4))", mini_domain)
        assert [v for _, v in gpf.apf.alts] == [Fraction(0), Fraction(2, 5)]

    def test_bad_value_order(self, mini_domain):
        with pytest.raises(BadValueOrder):
            parse_preference("(>> ((paid) 0.4) ((has-car) 0.2))", mini_domain)

    def test_first_value_must_be_zero(self, mini_domain):
        with pytest.raises(BadValueOrder):
            parse_preference("(>> ((paid) 0.1) ((has-car) 0.2))", mini_domain)

    def test_apply_unknown_branch(self, mini_domain):
        with pytest.raises(UnknownMethodName):
            parse_preference("(eventually (apply (ghost)))", mini_domain)

    def test_conditional_and_aggregates(self, mini_domain):
        gpf = parse_preference(
            "(&! (if (paid) (final (has-ticket))) (|! (paid) (has-car)))",
            mini_domain)
        assert isinstance(gpf, F.Conj)
        assert isinstance(gpf.parts[0], F.Cond)
        assert isinstance(gpf.parts[1], F.Disj)

    def test_unbound_variable_rejected(self, mini_domain):
        with pytest.raises(ParseError):
            parse_preference("(final (paid ?x))", parse_domain(
                "(domain d (:operator (!a ?x) :pre ((paid ?x))"
                " :del () :add ()))"))


LEAF_DOMAIN = """
(domain d
  (:operator (!go ?x) :pre () :del () :add ((at ?x)))
  (:method (trip ?x) :name by-go :pre () :tasks ((!go ?x))))
"""

# One case per leaf kind and argument slot; {} is where the tested term goes.
LEAF_CASES = [
    ("literal", "(at {})"),
    ("final", "(final (at {}))"),
    ("occ", "(eventually (occ (!go {})))"),
    ("apply", "(eventually (apply (by-go {})))"),
    ("before-t1", "(before (trip {}) (!go))"),
    ("before-t2", "(before (trip) (!go {}))"),
    ("hold-before-t", "(hold-before (!go {}) (at a))"),
    ("hold-before-lit", "(hold-before (!go) (at {}))"),
    ("hold-after-t", "(hold-after (trip {}) (at a))"),
    ("hold-after-lit", "(hold-after (trip) (at {}))"),
    ("hold-between-t1", "(hold-between (!go {}) (at a) (trip))"),
    ("hold-between-lit", "(hold-between (!go) (at {}) (trip))"),
    ("hold-between-t2", "(hold-between (!go) (at a) (trip {}))"),
]


class TestLeafKinds:
    @pytest.mark.parametrize("template", [t for _, t in LEAF_CASES],
                             ids=[k for k, _ in LEAF_CASES])
    def test_unbound_variable_rejected(self, template):
        dom = parse_domain(LEAF_DOMAIN)
        parse_preference(f"(forall (?x) {template.format('?x')})", dom)
        with pytest.raises(ParseError):
            parse_preference(template.format("?x"), dom)

    @pytest.mark.parametrize("template", [t for _, t in LEAF_CASES],
                             ids=[k for k, _ in LEAF_CASES])
    def test_constant_reaches_universe(self, template):
        dom = parse_domain(LEAF_DOMAIN)
        prob = parse_problem("(problem p :init () :tasks ((trip home)))", dom)
        prob.preference = parse_preference(template.format("zz"), dom)
        assert "zz" in prob.constants


class TestRoundTrip:
    def test_mini_domain(self, mini_domain):
        assert parse_domain(print_domain(mini_domain)) == mini_domain

    @pytest.mark.parametrize("suite", ["travel", "zeno", "logistics"])
    def test_fixture_files(self, suite):
        root = FIXTURES / suite
        dom = parse_domain((root / f"{suite}.htn").read_bytes())
        assert parse_domain(print_domain(dom)) == dom
        for prob_file in sorted(root.glob("*.prob")):
            prob = parse_problem(prob_file.read_bytes(), dom)
            again = parse_problem(print_problem(prob), dom)
            assert again.init == prob.init and again.network == prob.network
        for pref_file in sorted(root.glob("*.pref")):
            gpf = parse_preference(pref_file.read_bytes(), dom)
            assert parse_preference(print_preference(gpf), dom) == gpf


FUZZ_ALPHABET = "()!?;:>&|. \n\t01249abcdefz-"


def test_fuzz_only_structured_parse_errors(mini_domain):
    rng = random.Random(20260826)
    for _ in range(1000):
        n = rng.randint(0, 60)
        if rng.random() < 0.2:
            text = bytes(rng.randrange(256) for _ in range(n))
        else:
            text = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(n))
        for fn in (lambda t: parse_domain(t, "<fuzz>"),
                   lambda t: parse_problem(t, mini_domain, "<fuzz>"),
                   lambda t: parse_preference(t, mini_domain, "<fuzz>")):
            try:
                fn(text)
            except ParseError as exc:
                assert exc.line >= 1 and exc.col >= 1
