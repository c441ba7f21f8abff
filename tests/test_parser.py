"""Domain/problem/preference grammar, validation errors, and round-trips."""

import random
from fractions import Fraction

import pytest

from prefhtn import cli
from prefhtn import formulas as F
from prefhtn.errors import (ArityMismatch, BadValueOrder, DuplicateName,
                            NonGroundInit, ParseError, UnknownMethodName,
                            UnknownPredicate, UnknownTask)
from prefhtn.parser import (BDF_FORMS, empty_preference, parse_domain,
                            parse_preference, parse_problem, print_bdf,
                            print_domain, print_preference, print_problem)
from prefhtn.randgen import GenConfig, gen_files
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

    def test_carries_the_trivial_preference(self, mini_domain):
        prob = parse_problem("(problem p :init () :tasks ((arrange-trans)))",
                             mini_domain)
        assert prob.preference == empty_preference()

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


BAD_HTN = """\
(domain bad
  (:operator (!a) :pre () :del () :add ())
  (:method (t) :name m1 :pre () :tasks ((!a)))
  (:method (u) :name m2 :pre () :tasks ((!a) (ghost))))
"""

# the first line of a domain whose second line is the form under test
OPS = "(domain d (:operator (!a) :pre () :del () :add ())\n"


class TestErrorLocations:
    """An error about one form reports the line:col of its '('."""

    def test_unknown_subtask_reports_its_method(self, tmp_path, capsys):
        path = tmp_path / "bad.htn"
        path.write_text(BAD_HTN)
        with pytest.raises(UnknownTask) as exc:
            parse_domain(path.read_bytes(), str(path))
        assert (exc.value.line, exc.value.col) == (4, 3)
        assert exc.value.token == "ghost"
        prob = tmp_path / "bad-1.prob"
        prob.write_text("(problem p :init () :tasks ())")
        assert cli.main(["solve", "--domain", str(path), "--problem",
                         str(prob)]) == cli.EXIT_USAGE
        assert f"{path}:4:3: method m2 calls task ghost" in \
            capsys.readouterr().err

    def test_unknown_operator_and_arity_report_their_method(self):
        text = BAD_HTN.replace("(ghost)", "(!ghost)")
        with pytest.raises(UnknownTask) as exc:
            parse_domain(text)
        assert (exc.value.line, exc.value.col) == (4, 3)
        with pytest.raises(ArityMismatch) as exc:
            parse_domain(BAD_HTN.replace("(ghost)", "(!a x)"))
        assert (exc.value.line, exc.value.col) == (4, 3)

    def test_task_arity_reports_its_method(self):
        # (t) is decomposed by m1 at arity 0 only
        with pytest.raises(ArityMismatch) as exc:
            parse_domain(BAD_HTN.replace("(ghost)", "(t x)"))
        assert (exc.value.line, exc.value.col) == (4, 3)
        assert exc.value.token == "t"
        assert "method m2 calls task t with 1 args, its methods take 0" in \
            str(exc.value)

    def test_unknown_task_in_preference_reports_its_list(self, mini_domain,
                                                         tmp_path):
        path = tmp_path / "bad.pref"
        path.write_text("(always\n  (not (occ (ghost))))\n")
        with pytest.raises(UnknownTask) as exc:
            parse_preference(path.read_bytes(), mini_domain, str(path))
        assert (exc.value.file, exc.value.line, exc.value.col) == \
            (str(path), 2, 13)
        assert str(exc.value).startswith(f"{path}:2:13: unknown task ghost")

    def test_unknown_branch_reports_its_list(self, mini_domain):
        with pytest.raises(UnknownMethodName) as exc:
            parse_preference("(eventually\n\n (apply (ghost)))", mini_domain)
        assert (exc.value.line, exc.value.col) == (3, 9)

    def test_unknown_network_task_reports_its_list(self, mini_domain):
        with pytest.raises(UnknownTask) as exc:
            parse_problem("(problem p :init ()\n :tasks ((arrange-trans)"
                          " (ghost)))", mini_domain)
        assert (exc.value.line, exc.value.col) == (2, 26)

    def test_network_task_arity_reports_its_list(self):
        # heads of arity 1 and 2 take (t c1) and (t c1 c2), not (t)
        domain = parse_domain(
            "(domain d (:operator (!a) :pre () :del () :add ())"
            " (:method (t ?x) :name one :pre () :tasks ((!a)))"
            " (:method (t ?x ?y) :name two :pre () :tasks ((!a))))")
        parse_problem("(problem p :init () :tasks ((t c1) (t c1 c2)))",
                      domain)
        with pytest.raises(ArityMismatch) as exc:
            parse_problem("(problem p :init ()\n :tasks ((t c1) (t)))",
                          domain)
        assert (exc.value.line, exc.value.col) == (2, 17)
        assert "the task network calls task t with 0 args, its methods " \
            "take 1 or 2" in str(exc.value)

    # one preference shape error each, on line 2 or later: the text, the
    # line:col of the list it is about, and the start of its message
    @pytest.mark.parametrize("text, line, col, message", [
        ("(and (paid)\n     ())", 2, 6, "empty formula"),
        ("(and (paid)\n  ((paid)))", 2, 3, "formula head must be a symbol"),
        ("(and (paid)\n  (always (paid) (paid)))", 2, 3,
         "expected (always formula)"),
        ("(and (paid)\n\n   (forall (?x)))", 3, 4,
         "expected (forall (?var+) formula)"),
        ("(and (paid)\n  (exists () (paid)))", 2, 3,
         "(exists ...) needs at least one variable"),
        ("(and (paid)\n  (forall (?x y) (paid)))", 2, 3,
         "quantified name 'y' must start with '?'"),
        ("(and (paid)\n  (if (paid) (paid)))", 2, 3,
         "if is a preference connective"),
        ("(>> ((paid) 0)\n    ((paid)))", 2, 5,
         "alternatives are written (formula value)"),
        ("(&! (paid)\n  (>>))", 2, 3, "(>> ...) needs at least one alternative"),
        ("(&! (paid)\n  (if (paid)))", 2, 3, "(if condition preference)"),
        ("(&! (paid)\n  (|! (paid)))", 2, 3,
         "(|! ...) needs at least two preferences"),
    ], ids=["empty", "head", "shape", "quantifier-shape", "no-variable",
            "not-a-variable", "connective", "alternative", "no-alternative",
            "if", "too-few-preferences"])
    def test_preference_shape_error_reports_its_list(self, mini_domain, text,
                                                     line, col, message):
        with pytest.raises(ParseError) as exc:
            parse_preference(text, mini_domain, "p.pref")
        assert (exc.value.line, exc.value.col) == (line, col)
        assert str(exc.value).startswith(f"p.pref:{line}:{col}: {message}")

    # one method error each, in the second method of a domain: the line:col
    # of its (:method ...), the start of its message and its token
    @pytest.mark.parametrize("method, message, token", [
        ("(:method)", ":method needs a head task", None),
        ("(:method (!a) :name m :pre () :tasks ())",
         "method head a must be nonprimitive", "a"),
        ("(:method (t) :pre () :tasks ((!a)))", "method needs :name", None),
        ("(:method (t) :name m :pre () :tasks ((!a)) :before (((p))))",
         ":before entries are (literal index)", None),
        ("(:method (t) :name m :pre () :tasks ((!a)) :before (((p) 1)))",
         ":before index 1 out of range", "1"),
        ("(:method (t) :name m :pre () :tasks ((!a)) :unordered\n"
         "     :before (((p) 0)))",
         ":before cannot be combined with :unordered", None),
        ("(:method (t ?x) :name m :pre ((not (p ?y))) :tasks ((!a)))",
         "variable ?y of negative precondition", "?y"),
        ("(:method (t) :name m :pre () :tasks ((!b ?y)))",
         "subtask variable ?y of method m", "?y"),
        ("(:method (t) :name m :pre () :tasks ((!a)) :before (((p ?y) 0)))",
         ":before variable ?y of method m is unbound", "?y"),
    ], ids=["no-head", "primitive-head", "no-name", "before-entry",
            "before-range", "before-unordered", "negative-precondition",
            "subtask-variable", "before-variable"])
    def test_method_error_reports_its_method(self, method, message, token):
        text = ("(domain d\n  (:operator (!a) :pre () :del () :add ())\n"
                "  (:operator (!b ?v) :pre () :del () :add ())\n"
                "  (:method (t) :name ok :pre () :tasks ((!a)))\n"
                f"\n   {method})")
        with pytest.raises(ParseError) as exc:
            parse_domain(text, "d.htn")
        assert (exc.value.line, exc.value.col) == (6, 4)
        assert str(exc.value).startswith(f"d.htn:6:4: {message}")
        assert exc.value.token == token

    # one operator error each, in the second operator of a two-line domain:
    # the line:col of its (:operator ...), the error class, the start of its
    # message and its token
    @pytest.mark.parametrize("operator, error, message, token", [
        ("(:operator)", ParseError, ":operator needs a head", None),
        ("(:operator (b) :pre () :del () :add ())", ParseError,
         "operator head must be (!name ?v*)", "b"),
        ("(:operator (!) :pre () :del () :add ())", ParseError,
         "empty operator name", "!"),
        ("(:operator (!b x) :pre () :del () :add ())", ParseError,
         "operator parameter 'x' must be a variable", "x"),
        ("(:operator (!b ?x ?x) :pre () :del () :add ())", ParseError,
         "duplicate parameter ?x", "?x"),
        ("(:operator (!b ?x) :pre ((p ?y)) :del () :add ())", ParseError,
         "variable ?y of operator b not in its parameters", "?y"),
        ("(:operator (!a) :pre () :del () :add ())", DuplicateName,
         "duplicate operator a", "a"),
    ], ids=["no-head", "bad-head", "empty-name", "not-a-variable",
            "duplicate-parameter", "unbound-variable", "duplicate-operator"])
    def test_operator_error_reports_its_operator(self, operator, error,
                                                 message, token):
        text = ("(domain d (:operator (!a) :pre () :del () :add ())\n"
                f"  {operator})")
        with pytest.raises(error) as exc:
            parse_domain(text, "d.htn")
        assert (exc.value.line, exc.value.col) == (2, 3)
        assert str(exc.value).startswith(f"d.htn:2:3: {message}")
        assert exc.value.token == token

    def test_bad_value_order_reports_its_list_once(self, mini_domain):
        with pytest.raises(BadValueOrder) as exc:
            parse_preference("(&! (paid)\n  (>> ((occ (!pay)) 1/2)"
                             " ((occ (!pay)) 0)))", mini_domain, "p.pref")
        assert str(exc.value) == \
            "p.pref:2:3: first alternative value must be 0, got 1/2"

    # one validation error each, on line 2: the file kind, the text, the
    # error class, the line:col of the list it reports and its message
    @pytest.mark.parametrize("kind, text, error, line, col, message", [
        ("domain", OPS + "  (:operator (!b) :pre ((p :k)) :del () :add ()))",
         ParseError, 2, 25, "bad term ':k'"),
        ("domain", OPS + "  (:operator (!b) :pre () :del (()) :add ()))",
         ParseError, 2, 33, "empty atom"),
        ("domain", OPS + "  (:operator (!b) :pre () :del () :add ((?p))))",
         ParseError, 2, 41, "bad predicate '?p'"),
        ("domain", OPS + "  (:operator (!b) :pre ((not (p) (q))) :del () :add ()))",
         ParseError, 2, 25, "(not ...) takes one atom"),
        ("domain", OPS + "  (:operator (!b) :pre (p) :del () :add ()))",
         ParseError, 2, 3, "expected a literal, got 'p'"),
        ("domain", OPS + "  (:method (t) :name m :pre () :tasks (())))",
         ParseError, 2, 40, "empty task"),
        ("domain", OPS + "  (:method (t) :name m :pre () :tasks ((!:x))))",
         ParseError, 2, 40, "bad task symbol '!:x'"),
        ("domain", OPS + "  (:method t :name m :pre () :tasks ((!a))))",
         ParseError, 2, 3, "expected a task, got 't'"),
        ("domain", OPS + "  (:operator !b :pre () :del () :add ()))",
         ParseError, 2, 3, "expected an operator head, got '!b'"),
        ("domain", OPS + "  (:operator (!b (?x)) :pre () :del () :add ()))",
         ParseError, 2, 3, "expected a parameter variable, got ['?x']"),
        ("domain", OPS + "  (:operator (!b) pre () :del () :add ()))",
         ParseError, 2, 3, "expected a :keyword, got 'pre'"),
        ("domain", OPS + "  (:operator (!b) :post () :del () :add ()))",
         ParseError, 2, 3, "unknown keyword :post"),
        ("domain", OPS + "  (:operator (!b) :pre () :pre () :add ()))",
         ParseError, 2, 3, "duplicate keyword :pre"),
        ("domain", OPS + "  (:operator (!b) :pre () :del () :add))",
         ParseError, 2, 3, ":add needs a value"),
        ("domain", OPS + "  (:operator (!b ?x) :pre ((p)) :del () :add ((p ?x))))",
         ArityMismatch, 2, 3, "predicate p used with arity 1 and 0"),
        ("domain", OPS + "  ())", ParseError, 2, 3, "empty form in domain"),
        ("domain", OPS + "  (:axiom (p)))", ParseError, 2, 3,
         "expected :operator or :method, got ':axiom'"),
        ("domain", "; header\n(dom d)", ParseError, 2, 1,
         "expected (domain NAME ...)"),
        ("problem", "(problem p\n  :init ((paid) (paid ?x)) :tasks ())",
         NonGroundInit, 2, 17, "init atom (paid ?x) is not ground"),
        ("problem", "(problem p\n  :init ((ghost)) :tasks ())",
         UnknownPredicate, 2, 10, "unknown predicate ghost"),
        ("problem", "(problem p\n  :init ((paid x)) :tasks ())",
         ArityMismatch, 2, 10, "predicate paid expects 0 args, got 1"),
        ("problem", "(problem p :init ()\n  :tasks ((arrange-trans ?x)))",
         ParseError, 2, 11, "initial task arrange-trans is not ground"),
        ("problem", "; header\n(prob p)", ParseError, 2, 1,
         "expected (problem NAME ...)"),
        ("preference", "(and (paid)\n  (not at))", ParseError, 2, 3,
         "expected a formula, got 'at'"),
        ("preference", "(and (paid)\n  (occ ()))", ParseError, 2, 8,
         "empty task reference"),
        ("preference", "(and (paid)\n  (not (ghost)))", UnknownPredicate, 2, 8,
         "unknown predicate ghost"),
        ("preference", "(and (paid)\n  (final (paid x)))", ArityMismatch, 2, 10,
         "predicate paid expects 0 args, got 1"),
        ("preference", "(and (paid)\n  (occ (!pay x y)))", ArityMismatch, 2, 8,
         "reference to pay takes at most 0 args, got 2"),
        ("preference", "(and (paid)\n  (occ (arrange-trans x)))", ArityMismatch,
         2, 8, "reference to arrange-trans takes at most 0 args, got 1"),
        ("preference", "(and (paid)\n  (apply (by-hotel x)))", ArityMismatch,
         2, 10, "reference to by-hotel takes at most 0 args, got 1"),
    ], ids=["bad-term", "empty-atom", "bad-predicate", "not-two-atoms",
            "literal-not-a-list", "empty-task", "bad-task-symbol",
            "method-head-not-a-list", "operator-head-not-a-list",
            "parameter-not-a-symbol", "keyword-expected", "unknown-keyword",
            "duplicate-keyword", "keyword-needs-a-value", "arity-clash",
            "empty-form", "bad-form-head", "domain-header", "nonground-init",
            "unknown-init-predicate", "init-arity", "nonground-task",
            "problem-header", "formula-symbol", "empty-reference",
            "unknown-predicate", "wrong-arity", "operator-reference-arity",
            "task-reference-arity", "method-reference-arity"])
    def test_validation_error_reports_its_list(self, mini_domain, kind, text,
                                               error, line, col, message):
        parse = {"domain": lambda: parse_domain(text, "f"),
                 "problem": lambda: parse_problem(text, mini_domain, "f"),
                 "preference": lambda: parse_preference(text, mini_domain, "f")}
        with pytest.raises(ParseError) as exc:
            parse[kind]()
        assert type(exc.value) is error
        assert (exc.value.file, exc.value.line, exc.value.col) == ("f", line, col)
        assert exc.value.message == message
        assert str(exc.value) == f"f:{line}:{col}: {message}"

    # an unbound variable is reported at the reference or literal list that
    # holds it; a quantifier binds its variables in its own body only
    @pytest.mark.parametrize("text, col", [
        ("(and (at a)\n  (eventually (occ (!go ?x))))", 20),
        ("(and (forall (?x) (occ (!go ?x)))\n  (occ (!go ?x)))", 8),
        ("(forall (?y) (and (at ?y)\n  (hold-after (trip ?y) (at ?x))))", 25),
        ("(exists (?y)\n  (not (at ?x)))", 8),
    ], ids=["reference", "outside-its-quantifier", "literal", "negated"])
    def test_unbound_variable_reports_its_list(self, text, col):
        with pytest.raises(ParseError) as exc:
            parse_preference(text, parse_domain(LEAF_DOMAIN), "f")
        assert str(exc.value) == f"f:2:{col}: unbound variable ?x"
        assert exc.value.token == "?x"


# trip's methods have heads of one and of two arguments
ARITY_DOMAIN = """
(domain d
  (:operator (!go ?x ?y) :pre () :del () :add ())
  (:method (trip ?x) :name short :pre () :tasks ((!go ?x ?x)))
  (:method (trip ?x ?y) :name long :pre () :tasks ((!go ?x ?y))))
"""


class TestReferenceArity:
    # a reference may leave out arguments (args_match) but not give more
    # than its target ever carries; a task's longest head decides
    @pytest.mark.parametrize("ref", [
        "(occ (!go))", "(occ (go a))", "(occ (!go a b))", "(occ (trip))",
        "(occ (trip a b))", "(apply (short))", "(apply (long a b))"])
    def test_fewer_or_as_many_args_parse(self, ref):
        gpf = parse_preference(f"(eventually {ref})",
                               parse_domain(ARITY_DOMAIN))
        assert isinstance(gpf, F.Atomic)

    @pytest.mark.parametrize("ref", ["(occ (trip a b c))",
                                     "(apply (short a b))"])
    def test_more_args_than_the_head_fail(self, ref):
        with pytest.raises(ArityMismatch):
            parse_preference(f"(eventually {ref})", parse_domain(ARITY_DOMAIN))


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

    def test_the_bang_names_the_operator(self):
        # travel has both the operator (!pay ?c) and the task (pay): !name
        # names the operator, a bare name the task a method decomposes,
        # and the operator only where no method does
        domain = parse_domain(
            (FIXTURES / "travel" / "travel.htn").read_bytes())

        def ref(text):
            gpf = parse_preference(f"(eventually (occ {text}))", domain)
            return gpf.apf.alts[0][0].sub.ref

        assert ref("(pay)") == F.Ref("task", "pay", ())
        assert ref("(!pay)") == F.Ref("op", "pay", ())
        assert ref("(!pay visa)") == F.Ref("op", "pay", ("visa",))
        assert ref("(walk)") == ref("(!walk)") == F.Ref("op", "walk", ())
        assert ref("(travel)") == F.Ref("task", "travel", ())
        for text in ("(pay)", "(!pay)"):
            bdf = f"(eventually (occ {text}))"
            assert print_preference(parse_preference(bdf, domain)) == bdf
        with pytest.raises(ArityMismatch):
            ref("(pay visa)")  # the task pay takes no args
        with pytest.raises(UnknownTask, match="unknown operator travel"):
            ref("(!travel)")

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

    def test_false_prints_as_an_empty_or(self, mini_domain):
        assert print_bdf(F.FALSE) == "(or)"
        assert parse_preference("(or)", mini_domain) == F.bdf_gpf(F.FALSE)

    @pytest.mark.parametrize("node", [
        F.Window(F.Ref("op", "pay", ()), F.Ref("task", "arrange-trans", ())),
        F.OccNext(F.Ref("op", "pay", ())),
    ], ids=["window", "occ-next"])
    def test_progression_nodes_do_not_print(self, node):
        with pytest.raises(ValueError, match="progression-internal"):
            print_bdf(node)


# Example arguments per kind, taken in order when a form has two of a kind.
FORM_ARGS = {"formula": ["(at a)", "(eventually (at b))"],
             "literal": ["(not (at a))"],
             "task": ["(!go a)", "(trip b)"],
             "method": ["(by-go a)"]}


def form_example(keyword):
    kinds = BDF_FORMS[keyword][1]
    return "(%s %s)" % (keyword, " ".join(
        FORM_ARGS[kind][kinds[:i].count(kind)] for i, kind in enumerate(kinds)))


def round_trips(text, dom):
    gpf = parse_preference(text, dom)
    assert parse_preference(print_preference(gpf), dom) == gpf
    return gpf


class TestPreferenceRoundTrip:
    @pytest.mark.parametrize("negated", [False, True])
    @pytest.mark.parametrize("keyword", list(BDF_FORMS))
    def test_every_form(self, keyword, negated):
        text = form_example(keyword)
        text = f"(not {text})" if negated else text
        gpf = round_trips(text, parse_domain(LEAF_DOMAIN))
        assert print_preference(gpf) == text

    @pytest.mark.parametrize("text", [
        "(forall (?x ?y) (before (!go ?x) (trip ?y)))",
        "(exists (?x) (hold-between (!go ?x) (at ?x) (trip ?x)))",
        "(not (forall (?x) (eventually (at ?x))))",
        "(not (exists (?x) (occ (!go ?x))))",
    ])
    def test_quantifiers(self, text):
        round_trips(text, parse_domain(LEAF_DOMAIN))

    @pytest.mark.parametrize("text", [
        "(not (next (at a)))",
        "(always (not (next (at a))))",
        "(not (next (and)))",
        "(not (next (or)))",
    ])
    def test_negated_next(self, text):
        # the not stays over the next it was written over, whose sub-formula
        # may be a constant
        assert print_preference(round_trips(
            text, parse_domain(LEAF_DOMAIN))) == text

    @pytest.mark.parametrize("text", [
        "(or (not (next (at a))) (not (next (at b))))",
        "(or (not (next (occ (!go a)))) (not (next (occ (!go b)))))",
        "(not (until (at a) (at a)))",
        "(and (not (always (at a))) (eventually (not (at a))))",
    ])
    def test_negation_keeps_joins_flat(self, text):
        # a not keeps the join it was written over, and the joins around it
        # stay as the parser flattened them, so the printed text parses back
        # to the same form
        round_trips(text, parse_domain(LEAF_DOMAIN))

    def test_generated_preferences(self):
        for seed in range(300):
            gi = gen_files(GenConfig(seed=seed))
            gpf = gi.problem.preference
            assert parse_preference(print_preference(gpf),
                                    gi.problem.domain) == gpf, seed


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
