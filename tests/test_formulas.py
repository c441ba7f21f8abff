"""The value contracts (model.Node, model.Record, model.Value) and the
formulas' smart constructors."""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import prefhtn
from prefhtn import formulas as F
from prefhtn.errors import BadValueOrder
from prefhtn.model import (Atom, EndEvent, Inst, Literal, Method, Operator,
                           OperatorEvent, StartEvent, State, Task)
from prefhtn.oracle import EnumerationCaps
from prefhtn.progression import Bounds, unfold
from prefhtn.randgen import GenConfig
from prefhtn.search import SearchStats, SolveConfig, Unordered
from prefhtn.parser import BDF_FORMS, parse_preference, print_preference
from tests.conftest import fixture_ids, load_fixture

LIT = Literal(Atom("at", ("c1",)))
OP = F.Ref("op", "drive", ("c1",))
TASK = F.Ref("task", "move", ("c2",))
METHOD = F.Ref("method", "by-air", ())
P, Q = F.LitF(LIT), F.Occ(OP)

# One constructor argument tuple per node class.
EXAMPLES = {
    Operator: ("drive", ("?a", "?b"), (LIT,), (Atom("at", ("?b",)),), ()),
    Method: ("by-air", Task("move", ("?x",)), (LIT,),
             (Task("fly", ("?x",), True),), False, ()),
    F.Ref: ("op", "drive", ("c1",)),
    F.TrueC: (),
    F.FalseC: (),
    F.LitF: (LIT,),
    F.Final: (LIT,),
    F.Occ: (OP,),
    F.Apply: (METHOD,),
    F.Before: (OP, TASK),
    F.HoldBefore: (TASK, LIT),
    F.HoldAfter: (TASK, LIT),
    F.HoldBetween: (OP, LIT, TASK),
    F.Not: (P,),
    F.And: ((P, Q),),
    F.Or: ((P, Q),),
    F.Exists: ("?x", P),
    F.Forall: ("?x", P),
    F.Next: (P,),
    F.Always: (P,),
    F.Eventually: (P,),
    F.Until: (P, Q),
    F.OccNext: (OP,),
    F.Terminated: (TASK,),
    F.Window: (OP, TASK),
    F.APF: (((P, Fraction(0)), (Q, Fraction(1, 2))),),
    F.Atomic: (F.APF(((P, Fraction(0)),)),),
    F.Cond: (P, F.bdf_gpf(Q)),
    F.Conj: ((F.bdf_gpf(P), F.bdf_gpf(Q)),),
    F.Disj: ((F.bdf_gpf(P), F.bdf_gpf(Q)),),
}
CLASSES = sorted(EXAMPLES, key=lambda c: c.__name__)


def example(cls):
    return cls(*EXAMPLES[cls])


def test_examples_cover_every_node_class():
    assert set(F.Node.__subclasses__()) == set(EXAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestEveryNodeClass:
    def test_setting_or_deleting_an_attribute_raises(self, cls):
        node = example(cls)
        for name in cls._fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert node == example(cls)

    def test_equal_fields_give_equal_nodes_and_hashes(self, cls):
        a, b = example(cls), example(cls)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert hash(a) == hash(a)  # the cached value
        assert {a: 1}[b] == 1

    def test_node_fields_follow_declaration_order(self, cls):
        node = example(cls)
        assert cls._fields == tuple(cls.__annotations__)
        assert F.node_fields(node) == EXAMPLES[cls]
        assert tuple(getattr(node, f) for f in cls._fields) == EXAMPLES[cls]

    def test_repr_names_every_field(self, cls):
        node = example(cls)
        inner = ", ".join(f"{f}={v!r}" for f, v in
                          zip(cls._fields, EXAMPLES[cls]))
        assert repr(node) == f"{cls.__name__}({inner})"

    def test_wrong_field_count_raises(self, cls):
        with pytest.raises(TypeError):
            cls(*EXAMPLES[cls], None)


# --- slotted records (model.Record and model.Value) ------------------------

INST = Inst("task", "move", ("c1",), 0)
# Two constructor argument tuples per hashed Value, with different fields.
VALUES = {
    Task: (("move", ("c1",), False), ("move", ("c2",), False)),
    OperatorEvent: (("drive", ("c1",), 3), ("drive", ("c1",), 4)),
    StartEvent: ((INST,), (INST._replace(uid=1),)),
    EndEvent: ((INST,), (INST._replace(uid=1),)),
    Unordered: (((Task("a"), Task("b")),), ((Task("b"), Task("a")),)),
    Bounds: ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1, 2))),
    EnumerationCaps: ((10, 1.0), (10, 2.0)),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
class TestEveryHashedValue:
    def test_setting_or_deleting_an_attribute_raises(self, cls):
        value = cls(*VALUES[cls][0])
        hash(value)
        for name in cls._fields + ("_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == cls(*VALUES[cls][0])

    def test_equality_and_hash_go_by_field(self, cls):
        args, other_args = VALUES[cls]
        a, b = cls(*args), cls(*args)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(a)
        assert {a: 1}[b] == 1
        assert tuple(getattr(a, f) for f in cls._fields) == args
        assert a != cls(*other_args) and not a == cls(*other_args)

    def test_repr_names_every_field(self, cls):
        inner = ", ".join(f"{f}={v!r}" for f, v in
                          zip(cls._fields, VALUES[cls][0]))
        assert repr(cls(*VALUES[cls][0])) == f"{cls.__name__}({inner})"


def test_same_fields_in_another_value_class_are_unequal():
    assert StartEvent(INST) != EndEvent(INST)
    assert len({StartEvent(INST), EndEvent(INST)}) == 2


def test_task_hash_is_computed_once_per_object():
    calls = []

    class Counted(str):
        def __hash__(self):
            calls.append(self)
            return str.__hash__(self)

    task = Task("move", (Counted("c1"),))
    for _ in range(5):
        hash(task)
    assert task in {task} and {task: 1}[task] == 1
    assert len(calls) == 1
    hash(Task("move", (Counted("c1"),)))
    assert len(calls) == 2


def test_node_hash_is_computed_once_per_object():
    calls = []

    class Counted(str):
        def __hash__(self):
            calls.append(self)
            return str.__hash__(self)

    node = F.Occ(F.Ref("op", "drive", (Counted("c1"),)))
    for _ in range(5):
        hash(node)
    assert node in {node} and {node: 1}[node] == 1
    assert len(calls) == 1  # the Ref's hash, read once through the Occ's
    assert hash(node) == hash((F.Occ, node.ref))


def test_records_take_keywords_and_apply_defaults():
    config = SolveConfig(timeout=2.5)
    assert (config.timeout, config.depth_cap, config.tiebreak_lex) == \
        (2.5, 64, False)
    caps = EnumerationCaps(max_seconds=5.0)
    assert (caps.max_plans, caps.max_seconds) == (100_000, 5.0)
    assert GenConfig(seed=4).seed == 4
    assert GenConfig(seed=4).num_operators == GenConfig().num_operators == 4
    stats = SearchStats()
    assert (stats.nodes_expanded, stats.nodes_considered, stats.duplicates,
            stats.elapsed, stats.plan_length) == (0, 0, 0, 0.0, None)
    assert Task("t") == Task("t", (), False)
    assert Operator("go", (), pre=(LIT,)) == Operator("go", (), (LIT,), (), ())
    with pytest.raises(TypeError):
        Operator("go", (), (), pre=())  # pre given twice
    with pytest.raises(TypeError):
        Operator("go")


def test_state_takes_keywords_and_derives_max_uid():
    facts = frozenset({LIT.atom})
    later = INST._replace(uid=5)
    state = State(facts, terminated_links=(later, (INST, None)), max_uid=9)
    assert state.executing == frozenset() and state.max_uid == 9
    assert state.terminated == {INST, later}
    assert State(facts, terminated_links=(later, (INST, None))).max_uid == 5
    assert State(facts, frozenset({INST})).max_uid == 0
    assert State(facts).max_uid == -1
    with pytest.raises(TypeError):
        State(facts, frozenset(), None)  # the links are keyword-only


def test_state_equality_reads_terminated_and_hash_does_not():
    facts = frozenset({LIT.atom})
    later = INST._replace(uid=5)
    a = State(facts, terminated_links=(later, (INST, None)))
    b = State(facts, terminated_links=(INST, (later, None)))
    c = State(facts, terminated_links=(INST, None))
    assert a == b and hash(a) == hash(b)
    assert a != c and hash(a) == hash(c)
    with pytest.raises(AttributeError):
        a.facts = frozenset()


def test_value_checks_still_raise():
    with pytest.raises(AssertionError):
        Bounds(Fraction(1), Fraction(0))
    with pytest.raises(AssertionError):
        EnumerationCaps(max_plans=0)
    with pytest.raises(AssertionError):
        EnumerationCaps(max_seconds=-1.0)
    assert EnumerationCaps(max_seconds=0).max_seconds == 0  # as timeout=0
    with pytest.raises(AssertionError):
        GenConfig(max_subtasks=4)


def test_mutable_records_compare_by_field_and_do_not_hash():
    config = SolveConfig()
    assert config == SolveConfig() and config != SolveConfig(depth_cap=3)
    config.depth_cap = 3
    assert config == SolveConfig(depth_cap=3)
    assert repr(config) == ("SolveConfig(timeout=None, depth_cap=3, "
                            "tiebreak_lex=False)")
    with pytest.raises(TypeError):
        hash(config)


@pytest.mark.parametrize("a, b", [
    (F.Always(P), F.Eventually(P)),
    (F.Not(P), F.Next(P)),
    (F.And((P, Q)), F.Or((P, Q))),
    (F.Exists("?x", P), F.Forall("?x", P)),
    (F.TRUE, F.FALSE),
    (F.Occ(OP), F.Apply(OP)),
    (F.LitF(LIT), F.Final(LIT)),
    (F.Conj((F.bdf_gpf(P),)), F.Disj((F.bdf_gpf(P),))),
])
def test_same_fields_in_another_class_are_unequal(a, b):
    assert F.node_fields(a) == F.node_fields(b)
    assert a != b and b != a
    assert len({a, b}) == 2


def test_no_two_classes_are_equal_on_the_same_fields():
    for c1, c2 in itertools.combinations(CLASSES, 2):
        if len(c1._fields) != len(c2._fields):
            continue
        for args in (EXAMPLES[c1], EXAMPLES[c2]):
            try:
                a, b = c1(*args), c2(*args)
            except (BadValueOrder, TypeError, ValueError):
                continue  # not a valid APF
            assert a != b, (c1, c2)


def test_field_order_matches_the_parser_table():
    kinds = {"formula": "BDF", "literal": "Literal", "task": "Ref",
             "method": "Ref"}
    for keyword, (cls, arg_kinds) in BDF_FORMS.items():
        declared = tuple(a.strip("'\"")
                         for a in cls.__annotations__.values())
        assert declared == tuple(kinds[k] for k in arg_kinds), keyword


def test_defaults_apply():
    assert F.Ref("op", "a") == F.Ref("op", "a", ())
    assert F.Ref("op", "a").args == ()
    with pytest.raises(TypeError):
        F.Ref("op")


@pytest.mark.parametrize("values", [
    (), (Fraction(1, 2),), (Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1, 2), Fraction(1, 4)), (Fraction(0), Fraction(2)),
])
def test_bad_apf_raises_when_constructed(values):
    with pytest.raises(BadValueOrder):
        F.APF(tuple((P, v) for v in values))


@pytest.mark.parametrize("suite,k", fixture_ids())
def test_parse_print_parse_gives_equal_nodes(suite, k):
    problem = load_fixture(suite, k)
    gpf = problem.preference
    again = parse_preference(print_preference(gpf), problem.domain)
    assert again == gpf and hash(again) == hash(gpf)
    assert print_preference(again) == print_preference(gpf)


class TestJoin:
    def test_splices_drops_duplicates_and_keeps_first_seen_order(self):
        r = F.LitF(Literal(Atom("r")))
        assert F.mk_and([Q, F.TRUE, P, F.And((Q, r)), F.LitF(LIT)]) == \
            F.And((Q, P, r))
        assert F.mk_or([P, F.Or((Q, P)), F.FALSE, r]) == F.Or((P, Q, r))

    def test_unit_and_zero(self):
        assert F.mk_and([]) is F.TRUE and F.mk_or([]) is F.FALSE
        assert F.mk_and([F.TRUE, P, F.TRUE]) is P
        assert F.mk_and([P, F.FALSE, Q]) is F.FALSE
        assert F.mk_or([P, F.TRUE]) is F.TRUE

    def test_the_first_of_equal_parts_is_kept(self):
        p2 = F.LitF(LIT)
        joined = F.mk_and([P, Q, p2])
        assert joined.parts[0] is P and len(joined.parts) == 2

    def test_distinct_parts_are_joined_without_pairwise_compares(
            self, monkeypatch):
        parts = [F.LitF(Literal(Atom("p", (f"c{i}",)))) for i in range(200)]
        compares = []
        eq = F.Node.__eq__
        monkeypatch.setattr(F.Node, "__eq__",
                            lambda a, b: compares.append(1) or eq(a, b))
        joined = F.mk_and(parts + [F.And(tuple(parts[:50]))])
        assert joined.parts == tuple(parts)
        assert len(compares) <= 50 + 5  # the spliced repeats, not 200²


# --- grounding (formulas.ground) ---------------------------------------------

UNIVERSE = ("a", "b")
O2 = F.Ref("op", "o2", ())


def op(*args):
    return F.Ref("op", "o", args)


def lit(pred, *args):
    return Literal(Atom(pred, args))


def at(ref):
    return F.Next(F.OccNext(ref))


def before_ltl(c):
    """before (!o c) (!o2), as progression.unfold writes it out."""
    return F.And((F.Until(F.Not(at(O2)), F.Window(op(c), O2)),
                  F.Eventually(at(O2))))


def hold_between_ltl(c):
    """hold-between (!o c) (p c) (!o2), written out."""
    held = F.LitF(lit("p", c))
    return F.Until(F.Not(at(O2)), F.And((
        F.Window(op(c), O2), F.Until(held, F.And((held, at(O2)))))))


def hold_after_ltl(c):
    """hold-after (!o c) (p c), written out."""
    return F.Eventually(F.And((F.Terminated(op(c)), F.LitF(lit("p", c)))))


class TestGround:
    def test_nested_quantifiers(self):
        phi = F.Forall("?x", F.Exists("?y", F.Occ(op("?x", "?y"))))
        assert F.ground(phi, UNIVERSE) == F.And((
            F.Or((F.Occ(op("a", "a")), F.Occ(op("a", "b")))),
            F.Or((F.Occ(op("b", "a")), F.Occ(op("b", "b"))))))

    def test_inner_quantifier_shadows_the_outer_variable(self):
        phi = F.Forall("?x", F.And((
            F.LitF(lit("p", "?x")),
            F.Exists("?x", F.LitF(lit("q", "?x"))))))
        inner = F.Or((F.LitF(lit("q", "a")), F.LitF(lit("q", "b"))))
        assert F.ground(phi, UNIVERSE) == F.And((
            F.LitF(lit("p", "a")), inner, F.LitF(lit("p", "b"))))

    @pytest.mark.parametrize("phi, expected", [
        # the joins see a before as it was written, so its unfolded And
        # stays one part of the forall's
        (F.Forall("?x", F.Before(op("?x"), O2)),
         F.And(tuple(before_ltl(c) for c in UNIVERSE))),
        (F.Exists("?x", F.HoldBetween(op("?x"), lit("p", "?x"), O2)),
         F.Or(tuple(hold_between_ltl(c) for c in UNIVERSE))),
        (F.Forall("?x", F.Always(F.HoldAfter(op("?x"), lit("p", "?x")))),
         F.And(tuple(F.Always(hold_after_ltl(c)) for c in UNIVERSE))),
    ], ids=["before", "hold-between", "hold-after"])
    def test_quantified_constructs_unfold_to_their_ltl(self, phi, expected):
        assert F.ground(phi, UNIVERSE, unfold) == expected

    def test_closed_sub_formula_comes_back_as_it_is(self):
        closed = F.Always(F.Until(F.LitF(lit("p", "c")), F.Occ(O2)))
        joined = F.mk_and([closed, F.Occ(O2)])
        phi = F.Forall("?x", F.And((F.Occ(op("?x")), closed)))
        out = F.ground(phi, UNIVERSE)
        assert out == F.And((F.Occ(op("a")), closed, F.Occ(op("b"))))
        assert out.parts[1] is closed
        assert F.ground(closed, UNIVERSE) is closed
        assert F.ground(joined, UNIVERSE) is joined


def fresh_python(code: str):
    """The JSON that code prints, run in a new interpreter that imports
    this checkout's prefhtn."""
    src = str(Path(prefhtn.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_test_tooling():
    """A fresh `import prefhtn` leaves the instance generator, the CLI and
    its `python -m` entry point unloaded, yet every exported name resolves
    and randgen imports alone."""
    out = fresh_python("""if True:
        import json, sys
        import prefhtn
        loaded = sorted(m for m in sys.modules if m.startswith("prefhtn"))
        missing = [n for n in prefhtn.__all__ if not hasattr(prefhtn, n)]
        from prefhtn.randgen import GenConfig, gen_files
        gen_files(GenConfig(seed=1))
        print(json.dumps({"loaded": loaded, "missing": missing}))
    """)
    assert "prefhtn.randgen" not in out["loaded"]
    assert "prefhtn.cli" not in out["loaded"]
    assert "prefhtn.__main__" not in out["loaded"]
    assert out["missing"] == []


def test_import_generates_no_code():
    """No record class has generated methods, so a fresh `import prefhtn`
    loads neither the dataclasses module nor inspect, which it imports."""
    assert fresh_python("""if True:
        import json, sys
        import prefhtn
        print(json.dumps([m for m in ("dataclasses", "inspect")
                          if m in sys.modules]))
    """) == []
