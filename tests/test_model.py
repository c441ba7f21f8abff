"""State, event, and trace mechanics."""

import pytest

from prefhtn import formulas as F
from prefhtn.errors import IllegalEvent, PreconditionViolation
from prefhtn.model import (Atom, Domain, EndEvent, Inst, Literal, Operator,
                           OperatorEvent, StartEvent, State, Trace,
                           apply_event, args_match,
                           empty_trace, ground_operator, reachable, replay,
                           validate_trace)
from prefhtn.oracle import enumerate_all
from prefhtn.parser import parse_domain, parse_problem
from prefhtn.randgen import (DEFAULT_CONSTRUCTS, QUANTIFIERS, GenConfig,
                             gen_instance)
from prefhtn.search import solve
from prefhtn.semantics import terminated_at
from tests.conftest import executing, fixture_ids, links, load_fixture


def atom(pred, *args):
    return Atom(pred, tuple(args))


def state(*facts):
    return State(frozenset(facts))


def apply_op(s, op, args, uid, domain=None):
    """s after op's event under args, applied as search applies it: through
    the domain's grounding and apply_event."""
    domain = domain or Domain("d", {op.name: op}, ())
    return apply_event(s, OperatorEvent(op.name, args, uid), domain)


class TestApplyOperator:
    def test_strips_add_delete(self):
        drive = Operator("drive", ("?a", "?b"),
                         pre=(Literal(atom("at", "?a"), True),),
                         add=(atom("at", "?b"),),
                         delete=(atom("at", "?a"),))
        out = apply_op(state(atom("at", "c1")), drive, ("c1", "c2"), 0)
        assert out.facts == frozenset({atom("at", "c2")})

    def test_empty_effects_leave_facts_unchanged(self):
        noop = Operator("noop", ())
        before = state(atom("p", "a"))
        out = empty_trace(before).extend(OperatorEvent("noop", (), 3),
                                         Domain("d", {"noop": noop}, ()))
        assert out.final_state.facts == before.facts
        assert Inst("op", "noop", (), 3) in links(out.terminated)

    def test_travel_fixture_booking(self):
        from tests.conftest import load_fixture
        prob = load_fixture("travel", 1)
        book = prob.domain.operators["book"]
        out = apply_op(prob.init, book, ("train",), 0, prob.domain)
        assert atom("booked", "train") in out.facts

    def test_precondition_violation(self):
        op = Operator("go", (), pre=(Literal(atom("ready"), True),))
        with pytest.raises(PreconditionViolation):
            apply_op(state(), op, (), 0)

    def test_negative_precondition_closed_world(self):
        op = Operator("go", (), pre=(Literal(atom("busy"), False),))
        apply_op(state(), op, (), 0)  # absent fact satisfies (not busy)
        with pytest.raises(PreconditionViolation):
            apply_op(state(atom("busy")), op, (), 0)


class TestDomainVocabulary:
    @pytest.mark.parametrize("suite, rigid, arity", [
        ("logistics", {"air", "plane", "road", "truck", "vehicle"},
         {"at": 2, "in": 2, "veh-at": 2, "truck": 1, "road": 2, "plane": 1,
          "air": 2, "vehicle": 1}),
        ("zeno", {"link"},
         {"person-at": 2, "aircraft-at": 1, "aboard": 1, "link": 2}),
        ("travel", {"available", "has-card", "hotel"},
         {"at-destination": 0, "available": 1, "booked": 1, "has-card": 1,
          "used": 1, "hotel": 1, "lodged": 1}),
    ])
    def test_fixture_domains(self, suite, rigid, arity):
        domain = load_fixture(suite, 1).domain
        assert domain._rigid == rigid
        assert domain._arity == arity
        assert domain._constants == frozenset()  # the fixtures write none

    def test_constants_from_every_place_one_is_written(self):
        domain = parse_domain("""
            (domain d
              (:operator (!o ?x) :pre ((p ?x c1)) :del ((q c2)) :add ((q c3)))
              (:method (t c4 ?y) :name m :pre ((p ?y c5)) :tasks ((!o c6) (u))
                :before (((q c7) 1)))
              (:method (u) :name n :pre ((not (q c8))) :tasks ()))
            """, "<d>")
        assert domain._constants == {f"c{i}" for i in range(1, 9)}
        assert domain._rigid == {"p"}
        assert domain._arity == {"p": 2, "q": 1}


def _cells(domain, *events):
    """The cells of the trace of events from the empty state, root first."""
    return replay(state(), events, domain).cells


class TestApplyEvent:
    def test_start_and_end_keep_the_state(self, mini_domain):
        s = state(atom("p", "a"))
        inst = Inst("method", "m", (), 0)
        assert apply_event(s, StartEvent(inst), mini_domain) is s
        assert apply_event(s, EndEvent(inst), mini_domain) is s

    def test_start_adds_executing(self, mini_domain):
        inst = Inst("method", "m", (), 0)
        _, c1 = _cells(mini_domain, StartEvent(inst))
        assert links(c1.started) == executing(c1) == frozenset({inst})
        assert c1.terminated is None

    def test_start_then_end(self, mini_domain):
        inst = Inst("method", "m", (), 0)
        _, _, c2 = _cells(mini_domain, StartEvent(inst), EndEvent(inst))
        assert executing(c2) == frozenset()
        assert links(c2.terminated) == frozenset({inst})

    def test_operator_event_never_executing(self, mini_domain):
        ev = OperatorEvent("pay", (), 0)
        _, c1 = _cells(mini_domain, ev)
        assert executing(c1) == frozenset()
        assert links(c1.started) == links(c1.terminated) == {ev.inst}

    def test_cells_share_the_parent_chains(self, mini_domain):
        inst = Inst("task", "t", (), 1)
        c0, c1, c2, c3 = _cells(mini_domain, OperatorEvent("pay", (), 0),
                                StartEvent(inst), EndEvent(inst))
        assert c1.started[1] is c0.started is None
        assert c1.terminated[1] is c0.terminated is None
        assert c2.started[1] is c1.started
        assert c2.terminated is c1.terminated
        assert c3.started is c2.started
        assert c3.terminated[1] is c2.terminated
        assert c2.final_state is c1.final_state
        assert c3.final_state is c1.final_state
        assert terminated_at(c3, F.Ref("task", "t", ()))
        assert terminated_at(c3, F.Ref("op", "pay", ()))
        assert not terminated_at(c2, F.Ref("task", "t", ()))

    def test_unknown_operator_rejected(self, mini_domain):
        with pytest.raises(IllegalEvent, match="unknown operator ghost"):
            mini_domain.ground("ghost", ())

    def test_operator_arity_rejected(self, mini_domain):
        with pytest.raises(PreconditionViolation,
                           match="operator pay expects 0 args, got 1"):
            ground_operator(mini_domain.operators["pay"], ("x",))

    def test_non_event_rejected(self, mini_domain):
        with pytest.raises(IllegalEvent, match="unknown event"):
            apply_event(state(), Inst("op", "pay", (), 0), mini_domain)


class TestTrace:
    def test_validator_accepts_replayed_trace(self, mini_trace, mini_domain):
        validate_trace(mini_trace, mini_domain)

    def test_validator_rejects_tampered_states(self, mini_trace, mini_domain):
        # the last cell's state replaced by the initial one
        bad = Trace(mini_trace.parent, mini_trace.event,
                    mini_trace.states[0])
        with pytest.raises(IllegalEvent):
            validate_trace(bad, mini_domain)

    def test_validator_rejects_two_instances_with_one_start_uid(
            self, mini_domain):
        trace = replay(state(), [StartEvent(Inst("task", "t", (), 0)),
                                 StartEvent(Inst("task", "u", (), 0))],
                       mini_domain)
        with pytest.raises(IllegalEvent, match="duplicate instance id 0"):
            validate_trace(trace, mini_domain)

    def test_validator_rejects_a_repeated_operator_uid(self, mini_domain):
        trace = replay(state(), [OperatorEvent("pay", (), 3),
                                 OperatorEvent("pay", (), 3)], mini_domain)
        with pytest.raises(IllegalEvent, match="duplicate instance id 3"):
            validate_trace(trace, mini_domain)

    def test_validator_rejects_ending_an_instance_it_never_started(
            self, mini_domain):
        # replay applies events without checking the protocol
        inst = Inst("task", "t", (), 0)
        trace = replay(state(), [EndEvent(inst)], mini_domain)
        with pytest.raises(IllegalEvent, match="end without start"):
            validate_trace(trace, mini_domain)

    def test_validator_rejects_a_double_start(self, mini_domain):
        inst = Inst("task", "t", (), 0)
        trace = replay(state(), [StartEvent(inst), StartEvent(inst)],
                       mini_domain)
        with pytest.raises(IllegalEvent, match="duplicate instance id 0"):
            validate_trace(trace, mini_domain)

    def test_validator_rejects_a_restart_after_end(self, mini_domain):
        inst = Inst("task", "t", (), 0)
        trace = replay(state(), [StartEvent(inst), EndEvent(inst),
                                 StartEvent(inst)], mini_domain)
        with pytest.raises(IllegalEvent, match="duplicate instance id 0"):
            validate_trace(trace, mini_domain)

    def test_validator_rejects_a_second_end(self, mini_domain):
        inst = Inst("task", "t", (), 0)
        trace = replay(state(), [StartEvent(inst), EndEvent(inst),
                                 EndEvent(inst)], mini_domain)
        with pytest.raises(IllegalEvent, match="already ended"):
            validate_trace(trace, mini_domain)
        validate_trace(trace.parent, mini_domain)

    def test_terminated_grows_monotonically(self, mini_trace):
        cells = mini_trace.cells
        for a, b in zip(cells, cells[1:]):
            assert links(a.terminated) <= links(b.terminated)
            assert links(a.started) <= links(b.started)

    def test_executing_interval(self, mini_trace):
        # a unit instance is "executing" exactly between its start and end
        method = Inst("method", "by-train-trans", (), 1)
        flags = [method in executing(c) for c in mini_trace.cells]
        assert flags == [False, False, True, True, True, False, False]

    def test_plan_projection(self, mini_trace):
        assert [e.name for e in mini_trace.plan()] == ["book-train", "pay"]

    def test_extend_links_to_the_parent(self, mini_trace, mini_domain):
        t = empty_trace(state())
        child = t.extend(OperatorEvent("pay", (), 0), mini_domain)
        assert child.parent is t and child.length == 1
        assert child.event == OperatorEvent("pay", (), 0)
        assert mini_trace.length == len(mini_trace.events) == 6

    def test_materialized_traces_match_replay_and_fold(self):
        # the returned plan and every enumerated trace of every fixture
        checked = 0
        for suite, k in fixture_ids():
            problem = load_fixture(suite, k)
            traces = list(enumerate_all(problem).traces)
            result = solve(problem)
            if result.trace is not None:
                traces.append(result.trace)
            for trace in traces:
                assert len(trace.events) == trace.length
                assert len(trace.states) == trace.length + 1
                rebuilt = replay(problem.init, trace.events, problem.domain)
                assert trace.events == rebuilt.events
                assert trace.states == rebuilt.states
                assert trace.final_state == trace.states[-1]
                for cell, (running, terminated) in zip(
                        trace.cells, _reference_fold(trace.events)):
                    assert executing(cell) == running
                    assert links(cell.terminated) == terminated
                    assert all(terminated_at(cell, F.Ref(*i[:3]))
                               for i in terminated)
                checked += 1
        assert checked > 100


def _reference_fold(events):
    """(executing, terminated) after each prefix, as plain frozensets."""
    executing, terminated = frozenset(), frozenset()
    out = [(executing, terminated)]
    for e in events:
        if isinstance(e, OperatorEvent):
            terminated |= {e.inst}
        elif isinstance(e, StartEvent):
            executing |= {e.inst}
        else:
            executing -= {e.inst}
            terminated |= {e.inst}
        out.append((executing, terminated))
    return out


class TestMatching:
    def test_args_match_equal_arity(self):
        assert args_match(("a", "b"), ("a", "b"))
        assert not args_match(("a", "b"), ("b", "a"))

    def test_args_match_subsequence(self):
        # a shorter pattern matches in-order through extra arguments
        assert args_match(("a", "c"), ("a", "b", "c"))
        assert not args_match(("c", "a"), ("a", "b", "c"))
        assert args_match((), ("a",))


class TestReachable:
    def test_every_plan_stays_inside_the_sets(self):
        # the analysis over-approximates what a plan reaches: every fact of
        # every state and every parameter of every operator event of every
        # enumerated plan lies in its position's set, on the fixtures and on
        # randgen instances whose operators take a parameter
        problems = [load_fixture(suite, k) for suite, k in fixture_ids()]
        problems += [gen_instance(GenConfig(
            seed=seed, constructs=DEFAULT_CONSTRUCTS | set(QUANTIFIERS)))[0]
            for seed in range(100)]
        bound = 0
        for problem in problems:
            facts, ops = reachable(problem)
            for trace in enumerate_all(problem).traces:
                for cell in trace.cells:
                    for f in cell.final_state.facts:
                        for pos, a in enumerate(f.args):
                            assert a in facts[f.pred, pos], (problem.name, f)
                    e = cell.event
                    if type(e) is OperatorEvent:
                        for a, can in zip(e.args, ops[e.name], strict=True):
                            assert a in can, (problem.name, e)
                            bound += 1
        assert bound > 10_000

    def test_sets_on_logistics(self):
        # a package is only ever at a place or in a vehicle, and only !load
        # and !unload bind one; a parameter no precondition binds, and an
        # operator whose precondition constant is never held, as documented
        domain = parse_domain("""(domain d
          (:operator (!load ?p ?v) :pre ((at ?p) (car ?v)) :del ((at ?p))
            :add ((in ?p ?v)))
          (:operator (!paint ?x) :pre () :del () :add ((red ?x)))
          (:operator (!fix) :pre ((car wreck)) :del () :add ((red wreck))))""")
        problem = parse_problem("""(problem p :init ((at p1) (car v1))
          :tasks ((!load p1 v1)))""", domain)
        facts, ops = reachable(problem)
        everything = set(problem.constants)
        assert facts == {("at", 0): {"p1"}, ("car", 0): {"v1"},
                         ("in", 0): {"p1"}, ("in", 1): {"v1"},
                         ("red", 0): everything}
        assert ops == {"load": [{"p1"}, {"v1"}], "paint": [everything]}
