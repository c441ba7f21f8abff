"""State, event, and trace mechanics."""

import pytest

from prefhtn.errors import IllegalEvent, NotNonprimitive, PreconditionViolation
from prefhtn.model import (Atom, Domain, EndEvent, Inst, Literal, Operator,
                           OperatorEvent, StartEvent, State, Task, Trace,
                           apply_event, args_match,
                           empty_trace, ground_operator, relevant_methods, replay, unify_args,
                           validate_trace)
from prefhtn.oracle import enumerate_all
from prefhtn.search import solve
from tests.conftest import fixture_ids, load_fixture


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
        out = apply_op(before, noop, (), 3)
        assert out.facts == before.facts
        assert Inst("op", "noop", (), 3) in out.terminated

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


class TestApplyEvent:
    def test_start_adds_executing(self, mini_domain):
        inst = Inst("method", "m", (), 0)
        out = apply_event(state(), StartEvent(inst), mini_domain)
        assert out.executing == frozenset({inst})
        assert out.terminated == frozenset()

    def test_start_then_end(self, mini_domain):
        inst = Inst("method", "m", (), 0)
        s1 = apply_event(state(), StartEvent(inst), mini_domain)
        s2 = apply_event(s1, EndEvent(inst), mini_domain)
        assert s2.executing == frozenset()
        assert s2.terminated == frozenset({inst})

    def test_operator_event_never_executing(self, mini_domain):
        ev = OperatorEvent("pay", (), 0)
        out = apply_event(state(), ev, mini_domain)
        assert out.executing == frozenset()
        assert ev.inst in out.terminated

    def test_end_without_start_rejected(self, mini_domain):
        with pytest.raises(IllegalEvent):
            apply_event(state(), EndEvent(Inst("task", "t", (), 0)),
                        mini_domain)

    def test_double_start_rejected(self, mini_domain):
        inst = Inst("task", "t", (), 0)
        s1 = apply_event(state(), StartEvent(inst), mini_domain)
        with pytest.raises(IllegalEvent):
            apply_event(s1, StartEvent(inst), mini_domain)

    def test_restart_after_end_rejected(self, mini_domain):
        inst = Inst("task", "t", (), 0)
        s1 = apply_event(state(), StartEvent(inst), mini_domain)
        s2 = apply_event(s1, EndEvent(inst), mini_domain)
        with pytest.raises(IllegalEvent):
            apply_event(s2, StartEvent(inst), mini_domain)

    def test_states_share_the_parent_terminated_record(self, mini_domain):
        inst = Inst("task", "t", (), 1)
        s0 = apply_event(state(), OperatorEvent("pay", (), 0), mini_domain)
        s1 = apply_event(s0, StartEvent(inst), mini_domain)
        s2 = apply_event(s1, EndEvent(inst), mini_domain)
        assert s1.terminated_links is s0.terminated_links
        assert s2.terminated_links[1] is s0.terminated_links
        assert s2.has_terminated("task", "t", ())
        assert s2.has_terminated("op", "pay", ())
        assert not s1.has_terminated("task", "t", ())


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


class TestRelevantMethods:
    def test_declaration_order(self, mini_domain):
        out = relevant_methods(Task("arrange-trans"), mini_domain)
        assert [m.branch for m, _ in out] == ["by-train-trans", "by-car-trans"]

    def test_primitive_task_rejected(self, mini_domain):
        with pytest.raises(NotNonprimitive):
            relevant_methods(Task("pay", (), primitive=True), mini_domain)

    def test_conflicting_constant_args(self, mini_domain):
        from tests.conftest import load_fixture
        dom = load_fixture("travel", 1).domain
        assert relevant_methods(Task("arrange-trans", ("x", "y")), dom) == []


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
        # executing in the initial state, so replay accepts its end
        inst = Inst("task", "t", (), 0)
        trace = replay(State(frozenset(), frozenset({inst})),
                       [EndEvent(inst)], mini_domain)
        with pytest.raises(IllegalEvent, match="end without start"):
            validate_trace(trace, mini_domain)

    def test_terminated_grows_monotonically(self, mini_trace):
        for a, b in zip(mini_trace.states, mini_trace.states[1:]):
            assert a.terminated <= b.terminated

    def test_executing_interval(self, mini_trace):
        # a unit instance is "executing" exactly between its start and end
        method = Inst("method", "by-train-trans", (), 1)
        flags = [method in s.executing for s in mini_trace.states]
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
                for st, (executing, terminated) in zip(
                        trace.states, _reference_fold(trace.events)):
                    assert st.executing == executing
                    assert st.terminated == terminated
                    assert all(st.has_terminated(i.kind, i.name, i.args)
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
    def test_unify_binds_variables(self):
        assert unify_args(("?x", "b"), ("a", "b")) == {"?x": "a"}
        assert unify_args(("?x", "?x"), ("a", "b")) is None

    def test_args_match_equal_arity(self):
        assert args_match(("a", "b"), ("a", "b"))
        assert not args_match(("a", "b"), ("b", "a"))

    def test_args_match_subsequence(self):
        # a shorter pattern matches in-order through extra arguments
        assert args_match(("a", "c"), ("a", "b", "c"))
        assert not args_match(("c", "a"), ("a", "b", "c"))
        assert args_match((), ("a",))
