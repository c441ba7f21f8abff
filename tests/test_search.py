"""Best-first search: optimality, expansion, tie-breaking, resource caps."""

import pytest

from conftest import MINI_DOMAIN, load_fixture

from prefhtn.errors import ResourceLimit
from prefhtn.parser import parse_domain, parse_preference, parse_problem
from prefhtn.search import (SearchStats, SolveConfig, _Expander, _any_emits,
                            make_root, solve)


def mini_problem(tasks="((arrange-trans))", pref=None):
    domain = parse_domain(MINI_DOMAIN, "<mini>")
    problem = parse_problem(f"(problem p :init () :tasks {tasks})", domain)
    if pref is not None:
        problem.preference = parse_preference(pref, domain)
    return problem


def plan_names(result):
    return [e.name for e in result.plan]


class TestSolve:
    def test_preferred_branch_wins(self):
        result = solve(mini_problem(
            pref="(eventually (occ (!book-train)))"))
        assert result.status == "ok"
        assert result.weight == 0
        assert plan_names(result) == ["book-train", "pay"]

    def test_travel2_books_train(self):
        result = solve(load_fixture("travel", 2))
        assert result.status == "ok"
        assert result.weight == 0
        assert ("book", ("train",)) in [(e.name, e.args) for e in result.plan]

    def test_unsolvable_task(self):
        domain = parse_domain(MINI_DOMAIN, "<mini>")
        problem = parse_problem(
            "(problem p :init () :tasks ((arrange-trans)))", domain)
        # no method body can satisfy an impossible before-constraint; emulate
        # unsolvability with an operator whose precondition never holds
        text = MINI_DOMAIN.replace(
            "(:operator (!pay) :pre ()",
            "(:operator (!pay) :pre ((blocked))")
        domain = parse_domain(text, "<mini>")
        problem = parse_problem(
            "(problem p :init () :tasks ((arrange-trans)))", domain)
        result = solve(problem)
        assert result.status == "noplan"
        assert result.plan is None and result.weight is None

    def test_empty_network_is_immediate_solution(self):
        result = solve(mini_problem(tasks="()",
                                    pref="(final (paid))"))
        assert result.status == "ok"
        assert result.plan == ()
        assert result.weight == 1  # (paid) is false in the empty final state

    def test_no_preference_weight_zero(self):
        result = solve(mini_problem())
        assert result.status == "ok"
        assert result.weight == 0

    def test_equal_weight_prefers_shorter_plan(self):
        domain = parse_domain("""
        (domain d
          (:operator (!a) :pre () :del () :add ())
          (:operator (!b) :pre () :del () :add ())
          (:method (top) :name long :pre () :tasks ((!a) (!a) (!b)))
          (:method (top) :name short :pre () :tasks ((!b) (!a)))
        )""", "<d>")
        problem = parse_problem("(problem p :init () :tasks ((top)))", domain)
        result = solve(problem)
        assert plan_names(result) == ["b", "a"]

    def test_tiebreak_lex_picks_smallest_plan(self):
        domain = parse_domain("""
        (domain d
          (:operator (!a) :pre () :del () :add ())
          (:operator (!b) :pre () :del () :add ())
          (:method (top) :name b-first :pre () :tasks ((!b) (!a)))
          (:method (top) :name a-first :pre () :tasks ((!a) (!b)))
        )""", "<d>")
        problem = parse_problem("(problem p :init () :tasks ((top)))", domain)
        plain = solve(problem)
        assert plan_names(plain) == ["b", "a"]  # method order
        lex = solve(problem, SolveConfig(tiebreak_lex=True))
        assert plan_names(lex) == ["a", "b"]
        assert lex.weight == plain.weight

    def test_nc_counts_at_least_ne(self):
        for suite, k in [("travel", 1), ("zeno", 1), ("logistics", 1)]:
            result = solve(load_fixture(suite, k))
            assert result.stats.nodes_considered >= result.stats.nodes_expanded
            assert result.stats.nodes_expanded > 0

    def test_debug_dominance_assertion_holds(self):
        for suite, k in [("travel", 3), ("zeno", 2), ("logistics", 2)]:
            result = solve(load_fixture(suite, k), SolveConfig(debug=True))
            assert result.status == "ok"


class TestResourceLimits:
    def test_timeout_zero(self):
        with pytest.raises(ResourceLimit) as exc:
            solve(load_fixture("travel", 3), SolveConfig(timeout=0.0))
        assert exc.value.kind == "time"

    def test_expansion_cap_zero(self):
        with pytest.raises(ResourceLimit) as exc:
            solve(mini_problem(), SolveConfig(max_expansions=0))
        assert exc.value.kind == "expansions"
        assert exc.value.stats.elapsed > 0

    def test_depth_cap(self):
        domain = parse_domain("""
        (domain d
          (:operator (!a) :pre () :del () :add ())
          (:method (loop) :name again :pre () :tasks ((loop) (!a)))
        )""", "<d>")
        problem = parse_problem("(problem p :init () :tasks ((loop)))", domain)
        with pytest.raises(ResourceLimit) as exc:
            solve(problem, SolveConfig(depth_cap=5))
        assert exc.value.kind == "depth"
        assert exc.value.stats.elapsed > 0


class TestExpansion:
    def test_root_of_two_method_task_has_two_children(self):
        problem = mini_problem()
        config = SolveConfig()
        root, immediate = make_root(problem)
        assert immediate is None
        exp = _Expander(problem, config, SearchStats())
        children = exp.expand(root)
        # one child per reachable ground operator: book-train and book-car
        assert sorted(c.trace.events[-1].name for c in children) == \
            ["book-car", "book-train"]

    def test_inapplicable_operator_prunes_branch(self):
        text = MINI_DOMAIN.replace(
            "(:operator (!book-car) :pre ()",
            "(:operator (!book-car) :pre ((rental-open))")
        domain = parse_domain(text, "<mini>")
        problem = parse_problem(
            "(problem p :init () :tasks ((arrange-trans)))", domain)
        config = SolveConfig()
        root, _ = make_root(problem)
        children = _Expander(problem, config, SearchStats()).expand(root)
        assert [c.trace.events[-1].name for c in children] == ["book-train"]

    def test_end_marker_only_agenda_terminates(self, mini_domain):
        problem = mini_problem(pref="(final (paid))")
        config = SolveConfig()
        root, _ = make_root(problem)
        exp = _Expander(problem, config, SearchStats())
        # walk: expand until some node's agenda starts with only end markers
        frontier = exp.expand(root)
        while frontier:
            node = frontier.pop()
            if node.weight is not None:
                assert not _any_emits(node.agenda)
                assert node.opt == node.pess == node.weight
                return
            frontier.extend(exp.expand(node))
        pytest.fail("no terminal node reached")

    def test_plan_length_counts_operator_events(self):
        # every node of travel-3's search tree, terminal nodes included
        problem = load_fixture("travel", 3)
        root, _ = make_root(problem)
        assert root.plan_length == 0
        exp = _Expander(problem, SolveConfig(), SearchStats())
        frontier, seen = [root], 0
        while frontier:
            node = frontier.pop()
            assert node.plan_length == len(node.trace.plan())
            seen += 1
            if node.weight is None:
                frontier.extend(exp.expand(node))
        assert seen > 100

    def test_terminal_node_bounds_equal_weight(self):
        problem = mini_problem(pref="(eventually (occ (!pay)))")
        result = solve(problem)
        assert result.weight == 0
