"""Best-first search: optimality, expansion, tie-breaking, resource caps."""

import heapq
from fractions import Fraction

import pytest

from conftest import MINI_DOMAIN, WALK, fixture_ids, load_fixture

from prefhtn.errors import CapExceeded, ResourceLimit, UnboundVariable
from prefhtn.model import (Atom, EndEvent, Inst, Literal, OperatorEvent,
                           StartEvent, State, Task, Trace, apply_event,
                           relevant_methods, subst_literal, unify_args,
                           validate_trace)
from prefhtn import oracle, search, semantics
from prefhtn.oracle import EnumerationCaps, cross_check, enumerate_all
from prefhtn.parser import (parse_domain, parse_preference, parse_problem,
                            print_domain)
from prefhtn.progression import bounds
from prefhtn.randgen import DEFAULT_CONSTRUCTS, GenConfig, gen_instance
from prefhtn.search import (SearchStats, SolveConfig, _Expander, make_root,
                            satisfiers, solve)
from prefhtn.semantics import weight_gpf
from prefhtn.sexpr import parse_sexprs


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
        # the root is terminal, and each mode takes it like any other node
        problem = mini_problem(tasks="()", pref="(final (paid))")
        result = solve(problem)
        assert result.status == "ok"
        assert result.plan == ()
        assert result.weight == 1  # (paid) is false in the empty final state
        assert result.stats.nodes_expanded == 0
        assert result.stats.nodes_considered == 1
        oracle = enumerate_all(problem)
        assert oracle.plan_count == 1 and oracle.best_plan == ()
        assert oracle.all_weights == (1,)
        report = cross_check(problem)
        assert report.ok and report.plan_count == 1
        assert report.solve_weight == report.oracle_weight == 1

    def test_no_preference_weight_zero(self):
        result = solve(mini_problem())
        assert result.status == "ok"
        assert result.weight == 0

    def test_weight_ties_go_to_fewer_open_tasks_then_the_deeper_plan(self):
        # the first children of top tie on weight and plan length; nested
        # leaves two tasks open (wrap, top), flat one (top), so flat goes
        # first, and its deeper nodes then come before nested's shallower
        # one: a tie breaks by (open tasks, longest plan, insertion order)
        domain = parse_domain("""
        (domain d
          (:operator (!a) :pre () :del () :add ())
          (:operator (!b) :pre () :del () :add ())
          (:method (wrap) :name w :pre () :tasks ((!a) (!a)))
          (:method (top) :name nested :pre () :tasks ((wrap)))
          (:method (top) :name flat :pre () :tasks ((!b) (!b) (!b)))
        )""", "<d>")
        problem = parse_problem("(problem p :init () :tasks ((top)))", domain)
        result = solve(problem)
        assert result.weight == 0
        assert plan_names(result) == ["b", "b", "b"]
        assert result.stats.nodes_expanded == 4

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

    def test_universe_covers_a_preference_attached_after_a_read(self):
        # only the preference names diners; a universe read before it was
        # attached must not ground its exists without diners
        pref = ("(>> ((and (exists (?c) (and (not (available ?c))"
                " (not (has-card ?c)))) (not (used diners))) 0) ((and) 1/2))")
        for read_first in (False, True):
            problem = load_fixture("travel", 1)
            if read_first:
                assert "diners" not in problem.constants
            problem.preference = parse_preference(pref, problem.domain)
            assert "diners" in problem.constants
            assert solve(problem).weight == 0
            assert enumerate_all(problem).best_weight == 0

    def test_nc_counts_at_least_ne(self):
        for suite, k in [("travel", 1), ("zeno", 1), ("logistics", 1)]:
            result = solve(load_fixture(suite, k))
            assert result.stats.nodes_considered >= result.stats.nodes_expanded
            assert result.stats.nodes_expanded > 0

    def test_popped_bounds_never_exceed_the_returned_weight(self,
                                                             monkeypatch):
        # best-first dominance, seen through a heapq stand-in that records
        # the optimistic bound of every node search pops
        popped = []

        class RecordingHeap:
            heappush = staticmethod(heapq.heappush)

            @staticmethod
            def heappop(heap):
                item = heapq.heappop(heap)
                popped.append(item[0])
                return item

        monkeypatch.setattr(search, "heapq", RecordingHeap)
        for suite, k in [("travel", 3), ("zeno", 2), ("logistics", 2)]:
            popped.clear()
            result = solve(load_fixture(suite, k))
            assert result.status == "ok"
            assert popped and max(popped) <= result.weight
            assert popped == sorted(popped)  # the bounds never fall


def walk_problem(pref):
    """The recursive (go n2) walk over n0 <-> n1 -> n2 under pref."""
    domain = parse_domain(WALK["walk.htn"], "<walk>")
    problem = parse_problem(WALK["walk-1.prob"], domain)
    problem.preference = parse_preference(pref, domain)
    return problem


def deep_or_flat_problem():
    """(top) done either by (!a) under two more nested tasks or by a flat
    (!a)."""
    domain = parse_domain("""
    (domain d
      (:operator (!a) :pre () :del () :add ())
      (:method (top) :name deep :pre () :tasks ((t0)))
      (:method (top) :name flat :pre () :tasks ((!a)))
      (:method (t0) :name c0 :pre () :tasks ((t1)))
      (:method (t1) :name c1 :pre () :tasks ((!a))))""", "<d>")
    return parse_problem("(problem p :init () :tasks ((top)))", domain)


def left_recursion_problem(methods: str):
    """(t) under the given methods of t, with operators (!a), (!b), (!c)."""
    ops = "".join(f"(:operator (!{o}) :pre () :del () :add ())" for o in "abc")
    domain = parse_domain(f"(domain d {ops} {methods})", "<d>")
    return parse_problem("(problem p :init () :tasks ((t)))", domain)


def wide_chain_problem(levels: int = 10, width: int = 3):
    """(t0) by width methods each doing (t1), and so on down to (t{levels}),
    which does (!a): the root's one expansion yields width ** levels
    children."""
    methods = "".join(f"(:method (t{i}) :name m{i}-{j} :pre () "
                      f":tasks ((t{i + 1})))"
                      for i in range(levels) for j in range(width))
    domain = parse_domain(
        f"(domain d (:operator (!a) :pre () :del () :add ()) {methods}"
        f" (:method (t{levels}) :name last :pre () :tasks ((!a))))", "<d>")
    return parse_problem("(problem p :init () :tasks ((t0)))", domain)


class FakeClock:
    """A stand-in for the time module whose monotonic clock moves 1 ms a
    read, so that a deadline passes after a fixed number of reads."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 0.001
        return self.now


class TestResourceLimits:
    def test_timeout_zero(self):
        with pytest.raises(ResourceLimit) as exc:
            solve(load_fixture("travel", 3), SolveConfig(timeout=0.0))
        assert exc.value.kind == "time"

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

    @pytest.mark.parametrize("n", [65, 200])
    def test_depth_cap_bounds_nesting_not_task_count(self, n):
        # n one-level tasks in a row nest one deep, however many they are
        domain = parse_domain("""
        (domain d
          (:operator (!a) :pre () :del () :add ())
          (:method (t) :name m :pre () :tasks ((!a))))""", "<d>")
        problem = parse_problem(
            f"(problem p :init () :tasks ({'(t) ' * n}))", domain)
        result = solve(problem)
        assert result.status == "ok" and result.weight == 0
        assert result.stats.nodes_expanded == n
        assert enumerate_all(problem).plan_count == 1

    @pytest.mark.parametrize("cap", [1, 5])
    def test_depth_cap_is_the_nesting_depth(self, cap):
        # a chain of cap nested tasks fits under the cap, one more does not
        def chain(n):
            body = "".join(f"(:method (t{i}) :name m{i} :pre () "
                           f":tasks ((t{i + 1}) (!a)))" for i in range(n - 1))
            domain = parse_domain(
                f"(domain d (:operator (!a) :pre () :del () :add ()) {body}"
                f" (:method (t{n - 1}) :name last :pre () :tasks ()))", "<d>")
            return parse_problem("(problem p :init () :tasks ((t0)))",
                                 domain)
        config = SolveConfig(depth_cap=cap)
        result = solve(chain(cap), config)
        assert result.status == "ok"
        assert plan_names(result) == ["a"] * (cap - 1)
        assert enumerate_all(chain(cap)).plan_count == 1
        with pytest.raises(ResourceLimit) as exc:
            solve(chain(cap + 1), config)
        assert exc.value.kind == "depth"

    def test_depth_cap_cuts_the_branch_not_the_node(self):
        # the deep branch reaches the cap in the same expansion as the flat
        # one applies (!a); only the deep one is cut
        assert outcome(deep_or_flat_problem(), SolveConfig(depth_cap=2)) == \
            ("ok", 0, ["(!a)"])

    def test_depth_cap_under_lex_holds_the_plan_key_bound(self):
        # the cut is at (0, ()), below the plan key of (!a): a plan of the
        # cut branch could be smaller, so the search stops at the cap
        config = SolveConfig(depth_cap=2, tiebreak_lex=True)
        assert outcome(deep_or_flat_problem(), config)[0] == "depth"

    def test_enumeration_keeps_every_plan_under_the_cap(self):
        with pytest.raises(CapExceeded) as exc:
            enumerate_all(walk_problem(WALK["walk-1.pref"]))
        assert exc.value.kind == "depth"
        assert exc.value.partial.plan_count == 31
        assert exc.value.partial.best_weight == Fraction(1, 2)

    def test_recursion_without_operator_ends_at_the_cap(self):
        # two methods recurse before any operator: one expansion would try
        # 2 ** 64 decompositions were the recursion not cut by name after
        # the first cut; no timeout is set
        problem = left_recursion_problem(
            "(:method (t) :name m1 :pre () :tasks ((t))) "
            "(:method (t) :name m2 :pre () :tasks ((t)))")
        assert outcome(problem)[0] == "depth"
        with pytest.raises(CapExceeded) as exc:
            enumerate_all(problem)
        assert (exc.value.kind, exc.value.partial.plan_count) == ("depth", 0)

    def test_recursion_without_operator_keeps_its_base_case(self):
        # (t) by (t) (!b), (t) (!c) or (!a): once the (t) (!b) chain has
        # reached the cap, the root's expansion cuts (t) (!c) by name and
        # keeps the (!a) at each nesting
        problem = left_recursion_problem(
            "(:method (t) :name m1 :pre () :tasks ((t) (!b))) "
            "(:method (t) :name m2 :pre () :tasks ((t) (!c))) "
            "(:method (t) :name m3 :pre () :tasks ((!a)))")
        assert outcome(problem) == ("ok", 0, ["(!a)"])
        for caps, count in ((None, 64), (EnumerationCaps(max_plans=5), 5)):
            # the depth cut comes before the plan cap and is the kind raised
            with pytest.raises(CapExceeded) as exc:
                enumerate_all(problem, caps)
            assert (exc.value.kind, exc.value.partial.plan_count) == \
                ("depth", count)

    def test_name_cut_stays_in_the_expansion_that_cut(self):
        # the root's expansion cuts (deep); the expansion of each child then
        # decomposes (t o1) into (t o2), named as an open task, and must not
        # cut it. (!b) only declares the predicates of the init facts
        domain = parse_domain("""
        (domain d
          (:operator (!a) :pre () :del () :add ())
          (:operator (!b ?x ?y) :pre ((next ?x ?y) (last ?y)) :del () :add ())
          (:method (deep) :name d1 :pre () :tasks ((deep)))
          (:method (deep) :name d2 :pre () :tasks ((!a) (t o1)))
          (:method (t ?x) :name t1 :pre ((next ?x ?y)) :tasks ((t ?y)))
          (:method (t ?x) :name t2 :pre ((last ?x)) :tasks ((!a))))""",
                              "<d>")
        problem = parse_problem("(problem p :init ((next o1 o2) (last o2)) "
                                ":tasks ((deep)))", domain)
        assert outcome(problem) == ("ok", 0, ["(!a)", "(!a)"])
        with pytest.raises(CapExceeded) as exc:
            enumerate_all(problem)
        assert (exc.value.kind, exc.value.partial.plan_count) == ("depth", 62)

    @pytest.mark.parametrize("seconds", [0.005, 0.1])
    def test_one_wide_expansion_ends_at_the_timeout(self, monkeypatch,
                                                    seconds):
        # 3 ** 10 = 59,049 children in the root's one expansion; the clock
        # passes the deadline after about 5 or 100 reads, before or after
        # the expansion's first child
        clock = FakeClock()
        monkeypatch.setattr(search, "time", clock)
        monkeypatch.setattr(oracle, "time", clock)
        with pytest.raises(ResourceLimit) as exc:
            solve(wide_chain_problem(), SolveConfig(timeout=seconds))
        assert exc.value.kind == "time"
        assert exc.value.stats.nodes_considered < 1000
        with pytest.raises(CapExceeded) as exc:
            enumerate_all(wide_chain_problem(),
                          EnumerationCaps(max_seconds=seconds))
        assert exc.value.kind == "time"
        assert exc.value.partial.stats.nodes_expanded < 1000

    def test_enumeration_takes_the_depth_cap_of_its_config(self):
        # at cap 2 the deep branch is cut and only the flat (!a) is left
        with pytest.raises(CapExceeded) as exc:
            enumerate_all(deep_or_flat_problem(),
                          config=SolveConfig(depth_cap=2))
        partial = exc.value.partial
        assert exc.value.kind == "depth"
        assert partial.plan_count == 1
        assert [str(e) for e in partial.best_plan] == ["(!a)"]
        assert enumerate_all(deep_or_flat_problem(),
                             config=SolveConfig(depth_cap=3)).plan_count == 2

    def test_cross_check_runs_both_sides_at_its_cap(self):
        # the enumerator stops at the same cap as the search, so the capped
        # enumeration is what cross_check reports
        config = SolveConfig(depth_cap=2, tiebreak_lex=True)
        with pytest.raises(CapExceeded) as exc:
            cross_check(deep_or_flat_problem(), config=config)
        assert (exc.value.kind, exc.value.partial.plan_count) == ("depth", 1)
        report = cross_check(deep_or_flat_problem(),
                             config=SolveConfig(depth_cap=3))
        assert report.ok and report.plan_count == 2


STEP_01 = "(!step n0 n1)"
STEP_10 = "(!step n1 n0)"
STEP_12 = "(!step n1 n2)"


def tied_trap_problem():
    """Two ways to do (top) at weight 0: (!a) under four nested tasks, or a
    (loop) that applies (!a) and recurses, one more task open on each lap."""
    domain = parse_domain("""
    (domain d
      (:operator (!a) :pre () :del () :add ())
      (:method (top) :name deep :pre () :tasks ((t0)))
      (:method (top) :name recur :pre () :tasks ((loop)))
      (:method (t0) :name c0 :pre () :tasks ((t1)))
      (:method (t1) :name c1 :pre () :tasks ((t2)))
      (:method (t2) :name c2 :pre () :tasks ((t3)))
      (:method (t3) :name c3 :pre () :tasks ((!a)))
      (:method (loop) :name again :pre () :tasks ((!a) (loop)))
    )""", "<d>")
    return parse_problem("(problem p :init () :tasks ((top)))", domain)


# name -> (problem, depth cap, (status, weight, plan)); each outcome is the
# one the search had when it broke weight ties shortest plan first
RECURSION_CASES = {
    "walk-trivial": (lambda: walk_problem("(>> ((and) 0))"), 64,
                     ("ok", 0, [STEP_01, STEP_12])),
    "walk-back-once": (
        lambda: walk_problem(
            "(>> ((eventually (occ (!step n1 n0))) 0) ((and) 1))"), 64,
        ("ok", 0, [STEP_01, STEP_10, STEP_01, STEP_12])),
    "tied-trap-at-cap": (tied_trap_problem, 5, ("ok", 0, ["(!a)"])),
    "tied-trap": (tied_trap_problem, 64, ("ok", 0, ["(!a)"])),
}


class TestRecursion:
    # Deepest plan first alone dives into the n0 <-> n1 cycle of the walk,
    # each lap one more open (go n2), and stops at the depth cap; fewer open
    # tasks first leaves each lap behind the walk's way out. In the tied
    # trap the loop still reaches a cap of 5 before the deep (!a) is popped,
    # on a tie of weight 0, and the search goes on to that plan
    @pytest.mark.parametrize("name", list(RECURSION_CASES))
    def test_outcome_of_shortest_first(self, name):
        make, cap, expected = RECURSION_CASES[name]
        assert outcome(make(), SolveConfig(depth_cap=cap)) == expected


class TestExpansion:
    def test_root_of_two_method_task_has_two_children(self):
        problem = mini_problem()
        config = SolveConfig()
        root = make_root(problem)
        assert root.agenda
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
        root = make_root(problem)
        children = _Expander(problem, config, SearchStats()).expand(root)
        assert [c.trace.events[-1].name for c in children] == ["book-train"]

    def test_a_task_starts_once_per_decomposition(self, monkeypatch):
        # arrange-trans has two applicable methods; both children continue
        # from the one task-start cell
        problem = mini_problem()
        root = make_root(problem)
        children = _Expander(problem, SolveConfig(), SearchStats()).expand(root)
        starts = set()
        for child in children:
            cell = child.trace
            while cell.parent is not None:
                if isinstance(cell.event, StartEvent) \
                        and cell.event.inst.kind == "task":
                    starts.add(id(cell))
                cell = cell.parent
        assert len(children) == 2 and len(starts) == 1

        # a task with no applicable method emits nothing
        text = MINI_DOMAIN.replace("by-train-trans :pre ()",
                                   "by-train-trans :pre ((closed))") \
            .replace("by-car-trans :pre ()", "by-car-trans :pre ((closed))")
        problem = parse_problem("(problem p :init () :tasks ((arrange-trans)))",
                                parse_domain(text, "<mini>"))
        root = make_root(problem)
        extends = []
        real_extend = Trace.extend
        monkeypatch.setattr(Trace, "extend", lambda *a: extends.append(a)
                            or real_extend(*a))
        assert _Expander(problem, SolveConfig(), SearchStats()).expand(root) \
            == []
        assert extends == []

    @pytest.mark.parametrize("name", ["travel-3", "zeno-1", "logistics-1"]
                             + [f"random-{seed}" for seed in range(10)])
    def test_terminal_iff_empty_agenda(self, name):
        # over the whole search tree: a node with an empty agenda is a
        # complete plan whose bounds are both its direct-semantics weight;
        # any other node still has an event to fire, and the empty-agenda
        # nodes are exactly the enumerated plans
        problem = corpus_problem(name)
        gpf, universe = problem.preference, problem.constants
        exp = _Expander(problem, SolveConfig(), SearchStats())
        frontier, plans = [make_root(problem)], []
        while frontier:
            node = frontier.pop()
            if not node.agenda:
                assert not node.trace.final_state.executing
                b = bounds(node.progressed)
                assert b.opt == b.pess \
                    == weight_gpf(node.trace, gpf, universe)
                plans.append(node.trace.plan())
                continue
            assert any(type(x) is not Literal for x in node.agenda)
            children = exp.expand(node)
            assert all(c.trace.length > node.trace.length for c in children)
            frontier.extend(children)
        enumerated = enumerate_all(problem).traces
        assert sorted(map(str, plans)) \
            == sorted(str(t.plan()) for t in enumerated)

    def test_plan_length_counts_operator_events(self):
        # every node of travel-3's search tree, terminal nodes included
        problem = load_fixture("travel", 3)
        root = make_root(problem)
        assert root.plan_length == 0
        exp = _Expander(problem, SolveConfig(), SearchStats())
        frontier, seen = [root], 0
        while frontier:
            node = frontier.pop()
            assert node.plan_length == len(node.trace.plan())
            seen += 1
            if node.agenda:
                frontier.extend(exp.expand(node))
        assert seen > 100

    def test_terminal_node_bounds_equal_weight(self):
        problem = mini_problem(pref="(eventually (occ (!pay)))")
        result = solve(problem)
        assert result.weight == 0


def _reference_satisfiers(pre, state, sigma):
    """Each positive literal unified with every fact, all facts in sorted
    order; then the negatives, which must be ground."""
    positives = [l for l in pre if l.positive]
    negatives = [l for l in pre if not l.positive]
    facts = sorted(state.facts)

    def bind(i, sigma):
        if i == len(positives):
            if all(state.holds(subst_literal(l, sigma)) for l in negatives):
                yield sigma
            return
        atom = positives[i].atom
        for fact in facts:
            ext = unify_args(atom.args, fact.args, sigma) \
                if fact.pred == atom.pred else None
            if ext is not None:
                yield from bind(i + 1, ext)

    return list(bind(0, dict(sigma)))


class TestSatisfiers:
    def test_same_bindings_in_the_same_order_as_a_full_scan(self):
        # every decomposition on every enumerated trace of the zeno and
        # logistics fixtures and of 20 random instances; zeno's (link ?via
        # ?to) is ground once (link ?from ?via) has bound ?via. The states
        # are a search's, operator successors among them, so their fact
        # indexes share the search's table of rigid predicates: zeno's
        # link, logistics' road and vehicle are matched from it.
        problems = [load_fixture(suite, k) for suite in ("zeno", "logistics")
                    for k in (1, 2, 3)]
        problems += [gen_instance(GenConfig(seed=seed))[0]
                     for seed in range(20)]
        calls, branches, rigid = 0, set(), set()
        for problem in problems:
            tables = set()
            for trace in enumerate_all(problem).traces:
                for event, state in zip(trace.events, trace.states):
                    tables.add(id(state._index.rigid))
                    if not (isinstance(event, StartEvent)
                            and event.inst.kind == "task"):
                        continue
                    task = Task(event.inst.name, event.inst.args)
                    for method, sigma0 in relevant_methods(task,
                                                           problem.domain):
                        expected = _reference_satisfiers(method.pre, state,
                                                         sigma0)
                        assert list(satisfiers(method.pre, state, sigma0)) \
                            == expected
                        calls += 1
                        if expected:
                            branches.add(method.branch)
                    rigid.update(k if type(k) is str else k[0]
                                 for k in state._index.rigid)
            assert len(tables) <= 1  # one rigid table per search
        assert calls > 1000 and "move-one-stop" in branches
        assert {"link", "road", "vehicle"} <= rigid

    def test_an_operator_successor_reads_no_stale_list(self):
        # (at ?x) is indexed in the root state; (!go a b) deletes (at a)
        # and adds (at b), and its successor must see only (at b); a start
        # event's successor shares the index of its facts
        domain = parse_domain(GO_DOMAIN, "<go>")
        root = State(frozenset({Atom("at", ("a",)), Atom("road", ("a", "b")),
                                Atom("road", ("b", "c"))})).indexed(domain)
        pre = (_literal(["at", "?x"]),)
        assert [s["?x"] for s in satisfiers(pre, root, {})] == ["a"]
        moved = apply_event(root, OperatorEvent("go", ("a", "b"), 0), domain)
        assert [s["?x"] for s in satisfiers(pre, moved, {})] == ["b"]
        assert moved._index is not root._index
        assert moved._index.rigid is root._index.rigid
        started = apply_event(moved, StartEvent(Inst("task", "t", (), 1)),
                              domain)
        assert started._index is moved._index
        assert list(satisfiers(pre, started, {})) \
            == _reference_satisfiers(pre, started, {})

    def test_a_rigid_predicate_matched_on_a_bound_argument(self):
        # (road ?from ?to) with ?from bound reads the rigid list of the
        # roads out of ?from, which every state of the search shares
        domain = parse_domain(GO_DOMAIN, "<go>")
        facts = "((at a) (road a b) (road b c) (road a c) (road c a))"
        root = State(frozenset(_literal(f).atom
                               for f in _sexprs(facts))).indexed(domain)
        moved = apply_event(root, OperatorEvent("go", ("a", "b"), 0), domain)
        pre = (_literal(["at", "?from"]), _literal(["road", "?from", "?to"]))
        for state, tos in ((root, ["b", "c"]), (moved, ["c"])):
            expected = _reference_satisfiers(pre, state, {})
            assert list(satisfiers(pre, state, {})) == expected
            assert [s["?to"] for s in expected] == tos
        assert "road" not in domain._changed
        assert root._index.rigid[("road", 0, "a")] == [
            Atom("road", ("a", "b")), Atom("road", ("a", "c"))]
        assert moved._index.rigid is root._index.rigid
        assert ("road", 0, "b") in root._index.rigid  # filled by moved

    # hand-built states for the branches the fixtures never reach: a negative
    # precondition, a fact of another arity, and a repeated variable or a
    # constant that rejects a fact of a non-ground pattern
    @pytest.mark.parametrize("pre, facts, sigma, xs", [
        ("((at ?x) (not (seen ?x)) (not (seen ?y)))",
         "((at a) (at b) (at c) (seen b) (seen d))", {"?y": "d"}, []),
        ("((at ?x) (not (seen ?x)) (not (seen ?y)))",
         "((at a) (at b) (at c) (seen b))", {"?y": "d"}, ["a", "c"]),
        ("((p ?x))", "((p a b) (p c) (p) (p a))", {}, ["a", "c"]),
        ("((p ?x ?x))", "((p a a) (p a b) (p b b) (p b a))", {}, ["a", "b"]),
        ("((p a ?x) (q ?x a))", "((p a b) (p b c) (p a c) (q c a) (q b b))",
         {}, ["c"]),
    ], ids=["negative-rejects-all", "negative", "other-arity",
            "repeated-variable", "constant"])
    def test_branches_match_a_full_scan(self, pre, facts, sigma, xs):
        pre = tuple(_literal(l) for l in _sexprs(pre))
        state = State(frozenset(_literal(a).atom for a in _sexprs(facts)))
        expected = _reference_satisfiers(pre, state, sigma)
        assert list(satisfiers(pre, state, sigma)) == expected
        assert [s["?x"] for s in expected] == xs

    def test_unbound_negative_precondition_raises(self):
        pre = (_literal(["at", "?x"]), _literal(["not", ["seen", "?y"]]))
        state = State(frozenset({Atom("at", ("a",))}))
        with pytest.raises(UnboundVariable):
            list(satisfiers(pre, state, {}))

    def test_method_with_a_negative_precondition_cross_checks(self):
        domain = parse_domain(NEGATIVE_DOMAIN, "<neg>")
        problem = parse_problem(
            "(problem p :init ((at a) (at b) (at c) (seen b)) :tasks"
            " ((visit) (visit)))", domain)
        problem.preference = parse_preference(
            "(>> ((occ (!go c)) 0) ((occ (!go a)) 0.5))", domain)
        report = cross_check(problem)
        assert report.ok, report.checks
        # a and c, in either order: the second visit cannot repeat the first
        assert report.plan_count == 2


GO_DOMAIN = """
(domain go
  (:operator (!go ?from ?to) :pre ((at ?from) (road ?from ?to))
    :del ((at ?from)) :add ((at ?to))))
"""

NEGATIVE_DOMAIN = """
(domain neg
  (:operator (!go ?x) :pre ((at ?x)) :del () :add ((seen ?x)))
  (:method (visit) :name fresh :pre ((at ?x) (not (seen ?x)))
    :tasks ((!go ?x))))
"""


def _sexprs(text):
    (expr,) = parse_sexprs(text)
    return expr


def _literal(x):
    if x[0] == "not":
        return Literal(Atom(x[1][0], tuple(x[1][1:])), positive=False)
    return Literal(Atom(x[0], tuple(x[1:])), positive=True)


UNORDERED_DOMAIN = """
(domain u
  (:operator (!a) :pre () :del () :add ((done-a)))
  (:operator (!b) :pre () :del () :add ((done-b)))
  (:operator (!c) :pre () :del ((done-a)) :add ((done-c)))
  (:method (two) :name two-any :pre () :tasks ((!a) (!b)) :unordered)
  (:method (two) :name two-seq :pre () :tasks ((!b) (!c)))
  (:method (none) :name none-any :pre () :tasks () :unordered)
  (:method (nest) :name nest-any :pre () :tasks ((two) (!c) (none))
    :unordered)
  (:method (guard) :name guard-a :pre () :tasks ((two) (!c) (two))
    :before (((not (done-c)) 0) ((done-a) 1) ((not (done-a)) 2)))
  (:method (guard) :name guard-b :pre () :tasks ((!b) (two))
    :before (((not (done-a)) 0) ((done-b) 1)))
)
"""

UNORDERED_PREFS = [
    "(before (!b) (!a))",
    "(>> ((always (not (done-c))) 0) ((eventually (occ (!c))) 0.5))",
    "(&! (hold-between (!a) (done-a) (!b)) (final (done-c)))",
    "(|! (hold-after (two) (done-b)) (next (apply (two-any))))",
    "(>> ((before (!c) (!b)) 0) ((hold-before (!c) (done-b)) 0.4)"
    " ((final (done-a)) 0.7))",
]


class TestUnorderedAndBefore:
    """Methods with :unordered (two subtasks, none, nested) and with
    :before checks before the first, a middle and the last subtask."""

    def problem(self, tasks, pref=None):
        domain = parse_domain(UNORDERED_DOMAIN, "<u>")
        problem = parse_problem(f"(problem p :init () :tasks {tasks})",
                                domain)
        if pref is not None:
            problem.preference = parse_preference(pref, domain)
        return problem

    def test_domain_prints_and_parses_back(self):
        domain = parse_domain(UNORDERED_DOMAIN, "<u>")
        text = print_domain(domain)
        assert " :unordered)" in text and " :before (((not (done-c)) 0) " in text
        assert parse_domain(text) == domain

    @pytest.mark.parametrize("tasks,count", [
        ("((two))", 3),    # a b | b a | b c
        ("((none))", 1),   # the empty plan
        ("((nest))", 18),  # 3! orders of three members, (two) 3 ways
        ("((guard))", 9),  # guard-a 2 x 3 (two-seq fails (done-a)), guard-b 3
        ("((guard) (none) (two))", 27),
    ])
    def test_enumerated_plan_counts(self, tasks, count):
        assert enumerate_all(self.problem(tasks)).plan_count == count

    def test_unordered_plans(self):
        plans = {tuple(e.name for e in t.plan()) for t in enumerate_all(
            self.problem("((two))")).traces}
        assert plans == {("a", "b"), ("b", "a"), ("b", "c")}

    @pytest.mark.parametrize("pref", UNORDERED_PREFS)
    @pytest.mark.parametrize("tasks", ["((two))", "((none))", "((nest))",
                                       "((guard))", "((guard) (none) (two))"])
    def test_best_first_weight_is_the_enumerated_minimum(self, tasks, pref):
        problem = self.problem(tasks, pref)
        best = enumerate_all(problem).best_weight
        assert solve(problem).weight == best
        assert solve(problem, SolveConfig(tiebreak_lex=True)).weight == best
        assert cross_check(problem).ok


# --- duplicate detection ----------------------------------------------------------

def disable_dedup(monkeypatch):
    """Duplicate detection off: every popped node gets a fresh signature."""
    monkeypatch.setattr(search, "_signature", lambda *_: object())


def outcome(problem, config=None):
    """(status, weight, plan text), with a cap's kind as the status."""
    try:
        result = solve(problem, config)
    except ResourceLimit as exc:
        return exc.kind, None, None
    return result.status, result.weight, [str(e) for e in result.plan or ()]


def rescored(problem):
    """(status, weight) of solve, with a cap's kind as the status, once the
    returned trace has replayed and rescored to that weight."""
    try:
        result = solve(problem)
    except ResourceLimit as exc:
        return exc.kind, None
    if result.trace is not None:
        validate_trace(result.trace, problem.domain)
        assert weight_gpf(result.trace, problem.preference,
                          problem.constants) == result.weight
    return result.status, result.weight


def corpus_problem(name):
    """random-SEED is a randgen instance, negated-SEED one whose palette
    also holds not, SUITE-K a fixture."""
    suite, _, k = name.rpartition("-")
    if suite == "random":
        return gen_instance(GenConfig(seed=int(k)))[0]
    if suite == "negated":
        return gen_instance(GenConfig(
            seed=int(k), constructs=DEFAULT_CONSTRUCTS | {"not"}))[0]
    return load_fixture(suite, int(k))


DIFFERENTIAL = ([f"random-{seed}" for seed in range(300)]
                + [f"{suite}-{k}" for suite, k in fixture_ids()])

# instances on which a closed set that ignores --tiebreak-lex returns a plan
# of the optimal weight that is not the lex-smallest one
LEX_SENSITIVE = ([f"random-{seed}" for seed in (
    5, 8, 10, 20, 22, 25, 30, 57, 59, 66, 73, 74, 75, 87, 99, 105, 128, 143,
    146, 147, 168, 177, 183, 197, 266, 268)]
    + [f"{suite}-{k}" for suite in ("zeno", "logistics") for k in (1, 2, 3)])

# One hand-built case per part of the node signature, in the order
# _signature returns them. Each pairs two branches whose nodes meet with
# everything but that part equal, the worse branch first in method order so
# that its node is popped first; the right answer needs the other node
# expanded. Each case is (domain body, tasks, preference, right weight).
SIGNATURE_CASES = {
    # (!a) adds (x); the branches meet after (!c)
    "facts": ("""
      (:operator (!a) :pre () :del () :add ((x)))
      (:operator (!b) :pre () :del () :add ())
      (:operator (!c) :pre () :del () :add ())
      (:method (pick) :name pb :pre () :tasks ((!b)))
      (:method (pick) :name pa :pre () :tasks ((!a)))
      (:method (top) :name t :pre () :tasks ((pick) (!c)))""",
              "((top))", "(final (x))", 0),
    # after (!a) one branch still has (!x) to do, the other (!y)
    "agenda": ("""
      (:operator (!a) :pre () :del () :add ())
      (:operator (!x) :pre () :del () :add ((x)))
      (:operator (!y) :pre () :del () :add ())
      (:method (pick) :name pb :pre () :tasks ((!a) (!y)))
      (:method (pick) :name pa :pre () :tasks ((!a) (!x)))""",
               "((pick))", "(final (x))", 0),
    # heat then cool leaves the facts as two waits do, but the preference
    # then only waits for (done)
    "residuals": ("""
      (:operator (!heat) :pre () :del () :add ((hot)))
      (:operator (!cool) :pre () :del ((hot)) :add ())
      (:operator (!wait) :pre () :del () :add ())
      (:operator (!finish) :pre () :del () :add ((done)))
      (:method (pick) :name pb :pre () :tasks ((!wait) (!wait)))
      (:method (pick) :name pa :pre () :tasks ((!heat) (!cool)))
      (:method (top) :name t :pre () :tasks ((pick) (!wait) (!finish)))""",
                  "((top))", "(eventually (and (hot) (eventually (done))))",
                  0),
    # only one branch has terminated the t1 of the hold-after; its residual
    # is the same on both until (!setp)
    "terminated": ("""
      (:operator (!a) :pre () :del () :add ())
      (:operator (!b) :pre () :del () :add ())
      (:operator (!wait) :pre () :del () :add ())
      (:operator (!setp) :pre () :del () :add ((p)))
      (:method (pick) :name pb :pre () :tasks ((!b)))
      (:method (pick) :name pa :pre () :tasks ((!a)))
      (:method (top) :name t :pre () :tasks ((pick) (!wait) (!setp)))""",
                   "((top))", "(hold-after (!a) (p))", 0),
}

# Two branches that meet after different numbers of decompositions: one does
# (!w) directly, the other through (wrap). The agenda decides the nesting
# depth, so the closed set merges them. Only (!x) breaks the preference, so
# the search comes back to the second branch before the first one ends, and
# meets the first one's node after (!v).
MERGE_CASE = ("""
      (:operator (!w) :pre () :del () :add ())
      (:operator (!v) :pre () :del () :add ())
      (:operator (!x) :pre () :del () :add ((x)))
      (:method (pick) :name pb :pre () :tasks ((!w)))
      (:method (pick) :name pa :pre () :tasks ((wrap)))
      (:method (wrap) :name wr :pre () :tasks ((!w)))
      (:method (top) :name t :pre () :tasks ((pick) (!v) (!x)))""",
              "((top))", "(always (not (x)))", 1)


def signature_case(body, tasks, pref, right):
    domain = parse_domain(f"(domain d {body})", "<d>")
    problem = parse_problem(f"(problem p :init () :tasks {tasks})", domain)
    problem.preference = parse_preference(pref, domain)
    return problem, right


class TestDuplicateDetection:
    @pytest.mark.parametrize("name", DIFFERENTIAL)
    def test_same_answer_as_without(self, name, monkeypatch):
        # the same status and weight; the plans may differ, as a node popped
        # later can carry a smaller key, so each is replayed and rescored
        problem = corpus_problem(name)
        with_dedup = rescored(problem)
        disable_dedup(monkeypatch)
        assert with_dedup == rescored(problem)

    @pytest.mark.parametrize("name", LEX_SENSITIVE)
    def test_lex_plans_are_those_without_dedup(self, name, monkeypatch):
        problem = corpus_problem(name)
        lex = SolveConfig(tiebreak_lex=True)
        with_dedup = outcome(problem, lex)
        disable_dedup(monkeypatch)
        assert with_dedup == outcome(problem, lex)

    @pytest.mark.parametrize("part", list(SIGNATURE_CASES))
    def test_each_signature_part_is_needed(self, part, monkeypatch):
        problem, right = signature_case(*SIGNATURE_CASES[part])

        def answer():
            return outcome(problem)[1]

        assert answer() == right
        # dropping the part merges the two nodes and loses the right answer
        i = list(SIGNATURE_CASES).index(part)
        full = search._signature
        monkeypatch.setattr(search, "_signature",
                            lambda *a: full(*a)[:i] + full(*a)[i + 1:])
        assert answer() != right
        disable_dedup(monkeypatch)
        assert answer() == right

    def test_signature_has_one_entry_per_case(self):
        problem, _ = signature_case(*SIGNATURE_CASES["facts"])
        root = make_root(problem)
        assert len(search._signature(root)) == len(SIGNATURE_CASES)

    def test_terminated_bits_are_read_off_the_state(self):
        # a node's bits, inherited and set at operator and end events, are
        # terminated_at of each ref on its state, as the signature had them
        problems = [load_fixture(suite, k) for suite, k in fixture_ids()]
        problems += [gen_instance(GenConfig(seed=s))[0] for s in range(30)]
        nodes = set_bits = 0
        for problem in problems:
            root = make_root(problem)
            refs = tuple(dict.fromkeys(r for phi in root.progressed.residuals
                                       for r in search._terminated_refs(phi)))
            exp = _Expander(problem, SolveConfig(), SearchStats(), refs)
            frontier = [root]
            while frontier and nodes < 20_000:
                node = frontier.pop()
                state = node.trace.final_state
                assert node.terminated == sum(
                    1 << i for i, r in enumerate(refs)
                    if semantics.terminated_at(state, r))
                nodes += 1
                set_bits += node.terminated != 0
                if node.agenda:
                    frontier.extend(exp.expand(node))
        assert nodes > 1000 and set_bits > 100

    def test_branches_of_different_decomposition_counts_merge(self,
                                                                monkeypatch):
        problem, right = signature_case(*MERGE_CASE)
        on = solve(problem)
        assert on.weight == right == enumerate_all(problem).best_weight
        assert on.stats.duplicates >= 1
        disable_dedup(monkeypatch)
        off = solve(problem)
        assert off.weight == right
        assert on.stats.nodes_expanded < off.stats.nodes_expanded

    def test_duplicates_are_counted(self, monkeypatch):
        problem = corpus_problem("random-8")
        on = solve(problem).stats
        disable_dedup(monkeypatch)
        off = solve(problem).stats
        assert on.duplicates > 0 and off.duplicates == 0
        assert on.nodes_expanded < off.nodes_expanded

    def test_executing_instances_are_the_agenda_end_events(self):
        # why the signature leaves the executing set and the depth out:
        # every node of the search trees of these problems executes exactly
        # the instances whose end events it has on its agenda, so its task
        # end events count the tasks it is nested in
        problems = [load_fixture("travel", 3), load_fixture("zeno", 1)]
        problems += [gen_instance(GenConfig(seed=s))[0] for s in range(10)]
        seen = 0
        for problem in problems:
            exp = _Expander(problem, SolveConfig(), SearchStats())
            frontier = [make_root(problem)]
            while frontier:
                node = frontier.pop()
                executing = node.trace.final_state.executing
                ends = [x.inst for x in node.agenda if type(x) is EndEvent]
                assert len(ends) == len(executing)
                assert set(ends) == executing
                assert sum(i.kind == "task" for i in ends) \
                    == sum(i.kind == "task" for i in executing) \
                    == node.nesting
                seen += 1
                if node.agenda:
                    frontier.extend(exp.expand(node))
        assert seen > 1000


def plan_key(plan):
    return [(e.name,) + e.args for e in plan]


# The lex-smallest plan is b c w c z, by method two. After b c by method one
# and after b c w c by method two the nodes are equal, and the first plan
# key is a proper prefix of the second; skipping the second node would
# return b c z.
PREFIX_CASE = ("""
      (:operator (!b) :pre () :del () :add ())
      (:operator (!c) :pre () :del () :add ())
      (:operator (!w) :pre () :del () :add ())
      (:operator (!z) :pre () :del () :add ())
      (:method (pick) :name one :pre () :tasks ((!b)))
      (:method (pick) :name two :pre () :tasks ((!b) (!c) (!w)))
      (:method (top) :name t :pre () :tasks ((pick) (!c) (!z)))""",
               "((top))", "(and)", 0)


class TestTiebreakLex:
    @pytest.mark.parametrize("name", DIFFERENTIAL)
    def test_plan_is_the_smallest_enumerated_optimal_plan(self, name):
        problem = corpus_problem(name)
        oracle = enumerate_all(problem)
        result = solve(problem, SolveConfig(tiebreak_lex=True))
        if oracle.plan_count == 0:
            assert result.status == "noplan"
            return
        smallest = min(plan_key(t.plan()) for t, w in zip(
            oracle.traces, oracle.all_weights) if w == oracle.best_weight)
        assert result.weight == oracle.best_weight
        assert plan_key(result.plan) == smallest

    def test_equal_node_behind_a_proper_prefix_is_expanded(self,
                                                          monkeypatch):
        problem, right = signature_case(*PREFIX_CASE)
        lex = SolveConfig(tiebreak_lex=True)
        result = solve(problem, lex)
        assert result.weight == right
        assert plan_names(result) == ["b", "c", "w", "c", "z"]
        # without the exception the equal node is skipped
        monkeypatch.setattr(search, "_proper_prefix", lambda *_: False)
        assert plan_names(solve(problem, lex)) == ["b", "c", "z"]

    def test_duplicates_are_skipped(self):
        lex = SolveConfig(tiebreak_lex=True)
        assert sum(solve(corpus_problem(name), lex).stats.duplicates
                   for name in LEX_SENSITIVE) > 0
