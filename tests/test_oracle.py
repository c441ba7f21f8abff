"""Brute-force enumeration and the planner/enumerator cross checks."""

import random
import re
from fractions import Fraction

import pytest

from conftest import FIXTURES, MINI_DOMAIN, fixture_ids, load_fixture
from test_search import corpus_problem

from prefhtn import cli, oracle, search, semantics
from prefhtn import formulas as F
from prefhtn import progression as P
from prefhtn.errors import CapExceeded
from prefhtn.model import Domain
from prefhtn.oracle import EnumerationCaps, cross_check, enumerate_all
from prefhtn.parser import (empty_preference, parse_domain,
                            parse_preference, parse_problem)
from prefhtn.randgen import GenConfig, gen_files
from prefhtn.search import solve


class StillClock:
    """A stand-in for the time module whose clock moves only when a test
    moves it."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


class TestEnumerateAll:
    @pytest.mark.parametrize("suite,k,count", [
        ("travel", 1, 13),
        ("travel", 4, 2),
        ("zeno", 1, 9),
        ("logistics", 1, 4),
    ])
    def test_hand_counted_plan_totals(self, suite, k, count):
        assert enumerate_all(load_fixture(suite, k)).plan_count == count

    def test_unsolvable_counts_zero(self):
        text = MINI_DOMAIN.replace(
            "(:operator (!pay) :pre ()",
            "(:operator (!pay) :pre ((blocked))")
        domain = parse_domain(text, "<mini>")
        problem = parse_problem(
            "(problem p :init () :tasks ((arrange-trans)))", domain)
        oracle = enumerate_all(problem)
        assert oracle.plan_count == 0
        assert oracle.best_weight is None and oracle.best_plan is None

    def test_plan_cap_carries_partial_result(self):
        with pytest.raises(CapExceeded) as exc:
            enumerate_all(load_fixture("travel", 1),
                          EnumerationCaps(max_plans=1))
        assert exc.value.kind == "plans"
        assert exc.value.partial.plan_count == 1

    @pytest.mark.parametrize("caps, kind", [
        (EnumerationCaps(max_seconds=2.5), "time"),
        (EnumerationCaps(max_plans=5, max_seconds=1.5), "plans"),
    ])
    def test_scoring_stops_at_the_time_cap(self, monkeypatch, caps, kind):
        # the clock stands still while travel-1's 13 plans are enumerated
        # and moves 1 s per plan scored: 3 (or 2) are scored by the cap
        full = enumerate_all(load_fixture("travel", 1))
        clock = StillClock()
        monkeypatch.setattr(oracle, "time", clock)
        monkeypatch.setattr(search, "time", clock)
        weigh = semantics.weight_gpf

        def slow_weight(*args):
            clock.now += 1.0
            return weigh(*args)

        monkeypatch.setattr(semantics, "weight_gpf", slow_weight)
        with pytest.raises(CapExceeded) as exc:
            enumerate_all(load_fixture("travel", 1), caps)
        partial, n = exc.value.partial, int(caps.max_seconds) + 1
        assert exc.value.kind == kind
        assert partial.plan_count == min(13, caps.max_plans)
        assert partial.all_weights == full.all_weights[:n]
        assert [t.events for t in partial.traces] \
            == [t.events for t in full.traces[:n]]
        assert partial.best_weight == min(full.all_weights[:n])

    def test_deterministic_across_runs(self):
        problem = load_fixture("zeno", 1)
        a = enumerate_all(problem)
        b = enumerate_all(problem)
        assert a.all_weights == b.all_weights
        assert a.best_plan == b.best_plan

    def test_best_weight_is_minimum(self):
        oracle = enumerate_all(load_fixture("travel", 2))
        assert oracle.best_weight == min(oracle.all_weights)
        assert all(oracle.best_weight <= w for w in oracle.all_weights)

    def test_counts_ignore_preference(self):
        # the enumerator explores the decomposition space only; stripping the
        # preference must not change what counts as a plan
        problem = load_fixture("travel", 1)
        with_pref = enumerate_all(problem).plan_count
        problem.preference = empty_preference()
        assert enumerate_all(problem).plan_count == with_pref


class TestCrossCheck:
    @pytest.mark.parametrize("suite,k", fixture_ids())
    def test_fixtures_pass_all_checks(self, suite, k):
        report = cross_check(load_fixture(suite, k))
        assert report.ok, report.checks
        assert set(report.checks) == {"weight-match", "progression-direct",
                                      "prefix-monotone", "bounds-converged"}

    def test_unsolvable_reports_noplan_agreement(self):
        text = MINI_DOMAIN.replace(
            "(:operator (!pay) :pre ()",
            "(:operator (!pay) :pre ((blocked))")
        domain = parse_domain(text, "<mini>")
        problem = parse_problem(
            "(problem p :init () :tasks ((arrange-trans)))", domain)
        report = cross_check(problem)
        assert report.ok
        assert report.plan_count == 0

    def test_negated_corpus_passes_all_checks(self):
        # randgen with not in its palette: a not over any formula
        names = [f"negated-{seed}" for seed in range(100)]
        assert [n for n in names
                if not cross_check(corpus_problem(n)).ok] == []


def _rename_constants(text: str) -> str:
    """c1, c2, ... become ka, kb, ...: a renaming that keeps their order."""
    return re.sub(r"\bc(\d+)\b",
                  lambda m: "k" + chr(ord("a") + int(m.group(1)) - 1), text)


def _reverse_joins(gpf):
    """The GPF with the parts of every &! and |! in reverse order."""
    if isinstance(gpf, (F.Conj, F.Disj)):
        return type(gpf)(tuple(_reverse_joins(p) for p in reversed(gpf.parts)))
    if isinstance(gpf, F.Cond):
        return F.Cond(gpf.cond, _reverse_joins(gpf.body))
    return gpf


@pytest.fixture(scope="class")
def generated():
    """randgen seeds 0-99, each with its best-first optimal weight."""
    instances = [gen_files(GenConfig(seed=seed)) for seed in range(100)]
    return [(gi, solve(gi.problem).weight) for gi in instances]


def _parsed(domain_text, problem_text, preference_text):
    domain = parse_domain(domain_text, "<gen>")
    problem = parse_problem(problem_text, domain, "<gen>")
    problem.preference = parse_preference(preference_text, domain, "<gen>")
    return problem


class TestMetamorphic:
    """Rewrites that cannot change any plan's weight leave the best-first
    optimum where it was, and the cross check passes on the rewrite."""

    @staticmethod
    def _check(generated, rewrite):
        changed = 0
        for gi, expected in generated:
            problem = rewrite(gi)
            report = cross_check(problem)
            assert report.ok, (gi.problem.name, report.checks)
            assert report.solve_weight == expected, gi.problem.name
            changed += ((problem.constants, problem.preference)
                        != (gi.problem.constants, gi.problem.preference))
        return changed

    def test_order_preserving_renaming_of_constants(self, generated):
        assert self._check(generated, lambda gi: _parsed(
            *map(_rename_constants, (gi.domain_text, gi.problem_text,
                                     gi.preference_text)))) == len(generated)

    def test_permuted_joins(self, generated):
        def rewrite(gi):
            problem = _parsed(gi.domain_text, gi.problem_text,
                              gi.preference_text)
            problem.preference = _reverse_joins(problem.preference)
            return problem
        assert self._check(generated, rewrite) > 20

    def test_conjoined_tautology(self, generated):
        def rewrite(gi):
            atom = re.search(r":init \((\([^)]*\))", gi.problem_text)[1]
            return _parsed(gi.domain_text, gi.problem_text,
                           f"(&! {gi.preference_text} "
                           f"(always (or {atom} (not {atom}))))")
        assert self._check(generated, rewrite) == len(generated)

    def test_methods_declared_in_reverse_order(self, generated):
        # method order decides which of two nodes tied on the whole key is
        # pushed first, so NE moves on some instances and no weight does
        def rewrite(gi):
            d = gi.problem.domain
            domain = Domain(d.name, d.operators, d.methods[::-1])
            problem = parse_problem(gi.problem_text, domain, "<gen>")
            problem.preference = parse_preference(gi.preference_text, domain,
                                                  "<gen>")
            moved.append(solve(problem).stats.nodes_expanded
                         != solve(gi.problem).stats.nodes_expanded)
            return problem
        moved: list[bool] = []
        self._check(generated, rewrite)
        assert sum(moved) > 10

    def test_shuffled_init(self, generated):
        # the initial facts are a set: their written order reaches no weight
        rng = random.Random(29)
        shuffled = []

        def rewrite(gi):
            head, facts, tail = re.fullmatch(
                r"(.*:init \()(.*?)(\) :tasks.*)", gi.problem_text,
                re.S).groups()
            atoms = re.findall(r"\([^()]*\)", facts)
            order = rng.sample(atoms, len(atoms))
            shuffled.append(order != atoms)
            return _parsed(gi.domain_text, head + " ".join(order) + tail,
                           gi.preference_text)
        assert self._check(generated, rewrite) == 0
        assert sum(shuffled) > 20

    def test_preference_attached_after_constants_are_read(self, generated):
        # a universe read before the preference is attached leaves out the
        # preference's own constants; the cross check must read it afresh
        grown = []

        def rewrite(gi):
            domain = parse_domain(gi.domain_text, "<gen>")
            problem = parse_problem(gi.problem_text, domain, "<gen>")
            before = problem.constants
            problem.preference = parse_preference(gi.preference_text, domain,
                                                  "<gen>")
            grown.append(problem.constants != before)
            return problem
        # equal universes and preferences: the cache saw the new preference
        assert self._check(generated, rewrite) == 0
        assert sum(grown) > 0  # 4 of the 100 mention a constant of their own


def _replays_with(prefix_of):
    """A stand-in for progress_trace: each trace keeps its true final weight
    w, and its prefix bounds become prefix_of(w)."""
    real = P.progress_trace

    def fake(gpf, traces, universe, start=None):
        return [(w, prefix_of(w))
                for w, _ in real(gpf, traces, universe, start)]
    return fake


def _b(opt, pess):
    return P.Bounds(Fraction(opt), Fraction(pess))


class TestCrossCheckFailures:
    """Each broken bound sequence fails exactly the checks that read it."""

    @pytest.mark.parametrize("prefix_of, failed", [
        (lambda w: [_b(w, w + 1), _b(w - 1, w + 1), _b(w, w)],
         {"prefix-monotone"}),
        (lambda w: [_b(w - 1, w), _b(w - 1, w + 1), _b(w, w)],
         {"prefix-monotone"}),
        (lambda w: [_b(w + 1, w + 2)], {"prefix-monotone"}),
        (lambda w: [_b(w, w), _b(w - 1, w + 1)],
         {"prefix-monotone", "bounds-converged"}),
    ], ids=["opt-lowered", "pess-raised", "not-bracketed", "met-then-split"])
    def test_broken_bounds_fail_their_checks(self, monkeypatch, prefix_of,
                                             failed):
        monkeypatch.setattr(P, "progress_trace", _replays_with(prefix_of))
        report = cross_check(load_fixture("travel", 1))
        assert report.plan_count == 13
        assert {name for name, ok in report.checks.items() if not ok} == failed

    def test_repeated_bound_objects_are_still_checked(self, monkeypatch):
        # a prefix whose Bounds object is the previous prefix's is skipped;
        # the fall between two runs of repeated objects still fails
        def prefix_of(w):
            high, low = _b(w, w + 1), _b(w - 1, w + 1)
            return [high, high, low, low, _b(w, w)]
        monkeypatch.setattr(P, "progress_trace", _replays_with(prefix_of))
        report = cross_check(load_fixture("travel", 1))
        assert {name for name, ok in report.checks.items() if not ok} \
            == {"prefix-monotone"}

    def test_check_command_exits_5(self, monkeypatch, capsys):
        monkeypatch.setattr(P, "progress_trace", _replays_with(
            lambda w: [_b(w, w), _b(w - 1, w + 1)]))
        assert cli.main(["check", "--suite", str(FIXTURES / "travel")]) \
            == cli.EXIT_MISMATCH
        out = capsys.readouterr().out
        assert "bounds-converged: FAIL" in out
        assert "weight-match: FAIL" not in out
