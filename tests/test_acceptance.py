"""Acceptance suite: one test per top-level claim, one pass/fail line each.

Criteria (criterion 4 runs first in the file so its wall-time comparison
happens on a small heap; see the note above it):
  1. best-first weight equals the brute-force minimum on 50 seeded random
     instances plus all fixture suites (exact rational equality);
  2. terminal progressed weight equals the direct-semantics weight for every
     enumerated plan of those instances;
  3. along every plan prefix the optimistic bound is non-decreasing, the
     pessimistic bound non-increasing, both bracket the final weight, and
     once they meet they stay at the final weight;
  4. on large fixtures (>= 90 plans) guided search beats enumeration on both
     nodes expanded and wall time;
  5. the travel scenarios return the qualitatively expected plans;
  6. the weight-definition rules (BDF constants, APF first-match, unmet
     condition, conjunction max, disjunction min) hold on worked examples;
  7. the parser round-trips every fixture and survives fuzzed input with
     structured errors only.
"""

import gc
import random
import time
from fractions import Fraction

import pytest

from conftest import FIXTURES, fixture_ids, load_fixture

import prefhtn.formulas as F
from prefhtn.errors import ParseError
from prefhtn.oracle import EnumerationCaps, enumerate_all
from prefhtn.parser import (parse_domain, parse_preference, parse_problem,
                            print_domain, print_preference, print_problem)
from prefhtn.progression import progress_trace
from prefhtn.randgen import GenConfig, gen_instance
from prefhtn.search import SolveConfig, solve
from prefhtn.semantics import weight_apf, weight_bdf, weight_gpf

NUM_SEEDS = 50
CAPS = EnumerationCaps(max_plans=100_000, max_seconds=120.0)


def report(criterion: int, label: str, ok: bool, detail: str = ""):
    line = f"criterion {criterion} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


def _corpus():
    """Every instance under test: 50 seeded random ones plus all fixtures."""
    out = []
    for seed in range(NUM_SEEDS):
        problem, _ = gen_instance(GenConfig(seed=seed))
        out.append((f"random-{seed}", problem))
    for suite, k in fixture_ids():
        out.append((f"{suite}-{k}", load_fixture(suite, k)))
    return out


@pytest.fixture(scope="module")
def corpus_results():
    """(name, problem, oracle-with-traces, solve result) for the corpus."""
    results = []
    for name, problem in _corpus():
        oracle = enumerate_all(problem, CAPS)
        result = solve(problem)
        results.append((name, problem, oracle, result))
    return results


# runs before the corpus fixture exists: the wall-time comparison is
# sensitive to GC pressure from the thousands of traces that fixture keeps
# alive, and measuring both modes on a small heap keeps it fair and stable
#
# Each side's time is its fastest of three runs: a single 3-6 ms solve can
# lose to one scheduler pause or collector run on a shared machine, and
# such interference only ever adds time.
def test_criterion_4_guided_search_beats_enumeration():
    gc.collect()
    caps = EnumerationCaps(max_seconds=60.0)
    candidates = []
    for suite, k in fixture_ids():
        problem = load_fixture(suite, k)
        oracle = enumerate_all(problem, caps)
        if oracle.plan_count >= 90:
            candidates.append((f"{suite}-{k}", suite, k, oracle))
    assert candidates, "no large fixtures found"
    wins = 0
    details = []
    for name, suite, k, oracle in candidates:
        # every run on a fresh parse, whose grounding cache starts empty
        t_enum = min([oracle.stats.elapsed] + [
            enumerate_all(load_fixture(suite, k), caps).stats.elapsed
            for _ in range(2)])
        runs = [solve(load_fixture(suite, k), SolveConfig(timeout=60.0))
                for _ in range(3)]
        result = runs[0]
        t_solve = min(r.stats.elapsed for r in runs)
        ne_win = result.stats.nodes_expanded < oracle.stats.nodes_expanded
        t_win = t_solve < t_enum
        wins += ne_win and t_win
        details.append(
            f"{name}: NE {result.stats.nodes_expanded}"
            f"<{oracle.stats.nodes_expanded}={ne_win},"
            f" t {t_solve:.3f}<{t_enum:.3f}={t_win}")
    ratio = wins / len(candidates)
    report(4, "guided beats brute force", ratio >= 0.9,
           f"{wins}/{len(candidates)} wins; " + "; ".join(details))


def test_criterion_1_optimal_weight_matches_oracle(corpus_results):
    start = time.monotonic()
    bad = []
    solvable = 0
    for name, _, oracle, result in corpus_results:
        if oracle.plan_count == 0:
            if result.status != "noplan":
                bad.append(name)
            continue
        solvable += 1
        if result.status != "ok" or result.weight != oracle.best_weight:
            bad.append(name)
    elapsed = time.monotonic() - start
    report(1, "optimality vs oracle", not bad and solvable >= 40,
           f"{solvable} solvable of {len(corpus_results)}, "
           f"mismatches={bad}, compare={elapsed:.1f}s")


def test_criterion_2_progression_equals_direct_semantics(corpus_results):
    checked = 0
    bad = []
    for name, problem, oracle, _ in corpus_results:
        gpf, universe = problem.preference, problem.constants
        replays = progress_trace(gpf, oracle.traces, universe)
        for trace, (final, _) in zip(oracle.traces, replays):
            if final != weight_gpf(trace, gpf, universe):
                bad.append(name)
                break
            checked += 1
    report(2, "progression = direct semantics", not bad and checked > 0,
           f"{checked} plans checked, mismatches={bad}")


def test_criterion_3_prefix_bound_properties(corpus_results):
    checked = 0
    bad = []
    for name, problem, oracle, _ in corpus_results:
        replays = progress_trace(problem.preference, oracle.traces,
                                 problem.constants)
        for final, bnds in replays:
            prev = None
            converged = False
            for b in bnds:
                ok = (b.opt <= final <= b.pess
                      and (prev is None
                           or (b.opt >= prev.opt and b.pess <= prev.pess)))
                if b.opt == b.pess:
                    converged = True
                if converged:
                    ok = ok and b.opt == b.pess == final
                if not ok:
                    bad.append(name)
                    break
                prev = b
            else:
                checked += 1
                continue
            break
    report(3, "prefix bound monotonicity", not bad and checked > 0,
           f"{checked} plans checked, violations={bad}")


def test_criterion_5_travel_scenarios():
    start = time.monotonic()
    r1 = solve(load_fixture("travel", 1))
    no_mastercard = (r1.status == "ok" and
                     ("pay", ("mastercard",)) not in
                     [(e.name, e.args) for e in r1.plan])

    r2 = solve(load_fixture("travel", 2))
    books_train = (r2.status == "ok" and
                   ("book", ("train",)) in
                   [(e.name, e.args) for e in r2.plan])

    p3 = load_fixture("travel", 3)
    r3 = solve(p3)
    oracle3 = enumerate_all(load_fixture("travel", 3), CAPS)
    aggregate_min = r3.status == "ok" and r3.weight == oracle3.best_weight

    elapsed = time.monotonic() - start
    report(5, "travel scenario conformance",
           no_mastercard and books_train and aggregate_min
           and elapsed < 10.0,
           f"no-mastercard={no_mastercard}, books-train={books_train}, "
           f"aggregate-min={aggregate_min}, {elapsed:.1f}s")


def test_criterion_6_weight_definition_rules(mini_domain, mini_trace):
    def pref(text):
        return parse_preference(text, mini_domain)

    ok = True
    # satisfied / falsified BDFs score the best / worst weight
    ok &= weight_bdf(mini_trace, pref("(final (paid))").apf.alts[0][0]) == 0
    ok &= weight_bdf(mini_trace, pref("(final (has-car))").apf.alts[0][0]) == 1
    ok &= weight_bdf(mini_trace, F.FALSE) == 1
    # an APF scores the value of the first satisfied alternative
    apf = pref("(>> ((final (has-car)) 0) ((final (paid)) 1/4)"
               "    ((final (has-ticket)) 1/2))").apf
    ok &= weight_apf(mini_trace, apf) == Fraction(1, 4)
    ok &= weight_apf(mini_trace, pref("(>> ((final (has-car)) 0))").apf) == 1
    ok &= weight_apf(mini_trace, pref("(>> ((final (paid)) 0))").apf) == 0
    # an unmet condition scores the best weight regardless of the body
    ok &= weight_gpf(mini_trace, pref(
        "(if (final (has-car)) (final (has-car)))")) == 0
    ok &= weight_gpf(mini_trace, pref(
        "(if (final (paid)) (final (has-car)))")) == 1
    # conjunction takes the max, disjunction the min
    ok &= weight_gpf(mini_trace, pref(
        "(&! (>> ((final (paid)) 0) ((and) 1/2))"
        "    (>> ((final (has-car)) 0) ((and) 1/3)))")) == Fraction(1, 3)
    ok &= weight_gpf(mini_trace, pref(
        "(|! (>> ((final (paid)) 0) ((and) 1/2))"
        "    (>> ((final (has-car)) 0) ((and) 1/3)))")) == 0
    report(6, "weight definition rules", bool(ok))


def test_criterion_7_parser_round_trip_and_fuzz(mini_domain):
    ok = True
    detail = []
    for suite_dir in sorted(FIXTURES.iterdir()):
        htn = next(suite_dir.glob("*.htn"))
        dom = parse_domain(htn.read_bytes(), htn.name)
        if parse_domain(print_domain(dom), htn.name) != dom:
            ok = False
            detail.append(f"domain round-trip {htn.name}")
        for prob_path in sorted(suite_dir.glob("*.prob")):
            prob = parse_problem(prob_path.read_bytes(), dom, prob_path.name)
            again = parse_problem(print_problem(prob), dom, prob_path.name)
            if (again.init, again.network) != (prob.init, prob.network):
                ok = False
                detail.append(f"problem round-trip {prob_path.name}")
        for pref_path in sorted(suite_dir.glob("*.pref")):
            gpf = parse_preference(pref_path.read_bytes(), dom, pref_path.name)
            if parse_preference(print_preference(gpf), dom) != gpf:
                ok = False
                detail.append(f"preference round-trip {pref_path.name}")

    rng = random.Random(20260826)
    alphabet = "()!?-:.0123456789/ \n\tabcdefghijklmnop\"'"
    crashes = 0
    for _ in range(1000):
        n = rng.randint(0, 60)
        if rng.random() < 0.2:
            text = bytes(rng.randrange(256) for _ in range(n))
        else:
            text = "".join(rng.choice(alphabet) for _ in range(n))
        for fn in (lambda t: parse_domain(t, "<fuzz>"),
                   lambda t: parse_problem(t, mini_domain, "<fuzz>"),
                   lambda t: parse_preference(t, mini_domain, "<fuzz>")):
            try:
                fn(text)
            except ParseError as exc:
                if not (exc.line >= 1 and exc.col >= 1):
                    crashes += 1
            except Exception:
                crashes += 1
    if crashes:
        ok = False
        detail.append(f"{crashes} unstructured failures")
    report(7, "parser round-trip and fuzz", ok, "; ".join(detail))
