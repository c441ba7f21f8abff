"""Search results pinned by digest.

Each digest covers, for every instance of a corpus in order, its (status,
weight, plan), its (NE, NC, duplicates), or both. A change to how the search
computes its nodes (indexes, caches, automaton states) must leave every one
of these byte-identical; a change that means to move them updates the digest
and says why. Lex plans and lex counters have digests of their own, so that
a change to how the lex search prunes can move its counters while its plans
stay pinned. The weights digest holds only (status, weight) over all three
corpora, so it pins the optima across a change that means to move plans or
counters. The negation corpus adds not to randgen's palette; it is the
only one that puts a not over a temporal formula. The enumerator has a
digest too: each instance's plan count, NE, NC and every plan's weight, in
enumeration order. So has the cross check: each instance's CheckReport and,
per replayed trace, the weight and the prefix bounds that cross_check read.
And so has the reference semantics: over every enumerated trace of the
fixtures, the random, quantified and negation corpora, the label of each
BDF of the preference, every bit of it, and the trace's weight_gpf.
"""

import hashlib

import pytest

from conftest import fixture_ids
from test_search import LEX_SENSITIVE, corpus_problem

from prefhtn.errors import CapExceeded, ResourceLimit
from prefhtn import formulas as F
from prefhtn import progression as P
from prefhtn import semantics
from prefhtn.oracle import cross_check, enumerate_all
from prefhtn.search import SolveConfig, solve

FIXTURES = [f"{suite}-{k}" for suite, k in fixture_ids()]
RANDOM = [f"random-{seed}" for seed in range(300)]
NEGATED = [f"negated-{seed}" for seed in range(300)]
QUANTIFIED = [f"quantified-{seed}" for seed in range(300)]
LEX = FIXTURES + [n for n in LEX_SENSITIVE if n not in FIXTURES]

PINNED = {  # name -> (instances, tiebreak_lex, parts, sha256 of their records)
    "default": (
        FIXTURES + RANDOM, False, ("plan", "counters"),
        "020900d1564a38759f268158fb69676a6f873f745eea36fe3855124580d21e0a"),
    "lex": (
        LEX, True, ("plan",),
        "2aa0d67e14669eb1ab8c0dbac0e28211985c194a699c76978df65365b5dc31d9"),
    "lex-counters": (
        LEX, True, ("counters",),
        "3dc32198e4c1ed944b81b18ab394443bca25438f0251d2db98477376d47117da"),
    "negation": (
        NEGATED, False, ("plan", "counters"),
        "64d49f0ad0988a42e4c953451165e4cab54b9712c74854e1ffb4c72bcc3b2f49"),
    "weights": (
        FIXTURES + RANDOM + NEGATED, False, ("weight",),
        "e3e496a91f31f35c66a18ee51e60d0018eb94b48d740b12c2efc5a055066807a"),
}


def record(name: str, config: SolveConfig, parts: tuple[str, ...]) -> str:
    try:
        r = solve(corpus_problem(name), config)
    except ResourceLimit as exc:
        return f"{name} {exc.kind}"
    s = r.stats
    plan = " ".join(str(e) for e in r.plan or ())
    text = {"weight": f"{r.status} {r.weight}",
            "plan": f"{r.status} {r.weight} [{plan}]",
            "counters": f"{s.nodes_expanded} {s.nodes_considered} "
                        f"{s.duplicates}"}
    return " ".join([name] + [text[part] for part in parts])


@pytest.mark.parametrize("mode", list(PINNED))
def test_search_results_are_pinned(mode):
    names, lex, parts, digest = PINNED[mode]
    config = SolveConfig(tiebreak_lex=lex)
    text = "\n".join(record(n, config, parts) for n in names)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


ENUMERATED = (
    "a256fd90aafe87be2dfa72ead7d695369420ca2cc100176701c82aa6fe95fa9a")


def enumerated(name: str) -> str:
    try:
        o = enumerate_all(corpus_problem(name))
    except CapExceeded as exc:
        return f"{name} {exc.kind}"
    s = o.stats
    weights = " ".join(str(w) for w in o.all_weights)
    return (f"{name} {o.plan_count} {s.nodes_expanded} {s.nodes_considered}"
            f" [{weights}]")


def test_enumeration_is_pinned():
    text = "\n".join(enumerated(n) for n in FIXTURES + RANDOM)
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATED


CHECKED = (
    "f17730038f7483d6f2d45ad910bb32b933b236b33574296430b73a74965c5a25")


def checked(name: str, replays: list) -> str:
    """name's CheckReport and the replays its cross check read, which a
    wrapped progress_trace appends to replays."""
    replays.clear()
    try:
        r = cross_check(corpus_problem(name))
    except (CapExceeded, ResourceLimit) as exc:
        return f"{name} {exc.kind}"
    checks = " ".join(f"{k}={v}" for k, v in sorted(r.checks.items()))
    traces = " ".join(
        f"{w}[" + ",".join(f"{b.opt}:{b.pess}" for b in prefix) + "]"
        for w, prefix in replays)
    return (f"{r.problem} {r.plan_count} {r.solve_weight} {r.oracle_weight}"
            f" {checks} {traces}")


def test_cross_check_is_pinned(monkeypatch):
    replays, original = [], P.progress_trace

    def recording_replay(*args):
        out = original(*args)
        replays.extend(out)
        return out

    monkeypatch.setattr(P, "progress_trace", recording_replay)
    text = "\n".join(checked(n, replays) for n in FIXTURES + RANDOM)
    assert hashlib.sha256(text.encode()).hexdigest() == CHECKED


LABELLED = (
    "780f098aabea996460e460c662ef31ec7f22986c7a376669a01188b9e87bec4c")


def labelled(name: str) -> str:
    """name's enumerated traces, each as the hex labels of the BDFs of the
    preference and its weight_gpf; the traces of a capped enumeration are
    those it scored."""
    problem = corpus_problem(name)
    try:
        traces = enumerate_all(problem).traces
    except CapExceeded as exc:
        traces = exc.partial.traces
    gpf, universe = problem.preference, problem.constants
    bdfs = F.gpf_bdfs(gpf)
    rows = []
    for trace in traces:
        label = semantics._Labels(trace, universe)
        rows.append(" ".join([f"{label(b):x}" for b in bdfs]) + " "
                    + str(semantics.weight_gpf(trace, gpf, universe)))
    return f"{name} " + ";".join(rows)


def test_labels_are_pinned():
    text = "\n".join(labelled(n) for n in FIXTURES + RANDOM + QUANTIFIED
                     + NEGATED)
    assert hashlib.sha256(text.encode()).hexdigest() == LABELLED


def test_labels_do_not_move_when_every_constant_is_bound(monkeypatch):
    # the quantified corpus is the one with quantifiers; with the set of
    # the constants a trace tells apart widened to the universe, each
    # quantifier labels its body under every constant, as by definition
    reduced = [labelled(n) for n in QUANTIFIED]
    monkeypatch.setattr(semantics, "_told_apart",
                        lambda lab, *rest: set(lab.universe))
    assert [labelled(n) for n in QUANTIFIED] == reduced
