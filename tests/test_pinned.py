"""Search results pinned by digest.

Each digest covers, for every instance of a corpus in order, its (status,
weight, plan), its (NE, NC, duplicates), or both. A change to how the search
computes its nodes (indexes, caches, automaton states) must leave every one
of these byte-identical; a change that means to move them updates the digest
and says why. Lex plans and lex counters have digests of their own, so that
a change to how the lex search prunes can move its counters while its plans
stay pinned. The negation corpus adds not to randgen's palette; it is the
only one that puts a not over a temporal formula. The enumerator has a
digest too: each instance's plan count, NE, NC and every plan's weight, in
enumeration order.
"""

import hashlib

import pytest

from conftest import fixture_ids
from test_search import LEX_SENSITIVE, corpus_problem

from prefhtn.errors import CapExceeded, ResourceLimit
from prefhtn.oracle import enumerate_all
from prefhtn.search import SolveConfig, solve

FIXTURES = [f"{suite}-{k}" for suite, k in fixture_ids()]
RANDOM = [f"random-{seed}" for seed in range(300)]
NEGATED = [f"negated-{seed}" for seed in range(300)]
LEX = FIXTURES + [n for n in LEX_SENSITIVE if n not in FIXTURES]

PINNED = {  # name -> (instances, tiebreak_lex, parts, sha256 of their records)
    "default": (
        FIXTURES + RANDOM, False, ("plan", "counters"),
        "10f16f56ea1a39a1d3f121dc30afab7be62c90a7f39e263a87fa4bb53f5d3427"),
    "lex": (
        LEX, True, ("plan",),
        "2aa0d67e14669eb1ab8c0dbac0e28211985c194a699c76978df65365b5dc31d9"),
    "lex-counters": (
        LEX, True, ("counters",),
        "2f2e7369eba4e2b322b36325483df9cba81bef925f48ed392f1b5d7721b846f5"),
    "negation": (
        NEGATED, False, ("plan", "counters"),
        "fdbab956a8d2d88753a50c097badb75c44588338eef98c6ca52fcfaa02e17b19"),
}


def record(name: str, config: SolveConfig, parts: tuple[str, ...]) -> str:
    try:
        r = solve(corpus_problem(name), config)
    except ResourceLimit as exc:
        return f"{name} {exc.kind}"
    s = r.stats
    plan = " ".join(str(e) for e in r.plan or ())
    text = {"plan": f"{r.status} {r.weight} [{plan}]",
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
