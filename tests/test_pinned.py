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
