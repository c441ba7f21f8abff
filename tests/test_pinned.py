"""Search results pinned by digest.

Each digest covers (status, weight, plan, NE, NC, duplicates) of every
instance of a corpus, in order. A change to how the search computes its
nodes (indexes, caches, automaton states) must leave every one of these
byte-identical; a change that means to move them updates the digest and
says why.
"""

import hashlib

import pytest

from conftest import fixture_ids
from test_search import LEX_SENSITIVE, corpus_problem

from prefhtn.errors import ResourceLimit
from prefhtn.search import SolveConfig, solve

FIXTURES = [f"{suite}-{k}" for suite, k in fixture_ids()]
RANDOM = [f"random-{seed}" for seed in range(300)]

PINNED = {  # mode -> (instances, tiebreak_lex, sha256 of their records)
    "default": (
        FIXTURES + RANDOM, False,
        "10f16f56ea1a39a1d3f121dc30afab7be62c90a7f39e263a87fa4bb53f5d3427"),
    "lex": (
        FIXTURES + [n for n in LEX_SENSITIVE if n not in FIXTURES], True,
        "e13df4b8367cd19e6e9010196ca5157ffc720dfe881bcab09d497a61649c344a"),
}


def record(name: str, config: SolveConfig) -> str:
    try:
        r = solve(corpus_problem(name), config)
    except ResourceLimit as exc:
        return f"{name} {exc.kind}"
    s = r.stats
    plan = " ".join(str(e) for e in r.plan or ())
    return (f"{name} {r.status} {r.weight} [{plan}] {s.nodes_expanded} "
            f"{s.nodes_considered} {s.duplicates}")


@pytest.mark.parametrize("mode", list(PINNED))
def test_search_results_are_pinned(mode):
    names, lex, digest = PINNED[mode]
    config = SolveConfig(tiebreak_lex=lex)
    text = "\n".join(record(n, config) for n in names)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
