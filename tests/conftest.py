import pytest
from pathlib import Path

from prefhtn.model import (EndEvent, Inst, OperatorEvent, StartEvent, State,
                           empty_trace, replay)
from prefhtn.parser import parse_domain, parse_preference, parse_problem

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

MINI_DOMAIN = """
(domain mini
  (:operator (!book-train) :pre () :del () :add ((has-ticket)))
  (:operator (!book-car) :pre () :del () :add ((has-car)))
  (:operator (!pay) :pre () :del () :add ((paid)))
  (:method (arrange-trans) :name by-train-trans :pre ()
    :tasks ((!book-train) (!pay)))
  (:method (arrange-trans) :name by-car-trans :pre ()
    :tasks ((!book-car) (!pay)))
  (:method (arrange-acc) :name by-hotel :pre ()
    :tasks ((!pay)))
)
"""


@pytest.fixture
def mini_domain():
    return parse_domain(MINI_DOMAIN, "<mini>")


@pytest.fixture
def mini_trace(mini_domain):
    """start(arrange-trans), start(by-train-trans), book-train, pay, end, end."""
    task = Inst("task", "arrange-trans", (), 0)
    method = Inst("method", "by-train-trans", (), 1)
    events = [
        StartEvent(task),
        StartEvent(method),
        OperatorEvent("book-train", (), 2),
        OperatorEvent("pay", (), 3),
        EndEvent(method),
        EndEvent(task),
    ]
    return replay(State(frozenset()),
                  events, mini_domain)


def load_fixture(suite: str, k: int):
    dom = parse_domain((FIXTURES / suite / f"{suite}.htn").read_bytes(),
                       f"{suite}.htn")
    prob = parse_problem(
        (FIXTURES / suite / f"{suite}-{k}.prob").read_bytes(), dom,
        f"{suite}-{k}.prob")
    pref_path = FIXTURES / suite / f"{suite}-{k}.pref"
    prob.preference = parse_preference(pref_path.read_bytes(), dom,
                                       pref_path.name)
    return prob


def fixture_ids():
    out = []
    for suite_dir in sorted(FIXTURES.iterdir()):
        for prob in sorted(suite_dir.glob("*.prob")):
            out.append((suite_dir.name, int(prob.stem.rsplit("-", 1)[1])))
    return out
