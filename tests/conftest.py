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


# A recursive walk: (go ?g) either stops at ?g or steps and recurses. The
# n0-n1 cycle never reaches n2, so its optimistic weight stays 0 and both
# best-first search and the enumerator descend it until the depth cap.
WALK = {
    "walk.htn": """(domain walk
      (:operator (!step ?a ?b) :pre ((at ?a) (edge ?a ?b))
        :del ((at ?a)) :add ((at ?b)))
      (:method (go ?g) :name done :pre ((at ?g)) :tasks ())
      (:method (go ?g) :name move :pre ((at ?a) (edge ?a ?b))
        :tasks ((!step ?a ?b) (go ?g))))""",
    "walk-1.prob": """(problem walk-1
      :init ((at n0) (edge n0 n1) (edge n1 n0) (edge n1 n2))
      :tasks ((go n2)))""",
    "walk-1.pref": "(>> ((always (not (at n2))) 0) ((and) 0.5))",
}


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
