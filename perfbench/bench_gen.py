"""Seeded generators of scaled logistics-N and zeno-N planning instances.

An instance is a fixed *pattern* (which package or passenger starts and ends
where) plus a seeded renaming of every constant; the seed also shuffles the
initial facts and the order of the instances in a pass. Renaming keeps an
instance isomorphic to its pattern, so its optimal weight is the pattern's
stored reference weight whatever the seed.

The renaming keeps the constants in their sorted order. The planner matches
facts in sorted order and breaks frontier ties first-in first-out, so an
order-preserving renaming leaves the search unchanged, while a free one moves
the expansions of some logistics patterns threefold. Patterns are drawn once
from a fixed seed. Both choices keep a pass the same amount of search for
every seed, so that run-to-run spread measures the program and the machine
rather than tie-breaking luck.

Everything is emitted as domain, problem and preference text; the planner
receives only that text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LOGISTICS_DOMAIN = """\
(domain logistics
  (:operator (!load ?pkg ?v ?loc)
    :pre ((at ?pkg ?loc) (veh-at ?v ?loc))
    :del ((at ?pkg ?loc))
    :add ((in ?pkg ?v)))
  (:operator (!unload ?pkg ?v ?loc)
    :pre ((in ?pkg ?v) (veh-at ?v ?loc))
    :del ((in ?pkg ?v))
    :add ((at ?pkg ?loc)))
  (:operator (!drive ?t ?from ?to)
    :pre ((truck ?t) (veh-at ?t ?from) (road ?from ?to))
    :del ((veh-at ?t ?from))
    :add ((veh-at ?t ?to)))
  (:operator (!fly ?a ?from ?to)
    :pre ((plane ?a) (veh-at ?a ?from) (air ?from ?to))
    :del ((veh-at ?a ?from))
    :add ((veh-at ?a ?to)))
  (:method (bring ?v ?loc) :name bring-none
    :pre ((veh-at ?v ?loc))
    :tasks ())
  (:method (bring ?v ?loc) :name bring-drive
    :pre ((truck ?v) (veh-at ?v ?from) (road ?from ?loc))
    :tasks ((!drive ?v ?from ?loc)))
  (:method (bring ?v ?loc) :name bring-drive-via
    :pre ((truck ?v) (veh-at ?v ?from) (road ?from ?via) (road ?via ?loc))
    :tasks ((!drive ?v ?from ?via) (!drive ?v ?via ?loc)))
  (:method (bring ?v ?loc) :name bring-fly
    :pre ((plane ?v) (veh-at ?v ?from) (air ?from ?loc))
    :tasks ((!fly ?v ?from ?loc)))
  (:method (deliver ?pkg ?dest) :name deliver-by-vehicle
    :pre ((at ?pkg ?loc) (vehicle ?v))
    :tasks ((bring ?v ?loc) (!load ?pkg ?v ?loc)
            (bring ?v ?dest) (!unload ?pkg ?v ?dest)))
)
"""

ZENO_DOMAIN = """\
(domain zeno
  (:operator (!board ?p ?c)
    :pre ((person-at ?p ?c) (aircraft-at ?c))
    :del ((person-at ?p ?c))
    :add ((aboard ?p)))
  (:operator (!debark ?p ?c)
    :pre ((aboard ?p) (aircraft-at ?c))
    :del ((aboard ?p))
    :add ((person-at ?p ?c)))
  (:operator (!fly ?from ?to)
    :pre ((aircraft-at ?from) (link ?from ?to))
    :del ((aircraft-at ?from))
    :add ((aircraft-at ?to)))
  (:operator (!zoom ?from ?to)
    :pre ((aircraft-at ?from) (link ?from ?to))
    :del ((aircraft-at ?from))
    :add ((aircraft-at ?to)))
  (:method (move-aircraft ?to) :name move-none
    :pre ((aircraft-at ?to))
    :tasks ())
  (:method (move-aircraft ?to) :name move-fly
    :pre ((aircraft-at ?from) (link ?from ?to))
    :tasks ((!fly ?from ?to)))
  (:method (move-aircraft ?to) :name move-zoom
    :pre ((aircraft-at ?from) (link ?from ?to))
    :tasks ((!zoom ?from ?to)))
  (:method (move-aircraft ?to) :name move-one-stop
    :pre ((aircraft-at ?from) (link ?from ?via) (link ?via ?to))
    :tasks ((!fly ?from ?via) (!fly ?via ?to)))
  (:method (transport ?p ?to) :name transport-direct
    :pre ((person-at ?p ?from))
    :tasks ((move-aircraft ?from) (!board ?p ?from)
            (move-aircraft ?to) (!debark ?p ?to)))
)
"""

# Logistics map: four road-connected places (dock and airport1 only via the
# others) and a second airport that only the plane reaches.
ROAD_PLACES = ("depot", "office", "dock", "airport1")
ROADS = (("depot", "office"), ("depot", "dock"), ("office", "dock"),
         ("depot", "airport1"), ("office", "airport1"))
AIR = (("airport1", "airport2"),)

# Zeno map: four fully linked cities, aircraft starting at the first.
CITIES = ("a", "b", "c", "d")

MAX_ZENO_PLAN = 13

# Pattern pools are drawn once from this seed, never from the run's seed.
PATTERN_SEED = 20090711


@dataclass(frozen=True)
class Instance:
    """One generated instance: its pattern id and the three source texts."""

    pattern: str
    domain_text: str
    problem_text: str
    preference_text: str


def logistics_patterns(n: int, count: int) -> list[tuple[str, tuple]]:
    """`count` package placements for logistics-n, each a tuple of
    (start, destination) per package. One package always shuttles between
    the airports, so every plan must fly and the optimum is nonzero."""
    rng = random.Random(f"{PATTERN_SEED}-logistics-{n}")
    out = []
    for k in range(count):
        legs = [rng.choice([("airport2", "airport1"), ("airport1", "airport2")])]
        for _ in range(n - 1):
            src, dst = rng.sample(ROAD_PLACES, 2)
            legs.append((src, dst))
        rng.shuffle(legs)
        out.append((f"logistics-{n}-{k}", tuple(legs)))
    return out


def zeno_plan_length(legs: tuple) -> int:
    """Length of the shortest plan: board and debark per passenger, one
    flight per leg, and one more whenever the aircraft must first fly empty
    to the passenger's city."""
    at, flights = CITIES[0], 0
    for src, dst in legs:
        flights += (at != src) + 1
        at = dst
    return 2 * len(legs) + flights


def zeno_patterns(n: int, count: int) -> list[tuple[str, tuple]]:
    """`count` passenger placements for zeno-n, each a tuple of
    (start, destination) per passenger, with shortest plans of at most
    MAX_ZENO_PLAN steps: the plan-length-ordered frontier grows about
    threefold per extra step (a 14-step zeno-4 passes 25,000 expansions)."""
    rng = random.Random(f"{PATTERN_SEED}-zeno-{n}")
    out = []
    while len(out) < count:
        legs = tuple(tuple(rng.sample(CITIES, 2)) for _ in range(n))
        if zeno_plan_length(legs) <= MAX_ZENO_PLAN:
            out.append((f"zeno-{n}-{len(out)}", legs))
    return out


def _renaming(rng: random.Random, names) -> dict[str, str]:
    """A seeded, order-preserving bijection from canonical constant names
    to fresh ones."""
    names = sorted(names)
    codes = sorted(rng.sample(range(100, 1000), len(names)))
    return {name: f"c{code}" for name, code in zip(names, codes)}


def _atoms(facts, r: dict[str, str]) -> str:
    return " ".join("(%s)" % " ".join((f[0],) + tuple(r[a] for a in f[1:]))
                    for f in facts)


def logistics_instance(pattern: str, legs: tuple, rng: random.Random
                       ) -> Instance:
    """Instance text for one logistics pattern under a seeded renaming.

    The preference is a four-part conjunction: an always-not-occ ban, a
    forall over packages, an ordered alternative that the airport leg
    forces past its first value (to 1/4 or 1/2, by the leg's direction),
    and a before monitor."""
    pkgs = [f"pkg{i + 1}" for i in range(len(legs))]
    places = ROAD_PLACES + ("airport2",)
    r = _renaming(rng, pkgs + list(places) + ["t1", "t2", "a1"])
    facts = [("truck", "t1"), ("vehicle", "t1"), ("truck", "t2"),
             ("vehicle", "t2"), ("plane", "a1"), ("vehicle", "a1"),
             ("veh-at", "t1", "depot"), ("veh-at", "t2", "airport1"),
             ("veh-at", "a1", "airport1")]
    for a, b in ROADS:
        facts += [("road", a, b), ("road", b, a)]
    for a, b in AIR:
        facts += [("air", a, b), ("air", b, a)]
    facts += [("at", p, src) for p, (src, _) in zip(pkgs, legs)]
    rng.shuffle(facts)
    tasks = " ".join(f"(deliver {r[p]} {r[dst]})"
                     for p, (_, dst) in zip(pkgs, legs))
    problem = (f"(problem {pattern}\n  :init ({_atoms(facts, r)})\n"
               f"  :tasks ({tasks}))\n")
    preference = (
        "(&! (always (not (occ (!drive {t2} {dock}))))\n"
        "    (>> ((forall (?p) (always (not (occ (!load ?p {t2}))))) 0)"
        " ((and) 0.3))\n"
        "    (>> ((always (not (occ (!fly)))) 0)"
        " ((always (not (occ (!fly {a1} {ap2} {ap1})))) 1/4)"
        " ((and) 1/2))\n"
        "    (before (!unload {p1}) (!load {p2})))\n"
    ).format(t2=r["t2"], dock=r["dock"], a1=r["a1"], ap1=r["airport1"],
             ap2=r["airport2"], p1=r[pkgs[0]], p2=r[pkgs[1]])
    return Instance(pattern, LOGISTICS_DOMAIN, problem, preference)


def zeno_instance(pattern: str, legs: tuple, rng: random.Random) -> Instance:
    """Instance text for one zeno pattern under a seeded renaming, with the
    trivial preference, so best-first search runs in plan-length order."""
    people = [f"p{i + 1}" for i in range(len(legs))]
    r = _renaming(rng, people + list(CITIES))
    facts = [("link", a, b) for a in CITIES for b in CITIES if a != b]
    facts.append(("aircraft-at", CITIES[0]))
    facts += [("person-at", p, src) for p, (src, _) in zip(people, legs)]
    rng.shuffle(facts)
    tasks = " ".join(f"(transport {r[p]} {r[dst]})"
                     for p, (_, dst) in zip(people, legs))
    problem = (f"(problem {pattern}\n  :init ({_atoms(facts, r)})\n"
               f"  :tasks ({tasks}))\n")
    return Instance(pattern, ZENO_DOMAIN, problem, "(and)\n")


# Each workload: (instance builder, pattern source, [(n, patterns), ...]).
# A pass of five instances takes 1 to 5 s, so a run repeats every instance
# often enough for its fastest solve to be one that nothing interfered with.
WORKLOADS = {
    "pref-logistics": (logistics_instance, logistics_patterns,
                       [(3, 3), (4, 2)]),
    "flat-zeno": (zeno_instance, zeno_patterns, [(3, 4), (4, 1)]),
    "check-logistics": (logistics_instance, logistics_patterns, [(2, 5)]),
}


def workload_instances(workload: str, seed: int) -> list[Instance]:
    """The workload's instances for `seed`: every pattern once, renamed and
    ordered by the seed. The same seed gives byte-identical text."""
    build, patterns, sizes = WORKLOADS[workload]
    rng = random.Random(f"{workload}-{seed}")
    pool = [p for n, count in sizes for p in patterns(n, count)]
    rng.shuffle(pool)
    return [build(pattern, legs, rng) for pattern, legs in pool]
