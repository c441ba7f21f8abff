"""Seeded random generator of small planning instances for property tests.

Instances are deliberately tiny: a handful of ground operators, a layered
(hence acyclic) method hierarchy, and a preference formula built from a
configurable construct palette under an AST-size budget. Every instance is
emitted as source text and re-parsed, so whatever the generator produces is
by construction reachable through the normal input path.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .model import Problem, Record, Value, _set
from .parser import BDF_FORMS, parse_domain, parse_preference, parse_problem
from .sexpr import format_fraction

DEFAULT_CONSTRUCTS = frozenset(BDF_FORMS) - {"not"}


class GenConfig(Value):
    __slots__ = ("seed", "num_operators", "num_methods", "max_subtasks",
                 "max_depth", "num_constants", "pref_budget", "constructs",
                 "unsolvable_rate")

    def __init__(self, seed: int = 0,
                 num_operators: int = 4,   # 2..6
                 num_methods: int = 7,     # 2..8
                 max_subtasks: int = 2,    # 1..3
                 max_depth: int = 3,       # <= 4
                 num_constants: int = 3,   # 2..5
                 pref_budget: int = 18,    # AST node count <= 25
                 constructs: frozenset = DEFAULT_CONSTRUCTS,
                 unsolvable_rate: float = 0.1):
        assert 2 <= num_operators <= 6
        assert 2 <= num_methods <= 8
        assert 1 <= max_subtasks <= 3
        assert 1 <= max_depth <= 4
        assert 2 <= num_constants <= 5
        assert 1 <= pref_budget <= 25
        for name, value in locals().items():
            if name != "self":
                _set(self, name, value)


class GeneratedInstance(Record):
    __slots__ = ("problem", "expected_solvable", "domain_text",
                 "problem_text", "preference_text")

    def __init__(self, problem: Problem, expected_solvable: bool,
                 domain_text: str, problem_text: str, preference_text: str):
        self.problem = problem
        self.expected_solvable = expected_solvable
        self.domain_text = domain_text
        self.problem_text = problem_text
        self.preference_text = preference_text


def gen_instance(config: GenConfig = None) -> tuple[Problem, bool]:
    gi = gen_files(config)
    return gi.problem, gi.expected_solvable


def gen_files(config: GenConfig = None) -> GeneratedInstance:
    """Deterministic per seed; see gen_instance."""
    config = config or GenConfig()
    rng = random.Random(config.seed)

    consts = [f"c{i + 1}" for i in range(config.num_constants)]
    preds = [f"p{i + 1}" for i in range(3)]
    blocked = "blocked"  # never added by any operator

    def ground_atom() -> str:
        return f"({rng.choice(preds)} {rng.choice(consts)})"

    # ground operators; most have no precondition so decomposition chains
    # rarely dead-end, a few flip fluents to exercise state change
    used_preds: set[str] = set()

    def track(atom: str) -> str:
        if atom:
            used_preds.add(atom[1:].split()[0])
        return atom

    op_lines = []
    op_names = []
    safe_ops: list[str] = []  # empty precondition: applicable in any state
    for i in range(config.num_operators):
        name = f"op{i + 1}"
        op_names.append(name)
        pre = track(ground_atom()) if i > 0 and rng.random() < 0.3 else ""
        add = track(ground_atom()) if i == 0 or rng.random() < 0.6 else ""
        dele = track(ground_atom()) if rng.random() < 0.4 else ""
        op_lines.append(f"  (:operator (!{name}) :pre ({pre}) "
                        f":del ({dele}) :add ({add}))")
        if not pre:
            safe_ops.append(name)

    # initial facts: a random half of the ground atoms over the predicates
    # the operators actually mention
    atoms = [f"({p} {c})" for p in sorted(used_preds) for c in consts]
    init = sorted(rng.sample(atoms, k=max(1, len(atoms) // 2)))

    # compound tasks in layers; every method calls strictly lower layers
    num_layers = rng.randint(1, config.max_depth)
    layers: list[list[str]] = [[] for _ in range(num_layers)]
    num_tasks = max(num_layers, min(config.num_methods, 4))
    task_names = [f"t{i + 1}" for i in range(num_tasks)]
    for i, t in enumerate(task_names):
        layers[i % num_layers].append(t)

    def callables_below(layer: int, safe_only: bool = False) -> list[str]:
        # every task's first method decomposes through safe callables only,
        # so any network over generated tasks has at least one solution
        prims = [f"!{n}" for n in (safe_ops if safe_only else op_names)]
        lower = [t for l in layers[:layer] for t in l]
        return prims + lower

    method_lines = []
    branches = []
    methods_left = config.num_methods
    unsolvable = rng.random() < config.unsolvable_rate
    for layer_i, layer in enumerate(layers):
        for t in layer:
            remaining_tasks = sum(len(l) for l in layers[layer_i:]) - 1
            spare = methods_left - remaining_tasks - 1
            n = 1
            if spare >= 1 and rng.random() < 0.8:
                n += rng.randint(1, min(2, spare))
            for j in range(n):
                branch = f"{t}-m{j + 1}"
                branches.append(branch)
                k = rng.randint(1, config.max_subtasks)
                pool = callables_below(layer_i, safe_only=(j == 0))
                lower = [c for c in pool if not c.startswith("!")]

                def pick() -> str:
                    # bias toward compound subtasks so decomposition choices
                    # multiply along the chain
                    if lower and rng.random() < 0.6:
                        return rng.choice(lower)
                    return rng.choice(pool)

                subs = " ".join(f"({pick()})" for _ in range(k))
                pre = ""
                if j > 0 and rng.random() < 0.4:
                    pre = track(ground_atom())
                method_lines.append(
                    f"  (:method ({t}) :name {branch} :pre ({pre}) "
                    f":tasks ({subs}))")
                methods_left -= 1

    top = layers[-1]
    goal_tasks = [rng.choice(top)]
    if rng.random() < 0.5:
        goal_tasks.append(rng.choice(top))
    if unsolvable:
        # a top-level task whose only decomposition needs a fact that no
        # operator can ever produce
        method_lines.append(f"  (:method (tdead) :name tdead-m1 "
                            f":pre (({blocked} {consts[0]})) "
                            f":tasks ((!{op_names[0]})))")
        goal_tasks.append("tdead")

    domain_text = "(domain rnd%d\n%s\n%s\n)" % (
        config.seed, "\n".join(op_lines), "\n".join(method_lines))
    problem_text = "(problem rnd%d-1 :init (%s) :tasks (%s))" % (
        config.seed, " ".join(init),
        " ".join(f"({t})" for t in goal_tasks))

    preference_text = _gen_preference(rng, config, sorted(used_preds),
                                      consts, op_names, task_names, branches)

    domain = parse_domain(domain_text, "<gen>")
    problem = parse_problem(problem_text, domain, "<gen>")
    problem.preference = parse_preference(preference_text, domain, "<gen>")
    return GeneratedInstance(problem, not unsolvable, domain_text,
                             problem_text, preference_text)


def _gen_preference(rng: random.Random, config: GenConfig, preds, consts,
                    op_names, task_names, branches) -> str:
    budget = [config.pref_budget]

    def spend(n: int = 1) -> bool:
        if budget[0] < n:
            return False
        budget[0] -= n
        return True

    def lit() -> str:
        a = f"({rng.choice(preds)} {rng.choice(consts)})"
        return f"(not {a})" if rng.random() < 0.3 else a

    def ref() -> str:
        if rng.random() < 0.5:
            return f"(!{rng.choice(op_names)})"
        return f"({rng.choice(task_names)})"

    def bdf(depth: int) -> str:
        choices = ["lit"]
        if depth < 3 and budget[0] > 1:
            choices += [c for c in BDF_FORMS if c in config.constructs]
            choices += ["and", "or"]
        c = rng.choice(choices)
        if c == "lit" or not spend(1):
            spend(1)
            return lit()
        kinds = BDF_FORMS[c][1] if c in BDF_FORMS else ("formula", "formula")
        spend(len(kinds) - 1)
        arg = {"formula": lambda: bdf(depth + 1), "literal": lit, "task": ref,
               "method": lambda: f"({rng.choice(branches)})"}
        return "(%s %s)" % (c, " ".join(arg[kind]() for kind in kinds))

    def apf() -> str:
        first = bdf(0)
        if budget[0] < 3 or rng.random() < 0.4:
            return first
        values = sorted(rng.sample([Fraction(i, 10) for i in range(1, 10)],
                                   k=rng.randint(1, 2)))
        alts = [f"({first} 0)"]
        alts += [f"({bdf(0)} {format_fraction(v)})" for v in values]
        return "(>> %s)" % " ".join(alts)

    def gpf(depth: int) -> str:
        r = rng.random()
        if depth >= 2 or budget[0] < 6:
            return apf()
        if r < 0.2:
            spend(1)
            return f"(if {bdf(0)} {gpf(depth + 1)})"
        if r < 0.35:
            spend(1)
            return f"(&! {gpf(depth + 1)} {gpf(depth + 1)})"
        if r < 0.5:
            spend(1)
            return f"(|! {gpf(depth + 1)} {gpf(depth + 1)})"
        return apf()

    return gpf(0)
