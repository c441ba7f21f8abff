"""Preference formula ASTs.

Three layers: basic desire formulas (finite-trace LTL plus occurrence,
decomposition and before/hold constructs), atomic preference formulas
(ordered alternatives with increasing weight values) and general preference
formulas (conditional / conjunctive / disjunctive aggregation).

Weights are exact rationals in [0, 1]; 0 is best, 1 is worst. A Not may
stand over any BDF: formulas keep the negations they were written with. The
extended constructs OccNext, Terminated and Window only ever appear in
progression: Window and the OccNext under a Next where progression.unfold
writes out the before/hold* constructs, the others as progression outputs.
TrueC and FalseC are what (and) and (or) parse to, and the constants a
residual folds into.

Every node class derives from model.Node: it declares its fields as
annotations, and is an immutable value equal by class and fields, so
Always(p) != Eventually(p). node_fields gives a node's values in
declaration order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import BadValueOrder
from .model import Literal, Node, is_var, subst_args, subst_literal

Weight = Fraction
W_MIN = Fraction(0)
W_MAX = Fraction(1)


class Ref(Node):
    """An occurrence target: an operator, a nonprimitive task, or a method branch."""

    kind: str  # "op" | "task" | "method"
    name: str
    args: tuple[str, ...] = ()


# --- BDF nodes ---------------------------------------------------------------

class TrueC(Node):
    pass


class FalseC(Node):
    pass


TRUE = TrueC()
FALSE = FalseC()


class LitF(Node):
    lit: Literal


class Final(Node):
    lit: Literal


class Occ(Node):
    ref: Ref


class Apply(Node):
    ref: Ref  # kind == "method"


class Before(Node):
    t1: Ref
    t2: Ref


class HoldBefore(Node):
    t: Ref
    lit: Literal


class HoldAfter(Node):
    t: Ref
    lit: Literal


class HoldBetween(Node):
    t1: Ref
    lit: Literal
    t2: Ref


class Not(Node):
    sub: "BDF"


class And(Node):
    parts: tuple["BDF", ...]


class Or(Node):
    parts: tuple["BDF", ...]


class Exists(Node):
    var: str
    body: "BDF"


class Forall(Node):
    var: str
    body: "BDF"


class Next(Node):
    sub: "BDF"


class Always(Node):
    sub: "BDF"


class Eventually(Node):
    sub: "BDF"


class Until(Node):
    hold: "BDF"
    goal: "BDF"


# --- progression-only nodes ---------------------------------------------------

class OccNext(Node):
    ref: Ref


class Terminated(Node):
    ref: Ref


class Window(Node):
    """True where t1 has terminated and t2 has neither started nor
    terminated (semantics.window_open): the before/hold-between window."""

    t1: Ref
    t2: Ref


BDF = Union[TrueC, FalseC, LitF, Final, Occ, Apply, Before, HoldBefore,
            HoldAfter, HoldBetween, Not, And, Or, Exists, Forall, Next,
            Always, Eventually, Until, OccNext, Terminated, Window]


# --- APF / GPF ----------------------------------------------------------------

class APF(Node):
    """Ordered alternatives (bdf, value); values strictly increase from 0."""

    alts: tuple[tuple[BDF, Fraction], ...]

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        check_apf_values([v for _, v in self.alts])


def check_apf_values(values) -> None:
    if not values:
        raise BadValueOrder("atomic preference needs at least one alternative")
    if values[0] != W_MIN:
        raise BadValueOrder(f"first alternative value must be 0, got {values[0]}")
    for a, b in zip(values, values[1:]):
        if not a < b:
            raise BadValueOrder(f"alternative values must strictly increase: {a} !< {b}")
    if values[-1] > W_MAX:
        raise BadValueOrder(f"alternative value {values[-1]} exceeds 1")


class Atomic(Node):
    apf: APF


class Cond(Node):
    cond: BDF
    body: "GPF"


class Conj(Node):
    parts: tuple["GPF", ...]


class Disj(Node):
    parts: tuple["GPF", ...]


GPF = Union[Atomic, Cond, Conj, Disj]


def bdf_gpf(phi: BDF) -> GPF:
    """An APF with a single 0-valued alternative: a bare BDF as a GPF."""
    return Atomic(APF(((phi, W_MIN),)))


# --- generic traversal -------------------------------------------------------------

def node_fields(node) -> tuple:
    """The field values of a formula node, in declaration order."""
    return tuple(vars(node).values())


_KEPT = (str,)


def _map_field(v, f, f_ref, f_lit):
    if isinstance(v, Literal):  # a NamedTuple, so it must be tested before tuple
        return f_lit(v)
    if isinstance(v, Ref):
        return f_ref(v)
    if isinstance(v, _KEPT):
        return v
    if isinstance(v, tuple):
        return tuple(f(p) for p in v)
    return f(v)


def _same(x):
    return x


def rebuild(phi: BDF, f, f_ref=_same, f_lit=_same) -> BDF:
    """A node of phi's class with f applied to each sub-formula (a tuple of
    parts element by element), f_ref to each Ref and f_lit to each Literal;
    str fields are kept."""
    return type(phi)(*(_map_field(v, f, f_ref, f_lit)
                       for v in node_fields(phi)))


def children(phi: BDF) -> list[BDF]:
    """The immediate sub-formulas of phi."""
    out: list[BDF] = []
    for v in node_fields(phi):
        if isinstance(v, (Literal, Ref) + _KEPT):
            continue
        if isinstance(v, tuple):
            out.extend(v)
        else:
            out.append(v)
    return out


def leaf_args(phi: BDF) -> list[str]:
    """The arguments of phi's own refs and literals (not of its sub-formulas)."""
    out: list[str] = []
    for v in node_fields(phi):
        if isinstance(v, Literal):
            out.extend(v.atom.args)
        elif isinstance(v, Ref):
            out.extend(v.args)
    return out


def gpf_bdfs(gpf: GPF) -> list[BDF]:
    """Every BDF of a preference: the alternatives and the conditions."""
    if isinstance(gpf, Atomic):
        return [b for b, _ in gpf.apf.alts]
    if isinstance(gpf, Cond):
        return [gpf.cond] + gpf_bdfs(gpf.body)
    return [b for p in gpf.parts for b in gpf_bdfs(p)]


def map_gpf(gpf: GPF, f) -> GPF:
    """The preference with f applied to each of its BDFs."""
    if isinstance(gpf, Atomic):
        return Atomic(APF(tuple((f(b), v) for b, v in gpf.apf.alts)))
    if isinstance(gpf, Cond):
        return Cond(f(gpf.cond), map_gpf(gpf.body, f))
    return type(gpf)(tuple(map_gpf(p, f) for p in gpf.parts))


def gpf_weight(gpf: GPF, sat, sat_cond=None) -> Weight:
    """The weight of a preference given which of its BDFs hold: an APF scores
    its first alternative that sat accepts (W_MAX if none does), a Cond whose
    condition sat_cond (default sat) rejects scores W_MIN, a Conj the max of
    its parts and a Disj the min."""
    if isinstance(gpf, Atomic):
        return next((v for b, v in gpf.apf.alts if sat(b)), W_MAX)
    if isinstance(gpf, Cond):
        if not (sat_cond or sat)(gpf.cond):
            return W_MIN
        return gpf_weight(gpf.body, sat, sat_cond)
    join = max if isinstance(gpf, Conj) else min
    return join(gpf_weight(p, sat, sat_cond) for p in gpf.parts)


# --- smart constructors ---------------------------------------------------------

def _flatten(parts, cls, unit: BDF, zero: BDF) -> BDF:
    """Join parts under cls (And or Or): nested cls nodes are spliced in,
    unit and duplicates are dropped, and zero absorbs the whole join."""
    unit_t, zero_t = type(unit), type(zero)
    flat: dict[BDF, None] = {}  # insertion-ordered, so the first seen stays
    for p in parts:
        if isinstance(p, zero_t):
            return zero
        if isinstance(p, unit_t):
            continue
        if isinstance(p, cls):
            flat.update(dict.fromkeys(p.parts))
        else:
            flat[p] = None
    if not flat:
        return unit
    if len(flat) == 1:
        return next(iter(flat))
    return cls(tuple(flat))


def mk_and(parts) -> BDF:
    return _flatten(parts, And, TRUE, FALSE)


def mk_or(parts) -> BDF:
    return _flatten(parts, Or, FALSE, TRUE)


def const(b: bool) -> BDF:
    return TRUE if b else FALSE


# --- substitution and quantifier expansion ---------------------------------------

def subst_bdf(phi: BDF, sigma: dict[str, str]) -> BDF:
    if isinstance(phi, (Exists, Forall)):  # the quantifier shadows its variable
        sigma = {k: v for k, v in sigma.items() if k != phi.var}
    return rebuild(phi, lambda p: subst_bdf(p, sigma),
                   lambda r: Ref(r.kind, r.name, subst_args(r.args, sigma)),
                   lambda l: subst_literal(l, sigma))


def expand_quantifiers(phi: BDF, universe: tuple[str, ...]) -> BDF:
    """Ground exists as a disjunction and forall as a conjunction over the universe."""
    def expand(p: BDF) -> BDF:
        return expand_quantifiers(p, universe)

    if isinstance(phi, (Exists, Forall)):
        body = expand(phi.body)
        join = mk_or if isinstance(phi, Exists) else mk_and
        return join(expand(subst_bdf(body, {phi.var: c})) for c in universe)
    if isinstance(phi, (And, Or)):
        join = mk_and if isinstance(phi, And) else mk_or
        return join(expand(p) for p in phi.parts)
    return rebuild(phi, expand)


def expand_gpf(gpf: GPF, universe: tuple[str, ...]) -> GPF:
    return map_gpf(gpf, lambda b: expand_quantifiers(b, universe))


def formula_constants(gpf: GPF) -> set[str]:
    out: set[str] = set()

    def walk(phi: BDF):
        out.update(a for a in leaf_args(phi) if not is_var(a))
        for p in children(phi):
            walk(p)

    for b in gpf_bdfs(gpf):
        walk(b)
    return out
