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
from operator import is_
from typing import Optional, Union

from .errors import BadValueOrder
from .model import Atom, Literal, Node, is_var, subst_args

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
    """True where t1 has terminated and t2 has not started
    (semantics.window_open): the before/hold-between window."""

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


def children(phi: BDF) -> list[BDF]:
    """The immediate sub-formulas of phi."""
    out: list[BDF] = []
    for v in node_fields(phi):
        if isinstance(v, (Literal, Ref, str)):  # a Literal is a tuple
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


# --- grounding ------------------------------------------------------------------

def _bind(v, sigma: dict[str, str]):
    """A Ref or Literal with the variables sigma binds replaced; v itself
    when it has none of them."""
    if type(v) is Ref:
        args = subst_args(v.args, sigma)
        return v if args == v.args else Ref(v.kind, v.name, args)
    args = subst_args(v.atom.args, sigma)
    return v if args == v.atom.args else Literal(Atom(v.atom.pred, args),
                                                 v.positive)


def ground(phi: BDF, universe: tuple[str, ...], write=lambda p: p,
           reach=None) -> BDF:
    """phi with exists grounded as a disjunction and forall as a
    conjunction over the universe, in one walk (_ground), and then each
    node that is not a join through write: progression.unfold writes out
    the before/hold* constructs with it. A node in which nothing changed
    comes back as it is.

    reach, when given, returns the analysis of model.reachable and is
    called only at a quantifier. A forall drops each instance that _known
    finds true on every trace a plan can reach, and an exists each one it
    finds false, which moves no plan's weight. A dropped forall instance
    holds on every prefix too, so by Kleene monotonicity its residual is
    never optimistically unsatisfied: where the bounds read it under their
    own view opt stays, and only pess meets the weight earlier. Read under
    the other view (in a condition or under a not), or dropped from an
    exists, an instance can only bring a bound closer to the weight."""
    return _written(_ground(phi, universe, write, {}, reach), write)


def _ground(phi: BDF, universe: tuple[str, ...], write,
            sigma: dict[str, str], reach) -> BDF:
    """phi ground under the bindings sigma (variable -> constant), which
    the walk carries down to the refs and literals; an inner quantifier
    shadows an outer one. A quantifier builds only the instances it keeps,
    deciding each binding first (_known). The joins take their parts
    unwritten, or mk_and would splice the And that a before is written out
    as."""
    cls = type(phi)
    if cls is Exists or cls is Forall:
        bindings = [{**sigma, phi.var: c} for c in universe]
        if reach is not None:
            known, drop = reach(), cls is Forall
            bindings = [b for b in bindings
                        if _known(phi.body, known, universe, b) is not drop]
        return (mk_or if cls is Exists else mk_and)(
            [_ground(phi.body, universe, write, b, reach) for b in bindings])
    if cls is And or cls is Or:
        joined = (mk_and if cls is And else mk_or)(
            [_ground(p, universe, write, sigma, reach) for p in phi.parts])
        return phi if joined == phi else joined
    fields = vars(phi).values()
    new = [_bind(v, sigma) if type(v) is Ref or type(v) is Literal
           else _written(_ground(v, universe, write, sigma, reach), write)
           for v in fields]
    return phi if all(map(is_, new, fields)) else cls(*new)


def _known(phi: BDF, reach, universe: tuple[str, ...],
           sigma: dict[str, str]) -> Optional[bool]:
    """The truth of phi under the bindings sigma at every index of every
    trace a plan can reach, by the analysis reach = (facts, operators) of
    model.reachable, or None when it does not decide it: TRUE and FALSE
    are their value; an operator's occ is false when no embedding of its
    args (args_match) fits the parameters' sets; a literal whose atom no
    reachable state holds has its sign's opposite, and a hold-before or
    hold-after over such a positive literal is false, as is the eventually
    of a conjunction with it that progression.unfold writes it as; not,
    and, or, always, eventually, exists and forall fold. It decides the
    same of phi under sigma as of phi ground under sigma: the joins that
    build it fold the same values, and a ground quantifier is the join of
    the instances it keeps."""
    cls = type(phi)
    if cls is TrueC or cls is FalseC:
        return cls is TrueC
    if cls is Not:
        sub = _known(phi.sub, reach, universe, sigma)
        return None if sub is None else not sub
    if cls is Always or cls is Eventually:
        return _known(phi.sub, reach, universe, sigma)
    if cls is And or cls is Or:
        values = {_known(p, reach, universe, sigma) for p in phi.parts}
    elif cls is Exists or cls is Forall:
        values = {_known(phi.body, reach, universe, {**sigma, phi.var: c})
                  for c in universe}
    elif cls is LitF or cls is HoldBefore or cls is HoldAfter:
        (pred, args), positive = phi.lit
        if all(sigma.get(a, a) in reach[0].get((pred, pos), ())
               for pos, a in enumerate(args)):
            return None
        return not positive if cls is LitF else False if positive else None
    elif cls is Occ and phi.ref.kind == "op":
        params = reach[1].get(phi.ref.name)
        if params is None:
            return False
        it = iter(params)  # the leftmost embedding, taken greedily
        return None if all(any(sigma.get(a, a) in can for can in it)
                           for a in phi.ref.args) else False
    else:
        return None
    zero = cls is Or or cls is Exists  # the value that decides the join
    return zero if zero in values else None if None in values else not zero


def _written(phi: BDF, write) -> BDF:
    """phi through write, or a join of its parts through _written."""
    cls = type(phi)
    if cls is And or cls is Or:
        parts = tuple([_written(p, write) for p in phi.parts])
        return phi if parts == phi.parts else cls(parts)
    return write(phi)


def formula_constants(gpf: GPF) -> set[str]:
    out: set[str] = set()

    def walk(phi: BDF):
        out.update(a for a in leaf_args(phi) if not is_var(a))
        for p in children(phi):
            walk(p)

    for b in gpf_bdfs(gpf):
        walk(b)
    return out
