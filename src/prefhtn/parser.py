"""Domain, problem and preference file parsing, plus the matching printers.

File kinds (all UTF-8, `;` comments):

  .htn   (domain NAME
           (:operator (!name ?v*) :pre (lit*) :del (atom*) :add (atom*))
           (:method (head term*) :name branch :pre (lit*) :tasks (task*)
                    [:unordered] [:before ((lit index)*)])
           ...)
  .prob  (problem NAME :init (atom*) :tasks (task*))
  .pref  one general preference formula:
           bdf | (>> (bdf value)+) | (if bdf gpf) | (&! gpf gpf+) | (|! gpf gpf+)

Negative literals are written (not atom); in a method's :pre, each variable
of one must be bound by the head or by a positive literal, since a negative
literal binds nothing. Preference BDFs use the keywords
final occ apply before hold-before hold-after hold-between next always
eventually until exists forall not and or. Negation is pushed to atoms on
the way in, so parsed formulas are in negation normal form.
"""

from __future__ import annotations

from fractions import Fraction

from . import formulas as F
from .errors import (ArityMismatch, BadValueOrder, DuplicateName,
                     NonGroundInit, ParseError, UnboundVariable,
                     UnknownMethodName, UnknownPredicate, UnknownTask)
from .model import (Atom, Domain, Literal, Method, Operator, Problem, State,
                    Task, is_var)
from .sexpr import SExpr, format_fraction, parse_one, parse_sexprs

_BDF_KEYWORDS = {"final", "occ", "apply", "before", "hold-before", "hold-after",
                 "hold-between", "next", "always", "eventually", "until",
                 "exists", "forall", "not", "and", "or"}
_GPF_KEYWORDS = {">>", "if", "&!", "|!"}


def _fail(msg: str, filename: str, token=None) -> ParseError:
    return ParseError(msg, filename, token=str(token) if token is not None else None)


def _expect_list(x: SExpr, what: str, filename: str) -> list:
    if not isinstance(x, list):
        raise _fail(f"expected {what}, got {x!r}", filename, x)
    return x


def _expect_symbol(x: SExpr, what: str, filename: str) -> str:
    if not isinstance(x, str):
        raise _fail(f"expected {what}, got {x!r}", filename, x)
    return x


def _parse_term(x: SExpr, filename: str) -> str:
    term = _expect_symbol(x, "a term", filename)
    if term.startswith(":") or term.startswith("!"):
        raise _fail(f"bad term {term!r}", filename, term)
    return term


def _parse_atom(x: SExpr, filename: str) -> Atom:
    lst = _expect_list(x, "an atom", filename)
    if not lst:
        raise _fail("empty atom", filename)
    pred = _expect_symbol(lst[0], "a predicate symbol", filename)
    if pred in ("not",) or pred.startswith((":", "!", "?")):
        raise _fail(f"bad predicate {pred!r}", filename, pred)
    return Atom(pred, tuple(_parse_term(a, filename) for a in lst[1:]))


def _parse_literal(x: SExpr, filename: str) -> Literal:
    lst = _expect_list(x, "a literal", filename)
    if lst and lst[0] == "not":
        if len(lst) != 2:
            raise _fail("(not ...) takes one atom", filename)
        return Literal(_parse_atom(lst[1], filename), positive=False)
    return Literal(_parse_atom(x, filename), positive=True)


def _parse_task(x: SExpr, filename: str) -> Task:
    lst = _expect_list(x, "a task", filename)
    if not lst:
        raise _fail("empty task", filename)
    head = _expect_symbol(lst[0], "a task symbol", filename)
    primitive = head.startswith("!")
    name = head[1:] if primitive else head
    if not name or name.startswith((":", "?", "!")):
        raise _fail(f"bad task symbol {head!r}", filename, head)
    return Task(name, tuple(_parse_term(a, filename) for a in lst[1:]), primitive)


def _keyword_sections(lst: list, allowed: dict[str, bool], filename: str) -> dict:
    """Split `:kw value` pairs (and bare flags) out of a form body."""
    out: dict[str, SExpr] = {}
    i = 0
    while i < len(lst):
        kw = lst[i]
        if not isinstance(kw, str) or not kw.startswith(":"):
            raise _fail(f"expected a :keyword, got {kw!r}", filename, kw)
        if kw not in allowed:
            raise _fail(f"unknown keyword {kw}", filename, kw)
        if kw in out:
            raise _fail(f"duplicate keyword {kw}", filename, kw)
        takes_value = allowed[kw]
        if takes_value:
            if i + 1 >= len(lst):
                raise _fail(f"{kw} needs a value", filename, kw)
            out[kw] = lst[i + 1]
            i += 2
        else:
            out[kw] = True
            i += 1
    return out


class _ArityTable:
    """Fixed arity per predicate across a domain."""

    def __init__(self, filename: str):
        self.filename = filename
        self.arity: dict[str, int] = {}

    def note(self, atom: Atom) -> None:
        prev = self.arity.setdefault(atom.pred, len(atom.args))
        if prev != len(atom.args):
            raise ArityMismatch(
                f"predicate {atom.pred} used with arity {len(atom.args)} and {prev}",
                self.filename, token=atom.pred)

    def check(self, atom: Atom) -> None:
        if atom.pred not in self.arity:
            raise UnknownPredicate(f"unknown predicate {atom.pred}",
                                   self.filename, token=atom.pred)
        if self.arity[atom.pred] != len(atom.args):
            raise ArityMismatch(
                f"predicate {atom.pred} expects {self.arity[atom.pred]} args, "
                f"got {len(atom.args)}", self.filename, token=atom.pred)


def _lit_vars(lits) -> set[str]:
    return {a for l in lits for a in l.atom.args if is_var(a)}


def parse_domain(text, filename: str = "<domain>") -> Domain:
    exprs = parse_sexprs(text, filename)
    if len(exprs) != 1:
        raise _fail("a domain file holds exactly one (domain ...) form", filename)
    top = _expect_list(exprs[0], "(domain ...)", filename)
    if len(top) < 2 or top[0] != "domain":
        raise _fail("expected (domain NAME ...)", filename, top[0] if top else None)
    name = _expect_symbol(top[1], "a domain name", filename)

    operators: dict[str, Operator] = {}
    methods: list[Method] = []
    arities = _ArityTable(filename)

    for form in top[2:]:
        lst = _expect_list(form, "an :operator or :method form", filename)
        if not lst:
            raise _fail("empty form in domain", filename)
        if lst[0] == ":operator":
            operators_form(lst, operators, arities, filename)
        elif lst[0] == ":method":
            methods.append(method_form(lst, arities, filename))
        else:
            raise _fail(f"expected :operator or :method, got {lst[0]!r}",
                        filename, lst[0])

    dom = Domain(name, operators, tuple(methods))
    _validate_domain(dom, filename)
    return dom


def operators_form(lst, operators, arities, filename) -> None:
    if len(lst) < 2:
        raise _fail(":operator needs a head", filename)
    head = _expect_list(lst[1], "an operator head", filename)
    if not head or not isinstance(head[0], str) or not head[0].startswith("!"):
        raise _fail("operator head must be (!name ?v*)", filename,
                    head[0] if head else None)
    name = head[0][1:]
    if not name:
        raise _fail("empty operator name", filename, head[0])
    params = []
    for p in head[1:]:
        p = _expect_symbol(p, "a parameter variable", filename)
        if not is_var(p):
            raise _fail(f"operator parameter {p!r} must be a variable", filename, p)
        if p in params:
            raise _fail(f"duplicate parameter {p}", filename, p)
        params.append(p)
    if name in operators:
        raise DuplicateName(f"duplicate operator {name}", filename, token=name)

    sections = _keyword_sections(lst[2:], {":pre": True, ":del": True, ":add": True},
                                 filename)
    pre = tuple(_parse_literal(l, filename)
                for l in _expect_list(sections.get(":pre", []), ":pre list", filename))
    delete = tuple(_parse_atom(a, filename)
                   for a in _expect_list(sections.get(":del", []), ":del list", filename))
    add = tuple(_parse_atom(a, filename)
                for a in _expect_list(sections.get(":add", []), ":add list", filename))
    for atom in [l.atom for l in pre] + list(delete) + list(add):
        arities.note(atom)
        for a in atom.args:
            if is_var(a) and a not in params:
                raise _fail(f"variable {a} of operator {name} not in its parameters",
                            filename, a)
    operators[name] = Operator(name, tuple(params), pre, add, delete)


def method_form(lst, arities, filename) -> Method:
    if len(lst) < 2:
        raise _fail(":method needs a head task", filename)
    head = _parse_task(lst[1], filename)
    if head.primitive:
        raise _fail(f"method head {head.name} must be nonprimitive", filename,
                    head.name)
    sections = _keyword_sections(
        lst[2:], {":name": True, ":pre": True, ":tasks": True,
                  ":unordered": False, ":before": True}, filename)
    if ":name" not in sections:
        raise _fail("method needs :name", filename)
    branch = _expect_symbol(sections[":name"], "a branch name", filename)
    pre = tuple(_parse_literal(l, filename)
                for l in _expect_list(sections.get(":pre", []), ":pre list", filename))
    subtasks = tuple(_parse_task(t, filename)
                     for t in _expect_list(sections.get(":tasks", []), ":tasks list",
                                           filename))
    unordered = bool(sections.get(":unordered", False))
    before: list[tuple[Literal, int]] = []
    for entry in _expect_list(sections.get(":before", []), ":before list", filename):
        pair = _expect_list(entry, "a (literal index) pair", filename)
        if len(pair) != 2 or not isinstance(pair[1], Fraction) or pair[1].denominator != 1:
            raise _fail(":before entries are (literal index)", filename)
        idx = int(pair[1])
        if not 0 <= idx < len(subtasks):
            raise _fail(f":before index {idx} out of range", filename, str(idx))
        before.append((_parse_literal(pair[0], filename), idx))
    if before and unordered:
        raise _fail(":before cannot be combined with :unordered", filename)

    for lit in pre:
        arities.note(lit.atom)
    # a negative literal binds nothing: it is only tested once the head and
    # the positive literals have bound its variables
    bound = {a for a in head.args if is_var(a)} \
        | _lit_vars(l for l in pre if l.positive)
    for lit in pre:
        if lit.positive:
            continue
        for a in lit.atom.args:
            if is_var(a) and a not in bound:
                raise _fail(f"variable {a} of negative precondition {lit} of "
                            f"method {branch} is not bound by the head or a "
                            "positive precondition", filename, a)
    for st in subtasks:
        for a in st.args:
            if is_var(a) and a not in bound:
                raise _fail(f"subtask variable {a} of method {branch} is not bound "
                            "by the head or preconditions", filename, a)
    for lit, _ in before:
        arities.note(lit.atom)
        for a in lit.atom.args:
            if is_var(a) and a not in bound:
                raise _fail(f":before variable {a} of method {branch} is unbound",
                            filename, a)
    return Method(branch, head, pre, subtasks, unordered, tuple(before))


def _validate_domain(dom: Domain, filename: str) -> None:
    head_names = {m.task.name for m in dom.methods}
    for m in dom.methods:
        for st in m.subtasks:
            if st.primitive:
                if st.name not in dom.operators:
                    raise UnknownTask(f"method {m.branch} uses unknown operator "
                                      f"!{st.name}", filename, token=st.name)
                if len(st.args) != len(dom.operators[st.name].params):
                    raise ArityMismatch(
                        f"operator {st.name} expects "
                        f"{len(dom.operators[st.name].params)} args", filename,
                        token=st.name)
            elif st.name not in head_names:
                raise UnknownTask(f"method {m.branch} uses undecomposable task "
                                  f"{st.name}", filename, token=st.name)


def parse_problem(text, domain: Domain, filename: str = "<problem>") -> Problem:
    exprs = parse_sexprs(text, filename)
    if len(exprs) != 1:
        raise _fail("a problem file holds exactly one (problem ...) form", filename)
    top = _expect_list(exprs[0], "(problem ...)", filename)
    if len(top) < 2 or top[0] != "problem":
        raise _fail("expected (problem NAME ...)", filename, top[0] if top else None)
    name = _expect_symbol(top[1], "a problem name", filename)
    sections = _keyword_sections(top[2:], {":init": True, ":tasks": True}, filename)

    arities = _domain_arities(domain, filename)
    facts = []
    for a in _expect_list(sections.get(":init", []), ":init list", filename):
        atom = _parse_atom(a, filename)
        if any(is_var(x) for x in atom.args):
            raise NonGroundInit(f"init atom {atom} is not ground", filename,
                                token=atom.pred)
        arities.check(atom)
        facts.append(atom)

    head_names = {m.task.name for m in domain.methods}
    network = []
    for t in _expect_list(sections.get(":tasks", []), ":tasks list", filename):
        task = _parse_task(t, filename)
        if any(is_var(x) for x in task.args):
            raise _fail(f"initial task {task.name} is not ground", filename, task.name)
        if task.primitive:
            if task.name not in domain.operators:
                raise UnknownTask(f"unknown operator !{task.name}", filename,
                                  token=task.name)
            if len(task.args) != len(domain.operators[task.name].params):
                raise ArityMismatch(f"operator {task.name} arity mismatch", filename,
                                    token=task.name)
        elif task.name not in head_names:
            raise UnknownTask(f"unknown task {task.name}", filename, token=task.name)
        network.append(task)

    return Problem(name, State(frozenset(facts)), tuple(network), domain)


def _domain_arities(domain: Domain, filename: str) -> _ArityTable:
    arities = _ArityTable(filename)
    for op in domain.operators.values():
        for lit in op.pre:
            arities.note(lit.atom)
        for atom in op.add + op.delete:
            arities.note(atom)
    for m in domain.methods:
        for lit in m.pre:
            arities.note(lit.atom)
        for lit, _ in m.before:
            arities.note(lit.atom)
    return arities


# --- preferences ----------------------------------------------------------------

def _resolve_occ_ref(x: SExpr, domain: Domain, filename: str) -> F.Ref:
    lst = _expect_list(x, "a task reference", filename)
    if not lst:
        raise _fail("empty task reference", filename)
    head = _expect_symbol(lst[0], "a task symbol", filename)
    name = head[1:] if head.startswith("!") else head
    args = tuple(_parse_term(a, filename) for a in lst[1:])
    if name in domain.operators:
        return F.Ref("op", name, args)
    if any(m.task.name == name for m in domain.methods):
        return F.Ref("task", name, args)
    raise UnknownTask(f"unknown task {name} in preference", filename, token=name)


def _resolve_apply_ref(x: SExpr, domain: Domain, filename: str) -> F.Ref:
    lst = _expect_list(x, "a method reference", filename)
    if not lst:
        raise _fail("empty method reference", filename)
    branch = _expect_symbol(lst[0], "a method branch name", filename)
    if not any(m.branch == branch for m in domain.methods):
        raise UnknownMethodName(f"unknown method branch {branch}", filename,
                                token=branch)
    return F.Ref("method", branch, tuple(_parse_term(a, filename)
                                         for a in lst[1:]))


def _parse_pref_literal(x: SExpr, domain: Domain, arities: _ArityTable,
                        filename: str) -> Literal:
    lit = _parse_literal(x, filename)
    arities.check(lit.atom)
    return lit


def _parse_bdf(x: SExpr, domain: Domain, arities: _ArityTable,
               filename: str) -> F.BDF:
    lst = _expect_list(x, "a formula", filename)
    if not lst:
        raise _fail("empty formula", filename)
    head = lst[0]
    if not isinstance(head, str):
        raise _fail(f"formula head must be a symbol, got {head!r}", filename, head)

    def sub(i: int) -> F.BDF:
        return _parse_bdf(lst[i], domain, arities, filename)

    def need(n: int, what: str):
        if len(lst) != n + 1:
            raise _fail(f"({head} ...) takes {what}", filename, head)

    if head == "final":
        need(1, "one literal")
        return F.Final(_parse_pref_literal(lst[1], domain, arities, filename))
    if head == "occ":
        need(1, "one task")
        return F.Occ(_resolve_occ_ref(lst[1], domain, filename))
    if head == "apply":
        need(1, "one method")
        return F.Apply(_resolve_apply_ref(lst[1], domain, filename))
    if head == "before":
        need(2, "two tasks")
        return F.Before(_resolve_occ_ref(lst[1], domain, filename),
                        _resolve_occ_ref(lst[2], domain, filename))
    if head == "hold-before":
        need(2, "a task then a literal")
        return F.HoldBefore(_resolve_occ_ref(lst[1], domain, filename),
                            _parse_pref_literal(lst[2], domain, arities, filename))
    if head == "hold-after":
        need(2, "a task then a literal")
        return F.HoldAfter(_resolve_occ_ref(lst[1], domain, filename),
                           _parse_pref_literal(lst[2], domain, arities, filename))
    if head == "hold-between":
        need(3, "a task, a literal, a task")
        return F.HoldBetween(_resolve_occ_ref(lst[1], domain, filename),
                             _parse_pref_literal(lst[2], domain, arities, filename),
                             _resolve_occ_ref(lst[3], domain, filename))
    if head == "next":
        need(1, "one formula")
        return F.Next(sub(1))
    if head == "always":
        need(1, "one formula")
        return F.Always(sub(1))
    if head == "eventually":
        need(1, "one formula")
        return F.Eventually(sub(1))
    if head == "until":
        need(2, "two formulas")
        return F.Until(sub(1), sub(2))
    if head in ("exists", "forall"):
        need(2, "a variable list then a body")
        var_list = _expect_list(lst[1], "a variable list", filename)
        if not var_list:
            raise _fail(f"({head} ...) needs at least one variable", filename, head)
        body = sub(2)
        cls = F.Exists if head == "exists" else F.Forall
        for v in reversed(var_list):
            v = _expect_symbol(v, "a variable", filename)
            if not is_var(v):
                raise _fail(f"quantified name {v!r} must start with '?'",
                            filename, v)
            body = cls(v, body)
        return body
    if head == "not":
        need(1, "one formula")
        return F.Not(sub(1))
    if head == "and":
        return F.mk_and(_parse_bdf(p, domain, arities, filename) for p in lst[1:])
    if head == "or":
        return F.mk_or(_parse_bdf(p, domain, arities, filename) for p in lst[1:])
    if head in _GPF_KEYWORDS:
        raise _fail(f"{head} is a preference connective, not a formula", filename,
                    head)
    # anything else is a state literal
    return F.LitF(_parse_pref_literal(x, domain, arities, filename))


def _parse_gpf(x: SExpr, domain: Domain, arities: _ArityTable,
               filename: str) -> F.GPF:
    lst = _expect_list(x, "a preference formula", filename)
    head = lst[0] if lst else None
    if head == ">>":
        alts = []
        for entry in lst[1:]:
            pair = _expect_list(entry, "a (formula value) alternative", filename)
            if len(pair) != 2 or not isinstance(pair[1], Fraction):
                raise _fail("alternatives are written (formula value)", filename)
            alts.append((_parse_bdf(pair[0], domain, arities, filename), pair[1]))
        if not alts:
            raise _fail("(>> ...) needs at least one alternative", filename)
        try:
            return F.Atomic(F.APF(tuple(alts)))
        except BadValueOrder as e:
            raise BadValueOrder(str(e), filename) from None
    if head == "if":
        if len(lst) != 3:
            raise _fail("(if condition preference)", filename)
        return F.Cond(_parse_bdf(lst[1], domain, arities, filename),
                      _parse_gpf(lst[2], domain, arities, filename))
    if head in ("&!", "|!"):
        if len(lst) < 3:
            raise _fail(f"({head} ...) needs at least two preferences", filename,
                        head)
        parts = tuple(_parse_gpf(p, domain, arities, filename) for p in lst[1:])
        return F.Conj(parts) if head == "&!" else F.Disj(parts)
    return F.bdf_gpf(_parse_bdf(x, domain, arities, filename))


def parse_preference(text, domain: Domain, filename: str = "<preference>") -> F.GPF:
    expr = parse_one(text, filename)
    arities = _domain_arities(domain, filename)
    gpf = _parse_gpf(expr, domain, arities, filename)
    gpf = F.nnf_gpf(gpf)
    try:
        for b in F.gpf_bdfs(gpf):
            F.check_closed(b)
    except UnboundVariable as e:
        raise _fail(str(e), filename) from None
    return gpf


def empty_preference() -> F.GPF:
    """The trivial preference: every plan weighs 0."""
    return F.bdf_gpf(F.TRUE)


# --- printers (parse . print == identity) -----------------------------------------

def print_domain(dom: Domain) -> str:
    lines = [f"(domain {dom.name}"]
    for op in dom.operators.values():
        head = "(%s)" % " ".join(("!" + op.name,) + op.params)
        lines.append("  (:operator %s :pre (%s) :del (%s) :add (%s))" % (
            head,
            " ".join(map(str, op.pre)),
            " ".join(map(str, op.delete)),
            " ".join(map(str, op.add))))
    for m in dom.methods:
        parts = ["  (:method %s :name %s :pre (%s) :tasks (%s)" % (
            m.task, m.branch,
            " ".join(map(str, m.pre)),
            " ".join(map(str, m.subtasks)))]
        if m.unordered:
            parts.append(" :unordered")
        if m.before:
            parts.append(" :before (%s)" % " ".join(
                f"({l} {i})" for l, i in m.before))
        parts.append(")")
        lines.append("".join(parts))
    lines.append(")")
    return "\n".join(lines)


def print_problem(prob: Problem) -> str:
    init = " ".join(map(str, sorted(prob.init.facts)))
    tasks = " ".join(map(str, prob.network))
    return f"(problem {prob.name} :init ({init}) :tasks ({tasks}))"


def _print_ref(ref: F.Ref) -> str:
    head = ("!" + ref.name) if ref.kind == "op" else ref.name
    return "(%s)" % " ".join((head,) + ref.args)


def print_bdf(phi: F.BDF) -> str:
    if isinstance(phi, F.TrueC):
        return "(and)"
    if isinstance(phi, F.FalseC):
        return "(or)"
    if isinstance(phi, F.LitF):
        return str(phi.lit)
    if isinstance(phi, F.Final):
        return f"(final {phi.lit})"
    if isinstance(phi, F.Occ):
        return f"(occ {_print_ref(phi.ref)})"
    if isinstance(phi, F.Apply):
        return f"(apply {_print_ref(phi.ref)})"
    if isinstance(phi, F.Before):
        return f"(before {_print_ref(phi.t1)} {_print_ref(phi.t2)})"
    if isinstance(phi, F.HoldBefore):
        return f"(hold-before {_print_ref(phi.t)} {phi.lit})"
    if isinstance(phi, F.HoldAfter):
        return f"(hold-after {_print_ref(phi.t)} {phi.lit})"
    if isinstance(phi, F.HoldBetween):
        return (f"(hold-between {_print_ref(phi.t1)} {phi.lit} "
                f"{_print_ref(phi.t2)})")
    if isinstance(phi, F.Not):
        return f"(not {print_bdf(phi.sub)})"
    if isinstance(phi, F.And):
        return "(and %s)" % " ".join(print_bdf(p) for p in phi.parts)
    if isinstance(phi, F.Or):
        return "(or %s)" % " ".join(print_bdf(p) for p in phi.parts)
    if isinstance(phi, F.Exists):
        return f"(exists ({phi.var}) {print_bdf(phi.body)})"
    if isinstance(phi, F.Forall):
        return f"(forall ({phi.var}) {print_bdf(phi.body)})"
    if isinstance(phi, F.Next):
        return f"(next {print_bdf(phi.sub)})"
    if isinstance(phi, F.Always):
        return f"(always {print_bdf(phi.sub)})"
    if isinstance(phi, F.Eventually):
        return f"(eventually {print_bdf(phi.sub)})"
    if isinstance(phi, F.Until):
        return f"(until {print_bdf(phi.hold)} {print_bdf(phi.goal)})"
    raise ValueError(f"cannot print progression-internal node {phi!r}")


def print_preference(gpf: F.GPF) -> str:
    if isinstance(gpf, F.Atomic):
        if len(gpf.apf.alts) == 1 and gpf.apf.alts[0][1] == F.W_MIN:
            return print_bdf(gpf.apf.alts[0][0])
        return "(>> %s)" % " ".join(
            f"({print_bdf(b)} {format_fraction(v)})" for b, v in gpf.apf.alts)
    if isinstance(gpf, F.Cond):
        return f"(if {print_bdf(gpf.cond)} {print_preference(gpf.body)})"
    if isinstance(gpf, F.Conj):
        return "(&! %s)" % " ".join(print_preference(p) for p in gpf.parts)
    return "(|! %s)" % " ".join(print_preference(p) for p in gpf.parts)
