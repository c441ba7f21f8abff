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
literal binds nothing. A preference BDF is a literal, (and bdf*), (or bdf*),
(exists (?v+) bdf), (forall (?v+) bdf), or one of the fixed-arity forms of
BDF_FORMS, which the parser, the printer and the random generator all read.
A (not bdf) may stand over any formula, and a preference is kept as it was
written, except that formulas.mk_and and mk_or flatten nested joins and
drop units and duplicates, and a quantifier over several variables nests
one per variable.
"""

from __future__ import annotations

from fractions import Fraction

from . import formulas as F
from .errors import (ArityMismatch, BadValueOrder, DuplicateName,
                     NonGroundInit, ParseError, UnknownMethodName,
                     UnknownPredicate, UnknownTask)
from .model import (Atom, Domain, Literal, Method, Operator, Problem, State,
                    Task, is_var)
from .sexpr import SExpr, format_fraction, locate, parse_sexprs

# Each fixed-arity BDF keyword: its node class and the kinds of its
# arguments, in the order of the class's fields. A kind is "formula" (a
# BDF), "literal", "task" (an operator or nonprimitive task reference) or
# "method" (a method branch reference).
BDF_FORMS = {
    "final": (F.Final, ("literal",)),
    "occ": (F.Occ, ("task",)),
    "apply": (F.Apply, ("method",)),
    "before": (F.Before, ("task", "task")),
    "hold-before": (F.HoldBefore, ("task", "literal")),
    "hold-after": (F.HoldAfter, ("task", "literal")),
    "hold-between": (F.HoldBetween, ("task", "literal", "task")),
    "always": (F.Always, ("formula",)),
    "eventually": (F.Eventually, ("formula",)),
    "next": (F.Next, ("formula",)),
    "until": (F.Until, ("formula", "formula")),
    "not": (F.Not, ("formula",)),
}
_GPF_KEYWORDS = {">>", "if", "&!", "|!"}


def _fail(msg: str, token=None, form=None) -> ParseError:
    return ParseError(msg, token=None if token is None else str(token), form=form)


def _about(exc: ParseError, form: list) -> ParseError:
    """exc, now about form unless it is about a list already."""
    if exc.form is None:
        exc.form = form
    return exc


def _read(reader, text, filename: str, *args):
    """reader(exprs, *args) on the s-expressions of text. An error that
    escapes it is put in filename and, when it is about one parsed list
    (ParseError.form), at that list's line:col, which only the text and the
    trees read from it know."""
    exprs = parse_sexprs(text, filename)
    try:
        return reader(exprs, *args)
    except ParseError as exc:
        where = None if exc.form is None else locate(text, exprs, exc.form)
        raise exc.at(filename, *(where or (exc.line, exc.col))) from None


def _expect_list(x: SExpr, what: str, form=None) -> list:
    if not isinstance(x, list):
        raise _fail(f"expected {what}, got {x!r}", x, form)
    return x


def _expect_symbol(x: SExpr, what: str, form=None) -> str:
    if not isinstance(x, str):
        raise _fail(f"expected {what}, got {x!r}", x, form)
    return x


def _parse_args(lst: list) -> tuple[str, ...]:
    """The terms after the head of an atom, task or reference."""
    args = tuple(lst[1:])
    for term in args:
        _expect_symbol(term, "a term", lst)
        if term.startswith(":") or term.startswith("!"):
            raise _fail(f"bad term {term!r}", term, lst)
    return args


def _parse_atom(x: SExpr) -> Atom:
    lst = _expect_list(x, "an atom")
    if not lst:
        raise _fail("empty atom", form=lst)
    pred = _expect_symbol(lst[0], "a predicate symbol", lst)
    if pred in ("not",) or pred.startswith((":", "!", "?")):
        raise _fail(f"bad predicate {pred!r}", pred, lst)
    return Atom(pred, _parse_args(lst))


def _parse_literal(x: SExpr) -> Literal:
    lst = _expect_list(x, "a literal")
    if lst and lst[0] == "not":
        if len(lst) != 2:
            raise _fail("(not ...) takes one atom", form=lst)
        return Literal(_parse_atom(lst[1]), positive=False)
    return Literal(_parse_atom(x), positive=True)


def _parse_task(x: SExpr) -> Task:
    lst = _expect_list(x, "a task")
    if not lst:
        raise _fail("empty task", form=lst)
    head = _expect_symbol(lst[0], "a task symbol", lst)
    primitive = head.startswith("!")
    name = head[1:] if primitive else head
    if not name or name.startswith((":", "?", "!")):
        raise _fail(f"bad task symbol {head!r}", head, lst)
    return Task(name, _parse_args(lst), primitive)


def _keyword_sections(lst: list, allowed: dict[str, bool]) -> dict:
    """Split `:kw value` pairs (and bare flags) out of a form body."""
    out: dict[str, SExpr] = {}
    i = 0
    while i < len(lst):
        kw = lst[i]
        if not isinstance(kw, str) or not kw.startswith(":"):
            raise _fail(f"expected a :keyword, got {kw!r}", kw)
        if kw not in allowed:
            raise _fail(f"unknown keyword {kw}", kw)
        if kw in out:
            raise _fail(f"duplicate keyword {kw}", kw)
        takes_value = allowed[kw]
        if takes_value:
            if i + 1 >= len(lst):
                raise _fail(f"{kw} needs a value", kw)
            out[kw] = lst[i + 1]
            i += 2
        else:
            out[kw] = True
            i += 1
    return out


class _ArityTable:
    """Fixed arity per predicate across a domain."""

    def __init__(self):
        self.arity: dict[str, int] = {}

    def note(self, atom: Atom) -> None:
        prev = self.arity.setdefault(atom.pred, len(atom.args))
        if prev != len(atom.args):
            raise ArityMismatch(
                f"predicate {atom.pred} used with arity {len(atom.args)} and {prev}",
                token=atom.pred)

    def check(self, atom: Atom, form: list) -> None:
        """Raise unless atom, read from form, fits the table."""
        if atom.pred not in self.arity:
            raise UnknownPredicate(f"unknown predicate {atom.pred}",
                                   token=atom.pred, form=form)
        if self.arity[atom.pred] != len(atom.args):
            raise ArityMismatch(
                f"predicate {atom.pred} expects {self.arity[atom.pred]} args, "
                f"got {len(atom.args)}", token=atom.pred, form=form)


def _lit_vars(lits) -> set[str]:
    return {a for l in lits for a in l.atom.args if is_var(a)}


def parse_domain(text, filename: str = "<domain>") -> Domain:
    return _read(_domain, text, filename)


def _domain(exprs: list) -> Domain:
    if len(exprs) != 1:
        raise _fail("a domain file holds exactly one (domain ...) form")
    top = _expect_list(exprs[0], "(domain ...)")
    if len(top) < 2 or top[0] != "domain":
        raise _fail("expected (domain NAME ...)", top[0] if top else None, top)
    name = _expect_symbol(top[1], "a domain name", top)

    operators: dict[str, Operator] = {}
    methods: list[Method] = []
    method_forms: list[list] = []
    arities = _ArityTable()

    # an error inside a form that is about no list of its own is about the form
    for form in top[2:]:
        lst = _expect_list(form, "an :operator or :method form", top)
        try:
            if not lst:
                raise _fail("empty form in domain")
            if lst[0] == ":operator":
                operators_form(lst, operators, arities)
            elif lst[0] == ":method":
                methods.append(method_form(lst, arities))
                method_forms.append(lst)
            else:
                raise _fail(f"expected :operator or :method, got {lst[0]!r}", lst[0])
        except ParseError as exc:
            raise _about(exc, lst)

    dom = Domain(name, operators, tuple(methods))
    head_names = {m.task.name for m in methods}
    for m, form in zip(methods, method_forms):
        for st in m.subtasks:
            _check_call(st, dom, head_names, f"method {m.branch}", form)
    return dom


def operators_form(lst, operators, arities) -> None:
    if len(lst) < 2:
        raise _fail(":operator needs a head")
    head = _expect_list(lst[1], "an operator head")
    if not head or not isinstance(head[0], str) or not head[0].startswith("!"):
        raise _fail("operator head must be (!name ?v*)", head[0] if head else None)
    name = head[0][1:]
    if not name:
        raise _fail("empty operator name", head[0])
    params = []
    for p in head[1:]:
        p = _expect_symbol(p, "a parameter variable")
        if not is_var(p):
            raise _fail(f"operator parameter {p!r} must be a variable", p)
        if p in params:
            raise _fail(f"duplicate parameter {p}", p)
        params.append(p)
    if name in operators:
        raise DuplicateName(f"duplicate operator {name}", token=name)

    sections = _keyword_sections(lst[2:], {":pre": True, ":del": True, ":add": True})
    pre = tuple(_parse_literal(l)
                for l in _expect_list(sections.get(":pre", []), ":pre list"))
    delete = tuple(_parse_atom(a)
                   for a in _expect_list(sections.get(":del", []), ":del list"))
    add = tuple(_parse_atom(a)
                for a in _expect_list(sections.get(":add", []), ":add list"))
    for atom in [l.atom for l in pre] + list(delete) + list(add):
        arities.note(atom)
        for a in atom.args:
            if is_var(a) and a not in params:
                raise _fail(f"variable {a} of operator {name} not in its parameters", a)
    operators[name] = Operator(name, tuple(params), pre, add, delete)


def method_form(lst, arities) -> Method:
    if len(lst) < 2:
        raise _fail(":method needs a head task")
    head = _parse_task(lst[1])
    if head.primitive:
        raise _fail(f"method head {head.name} must be nonprimitive", head.name)
    sections = _keyword_sections(
        lst[2:], {":name": True, ":pre": True, ":tasks": True,
                  ":unordered": False, ":before": True})
    if ":name" not in sections:
        raise _fail("method needs :name")
    branch = _expect_symbol(sections[":name"], "a branch name")
    pre = tuple(_parse_literal(l)
                for l in _expect_list(sections.get(":pre", []), ":pre list"))
    subtasks = tuple(_parse_task(t)
                     for t in _expect_list(sections.get(":tasks", []), ":tasks list"))
    unordered = bool(sections.get(":unordered", False))
    before: list[tuple[Literal, int]] = []
    for entry in _expect_list(sections.get(":before", []), ":before list"):
        pair = _expect_list(entry, "a (literal index) pair")
        if len(pair) != 2 or not isinstance(pair[1], Fraction) or pair[1].denominator != 1:
            raise _fail(":before entries are (literal index)")
        idx = int(pair[1])
        if not 0 <= idx < len(subtasks):
            raise _fail(f":before index {idx} out of range", idx)
        before.append((_parse_literal(pair[0]), idx))
    if before and unordered:
        raise _fail(":before cannot be combined with :unordered")

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
                            "positive precondition", a)
    for st in subtasks:
        for a in st.args:
            if is_var(a) and a not in bound:
                raise _fail(f"subtask variable {a} of method {branch} is not bound "
                            "by the head or preconditions", a)
    for lit, _ in before:
        arities.note(lit.atom)
        for a in lit.atom.args:
            if is_var(a) and a not in bound:
                raise _fail(f":before variable {a} of method {branch} is unbound", a)
    return Method(branch, head, pre, subtasks, unordered, tuple(before))


def _check_call(task: Task, dom: Domain, head_names: set[str], caller: str,
                form: list) -> None:
    """A task call names an operator and gives it its arity, or names a
    nonprimitive task that some method decomposes; form is the list an
    error reports."""
    if not task.primitive:
        if task.name not in head_names:
            raise UnknownTask(f"{caller} calls task {task.name}, which no "
                              "method decomposes", token=task.name, form=form)
        return
    op = dom.operators.get(task.name)
    if op is None:
        raise UnknownTask(f"{caller} calls unknown operator !{task.name}",
                          token=task.name, form=form)
    if len(task.args) != len(op.params):
        raise ArityMismatch(f"{caller} calls operator {task.name} with "
                            f"{len(task.args)} args, it expects "
                            f"{len(op.params)}", token=task.name, form=form)


def parse_problem(text, domain: Domain, filename: str = "<problem>") -> Problem:
    return _read(_problem, text, filename, domain)


def _problem(exprs: list, domain: Domain) -> Problem:
    if len(exprs) != 1:
        raise _fail("a problem file holds exactly one (problem ...) form")
    top = _expect_list(exprs[0], "(problem ...)")
    if len(top) < 2 or top[0] != "problem":
        raise _fail("expected (problem NAME ...)", top[0] if top else None, top)
    # an error that is about no list of its own is about the problem form
    try:
        name = _expect_symbol(top[1], "a problem name")
        sections = _keyword_sections(top[2:], {":init": True, ":tasks": True})

        arities = _domain_arities(domain)
        facts = []
        for a in _expect_list(sections.get(":init", []), ":init list"):
            atom = _parse_atom(a)
            if any(is_var(x) for x in atom.args):
                raise NonGroundInit(f"init atom {atom} is not ground",
                                    token=atom.pred, form=a)
            arities.check(atom, a)
            facts.append(atom)

        head_names = {m.task.name for m in domain.methods}
        network = []
        for t in _expect_list(sections.get(":tasks", []), ":tasks list"):
            task = _parse_task(t)
            if any(is_var(x) for x in task.args):
                raise _fail(f"initial task {task.name} is not ground", task.name, t)
            _check_call(task, domain, head_names, "the task network", t)
            network.append(task)
    except ParseError as exc:
        raise _about(exc, top)

    return Problem(name, State(frozenset(facts)), tuple(network), domain,
                   empty_preference())


def _domain_arities(domain: Domain) -> _ArityTable:
    arities = _ArityTable()
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

def _parse_ref(kind: str, x: SExpr, domain: Domain) -> F.Ref:
    """A reference of kind "task" (an operator, written with or without its
    !, or a nonprimitive task) or of kind "method" (a method branch). It may
    leave out arguments (model.args_match) but not give more than its
    target ever carries: the operator's parameters, or the longest head of
    the task's methods or of the branch."""
    lst = _expect_list(x, f"a {kind} reference")
    if not lst:
        raise _fail(f"empty {kind} reference", form=lst)
    head = _expect_symbol(lst[0], f"a {kind} name", lst)
    name = head[1:] if kind == "task" and head.startswith("!") else head
    if kind == "method":
        heads = [m.task.args for m in domain.methods if m.branch == name]
        if not heads:
            raise UnknownMethodName(f"unknown method branch {name}", token=name,
                                    form=lst)
    elif name in domain.operators:
        kind = "op"
        heads = [domain.operators[name].params]
    else:
        heads = [m.task.args for m in domain.methods if m.task.name == name]
        if not heads:
            raise UnknownTask(f"unknown task {name} in preference", token=name,
                              form=lst)
    args = _parse_args(lst)
    most = max(map(len, heads))
    if len(args) > most:
        raise ArityMismatch(f"reference to {name} takes at most {most} "
                            f"args, got {len(args)}", token=name, form=lst)
    return F.Ref(kind, name, args)


def _parse_arg(kind: str, x: SExpr, domain: Domain, arities: _ArityTable,
               bound: frozenset):
    """One argument of a BDF_FORMS form, of the given kind, inside the
    quantifiers of the variables in bound."""
    if kind == "formula":
        return _parse_bdf(x, domain, arities, bound)
    if kind == "literal":
        arg = _parse_literal(x)
        arities.check(arg.atom, x)
        args = arg.atom.args
    else:
        arg = _parse_ref(kind, x, domain)
        args = arg.args
    for a in args:
        if is_var(a) and a not in bound:
            raise _fail(f"unbound variable {a}", a, x)
    return arg


def _parse_bdf(x: SExpr, domain: Domain, arities: _ArityTable,
               bound: frozenset = frozenset()) -> F.BDF:
    lst = _expect_list(x, "a formula")
    # an error inside lst that is about no list of its own is about lst
    try:
        if not lst:
            raise _fail("empty formula")
        head = lst[0]
        if not isinstance(head, str):
            raise _fail(f"formula head must be a symbol, got {head!r}", head)
        if head in BDF_FORMS:
            cls, kinds = BDF_FORMS[head]
            if len(lst) != len(kinds) + 1:
                raise _fail(f"expected ({head} {' '.join(kinds)})", head)
            return cls(*(_parse_arg(kind, arg, domain, arities, bound)
                         for kind, arg in zip(kinds, lst[1:])))
        if head in ("exists", "forall"):
            if len(lst) != 3:
                raise _fail(f"expected ({head} (?var+) formula)", head)
            var_list = _expect_list(lst[1], "a variable list")
            if not var_list:
                raise _fail(f"({head} ...) needs at least one variable", head)
            for v in var_list:
                v = _expect_symbol(v, "a variable")
                if not is_var(v):
                    raise _fail(f"quantified name {v!r} must start with '?'", v)
            body = _parse_bdf(lst[2], domain, arities, bound.union(var_list))
            cls = F.Exists if head == "exists" else F.Forall
            for v in reversed(var_list):
                body = cls(v, body)
            return body
        if head in ("and", "or"):
            join = F.mk_and if head == "and" else F.mk_or
            return join(_parse_bdf(p, domain, arities, bound) for p in lst[1:])
        if head in _GPF_KEYWORDS:
            raise _fail(f"{head} is a preference connective, not a formula", head)
        # anything else is a state literal
        return F.LitF(_parse_arg("literal", x, domain, arities, bound))
    except ParseError as exc:
        raise _about(exc, lst)


def _parse_gpf(x: SExpr, domain: Domain, arities: _ArityTable) -> F.GPF:
    lst = _expect_list(x, "a preference formula")
    head = lst[0] if lst else None
    # as in _parse_bdf; F.APF's BadValueOrder is about lst too
    try:
        if head == ">>":
            alts = []
            for entry in lst[1:]:
                pair = _expect_list(entry, "a (formula value) alternative")
                if len(pair) != 2 or not isinstance(pair[1], Fraction):
                    raise _fail("alternatives are written (formula value)", form=pair)
                alts.append((_parse_bdf(pair[0], domain, arities), pair[1]))
            if not alts:
                raise _fail("(>> ...) needs at least one alternative")
            return F.Atomic(F.APF(tuple(alts)))
        if head == "if":
            if len(lst) != 3:
                raise _fail("(if condition preference)")
            return F.Cond(_parse_bdf(lst[1], domain, arities),
                          _parse_gpf(lst[2], domain, arities))
        if head in ("&!", "|!"):
            if len(lst) < 3:
                raise _fail(f"({head} ...) needs at least two preferences", head)
            parts = tuple(_parse_gpf(p, domain, arities) for p in lst[1:])
            return F.Conj(parts) if head == "&!" else F.Disj(parts)
        return F.bdf_gpf(_parse_bdf(x, domain, arities))
    except ParseError as exc:
        raise _about(exc, lst)


def parse_preference(text, domain: Domain, filename: str = "<preference>") -> F.GPF:
    return _read(_preference, text, filename, domain)


def _preference(exprs: list, domain: Domain) -> F.GPF:
    if len(exprs) != 1:
        raise _fail(f"expected exactly one expression, found {len(exprs)}")
    return _parse_gpf(exprs[0], domain, _domain_arities(domain))


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


_KEYWORDS = {cls: keyword for keyword, (cls, _) in BDF_FORMS.items()}


def _print_arg(v) -> str:
    if isinstance(v, F.Ref):
        return _print_ref(v)
    if isinstance(v, Literal):
        return str(v)
    return print_bdf(v)


def print_bdf(phi: F.BDF) -> str:
    keyword = _KEYWORDS.get(type(phi))
    if keyword is not None:
        return "(%s %s)" % (keyword, " ".join(map(_print_arg,
                                                  F.node_fields(phi))))
    if isinstance(phi, F.TrueC):
        return "(and)"
    if isinstance(phi, F.FalseC):
        return "(or)"
    if isinstance(phi, F.LitF):
        return str(phi.lit)
    if isinstance(phi, (F.And, F.Or)):
        return "(%s %s)" % ("and" if isinstance(phi, F.And) else "or",
                            " ".join(map(print_bdf, phi.parts)))
    if isinstance(phi, (F.Exists, F.Forall)):
        return "(%s (%s) %s)" % ("exists" if isinstance(phi, F.Exists)
                                 else "forall", phi.var, print_bdf(phi.body))
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
