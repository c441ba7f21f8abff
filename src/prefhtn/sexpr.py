"""Minimal s-expression reader and printer.

Atoms are symbols or exact rationals (decimals like 0.4 or ratios like 2/5);
`;` comments run to end of line. Every failure is a ParseError carrying a
1-based line/column; arbitrary byte input never raises anything else.

The reader splits the text with one compiled regex and builds the lists from
the token strings alone. Offsets are looked up only when they are needed: on
a reader error, and by locate(), which gives the line:col of a parsed list.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Optional, Union

from .errors import ParseError

SExpr = Union[str, Fraction, list]

# Whitespace and comments are skipped; group 1 is the token after them, if
# any: a parenthesis, a double quote (always an error) or an atom. The token
# is optional, so a match never fails and the engine never backtracks, and
# findall gives the tokens in order plus empty strings where the text ends.
_TOKEN = re.compile(r'(?:[ \t\r\n]+|;[^\n]*)*([()"]|[^()"; \t\r\n]+)?')


def _is_number(tok: str) -> bool:
    return tok[0].isdigit() or (tok[0] in "+-." and len(tok) > 1
                                and tok[1].isdigit())


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _token_position(text: str, index: int) -> tuple[int, int]:
    """The line and column of the token at this index in findall's list."""
    match = next(itertools.islice(_TOKEN.finditer(text), index, None))
    return _position(text, match.start(1))


def _error(text: str, tokens: list[str], filename: str) -> ParseError:
    """The first error in tokens: a string literal anywhere, else a stray
    ')' or a malformed number in reading order, else the innermost '(' left
    open."""
    def at(i: int, message: str, token: str) -> ParseError:
        line, col = _token_position(text, i)
        return ParseError(message, filename, line, col, token=token)

    if '"' in tokens:
        return at(tokens.index('"'), "string literals are not part of the "
                  "grammar", '"')
    opened: list[int] = []
    for i, tok in enumerate(tokens):
        if tok == "(":
            opened.append(i)
        elif tok == ")":
            if not opened:
                return at(i, "unbalanced ')'", ")")
            opened.pop()
        elif tok and _is_number(tok):
            try:
                Fraction(tok)
            except (ValueError, ZeroDivisionError):
                return at(i, f"malformed number {tok!r}", tok)
    return at(opened[-1], "unbalanced '('", "(")


def _decode(text, filename: str) -> str:
    if isinstance(text, (bytes, bytearray)):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"not valid UTF-8: {e}", filename) from None
    return text


def parse_sexprs(text, filename: str = "<string>") -> list[SExpr]:
    """Parse all top-level s-expressions in text (str or UTF-8 bytes)."""
    text = _decode(text, filename)
    tokens = _TOKEN.findall(text)
    out = lst = []
    stack: list[list] = []
    try:
        for tok in tokens:
            if tok == "(":
                new: list = []
                lst.append(new)
                stack.append(lst)
                lst = new
            elif tok == ")":
                lst = stack.pop()
            elif tok:
                if _is_number(tok):
                    tok = Fraction(tok)
                elif tok == '"':
                    raise ValueError
                lst.append(tok)
    except (IndexError, ValueError, ZeroDivisionError):
        # a stray ')', a string literal or a malformed number: _error finds
        # the first error in the text and where it is
        raise _error(text, tokens, filename) from None
    if stack:
        raise _error(text, tokens, filename)
    return out


def locate(text, exprs: list[SExpr], target: list
           ) -> Optional[tuple[int, int]]:
    """The line and column of the '(' that opens target, a list in exprs,
    the trees parse_sexprs read from text; None if target is not among
    them. The n-th list in preorder is opened by the n-th '('."""
    rank, stack = 0, list(reversed(exprs))
    while stack:
        x = stack.pop()
        if type(x) is not list:
            continue
        if x is target:
            break
        rank += 1
        stack.extend(reversed(x))
    else:
        return None
    text = _decode(text, "<string>")
    for i, tok in enumerate(_TOKEN.findall(text)):
        if tok == "(":
            if rank == 0:
                return _token_position(text, i)
            rank -= 1
    return None


def format_fraction(v: Fraction) -> str:
    """Exact text form: decimal when the denominator is 2^a * 5^b, else n/d."""
    if v.denominator == 1:
        return str(v.numerator)
    d = v.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{v.numerator}/{v.denominator}"
    shift = max(twos, fives)
    scaled = v.numerator * 10 ** shift // v.denominator
    text = str(abs(scaled)).rjust(shift + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{text[:-shift]}.{text[-shift:]}"


def print_sexpr(expr: SExpr) -> str:
    if isinstance(expr, Fraction):
        return format_fraction(expr)
    if isinstance(expr, str):
        return expr
    return "(%s)" % " ".join(print_sexpr(e) for e in expr)
