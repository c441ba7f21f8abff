"""Minimal s-expression reader and printer.

Atoms are symbols or exact rationals (decimals like 0.4 or ratios like 2/5);
`;` comments run to end of line. Every failure is a ParseError carrying a
1-based line/column; arbitrary byte input never raises anything else.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

from .errors import ParseError

SExpr = Union[str, Fraction, list]


class Token(NamedTuple):
    text: str
    line: int
    col: int


_DELIMS = "()\"; \t\r\n"


def _tokenize(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            tokens.append(Token(c, line, col))
            i += 1
            col += 1
        elif c == '"':
            raise ParseError("string literals are not part of the grammar",
                             filename, line, col, token='"')
        else:
            start = i
            startcol = col
            while i < n and text[i] not in _DELIMS:
                i += 1
                col += 1
            tokens.append(Token(text[start:i], line, startcol))
    return tokens


def _atom(tok: Token, filename: str) -> SExpr:
    t = tok.text
    if t[0].isdigit() or (t[0] in "+-." and len(t) > 1 and t[1].isdigit()):
        try:
            return Fraction(t)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"malformed number {t!r}", filename, tok.line,
                             tok.col, token=t) from None
    return t


def parse_sexprs(text, filename: str = "<string>") -> list[SExpr]:
    """Parse all top-level s-expressions in text (str or UTF-8 bytes)."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"not valid UTF-8: {e}", filename) from None
    tokens = _tokenize(text, filename)
    out: list[SExpr] = []
    stack: list[tuple[list, Token]] = []
    for tok in tokens:
        if tok.text == "(":
            stack.append(([], tok))
        elif tok.text == ")":
            if not stack:
                raise ParseError("unbalanced ')'", filename, tok.line, tok.col,
                                 token=")")
            done, _ = stack.pop()
            if stack:
                stack[-1][0].append(done)
            else:
                out.append(done)
        else:
            atom = _atom(tok, filename)
            if stack:
                stack[-1][0].append(atom)
            else:
                out.append(atom)
    if stack:
        _, tok = stack[-1]
        raise ParseError("unbalanced '('", filename, tok.line, tok.col, token="(")
    return out


def parse_one(text, filename: str = "<string>") -> SExpr:
    exprs = parse_sexprs(text, filename)
    if len(exprs) != 1:
        raise ParseError(f"expected exactly one expression, found {len(exprs)}",
                         filename)
    return exprs[0]


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
