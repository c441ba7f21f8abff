"""Exception types shared across the planner."""

from __future__ import annotations


class PrefHtnError(Exception):
    """Base class for all planner errors."""


class PreconditionViolation(PrefHtnError):
    """An operator was applied in a state that does not satisfy its preconditions."""

    def __init__(self, literal, message: str | None = None):
        self.literal = literal
        super().__init__(message or f"precondition failed: {literal}")


class IllegalEvent(PrefHtnError):
    """A start/end/operator event was applied out of protocol."""


class UnboundVariable(PrefHtnError):
    """A formula contains a variable that is not bound by any quantifier."""


class ParseError(PrefHtnError):
    """Syntax or validation error in a domain/problem/preference file.

    Locations are 1-based; token is the offending lexeme when known. form
    is the parsed list the error is about, when the parser has it at hand:
    the parser then moves the error to the line and column of that list.
    The parser names the file of an error once the error leaves its readers.
    """

    def __init__(self, message: str, file: str = "<string>", line: int = 1,
                 col: int = 1, token: str | None = None, form=None):
        self.message = message
        self.file = file
        self.line = line
        self.col = col
        self.token = token
        self.form = form
        super().__init__(f"{file}:{line}:{col}: {message}")

    def at(self, file: str, line: int, col: int) -> ParseError:
        """The same error in file at line:col."""
        return type(self)(self.message, file, line, col, self.token)


class DuplicateName(ParseError):
    pass


class ArityMismatch(ParseError):
    pass


class UnknownTask(ParseError):
    pass


class UnknownPredicate(ParseError):
    pass


class NonGroundInit(ParseError):
    pass


class BadValueOrder(ParseError):
    pass


class UnknownMethodName(ParseError):
    pass


class ResourceLimit(PrefHtnError):
    """A configured search cap (time, decomposition depth) was hit."""

    def __init__(self, kind: str, stats=None):
        self.kind = kind
        self.stats = stats
        super().__init__(f"resource limit hit: {kind}")


class CapExceeded(PrefHtnError):
    """Brute-force enumeration hit a cap; carries the partial result."""

    def __init__(self, kind: str, partial=None):
        self.kind = kind
        self.partial = partial
        super().__init__(f"enumeration cap exceeded: {kind}")
