"""Source locations and diagnostics for the C-subset frontend."""

from __future__ import annotations

__all__ = ["SourceLocation", "CompileError", "LexError", "ParseError", "SemaError"]


class SourceLocation:
    """A point in a source file (1-based line and column).

    A value object: never mutated after construction, so it hashes by
    value.  The parser builds one per AST node, so it is a ``__slots__``
    class rather than a dataclass.  ``==``, ``hash``, ``repr`` and the
    pickled form keep the shape of the frozen dataclass this replaced,
    whose class-level ``UNKNOWN`` annotation made it a fourth field that
    was always ``None`` on instances.
    """

    __slots__ = ("filename", "line", "column")

    UNKNOWN: "SourceLocation"

    def __init__(self, filename: str, line: int, column: int) -> None:
        self.filename = filename
        self.line = line
        self.column = column

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.filename == other.filename  # type: ignore[attr-defined]
                and self.line == other.line  # type: ignore[attr-defined]
                and self.column == other.column  # type: ignore[attr-defined]
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.filename, self.line, self.column, None))

    def __repr__(self) -> str:
        return (
            f"SourceLocation(filename={self.filename!r}, line={self.line!r},"
            f" column={self.column!r}, UNKNOWN=None)"
        )

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __reduce__(self):
        return (SourceLocation, (self.filename, self.line, self.column))


SourceLocation.UNKNOWN = SourceLocation("<unknown>", 0, 0)


class CompileError(Exception):
    """Base class for frontend diagnostics carrying a source location."""

    def __init__(self, message: str, loc: SourceLocation = SourceLocation.UNKNOWN):
        super().__init__(f"{loc}: {message}")
        self.message = message
        self.loc = loc


class LexError(CompileError):
    """Invalid characters or malformed literals."""


class ParseError(CompileError):
    """Syntax errors."""


class SemaError(CompileError):
    """Type errors and unresolved names."""
