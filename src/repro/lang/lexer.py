"""Tokenizer for the C subset.

Handles the full token set the parser needs: identifiers/keywords, integer
literals (decimal/hex/octal/char), string literals with escapes, both
comment styles, and all multi-character operators.

One compiled master regex (:data:`_MASTER`) lexes the common tokens in a
single match each: whitespace and newlines, ``//`` comments, ASCII words,
punctuation (longest match first), decimal/hex/octal numbers, and string
and character literals without escapes.  Everything else -- block
comments, ``#`` directives, literals with escapes, non-ASCII identifiers
and digits, and every error -- falls through to the slow paths.

:func:`tokenize` returns a :class:`TokenStream`: kinds, values and start
offsets in flat parallel lists.  Lines and columns are not tracked while
lexing; :meth:`TokenStream.loc` derives one from a token's offset and the
source's line-start table when a caller asks, so a token the parser only
matches on (most punctuation) never gets a :class:`SourceLocation`, and
indexing the stream builds a :class:`Token` only for the caller that
wants one.

Preprocessor lines are skipped (the analysis corpora are written
pre-expanded; the paper's tool likewise consumed post-preprocessor IR
from Phoenix) -- with one exception: ``#line N "file"`` / ``# N "file"``
markers update the location tracking, so drivers that concatenate
several source files (the CLI's multi-file mode) get diagnostics
pointing at the original file and line instead of offsets into the
concatenation.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate
from typing import List, Optional, Tuple

from repro.lang.errors import LexError, SourceLocation

__all__ = ["Token", "TokenKind", "TokenStream", "tokenize", "KEYWORDS"]


class TokenKind:
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    """
    void char short int long unsigned signed float double
    struct union enum typedef
    if else while do for return break continue
    sizeof static extern const volatile inline goto switch case default
    """.split()
)

# Longest-match-first punctuation table.
_PUNCTS = [
    "...", "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ",", ";", ".", "?", ":",
]

# The fast path, one alternative per group:
#   1 a whitespace run (may span lines)   2 an ASCII word
#   3 a ``//`` comment                    4 punctuation, in _PUNCTS order
#   5 a decimal number's digits           6 a hex number's digits
#   7 an octal number (or a lone 0)       8 a string literal's text
#   9 a character literal's character
# A lone "/" must not start a block comment.  A number directly followed
# by a digit it cannot hold (``09``, ``0x``, a non-ASCII digit) does not
# match, so the slow path reports it.  Integer suffixes are swallowed.
_MASTER = re.compile(
    r"([ \t\r\n]+)|([A-Za-z_]\w*)|(//[^\n]*)|("
    + "|".join(re.escape(p) if p != "/" else r"/(?!\*)" for p in _PUNCTS)
    + r")"
    r"|([1-9][0-9]*)(?!\d)[uUlL]*"
    r"|0[xX]([0-9a-fA-F]+)[uUlL]*"
    r"|(0[0-7]*)(?![\dxX])[uUlL]*"
    r'|"([^"\\\n]*)"'
    r"|'([^'\\\n])'"
)

# GNU cpp-style line markers: `#line 5 "f.c"`, `# 5 "f.c" 1`, `#line 5`.
_LINE_MARKER = re.compile(r'#\s*(?:line\s+)?(\d+)(?:\s+"([^"]*)")?')

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


class Token:
    """One token with its location.

    A value object, built on demand by :class:`TokenStream` indexing.
    ``==``, ``hash``, ``repr`` and pickling match the frozen dataclass
    this replaced.
    """

    __slots__ = ("kind", "value", "loc")

    def __init__(self, kind: str, value: str, loc: SourceLocation) -> None:
        self.kind = kind
        self.value = value
        self.loc = loc

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.kind == other.kind  # type: ignore[attr-defined]
                and self.value == other.value  # type: ignore[attr-defined]
                and self.loc == other.loc  # type: ignore[attr-defined]
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.value, self.loc))

    def __repr__(self) -> str:
        return f"Token(kind={self.kind!r}, value={self.value!r}, loc={self.loc!r})"

    def __str__(self) -> str:
        return f"{self.kind}({self.value!r})"

    def __reduce__(self):
        return (Token, (self.kind, self.value, self.loc))


#: EOF sentinels appended past the real EOF token, so a reader of the
#: flat lists can look one token ahead of any position up to EOF without
#: a bounds check.
PADDING = 1


class TokenStream(Sequence):
    """The tokens of one source text, in flat parallel lists.

    ``kinds[i]``, ``values[i]`` and ``offsets[i]`` describe token ``i``;
    the lists end with the EOF token and then :data:`PADDING` more EOF
    sentinels.  ``len()``, indexing, slicing and iteration cover the
    tokens up to and including the first EOF, and yield :class:`Token`
    objects built on each access.
    """

    __slots__ = ("kinds", "values", "offsets", "_text", "_filename",
                 "_markers", "_marker_offsets", "_line_starts", "_count")

    def __init__(self, text: str, filename: str) -> None:
        self.kinds: List[str] = []
        self.values: List[str] = []
        self.offsets: List[int] = []
        self._text = text
        self._filename = filename
        # Line markers: (offset, line delta, filename), in offset order;
        # a marker applies to every offset from its own on.
        self._markers: List[Tuple[int, int, str]] = []
        self._marker_offsets: List[int] = []
        self._line_starts: List[int] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._count))]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("token index out of range")
        return Token(self.kinds[index], self.values[index], self.loc(index))

    def loc(self, index: int) -> SourceLocation:
        """The location of token ``index`` (padding included)."""
        return self.loc_at(self.offsets[index])

    def loc_at(self, offset: int) -> SourceLocation:
        """The location of source offset ``offset``."""
        line = self._physical_line(offset)
        column = offset - self._line_starts[line - 1] + 1
        if self._markers:
            index = bisect_right(self._marker_offsets, offset)
            if index:
                _, delta, filename = self._markers[index - 1]
                return SourceLocation(filename, line + delta, column)
        return SourceLocation(self._filename, line, column)

    def _physical_line(self, offset: int) -> int:
        starts = self._line_starts
        if not starts:
            starts = self._line_starts = _line_starts(self._text)
        return bisect_right(starts, offset)

    def _add_marker(self, offset: int, line: int, filename: Optional[str]) -> None:
        """From ``offset`` on, the next line is ``line`` (of ``filename``,
        if given)."""
        if filename is None:
            filename = self._markers[-1][2] if self._markers else self._filename
        delta = line - 1 - self._physical_line(offset)
        self._markers.append((offset, delta, filename))
        self._marker_offsets.append(offset)


def _line_starts(text: str) -> List[int]:
    """Offsets at which each line of ``text`` starts."""
    lengths = map(len, text.split("\n")[:-1])
    return list(accumulate((n + 1 for n in lengths), initial=0))


def tokenize(text: str, filename: str = "<input>") -> TokenStream:
    """Tokenize ``text``; the result always ends with an EOF token."""
    stream = TokenStream(text, filename)
    kinds, values, offsets = stream.kinds, stream.values, stream.offsets
    add_kind, add_value, add_offset = kinds.append, values.append, offsets.append
    match = _MASTER.match
    keywords = KEYWORDS
    ident, keyword, punct, number, string = (
        TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT, TokenKind.INT,
        TokenKind.STRING,
    )
    pos, end = 0, len(text)
    while pos < end:
        m = match(text, pos)
        if m is None:
            pos = _lex_slow(stream, pos)
            continue
        group = m.lastindex
        start, pos = pos, m.end()
        if group == 2:
            word = m[2]
            add_kind(keyword if word in keywords else ident)
            add_value(word)
        elif group == 4:
            add_kind(punct)
            add_value(m[4])
        elif group == 1 or group == 3:
            continue
        elif group == 5:
            add_kind(number)
            add_value(m[5])
        elif group == 8:
            add_kind(string)
            add_value(m[8])
        else:
            add_kind(number)
            if group == 6:
                add_value(str(int(m[6], 16)))
            elif group == 7:
                add_value(str(int(m[7], 8)))
            else:
                add_value(str(ord(m[9])))
        add_offset(start)
    stream._count = len(kinds) + 1
    for _ in range(1 + PADDING):
        add_kind(TokenKind.EOF)
        add_value("")
        add_offset(end)
    return stream


class _Cursor:
    """A slow path's position in the text."""

    def __init__(self, stream: TokenStream, pos: int) -> None:
        self.stream = stream
        self.text = stream._text
        self.pos = pos

    def loc(self) -> SourceLocation:
        return self.stream.loc_at(self.pos)

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def advance(self, count: int = 1) -> None:
        self.pos = min(self.pos + count, len(self.text))

    def at_end(self) -> bool:
        return self.pos >= len(self.text)


def _lex_slow(stream: TokenStream, pos: int) -> int:
    """Lex one item the master regex does not match, starting at ``pos``;
    returns the offset after it."""
    cursor = _Cursor(stream, pos)
    text = stream._text
    ch = cursor.peek()
    if text.startswith("/*", pos):
        close = text.find("*/", pos + 2)
        if close < 0:
            raise LexError("unterminated block comment", cursor.loc())
        return close + 2
    if ch == "#" and (pos == 0 or text[pos - 1] == "\n"):
        # Preprocessor directive: skip the (possibly continued) line,
        # but honor line markers so concatenated inputs keep their
        # original locations.
        directive: List[str] = []
        while not cursor.at_end():
            if cursor.peek() == "\\" and cursor.peek(1) == "\n":
                cursor.advance(2)
                continue
            if cursor.peek() == "\n":
                break
            directive.append(cursor.peek())
            cursor.advance()
        marker = _LINE_MARKER.match("".join(directive))
        if marker is not None:
            stream._add_marker(cursor.pos, int(marker.group(1)), marker.group(2))
        return cursor.pos
    if ch.isalpha() or ch == "_":
        kind, value = _lex_word(cursor)  # a non-ASCII identifier
    elif ch.isdigit():
        kind, value = _lex_number(cursor)
    elif ch == '"':
        kind, value = _lex_string(cursor)
    elif ch == "'":
        kind, value = _lex_char(cursor)
    else:
        raise LexError(f"unexpected character {ch!r}", cursor.loc())
    stream.kinds.append(kind)
    stream.values.append(value)
    stream.offsets.append(pos)
    return cursor.pos


def _lex_word(cursor: _Cursor) -> Tuple[str, str]:
    start = cursor.pos
    while not cursor.at_end() and (cursor.peek().isalnum() or cursor.peek() == "_"):
        cursor.advance()
    word = cursor.text[start : cursor.pos]
    return (TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT), word


def _lex_number(cursor: _Cursor) -> Tuple[str, str]:
    loc = cursor.loc()
    start = cursor.pos
    if cursor.peek() == "0" and cursor.peek(1) in ("x", "X"):
        cursor.advance(2)
        while not cursor.at_end() and cursor.peek() in "0123456789abcdefABCDEF":
            cursor.advance()
        text = cursor.text[start : cursor.pos]
        if len(text) == 2:
            raise LexError("malformed hex literal", loc)
        base = 16
    else:
        while not cursor.at_end() and cursor.peek().isdigit():
            cursor.advance()
        text = cursor.text[start : cursor.pos]
        base = 8 if text.startswith("0") and len(text) > 1 else 10
    try:
        value = int(text, base)
    except ValueError:
        kind = "octal" if base == 8 else "integer"
        raise LexError(f"invalid {kind} literal {text!r}", loc) from None
    # Swallow integer suffixes (uUlL).
    while not cursor.at_end() and cursor.peek() in "uUlL":
        cursor.advance()
    return TokenKind.INT, str(value)


def _lex_string(cursor: _Cursor) -> Tuple[str, str]:
    loc = cursor.loc()
    cursor.advance()  # opening quote
    chars: List[str] = []
    while True:
        if cursor.at_end():
            raise LexError("unterminated string literal", loc)
        ch = cursor.peek()
        if ch == '"':
            cursor.advance()
            break
        if ch == "\\":
            cursor.advance()
            escape = cursor.peek()
            if escape not in _ESCAPES:
                raise LexError(f"unknown escape \\{escape}", cursor.loc())
            chars.append(_ESCAPES[escape])
            cursor.advance()
            continue
        if ch == "\n":
            raise LexError("newline in string literal", loc)
        chars.append(ch)
        cursor.advance()
    return TokenKind.STRING, "".join(chars)


def _lex_char(cursor: _Cursor) -> Tuple[str, str]:
    loc = cursor.loc()
    cursor.advance()  # opening quote
    ch = cursor.peek()
    if ch == "\\":
        cursor.advance()
        escape = cursor.peek()
        if escape not in _ESCAPES:
            raise LexError(f"unknown escape \\{escape}", cursor.loc())
        value = ord(_ESCAPES[escape])
        cursor.advance()
    elif ch == "'" or ch == "":
        raise LexError("empty character literal", loc)
    else:
        value = ord(ch)
        cursor.advance()
    if cursor.peek() != "'":
        raise LexError("unterminated character literal", loc)
    cursor.advance()
    return TokenKind.INT, str(value)
