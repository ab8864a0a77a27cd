"""Tokenizer for the C subset.

Handles the full token set the parser needs: identifiers/keywords, integer
literals (decimal/hex/octal/char), string literals with escapes, both
comment styles, and all multi-character operators.

One compiled master regex (:data:`_MASTER`) lexes the common tokens in a
single match each: whitespace and newlines, ``//`` comments, ASCII words,
and punctuation (longest match first).  Everything else -- block
comments, ``#`` directives, numbers, string and character literals,
non-ASCII identifiers, and errors -- falls through to per-character slow
paths on a :class:`_Cursor`.  Both paths locate tokens the same way: the
current line number plus the offset where that line starts, so a column
is one subtraction instead of a per-character counter.

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
from dataclasses import dataclass
from typing import Iterator, List

from repro.lang.errors import LexError, SourceLocation

__all__ = ["Token", "TokenKind", "tokenize", "KEYWORDS"]


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

# The fast path.  Group 1: a whitespace run (may span lines); 2: an ASCII
# word; 3: a ``//`` comment; 4: punctuation, tried in _PUNCTS order.  A
# lone "/" must not start a block comment, which is a slow path.
_MASTER = re.compile(
    r"([ \t\r\n]+)|([A-Za-z_]\w*)|(//[^\n]*)|("
    + "|".join(re.escape(p) if p != "/" else r"/(?!\*)" for p in _PUNCTS)
    + ")"
)

# GNU cpp-style line markers: `#line 5 "f.c"`, `# 5 "f.c" 1`, `#line 5`.
_LINE_MARKER = re.compile(r'#\s*(?:line\s+)?(\d+)(?:\s+"([^"]*)")?')

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    loc: SourceLocation

    def __str__(self) -> str:
        return f"{self.kind}({self.value!r})"


class _Cursor:
    """Position for the slow paths: offset, line, and line-start offset."""

    def __init__(self, text: str, filename: str) -> None:
        self.text = text
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.line_start = 0

    @property
    def column(self) -> int:
        return self.pos - self.line_start + 1

    def loc(self) -> SourceLocation:
        return SourceLocation(self.filename, self.line, self.column)

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.text):
                return
            if self.text[self.pos] == "\n":
                self.line += 1
                self.line_start = self.pos + 1
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def starts_with(self, prefix: str) -> bool:
        return self.text.startswith(prefix, self.pos)


def tokenize(text: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``text``; the result always ends with an EOF token."""
    cursor = _Cursor(text, filename)
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER.match
    end = len(text)
    # The fast path keeps the position in locals and hands it to the
    # cursor only around a slow path.
    pos, line, line_start = 0, 1, 0
    while pos < end:
        m = match(text, pos)
        if m is None:
            cursor.pos, cursor.line, cursor.line_start = pos, line, line_start
            _lex_slow(cursor, tokens)
            pos, line, line_start = cursor.pos, cursor.line, cursor.line_start
            filename = cursor.filename
            continue
        group = m.lastindex
        start, pos = pos, m.end()
        if group == 1:
            newlines = text.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, pos) + 1
        elif group == 2:
            word = m.group()
            append(Token(
                TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT,
                word,
                SourceLocation(filename, line, start - line_start + 1),
            ))
        elif group == 4:
            append(Token(
                TokenKind.PUNCT,
                m.group(),
                SourceLocation(filename, line, start - line_start + 1),
            ))
    append(Token(
        TokenKind.EOF, "", SourceLocation(filename, line, pos - line_start + 1)
    ))
    return tokens


def _lex_slow(cursor: _Cursor, tokens: List[Token]) -> None:
    """Lex one item the master regex does not match, at ``cursor``."""
    ch = cursor.peek()
    if cursor.starts_with("/*"):
        loc = cursor.loc()
        cursor.advance(2)
        while not cursor.starts_with("*/"):
            if cursor.at_end():
                raise LexError("unterminated block comment", loc)
            cursor.advance()
        cursor.advance(2)
    elif ch == "#" and cursor.column == 1:
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
            # The *next* line is numbered N; the upcoming newline
            # advances the counter by one.
            cursor.line = int(marker.group(1)) - 1
            if marker.group(2) is not None:
                cursor.filename = marker.group(2)
    elif ch.isalpha() or ch == "_":
        tokens.append(_lex_word(cursor))  # a non-ASCII identifier
    elif ch.isdigit():
        tokens.append(_lex_number(cursor))
    elif ch == '"':
        tokens.append(_lex_string(cursor))
    elif ch == "'":
        tokens.append(_lex_char(cursor))
    else:
        raise LexError(f"unexpected character {ch!r}", cursor.loc())


def _lex_word(cursor: _Cursor) -> Token:
    loc = cursor.loc()
    start = cursor.pos
    while not cursor.at_end() and (cursor.peek().isalnum() or cursor.peek() == "_"):
        cursor.advance()
    word = cursor.text[start : cursor.pos]
    kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
    return Token(kind, word, loc)


def _lex_number(cursor: _Cursor) -> Token:
    loc = cursor.loc()
    start = cursor.pos
    if cursor.peek() == "0" and cursor.peek(1) in "xX":
        cursor.advance(2)
        while not cursor.at_end() and cursor.peek() in "0123456789abcdefABCDEF":
            cursor.advance()
        text = cursor.text[start : cursor.pos]
        if len(text) == 2:
            raise LexError("malformed hex literal", loc)
        value = int(text, 16)
    else:
        while not cursor.at_end() and cursor.peek().isdigit():
            cursor.advance()
        text = cursor.text[start : cursor.pos]
        value = int(text, 8) if text.startswith("0") and len(text) > 1 else int(text)
    # Swallow integer suffixes (uUlL).
    while not cursor.at_end() and cursor.peek() in "uUlL":
        cursor.advance()
    return Token(TokenKind.INT, str(value), loc)


def _lex_string(cursor: _Cursor) -> Token:
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
    return Token(TokenKind.STRING, "".join(chars), loc)


def _lex_char(cursor: _Cursor) -> Token:
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
    return Token(TokenKind.INT, str(value), loc)
