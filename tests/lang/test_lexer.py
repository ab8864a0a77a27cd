"""Tests for the C-subset lexer."""

import pickle

import pytest

from repro.lang.errors import LexError, SourceLocation
from repro.lang.lexer import Token, TokenKind, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasics:
    def test_empty_input_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == TokenKind.EOF

    def test_identifiers_and_keywords(self):
        tokens = tokenize("int foo _bar baz42")
        assert tokens[0].kind == TokenKind.KEYWORD
        assert [t.kind for t in tokens[1:4]] == [TokenKind.IDENT] * 3
        assert values("int foo _bar baz42") == ["int", "foo", "_bar", "baz42"]

    def test_all_keywords_recognized(self):
        for keyword in ("struct", "typedef", "while", "sizeof", "return"):
            assert tokenize(keyword)[0].kind == TokenKind.KEYWORD

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].loc.line, tokens[0].loc.column) == (1, 1)
        assert (tokens[1].loc.line, tokens[1].loc.column) == (2, 3)

    def test_filename_in_location(self):
        token = tokenize("x", filename="pool.c")[0]
        assert token.loc.filename == "pool.c"
        assert str(token.loc) == "pool.c:1:1"


class TestNumbers:
    def test_decimal(self):
        assert values("42 0") == ["42", "0"]

    def test_hex(self):
        assert values("0x10 0xff") == ["16", "255"]

    def test_octal(self):
        assert values("010") == ["8"]

    def test_suffixes_swallowed(self):
        assert values("42u 42UL 7L") == ["42", "42", "7"]

    def test_char_literal_becomes_int(self):
        tokens = tokenize("'a' '\\n' '\\0'")
        assert [t.value for t in tokens[:-1]] == ["97", "10", "0"]
        assert all(t.kind == TokenKind.INT for t in tokens[:-1])

    def test_malformed_hex(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'ab'")


class TestStrings:
    def test_simple_string(self):
        token = tokenize('"hello"')[0]
        assert token.kind == TokenKind.STRING
        assert token.value == "hello"

    def test_escapes(self):
        assert tokenize(r'"a\nb\tc\"d"')[0].value == 'a\nb\tc"d'

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unknown_escape(self):
        with pytest.raises(LexError):
            tokenize(r'"\q"')


class TestCommentsAndDirectives:
    def test_line_comment(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* oops")

    def test_preprocessor_lines_skipped(self):
        text = '#include "apr_pools.h"\n#define X 1\nint x;'
        assert values(text) == ["int", "x", ";"]

    def test_continued_directive(self):
        assert values("#define M \\\n  body\nint x;") == ["int", "x", ";"]


class TestPunctuation:
    def test_multichar_operators(self):
        assert values("-> ++ -- << >> <= >= == != && || ...") == [
            "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "...",
        ]

    def test_compound_assignment(self):
        assert values("+= -= *= /= <<=") == ["+=", "-=", "*=", "/=", "<<="]

    def test_longest_match(self):
        # '->' must not lex as '-' '>'.
        assert values("a->b") == ["a", "->", "b"]
        assert values("a- >b") == ["a", "-", ">", "b"]

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_apr_prototype_round_trip(self):
        text = "apr_status_t apr_pool_create(apr_pool_t **newp, apr_pool_t *parent);"
        assert values(text) == [
            "apr_status_t", "apr_pool_create", "(", "apr_pool_t", "*", "*",
            "newp", ",", "apr_pool_t", "*", "parent", ")", ";",
        ]


class TestLineMarkers:
    def test_line_marker_resets_line_and_file(self):
        text = '#line 1 "second.c"\nint x;\n'
        tokens = tokenize(text, filename="first.c")
        assert tokens[0].loc.filename == "second.c"
        assert tokens[0].loc.line == 1

    def test_gnu_style_marker_without_line_keyword(self):
        tokens = tokenize('# 42 "gen.c"\ny\n', filename="orig.c")
        assert tokens[0].loc.filename == "gen.c"
        assert tokens[0].loc.line == 42

    def test_marker_without_filename_keeps_current_file(self):
        tokens = tokenize("#line 10\nz\n", filename="keep.c")
        assert tokens[0].loc.filename == "keep.c"
        assert tokens[0].loc.line == 10

    def test_concatenated_units_report_original_files(self):
        first = '#line 1 "a.c"\nint a;\n'
        second = '#line 1 "b.c"\nint b;\n'
        tokens = tokenize(first + second)
        by_value = {t.value: t.loc for t in tokens if t.value in ("a", "b")}
        assert by_value["a"].filename == "a.c"
        assert by_value["a"].line == 1  # the line after the marker is line 1
        assert by_value["b"].filename == "b.c"
        assert by_value["b"].line == 1

    def test_non_marker_directives_still_skipped(self):
        assert kinds("#include <apr.h>\nx") == [TokenKind.IDENT]


class TestLocationsAndEdges:
    """Spots where a lexer tracking columns by offset could drift."""

    def test_token_after_multiline_block_comment(self):
        tokens = tokenize("a /* one\n  two\n three */  b")
        assert values("a /* one\n  two\n three */  b") == ["a", "b"]
        assert (tokens[1].loc.line, tokens[1].loc.column) == (3, 12)

    def test_crlf_line_endings(self):
        tokens = tokenize("int x;\r\n  y\r\n")
        assert [t.value for t in tokens[:-1]] == ["int", "x", ";", "y"]
        assert (tokens[3].loc.line, tokens[3].loc.column) == (2, 3)
        assert (tokens[-1].loc.line, tokens[-1].loc.column) == (3, 1)

    def test_tab_counts_one_column(self):
        tokens = tokenize("\tx\t\ty")
        assert [(t.loc.line, t.loc.column) for t in tokens[:-1]] == [
            (1, 2), (1, 5),
        ]

    def test_literals_directly_followed_by_punctuation(self):
        tokens = tokenize("f(\"s\",'c');")
        assert [(t.kind, t.value) for t in tokens[:-1]] == [
            (TokenKind.IDENT, "f"),
            (TokenKind.PUNCT, "("),
            (TokenKind.STRING, "s"),
            (TokenKind.PUNCT, ","),
            (TokenKind.INT, "99"),
            (TokenKind.PUNCT, ")"),
            (TokenKind.PUNCT, ";"),
        ]
        assert [t.loc.column for t in tokens[:-1]] == [1, 2, 3, 6, 7, 10, 11]

    def test_number_suffixes_next_to_identifiers(self):
        assert values("x=0x1Fu+y;z=017L") == [
            "x", "=", "31", "+", "y", ";", "z", "=", "15",
        ]
        tokens = tokenize("0x1FuL y")
        assert [t.kind for t in tokens[:-1]] == [TokenKind.INT, TokenKind.IDENT]
        assert tokens[1].loc.column == 8

    def test_hash_outside_column_one_is_an_error(self):
        with pytest.raises(LexError, match="unexpected character '#'") as err:
            tokenize("int x;\n  #define Y 1\n")
        assert ":2:3:" in str(err.value)
        with pytest.raises(LexError, match="unexpected character '#'"):
            tokenize("x # y")


class TestInvalidOctal:
    @pytest.mark.parametrize("literal", ["08", "09", "078"])
    def test_digit_outside_octal_is_a_lex_error(self, literal):
        with pytest.raises(LexError, match="invalid octal literal") as err:
            tokenize(f"int x = {literal};", filename="bad.c")
        assert err.value.loc == SourceLocation("bad.c", 1, 9)

    def test_octal_digits_still_lex(self):
        assert values("07 00 0 0u") == ["7", "0", "0", "0"]


class TestTokenStream:
    def test_iteration_stops_at_the_first_eof(self):
        tokens = tokenize("a;")
        assert [t.kind for t in tokens] == [
            TokenKind.IDENT, TokenKind.PUNCT, TokenKind.EOF,
        ]
        assert len(tokens) == 3
        with pytest.raises(IndexError):
            tokens[3]

    def test_flat_lists_end_in_eof_sentinels(self):
        tokens = tokenize("a;")
        assert len(tokens.kinds) > len(tokens)
        assert set(tokens.kinds[len(tokens) - 1:]) == {TokenKind.EOF}
        assert tokens.loc(len(tokens.kinds) - 1) == tokens[-1].loc


class TestValueObjects:
    """Token and SourceLocation are slotted classes now; they keep the
    equality, hashing, repr and pickling of the frozen dataclasses they
    replaced."""

    def test_source_location(self):
        loc = SourceLocation("a.c", 3, 7)
        same = SourceLocation("a.c", 3, 7)
        assert loc == same and loc is not same
        assert loc != SourceLocation("a.c", 3, 8)
        assert loc != ("a.c", 3, 7)
        assert hash(loc) == hash(same) == hash(("a.c", 3, 7, None))
        assert repr(loc) == (
            "SourceLocation(filename='a.c', line=3, column=7, UNKNOWN=None)"
        )
        assert str(loc) == "a.c:3:7"
        assert pickle.loads(pickle.dumps(loc)) == loc
        assert SourceLocation.UNKNOWN == SourceLocation("<unknown>", 0, 0)

    def test_token(self):
        token = tokenize("\n  foo", filename="t.c")[0]
        assert token == Token(TokenKind.IDENT, "foo", SourceLocation("t.c", 2, 3))
        assert token != Token(TokenKind.IDENT, "foo", SourceLocation("t.c", 2, 4))
        assert hash(token) == hash(
            (TokenKind.IDENT, "foo", SourceLocation("t.c", 2, 3))
        )
        assert repr(token) == (
            "Token(kind='ident', value='foo', loc=SourceLocation("
            "filename='t.c', line=2, column=3, UNKNOWN=None))"
        )
        assert str(token) == "ident('foo')"
        assert pickle.loads(pickle.dumps(token)) == token

def _golden_corpus():
    """The 13 figure programs, the example .rc files, and the paper-scale
    corpus: every source the tool ships with."""
    from pathlib import Path

    from repro.workloads import FIGURES, paper_scale_units

    for program in FIGURES:
        yield program.name, program.full_source
    examples = Path(__file__).resolve().parents[2] / "examples"
    for path in sorted(examples.glob("*.rc")):
        yield path.name, path.read_text()
    for unit in paper_scale_units():
        yield unit.name, unit.source


def test_golden_token_stream_digest():
    # Recorded with the character-at-a-time lexer this one replaced: any
    # change to a kind, value, file, line or column changes the digest.
    import hashlib

    digest = hashlib.sha256()
    sources = 0
    for name, source in _golden_corpus():
        sources += 1
        for token in tokenize(source, name):
            digest.update(f"{token.kind} {token.value!r} {token.loc}\n".encode())
    assert sources == 38
    assert digest.hexdigest() == (
        "8ad2aea6fb2f1caeb4d75fa17b0ade67f24695335ec35ea4c173bad8a271bd9b"
    )
