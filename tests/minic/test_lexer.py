"""Lexer tests."""

import pytest

from repro.frontend import compile_source
from repro.minic import parse
from repro.minic.errors import LexError
from repro.minic.lexer import Token, TokenKind, tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src) if t.kind is not TokenKind.EOF]


class TestTokens:
    def test_empty_input(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind is TokenKind.EOF

    def test_identifiers_and_keywords(self):
        assert kinds("int foo") == [(TokenKind.KEYWORD, "int"), (TokenKind.IDENT, "foo")]

    def test_underscore_identifier(self):
        assert kinds("_x y_1")[0] == (TokenKind.IDENT, "_x")

    def test_numbers(self):
        assert kinds("42 0") == [(TokenKind.NUMBER, "42"), (TokenKind.NUMBER, "0")]

    def test_malformed_number(self):
        with pytest.raises(LexError, match="malformed number near '12a'") as info:
            tokenize("\n  12abc")
        assert (info.value.line, info.value.col) == (2, 3)

    def test_two_char_operators_win(self):
        assert kinds("a->b") == [(TokenKind.IDENT, "a"), (TokenKind.PUNCT, "->"),
                                 (TokenKind.IDENT, "b")]
        assert kinds("a<=b")[1] == (TokenKind.PUNCT, "<=")
        assert kinds("a==b")[1] == (TokenKind.PUNCT, "==")
        assert kinds("a&&b")[1] == (TokenKind.PUNCT, "&&")

    def test_minus_and_arrow_disambiguate(self):
        assert kinds("a-b")[1] == (TokenKind.PUNCT, "-")

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_all_keywords_recognised(self):
        for kw in ("int", "void", "struct", "if", "else", "while", "for",
                   "return", "break", "continue", "null", "thread_t", "mutex_t"):
            assert kinds(kw)[0][0] is TokenKind.KEYWORD


class TestTrivia:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [(TokenKind.IDENT, "a"), (TokenKind.IDENT, "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [(TokenKind.IDENT, "a"), (TokenKind.IDENT, "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError) as info:
            tokenize("a\n/* never\n ends")
        assert info.value.line == 2 and info.value.col is None

    def test_line_numbers(self):
        toks = tokenize("a\n  b")
        assert toks[0].line == 1 and toks[0].col == 1
        assert toks[1].line == 2 and toks[1].col == 3

    def test_newlines_in_comment_counted(self):
        toks = tokenize("/* a\nb\nc */ x")
        assert toks[0].line == 3


class TestUnicode:
    def test_unicode_letters_in_identifiers(self):
        assert kinds("int héllo_ñ2;")[1] == (TokenKind.IDENT, "héllo_ñ2")
        assert kinds("é")[0] == (TokenKind.IDENT, "é")

    def test_unicode_decimal_digits_are_numbers(self):
        # int() accepts every Unicode decimal digit.
        assert kinds("x = ١٢;")[2] == (TokenKind.NUMBER, "١٢")
        assert parse("int g = ١٢;").globals[0].init.value == 12

    def test_identifier_continues_over_non_decimal_digits(self):
        assert kinds("a²")[0] == (TokenKind.IDENT, "a²")

    @pytest.mark.parametrize("src, line, col", [
        ("int g = ²;", 1, 9),
        ("int a[³];", 1, 7),
        ("int g;\nint h = 1²;", 2, 9),
        ("int g = ①;", 1, 9),
    ])
    def test_non_decimal_digits_are_located_lex_errors(self, src, line, col):
        with pytest.raises(LexError) as info:
            tokenize(src)
        assert (info.value.line, info.value.col) == (line, col)
        assert "non-decimal digit" in info.value.message

    def test_non_decimal_digits_through_compile_source(self):
        for src in ("int g = ²;", "int a[³];"):
            with pytest.raises(LexError) as info:
                compile_source(src)
            assert info.value.line == 1 and info.value.col is not None

    def test_numeric_non_digit_is_unexpected_character(self):
        with pytest.raises(LexError, match="unexpected character '½'") as info:
            tokenize("x = 1½;")
        assert (info.value.line, info.value.col) == (1, 6)
