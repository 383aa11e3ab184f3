"""Reference MiniC scanner and expression parser for differential tests.

This is the original character-at-a-time scanner (one ``_peek`` /
``_advance`` call per source character) and the original
level-recursive binary-expression parser (one recursion per
precedence level for every operand). The production frontend in
:mod:`repro.minic` replaced both with a master-regex scanner and
precedence climbing; the tests in ``test_differential.py`` check that
the two produce identical tokens, ASTs and diagnostics.

One documented difference: a number made of non-decimal Unicode
digits (``²``, ``③``) was a NUMBER token here and then crashed the
parser's ``int()`` with a bare ``ValueError``; the production scanner
reports it as a located ``LexError``.
"""

from __future__ import annotations

from typing import List

from repro.minic import ast
from repro.minic.errors import LexError
from repro.minic.lexer import KEYWORDS, PUNCTUATORS, Token, TokenKind
from repro.minic.parser import Parser


class OracleLexer:
    """Scans MiniC source text into tokens, one character at a time."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line = self.line
                self._advance(2)
                while self.pos < len(self.source) and not (self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                if self.pos >= len(self.source):
                    raise LexError("unterminated block comment", start_line)
                self._advance(2)
            else:
                return

    def next_token(self) -> Token:
        """Scan and return the next token (EOF at end of input)."""
        self._skip_trivia()
        line, col = self.line, self.col
        ch = self._peek()
        if not ch:
            return Token(TokenKind.EOF, "", line, col)
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self._peek().isalnum() or self._peek() == "_":
                self._advance()
            text = self.source[start:self.pos]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            return Token(kind, text, line, col)
        if ch.isdigit():
            start = self.pos
            while self._peek().isdigit():
                self._advance()
            if self._peek().isalpha():
                raise LexError(f"malformed number near {self.source[start:self.pos+1]!r}", line, col)
            return Token(TokenKind.NUMBER, self.source[start:self.pos], line, col)
        for punct in PUNCTUATORS:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(TokenKind.PUNCT, punct, line, col)
        raise LexError(f"unexpected character {ch!r}", line, col)

    def tokens(self) -> List[Token]:
        """The full token stream, ending with one EOF token."""
        result: List[Token] = []
        while True:
            tok = self.next_token()
            result.append(tok)
            if tok.kind is TokenKind.EOF:
                return result


def oracle_tokenize(source: str) -> List[Token]:
    return OracleLexer(source).tokens()


class OracleParser(Parser):
    """The production parser with its original token helpers and its
    original one-recursion-per-level binary-expression parser."""

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _check(self, text: str) -> bool:
        tok = self._peek()
        return tok.kind in (TokenKind.PUNCT, TokenKind.KEYWORD) and tok.text == text

    _BINARY_LEVELS = [
        ["||"],
        ["&&"],
        ["==", "!="],
        ["<", ">", "<=", ">="],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    def _parse_expr(self) -> ast.Expr:
        return self._parse_binary(0)

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_unary()
        lhs = self._parse_binary(level + 1)
        while any(self._check(op) for op in self._BINARY_LEVELS[level]):
            op_tok = self._advance()
            rhs = self._parse_binary(level + 1)
            lhs = ast.BinaryExpr(op=op_tok.text, lhs=lhs, rhs=rhs, line=op_tok.line)
        return lhs

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in ("&", "*", "-", "!"):
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryExpr(op=tok.text, operand=operand, line=tok.line)
        return self._parse_postfix()


def oracle_parse(source: str) -> ast.Program:
    return OracleParser(oracle_tokenize(source)).parse_program()
