"""MiniC lexer.

A one-pass scanner producing a flat token list. One master regular
expression, with a named group per token class, is matched back to
back over the source; it supports ``//`` and ``/* */`` comments,
decimal integer literals, identifiers, keywords, and the C
operator/punctuation subset MiniC uses. Lines and columns come from
counting the newlines in skipped whitespace and comments.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List, NoReturn

from repro.minic.errors import LexError


class TokenKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = {
    "int", "void", "struct", "if", "else", "while", "for", "return",
    "break", "continue", "null", "thread_t", "mutex_t", "sizeof",
    "cond_t", "barrier_t",
}

# Longest-first so that multi-character operators win over prefixes.
PUNCTUATORS = [
    "->", "&&", "||", "==", "!=", "<=", ">=",
    "+=", "-=", "*=", "/=", "++", "--",
    "{", "}", "(", ")", "[", "]", ";", ",", ".",
    "=", "<", ">", "+", "-", "*", "/", "%", "&", "!", "|", "^",
]


@dataclass
class Token:
    __slots__ = ("kind", "text", "line", "col")

    kind: TokenKind
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"{self.kind.value}:{self.text!r}@{self.line}:{self.col}"


# Alternatives are tried in order. ``\w`` is exactly ``str.isalnum()``
# or ``_`` and ``\d`` exactly ``str.isdecimal()``, so an identifier
# continues over any Unicode letter or digit and a number is a run of
# decimal digits that ``int()`` accepts. A number directly followed by
# a letter or by a non-decimal digit is left to ``other``, as is
# anything else no token starts with: identifiers that begin with a
# non-ASCII character and every lexical error take that slow path.
_TOKEN_RE = re.compile("|".join([
    r"(?P<skip>[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)",
    r"(?P<ident>[A-Za-z_]\w*)",
    r"(?P<unterminated>/\*)",
    r"(?P<punct>" + "|".join(map(re.escape, PUNCTUATORS)) + ")",
    r"(?P<number>\d+(?![^\W_]))",
    r"(?P<other>[^\W\d]\w*|[\s\S])",
]))

_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_PUNCT = TokenKind.PUNCT
_NUMBER = TokenKind.NUMBER


def tokenize(source: str) -> List[Token]:
    """Scan *source* into its full token stream, ending with one EOF
    token. Raises :class:`LexError` at the first malformed token."""
    tokens: List[Token] = []
    append = tokens.append
    keywords = KEYWORDS
    line = 1
    line_start = 0  # index of the first character of the current line
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind == "skip":
            text = match.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rindex("\n") + 1
        elif kind == "ident":
            text = match.group()
            append(Token(_KEYWORD if text in keywords else _IDENT, text,
                         line, match.start() - line_start + 1))
        elif kind == "punct":
            append(Token(_PUNCT, match.group(), line,
                         match.start() - line_start + 1))
        elif kind == "number":
            append(Token(_NUMBER, match.group(), line,
                         match.start() - line_start + 1))
        elif kind == "unterminated":
            raise LexError("unterminated block comment", line)
        else:
            text = match.group()
            col = match.start() - line_start + 1
            if not text[0].isalpha():
                _lex_error(source, match.start(), line, col)
            append(Token(_IDENT, text, line, col))
    append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens


def _lex_error(source: str, pos: int, line: int, col: int) -> NoReturn:
    """Raise the diagnostic for the malformed token at *pos*."""
    ch = source[pos]
    if ch.isdigit():
        end = pos
        while end < len(source) and source[end].isdigit():
            end += 1
        digits = source[pos:end]
        if not digits.isdecimal():
            raise LexError(f"non-decimal digit in number {digits!r}", line, col)
        if end < len(source) and source[end].isalpha():
            raise LexError(f"malformed number near {source[pos:end + 1]!r}", line, col)
        # A well-formed number: what follows it starts no token.
        col, ch = col + end - pos, source[end]
    raise LexError(f"unexpected character {ch!r}", line, col)
