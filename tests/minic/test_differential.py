"""Differential tests: the production scanner and parser against the
character-at-a-time oracle in :mod:`tests.minic.oracle`.

Tokens (kind, text, line, col), ASTs, IR and diagnostics (error class,
message, line, col) must be identical. The one documented difference:
a number containing a non-decimal Unicode digit (``²``, ``③``) is a
located ``LexError`` now, where the oracle produced a NUMBER token (or
a "malformed number" error) and its parse crashed in ``int()``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend import lower_program, promote_to_ssa
from repro.ir.printer import print_module
from repro.minic.errors import LexError
from repro.minic.lexer import KEYWORDS, PUNCTUATORS, TokenKind, tokenize
from repro.minic.parser import parse
from repro.workloads import get_workload, workload_names

from tests.minic.oracle import OracleLexer, oracle_parse, oracle_tokenize
from tests.properties.program_gen import (
    multithreaded_programs, sequential_programs,
)

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Fragments that stress the scanner's corner cases: comment openers and
# closers, every punctuator, keywords, Unicode letters of several
# categories, decimal digits of other scripts, non-decimal digits and
# numerics, whitespace it rejects, and characters that start no token.
_PIECES = sorted(KEYWORDS) + PUNCTUATORS + [
    "//", "/*", "*/", "/**/", "/*/", " ", "  ", "\n", "\t", "\r", "\x0b",
    " ", "x", "_y1", "a2", "é", "ñame", "ǅ", "ʰ", "名前", "0", "42",
    "007", "١٢", "\U0001d7d8", "²", "③", "½", "Ⅳ", "@", "#", "$", "'",
    '"', "\\", "`",
]

_text = st.lists(st.one_of(st.sampled_from(_PIECES), st.text(max_size=2)),
                 max_size=40).map("".join)


def _outcome(fn, source):
    """The result of ``fn(source)``, or its error as comparable data."""
    try:
        return "ok", fn(source)
    except Exception as exc:  # noqa: BLE001 - any error is an outcome
        return "error", (type(exc).__name__, getattr(exc, "message", str(exc)),
                         getattr(exc, "line", None), getattr(exc, "col", None))


def _oracle_prefix(source):
    """The oracle's tokens up to its first error, and that error."""
    lexer = OracleLexer(source)
    tokens = []
    try:
        while not tokens or tokens[-1].kind is not TokenKind.EOF:
            tokens.append(lexer.next_token())
    except LexError as exc:
        return tokens, exc
    return tokens, None


def _is_non_decimal_case(new, source):
    """The documented exception: the production scanner rejected a
    number with a non-decimal digit where the oracle scanned (or
    rejected as malformed) a digit run starting at the same place."""
    kind, detail = new
    if kind != "error" or detail[0] != "LexError" \
            or not detail[1].startswith("non-decimal digit in number"):
        return False
    where = (detail[2], detail[3])
    tokens, error = _oracle_prefix(source)
    if any(t.kind is TokenKind.NUMBER and not t.text.isdecimal()
           and (t.line, t.col) == where for t in tokens):
        return True
    return error is not None and error.message.startswith("malformed number near") \
        and (error.line, error.col) == where


def _check_same_tokens(source):
    new = _outcome(tokenize, source)
    old = _outcome(oracle_tokenize, source)
    if new != old:
        assert _is_non_decimal_case(new, source), (source, new, old)
    return new, old


def _check_same_parse(source):
    new_tokens, old_tokens = _check_same_tokens(source)
    new = _outcome(parse, source)
    old = _outcome(oracle_parse, source)
    if new_tokens != old_tokens:
        # The oracle's parse of a non-decimal number fails in int().
        assert new == new_tokens
        return
    if new[0] == "ok" and old[0] == "ok":
        assert repr(new[1]) == repr(old[1])
        assert new[1] == old[1]
    else:
        assert new == old, (source, new, old)


class TestScannerMatchesOracle:
    @SETTINGS
    @given(_text)
    def test_arbitrary_text(self, source):
        _check_same_tokens(source)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(sequential_programs(), multithreaded_programs()))
    def test_generated_programs(self, source):
        (kind, tokens), _ = _check_same_tokens(source)
        assert kind == "ok" and tokens[-1].kind is TokenKind.EOF

    def test_non_decimal_digit_is_the_documented_exception(self):
        new, old = _check_same_tokens("int g = ²;")
        assert new[0] == "error" and old[0] == "ok"


# Expressions over every binary operator plus unary and postfix forms,
# with tokens MiniC has no binary operator for (``|``, ``^``) mixed in.
_atoms = st.sampled_from(["a", "b", "1", "null", "*p", "&g", "-x", "!y",
                          "s.f", "p->f", "v[i]", "f(a, b)"])
_ops = st.sampled_from(["||", "&&", "==", "!=", "<", ">", "<=", ">=",
                        "+", "-", "*", "/", "%", "|", "^"])
_exprs = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.tuples(inner, _ops, inner).map(" ".join),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
        inner.map(lambda e: f"!{e}")),
    max_leaves=12)


class TestParserMatchesOracle:
    @SETTINGS
    @given(_exprs)
    def test_expressions(self, expr):
        _check_same_parse(f"int main() {{ x = {expr}; return {expr}; }}")

    @SETTINGS
    @given(_text)
    def test_arbitrary_text(self, source):
        _check_same_parse(source)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(sequential_programs(), multithreaded_programs()))
    def test_generated_programs(self, source):
        _check_same_parse(source)

    def test_binary_operators_are_left_associative(self):
        program = parse("int main() { x = a - b - c * d / e; }")
        value = program.functions[0].body[0].value
        assert value.op == "-" and value.lhs.op == "-"
        assert value.rhs.op == "/" and value.rhs.lhs.op == "*"


def _ir(program):
    module = lower_program(program, name="m")
    promote_to_ssa(module)
    return print_module(module)


def test_workload_ir_identical_to_oracle_frontend():
    """``print_module`` of all ten workloads at scales 1-3 is the same
    through the production and the oracle scanner and parser."""
    for name in workload_names():
        for scale in (1, 2, 3):
            source = get_workload(name).source(scale)
            program, expected = parse(source), oracle_parse(source)
            assert program == expected, (name, scale)
            assert _ir(program) == _ir(expected), (name, scale)
