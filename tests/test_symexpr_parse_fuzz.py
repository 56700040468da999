"""Fuzz test of `parse` over short strings from the grammar's alphabet."""

import pytest

from hamsym import symexpr
from hamsym.symexpr import ParseError, parse

from genutil import small_space

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Names, functions, operators, digits, the literal's point and exponent,
# whitespace, and characters no token starts with
_PIECES = ("q1", "p1", "k", "x", "sin", "sqrt", "ln", "(", ")", "+", "-", "*", "/", "^",
           ",", "0", "1", "2", ".", "e", " ", "\t", "@", "#")
_TEXTS = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=10).map("".join),
    st.text(alphabet="q1pk2+-*/^(),. e\t@", max_size=12),
)
_SPACE = small_space()


def _outcome(text):
    """The Expr text parses to, or the error's class and message, checking
    that the error's position lies within the text."""
    try:
        return parse(text, _SPACE)
    except ParseError as exc:  # UnknownIdentifierError among them
        assert 0 <= exc.position <= len(text)
        return type(exc), str(exc)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=400)
@hypothesis.given(_TEXTS)
def test_parse_gives_an_expr_or_a_positioned_parse_error(text):
    first = _outcome(text)
    second = _outcome(text)
    if not isinstance(first, symexpr.Expr):
        assert second == first
        return
    try:
        printed = str(first)
    except symexpr.ExprError:  # a constant beyond the digit limit: 2^2^2^2^2
        return
    assert isinstance(second, symexpr.Expr) and str(second) == printed
    again = parse(printed, _SPACE)
    assert again == first and str(again) == printed
