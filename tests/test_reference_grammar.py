"""Differential tests: the CLI's number reader (one regex tokenizer and one
cursor) against the recursive-descent parser it replaced
(`reference_grammar.py`).  On every draw both give the same value and
context, or the same error class, message and column."""

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_grammar as ref
from gaborbox.cli import parse_number
from gaborbox.errors import GaborBoxError
from gaborbox.exactnum import RATIONAL, pi_context, surd_context

CONTEXTS = [RATIONAL, pi_context(), surd_context(2), surd_context(3)]
# the grammar's tokens, whitespace, and what lies next to them: an
# Arabic-Indic three (a digit to \d and to int), an ideographic space, bad
# characters, and radicands that reduce, are squares or are zero
ALPHABET = ["0", "1", "2", "3", "12", "pi", "sqrt", "(", ")", "+", "-", "*", "/", " ", "\t",
            "٣", "　", ".", "e", "x", "sqrt(8)", "sqrt(9)", "sqrt(0)"]

# one input for each error the reader raises, with its line in the rational
# context: every NumberSyntaxError message, the ContextMismatch of each
# basis, and the radicand bound
ERRORS = [
    ("", "empty number (column 1)"),
    ("13.5", "unexpected character '.' (column 3)"),
    ("9" * 5000, "integer literal is too long (column 1)"),
    ("1+", "unexpected end of input (column 3)"),
    ("3 4", "expected '+' or '-' (column 3)"),
    ("1+*2", "expected a number, 'pi' or 'sqrt(...)' (column 3)"),
    ("sqrt 2", "expected '(' (column 6)"),
    ("sqrt(pi)", "sqrt needs an integer argument (column 6)"),
    ("sqrt(2 3", "expected ')' (column 8)"),
    ("1/pi", "cannot divide by an irrational (column 3)"),
    ("pi*sqrt(2)", "at most one irrational factor per term (column 10)"),
    ("1/sqrt(0)", "division by zero (column 9)"),
    ("pi+sqrt(2)", "at most one irrational basis may appear (column 10)"),
    ("pi/4", "'pi/4' uses pi; pass --context pi (current: rational)"),
    ("sqrt(12)", "'sqrt(12)' uses sqrt(3); pass --context sqrt:3 (current: rational)"),
    ("sqrt(1000000000001)", "sqrt argument must be at most 10**12, got a 40-bit integer"),
]


def _read(parse, text, ctx):
    """(x0, x1, context) of the value, or (class, message, column) of the error."""
    try:
        x = parse(text, ctx)
    except GaborBoxError as e:
        return type(e), str(e), getattr(e, "column", None)
    return x.x0, x.x1, x.ctx


def _assert_same(text):
    for ctx in CONTEXTS:
        assert _read(parse_number, text, ctx) == _read(ref.parse_number, text, ctx), (text, ctx)


@pytest.mark.parametrize("text, message", ERRORS, ids=[repr(text[:20]) for text, _ in ERRORS])
def test_each_error_example_raises_its_line(text, message):
    if text == "9" * 5000 and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("interpreter has no int-string limit")
    for parse in (parse_number, ref.parse_number):
        with pytest.raises(GaborBoxError) as e:
            parse(text, RATIONAL)
        assert str(e.value) == message


def _error_examples(test):
    for text, _ in ERRORS:
        test = example(text=text)(test)
    return test


@_error_examples
@given(text=st.lists(st.sampled_from(ALPHABET), max_size=12).map("".join))
@settings(max_examples=1000, deadline=None)
def test_reader_matches_the_parent(text):
    _assert_same(text)


@pytest.mark.slow
def test_reader_matches_the_parent_on_a_seeded_draw():
    rng = random.Random(20131)
    for _ in range(10**5):
        _assert_same("".join(rng.choices(ALPHABET, k=rng.randint(0, 12))))
