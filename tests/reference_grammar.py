"""The number reader that gaborbox.cli replaced, kept as a test oracle for
the CLI's number grammar.

    job             reference                       tests (test_reference_grammar.py)
    number grammar  _Parser and its helpers:        every test: the same value and context,
                    _TOKEN_RE, _tokenize,           or the same error class, message and
                    parse_number, _ctx_name         column

`_tokenize` steps through the text one character at a time, skipping
whitespace and matching `_TOKEN_RE` at each token; `_Parser` reads the
tokens by recursive descent, one method per level of the grammar; and
`parse_number` builds the context-mismatch message in one branch per basis.
All five are copied unchanged from the code they replaced (only the imports
differ).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from gaborbox.errors import ContextMismatch, NumberSyntaxError
from gaborbox.exactnum import ExactReal, NumberContext, check_radicand, square_free_decompose

_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<name>pi|sqrt)|(?P<op>[+\-*/()])")


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise NumberSyntaxError(f"unexpected character {ch!r}", i + 1)
        col = i + 1
        if m.lastgroup == "int":
            try:
                value = int(m.group())
            except ValueError:  # longer than the interpreter's int-string limit
                raise NumberSyntaxError("integer literal is too long", col) from None
            tokens.append(("int", value, col))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group(), col))
        else:
            tokens.append(("op", m.group(), col))
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise NumberSyntaxError("unexpected end of input", len(self.text) + 1)
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise NumberSyntaxError(f"expected {op!r}", tok[2])
        return tok

    # expression := [+-] term (('+'|'-') term)*
    def parse(self) -> Tuple[Fraction, Fraction, Optional[Tuple[str, Optional[int]]]]:
        if not self.tokens:
            raise NumberSyntaxError("empty number", 1)
        x0 = Fraction(0)
        x1 = Fraction(0)
        basis: Optional[Tuple[str, Optional[int]]] = None
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        while True:
            coef, term_basis = self.parse_term()
            coef *= sign
            if term_basis is None:
                x0 += coef
            else:
                if basis is not None and basis != term_basis:
                    raise NumberSyntaxError(
                        "at most one irrational basis may appear",
                        self.tokens[self.pos - 1][2],
                    )
                basis = term_basis
                x1 += coef
            tok = self.peek()
            if tok is None:
                return x0, x1, basis
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                sign = -1 if tok[1] == "-" else 1
                continue
            raise NumberSyntaxError("expected '+' or '-'", tok[2])

    # term := atom (('*'|'/') atom)*
    def parse_term(self) -> Tuple[Fraction, Optional[Tuple[str, Optional[int]]]]:
        coef, basis = self.parse_atom("*")
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "*/":
                return coef, basis
            op = self.take()[1]
            c2, b2 = self.parse_atom(op)
            if b2 is not None:
                if op == "/":
                    raise NumberSyntaxError(
                        "cannot divide by an irrational", self.tokens[self.pos - 1][2]
                    )
                if basis is not None:
                    raise NumberSyntaxError(
                        "at most one irrational factor per term",
                        self.tokens[self.pos - 1][2],
                    )
                basis = b2
            if op == "*":
                coef *= c2
            else:
                if c2 == 0:
                    raise NumberSyntaxError(
                        "division by zero", self.tokens[self.pos - 1][2]
                    )
                coef /= c2

    # atom := INT | 'pi' | 'sqrt' '(' INT ')'
    def parse_atom(self, op: str) -> Tuple[Fraction, Optional[Tuple[str, Optional[int]]]]:
        tok = self.take()
        if tok[0] == "int":
            return Fraction(tok[1]), None
        if tok[0] == "name" and tok[1] == "pi":
            return Fraction(1), ("pi", None)
        if tok[0] == "name" and tok[1] == "sqrt":
            self.expect_op("(")
            arg = self.take()
            if arg[0] != "int":
                raise NumberSyntaxError("sqrt needs an integer argument", arg[2])
            self.expect_op(")")
            if arg[1] == 0:
                return Fraction(0), None
            check_radicand(arg[1])
            s, d = square_free_decompose(arg[1])
            if d == 1:
                return Fraction(s), None
            return Fraction(s), ("surd", d)
        raise NumberSyntaxError("expected a number, 'pi' or 'sqrt(...)'", tok[2])


def parse_number(text: str, ctx: NumberContext) -> ExactReal:
    """Parse one exact number against the given context.

    Raises NumberSyntaxError (with a column) on malformed input and
    ContextMismatch when the value needs a different basis than ctx.
    """
    x0, x1, basis = _Parser(text).parse()
    if basis is None:
        return ctx.num(x0, Fraction(0))
    kind, d = basis
    if kind == "pi":
        if ctx.kind != "pi":
            raise ContextMismatch(
                f"{text!r} uses pi; pass --context pi (current: {_ctx_name(ctx)})"
            )
        return ctx.num(x0, x1)
    if ctx.kind != "surd" or ctx.d != d:
        raise ContextMismatch(
            f"{text!r} uses sqrt({d}); pass --context sqrt:{d} "
            f"(current: {_ctx_name(ctx)})"
        )
    return ctx.num(x0, x1)


def _ctx_name(ctx: NumberContext) -> str:
    if ctx.kind == "rational":
        return "rational"
    if ctx.kind == "pi":
        return "pi"
    return f"sqrt:{ctx.d}"
