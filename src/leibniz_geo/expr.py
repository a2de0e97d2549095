"""Recursive-descent parser for the scalar expression grammar.

Grammar (the normative description lives in docs/format.md):

    expr   :=  term (('+' | '-') term)*
    term   :=  factor (('*' | '/') factor)*
    factor :=  ('-' | '+') factor | power
    power  :=  atom ('^' INT)?          -- nonnegative integer exponents only
    atom   :=  INT | NAME | '(' expr ')'

The parser produces a small tuple AST; ``parse_expr`` lowers it to a
``ScalarField`` over the declared coordinates.  The AST is exposed so that an
independent tree evaluator can cross-check ``eval_at``.

Nesting (parentheses plus unary minus and plus) is capped at ``MAX_NESTING``
levels; deeper input raises ``ExprSyntaxError`` at the offending token.  Long
flat chains such as ``x1 + x1 + ... + x1`` are not nested and have no cap.
A power whose base has total degree d and whose exponent is k may reach
d * k <= ``MAX_DEGREE``; a larger one raises ``ExprSyntaxError`` at the
exponent, before it is expanded.  A constant has degree 0, so a power of a
constant is bounded by size instead: the base's integer log2 (one less than
the bit length of the larger of its numerator's magnitude and its
denominator), times the exponent, may reach ``MAX_CONSTANT_BITS``.  This is
0 for 0, 1 and -1, whose powers stay one bit long.  An integer literal is
bounded the same way, as a power with exponent 1: one whose integer log2
exceeds ``MAX_CONSTANT_BITS`` raises ``ExprSyntaxError`` at the literal,
before ``int()`` reads its digits.

A product, quotient or power is bounded by the term products it may form,
counted from its operands' term counts (a field has the terms of its
numerator plus those of its denominator) before sympy runs it.  For a * b
and a / b that is terms(a) * terms(b).  A power p^k of a polynomial with n
terms has C(n + k - 1, k) multinomial terms, each a product of up to n
factors, so it counts n * C(n + k - 1, k), summed over numerator and
denominator.  Past ``MAX_TERMS`` the operation raises ``ExprSyntaxError`` at
its operator (a power at its exponent, like the other power caps).

A sum or difference of polynomials is linear in their terms and has no cap.
When an operand of a sum, difference, product or quotient has a denominator
other than 1, the operation cross-multiplies numerators and denominators and
then cancels a gcd of the results, whose cost grows much faster than the
term products: terms(a) * terms(b) may reach only ``MAX_FRACTION_TERMS``,
else ``ExprSyntaxError`` is raised at the operator.
"""

from __future__ import annotations

import math
import operator
import re

from .errors import ExprSyntaxError, UnknownVariable
from .scalar import ScalarField

# Deepest nesting of parentheses and unary signs that the parser accepts.
MAX_NESTING = 100

# Largest total degree (base degree times exponent) that a power may reach.
MAX_DEGREE = 100

# Largest size (base integer log2 times exponent) that a power of a constant may reach.
MAX_CONSTANT_BITS = 10_000

# Most term products that one product, quotient or power may form.
MAX_TERMS = 20_000

# Most term products that one operation with an operand's denominator other than 1 may form.
MAX_FRACTION_TERMS = 2_000

# The grammar's NAME token; a coordinate name must match it whole.
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_TOKEN = re.compile(rf"\s*(?:(\d+)|({NAME.pattern})|([-+*/^()]))")


def tokenize(text):
    """Yield (kind, value, position) triples; kind in {'int', 'name', 'op'}."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            tokens.append(("int", int_literal(m.group(1), m.start(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


def int_literal(text, position=None):
    """The value of a decimal integer literal with an optional leading '-'.

    A literal whose integer log2 exceeds ``MAX_CONSTANT_BITS`` raises
    ``ExprSyntaxError`` at ``position``.  d significant digits are at least
    8^(d - 1), so one with 3 (d - 1) past the cap is refused before
    ``int()`` reads it, and ``int()`` never reads more than
    ``MAX_CONSTANT_BITS`` / 3 + 1 digits.
    """
    digits = text.lstrip("-").lstrip("0")
    if 3 * (len(digits) - 1) <= MAX_CONSTANT_BITS:
        value = int(digits or "0")
        if value.bit_length() - 1 <= MAX_CONSTANT_BITS:
            return -value if text.startswith("-") else value
    raise ExprSyntaxError(f"integer literal of more than {MAX_CONSTANT_BITS} bits", position)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("end", None, len(self.text))

    def advance(self):
        token = self.peek()
        self.index += 1
        return token

    def enter(self, pos):
        """One level deeper; refuse input nested past MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", pos)

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        self.advance()

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {value!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = ("add" if value == "+" else "sub", node, rhs, pos)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                node = ("mul" if value == "*" else "div", node, rhs, pos)
            else:
                return node

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "op" and value in "-+":
            self.advance()
            self.enter(pos)
            node = self.factor()
            self.depth -= 1
            return ("neg", node) if value == "-" else node
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, exponent, pos = self.peek()
            if kind != "int":
                raise ExprSyntaxError("exponent must be a nonnegative integer", pos)
            self.advance()
            node = ("pow", node, exponent, pos)
        return node

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "int":
            return ("int", value)
        if kind == "name":
            return ("var", value)
        if kind == "op" and value == "(":
            self.enter(pos)
            node = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise ExprSyntaxError(f"expected a number, name or '('", pos)


def parse_ast(text):
    """Parse expression text to the raw tuple AST."""
    return _Parser(text).parse()


_BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}
_OPERATION = {"add": "sum", "sub": "sum", "mul": "product", "div": "quotient"}


def _terms(field):
    return len(field.frac.numer) + len(field.frac.denom)


def _power_terms(field, k):
    """n * C(n + k - 1, k) for the numerator and the denominator of field^k."""
    sizes = (len(field.frac.numer), len(field.frac.denom))
    return sum(n * math.comb(n + k - 1, k) for n in sizes if n)


def _check_terms(count, what, position, cap=MAX_TERMS):
    if count > cap:
        raise ExprSyntaxError(f"{what} of {count} term products exceeds {cap}", position)


def ast_to_field(node, coords):
    """Lower an AST to a ScalarField over the given coordinates.

    Iterative post-order walk, left operand first, so a long flat chain (a
    left-deep tree) does not exhaust the interpreter stack.  A parsed pow
    node carries its exponent's text position as a fourth element, where a
    power past ``MAX_DEGREE``, ``MAX_CONSTANT_BITS`` or ``MAX_TERMS`` is
    reported; a parsed add, sub, mul or div node carries its operator's
    position, where one past ``MAX_FRACTION_TERMS`` or ``MAX_TERMS`` is reported.
    """
    values = []
    stack = [(node, False)]
    while stack:
        node, ready = stack.pop()
        op = node[0]
        if op == "int":
            values.append(ScalarField.constant(node[1], coords))
        elif op == "var":
            if node[1] not in coords:
                raise UnknownVariable(node[1])
            values.append(ScalarField.coordinate(coords.index(node[1]) + 1, tuple(coords)))
        elif not ready:
            stack.append((node, True))
            operands = node[1:2] if op in ("neg", "pow") else node[2:0:-1]
            stack.extend((child, False) for child in operands)
        elif op == "neg":
            values.append(-values.pop())
        elif op == "pow":
            base = values.pop()
            position = node[3] if len(node) > 3 else None
            degree = base.total_degree() * node[2]
            if degree > MAX_DEGREE:
                raise ExprSyntaxError(f"power of degree {degree} exceeds {MAX_DEGREE}", position)
            if base.is_constant:
                value = base.as_rational()
                bits = (max(abs(value.numerator), value.denominator).bit_length() - 1) * node[2]
                if bits > MAX_CONSTANT_BITS:
                    raise ExprSyntaxError(
                        f"power of a constant of {bits} bits exceeds {MAX_CONSTANT_BITS}", position
                    )
            _check_terms(_power_terms(base, node[2]), "power", position)
            values.append(base ** node[2])
        elif op in _BINARY:
            rhs = values.pop()
            lhs = values.pop()
            position = node[3] if len(node) > 3 else None
            count = _terms(lhs) * _terms(rhs)
            what = _OPERATION[op]
            if not (lhs.frac.denom.is_one and rhs.frac.denom.is_one):
                _check_terms(count, f"{what} of fractions", position, MAX_FRACTION_TERMS)
            elif op in ("mul", "div"):
                _check_terms(count, what, position)
            values.append(_BINARY[op](lhs, rhs))
        else:
            raise AssertionError(f"unreachable AST node {op!r}")
    return values.pop()


def parse_expr(text, coords):
    """Parse expression text to a ScalarField over the given coordinates."""
    if isinstance(coords, str):
        raise TypeError("coords must be a sequence of names")
    return ast_to_field(parse_ast(text), list(coords))
