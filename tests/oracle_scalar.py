"""Reference scalar kernel: the expression-based ScalarField, kept as an oracle.

This is the scalar implementation that ``leibniz_geo.scalar`` replaced, kept
unchanged apart from its imports.  Every value is a pair of sympy expressions
normalised by ``cancel(together(...))`` on each operation.  It is slow, and
the differential tests in ``test_scalar_oracle.py`` compare the package's
kernel with it.

The original module documentation follows.

Exact multivariate rational functions over Q.

``ScalarField`` is the coefficient ring of everything in this package: metric
entries, anchor and bracket coefficients, connection coefficients, residual
components.  Working over the rational-function field keeps every geometric
identity check exact: a residual either normalizes to the zero field or it
does not, and no floating point ever enters.

The heavy lifting (multivariate gcd, cancellation) is delegated to sympy's
polynomial kernel; this module pins the normal form on top of it:

* reduced fraction num/den with gcd(num, den) = 1,
* denominator monic under the graded-lex monomial order (so its leading
  coefficient is positive and the representation is unique),
* zero is stored as 0/1.

Values are immutable and hashable; all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp

from leibniz_geo.errors import DivisionByZero, PoleAtPoint

# The exact rational scalar type used throughout the package.
Rational = Fraction

# Placeholder generator so that Poly machinery works on a zero-dimensional base
# (n = 0, i.e. the base manifold is a point).
_DUMMY = sp.Symbol("_point")


def _symbols(coords):
    return tuple(sp.Symbol(name) for name in coords)


class ScalarField:
    """An exact rational function of the coordinates, in normal form."""

    __slots__ = ("num", "den", "coords", "_syms")

    def __init__(self, num, den, coords, _normalized=False):
        self.coords = tuple(coords)
        self._syms = _symbols(self.coords)
        if _normalized:
            self.num, self.den = num, den
            return
        self.num, self.den = self._normal_form(num, den)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_expr(cls, expr, coords):
        return cls(sp.sympify(expr), sp.Integer(1), coords)

    @classmethod
    def constant(cls, value, coords):
        q = sp.Rational(Fraction(value))
        return cls(q, sp.Integer(1), coords, _normalized=True)

    @classmethod
    def coordinate(cls, i, coords):
        """The coordinate function x_i (1-based)."""
        if not 1 <= i <= len(coords):
            raise IndexError(f"coordinate index {i} out of range 1..{len(coords)}")
        return cls(_symbols(coords)[i - 1], sp.Integer(1), coords, _normalized=True)

    # -- normal form ----------------------------------------------------------

    def _normal_form(self, num, den):
        if den == 0:
            raise DivisionByZero("denominator is the zero polynomial")
        frac = sp.cancel(sp.together(num / den))
        num, den = sp.fraction(frac)
        num = sp.expand(num)
        den = sp.expand(den)
        if num == 0:
            return sp.Integer(0), sp.Integer(1)
        gens = self._syms or (_DUMMY,)
        lc = sp.Poly(den, *gens, domain="QQ").LC(order="grlex")
        if lc != 1:
            num = sp.expand(num / lc)
            den = sp.expand(den / lc)
        return num, den

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self):
        return self.num == 0

    @property
    def is_constant(self):
        return self.num.is_Rational and self.den == 1

    def as_rational(self):
        """The value as an exact Rational; requires a constant field."""
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return Fraction(int(self.num.p), int(self.num.q))

    def total_degree(self):
        """max(deg num, deg den); degree of the zero field is 0."""
        if self.is_zero:
            return 0
        gens = self._syms or (_DUMMY,)
        dn = sp.Poly(self.num, *gens, domain="QQ").total_degree()
        dd = sp.Poly(self.den, *gens, domain="QQ").total_degree()
        return max(dn, dd)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.coords != self.coords:
                raise ValueError("scalar fields over different coordinate systems")
            return other
        if isinstance(other, (int, Fraction)):
            return ScalarField.constant(other, self.coords)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ScalarField(
            self.num * other.den + other.num * self.den, self.den * other.den, self.coords
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ScalarField(
            self.num * other.den - other.num * self.den, self.den * other.den, self.coords
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ScalarField(self.num * other.num, self.den * other.den, self.coords)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("division by the zero scalar field")
        return ScalarField(self.num * other.den, self.den * other.num, self.coords)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return ScalarField(self.num**exponent, self.den**exponent, self.coords)

    def __neg__(self):
        return ScalarField(-self.num, self.den, self.coords, _normalized=True)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarField.constant(other, self.coords)
        if not isinstance(other, ScalarField):
            return NotImplemented
        return self.coords == other.coords and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.coords, self.num, self.den))

    # -- calculus -------------------------------------------------------------

    def diff(self, i):
        """Exact partial derivative with respect to the i-th coordinate (1-based)."""
        if not 1 <= i <= len(self.coords):
            raise IndexError(f"coordinate index {i} out of range 1..{len(self.coords)}")
        x = self._syms[i - 1]
        num = sp.diff(self.num, x) * self.den - self.num * sp.diff(self.den, x)
        return ScalarField(num, self.den**2, self.coords)

    def eval_at(self, point):
        """Exact value at a rational point; raises PoleAtPoint on a vanishing denominator."""
        if len(point) != len(self.coords):
            raise ValueError(f"point has length {len(point)}, expected {len(self.coords)}")
        subs = {s: sp.Rational(Fraction(p)) for s, p in zip(self._syms, point)}
        den = self.den.subs(subs)
        if den == 0:
            raise PoleAtPoint(f"denominator vanishes at {tuple(point)}")
        value = sp.Rational(self.num.subs(subs), den)
        return Fraction(int(value.p), int(value.q))

    # -- display --------------------------------------------------------------

    def __repr__(self):
        if self.den == 1:
            return sp.sstr(self.num)
        return f"({sp.sstr(self.num)})/({sp.sstr(self.den)})"

    def __str__(self):
        """Canonical form in the expression grammar (caret powers)."""
        return repr(self).replace("**", "^")
