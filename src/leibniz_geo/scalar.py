"""Exact multivariate rational functions over Q.

``ScalarField`` is the coefficient ring of everything in this package: metric
entries, anchor and bracket coefficients, connection coefficients, residual
components.  Working over the rational-function field keeps every geometric
identity check exact: a residual either normalizes to the zero field or it
does not, and no floating point ever enters.

A value holds one element of ``sympy.polys`` ``FracField(coords, QQ, grlex)``,
a pair of sparse polynomials with rational coefficients.  The field is built
once per coordinate tuple and shared.  sympy's polynomial kernel does the
heavy lifting (multivariate gcd, cancellation); this module pins the normal
form on top of it:

* reduced fraction num/den with gcd(num, den) = 1,
* denominator monic under the graded-lex monomial order (so the
  representation is unique),
* zero is stored as 0/1.

Operations with a zero operand return at once, without touching the
polynomial kernel.  Sums, differences, products and derivatives of
polynomials (denominator 1), and products with a constant, are already in
normal form and skip the gcd cancellation.  The tensor kernels do not add
and multiply fields one pair at a time: they sum products of numerators over
their denominators and build each entry once with ``from_fraction``, which
cancels once (``_Denominators``).  Values are immutable and hashable; all
operations are pure.
Conversion to a sympy expression happens only for display.

A check call (``checks.run_all``, ``checks.run_check``, the only code that
enters ``normal_form_memo``) memoises for as long as it runs: the reduced
fraction of (field, numerator, denominator), which ``from_fraction``
normalises and the block solves of ``linalg`` compute on with, and the
derivative of a fraction by (fraction, coordinate).  The checks rebuild
objects that are equal in value but distinct (on a Levi-Civita pair
nabla* = nabla and every alpha-connection is nabla), so without it one call
cancels the same fraction many times; with it, each distinct one once.  The
memo is dropped when the call returns.  It is not kept for the process: it
would hold fractions of documents no longer checked, and a document checked
again would reuse them where every other derived object is derived again.
Outside a check call there is no memo and no lookup.  The keys hold
polynomials, whose hash sympy caches on the object; no code of the package
changes a polynomial in place.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gc
import operator
from fractions import Fraction

# Importing sympy builds about 90 000 container objects that live as long as
# the interpreter.  With the collector running, the import itself starts
# about 130 passes over them (10 of them gen-1 and one full); paused, it
# starts none.  The few dozen garbage objects left at the end are frozen with
# the rest, and afterwards a full collection walks only the objects made
# since: about 2 ms instead of about 30 ms on a 2-core x86-64 VM.  The
# caller's collector state is kept, also if the import fails.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    import sympy as sp
    from sympy.polys.domains import QQ
    from sympy.polys.fields import FracField
    from sympy.polys.orderings import grlex

    gc.freeze()
finally:
    if _gc_was_enabled:
        gc.enable()
    del _gc_was_enabled

from .errors import DivisionByZero, PoleAtPoint

# The exact rational scalar type used throughout the package.
Rational = Fraction

# Placeholder generator so that the polynomial machinery works on a
# zero-dimensional base (n = 0, i.e. the base manifold is a point).
_DUMMY = sp.Symbol("_point")

# One shared fraction field per coordinate tuple.
_FIELDS = {}


def _field(coords):
    """The fraction field Q(coords) with the grlex order."""
    K = _FIELDS.get(coords)
    if K is None:
        gens = tuple(sp.Symbol(name) for name in coords) or (_DUMMY,)
        K = _FIELDS[coords] = FracField(gens, QQ, grlex)
    return K


def _is_one(poly):
    """poly == 1, without the new polynomial that ``PolyElement.is_one`` builds."""
    return len(poly) == 1 and poly.get(poly.ring.zero_monom) == QQ.one


def _degree(poly):
    return max((sum(monom) for monom in poly.itermonoms()), default=0)


def _evaluate(poly, point):
    """Exact value of a polynomial at a point given as Fractions."""
    total = Fraction(0)
    for monom, coeff in poly.iterterms():
        term = Fraction(int(coeff.numerator), int(coeff.denominator))
        for value, exp in zip(point, monom):
            term *= value**exp
        total += term
    return total


# The memo of the check call in progress: the reduced fraction of (field,
# numer, denom) and the derivative of (frac, i); None outside a check call.
_memo = None


@contextlib.contextmanager
def normal_form_memo():
    """Memoise normal forms until exit, in a fresh memo; the one in use
    before, or none, is back on exit, also when an exception leaves."""
    global _memo
    outer, _memo = _memo, {}
    try:
        yield
    finally:
        _memo = outer


class ScalarField:
    """An exact rational function of the coordinates, in normal form."""

    __slots__ = ("frac", "coords")

    def __init__(self, frac, coords, _normalized=False):
        self.coords = coords
        self.frac = frac if _normalized else self._normal_form(frac)

    # -- construction ---------------------------------------------------------

    @classmethod
    def constant(cls, value, coords):
        coords = tuple(coords)
        K = _field(coords)
        if isinstance(value, int) and value in (0, 1):
            return cls(K.one if value else K.zero, coords, _normalized=True)
        q = Fraction(value)
        frac = K.raw_new(K.ring.ground_new(QQ(q.numerator, q.denominator)), K.ring.one)
        return cls(frac, coords, _normalized=True)

    @classmethod
    def coordinate(cls, i, coords):
        """The coordinate function x_i (1-based)."""
        coords = tuple(coords)
        if not 1 <= i <= len(coords):
            raise IndexError(f"coordinate index {i} out of range 1..{len(coords)}")
        return cls(_field(coords).gens[i - 1], coords, _normalized=True)

    @classmethod
    def from_fraction(cls, numer, denom, coords):
        """numer/denom for polynomials of the ring of Q(coords), cancelled once;
        a denom of None stands for 1 and needs no cancellation."""
        K = _field(coords)
        if denom is None:
            return cls(K.raw_new(numer, K.ring.one), coords, _normalized=True)
        return cls(cls._cancel(numer, denom, K), coords)

    @staticmethod
    def _cancel(numer, denom, K):
        """numer/denom in the fraction field K, reduced by the one gcd
        cancellation of a fraction that the package asks for
        (``from_fraction``, the block solves of ``linalg``).  The denominator
        is not made monic: the block solves compute on with sympy's reduced
        form, whose integer coefficients cost less than the monic one's."""
        return ScalarField._memoised((K, numer, denom), lambda: K.raw_new(*numer.cancel(denom)))

    @staticmethod
    def _memoised(key, build):
        """build(), or inside ``normal_form_memo`` the value built for an
        equal key before."""
        if _memo is None:
            return build()
        value = _memo.get(key)
        if value is None:
            value = _memo[key] = build()
        return value

    # -- normal form ----------------------------------------------------------

    @staticmethod
    def _normal_form(frac):
        """Make a reduced fraction's denominator monic under grlex.

        ``raw_new`` keeps the division: ``new`` would cancel again and clear
        the rational coefficients back out of the denominator.
        """
        lc = frac.denom.LC
        if lc == 1:
            return frac
        return frac.raw_new(frac.numer.quo_ground(lc), frac.denom.quo_ground(lc))

    def _ring_op(self, other, op):
        """``op`` (+, - or *) on nonzero operands."""
        a, b = self.frac, other.frac
        if _is_one(a.denom) and _is_one(b.denom):
            # Polynomials: the result is already in normal form.
            frac = a.raw_new(op(a.numer, b.numer), a.denom)
            return ScalarField(frac, self.coords, _normalized=True)
        return ScalarField(op(a, b), self.coords)

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.frac.numer

    @property
    def is_constant(self):
        return self.frac.numer.is_ground and _is_one(self.frac.denom)

    def as_rational(self):
        """The value as an exact Rational; requires a constant field."""
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return _evaluate(self.frac.numer, ())

    def total_degree(self):
        """max(deg num, deg den); degree of the zero field is 0."""
        return max(_degree(self.frac.numer), _degree(self.frac.denom))

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
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return self._ring_op(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            return -other
        return self._ring_op(other, operator.sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return self
        if other.is_zero:
            return other
        if self.is_constant or other.is_constant:
            # A rational multiple of a normal form is one too.
            c, f = (self, other.frac) if self.is_constant else (other, self.frac)
            frac = f.raw_new(f.numer.mul_ground(c.frac.numer.LC), f.denom)
            return ScalarField(frac, self.coords, _normalized=True)
        return self._ring_op(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("division by the zero scalar field")
        if self.is_zero:
            return self
        return ScalarField(self.frac / other.frac, self.coords)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if exponent == 0:
            return ScalarField.constant(1, self.coords)
        # A power of a reduced fraction with monic denominator is one too.
        return ScalarField(self.frac**exponent, self.coords, _normalized=True)

    def __neg__(self):
        return ScalarField(-self.frac, self.coords, _normalized=True)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarField.constant(other, self.coords)
        if not isinstance(other, ScalarField):
            return NotImplemented
        return self.coords == other.coords and self.frac == other.frac

    def __hash__(self):
        # A constant equals its Fraction value, so it must hash like it too.
        if self.is_constant:
            return hash(self.as_rational())
        return hash((self.coords, self.frac))

    # -- calculus -------------------------------------------------------------

    def diff(self, i):
        """Exact partial derivative with respect to the i-th coordinate (1-based)."""
        if not 1 <= i <= len(self.coords):
            raise IndexError(f"coordinate index {i} out of range 1..{len(self.coords)}")
        if self.is_constant:
            return ScalarField.constant(0, self.coords)
        f = self.frac
        if _is_one(f.denom):
            # A polynomial's derivative is a polynomial, already in normal form.
            derivative = f.numer.diff(f.field.ring.gens[i - 1])
            return ScalarField(f.raw_new(derivative, f.denom), self.coords, _normalized=True)
        return self._memoised((f, i), lambda: ScalarField(f.diff(f.field.gens[i - 1]), self.coords))

    def eval_at(self, point):
        """Exact value at a rational point; raises PoleAtPoint on a vanishing denominator."""
        if len(point) != len(self.coords):
            raise ValueError(f"point has length {len(point)}, expected {len(self.coords)}")
        values = [Fraction(p) for p in point]
        den = _evaluate(self.frac.denom, values)
        if den == 0:
            raise PoleAtPoint(f"denominator vanishes at {tuple(point)}")
        return _evaluate(self.frac.numer, values) / den

    # -- display --------------------------------------------------------------

    def __repr__(self):
        num = sp.sstr(self.frac.numer.as_expr())
        if _is_one(self.frac.denom):
            return num
        return f"({num})/({sp.sstr(self.frac.denom.as_expr())})"

    def __str__(self):
        """Canonical form in the expression grammar (caret powers)."""
        return repr(self).replace("**", "^")


class _Denominators:
    """Unreduced sums of fractions, each brought over one common denominator.

    A fraction is held as its polynomial numerator over a key: the sorted
    tuple of the ids of its denominator's factors, an id naming one distinct
    polynomial (a polynomial has the key ()).  A sum is a dict {key:
    numerator}, so fractions over equal denominators add as polynomials.
    """

    def __init__(self):
        self.ids = {}
        self.polys = []

    def key(self, denom):
        """The key of a one-factor denominator."""
        if _is_one(denom):
            return ()
        i = self.ids.get(denom)
        if i is None:
            i = self.ids[denom] = len(self.polys)
            self.polys.append(denom)
        return (i,)

    def common(self, terms, extra=None):
        """(numerator, denominator) of the sum ``terms`` divided by the
        polynomial ``extra``, over the multiset union of the keys and not
        cancelled; the denominator is None for 1.  A zero sum gives None, and
        costs no gcd.  A lone term is taken to be nonzero."""
        if len(terms) == 1:
            ((key, numer),) = terms.items()
            union = collections.Counter(key)
        else:
            union = functools.reduce(operator.or_, map(collections.Counter, terms))
            numer = functools.reduce(
                operator.add, (self._times(n, union - collections.Counter(k)) for k, n in terms.items())
            )
            if not numer:
                return None
        if extra is None:
            return numer, (self._times(numer.ring.one, union) if union else None)
        return numer, self._times(extra, union)

    def _times(self, poly, multiset):
        """poly times the denominators that a Counter of ids names."""
        for i, m in multiset.items():
            poly = poly * self.polys[i] ** m
        return poly
