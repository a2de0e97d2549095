"""Typed (q, r) tensor algebra over the scalar field on a fixed frame.

``ETensor`` is the one component-array type: a section of the bundle is a
(1, 0) tensor, a one-form a (0, 1) tensor, a p-form an antisymmetric (0, p)
tensor, and a residual such as T, R or Q is the tensor that its identity
sets to zero.  Its components live in a ``Components`` store: an immutable
sparse array holding a shape and its nonzero ScalarField entries keyed by
index tuple.  Most entries of the structure and connection arrays are zero,
and a zero entry is never stored, multiplied or added.  A signed sum of
contractions is one ``contract_sum`` call with einsum subscripts per term,
each term a hash join on the nonzero entries (``contract`` is the one-term
case).  Products and sums stay unreduced polynomials grouped by denominator,
and each output entry is normalised once (``_Sums``): one whose numerators
cancel costs no gcd.
All indices are 0-based internally; the model-file layer converts from the
1-based convention used in the docs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import string
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import DegenerateMetric, SlotMismatch
from .scalar import ScalarField, _Denominators


class Components:
    """Immutable sparse array of ScalarField: a ``shape`` and the nonzero
    ``entries``, keyed by index tuple.

    Every constructor keeps ``entries`` free of zero fields, so ``is_zero`` is
    an empty test.  Reading an index that holds no entry gives the zero field;
    an index must name every axis.
    """

    __slots__ = ("shape", "coords", "entries")

    def __init__(self, shape, coords, entries=None):
        self.shape = tuple(shape)
        self.coords = tuple(coords)
        self.entries = {} if entries is None else entries

    # Not iterable: a partial index is an error, not a row.
    __iter__ = None

    @property
    def is_zero(self):
        return not self.entries

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        if len(idx) != len(self.shape) or not all(0 <= i < n for i, n in zip(idx, self.shape)):
            raise IndexError(f"index {idx} out of range for shape {self.shape}")
        value = self.entries.get(idx)
        return ScalarField.constant(0, self.coords) if value is None else value

    def tolist(self):
        """Dense nested lists in row-major order; a 0-d store gives its one field."""
        flat = [ScalarField.constant(0, self.coords)] * math.prod(self.shape)
        for idx, value in self.entries.items():
            flat[_ravel(idx, self.shape)] = value

        def nest(flat, shape):
            if len(shape) < 2:
                return flat
            step = len(flat) // shape[0] if shape[0] else 0
            return [nest(flat[i * step : (i + 1) * step], shape[1:]) for i in range(shape[0])]

        return nest(flat, self.shape) if self.shape else flat[0]

    def reshape(self, shape):
        """The same entries in row-major order under a new shape of equal size."""
        shape = tuple(shape)
        if math.prod(shape) != math.prod(self.shape):
            raise ValueError(f"cannot reshape {self.shape} to {shape}")
        entries = {}
        for idx, value in self.entries.items():
            flat, new = _ravel(idx, self.shape), []
            for n in reversed(shape):
                flat, i = divmod(flat, n)
                new.append(i)
            entries[tuple(reversed(new))] = value
        return Components(shape, self.coords, entries)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other, each entry normalised once; the accumulator
        takes the sign, so no negated copy of other is built."""
        if self.shape != other.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        sums = _Sums(self.coords)
        for coeff, store in ((1, self), (sign, other)):
            for idx, value in store.entries.items():
                sums.add_field(idx, coeff, value)
        return Components(self.shape, self.coords, sums.finish())

    def __neg__(self):
        return Components(self.shape, self.coords, {i: -v for i, v in self.entries.items()})

    def scale(self, factor):
        if factor.is_zero:
            return Components(self.shape, self.coords)
        return Components(self.shape, self.coords, {i: v * factor for i, v in self.entries.items()})


def _ravel(idx, shape):
    """The row-major position of an index."""
    flat = 0
    for i, n in zip(idx, shape):
        flat = flat * n + i
    return flat


def flatten_nested(nested):
    """(shape, leaves in row-major order) of nested lists; a non-list is 0-d.

    Raises ValueError on a ragged nesting.
    """
    shape, level = [], [nested]
    while level and all(isinstance(x, (list, tuple)) for x in level):
        lengths = {len(x) for x in level}
        if len(lengths) > 1:
            raise ValueError("ragged nesting")
        shape.append(lengths.pop())
        level = [leaf for x in level for leaf in x]
    if any(isinstance(x, (list, tuple)) for x in level):
        raise ValueError("ragged nesting")
    return tuple(shape), level


def object_array(nested, coords=None):
    """The Components of nested lists of ScalarField (a bare field is 0-d).

    ``coords`` defaults to those of the first entry; raises ValueError on a
    ragged nesting.
    """
    shape, leaves = flatten_nested(nested)
    if coords is None:
        coords = leaves[0].coords if leaves else ()
    indices = itertools.product(*map(range, shape))
    return Components(
        shape, coords, {idx: f for idx, f in zip(indices, leaves) if not f.is_zero}
    )


def sum_terms(shape, coords, terms):
    """The Components whose entry at each index is the sum of the terms given for it.

    ``terms`` yields (index, ScalarField) pairs; this is how an array is
    written index by index.  Each entry is normalised once.
    """
    sums = _Sums(coords)
    for idx, value in terms:
        sums.add_field(idx, 1, value)
    return Components(shape, coords, sums.finish())


# -- the accumulator ------------------------------------------------------------


class _Sums(_Denominators):
    """Per output index, the unreduced sum of the products given for it.

    A product of fields with a rational coefficient is held as its numerator,
    the product of the numerators, over the denominator key of
    ``_Denominators``: the sorted tuple of the ids of the factors'
    denominators (a polynomial factor adds none).  An index holds {key: sum
    of the numerators over it}, and nothing is cancelled until ``finish``.
    There each index is brought to one common denominator and cancelled once
    (``_Denominators.common``): a sum whose numerators add to zero is dropped
    with no gcd, a sum over denominator 1 needs none, and an index given one
    lone field keeps that field.
    """

    def __init__(self, coords):
        super().__init__()
        self.coords = coords
        self.sums = {}  # index -> {key: numerator}, or (coeff, field) for a lone field

    def fraction(self, coeff, value):
        """coeff * value as an unreduced sum."""
        frac = value.frac
        return {self.key(frac.denom): self._scaled(frac.numer, coeff)}

    def add_field(self, idx, coeff, value):
        prev = self.sums.get(idx)
        if prev is None:
            self.sums[idx] = (coeff, value)
        else:
            self.add(idx, self.fraction(coeff, value))

    def add(self, idx, terms):
        """Add the unreduced sum ``terms`` (which the accumulator may keep) at idx."""
        prev = self.sums.get(idx)
        if prev is None:
            self.sums[idx] = terms
            return
        if isinstance(prev, tuple):
            prev = self.sums[idx] = self.fraction(*prev)
        self.add_into(prev, terms)

    def finish(self):
        """{index: the normalised sum}, zero sums dropped."""
        entries = {}
        for idx, terms in self.sums.items():
            value = self._value(terms)
            if value is not None:
                entries[idx] = value
        return entries

    def _value(self, terms):
        if isinstance(terms, tuple):
            coeff, value = terms
            return value if coeff == 1 else -value if coeff == -1 else value * coeff
        summed = self.common(terms) if terms else None
        return None if summed is None else ScalarField.from_fraction(*summed, self.coords)

    @staticmethod
    def add_into(terms, other):
        """terms += other for unreduced sums, keys whose numerators cancel dropped."""
        for key, numer in other.items():
            prev = terms.get(key)
            if prev is None:
                terms[key] = numer
                continue
            total = prev + numer
            if total:
                terms[key] = total
            else:
                del terms[key]

    @staticmethod
    def _scaled(numer, coeff):
        if coeff == 1:
            return numer
        if coeff == -1:
            return -numer
        coeff = Fraction(coeff)
        return numer.mul_ground(numer.ring.domain(coeff.numerator, coeff.denominator))


# -- contract -----------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _plan(subscripts, ndims):
    """The operand labels and the output labels of explicit-output einsum
    subscripts in which every term names each axis of its operand once."""
    lhs, arrow, output = subscripts.replace(" ", "").partition("->")
    inputs = tuple(lhs.split(","))
    if not arrow or len(inputs) != len(ndims):
        raise ValueError(f"subscripts {subscripts!r} need '->' and one term per operand")
    for spec, ndim in zip(inputs, ndims):
        # '...' repeats its dot, and a repeated label would ask for a diagonal.
        if len(spec) != ndim or len(set(spec)) != ndim:
            raise ValueError(f"subscripts {subscripts!r} do not label {ndim} axes once each")
    if len(set(output)) != len(output) or not set(output) <= set("".join(inputs)):
        raise ValueError(f"bad output subscripts in {subscripts!r}")
    return inputs, output


def _getter(positions):
    """index tuple -> the tuple of its entries at ``positions``."""
    if len(positions) == 1:
        (p,) = positions
        return lambda idx: (idx[p],)
    return operator.itemgetter(*positions) if positions else lambda idx: ()


@functools.lru_cache(maxsize=1024)
def _reorder(bound, output):
    """index tuple labelled ``bound`` -> its entries in the order of ``output``."""
    return _getter([bound.index(label) for label in output])


@functools.lru_cache(maxsize=1024)
def _join_plan(bound, labels, keep):
    """The kept labels of a join and its index getters: the shared-label key and
    the new labels of other's indices, the shared-label key of a row's index,
    and the kept labels of a joined index."""
    shared = [label for label in labels if label in bound]
    new = "".join(label for label in labels if label not in bound)
    joined = bound + new
    kept = "".join(label for label in joined if label in keep)
    return (
        kept,
        _getter([labels.index(s) for s in shared]),
        _getter([labels.index(n) for n in new]),
        _getter([bound.index(s) for s in shared]),
        _getter([joined.index(k) for k in kept]),
    )


def _join(sums, bound, rows, labels, other, keep):
    """Multiply rows (unreduced sums keyed by the labels ``bound``) with other's
    entries on their shared labels, then sum over the labels not in ``keep``."""
    kept, key_other, ext_other, key_rows, project = _join_plan(bound, labels, keep)
    index = {}
    for idx, value in other.items():
        factor = (ext_other(idx), value.frac.numer, sums.key(value.frac.denom))
        index.setdefault(key_other(idx), []).append(factor)
    out = {}
    for idx, terms in rows.items():
        for ext, numer, denom in index.get(key_rows(idx), ()):
            product = {
                tuple(sorted(key + denom)) if denom else key: n * numer for key, n in terms.items()
            }
            target = project(idx + ext)
            prev = out.get(target)
            if prev is None:
                out[target] = product
            else:
                sums.add_into(prev, product)
    return kept, {idx: terms for idx, terms in out.items() if terms}


def contract_sum(*terms):
    """A signed sum of numpy-einsum contractions of Components, as one store.

    Each term is (coeff, subscripts, *operands) with a rational coeff and
    explicit output subscripts; every term must give the same output shape.
    Within a term the operands' nonzero entries are hash-joined on their
    shared labels one operand at a time, and a label is summed out as soon
    as no later operand and not the output carries it.  Products and sums
    stay unreduced until the whole sum is known; then each output entry is
    normalised once (see ``_Sums``).  '...' and repeated labels are refused
    with ValueError.
    """
    shape = sums = None
    for coeff, subscripts, *operands in terms:
        inputs, output = _plan(subscripts, tuple(len(op.shape) for op in operands))
        sizes = {}
        for labels, operand in zip(inputs, operands):
            for label, n in zip(labels, operand.shape):
                if sizes.setdefault(label, n) != n:
                    raise ValueError(f"label {label!r} spans axes of sizes {sizes[label]} and {n}")
        term_shape = tuple(sizes[label] for label in output)
        if sums is None:
            shape, sums = term_shape, _Sums(operands[0].coords)
        elif term_shape != shape:
            raise ValueError(f"terms give shapes {shape} and {term_shape}")
        if coeff:
            _contract_into(sums, coeff, inputs, output, operands)
    return Components(shape, sums.coords, sums.finish())


def _contract_into(sums, coeff, inputs, output, operands):
    """Add coeff times one einsum contraction to the accumulator."""
    bound, rows = inputs[0], operands[0].entries
    if len(operands) == 1:
        order = _reorder(bound, output)
        for idx, value in rows.items():
            sums.add_field(order(idx), coeff, value)
        return
    rows = {idx: sums.fraction(coeff, value) for idx, value in rows.items()}
    for k in range(1, len(operands)):
        keep = frozenset(output).union(*inputs[k + 1 :])
        bound, rows = _join(sums, bound, rows, inputs[k], operands[k].entries, keep)
    order = _reorder(bound, output)
    for idx, terms in rows.items():
        sums.add(order(idx), terms)


def contract(subscripts, *operands):
    """numpy-einsum contraction of Components with explicit output subscripts:
    the one-term ``contract_sum``."""
    return contract_sum((1, subscripts, *operands))


def permute(comps, order):
    """Axes reordered: axis k of the result is axis order[k] of comps."""
    labels = string.ascii_lowercase[: len(comps.shape)]
    return contract(f"{labels}->{''.join(labels[k] for k in order)}", comps)


# -- summaries and tensors ------------------------------------------------------


class ComponentSummaries:
    """Zero test and residual summaries over a ``comps`` store.

    Used bare for a residual array that carries no (q, r) type, such as one
    whose axes mix frame and coordinate indices.
    """

    def __init__(self, comps):
        self.comps = comps

    @property
    def is_zero(self):
        return self.comps.is_zero

    def nonzero_count(self):
        return len(self.comps.entries)

    def max_degree(self):
        return max((entry.total_degree() for entry in self.comps.entries.values()), default=0)


@dataclass(frozen=True, eq=False)
class ETensor(ComponentSummaries):
    """(q, r)-type tensor: q contravariant then r covariant slots.

    Equality and hashing are by identity; two tensors have equal components
    when ``(a - b).is_zero``.
    """

    q: int
    r: int
    dim: int
    coords: tuple
    comps: Components = field(repr=False)

    def __post_init__(self):
        expected = (self.dim,) * (self.q + self.r)
        if self.comps.shape != expected:
            raise SlotMismatch(f"components have shape {self.comps.shape}, expected {expected}")

    @classmethod
    def zeros(cls, q, r, dim, coords):
        return cls(q, r, dim, tuple(coords), Components((dim,) * (q + r), coords))

    def __add__(self, other):
        self._check_compatible(other)
        return ETensor(self.q, self.r, self.dim, self.coords, self.comps + other.comps)

    def __sub__(self, other):
        self._check_compatible(other)
        return ETensor(self.q, self.r, self.dim, self.coords, self.comps - other.comps)

    def __neg__(self):
        return ETensor(self.q, self.r, self.dim, self.coords, -self.comps)

    def scale(self, factor):
        return ETensor(self.q, self.r, self.dim, self.coords, self.comps.scale(factor))

    def _check_compatible(self, other):
        if not isinstance(other, ETensor):
            raise SlotMismatch("operand is not an ETensor")
        if (self.q, self.r, self.dim) != (other.q, other.r, other.dim):
            raise SlotMismatch(
                f"type mismatch: ({self.q},{self.r}) dim {self.dim} "
                f"vs ({other.q},{other.r}) dim {other.dim}"
            )

    def swap_slots(self, i, j):
        """Transpose two global slots (1-based); both must share variance."""
        self._check_same_variance(i, j)
        order = list(range(self.q + self.r))
        order[i - 1], order[j - 1] = j - 1, i - 1
        return ETensor(self.q, self.r, self.dim, self.coords, permute(self.comps, order))

    def _check_same_variance(self, i, j):
        total = self.q + self.r
        for slot in (i, j):
            if not 1 <= slot <= total:
                raise SlotMismatch(f"slot {slot} out of range 1..{total}")
        if (i <= self.q) != (j <= self.q):
            raise SlotMismatch(f"slots {i} and {j} differ in variance")


def is_totally_symmetric(t):
    """True iff the covariant block is invariant under every permutation."""
    if t.q != 0:
        raise SlotMismatch("total symmetry is checked on covariant slots only")
    return all(
        (t.comps - permute(t.comps, order)).is_zero
        for order in itertools.permutations(range(t.r))
    )


def is_antisymmetric_in(t, i, j):
    """True iff the tensor flips sign under transposing global slots i, j (1-based)."""
    return (t.comps + t.swap_slots(i, j).comps).is_zero


class EMetric:
    """Symmetric invertible (0, 2) tensor with its exact cached inverse."""

    def __init__(self, matrix, coords):
        coords = tuple(coords)
        if not isinstance(matrix, Components):
            matrix = object_array(matrix, coords)
        if len(matrix.shape) != 2 or matrix.shape[0] != matrix.shape[1]:
            raise SlotMismatch(f"metric must be square, got shape {matrix.shape}")
        asymmetric = [
            (min(a, b), max(a, b))
            for (a, b), value in matrix.entries.items()
            if not (value - matrix[b, a]).is_zero
        ]
        if asymmetric:
            a, b = min(asymmetric)
            raise SlotMismatch(f"metric not symmetric at ({a + 1},{b + 1})")
        adjugate, det = linalg.adj_det(matrix.tolist())
        if det.is_zero:
            raise DegenerateMetric("metric determinant is the zero scalar field")
        self.coords = coords
        self.matrix = matrix
        self.det = det
        self.inverse = object_array([[entry / det for entry in row] for row in adjugate], coords)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def lower_tensor(self):
        return ETensor(0, 2, self.dim, self.coords, self.matrix)
