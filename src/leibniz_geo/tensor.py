"""Typed (q, r) tensor algebra over the scalar field on a fixed frame.

``ETensor`` is the one component-array type: a section of the bundle is a
(1, 0) tensor, a one-form a (0, 1) tensor, a p-form an antisymmetric (0, p)
tensor, and a residual such as T, R or Q is the tensor that its identity
sets to zero.  Components are stored densely in numpy object arrays of
ScalarField; the frame rank never exceeds single digits here, so dense
storage costs little.  Every contraction is one ``np.einsum`` over these
arrays: numpy calls the scalar's own ``+`` and ``*``, so the arithmetic stays
exact and keeps its zero-operand exits.  All indices are 0-based internally;
the model-file layer converts from the 1-based convention used in the docs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DegenerateMetric, SlotMismatch
from .scalar import ScalarField


def zeros_array(shape, coords):
    arr = np.empty(shape, dtype=object)
    zero = ScalarField.constant(0, coords)
    arr[...] = zero
    return arr


def object_array(nested):
    arr = np.empty(np.shape(nested), dtype=object)
    arr[...] = nested
    return arr


def array_is_zero(arr):
    return all(entry.is_zero for entry in arr.flat)


class ComponentSummaries:
    """Zero test and residual summaries over a ``comps`` array of scalars.

    Used bare for a residual array that carries no (q, r) type, such as one
    whose axes mix frame and coordinate indices.
    """

    def __init__(self, comps):
        self.comps = comps

    @property
    def is_zero(self):
        return array_is_zero(self.comps)

    def nonzero_count(self):
        return sum(0 if entry.is_zero else 1 for entry in self.comps.flat)

    def max_degree(self):
        degrees = [entry.total_degree() for entry in self.comps.flat if not entry.is_zero]
        return max(degrees, default=0)


@dataclass(frozen=True, eq=False)
class ETensor(ComponentSummaries):
    """Dense (q, r)-type tensor: q contravariant then r covariant slots.

    Equality and hashing are by identity; two tensors have equal components
    when ``(a - b).is_zero``.
    """

    q: int
    r: int
    dim: int
    coords: tuple
    comps: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (self.dim,) * (self.q + self.r)
        if self.comps.shape != expected:
            raise SlotMismatch(f"components have shape {self.comps.shape}, expected {expected}")

    @classmethod
    def zeros(cls, q, r, dim, coords):
        return cls(q, r, dim, tuple(coords), zeros_array((dim,) * (q + r), coords))

    def __add__(self, other):
        self._check_compatible(other)
        return ETensor(self.q, self.r, self.dim, self.coords, self.comps + other.comps)

    def __sub__(self, other):
        self._check_compatible(other)
        return ETensor(self.q, self.r, self.dim, self.coords, self.comps - other.comps)

    def __neg__(self):
        return ETensor(self.q, self.r, self.dim, self.coords, -self.comps)

    def scale(self, factor):
        return ETensor(self.q, self.r, self.dim, self.coords, self.comps * factor)

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
        return ETensor(
            self.q, self.r, self.dim, self.coords, np.swapaxes(self.comps, i - 1, j - 1)
        )

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
    for perm in itertools.permutations(range(t.r)):
        permuted = np.transpose(t.comps, perm)
        if not array_is_zero(t.comps - permuted):
            return False
    return True


def is_antisymmetric_in(t, i, j):
    """True iff the tensor flips sign under transposing global slots i, j (1-based)."""
    swapped = t.swap_slots(i, j)
    return array_is_zero(t.comps + swapped.comps)


class EMetric:
    """Symmetric invertible (0, 2) tensor with its exact cached inverse."""

    def __init__(self, matrix, coords):
        matrix = object_array(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise SlotMismatch(f"metric must be square, got shape {matrix.shape}")
        r = matrix.shape[0]
        for a in range(r):
            for b in range(a + 1, r):
                if not (matrix[a, b] - matrix[b, a]).is_zero:
                    raise SlotMismatch(f"metric not symmetric at ({a + 1},{b + 1})")
        adjugate, det = linalg.adj_det(matrix)
        if det.is_zero:
            raise DegenerateMetric("metric determinant is the zero scalar field")
        self.coords = tuple(coords)
        self.matrix = matrix
        self.det = det
        self.inverse = object_array([[entry / det for entry in row] for row in adjugate])

    @property
    def dim(self):
        return self.matrix.shape[0]

    def lower_tensor(self):
        return ETensor(0, 2, self.dim, self.coords, self.matrix)
