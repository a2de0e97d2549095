"""Anchored bundles and bracket structures on a fixed local frame.

An ``Algebroid`` stores the structure data (anchor, bracket coefficients,
locality coefficients, optional projector and kernel sections) as component
arrays of exact scalar fields over a single chart.  The axioms are validated
as exact frame-level residuals: every axiom quantified over sections reduces
to a structure-coefficient identity because the section dependence cancels
between the two sides (the reductions are spelled out at each residual
below).  The bracket of arbitrary sections, through the two Leibniz rules,
is evaluated only as an independent cross-check, in
``tests/oracle_geometry.py``.

Index conventions (all 0-based internally, 1-based in the docs):
  anchor[a][i]        rho^i_a, action of the frame field X_a on coordinates
  bracket[a][b][c]    c^a_{bc}, with [X_b, X_c] = c^a_{bc} X_a
  locality[a][d][e][c]  L^{a d}_{e c} = e^a(L(e^d, X_e, X_c))
  projector[a][b]     P^a_b
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidStructureConstants, MissingProjector
from .expr import parse_expr
from .scalar import ScalarField
from .tensor import ComponentSummaries, Components, ETensor, contract, contract_sum, object_array


@dataclass
class AlgebroidReport:
    """Named outcomes of a validation batch.

    An entry is a residual (a ``ComponentSummaries``, judged by its zero
    test), a bool verdict, or an informational clause string.
    """

    entries: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def record(self, key, value):
        self.entries[key] = value

    def warn(self, message):
        self.warnings.append(message)

    @property
    def ok(self):
        return all(
            value.is_zero if isinstance(value, ComponentSummaries) else value
            for value in self.entries.values()
        )


@dataclass(frozen=True, eq=False)
class Algebroid:
    """Anchor, bracket and locality arrays on one chart; compares by identity."""

    coords: tuple
    rank: int
    anchor: Components = field(repr=False)
    bracket: Components = field(repr=False)
    locality: Components = field(repr=False)
    projector: Components | None = field(repr=False, default=None)
    kernel_sections: tuple = ()

    @property
    def dim(self):
        return len(self.coords)

    # -- scalar helpers -------------------------------------------------------

    def field(self, value):
        if isinstance(value, ScalarField):
            return value
        if isinstance(value, str):
            return parse_expr(value, self.coords)
        return ScalarField.constant(value, self.coords)

    def zero(self):
        return ScalarField.constant(0, self.coords)

    def one(self):
        return ScalarField.constant(1, self.coords)

    def x(self, i):
        return ScalarField.coordinate(i, self.coords)

    def vector(self, entries):
        """The section with components ``entries`` as a (1, 0) tensor."""
        comps = object_array([self.field(v) for v in entries], self.coords)
        return ETensor(1, 0, self.rank, self.coords, comps)

    # -- locality projector ---------------------------------------------------

    @functools.cached_property
    def locality_hat(self):
        """P-projected locality coefficients Lhat^{a d}_{e c} = P^a_f L^{f d}_{e c}.

        Built on first access and kept on the instance.  The one place that
        raises MissingProjector: whatever needs the projector reads this first.
        """
        if self.projector is None:
            raise MissingProjector("algebroid has no locality projector")
        return contract("af,fdec->adec", self.projector, self.locality)

    # -- basic actions --------------------------------------------------------

    def anchor_derivative(self, comps):
        """rho(X_b)(f) for every frame field X_b and every entry f of comps.

        The result has the frame axis b first, then the axes of comps (a
        single scalar field counts as a 0-d array).  Each nonzero entry is
        differentiated once per coordinate, and this is the one place where
        the coordinate axis is contracted: on a point base there is none, and
        every derivative is the zero field.
        """
        if isinstance(comps, ScalarField):
            comps = object_array(comps, self.coords)
        partials = {}
        for idx, f in comps.entries.items():
            for i in range(self.dim):
                df = f.diff(i + 1)
                if not df.is_zero:
                    partials[(i, *idx)] = df
        partials = Components((self.dim, *comps.shape), self.coords, partials)
        axes = "acdefghjklmnopqrstuvwxyz"[: len(comps.shape)]
        return contract(f"bi,i{axes}->b{axes}", self.anchor, partials)

    def coboundary(self, f):
        """(Df)_a = rho(X_a)(f) as a (0, 1) tensor."""
        return ETensor(0, 1, self.rank, self.coords, self.anchor_derivative(f))

    # -- axiom residuals ------------------------------------------------------

    def validate_pre_leibniz(self):
        """Anchor compatibility rho([u, v]) = [rho(u), rho(v)] as a frame residual.

        On frame fields both sides are C-infinity bilinear combinations of the
        same section data, so vanishing of
            rho^i_a c^a_{bc} - (rho^j_b d_j rho^i_c - rho^j_c d_j rho^i_b)
        is equivalent to the axiom: the Leibniz rules reproduce the identical
        derivative terms on both sides for non-frame sections.
        """
        d_anchor = self.anchor_derivative(self.anchor)  # [b, c, i] = rho^j_b d_j rho^i_c
        res = contract_sum(
            (1, "ai,abc->ibc", self.anchor, self.bracket),
            (-1, "bci->ibc", d_anchor),
            (1, "cbi->ibc", d_anchor),
        )
        return ComponentSummaries(res)

    def validate_projector(self):
        """Projector axioms: idempotence, image of P.L in ker rho, identity on ker."""
        image = contract("ai,adec->idec", self.anchor, self.locality_hat)
        P = self.projector
        report = AlgebroidReport()
        idem = contract_sum((1, "af,fb->ab", P, P), (-1, "ab->ab", P))
        report.record("idempotent", ComponentSummaries(idem))
        report.record("projected_locality_in_kernel", ComponentSummaries(image))

        if not self.kernel_sections:
            report.warn("no kernel sections supplied; identity-on-kernel check skipped")
        for idx, k in enumerate(self.kernel_sections):
            fixed = contract_sum((1, "ab,b->a", P, k.comps), (-1, "a->a", k.comps))
            report.record(f"fixes_kernel_section_{idx}", ComponentSummaries(fixed))
            anchored = contract("ai,a->i", self.anchor, k.comps)
            report.record(f"annihilates_kernel_section_{idx}", ComponentSummaries(anchored))
        return report


# -- built-in structures ------------------------------------------------------


def _diagonal(shape, coords, diagonal):
    """The array of the given shape with ones at (a, a) for a in ``diagonal``."""
    one = ScalarField.constant(1, coords)
    return Components(shape, coords, {(a, a): one for a in diagonal})


def _frame_sections(r, coords, frame):
    """The frame fields X_a, a in ``frame``, as (1, 0) tensors."""
    one = ScalarField.constant(1, coords)
    return tuple(ETensor(1, 0, r, coords, Components((r,), coords, {(a,): one})) for a in frame)


def tangent(n):
    """Tangent-bundle structure on a single chart of R^n, coordinates x1 .. xn."""
    coords = tuple(f"x{i + 1}" for i in range(n))
    return Algebroid(
        coords=coords,
        rank=n,
        anchor=_diagonal((n, n), coords, range(n)),
        bracket=Components((n, n, n), coords),
        locality=Components((n, n, n, n), coords),
        projector=_diagonal((n, n), coords, range(n)),
        kernel_sections=(),
    )


def lie_algebra(structure_constants):
    """Lie-algebra structure over a point: zero anchor, constant bracket.

    The constants must be antisymmetric in the lower pair; the Jacobi identity
    is not required (anchor compatibility is trivial over a point).
    """
    coords = ()
    arr = object_array(
        [
            [
                [ScalarField.constant(Fraction(v), coords) for v in row]
                for row in plane
            ]
            for plane in structure_constants
        ],
        coords,
    )
    r = arr.shape[0]
    if arr.shape != (r, r, r):
        raise InvalidStructureConstants(f"expected shape ({r},{r},{r}), got {arr.shape}")
    for a, b, c in itertools.product(range(r), repeat=3):
        if not (arr[a, b, c] + arr[a, c, b]).is_zero:
            raise InvalidStructureConstants(
                f"constants not antisymmetric at ({a + 1},{b + 1},{c + 1})"
            )
    return Algebroid(
        coords=coords,
        rank=r,
        anchor=Components((r, 0), coords),
        bracket=arr,
        locality=Components((r, r, r, r), coords),
        projector=_diagonal((r, r), coords, range(r)),
        kernel_sections=_frame_sections(r, coords, range(r)),
    )


def courant(n):
    """Split-signature Courant structure on R^n: rank 2n, Dorfman-type bracket.

    Frame order: n vector-block fields then n form-block fields.  The pairing
    eta couples the two blocks; the locality coefficients are
    L^{a d}_{e c} = eta_{e c} eta^{d a}, the projector kills the vector block,
    and the form-block frame fields span the anchor kernel.  The coordinates
    are x1 .. xn.
    """
    coords = tuple(f"x{i + 1}" for i in range(n))
    r = 2 * n
    one = ScalarField.constant(1, coords)
    pairing = {}
    for a in range(n):
        pairing[a, n + a] = pairing[n + a, a] = one
    eta = Components((r, r), coords, pairing)
    # eta is an involution, so eta^{ab} has the same components.
    return Algebroid(
        coords=coords,
        rank=r,
        anchor=_diagonal((r, n), coords, range(n)),
        bracket=Components((r, r, r), coords),
        locality=contract("ec,da->adec", eta, eta),
        projector=_diagonal((r, r), coords, range(n, r)),
        kernel_sections=_frame_sections(r, coords, range(n, r)),
    )


def courant_pairing(A):
    """The split pairing eta of a courant(n) structure as an EMetric."""
    from .tensor import EMetric

    r = A.rank
    n = r // 2
    zero = A.zero()
    one = A.one()
    eta = [[one if (b == a + n or a == b + n) else zero for b in range(r)] for a in range(r)]
    return EMetric(eta, A.coords)


def so3():
    """The rotation Lie algebra: c^a_{bc} = epsilon_{abc} over a point."""
    eps = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for a, b, c in itertools.permutations(range(3)):
        sign = 1 if (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        eps[a][b][c] = sign
    return lie_algebra(eps)


def builtin(kind, *args):
    """Constructor dispatch: kind in {'tangent', 'lie_algebra', 'courant', 'so3'}."""
    table = {"tangent": tangent, "lie_algebra": lie_algebra, "courant": courant, "so3": so3}
    if kind not in table:
        raise ValueError(f"unknown builtin kind {kind!r}")
    return table[kind](*args)
