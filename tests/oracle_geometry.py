"""The geometry formulas as they stood before each contraction got one home.

Every function keeps its earlier loop body: torsion, curvature and relative
torsion build their own modified brackets, admissibility and the locality
difference contract the connection with the locality themselves, and
nonmetricity and the Hessian contract the connection with the metric or with
Df directly instead of going through the frame covariant derivative.
``test_geometry_oracle.py`` compares the engine against them component by
component.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from leibniz_geo.algebroid import Residual
from leibniz_geo.connection import difference_tensor, modified_bracket_coeffs
from leibniz_geo.errors import MissingProjector
from leibniz_geo.scalar import ScalarField
from leibniz_geo.tensor import ETensor, zeros_array


def admissibility_residual(A, conn):
    """c^a_{bc} + c^a_{cb} - G^e_{db} L^{a d}_{e c} - G^e_{dc} L^{a d}_{e b}."""
    r = A.rank
    res = A.zeros(r, r, r)
    for a, b, c in itertools.product(range(r), repeat=3):
        acc = A.bracket[a, b, c] + A.bracket[a, c, b]
        for d in range(r):
            for e in range(r):
                acc = acc - conn.gamma[e, d, b] * A.locality[a, d, e, c]
                acc = acc - conn.gamma[e, d, c] * A.locality[a, d, e, b]
        res[a, b, c] = acc
    return Residual("admissibility", ETensor(1, 2, r, A.coords, res))


def admissibility_locality_residual(A, conn, conn_star):
    """Antisymmetry of L(e^a, Delta(X_a, u), v), required when both are admissible."""
    delta = difference_tensor(A, conn, conn_star)
    r = A.rank
    lam = zeros_array((r, r, r), A.coords)
    for m, b, c in itertools.product(range(r), repeat=3):
        acc = A.zero()
        for p in range(r):
            for e in range(r):
                acc = acc + delta.comps[e, p, b] * A.locality[m, p, e, c]
        lam[m, b, c] = acc
    res = zeros_array((r, r, r), A.coords)
    for m, b, c in itertools.product(range(r), repeat=3):
        res[m, b, c] = lam[m, b, c] + lam[m, c, b]
    return Residual("locality-difference-antisymmetry", ETensor(1, 2, r, A.coords, res))


def nonmetricity(A, conn, g):
    """Q_{abc} = rho(X_a)(g_{bc}) - Gamma^d_{ab} g_{dc} - Gamma^d_{ac} g_{bd}."""
    r = A.rank
    out = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        acc = A.frame_apply(a, g.matrix[b, c])
        for d in range(r):
            acc = acc - conn.gamma[d, a, b] * g.matrix[d, c]
            acc = acc - conn.gamma[d, a, c] * g.matrix[b, d]
        out[a, b, c] = acc
    return ETensor(0, 3, r, A.coords, out)


def hessian(A, conn, f):
    """H_{ab} = rho_a((Df)_b) - Gamma^c_{ab} (Df)_c as a (0, 2) tensor."""
    r = A.rank
    df = [A.frame_apply(b, f) for b in range(r)]
    comps = zeros_array((r, r), A.coords)
    for a, b in itertools.product(range(r), repeat=2):
        acc = A.frame_apply(a, df[b])
        for c in range(r):
            acc = acc - conn.gamma[c, a, b] * df[c]
        comps[a, b] = acc
    return ETensor(0, 2, r, A.coords, comps)


def torsion(A, conn, projected=False):
    """T^a_{bc} = Gamma^a_{bc} - Gamma^a_{cb} - mb^a_{bc} (mbhat when projected)."""
    mb = modified_bracket_coeffs(A, conn, projected)
    return ETensor(1, 2, A.rank, A.coords, conn.gamma - np.swapaxes(conn.gamma, 1, 2) - mb)


def curvature(A, conn):
    """R^a_{bcd} for R(X_b, X_c) X_d; requires the locality projector."""
    if A.projector is None:
        raise MissingProjector("curvature needs a locality projector")
    mb_hat = modified_bracket_coeffs(A, conn, projected=True)
    r = A.rank
    out = zeros_array((r, r, r, r), A.coords)
    for a, b, c, d in itertools.product(range(r), repeat=4):
        acc = A.frame_apply(b, conn.gamma[a, c, d]) - A.frame_apply(c, conn.gamma[a, b, d])
        for e in range(r):
            acc = acc + conn.gamma[e, c, d] * conn.gamma[a, b, e]
            acc = acc - conn.gamma[e, b, d] * conn.gamma[a, c, e]
            acc = acc - mb_hat[e, b, c] * conn.gamma[a, e, d]
        out[a, b, c, d] = acc
    return ETensor(1, 3, r, A.coords, out)


def relative_torsion(A, conn, conn_prime):
    """T(nabla, nabla')^a_{bc} = G^a_{bc} - G'^a_{cb} - (mb + mb')^a_{bc} / 2."""
    mb = modified_bracket_coeffs(A, conn)
    mb_prime = modified_bracket_coeffs(A, conn_prime)
    half = ScalarField.constant(Fraction(1, 2), A.coords)
    r = A.rank
    out = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        out[a, b, c] = (
            conn.gamma[a, b, c]
            - conn_prime.gamma[a, c, b]
            - (mb[a, b, c] + mb_prime[a, b, c]) * half
        )
    return ETensor(1, 2, r, A.coords, out)
