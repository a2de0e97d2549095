"""Conjugate connection pairs, statistical structures and the alpha family.

Sign convention: the skewness tensor of a solved pair satisfies
Q(nabla, g) = -C.  The source material for this construction carries an
internal sign discrepancy between its defining equations and the properties
it asserts for their solutions; this module resolves it in favor of the
asserted properties (see the project notes), so the two solve equations read

    2 g(nabla_u v, w)  = 2 g(LC[mb(nabla)]_u v, w)  + C(u, v, w)
    2 g(nabla*_u v, w) = 2 g(LC[mb(nabla*)]_u v, w) - C(u, v, w)
                         - g(B(v,w), u) - g(B(u,w), v) + g(B(u,v), w)

where LC[mb] denotes the Koszul connection of the respective modified
bracket.  Both equations are affine in their unknown and are solved exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebroid import Residual
from .connection import (
    EConnection,
    modified_bracket_coeffs,
    curvature,
    difference_tensor,
    levi_civita_solve,
    nonmetricity,
    torsion,
    _koszul_rhs,
)
from .errors import CompatibilityFailure, InvalidStructure, MissingProjector
from .scalar import ScalarField
from .tensor import ETensor, is_antisymmetric_in, is_totally_symmetric, zeros_array


@dataclass(frozen=True)
class ConjugatePair:
    """A metric with two connections jointly preserving it."""

    algebroid: object
    g: object
    nabla: EConnection
    nabla_star: EConnection

    def __post_init__(self):
        residual = conjugation_residual(self.algebroid, self.g, self.nabla, self.nabla_star)
        if not residual.is_zero:
            raise InvalidStructure("connections are not conjugate with respect to g")


@dataclass(frozen=True)
class StatisticalStructure:
    """Metric with a totally symmetric (0,3) tensor and an antisymmetric (1,2) map."""

    g: object
    C: ETensor
    B: ETensor

    def __post_init__(self):
        if (self.C.q, self.C.r) != (0, 3):
            raise InvalidStructure("C must be a (0, 3) tensor")
        if (self.B.q, self.B.r) != (1, 2):
            raise InvalidStructure("B must be a (1, 2) tensor")
        if not is_totally_symmetric(self.C):
            raise InvalidStructure("C must be totally symmetric")
        if not is_antisymmetric_in(self.B, 2, 3):
            raise InvalidStructure("B must be antisymmetric in its covariant slots")


def conjugate_connection(A, g, conn):
    """The unique conjugate: Gamma*^d_{ac} = g^{db}(rho_a(g_{bc}) - Gamma^e_{ab} g_{ec})."""
    r = A.rank
    gamma = zeros_array((r, r, r), A.coords)
    for a, c in itertools.product(range(r), repeat=2):
        for d in range(r):
            acc = A.zero()
            for b in range(r):
                inner = A.frame_apply(a, g.matrix[b, c])
                for e in range(r):
                    inner = inner - conn.gamma[e, a, b] * g.matrix[e, c]
                acc = acc + g.inverse[d, b] * inner
            gamma[d, a, c] = acc
    return EConnection(gamma)


def conjugation_residual(A, g, conn, conn_star):
    """Frame residual of the joint metric-preservation condition."""
    r = A.rank
    res = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        acc = A.frame_apply(a, g.matrix[b, c])
        for d in range(r):
            acc = acc - conn.gamma[d, a, b] * g.matrix[d, c]
            acc = acc - conn_star.gamma[d, a, c] * g.matrix[b, d]
        res[a, b, c] = acc
    return Residual("conjugation", ETensor(0, 3, r, A.coords, res))


def mean_connection(pair):
    """Coefficient average of the pair; always metric compatible."""
    half = ScalarField.constant(Fraction(1, 2), pair.algebroid.coords)
    return pair.nabla.scale_combination(half, pair.nabla_star, half)


def alpha_connection(pair, alpha):
    """(1+alpha)/2 nabla* + (1-alpha)/2 nabla for an exact rational alpha."""
    alpha = Fraction(alpha)
    coords = pair.algebroid.coords
    s = ScalarField.constant((1 + alpha) / 2, coords)
    t = ScalarField.constant((1 - alpha) / 2, coords)
    return pair.nabla_star.scale_combination(s, pair.nabla, t)


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


def strong_conjugacy_residual(A, pair):
    """Zero iff the pair is strongly conjugate (equals its relative torsion)."""
    tensor = relative_torsion(A, pair.nabla, pair.nabla_star)
    return Residual("strong-conjugacy", tensor)


def quasi_statistical_check(A, g, conn):
    """Residual of Q(u,v,w) - Q(v,u,w) + g(T(u,v), w)."""
    Q = nonmetricity(A, conn, g)
    T = torsion(A, conn)
    r = A.rank
    res = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        acc = Q.comps[a, b, c] - Q.comps[b, a, c]
        for d in range(r):
            acc = acc + T.comps[d, a, b] * g.matrix[d, c]
        res[a, b, c] = acc
    return Residual("quasi-statistical", ETensor(0, 3, r, A.coords, res))


def conjugate_torsion_transfer_residual(A, g, conn):
    """For a quasi-statistical (g, nabla): T(nabla*) minus the bracket difference."""
    conn_star = conjugate_connection(A, g, conn)
    T_star = torsion(A, conn_star)
    mb = modified_bracket_coeffs(A, conn)
    mb_star = modified_bracket_coeffs(A, conn_star)
    r = A.rank
    res = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        res[a, b, c] = T_star.comps[a, b, c] - (mb[a, b, c] - mb_star[a, b, c])
    return Residual("conjugate-torsion-transfer", ETensor(1, 2, r, A.coords, res))


# -- statistical solve --------------------------------------------------------


def _solve_affine_koszul(A, g, extra_rhs):
    """Solve 2 g(nabla_u v, w) = Koszul[mb(nabla)](u,v,w) + extra_rhs(b,c,d).

    Identical system matrix as the Levi-Civita solve; only the right-hand
    side differs by the supplied (0,3) component array.
    """
    r = A.rank
    zero = A.zero()
    n_unknowns = r**3

    def flat(a, b, c):
        return (a * r + b) * r + c

    matrix = [[zero for _ in range(n_unknowns)] for _ in range(n_unknowns)]
    rhs = [zero for _ in range(n_unknowns)]
    two = ScalarField.constant(2, A.coords)
    for b, c, d in itertools.product(range(r), repeat=3):
        row = flat(b, c, d)
        rhs[row] = _koszul_rhs(A, A.bracket, g, b, c, d) + extra_rhs[b, c, d]
        for e in range(r):
            col = flat(e, b, c)
            matrix[row][col] = matrix[row][col] + two * g.matrix[e, d]
        for alpha, beta in itertools.product(range(r), repeat=2):
            col = flat(alpha, beta, c)
            acc = matrix[row][col]
            for m in range(r):
                acc = acc - A.locality[m, beta, alpha, d] * g.matrix[m, b]
            matrix[row][col] = acc
            col = flat(alpha, beta, b)
            acc = matrix[row][col]
            for m in range(r):
                acc = acc - A.locality[m, beta, alpha, d] * g.matrix[m, c]
                acc = acc + A.locality[m, beta, alpha, c] * g.matrix[m, d]
            matrix[row][col] = acc
    solution = linalg.solve(matrix, rhs)
    gamma = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        gamma[a, b, c] = solution[flat(a, b, c)]
    return EConnection(gamma)


def statistical_solve(A, S):
    """Solve the two implicit equations of a statistical structure exactly.

    Returns the conjugate pair; verifies afterwards that the bracket
    difference reproduces B (raising CompatibilityFailure otherwise) and that
    the solved pair is conjugate.  Postconditions Q(nabla, g) = -C,
    T(nabla) = 0 and T(nabla*) = B are left to the caller to inspect via the
    residual helpers (they hold for every successful solve).
    """
    g, C, B = S.g, S.C, S.B
    r = A.rank
    extra1 = zeros_array((r, r, r), A.coords)
    extra2 = zeros_array((r, r, r), A.coords)
    for b, c, d in itertools.product(range(r), repeat=3):
        extra1[b, c, d] = C.comps[b, c, d]
        acc = -C.comps[b, c, d]
        for m in range(r):
            acc = acc - B.comps[m, c, d] * g.matrix[m, b]
            acc = acc - B.comps[m, b, d] * g.matrix[m, c]
            acc = acc + B.comps[m, b, c] * g.matrix[m, d]
        extra2[b, c, d] = acc
    nabla = _solve_affine_koszul(A, g, extra1)
    nabla_star = _solve_affine_koszul(A, g, extra2)
    mb = modified_bracket_coeffs(A, nabla)
    mb_star = modified_bracket_coeffs(A, nabla_star)
    compat = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        compat[a, b, c] = B.comps[a, b, c] - (mb[a, b, c] - mb_star[a, b, c])
    compat_residual = Residual("bracket-compatibility", ETensor(1, 2, r, A.coords, compat))
    if not compat_residual.is_zero:
        raise CompatibilityFailure(
            "solved pair violates the bracket-difference compatibility condition",
            nabla=nabla,
            nabla_star=nabla_star,
            residual=compat_residual,
        )
    return ConjugatePair(A, g, nabla, nabla_star)


def trivial_statistical_structure(A, g):
    """C = 0, B = 0; its solve returns the Levi-Civita self-pair."""
    r = A.rank
    C = ETensor.zeros(0, 3, r, A.coords)
    B = ETensor.zeros(1, 2, r, A.coords)
    return StatisticalStructure(g, C, B)


# -- alpha-family residuals ---------------------------------------------------


def alpha_curvature_residual(A, pair, alpha):
    """Exact residual of the alpha-curvature decomposition.

    R(nabla^(a)) - (1+a)/2 R(nabla*) - (1-a)/2 R(nabla)
      - (1-a^2)/4 [Delta(v, Delta(u, w)) - Delta(u, Delta(v, w))]
      - (1-a^2)/4 Delta(bracket-difference(u, v), w),

    with Delta = Delta(nabla, nabla*) and the bracket difference taken
    between the two projected modified brackets.  Identically zero.
    """
    if A.projector is None:
        raise MissingProjector("alpha-curvature residual needs a locality projector")
    alpha = Fraction(alpha)
    coords = A.coords
    s = ScalarField.constant((1 + alpha) / 2, coords)
    t = ScalarField.constant((1 - alpha) / 2, coords)
    quarter = ScalarField.constant((1 - alpha * alpha) / 4, coords)
    nabla, nabla_star = pair.nabla, pair.nabla_star
    conn_alpha = alpha_connection(pair, alpha)
    R_alpha = curvature(A, conn_alpha)
    R = curvature(A, nabla)
    R_star = curvature(A, nabla_star)
    delta = difference_tensor(A, nabla, nabla_star)
    mb_hat = modified_bracket_coeffs(A, nabla, projected=True)
    mb_hat_star = modified_bracket_coeffs(A, nabla_star, projected=True)
    r = A.rank
    res = zeros_array((r, r, r, r), coords)
    for a, b, c, d in itertools.product(range(r), repeat=4):
        acc = R_alpha.comps[a, b, c, d]
        acc = acc - s * R_star.comps[a, b, c, d] - t * R.comps[a, b, c, d]
        inner = A.zero()
        for e in range(r):
            inner = inner + delta.comps[e, b, d] * delta.comps[a, c, e]
            inner = inner - delta.comps[e, c, d] * delta.comps[a, b, e]
            inner = inner + (mb_hat[e, b, c] - mb_hat_star[e, b, c]) * delta.comps[a, e, d]
        acc = acc - quarter * inner
        res[a, b, c, d] = acc
    return Residual(f"alpha-curvature(alpha={alpha})", ETensor(1, 3, r, coords, res))


def alpha_flat_symmetry_residual(A, pair, alpha):
    """R(nabla^(alpha)) - R(nabla^(-alpha)); zero when the pair is flat."""
    plus = curvature(A, alpha_connection(pair, alpha))
    minus = curvature(A, alpha_connection(pair, -Fraction(alpha)))
    return Residual(f"alpha-flat-symmetry(alpha={alpha})", plus - minus)


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
