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

A ``ConjugatePair`` keeps the objects of (g, nabla, nabla*) together.  The
frame derivatives dg[a, b, c] = rho(X_a)(g_bc) of its metric are handed to
it, so a caller that pairs one metric with several connections derives
them once; the conjugates, conjugation residuals and nonmetricities built
for the pair read them from it.  The objects of one connection (its
brackets, torsions, curvature and admissibility) are cached on that
``EConnection`` itself, so a pair, its mean and its alpha-connections read
them from the connections they hold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .connection import (
    EConnection,
    _koszul_terms,
    _solve_affine_koszul,
    difference_tensor,
    nonmetricity,
)
from .errors import CompatibilityFailure, InvalidStructure
from .scalar import ScalarField
from .tensor import ETensor, contract, contract_sum, is_antisymmetric_in, is_totally_symmetric


@dataclass(frozen=True, eq=False)
class ConjugatePair:
    """A metric with two connections jointly preserving it, and the metric's
    frame derivatives dg[a, b, c] = rho(X_a)(g_bc).

    The pair builds the objects of (g, nabla, nabla*) together once each, as
    cached properties.  The objects of one connection (nabla, nabla*, the
    mean, an alpha-connection) are that connection's own cached properties.
    Equality and hashing are by identity.
    """

    g: object
    nabla: EConnection
    nabla_star: EConnection
    dg: object = field(repr=False)
    # Filled by alpha_connection.
    _alpha_connections: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        residual = conjugation_residual(self.g, self.nabla, self.nabla_star, self.dg)
        if not residual.is_zero:
            raise InvalidStructure("connections are not conjugate with respect to g")

    @functools.cached_property
    def difference(self):
        """Delta(nabla, nabla*) = nabla - nabla*."""
        return difference_tensor(self.nabla, self.nabla_star)

    @functools.cached_property
    def nonmetricity(self):
        """Q(nabla, g)."""
        return nonmetricity(self.nabla, self.g, self.dg)

    @functools.cached_property
    def relative_torsion(self):
        """T(nabla, nabla*)."""
        return relative_torsion(self.nabla, self.nabla_star)

    @functools.cached_property
    def relative_torsion_star(self):
        """T(nabla*, nabla)."""
        return relative_torsion(self.nabla_star, self.nabla)

    @functools.cached_property
    def torsion_sum(self):
        """T(nabla) + T(nabla*)."""
        return self.nabla.torsion + self.nabla_star.torsion

    @functools.cached_property
    def bracket_difference(self):
        """mb(nabla) - mb(nabla*)."""
        return self.nabla.bracket - self.nabla_star.bracket

    @functools.cached_property
    def mean(self):
        """Coefficient average of the pair; always metric compatible."""
        half = ScalarField.constant(Fraction(1, 2), self.nabla.algebroid.coords)
        return self.nabla.scale_combination(half, self.nabla_star, half)

    @functools.cached_property
    def jointly_admissible(self):
        """Hypothesis of SSp7 and SSe8: nabla and nabla* are both admissible."""
        return self.nabla.admissible and self.nabla_star.admissible

    @functools.cached_property
    def holonomic(self):
        """Hypothesis of lp3 and lc4: both projected modified brackets vanish."""
        return self.nabla.projected_bracket.is_zero and self.nabla_star.projected_bracket.is_zero

    @functools.cached_property
    def holonomy_obstruction(self):
        """The term that obstructs the fundamental theorem off a ``holonomic`` frame.

        O_{abcd} = -g(nabla_{L(e^e, Delta(X_e, X_a), X_b)} X_c, X_d), whose
        locality term L(e^e, Delta(X_e, u), v) is mb(nabla*)(u, v) - mb(nabla)(u, v),
        so O_{abcd} = (mb(nabla) - mb(nabla*))^m_{ab} Gamma^n_{mc} g_{nd}.
        """
        A = self.nabla.algebroid
        obs = contract(
            "mab,nmc,nd->abcd", self.bracket_difference.comps, self.nabla.gamma, self.g.matrix
        )
        return ETensor(0, 4, A.rank, A.coords, obs)

    @functools.cached_property
    def strongly_conjugate_and_admissible(self):
        """Hypothesis of SSp1, SSp2 and SSp4."""
        return self.relative_torsion.is_zero and self.jointly_admissible


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


def conjugate_connection(g, conn, dg):
    """The unique conjugate: Gamma*^d_{ac} = g^{db}(rho_a(g_{bc}) - Gamma^e_{ab} g_{ec}),
    with dg[a, b, c] = rho(X_a)(g_{bc})."""
    A = conn.algebroid
    gamma_star = contract_sum(
        (1, "db,abc->dac", g.inverse, dg),
        (-1, "eab,ec,db->dac", conn.gamma, g.matrix, g.inverse),
    )
    return EConnection(A, gamma_star)


def conjugation_residual(g, conn, conn_star, dg):
    """Frame residual of the joint metric-preservation condition,
    rho(X_a)(g_bc) - g(nabla_{X_a} X_b, X_c) - g(X_b, nabla*_{X_a} X_c),
    with dg[a, b, c] = rho(X_a)(g_{bc})."""
    A = conn.algebroid
    res = contract_sum(
        (1, "abc->abc", dg),
        (-1, "dab,dc->abc", conn.gamma, g.matrix),
        (-1, "dac,bd->abc", conn_star.gamma, g.matrix),
    )
    return ETensor(0, 3, A.rank, A.coords, res)


def alpha_connection(pair, alpha):
    """s nabla* + t nabla, with (s, t) = ``alpha_weights(alpha)``, for an exact
    rational alpha.

    Built once per pair and alpha, always from this formula: at alpha = 1 and
    alpha = -1 it is never nabla* or nabla itself, so the endpoint identities
    still compare two derivations, and its cached derived objects are never
    those of nabla* or nabla.
    """
    alpha = Fraction(alpha)
    family = pair._alpha_connections
    if alpha not in family:
        s, t = (ScalarField.constant(w, pair.nabla.algebroid.coords) for w in alpha_weights(alpha))
        family[alpha] = pair.nabla_star.scale_combination(s, pair.nabla, t)
    return family[alpha]


def alpha_weights(alpha):
    """(1+alpha)/2 and (1-alpha)/2, the weights of nabla* and nabla in nabla^(alpha)."""
    alpha = Fraction(alpha)
    return (1 + alpha) / 2, (1 - alpha) / 2


def relative_torsion(conn, conn_prime):
    """T(nabla, nabla')^a_{bc} = G^a_{bc} - G'^a_{cb} - (mb + mb')^a_{bc} / 2."""
    A, half = conn.algebroid, Fraction(1, 2)
    out = contract_sum(
        (1, "abc->abc", conn.gamma),
        (-1, "acb->abc", conn_prime.gamma),
        (-half, "abc->abc", conn.bracket.comps),
        (-half, "abc->abc", conn_prime.bracket.comps),
    )
    return ETensor(1, 2, A.rank, A.coords, out)


def _quasi_statistical_residual(g, Q, T):
    """Q(u,v,w) - Q(v,u,w) + g(T(u,v), w) for given Q and T; zero on quasi-statistical data."""
    res = contract_sum(
        (1, "abc->abc", Q.comps), (-1, "bac->abc", Q.comps), (1, "dab,dc->abc", T.comps, g.matrix)
    )
    return ETensor(0, 3, Q.dim, Q.coords, res)


def _torsion_transfer_residual(pair):
    """For a quasi-statistical (g, nabla): T(nabla*) minus the bracket difference."""
    return pair.nabla_star.torsion - pair.bracket_difference


# -- statistical solve --------------------------------------------------------


def statistical_solve(A, S):
    """Solve the two implicit equations of a statistical structure exactly.

    Returns the conjugate pair; verifies afterwards that the bracket
    difference reproduces B (raising CompatibilityFailure otherwise) and that
    the solved pair is conjugate.  Postconditions Q(nabla, g) = -C,
    T(nabla) = 0 and T(nabla*) = B are left to the caller to inspect via the
    residual helpers (they hold for every successful solve).
    """
    g, C, B = S.g, S.C, S.B
    star_extra = contract_sum(*_koszul_terms(B.comps, g), (-1, "bcd->bcd", C.comps))
    nabla, nabla_star = _solve_affine_koszul(A, g, C.comps, star_extra)
    compat_residual = B - (nabla.bracket - nabla_star.bracket)
    if not compat_residual.is_zero:
        raise CompatibilityFailure(
            "solved pair violates the bracket-difference compatibility condition",
            nabla=nabla,
            nabla_star=nabla_star,
            residual=compat_residual,
        )
    return ConjugatePair(g, nabla, nabla_star, A.anchor_derivative(g.matrix))


# -- alpha-family residuals ---------------------------------------------------


def alpha_curvature_residual(pair, alpha):
    """Exact residual of the alpha-curvature decomposition.

    R(nabla^(a)) - s R(nabla*) - t R(nabla)
      - s t [Delta(v, Delta(u, w)) - Delta(u, Delta(v, w))]
      - s t Delta(bracket-difference(u, v), w),

    with (s, t) = ``alpha_weights(a)`` (so s t = (1 - a^2)/4),
    Delta = Delta(nabla, nabla*) and the bracket difference taken between the
    two projected modified brackets.  Identically zero.
    """
    nabla, star = pair.nabla, pair.nabla_star
    A = nabla.algebroid
    s, t = alpha_weights(alpha)
    quarter = s * t
    R_alpha = alpha_connection(pair, alpha).curvature
    delta = pair.difference.comps
    res = contract_sum(
        (1, "abcd->abcd", R_alpha.comps),
        (-s, "abcd->abcd", star.curvature.comps),
        (-t, "abcd->abcd", nabla.curvature.comps),
        (-quarter, "ebd,ace->abcd", delta, delta),
        (quarter, "ecd,abe->abcd", delta, delta),
        (-quarter, "ebc,aed->abcd", nabla.projected_bracket.comps, delta),
        (quarter, "ebc,aed->abcd", star.projected_bracket.comps, delta),
    )
    return ETensor(1, 3, A.rank, A.coords, res)


def alpha_flat_symmetry_residual(pair, alpha):
    """R(nabla^(alpha)) - R(nabla^(-alpha)); zero when the pair is flat."""
    plus = alpha_connection(pair, alpha).curvature
    minus = alpha_connection(pair, -Fraction(alpha)).curvature
    return plus - minus


def admissibility_locality_residual(pair):
    """Antisymmetry of lam(u, v) = L(e^a, Delta(X_a, u), v), required when both
    connections are admissible; lam = mb(nabla*) - mb(nabla) exactly."""
    lam = -pair.bracket_difference
    return lam + lam.swap_slots(2, 3)
