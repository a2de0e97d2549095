"""Linear connections on an algebroid and their derived tensors.

Coefficients follow gamma[a][b][c] = e^a(nabla_{X_b} X_c).  Frame-level
component formulas are used wherever the object is tensorial; section-level
evaluators are provided only for the non-tensorial operators (covariant
derivatives, second covariant derivative).  The section-level torsion,
curvature and modified brackets that cross-check tensoriality live in
``tests/oracle_geometry.py``.

Every frame contraction is one ``np.einsum`` over object arrays of
``ScalarField`` components, so the scalar's own ``+`` and ``*`` (with their
zero-operand exits) do the arithmetic.  The anchor derivatives rho(X_b)(.) of
a whole component array come from one ``Algebroid.anchor_derivative`` call,
and the Koszul system is written into diagonal views of its matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import MissingProjector, SlotMismatch
from .tensor import ComponentSummaries, ETensor, object_array, zeros_array


@dataclass(frozen=True, eq=False)
class EConnection:
    """Connection coefficient array gamma[a][b][c] = Gamma^a_{bc}.

    Equality and hashing are by identity, so a connection can key a dict;
    two connections have equal coefficients when
    ``difference_tensor(A, a, b).is_zero``.
    """

    gamma: np.ndarray = field(repr=False)

    @classmethod
    def zero(cls, A):
        return cls(zeros_array((A.rank, A.rank, A.rank), A.coords))

    @property
    def rank(self):
        return self.gamma.shape[0]

    def __add__(self, other):
        return EConnection(self.gamma + other.gamma)

    def scale_combination(self, coeff_self, other, coeff_other):
        """Affine combination coeff_self * self + coeff_other * other."""
        return EConnection(self.gamma * coeff_self + other.gamma * coeff_other)


# -- covariant derivatives ----------------------------------------------------


def covariant_derivative_vector(A, conn, u, v):
    """(nabla_u v)^a = u^b (nabla v)^a_b, with (nabla v)^a_b = rho(X_b)(v^a) + Gamma^a_{bc} v^c."""
    nabla_v = frame_covariant_derivative(A, conn, v)
    return A.vector(np.einsum("b,ab->a", u.comps, nabla_v.comps))


# Index letters of a tensor's slots; b is the new slot, e the summed one.
_SLOTS = "acdfghijklmnopqstuvwxyz"


def frame_covariant_derivative(A, conn, t):
    """nabla t as a (q, r+1) tensor, new covariant slot first.

    (nabla_{X_b} t) = rho(X_b) d t + Gamma^a_{be} t^{e...} (each upper slot)
                      - Gamma^e_{bc} t_{...e...} (each lower slot),
    one einsum per slot, its subscripts built from (q, r).
    """
    slots = _SLOTS[: t.q + t.r]
    out = slots[: t.q] + "b" + slots[t.q :]
    result = np.einsum(f"b{slots}->{out}", A.anchor_derivative(t.comps))
    for k, s in enumerate(slots):
        swapped = slots[:k] + "e" + slots[k + 1 :]
        if k < t.q:
            result = result + np.einsum(f"{s}be,{swapped}->{out}", conn.gamma, t.comps)
        else:
            result = result - np.einsum(f"eb{s},{swapped}->{out}", conn.gamma, t.comps)
    return ETensor(t.q, t.r + 1, A.rank, A.coords, result)


def second_covariant_derivative(A, conn, u, v, w):
    """nabla^2_{u,v} w = nabla_u nabla_v w - nabla_{nabla_u v} w."""
    first = covariant_derivative_vector(A, conn, u, covariant_derivative_vector(A, conn, v, w))
    inner = covariant_derivative_vector(A, conn, u, v)
    return first - covariant_derivative_vector(A, conn, inner, w)


# -- brackets built from a connection -----------------------------------------


def modified_bracket_coeffs(A, conn, projected=False):
    """Frame coefficients of the (projected) modified bracket.

    mb^a_{bc} = c^a_{bc} - Gamma^e_{db} L^{a d}_{e c}  (Lhat when projected).
    """
    L = A.locality_hat if projected else A.locality
    return A.bracket - np.einsum("edb,adec->abc", conn.gamma, L)


# -- torsion, curvature, non-metricity ----------------------------------------


def torsion(D, projected=False):
    """T^a_{bc} = Gamma^a_{bc} - Gamma^a_{cb} - mb^a_{bc} (mbhat when projected)."""
    A, gamma = D.algebroid, D.conn.gamma
    mb = D.projected_bracket if projected else D.bracket
    return ETensor(1, 2, A.rank, A.coords, gamma - np.swapaxes(gamma, 1, 2) - mb.comps)


def curvature(D):
    """R^a_{bcd} for R(X_b, X_c) X_d; requires the locality projector.

    R^a_{bcd} = rho(X_b)(G^a_{cd}) - rho(X_c)(G^a_{bd})
                + G^e_{cd} G^a_{be} - G^e_{bd} G^a_{ce} - mbhat^e_{bc} G^a_{ed}.
    """
    A, gamma = D.algebroid, D.conn.gamma
    if A.projector is None:
        raise MissingProjector("curvature needs a locality projector")
    d_gamma = A.anchor_derivative(gamma)  # [b, a, c, d] = rho(X_b)(G^a_{cd})
    out = (
        np.einsum("bacd->abcd", d_gamma)
        - np.einsum("cabd->abcd", d_gamma)
        + np.einsum("ecd,abe->abcd", gamma, gamma)
        - np.einsum("ebd,ace->abcd", gamma, gamma)
        - np.einsum("ebc,aed->abcd", D.projected_bracket.comps, gamma)
    )
    return ETensor(1, 3, A.rank, A.coords, out)


def nonmetricity(A, conn, g):
    """Q = nabla g: Q_{abc} = rho(X_a)(g_{bc}) - Gamma^d_{ab} g_{dc} - Gamma^d_{ac} g_{bd}."""
    return frame_covariant_derivative(A, conn, g.lower_tensor())


# -- the derived objects of one connection ------------------------------------


def _read_only(value):
    """Lock the component array of a kept derived object."""
    array = value.gamma if isinstance(value, EConnection) else value.comps
    array.flags.writeable = False
    return value


@dataclass(frozen=True, eq=False)
class Derived:
    """The objects derived from one connection on an algebroid.

    Each member is built on first access and kept, read-only, so every
    check or pair handed the same ``Derived`` shares it.  The modified
    brackets are the one place where the connection meets the locality;
    torsion, curvature and admissibility read them from here.  Equality and
    hashing are by identity.
    """

    algebroid: object
    conn: EConnection

    def _bracket(self, projected):
        A = self.algebroid
        coeffs = modified_bracket_coeffs(A, self.conn, projected=projected)
        return _read_only(ETensor(1, 2, A.rank, A.coords, coeffs))

    @functools.cached_property
    def bracket(self):
        """Modified bracket coefficients mb(nabla) as a (1, 2) tensor."""
        return self._bracket(projected=False)

    @functools.cached_property
    def projected_bracket(self):
        """Projected modified bracket coefficients mbhat(nabla)."""
        return self._bracket(projected=True)

    @functools.cached_property
    def torsion(self):
        return _read_only(torsion(self))

    @functools.cached_property
    def projected_torsion(self):
        return _read_only(torsion(self, projected=True))

    @functools.cached_property
    def anchored_projected_torsion(self):
        """rho(T-hat(X_b, X_c)) as coordinate components [i, b, c]; zero iff the
        image of the projected torsion lies in ker rho."""
        rho_T = np.einsum("ai,abc->ibc", self.algebroid.anchor, self.projected_torsion.comps)
        return _read_only(ComponentSummaries(rho_T))

    @functools.cached_property
    def curvature(self):
        """R(nabla); needs the locality projector."""
        return _read_only(curvature(self))

    @functools.cached_property
    def admissibility(self):
        """mb(u, v) + mb(v, u); zero iff nabla is admissible, that is, iff
        [u, v] + [v, u] = L(e^a, nabla_{X_a} u, v) + L(e^a, nabla_{X_a} v, u)."""
        mb = self.bracket
        return _read_only(mb + mb.swap_slots(2, 3))

    @functools.cached_property
    def admissible(self):
        return self.admissibility.is_zero


def second_cov_and_ricci(D, u, v, w):
    """Second covariant derivative and the Ricci-identity residual of D.conn.

    The residual
        nabla^2_{u,v} w - nabla^2_{v,u} w - R(u,v)w + nabla_{That(u,v)} w
    vanishes identically for every connection on an anchor-compatible
    structure; it is returned so callers can verify exactly that.
    """
    A, conn = D.algebroid, D.conn
    second_uv = second_covariant_derivative(A, conn, u, v, w)
    second_vu = second_covariant_derivative(A, conn, v, u, w)
    r_vec = A.vector(np.einsum("abcd,b,c,d->a", D.curvature.comps, u.comps, v.comps, w.comps))
    that_vec = A.vector(np.einsum("abc,b,c->a", D.projected_torsion.comps, u.comps, v.comps))
    correction = covariant_derivative_vector(A, conn, that_vec, w)
    return second_uv, second_uv - second_vu - r_vec + correction


# -- Koszul-type solves -------------------------------------------------------


def _koszul_form(X, g):
    """-g(X(v, w), u) - g(X(u, w), v) + g(X(u, v), w) of a (1, 2) array X, at (u, v, w) = (X_b, X_c, X_d)."""
    lowered = np.einsum("mcd,mb->bcd", X, g.matrix)  # g(X(X_c, X_d), X_b)
    return np.einsum("dbc->bcd", lowered) - lowered - np.einsum("cbd->bcd", lowered)


def levi_civita_solve(A, g):
    """Solve the self-consistent Koszul equation for the algebroid's bracket.

    The modified bracket inside the Koszul formula depends on the unknown
    connection, but only affinely, so the equation assembles into one exact
    r^3-by-r^3 linear system; rank deficiency or inconsistency is surfaced
    as NonUnique / NoSolution rather than silently resolved.
    """
    (conn,) = _solve_affine_koszul(A, g, zeros_array((A.rank,) * 3, A.coords))
    return conn


def _solve_affine_koszul(A, g, *extra_rhs):
    """Solve 2 g(nabla_u v, w) = Koszul[mb(nabla)](u, v, w) + extra(u, v, w) per extra.

    The one assembly of the Koszul system, eliminated once for all right-hand
    sides: the Levi-Civita solve passes a zero extra, the statistical solve
    its two (C, B) terms.  Returns one connection per extra.
    """
    r = A.rank
    matrix, koszul = _koszul_system(A, g)
    rhs = [(koszul + extra).reshape(r**3).tolist() for extra in extra_rhs]
    solutions = linalg.solve(matrix.reshape(r**3, r**3).tolist(), *rhs)
    return [EConnection(object_array(solution).reshape(r, r, r)) for solution in solutions]


def _koszul_system(A, g):
    """The Koszul system M Gamma = K: M with axes (b, c, d, e, p, q) for row (b, c, d)
    and unknown Gamma^e_{pq}, and K[b, c, d] from the anchor and the algebroid bracket.

    2 g(nabla_{X_b} X_c, X_d) gives 2 G^e_{bc} g_{ed}; the connection part of
    Koszul[mb(nabla)] moves left as the locality contraction
    lg[x, p, e, y] = g_{mx} L^{m p}_{e y}.  Both are written into diagonal
    views of M.
    """
    r = A.rank
    lg = np.einsum("mx,mpey->xpey", g.matrix, A.locality)
    matrix = zeros_array((r,) * 6, A.coords)
    np.einsum("bcdebc->bcde", matrix)[...] += 2 * g.matrix.T
    # - mb^m_{cd} g_{mb} gives + G^e_{pc} L^{m p}_{e d} g_{mb},
    np.einsum("bcdepc->bcdep", matrix)[...] -= np.einsum("bped->bdep", lg)[:, None]
    # - mb^m_{bd} g_{mc} + mb^m_{bc} g_{md} gives + G^e_{pb} (L^{m p}_{e d} g_{mc} - L^{m p}_{e c} g_{md}).
    np.einsum("bcdepb->bcdep", matrix)[...] -= np.einsum("cped->cdep", lg) - np.einsum("dpec->cdep", lg)
    dg = A.anchor_derivative(g.matrix)  # [b, c, d] = rho(X_b)(g_{cd})
    koszul = dg + np.einsum("cbd->bcd", dg) - np.einsum("dbc->bcd", dg) + _koszul_form(A.bracket, g)
    return matrix, koszul


def difference_tensor(A, conn, conn_prime):
    """Delta^a_{bc} = Gamma^a_{bc} - Gamma'^a_{bc} as a (1, 2) tensor."""
    if conn.gamma.shape != conn_prime.gamma.shape:
        raise SlotMismatch("connections live on different algebroids")
    return ETensor(1, 2, A.rank, A.coords, conn.gamma - conn_prime.gamma)
