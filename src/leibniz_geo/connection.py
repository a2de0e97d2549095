"""Linear connections on an algebroid and their derived tensors.

Coefficients follow gamma[a][b][c] = e^a(nabla_{X_b} X_c).  An
``EConnection`` holds its algebroid with its coefficients and keeps the
objects built from both (modified brackets, T, T-hat, R, admissibility) as
cached properties; the module functions ``modified_bracket_coeffs``,
``torsion`` and ``curvature`` build them.  Frame-level
component formulas are used throughout, the covariant derivative
(``frame_covariant_derivative``, nabla_u v being u^b (nabla v)^a_b) and the
second covariant derivative included.  The section-level covariant
derivative, torsion, curvature, modified brackets and second covariant
derivative that cross-check tensoriality live in ``tests/oracle_geometry.py``.

Every frame contraction, and every signed sum of them (torsion, curvature,
nabla t, nonmetricity, the Ricci residual, the Koszul terms), is one
``tensor.contract_sum`` call over the
sparse ``Components`` stores, which normalises each output entry once.  The
anchor derivatives rho(X_b)(.) of a whole component array come from one
``Algebroid.anchor_derivative`` call, and the Koszul system is written index
by index from the nonzero entries of the metric and locality.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import linalg
from .errors import SlotMismatch
from .tensor import (
    ComponentSummaries,
    Components,
    ETensor,
    contract,
    contract_sum,
    object_array,
    sum_terms,
)


@dataclass(frozen=True, eq=False)
class EConnection:
    """A connection on an algebroid, gamma[a][b][c] = Gamma^a_{bc}, with the
    objects derived from it and the algebroid's bracket and locality.

    Each derived object is built on first access and kept, so every check or
    pair handed the same connection shares it.  The modified brackets are the
    one place where the connection meets the locality; torsion, curvature and
    admissibility read them from here.  Equality and hashing are by identity,
    so a connection can key a dict; two connections have equal coefficients
    when ``difference_tensor(a, b).is_zero``.
    """

    algebroid: object = field(repr=False)
    gamma: Components = field(repr=False)

    @classmethod
    def zero(cls, A):
        return cls(A, Components((A.rank,) * 3, A.coords))

    def scale_combination(self, coeff_self, other, coeff_other):
        """Affine combination coeff_self * self + coeff_other * other."""
        gamma = self.gamma.scale(coeff_self) + other.gamma.scale(coeff_other)
        return EConnection(self.algebroid, gamma)

    def _bracket(self, projected):
        A = self.algebroid
        coeffs = modified_bracket_coeffs(self, projected=projected)
        return ETensor(1, 2, A.rank, A.coords, coeffs)

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
        return torsion(self)

    @functools.cached_property
    def projected_torsion(self):
        return torsion(self, projected=True)

    @functools.cached_property
    def anchored_projected_torsion(self):
        """rho(T-hat(X_b, X_c)) as coordinate components [i, b, c]; zero iff the
        image of the projected torsion lies in ker rho."""
        rho_T = contract("ai,abc->ibc", self.algebroid.anchor, self.projected_torsion.comps)
        return ComponentSummaries(rho_T)

    @functools.cached_property
    def curvature(self):
        """R(nabla); needs the locality projector."""
        return curvature(self)

    @functools.cached_property
    def admissibility(self):
        """mb(u, v) + mb(v, u); zero iff nabla is admissible, that is, iff
        [u, v] + [v, u] = L(e^a, nabla_{X_a} u, v) + L(e^a, nabla_{X_a} v, u)."""
        mb = self.bracket
        return mb + mb.swap_slots(2, 3)

    @functools.cached_property
    def admissible(self):
        return self.admissibility.is_zero


# -- covariant derivatives ----------------------------------------------------


# Index letters of a tensor's slots; b is the new slot, e the summed one.
_SLOTS = "acdfghijklmnopqstuvwxyz"


def frame_covariant_derivative(conn, t):
    """nabla t as a (q, r+1) tensor, new covariant slot first.

    (nabla_{X_b} t) = rho(X_b) d t + Gamma^a_{be} t^{e...} (each upper slot)
                      - Gamma^e_{bc} t_{...e...} (each lower slot),
    one contraction per slot, its subscripts built from (q, r).
    """
    A = conn.algebroid
    slots = _SLOTS[: t.q + t.r]
    out = slots[: t.q] + "b" + slots[t.q :]
    terms = [(1, f"b{slots}->{out}", A.anchor_derivative(t.comps))]
    for k, s in enumerate(slots):
        swapped = slots[:k] + "e" + slots[k + 1 :]
        if k < t.q:
            terms.append((1, f"{s}be,{swapped}->{out}", conn.gamma, t.comps))
        else:
            terms.append((-1, f"eb{s},{swapped}->{out}", conn.gamma, t.comps))
    return ETensor(t.q, t.r + 1, A.rank, A.coords, contract_sum(*terms))


# -- brackets built from a connection -----------------------------------------


def modified_bracket_coeffs(conn, projected=False):
    """Frame coefficients of the (projected) modified bracket.

    mb^a_{bc} = c^a_{bc} - Gamma^e_{db} L^{a d}_{e c}  (Lhat when projected).
    """
    A = conn.algebroid
    L = A.locality_hat if projected else A.locality
    return A.bracket - contract("edb,adec->abc", conn.gamma, L)


# -- torsion, curvature, non-metricity ----------------------------------------


def torsion(conn, projected=False):
    """T^a_{bc} = Gamma^a_{bc} - Gamma^a_{cb} - mb^a_{bc} (mbhat when projected)."""
    A, gamma = conn.algebroid, conn.gamma
    mb = conn.projected_bracket if projected else conn.bracket
    out = contract_sum((1, "abc->abc", gamma), (-1, "acb->abc", gamma), (-1, "abc->abc", mb.comps))
    return ETensor(1, 2, A.rank, A.coords, out)


def curvature(conn):
    """R^a_{bcd} for R(X_b, X_c) X_d; requires the locality projector.

    R^a_{bcd} = rho(X_b)(G^a_{cd}) - rho(X_c)(G^a_{bd})
                + G^e_{cd} G^a_{be} - G^e_{bd} G^a_{ce} - mbhat^e_{bc} G^a_{ed}.
    """
    mbhat = conn.projected_bracket.comps
    A, gamma = conn.algebroid, conn.gamma
    d_gamma = A.anchor_derivative(gamma)  # [b, a, c, d] = rho(X_b)(G^a_{cd})
    out = contract_sum(
        (1, "bacd->abcd", d_gamma),
        (-1, "cabd->abcd", d_gamma),
        (1, "ecd,abe->abcd", gamma, gamma),
        (-1, "ebd,ace->abcd", gamma, gamma),
        (-1, "ebc,aed->abcd", mbhat, gamma),
    )
    return ETensor(1, 3, A.rank, A.coords, out)


def nonmetricity(conn, g, dg):
    """Q = nabla g: Q_{abc} = rho(X_a)(g_{bc}) - Gamma^d_{ab} g_{dc} - Gamma^d_{ac} g_{bd},
    with dg[a, b, c] = rho(X_a)(g_{bc}) as ``conn.algebroid.anchor_derivative(g.matrix)``
    gives it, derived once by the caller for every connection it pairs with g."""
    A = conn.algebroid
    res = contract_sum(
        (1, "abc->abc", dg),
        (-1, "dab,dc->abc", conn.gamma, g.matrix),
        (-1, "dac,bd->abc", conn.gamma, g.matrix),
    )
    return ETensor(0, 3, A.rank, A.coords, res)


def second_cov_and_ricci(conn, u, v, w):
    """Second covariant derivative and the Ricci-identity residual of conn.

    The residual
        nabla^2_{u,v} w - nabla^2_{v,u} w - R(u,v)w + nabla_{That(u,v)} w
    vanishes identically for every connection on an anchor-compatible
    structure; it is returned so callers can verify exactly that.

    nabla^2_{u,v} w = nabla_u nabla_v w - nabla_{nabla_u v} w = (nabla_u (nabla w))(v)
    is tensorial in u and v, since (nabla_u S)(v) = nabla_u(S v) - S(nabla_u v).
    So two frame covariant derivatives serve both orders:
    H[a, b, c] = (nabla_{X_b} (nabla w))^a_c = (nabla^2_{X_b, X_c} w)^a gives
    nabla^2_{u,v} w = u^b v^c H[a, b, c], and the residual is one contraction sum.
    """
    A = conn.algebroid
    nabla_w = frame_covariant_derivative(conn, w).comps  # [a, b] = (nabla_{X_b} w)^a
    H = frame_covariant_derivative(conn, ETensor(1, 1, A.rank, A.coords, nabla_w)).comps
    u, v, w = u.comps, v.comps, w.comps
    second = contract("abc,b,c->a", H, u, v)
    residual = contract_sum(
        (1, "a->a", second),
        (-1, "abc,c,b->a", H, u, v),
        (-1, "abcd,b,c,d->a", conn.curvature.comps, u, v, w),
        (1, "ae,ebc,b,c->a", nabla_w, conn.projected_torsion.comps, u, v),
    )
    return tuple(ETensor(1, 0, A.rank, A.coords, comps) for comps in (second, residual))


# -- Koszul-type solves -------------------------------------------------------


def _koszul_terms(X, g):
    """The contract_sum terms of -g(X(v, w), u) - g(X(u, w), v) + g(X(u, v), w)
    for a (1, 2) array X, at (u, v, w) = (X_b, X_c, X_d)."""
    return [
        (1, "mbc,md->bcd", X, g.matrix),
        (-1, "mcd,mb->bcd", X, g.matrix),
        (-1, "mbd,mc->bcd", X, g.matrix),
    ]


def levi_civita_solve(A, g):
    """Solve the self-consistent Koszul equation for the algebroid's bracket.

    The modified bracket inside the Koszul formula depends on the unknown
    connection, but only affinely, so the equation assembles into one exact
    r^3-by-r^3 linear system; rank deficiency or inconsistency is surfaced
    as NonUnique / NoSolution rather than silently resolved.
    """
    (conn,) = _solve_affine_koszul(A, g, Components((A.rank,) * 3, A.coords))
    return conn


def _solve_affine_koszul(A, g, *extra_rhs):
    """Solve 2 g(nabla_u v, w) = Koszul[mb(nabla)](u, v, w) + extra(u, v, w) per extra.

    The one assembly of the Koszul system, solved in one call for all right-hand
    sides: the Levi-Civita solve passes a zero extra, the statistical solve
    its two (C, B) terms.  Returns one connection per extra.  The system
    becomes dense rows of scalars only here, where ``linalg.solve`` reads it.
    """
    r = A.rank
    matrix, koszul = _koszul_system(A, g)
    # Rows in the order (d, b, c): row (b, c, d) holds 2 g_dd at column (d, b, c),
    # so linalg.solve's block split finds the finest blocks.
    order = [(b * r + c) * r + d for d, b, c in itertools.product(range(r), repeat=3)]
    rows = [matrix.tolist(), *((koszul + extra).reshape((r**3,)).tolist() for extra in extra_rhs)]
    matrix, *rhs = [[entries[i] for i in order] for entries in rows]
    solutions = linalg.solve(matrix, *rhs)
    return [
        EConnection(A, object_array(solution, A.coords).reshape((r, r, r)))
        for solution in solutions
    ]


def _koszul_system(A, g):
    """The Koszul system M Gamma = K: M with row (b, c, d) and column (e, p, q),
    each triple flattened row-major, for unknown Gamma^e_{pq}, and K[b, c, d]
    from the anchor and the algebroid bracket.

    2 g(nabla_{X_b} X_c, X_d) gives 2 G^e_{bc} g_{ed}; the connection part of
    Koszul[mb(nabla)] moves left as the locality contraction
    lg[x, p, e, y] = g_{mx} L^{m p}_{e y}.  Each nonzero entry of g and of lg
    adds to the entries of M it reaches, for every value of the free index.
    """
    r = A.rank
    lg = contract("mx,mpey->xpey", g.matrix, A.locality)
    free = range(r)

    def flat(a, b, c):
        return (a * r + b) * r + c

    def terms():
        for (e, d), value in g.matrix.entries.items():
            twice = value + value
            yield from (((flat(b, c, d), flat(e, b, c)), twice) for b, c in itertools.product(free, free))
        for (x, p, e, y), value in lg.entries.items():
            # - mb^m_{cd} g_{mb} gives + G^e_{pc} L^{m p}_{e d} g_{mb},
            yield from (((flat(x, c, y), flat(e, p, c)), -value) for c in free)
            # - mb^m_{bd} g_{mc} + mb^m_{bc} g_{md} gives + G^e_{pb} (L^{m p}_{e d} g_{mc} - L^{m p}_{e c} g_{md}).
            yield from (((flat(b, x, y), flat(e, p, b)), -value) for b in free)
            yield from (((flat(b, y, x), flat(e, p, b)), value) for b in free)

    matrix = sum_terms((r**3, r**3), A.coords, terms())
    dg = A.anchor_derivative(g.matrix)  # [b, c, d] = rho(X_b)(g_{cd})
    koszul = contract_sum(
        (1, "bcd->bcd", dg),
        (1, "cbd->bcd", dg),
        (-1, "dbc->bcd", dg),
        *_koszul_terms(A.bracket, g),
    )
    return matrix, koszul


def difference_tensor(conn, conn_prime):
    """Delta^a_{bc} = Gamma^a_{bc} - Gamma'^a_{bc} as a (1, 2) tensor."""
    if conn.gamma.shape != conn_prime.gamma.shape:
        raise SlotMismatch("connections live on different algebroids")
    A = conn.algebroid
    return ETensor(1, 2, A.rank, A.coords, conn.gamma - conn_prime.gamma)
