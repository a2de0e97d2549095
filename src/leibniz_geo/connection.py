"""Linear connections on an algebroid and their derived tensors.

Coefficients follow gamma[a][b][c] = e^a(nabla_{X_b} X_c).  Frame-level
component formulas are used wherever the object is tensorial; section-level
evaluators are provided for the non-tensorial operators (covariant
derivatives, second covariant derivative) and for tensoriality cross-checks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .algebroid import Residual
from .errors import MissingProjector, SlotMismatch
from .scalar import ScalarField
from .tensor import ETensor, EVectorField, object_array, zeros_array


@dataclass(frozen=True, eq=False)
class EConnection:
    """Connection coefficient array gamma[a][b][c] = Gamma^a_{bc}.

    Equality and hashing are by identity, so a connection can key a dict;
    two connections have equal coefficients when
    ``difference_tensor(A, a, b).is_zero``.
    """

    gamma: np.ndarray = field(repr=False)

    @classmethod
    def from_nested(cls, A, nested):
        arr = object_array([[[A.field(v) for v in row] for row in plane] for plane in nested])
        return cls(arr)

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
    """(nabla_u v)^a = u^b (rho(X_b)(v^a) + Gamma^a_{bc} v^c)."""
    r = A.rank
    out = []
    for a in range(r):
        acc = A.zero()
        for b in range(r):
            term = A.frame_apply(b, v.comps[a])
            for c in range(r):
                term = term + conn.gamma[a, b, c] * v.comps[c]
            acc = acc + u.comps[b] * term
        out.append(acc)
    return EVectorField.from_list(out)


def frame_covariant_derivative(A, conn, t):
    """nabla t as a (q, r+1) tensor, new covariant slot first.

    (nabla_{X_b} t) = rho(X_b) d t + Gamma^a_{be} t^{e...} (each upper slot)
                      - Gamma^e_{bc} t_{...e...} (each lower slot).
    """
    r = A.rank
    out_shape = (r,) * (t.q + t.r + 1)
    out = zeros_array(out_shape, A.coords)
    for idx in itertools.product(range(r), repeat=t.q + t.r):
        for b in range(r):
            acc = A.frame_apply(b, t.comps[idx])
            for slot in range(t.q):
                for e in range(r):
                    swapped = idx[:slot] + (e,) + idx[slot + 1 :]
                    acc = acc + conn.gamma[idx[slot], b, e] * t.comps[swapped]
            for slot in range(t.q, t.q + t.r):
                for e in range(r):
                    swapped = idx[:slot] + (e,) + idx[slot + 1 :]
                    acc = acc - conn.gamma[e, b, idx[slot]] * t.comps[swapped]
            pos = t.q
            out[idx[:pos] + (b,) + idx[pos:]] = acc
    return ETensor(t.q, t.r + 1, r, A.coords, out)


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
    r = A.rank
    out = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        acc = A.bracket[a, b, c]
        for d in range(r):
            for e in range(r):
                acc = acc - conn.gamma[e, d, b] * L[a, d, e, c]
        out[a, b, c] = acc
    return out


def _locality_term(A, conn, u, v, L):
    """L(e^a, nabla_{X_a} u, v) on sections, for a given locality array."""
    r = A.rank
    out = []
    for a in range(r):
        acc = A.zero()
        for b, c, d in itertools.product(range(r), repeat=3):
            covu = A.frame_apply(d, u.comps[b])
            for e in range(r):
                covu = covu + conn.gamma[b, d, e] * u.comps[e]
            acc = acc + L[a, d, b, c] * covu * v.comps[c]
        out.append(acc)
    return EVectorField.from_list(out)


def modified_bracket(A, conn, u, v):
    """[u, v] minus the locality term built from the connection."""
    return A.bracket_eval(u, v) - _locality_term(A, conn, u, v, A.locality)


def projected_modified_bracket(A, conn, u, v):
    """Projected variant: the locality term is pushed through the projector."""
    return A.bracket_eval(u, v) - _locality_term(A, conn, u, v, A.locality_hat)


# -- torsion, curvature, non-metricity ----------------------------------------


def torsion(D, projected=False):
    """T^a_{bc} = Gamma^a_{bc} - Gamma^a_{cb} - mb^a_{bc} (mbhat when projected)."""
    A, gamma = D.algebroid, D.conn.gamma
    mb = D.projected_bracket if projected else D.bracket
    return ETensor(1, 2, A.rank, A.coords, gamma - np.swapaxes(gamma, 1, 2) - mb.comps)


def torsion_eval(A, conn, u, v):
    """Section-level torsion, for tensoriality cross-checks."""
    return (
        covariant_derivative_vector(A, conn, u, v)
        - covariant_derivative_vector(A, conn, v, u)
        - modified_bracket(A, conn, u, v)
    )


def curvature(D):
    """R^a_{bcd} for R(X_b, X_c) X_d; requires the locality projector.

    R^a_{bcd} = rho(X_b)(G^a_{cd}) - rho(X_c)(G^a_{bd})
                + G^e_{cd} G^a_{be} - G^e_{bd} G^a_{ce} - mbhat^e_{bc} G^a_{ed}.
    """
    A, gamma = D.algebroid, D.conn.gamma
    if A.projector is None:
        raise MissingProjector("curvature needs a locality projector")
    mb_hat = D.projected_bracket.comps
    r = A.rank
    out = zeros_array((r, r, r, r), A.coords)
    for a, b, c, d in itertools.product(range(r), repeat=4):
        acc = A.frame_apply(b, gamma[a, c, d]) - A.frame_apply(c, gamma[a, b, d])
        for e in range(r):
            acc = acc + gamma[e, c, d] * gamma[a, b, e]
            acc = acc - gamma[e, b, d] * gamma[a, c, e]
            acc = acc - mb_hat[e, b, c] * gamma[a, e, d]
        out[a, b, c, d] = acc
    return ETensor(1, 3, r, A.coords, out)


def curvature_eval(A, conn, u, v, w):
    """Section-level curvature, for tensoriality cross-checks."""
    first = covariant_derivative_vector(A, conn, u, covariant_derivative_vector(A, conn, v, w))
    second = covariant_derivative_vector(A, conn, v, covariant_derivative_vector(A, conn, u, w))
    bracket = projected_modified_bracket(A, conn, u, v)
    third = covariant_derivative_vector(A, conn, bracket, w)
    return first - second - third


def nonmetricity(A, conn, g):
    """Q = nabla g: Q_{abc} = rho(X_a)(g_{bc}) - Gamma^d_{ab} g_{dc} - Gamma^d_{ac} g_{bd}."""
    return frame_covariant_derivative(A, conn, g.lower_tensor())


# -- the derived objects of one connection ------------------------------------


def _read_only(value):
    """Lock the component array of a kept derived object."""
    array = value.comps if isinstance(value, ETensor) else value.gamma
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
    def curvature(self):
        """R(nabla); needs the locality projector."""
        return _read_only(curvature(self))

    @functools.cached_property
    def admissibility(self):
        """mb(u, v) + mb(v, u); zero iff nabla is admissible, that is, iff
        [u, v] + [v, u] = L(e^a, nabla_{X_a} u, v) + L(e^a, nabla_{X_a} v, u)."""
        mb = self.bracket
        return Residual("admissibility", _read_only(mb + mb.swap_slots(2, 3)))

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
    R = D.curvature
    That = D.projected_torsion
    r = A.rank
    r_uvw = []
    that_uv = []
    for a in range(r):
        acc = A.zero()
        for b, c, d in itertools.product(range(r), repeat=3):
            acc = acc + R.comps[a, b, c, d] * u.comps[b] * v.comps[c] * w.comps[d]
        r_uvw.append(acc)
        tacc = A.zero()
        for b, c in itertools.product(range(r), repeat=2):
            tacc = tacc + That.comps[a, b, c] * u.comps[b] * v.comps[c]
        that_uv.append(tacc)
    r_vec = EVectorField.from_list(r_uvw)
    that_vec = EVectorField.from_list(that_uv)
    correction = covariant_derivative_vector(A, conn, that_vec, w)
    residual_vec = second_uv - second_vu - r_vec + correction
    tensor = ETensor(1, 0, r, A.coords, residual_vec.comps)
    return second_uv, Residual("ricci-identity", tensor)


# -- Koszul-type solves -------------------------------------------------------


def _koszul_rhs(A, bracket_coeffs, g, b, c, d):
    """rho terms and bracket terms of the Koszul formula at frame (b, c, d)."""
    acc = (
        A.frame_apply(b, g.matrix[c, d])
        + A.frame_apply(c, g.matrix[b, d])
        - A.frame_apply(d, g.matrix[b, c])
    )
    for m in range(A.rank):
        acc = acc - bracket_coeffs[m, c, d] * g.matrix[m, b]
        acc = acc - bracket_coeffs[m, b, d] * g.matrix[m, c]
        acc = acc + bracket_coeffs[m, b, c] * g.matrix[m, d]
    return acc


def koszul_connection(A, bracket_coeffs, g):
    """Koszul formula for a fixed (antisymmetric) bracket, solved via g^{-1}.

    2 Gamma^e_{bc} g_{ed} = rho_b(g_{cd}) + rho_c(g_{bd}) - rho_d(g_{bc})
                            - b^m_{cd} g_{mb} - b^m_{bd} g_{mc} + b^m_{bc} g_{md}.
    """
    r = A.rank
    half = ScalarField.constant(Fraction(1, 2), A.coords)
    gamma = zeros_array((r, r, r), A.coords)
    for b, c in itertools.product(range(r), repeat=2):
        rhs = [_koszul_rhs(A, bracket_coeffs, g, b, c, d) for d in range(r)]
        for a in range(r):
            acc = A.zero()
            for d in range(r):
                acc = acc + g.inverse[a, d] * rhs[d]
            gamma[a, b, c] = acc * half
    return EConnection(gamma)


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
    n_unknowns = r**3
    zero = A.zero()

    def flat(a, b, c):
        return (a * r + b) * r + c

    matrix = [[zero for _ in range(n_unknowns)] for _ in range(n_unknowns)]
    koszul = [zero for _ in range(n_unknowns)]
    two = ScalarField.constant(2, A.coords)
    for b, c, d in itertools.product(range(r), repeat=3):
        row = flat(b, c, d)
        koszul[row] = _koszul_rhs(A, A.bracket, g, b, c, d)
        for e in range(r):
            col = flat(e, b, c)
            matrix[row][col] = matrix[row][col] + two * g.matrix[e, d]
        # Gamma-dependent parts of the three modified-bracket terms, moved left:
        # - mb^m_{cd} g_{mb} gives + G^e_{pc} L^{m p}_{e d} g_{mb},
        # - mb^m_{bd} g_{mc} gives + G^e_{pb} L^{m p}_{e d} g_{mc},
        # + mb^m_{bc} g_{md} gives - G^e_{pb} L^{m p}_{e c} g_{md}.
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
    rhs = [[k + extra.flat[row] for row, k in enumerate(koszul)] for extra in extra_rhs]
    solutions = linalg.solve(matrix, *rhs)
    return [EConnection(object_array(solution).reshape(r, r, r)) for solution in solutions]


def difference_tensor(A, conn, conn_prime):
    """Delta^a_{bc} = Gamma^a_{bc} - Gamma'^a_{bc} as a (1, 2) tensor."""
    if conn.gamma.shape != conn_prime.gamma.shape:
        raise SlotMismatch("connections live on different algebroids")
    return ETensor(1, 2, A.rank, A.coords, conn.gamma - conn_prime.gamma)
