"""The geometry formulas as explicit index loops, before they became contractions.

Every function keeps its earlier loop body with a scalar accumulator: the
anchor actions, the bracket and the axioms of an algebroid, the modified
bracket, covariant derivatives, torsion, curvature and the Ricci sums (the
second covariant derivative as nabla_u nabla_v w - nabla_{nabla_u v} w, the
composition of covariant derivatives of sections), the
Koszul system and its right-hand sides, the conjugate connection, the
statistical, alpha-curvature, fundamental-theorem and constant-curvature
residuals, the constant-curvature decision, the Hessian symmetry report and
the SSp3 difference.  Each one builds what it reads itself, through
``frame_apply`` below; none calls a converted kernel of the engine.
``test_geometry_oracle.py`` compares the engine against them component by
component.

The section-level evaluators (``anchor_apply``, ``bracket_eval``,
``torsion_eval``, ``curvature_eval``) have no counterpart in the engine, which
works on frames only: ``test_connection.py`` contracts the engine's frame
tensors with sections and compares them with these independent routes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from leibniz_geo.algebroid import AlgebroidReport
from leibniz_geo.connection import EConnection, difference_tensor
from leibniz_geo.errors import MissingProjector
from leibniz_geo.hessian import _default_probes
from leibniz_geo.scalar import ScalarField
from leibniz_geo.tensor import ETensor, object_array
from conftest import array_is_zero, dense, store, zeros_array


# -- the algebroid ------------------------------------------------------------


def frame_apply(A, a, f):
    """rho(X_a)(f) for a frame field (0-based index)."""
    acc = A.zero()
    for i in range(A.dim):
        acc = acc + A.anchor[a, i] * f.diff(i + 1)
    return acc


def anchor_apply(A, u, f):
    """rho(u)(f) = u^a rho^i_a d_i f."""
    acc = A.zero()
    for a in range(A.rank):
        for i in range(A.dim):
            acc = acc + u.comps[a] * A.anchor[a, i] * f.diff(i + 1)
    return acc


def coboundary(A, f):
    """(Df)_a = rho(X_a)(f) as a one-form."""
    return ETensor(0, 1, A.rank, A.coords, object_array([frame_apply(A, a, f) for a in range(A.rank)]))


def locality_hat(A):
    """Lhat^{a d}_{e c} = P^a_f L^{f d}_{e c}."""
    r = A.rank
    hat = zeros_array((r, r, r, r), A.coords)
    for a, d, e, c in itertools.product(range(r), repeat=4):
        hat[a, d, e, c] = sum(
            (A.projector[a, f] * A.locality[f, d, e, c] for f in range(r)),
            A.zero(),
        )
    return hat


def bracket_eval(A, u, v):
    """[u, v]^a = u^b v^c c^a_{bc} + rho(u)(v^a) - rho(v)(u^a) + L^{a d}_{b c} rho(X_d)(u^b) v^c."""
    r = A.rank
    out = []
    for a in range(r):
        acc = A.zero()
        for b in range(r):
            for c in range(r):
                acc = acc + u.comps[b] * v.comps[c] * A.bracket[a, b, c]
        acc = acc + anchor_apply(A, u, v.comps[a]) - anchor_apply(A, v, u.comps[a])
        for b in range(r):
            for c in range(r):
                for d in range(r):
                    acc = acc + A.locality[a, d, b, c] * frame_apply(A, d, u.comps[b]) * v.comps[c]
        out.append(acc)
    return A.vector(out)


def validate_pre_leibniz(A):
    """rho^i_a c^a_{bc} - (rho^j_b d_j rho^i_c - rho^j_c d_j rho^i_b) as an [i, b, c] array."""
    r, n = A.rank, A.dim
    res = zeros_array((n, r, r), A.coords)
    for i, b, c in itertools.product(range(n), range(r), range(r)):
        acc = A.zero()
        for a in range(r):
            acc = acc + A.anchor[a, i] * A.bracket[a, b, c]
        for j in range(n):
            acc = acc - A.anchor[b, j] * A.anchor[c, i].diff(j + 1)
            acc = acc + A.anchor[c, j] * A.anchor[b, i].diff(j + 1)
        res[i, b, c] = acc
    return res


def validate_projector(A):
    """The projector residual arrays, keyed like the entries of the engine's report."""
    r, n = A.rank, A.dim
    arrays = {}
    idem = zeros_array((r, r), A.coords)
    for a, b in itertools.product(range(r), repeat=2):
        acc = -A.projector[a, b]
        for f in range(r):
            acc = acc + A.projector[a, f] * A.projector[f, b]
        idem[a, b] = acc
    arrays["idempotent"] = idem
    hat = locality_hat(A)
    image = zeros_array((n, r, r, r), A.coords)
    for i, d, e, c in itertools.product(range(n), range(r), range(r), range(r)):
        image[i, d, e, c] = sum((A.anchor[a, i] * hat[a, d, e, c] for a in range(r)), A.zero())
    arrays["projected_locality_in_kernel"] = image
    for idx, k in enumerate(A.kernel_sections):
        fixed = zeros_array((r,), A.coords)
        for a in range(r):
            acc = -k.comps[a]
            for b in range(r):
                acc = acc + A.projector[a, b] * k.comps[b]
            fixed[a] = acc
        arrays[f"fixes_kernel_section_{idx}"] = fixed
        anchored = zeros_array((n,), A.coords)
        for i in range(n):
            anchored[i] = sum((A.anchor[a, i] * k.comps[a] for a in range(r)), A.zero())
        arrays[f"annihilates_kernel_section_{idx}"] = anchored
    return arrays


def courant_locality(A):
    """L^{a d}_{e c} = eta_{e c} eta^{d a} of a courant(n) structure."""
    r, n = A.rank, A.rank // 2
    eta = zeros_array((r, r), A.coords)
    for a in range(n):
        eta[a, n + a] = A.one()
        eta[n + a, a] = A.one()
    locality = zeros_array((r, r, r, r), A.coords)
    for a, d, e, c in itertools.product(range(r), repeat=4):
        locality[a, d, e, c] = eta[e, c] * eta[d, a]
    return locality


# -- one connection -----------------------------------------------------------


def modified_bracket_coeffs(A, conn, projected=False):
    """mb^a_{bc} = c^a_{bc} - Gamma^e_{db} L^{a d}_{e c}  (Lhat when projected)."""
    L = locality_hat(A) if projected else A.locality
    r = A.rank
    out = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        acc = A.bracket[a, b, c]
        for d in range(r):
            for e in range(r):
                acc = acc - conn.gamma[e, d, b] * L[a, d, e, c]
        out[a, b, c] = acc
    return out


def covariant_derivative_vector(A, conn, u, v):
    """(nabla_u v)^a = u^b (rho(X_b)(v^a) + Gamma^a_{bc} v^c)."""
    r = A.rank
    out = []
    for a in range(r):
        acc = A.zero()
        for b in range(r):
            term = frame_apply(A, b, v.comps[a])
            for c in range(r):
                term = term + conn.gamma[a, b, c] * v.comps[c]
            acc = acc + u.comps[b] * term
        out.append(acc)
    return A.vector(out)


def frame_covariant_derivative(A, conn, t):
    """nabla t as a (q, r+1) tensor, new covariant slot first."""
    r = A.rank
    out_shape = (r,) * (t.q + t.r + 1)
    out = zeros_array(out_shape, A.coords)
    for idx in itertools.product(range(r), repeat=t.q + t.r):
        for b in range(r):
            acc = frame_apply(A, b, t.comps[idx])
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
    return ETensor(t.q, t.r + 1, r, A.coords, store(out))


def locality_term(A, conn, u, v, L):
    """L(e^a, nabla_{X_a} u, v) on sections, for a given locality array."""
    r = A.rank
    out = []
    for a in range(r):
        acc = A.zero()
        for b, c, d in itertools.product(range(r), repeat=3):
            covu = frame_apply(A, d, u.comps[b])
            for e in range(r):
                covu = covu + conn.gamma[b, d, e] * u.comps[e]
            acc = acc + L[a, d, b, c] * covu * v.comps[c]
        out.append(acc)
    return A.vector(out)


def modified_bracket(A, conn, u, v, L):
    """[u, v] minus the locality term L(e^a, nabla_{X_a} u, v), for a given locality array."""
    return bracket_eval(A, u, v) - locality_term(A, conn, u, v, L)


def torsion_eval(A, conn, u, v):
    """Section-level torsion nabla_u v - nabla_v u - mb(u, v)."""
    return (
        covariant_derivative_vector(A, conn, u, v)
        - covariant_derivative_vector(A, conn, v, u)
        - modified_bracket(A, conn, u, v, A.locality)
    )


def curvature_eval(A, conn, u, v, w):
    """Section-level curvature nabla_u nabla_v w - nabla_v nabla_u w - nabla_{mbhat(u, v)} w."""
    first = covariant_derivative_vector(A, conn, u, covariant_derivative_vector(A, conn, v, w))
    second = covariant_derivative_vector(A, conn, v, covariant_derivative_vector(A, conn, u, w))
    bracket = modified_bracket(A, conn, u, v, locality_hat(A))
    return first - second - covariant_derivative_vector(A, conn, bracket, w)


def admissibility_residual(A, conn):
    """c^a_{bc} + c^a_{cb} - G^e_{db} L^{a d}_{e c} - G^e_{dc} L^{a d}_{e b}."""
    r = A.rank
    res = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        acc = A.bracket[a, b, c] + A.bracket[a, c, b]
        for d in range(r):
            for e in range(r):
                acc = acc - conn.gamma[e, d, b] * A.locality[a, d, e, c]
                acc = acc - conn.gamma[e, d, c] * A.locality[a, d, e, b]
        res[a, b, c] = acc
    return ETensor(1, 2, r, A.coords, store(res))


def admissibility_locality_residual(A, conn, conn_star):
    """Antisymmetry of L(e^a, Delta(X_a, u), v), required when both are admissible."""
    delta = difference_tensor(conn, conn_star)
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
    return ETensor(1, 2, r, A.coords, store(res))


def nonmetricity(A, conn, g):
    """Q_{abc} = rho(X_a)(g_{bc}) - Gamma^d_{ab} g_{dc} - Gamma^d_{ac} g_{bd}."""
    r = A.rank
    out = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        acc = frame_apply(A, a, g.matrix[b, c])
        for d in range(r):
            acc = acc - conn.gamma[d, a, b] * g.matrix[d, c]
            acc = acc - conn.gamma[d, a, c] * g.matrix[b, d]
        out[a, b, c] = acc
    return ETensor(0, 3, r, A.coords, store(out))


def hessian(A, conn, f):
    """H_{ab} = rho_a((Df)_b) - Gamma^c_{ab} (Df)_c as a (0, 2) tensor."""
    r = A.rank
    df = [frame_apply(A, b, f) for b in range(r)]
    comps = zeros_array((r, r), A.coords)
    for a, b in itertools.product(range(r), repeat=2):
        acc = frame_apply(A, a, df[b])
        for c in range(r):
            acc = acc - conn.gamma[c, a, b] * df[c]
        comps[a, b] = acc
    return ETensor(0, 2, r, A.coords, store(comps))


def torsion(A, conn, projected=False):
    """T^a_{bc} = Gamma^a_{bc} - Gamma^a_{cb} - mb^a_{bc} (mbhat when projected)."""
    mb = modified_bracket_coeffs(A, conn, projected)
    return ETensor(1, 2, A.rank, A.coords, store(dense(conn.gamma) - np.swapaxes(dense(conn.gamma), 1, 2) - mb))


def curvature(A, conn):
    """R^a_{bcd} for R(X_b, X_c) X_d; requires the locality projector."""
    if A.projector is None:
        raise MissingProjector("curvature needs a locality projector")
    mb_hat = modified_bracket_coeffs(A, conn, projected=True)
    r = A.rank
    out = zeros_array((r, r, r, r), A.coords)
    for a, b, c, d in itertools.product(range(r), repeat=4):
        acc = frame_apply(A, b, conn.gamma[a, c, d]) - frame_apply(A, c, conn.gamma[a, b, d])
        for e in range(r):
            acc = acc + conn.gamma[e, c, d] * conn.gamma[a, b, e]
            acc = acc - conn.gamma[e, b, d] * conn.gamma[a, c, e]
            acc = acc - mb_hat[e, b, c] * conn.gamma[a, e, d]
        out[a, b, c, d] = acc
    return ETensor(1, 3, r, A.coords, store(out))


def second_cov_and_ricci(A, conn, u, v, w):
    """nabla^2_{u,v} w and the Ricci-identity residual tensor."""

    def second(u, v, w):
        first = covariant_derivative_vector(A, conn, u, covariant_derivative_vector(A, conn, v, w))
        inner = covariant_derivative_vector(A, conn, u, v)
        return first - covariant_derivative_vector(A, conn, inner, w)

    second_uv, second_vu = second(u, v, w), second(v, u, w)
    R = curvature(A, conn)
    That = torsion(A, conn, projected=True)
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
    r_vec = A.vector(r_uvw)
    that_vec = A.vector(that_uv)
    correction = covariant_derivative_vector(A, conn, that_vec, w)
    residual_vec = second_uv - second_vu - r_vec + correction
    return second_uv, residual_vec


# -- Koszul systems -----------------------------------------------------------


def _koszul_rhs(A, bracket_coeffs, g, b, c, d):
    """rho terms and bracket terms of the Koszul formula at frame (b, c, d)."""
    acc = (
        frame_apply(A, b, g.matrix[c, d])
        + frame_apply(A, c, g.matrix[b, d])
        - frame_apply(A, d, g.matrix[b, c])
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
    return EConnection(A, store(gamma))


def koszul_system(A, g, *extra_rhs):
    """The r^3-by-r^3 Koszul matrix (rows of scalars) and one right-hand side per extra."""
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
    return matrix, rhs


def statistical_extras(A, S):
    """The two extra right-hand sides (C, B terms) of the statistical solve."""
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
    return extra1, extra2


# -- conjugate pairs ----------------------------------------------------------


def conjugate_connection(A, g, conn):
    """Gamma*^d_{ac} = g^{db}(rho_a(g_{bc}) - Gamma^e_{ab} g_{ec})."""
    r = A.rank
    gamma = zeros_array((r, r, r), A.coords)
    for a, c in itertools.product(range(r), repeat=2):
        for d in range(r):
            acc = A.zero()
            for b in range(r):
                inner = frame_apply(A, a, g.matrix[b, c])
                for e in range(r):
                    inner = inner - conn.gamma[e, a, b] * g.matrix[e, c]
                acc = acc + g.inverse[d, b] * inner
            gamma[d, a, c] = acc
    return EConnection(A, store(gamma))


def conjugation_residual(A, g, conn, conn_star):
    """Frame residual of the joint metric-preservation condition."""
    r = A.rank
    res = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        acc = frame_apply(A, a, g.matrix[b, c])
        for d in range(r):
            acc = acc - conn.gamma[d, a, b] * g.matrix[d, c]
            acc = acc - conn_star.gamma[d, a, c] * g.matrix[b, d]
        res[a, b, c] = acc
    return ETensor(0, 3, r, A.coords, store(res))


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
    return ETensor(1, 2, r, A.coords, store(out))


def quasi_statistical_residual(A, g, conn):
    """Q(u,v,w) - Q(v,u,w) + g(T(u,v), w)."""
    Q, T = nonmetricity(A, conn, g), torsion(A, conn)
    r = A.rank
    res = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        acc = Q.comps[a, b, c] - Q.comps[b, a, c]
        for d in range(r):
            acc = acc + T.comps[d, a, b] * g.matrix[d, c]
        res[a, b, c] = acc
    return ETensor(0, 3, r, A.coords, store(res))


def ssp3_difference(A, g, conn, conn_star):
    """Q(nabla, g) + g(Delta(nabla, nabla*)(u, v), w), the SSp3 difference residual."""
    Q, delta = nonmetricity(A, conn, g), difference_tensor(conn, conn_star)
    r = A.rank
    res = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        acc = Q.comps[a, b, c]
        for e in range(r):
            acc = acc + delta.comps[e, a, b] * g.matrix[e, c]
        res[a, b, c] = acc
    return ETensor(0, 3, r, A.coords, store(res))


def alpha_curvature_residual(A, conn, conn_star, alpha):
    """R(nabla^(a)) - (1+a)/2 R(nabla*) - (1-a)/2 R(nabla) - (1-a^2)/4 [Delta terms]."""
    alpha = Fraction(alpha)
    coords = A.coords
    s = ScalarField.constant((1 + alpha) / 2, coords)
    t = ScalarField.constant((1 - alpha) / 2, coords)
    quarter = ScalarField.constant((1 - alpha * alpha) / 4, coords)
    R_alpha = curvature(A, conn_star.scale_combination(s, conn, t))
    R, R_star = curvature(A, conn), curvature(A, conn_star)
    delta = difference_tensor(conn, conn_star)
    bracket_difference = modified_bracket_coeffs(A, conn, True) - modified_bracket_coeffs(A, conn_star, True)
    r = A.rank
    res = zeros_array((r, r, r, r), coords)
    for a, b, c, d in itertools.product(range(r), repeat=4):
        acc = R_alpha.comps[a, b, c, d]
        acc = acc - s * R_star.comps[a, b, c, d] - t * R.comps[a, b, c, d]
        inner = A.zero()
        for e in range(r):
            inner = inner + delta.comps[e, b, d] * delta.comps[a, c, e]
            inner = inner - delta.comps[e, c, d] * delta.comps[a, b, e]
            inner = inner + bracket_difference[e, b, c] * delta.comps[a, e, d]
        acc = acc - quarter * inner
        res[a, b, c, d] = acc
    return ETensor(1, 3, r, coords, store(res))


def fundamental_theorem_terms(A, g, conn, conn_star):
    """g(R(u,v)w, z) + g(R*(u,v)z, w) and the holonomy obstruction, both as arrays."""
    R, R_star = curvature(A, conn), curvature(A, conn_star)
    r = A.rank
    res = zeros_array((r, r, r, r), A.coords)
    for a, b, c, d in itertools.product(range(r), repeat=4):
        acc = A.zero()
        for e in range(r):
            acc = acc + R.comps[e, a, b, c] * g.matrix[e, d]
            acc = acc + R_star.comps[e, a, b, d] * g.matrix[e, c]
        res[a, b, c, d] = acc
    lam = modified_bracket_coeffs(A, conn_star) - modified_bracket_coeffs(A, conn)
    obs = zeros_array((r, r, r, r), A.coords)
    for a, b, c, d in itertools.product(range(r), repeat=4):
        acc = A.zero()
        for m, nn in itertools.product(range(r), repeat=2):
            acc = acc - lam[m, a, b] * conn.gamma[nn, m, c] * g.matrix[nn, d]
        obs[a, b, c, d] = acc
    return res, obs


def constant_curvature_model(A, g):
    """g_{cd} d^a_b - g_{bd} d^a_c."""
    r = A.rank
    model = zeros_array((r, r, r, r), A.coords)
    for a, b, c, d in itertools.product(range(r), repeat=4):
        acc = A.zero()
        if a == b:
            acc = acc + g.matrix[c, d]
        if a == c:
            acc = acc - g.matrix[b, d]
        model[a, b, c, d] = acc
    return model


def constant_curvature_check(A, conn, g):
    """(True, kappa) when R^a_{bcd} = kappa (g_{cd} d^a_b - g_{bd} d^a_c) exactly, else (False, None)."""
    R = curvature(A, conn)
    r = A.rank
    model = constant_curvature_model(A, g)
    if R.is_zero:
        return True, Fraction(0)
    kappa = None
    for idx in itertools.product(range(r), repeat=4):
        if not model[idx].is_zero:
            candidate = R.comps[idx] / model[idx]
            if candidate.is_constant:
                kappa = candidate.as_rational()
                break
            return False, None
    if kappa is None:
        return False, None
    kappa_field = ScalarField.constant(kappa, A.coords)
    for idx in itertools.product(range(r), repeat=4):
        if not (R.comps[idx] - kappa_field * model[idx]).is_zero:
            return False, None
    return True, kappa


def conjugate_curvature_transfer_residual(A, g, conn_star, kappa):
    """R(nabla*)^a_{bcd} - kappa (g_{cd} d^a_b - g_{bd} d^a_c)."""
    kappa_field = ScalarField.constant(Fraction(kappa), A.coords)
    R_star = curvature(A, conn_star)
    r = A.rank
    res = zeros_array((r, r, r, r), A.coords)
    for a, b, c, d in itertools.product(range(r), repeat=4):
        acc = R_star.comps[a, b, c, d]
        if a == b:
            acc = acc - kappa_field * g.matrix[c, d]
        if a == c:
            acc = acc + kappa_field * g.matrix[b, d]
        res[a, b, c, d] = acc
    return ETensor(1, 3, r, A.coords, store(res))


# -- Hessian symmetry ---------------------------------------------------------


def projected_exterior_derivative(A, conn, omega):
    """(d-hat w) from the projected modified bracket of conn."""
    mb_hat = modified_bracket_coeffs(A, conn, projected=True)
    r = A.rank
    p = omega.r
    out = zeros_array((r,) * (p + 1), A.coords)
    for idx in itertools.product(range(r), repeat=p + 1):
        acc = A.zero()
        for i in range(p + 1):
            rest = idx[:i] + idx[i + 1 :]
            sign = 1 if i % 2 == 0 else -1
            term = frame_apply(A, idx[i], omega.comps[rest] if p else omega.comps[()])
            acc = acc + term if sign > 0 else acc - term
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                rest = tuple(idx[k] for k in range(p + 1) if k not in (i, j))
                sign = 1 if (i + j) % 2 == 0 else -1
                for m in range(r):
                    term = mb_hat[m, idx[i], idx[j]] * omega.comps[(m,) + rest]
                    acc = acc + term if sign > 0 else acc - term
        out[idx] = acc
    return ETensor(0, p + 1, r, A.coords, store(out))


def anchored_projected_torsion_vanishes(A, conn):
    """rho(T-hat(X_b, X_c)) = 0 for every (b, c), as the lc1 gate tested it."""
    T_hat = torsion(A, conn, projected=True)
    in_kernel = True
    for b, c in itertools.product(range(A.rank), repeat=2):
        section = A.vector([T_hat.comps[a, b, c] for a in range(A.rank)])
        for i in range(A.dim):
            acc = sum((section.comps[a] * A.anchor[a, i] for a in range(A.rank)), A.zero())
            if not acc.is_zero:
                in_kernel = False
    return in_kernel


def anchored_projected_torsion(A, conn):
    """rho(T-hat(X_b, X_c)) as an [i, b, c] array."""
    r, n = A.rank, A.dim
    T_hat = torsion(A, conn, projected=True)
    rho_T = zeros_array((n, r, r), A.coords) if n else zeros_array((0, r, r), A.coords)
    for i in range(n):
        for b, c in itertools.product(range(r), repeat=2):
            rho_T[i, b, c] = sum(
                (A.anchor[a, i] * T_hat.comps[a, b, c] for a in range(r)), A.zero()
            )
    return rho_T


def hessian_symmetry_equivalences(A, conn, probe_functions=None):
    """The three-way Hessian symmetry report of conn."""
    report = AlgebroidReport()
    r = A.rank
    T_hat = torsion(A, conn, projected=True)
    clause1 = array_is_zero(anchored_projected_torsion(A, conn))
    clause2 = T_hat.is_zero
    report.record("clause-1-hessian-symmetric-for-all-f", "holds" if clause1 else "fails")
    report.record("clause-2-projected-torsion-free", "holds" if clause2 else "fails")

    clause3 = None
    if admissibility_residual(A, conn).is_zero:
        res3 = zeros_array((r, r, r), A.coords)
        identity3 = zeros_array((r, r, r), A.coords)
        for m in range(r):
            omega = ETensor(0, 1, r, A.coords, object_array(
                [A.one() if a == m else A.zero() for a in range(r)]
            ))
            d_omega = projected_exterior_derivative(A, conn, omega)
            nabla_omega = frame_covariant_derivative(A, conn, omega)
            for b, c in itertools.product(range(r), repeat=2):
                res3[m, b, c] = d_omega.comps[b, c] - (
                    nabla_omega.comps[b, c] - nabla_omega.comps[c, b]
                )
                identity3[m, b, c] = res3[m, b, c] - T_hat.comps[m, b, c]
        clause3 = array_is_zero(res3)
        report.record("clause-3-one-form-derivative", "holds" if clause3 else "fails")
        report.record("one-form-identity", ETensor(1, 2, r, A.coords, store(identity3)))
    else:
        report.warn("connection not admissible: the one-form clause is not applicable")

    hypothesis = clause2 or not clause1
    if hypothesis:
        agree = clause1 == clause2 and (clause3 is None or clause3 == clause2)
        report.record("three-way-agreement", agree)
    else:
        report.record("three-way-agreement", True)
        report.warn(
            "projected torsion is nonzero but its image lies in ker rho: "
            "the equivalence hypothesis fails; the Hessian is symmetric anyway"
        )

    if probe_functions is None:
        probe_functions = _default_probes(A)
    for index, f in enumerate(probe_functions):
        H = hessian(A, conn, f)
        probe = zeros_array((r, r), A.coords)
        for b, c in itertools.product(range(r), repeat=2):
            correction = sum(
                (T_hat.comps[a, b, c] * frame_apply(A, a, f) for a in range(r)),
                A.zero(),
            )
            probe[b, c] = H.comps[b, c] - H.comps[c, b] + correction
        report.record(f"probe-identity-{index}", ETensor(0, 2, r, A.coords, store(probe)))
    return report
