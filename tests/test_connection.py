"""Covariant derivatives, torsion, curvature, Koszul solving: oracle checks."""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from leibniz_geo import (
    EConnection,
    EMetric,
    ScalarField,
    courant,
    courant_pairing,
    curvature,
    levi_civita_solve,
    nonmetricity,
    second_cov_and_ricci,
    so3,
    tangent,
    torsion,
)
from leibniz_geo import connection
from leibniz_geo.checks import _probe_sections
from leibniz_geo.connection import (
    covariant_derivative_vector,
    difference_tensor,
    frame_covariant_derivative,
    modified_bracket_coeffs,
)
from leibniz_geo.model import load_model
from leibniz_geo.tensor import ETensor, object_array
from oracle_geometry import anchor_apply, curvature_eval, koszul_connection, torsion_eval
from conftest import (
    classical_christoffel,
    classical_riemann,
    conjugate_pair,
    dg_of,
    eta_compatible_connection,
    make_rng,
    random_connection,
    random_metric,
    random_polynomial,
)


def polar_metric(A):
    x1 = A.x(1)
    return EMetric([[A.one(), A.zero()], [A.zero(), x1 * x1]], A.coords)


def hyperbolic_metric(A):
    inv = A.field("1/(x2^2)")
    return EMetric([[inv, A.zero()], [A.zero(), inv]], A.coords)


def test_covariant_derivative_leibniz_in_function():
    A = tangent(2)
    rng = make_rng(21)
    conn = random_connection(A, rng, degree=1)
    u = A.vector([random_polynomial(A, rng) for _ in range(2)])
    v = A.vector([random_polynomial(A, rng) for _ in range(2)])
    f = random_polynomial(A, rng)
    lhs = covariant_derivative_vector(conn, u, v.scale(f))
    rhs = covariant_derivative_vector(conn, u, v).scale(f) + v.scale(anchor_apply(A, u, f))
    assert (lhs - rhs).is_zero
    # Tensorial in the direction argument.
    lhs2 = covariant_derivative_vector(conn, u.scale(f), v)
    rhs2 = covariant_derivative_vector(conn, u, v).scale(f)
    assert (lhs2 - rhs2).is_zero


def test_levi_civita_matches_classical_christoffel():
    A = tangent(2)
    for g in (polar_metric(A), hyperbolic_metric(A)):
        conn = levi_civita_solve(A, g)
        oracle = classical_christoffel(A, g)
        assert difference_tensor(conn, oracle).is_zero
        assert torsion(conn).is_zero
        assert nonmetricity(conn, g, dg_of(conn, g)).is_zero


def test_levi_civita_matches_koszul_on_tangent():
    A = tangent(2)
    g = polar_metric(A)
    solved = levi_civita_solve(A, g)
    direct = koszul_connection(A, A.bracket, g)
    assert difference_tensor(solved, direct).is_zero


def test_curvature_matches_classical_riemann():
    A = tangent(2)
    rng = make_rng(23)
    for _ in range(3):
        conn = random_connection(A, rng, degree=1)
        R = curvature(conn)
        oracle = classical_riemann(A, conn)
        # On the tangent builtin L = 0 and c = 0, so the modified-bracket
        # correction vanishes and the classical formula is the whole answer.
        assert (R - oracle).is_zero


def test_flat_polar_curvature_vanishes():
    A = tangent(2)
    conn = levi_civita_solve(A, polar_metric(A))
    assert curvature(conn).is_zero


def test_hyperbolic_curvature_is_constant_negative():
    A = tangent(2)
    g = hyperbolic_metric(A)
    conn = levi_civita_solve(A, g)
    R = curvature(conn)
    for a, b, c, d in itertools.product(range(2), repeat=4):
        expected = A.zero()
        if a == b:
            expected = expected - g.matrix[c, d]
        if a == c:
            expected = expected + g.matrix[b, d]
        assert (R.comps[a, b, c, d] - expected).is_zero


def test_torsion_frame_and_section_routes_agree():
    A = courant(1)
    rng = make_rng(29)
    conn = random_connection(A, rng, degree=1)
    T = torsion(conn)
    u = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
    v = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
    section_route = torsion_eval(A, conn, u, v)
    for a in range(A.rank):
        frame_route = A.zero()
        for b, c in itertools.product(range(A.rank), repeat=2):
            frame_route = frame_route + T.comps[a, b, c] * u.comps[b] * v.comps[c]
        assert (section_route.comps[a] - frame_route).is_zero


def test_nonmetricity_is_symmetric_in_last_two_slots():
    A = courant(1)
    rng = make_rng(31)
    conn = random_connection(A, rng, degree=1)
    g = random_metric(A, rng)
    Q = nonmetricity(conn, g, dg_of(conn, g))
    assert (Q - Q.swap_slots(2, 3)).is_zero


def test_frame_covariant_derivative_of_metric_is_minus_nonmetricity():
    A = tangent(2)
    rng = make_rng(37)
    conn = random_connection(A, rng, degree=1)
    g = random_metric(A, rng)
    Q = nonmetricity(conn, g, dg_of(conn, g))
    nabla_g = frame_covariant_derivative(conn, g.lower_tensor())
    assert (Q - nabla_g).is_zero


def test_ricci_identity_all_builtins():
    builtins = [tangent(2), so3(), courant(1)]
    rng = make_rng(41)
    for A in builtins:
        for _ in range(3):
            conn = random_connection(A, rng, degree=1)
            u = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
            v = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
            w = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
            _, residual = second_cov_and_ricci(conn, u, v, w)
            assert residual.is_zero


def test_ricci_residual_takes_two_frame_covariant_derivatives(monkeypatch):
    # nabla w and nabla(nabla w) serve both orders of the second derivative and
    # the torsion term.
    A = tangent(2)
    rng = make_rng(43)
    conn = random_connection(A, rng, degree=1)
    u, v, w = (A.vector([random_polynomial(A, rng) for _ in range(A.rank)]) for _ in range(3))
    calls = []
    original = connection.frame_covariant_derivative

    def counting(conn, t):
        calls.append(t)
        return original(conn, t)

    monkeypatch.setattr(connection, "frame_covariant_derivative", counting)
    second_cov_and_ricci(conn, u, v, w)
    assert len(calls) == 2


MODELS = sorted((Path(__file__).resolve().parent.parent / "models").glob("*.model"))


@pytest.mark.parametrize("path", MODELS, ids=[path.stem for path in MODELS])
def test_curvature_eval_matches_frame_curvature(path):
    doc = load_model(path)
    A = doc.algebroid
    r = A.rank
    probes = _probe_sections(A, 6, seed=17)
    for conn in doc.connections.values():
        R = curvature(conn)
        for index in range(2):
            u, v, w = probes[3 * index : 3 * index + 3]
            contracted = [
                sum(
                    (
                        R.comps[a, b, c, d] * u.comps[b] * v.comps[c] * w.comps[d]
                        for b, c, d in itertools.product(range(r), repeat=3)
                    ),
                    A.zero(),
                )
                for a in range(r)
            ]
            assert (curvature_eval(A, conn, u, v, w) - A.vector(contracted)).is_zero


def test_admissible_torsion_and_curvature_are_antisymmetric():
    A = courant(1)
    eta = courant_pairing(A)
    rng = make_rng(43)
    conn = eta_compatible_connection(A, eta, rng)
    assert conn.admissibility.is_zero
    T = torsion(conn)
    assert (T + T.swap_slots(2, 3)).is_zero
    R = curvature(conn)
    assert (R + R.swap_slots(2, 3)).is_zero


def test_non_admissible_torsion_witness():
    A = courant(1)
    rng = make_rng(47)
    conn = random_connection(A, rng, degree=1)
    assert not conn.admissibility.is_zero
    T = torsion(conn)
    assert not (T + T.swap_slots(2, 3)).is_zero


def test_projected_torsion_differs_from_torsion_off_tangent():
    A = courant(1)
    rng = make_rng(53)
    conn = random_connection(A, rng, degree=1)
    T = torsion(conn)
    T_hat = torsion(conn, projected=True)
    mb = modified_bracket_coeffs(conn)
    mb_hat = modified_bracket_coeffs(conn, projected=True)
    diff = ETensor(1, 2, A.rank, A.coords, mb_hat - mb)
    assert (T - T_hat - diff).is_zero


def test_so3_killing_style_levi_civita():
    A = so3()
    g = EMetric(
        [[A.one() if a == b else A.zero() for b in range(3)] for a in range(3)],
        A.coords,
    )
    conn = levi_civita_solve(A, g)
    half = ScalarField.constant(Fraction(1, 2), A.coords)
    # Over a point with antisymmetric constants, Gamma^a_{bc} = c^a_{bc} / 2.
    for a, b, c in itertools.product(range(3), repeat=3):
        assert (conn.gamma[a, b, c] - A.bracket[a, b, c] * half).is_zero
    assert torsion(conn).is_zero
    assert nonmetricity(conn, g, dg_of(conn, g)).is_zero


def test_connections_tensors_and_pairs_compare_by_identity():
    A = tangent(2)
    conn = EConnection.zero(A)
    zeros = ETensor.zeros(1, 2, 2, A.coords)
    assert not conn == EConnection.zero(A)
    assert not zeros == ETensor.zeros(1, 2, 2, A.coords)
    assert hash(conn) == hash(conn)
    memo = {conn: "zero"}
    assert memo[conn] == "zero" and EConnection.zero(A) not in memo
    # Values compare through the difference.
    assert difference_tensor(conn, EConnection.zero(A)).is_zero
    assert (zeros - ETensor.zeros(1, 2, 2, A.coords)).is_zero
    g = EMetric([[A.one(), A.zero()], [A.zero(), A.one()]], A.coords)
    pair = conjugate_pair(g, conn)
    assert pair == pair and {pair: 1}[pair] == 1
    # Algebroids, sections and forms too: compared by identity, not by their
    # component stores.
    assert A == A and not A == tangent(2)
    assert {A: 1}[A] == 1 and tangent(2) not in {A: 1}
    u = A.vector([1, 0])
    assert u == u and not u == A.vector([1, 0])
    assert (u - A.vector([1, 0])).is_zero
    one_form = A.coboundary(A.x(1))
    assert one_form == one_form and not one_form == A.coboundary(A.x(1))
    assert (one_form.comps - A.coboundary(A.x(1)).comps).is_zero
    two_form = ETensor(0, 2, 2, A.coords, object_array([[A.zero(), A.one()], [-A.one(), A.zero()]]))
    assert not two_form == ETensor(0, 2, 2, A.coords, two_form.comps)
    for value in (u, one_form, two_form):
        assert {value: 1}[value] == 1
