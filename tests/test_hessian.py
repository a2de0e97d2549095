"""Hessians, the projected exterior derivative, and curvature pairing."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from leibniz_geo import (
    EConnection,
    EMetric,
    HessianStructure,
    alpha_curvature_residual,
    conjugate_curvature_transfer_residual,
    constant_curvature_check,
    courant,
    courant_pairing,
    curvature,
    fundamental_theorem_residual,
    hessian,
    hessian_structure_check,
    hessian_symmetry_equivalences,
    levi_civita_solve,
    projected_exterior_derivative,
    so3,
    tangent,
    torsion,
)
from leibniz_geo.connection import covariant_derivative_vector
from leibniz_geo.errors import MissingProjector, NotAdmissible
from leibniz_geo.hessian import function_form
from leibniz_geo.tensor import ETensor, object_array
from oracle_geometry import anchor_apply
from conftest import (
    conjugate_pair,
    eta_compatible_connection,
    make_rng,
    random_connection,
    random_metric,
    random_polynomial,
    store,
    zeros_array,
)


def flat_connection(A):
    return EConnection.zero(A)


def is_symmetric(H):
    return (H - H.swap_slots(1, 2)).is_zero


def test_hessian_matches_hand_computation():
    A = tangent(2)
    f = A.field("x1^2 + x1*x2")
    H = hessian(flat_connection(A), f)
    expected = [[2, 1], [1, 0]]
    for a, b in itertools.product(range(2), repeat=2):
        assert (H.comps[a, b] - A.field(expected[a][b])).is_zero
    assert is_symmetric(H)


def test_hessian_vanishes_when_anchor_is_zero():
    A = so3()
    rng = make_rng(61)
    conn = random_connection(A, rng, degree=0)
    f = A.one()
    assert hessian(conn, f).is_zero


def test_hessian_agrees_with_second_covariant_derivative():
    # H(f)(u, v) on frame sections equals the function part of the iterated
    # covariant derivative, computed by an independent route.
    A = tangent(2)
    rng = make_rng(67)
    conn = random_connection(A, rng, degree=1)
    f = random_polynomial(A, rng, degree=3)
    H = hessian(conn, f)
    frame = [A.vector([1, 0]), A.vector([0, 1])]
    for a, b in itertools.product(range(2), repeat=2):
        u, v = frame[a], frame[b]
        direct = anchor_apply(A, u, anchor_apply(A, v, f))
        correction = anchor_apply(A, covariant_derivative_vector(conn, u, v), f)
        assert (H.comps[a, b] - (direct - correction)).is_zero


def test_projected_exterior_derivative_of_function():
    A = tangent(2)
    f = A.field("x1*x2")
    df = projected_exterior_derivative(flat_connection(A), function_form(A, f))
    assert (df.q, df.r) == (0, 1)
    assert (df.comps[0] - A.x(2)).is_zero
    assert (df.comps[1] - A.x(1)).is_zero


def test_projected_exterior_derivative_squares_to_zero_on_functions():
    A = courant(1)
    eta = courant_pairing(A)
    rng = make_rng(71)
    conn = eta_compatible_connection(A, eta, rng)
    f = A.field("x1^3 + x1")
    df = projected_exterior_derivative(conn, function_form(A, f))
    ddf = projected_exterior_derivative(conn, df)
    assert all(ddf.comps[idx].is_zero for idx in itertools.product(range(2), repeat=2))


def test_projected_exterior_derivative_matches_classical_de_rham():
    # On the tangent builtin with the zero connection, d-hat is the usual d.
    A = tangent(2)
    x1, x2 = A.x(1), A.x(2)
    omega = ETensor(0, 1, 2, A.coords, object_array([A.zero(), x1]))  # omega = x1 dx2
    d_omega = projected_exterior_derivative(flat_connection(A), omega)
    # d(x1 dx2) = dx1 ^ dx2: components (d omega)_{12} = 1, antisymmetric.
    assert (d_omega.comps[0, 1] - A.one()).is_zero
    assert (d_omega.comps[1, 0] + A.one()).is_zero
    assert d_omega.comps[0, 0].is_zero and d_omega.comps[1, 1].is_zero


def test_projected_exterior_derivative_guards():
    A = tangent(2)
    stripped = type(A)(
        coords=A.coords,
        rank=A.rank,
        anchor=A.anchor,
        bracket=A.bracket,
        locality=A.locality,
        projector=None,
        kernel_sections=(),
    )
    with pytest.raises(MissingProjector):
        projected_exterior_derivative(flat_connection(stripped), function_form(A, A.one()))
    Cour = courant(1)
    rng = make_rng(73)
    bad = random_connection(Cour, rng, degree=1)
    assert not bad.admissibility.is_zero
    with pytest.raises(NotAdmissible):
        projected_exterior_derivative(bad, function_form(Cour, Cour.one()))


# The entry points built from the projected modified bracket, each called on
# (algebroid, connection, metric, pair).
NEEDS_PROJECTOR = {
    "locality_hat": lambda A, conn, g, pair: A.locality_hat,
    "validate_projector": lambda A, conn, g, pair: A.validate_projector(),
    "curvature": lambda A, conn, g, pair: curvature(conn),
    "projected_exterior_derivative": lambda A, conn, g, pair: projected_exterior_derivative(
        conn, function_form(A, A.one())
    ),
    "hessian_symmetry_equivalences": lambda A, conn, g, pair: hessian_symmetry_equivalences(conn),
    "hessian_structure_check": lambda A, conn, g, pair: hessian_structure_check(conn, g, A.x(1)),
    "fundamental_theorem_residual": lambda A, conn, g, pair: fundamental_theorem_residual(pair),
    "constant_curvature_check": lambda A, conn, g, pair: constant_curvature_check(conn, g),
    "alpha_curvature_residual": lambda A, conn, g, pair: alpha_curvature_residual(pair, Fraction(1, 2)),
}


@pytest.mark.parametrize("entry", sorted(NEEDS_PROJECTOR))
def test_projector_is_decided_by_locality_hat_before_admissibility(entry):
    A = dataclasses.replace(courant(1), projector=None, kernel_sections=())
    conn = random_connection(A, make_rng(73), degree=1)
    assert not conn.admissible
    g = courant_pairing(A)
    pair = conjugate_pair(g, conn)
    with pytest.raises(MissingProjector, match="^algebroid has no locality projector$"):
        NEEDS_PROJECTOR[entry](A, conn, g, pair)


def test_symmetry_equivalences_all_hold_for_flat_tangent():
    A = tangent(2)
    report = hessian_symmetry_equivalences(flat_connection(A))
    entries = dict(report.entries)
    assert entries["clause-1-hessian-symmetric-for-all-f"] == "holds"
    assert entries["clause-2-projected-torsion-free"] == "holds"
    assert entries["clause-3-one-form-derivative"] == "holds"
    assert entries["three-way-agreement"] is True
    assert report.ok


def test_symmetry_equivalences_all_fail_together():
    # A torsionful tangent connection breaks every clause at once, so the
    # equivalence still holds.
    A = tangent(2)
    raw = zeros_array((2, 2, 2), A.coords)
    raw[0, 0, 1] = A.one()
    conn = EConnection(A, store(raw))
    assert not torsion(conn, projected=True).is_zero
    report = hessian_symmetry_equivalences(conn)
    entries = dict(report.entries)
    assert entries["clause-1-hessian-symmetric-for-all-f"] == "fails"
    assert entries["clause-2-projected-torsion-free"] == "fails"
    assert entries["clause-3-one-form-derivative"] == "fails"
    assert entries["three-way-agreement"] is True
    assert report.ok


def test_symmetry_equivalences_kernel_escape():
    # With a zero anchor the Hessian is symmetric for trivial reasons even
    # though the projected torsion is nonzero: the hypothesis fails and a
    # warning is issued.
    A = so3()
    raw = zeros_array((3, 3, 3), A.coords)
    raw[0, 0, 1] = A.one()
    conn = EConnection(A, store(raw))
    assert not torsion(conn, projected=True).is_zero
    report = hessian_symmetry_equivalences(conn)
    entries = dict(report.entries)
    assert entries["clause-1-hessian-symmetric-for-all-f"] == "holds"
    assert entries["clause-2-projected-torsion-free"] == "fails"
    assert entries["three-way-agreement"] is True
    assert report.warnings
    assert report.ok


def test_probe_identities_are_exact():
    A = tangent(2)
    rng = make_rng(79)
    conn = random_connection(A, rng, degree=1)
    report = hessian_symmetry_equivalences(conn)
    probes = [
        entry
        for name, entry in dict(report.entries).items()
        if name.startswith("probe-identity")
    ]
    assert probes
    for entry in probes:
        assert entry.is_zero


def hessian_potential_data():
    A = tangent(2)
    f = A.field("x1^4 + x1^2*x2^2 + x2^4")
    conn = flat_connection(A)
    H = hessian(conn, f)
    g = EMetric([[H.comps[i, j] for j in range(2)] for i in range(2)], A.coords)
    return A, conn, g, f


def test_hessian_structure_accepts_potential():
    _, conn, g, f = hessian_potential_data()
    structure = HessianStructure(g, conn, f)
    assert structure.potential is f
    report = hessian_structure_check(conn, g, f)
    assert report.ok
    entries = dict(report.entries)
    assert entries["metric-nondegenerate"] is True
    assert entries["codazzi"].is_zero
    assert entries["statistical-invariants"] is True


def test_hessian_structure_check_is_ring_level():
    # det H = 4 x2^2 (3 x1^2 ... ) vanishes at points but not identically:
    # the check works over the fraction field, not pointwise.
    A = tangent(2)
    f = A.field("x1^4 + x2^2")
    conn = flat_connection(A)
    H = hessian(conn, f)
    g = EMetric([[H.comps[i, j] for j in range(2)] for i in range(2)], A.coords)
    report = hessian_structure_check(conn, g, f)
    assert report.ok


def test_hessian_structure_rejects_curved_connection():
    A = tangent(2)
    g_hyp = EMetric(
        [[A.field("1/(x2^2)"), A.zero()], [A.zero(), A.field("1/(x2^2)")]],
        A.coords,
    )
    conn = levi_civita_solve(A, g_hyp)
    assert not curvature(conn).is_zero
    with pytest.raises(ValueError, match="not a Hessian structure: flat fails"):
        HessianStructure(g_hyp, conn, A.field("x1^2"))
    report = hessian_structure_check(conn, g_hyp, A.field("x1^2"))
    assert not report.ok


def test_fundamental_theorem_on_holonomic_pairs():
    # On the tangent builtin every frame is holonomic for the projected
    # modified bracket (L = 0, c = 0), so the pairing identity is exact.
    A = tangent(2)
    rng = make_rng(83)
    for _ in range(5):
        g = random_metric(A, rng)
        conn = random_connection(A, rng, degree=1)
        pair = conjugate_pair(g, conn)
        assert pair.holonomic
        assert pair.nabla.projected_bracket.is_zero
        assert pair.nabla_star.projected_bracket.is_zero
        assert fundamental_theorem_residual(pair).is_zero


def test_fundamental_theorem_flags_anholonomic_frames():
    A = courant(1)
    eta = courant_pairing(A)
    rng = make_rng(89)
    conn = eta_compatible_connection(A, eta, rng)
    while conn.projected_bracket.is_zero:
        conn = eta_compatible_connection(A, eta, rng)
    # Conjugate with respect to a different metric so the pair has a nonzero
    # difference tensor and hence a visible obstruction.
    g = random_metric(A, rng, constant=True)
    pair = conjugate_pair(g, conn)
    assert not pair.holonomic
    assert not pair.nabla.projected_bracket.is_zero
    assert not pair.holonomy_obstruction.is_zero


def test_torsion_transfer_gives_symmetric_conjugate_hessian():
    # If the primal torsion matches the modified-bracket difference of the
    # pair, the conjugate connection has symmetric Hessians.
    A = tangent(2)
    rng = make_rng(97)
    g = random_metric(A, rng)
    conn = levi_civita_solve(A, g)
    pair = conjugate_pair(g, conn)
    # Torsion-free primal on a holonomic frame satisfies the transfer
    # hypothesis trivially; the conjugate equals the primal here.
    for f in [A.field("x1^3"), A.field("x1*x2 + x2^2")]:
        assert is_symmetric(hessian(pair.nabla_star, f))


def test_constant_curvature_flat_and_hyperbolic():
    A = tangent(2)
    g_polar = EMetric([[A.one(), A.zero()], [A.zero(), A.x(1) * A.x(1)]], A.coords)
    conn = levi_civita_solve(A, g_polar)
    ok, kappa = constant_curvature_check(conn, g_polar)
    assert ok and kappa == Fraction(0)

    g_hyp = EMetric(
        [[A.field("1/(x2^2)"), A.zero()], [A.zero(), A.field("1/(x2^2)")]],
        A.coords,
    )
    conn_hyp = levi_civita_solve(A, g_hyp)
    ok, kappa = constant_curvature_check(conn_hyp, g_hyp)
    assert ok and kappa == Fraction(-1)


def test_constant_curvature_rejects_generic_connection():
    A = tangent(2)
    rng = make_rng(101)
    g = random_metric(A, rng)
    conn = random_connection(A, rng, degree=1)
    ok, kappa = constant_curvature_check(conn, g)
    if ok:
        # Extremely unlikely; accept but require exact reproduction.
        assert kappa is not None
    else:
        assert kappa is None


def test_constant_curvature_transfers_to_conjugate():
    # Levi-Civita is self-conjugate, so the transfer statement is exact with
    # the same kappa.
    A = tangent(2)
    g_hyp = EMetric(
        [[A.field("1/(x2^2)"), A.zero()], [A.zero(), A.field("1/(x2^2)")]],
        A.coords,
    )
    conn = levi_civita_solve(A, g_hyp)
    pair = conjugate_pair(g_hyp, conn)
    assert pair.holonomic and fundamental_theorem_residual(pair).is_zero
    assert conjugate_curvature_transfer_residual(pair, Fraction(-1)).is_zero
