"""Differential tests: the contraction kernels against the index loops they
replaced (``oracle_geometry``).

Every frame contraction of the engine (the algebroid's anchor actions and
axioms, the modified bracket, covariant derivatives, torsion, curvature, the
Ricci sums, the Koszul system and its right-hand sides, the conjugate
connection and the pair residuals, the projected exterior derivative, the
constant-curvature decision, the Hessian symmetry report and the SSp3
difference) must print the same, component by component, as the old loop.
The inputs are the bundled documents (so3 has a point base), fixed and
hypothesis-drawn connections of tangent(2) and courant(1), and the Koszul
systems of a dense courant(2) metric and of the canonical courant(3) pairing.
"""

import contextlib
import itertools
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_geometry as old
from leibniz_geo import (
    ConjugatePair,
    EMetric,
    ScalarField,
    StatisticalStructure,
    alpha_curvature_residual,
    checks,
    conjugate_connection,
    conjugate_curvature_transfer_residual,
    conjugation_residual,
    constant_curvature_check,
    courant,
    courant_pairing,
    curvature,
    fundamental_theorem_residual,
    hessian,
    hessian_symmetry_equivalences,
    linalg,
    nonmetricity,
    projected_exterior_derivative,
    relative_torsion,
    second_cov_and_ricci,
    so3,
    statistical_solve,
    tangent,
    torsion,
)
from leibniz_geo.connection import (
    EConnection,
    _koszul_system,
    frame_covariant_derivative,
    modified_bracket_coeffs,
)
from leibniz_geo.hessian import _constant_curvature_model, _default_probes, function_form
from leibniz_geo.model import load_model
from leibniz_geo.statgeo import _quasi_statistical_residual, admissibility_locality_residual
from leibniz_geo.tensor import Components, ETensor, contract
from conftest import (
    conjugate_pair,
    dense,
    dg_of,
    make_rng,
    random_connection,
    random_metric,
    store,
    zeros_array,
)

MODELS = sorted((Path(__file__).resolve().parent.parent / "models").glob("*.model"))


def strs(value):
    """The component strings of a tensor, a section, an array or rows of scalars."""
    return [str(x) for x in array(value).flat]


def array(value):
    """A tensor's components, a store, an array or rows of scalars as a numpy array."""
    comps = getattr(value, "comps", value)
    if isinstance(comps, Components):
        return dense(comps)
    return np.asarray(comps, dtype=object)


def same(new, reference):
    """Component strings agree (the normal form is canonical)."""
    if isinstance(new, ETensor) and isinstance(reference, ETensor):
        assert (new.q, new.r) == (reference.q, reference.r)
    assert array(new).shape == array(reference).shape
    assert strs(new) == strs(reference)


def same_report(new, reference):
    assert list(new.entries) == list(reference.entries)
    assert new.warnings == reference.warnings
    for key, value in reference.entries.items():
        if isinstance(value, ETensor):
            same(new.entries[key], value)
        else:
            assert new.entries[key] == value


@contextlib.contextmanager
def replaced(owner, name, stand_in):
    original = getattr(owner, name)
    setattr(owner, name, stand_in)
    try:
        yield
    finally:
        setattr(owner, name, original)


class _Stop(Exception):
    pass


def solve_system(run):
    """The (matrix, right-hand sides) that run hands to linalg.solve, unsolved."""
    systems = []

    def record(matrix, *rhs):
        systems.append((matrix, rhs))
        raise _Stop

    with replaced(linalg, "solve", record), pytest.raises(_Stop):
        run()
    return systems[0]


def same_koszul_system(A, g):
    matrix, koszul = _koszul_system(A, g)
    old_matrix, (old_koszul,) = old.koszul_system(A, g, zeros_array((A.rank,) * 3, A.coords))
    n = A.rank**3
    same(matrix, old_matrix)
    same(koszul.reshape((n,)), old_koszul)


def same_statistical_system(A, g, rng):
    """The statistical solve's system (both right-hand sides) for drawn C and B.

    The solve hands linalg.solve the oracle's rows (b, c, d) in the order
    (d, b, c); the columns keep their order."""
    r = A.rank
    C, B = zeros_array((r, r, r), A.coords), zeros_array((r, r, r), A.coords)
    for idx in itertools.combinations_with_replacement(range(r), 3):
        value = A.field(rng.randint(-2, 2))
        for perm in itertools.permutations(idx):
            C[perm] = value
    for a, b, c in itertools.product(range(r), repeat=3):
        if b < c:
            B[a, b, c] = A.field(rng.randint(-1, 1))
            B[a, c, b] = -B[a, b, c]
    S = StatisticalStructure(g, ETensor(0, 3, r, A.coords, store(C)), ETensor(1, 2, r, A.coords, store(B)))
    matrix, rhs = solve_system(lambda: statistical_solve(A, S))
    old_matrix, old_rhs = old.koszul_system(A, g, *old.statistical_extras(A, S))
    order = [(b * r + c) * r + d for d, b, c in itertools.product(range(r), repeat=3)]
    same(matrix, [old_matrix[i] for i in order])
    assert [strs(b) for b in rhs] == [strs([b[i] for i in order]) for b in old_rhs]


def ssp3_difference(A, g, conn):
    """The SSp3 :difference residual of (g, conn), read off its record."""
    doc = SimpleNamespace(algebroid=A, metrics={"g": g}, connections={"c": conn})
    records = {result.check: result for result in checks.check_ssp3(checks._Context(doc))}
    return records["SSp3[g:c]:difference"].residual


def compare_algebroid(A, functions, sections):
    same(A.validate_pre_leibniz(), old.validate_pre_leibniz(A))
    if A.projector is not None:
        same(A.locality_hat, old.locality_hat(A))
        report, arrays = A.validate_projector(), old.validate_projector(A)
        assert list(report.entries) == list(arrays)
        for key, array in arrays.items():
            same(report.entries[key], array)
    for f in functions:
        same(A.coboundary(f), old.coboundary(A, f))


def forms(A, functions, sections):
    """Forms of degree 0, 1 and 2 from the probe functions and sections."""
    u, v = dense(sections[0].comps), dense(sections[1].comps)
    two_form = np.multiply.outer(u, v) - np.multiply.outer(v, u)
    return [function_form(A, f) for f in functions[:2]] + [
        ETensor(0, 1, A.rank, A.coords, store(u)), ETensor(0, 2, A.rank, A.coords, store(two_form))
    ]


def compare_connection(A, conn, metrics, functions, sections):
    admissibility = old.admissibility_residual(A, conn)
    same(conn.admissibility, admissibility)
    assert conn.admissible == admissibility.is_zero
    same(modified_bracket_coeffs(conn), old.modified_bracket_coeffs(A, conn))
    same(torsion(conn), old.torsion(A, conn))
    same(frame_covariant_derivative(conn, conn.torsion), old.frame_covariant_derivative(A, conn, conn.torsion))
    for g in metrics:
        same(nonmetricity(conn, g, dg_of(conn, g)), old.nonmetricity(A, conn, g))
        inverse = ETensor(2, 0, A.rank, A.coords, g.inverse)
        same(frame_covariant_derivative(conn, inverse), old.frame_covariant_derivative(A, conn, inverse))
    for f in functions:
        same(hessian(conn, f), old.hessian(A, conn, f))
    for u, v in zip(sections, sections[1:]):
        nabla_u_v = contract("b,ab->a", u.comps, frame_covariant_derivative(conn, v).comps)
        same(ETensor(1, 0, A.rank, A.coords, nabla_u_v), old.covariant_derivative_vector(A, conn, u, v))
    if A.projector is None:
        return
    same(modified_bracket_coeffs(conn, projected=True), old.modified_bracket_coeffs(A, conn, True))
    same(torsion(conn, projected=True), old.torsion(A, conn, projected=True))
    same(curvature(conn), old.curvature(A, conn))
    same(conn.anchored_projected_torsion, old.anchored_projected_torsion(A, conn))
    assert conn.anchored_projected_torsion.is_zero == old.anchored_projected_torsion_vanishes(A, conn)
    same_report(hessian_symmetry_equivalences(conn), old.hessian_symmetry_equivalences(A, conn))
    if conn.admissible:
        for g in metrics:
            assert constant_curvature_check(conn, g) == old.constant_curvature_check(A, conn, g)
        for omega in forms(A, functions, sections):
            same(projected_exterior_derivative(conn, omega), old.projected_exterior_derivative(A, conn, omega))
    for u, v, w in zip(sections, sections[1:], sections[2:]):
        second, residual = second_cov_and_ricci(conn, u, v, w)
        old_second, old_residual = old.second_cov_and_ricci(A, conn, u, v, w)
        same(second, old_second)
        same(residual, old_residual)


def compare_pair(A, g, conn):
    dg = dg_of(conn, g)
    star = conjugate_connection(g, conn, dg)
    same(star.gamma, old.conjugate_connection(A, g, conn).gamma)
    for first, second in ((conn, star), (conn, conn), (star, conn)):
        same(conjugation_residual(g, first, second, dg), old.conjugation_residual(A, g, first, second))
    quasi_statistical = _quasi_statistical_residual(g, nonmetricity(conn, g, dg), conn.torsion)
    same(quasi_statistical, old.quasi_statistical_residual(A, g, conn))
    same(ssp3_difference(A, g, conn), old.ssp3_difference(A, g, conn, star))
    same(relative_torsion(conn, star), old.relative_torsion(A, conn, star))
    same(relative_torsion(star, conn), old.relative_torsion(A, star, conn))
    pair = ConjugatePair(g, conn, star, dg)
    same(admissibility_locality_residual(pair), old.admissibility_locality_residual(A, conn, star))
    if A.projector is None:
        return
    res, obs = old.fundamental_theorem_terms(A, g, conn, star)
    same(fundamental_theorem_residual(pair), res)
    same(pair.holonomy_obstruction, obs)
    alpha = Fraction(1, 2)
    same(alpha_curvature_residual(pair, alpha), old.alpha_curvature_residual(A, conn, star, alpha))
    same(
        conjugate_curvature_transfer_residual(pair, Fraction(1, 3)),
        old.conjugate_curvature_transfer_residual(A, g, star, Fraction(1, 3)),
    )
    same(_constant_curvature_model(A, g), old.constant_curvature_model(A, g))


def compare(A, metrics, connections, functions, sections):
    """Every converted kernel on each connection, its conjugates and their pairs."""
    compare_algebroid(A, functions, sections)
    # The conjugates are the other inputs of every check, and the only drawn
    # connections whose entries are rational functions.
    stars = [conjugate_connection(g, conn, dg_of(conn, g)) for g in metrics for conn in connections]
    for conn in list(connections) + stars:
        compare_connection(A, conn, metrics, functions, sections)
    for conn in connections:
        for g in metrics:
            compare_pair(A, g, conn)
    for g in metrics:
        same_koszul_system(A, g)


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_bundled_documents_match_the_old_formulas(path):
    doc = load_model(path)
    A = doc.algebroid
    functions = list(doc.functions.values()) + _default_probes(A)[:3]
    sections = checks._probe_sections(A, 3, seed=7)
    metrics, connections = list(doc.metrics.values()), list(doc.connections.values())
    compare(A, metrics, connections, functions, sections)


DRAWN = [tangent(2), courant(1)]


@pytest.mark.parametrize("A, nonzero", zip(DRAWN, [False, True]), ids=["tangent2", "courant1"])
def test_fixed_draws_with_nonzero_residuals_match(A, nonzero):
    rng = make_rng(509)
    connections = [random_connection(A, rng, degree=1) for _ in range(3)]
    metric = random_metric(A, rng)
    if nonzero:
        # The comparison must see nonzero admissibility and SSe8 residuals.
        pair = conjugate_pair(metric, connections[0])
        assert not pair.nabla.admissibility.is_zero
        assert not admissibility_locality_residual(pair).is_zero
    sections = checks._probe_sections(A, 3, seed=5)
    compare(A, [metric], connections, [A.x(1) * A.x(1) + A.x(1)], sections)
    same_statistical_system(A, metric, rng)


def drawn_connections(A):
    """Connections whose coefficients are affine in the coordinates."""
    r = A.rank
    affine = st.tuples(*[st.integers(-2, 2) for _ in range(A.dim + 1)])

    def build(rows):
        gamma = zeros_array((r, r, r), A.coords)
        for idx, coeffs in zip(itertools.product(range(r), repeat=3), rows):
            value = A.field(coeffs[0])
            for i, c in enumerate(coeffs[1:]):
                value = value + A.field(c) * A.x(i + 1)
            gamma[idx] = value
        return EConnection(A, store(gamma))

    return st.lists(affine, min_size=r**3, max_size=r**3).map(build)


@pytest.mark.parametrize("A", DRAWN, ids=["tangent2", "courant1"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_drawn_connections_match_the_old_formulas(A, data):
    conn = data.draw(drawn_connections(A))
    rng = make_rng(data.draw(st.integers(0, 2**16)))
    metric = random_metric(A, rng)
    f = A.x(1) * A.x(1) * A.x(A.dim) + A.field(data.draw(st.integers(-2, 2))) * A.x(1)
    sections = checks._probe_sections(A, 3, seed=rng.randint(0, 99))
    compare(A, [metric], [conn], [f], sections)
    same_statistical_system(A, metric, rng)


def test_courant_locality_matches_the_old_loop():
    for n in (1, 2):
        A = courant(n)
        same(A.locality, old.courant_locality(A))


def test_koszul_system_of_a_dense_courant2_metric_matches():
    A = courant(2)
    dense = [["2 + x1", 1, -1, 3], [1, -3, 2, "x2"], [-1, 2, 1, -2], [3, "x2", -2, 2]]
    same_koszul_system(A, EMetric([[A.field(v) for v in row] for row in dense], A.coords))


def test_koszul_system_of_canonical_courant3_matches():
    A = courant(3)
    same_koszul_system(A, courant_pairing(A))


def test_point_base_entries_are_scalar_fields():
    # A sum over the empty coordinate axis of so3 must still read as zero fields.
    A = so3()
    rng = make_rng(3)
    conn = random_connection(A, rng)
    g = random_metric(A, rng)
    arrays = [
        conn.curvature.comps,
        hessian(conn, A.field(2)).comps,
        conjugate_connection(g, conn, dg_of(conn, g)).gamma,
        A.anchor_derivative(g.matrix),
        A.coboundary(A.one()).comps,
        projected_exterior_derivative(conn, function_form(A, A.field(2))).comps,
    ]
    for comps in arrays:
        entries = dense(comps)
        assert entries.size and all(isinstance(x, ScalarField) for x in entries.flat)


def test_constant_curvature_rejects_a_kappa_that_holds_only_at_the_first_entry():
    # Gamma^1_{22} = x1 on the flat metric of tangent(2) (1-based indices):
    # R^1_{122} = 1 is kappa = 1 times the first nonzero model entry, but
    # R^2_{121} = 0 where kappa times the model is -1.
    A = tangent(2)
    g = EMetric([[A.one(), A.zero()], [A.zero(), A.one()]], A.coords)
    gamma = zeros_array((2, 2, 2), A.coords)
    gamma[0, 1, 1] = A.x(1)
    conn = EConnection(A, store(gamma))
    model = _constant_curvature_model(A, g)
    first = next(idx for idx, entry in np.ndenumerate(dense(model)) if not entry.is_zero)
    assert first == (0, 0, 1, 1)
    assert str(conn.curvature.comps[first] / model[first]) == "1"
    assert conn.curvature.comps[1, 0, 1, 0].is_zero and str(model[1, 0, 1, 0]) == "-1"
    assert constant_curvature_check(conn, g) == (False, None)
    assert old.constant_curvature_check(A, conn, g) == (False, None)
