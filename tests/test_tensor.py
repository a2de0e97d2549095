"""Tensor containers, symmetry predicates, exact linear algebra."""

import itertools
from fractions import Fraction

import pytest

import oracle_linalg
from leibniz_geo import (
    DegenerateMetric,
    EConnection,
    EMetric,
    ETensor,
    ScalarField,
    SlotMismatch,
    projected_exterior_derivative,
    tangent,
)
from leibniz_geo.errors import NonUnique, NoSolution
from leibniz_geo.expr import parse_expr
from leibniz_geo.linalg import adj_det, solve
from leibniz_geo.tensor import Components, is_antisymmetric_in, is_totally_symmetric, object_array

COORDS = ("x1", "x2")


def const(value):
    return ScalarField.constant(value, COORDS)


def xs():
    return (
        ScalarField.coordinate(1, COORDS),
        ScalarField.coordinate(2, COORDS),
    )


def tensor_from(values, q, r):
    arr = object_array([[const(v) for v in row] for row in values])
    return ETensor(q, r, 2, COORDS, arr)


def test_shape_validation():
    with pytest.raises(SlotMismatch):
        ETensor(0, 2, 2, COORDS, Components((2, 3), COORDS))


def test_addition_and_scaling():
    a = tensor_from([[1, 2], [3, 4]], 0, 2)
    b = tensor_from([[5, 6], [7, 8]], 0, 2)
    s = (a + b).comps
    assert s[0, 0] == const(6) and s[1, 1] == const(12)
    assert (a - a).is_zero
    assert (-a + a).is_zero
    doubled = a.scale(const(2))
    assert doubled.comps[1, 0] == const(6)


def test_type_mismatch_rejected():
    a = tensor_from([[1, 0], [0, 1]], 0, 2)
    b = tensor_from([[1, 0], [0, 1]], 1, 1)
    with pytest.raises(SlotMismatch):
        a + b


def test_sections_and_forms_of_different_types_do_not_add():
    A = tangent(2)
    section, one_form = A.vector([1, "x1"]), A.coboundary(A.x(2))
    assert (section.q, section.r, one_form.q, one_form.r) == (1, 0, 0, 1)
    with pytest.raises(SlotMismatch):
        section + one_form
    with pytest.raises(SlotMismatch):
        one_form - section
    with pytest.raises(SlotMismatch):
        section + tangent(3).vector([1, 0, 0])


def test_swap_slots_variance_guard():
    t = tensor_from([[1, 2], [3, 4]], 1, 1)
    with pytest.raises(SlotMismatch):
        t.swap_slots(1, 2)


def test_symmetry_predicates():
    sym = tensor_from([[1, 2], [2, 5]], 0, 2)
    asym = tensor_from([[0, 3], [-3, 0]], 0, 2)
    assert is_totally_symmetric(sym)
    assert not is_totally_symmetric(asym)
    assert is_antisymmetric_in(asym, 1, 2)
    assert not is_antisymmetric_in(sym, 1, 2)


def test_p_form_validation():
    # The projected exterior derivative takes and returns antisymmetric (0, p) tensors.
    x1, _ = xs()
    A = tangent(2)
    conn = EConnection.zero(A)
    with pytest.raises(SlotMismatch, match="not antisymmetric in slots 1,2"):
        projected_exterior_derivative(conn, ETensor(0, 2, 2, COORDS, object_array([[x1, x1], [x1, x1]])))
    with pytest.raises(SlotMismatch, match="covariant slots only"):
        projected_exterior_derivative(conn, tensor_from([[0, 1], [-1, 0]], 1, 1))
    good = ETensor(0, 2, 2, COORDS, object_array([[const(0), x1], [-x1, const(0)]]))
    d_good = projected_exterior_derivative(conn, good)
    assert (d_good.q, d_good.r) == (0, 3) and d_good.is_zero


def test_metric_validation_and_inverse():
    x1, _ = xs()
    g = EMetric([[const(1), const(0)], [const(0), x1 * x1]], COORDS)
    assert g.inverse[1, 1] * (x1 * x1) == const(1)
    with pytest.raises(SlotMismatch):
        EMetric([[const(1), const(2)], [const(3), const(1)]], COORDS)
    with pytest.raises(DegenerateMetric):
        EMetric([[x1, x1], [x1, x1]], COORDS)


def frac_matrix(values):
    return [[const(Fraction(v)) for v in row] for row in values]


def test_solve_against_fraction_arithmetic():
    m = frac_matrix([[2, 1], [1, 3]])
    rhs = [const(5), const(10)]
    (solution,) = solve(m, rhs)
    assert solution[0] == const(1)
    assert solution[1] == const(3)


def test_solve_with_symbolic_entries():
    x1, _ = xs()
    m = [[x1, const(0)], [const(0), const(1)]]
    rhs = [x1 * x1, const(2)]
    (solution,) = solve(m, rhs)
    assert solution[0] == x1
    assert solution[1] == const(2)


def test_solve_error_taxonomy():
    singular = frac_matrix([[1, 1], [1, 1]])
    with pytest.raises(NoSolution):
        solve(singular, [const(0), const(1)])
    with pytest.raises(NonUnique) as excinfo:
        solve(singular, [const(1), const(1)])
    assert excinfo.value.free_dimension == 1


def test_determinant_and_invert():
    m = frac_matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    adjugate, det = adj_det(m)
    assert det == const(18)
    inv = EMetric(m, COORDS).inverse
    for i, j in itertools.product(range(3), repeat=2):
        entry = sum((m[i][k] * inv[k, j] for k in range(3)), const(0))
        assert entry == const(1 if i == j else 0)
        assert adjugate[i][j] == det * inv[i, j]


@pytest.mark.parametrize(
    "rows",
    [
        [["x1", 0], [0, "-x1"]],
        [["x1", 1], [1, "-x1"]],
        [["x1", 0, 0], [0, "-x1", 0], [0, 0, "x2^2"]],
        [["1 + x1^2"] * 3] * 3,
    ],
    ids=["diagonal", "off-diagonal", "rank-3", "singular"],
)
def test_zero_characteristic_coefficients_match_the_oracle(rows):
    # Each matrix has a zero coefficient in its characteristic polynomial.
    m = [[parse_expr(str(v), COORDS) for v in row] for row in rows]
    adjugate, det = adj_det(m)
    assert str(det) == str(oracle_linalg.determinant(m))
    if not det.is_zero:
        inverse = [[str(x) for x in row] for row in EMetric(m, COORDS).inverse.tolist()]
        assert inverse == [[str(x) for x in row] for row in oracle_linalg.invert(m)]
        assert [[str(x / det) for x in row] for row in adjugate] == inverse


def test_determinant_of_singular_matrix_is_zero():
    x1, _ = xs()
    m = [[x1, x1], [x1, x1]]
    assert adj_det(m)[1].is_zero
