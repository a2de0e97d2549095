"""Differential tests: the DomainMatrix solver against the Gauss-Jordan elimination
it replaced (``oracle_linalg``).

Every Koszul system and every metric that the engine hands to ``linalg`` is
recorded and solved again by the oracle, one right-hand side at a time.  The
solutions, determinants and inverses must print the same, and a failing solve
must raise the same error with the same message: the first one the oracle's
column-by-column sequence raises.
"""

import contextlib
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracle_linalg as old
from leibniz_geo import (
    EMetric,
    ScalarField,
    StatisticalStructure,
    checks,
    courant,
    courant_pairing,
    levi_civita_solve,
    linalg,
    statistical_solve,
    tangent,
)
from leibniz_geo.errors import DegenerateMetric, LeibnizGeoError, NonUnique, NoSolution
from leibniz_geo.model import load_model
from leibniz_geo.tensor import ETensor
from conftest import make_rng, store, zeros_array

MODELS = sorted((Path(__file__).resolve().parent.parent / "models").glob("*.model"))


@contextlib.contextmanager
def recorded():
    """Record the arguments of every linalg.solve and linalg.adj_det call."""
    systems, matrices = [], []
    solve, adj_det = linalg.solve, linalg.adj_det

    def record_solve(matrix, *rhs):
        systems.append((matrix, rhs))
        return solve(matrix, *rhs)

    def record_adj_det(matrix):
        matrices.append(matrix)
        return adj_det(matrix)

    linalg.solve, linalg.adj_det = record_solve, record_adj_det
    try:
        yield systems, matrices
    finally:
        linalg.solve, linalg.adj_det = solve, adj_det


def outcome(run):
    """The printed solutions, or the error's type name and message."""
    try:
        solutions = run()
    except (NoSolution, NonUnique) as exc:
        return type(exc).__name__, str(exc)
    return [[str(x) for x in solution] for solution in solutions]


def one_zero(solutions):
    """The solutions, once checked to hold a single zero field for all their zeros."""
    assert len({id(x) for solution in solutions for x in solution if x.is_zero}) <= 1
    return solutions


def same_solve(matrix, *rhs):
    """Solve with both solvers and require the same outcome; return it."""
    new = outcome(lambda: one_zero(linalg.solve(matrix, *rhs)))
    assert new == outcome(lambda: [old.solve(matrix, b) for b in rhs])
    return new


def same_adj_det(matrix):
    adjugate, det = linalg.adj_det(matrix)
    assert str(det) == str(old.determinant(matrix))
    if not det.is_zero:
        inverse = [[str(entry / det) for entry in row] for row in adjugate]
        assert inverse == [[str(entry) for entry in row] for row in old.invert(matrix)]


def same_as_oracle(systems, matrices):
    for matrix, rhs in systems:
        same_solve(matrix, *rhs)
    for matrix in matrices:
        same_adj_det(matrix)


def symmetric_c(A, values):
    """Constant totally symmetric (0, 3) tensor from values on sorted index triples."""
    r = A.rank
    comps = zeros_array((r, r, r), A.coords)
    for idx in itertools.product(range(r), repeat=3):
        comps[idx] = A.field(values[tuple(sorted(idx))])
    return ETensor(0, 3, r, A.coords, store(comps))


def solve_everything(A, g, C):
    """The Levi-Civita and the statistical solve of (g, C), failures included."""
    with contextlib.suppress(LeibnizGeoError):
        levi_civita_solve(A, g)
    with contextlib.suppress(LeibnizGeoError):
        statistical_solve(A, StatisticalStructure(g, C, ETensor.zeros(1, 2, A.rank, A.coords)))


def tangent3_structure(A, rng):
    """g_aa = c_a +- x_a with c a shuffle of (1, 2, 3), g_12 = +-1, the rest 0;
    C constant with entries in +-{1, 2}."""
    offsets = [1, 2, 3]
    rng.shuffle(offsets)
    entries = [[A.zero()] * 3 for _ in range(3)]
    for a in range(3):
        entries[a][a] = A.field(offsets[a]) + A.field(rng.choice((-1, 1))) * A.x(a + 1)
    entries[0][1] = entries[1][0] = A.field(rng.choice((-1, 1)))
    values = {
        key: rng.choice((-2, -1, 1, 2)) for key in itertools.combinations_with_replacement(range(3), 3)
    }
    return EMetric(entries, A.coords), symmetric_c(A, values)


@pytest.mark.parametrize("path", MODELS, ids=[path.stem for path in MODELS])
def test_bundled_models_match_the_oracle(path):
    with recorded() as (systems, matrices):
        doc = load_model(path)
        checks.run_all(doc)
        for g in doc.metrics.values():
            with contextlib.suppress(NonUnique, NoSolution):
                levi_civita_solve(doc.algebroid, g)
    assert systems and matrices
    assert any(len(rhs) == 2 for _, rhs in systems)
    same_as_oracle(systems, matrices)


def test_tangent3_statistical_structures_match_the_oracle():
    A = tangent(3)
    rng = make_rng(0)
    with recorded() as (systems, matrices):
        for _ in range(3):
            solve_everything(A, *tangent3_structure(A, rng))
    assert len(systems) == 6 and len(matrices) == 3
    same_as_oracle(systems, matrices)


def test_dense_courant2_metric_matches_the_oracle():
    A = courant(2)
    dense = [[2, 1, -1, 3], [1, -3, 2, 1], [-1, 2, 1, -2], [3, 1, -2, 2]]
    with recorded() as (systems, matrices):
        g = EMetric([[A.field(v) for v in row] for row in dense], A.coords)
        levi_civita_solve(A, g)
    assert len(systems[0][0]) == 64
    same_as_oracle(systems, matrices)


def drawn_metric_and_c(A, affine, data):
    """Symmetric metric entries, a + b x_1 + ... when affine and constant
    otherwise, and a constant C, all with small integer coefficients."""
    n_terms = 1 + (A.dim if affine else 0)
    coefficients = st.lists(st.integers(-3, 3), min_size=n_terms, max_size=n_terms)
    entries = [[None] * A.rank for _ in range(A.rank)]
    for a, b in itertools.combinations_with_replacement(range(A.rank), 2):
        coeffs = data.draw(coefficients)
        value = A.field(coeffs[0])
        for i, c in enumerate(coeffs[1:]):
            value = value + A.field(c) * A.x(i + 1)
        entries[a][b] = entries[b][a] = value
    keys = list(itertools.combinations_with_replacement(range(A.rank), 3))
    values = data.draw(st.lists(st.integers(-2, 2), min_size=len(keys), max_size=len(keys)))
    return entries, symmetric_c(A, dict(zip(keys, values)))


@pytest.mark.parametrize(
    "A, affine", [(courant(1), False), (tangent(2), True)], ids=["courant1", "tangent2"]
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_drawn_metrics_match_the_oracle(A, affine, data):
    entries, C = drawn_metric_and_c(A, affine, data)
    with recorded() as (systems, matrices), contextlib.suppress(DegenerateMetric):
        solve_everything(A, EMetric(entries, A.coords), C)
    same_as_oracle(systems, matrices)


@pytest.mark.parametrize("n, free", [(1, 2), (2, 20), (3, 70)])
def test_canonical_courant_pairings_are_rank_deficient(n, free):
    A = courant(n)
    with recorded() as (systems, _):
        with pytest.raises(NonUnique) as excinfo:
            levi_civita_solve(A, courant_pairing(A))
    assert excinfo.value.free_dimension == free
    matrix, rhs = systems[0]
    assert same_solve(matrix, *rhs) == ("NonUnique", str(excinfo.value))


def test_inconsistent_systems_and_error_precedence():
    coords = ("x1",)
    x1 = ScalarField.coordinate(1, coords)

    def vector(*values):
        return [v if isinstance(v, ScalarField) else ScalarField.constant(v, coords) for v in values]

    singular = [vector(1, 1), vector(1, 1)]
    tall = [vector(x1), vector(x1 * x1)]
    solvable, unsolvable = vector(1, 1), vector(0, 1)
    assert same_solve(singular, unsolvable)[0] == "NoSolution"
    # Solved one by one, the first right-hand side decides.
    assert same_solve(singular, solvable, unsolvable)[0] == "NonUnique"
    assert same_solve(singular, unsolvable, solvable)[0] == "NoSolution"
    # A full column rank matrix fails only on the inconsistent right-hand side.
    assert same_solve(tall, vector(x1, x1 * x1)) == [["1"]]
    assert same_solve(tall, vector(x1, x1 * x1), solvable)[0] == "NoSolution"


def test_one_linalg_call_per_metric_and_per_statistical_solve():
    A = tangent(3)
    with recorded() as (systems, matrices):
        g, C = tangent3_structure(A, make_rng(1))
    assert (len(systems), len(matrices)) == (0, 1)
    with recorded() as (systems, matrices):
        statistical_solve(A, StatisticalStructure(g, C, ETensor.zeros(1, 2, 3, A.coords)))
    assert (len(systems), len(matrices)) == (1, 0)
    assert len(systems[0][1]) == 2
