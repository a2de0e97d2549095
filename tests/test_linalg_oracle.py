"""Differential tests: the DomainMatrix solver against the Gauss-Jordan elimination
it replaced (``oracle_linalg``).

Every Koszul system and every metric that the engine hands to ``linalg`` is
recorded and solved again by the oracle, one right-hand side at a time.  The
solutions, determinants and inverses must print the same, and a failing solve
must raise the same error with the same message: the first one the oracle's
column-by-column sequence raises.  Fixed and drawn block-triangular systems,
over QQ and over Q(x1), reach each branch of the block solve and of its
fall-back to one ``rref``.
"""

import contextlib
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

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
from conftest import count_cancels, make_rng, store, zeros_array

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


# -- block solves ---------------------------------------------------------------

COORDS = ("x1",)
# x stands for x1 over Q(x1) and for 3 over QQ; no system below is singular at 3
# unless it is singular for every x.
X = {"Q(x1)": ScalarField.coordinate(1, COORDS), "QQ": ScalarField.constant(3, COORDS)}


def fields(x, rows):
    """ScalarField rows from rows of ints and the placeholder "x" (x itself) or
    ("x", a) (x + a)."""

    def field(v):
        if v == "x":
            return x
        if isinstance(v, tuple):
            return x + v[1]
        return ScalarField.constant(v, COORDS)

    return [[field(v) for v in row] for row in rows]


def eliminations(monkeypatch):
    """Lists that grow by the shape of the matrix of each ``rref`` and of each
    distinct block inverted."""
    rrefs, inversions = [], []
    rref, inverse = DomainMatrix.rref, linalg._adj_det
    monkeypatch.setattr(DomainMatrix, "rref", lambda dm: rrefs.append(dm.shape) or rref(dm))
    monkeypatch.setattr(linalg, "_adj_det", lambda dm: inversions.append(dm.shape) or inverse(dm))
    return rrefs, inversions


# Blocks {0, 1}, {2}, {3, 4}; row 2 reads x_0, rows 3 and 4 read x_1 and x_2.
TRIANGULAR = [
    ["x", 1, 0, 0, 0],
    [1, 2, 0, 0, 0],
    [1, 0, ("x", 1), 0, 0],
    [0, "x", 1, 2, "x"],
    [0, 0, 2, 1, 1],
]
# tangent-like: [[x, 1], [1, 2]] three times, [x + 1] twice, interleaved.
REPEATED = [[0] * 8 for _ in range(8)]
for i, j in [(0, 3), (1, 4), (2, 5)]:
    REPEATED[i][i], REPEATED[i][j], REPEATED[j][i], REPEATED[j][j] = "x", 1, 1, 2
REPEATED[6][6] = REPEATED[7][7] = ("x", 1)


@pytest.mark.parametrize("domain", sorted(X))
@pytest.mark.parametrize("reverse", [False, True], ids=["lower", "upper"])
def test_block_triangular_system_reads_earlier_solutions(monkeypatch, domain, reverse):
    rows = fields(X[domain], TRIANGULAR)
    rhs = fields(X[domain], [[1, "x", 0, 1, 0], [0, 0, 1, 0, "x"]])
    if reverse:  # the same system with unknowns and equations numbered backwards
        rows, rhs = [row[::-1] for row in rows[::-1]], [b[::-1] for b in rhs]
    rrefs, inversions = eliminations(monkeypatch)
    solutions = same_solve(rows, *rhs)
    assert (rrefs, sorted(inversions)) == ([], [(1, 1), (2, 2), (2, 2)])
    assert all(x != "0" for x in solutions[0])


@pytest.mark.parametrize("domain", sorted(X))
def test_each_distinct_block_is_inverted_once(monkeypatch, domain):
    rows = fields(X[domain], REPEATED)
    rrefs, inversions = eliminations(monkeypatch)
    same_solve(rows, fields(X[domain], [[1, 2, 3, "x", 0, 5, 6, ("x", 2)]])[0])
    assert (rrefs, sorted(inversions)) == ([], [(1, 1), (2, 2)])


@pytest.mark.parametrize("domain", sorted(X))
def test_singular_blocks_fall_back_to_one_rref(monkeypatch, domain):
    def system(rows, *rhs):
        return fields(X[domain], rows), *fields(X[domain], rhs)

    rrefs, _ = eliminations(monkeypatch)
    # Two singular 1x1 blocks, but nullity 1, not 2.
    assert same_solve(*system([[0, "x"], [0, 0]], ["x", 0])) == ("NonUnique", str(NonUnique(1)))
    # A regular block {0, 1} before the singular block {2}; {3} is regular.
    singular = [["x", 1, 0, 0], [1, 2, 0, 0], [1, 0, 0, "x"], [0, 0, 0, 1]]
    solvable, unsolvable = ["x", 1, ("x", 1), 1], [1, 0, 1, 0]
    assert same_solve(*system(singular, solvable))[0] == "NonUnique"
    assert same_solve(*system(singular, unsolvable))[0] == "NoSolution"
    # Solved one by one, the first right-hand side decides.
    assert same_solve(*system(singular, solvable, unsolvable))[0] == "NonUnique"
    assert same_solve(*system(singular, unsolvable, solvable))[0] == "NoSolution"
    # One right-hand side is too few for the 2x2 block {0, 1}; with two, the
    # singular block {2} sends the system to its one rref.
    assert rrefs == [(2, 3)] + [(4, 5)] * 2 + [(4, 6)] * 2


@pytest.mark.parametrize("domain", sorted(X))
def test_one_block_system_takes_one_rref(monkeypatch, domain):
    rrefs, inversions = eliminations(monkeypatch)
    rows = fields(X[domain], [["x", 1, 0], [0, 2, 1], [1, 0, ("x", 1)]])
    same_solve(rows, *fields(X[domain], [[1, 0, "x"], [0, 1, 0]]))
    assert (rrefs, inversions) == ([(3, 5)], [])


@pytest.mark.parametrize("domain", sorted(X))
def test_a_block_met_once_by_fewer_right_hand_sides_than_rows_takes_one_rref(monkeypatch, domain):
    rows = fields(X[domain], [["x", 1, 0, 0], [1, 2, 1, 0], [0, 1, ("x", 1), 0], [1, 0, "x", 2]])
    rrefs, inversions = eliminations(monkeypatch)
    same_solve(rows, fields(X[domain], [[1, "x", 0, 2]])[0])
    assert (rrefs, inversions) == ([(4, 5)], [])


@st.composite
def block_triangular_systems(draw):
    """A block lower-triangular system, its unknowns and equations renumbered
    by one permutation, with one or two right-hand sides; entries a + b x1
    (b = 0 over QQ) with small integers, some diagonal blocks repeated."""
    slope = draw(st.sampled_from([0, 1]))
    entries = st.tuples(st.integers(-2, 2), st.integers(-1, 1).map(lambda b: b * slope))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n, blocks, start = sum(sizes), [], 0
    for size in sizes:
        if blocks and blocks[-1][1] == size and draw(st.booleans()):
            block = blocks[-1][2]
        else:
            block = draw(st.lists(st.lists(entries, min_size=size, max_size=size), min_size=size, max_size=size))
        blocks.append((start, size, block))
        start += size
    values = [[(0, 0)] * n for _ in range(n)]
    for start, size, block in blocks:
        for i, j in itertools.product(range(size), repeat=2):
            values[start + i][start + j] = block[i][j]
        for i, j in itertools.product(range(size), range(start)):
            if draw(st.integers(0, 3)) == 0:
                values[start + i][j] = draw(entries)
    order = draw(st.permutations(range(n)))
    x1 = ScalarField.coordinate(1, COORDS)

    def field(value):
        return ScalarField.constant(value[0], COORDS) + ScalarField.constant(value[1], COORDS) * x1

    rows = [[field(values[i][j]) for j in order] for i in order]
    k = draw(st.integers(1, 2))
    rhs = [[field(v) for v in draw(st.lists(entries, min_size=n, max_size=n))] for _ in range(k)]
    return rows, rhs


@settings(max_examples=40, deadline=None)
@given(system=block_triangular_systems())
def test_drawn_block_triangular_systems_match_the_oracle(system):
    rows, rhs = system
    same_solve(rows, *rhs)


def test_koszul_solves_cancel_each_unknown_once(monkeypatch):
    """On the tangent(3) structures, the gcd cancellations per solve are bounded;
    the one-block courant(2) system keeps its one rref."""
    A = tangent(3)
    rng = make_rng(0)
    structures = [tangent3_structure(A, rng) for _ in range(3)]
    cancels = count_cancels(monkeypatch)
    for g, C in structures:
        cancels.clear()
        levi_civita_solve(A, g)
        assert len(cancels) <= 24
        cancels.clear()
        statistical_solve(A, StatisticalStructure(g, C, ETensor.zeros(1, 2, 3, A.coords)))
        assert len(cancels) <= 73
    Cour = courant(2)
    dense = [[2, 1, -1, 3], [1, -3, 2, 1], [-1, 2, 1, -2], [3, 1, -2, 2]]
    g = EMetric([[Cour.field(v) for v in row] for row in dense], Cour.coords)
    rrefs, inversions = eliminations(monkeypatch)
    levi_civita_solve(Cour, g)
    assert (rrefs, inversions) == ([(64, 65)], [])
