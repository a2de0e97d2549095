"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact (residuals normalize to the zero scalar field);
there are no numeric tolerances anywhere in this file.
"""

import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from leibniz_geo import (
    ConjugatePair,
    EConnection,
    EMetric,
    ScalarField,
    StatisticalStructure,
    alpha_connection,
    alpha_curvature_residual,
    conjugate_connection,
    conjugate_curvature_transfer_residual,
    constant_curvature_check,
    courant,
    courant_pairing,
    curvature,
    fundamental_theorem_residual,
    hessian_structure_check,
    hessian_symmetry_equivalences,
    levi_civita_solve,
    nonmetricity,
    relative_torsion,
    so3,
    statistical_solve,
    tangent,
    torsion,
)
from leibniz_geo.connection import difference_tensor, second_cov_and_ricci
from leibniz_geo.errors import ParseError, SchemaError, ShapeError
from leibniz_geo.model import parse_model_text
from leibniz_geo.statgeo import alpha_flat_symmetry_residual
from leibniz_geo.tensor import ETensor
from conftest import (
    classical_christoffel,
    classical_riemann,
    conjugate_pair,
    dg_of,
    eta_compatible_connection,
    make_rng,
    random_connection,
    random_constant_connection,
    random_metric,
    random_polynomial,
    store,
    zeros_array,
)

ROOT = Path(__file__).resolve().parent.parent
MODELS = sorted((ROOT / "models").glob("*.model"))


# Registry read by the conftest terminal-summary hook, which prints one
# pass/fail line per criterion after the run (pytest captures direct prints).
CRITERIA = {}


def criterion(number, title):
    def decorate(fn):
        CRITERIA[fn.__name__] = (number, title)
        return fn
    return decorate


def polar_metric(A):
    return EMetric([[A.one(), A.zero()], [A.zero(), A.x(1) * A.x(1)]], A.coords)


def hyperbolic_metric(A):
    inv = A.field("1/(x2^2)")
    return EMetric([[inv, A.zero()], [A.zero(), inv]], A.coords)


def symmetric_constant_tensor(A, rng):
    r = A.rank
    comps = zeros_array((r, r, r), A.coords)
    values = {
        idx: A.field(rng.randint(-2, 2))
        for idx in itertools.combinations_with_replacement(range(r), 3)
    }
    for idx in itertools.product(range(r), repeat=3):
        comps[idx] = values[tuple(sorted(idx))]
    return ETensor(0, 3, r, A.coords, store(comps))


def conjugate_instances(count, seed):
    """Mixed tangent(2)/courant(1) (g, nabla) instances, deterministic."""
    rng = make_rng(seed)
    out = []
    for index in range(count):
        A = tangent(2) if index % 2 == 0 else courant(1)
        g = random_metric(A, rng, constant=index % 3 == 0)
        conn = random_connection(A, rng, degree=1)
        out.append((A, g, conn))
    return out


# Shared across criteria 2-4 and 10.
_admissible_pool = []
_non_admissible_witness = []


@criterion(1, "classical oracles: polar Christoffel, flat R, kappa = -1")
def test_criterion_01_classical_oracles():
    A = tangent(2)
    g = polar_metric(A)
    conn = levi_civita_solve(A, g)
    x1 = A.x(1)
    assert (conn.gamma[0, 1, 1] + x1).is_zero
    assert (conn.gamma[1, 0, 1] - A.one() / x1).is_zero
    assert (conn.gamma[1, 1, 0] - A.one() / x1).is_zero
    oracle = classical_christoffel(A, g)
    assert difference_tensor(conn, oracle).is_zero
    assert curvature(conn).is_zero
    assert (curvature(conn) - classical_riemann(A, conn)).is_zero

    g_hyp = hyperbolic_metric(A)
    conn_hyp = levi_civita_solve(A, g_hyp)
    ok, kappa = constant_curvature_check(conn_hyp, g_hyp)
    assert ok and kappa == Fraction(-1)


@criterion(2, "admissibility characterizations on so(3) and courant(1)")
def test_criterion_02_admissibility():
    A = so3()
    rng = make_rng(201)
    for _ in range(25):
        conn = random_constant_connection(A, rng)
        assert conn.admissibility.is_zero
        _admissible_pool.append((A, conn))

    Cour = courant(1)
    eta = courant_pairing(Cour)
    seen_yes = seen_no = 0
    for _ in range(25):
        if rng.random() < 0.5:
            conn = eta_compatible_connection(Cour, eta, rng)
        else:
            conn = random_connection(Cour, rng, degree=2)
        admissible = conn.admissibility.is_zero
        compatible = nonmetricity(conn, eta, dg_of(conn, eta)).is_zero
        assert admissible == compatible
        if admissible:
            seen_yes += 1
            _admissible_pool.append((Cour, conn))
        else:
            seen_no += 1
            _non_admissible_witness.append((Cour, conn))
    assert seen_yes >= 3 and seen_no >= 3


@criterion(3, "conjugation suite: involution, SSp3, mean, SSp8, SSp7")
def test_criterion_03_conjugation():
    instances = conjugate_instances(25, seed=301)
    for A, g, conn in instances:
        dg = dg_of(conn, g)
        conn_star = conjugate_connection(g, conn, dg)
        # Involution.
        assert difference_tensor(conjugate_connection(g, conn_star, dg), conn).is_zero
        # SSp3: Q(nabla) = -Q(nabla*) = g(Delta(nabla*, nabla) ., .).
        Q = nonmetricity(conn, g, dg)
        assert (Q + nonmetricity(conn_star, g, dg)).is_zero
        delta = difference_tensor(conn_star, conn)
        r = A.rank
        for a, b, c in itertools.product(range(r), repeat=3):
            paired = sum((delta.comps[e, a, b] * g.matrix[e, c] for e in range(r)), A.zero())
            assert (Q.comps[a, b, c] - paired).is_zero
        pair = ConjugatePair(g, conn, conn_star, dg)
        # Mean connection is metric-compatible.
        assert nonmetricity(pair.mean, g, dg).is_zero
        # SSp8: rel + rel* = T + T*.
        rel = relative_torsion(conn, conn_star)
        rel_star = relative_torsion(conn_star, conn)
        total = torsion(conn) + torsion(conn_star)
        assert (rel + rel_star - total).is_zero
    # SSp7 on the admissible subset (eta-compatible courant pairs).
    Cour = courant(1)
    eta = courant_pairing(Cour)
    rng = make_rng(307)
    checked = 0
    for _ in range(10):
        conn = eta_compatible_connection(Cour, eta, rng)
        conn_star = conjugate_connection(eta, conn, dg_of(conn, eta))
        if not conn_star.admissibility.is_zero:
            continue
        rel = relative_torsion(conn, conn_star)
        rel_star = relative_torsion(conn_star, conn)
        for a, b, c in itertools.product(range(Cour.rank), repeat=3):
            assert (rel.comps[a, b, c] + rel_star.comps[a, c, b]).is_zero
        checked += 1
    assert checked >= 3


@criterion(4, "alpha family: SSp10, SSe25, SSp11/SS27, SS29")
def test_criterion_04_alpha_family():
    alphas = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
              Fraction(1), Fraction(2)]
    instances = conjugate_instances(10, seed=401)
    courant_count = sum(1 for A, _, _ in instances if A.rank == 2 and A.dim == 1)
    assert courant_count >= 3  # instances with L != 0
    for A, g, conn in instances:
        pair = conjugate_pair(g, conn)
        Q = nonmetricity(conn, g, pair.dg)
        T = torsion(pair.nabla)
        T_star = torsion(pair.nabla_star)
        for alpha in alphas:
            conn_alpha = alpha_connection(pair, alpha)
            # SSp10: conjugation maps alpha to -alpha.
            conj = conjugate_connection(g, conn_alpha, pair.dg)
            assert difference_tensor(conj, alpha_connection(pair, -alpha)).is_zero
            # Torsion interpolation.
            s = ScalarField.constant((1 + alpha) / 2, A.coords)
            t = ScalarField.constant((1 - alpha) / 2, A.coords)
            assert (torsion(conn_alpha) - T_star.scale(s) - T.scale(t)).is_zero
            # SSe25: Q(nabla^alpha) = -alpha Q(nabla).
            factor = ScalarField.constant(alpha, A.coords)
            assert (nonmetricity(conn_alpha, g, pair.dg) + Q.scale(factor)).is_zero
            # SSp11 / SS27: exact curvature decomposition.
            assert alpha_curvature_residual(pair, alpha).is_zero
        _admissible_pool.extend(
            (A, c) for c in (pair.nabla, pair.nabla_star)
            if c.admissibility.is_zero
        )
    # SS29 on a dually flat pair (Hessian metric, coordinate-flat primal).
    A = tangent(2)
    g = EMetric(
        [[A.field("2*x2 + 2"), A.field("2*x1")], [A.field("2*x1"), A.field("2")]],
        A.coords,
    )
    flat = EConnection(A, ETensor.zeros(1, 2, 2, A.coords).comps)
    pair = conjugate_pair(g, flat)
    assert curvature(pair.nabla).is_zero
    assert curvature(pair.nabla_star).is_zero
    for alpha in alphas:
        assert alpha_flat_symmetry_residual(pair, alpha).is_zero


@criterion(5, "strong conjugacy forces the Levi-Civita self-pair")
def test_criterion_05_strong_conjugacy():
    passing = failing = 0
    # Passing instance: the Levi-Civita self-pair.
    A = tangent(2)
    g = polar_metric(A)
    lc = levi_civita_solve(A, g)
    pair = conjugate_pair(g, lc)
    assert pair.relative_torsion.is_zero
    passing += 1
    instances = [(A, g, lc)] + conjugate_instances(10, seed=501)
    for _, g_i, conn in instances:
        pair = conjugate_pair(g_i, conn)
        strong = pair.relative_torsion.is_zero
        admissible = (
            pair.nabla.admissibility.is_zero
            and pair.nabla_star.admissibility.is_zero
        )
        if strong and admissible:
            assert torsion(pair.nabla).is_zero
            assert nonmetricity(pair.nabla, g_i, dg_of(pair.nabla, g_i)).is_zero
            assert difference_tensor(pair.nabla, pair.nabla_star).is_zero
        if not strong:
            failing += 1
    assert passing >= 1 and failing >= 1


@criterion(6, "statistical solve vs the manifold oracle")
def test_criterion_06_statistical_solve():
    A = tangent(2)
    rng = make_rng(601)
    half = ScalarField.constant(Fraction(1, 2), A.coords)
    for _ in range(3):
        g = random_metric(A, rng, constant=True)
        C = symmetric_constant_tensor(A, rng)
        B = ETensor.zeros(1, 2, 2, A.coords)
        pair = statistical_solve(A, StatisticalStructure(g, C, B))
        # Manifold oracle: Gamma = Christoffel(g) + (1/2) g^{ad} C_{bcd}.
        lc = classical_christoffel(A, g)
        for a, b, c in itertools.product(range(2), repeat=3):
            lift = sum((g.inverse[a, d] * C.comps[b, c, d] for d in range(2)), A.zero())
            assert (pair.nabla.gamma[a, b, c] - lc.gamma[a, b, c] - lift * half).is_zero
        # SSp5 postconditions.
        assert (nonmetricity(pair.nabla, g, dg_of(pair.nabla, g)) + C).is_zero
        assert (nonmetricity(pair.nabla_star, g, dg_of(pair.nabla_star, g)) - C).is_zero
        assert torsion(pair.nabla).is_zero
        assert (torsion(pair.nabla_star) - B).is_zero
    # Trivial structure returns the Levi-Civita pair.
    g = polar_metric(A)
    pair = statistical_solve(
        A,
        StatisticalStructure(
            g, ETensor.zeros(0, 3, 2, A.coords), ETensor.zeros(1, 2, 2, A.coords)
        ),
    )
    lc = levi_civita_solve(A, g)
    assert difference_tensor(pair.nabla, lc).is_zero
    assert difference_tensor(pair.nabla_star, lc).is_zero


@criterion(7, "Ricci identity holds unconditionally")
def test_criterion_07_ricci_identity():
    rng = make_rng(701)
    builtins = [tangent(2), so3(), courant(1)]
    total = 0
    for A in builtins:
        count = 9 if A is not builtins[-1] else 7
        for _ in range(count):
            conn = random_connection(A, rng, degree=1)
            u = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
            v = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
            w = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
            _, residual = second_cov_and_ricci(conn, u, v, w)
            assert residual.is_zero
            total += 1
    assert total == 25


@criterion(8, "Hessian suite: lp1 equivalences and the quartic potential")
def test_criterion_08_hessian_suite():
    A = tangent(2)
    zero_conn = EConnection(A, ETensor.zeros(1, 2, 2, A.coords).comps)
    instances = []
    # All three clauses hold.
    instances.append((A, zero_conn, "holds", "holds"))
    rng = make_rng(801)
    g = polar_metric(A)
    instances.append((A, levi_civita_solve(A, g), "holds", "holds"))
    # All three clauses fail together.
    for _ in range(4):
        conn = random_connection(A, rng, degree=1)
        if torsion(conn, projected=True).is_zero:
            continue
        instances.append((A, conn, "fails", "fails"))
    # rho = 0 kernel escape: H symmetric although T-hat != 0 (Corollary lc1).
    S = so3()
    for _ in range(4):
        conn = random_constant_connection(S, rng)
        T_hat = torsion(conn, projected=True)
        expected2 = "fails" if not T_hat.is_zero else "holds"
        instances.append((S, conn, "holds", expected2))
    assert len(instances) >= 10
    saw_escape = False
    for A_i, conn, expect1, expect2 in instances[:12]:
        report = hessian_symmetry_equivalences(conn)
        entries = dict(report.entries)
        assert entries["clause-1-hessian-symmetric-for-all-f"] == expect1
        assert entries["clause-2-projected-torsion-free"] == expect2
        assert entries["three-way-agreement"] is True
        assert report.ok
        if expect1 == "holds" and expect2 == "fails":
            saw_escape = True
            assert report.warnings
    assert saw_escape

    # Quartic potential: Hessian structure, Codazzi, statistical invariants.
    f = A.field("x1^4 + x1^2*x2^2 + x2^4")
    from leibniz_geo.hessian import hessian

    H = hessian(zero_conn, f)
    g = EMetric([[H.comps[i, j] for j in range(2)] for i in range(2)], A.coords)
    report = hessian_structure_check(zero_conn, g, f)
    assert report.ok
    entries = dict(report.entries)
    assert entries["codazzi"].is_zero
    assert entries["statistical-invariants"] is True


@criterion(9, "fundamental theorem, lc4 transfer, anholonomic flag")
def test_criterion_09_fundamental_theorem():
    A = tangent(2)
    rng = make_rng(901)
    for _ in range(10):
        g = random_metric(A, rng, constant=rng.random() < 0.5)
        conn = random_connection(A, rng, degree=1)
        pair = conjugate_pair(g, conn)
        assert pair.holonomic
        assert fundamental_theorem_residual(pair).is_zero
    # lc4 on the kappa = -1 instance: the conjugate (the same connection)
    # has constant curvature -1 as well.
    g_hyp = hyperbolic_metric(A)
    lc = levi_civita_solve(A, g_hyp)
    pair = conjugate_pair(g_hyp, lc)
    assert pair.holonomic and fundamental_theorem_residual(pair).is_zero
    assert conjugate_curvature_transfer_residual(pair, Fraction(-1)).is_zero
    # Anholonomic L != 0 instance: flagged not applicable, nonzero obstruction.
    Cour = courant(1)
    eta = courant_pairing(Cour)
    conn = eta_compatible_connection(Cour, eta, rng)
    while conn.projected_bracket.is_zero:
        conn = eta_compatible_connection(Cour, eta, rng)
    g = random_metric(Cour, rng, constant=True)
    pair = conjugate_pair(g, conn)
    assert not pair.holonomic
    assert not pair.holonomy_obstruction.is_zero


@criterion(10, "torsion/curvature antisymmetry for admissible connections")
def test_criterion_10_antisymmetry():
    assert len(_admissible_pool) >= 25
    for A, conn in _admissible_pool:
        T = torsion(conn)
        assert (T + T.swap_slots(2, 3)).is_zero
        R = curvature(conn)
        assert (R + R.swap_slots(2, 3)).is_zero
    assert _non_admissible_witness
    A, conn = _non_admissible_witness[0]
    T = torsion(conn)
    assert not (T + T.swap_slots(2, 3)).is_zero


@criterion(11, "CLI byte determinism and model error taxonomy")
def test_criterion_11_cli():
    assert len(MODELS) >= 4
    for path in MODELS:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "leibniz_geo.cli", "check-all",
                 "--model", str(path), "--format", "json-lines"],
                capture_output=True,
                cwd=ROOT,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, runs[0].stderr.decode()
        assert runs[0].stdout == runs[1].stdout
        for line in runs[0].stdout.decode().splitlines():
            assert json.loads(line)["status"] in ("pass", "not-applicable")
    with pytest.raises(ParseError):
        parse_model_text("{oops")
    with pytest.raises(SchemaError):
        parse_model_text('{"dimension": 1, "rank": 1, "coordinates": ["x1"], '
                         '"anchor": [["1"]], "bracket": [[["0"]]], '
                         '"locality": [[[["0"]]]], "extra": 1}')
    with pytest.raises(ShapeError):
        parse_model_text('{"dimension": 1, "rank": 1, "coordinates": ["x1"], '
                         '"anchor": [["1", "2"]], "bracket": [[["0"]]], '
                         '"locality": [[[["0"]]]]}')
