"""Conjugation, statistical solving, strong conjugacy, and the alpha family."""

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from leibniz_geo import (
    Algebroid,
    ConjugatePair,
    EConnection,
    EMetric,
    ScalarField,
    StatisticalStructure,
    alpha_connection,
    alpha_curvature_residual,
    conjugate_connection,
    conjugation_residual,
    courant,
    courant_pairing,
    curvature,
    levi_civita_solve,
    nonmetricity,
    relative_torsion,
    statistical_solve,
    tangent,
    torsion,
)
from leibniz_geo import checks, connection, statgeo
from leibniz_geo.connection import difference_tensor
from leibniz_geo.errors import CompatibilityFailure, InvalidStructure
from leibniz_geo.model import load_model, parse_model_text
from leibniz_geo.statgeo import (
    _quasi_statistical_residual,
    _solve_affine_koszul,
    _torsion_transfer_residual,
    admissibility_locality_residual,
    alpha_flat_symmetry_residual,
)
from leibniz_geo.tensor import Components, ETensor
from conftest import (
    classical_christoffel,
    conjugate_pair,
    count_cancels,
    dense,
    dg_of,
    eta_compatible_connection,
    make_rng,
    random_connection,
    random_metric,
    random_polynomial,
    store,
    zeros_array,
)

ALPHAS = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]


def instances(count, seed):
    """Deterministic (A, g, conn) instances over tangent(2) and courant(1)."""
    rng = make_rng(seed)
    out = []
    for index in range(count):
        if index % 2 == 0:
            A = tangent(2)
            conn = random_connection(A, rng, degree=1)
        else:
            A = courant(1)
            conn = random_connection(A, rng, degree=1)
        out.append((A, random_metric(A, rng), conn))
    return out


def test_conjugation_is_involution_and_conjugate():
    for _, g, conn in instances(25, seed=101):
        dg = dg_of(conn, g)
        conn_star = conjugate_connection(g, conn, dg)
        assert conjugation_residual(g, conn, conn_star, dg).is_zero
        back = conjugate_connection(g, conn_star, dg)
        assert difference_tensor(conn, back).is_zero


def test_nonmetricity_difference_identity():
    # Q(nabla, g) = -Q(nabla*, g) = g(Delta(nabla*, nabla)(u, v), w).
    for A, g, conn in instances(10, seed=103):
        dg = dg_of(conn, g)
        conn_star = conjugate_connection(g, conn, dg)
        Q = nonmetricity(conn, g, dg)
        Q_star = nonmetricity(conn_star, g, dg)
        assert (Q + Q_star).is_zero
        delta = difference_tensor(conn_star, conn)
        r = A.rank
        for a, b, c in itertools.product(range(r), repeat=3):
            expected = sum(
                (delta.comps[e, a, b] * g.matrix[e, c] for e in range(r)), A.zero()
            )
            assert (Q.comps[a, b, c] - expected).is_zero


def test_mean_connection_is_metric_compatible():
    for _, g, conn in instances(10, seed=107):
        pair = conjugate_pair(g, conn)
        assert nonmetricity(pair.mean, g, pair.dg).is_zero


def test_relative_torsion_sum_identity():
    # T(nabla, nabla*) + T(nabla*, nabla) = T(nabla) + T(nabla*).
    for _, g, conn in instances(10, seed=109):
        conn_star = conjugate_connection(g, conn, dg_of(conn, g))
        rel = relative_torsion(conn, conn_star)
        rel_star = relative_torsion(conn_star, conn)
        total = torsion(conn) + torsion(conn_star)
        assert (rel + rel_star - total).is_zero


def test_relative_torsion_antisymmetry_for_admissible_pairs():
    A = courant(1)
    eta = courant_pairing(A)
    rng = make_rng(113)
    found = 0
    for _ in range(10):
        conn = eta_compatible_connection(A, eta, rng)
        dg = dg_of(conn, eta)
        conn_star = conjugate_connection(eta, conn, dg)
        if not conn_star.admissibility.is_zero:
            continue
        found += 1
        rel = relative_torsion(conn, conn_star)
        rel_star = relative_torsion(conn_star, conn)
        r = A.rank
        for a, b, c in itertools.product(range(r), repeat=3):
            assert (rel.comps[a, b, c] + rel_star.comps[a, c, b]).is_zero
        assert admissibility_locality_residual(ConjugatePair(eta, conn, conn_star, dg)).is_zero
    assert found > 0


def test_levi_civita_self_pair_is_strongly_conjugate():
    A = tangent(2)
    x1 = A.x(1)
    g = EMetric([[A.one(), A.zero()], [A.zero(), x1 * x1]], A.coords)
    lc = levi_civita_solve(A, g)
    pair = conjugate_pair(g, lc)
    assert difference_tensor(pair.nabla, pair.nabla_star).is_zero
    assert pair.relative_torsion.is_zero
    assert torsion(lc).is_zero
    assert nonmetricity(lc, g, dg_of(lc, g)).is_zero


def test_generic_pair_is_not_strongly_conjugate():
    found_failing = False
    for _, g, conn in instances(6, seed=127):
        pair = conjugate_pair(g, conn)
        if not pair.relative_torsion.is_zero:
            found_failing = True
    assert found_failing


def test_strong_conjugacy_forces_levi_civita():
    # Search the instance pool: every strongly conjugate admissible pair must
    # be torsion-free, metric-compatible, and self-conjugate.
    for _, g, conn in instances(25, seed=131):
        pair = conjugate_pair(g, conn)
        strong = pair.relative_torsion.is_zero
        admissible = (
            pair.nabla.admissibility.is_zero
            and pair.nabla_star.admissibility.is_zero
        )
        if strong and admissible:
            assert torsion(pair.nabla).is_zero
            assert nonmetricity(pair.nabla, g, dg_of(pair.nabla, g)).is_zero
            assert difference_tensor(pair.nabla, pair.nabla_star).is_zero


def symmetric_tensor(A, rng, degree=0):
    r = A.rank
    comps = zeros_array((r, r, r), A.coords)
    values = {}
    for idx in itertools.combinations_with_replacement(range(r), 3):
        values[idx] = random_polynomial(A, rng, degree)
    for idx in itertools.product(range(r), repeat=3):
        comps[idx] = values[tuple(sorted(idx))]
    return ETensor(0, 3, r, A.coords, store(comps))


def test_statistical_structure_invariants_enforced():
    A = tangent(2)
    rng = make_rng(137)
    g = random_metric(A, rng, constant=True)
    bad_C = Components((2, 2, 2), A.coords, {(0, 0, 1): A.one()})
    with pytest.raises(ValueError):
        StatisticalStructure(g, ETensor(0, 3, 2, A.coords, bad_C), ETensor.zeros(1, 2, 2, A.coords))
    bad_B = Components((2, 2, 2), A.coords, {(0, 0, 0): A.one()})
    with pytest.raises(ValueError):
        StatisticalStructure(g, ETensor.zeros(0, 3, 2, A.coords), ETensor(1, 2, 2, A.coords, bad_B))


def test_statistical_solve_matches_manifold_oracle():
    A = tangent(2)
    rng = make_rng(139)
    half = ScalarField.constant(Fraction(1, 2), A.coords)
    for _ in range(3):
        g = random_metric(A, rng, constant=True)
        C = symmetric_tensor(A, rng, degree=0)
        B = ETensor.zeros(1, 2, 2, A.coords)
        pair = statistical_solve(A, StatisticalStructure(g, C, B))
        # Oracle: Gamma = classical Levi-Civita + (1/2) g^{ad} C_{bcd}.
        lc = classical_christoffel(A, g)
        r = A.rank
        for a, b, c in itertools.product(range(r), repeat=3):
            correction = sum(
                (g.inverse[a, d] * C.comps[b, c, d] for d in range(r)), A.zero()
            )
            expected = lc.gamma[a, b, c] + correction * half
            assert (pair.nabla.gamma[a, b, c] - expected).is_zero
        # Postconditions.
        assert (nonmetricity(pair.nabla, g, dg_of(pair.nabla, g)) + C).is_zero
        assert torsion(pair.nabla).is_zero
        assert (torsion(pair.nabla_star) - B).is_zero
        assert conjugation_residual(g, pair.nabla, pair.nabla_star, dg_of(pair.nabla, g)).is_zero


def test_trivial_statistical_structure_returns_levi_civita_pair():
    A = tangent(2)
    x1 = A.x(1)
    g = EMetric([[A.one(), A.zero()], [A.zero(), x1 * x1]], A.coords)
    C = ETensor.zeros(0, 3, 2, A.coords)
    B = ETensor.zeros(1, 2, 2, A.coords)
    pair = statistical_solve(A, StatisticalStructure(g, C, B))
    lc = levi_civita_solve(A, g)
    assert difference_tensor(pair.nabla, lc).is_zero
    assert difference_tensor(pair.nabla_star, lc).is_zero


def test_nonzero_B_requires_bracket_support():
    # With locality zero the two modified brackets coincide, so any nonzero B
    # violates the bracket-difference compatibility condition.
    A = tangent(2)
    rng = make_rng(149)
    g = random_metric(A, rng, constant=True)
    C = symmetric_tensor(A, rng, degree=0)
    raw = zeros_array((2, 2, 2), A.coords)
    raw[0, 0, 1] = A.one()
    raw[0, 1, 0] = -A.one()
    B = ETensor(1, 2, 2, A.coords, store(raw))
    with pytest.raises(CompatibilityFailure):
        statistical_solve(A, StatisticalStructure(g, C, B))


def tangent3_statistical_structure():
    """A tangent(3) statistical structure shaped like the benchmark's draws:
    g_aa = c_a + s_a x_a, g_12 = +-1, a constant totally symmetric C and B = 0."""
    A = tangent(3)
    x1, x2, x3 = (A.x(i) for i in (1, 2, 3))
    g = EMetric(
        [[A.field(2) + x1, -A.one(), A.zero()], [-A.one(), A.field(3) - x2, A.zero()],
         [A.zero(), A.zero(), A.one() + x3]],
        A.coords,
    )  # fmt: skip
    values = {key: A.field((-2, -1, 1, 2)[sum(key) % 4]) for key in
              itertools.combinations_with_replacement(range(3), 3)}  # fmt: skip
    C = Components(
        (3, 3, 3), A.coords,
        {idx: values[tuple(sorted(idx))] for idx in itertools.product(range(3), repeat=3)},
    )  # fmt: skip
    return A, StatisticalStructure(g, ETensor(0, 3, 3, A.coords, C), ETensor.zeros(1, 2, 3, A.coords))


def test_a_solved_pair_is_checked_conjugate_without_a_gcd(monkeypatch):
    A, S = tangent3_statistical_structure()
    pair = statistical_solve(A, S)
    assert any(not v.frac.denom.is_one for v in pair.nabla.gamma.entries.values())
    calls = count_cancels(monkeypatch)
    assert conjugation_residual(S.g, pair.nabla, pair.nabla_star, dg_of(pair.nabla, S.g)).is_zero
    assert calls == []


def test_statistical_solve_refuses_a_pair_that_is_not_conjugate(monkeypatch):
    # Perturb one coefficient of the solved nabla*: the locality of tangent(3)
    # is zero, so the bracket-difference condition still holds, and only the
    # conjugation check of the pair can refuse it.
    A, S = tangent3_statistical_structure()
    solve = statgeo._solve_affine_koszul

    def perturbed(*args):
        nabla, nabla_star = solve(*args)
        bump = Components((3, 3, 3), A.coords, {(0, 1, 2): A.x(1) / (A.one() + A.x(3))})
        return nabla, EConnection(A, nabla_star.gamma + bump)

    monkeypatch.setattr(statgeo, "_solve_affine_koszul", perturbed)
    with pytest.raises(InvalidStructure, match="not conjugate"):
        statistical_solve(A, S)


def test_koszul_solve_on_courant_with_generic_metric():
    # The implicit self-consistent system is solvable away from the canonical
    # pairing; with no statistical source it yields the Levi-Civita data.
    A = courant(1)
    rng = make_rng(150)
    g = random_metric(A, rng, constant=True)
    (nabla,) = _solve_affine_koszul(A, g, Components((A.rank,) * 3, A.coords))
    assert torsion(nabla).is_zero
    assert nonmetricity(nabla, g, dg_of(nabla, g)).is_zero
    lc = levi_civita_solve(A, g)
    assert difference_tensor(nabla, lc).is_zero


def test_quasi_statistical_transfer():
    # A statistical-solve pair gives a quasi-statistical doublet whose
    # conjugate torsion equals the modified-bracket difference.
    A = tangent(2)
    rng = make_rng(151)
    g = random_metric(A, rng, constant=True)
    C = symmetric_tensor(A, rng, degree=0)
    pair = statistical_solve(
        A, StatisticalStructure(g, C, ETensor.zeros(1, 2, 2, A.coords))
    )
    T = pair.nabla.torsion
    Q = nonmetricity(pair.nabla, g, dg_of(pair.nabla, g))
    assert _quasi_statistical_residual(g, Q, T).is_zero
    doublet = conjugate_pair(g, pair.nabla)
    assert _torsion_transfer_residual(doublet).is_zero


def test_alpha_family_endpoints_and_laws():
    for A, g, conn in instances(4, seed=157):
        pair = conjugate_pair(g, conn)
        assert difference_tensor(alpha_connection(pair, 1), pair.nabla_star).is_zero
        assert difference_tensor(alpha_connection(pair, -1), pair.nabla).is_zero
        assert difference_tensor(alpha_connection(pair, 0), pair.mean).is_zero
        Q = nonmetricity(pair.nabla, g, pair.dg)
        for alpha in ALPHAS:
            conn_alpha = alpha_connection(pair, alpha)
            # Conjugation flips the sign of alpha.
            conj = conjugate_connection(g, conn_alpha, pair.dg)
            assert difference_tensor(conj, alpha_connection(pair, -alpha)).is_zero
            # Torsion interpolates linearly.
            s = ScalarField.constant((1 + alpha) / 2, A.coords)
            t = ScalarField.constant((1 - alpha) / 2, A.coords)
            T, T_star = torsion(pair.nabla), torsion(pair.nabla_star)
            expected_T = T_star.scale(s) + T.scale(t)
            assert (torsion(conn_alpha) - expected_T).is_zero
            # Nonmetricity scales by -alpha.
            factor = ScalarField.constant(alpha, A.coords)
            assert (nonmetricity(conn_alpha, g, pair.dg) + Q.scale(factor)).is_zero


def test_alpha_curvature_decomposition():
    for _, g, conn in instances(4, seed=163):
        pair = conjugate_pair(g, conn)
        for alpha in ALPHAS:
            assert alpha_curvature_residual(pair, alpha).is_zero


def test_alpha_curvature_symmetry_for_flat_pairs():
    # A Hessian metric with the coordinate-flat connection gives a dually
    # flat pair: the conjugate of Gamma = 0 is flat as well.
    A = tangent(2)
    phi_11 = A.field("2*x2 + 2")
    phi_12 = A.field("2*x1")
    phi_22 = A.field("2")
    g = EMetric([[phi_11, phi_12], [phi_12, phi_22]], A.coords)
    flat = EConnection(A, ETensor.zeros(1, 2, 2, A.coords).comps)
    pair = conjugate_pair(g, flat)
    assert curvature(pair.nabla).is_zero
    assert curvature(pair.nabla_star).is_zero
    for alpha in ALPHAS:
        assert alpha_flat_symmetry_residual(pair, alpha).is_zero


def test_ssp5_propagates_unexpected_errors(monkeypatch):
    doc = load_model(Path(__file__).resolve().parent.parent / "models" / "so3.model")

    def broken(*args, **kwargs):
        raise RuntimeError("injected bug")

    monkeypatch.setattr(checks, "statistical_solve", broken)
    with pytest.raises(RuntimeError, match="injected bug"):
        checks.run_check("SSp5", doc)


# -- derived objects of a pair ------------------------------------------------

MODELS = Path(__file__).resolve().parent.parent / "models"


def test_cached_pair_objects_are_read_only():
    A, g, conn = instances(1, seed=171)[0]
    pair = conjugate_pair(g, conn)
    nabla, star = pair.nabla, pair.nabla_star
    assert nabla.curvature is nabla.curvature
    assert alpha_connection(pair, Fraction(1, 2)) is alpha_connection(pair, Fraction(1, 2))
    # The alpha = -1 connection is its own object, never nabla, so it never
    # shares nabla's cached objects.
    assert alpha_connection(pair, -1) is not nabla
    assert alpha_connection(pair, -1).curvature is not nabla.curvature
    tensors = [
        nabla.bracket,
        star.projected_bracket,
        nabla.torsion,
        nabla.curvature,
        star.curvature,
        pair.difference,
        pair.nonmetricity,
        pair.relative_torsion,
    ]
    # A second connection over the same coefficients derives its own objects.
    alone = EConnection(A, conn.gamma)
    tensors += [
        alone.bracket,
        alone.projected_bracket,
        alone.torsion,
        alone.projected_torsion,
        alone.curvature,
    ]
    arrays = [tensor.comps for tensor in tensors]
    arrays += [alpha_connection(pair, 2).gamma, pair.mean.gamma]
    for array in arrays:
        with pytest.raises(TypeError):
            array[(0,) * len(array.shape)] = A.one()


def _count_calls(monkeypatch, owner, name):
    """Record (args, kwargs, result) of every call of owner.name, through every
    binding of it in the package (owner is a module or a class)."""
    original = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    modules = [mod for mod in list(sys.modules.values()) if mod.__name__.startswith("leibniz_geo")]
    for target in [owner, *modules]:
        if getattr(target, name, None) is original:
            monkeypatch.setattr(target, name, counting)
    return calls


# modified_bracket_coeffs builds in one run_all: one per (connection object,
# projected) input that some check reads.
BRACKET_BUILDS = {"courant1": 18, "so3": 20, "tangent2_hyperbolic": 19, "tangent2_polar": 38}


@pytest.mark.parametrize("name", sorted(BRACKET_BUILDS))
def test_check_run_derives_each_object_once_per_pair(monkeypatch, name):
    doc = load_model(MODELS / f"{name}.model")
    connections = len(doc.connections)
    pairs = len(doc.metrics) * connections
    # SSp11 builds R(nabla^(alpha)) for every alpha; SS29 adds R(nabla^(-alpha))
    # on flat pairs.
    alphas = set(checks.ALPHA_VALUES)
    negated = {-alpha for alpha in alphas} - alphas
    flat = holonomic = 0
    for g in doc.metrics.values():
        for conn in doc.connections.values():
            dg = dg_of(conn, g)
            star = conjugate_connection(g, conn, dg)
            flat += curvature(conn).is_zero and curvature(star).is_zero
            holonomic += ConjugatePair(g, conn, star, dg).holonomic
    alpha_curvatures = pairs * len(alphas) + flat * len(negated)

    curvatures = _count_calls(monkeypatch, connection, "curvature")
    conjugates = _count_calls(monkeypatch, statgeo, "conjugate_connection")
    torsions = _count_calls(monkeypatch, connection, "torsion")
    brackets = _count_calls(monkeypatch, connection, "modified_bracket_coeffs")
    derived_brackets = _count_calls(monkeypatch, EConnection, "_bracket")
    theorems = _count_calls(monkeypatch, checks, "fundamental_theorem_residual")

    def projected_torsions():
        return [args for args, kwargs, _ in torsions if kwargs.get("projected", args[1:] == (True,))]

    def counts():
        return [len(curvatures), len(conjugates), len(projected_torsions()), len(brackets),
                len(derived_brackets), len(theorems)]

    checks.run_all(doc)
    # One R per connection: the document's, their conjugates, the alpha family.
    assert len({id(args[0]) for args, _, _ in curvatures}) == len(curvatures)
    assert len(curvatures) == connections + pairs + alpha_curvatures
    # One conjugate per pair, plus the conjugate of each alpha-connection (SSp10).
    assert len(conjugates) == pairs * (1 + len(checks.ALPHA_VALUES))
    # T-hat of the document connections only, one each.
    assert len(projected_torsions()) == connections
    # Each (connection, projected) bracket once, and every one built by a
    # connection's own cached property.
    kinds = [(args[0], kwargs.get("projected", args[1:] == (True,))) for args, kwargs, _ in brackets]
    inputs = {(id(conn), projected) for conn, projected in kinds}
    assert len(inputs) == len(brackets) == BRACKET_BUILDS[name]
    assert len(derived_brackets) == len(brackets)
    # Admissibility of each document connection and of each conjugate is read
    # from its plain bracket.  A check call works on fresh connections that
    # share the document's coefficient stores.
    documents = {id(conn.gamma) for conn in doc.connections.values()}
    stars = {id(star.gamma) for args, _, star in conjugates if id(args[1].gamma) in documents}
    assert len(stars) == pairs
    plain = {id(conn.gamma) for conn, projected in kinds if not projected}
    assert documents | stars <= plain
    # One fundamental-theorem residual per holonomic pair, the pairs lp3
    # reports: lp3 and lc4 read the pair's gate first.
    assert len(theorems) == holonomic
    # Nothing outlives the call: checking the document again derives again.
    first = counts()
    checks.run_all(doc)
    assert counts() == [2 * count for count in first]


def test_a_check_run_derives_the_metric_once_per_call(monkeypatch):
    doc = load_model(MODELS / "tangent2_polar.model")
    derivatives = _count_calls(monkeypatch, Algebroid, "anchor_derivative")
    checks.run_all(doc)
    matrices = {id(g.matrix) for g in doc.metrics.values()}
    # Once where the metric is paired with both connections, and every
    # conjugate and nonmetricity of those pairs, their means and their
    # alpha-connections reads it; SSp5's statistical solve derives it for its
    # Koszul system and for its pair.  (Neither pair is a Hessian structure,
    # so lp2 builds no nonmetricity.)
    assert sum(id(args[1]) in matrices for args, _, _ in derivatives) == 3


def test_a_document_checked_again_is_derived_again(monkeypatch):
    doc = load_model(MODELS / "tangent2_polar.model")
    derivatives = _count_calls(monkeypatch, Algebroid, "anchor_derivative")
    normal_forms = []
    original = ScalarField._normal_form

    def counting(frac):
        normal_forms.append(1)
        return original(frac)

    monkeypatch.setattr(ScalarField, "_normal_form", staticmethod(counting))
    per_call = []
    for _ in range(3):
        before = len(derivatives), len(normal_forms)
        checks.run_all(doc)
        per_call.append((len(derivatives) - before[0], len(normal_forms) - before[1]))
    # No derived object outlives its call; the first call may also build
    # what the loaded algebroid keeps (its projected locality).
    assert per_call[0][0] == per_call[1][0] == per_call[2][0] > 0
    assert per_call[1][1] == per_call[2][1] > 0


def test_sse25_endpoints_are_built_by_the_alpha_formula(monkeypatch):
    # Shift every affine combination of connections: an alpha = +-1 endpoint
    # taken from nabla* or nabla instead of alpha_connection would still pass.
    doc = load_model(MODELS / "so3.model")
    combine = EConnection.scale_combination

    def shifted(self, coeff_self, other, coeff_other):
        gamma = dense(combine(self, coeff_self, other, coeff_other).gamma)
        gamma[0, 0, 0] = gamma[0, 0, 0] + 1
        return EConnection(self.algebroid, store(gamma))

    monkeypatch.setattr(EConnection, "scale_combination", shifted)
    results = checks.run_check("SSe25", doc)
    status = {result.check.split(":")[-1]: result.status for result in results}
    assert status["alpha=1-is-conjugate"] == "fail"
    assert status["alpha=-1-is-nabla"] == "fail"
    assert status["alpha=0-is-mean"] == "pass"


# The checks built on the projected modified bracket; lc3 is reported by lp2.
PROJECTOR_CHECKS = ("eb14", "SSp11", "SS29", "lp1", "lp2", "lc3", "lp3", "lc1", "lc2", "lc4")


@pytest.mark.parametrize("check_id", PROJECTOR_CHECKS)
def test_a_check_that_needs_the_projector_is_one_not_applicable_record_without_it(check_id):
    document = json.loads((MODELS / "courant1.model").read_text())
    del document["projector"]
    results = checks.run_check(check_id, parse_model_text(json.dumps(document)))
    label = "lp2" if check_id == "lc3" else check_id
    assert results == [checks.CheckResult(label, "not-applicable", note="no locality projector")]
