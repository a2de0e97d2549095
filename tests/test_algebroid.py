"""Built-in structures, bracket evaluation, axioms, and admissibility.

Sections are bracketed through the two Leibniz rules by the independent
section-level evaluator of ``oracle_geometry``; the engine works on frames.
"""

import itertools

import pytest

from leibniz_geo import (
    courant,
    courant_pairing,
    lie_algebra,
    nonmetricity,
    so3,
    tangent,
)
from leibniz_geo.errors import InvalidStructureConstants, MissingProjector
from oracle_geometry import anchor_apply, bracket_eval
from conftest import (
    dg_of,
    eta_compatible_connection,
    make_rng,
    random_connection,
    random_constant_connection,
    random_polynomial,
)


@pytest.fixture(params=["tangent2", "so3", "courant1"])
def any_builtin(request):
    return {
        "tangent2": tangent(2),
        "so3": so3(),
        "courant1": courant(1),
    }[request.param]


def test_axioms_hold_for_builtins(any_builtin):
    A = any_builtin
    assert A.validate_pre_leibniz().is_zero
    report = A.validate_projector()
    assert report.ok


def test_tangent_bracket_is_vector_field_commutator():
    A = tangent(2)
    x1, x2 = A.x(1), A.x(2)
    u = A.vector([x1 * x2, A.one()])
    v = A.vector([x2, x1])
    w = bracket_eval(A, u, v)
    # [u, v]^i = u^j d_j v^i - v^j d_j u^i for the coordinate frame.
    for i in range(2):
        expected = A.zero()
        for j in range(2):
            expected = expected + u.comps[j] * v.comps[i].diff(j + 1)
            expected = expected - v.comps[j] * u.comps[i].diff(j + 1)
        assert (w.comps[i] - expected).is_zero


def test_courant1_reproduces_dorfman_bracket():
    A = courant(1)
    x = A.x(1)
    # u = X d/dx + xi dx with components (X, xi); same for v.
    cases = [
        ((x, x * x), (A.one(), x)),
        ((x * x, A.one()), (x, x * x * x)),
        ((A.one() + x, x), (x * x, A.one())),
    ]
    for (X, xi), (Y, eta) in cases:
        u = A.vector([X, xi])
        v = A.vector([Y, eta])
        w = bracket_eval(A, u, v)
        vector_part = X * Y.diff(1) - Y * X.diff(1)
        form_part = X * eta.diff(1) + X.diff(1) * eta
        assert (w.comps[0] - vector_part).is_zero
        assert (w.comps[1] - form_part).is_zero


def test_bracket_right_leibniz_rule(any_builtin):
    A = any_builtin
    rng = make_rng(5)
    u = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
    v = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
    f = random_polynomial(A, rng)
    lhs = bracket_eval(A, u, v.scale(f))
    rhs = bracket_eval(A, u, v).scale(f) + v.scale(anchor_apply(A, u, f))
    assert (lhs - rhs).is_zero


def test_bracket_left_leibniz_rule_with_locality(any_builtin):
    A = any_builtin
    rng = make_rng(6)
    u = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
    v = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
    f = random_polynomial(A, rng)
    lhs = bracket_eval(A, u.scale(f), v)
    # [fu, v] = -rho(v)(f) u + f [u, v] + L(Df, u, v)
    locality_term = [A.zero()] * A.rank
    df = A.coboundary(f)
    for a in range(A.rank):
        acc = A.zero()
        for d, e, c in itertools.product(range(A.rank), repeat=3):
            acc = acc + A.locality[a, d, e, c] * df.comps[d] * u.comps[e] * v.comps[c]
        locality_term[a] = acc
    rhs_comps = [
        -anchor_apply(A, v, f) * u.comps[a] + f * bracket_eval(A, u, v).comps[a] + locality_term[a]
        for a in range(A.rank)
    ]
    for a in range(A.rank):
        assert (lhs.comps[a] - rhs_comps[a]).is_zero


def test_anchor_compatibility_on_sections(any_builtin):
    A = any_builtin
    rng = make_rng(7)
    u = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
    v = A.vector([random_polynomial(A, rng) for _ in range(A.rank)])
    f = random_polynomial(A, rng)
    w = bracket_eval(A, u, v)
    lhs = anchor_apply(A, w, f)
    rhs = anchor_apply(A, u, anchor_apply(A, v, f)) - anchor_apply(A, v, anchor_apply(A, u, f))
    assert (lhs - rhs).is_zero


def test_lie_algebra_requires_antisymmetry():
    with pytest.raises(InvalidStructureConstants):
        lie_algebra([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])


def test_so3_structure():
    A = so3()
    assert A.rank == 3 and A.dim == 0
    assert A.bracket[2, 0, 1] == A.one()
    assert A.bracket[2, 1, 0] == -A.one()


def test_locality_hat_requires_projector():
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
        stripped.locality_hat
    with pytest.raises(MissingProjector):
        stripped.locality_hat


def test_locality_hat_is_built_once_and_read_only():
    A = courant(1)
    hat = A.locality_hat
    assert A.locality_hat is hat
    with pytest.raises(TypeError):
        hat[0, 0, 0, 0] = A.one()
    L = A.locality
    for a, d, e, c in itertools.product(range(A.rank), repeat=4):
        expected = sum((A.projector[a, f] * L[f, d, e, c] for f in range(A.rank)), A.zero())
        assert hat[a, d, e, c] == expected


def test_lie_algebra_connections_always_admissible():
    A = so3()
    rng = make_rng(11)
    for _ in range(25):
        conn = random_constant_connection(A, rng)
        assert conn.admissibility.is_zero


def test_courant_admissibility_iff_pairing_compatible():
    A = courant(1)
    eta = courant_pairing(A)
    rng = make_rng(13)
    seen_admissible = seen_not = False
    for _ in range(25):
        if rng.random() < 0.5:
            conn = eta_compatible_connection(A, eta, rng)
        else:
            conn = random_connection(A, rng, degree=2)
        admissible = conn.admissibility.is_zero
        compatible = nonmetricity(conn, eta, dg_of(conn, eta)).is_zero
        assert admissible == compatible
        seen_admissible |= admissible
        seen_not |= not admissible
    assert seen_admissible and seen_not


def test_courant_kernel_sections_are_in_anchor_kernel():
    A = courant(2)
    report = A.validate_projector()
    assert report.ok
    for section in A.kernel_sections:
        for i in range(A.dim):
            acc = sum(
                (section.comps[a] * A.anchor[a, i] for a in range(A.rank)), A.zero()
            )
            assert acc.is_zero
