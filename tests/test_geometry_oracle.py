"""Differential tests: the bracket and covariant-derivative homes against the
loop bodies they replaced (``oracle_geometry``).

Torsion, curvature, relative torsion, admissibility and the locality
difference now read the modified brackets of a ``Derived``; nonmetricity and
the Hessian are frame covariant derivatives.  Every component must print the
same as under the old formulas, on the bundled documents (where every
residual vanishes) and on drawn connections of tangent(2) and courant(1)
(where the admissibility and locality-difference residuals do not).
"""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracle_geometry as old
from leibniz_geo import (
    Derived,
    conjugate_connection,
    courant,
    curvature,
    hessian,
    nonmetricity,
    relative_torsion,
    tangent,
    torsion,
)
from leibniz_geo.connection import EConnection
from leibniz_geo.hessian import _default_probes
from leibniz_geo.model import load_model
from leibniz_geo.statgeo import admissibility_locality_residual
from leibniz_geo.tensor import zeros_array
from conftest import make_rng, random_connection, random_metric

MODELS = sorted((Path(__file__).resolve().parent.parent / "models").glob("*.model"))


def same(new, reference):
    """Component strings agree (the normal form is canonical)."""
    assert (new.q, new.r) == (reference.q, reference.r)
    assert [str(x) for x in new.comps.flat] == [str(x) for x in reference.comps.flat]


def same_residual(new, reference):
    assert new.name == reference.name
    same(new.tensor, reference.tensor)


def compare(A, metrics, connections, functions):
    """Every replaced formula on each connection, its conjugates and their pairs."""
    pairs = [
        (g, conn, conjugate_connection(A, g, conn)) for g in metrics for conn in connections
    ]
    every = list(connections) + [star for _, _, star in pairs]
    derived = {conn: Derived(A, conn) for conn in every}
    for conn in every:
        D = derived[conn]
        admissibility = old.admissibility_residual(A, conn)
        same_residual(D.admissibility, admissibility)
        assert D.admissible == admissibility.is_zero
        same(torsion(D), old.torsion(A, conn))
        if A.projector is not None:
            same(torsion(D, projected=True), old.torsion(A, conn, projected=True))
            same(curvature(D), old.curvature(A, conn))
        for g in metrics:
            same(nonmetricity(A, conn, g), old.nonmetricity(A, conn, g))
        for f in functions:
            same(hessian(A, conn, f), old.hessian(A, conn, f))
    for _, conn, star in pairs:
        D, D_star = derived[conn], derived[star]
        same(relative_torsion(D, D_star), old.relative_torsion(A, conn, star))
        same(relative_torsion(D_star, D), old.relative_torsion(A, star, conn))
        same_residual(
            admissibility_locality_residual(D, D_star),
            old.admissibility_locality_residual(A, conn, star),
        )


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_bundled_documents_match_the_old_formulas(path):
    doc = load_model(path)
    A = doc.algebroid
    functions = list(doc.functions.values()) + _default_probes(A)[:3]
    compare(A, list(doc.metrics.values()), list(doc.connections.values()), functions)


DRAWN = [tangent(2), courant(1)]


@pytest.mark.parametrize("A, nonzero", zip(DRAWN, [False, True]), ids=["tangent2", "courant1"])
def test_fixed_draws_with_nonzero_residuals_match(A, nonzero):
    rng = make_rng(509)
    connections = [random_connection(A, rng, degree=1) for _ in range(3)]
    metric = random_metric(A, rng)
    if nonzero:
        # The comparison must see nonzero admissibility and SSe8 residuals.
        D = Derived(A, connections[0])
        D_star = Derived(A, conjugate_connection(A, metric, connections[0]))
        assert not D.admissibility.is_zero
        assert not admissibility_locality_residual(D, D_star).is_zero
    compare(A, [metric], connections, [A.x(1) * A.x(1) + A.x(1)])


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
        return EConnection(gamma)

    return st.lists(affine, min_size=r**3, max_size=r**3).map(build)


@pytest.mark.parametrize("A", DRAWN, ids=["tangent2", "courant1"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_drawn_connections_match_the_old_formulas(A, data):
    conn = data.draw(drawn_connections(A))
    metric = random_metric(A, make_rng(data.draw(st.integers(0, 2**16))))
    f = A.x(1) * A.x(1) * A.x(A.dim) + A.field(data.draw(st.integers(-2, 2))) * A.x(1)
    compare(A, [metric], [conn], [f])
