"""Shared oracles and deterministic instance generators for the test suite.

The classical Christoffel/Riemann formulas here are written directly from
the textbook coordinate expressions, independently of the library's Koszul
solver, so the two routes only agree if both are correct.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from fractions import Fraction

import numpy as np
from sympy.polys.rings import PolyElement

from leibniz_geo import ConjugatePair, EConnection, EMetric, ScalarField, conjugate_connection
from leibniz_geo.cli import main
from leibniz_geo.tensor import ETensor, object_array


def run_cli(*argv):
    """(exit code, stdout bytes, stderr bytes) of the command line ``leibniz-geo argv``,
    run in this process through ``cli.main``."""
    out, err = (
        io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="", write_through=True)
        for _ in range(2)
    )
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    return code, out.buffer.getvalue(), err.buffer.getvalue()


def count_cancels(monkeypatch):
    """A list that grows by one on every ``PolyElement.cancel`` call (a gcd
    cancellation) for the rest of the test."""
    calls = []
    original = PolyElement.cancel

    def counting(f, g):
        calls.append(1)
        return original(f, g)

    monkeypatch.setattr(PolyElement, "cancel", counting)
    return calls


def dg_of(conn, g):
    """rho(X_a)(g_bc) on conn's algebroid, the metric derivative that the
    conjugate, the conjugation residual and the nonmetricity read."""
    return conn.algebroid.anchor_derivative(g.matrix)


def conjugate_pair(g, conn):
    """The pair of conn and its conjugate with respect to g."""
    dg = dg_of(conn, g)
    return ConjugatePair(g, conn, conjugate_connection(g, conn, dg), dg)


def zeros_array(shape, coords):
    """A writable numpy object array of zero fields, for building test inputs."""
    arr = np.empty(shape, dtype=object)
    arr[...] = ScalarField.constant(0, coords)
    return arr


def store(arr, coords=None):
    """The engine's component store of a numpy object array (or nested lists)."""
    return object_array(np.asarray(arr, dtype=object).tolist(), coords)


def dense(comps):
    """A component store as a numpy object array."""
    arr = np.empty(comps.shape, dtype=object)
    for idx in np.ndindex(comps.shape):
        arr[idx] = comps[idx]
    return arr


def array_is_zero(arr):
    return all(entry.is_zero for entry in np.asarray(arr, dtype=object).flat)


def classical_christoffel(A, g):
    """Gamma^a_{bc} = (1/2) g^{ad} (d_b g_{dc} + d_c g_{bd} - d_d g_{bc})."""
    r = A.rank
    half = ScalarField.constant(Fraction(1, 2), A.coords)
    gamma = zeros_array((r, r, r), A.coords)
    for a, b, c in itertools.product(range(r), repeat=3):
        acc = A.zero()
        for d in range(r):
            acc = acc + g.inverse[a, d] * (
                g.matrix[d, c].diff(b + 1)
                + g.matrix[b, d].diff(c + 1)
                - g.matrix[b, c].diff(d + 1)
            )
        gamma[a, b, c] = acc * half
    return EConnection(A, store(gamma, A.coords))


def classical_riemann(A, conn):
    """R^a_{bcd} = d_b G^a_{cd} - d_c G^a_{bd} + G^e_{cd} G^a_{be} - G^e_{bd} G^a_{ce}."""
    r = A.rank
    out = zeros_array((r, r, r, r), A.coords)
    for a, b, c, d in itertools.product(range(r), repeat=4):
        acc = conn.gamma[a, c, d].diff(b + 1) - conn.gamma[a, b, d].diff(c + 1)
        for e in range(r):
            acc = acc + conn.gamma[e, c, d] * conn.gamma[a, b, e]
            acc = acc - conn.gamma[e, b, d] * conn.gamma[a, c, e]
        out[a, b, c, d] = acc
    return ETensor(1, 3, r, A.coords, store(out, A.coords))


def random_polynomial(A, rng, degree=2):
    """Deterministic random polynomial of total degree <= degree."""
    acc = A.field(rng.randint(-2, 2))
    n = A.dim
    if n == 0:
        return acc
    for _ in range(degree):
        term = A.field(rng.randint(-2, 2))
        for _ in range(rng.randint(0, degree)):
            term = term * A.x(rng.randint(1, n))
        acc = acc + term
    return acc


def random_connection(A, rng, degree=2):
    """Connection with deterministic random polynomial coefficients."""
    r = A.rank
    gamma = zeros_array((r, r, r), A.coords)
    for idx in itertools.product(range(r), repeat=3):
        gamma[idx] = random_polynomial(A, rng, degree)
    return EConnection(A, store(gamma, A.coords))


def random_constant_connection(A, rng):
    r = A.rank
    gamma = zeros_array((r, r, r), A.coords)
    for idx in itertools.product(range(r), repeat=3):
        gamma[idx] = A.field(rng.randint(-3, 3))
    return EConnection(A, store(gamma, A.coords))


def random_metric(A, rng, constant=False):
    """Random symmetric metric, diagonally dominated so it stays invertible."""
    r = A.rank
    entries = [[None] * r for _ in range(r)]
    for a in range(r):
        for b in range(a, r):
            value = A.field(rng.randint(-1, 1))
            if not constant and A.dim and rng.random() < 0.4:
                value = value + A.field(rng.randint(-1, 1)) * A.x(rng.randint(1, A.dim))
            entries[a][b] = value
            entries[b][a] = value
    bump = A.field(r + 3)
    for a in range(r):
        entries[a][a] = entries[a][a] + bump
    return EMetric(entries, A.coords)


def eta_compatible_connection(Cour, eta, rng, degree=1):
    """Connection on courant(n) with Q(nabla, eta) = 0 (hence admissible).

    Built from a lowered coefficient array antisymmetric in its last two
    slots: omega_{d b c} = -omega_{d c b}, Gamma^a_{db} = omega_{d b c} eta^{c a}.
    """
    r = Cour.rank
    omega = zeros_array((r, r, r), Cour.coords)
    for d in range(r):
        for b in range(r):
            for c in range(b + 1, r):
                value = random_polynomial(Cour, rng, degree)
                omega[d, b, c] = value
                omega[d, c, b] = -value
    gamma = zeros_array((r, r, r), Cour.coords)
    for a, d, b in itertools.product(range(r), repeat=3):
        gamma[a, d, b] = sum(
            (omega[d, b, c] * eta.inverse[c, a] for c in range(r)), Cour.zero()
        )
    return EConnection(Cour, store(gamma, Cour.coords))


def make_rng(seed):
    return random.Random(seed)


# -- acceptance summary -------------------------------------------------------

_criterion_outcomes = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_"):
        _criterion_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    import sys as _sys

    module = next(
        (m for n, m in _sys.modules.items() if n.endswith("test_acceptance")), None
    )
    registry = getattr(module, "CRITERIA", {}) if module else {}
    terminalreporter.section("acceptance criteria")
    for name in sorted(_criterion_outcomes):
        number, title = registry.get(name, (0, name))
        verdict = "PASS" if _criterion_outcomes[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} ({title}): {verdict}")
