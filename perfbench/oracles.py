"""Correctness oracles computed apart from the program.

Nothing here uses ``ScalarField`` arithmetic: the program's answers are read
back through their canonical strings and compared with formulas evaluated in
plain sympy or with ``fractions.Fraction``.  Each function returns a list of
mismatch descriptions; an empty list means the answer is accepted.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy as sp


def parse(text, symbols):
    """A canonical expression string of the program as a sympy expression."""
    return sp.sympify(str(text).replace("^", "**"), locals=dict(symbols))


def christoffel(metric, coords):
    """Gamma^a_{bc} = 1/2 g^{ad} (d_b g_{dc} + d_c g_{db} - d_d g_{bc}) in plain sympy.

    ``metric`` is a square list of sympy expressions in the symbols ``coords``.
    """
    r = len(metric)
    g = sp.Matrix(metric)
    inv = g.inv()
    gamma = [[[sp.Integer(0)] * r for _ in range(r)] for _ in range(r)]
    for a, b, c in itertools.product(range(r), repeat=3):
        acc = sp.Integer(0)
        for d in range(r):
            acc += inv[a, d] * (
                sp.diff(g[d, c], coords[b])
                + sp.diff(g[d, b], coords[c])
                - sp.diff(g[b, c], coords[d])
            )
        gamma[a][b][c] = sp.cancel(acc / 2)
    return gamma


def statistical(metric, coords, C):
    """Manifold statistical pair: Gamma(+-) = Christoffel +- 1/2 g^{ad} C_{bcd}.

    The "+" connection has nonmetricity Q = -C, matching the program's
    ``statistical_solve`` convention for ``nabla``; "-" is its conjugate.
    """
    r = len(metric)
    inv = sp.Matrix(metric).inv()
    base = christoffel(metric, coords)
    plus = [[[None] * r for _ in range(r)] for _ in range(r)]
    minus = [[[None] * r for _ in range(r)] for _ in range(r)]
    for a, b, c in itertools.product(range(r), repeat=3):
        shift = sum((inv[a, d] * C[b][c][d] for d in range(r)), sp.Integer(0)) / 2
        plus[a][b][c] = sp.cancel(base[a][b][c] + shift)
        minus[a][b][c] = sp.cancel(base[a][b][c] - shift)
    return plus, minus


def compare_gamma(got, expected, symbols, label):
    """Entrywise comparison of a program connection (strings) with sympy expressions."""
    r = len(expected)
    errors = []
    for a, b, c in itertools.product(range(r), repeat=3):
        diff = sp.cancel(parse(got[a][b][c], symbols) - expected[a][b][c])
        if diff != 0:
            errors.append(f"{label}: Gamma^{a + 1}_{b + 1}{c + 1} differs by {diff}")
    return errors


# -- courant(n) with a constant metric, in Fraction arithmetic ----------------


def courant_eta(n):
    """The split pairing of courant(n): vector block i pairs with form block n + i."""
    r = 2 * n
    return [[Fraction(1 if abs(a - b) == n else 0) for b in range(r)] for a in range(r)]


def courant_locality(n):
    """L^{ad}_{ec} = eta_{ec} eta^{da}; eta is an involution, so eta^{-1} = eta."""
    eta = courant_eta(n)
    r = 2 * n
    return {
        (a, d, e, c): eta[e][c] * eta[d][a]
        for a, d, e, c in itertools.product(range(r), repeat=4)
        if eta[e][c] and eta[d][a]
    }


def courant_levi_civita(gamma, metric, n):
    """Torsion-free and metric-compatible on courant(n) for a constant metric.

    T^a_{bc} = G^a_{bc} - G^a_{cb} - c^a_{bc} + G^e_{db} L^{ad}_{ec} with c = 0,
    Q_{abc} = -G^d_{ab} g_{dc} - G^d_{ac} g_{bd}  (rho of a constant is zero).
    ``gamma`` and ``metric`` hold Fractions.
    """
    r = 2 * n
    L = courant_locality(n)
    errors = []
    for a, b, c in itertools.product(range(r), repeat=3):
        t = gamma[a][b][c] - gamma[a][c][b]
        for d, e in itertools.product(range(r), repeat=2):
            weight = L.get((a, d, e, c))
            if weight:
                t += gamma[e][d][b] * weight
        if t != 0:
            errors.append(f"torsion T^{a + 1}_{b + 1}{c + 1} = {t}")
        q = -sum(gamma[d][a][b] * metric[d][c] + gamma[d][a][c] * metric[b][d] for d in range(r))
        if q != 0:
            errors.append(f"nonmetricity Q_{a + 1}{b + 1}{c + 1} = {q}")
    return errors


def fraction_determinant(matrix):
    """Exact determinant by Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


# -- check-all reports ----------------------------------------------------------


def check_records(records, expected, label):
    """Every check is a theorem: each record passes or is not applicable,
    and which records apply matches the committed expectation."""
    errors = [
        f"{label}: {rec['check']} is {rec['status']}"
        for rec in records
        if rec["status"] not in ("pass", "not-applicable")
    ]
    got = [[rec["check"], rec["status"]] for rec in records]
    if got != expected:
        errors.append(f"{label}: applicability differs from the expected file")
    return errors
