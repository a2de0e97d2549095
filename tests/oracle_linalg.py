"""Reference solver: the hand-written Gauss-Jordan elimination, kept as an oracle.

This is the linear algebra that ``leibniz_geo.linalg`` replaced, kept
unchanged apart from its imports.  The differential tests in
``test_linalg_oracle.py`` compare the package's solver with it.

The original module documentation follows.

Exact Gaussian elimination over the rational-function field.

Matrices are lists of lists (or object ndarrays) of ScalarField.  Pivots are
chosen among the nonzero candidates with the smallest total degree, which
keeps intermediate fractions small; every step is an exact field operation,
so the results are exact and deterministic.
"""

from __future__ import annotations

from leibniz_geo.errors import NoSolution, NonUnique


def _rows(matrix):
    return [[entry for entry in row] for row in matrix]


def solve(matrix, rhs):
    """Solve M x = b exactly.

    Raises NoSolution for an inconsistent system and NonUnique (with the
    dimension of the solution set) for a rank-deficient one.
    """
    m = _rows(matrix)
    b = list(rhs)
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivot_cols = []
    row = 0
    for col in range(n_cols):
        candidates = [r for r in range(row, n_rows) if not m[r][col].is_zero]
        if not candidates:
            continue
        pivot_row = min(candidates, key=lambda r: m[r][col].total_degree())
        m[row], m[pivot_row] = m[pivot_row], m[row]
        b[row], b[pivot_row] = b[pivot_row], b[row]
        pivot = m[row][col]
        for r in range(n_rows):
            if r == row or m[r][col].is_zero:
                continue
            factor = m[r][col] / pivot
            for c in range(col, n_cols):
                m[r][c] = m[r][c] - factor * m[row][c]
            b[r] = b[r] - factor * b[row]
        pivot_cols.append(col)
        row += 1
        if row == n_rows:
            break
    for r in range(row, n_rows):
        if not b[r].is_zero:
            raise NoSolution("inconsistent linear system")
    if len(pivot_cols) < n_cols:
        raise NonUnique(n_cols - len(pivot_cols))
    zero = None
    for entries in matrix:
        for entry in entries:
            zero = entry - entry
            break
        break
    solution = [zero] * n_cols
    for r, col in enumerate(pivot_cols):
        solution[col] = b[r] / m[r][col]
    return solution


def determinant(matrix):
    """Exact determinant via fraction-field elimination."""
    m = _rows(matrix)
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    det = None
    sign = 1
    for col in range(n):
        candidates = [r for r in range(col, n) if not m[r][col].is_zero]
        if not candidates:
            return m[0][0] - m[0][0]
        pivot_row = min(candidates, key=lambda r: m[r][col].total_degree())
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        det = pivot if det is None else det * pivot
        for r in range(col + 1, n):
            if m[r][col].is_zero:
                continue
            factor = m[r][col] / pivot
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    return det if sign == 1 else -det


def invert(matrix):
    """Exact inverse; raises NonUnique/NoSolution via solve on a singular input."""
    n = len(matrix)
    one = None
    zero = None
    sample = matrix[0][0]
    one = sample / sample if not sample.is_zero else None
    if one is None:
        for row in matrix:
            for entry in row:
                if not entry.is_zero:
                    one = entry / entry
                    break
            if one is not None:
                break
        if one is None:
            raise NonUnique(n)
    zero = one - one
    columns = []
    for j in range(n):
        rhs = [one if i == j else zero for i in range(n)]
        columns.append(solve(matrix, rhs))
    return [[columns[j][i] for j in range(n)] for i in range(n)]
