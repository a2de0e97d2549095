"""Exact linear algebra on sympy's sparse DomainMatrix, for matrices given as
rows of ScalarField: over QQ when every entry is constant, over the shared
fraction field Q(coords) otherwise.  Results come back as ScalarField; the
results of one call share each distinct numerator and denominator polynomial.
"""

from __future__ import annotations

from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from .errors import NoSolution, NonUnique
from .scalar import ScalarField, _field


def _domain_matrix(rows):
    """The DomainMatrix of ScalarField rows, and the map of its elements back."""
    coords = rows[0][0].coords
    K = _field(coords).to_domain()
    nonzero = {i: {j: e for j, e in enumerate(row) if not e.is_zero} for i, row in enumerate(rows)}
    domain = QQ if all(e.is_constant for row in nonzero.values() for e in row.values()) else K
    element = (lambda e: e.frac.numer.LC) if domain is QQ else (lambda e: e.frac)
    entries = {i: {j: element(e) for j, e in row.items()} for i, row in nonzero.items() if row}
    zero = ScalarField(K.zero, coords, _normalized=True)  # shared by all zeros of a result
    polys = {}  # one object per distinct numerator or denominator of the results

    def lift(x):
        if not x:
            return zero
        frac = ScalarField._normal_form(K.convert_from(x, domain))
        frac = frac.raw_new(*(polys.setdefault(p, p) for p in (frac.numer, frac.denom)))
        return ScalarField(frac, coords, _normalized=True)

    return DomainMatrix(entries, (len(rows), len(rows[0])), domain), lift


def solve(matrix, *rhs):
    """Solve M x = b exactly for each right-hand side b, with one elimination.

    Returns one solution per b.  Raises what solving them one by one would:
    NoSolution for an inconsistent b, NonUnique (with the dimension of the
    solution set) for a rank-deficient M.
    """
    n_rows, n_cols = len(matrix), len(matrix[0])
    columns = range(n_cols, n_cols + len(rhs))
    augmented, lift = _domain_matrix([[*row, *(b[i] for b in rhs)] for i, row in enumerate(matrix)])
    reduced, pivots = augmented.rref()
    reduced, rank = reduced.to_sdm(), sum(p < n_cols for p in pivots)
    for col in columns:
        if any(col in reduced.get(r, ()) for r in range(rank, n_rows)):
            raise NoSolution("inconsistent linear system")
        if rank < n_cols:
            raise NonUnique(n_cols - rank)
    return [[lift(reduced[r].get(col)) for r in range(n_cols)] for col in columns]


def adj_det(matrix):
    """The adjugate (rows of ScalarField) and the determinant of a square matrix.

    Both come from the characteristic polynomial x^n + c_1 x^(n-1) + ... + c_n
    by Cayley-Hamilton: det = (-1)^n c_n and adj = (-1)^(n-1) q(A) with
    q(A) = A^(n-1) + c_1 A^(n-2) + ... + c_(n-1) I, evaluated by Horner's
    rule.  sympy's ``DomainMatrix.adj_det`` does the same, but it multiplies
    the coefficient into the matrix from the left, which fails on a zero
    coefficient over a polynomial or fraction field (diag(x1, -x1)).
    """
    dm, lift = _domain_matrix(matrix)
    n = len(matrix)
    *head, last = dm.charpoly()
    eye = DomainMatrix.eye(n, dm.domain)
    adjugate = eye
    for c in head[1:]:
        adjugate = dm * adjugate + eye * c
    if n % 2:
        last = -last
    else:
        adjugate = -adjugate
    adjugate, n = adjugate.to_sdm(), range(n)
    return [[lift(adjugate.get(i, {}).get(j)) for j in n] for i in n], lift(last)
