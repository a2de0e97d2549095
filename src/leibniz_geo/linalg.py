"""Exact linear algebra on sympy's sparse DomainMatrix, for matrices given as
rows of ScalarField: over QQ when every entry is constant, over the shared
fraction field Q(coords) otherwise.  Results come back as ScalarField; the
results of one call share each distinct numerator and denominator polynomial.

A square system is solved block by block where that pays, each distinct
diagonal block inverted once by the Cayley-Hamilton routine that also gives
``adj_det``; any other system by one Gauss-Jordan ``rref`` (``solve``).
"""

from __future__ import annotations

import collections
import math

from sympy.polys.domains import QQ, PolynomialRing
from sympy.polys.matrices import DomainMatrix

from .errors import NoSolution, NonUnique
from .scalar import ScalarField, _Denominators, _field


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
    """Solve M x = b exactly for each right-hand side b.

    Returns one solution per b.  Raises what solving them one by one would:
    NoSolution for an inconsistent b, NonUnique (with the dimension of the
    solution set) for a rank-deficient M.

    A square M is split by ``DomainMatrix.scc`` into diagonal blocks in an
    order that makes it block lower-triangular, and the blocks are solved in
    that order (``_solve_blocks``).  The split is exact for any row order,
    since det M is +-1 times the product of the blocks' determinants; a row
    order that puts a nonzero entry of every row on the diagonal gives the
    finest blocks.  The block nullities do not give M's ([[0, 1], [0, 0]] has
    two singular 1x1 blocks and nullity 1), so a system with a singular block
    is solved by one ``rref`` of [M | b_1 ... b_k], as is one that is one
    block or has a block too rarely met to repay its inverse.
    """
    n_rows, n_cols = len(matrix), len(matrix[0])
    columns = range(n_cols, n_cols + len(rhs))
    augmented, lift = _domain_matrix([[*row, *(b[i] for b in rhs)] for i, row in enumerate(matrix)])
    solutions = _solve_blocks(augmented, n_cols) if n_rows == n_cols else None
    if solutions is not None:
        return [[lift(x) for x in solution] for solution in solutions]
    reduced, pivots = augmented.rref()
    reduced, rank = reduced.to_sdm(), sum(p < n_cols for p in pivots)
    for col in columns:
        if any(col in reduced.get(r, ()) for r in range(rank, n_rows)):
            raise NoSolution("inconsistent linear system")
        if rank < n_cols:
            raise NonUnique(n_cols - rank)
    return [[lift(reduced[r].get(col)) for r in range(n_cols)] for col in columns]


def _solve_blocks(augmented, n):
    """The solutions of [M | b_1 ... b_k] with M square of size n, block by
    block, as lists of domain elements; None when one ``rref`` is to solve
    the system instead.

    Solved unknowns move into the right-hand sides of later blocks: a block B
    is solved for b' = b - (the sum of M_jl x_l over solved l), as
    D adj(D B) b' / det(D B) (``_adj_det``), each unknown cancelled once.
    An inverse costs about as much as m solves of a block of size m, so the
    split is taken only when the copies of every distinct block serve at
    least m right-hand sides.
    """
    rows, domain = augmented.to_sdm(), augmented.domain
    k = augmented.shape[1] - n
    square = {i: m for i, row in rows.items() if (m := {j: v for j, v in row.items() if j < n})}
    blocks = DomainMatrix(square, (n, n), domain).scc()
    if len(blocks) == 1:
        return None
    # A block's key is its rows in block coordinates; with each block taken in
    # index order, the copies of one block share one key.
    blocks = [sorted(block) for block in blocks]
    keys = []
    for block in blocks:
        at = {i: r for r, i in enumerate(block)}
        keys.append(tuple(tuple((at[j], v) for j, v in sorted(square.get(i, {}).items()) if j in at) for i in block))
    copies = collections.Counter(keys)
    if any(copies[key] * k < len(key) for key in copies):
        return None
    inverses = {}
    for key in copies:
        block = {r: dict(row) for r, row in enumerate(key) if row}
        inverses[key] = _adj_det(DomainMatrix(block, (len(key), len(key)), domain))
        if not inverses[key][1]:
            return None
    sums = _Denominators()
    solutions = [[domain.zero] * n for _ in range(k)]
    for block, key in zip(blocks, keys):
        adj, det, scale = inverses[key]
        inside = set(block)
        for col, x in enumerate(solutions, n):
            rhs = [  # per row j of the block, b'_j as signed products
                ([(b,)] if (b := rows.get(j, {}).get(col)) else [])
                + [(-v, x[l]) for l, v in square.get(j, {}).items() if l not in inside and x[l]]
                for j in block
            ]
            for r, i in enumerate(block):
                products = [(a, *f) for c, a in adj.get(r, {}).items() for f in rhs[c]]
                x[i] = _quotient(domain, sums, products, det, scale)
    return solutions


def _quotient(domain, sums, products, det, scale):
    """scale times the sum of the products, divided by det: the products are
    of nonzero elements, over a fraction field each led by a polynomial, and
    are summed over one common denominator and cancelled once."""
    if domain is QQ:
        return sum((math.prod(factors) for factors in products), QQ.zero) / det
    terms = {}  # denominator key -> numerator
    for a, *factors in products:
        key = tuple(sorted(i for f in factors for i in sums.key(f.denom)))
        numer = math.prod((f.numer for f in factors), start=a)
        total = terms.get(key)
        terms[key] = numer if total is None else total + numer
    terms = {key: numer for key, numer in terms.items() if numer}
    summed = sums.common(terms, det) if terms else None
    if summed is None:
        return domain.zero
    numer, denom = summed
    return domain.field.raw_new(*(numer * scale).cancel(denom))


def _adj_det(dm):
    """(adj, det, D) for a square matrix B: the adjugate (an SDM) and the
    determinant of D B, D the product of B's distinct denominators (1 over
    QQ).  Over a fraction field D B is a polynomial matrix, so nothing is
    cancelled here: adj(B) = adj / D^(n-1), det B = det / D^n and
    B^-1 = D adj / det.

    Both come from the characteristic polynomial x^n + c_1 x^(n-1) + ... + c_n
    of D B by Cayley-Hamilton: det = (-1)^n c_n and adj = (-1)^(n-1) q(D B)
    with q(A) = A^(n-1) + c_1 A^(n-2) + ... + c_(n-1) I, evaluated by Horner's
    rule.  sympy's ``DomainMatrix.adj_det`` does the same, but it multiplies
    the coefficient into the matrix from the left, which fails on a zero
    coefficient over a polynomial or fraction field (diag(x1, -x1)).
    """
    if dm.domain is QQ:
        D = QQ.one
    else:
        field, entries = dm.domain.field, dm.to_sdm()
        D = math.prod({f.denom for row in entries.values() for f in row.values()}, start=field.ring.one)
        scaled = {i: {j: f.numer * D.exquo(f.denom) for j, f in row.items()} for i, row in entries.items()}
        dm = DomainMatrix(scaled, dm.shape, PolynomialRing(field.ring))
    n = dm.shape[0]
    *head, last = dm.charpoly()
    eye = DomainMatrix.eye(n, dm.domain)
    adjugate = eye
    for c in head[1:]:
        adjugate = dm * adjugate + eye * c
    if n % 2:
        last = -last
    else:
        adjugate = -adjugate
    return adjugate.to_sdm(), last, D


def adj_det(matrix):
    """The adjugate (rows of ScalarField) and the determinant of a square
    matrix, from ``_adj_det``."""
    dm, lift = _domain_matrix(matrix)
    adjugate, det, D = _adj_det(dm)
    n = len(matrix)
    if dm.domain is not QQ:
        field, scale = dm.domain.field, D ** (n - 1)
        adjugate = {i: {j: field.new(a, scale) for j, a in row.items()} for i, row in adjugate.items()}
        det = field.new(det, scale * D)
    n = range(n)
    return [[lift(adjugate.get(i, {}).get(j)) for j in n] for i in n], lift(det)
