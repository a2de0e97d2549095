"""Hessians of functions, Hessian metrics, and curvature-pairing theorems.

Conventions: the Hessian H(f)(u, v) = rho(u)(rho(v)(f)) - (Df)(nabla_u v) is
computed on frame fields, where every Leibniz correction term vanishes, so
H_{ab} = rho_a((Df)_b) - Gamma^c_{ab} (Df)_c is already the full tensor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebroid import AlgebroidReport
from .connection import frame_covariant_derivative, nonmetricity
from .errors import InvalidStructure, NotAdmissible, SlotMismatch
from .scalar import ScalarField
from .statgeo import StatisticalStructure
from .tensor import (
    Components,
    ETensor,
    contract_sum,
    is_antisymmetric_in,
    object_array,
    sum_terms,
)


def function_form(A, f):
    """A scalar field as a (0, 0) tensor, the degree-0 form of the exterior derivative."""
    return ETensor(0, 0, A.rank, A.coords, object_array(f, A.coords))


def hessian(conn, f):
    """H_{ab} = rho_a((Df)_b) - Gamma^c_{ab} (Df)_c = (nabla Df)_{ab} as a (0, 2) tensor."""
    return frame_covariant_derivative(conn, conn.algebroid.coboundary(f))


@dataclass(frozen=True)
class HessianStructure:
    """Flat, projected-torsion-free connection with g the Hessian of f, as
    ``hessian_structure_check`` decides it."""

    g: object
    nabla: object
    potential: ScalarField

    def __post_init__(self):
        report = hessian_structure_check(self.nabla, self.g, self.potential)
        if not report.ok:
            entries = report.entries.items()
            failing = next(key for key, value in entries if not AlgebroidReport({key: value}).ok)
            raise InvalidStructure(f"not a Hessian structure: {failing} fails")


def projected_exterior_derivative(conn, omega):
    """Degree-raising derivative built from the projected modified bracket of conn.

    (d-hat w)_{a_1..a_{p+1}} = sum_i (-1)^{i+1} rho_{a_i}(w_{.. a_i-hat ..})
      + sum_{i<j} (-1)^{i+j} mhat^m_{a_i a_j} w_{m, .. a_i-hat .. a_j-hat ..},
    where mhat are the projected modified bracket coefficients.  With the
    result's slots labelled s_1 .. s_{p+1}, the rho term of slot i reads
    rho(w) with its derivative axis labelled s_i, and the bracket term of
    slots i < j is the contraction mhat^m_{s_i s_j} w_{m...}.  Requires an
    admissible connection so the result is genuinely antisymmetric.  The form w and the result are checked to be
    covariant and antisymmetric in every pair of slots (else SlotMismatch).
    """
    _check_form(omega)
    mhat = conn.projected_bracket.comps
    if not conn.admissible:
        raise NotAdmissible("projected exterior derivative requires an admissible connection")
    A, p = conn.algebroid, omega.r
    slots = "abcdefghijklnopqrstuvwxyz"[: p + 1]  # m is the summed label
    d_omega = A.anchor_derivative(omega.comps)  # [a, ...] = rho(X_a)(w_{...})
    terms = [((-1) ** i, f"{s}{slots.replace(s, '')}->{slots}", d_omega) for i, s in enumerate(slots)]
    for (i, s), (j, t) in itertools.combinations(enumerate(slots), 2):
        rest = slots.replace(s, "").replace(t, "")
        terms.append(((-1) ** (i + j), f"m{s}{t},m{rest}->{slots}", mhat, omega.comps))
    return _check_form(ETensor(0, p + 1, A.rank, A.coords, contract_sum(*terms)))


def _check_form(t):
    """t itself, once it is a (0, p) tensor antisymmetric in every pair of slots."""
    if t.q:
        raise SlotMismatch(f"a form has covariant slots only, got type ({t.q},{t.r})")
    for i, j in itertools.combinations(range(1, t.r + 1), 2):
        if not is_antisymmetric_in(t, i, j):
            raise SlotMismatch(f"components not antisymmetric in slots {i},{j}")
    return t


def hessian_symmetry_equivalences(conn):
    """Exact report on the three-way symmetry equivalence for the Hessian of conn.

    Clause 1 (H(f) symmetric for every f) is decided by the identity
    H(f)(u,v) - H(f)(v,u) = -rho(T-hat(u,v))(f): it holds for all f exactly
    when the anchor annihilates the image of the projected torsion, so the
    composite rho o T-hat is recorded as the clause-1 residual; the
    ``_default_probes`` functions additionally spot-check the identity
    itself.  Clause 2 is the projected torsion tensor, clause 3 the one-form
    comparison with the projected exterior derivative (skipped with a warning
    for non-admissible connections).  Clause truth values are informational; the report's
    verdict entries are the always-true identities plus "three-way-agreement"
    under the equivalence hypothesis.  The kernel escape hatch — symmetry
    with a nonzero projected torsion whose image hides inside ker rho — is
    reported through a warning instead of a failure.
    """
    T_hat = conn.projected_torsion
    A = conn.algebroid
    report = AlgebroidReport()
    r = A.rank
    clause1 = conn.anchored_projected_torsion.is_zero
    clause2 = T_hat.is_zero
    report.record("clause-1-hessian-symmetric-for-all-f", "holds" if clause1 else "fails")
    report.record("clause-2-projected-torsion-free", "holds" if clause2 else "fails")

    clause3 = None
    if conn.admissible:
        entries = {}  # res3[m] is the residual of the coframe one-form e^m
        for m in range(r):
            omega = ETensor(0, 1, r, A.coords, Components((r,), A.coords, {(m,): A.one()}))
            nabla_omega = frame_covariant_derivative(conn, omega).comps
            res = contract_sum(
                (1, "ab->ab", projected_exterior_derivative(conn, omega).comps),
                (-1, "ab->ab", nabla_omega),
                (1, "ab->ba", nabla_omega),
            )
            entries.update(((m, *idx), value) for idx, value in res.entries.items())
        res3 = Components((r, r, r), A.coords, entries)
        clause3 = res3.is_zero
        report.record("clause-3-one-form-derivative", "holds" if clause3 else "fails")
        # d-hat Omega(u, v) - [(nabla_u Omega)(v) - (nabla_v Omega)(u)]
        # equals Omega(T-hat(u, v)) for any admissible connection.
        report.record("one-form-identity", ETensor(1, 2, r, A.coords, res3 - T_hat.comps))
    else:
        report.warn("connection not admissible: the one-form clause is not applicable")

    hypothesis = clause2 or not clause1
    if hypothesis:
        agree = clause1 == clause2 and (clause3 is None or clause3 == clause2)
        report.record("three-way-agreement", agree)
    else:
        report.record("three-way-agreement", True)
        report.warn(
            "projected torsion is nonzero but its image lies in ker rho: "
            "the equivalence hypothesis fails; the Hessian is symmetric anyway"
        )

    for index, f in enumerate(_default_probes(A)):
        H = hessian(conn, f).comps
        probe = contract_sum(
            (1, "ab->ab", H), (-1, "ab->ba", H), (1, "abc,a->bc", T_hat.comps, A.anchor_derivative(f))
        )
        report.record(f"probe-identity-{index}", ETensor(0, 2, r, A.coords, probe))

    return report


def _default_probes(A):
    """Small deterministic polynomial family in the base coordinates."""
    probes = [A.one()]
    n = A.dim
    for i in range(n):
        probes.append(A.x(i + 1))
        probes.append(A.x(i + 1) * A.x(i + 1))
    for i in range(n):
        for j in range(i + 1, n):
            probes.append(A.x(i + 1) * A.x(j + 1))
    return probes


def hessian_structure_check(conn, g, f):
    """Verify (g, conn, f) is a Hessian structure and its statistical shadow.

    Non-degeneracy is ring-level: the determinant of g is nonzero as a
    rational function, not pointwise on the chart.  On success the report
    additionally certifies the Codazzi property of the nonmetricity and, for
    admissible connections, that (g, Q, T) satisfies the statistical-structure
    invariants.
    """
    report = AlgebroidReport({"flat": conn.curvature})
    report.record("projected-torsion-free", conn.projected_torsion)
    report.record("metric-equals-hessian", g.lower_tensor() - hessian(conn, f))
    report.record("metric-nondegenerate", not g.det.is_zero)
    if not report.ok:
        return report
    Q = nonmetricity(conn, g, conn.algebroid.anchor_derivative(g.matrix))
    report.record("codazzi", Q - Q.swap_slots(1, 2))
    if conn.admissible:
        try:
            StatisticalStructure(g, Q, conn.torsion)
        except InvalidStructure as exc:
            report.record("statistical-invariants", False)
            report.warn(f"statistical invariants violated: {exc}")
        else:
            report.record("statistical-invariants", True)
    else:
        report.warn("connection not admissible: statistical invariants not applicable")
    return report


def fundamental_theorem_residual(pair):
    """g(R(u,v)w, z) + g(R*(u,v)z, w) as a (0, 4) tensor.

    The theorem asserts it vanishes when the pair is ``holonomic`` (both
    projected modified brackets vanish on the working frame); on other
    frames ``pair.holonomy_obstruction`` is the term the theorem drops.
    """
    A = pair.nabla.algebroid
    R, R_star = pair.nabla.curvature, pair.nabla_star.curvature
    g = pair.g.matrix
    res = contract_sum((1, "eabc,ed->abcd", R.comps, g), (1, "eabd,ec->abcd", R_star.comps, g))
    return ETensor(0, 4, A.rank, A.coords, res)


def constant_curvature_check(conn, g):
    """Decide whether R(conn)^a_{bcd} = kappa (g_{cd} d^a_b - g_{bd} d^a_c) exactly.

    kappa is read off the row-major first nonzero entry of the model array, and R must
    equal kappa times the model everywhere.  Returns (True, kappa) with an
    exact rational kappa when one exists (the flat case yields kappa = 0),
    else (False, None).
    """
    R = conn.curvature
    if not conn.admissible:
        raise NotAdmissible("constant curvature requires an admissible connection")
    if R.is_zero:
        return True, Fraction(0)
    model = _constant_curvature_model(conn.algebroid, g)
    if model.is_zero:
        return False, None
    first = min(model.entries)
    kappa = R.comps[first] / model[first]
    if not kappa.is_constant or not (R.comps - model.scale(kappa)).is_zero:
        return False, None
    return True, kappa.as_rational()


def conjugate_curvature_transfer_residual(pair, kappa):
    """R(nabla*)^a_{bcd} - kappa (g_{cd} d^a_b - g_{bd} d^a_c): zero under the
    fundamental-theorem hypotheses when nabla has constant curvature kappa."""
    A = pair.nabla.algebroid
    res = contract_sum(
        (1, "abcd->abcd", pair.nabla_star.curvature.comps),
        (-Fraction(kappa), "abcd->abcd", _constant_curvature_model(A, pair.g)),
    )
    return ETensor(1, 3, A.rank, A.coords, res)


def _constant_curvature_model(A, g):
    """g_{cd} d^a_b - g_{bd} d^a_c, written index by index from the entries of g."""
    r = A.rank

    def terms():
        for (x, y), value in g.matrix.entries.items():
            yield from (((a, a, x, y), value) for a in range(r))
            yield from (((a, x, a, y), -value) for a in range(r))

    return sum_terms((r,) * 4, A.coords, terms())
