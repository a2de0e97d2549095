"""Named verification suites over a loaded model document.

Each check id maps to a runner that evaluates the corresponding identity on
every applicable (metric, connection) combination declared in the document
and returns one record per residual.  Identities whose hypotheses fail on an
instance are reported as "not-applicable" rather than skipped silently, so a
report always accounts for every declared object deterministically.

``run_all`` and ``run_check`` hand every runner one context per call.  It
holds a single ``Derived`` per connection and a single ``ConjugatePair`` per
(metric, connection), the pairs sharing the context's ``Derived``s, so each
derived object is built once per call.  The context is dropped when the call
returns: a document checked again is derived again.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebroid import Residual
from .connection import Derived, difference_tensor, nonmetricity, second_cov_and_ricci
from .errors import LeibnizGeoError
from .hessian import (
    _default_probes,
    conjugate_curvature_transfer_residual,
    constant_curvature_check,
    fundamental_theorem_residual,
    hessian,
    hessian_structure_check,
    hessian_symmetry_equivalences,
)
from .scalar import ScalarField
from .statgeo import (
    ConjugatePair,
    StatisticalStructure,
    _quasi_statistical_residual,
    _torsion_transfer_residual,
    admissibility_locality_residual,
    alpha_connection,
    alpha_curvature_residual,
    alpha_flat_symmetry_residual,
    conjugate_connection,
    mean_connection,
    statistical_solve,
)
from .tensor import ETensor

ALPHA_VALUES = (
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)

_NOT_STRONG = "pair not strongly conjugate and admissible"
_NOT_JOINTLY_ADMISSIBLE = "pair not jointly admissible"


@dataclass(frozen=True)
class CheckResult:
    check: str
    status: str
    residual_nonzero_components: int = 0
    residual_max_degree: int = 0
    note: str = ""

    def to_record(self):
        record = {
            "check": self.check,
            "status": self.status,
            "residual_nonzero_components": self.residual_nonzero_components,
            "residual_max_degree": self.residual_max_degree,
        }
        if self.note:
            record["note"] = self.note
        return record


def _from_residual(name, residual, note=""):
    status = "pass" if residual.is_zero else "fail"
    tensor = residual.tensor
    return CheckResult(name, status, tensor.nonzero_count(), tensor.max_degree(), note)


def _na(name, note):
    return CheckResult(name, "not-applicable", note=note)


def _connections(doc):
    return sorted(doc.connections.items())


class _Context:
    """One check call's document, its ``Derived``s and its conjugate pairs."""

    def __init__(self, doc):
        self.doc = doc
        self.A = doc.algebroid
        self._derived = {}

    def derived(self, conn):
        """The ``Derived`` of conn, shared with every pair of this call."""
        return self._derived.setdefault(conn, Derived(self.A, conn))

    @functools.cached_property
    def pairs(self):
        """(label, pair) for every (metric, connection), in report order."""
        pairs = []
        for mname, g in sorted(self.doc.metrics.items()):
            for cname, conn in _connections(self.doc):
                star = conjugate_connection(self.A, g, conn)
                pair = ConjugatePair(self.A, g, conn, star, _derived=self._derived)
                pairs.append((f"{mname}:{cname}", pair))
        return pairs


def _probe_sections(A, count, seed):
    """Deterministic low-degree polynomial sections for section-level checks."""
    rng = random.Random(seed)
    sections = []
    for _ in range(count):
        entries = []
        for _ in range(A.rank):
            entry = A.field(rng.randint(-2, 2))
            if A.dim and rng.random() < 0.5:
                entry = entry + A.field(rng.randint(-1, 1)) * A.x(rng.randint(1, A.dim))
            entries.append(entry)
        sections.append(A.vector(entries))
    return sections


# -- bracket/connection layer -------------------------------------------------


def check_eb12(ctx):
    """Torsion and curvature antisymmetry for admissible connections."""
    A = ctx.A
    results = []
    for name, conn in _connections(ctx.doc):
        D = ctx.derived(conn)
        if not D.admissible:
            results.append(_na(f"eb12[{name}]", "connection not admissible"))
            continue
        T = D.torsion
        results.append(_from_residual(f"eb12[{name}]:torsion", Residual("t", T + T.swap_slots(2, 3))))
        if A.projector is not None:
            R = D.curvature
            results.append(
                _from_residual(f"eb12[{name}]:curvature", Residual("r", R + R.swap_slots(2, 3)))
            )
        else:
            results.append(_na(f"eb12[{name}]:curvature", "no locality projector"))
    return results


def check_eb14(ctx):
    """Ricci identity on probe sections; holds for every connection."""
    A = ctx.A
    if A.projector is None:
        return [_na("eb14", "no locality projector")]
    probes = _probe_sections(A, 9, seed=11)
    results = []
    for name, conn in _connections(ctx.doc):
        for index in range(3):
            u, v, w = probes[3 * index : 3 * index + 3]
            _, residual = second_cov_and_ricci(ctx.derived(conn), u, v, w)
            results.append(_from_residual(f"eb14[{name}]:probe-{index}", residual))
    return results


# -- conjugation layer --------------------------------------------------------


def check_ssp1(ctx):
    """Strongly conjugate admissible pairs have opposite torsions."""
    results = []
    for label, pair in ctx.pairs:
        if not pair.strongly_conjugate_and_admissible:
            results.append(_na(f"SSp1[{label}]", _NOT_STRONG))
            continue
        T_sum = pair.derived(pair.nabla).torsion + pair.derived(pair.nabla_star).torsion
        results.append(_from_residual(f"SSp1[{label}]", Residual("t", T_sum)))
    return results


def check_ssp2(ctx):
    """An admissible connection with an admissible strong conjugate is torsion-free."""
    results = []
    for label, pair in ctx.pairs:
        if not pair.strongly_conjugate_and_admissible:
            results.append(_na(f"SSp2[{label}]", _NOT_STRONG))
            continue
        T = pair.derived(pair.nabla).torsion
        results.append(_from_residual(f"SSp2[{label}]", Residual("t", T)))
    return results


def check_ssp3(ctx):
    """Q(nabla, g) = -Q(nabla*, g) = g(Delta(nabla*, nabla)(u, v), w)."""
    A = ctx.A
    r = A.rank
    results = []
    for label, pair in ctx.pairs:
        g, Q, delta = pair.g, pair.nonmetricity, pair.difference
        Q_star = nonmetricity(A, pair.nabla_star, g)
        results.append(_from_residual(f"SSp3[{label}]:opposite", Residual("q", Q + Q_star)))
        # Delta(nabla*, nabla) = -Delta(nabla, nabla*).
        res = Q.comps + np.einsum("eab,ec->abc", delta.comps, g.matrix)
        results.append(
            _from_residual(
                f"SSp3[{label}]:difference", Residual("q", ETensor(0, 3, r, A.coords, res))
            )
        )
    return results


def check_ssp4(ctx):
    """An admissible strong conjugate forces the Levi-Civita self-pair."""
    results = []
    for label, pair in ctx.pairs:
        if not pair.strongly_conjugate_and_admissible:
            results.append(_na(f"SSp4[{label}]", _NOT_STRONG))
            continue
        results.append(
            _from_residual(f"SSp4[{label}]:self-conjugate", Residual("d", pair.difference))
        )
        results.append(
            _from_residual(
                f"SSp4[{label}]:metric-compatible", Residual("q", pair.nonmetricity)
            )
        )
    return results


def check_ssp5(ctx):
    """Statistical-solve postconditions for the document's (C, B) data."""
    A = ctx.A
    r = A.rank
    tensors = ctx.doc.tensors
    results = []
    for label, g in sorted(ctx.doc.metrics.items()):
        C = tensors.get("C", ETensor.zeros(0, 3, r, A.coords))
        B = tensors.get("B", ETensor.zeros(1, 2, r, A.coords))
        try:
            structure = StatisticalStructure(g, C, B)
            pair = statistical_solve(A, structure)
        except LeibnizGeoError as exc:
            results.append(_na(f"SSp5[{label}]", f"solve not applicable: {exc}"))
            continue
        results.append(
            _from_residual(f"SSp5[{label}]:skewness", Residual("q", pair.nonmetricity + C))
        )
        D, D_star = pair.derived(pair.nabla), pair.derived(pair.nabla_star)
        results.append(
            _from_residual(f"SSp5[{label}]:torsion-free", Residual("t", D.torsion))
        )
        results.append(
            _from_residual(
                f"SSp5[{label}]:conjugate-torsion",
                Residual("t", D_star.torsion - B),
            )
        )
    return results


def check_ssp6(ctx):
    """Quasi-statistical structures fix the conjugate's torsion."""
    A = ctx.A
    results = []
    for label, pair in ctx.pairs:
        T = pair.derived(pair.nabla).torsion
        if not _quasi_statistical_residual(A, pair.g, pair.nonmetricity, T).is_zero:
            results.append(_na(f"SSp6[{label}]", "doublet is not quasi-statistical"))
            continue
        results.append(_from_residual(f"SSp6[{label}]", _torsion_transfer_residual(pair)))
    return results


def check_ssp7(ctx):
    """Relative torsion antisymmetry for admissible conjugate pairs."""
    results = []
    for label, pair in ctx.pairs:
        if not pair.jointly_admissible:
            results.append(_na(f"SSp7[{label}]", _NOT_JOINTLY_ADMISSIBLE))
            continue
        res = pair.relative_torsion + pair.relative_torsion_star.swap_slots(2, 3)
        results.append(_from_residual(f"SSp7[{label}]", Residual("rt", res)))
    return results


def check_ssp8(ctx):
    """T(nabla, nabla*) + T(nabla*, nabla) = T(nabla) + T(nabla*)."""
    results = []
    for label, pair in ctx.pairs:
        total = pair.derived(pair.nabla).torsion + pair.derived(pair.nabla_star).torsion
        res = pair.relative_torsion + pair.relative_torsion_star - total
        results.append(_from_residual(f"SSp8[{label}]", Residual("rt", res)))
    return results


def check_ssp9(ctx):
    """The mean connection is metric-compatible with half the total torsion."""
    A = ctx.A
    half = ScalarField.constant(Fraction(1, 2), A.coords)
    results = []
    for label, pair in ctx.pairs:
        mean = mean_connection(pair)
        results.append(
            _from_residual(
                f"SSp9[{label}]:metric-compatible", Residual("q", nonmetricity(A, mean, pair.g))
            )
        )
        T_mean = pair.derived(mean).torsion
        T_sum = pair.derived(pair.nabla).torsion + pair.derived(pair.nabla_star).torsion
        T_half = T_sum.scale(half)
        results.append(
            _from_residual(f"SSp9[{label}]:torsion-mean", Residual("t", T_mean - T_half))
        )
    return results


def check_ssp10(ctx):
    """Conjugation, torsion, and nonmetricity of the alpha family."""
    A = ctx.A
    results = []
    for label, pair in ctx.pairs:
        g, Q = pair.g, pair.nonmetricity
        T, T_star = pair.derived(pair.nabla).torsion, pair.derived(pair.nabla_star).torsion
        for alpha in ALPHA_VALUES:
            conn_alpha = alpha_connection(pair, alpha)
            expect = alpha_connection(pair, -alpha)
            conj = conjugate_connection(A, g, conn_alpha)
            results.append(
                _from_residual(
                    f"SSp10[{label}]:involution(alpha={alpha})",
                    Residual("d", difference_tensor(A, conj, expect)),
                )
            )
            s = ScalarField.constant((1 + alpha) / 2, A.coords)
            t = ScalarField.constant((1 - alpha) / 2, A.coords)
            T_expect = T_star.scale(s) + T.scale(t)
            results.append(
                _from_residual(
                    f"SSp10[{label}]:torsion(alpha={alpha})",
                    Residual("t", pair.derived(conn_alpha).torsion - T_expect),
                )
            )
            factor = ScalarField.constant(Fraction(alpha), A.coords)
            results.append(
                _from_residual(
                    f"SSp10[{label}]:nonmetricity(alpha={alpha})",
                    Residual("q", nonmetricity(A, conn_alpha, g) + Q.scale(factor)),
                )
            )
    return results


def check_ssp11(ctx):
    """Curvature decomposition of the alpha family."""
    A = ctx.A
    if A.projector is None:
        return [_na("SSp11", "no locality projector")]
    results = []
    for label, pair in ctx.pairs:
        for alpha in ALPHA_VALUES:
            results.append(
                _from_residual(
                    f"SSp11[{label}]:alpha={alpha}", alpha_curvature_residual(A, pair, alpha)
                )
            )
    return results


def check_sse8(ctx):
    """Joint admissibility forces antisymmetry of the locality difference."""
    results = []
    for label, pair in ctx.pairs:
        if not pair.jointly_admissible:
            results.append(_na(f"SSe8[{label}]", _NOT_JOINTLY_ADMISSIBLE))
            continue
        residual = admissibility_locality_residual(
            pair.derived(pair.nabla), pair.derived(pair.nabla_star)
        )
        results.append(_from_residual(f"SSe8[{label}]", residual))
    return results


def check_sse25(ctx):
    """Endpoint identities of the alpha family."""
    A = ctx.A
    results = []
    for label, pair in ctx.pairs:
        endpoints = (
            ("alpha=1-is-conjugate", alpha_connection(pair, 1), pair.nabla_star),
            ("alpha=-1-is-nabla", alpha_connection(pair, -1), pair.nabla),
            ("alpha=0-is-mean", alpha_connection(pair, 0), mean_connection(pair)),
        )
        for tag, got, expect in endpoints:
            results.append(
                _from_residual(
                    f"SSe25[{label}]:{tag}", Residual("d", difference_tensor(A, got, expect))
                )
            )
    return results


def check_ss29(ctx):
    """Flat conjugate pairs have an alpha-symmetric curvature family."""
    A = ctx.A
    if A.projector is None:
        return [_na("SS29", "no locality projector")]
    results = []
    for label, pair in ctx.pairs:
        R, R_star = pair.derived(pair.nabla).curvature, pair.derived(pair.nabla_star).curvature
        if not (R.is_zero and R_star.is_zero):
            results.append(_na(f"SS29[{label}]", "pair is not flat"))
            continue
        for alpha in ALPHA_VALUES:
            results.append(
                _from_residual(
                    f"SS29[{label}]:alpha={alpha}",
                    alpha_flat_symmetry_residual(A, pair, alpha),
                )
            )
    return results


# -- hessian layer ------------------------------------------------------------


def check_lp1(ctx):
    """Three-way Hessian symmetry equivalence report."""
    A = ctx.A
    if A.projector is None:
        return [_na("lp1", "no locality projector")]
    results = []
    for name, conn in _connections(ctx.doc):
        report = hessian_symmetry_equivalences(ctx.derived(conn))
        for key, value in report.entries.items():
            label = f"lp1[{name}]:{key}"
            if isinstance(value, Residual):
                results.append(_from_residual(label, value))
            elif isinstance(value, str):
                results.append(CheckResult(label, "pass", note=value))
            else:
                results.append(CheckResult(label, "pass" if value else "fail"))
    return results


def check_lp2(ctx):
    """Hessian structures are Codazzi; includes the lc3 statistical shadow."""
    A = ctx.A
    if A.projector is None:
        return [_na("lp2", "no locality projector")]
    if not ctx.doc.functions:
        return [_na("lp2", "no potential function declared")]
    results = []
    for fname, f in sorted(ctx.doc.functions.items()):
        for label, pair in ctx.pairs:
            report = hessian_structure_check(pair.derived(pair.nabla), pair.g, f)
            structural = ("flat", "projected-torsion-free", "metric-equals-hessian")
            is_structure = all(
                report.entries[key].is_zero
                if isinstance(report.entries[key], Residual)
                else report.entries[key]
                for key in structural
            )
            if not is_structure:
                results.append(_na(f"lp2[{label}:{fname}]", "not a Hessian structure"))
                continue
            results.append(_from_residual(f"lp2[{label}:{fname}]:codazzi", report.entries["codazzi"]))
            if "statistical-invariants" in report.entries:
                results.append(
                    CheckResult(
                        f"lc3[{label}:{fname}]",
                        "pass" if report.entries["statistical-invariants"] else "fail",
                    )
                )
    return results


def check_lp3(ctx):
    """Fundamental theorem residual with holonomy preconditions."""
    A = ctx.A
    if A.projector is None:
        return [_na("lp3", "no locality projector")]
    results = []
    for label, pair in ctx.pairs:
        outcome = fundamental_theorem_residual(A, pair)
        if not outcome.applicable:
            note = "anholonomic frame"
            if outcome.obstruction is not None:
                summary = outcome.obstruction.summary()
                note += (
                    f"; obstruction nonzero components = "
                    f"{summary['residual_nonzero_components']}"
                )
            results.append(_na(f"lp3[{label}]", note))
            continue
        results.append(_from_residual(f"lp3[{label}]", outcome))
    return results


def check_lc1(ctx):
    """Projected torsion with image in ker rho still gives symmetric Hessians."""
    A = ctx.A
    if A.projector is None:
        return [_na("lc1", "no locality projector")]
    results = []
    for name, conn in _connections(ctx.doc):
        if not ctx.derived(conn).anchored_projected_torsion.is_zero:
            results.append(_na(f"lc1[{name}]", "projected torsion image escapes ker rho"))
            continue
        for index, f in enumerate(_default_probes(A)):
            H = hessian(A, conn, f)
            results.append(
                _from_residual(
                    f"lc1[{name}]:probe-{index}", Residual("h", H - H.swap_slots(1, 2))
                )
            )
    return results


def check_lc2(ctx):
    """Torsion transfer makes the conjugate's Hessian symmetric too."""
    A = ctx.A
    if A.projector is None:
        return [_na("lc2", "no locality projector")]
    results = []
    for label, pair in ctx.pairs:
        D, D_star = pair.derived(pair.nabla), pair.derived(pair.nabla_star)
        if not D.projected_torsion.is_zero:
            results.append(_na(f"lc2[{label}]", "connection not projected-torsion-free"))
            continue
        T_diff = D.torsion - D_star.torsion
        bracket_diff = D.bracket - D_star.bracket
        if not (T_diff - bracket_diff).is_zero:
            results.append(_na(f"lc2[{label}]", "torsion-transfer hypothesis fails"))
            continue
        for index, f in enumerate(_default_probes(A)):
            H = hessian(A, pair.nabla_star, f)
            results.append(
                _from_residual(
                    f"lc2[{label}]:probe-{index}", Residual("h", H - H.swap_slots(1, 2))
                )
            )
    return results


def check_lc4(ctx):
    """Constant curvature transfers to the conjugate under lp3 hypotheses."""
    A = ctx.A
    if A.projector is None:
        return [_na("lc4", "no locality projector")]
    results = []
    for label, pair in ctx.pairs:
        if not pair.holonomic:
            results.append(_na(f"lc4[{label}]", "anholonomic frame"))
            continue
        D = pair.derived(pair.nabla)
        if not D.admissible:
            results.append(_na(f"lc4[{label}]", "connection not admissible"))
            continue
        constant, kappa = constant_curvature_check(D, pair.g)
        if not constant:
            results.append(_na(f"lc4[{label}]", "connection has no constant curvature"))
            continue
        results.append(
            _from_residual(
                f"lc4[{label}]:kappa={kappa}",
                conjugate_curvature_transfer_residual(A, pair, kappa),
            )
        )
    return results


REGISTRY = {
    "eb12": check_eb12,
    "eb14": check_eb14,
    "SSe8": check_sse8,
    "SSe25": check_sse25,
    "SSp1": check_ssp1,
    "SSp2": check_ssp2,
    "SSp3": check_ssp3,
    "SSp4": check_ssp4,
    "SSp5": check_ssp5,
    "SSp6": check_ssp6,
    "SSp7": check_ssp7,
    "SSp8": check_ssp8,
    "SSp9": check_ssp9,
    "SSp10": check_ssp10,
    "SSp11": check_ssp11,
    "SS29": check_ss29,
    "lp1": check_lp1,
    "lp2": check_lp2,
    "lp3": check_lp3,
    "lc1": check_lc1,
    "lc2": check_lc2,
    "lc3": check_lp2,
    "lc4": check_lc4,
}


def run_check(check_id, doc):
    if check_id not in REGISTRY:
        raise KeyError(check_id)
    return REGISTRY[check_id](_Context(doc))


def run_all(doc):
    ctx = _Context(doc)
    results = []
    seen = set()
    for check_id in sorted(REGISTRY, key=str.lower):
        runner = REGISTRY[check_id]
        if runner in seen:
            continue
        seen.add(runner)
        results.extend(runner(ctx))
    return results
