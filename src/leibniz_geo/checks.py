"""Named verification suites over a loaded model document.

Each check id maps to a runner that evaluates the corresponding identity on
every applicable (metric, connection) combination declared in the document
and returns one record per residual.  Identities whose hypotheses fail on an
instance are reported as "not-applicable" rather than skipped silently, so a
report always accounts for every declared object deterministically.

A check is a generator of report items, in report order.  ``collect`` turns
the items of a check, and those of every CLI command, into records.  An item
is a finished ``CheckResult`` (a not-applicable gate from ``_na``) or a
``(label, value)`` pair that ``judge`` decides by the kind of its value: a
residual, the tensor an identity sets to zero (an ``ETensor``, or the
``ComponentSummaries`` of an array whose axes mix frame and coordinate
indices), passes exactly when its exact zero test holds; a ``bool`` verdict
passes when true; a ``str`` note passes.  A record keeps the residual it was
judged on, and ``to_record(dump=True)`` writes its nonzero components.
Hypotheses are gates read from ``EConnection`` and ``ConjugatePair`` before
the residual is built.  The ``_check(id)`` decorator registers each check in
``REGISTRY`` where it is defined and returns the collected records from
``check_<id>``.  A check built on the projected modified bracket is declared
``needs_projector`` and so gated in one place.

``run_all`` and ``run_check`` hand every runner one context per call.  It
holds a fresh ``EConnection`` per document connection, sharing the
document's coefficient store, and a single ``ConjugatePair`` per (metric,
connection) built on those connections.  A connection caches its derived
objects, so each is built once per call.  The frame derivatives
rho(X_a)(g_bc) of a metric are derived once per call, where the context
builds that metric's pairs; every pair of the metric holds them, and the
conjugates and nonmetricities a check builds for a pair, those of its mean
and of its alpha-connections included, read them from the pair.  The
context and what it derived are dropped when the call returns: a document
checked again is derived again.  The call also holds the memo of scalar
normal forms (``scalar.normal_form_memo``), which every runner shares, so a
call cancels each distinct fraction and differentiates each distinct
fraction once; the memo is dropped with the context.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .connection import EConnection, difference_tensor, nonmetricity, second_cov_and_ricci
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
from .scalar import normal_form_memo
from .statgeo import (
    ConjugatePair,
    StatisticalStructure,
    _quasi_statistical_residual,
    _torsion_transfer_residual,
    admissibility_locality_residual,
    alpha_connection,
    alpha_curvature_residual,
    alpha_flat_symmetry_residual,
    alpha_weights,
    conjugate_connection,
    statistical_solve,
)
from .tensor import ComponentSummaries, ETensor, contract_sum

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
_NO_PROJECTOR = "no locality projector"


@dataclass(frozen=True)
class CheckResult:
    check: str
    status: str
    residual_nonzero_components: int = 0
    residual_max_degree: int = 0
    note: str = ""
    # The array the record was judged on or shows; None for a verdict, a note or a gate.
    residual: ComponentSummaries = field(default=None, compare=False, repr=False)

    def to_record(self, dump=False):
        """The report record; ``dump`` adds the residual's nonzero components,
        keyed by their 1-based indices."""
        record = {
            "check": self.check,
            "status": self.status,
            "residual_nonzero_components": self.residual_nonzero_components,
            "residual_max_degree": self.residual_max_degree,
        }
        if self.note:
            record["note"] = self.note
        if dump and self.residual is not None:
            record["components"] = {
                ",".join(str(i + 1) for i in idx): str(value)
                for idx, value in sorted(self.residual.comps.entries.items())
            }
        return record


def judge(name, value, shown=False):
    """The record of a (name, value) item: a residual passes exactly when it
    is zero (or always, when it is an array ``shown`` rather than judged), a
    bool verdict passes when true, and a str note passes."""
    if isinstance(value, str):
        return CheckResult(name, "pass", note=value)
    if isinstance(value, bool):
        return CheckResult(name, "pass" if value else "fail")
    status = "pass" if shown or value.is_zero else "fail"
    return CheckResult(name, status, value.nonzero_count(), value.max_degree(), residual=value)


def collect(items):
    """The records of report items: a CheckResult as it is, a pair judged."""
    return [item if isinstance(item, CheckResult) else judge(*item) for item in items]


def _na(name, note):
    return CheckResult(name, "not-applicable", note=note)


REGISTRY = {}


def _check(check_id, needs_projector=False):
    """Register a generator of check items as the runner of check_id, which
    returns their records, or only the "no locality projector" record when
    the check is declared ``needs_projector`` and the algebroid has none."""

    def register(check):
        @functools.wraps(check)
        def run(ctx):
            if needs_projector and ctx.A.projector is None:
                return [_na(check_id, _NO_PROJECTOR)]
            return collect(check(ctx))

        REGISTRY[check_id] = run
        return run

    return register


class _Context:
    """One check call's document, its connections and its conjugate pairs."""

    def __init__(self, doc):
        self.doc = doc
        self.A = doc.algebroid
        # (name, connection) in report order; fresh objects over the document's
        # coefficients, so what they derive is dropped with the call.
        self.connections = [
            (name, EConnection(self.A, conn.gamma))
            for name, conn in sorted(doc.connections.items())
        ]

    @functools.cached_property
    def pairs(self):
        """(label, pair) for every (metric, connection), in report order."""
        pairs = []
        for mname, g in sorted(self.doc.metrics.items()):
            dg = self.A.anchor_derivative(g.matrix)
            for cname, conn in self.connections:
                star = conjugate_connection(g, conn, dg)
                pairs.append((f"{mname}:{cname}", ConjugatePair(g, conn, star, dg)))
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


@_check("eb12")
def check_eb12(ctx):
    """Torsion and curvature antisymmetry for admissible connections."""
    for name, conn in ctx.connections:
        if not conn.admissible:
            yield _na(f"eb12[{name}]", "connection not admissible")
            continue
        yield f"eb12[{name}]:torsion", conn.torsion + conn.torsion.swap_slots(2, 3)
        if ctx.A.projector is None:
            yield _na(f"eb12[{name}]:curvature", _NO_PROJECTOR)
        else:
            yield f"eb12[{name}]:curvature", conn.curvature + conn.curvature.swap_slots(2, 3)


@_check("eb14", needs_projector=True)
def check_eb14(ctx):
    """Ricci identity on probe sections; holds for every connection."""
    probes = _probe_sections(ctx.A, 9, seed=11)
    for name, conn in ctx.connections:
        for index in range(3):
            u, v, w = probes[3 * index : 3 * index + 3]
            yield f"eb14[{name}]:probe-{index}", second_cov_and_ricci(conn, u, v, w)[1]


# -- conjugation layer --------------------------------------------------------


@_check("SSp1")
def check_ssp1(ctx):
    """Strongly conjugate admissible pairs have opposite torsions."""
    for label, pair in ctx.pairs:
        if not pair.strongly_conjugate_and_admissible:
            yield _na(f"SSp1[{label}]", _NOT_STRONG)
        else:
            yield f"SSp1[{label}]", pair.torsion_sum


@_check("SSp2")
def check_ssp2(ctx):
    """An admissible connection with an admissible strong conjugate is torsion-free."""
    for label, pair in ctx.pairs:
        if not pair.strongly_conjugate_and_admissible:
            yield _na(f"SSp2[{label}]", _NOT_STRONG)
        else:
            yield f"SSp2[{label}]", pair.nabla.torsion


@_check("SSp3")
def check_ssp3(ctx):
    """Q(nabla, g) = -Q(nabla*, g) = g(Delta(nabla*, nabla)(u, v), w)."""
    A = ctx.A
    for label, pair in ctx.pairs:
        g, Q, delta = pair.g, pair.nonmetricity, pair.difference
        yield f"SSp3[{label}]:opposite", Q + nonmetricity(pair.nabla_star, g, pair.dg)
        # Delta(nabla*, nabla) = -Delta(nabla, nabla*).
        res = contract_sum((1, "abc->abc", Q.comps), (1, "eab,ec->abc", delta.comps, g.matrix))
        yield f"SSp3[{label}]:difference", ETensor(0, 3, A.rank, A.coords, res)


@_check("SSp4")
def check_ssp4(ctx):
    """An admissible strong conjugate forces the Levi-Civita self-pair."""
    for label, pair in ctx.pairs:
        if not pair.strongly_conjugate_and_admissible:
            yield _na(f"SSp4[{label}]", _NOT_STRONG)
            continue
        yield f"SSp4[{label}]:self-conjugate", pair.difference
        yield f"SSp4[{label}]:metric-compatible", pair.nonmetricity


@_check("SSp5")
def check_ssp5(ctx):
    """Statistical-solve postconditions for the document's (C, B) data."""
    A = ctx.A
    tensors = ctx.doc.tensors
    for label, g in sorted(ctx.doc.metrics.items()):
        C = tensors.get("C", ETensor.zeros(0, 3, A.rank, A.coords))
        B = tensors.get("B", ETensor.zeros(1, 2, A.rank, A.coords))
        try:
            pair = statistical_solve(A, StatisticalStructure(g, C, B))
        except LeibnizGeoError as exc:
            yield _na(f"SSp5[{label}]", f"solve not applicable: {exc}")
            continue
        yield f"SSp5[{label}]:skewness", pair.nonmetricity + C
        yield f"SSp5[{label}]:torsion-free", pair.nabla.torsion
        yield f"SSp5[{label}]:conjugate-torsion", pair.nabla_star.torsion - B


@_check("SSp6")
def check_ssp6(ctx):
    """Quasi-statistical structures fix the conjugate's torsion."""
    for label, pair in ctx.pairs:
        T = pair.nabla.torsion
        if not _quasi_statistical_residual(pair.g, pair.nonmetricity, T).is_zero:
            yield _na(f"SSp6[{label}]", "doublet is not quasi-statistical")
        else:
            yield f"SSp6[{label}]", _torsion_transfer_residual(pair)


@_check("SSp7")
def check_ssp7(ctx):
    """Relative torsion antisymmetry for admissible conjugate pairs."""
    for label, pair in ctx.pairs:
        if not pair.jointly_admissible:
            yield _na(f"SSp7[{label}]", _NOT_JOINTLY_ADMISSIBLE)
        else:
            res = pair.relative_torsion + pair.relative_torsion_star.swap_slots(2, 3)
            yield f"SSp7[{label}]", res


@_check("SSp8")
def check_ssp8(ctx):
    """T(nabla, nabla*) + T(nabla*, nabla) = T(nabla) + T(nabla*)."""
    for label, pair in ctx.pairs:
        res = pair.relative_torsion + pair.relative_torsion_star - pair.torsion_sum
        yield f"SSp8[{label}]", res


@_check("SSp9")
def check_ssp9(ctx):
    """The mean connection is metric-compatible with half the total torsion."""
    A = ctx.A
    for label, pair in ctx.pairs:
        yield f"SSp9[{label}]:metric-compatible", nonmetricity(pair.mean, pair.g, pair.dg)
        res = contract_sum(
            (1, "abc->abc", pair.mean.torsion.comps),
            (-Fraction(1, 2), "abc->abc", pair.torsion_sum.comps),
        )
        yield f"SSp9[{label}]:torsion-mean", ETensor(1, 2, A.rank, A.coords, res)


@_check("SSp10")
def check_ssp10(ctx):
    """Conjugation, torsion, and nonmetricity of the alpha family."""
    A = ctx.A
    for label, pair in ctx.pairs:
        g, dg, Q = pair.g, pair.dg, pair.nonmetricity.comps
        T, T_star = pair.nabla.torsion.comps, pair.nabla_star.torsion.comps
        for alpha in ALPHA_VALUES:
            conn_alpha = alpha_connection(pair, alpha)
            conj = conjugate_connection(g, conn_alpha, dg)
            yield (
                f"SSp10[{label}]:involution(alpha={alpha})",
                difference_tensor(conj, alpha_connection(pair, -alpha)),
            )
            s, t = alpha_weights(alpha)
            T_alpha, Q_alpha = conn_alpha.torsion.comps, nonmetricity(conn_alpha, g, dg).comps
            res = contract_sum(
                (1, "abc->abc", T_alpha), (-s, "abc->abc", T_star), (-t, "abc->abc", T)
            )
            yield f"SSp10[{label}]:torsion(alpha={alpha})", ETensor(1, 2, A.rank, A.coords, res)
            res = contract_sum((1, "abc->abc", Q_alpha), (alpha, "abc->abc", Q))
            yield (
                f"SSp10[{label}]:nonmetricity(alpha={alpha})",
                ETensor(0, 3, A.rank, A.coords, res),
            )


@_check("SSp11", needs_projector=True)
def check_ssp11(ctx):
    """Curvature decomposition of the alpha family."""
    for label, pair in ctx.pairs:
        for alpha in ALPHA_VALUES:
            yield f"SSp11[{label}]:alpha={alpha}", alpha_curvature_residual(pair, alpha)


@_check("SSe8")
def check_sse8(ctx):
    """Joint admissibility forces antisymmetry of the locality difference."""
    for label, pair in ctx.pairs:
        if not pair.jointly_admissible:
            yield _na(f"SSe8[{label}]", _NOT_JOINTLY_ADMISSIBLE)
        else:
            yield f"SSe8[{label}]", admissibility_locality_residual(pair)


@_check("SSe25")
def check_sse25(ctx):
    """Endpoint identities of the alpha family."""
    for label, pair in ctx.pairs:
        endpoints = (
            ("alpha=1-is-conjugate", alpha_connection(pair, 1), pair.nabla_star),
            ("alpha=-1-is-nabla", alpha_connection(pair, -1), pair.nabla),
            ("alpha=0-is-mean", alpha_connection(pair, 0), pair.mean),
        )
        for tag, got, expect in endpoints:
            yield f"SSe25[{label}]:{tag}", difference_tensor(got, expect)


@_check("SS29", needs_projector=True)
def check_ss29(ctx):
    """Flat conjugate pairs have an alpha-symmetric curvature family."""
    for label, pair in ctx.pairs:
        R, R_star = pair.nabla.curvature, pair.nabla_star.curvature
        if not (R.is_zero and R_star.is_zero):
            yield _na(f"SS29[{label}]", "pair is not flat")
            continue
        for alpha in ALPHA_VALUES:
            yield f"SS29[{label}]:alpha={alpha}", alpha_flat_symmetry_residual(pair, alpha)


# -- hessian layer ------------------------------------------------------------


def _hessian_asymmetry(conn, prefix):
    """H(f) - H(f)^T of conn for each default probe function f."""
    for index, f in enumerate(_default_probes(conn.algebroid)):
        H = hessian(conn, f)
        yield f"{prefix}:probe-{index}", H - H.swap_slots(1, 2)


@_check("lp1", needs_projector=True)
def check_lp1(ctx):
    """Three-way Hessian symmetry equivalence report."""
    for name, conn in ctx.connections:
        report = hessian_symmetry_equivalences(conn)
        yield from ((f"lp1[{name}]:{key}", value) for key, value in report.entries.items())


@_check("lp2", needs_projector=True)
def check_lp2(ctx):
    """Hessian structures are Codazzi; includes the lc3 statistical shadow."""
    if not ctx.doc.functions:
        yield _na("lp2", "no potential function declared")
        return
    for fname, f in sorted(ctx.doc.functions.items()):
        for label, pair in ctx.pairs:
            entries = hessian_structure_check(pair.nabla, pair.g, f).entries
            # The report certifies the Codazzi property only for a Hessian structure.
            if "codazzi" not in entries:
                yield _na(f"lp2[{label}:{fname}]", "not a Hessian structure")
                continue
            yield f"lp2[{label}:{fname}]:codazzi", entries["codazzi"]
            if "statistical-invariants" in entries:
                yield f"lc3[{label}:{fname}]", entries["statistical-invariants"]


@_check("lp3", needs_projector=True)
def check_lp3(ctx):
    """Fundamental theorem residual with holonomy preconditions."""
    for label, pair in ctx.pairs:
        if pair.holonomic:
            yield f"lp3[{label}]", fundamental_theorem_residual(pair)
        else:
            nonzero = pair.holonomy_obstruction.nonzero_count()
            note = f"anholonomic frame; obstruction nonzero components = {nonzero}"
            yield _na(f"lp3[{label}]", note)


@_check("lc1", needs_projector=True)
def check_lc1(ctx):
    """Projected torsion with image in ker rho still gives symmetric Hessians."""
    for name, conn in ctx.connections:
        if not conn.anchored_projected_torsion.is_zero:
            yield _na(f"lc1[{name}]", "projected torsion image escapes ker rho")
        else:
            yield from _hessian_asymmetry(conn, f"lc1[{name}]")


@_check("lc2", needs_projector=True)
def check_lc2(ctx):
    """Torsion transfer makes the conjugate's Hessian symmetric too."""
    for label, pair in ctx.pairs:
        if not pair.nabla.projected_torsion.is_zero:
            yield _na(f"lc2[{label}]", "connection not projected-torsion-free")
        elif not (pair.nabla.torsion - pair.nabla_star.torsion - pair.bracket_difference).is_zero:
            yield _na(f"lc2[{label}]", "torsion-transfer hypothesis fails")
        else:
            yield from _hessian_asymmetry(pair.nabla_star, f"lc2[{label}]")


@_check("lc4", needs_projector=True)
def check_lc4(ctx):
    """Constant curvature transfers to the conjugate under lp3 hypotheses."""
    for label, pair in ctx.pairs:
        if not pair.holonomic:
            yield _na(f"lc4[{label}]", "anholonomic frame")
            continue
        if not pair.nabla.admissible:
            yield _na(f"lc4[{label}]", "connection not admissible")
            continue
        constant, kappa = constant_curvature_check(pair.nabla, pair.g)
        if not constant:
            yield _na(f"lc4[{label}]", "connection has no constant curvature")
        else:
            residual = conjugate_curvature_transfer_residual(pair, kappa)
            yield f"lc4[{label}]:kappa={kappa}", residual


REGISTRY["lc3"] = check_lp2


def run_check(check_id, doc):
    """The records of one check; KeyError for an unknown id."""
    with normal_form_memo():
        return REGISTRY[check_id](_Context(doc))


def run_all(doc):
    """The records of every check, each runner once, at its first id in report order."""
    with normal_form_memo():
        ctx = _Context(doc)
        runners = dict.fromkeys(REGISTRY[check_id] for check_id in sorted(REGISTRY, key=str.lower))
        return [record for runner in runners for record in runner(ctx)]
