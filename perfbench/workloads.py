"""The benchmark's three workloads: inputs made from a seed, operations, checks.

Each workload is a closed loop with one caller.  ``build`` makes the inputs
(in the caller's process), ``ops`` lists one pass of operations, and each
operation's ``check`` compares its output with an oracle from ``oracles``.
An operation *fails* when it breaks the program's documented contract (an
exception in-process, a wrong exit code or a traceback from the CLI); it is
*incorrect* when it completes but its output disagrees with the oracle.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import sympy as sp

import oracles

BUNDLED = ("courant1", "so3", "tangent2_hyperbolic", "tangent2_polar")
EXPECTED = Path(__file__).resolve().parent / "expected" / "applicability.json"
CHILD = Path(__file__).resolve().parent / "child.py"
CLI_TIMEOUT_S = 170


@dataclass
class Op:
    """One timed operation: ``run`` does the work, ``check`` judges its output.

    ``check`` returns (failed, errors): failed means the contract was broken,
    errors lists disagreements with the oracle.
    """

    label: str
    run: object
    check: object


def load_expected():
    return json.loads(EXPECTED.read_text())


# -- check-all-bundled ----------------------------------------------------------


class CheckAllBundled:
    """checks.run_all in-process on every bundled model; the seed orders them."""

    name = "check-all-bundled"
    in_process = True

    def __init__(self, root, seed, workdir):
        self.root = Path(root)
        self.order = list(BUNDLED)
        random.Random(seed).shuffle(self.order)
        self.expected = None
        self.docs = {}

    def build(self, lg):
        self.expected = load_expected()
        self.docs = {
            name: lg.model.load_model(str(self.root / "models" / f"{name}.model"))
            for name in self.order
        }

    def ops(self, lg):
        return [self._op(lg, name) for name in self.order]

    def _op(self, lg, name):
        doc = self.docs[name]

        def run():
            return [result.to_record() for result in lg.checks.run_all(doc)]

        def check(records):
            return False, oracles.check_records(records, self.expected[name], name)

        return Op(f"check-all:{name}", run, check)


# -- koszul-solve ---------------------------------------------------------------


# The magnitudes and shapes of the koszul-solve inputs come from one fixed
# draw, so every seed poses problems of the same size.  The seed picks a
# coordinate reflection x_a -> d_a x_a for each problem: it flips the signs of
# frame vectors, and so of metric and C components, and leaves the cost of an
# exact solve unchanged.  Drawing magnitudes per seed made the courant(2) solve
# alone vary by 25 % between seeds.
BASE_SEED = 0
TANGENT3_METRICS = 3


def reflection(rng, n):
    """Signs (d_1, ..., d_n) of the coordinate reflection x_a -> d_a x_a."""
    return [rng.choice((-1, 1)) for _ in range(n)]


def courant2_metric(base, d):
    """Dense symmetric 4x4 integer metric, entries in +-{1,2,3}, nondegenerate,
    drawn from ``base``; then g_ab -> D_a D_b g_ab with D = (d_1, d_2, d_1, d_2),
    since reflecting x_a flips both d/dx_a and dx_a."""
    r = 4
    while True:
        m = [[0] * r for _ in range(r)]
        for a in range(r):
            for b in range(a, r):
                m[a][b] = m[b][a] = base.choice((-3, -2, -1, 1, 2, 3))
        if oracles.fraction_determinant(m) != 0:
            break
    D = d + d
    return [[D[a] * D[b] * m[a][b] for b in range(r)] for a in range(r)]


def tangent3_metric(base, d):
    """g_aa = c_a + d_a*s_a*x_a with (c_1, c_2, c_3) a shuffle of (1, 2, 3) and
    s_a = +-1, g_12 = g_21 = d_1*d_2*t with t = +-1, the other entries 0; c, s
    and t are drawn from ``base``.  Nondegenerate: det is a nonzero polynomial."""
    offsets = [1, 2, 3]
    base.shuffle(offsets)
    slopes = [base.choice((-1, 1)) for _ in range(3)]
    m = [["0"] * 3 for _ in range(3)]
    for a in range(3):
        m[a][a] = f"{offsets[a]} + ({d[a] * slopes[a]})*x{a + 1}"
    m[0][1] = m[1][0] = str(d[0] * d[1] * base.choice((-1, 1)))
    return m


def symmetric_c(base, d):
    """Totally symmetric constant (0,3) components C_abc = d_a*d_b*d_c*v_abc, each
    v in +-{1,2} drawn from ``base``."""
    values = {
        key: base.choice((-2, -1, 1, 2))
        for key in itertools.combinations_with_replacement(range(3), 3)
    }
    return [
        [[d[a] * d[b] * d[c] * values[tuple(sorted((a, b, c)))] for c in range(3)] for b in range(3)]
        for a in range(3)
    ]


class KoszulSolve:
    """Exact Koszul solves on seeded metrics: one courant(2) Levi-Civita solve,
    then a Levi-Civita and a statistical solve for each of three tangent(3) metrics."""

    name = "koszul-solve"
    in_process = True

    def __init__(self, root, seed, workdir):
        base, rng = random.Random(BASE_SEED), random.Random(seed)
        self.m2 = courant2_metric(base, reflection(rng, 2))
        self.m3, self.c3 = [], []
        for _ in range(TANGENT3_METRICS):
            d = reflection(rng, 3)
            self.m3.append(tangent3_metric(base, d))
            self.c3.append(symmetric_c(base, d))

    def build(self, lg):
        self.A2 = lg.algebroid.courant(2)
        self.g2 = lg.tensor.EMetric(
            [[self.A2.field(v) for v in row] for row in self.m2], self.A2.coords
        )
        self.A3 = A = lg.algebroid.tangent(3)
        self.g3 = [
            lg.tensor.EMetric([[A.field(v) for v in row] for row in m], A.coords) for m in self.m3
        ]
        B = lg.tensor.ETensor.zeros(1, 2, 3, A.coords)
        self.S3 = []
        for g, c in zip(self.g3, self.c3):
            entries = [[[A.field(v) for v in row] for row in plane] for plane in c]
            C = lg.tensor.ETensor(0, 3, 3, A.coords, lg.tensor.object_array(entries))
            self.S3.append(lg.statgeo.StatisticalStructure(g, C, B))

    def ops(self, lg):
        # The long courant(2) solve sits between the first tangent(3) metric
        # and the others, so the three statistical solves are timed about
        # 20 s apart, not back to back.
        solve = lg.connection.levi_civita_solve
        ops = []
        for i in range(TANGENT3_METRICS):
            ops.append(
                Op(
                    f"levi-civita:tangent3#{i}",
                    lambda i=i: solve(self.A3, self.g3[i]),
                    lambda conn, i=i: self._check_tangent(conn, i),
                )
            )
            ops.append(
                Op(
                    f"statistical:tangent3#{i}",
                    lambda i=i: lg.statgeo.statistical_solve(self.A3, self.S3[i]),
                    lambda pair, i=i: self._check_statistical(pair, i),
                )
            )
        courant = Op("levi-civita:courant2", lambda: solve(self.A2, self.g2), self._check_courant)
        ops.insert(2, courant)
        return ops

    @staticmethod
    def _symbols():
        xs = sp.symbols("x1 x2 x3")
        return xs, list(zip(map(str, xs), xs))

    def _sym_metric(self, i):
        _, names = self._symbols()
        return [[oracles.parse(v, names) for v in row] for row in self.m3[i]]

    def _check_courant(self, conn):
        gamma = _strings(conn.gamma)
        fr = [[[Fraction(v) for v in row] for row in plane] for plane in gamma]
        metric = [[Fraction(v) for v in row] for row in self.m2]
        return False, oracles.courant_levi_civita(fr, metric, 2)

    def _check_tangent(self, conn, i):
        xs, names = self._symbols()
        expected = oracles.christoffel(self._sym_metric(i), xs)
        return False, oracles.compare_gamma(_strings(conn.gamma), expected, names, f"tangent3#{i}")

    def _check_statistical(self, pair, i):
        xs, names = self._symbols()
        plus, minus = oracles.statistical(self._sym_metric(i), xs, self.c3[i])
        return False, oracles.compare_gamma(
            _strings(pair.nabla.gamma), plus, names, "nabla"
        ) + oracles.compare_gamma(_strings(pair.nabla_star.gamma), minus, names, "nabla*")


def _strings(gamma):
    r = gamma.shape[0]
    return [[[str(gamma[a, b, c]) for c in range(r)] for b in range(r)] for a in range(r)]


# -- cli-session ----------------------------------------------------------------


def tangent2_document(**extra):
    """A tangent(2) model document written directly in the file format."""
    doc = {
        "dimension": 2,
        "rank": 2,
        "coordinates": ["x1", "x2"],
        "anchor": [["1", "0"], ["0", "1"]],
        "bracket": {},
        "locality": {},
        "projector": [["1", "0"], ["0", "1"]],
    }
    doc.update(extra)
    return doc


def seeded_metric(rng):
    """diag(a + b*x2^2, c + d*x1^2) with positive integer a, b, c, d."""
    a, b, c, d = (rng.randint(1, 4) for _ in range(4))
    return [[f"{a} + {b}*x2^2", "0"], ["0", f"{c} + {d}*x1^2"]]


# Generated inputs the program must reject with exit code 2.  Both are fixed,
# not seeded: they fail on every run until the program is mended.
F1_DOCUMENT = tangent2_document(
    metrics={"g": [["1", "0"], ["0", "1"]]},
    tensors={"C": {"type": [0, 3], "components": {"1,1,2": "1"}}},
)
F2_DEPTH = 3000
F2_DOCUMENT = tangent2_document(functions={"f": "(" * F2_DEPTH + "x1" + ")" * F2_DEPTH})
BUILTINS = ("courant1", "courant2", "so3", "tangent2", "tangent3")


class CliSession:
    """A fixed sequence of CLI calls, each a child process; the seed orders
    the calls and picks the metric of one generated model."""

    name = "cli-session"
    in_process = False

    def __init__(self, root, seed, workdir):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.rng = random.Random(seed)
        self.seeded = seeded_metric(self.rng)
        self.expected = None
        self.timing_out = self.workdir / "timing.json"
        self.tracer_out = None  # set by the runner for a traced pass
        self.child_traces = []  # (wall seconds, child trace) per traced call
        self.stdout_bytes = 0

    def build(self, lg):
        self.expected = load_expected()
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, doc in (
            ("seeded", tangent2_document(metrics={"g": self.seeded})),
            ("f1_asymmetric_c", F1_DOCUMENT),
            ("f2_deep_nesting", F2_DOCUMENT),
        ):
            (self.workdir / f"{name}.model").write_text(json.dumps(doc))
        self.units = self._units()
        self.rng.shuffle(self.units)

    def model(self, name):
        if name in BUNDLED:
            return str(self.root / "models" / f"{name}.model")
        return str(self.workdir / f"{name}.model")

    def _units(self):
        """Calls grouped into units; a unit's calls stay in order when shuffled."""
        ok = self._expect_ok
        units = [
            [self._call("validate", "tangent2_polar", check=ok)],
            [self._call("validate", "so3", check=ok)],
            [self._call("torsion", "courant1", check=ok)],
            [self._call("torsion", "tangent2_hyperbolic", check=ok)],
            [self._call("curvature", "tangent2_polar", check=ok)],
            [self._call("curvature", "so3", check=ok)],
            [self._call("nonmetricity", "tangent2_hyperbolic", check=ok)],
            [self._call("nonmetricity", "courant1", check=ok)],
            [self._call("levi-civita", "tangent2_polar", "--dump-residuals",
                        check=self._check_polar)],
            [self._call("levi-civita", "tangent2_hyperbolic", "--dump-residuals",
                        check=self._christoffel_check([["1/x2^2", "0"], ["0", "1/x2^2"]]))],
            [self._call("levi-civita", "seeded", "--dump-residuals",
                        check=self._christoffel_check(self.seeded))],
            [self._call("levi-civita", "so3", check=ok)],
            [self._call("levi-civita", "courant1", check=self._expect_error(2, "NonUnique"))],
            [self._call("conjugate", "so3", check=ok)],
            [self._call("conjugate", "tangent2_polar", check=ok)],
            [self._call("mean", "tangent2_polar", check=ok)],
            [self._call("alpha", "tangent2_polar", "--alpha", "1/2", check=ok)],
            [self._call("alpha", "courant1", "--alpha", "-1", check=ok)],
            [self._call("hessian", "tangent2_polar", check=ok)],
            [self._call("dhat", "tangent2_polar", check=ok)],
            [self._call("check", "so3", check_id="SSp3", check=self._check_subset("so3", "SSp3"))],
            [self._call("check", "courant1", check_id="eb12",
                        check=self._check_subset("courant1", "eb12"))],
            [self._call("check", "tangent2_hyperbolic", check_id="SSe25",
                        check=self._check_subset("tangent2_hyperbolic", "SSe25"))],
            [self._call("check", "so3", check_id="no-such-check",
                        check=self._expect_error(2, "UnknownCommand"))],
            [self._call("hessian", "so3", check=self._expect_error(2, "MissingInput"))],
            [self._call("statistical-solve", "f1_asymmetric_c", check=self._expect_error(2))],
            [self._call("validate", "f2_deep_nesting", check=self._expect_error(2))],
        ]
        for name in BUILTINS:
            exported = self.workdir / f"export_{name}.model"
            units.append(
                [
                    self._call("export-builtin", None, check_id=name,
                               check=self._check_export, save=exported),
                    self._call("validate", f"export_{name}", check=ok),
                ]
            )
        return units

    def ops(self, lg):
        return [op for unit in self.units for op in unit]

    # -- one call ---------------------------------------------------------------

    def _call(self, command, model, *extra, check_id=None, check, save=None):
        argv = [command] + ([check_id] if check_id else [])
        if model is not None:
            argv += ["--model", self.model(model)]
        argv += [*extra, "--format", "json-lines"]
        label = " ".join([command] + ([check_id] if check_id else []) + ([model] if model else []))

        def run():
            return self.invoke(argv, save)

        return Op(label, run, check)

    def invoke(self, argv, save=None):
        """Run one CLI call in a child process: timed with the speed clock
        (child.py timed), or under the span tracer when ``tracer_out`` is set."""
        if self.tracer_out is None:
            out = self.timing_out
            cmd = [sys.executable, str(CHILD), "timed", str(out), *argv]
        else:
            out = Path(self.tracer_out)
            cmd = [sys.executable, str(CHILD), "cli", str(out), *argv]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.root, env=env, capture_output=True, timeout=CLI_TIMEOUT_S
        )
        wall = time.perf_counter() - start
        self.stdout_bytes += len(proc.stdout)
        if self.tracer_out is not None and out.exists():
            self.child_traces.append((wall, json.loads(out.read_text())))
        if save is not None:
            Path(save).write_bytes(proc.stdout)
        return proc

    def scale(self, wall):
        """(reference seconds, wall seconds) of the last call, whose parent-side
        wall time is ``wall``: the time the child spent reading its clock is
        taken out, and the rest counts at the child's mean measured speed."""
        try:
            reference_s, child_wall_s, reading_s = json.loads(self.timing_out.read_text())
        except (OSError, ValueError):
            return wall, wall  # the child died before writing its timing
        wall -= reading_s
        return wall * reference_s / child_wall_s, wall

    # -- checks -------------------------------------------------------------------

    @staticmethod
    def _records(proc):
        return [json.loads(line) for line in proc.stdout.decode().splitlines() if line]

    def _expect_ok(self, proc):
        if proc.returncode != 0 or b"Traceback" in proc.stderr:
            return True, []
        try:
            records = self._records(proc)
        except ValueError as exc:
            return False, [f"stdout is not json-lines: {exc}"]
        bad = [r["check"] for r in records if r.get("status") not in ("pass", "not-applicable")]
        return False, [f"record {name} did not pass" for name in bad]

    def _check_export(self, proc):
        """export-builtin prints one JSON document; the validate call after it reloads it."""
        if proc.returncode != 0 or b"Traceback" in proc.stderr:
            return True, []
        try:
            document = json.loads(proc.stdout)
        except ValueError as exc:
            return False, [f"export is not JSON: {exc}"]
        return False, [] if isinstance(document, dict) else ["export is not a JSON object"]

    def _expect_error(self, code, error=None):
        def check(proc):
            if proc.returncode != code or b"Traceback" in proc.stderr:
                return True, []
            try:
                (record,) = [json.loads(line) for line in proc.stderr.decode().splitlines() if line]
            except ValueError:
                return True, []
            if record.get("status") != "error":
                return True, []
            if error is not None and record.get("error") != error:
                return False, [f"expected {error}, got {record.get('error')}"]
            return False, []

        return check

    def _check_subset(self, model, check_id):
        prefix = (f"{check_id}[", f"{check_id}:")

        def check(proc):
            failed, errors = self._expect_ok(proc)
            if failed:
                return failed, errors
            records = self._records(proc)
            expected = [row for row in self.expected[model] if row[0].startswith(prefix)]
            errors += oracles.check_records(records, expected, f"check {check_id} {model}")
            return False, errors

        return check

    def _gamma_from_dump(self, proc, r):
        (record,) = [rec for rec in self._records(proc) if rec["check"].endswith(":gamma")]
        gamma = [[["0"] * r for _ in range(r)] for _ in range(r)]
        for key, value in record.get("components", {}).items():
            a, b, c = (int(i) - 1 for i in key.split(","))
            gamma[a][b][c] = value
        return gamma

    def _christoffel_check(self, metric):
        def check(proc):
            failed, errors = self._expect_ok(proc)
            if failed:
                return failed, errors
            xs = sp.symbols("x1 x2")
            names = list(zip(map(str, xs), xs))
            sym = [[oracles.parse(v, names) for v in row] for row in metric]
            expected = oracles.christoffel(sym, xs)
            gamma = self._gamma_from_dump(proc, 2)
            return False, errors + oracles.compare_gamma(gamma, expected, names, "levi-civita")

        return check

    def _check_polar(self, proc):
        failed, errors = self._christoffel_check([["1", "0"], ["0", "x1^2"]])(proc)
        if failed:
            return failed, errors
        x1 = sp.Symbol("x1")
        gamma = self._gamma_from_dump(proc, 2)
        for (a, b, c), value in (((0, 1, 1), -x1), ((1, 0, 1), 1 / x1), ((1, 1, 0), 1 / x1)):
            if sp.cancel(oracles.parse(gamma[a][b][c], [("x1", x1)]) - value) != 0:
                errors.append(f"polar Gamma^{a + 1}_{b + 1}{c + 1} = {gamma[a][b][c]}")
        return False, errors


WORKLOADS = {cls.name: cls for cls in (CheckAllBundled, KoszulSolve, CliSession)}
