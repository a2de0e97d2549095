"""Fast tests of the benchmark itself: span arithmetic, oracles, accounting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# -- span arithmetic --------------------------------------------------------------


def test_self_time_on_synthetic_tree():
    # root A [0, 10] with children B [1, 3] and C [4, 5]; C has child D [4.5, 4.75]
    t = tracing.Tracer(clock=FakeClock([0, 1, 3, 4, 4.5, 4.75, 5, 10]))
    a = t.open("checks.a")
    b = t.open("scalar.b")
    t.close(b)
    c = t.open("connection.c")
    d = t.open("scalar.d")
    t.close(d)
    t.close(c)
    t.close(a)
    table, root_s = t.summary()
    assert root_s == 10
    assert table["checks.a"] == [1, 10, 7]
    assert table["scalar.b"] == [1, 2, 2]
    assert table["connection.c"] == [1, 1, 0.75]
    assert table["scalar.d"] == [1, 0.25, 0.25]
    metrics = tracing.layer_metrics(table, {})
    assert metrics["scalar.self_s"] == 2.25
    assert metrics["connection.self_s"] == 0.75
    assert metrics["checks.self_s"] == 7
    assert metrics["trace.spans"] == 4
    # self times partition the time covered by root spans
    assert sum(row[2] for row in table.values()) == root_s


def test_added_span_and_merge():
    t = tracing.Tracer(clock=FakeClock([0, 0]))
    t.add("cli.import", 2.0, 2.5)
    table, root_s = t.summary()
    assert table == {"cli.import": [1, 0.5, 0.5]} and root_s == 0.5
    merged = tracing.merge(tracing.merge({}, table), table)
    assert merged == {"cli.import": [2, 1.0, 1.0]}
    assert tracing.layer_metrics(merged, {})["cli.import_s"] == 1.0


def test_install_reaches_names_bound_by_from_import():
    import leibniz_geo as lg
    import leibniz_geo.checks  # noqa: F401

    original = lg.checks.torsion
    t = tracing.Tracer()
    t.install(lg)
    try:
        assert lg.checks.torsion is lg.connection.torsion is not original
        assert lg.checks.REGISTRY["lc3"] is lg.checks.REGISTRY["lp2"]
        A = lg.tangent(2)
        lg.checks.torsion(A, lg.EConnection.zero(A))
        x = A.x(1)
        _ = (x + A.zero()) * x
    finally:
        t.uninstall()
    assert lg.checks.torsion is original
    table, _ = t.summary()
    metrics = tracing.layer_metrics(table, t.counts)
    assert metrics["connection.torsion.calls"] == 1
    assert metrics["connection.modified_bracket_coeffs.calls"] == 1
    assert t.counts["scalar.ops_zero_operand"] >= 1
    assert metrics["scalar.normal_forms"] >= 1


# -- oracles and their negative controls ------------------------------------------

POLAR = [["1", "0"], ["0", "x1^2"]]
POLAR_GAMMA = [[["0", "0"], ["0", "-x1"]], [["0", "1/x1"], ["1/x1", "0"]]]


def _sym(metric):
    import sympy as sp

    xs = sp.symbols("x1 x2")
    names = list(zip(map(str, xs), xs))
    return xs, names, [[oracles.parse(v, names) for v in row] for row in metric]


def test_christoffel_oracle_and_negative_control():
    xs, names, metric = _sym(POLAR)
    expected = oracles.christoffel(metric, xs)
    assert oracles.compare_gamma(POLAR_GAMMA, expected, names, "polar") == []
    perturbed = json.loads(json.dumps(POLAR_GAMMA))
    perturbed[0][1][1] = "-x1 + 1"
    assert oracles.compare_gamma(perturbed, expected, names, "polar")


def test_statistical_oracle_and_negative_control():
    xs, names, metric = _sym(POLAR)
    C = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    C[0][0][0] = 1
    plus, minus = oracles.statistical(metric, xs, C)
    # Gamma(+)^1_11 = Christoffel^1_11 + C_111 / 2 = 1/2
    assert plus[0][0][0] == Fraction(1, 2) and minus[0][0][0] == -Fraction(1, 2)
    as_strings = [[[str(v) for v in row] for row in plane] for plane in plus]
    assert oracles.compare_gamma(as_strings, plus, names, "nabla") == []
    assert oracles.compare_gamma(as_strings, minus, names, "nabla*")


def test_courant_fraction_oracle_and_negative_control():
    rows = ([2, 1, 0, 1], [1, 3, 1, 0], [0, 1, 1, 2], [1, 0, 2, 1])
    metric = [[Fraction(v) for v in row] for row in rows]
    zero = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
    # With c = 0 and a constant metric, Gamma = 0 is torsion-free and metric-compatible.
    assert oracles.courant_levi_civita(zero, metric, 2) == []
    perturbed = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
    perturbed[0][1][2] = Fraction(1, 3)
    errors = oracles.courant_levi_civita(perturbed, metric, 2)
    assert any(e.startswith("torsion") for e in errors)
    assert any(e.startswith("nonmetricity") for e in errors)


def test_locality_matches_eta_pairing():
    L = oracles.courant_locality(1)
    # eta pairs frame 0 with frame 1: L^{ad}_{ec} = eta_ec eta^da
    assert L == {(0, 1, 0, 1): 1, (0, 1, 1, 0): 1, (1, 0, 0, 1): 1, (1, 0, 1, 0): 1}


def test_fraction_determinant():
    assert oracles.fraction_determinant([[1, 2], [3, 4]]) == -2
    assert oracles.fraction_determinant([[1, 2], [2, 4]]) == 0


def test_check_records_rejects_fail_and_applicability_change():
    expected = [["SSp3[g:n]:opposite", "pass"], ["SSp1[g:n]", "not-applicable"]]
    records = [{"check": c, "status": s} for c, s in expected]
    assert oracles.check_records(records, expected, "m") == []
    failing = [dict(records[0], status="fail"), records[1]]
    assert oracles.check_records(failing, expected, "m")
    now_applies = [records[0], dict(records[1], status="pass")]
    assert oracles.check_records(now_applies, expected, "m")


# -- CLI checks and pass/fail accounting --------------------------------------------


def proc(code, stdout=b"", stderr=b""):
    return subprocess.CompletedProcess([], code, stdout, stderr)


@pytest.fixture
def session(tmp_path):
    return workloads.CliSession(ROOT, 7, tmp_path)


def _dump(gamma):
    components = {
        f"{a + 1},{b + 1},{c + 1}": value
        for a, plane in enumerate(gamma)
        for b, row in enumerate(plane)
        for c, value in enumerate(row)
        if value != "0"
    }
    record = {"check": "levi-civita[g]:gamma", "status": "pass", "components": components}
    return (json.dumps(record) + "\n").encode()


def test_polar_dump_check_and_negative_control(session):
    assert session._check_polar(proc(0, _dump(POLAR_GAMMA))) == (False, [])
    wrong = json.loads(json.dumps(POLAR_GAMMA))
    wrong[1][0][1] = "x1"
    failed, errors = session._check_polar(proc(0, _dump(wrong)))
    assert not failed and errors


def test_export_check_and_negative_control(session):
    assert session._check_export(proc(0, b'{\n  "dimension": 2\n}\n')) == (False, [])
    failed, errors = session._check_export(proc(0, b'{"dimension": 2'))
    assert not failed and errors
    assert session._check_export(proc(2, stderr=b'{"status":"error"}\n'))[0]


def test_error_exit_accounting_for_f1_f2(session):
    check = session._expect_error(2)
    traceback = b"Traceback (most recent call last):\nValueError: C must be totally symmetric\n"
    assert check(proc(1, stderr=traceback)) == (True, [])
    recursion = b"Traceback (most recent call last):\nRecursionError: maximum recursion depth\n"
    assert check(proc(1, stderr=recursion)) == (True, [])
    mended = b'{"check":"validate","error":"ExprSyntaxError","status":"error"}\n'
    assert check(proc(2, stderr=mended)) == (False, [])
    named = session._expect_error(2, "NonUnique")
    assert named(proc(2, stderr=mended))[1]


def test_judge_counts_attempts_failures_and_errors():
    ok = workloads.Op("ok", None, lambda out: (False, []))
    wrong = workloads.Op("wrong", None, lambda out: (False, ["differs"]))
    unreadable = workloads.Op("unreadable", None, lambda out: out["missing"])
    broken = workloads.Op("broken", None, lambda out: (True, []))
    tally = {"attempted": 0, "failed": 0, "failures": [], "errors": []}
    timings = [(ok, 0.1, 1), (wrong, 0.1, 2), (broken, 0.1, proc(1)), (ok, 0.1, ValueError("x"))]
    timings.append((unreadable, 0.1, {}))
    run.judge(timings, tally)
    assert tally["attempted"] == 5 and tally["failed"] == 2
    assert tally["errors"][0] == "wrong: differs"
    assert tally["errors"][1].startswith("unreadable: output not readable")


def test_f1_f2_inputs_do_not_depend_on_the_seed(tmp_path):
    sessions = [workloads.CliSession(ROOT, seed, tmp_path / str(seed)) for seed in (1, 2)]
    for session in sessions:
        session.build(None)
    labels = [{op.label for op in session.ops(None)} for session in sessions]
    assert labels[0] == labels[1]
    assert {"statistical-solve f1_asymmetric_c", "validate f2_deep_nesting"} <= labels[0]
    for name in ("f1_asymmetric_c", "f2_deep_nesting"):
        first, second = (Path(s.model(name)).read_bytes() for s in sessions)
        assert first == second


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert out.returncode != 0 and out.stdout == ""


# -- inputs and timing ----------------------------------------------------------------


def test_koszul_inputs_differ_between_seeds_only_by_signs():
    def magnitudes(w):
        courant = [[abs(v) for v in row] for row in w.m2]
        tangent = [[v.replace("-", "") for v in row] for m in w.m3 for row in m]
        c = [abs(v) for cube in w.c3 for plane in cube for row in plane for v in row]
        return courant, tangent, c

    runs = [workloads.KoszulSolve(ROOT, seed, None) for seed in range(1, 9)]
    assert all(magnitudes(w) == magnitudes(runs[0]) for w in runs)
    assert len({json.dumps([w.m2, w.m3, w.c3]) for w in runs}) > 1


def test_koszul_reflection_keeps_c_totally_symmetric():
    w = workloads.KoszulSolve(ROOT, 5, None)
    for c in w.c3:
        for a, b, d in itertools.product(range(3), repeat=3):
            assert c[a][b][d] == c[b][a][d] == c[a][d][b]


def test_speed_clock_scales_wall_time_and_leaves_out_its_own_loop(monkeypatch):
    import speed

    # the reference loop reads twice its nominal time: the machine runs at half speed
    monkeypatch.setattr(speed, "reference_loop_seconds", lambda: 2 * speed.REFERENCE_NOMINAL_S)
    clock = speed.SpeedClock()
    clock.read()
    time.sleep(0.05)
    reference_s, wall_s = clock.read()
    assert 0.05 <= wall_s < 0.5
    assert reference_s == pytest.approx(wall_s / 2)
    assert clock.reading_s < 0.05


def test_sampling_reads_the_clock_while_work_runs_and_restores_the_handler(monkeypatch):
    import signal

    import speed

    loops = []
    monkeypatch.setattr(
        speed, "reference_loop_seconds", lambda: loops.append(1) or speed.REFERENCE_NOMINAL_S
    )
    previous = signal.getsignal(signal.SIGALRM)
    clock = speed.SpeedClock()
    with clock.sampling():
        clock.read()
        end = time.perf_counter() + 10 * speed.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass
        reference_s, wall_s = clock.read()
    assert len(loops) > 4
    assert reference_s == pytest.approx(wall_s)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
