"""Model-document parsing, export round-trips, and the command-line tool."""

import errno
import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from leibniz_geo import checks, courant, tangent
from leibniz_geo.cli import _parse_alpha, main
from leibniz_geo.errors import ExprSyntaxError, ParseError, SchemaError, ShapeError
from leibniz_geo.expr import MAX_CONSTANT_BITS, MAX_DEGREE, MAX_FRACTION_TERMS, MAX_TERMS, parse_expr
from leibniz_geo.model import (
    MAX_RANK,
    MAX_TENSOR_SLOTS,
    dump_model,
    export_algebroid,
    load_model,
    parse_model_text,
)
from leibniz_geo.tensor import Components, ETensor
from conftest import run_cli as cli

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
SHIPPED = sorted(MODELS.glob("*.model"))


MINIMAL = {
    "dimension": 1,
    "rank": 1,
    "coordinates": ["x1"],
    "anchor": [["1"]],
    "bracket": [[["0"]]],
    "locality": [[[["0"]]]],
}


def doc_text(**overrides):
    raw = dict(MINIMAL)
    raw.update(overrides)
    return json.dumps(raw)


def test_shipped_models_exist():
    assert len(SHIPPED) >= 4


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_models_load_and_round_trip(path):
    doc = load_model(path)
    A = doc.algebroid
    exported = export_algebroid(
        A, doc.metrics, doc.connections, doc.tensors, doc.functions
    )
    reloaded = parse_model_text(dump_model(exported))
    B = reloaded.algebroid
    assert B.rank == A.rank and B.coords == A.coords
    for idx in itertools.product(range(A.rank), repeat=3):
        assert (B.bracket[idx] - A.bracket[idx]).is_zero
    assert sorted(reloaded.metrics) == sorted(doc.metrics)
    for name in doc.metrics:
        for i, j in itertools.product(range(A.rank), repeat=2):
            assert (reloaded.metrics[name].matrix[i, j] - doc.metrics[name].matrix[i, j]).is_zero
    for name in doc.connections:
        assert reloaded.connections[name].gamma.entries == doc.connections[name].gamma.entries
    for name in doc.functions:
        assert reloaded.functions[name] == doc.functions[name]


def test_parse_error_on_bad_json():
    with pytest.raises(ParseError) as excinfo:
        parse_model_text("{not json")
    assert "line 1" in str(excinfo.value)


def test_parse_error_on_bad_expression():
    with pytest.raises(ParseError) as excinfo:
        parse_model_text(doc_text(anchor=[["x1 +"]]))
    assert "anchor" in str(excinfo.value)


def test_schema_error_on_unknown_key():
    with pytest.raises(SchemaError) as excinfo:
        parse_model_text(doc_text(surprise=1))
    assert "surprise" in str(excinfo.value)


def test_schema_error_on_missing_field():
    raw = dict(MINIMAL)
    del raw["anchor"]
    with pytest.raises(SchemaError) as excinfo:
        parse_model_text(json.dumps(raw))
    assert "anchor" in str(excinfo.value)


def test_shape_error_names_the_field():
    with pytest.raises(ShapeError) as excinfo:
        parse_model_text(doc_text(anchor=[["1", "2"]]))
    assert "anchor" in str(excinfo.value)


def test_sparse_encoding_matches_dense():
    dense = parse_model_text(
        doc_text(
            rank=2,
            anchor=[["1"], ["0"]],
            bracket=[[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
            locality={"1,1,1,1": "0"},
            connections={"c": {"1,1,2": "x1"}},
        )
    )
    assert str(dense.connections["c"].gamma[0, 0, 1]) == "x1"
    assert dense.connections["c"].gamma[1, 1, 1].is_zero


def test_sparse_key_out_of_range():
    with pytest.raises(ShapeError):
        parse_model_text(doc_text(locality={"1,1,1,2": "0"}))


def test_tensor_symmetry_flags_validated():
    good = doc_text(
        tensors={
            "C": {
                "type": [0, 3],
                "components": [[["x1"]]],
                "symmetry": "totally_symmetric",
            }
        }
    )
    doc = parse_model_text(good)
    assert str(doc.tensors["C"].comps[0, 0, 0]) == "x1"
    bad = doc_text(
        rank=2,
        anchor=[["1"], ["0"]],
        bracket=[[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
        locality={"1,1,1,1": "0"},
        tensors={
            "C": {
                "type": [0, 2],
                "components": [["0", "1"], ["0", "0"]],
                "symmetry": "totally_symmetric",
            }
        },
    )
    with pytest.raises(SchemaError):
        parse_model_text(bad)
    with pytest.raises(SchemaError):
        parse_model_text(
            doc_text(tensors={"C": {"type": [0, 1], "components": ["0"], "symmetry": "weird"}})
        )


def test_export_builtin_round_trips():
    for A in (tangent(2), courant(1)):
        text = dump_model(export_algebroid(A))
        reloaded = parse_model_text(text).algebroid
        assert reloaded.rank == A.rank
        for idx in itertools.product(range(A.rank), repeat=4):
            assert (reloaded.locality[idx] - A.locality[idx]).is_zero
        assert (reloaded.projector is None) == (A.projector is None)


# -- command-line interface ---------------------------------------------------


def test_the_module_runs_as_a_command():
    # Apart from the unwritable-stdout cases below, every other CLI case
    # runs cli.main in-process.
    argv = ["check-all", "--model", str(MODELS / "so3.model"), "--format", "json-lines"]
    proc = subprocess.run([sys.executable, "-m", "leibniz_geo.cli", *argv], capture_output=True, cwd=ROOT)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (ROOT / "tests" / "golden" / "check-all_so3.jsonl").read_bytes()
    assert (proc.returncode, proc.stdout, proc.stderr) == cli(*argv)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_check_all_passes_and_is_byte_deterministic(path):
    first = cli("check-all", "--model", str(path), "--format", "json-lines")
    second = cli("check-all", "--model", str(path), "--format", "json-lines")
    assert first[0] == 0, first[2].decode()
    assert first == second
    for line in first[1].decode().splitlines():
        record = json.loads(line)
        assert record["status"] in ("pass", "not-applicable")


def test_validate_and_named_commands_run(tmp_path):
    model = str(MODELS / "tangent2_polar.model")
    for command in ("validate", "torsion", "curvature", "nonmetricity", "levi-civita",
                    "conjugate", "mean", "hessian", "dhat"):
        code, out, err = cli(command, "--model", model, "--format", "json-lines")
        assert code == 0, (command, err.decode())
        assert out


def test_alpha_command_takes_exact_rational():
    model = str(MODELS / "tangent2_polar.model")
    code, out, err = cli(
        "alpha", "--model", model, "--alpha", "1/2", "--format", "json-lines"
    )
    assert code == 0, err.decode()
    assert b"alpha" in out


def test_statistical_solve_command(tmp_path):
    raw = json.loads((MODELS / "tangent2_polar.model").read_text())
    raw.setdefault("tensors", {})["C"] = {
        "type": [0, 3],
        "components": [[["0"] * 2 for _ in range(2)] for _ in range(2)],
        "symmetry": "totally_symmetric",
    }
    path = tmp_path / "with_c.model"
    path.write_text(json.dumps(raw))
    code, out, err = cli(
        "statistical-solve", "--model", str(path), "--format", "json-lines"
    )
    assert code == 0, err.decode()


def single_error_record(err):
    """The one json error record on stderr; no traceback may accompany it."""
    assert b"Traceback" not in err
    lines = err.decode().splitlines()
    assert len(lines) == 1, lines
    record = json.loads(lines[0])
    assert record["status"] == "error"
    return record


def test_statistical_solve_rejects_non_symmetric_c(tmp_path):
    raw = json.loads((MODELS / "tangent2_polar.model").read_text())
    raw.setdefault("tensors", {})["C"] = {"type": [0, 3], "components": {"1,1,2": "1"}}
    path = tmp_path / "asymmetric_c.model"
    path.write_text(json.dumps(raw))
    code, out, err = cli("statistical-solve", "--model", str(path), "--format", "json-lines")
    assert code == 2
    assert out == b""
    record = single_error_record(err)
    assert record["error"] == "InvalidStructure"
    assert "totally symmetric" in record["message"]


def test_deeply_nested_expression_exits_two(tmp_path):
    depth = 3000
    path = tmp_path / "deep.model"
    path.write_text(doc_text(functions={"f": "(" * depth + "x1" + ")" * depth}))
    code, out, err = cli("validate", "--model", str(path), "--format", "json-lines")
    assert code == 2
    assert out == b""
    record = single_error_record(err)
    assert record["error"] == "ParseError"
    assert "nested deeper than" in record["message"]


@pytest.mark.parametrize("text", ["x1^100000", "(x1^100)^100"])
def test_power_past_the_degree_cap_exits_two(tmp_path, text):
    path = tmp_path / "power.model"
    path.write_text(doc_text(functions={"f": text}))
    code, out, err = cli("validate", "--model", str(path), "--format", "json-lines")
    assert code == 2
    assert out == b""
    record = single_error_record(err)
    assert record["error"] == "ParseError"
    assert f"exceeds {MAX_DEGREE}" in record["message"]


def test_power_of_a_constant_past_the_size_cap_exits_two(tmp_path, capsysbinary):
    path = tmp_path / "power.model"
    path.write_text(doc_text(functions={"f": "(((3^100)^100)^100)^100"}))
    start = time.perf_counter()
    code = main(["validate", "--model", str(path), "--format", "json-lines"])
    elapsed = time.perf_counter() - start
    out, err = capsysbinary.readouterr()
    assert code == 2
    assert out == b""
    record = single_error_record(err)
    assert record["error"] == "ParseError"
    assert f"exceeds {MAX_CONSTANT_BITS}" in record["message"]
    assert elapsed < 1.0


@pytest.mark.parametrize("exponent", [20, 25])
def test_product_past_the_term_cap_exits_two_at_once(tmp_path, capsysbinary, exponent):
    path = tmp_path / "product.model"
    factor = f"(1+x1+x2+x3)^{exponent}"
    path.write_text(doc_text(
        dimension=3, coordinates=["x1", "x2", "x3"], anchor={}, functions={"f": f"{factor}*{factor}"}
    ))
    start = time.perf_counter()
    code = main(["validate", "--model", str(path), "--format", "json-lines"])
    elapsed = time.perf_counter() - start
    out, err = capsysbinary.readouterr()
    assert code == 2
    assert out == b""
    record = single_error_record(err)
    assert record["error"] == "ParseError"
    assert record["message"].startswith("functions.f:")
    assert f"exceeds {MAX_TERMS}" in record["message"]
    assert elapsed < 1.0


@pytest.mark.parametrize("summands", [20, 30])
def test_sum_of_fractions_past_the_sum_cap_exits_two_at_once(tmp_path, capsysbinary, summands):
    # Unbounded, 20 summands took 7.9 s to parse and 30 took 164 s.
    path = tmp_path / "sum.model"
    text = " + ".join(f"1/(x1+{k}*x2+x3^2+{k})" for k in range(1, summands + 1))
    path.write_text(doc_text(
        dimension=3, coordinates=["x1", "x2", "x3"], anchor={}, functions={"f": text}
    ))
    start = time.perf_counter()
    code = main(["validate", "--model", str(path), "--format", "json-lines"])
    elapsed = time.perf_counter() - start
    out, err = capsysbinary.readouterr()
    assert code == 2
    assert out == b""
    record = single_error_record(err)
    assert record["error"] == "ParseError"
    assert record["message"].startswith("functions.f:")
    assert f"exceeds {MAX_FRACTION_TERMS}" in record["message"]
    assert elapsed < 1.0


@pytest.mark.parametrize("factors", [16, 24])
def test_product_of_fractions_past_the_fraction_cap_exits_two_at_once(tmp_path, capsysbinary, factors):
    # Unbounded, 16 factors took 3.65 s to parse and 24 took 77 s.
    path = tmp_path / "product.model"
    text = "*".join(f"(x1+{k}*x2+x3^2+{k})/(x1*x3+{k}*x2^2+1)" for k in range(1, factors + 1))
    path.write_text(doc_text(
        dimension=3, coordinates=["x1", "x2", "x3"], anchor={}, functions={"f": text}
    ))
    start = time.perf_counter()
    code = main(["validate", "--model", str(path), "--format", "json-lines"])
    elapsed = time.perf_counter() - start
    out, err = capsysbinary.readouterr()
    assert code == 2
    assert out == b""
    record = single_error_record(err)
    assert record["error"] == "ParseError"
    assert record["message"].startswith("functions.f: product of fractions")
    assert f"exceeds {MAX_FRACTION_TERMS}" in record["message"]
    assert elapsed < 1.0


@pytest.mark.parametrize("alpha", ["1e5000", "1e10000000"])
def test_alpha_past_the_constant_size_cap_exits_two_at_once(capsysbinary, alpha):
    model = str(MODELS / "courant1.model")
    start = time.perf_counter()
    code = main(["alpha", "--model", model, "--alpha", alpha, "--format", "json-lines"])
    elapsed = time.perf_counter() - start
    out, err = capsysbinary.readouterr()
    assert code == 2
    assert out == b""
    record = single_error_record(err)
    assert record["error"] == "MissingInput"
    assert record["message"].startswith("--alpha")
    assert f"exceeds {MAX_CONSTANT_BITS}" in record["message"]
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "alpha",
    ["9" * 5000, "1/" + "7" * 5000, "0." + "0" * 5000 + "1", "9" * 5000 + "e2"],
    ids=["integer", "denominator", "decimal", "with-exponent"],
)
def test_alpha_with_a_long_mantissa_exits_two_with_the_cli_message(capsysbinary, alpha):
    model = str(MODELS / "courant1.model")
    code = main(["alpha", "--model", model, "--alpha", alpha, "--format", "json-lines"])
    out, err = capsysbinary.readouterr()
    assert code == 2
    assert out == b""
    record = single_error_record(err)
    assert record["error"] == "MissingInput"
    assert record["message"].startswith("--alpha with a numerator or denominator of more than")
    assert f"exceeds {MAX_CONSTANT_BITS} bits" in record["message"]
    assert "set_int_max_str_digits" not in record["message"]


def test_alpha_of_the_largest_size_still_parses():
    digits = str(2**MAX_CONSTANT_BITS - 1)
    assert len(digits) <= MAX_CONSTANT_BITS // 3 + 1
    assert _parse_alpha(f"{digits}/{digits}") == 1
    assert _parse_alpha("-1/2") == Fraction(-1, 2)


def test_alpha_takes_a_negative_rational_as_its_own_argument(capsysbinary):
    # argparse alone reads '-1/2' as an option and leaves --alpha without a value.
    model = str(MODELS / "tangent2_polar.model")
    runs = []
    for spelling in (["--alpha=-1/2"], ["--alpha", "-1/2"], ["--alp", "-1/2"], ["--alpha", "-0.5"]):
        code = main(["alpha", "--model", model, *spelling, "--format", "json-lines"])
        runs.append((code, capsysbinary.readouterr().out))
    assert all(run == runs[0] for run in runs)
    assert runs[0][0] == 0 and b"alpha=-1/2" in runs[0][1]


def test_constant_power_size_cap_admits_the_documented_powers():
    assert parse_expr("7^1000", ("x1",)) == 7**1000
    assert parse_expr("(1/7)^1000", ("x1",)) == Fraction(1, 7**1000)
    assert parse_expr("1^100000", ("x1",)) == 1
    assert parse_expr("(-1)^100001", ("x1",)) == -1
    assert parse_expr("0^100000", ("x1",)) == 0
    assert parse_expr("2^10000", ("x1",)) == 2**10000
    with pytest.raises(ExprSyntaxError, match=f"10001 bits exceeds {MAX_CONSTANT_BITS}"):
        parse_expr("2^10001", ("x1",))
    with pytest.raises(ExprSyntaxError, match=f"15800 bits exceeds {MAX_CONSTANT_BITS}"):
        parse_expr("(3^100)^100", ("x1",))


def tensor_doc(**entry):
    """A rank-2 document whose one tensor entry T is a (0, 2) tensor with the given overrides."""
    tensor = {"type": [0, 2], "components": {}, **entry}
    return doc_text(
        dimension=0, rank=2, coordinates=[], anchor={}, bracket={}, locality={}, tensors={"T": tensor}
    ).encode()


@pytest.mark.parametrize(
    "data, error, where",
    [
        (b"\x80", "ParseError", ""),
        (doc_text(dimension=True).encode(), "SchemaError", "dimension:"),
        (doc_text(rank=True).encode(), "SchemaError", "rank:"),
        (doc_text(kernel_sections=1).encode(), "SchemaError", "kernel_sections:"),
        (doc_text(rank=3).encode(), "ShapeError", ""),
        (tensor_doc(type=[40, 40]), "SchemaError", "tensors.T.type:"),
        (tensor_doc(type=[1, MAX_TENSOR_SLOTS]), "SchemaError", "tensors.T.type:"),
        (tensor_doc(type=[True, 2]), "SchemaError", "tensors.T.type:"),
        (tensor_doc(symmetry=["antisymmetric_in", "1", 2]), "SchemaError", "tensors.T.symmetry:"),
        (tensor_doc(symmetry=["antisymmetric_in", 1.5, 2]), "SchemaError", "tensors.T.symmetry:"),
        (tensor_doc(symmetry=["antisymmetric_in", 1, True]), "SchemaError", "tensors.T.symmetry:"),
        (tensor_doc(symmetry=["antisymmetric_in", 1, 9]), "SchemaError", "tensors.T.symmetry:"),
        (tensor_doc(symmetry=["antisymmetric_in", 0, 1]), "SchemaError", "tensors.T.symmetry:"),
        (tensor_doc(symmetry=["antisymmetric_in", -1, 2]), "SchemaError", "tensors.T.symmetry:"),
        (tensor_doc(type=[1, 1], symmetry=["antisymmetric_in", 1, 2]), "SchemaError",
         "tensors.T.symmetry:"),
        (tensor_doc(type=[1, 2], symmetry="totally_symmetric"), "SchemaError", "tensors.T.symmetry:"),
        (doc_text(dimension=2, coordinates=["x1", "x1"], anchor={}).encode(), "SchemaError",
         "coordinates:"),
        (doc_text(coordinates=["x 1"]).encode(), "SchemaError", "coordinates:"),
        (doc_text(functions={"f": "@"}).replace('"@"', "9" * 5000).encode(), "ParseError",
         "JSON integer of more than"),
        (doc_text(functions={"f": "9" * 5000}).encode(), "ParseError", "functions.f: integer literal"),
    ],
    ids=[
        "not-utf8", "boolean-dimension", "boolean-rank", "kernel-sections-not-a-list", "broadcast-shape",
        "tensor-type-of-80-slots", "tensor-type-past-the-slot-cap", "boolean-tensor-type",
        "string-symmetry-slot", "fractional-symmetry-slot", "boolean-symmetry-slot",
        "symmetry-slot-out-of-range", "symmetry-slot-zero", "symmetry-slot-negative",
        "antisymmetry-across-variance", "total-symmetry-with-an-upper-slot",
        "repeated-coordinate", "coordinate-no-expression-can-name", "json-number-of-5000-digits",
        "expression-literal-of-5000-digits",
    ],
)
def test_inputs_the_fuzz_test_found_exit_two(tmp_path, capsysbinary, data, error, where):
    path = tmp_path / "found.model"
    path.write_bytes(data)
    code = main(["validate", "--model", str(path), "--format", "json-lines"])
    out, err = capsysbinary.readouterr()
    assert code == 2
    assert out == b""
    record = single_error_record(err)
    assert record["error"] == error
    assert record["message"].startswith(where)


def test_tensor_slot_cap_admits_the_four_slot_arrays():
    assert MAX_TENSOR_SLOTS == 4
    for declared in ([1, 3], [0, 4], [4, 0]):
        assert parse_model_text(tensor_doc(type=declared).decode()).tensors["T"].comps.shape == (2,) * 4


def test_rank_past_the_cap_exits_two_before_allocating(tmp_path, capsysbinary):
    path = tmp_path / "huge.model"
    path.write_text(doc_text(
        dimension=0, rank=1_000_000, coordinates=[], anchor={}, bracket={}, locality={}
    ))
    tracemalloc.start()
    try:
        code = main(["validate", "--model", str(path), "--format", "json-lines"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsysbinary.readouterr()
    assert code == 2
    assert out == b""
    record = single_error_record(err)
    assert record["error"] == "SchemaError"
    assert record["message"].startswith("rank:")
    assert str(MAX_RANK) in record["message"]
    assert peak < 8 * 2**20


def test_rank_cap_admits_courant3():
    assert MAX_RANK >= 6
    reloaded = parse_model_text(dump_model(export_algebroid(courant(3))))
    assert reloaded.algebroid.rank == 6
    with pytest.raises(SchemaError, match="rank"):
        parse_model_text(doc_text(rank=MAX_RANK + 1))


def test_single_check_command_and_unknown_id():
    model = str(MODELS / "tangent2_polar.model")
    code, out, _ = cli("check", "SSp1", "--model", model, "--format", "json-lines")
    assert code == 0
    assert json.loads(out.decode().splitlines()[0])["check"].startswith("SSp1")
    code, _, err = cli("check", "nope", "--model", model, "--format", "json-lines")
    assert code == 2
    assert b"UnknownCommand" in err


def test_a_key_error_inside_a_check_is_not_an_unknown_id(monkeypatch, capsysbinary):
    def broken(ctx):
        return {}["missing"]

    monkeypatch.setitem(checks.REGISTRY, "SSp3", broken)
    with pytest.raises(KeyError, match="missing"):
        main(["check", "SSp3", "--model", str(MODELS / "so3.model"), "--format", "json-lines"])
    assert b"UnknownCommand" not in capsysbinary.readouterr().err


def test_malformed_model_gives_exit_two():
    code, out, err = cli("validate", "--model", str(MODELS / "missing.model"))
    assert code == 2
    code2, _, err2 = cli("validate", "--model", str(ROOT / "pyproject.toml"))
    assert code2 == 2
    assert b"error" in err2.lower()


def test_missing_model_argument():
    code, _, err = cli("validate")
    assert code == 2
    assert b"MissingInput" in err


def test_export_builtin_command():
    code, out, err = cli("export-builtin", "so3")
    assert code == 0, err.decode()
    doc = parse_model_text(out.decode())
    assert doc.algebroid.rank == 3
    code2, _, err2 = cli("export-builtin", "nope")
    assert code2 == 2
    assert b"UnknownCommand" in err2


class _FullDisk(io.RawIOBase):
    """A byte stream whose every write fails like a write to a full disk."""

    def writable(self):
        return True

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("stdout", ["full", "closed"])
@pytest.mark.parametrize(
    "argv",
    [["validate", "--model", str(MODELS / "so3.model")], ["export-builtin", "so3"]],
    ids=["report", "export"],
)
def test_an_unwritable_stdout_exits_two_with_one_error_record(monkeypatch, capsysbinary, argv, stdout):
    full = io.TextIOWrapper(io.BufferedWriter(_FullDisk()), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", full if stdout == "full" else None)
    assert main([*argv, "--format", "json-lines"]) == 2
    [line] = capsysbinary.readouterr().err.decode().splitlines()
    record = json.loads(line)
    assert (record["status"], record["error"]) == ("error", "OutputError")


def _broken_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


_REPORT = ["check", "SSp3", "--model", str(MODELS / "so3.model")]
_EXPORT = ["export-builtin", "so3"]


@pytest.mark.parametrize("argv, stdout, stderr", [
    pytest.param(_REPORT, "full", "pipe", id="report-full"),
    pytest.param(_REPORT, "broken-pipe", "pipe", id="report-broken-pipe"),
    pytest.param(_EXPORT, "full", "pipe", id="export-full"),
    pytest.param(_EXPORT, "broken-pipe", "pipe", id="export-broken-pipe"),
    # The error record itself cannot be written: the exit code alone reports it.
    pytest.param(["validate", "--model", str(MODELS / "nope.model")], "pipe", "full",
                 id="missing-model-stderr-full"),
    pytest.param(["validate", "--model", str(MODELS / "so3.model")], "closed", "closed",
                 id="report-stdout-and-stderr-closed"),
])
def test_an_unwritable_stdout_exits_two_in_a_child_process(argv, stdout, stderr):
    # A short output stays in stdout's buffer after the failed flush, and the
    # interpreter flushes that buffer again at exit; only a real child process
    # with a buffered stdout (no PYTHONUNBUFFERED) shows that second flush.
    if "full" in (stdout, stderr) and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    # A "closed" stream is opened on the null device and closed in the child
    # before the interpreter starts, as the shell's ">&-" does.
    targets = {"pipe": subprocess.PIPE, "closed": subprocess.DEVNULL}
    opened = []

    def target(kind):
        if kind in targets:
            return targets[kind]
        opened.append(os.open("/dev/full", os.O_WRONLY) if kind == "full" else _broken_pipe())
        return opened[-1]

    def close_in_child():
        for fd, kind in ((1, stdout), (2, stderr)):
            if kind == "closed":
                os.close(fd)

    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "leibniz_geo.cli", *argv, "--format", "json-lines"],
            stdout=target(stdout), stderr=target(stderr), cwd=ROOT, env=env,
            preexec_fn=close_in_child,
        )
    finally:
        for fd in opened:
            os.close(fd)
    assert proc.returncode == 2, proc.stderr and proc.stderr.decode()
    if stdout == "pipe":
        assert proc.stdout == b""
    if stderr == "pipe":
        [line] = proc.stderr.decode().splitlines()
        record = json.loads(line)
        assert (record["status"], record["error"]) == ("error", "OutputError")


def test_dump_residuals_includes_components():
    model = str(MODELS / "tangent2_polar.model")
    code, out, _ = cli(
        "torsion", "--model", model, "--connection", "flat",
        "--format", "json-lines", "--dump-residuals",
    )
    assert code == 0
    record = json.loads(out.decode().splitlines()[0])
    assert "components" in record


def json_records(argv, *extra):
    code, out, err = cli(*argv, "--format", "json-lines", *extra)
    assert (code, err) == (0, b""), err.decode()
    return [json.loads(line) for line in out.decode().splitlines()]


@pytest.mark.parametrize("argv", [
    ["check", "SSp3", "--model", str(MODELS / "so3.model")],
    ["check-all", "--model", str(MODELS / "courant1.model")],
], ids=["check-SSp3", "check-all"])
def test_dump_residuals_adds_components_to_check_records(argv):
    plain, dumped = json_records(argv), json_records(argv, "--dump-residuals")
    assert [{k: v for k, v in record.items() if k != "components"} for record in dumped] == plain
    for record in dumped:
        # A gate and a note judge no residual, so they dump none.
        if "components" in record:
            assert record["status"] != "not-applicable" and "note" not in record, record
            assert len(record["components"]) == record["residual_nonzero_components"]
    assert all("components" in record for record in dumped if record["check"].startswith("SSp3"))


def test_a_nonzero_residual_item_dumps_exactly_its_nonzero_entries():
    A = tangent(2)
    x1, x2 = A.x(1), A.x(2)
    comps = Components((2, 2), A.coords, {(0, 1): x1 / x2, (1, 1): x1 * x1})
    (result,) = checks.collect([("item", ETensor(0, 2, 2, A.coords, comps))])
    assert result.to_record() == {
        "check": "item", "status": "fail",
        "residual_nonzero_components": 2, "residual_max_degree": 2,
    }
    assert result.to_record(dump=True)["components"] == {"1,2": str(x1 / x2), "2,2": str(x1 * x1)}


def test_the_collector_judges_notes_verdicts_and_passes_results_through():
    gate = checks.CheckResult("gate", "not-applicable", note="why")
    results = checks.collect([gate, ("note", "holds"), ("yes", True), ("no", False)])
    assert results[0] is gate
    assert [(r.check, r.status, r.note) for r in results] == [
        ("gate", "not-applicable", "why"), ("note", "pass", "holds"),
        ("yes", "pass", ""), ("no", "fail", ""),
    ]
    assert all("components" not in r.to_record(dump=True) for r in results)


def test_text_format_is_human_readable():
    model = str(MODELS / "tangent2_polar.model")
    code, out, _ = cli("validate", "--model", model)
    assert code == 0
    assert b"pass" in out
