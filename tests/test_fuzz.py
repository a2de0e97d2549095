"""Fuzz: any model text or bytes gives exit 0, 1 or 2, json-lines error records
only on stderr, and never a traceback.

Documents are drawn around a valid minimal one, with top-level fields
replaced by arbitrary JSON values and expression-like strings, so that the
draws reach past the JSON parser into the schema, shape, expression and
structure checks.  Some carry an integer literal of up to 5000 digits, as a
JSON number or inside an expression, past the interpreter's 4300-digit limit
on ``int()``.  The ``alpha`` command is also drawn ``--alpha`` texts, exponent
forms among them.  The exact solves are run on documents drawn around a
rank-2 one whose Koszul systems split into blocks and which holds the
tensor ``C`` that ``statistical-solve`` reads.
"""

import json
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from leibniz_geo.cli import main
from leibniz_geo.errors import LeibnizGeoError
from leibniz_geo.model import parse_model_text

BASE = {
    "dimension": 1,
    "rank": 1,
    "coordinates": ["x1"],
    "anchor": [["1"]],
    "bracket": [[["0"]]],
    "locality": [[[["0"]]]],
    "projector": [["1"]],
    "metrics": {"g": [["1 + x1^2"]]},
    "connections": {"c": [[["x1"]]]},
    "functions": {"f": "x1^3"},
}
FIELDS = sorted(BASE) + ["kernel_sections", "tensors", "unknown"]
ZEROS = [["0", "0"], ["0", "0"]]
SOLVE_BASE = {
    **BASE,
    "rank": 2,
    "anchor": [["1"], ["0"]],
    "bracket": [ZEROS, ZEROS],
    "locality": [[ZEROS, ZEROS], [ZEROS, ZEROS]],
    "projector": [["1", "0"], ["0", "1"]],
    "metrics": {"g": [["1 + x1^2", "1"], ["1", "2"]]},
    "connections": {},
    "tensors": {
        "C": {
            "type": [0, 3],
            "components": [[["1", "x1"], ["x1", "2"]], [["x1", "2"], ["2", "1"]]],
            "symmetry": "totally_symmetric",
        }
    },
}

expressions = st.text(alphabet="x1 02345789+-*/^()", max_size=12)
scalars = st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3) | expressions
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["g", "c", "1", "1,1", "type", "components"]), children, max_size=3),
    max_leaves=10,
)
# Where a drawn literal goes: "@" marks it, since json.dumps cannot write
# an integer of more than 4300 digits.
PLACES = {"dimension": "@", "anchor": [["@"]], "metrics": {"g": [["@"]]}, "functions": {"f": "@"}}


@st.composite
def literal_documents(draw):
    """The valid document with one long integer literal, bare or in an expression."""
    digits = draw(st.sampled_from("0179")) * draw(st.sampled_from([4301, 5000]) | st.integers(1, 5000))
    literal = digits if draw(st.booleans()) else json.dumps(f"x1 + {digits}")
    place = draw(st.sampled_from(sorted(PLACES)))
    return json.dumps({**BASE, place: PLACES[place]}).replace('"@"', literal)


def mutated(base):
    """The document ``base`` with up to three top-level fields replaced."""
    changes = st.dictionaries(st.sampled_from(FIELDS), json_values, max_size=3)
    return changes.map(lambda changes: json.dumps({**base, **changes}))


documents = mutated(BASE) | literal_documents()
inputs = documents.map(str.encode) | st.binary(max_size=64)
fuzz = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz
@given(text=documents)
def test_parse_model_text_raises_only_package_errors(text):
    try:
        parse_model_text(text)
    except LeibnizGeoError:
        pass


def run_command(tmp_path, capsysbinary, data, command):
    """Run ``command`` on the model bytes ``data``: exit 0, 1 or 2, no traceback,
    only error records on stderr, and on exit 2 nothing on stdout."""
    path = tmp_path / "fuzz.model"
    path.write_bytes(data)
    code = main([command, "--model", str(path), "--format", "json-lines"])
    out, err = capsysbinary.readouterr()
    assert code in (0, 1, 2)
    assert b"Traceback" not in out + err
    for line in err.decode().splitlines():
        assert json.loads(line)["status"] == "error"
    if code == 2:
        assert out == b"" and err


@fuzz
@given(data=inputs, command=st.sampled_from(["validate", "check-all", "torsion"]))
def test_cli_exit_codes_and_stderr_hold_for_any_input(tmp_path, capsysbinary, data, command):
    run_command(tmp_path, capsysbinary, data, command)


@fuzz
@given(
    data=mutated(SOLVE_BASE).map(str.encode) | st.binary(max_size=64),
    command=st.sampled_from(["levi-civita", "statistical-solve"]),
)
def test_solve_exit_codes_and_stderr_hold_for_any_input(tmp_path, capsysbinary, data, command):
    run_command(tmp_path, capsysbinary, data, command)


alpha_texts = (
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-200_000, 200_000))
    | st.from_regex(r"\A-?[0-9_]{1,5}(\.[0-9]{0,3})?([eE][-+]?[0-9_]{1,7})?\Z")
    | st.text(alphabet="0123456789eE+-./_ ", max_size=12)
)


@settings(fuzz, max_examples=25)
@given(alpha=alpha_texts)
def test_alpha_exit_codes_hold_for_any_text(tmp_path, capsysbinary, alpha):
    path = tmp_path / "base.model"
    path.write_text(json.dumps(BASE))
    start = time.perf_counter()
    code = main(["alpha", "--model", str(path), f"--alpha={alpha}", "--format", "json-lines"])
    elapsed = time.perf_counter() - start
    out, err = capsysbinary.readouterr()
    assert code in (0, 2)
    assert b"Traceback" not in out + err
    assert (out == b"") == (code == 2) and (err == b"") == (code == 0)
    assert elapsed < 1.0
