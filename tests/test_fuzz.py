"""Fuzz: any model text or bytes gives exit 0, 1 or 2, json-lines error records
only on stderr, and never a traceback.

Documents are drawn around a valid minimal one, with top-level fields
replaced by arbitrary JSON values and expression-like strings, so that the
draws reach past the JSON parser into the schema, shape, expression and
structure checks.
"""

import json

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

expressions = st.text(alphabet="x1 02345789+-*/^()", max_size=12)
scalars = st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3) | expressions
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["g", "c", "1", "1,1", "type", "components"]), children, max_size=3),
    max_leaves=10,
)
documents = st.dictionaries(st.sampled_from(FIELDS), json_values, max_size=3).map(
    lambda changes: json.dumps({**BASE, **changes})
)
inputs = documents.map(str.encode) | st.binary(max_size=64)
fuzz = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz
@given(text=documents)
def test_parse_model_text_raises_only_package_errors(text):
    try:
        parse_model_text(text)
    except LeibnizGeoError:
        pass


@fuzz
@given(data=inputs, command=st.sampled_from(["validate", "check-all", "torsion"]))
def test_cli_exit_codes_and_stderr_hold_for_any_input(tmp_path, capsysbinary, data, command):
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
