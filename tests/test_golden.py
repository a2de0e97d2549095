"""Byte-identity of the CLI's reports against committed captures.

The files in ``tests/golden`` hold the exact stdout of the commands below,
captured with ``python -m leibniz_geo.cli`` from earlier versions of the
engine: ``check-all``, ``export-builtin`` and ``levi-civita`` before the
FracField scalar kernel, the other single-shot commands before derived
objects were cached per connection, and the runs on courant1 without its
projector before the check runners became generators.  The two
``check-SSp11_*_dump.jsonl`` captures were re-taken when check and CLI
records came to share one collector: ``--dump-residuals`` had been ignored on
``check`` and ``check-all``, and now each of their records, all passing,
gains ``"components":{}`` and nothing else (a test below holds this against
the plain run).  Each case runs
``cli.main`` in this process and compares its stdout bytes with the capture;
stderr must be empty and the exit code 0.  Any change to a canonical
string, a record or its order shows here.
"""

import json
from pathlib import Path

import pytest

from conftest import run_cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MODELS = ROOT / "models"

# Single-shot commands that exit 0 on both dump models: (capture tag, argv).
SINGLE_SHOT = [
    ("validate", ["validate"]),
    ("torsion", ["torsion"]),
    ("curvature", ["curvature"]),
    ("nonmetricity", ["nonmetricity"]),
    ("conjugate", ["conjugate"]),
    ("mean", ["mean"]),
    ("alpha-half", ["alpha", "--alpha", "1/2"]),
    ("hessian", ["hessian"]),
    ("dhat", ["dhat"]),
    ("check-SSp11", ["check", "SSp11"]),
]

CASES = [
    *(
        (f"check-all_{name}.jsonl",
         ["check-all", "--model", str(MODELS / f"{name}.model"), "--format", "json-lines"])
        for name in ("courant1", "so3", "tangent2_hyperbolic", "tangent2_polar")
    ),
    *(
        (f"export-builtin_{name}.model", ["export-builtin", name])
        for name in ("courant1", "courant2", "so3", "tangent2", "tangent3")
    ),
    (
        "levi-civita_tangent2_polar_dump.jsonl",
        ["levi-civita", "--model", str(MODELS / "tangent2_polar.model"),
         "--dump-residuals", "--format", "json-lines"],
    ),
    (
        "levi-civita_tangent2_polar_dump.txt",
        ["levi-civita", "--model", str(MODELS / "tangent2_polar.model"), "--dump-residuals"],
    ),
    *(
        (f"{tag}_{name}_dump.jsonl",
         [*argv, "--model", str(MODELS / f"{name}.model"),
          "--dump-residuals", "--format", "json-lines"])
        for name in ("tangent2_polar", "courant1")
        for tag, argv in SINGLE_SHOT
    ),
    (
        "conjugate_tangent2_polar_dump.txt",
        ["conjugate", "--model", str(MODELS / "tangent2_polar.model"), "--dump-residuals"],
    ),
]


# Every bundled model has a projector; these runs hold the records of the
# "no locality projector" gates.
NO_PROJECTOR = [
    ("check-all_courant1_noprojector.jsonl", ["check-all", "--format", "json-lines"]),
    ("check-lc3_courant1_noprojector.txt", ["check", "lc3"]),
]


def assert_matches_capture(golden, argv):
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, b""), err.decode()
    assert out == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("golden, argv", CASES, ids=[case[0] for case in CASES])
def test_output_is_byte_identical_to_capture(golden, argv):
    assert_matches_capture(golden, argv)


@pytest.mark.parametrize("golden, argv", NO_PROJECTOR, ids=[case[0] for case in NO_PROJECTOR])
def test_gates_without_a_projector_match_capture(tmp_path, golden, argv):
    document = json.loads((MODELS / "courant1.model").read_text())
    del document["projector"]
    path = tmp_path / "courant1_noprojector.model"
    path.write_text(json.dumps(document))
    assert_matches_capture(golden, [*argv, "--model", str(path)])


@pytest.mark.parametrize("name", ("tangent2_polar", "courant1"))
def test_the_ssp11_dump_captures_are_the_plain_records_with_empty_components(name):
    code, out, err = run_cli("check", "SSp11", "--model", str(MODELS / f"{name}.model"),
                             "--format", "json-lines")
    assert (code, err) == (0, b""), err.decode()
    plain = [json.loads(line) for line in out.decode().splitlines()]
    capture = (GOLDEN / f"check-SSp11_{name}_dump.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in capture] == [{**record, "components": {}} for record in plain]
