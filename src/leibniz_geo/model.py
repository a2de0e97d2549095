"""Model-document loading: one algebroid plus named auxiliary objects.

The on-disk format is JSON; docs/format.md is the normative description.
Component arrays are nested lists indexed [a][b]... with expression-string
entries, or sparse maps keyed by comma-separated 1-based indices.  Loading is
strict: unknown top-level keys, malformed shapes, and unparsable entries are
rejected with errors that name the offending path.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .algebroid import Algebroid
from .connection import EConnection
from .errors import ExprSyntaxError, ParseError, SchemaError, ShapeError, SlotMismatch, UnknownVariable
from .expr import MAX_CONSTANT_BITS, NAME, int_literal, parse_expr
from .scalar import ScalarField
from .tensor import (
    Components,
    EMetric,
    ETensor,
    flatten_nested,
    is_antisymmetric_in,
    is_totally_symmetric,
)

# The largest accepted rank.  A dense document spells out all r^4 locality
# entries, and the exact solves hand linalg dense r^3 x r^3 Koszul rows, so a
# larger frame is out of reach and would only exhaust memory.  Rank 6 admits
# courant(3).
MAX_RANK = 8

# The most slots a tensor entry may declare (q + r).  A tensor holds
# rank^(q+r) entries, and the largest arrays the engine builds, the locality
# and the curvature, have four slots.
MAX_TENSOR_SLOTS = 4

_TOP_LEVEL_KEYS = {
    "dimension",
    "rank",
    "coordinates",
    "anchor",
    "bracket",
    "locality",
    "projector",
    "kernel_sections",
    "metrics",
    "connections",
    "tensors",
    "functions",
}


@dataclass
class ModelDocument:
    """A fully parsed model: the algebroid and its named companions."""

    algebroid: Algebroid
    metrics: dict = field(default_factory=dict)
    connections: dict = field(default_factory=dict)
    tensors: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    source: str = ""


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_entry(value, coords, path):
    if isinstance(value, bool):
        raise SchemaError(path, "boolean is not a valid expression")
    if isinstance(value, int):
        return ScalarField.constant(value, coords)
    if isinstance(value, str):
        try:
            return parse_expr(value, coords)
        except (ExprSyntaxError, UnknownVariable) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    raise SchemaError(path, f"expected expression string or integer, got {type(value).__name__}")


def _load_array(raw, shape, coords, path):
    """Dense nested lists or a sparse map keyed '<i>,<j>,...' (1-based)."""
    if isinstance(raw, dict):
        entries = {}
        for key, value in raw.items():
            try:
                idx = tuple(int(part) - 1 for part in key.split(","))
            except ValueError as exc:
                raise SchemaError(f"{path}[{key!r}]", "sparse key must be comma-separated integers") from exc
            if len(idx) != len(shape) or any(not 0 <= i < s for i, s in zip(idx, shape)):
                raise ShapeError(path, f"sparse key {key!r} out of range for shape {shape}")
            entries[idx] = _parse_entry(value, coords, f"{path}[{key!r}]")
    elif isinstance(raw, list):
        # The nesting must have exactly the expected shape: a smaller or a
        # ragged one is an error, never filled up.
        try:
            nested_shape, leaves = flatten_nested(raw)
        except ValueError as exc:
            raise ShapeError(path, f"expected shape {shape}") from exc
        if nested_shape != shape:
            raise ShapeError(path, f"expected shape {shape}")
        entries = {
            idx: _parse_entry(value, coords, f"{path}{list(i + 1 for i in idx)}")
            for idx, value in zip(itertools.product(*map(range, shape)), leaves)
        }
    else:
        raise SchemaError(path, "expected a nested list or a sparse map")
    return Components(shape, coords, {idx: f for idx, f in entries.items() if not f.is_zero})


def _require(document, key):
    if key not in document:
        raise SchemaError(key, "missing required field")
    return document[key]


def load_model(path):
    """Parse, validate shapes, and build every named object of a model file."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start}: not UTF-8 text") from exc
    document = parse_model_text(text)
    document.source = str(path)
    return document


def _json_int(text):
    """A JSON integer, refused past ``expr.MAX_CONSTANT_BITS`` like an expression literal."""
    try:
        return int_literal(text)
    except ExprSyntaxError as exc:
        raise ParseError(f"JSON integer of more than {MAX_CONSTANT_BITS} bits") from exc


def parse_model_text(text):
    try:
        raw = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("$", "document root must be a map")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise SchemaError(sorted(unknown)[0], "unknown top-level field")

    n = _require(raw, "dimension")
    r = _require(raw, "rank")
    if not _is_int(n) or n < 0:
        raise SchemaError("dimension", "must be a non-negative integer")
    if not _is_int(r) or r <= 0:
        raise SchemaError("rank", "must be a positive integer")
    if r > MAX_RANK:
        raise SchemaError("rank", f"must be at most {MAX_RANK}")
    coords = _require(raw, "coordinates")
    if (
        not isinstance(coords, list)
        or len(coords) != n
        or not all(isinstance(c, str) and NAME.fullmatch(c) for c in coords)
    ):
        raise SchemaError("coordinates", f"must be a list of {n} names that expressions can use")
    if len(set(coords)) != n:
        raise SchemaError("coordinates", "names must be distinct")
    coords = tuple(coords)

    anchor = _load_array(_require(raw, "anchor"), (r, n), coords, "anchor")
    bracket = _load_array(_require(raw, "bracket"), (r, r, r), coords, "bracket")
    locality = _load_array(_require(raw, "locality"), (r, r, r, r), coords, "locality")
    projector = None
    if raw.get("projector") is not None:
        projector = _load_array(raw["projector"], (r, r), coords, "projector")
    kernel_sections = []
    sections = raw.get("kernel_sections") or []
    if not isinstance(sections, list):
        raise SchemaError("kernel_sections", "must be a list of sections")
    for index, entry in enumerate(sections):
        comps = _load_array(entry, (r,), coords, f"kernel_sections[{index}]")
        kernel_sections.append(ETensor(1, 0, r, coords, comps))
    algebroid = Algebroid(
        coords=coords,
        rank=r,
        anchor=anchor,
        bracket=bracket,
        locality=locality,
        projector=projector,
        kernel_sections=tuple(kernel_sections),
    )

    metrics = {}
    for name, entry in _named_section(raw, "metrics").items():
        matrix = _load_array(entry, (r, r), coords, f"metrics.{name}")
        metrics[name] = EMetric(matrix, coords)
    connections = {}
    for name, entry in _named_section(raw, "connections").items():
        gamma = _load_array(entry, (r, r, r), coords, f"connections.{name}")
        connections[name] = EConnection(algebroid, gamma)
    tensors = {}
    for name, entry in _named_section(raw, "tensors").items():
        tensors[name] = _load_tensor(entry, r, coords, f"tensors.{name}")
    functions = {}
    for name, entry in _named_section(raw, "functions").items():
        functions[name] = _parse_entry(entry, coords, f"functions.{name}")
    return ModelDocument(
        algebroid=algebroid,
        metrics=metrics,
        connections=connections,
        tensors=tensors,
        functions=functions,
    )


def _named_section(raw, key):
    section = raw.get(key) or {}
    if not isinstance(section, dict):
        raise SchemaError(key, "must be a map of names to entries")
    return section


def _load_tensor(entry, r, coords, path):
    if not isinstance(entry, dict) or "type" not in entry or "components" not in entry:
        raise SchemaError(path, "tensor entries need 'type' and 'components'")
    declared = entry["type"]
    if (
        not isinstance(declared, list)
        or len(declared) != 2
        or not all(_is_int(v) and v >= 0 for v in declared)
    ):
        raise SchemaError(f"{path}.type", "must be a pair [q, r] of non-negative integers")
    q, rr = declared
    if q + rr > MAX_TENSOR_SLOTS:
        raise SchemaError(f"{path}.type", f"q + r must be at most {MAX_TENSOR_SLOTS}")
    comps = _load_array(entry["components"], (r,) * (q + rr), coords, f"{path}.components")
    tensor = ETensor(q, rr, r, coords, comps)
    symmetry = entry.get("symmetry")
    try:
        if symmetry == "totally_symmetric":
            if not is_totally_symmetric(tensor):
                raise SchemaError(f"{path}.symmetry", "components are not totally symmetric")
        elif isinstance(symmetry, list) and len(symmetry) == 3 and symmetry[0] == "antisymmetric_in":
            if not all(_is_int(slot) for slot in symmetry[1:]):
                raise SchemaError(f"{path}.symmetry", "slots must be integers")
            if not is_antisymmetric_in(tensor, symmetry[1], symmetry[2]):
                raise SchemaError(
                    f"{path}.symmetry",
                    f"components are not antisymmetric in slots {symmetry[1]},{symmetry[2]}",
                )
        elif symmetry is not None:
            raise SchemaError(f"{path}.symmetry", "unknown symmetry flag")
    except SlotMismatch as exc:
        # Slots out of range, of mixed variance, or total symmetry on a contravariant slot.
        raise SchemaError(f"{path}.symmetry", str(exc)) from exc
    return tensor


# -- export -------------------------------------------------------------------


def _dump_array(comps):
    """Dense nested-list encoding with canonical expression strings."""

    def strings(nested):
        return [strings(x) for x in nested] if isinstance(nested, list) else str(nested)

    return strings(comps.tolist())


def export_algebroid(A, metrics=None, connections=None, tensors=None, functions=None):
    """Serialize an algebroid (plus companions) to the model-document form."""
    document = {
        "dimension": A.dim,
        "rank": A.rank,
        "coordinates": list(A.coords),
        "anchor": _dump_array(A.anchor),
        "bracket": _dump_array(A.bracket),
        "locality": _dump_array(A.locality),
    }
    if A.projector is not None:
        document["projector"] = _dump_array(A.projector)
    if A.kernel_sections:
        document["kernel_sections"] = [_dump_array(k.comps) for k in A.kernel_sections]
    if metrics:
        document["metrics"] = {name: _dump_array(g.matrix) for name, g in sorted(metrics.items())}
    if connections:
        document["connections"] = {
            name: _dump_array(conn.gamma) for name, conn in sorted(connections.items())
        }
    if tensors:
        document["tensors"] = {
            name: {
                "type": [t.q, t.r],
                "components": _dump_array(t.comps),
            }
            for name, t in sorted(tensors.items())
        }
    if functions:
        document["functions"] = {name: str(f) for name, f in sorted(functions.items())}
    return document


def dump_model(document_dict):
    """Canonical byte-stable JSON text for an exported document."""
    return json.dumps(document_dict, indent=2, sort_keys=True) + "\n"
