"""Command-line interface: load a model, run a computation or check suite,
emit a deterministic report.

Exit codes: 0 for pass/not-applicable, 1 when any check fails, 2 on errors
(bad input, unknown command, missing objects, a closed stdout or one that
refuses the output); an error is one record on stderr, and a closed or
unwritable stderr, which loses that record, still exits 2.  The json-lines
format emits one sorted-key record per check and is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import checks as checks_module
from .algebroid import builtin
from .connection import levi_civita_solve, nonmetricity
from .errors import LeibnizGeoError, MissingInput, OutputError, UnknownCommand
from .expr import MAX_CONSTANT_BITS
from .hessian import function_form, hessian, projected_exterior_derivative
from .model import dump_model, export_algebroid, load_model
from .statgeo import (
    ConjugatePair,
    StatisticalStructure,
    conjugate_connection,
    conjugation_residual,
    alpha_connection,
    statistical_solve,
)
from .tensor import ComponentSummaries, ETensor


def emit_report(records, fmt):
    """Render report records; byte-stable for json-lines."""
    if fmt == "json-lines":
        lines = [json.dumps(record, sort_keys=True, separators=(",", ":")) for record in records]
        return ("\n".join(lines) + "\n").encode()
    lines = []
    for record in records:
        line = f"[{record['status']:>14}] {record['check']}"
        if record.get("residual_nonzero_components"):
            line += (
                f"  (nonzero={record['residual_nonzero_components']},"
                f" max_degree={record['residual_max_degree']})"
            )
        if record.get("error"):
            line += f"  {record['error']}: {record.get('message', '')}"
        if record.get("note"):
            line += f"  -- {record['note']}"
        lines.append(line)
        for key, value in sorted(record.get("components", {}).items()):
            lines.append(f"    [{key}] = {value}")
    return ("\n".join(lines) + "\n").encode()


def _pick(objects, kind, name):
    """The named object of one kind in the model, else the first by name."""
    if not objects:
        raise MissingInput(f"model declares no {kind}s")
    if name:
        if name not in objects:
            raise MissingInput(f"no {kind} named {name!r} in model")
        return name, objects[name]
    name = sorted(objects)[0]
    return name, objects[name]


# Each handler yields the report items of one command, for checks.collect; an
# array the command shows rather than judges is a pass record from _shown.


def _shown(name, comps):
    """The record of components a command shows; it always passes."""
    return checks_module.judge(name, ComponentSummaries(comps), shown=True)


def _validate(doc, args):
    A = doc.algebroid
    yield "pre-leibniz", A.validate_pre_leibniz()
    if A.projector is not None:
        report = A.validate_projector()
        for key, value in report.entries.items():
            yield f"projector:{key}", value
        for warning in report.warnings:
            yield checks_module._na("projector:warning", warning)
    for name, conn in sorted(doc.connections.items()):
        yield f"admissibility:{name}", conn.admissibility


def _torsion(doc, args):
    name, conn = _pick(doc.connections, "connection", args.connection)
    yield _shown(f"torsion[{name}]", conn.torsion.comps)


def _curvature(doc, args):
    name, conn = _pick(doc.connections, "connection", args.connection)
    if doc.algebroid.projector is None:
        raise MissingInput(
            "curvature needs a locality projector: add a 'projector' block to the model"
        )
    yield _shown(f"curvature[{name}]", conn.curvature.comps)


def _nonmetricity(doc, args):
    cname, conn = _pick(doc.connections, "connection", args.connection)
    mname, g = _pick(doc.metrics, "metric", args.metric)
    dg = doc.algebroid.anchor_derivative(g.matrix)
    yield _shown(f"nonmetricity[{mname}:{cname}]", nonmetricity(conn, g, dg).comps)


def _levi_civita(doc, args):
    mname, g = _pick(doc.metrics, "metric", args.metric)
    conn = levi_civita_solve(doc.algebroid, g)
    yield _shown(f"levi-civita[{mname}]:gamma", conn.gamma)
    yield f"levi-civita[{mname}]:torsion-free", conn.torsion
    dg = doc.algebroid.anchor_derivative(g.matrix)
    yield f"levi-civita[{mname}]:metric-compatible", nonmetricity(conn, g, dg)


def _conjugate(doc, args):
    cname, conn = _pick(doc.connections, "connection", args.connection)
    mname, g = _pick(doc.metrics, "metric", args.metric)
    dg = doc.algebroid.anchor_derivative(g.matrix)
    conn_star = conjugate_connection(g, conn, dg)
    yield _shown(f"conjugate[{mname}:{cname}]:gamma", conn_star.gamma)
    yield f"conjugate[{mname}:{cname}]:conjugation", conjugation_residual(g, conn, conn_star, dg)


def _mean(doc, args):
    cname, conn = _pick(doc.connections, "connection", args.connection)
    mname, g = _pick(doc.metrics, "metric", args.metric)
    dg = doc.algebroid.anchor_derivative(g.matrix)
    mean = ConjugatePair(g, conn, conjugate_connection(g, conn, dg), dg).mean
    yield _shown(f"mean[{mname}:{cname}]:gamma", mean.gamma)
    yield f"mean[{mname}:{cname}]:metric-compatible", nonmetricity(mean, g, dg)


# The decimal exponent of an --alpha such as 1e-3, as Fraction reads it.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")

# The most digits Fraction may read into one integer of an --alpha: d
# significant digits are at least 8^(d - 1), so an integer of more digits
# exceeds MAX_CONSTANT_BITS (as in ``expr.int_literal``).
_MAX_ALPHA_DIGITS = MAX_CONSTANT_BITS // 3 + 1


def _parse_alpha(text):
    """--alpha as an exact rational, its size bounded like an expression constant.

    Before Fraction runs, two spellings are refused: a mantissa whose
    numerator or denominator (P and Q of P/Q, or the digits of a decimal on
    both sides of its point) has more than _MAX_ALPHA_DIGITS digits, and an
    exponent past MAX_CONSTANT_BITS in magnitude, which Fraction would expand
    into 10^|e|.  Then the integer log2 of the numerator's magnitude and of
    the denominator may reach MAX_CONSTANT_BITS.
    """
    exponent = _EXPONENT.search(text)
    mantissa = text[: exponent.start()] if exponent else text
    if any(sum(c.isdecimal() for c in part) > _MAX_ALPHA_DIGITS for part in mantissa.split("/")):
        raise MissingInput(
            f"--alpha with a numerator or denominator of more than {_MAX_ALPHA_DIGITS} digits"
            f" exceeds {MAX_CONSTANT_BITS} bits"
        )
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(MAX_CONSTANT_BITS)) or int(digits or "0") > MAX_CONSTANT_BITS:
        raise MissingInput(f"--alpha exponent exceeds {MAX_CONSTANT_BITS} in magnitude")
    try:
        alpha = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MissingInput(f"--alpha must be an exact rational P/Q: {exc}") from exc
    bits = max(abs(alpha.numerator), alpha.denominator).bit_length() - 1
    if bits > MAX_CONSTANT_BITS:
        raise MissingInput(f"--alpha of {bits} bits exceeds {MAX_CONSTANT_BITS}")
    return alpha


def _alpha(doc, args):
    cname, conn = _pick(doc.connections, "connection", args.connection)
    mname, g = _pick(doc.metrics, "metric", args.metric)
    alpha = _parse_alpha(args.alpha) if args.alpha is not None else Fraction(0)
    dg = doc.algebroid.anchor_derivative(g.matrix)
    pair = ConjugatePair(g, conn, conjugate_connection(g, conn, dg), dg)
    yield _shown(f"alpha[{mname}:{cname}:alpha={alpha}]:gamma", alpha_connection(pair, alpha).gamma)


def _statistical_solve(doc, args):
    A = doc.algebroid
    mname, g = _pick(doc.metrics, "metric", args.metric)
    C = doc.tensors.get("C")
    if C is None:
        raise MissingInput(
            "statistical-solve needs a (0,3) tensor named 'C' in the model's tensors"
        )
    B = doc.tensors.get("B", ETensor.zeros(1, 2, A.rank, A.coords))
    pair = statistical_solve(A, StatisticalStructure(g, C, B))
    yield _shown(f"statistical-solve[{mname}]:gamma", pair.nabla.gamma)
    yield _shown(f"statistical-solve[{mname}]:gamma-star", pair.nabla_star.gamma)
    yield f"statistical-solve[{mname}]:skewness", pair.nonmetricity + C


def _hessian(doc, args):
    cname, conn = _pick(doc.connections, "connection", args.connection)
    fname, f = _pick(doc.functions, "function", args.function)
    yield _shown(f"hessian[{cname}:{fname}]", hessian(conn, f).comps)


def _dhat(doc, args):
    cname, conn = _pick(doc.connections, "connection", args.connection)
    fname, f = _pick(doc.functions, "function", args.function)
    if doc.algebroid.projector is None:
        raise MissingInput(
            "dhat needs a locality projector: add a 'projector' block to the model"
        )
    derivative = projected_exterior_derivative(conn, function_form(doc.algebroid, f))
    yield _shown(f"dhat[{cname}:{fname}]", derivative.comps)


def _check(doc, args):
    if not args.check_id:
        raise MissingInput("check requires a proposition id, e.g. 'check SSp3'")
    if args.check_id not in checks_module.REGISTRY:
        raise UnknownCommand(
            f"unknown check id {args.check_id!r}; known: "
            + ", ".join(sorted(checks_module.REGISTRY, key=str.lower))
        )
    return checks_module.run_check(args.check_id, doc)


def _check_all(doc, args):
    return checks_module.run_all(doc)


# The commands that run on a loaded model, in the order the usage lists them.
_HANDLERS = {
    "validate": _validate,
    "torsion": _torsion,
    "curvature": _curvature,
    "nonmetricity": _nonmetricity,
    "levi-civita": _levi_civita,
    "conjugate": _conjugate,
    "mean": _mean,
    "alpha": _alpha,
    "statistical-solve": _statistical_solve,
    "hessian": _hessian,
    "dhat": _dhat,
    "check": _check,
    "check-all": _check_all,
}
COMMANDS = (*_HANDLERS, "export-builtin")


def run(command, doc, args):
    """Execute one command against a loaded model; returns report records."""
    results = checks_module.collect(_HANDLERS[command](doc, args))
    return [result.to_record(args.dump_residuals) for result in results]


def _parse_args(argv):
    """argv parsed; '--alpha -P/Q' is read as '--alpha=-P/Q', since argparse
    takes a '-P/Q' that is no plain negative number for an option.  As
    argparse does, '--a', '--al', ... abbreviate '--alpha'."""
    joined = []
    for arg in sys.argv[1:] if argv is None else argv:
        option = joined[-1] if joined else ""
        if len(option) > 2 and "--alpha".startswith(option) and re.match(r"-\d", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    parser = argparse.ArgumentParser(
        prog="leibniz-geo",
        description="Exact metric-connection geometry on pre-Leibniz algebroids.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("check_id", nargs="?", default=None,
                        help="proposition id for 'check', builtin name for 'export-builtin'")
    parser.add_argument("--model", default=None, help="path to a model document")
    parser.add_argument("--connection", default=None)
    parser.add_argument("--metric", default=None)
    parser.add_argument("--alpha", default=None, help="exact rational, e.g. 1/2 or -1/2")
    parser.add_argument("--function", default=None)
    parser.add_argument("--format", default="text", choices=("text", "json-lines"))
    parser.add_argument("--dump-residuals", action="store_true")
    return parser.parse_args(joined)


_BUILTINS = {
    "tangent2": ("tangent", 2),
    "tangent3": ("tangent", 3),
    "courant1": ("courant", 1),
    "courant2": ("courant", 2),
    "so3": ("so3",),
}


def _export_builtin(name):
    if name not in _BUILTINS:
        raise UnknownCommand(
            f"unknown builtin {name!r}; known: " + ", ".join(sorted(_BUILTINS))
        )
    return dump_model(export_algebroid(builtin(*_BUILTINS[name])))


def _write(name, data):
    """Write bytes to the standard stream ``name`` ("stdout" or "stderr") and
    flush them; OutputError when the stream is closed or refuses them."""
    stream = getattr(sys, name)
    if stream is None:
        raise OutputError(f"{name} is closed")
    try:
        stream.buffer.write(data)
        stream.flush()
    except OSError as exc:
        # The bytes the failed flush left in the stream's buffer would fail
        # again when the interpreter flushes it at exit (a traceback and exit
        # 120); point the descriptor at the null device so they go nowhere.
        try:
            fd = stream.fileno()
        except (AttributeError, OSError, ValueError):
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise OutputError(f"cannot write to {name}: {exc}") from exc


def main(argv=None):
    args = _parse_args(argv)
    try:
        if args.command == "export-builtin":
            if not args.check_id:
                raise MissingInput("export-builtin requires a builtin name, e.g. 'tangent2'")
            _write("stdout", _export_builtin(args.check_id).encode())
            return 0
        if not args.model:
            raise MissingInput("this command requires --model PATH")
        try:
            doc = load_model(args.model)
        except OSError as exc:
            raise MissingInput(f"cannot read model {args.model!r}: {exc}") from exc
        records = run(args.command, doc, args)
        _write("stdout", emit_report(records, args.format))
    except LeibnizGeoError as exc:
        record = {
            "check": args.command,
            "status": "error",
            "error": type(exc).__name__,
            "message": str(exc),
        }
        try:
            _write("stderr", emit_report([record], args.format))
        except OutputError:
            pass  # the record has nowhere to go; the exit code still reports the error
        return 2
    return 1 if any(record["status"] == "fail" for record in records) else 0


if __name__ == "__main__":
    sys.exit(main())
