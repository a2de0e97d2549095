"""Command-line interface: load a model, run a computation or check suite,
emit a deterministic report.

Exit codes: 0 for pass/not-applicable, 1 when any check fails, 2 on errors
(bad input, unknown command, missing objects).  The json-lines format emits
one sorted-key record per check and is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import checks as checks_module
from .algebroid import Residual, builtin
from .checks import CheckResult, _from_residual
from .connection import (
    curvature,
    levi_civita_solve,
    nonmetricity,
    torsion,
)
from .errors import LeibnizGeoError, MissingInput, UnknownCommand
from .hessian import function_form, hessian, projected_exterior_derivative
from .model import dump_model, export_algebroid, load_model
from .statgeo import (
    ConjugatePair,
    StatisticalStructure,
    conjugate_connection,
    conjugation_residual,
    mean_connection,
    alpha_connection,
    statistical_solve,
)
from .tensor import ETensor

COMMANDS = (
    "validate",
    "torsion",
    "curvature",
    "nonmetricity",
    "levi-civita",
    "conjugate",
    "mean",
    "alpha",
    "statistical-solve",
    "hessian",
    "dhat",
    "check",
    "check-all",
    "export-builtin",
)


def _dump_components(tensor):
    return {
        ",".join(str(i + 1) for i in idx): str(tensor.comps[idx])
        for idx in _nonzero_indices(tensor)
    }


def _nonzero_indices(tensor):
    import numpy as np

    for idx in np.ndindex(tensor.comps.shape):
        if not tensor.comps[idx].is_zero:
            yield idx


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


def _get_connection(doc, args):
    if not doc.connections:
        raise MissingInput("model declares no connections")
    if args.connection:
        if args.connection not in doc.connections:
            raise MissingInput(f"no connection named {args.connection!r} in model")
        return args.connection, doc.connections[args.connection]
    name = sorted(doc.connections)[0]
    return name, doc.connections[name]


def _get_metric(doc, args):
    if not doc.metrics:
        raise MissingInput("model declares no metrics")
    if args.metric:
        if args.metric not in doc.metrics:
            raise MissingInput(f"no metric named {args.metric!r} in model")
        return args.metric, doc.metrics[args.metric]
    name = sorted(doc.metrics)[0]
    return name, doc.metrics[name]


def _get_function(doc, args):
    if not doc.functions:
        raise MissingInput("model declares no functions")
    if args.function:
        if args.function not in doc.functions:
            raise MissingInput(f"no function named {args.function!r} in model")
        return args.function, doc.functions[args.function]
    name = sorted(doc.functions)[0]
    return name, doc.functions[name]


def run(command, doc, args):
    """Execute one command against a loaded model; returns report records."""
    A = doc.algebroid
    records = []
    dump = args.dump_residuals

    def add(result, tensor):
        record = result.to_record()
        if dump:
            record["components"] = _dump_components(tensor)
        records.append(record)

    def add_tensor(name, tensor):
        add(CheckResult(name, "pass", tensor.nonzero_count(), tensor.max_degree()), tensor)

    def add_residual(name, residual):
        add(_from_residual(name, residual), residual.tensor)

    if command == "validate":
        add_residual("pre-leibniz", A.validate_pre_leibniz())
        if A.projector is not None:
            report = A.validate_projector()
            for key, value in report.entries.items():
                if isinstance(value, Residual):
                    add_residual(f"projector:{key}", value)
                else:
                    status = "pass" if value else "fail"
                    records.append(CheckResult(f"projector:{key}", status).to_record())
            for warning in report.warnings:
                result = CheckResult("projector:warning", "not-applicable", note=warning)
                records.append(result.to_record())
        for name, conn in sorted(doc.connections.items()):
            add_residual(f"admissibility:{name}", A.admissibility_residual(conn))
    elif command == "torsion":
        name, conn = _get_connection(doc, args)
        add_tensor(f"torsion[{name}]", torsion(A, conn))
    elif command == "curvature":
        name, conn = _get_connection(doc, args)
        if A.projector is None:
            raise MissingInput(
                "curvature needs a locality projector: add a 'projector' block to the model"
            )
        add_tensor(f"curvature[{name}]", curvature(A, conn))
    elif command == "nonmetricity":
        cname, conn = _get_connection(doc, args)
        mname, g = _get_metric(doc, args)
        add_tensor(f"nonmetricity[{mname}:{cname}]", nonmetricity(A, conn, g))
    elif command == "levi-civita":
        mname, g = _get_metric(doc, args)
        conn = levi_civita_solve(A, g)
        add_tensor(f"levi-civita[{mname}]:gamma", ETensor(1, 2, A.rank, A.coords, conn.gamma))
        add_residual(f"levi-civita[{mname}]:torsion-free", Residual("t", torsion(A, conn)))
        add_residual(
            f"levi-civita[{mname}]:metric-compatible", Residual("q", nonmetricity(A, conn, g))
        )
    elif command == "conjugate":
        cname, conn = _get_connection(doc, args)
        mname, g = _get_metric(doc, args)
        conn_star = conjugate_connection(A, g, conn)
        add_tensor(
            f"conjugate[{mname}:{cname}]:gamma", ETensor(1, 2, A.rank, A.coords, conn_star.gamma)
        )
        add_residual(
            f"conjugate[{mname}:{cname}]:conjugation",
            conjugation_residual(A, g, conn, conn_star),
        )
    elif command == "mean":
        cname, conn = _get_connection(doc, args)
        mname, g = _get_metric(doc, args)
        pair = ConjugatePair(A, g, conn, conjugate_connection(A, g, conn))
        mean = mean_connection(pair)
        add_tensor(f"mean[{mname}:{cname}]:gamma", ETensor(1, 2, A.rank, A.coords, mean.gamma))
        add_residual(
            f"mean[{mname}:{cname}]:metric-compatible", Residual("q", nonmetricity(A, mean, g))
        )
    elif command == "alpha":
        cname, conn = _get_connection(doc, args)
        mname, g = _get_metric(doc, args)
        try:
            alpha = Fraction(args.alpha) if args.alpha is not None else Fraction(0)
        except (ValueError, ZeroDivisionError) as exc:
            raise MissingInput(f"--alpha must be an exact rational P/Q: {exc}") from exc
        pair = ConjugatePair(A, g, conn, conjugate_connection(A, g, conn))
        conn_alpha = alpha_connection(pair, alpha)
        add_tensor(
            f"alpha[{mname}:{cname}:alpha={alpha}]:gamma",
            ETensor(1, 2, A.rank, A.coords, conn_alpha.gamma),
        )
    elif command == "statistical-solve":
        mname, g = _get_metric(doc, args)
        r = A.rank
        C = doc.tensors.get("C")
        if C is None:
            raise MissingInput(
                "statistical-solve needs a (0,3) tensor named 'C' in the model's tensors"
            )
        B = doc.tensors.get("B", ETensor.zeros(1, 2, r, A.coords))
        structure = StatisticalStructure(g, C, B)
        pair = statistical_solve(A, structure)
        add_tensor(
            f"statistical-solve[{mname}]:gamma", ETensor(1, 2, r, A.coords, pair.nabla.gamma)
        )
        add_tensor(
            f"statistical-solve[{mname}]:gamma-star",
            ETensor(1, 2, r, A.coords, pair.nabla_star.gamma),
        )
        add_residual(
            f"statistical-solve[{mname}]:skewness",
            Residual("q", nonmetricity(A, pair.nabla, g) + C),
        )
    elif command == "hessian":
        cname, conn = _get_connection(doc, args)
        fname, f = _get_function(doc, args)
        add_tensor(f"hessian[{cname}:{fname}]", hessian(A, conn, f))
    elif command == "dhat":
        cname, conn = _get_connection(doc, args)
        fname, f = _get_function(doc, args)
        if A.projector is None:
            raise MissingInput(
                "dhat needs a locality projector: add a 'projector' block to the model"
            )
        derivative = projected_exterior_derivative(A, conn, function_form(f))
        add_tensor(
            f"dhat[{cname}:{fname}]", ETensor(0, 1, A.rank, A.coords, derivative.comps)
        )
    elif command == "check":
        if not args.check_id:
            raise MissingInput("check requires a proposition id, e.g. 'check SSp3'")
        try:
            results = checks_module.run_check(args.check_id, doc)
        except KeyError as exc:
            raise UnknownCommand(
                f"unknown check id {args.check_id!r}; known: "
                + ", ".join(sorted(checks_module.REGISTRY, key=str.lower))
            ) from exc
        records.extend(result.to_record() for result in results)
    elif command == "check-all":
        records.extend(result.to_record() for result in checks_module.run_all(doc))
    else:  # pragma: no cover - argparse restricts choices
        raise UnknownCommand(command)
    return records


def _build_parser():
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
    parser.add_argument("--alpha", default=None, help="exact rational, e.g. 1/2")
    parser.add_argument("--function", default=None)
    parser.add_argument("--format", default="text", choices=("text", "json-lines"))
    parser.add_argument("--dump-residuals", action="store_true")
    return parser


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
    spec = _BUILTINS[name]
    if spec[0] == "so3":
        A = builtin("so3")
    else:
        A = builtin(spec[0], spec[1])
    return dump_model(export_algebroid(A))


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "export-builtin":
            if not args.check_id:
                raise MissingInput("export-builtin requires a builtin name, e.g. 'tangent2'")
            sys.stdout.write(_export_builtin(args.check_id))
            return 0
        if not args.model:
            raise MissingInput("this command requires --model PATH")
        try:
            doc = load_model(args.model)
        except OSError as exc:
            raise MissingInput(f"cannot read model {args.model!r}: {exc}") from exc
        records = run(args.command, doc, args)
    except LeibnizGeoError as exc:
        record = {
            "check": args.command,
            "status": "error",
            "error": type(exc).__name__,
            "message": str(exc),
        }
        sys.stderr.buffer.write(emit_report([record], args.format))
        return 2
    sys.stdout.buffer.write(emit_report(records, args.format))
    worst = 0
    for record in records:
        if record["status"] == "fail":
            worst = max(worst, 1)
        elif record["status"] == "error":
            worst = 2
    return worst


if __name__ == "__main__":
    sys.exit(main())
