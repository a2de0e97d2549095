"""Layered benchmark for leibniz-geo.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --regenerate-expected

Run from the root of a checkout.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
from a traced pass (see README.md).  Full results also go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer as tracing
import workloads
from speed import SpeedClock

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
MAX_UNKNOWNS = "linalg.solve.max_unknowns"  # a maximum over children, not a sum


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--regenerate-expected",
        action="store_true",
        help="rewrite expected/applicability.json from check-all on the bundled models",
    )
    return parser.parse_args(argv)


def checkout_root():
    root = Path.cwd()
    if not (root / "src" / "leibniz_geo" / "__init__.py").is_file():
        fail(f"no src/leibniz_geo under {root}; run from the root of a leibniz-geo checkout")
    if not (root / "models").is_dir():
        fail(f"no models/ under {root}")
    return root


def import_program(root):
    sys.path.insert(0, str(root / "src"))
    import leibniz_geo

    if Path(leibniz_geo.__file__).resolve().parent != (root / "src" / "leibniz_geo").resolve():
        fail(f"imported leibniz_geo from {leibniz_geo.__file__}, not from this checkout")
    import leibniz_geo.checks  # noqa: F401 - workloads call the layers by module
    import leibniz_geo.model  # noqa: F401

    return leibniz_geo


def setup_seconds(root, workload, seed):
    """Fresh interpreters each importing leibniz_geo and building the inputs,
    timed inside the child: the median in reference seconds, and every
    sample as [reference seconds, wall seconds]."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)],
            cwd=root, env=env, check=True, timeout=170, capture_output=True, text=True,
        )  # fmt: skip
        samples.append(json.loads(out.stdout.splitlines()[-1]))
    return statistics.median(ref for ref, _ in samples), samples


def run_pass(workload, lg, scaled=True):
    """One pass over the workload's operations:
    [(op, reference seconds, wall seconds, output or exception)].

    With ``scaled`` each operation is timed in reference seconds (speed.py):
    an in-process operation by a speed clock read on a timer while it runs, a
    CLI call by the clock its child process runs.  Without it both figures
    are plain wall time, as a traced pass needs.  sympy's cache is emptied
    first, so no pass (traced or not) starts warmed by the one before it.
    """
    from sympy.core.cache import clear_cache

    clear_cache()
    timings = []
    if not (scaled and workload.in_process):
        for op in workload.ops(lg):
            start = time.perf_counter()
            output = _attempt(op)
            wall = time.perf_counter() - start
            ref, wall = workload.scale(wall) if scaled else (wall, wall)
            timings.append((op, ref, wall, output))
        return timings
    clock = SpeedClock()
    with clock.sampling():
        ref0, wall0 = clock.read()
        for op in workload.ops(lg):
            output = _attempt(op)
            ref1, wall1 = clock.read()
            timings.append((op, ref1 - ref0, wall1 - wall0, output))
            ref0, wall0 = ref1, wall1
    return timings


def _attempt(op):
    try:
        return op.run()
    except Exception as exc:  # noqa: BLE001 - a raising operation is counted as failed
        return exc


def judge(timings, tally):
    """Check each output; count attempts and failures; collect oracle errors."""
    for op, *_, output in timings:
        tally["attempted"] += 1
        if isinstance(output, Exception):
            tally["failed"] += 1
            tally["failures"].append(f"{op.label}: {type(output).__name__}: {output}")
            continue
        try:
            failed, errors = op.check(output)
        except Exception as exc:  # noqa: BLE001 - output the oracle cannot read is incorrect
            failed, errors = False, [f"output not readable by its check: {exc!r}"]
        if failed:
            tally["failed"] += 1
            tally["failures"].append(f"{op.label}: {_describe(output)}")
        tally["errors"] += [f"{op.label}: {error}" for error in errors]


def _describe(output):
    if isinstance(output, subprocess.CompletedProcess):
        tail = output.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return f"exit {output.returncode}: {tail[0][:200]}"
    return repr(output)[:200]


def end_to_end(passes, setup_s, workload_name):
    """Times are in reference seconds (speed.py), the memory in MB."""
    op_times = [ref for timings in passes for _, ref, _, _ in timings]
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-session" else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(_total(t, 1) for t in passes), "s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "op_max_s": (statistics.median(max(row[1] for row in t) for t in passes), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def _total(timings, column):
    return sum(row[column] for row in timings)


def traced_pass(workload, lg, out_dir):
    """Per-layer metrics from one traced build-and-pass; returns (values, timings, table)."""
    if workload.name == "cli-session":
        workload.tracer_out = out_dir / f"child-trace-{os.getpid()}.json"
        workload.child_traces = []
        workload.stdout_bytes = 0
        timings = run_pass(workload, lg, scaled=False)
        workload.tracer_out.unlink(missing_ok=True)
        table, counts, root_s = {}, Counter(), 0.0
        for _, trace in workload.child_traces:
            tracing.merge(table, trace["table"])
            largest = max(counts[MAX_UNKNOWNS], trace["counts"].get(MAX_UNKNOWNS, 0))
            counts.update(trace["counts"])
            counts[MAX_UNKNOWNS] = largest
            root_s += trace["root_s"]
        wall = sum(w for w, _ in workload.child_traces)
        values = tracing.layer_metrics(table, counts)
        values["cli.stdout_bytes"] = workload.stdout_bytes
        values["trace.unattributed_s"] = wall - root_s
    else:
        tracer = tracing.Tracer()
        tracer.install(lg)
        try:
            start = time.perf_counter()
            workload.build(lg)
            timings = run_pass(workload, lg, scaled=False)
            elapsed = time.perf_counter() - start
        finally:
            tracer.uninstall()
        table, root_s = tracer.summary()
        values = tracing.layer_metrics(table, tracer.counts)
        values["cli.stdout_bytes"] = 0
        values["trace.unattributed_s"] = elapsed - root_s
    values["trace.run_s"] = _total(timings, 2)
    return values, timings, table


def main(argv=None):
    args = parse_args(argv)
    root = checkout_root()
    if args.regenerate_expected:
        return regenerate_expected(root)
    if args.workload not in workloads.WORKLOADS:
        fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    try:
        return measure(args, root, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root, out_dir, workdir):
    setup_s, setup_samples = setup_seconds(root, args.workload, args.seed)
    lg = import_program(root)
    workload = workloads.WORKLOADS[args.workload](root, args.seed, workdir)
    workload.build(lg)
    tally = {"attempted": 0, "failed": 0, "failures": [], "errors": []}
    passes = []
    measured = 0.0
    while True:
        timings = run_pass(workload, lg)
        judge(timings, tally)
        passes.append(timings)
        measured += _total(timings, 2)
        if args.trace or measured >= args.seconds:
            break
    e2e = end_to_end(passes, setup_s, args.workload)
    table = None
    if args.trace:
        values, timings, table = traced_pass(workload, lg, out_dir)
        judge(timings, tally)
        values["trace.overhead_s"] = values["trace.run_s"] - _total(passes[0], 2)
        units = tracing.per_layer_units()
        metrics = {
            name: {"value": values[name], "unit": units[name]} for name in tracing.PER_LAYER_NAMES
        }
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    result = {
        "correct": not tally["errors"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        passes=[[[op.label, ref, wall] for op, ref, wall, _ in timings] for timings in passes],
        setup_samples=setup_samples,
        failures=tally["failures"],
        errors=tally["errors"],
        spans=table,
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for line in tally["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    for line in tally["errors"]:
        print(f"incorrect: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def regenerate_expected(root):
    """Record which check-all records each bundled model yields; every one must hold."""
    lg = import_program(root)
    expected = {}
    for name in workloads.BUNDLED:
        doc = lg.model.load_model(str(root / "models" / f"{name}.model"))
        records = [result.to_record() for result in lg.checks.run_all(doc)]
        bad = [r["check"] for r in records if r["status"] not in ("pass", "not-applicable")]
        if bad:
            fail(f"{name}: checks did not hold, refusing to record them: {bad}")
        expected[name] = [[r["check"], r["status"]] for r in records]
    lines = []
    for name, rows in expected.items():
        body = ",\n".join(f"    {json.dumps(row)}" for row in rows)
        lines.append(f"  {json.dumps(name)}: [\n{body}\n  ]")
    workloads.EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {workloads.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
