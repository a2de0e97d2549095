"""Child-process entry points of the benchmark.

    python perfbench/child.py setup <workload> <seed>
        Import leibniz_geo and build the workload's inputs, timed with the
        speed clock (speed.py) from before the first import; print
        [reference seconds, wall seconds] as the last line and exit.  The
        parent takes each call as one set-up sample.

    python perfbench/child.py timed <timing-file> <leibniz-geo arguments...>
        Run the leibniz-geo CLI, exactly as ``python -m leibniz_geo.cli``
        would, under the speed clock read on a timer (speed.py), and write
        [reference seconds, wall seconds, seconds spent reading the clock]
        from before the import to the end of ``main`` to <timing-file>
        whatever the outcome.  Exit code, stdout and stderr are the CLI's own.

    python perfbench/child.py cli <trace-file> <leibniz-geo arguments...>
        Run the leibniz-geo CLI under the span tracer, exactly as
        ``python -m leibniz_geo.cli`` would, and write the span summary to
        <trace-file> whatever the outcome.  Exit code, stdout and stderr are
        the CLI's own; an uncaught exception still ends in a traceback.

Both expect PYTHONPATH to point at the checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
import time


def setup(workload, seed):
    from speed import SpeedClock

    clock = SpeedClock()
    with clock.sampling():
        clock.read()
        import leibniz_geo
        import leibniz_geo.checks  # noqa: F401 - workloads call the layers by module
        import leibniz_geo.model  # noqa: F401
        import workloads

        cls = workloads.WORKLOADS[workload]
        if cls is not workloads.CliSession:
            cls(".", int(seed), None).build(leibniz_geo)
        reference_s, wall_s = clock.read()
    print(json.dumps([reference_s, wall_s]))


def timed(timing_file, argv):
    from speed import SpeedClock

    clock = SpeedClock()
    code = 1
    try:
        with clock.sampling():
            clock.read()
            try:
                import leibniz_geo.cli

                code = leibniz_geo.cli.main(argv)
            finally:
                clock.read()
    finally:
        with open(timing_file, "w", encoding="utf-8") as handle:
            json.dump([clock.reference_s, clock.wall_s, clock.reading_s], handle)
    return code


def cli(trace_file, argv):
    start = time.perf_counter()
    import leibniz_geo
    import leibniz_geo.cli

    end = time.perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.add("cli.import", start, end)
    tracer.install(leibniz_geo)
    code = 1
    try:
        code = leibniz_geo.cli.main(argv)
    finally:
        table, root_s = tracer.summary()
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"table": table, "counts": dict(tracer.counts), "root_s": root_s}, handle)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], sys.argv[3])
    elif mode == "timed":
        sys.exit(timed(sys.argv[2], sys.argv[3:]))
    elif mode == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
