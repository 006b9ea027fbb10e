"""One CLI invocation in a fresh interpreter, timed from inside.

    python3 perfbench/child.py --result R.json [--trace SPANS.json] [--setup-only] -- ARGV...

Imports ``hwmimo.cli`` from the checkout's ``src`` directory, records the
instant it is ready (the parent turns this into set-up time), then times
``cli.main(ARGV)``: wall time, process CPU time (user + system, all threads)
and peak resident memory.  With ``--trace`` the package is instrumented
first and the spans are written to SPANS.json.  ``--setup-only`` stops after
the import.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    sys.path.insert(0, SRC)
    from hwmimo import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"imported {cli.__file__}, not the checkout's package", file=sys.stderr)
        return 4
    ready = time.perf_counter()
    result = {"ready": ready}
    if not opts.setup_only:
        tracer = None
        if opts.trace:
            sys.path.insert(0, HERE)
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)  # rebinds cli.main to its wrapper
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed call, reported like a non-zero exit
            traceback.print_exc()
            code = 1
        t1, cpu1 = time.perf_counter(), _cpu_s()
        result.update(
            exit_code=code,
            wall_s=t1 - t0,
            cpu_s=cpu1 - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            tracer.dump(opts.trace)
    with open(opts.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
