"""hwmimo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --record-references

Run from the repository root.  Each timed call runs ``hwmimo.cli.main(argv)``
in a fresh interpreter (perfbench/child.py) and the CSV it writes is checked
(perfbench/checks.py).  Calls repeat until ``--seconds`` would be exceeded,
with at least two; set-up time is sampled from extra interpreters that only
import the CLI.  Values are medians over the calls of the run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one traced
call after the untimed ones and reports the per-layer metrics
(perfbench/tracer.py).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` (CSV rows) and ``metrics``.

``--all`` rewrites BENCHMARK.json from perfbench/spec.py and runs every
workload with and without tracing.  ``--record-references`` reruns the
reference workloads at every seed of ``spec.REFERENCE_SEEDS`` and rewrites
perfbench/references.json; do that only when a change is meant to alter
outputs.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402

MIN_CALLS = 2
SETUP_SAMPLES = 3  # set-up-only interpreters, after one untimed warm-up
BUDGET_S = 165  # a run ends well within 180 s


class HarnessError(RuntimeError):
    """The benchmark cannot run here (no package, child crashed on import)."""


def environment(argv):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "argv": ["hwmimo", *argv],
    }


class Runner:
    """Spawns child interpreters for one workload in a private work
    directory and keeps their measurements."""

    def __init__(self, workload, program_seed, work):
        self.work = work
        self.argv = [*workload.args, "--seed", str(program_seed), "--out", work]
        self.csv = os.path.join(work, workload.csv)
        self.start = time.perf_counter()

    def remaining(self):
        return BUDGET_S - (time.perf_counter() - self.start)

    def spawn(self, setup_only=False, trace=None):
        result_path = os.path.join(self.work, "result.json")
        for stale in (result_path, self.csv):
            if os.path.exists(stale):
                os.remove(stale)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--result", result_path]
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--trace", trace] if trace else []
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [*cmd, "--", *self.argv], cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"call exceeded the {BUDGET_S} s budget") from exc
        elapsed = time.perf_counter() - t0
        if not os.path.exists(result_path):
            raise HarnessError(f"child failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        with open(result_path) as fh:
            res = json.load(fh)
        res["setup_s"] = res["ready"] - t0
        res["elapsed_s"] = elapsed
        if res.get("exit_code", 0) != 0:
            sys.stderr.write(proc.stderr[-2000:])
        return res


def _median(values):
    return statistics.median(values)


def _remove_work(work):
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):  # still in use by a concurrent run
        os.rmdir(os.path.dirname(work))


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns the result object of the last output line."""
    program_seed = spec.REFERENCE_SEEDS[seed % len(spec.REFERENCE_SEEDS)]
    work = os.path.join("perfbench", ".work", f"{workload.name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(workload, program_seed, work)
        print("environment " + json.dumps(environment(runner.argv), sort_keys=True), flush=True)
        check = checks.Checker(workload, program_seed)

        runner.spawn(setup_only=True)  # warm the file cache and bytecode
        setups = [runner.spawn(setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
        attempted = failed = 0
        calls = []

        def checked_call(trace_path=None):
            nonlocal attempted, failed
            res = runner.spawn(trace=trace_path)
            res["rows"] = checks.read_rows(runner.csv)
            a, f = check(res["rows"])
            attempted += a
            failed += a if res["exit_code"] != 0 else f
            return res

        loop_start = time.perf_counter()
        while True:
            calls.append(checked_call())
            elapsed = time.perf_counter() - loop_start
            per_call = _median([c["elapsed_s"] for c in calls])
            # keep room for the traced call of a traced run
            if len(calls) >= MIN_CALLS and (
                elapsed + per_call > seconds or runner.remaining() < per_call * (2 + trace)
            ):
                break
        setups += [c["setup_s"] for c in calls]
        wall = _median([c["wall_s"] for c in calls])
        print(f"workload {workload.name} seed {seed} (program seed {program_seed}), "
              f"{len(setups)} set-up samples, {len(calls)} timed calls: wall_s "
              + " ".join(f"{c['wall_s']:.4g}" for c in calls)
              + "; setup_s " + " ".join(f"{v:.3g}" for v in setups), flush=True)

        if trace:
            spans_path = os.path.join(work, "spans.json")
            traced = checked_call(spans_path)
            with open(spans_path) as fh:
                spans = json.load(fh)
            layer = tracer.analyze(spans, traced["wall_s"])
            layer["trace.overhead_s"] = traced["wall_s"] - wall
            print(f"traced call: wall_s {traced['wall_s']:.6g} s", flush=True)
            metrics = {m.name: (layer.get(m.name, 0), m.unit) for m in spec.PER_LAYER}
        else:
            uses = _channel_uses(workload, calls[-1]["rows"])
            metrics = {
                "setup_s": (_median(setups), "s"),
                "wall_s": (wall, "s"),
                "channel_uses_per_s": (uses / wall, "1/s"),
                "cpu_s": (_median([c["cpu_s"] for c in calls]), "s"),
                "peak_rss_mb": (_median([c["peak_rss_mb"] for c in calls]), "MiB"),
            }
    finally:
        _remove_work(work)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} CSV rows)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _channel_uses(workload, rows):
    """Channel-use evaluations behind the CSV: data channel uses (T - B)
    summed over closed-form rate rows, or trials times evaluated channel
    uses for Monte Carlo rows."""
    if workload.check == "reference":
        B = 8  # both presets use 8-symbol pilots
        return sum(int(r["T"]) - B for r in rows if r["metric"] == "rate")
    trials = int(checks.option_value(workload.args, "--trials"))
    return trials * len(rows)


def record_references():
    refs = {}
    for w in spec.WORKLOADS:
        refs[w.name] = {}
        for seed in spec.REFERENCE_SEEDS:
            work = os.path.join("perfbench", ".work", f"record-{w.name}-{seed}")
            os.makedirs(work, exist_ok=True)
            try:
                runner = Runner(w, seed, work)
                if runner.spawn().get("exit_code") != 0:
                    raise HarnessError(f"{w.name} seed {seed} failed")
                rows = checks.read_rows(runner.csv)
            finally:
                _remove_work(work)
            refs[w.name][str(seed)] = (checks.cf_reference_rows(rows) if w.check == "reference"
                                       else checks.mc_reference_rows(rows))
            print(f"recorded {w.name} seed {seed}: {len(rows)} rows", flush=True)
    with open(checks.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--record-references", action="store_true")
    opts = parser.parse_args()
    os.chdir(ROOT)
    if not os.path.exists(os.path.join(ROOT, "src", "hwmimo", "cli.py")):
        print(f"no hwmimo package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if opts.record_references:
            record_references()
            return 0
        if opts.all:
            with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
                json.dump(spec.benchmark_json(), fh, indent=2)
                fh.write("\n")
            for w in spec.WORKLOADS:
                for trace in (0, 1):
                    print(json.dumps(run_workload(w, opts.seed, opts.seconds, trace)), flush=True)
            return 0
        if opts.workload is None:
            parser.error("--workload is required")
        result = run_workload(spec.WORKLOADS_BY_NAME[opts.workload], opts.seed, opts.seconds,
                              opts.trace)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
