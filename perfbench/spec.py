"""What the benchmark runs and reports: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this file by
``python3 perfbench/run.py --all`` (see README.md); a test keeps the two
identical.
"""

from dataclasses import dataclass

RUN_SECONDS = 55

# seeds with recorded reference outputs; the benchmark seed n runs the
# program with REFERENCE_SEEDS[n % len(REFERENCE_SEEDS)]
REFERENCE_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)

# the paper's reference impairment triple (6-bit ADC, 2 dB LNA, free-running LO)
REFERENCE_TRIPLE = ("--delta", "1.58e-4", "--kappa2", "2.4336e-4", "--xi-over-sigma2", "1.58")
_MC = ("rates-mc", "--deployment", "distributed", "-N", "64", "-T", "500",
       *REFERENCE_TRIPLE, "--lo", "slo", "--ue", "0", "--t-stride", "164")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple  # CLI arguments; the benchmark appends --seed and --out
    csv: str  # file name of the CSV the command writes
    check: str  # "reference" | "mc-reference"


WORKLOADS = (
    Workload(
        "cf-fig7",
        "4 short (deployment, drop) jobs on a 2-thread pool: fan-out, scenario generation, "
        "Cholesky builds, the closed-form coefficient pass and BLAS-vs-pool threads show here",
        ("preset", "fig7", "--drops", "2", "--n-grid", "400", "--threads", "2"),
        "fig7.csv", "reference",
    ),
    Workload(
        "mc-mmse",
        "Monte Carlo MMSE, 100 trials x 3 channel uses, no pool: the MMSE filter, per-link "
        "estimation and world draws show here; closed forms and pool policy must not",
        (*_MC, "--filter", "mmse", "--trials", "100"),
        "rates_mc.csv", "mc-reference",
    ),
)
WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("channel_uses_per_s", "1/s", "higher", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
)

PER_LAYER = (
    Metric("scenario_gen.self_s", "s", "lower"),
    Metric("scenario_gen.calls", "count", "lower"),
    Metric("pilots.self_s", "s", "lower"),
    Metric("estimator.build_cache.calls", "count", "lower"),
    Metric("estimator.cells_built", "count", "lower"),
    Metric("estimator.cell_build_s", "s", "lower"),
    Metric("estimator.reduced_gain.calls", "count", "lower"),
    Metric("estimator.reduced_gain.hit_ratio", "ratio", "higher"),
    Metric("estimator.apply_gain_s", "s", "lower"),
    Metric("estimator.apply_gain.gflop_computed", "GFLOP", "lower"),
    Metric("estimator.error_covariance_s", "s", "lower"),
    Metric("estimator.self_s", "s", "lower"),
    Metric("rates.coefficients.calls", "count", "lower"),
    Metric("rates.coefficients.uses", "count", "lower"),
    Metric("rates.coefficients_s", "s", "lower"),
    Metric("rates.sinr_assembly_s", "s", "lower"),
    Metric("rng.complex_normal_s", "s", "lower"),
    Metric("rng.samples", "count", "lower"),
    Metric("rng.substream.calls", "count", "lower"),
    Metric("channel.draw_phases_s", "s", "lower"),
    Metric("montecarlo.world_draws", "count", "lower"),
    Metric("montecarlo.mmse_filter_s", "s", "lower"),
    Metric("montecarlo.mmse_filter.gflop_computed", "GFLOP", "lower"),
    Metric("montecarlo.self_s", "s", "lower"),
    Metric("experiments.jobs", "count", "lower"),
    Metric("experiments.self_s", "s", "lower"),
    Metric("experiments.write_rows_s", "s", "lower"),
    Metric("experiments.csv_bytes", "bytes", "lower"),
    Metric("experiments.pool_wait_s", "s", "lower"),
    Metric("experiments.concurrency", "ratio", "higher"),
    Metric("cli.self_s", "s", "lower"),
    Metric("trace.overhead_s", "s", "lower"),
    Metric("trace.accounted_share", "ratio", "higher"),
)


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
