"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

The traced-coverage test runs shrunken versions of each workload (same
commands, fewer drops, trials and channel uses) in a child interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402


def _span(name, start, end, parent=None, thread=1, attrs=None):
    return [name, start, end, parent, thread, attrs]


# -- self-time arithmetic -----------------------------------------------------------


def test_self_time_nested_single_thread():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("experiments.run", 1.0, 9.0, parent=0),
        _span("rates.mrc_moment_coefficients", 2.0, 5.0, parent=1),
        _span("estimator.pblocks", 2.5, 3.0, parent=2),
        _span("rates.sinr", 6.0, 7.0, parent=1),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 4.0, 2.5, 0.5, 1.0])


def test_self_time_multi_thread_children_overlap():
    # two pool jobs (threads 2 and 3) overlap each other and the submitter's
    # pool.wait; the submitter's self time counts the covered union once
    spans = [
        _span("experiments.run", 0.0, 10.0, thread=1),
        _span("pool.wait", 2.0, 9.0, parent=0, thread=1),
        _span("experiments._job_sweep_n", 1.0, 6.0, parent=0, thread=2),
        _span("experiments._job_sweep_n", 3.0, 8.5, parent=0, thread=3),
        _span("rates.mrc_moment_coefficients", 4.0, 5.0, parent=2, thread=2),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 7.0, 4.0, 5.5, 1.0])


def test_analyze_buckets_counts_and_accounting():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("experiments.run", 0.5, 9.5, parent=0),
        _span("pool.wait", 1.0, 9.0, parent=1),
        _span("experiments._job_sweep_n", 1.0, 5.0, parent=1, thread=2),
        _span("experiments._job_sweep_n", 1.0, 9.0, parent=1, thread=3),
        _span("estimator.pblocks", 1.0, 2.0, parent=3, thread=2, attrs={"first": True}),
        _span("estimator.pblocks", 6.0, 6.5, parent=4, thread=3, attrs={"first": False}),
        _span("rates.mrc_moment_coefficients", 2.0, 4.0, parent=3, thread=2, attrs={"uses": 7}),
        _span("scenario_gen.drop_users", 5.0, 6.0, parent=4, thread=3),
        _span("experiments.write_rows", 9.1, 9.4, parent=1, attrs={"bytes": 123}),
    ]
    out = tracer.analyze(spans, wall_s=10.0)
    assert out["experiments.pool_wait_s"] == pytest.approx(8.0)
    assert out["estimator.cell_build_s"] == pytest.approx(1.0)
    assert out["estimator.cells_built"] == 1
    assert out["estimator.self_s"] == pytest.approx(0.5)
    assert out["rates.coefficients_s"] == pytest.approx(2.0)
    assert out["rates.coefficients.uses"] == 7
    assert out["scenario_gen.calls"] == 1
    assert out["experiments.jobs"] == 2
    assert out["experiments.csv_bytes"] == 123
    assert out["experiments.write_rows_s"] == pytest.approx(0.3)
    assert out["experiments.concurrency"] == pytest.approx(1.2)
    assert out["cli.self_s"] == pytest.approx(1.0)
    # main thread busy 10 s plus 4 s and 8 s of pool jobs: all of it is
    # attributed to exactly one layer
    assert out["trace.accounted_share"] == pytest.approx(1.0)


def test_reduced_gain_hit_ratio():
    spans = [_span("estimator.reduced_gain", i, i + 0.5, attrs={"key": [1, 0, 0, 0, float(i % 2)]})
             for i in range(4)]
    out = tracer.analyze(spans, wall_s=4.0)
    assert out["estimator.reduced_gain.calls"] == 4
    assert out["estimator.reduced_gain.hit_ratio"] == pytest.approx(0.5)


# -- correctness checks ---------------------------------------------------------------


def test_digits_close_tolerates_twelve_significant_digits():
    assert checks.digits_close(1.00000000001, 1.0)
    assert checks.digits_close(9.99999999999e-3, 1.0e-2)
    assert not checks.digits_close(1.0000000001, 1.0)
    assert not checks.digits_close(float("nan"), 1.0)
    assert checks.digits_close(float("inf"), float("inf"))


def test_reference_check_counts_wrong_missing_and_extra_rows():
    ref = [["a,1,2,0,0,rate", 1.5], ["a,1,2,0,1,rate", 2.5]]

    def row(ue, value):
        return {"experiment": "a", "N": "1", "T": "2", "drop": "0", "ue": str(ue),
                "metric": "rate", "value": repr(value)}

    assert checks.check_reference([row(0, 1.5), row(1, 2.5)], ref) == (2, 0)
    assert checks.check_reference([row(0, 1.5), row(1, 2.5000001)], ref) == (2, 1)
    assert checks.check_reference([row(0, 1.5)], ref) == (2, 1)
    assert checks.check_reference([row(0, 1.5), row(1, 2.5), row(2, 1.0)], ref) == (2, 1)


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_references_cover_every_seed():
    refs = checks.load_references()
    assert sorted(refs) == sorted(w.name for w in spec.WORKLOADS)
    for w in spec.WORKLOADS:
        assert sorted(refs[w.name]) == sorted(str(s) for s in spec.REFERENCE_SEEDS)


# -- tracer coverage on the workloads -----------------------------------------------------

_COMMON = {"cli.main", "experiments.write_rows", "pilots.place", "pilots.dft_book",
           "estimator.build_cache", "rng.substream", "scenario_gen.build_layout",
           "scenario_gen.drop_users", "scenario_gen.link_gains", "scenario_gen.power_control",
           "scenario_gen.make_scenario"}
_CF = _COMMON | {"experiments.run", "experiments.preset", "estimator.pblocks",
                 "rates.mrc_moment_coefficients", "rates.sinr_trajectory_from_coefficients"}
_MC = _COMMON | {"scenario_gen.generate", "montecarlo.estimate_moments",
                 "estimator.psi_inverse", "estimator.reduced_gain",
                 "estimator.apply_reduced_gain", "rng.complex_normal", "channel.draw_phases"}
EXPECTED_SPANS = {
    "cf-fig7": _CF | {"experiments._job_sweep_n", "pool.wait"},
    "mc-mmse": _MC | {"montecarlo.mmse_filter", "estimator.error_covariance"},
}
# smaller values for the same options, so each workload's code paths run fast
SHRINK = {"--drops": {"2": "1"}, "--trials": {"100": "8"}, "--t-stride": {"164": "246"}}


def _shrunk(args):
    args = list(args)
    for i, a in enumerate(args[:-1]):
        args[i + 1] = SHRINK.get(a, {}).get(args[i + 1], args[i + 1])
    return args


@pytest.mark.parametrize("workload", spec.WORKLOADS, ids=lambda w: w.name)
def test_every_wrapped_name_is_called_on_its_workload(workload, tmp_path):
    argv = [*_shrunk(workload.args), "--seed", "0", "--out", str(tmp_path)]
    result, spans_path = tmp_path / "result.json", tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--result", str(result),
         "--trace", str(spans_path), "--", *argv],
        cwd=ROOT, check=True, timeout=300, stdout=subprocess.DEVNULL,
    )
    assert json.loads(result.read_text())["exit_code"] == 0
    called = {rec[0] for rec in json.loads(spans_path.read_text())}
    assert EXPECTED_SPANS[workload.name] <= called
