import contextlib
import dataclasses

import numpy as np
import pytest

from hwmimo import estimator, experiments, montecarlo
from hwmimo.estimator import build_cache
from hwmimo.experiments import (
    ExperimentSpec,
    HardwareVariant,
    PilotSpec,
    RunConfig,
    ScenarioSpec,
    preset,
    run,
)
from hwmimo.model import LoMode
from hwmimo.montecarlo import FilterKind, McConfig, estimate_moments

from conftest import impaired_profile, make_book, random_scenario


def tiny_cfg(**exp_kw):
    return RunConfig(
        name="tiny",
        seed=9,
        scenario=ScenarioSpec(deployments=("distributed",), n_antennas=16,
                              snr_db=5.0, T=40, drops=2),
        hardware=(
            HardwareVariant("ideal", ideal=True),
            HardwareVariant("slo", delta=1e-3, kappa2=1e-4, xi_over_sigma2=1.3, lo=LoMode.SLO),
        ),
        pilots=PilotSpec(books=("dft",), placements=("beginning",), length=8),
        experiment=ExperimentSpec(**exp_kw),
    )


def by_key(rows):
    out = {}
    for (label, n, T, drop, ue, metric, value, _se) in rows:
        out.setdefault((label, metric, n, T), []).append(value)
    return {k: float(np.mean(v)) for k, v in out.items()}


def test_sweep_n_rates_increase_with_n(tmp_path):
    res = run(tiny_cfg(kind="sweep-n", n_grid=(8, 32, 128)), tmp_path)
    means = by_key(res.rows)
    curve = [means[("tiny:distributed:ideal:dft:beginning", "rate", n, 40)] for n in (8, 32, 128)]
    assert curve[0] < curve[1] < curve[2]
    # impaired rates never beat ideal by more than numerical noise at delta>0? not
    # guaranteed pointwise; just check positivity and schema coverage
    assert all(v > 0 for v in means.values())


def test_asymptotics_rows_and_limit_dominance(tmp_path):
    cfg = tiny_cfg(kind="asymptotics", n_grid=(64, 4096, 2**18), include_asymptote=True)
    res = run(cfg, tmp_path)
    means = by_key(res.rows)
    label = "tiny:distributed:ideal:dft:beginning"
    finite = [means[(label, "rate", n, 40)] for n in (64, 4096, 2**18)]
    inf_rate = means[(label, "rate_asymptotic", 0, 40)]
    assert finite[0] < finite[1] < finite[2] <= inf_rate * 1.001
    # the largest finite evaluation approaches the limit
    assert finite[2] == pytest.approx(inf_rate, rel=0.05)


def test_sweep_n_with_asymptote_writes_the_asymptotics_rows(tmp_path):
    grid = dict(n_grid=(8, 64), include_asymptote=True)
    sweep = run(tiny_cfg(kind="sweep-n", **grid), tmp_path / "sweep")
    asym = run(tiny_cfg(kind="asymptotics", **grid), tmp_path / "asym")
    assert any(r[5] == "rate_asymptotic" for r in sweep.rows)
    assert sweep.csv_path.read_bytes() == asym.csv_path.read_bytes()


def test_ideal_variant_keeps_its_oscillator_topology():
    assert HardwareVariant("x", ideal=True, lo=LoMode.SLO).profile(1.0).lo_mode is LoMode.SLO


def test_scaling_kind_rebuilds_hardware_per_n(tmp_path):
    cfg = tiny_cfg(kind="scaling", n_grid=(16, 256, 4096))
    grow = HardwareVariant(
        "grow", delta=7e-5, kappa2=0.05**2, xi_over_sigma2=3.0,
        lo=LoMode.SLO, exponents=(1.0, 0.0, 0.0),
    )
    fixed = HardwareVariant(
        "fixed", delta=7e-5, kappa2=0.05**2, xi_over_sigma2=3.0, lo=LoMode.SLO,
    )
    cfg = dataclasses.replace(cfg, hardware=(fixed, grow))
    means = by_key(run(cfg, tmp_path).rows)
    g = [means[("tiny:distributed:grow:dft:beginning", "rate", n, 40)] for n in (16, 256, 4096)]
    f = [means[("tiny:distributed:fixed:dft:beginning", "rate", n, 40)] for n in (16, 256, 4096)]
    # growing impairments fall behind fixed ones as N grows
    assert g[0] <= f[0] + 1e-12
    assert (f[2] - g[2]) / f[2] > (f[0] - g[0]) / max(f[0], 1e-12)


_GROW = HardwareVariant(
    "grow", delta=7e-5, kappa2=0.05**2, xi_over_sigma2=3.0,
    lo=LoMode.SLO, exponents=(1.0, 0.0, 0.0),
)


def test_every_closed_form_kind_grows_exponent_variants_with_n(tmp_path):
    def rates(kind, **grid):
        cfg = tiny_cfg(kind=kind, **grid)
        cfg = dataclasses.replace(cfg, hardware=(*cfg.hardware, _GROW))
        return {r[:6]: r[6] for r in run(cfg, tmp_path / kind).rows if r[5] == "rate"}

    scaling = rates("scaling", n_grid=(16, 256))
    assert rates("sweep-n", n_grid=(16, 256)) == scaling
    at_16 = {key: v for key, v in scaling.items() if key[1] == 16}
    assert rates("sweep-t", t_grid=(40,)) == at_16


def test_scaling_kind_builds_a_fixed_triple_once_per_book(tmp_path, monkeypatch):
    builds = []
    build = experiments.build_cache
    monkeypatch.setattr(experiments, "build_cache", lambda *a: builds.append(1) or build(*a))
    cfg = tiny_cfg(kind="scaling", n_grid=(16, 64, 256))
    cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(cfg.scenario, drops=1))
    run(cfg, tmp_path / "fixed")
    assert len(builds) == 2  # ideal and slo, one book, one drop; not one per N
    builds.clear()
    run(dataclasses.replace(cfg, hardware=(*cfg.hardware, _GROW)), tmp_path / "grow")
    assert len(builds) == 2 + 3  # the grown triple needs one cache per N


def test_scaling_kind_is_bitwise_equal_at_any_thread_count(tmp_path):
    cfg = tiny_cfg(kind="scaling", n_grid=(16, 256))
    cfg = dataclasses.replace(cfg, hardware=(*cfg.hardware, _GROW))
    csvs = [
        run(cfg, tmp_path / str(t), threads=t).csv_path.read_bytes()
        for t in (1, 2)
    ]
    assert csvs[0] == csvs[1]


def test_sweep_t_uses_t_column(tmp_path):
    cfg = tiny_cfg(kind="sweep-t", t_grid=(20, 40))
    means = by_key(run(cfg, tmp_path).rows)
    r20 = means[("tiny:distributed:ideal:dft:beginning", "rate", 16, 20)]
    r40 = means[("tiny:distributed:ideal:dft:beginning", "rate", 16, 40)]
    # ideal hardware: longer blocks amortize the pilot overhead
    assert r40 > r20


def test_rates_mc_kind(tmp_path):
    cfg = tiny_cfg(kind="rates-mc", trials=400)
    cfg = dataclasses.replace(
        cfg,
        scenario=dataclasses.replace(cfg.scenario, n_antennas=8, drops=1, T=16),
        pilots=PilotSpec(books=("dft",), placements=("beginning",), length=8),
    )
    res = run(cfg, tmp_path)
    metrics = {r[5] for r in res.rows}
    assert metrics == {"rate_mc"}
    assert all(r[6] >= 0 for r in res.rows)


def test_rates_mc_kind_is_bitwise_equal_at_any_thread_count(tmp_path):
    cfg = tiny_cfg(kind="rates-mc", trials=16)
    cfg = dataclasses.replace(
        cfg, scenario=dataclasses.replace(cfg.scenario, n_antennas=8, T=16, drops=3)
    )
    csvs = [
        run(cfg, tmp_path / str(t), threads=t).csv_path.read_bytes()
        for t in (1, 2, 3)
    ]
    assert csvs[0] == csvs[1] == csvs[2]


def test_rates_mc_kind_builds_one_cache_per_variant_and_book(tmp_path, monkeypatch):
    cfg = tiny_cfg(kind="rates-mc", trials=20)
    cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(cfg.scenario, drops=1))
    builds = []
    build = experiments.build_cache
    monkeypatch.setattr(experiments, "build_cache", lambda *a: builds.append(1) or build(*a))
    shared = run(cfg, tmp_path / "shared")
    assert len(builds) == len(cfg.hardware)  # one book, one drop; not one per UE
    assert len({r[4] for r in shared.rows}) > 1

    # the shared cache writes the same bytes as a fresh cache per Monte Carlo pass
    estimate = experiments.estimate_moments
    monkeypatch.setattr(experiments, "estimate_moments", lambda cache, *a: estimate(
        build(cache.scenario, cache.hw, cache.book), *a))
    fresh = run(cfg, tmp_path / "fresh")
    assert fresh.csv_path.read_bytes() == shared.csv_path.read_bytes()


def test_fig_presets_have_expected_shape():
    for name, kind in [("fig7", "sweep-n"), ("fig8", "asymptotics"),
                       ("fig9", "scaling"), ("fig10", "sweep-t")]:
        cfg = preset(name)
        assert cfg.experiment.kind == kind
        assert cfg.name == name
    assert preset("fig9").scenario.snr_db == 15.0
    labels = {h.label for h in preset("fig9").hardware}
    assert any("violating" in x for x in labels)


def test_sweep_t_marks_maximum_rows(tmp_path):
    cfg = tiny_cfg(kind="sweep-t", t_grid=(20, 40, 80))
    rows = run(cfg, tmp_path).rows
    marks = [r for r in rows if r[5] == "rate_max_at_T"]
    labels = {r[0] for r in rows if r[5] == "rate"}
    assert {m[0] for m in marks} == labels
    for m in marks:
        label, n, best_t = m[0], m[1], m[2]
        curve = by_key([r for r in rows if r[5] == "rate" and r[0] == label])
        best_rate = max(curve[(label, "rate", n, T)] for T in (20, 40, 80))
        assert m[6] == pytest.approx(best_rate)
        assert curve[(label, "rate", n, best_t)] == pytest.approx(best_rate)


def _recording_jobs(monkeypatch, get, fail_drop=None):
    """Make the ``sweep-n`` job record the BLAS thread count ``get()`` on
    entry, into the returned list; the job of drop ``fail_drop`` raises."""
    seen = []

    def job(cfg, deployment, drop):
        seen.append(get())
        if drop == fail_drop:
            raise RuntimeError("job failed")
        return experiments._job_sweep_n(cfg, deployment, drop)

    monkeypatch.setitem(experiments._JOBS, "sweep-n", job)
    return seen


@pytest.mark.parametrize("threads", [1, 2])
def test_run_jobs_run_at_one_blas_thread(tmp_path, monkeypatch, fake_blas, threads):
    # serial or pooled, every (deployment, drop) job runs BLAS at one
    # thread, so no idle BLAS worker spins beside it; the count comes back
    seen = _recording_jobs(monkeypatch, fake_blas.get)
    run(tiny_cfg(kind="sweep-n", n_grid=(16,)), tmp_path, threads)
    assert seen == [1, 1] and fake_blas.threads == 8


def test_blas_threads_restored_when_a_job_raises(tmp_path, monkeypatch, fake_blas):
    seen = _recording_jobs(monkeypatch, fake_blas.get, fail_drop=1)
    for threads in (1, 2):
        seen.clear()
        with pytest.raises(RuntimeError, match="job failed"):
            run(tiny_cfg(kind="sweep-n", n_grid=(16,)), tmp_path, threads)
        assert seen == [1, 1] and fake_blas.threads == 8


def test_run_pins_the_live_blas_threads(tmp_path, monkeypatch):
    blas = estimator._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no thread-count control")
    get = blas[0]
    before = get()
    for fail_drop in (None, 1):
        seen = _recording_jobs(monkeypatch, get, fail_drop)
        for threads in (1, 2):
            seen.clear()
            with pytest.raises(RuntimeError) if fail_drop else contextlib.nullcontext():
                run(tiny_cfg(kind="sweep-n", n_grid=(16,)), tmp_path, threads)
            assert seen == [1, 1] and get() == before


def test_fan_out_without_blas_control_gives_the_same_moments(rng, monkeypatch):
    # passes on two pool workers give the same bits whether or not each
    # pass can pin the BLAS threads at one
    scen = random_scenario(rng, L=2, K=2, N=4, T=9, subarrays=2, factorized=True)
    hw = impaired_profile(lo=LoMode.SLO, delta=3e-3, kappa2=0.03)
    cache = build_cache(scen, hw, make_book(scen))
    monkeypatch.setattr(montecarlo, "_CHUNK_TARGET_BYTES", 2**16)  # several chunks
    mc = McConfig(trials=600, seed=42)

    def passes():
        return list(experiments._fan_out(
            lambda kind: estimate_moments(cache, kind, 0, 1, [5, 8], mc), list(FilterKind), 2))

    pinned = passes()
    monkeypatch.setattr(estimator, "_BLAS_THREAD_SYMBOLS", (("no_such_get", "no_such_set"),))
    estimator._blas_threads.cache_clear()
    try:
        assert estimator._blas_threads() is None
        plain = passes()
    finally:
        estimator._blas_threads.cache_clear()
    for a, b in zip(plain, pinned):
        for name in ("norm2", "norm2_se", "first", "first_se", "second", "second_se",
                     "distortion", "distortion_se"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
