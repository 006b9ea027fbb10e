"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s`.

The suite favors fixed seeds everywhere, so every check is deterministic;
statistical tolerances are sized for the configured trial counts.
"""

import dataclasses
import math
import os

import numpy as np
import pytest

from hwmimo.channel import draw_world
from hwmimo.circuits import AdcSpec, LnaSpec, LoSpec, power_scaling_report, profile_from_circuits
from hwmimo.estimator import build_cache, error_covariance
from hwmimo.experiments import preset, run
from hwmimo.model import HardwareProfile, LoMode, Scenario, conventional_profile, expand_covariance
from hwmimo.montecarlo import FilterKind, McConfig, estimate_moments
from hwmimo.pilots import dft_book, place, temporal_book
from hwmimo.rates import (
    ScalingExponents,
    mrc_moment_coefficients,
    scaled_profile,
    sinr_trajectory_from_coefficients,
)

from oracles import (
    asymptotic_sinr,
    conventional_mmse_estimate,
    lmmse_estimate,
    lmmse_estimate_colocated,
    loglog_slope,
    mrc_moments,
    mrc_moments_colocated,
)

THREADS = min(4, os.cpu_count() or 1)


def _criterion(cid: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {cid:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {cid}: {detail}"


def _random_scenario(rng, N, L, K, T, lam_range=(0.2, 2.0), p_range=(0.5, 2.0)):
    cov = rng.uniform(*lam_range, size=(L, L, K, N))
    powers = rng.uniform(*p_range, size=(L, K))
    return Scenario(L=L, K=K, N=N, T=T, cov=cov, powers=powers, sigma2=1.0)


def _book(scenario, kind, B, placement="uniform"):
    pl = place(placement, scenario.T, B)
    if kind == "temporal":
        return temporal_book(scenario.powers, pl)
    return dft_book(scenario.powers, pl)


# -- criterion 1: closed form vs Monte Carlo ------------------------------------


def test_criterion_1_closed_form_vs_monte_carlo():
    rng = np.random.default_rng(101)
    combos = [
        (lo, book, delta, kappa)
        for lo in (LoMode.CLO, LoMode.SLO)
        for book in ("temporal", "dft")
        for delta in (0.0, 1e-3)
        for kappa in (0.0, 0.1)
    ]
    combos += [combos[i % len(combos)] for i in range(max(0, 22 - len(combos)))]
    failures = []
    checked = 0
    for i, (lo, book_kind, delta, kappa) in enumerate(combos):
        N = int(rng.choice([2, 4, 8]))
        L = int(rng.integers(1, 3))
        K = int(rng.integers(1, 3))
        B = K if book_kind == "temporal" else K + int(rng.integers(0, 2))
        T = B + 4
        scen = _random_scenario(rng, N, L, K, T)
        hw = HardwareProfile(delta=delta, kappa2=kappa**2, xi=1.3, lo_mode=lo)
        book = _book(scen, book_kind, B)
        j = int(rng.integers(0, L))
        k = int(rng.integers(0, K))
        t = float(rng.choice(book.data_times()))
        cache = build_cache(scen, hw, book)
        cf = mrc_moments(cache, j, k, t)
        mc = estimate_moments(
            cache, FilterKind.MRC, j, k, [t],
            McConfig(trials=100_000, seed=9000 + i),
        )

        def close(a, b, se):
            return abs(a - b) <= max(0.02 * abs(b), 3.0 * se, 1e-12)

        ok = close(mc.norm2[0], cf.norm2, mc.norm2_se[0])
        ok &= close(mc.first[0].real, cf.first, mc.first_se[0])
        ok &= all(
            close(mc.second[0, l, m], cf.second[l, m], mc.second_se[0, l, m])
            for l in range(L)
            for m in range(K)
        )
        ok &= close(mc.distortion[0], cf.distortion, max(mc.distortion_se[0], 0.0))
        checked += 1
        if not ok:
            failures.append((i, lo.value, book_kind, delta, kappa))
    _criterion(
        1,
        checked >= 20 and not failures,
        f"{checked} scenarios at 1e5 trials, all four moments within max(2%, 3*stderr); "
        f"failures={failures}",
    )


# -- criterion 2: degeneration to the conventional model ------------------------


def test_criterion_2_degeneration():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(5):
        scen = _random_scenario(rng, N=4, L=2, K=2, T=10)
        hw = conventional_profile(scen.sigma2)
        book = _book(scen, "dft", B=2)
        cache = build_cache(scen, hw, book)
        psi = rng.normal(size=4 * 2) + 1j * rng.normal(size=4 * 2)
        for (l, k, t) in [(0, 0, 5), (1, 1, 9)]:
            got = lmmse_estimate(cache, psi, 0, l, k, t).hhat
            want = conventional_mmse_estimate(scen, book, psi, 0, l, k, scen.sigma2)
            worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-30))))
    # drift-free branches must coincide bitwise in the SINR assembly
    scen = _random_scenario(rng, N=4, L=2, K=2, T=10)
    hw = HardwareProfile(delta=0.0, kappa2=0.05, xi=1.3, lo_mode=LoMode.CLO)
    cache = build_cache(scen, hw, _book(scen, "dft", B=2))
    co = mrc_moment_coefficients(cache, 0, 0, [6.0])
    a = sinr_trajectory_from_coefficients(co, scen, hw, 1, LoMode.CLO)
    b = sinr_trajectory_from_coefficients(co, scen, hw, 1, LoMode.SLO)
    branches_equal = all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("sinr", "signal", "interference", "distortion", "noise")
    )
    _criterion(
        2,
        worst <= 1e-10 and branches_equal,
        f"estimator matches independently coded conventional MMSE (worst rel err {worst:.2e}); "
        f"drift-free oscillator branches identical={branches_equal}",
    )


# -- criterion 3: co-located and Kronecker-reduced equivalences ------------------


def test_criterion_3_reduction_equivalences():
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(4):
        # co-located path vs the general solver
        lam = rng.uniform(0.2, 2.0, size=(2, 2, 2, 1))
        scen = Scenario(L=2, K=2, N=5, T=12, cov=lam,
                        powers=rng.uniform(0.5, 2.0, size=(2, 2)), sigma2=1.0, subarrays=1)
        hw = HardwareProfile(delta=3e-3, kappa2=0.04, xi=1.4,
                             lo_mode=LoMode.SLO if trial % 2 else LoMode.CLO)
        book = _book(scen, "dft", B=3)
        cache = build_cache(scen, hw, book)
        psi = rng.normal(size=15) + 1j * rng.normal(size=15)
        for (k, t) in [(0, 4), (1, 12)]:
            a = lmmse_estimate(cache, psi, 0, 0, k, t)
            b = lmmse_estimate_colocated(cache, psi, 0, 0, k, t)
            worst = max(worst, float(np.max(np.abs(a.hhat - b.hhat) / np.maximum(np.abs(a.hhat), 1e-30))))
            ma = mrc_moments(cache, 0, k, t)
            mb = mrc_moments_colocated(cache, 0, k, t)
            worst = max(worst, abs(ma.norm2 - mb.norm2) / ma.norm2)
            worst = max(worst, float(np.max(np.abs(ma.second - mb.second) / ma.second)))
            worst = max(worst, abs(ma.distortion - mb.distortion) / max(ma.distortion, 1e-30))

        # factorized vs expanded covariances
        lam_f = rng.uniform(0.2, 2.0, size=(2, 2, 2, 2))
        powers = rng.uniform(0.5, 2.0, size=(2, 2))
        scen_f = Scenario(L=2, K=2, N=8, T=12, cov=lam_f, powers=powers, sigma2=1.0, subarrays=2)
        scen_d = Scenario(L=2, K=2, N=8, T=12, cov=expand_covariance(lam_f, 8, 2),
                          powers=powers, sigma2=1.0, subarrays=2)
        book = _book(scen_f, "temporal" if trial % 2 else "dft", B=2)
        ca, cb = build_cache(scen_f, hw, book), build_cache(scen_d, hw, book)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        for (k, t) in [(0, 3), (1, 11)]:
            a = lmmse_estimate(ca, psi, 1, 0, k, t)
            b = lmmse_estimate(cb, psi, 1, 0, k, t)
            worst = max(worst, float(np.max(np.abs(a.hhat - b.hhat) / np.maximum(np.abs(b.hhat), 1e-30))))
            ma = mrc_moments(ca, 1, k, t)
            mb = mrc_moments(cb, 1, k, t)
            worst = max(worst, float(np.max(np.abs(ma.second - mb.second) / mb.second)))
    _criterion(3, worst <= 1e-10, f"reduced paths match general path, worst rel err {worst:.2e}")


# -- criterion 4: defining LMMSE properties --------------------------------------


def test_criterion_4_lmmse_properties():
    rng = np.random.default_rng(404)
    cov = rng.uniform(0.2, 1.0, size=(2, 2, 2, 2))
    scen = Scenario(L=2, K=2, N=2, T=8, cov=cov,
                    powers=rng.uniform(0.5, 1.0, size=(2, 2)), sigma2=1.0)
    hw = HardwareProfile(delta=5e-3, kappa2=0.04, xi=1.2, lo_mode=LoMode.SLO)
    book = _book(scen, "dft", B=2)
    cache = build_cache(scen, hw, book)
    j, l, k, t = 0, 1, 1, 6.0
    M = 100_000
    gain = cache.reduced_gain(j, l, k, t)
    cross = np.zeros((scen.N, book.B * scen.N), dtype=complex)
    err_sq = 0.0
    chunk = 10_000
    for ci in range(M // chunk):
        h, rot_ts, psi, _ = next(draw_world(scen, hw, book, j, np.array([t]), ci, chunk,
                                            seed=4040))
        est = cache.apply_reduced_gain(gain, psi)
        err = rot_ts[:, 0, :] * h[:, l, k, :] - est
        cross += err.T @ psi.conj()
        err_sq += float(np.sum(np.abs(err) ** 2))
    cross /= M
    err_sq /= M
    bound = 4.0 / math.sqrt(M)
    resid = float(np.max(np.abs(cross)))
    _, mse = error_covariance(cache, j, l, k, t)
    mse_rel = abs(err_sq - mse) / mse
    _criterion(
        4,
        resid <= bound and mse_rel <= 0.02,
        f"orthogonality residual {resid:.2e} <= {bound:.2e}; empirical MSE within "
        f"{100 * mse_rel:.2f}% of closed form (cap 2%)",
    )


# -- criterion 5: Gaussian fourth-moment identity --------------------------------


def test_criterion_5_fourth_moment_identity():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        lam = rng.uniform(0.2, 2.0, size=n)
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        expected = abs(np.trace(np.diag(lam) @ M)) ** 2 + float(
            np.real(np.trace(np.diag(lam) @ M @ np.diag(lam) @ M.conj().T))
        )
        u = (rng.standard_normal((1_000_000, n)) + 1j * rng.standard_normal((1_000_000, n)))
        u *= np.sqrt(lam / 2.0)
        q = np.abs(np.einsum("sn,nm,sm->s", u.conj(), M, u)) ** 2
        worst = max(worst, abs(float(q.mean()) - expected) / expected)
    _criterion(5, worst <= 0.01, f"10 random pairs at 1e6 samples, worst rel err {100 * worst:.3f}% (cap 1%)")


# -- criteria 6/7/10/11 share preset machinery -----------------------------------


def _mean_rates(rows, metric="rate"):
    acc: dict = {}
    for (label, n, T, drop, ue, m, value, _se) in rows:
        if m != metric:
            continue
        acc.setdefault((label, n, T), []).append(value)
    return {key: float(np.mean(vals)) for key, vals in acc.items()}


@pytest.fixture(scope="module")
def fig7_rows(tmp_path_factory):
    cfg = preset("fig7")
    cfg = dataclasses.replace(cfg, experiment=dataclasses.replace(cfg.experiment, n_grid=(400,)))
    return run(cfg, tmp_path_factory.mktemp("fig7"), THREADS).rows


def test_criterion_6_reference_operating_point(fig7_rows):
    means = _mean_rates(fig7_rows)

    def rate(dep, hw):
        return means[(f"fig7:{dep}:{hw}:dft:beginning", 400, 500)]

    clo_loss = 1.0 - rate("distributed", "impaired-clo") / rate("distributed", "ideal")
    slo_losses = [
        1.0 - rate(dep, "impaired-slo") / rate(dep, "ideal")
        for dep in ("colocated", "distributed")
    ]
    ratios = [
        rate("distributed", "ideal") / rate("colocated", "ideal"),
        rate("distributed", "impaired-slo") / rate("colocated", "impaired-slo"),
    ]
    ok = 0.15 <= clo_loss <= 0.35
    ok &= all(abs(x) <= 0.05 for x in slo_losses)
    ok &= all(1.5 <= r <= 2.5 for r in ratios)
    _criterion(
        6,
        ok,
        f"N=400, 100 drops: common-LO loss {100 * clo_loss:.1f}% (band 15..35), separate-LO "
        f"losses {[f'{100 * x:.1f}%' for x in slo_losses]} (cap 5pp), "
        f"distributed/co-located ratios {[f'{r:.2f}' for r in ratios]} (band 1.5..2.5)",
    )


def test_criterion_7_asymptotics(tmp_path):
    # (a) finite-size deviation from the limit halves with every doubling
    rng = np.random.default_rng(707)
    cov = rng.uniform(0.2, 2.0, size=(2, 2, 2, 2))
    powers = rng.uniform(0.5, 2.0, size=(2, 2))
    hw = HardwareProfile(delta=1e-3, kappa2=0.0025, xi=1.58, lo_mode=LoMode.CLO)
    t = 7.0
    scen = Scenario(L=2, K=2, N=8, T=12, cov=cov, powers=powers, sigma2=1.0, subarrays=2)
    book = _book(scen, "dft", B=2)
    cache = build_cache(scen, hw, book)
    co = mrc_moment_coefficients(cache, 0, 0, [t])
    limit = asymptotic_sinr(cache, j=0, k=0, t=t)
    devs = {}
    for e in range(14, 19):
        traj = sinr_trajectory_from_coefficients(co, scen, hw, 2**e // 2, LoMode.CLO)
        devs[e] = abs(traj.sinr[0] - limit)
    ratios = [devs[e] / devs[e + 1] for e in range(14, 18)]
    ratios_ok = all(1.6 <= r <= 2.4 for r in ratios)

    # (b) reference-hardware loss with a common LO at N = 1e6
    cfg = preset("fig8")
    cfg = dataclasses.replace(
        cfg,
        scenario=dataclasses.replace(cfg.scenario, drops=15),
        pilots=dataclasses.replace(cfg.pilots, books=("dft",)),
        experiment=dataclasses.replace(cfg.experiment, n_grid=(10**6,), include_asymptote=False),
    )
    means = _mean_rates(run(cfg, tmp_path, THREADS).rows)
    ideal = means[("fig8:distributed:ideal:dft:beginning", 10**6, 500)]
    clo = means[("fig8:distributed:impaired-clo:dft:beginning", 10**6, 500)]
    loss = 1.0 - clo / ideal
    loss_ok = 0.40 <= loss <= 0.60
    _criterion(
        7,
        ratios_ok and loss_ok,
        f"deviation halving ratios {[f'{r:.2f}' for r in ratios]} (band 1.6..2.4); "
        f"common-LO loss at N=1e6: {100 * loss:.1f}% (band 40..60)",
    )


def test_criterion_8_scaling_law_limits():
    # contamination-limited factorized scenario (high SNR, shared pilots)
    rng = np.random.default_rng(808)
    cov = rng.uniform(0.2, 2.0, size=(2, 2, 2, 1))
    powers = rng.uniform(20.0, 40.0, size=(2, 2))
    t = 30.0
    book_pl = place("beginning", 60, 2)

    def sinr_at(N, z, lo):
        scen = Scenario(L=2, K=2, N=N, T=60, cov=cov, powers=powers, sigma2=1.0, subarrays=1)
        base = HardwareProfile(delta=7e-5, kappa2=0.05**2, xi=3.0, lo_mode=lo)
        hw = scaled_profile(base, N, ScalingExponents(*z), sigma2=1.0)
        cache = build_cache(scen, hw, dft_book(powers, book_pl))
        co = mrc_moment_coefficients(cache, 0, 0, [t])
        return float(sinr_trajectory_from_coefficients(co, scen, hw, N, lo).sinr[0])

    Ns = [2**e for e in range(4, 21)]
    sat_ok, sat_detail = True, []
    for z, lo in [
        ((0.5, 0.5, 0.0), LoMode.CLO),
        ((0.5, 0.5, 0.0), LoMode.SLO),
        ((0.4, 0.4, 0.5), LoMode.SLO),
    ]:
        vals = [sinr_at(N, z, lo) for N in Ns]
        frac = min(vals) / vals[-1]
        sat_ok &= frac >= 0.5
        sat_detail.append(f"{z}/{lo.value}: min/end={frac:.2f}")
    # violating exponents: z1 = 1 drives the SINR to zero monotonically;
    # exponents are implementer-chosen since the reference gives none exactly
    vio_vals = [sinr_at(N, (1.0, 0.0, 0.0), LoMode.SLO) for N in Ns]
    tail = np.asarray(vio_vals[6:])  # N >= 2^10
    vio_ok = bool(np.all(np.diff(tail) < 0)) and vio_vals[-1] < 0.1 * vio_vals[6]
    _criterion(
        8,
        sat_ok and vio_ok,
        f"satisfied laws keep min SINR >= 0.5*end ({'; '.join(sat_detail)}); violating z1=1 "
        f"decays monotonically past 2^10 with end/2^10 = {vio_vals[-1] / vio_vals[6]:.3f} (< 0.1)",
    )


def test_criterion_9_circuit_round_trip():
    hw = profile_from_circuits(
        AdcSpec(6), LnaSpec.from_db(2.0), LoSpec(2e9, 1e-7, 1e-17), sigma2=1.0
    )
    kappa_err = abs(math.sqrt(hw.kappa2) - 0.0156) / 0.0156
    xi_err = abs(hw.xi - 1.58) / 1.58
    delta_err = abs(hw.delta - 1.58e-4) / 1.58e-4
    ns = [2**e for e in range(2, 16)]
    rows = power_scaling_report(ns, z1=0.5, z2=0.25, z3=1.0, adc_bits=6)
    s1 = loglog_slope(ns, [r["p_adc_total"] for r in rows])
    s2 = loglog_slope(ns, [r["p_lna_total"] for r in rows])
    ok = max(kappa_err, xi_err, delta_err) <= 0.01
    ok &= abs(s1 - 0.5) <= 1e-6 and abs(s2 - 0.75) <= 1e-6
    _criterion(
        9,
        ok,
        f"(kappa, xi, delta) within {100 * max(kappa_err, xi_err, delta_err):.2f}% of "
        f"(0.0156, 1.58, 1.58e-4); power slopes {s1:.8f}/{s2:.8f} vs 0.5/0.75",
    )


@pytest.fixture(scope="module")
def fig10_rows(tmp_path_factory):
    cfg = preset("fig10")
    cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(cfg.scenario, drops=6))
    return run(cfg, tmp_path_factory.mktemp("fig10"), THREADS).rows


def test_criterion_10_coherence_block_maximum(fig10_rows):
    means = _mean_rates(fig10_rows)
    t_grid = preset("fig10").experiment.t_grid

    def curve(hw, placement):
        return [means[(f"fig10:distributed:{hw}:dft:{placement}", 240, T)] for T in t_grid]

    clo = curve("impaired-clo", "beginning")
    slo = curve("impaired-slo", "beginning")
    interior = {
        "clo": 0 < int(np.argmax(clo)) < len(t_grid) - 1,
        "slo": 0 < int(np.argmax(slo)) < len(t_grid) - 1,
    }
    clo_mid = curve("impaired-clo", "middle")
    late = [i for i, T in enumerate(t_grid) if T >= 1000]
    middle_wins = all(clo_mid[i] >= clo[i] for i in late)
    _criterion(
        10,
        all(interior.values()) and middle_wins,
        f"interior rate maxima at T={t_grid[int(np.argmax(clo))]} (common LO) and "
        f"T={t_grid[int(np.argmax(slo))]} (separate LOs); pilots-in-middle >= beginning "
        f"for the common LO at all T >= 1000: {middle_wins}",
    )


def test_criterion_11_thread_count_determinism(tmp_path):
    base = preset("fig10")
    small = dataclasses.replace(
        base,
        scenario=dataclasses.replace(base.scenario, drops=2),
        experiment=dataclasses.replace(base.experiment, t_grid=(40, 80)),
    )
    outs = []
    for threads in (1, 3):
        outs.append(run(small, tmp_path / f"t{threads}", threads).csv_path.read_bytes())
    same = outs[0] == outs[1]
    _criterion(11, same, "preset rerun with 1 vs 3 threads produced byte-identical CSV")
