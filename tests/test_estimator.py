import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from hwmimo import estimator
from hwmimo.channel import draw_world
from hwmimo.estimator import _blas_threads, build_cache, damped_pilot_grams, error_covariance
from hwmimo.model import (
    HardwareProfile,
    LoMode,
    NumericalInvariantError,
    Scenario,
    conventional_profile,
    expand_covariance,
)
from hwmimo.pilots import place, temporal_book
from hwmimo.scenario_gen import generate

from conftest import impaired_profile, make_book, random_scenario
from oracles import conventional_mmse_estimate, full_cov, lmmse_estimate, lmmse_estimate_colocated


# -- independent oracles ------------------------------------------------------


def brute_force_estimate(scen, hw, book, psi_vec, j, l, k, t):
    """Direct dense evaluation of the estimator and its error covariance."""
    B, N = book.B, scen.N
    lam = full_cov(scen)[j]
    grams = damped_pilot_grams(book, hw.delta)
    Psi = hw.xi * np.eye(B * N, dtype=complex)
    for ll in range(scen.L):
        for mm in range(scen.K):
            energy = np.abs(book.sequences[ll, :, mm]) ** 2
            X = grams[ll, mm] + hw.kappa2 * np.diag(energy)
            Psi += np.kron(X, np.diag(lam[ll, mm]))
    tau = np.asarray(book.tau, dtype=float)
    dm = np.exp(-0.5 * hw.delta * np.abs(t - tau))
    left = np.kron((book.sequences[l, :, k].conj() * dm)[None, :], np.diag(lam[l, k]))
    gain = left @ np.linalg.inv(Psi)
    hhat = gain @ psi_vec
    C = np.diag(lam[l, k]) - gain @ left.conj().T
    return hhat, np.real(np.diag(C))


def pilot_observation(scen, hw, book, seed, j=0):
    """One stacked pilot observation of cell j, (B*N,)."""
    return next(draw_world(scen, hw, book, j, np.asarray(book.tau, dtype=float), 0, 1, seed))[2][0]


# -- hand-computed scalar case ------------------------------------------------


def scalar_setup(xi=1.0, p=1.0, lam=1.0, delta=0.0, kappa2=0.0):
    scen = Scenario(
        L=1, K=1, N=1, T=3,
        cov=np.full((1, 1, 1, 1), lam),
        powers=np.full((1, 1), p),
        sigma2=1.0,
    )
    book = temporal_book(scen.powers, place("beginning", scen.T, 1))
    hw = HardwareProfile(delta=delta, kappa2=kappa2, xi=xi)
    return scen, hw, book


def test_scalar_gain_is_half():
    # lam=p=1, xi=1: estimate is psi/2, error covariance 1/2
    scen, hw, book = scalar_setup()
    cache = build_cache(scen, hw, book)
    psi = np.array([0.8 - 0.4j])
    res = lmmse_estimate(cache, psi, 0, 0, 0, t=2)
    np.testing.assert_allclose(res.hhat, psi / 2)
    np.testing.assert_allclose(res.error_diag, [0.5])
    assert res.mse == pytest.approx(0.5)
    # classical single-link MMSE gain lam*sqrt(p)/(p*lam + sigma2)
    assert np.real(res.hhat[0] / psi[0]) == pytest.approx(1.0 * 1.0 / (1.0 + 1.0))


def test_scalar_colocated_path_same_gain():
    scen, hw, book = scalar_setup()
    cache = build_cache(scen, hw, book)
    psi = np.array([1.0 + 0.0j])
    a = lmmse_estimate(cache, psi, 0, 0, 0, t=2)
    b = lmmse_estimate_colocated(cache, psi, 0, 0, 0, t=2)
    np.testing.assert_allclose(a.hhat, b.hhat, rtol=1e-12)
    np.testing.assert_allclose(a.error_diag, b.error_diag, rtol=1e-12)


def test_cache_scalar_pilot_covariance():
    # single UE, one pilot: reduced covariance is p*lam + xi
    scen, hw, book = scalar_setup(xi=1.7, p=2.0, lam=0.5)
    cache = build_cache(scen, hw, book)
    inv = cache.psi_inverse(0)
    assert inv.shape == (1, 1)
    assert inv[0, 0] == pytest.approx(1.0 / (2.0 * 0.5 + 1.7))


# -- structure of the cached matrices ----------------------------------------


def test_damped_grams_hermitian_and_diagonal(rng):
    scen = random_scenario(rng, L=2, K=3, N=2, T=16)
    book = make_book(scen, "dft", "uniform", B=4)
    grams = damped_pilot_grams(book, delta=0.02)
    for l in range(2):
        for k in range(3):
            G = grams[l, k]
            np.testing.assert_allclose(G, G.conj().T, atol=1e-14)
            np.testing.assert_allclose(
                np.diag(G).real, np.abs(book.sequences[l, :, k]) ** 2, atol=1e-14
            )


def test_damped_grams_delta_limits(rng):
    scen = random_scenario(rng, T=40)
    book = make_book(scen, "dft", "uniform", B=4)
    x = book.sequences
    g0 = damped_pilot_grams(book, delta=0.0)
    np.testing.assert_allclose(g0, np.einsum("lbk,lck->lkbc", x, x.conj()), atol=1e-14)
    ginf = damped_pilot_grams(book, delta=1e9)
    off = ginf - np.einsum("lkbc,bc->lkbc", ginf, np.eye(4))
    assert np.max(np.abs(off)) < 1e-300


def test_cache_delta_zero_damping_is_identity(rng):
    scen = random_scenario(rng)
    cache = build_cache(scen, conventional_profile(1.0), make_book(scen))
    np.testing.assert_array_equal(cache.d_delta([5.0])[0], np.ones(cache.B))


def _block_scenario(rng):
    """Four subarrays of two antennas each: Ae = 4 blocks of B = 3 pilots."""
    scen = random_scenario(rng, L=2, K=2, N=8, T=12, factorized=True, subarrays=4)
    return build_cache(scen, impaired_profile(delta=4e-3, kappa2=0.05), make_book(scen, B=3))


def test_pilot_covariance_inverse_is_block_diagonal(rng):
    cache = _block_scenario(rng)
    B, Ae = cache.B, cache.Ae
    for j in range(cache.scenario.L):
        dense = cache.hw.xi * np.eye(B * Ae, dtype=complex)
        for l in range(cache.scenario.L):
            for k in range(cache.scenario.K):
                dense += np.kron(cache.X[l, k], np.diag(cache.lam[j, l, k]))
        inv = cache.psi_inverse(j)
        inv4 = inv.reshape(B, Ae, B, Ae)
        for a in range(Ae):
            for e in range(Ae):
                if a == e:
                    np.testing.assert_array_equal(inv4[:, a, :, a], cache.pblocks(j)[a])
                else:
                    assert not inv4[:, a, :, e].any()
        np.testing.assert_allclose(inv @ dense, np.eye(B * Ae), rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale,reason", [(-10.0, "positive definite"), (np.inf, "not finite")])
def test_bad_pilot_covariance_block_raises(rng, scale, reason):
    # one subarray's block is negative definite (finite) or holds inf/nan
    base = _block_scenario(rng)
    cov = base.lam.copy()
    cov[1, :, :, 2] *= scale
    cache = build_cache(dataclasses.replace(base.scenario, cov=cov), base.hw, base.book)
    with pytest.raises(NumericalInvariantError, match=f"cell 1 .*{reason}"):
        cache.pblocks(1)
    cache.pblocks(0)  # the other cell is unaffected


# -- estimator correctness ----------------------------------------------------


@pytest.mark.parametrize("factorized", [False, True])
@pytest.mark.parametrize("book_kind", ["temporal", "dft"])
def test_estimator_matches_dense_oracle(rng, factorized, book_kind):
    scen = random_scenario(rng, L=2, K=2, N=4, T=14, factorized=factorized, subarrays=2)
    hw = impaired_profile(lo=LoMode.SLO, delta=4e-3, kappa2=0.05, xi=1.4)
    book = make_book(scen, book_kind, "uniform")
    cache = build_cache(scen, hw, book)
    psi = pilot_observation(scen, hw, book, seed=17, j=1)
    for (l, k, t) in [(0, 0, 3), (1, 1, 9), (0, 1, 14)]:
        got = lmmse_estimate(cache, psi, 1, l, k, t)
        want_h, want_c = brute_force_estimate(scen, hw, book, psi, 1, l, k, t)
        np.testing.assert_allclose(got.hhat, want_h, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got.error_diag, want_c, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("subarrays", [1, 3])
def test_stacked_gains_apply_as_per_link_estimates(rng, subarrays):
    # the MMSE path applies all L*K reduced gains in one product: stacked row
    # (lk, a) lands on antenna lk*N + a*mult + r, so the flat result reshapes
    # to (size, L, K, N); Ae = 1 is the co-located case, Ae = 3 has mult 2
    scen = random_scenario(rng, L=2, K=3, N=6, T=10, subarrays=subarrays, factorized=True)
    hw = impaired_profile(lo=LoMode.SLO, delta=4e-3, kappa2=0.05, xi=1.4)
    book = make_book(scen)
    cache = build_cache(scen, hw, book)
    assert cache.Ae == subarrays
    size, t = 5, 7
    _, _, psi = next(draw_world(scen, hw, book, 1, np.array([float(t)]), 0, size, seed=21))
    links = [(l, k) for l in range(scen.L) for k in range(scen.K)]
    gains = [cache.reduced_gain(1, l, k, t) for l, k in links]
    stacked = cache.apply_reduced_gain(np.concatenate(gains), psi)
    stacked = stacked.reshape(size, scen.L, scen.K, scen.N)
    for (l, k), gain in zip(links, gains):
        np.testing.assert_allclose(stacked[:, l, k], cache.apply_reduced_gain(gain, psi), rtol=1e-12)
        want_h, _ = brute_force_estimate(scen, hw, book, psi[0], 1, l, k, t)
        np.testing.assert_allclose(stacked[0, l, k], want_h, rtol=1e-10, atol=1e-12)


def test_degenerates_to_conventional_mmse(rng):
    scen = random_scenario(rng, L=2, K=2, N=3, T=10)
    hw = conventional_profile(scen.sigma2)
    book = make_book(scen, "dft")
    cache = build_cache(scen, hw, book)
    psi = pilot_observation(scen, hw, book, seed=3)
    for (l, k) in [(0, 0), (1, 1)]:
        got = lmmse_estimate(cache, psi, 0, l, k, t=7)
        want = conventional_mmse_estimate(scen, book, psi, 0, l, k, scen.sigma2)
        np.testing.assert_allclose(got.hhat, want, rtol=1e-10, atol=1e-13)


def test_colocated_matches_general_path(rng):
    scen = random_scenario(rng, L=2, K=2, N=6, T=12, factorized=True, subarrays=1)
    hw = impaired_profile(lo=LoMode.CLO, delta=2e-3, kappa2=0.02)
    book = make_book(scen, "dft")
    cache = build_cache(scen, hw, book)
    psi = pilot_observation(scen, hw, book, seed=8)
    for (l, k, t) in [(0, 0, 4), (1, 0, 11)]:
        a = lmmse_estimate(cache, psi, 0, l, k, t)
        b = lmmse_estimate_colocated(cache, psi, 0, l, k, t)
        np.testing.assert_allclose(b.hhat, a.hhat, rtol=1e-10)
        np.testing.assert_allclose(b.error_diag, a.error_diag, rtol=1e-10)
        # scaled-identity error covariance: constant diagonal
        assert np.ptp(b.error_diag) == 0.0


def test_colocated_rejects_general_covariance(rng):
    scen = random_scenario(rng, N=4)
    cache = build_cache(scen, impaired_profile(), make_book(scen))
    with pytest.raises(ValueError):
        lmmse_estimate_colocated(cache, np.zeros(cache.B * 4, complex), 0, 0, 0, 2)


def test_kronecker_reduction_equals_full_solve(rng):
    # same physical scenario described factorized and expanded
    scen_f = random_scenario(rng, L=2, K=2, N=8, T=12, factorized=True, subarrays=2)
    full = expand_covariance(scen_f.cov, scen_f.N, 2)
    scen_d = Scenario(
        L=2, K=2, N=8, T=12, cov=full, powers=scen_f.powers, sigma2=1.0, subarrays=2
    )
    hw = impaired_profile(lo=LoMode.SLO, delta=3e-3, kappa2=0.04)
    book = make_book(scen_f, "dft", "uniform")
    cache_f = build_cache(scen_f, hw, book)
    cache_d = build_cache(scen_d, hw, book)
    psi = pilot_observation(scen_d, hw, book, seed=21)
    for (l, k, t) in [(0, 1, 2), (1, 0, 12)]:
        a = lmmse_estimate(cache_f, psi, 0, l, k, t)
        b = lmmse_estimate(cache_d, psi, 0, l, k, t)
        np.testing.assert_allclose(a.hhat, b.hhat, rtol=1e-10)
        np.testing.assert_allclose(a.error_diag, b.error_diag, rtol=1e-10)
        assert a.mse == pytest.approx(b.mse, rel=1e-10)


def test_estimate_vanishes_far_from_pilots(rng):
    scen = random_scenario(rng, T=2000)
    hw = impaired_profile(delta=0.5)  # heavy drift
    book = make_book(scen, "dft", "beginning")
    cache = build_cache(scen, hw, book)
    psi = pilot_observation(scen, hw, book, seed=6)
    res = lmmse_estimate(cache, psi, 0, 0, 0, t=1900)
    assert np.max(np.abs(res.hhat)) < 1e-12
    lam = full_cov(scen)[0, 0, 0]
    np.testing.assert_allclose(res.error_diag, lam, rtol=1e-10)


def test_error_covariance_bounded_by_prior(rng):
    scen = random_scenario(rng, L=2, K=2, N=4, T=20)
    hw = impaired_profile(delta=1e-2, kappa2=0.1)
    cache = build_cache(scen, hw, make_book(scen, "dft", "uniform"))
    lam = full_cov(scen)
    for t in [1, 7, 20]:
        for (l, k) in [(0, 0), (1, 1)]:
            diag, mse = error_covariance(cache, 0, l, k, t)
            assert np.all(diag >= -1e-12)
            assert np.all(diag <= lam[0, l, k] + 1e-12)
            assert mse == pytest.approx(diag.sum())


def test_mse_grows_with_distance_past_last_pilot(rng):
    scen = random_scenario(rng, T=60)
    hw = impaired_profile(delta=5e-2)
    cache = build_cache(scen, hw, make_book(scen, "dft", "beginning"))
    mses = [error_covariance(cache, 0, 0, 0, t)[1] for t in range(3, 61)]
    assert np.all(np.diff(mses) >= -1e-12)


def test_estimation_statistics_monte_carlo(rng):
    # light-weight check of the defining LMMSE properties; the full-accuracy
    # version runs in the acceptance suite
    scen = random_scenario(rng, L=2, K=2, N=2, T=8)
    hw = impaired_profile(lo=LoMode.SLO, delta=5e-3, kappa2=0.05)
    book = make_book(scen, "dft")
    cache = build_cache(scen, hw, book)
    t, l, k = 6, 0, 1
    M = 4000
    h, rot_ts, psi = next(draw_world(scen, hw, book, 0, np.array([float(t)]), 0, M, seed=55))
    est = cache.apply_reduced_gain(cache.reduced_gain(0, l, k, t), psi)
    err = rot_ts[:, 0, :] * h[:, l, k, :] - est
    err_sq = np.sum(np.abs(err) ** 2)
    cross = err.T @ psi.conj()
    _, mse = error_covariance(cache, 0, l, k, t)
    assert err_sq / M == pytest.approx(mse, rel=0.08)
    assert np.max(np.abs(cross / M)) < 10 / np.sqrt(M)


def test_estimation_mse_matches_for_common_oscillator(rng):
    # the estimator (and its closed-form MSE) is oscillator-topology
    # independent; verify empirically under a common LO as well
    scen = random_scenario(rng, L=2, K=2, N=2, T=8)
    hw = impaired_profile(lo=LoMode.CLO, delta=5e-3, kappa2=0.05)
    book = make_book(scen, "dft")
    cache = build_cache(scen, hw, book)
    t, l, k = 6, 1, 0
    M = 4000
    h, rot_ts, psi = next(draw_world(scen, hw, book, 0, np.array([float(t)]), 0, M, seed=66))
    est = cache.apply_reduced_gain(cache.reduced_gain(0, l, k, t), psi)
    err_sq = np.sum(np.abs(rot_ts[:, 0, :] * h[:, l, k, :] - est) ** 2)
    _, mse = error_covariance(cache, 0, l, k, t)
    assert err_sq / M == pytest.approx(mse, rel=0.08)


def test_cell_build_bitwise_equal_at_any_blas_thread_count():
    # LAPACK's cholesky and inv return other last bits at other BLAS thread
    # counts from n = 64 on, so the cell build runs them at one thread: a
    # cell of B = 64 pilots factors to the same bits at any count
    blas = _blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no thread-count control")
    get, put = blas
    scen = generate("colocated", N=64, snr_db=5.0, T=500, seed=0)
    hw = HardwareProfile(delta=1.58e-4, kappa2=2.4336e-4, xi=1.58 * scen.sigma2,
                         lo_mode=LoMode.SLO)
    book = make_book(scen, B=64)
    before = get()
    blocks = []
    try:
        for n in (1, 2):
            put(n)
            blocks.append(build_cache(scen, hw, book).pblocks(12))
            assert get() == n
    finally:
        put(before)
    assert blocks[0].shape == (1, 64, 64)
    np.testing.assert_array_equal(blocks[0], blocks[1])


def test_overlapping_one_thread_blocks_hold_one_thread_and_restore(monkeypatch):
    # pool workers pin concurrently: inside every block the count is 1, and
    # the last block out restores the count the first one replaced
    count = [6]
    monkeypatch.setattr(estimator, "_blas_threads",
                        lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
    seen = []

    def worker():
        for _ in range(300):
            with estimator._one_blas_thread():
                time.sleep(0)  # let the other workers in
                seen.append(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(seen) == 8 * 300 and set(seen) == {1}
    assert count[0] == 6
