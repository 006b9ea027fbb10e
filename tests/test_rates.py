import dataclasses
import math

import numpy as np
import pytest

from hwmimo.estimator import build_cache, damped_pilot_grams
from hwmimo.experiments import (
    REFERENCE_DELTA,
    REFERENCE_KAPPA,
    REFERENCE_XI_OVER_SIGMA2,
    _drop_scenario,
    _serving_cell,
    _trajectories,
    preset,
)
from hwmimo.model import HardwareProfile, LoMode, Scenario, conventional_profile, expand_covariance
from hwmimo.montecarlo import McMoments, _rate_from_means
from hwmimo.pilots import PlacementKind, place, temporal_book
from hwmimo.rates import (
    MomentCoefficients,
    NumericalInvariantError,
    _coefficient_parts,
    _separable_parts,
    _sinr_from_moments,
    ScalingExponents,
    check_scaling_law,
    ergodic_rate,
    mrc_moment_coefficients,
    scaled_profile,
    sinr_trajectory_from_coefficients,
)

from conftest import (
    assert_separable_matches_direct,
    assert_ue_axis_matches_per_ue,
    impaired_profile,
    make_book,
    random_scenario,
)
from oracles import (
    asymptotic_sinr,
    full_cov,
    mrc_moments,
    mrc_moments_colocated,
    sinr_trajectory,
    ue_rate,
)


# -- dense closed-form oracle (explicit Kronecker products, no reductions) ----


def dense_mrc_moments(scen, hw, book, j, k, t, lo):
    N, B, L, K = scen.N, book.B, scen.L, scen.K
    lam = full_cov(scen)[j]  # (L, K, N)
    grams = damped_pilot_grams(book, hw.delta)
    Psi = hw.xi * np.eye(B * N, dtype=complex)
    Xs = np.empty((L, K, B, B), dtype=complex)
    for l in range(L):
        for m in range(K):
            Xs[l, m] = grams[l, m] + hw.kappa2 * np.diag(np.abs(book.sequences[l, :, m]) ** 2)
            Psi += np.kron(Xs[l, m], np.diag(lam[l, m]))
    Pinv = np.linalg.inv(Psi)
    tau = np.asarray(book.tau, dtype=float)
    dm = np.exp(-0.5 * hw.delta * np.abs(t - tau))
    xjk = book.sequences[j, :, k]
    left = np.kron((xjk.conj() * dm)[None, :], np.diag(lam[j, k]))  # (N, BN)
    A = left @ Pinv
    F = A @ left.conj().T
    e21 = float(np.real(np.trace(F)))
    eyeN = np.eye(N)
    u = [Pinv @ np.kron(dm * xjk, eyeN[n]) for n in range(N)]
    e23 = np.empty((L, K))
    e24 = 0.0
    for l in range(L):
        for m in range(K):
            lm = lam[l, m]
            xlm = book.sequences[l, :, m]
            dmx = dm * xlm
            first = float(np.real(np.trace(np.diag(lm) @ F)))
            if lo is LoMode.CLO:
                pc = 0.0
                for n1 in range(N):
                    for n2 in range(N):
                        mid = np.kron(grams[l, m], np.outer(eyeN[n1], eyeN[n2]))
                        w = lam[j, k][n1] * lm[n1] * lam[j, k][n2] * lm[n2]
                        pc += w * np.real(u[n1].conj() @ mid @ u[n2])
                extra = 0.0
                for n in range(N):
                    mid = np.kron(
                        hw.kappa2 * np.diag(np.abs(xlm) ** 2), np.outer(eyeN[n], eyeN[n])
                    )
                    extra += (lam[j, k][n] * lm[n]) ** 2 * np.real(u[n].conj() @ mid @ u[n])
            else:
                right = np.kron(dmx[:, None], np.diag(lm))
                pc = abs(np.trace(A @ right)) ** 2
                extra = 0.0
                for n in range(N):
                    mid = np.kron(Xs[l, m] - np.outer(dmx, dmx.conj()), np.outer(eyeN[n], eyeN[n]))
                    extra += (lam[j, k][n] * lm[n]) ** 2 * np.real(u[n].conj() @ mid @ u[n])
            e23[l, m] = first + pc + extra
            dist_extra = 0.0
            for n in range(N):
                mid = np.kron(Xs[l, m], np.outer(eyeN[n], eyeN[n]))
                dist_extra += (lam[j, k][n] * lm[n]) ** 2 * np.real(u[n].conj() @ mid @ u[n])
            e24 += scen.powers[l, m] * (first + dist_extra)
    return e21, e23, hw.kappa2 * e24


@pytest.mark.parametrize("lo", [LoMode.CLO, LoMode.SLO])
@pytest.mark.parametrize("book_kind", ["temporal", "dft"])
def test_moments_match_dense_oracle(rng, lo, book_kind):
    scen = random_scenario(rng, L=2, K=2, N=3, T=12)
    hw = impaired_profile(lo=lo, delta=3e-3, kappa2=0.07, xi=1.5)
    book = make_book(scen, book_kind, "uniform")
    cache = build_cache(scen, hw, book)
    for (j, k, t) in [(0, 0, 5), (1, 1, 12)]:
        got = mrc_moments(cache, j, k, t)
        e21, e23, e24 = dense_mrc_moments(scen, hw, book, j, k, t, lo)
        assert got.norm2 == pytest.approx(e21, rel=1e-10)
        assert got.first == pytest.approx(e21, rel=1e-10)
        np.testing.assert_allclose(got.second, e23, rtol=1e-10)
        assert got.distortion == pytest.approx(e24, rel=1e-10, abs=1e-14)


def test_moments_match_dense_oracle_factorized(rng):
    scen = random_scenario(rng, L=2, K=2, N=6, T=10, factorized=True, subarrays=3)
    hw = impaired_profile(lo=LoMode.SLO, delta=2e-3, kappa2=0.03)
    book = make_book(scen, "dft")
    cache = build_cache(scen, hw, book)
    got = mrc_moments(cache, 1, 0, 7)
    e21, e23, e24 = dense_mrc_moments(scen, hw, book, 1, 0, 7, LoMode.SLO)
    assert got.norm2 == pytest.approx(e21, rel=1e-10)
    np.testing.assert_allclose(got.second, e23, rtol=1e-10)
    assert got.distortion == pytest.approx(e24, rel=1e-10)


def test_first_moment_equals_filter_energy(rng):
    for _ in range(5):
        scen = random_scenario(rng, L=2, K=2, N=4, T=10)
        cache = build_cache(scen, impaired_profile(delta=rng.uniform(0, 0.01)), make_book(scen))
        m = mrc_moments(cache, 0, 1, 4)
        assert m.first == m.norm2


def test_clo_slo_identical_without_drift(rng):
    scen = random_scenario(rng, L=2, K=2, N=4, T=10)
    hw = HardwareProfile(delta=0.0, kappa2=0.05, xi=1.2, lo_mode=LoMode.CLO)
    cache = build_cache(scen, hw, make_book(scen, "dft"))
    co = mrc_moment_coefficients(cache, 0, 0, [4.0, 9.0])
    # bitwise equality of the two branches
    assert np.array_equal(co.lin_clo, co.lin_slo)
    assert np.array_equal(co.quad_clo, co.quad_slo)
    assert np.array_equal(co.quad_clo_unit, co.quad_slo_unit)
    for t in co.ts:
        clo, slo = (mrc_moments(cache, 0, 0, t, lo) for lo in (LoMode.CLO, LoMode.SLO))
        assert np.array_equal(clo.second, slo.second)
    s_a = sinr_trajectory_from_coefficients(co, scen, hw, cache.mult, LoMode.CLO)
    s_b = sinr_trajectory_from_coefficients(co, scen, hw, cache.mult, LoMode.SLO)
    np.testing.assert_array_equal(s_a.sinr, s_b.sinr)
    np.testing.assert_array_equal(s_a.signal, s_b.signal)
    np.testing.assert_array_equal(s_a.noise, s_b.noise)
    np.testing.assert_array_equal(s_a.interference, s_b.interference)


def test_distortion_zero_without_kappa(rng):
    scen = random_scenario(rng)
    hw = HardwareProfile(delta=1e-3, kappa2=0.0, xi=1.4, lo_mode=LoMode.SLO)
    cache = build_cache(scen, hw, make_book(scen))
    m = mrc_moments(cache, 0, 0, 5)
    assert m.distortion == 0.0
    assert sinr_trajectory(cache, 0, 0, [5]).distortion[0] == 0.0


def test_own_second_moment_dominates_mean_square(rng):
    for _ in range(5):
        scen = random_scenario(rng, L=2, K=2, N=4, T=10)
        hw = impaired_profile(delta=rng.uniform(0, 5e-3), kappa2=rng.uniform(0, 0.1))
        cache = build_cache(scen, hw, make_book(scen, "dft"))
        m = mrc_moments(cache, 1, 1, 6)
        assert m.second[1, 1] >= m.first**2 - 1e-12


# -- co-located corollary ------------------------------------------------------


@pytest.mark.parametrize("lo", [LoMode.CLO, LoMode.SLO])
def test_colocated_matches_general(rng, lo):
    scen = random_scenario(rng, L=2, K=2, N=5, T=12, factorized=True, subarrays=1)
    hw = impaired_profile(lo=lo, delta=4e-3, kappa2=0.06)
    cache = build_cache(scen, hw, make_book(scen, "dft"))
    for (k, t) in [(0, 3), (1, 10)]:
        a = mrc_moments(cache, 0, k, t)
        b = mrc_moments_colocated(cache, 0, k, t)
        assert b.norm2 == pytest.approx(a.norm2, rel=1e-10)
        np.testing.assert_allclose(b.second, a.second, rtol=1e-10)
        assert b.distortion == pytest.approx(a.distortion, rel=1e-10)


def test_colocated_filter_energy_linear_in_n(rng):
    base = random_scenario(rng, L=2, K=2, N=4, T=10, factorized=True, subarrays=1)
    hw = impaired_profile(lo=LoMode.CLO, delta=1e-3)
    book = make_book(base, "dft")
    m4 = mrc_moments_colocated(build_cache(base, hw, book), 0, 0, 5)
    doubled = Scenario(
        L=2, K=2, N=8, T=10, cov=base.cov, powers=base.powers, sigma2=1.0, subarrays=1
    )
    m8 = mrc_moments_colocated(build_cache(doubled, hw, book), 0, 0, 5)
    assert m8.norm2 == pytest.approx(2 * m4.norm2, rel=1e-12)


def test_kronecker_reduction_moments_equal_full(rng):
    scen_f = random_scenario(rng, L=2, K=2, N=8, T=12, factorized=True, subarrays=2)
    scen_d = Scenario(
        L=2, K=2, N=8, T=12,
        cov=expand_covariance(scen_f.cov, 8, 2),
        powers=scen_f.powers, sigma2=1.0, subarrays=2,
    )
    hw = impaired_profile(lo=LoMode.CLO, delta=2e-3, kappa2=0.08)
    book = make_book(scen_f, "dft", "uniform")
    for (k, t, lo) in [(0, 4, LoMode.CLO), (1, 11, LoMode.SLO)]:
        a = mrc_moments(build_cache(scen_f, hw, book), 0, k, t, lo)
        b = mrc_moments(build_cache(scen_d, hw, book), 0, k, t, lo)
        assert a.norm2 == pytest.approx(b.norm2, rel=1e-10)
        np.testing.assert_allclose(a.second, b.second, rtol=1e-10)
        assert a.distortion == pytest.approx(b.distortion, rel=1e-10)


# -- SINR assembly and rates ---------------------------------------------------


def test_sinr_single_active_ue(rng):
    # only UE (0,0) transmits; closed-form ratio assembled by hand
    cov = rng.uniform(0.5, 1.5, size=(1, 1, 1, 4))
    scen = Scenario(L=1, K=1, N=4, T=10, cov=cov, powers=np.array([[1.7]]), sigma2=1.0)
    hw = conventional_profile(1.0)
    cache = build_cache(scen, hw, make_book(scen, "temporal"))
    m = mrc_moments(cache, 0, 0, 5)
    traj = sinr_trajectory(cache, 0, 0, [5])
    p = 1.7
    expected = p * m.first**2 / (p * (m.second[0, 0] - m.first**2) + 1.0 * m.norm2)
    assert traj.sinr[0] == pytest.approx(expected, rel=1e-12)
    assert traj.noise[0] > 0 and traj.distortion[0] == 0.0


def test_sinr_denominator_dominated_by_noise_floor(rng):
    scen = random_scenario(rng)
    hw = impaired_profile()
    cache = build_cache(scen, hw, make_book(scen))
    traj = sinr_trajectory(cache, 0, 0, [6])
    den = traj.interference[0] - traj.signal[0] + traj.distortion[0] + traj.noise[0]
    assert den >= traj.noise[0] > 0


@pytest.mark.parametrize("deployment", ["colocated", "distributed"])
def test_separable_pass_matches_direct_evaluation(deployment):
    # the fig7 drop-0 networks with every placement and book, from the
    # reference drift to damping that underflows a few uses from a pilot
    fig7 = preset("fig7")
    scen = _drop_scenario(fig7.scenario, deployment, fig7.seed, 0)
    j = _serving_cell(scen)
    case = 0
    for placement in PlacementKind:
        for kind in ("dft", "temporal"):
            book = make_book(scen, kind, placement, B=8)
            ts = np.asarray(book.data_times(), dtype=float)[::4]
            for delta in (1.58e-4, 1e-2, 0.3, 50.0):
                hw = impaired_profile(
                    delta=delta, kappa2=REFERENCE_KAPPA**2, xi=REFERENCE_XI_OVER_SIGMA2,
                    sigma2=scen.sigma2,
                )
                cache = build_cache(scen, hw, book)
                assert_separable_matches_direct(cache, j, case % scen.K, ts)
                case += 1


@pytest.mark.parametrize("deployment", ["colocated", "distributed"])
@pytest.mark.parametrize("placement", ["beginning", "middle"])
@pytest.mark.parametrize("delta", [0.0, REFERENCE_DELTA, 0.3])
def test_ue_axis_matches_per_ue_passes(deployment, placement, delta):
    # one pass over the UEs of the serving cell of a fig7 network, with
    # one-sided and (middle placement) two-sided gaps, against a pass per
    # UE; then the rates that experiments assembles from it
    fig7 = preset("fig7")
    scen = _drop_scenario(fig7.scenario, deployment, fig7.seed, 0)
    j = _serving_cell(scen)
    hw = impaired_profile(
        delta=delta, kappa2=REFERENCE_KAPPA**2, xi=REFERENCE_XI_OVER_SIGMA2, sigma2=scen.sigma2
    )
    cache = build_cache(scen, hw, make_book(scen, "dft", placement, B=8))
    ts = np.asarray(cache.book.data_times(), dtype=float)
    for uses in (ts, ts[:0]):
        assert_ue_axis_matches_per_ue(cache, j, uses, mults=(cache.mult, 10**6))
    seen = 0
    for k, lo, i, traj, rate in _trajectories(cache, j, list(LoMode), (scen.N,)):
        want = ue_rate(cache, j, k, lo)
        assert i == 0 and rate == want.rate and np.array_equal(traj.sinr, want.sinr), (k, lo)
        seen += 1
    assert seen == scen.K * len(LoMode)


def test_ue_axis_keeps_scalar_shapes(rng):
    # a scalar UE index gives (nt,) fields; an index array puts its own
    # shape in front, in its order
    scen = random_scenario(rng, L=2, K=3, N=4, T=14)
    cache = build_cache(scen, impaired_profile(delta=0.05), make_book(scen, "dft", "middle", B=4))
    ts = np.asarray(cache.book.data_times(), dtype=float)
    scalar = mrc_moment_coefficients(cache, 1, 2, ts)
    batch = mrc_moment_coefficients(cache, 1, np.array([2, 0]), ts)
    for field in ("c_norm", "scale", "lin_clo", "quad_slo_unit"):
        assert getattr(scalar, field).shape == ts.shape
        assert getattr(batch, field).shape == (2, ts.size)
        assert np.array_equal(getattr(batch, field)[0], getattr(scalar, field)), field
    traj = sinr_trajectory_from_coefficients(batch, scen, cache.hw, 1)
    assert traj.sinr.shape == (2, ts.size) and traj.ue(0).sinr.shape == ts.shape


@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_block_without_data_uses(rng, delta):
    scen = random_scenario(rng, T=4)
    cache = build_cache(scen, impaired_profile(delta=delta), make_book(scen, "dft", B=4))
    co = mrc_moment_coefficients(cache, 0, 0, [])
    assert co.c_norm.shape == (0,) and co.quad_slo_unit.shape == (0,)
    assert ue_rate(cache, 0, 0).rate == 0.0


@pytest.mark.parametrize("placement", ["beginning", "middle"])
@pytest.mark.parametrize("delta", [0.0, 0.05])
def test_coefficients_are_per_use_power_sums(rng, placement, delta):
    # every coefficient field is one value per channel use, however many
    # links; the rate from them equals the rate from the per-link moments
    # of the direct evaluation at each data use
    scen = random_scenario(rng, L=2, K=4, N=4, T=24, factorized=True, subarrays=2)
    hw = impaired_profile(lo=LoMode.SLO, delta=delta, kappa2=0.03)
    book = make_book(scen, "dft", placement, B=5)
    cache = build_cache(scen, hw, book)
    ts = np.asarray(book.data_times(), dtype=float)
    co = mrc_moment_coefficients(cache, 1, 2, ts)
    for field in dataclasses.fields(co):
        value = getattr(co, field.name)
        if isinstance(value, np.ndarray):
            assert value.shape == ts.shape, field.name
    for lo in LoMode:
        m = [mrc_moments(cache, 1, 2, t, lo) for t in ts]
        norm2 = np.array([x.norm2 for x in m])
        inter = np.einsum("lk,tlk->t", scen.powers, np.array([x.second for x in m]))
        traj = _sinr_from_moments(
            scen, hw.xi, 1, 2, ts, norm2, norm2, inter, np.array([x.distortion for x in m])
        )
        want = ergodic_rate(traj.sinr, scen.T, book.B)
        assert ue_rate(cache, 1, 2, lo).rate == pytest.approx(want, rel=1e-12, abs=0)


def test_third_clo_is_linear_in_kappa2(rng):
    # X - Xbar = kappa2 diag(|pilot|^2): third_clo is kappa2 times a form
    # that depends on kappa2 only through the pilot covariance inverse; per
    # link at d(t), and summed over links by the per-gap pass
    scen = random_scenario(rng, L=2, K=2, N=4, T=12)
    book = make_book(scen, "dft", "uniform", B=3)
    ts = np.asarray(book.data_times(), dtype=float)
    third = []
    for kap in (1e-12, 2e-12):
        cache = build_cache(scen, impaired_profile(lo=LoMode.CLO, delta=1e-2, kappa2=kap), book)
        d = cache.d_delta(ts)
        per_link = _coefficient_parts(cache, 0, 0, d, d)[0]["third_clo"]
        third.append(np.concatenate([
            per_link.ravel(), _separable_parts(cache, 0, 0, ts)["third_clo"]
        ]))
    np.testing.assert_allclose(third[1] / third[0], 2.0, rtol=1e-9, atol=0)


def _one_link(T=4):
    scen = Scenario(L=1, K=1, N=1, T=T, cov=np.ones((1, 1, 1, 1)), powers=np.ones((1, 1)),
                    sigma2=1.0)
    return scen, HardwareProfile(delta=0.0, kappa2=0.0, xi=1.0, lo_mode=LoMode.CLO)


@pytest.mark.parametrize("ratio", [0.5, 2.0], ids=["above-floor", "below-floor"])
def test_exact_moment_denominator_floor(ratio):
    # c = E||v||^2 = E{v^H h} = 3 and xi = 1, so the denominator is
    # second - c^2 + c; second is set so that it equals ratio times the
    # exact-moment floor -1e-9 (second + c)
    scen, hw = _one_link()
    c, eps = 3.0, ratio * 1e-9
    second = c**2 / (1 + eps) - c
    zero = np.zeros(1)
    co = MomentCoefficients(
        j=0, k=0, ts=np.array([2.0]), c_norm=np.array([c]), c_dist=zero, scale=np.ones(1),
        c_norm_unit=np.array([c]), lin_clo=np.array([second]), lin_slo=np.array([second]),
        quad_clo=zero, quad_slo=zero, quad_clo_unit=zero, quad_slo_unit=zero,
    )
    if ratio < 1:
        assert sinr_trajectory_from_coefficients(co, scen, hw, 1).sinr[0] == math.inf
    else:
        with pytest.raises(NumericalInvariantError, match="t=2.0"):
            sinr_trajectory_from_coefficients(co, scen, hw, 1)


@pytest.mark.parametrize("ratio", [0.5, 2.0], ids=["above-floor", "below-floor"])
def test_sampled_moment_denominator_floor(ratio):
    # signal |first|^2 = 4, no noise or distortion: the denominator is
    # second - 4; second is set so that it equals ratio times the sampled
    # floor -3 (second + 4) / sqrt(trials) = -0.3 (second + 4)
    scen, hw = _one_link()
    book = make_book(scen, "temporal")
    f = 0.3 * ratio
    second = 4.0 * (1 - f) / (1 + f)
    m = McMoments(
        trials=100, ts=np.array([3.0]), norm2=np.zeros(1), norm2_se=np.zeros(1),
        first=np.array([2.0j]), first_se=np.zeros(1), second=np.full((1, 1, 1), second),
        second_se=np.zeros((1, 1, 1)), distortion=np.zeros(1), distortion_se=np.zeros(1),
    )
    if ratio < 1:
        rate, traj = _rate_from_means(build_cache(scen, hw, book), 0, 0, m)
        assert traj.sinr[0] == math.inf and rate == math.inf
    else:
        with pytest.raises(NumericalInvariantError, match="t=3.0"):
            _rate_from_means(build_cache(scen, hw, book), 0, 0, m)


def test_ergodic_rate_examples():
    assert ergodic_rate(np.ones(8), T=10, B=2) == pytest.approx(0.8)
    assert ergodic_rate(np.zeros(8), T=10, B=2) == 0.0
    assert ergodic_rate(np.zeros(0), T=4, B=4) == 0.0
    # a subset of the data uses: mean log2(1 + SINR) times the data share
    assert ergodic_rate(np.ones(5), T=10, B=2) == pytest.approx(0.8)
    assert ergodic_rate([3.0, 0.0], T=10, B=2) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        ergodic_rate(np.ones(9), T=10, B=2)
    with pytest.raises(ValueError):
        ergodic_rate(np.zeros(0), T=10, B=2)


def test_rate_bounds(rng):
    scen = random_scenario(rng, T=20)
    hw = impaired_profile(delta=1e-3)
    cache = build_cache(scen, hw, make_book(scen, "dft"))
    rep = ue_rate(cache, 0, 0)
    assert rep.rate >= 0
    cap = (scen.T - cache.B) / scen.T * np.log2(1 + rep.sinr.max())
    assert rep.rate <= cap + 1e-12


def test_sinr_non_increasing_past_last_pilot(rng):
    scen = random_scenario(rng, T=50)
    hw = impaired_profile(lo=LoMode.CLO, delta=2e-2)
    cache = build_cache(scen, hw, make_book(scen, "dft", "beginning"))
    ts = np.arange(cache.B + 1, 51, dtype=float)
    traj = sinr_trajectory(cache, 0, 0, ts)
    assert np.all(np.diff(traj.sinr) <= 1e-12)


def test_slo_interference_not_above_clo_and_rate_dominance(rng):
    # realistic factorized configurations with several antennas per subarray
    for trial in range(4):
        scen = random_scenario(rng, L=2, K=2, N=16, T=16, factorized=True, subarrays=2)
        hw_c = impaired_profile(lo=LoMode.CLO, delta=5e-3, kappa2=0.02)
        hw_s = impaired_profile(lo=LoMode.SLO, delta=5e-3, kappa2=0.02)
        book = make_book(scen, "dft")
        cache = build_cache(scen, hw_c, book)
        for t in book.data_times():
            e23_clo = mrc_moments(cache, 0, 0, t, LoMode.CLO).second
            e23_slo = mrc_moments(cache, 0, 0, t, LoMode.SLO).second
            assert np.all(e23_slo <= e23_clo + 1e-12)
        r_clo = ue_rate(cache, 0, 0, LoMode.CLO).rate
        r_slo = ue_rate(cache, 0, 0, LoMode.SLO).rate
        assert r_slo >= r_clo - 1e-12


# -- asymptotics ----------------------------------------------------------------


def test_asymptotic_infinite_without_contamination():
    # single cell, temporally orthogonal pilots, ideal hardware
    cov = np.full((1, 1, 2, 1), 1.0)
    scen = Scenario(L=1, K=2, N=4, T=10, cov=cov, powers=np.ones((1, 2)), sigma2=1.0, subarrays=1)
    hw = conventional_profile(1.0)
    book = temporal_book(scen.powers, place("beginning", 10, 2))
    assert asymptotic_sinr(build_cache(scen, hw, book), 0, 0, t=5) == math.inf


def test_asymptotic_two_symmetric_cells():
    # two cells share the single pilot with identical gains: limit is exactly 1
    cov = np.full((2, 2, 1, 1), 0.7)
    scen = Scenario(L=2, K=1, N=4, T=8, cov=cov, powers=np.ones((2, 1)), sigma2=1.0, subarrays=1)
    hw = HardwareProfile(delta=0.0, kappa2=0.0, xi=1.0, lo_mode=LoMode.SLO)
    book = temporal_book(scen.powers, place("beginning", 8, 1))
    val = asymptotic_sinr(build_cache(scen, hw, book), 0, 0, t=4)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_asymptote_survives_damping_underflow():
    # two cells share one pilot, gains 1 and 0.3 at cell 0: the SLO limit is
    # 1 / 0.3^2 at every channel use, also where the damping underflows
    cov = np.array([[[[1.0]], [[0.3]]], [[[0.4]], [[1.0]]]])
    scen = Scenario(L=2, K=1, N=4, T=40, cov=cov, powers=np.ones((2, 1)), sigma2=1.0, subarrays=1)
    book = temporal_book(scen.powers, place("beginning", 40, 1))
    ts = (3, 5, 10, 20, 30)
    for delta in (0.5, 50.0):
        cache = build_cache(scen, HardwareProfile(delta=delta, kappa2=0.0, xi=1.0), book)
        slo = [asymptotic_sinr(cache, 0, 0, t, LoMode.SLO) for t in ts]
        np.testing.assert_allclose(slo, 1 / 0.3**2, rtol=1e-12)
        # the CLO limit decays with the damping, down to 0 where it underflows
        clo = [asymptotic_sinr(cache, 0, 0, t, LoMode.CLO) for t in ts]
        assert np.all(np.isfinite(clo)) and np.all(np.diff(clo) <= 0), clo
    assert clo[-1] == 0.0


def test_finite_n_converges_inverse_linearly(rng):
    scen = random_scenario(rng, L=2, K=2, N=8, T=12, factorized=True, subarrays=2)
    hw = impaired_profile(lo=LoMode.CLO, delta=1e-3, kappa2=0.05)
    book = make_book(scen, "dft")
    cache = build_cache(scen, hw, book)
    t = 7.0
    co = mrc_moment_coefficients(cache, 0, 0, [t])
    limit = asymptotic_sinr(cache, j=0, k=0, t=t)
    devs = []
    for exp in [14, 15, 16]:
        mult = 2**exp // 2

        traj = sinr_trajectory_from_coefficients(co, scen, hw, mult)
        devs.append(abs(traj.sinr[0] - limit))
    assert 1.6 < devs[0] / devs[1] < 2.4
    assert 1.6 < devs[1] / devs[2] < 2.4


# -- scaling law ----------------------------------------------------------------


def test_scaling_law_clo_cases():
    ok = check_scaling_law(ScalingExponents(0.5, 0.5, 0.0), LoMode.CLO)
    assert ok.satisfied and ok.margin == pytest.approx(0.0)
    bad = check_scaling_law(ScalingExponents(0.0, 0.0, 0.1), LoMode.CLO)
    assert not bad.satisfied  # any drift growth is ruled out for a common LO
    assert not check_scaling_law(ScalingExponents(0.6, 0.0, 0.0), LoMode.CLO).satisfied


def test_scaling_law_slo_arithmetic():
    exp = ScalingExponents(0.0, 0.0, 10.0)
    rep = check_scaling_law(exp, LoMode.SLO, t=108, tau=(1, 2, 8), delta_0=7e-5)
    assert rep.lhs == pytest.approx(10.0 * 7e-5 * 100 / 2)
    assert rep.satisfied and rep.margin == pytest.approx(0.5 - 0.035)
    tight = ScalingExponents(0.48, 0.3, 2.0)
    rep2 = check_scaling_law(tight, LoMode.SLO, t=30, tau=(1,), delta_0=1e-2)
    assert rep2.lhs == pytest.approx(0.48 + 2.0 * 1e-2 * 29 / 2)
    assert not rep2.satisfied
    for lo in LoMode:
        with pytest.raises(ValueError, match="delta_0"):
            check_scaling_law(exp, lo, t=108, tau=(1,), delta_0=-1e-5)
    with pytest.raises(ValueError, match="delta_0"):
        check_scaling_law(exp, LoMode.SLO, t=108, tau=(1,))


def test_scaled_profile_values():
    base = HardwareProfile(delta=1e-4, kappa2=0.01, xi=2.0, lo_mode=LoMode.SLO)
    same = scaled_profile(base, 1, ScalingExponents(0.5, 0.5, 2.0))
    assert (same.delta, same.kappa2, same.xi) == (base.delta, base.kappa2, base.xi)
    grown = scaled_profile(base, 100, ScalingExponents(0.5, 0.0, 0.0))
    assert grown.kappa2 == pytest.approx(0.1)
    e_scaled = scaled_profile(base, round(math.e**1), ScalingExponents(0.0, 0.0, 2.0))
    assert e_scaled.delta == pytest.approx(base.delta * (1 + 2 * math.log(round(math.e))))
    with pytest.raises(ValueError):
        scaled_profile(HardwareProfile(0.0, 0.0, 0.5), 4, ScalingExponents(0, 0, 0), sigma2=1.0)


def test_violating_exponents_decay_beyond_peak(rng):
    # impairments growing faster than the admissible law push the SINR to
    # zero monotonically once the growth dominates
    cov = rng.uniform(0.2, 2.0, size=(2, 2, 2, 1))
    powers = rng.uniform(5.0, 15.0, size=(2, 2))
    pl = place("beginning", 40, 2)
    base = HardwareProfile(delta=7e-5, kappa2=0.05**2, xi=3.0, lo_mode=LoMode.CLO)
    exp = ScalingExponents(0.6, 0.0, 0.0)
    vals = []
    for e in range(4, 21):
        N = 2**e
        scen = Scenario(L=2, K=2, N=N, T=40, cov=cov, powers=powers, sigma2=1.0, subarrays=1)
        from hwmimo.pilots import dft_book

        cache = build_cache(scen, scaled_profile(base, N, exp), dft_book(powers, pl))
        co = mrc_moment_coefficients(cache, 0, 0, [20.0])
        vals.append(
            sinr_trajectory_from_coefficients(
                co, scen, scaled_profile(base, N, exp), N, LoMode.CLO
            ).sinr[0]
        )
    peak = int(np.argmax(vals))
    assert peak < len(vals) - 1
    assert np.all(np.diff(vals[peak:]) < 0)
    assert vals[-1] < vals[peak]
