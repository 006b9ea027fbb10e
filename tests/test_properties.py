"""Model invariants over randomized small scenarios (hypothesis).

Each example draws a network (L, K in 1..3, one or two subarrays, per-antenna
or per-subarray covariances), a pilot book and placement, and an impairment
triple up to delta = 50 and kappa2 = 1, then checks the closed forms at every
channel use of the block.  The Monte Carlo MMSE filter is checked against its
dense N x N system on drawn pilot observations, up to kappa2 = 100 and under
both oscillator topologies.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hwmimo.estimator import build_cache, error_covariance
from hwmimo.model import HardwareProfile, LoMode
from hwmimo.montecarlo import mmse_filter
from hwmimo.pilots import PlacementKind
from hwmimo.rates import mrc_moment_coefficients, sinr_trajectory_from_coefficients

from conftest import (
    assert_separable_matches_direct,
    assert_ue_axis_matches_per_ue,
    make_book,
    random_scenario,
)
from oracles import all_link_estimates, dense_mmse_filter, full_cov, mmse_filter_inputs


@st.composite
def caches(draw, delta=st.floats(0.0, 50.0), kappa2=st.floats(0.0, 1.0), lo=st.just(LoMode.CLO),
           mult=st.integers(1, 3)):
    L, K = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    A = draw(st.sampled_from([1, 2]))
    N = A * draw(mult)
    kind = draw(st.sampled_from(["temporal", "dft"]))
    B = K if kind == "temporal" else K + draw(st.integers(0, 2))
    T = B + draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scen = random_scenario(rng, L=L, K=K, N=N, T=T, subarrays=A, factorized=draw(st.booleans()))
    hw = HardwareProfile(
        delta=draw(delta),
        kappa2=draw(kappa2),
        xi=draw(st.floats(1.0, 3.0)) * scen.sigma2,
        lo_mode=draw(lo),
    )
    placement = draw(st.sampled_from(list(PlacementKind)))
    return build_cache(scen, hw, make_book(scen, kind, placement, B))


def _data_times(cache):
    return np.asarray(cache.book.data_times(), dtype=float)


@settings(max_examples=100, deadline=None)
@given(caches(), st.integers(1, 10**4))
def test_closed_form_sinr_is_non_negative_and_zero_without_signal(cache, mult):
    ts = _data_times(cache)
    for j in range(cache.scenario.L):
        for k in range(cache.scenario.K):
            co = mrc_moment_coefficients(cache, j, k, ts)
            for lo in LoMode:
                for m in (cache.mult, mult):
                    traj = sinr_trajectory_from_coefficients(co, cache.scenario, cache.hw, m, lo)
                    assert np.all(traj.sinr >= 0.0), (j, k, lo, m, traj.sinr)
                    # a filter that has decayed to zero carries no signal
                    assert np.all(traj.sinr[traj.signal == 0.0] == 0.0), (j, k, lo, m)


@settings(max_examples=100, deadline=None)
@given(caches())
def test_separable_pass_matches_direct_evaluation(cache):
    ts = _data_times(cache)
    for j in range(cache.scenario.L):
        for k in range(cache.scenario.K):
            assert_separable_matches_direct(cache, j, k, ts)


@settings(max_examples=100, deadline=None)
@given(caches(), st.integers(1, 10**4))
def test_ue_axis_matches_per_ue_passes(cache, mult):
    ts = _data_times(cache)
    for j in range(cache.scenario.L):
        assert_ue_axis_matches_per_ue(cache, j, ts, mults=(cache.mult, mult))


@settings(max_examples=100, deadline=None)
@given(caches(delta=st.just(0.0)))
def test_clo_and_slo_bitwise_equal_without_drift(cache):
    ts = _data_times(cache)
    for k in range(cache.scenario.K):
        co = mrc_moment_coefficients(cache, 0, k, ts)
        clo, slo = (
            sinr_trajectory_from_coefficients(co, cache.scenario, cache.hw, cache.mult, lo)
            for lo in (LoMode.CLO, LoMode.SLO)
        )
        for field in ("sinr", "signal", "interference", "distortion", "noise"):
            assert np.array_equal(getattr(clo, field), getattr(slo, field)), field


@settings(max_examples=100, deadline=None)
@given(caches())
def test_error_covariance_at_most_prior(cache):
    scen = cache.scenario
    prior = full_cov(scen)
    for t in range(1, scen.T + 1):
        for j in range(scen.L):
            for l in range(scen.L):
                for k in range(scen.K):
                    diag, _ = error_covariance(cache, j, l, k, t)
                    assert np.all(diag <= prior[j, l, k] * (1 + 1e-12)), (j, l, k, t)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(caches(kappa2=st.floats(0.0, 100.0), lo=st.sampled_from(list(LoMode)),
              mult=st.integers(1, 6)), st.data())
def test_mmse_filter_matches_the_dense_system(cache, data):
    # the filter (Woodbury for r = B*Ae < N, else the system from Gamma's
    # blocks) against the N x N system built from all L*K estimates, for
    # every UE of a drawn cell at a drawn data use
    scen = cache.scenario
    j = data.draw(st.integers(0, scen.L - 1))
    t = data.draw(st.sampled_from(cache.book.data_times()))
    psi, own, err, gram = mmse_filter_inputs(cache, j, t, 3, data.draw(st.integers(0, 9)))
    v = mmse_filter(own, err, scen, cache.hw, psi, gram)
    est, ecov = all_link_estimates(cache, j, t, psi)
    for k in range(scen.K):
        want = dense_mmse_filter(est, ecov, scen, cache.hw, j, k)
        assert np.max(np.abs(v[k] - want)) <= 1e-10 * np.max(np.abs(want)), (j, k, t)
