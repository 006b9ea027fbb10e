"""Shared scenario builders for the test suite."""

import dataclasses

import numpy as np
import pytest

from hwmimo import estimator
from hwmimo.channel import phase_correlation
from hwmimo.model import HardwareProfile, LoMode, Scenario
from hwmimo.pilots import PlacementKind, dft_book, place, temporal_book
from hwmimo.rates import (
    _asymptote,
    _coefficient_parts,
    _quartic,
    _separable_parts,
    mrc_moment_coefficients,
    sinr_trajectory_from_coefficients,
)


def random_scenario(
    rng: np.random.Generator,
    L: int = 2,
    K: int = 2,
    N: int = 4,
    T: int = 12,
    subarrays: int | None = None,
    factorized: bool = False,
    sigma2: float = 1.0,
) -> Scenario:
    """Random well-conditioned scenario with O(1) gains and powers."""
    A = subarrays if subarrays is not None else (N if not factorized else 2)
    dim = A if factorized else N
    cov = rng.uniform(0.2, 2.0, size=(L, L, K, dim))
    powers = rng.uniform(0.5, 2.0, size=(L, K))
    return Scenario(L=L, K=K, N=N, T=T, cov=cov, powers=powers, sigma2=sigma2, subarrays=A)


def make_book(scenario: Scenario, kind: str = "dft", placement: str = "beginning", B: int | None = None):
    B = B if B is not None else scenario.K
    pl = place(PlacementKind(placement), scenario.T, B)
    if kind == "temporal":
        return temporal_book(scenario.powers, pl)
    return dft_book(scenario.powers, pl)


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


class FakeBlas:
    """BLAS thread-count control that holds the count it is set to."""

    def __init__(self, threads):
        self.threads = threads

    def get(self):
        return self.threads

    def set(self, n):
        self.threads = n


@pytest.fixture
def fake_blas(monkeypatch):
    """A :class:`FakeBlas` at 8 threads in place of numpy's BLAS control."""
    blas = FakeBlas(8)
    monkeypatch.setattr(estimator, "_blas_threads", lambda: (blas.get, blas.set))
    return blas


def impaired_profile(lo=LoMode.SLO, delta=1e-3, kappa2=0.01, xi=1.3, sigma2=1.0):
    return HardwareProfile(delta=delta, kappa2=kappa2, xi=xi * sigma2, lo_mode=lo)


def assert_separable_matches_direct(cache, j, k, ts, rtol=1e-12):
    """The per-gap coefficient pass against its evaluator applied at the
    damping d(t) of every channel use and summed over links with the powers
    p_lk: each part within ``rtol`` of sum_lk p_lk |part| at that use, or
    within 1e-300.  The ``*_unit`` parts are evaluated at d(t) / scale(t),
    with scale(t) = exp(-delta/2 min_b |t - tau_b|), the damping of the
    nearest pilot.  sXs and w2 |sdx|^2 are checked apart because
    third_slo, their difference, cancels."""
    got = _separable_parts(cache, j, k, ts)
    p = cache.scenario.powers.ravel()
    dist = np.abs(ts[:, None] - np.asarray(cache.book.tau, dtype=float))  # (nt, B)
    near = dist.min(axis=1, initial=np.inf)
    scale = phase_correlation(cache.hw.delta, near)
    want = {"scale": (scale, scale)}
    unit = phase_correlation(cache.hw.delta, dist - near[:, None])
    for suffix, d in (("", cache.d_delta(ts)), ("_unit", unit)):
        quadratic, amp = _coefficient_parts(cache, j, k, d, d)
        for name, part in {**quadratic, **_quartic(amp, amp)}.items():
            if suffix and name not in ("c_norm", "quad_clo", "quad_slo"):
                continue
            if part.ndim == 1:
                want[name + suffix] = (part, np.abs(part))
            else:
                flat = part.reshape(ts.size, -1)
                want[name + suffix] = (flat @ p, np.abs(flat) @ p)
    assert got.keys() == want.keys(), (sorted(got), sorted(want))
    for name, (value, size) in want.items():
        assert got[name].shape == ts.shape, name
        err = np.abs(got[name] - value)
        bad = err > np.maximum(rtol * size, 1e-300)
        assert not np.any(bad), (name, ts[bad], err[bad], size[bad])


def assert_ue_axis_matches_per_ue(cache, j, ts, mults=(1,)):
    """One coefficient pass over every UE of cell j against one pass per UE:
    each coefficient field, and the SINR trajectories assembled from them
    at every multiplicity in ``mults`` and both oscillator topologies (and
    the large-array limits of a subarray-factorized scenario), bit for bit.
    The matmuls of one UE in the batched pass are those of its own pass,
    so nothing may differ."""
    scen = cache.scenario

    def assemble(co):
        trajs = [
            sinr_trajectory_from_coefficients(co, scen, cache.hw, m, lo)
            for lo in LoMode for m in mults
        ]
        if scen.reduced_dim == scen.subarrays:  # the limit needs factorized covariances
            trajs += [_asymptote(co, scen, lo) for lo in LoMode]
        return trajs

    ks = np.arange(scen.K)
    batch = mrc_moment_coefficients(cache, j, ks, ts)
    batched = assemble(batch)
    for k in ks:
        co = mrc_moment_coefficients(cache, j, int(k), ts)
        for field in dataclasses.fields(co):
            want, got = getattr(co, field.name), getattr(batch, field.name)
            if field.name in ("j", "k", "ts"):
                continue
            assert want.shape == ts.shape and got.shape == (ks.size, ts.size), field.name
            assert np.array_equal(got[k], want), (field.name, k)
        for traj, want in zip(batched, assemble(co)):
            got = traj.ue(k)
            for field in ("sinr", "signal", "interference", "distortion", "noise"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (field, k)
