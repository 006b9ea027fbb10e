"""Shared scenario builders for the test suite."""

import numpy as np
import pytest

from hwmimo.model import HardwareProfile, LoMode, Scenario
from hwmimo.pilots import PlacementKind, dft_book, place, temporal_book
from hwmimo.rates import _coefficient_parts, _quartic, _separable_parts


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


def impaired_profile(lo=LoMode.SLO, delta=1e-3, kappa2=0.01, xi=1.3, sigma2=1.0):
    return HardwareProfile(delta=delta, kappa2=kappa2, xi=xi * sigma2, lo_mode=lo)


def assert_separable_matches_direct(cache, j, k, ts, rtol=1e-12):
    """The per-gap coefficient pass against its evaluator applied at the
    damping d(t) of every channel use: each part within ``rtol`` of its
    per-use scale (the largest entry over links), or within 1e-300.  sXs and
    w2 |sdx|^2 are checked apart because third_slo, their difference,
    cancels."""
    got = _separable_parts(cache, j, k, ts)
    d = cache.d_delta(ts)
    quadratic, amp = _coefficient_parts(cache, j, k, d, d)
    for name, want in {**quadratic, **_quartic(amp, amp)}.items():
        scale = np.abs(want).reshape(ts.size, -1).max(axis=1, initial=0.0)
        err = np.abs(got[name] - want).reshape(ts.size, -1).max(axis=1, initial=0.0)
        bad = err > np.maximum(rtol * scale, 1e-300)
        assert not np.any(bad), (name, ts[bad], err[bad], scale[bad])
