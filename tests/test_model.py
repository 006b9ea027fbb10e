import numpy as np
import pytest

from hwmimo.model import (
    HardwareProfile,
    LoMode,
    Scenario,
    conventional_profile,
    expand_covariance,
    factorize_covariance,
    validate,
)

from conftest import random_scenario
from oracles import full_cov


def test_validate_ok_toy_scenario(rng):
    scen = random_scenario(rng, L=2, K=2, N=4)
    hw = conventional_profile(scen.sigma2)
    assert validate(scen, hw) == ()


def test_validate_flags_xi_below_sigma2(rng):
    scen = random_scenario(rng, sigma2=2.0)
    hw = HardwareProfile(delta=0.0, kappa2=0.0, xi=1.0, lo_mode=LoMode.CLO)
    violations = validate(scen, hw)
    assert any("xi below sigma2" in v for v in violations)


def test_validate_flags_bad_subarray_count(rng):
    cov = rng.uniform(0.5, 1.0, size=(1, 1, 1, 8))
    scen = Scenario(L=1, K=1, N=8, T=10, cov=cov, powers=np.ones((1, 1)), sigma2=1.0, subarrays=3)
    violations = validate(scen)
    assert any("divide" in v for v in violations)


def test_validate_is_pure(rng):
    scen = random_scenario(rng)
    hw = HardwareProfile(delta=1e-4, kappa2=0.01, xi=1.5)
    r1, r2 = validate(scen, hw), validate(scen, hw)
    assert r1 == r2


def test_conventional_profile_values():
    hw = conventional_profile(1.0)
    assert (hw.delta, hw.kappa2, hw.xi, hw.lo_mode) == (0.0, 0.0, 1.0, LoMode.CLO)
    assert conventional_profile(2.0).xi == 2.0
    with pytest.raises(ValueError):
        conventional_profile(0.0)


def test_conventional_profile_validates(rng):
    scen = random_scenario(rng)
    assert validate(scen, conventional_profile(scen.sigma2)) == ()


def test_expand_covariance_single_subarray():
    np.testing.assert_array_equal(expand_covariance(np.array([2.0]), N=4, A=1), [2, 2, 2, 2])


def test_expand_covariance_two_subarrays():
    np.testing.assert_array_equal(expand_covariance(np.array([1.0, 3.0]), N=4, A=2), [1, 1, 3, 3])


def test_expand_covariance_rejects_bad_split():
    with pytest.raises(ValueError):
        expand_covariance(np.array([1.0, 2.0, 3.0]), N=8, A=3)


def test_expand_factorize_round_trip(rng):
    for _ in range(25):
        A = int(rng.integers(1, 6))
        mult = int(rng.integers(1, 5))
        v = rng.uniform(0.0, 4.0, size=A)
        full = expand_covariance(v, N=A * mult, A=A)
        # piecewise constant on blocks of N/A by construction
        assert np.all(full.reshape(A, mult) == v[:, None])
        np.testing.assert_allclose(factorize_covariance(full, A), v)


def test_factorize_rejects_non_constant_blocks():
    with pytest.raises(ValueError):
        factorize_covariance(np.array([1.0, 1.1, 2.0, 2.0]), A=2)


def test_scenario_cov_layout(rng):
    scen = random_scenario(rng, N=8, factorized=True, subarrays=2)
    assert scen.reduced_dim == scen.subarrays and scen.subarrays != scen.N
    assert scen.multiplicity == 4
    full = full_cov(scen)
    assert full.shape == (2, 2, 2, 8)
    np.testing.assert_allclose(factorize_covariance(full, 2), scen.cov)
    dense = random_scenario(rng, N=8)
    assert not (dense.reduced_dim == dense.subarrays and dense.subarrays != dense.N)
    assert dense.multiplicity == 1


def test_hardware_profile_rejects_negative():
    with pytest.raises(ValueError):
        HardwareProfile(delta=-1.0, kappa2=0.0, xi=1.0)
