import math

import numpy as np
import pytest

from hwmimo.circuits import (
    AdcSpec,
    LnaSpec,
    LoSpec,
    adc_relaxation,
    adc_to_impairments,
    lna_to_impairments,
    lo_to_delta,
    power_scaling_report,
    profile_from_circuits,
)

from oracles import loglog_slope


def test_adc_six_bits():
    kappa2, xi_scale = adc_to_impairments(AdcSpec(6))
    assert math.sqrt(kappa2) == pytest.approx(0.0156, abs=5e-5)
    assert xi_scale == pytest.approx(1.0 / (1 - 2**-12))


def test_adc_limits():
    kappa2, xi_scale = adc_to_impairments(AdcSpec(30))
    assert kappa2 == pytest.approx(0.0, abs=1e-15)
    assert xi_scale == pytest.approx(1.0, abs=1e-15)
    kappa2_1, _ = adc_to_impairments(AdcSpec(1))
    assert math.sqrt(kappa2_1) == pytest.approx(0.5 / math.sqrt(0.75), rel=1e-12)
    with pytest.raises(ValueError):
        AdcSpec(0)


def test_adc_relaxation_values():
    assert adc_relaxation(256, 0.5) == pytest.approx(2.0)
    assert adc_relaxation(1, 0.5) == 0.0
    assert adc_relaxation(16, 0.5) == pytest.approx(1.0)


def test_lna_from_db():
    lna = LnaSpec.from_db(2.0)
    assert lna.F == pytest.approx(10 ** 0.2)
    assert lna_to_impairments(lna, sigma2=2.0) == pytest.approx(2 * 10 ** 0.2)
    with pytest.raises(ValueError):
        LnaSpec(0.5)
    with pytest.raises(ValueError):
        LnaSpec.from_db(-0.5)


def test_lna_noise_variance():
    lna = LnaSpec.from_db(2.0)
    xi = lna_to_impairments(lna, sigma2=1.0, adc=AdcSpec(6))
    assert xi == pytest.approx(1.58, abs=0.01)
    ideal = lna_to_impairments(LnaSpec(F=1.0), sigma2=1.0)
    assert ideal == 1.0


def test_lo_phase_noise_variance():
    lo = LoSpec(f_c=2e9, T_s=1e-7, zeta=1e-17)
    assert lo_to_delta(lo) == pytest.approx(1.58e-4, rel=0.01)
    assert lo_to_delta(LoSpec(f_c=2e9, T_s=1e-7, zeta=0.0)) == 0.0
    # quadratic carrier dependence
    assert lo_to_delta(LoSpec(f_c=4e9, T_s=1e-7, zeta=1e-17)) == pytest.approx(
        4 * lo_to_delta(lo)
    )


def test_profile_round_trip_reference_point():
    hw = profile_from_circuits(
        AdcSpec(6), LnaSpec.from_db(2.0), LoSpec(2e9, 1e-7, 1e-17), sigma2=1.0
    )
    assert math.sqrt(hw.kappa2) == pytest.approx(0.0156, rel=0.01)
    assert hw.xi == pytest.approx(1.58, rel=0.01)
    assert hw.delta == pytest.approx(1.58e-4, rel=0.01)


def test_power_scaling_slopes():
    ns = [2**e for e in range(2, 16)]
    rows = power_scaling_report(ns, z1=0.5, z2=0.5, z3=1.0, adc_bits=6)
    adc_total = [r["p_adc_total"] for r in rows]
    lna_total = [r["p_lna_total"] for r in rows]
    assert loglog_slope(ns, adc_total) == pytest.approx(0.5, abs=1e-6)
    assert loglog_slope(ns, lna_total) == pytest.approx(0.5, abs=1e-6)
    # totals are monotone increasing in N
    assert np.all(np.diff(adc_total) > 0)
    assert np.all(np.diff(lna_total) > 0)
    # each separate oscillator backs off logarithmically; the common one is flat
    assert rows[-1]["p_lo"] < rows[0]["p_lo"]
    assert all(r["p_lo_total_clo"] == rows[0]["p_lo_total_clo"] for r in rows)
    np.testing.assert_allclose(
        [r["p_lo_total_slo"] for r in rows],
        [n / (1 + 1.0 * math.log(n)) for n in ns],
    )


def test_power_scaling_no_relaxation_is_linear():
    ns = [4, 16, 64, 256]
    rows = power_scaling_report(ns, z1=0.0, z2=0.0, z3=0.0, adc_bits=6)
    for key in ("p_adc_total", "p_lna_total", "p_lo_total_slo"):
        assert loglog_slope(ns, [r[key] for r in rows]) == pytest.approx(1.0, abs=1e-9)


def test_power_scaling_quadrupling_example():
    rows = power_scaling_report([4, 16], z1=0.5, z2=0.0, z3=0.0, adc_bits=6)
    assert rows[1]["p_adc_total"] / rows[0]["p_adc_total"] == pytest.approx(2.0)
