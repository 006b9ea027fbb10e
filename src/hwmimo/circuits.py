"""Mapping circuit specifications to the impairment triple and circuit power
scaling under relaxed hardware quality.

Covered receiver circuits: the ADC (quantization noise -> distortion factor
and a noise renormalization), the LNA (noise amplification -> receiver noise
variance), and the local oscillator (free-running phase noise variance from
carrier frequency, symbol time and oscillator quality).  Growing the admissible
impairments with the array size lets the per-circuit power shrink, and the
report tabulates how the array totals then scale.

All internal math is linear-scale; dB conversion happens only at the edges.
"""

import math
from dataclasses import dataclass

from .model import HardwareProfile, LoMode


@dataclass(frozen=True)
class AdcSpec:
    """Quantizer resolution in bits (b >= 1)."""

    bits: float

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("ADC resolution must be at least 1 bit")


@dataclass(frozen=True)
class LnaSpec:
    """Low-noise amplifier: noise amplification factor F (linear)."""

    F: float

    def __post_init__(self):
        if self.F < 1:
            raise ValueError("noise amplification factor must satisfy F >= 1")

    @classmethod
    def from_db(cls, nf_db: float) -> "LnaSpec":
        """LNA of noise figure ``nf_db`` (dB)."""
        return cls(10.0 ** (nf_db / 10.0))


@dataclass(frozen=True)
class LoSpec:
    """Free-running local oscillator: carrier frequency f_c [Hz], symbol time
    T_s [s] and the quality constant zeta; power couples to quality through
    P * zeta ~ FoM (treated as exact in the reports)."""

    f_c: float
    T_s: float
    zeta: float

    def __post_init__(self):
        if self.f_c <= 0 or self.T_s <= 0 or self.zeta < 0:
            raise ValueError("oscillator spec fields must be positive (zeta >= 0)")


def adc_to_impairments(adc: AdcSpec) -> tuple[float, float]:
    """Distortion contribution and noise renormalization of a b-bit quantizer.

    Quantization keeps (1 - 2^(-2b)) of the signal power and adds 2^(-2b) of
    it as uncorrelated noise; normalizing the useful signal back to unit
    power yields a kappa^2 contribution 2^(-2b) / (1 - 2^(-2b)) and scales
    the receiver noise variance by 1 / (1 - 2^(-2b)).
    """
    q = 2.0 ** (-2.0 * adc.bits)
    return q / (1.0 - q), 1.0 / (1.0 - q)


def adc_relaxation(N: int, z1: float) -> float:
    """Bits of ADC resolution that can be shed at array size N while the
    distortion factor grows as N^z1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return 0.5 * z1 * math.log2(N)


def lna_to_impairments(lna: LnaSpec, sigma2: float, adc: AdcSpec | None = None) -> float:
    """Receiver noise variance xi from the LNA noise factor, including the
    ADC renormalization when a quantizer follows the amplifier."""
    scale = adc_to_impairments(adc)[1] if adc is not None else 1.0
    return lna.F * sigma2 * scale


def lo_to_delta(lo: LoSpec) -> float:
    """Phase-drift innovation variance of a free-running oscillator:
    delta = 4 pi^2 f_c^2 T_s zeta."""
    return 4.0 * math.pi**2 * lo.f_c**2 * lo.T_s * lo.zeta


def profile_from_circuits(
    adc: AdcSpec,
    lna: LnaSpec,
    lo: LoSpec,
    sigma2: float,
    lo_mode: LoMode = LoMode.SLO,
) -> HardwareProfile:
    """Assemble the impairment triple implied by a circuit specification."""
    kappa2, _ = adc_to_impairments(adc)
    xi = lna_to_impairments(lna, sigma2, adc)
    return HardwareProfile(delta=lo_to_delta(lo), kappa2=kappa2, xi=xi, lo_mode=lo_mode)


def power_scaling_report(n_grid, z1: float, z2: float, z3: float, adc_bits: float) -> list:
    """Per-antenna and array-total circuit power when hardware quality is
    relaxed with the array size, in units of each circuit's power at the
    single-antenna reference point (an ``adc_bits``-bit ADC).

    ADC power falls as 2^(2 b(N)) with b(N) = b0 - (z1/2) log2 N from
    b0 = ``adc_bits``, so the N-antenna total grows as N^(1-z1); the LNA
    total grows as N^(1-z2); each separate oscillator can back off as
    1/(1 + z3 ln N) while one common oscillator stays at its reference power.
    """
    rows = []
    for N in n_grid:
        N = int(N)
        # bits stay real-valued so the totals follow the exact power laws
        bits = adc_bits - adc_relaxation(N, z1)
        p_adc = 2.0 ** (2.0 * (bits - adc_bits))
        p_lna = 1.0 / N**z2
        p_lo = 1.0 / (1.0 + z3 * math.log(N))
        rows.append(
            {
                "N": N,
                "adc_bits": bits,
                "p_adc": p_adc,
                "p_adc_total": N * p_adc,
                "p_lna": p_lna,
                "p_lna_total": N * p_lna,
                "p_lo": p_lo,
                "p_lo_total_slo": N * p_lo,
                "p_lo_total_clo": 1.0,
            }
        )
    return rows
