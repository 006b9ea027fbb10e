"""Closed-form achievable-rate machinery for MRC receive filtering.

For the MRC filter (filter = channel estimate) all four expectations in the
per-channel-use SINR — filter energy, desired-signal inner product, per-link
interference second moments, and the distortion cross moment — have exact
closed forms built from the reduced pilot covariance inverse.  Everything is
expressed through per-subarray quantities, so a given coefficient set can be
re-evaluated at any antenna count sharing the same subarray statistics: the
moments depend on N only through the multiplicity N/A, linearly for most
terms and quadratically for the pilot-contamination terms that survive as
N grows without bound.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .estimator import EstimatorCache
from .model import ConfigError, HardwareProfile, LoMode, NumericalInvariantError, Scenario


@dataclass(frozen=True, eq=False)
class MomentCoefficients:
    """Multiplicity-free pieces of the MRC moments for one (cell, UE) over a
    grid of channel uses.

    With m = N/A antennas per subarray the moments are assembled as

        norm2(t)      = m * c_norm
        second(t,l,k) = m * (tr_term + third_<lo>) + m^2 * quad_<lo>
        distortion(t) = m * c_dist

    quad_* are exactly the pilot-contamination terms that persist as m grows.
    """

    j: int
    k: int
    ts: np.ndarray
    c_norm: np.ndarray  # (nt,)
    tr_term: np.ndarray  # (nt, L, K)
    quad_clo: np.ndarray
    quad_slo: np.ndarray
    third_clo: np.ndarray
    third_slo: np.ndarray
    c_dist: np.ndarray  # (nt,)

    def quad(self, lo_mode: LoMode) -> np.ndarray:
        return self.quad_clo if lo_mode is LoMode.CLO else self.quad_slo

    def third(self, lo_mode: LoMode) -> np.ndarray:
        return self.third_clo if lo_mode is LoMode.CLO else self.third_slo

    def second(self, mult: int, lo_mode: LoMode) -> np.ndarray:
        """Per-link second moments E|v^H h_lm|^2 at multiplicity ``mult``,
        shape (nt, L, K)."""
        return mult * (self.tr_term + self.third(lo_mode)) + mult**2 * self.quad(lo_mode)


def mrc_moment_coefficients(cache: EstimatorCache, j: int, k: int, ts) -> MomentCoefficients:
    """Evaluate the coefficient tensors for UE k of cell j at channel uses ts.

    Runs fully vectorized over t; the only linear solve happens once per
    receiving cell when the cache builds its reduced inverse.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    book, hw = cache.book, cache.hw
    P = cache.pblocks(j)  # (Ae, B, B)
    dm = cache.d_delta(ts)  # (nt, B)
    dx = dm * book.sequences[j, :, k]  # (nt, B)
    s = np.einsum("abc,tc->tab", P, dx, optimize=True)  # (nt, Ae, B)
    s_conj = s.conj()
    g = np.einsum("tb,tab->ta", dx.conj(), s, optimize=True).real  # PSD quadratic forms

    lam_j = cache.lam[j]  # (L, K, Ae)
    own = cache.lam[j, j, k]  # (Ae,)
    c_norm = g @ own**2
    tr_term = np.einsum("lka,a,ta->tlk", lam_j, own**2, g, optimize=True)

    cw = own[None, None, :] * lam_j  # (L, K, Ae)
    w2 = cw**2
    Q = np.einsum("lka,tab->tlkb", cw, s, optimize=True)
    dxlm = dm[:, None, None, :] * book.sequences.transpose(0, 2, 1)[None]  # (nt, L, K, B)
    quad_slo = np.abs(np.einsum("tlkb,tlkb->tlk", Q.conj(), dxlm, optimize=True)) ** 2

    R = s_conj[:, :, :, None] * s[:, :, None, :]  # (nt, Ae, B, B)
    sXs = np.einsum("tabc,lkbc,lka->tlk", R, cache.X, w2, optimize=True).real
    sdx = np.einsum("tab,tlkb->tlka", s_conj, dxlm, optimize=True)
    third_slo = sXs - np.einsum("lka,tlka->tlk", w2, np.abs(sdx) ** 2, optimize=True)

    if hw.delta == 0.0:
        # both oscillator topologies coincide; reuse one arithmetic path so
        # downstream comparisons are bitwise equal
        quad_clo = quad_slo
        third_clo = third_slo
    else:
        quad_clo = np.einsum("tlkb,lkbc,tlkc->tlk", Q.conj(), cache.Xbar, Q, optimize=True).real
        sXbars = np.einsum("tabc,lkbc,lka->tlk", R, cache.Xbar, w2, optimize=True).real
        third_clo = sXs - sXbars

    c_dist = hw.kappa2 * np.einsum(
        "lk,tlk->t", cache.scenario.powers, tr_term + sXs, optimize=True
    )
    return MomentCoefficients(
        j=j,
        k=k,
        ts=ts,
        c_norm=c_norm,
        tr_term=tr_term,
        quad_clo=quad_clo,
        quad_slo=quad_slo,
        third_clo=third_clo,
        third_slo=third_slo,
        c_dist=c_dist,
    )


@dataclass(frozen=True, eq=False)
class MrcMoments:
    """The four MRC moments at one channel use: E||v||^2, E{v^H h} (equal to
    the first by the estimator's orthogonality), E|v^H h_lm|^2 per link, and
    the distortion cross moment E|v^H upsilon|^2."""

    norm2: float
    first: float
    second: np.ndarray  # (L, K)
    distortion: float


def moments_from_coefficients(
    co: MomentCoefficients, mult: int, lo_mode: LoMode, idx: int = 0
) -> MrcMoments:
    norm2 = float(mult * co.c_norm[idx])
    return MrcMoments(
        norm2=norm2,
        first=norm2,
        second=co.second(mult, lo_mode)[idx],
        distortion=float(mult * co.c_dist[idx]),
    )


def mrc_moments(cache: EstimatorCache, j: int, k: int, t, lo_mode: LoMode | None = None) -> MrcMoments:
    """Closed-form MRC moments for UE k of cell j at channel use t."""
    lo = lo_mode or cache.hw.lo_mode
    co = mrc_moment_coefficients(cache, j, k, [t])
    return moments_from_coefficients(co, cache.mult, lo)


def mrc_moments_colocated(
    cache: EstimatorCache, j: int, k: int, t, lo_mode: LoMode | None = None
) -> MrcMoments:
    """Independent co-located evaluation through the B x B pilot system only.

    Valid when every link covariance is a scaled identity; agrees with
    :func:`mrc_moments` to machine precision and makes the explicit N and
    N(N-1) antenna factors visible.
    """
    if cache.Ae != 1:
        raise ValueError("co-located path requires scaled-identity covariances (A = 1)")
    lo = lo_mode or cache.hw.lo_mode
    N, B = cache.scenario.N, cache.B
    lam_j = cache.lam[j, :, :, 0]  # (L, K)
    omega = np.einsum("lk,lkbc->bc", lam_j, cache.X) + cache.hw.xi * np.eye(B)
    dm = cache.d_delta(t)[0]
    dx = dm * cache.book.sequences[j, :, k]
    o = scipy.linalg.solve(omega, dx, assume_a="pos")
    lam = lam_j[j, k]
    norm2 = N * lam**2 * float(np.real(dx.conj() @ o))

    L, K = cache.scenario.L, cache.scenario.K
    second = np.empty((L, K))
    dist = 0.0
    for l in range(L):
        for m in range(K):
            lm = lam_j[l, m]
            dxlm = dm * cache.book.sequences[l, :, m]
            oxo = float(np.real(o.conj() @ cache.X[l, m] @ o))
            second[l, m] = lm * norm2 + N * lam**2 * lm**2 * oxo
            if lo is LoMode.CLO:
                pc = float(np.real(o.conj() @ cache.Xbar[l, m] @ o))
            else:
                pc = abs(o.conj() @ dxlm) ** 2
            second[l, m] += N * (N - 1) * lam**2 * lm**2 * pc
            p = cache.scenario.powers[l, m]
            dist += p * lm * norm2 + p * N * lam**2 * lm**2 * oxo
    return MrcMoments(norm2=norm2, first=norm2, second=second, distortion=cache.hw.kappa2 * dist)


@dataclass(frozen=True, eq=False)
class SinrTrajectory:
    """SINR and its denominator terms over a grid of channel uses."""

    ts: np.ndarray
    sinr: np.ndarray
    signal: np.ndarray
    interference: np.ndarray  # total over links, self term not yet removed
    distortion: np.ndarray
    noise: np.ndarray


def _sinr_from_moments(
    scenario: Scenario,
    xi: float,
    j: int,
    k: int,
    ts: np.ndarray,
    norm2: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    distortion: np.ndarray,
    trials: int | None = None,
) -> SinrTrajectory:
    """SINR of UE k in cell j at the channel uses ``ts`` from the four
    expectations: filter energy, desired inner product (complex allowed),
    per-link second moments (nt, L, K) and the distortion cross moment.

    The denominator subtracts the desired signal from the total
    interference.  With exact moments (``trials=None``) it may undercut
    zero only by rounding, 1e-9 of the positive terms; with sample means
    over ``trials`` trials, by sampling noise down to the floor
    -3 (|interference| + |signal|) / sqrt(trials).  Below its floor it
    raises; between the floor and zero the SINR is infinite, unless the
    signal is zero.
    """
    p = scenario.powers
    signal = p[j, k] * np.abs(first) ** 2
    inter = np.einsum("lk,tlk->t", p, second)
    noise = xi * norm2
    den = inter - signal + distortion + noise
    if trials is None:
        floor = -1e-9 * (inter + distortion + noise)
    else:
        floor = -3.0 * (np.abs(inter) + np.abs(signal)) / math.sqrt(trials)
    bad = den < floor
    if np.any(bad):
        raise NumericalInvariantError(
            f"negative SINR denominator at t={ts[bad][0]}: {den[bad][0]} "
            f"(floor {floor[bad][0]})"
        )
    # no signal (a filter whose damping underflowed to zero) is zero SINR
    live = (den > 0.0) | (signal == 0.0)
    with np.errstate(over="ignore"):
        vals = np.where(live, signal / np.maximum(den, np.finfo(float).tiny), np.inf)
    return SinrTrajectory(
        ts=ts, sinr=vals, signal=signal, interference=inter, distortion=distortion, noise=noise
    )


def sinr_trajectory_from_coefficients(
    co: MomentCoefficients,
    scenario: Scenario,
    hw: HardwareProfile,
    mult: int,
    lo_mode: LoMode | None = None,
) -> SinrTrajectory:
    """Vectorized SINR over the coefficient grid for a given multiplicity."""
    lo = lo_mode or hw.lo_mode
    e21 = mult * co.c_norm
    return _sinr_from_moments(
        scenario, hw.xi, co.j, co.k, co.ts, e21, e21, co.second(mult, lo), mult * co.c_dist
    )


def sinr_trajectory(
    cache: EstimatorCache, j: int, k: int, ts=None, lo_mode: LoMode | None = None
) -> SinrTrajectory:
    """Closed-form SINR of UE k in cell j over the given channel uses
    (default: all data times of the pilot book)."""
    if ts is None:
        ts = np.asarray(cache.book.data_times(), dtype=float)
    co = mrc_moment_coefficients(cache, j, k, ts)
    return sinr_trajectory_from_coefficients(co, cache.scenario, cache.hw, cache.mult, lo_mode)


@dataclass(frozen=True, eq=False)
class RateReport:
    """Ergodic achievable rate of one UE and the SINR trajectory behind it."""

    rate: float
    ts: np.ndarray
    sinr: np.ndarray


def ergodic_rate(sinr, T: int, B: int) -> float:
    """Ergodic rate from the SINR at the data channel uses, or at a subset
    of them: the mean of log2(1 + SINR) over the given values times the
    T - B data uses, divided by T, which charges the B pilot uses against
    the rate.  Over all T - B data uses this is sum log2(1 + SINR) / T."""
    sinr = np.atleast_1d(np.asarray(sinr, dtype=float))
    if sinr.size > T - B or (sinr.size == 0 and T > B):
        raise ValueError(
            f"expected {min(1, T - B)}..{T - B} SINR values for T={T}, B={B}; got {sinr.size}"
        )
    if sinr.size == 0:
        return 0.0
    return float(np.log2(1.0 + sinr).sum() * ((T - B) / sinr.size) / T)


def ue_rate(cache: EstimatorCache, j: int, k: int, lo_mode: LoMode | None = None) -> RateReport:
    """Closed-form ergodic rate for UE k of cell j under MRC."""
    traj = sinr_trajectory(cache, j, k, lo_mode=lo_mode)
    return RateReport(
        rate=ergodic_rate(traj.sinr, cache.scenario.T, cache.B), ts=traj.ts, sinr=traj.sinr
    )


# -- asymptotics and hardware scaling laws ----------------------------------


def _asymptote(co: MomentCoefficients, scenario: Scenario, lo_mode: LoMode) -> SinrTrajectory:
    """Large-array SINR limits over the coefficient grid.

    Distortion and receiver noise vanish in the limit; what survives is the
    ratio of the squared signal coefficient to the interference that shares
    its quadratic growth (pilot contamination).  The SINR is +inf where no
    contamination survives: interference minus signal at most 1e-12 of the
    interference.
    """
    if scenario.reduced_dim != scenario.subarrays:
        raise ConfigError("asymptotic analysis needs subarray-factorized covariances")
    p = scenario.powers
    signal = p[co.j, co.k] * co.c_norm**2
    inter = np.einsum("lk,tlk->t", p, co.quad(lo_mode))
    den = inter - signal
    with np.errstate(divide="ignore"):
        sinr = np.where(
            den > 1e-12 * np.maximum(inter, 1e-300), signal / np.maximum(den, 1e-300), np.inf
        )
    zero = np.zeros_like(signal)
    return SinrTrajectory(
        ts=co.ts, sinr=sinr, signal=signal, interference=inter, distortion=zero, noise=zero
    )


def asymptotic_sinr(
    cache: EstimatorCache, j: int = 0, k: int = 0, t=None, lo_mode: LoMode | None = None
) -> float:
    """SINR limit of UE k in cell j at channel use t (default: the first
    data channel use) as the per-subarray antenna count grows without
    bound; +inf when no pilot contamination survives."""
    if t is None:
        t = cache.book.data_times()[0]
    co = mrc_moment_coefficients(cache, j, k, [t])
    return float(_asymptote(co, cache.scenario, lo_mode or cache.hw.lo_mode).sinr[0])


@dataclass(frozen=True)
class ScalingExponents:
    """Growth exponents for the impairment triple: kappa2 ~ N^z1, xi ~ N^z2,
    delta ~ (1 + z3 ln N), with the baseline values they scale from."""

    z1: float
    z2: float
    z3: float
    kappa2_0: float = 0.0
    xi_0: float = 0.0
    delta_0: float = 0.0

    def __post_init__(self):
        if min(self.z1, self.z2, self.z3) < 0:
            raise ValueError("scaling exponents must be >= 0")
        if min(self.kappa2_0, self.xi_0, self.delta_0) < 0:
            raise ValueError("baseline impairments must be >= 0")


@dataclass(frozen=True)
class ScalingLawReport:
    satisfied: bool
    margin: float
    lhs: float


def check_scaling_law(
    exp: ScalingExponents, lo_mode: LoMode, t=None, tau=None, delta_0: float | None = None
) -> ScalingLawReport:
    """Decide whether the exponents keep every SINR bounded away from zero.

    A common oscillator admits max(z1, z2) <= 1/2 with no drift growth at
    all; separate oscillators trade drift growth against the additive terms
    through the distance from t to the nearest pilot.
    """
    base = max(exp.z1, exp.z2)
    if lo_mode is LoMode.CLO:
        margin = 0.5 - base
        return ScalingLawReport(satisfied=(margin >= 0.0) and exp.z3 == 0.0, margin=margin, lhs=base)
    d0 = exp.delta_0 if delta_0 is None else delta_0
    if t is None or tau is None:
        raise ValueError("separate-oscillator check needs t and the pilot times")
    gap = min(abs(float(t) - float(x)) for x in tau)
    lhs = base + exp.z3 * d0 * gap / 2.0
    margin = 0.5 - lhs
    return ScalingLawReport(satisfied=margin >= 0.0, margin=margin, lhs=lhs)


def scaled_profile(
    base: HardwareProfile, N: int, exp: ScalingExponents, sigma2: float | None = None
) -> HardwareProfile:
    """Impairment triple at array size N when the baselines in ``base`` are
    grown according to the exponents."""
    if N < 1:
        raise ValueError("N must be >= 1")
    kappa2 = base.kappa2 * N**exp.z1
    xi = base.xi * N**exp.z2
    delta = base.delta * (1.0 + exp.z3 * math.log(N))
    if sigma2 is not None and xi < sigma2:
        raise ValueError(f"scaled xi={xi} fell below sigma2={sigma2}")
    return HardwareProfile(delta=delta, kappa2=kappa2, xi=xi, lo_mode=base.lo_mode)
