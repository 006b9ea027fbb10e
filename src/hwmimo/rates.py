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

from .channel import phase_correlation, sorted_unique
from .estimator import EstimatorCache
from .model import ConfigError, HardwareProfile, LoMode, NumericalInvariantError, Scenario


@dataclass(frozen=True, eq=False)
class MomentCoefficients:
    """Multiplicity-free pieces of the MRC moments for one (cell, UE) over a
    grid of channel uses, (nt,) each.  With m = N/A antennas per subarray
    the moments that the SINR reads are

        norm2(t)        = m * c_norm
        interference(t) = sum_lk p_lk E|v^H h_lk|^2 = m * lin_<lo> + m^2 * quad_<lo>
        distortion(t)   = m * c_dist

    Per link E|v^H h_lk|^2 = m (tr_term + third_<lo>) + m^2 quad_<lo> (see
    the oracle ``mrc_moments`` in ``tests/oracles.py``, which evaluates
    these forms directly at d(t)); lin_<lo> and quad_<lo> here are the sums
    of those parts over the links, weighted by the powers p_lk, which is
    linear and so taken before any multiplicity.  quad_* are exactly the
    pilot-contamination terms that persist as m grows.  scale(t) is the
    larger of the two gap factors of the damping d(t) (see :func:`_gaps`);
    the ``*_unit`` fields repeat c_norm and quad_* at d(t) / scale(t),
    where they cannot underflow, and the large-array limit is taken from
    them.

    With an index array ``k`` (one pass over several UEs of the cell, see
    :func:`mrc_moment_coefficients`) every array field but ``ts`` has a
    leading UE axis, (nk, nt): entry u belongs to UE k[u].  ``scale`` does
    not depend on the UE and is a broadcast view over that axis.
    """

    j: int
    k: int | np.ndarray
    ts: np.ndarray
    c_norm: np.ndarray
    c_dist: np.ndarray
    scale: np.ndarray
    c_norm_unit: np.ndarray
    lin_clo: np.ndarray
    lin_slo: np.ndarray
    quad_clo: np.ndarray
    quad_slo: np.ndarray
    quad_clo_unit: np.ndarray
    quad_slo_unit: np.ndarray


def _ue_shaped(k, part: np.ndarray) -> np.ndarray:
    """A part computed over the flattened UE indices of ``k``, (nk, ...),
    with the shape of ``k`` in place of that axis: a scalar k drops it."""
    return part.reshape(np.shape(k) + part.shape[1:])


def _coefficient_parts(cache: EstimatorCache, j: int, k, dm: np.ndarray, dn: np.ndarray):
    """Coefficient tensors of UE k of cell j as forms in two damping rows.

    Every coefficient is a bilinear form in the per-pilot damping, or the
    squared modulus of one: the filter side is damped by the rows ``dm``,
    the channel side by ``dn``, both (n, B).  Returns ``(quadratic,
    amplitudes)``: the real parts of the degree-2 forms c_norm and c_dist,
    (n,), and tr_term, sXs and, with phase drift, quad_clo and third_clo,
    (n, L, K) per link; and the complex amplitudes (Q^H dxlm, cw * sdx),
    (n, L, K) and (n, L, K, Ae), whose products :func:`_quartic` turns into
    the degree-4 parts.  At dm = dn = d(t) these are the coefficients at
    channel use t.

    ``k`` is a UE index or an array of them: every part then has the shape
    of ``k`` in front.  Only the UE's pilot x_jk and its covariance
    lam[j, j, k] depend on it; the damping rows, the pilot blocks, the Grams
    and the powers broadcast over the UE axis.

    Every contraction runs in a fixed order, as a matmul or a two-operand
    einsum: the operands hold a few damping rows, so an einsum path search
    would cost more than the products.  The matmuls of one UE are those of
    a scalar k, so a UE's parts do not depend on the other indices.
    """
    book, hw, scen = cache.book, cache.hw, cache.scenario
    n, LK, B = dm.shape[0], scen.L * scen.K, cache.B
    ks = np.reshape(k, -1)  # the U UE indices, flattened
    P = cache.pblocks(j)  # (Ae, B, B)
    x = book.sequences[j, :, ks]  # (U, B)
    dx = dm * x[:, None, :]  # (U, n, B)
    sm = np.matmul(P, dx[:, None].swapaxes(-1, -2)).transpose(0, 3, 1, 2)  # (U, n, Ae, B)
    sn = np.matmul(P, (dn * x[:, None, :])[:, None].swapaxes(-1, -2)).transpose(0, 3, 1, 2)
    g = np.einsum("utb,utab->uta", dx.conj(), sn).real

    lam_j = cache.lam[j].reshape(LK, -1)  # (LK, Ae)
    own = cache.lam[j, j, ks][:, None, :]  # (U, 1, Ae)
    tr_term = (g * own**2) @ lam_j.T  # (U, n, LK)

    cw = own * lam_j  # (U, LK, Ae)
    w2 = cw**2
    Q = np.matmul(cw[:, None], sm)  # (U, n, LK, B)
    dxlm = dn[:, None, :] * book.sequences.transpose(0, 2, 1).reshape(LK, B)  # (n, LK, B)
    z = np.einsum("utlb,tlb->utl", Q.conj(), dxlm)
    sdx = np.matmul(dxlm, sm.conj().swapaxes(-1, -2))  # (U, n, LK, Ae)

    # (U, n, Ae, B, B) pilot-pair products and their Gram sums, (U, n, Ae, LK)
    R = sm.conj()[..., :, None] * sn[..., None, :]
    RX = np.matmul(R.reshape(R.shape[:3] + (B * B,)), cache.X.reshape(LK, B * B).T)
    sXs = np.einsum("utal,ula->utl", RX.real, w2)
    per_link = {"tr_term": tr_term, "sXs": sXs}
    if hw.delta != 0.0:
        XQ = np.einsum("lbc,utlc->utlb", cache.Xbar.reshape(LK, B, B), np.matmul(cw[:, None], sn))
        per_link["quad_clo"] = np.einsum("utlb,utlb->utl", Q.conj(), XQ).real
        # X - Xbar = kappa2 diag(|pilot|^2)
        energy = np.abs(book.sequences.transpose(0, 2, 1).reshape(LK, B)) ** 2
        S = np.matmul((sm.conj() * sn).real, energy.T)  # (U, n, Ae, LK)
        per_link["third_clo"] = hw.kappa2 * np.einsum("utal,ula->utl", S, w2)
    links = (ks.size, n, scen.L, scen.K)
    quadratic = {
        "c_norm": np.matmul(g, own.swapaxes(-1, -2) ** 2)[..., 0],
        "c_dist": hw.kappa2 * ((tr_term + sXs) @ scen.powers.ravel()),
        **{name: part.reshape(links) for name, part in per_link.items()},
    }
    amplitudes = (z.reshape(links), (cw[:, None] * sdx).reshape(links + (-1,)))
    return (
        {name: _ue_shaped(k, part) for name, part in quadratic.items()},
        tuple(_ue_shaped(k, a) for a in amplitudes),
    )


def _quartic(a, b) -> dict:
    """Degree-4 parts quad_slo = |Q^H dxlm|^2 and sdx2 = w2 |sdx|^2 from
    the products of two sets of amplitudes of :func:`_coefficient_parts`
    (the real part of a times conj(b)); a = b gives them at one row."""
    (za, ya), (zb, yb) = a, b
    return {"quad_slo": (za * zb.conj()).real, "sdx2": (ya * yb.conj()).real.sum(axis=-1)}


def _gaps(delta: float, tau, ts: np.ndarray):
    """Split the channel uses ts by the gap between pilots they lie in.

    Yields ``(sel, rows, logf)``: the indices of the gap's uses in ts, the
    damping rows of its sides (s, B) and the log side factors (len(sel), s),
    with d(t) = sum_i exp(logf[t, i]) rows[i].  Between pilots t_L < t <
    t_R the sides are u (the pilots up to t_L damped to t_L) with factor
    exp(-delta/2 (t - t_L)) and w (the pilots from t_R on, damped to t_R)
    with factor exp(-delta/2 (t_R - t)); before the first and after the
    last pilot only one side exists.
    """
    tau = np.asarray(tau, dtype=float)
    if delta == 0.0 or ts.size == 0:  # every use sees the undamped pilots
        yield np.arange(ts.size), np.ones((1, tau.size)), np.zeros((ts.size, 1))
        return
    gap = np.searchsorted(tau, ts)
    for g in sorted_unique(gap):
        sel = np.flatnonzero(gap == g)
        rows, logf = [], []
        if g > 0:
            t_l = tau[g - 1]
            rows.append(phase_correlation(delta, t_l - tau) * (tau <= t_l))
            logf.append(-0.5 * delta * (ts[sel] - t_l))
        if g < tau.size:
            t_r = tau[g]
            rows.append(phase_correlation(delta, tau - t_r) * (tau >= t_r))
            logf.append(-0.5 * delta * (t_r - ts[sel]))
        yield sel, np.array(rows), np.stack(logf, axis=1)


def _power_sum(part: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_lk p_lk part[u, ..., l, k] of a per-link part with a leading UE
    axis u, (nk, rows) with the axes between flattened; a part of two axes
    is already a sum over links."""
    return part if part.ndim == 2 else part.reshape(part.shape[0], -1, p.size) @ p


def _separable_parts(cache: EstimatorCache, j: int, k, ts: np.ndarray) -> dict:
    """The parts of :func:`_coefficient_parts` (degree-4 ones through
    :func:`_quartic`) at the channel uses ts, summed over the links with the
    powers p_lk, plus the ``*_unit`` parts and ``scale`` of
    :class:`MomentCoefficients`; (nt,) each, behind the shape of the UE
    index ``k``.

    Within one gap the damping is d(t) = sum_i f_i(t) r_i over the gap's
    sides (see :func:`_gaps`), so a degree-2 part is sum_pq f_p f_q F(r_p,
    r_q) and a degree-4 part sum_pqp'q' f_p f_q f_p' f_q' Re z(r_p, r_q)
    conj(z(r_p', r_q')).  The forms are evaluated once per gap, on the
    ordered pairs of its sides, and every use is rebuilt from products of
    the side factors, formed in log space; no coefficient is fitted, so
    one that vanishes stays exactly zero.  The power sum over links and
    the rebuild over pairs are both linear, so they commute: each part is
    summed over links first, per pair, and only those sums are rebuilt.
    The gaps, their weights and scale(t) do not depend on the UE, so every
    UE of ``k`` shares them.
    """
    ks = np.reshape(k, -1)
    gaps = list(_gaps(cache.hw.delta, cache.book.tau, ts))
    # the ordered pairs (p, q) of every gap's sides, evaluated in one call
    pairs = [np.divmod(np.arange(len(rows) ** 2), len(rows)) for _, rows, _ in gaps]
    quadratic, amp = _coefficient_parts(
        cache, j, ks,
        np.concatenate([rows[pm] for (_, rows, _), (pm, _) in zip(gaps, pairs)]),
        np.concatenate([rows[pn] for (_, rows, _), (_, pn) in zip(gaps, pairs)]),
    )
    p = cache.scenario.powers.ravel()
    quadratic = {name: _power_sum(part, p) for name, part in quadratic.items()}
    # log weights of every use on every pair (degree 2) and pair of pairs
    # (degree 4); -inf, a zero weight, outside the use's gap
    lw2 = np.full((ts.size, sum(pm.size for pm, _ in pairs)), -np.inf)
    lw4 = np.full((ts.size, sum(pm.size**2 for pm, _ in pairs)), -np.inf)
    top = np.empty(ts.size)  # log scale(t)
    quartic = []
    c2 = c4 = 0
    for (sel, rows, logf), (pm, pn) in zip(gaps, pairs):
        m = pm.size
        ga = [a[:, c2:c2 + m] for a in amp]
        q = _quartic([a[:, :, None] for a in ga], [a[:, None] for a in ga])
        quartic.append({name: _power_sum(part, p) for name, part in q.items()})
        l2 = logf[:, pm] + logf[:, pn]
        lw2[sel, c2:c2 + m] = l2
        lw4[sel, c4:c4 + m * m] = (l2[:, :, None] + l2[:, None, :]).reshape(sel.size, m * m)
        top[sel] = logf.max(axis=1)
        c2, c4 = c2 + m, c4 + m * m
    quartic = {name: np.concatenate([q[name] for q in quartic], axis=1) for name in quartic[0]}
    unit2 = {"c_norm_unit": quadratic["c_norm"]}
    if "quad_clo" in quadratic:
        unit2["quad_clo_unit"] = quadratic["quad_clo"]
    groups = (
        (lw2, quadratic),
        (lw4, quartic),
        (lw2 - 2 * top[:, None], unit2),
        (lw4 - 4 * top[:, None], {"quad_slo_unit": quartic["quad_slo"]}),
    )
    f = {"scale": np.broadcast_to(np.exp(top), (ks.size, ts.size))}
    for lw, parts in groups:
        w = np.exp(lw)
        # one matrix-vector product per UE, as for a scalar k
        f.update((name, (w @ part[:, :, None])[..., 0]) for name, part in parts.items())
    return {name: _ue_shaped(k, part) for name, part in f.items()}


def mrc_moment_coefficients(cache: EstimatorCache, j: int, k, ts) -> MomentCoefficients:
    """Evaluate the power-summed coefficients for UE k of cell j at channel
    uses ts; ``k`` may be an array of UE indices, which puts its shape in
    front of every coefficient (see :class:`MomentCoefficients`).

    The cost does not grow with len(ts): the coefficient forms are
    evaluated once per gap between pilots and every use is rebuilt from
    exact algebra (:func:`_separable_parts`).  Without phase drift every
    use sees the undamped pilots, so one evaluation serves them all.  One
    pass over all UEs of a cell shares the gaps, the pilot blocks and the
    powers among them.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    f = _separable_parts(cache, j, k, ts)
    lin_slo = f["tr_term"] + (f["sXs"] - f["sdx2"])
    if cache.hw.delta == 0.0:
        # both oscillator topologies coincide; reuse one arithmetic path so
        # downstream comparisons are bitwise equal
        lin_clo, quad_clo, quad_clo_unit = lin_slo, f["quad_slo"], f["quad_slo_unit"]
    else:
        lin_clo = f["tr_term"] + f["third_clo"]
        quad_clo, quad_clo_unit = f["quad_clo"], f["quad_clo_unit"]
    return MomentCoefficients(
        j=j,
        k=k,
        ts=ts,
        c_norm=f["c_norm"],
        c_dist=f["c_dist"],
        scale=f["scale"],
        c_norm_unit=f["c_norm_unit"],
        lin_clo=lin_clo,
        lin_slo=lin_slo,
        quad_clo=quad_clo,
        quad_slo=f["quad_slo"],
        quad_clo_unit=quad_clo_unit,
        quad_slo_unit=f["quad_slo_unit"],
    )


@dataclass(frozen=True, eq=False)
class SinrTrajectory:
    """SINR and its denominator terms over a grid of channel uses."""

    ts: np.ndarray
    sinr: np.ndarray
    signal: np.ndarray
    interference: np.ndarray  # total over links, self term not yet removed
    distortion: np.ndarray
    noise: np.ndarray

    def ue(self, u: int) -> "SinrTrajectory":
        """Entry u of the UE axis of a trajectory over several UEs."""
        return SinrTrajectory(
            ts=self.ts, sinr=self.sinr[u], signal=self.signal[u],
            interference=self.interference[u], distortion=self.distortion[u], noise=self.noise[u],
        )


def _sinr_from_moments(
    scenario: Scenario,
    xi: float,
    j: int,
    k: int,
    ts: np.ndarray,
    norm2: np.ndarray,
    first: np.ndarray,
    inter: np.ndarray,
    distortion: np.ndarray,
    trials: int | None = None,
) -> SinrTrajectory:
    """SINR of UE k in cell j at the channel uses ``ts`` from the four
    expectations: filter energy, desired inner product (complex allowed),
    the interference sum_lk p_lk E|v^H h_lk|^2 and the distortion cross
    moment, (nt,) each; with an index array ``k``, (nk, nt), one row per
    UE.

    The denominator subtracts the desired signal from the total
    interference.  With exact moments (``trials=None``) it may undercut
    zero only by rounding, 1e-9 of the positive terms; with sample means
    over ``trials`` trials, by sampling noise down to the floor
    -3 (|interference| + |signal|) / sqrt(trials).  Below its floor it
    raises; between the floor and zero the SINR is infinite, unless the
    signal is zero.
    """
    signal = scenario.powers[j, k, None] * np.abs(first) ** 2
    noise = xi * norm2
    den = inter - signal + distortion + noise
    if trials is None:
        floor = -1e-9 * (inter + distortion + noise)
    else:
        floor = -3.0 * (np.abs(inter) + np.abs(signal)) / math.sqrt(trials)
    bad = den < floor
    if np.any(bad):
        t = np.broadcast_to(ts, den.shape)[bad][0]
        raise NumericalInvariantError(
            f"negative SINR denominator at t={t}: {den[bad][0]} (floor {floor[bad][0]})"
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
    """Vectorized SINR over the coefficient grid for a given multiplicity,
    one row per UE of a pass over several."""
    if (lo_mode or hw.lo_mode) is LoMode.CLO:
        lin, quad = co.lin_clo, co.quad_clo
    else:
        lin, quad = co.lin_slo, co.quad_slo
    e21 = mult * co.c_norm
    inter = mult * lin + mult**2 * quad
    return _sinr_from_moments(scenario, hw.xi, co.j, co.k, co.ts, e21, e21, inter, mult * co.c_dist)


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


# -- asymptotics and hardware scaling laws ----------------------------------


def _asymptote(co: MomentCoefficients, scenario: Scenario, lo_mode: LoMode) -> SinrTrajectory:
    """Large-array SINR limits over the coefficient grid.

    Distortion and receiver noise vanish in the limit; what survives is the
    ratio of the squared signal coefficient to the interference that shares
    its quadratic growth (pilot contamination).  The SINR is +inf where no
    contamination survives: interference minus signal at most 1e-12 of the
    interference.  The ratio is taken at the normalized damping d(t) /
    scale(t), where neither term underflows: c_norm^2 and quad_slo are of
    degree 4 in d(t), so the SLO limit does not depend on the scale, while
    quad_clo is of degree 2, so the CLO signal keeps a factor scale^2.
    """
    if scenario.reduced_dim != scenario.subarrays:
        raise ConfigError("asymptotic analysis needs subarray-factorized covariances")
    p_jk = scenario.powers[co.j, co.k, None]
    signal = p_jk * co.c_norm**2
    sig_u = p_jk * co.c_norm_unit**2
    if lo_mode is LoMode.CLO:
        inter, inter_u = co.quad_clo, co.quad_clo_unit
        sig_u = sig_u * co.scale**2
    else:
        inter, inter_u = co.quad_slo, co.quad_slo_unit
    den = inter_u - sig_u
    with np.errstate(divide="ignore"):
        sinr = np.where(
            den > 1e-12 * np.maximum(inter_u, 1e-300), sig_u / np.maximum(den, 1e-300), np.inf
        )
    zero = np.zeros_like(signal)
    return SinrTrajectory(
        ts=co.ts, sinr=sinr, signal=signal, interference=inter, distortion=zero, noise=zero
    )


@dataclass(frozen=True)
class ScalingExponents:
    """Growth exponents for the impairment triple: kappa2 ~ N^z1, xi ~ N^z2,
    delta ~ (1 + z3 ln N).  The baselines they scale from belong to the
    caller: a :class:`HardwareProfile` for :func:`scaled_profile`, the drift
    variance ``delta_0`` for :func:`check_scaling_law`."""

    z1: float
    z2: float
    z3: float

    def __post_init__(self):
        if min(self.z1, self.z2, self.z3) < 0:
            raise ValueError("scaling exponents must be >= 0")


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
    through the distance from t to the nearest pilot and the baseline drift
    variance ``delta_0``.
    """
    if delta_0 is not None and delta_0 < 0:
        raise ValueError(f"baseline drift variance delta_0 must be >= 0, got {delta_0}")
    base = max(exp.z1, exp.z2)
    if lo_mode is LoMode.CLO:
        margin = 0.5 - base
        return ScalingLawReport(satisfied=(margin >= 0.0) and exp.z3 == 0.0, margin=margin, lhs=base)
    if t is None or tau is None or delta_0 is None:
        raise ValueError("separate-oscillator check needs t, the pilot times and delta_0")
    gap = min(abs(float(t) - float(x)) for x in tau)
    lhs = base + exp.z3 * delta_0 * gap / 2.0
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
