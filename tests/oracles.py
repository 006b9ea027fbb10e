"""Reference computations that only the tests call.

:func:`mrc_moments_colocated` and :func:`lmmse_estimate_colocated` are
independent derivations: they work through the B x B pilot system of a
co-located array (A = 1), not the package's per-subarray forms.
:func:`conventional_mmse_estimate` is a third, the classical estimator of
the impairment-free model, :func:`dense_mmse_filter` builds the Monte
Carlo MMSE filter from its N x N system, and :func:`stacked_mmse_use` its
pilot-subspace Gram from the stacked zero-padded reduced gains.
:func:`whole_complex_normal`, :func:`whole_draw_phases` and
:func:`whole_draw_world` define the bits of the package's draws from
whole-shape arrays: one normal fill of (real, imaginary) pairs viewed as
complex and scaled, the walk summed out of place, and a chunk's whole
world with every rotation, and the pilot power and distortion weight of
the whole chunk.

:func:`mrc_moments` evaluates the package's coefficient forms directly at
one channel use's damping, without the separable rebuild of
:func:`hwmimo.rates.mrc_moment_coefficients`, and :func:`full_cov` expands
a scenario's covariances to one value per antenna.
:func:`lmmse_estimate`, :func:`sinr_trajectory`, :func:`ue_rate` and
:func:`asymptotic_sinr` are compositions of package pieces that give one
estimate, trajectory, rate or limit at a time; :func:`loglog_slope` fits the
growth exponent of a power table.  :func:`mean_and_batch_se` reduces a Monte
Carlo sample that holds every trial at once.
"""

import math
from dataclasses import dataclass

import numpy as np

from hwmimo import montecarlo
from hwmimo import rng as _rng
from hwmimo.channel import draw_world, sorted_unique
from hwmimo.estimator import EstimatorCache, error_covariance
from hwmimo.model import LoMode, Scenario, expand_covariance
from hwmimo.rates import (
    SinrTrajectory,
    _asymptote,
    _coefficient_parts,
    _quartic,
    ergodic_rate,
    mrc_moment_coefficients,
    sinr_trajectory_from_coefficients,
)


# -- independent derivations ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class MrcMoments:
    """The four MRC moments at one channel use: E||v||^2, E{v^H h} (equal to
    the first by the estimator's orthogonality), E|v^H h_lm|^2 per link, and
    the distortion cross moment E|v^H upsilon|^2."""

    norm2: float
    first: float
    second: np.ndarray  # (L, K)
    distortion: float


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """LMMSE estimate of one effective channel plus its error statistics.

    ``error_diag`` is the diagonal of the estimation error covariance (the
    full matrix is diagonal here because covariances are diagonal and the
    pilot covariance has Kronecker structure); ``mse`` is its trace.
    """

    hhat: np.ndarray
    error_diag: np.ndarray
    mse: float


def lmmse_estimate_colocated(
    cache: EstimatorCache, psi: np.ndarray, j: int, l: int, k: int, t
) -> EstimateResult:
    """Co-located shortcut: when every link covariance is a scaled identity,
    the estimate is a B-dimensional combination applied identically to all
    antennas.  Computed through the B x B system only; numerically identical
    to :func:`lmmse_estimate`."""
    if cache.Ae != 1:
        raise ValueError("co-located path requires scaled-identity covariances (A = 1)")
    N, B = cache.scenario.N, cache.B
    psi = np.asarray(psi)
    if psi.shape != (B * N,):
        raise ValueError(f"psi must have shape ({B * N},), got {psi.shape}")
    lam_j = cache.lam[j, :, :, 0]  # (L, K)
    omega = np.einsum("lk,lkbc->bc", lam_j, cache.X) + cache.hw.xi * np.eye(B)
    dm = cache.d_delta(t)[0]
    dx = dm * cache.book.sequences[l, :, k]
    sol = np.linalg.solve(omega, dx)  # Omega^{-1} D x
    lam = lam_j[l, k]
    hhat = lam * (sol.conj() @ psi.reshape(B, N))
    c = lam * (1.0 - lam * float(np.real(dx.conj() @ sol)))
    return EstimateResult(hhat=hhat, error_diag=np.full(N, c), mse=float(N * c))


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
    o = np.linalg.solve(omega, dx)
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


def conventional_mmse_estimate(scen, book, psi_vec, j, l, k, sigma2):
    """Classical multi-cell MMSE estimator for the impairment-free model,
    coded independently of the production path."""
    B, N = book.B, scen.N
    lam = full_cov(scen)[j]
    Psi = sigma2 * np.eye(B * N, dtype=complex)
    for ll in range(scen.L):
        for mm in range(scen.K):
            x = book.sequences[ll, :, mm]
            Psi += np.kron(np.outer(x, x.conj()), np.diag(lam[ll, mm]))
    left = np.kron(book.sequences[l, :, k].conj()[None, :], np.diag(lam[l, k]))
    return left @ np.linalg.solve(Psi, psi_vec)


def dense_mmse_filter(estimates, error_covs, scenario, hw, j: int, k: int) -> np.ndarray:
    """MMSE receive filter of UE k of cell j per trial from the dense N x N
    system: ``estimates`` (trials, L, K, N) are all L*K estimated channels,
    ``error_covs`` (L, K, N) their error covariance diagonals.  Per trial
    the system matrix is

        sum_lk p_lk hhat hhat^H + diag(e + kappa2 (g + e)) + xi I,

    with e = sum_lk p_lk C_lk and g = sum_lk p_lk |hhat|^2, g read off the
    Gram's diagonal.  Returns (trials, N)."""
    c, N = estimates.shape[0], estimates.shape[-1]
    flat = estimates.reshape(c, -1, N)
    M = np.matmul(flat.transpose(0, 2, 1), scenario.powers.reshape(-1, 1) * flat.conj())
    idx = np.arange(N)
    energy = M[:, idx, idx].real
    err = np.einsum("lk,lkn->n", scenario.powers, error_covs)
    M[:, idx, idx] += err + hw.kappa2 * (energy + err) + hw.xi
    return np.linalg.solve(M, estimates[:, j, k, :, None])[..., 0]


def mmse_filter_inputs(cache: EstimatorCache, j: int, t, trials: int, seed: int = 0) -> tuple:
    """``(psi, own, error_diag, gram)``: the stacked pilot observations of
    ``trials`` trials of cell j drawn at ``seed``, every UE's own estimate
    at channel use t, (K, trials, N), and the error diagonal and
    pilot-subspace Gram that :func:`hwmimo.montecarlo.mmse_filter` takes
    there."""
    _, _, psi, _ = next(draw_world(cache.scenario, cache.hw, cache.book, j, np.array([float(t)]),
                                   0, trials, seed))
    own = [cache.apply_reduced_gain(cache.reduced_gain(j, j, k, t), psi)
           for k in range(cache.scenario.K)]
    return psi, np.stack(own), *montecarlo._mmse_use(cache, j, t)


def stacked_mmse_use(cache: EstimatorCache, j: int, t) -> tuple:
    """``(error_diag, gram)`` of :func:`hwmimo.montecarlo._mmse_use` from
    the zero-padded pilot-major gains: the L*K reduced gains are stacked,
    (L*K*Ae, B*Ae), and each link's own-subarray entries g_lk[a*B + b] are
    read off the diagonal of its subarray rows and pilot columns."""
    scen, Ae, B = cache.scenario, cache.Ae, cache.B
    L, K = scen.L, scen.K
    stacked = np.concatenate([cache.reduced_gain(j, l, m, t) for l in range(L) for m in range(K)])
    own = np.diagonal(stacked.reshape(L * K, Ae, B, Ae), axis1=1, axis2=3)
    g = own.swapaxes(1, 2).reshape(L * K, B * Ae)
    gram = g.T @ (scen.powers.reshape(-1, 1) * g.conj())
    ls, ks = np.indices((L, K))
    err = np.einsum("lk,lkn->n", scen.powers, error_covariance(cache, j, ls, ks, t)[0])
    return err, gram


def all_link_estimates(cache: EstimatorCache, j: int, t, psi: np.ndarray) -> tuple:
    """The inputs of :func:`dense_mmse_filter` at channel use t: every
    link's estimate from cell j's stacked observations ``psi`` (trials,
    B*N), one reduced gain each, (trials, L, K, N), and the (L, K, N) error
    covariance diagonals."""
    L, K = cache.scenario.L, cache.scenario.K
    est = np.stack([cache.apply_reduced_gain(cache.reduced_gain(j, l, k, t), psi)
                    for l in range(L) for k in range(K)], axis=1)
    ls, ks = np.indices((L, K))
    return est.reshape(psi.shape[0], L, K, -1), error_covariance(cache, j, ls, ks, t)[0]


def whole_complex_normal(rng: np.random.Generator, var, shape) -> np.ndarray:
    """:func:`hwmimo.rng.complex_normal` by its definition: one whole fill
    of (real, imaginary) normal pairs, viewed as complex and scaled."""
    pairs = rng.standard_normal((*shape, 2))
    return pairs.view(complex)[..., 0] * np.sqrt(np.asarray(var, dtype=float) / 2.0)


def whole_draw_phases(delta, times, n_osc, rng, trials) -> np.ndarray:
    """:func:`hwmimo.channel.draw_phases` with its walk summed out of place."""
    times = np.asarray(times, dtype=float)
    phi = np.empty((trials, times.size, n_osc))
    phi[:, 0, :] = rng.uniform(0.0, 2.0 * np.pi, size=(trials, n_osc))
    if times.size > 1:
        std = np.sqrt(delta * np.diff(times))
        incr = rng.standard_normal((trials, times.size - 1, n_osc)) * std[:, None]
        phi[:, 1:, :] = phi[:, :1, :] + np.cumsum(incr, axis=1)
    return phi


def whole_draw_world(scenario, hw, book, j, ts, chunk_index, size, seed) -> tuple:
    """The world of :func:`hwmimo.channel.draw_world` in one piece: the
    chunk's whole channels from every cell's covariance, the rotations at
    every time, and the pilot power and distortion weight from the |h|^2
    of the whole chunk."""
    L, K, N, B = scenario.L, scenario.K, scenario.N, book.B
    lam = full_cov(scenario)[j]
    tau = np.asarray(book.tau, dtype=int)
    h = whole_complex_normal(
        _rng.substream(seed, chunk_index, j, _rng.CHANNEL), lam, (size, L, K, N)
    )
    times = sorted_unique(np.concatenate([tau.astype(float), ts]))
    n_osc = N if hw.lo_mode is LoMode.SLO else 1
    phases = _rng.substream(seed, chunk_index, j, _rng.PHASE)
    rot = np.exp(1j * whole_draw_phases(hw.delta, times, n_osc, phases, size))
    where = {t: i for i, t in enumerate(times)}
    rot_tau = rot[:, [where[float(t)] for t in tau], :]
    rot_ts = rot[:, [where[float(t)] for t in ts], :]
    seq = book.sequences.transpose(1, 0, 2).reshape(B, L * K)
    links = h.reshape(size, L * K, N)
    psi = np.matmul(seq, links)
    power = np.abs(links) ** 2
    ups_var = np.matmul(np.abs(seq) ** 2, power) * hw.kappa2
    weight = np.matmul(scenario.powers.reshape(-1), power) * hw.kappa2
    psi *= rot_tau
    psi += whole_complex_normal(
        _rng.substream(seed, chunk_index, j, _rng.DISTORTION), ups_var, (size, B, N)
    )
    psi += whole_complex_normal(
        _rng.substream(seed, chunk_index, j, _rng.RECEIVER_NOISE), hw.xi, (size, B, N)
    )
    return h, rot_ts, psi.reshape(size, B * N), weight


# -- compositions of package pieces ---------------------------------------------


def full_cov(scenario: Scenario) -> np.ndarray:
    """Covariance diagonals of ``scenario`` expanded to one value per
    antenna, (L, L, K, N)."""
    return expand_covariance(scenario.cov, scenario.N, scenario.reduced_dim)


def mrc_moments(cache: EstimatorCache, j: int, k: int, t, lo_mode: LoMode | None = None) -> MrcMoments:
    """Closed-form MRC moments for UE k of cell j at channel use t, per link.

    The coefficient forms of :func:`hwmimo.rates._coefficient_parts` are
    evaluated directly at the damping d(t); with m = N/A,

        E|v^H h_lk|^2 = m (tr_term + third_<lo>) + m^2 quad_<lo>,

    with third_slo = sXs - sdx2.  Without phase drift the CLO terms are
    the SLO ones, as in :func:`hwmimo.rates.mrc_moment_coefficients`.
    """
    lo = lo_mode or cache.hw.lo_mode
    d = cache.d_delta([t])
    quadratic, amp = _coefficient_parts(cache, j, k, d, d)
    f = {name: part[0] for name, part in {**quadratic, **_quartic(amp, amp)}.items()}
    if lo is LoMode.CLO and cache.hw.delta != 0.0:
        third, quad = f["third_clo"], f["quad_clo"]
    else:
        third, quad = f["sXs"] - f["sdx2"], f["quad_slo"]
    m = cache.mult
    norm2 = float(m * f["c_norm"])
    return MrcMoments(
        norm2=norm2,
        first=norm2,
        second=m * (f["tr_term"] + third) + m**2 * quad,
        distortion=float(m * f["c_dist"]),
    )


def lmmse_estimate(cache: EstimatorCache, psi: np.ndarray, j: int, l: int, k: int, t) -> EstimateResult:
    """Estimate the effective channel of UE k in cell l as seen by cell j at
    channel use t, from cell j's stacked pilot observation psi."""
    psi = np.asarray(psi)
    expected = cache.B * cache.scenario.N
    if psi.shape != (expected,):
        raise ValueError(f"psi must have shape ({expected},), got {psi.shape}")
    gain = cache.reduced_gain(j, l, k, t)
    hhat = cache.apply_reduced_gain(gain, psi)
    diag, mse = error_covariance(cache, j, l, k, t)
    return EstimateResult(hhat=hhat, error_diag=diag, mse=mse)


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


def ue_rate(cache: EstimatorCache, j: int, k: int, lo_mode: LoMode | None = None) -> RateReport:
    """Closed-form ergodic rate for UE k of cell j under MRC."""
    traj = sinr_trajectory(cache, j, k, lo_mode=lo_mode)
    return RateReport(
        rate=ergodic_rate(traj.sinr, cache.scenario.T, cache.B), ts=traj.ts, sinr=traj.sinr
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


def mean_and_batch_se(values: np.ndarray, batches: int = 100) -> tuple:
    """Mean of ``values`` along its first (trial) axis and the batch-means
    standard error over at most ``batches`` batches of ``np.array_split``;
    for complex values sqrt(var re + var im) of the batch means."""
    nb = min(batches, values.shape[0])
    means = np.stack([chunk.mean(axis=0) for chunk in np.array_split(values, nb)])
    if nb < 2:
        return values.mean(axis=0), np.zeros(means.shape[1:])
    return values.mean(axis=0), means.std(axis=0, ddof=1) / math.sqrt(nb)


def loglog_slope(ns, totals) -> float:
    """Least-squares slope of log(total) against log(N)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(totals, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
