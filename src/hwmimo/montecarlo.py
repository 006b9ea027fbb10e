"""Monte Carlo evaluation of the uplink SINR expectations for arbitrary
receive filters.

Each trial draws channels, phase-drift trajectories and noises, forms the
stacked pilot observation, estimates channels, builds the receive filter and
accumulates the four quantities entering the SINR: filter energy, desired
inner product, per-link interference power and the distortion cross moment.
The distortion moment is computed through its conditional variance given the
channel draw (no distortion samples needed), which removes an entire noise
source from the estimate without changing its expectation.

Trials are split into fixed-size chunks, each driven by its own counter-based
substream and reduced in chunk order, so results are bit-identical for any
thread count.  A chunk's products run on consecutive tiles of its trials;
every product is per trial, so the tile size does not change a bit either.
"""

import contextlib
import ctypes
import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import draw_world, world_bytes
from .estimator import EstimatorCache, error_covariance
from .model import HardwareProfile, Scenario
from .rates import RateReport, SinrTrajectory, _sinr_from_moments, ergodic_rate

_CHUNK_TARGET_BYTES = 64 * 2**20  # trials per chunk, and so the random stream
_TILE_TARGET_BYTES = 8 * 2**20  # trials per tile of a chunk: the size of its temporaries
_BATCHES = 100  # batch means behind every standard error


class FilterKind(str, Enum):
    MRC = "mrc"
    MMSE = "mmse"


@dataclass(frozen=True)
class McConfig:
    """Trial count, master seed and worker-thread count of one simulation.

    The receive filter is an argument of each entry point, not a field
    here.  Results do not depend on ``threads``: trials run in fixed-size
    chunks, each on its own substream, reduced in chunk order.
    """

    trials: int
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True, eq=False)
class McMoments:
    """Sample means of the four SINR expectations at channel uses ``ts``,
    with batch-means standard errors; every array leads with the
    channel-use axis.  ``first`` keeps its imaginary part so tests can
    verify it is statistically zero."""

    trials: int
    ts: np.ndarray  # (nt,)
    norm2: np.ndarray  # (nt,)
    norm2_se: np.ndarray
    first: np.ndarray  # (nt,) complex
    first_se: np.ndarray
    second: np.ndarray  # (nt, L, K)
    second_se: np.ndarray
    distortion: np.ndarray  # (nt,)
    distortion_se: np.ndarray


def _batch_se(values: np.ndarray) -> np.ndarray:
    """Standard error along the first axis via batch means; for complex
    values, sqrt(var re + var im) of the batch means."""
    n = values.shape[0]
    nb = min(_BATCHES, n)
    means = np.stack([chunk.mean(axis=0) for chunk in np.array_split(values, nb)])
    if nb < 2:
        return np.zeros(means.shape[1:])
    return means.std(axis=0, ddof=1) / math.sqrt(nb)


def mmse_filter(
    estimates: np.ndarray,
    error_covs: np.ndarray,
    scenario: Scenario,
    hw: HardwareProfile,
    j: int,
    k: int,
) -> np.ndarray:
    """Approximate MMSE receive filter for UE k of cell j.

    estimates: (L, K, N) estimated effective channels at the time of
    interest; error_covs: (L, K, N) diagonals of the estimation error
    covariances.  A leading trial axis is allowed on ``estimates``.  The
    regularizing xi*I keeps the system solvable for any estimate quality.

    Per trial the system matrix is

        sum_lk p_lk hhat hhat^H + diag(e + kappa2 (g + e)) + xi I,

    with e = sum_lk p_lk C_lk and g = sum_lk p_lk |hhat|^2.  The Gram sum
    is one batched GEMM, M = flat^T @ (p * conj(flat)) with flat the
    (L*K, N) estimates of a trial, and g = Re diag(M), so the energy term
    is read off the Gram matrix rather than summed again.
    """
    single = estimates.ndim == 3
    est = estimates[None] if single else estimates
    c, N = est.shape[0], est.shape[-1]
    flat = est.reshape(c, -1, N)
    p = scenario.powers.reshape(-1, 1)
    w = np.empty_like(flat)  # p * conj(flat), the one (c, L*K, N) temporary, in one pass
    np.multiply(flat.real, p, out=w.real)
    np.multiply(flat.imag, -p, out=w.imag)
    M = np.matmul(flat.transpose(0, 2, 1), w)
    idx = np.arange(N)
    energy = M[:, idx, idx].real
    err = np.einsum("lk,lkn->n", scenario.powers, error_covs)
    M[:, idx, idx] += err + hw.kappa2 * (energy + err) + hw.xi
    v = np.linalg.solve(M, est[:, j, k, :][..., None])[..., 0]
    return v[0] if single else v


def _group_sizes(trials: int, per_trial_bytes: int, target_bytes: int) -> list:
    """Consecutive group sizes summing to ``trials``: as many trials as fit
    ``target_bytes`` per group (one at least), the remainder last."""
    size = max(1, min(trials, target_bytes // max(per_trial_bytes, 1)))
    n_full, rem = divmod(trials, size)
    return [size] * n_full + ([rem] if rem else [])


def _chunk_sizes(trials: int, per_trial_bytes: int) -> list:
    return _group_sizes(trials, per_trial_bytes, _CHUNK_TARGET_BYTES)


# (get, set) thread-count symbols: numpy >= 2 wheels, numpy 1.x wheels,
# a system OpenBLAS
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_threads():
    """``(get, set)`` of the thread count of numpy's BLAS, or None when it
    exposes no OpenBLAS control.  Loading numpy's own linalg module returns
    its existing handle, whose symbol lookup covers the BLAS it links."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        try:
            get, put = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def _blas_split(workers: int):
    """Divide the BLAS thread count among ``workers`` pool workers (at
    least one thread each) for the duration of the block, then restore it."""
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(max(1, before // workers))
    try:
        yield
    finally:
        put(before)


def _fan_out(fn, jobs: list, threads: int) -> list:
    """``[fn(job) for job in jobs]``, on a thread pool when ``threads > 1``
    and there is more than one job.  Results keep the order of ``jobs``.
    While the pool runs its workers split the BLAS threads (one each at
    least), so pool and BLAS threads do not oversubscribe the cores."""
    if threads > 1 and len(jobs) > 1:
        workers = min(threads, len(jobs))
        with _blas_split(workers), ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _over_chunks(cache: EstimatorCache, j: int, ts: np.ndarray, mc: McConfig,
                 extra_bytes: int, sample) -> tuple:
    """Run ``sample(tile)`` on consecutive trial tiles of every chunk of
    ``mc.trials`` trials and join the per-trial arrays it returns in trial
    order.  Each chunk draws one world ``(h, rot_ts, psi)`` of cell j at
    the channel uses ``ts`` from its own substream; a tile is a slice of it
    along the trial axis.  A trial is budgeted its world plus
    ``extra_bytes``: chunks fill ``_CHUNK_TARGET_BYTES`` and tiles the
    smaller ``_TILE_TARGET_BYTES``, so a tile's temporaries stay small."""
    scen, hw, book = cache.scenario, cache.hw, cache.book
    per_trial = world_bytes(scen, hw, book, ts) + extra_bytes

    def run(job):
        idx, size = job
        world = draw_world(scen, hw, book, j, ts, idx, size, mc.seed)
        edges = list(itertools.accumulate(_group_sizes(size, per_trial, _TILE_TARGET_BYTES),
                                          initial=0))
        return [sample(tuple(a[lo:hi] for a in world)) for lo, hi in zip(edges, edges[1:])]

    chunks = _fan_out(run, list(enumerate(_chunk_sizes(mc.trials, per_trial))), mc.threads)
    return tuple(np.concatenate(v) for v in zip(*(tile for tiles in chunks for tile in tiles)))


def _simulate_tile(
    cache: EstimatorCache,
    j: int,
    k: int,
    world: tuple,
    gains: list,
    error_covs: np.ndarray | None,
) -> tuple:
    """Per-trial samples of the four SINR ingredients at each channel use,
    all from one ``world`` tile: ``(norm2, first, second, distortion)`` of
    shapes (size, nt), (size, nt), (size, nt, L, K) and (size, nt).
    ``gains[it]`` is the reduced gain of the channel use ``it``: of link
    (j, k) for the MRC filter, which takes ``error_covs`` None, or the L*K
    gains stacked for the MMSE filter, which reads ``error_covs``, the
    (nt, L, K, N) error covariance diagonals."""
    scen, hw = cache.scenario, cache.hw
    L, K, N = scen.L, scen.K, scen.N
    h, rot_ts, psi = world
    size = h.shape[0]
    links = h.reshape(size, L * K, N)
    power = np.abs(links)
    power *= power
    dist_weight = np.matmul(scen.powers.reshape(-1), power)  # (size, N)
    del power
    dist_weight *= hw.kappa2

    nt = len(gains)
    norm2 = np.empty((size, nt))
    first = np.empty((size, nt), dtype=complex)
    second = np.empty((size, nt, L, K))
    distortion = np.empty((size, nt))
    for it, gain in enumerate(gains):
        v = cache.apply_reduced_gain(gain, psi)
        if error_covs is not None:
            # all L*K estimates from one product: stacked gain row (lk, a)
            # lands on antenna lk*N + a*mult + r, so the reshape is a view
            v = mmse_filter(v.reshape(size, L, K, N), error_covs[it], scen, hw, j, k)
        # v^H h(t) with h(t) = rot(t) * h, without forming h(t): one GEMV per trial
        vc = v.conj()
        inner = np.matmul(links, (vc * rot_ts[:, it, :])[..., None]).reshape(size, L, K)
        norm2[:, it] = np.einsum("sn,sn->s", vc, v).real
        first[:, it] = inner[:, j, k]
        second[:, it] = np.abs(inner) ** 2
        distortion[:, it] = np.einsum("sn,sn->s", np.abs(v) ** 2, dist_weight)
    return norm2, first, second, distortion


def estimate_moments(
    cache: EstimatorCache,
    filter_kind: FilterKind,
    j: int,
    k: int,
    ts,
    mc: McConfig,
) -> McMoments:
    """Sample means of the four SINR expectations for UE k of cell j at the
    channel uses ``ts``, for the scenario, hardware and pilot book of
    ``cache``.  Every chunk of trials draws one world (channels, phase
    trajectories, pilot observations) shared by all of ``ts``."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    L, K, N = cache.scenario.L, cache.scenario.K, cache.scenario.N
    extra = 16 * ts.size * (L * K + 4)
    # gains and error covariances depend on the channel use only; one set
    # serves every chunk and tile
    if filter_kind is FilterKind.MRC:
        gains, ecovs = [cache.reduced_gain(j, j, k, t) for t in ts], None
    else:
        extra += 16 * (L * K * N + N * N)
        gains = [np.concatenate([cache.reduced_gain(j, l, m, t)
                                 for l in range(L) for m in range(K)]) for t in ts]
        ls, ks = np.indices((L, K))
        ecovs = np.stack([error_covariance(cache, j, ls, ks, t)[0] for t in ts])
    norm2, first, second, distortion = _over_chunks(
        cache, j, ts, mc, extra,
        lambda tile: _simulate_tile(cache, j, k, tile, gains, ecovs),
    )
    return McMoments(
        trials=mc.trials,
        ts=ts,
        norm2=norm2.mean(axis=0),
        norm2_se=_batch_se(norm2),
        first=first.mean(axis=0),
        first_se=_batch_se(first),
        second=second.mean(axis=0),
        second_se=_batch_se(second),
        distortion=distortion.mean(axis=0),
        distortion_se=_batch_se(distortion),
    )


def _rate_from_means(
    cache: EstimatorCache, j: int, k: int, m: McMoments
) -> tuple[float, SinrTrajectory]:
    """Rate and per-time SINR of UE k in cell j from the sample means ``m``
    of the four expectations at the channel uses ``m.ts``, estimated on
    ``cache``; the SINR takes the sampled-moment denominator floor of
    :func:`rates._sinr_from_moments`."""
    scen = cache.scenario
    inter = np.einsum("lk,tlk->t", scen.powers, m.second)
    traj = _sinr_from_moments(
        scen, cache.hw.xi, j, k, m.ts, m.norm2, m.first, inter, m.distortion, trials=m.trials
    )
    return ergodic_rate(traj.sinr, scen.T, cache.book.B), traj


def mc_rate(
    cache: EstimatorCache, filter_kind: FilterKind, mc: McConfig, j: int, k: int
) -> RateReport:
    """Simulated ergodic rate of UE k in cell j: SINR assembled from the MC
    expectations at every data channel use, then averaged with the pilot
    overhead pre-log."""
    m = estimate_moments(cache, filter_kind, j, k, cache.book.data_times(), mc)
    rate, traj = _rate_from_means(cache, j, k, m)
    return RateReport(rate=rate, ts=m.ts, sinr=traj.sinr)


def empirical_mse(
    cache: EstimatorCache, j: int, l: int, k: int, ts, mc: McConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Sample-mean squared estimation error ||h(t) - hhat(t)||^2 at each
    requested channel use, with batch-means standard errors; the Monte Carlo
    counterpart of the closed-form error covariance trace."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    gains = [cache.reduced_gain(j, l, k, t) for t in ts]

    def sample(world):
        h, rot_ts, psi = world
        out = np.empty((h.shape[0], ts.size))
        for it, gain in enumerate(gains):
            est = cache.apply_reduced_gain(gain, psi)
            h_t = rot_ts[:, it, :] * h[:, l, k, :]
            out[:, it] = np.sum(np.abs(h_t - est) ** 2, axis=-1)
        return (out,)

    (errs,) = _over_chunks(cache, j, ts, mc, 16 * ts.size * 2, sample)
    return errs.mean(axis=0), _batch_se(errs)
