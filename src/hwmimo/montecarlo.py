"""Monte Carlo evaluation of the uplink SINR expectations for arbitrary
receive filters.

Each trial draws channels, phase-drift trajectories and noises, forms the
stacked pilot observation, estimates channels, builds the receive filter and
accumulates the four quantities entering the SINR: filter energy, desired
inner product, per-link interference power and the distortion cross moment.
The distortion moment is computed through its conditional variance given the
channel draw (no distortion samples needed), which removes an entire noise
source from the estimate without changing its expectation.

Trials are split into chunks sized by one trial's world alone, each driven
by its own counter-based substream keyed (seed, drop, chunk), and run in
chunk order, so every pass at the same channel uses draws the same worlds.
A chunk's world is drawn, and its products run, tile by tile, on tiles of
its trials sized by the world plus the pass's own temporaries, so a chunk
holds one tile's world at a time; one helper thread draws the next tile's
channels meanwhile, and they are counted in the tile too.  Each of the
world's substreams is consumed by one thread in trial order and every
product is per trial, so neither the tile size nor the helper changes a
bit.  The UEs of a cell share each world, and each tile folds into running
sums as soon as it is made, so memory does not grow with the trial count.

A pass (:func:`estimate_moments`, :func:`empirical_mse`) runs BLAS at one
thread from its first product to its last.  Its products are small, and
an OpenBLAS worker woken by one spins for about 0.1 s after it, a second
core's CPU bought for no speed.  A pass's one concurrency is the helper
thread that draws each next tile's channels while its products run
(numpy's normal fill releases the GIL).

The MMSE filter runs in the r = B*Ae dimensional pilot subspace that every
estimate of the cell lies in (:func:`mmse_filter`).  The UEs' own gains,
and the filter's error diagonal and pilot-subspace Gram (:func:`_mmse_use`),
are formed once per channel use; per trial it takes O(B^2 N + B r^2 + r^3)
block products and one r x r solve per UE, and forms no other link's
estimate or gain.
From r = N on, as for every per-antenna covariance (Ae = N, r = B*N), it
builds the N x N system from Gamma's blocks instead.
"""

import contextlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import draw_world, world_bytes
from .estimator import EstimatorCache, _one_blas_thread, error_covariance
from .model import HardwareProfile, Scenario
from .rates import _sinr_from_moments, ergodic_rate

_CHUNK_TARGET_BYTES = 64 * 2**20  # world bytes per chunk: its trials, and so the random stream
_TILE_TARGET_BYTES = 8 * 2**20  # trials per tile of a chunk: the size of its temporaries
_BATCHES = 100  # batch means behind every standard error
_FOLD_NARROW_BYTES = 1024  # trials up to this size fold in blocks, wider ones one by one
_FOLD_BLOCK_BYTES = 64 * 2**10  # trials per block of a narrow fold


class FilterKind(str, Enum):
    MRC = "mrc"
    MMSE = "mmse"


@dataclass(frozen=True)
class McConfig:
    """Trial count and master seed of one simulation.

    ``seed`` is a seed or a drop's ``(seed, drop)`` ((s, 0) is s); trials
    run in chunks sized by the world alone, each on its substream keyed
    (seed, drop, chunk), reduced in order.
    """

    trials: int
    seed: int | tuple[int, int] = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True, eq=False)
class McMoments:
    """Sample means of the four SINR expectations at channel uses ``ts``,
    with batch-means standard errors; every array leads with the
    channel-use axis, after the shape of an index array of UEs.  ``first``
    keeps its imaginary part so tests can verify it is statistically zero."""

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


def mmse_filter(
    estimates: np.ndarray,
    error_diag: np.ndarray,
    scenario: Scenario,
    hw: HardwareProfile,
    psi: np.ndarray,
    gram: np.ndarray,
) -> np.ndarray:
    """Approximate MMSE receive filters of the UEs whose own estimates are
    ``estimates``, (nk, trials, N), one per UE and trial, from the trials'
    stacked pilot observations ``psi``, (trials, B*N).  The regularizing
    xi*I keeps the system solvable for any estimate quality.

    Per trial the system matrix is

        sum_lk p_lk hhat hhat^H + D,   D = diag(e + kappa2 (g + e)) + xi I,

    with e = sum_lk p_lk C_lk (``error_diag``, (N,)) and g = sum_lk p_lk
    |hhat|^2.  Every estimate of the cell is hhat_lk = F g_lk: F (N x r,
    r = B*Ae) holds the trial's pilot observations block-diagonally, those
    of subarray a (B x N/Ae) in its antennas' rows and columns a*B..(a+1)*B,
    and g_lk the link's own-subarray gain entries.  The Gram sum is then
    F Gamma F^H with ``gram`` Gamma = sum_lk p_lk g_lk g_lk^H, the same
    (r, r) matrix for every trial, and g = Re diag(F Gamma F^H) needs only
    Gamma's diagonal B x B blocks.  Woodbury gives

        v = D^-1 (hhat - F Gamma (I + S Gamma)^-1 F^H D^-1 hhat),

    with S = F^H D^-1 F block-diagonal (Ae blocks of B x B).  Per trial
    that costs O(B^2 N + B r^2 + r^3) instead of the O(L*K*N^2 + N^3) of
    the system built from all estimates, and r does not grow with N.  From
    r = N on (B >= N/Ae, as for every per-antenna covariance, Ae = N, where
    r = B*N) the r x r system costs more than the N x N one, so the filter
    builds D + F Gamma F^H from Gamma's blocks, O(B^2 Ae N + B N^2), and
    solves that.  A solve on several BLAS workers, or of several
    right-hand sides, may return other last bits, so each UE takes one
    solve per trial at one thread.
    """
    nk, c, N = estimates.shape
    Ae = scenario.reduced_dim
    r = gram.shape[0]
    B, mult = r // Ae, N // Ae
    f = psi.reshape(c, B, Ae, mult).transpose(0, 2, 1, 3).copy()  # F's blocks, (c, Ae, B, mult)
    fc = f.conj()
    ft = f.swapaxes(-1, -2)
    g4 = gram.reshape(Ae, B, Ae, B)
    ar = np.arange(Ae)
    energy = np.einsum("sabm,sabm->sam", f, np.matmul(g4[ar, :, ar, :], fc)).real
    err = error_diag.reshape(Ae, mult)
    d = err + hw.kappa2 * (energy + err) + hw.xi  # (c, Ae, mult)
    if r >= N:
        # the dense system D + F Gamma F^H: Gamma F^H by F's column blocks
        # b, (c, b, r, mult), laid out by rows, then F's row blocks
        gf = np.matmul(g4.transpose(2, 0, 1, 3).reshape(Ae, r, B), fc)
        gf = gf.reshape(c, Ae, Ae, B, mult).transpose(0, 2, 3, 1, 4).reshape(c, Ae, B, N)
        system = np.matmul(ft, gf).reshape(c, N, N)
        idx = np.arange(N)
        system[:, idx, idx] += d.reshape(c, N)
        with _one_blas_thread():  # the same bits at any BLAS thread count
            return np.stack([np.linalg.solve(system, h[..., None])[..., 0] for h in estimates])
    s = np.matmul(fc / d[:, :, None, :], ft)  # S's blocks, (c, Ae, B, B)
    system = np.matmul(s, gram.reshape(Ae, B, r)).reshape(c, r, r)
    idx = np.arange(r)
    system[:, idx, idx] += 1.0
    hs = estimates.reshape(nk, c, Ae, mult)
    rhs = [np.matmul(fc, (h / d)[..., None]).reshape(c, r, 1) for h in hs]
    with _one_blas_thread():  # the same bits at any BLAS thread count
        sol = [np.linalg.solve(system, x) for x in rhs]
    v = np.stack([h - np.matmul(ft, np.matmul(gram, z).reshape(c, Ae, B, 1))[..., 0]
                  for h, z in zip(hs, sol)])
    v /= d
    return v.reshape(nk, c, N)


def _group_sizes(trials: int, per_trial_bytes: int, target_bytes: int) -> list:
    """Consecutive group sizes summing to ``trials``: as many trials as fit
    ``target_bytes`` per group (one at least), the remainder last."""
    size = max(1, min(trials, target_bytes // max(per_trial_bytes, 1)))
    n_full, rem = divmod(trials, size)
    return [size] * n_full + ([rem] if rem else [])


def _chunk_sizes(trials: int, per_trial_bytes: int) -> list:
    return _group_sizes(trials, per_trial_bytes, _CHUNK_TARGET_BYTES)


def _add_in_order(row: np.ndarray, trials: np.ndarray) -> None:
    """Add ``trials`` (leading axis) to ``row`` in place, one after another.
    Narrow trials go in blocks through ``np.add.accumulate`` over ``[row;
    block]``, which adds in sequence too, so the bits are those of one
    in-place add per trial without a Python step per trial.  Wide trials,
    and runs too short to pay for a block's two copies, add one by one."""
    per_trial = trials.itemsize * row.size
    if per_trial > _FOLD_NARROW_BYTES or len(trials) < 4:
        for x in trials:
            row += x
        return
    step = _FOLD_BLOCK_BYTES // max(per_trial, 1)
    for lo in range(0, len(trials), step):
        work = np.concatenate([row[None], trials[lo:lo + step]])
        np.add.accumulate(work, axis=0, out=work)
        row[...] = work[-1]


def _fold(tiles, trials: int) -> list:
    """``[(mean, se), ...]`` of each per-trial array of the ``tiles``
    (tuples of arrays that lead with their trials, ``trials`` in all),
    folded in trial order as the tiles come.  Only the running sum and the
    sums of the at most ``_BATCHES`` batches of ``np.array_split`` are
    kept, and each segment of a tile that falls in one batch is added to
    its two sums in place (:func:`_add_in_order`), so no tile is copied.
    The sums start at -0.0, which adds as the identity, and add one trial
    at a time, so wherever the tiles are cut a mean with more than one
    value per trial is numpy's ``mean(axis=0)`` of the joined trials bit
    for bit (numpy sums a single column pairwise).  The SE is the spread
    of the batch means over sqrt(batches), for complex values sqrt(var re
    + var im)."""
    nb = min(_BATCHES, trials)
    sizes = np.full(nb, trials // nb)
    sizes[: trials % nb] += 1
    acc = None  # per array: row 0 the running sum, row 1 + b the sum of batch b
    b, left = -1, 0  # the batch of the last trial, and the trials it still takes
    for tile in tiles:
        if acc is None:
            acc = [-np.zeros((1 + nb, *x.shape[1:]), x.dtype) for x in tile]
        lo, n = 0, len(tile[0])
        while lo < n:
            if not left:  # the segment opens batch b + 1
                b += 1
                left = int(sizes[b])
            hi = min(n, lo + left)
            for a, x in zip(acc, tile):
                _add_in_order(a[0, ...], x[lo:hi])  # views: the adds stay in place
                _add_in_order(a[1 + b, ...], x[lo:hi])
            left -= hi - lo
            lo = hi
    out = []
    for a in acc:
        means = a[1:] / sizes.reshape((nb,) + (1,) * (a.ndim - 1))
        se = means.std(axis=0, ddof=1) / math.sqrt(nb) if nb > 1 else np.zeros(a.shape[1:])
        out.append((a[0] / trials, se))
    return out


def _over_chunks(cache: EstimatorCache, j: int, ts: np.ndarray, mc: McConfig,
                 tile_bytes: int, sample) -> list:
    """Run ``sample(tile)`` on consecutive trial tiles of every chunk of
    ``mc.trials`` trials and :func:`_fold` what it returns in trial order.
    Each chunk makes one :func:`draw_world` call of cell j at the channel
    uses ``ts`` on its own substream, which draws each tile's world
    ``(h, rot_ts, psi)`` only when the tile is reached and the next tile's
    channels ahead on a helper thread, so a chunk holds one tile's world
    and the next tile's channels at a time.  Chunks fill
    ``_CHUNK_TARGET_BYTES`` at the world's bytes per trial alone, so every
    pass at ``ts`` draws the same worlds; tiles the smaller
    ``_TILE_TARGET_BYTES`` at the world plus the channels drawn ahead plus
    ``tile_bytes``, the per-trial temporaries of ``sample``, and their cuts
    change no bit of the world.  Chunks run in order on the calling thread,
    and each tile is folded as it is made."""
    scen, hw, book = cache.scenario, cache.hw, cache.book
    world_size = world_bytes(scen, hw, book, ts)
    ahead_size = 16 * scen.L * scen.K * scen.N  # a trial's channels drawn ahead

    def tiles(idx, size):
        tile_sizes = _group_sizes(size, world_size + ahead_size + tile_bytes,
                                  _TILE_TARGET_BYTES)
        # closed on the way out, also when ``sample`` raises, so its helper ends here
        with contextlib.closing(draw_world(scen, hw, book, j, ts, idx, size, mc.seed,
                                           tile_sizes)) as worlds:
            yield from map(sample, worlds)

    chunks = enumerate(_chunk_sizes(mc.trials, world_size))
    return _fold((tile for idx, size in chunks for tile in tiles(idx, size)), mc.trials)


def _simulate_tile(
    cache: EstimatorCache,
    j: int,
    ues: np.ndarray,
    world: tuple,
    gains: list,
    subspace: list | None,
) -> tuple:
    """Per-trial samples of the four SINR ingredients of the UEs ``ues``
    (a 1-D index array) of cell j at each channel use, all from one
    ``world`` tile: ``(norm2, first, second, distortion)`` of shapes
    (size, nk, nt), (size, nk, nt), (size, nk, nt, L, K) and (size, nk, nt).
    ``gains[it]`` holds the reduced gains of the channel use ``it``, one
    per UE, of its own link; each filter starts from those estimates.  The
    MRC filter is the own estimate, and takes ``subspace`` None; the MMSE
    filter reads ``subspace[it]``, the ``(error_diag, gram)`` of
    :func:`_mmse_use` at that use."""
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

    shape = (size, ues.size, len(gains))
    norm2 = np.empty(shape)
    first = np.empty(shape, dtype=complex)
    second = np.empty(shape + (L, K))
    distortion = np.empty(shape)
    for it, gain in enumerate(gains):
        filters = [cache.apply_reduced_gain(g, psi) for g in gain]
        if subspace is not None:
            err, gram = subspace[it]
            filters = mmse_filter(np.stack(filters), err, scen, hw, psi, gram)
        for u, v in enumerate(filters):
            # v^H h(t) with h(t) = rot(t) * h, without forming h(t): one GEMV per trial
            vc = v.conj()
            inner = np.matmul(links, (vc * rot_ts[:, it, :])[..., None]).reshape(size, L, K)
            norm2[:, u, it] = np.einsum("sn,sn->s", vc, v).real
            first[:, u, it] = inner[:, j, ues[u]]
            second[:, u, it] = np.abs(inner) ** 2
            distortion[:, u, it] = np.einsum("sn,sn->s", np.abs(v) ** 2, dist_weight)
    return norm2, first, second, distortion


def _mmse_use(cache: EstimatorCache, j: int, t) -> tuple:
    """``(error_diag, gram)`` of the MMSE filter of cell j at channel use t:
    the power-weighted error diagonal sum_lk p_lk C_lk and the
    pilot-subspace Gram of :func:`mmse_filter`.  Each link's own-subarray
    gain entries g_lk[a*B + c] = lam_lka sum_b x*_lkb d_b(t) P_a[b, c] come
    from one contraction with the per-subarray blocks P_a of
    :meth:`EstimatorCache.pblocks`, for all L*K links at once."""
    scen, Ae, B = cache.scenario, cache.Ae, cache.B
    L, K = scen.L, scen.K
    dxc = cache.book.sequences.transpose(0, 2, 1).reshape(L * K, B).conj() * cache.d_delta(t)
    g = np.einsum("lb,abc->lac", dxc, cache.pblocks(j)) * cache.lam[j].reshape(L * K, Ae, 1)
    g = g.reshape(L * K, B * Ae)
    gram = g.T @ (scen.powers.reshape(-1, 1) * g.conj())
    ls, ks = np.indices((L, K))
    err = np.einsum("lk,lkn->n", scen.powers, error_covariance(cache, j, ls, ks, t)[0])
    return err, gram


@_one_blas_thread()
def estimate_moments(
    cache: EstimatorCache,
    filter_kind: FilterKind,
    j: int,
    k,
    ts,
    mc: McConfig,
) -> McMoments:
    """Sample means of the four SINR expectations for UE k of cell j at the
    channel uses ``ts``, for the scenario, hardware and pilot book of
    ``cache``.  Every chunk of trials draws one world (channels, phase
    trajectories, pilot observations) shared by all of ``ts`` and all UEs
    of ``k``, a UE index or an index array whose shape then leads every
    moment; each UE gets the bits of a pass for it alone.  The UEs' own
    reduced gains, and for MMSE the :func:`_mmse_use` pair, are formed once
    per channel use and serve every chunk and tile."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    L, K, N = cache.scenario.L, cache.scenario.K, cache.scenario.N
    ues = np.ravel(k)
    # per UE its samples, and its estimate and filter at one use
    tile_bytes = ues.size * (8 * ts.size * (L * K + 4) + 32 * N)
    gains = [[cache.reduced_gain(j, j, u, t) for u in ues.tolist()] for t in ts]
    subspace = None
    if filter_kind is FilterKind.MMSE:
        # the filter's blocks of F and its r x r or N x N system, shared by the UEs
        tile_bytes += 16 * (3 * cache.B * cache.Ae * N + N * N)
        subspace = [_mmse_use(cache, j, t) for t in ts]
    folded = _over_chunks(cache, j, ts, mc, tile_bytes,
                          lambda tile: _simulate_tile(cache, j, ues, tile, gains, subspace))
    # the (mean, se) pairs of norm2, first, second and distortion, in field order
    return McMoments(mc.trials, ts, *(x.reshape(np.shape(k) + x.shape[1:])
                                      for pair in folded for x in pair))


def _rate_from_means(cache: EstimatorCache, j: int, k, m: McMoments) -> tuple:
    """Rate and per-time SINR of UE k in cell j from the sample means ``m``
    of the four expectations at the channel uses ``m.ts``, estimated on
    ``cache``; the SINR takes the sampled-moment denominator floor of
    :func:`rates._sinr_from_moments`.  The rates take the shape of ``k``
    (0-d for a UE index), which also leads the trajectory."""
    scen = cache.scenario
    inter = np.einsum("lk,...tlk->...t", scen.powers, m.second)
    traj = _sinr_from_moments(
        scen, cache.hw.xi, j, k, m.ts, m.norm2, m.first, inter, m.distortion, trials=m.trials
    )
    rates = [ergodic_rate(s, scen.T, cache.book.B) for s in traj.sinr.reshape(-1, m.ts.size)]
    return np.reshape(rates, np.shape(k)), traj


@_one_blas_thread()
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

    # the samples, and the estimate, rotated channel and error at one use
    return _over_chunks(cache, j, ts, mc, 8 * ts.size + 48 * cache.scenario.N, sample)[0]
