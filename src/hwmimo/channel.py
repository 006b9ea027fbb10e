"""Random realizations of the impaired uplink at a receiving cell's pilot
times: block-fading channels, Wiener phase-drift trajectories, distortion
and receiver noise, and the stacked pilot observation they produce.

The observation of cell j at pilot time tau_b is

    y_j(tau_b) = diag(exp(i phi_j(tau_b))) * sum_l H_jl x_l(tau_b) + upsilon_j(tau_b) + eta_j(tau_b)

where the phase-drifts phi follow a random walk with innovation variance
``delta`` (one walk per antenna for SLOs, one per cell for a CLO), the
distortion noise upsilon has per-antenna variance proportional to the
received pilot power at that antenna for the given channel realization,
and eta is amplified receiver noise of variance ``xi``.  Samples at data
times are never drawn.

A chunk's world is drawn tile by tile: each tile of trials is drawn when
it is reached, and every tile's channels are drawn on a helper thread, the
next tile's while the caller works on the current one, so a chunk holds
one tile's world and the next tile's channels at a time.  A tile holds the
arrays it returns plus blocks of at most about 1 MiB (``_BLOCK_BYTES``, or
one trial when a trial is wider) and the pilot-sized distortion variance
and noise; it forms no whole-tile ``|h|^2`` and no rotation at a time it
does not use.  The ``|h|^2`` blocks give both the pilots' distortion
variance and the data-time distortion weight a pass reads, so ``|h|^2`` is
formed once per tile.
Each entity's substream is consumed by one thread in trial order (see
:mod:`hwmimo.rng`), so neither the tile cuts nor the helper change a number.
"""

import itertools
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import rng as _rng
from .model import HardwareProfile, LoMode, Scenario
from .pilots import PilotBook

_BLOCK_BYTES = 2**20  # bytes of the trial blocks in which a draw forms |h|^2


def phase_correlation(delta: float, dt) -> np.ndarray | float:
    """Correlation E{exp(i phi(t1)) exp(-i phi(t2))} of a Wiener phase-drift
    with innovation variance delta, as a function of dt = t1 - t2."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return np.exp(-0.5 * delta * np.abs(dt))


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array in ascending order, as np.unique
    gives them.  np.unique imports numpy.ma on first use, about 13 ms on a
    2-core VM, which a short Monte Carlo run would pay in its wall time."""
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def draw_phases(
    delta: float,
    times,
    n_osc: int,
    rng: np.random.Generator,
    trials: int,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Sample Wiener phase trajectories at the given (sorted, 1-based) times.

    Only phase differences and the marginal modulo 2*pi matter downstream,
    so the walk starts from a uniform phase at the first requested time:
    ``start`` (trials, n_osc) when given, else drawn from ``rng`` before
    the increments.  Returns shape (trials, len(times), n_osc).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    phi = np.empty((trials, times.size, n_osc))
    phi[:, 0, :] = rng.uniform(0.0, 2.0 * np.pi, size=(trials, n_osc)) if start is None else start
    if times.size > 1:
        gaps = np.diff(times)
        std = np.sqrt(delta * gaps)
        incr = rng.standard_normal((trials, times.size - 1, n_osc))
        incr *= std[:, None]
        np.cumsum(incr, axis=1, out=incr)
        np.add(phi[:, :1, :], incr, out=phi[:, 1:, :])
    return phi


def world_bytes(scenario: Scenario, hw: HardwareProfile, book: PilotBook, ts) -> int:
    """Bytes per trial of a :func:`draw_world` world at the channel uses ``ts``:
    channels and their power, observation and distortion variance, per (time,
    oscillator) phase, increment and rotation, and rotations at pilots and ``ts``.

    It sizes both the chunk partition and, with a pass's own temporaries
    and the next tile's channels drawn ahead, a chunk's tiles, so it counts
    a tile's world per trial.  The draw forms ``|h|^2`` a block of trials
    at a time (keeping only the N-wide distortion weight of it) and
    rotations at the pilots and ``ts`` only, so a tile holds less than
    this count.  The count keeps them, and leaves out the
    channels drawn ahead, because it sizes the chunks, and the chunk sizes
    key the stream."""
    L, K, N, B = scenario.L, scenario.K, scenario.N, book.B
    n_times = len(set(book.tau) | set(np.asarray(ts).tolist()))
    n_osc = N if hw.lo_mode is LoMode.SLO else 1
    return 24 * (L * K * N + B * N) + n_osc * (32 * n_times + 16 * (B + np.size(ts)))


def draw_world(
    scenario: Scenario,
    hw: HardwareProfile,
    book: PilotBook,
    j: int,
    ts: np.ndarray,
    chunk_index: int,
    size: int,
    seed: int,
    tiles=None,
):
    """One chunk of ``size`` trials seen by cell j, as an iterator of one
    world per tile: ``tiles`` are consecutive trial counts summing to
    ``size`` (default one tile of all).  A world of n trials holds the
    channels h (n, L, K, N), the phase rotations rot_ts (n, len(ts), n_osc)
    at the channel uses ``ts``, the stacked pilot observation psi
    (n, B*N), pilot-time major, and the distortion weight
    kappa2 sum_lk p_lk |h_lk|^2 (n, N), from the same ``|h|^2`` blocks as
    the pilots' distortion variance.
    Each entity has its own substream keyed (seed, chunk_index, j, entity);
    ``seed`` may be a (seed, drop) pair (see :func:`rng.substream`).  The
    chunk's phase starts are drawn on the call; everything else of a tile
    is drawn when the iterator reaches it, continuing each substream, so the
    tiles joined are the one-tile world bit for bit.  The iterator starts
    one helper thread that draws every tile's channels, each next tile's
    while the caller works on the current one, and joins it when it is
    exhausted or closed; the channel substream is consumed on the helper
    alone, in trial order, and the others on the caller's thread."""
    L, K, N, B = scenario.L, scenario.K, scenario.N, book.B
    lam = np.repeat(scenario.cov[j], scenario.multiplicity, axis=-1)  # (L, K, N)
    tau = np.asarray(book.tau, dtype=int)
    times = sorted_unique(np.concatenate([tau.astype(float), ts]))
    where = {t: i for i, t in enumerate(times)}
    at_tau = [where[float(t)] for t in tau]
    at_ts = [where[float(t)] for t in ts]
    n_osc = N if hw.lo_mode is LoMode.SLO else 1
    channel, phases, distortion, noise = (
        _rng.substream(seed, chunk_index, j, entity)
        for entity in (_rng.CHANNEL, _rng.PHASE, _rng.DISTORTION, _rng.RECEIVER_NOISE))
    starts = phases.uniform(0.0, 2.0 * np.pi, size=(size, n_osc))
    # the pilot sums over the L*K links are one GEMM per trial: (B, L*K) @ (L*K, N)
    seq = book.sequences.transpose(1, 0, 2).reshape(B, L * K)
    seq2 = np.abs(seq) ** 2
    p = scenario.powers.reshape(L * K)

    def tile(lo, hi, ahead):
        n = hi - lo
        phi = draw_phases(hw.delta, times, n_osc, phases, n, start=starts[lo:hi])
        rot_tau = np.exp(1j * phi[:, at_tau, :])  # (n, B, n_osc)
        rot_ts = np.exp(1j * phi[:, at_ts, :])  # (n, nt, n_osc)
        del phi
        h = ahead.result()  # the channels, drawn on the helper
        links = h.reshape(n, L * K, N)
        psi = np.matmul(seq, links)  # the clean observation, (n, B, N)
        psi *= rot_tau
        del rot_tau
        # received pilot power, (n, B, N), and the distortion weight, (n, N),
        # from |h|^2 one block of trials at a time
        ups_var = np.empty((n, B, N))
        weight = np.empty((n, N))
        rows = max(1, min(n, _BLOCK_BYTES // (8 * L * K * N)))
        power = np.empty((rows, L * K, N))
        for a in range(0, n, rows):
            block = power[: min(rows, n - a)]
            np.abs(links[a : a + rows], out=block)
            block *= block
            np.matmul(seq2, block, out=ups_var[a : a + rows])
            np.matmul(p, block, out=weight[a : a + rows])
            del block  # a view would keep power alive past the loop
        del power
        ups_var *= hw.kappa2
        weight *= hw.kappa2
        psi += _rng.complex_normal(distortion, ups_var, (n, B, N))
        del ups_var
        psi += _rng.complex_normal(noise, hw.xi, (n, B, N))
        return h, rot_ts, psi.reshape(n, B * N), weight

    def channels(lo, hi):
        return _rng.complex_normal(channel, lam, (hi - lo, L, K, N))

    def worlds(spans):
        # numpy's normal fill releases the GIL, so the helper's draw of the
        # next tile's channels overlaps the caller's products on this one
        with ThreadPoolExecutor(max_workers=1) as helper:
            pending = [helper.submit(channels, *spans[0])]
            for i, (lo, hi) in enumerate(spans):
                if i + 1 < len(spans):
                    pending.append(helper.submit(channels, *spans[i + 1]))
                yield tile(lo, hi, pending.pop(0))

    edges = list(itertools.accumulate(tiles or [size], initial=0))
    return worlds(list(zip(edges, edges[1:])))
