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
"""

import numpy as np

from . import rng as _rng
from .model import HardwareProfile, LoMode, Scenario
from .pilots import PilotBook


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
) -> np.ndarray:
    """Sample Wiener phase trajectories at the given (sorted, 1-based) times.

    Only phase differences and the marginal modulo 2*pi matter downstream,
    so the walk starts from a uniform phase at the first requested time.
    Returns shape (trials, len(times), n_osc).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    phi = np.empty((trials, times.size, n_osc))
    phi[:, 0, :] = rng.uniform(0.0, 2.0 * np.pi, size=(trials, n_osc))
    if times.size > 1:
        gaps = np.diff(times)
        std = np.sqrt(delta * gaps)
        incr = rng.standard_normal((trials, times.size - 1, n_osc)) * std[:, None]
        phi[:, 1:, :] = phi[:, :1, :] + np.cumsum(incr, axis=1)
    return phi


def world_bytes(scenario: Scenario, hw: HardwareProfile, book: PilotBook, ts) -> int:
    """Bytes per trial of a :func:`draw_world` world at the channel uses ``ts``:
    channels and their power, observation and distortion variance, per (time,
    oscillator) phase, increment and rotation, and rotations at pilots and ``ts``."""
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
):
    """One chunk of ``size`` trials seen by cell j: channels h (size, L, K, N),
    phase rotations rot_ts (size, len(ts), n_osc) at the channel uses ``ts``
    and the stacked pilot observation psi (size, B*N), pilot-time major.
    Each entity has its own substream keyed (seed, chunk_index, j, entity);
    ``seed`` may be a (seed, drop) pair (see :func:`rng.substream`)."""
    L, K, N, B = scenario.L, scenario.K, scenario.N, book.B
    lam = scenario.full_cov()[j]  # (L, K, N)
    tau = np.asarray(book.tau, dtype=int)

    h = _rng.complex_normal(
        _rng.substream(seed, chunk_index, j, _rng.CHANNEL), lam, (size, L, K, N)
    )

    times = sorted_unique(np.concatenate([tau.astype(float), ts]))
    n_osc = N if hw.lo_mode is LoMode.SLO else 1
    phases = _rng.substream(seed, chunk_index, j, _rng.PHASE)
    phi = draw_phases(hw.delta, times, n_osc, phases, trials=size)
    rot = np.exp(1j * phi)  # (size, n_times, n_osc)
    where = {t: i for i, t in enumerate(times)}
    rot_tau = rot[:, [where[float(t)] for t in tau], :]  # (size, B, n_osc)
    rot_ts = rot[:, [where[float(t)] for t in ts], :]  # (size, nt, n_osc)

    # the pilot sums over the L*K links are one GEMM per trial: (B, L*K) @ (L*K, N)
    seq = book.sequences.transpose(1, 0, 2).reshape(B, L * K)
    links = h.reshape(size, L * K, N)
    psi = np.matmul(seq, links)  # the clean observation, (size, B, N)
    power = np.abs(links)
    power *= power
    ups_var = np.matmul(np.abs(seq) ** 2, power)  # received pilot power, (size, B, N)
    del power
    ups_var *= hw.kappa2
    psi *= rot_tau
    psi += _rng.complex_normal(
        _rng.substream(seed, chunk_index, j, _rng.DISTORTION), ups_var, (size, B, N)
    )
    psi += _rng.complex_normal(
        _rng.substream(seed, chunk_index, j, _rng.RECEIVER_NOISE), hw.xi, (size, B, N)
    )
    return h, rot_ts, psi.reshape(size, B * N)
