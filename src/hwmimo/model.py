"""Static problem description: network dimensions, channel statistics and
hardware quality parameters, plus their validation.

Conventions used throughout the package:

* ``cov[j, l, k]`` is the diagonal of the channel covariance between UE k in
  cell l and the array of BS j.  It is stored either per antenna (length N)
  or per subarray (length A with each value shared by N/A antennas).
* Powers are transmit energies per channel use; no unit conversion happens
  anywhere in the package.
* One :class:`HardwareProfile` applies to all cells.
"""

import contextlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ConfigError(ValueError):
    """Unusable run configuration (maps to CLI exit code 2)."""


class NumericalInvariantError(RuntimeError):
    """A computed quantity violated a structural invariant (e.g. a negative
    SINR denominator), signalling a bug rather than a modelling choice
    (maps to CLI exit code 3)."""


class LoMode(str, Enum):
    """Oscillator topology of a receiving array.

    CLO: one common local oscillator, identical phase-drift on all antennas.
    SLO: separate oscillator per antenna, independent phase-drifts.
    """

    CLO = "clo"
    SLO = "slo"


@dataclass(frozen=True)
class HardwareProfile:
    """Impairment triple (delta, kappa2, xi) plus oscillator topology.

    delta: variance of the per-channel-use Wiener phase-drift innovation [rad^2].
    kappa2: distortion-noise power relative to received signal power.
    xi: receiver noise variance; must be at least the thermal floor sigma2.
    """

    delta: float
    kappa2: float
    xi: float
    lo_mode: LoMode = LoMode.CLO

    def __post_init__(self):
        if self.delta < 0 or self.kappa2 < 0 or self.xi <= 0:
            raise ValueError("hardware profile requires delta, kappa2 >= 0 and xi > 0")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable description of the network: dimensions, channel covariance
    diagonals, transmit powers and the thermal noise floor.

    cov has shape (L, L, K, A) in subarray form or (L, L, K, N) per antenna;
    ``reduced_dim`` tells which one is stored.
    """

    L: int
    K: int
    N: int
    T: int
    cov: np.ndarray
    powers: np.ndarray
    sigma2: float
    subarrays: int = 1

    def __post_init__(self):
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "powers", np.asarray(self.powers, dtype=float))

    # -- covariance layout ------------------------------------------------

    @property
    def reduced_dim(self) -> int:
        """Last covariance axis: A when stored per subarray, else N."""
        return self.cov.shape[-1]

    @property
    def multiplicity(self) -> int:
        """Antennas represented by each stored covariance entry (N / reduced_dim)."""
        return self.N // self.reduced_dim


def validate(scenario: Scenario, hw: HardwareProfile | None = None) -> tuple:
    """Check every model invariant; returns the violations instead of raising.

    Each violation is a human-readable message with the offending indices,
    so a CLI can print it verbatim; an empty tuple means the inputs are valid.
    """
    v: list[str] = []
    s = scenario
    if s.L < 1 or s.K < 1 or s.N < 1 or s.T < 1:
        v.append("dimensions L, K, N, T must all be >= 1")
    if s.subarrays < 1 or s.subarrays > s.N:
        v.append(f"subarray count A={s.subarrays} must satisfy 1 <= A <= N={s.N}")
    elif s.N % s.subarrays != 0:
        v.append(f"A must divide N (A={s.subarrays}, N={s.N})")
    if s.cov.shape[:3] != (s.L, s.L, s.K):
        v.append(f"cov leading shape {s.cov.shape[:3]} != (L, L, K)")
    if s.reduced_dim not in (s.subarrays, s.N):
        v.append(f"cov last axis {s.reduced_dim} is neither A={s.subarrays} nor N={s.N}")
    elif s.N % s.reduced_dim != 0:
        v.append(f"cov last axis {s.reduced_dim} must divide N={s.N}")
    neg = np.argwhere(~(np.isfinite(s.cov) & (s.cov >= 0)))
    if neg.size:
        v.append(f"covariance entries must be finite and >= 0, first violation at {tuple(neg[0].tolist())}")
    if s.powers.shape != (s.L, s.K):
        v.append(f"powers shape {s.powers.shape} != (L, K)")
    else:
        negp = np.argwhere(~(np.isfinite(s.powers) & (s.powers >= 0)))
        if negp.size:
            v.append(f"powers must be finite and >= 0, first violation at {tuple(negp[0].tolist())}")
    if not (s.sigma2 > 0 and math.isfinite(s.sigma2)):
        v.append("sigma2 must be finite and > 0")
    if hw is not None:
        if not (hw.delta >= 0 and math.isfinite(hw.delta)):
            v.append("delta must be finite and >= 0")
        if not (hw.kappa2 >= 0 and math.isfinite(hw.kappa2)):
            v.append("kappa2 must be finite and >= 0")
        if not math.isfinite(hw.xi):
            v.append("xi must be finite")
        elif hw.xi < s.sigma2:
            v.append(f"xi below sigma2 (xi={hw.xi}, sigma2={s.sigma2})")
    return tuple(v)


def require_valid(scenario: Scenario, hw: HardwareProfile | None = None) -> None:
    """Raise a ConfigError listing every violation :func:`validate` finds."""
    violations = validate(scenario, hw)
    if violations:
        raise ConfigError("; ".join(violations))


@contextlib.contextmanager
def user_input():
    """Report a ValueError, an unreadable file or a float overflow met while
    building inputs from outside the program as a ConfigError (exit code 2)."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    except OverflowError as exc:
        raise ConfigError("an input overflows the floating-point range") from exc


def conventional_profile(sigma2: float) -> HardwareProfile:
    """Ideal-hardware profile: no phase-drift, no distortion, xi at the
    thermal floor.  Plugged into the generalized model it reproduces the
    conventional impairment-free uplink."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    return HardwareProfile(delta=0.0, kappa2=0.0, xi=sigma2, lo_mode=LoMode.CLO)


def expand_covariance(factorized: np.ndarray, N: int, A: int) -> np.ndarray:
    """Expand per-subarray gains to one value per antenna.

    Entry n of the output equals the subarray value covering antenna n, i.e.
    the expanded diagonal is piecewise constant on blocks of size N/A.
    """
    factorized = np.asarray(factorized, dtype=float)
    if factorized.shape[-1] != A:
        raise ValueError(f"expected last axis {A}, got {factorized.shape[-1]}")
    if A < 1 or N % A != 0:
        raise ValueError(f"A must divide N (A={A}, N={N})")
    return np.repeat(factorized, N // A, axis=-1)


def factorize_covariance(full: np.ndarray, A: int, rtol: float = 1e-12) -> np.ndarray:
    """Inverse of :func:`expand_covariance`: recover the per-subarray gains.

    Raises if the input is not piecewise constant on blocks of size N/A.
    """
    full = np.asarray(full, dtype=float)
    N = full.shape[-1]
    if A < 1 or N % A != 0:
        raise ValueError(f"A must divide N (A={A}, N={N})")
    blocks = full.reshape(full.shape[:-1] + (A, N // A))
    first = blocks[..., 0]
    scale = np.maximum(np.abs(first)[..., None], 1.0)
    if not np.all(np.abs(blocks - first[..., None]) <= rtol * scale):
        raise ValueError("covariance is not constant on subarray blocks")
    return first
