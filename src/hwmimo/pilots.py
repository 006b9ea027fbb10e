"""Pilot books: training sequences for every cell plus their placement
inside the coherence block.

A coherence block has T channel uses; B of them (at times tau_1 < ... <
tau_B) carry pilots and the remaining T - B carry data.  Sequences are
stored as one B x K matrix per cell whose column k is the pilot of UE k,
already scaled so that every pilot symbol respects the per-symbol energy
budget p_lk.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np


class PlacementKind(str, Enum):
    BEGINNING = "beginning"
    MIDDLE = "middle"
    UNIFORM = "uniform"
    PREAMBLE = "preamble"


@dataclass(frozen=True)
class Placement:
    """Pilot time indices (1-based) inside a block of T channel uses."""

    T: int
    tau: tuple

    def __post_init__(self):
        tau = tuple(int(t) for t in self.tau)
        object.__setattr__(self, "tau", tau)
        if any(t < 1 or t > self.T for t in tau):
            raise ValueError("pilot indices must lie in 1..T")
        if any(nxt <= prev for prev, nxt in zip(tau, tau[1:])):
            raise ValueError("pilot indices must be strictly increasing")

    @property
    def B(self) -> int:
        return len(self.tau)

    @property
    def data_times(self) -> tuple:
        """Data channel uses, i.e. 1..T with the pilot times removed."""
        pilot = set(self.tau)
        return tuple(t for t in range(1, self.T + 1) if t not in pilot)


def _equispaced(first: int, span: int, count: int) -> list:
    # count indices in {first, ..., first+span-1}, maximally spread,
    # rounding toward the earlier channel use
    return [first + (i * span) // count for i in range(count)]


def place(kind: PlacementKind | str, T: int, B: int) -> Placement:
    """Derive pilot time indices for one of the supported placements.

    beginning: 1..B.  middle: contiguous run centered in the block (biased
    early for odd leftovers).  uniform: B maximally equispaced indices.
    preamble: ceil(B/2) at the start, the rest equispaced over the remainder.
    """
    kind = PlacementKind(kind)
    if B < 1 or B > T:
        raise ValueError(f"need 1 <= B <= T (B={B}, T={T})")
    if kind is PlacementKind.BEGINNING:
        tau = list(range(1, B + 1))
    elif kind is PlacementKind.MIDDLE:
        start = (T - B) // 2 + 1
        tau = list(range(start, start + B))
    elif kind is PlacementKind.UNIFORM:
        tau = _equispaced(1, T, B)
    else:  # PREAMBLE
        head = (B + 1) // 2
        tail = B - head
        tau = list(range(1, head + 1))
        if tail:
            tau += _equispaced(head + 1, T - head, tail)
    return Placement(T=T, tau=tuple(tau))


@dataclass(frozen=True, eq=False)
class PilotBook:
    """Pilot sequences of all L cells plus their common placement.

    sequences has shape (L, B, K); entry (l, b, k) is the symbol UE k of
    cell l transmits at pilot time tau_b.  Both books give UE k of every
    cell the same base sequence (pilot reuse across cells) and the UEs of
    one cell distinct sequences.
    """

    placement: Placement
    sequences: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sequences", np.asarray(self.sequences, dtype=complex))

    @property
    def tau(self) -> tuple:
        return self.placement.tau

    @property
    def B(self) -> int:
        return self.placement.B

    @property
    def T(self) -> int:
        return self.placement.T

    @property
    def L(self) -> int:
        return self.sequences.shape[0]

    @property
    def K(self) -> int:
        return self.sequences.shape[2]

    def data_times(self) -> tuple:
        return self.placement.data_times


def temporal_book(powers: np.ndarray, placement: Placement) -> PilotBook:
    """Temporally orthogonal pilots: UE k of each cell transmits sqrt(p_lk)
    at pilot time tau_k and is silent at the other pilot times.  Requires
    B = K."""
    powers = np.asarray(powers, dtype=float)
    L, K = powers.shape
    if placement.B != K:
        raise ValueError(f"temporal book needs B = K (B={placement.B}, K={K})")
    seq = np.zeros((L, K, K), dtype=complex)
    idx = np.arange(K)
    seq[:, idx, idx] = np.sqrt(powers)
    return PilotBook(placement=placement, sequences=seq)


def dft_book(powers: np.ndarray, placement: Placement) -> PilotBook:
    """Spatially orthogonal pilots from a scaled DFT matrix: entry (b, k) is
    W_K^((b-1)(k-1)) sqrt(p_lk) with W_K = exp(-2 pi i / K).  All UEs are
    active at every pilot time, so the total pilot energy per UE is K times
    that of the temporal book.  Requires B >= K."""
    powers = np.asarray(powers, dtype=float)
    L, K = powers.shape
    B = placement.B
    if B < K:
        raise ValueError(f"DFT book needs B >= K (B={B}, K={K})")
    b = np.arange(B)[:, None]
    k = np.arange(K)[None, :]
    dft = np.exp(-2j * np.pi * b * k / K)
    seq = dft[None, :, :] * np.sqrt(powers)[:, None, :]
    return PilotBook(placement=placement, sequences=seq)
