"""Experimental universe generator: a 5 x 5 grid of square cells (one cell
of interest surrounded by two interfering tiers), co-located or distributed
antenna deployments, sectorized UE drops with a minimum array distance,
log-distance path loss with shadow fading, and statistical power control.

Distances are in meters.  Channel gains are produced directly in the
subarray-factorized covariance form: one gain per (receiving array, link),
shared by all antennas of that array (A = 1 for co-located deployments,
A = 4 for distributed ones, with independent shadowing per array).
"""

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng as _rng
from .model import ConfigError, Scenario

CELL_SIDE_M = 250.0
GRID_SIDE = 5
NUM_CELLS = GRID_SIDE * GRID_SIDE
CENTER_CELL = NUM_CELLS // 2
SECTORS = 8
MIN_UE_DISTANCE_M = 25.0
DISTRIBUTED_OFFSET_M = 62.5
PATHLOSS_EXPONENT = 3.76
PATHLOSS_OFFSET = -1.53  # exponent offset in the 10^(s + offset) gain model
# Shadow-fading standard deviation in dB.  Reading the model's N(0, 3.16)
# shadow parameter as a dB standard deviation reproduces the reference
# operating points (deployment rate ratios, impairment losses, sane UE
# transmit powers); reading it as the variance of the base-10 exponent gives
# 17.8 dB shadowing and an interference-collapsed network.  Exposed as a
# knob everywhere it is used.
SHADOW_STD_DB = 3.16


class Deployment(str, Enum):
    COLOCATED = "colocated"
    DISTRIBUTED = "distributed"


@dataclass(frozen=True, eq=False)
class NetworkLayout:
    """Deterministic geometry: cell centers and per-cell array positions."""

    deployment: Deployment
    N: int
    cell_centers: np.ndarray  # (NUM_CELLS, 2)
    array_positions: np.ndarray  # (NUM_CELLS, A, 2)

    @property
    def A(self) -> int:
        return self.array_positions.shape[1]


def build_layout(deployment: Deployment | str, N: int) -> NetworkLayout:
    """Grid of 25 square cells, 250 m apart; arrays either all at the cell
    center or split into four subarrays at the quadrant centers (62.5 m
    offsets on each axis)."""
    deployment = Deployment(deployment)
    half = GRID_SIDE // 2
    centers = np.array(
        [
            ((col - half) * CELL_SIDE_M, (row - half) * CELL_SIDE_M)
            for row in range(GRID_SIDE)
            for col in range(GRID_SIDE)
        ]
    )
    if deployment is Deployment.COLOCATED:
        offsets = np.zeros((1, 2))
    else:
        if N % 4 != 0:
            raise ValueError(f"distributed deployment needs 4 | N, got N={N}")
        d = DISTRIBUTED_OFFSET_M
        offsets = np.array([(-d, -d), (-d, d), (d, -d), (d, d)])
    arrays = centers[:, None, :] + offsets[None, :, :]
    return NetworkLayout(deployment=deployment, N=N, cell_centers=centers, array_positions=arrays)


def _sample_sector_ue(
    center: np.ndarray, arrays: np.ndarray, sector: int, gen: np.random.Generator
) -> np.ndarray:
    """Uniform point of the cell square restricted to one angular sector and
    at least the minimum distance from every array of the cell."""
    lo, hi = sector * np.pi / 4 - np.pi, (sector + 1) * np.pi / 4 - np.pi
    while True:
        cand = center + gen.uniform(-CELL_SIDE_M / 2, CELL_SIDE_M / 2, size=(64, 2))
        ang = np.arctan2(cand[:, 1] - center[1], cand[:, 0] - center[0])
        in_sector = (ang >= lo) & (ang < hi)
        far = np.all(
            np.linalg.norm(cand[:, None, :] - arrays[None, :, :], axis=-1) >= MIN_UE_DISTANCE_M,
            axis=1,
        )
        ok = np.flatnonzero(in_sector & far)
        if ok.size:
            return cand[ok[0]]


def drop_users(layout: NetworkLayout, seed: int, index: int = 0) -> np.ndarray:
    """UE positions, (NUM_CELLS, SECTORS, 2): rejection-sample one UE per
    45-degree sector of every cell, so sector k of every cell reuses pilot
    k.  Deterministic per (seed, index) regardless of any surrounding
    parallelism.

    Stream contract: cell c draws from its own substream (seed, index, c,
    DROP), and the per-sector sampler takes one (64, 2) batch per attempt,
    sector by sector.  Here each cell's first 8 x 64 batch is one draw, and
    all (cell, sector) pairs are tested at once; a cell in which some sector
    rejects its whole batch is replayed with ``_sample_sector_ue`` on a
    re-created substream of the same key.  The positions are therefore those
    of the per-sector sampler, bit for bit, at any thread count.
    """
    centers, arrays = layout.cell_centers, layout.array_positions
    half = CELL_SIDE_M / 2
    cand = np.empty((NUM_CELLS, SECTORS, 64, 2))
    for c in range(NUM_CELLS):
        gen = _rng.substream(seed, index, c, _rng.DROP)
        cand[c] = gen.uniform(-half, half, size=(SECTORS, 64, 2))
    cand += centers[:, None, None, :]
    ang = np.arctan2(
        cand[..., 1] - centers[:, None, None, 1], cand[..., 0] - centers[:, None, None, 0]
    )
    edges = np.arange(SECTORS + 1) * np.pi / 4 - np.pi
    ok = (ang >= edges[None, :-1, None]) & (ang < edges[None, 1:, None])
    for a in range(arrays.shape[1]):
        dx = cand[..., 0] - arrays[:, None, None, a, 0]
        dy = cand[..., 1] - arrays[:, None, None, a, 1]
        ok &= np.sqrt(dx * dx + dy * dy) >= MIN_UE_DISTANCE_M
    first = ok.argmax(axis=-1)  # (NUM_CELLS, SECTORS)
    pos = np.take_along_axis(cand, first[..., None, None], axis=2)[:, :, 0]
    for c in np.flatnonzero(~ok.any(axis=-1).all(axis=-1)):
        gen = _rng.substream(seed, index, c, _rng.DROP)
        for s in range(SECTORS):
            pos[c, s] = _sample_sector_ue(centers[c], arrays[c], s, gen)
    return pos


@dataclass(frozen=True, eq=False)
class LinkGains:
    """Average channel gains per (receiving cell, link, array): shape
    (NUM_CELLS, NUM_CELLS, SECTORS, A), plus the shadow draws (dB) behind
    them."""

    lam: np.ndarray
    shadow: np.ndarray


def link_gains(
    layout: NetworkLayout,
    ue_positions: np.ndarray,
    seed: int,
    index: int = 0,
    shadow_std_db: float = SHADOW_STD_DB,
) -> LinkGains:
    """Log-distance path loss 10^(s/10 - 1.53) / d^3.76 from the arrays of
    ``layout`` to the UEs at ``ue_positions`` (from :func:`drop_users`),
    with shadow fading s ~ N(0, shadow_std_db^2) in dB, drawn once per
    (cell, link, array): identical for all co-located antennas, independent
    across distributed subarrays."""
    d = np.linalg.norm(
        layout.array_positions[:, None, None, :, :] - ue_positions[None, :, :, None, :],
        axis=-1,
    )  # (j, l, k, a)
    if np.any(d <= 0):
        raise ValueError("zero-distance link; minimum UE distance violated")
    gen = _rng.substream(seed, index, 0, _rng.SHADOW)
    shadow_db = gen.normal(0.0, shadow_std_db, size=d.shape)
    with np.errstate(over="ignore"):  # power control and validation reject an infinite gain
        lam = 10.0 ** (shadow_db / 10.0 + PATHLOSS_OFFSET) / d**PATHLOSS_EXPONENT
    return LinkGains(lam=lam, shadow=shadow_db)


def power_control(gains: LinkGains, rho: float) -> np.ndarray:
    """Statistical channel inversion: p_lk = rho / mean_n(own-cell gain), so
    every UE arrives at its serving array with average power rho per
    antenna."""
    own = np.einsum("llka->lka", gains.lam)  # (NUM_CELLS, SECTORS, A)
    mean_gain = own.mean(axis=-1)
    if np.any(mean_gain <= 0):
        raise ValueError("non-positive serving-cell gain")
    with np.errstate(over="ignore"):  # validation rejects an infinite power
        return rho / mean_gain


def make_scenario(
    layout: NetworkLayout,
    gains: LinkGains,
    powers: np.ndarray,
    T: int,
    sigma2: float = 1.0,
) -> Scenario:
    return Scenario(
        L=NUM_CELLS,
        K=SECTORS,
        N=layout.N,
        T=T,
        cov=gains.lam,
        powers=powers,
        sigma2=sigma2,
        subarrays=layout.A,
    )


def generate(
    deployment: Deployment | str,
    N: int,
    snr_db: float,
    T: int,
    seed: int,
    drop_index: int = 0,
    sigma2: float = 1.0,
    shadow_std_db: float = SHADOW_STD_DB,
) -> Scenario:
    """One-call scenario generation for a single UE drop."""
    rho = 10.0 ** (snr_db / 10.0) * sigma2
    layout = build_layout(deployment, N)
    ue_positions = drop_users(layout, seed, drop_index)
    gains = link_gains(layout, ue_positions, seed, drop_index, shadow_std_db)
    powers = power_control(gains, rho)
    return make_scenario(layout, gains, powers, T, sigma2)


# -- scenario files -----------------------------------------------------------


def save_scenario(scenario: Scenario, path, meta: dict | None = None) -> None:
    """Write a scenario as JSON, consumable by every CLI subcommand."""
    payload = {
        "format": "hwmimo-scenario",
        "version": 1,
        "L": scenario.L,
        "K": scenario.K,
        "N": scenario.N,
        "T": scenario.T,
        "subarrays": scenario.subarrays,
        "sigma2": scenario.sigma2,
        "cov": scenario.cov.tolist(),
        "powers": scenario.powers.tolist(),
        "meta": meta or {},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


# JSON types of the fields of a scenario file
_SCENARIO_FIELDS = {
    "L": (int,), "K": (int,), "N": (int,), "T": (int,), "subarrays": (int,),
    "sigma2": (int, float), "cov": (list,), "powers": (list,),
}


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != "hwmimo-scenario":
        raise ConfigError(f"{path} is not a scenario file")
    for name, types in _SCENARIO_FIELDS.items():
        if name not in payload:
            raise ConfigError(f"scenario file {path} lacks the field {name!r}")
        if type(payload[name]) not in types:
            expected = " or ".join(t.__name__ for t in types)
            raise ConfigError(f"scenario file {path}: field {name!r} must be {expected}, "
                              f"got {type(payload[name]).__name__}")
    return Scenario(**{name: payload[name] for name in _SCENARIO_FIELDS})
