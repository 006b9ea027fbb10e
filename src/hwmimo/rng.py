"""Reproducible substreams for parallel Monte Carlo.

Every random draw in the package comes from a stream keyed by (master
seed, structured spawn key) through numpy's ``SeedSequence``: the key, not
the thread, makes the stream, so its numbers do not depend on the thread
that draws them (the helper that draws a Monte Carlo tile's channels
ahead, or the ``preset`` pool worker that runs a drop).  That is what
makes runs bit-reproducible at any thread count.

Two generator families sit behind the keys.  The Monte Carlo world's
entities (channels, phases, distortion, receiver noise) draw from SFC64,
the bit generator that fills normals fastest: the 2.56 M normals of the
mc-mmse channels take about 32 ms on it against 57 ms on Philox and 44 ms
on PCG64, PCG64DXSM or MT19937 (2-core VM), and channels are most of a
pass's draws.  Scenario generation (UE drops, shadowing) keeps the
counter-based Philox, so the scenarios behind every recorded reference and
preset CSV keep their bits.

Within a substream the draws are consumed in C order, and consecutive
draws of a generator give the values of one whole draw.  A complex normal
draws each entry's real part and then its imaginary part, so a draw cut
along its leading axis into consecutive pieces gives the bits of the
whole: the Monte Carlo world is drawn tile by tile without a tile cut
moving a number.
"""

import numpy as np

# entity codes used in spawn keys
CHANNEL = 0
PHASE = 1
DISTORTION = 2
RECEIVER_NOISE = 3
DROP = 10
SHADOW = 11
_WORLD = frozenset({CHANNEL, PHASE, DISTORTION, RECEIVER_NOISE})


def substream(master_seed, *key: int) -> np.random.Generator:
    """Independent generator for the given (realization/chunk, cell, entity)
    key under ``master_seed``, an int or a (seed, drop) pair ((s, 0) is s).
    The entity, the key's last element, picks the bit generator: SFC64 for
    the world's entities, Philox for every other key."""
    key = tuple(int(k) for k in key)
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    bits = np.random.SFC64 if key and key[-1] in _WORLD else np.random.Philox
    return np.random.Generator(bits(ss))


def complex_normal(rng: np.random.Generator, var, shape) -> np.ndarray:
    """Circularly symmetric complex Gaussian with the given per-entry variance.

    ``var`` broadcasts against ``shape``.  Each entry takes two consecutive
    normals, its real part and then its imaginary part: one
    ``standard_normal`` fill of the output's float view, scaled in place
    through that view, so every part is exactly ``sqrt(var / 2) * normal``
    and no normal array is allocated beside the output.  Drawing the leading
    axis in consecutive pieces from one generator gives the bits of one
    whole draw.
    """
    out = np.empty(shape, dtype=complex)
    parts = out.reshape(-1).view(float)  # each entry's real part, then its imaginary part
    rng.standard_normal(out=parts)
    scale = np.sqrt(np.asarray(var, dtype=float) / 2.0)
    if scale.ndim:  # both parts of an entry take its scale: rows of 2 * shape[-1] parts
        scale = np.repeat(np.broadcast_to(scale, scale.shape[:-1] + out.shape[-1:]), 2, axis=-1)
        parts = parts.reshape(*out.shape[:-1], 2 * out.shape[-1])
    parts *= scale
    return out
