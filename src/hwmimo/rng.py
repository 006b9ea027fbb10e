"""Reproducible substreams for parallel Monte Carlo.

Every random draw in the package comes from a counter-based Philox stream
keyed by (master seed, structured spawn key), so a stream's numbers do not
depend on the thread that draws them: the helper that draws a Monte Carlo
tile's channels ahead, or the ``preset`` pool worker that runs a drop.
That is what makes runs bit-reproducible at any thread count.

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


def substream(master_seed, *key: int) -> np.random.Generator:
    """Independent generator for the given (realization/chunk, cell, entity)
    key under ``master_seed``, an int or a (seed, drop) pair ((s, 0) is s)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


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
