"""Reproducible substreams for parallel Monte Carlo.

Every random draw in the package comes from a counter-based Philox stream
keyed by (master seed, structured spawn key).  Workers processing disjoint
chunks therefore produce identical numbers no matter how chunks are assigned
to threads, which is what makes runs bit-reproducible at any thread count.
"""

import numpy as np

# entity codes used in spawn keys
CHANNEL = 0
PHASE = 1
DISTORTION = 2
RECEIVER_NOISE = 3
DROP = 10
SHADOW = 11

# bytes of the reused block that complex_normal fills a part through, and
# that channel.draw_world forms |h|^2 in
_BLOCK_BYTES = 2**20


def substream(master_seed, *key: int) -> np.random.Generator:
    """Independent generator for the given (realization/chunk, cell, entity)
    key under ``master_seed``, an int or a (seed, drop) pair ((s, 0) is s)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def complex_normal(rng: np.random.Generator, var, shape) -> np.ndarray:
    """Circularly symmetric complex Gaussian with the given per-entry variance.

    ``var`` broadcasts against ``shape``.  All real parts are drawn before
    all imaginary parts; each part is filled through one reused block of
    rows along the leading axis (at most ``_BLOCK_BYTES``, or one row), and
    consecutive fills of a generator give the values of one whole fill.
    For finite values the result is bitwise ``scale * (re + 1j * im)``
    without its whole-shape temporaries.
    """
    out = np.empty(shape, dtype=complex)
    scale = np.broadcast_to(np.sqrt(np.asarray(var, dtype=float) / 2.0), out.shape)
    if out.ndim == 0 or out.size == 0:
        np.multiply(rng.standard_normal(out.shape), scale, out=out.real)
        np.multiply(rng.standard_normal(out.shape), scale, out=out.imag)
        return out
    n = out.shape[0]
    rows = max(1, min(n, _BLOCK_BYTES // (8 * out[0].size)))
    block = np.empty((rows, *out.shape[1:]))
    for part in (out.real, out.imag):
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            rng.standard_normal(out=block[: hi - lo])
            np.multiply(block[: hi - lo], scale[lo:hi], out=part[lo:hi])
    return out
