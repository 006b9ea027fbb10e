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


def substream(master_seed, *key: int) -> np.random.Generator:
    """Independent generator for the given (realization/chunk, cell, entity)
    key under ``master_seed``, an int or a (seed, drop) pair ((s, 0) is s)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def complex_normal(rng: np.random.Generator, var, shape) -> np.ndarray:
    """Circularly symmetric complex Gaussian with the given per-entry variance.

    ``var`` broadcasts against ``shape``.  Each part is scaled straight
    into one preallocated complex array, which for finite values is bitwise
    ``scale * (re + 1j * im)`` without its complex temporaries.
    """
    scale = np.sqrt(np.asarray(var, dtype=float) / 2.0)
    out = np.empty(shape, dtype=complex)
    np.multiply(rng.standard_normal(shape), scale, out=out.real)
    np.multiply(rng.standard_normal(shape), scale, out=out.imag)
    return out
