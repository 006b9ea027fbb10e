"""Phase-drift-aware LMMSE channel estimation.

The estimator works on the stacked pilot observation psi_j (length B*N) and
produces, for every link (l, k) and any channel use t, the linear MMSE
estimate of the *effective* channel (block-fading channel rotated by the
receiver phase-drift at time t).  Two structural facts keep this cheap:

* Phase-drifts damp pilot correlations by exp(-delta/2 |t1 - t2|), which
  enters through a per-pilot damping vector d(t) and a damped Gram matrix
  Xbar of the pilot sequences.
* With diagonal covariances the BN x BN pilot covariance matrix is a sum of
  Kronecker products; when covariance diagonals are constant on subarrays it
  collapses exactly to an (A*B) x (A*B) matrix, so all solves are done in
  the reduced dimension no matter how large N is.

The estimator formula is identical for common and separate oscillators.
"""

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass, field

import numpy as np

from .channel import phase_correlation
from .model import HardwareProfile, NumericalInvariantError, Scenario
from .pilots import PilotBook


def damped_pilot_grams(book: PilotBook, delta: float) -> np.ndarray:
    """Damped outer products of all pilot sequences, shape (L, K, B, B).

    Entry (b1, b2) is x(tau_b1) x*(tau_b2) exp(-delta/2 |tau_b1 - tau_b2|);
    the diagonal is the per-symbol pilot energy.
    """
    tau = np.asarray(book.tau, dtype=float)
    kern = phase_correlation(delta, tau[:, None] - tau[None, :])
    outer = np.einsum("lbk,lck->lkbc", book.sequences, book.sequences.conj())
    return outer * kern


# (get, set) thread-count symbols: numpy >= 2 wheels, numpy 1.x wheels,
# a system OpenBLAS
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_threads():
    """``(get, set)`` of the thread count of numpy's BLAS, or None when it
    exposes no OpenBLAS control.  Loading numpy's own linalg module returns
    its existing handle, whose symbol lookup covers the BLAS it links."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        try:
            get, put = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


# the BLAS thread count is one per process, and so is its pin: per open
# pinned block, the count that the first of them replaced
_PIN_LOCK = threading.Lock()
_PINNED = []


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block at one BLAS thread: LAPACK's blocked routines return
    other last bits at other thread counts (``cholesky`` and ``inv`` from
    n = 64, ``solve`` from N = 128).  Blocks in concurrent threads may
    overlap: the last one out restores the count."""
    get, put = _blas_threads() or (lambda: 1, lambda n: None)
    with _PIN_LOCK:
        _PINNED.append(_PINNED[0] if _PINNED else get())
        put(1)
    try:
        yield
    finally:
        with _PIN_LOCK:
            before = _PINNED.pop()
            if not _PINNED:
                put(before)


@dataclass(eq=False)
class EstimatorCache:
    """Everything that is reusable across estimation calls for a fixed
    (scenario, hardware, pilot book): damped pilot Grams and, per receiving
    cell, the inverse of the reduced pilot covariance.  That covariance is
    block-diagonal across subarrays, so the cache factors and inverts its Ae
    independent B x B blocks (:meth:`pblocks`), which drive all moment and
    error-covariance formulas; the dense (B*Ae)^2 inverse
    (:meth:`psi_inverse`) is built from them."""

    scenario: Scenario
    hw: HardwareProfile
    book: PilotBook
    Xbar: np.ndarray  # (L, K, B, B) damped pilot Grams
    X: np.ndarray  # Xbar + kappa2 * diag(|pilot|^2)
    _psi_inv: dict = field(default_factory=dict)
    _pblocks: dict = field(default_factory=dict)

    @property
    def lam(self) -> np.ndarray:
        """Reduced covariance diagonals of the scenario, (L, L, K, Ae)."""
        return self.scenario.cov

    @property
    def mult(self) -> int:
        """Antennas per stored covariance entry."""
        return self.scenario.multiplicity

    @property
    def B(self) -> int:
        return self.book.B

    @property
    def Ae(self) -> int:
        return self.lam.shape[-1]

    def d_delta(self, ts) -> np.ndarray:
        """Per-pilot damping exp(-delta/2 |t - tau_b|); shape (len(ts), B)."""
        tau = np.asarray(self.book.tau, dtype=float)
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return phase_correlation(self.hw.delta, ts[:, None] - tau[None, :])

    # -- reduced pilot covariance ------------------------------------------

    def _build_cell(self, j: int) -> None:
        B, Ae = self.B, self.Ae
        psi = np.einsum("lkbc,lka->abc", self.X, self.lam[j])  # (Ae, B, B) diagonal blocks
        psi[:, np.arange(B), np.arange(B)] += self.hw.xi
        what = f"reduced pilot covariance of cell {j} cannot be factorized"
        if not np.isfinite(psi).all():  # LAPACK does not reject inf or NaN
            raise NumericalInvariantError(f"{what}: it is not finite")
        try:
            with _one_blas_thread():  # the same bits on any core count
                chol = np.linalg.cholesky(psi)
                chol_inv = np.linalg.inv(chol)  # the inverse is chol_inv^H chol_inv
        except np.linalg.LinAlgError as exc:
            raise NumericalInvariantError(f"{what}: {exc}") from exc
        inv = self._pblocks[j] = np.swapaxes(chol_inv, -1, -2).conj() @ chol_inv
        inv4 = np.zeros((B, Ae, B, Ae), dtype=complex)
        ar = np.arange(Ae)
        inv4[:, ar, :, ar] = inv
        self._psi_inv[j] = inv4.reshape(B * Ae, B * Ae)

    def psi_inverse(self, j: int) -> np.ndarray:
        """Inverse of the reduced pilot covariance of cell j, (B*Ae, B*Ae),
        pilot-major: the blocks of :meth:`pblocks` on the diagonal of each
        subarray, zero between subarrays."""
        if j not in self._psi_inv:
            self._build_cell(j)
        return self._psi_inv[j]

    def pblocks(self, j: int) -> np.ndarray:
        """Per-subarray diagonal B x B blocks of the inverse, (Ae, B, B)."""
        if j not in self._pblocks:
            self._build_cell(j)
        return self._pblocks[j]

    # -- estimation gains ---------------------------------------------------

    def reduced_gain(self, j: int, l: int, k: int, t) -> np.ndarray:
        """Reduced estimation gain, (Ae, B*Ae): the full N x BN gain is this
        matrix expanded blockwise over the N/Ae antennas of each subarray."""
        dm = self.d_delta(t)[0]
        dxc = self.book.sequences[l, :, k].conj() * dm  # (B,)
        inv3 = self.psi_inverse(j).reshape(self.B, self.Ae, self.B * self.Ae)
        return self.lam[j, l, k][:, None] * np.einsum("b,baq->aq", dxc, inv3)

    def apply_reduced_gain(self, gain: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Apply a reduced gain to stacked observations psi (..., B*N).

        ``gain`` is (R, B*Ae): one reduced gain (R = Ae), or several stacked
        along the rows, one matrix product for all of them.  The result has
        length R*mult; row a of the stack fills antennas a*mult..(a+1)*mult,
        so n stacked gains give n consecutive length-N estimates."""
        lead = psi.shape[:-1]
        psi_r = psi.reshape(lead + (self.B * self.Ae, self.mult))
        out = np.matmul(gain, psi_r)
        return out.reshape(lead + (gain.shape[0] * self.mult,))


def build_cache(scenario: Scenario, hw: HardwareProfile, book: PilotBook) -> EstimatorCache:
    """Precompute the t-independent part of the estimator for all cells.

    Per-cell factorizations are built lazily on first use, so asking for a
    single receiving cell never pays for the other L - 1.
    """
    if book.L != scenario.L or book.K != scenario.K:
        raise ValueError("pilot book dimensions do not match the scenario")
    if book.T != scenario.T:
        raise ValueError(f"pilot book block length {book.T} != scenario T {scenario.T}")
    # C order, so the coefficient pass reshapes them without a copy
    Xbar = np.ascontiguousarray(damped_pilot_grams(book, hw.delta))
    energy = np.abs(book.sequences.transpose(0, 2, 1)) ** 2  # (L, K, B)
    with np.errstate(over="ignore"):  # _build_cell rejects a covariance that is not finite
        kappa_term = hw.kappa2 * np.einsum("lkb,bc->lkbc", energy, np.eye(book.B))
    X = np.ascontiguousarray(Xbar + kappa_term)
    return EstimatorCache(scenario=scenario, hw=hw, book=book, Xbar=Xbar, X=X)


def error_covariance(cache: EstimatorCache, j: int, l, k, t) -> tuple:
    """Diagonal of the estimation error covariance at time t and its trace.

    ``l`` and ``k`` are indices, or index arrays that broadcast together:
    the diagonals are then (..., N) and the traces (...,), one per indexed
    link; scalar indices give an (N,) diagonal and a float trace.  Entries
    never exceed the prior covariance diagonal, and they return to it when
    the damping to every pilot goes to zero.
    """
    dm = cache.d_delta(t)[0]
    dx = dm * cache.book.sequences[l, :, k]  # (..., B)
    quad = np.einsum("...b,abc,...c->...a", dx.conj(), cache.pblocks(j), dx).real
    lam = cache.lam[j, l, k]
    reduced = lam - lam**2 * quad
    diag = np.repeat(reduced, cache.mult, axis=-1)
    trace = cache.mult * reduced.sum(axis=-1)
    return diag, (float(trace) if trace.ndim == 0 else trace)
