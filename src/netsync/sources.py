"""Seeded producers of stochastic matrix sequences {G(t)}.

Static, periodic, and iid-over-a-finite-set variants are random access;
the iid variant computes its counter-based draws for an aligned block of
times at once and keeps that one block.  The driven variant wraps a
stateful topology process and reads it forward only, holding its last
emission, so memory does not grow with the horizon.  A caller that
reads a time twice builds a second source from the same seeded config,
as spectrum's diameter pass does; simulate and check read each once.

A matrix is a float ndarray or, when a process emits scipy.sparse, a
CSR array; either is validated as row stochastic and frozen.  Input is
copied first, except a canonical float64 CSR array already frozen by its
maker (as blinking emissions are), which is checked and kept as is.
"""

from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptySetError,
    InvalidParamsError,
    ProcessExhaustedError,
)
from .linalg import is_stochastic, issparse

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as
# 1, 2, 3", SC 2011): round multipliers and key increments.  Every
# constant is np.uint64, so uint64 arithmetic wraps the same way under
# numpy's legacy and NEP 50 promotion rules.
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)

# times drawn at once by FiniteSetIIDSource; a power of two, so the
# aligned blocks tile [0, 2**64) and the top one ends at 2**64 - 1
DRAW_BLOCK = 2048


def _mulhilo(a, x):
    """High and low words of the 128-bit products a * x, for a uint64
    scalar a and a uint64 array x, from 32-bit halves."""
    a0, a1 = a & _LO32, a >> _SHIFT32
    x0, x1 = x & _LO32, x >> _SHIFT32
    p00, p01, p10 = a0 * x0, a0 * x1, a1 * x0
    mid = (p00 >> _SHIFT32) + (p01 & _LO32) + (p10 & _LO32)
    hi = a1 * x1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * x


def _philox_uniforms(seed: int, t: np.ndarray) -> np.ndarray:
    """Generator(Philox(key=[seed, t])).random() for each uint64 time t:
    word 0 of Philox4x64-10 at counter [1, 0, 0, 0], the first counter a
    fresh Philox draws, keeping its top 53 bits."""
    c0 = np.ones_like(t)
    c1 = c2 = c3 = np.zeros_like(t)
    k0, k1 = np.full_like(t, seed), t
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return (c0 >> _SHIFT11) * 2.0**-53


def _validated(G, what: str = "matrix"):
    """G checked row stochastic and frozen; scipy.sparse input becomes a
    canonical CSR array, checked on its stored entries.  A float64 CSR
    array whose data, indices and indptr are already read-only and that
    is in canonical format is taken as is; any other input is copied, so
    the caller's arrays are never frozen or reordered."""
    if issparse(G):
        from scipy.sparse import csr_array

        as_is = isinstance(G, csr_array) and G.dtype == np.float64 and not any(
            a.flags.writeable for a in (G.data, G.indices, G.indptr))
        if not (as_is and G.has_canonical_format):
            G = csr_array(G, dtype=float, copy=True)
            G.sum_duplicates()
        frozen = G.data
    else:
        G = frozen = np.array(G, dtype=float)
    if not is_stochastic(G):
        raise InvalidParamsError(f"{what} is not row stochastic")
    frozen.flags.writeable = False
    return G


def _validated_set(matrices: Sequence, empty: Exception) -> list:
    """The matrices, each validated, all of one dimension; raises empty
    when there are none."""
    mats = [_validated(G, f"matrix {k}") for k, G in enumerate(matrices)]
    if not mats:
        raise empty
    for k, G in enumerate(mats):
        if G.shape[0] != mats[0].shape[0]:
            raise InvalidParamsError(
                f"matrix {k} has dimension {G.shape[0]}, expected {mats[0].shape[0]}"
            )
    return mats


def _check_time(t: int) -> int:
    t = int(t)
    if t < 0:
        raise InvalidParamsError(f"time must be >= 0, got {t}")
    return t


class MatrixSource:
    """Base: a deterministic map t -> stochastic matrix of fixed size m."""

    m: int

    def at(self, t: int) -> np.ndarray:
        raise NotImplementedError


class StaticSource(MatrixSource):
    def __init__(self, matrix):
        self.G = _validated(matrix)
        self.m = self.G.shape[0]

    def at(self, t: int) -> np.ndarray:
        _check_time(t)
        return self.G


class PeriodicSource(MatrixSource):
    def __init__(self, matrices: Sequence):
        self.matrices = _validated_set(
            matrices, InvalidParamsError("periodic source needs at least one matrix")
        )
        self.m = self.matrices[0].shape[0]

    def at(self, t: int) -> np.ndarray:
        t = _check_time(t)
        return self.matrices[t % len(self.matrices)]


class FiniteSetIIDSource(MatrixSource):
    """Independent draws from a finite matrix set, one per time step.

    The draw at time t, 0 <= t < 2**64, is the uniform that
    Generator(Philox(key=[seed, t])).random() gives for the uint64 key
    words seed and t, so at(t) never replays history.  Philox is
    counter-based, so the draws of the DRAW_BLOCK aligned times around t
    are computed at once in numpy and their indices kept: memory is one
    block, and a query outside it pays for one block draw, which callers
    reading times in ascending order pay once per block.  The block is
    swapped in one assignment, so threads sharing a source read
    consistent draws.
    """

    def __init__(self, matrices: Sequence, weights: Optional[Sequence[float]] = None, seed: int = 0):
        self.matrices = mats = _validated_set(
            matrices, EmptySetError("finite iid source needs a nonempty matrix set")
        )
        self.m = mats[0].shape[0]
        if weights is None:
            w = np.full(len(mats), 1.0 / len(mats))
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (len(mats),):
                raise InvalidParamsError(
                    f"got {w.size} weights for {len(mats)} matrices"
                )
            with np.errstate(over="ignore", invalid="ignore"):
                total = w.sum()
            if np.any(w < 0) or not 0 < total < np.inf:
                raise InvalidParamsError("weights must be nonnegative with a positive finite sum")
            w = w / total
        self.weights = w
        self._cum = np.cumsum(w)
        self.seed = int(seed)
        if not 0 <= self.seed < 2**63:
            raise InvalidParamsError("seed must fit in a nonnegative 63-bit integer")
        self._block = (0, [])  # (first time, matrix index per time)

    def index_at(self, t: int) -> int:
        t = _check_time(t)
        start, indices = self._block
        if not 0 <= t - start < len(indices):
            if t >= 2**64:
                raise InvalidParamsError(f"time must be < 2**64 (a 64-bit key word), got {t}")
            start = t - t % DRAW_BLOCK
            times = np.uint64(start) + np.arange(DRAW_BLOCK, dtype=np.uint64)
            u = _philox_uniforms(self.seed, times)
            picks = np.searchsorted(self._cum, u, side="right")
            indices = np.minimum(picks, len(self.matrices) - 1).tolist()
            self._block = (start, indices)
        return indices[t - start]

    def at(self, t: int) -> np.ndarray:
        return self.matrices[self.index_at(t)]


class DrivenSource(MatrixSource):
    """Wraps a stateful process exposing .m and .step() -> matrix.

    Holds the live process and its last emission, which at(t) returns
    for its own time; a later time steps the process forward, and an
    earlier one raises, since the process cannot go back.  A failed
    emission fails every later query the same way: stepping past it
    would shift every later emission by one time.  A frozen canonical
    CSR emission is held without a copy.
    """

    def __init__(self, process):
        self.process = process
        self.m = int(process.m)
        self._t = -1  # index of the process's last emission
        self._G = None  # that emission validated
        self._error = None  # the failure that ended the source, if any

    def at(self, t: int):
        t = _check_time(t)
        if self._error is not None:
            raise self._error.with_traceback(None)
        if t < self._t:
            raise InvalidParamsError(f"driven source is at t={self._t}, cannot go back to"
                                     f" t={t}; build a fresh source to read it again")
        try:
            while self._t < t:
                self._G = _validated(self.process.step(), f"process output at t={self._t + 1}")
                self._t += 1
        except StopIteration as exc:
            self._error = ProcessExhaustedError(f"driven process ended before t={self._t + 1}")
            raise self._error from exc
        except Exception as exc:
            self._error = exc
            raise
        return self._G
