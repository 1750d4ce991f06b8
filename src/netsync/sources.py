"""Seeded producers of stochastic matrix sequences {G(t)}.

Static, periodic, and iid-over-a-finite-set variants are random access;
the driven variant wraps a stateful topology process and holds only its
last emission: a query for an earlier time replays the process from a
deep copy taken at construction, so repeated queries are consistent and
memory does not grow with the horizon.

A matrix is a float ndarray or, when a process emits scipy.sparse, a
CSR array; either is validated as row stochastic and frozen.
"""

import copy
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptySetError,
    InvalidParamsError,
    ProcessExhaustedError,
)
from .linalg import is_stochastic, issparse

_ZERO4 = np.zeros(4, dtype=np.uint64)


def _validated(G, what: str = "matrix"):
    """A frozen copy of G, checked row stochastic; scipy.sparse input
    becomes a canonical CSR array, checked on its stored entries."""
    if issparse(G):
        from scipy.sparse import csr_array

        G = csr_array(G, dtype=float, copy=True)
        G.sum_duplicates()
        frozen = G.data
    else:
        G = frozen = np.array(G, dtype=float)
    if not is_stochastic(G):
        raise InvalidParamsError(f"{what} is not row stochastic")
    frozen.flags.writeable = False
    return G


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
    def __init__(self, G):
        self.G = _validated(G)
        self.m = self.G.shape[0]

    def at(self, t: int) -> np.ndarray:
        _check_time(t)
        return self.G


class PeriodicSource(MatrixSource):
    def __init__(self, matrices: Sequence):
        mats = [_validated(G, f"matrix {k}") for k, G in enumerate(matrices)]
        if not mats:
            raise InvalidParamsError("periodic source needs at least one matrix")
        self.m = mats[0].shape[0]
        for k, G in enumerate(mats):
            if G.shape[0] != self.m:
                raise InvalidParamsError(
                    f"matrix {k} has dimension {G.shape[0]}, expected {self.m}"
                )
        self.matrices = mats

    def at(self, t: int) -> np.ndarray:
        t = _check_time(t)
        return self.matrices[t % len(self.matrices)]


class FiniteSetIIDSource(MatrixSource):
    """Independent draws from a finite matrix set, one per time step.

    Uses a counter-based generator keyed on (seed, t) so at(t) is O(1)
    and random access never replays history.  The generator object is
    reused across calls, so, like a driven source, a source is not to be
    shared between threads.
    """

    def __init__(self, matrices: Sequence, weights: Optional[Sequence[float]] = None, seed: int = 0):
        mats = [_validated(G, f"matrix {k}") for k, G in enumerate(matrices)]
        if not mats:
            raise EmptySetError("finite iid source needs a nonempty matrix set")
        self.m = mats[0].shape[0]
        for k, G in enumerate(mats):
            if G.shape[0] != self.m:
                raise InvalidParamsError(
                    f"matrix {k} has dimension {G.shape[0]}, expected {self.m}"
                )
        self.matrices = mats
        if weights is None:
            w = np.full(len(mats), 1.0 / len(mats))
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (len(mats),):
                raise InvalidParamsError(
                    f"got {w.size} weights for {len(mats)} matrices"
                )
            if np.any(w < 0) or not np.all(np.isfinite(w)) or w.sum() <= 0:
                raise InvalidParamsError("weights must be nonnegative with positive sum")
            w = w / w.sum()
        self.weights = w
        self._cum = np.cumsum(w)
        self.seed = int(seed)
        if not 0 <= self.seed < 2**63:
            raise InvalidParamsError("seed must fit in a nonnegative 63-bit integer")
        self._bits = np.random.Philox(key=[self.seed, 0])

    def index_at(self, t: int) -> int:
        t = _check_time(t)
        # reset to the state of a fresh Philox(key=[seed, t]), which is
        # cheaper than constructing one, then draw the 53-bit uniform that
        # Generator.random() would
        key = np.array([self.seed, t], dtype=np.uint64)
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO4, "key": key},
            "buffer": _ZERO4,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        u = (self._bits.random_raw() >> 11) * 2.0**-53
        return int(min(np.searchsorted(self._cum, u, side="right"), len(self.matrices) - 1))

    def at(self, t: int) -> np.ndarray:
        return self.matrices[self.index_at(t)]


class DrivenSource(MatrixSource):
    """Wraps a stateful process exposing .m and .step() -> matrix.

    Holds the live process, a deep copy of it taken at construction, and
    the last emission.  at(t) steps the live process forward to t; a time
    before the last one emitted restarts the live process from a fresh
    copy of the checkpoint and replays, so at(t) is consistent across
    calls whatever the order of queries.  Consumers that walk time in
    order pay no replay; memory is one process and one matrix.
    """

    def __init__(self, process):
        self._checkpoint = copy.deepcopy(process)
        self.process = process
        self.m = int(process.m)
        self._t = -1  # index of the live process's last emission
        self._G = None  # that emission validated, or None if it failed

    def at(self, t: int):
        t = _check_time(t)
        # after a failed emission every query replays, so times before
        # it stay readable and later ones fail the same way again
        if t < self._t or (self._G is None and self._t >= 0):
            self.process = copy.deepcopy(self._checkpoint)
            self._t = -1
        while self._t < t:
            self._t += 1
            self._G = None
            try:
                G = self.process.step()
            except StopIteration as exc:
                raise ProcessExhaustedError(
                    f"driven process ended before t={t}"
                ) from exc
            self._G = _validated(G, f"process output at t={self._t}")
        return self._G
