"""Coupled map lattice simulation and synchronization diagnostics.

Network of m identical scalar maps, coupled once per step through a row
stochastic matrix G(t):

    x(t+1) = f(x_1(t)), ..., f(x_m(t)) mixed by G(t)

The update is evaluated in centered form, x' = c + G (F - c) with
c = F[0], which is algebraically identical to G F for row stochastic G
but keeps the diagonal {x_1 = ... = x_m} invariant to the last bit: on
the diagonal F - c vanishes exactly, so no rounding from the matrix
product can push the state off the synchronized orbit.  An Orbit steps
as its source is read through it, so a caller walking the sequence for
another reason advances it on the way; simulate only reads it through.

Synchronization is predicted by the sign of W = sigma1 + mu, where
sigma1 is the top transverse (projected) Lyapunov exponent of the
coupling sequence and mu the Lyapunov exponent of the scalar map, and
observed by the final state diameter falling below SYNC_TOL.
"""

from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParamsError, StateDivergedError
from .sources import MatrixSource

SYNC_TOL = 1e-8
DIVERGE_LIMIT = 1e12
INDETERMINATE_BAND = 0.05


class ScalarMap(NamedTuple):
    """Scalar map with derivative. f and df must accept numpy arrays."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    params: dict


def logistic(alpha):
    """The logistic family f(s) = alpha s (1 - s) on [0, 1]."""
    if not (0.0 < alpha <= 4.0):
        raise InvalidParamsError(f"logistic parameter must be in (0, 4], got {alpha}")
    return ScalarMap(
        name="logistic",
        f=lambda s: alpha * s * (1.0 - s),
        df=lambda s: alpha * (1.0 - 2.0 * s),
        params={"alpha": float(alpha)},
    )


class SyncCriterion(NamedTuple):
    W: float
    predicted_sync: bool


def criterion(sigma1, mu):
    """Combine transverse exponent and map exponent into W = sigma1 + mu.

    sigma1 = -inf (coupling collapses in finite time) gives W = -inf,
    which predicts synchronization.  Callers report a |W| below
    INDETERMINATE_BAND as indeterminate rather than either outcome.
    """
    if not np.isfinite(mu):
        raise InvalidParamsError("mu must be finite")
    if np.isnan(sigma1) or sigma1 == np.inf:
        raise InvalidParamsError("sigma1 must be finite or -inf")
    W = float(sigma1) + float(mu)
    return SyncCriterion(W, W < 0.0)


class SimRun(NamedTuple):
    m: int
    steps: int
    record_every: int
    times: np.ndarray  # int64
    k_series: np.ndarray
    diam_series: np.ndarray
    final_state: np.ndarray
    observed_sync: bool
    k_final_quarter: float


class Orbit:
    """The lattice stepped through its source as the source is read.

    at(t) returns source.at(t) and, when t is the orbit's next time below
    steps, also steps the state through it; run reads on through steps.
    K at a recorded time t is the time average over [0, t] of the spread
    sum_i (x_i - mean x)^2 / (m - 1), the diameter max_i x_i - min_i x_i.
    A state leaving [-DIVERGE_LIMIT, DIVERGE_LIMIT] (or turning
    non-finite), the initial state included, stops the orbit, and run
    raises it as StateDivergedError.  The recorded times are 0,
    record_every, 2 record_every, ... and steps, so time t is row
    ceil(t / record_every) of arrays sized at construction.
    """

    def __init__(self, source: MatrixSource, fmap: ScalarMap, x0, steps, record_every=1):
        if steps < 0:
            raise InvalidParamsError("steps must be nonnegative")
        if record_every < 1:
            raise InvalidParamsError("record_every must be positive")
        x = np.array(x0, dtype=float).reshape(-1)
        if x.size == 0 or source.m != x.size:
            raise InvalidParamsError(
                f"source emits {source.m}x{source.m}, state has {x.size} components"
            )
        self.source, self.m, self.fmap = source, source.m, fmap
        self.steps, self.record_every = steps, record_every
        self.t, self.v_sum, self.diverged = 0, 0.0, None
        rows = -(-steps // record_every) + 1
        self.times = np.empty(rows, dtype=np.int64)
        self.k_series, self.diam_series = np.empty(rows), np.empty(rows)
        # the spreads of the last quarter of times 0..steps, which run averages
        self.quarter = (3 * (steps + 1)) // 4
        self.v_tail = np.empty(steps + 1 - self.quarter)
        self._record(x)

    def _record(self, x):
        """Take x as the state at time t, or hold its divergence."""
        size = float(np.max(np.abs(x)))
        if not size <= DIVERGE_LIMIT:
            self.diverged = StateDivergedError(t=self.t, value=size)
            return
        self.x, t = x, self.t
        d = x - x.mean()
        v = float(d @ d) / (x.size - 1) if x.size > 1 else 0.0
        if t >= self.quarter:
            self.v_tail[t - self.quarter] = v
        self.v_sum += v
        if t % self.record_every == 0 or t == self.steps:
            r = -(-t // self.record_every)
            self.times[r] = t
            self.k_series[r] = self.v_sum / (t + 1)
            self.diam_series[r] = x.max() - x.min()

    def at(self, t):
        G = self.source.at(t)
        if t == self.t < self.steps and self.diverged is None:
            with np.errstate(over="ignore", invalid="ignore"):
                F = np.asarray(self.fmap.f(self.x), dtype=float)
                c = F[0]
                x = c + G @ (F - c)
            self.t += 1
            self._record(x)
        return G

    def run(self) -> SimRun:
        while self.t < self.steps and self.diverged is None:
            self.at(self.t)
        if self.diverged is not None:
            raise self.diverged
        x = self.x
        return SimRun(
            m=x.size, steps=self.steps, record_every=self.record_every, times=self.times,
            k_series=self.k_series, diam_series=self.diam_series, final_state=x,
            observed_sync=float(x.max() - x.min()) < SYNC_TOL,
            k_final_quarter=float(np.mean(self.v_tail)),
        )


def simulate(source: MatrixSource, fmap: ScalarMap, x0, steps, record_every=1):
    """Run the lattice for `steps` updates through source.at(0..steps-1)."""
    return Orbit(source, fmap, x0, steps, record_every).run()
