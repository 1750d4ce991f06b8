"""Coupled map lattice simulation and synchronization diagnostics.

Network of m identical scalar maps, coupled once per step through a row
stochastic matrix G(t):

    x(t+1) = f(x_1(t)), ..., f(x_m(t)) mixed by G(t)

The update is evaluated in centered form, x' = c + G (F - c) with
c = F[0], which is algebraically identical to G F for row stochastic G
but keeps the diagonal {x_1 = ... = x_m} invariant to the last bit: on
the diagonal F - c vanishes exactly, so no rounding from the matrix
product can push the state off the synchronized orbit.

Synchronization is predicted by the sign of W = sigma1 + mu, where
sigma1 is the top transverse (projected) Lyapunov exponent of the
coupling sequence and mu the Lyapunov exponent of the scalar map, and
observed by the final state diameter falling below SYNC_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyListError,
    InvalidParamsError,
    StateDivergedError,
)
from .sources import MatrixSource

SYNC_TOL = 1e-8
DIVERGE_LIMIT = 1e12
INDETERMINATE_BAND = 0.05


@dataclass(frozen=True)
class ScalarMap:
    """Scalar map with derivative. f and df must accept numpy arrays."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)

    def check_derivative(self, lo=0.0, hi=1.0, n=100, seed=0, h=1e-6):
        """Max scaled error of df against central differences of f."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(lo + h, hi - h, size=n)
        fd = (np.asarray(self.f(pts + h)) - np.asarray(self.f(pts - h))) / (2 * h)
        claimed = np.asarray(self.df(pts))
        scale = np.maximum(1.0, np.abs(claimed))
        return float(np.max(np.abs(fd - claimed) / scale))


def logistic(alpha):
    """The logistic family f(s) = alpha s (1 - s) on [0, 1]."""
    if not (0.0 < alpha <= 4.0):
        raise InvalidParamsError(f"logistic parameter must be in (0, 4], got {alpha}")
    fmap = ScalarMap(
        name="logistic",
        f=lambda s: alpha * s * (1.0 - s),
        df=lambda s: alpha * (1.0 - 2.0 * s),
        params={"alpha": float(alpha)},
    )
    err = fmap.check_derivative()
    if err >= 1e-6:
        raise InvalidParamsError(f"derivative self-check failed: {err}")
    return fmap


class SyncCriterion(NamedTuple):
    W: float
    predicted_sync: bool


def criterion(sigma1, mu):
    """Combine transverse exponent and map exponent into W = sigma1 + mu.

    sigma1 = -inf (coupling collapses in finite time) gives W = -inf,
    which predicts synchronization.
    """
    if not np.isfinite(mu):
        raise InvalidParamsError("mu must be finite")
    if np.isnan(sigma1) or sigma1 == np.inf:
        raise InvalidParamsError("sigma1 must be finite or -inf")
    W = float(sigma1) + float(mu)
    return SyncCriterion(W, W < 0.0)


@dataclass(frozen=True)
class SimRun:
    m: int
    steps: int
    record_every: int
    times: list
    k_series: list
    diam_series: list
    final_state: np.ndarray
    observed_sync: bool
    k_final_quarter: float


@dataclass(frozen=True)
class SyncReport:
    """A finished run with the analytic criterion attached."""

    run: SimRun
    sigma1: float
    mu: float
    W: float
    predicted_sync: bool
    indeterminate: bool
    mu_source: str


def _spread_stat(x):
    if x.size < 2:
        return 0.0
    d = x - x.mean()
    return float(d @ d) / (x.size - 1)


def simulate(source: MatrixSource, fmap: ScalarMap, x0, steps, record_every=1):
    """Run the lattice for `steps` updates, recording K and diameter.

    K at a recorded time t is the running time average of the spread
    statistic over [0, t]. The diameter is max_i x_i - min_i x_i of the
    current state. Raises StateDivergedError when any component leaves
    [-DIVERGE_LIMIT, DIVERGE_LIMIT] (or turns non-finite).
    """
    if steps < 0:
        raise InvalidParamsError("steps must be nonnegative")
    if record_every < 1:
        raise InvalidParamsError("record_every must be positive")
    x = np.array(x0, dtype=float).reshape(-1)
    m = x.size
    if m == 0:
        raise EmptyListError("empty initial state")
    if source.m != m:
        raise DimensionMismatchError(
            f"source emits {source.m}x{source.m}, state has {m} components"
        )

    times = [0]
    v_values = [_spread_stat(x)]
    v_sum = v_values[0]
    k_series = [v_values[0]]
    diam_series = [float(x.max() - x.min())]

    for t in range(steps):
        G = source.at(t)
        F = np.asarray(fmap.f(x), dtype=float)
        c = F[0]
        x = c + G @ (F - c)
        if not np.max(np.abs(x)) <= DIVERGE_LIMIT:
            raise StateDivergedError(t=t + 1, value=float(np.max(np.abs(x))))
        v = _spread_stat(x)
        v_values.append(v)
        v_sum += v
        if (t + 1) % record_every == 0 or t + 1 == steps:
            times.append(t + 1)
            k_series.append(v_sum / (t + 2))
            diam_series.append(float(x.max() - x.min()))

    final_diam = float(x.max() - x.min())
    quarter = v_values[(3 * len(v_values)) // 4 :]
    return SimRun(
        m=m,
        steps=steps,
        record_every=record_every,
        times=times,
        k_series=k_series,
        diam_series=diam_series,
        final_state=x,
        observed_sync=final_diam < SYNC_TOL,
        k_final_quarter=float(np.mean(quarter)),
    )


def make_sync_report(run: SimRun, sigma1, mu, mu_source):
    """Attach the analytic criterion to a finished run.

    |W| < INDETERMINATE_BAND flags the verdict as indeterminate rather
    than asserting either outcome.
    """
    if mu_source not in ("supplied", "estimated"):
        raise InvalidParamsError("mu_source must be 'supplied' or 'estimated'")
    W, predicted = criterion(sigma1, mu)
    indeterminate = abs(W) < INDETERMINATE_BAND
    return SyncReport(
        run=run,
        sigma1=float(sigma1),
        mu=float(mu),
        W=W,
        predicted_sync=predicted,
        indeterminate=indeterminate,
        mu_source=mu_source,
    )

