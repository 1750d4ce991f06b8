"""Finite-horizon estimators for sequence diameters, projection spectral
radii, and Lyapunov exponents.

Every transverse estimator works in node space and never forms the
projected matrix Ghat = P G P+ of the difference frame (see linalg):
a block X is advanced as X <- G X and centred, X -= X[0].  Since
P G = Ghat P and P annihilates consensus rows, P X follows the projected
dynamics exactly, at O(m^2 n) per step (O(nnz n) for a sparse G) instead
of O(m^3).  The two window estimators share one walk over absolute time
that advances every sampled window with a single matmul per step.

The sup over window starts is sampled on a fixed grid; the limsup in t
is reported as the final-horizon value together with a convergence flag
derived from the tail of the curve.  All long products are carried with
periodic rescaling and log accumulators so rates stay resolvable far
below the floating-point floor.
"""

import math
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import (
    DimensionTooSmallError,
    InvalidParamsError,
    OrbitDivergedError,
    SingularMatrixError,
)
from .hajnal import diam
from .linalg import as_dense, compress, difference, lift, norm_ord

# value of a collapsed estimate: every probe direction was annihilated
NEG_INF = -math.inf

DEFAULT_RENORM_EVERY = 8
DEFAULT_N_VECTORS = 8
DEFAULT_T0_COUNT = 16
CURVE_TAIL_RTOL = 0.10


def default_t0_samples(horizon: int, n: int = DEFAULT_T0_COUNT) -> List[int]:
    """Window starts {0, s, 2s, ...} with stride s = horizon/8."""
    s = max(1, horizon // 8)
    return [k * s for k in range(n)]


@dataclass(frozen=True)
class DiamEstimate:
    value: float
    horizon: int
    t0_samples: List[int]
    curve: List[float]
    norm_kind: str
    converged: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    horizon: int
    renorm_every: int
    trace: List[float]
    collapsed: bool
    converged: bool

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["curve"] = d.pop("trace")
        return d


def _tail_converged_multiplicative(curve: Sequence[float]) -> bool:
    """Last quartile of a rate curve varies by < 10 percent."""
    if not curve:
        return False
    tail = np.asarray(curve[3 * len(curve) // 4 :])
    hi = float(tail.max())
    lo = float(tail.min())
    if hi <= 0.0:
        return True
    return (hi - lo) / hi < CURVE_TAIL_RTOL


def _tail_converged_log(trace: Sequence[float]) -> bool:
    if not trace:
        return False
    tail = np.asarray(trace[3 * len(trace) // 4 :])
    return float(tail.max() - tail.min()) <= math.log(1.0 + CURVE_TAIL_RTOL)


def _window_walk(
    source,
    horizon: int,
    t0_samples: Optional[Sequence[int]],
    kind: str,
    renorm_every: int,
    size: Callable[[np.ndarray], np.ndarray],
) -> DiamEstimate:
    """Curve of sup over window starts of size(window product)^(1/t),
    in one walk over absolute time tau.

    Window k holds its product B_k = G(tau)...G(t0_k) relative to row 0,
    Y_k = B_k - 1 B_k[0], so rows never coalesce below the float floor.
    Windows are stacked as (m, K, m) by start, so those covering tau are
    one contiguous block that G(tau) advances with a single matmul; size
    maps such a block to its window sizes.
    """
    if horizon < 1:
        raise InvalidParamsError(f"horizon must be >= 1, got {horizon}")
    if t0_samples is None:
        t0_samples = default_t0_samples(horizon)
    t0_samples = [int(t) for t in t0_samples]
    if not t0_samples:
        raise InvalidParamsError("need at least one window start")
    if any(t < 0 for t in t0_samples):
        raise InvalidParamsError("window starts must be >= 0")
    m = source.m
    if m < 2:
        raise DimensionTooSmallError(f"need m >= 2, got {m}")
    starts = np.sort(np.asarray(t0_samples))
    K = starts.size
    eye = np.eye(m)
    Y = np.repeat((eye - eye[0])[:, None, :], K, axis=1)
    logscale = np.zeros(K)
    best = np.zeros(horizon)
    lo = hi = 0
    tau = int(starts[0])
    while lo < K:
        while hi < K and starts[hi] <= tau:
            hi += 1
        Z = (source.at(tau) @ Y[:, lo:hi].reshape(m, -1)).reshape(m, hi - lo, m)
        Z -= Z[0]
        t = tau + 1 - starts[lo:hi]
        if renorm_every:
            due = np.flatnonzero(t % renorm_every == 0)
            if due.size:
                s = np.abs(Z[:, due]).max(axis=(0, 2))
                # an annihilated window stays zero and never scores again
                s[s == 0.0] = 1.0
                Z[:, due] /= s[:, None]
                logscale[lo + due] += np.log(s)
        Y[:, lo:hi] = Z
        d = size(Z)
        ok = d > 0.0
        idx = t[ok] - 1
        # windows sharing a start hold equal products, so a repeated
        # index writes one value
        best[idx] = np.maximum(
            best[idx], np.exp((np.log(d[ok]) + logscale[lo:hi][ok]) / t[ok])
        )
        tau += 1
        while lo < hi and starts[lo] + horizon <= tau:
            lo += 1
        if lo == hi < K:
            tau = int(starts[hi])
    curve = best.tolist()
    return DiamEstimate(
        value=curve[-1],
        horizon=horizon,
        t0_samples=t0_samples,
        curve=curve,
        norm_kind=kind,
        converged=_tail_converged_multiplicative(curve),
    )


def estimate_hajnal_diameter(
    source,
    horizon: int,
    t0_samples: Optional[Sequence[int]] = None,
    kind: str = "inf",
    renorm_every: int = DEFAULT_RENORM_EVERY,
) -> DiamEstimate:
    """Estimate diam of the sequence: sup over sampled window starts of
    diam(window product)^(1/t), reported for every t up to the horizon.

    The diameter of a window product B is read off its rows relative to
    row 0, which the shared window walk carries in node space.
    """
    return _window_walk(
        source, horizon, t0_samples, kind, renorm_every, lambda Y: diam(Y, kind)
    )


def estimate_projection_jsr(
    source,
    horizon: int = 500,
    t0_samples: Optional[Sequence[int]] = None,
    kind: str = "inf",
    renorm_every: int = DEFAULT_RENORM_EVERY,
) -> DiamEstimate:
    """Estimate the projection joint spectral radius:
    sup over sampled window starts of ||prod Ghat||^(1/t).

    The norm is read in the difference frame, where the projected
    window product P B P+ is compress(B) in closed form.
    """

    def size(Y):
        return np.linalg.norm(compress(Y), norm_ord(kind), axis=(0, 2))

    return _window_walk(source, horizon, t0_samples, kind, renorm_every, size)


def estimate_sigma1(
    source,
    horizon: int = 10_000,
    renorm_every: int = DEFAULT_RENORM_EVERY,
    n_vectors: int = DEFAULT_N_VECTORS,
    seed: int = 0,
) -> LyapunovEstimate:
    """Top projection Lyapunov exponent: propagate random unit probes
    through the projected sequence, accumulate log growth, take the max
    over probes.  Probes that are annihilated drop out; if all die the
    value is -inf with collapsed=True.

    The probes V live in the difference frame.  They are lifted once to
    node space, X = P+ V, and carried there as X <- G X, X -= X[0];
    P X equals the projected probes at every step, since P G = Ghat P
    and P annihilates consensus rows."""
    if horizon < 1 or renorm_every < 1 or horizon < renorm_every:
        raise InvalidParamsError(
            f"need horizon >= renorm_every >= 1, got {horizon}, {renorm_every}"
        )
    if n_vectors < 1:
        raise InvalidParamsError("need at least one probe vector")
    m = source.m
    if m < 2:
        raise DimensionTooSmallError(f"need m >= 2, got {m}")
    rng = np.random.default_rng(seed)
    # draw probe-by-probe so a larger n_vectors extends, not reshuffles
    V = rng.standard_normal((n_vectors, m - 1)).T
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    X = lift(V)
    logs = np.zeros(n_vectors)
    alive = np.ones(n_vectors, dtype=bool)
    trace: List[float] = []
    last_renorm = 0
    for t in range(1, horizon + 1):
        X = source.at(t - 1) @ X
        X -= X[0]
        if t % renorm_every == 0:
            norms = np.linalg.norm(difference(X), axis=0)
            dying = alive & (norms <= 1e-300)
            alive &= ~dying
            X[:, ~alive] = 0.0
            live = np.flatnonzero(alive)
            if live.size:
                logs[live] += np.log(norms[live])
                X[:, live] /= norms[live]
                trace.append(float(np.max(logs[live])) / t)
            else:
                trace.append(NEG_INF)
            last_renorm = t
    live = np.flatnonzero(alive)
    if live.size == 0:
        return LyapunovEstimate(
            value=NEG_INF,
            horizon=horizon,
            renorm_every=renorm_every,
            trace=trace,
            collapsed=True,
            converged=True,
        )
    if last_renorm < horizon:
        norms = np.linalg.norm(difference(X[:, live]), axis=0)
        ok = norms > 1e-300
        final = logs[live][ok] + np.log(norms[ok]) if ok.any() else np.array([])
        value = float(final.max() / horizon) if final.size else NEG_INF
    else:
        value = float(np.max(logs[live]) / horizon)
    if value == NEG_INF:
        return LyapunovEstimate(value, horizon, renorm_every, trace, True, True)
    finite_trace = [x for x in trace if x != NEG_INF]
    return LyapunovEstimate(
        value=value,
        horizon=horizon,
        renorm_every=renorm_every,
        trace=trace,
        collapsed=False,
        converged=_tail_converged_log(finite_trace),
    )


def lyapunov_spectrum_qr(source, horizon: int) -> List[float]:
    """All Lyapunov exponents of a square-matrix sequence, descending,
    via QR reorthonormalization of a full frame.  Sparse matrices are
    densified, since the frame is dense."""
    if horizon < 1:
        raise InvalidParamsError(f"horizon must be >= 1, got {horizon}")
    A0 = as_dense(source.at(0))
    m = A0.shape[0]
    Q = np.eye(m)
    logs = np.zeros(m)
    for t in range(horizon):
        A = A0 if t == 0 else as_dense(source.at(t))
        Q, R = np.linalg.qr(A @ Q)
        d = np.abs(np.diag(R))
        if np.any(d < 1e-300):
            raise SingularMatrixError(t)
        logs += np.log(d)
    return sorted((logs / horizon).tolist(), reverse=True)


def estimate_scalar_lyapunov(
    f: Callable[[float], float],
    df: Callable[[float], float],
    s0: float,
    burn_in: int,
    horizon: int,
) -> float:
    """Lyapunov exponent of a scalar map: average of log|df| along the
    orbit after a transient.  |df| is floored at 1e-300 before the log;
    orbits leaving |s| <= 1e12 raise."""
    if horizon < 1:
        raise InvalidParamsError(f"horizon must be >= 1, got {horizon}")
    if burn_in < 0:
        raise InvalidParamsError(f"burn_in must be >= 0, got {burn_in}")
    s = float(s0)
    for t in range(burn_in):
        s = f(s)
        if not abs(s) <= 1e12:
            raise OrbitDivergedError(t, s)
    orbit = np.empty(horizon)
    for k in range(horizon):
        orbit[k] = s
        s = f(s)
        if not abs(s) <= 1e12:
            raise OrbitDivergedError(burn_in + k, s)
    derivs = np.abs(np.asarray(df(orbit), dtype=float))
    return float(np.mean(np.log(np.maximum(derivs, 1e-300))))
