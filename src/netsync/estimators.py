"""Finite-horizon estimators for sequence diameters, projection spectral
radii, and Lyapunov exponents.

Every transverse estimator works in node space and never forms the
projected matrix Ghat = P G P+ of the difference frame (see linalg):
a block X is advanced as X <- G X and centred, X -= X[0].  Since
P G = Ghat P and P annihilates consensus rows, P X follows the projected
dynamics exactly, at O(m^2 n) per step (O(nnz n) for a sparse G) instead
of O(m^3).  One walk over absolute time serves sigma1 (width-1 probe
windows, all started at 0), the diameter and the projected growth (one
identity window per sampled start).  It scores every window's log
growth rate, and applies the probe-death rule, at every age.

The sup over window starts is sampled on a fixed grid; the limsup in t
is reported as the final-horizon value together with a convergence flag
derived from the tail of the curve.  Log accumulators keep rates
resolvable far below the floating-point floor.
"""

import math
from bisect import bisect_right
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidParamsError, OrbitDivergedError
from .hajnal import diam
from .linalg import compress, difference, lift

# value of a collapsed estimate: every probe direction was annihilated
NEG_INF = -math.inf
# a window at or below this size is taken as annihilated
DEAD_SIZE = 1e-300

# cap on the buffer a window walk steps a run of ages into
WALK_BUFFER_BYTES = 2**20

DEFAULT_RENORM_EVERY = 8
DEFAULT_N_VECTORS = 8
DEFAULT_T0_COUNT = 16
CURVE_TAIL_RTOL = 0.10

# the most scalar-orbit terms held at once: a leaf of the pairwise sum,
# at least numpy's own pairwise block of 128
MU_CHUNK = 4096


def default_t0_samples(horizon: int, n: int = DEFAULT_T0_COUNT) -> List[int]:
    """Window starts {0, s, 2s, ...} with stride s = horizon/8."""
    s = max(1, horizon // 8)
    return [k * s for k in range(n)]


class DiamEstimate(NamedTuple):
    value: float
    horizon: int
    t0_samples: List[int]
    curve: List[float]
    norm_kind: str  # always "inf", kept as a field of diam_estimate.json
    converged: bool

    def to_json_dict(self) -> dict:
        return self._asdict()


class LyapunovEstimate(NamedTuple):
    value: float
    horizon: int
    renorm_every: int
    trace: List[float]
    collapsed: bool
    converged: bool

    def to_json_dict(self) -> dict:
        d = self._asdict()
        d["curve"] = d.pop("trace")
        return d


def _tail_converged_multiplicative(curve: Sequence[float]) -> bool:
    """Last quartile of a rate curve varies by < 10 percent."""
    tail = np.asarray(curve[3 * len(curve) // 4 :])
    hi = float(tail.max())
    lo = float(tail.min())
    if hi <= 0.0:
        return True
    return (hi - lo) / hi < CURVE_TAIL_RTOL


def _tail_converged_log(trace: Sequence[float]) -> bool:
    tail = np.asarray(trace[3 * len(trace) // 4 :])
    return float(tail.max() - tail.min()) <= math.log(1.0 + CURVE_TAIL_RTOL)


def _nodes(source) -> int:
    m = source.m
    if m < 2:
        raise InvalidParamsError(f"need m >= 2, got {m}")
    return m


def window_schedule(starts: Sequence[int], length: int):
    """For windows [s, s + length) at the ascending starts: each maximal
    range [a, b) of time over which starts[lo:hi] are the open windows,
    as (a, b, lo, hi) in ascending order; no range covers a gap."""
    bounds = sorted({*starts, *(s + length for s in starts)})
    for a, b in zip(bounds, bounds[1:]):
        lo, hi = bisect_right(starts, a - length), bisect_right(starts, a)
        if lo < hi:
            yield a, b, lo, hi


def _window_walk(
    source,
    X: np.ndarray,
    starts: Sequence[int],
    horizon: int,
    renorm_every: int,
    size: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Log growth rates of a block of windows, one per age t = 1..horizon:
    entry t-1 is the max over windows of log(size of the window's product
    at age t) / t, or -inf where no window scores.

    X is an (m, K, w) block of K windows of width w, and window k starts
    at time starts[k] (ascending ints) from X[:, k].  At age t it holds
    Y_k = G(starts[k] + t - 1) ... G(starts[k]) X[:, k] relative to its
    row 0, so rows never coalesce below the float floor.  Only the open
    windows are held, as one contiguous block: where they change the walk
    keeps those still open and appends those opening from X, or steps X's
    own block if none is kept and it is contiguous and writeable.  Each
    time's matrix advances the block with one matmul into a buffer of
    WALK_BUFFER_BYTES, or in place if two ages of the block exceed it.  A
    run of ages ends where a window is renormalised, the buffer is full or
    the block changes, and is scored at once: size maps an (m, r*n, w) view
    of r ages of n windows to their sizes.  Every renorm_every ages a scored
    window is divided by its size, which a log scale keeps; a window whose
    size falls to DEAD_SIZE is zeroed and never scores again.
    """
    # numpy refuses a curve of 2**60 floats or more: its byte count overflows int64
    if not 1 <= horizon < 2**60 - 1 or renorm_every < 1:
        raise InvalidParamsError(
            f"need horizon in [1, 2**60 - 1) and renorm_every >= 1, got {horizon}, {renorm_every}"
        )
    m, K, w = X.shape
    first = np.asarray(starts)
    logscale = np.zeros(K)
    curve = np.full(horizon + 1, NEG_INF)
    Y, held, phi = None, 0, 0  # Y holds the windows starts[held:phi]
    with np.errstate(divide="ignore"):
        for a, b, lo, hi in window_schedule(starts, horizon):
            if lo < phi:
                Y = np.concatenate((Y[:, lo - held :], X[:, phi:hi]), axis=1)
            else:
                Y = np.require(X[:, lo:hi], requirements=["C", "W"])
            n, held, phi = hi - lo, lo, hi
            scale = logscale[lo:hi]
            age = a - first[lo:hi]
            due = [
                np.flatnonzero((age + j) % renorm_every == 0)
                for j in range(1, renorm_every + 1)
            ]
            L = max(1, min(renorm_every, b - a, WALK_BUFFER_BYTES // Y.nbytes))
            buf = np.empty((m, L, n, w)) if L > 1 else Y[:, None]
            slots = list(buf.reshape(m, L, n * w).swapaxes(0, 1))
            prev = Y.reshape(m, -1)
            r = 0
            for tau in range(a, b):
                Z = source.at(tau) @ prev
                prev = np.subtract(Z, Z[0], out=slots[r])
                del Z  # before the next product: one block at a time
                r += 1
                k = due[(tau - a) % renorm_every]
                if not k.size and r < L and tau < b - 1:
                    continue
                Y = buf[:, r - 1]
                ages = age + np.arange(tau - a + 2 - r, tau - a + 2)[:, None]
                d = size(buf[:, :r].reshape(m, r * n, w)).reshape(r, n)
                logd = np.log(d)
                dead = d <= DEAD_SIZE
                if dead.any():
                    # a window dead at one age of the run is dead for the rest
                    dead = np.logical_or.accumulate(dead)
                    logd[dead] = NEG_INF
                    d[dead] = 1.0
                    Y[:, dead[-1]] = 0.0
                # windows sharing a start share an age: keep the max
                np.maximum.at(curve, ages, (logd + scale) / ages)
                if k.size:
                    Y[:, k] /= d[-1, k][:, None]
                    scale[k] += logd[-1, k]
                r = 0
    return curve[1:]


def _window_estimate(source, horizon, t0_samples, renorm_every, size) -> DiamEstimate:
    """Curve of sup over window starts of size(window product)^(1/t),
    one identity window per distinct start."""
    if t0_samples is None:
        t0_samples = default_t0_samples(horizon)
    t0_samples = [int(t) for t in t0_samples]
    if not t0_samples:
        raise InvalidParamsError("need at least one window start")
    if min(t0_samples) < 0 or max(t0_samples) + horizon >= 2**63:
        # the walk counts a window's times in int64
        raise InvalidParamsError("window starts must be >= 0, and < 2**63 with the horizon")
    m = _nodes(source)
    starts = sorted(set(t0_samples))
    eye = np.eye(m)
    X = np.broadcast_to((eye - eye[0])[:, None, :], (m, len(starts), m))
    curve = _window_walk(source, X, starts, horizon, renorm_every, size)
    # in place, so exp allocates no second horizon-long array
    curve = np.exp(curve, out=curve).tolist()
    converged = _tail_converged_multiplicative(curve)
    return DiamEstimate(curve[-1], horizon, t0_samples, curve, "inf", converged)


def estimate_hajnal_diameter(
    source,
    horizon: int,
    t0_samples: Optional[Sequence[int]] = None,
    renorm_every: int = DEFAULT_RENORM_EVERY,
) -> DiamEstimate:
    """Estimate diam of the sequence: sup over sampled window starts of
    diam(window product)^(1/t), reported for every t up to the horizon.

    The diameter of a window product B is read off its rows relative to
    row 0, which the shared window walk carries in node space.
    """
    return _window_estimate(source, horizon, t0_samples, renorm_every, diam)


def estimate_projection_jsr(
    source,
    horizon: int = 500,
    t0_samples: Optional[Sequence[int]] = None,
    renorm_every: int = DEFAULT_RENORM_EVERY,
) -> DiamEstimate:
    """Estimate the projection joint spectral radius:
    sup over sampled window starts of ||prod Ghat||_inf^(1/t).

    The norm is read in the difference frame, where the projected
    window product P B P+ is compress(B) in closed form.
    """

    def size(Y):
        return np.linalg.norm(compress(Y), np.inf, axis=(0, 2))

    return _window_estimate(source, horizon, t0_samples, renorm_every, size)


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
    node space, X = P+ V, and walked as width-1 windows that all start
    at time 0; P X equals the projected probes at every step, since
    P G = Ghat P and P annihilates consensus rows.  The walk scores the
    probes at every step; the trace reads the rate at every
    renorm_every-th step, and the value at the horizon."""
    if not 1 <= renorm_every <= horizon:
        raise InvalidParamsError(
            f"need horizon >= renorm_every >= 1, got {horizon}, {renorm_every}"
        )
    if n_vectors < 1:
        raise InvalidParamsError("need at least one probe vector")
    m = _nodes(source)
    rng = np.random.default_rng(seed)
    # draw probe-by-probe so a larger n_vectors extends, not reshuffles
    V = rng.standard_normal((n_vectors, m - 1)).T
    V /= np.linalg.norm(V, axis=0, keepdims=True)

    def size(Y):
        # np.linalg.norm(D, axis=0) of the probes' differences, without
        # its per-call overhead; numpy sums a lone column pairwise, so a
        # lone probe's ages are summed as rows, in that order
        D = difference(Y[..., 0])
        D *= D
        return np.sqrt(D.T.copy().sum(axis=1) if n_vectors == 1 else D.sum(axis=0))

    X = lift(V)[:, :, None]
    curve = _window_walk(source, X, [0] * n_vectors, horizon, renorm_every, size)
    value = float(curve[-1])
    trace = curve[renorm_every - 1 :: renorm_every].tolist()
    collapsed = value == NEG_INF
    # a probe alive at the horizon scored at every age the trace reads,
    # so only a collapsed trace holds -inf
    converged = collapsed or _tail_converged_log(trace)
    return LyapunovEstimate(value, horizon, renorm_every, trace, collapsed, converged)


def estimate_scalar_lyapunov(
    f: Callable[[float], float],
    df: Callable[[float], float],
    s0: float,
    burn_in: int,
    horizon: int,
) -> float:
    """Lyapunov exponent of a scalar map: average of log|df| along the
    orbit after a transient.  |df| is floored at 1e-300 before the log;
    orbits leaving |s| <= 1e12 raise.

    The orbit is consumed as it is generated, in leaves of at most
    MU_CHUNK terms, so memory does not grow with the horizon.  The
    leaves split the horizon as numpy's pairwise summation splits a
    contiguous float64 array, and each is reduced by numpy itself, so
    the mean is np.mean of the whole orbit's terms bit for bit.  A
    scalar df is broadcast over the leaf."""
    if horizon < 1:
        raise InvalidParamsError(f"horizon must be >= 1, got {horizon}")
    if burn_in < 0:
        raise InvalidParamsError(f"burn_in must be >= 0, got {burn_in}")
    s = float(s0)
    for t in range(burn_in):
        s = f(s)
        if not abs(s) <= 1e12:
            raise OrbitDivergedError(t, s)
    buf = np.empty(min(horizon, MU_CHUNK))
    step = burn_in

    def pairwise_sum(n):
        # numpy's pairwise_sum: a range above its block splits at n2,
        # a multiple of its 8-way unrolling
        nonlocal s, step
        if n > MU_CHUNK:
            n2 = n // 2 - (n // 2) % 8
            return pairwise_sum(n2) + pairwise_sum(n - n2)
        leaf = buf[:n]
        for k in range(n):
            leaf[k] = s
            s = f(s)
            if not abs(s) <= 1e12:
                raise OrbitDivergedError(step + k, s)
        step += n
        derivs = np.broadcast_to(np.abs(np.asarray(df(leaf), dtype=float)), leaf.shape)
        return np.add.reduce(np.log(np.maximum(derivs, 1e-300)))

    return float(pairwise_sum(horizon) / horizon)
