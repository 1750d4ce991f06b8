"""Oracle tests for the finite-horizon spectral estimators.

Reference values come from closed forms (symmetric 2x2 coupling, exact
eigensolves), from numpy eigendecompositions computed in the test, or
from the reference implementations below, which propagate through the
projected matrices Ghat = P G Pplus, one window at a time.
"""

import math
import time
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netsync import estimators
from netsync.errors import InvalidParamsError, OrbitDivergedError
from netsync.estimators import (
    DEAD_SIZE,
    DEFAULT_RENORM_EVERY,
    MU_CHUNK,
    NEG_INF,
    WALK_BUFFER_BYTES,
    _window_walk,
    default_t0_samples,
    estimate_hajnal_diameter,
    estimate_projection_jsr,
    estimate_scalar_lyapunov,
    estimate_sigma1,
    window_schedule,
)
from netsync.cml import logistic
from netsync.hajnal import diam
from netsync.linalg import CSR, compress, difference, lift
from netsync.processes import BlinkingProcess, BlurringProcess
from netsync.sources import (
    DrivenSource,
    FiniteSetIIDSource,
    MatrixSource,
    PeriodicSource,
    StaticSource,
)
from oracles import (
    NORM_ORD,
    SingularMatrixError,
    diam_in,
    lyapunov_spectrum_qr,
    make_stochastic,
    matrix_norm_in,
    scalar_lyapunov_held,
)

SYM2 = np.array([[0.75, 0.25], [0.25, 0.75]])  # eigenvalues 1 and 0.5
RANK1 = np.tile([0.3, 0.7], (2, 1))


def second_modulus(G):
    lam = np.sort(np.abs(np.linalg.eigvals(G)))
    return float(lam[-2])


def mixing_pair(seed=5, m=3):
    rng = np.random.default_rng(seed)
    return [make_stochastic(rng.random((m, m)) + 0.05) for _ in range(2)]


# ------------------------------------------------------------- t0 sampling


def test_default_t0_samples():
    assert default_t0_samples(800) == [100 * k for k in range(16)]
    assert default_t0_samples(4) == list(range(16))


# ------------------------------------------------------------- diam curve


def test_diam_estimate_rank_one_is_zero():
    est = estimate_hajnal_diameter(StaticSource(RANK1), horizon=50)
    assert est.value == 0.0
    assert est.converged
    assert all(v == 0.0 for v in est.curve[1:])


def test_diam_estimate_identity_is_one():
    est = estimate_hajnal_diameter(StaticSource(np.eye(2)), horizon=60)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(est.curve, 1.0, atol=1e-12)


def test_diam_estimate_symmetric_pair_matches_sigma1():
    t_start = time.monotonic()
    est = estimate_hajnal_diameter(StaticSource(SYM2), horizon=100)
    assert est.value == pytest.approx(0.5, rel=0.05)
    assert time.monotonic() - t_start < 5.0


def test_diam_estimate_value_is_last_curve_entry():
    est = estimate_hajnal_diameter(StaticSource(SYM2), horizon=40)
    assert est.value == est.curve[-1]
    assert len(est.curve) == 40
    assert min(est.curve) >= 0.0


def test_diam_estimate_deep_horizon_survives_underflow():
    # raw diameters reach 0.5^2000 ~ 1e-602, far below float range; the
    # estimator must keep resolving the rate through rescaling
    est = estimate_hajnal_diameter(StaticSource(SYM2), horizon=2000, t0_samples=[0])
    assert est.value == pytest.approx(0.5, rel=1e-6)


def test_diam_estimate_json_dict():
    est = estimate_hajnal_diameter(StaticSource(SYM2), horizon=10)
    d = est.to_json_dict()
    assert set(d) >= {"value", "horizon", "curve", "converged"}
    assert d["value"] == est.value and len(d["curve"]) == 10


def test_diam_estimate_requires_horizon():
    with pytest.raises(InvalidParamsError):
        estimate_hajnal_diameter(StaticSource(SYM2), horizon=0)
    with pytest.raises(InvalidParamsError):
        estimate_hajnal_diameter(StaticSource(SYM2), horizon=5, t0_samples=[])


# ------------------------------------------------------------- projection jsr


def test_projection_jsr_rank_one_zero():
    assert estimate_projection_jsr(StaticSource(RANK1), horizon=30).value == 0.0


def test_projection_jsr_identity_one():
    est = estimate_projection_jsr(StaticSource(np.eye(3)), horizon=30)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_projection_jsr_tracks_diam_estimate():
    # the two finite-horizon estimates converge to the same limit
    src = FiniteSetIIDSource(mixing_pair(), seed=11)
    samples = default_t0_samples(500)
    d = estimate_hajnal_diameter(src, horizon=500, t0_samples=samples)
    r = estimate_projection_jsr(src, horizon=500, t0_samples=samples)
    assert abs(d.value - r.value) <= 0.02


# ------------------------------------------------------------- sigma1


def test_sigma1_symmetric_pair_exact_rate():
    est = estimate_sigma1(StaticSource(SYM2), horizon=10_000)
    assert est.value == pytest.approx(np.log(0.5), abs=1e-3)
    assert est.converged and not est.collapsed


def test_sigma1_identity_zero():
    est = estimate_sigma1(StaticSource(np.eye(4)), horizon=500)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_sigma1_rank_one_collapses():
    est = estimate_sigma1(StaticSource(RANK1), horizon=100)
    assert est.collapsed
    assert est.value == NEG_INF == -math.inf


def test_sigma1_matches_second_eigenvalue_random():
    rng = np.random.default_rng(21)
    G = make_stochastic(rng.random((5, 5)) + 0.1)
    est = estimate_sigma1(StaticSource(G), horizon=20_000, seed=2)
    assert est.value == pytest.approx(np.log(second_modulus(G)), abs=2e-3)


def test_sigma1_max_over_vectors_monotone_in_count():
    src = FiniteSetIIDSource(mixing_pair(seed=3), seed=17)
    v1 = estimate_sigma1(src, horizon=2000, n_vectors=1, seed=0).value
    v8 = estimate_sigma1(src, horizon=2000, n_vectors=8, seed=0).value
    assert v8 >= v1 - 1e-12


def test_sigma1_below_log_projection_jsr():
    src = FiniteSetIIDSource(mixing_pair(seed=3), seed=17)
    sig = estimate_sigma1(src, horizon=4000, seed=1).value
    rho = estimate_projection_jsr(src, horizon=500, t0_samples=default_t0_samples(500)).value
    assert sig <= np.log(rho) + 0.02


def test_sigma1_trace_records_running_average():
    est = estimate_sigma1(StaticSource(SYM2), horizon=64, renorm_every=8)
    assert len(est.trace) == 8
    assert est.trace[-1] == pytest.approx(est.value, abs=1e-12)


# ------------------------------------------------------------- qr spectrum


class FnSource:
    """Any square-matrix sequence t -> fn(t), with no stochastic check."""

    def __init__(self, fn):
        self.at = fn
        self.m = fn(0).shape[0]


def test_qr_spectrum_constant_diagonal():
    lams = lyapunov_spectrum_qr(FnSource(lambda t: np.diag([2.0, 0.5])), horizon=200)
    assert lams[0] == pytest.approx(np.log(2.0), abs=1e-6)
    assert lams[1] == pytest.approx(-np.log(2.0), abs=1e-6)


def test_qr_spectrum_rotation_isometry():
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    lams = lyapunov_spectrum_qr(FnSource(lambda t: R), horizon=500)
    assert np.allclose(lams, [0.0, 0.0], atol=1e-6)


def test_qr_spectrum_constant_stochastic():
    rng = np.random.default_rng(8)
    G = make_stochastic(rng.random((4, 4)) + 0.2)
    lams = lyapunov_spectrum_qr(StaticSource(G), horizon=10_000)
    assert lams[0] == pytest.approx(0.0, abs=1e-3)
    assert lams[1] == pytest.approx(np.log(second_modulus(G)), abs=1e-3)
    assert lams == sorted(lams, reverse=True)


def test_qr_spectrum_sorted_descending_shuffled_diagonal():
    lams = lyapunov_spectrum_qr(FnSource(lambda t: np.diag([0.5, 3.0, 1.0])), horizon=100)
    assert np.allclose(lams, [np.log(3.0), 0.0, np.log(0.5)], atol=1e-6)


def test_qr_spectrum_singular_matrix():
    sing = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(SingularMatrixError) as ei:
        lyapunov_spectrum_qr(FnSource(lambda t: sing), horizon=50)
    assert ei.value.t == 0


def test_qr_spectrum_reads_a_driven_source_once():
    # each time is read once, in order, so a forward-only source serves
    make = lambda: BlurringProcess(m=6, r=0.2, seed=4)
    lams = lyapunov_spectrum_qr(DrivenSource(make()), horizon=50)
    proc = make()
    mats = [proc.step() for _ in range(50)]
    assert lams == lyapunov_spectrum_qr(FnSource(mats.__getitem__), horizon=50)


def test_window_starts_keep_times_inside_int64():
    # the walk counts a window's times in int64: start + horizon < 2**63
    src = StaticSource(make_stochastic(np.array([[3.0, 1.0], [1.0, 3.0]])))
    est = estimate_hajnal_diameter(src, horizon=3, t0_samples=[0, 2**63 - 4])
    assert est.value == pytest.approx(0.5)
    for t0s in ([2**63 - 3], [0, 10**30]):
        with pytest.raises(InvalidParamsError, match="< 2\\*\\*63"):
            estimate_hajnal_diameter(src, horizon=3, t0_samples=t0s)


def test_qr_second_exponent_matches_diam_rate():
    # the transverse rate read off the QR spectrum must agree with the
    # diameter estimate of the same sequence (relative 5 percent)
    src = PeriodicSource(mixing_pair(seed=14))
    lams = lyapunov_spectrum_qr(src, horizon=10_000)
    d = estimate_hajnal_diameter(src, horizon=400, t0_samples=[0, 1, 10, 11])
    assert np.exp(lams[1]) == pytest.approx(d.value, rel=0.05)


# ------------------------------------------------------------- scalar map


def test_scalar_lyapunov_linear_map_exact():
    val = estimate_scalar_lyapunov(
        lambda s: 0.5 * s, lambda s: 0.5, s0=0.9, burn_in=10, horizon=1000
    )
    assert val == pytest.approx(np.log(0.5), abs=1e-13)


def test_scalar_lyapunov_logistic_39():
    t_start = time.monotonic()
    val = estimate_scalar_lyapunov(
        lambda s: 3.9 * s * (1.0 - s),
        lambda s: 3.9 * (1.0 - 2.0 * s),
        s0=0.3,
        burn_in=1000,
        horizon=1_000_000,
    )
    assert val == pytest.approx(0.5, abs=0.05)
    assert time.monotonic() - t_start < 5.0


def test_scalar_lyapunov_logistic_4_conjugacy():
    val = estimate_scalar_lyapunov(
        lambda s: 4.0 * s * (1.0 - s),
        lambda s: 4.0 * (1.0 - 2.0 * s),
        s0=0.2345,
        burn_in=1000,
        horizon=500_000,
    )
    assert val == pytest.approx(np.log(2.0), abs=0.02)


def test_scalar_lyapunov_diverging_orbit():
    with pytest.raises(OrbitDivergedError):
        estimate_scalar_lyapunov(
            lambda s: 2.0 * s, lambda s: 2.0, s0=1.0, burn_in=0, horizon=200
        )


def test_scalar_lyapunov_zero_derivative_floored():
    # orbit hits the critical point where df = 0; the log is floored,
    # not an error
    val = estimate_scalar_lyapunov(
        lambda s: 4.0 * s * (1.0 - s),
        lambda s: 4.0 * (1.0 - 2.0 * s),
        s0=0.5,
        burn_in=0,
        horizon=10,
    )
    assert np.isfinite(val)


# horizons at numpy's pairwise boundaries: its 8-way unrolling, its block
# of 128, one leaf of the stream, and trees of two and more leaves
MU_HORIZONS = [1, 7, 8, 9, 127, 128, 129, MU_CHUNK - 1, MU_CHUNK, MU_CHUNK + 1,
               2 * MU_CHUNK + 13, 10**5, 10**6 + 3]


@pytest.mark.parametrize("horizon", MU_HORIZONS)
@pytest.mark.parametrize("burn_in", [0, 1000])
@pytest.mark.parametrize("alpha", [3.57, 3.9, 4.0])
def test_scalar_lyapunov_streams_the_held_orbits_mean_bit_for_bit(alpha, burn_in, horizon):
    fmap = logistic(alpha)
    args = (fmap.f, fmap.df, 0.3, burn_in, horizon)
    assert estimate_scalar_lyapunov(*args) == scalar_lyapunov_held(*args)


@pytest.mark.parametrize("burn_in, horizon, step", [
    (100, 10, 50),
    (10, 3 * MU_CHUNK, 110),
    (10, 3 * MU_CHUNK, 10 + 2 * MU_CHUNK + 5),
], ids=["burn-in", "first-leaf", "later-leaf"])
def test_scalar_lyapunov_divergence_names_the_held_orbits_step(burn_in, horizon, step):
    # s creeps up by 1 from 1e12 - step, exactly, and passes 1e12 at step
    args = (lambda s: s + 1.0, lambda s: 1.0, 1e12 - step, burn_in, horizon)
    with pytest.raises(OrbitDivergedError) as expected:
        scalar_lyapunov_held(*args)
    with pytest.raises(OrbitDivergedError) as raised:
        estimate_scalar_lyapunov(*args)
    assert raised.value.t == expected.value.t == step
    assert str(raised.value) == str(expected.value)


def test_scalar_lyapunov_memory_does_not_grow_with_the_horizon():
    # the held orbit and its three temporaries took 32 bytes a term
    fmap = logistic(3.9)
    peaks = []
    for horizon in (10**4, 10**6):
        tracemalloc.start()
        try:
            estimate_scalar_lyapunov(fmap.f, fmap.df, 0.3, 0, horizon)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**20


# ------------------------------------------------------------- sentinel


def test_neg_inf_sentinel_value():
    assert NEG_INF == -math.inf


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_diam_and_jsr_agree_on_random_static(seed):
    G = make_stochastic(np.random.default_rng(seed).random((3, 3)) + 0.05)
    src = StaticSource(G)
    d = estimate_hajnal_diameter(src, horizon=400, t0_samples=[0])
    r = estimate_projection_jsr(src, horizon=400, t0_samples=[0])
    assert abs(d.value - r.value) <= 0.02


# ------------------------------------------------------------- reference
# The estimators propagate in node space.  These references form
# Ghat = P G Pplus at every step and walk each window on its own; in exact
# arithmetic both give the same numbers.


def frame(m, kind="difference"):
    """Dense (P, Pplus) with P annihilating the all-ones direction and
    P @ Pplus = I: the difference frame the estimators use, or an
    orthonormal one."""
    D = np.zeros((m - 1, m))
    idx = np.arange(m - 1)
    D[idx, idx] = 1.0
    D[idx, idx + 1] = -1.0
    if kind == "difference":
        return D, np.triu(np.ones((m, m - 1)))
    Q, R = np.linalg.qr(D.T)
    Q = Q * np.sign(np.diag(R))
    return Q.T, Q.copy()


def ref_window_curve(source, basis, M0, size, horizon, t0_samples, renorm_every=8):
    """Per-window propagation M <- Ghat M of the projected product from
    M0, in the frame basis = (P, Pplus); size(M) is the window's size at
    step t."""
    P, Pplus = basis
    best = np.zeros(horizon)
    for t0 in t0_samples:
        M = M0.copy()
        logscale = 0.0
        for t in range(1, horizon + 1):
            M = P @ source.at(t0 + t - 1) @ Pplus @ M
            if renorm_every and t % renorm_every == 0:
                s = float(np.max(np.abs(M)))
                if s == 0.0:
                    break
                M /= s
                logscale += math.log(s)
            d = size(M)
            if d > 0.0:
                best[t - 1] = max(best[t - 1], math.exp((math.log(d) + logscale) / t))
    return best.tolist()


def ref_hajnal_diameter(source, horizon, t0_samples, kind="inf"):
    m = source.m
    basis = frame(m)

    def size(D):
        # rows of B relative to row 0 are prefix sums of D = P B
        return diam_in(np.vstack([np.zeros(m), np.cumsum(D, axis=0)]), kind)

    return ref_window_curve(source, basis, basis[0], size, horizon, t0_samples)


def ref_projection_jsr(source, basis, horizon, t0_samples, kind="inf"):
    """The window norms read in the difference frame, whatever frame
    basis the windows are walked in."""
    m = source.m
    D, Dplus = frame(m)
    S = basis[0] @ Dplus
    Sinv = D @ basis[1]

    def size(M):
        return matrix_norm_in(Sinv @ M @ S, kind)

    return ref_window_curve(source, basis, np.eye(m - 1), size, horizon, t0_samples)


def ref_sigma1(source, basis, horizon, renorm_every=8, n_vectors=8, seed=0):
    """(value, trace) from probes propagated as V <- Ghat V in the frame
    basis = (P, Pplus), started from and measured in the difference frame."""
    P, Pplus = basis
    D, Dplus = frame(source.m)
    Sinv = D @ Pplus
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n_vectors, source.m - 1)).T.copy()
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    V = P @ Dplus @ V
    logs = np.zeros(n_vectors)
    trace = []
    for t in range(1, horizon + 1):
        V = P @ source.at(t - 1) @ Pplus @ V
        if t % renorm_every == 0:
            norms = np.linalg.norm(Sinv @ V, axis=0)
            logs += np.log(norms)
            V /= norms
            trace.append(float(logs.max()) / t)
    if horizon % renorm_every:
        return float((logs + np.log(np.linalg.norm(Sinv @ V, axis=0))).max()) / horizon, trace
    return float(logs.max()) / horizon, trace


def random_finite_source(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 8))
    mats = [make_stochastic(rng.random((m, m)) + 0.1) for _ in range(int(rng.integers(2, 5)))]
    return FiniteSetIIDSource(mats, seed=seed)


ORACLE_RTOL = 1e-12


# The estimators measure in the infinity norm; the one and two norms run
# the same window walk through its size hook, so the walk is also checked
# on sizes other than the infinity norm's.
def diameter_in(source, horizon, t0_samples=None, kind="inf", renorm_every=DEFAULT_RENORM_EVERY):
    if kind == "inf":
        return estimate_hajnal_diameter(source, horizon, t0_samples, renorm_every)

    def size(Y):
        return diam_in(Y, kind)

    return estimators._window_estimate(source, horizon, t0_samples, renorm_every, size)


def projection_jsr_in(source, horizon, t0_samples=None, kind="inf", renorm_every=DEFAULT_RENORM_EVERY):
    if kind == "inf":
        return estimate_projection_jsr(source, horizon, t0_samples, renorm_every)

    def size(Y):
        return np.linalg.norm(compress(Y), NORM_ORD[kind], axis=(0, 2))

    return estimators._window_estimate(source, horizon, t0_samples, renorm_every, size)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["inf", "one", "two"])
def test_diameter_matches_projected_reference(seed, kind):
    src = random_finite_source(seed)
    t0s = default_t0_samples(120)
    est = diameter_in(src, horizon=120, kind=kind)
    ref = ref_hajnal_diameter(src, 120, t0s, kind)
    np.testing.assert_allclose(est.curve, ref, rtol=ORACLE_RTOL, atol=0)
    assert est.value == est.curve[-1]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["inf", "one", "two"])
@pytest.mark.parametrize("frame_kind", ["difference", "orthonormal"])
def test_projection_jsr_matches_projected_reference(seed, kind, frame_kind):
    src = random_finite_source(seed)
    t0s = [0, 7, 30, 31]
    est = projection_jsr_in(src, horizon=120, t0_samples=t0s, kind=kind)
    ref = ref_projection_jsr(src, frame(src.m, frame_kind), 120, t0s, kind)
    np.testing.assert_allclose(est.curve, ref, rtol=ORACLE_RTOL, atol=0)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("frame_kind", ["difference", "orthonormal"])
@pytest.mark.parametrize("horizon", [800, 803])
def test_sigma1_matches_projected_reference(seed, frame_kind, horizon):
    src = random_finite_source(seed)
    est = estimate_sigma1(src, horizon=horizon, seed=seed)
    value, trace = ref_sigma1(src, frame(src.m, frame_kind), horizon, seed=seed)
    assert est.value == pytest.approx(value, rel=ORACLE_RTOL, abs=0)
    np.testing.assert_allclose(est.trace, trace, rtol=ORACLE_RTOL, atol=0)


def loop_sigma1(source, horizon, renorm_every=8, n_vectors=8, seed=0):
    """(value, trace, collapsed, converged) from a standalone probe loop:
    probes are renormalised, and die at or below 1e-300, only every
    renorm_every steps, and a horizon off that grid is scored from the
    live probes' norms at the end."""
    m = source.m
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n_vectors, m - 1)).T
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    X = lift(V)
    logs = np.zeros(n_vectors)
    alive = np.ones(n_vectors, dtype=bool)
    trace = []
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
        return NEG_INF, trace, True, True
    if last_renorm < horizon:
        norms = np.linalg.norm(difference(X[:, live]), axis=0)
        ok = norms > 1e-300
        final = logs[live][ok] + np.log(norms[ok]) if ok.any() else np.array([])
        value = float(final.max() / horizon) if final.size else NEG_INF
    else:
        value = float(np.max(logs[live]) / horizon)
    if value == NEG_INF:
        return value, trace, True, True
    tail = np.asarray([x for x in trace if x != NEG_INF])
    tail = tail[3 * tail.size // 4 :]
    converged = tail.size > 0 and float(tail.max() - tail.min()) <= math.log(1.0 + 0.10)
    return value, trace, False, converged


def sparse_ring(m):
    from scipy.sparse import csr_array

    rows = np.repeat(np.arange(m), 3)
    cols = (rows + np.tile([-1, 0, 1], m)) % m
    S = csr_array((np.full(3 * m, 1.0 / 3.0), (rows, cols)), shape=(m, m))
    S.sum_duplicates()
    return StaticSource(CSR(S.data, S.indices, S.indptr, m))


def collapsing_periodic_source():
    # 44 mixing steps, then a rank-one step that annihilates every probe
    rng = np.random.default_rng(11)
    mats = [make_stochastic(rng.random((4, 4)) + 0.05) for _ in range(44)]
    return PeriodicSource(mats + [np.tile([0.1, 0.2, 0.3, 0.4], (4, 1))])


SIGMA1_LOOP_CASES = {
    "dense-finite-set": (lambda: random_finite_source(2), 800),
    "sparse-ring": (lambda: sparse_ring(3000), 64),
    "blinking": (
        lambda: DrivenSource(
            BlinkingProcess.from_params(m=60, avg_degree=6, p=0.1, t_rec=3, seed=3)
        ),
        400,
    ),
    "collapsing-periodic": (collapsing_periodic_source, 200),
    "off-grid-horizon": (lambda: random_finite_source(3), 803),
}


@pytest.mark.parametrize("case", sorted(SIGMA1_LOOP_CASES))
def test_sigma1_is_bit_identical_to_the_standalone_loop(case):
    make, horizon = SIGMA1_LOOP_CASES[case]
    est = estimate_sigma1(make(), horizon=horizon, seed=5)
    value, trace, collapsed, converged = loop_sigma1(make(), horizon, seed=5)
    assert collapsed == (case == "collapsing-periodic")
    assert est.value == value
    assert est.trace == trace
    assert est.collapsed == collapsed
    assert est.converged == converged


@pytest.mark.parametrize("horizon", [200, 203])
def test_sigma1_scoring_at_read_ages_equals_full_scoring(horizon):
    # the walk scores sigma1's probes at every age; estimate_sigma1 reads
    # its trace at the renormalisation ages and its value at the horizon
    src = random_finite_source(5)
    rng = np.random.default_rng(2)
    V = rng.standard_normal((8, src.m - 1)).T
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    X = lift(V)[:, :, None]

    def size(Y):
        return np.linalg.norm(difference(Y[..., 0]), axis=0)

    full = _window_walk(src, X, [0] * 8, horizon, 8, size)
    est = estimate_sigma1(src, horizon=horizon, seed=2)
    assert est.trace == full[7::8].tolist()
    assert est.value == full[-1]
    # a live window walk scores every age
    assert np.all(np.isfinite(full))
    eye = np.eye(src.m)
    windows = np.repeat((eye - eye[0])[:, None, :], 3, axis=1)
    diameter = _window_walk(src, windows, [0, 7, 50], horizon, 8, diam)
    assert np.all(np.isfinite(diameter))


def per_age_window_walk(source, X, starts, horizon, renorm_every, size):
    """The window walk one age at a time: every age's block is advanced,
    sized, checked for deaths and scored before the next is stepped.
    It steps its own copy of X, which the estimators pass read-only."""
    X = np.array(X)
    m, K, w = X.shape
    first = np.asarray(starts)
    logscale = np.zeros(K)
    curve = np.full(horizon + 1, NEG_INF)
    bounds = sorted({*starts, *(s + horizon for s in starts)})
    with np.errstate(divide="ignore"):
        for a, b in zip(bounds, bounds[1:]):
            lo = bisect_right(starts, a - horizon)
            hi = bisect_right(starts, a)
            if lo == hi:
                continue
            Y = X[:, lo:hi]
            scale = logscale[lo:hi]
            age = a - first[lo:hi]
            for tau in range(a, b):
                age += 1
                Y = (source.at(tau) @ Y.reshape(m, -1)).reshape(m, hi - lo, w)
                Y -= Y[0]
                d = size(Y)
                logd = np.log(d)
                if d.min() <= DEAD_SIZE:
                    dead = d <= DEAD_SIZE
                    Y[:, dead] = 0.0
                    d[dead] = 1.0
                    logd[dead] = NEG_INF
                np.maximum.at(curve, age, (logd + scale) / age)
                k = np.flatnonzero(age % renorm_every == 0)
                if k.size:
                    Y[:, k] /= d[k, None]
                    scale[k] += logd[k]
            X[:, lo:hi] = Y
    return curve[1:]


def with_rank_one_member():
    # a rank-one member drawn about one step in ten kills every window
    # that covers it, mostly at ages between renormalisations
    rng = np.random.default_rng(4)
    mats = [make_stochastic(rng.random((5, 5)) + 0.1) for _ in range(2)]
    row = rng.random(5) + 0.1
    rank1 = np.tile(row / row.sum(), (5, 1))
    return FiniteSetIIDSource(mats + [rank1], weights=[0.45, 0.45, 0.1], seed=4)


def large_finite_source():
    # m = 130: four or more diameter windows exceed half the walk buffer,
    # so their segments run one age at a time
    rng = np.random.default_rng(6)
    return FiniteSetIIDSource([make_stochastic(rng.random((130, 130)) + 0.1) for _ in range(2)], seed=6)


# name: (make source, horizon, window starts, renorm_every)
WALK_ORACLE_CASES = {
    "misaligned-duplicated-starts": (lambda: random_finite_source(2), 120, [0, 0, 3, 13, 13, 29], 8),
    "off-grid-horizon": (lambda: random_finite_source(3), 203, None, 8),
    "blinking-csr": (
        lambda: DrivenSource(
            BlinkingProcess.from_params(m=40, avg_degree=6, p=0.1, t_rec=3, seed=3)
        ),
        96,
        [0, 5, 40],
        8,
    ),
    "rank-one-member": (with_rank_one_member, 60, [0, 3, 10, 21, 22], 8),
    "renorm-every-5": (lambda: random_finite_source(7), 61, [0, 2, 9], 5),
    "one-age-runs": (large_finite_source, 24, [0, 1, 2, 3, 4, 5], 8),
}


def walk_estimates(make, horizon, t0s, renorm_every):
    out = [
        estimate_sigma1(make(), horizon=horizon, renorm_every=renorm_every, n_vectors=n, seed=3)
        for n in (1, 8)
    ]
    for estimate in (diameter_in, projection_jsr_in):
        for kind in ("inf", "one", "two"):
            out.append(estimate(make(), horizon, t0s, kind, renorm_every))
    return [est.to_json_dict() for est in out]


@pytest.mark.parametrize("case", sorted(WALK_ORACLE_CASES))
def test_window_walk_is_bit_identical_to_the_per_age_loop(case, monkeypatch):
    make, horizon, t0s, renorm_every = WALK_ORACLE_CASES[case]
    runs = walk_estimates(make, horizon, t0s, renorm_every)
    monkeypatch.setattr(estimators, "_window_walk", per_age_window_walk)
    ages = walk_estimates(make, horizon, t0s, renorm_every)
    for run, age in zip(runs, ages):
        assert run.keys() == age.keys()
        for key in run:
            # the bytes, so that NaN payloads and the sign of zero count
            assert np.asarray(run[key]).tobytes() == np.asarray(age[key]).tobytes(), key
    if case == "rank-one-member":
        assert runs[0]["collapsed"] and min(runs[2]["curve"]) == 0.0


@pytest.mark.parametrize("lead", [0, 4])
def test_window_walk_keeps_a_window_dead_after_its_size_recovers(lead):
    # the last window starts at lead from the centred probe (0, 0, 1):
    # four steps scale it by eps each, to just under DEAD_SIZE at age 4,
    # then a row swap alternately doubles and halves its size, so it
    # climbs back over DEAD_SIZE at age 5.  With lead 0 that is inside
    # the run it died in; with lead 4 a window started at 0, zero and
    # dead throughout, is renormalised at the death, so the run ends
    # there.  Either way no age from 4 on may score.
    eps = 0.962e-75
    contract = np.array([[1.0, 0.0, 0.0], [1.0, eps, 0.0], [1.0, 0.0, eps]])
    swap = np.eye(3)[[0, 2, 1]]
    src = PeriodicSource([swap] * lead + [contract] * 4 + [swap] * 12)
    starts = sorted({0, lead})

    def size(Y):
        return np.abs(np.diff(Y, axis=0)).sum(axis=0)[:, 0]

    X = np.zeros((3, len(starts), 1))
    X[2, -1] = 1.0
    curve = _window_walk(src, X.copy(), starts, 12, 8, size)
    assert np.all(curve[3:] == NEG_INF) and np.all(np.isfinite(curve[:3]))
    assert curve.tobytes() == per_age_window_walk(src, X.copy(), starts, 12, 8, size).tobytes()


def test_window_walk_memory_over_the_buffer_cap():
    # a block of 16 windows at m = 300 is 11 MB, far over half the cap:
    # the walk steps it in place, one age at a time, and holds at most
    # one more block besides the cap
    rng = np.random.default_rng(1)
    src = FiniteSetIIDSource([make_stochastic(rng.random((300, 300)) + 0.1) for _ in range(2)], seed=1)
    eye = np.eye(300)
    X = np.repeat((eye - eye[0])[:, None, :], 16, axis=1)
    block = X.nbytes
    assert 2 * block > WALK_BUFFER_BYTES
    tracemalloc.start()
    try:
        curve = _window_walk(src, X, [0] * 16, 8, 8, diam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(curve))
    assert peak <= block + WALK_BUFFER_BYTES, f"walk peaked at {peak / 2**20:.1f} MiB"


def test_diameter_walk_memory_holds_only_the_open_windows():
    # 32 starts 2 apart with horizon 16 open at most 8 windows at once;
    # holding all 32 would peak near 41 window blocks of m * m floats
    m = 300
    rng = np.random.default_rng(1)
    src = FiniteSetIIDSource([make_stochastic(rng.random((m, m)) + 0.1) for _ in range(2)], seed=1)
    open_block = 8 * m * m * 8
    tracemalloc.start()
    try:
        est = estimate_hajnal_diameter(src, horizon=16, t0_samples=range(0, 64, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(est.curve))
    assert peak <= 3 * open_block + WALK_BUFFER_BYTES, f"walk peaked at {peak / 2**20:.1f} MiB"


@given(
    starts=st.lists(st.integers(0, 40), min_size=1, max_size=10).map(sorted),
    length=st.integers(1, 12),
)
@settings(max_examples=200, deadline=None)
def test_window_schedule_matches_a_per_time_scan(starts, length):
    ranges = list(window_schedule(starts, length))
    for (a, b, lo, hi), after in zip(ranges, ranges[1:]):
        # ascending and disjoint; touching ranges hold different windows
        assert b <= after[0] and (b < after[0] or (lo, hi) != after[2:])
    assert all(a < b and lo < hi for a, b, lo, hi in ranges)
    scan = {}
    for t in range(max(starts) + length + 1):
        open_ = [k for k, s in enumerate(starts) if s <= t < s + length]
        if open_:
            scan[t] = open_
    assert {t: list(range(lo, hi)) for a, b, lo, hi in ranges for t in range(a, b)} == scan


def test_window_walk_skips_uncovered_times():
    # windows far apart: times between them are never requested
    seen = set()
    shared = random_finite_source(4)

    class Recording(MatrixSource):
        m = shared.m

        def at(self, t):
            seen.add(t)
            return shared.at(t)

    t0s = [500, 0, 40, 500]
    est = estimate_hajnal_diameter(Recording(), horizon=30, t0_samples=t0s)
    assert seen == set(range(0, 30)) | set(range(40, 70)) | set(range(500, 530))
    np.testing.assert_allclose(
        est.curve, ref_hajnal_diameter(shared, 30, t0s), rtol=ORACLE_RTOL, atol=0
    )
    assert est.t0_samples == t0s


@pytest.mark.parametrize("estimate", [estimate_hajnal_diameter, estimate_projection_jsr])
def test_duplicate_window_starts_change_nothing(estimate):
    src = random_finite_source(4)
    twice = estimate(src, horizon=60, t0_samples=[0, 0, 40])
    once = estimate(src, horizon=60, t0_samples=[0, 40])
    assert twice.curve == once.curve
    assert twice.t0_samples == [0, 0, 40]


def test_window_estimators_reject_single_node():
    src = StaticSource([[1.0]])
    with pytest.raises(InvalidParamsError, match="need m >= 2, got 1"):
        estimate_hajnal_diameter(src, horizon=10)
    with pytest.raises(InvalidParamsError, match="need m >= 2, got 1"):
        estimate_projection_jsr(src, horizon=10)
    with pytest.raises(InvalidParamsError, match="need m >= 2, got 1"):
        estimate_sigma1(src, horizon=16)


def test_sigma1_memory_is_linear_in_m_on_a_sparse_source():
    # a sparse ring at m = 3000: a dense m x m frame matrix alone is 72 MB,
    # while the probes and their lift are m x n_vectors
    src = sparse_ring(3000)
    tracemalloc.start()
    try:
        est = estimate_sigma1(src, horizon=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"estimate_sigma1 peaked at {peak / 2**20:.1f} MiB"
    assert not est.collapsed


# ------------------------------------------------------------- invariance


def test_estimates_do_not_depend_on_array_allocation():
    # a source that hands out a fresh copy per call must give the same
    # numbers as one that hands out shared arrays: no cache may key on
    # array identity
    rng = np.random.default_rng(7)
    shared = FiniteSetIIDSource([make_stochastic(rng.random((4, 4)) + 0.05) for _ in range(2)], seed=7)

    class FreshCopies(MatrixSource):
        m = 4

        def at(self, t):
            return shared.at(t).copy()

    fresh = FreshCopies()
    assert estimate_sigma1(fresh, horizon=2000).value == estimate_sigma1(shared, horizon=2000).value
    assert (
        estimate_hajnal_diameter(fresh, horizon=200).value
        == estimate_hajnal_diameter(shared, horizon=200).value
    )
    assert (
        estimate_projection_jsr(fresh, horizon=200).value
        == estimate_projection_jsr(shared, horizon=200).value
    )


def test_estimates_do_not_depend_on_sparse_or_dense_storage():
    # one blinking sequence, read as its CSR emissions and as their dense
    # twins: the products differ only in rounding
    proc = BlinkingProcess.from_params(m=120, avg_degree=12, p=0.05, t_rec=3, seed=2)
    csr = [proc.step() for _ in range(200)]

    class Stored(MatrixSource):
        m = 120

        def __init__(self, dense):
            self.dense = dense

        def at(self, t):
            return csr[t].toarray() if self.dense else csr[t]

    sparse, dense = Stored(False), Stored(True)
    a, b = estimate_sigma1(sparse, horizon=200), estimate_sigma1(dense, horizon=200)
    np.testing.assert_allclose(b.trace, a.trace, rtol=1e-12, atol=0)
    a = estimate_hajnal_diameter(sparse, horizon=160, t0_samples=[0, 40])
    b = estimate_hajnal_diameter(dense, horizon=160, t0_samples=[0, 40])
    np.testing.assert_allclose(b.curve, a.curve, rtol=1e-12, atol=0)


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=20, deadline=None)
def test_diameter_rate_invariant_under_relabelling(seed, data):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 7))
    mats = [make_stochastic(rng.random((m, m)) + 0.05) for _ in range(2)]
    perm = data.draw(st.permutations(range(m)))
    Pi = np.eye(m)[list(perm)]
    a = estimate_hajnal_diameter(FiniteSetIIDSource(mats, seed=seed), horizon=200)
    b = estimate_hajnal_diameter(
        FiniteSetIIDSource([Pi @ G @ Pi.T for G in mats], seed=seed), horizon=200
    )
    np.testing.assert_allclose(b.curve, a.curve, rtol=1e-10, atol=0)
