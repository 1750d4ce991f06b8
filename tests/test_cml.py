"""Oracle tests for the coupled-map-lattice simulator and diagnostics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netsync.cml import (
    Orbit,
    ScalarMap,
    criterion,
    logistic,
    make_sync_report,
    simulate,
)
from netsync.errors import (
    InvalidParamsError,
    StateDivergedError,
)
from netsync.estimators import NEG_INF
from netsync.sources import FiniteSetIIDSource, StaticSource
from oracles import check_derivative, make_stochastic


def two_node_coupling(a):
    return StaticSource(np.array([[1.0 - a, a], [a, 1.0 - a]]))


def sync_metric_k(window):
    """Average over frames of sum_i (x_i - mean(x))^2 / (m - 1), for a
    single state vector or a (frames, m) stack."""
    w = np.atleast_2d(np.asarray(window, dtype=float))
    return float(np.var(w, axis=1, ddof=1).mean())


def scalar_orbit(fmap, s0, steps):
    s = s0
    out = [s]
    for _ in range(steps):
        s = fmap.f(s)
        out.append(s)
    return out


# ---------------------------------------------------------------- scalar map


def test_logistic_factory_and_derivative():
    fmap = logistic(3.9)
    assert fmap.name == "logistic"
    assert fmap.params["alpha"] == 3.9
    assert fmap.f(0.5) == 3.9 * 0.25
    assert check_derivative(fmap) < 1e-6


def test_wrong_derivative_detected():
    bad = ScalarMap(
        name="broken", f=lambda s: s * s, df=lambda s: 3.0 * s, params={}
    )
    assert check_derivative(bad) > 1e-6


# ---------------------------------------------------------------- K metric


def test_k_single_frame_two_nodes():
    assert sync_metric_k(np.array([0.0, 1.0])) == 0.5


def test_k_constant_frames_example():
    frames = np.tile([0.0, 0.0, 3.0], (5, 1))
    assert sync_metric_k(frames) == pytest.approx(3.0, abs=1e-15)


def test_k_equal_components_zero():
    frames = np.tile([0.7, 0.7, 0.7, 0.7], (9, 1))
    assert sync_metric_k(frames) == 0.0


# ---------------------------------------------------------------- variational


@given(seed=st.integers(0, 2**32 - 1), df=st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_variational_propagator_row_sums(seed, df):
    G = make_stochastic(np.random.default_rng(seed).random((4, 4)) + 0.01)
    row_sums = (df * G).sum(axis=1)
    assert np.max(np.abs(row_sums - df)) <= 1e-12


# ---------------------------------------------------------------- criterion


def test_criterion_identity_coupling():
    W, predicted = criterion(0.0, 0.5)
    assert (W, predicted) == (0.5, False)


def test_criterion_two_node_quarter():
    W, predicted = criterion(np.log(0.5), 0.5)
    assert W == pytest.approx(-0.193, abs=1e-3)
    assert predicted


def test_criterion_neg_inf_sentinel():
    W, predicted = criterion(NEG_INF, 0.5)
    assert W == NEG_INF
    assert predicted


def test_criterion_rejects_nan():
    with pytest.raises(InvalidParamsError):
        criterion(float("nan"), 0.5)
    with pytest.raises(InvalidParamsError):
        criterion(float("inf"), 0.5)


# ---------------------------------------------------------------- simulate


def test_simulate_diagonal_orbit_exact():
    fmap = logistic(3.9)
    src = FiniteSetIIDSource(
        [
            make_stochastic(np.random.default_rng(3).random((4, 4)) + 0.1),
            make_stochastic(np.random.default_rng(4).random((4, 4)) + 0.1),
        ],
        seed=9,
    )
    run = simulate(src, fmap, x0=np.full(4, 0.3), steps=200)
    orbit = scalar_orbit(fmap, 0.3, 200)
    assert run.final_state[0] == orbit[-1]
    assert max(run.diam_series) == 0.0
    assert run.observed_sync


@given(seed=st.integers(0, 2**32 - 1), s0=st.floats(0.05, 0.95))
@settings(max_examples=25, deadline=None)
def test_simulate_diagonal_invariance_property(seed, s0):
    rng = np.random.default_rng(seed)
    src = StaticSource(make_stochastic(rng.random((3, 3)) + 0.05))
    run = simulate(src, logistic(3.9), x0=np.full(3, s0), steps=60)
    assert max(run.diam_series) == 0.0


def test_simulate_single_node_is_scalar_orbit():
    fmap = logistic(3.7)
    run = simulate(StaticSource(np.eye(1)), fmap, x0=np.array([0.41]), steps=50)
    assert run.final_state[0] == scalar_orbit(fmap, 0.41, 50)[-1]


def test_simulate_rank_one_coupling_syncs_in_one_step():
    w = np.array([0.2, 0.3, 0.5])
    src = StaticSource(np.tile(w, (3, 1)))
    run = simulate(src, logistic(3.9), x0=np.array([0.1, 0.5, 0.9]), steps=5)
    assert run.diam_series[0] > 0.0  # t=0 state is spread out
    assert all(d == 0.0 for d in run.diam_series[1:])


def test_simulate_diverging_state():
    grow = ScalarMap(name="grow", f=lambda s: 5.0 * s, df=lambda s: 5.0, params={})
    with pytest.raises(StateDivergedError):
        simulate(StaticSource(np.eye(2)), grow, x0=np.array([1.0, 2.0]), steps=100)


class ReadLog:
    """A source that logs the times read from it."""

    def __init__(self, source):
        self.source, self.m, self.reads = source, source.m, []

    def at(self, t):
        self.reads.append(t)
        return self.source.at(t)


def test_orbit_steps_only_on_a_read_of_its_next_time():
    src = ReadLog(two_node_coupling(0.25))
    x0 = np.array([0.2, 0.7])
    orbit = Orbit(src, logistic(3.9), x0, steps=3)
    assert orbit.m == 2
    for t in (1, 0, 0, 2, 1, 2, 3, 4):
        assert orbit.at(t) is src.source.at(t)
    assert orbit.t == 3
    run = orbit.run()
    assert src.reads == [1, 0, 0, 2, 1, 2, 3, 4]  # run had nothing left to read
    expected = simulate(two_node_coupling(0.25), logistic(3.9), x0, steps=3)
    assert run.final_state.tobytes() == expected.final_state.tobytes()
    assert (run.times, run.k_series, run.diam_series) == (
        expected.times, expected.k_series, expected.diam_series
    )


def test_k_final_quarter_averages_the_last_quarter_of_spreads():
    # times 0..41: the last quarter starts at (3 * 42) // 4 = 31
    orbit = Orbit(two_node_coupling(0.05), logistic(3.9), np.array([0.3, 0.31]), steps=41)
    states = [orbit.x]
    for t in range(41):
        orbit.at(t)
        states.append(orbit.x)
    run = orbit.run()
    spreads = [float((x - x.mean()) @ (x - x.mean())) for x in states]  # m - 1 = 1
    assert run.k_final_quarter == float(np.mean(spreads[31:])) > 0.0


def test_orbit_holds_only_the_quarter_it_averages():
    # one float64 per time of the last quarter, not a Python float per step
    steps = 20_000
    tracemalloc.start()
    try:
        orbit = Orbit(
            two_node_coupling(0.05), logistic(3.9), np.array([0.3, 0.31]), steps,
            record_every=10**4,
        )
        run = orbit.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.k_final_quarter > 0.0
    quarter_bytes = 8 * (steps + 1 - (3 * (steps + 1)) // 4)
    assert peak < quarter_bytes + 256 * 1024


def test_orbit_divergence_stops_it_and_run_raises_it():
    # 5^t * 2 first passes 1e12 at t = 17
    grow = ScalarMap(name="grow", f=lambda s: 5.0 * s, df=lambda s: 5.0, params={})
    src = ReadLog(StaticSource(np.eye(2)))
    orbit = Orbit(src, grow, np.array([1.0, 2.0]), steps=100)
    for t in range(30):
        orbit.at(t)  # a divergence does not raise in the middle of a read
    assert orbit.t == 17
    with pytest.raises(StateDivergedError) as raised:
        orbit.run()
    assert raised.value.t == 17
    assert src.reads == list(range(30))


def test_simulate_records_at_cadence():
    run = simulate(
        two_node_coupling(0.25),
        logistic(3.9),
        x0=np.array([0.3, 0.31]),
        steps=100,
        record_every=10,
    )
    assert run.times[0] == 0 and run.times[-1] == 100
    assert len(run.times) == len(run.k_series) == len(run.diam_series)


def test_simulate_k_series_nonnegative_and_running_average():
    run = simulate(
        two_node_coupling(0.25), logistic(3.9), x0=np.array([0.2, 0.9]), steps=50
    )
    assert min(run.k_series) >= 0.0
    # K is a running time average of the spread statistic, so once the
    # system synchronizes K decreases monotonically
    tail = run.k_series[-10:]
    assert all(a >= b - 1e-15 for a, b in zip(tail, tail[1:]))


# ---------------------------------------------------------------- end to end


def settle_on_attractor(fmap, s0=0.3, steps=100):
    s = s0
    for _ in range(steps):
        s = fmap.f(s)
    return s


def near_diagonal_x0(rng, m, s0, eps=1e-3):
    return s0 + rng.uniform(-eps, eps, size=m)


def test_prop_static_two_node_sync_and_desync():
    fmap = logistic(3.9)
    mu = 0.5
    rng = np.random.default_rng(123)
    s0 = settle_on_attractor(fmap)

    # a=0.25: |second eigenvalue| e^mu = 0.5 e^0.5 ~ 0.82 < 1
    run_sync = simulate(
        two_node_coupling(0.25), fmap, near_diagonal_x0(rng, 2, s0), steps=2000
    )
    assert run_sync.observed_sync

    # a=0.05: 0.9 e^0.5 ~ 1.48 > 1.05
    run_wild = simulate(
        two_node_coupling(0.05), fmap, near_diagonal_x0(rng, 2, s0), steps=2000
    )
    assert not run_wild.observed_sync


def test_observed_sync_implies_tiny_k_tail():
    fmap = logistic(3.9)
    rng = np.random.default_rng(7)
    s0 = settle_on_attractor(fmap)
    run = simulate(
        two_node_coupling(0.3), fmap, near_diagonal_x0(rng, 2, s0), steps=4000
    )
    assert run.observed_sync
    assert run.k_final_quarter < 1e-12


def test_convergence_rate_slope_bounded_by_w():
    fmap = logistic(3.9)
    rng = np.random.default_rng(11)
    s0 = settle_on_attractor(fmap)
    run = simulate(
        two_node_coupling(0.25), fmap, near_diagonal_x0(rng, 2, s0), steps=200
    )
    W = np.log(0.5) + 0.5
    ts = np.array(run.times)
    ds = np.array(run.diam_series)
    keep = (ts >= 20) & (ts <= 120) & (ds > 1e-13)
    slope = np.polyfit(ts[keep], np.log(ds[keep]), 1)[0]
    assert slope <= W + 0.1


def test_sync_report_assembly():
    fmap = logistic(3.9)
    rng = np.random.default_rng(40)
    s0 = settle_on_attractor(fmap)
    run = simulate(
        two_node_coupling(0.25), fmap, near_diagonal_x0(rng, 2, s0), steps=1500
    )
    rep = make_sync_report(run, sigma1=np.log(0.5), mu=0.5, mu_source="supplied")
    assert rep.W == np.log(0.5) + 0.5
    assert rep.predicted_sync and rep.run.observed_sync
    assert not rep.indeterminate
    assert rep.mu_source == "supplied"
    assert rep.run is run


def test_sync_report_neg_inf_collapse():
    w = np.array([0.5, 0.5])
    run = simulate(
        StaticSource(np.tile(w, (2, 1))),
        logistic(3.9),
        x0=np.array([0.2, 0.8]),
        steps=50,
    )
    rep = make_sync_report(run, sigma1=NEG_INF, mu=0.5, mu_source="supplied")
    assert rep.W == NEG_INF
    assert rep.predicted_sync and rep.run.observed_sync


def test_sync_report_indeterminate_band():
    run = simulate(
        two_node_coupling(0.25), logistic(3.9), np.array([0.4, 0.41]), steps=100
    )
    rep = make_sync_report(run, sigma1=-0.52, mu=0.5, mu_source="estimated")
    assert rep.indeterminate
    assert rep.mu_source == "estimated"
