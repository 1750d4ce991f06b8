"""Oracle tests for the time-varying topology processes."""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array

from netsync.errors import InvalidParamsError
from netsync.hajnal import has_spanning_tree
from netsync.linalg import CSR, is_stochastic
from netsync.processes import BlinkingProcess, BlurringProcess, scale_free_graph
from netsync.sources import DrivenSource
from oracles import make_stochastic


def adjacency(m, edges):
    """The dense symmetric 0/1 adjacency of an undirected edge array."""
    A = np.zeros((m, m))
    A[edges[:, 0], edges[:, 1]] = A[edges[:, 1], edges[:, 0]] = 1.0
    return A


# ---------------------------------------------------------------- scale free


def test_scale_free_small_instance():
    edges = scale_free_graph(10, 4, seed=0)
    # clique on k+1=3 vertices, then 7 arrivals bringing k=2 edges each
    assert edges.shape == (3 + 2 * 7, 2)
    assert np.all(edges[:, 0] != edges[:, 1])
    assert np.unique(np.sort(edges, axis=1), axis=0).shape == edges.shape
    assert edges.min() >= 0 and edges.max() < 10
    assert has_spanning_tree(adjacency(10, edges)) is not None


def test_scale_free_deterministic_by_seed():
    a = scale_free_graph(10, 4, seed=7)
    b = scale_free_graph(10, 4, seed=7)
    c = scale_free_graph(10, 4, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_scale_free_realized_degree_and_connectivity():
    edges = scale_free_graph(100, 12, seed=3)
    assert len(edges) == 21 + 6 * 93
    realized = 2 * len(edges) / 100
    assert abs(realized - 12) / 12 < 0.05
    assert has_spanning_tree(adjacency(100, edges)) is not None


def test_scale_free_new_arrivals_have_min_degree():
    degrees = np.bincount(scale_free_graph(40, 6, seed=1).ravel(), minlength=40)
    assert degrees.min() >= 3  # k = avg_degree // 2


def test_scale_free_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        scale_free_graph(4, 4, seed=0)  # m must exceed avg_degree
    with pytest.raises(InvalidParamsError):
        scale_free_graph(10, 3, seed=0)  # odd
    with pytest.raises(InvalidParamsError):
        scale_free_graph(10, 0, seed=0)  # below 2


# ----------------------------------------------------------------- blinking


def small_base():
    return scale_free_graph(8, 4, seed=11)


class DenseBlinkingReference(BlinkingProcess):
    """The dense emission: base with down rows and columns zeroed, unit
    diagonal, rows divided by their sums."""

    def __init__(self, m, edges, p, t_rec, seed):
        super().__init__(m, edges, p, t_rec, seed)
        self.base = adjacency(m, edges)

    def step(self):
        self._timers = np.maximum(self._timers - 1, 0)
        up = self._timers == 0
        fails = up & (self._rng.random(self.m) < self.p)
        self._timers[fails] = self.t_rec
        down = self._timers > 0
        A = self.base.copy()
        A[down, :] = 0.0
        A[:, down] = 0.0
        np.fill_diagonal(A, 1.0)
        return A / A.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("p", [0.0, 0.01, 0.1, 0.5, 1.0])
def test_blinking_csr_emission_matches_dense_reference(p):
    csr = BlinkingProcess.from_params(m=60, avg_degree=6, p=p, t_rec=3, seed=4)
    dense = DenseBlinkingReference.from_params(m=60, avg_degree=6, p=p, t_rec=3, seed=4)
    for _ in range(60):
        G = csr.step()
        assert isinstance(G, CSR) and csr_array(G[:3], shape=G.shape).has_canonical_format
        # bit for bit, and no stored zeros
        assert np.array_equal(G.toarray(), dense.step())
        assert G.data.size == np.count_nonzero(G.data)


def test_blinking_p_zero_is_constant_normalized_base():
    proc = BlinkingProcess(8, small_base(), p=0.0, t_rec=3, seed=0)
    expected = make_stochastic(adjacency(8, small_base()) + np.eye(8))
    for _ in range(10):
        assert np.array_equal(proc.step().toarray(), expected)


def test_blinking_certain_failure_unit_recovery_gives_identity():
    proc = BlinkingProcess(8, small_base(), p=1.0, t_rec=1, seed=4)
    for _ in range(20):
        assert np.array_equal(proc.step().toarray(), np.eye(8))


def test_blinking_down_vertices_are_isolated():
    proc = BlinkingProcess(8, small_base(), p=0.5, t_rec=2, seed=21)
    for _ in range(60):
        G = proc.step().toarray()
        timers = proc.down_timers
        assert timers.min() >= 0 and timers.max() <= 2
        for i in np.flatnonzero(timers > 0):
            assert np.array_equal(G[i], np.eye(8)[i])
            assert np.all(G[np.arange(8) != i, i] == 0)
        assert is_stochastic(G)
        # support stays symmetric: failures cut rows and columns together
        support = G > 0
        np.fill_diagonal(support, False)
        assert np.array_equal(support, support.T)


def test_blinking_deterministic_by_seed():
    a = BlinkingProcess(8, small_base(), p=0.3, t_rec=2, seed=5)
    b = BlinkingProcess(8, small_base(), p=0.3, t_rec=2, seed=5)
    for _ in range(15):
        assert np.array_equal(a.step().toarray(), b.step().toarray())


def test_blinking_down_fraction_matches_independent_chain():
    # stationary fraction of down time for failure rate p and recovery
    # length T is T / ((1-p)/p + T); cross-check against an independent
    # per-vertex renewal chain simulated with its own generator
    p, t_rec, m, steps = 0.1, 3, 50, 20000
    proc = BlinkingProcess(m, scale_free_graph(m, 4, seed=2), p=p, t_rec=t_rec, seed=77)
    measured = 0.0
    for _ in range(steps):
        proc.step()
        measured += np.mean(proc.down_timers > 0)
    measured /= steps

    rng = np.random.default_rng(999)
    timers = np.zeros(m, dtype=int)
    oracle = 0.0
    for _ in range(steps):
        timers = np.maximum(timers - 1, 0)
        fails = (timers == 0) & (rng.random(m) < p)
        timers[fails] = t_rec
        oracle += np.mean(timers > 0)
    oracle /= steps

    analytic = t_rec / ((1 - p) / p + t_rec)
    assert abs(measured - oracle) < 0.012
    assert abs(measured - analytic) < 0.01
    assert abs(oracle - analytic) < 0.01


def test_blinking_from_params_deterministic_and_connected():
    a = BlinkingProcess.from_params(m=30, avg_degree=4, p=0.2, t_rec=2, seed=5)
    b = BlinkingProcess.from_params(m=30, avg_degree=4, p=0.2, t_rec=2, seed=5)
    # nothing fails at p = 0, so the first emission covers the same base
    full = BlinkingProcess.from_params(m=30, avg_degree=4, p=0.0, t_rec=2, seed=5)
    G = full.step()
    assert has_spanning_tree(csr_array(G[:3], shape=G.shape)) is not None
    for _ in range(10):
        assert np.array_equal(a.step().toarray(), b.step().toarray())


def test_blinking_validates_inputs():
    base = small_base()
    with pytest.raises(InvalidParamsError):
        BlinkingProcess(8, base, p=-0.1, t_rec=1, seed=0)
    with pytest.raises(InvalidParamsError):
        BlinkingProcess(8, base, p=1.5, t_rec=1, seed=0)
    with pytest.raises(InvalidParamsError):
        BlinkingProcess(8, base, p=0.5, t_rec=0, seed=0)
    # the timers are int64: 2**63 raised OverflowError at the first step
    with pytest.raises(InvalidParamsError):
        BlinkingProcess(8, base, p=1.0, t_rec=2**63, seed=0)
    proc = BlinkingProcess(8, base, p=1.0, t_rec=2**63 - 1, seed=0)
    proc.step()
    assert np.all(proc.down_timers == 2**63 - 1)
    with pytest.raises(InvalidParamsError):
        BlinkingProcess(0, np.empty((0, 2), dtype=int), p=0.5, t_rec=1, seed=0)


@pytest.mark.parametrize(
    "edges",
    [
        pytest.param([[0, 1], [1, 4]], id="endpoint-out-of-range"),
        pytest.param([[0, 1], [-1, 2]], id="negative-endpoint"),
        pytest.param([[0, 1], [2, 2]], id="self-loop"),
        pytest.param([[0, 1], [2, 3], [0, 1]], id="listed-twice"),
        pytest.param([[0, 1], [2, 3], [1, 0]], id="listed-twice-reversed"),
        pytest.param([[0, 1, 2]], id="not-two-columns"),
        pytest.param([[0.0, 1.0]], id="not-integer"),
    ],
)
def test_blinking_rejects_bad_edges(edges):
    with pytest.raises(InvalidParamsError):
        BlinkingProcess(4, np.array(edges), p=0.5, t_rec=1, seed=0)


def test_blinking_accepts_an_edgeless_base():
    proc = BlinkingProcess(3, [], p=0.5, t_rec=1, seed=0)
    assert np.array_equal(proc.step().toarray(), np.eye(3))


def test_blinking_wraps_as_driven_source():
    make = lambda: BlinkingProcess(8, small_base(), p=0.3, t_rec=2, seed=9)
    src = DrivenSource(make())
    G5 = src.at(5)
    assert src.at(5) is G5 and is_stochastic(G5)  # held, not stepped again
    with pytest.raises(InvalidParamsError, match="fresh source"):
        src.at(0)
    # the process emits what a fresh one from the same seed emits
    proc = make()
    for _ in range(6):
        G = proc.step()
    assert np.array_equal(G.toarray(), G5.toarray())


def test_blinking_emits_int32_indices():
    # int32 indices and indptr while the entries fit: half the index
    # bytes of int64, in the emission and in the source's checked copy
    make = lambda: BlinkingProcess.from_params(m=200, avg_degree=12, p=0.01, t_rec=3, seed=0)
    G = make().step()
    H = DrivenSource(make()).at(0)
    for A in (G, H):
        assert A.indices.dtype == A.indptr.dtype == np.int32
    assert np.array_equal(G.toarray(), H.toarray())


def test_blinking_emissions_are_frozen():
    # a source can hold the emission itself, with no copy to protect it
    G = BlinkingProcess(8, small_base(), p=0.3, t_rec=2, seed=9).step()
    for a in (G.data, G.indices, G.indptr):
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_blinking_source_holds_only_edge_lists():
    # a dense base would be 2000^2 doubles = 30.5 MiB; the edge lists of
    # ~26k entries are ~0.4 MiB
    tracemalloc.start()
    try:
        src = DrivenSource(
            BlinkingProcess.from_params(m=2000, avg_degree=12, p=0.01, t_rec=3, seed=0)
        )
        for t in range(20):
            src.at(t)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 16 * 2**20


def test_blinking_build_allocates_no_dense_base():
    # the base graph goes from its stub list to row-major edge lists;
    # a dense 2000 x 2000 adjacency alone would be 30.5 MiB
    tracemalloc.start()
    try:
        DrivenSource(
            BlinkingProcess.from_params(m=2000, avg_degree=12, p=0.01, t_rec=3, seed=0)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ----------------------------------------------------------------- blurring


def test_blurring_initial_weights_one_orientation_per_pair():
    proc = BlurringProcess(m=6, r=0.5, seed=0)
    W = proc.weights
    assert np.all(np.diag(W) == 0)
    for i in range(6):
        for j in range(i + 1, 6):
            assert (W[i, j] > 0) != (W[j, i] > 0)
            live = max(W[i, j], W[j, i])
            assert 1.0 <= live < 2.0


def test_blurring_orientation_frequency():
    # about 10k pairs; each orientation should appear half the time
    m = 142
    proc = BlurringProcess(m=m, r=0.1, seed=13)
    W = proc.weights
    iu = np.triu_indices(m, 1)
    frac = np.mean(W[iu] > 0)
    n_pairs = len(iu[0])
    assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / n_pairs)


def test_blurring_r_zero_constant():
    proc = BlurringProcess(m=5, r=0.0, seed=3)
    first = proc.step()
    assert is_stochastic(first)
    for _ in range(10):
        assert np.array_equal(proc.step(), first)


def test_blurring_pair_exclusivity_is_invariant():
    proc = BlurringProcess(m=6, r=0.5, seed=8)
    for _ in range(200):
        proc.step()
        W = proc.weights
        both = (W > 0) & (W.T > 0)
        np.fill_diagonal(both, False)
        assert not both.any()


def test_blurring_negative_weight_flips_orientation():
    proc = BlurringProcess(m=4, r=1.5, seed=5)
    init = proc.weights > 0
    flipped = False
    for _ in range(100):
        proc.step()
        if np.any((proc.weights > 0) != init):
            flipped = True
            break
    assert flipped


def test_blurring_emits_stochastic_matrices():
    proc = BlurringProcess(m=5, r=1.0, seed=6)
    for _ in range(200):
        assert is_stochastic(proc.step())


def test_blurring_two_node_fallback_row():
    # with one pair, exactly one row has no in-edge and falls back to a
    # self-loop while the other points entirely at its neighbor
    for seed in range(4):
        G = BlurringProcess(m=2, r=0.0, seed=seed).step()
        assert (
            np.array_equal(G, np.array([[0.0, 1.0], [0.0, 1.0]]))
            or np.array_equal(G, np.array([[1.0, 0.0], [1.0, 0.0]]))
        )


def test_blurring_emission_is_fresh_and_frozen():
    proc = BlurringProcess(m=6, r=0.3, seed=2)
    G = proc.step()
    assert G.dtype == np.float64 and G.flags.c_contiguous and G.flags.owndata
    assert not G.flags.writeable
    assert not np.shares_memory(G, proc._W)


def test_blurring_deterministic_by_seed():
    a = BlurringProcess(m=7, r=0.4, seed=10)
    b = BlurringProcess(m=7, r=0.4, seed=10)
    c = BlurringProcess(m=7, r=0.4, seed=11)
    for _ in range(20):
        assert np.array_equal(a.step(), b.step())
    assert not np.array_equal(a.weights, c.weights)


def test_blurring_validates_inputs():
    with pytest.raises(InvalidParamsError):
        BlurringProcess(m=1, r=0.5, seed=0)
    with pytest.raises(InvalidParamsError):
        BlurringProcess(m=4, r=-0.5, seed=0)


def test_blurring_wraps_as_driven_source():
    src = DrivenSource(BlurringProcess(m=5, r=0.3, seed=2))
    G3 = src.at(3)
    assert np.array_equal(src.at(3), G3)
    assert is_stochastic(src.at(7))
