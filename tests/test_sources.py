"""Oracle tests for matrix sequence sources."""

import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.sparse import coo_array, csr_array, csr_matrix

from netsync.linalg import CSR, is_stochastic
from netsync.errors import InvalidParamsError, ProcessExhaustedError
from netsync.processes import BlinkingProcess, BlurringProcess
from netsync.sources import (
    DRAW_BLOCK,
    DrivenSource,
    FiniteSetIIDSource,
    PeriodicSource,
    StaticSource,
)
from oracles import make_stochastic

A2 = make_stochastic(np.array([[0.5, 0.5], [0.25, 0.75]]))
B2 = make_stochastic(np.array([[1.0, 0.0], [0.5, 0.5]]))


# ---------------------------------------------------------------- variants


def test_static_every_time():
    src = StaticSource(A2)
    for t in (0, 1, 17, 10**6):
        assert np.array_equal(src.at(t), A2)


def test_static_validates():
    with pytest.raises(InvalidParamsError):
        StaticSource(np.array([[0.5, 0.6], [0.5, 0.5]]))


def test_periodic_indexing():
    src = PeriodicSource([A2, B2])
    assert np.array_equal(src.at(0), A2)
    assert np.array_equal(src.at(3), B2)
    assert np.array_equal(src.at(4), A2)


def test_periodic_rejects_empty():
    with pytest.raises(InvalidParamsError):
        PeriodicSource([])


def test_periodic_rejects_mixed_dims():
    with pytest.raises(InvalidParamsError):
        PeriodicSource([A2, make_stochastic(np.eye(3))])


def test_finite_set_deterministic_random_access():
    src = FiniteSetIIDSource([A2, B2], seed=42)
    for t in (0, 5, 999, 10**7):
        first = src.at(t)
        again = src.at(t)
        assert np.array_equal(first, again)
    # random access agrees with itself under a fresh source
    src2 = FiniteSetIIDSource([A2, B2], seed=42)
    assert np.array_equal(src.at(123456), src2.at(123456))


def test_finite_set_seed_changes_sequence():
    a = FiniteSetIIDSource([A2, B2], seed=1)
    b = FiniteSetIIDSource([A2, B2], seed=2)
    diffs = sum(
        not np.array_equal(a.at(t), b.at(t)) for t in range(200)
    )
    assert diffs > 20


def test_finite_set_weights_frequencies():
    src = FiniteSetIIDSource([A2, B2], weights=[0.8, 0.2], seed=7)
    n = 5000
    picks_b = sum(np.array_equal(src.at(t), B2) for t in range(n))
    # binomial(5000, 0.2): mean 1000, sd ~28; allow 5 sigma
    assert abs(picks_b - 1000) < 5 * 28.3


# the last time before and the first time of several draw blocks, the
# top block (which ends at the largest 64-bit time) included
BLOCK_EDGE_TIMES = [
    t
    for edge in (DRAW_BLOCK, 2 * DRAW_BLOCK, 10**6 - 10**6 % DRAW_BLOCK, 2**63, 2**64 - DRAW_BLOCK)
    for t in (edge - 1, edge)
] + [2**64 - 2, 2**64 - 1]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 3, 2**63 - 1])
def test_finite_set_index_matches_generator_draw(seed):
    weights = [0.1, 0.25, 0.3, 0.35]
    src = FiniteSetIIDSource([A2, B2, A2, B2], weights=weights, seed=seed)
    cum = np.cumsum(np.asarray(weights) / sum(weights))
    times = list(range(300)) + [10**6, 2**40, 2**63 - 1] + BLOCK_EDGE_TIMES
    for t in times:
        # a key list holding a time >= 2**63 would pass through float64
        key = np.array([seed, t], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random()
        expected = min(int(np.searchsorted(cum, u, side="right")), 3)
        assert src.index_at(t) == expected, t


def test_finite_set_out_of_order_matches_in_order():
    times = [5000, 3, 5000, DRAW_BLOCK, DRAW_BLOCK - 1, 0, 2**64 - 1, 3, 2**64 - DRAW_BLOCK, 5000]
    fresh = FiniteSetIIDSource([A2, B2], weights=[0.3, 0.7], seed=9)
    in_order = {t: fresh.index_at(t) for t in sorted(set(times))}
    src = FiniteSetIIDSource([A2, B2], weights=[0.3, 0.7], seed=9)
    assert [src.index_at(t) for t in times] == [in_order[t] for t in times]
    assert len(set(in_order.values())) == 2


def test_finite_set_threads_sharing_a_source_read_consistent_draws():
    times = [int(t) for t in np.random.default_rng(4).integers(0, 4 * DRAW_BLOCK, 120)]
    alone = FiniteSetIIDSource([A2, B2], seed=11)
    expected = [alone.index_at(t) for t in times]
    src = FiniteSetIIDSource([A2, B2], seed=11)
    results = {}

    def read(k):
        results[k] = [src.index_at(t) for t in times[k:] + times[:k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == {k: expected[k:] + expected[:k] for k in range(4)}


def test_finite_set_rejects_times_beyond_64_bits():
    src = FiniteSetIIDSource([A2, B2], seed=3)
    for t in (2**64, 2**64 + DRAW_BLOCK, 2**70):
        with pytest.raises(InvalidParamsError):
            src.at(t)
        with pytest.raises(InvalidParamsError):
            src.index_at(t)
    # the top block still draws after a rejected query
    key = np.array([3, 2**64 - 1], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random()
    assert src.index_at(2**64 - 1) == int(u >= 0.5)


def test_finite_set_rejects_empty():
    with pytest.raises(InvalidParamsError, match="finite iid source needs a nonempty matrix set"):
        FiniteSetIIDSource([], seed=0)


def test_finite_set_rejects_mixed_dims():
    with pytest.raises(InvalidParamsError, match="matrix 1 has dimension 3, expected 2"):
        FiniteSetIIDSource([A2, make_stochastic(np.eye(3))], seed=0)


def test_finite_set_rejects_bad_weights():
    with pytest.raises(InvalidParamsError):
        FiniteSetIIDSource([A2, B2], weights=[0.5], seed=0)
    with pytest.raises(InvalidParamsError):
        FiniteSetIIDSource([A2, B2], weights=[-0.1, 1.1], seed=0)
    # the sum overflowed to inf, which normalised the weights to [0, 0]
    with pytest.raises(InvalidParamsError, match="positive finite sum"):
        FiniteSetIIDSource([A2, B2], weights=[1e308, 1e308], seed=0)


class CountingProcess:
    """Minimal driven process stub: emits A2 on even steps, B2 on odd."""

    def __init__(self):
        self.m = 2
        self.calls = 0

    def step(self):
        out = A2 if self.calls % 2 == 0 else B2
        self.calls += 1
        return out


def test_driven_holds_its_time_and_steps_forward():
    proc = CountingProcess()
    src = DrivenSource(proc)
    assert np.array_equal(src.at(3), B2)
    assert src.process is proc and proc.calls == 4
    # the held time is returned again without stepping
    assert src.at(3) is src.at(3) and proc.calls == 4
    # a later time steps the process forward
    assert np.array_equal(src.at(4), A2) and proc.calls == 5
    assert np.array_equal(src.at(7), B2) and proc.calls == 8


def blinking(m=30, seed=3):
    return BlinkingProcess.from_params(m=m, avg_degree=4, p=0.2, t_rec=2, seed=seed)


def test_driven_back_read_raises_and_a_fresh_source_reads_again():
    src = DrivenSource(blinking())
    expected = {t: src.at(t).toarray() for t in range(31)}
    for t in (29, 0):
        back = rf"at t=30, cannot go back to t={t}; build a fresh source"
        with pytest.raises(InvalidParamsError, match=back):
            src.at(t)
    # a failed back-read leaves the source where it was
    assert np.array_equal(src.at(30).toarray(), expected[30])
    # a fresh source from the same seed emits the same sequence
    again = DrivenSource(blinking())
    for t in (0, 3, 3, 17, 30):
        assert np.array_equal(again.at(t).toarray(), expected[t])


def driven_peak_bytes(horizon: int) -> int:
    tracemalloc.start()
    try:
        src = DrivenSource(
            BlinkingProcess.from_params(m=100, avg_degree=12, p=0.01, t_rec=3, seed=0)
        )
        for t in range(horizon):
            src.at(t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_driven_memory_does_not_grow_with_horizon():
    short, long = driven_peak_bytes(200), driven_peak_bytes(2000)
    assert long <= 2 * short, f"peak {long} B at horizon 2000 vs {short} B at 200"


class ListProcess:
    """Emits the given matrices in order, then stops."""

    def __init__(self, matrices):
        self.m = 2
        self.matrices = list(matrices)
        self.calls = 0

    def step(self):
        if self.calls == len(self.matrices):
            raise StopIteration
        self.calls += 1
        return self.matrices[self.calls - 1]


def test_driven_failed_emission_is_sticky():
    proc = ListProcess([A2, B2, np.full((2, 2), 0.7), B2, A2])
    src = DrivenSource(proc)
    assert np.array_equal(src.at(1), B2)
    # a bad emission fails its own time, every later time and every
    # earlier one, with one message; stepping past it would shift every
    # later emission by one time
    for t in (2, 2, 3, 4, 9, 1, 0):
        with pytest.raises(InvalidParamsError) as err:
            src.at(t)
        assert str(err.value) == "process output at t=2 is not row stochastic"
    assert proc.calls == 3


def test_driven_interrupted_emission_is_sticky():
    # an interrupt part-way through a step leaves the process part-way
    # on, after the source let go of its last emission: that time, every
    # later one and every earlier one raise the interrupt again
    class InterruptedProcess(ListProcess):
        def step(self):
            if self.calls == 1:
                self.calls += 1
                raise KeyboardInterrupt
            return super().step()

    proc = InterruptedProcess([A2, B2, A2])
    src = DrivenSource(proc)
    assert np.array_equal(src.at(0), A2)
    for t in (1, 0, 2):
        with pytest.raises(KeyboardInterrupt):
            src.at(t)
    assert proc.calls == 2


def test_driven_exhausted_process():
    proc = ListProcess([A2, B2])
    src = DrivenSource(proc)
    assert np.array_equal(src.at(1), B2)
    # the message names the first time the process could not emit
    for t in (5, 2, 2, 0):
        with pytest.raises(ProcessExhaustedError) as err:
            src.at(t)
        assert str(err.value) == "driven process ended before t=2"
    assert proc.calls == 2


def test_driven_holds_one_emission():
    # the process's own 300 x 300 weights are allocated before tracing;
    # the source holds one 8 m^2-byte emission, the process's own
    m = 300
    proc = BlurringProcess(m=m, r=0.05, seed=1)
    tracemalloc.start()
    try:
        src = DrivenSource(proc)
        src.at(0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert src.at(0).nbytes == 8 * m * m
    assert held < 1.5 * 8 * m * m


@pytest.mark.parametrize("maker", [
    lambda: BlinkingProcess.from_params(m=30, avg_degree=4, p=0.2, t_rec=2, seed=3),
    lambda: BlurringProcess(m=6, r=0.3, seed=2),
], ids=["blinking", "blurring"])
def test_driven_holds_no_earlier_emission_while_its_process_steps(maker):
    # the process counts, as each step begins, the emissions it made that
    # are still alive; the caller keeps none of them
    proc = maker()
    made, alive = [], []
    step = proc.step

    def counting_step():
        alive.append(sum(ref() is not None for ref in made))
        G = step()
        made.append(weakref.ref(G.data if isinstance(G, CSR) else G))
        return G

    proc.step = counting_step
    src = DrivenSource(proc)
    for t in range(8):
        src.at(t)
    src.at(12)
    assert alive == [0] * 13


def test_driven_blurring_step_copies_no_emission():
    # one step holds the last emission and makes the next: the process
    # divides its weights' copy in place and freezes it, and the source
    # keeps that array, where it used to copy both (3.65 emissions)
    m = 300
    src = DrivenSource(BlurringProcess(m=m, r=0.05, seed=1))
    src.at(0)
    tracemalloc.start()
    try:
        src.at(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * m * m


def test_static_takes_a_frozen_owned_array_as_is():
    A = A2.copy()
    A.flags.writeable = False
    assert StaticSource(A).G is A


@pytest.mark.parametrize("maker", [
    pytest.param(lambda A: A, id="writeable"),
    pytest.param(lambda A: frozen_array(A[:]), id="frozen-view"),
    pytest.param(lambda A: frozen_array(np.asfortranarray(A)), id="frozen-fortran"),
    pytest.param(lambda A: frozen_array(A.astype(np.float32)), id="frozen-float32"),
])
def test_static_copies_an_array_its_maker_did_not_freeze(maker):
    # a view's base, or the caller's writeable array, could change it later
    A = A2.copy()
    given = maker(A)
    G = StaticSource(given).G
    assert G is not given and not np.shares_memory(G, A)
    assert G.dtype == np.float64 and not G.flags.writeable
    assert np.array_equal(G, A2) and A.flags.writeable


def frozen_array(A):
    A.flags.writeable = False
    return A


def frozen(G):
    for a in (G.data, G.indices, G.indptr):
        a.flags.writeable = False
    return G


def record(A, index_dtype=np.int32):
    """The canonical CSR record of dense A, over arrays of its own."""
    S = csr_array(A)
    return CSR(S.data.copy(), S.indices.astype(index_dtype), S.indptr.astype(index_dtype), len(A))


def test_driven_validates_sparse_output():
    G = record(A2)
    out = DrivenSource(ListProcess([G])).at(0)
    assert isinstance(out, CSR) and np.array_equal(out.toarray(), A2)
    # a frozen copy: the process's own record is left writeable
    assert not out.data.flags.writeable
    assert G.data.flags.writeable


def test_driven_takes_a_frozen_canonical_emission_as_is():
    for index_dtype in (np.int32, np.int64):
        G = frozen(record(A2, index_dtype))
        assert DrivenSource(ListProcess([G])).at(0) is G


@pytest.mark.parametrize("arrays", [
    pytest.param(([0.5, 0.5, 0.5, 0.5], [1, 0, 0, 1], [0, 2, 4]), id="out-of-order"),
    pytest.param(([0.25, 0.25, 0.5, 0.5, 0.5], [0, 0, 1, 0, 1], [0, 3, 5]), id="duplicate"),
])
def test_record_out_of_canonical_form_rejected_typed(arrays):
    # both row stochastic: only the layout of row 0 is at fault
    arrays = [np.array(a, dtype=dtype) for a, dtype in zip(arrays, (float, np.int32, np.int32))]
    assert is_stochastic(CSR(*arrays, 2))
    for G in (CSR(*arrays, 2), frozen(CSR(*arrays, 2))):
        before = [a.copy() for a in G[:3]]
        with pytest.raises(InvalidParamsError, match="t=0 is not a CSR matrix of 2 rows"):
            DrivenSource(ListProcess([G])).at(0)
        for a, b in zip(G[:3], before):
            assert np.array_equal(a, b)


def test_driven_checks_a_frozen_emission():
    bad = frozen(record(np.array([[0.5, 0.5], [0.0, 0.9]])))
    with pytest.raises(InvalidParamsError, match="t=0"):
        DrivenSource(ListProcess([bad])).at(0)


@pytest.mark.parametrize("change", [
    pytest.param(lambda G: G, id="writeable"),
    pytest.param(lambda G: frozen(G._replace(data=np.concatenate((G.data, [9.0]))[:-1])),
                 id="frozen-view"),
    pytest.param(lambda G: frozen(G._replace(data=G.data.astype(np.float32))), id="float32"),
    pytest.param(lambda G: frozen(G)._replace(indices=list(G.indices)), id="list"),
])
def test_driven_copies_a_record_its_maker_did_not_freeze(change):
    G = change(record(A2))
    out = DrivenSource(ListProcess([G])).at(0)
    assert out is not G and out.data.dtype == np.float64
    assert not any(np.shares_memory(a, b) for a in out[:3] for b in G[:3])
    assert np.array_equal(out.toarray(), A2)


@pytest.mark.parametrize("arrays", [
    pytest.param(([1.0, 1.0], [0, 1], [0, 1]), id="indptr-short"),
    pytest.param(([1.0, 1.0], [0, 1], [1, 1, 2]), id="indptr-from-1"),
    pytest.param(([1.0, 1.0], [0, 1], [0, 2, 1]), id="indptr-falls"),
    pytest.param(([1.0, 1.0], [0, 1], [0, 1, 1]), id="indptr-ends-early"),
    pytest.param(([1.0, 1.0], [0, 2], [0, 1, 2]), id="index-too-large"),
    pytest.param(([1.0, 1.0], [-1, 1], [0, 1, 2]), id="index-negative"),
    pytest.param(([1.0, 1.0, 1.0], [0, 1], [0, 1, 2]), id="data-longer"),
    pytest.param(([[1.0, 1.0]], [0, 1], [0, 1, 2]), id="data-2d"),
])
def test_malformed_record_rejected_typed(arrays):
    data, indices, indptr = arrays
    G = CSR(np.array(data), np.array(indices), np.array(indptr), 2)
    with pytest.raises(InvalidParamsError, match="matrix 0 is not a CSR matrix"):
        PeriodicSource([G])
    with pytest.raises(InvalidParamsError, match="not a CSR matrix"):
        StaticSource(frozen(G))


@pytest.mark.parametrize("indices, indptr", [
    pytest.param(np.int64, np.int32, id="apart"),
    pytest.param(np.int16, np.int16, id="int16"),
    pytest.param(np.uint64, np.uint64, id="uint64"),
])
def test_record_index_dtypes_other_than_the_kernels_rejected_typed(indices, indptr):
    G = record(A2)
    G = G._replace(indices=G.indices.astype(indices), indptr=G.indptr.astype(indptr))
    with pytest.raises(InvalidParamsError, match="not a CSR matrix"):
        StaticSource(G)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]]),  # not square
        np.array([[1.5, -0.5], [0.0, 1.0]]),  # negative entry
        np.array([[np.nan, 1.0], [0.0, 1.0]]),  # not finite
        np.array([[0.5, 0.5], [0.0, 0.9]]),  # row sum off
        np.zeros((2, 2)),  # empty rows
        np.zeros((0, 0)),  # no rows
    ],
)
def test_sparse_output_checked_like_dense(bad):
    with pytest.raises(InvalidParamsError, match="not row stochastic"):
        StaticSource(bad)
    if bad.shape[0] == bad.shape[1]:
        for G in (record(bad), frozen(record(bad))):
            assert not is_stochastic(G)
            with pytest.raises(InvalidParamsError, match="not row stochastic"):
                StaticSource(G)


@pytest.mark.parametrize("G", [
    pytest.param([[1.0], [0.5, 0.5]], id="ragged"),
    pytest.param([["a", "b"], ["c", "d"]], id="strings"),
])
def test_input_numpy_cannot_read_as_floats_rejected_typed(G):
    with pytest.raises(InvalidParamsError, match="not a float matrix"):
        StaticSource(G)
    with pytest.raises(InvalidParamsError, match="matrix 1 is not a float matrix"):
        PeriodicSource([A2, G])


@pytest.mark.parametrize("to_sparse", [csr_array, csr_matrix, coo_array])
def test_scipy_sparse_input_rejected_typed_naming_the_record(to_sparse):
    S = to_sparse(A2)
    named = r"not a float matrix: a sparse S is a record as CSR\(S\.data"
    with pytest.raises(InvalidParamsError, match=named):
        StaticSource(S)
    with pytest.raises(InvalidParamsError, match="t=0 is " + named):
        DrivenSource(ListProcess([S])).at(0)
    # the conversion the message names gives a record the source takes
    S = S.tocsr()
    S.sum_duplicates()
    G = StaticSource(CSR(S.data, S.indices, S.indptr, S.shape[0])).at(0)
    assert np.array_equal(G.toarray(), A2)


def test_negative_time_rejected():
    with pytest.raises(InvalidParamsError):
        StaticSource(A2).at(-1)
