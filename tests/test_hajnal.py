"""Oracle tests for Hajnal diameter, eta, and the contraction inequality."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netsync.errors import InvalidParamsError
from netsync import hajnal
from netsync.hajnal import diam, is_scrambling
from oracles import diam_in, eta, hajnal_bound_check, make_stochastic

ETA_EXAMPLE = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])


def rand_stochastic(rng, m, density=1.0):
    A = rng.random((m, m))
    if density < 1.0:
        A *= rng.random((m, m)) < density
    A[A.sum(axis=1) == 0, 0] = 1.0
    return make_stochastic(A)


# ---------------------------------------------------------------- diameter


def test_diam_equal_rows_is_zero():
    L = np.tile([0.2, 0.3, 0.5], (3, 1))
    for kind in ("inf", "one", "two"):
        assert diam_in(L, kind) == 0.0


def test_diam_identity_m2():
    assert diam(np.eye(2)) == 1.0
    assert diam_in(np.eye(2), "one") == 2.0


def test_diam_column_vector_state_diameter():
    x = np.array([[0.0], [0.0], [3.0]])
    assert diam(x) == 3.0
    assert diam_in(x, "one") == 3.0


def test_diam_single_row():
    assert diam(np.array([[1.0, 2.0]])) == 0.0


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_diam_inf_matches_pairwise_bruteforce(seed, m):
    L = np.random.default_rng(seed).normal(size=(m, 4))
    want = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            want = max(want, np.max(np.abs(L[i] - L[j])))
    assert diam(L) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("kind", ["inf", "one", "two"])
def test_diam_stacked_block_matches_each_window(kind):
    # (m, K, n) holds K matrices side by side; each gets its own value
    Y = np.random.default_rng(3).normal(size=(5, 4, 3))
    got = diam_in(Y, kind)
    assert got.shape == (4,)
    assert got.tolist() == [diam_in(Y[:, k], kind) for k in range(4)]
    with pytest.raises(InvalidParamsError):
        diam_in(Y, "frobenius")


@pytest.mark.parametrize("L", [[[1.0, 2.0]], [1.0], np.zeros((1, 2, 3))])
def test_diam_rejects_unknown_kind_for_a_single_row(L):
    # one row has diameter 0 under every norm, but an unknown norm is
    # still an error, as it is for two or more rows
    with pytest.raises(InvalidParamsError):
        diam_in(L, kind="bogus")


# ---------------------------------------------------------------- eta


def test_eta_identity_zero():
    assert eta(np.eye(4)) == 0.0


def test_eta_equal_rows_one():
    G = np.tile([0.25, 0.25, 0.5], (3, 1))
    assert eta(G) == pytest.approx(1.0, abs=1e-14)


def test_eta_cyclic_example():
    assert eta(ETA_EXAMPLE) == pytest.approx(0.5, abs=1e-15)


def test_eta_ignores_dust_entries():
    # negative dust is no edge; positive dust is one, however small
    G = np.array([[1.0 + 1e-13, -1e-13], [-1e-13, 1.0 + 1e-13]])
    assert eta(G) == 0.0
    assert not is_scrambling(G)
    G = np.array([[1.0 - 1e-13, 1e-13], [1e-13, 1.0 - 1e-13]])
    assert eta(G) == pytest.approx(2e-13, rel=1e-12)
    assert is_scrambling(G)


# ---------------------------------------------------------------- scrambling


def test_scrambling_positive_column():
    G = make_stochastic(np.array([[0.5, 0.5, 0.0], [0.3, 0.0, 0.7], [0.2, 0.4, 0.4]]))
    assert is_scrambling(G)


def test_scrambling_identity_false():
    assert not is_scrambling(np.eye(3))


def test_scrambling_cyclic_example():
    assert is_scrambling(ETA_EXAMPLE)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
@settings(max_examples=100, deadline=None)
def test_scrambling_iff_eta_positive(seed, m):
    G = rand_stochastic(np.random.default_rng(seed), m, density=0.35)
    assert is_scrambling(G) == (eta(G) > 0.0)


def test_scrambling_row_blocks_match_eta(monkeypatch):
    # blocks of a few entries split every support product across rows
    monkeypatch.setattr(hajnal, "SCRAMBLING_BLOCK", 7)
    rng = np.random.default_rng(4)
    verdicts = []
    for m in range(2, 12):
        for density in (0.2, 0.35, 0.6):
            G = rand_stochastic(rng, m, density)
            verdicts.append(eta(G) > 0.0)
            assert is_scrambling(G) == verdicts[-1]
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("hub", [False, True])
def test_scrambling_memory_stays_far_below_a_dense_product(hub):
    # a 1%-dense bool support at m = 2000; a dense float S S^T alone is
    # 30.5 MiB.  Measured peak: 4.8 MiB, mostly the bool copy S itself.
    import scipy.sparse  # noqa: F401  (imported before tracing)

    S = np.random.default_rng(0).random((2000, 2000)) < 0.01
    # every row listening to node 0 makes every pair share a column
    S[:, 0] |= hub
    tracemalloc.start()
    try:
        verdict = is_scrambling(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == hub
    assert peak < 8 * 2**20, f"is_scrambling peaked at {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------- inequality


def test_bound_check_rank_one_left_factor():
    rng = np.random.default_rng(3)
    G = np.tile([0.1, 0.6, 0.3], (3, 1))
    H = rand_stochastic(rng, 3)
    lhs, rhs, holds = hajnal_bound_check(G, H, "inf")
    assert lhs <= 1e-12
    assert rhs <= 1e-12
    assert holds


def test_bound_check_identity_equality():
    lhs, rhs, holds = hajnal_bound_check(np.eye(2), np.eye(2), "inf")
    assert (lhs, rhs, holds) == (1.0, 1.0, True)


def test_bound_check_dimension_mismatch():
    with pytest.raises(InvalidParamsError, match="need square matrices of equal shape"):
        hajnal_bound_check(np.eye(2), np.eye(3), "inf")


def test_bound_check_random_sweep():
    # randomized check of diam(GH) <= (1 - eta(G)) * diam(H)
    rng = np.random.default_rng(20240814)
    for _ in range(10_000):
        m = int(rng.integers(2, 9))
        G = rand_stochastic(rng, m, density=float(rng.uniform(0.3, 1.0)))
        H = rand_stochastic(rng, m, density=float(rng.uniform(0.3, 1.0)))
        lhs, rhs, holds = hajnal_bound_check(G, H, "inf")
        assert holds, (lhs, rhs)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 7))
@settings(max_examples=100, deadline=None)
def test_bound_check_property(seed, m):
    rng = np.random.default_rng(seed)
    G = rand_stochastic(rng, m, density=0.6)
    H = rand_stochastic(rng, m, density=0.6)
    for kind in ("inf", "one", "two"):
        assert hajnal_bound_check(G, H, kind).holds
