"""Oracle tests for the dense matrix kernel.

Expected values here are either hand-checkable or verified against an
independent route (numpy SVD / eigvals) inside the test itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array

from netsync.errors import InvalidParamsError
from netsync.linalg import (
    CSR,
    compress,
    difference,
    is_stochastic,
    lift,
    matrix_norm,
    spectral_radius,
)
from oracles import NegativeEntryError, ZeroRowError, make_stochastic, matrix_norm_in


def rand_nonneg(rng, m, density=1.0):
    A = rng.random((m, m))
    if density < 1.0:
        A *= rng.random((m, m)) < density
    A[A.sum(axis=1) == 0, 0] = 1.0
    return A


# ---------------------------------------------------------------- stochastic


def test_make_stochastic_basic():
    out = make_stochastic(np.array([[2.0, 2.0], [0.0, 4.0]]))
    assert np.array_equal(out, np.array([[0.5, 0.5], [0.0, 1.0]]))


def test_make_stochastic_identity_passthrough():
    out = make_stochastic(np.eye(3))
    assert np.array_equal(out, np.eye(3))


def test_make_stochastic_zero_row():
    with pytest.raises(ZeroRowError) as ei:
        make_stochastic(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert ei.value.row == 0


def test_make_stochastic_negative_entry():
    with pytest.raises(NegativeEntryError) as ei:
        make_stochastic(np.array([[1.0, -0.5], [0.0, 1.0]]))
    assert (ei.value.row, ei.value.col) == (0, 1)


def test_make_stochastic_rejects_nonsquare():
    with pytest.raises(ValueError):
        make_stochastic(np.ones((2, 3)))


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_make_stochastic_idempotent_bitwise(seed, m):
    A = rand_nonneg(np.random.default_rng(seed), m, density=0.7)
    once = make_stochastic(A)
    twice = make_stochastic(once)
    assert np.array_equal(once, twice)
    assert is_stochastic(once)


def test_is_stochastic_tolerance():
    G = np.array([[0.5, 0.5 + 5e-13], [0.25, 0.75]])
    assert is_stochastic(G)
    assert not is_stochastic(np.array([[0.5, 0.6], [0.25, 0.75]]))
    assert not is_stochastic(np.array([[1.1, -0.1], [0.5, 0.5]]))


def test_is_stochastic_rejects_an_empty_matrix():
    empty = CSR(np.zeros(0), np.zeros(0, dtype=np.int32), np.zeros(1, dtype=np.int32), 0)
    assert is_stochastic(np.zeros((0, 0))) is False
    assert is_stochastic(empty) is False


@pytest.mark.parametrize("G", [
    pytest.param([[1.0], [0.5, 0.5]], id="ragged"),
    pytest.param(csr_array(np.eye(2)), id="csr_array"),
])
def test_is_stochastic_rejects_what_numpy_cannot_read_typed(G):
    with pytest.raises(InvalidParamsError, match=type(G).__name__):
        is_stochastic(G)


def test_is_stochastic_sums_a_record_as_scipy_sums_its_twin():
    # the largest deviation of a row sum from 1 is the least tolerance that
    # passes, so any other summation order would move some verdict below
    for seed in range(20):
        G, twin = csr_twins(np.random.default_rng(seed), 60, np.int32, density=0.4)
        worst = np.max(np.abs(twin.sum(axis=1) - 1.0))
        assert is_stochastic(G, worst) and not is_stochastic(G, np.nextafter(worst, 0))


# ---------------------------------------------------------------- CSR record


def csr_twins(rng, m, index_dtype, density=0.2, empty_row=None):
    """A random row-stochastic CSR record with index_dtype indices, and
    the scipy csr_array over copies of the same arrays."""
    A = rng.random((m, m)) * (rng.random((m, m)) < density)
    A[np.arange(m), np.arange(m)] += 0.1
    A /= A.sum(axis=1, keepdims=True)
    if empty_row is not None:
        A[empty_row] = 0.0
    S = csr_array(A)
    G = CSR(S.data.copy(), S.indices.astype(index_dtype), S.indptr.astype(index_dtype), m)
    return G, csr_array((G.data.copy(), G.indices.copy(), G.indptr.copy()), shape=(m, m))


OPERANDS = {
    "vector": lambda rng, m: rng.standard_normal(m),
    "column": lambda rng, m: rng.standard_normal((m, 1)),
    "block": lambda rng, m: rng.standard_normal((m, 8)),
    # a slot of the walk's (m, L, n * w) buffer: rows L * n * w floats apart
    "slot-view": lambda rng, m: rng.standard_normal((m, 3, 8))[:, 1],
    "strided-vector": lambda rng, m: rng.standard_normal((m, 3))[:, 2],
}


@pytest.mark.parametrize("operand", OPERANDS)
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("empty_row", [None, 7])
def test_record_product_is_scipys_bit_for_bit(operand, index_dtype, empty_row):
    rng = np.random.default_rng(5)
    G, twin = csr_twins(rng, 200, index_dtype, empty_row=empty_row)
    X = OPERANDS[operand](rng, 200)
    Y = G @ X
    expected = twin @ X
    assert type(Y) is np.ndarray and Y.dtype == np.float64 and Y.shape == expected.shape
    assert np.array_equal(Y, expected)
    if empty_row is not None:
        assert not Y[empty_row].any()
    assert np.array_equal(G.toarray(), twin.toarray())


def test_record_product_rejects_a_mismatched_operand():
    G, _ = csr_twins(np.random.default_rng(0), 5, np.int32)
    assert G.shape == (5, 5)
    for X in (np.ones(4), np.ones((6, 2)), np.ones((5, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            G @ X


# ---------------------------------------------------------------- projection


def difference_frame(m):
    """Dense reference frame: the (m-1) x m difference matrix D and its
    right inverse, whose column k holds k+1 leading ones."""
    D = np.zeros((m - 1, m))
    idx = np.arange(m - 1)
    D[idx, idx] = 1.0
    D[idx, idx + 1] = -1.0
    return D, np.triu(np.ones((m, m - 1)))


def test_projection_basis_difference_m2():
    assert np.array_equal(difference(np.array([[3.0], [1.0]])), [[2.0]])
    assert np.array_equal(lift(np.array([[2.0, -1.0]])), [[2.0, -1.0], [0.0, 0.0]])


def test_projection_basis_difference_m3():
    D, Dplus = difference_frame(3)
    X = np.random.default_rng(3).normal(size=(3, 4))
    V = X[:2]
    assert np.array_equal(difference(X), D @ X)
    assert np.array_equal(lift(V), Dplus @ V)
    assert np.array_equal(difference(np.ones(3)), np.zeros(2))


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_projection_basis_invariants(seed, m):
    D, Dplus = difference_frame(m)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, 3))
    V = rng.normal(size=(m - 1, 3))
    L = rng.normal(size=(m, m))
    assert np.array_equal(difference(X), D @ X)
    assert np.max(np.abs(lift(V) - Dplus @ V)) <= 1e-12 * m
    assert np.max(np.abs(difference(lift(V)) - V)) <= 1e-12 * m
    assert np.max(np.abs(compress(L) - D @ L @ Dplus)) <= 1e-12 * m
    # a stack of matrices along the middle axis compresses one by one
    stack = np.stack([L, 2.0 * L], axis=1)
    assert np.array_equal(compress(stack)[:, 1], compress(2.0 * L))


def test_project_scaled_identity():
    Lhat = compress(0.7 * np.eye(2))
    assert np.allclose(Lhat, [[0.7]], atol=1e-15)


def test_project_rank_one_is_zero():
    rng = np.random.default_rng(7)
    row = rng.random(4)
    row /= row.sum()
    L = np.tile(row, (4, 1))
    assert np.max(np.abs(compress(L))) <= 1e-12


def test_project_random_stochastic_residual():
    rng = np.random.default_rng(11)
    L = make_stochastic(rng.random((3, 3)))
    D, _ = difference_frame(3)
    Lhat = compress(L)
    assert np.max(np.abs(D @ L - Lhat @ D)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
@settings(max_examples=80, deadline=None)
def test_project_commutation_residual(seed, m):
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(m, m)) * 3.0
    # force constant row sums by adjusting the last column
    L[:, -1] += 1.5 - L.sum(axis=1)
    D, _ = difference_frame(m)
    Lhat = compress(L)
    resid = np.max(np.abs(D @ L - Lhat @ D))
    assert resid <= 1e-9 * max(1.0, matrix_norm(L))


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_project_basis_covariance_spectral_radius(seed, m):
    # the spectrum of a stochastic G is {1} plus the spectrum of Ghat, so
    # the projected spectral radius is G's second largest |eigenvalue|
    G = make_stochastic(rand_nonneg(np.random.default_rng(seed), m, density=0.8))
    second = np.sort(np.abs(np.linalg.eigvals(G)))[-2]
    assert abs(spectral_radius(compress(G)) - second) <= 1e-8


# ---------------------------------------------------------------- norms


def test_matrix_norm_examples():
    M = np.array([[1.0, -1.0], [0.0, 2.0]])
    assert matrix_norm(M) == 2.0
    assert matrix_norm_in(M, "one") == 3.0
    assert matrix_norm_in(np.eye(5), "two") == pytest.approx(1.0, abs=1e-10)
    assert matrix_norm_in(np.diag([3.0, 4.0]), "two") == pytest.approx(4.0, abs=1e-9)


def test_matrix_norm_zero_matrix():
    assert matrix_norm_in(np.zeros((3, 3)), "two") == 0.0


def test_matrix_norm_unknown_kind():
    with pytest.raises(ValueError):
        matrix_norm_in(np.eye(2), "nuclear")


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10))
@settings(max_examples=80, deadline=None)
def test_matrix_norm_two_matches_svd(seed, m):
    M = np.random.default_rng(seed).normal(size=(m, m))
    ref = np.linalg.norm(M, 2)
    assert matrix_norm_in(M, "two") == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_spectral_radius_rotation():
    # rotation by 90 degrees: eigenvalues +-i, radius 1
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert spectral_radius(R) == pytest.approx(1.0, abs=1e-12)
