"""Oracle tests for the dense matrix kernel.

Expected values here are either hand-checkable or verified against an
independent route (numpy SVD / eigvals) inside the test itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netsync.errors import DimensionTooSmallError, NotRowSumConstantError
from netsync.linalg import (
    compress,
    difference,
    is_stochastic,
    lift,
    matrix_norm,
    project,
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


def test_projection_basis_too_small():
    for L in (np.eye(1), np.zeros((0, 0))):
        with pytest.raises(DimensionTooSmallError):
            project(L)


def test_project_scaled_identity():
    Lhat = project(0.7 * np.eye(2))
    assert np.allclose(Lhat, [[0.7]], atol=1e-15)


def test_project_rank_one_is_zero():
    rng = np.random.default_rng(7)
    row = rng.random(4)
    row /= row.sum()
    L = np.tile(row, (4, 1))
    assert np.max(np.abs(project(L))) <= 1e-12


def test_project_random_stochastic_residual():
    rng = np.random.default_rng(11)
    L = make_stochastic(rng.random((3, 3)))
    D, _ = difference_frame(3)
    Lhat = project(L)
    assert np.max(np.abs(D @ L - Lhat @ D)) < 1e-12


def test_project_rejects_nonconstant_row_sums():
    with pytest.raises(NotRowSumConstantError):
        project(np.array([[1.0, 0.0], [3.0, 1.0]]))


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
@settings(max_examples=80, deadline=None)
def test_project_commutation_residual(seed, m):
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(m, m)) * 3.0
    # force constant row sums by adjusting the last column
    L[:, -1] += 1.5 - L.sum(axis=1)
    D, _ = difference_frame(m)
    Lhat = project(L)
    resid = np.max(np.abs(D @ L - Lhat @ D))
    assert resid <= 1e-9 * max(1.0, matrix_norm(L))


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_project_basis_covariance_spectral_radius(seed, m):
    # the spectrum of a stochastic G is {1} plus the spectrum of Ghat, so
    # the projected spectral radius is G's second largest |eigenvalue|
    G = make_stochastic(rand_nonneg(np.random.default_rng(seed), m, density=0.8))
    second = np.sort(np.abs(np.linalg.eigvals(G)))[-2]
    assert abs(spectral_radius(project(G)) - second) <= 1e-8


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
