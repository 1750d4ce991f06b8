"""Oracle tests for the dense matrix kernel.

Expected values here are either hand-checkable or verified against an
independent route (numpy SVD / eigvals) inside the test itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netsync.errors import (
    DimensionTooSmallError,
    NegativeEntryError,
    NotRowSumConstantError,
    ZeroRowError,
)
from netsync.linalg import (
    is_stochastic,
    make_stochastic,
    matrix_norm,
    project,
    projection_basis,
    spectral_radius,
)

SQ2 = np.sqrt(2.0)


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


def test_projection_basis_difference_m2():
    b = projection_basis(2, "difference")
    assert np.array_equal(b.P, np.array([[1.0, -1.0]]))
    assert np.array_equal(b.P @ b.Pplus, np.eye(1))


def test_projection_basis_difference_m3():
    b = projection_basis(3, "difference")
    assert np.array_equal(b.P, np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]))
    assert np.array_equal(b.P @ b.Pplus, np.eye(2))
    assert np.array_equal(b.P @ np.ones(3), np.zeros(2))


def test_projection_basis_orthonormal_m2():
    b = projection_basis(2, "orthonormal")
    assert np.allclose(b.P, [[1 / SQ2, -1 / SQ2]], atol=1e-15)
    assert np.array_equal(b.Pplus, b.P.T)


@given(m=st.integers(2, 12), kind=st.sampled_from(["difference", "orthonormal"]))
@settings(max_examples=40, deadline=None)
def test_projection_basis_invariants(m, kind):
    b = projection_basis(m, kind)
    assert b.P.shape == (m - 1, m)
    assert b.Pplus.shape == (m, m - 1)
    assert np.max(np.abs(b.P @ np.ones(m))) <= 1e-12
    assert np.max(np.abs(b.P @ b.Pplus - np.eye(m - 1))) <= 1e-12
    assert np.linalg.matrix_rank(b.P) == m - 1


def test_projection_basis_too_small():
    with pytest.raises(DimensionTooSmallError):
        projection_basis(1, "difference")


def test_projection_basis_unknown_kind():
    with pytest.raises(ValueError):
        projection_basis(3, "fourier")


def test_project_scaled_identity():
    b = projection_basis(2, "difference")
    Lhat = project(0.7 * np.eye(2), b)
    assert np.allclose(Lhat, [[0.7]], atol=1e-15)


def test_project_rank_one_is_zero():
    rng = np.random.default_rng(7)
    row = rng.random(4)
    row /= row.sum()
    L = np.tile(row, (4, 1))
    for kind in ("difference", "orthonormal"):
        Lhat = project(L, projection_basis(4, kind))
        assert np.max(np.abs(Lhat)) <= 1e-12


def test_project_random_stochastic_residual():
    rng = np.random.default_rng(11)
    L = make_stochastic(rng.random((3, 3)))
    b = projection_basis(3, "difference")
    Lhat = project(L, b)
    assert np.max(np.abs(b.P @ L - Lhat @ b.P)) < 1e-12


def test_project_rejects_nonconstant_row_sums():
    with pytest.raises(NotRowSumConstantError):
        project(np.array([[1.0, 0.0], [3.0, 1.0]]), projection_basis(2, "difference"))


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 8),
    kind=st.sampled_from(["difference", "orthonormal"]),
)
@settings(max_examples=80, deadline=None)
def test_project_commutation_residual(seed, m, kind):
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(m, m)) * 3.0
    # force constant row sums by adjusting the last column
    L[:, -1] += 1.5 - L.sum(axis=1)
    b = projection_basis(m, kind)
    Lhat = project(L, b)
    resid = np.max(np.abs(b.P @ L - Lhat @ b.P))
    assert resid <= 1e-9 * max(1.0, matrix_norm(L, "inf"))


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_project_basis_covariance_spectral_radius(seed, m):
    G = make_stochastic(rand_nonneg(np.random.default_rng(seed), m, density=0.8))
    r1 = spectral_radius(project(G, projection_basis(m, "difference")))
    r2 = spectral_radius(project(G, projection_basis(m, "orthonormal")))
    assert abs(r1 - r2) <= 1e-8


# ---------------------------------------------------------------- norms


def test_matrix_norm_examples():
    M = np.array([[1.0, -1.0], [0.0, 2.0]])
    assert matrix_norm(M, "inf") == 2.0
    assert matrix_norm(M, "one") == 3.0
    assert matrix_norm(np.eye(5), "two") == pytest.approx(1.0, abs=1e-10)
    assert matrix_norm(np.diag([3.0, 4.0]), "two") == pytest.approx(4.0, abs=1e-9)


def test_matrix_norm_zero_matrix():
    assert matrix_norm(np.zeros((3, 3)), "two") == 0.0


def test_matrix_norm_unknown_kind():
    with pytest.raises(ValueError):
        matrix_norm(np.eye(2), "nuclear")


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10))
@settings(max_examples=80, deadline=None)
def test_matrix_norm_two_matches_svd(seed, m):
    M = np.random.default_rng(seed).normal(size=(m, m))
    ref = np.linalg.norm(M, 2)
    assert matrix_norm(M, "two") == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_spectral_radius_rotation():
    # rotation by 90 degrees: eigenvalues +-i, radius 1
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert spectral_radius(R) == pytest.approx(1.0, abs=1e-12)
