"""Dense matrix kernel: row normalization, skew projection, norms.

Everything operates on plain numpy float arrays.  A "stochastic matrix"
is an ndarray or a scipy.sparse matrix validated by is_stochastic
(nonnegative, unit row sums within 1e-12); dense-only readers take it
through as_dense.  A projection basis is a small frozen dataclass
pairing P with a precomputed right inverse.
"""

import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    InvalidParamsError,
    NegativeEntryError,
    NotRowSumConstantError,
    UnknownParameterError,
    ZeroRowError,
)

ROW_SUM_TOL = 1e-12
PROJECT_ROW_SUM_TOL = 1e-9


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidParamsError(f"expected a 2-d array, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise InvalidParamsError("matrix has non-finite entries")
    return A


def issparse(G) -> bool:
    """scipy.sparse.issparse, without importing scipy: a sparse matrix
    can only exist once scipy.sparse has been imported."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(G)


def as_dense(G) -> np.ndarray:
    """G as a float ndarray; a scipy.sparse matrix is densified."""
    return np.asarray(G.toarray() if issparse(G) else G, dtype=float)


def is_stochastic(G, tol: float = ROW_SUM_TOL) -> bool:
    """Square, finite, entries >= -tol and row sums within tol of 1.

    A scipy.sparse matrix is checked on its stored entries, in O(nnz).
    """
    if issparse(G):
        entries = G.data
    else:
        G = entries = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        return False
    if entries.size and (not np.all(np.isfinite(entries)) or np.min(entries) < -tol):
        return False
    sums = np.asarray(G.sum(axis=1)).ravel()
    return bool(np.max(np.abs(sums - 1.0)) <= tol)


def make_stochastic(raw) -> np.ndarray:
    """Row-normalize a nonnegative square matrix.

    Returns the input (copied) untouched when it already satisfies the
    stochastic invariants, which makes the operation exactly idempotent.
    """
    A = _as_matrix(raw)
    if A.shape[0] != A.shape[1]:
        raise InvalidParamsError(f"matrix must be square, got shape {A.shape}")
    neg = np.argwhere(A < 0)
    if neg.size:
        i, j = map(int, neg[0])
        raise NegativeEntryError(i, j, float(A[i, j]))
    if is_stochastic(A):
        return A.copy()
    sums = A.sum(axis=1)
    zero = np.flatnonzero(sums == 0)
    if zero.size:
        raise ZeroRowError(int(zero[0]))
    return A / sums[:, None]


@dataclass(frozen=True)
class ProjectionBasis:
    """A rank m-1 matrix P annihilating the all-ones direction, plus a
    right inverse Pplus with P @ Pplus = I."""

    m: int
    kind: str
    P: np.ndarray
    Pplus: np.ndarray


def projection_basis(m: int, kind: str = "difference") -> ProjectionBasis:
    if m < 2:
        raise DimensionTooSmallError(f"need m >= 2, got {m}")
    D = np.zeros((m - 1, m))
    idx = np.arange(m - 1)
    D[idx, idx] = 1.0
    D[idx, idx + 1] = -1.0
    if kind == "difference":
        # right inverse in closed form: column k is the cumulative
        # indicator (1,...,1,0,...,0) with k+1 leading ones
        Pplus = np.triu(np.ones((m, m - 1)))
        return ProjectionBasis(m, kind, D, Pplus)
    if kind == "orthonormal":
        Q, R = np.linalg.qr(D.T)
        Q = Q * np.sign(np.diag(R))
        P = Q.T
        return ProjectionBasis(m, kind, P, P.T.copy())
    raise UnknownParameterError(f"unknown basis kind {kind!r}")


def project(L, basis: ProjectionBasis) -> np.ndarray:
    """Compress L to the (m-1)-dimensional complement of the all-ones
    direction: the unique Lhat with P L = Lhat P, valid whenever L has
    constant row sums."""
    L = _as_matrix(L)
    m = basis.m
    if L.shape != (m, m):
        raise DimensionMismatchError(f"expected shape ({m},{m}), got {L.shape}")
    sums = L.sum(axis=1)
    spread = float(sums.max() - sums.min())
    scale = max(1.0, float(np.max(np.abs(L).sum(axis=1))))
    if spread > PROJECT_ROW_SUM_TOL * scale:
        raise NotRowSumConstantError(
            f"row sums vary by {spread:.3e} (tol {PROJECT_ROW_SUM_TOL:.0e} x {scale:.3e})"
        )
    return basis.P @ L @ basis.Pplus


_NORM_ORD = {"inf": np.inf, "one": 1, "two": 2}


def norm_ord(kind: str):
    """numpy `ord` of the induced matrix norm named kind."""
    try:
        return _NORM_ORD[kind]
    except KeyError:
        raise UnknownParameterError(f"unknown norm kind {kind!r}") from None


def matrix_norm(M, kind: str = "inf") -> float:
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    order = norm_ord(kind)
    return float(np.linalg.norm(M, order)) if M.size else 0.0


def spectral_radius(M) -> float:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidParamsError(f"spectral radius needs a square matrix, got {M.shape}")
    if M.shape[0] == 0:
        return 0.0
    if M.shape[0] == 1:
        return float(abs(M[0, 0]))
    return float(np.max(np.abs(np.linalg.eigvals(M))))
