"""Dense matrix kernel: the stochastic check, the difference frame, the norm.

Everything operates on plain numpy float arrays.  A "stochastic matrix"
is an ndarray or a scipy.sparse matrix validated by is_stochastic
(nonnegative, unit row sums within 1e-12).  The transverse frame, off
the all-ones direction, is the difference frame, applied in closed form
without forming P or its right inverse.
"""

import sys

import numpy as np

from .errors import InvalidParamsError

ROW_SUM_TOL = 1e-12


def issparse(G) -> bool:
    """scipy.sparse.issparse, without importing scipy: a sparse matrix
    can only exist once scipy.sparse has been imported."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(G)


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


# The transverse frame is the difference frame: P is the (m-1) x m
# matrix with (P X)_i = X_i - X_{i+1}, which annihilates the all-ones
# direction, and P+ is its right inverse, whose column k holds k+1
# leading ones.  Neither is formed; both act in closed form along axis 0.


def difference(X: np.ndarray) -> np.ndarray:
    """P X: differences of consecutive rows of X."""
    return X[:-1] - X[1:]


def lift(V: np.ndarray) -> np.ndarray:
    """P+ V: X[i] is the sum of V[i:], and the last row of X is zero."""
    X = np.zeros((V.shape[0] + 1,) + V.shape[1:])
    X[:-1] = np.cumsum(V[::-1], axis=0)[::-1]
    return X


def compress(L: np.ndarray) -> np.ndarray:
    """P L P+ for L of shape (m, ..., m): the row differences of L
    summed cumulatively along the last axis.  Any axes between the first
    and the last index a stack of matrices.  It is the unique Lhat with
    P L = Lhat P only when L has constant row sums, which the caller
    checks (is_stochastic); compress does not."""
    return np.cumsum(difference(L), axis=-1)[..., :-1]


def matrix_norm(M) -> float:
    """The induced infinity norm: the largest absolute row sum."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    return float(np.linalg.norm(M, np.inf)) if M.size else 0.0


def spectral_radius(M) -> float:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidParamsError(f"spectral radius needs a square matrix, got {M.shape}")
    if M.shape[0] == 0:
        return 0.0
    if M.shape[0] == 1:
        return float(abs(M[0, 0]))
    return float(np.max(np.abs(np.linalg.eigvals(M))))
