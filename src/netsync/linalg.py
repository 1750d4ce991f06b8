"""Matrix kernel: the stochastic check, the CSR record, the difference
frame, the norm.

Everything operates on plain numpy float arrays.  A "stochastic matrix"
is an ndarray or a CSR record validated by is_stochastic (nonnegative,
unit row sums within 1e-12).  The CSR record multiplies with scipy's
compiled CSR kernels, loaded without scipy.sparse or scipy's __init__.
The transverse frame, off the all-ones direction, is the difference
frame, applied in closed form without forming P or its right inverse.
"""

import importlib.machinery
import importlib.util
import os
import sys
from typing import NamedTuple

import numpy as np

from .errors import InvalidParamsError

ROW_SUM_TOL = 1e-12

SPARSETOOLS = "scipy.sparse._sparsetools"


def sparsetools():
    """scipy's compiled CSR kernels, the extension scipy.sparse itself
    imports.  Loaded on first use from its file in scipy's directory,
    which importlib finds without running scipy's __init__, and
    registered under its own name, so that a later `import scipy.sparse`
    reuses the same module; importing scipy.sparse would also load
    scipy's array-API shim, which costs most of that import.  Where the
    file is not found, or loading it raises ImportError (on some
    platforms scipy's __init__ is what makes its libraries loadable), it
    comes through scipy.sparse."""
    module = sys.modules.get(SPARSETOOLS)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            SPARSETOOLS, [os.path.join(d, "sparse") for d in scipy.submodule_search_locations]
        )
        try:
            if not spec:
                raise ImportError(f"no {SPARSETOOLS} file in scipy's directory")
            module = importlib.util.module_from_spec(spec)
            sys.modules[SPARSETOOLS] = module
            spec.loader.exec_module(module)
        except ImportError:
            sys.modules.pop(SPARSETOOLS, None)
            from scipy.sparse import _sparsetools as module
    return module


class CSR(NamedTuple):
    """A square m x m matrix in compressed sparse row form: row i holds
    data[indptr[i]:indptr[i+1]] in the columns indices[indptr[i]:indptr[i+1]].

    `G @ X` for a real X of m rows runs scipy's own csr_matvec (X of one
    column) or csr_matvecs (any wider X) exactly as scipy's csr_array
    dispatches them, so the products are its products bit for bit.  The
    kernels trust the structure: index arrays of one integer dtype, a
    nondecreasing indptr of m + 1 entries from 0 to len(data), and every
    index in [0, m), which sources._validated checks before a record is
    used.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    m: int

    @property
    def shape(self):
        return (self.m, self.m)

    def __matmul__(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim not in (1, 2) or X.shape[0] != self.m:
            raise ValueError(f"matmul: dimension mismatch, {self.shape} @ {X.shape}")
        out = np.zeros(X.shape)
        # ravel copies a non-contiguous X into C order and views a contiguous one
        if X.ndim == 1 or X.shape[1] == 1:
            sparsetools().csr_matvec(
                self.m, self.m, self.indptr, self.indices, self.data, X.ravel(), out.ravel())
        else:
            sparsetools().csr_matvecs(
                self.m, self.m, X.shape[1], self.indptr, self.indices, self.data,
                X.ravel(), out.ravel())
        return out

    def toarray(self) -> np.ndarray:
        """The dense matrix, through scipy's own csr_todense."""
        out = np.zeros(self.shape)
        sparsetools().csr_todense(self.m, self.m, self.indptr, self.indices, self.data, out)
        return out


def is_stochastic(G, tol: float = ROW_SUM_TOL) -> bool:
    """Square and nonempty, finite, entries >= -tol and row sums within
    tol of 1.

    A CSR record is checked on its stored entries, in O(nnz).  Its
    nonempty rows are summed by np.add.reduceat over the stored entries,
    the reduction scipy runs for a csr_array's row sums, so a verdict
    does not depend on which of the two holds the matrix.  Input numpy
    cannot read as a float matrix raises InvalidParamsError.
    """
    sparse = isinstance(G, CSR)
    if not sparse:
        try:
            G = np.asarray(G, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidParamsError(f"{type(G).__name__} is not a float matrix: {exc}") from exc
    if len(G.shape) != 2 or G.shape[0] != G.shape[1] or not G.shape[0]:
        return False
    entries = G.data if sparse else G
    if entries.size and (not np.all(np.isfinite(entries)) or np.min(entries) < -tol):
        return False
    if sparse:
        sums = np.zeros(G.shape[0])
        rows = np.flatnonzero(np.diff(G.indptr))
        if rows.size:
            sums[rows] = np.add.reduceat(entries, G.indptr[rows])
    else:
        sums = G.sum(axis=1)
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
