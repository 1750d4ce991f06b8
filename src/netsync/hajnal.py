"""Hajnal diameter and the graph predicates behind the criteria.

Orientation convention: the matrix entry G[i, j] > 0 means vertex j
influences vertex i, drawn as the edge j -> i, so row i of a support
lists the in-neighbors of i.
"""

from typing import Optional

import numpy as np

from .errors import InvalidParamsError
from .linalg import CSR

SCRAMBLING_BLOCK = 2**18


def support(G):
    """The edges of G: the bool csr_array of G > 0, so G[i, j] > 0 is
    the edge j -> i, and stored zeros and negative entries are not
    edges.  G is a 2-d array, a CSR record or a scipy.sparse matrix;
    input numpy cannot read as an array, or whose entries are not bool,
    integer or float, raises InvalidParamsError."""
    from scipy.sparse import csr_array, issparse

    if isinstance(G, CSR):
        G = csr_array(G[:3], shape=G.shape)
    try:
        G = G if issparse(G) else np.asarray(G)
    except ValueError as exc:
        raise InvalidParamsError(f"expected an array or a scipy.sparse matrix: {exc}") from exc
    if G.dtype.kind not in "biuf":
        raise InvalidParamsError(f"expected a bool, integer or float support, got dtype {G.dtype}")
    if G.ndim != 2:
        raise InvalidParamsError(f"expected a 2-d array, got ndim={G.ndim}")
    return csr_array(G > 0)


def _rows(L) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    if L.ndim == 1:
        L = L[:, None]
    if L.ndim != 2 or L.shape[0] < 1:
        raise InvalidParamsError(f"need a matrix with at least one row, got {L.shape}")
    return L


def diam(L):
    """Max over row pairs of the max norm of the row difference.

    For a column vector this is the spread max_i x_i - min_i x_i, the
    state diameter.  A stacked block of shape (m, K, n) holds K matrices
    L[:, k, :] and gives the array of their K diameters.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim == 3:
        return _stacked_diam(L)
    return float(_stacked_diam(_rows(L)[:, None, :])[0])


def _stacked_diam(L: np.ndarray) -> np.ndarray:
    if L.shape[0] < 2:
        return np.zeros(L.shape[1])
    # max_{i,j} max_c |L_ic - L_jc| decomposes columnwise
    return (L.max(axis=0) - L.min(axis=0)).max(axis=1)


def is_scrambling(G) -> bool:
    """True iff every row pair shares a positively supported column.

    With S = support(G), every off-diagonal entry of S S^T is nonzero,
    exactly when the scrambling coefficient eta(G) is positive; a bool
    support's True entries, self-loops included, are the edges.  S S^T
    is formed sparse, SCRAMBLING_BLOCK entries at a time, up to the
    first pair that shares no column.
    """
    S = support(G)
    m = S.shape[0]
    degree = np.diff(S.indptr)
    # two rows with more supported columns between them than S has share one
    light = np.flatnonzero(2 * degree <= S.shape[1])
    ST = S.T.tocsr()
    rows = max(1, SCRAMBLING_BLOCK // max(m, 1))
    for i in range(0, light.size, rows):
        block = light[i : i + rows]
        stored = np.diff((S[block] @ ST).indptr)
        # the diagonal entry of a row is stored iff the row is nonempty
        if np.any(stored - (degree[block] > 0) < m - 1):
            return False
    return True


def has_spanning_tree(G) -> Optional[int]:
    """Smallest vertex from which every vertex of support(G), a square
    graph, is reachable, or None.  A root exists iff the strongly
    connected condensation has exactly one source component; the valid
    roots are exactly that component.
    """
    S = support(G)
    if S.shape[0] != S.shape[1]:
        raise InvalidParamsError(f"need a square support, got shape {S.shape}")
    m = S.shape[0]
    if m == 1:
        return 0
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(S, directed=True, connection="strong")
    if n_comp == 1:
        return 0
    influenced, influencer = S.nonzero()
    cross = labels[influenced] != labels[influencer]
    has_incoming = np.zeros(n_comp, dtype=bool)
    has_incoming[labels[influenced[cross]]] = True
    sources = np.flatnonzero(~has_incoming)
    if sources.size != 1:
        return None
    return int(np.flatnonzero(labels == sources[0]).min())
