"""Hajnal diameter and the graph predicates behind the criteria.

Orientation convention: the matrix entry G[i, j] > 0 means vertex j
influences vertex i, drawn as the edge j -> i, so row i of a support
lists the in-neighbors of i.
"""

from typing import Optional

import numpy as np

from .errors import InvalidParamsError

# entries at or below this count as zero when testing scramblingness,
# matching the row-normalization tolerance
POSITIVITY_THRESHOLD = 1e-12

SCRAMBLING_BLOCK = 2**18


def _matrix(G):
    """G as is when it is a scipy.sparse matrix, else as an ndarray;
    raises InvalidParamsError where numpy cannot read G as an array or
    its entries are not bool, integer or float."""
    from scipy.sparse import issparse

    try:
        G = G if issparse(G) else np.asarray(G)
    except ValueError as exc:
        raise InvalidParamsError(f"expected an array or a scipy.sparse matrix: {exc}") from exc
    if G.dtype.kind not in "biuf":
        raise InvalidParamsError(f"expected a bool, integer or float support, got dtype {G.dtype}")
    return G


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

    With S = G > POSITIVITY_THRESHOLD, every off-diagonal entry of
    S S^T is nonzero, exactly when the scrambling coefficient eta(G) is
    positive.  G is an ndarray or a scipy.sparse matrix.  A bool
    support is read as is: its True entries, self-loops included, are
    the edges.  S S^T is formed sparse, SCRAMBLING_BLOCK entries at a
    time, up to the first pair that shares no column.
    """
    G = _matrix(G)
    if G.ndim != 2:
        raise InvalidParamsError(f"expected a 2-d array, got ndim={G.ndim}")
    from scipy.sparse import csr_array

    S = csr_array(G > POSITIVITY_THRESHOLD)
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


def has_spanning_tree(S) -> Optional[int]:
    """Smallest vertex from which every vertex is reachable, or None.

    S is a square support: a bool or float ndarray or a scipy.sparse
    matrix, where a nonzero S[i, j] is the edge j -> i and explicitly
    stored zeros are not edges.  A root exists iff the strongly
    connected condensation has exactly one source component; the valid
    roots are exactly that component.
    """
    S = _matrix(S)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidParamsError(f"need a square support, got shape {S.shape}")
    m = S.shape[0]
    if m == 1:
        return 0
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    influenced, influencer = S.nonzero()
    graph = csr_array(
        (np.ones(influenced.size, dtype=bool), (influenced, influencer)), shape=(m, m)
    )
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    if n_comp == 1:
        return 0
    cross = labels[influenced] != labels[influencer]
    has_incoming = np.zeros(n_comp, dtype=bool)
    has_incoming[labels[influenced[cross]]] = True
    sources = np.flatnonzero(~has_incoming)
    if sources.size != 1:
        return None
    return int(np.flatnonzero(labels == sources[0]).min())
