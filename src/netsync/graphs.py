"""Directed graphs extracted from coupling matrices.

Orientation convention: the matrix entry G[i, j] > 0 means vertex j
influences vertex i, drawn as the edge j -> i.  Internally adj[i, j]
mirrors the matrix layout, so row i lists the in-neighbors of i.
Matrices may be dense or scipy.sparse; adjacency is always dense.
"""

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import InvalidParamsError
from .linalg import as_dense


@dataclass(frozen=True, eq=False)
class Digraph:
    m: int
    adj: np.ndarray  # bool, adj[i, j] <=> edge j -> i

    def __post_init__(self):
        adj = np.asarray(self.adj, dtype=bool)
        if adj.shape != (self.m, self.m):
            raise InvalidParamsError(
                f"adjacency shape {adj.shape} does not match m={self.m}"
            )
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, m: int, edges: Iterable[Tuple[int, int]]) -> "Digraph":
        adj = np.zeros((m, m), dtype=bool)
        for src, dst in edges:
            if not (0 <= src < m and 0 <= dst < m):
                raise InvalidParamsError(f"edge ({src},{dst}) out of range for m={m}")
            adj[dst, src] = True
        return cls(m, adj)

    def has_edge(self, src: int, dst: int) -> bool:
        return bool(self.adj[dst, src])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.m == other.m
            and np.array_equal(self.adj, other.adj)
        )

    def __hash__(self):
        return hash((self.m, self.adj.tobytes()))


def from_matrix(G, threshold: float = 0.0) -> Digraph:
    G = as_dense(G)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise InvalidParamsError(f"need a square matrix, got shape {G.shape}")
    if threshold < 0:
        raise InvalidParamsError(f"threshold must be >= 0, got {threshold}")
    return Digraph(G.shape[0], G > threshold)


def has_spanning_tree(g: Digraph) -> Optional[int]:
    """Smallest vertex from which every vertex is reachable, or None.

    A root exists iff the strongly-connected condensation has exactly
    one source component; the valid roots are exactly that component.
    """
    if g.m == 1:
        return 0
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(
        csr_matrix(g.adj), directed=True, connection="strong"
    )
    if n_comp == 1:
        return 0
    influenced, influencer = np.nonzero(g.adj)
    cross = labels[influenced] != labels[influencer]
    has_incoming = np.zeros(n_comp, dtype=bool)
    has_incoming[labels[influenced[cross]]] = True
    sources = np.flatnonzero(~has_incoming)
    if sources.size != 1:
        return None
    return int(np.flatnonzero(labels == sources[0]).min())


def is_scrambling_graph(g: Digraph) -> bool:
    """True iff every vertex pair shares an in-neighbor (self-loops count)."""
    if g.m < 2:
        return True
    B = g.adj.astype(np.float64)
    shared = B @ B.T
    offdiag = shared[~np.eye(g.m, dtype=bool)]
    return bool(np.all(offdiag > 0))
