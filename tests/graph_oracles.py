"""Reference graph routines the graph and CLI tests check against: a
breadth-first spanning-tree search, the window-by-window union and the
scrambling-product lemma.  A graph is a square bool support S, where
S[i, j] is the edge j -> i."""

from functools import reduce

import numpy as np

from netsync.hajnal import has_spanning_tree, is_scrambling
from netsync.linalg import is_stochastic
from oracles import as_dense


def support(G):
    """The bool support of a dense or sparse coupling matrix."""
    return as_dense(G) > 0


def union(supports):
    """The support holding every edge of the given supports (same m)."""
    return reduce(np.logical_or, supports)


def window_has_spanning_tree(source, t0, T):
    """Whether the union of the graphs of G(t0), ..., G(t0 + T - 1) has
    a spanning tree."""
    return has_spanning_tree(union(support(source.at(t0 + k)) for k in range(T))) is not None


def spanning_tree_root_by_search(S):
    """Breadth-first reachability from each candidate root in index
    order: the smallest root, or None."""
    m = S.shape[0]
    for r in range(m):
        seen = np.zeros(m, dtype=bool)
        seen[r] = True
        frontier = [r]
        while frontier:
            nxt = []
            for v in frontier:
                for w in np.flatnonzero(S[:, v]):
                    if not seen[w]:
                        seen[w] = True
                        nxt.append(int(w))
            frontier = nxt
        if seen.all():
            return r
    return None


def scrambling_product_check(matrices):
    """The scrambling-product lemma on one instance: m-1 stochastic
    matrices, each with positive diagonal and a spanning tree, have a
    scrambling left product G(m-2)...G(1)G(0).  The preconditions are
    asserted; the result says whether the product is scrambling."""
    m = matrices[0].shape[0]
    assert len(matrices) == m - 1
    for G in matrices:
        assert is_stochastic(G, tol=1e-9) and np.min(np.diag(G)) > 0
        assert has_spanning_tree(G) is not None
    return is_scrambling(reduce(lambda prod, G: G @ prod, matrices))
