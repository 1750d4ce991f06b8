"""Reference graph routines the graph and CLI tests check against: a
breadth-first spanning-tree search, the window-by-window union and the
scrambling-product lemma."""

from functools import reduce

import numpy as np

from netsync.graphs import Digraph, from_matrix, has_spanning_tree
from netsync.hajnal import is_scrambling
from netsync.linalg import is_stochastic


def union(graphs):
    """The digraph holding every edge of the given graphs (same m)."""
    graphs = list(graphs)
    return Digraph(graphs[0].m, reduce(np.logical_or, (g.adj for g in graphs)))


def window_has_spanning_tree(source, t0, T):
    """Whether the union of the graphs of G(t0), ..., G(t0 + T - 1) has
    a spanning tree."""
    graphs = [from_matrix(source.at(t0 + k)) for k in range(T)]
    return has_spanning_tree(union(graphs)) is not None


def spanning_tree_root_by_search(g):
    """Breadth-first reachability from each candidate root in index
    order: the smallest root, or None."""
    m = g.m
    for r in range(m):
        seen = np.zeros(m, dtype=bool)
        seen[r] = True
        frontier = [r]
        while frontier:
            nxt = []
            for v in frontier:
                for w in np.flatnonzero(g.adj[:, v]):
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
        assert has_spanning_tree(from_matrix(G)) is not None
    return is_scrambling(reduce(lambda prod, G: G @ prod, matrices))
