"""Reference graph routines the graph and CLI tests check against: a
breadth-first spanning-tree search and the window-by-window union."""

from functools import reduce

import numpy as np

from netsync.graphs import Digraph, from_matrix, has_spanning_tree


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
