"""Oracle tests for coupling supports, unions, spanning trees, scrambling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array

from graph_oracles import (
    scrambling_product_check,
    spanning_tree_root_by_search,
    union,
    window_has_spanning_tree,
)
from netsync.errors import InvalidParamsError
from netsync.cli import _union_tables
from netsync.hajnal import has_spanning_tree, is_scrambling
from netsync.linalg import CSR
from netsync.processes import BlinkingProcess
from netsync.sources import PeriodicSource, StaticSource
from oracles import eta, make_stochastic


def edges_graph(m, edges):
    """The bool support holding the edges src -> dst."""
    S = np.zeros((m, m), dtype=bool)
    for src, dst in edges:
        S[dst, src] = True
    return S


def rand_digraph(rng, m, density):
    return rng.random((m, m)) < density


# ------------------------------------------------------ reading a matrix


def test_from_matrix_identity():
    # only self-loops: no vertex reaches another, in any input form
    for S in (np.eye(3), np.eye(3, dtype=bool), csr_array(np.eye(3))):
        assert has_spanning_tree(S) is None
        assert not is_scrambling(S)


def test_from_matrix_all_positive_complete():
    G = np.full((3, 3), 1.0 / 3.0)
    assert has_spanning_tree(G) == 0
    assert has_spanning_tree(csr_array(G)) == 0
    assert is_scrambling(G) and is_scrambling(csr_array(G))


def test_from_matrix_orientation():
    # G_01 > 0 means an edge from vertex 1 into vertex 0, so only vertex
    # 1 reaches every vertex; the transpose reverses the edge
    G = np.array([[0.5, 0.5], [0.0, 1.0]])
    assert has_spanning_tree(G) == 1
    assert has_spanning_tree(G.T) == 0
    assert has_spanning_tree(csr_array(G)) == 1


@pytest.mark.parametrize("entry", [-1e-13, 0.0, 5e-13, 0.3])
def test_predicates_and_check_agree_on_an_edge(entry):
    # G[1, 0] is the edge 0 -> 1 and nothing enters 0, so that edge is at
    # once a spanning tree rooted at 0 and a column rows 0 and 1 share
    G = np.array([[1.0, 0.0], [entry, 1.0 - entry]])
    edge = entry > 0
    # every entry stored, the zeros included
    record = CSR(G.ravel(), np.array([0, 1, 0, 1], dtype=np.int32),
                 np.array([0, 2, 4], dtype=np.int32), 2)
    for S in (G, record, csr_array(record[:3], shape=record.shape)):
        assert has_spanning_tree(S) == (0 if edge else None)
        assert is_scrambling(S) == edge
    for source in (StaticSource(G), StaticSource(record)):
        (table, tree_T), = _union_tables(source, [0], 4).values()
        assert bool(table[1, 0]) == edge
        assert (tree_T is not None) == edge


def test_spanning_tree_sparse_stored_zeros_are_not_edges():
    # the edge 0 -> 1 is stored explicitly with value zero
    S = csr_array((np.array([1.0, 0.0, 1.0]), (np.array([0, 1, 1]), np.array([0, 0, 1]))))
    assert S.nnz == 3
    assert has_spanning_tree(S) is None
    S.data[1] = 0.5
    assert has_spanning_tree(S) == 0


# ---------------------------------------------------------------- union


def test_union_idempotent():
    g = edges_graph(3, [(0, 1), (1, 2)])
    assert np.array_equal(union([g, g]), g)


def test_union_merges_edges():
    a = edges_graph(2, [(0, 1)])
    b = edges_graph(2, [(1, 0)])
    u = union([a, b])
    assert u[1, 0] and u[0, 1]


# ---------------------------------------------------------------- spanning tree


def test_spanning_tree_out_star():
    g = edges_graph(3, [(0, 1), (0, 2)])
    assert has_spanning_tree(g) == 0


def test_spanning_tree_isolated_vertices():
    assert has_spanning_tree(edges_graph(2, [])) is None


def test_spanning_tree_cycle_smallest_root():
    g = edges_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert has_spanning_tree(g) == 0


def test_spanning_tree_chain_and_reverse():
    assert has_spanning_tree(edges_graph(3, [(0, 1), (1, 2)])) == 0
    assert has_spanning_tree(edges_graph(3, [(1, 0), (2, 1)])) == 2


def test_spanning_tree_single_vertex():
    assert has_spanning_tree(edges_graph(1, [])) == 0


def test_spanning_tree_self_loops_neutral():
    g = edges_graph(2, [(0, 0), (1, 1)])
    assert has_spanning_tree(g) is None


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10), density=st.floats(0.0, 0.6))
@settings(max_examples=150, deadline=None)
def test_spanning_tree_two_algorithms_agree(seed, m, density):
    g = rand_digraph(np.random.default_rng(seed), m, density)
    root = spanning_tree_root_by_search(g)
    assert has_spanning_tree(g) == root
    assert has_spanning_tree(g.astype(float)) == has_spanning_tree(csr_array(g)) == root


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
@settings(max_examples=80, deadline=None)
def test_spanning_tree_monotone_under_edge_addition(seed, m):
    rng = np.random.default_rng(seed)
    # start from a guaranteed chain so a root exists
    order = rng.permutation(m)
    edges = [(int(order[k]), int(order[k + 1])) for k in range(m - 1)]
    g = edges_graph(m, edges)
    assert has_spanning_tree(g) is not None
    extra = rand_digraph(rng, m, 0.3)
    assert has_spanning_tree(union([g, extra])) is not None


# ---------------------------------------------------------------- scrambling


# each support is also read as a csr_array of the same entries


def test_scrambling_graph_all_positive():
    g = np.ones((4, 4), dtype=bool)
    assert is_scrambling(g) and is_scrambling(csr_array(g))


def test_scrambling_graph_identity_false():
    g = np.eye(3, dtype=bool)
    assert not is_scrambling(g) and not is_scrambling(csr_array(g))


def test_scrambling_graph_positive_column():
    G = make_stochastic(np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    assert is_scrambling(G > 0) and is_scrambling(csr_array(G > 0))


def test_scrambling_graph_self_loop_counts():
    # pair (0,1): vertex 0 feeds both (self-loop plus edge 0->1)
    g = edges_graph(2, [(0, 0), (0, 1), (1, 1)])
    assert is_scrambling(g) and is_scrambling(csr_array(g))


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 8),
    density=st.floats(0.05, 0.6),
)
@settings(max_examples=150, deadline=None)
def test_scrambling_graph_matches_eta_route(seed, m, density):
    # entries on both sides of 0, negative dust included, so the support
    # product and eta must draw the same line
    rng = np.random.default_rng(seed)
    levels = np.array([-1e-13, -1e-16, 0.0, 1e-16, 1e-13, 0.3, 1.0])
    G = levels[rng.integers(0, levels.size, (m, m))] * (rng.random((m, m)) < density)
    assert is_scrambling(G) == (eta(G) > 0.0)
    assert is_scrambling(G) == is_scrambling(G > 0)
    # negative entries are stored, and still not edges
    assert is_scrambling(G) == is_scrambling(csr_array(G))


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), density=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_scrambling_support_has_a_spanning_tree(seed, m, density):
    # `check` tests scrambling only where the pass found a tree: two
    # source components would share an in-neighbour, lying in both
    S = rand_digraph(np.random.default_rng(seed), m, density)
    if is_scrambling(S):
        assert has_spanning_tree(S) is not None


# ---------------------------------------------------------------- windows


def alternation_source():
    # period two: edge 0->1 only, then edge 1->2 only (self-loops kept)
    A = make_stochastic(np.array([[1.0, 0, 0], [1.0, 1.0, 0], [0, 0, 1.0]]))
    B = make_stochastic(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 1.0, 1.0]]))
    return PeriodicSource([A, B])


def test_window_alternation():
    src = alternation_source()
    assert window_has_spanning_tree(src, 0, 2)
    assert window_has_spanning_tree(src, 1, 2)
    assert not window_has_spanning_tree(src, 0, 1)
    assert not window_has_spanning_tree(src, 1, 1)


def test_window_static_connected():
    G = make_stochastic(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert window_has_spanning_tree(StaticSource(G), 5, 1)


def test_window_identity_never():
    src = StaticSource(np.eye(3))
    for t0 in range(3):
        assert not window_has_spanning_tree(src, t0, 4)


# ---------------------------------------------------------------- product check


def test_scrambling_product_single_matrix_m2():
    G = np.array([[0.5, 0.5], [0.3, 0.7]])
    assert scrambling_product_check([G]) is True


def rand_precondition_instance(rng, m):
    """Random stochastic matrix with positive diagonal and a spanning tree."""
    A = np.eye(m) * rng.uniform(0.2, 1.0)
    order = rng.permutation(m)
    for k in range(m - 1):
        A[order[k + 1], order[k]] = rng.uniform(0.2, 1.0)
    A += (rng.random((m, m)) < 0.3) * rng.random((m, m))
    return make_stochastic(A)


def test_scrambling_product_randomized_lemma_check():
    rng = np.random.default_rng(1729)
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        mats = [rand_precondition_instance(rng, m) for _ in range(m - 1)]
        assert scrambling_product_check(mats) is True


def test_predicates_read_a_blinking_record_as_its_csr_array_twin():
    proc = BlinkingProcess.from_params(m=12, avg_degree=8, p=0.02, t_rec=2, seed=3)
    answers = set()
    for _ in range(40):
        G = proc.step()
        twin = csr_array(G[:3], shape=G.shape)
        answer = (is_scrambling(twin), has_spanning_tree(twin))
        assert answer == (is_scrambling(G), has_spanning_tree(G))
        assert answer == (is_scrambling(G.toarray()), has_spanning_tree(G.toarray()))
        answers.add(answer[0])
    assert answers == {True, False}


@pytest.mark.parametrize("S", [
    pytest.param([[1.0], [0.5, 0.5]], id="ragged"),
    pytest.param(CSR(np.ones(2), np.arange(2, dtype=np.int32), np.arange(3, dtype=np.int32), 2),
                 id="record"),
])
def test_predicates_reject_what_numpy_cannot_read_typed(S):
    if isinstance(S, CSR):
        # a record is not read by numpy but as its dense array: the identity
        verdicts = (is_scrambling(S), has_spanning_tree(S))
        assert verdicts == (is_scrambling(S.toarray()), has_spanning_tree(S.toarray()))
        assert verdicts == (False, None)
        return
    with pytest.raises(InvalidParamsError):
        is_scrambling(S)
    with pytest.raises(InvalidParamsError):
        has_spanning_tree(S)


@pytest.mark.parametrize("S", [
    pytest.param([["a", "b"], ["c", "d"]], id="strings"),
    pytest.param(np.eye(2).astype(object), id="object"),
])
def test_predicates_reject_a_non_numeric_support_typed(S):
    with pytest.raises(InvalidParamsError, match="dtype"):
        is_scrambling(S)
    with pytest.raises(InvalidParamsError, match="dtype"):
        has_spanning_tree(S)
