"""Oracle tests for joint-spectral-radius bounds.

brute_force_jsr is the independent oracle for gripenberg; soundness
properties (lower certified by witness, brute force below upper) hold
even on runs stopped by depth or node budgets.  scipy's linprog checks
the invariant polytope's closed-form gauge independently.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from netsync.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EmptySetError,
    InvalidParamsError,
)
from netsync import jsr
from netsync.jsr import (
    JsrBounds,
    _balanced,
    _invariant_polytope,
    brute_force_jsr,
    gripenberg,
)
from netsync.linalg import make_stochastic, project, spectral_radius


def word_product(mats, word):
    P = mats[word[0]]
    for a in word[1:]:
        P = mats[a] @ P
    return P


def stochastic_with_tree(rng, m):
    A = np.eye(m) * rng.uniform(0.3, 1.0)
    order = rng.permutation(m)
    for k in range(m - 1):
        A[order[k + 1], order[k]] = rng.uniform(0.3, 1.0)
    A += (rng.random((m, m)) < 0.4) * rng.random((m, m))
    return make_stochastic(A)


def projected_set(mats):
    return [project(G) for G in mats]


# ---------------------------------------------------------------- gripenberg


def test_singleton_scalar_exact():
    res = gripenberg([np.array([[0.5]])])
    assert (res.lower, res.upper) == (0.5, 0.5)
    assert res.converged
    assert res.witness == (0,)


def test_two_projections_of_rank_one_directions():
    res = gripenberg([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert res.lower == pytest.approx(1.0, abs=1e-12)
    assert res.upper == pytest.approx(1.0, abs=1e-12)
    assert res.converged


def test_identity_member_pins_lower_at_one():
    rng = np.random.default_rng(2)
    G = make_stochastic(rng.random((3, 3)) + 0.2)
    mats = projected_set([np.eye(3), G])
    res = gripenberg(mats, tol=1e-4)
    assert res.lower == pytest.approx(1.0, abs=1e-12)
    assert len(res.witness) == 1
    assert res.upper >= res.lower


def test_witness_certifies_lower():
    rng = np.random.default_rng(6)
    mats = projected_set([stochastic_with_tree(rng, 3) for _ in range(2)])
    res = gripenberg(mats, tol=1e-4)
    w = res.witness
    cert = spectral_radius(word_product(mats, w)) ** (1.0 / len(w))
    assert cert == pytest.approx(res.lower, rel=1e-12)


def test_projected_tree_pair_brackets_brute_force():
    rng = np.random.default_rng(33)
    mats = projected_set([stochastic_with_tree(rng, 3) for _ in range(2)])
    res = gripenberg(mats, tol=1e-4, max_len=12)
    brute = brute_force_jsr(mats, max_len=12)
    assert res.lower <= brute + 1e-12
    assert brute <= res.upper + 1e-12
    assert res.upper < 1.0


def test_gripenberg_gap_on_success():
    rng = np.random.default_rng(12)
    mats = projected_set([stochastic_with_tree(rng, 3) for _ in range(2)])
    res = gripenberg(mats, tol=1e-3)
    if res.converged:
        assert res.upper - res.lower <= 1e-3 + 1e-12
    assert res.node_count > 0 and res.depth_reached >= 1


def test_gripenberg_unconverged_still_sound():
    # a tiny node budget forces an early stop; bounds must still bracket
    rng = np.random.default_rng(40)
    mats = projected_set([stochastic_with_tree(rng, 4) for _ in range(3)])
    res = gripenberg(mats, tol=1e-9, max_len=6, max_nodes=20)
    assert not res.converged
    brute = brute_force_jsr(mats, max_len=8)
    assert brute <= res.upper + 1e-12
    assert res.lower <= res.upper


def test_gripenberg_validates_inputs():
    with pytest.raises(EmptySetError):
        gripenberg([])
    with pytest.raises(DimensionMismatchError):
        gripenberg([np.eye(2), np.eye(3)])
    with pytest.raises(InvalidParamsError):
        gripenberg([np.eye(2)], tol=0.0)


def test_gripenberg_balancing_changes_nothing_semantically(monkeypatch):
    # a 3x3 set reaches the search, which balances it; the diagonal
    # similarity gives balancing something to undo
    rng = np.random.default_rng(40)
    mats = projected_set([stochastic_with_tree(rng, 4) for _ in range(3)])
    d = np.array([1.0, 30.0, 0.05])
    mats = [(M * d[None, :]) / d[:, None] for M in mats]
    assert any(not np.array_equal(B, M) for B, M in zip(_balanced(mats), mats))
    a = gripenberg(mats, tol=1e-4, max_nodes=2000)
    monkeypatch.setattr(jsr, "_balanced", lambda mats: mats)
    b = gripenberg(mats, tol=1e-4, max_nodes=2000)
    assert a.certificate == b.certificate == "search"
    # both must bracket the same JSR
    assert max(a.lower, b.lower) <= min(a.upper, b.upper) + 1e-9


# ------------------------------------------------------ polytope certificate


def test_projected_tree_pair_certified_by_polytope():
    rng = np.random.default_rng(77)
    mats = projected_set([stochastic_with_tree(rng, 3) for _ in range(2)])
    res = gripenberg(mats, tol=1e-4)
    assert res.certificate == "polytope" and res.vertex_count >= 2
    assert res.converged
    assert res.upper - res.lower <= 1e-12 * res.lower
    assert brute_force_jsr(mats, max_len=12) <= res.upper * (1 + 1e-12)


def test_reducible_pair_falls_back_to_search():
    # upper triangular: both members keep the line spanned by e1, which
    # also carries the witness's leading eigenvector, so the polytope
    # closes on that line alone; a segment is no norm
    mats = [np.array([[0.9, 0.2], [0.0, 0.3]]), np.array([[0.5, 0.1], [0.0, 0.4]])]
    res = gripenberg(mats, tol=1e-4)
    assert res.witness == (0,)
    assert _invariant_polytope(mats, res.witness) is None
    assert res.certificate == "search" and res.vertex_count == 0
    assert brute_force_jsr(mats, max_len=12) <= res.upper


def test_complex_witness_reaches_adaptive_rounds(monkeypatch):
    # a scaled rotation dominates: its leading eigenvalues are a complex
    # pair, so only the search and its adapted norms can close the gap
    th = 0.9
    R = 0.8 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    mats = [R, np.array([[0.3, 0.1], [0.2, 0.1]])]
    targets = []
    adapted = jsr._adapted_set

    def spy(work, word):
        targets.append(word)
        return adapted(work, word)

    monkeypatch.setattr(jsr, "_adapted_set", spy)
    res = gripenberg(mats, tol=1e-4)
    assert targets
    assert res.certificate == "search"
    assert res.lower == pytest.approx(0.8, rel=1e-12)
    assert brute_force_jsr(mats, max_len=12) <= res.upper


def test_overflowing_witness_pass_falls_back_to_balanced_search():
    # unbalanced, the witness pass overflows on its second product;
    # balancing makes the set tractable, as it did before the polytope
    mats = [np.array([[1e150, 1e-150], [1e-150, 1.0]]),
            np.array([[0.5, 1e200], [0.0, 0.1]])]
    res = gripenberg(mats, max_nodes=500)
    assert res.certificate == "search"
    assert res.witness == (0,) and res.lower == res.upper == 1e150


@st.composite
def two_by_two_sets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return projected_set([stochastic_with_tree(rng, 3) for _ in range(2)])
    return [rng.uniform(-0.7, 0.7, size=(2, 2)) for _ in range(2)]


@given(mats=two_by_two_sets())
@settings(max_examples=30, deadline=None)
def test_polytope_certificate_checked_by_linear_programme(mats):
    res = gripenberg(mats, tol=1e-3, max_len=14, max_nodes=6000)
    if res.certificate != "polytope":
        return
    rho, V, factor = _invariant_polytope(mats, res.witness)
    assert res.upper == rho * max(1.0, factor)
    assert res.vertex_count == V.shape[1]
    # every image A_i v / rho lies in factor * absco(V): min ||c||_1 over
    # [V, -V] c = x, c >= 0, solved independently of the closed form
    for A in mats:
        for x in (A @ V / rho).T:
            lp = linprog(
                np.ones(2 * V.shape[1]), A_eq=np.hstack([V, -V]), b_eq=x,
                bounds=(0, None), method="highs",
            )
            assert lp.status == 0
            assert lp.fun <= factor * (1 + 1e-9) + 1e-12
    assert brute_force_jsr(mats, max_len=10) <= res.upper * (1 + 1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_monotone_lower_under_set_growth(seed):
    rng = np.random.default_rng(seed)
    mats = [rng.uniform(-0.6, 0.6, size=(2, 2)) for _ in range(3)]
    small = gripenberg(mats[:2], tol=1e-3, max_len=10, max_nodes=4000)
    big = gripenberg(mats, tol=1e-3, max_len=10, max_nodes=4000)
    assert big.lower <= big.upper
    if small.converged and big.converged:
        # exploration order differs between runs, so monotonicity of the
        # certified lower bound is guaranteed only up to the gap
        assert big.lower >= small.lower - 1e-3 - 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_brute_force_below_upper(seed):
    rng = np.random.default_rng(seed)
    mats = [rng.uniform(-0.7, 0.7, size=(2, 2)) for _ in range(2)]
    res = gripenberg(mats, tol=1e-3, max_len=14, max_nodes=6000)
    for L in (3, 7):
        assert brute_force_jsr(mats, max_len=L) <= res.upper + 1e-12


# ---------------------------------------------------------------- brute force


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), count=st.integers(2, 3))
@settings(max_examples=25, deadline=None)
def test_projected_jsr_invariant_under_relabelling(seed, m, count):
    # relabelling nodes maps G to Pi G Pi^T; the projected sets are then
    # similar through P Pi Pplus, so every product keeps its spectrum
    rng = np.random.default_rng(seed)
    mats = [stochastic_with_tree(rng, m) for _ in range(count)]
    perm = rng.permutation(m)
    relabelled = [G[perm][:, perm] for G in mats]
    a, b = projected_set(mats), projected_set(relabelled)
    assert brute_force_jsr(b, max_len=5) == pytest.approx(
        brute_force_jsr(a, max_len=5), rel=1e-12, abs=0
    )
    ga = gripenberg(a, max_nodes=100)
    gb = gripenberg(b, max_nodes=100)
    # both brackets are certified, so both hold the common JSR
    assert max(ga.lower, gb.lower) <= min(ga.upper, gb.upper) * (1 + 1e-12)


def test_brute_force_singleton():
    A = np.array([[0.3, 0.4], [0.1, 0.2]])
    want = spectral_radius(A)
    for L in (1, 3, 6):
        assert brute_force_jsr([A], max_len=L) == pytest.approx(want, rel=1e-12)


def test_brute_force_zero_matrix():
    assert brute_force_jsr([np.zeros((2, 2))], max_len=4) == 0.0


def test_brute_force_pair_beats_members():
    # the word (0,1) has a higher rate than either letter alone
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert spectral_radius(A) == 0.0 and spectral_radius(B) == 0.0
    assert brute_force_jsr([A, B], max_len=1) == 0.0
    assert brute_force_jsr([A, B], max_len=2) == pytest.approx(1.0, abs=1e-12)


def test_brute_force_budget():
    mats = [np.eye(2)] * 10
    with pytest.raises(BudgetExceededError):
        brute_force_jsr(mats, max_len=8)  # 10^8 words


def test_jsr_bounds_json():
    res = gripenberg([np.array([[0.5]])])
    d = res.to_json_dict()
    assert d["lower"] == 0.5 and d["upper"] == 0.5
    assert d["witness"] == [0]
    assert {"depth_reached", "node_count", "converged", "tol"} <= set(d)
    assert (d["certificate"], d["vertex_count"]) == ("search", 0)
