"""Oracle tests for joint-spectral-radius bounds.

brute_force_jsr is the independent oracle for gripenberg; soundness
properties (lower certified by witness, brute force below upper) hold
even on runs stopped by depth or node budgets.  scipy's linprog checks
the invariant polytope's gauge independently, through the dual
programme, which no part of the certificate solves.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from netsync.errors import DimensionMismatchError, EmptySetError, InvalidParamsError
from netsync import jsr
from netsync.jsr import (
    JsrBounds,
    _balanced,
    _invariant_polytope,
    gripenberg,
)
from netsync.linalg import compress, spectral_radius
from oracles import BudgetExceededError, brute_force_jsr, make_stochastic


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
    return [compress(G) for G in mats]


def sample_set(k):
    """Set k of a fixed sample of projected tree sets: m = 4-6 nodes
    (3x3 to 5x5 matrices) with 2-3 members each."""
    rng = np.random.default_rng(5)
    for _ in range(k + 1):
        m, count = int(rng.integers(4, 7)), int(rng.integers(2, 4))
        mats = projected_set([stochastic_with_tree(rng, m) for _ in range(count)])
    return mats


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
    # a tiny node budget forces an early stop; bounds must still bracket.
    # The witness's leading eigenvalue is complex, so no polytope closes
    # the gap and the stop falls on the search
    rng = np.random.default_rng(1)
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
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidParamsError, match="tol"):
            gripenberg([np.eye(2)], tol=tol)


def test_gripenberg_balancing_changes_nothing_semantically(monkeypatch):
    # a 3x3 set whose witness has a complex leading eigenvalue reaches
    # the search, which balances it; the diagonal similarity gives
    # balancing something to undo
    rng = np.random.default_rng(1)
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
    # the 50-node witness pass suffices; no wider pass runs
    assert res.node_count <= 50
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


def test_witness_slower_than_a_letter_refuted_at_once(monkeypatch):
    # the second letter alone beats the witness (0,), so no polytope can
    # close; its image of the eigenvector refutes the witness at the first
    # gauge instead of growing the vertex set to the cap
    mats = [np.array([[0.5, 0.2], [0.1, 0.4]]), np.array([[0.9, 0.0], [0.3, 0.2]])]
    calls = []
    gauge = jsr._gauge
    monkeypatch.setattr(jsr, "_gauge", lambda V, X: calls.append(X) or gauge(V, X))
    assert _invariant_polytope(mats, (0,)) is None
    assert len(calls) == 1


def test_complex_witness_reaches_one_adapted_search(monkeypatch):
    # a scaled rotation dominates: its leading eigenvalues are a complex
    # pair, so only the search, in the norm adapted to it, can close the gap
    th = 0.9
    R = 0.8 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    mats = [R, np.array([[0.3, 0.1], [0.2, 0.1]])]
    targets = []
    adapted = jsr._adapted_set

    def spy(work, word):
        targets.append(word)
        return adapted(work, word)

    monkeypatch.setattr(jsr, "_adapted_set", spy)
    searches = []
    search = jsr._search
    monkeypatch.setattr(
        jsr, "_search", lambda *a, **kw: searches.append(kw) or search(*a, **kw)
    )
    res = gripenberg(mats, tol=1e-4)
    assert targets == [res.witness]
    # two witness passes, then one search that starts from their bracket
    assert len(searches) == 3
    assert searches[-1]["witness0"] == res.witness
    assert searches[-1]["lower0"] == pytest.approx(0.8, rel=1e-12)
    assert res.certificate == "search"
    assert res.lower == pytest.approx(0.8, rel=1e-12)
    assert brute_force_jsr(mats, max_len=12) <= res.upper


def test_polytope_bound_kept_when_the_wider_pass_builds_none(monkeypatch):
    # the 50-node pass certifies a bracket wider than tol (its factor is
    # inflated, which keeps it sound), the 2000-node pass builds no
    # polytope, and the search alone stops wider: the first bound stands
    rng = np.random.default_rng(34)
    mats = projected_set([stochastic_with_tree(rng, 3) for _ in range(2)])
    built = iter([True, False])
    polytope = jsr._invariant_polytope

    def loose_once(mats, witness):
        rho, V, factor = polytope(mats, witness)
        return (rho, V, (1 + 1e-6) * factor) if next(built) else None

    monkeypatch.setattr(jsr, "_invariant_polytope", loose_once)
    res = gripenberg(mats, tol=1e-9, max_nodes=60)
    rho, V, factor = polytope(mats, (1, 0))
    assert res.certificate == "polytope" and res.vertex_count == V.shape[1]
    assert res.upper == rho * (1 + 1e-6) * factor and not res.converged
    # both passes and the search ran
    assert res.node_count > 110
    assert res.lower <= rho * (1 + 1e-12)
    assert brute_force_jsr(mats, max_len=12) <= res.upper


def test_scalar_set_exact():
    # 1x1 matrices commute: the JSR is the largest modulus, no search runs
    res = gripenberg([[[0.3]], [[-0.7]]])
    assert res.lower == res.upper == 0.7
    assert res.witness == (1,) and res.converged


# scipy's matrix_balance warns of overflow on this set by design; raised as
# an error, the warning would make _balanced fall back to the unbalanced set
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_witness_pass_falls_back_to_balanced_search():
    # unbalanced, the witness pass overflows on its second product;
    # balancing makes the set tractable, as it did before the polytope
    mats = [np.array([[1e150, 1e-150], [1e-150, 1.0]]),
            np.array([[0.5, 1e200], [0.0, 0.1]])]
    res = gripenberg(mats, max_nodes=500)
    assert res.certificate == "search"
    assert res.witness == (0,) and res.lower == res.upper == 1e150


def test_sample_set_above_two_by_two_certified_by_polytope():
    # 4x4 matrices, three members: the search alone leaves a gap of 6e-3
    mats = sample_set(9)
    res = gripenberg(mats, tol=1e-4)
    assert res.certificate == "polytope" and res.converged
    assert res.upper - res.lower <= 1e-12 * res.lower
    assert brute_force_jsr(mats, max_len=8) <= res.upper * (1 + 1e-12)


def test_lp_gauge_never_below_the_gauge_whatever_the_solver_returns(monkeypatch):
    # the gauge in the cross-polytope absco(I_3) is the 1-norm
    X = np.random.default_rng(3).standard_normal((3, 8))
    V = np.eye(3)
    assert jsr._gauge(V, X) == pytest.approx(np.abs(X).sum(axis=0), rel=1e-12)
    # a primal answer off V c = x by any residual still yields a
    # representation of x, so the value stays at or above the LP optimum
    solve = scipy.optimize.linprog
    sloppy = lambda *a, **kw: SimpleNamespace(status=0, x=0.5 * solve(*a, **kw).x)
    monkeypatch.setattr(scipy.optimize, "linprog", sloppy)
    assert np.all(jsr._gauge(V, X) >= np.abs(X).sum(axis=0) * (1 - 1e-15))
    # a failed solve certifies nothing
    failed = lambda *a, **kw: SimpleNamespace(status=2, x=None)
    monkeypatch.setattr(scipy.optimize, "linprog", failed)
    assert np.all(np.isinf(jsr._gauge(V, X)))


@st.composite
def small_sets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        return projected_set([stochastic_with_tree(rng, n + 1) for _ in range(2)])
    return [rng.uniform(-0.7, 0.7, size=(n, n)) for _ in range(2)]


@given(mats=small_sets())
@settings(max_examples=30, deadline=None)
def test_polytope_certificate_checked_by_linear_programme(mats):
    res = gripenberg(mats, tol=1e-3, max_len=14, max_nodes=6000)
    if res.certificate != "polytope":
        return
    rho, V, factor = _invariant_polytope(mats, res.witness)
    assert res.upper == rho * max(1.0, factor)
    assert res.vertex_count == V.shape[1]
    # every image A_i v / rho lies in factor * absco(V).  The gauge of x
    # is also the dual optimum max <y, x> over |<y, v_j>| <= 1, which no
    # part of the certificate solves
    for A in mats:
        for x in (A @ V / rho).T:
            lp = linprog(
                -x, A_ub=np.vstack([V.T, -V.T]), b_ub=np.ones(2 * V.shape[1]),
                bounds=(None, None), method="highs",
            )
            assert lp.status == 0
            assert -lp.fun <= factor * (1 + 1e-9) + 1e-12
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
