"""Certified bounds on the joint spectral radius of a finite matrix set.

For 2x2 sets the bracket is first certified by an invariant polytope
(Guglielmi & Protasov, Found. Comput. Math. 13, 2013; Jungers, The
Joint Spectral Radius, LNCIS 385, 2009).  A short search pass picks a
witness word w with rate rho = rho(P_w)^(1/|w|), the certified lower
bound.  Starting from the leading eigenvector of P_w and its cyclic
images, every image A_i u / rho that falls outside the symmetric convex
hull of the vertices so far becomes a vertex.  When no image is added,
the hull's gauge is a norm in which every A_i / rho has norm at most
`factor`, so rho * max(1, factor) is a certified upper bound; when the
witness is extremal, factor is 1 within rounding.  The gauge of a
symmetric polygon is the linear programme min ||c||_1 over V c = x,
solved exactly in closed form over its basic solutions.

When the polytope cannot be built (the witness's leading eigenvalue is
complex or not strictly dominant, the vertices span only a line, the
vertex cap is hit, or the set is not 2x2), branch-and-bound search
brackets the radius.  Exploration is best-first over product words.
Every evaluated word updates the certified lower bound through its
spectral radius; a word whose normalized norm rate falls to the current
lower bound plus the tolerance is never worth extending and becomes a
terminal block.  Every long product factors into terminal blocks, each
cut at the ancestor with the smallest norm rate, so the joint spectral
radius is at most the largest terminal prefix-min rate, which is the
reported upper bound.  The bound stays sound when the search is cut off
by the depth or node budget: the surviving frontier is absorbed into
the terminal set.

When the first pass leaves a gap above the tolerance, further passes
rerun the search under norms adapted to the words that are holding the
upper bound up: the whole set is conjugated so the targeted product
becomes real block diagonal, where its 2-norm equals its spectral
radius, so that branch's rate estimate collapses to its true rate and
stops propping up the bound.  A fixed similarity changes no spectral
radius and no gauge-invariant limit, so every pass yields a certified
bracket and the tightest ends win.  Only this fallback loads scipy
(balancing and the adapted norms).
"""

import heapq
import math
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EmptySetError,
    InvalidParamsError,
)
from .linalg import matrix_norm, spectral_radius

DEFAULT_TOL = 1e-4
DEFAULT_MAX_LEN = 24
DEFAULT_MAX_NODES = 200_000
BRUTE_FORCE_BUDGET = 10**7

# skip an adapted pass when the target eigenbasis is this ill-conditioned
ADAPT_COND_LIMIT = 1e10
MAX_ADAPT_ROUNDS = 4

# the polytope certificate: node budget of the witness pass, vertex cap,
# and the slack by which an image's gauge may exceed 1 and stay inside
POLYTOPE_PASS_NODES = 2000
POLYTOPE_MAX_VERTICES = 200
POLYTOPE_SLACK = 1e-12
# vertex pairs closer than this sine of angle form no basis of the plane
PARALLEL_TOL = 1e-9
# the witness's second eigenvalue must be below its first by this factor
DOMINANCE = 1.0 - 1e-9


@dataclass(frozen=True)
class JsrBounds:
    lower: float
    upper: float
    depth_reached: int
    node_count: int
    witness: Tuple[int, ...]
    converged: bool
    tol: float
    certificate: str = "search"
    vertex_count: int = 0

    def to_json_dict(self) -> dict:
        return {**asdict(self), "witness": list(self.witness)}


def _validated_set(matrices: Sequence) -> List[np.ndarray]:
    mats = [np.asarray(A, dtype=float) for A in matrices]
    if not mats:
        raise EmptySetError("matrix set is empty")
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatchError(f"matrices must be square, got {shape}")
    for A in mats[1:]:
        if A.shape != shape:
            raise DimensionMismatchError(
                f"mixed dimensions in set: {shape} vs {A.shape}"
            )
    return mats


def _balanced(mats: List[np.ndarray]) -> List[np.ndarray]:
    """Apply one diagonal similarity, chosen by balancing the entrywise
    sum of absolute values, to the whole set.  Similarities preserve
    every spectral radius and the JSR while often shrinking norms, which
    tightens pruning."""
    n = mats[0].shape[0]
    if n < 2:
        return mats
    X = np.zeros((n, n))
    for A in mats:
        X += np.abs(A)
    from scipy.linalg import matrix_balance

    try:
        _, T = matrix_balance(X, permute=False)
        d = np.diag(T)
    except Exception:
        return mats
    if not np.all(np.isfinite(d)) or np.any(d <= 0):
        return mats
    return [(A * d[None, :]) / d[:, None] for A in mats]


def _word_product(mats: List[np.ndarray], word: Tuple[int, ...]) -> np.ndarray:
    P = mats[word[0]]
    for a in word[1:]:
        P = mats[a] @ P
    return P


def _block_scales(wr: np.ndarray) -> np.ndarray:
    """Map each coordinate to its eigen-block id in a cdf2rdf output."""
    n = wr.shape[0]
    bidx = np.zeros(n, dtype=int)
    block = 0
    j = 0
    while j < n:
        bidx[j] = block
        if j + 1 < n and wr[j, j + 1] != 0.0:
            bidx[j + 1] = block
            j += 2
        else:
            j += 1
        block += 1
    return bidx


def _adapted_set(
    work: List[np.ndarray], word: Tuple[int, ...]
) -> Optional[List[np.ndarray]]:
    """Conjugate the set so the product of the target word becomes real
    block diagonal.  Returns None when the target eigenbasis is
    defective or too ill-conditioned to be useful.

    The eigenbasis leaves one free scale per eigen-block; scaling blocks
    uniformly commutes with the block diagonal, so the target product
    stays flat while the scales are tuned to shrink the letters' norms,
    which is what prunes the off-cycle branches.
    """
    from scipy.linalg import cdf2rdf
    from scipy.optimize import minimize

    P = _word_product(work, word)
    try:
        lam, V = np.linalg.eig(P)
        wr, vr = cdf2rdf(lam, V)
    except Exception:
        return None
    if not np.all(np.isfinite(vr)):
        return None

    bidx = _block_scales(wr)
    nblocks = int(bidx[-1]) + 1 if len(bidx) else 0
    if nblocks > 1:
        try:
            base = [np.linalg.solve(vr, A @ vr) for A in work]
        except np.linalg.LinAlgError:
            return None

        def worst_norm(logs: np.ndarray) -> float:
            d = np.exp(logs)[bidx]
            return max(
                float(np.linalg.norm((B / d[:, None]) * d[None, :], 2))
                for B in base
            )

        x0 = np.zeros(nblocks)
        try:
            opt = minimize(
                worst_norm, x0, method="Nelder-Mead",
                options={"maxiter": 120 * nblocks, "xatol": 1e-3, "fatol": 1e-6},
            )
            if np.all(np.isfinite(opt.x)) and opt.fun < worst_norm(x0):
                vr = vr * np.exp(opt.x)[bidx][None, :]
        except Exception:
            pass

    try:
        cond = np.linalg.cond(vr)
        vr_inv = np.linalg.inv(vr)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(cond) or cond > ADAPT_COND_LIMIT:
        return None
    return [vr_inv @ A @ vr for A in work]


def _independent_pairs(V: np.ndarray):
    """Index pairs (i, j) of vertex columns of V that form a basis of the
    plane, with |det [v_i v_j]|."""
    i, j = np.triu_indices(V.shape[1], 1)
    det = np.abs(V[0, i] * V[1, j] - V[1, i] * V[0, j])
    lens = np.hypot(V[0], V[1])
    keep = det > PARALLEL_TOL * lens[i] * lens[j]
    return i[keep], j[keep], det[keep]


def _gauge(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Gauge of each column of X (2, M) in the symmetric convex hull of
    the columns of V (2, N): the LP optimum min ||c||_1 over V c = x.

    The optimum sits at a basic solution, which uses one independent
    vertex pair (i, j); by Cramer's rule its cost is
    (|cross(v_i, x)| + |cross(v_j, x)|) / |cross(v_i, v_j)|.  Skipping
    near-parallel pairs can only raise the value.  When every vertex lies
    on one line, the gauge is finite only on that line.
    """
    cross = V[0][:, None] * X[1][None, :] - V[1][:, None] * X[0][None, :]
    i, j, det = _independent_pairs(V)
    if len(det):
        return ((np.abs(cross[i]) + np.abs(cross[j])) / det[:, None]).min(axis=0)
    lens = np.hypot(V[0], V[1])
    k = int(np.argmax(lens))
    xlen = np.hypot(X[0], X[1])
    on_line = np.abs(cross[k]) <= PARALLEL_TOL * lens[k] * xlen
    return np.where(on_line, xlen / lens[k], np.inf)


def _invariant_polytope(
    mats: List[np.ndarray], witness: Tuple[int, ...]
) -> Optional[Tuple[float, np.ndarray, float]]:
    """Build the invariant polytope of a 2x2 set from a witness word of
    positive rate.

    Returns (rho, V, factor): rho is the witness rate, the columns of V
    are the vertices, and every A_i V / rho lies in factor * absco(V).
    Returns None when the witness's leading eigenvalue is complex or not
    strictly dominant, when the vertex cap is hit, when the vertices
    span only a line (an invariant subspace, not a norm), or when the
    gauge is not finite.
    """
    P = _word_product(mats, witness)
    lam, vecs = np.linalg.eig(P)
    top = int(np.argmax(np.abs(lam)))
    if np.iscomplexobj(lam) or not abs(lam[1 - top]) < DOMINANCE * abs(lam[top]):
        return None
    rho = spectral_radius(P) ** (1.0 / len(witness))
    B = np.stack(mats) / rho
    u = vecs[:, top]
    verts = [u]
    for a in witness[:-1]:
        u = B[a] @ u
        verts.append(u)
    V = np.array(verts).T
    done = 0
    while done < V.shape[1]:
        images = B @ V[:, done]
        done += 1
        outside = images[_gauge(V, images.T) > 1.0 + POLYTOPE_SLACK]
        if len(outside):
            V = np.hstack([V, outside.T])
            if V.shape[1] > POLYTOPE_MAX_VERTICES:
                return None
    if not len(_independent_pairs(V)[0]):
        return None
    images = (B @ V).transpose(1, 0, 2).reshape(2, -1)
    factor = float(_gauge(V, images).max())
    # an overflowed vertex yields NaN, which max(1, factor) would hide
    return (rho, V, factor) if math.isfinite(factor) else None


def _search(
    work: List[np.ndarray],
    tol: float,
    max_len: int,
    max_nodes: int,
    norm_fn: Callable[[np.ndarray], float],
    lower0: float = 0.0,
    witness0: Tuple[int, ...] = (),
) -> Tuple[float, Tuple[int, ...], float, Tuple[int, ...], int, int]:
    """One best-first pass.  Returns (lower, witness, upper,
    binding_word, node_count, depth_reached), where binding_word is the
    terminal block that determines the upper bound.

    Heap entries carry the prefix-min norm rate along the word's
    ancestry; a terminal block only ever costs its best ancestor cut,
    which is what the factorization argument charges.
    """
    k = len(work)
    lower = lower0
    witness = witness0
    terminal_max = 0.0
    binding: Tuple[int, ...] = ()
    node_count = 0
    depth_reached = 0
    heap: list = []

    def consider(word: Tuple[int, ...], P: np.ndarray, prefmin: float):
        nonlocal lower, witness, terminal_max, binding, node_count, depth_reached
        node_count += 1
        length = len(word)
        depth_reached = max(depth_reached, length)
        rho = spectral_radius(P) ** (1.0 / length)
        if rho > lower:
            lower = rho
            witness = word
        beta = norm_fn(P) ** (1.0 / length)
        pm = min(prefmin, beta)
        if length >= max_len or beta <= lower + tol:
            if pm > terminal_max:
                terminal_max = pm
                binding = word
        else:
            heapq.heappush(heap, (-beta, word, P, pm))

    for a in range(k):
        consider((a,), work[a], math.inf)

    while heap:
        neg_beta, word, P, pm = heapq.heappop(heap)
        beta = -neg_beta
        if beta <= lower + tol:
            # best-first order: everything left is at most beta
            if beta > terminal_max:
                terminal_max = beta
                binding = word
            break
        if node_count >= max_nodes:
            if pm > terminal_max:
                terminal_max = pm
                binding = word
            continue
        for a in range(k):
            consider(word + (a,), work[a] @ P, pm)

    return lower, witness, max(lower, terminal_max), binding, node_count, depth_reached


def gripenberg(
    matrices: Sequence,
    tol: float = DEFAULT_TOL,
    max_len: int = DEFAULT_MAX_LEN,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> JsrBounds:
    mats = _validated_set(matrices)
    if tol <= 0:
        raise InvalidParamsError(f"tol must be > 0, got {tol}")
    if max_len < 1:
        raise InvalidParamsError(f"max_len must be >= 1, got {max_len}")

    if len(mats) == 1:
        # one generator: the JSR is exactly the spectral radius (Gelfand)
        val = spectral_radius(mats[0])
        return JsrBounds(
            lower=val,
            upper=val,
            depth_reached=1,
            node_count=1,
            witness=(0,),
            converged=True,
            tol=tol,
        )

    inf_norm = lambda P: matrix_norm(P, "inf")
    pass_nodes = pass_depth = 0
    polytope = None
    if mats[0].shape[0] == 2:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                lower, witness, _, _, pass_nodes, pass_depth = _search(
                    mats, tol, max_len, min(max_nodes, POLYTOPE_PASS_NODES), inf_norm
                )
                if lower > 0:
                    polytope = _invariant_polytope(mats, witness)
        except np.linalg.LinAlgError:
            pass  # a product overflowed unbalanced; the balanced search may not
        if polytope is not None:
            rho, V, factor = polytope
            upper = rho * max(1.0, factor)
            return JsrBounds(
                lower=rho,
                upper=upper,
                depth_reached=pass_depth,
                node_count=pass_nodes,
                witness=witness,
                converged=upper - rho <= tol * (1.0 + 1e-12),
                tol=tol,
                certificate="polytope",
                vertex_count=V.shape[1],
            )

    work = _balanced(mats)

    lower, witness, upper, binding, node_count, depth_reached = _search(
        work, tol, max_len, max_nodes, inf_norm
    )
    node_count += pass_nodes
    depth_reached = max(depth_reached, pass_depth)

    # adaptive rounds: conjugate the set to flatten whichever word is
    # holding up the upper bound, preferring the witness first
    two_norm = lambda P: float(np.linalg.norm(P, 2))
    used: set = set()
    rounds = 0
    while (
        upper - lower > tol
        and lower > 0
        and mats[0].shape[0] >= 2
        and rounds < MAX_ADAPT_ROUNDS
    ):
        target = next(
            (w for w in (witness, binding) if w and w not in used), None
        )
        if target is None:
            break
        used.add(target)
        adapted = _adapted_set(work, target)
        if adapted is None:
            break
        lo2, wit2, up2, bind2, nodes2, depth2 = _search(
            adapted, tol, max_len, max_nodes, two_norm,
            lower0=lower, witness0=witness,
        )
        node_count += nodes2
        depth_reached = max(depth_reached, depth2)
        if up2 < upper:
            upper, binding = up2, bind2
        lower, witness = lo2, wit2
        rounds += 1

    if witness:
        # re-certify the witness against the caller's matrices so the lower
        # bound is reproducible without knowing the internal similarities
        lower = spectral_radius(_word_product(mats, witness)) ** (1.0 / len(witness))
    upper = max(upper, lower)
    converged = upper - lower <= tol * (1.0 + 1e-12)
    return JsrBounds(
        lower=lower,
        upper=upper,
        depth_reached=depth_reached,
        node_count=node_count,
        witness=witness,
        converged=converged,
        tol=tol,
    )


def brute_force_jsr(matrices: Sequence, max_len: int) -> float:
    """Exhaustive max over all words up to max_len of rho^(1/length); a
    certified lower bound on the JSR and the oracle for gripenberg."""
    mats = _validated_set(matrices)
    if max_len < 1:
        raise InvalidParamsError(f"max_len must be >= 1, got {max_len}")
    k = len(mats)
    if k**max_len > BRUTE_FORCE_BUDGET:
        raise BudgetExceededError(
            f"{k}^{max_len} words exceeds the {BRUTE_FORCE_BUDGET:.0e} budget"
        )
    best = 0.0
    stack = [(mats[a], 1) for a in range(k)]
    while stack:
        P, length = stack.pop()
        rate = spectral_radius(P) ** (1.0 / length)
        if rate > best:
            best = rate
        if length < max_len:
            for A in mats:
                stack.append((A @ P, length + 1))
    return best
