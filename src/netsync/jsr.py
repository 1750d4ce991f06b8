"""Certified bounds on the joint spectral radius of a finite matrix set.

The bracket is first certified by an invariant polytope (Guglielmi &
Protasov, Found. Comput. Math. 13, 2013; Jungers, The Joint Spectral
Radius, LNCIS 385, 2009).  A short search pass picks a witness word w
with rate rho = rho(P_w)^(1/|w|), the certified lower bound.  Starting
from the leading eigenvector of P_w and its cyclic images, every image
A_i u / rho that falls outside the symmetric convex hull of the vertices
so far becomes a vertex.  When no image is added, the hull's gauge is a
norm in which every A_i / rho has norm at most `factor`, so
rho * max(1, factor) is a certified upper bound; when the witness is
extremal, factor is 1 within rounding.  The gauge is the linear
programme min ||c||_1 over V c = x, solved in closed form for 2x2 sets
and by scipy's HiGHS above.  A witness that certifies no bracket within
the tolerance is replaced by one from a longer pass.

When no polytope within the tolerance can be built (the witness's
leading eigenvalue is complex or not strictly dominant, the vertices
span no full-dimensional body, or the vertex cap is hit), one
branch-and-bound search brackets the radius, starting from the pass's
witness and lower bound; a wider polytope bound stays where it is
tighter than the search's.
Exploration is best-first over product words.  Every evaluated word
updates the certified lower bound through its spectral radius; a word
whose normalized norm rate falls to the current lower bound plus the
tolerance is never worth extending and becomes a terminal block.  Every long product factors into
terminal blocks, each cut at the ancestor with the smallest norm rate,
so the joint spectral radius is at most the largest terminal prefix-min
rate, which is the reported upper bound.  The bound stays sound when the
search is cut off by the depth or node budget: the surviving frontier is
absorbed into the terminal set.  Norms are 2-norms after conjugating
the set so the witness product becomes real block diagonal, where its
2-norm equals its spectral radius, so the witness branch stops propping
up the bound; a fixed similarity changes no spectral radius.  Without a
usable witness the search uses the infinity norm of the caller's set.
Only this fallback and the polytope above 2x2 load scipy.  A product
that is not finite, from an inf or NaN entry or an overflow, in either
pass, fails with InvalidParamsError.
"""

import heapq
import math
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParamsError
from .linalg import matrix_norm, spectral_radius

DEFAULT_TOL = 1e-4
DEFAULT_MAX_LEN = 24
DEFAULT_MAX_NODES = 200_000

# skip the adapted norm when the witness eigenbasis is this ill-conditioned
ADAPT_COND_LIMIT = 1e10

# the polytope certificate: node budgets of the witness passes, widened
# until one certifies within tol, the vertex cap, and the slack by which
# an image's gauge may exceed 1 and stay inside
WITNESS_PASS_NODES = (50, 2000)
POLYTOPE_MAX_VERTICES = 200
POLYTOPE_SLACK = 1e-12
# a unit vertex this close to the span of others adds no dimension
PARALLEL_TOL = 1e-9
# the witness's second eigenvalue must be below its first by this factor
DOMINANCE = 1.0 - 1e-9


class JsrBounds(NamedTuple):
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
        return {**self._asdict(), "witness": list(self.witness)}


def _validated_set(matrices: Sequence) -> List[np.ndarray]:
    mats = []
    for k, A in enumerate(matrices):
        try:
            mats.append(np.asarray(A, dtype=float))
        except (TypeError, ValueError) as exc:
            raise InvalidParamsError(f"matrix {k} is not a float matrix: {exc}") from exc
        if mats[k].shape != mats[0].shape:
            raise InvalidParamsError(f"matrix {k} is {mats[k].shape}, expected {mats[0].shape}")
    if not mats:
        raise InvalidParamsError("matrix set is empty")
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidParamsError(f"matrices must be square, got {shape}")
    return mats


def _word_product(mats: List[np.ndarray], word: Tuple[int, ...]) -> np.ndarray:
    P = mats[word[0]]
    for a in word[1:]:
        P = mats[a] @ P
    return P


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

    # eigen-block id of each coordinate: LAPACK lists a conjugate pair
    # together, positive imaginary part first, and cdf2rdf keeps the order
    bidx = np.cumsum(np.imag(lam) >= 0) - 1
    nblocks = int(bidx[-1]) + 1
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


def _vertex_basis(V: np.ndarray) -> Optional[List[int]]:
    """Indices of n columns of V (n, N) that form a basis, picked by
    pivoted Gram-Schmidt on the unit columns; None when every remaining
    column lies within PARALLEL_TOL of the span of those picked, so the
    vertices span no full-dimensional body."""
    R = V / np.linalg.norm(V, axis=0)
    picks = []
    for _ in range(V.shape[0]):
        dist = np.linalg.norm(R, axis=0)
        k = int(np.argmax(dist))
        if not dist[k] > PARALLEL_TOL:
            return None
        picks.append(k)
        q = R[:, k] / dist[k]
        R = R - np.outer(q, q @ R)
    return picks


def _gauge(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Gauge of each column of X (n, M) in the symmetric convex hull of
    the columns of V (n, N): the LP optimum min ||c||_1 over V c = x,
    infinite off the span of V.

    For n = 2 the optimum sits at a basic solution, which uses one
    independent vertex pair (i, j); by Cramer's rule its cost is
    (|cross(v_i, x)| + |cross(v_j, x)|) / |cross(v_i, v_j)|.  Skipping
    near-parallel pairs can only raise the value.  When every vertex lies
    on one line, the gauge is finite only on that line.

    For n > 2 scipy's HiGHS solves the programme.  Its primal c meets
    V c = x only up to a residual r.  Once V spans, r = B d for the basis
    B of `_vertex_basis`, so x = V c + B d and ||c||_1 + ||B^-1 r||_1
    bounds the gauge from above whatever the solver's rounding; before,
    the value only decides which images become vertices, and no such V
    is certified.  A failed or non-finite solve gives inf, and an
    overflowed column NaN, which never becomes a vertex.
    """
    n, N = V.shape
    if n == 2:
        cross = V[0][:, None] * X[1][None, :] - V[1][:, None] * X[0][None, :]
        i, j = np.triu_indices(N, 1)
        det = np.abs(V[0, i] * V[1, j] - V[1, i] * V[0, j])
        lens = np.hypot(V[0], V[1])
        keep = det > PARALLEL_TOL * lens[i] * lens[j]
        if keep.any():
            i, j, det = i[keep], j[keep], det[keep]
            return ((np.abs(cross[i]) + np.abs(cross[j])) / det[:, None]).min(axis=0)
        k = int(np.argmax(lens))
        xlen = np.hypot(X[0], X[1])
        on_line = np.abs(cross[k]) <= PARALLEL_TOL * lens[k] * xlen
        return np.where(on_line, xlen / lens[k], np.inf)

    from scipy.optimize import linprog
    from scipy.sparse import eye, kron

    M = X.shape[1]
    finite = np.all(np.isfinite(X), axis=0)
    Y = np.where(finite, X, 0.0)
    # the columns' programmes share no variable, so one block-diagonal
    # programme solves them all
    lp = linprog(
        np.ones(2 * N * M), A_eq=kron(eye(M), np.hstack([V, -V])),
        b_eq=Y.T.ravel(), bounds=(0, None), method="highs",
    )
    solved = lp.status == 0 and np.all(np.isfinite(lp.x))
    if not solved and M > 1:
        # one column off the span of V fails them all: solve each alone
        return np.concatenate([_gauge(V, X[:, [j]]) for j in range(M)])
    if not solved:
        return np.where(finite, np.inf, np.nan)
    c = lp.x.reshape(M, 2, N)
    C = (c[:, 0] - c[:, 1]).T
    value = np.abs(C).sum(axis=0)
    basis = _vertex_basis(V)
    if basis is not None:
        value += np.abs(np.linalg.solve(V[:, basis], Y - V @ C)).sum(axis=0)
    return np.where(finite, value, np.nan)


def _invariant_polytope(
    mats: List[np.ndarray], witness: Tuple[int, ...]
) -> Optional[Tuple[float, np.ndarray, float]]:
    """Build the invariant polytope of the set from a witness word of
    positive rate.

    Returns (rho, V, factor): rho is the witness rate, the columns of V
    are the vertices, and every A_i V / rho lies in factor * absco(V).
    Returns None when the witness's leading eigenvalue is not strictly
    dominant (a complex one ties with its conjugate), when a vertex's
    word is faster than the witness or the vertex cap is hit, when the
    vertices span no full-dimensional body (an invariant subspace, not a
    norm), or when the gauge is not finite.
    """
    P = _word_product(mats, witness)
    lam, vecs = np.linalg.eig(P)
    mods = np.abs(lam)
    top = int(np.argmax(mods))
    if not np.partition(mods, -2)[-2] < DOMINANCE * mods[top]:
        return None
    rho = spectral_radius(P) ** (1.0 / len(witness))
    B = np.stack(mats) / rho
    # each vertex is W u for a product W of the A_i / rho; a W of spectral
    # radius above 1 is a word faster than the witness, so no polytope
    # can close and the construction would only run to the vertex cap
    verts, W = [vecs[:, top].real], [np.eye(len(lam))]
    for a in witness[:-1]:
        verts.append(B[a] @ verts[-1])
        W.append(B[a] @ W[-1])
    V = np.array(verts).T
    done = 0
    while done < V.shape[1]:
        images, words = B @ V[:, done], B @ W[done]
        done += 1
        outside = _gauge(V, images.T) > 1.0 + POLYTOPE_SLACK
        if outside.any():
            if max(spectral_radius(M) for M in words[outside]) * DOMINANCE > 1.0:
                return None
            V = np.hstack([V, images[outside].T])
            W.extend(words[outside])
            if V.shape[1] > POLYTOPE_MAX_VERTICES:
                return None
    if _vertex_basis(V) is None:
        return None
    images = (B @ V).transpose(1, 0, 2).reshape(V.shape[0], -1)
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
) -> Tuple[float, Tuple[int, ...], float, int, int]:
    """One best-first pass.  Returns (lower, witness, upper, node_count,
    depth_reached).

    Heap entries carry the prefix-min norm rate along the word's
    ancestry; a terminal block only ever costs its best ancestor cut,
    which is what the factorization argument charges.
    """
    k = len(work)
    lower = lower0
    witness = witness0
    terminal_max = 0.0
    node_count = 0
    depth_reached = 0
    heap: list = []

    def consider(word: Tuple[int, ...], P: np.ndarray, prefmin: float):
        nonlocal lower, witness, terminal_max, node_count, depth_reached
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
            terminal_max = max(terminal_max, pm)
        else:
            heapq.heappush(heap, (-beta, word, P, pm))

    for a in range(k):
        consider((a,), work[a], math.inf)

    while heap:
        neg_beta, word, P, pm = heapq.heappop(heap)
        beta = -neg_beta
        if beta <= lower + tol:
            # best-first order: everything left is at most beta
            terminal_max = max(terminal_max, beta)
            break
        if node_count >= max_nodes:
            terminal_max = max(terminal_max, pm)
            continue
        for a in range(k):
            consider(word + (a,), work[a] @ P, pm)

    return lower, witness, max(lower, terminal_max), node_count, depth_reached


def gripenberg(
    matrices: Sequence,
    tol: float = DEFAULT_TOL,
    max_len: int = DEFAULT_MAX_LEN,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> JsrBounds:
    mats = _validated_set(matrices)
    if not 0 < tol < math.inf:
        raise InvalidParamsError(f"tol must be in (0, inf), got {tol}")
    if max_len < 1:
        raise InvalidParamsError(f"max_len must be >= 1, got {max_len}")

    node_count = depth_reached = 0
    witness: Tuple[int, ...] = ()

    def bounds(lower: float, upper: float, **certificate) -> JsrBounds:
        return JsrBounds(
            lower=lower,
            upper=upper,
            depth_reached=depth_reached,
            node_count=node_count,
            witness=witness,
            converged=upper - lower <= tol * (1.0 + 1e-12),
            tol=tol,
            **certificate,
        )

    if len(mats) == 1 or mats[0].shape[0] == 1:
        # one generator (Gelfand), or 1x1 matrices, which commute: the JSR
        # is exactly the largest spectral radius
        rates = [spectral_radius(A) for A in mats]
        witness, node_count, depth_reached = (int(np.argmax(rates)),), len(mats), 1
        return bounds(max(rates), max(rates))

    lower, best = 0.0, (math.inf, {})
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for budget in sorted({min(max_nodes, b) for b in WITNESS_PASS_NODES}):
                lower, witness, _, nodes, depth = _search(
                    mats, tol, max_len, budget, matrix_norm
                )
                node_count += nodes
                depth_reached = max(depth_reached, depth)
                polytope = _invariant_polytope(mats, witness) if lower > 0 else None
                if polytope is not None:
                    rho, V, factor = polytope
                    certificate = dict(certificate="polytope", vertex_count=V.shape[1])
                    certified = bounds(rho, rho * max(1.0, factor), **certificate)
                    if certified.converged:
                        return certified
                    # keep the tightest polytope bound for the search to improve on
                    best = min(best, (certified.upper, certificate), key=lambda b: b[0])

            adapted = _adapted_set(mats, witness) if witness else None
            if adapted is None:
                work, norm_fn = mats, matrix_norm
            else:
                work, norm_fn = adapted, lambda P: float(np.linalg.norm(P, 2))
            lower, witness, upper, nodes, depth = _search(
                work, tol, max_len, max_nodes, norm_fn, lower0=lower, witness0=witness
            )
            node_count += nodes
            depth_reached = max(depth_reached, depth)
            if witness:
                # re-certify the witness against the caller's matrices so the lower
                # bound is reproducible without knowing the adapted basis
                lower = spectral_radius(_word_product(mats, witness)) ** (1.0 / len(witness))
    except np.linalg.LinAlgError as exc:
        raise InvalidParamsError(
            f"a product of the matrix set is not finite (an entry is inf or NaN, "
            f"or the products overflow): {exc}"
        ) from exc
    upper, certificate = min((upper, {}), best, key=lambda b: b[0])
    return bounds(lower, max(upper, lower), **certificate)
