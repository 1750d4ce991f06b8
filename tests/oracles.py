"""Reference routines the tests check the package against, with the
errors only they raise: row normalisation (with its matrix check), the
row-difference diameter and the induced matrix norm in the one and two
norms besides the package's infinity norm, the scrambling coefficient
eta and the contraction inequality, brute-force JSR, the full Lyapunov
spectrum by QR, a scalar map's exponent from its whole orbit held at
once, a scalar map's derivative against central differences, and
densifying a coupling matrix.  No netsync command runs them."""

from typing import List, NamedTuple, Sequence

import numpy as np

from netsync.errors import InvalidParamsError, NetsyncError, OrbitDivergedError
from netsync.hajnal import _rows, diam
from netsync.jsr import _validated_set
from netsync.linalg import CSR, is_stochastic, matrix_norm, spectral_radius

BOUND_SLACK = 1e-10
BRUTE_FORCE_BUDGET = 10**7


class ZeroRowError(NetsyncError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} sums to zero; cannot normalize")


class NegativeEntryError(NetsyncError):
    def __init__(self, row: int, col: int, value: float):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"entry ({row},{col}) = {value} is negative")


class BudgetExceededError(NetsyncError):
    pass


class SingularMatrixError(NetsyncError):
    def __init__(self, t: int):
        self.t = t
        super().__init__(f"numerically rank-deficient frame at step {t}")


def as_dense(G) -> np.ndarray:
    """G as a float ndarray; a CSR record or a scipy.sparse matrix is
    densified."""
    from scipy.sparse import issparse

    return np.asarray(G.toarray() if isinstance(G, CSR) or issparse(G) else G, dtype=float)


# the norms besides the package's infinity norm: the scipy.spatial.distance
# metric of the row-difference norm, and numpy's `ord` of the induced norm
PDIST_METRIC = {"one": "cityblock", "two": "euclidean"}
NORM_ORD = {"one": 1, "two": 2}


def diam_in(L, kind: str):
    """diam with the named norm of the row differences: the package's
    diam for "inf", the largest pdist distance otherwise.  A stacked
    block of shape (m, K, n) gives the array of its K diameters."""
    if kind == "inf":
        return diam(L)
    if kind not in PDIST_METRIC:
        raise InvalidParamsError(f"unknown norm kind {kind!r}")
    L = np.asarray(L, dtype=float)
    if L.ndim == 3:
        return np.array([diam_in(L[:, k], kind) for k in range(L.shape[1])])
    L = _rows(L)
    if L.shape[0] < 2:
        return 0.0
    from scipy.spatial.distance import pdist

    return float(pdist(L, metric=PDIST_METRIC[kind]).max())


def matrix_norm_in(M, kind: str) -> float:
    """The induced matrix norm named kind; "inf" is the package's matrix_norm."""
    if kind == "inf":
        return matrix_norm(M)
    if kind not in NORM_ORD:
        raise InvalidParamsError(f"unknown norm kind {kind!r}")
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    return float(np.linalg.norm(M, NORM_ORD[kind])) if M.size else 0.0


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidParamsError(f"expected a 2-d array, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise InvalidParamsError("matrix has non-finite entries")
    return A


def make_stochastic(raw) -> np.ndarray:
    """Row-normalize a nonnegative square matrix.

    Returns the input (copied) untouched when it already satisfies the
    stochastic invariants, which makes the operation exactly idempotent.
    """
    A = _as_matrix(raw)
    if A.shape[0] != A.shape[1]:
        raise InvalidParamsError(f"matrix must be square, got shape {A.shape}")
    neg = np.argwhere(A < 0)
    if neg.size:
        i, j = map(int, neg[0])
        raise NegativeEntryError(i, j, float(A[i, j]))
    if is_stochastic(A):
        return A.copy()
    sums = A.sum(axis=1)
    zero = np.flatnonzero(sums == 0)
    if zero.size:
        raise ZeroRowError(int(zero[0]))
    return A / sums[:, None]


def eta(G) -> float:
    """Scramblingness: min over row pairs i,j of sum_k min(G_ik, G_jk).

    Only positive entries count, as in hajnal.support, so that eta > 0
    coincides exactly with the combinatorial scrambling test.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2:
        raise InvalidParamsError(f"expected a 2-d array, got ndim={G.ndim}")
    m = G.shape[0]
    if m < 2:
        return 1.0
    X = np.where(G > 0, G, 0.0)
    best = np.inf
    for i in range(m - 1):
        pair_sums = np.minimum(X[i], X[i + 1 :]).sum(axis=1)
        best = min(best, float(pair_sums.min()))
    return min(max(best, 0.0), 1.0)


class HajnalBound(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def hajnal_bound_check(G, H, kind: str = "inf") -> HajnalBound:
    """Evaluate both sides of diam(G H) <= (1 - eta(G)) * diam(H)."""
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    if G.shape != H.shape or G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise InvalidParamsError(
            f"need square matrices of equal shape, got {G.shape} and {H.shape}"
        )
    lhs = diam_in(G @ H, kind)
    rhs = (1.0 - eta(G)) * diam_in(H, kind)
    return HajnalBound(lhs, rhs, lhs <= rhs + BOUND_SLACK)


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


def lyapunov_spectrum_qr(source, horizon: int) -> List[float]:
    """All Lyapunov exponents of a square-matrix sequence, descending,
    via QR reorthonormalization of a full frame.  Sparse matrices are
    densified, since the frame is dense."""
    if horizon < 1:
        raise InvalidParamsError(f"horizon must be >= 1, got {horizon}")
    m = source.m
    Q = np.eye(m)
    logs = np.zeros(m)
    for t in range(horizon):
        Q, R = np.linalg.qr(as_dense(source.at(t)) @ Q)
        d = np.abs(np.diag(R))
        if np.any(d < 1e-300):
            raise SingularMatrixError(t)
        logs += np.log(d)
    return sorted((logs / horizon).tolist(), reverse=True)


def scalar_lyapunov_held(f, df, s0: float, burn_in: int, horizon: int) -> float:
    """The mean of log max(|df|, 1e-300) over the orbit after burn_in
    steps, with the whole orbit held in one array and averaged by
    np.mean; an orbit leaving |s| <= 1e12 raises OrbitDivergedError."""
    s = float(s0)
    for t in range(burn_in):
        s = f(s)
        if not abs(s) <= 1e12:
            raise OrbitDivergedError(t, s)
    orbit = np.empty(horizon)
    for k in range(horizon):
        orbit[k] = s
        s = f(s)
        if not abs(s) <= 1e12:
            raise OrbitDivergedError(burn_in + k, s)
    derivs = np.abs(np.asarray(df(orbit), dtype=float))
    return float(np.mean(np.log(np.maximum(derivs, 1e-300))))


def check_derivative(fmap, lo=0.0, hi=1.0, n=100, seed=0, h=1e-6):
    """Max scaled error of a scalar map's df against central differences
    of its f."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo + h, hi - h, size=n)
    fd = (np.asarray(fmap.f(pts + h)) - np.asarray(fmap.f(pts - h))) / (2 * h)
    claimed = np.asarray(fmap.df(pts))
    scale = np.maximum(1.0, np.abs(claimed))
    return float(np.max(np.abs(fd - claimed) / scale))
