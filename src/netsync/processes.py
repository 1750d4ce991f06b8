"""Stateful generators of time-varying coupling topologies.

Two mechanisms:

* blinking: vertices of a scale-free base graph fail at random and sit
  out a fixed recovery time, taking their rows and columns with them;
* blurring: every pair of vertices is coupled by one live orientation
  whose weight diffuses under Gaussian increments, and an edge driven
  negative reverses its orientation with the overflow magnitude.

Both expose .m and .step() -> row stochastic matrix, the interface
DrivenSource wraps.  Blinking emits a linalg.CSR record built in O(nnz)
from the base edge list; blurring couples every pair, so it emits a
dense ndarray.  Both emit fresh read-only arrays, which a DrivenSource
holds without a copy.  DrivenSource steps a process forward only, so a
caller that reads a time twice (spectrum's diameter pass) builds a
second process from the same seed, which emits the same matrices.
"""

import numpy as np

from .errors import InvalidParamsError
from .linalg import CSR

# the most int64 or float64 entries one numpy array can address
MAX_ENTRIES = np.iinfo(np.intp).max // 8


def scale_free_graph(m, avg_degree, seed):
    """Preferential-attachment graph as an (E, 2) array of undirected
    edges, each listed once.

    Starts from a clique on k+1 vertices (k = avg_degree // 2); each
    arrival attaches to k distinct existing vertices drawn from the stub
    list, so attachment probability is proportional to current degree.
    The stub list holds both endpoints of every edge in order, so its
    consecutive pairs are the edges.  Always connected; realized mean
    degree approaches avg_degree from below as m grows.
    """
    m = int(m)
    avg_degree = int(avg_degree)
    if avg_degree < 2 or avg_degree % 2 != 0:
        raise InvalidParamsError(f"avg_degree must be even and >= 2, got {avg_degree}")
    if m <= avg_degree:
        raise InvalidParamsError(f"need m > avg_degree, got m={m}, avg_degree={avg_degree}")
    k = avg_degree // 2
    m0 = k + 1
    E = m0 * k // 2 + (m - m0) * k  # the clique's edges, then k per arrival
    if 2 * E > MAX_ENTRIES:
        raise InvalidParamsError(f"m={m} is too large: numpy cannot address its {E} edges")
    # allocated first, so that an m numpy cannot allocate fails before the loop
    edges = np.empty((E, 2), dtype=np.intp)
    rng = np.random.default_rng(seed)
    stubs = []
    for i in range(m0):
        for j in range(i):
            stubs.extend((i, j))
    for v in range(m0, m):
        targets = set()
        while len(targets) < k:
            targets.add(stubs[rng.integers(len(stubs))])
        for u in targets:
            stubs.extend((v, u))
    edges.reshape(-1)[:] = stubs
    return edges


def _validated_edges(m, edges):
    """The endpoint columns of an (E, 2) integer edge array on m
    vertices, checked for range, self-loops and repeated edges."""
    edges = np.asarray(edges)
    if edges.size == 0:
        edges = edges.reshape(0, 2).astype(np.intp)
    if edges.ndim != 2 or edges.shape[1] != 2 or not np.issubdtype(edges.dtype, np.integer):
        raise InvalidParamsError(f"edges must be an (E, 2) integer array, got {edges.shape}")
    if edges.size and (edges.min() < 0 or edges.max() >= m):
        raise InvalidParamsError(f"edge endpoint out of range for m={m}")
    a, b = edges.astype(np.intp).T
    if np.any(a == b):
        raise InvalidParamsError("base graph must have no self-loops")
    pair = np.minimum(a, b) * m + np.maximum(a, b)
    # sorted, a repeated edge sits beside its copy; np.unique would load numpy.ma
    pair.sort()
    if np.any(pair[1:] == pair[:-1]):
        raise InvalidParamsError("an edge is listed twice")
    return a, b


class BlinkingProcess:
    """Random vertex failures with a fixed recovery time.

    Per step: positive recovery timers tick down, then every up vertex
    fails independently with probability p (its timer jumps to t_rec).
    The emitted coupling is the base graph with down vertices' rows and
    columns removed, a unit diagonal added, and rows normalized, so a
    down vertex holds its state and nobody listens to it. A vertex that
    fails is already absent from the emission of the same step, and
    stays down for exactly t_rec emissions.

    The base graph is m vertices and an (E, 2) array of undirected
    edges, each listed once in either orientation.  The emission is a
    CSR record: the entries of base + I, both orientations of every edge
    plus the loops, sorted into row-major order, are filtered to those
    whose endpoints are both up (loops always stay), and each kept entry
    of row i is 1 / deg(i), the same value as the dense row
    normalization.  Its data, indices and indptr are fresh and read-only,
    so a DrivenSource holds the emission itself, without a copy.
    """

    def __init__(self, m, edges, p, t_rec, seed):
        m = int(m)
        if m < 1:
            raise InvalidParamsError(f"need at least one vertex, got {m}")
        a, b = _validated_edges(m, edges)
        if not 0.0 <= p <= 1.0:
            raise InvalidParamsError(f"failure probability must be in [0, 1], got {p}")
        if not 1 <= int(t_rec) < 2**63:
            raise InvalidParamsError(f"recovery time must be in [1, 2**63), got {t_rec}")
        self.p = float(p)
        self.t_rec = int(t_rec)
        self.m = m
        loops = np.arange(m)
        rows = np.concatenate((a, b, loops))
        cols = np.concatenate((b, a, loops))
        order = np.lexsort((cols, rows))
        self._rows, self._cols = rows[order], cols[order]
        # emitted int32 while the entry count fits: half the bytes of int64,
        # while the gathers keep numpy's native index type
        self._indices = self._cols.astype(np.int32 if rows.size < 2**31 else np.int64)
        self._loop = self._rows == self._cols
        self._timers = np.zeros(self.m, dtype=int)
        self._rng = np.random.default_rng(seed)

    @classmethod
    def from_params(cls, m, avg_degree, p, t_rec, seed):
        """Build the base graph and the failure stream from one seed."""
        graph_seed, fail_seed = np.random.SeedSequence(seed).spawn(2)
        return cls(m, scale_free_graph(m, avg_degree, graph_seed), p, t_rec, fail_seed)

    @property
    def down_timers(self):
        return self._timers.copy()

    def step(self):
        self._timers = np.maximum(self._timers - 1, 0)
        up = self._timers == 0
        fails = up & (self._rng.random(self.m) < self.p)
        self._timers[fails] = self.t_rec
        up &= ~fails
        keep = self._loop | (up[self._rows] & up[self._cols])
        rows = self._rows[keep]
        deg = np.bincount(rows, minlength=self.m)
        indptr = np.cumsum(np.concatenate(([0], deg)), dtype=self._indices.dtype)
        G = CSR(1.0 / deg[rows], self._indices[keep], indptr, self.m)
        for a in (G.data, G.indices, G.indptr):
            a.flags.writeable = False
        return G


class BlurringProcess:
    """Diffusing edge weights with orientation reversal at zero.

    Every unordered pair starts with one live orientation of weight
    uniform in [1, 2). Per step each live weight receives an independent
    N(0, r^2) increment; a weight driven negative moves its magnitude to
    the reversed edge (the original goes dead), so at most one
    orientation per pair is ever live. Rows with no in-edges fall back
    to a unit self-loop before row normalization.
    """

    def __init__(self, m, r, seed):
        m = int(m)
        if m < 2:
            raise InvalidParamsError(f"need at least two vertices, got {m}")
        if m * m > MAX_ENTRIES:
            raise InvalidParamsError(f"m={m} is too large: numpy cannot address m x m weights")
        if not r >= 0.0:
            raise InvalidParamsError(f"step deviation must be >= 0, got {r}")
        self.m = m
        self.r = float(r)
        self._rng = np.random.default_rng(seed)
        iu = np.triu_indices(m, 1)
        w0 = self._rng.uniform(1.0, 2.0, size=len(iu[0]))
        toward_upper = self._rng.random(len(iu[0])) < 0.5
        W = np.zeros((m, m))
        W[iu] = np.where(toward_upper, w0, 0.0)
        W[iu[1], iu[0]] = np.where(toward_upper, 0.0, w0)
        self._W = W

    @property
    def weights(self):
        return self._W.copy()

    def step(self):
        if self.r > 0.0:
            rows, cols = np.nonzero(self._W)
            vals = self._W[rows, cols] + self._rng.normal(0.0, self.r, size=rows.size)
            neg = vals < 0
            self._W[rows, cols] = np.where(neg, 0.0, vals)
            self._W[cols[neg], rows[neg]] = -vals[neg]
        A = self._W.copy()
        sums = A.sum(axis=1)
        dead = np.flatnonzero(sums == 0)
        if dead.size:
            A[dead, dead] = 1.0
            sums = A.sum(axis=1)
        A /= sums[:, None]
        A.flags.writeable = False
        return A
