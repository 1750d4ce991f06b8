"""The benchmark's workloads: seeded input generators and output checks.

Each workload turns the benchmark seed into the files the program reads
(a config or a `matrices.json`), and checks the program's outputs after
the timed region. The program receives only those files.

Quantities that come from linear matrix products (sigma1, the diameter
rate, their convergence flags, `predicted_sync`) are checked tightly
against a reference recomputed here with a different algorithm: probes
and window products are propagated in node space in centred form
(`X <- G X; X -= X[0]`) instead of through the projected matrices. The
seed is chosen at run time, so the reference is recomputed rather than
stored. Quantities that come from chaotic orbits (`mu`,
`K_post_transient`, `final_diam`) move under legitimate rounding changes
and are only checked loosely. For `jsr` the bracket is checked for
soundness, not for its width.
"""

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

REL_TIGHT = 1e-9
MU_ABS_LOOSE = 0.05
SYNC_TOL = 1e-8
TAIL_RTOL = 0.10


class Input(NamedTuple):
    """One command line of a workload, minus `--out`."""

    name: str
    argv: list


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    return path


def _rows_normalised(A: np.ndarray) -> np.ndarray:
    return A / A.sum(axis=1, keepdims=True)


def _close(a: float, b: float, rel: float = REL_TIGHT) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _tail_converged_log(trace) -> bool:
    tail = np.asarray(trace[3 * len(trace) // 4 :])
    return tail.size > 0 and float(tail.max() - tail.min()) <= math.log(1.0 + TAIL_RTOL)


def _tail_converged_multiplicative(curve) -> bool:
    tail = np.asarray(curve[3 * len(curve) // 4 :])
    if tail.size == 0:
        return False
    hi, lo = float(tail.max()), float(tail.min())
    return hi <= 0.0 or (hi - lo) / hi < TAIL_RTOL


# ------------------------------------------------------------ references


def _source_and_cfg(config: dict):
    from netsync.config import ExperimentConfig, build_source

    cfg = ExperimentConfig.from_json_dict(config)
    return cfg, build_source(cfg)


def _matrix_stream(source, steps: int):
    """G(0), ..., G(steps-1) as dense arrays (a process may emit
    scipy.sparse), without keeping them: a driven process is stepped
    directly so the reference does not cache every matrix."""
    process = getattr(source, "process", None)
    for t in range(steps):
        G = process.step() if process is not None else source.at(t)
        yield G.toarray() if hasattr(G, "toarray") else np.asarray(G, dtype=float)


def reference_sigma1(config: dict):
    """(value, converged) of the top transverse exponent, propagating
    the probes in node space: P X(t) equals the projected probes, and
    subtracting a consensus row leaves P X unchanged."""
    from netsync.config import probe_seed

    cfg, source = _source_and_cfg(config)
    est = cfg.estimator
    m, n = source.m, est.n_vectors
    rng = np.random.default_rng(probe_seed(cfg))
    V = rng.standard_normal((n, m - 1)).T.copy()
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    X = np.vstack([np.cumsum(V[::-1], axis=0)[::-1], np.zeros((1, n))])
    logs = np.zeros(n)
    trace = []
    for t, G in enumerate(_matrix_stream(source, est.horizon), start=1):
        X = G @ X
        X -= X[0]
        if t % est.renorm_every == 0:
            norms = np.linalg.norm(X[:-1] - X[1:], axis=0)
            logs += np.log(norms)
            X /= norms
            trace.append(float(logs.max()) / t)
    if est.horizon % est.renorm_every:
        norms = np.linalg.norm(X[:-1] - X[1:], axis=0)
        value = float((logs + np.log(norms)).max()) / est.horizon
    else:
        value = float(logs.max()) / est.horizon
    return value, _tail_converged_log(trace)


def reference_diameter_rate(config: dict):
    """(value, converged) of the Hajnal diameter rate over the default
    window starts, all windows advanced together. Rows of each window
    product are kept relative to its row 0, so they never coalesce."""
    from netsync.estimators import default_t0_samples

    cfg, source = _source_and_cfg(config)
    horizon = cfg.estimator.horizon
    t0s = np.asarray(cfg.estimator.t0_samples or default_t0_samples(horizon))
    m = source.m
    seq = np.stack(list(_matrix_stream(source, int(t0s.max()) + horizon)))
    Y = np.broadcast_to(np.eye(m) - np.eye(m)[0], (t0s.size, m, m)).copy()
    logscale = np.zeros(t0s.size)
    best = np.zeros(horizon)
    for t in range(1, horizon + 1):
        Y = seq[t0s + t - 1] @ Y
        Y -= Y[:, :1, :]
        s = np.abs(Y).max(axis=(1, 2))
        Y /= s[:, None, None]
        logscale += np.log(s)
        d = (Y.max(axis=1) - Y.min(axis=1)).max(axis=1)
        best[t - 1] = float(np.exp((np.log(d) + logscale) / t).max())
    return float(best[-1]), _tail_converged_multiplicative(best)


def reference_mu(config: dict) -> float:
    """Lyapunov exponent of the logistic map from s0 = 0.3."""
    from netsync.config import ExperimentConfig

    cfg = ExperimentConfig.from_json_dict(config)
    alpha = cfg.map_spec["alpha"]
    s = 0.3
    for _ in range(cfg.estimator.mu_burn):
        s = alpha * s * (1.0 - s)
    total = 0.0
    for _ in range(cfg.estimator.mu_horizon):
        total += math.log(max(abs(alpha * (1.0 - 2.0 * s)), 1e-300))
        s = alpha * s * (1.0 - s)
    return total / cfg.estimator.mu_horizon


def projected(G: np.ndarray) -> np.ndarray:
    """P G P+ in the difference basis, in closed form."""
    m = G.shape[0]
    return (G[:-1] - G[1:]) @ np.triu(np.ones((m, m - 1)))


def brute_force_lower(mats, max_len: int) -> float:
    """max over all words of length <= max_len of rho(word)^(1/length)."""
    mats = np.stack(mats)
    level = mats
    best = 0.0
    for length in range(1, max_len + 1):
        rho = np.abs(np.linalg.eigvals(level)).max(axis=1)
        best = max(best, float(rho.max()) ** (1.0 / length))
        if length < max_len:
            level = (mats[:, None] @ level[None]).reshape(-1, *mats.shape[1:])
    return best


def word_rate(mats, word) -> float:
    P = mats[word[0]]
    for a in word[1:]:
        P = mats[a] @ P
    return float(np.abs(np.linalg.eigvals(P)).max()) ** (1.0 / len(word))


# ------------------------------------------------------------- workloads


class BlinkingSimulate:
    """`netsync simulate` on a dense blinking network at m = 500."""

    name = "blinking-m500-simulate"
    m = 500

    def inputs(self, seed: int, workdir: Path):
        self.config = {
            "seed": seed,
            "source": {"variant": "blinking", "m": self.m, "avg_degree": 12,
                       "p": 0.01, "t_rec": 3},
            "map": {"name": "logistic", "alpha": 3.9},
            "estimator": {"horizon": 400},
            "simulation": {"steps": 400},
        }
        path = _write_json(workdir / "config.json", self.config)
        return [Input("config", ["simulate", "--config", str(path)])]

    def read(self, out: Path) -> dict:
        csv_rows = (out / "sync_report.csv").read_text().splitlines()
        return {"summary": json.loads((out / "summary.json").read_text()),
                "csv_rows": len(csv_rows)}

    def reference(self, inp: Input) -> dict:
        sigma1, converged = reference_sigma1(self.config)
        return {"sigma1": sigma1, "converged": converged,
                "mu": reference_mu(self.config)}

    def check(self, output: dict, ref: dict):
        s = output["summary"]
        steps = self.config["simulation"]["steps"]
        problems = []
        if (s["m"], s["steps"], output["csv_rows"]) != (self.m, steps, steps + 3):
            problems.append("summary size or sync_report.csv row count")
        if not _close(s["sigma1"], ref["sigma1"]):
            problems.append(f"sigma1 {s['sigma1']!r} != reference {ref['sigma1']!r}")
        if s["sigma1_converged"] != ref["converged"] or s["sigma1_collapsed"]:
            problems.append("sigma1 converged/collapsed flags")
        if abs(s["mu"] - ref["mu"]) > MU_ABS_LOOSE or s["mu_source"] != "estimated":
            problems.append(f"mu {s['mu']!r} far from reference {ref['mu']!r}")
        if abs(s["W"] - (s["sigma1"] + s["mu"])) > 1e-12:
            problems.append("W != sigma1 + mu")
        if s["predicted_sync"] != (ref["sigma1"] + s["mu"] < 0):
            problems.append("predicted_sync disagrees with the reference sigma1 + mu")
        if not (0.0 <= s["K_post_transient"] <= 1.0 and 0.0 <= s["final_diam"] <= 1.0):
            problems.append("K_post_transient or final_diam out of [0, 1]")
        if s["observed_sync"] != (s["final_diam"] < SYNC_TOL):
            problems.append("observed_sync disagrees with final_diam")
        return problems


class FiniteSetSpectrum:
    """`netsync spectrum` on an IID finite set of three 6x6 matrices."""

    name = "finite-set-spectrum"
    m = 6

    def inputs(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        m = self.m
        mats = [
            _rows_normalised(rng.random((m, m)) + 0.2 + np.diag(rng.uniform(0.5, 1.5, m)))
            for _ in range(3)
        ]
        self.config = {
            "seed": seed,
            "source": {"variant": "finite_set", "matrices": [M.tolist() for M in mats]},
            "map": {"name": "logistic", "alpha": 3.9},
            "estimator": {"horizon": 8000},
        }
        path = _write_json(workdir / "config.json", self.config)
        return [Input("config", ["spectrum", "--config", str(path)])]

    def read(self, out: Path) -> dict:
        trace_rows = (out / "sigma1_trace.csv").read_text().splitlines()
        return {"estimate": json.loads((out / "diam_estimate.json").read_text()),
                "trace_rows": len(trace_rows)}

    def reference(self, inp: Input) -> dict:
        sigma1, s_conv = reference_sigma1(self.config)
        diam, d_conv = reference_diameter_rate(self.config)
        return {"sigma1": sigma1, "sigma1_converged": s_conv,
                "diam": diam, "diam_converged": d_conv}

    def check(self, output: dict, ref: dict):
        sig, dia = output["estimate"]["sigma1"], output["estimate"]["diam"]
        horizon = self.config["estimator"]["horizon"]
        problems = []
        if len(dia["curve"]) != horizon or output["trace_rows"] != 2 + horizon // 8:
            problems.append("diameter curve length or sigma1_trace.csv row count")
        if not _close(sig["value"], ref["sigma1"]):
            problems.append(f"sigma1 {sig['value']!r} != reference {ref['sigma1']!r}")
        if sig["converged"] != ref["sigma1_converged"] or sig["collapsed"]:
            problems.append("sigma1 converged/collapsed flags")
        if not _close(dia["value"], ref["diam"]):
            problems.append(f"diameter rate {dia['value']!r} != reference {ref['diam']!r}")
        if dia["converged"] != ref["diam_converged"]:
            problems.append("diameter converged flag")
        return problems


class JsrTreePairs:
    """`netsync jsr` on a batch of pairs of 3-node stochastic matrices,
    each containing a spanning tree, at the CLI defaults."""

    name = "jsr-tree-pairs"
    m = 3
    pairs = 16
    brute_len = 10

    @staticmethod
    def stochastic_with_tree(rng, m: int) -> np.ndarray:
        A = np.eye(m) * rng.uniform(0.3, 1.0)
        order = rng.permutation(m)
        for k in range(m - 1):
            A[order[k + 1], order[k]] = rng.uniform(0.3, 1.0)
        A += (rng.random((m, m)) < 0.4) * rng.random((m, m))
        return _rows_normalised(A)

    def inputs(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.sets = {}
        inputs = []
        for k in range(self.pairs):
            mats = [self.stochastic_with_tree(rng, self.m) for _ in range(2)]
            name = f"pair{k:02d}"
            self.sets[name] = mats
            path = _write_json(workdir / f"{name}.json",
                               {"matrices": [M.tolist() for M in mats]})
            inputs.append(Input(name, ["jsr", str(path)]))
        return inputs

    def read(self, out: Path) -> dict:
        return json.loads((out / "jsr_bounds.json").read_text())

    def reference(self, inp: Input) -> dict:
        proj = [projected(np.asarray(M)) for M in self.sets[inp.name]]
        return {"projected": proj, "brute": brute_force_lower(proj, self.brute_len)}

    def check(self, b: dict, ref: dict):
        problems = []
        if not b["lower"] <= b["upper"]:
            problems.append(f"lower {b['lower']!r} > upper {b['upper']!r}")
        if not b["witness"] or not _close(b["lower"], word_rate(ref["projected"], b["witness"])):
            problems.append("lower is not the witness product's rho^(1/len)")
        if not ref["brute"] <= b["upper"] * (1.0 + 1e-12):
            problems.append(f"brute-force lower {ref['brute']!r} above upper {b['upper']!r}")
        if b["converged"] != (b["upper"] - b["lower"] <= b["tol"] * (1.0 + 1e-12)):
            problems.append("converged flag disagrees with the bracket")
        if b["node_count"] < 1:
            problems.append("no search nodes")
        return problems


WORKLOADS = {w.name: w for w in (BlinkingSimulate, FiniteSetSpectrum, JsrTreePairs)}
