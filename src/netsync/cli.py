"""Command line experiment runner.

Subcommands: spectrum | simulate | sweep | check | jsr. Every run is
fully determined by the config document plus its seed; outputs are CSV
('.' decimals, '#' metadata line embedding the config hash) and JSON
with sorted keys, so reruns diff clean.

Exit codes: 0 success, 2 config or input error, 3 numeric failure
(estimator non-convergence only escalates under --strict).
"""

import argparse
import json
import math
import sys
from bisect import bisect_right
from hashlib import sha256
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# bench/child.py wraps cli.simulate by name, so it stays a module global
from .cml import Orbit, make_sync_report, simulate  # noqa: F401
from .config import (
    ExperimentConfig,
    _as_matrix,
    _coerce,
    apply_parameter,
    build_map,
    build_source,
    config_hash,
    initial_state,
    probe_seed,
)
from .errors import (
    ConfigError,
    NetsyncError,
    OrbitDivergedError,
    SingularMatrixError,
    StateDivergedError,
)
from .estimators import (
    default_t0_samples,
    estimate_hajnal_diameter,
    estimate_scalar_lyapunov,
    estimate_sigma1,
)
from .hajnal import has_spanning_tree, is_scrambling
from .jsr import DEFAULT_MAX_LEN, DEFAULT_TOL, gripenberg
from .linalg import is_stochastic, project

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _read_json(path, where: str):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(where, f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(where, f"invalid JSON in {path}: {exc}") from exc


def _load_config(args):
    """The raw document, the validated config, its hash and the output directory."""
    raw = _read_json(args.config, "config")
    if args.seed is not None and isinstance(raw, dict):
        raw["seed"] = args.seed
    cfg = ExperimentConfig.from_json_dict(raw)
    out = Path(args.out or cfg.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return raw, cfg, config_hash(cfg), out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, meta: dict, header, rows) -> None:
    """A '#' line of key=value pairs, the header, then the rows, with
    floats written by repr and ints by str (bools as true or false),
    numpy scalars as the Python type they stand for; a cell's format
    follows its type, so a float column must hold floats."""
    lines = ["# " + " ".join(f"{k}={v}" for k, v in meta.items()), ",".join(header)]
    for row in rows:
        lines.append(",".join(
            str(v).lower() if isinstance(v, (int, np.integer, np.bool_)) else repr(float(v))
            for v in row
        ))
    path.write_text("\n".join(lines) + "\n")


def _exit_code(args, converged: bool, failure: str) -> int:
    if args.strict and not converged:
        print(f"strict: {failure}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _run_sigma1(cfg, source):
    return estimate_sigma1(
        source,
        horizon=cfg.estimator.horizon,
        renorm_every=cfg.estimator.renorm_every,
        n_vectors=cfg.estimator.n_vectors,
        seed=probe_seed(cfg),
    )


def run_sync_experiment(cfg):
    """Estimate sigma1 and mu, simulate; the SyncReport and sigma1 estimate.

    The single code path behind both `simulate` and each `sweep` row, so
    a one-value sweep reproduces the simulate summary exactly.  One pass
    over time serves both, so a driven source emits each time once: sigma1
    reads each time below its horizon once, in order, and each read also
    steps the orbit, which then finishes on the live source.  The orbit's
    divergence is raised after sigma1 returns, so sigma1's errors come first.
    """
    source = build_source(cfg)
    fmap = build_map(cfg)
    mu = cfg.map_spec.get("mu")
    if mu is None:
        mu = estimate_scalar_lyapunov(
            fmap.f, fmap.df, 0.3, cfg.estimator.mu_burn, cfg.estimator.mu_horizon
        )
        mu_source = "estimated"
    else:
        mu_source = "supplied"
    steps = cfg.simulation.steps
    orbit = Orbit(fmap, initial_state(cfg, source.m, fmap), steps, cfg.simulation.record_every)
    diverged = []

    def at(t):
        G = source.at(t)
        if t == orbit.t < steps and not diverged:
            try:
                orbit.step(G)
            except StateDivergedError as exc:
                diverged.append(exc)
        return G

    sig = _run_sigma1(cfg, SimpleNamespace(m=source.m, at=at))
    if diverged:
        raise diverged[0]
    for t in range(orbit.t, steps):
        orbit.step(source.at(t))
    return make_sync_report(orbit.run(), sig.value, mu, mu_source), sig


def cmd_spectrum(args) -> int:
    raw, cfg, h, out = _load_config(args)
    source = build_source(cfg)
    sig = _run_sigma1(cfg, source)
    diam_est = estimate_hajnal_diameter(
        source,
        horizon=cfg.estimator.horizon,
        t0_samples=cfg.estimator.t0_samples,
        renorm_every=cfg.estimator.renorm_every,
    )

    _write_csv(
        out / "sigma1_trace.csv",
        {
            "config_hash": h,
            "m": source.m,
            "horizon": cfg.estimator.horizon,
            "renorm_every": cfg.estimator.renorm_every,
            "collapsed": sig.collapsed,
            "converged": sig.converged,
        },
        ("t", "sigma1_estimate"),
        [((i + 1) * cfg.estimator.renorm_every, v) for i, v in enumerate(sig.trace)],
    )

    _write_json(
        out / "diam_estimate.json",
        {
            "config_hash": h,
            "diam": diam_est.to_json_dict(),
            "sigma1": sig.to_json_dict(),
        },
    )
    print(
        f"sigma1={sig.value:.6g} collapsed={sig.collapsed} converged={sig.converged}"
        f" | diam rate={diam_est.value:.6g} converged={diam_est.converged}"
    )
    print(f"wrote {out / 'sigma1_trace.csv'} and {out / 'diam_estimate.json'}")
    return _exit_code(args, sig.converged and diam_est.converged, "estimate did not converge")


def cmd_simulate(args) -> int:
    raw, cfg, h, out = _load_config(args)
    report, sig = run_sync_experiment(cfg)
    run = report.run
    # the fields sync_report.csv's metadata line shares with summary.json
    shared = {
        "m": run.m,
        "steps": run.steps,
        "sigma1": report.sigma1,
        "mu": report.mu,
        "W": report.W,
        "predicted_sync": report.predicted_sync,
        "observed_sync": run.observed_sync,
        "mu_source": report.mu_source,
        "config_hash": h,
    }
    _write_csv(
        out / "sync_report.csv",
        {
            **shared,
            "seed": cfg.seed,
            "map": cfg.map_spec["name"],
            "alpha": cfg.map_spec["alpha"],
            "x0_policy": cfg.simulation.x0_policy,
        },
        ("t", "K", "diam"),
        zip(run.times, run.k_series, run.diam_series),
    )
    _write_json(
        out / "summary.json",
        {
            **shared,
            "sigma1_converged": sig.converged,
            "sigma1_collapsed": sig.collapsed,
            "indeterminate": report.indeterminate,
            "K_post_transient": run.k_final_quarter,
            "final_diam": run.diam_series[-1],
        },
    )
    verdict = "indeterminate" if report.indeterminate else (
        "sync predicted" if report.predicted_sync else "sync not predicted"
    )
    print(
        f"W={report.W:.6g} ({verdict}; mu {report.mu_source}),"
        f" observed_sync={run.observed_sync},"
        f" K_post_transient={run.k_final_quarter:.6g}"
    )
    print(f"wrote {out / 'sync_report.csv'} and {out / 'summary.json'}")
    return _exit_code(args, sig.converged, "sigma1 estimate did not converge")


def _sweep_row(cfg):
    """The sweep.csv cells after the parameter; whether sigma1 settled."""
    report, sig = run_sync_experiment(cfg)
    run = report.run
    cells = (run.k_final_quarter, report.W, report.predicted_sync, run.observed_sync)
    return cells, sig.converged or sig.collapsed


def _parse_values(text: str):
    try:
        vals = json.loads(text)
        if not isinstance(vals, list):
            raise ValueError
        return vals
    except (json.JSONDecodeError, ValueError):
        pass
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            vals.append(int(tok))
        except ValueError:
            try:
                vals.append(float(tok))
            except ValueError as exc:
                raise ConfigError("values", f"cannot parse {tok!r}") from exc
    return vals


def cmd_sweep(args) -> int:
    raw, cfg, h, out = _load_config(args)
    values = _parse_values(args.values)
    if not values:
        raise ConfigError("values", "sweep needs at least one value")
    # every row is validated, and its value read as a number, before any runs
    cfgs = [
        ExperimentConfig.from_json_dict(apply_parameter(raw, args.parameter, v))
        for v in values
    ]
    params = [_coerce(v, float, "values") for v in values]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_row, cfgs))
    else:
        rows = list(map(_sweep_row, cfgs))

    _write_csv(
        out / "sweep.csv",
        {"config_hash": h, "parameter": args.parameter},
        ("parameter", "K", "W", "predicted_sync", "observed_sync"),
        [(v, *cells) for v, (cells, _) in zip(params, rows)],
    )
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return _exit_code(args, all(ok for _, ok in rows), "a sigma1 estimate did not converge")


def _union_tables(source, starts, t_max: int):
    """For each start t0 of the ascending distinct starts and the windows
    [t0, t0+T), T = 1..t_max: a table holding, per edge of the largest
    union, t_max + 1 - T for the first T whose union holds it (0
    elsewhere), and the first T whose union has a spanning tree (None if
    none).  Unions only grow with T, so the union at any T is the table's
    entries >= t_max + 1 - T, and while the table is built up to T it
    holds exactly that union.  One ascending pass over time reads each
    time once, holding one matrix, into every window open at that time.
    A table is built as a sparse CSR array and, once its window closes,
    kept in whichever of that and a dense array is smaller."""
    from scipy.sparse import csr_array

    m = source.m
    dtype = np.min_scalar_type(t_max)
    tables = dict.fromkeys(starts, csr_array((m, m), dtype=dtype))
    tree_T = dict.fromkeys(starts)
    for t in range(starts[0], starts[-1] + t_max):
        open_starts = starts[bisect_right(starts, t - t_max) : bisect_right(starts, t)]
        if not open_starts:
            continue
        # int32 coordinates give int32 indices; scipy keeps int64 ones
        coords = tuple(ix.astype(np.int32) for ix in (source.at(t) > 0).nonzero())
        for t0 in open_starts:
            T = t - t0 + 1
            late = np.full(coords[0].size, t_max + 1 - T, dtype=dtype)
            table = tables[t0] = tables[t0].maximum(csr_array((late, coords), shape=(m, m)))
            if tree_T[t0] is None and has_spanning_tree(table) is not None:
                tree_T[t0] = T
            # a stored entry costs its value and an int32 index, so past about
            # a fifth of m * m entries (uint8 values) the dense table is smaller
            csr_bytes = table.data.nbytes + table.indices.nbytes + table.indptr.nbytes
            if T == t_max and csr_bytes > dtype.itemsize * m * m:
                tables[t0] = table.toarray()
    return {t0: (tables[t0], tree_T[t0]) for t0 in starts}


def cmd_check(args) -> int:
    raw, cfg, h, out = _load_config(args)
    if args.t_max < 1:
        raise ConfigError("t_max", "must be >= 1")
    source = build_source(cfg)
    t0s = cfg.estimator.t0_samples or default_t0_samples(cfg.estimator.horizon)

    per_start = _union_tables(source, sorted(set(t0s)), args.t_max)
    tree_Ts = [per_start[t0][1] for t0 in t0s]
    # having a spanning tree is monotone in T, so the smallest T at
    # which every sampled window has one is the largest first T
    found = None if None in tree_Ts else max(tree_Ts)
    report_T = found if found is not None else args.t_max
    windows = []
    for t0 in t0s:
        support = per_start[t0][0] >= args.t_max + 1 - report_T
        windows.append(
            {
                "t0": t0,
                "T": report_T,
                "has_tree": has_spanning_tree(support) is not None,
                "scrambling": is_scrambling(support),
            }
        )
    _write_json(
        out / "check_report.json",
        {"config_hash": h, "t_max": args.t_max, "t_found": found, "windows": windows},
    )
    if found is None:
        print(f"no window length T <= {args.t_max} gives all sampled unions a spanning tree")
    else:
        print(f"smallest window with spanning-tree unions at all sampled starts: T={found}")
    print(f"wrote {out / 'check_report.json'}")
    return EXIT_OK


def cmd_jsr(args) -> int:
    data = _read_json(args.matrix_set, "matrix_set")
    mats_raw = data.get("matrices") if isinstance(data, dict) else data
    if not isinstance(mats_raw, list) or not mats_raw:
        raise ConfigError("matrix_set.matrices", "expected a nonempty list of matrices")
    rows, mats = [], []
    for k, M in enumerate(mats_raw):
        where = f"matrix_set.matrices[{k}]"
        rows.append(_coerce(M, _as_matrix, where))
        arr = np.array(rows[-1])
        if arr.shape != (mats[0].shape if mats else arr.shape):
            raise ConfigError(where, "dimension mismatch")
        if arr.shape[0] < 2:
            raise ConfigError(where, "need at least 2x2")
        if not is_stochastic(arr, tol=1e-9):
            raise ConfigError(where, "not row stochastic")
        mats.append(arr)

    h = sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()[:16]
    bounds = gripenberg([project(M) for M in mats], tol=args.tol, max_len=args.max_len)

    obj = {"config_hash": h, **bounds.to_json_dict(), "mu": args.mu}
    line = (
        f"jsr bounds: [{bounds.lower:.8g}, {bounds.upper:.8g}]"
        f" converged={bounds.converged}"
    )
    if args.mu is not None:
        log_upper = math.log(bounds.upper) if bounds.upper > 0 else -math.inf
        W_bound = log_upper + args.mu
        verdict = "synchronized" if W_bound < 0 else "not guaranteed"
        obj["log_upper_plus_mu"] = W_bound
        obj["verdict"] = verdict
        line += f" | W bound {W_bound:.6g} -> {verdict}"
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "jsr_bounds.json", obj)
    print(line)
    print(f"wrote {out / 'jsr_bounds.json'}")
    return _exit_code(args, bounds.converged, "bounds gap above tolerance")


def _add_common(sp):
    sp.add_argument("--config", required=True, help="path to a JSON experiment config")
    sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    sp.add_argument("--out", default=None, help="output directory (default: config out or cwd)")
    sp.add_argument("--strict", action="store_true", help="non-convergence exits 3")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="netsync",
        description="Synchronization analysis of coupled map lattices over time-varying networks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="sigma1 trace and Hajnal diameter rate")
    _add_common(sp)
    sp.set_defaults(handler=cmd_spectrum)

    sp = sub.add_parser("simulate", help="run the lattice and report K(t), diam(t), W")
    _add_common(sp)
    sp.set_defaults(handler=cmd_simulate)

    sp = sub.add_parser("sweep", help="rerun the experiment over a parameter grid")
    _add_common(sp)
    sp.add_argument("--parameter", required=True, help="config field to vary (e.g. p or source.p)")
    sp.add_argument("--values", required=True, help="JSON list or comma-separated values")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    sp.set_defaults(handler=cmd_sweep)

    sp = sub.add_parser("check", help="smallest window length with spanning-tree unions")
    _add_common(sp)
    sp.add_argument("--t-max", type=int, default=8, dest="t_max")
    sp.set_defaults(handler=cmd_check)

    sp = sub.add_parser("jsr", help="certified bounds on the projection joint spectral radius")
    sp.add_argument("matrix_set", help="JSON file: list of stochastic matrices or {'matrices': [...]}")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN, dest="max_len")
    sp.add_argument("--mu", type=float, default=None, help="scalar map exponent for the verdict")
    sp.add_argument("--out", default=None)
    sp.add_argument("--strict", action="store_true")
    sp.set_defaults(handler=cmd_jsr)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (StateDivergedError, OrbitDivergedError, SingularMatrixError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except NetsyncError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
