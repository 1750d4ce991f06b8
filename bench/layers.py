"""Per-layer metrics from the sidecars of traced invocations.

A span's self time is its duration minus its child spans and minus the
busy time of the outermost hot calls made inside it. Additive figures
(counts, seconds) are reported per invocation, averaged over the traced
invocations of a run; rates and ratios are totals over totals.
"""

from collections import defaultdict

MIB = 2**20


def _safe_div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(traced, untraced, m: int) -> dict:
    """traced/untraced: invocation records (dicts with `wall_s`, `spawn`,
    `sidecar` and, for `jsr`, the parsed `output`)."""
    tot = defaultdict(float)
    nodes_total = 0
    depth_max = 0
    gaps = []
    converged = 0
    for rec in traced:
        sc = rec["sidecar"]
        tot["setup.import_s"] += sc["t_import"] - rec["spawn"]
        tot["process.exit_s"] += rec["spawn"] + rec["wall_s"] - _cli_span(sc)["end"]
        child_s = defaultdict(float)
        for s in sc["spans"]:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        for s in sc["spans"]:
            dur = s["end"] - s["start"]
            hot_s = sum(v[1] for v in s["hot"].values())
            tot[s["name"] + ".busy_s"] += dur
            tot[s["name"] + ".self_s"] += dur - child_s[s["id"]] - hot_s
            tot[s["name"] + ".at_calls"] += s["hot"].get("sources.at", [0, 0.0])[0]
        for name, (calls, busy) in sc["hot"].items():
            tot[name + ".calls"] += calls
            tot[name + ".busy_s"] += busy
        out = rec.get("output")
        if out is not None and "node_count" in out:
            nodes_total += out["node_count"]
            depth_max = max(depth_max, out["depth_reached"])
            gaps.append(out["upper"] - out["lower"])
            converged += bool(out["converged"])

    n = max(len(traced), 1)
    step_calls = tot["processes.step.calls"]
    at_calls = tot["sources.at.calls"]
    per = lambda key: tot[key] / n  # noqa: E731
    overhead = _safe_div(sum(r["wall_s"] for r in traced), len(traced)) - _safe_div(
        sum(r["wall_s"] for r in untraced), len(untraced)
    )
    return {
        "processes.step.calls": per("processes.step.calls"),
        "processes.step.busy_s": per("processes.step.busy_s"),
        "sources.at.calls": per("sources.at.calls"),
        "sources.at.self_s": (tot["sources.at.busy_s"] - tot["processes.step.busy_s"]) / n,
        "sources.hit_ratio": 1.0 - step_calls / at_calls if at_calls else 0.0,
        "sources.held_mb": step_calls / n * m * m * 8 / MIB,
        "estimators.sigma1.self_s": per("estimators.sigma1.self_s"),
        "estimators.sigma1.steps_per_s": _safe_div(
            tot["estimators.sigma1.at_calls"], tot["estimators.sigma1.busy_s"]),
        "estimators.diameter.self_s": per("estimators.diameter.self_s"),
        "estimators.diameter.window_steps_per_s": _safe_div(
            tot["estimators.diameter.at_calls"], tot["estimators.diameter.busy_s"]),
        "hajnal.diam.calls": per("hajnal.diam.calls"),
        "hajnal.diam.busy_s": per("hajnal.diam.busy_s"),
        "estimators.mu.busy_s": per("estimators.mu.busy_s"),
        "cml.simulate.self_s": per("cml.simulate.self_s"),
        "cml.simulate.steps_per_s": _safe_div(
            tot["cml.simulate.at_calls"], tot["cml.simulate.busy_s"]),
        "jsr.gripenberg.self_s": per("jsr.gripenberg.self_s"),
        "jsr.nodes": nodes_total / n,
        "jsr.nodes_per_s": _safe_div(nodes_total, tot["jsr.gripenberg.busy_s"]),
        "jsr.depth_max": depth_max,
        "jsr.converged_ratio": _safe_div(converged, len(gaps)),
        "jsr.gap_mean": _safe_div(sum(gaps), len(gaps)),
        "linalg.spectral_radius.calls": per("linalg.spectral_radius.calls"),
        "linalg.spectral_radius.busy_s": per("linalg.spectral_radius.busy_s"),
        "linalg.matrix_norm.calls": per("linalg.matrix_norm.calls"),
        "linalg.matrix_norm.busy_s": per("linalg.matrix_norm.busy_s"),
        "setup.import_s": per("setup.import_s"),
        "config.load.busy_s": per("config.load.busy_s"),
        "cli.self_s": per("cli.self_s"),
        "process.exit_s": per("process.exit_s"),
        "trace.overhead_s": overhead,
    }


def _cli_span(sidecar) -> dict:
    return next(s for s in sidecar["spans"] if s["name"] == "cli")


def accounted_share(rec) -> float:
    """Share of a traced invocation's wall time covered by process start
    through `import netsync.cli`, the `cli` span (which the layer self
    times partition) and process exit after `main` returns."""
    sc = rec["sidecar"]
    cli = _cli_span(sc)
    exit_s = rec["spawn"] + rec["wall_s"] - cli["end"]
    return ((sc["t_import"] - rec["spawn"]) + (cli["end"] - cli["start"]) + exit_s) / rec["wall_s"]
