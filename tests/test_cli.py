"""End-to-end tests of the command line harness."""

import copy
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import issparse

from graph_oracles import support, union, window_has_spanning_tree
import netsync.cli as cli
from netsync.cli import _run_sigma1, _union_tables, _write_csv, main, run_sync_experiment
from netsync.cml import ScalarMap, simulate
from netsync.config import ExperimentConfig, build_source, initial_state
from netsync.errors import ProcessExhaustedError, StateDivergedError
from netsync.estimators import default_t0_samples
from netsync.hajnal import has_spanning_tree, is_scrambling
from netsync.processes import BlinkingProcess, BlurringProcess
from netsync.sources import DrivenSource, StaticSource
from test_sources import A2, ListProcess


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def two_node_doc(a=0.25, **overrides):
    doc = {
        "seed": 7,
        "source": {
            "variant": "static",
            "matrix": [[1 - a, a], [a, 1 - a]],
        },
        "map": {"name": "logistic", "alpha": 3.9, "mu": 0.5},
        "estimator": {"horizon": 400},
        "simulation": {"steps": 800, "x0_policy": "near_diagonal"},
    }
    doc.update(overrides)
    return doc


def read_csv_rows(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


# ----------------------------------------------------------------- spectrum


def test_spectrum_static(tmp_path):
    cfg = write_config(tmp_path, two_node_doc())
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    header, rows = read_csv_rows(tmp_path / "o" / "sigma1_trace.csv")
    assert header == ["t", "sigma1_estimate"]
    assert len(rows) == 400 // 8
    assert float(rows[-1][1]) == pytest.approx(np.log(0.5), abs=1e-3)
    blob = json.loads((tmp_path / "o" / "diam_estimate.json").read_text())
    assert "config_hash" in blob
    assert blob["diam"]["value"] == pytest.approx(0.5, rel=1e-2)
    assert blob["sigma1"]["collapsed"] is False


def test_spectrum_rank_one_collapses(tmp_path):
    doc = two_node_doc()
    doc["source"]["matrix"] = [[0.3, 0.7], [0.3, 0.7]]
    cfg = write_config(tmp_path, doc)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    blob = json.loads((tmp_path / "o" / "diam_estimate.json").read_text())
    assert blob["sigma1"]["collapsed"] is True
    assert blob["sigma1"]["value"] == -np.inf
    _, rows = read_csv_rows(tmp_path / "o" / "sigma1_trace.csv")
    assert all(float(r[1]) == -np.inf for r in rows)


def test_spectrum_byte_identical_reruns(tmp_path):
    doc = {
        "seed": 5,
        "source": {
            "variant": "blinking",
            "m": 10,
            "avg_degree": 4,
            "p": 0.05,
            "t_rec": 3,
        },
        "map": {"name": "logistic", "alpha": 3.9, "mu": 0.5},
        "estimator": {"horizon": 160},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("sigma1_trace.csv", "diam_estimate.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ----------------------------------------------------------------- simulate


def test_simulate_two_node_syncs(tmp_path):
    cfg = write_config(tmp_path, two_node_doc())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["predicted_sync"] is True
    assert summary["observed_sync"] is True
    assert summary["mu_source"] == "supplied"
    assert summary["W"] == pytest.approx(np.log(0.5) + 0.5, abs=2e-3)
    header, rows = read_csv_rows(tmp_path / "o" / "sync_report.csv")
    assert header == ["t", "K", "diam"]
    assert "config_hash=" + summary["config_hash"] in (
        tmp_path / "o" / "sync_report.csv"
    ).read_text().split("\n")[0]


def test_simulate_diagonal_start_zero_k_column(tmp_path):
    doc = two_node_doc(simulation={"steps": 200, "x0_policy": "diagonal"})
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    _, rows = read_csv_rows(tmp_path / "o" / "sync_report.csv")
    assert all(float(r[1]) == 0.0 for r in rows)
    assert all(float(r[2]) == 0.0 for r in rows)


def test_simulate_identity_coupling_stays_apart(tmp_path):
    doc = two_node_doc()
    doc["source"]["matrix"] = [[1.0, 0.0], [0.0, 1.0]]
    doc["simulation"] = {"steps": 600, "x0_policy": "random"}
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["predicted_sync"] is False
    assert summary["observed_sync"] is False
    assert summary["W"] == pytest.approx(0.5, abs=1e-6)
    assert summary["K_post_transient"] > 1e-3


def test_simulate_rank_one_writes_negative_infinity(tmp_path):
    doc = two_node_doc()
    doc["source"]["matrix"] = [[0.3, 0.7], [0.3, 0.7]]
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "summary.json").read_text()
    assert '"W": -Infinity' in text
    summary = json.loads(text)
    assert summary["W"] == summary["sigma1"] == -np.inf
    assert summary["sigma1_collapsed"] is True
    assert summary["predicted_sync"] is True and summary["indeterminate"] is False
    meta = (tmp_path / "o" / "sync_report.csv").read_text().split("\n")[0]
    assert " W=-inf " in meta


def test_simulate_estimates_mu_when_absent(tmp_path):
    doc = two_node_doc()
    del doc["map"]["mu"]
    doc["estimator"]["mu_horizon"] = 20000
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["mu_source"] == "estimated"
    assert 0.4 < summary["mu"] < 0.6


def test_simulate_seed_override_changes_run(tmp_path):
    doc = two_node_doc(simulation={"steps": 50, "x0_policy": "random"})
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "b")]) == 0
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert sa["config_hash"] != sb["config_hash"]
    assert sa["final_diam"] != sb["final_diam"]


# -------------------------------------------------------------------- sweep


def blinking_sweep_doc():
    return {
        "seed": 9,
        "source": {
            "variant": "blinking",
            "m": 12,
            "avg_degree": 4,
            "p": 0.01,
            "t_rec": 3,
        },
        "map": {"name": "logistic", "alpha": 3.9, "mu": 0.5},
        "estimator": {"horizon": 240},
        "simulation": {"steps": 400, "x0_policy": "near_diagonal"},
    }


def test_sweep_rows_in_input_order(tmp_path):
    cfg = write_config(tmp_path, blinking_sweep_doc())
    code = main(
        [
            "sweep",
            "--config",
            cfg,
            "--parameter",
            "p",
            "--values",
            "[0.9, 0.001]",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 0
    header, rows = read_csv_rows(tmp_path / "o" / "sweep.csv")
    assert header == ["parameter", "K", "W", "predicted_sync", "observed_sync"]
    assert [float(r[0]) for r in rows] == [0.9, 0.001]


def test_sweep_single_value_matches_simulate(tmp_path):
    doc = blinking_sweep_doc()
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
    assert main(
        [
            "sweep",
            "--config",
            cfg,
            "--parameter",
            "p",
            "--values",
            "[0.01]",
            "--out",
            str(tmp_path / "sw"),
        ]
    ) == 0
    summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
    _, rows = read_csv_rows(tmp_path / "sw" / "sweep.csv")
    assert float(rows[0][1]) == summary["K_post_transient"]
    assert float(rows[0][2]) == summary["W"]
    assert rows[0][4] == str(summary["observed_sync"]).lower()


def test_sweep_rejects_empty_and_unknown(tmp_path, capsys):
    cfg = write_config(tmp_path, blinking_sweep_doc())
    assert main(["sweep", "--config", cfg, "--parameter", "p", "--values", "[]"]) == 2
    assert (
        main(["sweep", "--config", cfg, "--parameter", "warp", "--values", "[1]"]) == 2
    )
    # values the config accepts but sweep.csv cannot hold as numbers are
    # rejected before any row runs
    out = tmp_path / "o"
    for parameter, values in (("map.mu", "[null]"), ("simulation.x0_policy", '["random"]')):
        capsys.readouterr()
        assert main(["sweep", "--config", cfg, "--parameter", parameter,
                     "--values", values, "--out", str(out)]) == 2
        assert "'values'" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_jobs_write_the_serial_sweep(tmp_path):
    # the worker pool pickles each row's config to its worker
    cfg = write_config(tmp_path, blinking_sweep_doc())
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", cfg, "--parameter", "p", "--values",
                     "[0.9, 0.01, 0.001]", "--jobs", jobs, "--out", str(out)]) == 0
        written.append((out / "sweep.csv").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path, blinking_sweep_doc())
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--parameter", "p", "--values", "[0.01]",
                 "--jobs", jobs, "--out", str(out)]) == 2
    assert "'jobs'" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_dotted_parameter_left_at_its_default(tmp_path):
    # the document names neither alpha nor a simulation section
    doc = two_node_doc(map={"name": "logistic", "mu": 0.5})
    del doc["simulation"]
    cfg = write_config(tmp_path, doc)
    for parameter, values in (("map.alpha", "3.7,3.9"), ("simulation.steps", "[50]")):
        out = tmp_path / parameter
        assert main(["sweep", "--config", cfg, "--parameter", parameter,
                     "--values", values, "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "sweep.csv")
        assert [float(r[0]) for r in rows] == [float(v) for v in values.strip("[]").split(",")]
    assert main(["sweep", "--config", cfg, "--parameter", "source.bogus",
                 "--values", "[1]"]) == 2


def test_write_csv_reads_numpy_scalars_as_python_ones(tmp_path):
    rows = [(3, 0.5, True), (np.int64(3), np.float64(0.5), np.bool_(True))]
    _write_csv(tmp_path / "t.csv", {"k": "v"}, ("n", "x", "ok"), rows)
    assert (tmp_path / "t.csv").read_text() == "# k=v\nn,x,ok\n3,0.5,true\n3,0.5,true\n"


# ------------------------------------------------------ one pass over time


@pytest.fixture
def blinking_steps(monkeypatch):
    """A list that gains an entry at every BlinkingProcess.step, in every
    process, so it counts emissions across fresh sources."""
    calls = []
    step = BlinkingProcess.step

    def counted(self):
        calls.append(None)
        return step(self)

    monkeypatch.setattr(BlinkingProcess, "step", counted)
    return calls


def experiment(source, horizon, steps, record_every=1, x0_policy="near_diagonal"):
    doc = {
        "seed": 4,
        "source": source,
        "map": {"name": "logistic", "alpha": 3.9, "mu": 0.5},
        "estimator": {"horizon": horizon, "renorm_every": 4},
        "simulation": {"steps": steps, "record_every": record_every, "x0_policy": x0_policy},
    }
    return ExperimentConfig.from_json_dict(doc)


def two_passes(cfg):
    """The run and sigma1 estimate as sigma1 followed by simulate, each
    reading its own fresh source from t = 0."""
    fmap = cli.build_map(cfg)
    sig = _run_sigma1(cfg, cli.build_source(cfg))
    source = cli.build_source(cfg)
    x0 = initial_state(cfg, source.m, fmap)
    return simulate(source, fmap, x0, cfg.simulation.steps, cfg.simulation.record_every), sig


BLINKING_30 = {"variant": "blinking", "m": 30, "avg_degree": 4, "p": 0.2, "t_rec": 2}
BLURRING_12 = {"variant": "blurring", "m": 12, "r": 0.2}


@pytest.mark.parametrize("source", [BLINKING_30, BLURRING_12], ids=["blinking", "blurring"])
@pytest.mark.parametrize("horizon, steps, record_every", [
    (40, 100, 1), (40, 40, 1), (100, 40, 1), (40, 100, 7), (100, 40, 3), (40, 0, 1),
])
def test_run_sync_experiment_matches_two_passes(
    blinking_steps, source, horizon, steps, record_every
):
    cfg = experiment(source, horizon, steps, record_every)
    expected_run, expected_sig = two_passes(cfg)
    two_pass_steps = len(blinking_steps)
    blinking_steps.clear()
    report, sig = run_sync_experiment(cfg)
    assert sig == expected_sig
    run = report.run
    for name in ("m", "steps", "record_every", "times", "k_series", "diam_series",
                 "observed_sync", "k_final_quarter"):
        assert repr(getattr(run, name)) == repr(getattr(expected_run, name)), name
    assert run.final_state.tobytes() == expected_run.final_state.tobytes()
    if source is BLINKING_30:
        # sigma1 and the orbit share one emission per time
        assert len(blinking_steps) == max(horizon, steps)
        assert two_pass_steps == horizon + steps


GROW = ScalarMap(name="grow", f=lambda s: 5.0 * s, df=lambda s: 5.0, params={})


@pytest.mark.parametrize("horizon, steps", [(40, 100), (10, 100)])
def test_run_sync_experiment_raises_the_orbits_divergence(monkeypatch, horizon, steps):
    # x0 in [0, 1), so 5^t x0 passes 1e12 at t = 18: inside sigma1's
    # pass, or after it
    cfg = experiment(BLURRING_12, horizon, steps, x0_policy="random")
    monkeypatch.setattr(cli, "build_map", lambda c: GROW)
    with pytest.raises(StateDivergedError) as expected:
        two_passes(cfg)
    with pytest.raises(StateDivergedError) as raised:
        run_sync_experiment(cfg)
    assert raised.value.t == expected.value.t == 18
    assert raised.value.value == expected.value.value


def test_run_sync_experiment_raises_sigma1_errors_before_divergence(monkeypatch):
    # the orbit diverges at t = 18, sigma1 runs out of matrices at t = 30
    cfg = experiment(BLURRING_12, 40, 100, x0_policy="random")
    monkeypatch.setattr(cli, "build_map", lambda c: GROW)
    monkeypatch.setattr(cli, "build_source", lambda c: DrivenSource(ListProcess([A2] * 30)))
    with pytest.raises(ProcessExhaustedError):
        two_passes(cfg)
    with pytest.raises(ProcessExhaustedError):
        run_sync_experiment(cfg)


def test_diverging_simulate_exits_3_with_no_numpy_warnings(tmp_path, capsys):
    # an x0 spread by up to 1e200 is past the divergence limit before any update
    cfg = write_config(tmp_path, two_node_doc(simulation={"steps": 60, "x0_eps": 1e200}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: node state exceeded 1e12 at step 0 (max |x|=7.433e+199)\n"


def test_simulate_rejects_a_diverged_initial_state_without_steps(tmp_path, capsys):
    # with no update to overflow, K = inf was written into summary.json as
    # Infinity, which is not JSON
    cfg = write_config(tmp_path, two_node_doc(simulation={"steps": 0, "x0_eps": 1e200}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert "at step 0" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("doc, args, code", [
    (two_node_doc(), ["check", "--t-max", "0"], 2),
    (blinking_sweep_doc(), ["sweep", "--parameter", "p", "--values", "[]"], 2),
    (blinking_sweep_doc(), ["sweep", "--parameter", "warp", "--values", "[1]"], 2),
    (two_node_doc(simulation={"steps": 60, "x0_eps": 1e200}), ["simulate"], 3),
], ids=["check-t-max-0", "sweep-no-values", "sweep-unknown-parameter", "simulate-diverged"])
def test_rejected_and_failed_runs_leave_no_output_directory(tmp_path, doc, args, code):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, doc)
    assert main([*args, "--config", cfg, "--out", str(out)]) == code
    assert not out.exists()


def test_spectrum_emits_each_pass_from_t0(tmp_path, blinking_steps):
    # sigma1 reads 0..horizon-1, then the diameter pass reads a fresh
    # source from 0 to its last window's end; a pass that reads each
    # time once would emit max(horizon, max(t0) + horizon)
    horizon = 16
    doc = {"seed": 1, "source": BLINKING_30,
           "map": {"name": "logistic", "alpha": 3.9, "mu": 0.5},
           "estimator": {"horizon": horizon}}
    out = tmp_path / "o"
    assert main(["spectrum", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert len(blinking_steps) == horizon + max(default_t0_samples(horizon)) + horizon


def no_copy(self, memo):
    raise TypeError(f"{type(self).__name__} cannot be copied")


@pytest.mark.parametrize("source", [BLINKING_30, BLURRING_12], ids=["blinking", "blurring"])
def test_spectrum_simulate_and_check_need_no_copy_of_a_process(tmp_path, monkeypatch, source):
    doc = {"seed": 2, "source": source,
           "map": {"name": "logistic", "alpha": 3.9, "mu": 0.5},
           "estimator": {"horizon": 24}, "simulation": {"steps": 40}}
    cfg = write_config(tmp_path, doc)

    def outputs(name):
        for cmd in ("spectrum", "simulate", "check"):
            assert main([cmd, "--config", cfg, "--out", str(tmp_path / name)]) == 0
        return {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}

    expected = outputs("copyable")
    for cls in (BlinkingProcess, BlurringProcess):
        monkeypatch.setattr(cls, "__deepcopy__", no_copy, raising=False)
    with pytest.raises(TypeError, match="cannot be copied"):
        copy.deepcopy(build_source(ExperimentConfig.from_json_dict(doc)).process)
    assert outputs("uncopyable") == expected


# -------------------------------------------------------------------- check


def test_check_static_connected(tmp_path):
    cfg = write_config(tmp_path, two_node_doc())
    assert main(["check", "--config", cfg, "--t-max", "4", "--out", str(tmp_path / "o")]) == 0
    blob = json.loads((tmp_path / "o" / "check_report.json").read_text())
    assert blob["t_found"] == 1
    assert all(w["has_tree"] for w in blob["windows"])


def test_check_identity_never(tmp_path):
    doc = two_node_doc()
    doc["source"]["matrix"] = [[1.0, 0.0], [0.0, 1.0]]
    cfg = write_config(tmp_path, doc)
    assert main(["check", "--config", cfg, "--t-max", "3", "--out", str(tmp_path / "o")]) == 0
    blob = json.loads((tmp_path / "o" / "check_report.json").read_text())
    assert blob["t_found"] is None
    assert not any(w["has_tree"] for w in blob["windows"])


def test_check_periodic_pair_needs_two(tmp_path):
    doc = {
        "seed": 0,
        "source": {
            "variant": "periodic",
            "matrices": [
                [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]],
            ],
        },
        "map": {"name": "logistic", "alpha": 3.9, "mu": 0.5},
        "estimator": {"horizon": 64},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["check", "--config", cfg, "--t-max", "5", "--out", str(tmp_path / "o")]) == 0
    blob = json.loads((tmp_path / "o" / "check_report.json").read_text())
    assert blob["t_found"] == 2


def check_oracle(doc, t_max):
    """The report `check` writes, computed window length by window
    length, each union read from a fresh source."""
    cfg = ExperimentConfig.from_json_dict(doc)
    t0s = default_t0_samples(cfg.estimator.horizon)
    found = next(
        (T for T in range(1, t_max + 1)
         if all(window_has_spanning_tree(build_source(cfg), t0, T) for t0 in t0s)),
        None,
    )
    report_T = found or t_max
    windows = []
    for t0 in t0s:
        source = build_source(cfg)
        g = union(support(source.at(t0 + k)) for k in range(report_T))
        windows.append({"t0": t0, "T": report_T,
                        "has_tree": has_spanning_tree(g) is not None,
                        "scrambling": is_scrambling(g)})
    return found, windows


def dense_finite_set_source():
    # three 12 x 12 dense emissions, each about 20 % supported
    rng = np.random.default_rng(2)
    matrices = []
    for _ in range(3):
        S = np.eye(12) + (rng.random((12, 12)) < 0.2)
        matrices.append((S / S.sum(axis=1, keepdims=True)).tolist())
    return {"variant": "finite_set", "matrices": matrices}


BLINKING_16 = {"variant": "blinking", "m": 16, "avg_degree": 8, "p": 0.1, "t_rec": 3}
# its unions stay well under a fifth of m * m entries, so its tables stay CSR
BLINKING_100 = {"variant": "blinking", "m": 100, "avg_degree": 6, "p": 0.05, "t_rec": 3}


@pytest.mark.parametrize("source, t_max, t_found", [
    pytest.param(BLINKING_16, 4, None, id="4-None"),
    pytest.param(BLINKING_16, 8, 7, id="8-7"),
    pytest.param(BLINKING_100, 8, 7, id="sparse-8-7"),
    pytest.param(dense_finite_set_source(), 2, None, id="finite_set-2-None"),
    pytest.param(dense_finite_set_source(), 8, 3, id="finite_set-8-3"),
])
def test_check_blinking_matches_window_by_window_oracle(tmp_path, source, t_max, t_found):
    # window starts every 5 steps, so windows of length 8 overlap
    doc = {
        "seed": 5,
        "source": source,
        "map": {"name": "logistic", "alpha": 3.9, "mu": 0.5},
        "estimator": {"horizon": 40},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["check", "--config", cfg, "--t-max", str(t_max), "--out", str(out)]) == 0
    blob = json.loads((out / "check_report.json").read_text())
    found, windows = check_oracle(doc, t_max)
    assert blob["t_found"] == found == t_found
    assert blob["windows"] == windows
    assert 0 < sum(w["has_tree"] for w in windows) <= len(windows)


def test_check_reads_each_time_once(tmp_path, blinking_steps):
    # horizon 16 puts 16 starts 2 apart, so windows of length 8 overlap;
    # reading start by start replayed the process for every later start
    doc = {"seed": 1, "source": BLINKING_30,
           "map": {"name": "logistic", "alpha": 3.9, "mu": 0.5},
           "estimator": {"horizon": 16}}
    out = tmp_path / "o"
    assert main(["check", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    t0s = default_t0_samples(16)
    assert len(blinking_steps) == max(t0s) + 8
    found, windows = check_oracle(doc, 8)
    blob = json.loads((out / "check_report.json").read_text())
    assert (blob["t_found"], blob["windows"]) == (found, windows)


def test_check_windows_read_sparse_supports_without_densifying():
    # the table is sparse over the union's entries; a dense m x m uint8
    # table alone would be 3.8 MiB, and a dense float copy of a single
    # emission 30.5 MiB, at m = 2000
    import scipy.sparse.csgraph  # noqa: F401  (imported before tracing)

    src = DrivenSource(
        BlinkingProcess.from_params(m=2000, avg_degree=12, p=0.01, t_rec=3, seed=0)
    )
    src.at(0)
    tracemalloc.start()
    try:
        table, tree_T = _union_tables(src, [0], 8)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree_T is not None and table.dtype == np.uint8 and issparse(table)
    assert peak < 4 * 2**20


def test_check_dense_union_is_held_dense():
    # a stored CSR entry costs an int32 index besides its uint8 value
    table, tree_T = _union_tables(StaticSource(np.full((50, 50), 0.02)), [0], 8)[0]
    assert isinstance(table, np.ndarray) and table.dtype == np.uint8
    assert tree_T == 1 and (table == 8).all()


# ---------------------------------------------------------------------- jsr


def test_jsr_singleton_identity(tmp_path):
    mats = tmp_path / "set.json"
    mats.write_text(json.dumps([[[1.0, 0.0], [0.0, 1.0]]]))
    assert main(["jsr", str(mats), "--mu", "0.5", "--out", str(tmp_path / "o")]) == 0
    blob = json.loads((tmp_path / "o" / "jsr_bounds.json").read_text())
    assert blob["lower"] == pytest.approx(1.0, abs=1e-12)
    assert blob["upper"] == pytest.approx(1.0, abs=1e-12)
    assert blob["verdict"] == "not guaranteed"


def test_jsr_contracting_singleton_synchronized(tmp_path):
    mats = tmp_path / "set.json"
    mats.write_text(json.dumps({"matrices": [[[0.75, 0.25], [0.25, 0.75]]]}))
    assert main(["jsr", str(mats), "--mu", "0.2", "--out", str(tmp_path / "o")]) == 0
    blob = json.loads((tmp_path / "o" / "jsr_bounds.json").read_text())
    assert blob["upper"] == pytest.approx(0.5, abs=1e-9)
    assert blob["log_upper_plus_mu"] == pytest.approx(np.log(0.5) + 0.2, abs=1e-9)
    assert blob["verdict"] == "synchronized"


def test_jsr_malformed_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("definitely not json{")
    assert main(["jsr", str(bad)]) == 2
    assert main(["jsr", str(tmp_path / "missing.json")]) == 2
    nonstoch = tmp_path / "ns.json"
    nonstoch.write_text(json.dumps([[[0.9, 0.5], [0.1, 0.1]]]))
    assert main(["jsr", str(nonstoch)]) == 2
    # ragged and non-numeric matrices name the offending member
    identity = [[1.0, 0.0], [0.0, 1.0]]
    for bad_member in ([[0.5, 0.5], [1.0]], [["a", "b"], ["c", "d"]]):
        bad.write_text(json.dumps([identity, bad_member]))
        capsys.readouterr()
        assert main(["jsr", str(bad)]) == 2
        assert "matrix_set.matrices[1]" in capsys.readouterr().err


def test_jsr_accepts_row_sums_within_its_own_tolerance(tmp_path, capsys):
    # each row sum is within 1e-9 of 1, the tolerance `jsr` checks, but
    # they spread by 1.8e-9; a second, tighter spread check rejected the
    # set with no field path
    mats = tmp_path / "set.json"
    mats.write_text(json.dumps({"matrices": [
        [[0.5000000009, 0.5], [0.4999999991, 0.5]], [[1, 0], [0, 1]],
    ]}))
    assert main(["jsr", str(mats), "--out", str(tmp_path / "o")]) == 0, capsys.readouterr().err
    blob = json.loads((tmp_path / "o" / "jsr_bounds.json").read_text())
    assert (blob["lower"], blob["upper"]) == (1.0, 1.0)


@pytest.mark.parametrize("flag, value, field", [
    ("--mu", "nan", "'mu'"), ("--mu", "inf", "'mu'"), ("--mu", "-inf", "'mu'"),
    ("--tol", "nan", "tol"), ("--tol", "inf", "tol"),
])
def test_jsr_rejects_non_finite_flags(tmp_path, capsys, flag, value, field):
    # a NaN mu was written as NaN, which is not JSON
    mats = tmp_path / "set.json"
    mats.write_text(json.dumps([[[0.8, 0.2], [0.4, 0.6]]]))
    out = tmp_path / "o"
    assert main(["jsr", str(mats), f"{flag}={value}", "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not (out / "jsr_bounds.json").exists()


def test_jsr_strict_escalates_wide_gap(tmp_path):
    # stochastic pair whose projected letters shift difference directions
    # around a 3-cycle: every projected word of length <= 2 is nilpotent,
    # so the certified lower bound is stuck at 0 while the length-3 cycle
    # word has positive rate; no depth-2 run can converge
    A = [[0.25, 0.0, 0.25, 0.5], [0.25, 0.0, 0.25, 0.5],
         [0.0, 0.25, 0.25, 0.5], [0.0, 0.0, 0.5, 0.5]]
    B = [[0.25, 0.25, 0.5, 0.0], [0.25, 0.25, 0.25, 0.25],
         [0.25, 0.25, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]]
    mats = tmp_path / "set.json"
    mats.write_text(json.dumps([A, B]))
    args = [str(mats), "--tol", "1e-12", "--max-len", "2", "--out", str(tmp_path / "o")]
    assert main(["jsr"] + args + ["--strict"]) == 3
    assert main(["jsr"] + args) == 0  # gap reported, not fatal, without --strict
    blob = json.loads((tmp_path / "o" / "jsr_bounds.json").read_text())
    assert blob["converged"] is False
    assert blob["upper"] >= blob["lower"]


# ------------------------------------------------------------------- errors


def test_missing_config_file_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_invalid_config_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    assert main(["spectrum", "--config", str(p)]) == 2
    # --seed on a document that is not an object
    p.write_text("[1, 2]")
    capsys.readouterr()
    assert main(["simulate", "--config", str(p), "--seed", "3"]) == 2
    assert "'config': expected an object" in capsys.readouterr().err


def test_schema_violation_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"source": {"variant": "static"}, "map": {"name": "logistic"}})
    assert main(["check", "--config", cfg]) == 2


@pytest.mark.parametrize("t0_samples", [
    [], [0, -1],
    # a start past int64 reached the window walk as an object array and
    # died there with an IndexError; starts now stay below 2**62
    [10**30], [2**62],
])
def test_bad_t0_samples_exit_2(tmp_path, capsys, t0_samples):
    cfg = write_config(tmp_path, two_node_doc(estimator={"t0_samples": t0_samples}))
    for cmd in ("check", "spectrum"):
        assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config.estimator.t0_samples" in capsys.readouterr().err


def test_spectrum_and_check_run_window_starts_up_to_the_int64_bound(tmp_path):
    # the last start below 2**62, far past the others: check reads only
    # the times some window covers, not every time between the starts
    cfg = write_config(tmp_path, two_node_doc(estimator={"t0_samples": [0, 2**62 - 1]}))
    for cmd in ("check", "spectrum"):
        assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    blob = json.loads((tmp_path / "o" / "diam_estimate.json").read_text())
    assert blob["diam"]["value"] == pytest.approx(0.5, rel=1e-2)
    windows = json.loads((tmp_path / "o" / "check_report.json").read_text())["windows"]
    assert [w["t0"] for w in windows] == [0, 2**62 - 1] and all(w["has_tree"] for w in windows)


def test_oversized_horizon_exits_2_before_any_matrix_is_read(tmp_path, capsys, monkeypatch):
    # the config takes horizons up to 2**62, whose curve numpy refuses to
    # allocate; only 2**62 is tried, since a smaller curve could be allocated
    reads = []
    at = StaticSource.at
    monkeypatch.setattr(StaticSource, "at", lambda self, t: reads.append(t) or at(self, t))
    cfg = write_config(tmp_path, two_node_doc(estimator={"horizon": 2**62}))
    for cmd in ("spectrum", "simulate"):
        capsys.readouterr()
        assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "horizon" in err and str(2**62) in err
    assert reads == []


# the main of a process whose address space is capped at 4 GiB, so that
# an oversized allocation fails even on a host that overcommits memory
CAPPED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
    "from netsync.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def capped_simulate(tmp_path, doc):
    """`simulate` on doc in a process capped as CAPPED_MAIN caps it."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, "simulate", "--config", write_config(tmp_path, doc),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("doc, asked", [
    # the scalar orbit estimate_scalar_lyapunov averages
    (two_node_doc(map={"name": "logistic"}, estimator={"mu_horizon": 10**12}), "7.28 TiB"),
    # sigma1's probes
    (two_node_doc(estimator={"n_vectors": 10**12}), "7.28 TiB"),
    # the pair mask np.triu_indices forms in BlurringProcess.__init__
    (two_node_doc(source={"variant": "blurring", "m": 10**7, "r": 0.1}), "90.9 TiB"),
    # the base graph's edges, which scale_free_graph allocates before its loop
    (two_node_doc(source={"variant": "blinking", "m": 10**12, "avg_degree": 12, "p": 0.1,
                          "t_rec": 2}), "87.3 TiB"),
], ids=["mu_horizon", "n_vectors", "blurring-m", "blinking-m"])
def test_oversized_allocation_exits_2_with_numpys_message(tmp_path, doc, asked):
    proc = capped_simulate(tmp_path, doc)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"config error: Unable to allocate {asked}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source", [
    # np.triu_indices raised numpy's ValueError, which exited 1
    {"variant": "blurring", "m": 10**20, "r": 0.1},
    # scale_free_graph looped in Python and never allocated
    {"variant": "blinking", "m": 10**20, "avg_degree": 4, "p": 0.1, "t_rec": 2},
], ids=["blurring", "blinking"])
def test_m_numpy_cannot_address_exits_2_naming_it(tmp_path, source):
    proc = capped_simulate(tmp_path, two_node_doc(source=source))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"config error: m={10**20} is too large")


@pytest.mark.parametrize("source, expected", [
    # the weights summed to inf with an overflow warning and were normalised
    # to [0, 0], so every draw fell to the last matrix
    ({"variant": "finite_set", "matrices": [[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.0, 1.0]]],
      "weights": [1e308, 1e308]}, "weights must be nonnegative with a positive finite sum"),
    # the first step wrote t_rec into the int64 timers and raised OverflowError
    ({"variant": "blinking", "m": 30, "avg_degree": 4, "p": 0.2, "t_rec": 2**63},
     "recovery time must be in [1, 2**63)"),
], ids=["weights-sum-overflows", "t_rec-beyond-int64"])
def test_unrunnable_source_parameters_exit_2_without_warnings(tmp_path, capsys, source, expected):
    cfg = write_config(tmp_path, two_node_doc(source=source))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_finite_numbers_exit_2(tmp_path, capsys):
    # json reads Infinity as a float, which no integer field may hold and
    # whose uniform draw initial_state could not make
    inf = float("inf")
    cases = [
        (["spectrum"], two_node_doc(estimator={"horizon": inf}), "config.estimator.horizon"),
        (["simulate"], two_node_doc(seed=inf), "config.seed"),
        (["simulate"], two_node_doc(simulation={"x0_eps": inf}), "config.simulation.x0_eps"),
        (["sweep", "--parameter", "simulation.steps", "--values", "[Infinity]"],
         two_node_doc(), "config.simulation.steps"),
    ]
    for args, doc, field in cases:
        cfg = write_config(tmp_path, doc)
        capsys.readouterr()
        assert main(args + ["--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"'{field}'" in capsys.readouterr().err


def test_help_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "netsync.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for word in ("spectrum", "simulate", "sweep", "check", "jsr"):
        assert word in proc.stdout
