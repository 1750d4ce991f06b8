"""Import boundaries: the package and its common commands load no scipy.

scipy is imported inside the few functions that need it (sparse blinking
emission and `check`, the `jsr` command's polytope above 2x2 and its
search fallback, the `one`/`two` diameter norms), so short runs on dense
inputs, and `jsr` on a 2x2 set its invariant polytope certifies, start
with numpy alone.  Each boundary test runs in a fresh interpreter, since
this test process has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from netsync.jsr import _balanced

SRC = str(Path(__file__).resolve().parents[1] / "src")

REPORT_SCIPY = (
    "import sys; "
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
)


def loaded_scipy_modules(code: str) -> list:
    """Run code in a fresh interpreter and list the scipy modules it left
    loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", "import json\n" + code + "\n" + REPORT_SCIPY],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli(tmp_path, command: str, doc: dict) -> list:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    return loaded_scipy_modules(
        "import netsync.cli\n"
        f"rc = netsync.cli.main({[command, '--config', str(config), '--out', str(out)]!r})\n"
        "assert rc == 0, rc"
    )


def test_import_loads_no_scipy():
    assert loaded_scipy_modules("import netsync, netsync.cli") == []


def test_spectrum_on_finite_set_loads_no_scipy(tmp_path):
    rng = np.random.default_rng(0)
    mats = [rng.random((4, 4)) + 0.1 for _ in range(3)]
    mats = [M / M.sum(axis=1, keepdims=True) for M in mats]
    doc = {
        "seed": 0,
        "source": {"variant": "finite_set", "matrices": [M.tolist() for M in mats]},
        "map": {"name": "logistic", "alpha": 3.9},
        "estimator": {"horizon": 200},
    }
    assert run_cli(tmp_path, "spectrum", doc) == []
    assert (tmp_path / "out" / "diam_estimate.json").exists()


def test_simulate_on_static_loads_no_scipy(tmp_path):
    doc = {
        "seed": 7,
        "source": {"variant": "static", "matrix": [[0.75, 0.25], [0.25, 0.75]]},
        "map": {"name": "logistic", "alpha": 3.9, "mu": 0.5},
        "estimator": {"horizon": 200},
        "simulation": {"steps": 200},
    }
    assert run_cli(tmp_path, "simulate", doc) == []
    assert (tmp_path / "out" / "summary.json").exists()


def test_jsr_certified_by_polytope_loads_no_scipy(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"matrices": [
        [[0.6, 0.4, 0.0], [0.0, 0.7, 0.3], [0.2, 0.0, 0.8]],
        [[0.5, 0.0, 0.5], [0.3, 0.7, 0.0], [0.0, 0.4, 0.6]],
    ]}))
    out = tmp_path / "out"
    loaded = loaded_scipy_modules(
        "import netsync.cli\n"
        f"rc = netsync.cli.main({['jsr', str(pair), '--out', str(out)]!r})\n"
        "assert rc == 0, rc"
    )
    bounds = json.loads((out / "jsr_bounds.json").read_text())
    assert bounds["certificate"] == "polytope"
    assert loaded == []


def test_balanced_leaves_non_finite_input_unchanged():
    A = np.array([[0.5, np.nan], [1e6, 0.5]])
    B = np.array([[0.1, 2.0], [3.0, 0.4]])
    mats = [A, B]
    assert _balanced(mats) is mats
    assert _balanced([np.array([[1.0, np.inf], [0.0, 1.0]]), B])[1] is B
