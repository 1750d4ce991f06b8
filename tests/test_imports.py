"""Import boundaries: the package and its common commands load no scipy,
and the package loads no dataclasses.

scipy is imported inside the few functions that need it (`check`, the
`jsr` command's polytope above 2x2 and its search fallback), so runs on
dense inputs, and `jsr` on a 2x2 set its invariant polytope certifies,
start with numpy alone.  Blinking runs multiply their CSR emissions with
scipy's compiled kernels, loaded from the extension file in scipy's
directory without running scipy's `__init__`, and without `scipy.sparse`
and the array-API shim it imports; where that file is missing or fails
to load, the kernels come through `scipy.sparse`.  Nor do blinking runs
load `numpy.ma`, which `np.unique` imports.  Each boundary test runs in
a fresh interpreter, since this test process has long since imported
scipy.

A command also leaves its heap to the OS at exit: `main` registers
`gc.freeze` with atexit, so the interpreter's shutdown collections skip
every object the command left.  That too shows only in a fresh
interpreter, at its exit.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netsync.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

REPORT_SCIPY = (
    "import sys; "
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
)


PAIR = {"matrices": [
    [[0.6, 0.4, 0.0], [0.0, 0.7, 0.3], [0.2, 0.0, 0.8]],
    [[0.5, 0.0, 0.5], [0.3, 0.7, 0.0], [0.0, 0.4, 0.6]],
]}


def fresh_stdout(code: str) -> list:
    """Run code in a fresh interpreter; the lines it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout.strip().splitlines()


def loaded_scipy_modules(code: str) -> list:
    """Run code in a fresh interpreter and list the scipy modules it left
    loaded."""
    return json.loads(fresh_stdout("import json\n" + code + "\n" + REPORT_SCIPY)[-1])


def jsr_args(tmp_path) -> list:
    """Arguments of `netsync jsr` on PAIR, written to tmp_path/out."""
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(PAIR))
    return ["jsr", str(pair), "--out", str(tmp_path / "out")]


def jsr_main(tmp_path) -> str:
    """Code that runs `netsync jsr` on PAIR and asserts it succeeded."""
    args = jsr_args(tmp_path)
    return f"import netsync.cli\nrc = netsync.cli.main({args!r})\nassert rc == 0, rc\n"


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


def test_import_loads_numpy_but_no_dataclasses():
    # records are named tuples, so no command builds a dataclass
    loaded = fresh_stdout(
        "import sys, netsync, netsync.cli\n"
        "print('numpy' in sys.modules, 'dataclasses' in sys.modules)"
    )
    assert loaded == ["True False"]


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


BLINKING = {
    "seed": 3,
    "source": {"variant": "blinking", "m": 40, "avg_degree": 6, "p": 0.05, "t_rec": 3},
    "map": {"name": "logistic", "alpha": 3.9, "mu": 0.5},
    "estimator": {"horizon": 100},
    "simulation": {"steps": 100},
}
NOT_LOADED = ("numpy.ma", "numpy.f2py")


@pytest.mark.parametrize("command", ["simulate", "spectrum"])
def test_blinking_loads_the_csr_kernels_but_not_scipy_sparse(tmp_path, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BLINKING))
    args = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    code = (
        "import sys, netsync.cli\n"
        f"rc = netsync.cli.main({args!r})\n"
        "assert rc == 0, rc\n"
        f"print(*(m in sys.modules for m in {NOT_LOADED!r}))"
    )
    loaded = fresh_stdout("import json\n" + code + "\n" + REPORT_SCIPY)
    # neither the scipy package nor scipy.sparse: the extension alone
    assert json.loads(loaded[-1]) == ["scipy.sparse._sparsetools"]
    assert loaded[-2] == "False False"


def test_kernels_loaded_first_are_the_ones_scipy_sparse_imports():
    # a CSR product, then scipy.sparse: one extension module, one product
    lines = fresh_stdout(
        "import sys\n"
        "import numpy as np\n"
        "from netsync.linalg import CSR, sparsetools\n"
        "G = CSR(np.array([0.25, 0.75, 1.0]), np.array([0, 2, 1], dtype=np.int32),\n"
        "        np.array([0, 2, 2, 3], dtype=np.int32), 3)\n"
        "X = np.random.default_rng(0).random((3, 4))\n"
        "Y = G @ X\n"
        "kernels = sparsetools()\n"
        "print('scipy.sparse' in sys.modules)\n"
        "import scipy.sparse\n"
        "from scipy.sparse import _compressed, _sparsetools\n"
        "S = scipy.sparse.csr_array(G[:3], shape=G.shape)\n"
        "print(_sparsetools is kernels, _compressed._sparsetools is kernels,\n"
        "      np.array_equal(S @ X, Y), np.array_equal(S @ X[:, 0], G @ X[:, 0]))"
    )
    assert lines == ["False", "True True True True"]


def test_kernels_come_through_scipy_sparse_where_the_file_is_not_found(tmp_path):
    # scipy's spec moved to an empty directory: no extension file in it
    lines = fresh_stdout(
        "import importlib.util, sys\n"
        "find_spec = importlib.util.find_spec\n"
        "def moved(name, package=None):\n"
        "    if name != 'scipy':\n"
        "        return find_spec(name, package)\n"
        "    return importlib.util.spec_from_file_location(\n"
        f"        name, {str(tmp_path / '__init__.py')!r},\n"
        f"        submodule_search_locations=[{str(tmp_path)!r}])\n"
        "importlib.util.find_spec = moved\n"
        "from netsync.linalg import SPARSETOOLS, sparsetools\n"
        "kernels = sparsetools()\n"
        "print('scipy.sparse' in sys.modules, kernels is sys.modules[SPARSETOOLS])"
    )
    assert lines == ["True True"]


def test_kernels_come_through_scipy_sparse_where_the_file_fails_to_load():
    # the first load of the extension raises ImportError, as where only
    # scipy's __init__ makes its libraries loadable; scipy.sparse's own
    # import of it then succeeds
    lines = fresh_stdout(
        "import importlib.machinery, sys\n"
        "from netsync.linalg import SPARSETOOLS, sparsetools\n"
        "loader = importlib.machinery.ExtensionFileLoader\n"
        "create, failed = loader.create_module, []\n"
        "def create_once(self, spec):\n"
        "    if spec.name == SPARSETOOLS and not failed:\n"
        "        failed.append(spec.origin)\n"
        "        raise ImportError('DLL load failed')\n"
        "    return create(self, spec)\n"
        "loader.create_module = create_once\n"
        "kernels = sparsetools()\n"
        "from scipy.sparse import _sparsetools\n"
        "print(len(failed), 'scipy.sparse' in sys.modules, kernels is _sparsetools,\n"
        "      kernels is sys.modules[SPARSETOOLS], hasattr(kernels, 'csr_matvecs'))"
    )
    assert lines == ["1 True True True True"]


def test_sources_check_a_record_without_scipy_sparse():
    # row 0 of the second record lists column 2 before column 0
    lines = fresh_stdout(
        "import sys\n"
        "import numpy as np\n"
        "from netsync.errors import InvalidParamsError\n"
        "from netsync.linalg import CSR\n"
        "from netsync.sources import StaticSource\n"
        "indices = np.array([0, 2, 1, 2], dtype=np.int32)\n"
        "indptr = np.array([0, 2, 3, 4], dtype=np.int32)\n"
        "G = CSR(np.array([0.25, 0.75, 1.0, 1.0]), indices, indptr, 3)\n"
        "print(StaticSource(G).m)\n"
        "swapped = CSR(G.data[[1, 0, 2, 3]], G.indices[[1, 0, 2, 3]], indptr, 3)\n"
        "try:\n"
        "    StaticSource(swapped)\n"
        "except InvalidParamsError as exc:\n"
        "    print(exc)\n"
        "print('scipy.sparse' in sys.modules)"
    )
    assert lines == ["3", "matrix is not a CSR matrix of 3 rows and columns", "False"]


def test_jsr_certified_by_polytope_loads_no_scipy(tmp_path):
    loaded = loaded_scipy_modules(jsr_main(tmp_path))
    bounds = json.loads((tmp_path / "out" / "jsr_bounds.json").read_text())
    assert bounds["certificate"] == "polytope"
    assert loaded == []


def test_command_freezes_its_heap_once_at_exit(tmp_path):
    # the probe counts calls to gc.freeze; atexit runs its handlers last
    # in, first out, so the probe registered before main reports after
    # netsync's handler has run
    probe = (
        "import atexit, gc\n"
        "calls, freeze = [], gc.freeze\n"
        "gc.freeze = lambda: calls.append(freeze())\n"
        "atexit.register(lambda: print('frozen', len(calls), gc.get_freeze_count()))\n"
    )
    lines = fresh_stdout(probe + jsr_main(tmp_path) * 2)
    assert sum(line.startswith("jsr bounds: [") for line in lines) == 2
    assert (tmp_path / "out" / "jsr_bounds.json").exists()
    word, calls, count = lines[-1].split()
    assert word == "frozen"
    assert int(calls) == 1  # two main calls leave one registration
    assert int(count) > 0


def test_main_freezes_nothing_in_process(tmp_path):
    # the freeze waits for the process to exit, so a test session that
    # calls main is never frozen mid-run
    assert main(jsr_args(tmp_path)) == 0
    assert gc.get_freeze_count() == 0
