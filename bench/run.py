#!/usr/bin/env python3
"""netsync benchmark: time one workload through the `netsync` command line.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads, metrics and the reasons for each are listed in
`BENCHMARK.json` at the repository root and in `bench/README.md`.

The program is imported from `src/` of the checkout this file sits in;
nothing is installed. Every invocation of the command is a fresh Python
process, with BLAS and OpenMP pinned to one thread, timed from spawn to
exit, with its peak RSS taken from `wait4`. The inputs are generated
from `--seed`. Invocations repeat (for `jsr-tree-pairs`, whole batches
repeat) until the next one would end after `--seconds`; at least one
always runs. Outputs are checked after the timed region.

`--trace 0` reports the end-to-end metrics: medians over the
invocations of `wall_s` and `peak_rss_mb`, and of `setup_s` over those
invocations plus extra set-up-only ones. `--trace 1` runs every input
untraced and then traced, and reports the per-layer metrics of the
traced runs plus `trace.overhead_s`, the difference of their mean wall
times. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# pinned before numpy is imported, here and in every child process
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

from child import WORK_SPANS  # noqa: E402
from layers import accounted_share, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
SETUP_REPS = 6
# no invocation starts after START_BY_S, and none runs past END_BY_S,
# counted from the start of the run, so the run ends within 180 s
START_BY_S = 130.0
END_BY_S = 165.0
now = time.monotonic


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Spawns `child.py` processes and collects one record per run."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)

    def invoke(self, inp, mode: str = "run", traced: bool = False) -> dict:
        self.count += 1
        tag = f"{self.count:03d}-{inp.name}-{mode}" + ("-traced" if traced else "")
        out = self.workdir / "out" / tag
        sidecar = self.workdir / "sidecars" / f"{tag}.json"
        log = self.workdir / "logs" / f"{tag}.log"
        argv = [sys.executable, str(BENCH / "child.py"), str(sidecar), mode,
                "1" if traced else "0", "--", *inp.argv, "--out", str(out)]
        with open(log, "w") as log_fh:
            spawn = now()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=log_fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(self.started + END_BY_S - spawn, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {
            "tag": tag, "input": inp, "mode": mode, "traced": traced,
            "spawn": spawn, "wall_s": end - spawn, "rc": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "out": out, "log": log, "sidecar": None, "setup_s": None,
        }
        try:
            rec["sidecar"] = json.loads(sidecar.read_text())
        except (OSError, ValueError):
            return rec
        starts = [s["start"] for s in rec["sidecar"]["spans"] if s["name"] in WORK_SPANS]
        if starts:
            rec["setup_s"] = min(starts) - spawn
        return rec


def timed_runs(runner: Runner, inputs, seconds: float, trace: bool):
    """Repeat the batch of inputs until the next batch would end after
    `seconds`. With tracing, each input runs untraced and then traced."""
    records = []
    begin = now()
    while True:
        batch_start = now()
        for inp in inputs:
            for traced in (False, True) if trace else (False,):
                if now() - runner.started > START_BY_S:
                    print(f"time limit: stopped after {len(records)} invocations")
                    return records
                records.append(runner.invoke(inp, traced=traced))
        if (now() - begin) + (now() - batch_start) > seconds:
            return records


def check_records(workload, records) -> int:
    """Check every run's outputs; returns the number of failed runs.

    Each input's first output is checked against the reference; later
    runs of the same input must reproduce it exactly."""
    first, verdict = {}, {}
    failed = 0
    for rec in records:
        inp = rec["input"]
        problems = []
        if rec["rc"] != 0 or rec["sidecar"] is None:
            problems.append(f"exit code {rec['rc']}, see {rec['log']}")
        else:
            try:
                rec["output"] = workload.read(rec["out"])
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable output: {exc}")
        if not problems:
            if inp.name not in first:
                first[inp.name] = rec["output"]
                try:
                    verdict[inp.name] = workload.check(rec["output"], workload.reference(inp))
                except (KeyError, TypeError, ValueError) as exc:
                    verdict[inp.name] = [f"malformed output: {exc!r}"]
            elif rec["output"] != first[inp.name]:
                problems.append("output differs from the first run of the same input")
            problems += verdict[inp.name]
        if problems:
            failed += 1
            print(f"FAILED {rec['tag']}: " + "; ".join(problems))
    return failed


def environment() -> dict:
    import numpy
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "netsync").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        openblas = None
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "threads": THREAD_ENV,
    }


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def main(argv=None) -> int:
    started = now()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (SRC / "netsync" / "cli.py").is_file():
        print(f"error: no netsync sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = bool(args.trace)
    workload = WORKLOADS[args.workload]()
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    for sub in ("out", "sidecars", "logs"):
        (workdir / sub).mkdir(parents=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    inputs = workload.inputs(args.seed, workdir)
    print(f"workload {workload.name} seed {args.seed} inputs {len(inputs)}"
          f" seconds {seconds:g} trace {int(trace)}")

    runner = Runner(workdir, started)
    runner.invoke(inputs[0], mode="setup")  # warm-up: bytecode and page cache
    setup_runs = [] if trace else [
        runner.invoke(inputs[k % len(inputs)], mode="setup") for k in range(SETUP_REPS)
    ]
    records = timed_runs(runner, inputs, seconds, trace)
    failed = check_records(workload, records)
    failed += sum(r["rc"] != 0 for r in setup_runs)
    attempted = len(records) + len(setup_runs)

    untraced = [r for r in records if not r["traced"]]
    walls = [r["wall_s"] for r in untraced]
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} runs)")
    t = tail(walls)
    print(f"wall_s over n={len(walls)} runs: median {statistics.median(walls):.6g} s, "
          + (f"p{t[0]:.0f} {t[1]:.6g} s" if t else "no tail percentile (n < 11)"))
    if trace:
        traced = [r for r in records if r["traced"] and r["sidecar"] is not None]
        values = layer_metrics(traced, untraced, workload.m)
        shares = [accounted_share(r) for r in traced]
        if shares:
            print(f"trace accounts for {min(shares):.4f}..{max(shares):.4f} of traced wall_s")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        setups = [r["setup_s"] for r in setup_runs + records if r["setup_s"] is not None]
        values = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "setup_s": statistics.median(setups) if setups else float("nan"),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    gaps = [r["output"]["upper"] - r["output"]["lower"]
            for r in untraced if "upper" in r.get("output", {})]
    if gaps:
        print(f"jsr gap mean over {len(gaps)} runs = {statistics.fmean(gaps):.6g}")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"metric {name} = {values[name]:.6g} {unit}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    runs = [{"tag": r["tag"], "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
             "peak_rss_mb": r["peak_rss_mb"], "setup_s": r["setup_s"]}
            for r in setup_runs + records]
    (workdir / "result.json").write_text(
        json.dumps({"env": env, **result, "runs": runs}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
