"""Run one `netsync` command in a fresh process and write a timing sidecar.

    python3 child.py SIDECAR MODE TRACE -- NETSYNC_ARGS...

The command runs through the public entry point `netsync.cli.main`, as
the `netsync` console script does. MODE `run` executes it; MODE `setup`
stops as soon as the command starts its first unit of work, so that
set-up (interpreter start, imports, config parsing, source building) can
be timed alone.

Names are wrapped where their caller looks them up, since the package
imports names directly (`netsync.cli.estimate_sigma1`,
`netsync.estimators.diam`, `netsync.jsr.spectral_radius`, ...):

* coarse calls (estimators, simulation, JSR search, config loading) get
  one span each, with the id of the enclosing span; they are always
  wrapped, because set-up ends where the first work span starts;
* with TRACE 1, hot calls (`sources.*.at`, `processes.*.step`,
  `hajnal.diam`, `linalg.spectral_radius`, `linalg.matrix_norm`) are
  also wrapped. They run up to ~10^6 times per command, so they get a
  call counter and aggregated busy time instead of a span each; busy
  time of the outermost hot calls is also charged to the enclosing span
  so its self time can be computed.

Timestamps are `time.monotonic()` (CLOCK_MONOTONIC on Linux), the clock
the parent uses to time the process, so both sides can be compared.
"""

import json
import sys
import time

now = time.monotonic

# spans whose start marks the end of set-up
WORK_SPANS = (
    "estimators.sigma1",
    "estimators.diameter",
    "estimators.mu",
    "cml.simulate",
    "jsr.gripenberg",
)


class SetupDone(Exception):
    """Raised in MODE `setup` when the first work span is entered."""


class Tracer:
    def __init__(self, stop_at_work: bool):
        self.stop_at_work = stop_at_work
        self.spans = []
        self.stack = []
        self.hot = {}
        self.depth = 0

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = {
                "id": len(self.spans),
                "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "start": now(),
                "end": None,
                "hot": {},
            }
            self.spans.append(rec)
            if self.stop_at_work and name in WORK_SPANS:
                rec["end"] = rec["start"]
                raise SetupDone(name)
            self.stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec["end"] = now()
                self.stack.pop()

        return wrapper

    def hot_call(self, name, fn):
        total = self.hot.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = now()
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dt = now() - t0
                self.depth -= 1
                total[0] += 1
                total[1] += dt
                if not self.depth and self.stack:
                    inner = self.stack[-1]["hot"].setdefault(name, [0, 0.0])
                    inner[0] += 1
                    inner[1] += dt

        return wrapper


def install(tracer: Tracer, trace: bool) -> None:
    import netsync.cli as cli
    import netsync.config as config
    import netsync.estimators as estimators
    import netsync.jsr as jsr
    import netsync.processes as processes
    import netsync.sources as sources

    for attr, name in (
        ("estimate_sigma1", "estimators.sigma1"),
        ("estimate_hajnal_diameter", "estimators.diameter"),
        ("estimate_scalar_lyapunov", "estimators.mu"),
        ("simulate", "cml.simulate"),
        ("gripenberg", "jsr.gripenberg"),
        ("build_source", "config.load"),
    ):
        setattr(cli, attr, tracer.span(name, getattr(cli, attr)))
    cfg_cls = config.ExperimentConfig
    cfg_cls.from_json_dict = staticmethod(
        tracer.span("config.load", cfg_cls.from_json_dict)
    )
    if not trace:
        return
    hot = [(cls, "at", "sources.at") for cls in (
        sources.DrivenSource,
        sources.FiniteSetIIDSource,
        sources.PeriodicSource,
        sources.StaticSource,
    )]
    hot += [(cls, "step", "processes.step") for cls in (
        processes.BlinkingProcess,
        processes.BlurringProcess,
    )]
    hot += [
        (estimators, "diam", "hajnal.diam"),
        (jsr, "spectral_radius", "linalg.spectral_radius"),
        (jsr, "matrix_norm", "linalg.matrix_norm"),
    ]
    for owner, attr, name in hot:
        setattr(owner, attr, tracer.hot_call(name, getattr(owner, attr)))


def main() -> int:
    sidecar, mode, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if mode not in ("run", "setup") or sys.argv[4] != "--":
        raise SystemExit("usage: child.py SIDECAR run|setup 0|1 -- NETSYNC_ARGS...")
    import netsync.cli as cli

    t_import = now()
    tracer = Tracer(stop_at_work=(mode == "setup"))
    install(tracer, trace)
    rc = 1
    try:
        rc = tracer.span("cli", cli.main)(sys.argv[5:])
    except SetupDone:
        rc = 0
    finally:
        with open(sidecar, "w") as fh:
            json.dump(
                {"t_import": t_import, "rc": rc, "spans": tracer.spans, "hot": tracer.hot},
                fh,
            )
    return rc


if __name__ == "__main__":
    sys.exit(main())
