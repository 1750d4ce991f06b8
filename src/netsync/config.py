"""Experiment configuration: JSON documents in, validated objects out.

The schema is written once, as one field table per section: the top
level, map, estimator, simulation, and each source variant.  A table
maps a field name to its converter, which also checks the field's range,
and its default (_REQUIRED for a field the document must give).  The
tables drive parsing (_expect), the EstimatorParams and SimulationParams
named tuples, the dotted paths apply_parameter resolves for sweeps, and
build_source, which passes a variant's fields to the builder its table
names.

One master seed determines every stochastic choice in a run. Child
streams (source randomness, initial condition, probe vectors) are
derived from it through SeedSequence spawn keys, so adding a consumer
never reshuffles the others.
"""

import hashlib
import json
import math
from collections import namedtuple
from typing import NamedTuple, Optional

import numpy as np

from .cml import ScalarMap, logistic
from .errors import ConfigError, InvalidParamsError
from .estimators import DEFAULT_N_VECTORS, DEFAULT_RENORM_EVERY
from .processes import BlinkingProcess, BlurringProcess
from .sources import (
    DrivenSource,
    FiniteSetIIDSource,
    MatrixSource,
    PeriodicSource,
    StaticSource,
)

_SEED_CHILD_SOURCE = 0
_SEED_CHILD_X0 = 1
_SEED_CHILD_PROBES = 2


def child_seed(master: int, tag: int) -> int:
    ss = np.random.SeedSequence(entropy=int(master), spawn_key=(int(tag),))
    return int(ss.generate_state(1, np.uint64)[0] & (2**63 - 1))


_REQUIRED = object()  # the default of a field the document must give


def _expect(d: dict, where: str, table: dict) -> dict:
    """Convert a mapping by its field table, name -> (converter, default):
    a field left out or null takes its default, which a required field
    lacks, and a field the table does not name is an error."""
    if not isinstance(d, dict):
        raise ConfigError(where, f"expected an object, got {type(d).__name__}")
    out = {}
    for key, (conv, default) in table.items():
        if d.get(key) is None and default is not _REQUIRED:
            out[key] = default
        elif key not in d:
            raise ConfigError(f"{where}.{key}", "missing required field")
        else:
            out[key] = _coerce(d[key], conv, f"{where}.{key}")
    for key in d:
        if key not in table:
            raise ConfigError(f"{where}.{key}", "unknown field")
    return out


def _coerce(value, conv, where: str):
    try:
        return conv(value)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(where, str(exc)) from exc


def _as_int(v):
    if isinstance(v, bool) or not (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()
    ):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _as_float(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def _as_str(v):
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v


def _as_dict(v):
    if not isinstance(v, dict):
        raise ValueError(f"expected an object, got {type(v).__name__}")
    return v


def _as_matrix(v):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError("expected a square matrix as nested lists")
    return [list(map(float, row)) for row in arr]


def _as_matrix_list(v):
    if not isinstance(v, list) or not v:
        raise ValueError("expected a nonempty list of matrices")
    return [_as_matrix(M) for M in v]


def _as_float_list(v):
    if not isinstance(v, list):
        raise ValueError("expected a list of numbers")
    return [_as_float(x) for x in v]


def _as_int_list(v):
    if not isinstance(v, list):
        raise ValueError("expected a list of integers")
    return [_as_int(x) for x in v]


def _checked(conv, test, rule: str):
    """conv, then a range check: a value failing test is rejected with rule."""
    def check(v):
        v = conv(v)
        if not test(v):
            raise ValueError(rule)
        return v
    return check


def _at_least(lo: int):
    return _checked(_as_int, lambda v: v >= lo, f"must be >= {lo}")


def _one_of(options: tuple):
    def check(v):
        if v not in options:
            raise ValueError(f"must be one of {options}, got {v!r}")
        return v
    return check


def _nested(where: str, table: dict, make=dict):
    """The converter of the section at where: its table's fields, passed to make."""
    return lambda d: make(**_expect(d, where, table))


def _source(d: dict) -> dict:
    """The source section: the variant it names picks the table of its other fields."""
    rest = dict(_as_dict(d))
    variant = _coerce(
        rest.pop("variant", None), _one_of(tuple(_SOURCES)), "config.source.variant"
    )
    return {"variant": variant, **_expect(rest, "config.source", _SOURCES[variant][1])}


def _params(name: str, table: dict):
    """A named tuple with a field per table entry, at the table's default."""
    defaults = [default for _, default in table.values()]
    return namedtuple(name, table, defaults=defaults, module=__name__)  # pickled by name


_ESTIMATOR = {
    # horizons up to 2**62 and starts below it keep start + horizon in int64
    "horizon": (_checked(_as_int, lambda v: 1 <= v <= 2**62, "must be in [1, 2**62]"), 1000),
    "t0_samples": (
        _checked(_as_int_list, lambda s: s and 0 <= min(s) and max(s) < 2**62,
                 "must be a nonempty list of starts in [0, 2**62)"),
        None,  # the estimators' default grid of starts
    ),
    "renorm_every": (_at_least(1), DEFAULT_RENORM_EVERY),
    "n_vectors": (_at_least(1), DEFAULT_N_VECTORS),
    # the scalar orbit runs about 0.3 s per 10**6 terms: 10**9 is minutes
    "mu_burn": (_checked(_as_int, lambda v: 0 <= v <= 10**9, "must be in [0, 10**9]"), 1000),
    "mu_horizon": (_checked(_as_int, lambda v: 1 <= v <= 10**9, "must be in [1, 10**9]"), 100_000),
}
_SIMULATION = {
    "steps": (_at_least(0), 1000),
    "record_every": (_at_least(1), 1),
    "x0_policy": (_one_of(("diagonal", "near_diagonal", "random")), "near_diagonal"),
    # the uniform draw in initial_state needs a finite width 2 * x0_eps
    "x0_eps": (_checked(_as_float, lambda e: 0 <= e <= 1e300, "must be in [0, 1e300]"), 1e-3),
}
_MAP = {
    "name": (_one_of(("logistic",)), _REQUIRED),
    "alpha": (_checked(_as_float, lambda a: 0 < a <= 4, "must be in (0, 4]"), 3.9),
    "mu": (_checked(_as_float, math.isfinite, "must be finite"), None),  # None: estimated
}
_SEED = (_at_least(0), None)  # None: build_source derives it from the master seed
# each source variant: the builder its fields are passed to, and its field
# table; the processes' builders check the ranges of their own parameters
_SOURCES = {
    "static": (StaticSource, {"matrix": (_as_matrix, _REQUIRED)}),
    "periodic": (PeriodicSource, {"matrices": (_as_matrix_list, _REQUIRED)}),
    "finite_set": (FiniteSetIIDSource, {
        "matrices": (_as_matrix_list, _REQUIRED),
        "weights": (_as_float_list, None),  # None: uniform
        "seed": _SEED,
    }),
    "blinking": (lambda **kw: DrivenSource(BlinkingProcess.from_params(**kw)), {
        "m": (_as_int, _REQUIRED),
        "avg_degree": (_as_int, _REQUIRED),
        "p": (_as_float, _REQUIRED),
        "t_rec": (_as_int, _REQUIRED),
        "seed": _SEED,
    }),
    "blurring": (lambda **kw: DrivenSource(BlurringProcess(**kw)), {
        "m": (_as_int, _REQUIRED),
        "r": (_as_float, _REQUIRED),
        "seed": _SEED,
    }),
}
# the sections besides the source, whose fields depend on its variant
_SECTIONS = {"map": _MAP, "estimator": _ESTIMATOR, "simulation": _SIMULATION}

EstimatorParams = _params("EstimatorParams", _ESTIMATOR)
SimulationParams = _params("SimulationParams", _SIMULATION)


_TOP = {
    "source": (_source, _REQUIRED),
    "map": (_nested("config.map", _MAP), _REQUIRED),
    "seed": (_at_least(0), 0),
    "estimator": (_nested("config.estimator", _ESTIMATOR, EstimatorParams), EstimatorParams()),
    "simulation": (_nested("config.simulation", _SIMULATION, SimulationParams), SimulationParams()),
    "out": (_as_str, None),
}


class ExperimentConfig(NamedTuple):
    seed: int
    source: dict
    map_spec: dict
    estimator: EstimatorParams
    simulation: SimulationParams
    out: Optional[str]

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        top = _expect(d, "config", _TOP)
        return ExperimentConfig(map_spec=top.pop("map"), **top)

    def _document(self) -> dict:
        """The config's JSON document, sharing its source and map."""
        return {
            "seed": self.seed,
            "source": self.source,
            "map": self.map_spec,
            "estimator": self.estimator._asdict(),
            "simulation": self.simulation._asdict(),
            "out": self.out,
        }

    def to_json_dict(self) -> dict:
        # a deep copy, which the caller may change
        return json.loads(json.dumps(self._document()))


def document_hash(doc) -> str:
    """The first 16 hex digits of the sha256 of doc's compact JSON, keys sorted."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def config_hash(cfg: ExperimentConfig) -> str:
    # the document need not be copied to be hashed
    return document_hash(cfg._document())


def build_source(cfg: ExperimentConfig) -> MatrixSource:
    spec = dict(cfg.source)
    builder, table = _SOURCES[spec.pop("variant")]
    if "seed" in table and spec.get("seed") is None:
        spec["seed"] = child_seed(cfg.seed, _SEED_CHILD_SOURCE)
    return builder(**spec)


def build_map(cfg: ExperimentConfig) -> ScalarMap:
    return logistic(cfg.map_spec["alpha"])


def initial_state(cfg: ExperimentConfig, m: int, fmap: ScalarMap) -> np.ndarray:
    """Initial condition per the configured policy.

    diagonal and near_diagonal start from a point settled onto the
    scalar attractor (100 warmup iterations from 0.3), the latter with a
    uniform perturbation of radius x0_eps per node.
    """
    policy = cfg.simulation.x0_policy
    rng = np.random.default_rng(child_seed(cfg.seed, _SEED_CHILD_X0))
    if policy == "random":
        return rng.uniform(0.0, 1.0, size=m)
    s = 0.3
    for _ in range(100):
        s = float(fmap.f(s))
    if policy == "diagonal":
        return np.full(m, s)
    return s + rng.uniform(-cfg.simulation.x0_eps, cfg.simulation.x0_eps, size=m)


def probe_seed(cfg: ExperimentConfig) -> int:
    return child_seed(cfg.seed, _SEED_CHILD_PROBES)


def apply_parameter(config_dict: dict, name: str, value) -> dict:
    """Return a copy of the raw config document with one field replaced.

    Accepts either a dotted path ("source.p"), resolved against the
    schema so a field the document leaves at its default can be set (its
    section is created if absent), or a bare name looked up in the
    source, map, estimator, and simulation sections of the document in
    that order. Used by parameter sweeps.
    """
    d = json.loads(json.dumps(config_dict))
    if "." in name:
        section, key = name.split(".", 1)
        if section == "source":
            source = d.get("source")
            variant = source.get("variant") if isinstance(source, dict) else None
            # a tuple, as the document's variant may be unhashable
            names = {"variant", *(_SOURCES[variant][1] if variant in tuple(_SOURCES) else ())}
        else:
            names = _SECTIONS.get(section, ())
        if key in names:
            if d.get(section) is None:
                d[section] = {}
            if isinstance(d[section], dict):
                d[section][key] = value
                return d
        raise InvalidParamsError(f"no config field at {name!r}")
    for section in ("source", *_SECTIONS):
        block = d.get(section)
        if isinstance(block, dict) and name in block:
            block[name] = value
            return d
    raise InvalidParamsError(f"no config field named {name!r}")
