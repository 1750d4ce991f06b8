"""Experiment configuration: JSON documents in, validated objects out.

One master seed determines every stochastic choice in a run. Child
streams (source randomness, initial condition, probe vectors) are
derived from it through SeedSequence spawn keys, so adding a consumer
never reshuffles the others.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import List, Optional

import numpy as np

from .cml import ScalarMap, logistic
from .errors import ConfigError, UnknownParameterError
from .processes import BlinkingProcess, BlurringProcess
from .sources import (
    DrivenSource,
    FiniteSetIIDSource,
    MatrixSource,
    PeriodicSource,
    StaticSource,
)

SOURCE_VARIANTS = ("static", "periodic", "finite_set", "blinking", "blurring")
X0_POLICIES = ("diagonal", "near_diagonal", "random")

_SEED_CHILD_SOURCE = 0
_SEED_CHILD_X0 = 1
_SEED_CHILD_PROBES = 2


def child_seed(master: int, tag: int) -> int:
    ss = np.random.SeedSequence(entropy=int(master), spawn_key=(int(tag),))
    return int(ss.generate_state(1, np.uint64)[0] & (2**63 - 1))


def _expect(d: dict, where: str, required: dict, optional: dict) -> dict:
    """Type-check a mapping against required/optional field tables."""
    if not isinstance(d, dict):
        raise ConfigError(where, f"expected an object, got {type(d).__name__}")
    out = {}
    for key, conv in required.items():
        if key not in d:
            raise ConfigError(f"{where}.{key}", "missing required field")
        out[key] = _coerce(d[key], conv, f"{where}.{key}")
    for key, (conv, default) in optional.items():
        if d.get(key) is None:
            out[key] = default
        else:
            out[key] = _coerce(d[key], conv, f"{where}.{key}")
    known = set(required) | set(optional)
    for key in d:
        if key not in known:
            raise ConfigError(f"{where}.{key}", "unknown field")
    return out


def _coerce(value, conv, where: str):
    try:
        return conv(value)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(where, str(exc)) from exc


def _as_int(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v != int(v):
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


@dataclass(frozen=True)
class EstimatorParams:
    horizon: int = 1000
    t0_samples: Optional[List[int]] = None
    renorm_every: int = 8
    n_vectors: int = 8
    mu_burn: int = 1000
    mu_horizon: int = 100_000


@dataclass(frozen=True)
class SimulationParams:
    steps: int = 1000
    record_every: int = 1
    x0_policy: str = "near_diagonal"
    x0_eps: float = 1e-3


# converter for each annotation used by a section dataclass
_CONVERTERS = {int: _as_int, float: _as_float, str: _as_str, Optional[List[int]]: _as_int_list}


def _section(cls, d, where: str):
    """An instance of the section dataclass cls from its JSON object;
    the dataclass fields name every key and give its default."""
    optional = {f.name: (_CONVERTERS[f.type], f.default) for f in fields(cls)}
    return cls(**_expect(d, where, required={}, optional=optional))


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    source: dict
    map_spec: dict
    estimator: EstimatorParams = field(default_factory=EstimatorParams)
    simulation: SimulationParams = field(default_factory=SimulationParams)
    out: Optional[str] = None

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        top = _expect(
            d,
            "config",
            required={"source": _as_dict, "map": _as_dict},
            optional={
                "seed": (_as_int, 0),
                "estimator": (_as_dict, {}),
                "simulation": (_as_dict, {}),
                "out": (_as_str, None),
            },
        )
        if top["seed"] < 0:
            raise ConfigError("config.seed", "seed must be >= 0")
        source = _validate_source(top["source"])
        map_spec = _validate_map(top["map"])
        est = _section(EstimatorParams, top["estimator"], "config.estimator")
        for key in ("horizon", "renorm_every", "n_vectors", "mu_horizon"):
            if getattr(est, key) < 1:
                raise ConfigError(f"config.estimator.{key}", "must be >= 1")
        if est.mu_burn < 0:
            raise ConfigError("config.estimator.mu_burn", "must be >= 0")
        if est.t0_samples is not None and (
            not est.t0_samples or min(est.t0_samples) < 0
        ):
            raise ConfigError(
                "config.estimator.t0_samples", "must be a nonempty list of starts >= 0"
            )
        sim = _section(SimulationParams, top["simulation"], "config.simulation")
        if sim.steps < 0:
            raise ConfigError("config.simulation.steps", "must be >= 0")
        if sim.record_every < 1:
            raise ConfigError("config.simulation.record_every", "must be >= 1")
        if sim.x0_policy not in X0_POLICIES:
            raise ConfigError(
                "config.simulation.x0_policy", f"must be one of {X0_POLICIES}"
            )
        if not sim.x0_eps >= 0:
            raise ConfigError("config.simulation.x0_eps", "must be >= 0")
        return ExperimentConfig(
            seed=top["seed"],
            source=source,
            map_spec=map_spec,
            estimator=est,
            simulation=sim,
            out=top["out"],
        )

    def _document(self) -> dict:
        """The config's JSON document, sharing its source and map."""
        return {
            "seed": self.seed,
            "source": self.source,
            "map": self.map_spec,
            "estimator": asdict(self.estimator),
            "simulation": asdict(self.simulation),
            "out": self.out,
        }

    def to_json_dict(self) -> dict:
        # a deep copy, which the caller may change
        return json.loads(json.dumps(self._document()))


# required and optional fields of each source variant
_SOURCE_TABLES = {
    "static": ({"matrix": _as_matrix}, {}),
    "periodic": ({"matrices": _as_matrix_list}, {}),
    "finite_set": (
        {"matrices": _as_matrix_list},
        {"weights": (_as_float_list, None), "seed": (_as_int, None)},
    ),
    "blinking": (
        {
            "m": _as_int,
            "avg_degree": _as_int,
            "p": _as_float,
            "t_rec": _as_int,
        },
        {"seed": (_as_int, None)},
    ),
    "blurring": (
        {"m": _as_int, "r": _as_float},
        {"seed": (_as_int, None)},
    ),
}
_MAP_REQUIRED = {"name": _as_str}
_MAP_OPTIONAL = {"alpha": (_as_float, 3.9), "mu": (_as_float, None)}


def _validate_source(d: dict) -> dict:
    if not isinstance(d, dict):
        raise ConfigError("config.source", "expected an object")
    variant = d.get("variant")
    if variant not in SOURCE_VARIANTS:
        raise ConfigError(
            "config.source.variant", f"must be one of {SOURCE_VARIANTS}, got {variant!r}"
        )
    required, optional = _SOURCE_TABLES[variant]
    rest = {k: v for k, v in d.items() if k != "variant"}
    out = _expect(rest, "config.source", required, optional)
    return {"variant": variant, **out}


def _validate_map(d: dict) -> dict:
    out = _expect(d, "config.map", _MAP_REQUIRED, _MAP_OPTIONAL)
    if out["name"] != "logistic":
        raise ConfigError("config.map.name", f"unknown map {out['name']!r}")
    if not (0.0 < out["alpha"] <= 4.0):
        raise ConfigError("config.map.alpha", "must be in (0, 4]")
    if out["mu"] is not None and not np.isfinite(out["mu"]):
        raise ConfigError("config.map.mu", "must be finite")
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    # the document need not be copied to be hashed
    blob = json.dumps(cfg._document(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_source(cfg: ExperimentConfig) -> MatrixSource:
    spec = cfg.source
    variant = spec["variant"]
    seed = spec.get("seed")
    if seed is None:
        seed = child_seed(cfg.seed, _SEED_CHILD_SOURCE)
    if variant == "static":
        return StaticSource(np.array(spec["matrix"]))
    if variant == "periodic":
        return PeriodicSource([np.array(M) for M in spec["matrices"]])
    if variant == "finite_set":
        return FiniteSetIIDSource(
            [np.array(M) for M in spec["matrices"]],
            weights=spec.get("weights"),
            seed=seed,
        )
    if variant == "blinking":
        return DrivenSource(
            BlinkingProcess.from_params(
                m=spec["m"],
                avg_degree=spec["avg_degree"],
                p=spec["p"],
                t_rec=spec["t_rec"],
                seed=seed,
            )
        )
    return DrivenSource(BlurringProcess(m=spec["m"], r=spec["r"], seed=seed))


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


def _schema_fields(d: dict, section: str) -> set:
    """The field names a config section may hold; the source's depend
    on the variant the document names."""
    if section == "estimator":
        return {f.name for f in fields(EstimatorParams)}
    if section == "simulation":
        return {f.name for f in fields(SimulationParams)}
    if section == "map":
        return set(_MAP_REQUIRED) | set(_MAP_OPTIONAL)
    source = d.get("source")
    variant = source.get("variant") if isinstance(source, dict) else None
    required, optional = _SOURCE_TABLES.get(variant, ({}, {}))
    return {"variant", *required, *optional}


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
        if section in ("source", "map", "estimator", "simulation") and key in _schema_fields(
            d, section
        ):
            if d.get(section) is None:
                d[section] = {}
            if isinstance(d[section], dict):
                d[section][key] = value
                return d
        raise UnknownParameterError(f"no config field at {name!r}")
    for section in ("source", "map", "estimator", "simulation"):
        block = d.get(section)
        if isinstance(block, dict) and name in block:
            block[name] = value
            return d
    raise UnknownParameterError(f"no config field named {name!r}")
