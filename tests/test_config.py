"""Config document validation, seed derivation, and builders."""

import hashlib
import json
import pickle

import numpy as np
import pytest

from netsync import config
from netsync.config import (
    EstimatorParams,
    ExperimentConfig,
    SimulationParams,
    apply_parameter,
    build_map,
    build_source,
    child_seed,
    config_hash,
    document_hash,
    initial_state,
)
from netsync.errors import ConfigError, InvalidParamsError
from netsync.sources import DrivenSource, FiniteSetIIDSource, StaticSource


def static_doc(**overrides):
    doc = {
        "seed": 3,
        "source": {"variant": "static", "matrix": [[0.5, 0.5], [0.25, 0.75]]},
        "map": {"name": "logistic", "alpha": 3.9, "mu": 0.5},
    }
    doc.update(overrides)
    return doc


def blinking_doc():
    return {
        "seed": 11,
        "source": {
            "variant": "blinking",
            "m": 12,
            "avg_degree": 4,
            "p": 0.1,
            "t_rec": 3,
        },
        "map": {"name": "logistic", "alpha": 3.9},
        "estimator": {"horizon": 200},
        "simulation": {"steps": 300, "x0_policy": "near_diagonal"},
    }


def test_round_trip_is_lossless():
    cfg = ExperimentConfig.from_json_dict(blinking_doc())
    again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    # sweep --jobs sends configs to its workers pickled
    assert pickle.loads(pickle.dumps(cfg)) == cfg


def test_round_trip_every_section_field_set():
    estimator = {"horizon": 333, "t0_samples": [0, 5, 17], "renorm_every": 3,
                 "n_vectors": 5, "mu_burn": 7, "mu_horizon": 999}
    simulation = {"steps": 123, "record_every": 4, "x0_policy": "random", "x0_eps": 0.01}
    cfg = ExperimentConfig.from_json_dict(
        static_doc(estimator=estimator, simulation=simulation, out="results")
    )
    # every field differs from its default, so none can be dropped silently
    for section, given in ((cfg.estimator, estimator), (cfg.simulation, simulation)):
        for name in section._fields:
            assert getattr(section, name) == given[name] != section._field_defaults[name]
    doc = cfg.to_json_dict()
    assert doc["estimator"] == estimator and doc["simulation"] == simulation
    again = ExperimentConfig.from_json_dict(doc)
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_empty_sections_are_dataclass_defaults():
    cfg = ExperimentConfig.from_json_dict(static_doc(estimator={}, simulation={}))
    assert cfg.estimator == EstimatorParams()
    assert cfg.simulation == SimulationParams()
    doc = cfg.to_json_dict()
    assert doc["estimator"] == EstimatorParams._field_defaults
    assert doc["simulation"] == SimulationParams._field_defaults


def test_defaults_fill_in():
    cfg = ExperimentConfig.from_json_dict(
        {"source": static_doc()["source"], "map": {"name": "logistic"}}
    )
    assert cfg.seed == 0
    assert cfg.estimator.horizon == 1000
    assert cfg.estimator.n_vectors == 8
    assert cfg.simulation.x0_policy == "near_diagonal"
    assert cfg.map_spec["alpha"] == 3.9
    assert cfg.map_spec["mu"] is None


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("map"), "config.map"),
        (lambda d: d.update(bogus=1), "config.bogus"),
        (lambda d: d.update(seed=-1), "config.seed"),
        (lambda d: d["source"].update(variant="mystery"), "config.source.variant"),
        (lambda d: d["source"].update(extra=2), "config.source.extra"),
        (lambda d: d["map"].update(alpha=9.0), "config.map.alpha"),
        (lambda d: d["map"].update(name="tent"), "config.map.name"),
        (
            lambda d: d.update(estimator={"horizon": 0}),
            "config.estimator.horizon",
        ),
        (
            lambda d: d.update(simulation={"x0_policy": "sideways"}),
            "config.simulation.x0_policy",
        ),
        (
            lambda d: d.update(estimator={"t0_samples": []}),
            "config.estimator.t0_samples",
        ),
        (
            lambda d: d.update(estimator={"t0_samples": [0, -3]}),
            "config.estimator.t0_samples",
        ),
        # inputs that crashed instead: non-finite integers, an x0_eps whose
        # width 2 * x0_eps overflows, a negative source seed, an integer
        # too large for a float
        pytest.param(
            lambda d: d.update(estimator={"horizon": float("inf")}),
            "config.estimator.horizon",
            id="horizon-inf",
        ),
        pytest.param(lambda d: d.update(seed=float("inf")), "config.seed", id="seed-inf"),
        pytest.param(lambda d: d.update(seed=float("nan")), "config.seed", id="seed-nan"),
        pytest.param(
            lambda d: d.update(simulation={"x0_eps": float("inf")}),
            "config.simulation.x0_eps",
            id="x0_eps-inf",
        ),
        pytest.param(
            lambda d: d.update(simulation={"x0_eps": 1e308}),
            "config.simulation.x0_eps",
            id="x0_eps-width-inf",
        ),
        pytest.param(
            lambda d: d.update(apply_parameter(d, "simulation.steps", float("inf"))),
            "config.simulation.steps",
            id="swept-steps-inf",
        ),
        pytest.param(
            lambda d: d.update(source=dict(blinking_doc()["source"], seed=-1)),
            "config.source.seed",
            id="source-seed-negative",
        ),
        pytest.param(
            lambda d: d["source"].update(matrix=[[10**400, 0], [0, 1]]),
            "config.source.matrix",
            id="matrix-int-overflow",
        ),
    ],
)
def test_validation_reports_field_paths(mutate, field):
    doc = static_doc()
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json_dict(doc)
    assert err.value.field == field


@pytest.mark.parametrize("field, lo", [("mu_burn", 0), ("mu_horizon", 1)])
def test_scalar_orbit_lengths_are_capped_at_10_9(field, lo):
    # unbounded, a mistyped 10**12 was accepted and ran for days; the
    # document is only read, so no orbit runs
    for value in (lo, 10**9):
        cfg = ExperimentConfig.from_json_dict(static_doc(estimator={field: value}))
        assert getattr(cfg.estimator, field) == value
    for value in (lo - 1, 10**9 + 1, 10**12):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_json_dict(static_doc(estimator={field: value}))
        assert err.value.field == f"config.estimator.{field}"
        assert f"must be in [{lo}, 10**9]" in str(err.value)


def test_null_t0_samples_means_the_default_grid():
    cfg = ExperimentConfig.from_json_dict(static_doc(estimator={"t0_samples": None}))
    assert cfg.estimator.t0_samples is None


def test_source_requires_variant_fields():
    doc = static_doc(source={"variant": "blinking", "m": 10})
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json_dict(doc)
    assert err.value.field.startswith("config.source.")


def finite_set_doc():
    return {
        "seed": 5,
        "source": {
            "variant": "finite_set",
            "matrices": [[[0.5, 0.5], [0.1, 0.9]], [[1.0, 0.0], [0.3, 0.7]]],
            "weights": [0.25, 0.75],
        },
        "map": {"name": "logistic"},
        "estimator": {"t0_samples": [0, 5, 17]},
        "out": "results",
    }


@pytest.mark.parametrize(
    "doc, expected",
    [
        (static_doc(), "ebf43131e21d59ef"),
        (static_doc(seed=4), "88968907718122dc"),
        (blinking_doc(), "9ae36eb66200a8f3"),
        (finite_set_doc(), "ec0039d4936095b8"),
    ],
)
def test_hash_is_pinned(doc, expected):
    # summary.json and every CLI output carry this hash: it must not
    # change with how the document is serialised
    assert config_hash(ExperimentConfig.from_json_dict(doc)) == expected


def test_hash_tracks_content():
    a = config_hash(ExperimentConfig.from_json_dict(static_doc()))
    b = config_hash(ExperimentConfig.from_json_dict(static_doc(seed=4)))
    c = config_hash(ExperimentConfig.from_json_dict(static_doc()))
    assert a == c
    assert a != b
    assert len(a) == 16


def test_document_hash_of_a_matrix_set_is_the_compact_json_sha256():
    # jsr_bounds.json's config_hash: sort_keys leaves a list of float rows as it is
    rows = [[[0.5, 0.25, 0.25], [1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]], [[1e-17, 1.0 - 1e-17]]]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    assert document_hash(rows) == hashlib.sha256(blob).hexdigest()[:16]


def test_child_seed_is_stable_and_distinct():
    assert child_seed(7, 0) == child_seed(7, 0)
    assert child_seed(7, 0) != child_seed(7, 1)
    assert child_seed(8, 0) != child_seed(7, 0)
    assert 0 <= child_seed(7, 2) < 2**63


def test_build_static_source():
    src = build_source(ExperimentConfig.from_json_dict(static_doc()))
    assert isinstance(src, StaticSource)
    assert np.array_equal(src.at(0), [[0.5, 0.5], [0.25, 0.75]])


def test_build_finite_set_derives_seed_from_master():
    doc = {
        "seed": 5,
        "source": {
            "variant": "finite_set",
            "matrices": [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]],
        },
        "map": {"name": "logistic"},
    }
    a = build_source(ExperimentConfig.from_json_dict(doc))
    b = build_source(ExperimentConfig.from_json_dict(doc))
    assert isinstance(a, FiniteSetIIDSource)
    assert [a.index_at(t) for t in range(50)] == [b.index_at(t) for t in range(50)]
    doc2 = dict(doc, seed=6)
    c = build_source(ExperimentConfig.from_json_dict(doc2))
    assert [a.index_at(t) for t in range(200)] != [c.index_at(t) for t in range(200)]


def test_build_driven_variants():
    blink = build_source(ExperimentConfig.from_json_dict(blinking_doc()))
    assert isinstance(blink, DrivenSource)
    assert blink.m == 12
    blur_doc = {
        "seed": 2,
        "source": {"variant": "blurring", "m": 6, "r": 0.05},
        "map": {"name": "logistic"},
    }
    blur = build_source(ExperimentConfig.from_json_dict(blur_doc))
    assert blur.m == 6
    assert np.array_equal(
        blur.at(3),
        build_source(ExperimentConfig.from_json_dict(blur_doc)).at(3),
    )


def test_build_map():
    fmap = build_map(ExperimentConfig.from_json_dict(static_doc()))
    assert fmap.name == "logistic"
    assert fmap.params["alpha"] == 3.9


def test_initial_state_policies():
    cfg_diag = ExperimentConfig.from_json_dict(
        static_doc(simulation={"x0_policy": "diagonal"})
    )
    fmap = build_map(cfg_diag)
    x = initial_state(cfg_diag, 5, fmap)
    assert x.shape == (5,)
    assert np.all(x == x[0])

    cfg_near = ExperimentConfig.from_json_dict(
        static_doc(simulation={"x0_policy": "near_diagonal", "x0_eps": 1e-3})
    )
    y = initial_state(cfg_near, 5, fmap)
    assert np.max(np.abs(y - x[0])) <= 1e-3
    assert not np.all(y == y[0])

    cfg_rand = ExperimentConfig.from_json_dict(
        static_doc(simulation={"x0_policy": "random"})
    )
    z1 = initial_state(cfg_rand, 5, fmap)
    z2 = initial_state(cfg_rand, 5, fmap)
    assert np.array_equal(z1, z2)  # same seed, same draw
    assert np.all((0 <= z1) & (z1 <= 1))


def test_apply_parameter_bare_and_dotted():
    doc = blinking_doc()
    out = apply_parameter(doc, "p", 0.5)
    assert out["source"]["p"] == 0.5
    assert doc["source"]["p"] == 0.1  # original untouched
    out2 = apply_parameter(doc, "map.alpha", 3.5)
    assert out2["map"]["alpha"] == 3.5
    out3 = apply_parameter(doc, "steps", 99)
    assert out3["simulation"]["steps"] == 99
    with pytest.raises(InvalidParamsError, match="no config field named 'coupling_phase'"):
        apply_parameter(doc, "coupling_phase", 1.0)
    with pytest.raises(InvalidParamsError, match="no config field at 'source.nope'"):
        apply_parameter(doc, "source.nope", 1.0)


# a valid value per schema field; a field missing here is tried at its
# default, which must then be neither None nor required
SAMPLES = {
    "map": {"name": "logistic", "alpha": 3.5, "mu": 0.2},
    "estimator": {"horizon": 50, "t0_samples": [0, 10], "renorm_every": 3,
                  "n_vectors": 5, "mu_burn": 7, "mu_horizon": 999},
    "simulation": {"steps": 20, "record_every": 4, "x0_policy": "random", "x0_eps": 0.01},
    "static": {"matrix": [[0.5, 0.5], [0.25, 0.75]]},
    "periodic": {"matrices": [[[0.5, 0.5], [0.1, 0.9]], [[1.0, 0.0], [0.3, 0.7]]]},
    "finite_set": {"matrices": [[[0.5, 0.5], [0.1, 0.9]], [[1.0, 0.0], [0.3, 0.7]]],
                   "weights": [0.25, 0.75], "seed": 4},
    "blinking": {"m": 12, "avg_degree": 4, "p": 0.1, "t_rec": 3, "seed": 4},
    "blurring": {"m": 6, "r": 0.05, "seed": 4},
}


def schema_fields():
    """(variant, section, field, default) for every field of every table:
    the source's per variant, with the variant itself, and the other
    sections' once, under the static variant."""
    for variant, (_, table) in config._SOURCES.items():
        yield variant, "source", "variant", config._REQUIRED
        for key, (_, default) in table.items():
            yield variant, "source", key, default
    for section, table in config._SECTIONS.items():
        for key, (_, default) in table.items():
            yield "static", section, key, default


def test_apply_parameter_dotted_path_reaches_defaulted_fields():
    # each field left out of a document that holds only what the schema
    # requires, its section omitted where nothing in it is required
    for variant, section, key, default in schema_fields():
        samples = SAMPLES[variant if section == "source" else section]
        value = variant if key == "variant" else samples.get(key, default)
        assert value not in (None, config._REQUIRED), f"no sample value for {section}.{key}"
        doc = {
            "source": {"variant": variant, **{
                k: SAMPLES[variant][k] for k, (_, d) in config._SOURCES[variant][1].items()
                if d is config._REQUIRED
            }},
            "map": {"name": "logistic"},
        }
        kept = {k: v for k, v in doc.pop(section, {}).items() if k != key}
        if kept:
            doc[section] = kept
        out = apply_parameter(doc, f"{section}.{key}", value)
        assert out[section] == {**kept, key: value}
        assert key not in doc.get(section, {})  # original untouched
        cfg = ExperimentConfig.from_json_dict(out)
        spec = {"source": cfg.source, "map": cfg.map_spec}.get(section)
        got = getattr(getattr(cfg, section), key) if spec is None else spec[key]
        assert got == value, f"{section}.{key}"
        again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg and config_hash(again) == config_hash(cfg)
    doc = blinking_doc()
    del doc["estimator"], doc["simulation"]
    # a null section counts as absent
    assert apply_parameter({**doc, "estimator": None}, "estimator.horizon", 9)[
        "estimator"
    ] == {"horizon": 9}
    # the source fields depend on the variant
    static = {"source": {"variant": "static", "matrix": [[1.0]]}, "map": {"name": "logistic"}}
    for bad in ("source.bogus", "source.p", "map.beta", "estimator.nope", "sim.steps"):
        with pytest.raises(InvalidParamsError, match=f"no config field at {bad!r}"):
            apply_parameter(static if bad == "source.p" else doc, bad, 1.0)


def test_json_serializable_throughout():
    cfg = ExperimentConfig.from_json_dict(blinking_doc())
    text = json.dumps(cfg.to_json_dict(), sort_keys=True)
    assert "blinking" in text
