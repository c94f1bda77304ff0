"""Config parsing, validation paths, and JSON round-trips."""

import json
import os
import re
import tracemalloc

import pytest

from simmering import config
from simmering.config import ConfigError, SimmerConfig, from_dict, load_config, to_dict
from simmering.dynamics import TemperatureSchedule
from simmering.ensemble import SamplingPlan

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


def sine_dict(**overrides):
    raw = {
        "name": "sine",
        "seed": 0,
        "replicates": 2,
        "data": {"kind": "noisy_sine", "n_points": 101, "noise_amp": 0.1, "n_train": 65},
        "model": {
            "hidden": [20, 20],
            "activations": ["tanh", "tanh", "linear"],
            "loss": "sse",
            "init": "glorot_normal",
        },
        "adam": {"alpha": 0.002, "epochs": 2000},
        "simmer": {
            "dt": 0.002,
            "iterations": 10000,
            "chain_length": 2,
            "chain_mass": 1.0,
            "particle_mass": 1.0,
            "schedule": {
                "t_initial": 0.0,
                "t_target": 0.05,
                "t_step": 0.01,
                "hold_iterations": 1000,
            },
        },
        "sampling": {"burn_in": 7000, "stride": 1, "fraction": 1.0},
    }
    raw.update(overrides)
    return raw


def test_full_round_trip_is_lossless():
    cfg = from_dict(sine_dict())
    assert from_dict(to_dict(cfg)) == cfg
    assert cfg.model.hidden == (20, 20)
    assert cfg.simmer.schedule.t_target == 0.05
    assert cfg.sampling.burn_in == 7000


def test_round_trip_survives_json_text():
    cfg = from_dict(sine_dict())
    text = json.dumps(to_dict(cfg))
    assert from_dict(json.loads(text)) == cfg


def test_defaults_fill_in():
    # a config holding only the required keys takes the types' own defaults
    raw = sine_dict()
    del raw["replicates"]
    del raw["data"]["n_points"]
    del raw["data"]["noise_amp"]
    del raw["model"]["init"]
    del raw["simmer"]["chain_length"]
    del raw["simmer"]["chain_mass"]
    del raw["simmer"]["particle_mass"]
    del raw["simmer"]["schedule"]["t_step"]
    del raw["simmer"]["schedule"]["hold_iterations"]
    del raw["sampling"]["stride"]
    del raw["sampling"]["fraction"]
    cfg = from_dict(raw)
    assert cfg.replicates == 1
    assert cfg.data.n_points == 101 and cfg.data.noise_amp == 0.1
    assert cfg.model.init == "glorot_normal"
    assert cfg.simmer.chain_length == 2
    assert cfg.simmer.chain_mass == 1.0
    assert cfg.sampling.stride == 1
    assert cfg.sampling.fraction == 1.0
    assert cfg.simmer.schedule == TemperatureSchedule(0.0, 0.05)
    assert cfg.sampling == SamplingPlan(7000)
    assert cfg.simmer == SimmerConfig(0.002, 10000, TemperatureSchedule(0.0, 0.05))


def test_adam_only_config_is_valid():
    raw = sine_dict()
    del raw["simmer"]
    del raw["sampling"]
    cfg = from_dict(raw)
    assert cfg.simmer is None and cfg.sampling is None
    assert from_dict(to_dict(cfg)) == cfg


def test_simmer_only_config_is_valid():
    raw = sine_dict()
    del raw["adam"]
    cfg = from_dict(raw)
    assert cfg.adam is None
    assert from_dict(to_dict(cfg)) == cfg


def test_csv_builtin_config():
    raw = sine_dict()
    raw["data"] = {"kind": "csv", "path": "builtin:auto_mpg_s", "n_train": 313}
    cfg = from_dict(raw)
    assert cfg.data.path == "builtin:auto_mpg_s"
    assert cfg.data.schema is None
    assert from_dict(to_dict(cfg)) == cfg


@pytest.mark.parametrize(
    "mutate,path_fragment",
    [
        (lambda r: r.pop("name"), "name"),
        (lambda r: r.update(seed=-1), "seed"),
        (lambda r: r.update(seed=1.5), "seed"),
        (lambda r: r.update(replicates=0), "replicates"),
        (lambda r: r.update(bogus=1), "bogus"),
        (lambda r: r["data"].update(kind="parquet"), "data.kind"),
        (lambda r: r["data"].update(n_train=0), "data.n_train"),
        (lambda r: r["data"].update(n_train=101), "data.n_train"),
        (lambda r: r["data"].update(noise_amp=-0.1), "data.noise_amp"),
        (lambda r: r["data"].update(path="x.csv"), "data.path"),
        (lambda r: r["model"].update(hidden=[]), "model.hidden"),
        (lambda r: r["model"].update(hidden=[20, 0]), "model.hidden[1]"),
        (lambda r: r["model"].update(activations=["tanh", "linear"]), "model.activations"),
        (lambda r: r["model"].update(activations=["tanh", "nope", "linear"]), "model.activations[1]"),
        (lambda r: r["model"].update(loss="huber"), "model.loss"),
        (lambda r: r["model"].update(init="xavier"), "model.init"),
        (lambda r: r["adam"].update(alpha=0.0), "adam.alpha"),
        (lambda r: r["adam"].update(epochs=1), "adam.epochs"),
        (lambda r: r["simmer"].update(dt=0.0), "simmer.dt"),
        (lambda r: r["simmer"].update(iterations=0), "simmer.iterations"),
        (lambda r: r["simmer"]["schedule"].update(t_step=0.0), "simmer.schedule.t_step"),
        (lambda r: r["simmer"]["schedule"].update(t_target=-1.0), "simmer.schedule.t_target"),
        (lambda r: r["simmer"]["schedule"].update(hold_iterations=0), "simmer.schedule.hold_iterations"),
        (lambda r: r["sampling"].update(burn_in=10000), "sampling.burn_in"),
        (lambda r: r["sampling"].update(fraction=0.0), "sampling.fraction"),
        (lambda r: r["sampling"].update(fraction=1.5), "sampling.fraction"),
        (lambda r: r["sampling"].update(stride=0), "sampling.stride"),
        pytest.param(
            lambda r: r["simmer"]["schedule"].update(t_initial=0.5, t_target=0.1),
            "simmer.schedule.t_target",
            id="decreasing-schedule",
        ),
        pytest.param(
            lambda r: r["sampling"].update(fraction=1e-6),
            "sampling.fraction",
            id="fraction-keeps-none",
        ),
        pytest.param(
            lambda r: r["sampling"].update(burn_in=-1), "sampling.burn_in", id="negative-burn-in"
        ),
        pytest.param(
            lambda r: r["simmer"].update(chain_length=0), "simmer.chain_length", id="no-chain"
        ),
        pytest.param(
            lambda r: r["simmer"].update(chain_mass=0.0), "simmer.chain_mass", id="massless-chain"
        ),
        pytest.param(
            lambda r: r["simmer"].update(particle_mass=-1.0),
            "simmer.particle_mass",
            id="negative-particle-mass",
        ),
        pytest.param(lambda r: r.update(model=None), "model", id="null-model"),
        pytest.param(lambda r: r.update(data=None), "data", id="null-data"),
        pytest.param(
            lambda r: r["simmer"].update(schedule=None), "simmer.schedule", id="null-schedule"
        ),
        pytest.param(lambda r: r.update(seed=None), "seed", id="null-seed"),
    ],
)
def test_validation_errors_carry_field_paths(mutate, path_fragment):
    raw = sine_dict()
    mutate(raw)
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert path_fragment in str(err.value)
    assert err.value.path == path_fragment


def test_null_optional_section_is_absent():
    cfg = from_dict(sine_dict(adam=None))
    assert cfg.adam is None
    assert "adam" not in to_dict(cfg)


def _decreasing_schedule(raw):
    raw["simmer"]["schedule"].update(t_initial=0.5, t_target=0.1)


@pytest.mark.parametrize(
    "first,second,path",
    [
        pytest.param(
            lambda r: r["data"].update(kind="parquet"),
            lambda r: r["model"].update(loss="huber"),
            "data.kind",
            id="data-before-model",
        ),
        pytest.param(
            _decreasing_schedule,
            lambda r: r["sampling"].update(fraction=1.5),
            "simmer.schedule.t_target",
            id="simmer-before-sampling",
        ),
        # each section's keys are checked in the order to_dict writes them,
        # so simmer's chain and masses come before its schedule ...
        pytest.param(
            _decreasing_schedule,
            lambda r: r["simmer"].update(chain_mass=0.0),
            "simmer.chain_mass",
            id="chain-before-schedule",
        ),
        # ... and a rule reading two keys runs once its section has parsed
        pytest.param(
            lambda r: r["model"].update(activations=["tanh", "linear"]),
            lambda r: r["model"].update(loss="huber"),
            "model.loss",
            id="loss-before-activation-count",
        ),
    ],
)
def test_first_of_two_faults_is_reported(first, second, path):
    raw = sine_dict()
    first(raw)
    second(raw)
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert err.value.path == path


def test_csv_without_schema_rejected():
    raw = sine_dict()
    raw["data"] = {"kind": "csv", "path": "cars.csv", "n_train": 10}
    with pytest.raises(ConfigError, match="data.schema"):
        from_dict(raw)


def test_builtin_with_schema_rejected():
    raw = sine_dict()
    raw["data"] = {
        "kind": "csv",
        "path": "builtin:iris",
        "schema": "extra.json",
        "n_train": 10,
    }
    with pytest.raises(ConfigError, match="data.schema"):
        from_dict(raw)


def test_simmer_without_sampling_rejected():
    raw = sine_dict()
    del raw["sampling"]
    with pytest.raises(ConfigError, match="sampling"):
        from_dict(raw)


def test_neither_adam_nor_simmer_rejected():
    raw = sine_dict()
    del raw["adam"]
    del raw["simmer"]
    del raw["sampling"]
    with pytest.raises(ConfigError, match="adam|simmer"):
        from_dict(raw)


def test_parse_memory_does_not_grow_with_iterations():
    # the "keeps none" rule counts the sampling window; it builds no array
    with open(os.path.join(CONFIGS, "sine_retrofit.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["simmer"]["iterations"] = 10**7
    from_dict(raw)  # warm up: imports and caches are not the parse's
    tracemalloc.start()
    try:
        from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def float_fields(obj, path=""):
    """Dotted paths of the float values in a config dict."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from float_fields(value, f"{path}{key}.")
        elif isinstance(value, float):
            yield path + key


@pytest.mark.parametrize(
    "text", ["NaN", "Infinity", "-Infinity", "1e999", pytest.param("1" + "0" * 400, id="past-float")]
)
@pytest.mark.parametrize("field", sorted(float_fields(sine_dict())))
def test_a_non_finite_number_is_refused_naming_its_field(tmp_path, field, text):
    raw = sine_dict()
    *sections, key = field.split(".")
    section = raw
    for name in sections:
        section = section[name]
    section[key] = "<value>"
    p = tmp_path / "c.json"
    p.write_text(json.dumps(raw).replace('"<value>"', text))  # json reads each of these
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: must be a finite number"):
        load_config(str(p))


def test_bool_is_not_an_int():
    raw = sine_dict(seed=True)
    with pytest.raises(ConfigError, match="seed"):
        from_dict(raw)


def test_save_and_load_file_round_trip(tmp_path):
    cfg = from_dict(sine_dict())
    p = tmp_path / "exp.json"
    p.write_text(json.dumps(to_dict(cfg)))
    assert load_config(str(p)) == cfg


def test_load_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/exp.json")


def test_load_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(p))


def test_load_resolves_relative_csv_paths(tmp_path):
    csv = tmp_path / "points.csv"
    csv.write_text("x,y\n1.0,2.0\n")
    schema = tmp_path / "points.json"
    schema.write_text(json.dumps({"task": "regression", "features": ["x"], "target": "y"}))
    raw = sine_dict()
    raw["data"] = {"kind": "csv", "path": "points.csv", "schema": "points.json", "n_train": 1}
    p = tmp_path / "exp.json"
    p.write_text(json.dumps(raw))
    cfg = load_config(str(p))
    assert cfg.data.path == str(csv)
    assert cfg.data.schema == str(schema)


def test_load_reports_missing_referenced_files(tmp_path):
    raw = sine_dict()
    raw["data"] = {"kind": "csv", "path": "gone.csv", "schema": "gone.json", "n_train": 1}
    p = tmp_path / "exp.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="data.path"):
        load_config(str(p))


def test_builtin_path_is_not_resolved(tmp_path):
    raw = sine_dict()
    raw["data"] = {"kind": "csv", "path": "builtin:iris", "n_train": 112}
    p = tmp_path / "exp.json"
    p.write_text(json.dumps(raw))
    cfg = load_config(str(p))
    assert cfg.data.path == "builtin:iris"


def test_constant_schedule_accepted():
    raw = sine_dict()
    raw["simmer"]["schedule"] = {"t_initial": 0.002, "t_target": 0.002}
    cfg = from_dict(raw)
    assert cfg.simmer.schedule.t_initial == cfg.simmer.schedule.t_target == 0.002
    assert cfg.simmer.schedule.t_step == 1.0
    assert cfg.simmer.schedule.hold_iterations == 1


def test_to_dict_writes_the_keys_in_a_fixed_order():
    # resolved_config.json is to_dict's output; a change to its key order
    # changes the bytes of every run directory
    assert json.dumps(to_dict(from_dict(sine_dict()))) == (
        '{"name": "sine", "seed": 0, "replicates": 2, "data": {"kind": "noisy_sine", '
        '"n_train": 65, "n_points": 101, "noise_amp": 0.1}, "model": {"hidden": [20, 20], '
        '"activations": ["tanh", "tanh", "linear"], "loss": "sse", "init": "glorot_normal"}, '
        '"adam": {"alpha": 0.002, "epochs": 2000}, "simmer": {"dt": 0.002, "iterations": 10000, '
        '"chain_length": 2, "chain_mass": 1.0, "particle_mass": 1.0, "schedule": '
        '{"t_initial": 0.0, "t_target": 0.05, "t_step": 0.01, "hold_iterations": 1000}}, '
        '"sampling": {"burn_in": 7000, "stride": 1, "fraction": 1.0}}'
    )
    raw = sine_dict()
    raw["data"] = {"kind": "csv", "path": "builtin:auto_mpg_s", "n_train": 313}
    assert json.dumps(to_dict(from_dict(raw))) == (
        '{"name": "sine", "seed": 0, "replicates": 2, "data": {"kind": "csv", '
        '"n_train": 313, "path": "builtin:auto_mpg_s"}, "model": {"hidden": [20, 20], '
        '"activations": ["tanh", "tanh", "linear"], "loss": "sse", "init": "glorot_normal"}, '
        '"adam": {"alpha": 0.002, "epochs": 2000}, "simmer": {"dt": 0.002, "iterations": 10000, '
        '"chain_length": 2, "chain_mass": 1.0, "particle_mass": 1.0, "schedule": '
        '{"t_initial": 0.0, "t_target": 0.05, "t_step": 0.01, "hold_iterations": 1000}}, '
        '"sampling": {"burn_in": 7000, "stride": 1, "fraction": 1.0}}'
    )
