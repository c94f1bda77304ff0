"""Experiment configuration: a typed dataclass tree with JSON (de)serialization.

A config file is a single JSON document with sections ``data``, ``model``,
and optionally ``adam``, ``simmer`` and ``sampling``, plus top-level
``name``, ``seed`` and ``replicates``.  Parsing is strict: unknown keys,
missing required keys, wrong types, and out-of-range values all raise
:class:`ConfigError` carrying the dotted path of the offending field
(e.g. ``simmer.schedule.t_step``).  This is the one place the sampler's
settings are checked: ``simmer.schedule`` parses into
:class:`dynamics.TemperatureSchedule` and ``sampling`` into
:class:`ensemble.SamplingPlan`, the types the integrator and the member
choice run on, and neither type checks its ranges again.

``from_dict``/``to_dict`` round-trip losslessly; ``load_config`` adds one
normalization on top of that: relative CSV/schema paths in ``data`` are
resolved against the config file's directory, so the returned config is
usable from any working directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Optional

from . import net
from .dynamics import TemperatureSchedule
from .ensemble import SamplingPlan

DATA_KINDS = ("noisy_sine", "csv")
INITIALIZERS = ("glorot_normal", "stratified_glorot")
BUILTIN_PREFIX = "builtin:"


class ConfigError(ValueError):
    """Configuration problem, message prefixed with the dotted field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _fail(path: str, message: str):
    raise ConfigError(path, message)


def _get(raw: dict, key: str, path: str, required: bool, default=None):
    if key in raw:
        return raw[key]
    if required:
        _fail(_join(path, key), "required field is missing")
    return default


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_unknown(raw: dict, known: tuple, path: str):
    for key in raw:
        if key not in known:
            _fail(_join(path, key), "unknown field")


def _as_int(value, path: str, minimum=None) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return value


def _as_float(value, path: str, minimum=None, exclusive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    value = float(value)
    if minimum is not None:
        if exclusive and not value > minimum:
            _fail(path, f"must be > {minimum}, got {value}")
        if not exclusive and value < minimum:
            _fail(path, f"must be >= {minimum}, got {value}")
    return value


def _as_str(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        _fail(path, f"must be one of {list(choices)}, got {value!r}")
    return value


@dataclass(frozen=True)
class DataConfig:
    """Which dataset to train on and how to split it."""

    kind: str                     # "noisy_sine" or "csv"
    n_train: int
    n_points: int = 101           # noisy_sine only
    noise_amp: float = 0.1        # noisy_sine only
    path: Optional[str] = None    # csv only: file path or "builtin:<name>"
    schema: Optional[str] = None  # csv only: schema JSON path (None for builtin)


@dataclass(frozen=True)
class ModelConfig:
    """Network shape (input/output widths come from the dataset)."""

    hidden: tuple
    activations: tuple
    loss: str
    init: str = "glorot_normal"


@dataclass(frozen=True)
class AdamConfig:
    alpha: float
    epochs: int


@dataclass(frozen=True)
class SimmerConfig:
    dt: float
    iterations: int
    schedule: TemperatureSchedule
    chain_length: int = 2
    chain_mass: float = 1.0
    particle_mass: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seed: int
    data: DataConfig
    model: ModelConfig
    adam: Optional[AdamConfig] = None
    simmer: Optional[SimmerConfig] = None
    sampling: Optional[SamplingPlan] = None
    replicates: int = 1


def _parse_data(raw, path: str) -> DataConfig:
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    kind = _as_str(_get(raw, "kind", path, required=True), _join(path, "kind"), DATA_KINDS)
    n_train = _as_int(_get(raw, "n_train", path, required=True), _join(path, "n_train"), minimum=1)
    if kind == "noisy_sine":
        _check_unknown(raw, ("kind", "n_train", "n_points", "noise_amp"), path)
        n_points = _as_int(_get(raw, "n_points", path, False, 101), _join(path, "n_points"), minimum=2)
        noise_amp = _as_float(_get(raw, "noise_amp", path, False, 0.1), _join(path, "noise_amp"), minimum=0.0)
        if n_train >= n_points:
            _fail(_join(path, "n_train"), f"must leave at least one test point (n_points={n_points})")
        return DataConfig(kind=kind, n_train=n_train, n_points=n_points, noise_amp=noise_amp)
    _check_unknown(raw, ("kind", "n_train", "path", "schema"), path)
    csv_path = _as_str(_get(raw, "path", path, required=True), _join(path, "path"))
    schema = _get(raw, "schema", path, required=False)
    if schema is not None:
        schema = _as_str(schema, _join(path, "schema"))
    if csv_path.startswith(BUILTIN_PREFIX):
        if schema is not None:
            _fail(_join(path, "schema"), "builtin datasets carry their own schema; leave this unset")
    elif schema is None:
        _fail(_join(path, "schema"), "required for non-builtin csv datasets")
    return DataConfig(kind=kind, n_train=n_train, path=csv_path, schema=schema)


def _parse_model(raw, path: str) -> ModelConfig:
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    _check_unknown(raw, ("hidden", "activations", "loss", "init"), path)
    hidden_raw = _get(raw, "hidden", path, required=True)
    if not isinstance(hidden_raw, list) or not hidden_raw:
        _fail(_join(path, "hidden"), "expected a non-empty list of layer widths")
    hidden = tuple(
        _as_int(h, f"{path}.hidden[{i}]", minimum=1) for i, h in enumerate(hidden_raw)
    )
    acts_raw = _get(raw, "activations", path, required=True)
    if not isinstance(acts_raw, list):
        _fail(_join(path, "activations"), "expected a list")
    acts = tuple(
        _as_str(a, f"{path}.activations[{i}]", net.ACTIVATIONS)
        for i, a in enumerate(acts_raw)
    )
    if len(acts) != len(hidden) + 1:
        _fail(
            _join(path, "activations"),
            f"need {len(hidden) + 1} entries (one per hidden layer plus output), got {len(acts)}",
        )
    loss = _as_str(_get(raw, "loss", path, required=True), _join(path, "loss"), net.LOSSES)
    init = _as_str(_get(raw, "init", path, False, "glorot_normal"), _join(path, "init"), INITIALIZERS)
    return ModelConfig(hidden=hidden, activations=acts, loss=loss, init=init)


def _parse_adam(raw, path: str) -> AdamConfig:
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    _check_unknown(raw, ("alpha", "epochs"), path)
    alpha = _as_float(_get(raw, "alpha", path, required=True), _join(path, "alpha"), minimum=0.0, exclusive=True)
    epochs = _as_int(_get(raw, "epochs", path, required=True), _join(path, "epochs"), minimum=2)
    return AdamConfig(alpha=alpha, epochs=epochs)


def _parse_schedule(raw, path: str) -> TemperatureSchedule:
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    _check_unknown(raw, ("t_initial", "t_target", "t_step", "hold_iterations"), path)
    t_initial = _as_float(_get(raw, "t_initial", path, required=True), _join(path, "t_initial"), minimum=0.0)
    t_target = _as_float(_get(raw, "t_target", path, required=True), _join(path, "t_target"), minimum=0.0)
    t_step = _as_float(_get(raw, "t_step", path, False, 1.0), _join(path, "t_step"), minimum=0.0, exclusive=True)
    hold = _as_int(_get(raw, "hold_iterations", path, False, 1), _join(path, "hold_iterations"), minimum=1)
    if t_target < t_initial:
        _fail(_join(path, "t_target"), f"must be >= t_initial ({t_initial}), got {t_target}")
    return TemperatureSchedule(t_initial=t_initial, t_target=t_target, t_step=t_step, hold_iterations=hold)


def _parse_simmer(raw, path: str) -> SimmerConfig:
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    _check_unknown(
        raw, ("dt", "iterations", "schedule", "chain_length", "chain_mass", "particle_mass"), path
    )
    dt = _as_float(_get(raw, "dt", path, required=True), _join(path, "dt"), minimum=0.0, exclusive=True)
    iterations = _as_int(_get(raw, "iterations", path, required=True), _join(path, "iterations"), minimum=1)
    schedule = _parse_schedule(_get(raw, "schedule", path, required=True), _join(path, "schedule"))
    chain_length = _as_int(_get(raw, "chain_length", path, False, 2), _join(path, "chain_length"), minimum=1)
    chain_mass = _as_float(_get(raw, "chain_mass", path, False, 1.0), _join(path, "chain_mass"), minimum=0.0, exclusive=True)
    particle_mass = _as_float(_get(raw, "particle_mass", path, False, 1.0), _join(path, "particle_mass"), minimum=0.0, exclusive=True)
    return SimmerConfig(
        dt=dt,
        iterations=iterations,
        schedule=schedule,
        chain_length=chain_length,
        chain_mass=chain_mass,
        particle_mass=particle_mass,
    )


def _parse_sampling(raw, path: str) -> SamplingPlan:
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    _check_unknown(raw, ("burn_in", "stride", "fraction"), path)
    burn_in = _as_int(_get(raw, "burn_in", path, required=True), _join(path, "burn_in"), minimum=0)
    stride = _as_int(_get(raw, "stride", path, False, 1), _join(path, "stride"), minimum=1)
    fraction = _as_float(_get(raw, "fraction", path, False, 1.0), _join(path, "fraction"), minimum=0.0, exclusive=True)
    if fraction > 1.0:
        _fail(_join(path, "fraction"), f"must be <= 1, got {fraction}")
    return SamplingPlan(burn_in=burn_in, stride=stride, fraction=fraction)


_TOP_KEYS = ("name", "seed", "data", "model", "adam", "simmer", "sampling", "replicates")


def from_dict(raw: dict) -> ExperimentConfig:
    """Parse and validate a plain dict (e.g. freshly JSON-decoded)."""
    if not isinstance(raw, dict):
        _fail("", "config root must be an object")
    _check_unknown(raw, _TOP_KEYS, "")
    name = _as_str(_get(raw, "name", "", required=True), "name")
    if not name:
        _fail("name", "must be non-empty")
    seed = _as_int(_get(raw, "seed", "", required=True), "seed", minimum=0)
    replicates = _as_int(_get(raw, "replicates", "", False, 1), "replicates", minimum=1)
    data = _parse_data(_get(raw, "data", "", required=True), "data")
    model = _parse_model(_get(raw, "model", "", required=True), "model")
    adam = raw.get("adam")
    if adam is not None:
        adam = _parse_adam(adam, "adam")
    simmer = raw.get("simmer")
    if simmer is not None:
        simmer = _parse_simmer(simmer, "simmer")
    sampling = raw.get("sampling")
    if sampling is not None:
        sampling = _parse_sampling(sampling, "sampling")

    if simmer is not None:
        if sampling is None:
            _fail("sampling", "required when a simmer section is present")
        if sampling.burn_in >= simmer.iterations:
            _fail("sampling.burn_in", f"must be < simmer.iterations ({simmer.iterations})")
        window, n_keep = sampling.window(simmer.iterations)
        if n_keep < 1:
            _fail(
                "sampling.fraction",
                f"{sampling.fraction} of the {window.size} steps after burn_in and stride keeps none",
            )
    if adam is None and simmer is None:
        _fail("", "config needs at least one of 'adam' or 'simmer'")
    return ExperimentConfig(
        name=name,
        seed=seed,
        data=data,
        model=model,
        adam=adam,
        simmer=simmer,
        sampling=sampling,
        replicates=replicates,
    )


def to_dict(config: ExperimentConfig) -> dict:
    """Inverse of from_dict; the result is JSON-serializable."""
    data: dict = {"kind": config.data.kind, "n_train": config.data.n_train}
    if config.data.kind == "noisy_sine":
        data["n_points"] = config.data.n_points
        data["noise_amp"] = config.data.noise_amp
    else:
        data["path"] = config.data.path
        if config.data.schema is not None:
            data["schema"] = config.data.schema
    out: dict = {
        "name": config.name,
        "seed": config.seed,
        "replicates": config.replicates,
        "data": data,
        "model": {
            "hidden": list(config.model.hidden),
            "activations": list(config.model.activations),
            "loss": config.model.loss,
            "init": config.model.init,
        },
    }
    if config.adam is not None:
        out["adam"] = {"alpha": config.adam.alpha, "epochs": config.adam.epochs}
    if config.simmer is not None:
        s = config.simmer
        out["simmer"] = {
            "dt": s.dt,
            "iterations": s.iterations,
            "chain_length": s.chain_length,
            "chain_mass": s.chain_mass,
            "particle_mass": s.particle_mass,
            "schedule": {
                "t_initial": s.schedule.t_initial,
                "t_target": s.schedule.t_target,
                "t_step": s.schedule.t_step,
                "hold_iterations": s.schedule.hold_iterations,
            },
        }
    if config.sampling is not None:
        out["sampling"] = {
            "burn_in": config.sampling.burn_in,
            "stride": config.sampling.stride,
            "fraction": config.sampling.fraction,
        }
    return out


def load_config(path: str) -> ExperimentConfig:
    """Load a JSON config file; resolve relative data paths against its directory."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"config file {path} is not valid JSON: {exc}")
    cfg = from_dict(raw)
    if cfg.data.kind == "csv" and not cfg.data.path.startswith(BUILTIN_PREFIX):
        base = os.path.dirname(os.path.abspath(path))
        csv_path = cfg.data.path
        if not os.path.isabs(csv_path):
            csv_path = os.path.join(base, csv_path)
        schema_path = cfg.data.schema
        if not os.path.isabs(schema_path):
            schema_path = os.path.join(base, schema_path)
        if not os.path.exists(csv_path):
            raise ConfigError("data.path", f"file not found: {csv_path}")
        if not os.path.exists(schema_path):
            raise ConfigError("data.schema", f"file not found: {schema_path}")
        cfg = replace(cfg, data=replace(cfg.data, path=csv_path, schema=schema_path))
    return cfg

