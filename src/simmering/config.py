"""Experiment configuration: a typed dataclass tree with JSON (de)serialization.

A config file is a single JSON document with sections ``data``, ``model``,
and optionally ``adam``, ``simmer`` and ``sampling``, plus top-level
``name``, ``seed`` and ``replicates``.  Each section is declared once, as a
table of its keys in the order :func:`to_dict` writes them, each with its
check (``data`` has one table per ``kind``).  :func:`from_dict` walks the
tables: a missing key takes the default of the dataclass field it parses
into, so every default lives on its field and nowhere else.  The rules that
read two keys (``t_target >= t_initial``, one activation per layer, ...)
run once their section has parsed.  :func:`to_dict` walks the same tables.

Parsing is strict: unknown keys, missing required keys, wrong types, and
out-of-range values all raise :class:`ConfigError` carrying the dotted path
of the offending field (e.g. ``simmer.schedule.t_step``).  ``null`` means
absent for ``adam``, ``simmer`` and ``sampling`` and fails anywhere else.
This is the one place the sampler's settings are checked:
``simmer.schedule`` parses into :class:`dynamics.TemperatureSchedule` and
``sampling`` into :class:`ensemble.SamplingPlan`, the types the integrator
and the member choice run on, and neither type checks its ranges again.

``from_dict``/``to_dict`` round-trip losslessly; ``load_config`` adds one
normalization on top of that: relative CSV/schema paths in ``data`` are
resolved against the config file's directory, so the returned config is
usable from any working directory.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from . import net
from .dynamics import TemperatureSchedule
from .ensemble import SamplingPlan

BUILTIN_PREFIX = "builtin:"


class ConfigError(ValueError):
    """Configuration problem, message prefixed with the dotted field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _fail(path: str, message: str):
    raise ConfigError(path, message)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _as_int(value, path: str, minimum=None) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return value


def _as_float(value, path: str, minimum=None, exclusive=False, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    value = float(value)
    if minimum is not None:
        if exclusive and not value > minimum:
            _fail(path, f"must be > {minimum}, got {value}")
        if not exclusive and value < minimum:
            _fail(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be <= {maximum}, got {value}")
    return value


def _as_str(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        _fail(path, f"must be one of {list(choices)}, got {value!r}")
    return value


def _as_name(value, path: str) -> str:
    if not _as_str(value, path):
        _fail(path, "must be non-empty")
    return value


def _as_list(value, path: str, item, message: str, nonempty=False) -> tuple:
    if not isinstance(value, list) or (nonempty and not value):
        _fail(path, message)
    return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))


def _or_none(check):
    """``check``, letting ``None`` through (an absent section or schema)."""
    return lambda value, path: None if value is None else check(value, path)


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


def _values(cls, raw: dict, path: str, fields) -> dict:
    """The checked values of ``fields`` present in ``raw``; a missing key
    whose ``cls`` field has no default is an error."""
    required = {f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}
    values = {}
    for key, check in fields:
        if key in raw:
            values[key] = check(raw[key], _join(path, key))
        elif key in required:
            _fail(_join(path, key), "required field is missing")
    return values


def _parse(cls, raw, path: str, fields=None):
    """The object ``raw`` parsed into ``cls`` through ``fields`` (``cls``'s
    table by default), then checked by ``cls``'s cross-field rule, if any."""
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    fields = fields or _FIELDS[cls]
    known = {key for key, _ in fields}
    for key in raw:
        if key not in known:
            _fail(_join(path, key), "unknown field")
    obj = cls(**_values(cls, raw, path, fields))
    if cls in _RULES:
        _RULES[cls](obj, path)
    return obj


def _parse_data(raw, path: str) -> DataConfig:
    """``data``'s kind picks its table; the keys both tables open with are
    checked before the kind's unknown keys."""
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    kind = _values(DataConfig, raw, path, _DATA_COMMON)["kind"]
    return _parse(DataConfig, raw, path, _DATA_FIELDS[kind])


def _check_data(d: DataConfig, path: str):
    if d.kind == "noisy_sine":
        if d.n_train >= d.n_points:
            _fail(
                _join(path, "n_train"),
                f"must leave at least one test point (n_points={d.n_points})",
            )
    elif d.path is None:
        _fail(_join(path, "path"), "required field is missing")
    elif d.path.startswith(BUILTIN_PREFIX):
        if d.schema is not None:
            _fail(
                _join(path, "schema"), "builtin datasets carry their own schema; leave this unset"
            )
    elif d.schema is None:
        _fail(_join(path, "schema"), "required for non-builtin csv datasets")


def _check_model(m: ModelConfig, path: str):
    if len(m.activations) != len(m.hidden) + 1:
        _fail(
            _join(path, "activations"),
            f"need {len(m.hidden) + 1} entries (one per hidden layer plus output), "
            f"got {len(m.activations)}",
        )


def _check_schedule(s: TemperatureSchedule, path: str):
    if s.t_target < s.t_initial:
        _fail(_join(path, "t_target"), f"must be >= t_initial ({s.t_initial}), got {s.t_target}")


def _check_experiment(cfg: ExperimentConfig, path: str):
    simmer, sampling = cfg.simmer, cfg.sampling
    if simmer is not None:
        if sampling is None:
            _fail("sampling", "required when a simmer section is present")
        if sampling.burn_in >= simmer.iterations:
            _fail("sampling.burn_in", f"must be < simmer.iterations ({simmer.iterations})")
        window, n_keep = sampling.window(simmer.iterations)
        if n_keep < 1:
            _fail(
                "sampling.fraction",
                f"{sampling.fraction} of the {len(window)} steps after burn_in and stride keeps none",
            )
    if cfg.adam is None and simmer is None:
        _fail("", "config needs at least one of 'adam' or 'simmer'")


_AT_LEAST_1 = partial(_as_int, minimum=1)
_NON_NEGATIVE = partial(_as_float, minimum=0.0)
_POSITIVE = partial(_as_float, minimum=0.0, exclusive=True)

# each section's keys in the order to_dict writes them, each with its check
_DATA_COMMON = (
    ("kind", lambda value, path: _as_str(value, path, _DATA_FIELDS)),
    ("n_train", _AT_LEAST_1),
)
_DATA_FIELDS = {
    "noisy_sine": _DATA_COMMON + (
        ("n_points", partial(_as_int, minimum=2)),
        ("noise_amp", _NON_NEGATIVE),
    ),
    "csv": _DATA_COMMON + (
        ("path", _as_str),
        ("schema", _or_none(_as_str)),
    ),
}
_FIELDS = {
    ModelConfig: (
        ("hidden", partial(
            _as_list, item=_AT_LEAST_1, message="expected a non-empty list of layer widths",
            nonempty=True,
        )),
        ("activations", partial(
            _as_list, item=partial(_as_str, choices=net.ACTIVATIONS), message="expected a list"
        )),
        ("loss", partial(_as_str, choices=net.LOSSES)),
        ("init", partial(_as_str, choices=net.INITIALIZERS)),
    ),
    AdamConfig: (
        ("alpha", _POSITIVE),
        ("epochs", partial(_as_int, minimum=2)),
    ),
    SimmerConfig: (
        ("dt", _POSITIVE),
        ("iterations", _AT_LEAST_1),
        ("chain_length", _AT_LEAST_1),
        ("chain_mass", _POSITIVE),
        ("particle_mass", _POSITIVE),
        ("schedule", partial(_parse, TemperatureSchedule)),
    ),
    TemperatureSchedule: (
        ("t_initial", _NON_NEGATIVE),
        ("t_target", _NON_NEGATIVE),
        ("t_step", _POSITIVE),
        ("hold_iterations", _AT_LEAST_1),
    ),
    SamplingPlan: (
        ("burn_in", partial(_as_int, minimum=0)),
        ("stride", _AT_LEAST_1),
        ("fraction", partial(_as_float, minimum=0.0, exclusive=True, maximum=1)),
    ),
    ExperimentConfig: (
        ("name", _as_name),
        ("seed", partial(_as_int, minimum=0)),
        ("replicates", _AT_LEAST_1),
        ("data", _parse_data),
        ("model", partial(_parse, ModelConfig)),
        ("adam", _or_none(partial(_parse, AdamConfig))),
        ("simmer", _or_none(partial(_parse, SimmerConfig))),
        ("sampling", _or_none(partial(_parse, SamplingPlan))),
    ),
}
# the rules that read more than one key, run once their section has parsed
_RULES = {
    DataConfig: _check_data,
    ModelConfig: _check_model,
    TemperatureSchedule: _check_schedule,
    ExperimentConfig: _check_experiment,
}


def from_dict(raw: dict) -> ExperimentConfig:
    """Parse and validate a plain dict (e.g. freshly JSON-decoded)."""
    if not isinstance(raw, dict):
        _fail("", "config root must be an object")
    return _parse(ExperimentConfig, raw, "")


def to_dict(config) -> dict:
    """Inverse of from_dict; the result is JSON-serializable."""
    fields = _DATA_FIELDS[config.kind] if isinstance(config, DataConfig) else _FIELDS[type(config)]
    out = {}
    for key, _ in fields:
        value = getattr(config, key)
        if dataclasses.is_dataclass(value):
            value = to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None:
            out[key] = value
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
