"""Dataset generation, CSV ingestion, splitting, and min-max scaling.

Tabular files are plain CSV with a header row.  A small JSON sidecar (the
"table schema") declares which columns are features, which single column is
the target, the task kind, and which cell values mark missing data.  Rows
containing a missing marker in any used column are dropped at load time;
any other unparsable cell is an error reported with its row number.

Vendored copies of the Iris and Auto-MPG-style tables live in
``simmering/datasets`` together with their schema files; ``load_builtin``
reaches them by short name so experiments need no network access.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import seeding

TASKS = ("regression", "classification")

# short name -> (csv file, schema file) inside simmering/datasets
_BUILTIN = {
    "iris": ("iris.csv", "iris.json"),
    "auto_mpg_s": ("auto_mpg.csv", "auto_mpg_s.json"),
    "auto_mpg_m": ("auto_mpg.csv", "auto_mpg_m.json"),
}


@dataclass
class Dataset:
    """Feature matrix plus target matrix; read-only by convention.

    Classification targets are one-hot rows (even for two classes) with
    ``target_names`` holding the class labels in sorted order; regression
    targets are real-valued columns named after the source columns.
    """

    features: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...]
    target_names: tuple[str, ...]
    task: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        self.feature_names = tuple(self.feature_names)
        self.target_names = tuple(self.target_names)
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.features.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("features and targets must be 2-D arrays")
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError("features and targets must have the same number of rows")
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names must name every feature column")
        if len(self.target_names) != self.targets.shape[1]:
            raise ValueError("target_names must name every target column")
        if not np.isfinite(self.features).all() or not np.isfinite(self.targets).all():
            raise ValueError("dataset contains non-finite entries")
        if self.task == "classification":
            one_hot = ((self.targets == 0.0) | (self.targets == 1.0)).all() and (
                self.targets.sum(axis=1) == 1.0
            ).all()
            if not one_hot:
                raise ValueError("classification targets must be one-hot rows")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class TableSchema:
    """Declares how to read a CSV: column roles, task kind, missing markers."""

    task: str
    features: tuple[str, ...]
    target: str
    missing_markers: tuple[str, ...] = ("?", "")

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "missing_markers", tuple(self.missing_markers))
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if not self.features:
            raise ValueError("schema must declare at least one feature column")
        if len(set(self.features)) != len(self.features):
            raise ValueError("feature columns must be unique")
        if self.target in self.features:
            raise ValueError(f"target column {self.target!r} also listed as a feature")


def schema_from_dict(raw: dict) -> TableSchema:
    allowed = {"task", "features", "target", "missing_markers"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown schema keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = {"task", "features", "target"} - set(raw)
    if missing:
        raise ValueError(f"schema is missing required keys {sorted(missing)}")
    kwargs = dict(task=raw["task"], features=raw["features"], target=raw["target"])
    if "missing_markers" in raw:
        kwargs["missing_markers"] = raw["missing_markers"]
    return TableSchema(**kwargs)


def load_schema(path) -> TableSchema:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: schema must be a JSON object")
    return schema_from_dict(raw)


def load_csv(path, schema: TableSchema) -> Dataset:
    """Read a CSV under a schema, dropping rows with missing markers.

    Cells are compared against the missing markers after stripping
    surrounding whitespace, so a bare ``?`` survives sloppy spacing.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such dataset file: {path}")
    used = (*schema.features, schema.target)
    feature_rows: list[list[float]] = []
    raw_targets: list[str] = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or ()
        absent = [c for c in used if c not in header]
        if absent:
            raise ValueError(
                f"{path.name}: columns {absent} not in header {list(header)}"
            )
        for row_no, row in enumerate(reader, start=2):
            cells = {c: row[c] for c in used}
            if any(v is None for v in cells.values()):
                raise ValueError(f"{path.name} row {row_no}: fewer cells than header columns")
            if any(v.strip() in schema.missing_markers for v in cells.values()):
                continue
            parsed = []
            for col in schema.features:
                try:
                    parsed.append(float(cells[col]))
                except ValueError:
                    raise ValueError(
                        f"{path.name} row {row_no}: cannot parse {cells[col]!r} "
                        f"in column {col!r} as a number"
                    ) from None
            if schema.task == "regression":
                try:
                    raw_targets.append(float(cells[schema.target]))  # type: ignore[arg-type]
                except ValueError:
                    raise ValueError(
                        f"{path.name} row {row_no}: cannot parse {cells[schema.target]!r} "
                        f"in column {schema.target!r} as a number"
                    ) from None
            else:
                raw_targets.append(cells[schema.target].strip())
            feature_rows.append(parsed)
    if not feature_rows:
        raise ValueError(f"{path.name}: no usable rows after dropping missing values")
    features = np.array(feature_rows, dtype=np.float64)
    if schema.task == "regression":
        targets = np.array(raw_targets, dtype=np.float64)[:, None]
        target_names = (schema.target,)
    else:
        classes = sorted(set(raw_targets))
        index = {label: k for k, label in enumerate(classes)}
        targets = np.zeros((len(raw_targets), len(classes)))
        for i, label in enumerate(raw_targets):
            targets[i, index[label]] = 1.0
        target_names = tuple(classes)
    return Dataset(features, targets, schema.features, target_names, schema.task)


def builtin_dataset_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN))


def load_builtin(name: str) -> Dataset:
    """Load one of the vendored tables by short name."""
    if name not in _BUILTIN:
        raise ValueError(
            f"unknown builtin dataset {name!r}; available: {builtin_dataset_names()}"
        )
    csv_name, schema_name = _BUILTIN[name]
    root = resources.files(__package__) / "datasets"
    schema = schema_from_dict(json.loads((root / schema_name).read_text()))
    with resources.as_file(root / csv_name) as real_path:
        return load_csv(real_path, schema)


def gen_noisy_sine(n_points: int, noise_amp: float, seed: int) -> Dataset:
    """sin(2*pi*x) on an even grid over [-1, 1] with additive Gaussian noise."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    x = np.linspace(-1.0, 1.0, n_points)[:, None]
    rng = seeding.stream(seed, "noise")
    y = np.sin(2.0 * np.pi * x) + noise_amp * rng.standard_normal((n_points, 1))
    return Dataset(x, y, ("x",), ("y",), "regression")


@dataclass(frozen=True)
class Split:
    """Disjoint train/test row indices of one dataset."""

    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "train_indices", np.asarray(self.train_indices, dtype=np.intp)
        )
        object.__setattr__(
            self, "test_indices", np.asarray(self.test_indices, dtype=np.intp)
        )
        if self.train_indices.size == 0 or self.test_indices.size == 0:
            raise ValueError("both sides of a split must be non-empty")
        # by sorting and searching: np.intersect1d would import numpy.ma,
        # which every stage would pay for at start-up
        train, test = np.sort(self.train_indices), np.sort(self.test_indices)
        at = np.minimum(np.searchsorted(train, test), train.size - 1)
        shared = test[train[at] == test]
        if shared.size:
            first = shared[np.concatenate(([True], shared[1:] != shared[:-1]))]
            raise ValueError(f"train and test indices overlap: {first[:5]}")


def split(dataset: Dataset, n_train: int, seed: int) -> Split:
    """Seeded uniform permutation split; first n_train rows train."""
    s = dataset.n_samples
    if not 0 < n_train < s:
        raise ValueError(f"n_train must be in (0, {s}), got {n_train}")
    order = seeding.stream(seed, "split").permutation(s)
    return Split(train_indices=order[:n_train], test_indices=order[n_train:])


@dataclass(frozen=True)
class ScalerParams:
    """Per-column train-data bounds for the [-1, 1] linear map.

    Target bounds are present only for regression; classification targets
    pass through scaling untouched.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray
    target_min: np.ndarray | None = None
    target_max: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "feature_min", np.asarray(self.feature_min, dtype=np.float64))
        object.__setattr__(self, "feature_max", np.asarray(self.feature_max, dtype=np.float64))
        if self.target_min is not None:
            object.__setattr__(self, "target_min", np.asarray(self.target_min, dtype=np.float64))
            object.__setattr__(self, "target_max", np.asarray(self.target_max, dtype=np.float64))

    @property
    def scales_targets(self) -> bool:
        return self.target_min is not None


def _check_spread(low: np.ndarray, high: np.ndarray, names: tuple[str, ...]) -> None:
    flat = (high <= low).nonzero()[0]
    if flat.size:
        offenders = ", ".join(names[i] for i in flat)
        raise ValueError(f"constant column(s) cannot be min-max scaled: {offenders}")


def minmax_fit(dataset: Dataset, data_split: Split) -> ScalerParams:
    """Column bounds from the training rows only."""
    train_x = dataset.features[data_split.train_indices]
    f_min = train_x.min(axis=0)
    f_max = train_x.max(axis=0)
    _check_spread(f_min, f_max, dataset.feature_names)
    if dataset.task == "regression":
        train_y = dataset.targets[data_split.train_indices]
        t_min = train_y.min(axis=0)
        t_max = train_y.max(axis=0)
        _check_spread(t_min, t_max, dataset.target_names)
        return ScalerParams(f_min, f_max, t_min, t_max)
    return ScalerParams(f_min, f_max)


def _to_unit(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return -1.0 + 2.0 * (x - lo) / (hi - lo)


def _from_unit(u: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return lo + (u + 1.0) * (hi - lo) / 2.0


def scale_features(scaler: ScalerParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != scaler.feature_min.shape[0]:
        raise ValueError("feature width does not match the fitted scaler")
    return _to_unit(x, scaler.feature_min, scaler.feature_max)


def scale_targets(scaler: ScalerParams, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if not scaler.scales_targets:
        return y.copy()
    if y.shape[-1] != scaler.target_min.shape[0]:
        raise ValueError("target width does not match the fitted scaler")
    return _to_unit(y, scaler.target_min, scaler.target_max)


def unscale_targets(scaler: ScalerParams, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if not scaler.scales_targets:
        return y.copy()
    if y.shape[-1] != scaler.target_min.shape[0]:
        raise ValueError("target width does not match the fitted scaler")
    return _from_unit(y, scaler.target_min, scaler.target_max)

