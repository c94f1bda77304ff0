"""Independent reader of simmering run directories.

Everything here is plain numpy and the standard library; nothing imports
the ``simmering`` package.  The benchmark's checks compare the program's
outputs against what this module computes from the raw files.

Parameter vectors follow the layout the bytes really have (the ``net``
module docstring): for each layer in input-to-output order, the weight
matrix of shape ``(fan_out, fan_in)`` flattened row-major, then the bias
vector of length ``fan_out``.  Binaries are little-endian float64.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# vendored tables behind the "builtin:" data paths: (csv file, schema file)
BUILTIN_TABLES = {
    "builtin:iris": ("iris.csv", "iris.json"),
    "builtin:auto_mpg_s": ("auto_mpg.csv", "auto_mpg_s.json"),
}

# members per batched forward chunk; bounds the (members, rows, width) buffer
_CHUNK_VALUES = 1 << 22


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Columns of a numeric CSV with a header row, as float64 arrays."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if any(len(row) != len(header) for row in body):
        raise ValueError(f"{path}: ragged rows")
    table = np.array(body, dtype=np.float64).reshape(len(body), len(header))
    return {name: table[:, k] for k, name in enumerate(header)}


# ---------------------------------------------------------------------------
# parameter files


def read_vectors(path, param_count: int) -> np.ndarray:
    """(n, param_count) matrix of flat parameter vectors from a .bin file."""
    flat = np.fromfile(path, dtype="<f8").astype(np.float64)
    if flat.size % param_count:
        raise ValueError(f"{path}: {flat.size} values is not a multiple of {param_count}")
    return flat.reshape(-1, param_count)


def read_members(rep_dir) -> tuple[np.ndarray, dict]:
    """Ensemble members of one replicate and their sidecar."""
    sidecar = read_json(Path(rep_dir) / "ensemble.json")
    members = read_vectors(Path(rep_dir) / "ensemble_members.bin", sidecar["param_count"])
    if members.shape[0] != sidecar["n_members"]:
        raise ValueError(
            f"{rep_dir}: {members.shape[0]} members on disk, sidecar says {sidecar['n_members']}"
        )
    return members, sidecar


def read_snapshot(rep_dir, name: str) -> tuple[np.ndarray, dict]:
    sidecar = read_json(Path(rep_dir) / "snapshots.json")
    vec = read_vectors(Path(rep_dir) / sidecar["files"][name], sidecar["param_count"])
    if vec.shape[0] != 1:
        raise ValueError(f"{rep_dir}: snapshot {name!r} holds {vec.shape[0]} vectors")
    return vec[0], sidecar


def layers(vectors: np.ndarray, layer_sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weights (M, fan_out, fan_in), biases (M, fan_out)) views."""
    vectors = np.atleast_2d(vectors)
    out, offset = [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        w = vectors[:, offset : offset + fan_out * fan_in].reshape(-1, fan_out, fan_in)
        offset += fan_out * fan_in
        out.append((w, vectors[:, offset : offset + fan_out]))
        offset += fan_out
    if offset != vectors.shape[1]:
        raise ValueError(f"layer sizes {list(layer_sizes)} need {offset} parameters")
    return out


def _activate(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    if kind == "linear":
        return z
    raise ValueError(f"unknown activation {kind!r}")


def forward(vectors: np.ndarray, layer_sizes, activations, inputs: np.ndarray) -> np.ndarray:
    """Outputs (M, rows, n_out) of every parameter vector on model-space inputs."""
    vectors = np.atleast_2d(vectors)
    inputs = np.asarray(inputs, dtype=np.float64)
    width = max(layer_sizes)
    chunk = max(1, _CHUNK_VALUES // (inputs.shape[0] * width))
    parts = []
    for lo in range(0, vectors.shape[0], chunk):
        a = inputs
        for (w, b), act in zip(layers(vectors[lo : lo + chunk], layer_sizes), activations):
            a = _activate(act, np.matmul(a, w.transpose(0, 2, 1)) + b[:, None, :])
        parts.append(a)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# losses and the MSE gradient, in model space


def loss(kind: str, outputs: np.ndarray, targets: np.ndarray) -> float:
    n = outputs.shape[0]
    if kind == "sse":
        return float(np.sum((outputs - targets) ** 2))
    if kind == "mse":
        return float(np.sum((outputs - targets) ** 2) / n)
    if kind == "categorical_cross_entropy":
        zmax = outputs.max(axis=1, keepdims=True)
        lse = zmax[:, 0] + np.log(np.exp(outputs - zmax).sum(axis=1))
        return float(np.mean(lse - (targets * outputs).sum(axis=1)))
    raise ValueError(f"no reference implementation of loss {kind!r}")


def mse_gradient(params: np.ndarray, layer_sizes, activations, inputs, targets) -> np.ndarray:
    """Backprop gradient of the mse loss (sse over the sample count); tanh and linear only."""
    views = layers(params, layer_sizes)
    acts = [inputs]
    for (w, b), act in zip(views, activations):
        if act not in ("tanh", "linear"):
            raise ValueError(f"mse_gradient handles tanh and linear layers, not {act!r}")
        acts.append(_activate(act, acts[-1] @ w[0].T + b[0]))
    grads = []
    delta = 2.0 * (acts[-1] - targets) / inputs.shape[0]
    for k in range(len(views) - 1, -1, -1):
        if activations[k] == "tanh":
            delta = delta * (1.0 - acts[k + 1] ** 2)
        grads.append((delta.sum(axis=0), (delta.T @ acts[k]).ravel()))
        delta = delta @ views[k][0][0]
    return np.concatenate([part for gb, gw in reversed(grads) for part in (gw, gb)])


def fd_hessian_eigenvalues(grad_fn, x: np.ndarray, base_step: float = 1e-4) -> np.ndarray:
    """Descending eigenvalues of the symmetrized central-difference Hessian."""
    n = x.size
    columns = np.empty((n, n))
    for j in range(n):
        h = base_step * (1.0 + abs(x[j]))
        up, down = x.copy(), x.copy()
        up[j] += h
        down[j] -= h
        columns[:, j] = (grad_fn(up) - grad_fn(down)) / (2.0 * h)
    return np.linalg.eigvalsh(0.5 * (columns + columns.T))[::-1]


# ---------------------------------------------------------------------------
# datasets, splits and scaling


@dataclass
class Data:
    """One experiment's split, in model space and in original units."""

    task: str
    features: np.ndarray
    targets: np.ndarray
    train: np.ndarray
    test: np.ndarray
    feature_lo: np.ndarray
    feature_hi: np.ndarray
    target_lo: np.ndarray | None
    target_hi: np.ndarray | None

    def scale_features(self, x) -> np.ndarray:
        return -1.0 + 2.0 * (np.asarray(x, dtype=np.float64) - self.feature_lo) / (
            self.feature_hi - self.feature_lo
        )

    def scale_targets(self, y) -> np.ndarray:
        if self.target_lo is None:
            return np.asarray(y, dtype=np.float64)
        return -1.0 + 2.0 * (y - self.target_lo) / (self.target_hi - self.target_lo)

    def unscale_targets(self, u) -> np.ndarray:
        if self.target_lo is None:
            return u
        return self.target_lo + (u + 1.0) * (self.target_hi - self.target_lo) / 2.0


def _stream(seed: int, purpose_code: int) -> np.random.Generator:
    entropy = [int(seed), int(purpose_code), 0]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=entropy)))


def _read_table(datasets_dir: Path, data_path: str):
    csv_name, schema_name = BUILTIN_TABLES[data_path]
    schema = read_json(datasets_dir / schema_name)
    markers = set(schema.get("missing_markers", ["?", ""]))
    used = schema["features"] + [schema["target"]]
    feats, labels = [], []
    with open(datasets_dir / csv_name, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if any(row[c].strip() in markers for c in used):
                continue
            feats.append([float(row[c]) for c in schema["features"]])
            labels.append(row[schema["target"]].strip())
    features = np.array(feats, dtype=np.float64)
    if schema["task"] == "regression":
        return "regression", features, np.array(labels, dtype=np.float64)[:, None]
    classes = sorted(set(labels))
    targets = np.zeros((len(labels), len(classes)))
    targets[np.arange(len(labels)), [classes.index(c) for c in labels]] = 1.0
    return "classification", features, targets


def load_data(config: dict, seed_purposes: dict, datasets_dir) -> Data:
    """Rebuild the dataset, split and scaler an experiment config describes."""
    spec, seed = config["data"], config["seed"]
    if spec["kind"] == "noisy_sine":
        x = np.linspace(-1.0, 1.0, spec["n_points"])[:, None]
        noise = _stream(seed, seed_purposes["noise"]).standard_normal(x.shape)
        task, features, targets = "regression", x, np.sin(2.0 * np.pi * x) + spec["noise_amp"] * noise
    else:
        task, features, targets = _read_table(Path(datasets_dir), spec["path"])
    order = _stream(seed, seed_purposes["split"]).permutation(features.shape[0])
    train, test = order[: spec["n_train"]], order[spec["n_train"] :]
    t_lo = t_hi = None
    if task == "regression":
        t_lo, t_hi = targets[train].min(axis=0), targets[train].max(axis=0)
    return Data(
        task=task,
        features=features,
        targets=targets,
        train=train,
        test=test,
        feature_lo=features[train].min(axis=0),
        feature_hi=features[train].max(axis=0),
        target_lo=t_lo,
        target_hi=t_hi,
    )


def ensemble_test_metric(data: Data, members: np.ndarray, layer_sizes, activations) -> float:
    """Pooled test mse (members averaged in original units) or majority-vote accuracy."""
    outputs = forward(members, layer_sizes, activations, data.scale_features(data.features[data.test]))
    truth = data.targets[data.test]
    if data.task == "regression":
        mean = data.unscale_targets(outputs).mean(axis=0)
        return float(np.mean((mean - truth) ** 2))
    votes = vote_counts(outputs)
    return float(np.mean(np.argmax(votes, axis=1) == np.argmax(truth, axis=1)))


def vote_counts(outputs: np.ndarray) -> np.ndarray:
    """(rows, classes) tally of member argmax votes from (M, rows, classes) logits."""
    n_classes = outputs.shape[2]
    if n_classes < 2:
        raise ValueError("votes from a single logit (binary by sign) are not covered")
    labels = np.argmax(outputs, axis=2)
    return np.stack([(labels == k).sum(axis=0) for k in range(n_classes)], axis=1)
