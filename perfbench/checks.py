"""Checks of each pipeline stage's outputs, made apart from the program.

Every check recomputes what a stage wrote with the independent reader
(``reader.py``) or tests a property the method must have.  None compares
against a stored copy of earlier output.  A failing check raises
:class:`CheckFailed` with a one-line reason.

``CHECKS`` maps a stage role ("adam", "run", "eval", "spectrum") to its
check; each takes the mapping of role to output directory and the
:class:`Spec` the workload ran with.  Run as a script, it checks one
pipeline run in its own process and prints ``{role: reason}`` for every
failed stage and the environment record:

    python3 perfbench/checks.py REQUEST.json
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reader

# relative error allowed between a reported metric and its recomputation
METRIC_RTOL = 1e-9
# mean kinetic temperature over the sampling window, relative to the target
T_KINETIC_RTOL = 0.05
# extended-energy spread on a constant-temperature stretch, relative to
# max(|E|, N*T); criterion 3 of the acceptance suite uses the same figure
ENERGY_DRIFT = 1e-3
# spectrum eigenvalues against the reference, relative to the largest
SPECTRUM_RTOL = 1e-6
# decision-grid nodes compared with independent votes
GRID_SAMPLE_NODES = 64


class CheckFailed(Exception):
    """A stage's output disagrees with its independent recomputation."""


@dataclass(frozen=True)
class Spec:
    """What a workload asked the program to do."""

    config: dict
    datasets_dir: Path
    at_points: tuple[tuple[float, ...], ...] = ()
    grid_resolution: int | None = None


def _require(ok, message: str):
    if not ok:
        raise CheckFailed(message)


def _close(value: float, reference: float, what: str, rtol: float = METRIC_RTOL):
    scale = max(abs(reference), 1e-300)
    _require(
        abs(value - reference) <= rtol * scale,
        f"{what}: program reports {value!r}, recomputed {reference!r}",
    )


def _data(run_dir: Path, spec: Spec) -> reader.Data:
    resolved = reader.read_json(run_dir / "resolved_config.json")
    _require(
        resolved["config"]["seed"] == spec.config["seed"],
        f"{run_dir.name}: resolved seed {resolved['config']['seed']} != {spec.config['seed']}",
    )
    return reader.load_data(spec.config, resolved["seed_purposes"], spec.datasets_dir)


def _model(spec: Spec, data: reader.Data):
    sizes = (data.features.shape[1], *spec.config["model"]["hidden"], data.targets.shape[1])
    return sizes, spec.config["model"]["activations"]


def _replicate_dirs(run_dir: Path, spec: Spec) -> list[Path]:
    return [run_dir / f"replicate_{r:02d}" for r in range(spec.config["replicates"])]


def _pooled_members(run_dir: Path, spec: Spec) -> np.ndarray:
    return np.concatenate([reader.read_members(d)[0] for d in _replicate_dirs(run_dir, spec)])


# ---------------------------------------------------------------------------
# stage checks


def _check_adam_replicate(rep_dir: Path, spec: Spec, data: reader.Data):
    """The last losses.csv train loss equals the loss of snapshot_final.bin."""
    sizes, acts = _model(spec, data)
    final, sidecar = reader.read_snapshot(rep_dir, "final")
    _require(list(sidecar["layer_sizes"]) == list(sizes), f"{rep_dir}: layer sizes {sidecar['layer_sizes']}")
    losses = reader.read_csv_columns(rep_dir / "losses.csv")
    epochs = spec.config["adam"]["epochs"]
    _require(losses["epoch"].size == epochs, f"{rep_dir}: {losses['epoch'].size} loss rows, {epochs} epochs")
    train_x = data.scale_features(data.features[data.train])
    train_y = data.scale_targets(data.targets[data.train])
    out = reader.forward(final, sizes, acts, train_x)[0]
    reference = reader.loss(spec.config["model"]["loss"], out, train_y)
    _close(float(losses["loss_train"][-1]), reference, f"{rep_dir.name} last train loss")


def check_adam(dirs: dict, spec: Spec):
    data = _data(dirs["adam"], spec)
    for rep_dir in _replicate_dirs(dirs["adam"], spec):
        _check_adam_replicate(rep_dir, spec, data)


def _check_members(rep_dir: Path, spec: Spec, trajectory: dict):
    """Member count from the sampling plan; captures inside the window, increasing."""
    _, sidecar = reader.read_members(rep_dir)
    iterations = spec.config["simmer"]["iterations"]
    sampling = spec.config["sampling"]
    burn_in, stride = sampling["burn_in"], sampling["stride"]
    expected = round(sampling["fraction"] * (iterations - burn_in) / stride)
    _require(
        sidecar["n_members"] == expected,
        f"{rep_dir.name}: {sidecar['n_members']} members, sampling plan gives {expected}",
    )
    captured = np.asarray(sidecar["iterations"], dtype=np.int64)
    _require(captured.size == expected, f"{rep_dir.name}: {captured.size} capture iterations")
    _require(np.all(np.diff(captured) > 0), f"{rep_dir.name}: capture iterations not increasing")
    _require(
        captured[0] > burn_in and captured[-1] <= iterations,
        f"{rep_dir.name}: captures {captured[0]}..{captured[-1]} leave ({burn_in}, {iterations}]",
    )
    at_capture = trajectory["T_target"][captured - 1]
    _require(
        np.array_equal(np.asarray(sidecar["temperatures"]), at_capture),
        f"{rep_dir.name}: member temperatures differ from T_target at capture",
    )


def _check_sampler(rep_dir: Path, spec: Spec, trajectory: dict, n_params: int):
    """Kinetic temperature near target and energy conserved on constant-T stretches."""
    iterations = spec.config["simmer"]["iterations"]
    _require(
        np.array_equal(trajectory["iteration"], np.arange(1, iterations + 1)),
        f"{rep_dir.name}: trajectory.csv does not list iterations 1..{iterations}",
    )
    window = trajectory["iteration"] > spec.config["sampling"]["burn_in"]
    t_target = trajectory["T_target"][window]
    t_kin = trajectory["T_kinetic"][window]
    energy = trajectory["extended_energy"][window]
    ratio = t_kin.mean() / t_target.mean()
    _require(
        abs(ratio - 1.0) <= T_KINETIC_RTOL,
        f"{rep_dir.name}: mean T_kinetic / T_target = {ratio:.4f} over the sampling window",
    )
    _require(np.all(np.isfinite(energy)), f"{rep_dir.name}: non-finite extended energy")
    starts = np.flatnonzero(np.diff(t_target)) + 1
    for stretch_t, stretch_e in zip(np.split(t_target, starts), np.split(energy, starts)):
        scale = max(np.abs(stretch_e).max(), n_params * stretch_t[0])
        drift = (stretch_e.max() - stretch_e.min()) / scale
        _require(
            drift <= ENERGY_DRIFT,
            f"{rep_dir.name}: extended energy drifts {drift:.2e} at T={stretch_t[0]}",
        )


def check_run(dirs: dict, spec: Spec):
    run_dir = dirs["run"]
    data = _data(run_dir, spec)
    n_params = reader.read_json(run_dir / "replicate_00" / "ensemble.json")["param_count"]
    for rep_dir in _replicate_dirs(run_dir, spec):
        trajectory = reader.read_csv_columns(rep_dir / "trajectory.csv")
        _check_members(rep_dir, spec, trajectory)
        _check_sampler(rep_dir, spec, trajectory, n_params)
    if spec.config.get("adam") is not None and "adam" not in dirs:
        _check_adam_replicate(run_dir / "baseline_adam", spec, data)


def _check_distribution(eval_dir: Path, data, members, sizes, acts, spec: Spec):
    """Each --at point's member distribution averages to the ensemble mean there."""
    table = reader.read_csv_columns(eval_dir / "prediction_distribution.csv")
    n_members = members.shape[0]
    _require(
        table["point_index"].size == len(spec.at_points) * n_members,
        f"prediction_distribution.csv has {table['point_index'].size} rows",
    )
    points = np.array(spec.at_points, dtype=np.float64)
    outputs = reader.forward(members, sizes, acts, data.scale_features(points))
    for p in range(len(points)):
        rows = table["point_index"] == p
        _require(
            np.array_equal(table["member_index"][rows], np.arange(n_members)),
            f"point {p}: member rows out of order",
        )
        if data.task == "regression":
            mean = float(table["prediction"][rows].mean())
            reference = float(data.unscale_targets(outputs[:, p, 0]).mean())
            _close(mean, reference, f"mean prediction at point {p}")
        else:
            counts = np.bincount(table["predicted_class"][rows].astype(int), minlength=outputs.shape[2])
            reference = reader.vote_counts(outputs[:, p : p + 1, :])[0]
            _require(
                np.array_equal(counts, reference),
                f"point {p}: class counts {counts.tolist()}, recomputed {reference.tolist()}",
            )


def _check_grid(eval_dir: Path, data, members, sizes, acts, spec: Spec):
    """resolution**2 rows, each summing to exactly 1.0, matching independent votes."""
    res = spec.grid_resolution
    table = reader.read_csv_columns(eval_dir / "decision_grid.csv")
    names = list(table)
    rows = table[names[0]].size
    _require(rows == res * res, f"decision_grid.csv has {rows} rows, want {res * res}")
    props = np.stack([table[c] for c in names[2:]], axis=1)
    sums = [sum(row) for row in props.tolist()]
    _require(all(s == 1.0 for s in sums), "decision_grid.csv row does not sum to exactly 1.0")
    lo, hi = data.features.min(axis=0), data.features.max(axis=0)
    xs, ys = np.linspace(lo[0], hi[0], res), np.linspace(lo[1], hi[1], res)
    nodes = np.arange(0, res * res, max(1, res * res // GRID_SAMPLE_NODES))
    points = np.column_stack([xs[nodes // res], ys[nodes % res]])
    _require(
        np.array_equal(points, np.column_stack([table[names[0]], table[names[1]]])[nodes]),
        "decision_grid.csv node coordinates differ from the data bounds grid",
    )
    outputs = reader.forward(members, sizes, acts, data.scale_features(points))
    expected = reader.vote_counts(outputs) / members.shape[0]
    error = np.abs(props[nodes] - expected).max()
    _require(error <= 2.0**-51, f"decision_grid.csv proportions differ from votes by {error:.3e}")


def _check_curve(eval_dir: Path, data, members, sizes, acts):
    """prediction_curve.csv is the ensemble mean at its grid points."""
    table = reader.read_csv_columns(eval_dir / "prediction_curve.csv")
    x = table[next(iter(table))]
    outputs = reader.forward(members, sizes, acts, data.scale_features(x[:, None]))
    reference = data.unscale_targets(outputs).mean(axis=0)[:, 0]
    _require(
        np.allclose(table["ensemble_mean"], reference, rtol=METRIC_RTOL, atol=1e-12),
        "prediction_curve.csv differs from the recomputed ensemble mean",
    )


def _check_sine_curve(eval_dir: Path):
    """The ensemble curve is nearer sin(2 pi x) than the best constant is."""
    table = reader.read_csv_columns(eval_dir / "prediction_curve.csv")
    truth = np.sin(2.0 * np.pi * table[next(iter(table))])
    ensemble_mse = float(np.mean((table["ensemble_mean"] - truth) ** 2))
    constant_mse = float(np.var(truth))
    _require(
        ensemble_mse < constant_mse,
        f"ensemble curve MSE to sin(2 pi x) {ensemble_mse:.4g} is not below "
        f"the best constant's {constant_mse:.4g}",
    )


def check_eval(dirs: dict, spec: Spec):
    eval_dir, run_dir = dirs["eval"], dirs["run"]
    data = _data(run_dir, spec)
    sizes, acts = _model(spec, data)
    members = _pooled_members(run_dir, spec)
    summary = reader.read_json(eval_dir / "evaluation.json")
    _require(summary["n_members"] == members.shape[0], f"evaluation.json n_members {summary['n_members']}")
    reference = reader.ensemble_test_metric(data, members, sizes, acts)
    _close(summary["ensemble_test_metric"], reference, "evaluation.json ensemble_test_metric")
    _close(
        reader.read_json(run_dir / "metrics.json")["ensemble_test_metric"],
        reference,
        "metrics.json ensemble_test_metric",
    )
    if spec.at_points:
        _check_distribution(eval_dir, data, members, sizes, acts, spec)
    if spec.grid_resolution is not None:
        _check_grid(eval_dir, data, members, sizes, acts, spec)
    if data.task == "regression" and data.features.shape[1] == 1:
        _check_curve(eval_dir, data, members, sizes, acts)
    if spec.config["data"]["kind"] == "noisy_sine":
        _check_sine_curve(eval_dir)


def check_spectrum(dirs: dict, spec: Spec):
    """Descending eigenvalues equal to those of an independent FD Hessian."""
    run_dir = dirs["run"]
    data = _data(run_dir, spec)
    sizes, acts = _model(spec, data)
    _require(spec.config["model"]["loss"] == "mse", "the reference Hessian covers the mse loss only")
    report = reader.read_json(dirs["spectrum"] / "spectrum.json")
    values = np.asarray(report["eigenvalues"])
    members, _ = reader.read_members(run_dir / "replicate_00")
    n_params = members.shape[1]
    _require(values.size == n_params, f"{values.size} eigenvalues for {n_params} parameters")
    _require(np.all(np.diff(values) <= 0.0), "eigenvalues are not in descending order")
    train_x = data.scale_features(data.features[data.train])
    train_y = data.scale_targets(data.targets[data.train])
    reference = reader.fd_hessian_eigenvalues(
        lambda p: reader.mse_gradient(p, sizes, acts, train_x, train_y), members[-1].copy()
    )
    error = np.abs(values - reference).max() / np.abs(reference).max()
    _require(error <= SPECTRUM_RTOL, f"eigenvalues differ from the reference by {error:.2e} of the largest")


CHECKS = {"adam": check_adam, "run": check_run, "eval": check_eval, "spectrum": check_spectrum}


def environment() -> dict:
    """Cores, numpy and BLAS build, and thread settings of the checking process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv) -> int:
    request = reader.read_json(argv[0])
    spec = Spec(
        config=request["config"],
        datasets_dir=Path(request["datasets_dir"]),
        at_points=tuple(tuple(p) for p in request["at_points"]),
        grid_resolution=request["grid_resolution"],
    )
    dirs = {role: Path(d) for role, d in request["dirs"].items()}
    failures = {}
    for role in dirs:
        try:
            CHECKS[role](dirs, spec)
        except (CheckFailed, ValueError, KeyError, IndexError, OSError) as exc:
            failures[role] = f"{type(exc).__name__}: {exc}"
    print(json.dumps({"failures": failures, "environment": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
