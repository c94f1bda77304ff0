"""Config-driven experiment runner.

Each subcommand writes one self-describing run directory:

    out/
      resolved_config.json      exact config + seed + package version;
                                written last, so it marks a finished run
      metrics.json              fixed-field metric summary (pooled)
      replicate_00/
        losses.csv              adam runs: epoch,loss_train,loss_test
        snapshot_final.bin      adam runs: flat little-endian float64 vectors
        snapshot_penultimate.bin
        snapshots.json          sidecar describing layout and byte order
        trajectory.csv          simmer/retrofit runs (fixed header below)
        ensemble_members.bin    simmer/retrofit runs: (members, params) row-major
        ensemble.json           sidecar with capture iterations + temperatures
        metrics.json            per-replicate metric report

All floating-point text output goes through repr(), the shortest string
that round-trips to the identical double, so reruns with the same config
and seed reproduce byte-identical CSV/JSON artifacts.  Output directories
must be empty: a run directory has exactly one writer.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import data, diagnostics, ensemble, net, optimize, parallel, seeding
from .config import BUILTIN_PREFIX, ConfigError, ExperimentConfig, from_dict, to_dict
from .dynamics import (
    IntegratorConfig,
    PhaseState,
    TemperatureSchedule,
    ThermostatChain,
    initial_velocities,
    run_trajectory,
)

TRAJECTORY_HEADER = "iteration,T_target,T_kinetic,loss_train,loss_test,extended_energy"
LOSSES_HEADER = "epoch,loss_train,loss_test"
RESOLVED_CONFIG = "resolved_config.json"
METRICS_FILE = "metrics.json"
BASELINE_DIR = "baseline_adam"

_INITIALIZERS = {
    "glorot_normal": net.init_glorot_normal,
    "stratified_glorot": net.init_stratified_glorot,
}


def _fmt(x) -> str:
    return repr(float(x))


def _write_json(path: str, obj):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _package_version() -> str:
    try:
        return importlib.metadata.version("simmering")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def _prepare_out_dir(out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    if os.listdir(out_dir):
        raise ValueError(f"output directory is not empty: {out_dir}")


def _replicate_dir(run_dir: str, replicate: int) -> str:
    return os.path.join(run_dir, f"replicate_{replicate:02d}")


# ---------------------------------------------------------------------------
# dataset / model assembly


@dataclass
class PreparedData:
    """A dataset split, scaled, and ready to train on.

    ``*_inputs``/``*_targets`` are in model space (features min-max scaled
    to [-1, 1]; regression targets likewise).  ``raw_*_targets`` keep the
    original units for metric computation.
    """

    dataset: data.Dataset
    split: data.Split
    scaler: data.ScalerParams
    train_inputs: np.ndarray
    train_targets: np.ndarray
    test_inputs: np.ndarray
    test_targets: np.ndarray
    raw_train_targets: np.ndarray
    raw_test_targets: np.ndarray

    @property
    def task(self) -> str:
        return self.dataset.task

    @property
    def metric_kind(self) -> str:
        return "accuracy" if self.task == "classification" else "mse"


def prepare_data(cfg: ExperimentConfig) -> PreparedData:
    d = cfg.data
    if d.kind == "noisy_sine":
        dataset = data.gen_noisy_sine(d.n_points, d.noise_amp, cfg.seed)
    elif d.path.startswith(BUILTIN_PREFIX):
        dataset = data.load_builtin(d.path[len(BUILTIN_PREFIX):])
    else:
        dataset = data.load_csv(d.path, data.load_schema(d.schema))
    if d.n_train >= dataset.n_samples:
        raise ConfigError(
            "data.n_train",
            f"must leave at least one test sample ({dataset.n_samples} rows loaded)",
        )
    sp = data.split(dataset, d.n_train, cfg.seed)
    scaler = data.minmax_fit(dataset, sp)
    feats = data.scale_features(scaler, dataset.features)
    targs = data.scale_targets(scaler, dataset.targets)
    tr, te = sp.train_indices, sp.test_indices
    return PreparedData(
        dataset=dataset,
        split=sp,
        scaler=scaler,
        train_inputs=feats[tr],
        train_targets=targs[tr],
        test_inputs=feats[te],
        test_targets=targs[te],
        raw_train_targets=dataset.targets[tr].copy(),
        raw_test_targets=dataset.targets[te].copy(),
    )


def build_topology(cfg: ExperimentConfig, dataset: data.Dataset) -> net.Topology:
    sizes = (dataset.features.shape[1], *cfg.model.hidden, dataset.targets.shape[1])
    return net.Topology(sizes, cfg.model.activations)


def initial_params(cfg: ExperimentConfig, topology: net.Topology, replicate: int) -> np.ndarray:
    init_fn = _INITIALIZERS[cfg.model.init]
    return init_fn(topology, seeding.child_seed(cfg.seed, "weights", replicate))


# ---------------------------------------------------------------------------
# metrics


def _true_labels(one_hot: np.ndarray) -> np.ndarray:
    return np.argmax(one_hot, axis=1)


def _params_test_metric(topology, params, prep: PreparedData) -> float:
    """Test metric for a single parameter vector, in raw target units."""
    outputs = net.forward(topology, params, prep.test_inputs)
    if prep.task == "classification":
        return diagnostics.accuracy(
            net.class_labels_from_outputs(outputs), _true_labels(prep.raw_test_targets)
        )
    return diagnostics.mse(
        data.unscale_targets(prep.scaler, outputs), prep.raw_test_targets
    )


def _params_train_metric(topology, params, prep: PreparedData) -> float:
    outputs = net.forward(topology, params, prep.train_inputs)
    if prep.task == "classification":
        return diagnostics.accuracy(
            net.class_labels_from_outputs(outputs), _true_labels(prep.raw_train_targets)
        )
    return diagnostics.mse(
        data.unscale_targets(prep.scaler, outputs), prep.raw_train_targets
    )


def _bundle_test_metric(bundles, prep: PreparedData) -> float:
    """Test metric of the ensemble pooled from ``bundles``, in raw target units."""
    test_features = prep.dataset.features[prep.split.test_indices]
    if prep.task == "classification":
        labels = ensemble.majority_vote(bundles, test_features)
        return diagnostics.accuracy(labels, _true_labels(prep.raw_test_targets))
    return diagnostics.mse(
        ensemble.regression_mean(bundles, test_features), prep.raw_test_targets
    )


def _improved(metric_kind: str, adam: Optional[float], ens: Optional[float]) -> Optional[bool]:
    # regression: strictly lower error counts; classification: no worse
    if adam is None or ens is None:
        return None
    if metric_kind == "accuracy":
        return ens >= adam
    return ens < adam


# ---------------------------------------------------------------------------
# on-disk formats


def _write_resolved_config(out_dir: str, cfg: ExperimentConfig, command: str):
    """Callers write this last: only a finished run has it, and
    :func:`load_run_config` requires it."""
    payload = {
        "command": command,
        "package_version": _package_version(),
        "seed_purposes": dict(seeding.PURPOSES),
        "config": to_dict(cfg),
    }
    _write_json(os.path.join(out_dir, RESOLVED_CONFIG), payload)


def load_run_config(run_dir: str) -> tuple[ExperimentConfig, str]:
    """Read back (config, command) from a run directory."""
    path = os.path.join(run_dir, RESOLVED_CONFIG)
    if not os.path.exists(path):
        raise FileNotFoundError(f"not a run directory (no {RESOLVED_CONFIG}): {run_dir}")
    payload = _read_json(path)
    return from_dict(payload["config"]), payload.get("command", "")


def _layout_sidecar(topology: net.Topology) -> dict:
    return {
        "dtype": "float64",
        "byte_order": "little",
        "layout": (
            "flat parameter vector; for each layer in order: weight matrix "
            "(n_outputs x n_inputs) flattened row-major, then the bias vector"
        ),
        "param_count": topology.param_count,
        "layer_sizes": list(topology.layer_sizes),
        "activations": list(topology.activations),
    }


def write_snapshots(rep_dir: str, topology: net.Topology, named: dict):
    sidecar = _layout_sidecar(topology)
    sidecar["files"] = {}
    for name in named:
        fname = f"snapshot_{name}.bin"
        vec = np.ascontiguousarray(named[name], dtype="<f8")
        with open(os.path.join(rep_dir, fname), "wb") as fh:
            fh.write(vec.tobytes())
        sidecar["files"][name] = fname
    _write_json(os.path.join(rep_dir, "snapshots.json"), sidecar)


def read_snapshot(rep_dir: str, name: str, topology: net.Topology) -> np.ndarray:
    sidecar_path = os.path.join(rep_dir, "snapshots.json")
    if not os.path.exists(sidecar_path):
        raise FileNotFoundError(f"no parameter snapshots in {rep_dir}")
    sidecar = _read_json(sidecar_path)
    if list(sidecar["layer_sizes"]) != list(topology.layer_sizes):
        raise ValueError(
            f"snapshot topology {sidecar['layer_sizes']} does not match "
            f"the configured model {list(topology.layer_sizes)}"
        )
    if name not in sidecar["files"]:
        raise FileNotFoundError(f"snapshot {name!r} not present in {rep_dir}")
    with open(os.path.join(rep_dir, sidecar["files"][name]), "rb") as fh:
        vec = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    if vec.shape[0] != topology.param_count:
        raise ValueError(
            f"snapshot holds {vec.shape[0]} values, expected {topology.param_count}"
        )
    return vec


def write_bundle(rep_dir: str, bundle: ensemble.EnsembleBundle):
    members = np.ascontiguousarray(bundle.members, dtype="<f8")
    with open(os.path.join(rep_dir, "ensemble_members.bin"), "wb") as fh:
        fh.write(memoryview(members))  # the array's own buffer, not a copy
    sidecar = _layout_sidecar(bundle.topology)
    sidecar["layout"] = (
        "row-major (n_members, param_count) matrix; each row is one flat "
        "parameter vector laid out as in snapshots"
    )
    sidecar["n_members"] = bundle.n_members
    sidecar["iterations"] = [int(i) for i in bundle.iterations]
    sidecar["temperatures"] = [float(t) for t in bundle.temperatures]
    _write_json(os.path.join(rep_dir, "ensemble.json"), sidecar)


def read_bundle(
    rep_dir: str, topology: net.Topology, scaler: data.ScalerParams
) -> ensemble.EnsembleBundle:
    sidecar_path = os.path.join(rep_dir, "ensemble.json")
    if not os.path.exists(sidecar_path):
        raise FileNotFoundError(f"no ensemble bundle in {rep_dir}")
    sidecar = _read_json(sidecar_path)
    if list(sidecar["layer_sizes"]) != list(topology.layer_sizes):
        raise ValueError(
            f"bundle topology {sidecar['layer_sizes']} does not match "
            f"the configured model {list(topology.layer_sizes)}"
        )
    # read, then copy: np.fromfile would hold one buffer instead of two, but
    # freeing the read buffer is what raises glibc's dynamic mmap threshold,
    # so the multi-MB temporaries of the forwards that follow come from the
    # heap; without it the iris decision grid runs about 1.5x slower
    with open(os.path.join(rep_dir, "ensemble_members.bin"), "rb") as fh:
        flat = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    members = flat.reshape(sidecar["n_members"], sidecar["param_count"])
    return ensemble.EnsembleBundle(
        members=members,
        iterations=np.asarray(sidecar["iterations"], dtype=np.int64),
        temperatures=np.asarray(sidecar["temperatures"], dtype=np.float64),
        topology=topology,
        scaler=scaler,
    )


class _ReplicateBundles(Sequence):
    """The ensemble bundles of replicates 0..n-1, each read when looked up.

    Iterating reads one bundle at a time; a vote tally looks each one up in
    the worker that tallies it, so bundles never travel between processes.
    """

    def __init__(self, run_dir: str, n: int, topology: net.Topology, scaler: data.ScalerParams):
        self.run_dir, self.n, self.topology, self.scaler = run_dir, n, topology, scaler

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, replicate: int) -> ensemble.EnsembleBundle:
        if not 0 <= replicate < self.n:
            raise IndexError(replicate)
        return read_bundle(_replicate_dir(self.run_dir, replicate), self.topology, self.scaler)


def _write_losses_csv(path: str, report: optimize.AdamReport):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(LOSSES_HEADER + "\n")
        for epoch in range(report.epochs):
            fh.write(
                f"{epoch + 1},{_fmt(report.train_losses[epoch])},"
                f"{_fmt(report.test_losses[epoch])}\n"
            )


def _read_losses_csv(path: str):
    train, test = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != LOSSES_HEADER:
            raise ValueError(f"unexpected losses.csv header: {header!r}")
        for line in fh:
            _, lt, le = line.strip().split(",")
            train.append(float(lt))
            test.append(float(le))
    return np.asarray(train), np.asarray(test)


def _write_trajectory_csv(path: str, traj):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for i in range(len(traj)):
            fh.write(
                f"{int(traj.iterations[i])},{_fmt(traj.temperature[i])},"
                f"{_fmt(traj.kinetic_temperature[i])},{_fmt(traj.loss_train[i])},"
                f"{_fmt(traj.loss_test[i])},{_fmt(traj.extended_energy[i])}\n"
            )


# ---------------------------------------------------------------------------
# subcommand bodies


def _train_one_adam(cfg, topology, prep, replicate: int, label=None) -> optimize.AdamReport:
    """Adam from the replicate's initialization.

    A non-finite error is prefixed with ``label``, ``replicate N`` by default.
    """
    label = label or f"replicate {replicate}"
    params0 = initial_params(cfg, topology, replicate)
    try:
        return optimize.train_adam(
            topology,
            params0,
            prep.train_inputs,
            prep.train_targets,
            prep.test_inputs,
            prep.test_targets,
            cfg.model.loss,
            cfg.adam.epochs,
            cfg.adam.alpha,
        )
    except net.NonFiniteError as exc:
        raise net.NonFiniteError(f"{label}: {exc}") from exc


def _write_adam_replicate(rep_dir, topology, prep, report) -> diagnostics.MetricReport:
    os.makedirs(rep_dir, exist_ok=True)
    _write_losses_csv(os.path.join(rep_dir, "losses.csv"), report)
    write_snapshots(
        rep_dir,
        topology,
        {"final": report.final_params, "penultimate": report.penultimate_params},
    )
    metrics = diagnostics.MetricReport(
        metric_kind=prep.metric_kind,
        adam_train_metric=_params_train_metric(topology, report.final_params, prep),
        adam_test_metric=_params_test_metric(topology, report.final_params, prep),
        ensemble_test_metric=None,
        improved=None,
    )
    _write_json(os.path.join(rep_dir, METRICS_FILE), metrics.to_dict())
    return metrics


def run_train_adam(cfg: ExperimentConfig, out_dir: str) -> str:
    """Train the Adam baseline for every replicate; write losses and snapshots."""
    if cfg.adam is None:
        raise ConfigError("adam", "train-adam needs an adam section")
    prep = prepare_data(cfg)
    topology = build_topology(cfg, prep.dataset)
    _prepare_out_dir(out_dir)

    def replicate(r: int) -> diagnostics.MetricReport:
        report = _train_one_adam(cfg, topology, prep, r)
        return _write_adam_replicate(_replicate_dir(out_dir, r), topology, prep, report)

    reports = parallel.map_in_order(replicate, range(cfg.replicates))
    train_vals = [m.adam_train_metric for m in reports]
    test_vals = [m.adam_test_metric for m in reports]
    summary = diagnostics.MetricReport(
        metric_kind=prep.metric_kind,
        adam_train_metric=sum(train_vals) / len(train_vals),
        adam_test_metric=sum(test_vals) / len(test_vals),
        ensemble_test_metric=None,
        improved=None,
    )
    _write_json(os.path.join(out_dir, METRICS_FILE), summary.to_dict())
    _write_resolved_config(out_dir, cfg, "train-adam")
    return out_dir


def _loss_fns(cfg, topology, prep):
    """Gradient, train-loss and test-loss functions, with the data checked once."""
    train = net.Evaluator(topology, cfg.model.loss, prep.train_inputs, prep.train_targets)
    test = net.Evaluator(topology, cfg.model.loss, prep.test_inputs, prep.test_targets)
    return train.gradient, train.loss, test.loss


def _integrator_config(cfg) -> IntegratorConfig:
    s = cfg.simmer.schedule
    schedule = TemperatureSchedule(
        t_initial=s.t_initial,
        t_target=s.t_target,
        t_step=s.t_step,
        hold_iterations=s.hold_iterations,
    )
    return IntegratorConfig(
        dt=cfg.simmer.dt,
        schedule=schedule,
        chain_length=cfg.simmer.chain_length,
        chain_mass=cfg.simmer.chain_mass,
        particle_mass=cfg.simmer.particle_mass,
    )


def _simmer_replicate(cfg, topology, prep, state, replicate: int, rep_dir: str):
    """Integrate one replicate, write its trajectory and bundle, return the bundle.

    The members are chosen before integrating, and only their states are
    captured.
    """
    samp = cfg.sampling
    plan = ensemble.SamplingPlan(
        total_iterations=cfg.simmer.iterations,
        burn_in=samp.burn_in,
        stride=samp.stride,
        fraction=samp.fraction,
        seed=cfg.seed,
        replicate=replicate,
    )
    os.makedirs(rep_dir, exist_ok=True)
    grad_fn, loss_train_fn, loss_test_fn = _loss_fns(cfg, topology, prep)
    integ = _integrator_config(cfg)
    try:
        _, traj = run_trajectory(
            state,
            grad_fn,
            integ,
            cfg.simmer.iterations,
            loss_train_fn,
            loss_test_fn,
            plan.steps(),
        )
    except net.NonFiniteError as exc:
        raise net.NonFiniteError(f"replicate {replicate}: {exc}") from exc
    _write_trajectory_csv(os.path.join(rep_dir, "trajectory.csv"), traj)
    bundle = ensemble.collect(traj, plan, topology, prep.scaler)
    write_bundle(rep_dir, bundle)
    return bundle


def _write_replicate_ensemble_metrics(rep_dir, prep, bundle, adam_test=None, adam_train=None):
    ens = _bundle_test_metric([bundle], prep)
    metrics = diagnostics.MetricReport(
        metric_kind=prep.metric_kind,
        adam_train_metric=adam_train,
        adam_test_metric=adam_test,
        ensemble_test_metric=ens,
        improved=_improved(prep.metric_kind, adam_test, ens),
    )
    _write_json(os.path.join(rep_dir, METRICS_FILE), metrics.to_dict())
    return metrics


def run_simmer(cfg: ExperimentConfig, out_dir: str) -> str:
    """Ab initio run: fresh initialization, constant temperature, pooled ensemble.

    When the config carries an adam section, an Adam baseline with the
    replicate-0 initialization is trained on the same split and recorded
    under ``baseline_adam/`` for the pooled comparison.
    """
    if cfg.simmer is None:
        raise ConfigError("simmer", "simmer needs a simmer section")
    s = cfg.simmer.schedule
    if s.t_initial != s.t_target:
        raise ConfigError(
            "simmer.schedule", "ab initio simmering uses a constant temperature "
            f"(t_initial={s.t_initial} != t_target={s.t_target})"
        )
    prep = prepare_data(cfg)
    topology = build_topology(cfg, prep.dataset)
    _prepare_out_dir(out_dir)

    def job(r: int) -> diagnostics.MetricReport:
        if r == cfg.replicates:  # the Adam baseline, after every replicate
            report = _train_one_adam(cfg, topology, prep, 0, BASELINE_DIR)
            baseline_dir = os.path.join(out_dir, BASELINE_DIR)
            return _write_adam_replicate(baseline_dir, topology, prep, report)
        v0 = initial_velocities(
            topology.param_count, s.t_initial, seeding.child_seed(cfg.seed, "velocities", r)
        )
        state = PhaseState(
            positions=initial_params(cfg, topology, r),
            velocities=v0,
            masses=cfg.simmer.particle_mass,
            chain=ThermostatChain.rest(cfg.simmer.chain_length, cfg.simmer.chain_mass),
        )
        rep_dir = _replicate_dir(out_dir, r)
        bundle = _simmer_replicate(cfg, topology, prep, state, r, rep_dir)
        return _write_replicate_ensemble_metrics(rep_dir, prep, bundle)

    n_jobs = cfg.replicates + (cfg.adam is not None)
    reports = parallel.map_in_order(job, range(n_jobs))
    adam_train = adam_test = None
    if cfg.adam is not None:
        adam_train, adam_test = reports[-1].adam_train_metric, reports[-1].adam_test_metric

    # the bundles just written, read back one at a time as evaluate reads them
    ens = _bundle_test_metric(
        _ReplicateBundles(out_dir, cfg.replicates, topology, prep.scaler), prep
    )
    summary = diagnostics.MetricReport(
        metric_kind=prep.metric_kind,
        adam_train_metric=adam_train,
        adam_test_metric=adam_test,
        ensemble_test_metric=ens,
        improved=_improved(prep.metric_kind, adam_test, ens),
    )
    _write_json(os.path.join(out_dir, METRICS_FILE), summary.to_dict())
    _write_resolved_config(out_dir, cfg, "simmer")
    return out_dir


def _check_retrofit_compatibility(cfg: ExperimentConfig, stored: ExperimentConfig):
    for section in ("data", "model"):
        if getattr(cfg, section) != getattr(stored, section):
            raise ValueError(
                f"config section {section!r} does not match the adam run it retrofits"
            )
    if cfg.seed != stored.seed:
        raise ValueError(
            f"config seed {cfg.seed} does not match the adam run seed {stored.seed}"
        )
    if cfg.adam is not None and cfg.adam != stored.adam:
        raise ValueError("config adam section does not match the adam run")


def run_retrofit(cfg: ExperimentConfig, adam_run: str, out_dir: str) -> str:
    """Simmer from a finished Adam run's endpoint, one replicate per snapshot."""
    if cfg.simmer is None:
        raise ConfigError("simmer", "retrofit needs a simmer section")
    stored, command = load_run_config(adam_run)
    if stored.adam is None:
        raise ValueError(f"{adam_run} is not an adam training run")
    _check_retrofit_compatibility(cfg, stored)
    if cfg.replicates > stored.replicates:
        raise ValueError(
            f"retrofit wants {cfg.replicates} replicates but the adam run "
            f"has {stored.replicates}"
        )
    prep = prepare_data(cfg)
    topology = build_topology(cfg, prep.dataset)
    _prepare_out_dir(out_dir)

    def replicate(r: int) -> diagnostics.MetricReport:
        adam_rep = _replicate_dir(adam_run, r)
        final = read_snapshot(adam_rep, "final", topology)
        penultimate = read_snapshot(adam_rep, "penultimate", topology)
        train_losses, test_losses = _read_losses_csv(os.path.join(adam_rep, "losses.csv"))
        report = optimize.AdamReport(
            train_losses=train_losses,
            test_losses=test_losses,
            final_params=final,
            penultimate_params=penultimate,
            alpha=stored.adam.alpha,
            epochs=stored.adam.epochs,
        )
        state = optimize.retrofit_init(
            report,
            gamma=stored.adam.alpha,
            chain_length=cfg.simmer.chain_length,
            chain_mass=cfg.simmer.chain_mass,
            particle_mass=cfg.simmer.particle_mass,
        )
        rep_dir = _replicate_dir(out_dir, r)
        bundle = _simmer_replicate(cfg, topology, prep, state, r, rep_dir)
        adam_test = _params_test_metric(topology, final, prep)
        adam_train = _params_train_metric(topology, final, prep)
        return _write_replicate_ensemble_metrics(rep_dir, prep, bundle, adam_test, adam_train)

    reports = parallel.map_in_order(replicate, range(cfg.replicates))
    adam_tests = [m.adam_test_metric for m in reports]
    adam_trains = [m.adam_train_metric for m in reports]

    # the bundles just written, read back one at a time as evaluate reads them
    ens = _bundle_test_metric(
        _ReplicateBundles(out_dir, cfg.replicates, topology, prep.scaler), prep
    )
    adam_test = sum(adam_tests) / len(adam_tests)
    summary = diagnostics.MetricReport(
        metric_kind=prep.metric_kind,
        adam_train_metric=sum(adam_trains) / len(adam_trains),
        adam_test_metric=adam_test,
        ensemble_test_metric=ens,
        improved=_improved(prep.metric_kind, adam_test, ens),
    )
    _write_json(os.path.join(out_dir, METRICS_FILE), summary.to_dict())
    _write_resolved_config(out_dir, cfg, "retrofit")
    return out_dir


# ---------------------------------------------------------------------------
# evaluate / spectrum


def run_evaluate(
    run_dir: str,
    out_dir: str,
    grid_resolution: int = 100,
    at_points=None,
) -> str:
    """Turn a finished simmer/retrofit run into plottable CSV artifacts.

    Never touches the input run directory.  Writes:
      evaluation.json           pooled metric summary
      decision_grid.csv         2-feature classification only
      prediction_curve.csv      1-feature regression only
      prediction_distribution.csv   one row per member per requested input
    """
    cfg, _ = load_run_config(run_dir)
    prep = prepare_data(cfg)
    topology = build_topology(cfg, prep.dataset)
    feature_names = prep.dataset.feature_names
    n_features = prep.dataset.features.shape[1]
    points = [np.asarray(point, dtype=np.float64) for point in at_points or ()]
    for p_idx, point in enumerate(points):
        if point.shape != (n_features,):
            raise ValueError(
                f"distribution point {p_idx} has {point.size} coordinates, "
                f"the feature space has {n_features}"
            )
    bundles = list(_ReplicateBundles(run_dir, cfg.replicates, topology, prep.scaler))
    _prepare_out_dir(out_dir)

    summary = {
        "metric_kind": prep.metric_kind,
        "ensemble_test_metric": _bundle_test_metric(bundles, prep),
        "n_members": sum(bundle.n_members for bundle in bundles),
        "n_replicates": cfg.replicates,
    }

    if prep.task == "classification" and n_features == 2:
        lo = prep.dataset.features.min(axis=0)
        hi = prep.dataset.features.max(axis=0)
        xs, ys, props = ensemble.decision_grid(
            bundles, ((lo[0], hi[0]), (lo[1], hi[1])), grid_resolution
        )
        grid_path = os.path.join(out_dir, "decision_grid.csv")
        class_names = list(prep.dataset.target_names)
        with open(grid_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(list(feature_names) + class_names) + "\n")
            for ix in range(xs.shape[0]):
                for iy in range(ys.shape[0]):
                    cells = [_fmt(xs[ix]), _fmt(ys[iy])]
                    cells += [_fmt(p) for p in props[ix, iy]]
                    fh.write(",".join(cells) + "\n")
        summary["decision_grid"] = {
            "resolution": grid_resolution,
            "bounds": [[float(lo[0]), float(hi[0])], [float(lo[1]), float(hi[1])]],
        }

    if prep.task == "regression" and n_features == 1:
        lo = float(prep.dataset.features.min())
        hi = float(prep.dataset.features.max())
        grid = np.linspace(lo, hi, 101).reshape(-1, 1)
        curve = ensemble.regression_mean(bundles, grid)
        with open(os.path.join(out_dir, "prediction_curve.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write(f"{feature_names[0]},ensemble_mean\n")
            for i in range(grid.shape[0]):
                fh.write(f"{_fmt(grid[i, 0])},{_fmt(curve[i, 0])}\n")
        summary["prediction_curve"] = {"points": 101, "bounds": [lo, hi]}

    if points:
        dist_path = os.path.join(out_dir, "prediction_distribution.csv")
        with open(dist_path, "w", encoding="utf-8", newline="") as fh:
            if prep.task == "regression":
                value_header = "prediction"
            else:
                value_header = "predicted_class"
            fh.write(
                "point_index," + ",".join(feature_names) + f",member_index,{value_header}\n"
            )
            for p_idx, point in enumerate(points):
                coords = ",".join(_fmt(c) for c in point)
                rows = ensemble.member_predictions(bundles, point.reshape(1, -1))[:, 0]
                if prep.task == "regression":
                    values = [_fmt(v) for v in rows[:, 0]]
                else:
                    values = [str(label) for label in net.class_labels_from_outputs(rows)]
                for m, value in enumerate(values):
                    fh.write(f"{p_idx},{coords},{m},{value}\n")
        summary["prediction_distribution"] = {"points": len(points)}

    _write_json(os.path.join(out_dir, "evaluation.json"), summary)
    return out_dir


def run_spectrum(run_dir: str, out_dir: str) -> str:
    """Hessian eigenvalue spectrum of the training loss at a run's endpoint.

    Uses the Adam final snapshot for train-adam runs, otherwise the last
    captured ensemble member of replicate 00.
    """
    cfg, _ = load_run_config(run_dir)
    prep = prepare_data(cfg)
    topology = build_topology(cfg, prep.dataset)
    rep0 = _replicate_dir(run_dir, 0)
    if os.path.exists(os.path.join(rep0, "snapshots.json")):
        params = read_snapshot(rep0, "final", topology)
        source = "adam_final"
    elif os.path.exists(os.path.join(rep0, "ensemble.json")):
        bundle = read_bundle(rep0, topology, prep.scaler)
        params = bundle.members[-1].copy()
        source = "ensemble_last_member"
    else:
        raise FileNotFoundError(f"no parameter snapshot found in {rep0}")

    report = diagnostics.hessian_spectrum(
        topology, params, prep.train_inputs, prep.train_targets, cfg.model.loss
    )
    _prepare_out_dir(out_dir)
    with open(os.path.join(out_dir, "spectrum.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("index,eigenvalue\n")
        for i, val in enumerate(report.eigenvalues):
            fh.write(f"{i},{_fmt(val)}\n")
    _write_json(
        os.path.join(out_dir, "spectrum.json"),
        {
            "eigenvalues": [float(v) for v in report.eigenvalues],
            "max_asymmetry": float(report.max_asymmetry),
            "param_count": topology.param_count,
            "source": source,
        },
    )
    return out_dir
