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

Every CSV goes through :func:`_write_csv` and every number in it through
repr(), the shortest string that round-trips to the identical double, so
reruns with the same config and seed reproduce byte-identical CSV/JSON
artifacts.  Output directories must be empty: a run directory has
exactly one writer.

``train-adam``, ``simmer`` and ``retrofit`` check their own
preconditions, then hand a job binder and a job count to
:func:`_run_stage`, the one stage skeleton: data and topology, the checks
that need them, ``--out``, the jobs through
:func:`parallel.map_in_order`, each of which scores the bundle it wrote,
each job's metrics.json, the top-level metrics.json by one rule over the
pool of the jobs' scores, and ``resolved_config.json`` last.  Parameter
files have one writer, :class:`_RowWriter`, and one reader,
:class:`_RowFile`, under sidecars checked by :func:`_read_sidecar`.  The
reader checks a file's size when it is made and refuses a non-finite
value in the rows it reads, naming the row, so a walk checks exactly the
rows it reads.  Ensemble members never sit in memory as a whole: the
integrator appends each kept state to ``ensemble_members.bin`` through a
:class:`_RowWriter` as it captures it, and every walk over a bundle reads
its members a chunk of rows at a time.

Every metric has one scorer, :func:`_pooled`: a run's ensemble is its
replicates' member matrices, and an Adam endpoint is the one-member
matrix ``final[None]``, both pooled by :func:`ensemble.evaluate` under
the run's one topology and scaler.  Each member is walked over the test
set once per run: each sampling job scores its own replicate, the stage
pools those scores with :func:`ensemble.pool`, and ``evaluate`` takes
the pooled metric from the run's top-level metrics.json.  A bundle on
disk carries no topology of its own; :func:`read_bundle` reads it as the
configured model's, and a file of another width is refused by its size.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import data, diagnostics, ensemble, net, optimize, parallel, seeding
from .config import BUILTIN_PREFIX, ConfigError, ExperimentConfig, from_dict, to_dict
from .dynamics import PhaseState, ThermostatChain, initial_velocities, run_trajectory

RESOLVED_CONFIG = "resolved_config.json"
METRICS_FILE = "metrics.json"
BASELINE_DIR = "baseline_adam"
MEMBERS_FILE = "ensemble_members.bin"
SNAPSHOTS = ("final", "penultimate")  # a retrofit starts from both
CSV_BLOCK_ROWS = 1 << 10


def _write_json(path: str, obj):
    """Write ``obj`` as strict JSON (RFC 8259).  A non-finite number is a
    :class:`~simmering.net.NonFiniteError` naming the file and its key,
    raised before the file is opened.  The text streams to the file:
    a whole 19 000-member ``ensemble.json`` as one string adds megabytes
    to the peak."""
    key = _nonfinite_key(obj)
    if key is not None:
        raise net.NonFiniteError(f"{path}: non-finite value at {key.lstrip('.')!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _nonfinite_key(obj):
    """The key path (``a.b[2]``) of the first non-finite float in ``obj``, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else ""
    if isinstance(obj, dict):
        keyed, name = obj.items(), ".{}".format
    elif isinstance(obj, (list, tuple)):
        keyed, name = enumerate(obj), "[{}]".format
    else:
        return None
    for key, value in keyed:
        rest = _nonfinite_key(value)
        if rest is not None:
            return name(key) + rest
    return None


def _write_csv(path: str, header, columns):
    """Write equal-length ``columns`` under the ``header`` names.

    Each number is repr() of its Python int or float, the shortest text
    that reads back to it, from ``.tolist()`` of ``CSV_BLOCK_ROWS`` rows at
    a time: a whole 20 000-row trajectory as Python numbers adds megabytes
    to the peak.
    """
    columns = [np.asarray(column) for column in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, max(map(len, columns)), CSV_BLOCK_ROWS):
            cells = [map(repr, column[lo : lo + CSV_BLOCK_ROWS].tolist()) for column in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


_JSON_TYPES = {
    dict: "an object", list: "an array", int: "an integer", str: "a string", float: "a number"
}


def _read_object(path: str, keys: dict) -> dict:
    """The JSON object in ``path``, which must hold every key in ``keys``,
    each a value of the JSON type its entry names (``dict``, ``list`` or
    ``int``, ``str``, or ``float`` for any number)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    for key, kind in keys.items():
        if key not in obj:
            raise ValueError(f"{path} has no {key!r} entry")
        # a JSON true/false loads as a bool, which Python counts as an int
        types = (int, float) if kind is float else kind
        if isinstance(obj[key], bool) or not isinstance(obj[key], types):
            raise ValueError(f"{path}: {key!r} is not {_JSON_TYPES[kind]}, got {obj[key]!r}")
    return obj


class _RowFile:
    """The ``(rows, param_count)`` little-endian float64 matrix stored in a
    file, read from it when sliced.

    The one reader of parameter files.  Made only for a file of exactly
    that size; it holds the path and the shape, never rows.  Indexed as an
    array is, an integer gives one row and a slice a matrix of consecutive
    rows, each a fresh array the bytes are read straight into, so a walk
    that slices a chunk at a time holds one chunk.  Every read refuses a
    NaN or an infinity in the rows it read, naming the first such row, so
    a walk checks exactly the rows it reads.
    """

    def __init__(self, path: str, rows: int, param_count: int):
        need = rows * param_count * 8
        size = os.stat(path).st_size
        if size != need:
            raise ValueError(
                f"{path} holds {size} bytes, but {rows} parameter vectors of "
                f"{param_count} float64 values need {need}"
            )
        self.path, self.shape, self.nbytes = path, (rows, param_count), need

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index) -> np.ndarray:
        if isinstance(index, slice):
            first, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("member rows are read in consecutive runs")
            return self._read(first, max(0, stop - first))
        row = range(len(self))[index]  # an IndexError past either end
        return self._read(row, 1)[0]

    def _read(self, first: int, count: int) -> np.ndarray:
        param_count = self.shape[1]
        out = np.empty((count, param_count), dtype="<f8")
        with open(self.path, "rb") as fh:
            fh.seek(first * param_count * 8)
            got = fh.readinto(memoryview(out).cast("B"))
        if got != out.nbytes:
            raise ValueError(f"{self.path} ended after {got} of {out.nbytes} bytes")
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            bad = first + int(np.argmin(finite))
            raise ValueError(f"{self.path}: row {bad} holds a non-finite value")
        return out

    def check(self):
        """Read, and so check, every row, ``net.CHUNK_VALUES`` values at a
        time, keeping none: for a bundle no walk reads."""
        step = max(1, net.CHUNK_VALUES // self.shape[1])
        for lo in range(0, len(self), step):
            self[lo : lo + step]


class _RowWriter:
    """``rows`` vectors of ``param_count`` float64 values, appended to the
    open binary file ``fh`` one row at a time as each is set, in order:
    the one writer of parameter files, and the destination
    :func:`run_trajectory` writes a run's kept states to.

    Each row goes through ``fh``'s buffer, whose unwritten bytes a process
    forked meanwhile (the loss helper) inherits; such a process must end
    without flushing them (see :class:`parallel.Helper`).
    """

    def __init__(self, fh, rows: int, param_count: int):
        self._fh = fh
        self.shape, self.nbytes = (rows, param_count), rows * param_count * 8
        self._next = 0

    def __setitem__(self, row: int, x):
        if row != self._next:
            raise IndexError(f"row {row} set while row {self._next} is next")
        self._fh.write(memoryview(np.ascontiguousarray(x, dtype="<f8")))
        self._next += 1


def _package_version() -> str:
    # imported here: importlib.metadata pulls in the email package, which
    # every stage process would otherwise pay for at start-up
    import importlib.metadata

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

    @property
    def raw_train_inputs(self) -> np.ndarray:
        return self.dataset.features[self.split.train_indices]

    @property
    def raw_test_inputs(self) -> np.ndarray:
        return self.dataset.features[self.split.test_indices]


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
    init_fn = net.INITIALIZERS[cfg.model.init]
    return init_fn(topology, seeding.child_seed(cfg.seed, "weights", replicate))


# ---------------------------------------------------------------------------
# metrics


def _pooled(topology, prep: PreparedData, matrices, sets, points=()) -> ensemble.Evaluation:
    """The ensemble pooled from member ``matrices`` on input ``sets``, in original units.

    The one scorer: a run's ensemble and an Adam endpoint (the one-member
    matrix ``params[None]``) both go through it.  A classifier's sets are
    vote tallies, a regression's member means; ``points`` are the inputs
    at which every member's rows are kept.  One pass over the matrices,
    each walked once per set (see :func:`ensemble.evaluate`), whose
    ``parts`` score each matrix alone.
    """
    if prep.task == "classification":
        return ensemble.evaluate(topology, prep.scaler, matrices, members=points, votes=sets)
    return ensemble.evaluate(topology, prep.scaler, matrices, means=sets, members=points)


def _pooled_metric(prep: PreparedData, pooled: ensemble.Evaluation, k=0, targets=None) -> float:
    """Metric of a :func:`_pooled` ensemble on its set ``k`` against raw
    ``targets``; by default, set 0 against the test targets."""
    targets = prep.raw_test_targets if targets is None else targets
    if prep.task == "classification":
        labels = np.argmax(pooled.votes[k], axis=1)  # ties go to the lowest class
        return diagnostics.accuracy(labels, np.argmax(targets, axis=1))
    return diagnostics.mse(pooled.means[k], targets)


def _endpoint_metrics(topology, prep: PreparedData, params) -> tuple[float, float]:
    """(train, test) metrics of one parameter vector, scored as a one-member ensemble."""
    pooled = _pooled(topology, prep, [params[None]], [prep.raw_test_inputs, prep.raw_train_inputs])
    return _pooled_metric(prep, pooled, 1, prep.raw_train_targets), _pooled_metric(prep, pooled)


def _write_metrics(out_dir: str, prep: PreparedData, adam, pooled):
    """Write ``out_dir``'s metrics.json: ``adam`` is an Adam endpoint's
    (train, test) metrics and ``pooled`` a :func:`_pooled` ensemble on the
    test set, each None when there is none."""
    ens = None if pooled is None else _pooled_metric(prep, pooled)
    improved = None
    if adam[1] is not None and ens is not None:
        # regression: strictly lower error counts; classification: no worse
        improved = ens >= adam[1] if prep.metric_kind == "accuracy" else ens < adam[1]
    report = diagnostics.MetricReport(prep.metric_kind, *adam, ens, improved)
    _write_json(os.path.join(out_dir, METRICS_FILE), report.to_dict())


# ---------------------------------------------------------------------------
# on-disk formats


def _write_resolved_config(out_dir: str, cfg: ExperimentConfig, command: str):
    """Written last by every stage: only a finished run has it, and
    :func:`load_run_config` requires it."""
    payload = {
        "command": command,
        "package_version": _package_version(),
        "seed_purposes": dict(seeding.PURPOSES),
        "config": to_dict(cfg),
    }
    _write_json(os.path.join(out_dir, RESOLVED_CONFIG), payload)


def load_run_config(run_dir: str) -> tuple[ExperimentConfig, str]:
    """Read back (config, command) from a run directory; a config the
    parser refuses is a ValueError naming the run's file."""
    path = os.path.join(run_dir, RESOLVED_CONFIG)
    if not os.path.exists(path):
        raise FileNotFoundError(f"not a run directory (no {RESOLVED_CONFIG}): {run_dir}")
    payload = _read_object(path, {"config": dict})
    try:
        return from_dict(payload["config"]), payload.get("command", "")
    except ConfigError as exc:  # the run's file is at fault, not the user's config
        raise ValueError(f"{path}: {exc}") from None


def _write_sidecar(path: str, topology: net.Topology, **entries):
    """Write the layout sidecar of ``topology``'s parameter files, then ``entries``."""
    sidecar = {
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
    _write_json(path, {**sidecar, **entries})


def _read_sidecar(rep_dir: str, name: str, what: str, topology: net.Topology, keys: dict):
    """(path, object) of sidecar ``name`` in ``rep_dir``, written for
    ``topology`` and holding ``keys`` (as :func:`_read_object` takes them)."""
    path = os.path.join(rep_dir, name)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no {what} in {rep_dir}")
    sidecar = _read_object(path, {"layer_sizes": list, **keys})
    if sidecar["layer_sizes"] != list(topology.layer_sizes):
        raise ValueError(
            f"{path}: 'layer_sizes' {sidecar['layer_sizes']} does not match "
            f"the configured model {list(topology.layer_sizes)}"
        )
    return path, sidecar


def write_snapshots(rep_dir: str, topology: net.Topology, named: dict):
    files = {name: f"snapshot_{name}.bin" for name in named}
    for name, vector in named.items():
        with open(os.path.join(rep_dir, files[name]), "wb") as fh:
            _RowWriter(fh, 1, topology.param_count)[0] = vector
    _write_sidecar(os.path.join(rep_dir, "snapshots.json"), topology, files=files)


def read_snapshot(rep_dir: str, name: str, topology: net.Topology) -> np.ndarray:
    """Snapshot ``name`` of the replicate in ``rep_dir``, whose
    ``snapshots.json`` names it by a bare file name in ``rep_dir``."""
    path, sidecar = _read_sidecar(
        rep_dir, "snapshots.json", "parameter snapshots", topology, {"files": dict}
    )
    if name not in sidecar["files"]:
        raise FileNotFoundError(f"snapshot {name!r} not present in {rep_dir}")
    entry = sidecar["files"][name]
    if not isinstance(entry, str):
        raise ValueError(f"{path}: 'files' entry {name!r} is not a string")
    if os.path.basename(entry) != entry or entry in ("", ".", ".."):
        raise ValueError(f"{path}: 'files' entry {name!r} is not a file name, got {entry!r}")
    return _RowFile(os.path.join(rep_dir, entry), 1, topology.param_count)[0]


def write_bundle(rep_dir: str, bundle: ensemble.EnsembleBundle, topology: net.Topology):
    """Write the sidecar of ``bundle``, whose members a :class:`_RowWriter`
    appended to ``rep_dir``'s member file as the trajectory captured them."""
    _write_sidecar(
        os.path.join(rep_dir, "ensemble.json"),
        topology,
        layout=(
            "row-major (n_members, param_count) matrix; each row is one flat "
            "parameter vector laid out as in snapshots"
        ),
        n_members=bundle.n_members,
        iterations=bundle.iterations.tolist(),
        temperatures=bundle.temperatures.tolist(),
    )


def _per_member(path: str, sidecar: dict, key: str, dtype) -> np.ndarray:
    """Sidecar entry ``key``: one JSON integer (or, for a float ``dtype``,
    number) per member."""
    values, n = sidecar[key], sidecar["n_members"]
    if len(values) != n:
        raise ValueError(f"{path}: {key!r} has {len(values)} entries, but 'n_members' is {n}")
    kinds = (int,) if dtype is np.int64 else (int, float)
    if all(type(v) in kinds for v in values):  # a bool or null is refused
        try:
            return np.array(values, dtype=dtype)
        except OverflowError:  # an integer past int64
            pass
    raise ValueError(f"{path}: {key!r} holds an entry that is not {dtype.__name__}")


def read_bundle(rep_dir: str, topology: net.Topology) -> ensemble.EnsembleBundle:
    """The bundle in ``rep_dir``, its members a :class:`_RowFile`.

    Only ``ensemble.json`` is read here, and the members file's size
    checked: it must hold ``n_members`` vectors of ``topology.param_count``
    values.  Its rows are read, and so checked, by the walks that slice it,
    a chunk at a time.
    """
    path, sidecar = _read_sidecar(
        rep_dir,
        "ensemble.json",
        "ensemble bundle",
        topology,
        {"n_members": int, "iterations": list, "temperatures": list},
    )
    if sidecar["n_members"] < 1:
        raise ValueError(f"{path}: 'n_members' is {sidecar['n_members']}, not >= 1")
    iterations = _per_member(path, sidecar, "iterations", np.int64)
    temperatures = _per_member(path, sidecar, "temperatures", np.float64)
    if not (temperatures >= 0).all():
        raise ValueError(f"{path}: 'temperatures' holds a NaN or negative entry")
    n = sidecar["n_members"]
    members = _RowFile(os.path.join(rep_dir, MEMBERS_FILE), n, topology.param_count)
    return ensemble.EnsembleBundle(members, iterations, temperatures)


# ---------------------------------------------------------------------------
# train-adam / simmer / retrofit


def _run_stage(cfg: ExperimentConfig, out_dir: str, command: str, bind, n_jobs: int) -> str:
    """Run a stage's ``n_jobs`` jobs into ``out_dir``, then score them and write its metrics.

    The one stage skeleton of ``train-adam``, ``simmer`` and ``retrofit``,
    each of which checks its own preconditions first; ``bind(topology,
    prep)`` checks (and reads) what needs the data and the topology,
    before ``--out`` is made, and returns the stage's job.  Job ``j``
    below ``cfg.replicates`` is replicate ``j``; the one after them is the
    Adam baseline of ``simmer``.  ``job(j, job_dir)`` writes the job's
    files into its directory and returns ``(endpoint, sampled)``: the Adam
    endpoint it trained or started from (None if it has none) and whether
    it wrote a bundle.  The jobs run through
    :func:`parallel.map_in_order`, and a non-finite error is prefixed with
    the job's name.  A job that wrote a bundle reads it back, its members
    a chunk at a time as ``evaluate`` reads them, and scores it on the
    test set, so the parent reads no bundle.  Each job sends back only its
    endpoint's metrics and, if it sampled, its bundle's
    :class:`ensemble.Evaluation`, which scores that replicate alone; the
    parent adds these with :func:`ensemble.pool`, in replicate order, to
    score the pool.
    Each job's metrics.json follows; the top-level one takes the mean of
    the Adam metrics over the jobs that report an endpoint, and the pooled
    metric.  ``resolved_config.json`` comes last.
    """
    prep = prepare_data(cfg)
    topology = build_topology(cfg, prep.dataset)
    job = bind(topology, prep)
    _prepare_out_dir(out_dir)

    def job_dir(j: int) -> tuple[str, str]:
        if j < cfg.replicates:
            return f"replicate {j}", _replicate_dir(out_dir, j)
        return BASELINE_DIR, os.path.join(out_dir, BASELINE_DIR)

    def run(j: int):
        name, path = job_dir(j)
        os.makedirs(path)
        try:
            endpoint, sampled = job(j, path)
        except net.NonFiniteError as exc:
            raise net.NonFiniteError(f"{name}: {exc}") from exc
        adam = (None, None) if endpoint is None else _endpoint_metrics(topology, prep, endpoint)
        if not sampled:
            return adam, None
        members = read_bundle(path, topology).members
        return adam, _pooled(topology, prep, [members], [prep.raw_test_inputs])

    results = parallel.map_in_order(run, range(n_jobs))
    for j, (adam, part) in enumerate(results):
        _write_metrics(job_dir(j)[1], prep, adam, part)
    parts = [part for _, part in results if part is not None]  # the replicates', if any
    adam = [adam for adam, _ in results if adam[1] is not None]  # the jobs with an Adam endpoint
    mean = tuple(sum(values) / len(adam) for values in zip(*adam)) if adam else (None, None)
    _write_metrics(out_dir, prep, mean, ensemble.pool(parts) if parts else None)
    _write_resolved_config(out_dir, cfg, command)
    return out_dir


def _adam_job(cfg, topology, prep, replicate: int, job_dir: str):
    """Adam from the replicate's initialization; writes its losses and snapshots."""
    report = optimize.train_adam(
        topology,
        initial_params(cfg, topology, replicate),
        prep.train_inputs,
        prep.train_targets,
        prep.test_inputs,
        prep.test_targets,
        cfg.model.loss,
        cfg.adam.epochs,
        cfg.adam.alpha,
    )
    _write_csv(
        os.path.join(job_dir, "losses.csv"),
        ("epoch", "loss_train", "loss_test"),
        (np.arange(1, report.epochs + 1), report.train_losses, report.test_losses),
    )
    write_snapshots(
        job_dir, topology, {"final": report.final_params, "penultimate": report.penultimate_params}
    )
    return report.final_params, False


def run_train_adam(cfg: ExperimentConfig, out_dir: str) -> str:
    """Train the Adam baseline for every replicate; write losses and snapshots."""
    if cfg.adam is None:
        raise ConfigError("adam", "train-adam needs an adam section")

    def bind(topology, prep):
        return functools.partial(_adam_job, cfg, topology, prep)

    return _run_stage(cfg, out_dir, "train-adam", bind, cfg.replicates)


def _loss_fns(cfg, topology, prep):
    """Gradient, stacked train-loss and test-loss functions, with the data
    checked once, and the steps whose losses are recorded together."""
    train = net.Evaluator(topology, cfg.model.loss, prep.train_inputs, prep.train_targets)
    test = net.Evaluator(topology, cfg.model.loss, prep.test_inputs, prep.test_targets)
    block = net.chunk_size(topology, max(train.inputs.shape[0], test.inputs.shape[0]))
    return train.gradient, train.losses, test.losses, block


def _simmer_replicate(cfg, topology, prep, state, replicate: int, rep_dir: str):
    """Integrate one replicate, write its trajectory and bundle.

    The members are chosen before integrating, and only their states are
    captured, each appended to the member file as it is captured.
    """
    simmer = cfg.simmer
    grad_fn, loss_train_fn, loss_test_fn, block = _loss_fns(cfg, topology, prep)
    steps = cfg.sampling.steps(simmer.iterations, cfg.seed, replicate)
    with open(os.path.join(rep_dir, MEMBERS_FILE), "wb") as fh:
        _, traj = run_trajectory(
            state,
            grad_fn,
            simmer.dt,
            simmer.schedule,
            simmer.iterations,
            loss_train_fn,
            loss_test_fn,
            steps,
            block=block,
            snapshots=_RowWriter(fh, len(steps), topology.param_count),
        )
    _write_csv(
        os.path.join(rep_dir, "trajectory.csv"),
        ("iteration", "T_target", "T_kinetic", "loss_train", "loss_test", "extended_energy"),
        (
            traj.iterations,
            traj.temperature,
            traj.kinetic_temperature,
            traj.loss_train,
            traj.loss_test,
            traj.extended_energy,
        ),
    )
    write_bundle(rep_dir, ensemble.collect(traj), topology)


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

    def bind(topology, prep):
        def job(r: int, job_dir: str):
            if r == cfg.replicates:  # the Adam baseline, after every replicate
                return _adam_job(cfg, topology, prep, 0, job_dir)
            seed = seeding.child_seed(cfg.seed, "velocities", r)
            state = PhaseState(
                positions=initial_params(cfg, topology, r),
                velocities=initial_velocities(topology.param_count, s.t_initial, seed),
                masses=cfg.simmer.particle_mass,
                chain=ThermostatChain.rest(cfg.simmer.chain_length, cfg.simmer.chain_mass),
            )
            _simmer_replicate(cfg, topology, prep, state, r, job_dir)
            return None, True

        return job

    return _run_stage(cfg, out_dir, "simmer", bind, cfg.replicates + (cfg.adam is not None))


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
    if command != "train-adam":
        raise ValueError(f"{adam_run} is a {command!r} run, not a 'train-adam' run")
    _check_retrofit_compatibility(cfg, stored)
    if cfg.replicates > stored.replicates:
        raise ValueError(
            f"retrofit wants {cfg.replicates} replicates but the adam run "
            f"has {stored.replicates}"
        )

    def bind(topology, prep):
        # every snapshot is read, and so checked, before --out is made
        starts = [
            [read_snapshot(_replicate_dir(adam_run, r), name, topology) for name in SNAPSHOTS]
            for r in range(cfg.replicates)
        ]

        def job(r: int, job_dir: str):
            final, penultimate = starts[r]
            state = optimize.retrofit_init(
                final,
                penultimate,
                gamma=stored.adam.alpha,
                chain_length=cfg.simmer.chain_length,
                chain_mass=cfg.simmer.chain_mass,
                particle_mass=cfg.simmer.particle_mass,
            )
            _simmer_replicate(cfg, topology, prep, state, r, job_dir)
            return final, True

        return job

    return _run_stage(cfg, out_dir, "retrofit", bind, cfg.replicates)


# ---------------------------------------------------------------------------
# evaluate / spectrum


def _recorded_test_metric(run_dir: str, prep: PreparedData) -> float:
    """The pooled test metric in the run's top-level metrics.json, which
    the sampling stage scored from the bundles it wrote."""
    path = os.path.join(run_dir, METRICS_FILE)
    report = _read_object(path, {"metric_kind": str, "ensemble_test_metric": float})
    if report["metric_kind"] != prep.metric_kind:
        raise ValueError(
            f"{path}: 'metric_kind' is {report['metric_kind']!r}, "
            f"but the run's data is scored by {prep.metric_kind!r}"
        )
    try:
        metric = float(report["ensemble_test_metric"])
    except OverflowError:  # an integer past the float range
        metric = math.inf
    if not math.isfinite(metric):
        raise ValueError(f"{path}: 'ensemble_test_metric' is not finite, got {metric!r}")
    return metric


def run_evaluate(
    run_dir: str,
    out_dir: str,
    grid_resolution: int = 100,
    at_points=None,
) -> str:
    """Turn a finished simmer/retrofit run into plottable CSV artifacts.

    The test metric is the one the sampling stage recorded; the walk
    covers only the grid or curve and the ``--at`` points, and reads each
    member row once per set it walks, or once through
    :meth:`_RowFile.check` when there is nothing to walk.  Never touches
    the input run directory.  Writes:
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
        if not np.isfinite(point).all():
            raise ValueError(f"distribution point {p_idx} has a non-finite coordinate")
    # every sidecar is checked, in replicate order, before any member row is read
    reps = range(cfg.replicates)
    matrices = [read_bundle(_replicate_dir(run_dir, r), topology).members for r in reps]
    more = []
    if prep.task == "classification" and n_features == 2:
        lo = prep.dataset.features.min(axis=0)
        hi = prep.dataset.features.max(axis=0)
        bounds = ((lo[0], hi[0]), (lo[1], hi[1]))
        _, _, nodes = ensemble.grid_nodes(bounds, grid_resolution)
        more.append(nodes)
    if prep.task == "regression" and n_features == 1:
        lo = float(prep.dataset.features.min())
        hi = float(prep.dataset.features.max())
        grid = np.linspace(lo, hi, 101).reshape(-1, 1)
        more.append(grid)
    # one pass, which checks the rows it reads; a process holds one chunk at a time
    if more or points:
        pooled = _pooled(topology, prep, matrices, more, [point.reshape(1, -1) for point in points])
        n_members = pooled.n_members
    else:  # nothing to walk, but every row is still read, and so checked
        for matrix in matrices:
            matrix.check()
        n_members = sum(map(len, matrices))
    test_metric = _recorded_test_metric(run_dir, prep)
    _prepare_out_dir(out_dir)

    summary = {
        "metric_kind": prep.metric_kind,
        "ensemble_test_metric": test_metric,
        "n_members": n_members,
        "n_replicates": cfg.replicates,
    }

    if prep.task == "classification" and n_features == 2:
        # a node per row, x varying slowest, then its per-class vote proportions
        props = ensemble.proportions(pooled.votes[0])
        header = [*feature_names, *prep.dataset.target_names]
        _write_csv(os.path.join(out_dir, "decision_grid.csv"), header, [*nodes.T, *props.T])
        summary["decision_grid"] = {
            "resolution": grid_resolution,
            "bounds": [[float(lo[0]), float(hi[0])], [float(lo[1]), float(hi[1])]],
        }

    if prep.task == "regression" and n_features == 1:
        header = (feature_names[0], "ensemble_mean")
        curve = (grid[:, 0], pooled.means[0][:, 0])
        _write_csv(os.path.join(out_dir, "prediction_curve.csv"), header, curve)
        summary["prediction_curve"] = {"points": 101, "bounds": [lo, hi]}

    if points:
        # a row per member per point, the members in pooled order
        rows = [pooled.members[p_idx][:, 0] for p_idx in range(len(points))]
        if prep.task == "regression":
            value_header, values = "prediction", [r[:, 0] for r in rows]
        else:
            value_header = "predicted_class"
            values = [net.class_labels_from_outputs(r) for r in rows]
        m, n_points = n_members, len(points)
        columns = [
            np.repeat(np.arange(n_points), m),
            *np.repeat(np.array(points), m, axis=0).T,
            np.tile(np.arange(m), n_points),
            np.concatenate(values),
        ]
        header = ["point_index", *feature_names, "member_index", value_header]
        _write_csv(os.path.join(out_dir, "prediction_distribution.csv"), header, columns)
        summary["prediction_distribution"] = {"points": n_points}

    _write_json(os.path.join(out_dir, "evaluation.json"), summary)
    return out_dir


def run_spectrum(run_dir: str, out_dir: str) -> str:
    """Hessian eigenvalue spectrum of the training loss at a run's endpoint.

    Uses the Adam final snapshot for train-adam runs, otherwise the last
    captured ensemble member of replicate 00, the only row read of its
    bundle.
    """
    cfg, _ = load_run_config(run_dir)
    prep = prepare_data(cfg)
    topology = build_topology(cfg, prep.dataset)
    rep0 = _replicate_dir(run_dir, 0)
    if os.path.exists(os.path.join(rep0, "snapshots.json")):
        params = read_snapshot(rep0, "final", topology)
        source = "adam_final"
    elif os.path.exists(os.path.join(rep0, "ensemble.json")):
        params = read_bundle(rep0, topology).members[-1]
        source = "ensemble_last_member"
    else:
        raise FileNotFoundError(f"no parameter snapshot found in {rep0}")

    report = diagnostics.hessian_spectrum(
        topology, params, prep.train_inputs, prep.train_targets, cfg.model.loss
    )
    _prepare_out_dir(out_dir)
    eigenvalues = report.eigenvalues
    columns = (np.arange(len(eigenvalues)), eigenvalues)
    _write_csv(os.path.join(out_dir, "spectrum.csv"), ("index", "eigenvalue"), columns)
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
