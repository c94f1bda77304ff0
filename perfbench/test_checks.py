"""Tests of the benchmark's own output checks.

Each check must pass on a small real run directory and fail on a copy
with one corruption; the span reduction must give exact self times.  Run
from the repository root (these are not part of the package's test suite):

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracer

ROOT = Path(__file__).resolve().parents[1]
DATASETS = ROOT / "src" / "simmering" / "datasets"
SEED = 3


def _simmering(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "simmering.cli", *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def _config(tmp, name, **cuts):
    config = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    for key, value in cuts.items():
        *path, leaf = key.split("__")
        node = config
        for part in path:
            node = node[part]
        node[leaf] = value
    config["seed"] = SEED
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(config))
    return config, str(path)


@pytest.fixture(scope="module")
def sine(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sine")
    config, cfg = _config(tmp, "sine_retrofit", replicates=1, adam__epochs=600,
                          simmer__iterations=2000, simmer__schedule__hold_iterations=100,
                          sampling__burn_in=1200)
    dirs = {role: tmp / role for role in ("adam", "run", "eval")}
    _simmering("train-adam", "--config", cfg, "--out", str(dirs["adam"]), "--seed", str(SEED))
    _simmering("retrofit", "--config", cfg, "--from-run", str(dirs["adam"]),
               "--out", str(dirs["run"]), "--seed", str(SEED))
    _simmering("evaluate", "--from-run", str(dirs["run"]), "--out", str(dirs["eval"]),
               "--at=0.25", "--at=-0.5")
    return dirs, checks.Spec(config, DATASETS, ((0.25,), (-0.5,)))


@pytest.fixture(scope="module")
def iris(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("iris")
    config, cfg = _config(tmp, "iris_ab_initio", replicates=2, adam__epochs=20,
                          simmer__iterations=300, sampling__burn_in=200)
    dirs = {role: tmp / role for role in ("run", "eval")}
    _simmering("simmer", "--config", cfg, "--out", str(dirs["run"]), "--seed", str(SEED))
    _simmering("evaluate", "--from-run", str(dirs["run"]), "--out", str(dirs["eval"]),
               "--grid-resolution", "9", "--at=3.0,1.0")
    return dirs, checks.Spec(config, DATASETS, ((3.0, 1.0),), grid_resolution=9)


@pytest.fixture(scope="module")
def mpg(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mpg")
    config, cfg = _config(tmp, "auto_mpg_ab_initio", simmer__iterations=600, sampling__burn_in=100)
    dirs = {role: tmp / role for role in ("run", "eval", "spectrum")}
    _simmering("simmer", "--config", cfg, "--out", str(dirs["run"]), "--seed", str(SEED))
    _simmering("evaluate", "--from-run", str(dirs["run"]), "--out", str(dirs["eval"]), "--at=150")
    _simmering("spectrum", "--from-run", str(dirs["run"]), "--out", str(dirs["spectrum"]))
    return dirs, checks.Spec(config, DATASETS, ((150.0,),))


@pytest.mark.parametrize(
    "workload, roles",
    [("sine", ("adam", "run", "eval")), ("iris", ("run", "eval")), ("mpg", ("run", "eval", "spectrum"))],
)
def test_checks_pass_on_real_runs(workload, roles, request):
    dirs, spec = request.getfixturevalue(workload)
    for role in roles:
        checks.CHECKS[role](dirs, spec)


def _flip_member_float(dirs):
    """Flip the sign bit of member 0's output bias, its last parameter."""
    path = dirs["run"] / "replicate_00" / "ensemble_members.bin"
    sidecar = json.loads((path.parent / "ensemble.json").read_text())
    values = np.fromfile(path, dtype="<f8")
    values[sidecar["param_count"] - 1] *= -1.0
    values.tofile(path)


def _drop_grid_row(dirs):
    path = dirs["eval"] / "decision_grid.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[6:]))


def _doctor_t_kinetic(dirs):
    path = dirs["run"] / "replicate_00" / "trajectory.csv"
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[2] = repr(1.2 * float(row[2]))
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def _edit_last_loss(dirs):
    path = dirs["adam"] / "replicate_00" / "losses.csv"
    lines = path.read_text().splitlines()
    epoch, train, test = lines[-1].split(",")
    lines[-1] = f"{epoch},{float(train) * (1 + 1e-6)!r},{test}"
    path.write_text("\n".join(lines) + "\n")


def _scale_top_eigenvalue(dirs):
    path = dirs["spectrum"] / "spectrum.json"
    report = json.loads(path.read_text())
    report["eigenvalues"][0] *= 1.001
    path.write_text(json.dumps(report))


@pytest.mark.parametrize(
    "workload, corrupt, role, reason",
    [
        ("sine", _flip_member_float, "eval", "ensemble_test_metric"),
        ("iris", _drop_grid_row, "eval", "decision_grid.csv has"),
        ("sine", _doctor_t_kinetic, "run", "T_kinetic"),
        ("mpg", _doctor_t_kinetic, "run", "T_kinetic"),
        ("sine", _edit_last_loss, "adam", "last train loss"),
        ("mpg", _scale_top_eigenvalue, "spectrum", "eigenvalues differ"),
    ],
)
def test_checks_fail_on_corrupted_copy(workload, corrupt, role, reason, request, tmp_path):
    dirs, spec = request.getfixturevalue(workload)
    copies = {r: tmp_path / r for r in dirs}
    for r, d in dirs.items():
        shutil.copytree(d, copies[r])
    checks.CHECKS[role](copies, spec)  # the untouched copy passes
    corrupt(copies)
    with pytest.raises(checks.CheckFailed, match=reason):
        checks.CHECKS[role](copies, spec)


@pytest.mark.parametrize("amplitude, fits", [(1.0, True), (0.5, True), (3.0, False)])
def test_sine_curve_must_beat_a_constant(amplitude, fits, tmp_path):
    x = np.linspace(-1.0, 1.0, 101)
    rows = [f"{a},{b}" for a, b in zip(x.tolist(), (amplitude * np.sin(2.0 * np.pi * x)).tolist())]
    (tmp_path / "prediction_curve.csv").write_text("x,ensemble_mean\n" + "\n".join(rows) + "\n")
    if fits:
        checks._check_sine_curve(tmp_path)
    else:
        with pytest.raises(checks.CheckFailed, match="best constant"):
            checks._check_sine_curve(tmp_path)


def test_layer_metrics_reduce_spans_to_self_time(tmp_path, monkeypatch):
    ticks = iter(range(0, 10**6, 1000))  # every clock read advances 1 us
    monkeypatch.setattr(tracer.time, "perf_counter_ns", lambda: next(ticks))
    recorder = tracer.Recorder()
    gradient = recorder.wrap(lambda: None, "net.gradient")
    trajectory = recorder.wrap(lambda: [gradient(), gradient()], "dynamics.trajectory",
                               lambda args, result, counters: 2)
    recorder.wrap(trajectory, tracer.ROOT)()
    recorder.save(str(tmp_path / "run.spans"))
    metrics = tracer.layer_metrics({"simmer": str(tmp_path / "run.spans")})
    assert metrics["net.gradient.calls"] == 2
    assert metrics["net.gradient.us"] == 1.0
    assert metrics["dynamics.steps"] == 2
    assert metrics["dynamics.step_self_us"] == 1.5  # 5 us span, 2 us in gradients, 2 steps
    assert metrics["runner.self_s"] == 2e-6  # 7 us root span around a 5 us child
