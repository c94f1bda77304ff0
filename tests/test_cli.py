"""CLI and runner integration: run directories, determinism, error reporting."""

import json
import multiprocessing
import os
import re

import numpy as np
import pytest

from simmering import data, ensemble, net, runner, seeding
from simmering.cli import main
from simmering.config import from_dict
from simmering.dynamics import PhaseState, ThermostatChain, initial_velocities, run_trajectory

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def tiny_config_dict(**overrides):
    raw = {
        "name": "tiny",
        "seed": 3,
        "replicates": 2,
        "data": {"kind": "noisy_sine", "n_points": 21, "noise_amp": 0.1, "n_train": 13},
        "model": {
            "hidden": [6],
            "activations": ["tanh", "linear"],
            "loss": "sse",
            "init": "glorot_normal",
        },
        "adam": {"alpha": 0.01, "epochs": 40},
        "simmer": {
            "dt": 0.002,
            "iterations": 250,
            "chain_length": 2,
            "chain_mass": 1.0,
            "particle_mass": 1.0,
            "schedule": {
                "t_initial": 0.0,
                "t_target": 0.05,
                "t_step": 0.01,
                "hold_iterations": 30,
            },
        },
        "sampling": {"burn_in": 150, "stride": 2, "fraction": 0.5},
    }
    raw.update(overrides)
    return raw


def write_config(tmp_path, name="tiny.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(tiny_config_dict(**overrides)))
    return str(path)


def classification_config_dict():
    return tiny_config_dict(
        name="tiny_iris",
        data={"kind": "csv", "path": "builtin:iris", "n_train": 112},
        model={
            "hidden": [8],
            "activations": ["tanh", "linear"],
            "loss": "categorical_cross_entropy",
            "init": "glorot_normal",
        },
        simmer={
            "dt": 0.002,
            "iterations": 150,
            "schedule": {"t_initial": 0.002, "t_target": 0.002},
        },
        sampling={"burn_in": 50, "stride": 1, "fraction": 0.5},
        replicates=2,
    )


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_train_adam_run_directory_layout(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "run_adam")
    assert main(["train-adam", "--config", cfg_path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "resolved_config.json"))
    assert os.path.exists(os.path.join(out, "metrics.json"))
    for r in range(2):
        rep = os.path.join(out, f"replicate_{r:02d}")
        assert os.path.exists(os.path.join(rep, "losses.csv"))
        assert os.path.exists(os.path.join(rep, "snapshot_final.bin"))
        assert os.path.exists(os.path.join(rep, "snapshot_penultimate.bin"))
        assert os.path.exists(os.path.join(rep, "snapshots.json"))
    with open(os.path.join(out, "replicate_00", "losses.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "epoch,loss_train,loss_test"
    assert len(lines) == 41  # header + one row per epoch
    assert lines[1].startswith("1,")
    assert lines[-1].startswith("40,")


def test_resolved_config_records_seed_version_command(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "run")
    main(["train-adam", "--config", cfg_path, "--out", out])
    payload = json.load(open(os.path.join(out, "resolved_config.json")))
    assert payload["command"] == "train-adam"
    assert payload["config"]["seed"] == 3
    assert "package_version" in payload
    assert payload["seed_purposes"]["weights"] == 0
    # round-trips through the parser
    assert from_dict(payload["config"]).name == "tiny"


def test_metrics_json_fixed_fields(tmp_path):
    cfg_path = write_config(tmp_path)
    adam_out = str(tmp_path / "a")
    retro_out = str(tmp_path / "r")
    main(["train-adam", "--config", cfg_path, "--out", adam_out])
    assert main(["retrofit", "--config", cfg_path, "--from-run", adam_out, "--out", retro_out]) == 0
    m = json.load(open(os.path.join(retro_out, "metrics.json")))
    assert set(m) == {
        "metric_kind",
        "adam_train_metric",
        "adam_test_metric",
        "ensemble_test_metric",
        "improved",
    }
    assert m["metric_kind"] == "mse"
    assert isinstance(m["adam_test_metric"], float)
    assert isinstance(m["ensemble_test_metric"], float)
    assert isinstance(m["improved"], bool)
    adam_m = json.load(open(os.path.join(adam_out, "metrics.json")))
    assert adam_m["ensemble_test_metric"] is None
    assert adam_m["improved"] is None


def test_trajectory_csv_header_and_rows(tmp_path):
    cfg_path = write_config(tmp_path)
    adam_out = str(tmp_path / "a")
    retro_out = str(tmp_path / "r")
    main(["train-adam", "--config", cfg_path, "--out", adam_out])
    main(["retrofit", "--config", cfg_path, "--from-run", adam_out, "--out", retro_out])
    with open(os.path.join(retro_out, "replicate_00", "trajectory.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "iteration,T_target,T_kinetic,loss_train,loss_test,extended_energy"
    assert len(lines) == 251
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == 0.0  # ramp starts at T=0
    last = lines[-1].split(",")
    assert last[0] == "250"
    assert float(last[1]) == 0.05  # ramp has reached the target


def test_retrofit_positions_start_at_adam_endpoint(tmp_path):
    cfg_path = write_config(tmp_path)
    adam_out = str(tmp_path / "a")
    main(["train-adam", "--config", cfg_path, "--out", adam_out])
    cfg = from_dict(tiny_config_dict())
    prep = runner.prepare_data(cfg)
    topology = runner.build_topology(cfg, prep.dataset)
    final = runner.read_snapshot(os.path.join(adam_out, "replicate_00"), "final", topology)
    assert final.shape == (topology.param_count,)
    penult = runner.read_snapshot(
        os.path.join(adam_out, "replicate_00"), "penultimate", topology
    )
    assert not np.array_equal(final, penult)


def test_rerun_is_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path)
    a1, a2 = str(tmp_path / "a1"), str(tmp_path / "a2")
    main(["train-adam", "--config", cfg_path, "--out", a1])
    main(["train-adam", "--config", cfg_path, "--out", a2])
    r1, r2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    main(["retrofit", "--config", cfg_path, "--from-run", a1, "--out", r1])
    main(["retrofit", "--config", cfg_path, "--from-run", a2, "--out", r2])
    for rel in (
        "metrics.json",
        "replicate_00/trajectory.csv",
        "replicate_01/trajectory.csv",
        "replicate_00/ensemble_members.bin",
        "replicate_01/ensemble.json",
        "replicate_00/metrics.json",
    ):
        assert read_bytes(os.path.join(r1, rel)) == read_bytes(os.path.join(r2, rel)), rel
    for rel in ("metrics.json", "replicate_00/losses.csv", "replicate_00/snapshot_final.bin"):
        assert read_bytes(os.path.join(a1, rel)) == read_bytes(os.path.join(a2, rel)), rel


def test_seed_override_changes_results(tmp_path):
    cfg_path = write_config(tmp_path)
    a1, a2 = str(tmp_path / "s3"), str(tmp_path / "s4")
    main(["train-adam", "--config", cfg_path, "--out", a1])
    main(["train-adam", "--config", cfg_path, "--out", a2, "--seed", "4"])
    assert read_bytes(os.path.join(a1, "replicate_00/snapshot_final.bin")) != read_bytes(
        os.path.join(a2, "replicate_00/snapshot_final.bin")
    )
    payload = json.load(open(os.path.join(a2, "resolved_config.json")))
    assert payload["config"]["seed"] == 4


def test_replicates_override(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "one")
    main(["train-adam", "--config", cfg_path, "--out", out, "--replicates", "1"])
    assert os.path.exists(os.path.join(out, "replicate_00"))
    assert not os.path.exists(os.path.join(out, "replicate_01"))


def test_replicates_differ_from_each_other(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "reps")
    main(["train-adam", "--config", cfg_path, "--out", out])
    b0 = read_bytes(os.path.join(out, "replicate_00/snapshot_final.bin"))
    b1 = read_bytes(os.path.join(out, "replicate_01/snapshot_final.bin"))
    assert b0 != b1


def test_simmer_classification_and_evaluate_grid(tmp_path):
    cfg_path = tmp_path / "iris.json"
    cfg_path.write_text(json.dumps(classification_config_dict()))
    out = str(tmp_path / "ab")
    assert main(["simmer", "--config", str(cfg_path), "--out", out]) == 0
    m = json.load(open(os.path.join(out, "metrics.json")))
    assert m["metric_kind"] == "accuracy"
    assert m["adam_test_metric"] is not None  # baseline trained from the adam section
    assert os.path.exists(os.path.join(out, "baseline_adam", "losses.csv"))

    eval_out = str(tmp_path / "ev")
    points = ["3.0,1.2", "2.5,0.3"]
    assert main(
        ["evaluate", "--from-run", out, "--out", eval_out, "--grid-resolution", "10",
         "--at", points[0], "--at", points[1]]
    ) == 0
    with open(os.path.join(eval_out, "decision_grid.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "sepal_width,petal_width,setosa,versicolor,virginica"
    assert len(lines) == 101  # header + 10x10 nodes
    sums = set()
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")[2:]]
        sums.add(sum(cells))
    assert sums == {1.0}
    summary = json.load(open(os.path.join(eval_out, "evaluation.json")))
    assert summary["n_replicates"] == 2
    assert summary["n_members"] == 2 * 50
    assert m["ensemble_test_metric"] == summary["ensemble_test_metric"]

    # one row per member, replicate by replicate, each in storage order
    cfg = from_dict(json.load(open(os.path.join(out, "resolved_config.json")))["config"])
    prep = runner.prepare_data(cfg)
    topology = runner.build_topology(cfg, prep.dataset)
    expected = []
    for p_idx, text in enumerate(points):
        scaled = data.scale_features(prep.scaler, np.array([[float(c) for c in text.split(",")]]))
        member_index = 0
        for r in range(2):
            rep_dir = os.path.join(out, f"replicate_{r:02d}")
            bundle = runner.read_bundle(rep_dir, topology, prep.scaler)
            for member in bundle.members:
                label = net.class_labels_from_outputs(net.forward(topology, member, scaled))[0]
                expected.append((p_idx, member_index, int(label)))
                member_index += 1
    with open(os.path.join(eval_out, "prediction_distribution.csv")) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "point_index,sepal_width,petal_width,member_index,predicted_class"
    got = [(int(c[0]), int(c[3]), int(c[4])) for c in (row.split(",") for row in rows[1:])]
    assert got == expected


def test_simmer_rejects_temperature_ramp(tmp_path):
    raw = classification_config_dict()
    raw["simmer"]["schedule"] = {
        "t_initial": 0.0,
        "t_target": 0.1,
        "t_step": 0.01,
        "hold_iterations": 10,
    }
    cfg_path = tmp_path / "ramp.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["simmer", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1


def test_evaluate_regression_curve_and_distribution(tmp_path):
    cfg_path = write_config(tmp_path)
    a = str(tmp_path / "a")
    r = str(tmp_path / "r")
    ev = str(tmp_path / "ev")
    main(["train-adam", "--config", cfg_path, "--out", a])
    main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", r])
    assert main(["evaluate", "--from-run", r, "--out", ev, "--at", "0.25", "--at", "-0.5"]) == 0
    with open(os.path.join(ev, "prediction_curve.csv")) as fh:
        curve = fh.read().splitlines()
    assert curve[0] == "x,ensemble_mean"
    assert len(curve) == 102
    with open(os.path.join(ev, "prediction_distribution.csv")) as fh:
        dist = fh.read().splitlines()
    assert dist[0] == "point_index,x,member_index,prediction"
    summary = json.load(open(os.path.join(ev, "evaluation.json")))
    n_members = summary["n_members"]
    assert len(dist) == 1 + 2 * n_members  # one row per member per requested point
    # evaluate twice -> identical artifacts
    ev2 = str(tmp_path / "ev2")
    main(["evaluate", "--from-run", r, "--out", ev2, "--at", "0.25", "--at", "-0.5"])
    assert read_bytes(os.path.join(ev, "prediction_curve.csv")) == read_bytes(
        os.path.join(ev2, "prediction_curve.csv")
    )


def test_member_bytes_follow_the_documented_layout(tmp_path):
    cfg_path = write_config(tmp_path)
    a, r = str(tmp_path / "a"), str(tmp_path / "r")
    main(["train-adam", "--config", cfg_path, "--out", a])
    assert main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", r]) == 0
    snapshots = json.load(open(os.path.join(a, "replicate_00", "snapshots.json")))
    assert "weight matrix (n_outputs x n_inputs) flattened row-major" in snapshots["layout"]
    rep = os.path.join(r, "replicate_00")
    sidecar = json.load(open(os.path.join(rep, "ensemble.json")))
    flat = np.frombuffer(read_bytes(os.path.join(rep, "ensemble_members.bin")), dtype="<f8")
    members = flat.reshape(sidecar["n_members"], sidecar["param_count"])
    sizes, acts = sidecar["layer_sizes"], sidecar["activations"]
    assert acts == ["tanh", "linear"]

    cfg = from_dict(json.load(open(os.path.join(r, "resolved_config.json")))["config"])
    prep = runner.prepare_data(cfg)
    topology = runner.build_topology(cfg, prep.dataset)
    for member in members:
        # plain numpy, reading the bytes as the sidecar text describes them
        out, offset = prep.test_inputs, 0
        for n_in, n_out, act in zip(sizes[:-1], sizes[1:], acts):
            w = member[offset : offset + n_out * n_in].reshape(n_out, n_in)
            offset += n_out * n_in
            b = member[offset : offset + n_out]
            offset += n_out
            out = out @ w.T + b
            out = np.tanh(out) if act == "tanh" else out
        assert offset == sidecar["param_count"]
        np.testing.assert_array_equal(out, net.forward(topology, member, prep.test_inputs))


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_pooled_regression_metric_matches_evaluate(tmp_path, seed):
    cfg_path = write_config(tmp_path, seed=seed)
    a, r, ev = str(tmp_path / "a"), str(tmp_path / "r"), str(tmp_path / "ev")
    main(["train-adam", "--config", cfg_path, "--out", a])
    assert main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", r]) == 0
    assert main(["evaluate", "--from-run", r, "--out", ev]) == 0
    run_metric = json.load(open(os.path.join(r, "metrics.json")))["ensemble_test_metric"]
    evaluation = json.load(open(os.path.join(ev, "evaluation.json")))
    assert evaluation["n_replicates"] == 2
    assert run_metric == evaluation["ensemble_test_metric"]


def test_spectrum_outputs(tmp_path):
    cfg_path = write_config(tmp_path)
    a = str(tmp_path / "a")
    sp = str(tmp_path / "sp")
    main(["train-adam", "--config", cfg_path, "--out", a])
    assert main(["spectrum", "--from-run", a, "--out", sp]) == 0
    payload = json.load(open(os.path.join(sp, "spectrum.json")))
    assert payload["source"] == "adam_final"
    assert payload["param_count"] == 19  # 1->6->1 tanh net
    eigs = payload["eigenvalues"]
    assert len(eigs) == 19
    assert eigs == sorted(eigs, reverse=True)
    with open(os.path.join(sp, "spectrum.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 20


def test_spectrum_from_simmer_run_uses_last_member(tmp_path):
    cfg_path = write_config(tmp_path)
    a, r, sp = str(tmp_path / "a"), str(tmp_path / "r"), str(tmp_path / "sp")
    main(["train-adam", "--config", cfg_path, "--out", a])
    main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", r])
    assert main(["spectrum", "--from-run", r, "--out", sp]) == 0
    payload = json.load(open(os.path.join(sp, "spectrum.json")))
    assert payload["source"] == "ensemble_last_member"


def error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


def test_missing_config_error(tmp_path, capsys):
    assert main(["train-adam", "--config", str(tmp_path / "gone.json"), "--out", str(tmp_path / "o")]) == 1
    payload = error_line(capsys)
    assert payload["error"] == "ConfigError"
    assert "not found" in payload["message"]


def test_config_field_error_is_machine_parsable(tmp_path, capsys):
    raw = tiny_config_dict()
    raw["simmer"]["dt"] = -1.0
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    assert main(["simmer", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    payload = error_line(capsys)
    assert "simmer.dt" in payload["message"]


def test_nonempty_out_dir_refused(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    assert main(["train-adam", "--config", cfg_path, "--out", str(out)]) == 1
    assert "not empty" in error_line(capsys)["message"]
    assert (out / "junk.txt").exists()  # nothing was clobbered


def test_retrofit_from_non_run_dir(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    bogus = tmp_path / "bogus"
    bogus.mkdir()
    assert main(
        ["retrofit", "--config", cfg_path, "--from-run", str(bogus), "--out", str(tmp_path / "o")]
    ) == 1
    assert "resolved_config" in error_line(capsys)["message"]


def test_retrofit_rejects_mismatched_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    a = str(tmp_path / "a")
    main(["train-adam", "--config", cfg_path, "--out", a])
    other = write_config(tmp_path, name="other.json", seed=99)
    assert main(
        ["retrofit", "--config", other, "--from-run", a, "--out", str(tmp_path / "o")]
    ) == 1
    assert "seed" in error_line(capsys)["message"]


def test_retrofit_rejects_more_replicates_than_available(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    a = str(tmp_path / "a")
    main(["train-adam", "--config", cfg_path, "--out", a])
    assert main(
        [
            "retrofit", "--config", cfg_path, "--from-run", a,
            "--out", str(tmp_path / "o"), "--replicates", "5",
        ]
    ) == 1
    assert "replicate" in error_line(capsys)["message"]


def test_evaluate_adam_run_has_no_bundle(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    a = str(tmp_path / "a")
    main(["train-adam", "--config", cfg_path, "--out", a])
    assert main(["evaluate", "--from-run", a, "--out", str(tmp_path / "o")]) == 1
    assert "bundle" in error_line(capsys)["message"]


def test_evaluate_rejects_bad_distribution_point(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    a, r = str(tmp_path / "a"), str(tmp_path / "r")
    main(["train-adam", "--config", cfg_path, "--out", a])
    main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", r])
    out = tmp_path / "o"
    assert main(
        ["evaluate", "--from-run", r, "--out", str(out), "--at", "0.25", "--at", "0.1,0.2"]
    ) == 1
    assert "point 1 has 2 coordinates" in error_line(capsys)["message"]
    assert not out.exists()  # checked before anything is written


def test_nonfinite_error_names_replicate_step_and_quantity(tmp_path, capsys):
    raw = tiny_config_dict()
    raw["simmer"]["dt"] = 2.0
    raw["simmer"]["schedule"] = {"t_initial": 0.05, "t_target": 0.05}
    p = tmp_path / "blows_up.json"
    p.write_text(json.dumps(raw))
    with np.errstate(all="ignore"):
        assert main(["simmer", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    payload = error_line(capsys)
    assert payload["error"] == "NonFiniteError"
    assert re.match(
        r"replicate 0: non-finite "
        r"(velocities entering|gradient in|train loss in|test loss in|extended energy in) "
        r"step \d+",
        payload["message"],
    )


@pytest.mark.parametrize(
    "command,prefix", [("train-adam", "replicate 0"), ("simmer", "baseline_adam")]
)
def test_adam_nonfinite_error_names_epoch_and_quantity(tmp_path, capsys, command, prefix):
    raw = tiny_config_dict()
    raw["simmer"]["schedule"] = {"t_initial": 0.05, "t_target": 0.05}
    raw["adam"]["alpha"] = 1e200
    p = tmp_path / "blows_up.json"
    p.write_text(json.dumps(raw))
    with np.errstate(all="ignore"):
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    payload = error_line(capsys)
    assert payload["error"] == "NonFiniteError"
    assert re.match(
        prefix + r": non-finite (gradient|train loss|test loss) in epoch \d+", payload["message"]
    )


@pytest.mark.parametrize(
    "command,section,field,value",
    [("train-adam", "adam", "alpha", 1e200), ("simmer", "simmer", "dt", 2.0)],
)
def test_failed_run_is_not_a_run_directory(tmp_path, capsys, command, section, field, value):
    raw = tiny_config_dict()
    raw["simmer"]["schedule"] = {"t_initial": 0.05, "t_target": 0.05}
    raw[section][field] = value
    p = tmp_path / "blows_up.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main([command, "--config", str(p), "--out", str(out)]) == 1
    assert error_line(capsys)["error"] == "NonFiniteError"
    assert out.is_dir() and not (out / "resolved_config.json").exists()
    if command == "train-adam":
        after = ["retrofit", "--config", str(p), "--from-run", str(out)]
    else:
        after = ["evaluate", "--from-run", str(out)]
    assert main(after + ["--out", str(tmp_path / "after")]) == 1
    assert error_line(capsys)["message"].startswith("not a run directory")


def test_simmer_members_equal_collect_over_full_capture(tmp_path):
    raw = tiny_config_dict()
    raw["simmer"]["schedule"] = {"t_initial": 0.05, "t_target": 0.05}
    assert raw["sampling"]["stride"] > 1 and raw["sampling"]["fraction"] < 1
    p = tmp_path / "sub.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "s"
    assert main(["simmer", "--config", str(p), "--out", str(out)]) == 0

    cfg = from_dict(raw)
    prep = runner.prepare_data(cfg)
    topology = runner.build_topology(cfg, prep.dataset)
    grad_fn, loss_train_fn, loss_test_fn = runner._loss_fns(cfg, topology, prep)
    samp = cfg.sampling
    for r in range(cfg.replicates):
        state = PhaseState(
            positions=runner.initial_params(cfg, topology, r),
            velocities=initial_velocities(
                topology.param_count, 0.05, seeding.child_seed(cfg.seed, "velocities", r)
            ),
            masses=cfg.simmer.particle_mass,
            chain=ThermostatChain.rest(cfg.simmer.chain_length, cfg.simmer.chain_mass),
        )
        _, traj = run_trajectory(
            state, grad_fn, runner._integrator_config(cfg), cfg.simmer.iterations,
            loss_train_fn, loss_test_fn,
        )
        assert traj.snapshots.shape[0] == cfg.simmer.iterations
        plan = ensemble.SamplingPlan(
            cfg.simmer.iterations, samp.burn_in, samp.stride, samp.fraction, cfg.seed, r
        )
        bundle = ensemble.collect(traj, plan, topology, prep.scaler)
        rep = out / f"replicate_{r:02d}"
        assert read_bytes(rep / "ensemble_members.bin") == bundle.members.astype("<f8").tobytes()
        sidecar = json.load(open(rep / "ensemble.json"))
        assert sidecar["iterations"] == bundle.iterations.tolist()
        assert sidecar["temperatures"] == bundle.temperatures.tolist()


def test_bad_at_flag_text(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    a, r = str(tmp_path / "a"), str(tmp_path / "r")
    main(["train-adam", "--config", cfg_path, "--out", a])
    main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", r])
    assert main(
        ["evaluate", "--from-run", r, "--out", str(tmp_path / "o"), "--at", "zero"]
    ) == 1
    assert "comma-separated" in error_line(capsys)["message"]


def test_canonical_configs_parse(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config_dir = os.path.join(here, "configs")
    names = sorted(os.listdir(config_dir))
    assert names == [
        "auto_mpg_ab_initio.json",
        "auto_mpg_m_retrofit.json",
        "auto_mpg_s_retrofit.json",
        "iris_ab_initio.json",
        "iris_retrofit.json",
        "sine_retrofit.json",
    ]
    from simmering.config import load_config, to_dict

    for name in names:
        cfg = load_config(os.path.join(config_dir, name))
        assert from_dict(to_dict(cfg)) == cfg
        assert cfg.name == name[:-5]


# ------------------------------------------------------------ worker processes


def tree_bytes(root):
    return {
        os.path.relpath(os.path.join(d, name), root): read_bytes(os.path.join(d, name))
        for d, _, names in os.walk(root)
        for name in names
    }


def test_run_directories_do_not_depend_on_the_core_count(tmp_path, use_cores, forks):
    sine = write_config(tmp_path, replicates=3)
    raw = classification_config_dict()
    raw["replicates"] = 3
    iris = tmp_path / "iris.json"
    iris.write_text(json.dumps(raw))
    trees = {}
    for cores in (1, 3):
        use_cores(cores)
        del forks[:]
        root = tmp_path / f"cores_{cores}"
        a, r, s = str(root / "adam"), str(root / "retrofit"), str(root / "simmer")
        for argv in (
            ["train-adam", "--config", sine, "--out", a],
            ["retrofit", "--config", sine, "--from-run", a, "--out", r],
            ["evaluate", "--from-run", r, "--out", str(root / "eval_r"), "--at", "0.25"],
            ["simmer", "--config", str(iris), "--out", s],
            [
                "evaluate", "--from-run", s, "--out", str(root / "eval_s"),
                "--grid-resolution", "9", "--at", "3.0,1.0",
            ],
        ):
            assert main(argv) == 0
        assert os.path.isdir(os.path.join(s, runner.BASELINE_DIR))
        assert multiprocessing.active_children() == []
        assert bool(forks) == (cores > 1)
        trees[cores] = tree_bytes(root)
    assert sorted(trees[1]) == sorted(trees[3])
    for name in trees[1]:
        assert trees[1][name] == trees[3][name], name


def test_first_failing_replicate_is_reported_for_any_core_count(
    tmp_path, monkeypatch, capsys, use_cores
):
    raw = classification_config_dict()
    raw["replicates"] = 3
    p = tmp_path / "iris.json"
    p.write_text(json.dumps(raw))
    real_initial_params = runner.initial_params

    def poisoned(cfg, topology, replicate):
        params = real_initial_params(cfg, topology, replicate)
        if replicate == 1:
            params[0] = np.nan
        return params

    monkeypatch.setattr(runner, "initial_params", poisoned)
    messages = {}
    for cores in (1, 2):
        use_cores(cores)
        out = tmp_path / f"cores_{cores}"
        with np.errstate(all="ignore"):
            assert main(["simmer", "--config", str(p), "--out", str(out)]) == 1
        payload = error_line(capsys)
        assert payload["error"] == "NonFiniteError"
        messages[cores] = payload["message"]
        assert not (out / "resolved_config.json").exists()
        assert multiprocessing.active_children() == []
    assert messages[1] == messages[2]
    assert re.match(r"replicate 1: non-finite gradient in step 0", messages[1])
