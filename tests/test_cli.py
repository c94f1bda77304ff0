"""CLI and runner integration: run directories, determinism, error reporting."""

import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from simmering import data, diagnostics, net, runner, seeding
from simmering.cli import main
from simmering.config import from_dict
from simmering.diagnostics import accuracy, mse
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


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def tree_bytes(root):
    return {
        os.path.relpath(os.path.join(d, name), root): read_bytes(os.path.join(d, name))
        for d, _, names in os.walk(root)
        for name in names
    }


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
    payload = read_json(os.path.join(out, "resolved_config.json"))
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
    m = read_json(os.path.join(retro_out, "metrics.json"))
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
    adam_m = read_json(os.path.join(adam_out, "metrics.json"))
    assert adam_m["ensemble_test_metric"] is None
    assert adam_m["improved"] is None


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_adam_metrics_equal_a_plain_forward_of_the_endpoint(tmp_path, task):
    # the endpoint is scored as a one-member ensemble; its metrics keep the
    # bits of one plain forward of the final vector on the prepared rows
    raw = tiny_config_dict() if task == "regression" else classification_config_dict()
    cfg = from_dict(raw)
    out = str(tmp_path / "a")
    runner.run_train_adam(cfg, out)
    prep = runner.prepare_data(cfg)
    topology = runner.build_topology(cfg, prep.dataset)
    for r in range(cfg.replicates):
        rep_dir = os.path.join(out, f"replicate_{r:02d}")
        final = runner.read_snapshot(rep_dir, "final", topology)
        want = []
        for inputs, targets in ((prep.train_inputs, prep.raw_train_targets),
                                (prep.test_inputs, prep.raw_test_targets)):
            outputs = net.forward(topology, final, inputs)
            if task == "regression":
                want.append(mse(data.unscale_targets(prep.scaler, outputs), targets))
            else:
                labels = net.class_labels_from_outputs(outputs)
                want.append(accuracy(labels, np.argmax(targets, axis=1)))
        m = read_json(os.path.join(rep_dir, "metrics.json"))
        assert [m["adam_train_metric"], m["adam_test_metric"]] == want


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
    iris = tmp_path / "iris.json"
    iris.write_text(json.dumps(classification_config_dict()))
    trees = []
    for k in (1, 2):
        root = tmp_path / f"run_{k}"
        a, r, s = str(root / "a"), str(root / "r"), str(root / "s")
        for argv in (
            ["train-adam", "--config", cfg_path, "--out", a],
            ["retrofit", "--config", cfg_path, "--from-run", a, "--out", r],
            ["evaluate", "--from-run", r, "--out", str(root / "ev_r"), "--at=0.25", "--at=-0.5"],
            ["spectrum", "--from-run", a, "--out", str(root / "sp_a")],
            ["spectrum", "--from-run", r, "--out", str(root / "sp_r")],
            ["simmer", "--config", str(iris), "--out", s],
            [
                "evaluate", "--from-run", s, "--out", str(root / "ev_s"),
                "--grid-resolution", "7", "--at", "3.0,1.0",
            ],
        ):
            assert main(argv) == 0
        trees.append(tree_bytes(root))
    # every CSV writer ran
    names = {os.path.basename(name) for name in trees[0] if name.endswith(".csv")}
    assert names == {
        "losses.csv", "trajectory.csv", "decision_grid.csv", "prediction_curve.csv",
        "prediction_distribution.csv", "spectrum.csv",
    }
    assert sorted(trees[0]) == sorted(trees[1])
    for name in trees[0]:
        assert trees[0][name] == trees[1][name], name


@pytest.mark.parametrize("values", [1, 7 * 13 * 6])
def test_run_directories_do_not_depend_on_the_loss_block(tmp_path, monkeypatch, values):
    # budgets of one step per block and of seven sine steps per block
    # (13 train rows, 6 wide), against the default: a whole tiny sine run
    # in one block, and the iris simmer's 150 steps in three
    sine = write_config(tmp_path)
    iris = tmp_path / "iris.json"
    iris.write_text(json.dumps(classification_config_dict()))
    trees = []
    for budget in (net.CHUNK_VALUES, values):
        monkeypatch.setattr(net, "CHUNK_VALUES", budget)
        root = tmp_path / f"budget_{budget}"
        a = str(root / "a")
        for argv in (
            ["train-adam", "--config", sine, "--out", a],
            ["retrofit", "--config", sine, "--from-run", a, "--out", str(root / "r")],
            ["simmer", "--config", str(iris), "--out", str(root / "s")],
        ):
            assert main(argv) == 0
        trees.append(tree_bytes(root))
    names = {os.path.basename(name) for name in trees[0]}
    assert {"losses.csv", "trajectory.csv"} <= names
    assert sorted(trees[0]) == sorted(trees[1])
    for name in trees[0]:
        assert trees[0][name] == trees[1][name], name


def poison_row(path, row, width):
    """Set the first value of row ``row`` of a float64 file ``width`` values wide to NaN."""
    with open(path, "r+b") as fh:
        fh.seek(row * width * 8)
        fh.write(np.array([np.nan], dtype="<f8").tobytes())


def test_nonfinite_value_is_refused_on_read(tmp_path, capfd, monkeypatch):
    cfg_path = write_config(tmp_path)
    a, r = str(tmp_path / "a"), str(tmp_path / "r")
    assert main(["train-adam", "--config", cfg_path, "--out", a]) == 0
    assert main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", r]) == 0
    width = read_json(os.path.join(a, "replicate_00", "snapshots.json"))["param_count"]
    n = read_json(os.path.join(r, "replicate_00", "ensemble.json"))["n_members"]
    # bundles of many chunks: walks read 4 members a chunk at the --at
    # point (one per chunk on the curve)
    monkeypatch.setattr(net, "CHUNK_VALUES", 4 * width)
    assert net.chunk_size(net.Topology((1, 6, 1), ("tanh", "linear")), 1) == 4
    assert n > 3 * 4
    members = os.path.join(r, "replicate_01", "ensemble_members.bin")
    last = os.path.join(r, "replicate_00", "ensemble_members.bin")
    final = os.path.join(a, "replicate_01", "snapshot_final.bin")
    cases = [
        (["evaluate", "--from-run", r, "--at", "0.25"], members, 2 * 4 + 1),
        (["spectrum", "--from-run", r], last, n - 1),
        (["retrofit", "--config", cfg_path, "--from-run", a], final, 0),
    ]
    for argv, path, row in cases:  # each damage stays: the next case reads past it
        poison_row(path, row, width)
        out = tmp_path / "o"
        capfd.readouterr()
        assert main(argv + ["--out", str(out)]) == 1, argv[0]
        lines = capfd.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "ValueError",
            "message": f"{path}: row {row} holds a non-finite value",
        }
        assert not out.exists()  # refused before --out is made, so no CSV of nan


def test_reader_checks_a_block_at_a_time_and_names_the_first_bad_row(tmp_path, monkeypatch):
    monkeypatch.setattr(net, "CHUNK_VALUES", 3 * 5)  # check() reads three 5-wide rows a block
    path = str(tmp_path / "rows.bin")
    rows = np.arange(8 * 5, dtype=np.float64).reshape(8, 5)
    rows.astype("<f8").tofile(path)  # written without the program's writer
    matrix = runner._RowFile(path, 8, 5)
    assert np.array_equal(matrix[:], rows)
    assert np.array_equal(matrix[7], rows[7]) and np.array_equal(matrix[-1], rows[7])
    matrix.check()
    # chunk boundaries (rows 2|3 and 5|6) and the last row, 7
    for bad in ([4], [7], [4, 6], [6, 2], [2], [3], [5], [6], [5, 3], [7, 6]):
        damaged = rows.copy()
        for row, value in zip(bad, (np.inf, -np.inf, np.nan)):
            damaged[row, row % 5] = value
        damaged.astype("<f8").tofile(path)
        matrix = runner._RowFile(path, 8, 5)
        named = f"{re.escape(path)}: row {min(bad)} holds a non-finite value"
        # a walk's slices, a chunk of three rows at a time
        with pytest.raises(ValueError, match=named):
            for lo in range(0, len(matrix), net.CHUNK_VALUES // 5):
                matrix[lo : lo + net.CHUNK_VALUES // 5]
        # the check of a bundle with nothing to walk, which keeps no row
        with pytest.raises(ValueError, match=named):
            matrix.check()
        # the rows before the first bad one read clean; one row alone is checked alone
        assert np.array_equal(matrix[: min(bad)], rows[: min(bad)])
        with pytest.raises(ValueError, match=f"row {bad[0]} holds"):
            matrix[bad[0]]
        assert np.array_equal(matrix[0], rows[0])
    # a file of another size is refused before any row is read
    for rows_wanted in (7, 9):
        with pytest.raises(ValueError, match=f"holds 320 bytes, but {rows_wanted} parameter"):
            runner._RowFile(path, rows_wanted, 5)
    # and a file cut short after its size was checked, by the read that meets the end
    matrix = runner._RowFile(path, 8, 5)
    os.truncate(path, 6 * 5 * 8)
    assert np.array_equal(matrix[:6], damaged[:6])
    with pytest.raises(ValueError, match=f"{re.escape(path)} ended after 40 of 80 bytes"):
        matrix[5:7]


def test_each_member_row_is_read_once_per_walked_set(tmp_path, monkeypatch, use_cores):
    use_cores(1)  # every read in this process, where it is counted
    cfg_path = write_config(tmp_path)
    a, r = str(tmp_path / "a"), str(tmp_path / "r")
    assert main(["train-adam", "--config", cfg_path, "--out", a]) == 0
    width = read_json(os.path.join(a, "replicate_00", "snapshots.json"))["param_count"]
    reads = {}
    real_read = runner._RowFile._read

    def read(self, first, count):
        name = os.path.relpath(self.path, tmp_path)
        for row in range(first, first + count):
            reads[name, row] = reads.get((name, row), 0) + 1
        return real_read(self, first, count)

    monkeypatch.setattr(runner._RowFile, "_read", read)

    def rows(run, name):
        """(file, row) of every row of file ``name`` in each replicate of ``run``."""
        files = [os.path.join(run, f"replicate_{k:02d}", name) for k in range(2)]
        return {(f, row) for f in files for row in range(os.path.getsize(tmp_path / f) // (8 * width))}

    # the scoring pass walks each member once; each snapshot is read once
    assert main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", r]) == 0
    snapshots = rows("a", "snapshot_final.bin") | rows("a", "snapshot_penultimate.bin")
    members = rows("r", runner.MEMBERS_FILE)
    assert reads == dict.fromkeys(snapshots | members, 1)
    # a 1-feature regression walks the curve and the --at point: twice each
    reads.clear()
    assert main(["evaluate", "--from-run", r, "--out", str(tmp_path / "e"), "--at", "0.25"]) == 0
    assert reads == dict.fromkeys(members, 2)


def test_evaluate_with_nothing_to_walk_reads_and_checks_every_row(tmp_path, capfd, monkeypatch):
    raw = tiny_config_dict(
        data={"kind": "csv", "path": "builtin:auto_mpg_m", "n_train": 300},
        model={"hidden": [4], "activations": ["tanh", "linear"], "loss": "mse",
               "init": "glorot_normal"},
        simmer={"dt": 0.002, "iterations": 60,
                "schedule": {"t_initial": 0.05, "t_target": 0.05}},
        sampling={"burn_in": 20, "stride": 1, "fraction": 1.0},
    )
    cfg_path = tmp_path / "mpg.json"
    cfg_path.write_text(json.dumps(raw))
    run = str(tmp_path / "run")
    assert main(["simmer", "--config", str(cfg_path), "--out", run]) == 0
    sidecar = read_json(os.path.join(run, "replicate_01", "ensemble.json"))
    width = sidecar["param_count"]
    assert sidecar["n_members"] == 40
    monkeypatch.setattr(net, "CHUNK_VALUES", 8 * width)  # check() reads 8 rows a block
    path = os.path.join(run, "replicate_01", runner.MEMBERS_FILE)
    poison_row(path, 29, width)
    out = tmp_path / "o"
    capfd.readouterr()
    assert main(["evaluate", "--from-run", run, "--out", str(out)]) == 1
    lines = capfd.readouterr().err.splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "ValueError", "message": f"{path}: row 29 holds a non-finite value"}
    ]
    assert not out.exists()


@pytest.mark.parametrize("form", ["absolute", "relative"])
def test_snapshot_file_entries_must_name_a_file_in_the_replicate(tmp_path, capfd, form):
    cfg_path = write_config(tmp_path)
    a = str(tmp_path / "a")
    assert main(["train-adam", "--config", cfg_path, "--out", a]) == 0
    sidecar = os.path.join(a, "replicate_00", "snapshots.json")
    obj = read_json(sidecar)
    key = "final" if form == "absolute" else "penultimate"
    other = os.path.join(a, "replicate_01", f"snapshot_{key}.bin")
    entry = other if form == "absolute" else os.path.relpath(other, os.path.dirname(sidecar))
    obj["files"][key] = entry
    with open(sidecar, "w") as fh:
        json.dump(obj, fh)
    out = tmp_path / "r"
    capfd.readouterr()
    assert main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", str(out)]) == 1
    lines = capfd.readouterr().err.splitlines()
    assert [json.loads(line) for line in lines] == [{
        "error": "ValueError",
        "message": f"{sidecar}: 'files' entry {key!r} is not a file name, got {entry!r}",
    }]
    assert not out.exists()


def test_readme_run_directory_tree_names_every_file_a_stage_writes(tmp_path):
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Run directories", 1)[1].split("```\n", 2)[1]
    documented, parent = set(), ""
    for line in block.splitlines():
        indent = len(line) - len(line.lstrip())
        if indent > 10:  # the description of the entry above, continued
            continue
        name = line.split()[0]
        parent = parent if indent else ""
        if name.endswith("/"):
            parent = name
        else:
            documented.add(parent + name)
    cfg_path = write_config(tmp_path)
    simmer = tmp_path / "simmer.json"
    simmer.write_text(json.dumps(classification_config_dict()))  # it has an adam section
    a = str(tmp_path / "a")
    for argv in (
        ["train-adam", "--config", cfg_path, "--out", a],
        ["retrofit", "--config", cfg_path, "--from-run", a, "--out", str(tmp_path / "r")],
        ["simmer", "--config", str(simmer), "--out", str(tmp_path / "s")],
    ):
        assert main(argv) == 0
    written = {
        re.sub(r"^replicate_\d\d/", "replicate_NN/", name.split(os.sep, 1)[1].replace(os.sep, "/"))
        for name in tree_bytes(tmp_path)
        if os.sep in name
    }
    assert "baseline_adam/losses.csv" in written
    assert documented == written


def test_json_writer_names_the_nested_key_and_writes_nothing(tmp_path):
    path = str(tmp_path / "x.json")
    with pytest.raises(net.NonFiniteError, match=re.escape(f"{path}: non-finite value at 'b.c[1]'")):
        runner._write_json(path, {"a": 1.0, "b": {"c": [2.0, -np.inf]}})
    assert not os.path.exists(path)
    runner._write_json(path, {"a": [1.0, 2]})
    assert read_bytes(path) == b'{\n  "a": [\n    1.0,\n    2\n  ]\n}\n'


def test_importing_the_runner_leaves_out_package_metadata():
    # importlib.metadata pulls in the email package; only a finished stage needs it
    code = "import sys, simmering.cli; print(sorted({'importlib.metadata', 'email'} & set(sys.modules)))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_csv_writer_matches_a_row_by_row_format(tmp_path):
    n = 2 * runner.CSV_BLOCK_ROWS + 5  # rows past two block boundaries
    rng = np.random.default_rng(0)
    ints = np.arange(n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    path = tmp_path / "t.csv"
    runner._write_csv(str(path), ("i", "x"), (ints, floats))
    want = "i,x\n" + "".join(f"{int(i)},{float(x)!r}\n" for i, x in zip(ints, floats))
    assert path.read_text() == want


def test_seed_override_changes_results(tmp_path):
    cfg_path = write_config(tmp_path)
    a1, a2 = str(tmp_path / "s3"), str(tmp_path / "s4")
    main(["train-adam", "--config", cfg_path, "--out", a1])
    main(["train-adam", "--config", cfg_path, "--out", a2, "--seed", "4"])
    assert read_bytes(os.path.join(a1, "replicate_00/snapshot_final.bin")) != read_bytes(
        os.path.join(a2, "replicate_00/snapshot_final.bin")
    )
    payload = read_json(os.path.join(a2, "resolved_config.json"))
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
    m = read_json(os.path.join(out, "metrics.json"))
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
    summary = read_json(os.path.join(eval_out, "evaluation.json"))
    assert summary["n_replicates"] == 2
    assert summary["n_members"] == 2 * 50
    assert m["ensemble_test_metric"] == summary["ensemble_test_metric"]

    # one row per member, replicate by replicate, each in storage order
    cfg = from_dict(read_json(os.path.join(out, "resolved_config.json"))["config"])
    prep = runner.prepare_data(cfg)
    topology = runner.build_topology(cfg, prep.dataset)
    expected = []
    for p_idx, text in enumerate(points):
        scaled = data.scale_features(prep.scaler, np.array([[float(c) for c in text.split(",")]]))
        member_index = 0
        for r in range(2):
            rep_dir = os.path.join(out, f"replicate_{r:02d}")
            bundle = runner.read_bundle(rep_dir, topology)
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
    summary = read_json(os.path.join(ev, "evaluation.json"))
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
    snapshots = read_json(os.path.join(a, "replicate_00", "snapshots.json"))
    assert "weight matrix (n_outputs x n_inputs) flattened row-major" in snapshots["layout"]
    rep = os.path.join(r, "replicate_00")
    sidecar = read_json(os.path.join(rep, "ensemble.json"))
    flat = np.frombuffer(read_bytes(os.path.join(rep, "ensemble_members.bin")), dtype="<f8")
    members = flat.reshape(sidecar["n_members"], sidecar["param_count"])
    sizes, acts = sidecar["layer_sizes"], sidecar["activations"]
    assert acts == ["tanh", "linear"]

    cfg = from_dict(read_json(os.path.join(r, "resolved_config.json"))["config"])
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


def sampled_run(tmp_path, task, replicates):
    """A finished sampling run of ``task`` with ``replicates`` replicates:
    a retrofit of the tiny sine config, or a simmer of the tiny iris one."""
    run = str(tmp_path / f"{task}_{replicates}")
    if task == "regression":
        cfg_path = write_config(tmp_path, f"sine_{replicates}.json", replicates=replicates)
        adam = run + "_adam"
        assert main(["train-adam", "--config", cfg_path, "--out", adam]) == 0
        assert main(["retrofit", "--config", cfg_path, "--from-run", adam, "--out", run]) == 0
    else:
        cfg_path = tmp_path / f"iris_{replicates}.json"
        cfg_path.write_text(json.dumps(dict(classification_config_dict(), replicates=replicates)))
        assert main(["simmer", "--config", str(cfg_path), "--out", run]) == 0
    return run


def run_pool(run):
    """(prep, topology, bundle matrices) of a finished run, read afresh."""
    cfg, _ = runner.load_run_config(run)
    prep = runner.prepare_data(cfg)
    topology = runner.build_topology(cfg, prep.dataset)
    reps = [os.path.join(run, f"replicate_{r:02d}") for r in range(cfg.replicates)]
    return prep, topology, [runner.read_bundle(rep, topology).members for rep in reps]


def float_bits(value):
    return np.float64(value).view(np.int64)


@pytest.mark.parametrize("replicates", [1, 3])
@pytest.mark.parametrize("task", ["regression", "classification"])
def test_evaluation_metric_matches_a_fresh_pooled_walk(tmp_path, task, replicates):
    run, ev = sampled_run(tmp_path, task, replicates), str(tmp_path / "ev")
    assert main(["evaluate", "--from-run", run, "--out", ev]) == 0
    evaluation = read_json(os.path.join(ev, "evaluation.json"))
    prep, topology, matrices = run_pool(run)
    pooled = runner._pooled(topology, prep, matrices, [prep.raw_test_inputs])
    fresh = runner._pooled_metric(prep, pooled)
    assert evaluation["n_replicates"] == replicates
    assert evaluation["n_members"] == pooled.n_members == sum(map(len, matrices))
    assert float_bits(evaluation["ensemble_test_metric"]) == float_bits(fresh)


# forks of sampled_run at 3 usable cores: a worker per job of a stage with
# more than one job (simmer's Adam baseline is a job) and per bundle of the
# iris vote pass; a one-job stage runs inline and forks a loss-recording
# helper only for a run longer than a block, which these tiny runs are not
# (the sine net's block is 840 steps, and the iris runs are in workers)
SAMPLED_RUN_FORKS = {
    ("regression", 1): 0,
    ("regression", 3): 3 + 3,  # train-adam, retrofit; the sine walk is serial
    ("classification", 1): 2,  # simmer's replicate and baseline; one bundle
    ("classification", 3): 3 + 3,  # simmer's four jobs on three cores, the votes
}


@pytest.mark.parametrize("replicates", [1, 3])
@pytest.mark.parametrize("task", ["regression", "classification"])
def test_stage_metrics_equal_one_pass_per_replicate_and_one_pooled(
    tmp_path, use_cores, forks, task, replicates
):
    for cores in (1, 3):
        use_cores(cores)
        del forks[:]
        (tmp_path / f"cores_{cores}").mkdir()
        run = sampled_run(tmp_path / f"cores_{cores}", task, replicates)
        assert len(forks) == (SAMPLED_RUN_FORKS[task, replicates] if cores > 1 else 0)
        prep, topology, matrices = run_pool(run)
        # the scoring of separate passes: each replicate alone, then the pool
        alone = [
            runner._pooled_metric(prep, runner._pooled(topology, prep, [m], [prep.raw_test_inputs]))
            for m in matrices
        ]
        pooled = runner._pooled(topology, prep, matrices, [prep.raw_test_inputs])
        for r, metric in enumerate(alone):
            path = os.path.join(run, f"replicate_{r:02d}", "metrics.json")
            recorded = read_json(path)["ensemble_test_metric"]
            assert float_bits(recorded) == float_bits(metric), (cores, r)
        recorded = read_json(os.path.join(run, "metrics.json"))["ensemble_test_metric"]
        assert float_bits(recorded) == float_bits(runner._pooled_metric(prep, pooled))


@pytest.mark.parametrize("replicates", [1, 3])
@pytest.mark.parametrize("task", ["regression", "classification"])
def test_a_chain_walks_each_member_over_the_test_rows_once(
    tmp_path, monkeypatch, use_cores, task, replicates
):
    use_cores(1)  # every forward in this process, where it is counted
    walked = []
    real_forward = net.forward

    def forward(topology, params, inputs, hidden_out=()):
        if inputs.shape == test_inputs.shape and np.array_equal(inputs, test_inputs):
            walked.append(params.shape[0] if params.ndim == 2 else 1)
        return real_forward(topology, params, inputs, hidden_out)

    if task == "regression":
        cfg_path = write_config(tmp_path, replicates=replicates)
        adam, run = str(tmp_path / "adam"), str(tmp_path / "run")
        assert main(["train-adam", "--config", cfg_path, "--out", adam]) == 0
        sample = ["retrofit", "--config", cfg_path, "--from-run", adam, "--out", run]
        extra, endpoints = ["--at", "0.25"], replicates  # each retrofit scores its start
    else:
        cfg_path = tmp_path / "iris.json"
        cfg_path.write_text(json.dumps(dict(classification_config_dict(), replicates=replicates)))
        run = str(tmp_path / "run")
        sample = ["simmer", "--config", str(cfg_path), "--out", run]
        extra, endpoints = ["--grid-resolution", "5", "--at", "3.0,1.0"], 1  # the baseline
    cfg = from_dict(tiny_config_dict() if task == "regression" else classification_config_dict())
    test_inputs = runner.prepare_data(cfg).test_inputs
    monkeypatch.setattr(net, "forward", forward)
    assert main(sample) == 0
    assert main(["evaluate", "--from-run", run, "--out", str(tmp_path / "ev")] + extra) == 0
    n_members = read_json(tmp_path / "ev" / "evaluation.json")["n_members"]
    assert sum(walked) == n_members + endpoints


def test_top_level_metrics_follow_one_rule(tmp_path):
    def metrics(run_dir, *parts):
        return read_json(os.path.join(run_dir, *parts, "metrics.json"))

    def evaluated(run_dir):
        out = str(tmp_path / (os.path.basename(run_dir) + "_eval"))
        assert main(["evaluate", "--from-run", run_dir, "--out", out]) == 0
        return read_json(os.path.join(out, "evaluation.json"))["ensemble_test_metric"]

    cfg_path = write_config(tmp_path, replicates=3)
    a, r = str(tmp_path / "a"), str(tmp_path / "r")
    assert main(["train-adam", "--config", cfg_path, "--out", a]) == 0
    assert main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", r]) == 0
    for run in (a, r):
        reps = [metrics(run, f"replicate_{k:02d}") for k in range(3)]
        top = metrics(run)
        for key in ("adam_train_metric", "adam_test_metric"):
            assert top[key] == sum(rep[key] for rep in reps) / 3, (run, key)
    assert metrics(a)["ensemble_test_metric"] is None and metrics(a)["improved"] is None
    top = metrics(r)
    assert top["ensemble_test_metric"] == evaluated(r)
    assert top["improved"] == (top["ensemble_test_metric"] < top["adam_test_metric"])

    iris = tmp_path / "iris.json"
    iris.write_text(json.dumps(classification_config_dict()))
    s = str(tmp_path / "s")
    assert main(["simmer", "--config", str(iris), "--out", s]) == 0
    top, baseline = metrics(s), metrics(s, runner.BASELINE_DIR)
    assert top["adam_train_metric"] == baseline["adam_train_metric"]
    assert top["adam_test_metric"] == baseline["adam_test_metric"]
    assert top["ensemble_test_metric"] == evaluated(s)
    assert top["improved"] == (top["ensemble_test_metric"] >= top["adam_test_metric"])


def test_spectrum_outputs(tmp_path):
    cfg_path = write_config(tmp_path)
    a = str(tmp_path / "a")
    sp = str(tmp_path / "sp")
    main(["train-adam", "--config", cfg_path, "--out", a])
    assert main(["spectrum", "--from-run", a, "--out", sp]) == 0
    payload = read_json(os.path.join(sp, "spectrum.json"))
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
    payload = read_json(os.path.join(sp, "spectrum.json"))
    assert payload["source"] == "ensemble_last_member"
    prep, topology, matrices = run_pool(r)
    cfg, _ = runner.load_run_config(r)
    report = diagnostics.hessian_spectrum(
        topology, matrices[0][-1], prep.train_inputs, prep.train_targets, cfg.model.loss
    )
    assert payload["eigenvalues"] == report.eigenvalues.tolist()
    # only the probed member is read: a NaN in another row leaves the same bytes
    poison_row(os.path.join(r, "replicate_00", "ensemble_members.bin"), 0, topology.param_count)
    assert main(["spectrum", "--from-run", r, "--out", str(tmp_path / "sp2")]) == 0
    assert tree_bytes(sp) == tree_bytes(str(tmp_path / "sp2"))


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


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda r: r["simmer"]["schedule"].update(t_initial=0.5, t_target=0.1),
         "simmer.schedule.t_target"),
        (lambda r: r["sampling"].update(fraction=1e-6), "sampling.fraction"),
    ],
    ids=["decreasing-schedule", "fraction-keeps-none"],
)
def test_retrofit_refuses_a_bad_sampler_config_before_writing(tmp_path, capsys, mutate, path):
    adam = tmp_path / "a"
    assert main(["train-adam", "--config", write_config(tmp_path), "--out", str(adam)]) == 0
    raw = tiny_config_dict()
    mutate(raw)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "r"
    assert main(["retrofit", "--config", str(p), "--from-run", str(adam), "--out", str(out)]) == 1
    payload = error_line(capsys)
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(f"{path}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,message",
    [("--seed", "-1", "seed: must be >= 0, got -1"),
     ("--replicates", "0", "replicates: must be >= 1, got 0")],
)
def test_bad_override_flag_is_a_config_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "o"
    assert main(["train-adam", "--config", write_config(tmp_path), "--out", str(out),
                 flag, value]) == 1
    assert error_line(capsys) == {"error": "ConfigError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("exported,printed", [(None, "1 1 1"), ("3", "3 1 1")])
def test_cli_runs_one_blas_thread_unless_the_user_chose(exported, printed):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    if exported is not None:
        env["OPENBLAS_NUM_THREADS"] = exported
    src = os.path.dirname(os.path.dirname(os.path.abspath(runner.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import os, simmering.cli; "
            f"print(*(os.environ.get(name) for name in {names!r}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == printed


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


def test_retrofit_refuses_a_run_not_made_by_train_adam(tmp_path, capsys):
    raw = tiny_config_dict(replicates=1)
    raw["simmer"]["schedule"] = {"t_initial": 0.05, "t_target": 0.05}
    p = tmp_path / "constant.json"
    p.write_text(json.dumps(raw))
    sim, out = tmp_path / "sim", tmp_path / "o"
    assert main(["simmer", "--config", str(p), "--out", str(sim)]) == 0
    assert main(["retrofit", "--config", str(p), "--from-run", str(sim), "--out", str(out)]) == 1
    payload = error_line(capsys)
    assert payload["error"] == "ValueError"
    assert "'simmer' run, not a 'train-adam' run" in payload["message"]
    assert not out.exists()


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


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(None, id="missing"),
        pytest.param("{not json", id="not-json"),
        pytest.param({"ensemble_test_metric": ...}, id="no-metric"),
        pytest.param({"ensemble_test_metric": "0.5"}, id="string"),
        pytest.param({"ensemble_test_metric": True}, id="bool"),
        pytest.param({"ensemble_test_metric": None}, id="null"),
        pytest.param({"ensemble_test_metric": float("nan")}, id="nan"),
        pytest.param({"ensemble_test_metric": float("inf")}, id="infinity"),
        pytest.param({"ensemble_test_metric": 10**400}, id="past-float"),
        pytest.param({"metric_kind": "accuracy"}, id="wrong-kind"),
        pytest.param({"metric_kind": ...}, id="no-kind"),
    ],
)
def test_evaluate_refuses_a_damaged_run_metrics_file(tmp_path, capfd, damage):
    cfg_path = write_config(tmp_path)
    a, r = str(tmp_path / "a"), str(tmp_path / "r")
    assert main(["train-adam", "--config", cfg_path, "--out", a]) == 0
    assert main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", r]) == 0
    path = os.path.join(r, "metrics.json")
    if damage is None:
        os.remove(path)
    elif isinstance(damage, str):
        with open(path, "w") as fh:
            fh.write(damage)
    else:
        report = read_json(path)
        for key, value in damage.items():
            if value is ...:
                del report[key]
            else:
                report[key] = value
        with open(path, "w") as fh:
            json.dump(report, fh)  # writes NaN and Infinity as the tokens Python reads
    out = tmp_path / "o"
    capfd.readouterr()
    assert main(["evaluate", "--from-run", r, "--out", str(out), "--at", "0.25"]) == 1
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1
    assert path in json.loads(lines[0])["message"]
    assert not out.exists()


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
    for bad in ("nan", "-inf", "1e400"):
        argv = ["evaluate", "--from-run", r, "--out", str(out), "--at", "0.25", f"--at={bad}"]
        assert main(argv) == 1
        assert error_line(capsys) == {
            "error": "ValueError",
            "message": "distribution point 1 has a non-finite coordinate",
        }
        assert not out.exists()


def blown_up_run(tmp_path, command, section="simmer", field="dt", value=2.0):
    """The argv, all but ``--out``, of a ``command`` whose ``section.field``
    is ``value``; a retrofit starts from a finished Adam run of the tiny config."""
    raw = tiny_config_dict()
    raw["simmer"]["schedule"] = {"t_initial": 0.05, "t_target": 0.05}
    raw[section][field] = value
    p = tmp_path / "blows_up.json"
    p.write_text(json.dumps(raw))
    argv = [command, "--config", str(p)]
    if command == "retrofit":
        adam = str(tmp_path / "adam")
        assert main(["train-adam", "--config", write_config(tmp_path), "--out", adam]) == 0
        argv += ["--from-run", adam]
    return argv


def test_nonfinite_error_names_replicate_step_and_quantity(tmp_path, capsys):
    for command in ("simmer", "retrofit"):
        (tmp_path / command).mkdir()
        argv = blown_up_run(tmp_path / command, command)
        with np.errstate(all="ignore"):
            assert main(argv + ["--out", str(tmp_path / command / "o")]) == 1
        payload = error_line(capsys)
        assert payload["error"] == "NonFiniteError"
        assert re.match(
            r"replicate 0: non-finite "
            r"(velocities entering|gradient in|train loss in|test loss in|extended energy in) "
            r"step \d+",
            payload["message"],
        ), command


@pytest.mark.parametrize(
    "command,prefix", [("train-adam", "replicate 0"), ("simmer", "baseline_adam")]
)
def test_adam_nonfinite_error_names_epoch_and_quantity(tmp_path, capsys, command, prefix):
    argv = blown_up_run(tmp_path, command, "adam", "alpha", 1e200)
    with np.errstate(all="ignore"):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    payload = error_line(capsys)
    assert payload["error"] == "NonFiniteError"
    assert re.match(
        prefix + r": non-finite (gradient|train loss|test loss) in epoch \d+", payload["message"]
    )


@pytest.mark.parametrize(
    "command,section,field,value",
    [
        ("train-adam", "adam", "alpha", 1e200),
        ("simmer", "simmer", "dt", 2.0),
        ("retrofit", "simmer", "dt", 2.0),
    ],
)
def test_failed_run_is_not_a_run_directory(tmp_path, capsys, command, section, field, value):
    argv = blown_up_run(tmp_path, command, section, field, value)
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main(argv + ["--out", str(out)]) == 1
    assert error_line(capsys)["error"] == "NonFiniteError"
    assert out.is_dir() and not (out / "resolved_config.json").exists()
    if command == "train-adam":
        after = ["retrofit", "--config", argv[2], "--from-run", str(out)]
    else:
        after = ["evaluate", "--from-run", str(out)]
    assert main(after + ["--out", str(tmp_path / "after")]) == 1
    assert error_line(capsys)["message"].startswith("not a run directory")


@pytest.mark.parametrize("cores", [1, 2])
def test_a_run_failing_mid_trajectory_leaves_only_the_rows_it_captured(
    tmp_path, monkeypatch, capsys, use_cores, forks, cores
):
    # one replicate, no Adam baseline: one job, inline, which at two cores
    # forks the loss helper after the member file is opened (4-step blocks)
    use_cores(cores)
    fail_at = 150
    raw = tiny_config_dict(replicates=1, sampling={"burn_in": 0})
    del raw["adam"]
    raw["simmer"]["schedule"] = {"t_initial": 0.05, "t_target": 0.05}
    p = tmp_path / "one.json"
    p.write_text(json.dumps(raw))
    monkeypatch.setattr(net, "CHUNK_VALUES", 13 * 6 * 4)
    clean = tmp_path / "clean"
    assert main(["simmer", "--config", str(p), "--out", str(clean)]) == 0
    real_loss_fns = runner._loss_fns

    def loss_fns(cfg, topology, prep):
        grad_fn, *rest = real_loss_fns(cfg, topology, prep)
        calls = iter(range(cfg.simmer.iterations))

        def failing(x):  # a NaN in the positions of step fail_at's gradient
            return grad_fn(x if next(calls) < fail_at else x * np.nan)

        return failing, *rest

    monkeypatch.setattr(runner, "_loss_fns", loss_fns)
    del forks[:]
    out = tmp_path / "o"
    assert main(["simmer", "--config", str(p), "--out", str(out)]) == 1
    assert error_line(capsys) == {
        "error": "NonFiniteError",
        "message": f"replicate 0: non-finite gradient in step {fail_at}: "
        "non-finite network outputs",
    }
    assert len(forks) == cores - 1  # the helper, at two cores
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    rep = out / "replicate_00"
    assert not (out / "resolved_config.json").exists() and not (rep / "ensemble.json").exists()
    # the rows captured before the failure, each written once, and closed
    width = json.loads((clean / "replicate_00" / "ensemble.json").read_text())["param_count"]
    captured = read_bytes(rep / "ensemble_members.bin")
    assert len(captured) == fail_at * width * 8
    assert captured == read_bytes(clean / "replicate_00" / "ensemble_members.bin")[: len(captured)]


# peak RSS of a stage above that of a bare `import simmering.cli`.  A stage
# holding a whole bundle peaked 40 MiB above it on these 29 MiB of members;
# streaming them, simmer and evaluate peak 9.2-9.7 MiB above it (2 vCPUs,
# numpy 2.4), most of which is prepare_data
STAGE_MARGIN_MIB = 16.0


# a child's peak RSS starts at its parent's (a fork inherits it, and exec
# keeps it), so each stage starts from a small launcher, not from pytest
LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def peak_rss_mib(argv):
    """(exit code, peak RSS in MiB) of a fresh interpreter running ``argv``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    launched = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    code, kib = launched.stdout.split()
    return int(code), int(kib) / 1024.0


def test_stage_memory_does_not_grow_with_the_ensemble(tmp_path):
    raw = {
        "name": "streamed",
        "seed": 5,
        "replicates": 1,
        "data": {"kind": "noisy_sine", "n_points": 21, "noise_amp": 0.1, "n_train": 13},
        "model": {"hidden": [20, 20], "activations": ["tanh", "tanh", "linear"], "loss": "sse"},
        "simmer": {
            "dt": 0.002,
            "iterations": 8000,
            "schedule": {"t_initial": 0.05, "t_target": 0.05},
        },
        "sampling": {"burn_in": 0},
    }
    p = tmp_path / "streamed.json"
    p.write_text(json.dumps(raw))
    run, ev = str(tmp_path / "run"), str(tmp_path / "ev")
    code, base = peak_rss_mib(["-c", "from simmering import cli"])
    assert code == 0
    for argv in (
        ["simmer", "--config", str(p), "--out", run],
        ["evaluate", "--from-run", run, "--out", ev, "--at", "0.25"],
    ):
        code, peak = peak_rss_mib(["-m", "simmering.cli", *argv])
        assert code == 0, argv[0]
        assert peak - base < STAGE_MARGIN_MIB, (argv[0], peak, base)
    members = os.path.getsize(os.path.join(run, "replicate_00", "ensemble_members.bin"))
    assert members == 8000 * 481 * 8  # the bundle dwarfs the margin


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
    grad_fn, loss_train_fn, loss_test_fn, block = runner._loss_fns(cfg, topology, prep)
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
            state, grad_fn, cfg.simmer.dt, cfg.simmer.schedule, cfg.simmer.iterations,
            loss_train_fn, loss_test_fn, block=block,
        )
        assert traj.snapshots.shape[0] == cfg.simmer.iterations
        steps = cfg.sampling.steps(cfg.simmer.iterations, cfg.seed, r)
        rep = out / f"replicate_{r:02d}"
        members = traj.snapshots[steps]
        assert read_bytes(rep / "ensemble_members.bin") == members.astype("<f8").tobytes()
        sidecar = read_json(rep / "ensemble.json")
        assert sidecar["iterations"] == (steps + 1).tolist()
        assert sidecar["temperatures"] == traj.temperature[steps].tolist()


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


def test_canonical_chain_stops_at_the_first_failing_stage(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(here, "scripts", "run_canonical.py")
    out = tmp_path / "runs"
    done = subprocess.run(
        [sys.executable, script, "iris_ab_initio", "--out", str(out), "--replicates", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert "replicates: must be >= 1" in done.stderr
    assert not (out / "iris_ab_initio" / "eval").exists()  # evaluate never ran


def test_canonical_chain_times_each_stage_outside_the_run_directories(tmp_path, monkeypatch):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "run_canonical", os.path.join(here, "scripts", "run_canonical.py")
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    configs = tmp_path / "configs"
    configs.mkdir()
    cfg_path = write_config(configs, "sine_retrofit.json")
    monkeypatch.setattr(script, "CONFIGS", configs)
    runs = tmp_path / "runs"
    assert script.main(["sine_retrofit", "--out", str(runs)]) == 0

    direct = tmp_path / "direct"
    a, r = str(direct / "adam"), str(direct / "run")
    assert main(["train-adam", "--config", cfg_path, "--out", a]) == 0
    assert main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", r]) == 0
    assert main(["evaluate", "--from-run", r, "--out", str(direct / "eval")]) == 0
    assert tree_bytes(runs / "sine_retrofit") == tree_bytes(direct)  # no file added or changed

    bench = read_json(tmp_path / "BENCH_canonical.json")
    assert set(bench["environment"]) == {"numpy", "blas", "threads", "usable_cores"}
    assert bench["environment"]["numpy"] == np.__version__
    assert set(bench["environment"]["threads"]) == {
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
    }
    stages = bench["stages"]
    assert [(e["stage"], e["command"]) for e in stages] == [
        ("adam", "train-adam"), ("run", "retrofit"), ("eval", "evaluate")
    ]
    for entry, name in zip(stages, ("metrics.json", "metrics.json", "evaluation.json")):
        assert entry["exit_code"] == 0 and entry["wall_s"] > 0 and entry["peak_rss_mb"] > 0
        assert entry["metrics"] == read_json(runs / "sine_retrofit" / entry["stage"] / name)


@pytest.mark.parametrize("change", ["truncated", "overlong"])
def test_evaluate_refuses_a_member_file_of_the_wrong_size(tmp_path, capsys, change):
    cfg_path = write_config(tmp_path)
    a, r = str(tmp_path / "a"), str(tmp_path / "r")
    main(["train-adam", "--config", cfg_path, "--out", a])
    assert main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", r]) == 0
    members = os.path.join(r, "replicate_01", "ensemble_members.bin")
    size = os.path.getsize(members)
    with open(members, "r+b") as fh:
        if change == "truncated":
            fh.truncate(size - 8)
        else:
            fh.seek(0, os.SEEK_END)
            fh.write(b"\0" * 8)
    out = tmp_path / "o"
    assert main(["evaluate", "--from-run", r, "--out", str(out)]) == 1
    payload = error_line(capsys)
    assert payload["error"] == "ValueError"
    bad = size - 8 if change == "truncated" else size + 8
    assert payload["message"].startswith(f"{members} holds {bad} bytes")
    assert payload["message"].endswith(f"need {size}")
    assert not out.exists()


@pytest.mark.parametrize(
    "command,name,damage",
    [
        ("spectrum", "resolved_config.json", "{}"),
        ("spectrum", "resolved_config.json", "{not json"),
        ("spectrum", "snapshots.json", '{"files": {}}'),
        ("retrofit", "snapshot_final.bin", 3),
        ("retrofit", "snapshot_final.bin", 8),
        # a dict: these entries replace the file's own, each of the wrong JSON type
        pytest.param("evaluate", "ensemble.json", {"n_members": "50"}, id="string-count"),
        pytest.param("evaluate", "ensemble.json", {"n_members": True}, id="bool-count"),
        pytest.param("evaluate", "ensemble.json", {"layer_sizes": 7}, id="number-sizes"),
        pytest.param(
            "spectrum", "snapshots.json", {"files": ["snapshot_final.bin"]}, id="array-files"
        ),
        pytest.param("spectrum", "snapshots.json", {"files": 7}, id="number-files"),
        pytest.param("spectrum", "snapshots.json", {"files": {"final": 7}}, id="number-file-name"),
        pytest.param("spectrum", "resolved_config.json", {"config": []}, id="array-config"),
        # the right JSON type but a wrong value; a function maps the file's own entry to it
        pytest.param("evaluate", "ensemble.json", {"n_members": 0}, id="no-members"),
        pytest.param("evaluate", "ensemble.json", {"n_members": 10**12}, id="huge-count"),
        pytest.param("evaluate", "ensemble.json", {"iterations": [1]}, id="short-iterations"),
        pytest.param(
            "evaluate", "ensemble.json", {"temperatures": lambda t: t + [0.05]},
            id="long-temperatures",
        ),
        pytest.param(
            "evaluate", "ensemble.json", {"iterations": lambda i: [None] * len(i)},
            id="null-iterations",
        ),
        pytest.param(
            "evaluate", "ensemble.json", {"temperatures": lambda t: [None] * len(t)},
            id="null-temperatures",
        ),
        pytest.param(
            "evaluate", "ensemble.json", {"temperatures": lambda t: t[:-1] + [float("nan")]},
            id="nan-temperature",
        ),
        pytest.param(
            "evaluate", "ensemble.json", {"temperatures": lambda t: [-0.5] + t[1:]},
            id="negative-temperature",
        ),
    ],
)
def test_malformed_run_file_is_one_error_line_naming_it(tmp_path, capfd, command, name, damage):
    cfg_path = write_config(tmp_path)
    a = str(tmp_path / "a")
    assert main(["train-adam", "--config", cfg_path, "--out", a]) == 0
    run = a
    if name == "ensemble.json":
        run = str(tmp_path / "r")
        assert main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", run]) == 0
    path = os.path.join(run, name if name == "resolved_config.json" else f"replicate_00/{name}")
    if isinstance(damage, dict):
        with open(path) as fh:
            obj = json.load(fh)
        for key, value in damage.items():
            obj[key] = value(obj[key]) if callable(value) else value
        with open(path, "w") as fh:
            json.dump(obj, fh)
    elif isinstance(damage, str):
        with open(path, "w") as fh:
            fh.write(damage)
    else:  # cut the last bytes off
        os.truncate(path, os.path.getsize(path) - damage)
    flags = ["--config", cfg_path] if command == "retrofit" else []
    capfd.readouterr()
    assert main([command, *flags, "--from-run", run, "--out", str(tmp_path / "o")]) == 1
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ValueError"
    assert path in payload["message"]
    for key in damage if isinstance(damage, dict) else ():
        assert repr(key) in payload["message"]


# ------------------------------------------------------------ worker processes


# forks of the chain below at 3 usable cores.  Three replicates: three
# workers for train-adam, retrofit, the simmer (its four jobs) and each of
# the iris vote passes (simmer's scoring, evaluate), none for the serial
# sine walk.  One replicate, one job per stage: one loss-recording helper
# each for train-adam, retrofit and simmer, whose runs are longer than a
# block (840 steps for the tiny sine net, 73 for the iris one)
CHAIN_FORKS = {3: 15, 1: 3}


@pytest.mark.parametrize("replicates", [3, 1])
def test_run_directories_do_not_depend_on_the_core_count(tmp_path, use_cores, forks, replicates):
    longer, raw = {}, classification_config_dict()
    if replicates == 1:  # one-job stages, each loop longer than a block
        longer = {
            "adam": {"alpha": 0.01, "epochs": 900},
            "simmer": dict(tiny_config_dict()["simmer"], iterations=900),
        }
        del raw["adam"]  # no baseline job beside the simmer's one replicate
    sine = write_config(tmp_path, replicates=replicates, **longer)
    raw["replicates"] = replicates
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
        assert os.path.isdir(os.path.join(s, runner.BASELINE_DIR)) == (replicates > 1)
        assert len(forks) == (CHAIN_FORKS[replicates] if cores > 1 else 0)
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        trees[cores] = tree_bytes(root)
    assert sorted(trees[1]) == sorted(trees[3])
    for name in trees[1]:
        assert trees[1][name] == trees[3][name], name


def test_first_failing_replicate_is_reported_for_any_core_count(
    tmp_path, monkeypatch, capsys, use_cores, forks
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
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
    assert messages[1] == messages[2]
    assert re.match(r"replicate 1: non-finite gradient in step 0", messages[1])


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_evaluate_reads_each_bundle_once(tmp_path, monkeypatch, use_cores, forks, task):
    if task == "classification":
        raw = classification_config_dict()
        cfg_path = tmp_path / "iris.json"
        cfg_path.write_text(json.dumps(dict(raw, replicates=3)))
        run = str(tmp_path / "run")
        assert main(["simmer", "--config", str(cfg_path), "--out", run]) == 0
        extra = ["--grid-resolution", "5", "--at", "3.0,1.0", "--at", "2.5,0.5"]
    else:
        cfg_path = write_config(tmp_path, replicates=3)
        a, run = str(tmp_path / "a"), str(tmp_path / "run")
        main(["train-adam", "--config", cfg_path, "--out", a])
        assert main(["retrofit", "--config", cfg_path, "--from-run", a, "--out", run]) == 0
        extra = ["--at", "0.25", "--at", "-0.5"]
    log = tmp_path / "reads.log"
    real_read_bundle = runner.read_bundle

    def read_bundle(rep_dir, topology):
        # an appended line per read, so reads in forked workers count too
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, (os.path.basename(rep_dir) + "\n").encode())
        os.close(fd)
        return real_read_bundle(rep_dir, topology)

    monkeypatch.setattr(runner, "read_bundle", read_bundle)
    trees = []
    for cores in (1, 3):
        use_cores(cores)
        del forks[:]
        log.write_text("")
        out = tmp_path / f"eval_{cores}"
        assert main(["evaluate", "--from-run", run, "--out", str(out)] + extra) == 0
        reads = sorted(log.read_text().split())
        assert reads == ["replicate_00", "replicate_01", "replicate_02"]
        # regression means stay one serial walk; vote tallies fan out
        assert bool(forks) == (cores > 1 and task == "classification")
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]
