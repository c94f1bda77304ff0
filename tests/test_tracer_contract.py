"""The benchmark tracer still finds what it times in the program.

``perfbench/tracer.py`` wraps functions by name and reads fields off their
arguments and results (a bundle's ``members``, a trajectory's
``snapshots``, ``n_members``).  A renamed function or a changed signature
only warns there, and the layer metrics that needed it read 0, so this
runs the tracer on a tiny sine chain and checks that those metrics count.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sine_chain_reports_every_bundle_layer(tmp_path):
    iterations = 250
    config = {
        "name": "traced",
        "seed": 3,
        "replicates": 1,  # one replicate runs inline, where the tracer sees it
        "data": {"kind": "noisy_sine", "n_points": 21, "noise_amp": 0.1, "n_train": 13},
        "model": {"hidden": [6], "activations": ["tanh", "linear"], "loss": "sse"},
        "adam": {"alpha": 0.01, "epochs": 40},
        "simmer": {
            "dt": 0.002,
            "iterations": iterations,
            "schedule": {"t_initial": 0.0, "t_target": 0.05, "t_step": 0.01, "hold_iterations": 30},
        },
        "sampling": {"burn_in": 150},
    }
    cfg = tmp_path / "traced.json"
    cfg.write_text(json.dumps(config))
    adam, run, ev = (str(tmp_path / name) for name in ("adam", "run", "eval"))
    stages = {
        "train-adam": ["--config", str(cfg), "--out", adam],
        "retrofit": ["--config", str(cfg), "--from-run", adam, "--out", run],
        "evaluate": ["--from-run", run, "--out", ev, "--at", "0.25"],
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans = {}
    for command, args in stages.items():
        spans[command] = str(tmp_path / f"spans_{command}")
        done = subprocess.run(
            [sys.executable, str(TRACER), spans[command], command, *args],
            env=env, cwd=ROOT, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr

    metrics = load_tracer().layer_metrics(spans)
    assert metrics["dynamics.steps"] == iterations
    assert metrics["ensemble.kept_ratio"] == 1.0
    for name in (
        "ensemble.collect_ms",
        "runner.write_bundle_mb_per_s",
        "runner.read_bundle_mb_per_s",
        "net.forward.calls",
        "optimize.epochs",
    ):
        assert metrics[name] > 0, name
