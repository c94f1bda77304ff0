"""Benchmark of the simmering CLI pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload sine-retrofit --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Each workload is one chain of
``simmering`` subcommands, every stage a fresh process started from here,
with BLAS pinned to one thread.  A run first times the set-up every stage
pays (see ``SETUP_CODE``), then repeats whole rounds of the chain until
the next round would end past ``--seconds``.  Round 0's outputs are
checked against the independent reader (``checks.py``); later rounds must
reproduce them byte for byte.  With ``--trace 1`` the stages run under
``tracer.py`` and the run reports per-layer metrics instead.

The last stdout line is one JSON object: correct, attempted and failed
stage invocations, and the metrics (medians over rounds).  The exit code
is 1 when any stage fails or any check disagrees, 2 when the checkout
holds no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
DATASETS = SRC / "simmering" / "datasets"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# children still running this long after a run starts are killed, so the
# run ends within its 180-second limit even if a stage hangs
RUN_LIMIT_S = 170.0
SETUP_CODE = (
    "import sys\n"
    "from simmering import config, runner\n"
    "runner.prepare_data(config.load_config(sys.argv[1]))\n"
)

# the arguments each subcommand takes; {cfg}, {seed} and the stage roles
# are filled per round.  The sampling stage (retrofit or simmer) always has
# the role "run", evaluate "eval".
ARGS = {
    "train-adam": ["--config", "{cfg}", "--out", "{adam}", "--seed", "{seed}"],
    "retrofit": ["--config", "{cfg}", "--from-run", "{adam}", "--out", "{run}", "--seed", "{seed}"],
    "simmer": ["--config", "{cfg}", "--out", "{run}", "--seed", "{seed}"],
    "evaluate": ["--from-run", "{run}", "--out", "{eval}"],
    "spectrum": ["--from-run", "{run}", "--out", "{spectrum}"],
}


@dataclass(frozen=True)
class Workload:
    """One stage chain on a config from configs/, with its labelled cuts."""

    config: str
    cuts: dict
    stages: tuple[tuple[str, str], ...]
    at_points: tuple[tuple[float, ...], ...]
    grid_resolution: int | None = None


WORKLOADS = {
    # 481 parameters, 65 rows: per-call overhead in net and dynamics
    # dominates, and the Adam baseline is a real share of the chain
    "sine-retrofit": Workload(
        config="sine_retrofit.json",
        cuts={"replicates": 1},
        stages=(("adam", "train-adam"), ("run", "retrofit"), ("eval", "evaluate")),
        at_points=((0.25,), (-0.5,)),
    ),
    # 8053 parameters: BLAS-bound steps, 80% of captured snapshots thrown
    # away, and an evaluate stage carried by the decision grid
    "iris-ab-initio": Workload(
        config="iris_ab_initio.json",
        cuts={"replicates": 2, "simmer.iterations": 1250, "sampling.burn_in": 750},
        stages=(("run", "simmer"), ("eval", "evaluate")),
        at_points=((3.0, 1.0), (2.5, 0.5)),
        grid_resolution=60,
    ),
    # 31 parameters: overhead-bound steps, every snapshot kept, 19 000 tiny
    # members to evaluate, and the spectrum stage.  Half the configured
    # 40 000 steps, so that a 30-second run mostly holds two rounds, not one
    "mpg-ab-initio": Workload(
        config="auto_mpg_ab_initio.json",
        cuts={"simmer.iterations": 20000},
        stages=(("run", "simmer"), ("eval", "evaluate"), ("spectrum", "spectrum")),
        at_points=((150.0,),),
    ),
}


def derived_config(workload: Workload, seed: int) -> dict:
    """The workload's config from configs/ with its cuts applied."""
    with open(CONFIGS / workload.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    for key, value in workload.cuts.items():
        *path, leaf = key.split(".")
        node = config
        for part in path:
            node = node[part]
        node[leaf] = value
    config["seed"] = seed
    return config


def stage_env() -> dict:
    """Child environment: this checkout's sources, BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(argv: list[str], env: dict, log: Path, deadline: float,
          stdout: Path | None = None) -> tuple[int, float, float]:
    """Run one child to its end, killed at the deadline: (exit code, wall s, peak RSS MiB).

    stderr goes to ``log``; stdout to the ``stdout`` file if given, else nowhere.
    """
    with open(log, "wb") as err, open(stdout or os.devnull, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        killer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def time_setup(config_path: Path, log: Path, repeats: int, deadline: float) -> list[float]:
    """Wall times of fresh interpreters importing simmering and preparing the data."""
    argv = [sys.executable, "-c", SETUP_CODE, str(config_path)]
    times = []
    for k in range(repeats + 1):
        code, wall, _ = spawn(argv, stage_env(), log, deadline)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}; see {log}")
        if k:  # the first one fills the bytecode cache
            times.append(wall)
    return times


def digests(directory: Path) -> dict[str, str]:
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            with open(path, "rb") as fh:
                out[str(path.relative_to(directory))] = hashlib.file_digest(fh, "sha256").hexdigest()
    return out


def check_outputs(request: dict, request_path: Path, deadline: float) -> dict:
    """Run checks.py on one round in its own process: {failures, environment}."""
    with open(request_path, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    log = request_path.with_suffix(".out")
    code, _, _ = spawn([sys.executable, str(HERE / "checks.py"), str(request_path)],
                       stage_env(), request_path.with_suffix(".err"), deadline, stdout=log)
    if code != 0:
        reason = f"checker exited {code}; see {request_path.with_suffix('.err')}"
        return {"failures": {role: reason for role in request["dirs"]}, "environment": None}
    return json.loads(log.read_text().splitlines()[-1])


@dataclass
class Round:
    seconds: dict      # stage role -> wall seconds
    pipeline_s: float
    peak_rss_mb: float
    failures: dict     # stage role -> reason
    layers: dict | None = None
    environment: dict | None = None


def run_round(workload: Workload, request: dict, cfg_path: Path, seed: int,
              round_dir: Path, trace: bool, reference: dict | None, deadline: float) -> Round:
    """One pass of the stage chain, then its checks (outside the timed part)."""
    dirs = {role: round_dir / role for role, _ in workload.stages}
    fill = {"cfg": str(cfg_path), "seed": str(seed), **{k: str(v) for k, v in dirs.items()}}
    env = stage_env()
    (round_dir / "logs").mkdir(parents=True)
    seconds, rss, failures, spans = {}, [], {}, {}
    start = time.perf_counter()
    for role, command in workload.stages:
        if failures:
            failures[role] = "an earlier stage failed"
            continue
        argv = [command] + [part.format(**fill) for part in ARGS[command]]
        if command == "evaluate":
            if workload.grid_resolution is not None:
                argv += ["--grid-resolution", str(workload.grid_resolution)]
            argv += [f"--at={','.join(repr(c) for c in point)}" for point in workload.at_points]
        if trace:
            spans[command] = str(round_dir / "logs" / f"{role}.spans")
            launcher = [sys.executable, str(HERE / "tracer.py"), str(spans[command])]
        else:
            launcher = [sys.executable, "-m", "simmering.cli"]
        code, wall, peak = spawn(launcher + argv, env, round_dir / "logs" / f"{role}.err", deadline)
        seconds[role] = wall
        rss.append(peak)
        if code != 0:
            failures[role] = f"exit code {code}"
    pipeline_s = time.perf_counter() - start

    environment = None
    if reference is None:
        ran = {role: str(d) for role, d in dirs.items() if role not in failures}
        checked = check_outputs({**request, "dirs": ran}, round_dir / "logs" / "checks.json",
                                deadline)
        failures.update(checked["failures"])
        environment = checked["environment"]
    for role, _ in workload.stages:
        if role in failures or reference is None:
            continue
        if role in reference["failures"]:
            failures[role] = "failed its checks in round 0"
        elif digests(dirs[role]) != reference["digests"][role]:
            failures[role] = "output differs from round 0 with the same seed"
    layers = tracer.layer_metrics(spans) if trace and not failures else None
    return Round(seconds, pipeline_s, max(rss, default=0.0), failures, layers, environment)


def median(values) -> float:
    return float(statistics.median(values))


def run(workload_name: str, seed: int, budget_s: float, trace: bool):
    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[workload_name]
    out = OUT / workload_name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = derived_config(workload, seed)
    cfg_path = out / "config.json"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    request = {
        "config": config,
        "datasets_dir": str(DATASETS),
        "at_points": workload.at_points,
        "grid_resolution": workload.grid_resolution,
    }
    setup = time_setup(cfg_path, out / "setup.err", 0 if trace else SETUP_REPEATS, deadline)

    rounds: list[Round] = []
    reference = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        round_dir = out / f"round_{len(rounds)}"
        rounds.append(
            run_round(workload, request, cfg_path, seed, round_dir, trace, reference, deadline)
        )
        if reference is None:
            reference = {
                "failures": rounds[0].failures,
                "digests": {role: digests(round_dir / role) for role, _ in workload.stages
                            if role not in rounds[0].failures},
            }
        else:
            shutil.rmtree(round_dir)
        now = time.perf_counter()
        if now - start + (now - began) > budget_s:
            break
    return setup, rounds


def summarize(workload_name: str, setup, rounds: list[Round], trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workload = WORKLOADS[workload_name]
    n_stages = len(workload.stages)
    failed = sum(len(r.failures) for r in rounds)
    good = [r for r in rounds if not r.failures] or rounds
    if trace:
        layered = [r.layers for r in good if r.layers is not None]
        values = {n: median([layers[n] for layers in layered]) if layered else 0.0 for n in units}
    else:
        values = {
            "setup_s": median(setup),
            "pipeline_s": median([r.pipeline_s for r in good]),
            "sample_s": median([r.seconds.get("run", 0.0) for r in good]),
            "evaluate_s": median([r.seconds.get("eval", 0.0) for r in good]),
            "peak_rss_mb": median([r.peak_rss_mb for r in good]),
        }
    return {
        "correct": failed == 0,
        "attempted": n_stages * len(rounds),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    missing = [p for p in (SRC / "simmering" / "cli.py", CONFIGS) if not p.exists()]
    if missing:
        print(f"perfbench: no program to benchmark here (missing {missing[0]})", file=sys.stderr)
        return 2

    setup, rounds = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for k, r in enumerate(rounds):
        stages = " ".join(f"{role}={s:.3f}s" for role, s in r.seconds.items())
        print(f"round {k}: pipeline={r.pipeline_s:.3f}s {stages} peak_rss={r.peak_rss_mb:.1f}MiB",
              file=sys.stderr)
        for role, reason in r.failures.items():
            print(f"round {k}: stage {role} FAILED: {reason}", file=sys.stderr)
    if args.trace:
        traced = median([r.pipeline_s for r in rounds])
        print(f"traced pipeline_s median: {traced:.4f}", file=sys.stderr)
    result = summarize(args.workload, setup, rounds, bool(args.trace))
    print("environment: " + json.dumps(rounds[0].environment))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
