"""Drive the canonical experiments in configs/ end to end through the CLI.

Each experiment is a chain of subcommand invocations (train the baseline,
simmer, evaluate, and for the small single-input model a curvature
spectrum), with every stage writing into its own subdirectory of the run
root:

    python3 scripts/run_canonical.py sine_retrofit
    python3 scripts/run_canonical.py all --out runs --seed 3 --replicates 2

Stage directories must not already exist; rerunning an experiment needs a
fresh --out (runs are immutable on purpose).  The chain stops at the first
stage that fails, and the script exits with that stage's exit code.

Each stage runs ``cli.main`` in a forked child, timed from the fork to the
child's reaping; its peak RSS is the ``ru_maxrss`` that ``os.wait4``
reports, which covers the workers the stage forked and reaped too.  The
timings go to ``BENCH_canonical.json`` beside the run root (``runs`` ->
``BENCH_canonical.json`` in its parent directory), outside every run
directory: one entry per stage that ran, with its exit code, wall time,
peak RSS and top-level metrics, plus the numpy version, the BLAS build,
the BLAS thread variables and the usable core count.
"""

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from simmering import cli, parallel

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
BENCH_FILE = "BENCH_canonical.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the file of a stage directory that holds its top-level metrics
METRICS_FILES = ("metrics.json", "evaluation.json")

# stage templates; {cfg}/{exp} are filled per experiment, {adam}/{run} are
# sibling stage directories under the experiment's output directory
RETROFIT_CHAIN = (
    ("adam", "train-adam", ["--config", "{cfg}", "--out", "{adam}"]),
    ("run", "retrofit", ["--config", "{cfg}", "--from-run", "{adam}", "--out", "{run}"]),
    ("eval", "evaluate", ["--from-run", "{run}", "--out", "{eval}"]),
)
AB_INITIO_CHAIN = (
    ("run", "simmer", ["--config", "{cfg}", "--out", "{run}"]),
    ("eval", "evaluate", ["--from-run", "{run}", "--out", "{eval}"]),
)

EXPERIMENTS = {
    "sine_retrofit": RETROFIT_CHAIN,
    "iris_retrofit": RETROFIT_CHAIN[:2] + (
        ("eval", "evaluate",
         ["--from-run", "{run}", "--out", "{eval}", "--grid-resolution", "100"]),
    ),
    "iris_ab_initio": AB_INITIO_CHAIN[:1] + (
        ("eval", "evaluate",
         ["--from-run", "{run}", "--out", "{eval}", "--grid-resolution", "100"]),
    ),
    "auto_mpg_s_retrofit": RETROFIT_CHAIN,
    "auto_mpg_m_retrofit": RETROFIT_CHAIN,
    # single-input model is small enough for the dense-Hessian probe
    "auto_mpg_ab_initio": AB_INITIO_CHAIN + (
        ("spectrum", "spectrum", ["--from-run", "{run}", "--out", "{spectrum}"]),
    ),
}

SEEDED_COMMANDS = {"train-adam", "retrofit", "simmer"}


def run_forked(argv) -> tuple[int, float, float]:
    """(exit code, wall s, peak RSS MiB) of ``cli.main(argv)`` in a forked child."""
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss / 1024.0


def stage_metrics(stage_dir: Path):
    """The stage's top-level metrics, or None if it wrote none."""
    for name in METRICS_FILES:
        path = stage_dir / name
        if path.is_file():
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
    return None


def run_experiment(name: str, out_root: Path, seed, replicates, entries: list) -> int:
    """Run one experiment's stages in order, each appending its entry to
    ``entries``; the first non-zero exit code, else 0."""
    exp_dir = out_root / name
    paths = {
        "cfg": str(CONFIGS / f"{name}.json"),
        "adam": str(exp_dir / "adam"),
        "run": str(exp_dir / "run"),
        "eval": str(exp_dir / "eval"),
        "spectrum": str(exp_dir / "spectrum"),
    }
    for stage, command, template in EXPERIMENTS[name]:
        argv = [command] + [part.format(**paths) for part in template]
        if command in SEEDED_COMMANDS:
            if seed is not None:
                argv += ["--seed", str(seed)]
            if replicates is not None:
                argv += ["--replicates", str(replicates)]
        print(f"[{name}/{stage}] simmering {' '.join(argv)}", flush=True)
        code, wall, peak = run_forked(argv)
        entries.append({
            "experiment": name,
            "stage": stage,
            "command": command,
            "exit_code": code,
            "wall_s": wall,
            "peak_rss_mb": peak,
            "metrics": stage_metrics(exp_dir / stage) if code == 0 else None,
        })
        print(f"[{name}/{stage}] {wall:.2f} s, peak RSS {peak:.1f} MiB", flush=True)
        if code:
            print(f"[{name}/{stage}] failed with exit code {code}", file=sys.stderr, flush=True)
            return code
    return 0


def environment() -> dict:
    """The numpy and BLAS build, BLAS thread variables and usable cores the stages ran with."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "usable_cores": parallel.usable_cores(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="+",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which canonical experiments to run")
    parser.add_argument("--out", default="runs", help="run root directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seeds")
    parser.add_argument("--replicates", type=int, default=None,
                        help="override config replicate counts")
    args = parser.parse_args(argv)
    names = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    out_root = Path(args.out)
    entries, code = [], 0
    for name in dict.fromkeys(names):
        code = run_experiment(name, out_root, args.seed, args.replicates, entries)
        if code:
            break
    bench = out_root.resolve().parent / BENCH_FILE
    with open(bench, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), "stages": entries}, fh, indent=2)
        fh.write("\n")
    print(f"timings: {bench}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
