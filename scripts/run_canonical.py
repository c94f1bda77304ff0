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
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from simmering import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

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


def run_experiment(name: str, out_root: Path, seed, replicates) -> int:
    """Run one experiment's stages in order; the first non-zero exit code, else 0."""
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
        code = cli.main(argv)
        if code:
            print(f"[{name}/{stage}] failed with exit code {code}", file=sys.stderr, flush=True)
            return code
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="+",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which canonical experiments to run")
    parser.add_argument("--out", default="runs", help="run root directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seeds")
    parser.add_argument("--replicates", type=int, default=None,
                        help="override config replicate counts")
    args = parser.parse_args()
    names = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    for name in dict.fromkeys(names):
        code = run_experiment(name, Path(args.out), args.seed, args.replicates)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
