"""Run one simmering CLI stage with per-layer spans recorded from outside.

    python3 perfbench/tracer.py SPANS <subcommand> [args...]

The public functions of ``net``, ``dynamics``, ``optimize``, ``ensemble``,
``runner`` and ``diagnostics`` are wrapped at the module attributes their
callers look up, then ``simmering.cli.main`` runs the stage under a root
span.  Each span holds a name, start and end (ns), the enclosing span and
one count (rows, steps, epochs, members or bytes, depending on the span).
Spans stay in memory and are written out when the stage ends, as
SPANS.json (names, counters, span count) and SPANS.bin (five int64
columns); :func:`layer_metrics` reduces the files of one pipeline to self
times.  Nothing here needs numpy, so the reduction can run in the
benchmark's own small process.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

ROOT = "runner.stage"
# spans whose net.forward children are member-by-member prediction loops
MEMBER_LOOPS = (
    "ensemble.regression_mean",
    "ensemble.regression_distribution",
    "ensemble.vote_counts",
    "runner.pooled_add",
)
MIB = float(1 << 20)


def _rows(args, result, counters):
    return len(args[2])


def _trajectory(args, result, counters):
    counters["snapshot_bytes"] = max(
        counters.get("snapshot_bytes", 0), int(result[1].snapshots.nbytes)
    )
    return len(result[1])


def _collect(args, result, counters):
    counters["captured"] = counters.get("captured", 0) + int(args[0].snapshots.shape[0])
    return result.n_members


# (module, attribute path, span name, count(args, result, counters) or None)
WRAPPED = (
    ("net", "loss_and_gradient", "net.gradient", None),
    ("net", "forward", "net.forward", _rows),
    ("net", "loss", "net.loss", None),
    ("runner", "run_trajectory", "dynamics.trajectory", _trajectory),
    ("optimize", "train_adam", "optimize.train_adam", lambda a, r, c: r.epochs),
    ("ensemble", "collect", "ensemble.collect", _collect),
    ("ensemble", "pool", "ensemble.pool", None),
    ("ensemble", "regression_mean", "ensemble.regression_mean", None),
    ("ensemble", "regression_distribution", "ensemble.regression_distribution", None),
    ("ensemble", "vote_counts", "ensemble.vote_counts", None),
    ("ensemble", "decision_grid", "ensemble.decision_grid", None),
    ("runner", "prepare_data", "runner.prepare_data", None),
    ("runner", "write_bundle", "runner.write_bundle", lambda a, r, c: a[1].members.nbytes),
    ("runner", "read_bundle", "runner.read_bundle", lambda a, r, c: r.members.nbytes),
    ("runner", "_PooledMetric.add", "runner.pooled_add", None),
    ("diagnostics", "hessian_spectrum", "diagnostics.spectrum", None),
)


class Recorder:
    """Spans of one process, held in flat arrays until :meth:`save`."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.count = array("q")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, count=None):
        nid = self._name(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.count.append(0)
            self.end.append(0)
            self.start.append(clock())
            self._stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if count is not None:
                self.count[i] = count(args, result, self.counters)
            return result

        return traced

    def save(self, base: str):
        with open(base + ".bin", "wb") as fh:
            for column in (self.name_id, self.start, self.end, self.parent, self.count):
                column.tofile(fh)
        meta = {"names": self.names, "counters": self.counters, "n": len(self.start)}
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def install(recorder: Recorder):
    """Wrap every function in WRAPPED; warn about any the program no longer has."""
    for module_name, attr_path, span, count in WRAPPED:
        owner = importlib.import_module(f"simmering.{module_name}")
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            print(f"tracer: simmering.{module_name}.{attr_path} not found; "
                  f"span {span} stays empty", file=sys.stderr)
            continue
        setattr(owner, attr, recorder.wrap(fn, span, count))


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from simmering import cli

    recorder = Recorder()
    install(recorder)
    try:
        return recorder.wrap(cli.main, ROOT)(cli_args)
    finally:
        recorder.save(spans_path)


# ---------------------------------------------------------------------------
# reduction


def _load(base: str):
    with open(base + ".json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["n"]
    table = array("q")
    with open(base + ".bin", "rb") as fh:
        table.fromfile(fh, 5 * n)
    return meta["names"], [table[k * n : (k + 1) * n] for k in range(5)], meta["counters"]


def layer_metrics(stage_files: dict) -> dict:
    """Per-layer metrics of one pipeline run from {command: spans base path}."""
    dur, self_t, count, calls = {}, {}, {}, {}
    captured = snapshot_bytes = member_points = member_ns = 0
    for command, base in stage_files.items():
        names, (name_id, start, end, parent, cnt), counters = _load(base)
        length = [e - s for s, e in zip(start, end)]
        covered = [0] * len(length)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += length[i]
        # member forwards: under a member loop, or straight under the
        # evaluate stage (its per-member classification loop)
        loops = {names.index(n) for n in MEMBER_LOOPS if n in names}
        if command == "evaluate":
            loops.add(names.index(ROOT))
        forward = names.index("net.forward") if "net.forward" in names else -1
        k_dur, k_self, k_count, k_calls = ([0] * len(names) for _ in range(4))
        for i, k in enumerate(name_id):
            k_dur[k] += length[i]
            k_self[k] += length[i] - covered[i]
            k_count[k] += cnt[i]
            k_calls[k] += 1
            if k == forward and parent[i] >= 0 and name_id[parent[i]] in loops:
                member_points += cnt[i]
                member_ns += length[i]
        for k, name in enumerate(names):
            for table, values in ((dur, k_dur), (self_t, k_self), (count, k_count), (calls, k_calls)):
                table[name] = table.get(name, 0) + values[k]
        captured += counters.get("captured", 0)
        snapshot_bytes = max(snapshot_bytes, counters.get("snapshot_bytes", 0))

    def per(total, n, unit):
        return total / n / unit if n else 0.0

    def g(table, name):
        return table.get(name, 0)

    metrics = {}
    for layer in ("gradient", "forward", "loss"):
        name = f"net.{layer}"
        metrics[f"{name}.calls"] = g(calls, name)
        metrics[f"{name}.us"] = per(g(self_t, name), g(calls, name), 1e3)
    steps = g(count, "dynamics.trajectory")
    metrics["dynamics.steps"] = steps
    metrics["dynamics.step_self_us"] = per(g(self_t, "dynamics.trajectory"), steps, 1e3)
    metrics["dynamics.snapshot_mb"] = snapshot_bytes / MIB
    epochs = g(count, "optimize.train_adam")
    metrics["optimize.epochs"] = epochs
    metrics["optimize.epoch_self_us"] = per(g(self_t, "optimize.train_adam"), epochs, 1e3)
    metrics["ensemble.kept_ratio"] = per(g(count, "ensemble.collect"), captured, 1)
    metrics["ensemble.collect_ms"] = g(dur, "ensemble.collect") / 1e6
    metrics["ensemble.pool_ms"] = g(dur, "ensemble.pool") / 1e6
    metrics["ensemble.member_points"] = member_points
    metrics["ensemble.member_points_per_s"] = per(member_points * 1e9, member_ns, 1)
    metrics["ensemble.grid_s"] = g(dur, "ensemble.decision_grid") / 1e9
    metrics["runner.prepare_data_ms"] = per(
        g(dur, "runner.prepare_data"), g(calls, "runner.prepare_data"), 1e6
    )
    for io in ("write", "read"):
        name = f"runner.{io}_bundle"
        metrics[f"{name}_mb_per_s"] = per(g(count, name) / MIB * 1e9, g(dur, name), 1)
    metrics["runner.self_s"] = g(self_t, ROOT) / 1e9
    metrics["diagnostics.spectrum_s"] = g(dur, "diagnostics.spectrum") / 1e9
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
