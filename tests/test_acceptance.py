"""End-to-end acceptance suite: the binding behavioral claims of this package.

Each test prints one summary line ("[k/8] label: PASS/FAIL (detail)"); run
with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The suite
trades speed for fidelity: the sampling and experiment tests integrate real
trajectories and take a few minutes altogether.
"""
import itertools
import json
import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from simmering import data, diagnostics, ensemble, net, optimize, parallel, runner, seeding
from simmering.config import from_dict
from simmering.dynamics import (
    PhaseState,
    TemperatureSchedule,
    ThermostatChain,
    initial_velocities,
    run_trajectory,
)
from simmering.net import Topology


def _report(index: int, label: str, ok: bool, detail: str):
    print(f"[{index}/8] {label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient exactness


def _fd_gradient(top, params, x, y, kind, h=1e-5):
    g = np.empty_like(params)
    for j in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (net.loss(kind, net.forward(top, up, x), y)
                - net.loss(kind, net.forward(top, dn, x), y)) / (2.0 * h)
    return g


def _random_case(r, kind):
    """Random architecture within the [4,16,16,3] envelope plus a batch."""
    n_hidden = int(r.integers(1, 3))
    hidden = tuple(int(v) for v in r.integers(2, 17, size=n_hidden))
    if kind == "categorical_cross_entropy":
        k_out = int(r.integers(2, 4))
    elif kind == "binary_cross_entropy_from_logits":
        k_out = 1
    else:
        k_out = int(r.integers(1, 4))
    sizes = (int(r.integers(1, 5)),) + hidden + (k_out,)
    acts = tuple(str(r.choice(("tanh", "relu", "elu"))) for _ in hidden) + ("linear",)
    top = Topology(sizes, acts)
    params = r.normal(size=top.param_count)
    n = int(r.integers(2, 7))
    x = r.normal(size=(n, sizes[0]))
    if kind == "categorical_cross_entropy":
        y = np.eye(k_out)[r.integers(0, k_out, size=n)].astype(float)
    elif kind == "binary_cross_entropy_from_logits":
        y = (r.random(size=(n, 1)) > 0.5).astype(float)
    else:
        y = r.normal(size=(n, k_out))
    return top, params, x, y


_ACTIVATIONS = {
    "tanh": np.tanh,
    "relu": lambda z: np.maximum(z, 0.0),
    "elu": lambda z: np.where(z > 0.0, z, net.ELU_ALPHA * np.expm1(z)),
    "linear": lambda z: z,
}


def _relu_kink_free(top, params, x, margin=1e-3):
    # a relu pre-activation inside the stencil would invalidate the oracle;
    # the layers run in fresh arrays that keep each pre-activation
    a = np.asarray(x, dtype=np.float64)
    for (w, b), act in zip(net.layer_views(top, params), top.activations):
        z = a @ w.T + b
        if act == "relu" and np.any(np.abs(z) < margin):
            return False
        a = _ACTIVATIONS[act](z)
    return True


def test_gradients_match_finite_differences():
    r = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2024)))
    kinds = itertools.cycle(net.LOSSES)
    worst = 0.0
    done = 0
    while done < 100:
        kind = next(kinds)
        top, params, x, y = _random_case(r, kind)
        if not _relu_kink_free(top, params, x):
            continue
        g = net.Evaluator(top, kind, x, y).gradient(params)
        g_fd = _fd_gradient(top, params, x, y, kind)
        worst = max(worst, float(np.max(np.abs(g - g_fd) / (1.0 + np.abs(g_fd)))))
        done += 1
    _report(1, "gradient exactness vs central finite differences",
            worst < 1e-6, f"100 random cases, max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. canonical sampling on the harmonic potential

# steps whose potential is evaluated in one stacked call
BLOCK = 64


def _harmonic_state(temperature, chain_mass, seed):
    return PhaseState(
        positions=np.array([0.0]),
        velocities=initial_velocities(1, temperature, seed),
        masses=1.0,
        chain=ThermostatChain.rest(2, mass=chain_mass),
        step_index=0,
    )


def _constant_schedule(temperature):
    return TemperatureSchedule(t_initial=temperature, t_target=temperature,
                               t_step=1.0, hold_iterations=1)


def _harmonic_sample(temperature):
    """(x2 error, v2 error, KS p, seconds) of one temperature's run, timed by itself."""
    grad = lambda x: x           # k = 1
    pot = lambda x: 0.5 * x[:, 0] ** 2
    t0 = time.time()
    # chain mass on the oscillator scale keeps the chain resonant
    state = _harmonic_state(temperature, chain_mass=temperature, seed=1)
    schedule = _constant_schedule(temperature)
    state, _ = run_trajectory(state, grad, 0.002, schedule, 100_000, pot,
                              snapshot_steps=(), block=BLOCK)
    state, traj = run_trajectory(state, grad, 0.002, schedule, 2_000_000, pot,
                                 snapshot_steps=range(0, 2_000_000, 1), block=BLOCK)
    elapsed = time.time() - t0
    x = traj.snapshots[:, 0]
    x2_err = abs(float(np.mean(x * x)) - temperature) / temperature
    v2_err = abs(float(np.mean(traj.kinetic_temperature)) - temperature) / temperature
    # thin to roughly independent samples before the distribution test
    p = stats.kstest(x[::2000], "norm", args=(0.0, math.sqrt(temperature))).pvalue
    return x2_err, v2_err, p, elapsed


def test_harmonic_sampling_is_canonical():
    temperatures = (0.1, 0.5, 1.0)
    details = []
    ok = True
    # one job per temperature, on every usable core
    results = parallel.map_in_order(_harmonic_sample, temperatures)
    for temperature, (x2_err, v2_err, p, elapsed) in zip(temperatures, results):
        good = x2_err < 0.05 and v2_err < 0.05 and p > 0.01 and elapsed < 60.0
        ok = ok and good
        details.append(f"T={temperature}: x2 {x2_err:.1%}, v2 {v2_err:.1%}, KS p={p:.2f}, {elapsed:.0f}s")
    _report(2, "harmonic sampling is canonical", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. extended-energy conservation


def test_extended_energy_is_conserved():
    grad = lambda x: x
    pot = lambda x: 0.5 * x[:, 0] ** 2
    state = _harmonic_state(0.5, chain_mass=0.5, seed=1)
    _, traj = run_trajectory(state, grad, 0.001, _constant_schedule(0.5),
                             100_000, pot, snapshot_steps=(), block=BLOCK)
    e = traj.extended_energy
    drift = abs(float(e[-1] - e[0])) / abs(float(e[0]))
    _report(3, "extended energy stable over 1e5 steps",
            drift < 1e-3, f"relative change {drift:.2e}")


# ---------------------------------------------------------------------------
# 4. noisy-sine retrofit, directional improvement


SINE_RETROFIT = {
    "name": "sine_retrofit_acceptance",
    "seed": 0,
    "replicates": 10,
    "data": {"kind": "noisy_sine", "n_points": 101, "noise_amp": 0.1, "n_train": 65},
    "model": {"hidden": [20, 20], "activations": ["tanh", "tanh", "linear"],
              "loss": "sse", "init": "glorot_normal"},
    "adam": {"alpha": 0.002, "epochs": 2000},
    "simmer": {"dt": 0.002, "iterations": 10000, "chain_length": 2,
               "chain_mass": 1.0, "particle_mass": 1.0,
               "schedule": {"t_initial": 0.0, "t_target": 0.05,
                            "t_step": 0.01, "hold_iterations": 1000}},
    "sampling": {"burn_in": 7000, "stride": 1, "fraction": 1.0},
}


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_sine_retrofit_improves_on_adam_endpoint(tmp_path):
    cfg = from_dict(SINE_RETROFIT)
    adam_dir, run_dir = str(tmp_path / "adam"), str(tmp_path / "retrofit")
    runner.run_train_adam(cfg, adam_dir)
    runner.run_retrofit(cfg, adam_dir, run_dir)
    prep = runner.prepare_data(cfg)
    topo = runner.build_topology(cfg, prep.dataset)
    xs = prep.dataset.features
    truth = np.sin(2.0 * np.pi * xs[:, 0])
    scaled_xs = data.scale_features(prep.scaler, xs)

    test_wins = curve_wins = 0
    for r in range(cfg.replicates):
        rep_dir = runner._replicate_dir(run_dir, r)
        metrics = _read_json(os.path.join(rep_dir, "metrics.json"))
        adam_test, ens_test = metrics["adam_test_metric"], metrics["ensemble_test_metric"]
        final = runner.read_snapshot(runner._replicate_dir(adam_dir, r), "final", topo)
        members = runner.read_bundle(rep_dir, topo).members
        adam_curve = float(np.mean((data.unscale_targets(
            prep.scaler, net.forward(topo, final, scaled_xs))[:, 0] - truth) ** 2))
        ens_mean = ensemble.evaluate(topo, prep.scaler, [members], means=[xs]).means[0]
        ens_curve = float(np.mean((ens_mean[:, 0] - truth) ** 2))
        test_wins += ens_test < adam_test
        curve_wins += ens_curve < adam_curve
        print(f"    replicate {r}: adam test {adam_test:.5f} ens test {ens_test:.5f}"
              f" | adam curve {adam_curve:.5f} ens curve {ens_curve:.5f}", flush=True)
    _report(4, "sine retrofit beats the optimizer endpoint in >=8/10 replicates",
            test_wins >= 8 and curve_wins >= 8,
            f"test wins {test_wins}/10, curve wins {curve_wins}/10")


# ---------------------------------------------------------------------------
# 5. iris classification from random initialization


IRIS_AB_INITIO = {
    "name": "iris_ab_initio_acceptance",
    "seed": 0,
    "replicates": 8,
    "data": {"kind": "csv", "path": "builtin:iris", "n_train": 112},
    "model": {"hidden": [100, 50, 50],
              "activations": ["tanh", "tanh", "tanh", "linear"],
              "loss": "categorical_cross_entropy", "init": "glorot_normal"},
    "adam": {"alpha": 0.002, "epochs": 200},
    "simmer": {"dt": 0.001, "iterations": 12000, "chain_length": 2,
               "chain_mass": 1.0, "particle_mass": 1.0,
               "schedule": {"t_initial": 0.002, "t_target": 0.002}},
    "sampling": {"burn_in": 2000, "stride": 1, "fraction": 0.02},
}


def test_iris_ensemble_matches_adam_and_votes_are_proportions(tmp_path):
    cfg = from_dict(IRIS_AB_INITIO)
    run_dir, eval_dir = str(tmp_path / "simmer"), str(tmp_path / "evaluate")
    runner.run_simmer(cfg, run_dir)
    runner.run_evaluate(run_dir, eval_dir, grid_resolution=100)

    metrics = _read_json(os.path.join(run_dir, "metrics.json"))
    pooled_acc, adam_acc = metrics["ensemble_test_metric"], metrics["adam_test_metric"]
    # decision_grid.csv rows: the two node coordinates, then one vote proportion per class
    with open(os.path.join(eval_dir, "decision_grid.csv"), encoding="utf-8") as fh:
        props = np.array([[float(cell) for cell in line.split(",")[2:]]
                          for line in fh.read().splitlines()[1:]])
    grid_gap = float(np.max(np.abs(props.sum(axis=1) - 1.0)))

    _report(5, "iris pooled ensemble matches Adam and grid votes sum to one",
            pooled_acc >= adam_acc and grid_gap == 0.0,
            f"pooled acc {pooled_acc:.4f} vs adam {adam_acc:.4f}, "
            f"8 replicates, max |vote sum - 1| = {grid_gap:.1e} on 100x100 grid")


# ---------------------------------------------------------------------------
# 6. retrofit handoff exactness


def test_handoff_is_exact():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))

    top = Topology((1, 5, 1), ("tanh", "linear"))
    x = np.linspace(-1, 1, 12)[:, None]
    y = np.sin(x)
    params0 = net.init_glorot_normal(top, seeding.child_seed(3, "weights"))
    report = optimize.train_adam(top, params0, x, y, x, y, "sse", epochs=50, alpha=0.002)
    state = optimize.retrofit_init(
        report.final_params, report.penultimate_params, gamma=0.002,
        chain_length=2, chain_mass=1.0, particle_mass=1.0,
    )
    bits_equal = state.positions.tobytes() == report.final_params.tobytes()

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 40))
        last = rng.normal(size=n)
        prev = rng.normal(size=n)
        gamma = float(rng.uniform(1e-4, 1.0))
        v = optimize.velocity_estimate(last, prev, gamma)
        worst = max(worst, float(np.max(np.abs(v - (last - prev) / gamma))))
    _report(6, "retrofit handoff is bit-exact",
            bits_equal and worst <= 1e-15,
            f"positions bit-identical: {bits_equal}, velocity residual {worst:.1e}")


# ---------------------------------------------------------------------------
# 7. curvature spectrum probe


def test_spectrum_probe():
    # separable quadratic with known eigenvalues 1 and 100
    grad_fn = lambda p: np.array([1.0, 100.0]) * p
    spec = diagnostics.spectrum_from_gradient(grad_fn, np.array([0.3, -0.2]))
    quad_err = float(np.max(np.abs(spec.eigenvalues - np.array([100.0, 1.0]))))

    # small overfit sine net: directions differ by orders of magnitude
    top = Topology((1, 10, 1), ("tanh", "linear"))
    rng = seeding.generator(12)
    x = np.linspace(-1, 1, 8)[:, None]
    y = np.sin(2 * np.pi * x) + 0.1 * rng.standard_normal((8, 1))
    params0 = net.init_glorot_normal(top, seeding.child_seed(12, "weights"))
    report = optimize.train_adam(top, params0, x, y, x, y, "sse", epochs=4000, alpha=0.01)
    eig = diagnostics.hessian_spectrum(top, report.final_params, x, y, "sse").eigenvalues
    mags = np.abs(eig)
    spread = float(mags.max() / max(mags.min(), 1e-300))

    _report(7, "curvature spectrum probe",
            quad_err < 1e-6 and spread >= 1e4,
            f"quadratic eigenvalue err {quad_err:.1e}, overfit-net spread {spread:.1e}")


# ---------------------------------------------------------------------------
# 8. determinism of the experiment pipeline


DETERMINISM_CONFIG = {
    "name": "determinism_probe",
    "seed": 11,
    "replicates": 2,
    "data": {"kind": "noisy_sine", "n_points": 41, "noise_amp": 0.1, "n_train": 25},
    "model": {"hidden": [8], "activations": ["tanh", "linear"],
              "loss": "sse", "init": "glorot_normal"},
    "adam": {"alpha": 0.002, "epochs": 60},
    "simmer": {"dt": 0.002, "iterations": 400, "chain_length": 2,
               "chain_mass": 1.0, "particle_mass": 1.0,
               "schedule": {"t_initial": 0.0, "t_target": 0.02,
                            "t_step": 0.01, "hold_iterations": 100}},
    "sampling": {"burn_in": 300, "stride": 1, "fraction": 0.5},
}


def _dir_bytes(root):
    found = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


def test_runs_are_deterministic(tmp_path):
    cfg = from_dict(DETERMINISM_CONFIG)
    dirs = {}
    for tag in ("first", "second"):
        adam_dir = str(tmp_path / f"adam_{tag}")
        retro_dir = str(tmp_path / f"retro_{tag}")
        runner.run_train_adam(cfg, adam_dir)
        runner.run_retrofit(cfg, adam_dir, retro_dir)
        dirs[tag] = (adam_dir, retro_dir)

    mismatches = []
    for pair in zip(dirs["first"], dirs["second"]):
        a, b = (_dir_bytes(p) for p in pair)
        if set(a) != set(b):
            mismatches.append("file sets differ")
        mismatches.extend(rel for rel in a if a[rel] != b.get(rel))
    n_files = sum(len(_dir_bytes(p)) for p in dirs["first"])
    _report(8, "identical config and seed reproduce byte-identical outputs",
            not mismatches,
            f"{n_files} files compared{', mismatches: ' + ', '.join(mismatches) if mismatches else ''}")
