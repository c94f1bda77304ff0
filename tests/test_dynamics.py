"""Thermostat-chain integrator: conservation, sampling, schedule, contracts.

The physics checks here are deliberately shorter than the full acceptance
runs (see test_acceptance.py); they catch gross integrator errors quickly.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from simmering import dynamics as dyn
from simmering import net, runner
from simmering.config import load_config
from simmering.net import NonFiniteError


def harmonic_grad(x):
    return x


def harmonic_potential(x):
    """0.5 |x|^2 of one position vector, or of each row of a stack."""
    return 0.5 * np.sum(x * x, axis=-1)


# steps whose losses are recorded together: several blocks per run, and a
# partial last block in most
BLOCK = 7


def make_state(x, v, mass=1.0, n_chain=2, chain_mass=1.0):
    return dyn.PhaseState(
        np.asarray(x, dtype=float),
        np.asarray(v, dtype=float),
        mass,
        dyn.ThermostatChain.rest(n_chain, mass=chain_mass),
    )


def kinetic_temperature(state):
    """Oracle: the instantaneous (1/N) * sum(m v_i^2)."""
    v = state.velocities
    return state.masses * float(v @ v) / v.shape[0]


def extended_energy(state, loss_value, temperature):
    """Oracle: the conserved quantity of system plus chain at a fixed target temperature.

    Kinetic + loss + chain kinetic + N*T*s_1 + T*(s_2 + s_3 + ...).
    Constant along exact trajectories only while the target temperature is
    constant.
    """
    v = state.velocities
    kin = 0.5 * state.masses * float(v @ v)
    chain = state.chain
    chain_kin = 0.5 * float((chain.masses * chain.velocities) @ chain.velocities)
    s = chain.positions
    bath = v.shape[0] * temperature * float(s[0]) + temperature * float(s[1:].sum())
    return kin + loss_value + chain_kin + bath


def step_at(state, grad_fn, dt, temperature):
    """One step at a fixed target temperature, keeping no snapshot."""
    fixed = dyn.TemperatureSchedule(temperature, temperature)
    return dyn.run_trajectory(
        state, grad_fn, dt, fixed, 1, harmonic_potential, snapshot_steps=(), block=BLOCK
    )[0]


# ---------------------------------------------------------------------------
# types and validation


def test_chain_rest_is_zeroed():
    ch = dyn.ThermostatChain.rest(4, mass=2.0)
    assert np.all(ch.positions == 0.0) and np.all(ch.velocities == 0.0)
    assert np.all(ch.masses == 2.0)


@pytest.mark.parametrize("bad", [0, -1])
def test_chain_length_validated(bad):
    with pytest.raises(ValueError):
        dyn.ThermostatChain.rest(bad)


def test_state_shape_and_mass_validation():
    with pytest.raises(ValueError):
        make_state([1.0, 2.0], [0.0])
    with pytest.raises(ValueError):
        make_state([1.0], [0.0], mass=0.0)
    with pytest.raises(ValueError):
        dyn.PhaseState(np.zeros(2), np.zeros(2), np.array([1.0, -1.0]), dyn.ThermostatChain.rest(2))


def test_per_particle_mass_array_rejected():
    with pytest.raises(ValueError, match="scalar"):
        dyn.PhaseState(np.zeros(2), np.zeros(2), np.array([1.0, 2.0]), dyn.ThermostatChain.rest(2))


# ---------------------------------------------------------------------------
# temperature schedule


def test_schedule_ramp_values():
    sch = dyn.TemperatureSchedule(t_initial=0.0, t_target=0.05, t_step=0.01, hold_iterations=1000)
    assert sch.at(0) == 0.0
    assert sch.at(999) == 0.0
    assert sch.at(1000) == 0.01
    assert sch.at(4500) == 0.04
    assert sch.at(5000) == 0.05
    assert sch.at(10**9) == 0.05


def test_schedule_constant():
    # a constant schedule is the degenerate ramp with t_initial == t_target
    sch = dyn.TemperatureSchedule(0.002, 0.002)
    assert sch.t_initial == sch.t_target == 0.002
    assert sch.at(0) == sch.at(123456) == 0.002


def test_schedule_validation():
    # the ranges are checked where the config parses the schedule
    # (test_config.py); the schedule itself guards its argument
    with pytest.raises(ValueError):
        dyn.TemperatureSchedule(1.0, 1.0).at(-1)


@settings(max_examples=60, deadline=None)
@given(
    t0=st.floats(min_value=0.0, max_value=1.0),
    dt_t=st.floats(min_value=1e-6, max_value=1.0),
    hold=st.integers(min_value=1, max_value=5000),
    i=st.integers(min_value=0, max_value=10**6),
    j=st.integers(min_value=0, max_value=10**6),
)
def test_schedule_monotone(t0, dt_t, hold, i, j):
    sch = dyn.TemperatureSchedule(t0, t0 + 0.7, dt_t, hold)
    lo, hi = min(i, j), max(i, j)
    assert sch.at(lo) <= sch.at(hi) <= sch.t_target


# ---------------------------------------------------------------------------
# diagnostics on states: the oracles, then the recorded columns against them


def test_kinetic_temperature_simple():
    state = make_state([0.0, 0.0], [1.0, 2.0])
    assert kinetic_temperature(state) == (1.0 + 4.0) / 2.0
    heavy = make_state([0.0, 0.0], [1.0, 2.0], mass=2.0)
    assert kinetic_temperature(heavy) == 2.0 * (1.0 + 4.0) / 2.0


def test_extended_energy_terms():
    state = make_state([3.0], [2.0], n_chain=2)
    state.chain.velocities[:] = [1.0, -1.0]
    state.chain.positions[:] = [0.5, 0.25]
    # kin 2.0 + loss 4.5 + chain kin 1.0 + 1*T*0.5 + T*0.25 with T=2
    val = extended_energy(state, loss_value=4.5, temperature=2.0)
    assert val == 2.0 + 4.5 + 1.0 + 2.0 * 0.5 + 2.0 * 0.25


def test_extended_energy_ignores_chain_positions_at_zero_t():
    state = make_state([1.0], [1.0])
    a = extended_energy(state, 0.5, 0.0)
    state.chain.positions[:] *= 0.0
    state.chain.positions[:] += 7.0
    b = extended_energy(state, 0.5, 0.0)
    assert a == b


@pytest.mark.parametrize("n_chain", [2, 3])
def test_recorded_kinetic_temperature_and_energy_match_the_oracles(n_chain):
    # three particles of mass 1.3 under a ramp, so N, m, T and every chain
    # position enter; the state after each step comes from one-step calls
    schedule = dyn.TemperatureSchedule(0.1, 0.5, 0.2, 7)
    state = make_state([0.5, -1.0, 2.0], [0.3, 0.1, -0.4], mass=1.3, n_chain=n_chain,
                       chain_mass=0.7)
    _, traj = dyn.run_trajectory(
        state, harmonic_grad, 0.01, schedule, 40, harmonic_potential, block=BLOCK
    )
    for i in range(40):
        state = dyn.run_trajectory(
            state, harmonic_grad, 0.01, schedule, 1, harmonic_potential, snapshot_steps=(),
            block=BLOCK,
        )[0]
        t_now = schedule.at(i)
        assert traj.temperature[i] == t_now
        want_t = kinetic_temperature(state)
        want_e = extended_energy(state, harmonic_potential(state.positions), t_now)
        assert math.isclose(traj.kinetic_temperature[i], want_t, rel_tol=1e-12, abs_tol=0.0)
        assert math.isclose(traj.extended_energy[i], want_e, rel_tol=1e-12, abs_tol=0.0)
    assert np.any(state.chain.positions[1:] != 0.0)  # the T*(s_2 + ...) term is live


# ---------------------------------------------------------------------------
# step contracts


def test_one_gradient_eval_per_step_at_half_step_positions():
    calls = []

    def grad(x):
        calls.append(x.copy())
        return np.zeros_like(x)

    dt = 0.01
    state = make_state([1.0], [2.0])
    step_at(state, grad, dt, 4.0)
    assert len(calls) == 1
    assert calls[0][0] == 1.0 + 0.5 * 0.01 * 2.0


def test_step_is_pure():
    dt = 0.002
    state = make_state([1.0, -1.0], [0.5, 0.25])
    before = (state.positions.copy(), state.velocities.copy(), state.chain.velocities.copy())
    out = step_at(state, harmonic_grad, dt, 0.5)
    assert np.array_equal(state.positions, before[0])
    assert np.array_equal(state.velocities, before[1])
    assert np.array_equal(state.chain.velocities, before[2])
    assert out is not state and out.step_index == state.step_index + 1


def test_pure_drift_translation_is_exact():
    # flat potential with sum(m v^2) == N*T keeps the chain acceleration on
    # link 1 exactly zero; a dyadic dt makes every float increment exact
    dt = 0.015625
    sch = dyn.TemperatureSchedule(4.0, 4.0)
    x0 = np.array([0.0, 1.0, -2.0])
    v0 = np.array([2.0, 2.0, 2.0])
    state = make_state(x0, v0)
    out = dyn.run_trajectory(
        state, lambda x: np.zeros_like(x), dt, sch, 1000, harmonic_potential, snapshot_steps=(),
        block=BLOCK,
    )[0]
    np.testing.assert_array_equal(out.positions, x0 + 1000 * dt * v0)
    np.testing.assert_array_equal(out.velocities, v0)
    assert out.chain.velocities[0] == 0.0


def test_single_step_drift():
    dt = 0.25
    state = make_state([1.0], [2.0])
    out = step_at(state, lambda x: np.zeros_like(x), dt, 4.0)
    assert out.positions[0] == 1.0 + dt * 2.0
    assert out.velocities[0] == 2.0


def test_run_nhc_equals_repeated_steps():
    dt, sch = 0.002, dyn.TemperatureSchedule(0.0, 0.5, 0.1, 7)
    r = np.random.default_rng(0)
    state = dyn.PhaseState(r.normal(size=4), r.normal(size=4), 1.0, dyn.ThermostatChain.rest(4))
    fast = dyn.run_trajectory(
        state, harmonic_grad, dt, sch, 25, harmonic_potential, snapshot_steps=(), block=BLOCK
    )[0]
    slow = state
    for _ in range(25):
        slow = step_at(slow, harmonic_grad, dt, sch.at(slow.step_index))
    np.testing.assert_array_equal(fast.positions, slow.positions)
    np.testing.assert_array_equal(fast.velocities, slow.velocities)
    np.testing.assert_array_equal(fast.chain.positions, slow.chain.positions)
    np.testing.assert_array_equal(fast.chain.velocities, slow.chain.velocities)
    assert fast.step_index == slow.step_index == 25


def test_run_nhc_resumes_schedule():
    dt, sch = 0.002, dyn.TemperatureSchedule(0.0, 0.5, 0.1, 10)
    state = make_state([1.0], [0.5])
    def run(start, n_steps):
        return dyn.run_trajectory(
            start, harmonic_grad, dt, sch, n_steps, harmonic_potential, snapshot_steps=(),
            block=BLOCK,
        )[0]

    once = run(state, 30)
    half = run(state, 13)
    twice = run(half, 17)
    np.testing.assert_array_equal(once.positions, twice.positions)
    np.testing.assert_array_equal(once.velocities, twice.velocities)


def test_odd_chain_length_supported():
    dt, sch = 0.002, dyn.TemperatureSchedule(0.5, 0.5)
    state = make_state([1.0], [0.2], n_chain=3)
    out = dyn.run_trajectory(
        state, harmonic_grad, dt, sch, 100, harmonic_potential, snapshot_steps=(), block=BLOCK
    )[0]
    assert np.all(np.isfinite(out.positions)) and np.all(np.isfinite(out.chain.velocities))


def test_nonfinite_state_aborts_with_step_index():
    dt = 0.002
    state = make_state([1.0], [np.inf])
    state.step_index = 41
    with pytest.raises(NonFiniteError, match="41"):
        step_at(state, harmonic_grad, dt, 0.5)


def test_nonfinite_errors_name_quantity_and_step():
    dt, sch = 0.002, dyn.TemperatureSchedule(0.5, 0.5)
    state = make_state([1.0], [0.5])
    state.step_index = 7

    def broken(x):
        raise NonFiniteError("boom")

    with pytest.raises(NonFiniteError, match="non-finite gradient in step 7: boom"):
        dyn.run_trajectory(state, broken, dt, sch, 3, harmonic_potential, block=BLOCK)[0]
    with pytest.raises(NonFiniteError, match="non-finite train loss in step 7$"):
        dyn.run_trajectory(
            state, harmonic_grad, dt, sch, 3, lambda x: np.full(len(x), math.inf), block=BLOCK
        )
    with pytest.raises(NonFiniteError, match="non-finite test loss in step 7: boom"):
        dyn.run_trajectory(
            state, harmonic_grad, dt, sch, 3, harmonic_potential, broken, block=BLOCK
        )


# ---------------------------------------------------------------------------
# errors of steps whose losses are recorded together

# a drift the chain leaves alone: sum(m v^2) == N*T with one chain link
# keeps the link at rest, and a zero force keeps v.  dt * v == 0.5
# exactly, so the position after step i (0-based) is 0.5 * (i + 1), and
# step i takes its gradient at 0.5 * i + 0.25.  At this speed a train loss
# of the largest float makes the extended energy overflow.
DRIFT_V = 2.0**487
DRIFT_DT = 0.5 / DRIFT_V
DRIFT_T = dyn.TemperatureSchedule(DRIFT_V**2, DRIFT_V**2)
# one step per block (each step alone), step 10 inside a block, one block
BLOCKS = (1, 4, 64)
# inline, and on a helper wherever a run is longer than one block
CORES = (1, 2)


def helpers_forked(forks, cores, block, runs=1):
    """Assert that each of ``runs`` 20-step runs forked one helper where it
    could (two usable cores, more than one block), then that none is left."""
    assert len(forks) == runs * (cores > 1 and block < 20)
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def crafted(fail):
    """Gradient, train-loss and test-loss functions of the drift that fail
    from the steps in ``fail``: ``{"gradient" | "train outputs" |
    "train value" | "train huge" | "test outputs" | "test value": step}``."""

    def late(stack, quantity):
        if quantity not in fail:
            return np.zeros(len(stack), dtype=bool)
        return stack[:, 0] > 0.5 * fail[quantity] + 0.25

    def grad(x):
        if "gradient" in fail and x[0] > 0.5 * fail["gradient"]:
            raise NonFiniteError("boom")
        return np.zeros_like(x)

    def losses(name):
        def fn(stack):
            if late(stack, f"{name} outputs").any():
                raise NonFiniteError("non-finite network outputs")
            values = np.zeros(len(stack))
            values[late(stack, f"{name} value")] = math.inf
            values[late(stack, f"{name} huge")] = np.finfo(np.float64).max
            return values

        return fn

    return grad, losses("train"), losses("test")


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize(
    "fail,message",
    [
        ({"gradient": 10}, "non-finite gradient in step 10: boom"),
        ({"train outputs": 10}, "non-finite train loss in step 10: non-finite network outputs"),
        ({"train value": 10}, "non-finite train loss in step 10$"),
        ({"train huge": 10}, "non-finite extended energy in step 10$"),
        ({"test outputs": 10}, "non-finite test loss in step 10: non-finite network outputs"),
        # within a step: train outputs, train value, extended energy, test outputs
        ({"train outputs": 10, "train value": 10}, "train loss in step 10: non-finite network"),
        ({"train value": 10, "test outputs": 10}, "train loss in step 10$"),
        ({"train huge": 10, "test outputs": 10}, "extended energy in step 10$"),
        # the earliest step first, whatever the quantity
        ({"test outputs": 9, "train outputs": 10}, "test loss in step 9: "),
        ({"train value": 9, "gradient": 11}, "train loss in step 9$"),
        ({"train outputs": 9, "gradient": 10}, "train loss in step 9: "),
        # a step's gradient comes before its losses
        ({"gradient": 10, "test outputs": 10}, "gradient in step 10: boom"),
        ({"gradient": 10, "train value": 11}, "gradient in step 10: boom"),
    ],
)
def test_held_steps_raise_the_first_error_of_a_step_by_step_loop(
    use_cores, forks, fail, message, block, cores
):
    # a non-finite velocity entering a step can only enter a call (see
    # test_nonfinite_state_aborts_with_step_index): mid-run, the step before
    # it has already failed on its extended energy
    use_cores(cores)
    state = make_state([0.0], [DRIFT_V], n_chain=1)
    grad, train, test = crafted(fail)
    with pytest.raises(NonFiniteError, match=message):
        dyn.run_trajectory(state, grad, DRIFT_DT, DRIFT_T, 20, train, test, block=block)
    helpers_forked(forks, cores, block)


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("block", BLOCKS)
def test_drift_records_and_a_nonfinite_test_value(use_cores, forks, block, cores):
    use_cores(cores)
    state = make_state([0.0], [DRIFT_V], n_chain=1)
    grad, train, test = crafted({"test value": 10})
    _, traj = dyn.run_trajectory(state, grad, DRIFT_DT, DRIFT_T, 20, train, test, block=block)
    helpers_forked(forks, cores, block)
    np.testing.assert_array_equal(traj.snapshots[:, 0], 0.5 * np.arange(1, 21))
    np.testing.assert_array_equal(traj.extended_energy, np.full(20, 0.5 * DRIFT_V**2))
    # recorded as it came: the test loss has no finiteness check of its own
    np.testing.assert_array_equal(traj.loss_test, [0.0] * 10 + [math.inf] * 10)


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("block", BLOCKS)
def test_overflow_in_a_later_advance_comes_after_the_held_steps(use_cores, forks, block, cores):
    # from step 12 the target is 1e300, and the chain's exp() friction
    # factor overflows in that step's advance; dt * v == 0.5 as above
    use_cores(cores)
    state = make_state([0.0], [2.0], n_chain=1)
    ramp = dyn.TemperatureSchedule(4.0, 1e300, 1e300, 12)
    grad, train, test = crafted({})
    with pytest.raises(OverflowError):
        dyn.run_trajectory(state, grad, 0.25, ramp, 20, train, test, block=block)
    grad, train, test = crafted({"train value": 10})
    with pytest.raises(NonFiniteError, match="train loss in step 10$"):
        dyn.run_trajectory(state, grad, 0.25, ramp, 20, train, test, block=block)
    helpers_forked(forks, cores, block, runs=2)


@pytest.mark.parametrize("fail", ["nothing", "advance", "helper", "interrupt"])
def test_every_helper_is_reaped_however_the_run_ends(use_cores, forks, fail):
    """The helper of a 20-step run at 4 steps a block is gone after a
    return, an error out of the advance, an error inside the helper (which
    reaches the caller as the inline path raises it) and an interrupt."""

    def grad(x):
        if x[0] > 5.0:  # step 10 on the drift below
            if fail == "advance":
                raise NonFiniteError("boom")
            if fail == "interrupt":
                raise KeyboardInterrupt
        return np.zeros_like(x)

    def train(stack):
        if fail == "helper" and (stack[:, 0] > 5.0).any():
            raise ValueError(f"a stack of {len(stack)} the loss refuses")
        return np.zeros(len(stack))

    def run():
        state = make_state([0.0], [2.0], n_chain=1)
        sch = dyn.TemperatureSchedule(4.0, 4.0)
        return dyn.run_trajectory(state, grad, 0.25, sch, 20, train, train, block=4)

    raised = {}
    for cores in CORES:
        use_cores(cores)
        try:
            run()
        except (Exception, KeyboardInterrupt) as exc:
            raised[cores] = type(exc), str(exc)
    assert raised.get(1) == raised.get(2)
    assert raised.get(1, (None,))[0] == {
        "nothing": None,
        "advance": NonFiniteError,
        "helper": ValueError,
        "interrupt": KeyboardInterrupt,
    }[fail]
    helpers_forked(forks, 2, 4)


def test_exploding_gradient_caught_during_run():
    dt, sch = 0.5, dyn.TemperatureSchedule(0.5, 0.5)
    state = make_state([2.0], [0.0])
    # steep cubic-force potential diverges fast at dt=0.5
    with pytest.raises(NonFiniteError):
        dyn.run_trajectory(
            state, lambda x: x**3 * 1e3, dt, sch, 10_000, lambda x: np.sum(x * x, axis=1),
            block=BLOCK,
        )


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_records_and_snapshots():
    dt, sch = 0.002, dyn.TemperatureSchedule(0.0, 0.5, 0.1, 7)
    state = make_state([1.0, 0.5], [0.1, -0.2])
    out, traj = dyn.run_trajectory(
        state, harmonic_grad, dt, sch, 20, harmonic_potential,
        loss_test_fn=lambda x: 2.0 * harmonic_potential(x),
        snapshot_steps=range(5, 20, 3), block=BLOCK,
    )
    assert len(traj) == 20
    np.testing.assert_array_equal(traj.iterations, np.arange(1, 21))
    np.testing.assert_array_equal(traj.snapshot_positions, [5, 8, 11, 14, 17])
    assert traj.snapshots.shape == (5, 2)
    np.testing.assert_array_equal(traj.temperature, [sch.at(i) for i in range(20)])
    np.testing.assert_allclose(traj.loss_test, 2.0 * traj.loss_train, rtol=1e-15)
    # last snapshot cannot be after the final state
    assert traj.snapshot_positions[-1] <= len(traj) - 1
    assert np.all(np.isfinite(out.positions))


def test_trajectory_snapshot_matches_stepwise_state():
    dt, sch = 0.002, dyn.TemperatureSchedule(0.3, 0.3)
    state = make_state([0.7], [0.4])
    _, traj = dyn.run_trajectory(
        state, harmonic_grad, dt, sch, 6, harmonic_potential, block=BLOCK
    )
    stepwise = state
    for i in range(4):
        stepwise = step_at(stepwise, harmonic_grad, dt, 0.3)
    np.testing.assert_array_equal(traj.snapshots[3], stepwise.positions)


def test_trajectory_without_snapshots():
    dt, sch = 0.002, dyn.TemperatureSchedule(0.3, 0.3)
    _, traj = dyn.run_trajectory(
        make_state([1.0], [0.0]), harmonic_grad, dt, sch, 10, harmonic_potential, snapshot_steps=(),
        block=BLOCK,
    )
    assert traj.snapshots.shape[0] == 0 and len(traj) == 10


def test_snapshot_steps_keep_only_their_rows():
    dt, sch = 0.002, dyn.TemperatureSchedule(0.0, 0.5, 0.1, 7)
    state = make_state([1.0, 0.5, -0.25], [0.1, -0.2, 0.3])
    _, full = dyn.run_trajectory(
        state, harmonic_grad, dt, sch, 20, harmonic_potential, block=BLOCK
    )
    assert full.snapshots.shape == (20, 3)
    np.testing.assert_array_equal(full.snapshot_positions, np.arange(20))
    for steps in ([0, 3, 4, 10, 19], range(2, 20, 5), [7], ()):
        out, traj = dyn.run_trajectory(
            state, harmonic_grad, dt, sch, 20, harmonic_potential, snapshot_steps=steps,
            block=BLOCK,
        )
        assert traj.snapshots.shape == (len(steps), 3)
        np.testing.assert_array_equal(traj.snapshot_positions, list(steps))
        np.testing.assert_array_equal(traj.snapshots, full.snapshots[list(steps)])
        for name in ("iterations", "temperature", "kinetic_temperature", "loss_train",
                     "extended_energy"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(full, name))
        assert out.step_index == 20


@pytest.mark.parametrize(
    "steps", [[3, 1], [2, 2], [-1, 4], [5, 20], [[1, 2]], [0, 5, 5, 9]]
)
def test_snapshot_steps_validated(steps):
    dt, sch = 0.002, dyn.TemperatureSchedule(0.3, 0.3)
    with pytest.raises(ValueError, match="snapshot_steps"):
        dyn.run_trajectory(
            make_state([1.0], [0.0]), harmonic_grad, dt, sch, 20, harmonic_potential,
            snapshot_steps=steps, block=BLOCK,
        )


def test_evaluator_trajectory_equals_plain_net_closures():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = load_config(os.path.join(here, "configs", "sine_retrofit.json"))
    prep = runner.prepare_data(cfg)
    top = runner.build_topology(cfg, prep.dataset)
    kind = cfg.model.loss

    def grad_fn(x):  # a fresh evaluator per call keeps nothing between calls
        return net.Evaluator(top, kind, prep.train_inputs, prep.train_targets).gradient(x)

    def loss_train_fn(stack):  # row by row, through the module functions
        return [net.loss(kind, net.forward(top, x, prep.train_inputs), prep.train_targets)
                for x in stack]

    def loss_test_fn(stack):
        return [net.loss(kind, net.forward(top, x, prep.test_inputs), prep.test_targets)
                for x in stack]

    params = runner.initial_params(cfg, top, 0)
    state = dyn.PhaseState(
        params, dyn.initial_velocities(params.size, 0.05, 4), 1.0, dyn.ThermostatChain.rest(2)
    )
    simmer = cfg.simmer
    bound_grad, bound_train, bound_test, block = runner._loss_fns(cfg, top, prep)
    bound = dyn.run_trajectory(
        state, bound_grad, simmer.dt, simmer.schedule, 300, bound_train, bound_test,
        snapshot_steps=range(100, 300, 7), block=block,
    )
    plain = dyn.run_trajectory(
        state, grad_fn, simmer.dt, simmer.schedule, 300, loss_train_fn, loss_test_fn,
        snapshot_steps=range(100, 300, 7), block=1,
    )
    for got, want in zip(bound, plain):
        for name, value in vars(want).items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(getattr(got, name), value, err_msg=name)
            elif name != "chain":
                assert getattr(got, name) == value, name
    np.testing.assert_array_equal(bound[0].chain.positions, plain[0].chain.positions)
    np.testing.assert_array_equal(bound[0].chain.velocities, plain[0].chain.velocities)


# ---------------------------------------------------------------------------
# physics (short variants of the acceptance runs)


def test_harmonic_equipartition_smoke():
    t_target = 0.5
    dt, sch = 0.002, dyn.TemperatureSchedule(t_target, t_target)
    state = dyn.PhaseState(
        np.array([0.0]),
        dyn.initial_velocities(1, t_target, 1),
        1.0,
        dyn.ThermostatChain.rest(2, mass=t_target),
    )
    state = dyn.run_trajectory(
        state, harmonic_grad, dt, sch, 20_000, harmonic_potential, snapshot_steps=(), block=BLOCK
    )[0]
    _, traj = dyn.run_trajectory(
        state, harmonic_grad, dt, sch, 400_000, harmonic_potential, block=BLOCK
    )
    x2 = 2.0 * traj.loss_train.mean()
    v2 = traj.kinetic_temperature.mean()
    assert abs(x2 - t_target) / t_target < 0.10
    assert abs(v2 - t_target) / t_target < 0.10


def test_harmonic_position_distribution_smoke():
    t_target = 0.5
    dt, sch = 0.002, dyn.TemperatureSchedule(t_target, t_target)
    state = dyn.PhaseState(
        np.array([0.0]),
        dyn.initial_velocities(1, t_target, 1),
        1.0,
        dyn.ThermostatChain.rest(2, mass=t_target),
    )
    state = dyn.run_trajectory(
        state, harmonic_grad, dt, sch, 20_000, harmonic_potential, snapshot_steps=(), block=BLOCK
    )[0]
    # thin to roughly independent samples; KS assumes iid
    _, traj = dyn.run_trajectory(
        state, harmonic_grad, dt, sch, 400_000, harmonic_potential,
        snapshot_steps=range(0, 400_000, 2000), block=BLOCK,
    )
    xs = traj.snapshots[:, 0]
    p = stats.kstest(xs, "norm", args=(0.0, math.sqrt(t_target))).pvalue
    assert p > 0.01


def test_extended_energy_conservation_smoke():
    t_target = 0.5
    dt, sch = 0.001, dyn.TemperatureSchedule(t_target, t_target)
    state = dyn.PhaseState(
        np.array([1.0]),
        dyn.initial_velocities(1, t_target, 3),
        1.0,
        dyn.ThermostatChain.rest(2),
    )
    e0 = extended_energy(state, harmonic_potential(state.positions), t_target)
    _, traj = dyn.run_trajectory(
        state, harmonic_grad, dt, sch, 20_000, harmonic_potential, block=BLOCK
    )
    assert np.max(np.abs(traj.extended_energy - e0)) / (abs(e0) + 1.0) < 1e-3


def test_zero_temperature_quenches():
    dt, sch = 0.002, dyn.TemperatureSchedule(0.0, 0.0)
    state = make_state([1.5], [0.0])
    _, traj = dyn.run_trajectory(
        state, harmonic_grad, dt, sch, 50_000, harmonic_potential, block=BLOCK
    )
    half = len(traj) // 2
    assert traj.loss_train[half:].mean() < traj.loss_train[:half].mean()
    assert traj.kinetic_temperature[-1] < 0.01


def test_velocity_init_moments_and_determinism():
    v1 = dyn.initial_velocities(20_000, 0.25, 9)
    v2 = dyn.initial_velocities(20_000, 0.25, 9)
    np.testing.assert_array_equal(v1, v2)
    assert abs(v1.mean()) < 4 * math.sqrt(0.25 / 20_000)
    assert abs(v1.var() - 0.25) < 0.25 * 5 * math.sqrt(2.0 / 20_000)
    assert np.all(dyn.initial_velocities(10, 0.0, 0) == 0.0)


# ---------------------------------------------------------------------------
# exact properties of the sampler as built, on 5-D quadratics
#
# These tests document the paper's method as implemented: one scalar chain
# friction acts on every particle (dv/dt = -grad L / m - xi v), so it can
# rescale the velocity but never turn it.  They are not acceptance claims,
# and they hold to rounding, so short runs suffice.

TOY_T, TOY_DT, TOY_STEPS = 0.1, 0.002, 20_000


def toy_positions(curvatures, seed):
    """(x0, v0, kept positions) of a run on L = 0.5 * sum(curvatures * x**2):
    every 10th of 20 000 steps, T = Q = 0.1, chain length 2."""
    lam = np.asarray(curvatures, dtype=float)
    x0 = np.random.default_rng(seed + 100).standard_normal(lam.size)
    v0 = dyn.initial_velocities(lam.size, TOY_T, seed)
    state = make_state(x0, v0, n_chain=2, chain_mass=TOY_T)
    _, traj = dyn.run_trajectory(
        state, lambda x: lam * x, TOY_DT, dyn.TemperatureSchedule(TOY_T, TOY_T), TOY_STEPS,
        lambda xs: 0.5 * (xs * xs) @ lam, snapshot_steps=range(0, TOY_STEPS, 10), block=BLOCK,
    )
    return x0, v0, traj.snapshots


def test_isotropic_quadratic_motion_stays_in_the_plane_of_x0_and_v0():
    """Documents the paper's method as built, not an acceptance claim: on
    L = 0.5 |x|^2 the force is -x and the friction only scales v, so the
    kept positions never leave span(x0, v0).  Any sampler variant of
    ROADMAP item 3 (turning or confinement) must break this."""
    x0, v0, kept = toy_positions([1.0] * 5, seed=0)
    singular = np.linalg.svd(kept, compute_uv=False)
    assert np.all(singular[2:] < 1e-12 * singular[0])
    plane, _ = np.linalg.qr(np.column_stack([x0, v0]))
    residual = kept - (kept @ plane) @ plane.T
    assert np.abs(residual).max() < 1e-12 * np.abs(kept).max()


def test_flat_modes_travel_in_a_straight_line():
    """Documents the paper's method as built, not an acceptance claim: with
    two stiff modes (curvature 1) and three flat ones (curvature 0), no
    force acts on the flat block and the friction only scales its
    velocity, so its chords over the first and second thirds of the kept
    window point the same way (cosine 1).  Any sampler variant of ROADMAP
    item 3 (turning or confinement) must break this."""
    _, _, kept = toy_positions([1.0, 1.0, 0.0, 0.0, 0.0], seed=1)
    flat = kept[:, 2:]
    third = len(flat) // 3
    first, second = flat[third] - flat[0], flat[2 * third] - flat[third]
    cosine = first @ second / (np.linalg.norm(first) * np.linalg.norm(second))
    assert abs(cosine - 1.0) < 1e-12
