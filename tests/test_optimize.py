"""Adam trainer and optimizer-to-dynamics handoff tests.

The convergence oracle re-derives the Adam recurrence by hand inside the
test (scalar Python floats, explicit bias correction) so the implementation
and the check cannot share a bug.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simmering import net, seeding
from simmering.net import NonFiniteError, Topology
from simmering.optimize import (
    AdamState,
    adam_step,
    retrofit_init,
    train_adam,
    velocity_estimate,
)


def quadratic_problem():
    # A single linear unit driven by x=0 turns SSE into (b - 3)^2: the
    # weight gradient is identically zero and only the bias moves.
    topology = Topology((1, 1), ("linear",))
    params0 = np.array([0.25, 0.0])
    x = np.zeros((1, 1))
    y = np.full((1, 1), 3.0)
    return topology, params0, x, y


def hand_rolled_adam_bias(b0, epochs, alpha, beta1=0.9, beta2=0.999, eps=1e-8):
    b, m, v = b0, 0.0, 0.0
    for t in range(1, epochs + 1):
        g = 2.0 * (b - 3.0)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        b = b - alpha * m_hat / (math.sqrt(v_hat) + eps)
    return b


# ---------------------------------------------------------------- adam_step


def test_fresh_state_is_zeroed():
    state = AdamState.fresh(4, alpha=0.01)
    assert state.t == 0
    assert not state.m.any() and not state.v.any()
    assert state.alpha == 0.01


def test_fresh_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        AdamState.fresh(3, alpha=0.0)


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=20, deadline=None)
def test_zero_gradient_is_identity_at_any_step_count(n_steps):
    params = np.array([1.0, -2.0, 0.5])
    state = AdamState.fresh(3, alpha=0.1)
    for _ in range(n_steps):
        params, state = adam_step(params, np.zeros(3), state)
    assert np.array_equal(params, np.array([1.0, -2.0, 0.5]))
    assert state.t == n_steps


@pytest.mark.parametrize("g", [1.0, 4.0, -0.3, 1e-6])
def test_first_step_moves_by_corrected_ratio(g):
    # after bias correction m_hat = g and v_hat = g^2, so the first update
    # is -alpha * g / (|g| + eps) regardless of gradient magnitude
    state = AdamState.fresh(1, alpha=0.002)
    new_params, new_state = adam_step(np.zeros(1), np.array([g]), state)
    assert new_params[0] == pytest.approx(-0.002 * g / (abs(g) + 1e-8), rel=1e-14)
    assert new_state.t == 1


def test_adam_step_leaves_inputs_alone():
    params = np.array([1.0, 2.0])
    grad = np.array([0.3, -0.1])
    state = AdamState.fresh(2, alpha=0.05)
    params_before, grad_before = params.copy(), grad.copy()
    adam_step(params, grad, state)
    assert np.array_equal(params, params_before)
    assert np.array_equal(grad, grad_before)
    assert state.t == 0 and not state.m.any()


def test_adam_step_shape_mismatch_rejected():
    state = AdamState.fresh(2, alpha=0.01)
    with pytest.raises(ValueError):
        adam_step(np.zeros(3), np.zeros(3), state)
    with pytest.raises(ValueError):
        adam_step(np.zeros(2), np.zeros(3), state)


# ---------------------------------------------------------------- train_adam


def test_quadratic_matches_hand_rolled_recurrence_exactly():
    topology, params0, x, y = quadratic_problem()
    report = train_adam(topology, params0, x, y, x, y, "sse", epochs=5000, alpha=0.002)
    assert report.final_params[1] == hand_rolled_adam_bias(0.0, 5000, 0.002)
    assert report.final_params[0] == 0.25  # zero-gradient direction never moves
    assert abs(report.final_params[1] - 3.0) < 1e-3
    assert report.train_losses.shape == (5000,)
    assert report.epochs == 5000


def test_losses_are_recorded_after_each_update():
    topology, params0, x, y = quadratic_problem()
    report = train_adam(topology, params0, x, y, x, y, "sse", epochs=2, alpha=0.01)
    _, g0 = net.Evaluator(topology, "sse", x, y).loss_and_gradient(params0)
    after_first, _ = adam_step(params0, g0, AdamState.fresh(2, alpha=0.01))
    assert report.train_losses[0] == net.loss(
        "sse", net.forward(topology, after_first, x), y
    )
    assert report.train_losses[-1] == net.loss(
        "sse", net.forward(topology, report.final_params, x), y
    )


def test_penultimate_is_the_previous_iterate():
    topology, params0, x, y = quadratic_problem()
    long = train_adam(topology, params0, x, y, x, y, "sse", epochs=6, alpha=0.01)
    short = train_adam(topology, params0, x, y, x, y, "sse", epochs=5, alpha=0.01)
    assert np.array_equal(long.penultimate_params, short.final_params)
    assert not np.array_equal(long.penultimate_params, long.final_params)


def test_train_adam_is_deterministic():
    topology = Topology((2, 8, 1), ("tanh", "linear"))
    params0 = net.init_glorot_normal(topology, seeding.child_seed(5, "weights"))
    rng = seeding.generator(11)
    x = rng.normal(size=(10, 2))
    y = rng.normal(size=(10, 1))
    a = train_adam(topology, params0, x, y, x, y, "mse", epochs=40, alpha=0.01)
    b = train_adam(topology, params0, x, y, x, y, "mse", epochs=40, alpha=0.01)
    assert np.array_equal(a.final_params, b.final_params)
    assert np.array_equal(a.train_losses, b.train_losses)


def test_train_adam_fits_small_regression_set():
    # eight random points, enough parameters to interpolate: the training
    # loss must fall by orders of magnitude
    topology = Topology((1, 16, 1), ("tanh", "linear"))
    params0 = net.init_glorot_normal(topology, seeding.child_seed(2, "weights"))
    rng = seeding.generator(3)
    x = np.linspace(-1, 1, 8)[:, None]
    y = rng.normal(size=(8, 1))
    report = train_adam(topology, params0, x, y, x, y, "sse", epochs=3000, alpha=0.01)
    assert report.train_losses[-1] < 1e-3 * report.train_losses[0]
    assert np.all(np.isfinite(report.test_losses))


def test_fewer_than_two_epochs_rejected():
    topology, params0, x, y = quadratic_problem()
    with pytest.raises(ValueError, match="epochs"):
        train_adam(topology, params0, x, y, x, y, "sse", epochs=1, alpha=0.01)


def test_params0_shape_checked():
    topology, _, x, y = quadratic_problem()
    with pytest.raises(ValueError, match="shape"):
        train_adam(topology, np.zeros(5), x, y, x, y, "sse", epochs=2, alpha=0.01)


def test_divergent_run_raises_with_epoch_number():
    topology, params0, x, y = quadratic_problem()
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="epoch 1"):
        train_adam(topology, params0, x, y, x, y, "sse", epochs=2, alpha=1e200)


# one epoch per block (each epoch alone), epoch 10 inside a block, one block
ADAM_BLOCKS = (1, 4, 64)


def crafted_evaluator(fail):
    """An Evaluator for :func:`train_adam` whose gradient is one everywhere,
    so with alpha 1 the iterate of epoch n has params[0] close to -n, and
    whose quantities fail from the epochs in ``fail``: ``{"gradient" |
    "train outputs" | "train value" | "test outputs" | "test value": epoch}``.
    The train set has three rows, the test set two."""

    class Crafted:
        def __init__(self, topology, kind, inputs, targets):
            self.inputs = np.asarray(inputs)
            self.name = "train" if len(inputs) == 3 else "test"

        def gradient(self, x):  # epoch n's gradient is taken at epoch n-1's iterate
            if "gradient" in fail and x[0] < 1.5 - fail["gradient"]:
                raise NonFiniteError("boom")
            return np.ones_like(x)

        def losses(self, stack):
            def late(quantity):
                if quantity not in fail:
                    return np.zeros(len(stack), dtype=bool)
                return stack[:, 0] < 0.5 - fail[quantity]

            if late(f"{self.name} outputs").any():
                raise NonFiniteError("non-finite network outputs")
            values = np.zeros(len(stack))
            values[late(f"{self.name} value")] = math.inf
            return values

    return Crafted


def crafted_adam(monkeypatch, fail, block):
    topology = Topology((1, 1), ("linear",))
    monkeypatch.setattr(net, "Evaluator", crafted_evaluator(fail))
    monkeypatch.setattr(net, "CHUNK_VALUES", 3 * block)  # block epochs per stacked call
    return train_adam(
        topology, np.zeros(2), np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((2, 1)),
        np.zeros((2, 1)), "sse", 20, 1.0,
    )


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("block", ADAM_BLOCKS)
@pytest.mark.parametrize(
    "fail,message",
    [
        ({"gradient": 10}, "non-finite gradient in epoch 10: boom"),
        ({"train outputs": 10}, "non-finite train loss in epoch 10: non-finite network outputs"),
        ({"test outputs": 10}, "non-finite test loss in epoch 10: non-finite network outputs"),
        ({"train value": 10}, "non-finite train loss in epoch 10$"),
        # within an epoch: train outputs, test outputs, train value
        ({"train outputs": 10, "test outputs": 10}, "train loss in epoch 10: "),
        ({"train value": 10, "test outputs": 10}, "test loss in epoch 10: "),
        # the earliest epoch first; an epoch's gradient before its losses
        ({"test outputs": 11, "train value": 10}, "train loss in epoch 10$"),
        ({"train value": 9, "gradient": 11}, "train loss in epoch 9$"),
        ({"gradient": 10, "train outputs": 10}, "gradient in epoch 10: boom"),
    ],
)
def test_adam_held_epochs_raise_the_first_error_of_an_epoch_by_epoch_loop(
    monkeypatch, use_cores, forks, fail, message, block, cores
):
    use_cores(cores)
    with pytest.raises(NonFiniteError, match=message):
        crafted_adam(monkeypatch, fail, block)
    # the epochs' losses go to a helper wherever 20 epochs are more than a block
    assert len(forks) == (cores > 1 and block < 20)
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("block", ADAM_BLOCKS)
def test_adam_records_a_nonfinite_test_value(monkeypatch, block):
    report = crafted_adam(monkeypatch, {"test value": 10}, block)
    np.testing.assert_array_equal(report.train_losses, np.zeros(20))
    np.testing.assert_array_equal(report.test_losses, [0.0] * 9 + [math.inf] * 11)
    assert -20.0 < report.final_params[0] < -19.99


# ----------------------------------------------------------------- handoff


@given(st.floats(min_value=1e-6, max_value=10.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_velocity_estimate_is_displacement_over_gamma(gamma):
    rng = seeding.generator(7)
    x_last = rng.normal(size=12)
    x_prev = rng.normal(size=12)
    assert np.array_equal(
        velocity_estimate(x_last, x_prev, gamma), (x_last - x_prev) / gamma
    )


def test_velocity_estimate_rejects_bad_inputs():
    with pytest.raises(ValueError, match="gamma"):
        velocity_estimate(np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="shape"):
        velocity_estimate(np.zeros(3), np.zeros(4), 0.1)


def test_retrofit_init_hands_off_bit_for_bit():
    topology, params0, x, y = quadratic_problem()
    report = train_adam(topology, params0, x, y, x, y, "sse", epochs=50, alpha=0.01)
    state = retrofit_init(
        report.final_params, report.penultimate_params, gamma=0.01,
        chain_length=3, chain_mass=2.5, particle_mass=1.5,
    )

    assert np.array_equal(state.positions, report.final_params)
    assert state.positions is not report.final_params
    expected_v = (report.final_params - report.penultimate_params) / 0.01
    assert np.array_equal(state.velocities, expected_v)
    assert state.step_index == 0
    assert float(state.masses) == 1.5

    # thermostat starts at rest with the requested shape
    assert state.chain.positions.shape == (3,)
    assert not state.chain.positions.any() and not state.chain.velocities.any()
    assert np.all(state.chain.masses == 2.5)


def test_retrofit_init_copies_do_not_alias_the_report():
    topology, params0, x, y = quadratic_problem()
    report = train_adam(topology, params0, x, y, x, y, "sse", epochs=10, alpha=0.01)
    pristine = report.final_params.copy()
    state = retrofit_init(
        report.final_params, report.penultimate_params, gamma=0.01,
        chain_length=2, chain_mass=1.0, particle_mass=1.0,
    )
    state.positions[0] = 99.0
    assert np.array_equal(report.final_params, pristine)
