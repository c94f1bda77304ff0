"""Adam baseline training and the optimizer-to-dynamics handoff.

Training is full batch: one epoch is exactly one Adam update on the whole
training split.  The report keeps the last two parameter iterates so a
finite-temperature run can be warm-started from the optimizer endpoint with
the velocity read off the last optimizer displacement:

    v = (x_final - x_penultimate) / gamma

where gamma is the Adam learning rate that produced the displacement.
The recorded losses of each epoch are computed a block of epochs at a
time, by the integrator's loss recorder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import net
from .dynamics import LossBlock, PhaseState, ThermostatChain, _named, _raise_named
from .net import NonFiniteError, Topology


# Adam's moment decay rates and denominator guard, the usual defaults
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second gradient moments plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int
    alpha: float

    @classmethod
    def fresh(cls, n_params: int, alpha: float) -> "AdamState":
        if alpha <= 0.0:
            raise ValueError("alpha must be > 0")
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), t=0, alpha=alpha)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; pure."""
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError("params, gradient and moment shapes must match")
    t = state.t + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grad
    v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    new_params = params - state.alpha * m_hat / (np.sqrt(v_hat) + EPS)
    return new_params, AdamState(m=m, v=v, t=t, alpha=state.alpha)


@dataclass
class AdamReport:
    """Loss curves and the last two iterates of a full-batch Adam run."""

    train_losses: np.ndarray
    test_losses: np.ndarray
    final_params: np.ndarray
    penultimate_params: np.ndarray
    epochs: int


def train_adam(
    topology: Topology,
    params0: np.ndarray,
    train_inputs: np.ndarray,
    train_targets: np.ndarray,
    test_inputs: np.ndarray,
    test_targets: np.ndarray,
    loss_kind: str,
    epochs: int,
    alpha: float,
) -> AdamReport:
    """Full-batch Adam for `epochs` updates.

    Losses are recorded after each update, so row ``i`` describes the
    iterate produced by epoch ``i+1`` and the last row matches
    ``final_params``.  A :class:`~simmering.dynamics.LossBlock` records
    them a block of :func:`net.chunk_size` epochs at a time.  At least two
    epochs are required so the penultimate iterate exists.

    A :class:`NonFiniteError` names the quantity and the epoch; of each
    epoch, in this order: gradient, train loss outputs, test loss
    outputs, train loss value.
    """
    if epochs < 2:
        raise ValueError("epochs must be >= 2 (the handoff needs the last two iterates)")
    params = np.asarray(params0, dtype=np.float64).copy()
    if params.shape != (topology.param_count,):
        raise ValueError(
            f"params0 must have shape ({topology.param_count},), got {params.shape}"
        )
    train = net.Evaluator(topology, loss_kind, train_inputs, train_targets)
    test = net.Evaluator(topology, loss_kind, test_inputs, test_targets)
    state = AdamState.fresh(topology.param_count, alpha)
    train_losses = np.empty(epochs)
    test_losses = np.empty(epochs)

    def fill(lo, results, parts):
        (train_values, train_errors), (test_values, test_errors) = results
        c = train_values.shape[0]
        if train_errors or test_errors or not np.isfinite(train_values).all():
            for j in range(c):
                n = lo + j + 1  # 1-based, as in losses.csv
                _raise_named(train_errors.get(j), "train loss", n, "epoch")
                _raise_named(test_errors.get(j), "test loss", n, "epoch")
                if not math.isfinite(train_values[j]):
                    raise NonFiniteError(f"non-finite train loss in epoch {n}")
        train_losses[lo : lo + c] = train_values
        test_losses[lo : lo + c] = test_values

    rows = net.chunk_size(topology, max(train.inputs.shape[0], test.inputs.shape[0]))
    fns = (train.losses, test.losses)
    with LossBlock(fns, topology.param_count, min(rows, epochs), fill, epochs) as losses:
        prev = params
        for epoch in range(epochs):
            try:
                grad = _named(train.gradient, params, "gradient", epoch + 1, "epoch")
            except Exception:
                losses.flush()  # the held epochs' errors come first
                raise
            prev = params
            params, state = adam_step(params, grad, state)
            losses.push(params)
        losses.flush()
    return AdamReport(
        train_losses=train_losses,
        test_losses=test_losses,
        final_params=params,
        penultimate_params=prev,
        epochs=epochs,
    )


def velocity_estimate(x_last: np.ndarray, x_prev: np.ndarray, gamma: float) -> np.ndarray:
    """Finite-difference velocity of the last optimizer displacement."""
    if gamma <= 0.0:
        raise ValueError("gamma must be > 0")
    x_last = np.asarray(x_last, dtype=np.float64)
    x_prev = np.asarray(x_prev, dtype=np.float64)
    if x_last.shape != x_prev.shape:
        raise ValueError("snapshot shapes must match")
    return (x_last - x_prev) / gamma


def retrofit_init(
    final_params: np.ndarray,
    penultimate_params: np.ndarray,
    gamma: float,
    chain_length: int,
    chain_mass: float,
    particle_mass: float,
) -> PhaseState:
    """Phase-space start for simmering from an Adam endpoint.

    Positions are the final Adam iterate (the same bits, copied), velocities
    the last-displacement estimate from the last two iterates, and the
    thermostat chain starts at rest.
    """
    velocities = velocity_estimate(final_params, penultimate_params, gamma)
    return PhaseState(
        positions=final_params.copy(),
        velocities=velocities,
        masses=float(particle_mass),
        chain=ThermostatChain.rest(chain_length, mass=chain_mass),
        step_index=0,
    )
