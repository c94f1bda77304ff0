"""Metric and Hessian-probe tests, including scipy cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simmering import net, seeding
from simmering.diagnostics import (
    accuracy,
    fd_hessian,
    hessian_spectrum,
    mse,
    spectrum_from_gradient,
)
from simmering.net import Topology


# ------------------------------------------------------------ metrics


def test_perfect_predictions():
    t = np.array([[1.0], [2.0], [3.0]])
    assert mse(t, t) == 0.0


def test_metrics_match_loop_oracle():
    rng = seeding.generator(8)
    p = rng.normal(size=(40, 2))
    t = rng.normal(size=(40, 2))
    loop_sse = sum((p[i, j] - t[i, j]) ** 2 for i in range(40) for j in range(2))
    assert mse(p, t) == pytest.approx(loop_sse / 80, rel=1e-12)


@given(st.permutations(list(range(12))))
@settings(max_examples=25, deadline=None)
def test_metrics_permutation_invariant(order):
    rng = seeding.generator(4)
    p = rng.normal(size=12)
    t = rng.normal(size=12)
    idx = np.array(order)
    assert mse(p, t) == pytest.approx(mse(p[idx], t[idx]), rel=1e-12)
    labels_p = (p > 0).astype(int)
    labels_t = (t > 0).astype(int)
    assert accuracy(labels_p, labels_t) == accuracy(labels_p[idx], labels_t[idx])


def test_metric_errors():
    with pytest.raises(ValueError, match="shape"):
        mse(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="shapes differ"):
        accuracy(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="empty"):
        accuracy(np.zeros(0), np.zeros(0))


def test_accuracy_values():
    assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0
    assert accuracy(np.array([0, 1, 2]), np.array([1, 2, 0])) == 0.0
    half = np.arange(38) % 2
    assert accuracy(half, np.zeros(38, dtype=int)) == 19 / 38


# ------------------------------------------------------------ fd hessian


def test_separable_quadratic_eigenvalues_exact():
    # loss 0.5*(x^2 + 100 y^2): gradient is linear so central differences
    # are exact up to rounding
    def grad_fn(p):
        return np.array([p[0], 100.0 * p[1]])

    report = spectrum_from_gradient(grad_fn, np.array([0.3, -0.7]))
    np.testing.assert_allclose(report.eigenvalues, [100.0, 1.0], rtol=0, atol=1e-6)
    assert report.max_asymmetry < 1e-8


def test_single_parameter_quadratic():
    def grad_fn(p):
        return 3.5 * p

    report = spectrum_from_gradient(grad_fn, np.array([1.0]))
    assert report.eigenvalues.shape == (1,)
    assert report.eigenvalues[0] == pytest.approx(3.5, abs=1e-6)


def test_non_finite_hessian_is_a_non_finite_error():
    # the central difference across a jump of 2e308 overflows to inf; the
    # CLI reports a NonFiniteError as one JSON error line
    def grad_fn(p):
        return np.where(p > 0.3, 1e308, -1e308)

    with np.errstate(over="ignore"), pytest.raises(net.NonFiniteError, match="non-finite"):
        spectrum_from_gradient(grad_fn, np.array([0.3]))


def test_rotated_quadratic_against_analytic_spectrum():
    # H = R diag(2, 50) R^T for a rotation R: eigenvalues survive rotation
    theta = 0.4
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    h_true = rot @ np.diag([2.0, 50.0]) @ rot.T

    report = spectrum_from_gradient(lambda p: h_true @ p, np.array([0.1, 0.2]))
    np.testing.assert_allclose(report.eigenvalues, [50.0, 2.0], rtol=0, atol=1e-6)


def test_network_quadratic_spectrum():
    # single linear unit fed x=0: loss (b-3)^2 has curvature 2 along the
    # bias and 0 along the inert weight
    topology = Topology((1, 1), ("linear",))
    x = np.zeros((1, 1))
    y = np.full((1, 1), 3.0)
    report = hessian_spectrum(topology, np.array([0.25, 1.0]), x, y, "sse")
    np.testing.assert_allclose(report.eigenvalues, [2.0, 0.0], rtol=0, atol=1e-6)


def test_symmetrization_and_raw_asymmetry_reported():
    topology = Topology((2, 5, 1), ("tanh", "linear"))
    params = net.init_glorot_normal(topology, seeding.child_seed(0, "weights"))
    rng = seeding.generator(1)
    x = rng.normal(size=(12, 2))
    y = rng.normal(size=(12, 1))
    hess, asym = fd_hessian(
        lambda p: net.Evaluator(topology, "sse", x, y).gradient(p), params
    )
    assert np.array_equal(hess, hess.T)
    assert asym < 1e-5


def test_spectrum_matches_scipy_on_full_network_hessian():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    topology = Topology((1, 6, 1), ("tanh", "linear"))
    params = net.init_glorot_normal(topology, seeding.child_seed(3, "weights"))
    rng = seeding.generator(5)
    x = rng.uniform(-1, 1, size=(9, 1))
    y = rng.normal(size=(9, 1))
    hess, _ = fd_hessian(lambda p: net.Evaluator(topology, "sse", x, y).gradient(p), params)
    mine = hessian_spectrum(topology, params, x, y, "sse").eigenvalues
    reference = np.sort(scipy_linalg.eigvalsh(hess))[::-1]
    np.testing.assert_allclose(mine, reference, rtol=1e-10, atol=1e-12)


def test_parameter_cap_enforced():
    topology = Topology((1, 100, 1), ("tanh", "linear"))  # 301 params
    params = np.zeros(topology.param_count)
    with pytest.raises(ValueError, match="cap"):
        hessian_spectrum(topology, params, np.zeros((2, 1)), np.zeros((2, 1)), "sse")


def test_overfit_sine_network_has_wide_eigenvalue_spread():
    # fit 8 noisy points with a 31-parameter net, then probe the loss
    # curvature at the endpoint: overparameterized fits show directions
    # that are orders of magnitude stiffer than others
    from simmering.optimize import train_adam

    topology = Topology((1, 10, 1), ("tanh", "linear"))
    rng = seeding.generator(12)
    x = np.linspace(-1, 1, 8)[:, None]
    y = np.sin(2 * np.pi * x) + 0.1 * rng.standard_normal((8, 1))
    params0 = net.init_glorot_normal(topology, seeding.child_seed(12, "weights"))
    report = train_adam(topology, params0, x, y, x, y, "sse", epochs=4000, alpha=0.01)

    spectrum = hessian_spectrum(topology, report.final_params, x, y, "sse").eigenvalues
    magnitudes = np.abs(spectrum)
    spread = magnitudes.max() / max(magnitudes.min(), 1e-300)
    assert spread >= 1e4
