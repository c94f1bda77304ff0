"""Fit metrics and a dense finite-difference Hessian spectrum probe.

The spectrum probe differentiates exact gradients with central differences
(one column per coordinate, step 1e-4*(1+|x_j|)), symmetrizes, and reports
the raw asymmetry alongside the eigenvalues so a caller can judge the
estimate.  It is deliberately dense and capped to small parameter counts;
the interesting question at this scale is the spread of eigenvalue
magnitudes, not large-N performance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import net
from .net import Topology

HESSIAN_PARAM_CAP = 200


def mse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean of the squared residuals over every scalar entry."""
    predictions, targets = _paired(predictions, targets)
    diff = predictions - targets
    return float(np.mean(diff * diff))


def accuracy(predicted_labels: np.ndarray, true_labels: np.ndarray) -> float:
    predicted_labels = np.asarray(predicted_labels)
    true_labels = np.asarray(true_labels)
    if predicted_labels.shape != true_labels.shape:
        raise ValueError(
            f"label shapes differ: {predicted_labels.shape} vs {true_labels.shape}"
        )
    if predicted_labels.size == 0:
        raise ValueError("accuracy of an empty label set is undefined")
    return float(np.mean(predicted_labels == true_labels))


def _paired(predictions, targets):
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {targets.shape}")
    return predictions, targets


@dataclass(frozen=True)
class MetricReport:
    """Comparable endpoint-vs-ensemble test metrics for one experiment."""

    metric_kind: str                      # "mse" or "accuracy"
    adam_train_metric: float | None
    adam_test_metric: float | None
    ensemble_test_metric: float | None
    improved: bool | None                 # None when there is no baseline

    def to_dict(self) -> dict:
        return asdict(self)


def fd_hessian(grad_fn, x: np.ndarray):
    """Central-difference Hessian of a gradient oracle.

    Returns (symmetrized H, max raw asymmetry).  Column j uses the step
    1e-4*(1+|x_j|).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    columns = np.empty((n, n))
    for j in range(n):
        h = 1e-4 * (1.0 + abs(x[j]))
        forward = x.copy()
        forward[j] += h
        backward = x.copy()
        backward[j] -= h
        columns[:, j] = (grad_fn(forward) - grad_fn(backward)) / (2.0 * h)
    asymmetry = float(np.max(np.abs(columns - columns.T))) if n > 1 else 0.0
    return 0.5 * (columns + columns.T), asymmetry


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray   # descending
    max_asymmetry: float      # of the raw finite-difference estimate


def spectrum_from_gradient(grad_fn, x: np.ndarray) -> SpectrumReport:
    x = np.asarray(x, dtype=np.float64)
    if x.size > HESSIAN_PARAM_CAP:
        raise ValueError(
            f"{x.size} parameters exceeds the dense-Hessian cap of {HESSIAN_PARAM_CAP}"
        )
    hessian, asymmetry = fd_hessian(grad_fn, x)
    if not np.isfinite(hessian).all():
        raise net.NonFiniteError("finite-difference Hessian contains non-finite entries")
    eigenvalues = np.linalg.eigvalsh(hessian)[::-1]
    return SpectrumReport(eigenvalues=eigenvalues, max_asymmetry=asymmetry)


def hessian_spectrum(
    topology: Topology,
    params: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss_kind: str,
) -> SpectrumReport:
    """Eigenvalues of the loss Hessian at `params`, descending."""
    evaluator = net.Evaluator(topology, loss_kind, inputs, targets)
    # the evaluator overwrites its gradient buffer on every call, and
    # fd_hessian subtracts the results of two calls
    return spectrum_from_gradient(lambda p: evaluator.gradient(p).copy(), params)
