"""Ensembles of sampled parameter vectors and their aggregate predictions.

A bundle stores raw parameter snapshots, never predictions; members are
re-evaluated on demand.  Every prediction takes a sequence of bundles (one
per replicate, in replicate order) and reduces over one walk of their
members in storage order.  The walk evaluates consecutive members a chunk
at a time, one stacked :func:`net.forward` per chunk, whose size is fixed
by the input row count and the topology alone.  A stacked forward gives
each member the bits its own forward would, and regression sums still add
one member at a time into a single running total, so results are
bit-stable and depend neither on the chunking nor on whether the members
sit in one bundle or several.

Vote proportions are quantized onto a 2**52 grid with largest-remainder
rounding.  Each fraction is then an exact multiple of 2**-52 and every
partial sum is exactly representable, so the per-input class proportions
sum to exactly 1.0 in any summation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, net, seeding
from .data import ScalerParams
from .dynamics import Trajectory
from .net import Topology

_GRID = 1 << 52
# float budget of one stacked forward's widest layer output; see chunk_size
CHUNK_VALUES = 1 << 16


@dataclass(frozen=True)
class SamplingPlan:
    """Which trajectory records become ensemble members.

    Records from the first ``burn_in`` iterations are discarded, the
    remainder is stride-thinned, and ``fraction`` of those (if < 1) is
    drawn uniformly without replacement under the plan seed and replicate
    index (so replicated runs subsample independently).  The choice
    depends on nothing the integrator computes, so it is made before
    integrating and only the members' states are ever captured.
    """

    total_iterations: int
    burn_in: int
    stride: int = 1
    fraction: float = 1.0
    seed: int = 0
    replicate: int = 0

    def __post_init__(self):
        if self.total_iterations < 1:
            raise ValueError("total_iterations must be >= 1")
        if not 0 <= self.burn_in < self.total_iterations:
            raise ValueError("burn_in must lie in [0, total_iterations)")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        if self.replicate < 0:
            raise ValueError("replicate must be >= 0")

    def steps(self) -> np.ndarray:
        """Sorted 0-based record indices of the members."""
        window = np.arange(self.burn_in, self.total_iterations, self.stride, dtype=np.int64)
        if self.fraction == 1.0:
            return window
        n_keep = int(round(window.size * self.fraction))
        if n_keep < 1:
            raise ValueError(f"fraction {self.fraction} of {window.size} snapshots keeps none")
        rng = seeding.stream(self.seed, "subsample", self.replicate)
        return window[np.sort(rng.choice(window.size, size=n_keep, replace=False))]


@dataclass
class EnsembleBundle:
    """Sampled parameter vectors plus everything needed to predict."""

    members: np.ndarray        # (M, N) parameter vectors
    iterations: np.ndarray     # (M,) 1-based capture iteration
    temperatures: np.ndarray   # (M,) target temperature at capture
    topology: Topology
    scaler: ScalerParams

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=np.float64)
        self.iterations = np.asarray(self.iterations, dtype=np.int64)
        self.temperatures = np.asarray(self.temperatures, dtype=np.float64)
        if self.members.ndim != 2 or self.members.shape[0] < 1:
            raise ValueError("a bundle needs at least one member")
        if self.members.shape[1] != self.topology.param_count:
            raise ValueError(
                f"member length {self.members.shape[1]} does not match "
                f"topology parameter count {self.topology.param_count}"
            )
        m = self.members.shape[0]
        if self.iterations.shape != (m,) or self.temperatures.shape != (m,):
            raise ValueError("iterations and temperatures must align with members")
        if (self.temperatures < 0).any():
            raise ValueError("capture temperatures must be >= 0")

    @property
    def n_members(self) -> int:
        return int(self.members.shape[0])


def collect(
    trajectory: Trajectory,
    plan: SamplingPlan,
    topology: Topology,
    scaler: ScalerParams,
) -> EnsembleBundle:
    """Pick the plan's members out of the trajectory's snapshots.

    A trajectory that captured exactly ``plan.steps()`` hands its snapshot
    matrix to the bundle as is, without a copy.
    """
    if len(trajectory) != plan.total_iterations:
        raise ValueError(
            f"plan describes {plan.total_iterations} iterations but the "
            f"trajectory has {len(trajectory)}"
        )
    steps = plan.steps()
    captured = trajectory.snapshot_positions
    if np.array_equal(captured, steps):
        members = trajectory.snapshots
    else:
        missing = np.setdiff1d(steps, captured)
        if missing.size:
            raise ValueError(
                f"no snapshot survives at record {missing[0]}, which the plan keeps"
            )
        members = trajectory.snapshots[np.searchsorted(captured, steps)]
    return EnsembleBundle(
        members=members,
        iterations=steps + 1,
        temperatures=trajectory.temperature[steps],
        topology=topology,
        scaler=scaler,
    )


def chunk_size(topology: Topology, n_rows: int) -> int:
    """Members per stacked forward over ``n_rows`` inputs.

    Fixed by shapes alone, so the chunks, and with them the bytes, never
    depend on the machine: each chunk's widest layer output holds about
    ``CHUNK_VALUES`` floats, and at least one member.
    """
    return max(1, CHUNK_VALUES // max(1, n_rows * max(topology.layer_sizes)))


def _member_outputs(bundles, inputs):
    """Yield ``(bundle, outputs)`` per chunk of members, in storage order.

    The one walk behind every ensemble prediction.  ``outputs`` is the
    ``(chunk, samples, outputs)`` array of one stacked :func:`net.forward`
    over consecutive members of ``bundle``.  ``bundles`` is taken in order
    and consumed once, so replicate bundles read lazily never sit in memory
    together.  They must share one topology and one scaler; the inputs are
    scaled once, by that scaler.
    """
    first = None
    for bundle in bundles:
        if first is None:
            first = bundle
            scaled = _scaled_inputs(bundle, inputs)
            step = chunk_size(bundle.topology, scaled.shape[0])
        elif bundle.topology != first.topology:
            raise ValueError("cannot pool bundles with different topologies")
        elif not all(
            np.array_equal(value, getattr(first.scaler, name))
            for name, value in vars(bundle.scaler).items()
        ):
            raise ValueError("cannot pool bundles with different scalers")
        for lo in range(0, bundle.n_members, step):
            yield bundle, net.forward(bundle.topology, bundle.members[lo : lo + step], scaled)
    if first is None:
        raise ValueError("nothing to pool")


def _scaled_inputs(bundle: EnsembleBundle, inputs) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError("inputs must be a 2-D (samples, features) array")
    return data.scale_features(bundle.scaler, inputs)


def member_predictions(bundles, inputs) -> np.ndarray:
    """(members, samples, outputs) array of every member's predictions.

    Rows are in original target units.  A classifier's targets are not
    scaled, so its rows are the raw outputs that
    :func:`net.class_labels_from_outputs` turns into labels.
    """
    return np.concatenate(
        [data.unscale_targets(b.scaler, out) for b, out in _member_outputs(bundles, inputs)]
    )


def regression_mean(bundles, inputs) -> np.ndarray:
    """Pointwise mean of member predictions, in original target units."""
    # one member at a time into one running total, so the sum's rounding
    # does not depend on the chunking
    total, n = 0.0, 0
    for bundle, outputs in _member_outputs(bundles, inputs):
        for row in data.unscale_targets(bundle.scaler, outputs):
            total = total + row
        n += outputs.shape[0]
    return total / n


def n_vote_classes(topology: Topology) -> int:
    # a single logit output is a two-class decision thresholded at 0
    k = topology.layer_sizes[-1]
    return 2 if k == 1 else k


def vote_counts(bundles, inputs) -> np.ndarray:
    """Integer (samples, classes) tally of member argmax votes."""
    counts = 0
    for bundle, outputs in _member_outputs(bundles, inputs):
        one_hot = np.eye(n_vote_classes(bundle.topology), dtype=np.int64)
        counts = counts + one_hot[net.class_labels_from_outputs(outputs)].sum(axis=0)
    return counts


def majority_vote(bundles, inputs) -> np.ndarray:
    """Most-voted class per input; ties go to the lowest class index."""
    return np.argmax(vote_counts(bundles, inputs), axis=1)


def _exact_fraction_row(counts_row, total: int) -> list[float]:
    # largest-remainder apportionment of 2**52 grid cells; every result is
    # an exact multiple of 2**-52 so the row sums to exactly 1.0
    scaled = [int(c) * _GRID for c in counts_row]
    base = [s // total for s in scaled]
    leftover = _GRID - sum(base)
    order = sorted(range(len(base)), key=lambda i: (-(scaled[i] % total), i))
    for i in order[:leftover]:
        base[i] += 1
    return [b / _GRID for b in base]


def vote_proportions(bundles, inputs) -> np.ndarray:
    """Per-input class vote fractions; each row sums to exactly 1.0."""
    counts = vote_counts(bundles, inputs)
    # every row of the tally sums to the member count
    return np.array([_exact_fraction_row(row, int(row.sum())) for row in counts])


def decision_grid(bundles, bounds, resolution: int):
    """Vote proportions on a rectangular grid over a 2-D feature space.

    Returns (x_values, y_values, proportions) with proportions indexed as
    [ix, iy, class] at the node (x_values[ix], y_values[iy]).
    """
    bundles = list(bundles)
    if any(b.topology.layer_sizes[0] != 2 for b in bundles):
        raise ValueError("decision grids need a 2-feature input space")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    x_values = np.linspace(x_lo, x_hi, resolution)
    y_values = np.linspace(y_lo, y_hi, resolution)
    gx, gy = np.meshgrid(x_values, y_values, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()])
    props = vote_proportions(bundles, points)
    return x_values, y_values, props.reshape(resolution, resolution, -1)
