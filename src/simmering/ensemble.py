"""Ensembles of sampled parameter vectors and their aggregate predictions.

The member choice is made once, before integrating:
:meth:`SamplingPlan.steps` draws the record indices, the integrator
captures only those states, and :func:`collect` turns what it captured
into a bundle.

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

Memory: the walk computes every chunk's hidden layers in buffers it
allocates once, and it takes the bundles one at a time, so bundles read
lazily from a run directory are held one at a time.  :func:`evaluate`
computes all of a run's predictions in one pass over its bundles.

Vote tallies and member rows are exact in any split of the members, so
:func:`evaluate` gives each bundle of a sequence its own
:func:`parallel.map_in_order` job when it takes no means; means stay in
one process, in walk order.

Vote proportions are quantized onto a 2**52 grid with largest-remainder
rounding.  Each fraction is then an exact multiple of 2**-52 and every
partial sum is exactly representable, so the per-input class proportions
sum to exactly 1.0 in any summation order.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import data, net, parallel, seeding
from .data import ScalerParams
from .dynamics import Trajectory
from .net import Topology

_GRID = 1 << 52
# float budget of one stacked forward's widest layer output; see chunk_size
CHUNK_VALUES = 1 << 16


@dataclass(frozen=True)
class SamplingPlan:
    """Which trajectory records become ensemble members.

    The type a config's ``sampling`` section parses into; the config
    parser checks its ranges, once.  Records from the first ``burn_in``
    iterations are discarded, the remainder is stride-thinned, and
    ``fraction`` of those (if < 1) is drawn uniformly without replacement
    under the run seed and replicate index (so replicated runs subsample
    independently).  The choice depends on nothing the integrator
    computes, so it is made before integrating and only the members'
    states are ever captured.
    """

    burn_in: int
    stride: int = 1
    fraction: float = 1.0

    def window(self, iterations: int) -> tuple[np.ndarray, int]:
        """The record indices left after burn-in and stride, and how many
        of them :meth:`steps` keeps."""
        window = np.arange(self.burn_in, iterations, self.stride, dtype=np.int64)
        return window, int(round(window.size * self.fraction))

    def steps(self, iterations: int, seed: int, replicate: int) -> np.ndarray:
        """Sorted 0-based record indices of the members of one run."""
        window, n_keep = self.window(iterations)
        if self.fraction == 1.0:
            return window
        rng = seeding.stream(seed, "subsample", replicate)
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


def collect(trajectory: Trajectory, topology: Topology, scaler: ScalerParams) -> EnsembleBundle:
    """The bundle of the members ``trajectory`` kept.

    The trajectory captured only the members' states, at the records
    :meth:`SamplingPlan.steps` chose, so its snapshot matrix becomes the
    bundle's members as is, without a copy.
    """
    positions = trajectory.snapshot_positions
    return EnsembleBundle(
        members=trajectory.snapshots,
        iterations=positions + 1,
        temperatures=trajectory.temperature[positions],
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


def _member_outputs(bundles, input_sets):
    """Yield ``(bundle, k, outputs)`` per chunk of members, bundle by bundle.

    The one walk behind every ensemble prediction.  ``bundles`` is taken in
    order and consumed once, and the walk drops each bundle before it takes
    the next, so replicate bundles read lazily are held one at a time.
    They must share one topology and one scaler; every input set is scaled
    once, by that scaler.  Each bundle's members are walked over input set
    ``k = 0, 1, ...`` in turn, in storage order, and ``outputs`` is the
    ``(chunk, samples, outputs)`` array of one stacked :func:`net.forward`
    over consecutive members on set ``k``.

    Each set's hidden layers are computed in buffers allocated once per
    walk for ``min(chunk, members)`` members (and again, larger, only if a
    later bundle has more), so no chunk allocates hidden-layer arrays of
    its own.  The output layer is a fresh array, so no two yielded
    ``outputs`` share memory.
    """
    pool = None
    for bundle in bundles:
        if pool is None:
            pool = bundle.topology, bundle.scaler
            scaled = [_scaled_inputs(bundle, inputs) for inputs in input_sets]
            steps = [chunk_size(bundle.topology, x.shape[0]) for x in scaled]
            hidden = [(0, []) for _ in scaled]
        else:
            _check_poolable(*pool, bundle)
        for k, x in enumerate(scaled):
            for lo in range(0, bundle.n_members, steps[k]):
                members = bundle.members[lo : lo + steps[k]]
                c = members.shape[0]
                if hidden[k][0] < c:
                    widths = bundle.topology.layer_sizes[1:-1]
                    hidden[k] = c, [np.empty((c, x.shape[0], w)) for w in widths]
                buffers = [h[:c] for h in hidden[k][1]]
                yield bundle, k, net.forward(bundle.topology, members, x, buffers)
        bundle = members = None  # hold no bundle while the next one is read
    if pool is None:
        raise ValueError("nothing to pool")


def _check_poolable(topology, scaler, other):
    """Refuse to pool ``other`` (it has a topology and a scaler) with the rest."""
    if other.topology != topology:
        raise ValueError("cannot pool bundles with different topologies")
    if not all(
        np.array_equal(value, getattr(scaler, name)) for name, value in vars(other.scaler).items()
    ):
        raise ValueError("cannot pool bundles with different scalers")


def _scaled_inputs(bundle: EnsembleBundle, inputs) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError("inputs must be a 2-D (samples, features) array")
    return data.scale_features(bundle.scaler, inputs)


def n_vote_classes(topology: Topology) -> int:
    # a single logit output is a two-class decision thresholded at 0
    k = topology.layer_sizes[-1]
    return 2 if k == 1 else k


@dataclass
class Evaluation:
    """An ensemble's predictions on input sets, one entry per requested set."""

    topology: Topology
    scaler: ScalerParams
    n_members: int
    means: list    # (samples, outputs) pointwise member mean, original target units
    members: list  # (members, samples, outputs) every member's rows, original target units
    votes: list    # (samples, classes) integer tally of member argmax votes


def evaluate(bundles, means=(), members=(), votes=()) -> Evaluation:
    """Pool ``bundles`` (one per replicate, in replicate order) on input sets.

    ``means``, ``members`` and ``votes`` are lists of 2-D input arrays.
    For each set the result holds the pointwise mean of the members'
    predictions, every member's predictions, or the integer tally of their
    votes.  A classifier's targets are not scaled, so its member rows are
    the raw outputs that :func:`net.class_labels_from_outputs` turns into
    labels.

    Member rows and vote tallies are exact in any split of the members, so
    without means a sequence of bundles is split: each bundle is one
    :func:`parallel.map_in_order` job, looked up by the worker that
    evaluates it (a sequence that reads bundles on demand reads each one
    there), and the parent concatenates the rows and sums the tallies.
    Means add one member at a time into one running total, whose rounding
    thus depends neither on the chunking nor on how the members are split
    into bundles; with means, and for any other iterable, the bundles are
    one serial walk in storage order.  Either way each bundle is walked
    once per input set.
    """
    sets = (list(means), list(members), list(votes))
    if not any(sets):
        raise ValueError("nothing to evaluate")
    if means or not isinstance(bundles, Sequence):
        pooled = _walk(bundles, *sets)
    else:
        parts = parallel.map_in_order(functools.partial(_evaluate_one, sets), bundles)
        if not parts:
            raise ValueError("nothing to pool")
        first = parts[0]
        for part in parts[1:]:
            _check_poolable(first.topology, first.scaler, part)
        pooled = Evaluation(
            first.topology,
            first.scaler,
            sum(part.n_members for part in parts),
            [],
            [np.concatenate([part.members[k] for part in parts]) for k in range(len(members))],
            [sum(part.votes[k] for part in parts) for k in range(len(votes))],
        )
    # member rows are unscaled once every bundle is known to share the scaler
    pooled.members = [data.unscale_targets(pooled.scaler, rows) for rows in pooled.members]
    return pooled


def _evaluate_one(sets, bundle: EnsembleBundle) -> Evaluation:
    return _walk([bundle], *sets)


def _walk(bundles, means, members, votes) -> Evaluation:
    """:func:`evaluate` in one serial walk, with member rows still in model units."""
    n_means, n_rows = len(means), len(means) + len(members)
    totals = [0.0] * len(means)
    rows = [[] for _ in members]
    tallies = [0] * len(votes)
    n = 0
    for bundle, k, outputs in _member_outputs(bundles, [*means, *members, *votes]):
        if n == 0:
            topology, scaler = bundle.topology, bundle.scaler
            one_hot = np.eye(n_vote_classes(topology), dtype=np.int64)
        if k == 0:
            n += outputs.shape[0]
        if k < n_means:
            for row in data.unscale_targets(scaler, outputs):
                totals[k] = totals[k] + row
        elif k < n_rows:
            rows[k - n_means].append(outputs)
        else:
            labels = net.class_labels_from_outputs(outputs)
            tallies[k - n_rows] = tallies[k - n_rows] + one_hot[labels].sum(axis=0)
        del bundle  # hold no bundle while the walk reads the next one
    return Evaluation(
        topology,
        scaler,
        n,
        [total / n for total in totals],
        [np.concatenate(chunks) for chunks in rows],
        tallies,
    )


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


def proportions(counts) -> np.ndarray:
    """Per-input class fractions of an integer vote tally; each row sums to exactly 1.0."""
    # every row of a tally sums to the member count
    return np.array([_exact_fraction_row(row, int(row.sum())) for row in counts])


def grid_nodes(bounds, resolution: int):
    """(x_values, y_values, nodes) of a rectangular grid over a 2-D feature space.

    ``nodes`` lists the ``resolution**2`` points with x varying slowest,
    so node ``ix * resolution + iy`` is ``(x_values[ix], y_values[iy])``.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    x_values = np.linspace(x_lo, x_hi, resolution)
    y_values = np.linspace(y_lo, y_hi, resolution)
    gx, gy = np.meshgrid(x_values, y_values, indexing="ij")
    return x_values, y_values, np.column_stack([gx.ravel(), gy.ravel()])

