"""Ensembles of sampled parameter vectors and their aggregate predictions.

The member choice is made once, before integrating:
:meth:`SamplingPlan.steps` draws the record indices, the integrator
captures only those states, and :func:`collect` turns what it captured
into a bundle.

A bundle stores raw parameter snapshots, never predictions, and nothing
else: a run has one topology and one scaler, which every prediction takes
once.  Every prediction takes a sequence of ``(M, N)`` member matrices
(one per replicate, in replicate order; a single parameter vector is the
one-member matrix ``params[None]``) and is the :func:`pool` of one walk
per matrix, each in its own :func:`parallel.map_in_order` job.  A walk
evaluates a matrix's consecutive members a chunk at a time, one stacked
:func:`net.forward` per chunk, whose size :func:`net.chunk_size` fixes
from the input row count and the topology alone.  A stacked forward
gives each member the bits its own forward would, and a walk's sums add
one member at a time into a single running total, so a matrix's results
are bit-stable and do not depend on the chunking.  A pool adds its
matrices' totals in replicate order, so its mean depends on how the
members are split into matrices (one per replicate), but neither on the
chunking nor on the core count.

Memory: a member matrix is anything that gives its length and a chunk of
consecutive rows as an array when sliced: an array, or a run's member
file, which the runner reads a chunk of rows at a time.  So a walk holds
one chunk of members, never a whole bundle, and :func:`net.chunk_size`
bounds a chunk's member rows as it bounds its layer outputs.  A walk
computes every chunk's hidden layers in buffers it allocates once per
input set.  :func:`evaluate` computes all of a run's predictions in one
walk per matrix.

Vote proportions are quantized onto a 2**52 grid with largest-remainder
rounding.  Each fraction is then an exact multiple of 2**-52 and every
partial sum is exactly representable, so the per-input class proportions
sum to exactly 1.0 in any summation order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import data, net, parallel, seeding
from .data import ScalerParams
from .dynamics import Trajectory
from .net import Topology

_GRID = 1 << 52


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

    def window(self, iterations: int) -> tuple[range, int]:
        """The record indices left after burn-in and stride, and how many
        of them :meth:`steps` keeps."""
        window = range(self.burn_in, iterations, self.stride)
        # counted here: len() of a range raises past sys.maxsize members
        size = max(0, (iterations - self.burn_in + self.stride - 1) // self.stride)
        return window, int(round(size * self.fraction))

    def steps(self, iterations: int, seed: int, replicate: int) -> np.ndarray:
        """Sorted 0-based record indices of the members of one run."""
        window, n_keep = self.window(iterations)
        steps = np.arange(window.start, window.stop, window.step, dtype=np.int64)
        if self.fraction == 1.0:
            return steps
        rng = seeding.stream(seed, "subsample", replicate)
        return steps[np.sort(rng.choice(steps.size, size=n_keep, replace=False))]


@dataclass
class EnsembleBundle:
    """The sampled parameter vectors of one run, as the run records them."""

    # (M, N) parameter vectors: an array, or the rows of a member file,
    # whichever the trajectory wrote them to or a reader gives
    members: np.ndarray
    iterations: np.ndarray     # (M,) 1-based capture iteration
    temperatures: np.ndarray   # (M,) target temperature at capture

    def __post_init__(self):
        self.iterations = np.asarray(self.iterations, dtype=np.int64)
        self.temperatures = np.asarray(self.temperatures, dtype=np.float64)
        if len(self.members.shape) != 2 or self.members.shape[0] < 1:
            raise ValueError("a bundle needs at least one member")
        m = self.members.shape[0]
        if self.iterations.shape != (m,) or self.temperatures.shape != (m,):
            raise ValueError("iterations and temperatures must align with members")
        if not (self.temperatures >= 0).all():  # NaN fails too
            raise ValueError("capture temperatures must be >= 0")

    @property
    def n_members(self) -> int:
        return int(self.members.shape[0])


def collect(trajectory: Trajectory) -> EnsembleBundle:
    """The bundle of the members ``trajectory`` kept.

    The trajectory captured only the members' states, at the records
    :meth:`SamplingPlan.steps` chose, so its snapshots, wherever it wrote
    them, become the bundle's members as they are, without a copy.
    """
    positions = trajectory.snapshot_positions
    return EnsembleBundle(
        members=trajectory.snapshots,
        iterations=positions + 1,
        temperatures=trajectory.temperature[positions],
    )


def _member_outputs(topology: Topology, scaler: ScalerParams, matrix, input_sets):
    """Yield ``(k, outputs)`` per chunk of ``matrix``'s members.

    The one walk behind every ensemble prediction.  ``matrix`` is an
    ``(M, N)`` member matrix of ``topology`` with at least one member,
    sliced one chunk of rows at a time, so one that reads its rows from a
    file when sliced is held a chunk at a time.  Every input set is scaled
    once, by ``scaler``.  The members are walked over input set
    ``k = 0, 1, ...`` in turn, in storage order, and ``outputs`` is the
    ``(chunk, samples, outputs)`` array of one stacked
    :func:`net.forward` over consecutive members on set ``k``.

    Each set's hidden layers are computed in buffers allocated once for
    ``min(chunk, M)`` members, so no chunk allocates hidden-layer arrays
    of its own.  The output layer is a fresh array, so no two yielded
    ``outputs`` share memory.
    """
    scaled = [_scaled_inputs(scaler, inputs) for inputs in input_sets]
    for k, x in enumerate(scaled):
        step = net.chunk_size(topology, x.shape[0])
        c = min(step, len(matrix))
        hidden = [np.empty((c, x.shape[0], w)) for w in topology.layer_sizes[1:-1]]
        for lo in range(0, len(matrix), step):
            members = matrix[lo : lo + step]
            yield k, net.forward(topology, members, x, [h[: members.shape[0]] for h in hidden])


def _scaled_inputs(scaler: ScalerParams, inputs) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError("inputs must be a 2-D (samples, features) array")
    return data.scale_features(scaler, inputs)


def n_vote_classes(topology: Topology) -> int:
    # a single logit output is a two-class decision thresholded at 0
    k = topology.layer_sizes[-1]
    return 2 if k == 1 else k


@dataclass
class Evaluation:
    """An ensemble's predictions on input sets, one entry per requested set."""

    n_members: int
    sums: list     # (samples, outputs) running total of the members' predictions, original units
    members: list  # (members, samples, outputs) every member's rows, original target units
    votes: list    # (samples, classes) integer tally of member argmax votes
    # per matrix, in order: its own n_members, sums and votes (member rows stay pooled only)
    parts: list = field(default_factory=list)

    @property
    def means(self) -> list:
        """(samples, outputs) pointwise member mean of each set, original target units."""
        return [total / self.n_members for total in self.sums]


def evaluate(
    topology: Topology, scaler: ScalerParams, matrices, means=(), members=(), votes=()
) -> Evaluation:
    """The :func:`pool` of ``matrices`` (one per replicate, in replicate order) on input sets.

    ``matrices`` is a sequence of ``(M, N)`` member matrices of
    ``topology``, whose inputs and targets ``scaler`` scales.  ``means``,
    ``members`` and ``votes`` are lists of 2-D input arrays.  For each set
    the result holds the pointwise mean of the members' predictions, every
    member's predictions, or the integer tally of their votes.  A
    classifier's targets are not scaled, so its member rows are the raw
    outputs that :func:`net.class_labels_from_outputs` turns into labels.

    Each matrix is walked alone, once per input set, in its own
    :func:`parallel.map_in_order` job, looked up by the worker that walks
    it, and :func:`pool` adds the matrices' results in order.  So the
    result's ``parts`` hold each matrix's own results, as if it had been
    evaluated alone, and one pass scores every replicate and their pool.
    """
    sets = (list(means), list(members), list(votes))
    if not any(sets):
        raise ValueError("nothing to evaluate")
    for i, matrix in enumerate(matrices):
        if len(matrix) == 0:
            raise ValueError(f"member matrix {i} holds no members")
    return pool(parallel.map_in_order(functools.partial(_walk, topology, scaler, *sets), matrices))


def _walk(topology, scaler, means, members, votes, matrix) -> Evaluation:
    """The :class:`Evaluation` of one member matrix, in one walk.

    Its sums add one member at a time, in storage order, into one running
    total per set, so their rounding does not depend on the chunking.
    """
    n_means, n_rows = len(means), len(means) + len(members)
    one_hot = np.eye(n_vote_classes(topology), dtype=np.int64)
    part = Evaluation(len(matrix), [0.0] * len(means), [[] for _ in members], [0] * len(votes))
    for k, outputs in _member_outputs(topology, scaler, matrix, [*means, *members, *votes]):
        if k < n_means:
            for row in data.unscale_targets(scaler, outputs):
                part.sums[k] = part.sums[k] + row
        elif k < n_rows:
            part.members[k - n_means].append(data.unscale_targets(scaler, outputs))
        else:
            labels = net.class_labels_from_outputs(outputs)
            part.votes[k - n_rows] = part.votes[k - n_rows] + one_hot[labels].sum(axis=0)
    part.members = [np.concatenate(chunks) for chunks in part.members]
    return part


def pool(parts) -> Evaluation:
    """The ensemble of the members of ``parts``, one :class:`Evaluation` per
    member matrix, in replicate order, with each part, without its member
    rows, as its ``parts``.

    The parts' running totals add in order, and a mean divides the pooled
    total once by the pooled member count.  A walk's total starts as
    ``0.0 + row``, so it is never -0.0 and ``sum()`` from 0 keeps its
    bits: a pool of one part has that part's mean.  Vote tallies add
    exactly in any order, and member rows are concatenated in order.
    """
    if not parts:
        raise ValueError("nothing to pool")
    sums = [sum(totals) for totals in zip(*(p.sums for p in parts))]
    members = [np.concatenate(rows) for rows in zip(*(p.members for p in parts))]
    votes = [sum(tallies) for tallies in zip(*(p.votes for p in parts))]
    alone = [Evaluation(p.n_members, p.sums, [], p.votes) for p in parts]
    return Evaluation(sum(p.n_members for p in parts), sums, members, votes, alone)


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

