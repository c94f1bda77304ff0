"""Ensemble selection, aggregation, and voting tests.

Aggregations are checked against naive loop oracles written out in the
tests; the exact-sum property of vote proportions is asserted with ==, not
a tolerance, because that is the contract.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simmering import data, ensemble, net, seeding
from simmering.config import ConfigError, from_dict
from simmering.data import ScalerParams
from simmering.dynamics import (
    PhaseState,
    TemperatureSchedule,
    ThermostatChain,
    Trajectory,
    initial_velocities,
    run_trajectory,
)
from simmering.ensemble import (
    SamplingPlan,
    collect,
    evaluate,
    grid_nodes,
    proportions,
)
from simmering.net import Topology


def identity_scaler(n_features, scale_targets=True):
    lo = -np.ones(n_features)
    hi = np.ones(n_features)
    if scale_targets:
        return ScalerParams(lo, hi, np.array([-1.0]), np.array([1.0]))
    return ScalerParams(lo, hi)


def fake_trajectory(n_steps, n_params, seed=0):
    rng = seeding.generator(seed)
    return Trajectory(
        iterations=np.arange(1, n_steps + 1, dtype=np.int64),
        temperature=np.linspace(0.0, 0.05, n_steps),
        kinetic_temperature=np.zeros(n_steps),
        loss_train=np.zeros(n_steps),
        loss_test=np.full(n_steps, np.nan),
        extended_energy=np.zeros(n_steps),
        snapshot_positions=np.arange(n_steps, dtype=np.int64),
        snapshots=rng.normal(size=(n_steps, n_params)),
    )


def kept_only(traj, steps):
    """``traj`` as the integrator leaves it when asked to keep only ``steps``."""
    steps = np.asarray(steps, dtype=np.int64)
    return replace(traj, snapshot_positions=steps, snapshots=traj.snapshots[steps])


SCALAR = Topology((1, 1), ("linear",))


def scalar_members(biases):
    # (1 -> 1) linear nets with zero weight: each member predicts its bias
    return np.column_stack([np.zeros(len(biases)), np.asarray(biases, dtype=float)])


def scalar_evaluate(matrices, **sets):
    return evaluate(SCALAR, identity_scaler(1), matrices, **sets)


def class_members(preferred_classes, n_classes=3):
    # (1 -> C) linear nets with zero weights: bias one-hot picks the vote
    members = []
    for c in preferred_classes:
        bias = np.zeros(n_classes)
        bias[c] = 1.0
        members.append(np.concatenate([np.zeros(n_classes), bias]))
    return np.array(members)


def class_votes(matrices, x, n_classes=3):
    topology = Topology((1, n_classes), ("linear",))
    scaler = identity_scaler(1, scale_targets=False)
    return evaluate(topology, scaler, matrices, votes=[x]).votes[0]


# ------------------------------------------------------------ sampling plan


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(iterations=0, burn_in=0, where="simmer.iterations"),
        dict(iterations=10, burn_in=10, where="sampling.burn_in"),
        dict(iterations=10, burn_in=-1, where="sampling.burn_in"),
        dict(iterations=10, burn_in=0, stride=0, where="sampling.stride"),
        dict(iterations=10, burn_in=0, fraction=0.0, where="sampling.fraction"),
        dict(iterations=10, burn_in=0, fraction=1.5, where="sampling.fraction"),
    ],
)
def test_sampling_plan_validation(kwargs):
    # a plan's ranges are checked once, where the config's sampling section
    # parses into it
    sampling = dict(kwargs)
    iterations, where = sampling.pop("iterations"), sampling.pop("where")
    raw = {
        "name": "plan",
        "seed": 0,
        "data": {"kind": "noisy_sine", "n_train": 10},
        "model": {"hidden": [2], "activations": ["tanh", "linear"], "loss": "sse"},
        "simmer": {
            "dt": 0.01,
            "iterations": iterations,
            "schedule": {"t_initial": 0.1, "t_target": 0.1},
        },
        "sampling": sampling,
    }
    with pytest.raises(ConfigError, match=f"^{where}:"):
        from_dict(raw)


# ------------------------------------------------------------ collect


def test_collect_identity_plan_keeps_everything():
    traj = fake_trajectory(50, 2)
    steps = SamplingPlan(burn_in=0, stride=1, fraction=1.0).steps(50, 0, 0)
    np.testing.assert_array_equal(steps, np.arange(50))
    bundle = collect(traj)
    assert bundle.n_members == 50
    assert np.array_equal(bundle.members, traj.snapshots)
    assert np.array_equal(bundle.iterations, np.arange(1, 51))


def test_collect_burn_in_then_fraction_counts():
    traj = fake_trajectory(10_000, 2)
    plan = SamplingPlan(burn_in=3000, stride=1, fraction=0.1)
    steps = plan.steps(10_000, 7, 0)
    bundle = collect(kept_only(traj, steps))
    assert bundle.n_members == 700
    assert bundle.iterations.min() >= 3001
    np.testing.assert_array_equal(bundle.iterations, steps + 1)
    np.testing.assert_array_equal(bundle.members, traj.snapshots[steps])
    np.testing.assert_array_equal(plan.steps(10_000, 7, 0), steps)
    assert not np.array_equal(plan.steps(10_000, 8, 0), steps)


def test_collect_replicate_index_changes_subsample():
    plan = SamplingPlan(burn_in=0, fraction=0.25)
    picks = [plan.steps(1000, 7, replicate) for replicate in range(3)]
    assert all(p.size == 250 for p in picks)
    assert not np.array_equal(picks[0], picks[1])
    assert not np.array_equal(picks[1], picks[2])
    with pytest.raises(ValueError, match="replicate"):
        plan.steps(1000, 7, -1)


def test_collect_stride_halves_count():
    traj = fake_trajectory(100, 2)
    steps = SamplingPlan(burn_in=0, stride=2).steps(100, 0, 0)
    bundle = collect(kept_only(traj, steps))
    assert bundle.n_members == 50
    assert np.array_equal(bundle.iterations, np.arange(1, 101, 2))


def test_collect_records_capture_temperatures():
    traj = fake_trajectory(10, 2)
    steps = SamplingPlan(burn_in=4).steps(10, 0, 0)
    bundle = collect(kept_only(traj, steps))
    assert np.array_equal(bundle.temperatures, traj.temperature[4:])
    assert np.array_equal(bundle.iterations, np.arange(5, 11))


@pytest.mark.parametrize("bad", [-0.5, np.nan])
def test_bundle_refuses_a_negative_or_nan_temperature(bad):
    with pytest.raises(ValueError, match="temperatures must be >= 0"):
        ensemble.EnsembleBundle(np.zeros((2, 3)), [1, 2], [0.1, bad])


def full_capture_selection(plan, iterations, seed, replicate):
    """Record indices that collect picked from a trajectory capturing every
    step, before plans chose their steps up front: burn-in, then stride,
    then the seeded subsample."""
    record_idx = np.arange(iterations, dtype=np.int64)[plan.burn_in:][:: plan.stride]
    if plan.fraction < 1.0:
        n_keep = int(round(record_idx.size * plan.fraction))
        rng = seeding.stream(seed, "subsample", replicate)
        record_idx = record_idx[np.sort(rng.choice(record_idx.size, size=n_keep, replace=False))]
    return record_idx


def test_plan_steps_equal_the_full_capture_selection():
    traj = fake_trajectory(300, 2)
    grid = itertools.product((0, 1, 150, 299), (1, 2, 7), (1.0, 0.5, 0.2, 0.01), (0, 5), (0, 3))
    n_none = 0
    for burn_in, stride, fraction, seed, replicate in grid:
        plan = SamplingPlan(burn_in, stride, fraction)
        want = full_capture_selection(plan, 300, seed, replicate)
        # the count the config parser refuses at 0
        assert plan.window(300)[1] == want.size
        if want.size == 0:
            n_none += 1
            continue
        steps = plan.steps(300, seed, replicate)
        assert steps.dtype == np.int64
        np.testing.assert_array_equal(steps, want)
        bundle = collect(kept_only(traj, steps))
        np.testing.assert_array_equal(bundle.iterations, want + 1)
        np.testing.assert_array_equal(bundle.members, traj.snapshots[want])
        np.testing.assert_array_equal(bundle.temperatures, traj.temperature[want])
    assert n_none > 0


def test_collect_takes_the_captured_plan_steps_without_a_copy():
    steps = SamplingPlan(burn_in=20, stride=3, fraction=0.5).steps(60, 4, 0)
    schedule = TemperatureSchedule(0.1, 0.1)
    state = PhaseState(
        positions=np.array([0.25, 3.0]),
        velocities=np.array([0.1, -0.2]),
        masses=1.0,
        chain=ThermostatChain.rest(2),
    )

    def potential(stack):
        return 0.5 * np.sum(stack * stack, axis=1)

    _, kept = run_trajectory(
        state, lambda x: x, 0.01, schedule, 60, potential, snapshot_steps=steps, block=7
    )
    _, full = run_trajectory(state, lambda x: x, 0.01, schedule, 60, potential, block=7)
    bundle = collect(kept)
    assert bundle.members is kept.snapshots
    np.testing.assert_array_equal(bundle.members, full.snapshots[steps])
    np.testing.assert_array_equal(bundle.iterations, steps + 1)
    np.testing.assert_array_equal(bundle.temperatures, full.temperature[steps])


# ------------------------------------------------------------ pooling


def test_votes_over_bundles_are_order_invariant():
    a = class_members([0, 0, 1])
    b = class_members([2, 1])
    x = np.zeros((3, 1))
    ab = class_votes([a, b], x)
    ba = class_votes([b, a], x)
    assert np.array_equal(ab, [[2, 2, 1]] * 3)
    assert np.array_equal(ab, ba)
    assert np.array_equal(proportions(ab), proportions(ba))


def test_regression_rows_over_bundles_equal_one_bundle_holding_both():
    topology = Topology((1, 4, 1), ("tanh", "linear"))
    rng = seeding.generator(5)
    scaler = ScalerParams(np.array([-2.0]), np.array([2.0]), np.array([10.0]), np.array([30.0]))

    def pool(matrices, **sets):
        return evaluate(topology, scaler, matrices, **sets)

    first = rng.normal(size=(7, topology.param_count))
    second = rng.normal(size=(5, topology.param_count))
    both = np.concatenate([first, second])
    x = rng.normal(size=(9, 1))
    assert np.array_equal(bits(pool([first, second], members=[x]).members[0]),
                          bits(pool([both], members=[x]).members[0]))


def replicate_order_mean(topology, scaler, matrices, inputs):
    """Reference pooled mean: a running total per matrix, one member at a
    time in storage order, the totals added in replicate order, then one
    division by the member count."""
    outputs = iter(per_member_outputs(topology, scaler, matrices, inputs))
    pooled = 0
    for m in matrices:
        total = 0.0
        for _ in range(len(m)):
            total = total + data.unscale_targets(scaler, next(outputs))
        pooled = pooled + total
    return pooled / sum(map(len, matrices))


def test_pooled_mean_adds_each_matrix_total_in_replicate_order(use_cores):
    pool = chunk_pool((1, 8, 1), "tanh", seed=21)
    topology, scaler, matrices = pool
    x = seeding.generator(4).uniform(-2.0, 2.0, size=(64, 1))
    ref = replicate_order_mean(*pool, x)
    for cores in (1, 3):
        use_cores(cores)
        assert np.array_equal(bits(evaluate(*pool, means=[x]).means[0]), bits(ref)), cores
        # a pool of one matrix is that matrix's own mean
        for m in matrices:
            alone = replicate_order_mean(topology, scaler, [m], x)
            assert np.array_equal(bits(evaluate(topology, scaler, [m], means=[x]).means[0]),
                                  bits(alone))


@pytest.mark.parametrize("n_matrices", [1, 3])
def test_parts_equal_each_matrix_evaluated_alone(n_matrices, use_cores):
    pool = chunk_pool((2, 5, 3), "tanh", seed=13)
    topology, scaler, matrices = pool[0], pool[1], pool[2][:n_matrices]
    x = seeding.generator(2).uniform(-2.0, 2.0, size=(11, 2))
    y = seeding.generator(3).uniform(-2.0, 2.0, size=(4, 2))
    for cores in (1, 3):
        use_cores(cores)
        pooled = [
            evaluate(topology, scaler, matrices, means=[x, y]),
            evaluate(topology, scaler, matrices, members=[y], votes=[x, y]),
        ]
        for result in pooled:
            assert [part.n_members for part in result.parts] == [len(m) for m in matrices]
            assert all(part.members == [] for part in result.parts)
        for m, means, split in zip(matrices, *(r.parts for r in pooled), strict=True):
            alone = evaluate(topology, scaler, [m], means=[x, y])
            assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(means.means, alone.means))
            alone = evaluate(topology, scaler, [m], votes=[x, y])
            assert all(np.array_equal(a, b) for a, b in zip(split.votes, alone.votes))
        # the pool itself is unchanged by keeping its parts
        assert np.array_equal(
            bits(pooled[0].means[0]), bits(replicate_order_mean(topology, scaler, matrices, x))
        )


def test_walk_refuses_an_empty_member_matrix():
    topology = Topology((1, 4, 1), ("tanh", "linear"))
    members = seeding.generator(1).normal(size=(3, topology.param_count))
    empty = members[:0]
    with pytest.raises(ValueError, match="member matrix 1 holds no members"):
        evaluate(topology, identity_scaler(1), [members, empty], means=[np.zeros((2, 1))])


def test_pool_rejects_mismatches():
    # a run has one topology and one scaler, passed once; only an empty
    # pool is left to refuse, of votes or of means
    x = np.zeros((1, 1))
    with pytest.raises(ValueError, match="nothing to pool"):
        class_votes([], x)
    with pytest.raises(ValueError, match="nothing to pool"):
        scalar_evaluate([], means=[x])


# ------------------------------------------------------------ regression


def test_two_member_bundle_averages_to_zero():
    out = scalar_evaluate([scalar_members([1.0, -1.0])], means=[np.array([[0.0], [0.5]])]).means[0]
    assert np.array_equal(out, np.zeros((2, 1)))


def test_identical_members_average_to_themselves():
    out = scalar_evaluate([scalar_members([0.7, 0.7, 0.7])], means=[np.array([[0.3]])]).means[0]
    assert out[0, 0] == pytest.approx(0.7, abs=1e-15)


def test_regression_mean_matches_naive_loop_oracle():
    topology = Topology((2, 6, 1), ("tanh", "linear"))
    rng = seeding.generator(42)
    members = rng.normal(size=(50, topology.param_count))
    scaler = ScalerParams(
        np.array([-2.0, 0.0]), np.array([2.0, 5.0]), np.array([10.0]), np.array([30.0])
    )
    inputs = rng.normal(size=(20, 2))

    from simmering import data as data_mod

    scaled = data_mod.scale_features(scaler, inputs)
    preds = [
        data_mod.unscale_targets(scaler, net.forward(topology, p, scaled)) for p in members
    ]
    oracle = sum(preds) / len(preds)
    got = evaluate(topology, scaler, [members], means=[inputs]).means[0]
    np.testing.assert_allclose(got, oracle, rtol=1e-12)
    assert (got >= np.min(preds, axis=0) - 1e-12).all()
    assert (got <= np.max(preds, axis=0) + 1e-12).all()


def test_distribution_mean_equals_regression_mean_bitwise():
    topology = Topology((1, 4, 1), ("tanh", "linear"))
    rng = seeding.generator(3)
    members = rng.normal(size=(17, topology.param_count))
    scaler = identity_scaler(1)
    point = np.array([[0.25]])
    pooled = evaluate(topology, scaler, [members], means=[point], members=[point])
    spread = pooled.members[0]
    assert spread.shape == (17, 1, 1)
    running = np.zeros((1, 1))
    for row in spread:  # storage order, one running sum
        running += row
    assert np.array_equal(running / 17, pooled.means[0])
    from simmering import data as data_mod

    for m in range(17):
        outputs = net.forward(topology, members[m], data_mod.scale_features(scaler, point))
        assert np.array_equal(spread[m], data_mod.unscale_targets(scaler, outputs))


def test_single_member_distribution():
    x = np.array([[0.0]])
    pooled = scalar_evaluate([scalar_members([2.5])], means=[x], members=[x])
    spread, mean = pooled.members[0], pooled.means[0]
    assert spread.shape == (1, 1, 1)
    assert spread[0, 0, 0] == mean[0, 0] == pytest.approx(2.5, abs=1e-15)


# ------------------------------------------------------------ voting


def test_majority_vote_and_tie_break():
    # the majority is the argmax of the tally, so ties go to the lowest class
    x = np.zeros((1, 1))
    for preferred, tally, majority in (([0, 0, 1], [2, 1, 0], 0),
                                       ([1, 0], [1, 1, 0], 0),
                                       ([2, 2, 1], [0, 1, 2], 2)):
        counts = class_votes([class_members(preferred)], x)
        assert np.array_equal(counts, [tally])
        assert np.argmax(counts, axis=1)[0] == np.argmax(proportions(counts), axis=1)[0] == majority


def test_vote_counts_match_brute_force_tally():
    topology = Topology((2, 8, 3), ("tanh", "linear"))
    rng = seeding.generator(9)
    members = rng.normal(size=(31, topology.param_count))
    scaler = identity_scaler(2, scale_targets=False)
    inputs = rng.uniform(-1, 1, size=(12, 2))

    tally = np.zeros((12, 3), dtype=np.int64)
    for p in members:
        outputs = net.forward(topology, p, inputs)  # identity scaler: same coords
        for i, label in enumerate(np.argmax(outputs, axis=1)):
            tally[i, label] += 1
    assert np.array_equal(evaluate(topology, scaler, [members], votes=[inputs]).votes[0], tally)


def test_unanimous_proportions_are_exactly_one_hot():
    props = proportions(class_votes([class_members([1, 1, 1, 1])], np.zeros((1, 1))))
    assert np.array_equal(props, [[0.0, 1.0, 0.0]])


def test_three_way_split_proportions():
    props = proportions(class_votes([class_members([0, 1, 2])], np.zeros((1, 1))))
    assert props.sum() == 1.0  # exact, not approximate
    np.testing.assert_allclose(props, [[1 / 3, 1 / 3, 1 / 3]], rtol=1e-15)


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_proportions_sum_exactly_to_one(votes):
    counts = class_votes([class_members(votes, n_classes=5)], np.zeros((2, 1)), n_classes=5)
    props = proportions(counts)
    for row in props:
        assert row.sum() == 1.0
        assert (row >= 0.0).all() and (row <= 1.0).all()
    np.testing.assert_allclose(props, counts / len(votes), rtol=0, atol=1e-12)
    assert np.array_equal(np.argmax(props, axis=1), np.argmax(counts, axis=1))


def test_binary_logit_votes_use_two_classes():
    # single-logit members: sign of the bias picks class 1 vs 0
    members = np.array([[0.0, 2.0], [0.0, -1.0], [0.0, 3.0]])
    counts = class_votes([members], np.zeros((1, 1)), n_classes=1)
    assert counts.shape == (1, 2)
    assert np.array_equal(counts, [[1, 2]])


# ------------------------------------------------------------ decision grid


def test_decision_grid_matches_direct_calls():
    rng = seeding.generator(21)
    topology = Topology((2, 5, 3), ("tanh", "linear"))
    members = rng.normal(size=(9, topology.param_count))

    def votes(x):
        scaler = identity_scaler(2, scale_targets=False)
        return evaluate(topology, scaler, [members], votes=[x]).votes[0]

    xs, ys, nodes = grid_nodes(((-1, 1), (0, 2)), resolution=7)
    grid = proportions(votes(nodes)).reshape(7, 7, -1)
    assert xs.shape == (7,) and ys.shape == (7,) and grid.shape == (7, 7, 3)
    for ix, iy in [(0, 0), (3, 5), (6, 6), (2, 1)]:
        direct = votes(np.array([[xs[ix], ys[iy]]]))
        assert np.array_equal(grid[ix, iy], proportions(direct)[0])
    sums = grid.sum(axis=2)
    assert (sums == 1.0).all()


def test_decision_grid_resolution_one():
    with pytest.raises(ValueError, match="resolution must be >= 1"):
        grid_nodes(((-1, 1), (-1, 1)), 0)
    rng = seeding.generator(2)
    topology = Topology((2, 3), ("linear",))
    wide = rng.normal(size=(4, topology.param_count))
    xs, ys, nodes = grid_nodes(((0.5, 1.0), (2.0, 3.0)), resolution=1)
    scaler = identity_scaler(2, scale_targets=False)
    grid = proportions(evaluate(topology, scaler, [wide], votes=[nodes]).votes[0]).reshape(1, 1, -1)
    assert xs[0] == 0.5 and ys[0] == 2.0 and grid.shape == (1, 1, 3)


# ------------------------------------------------------------ end to end


def test_distribution_width_tracks_temperature():
    # (1 -> 1) linear net on the single sample (x=0, y=3): the loss is
    # (b-3)^2, so sampled predictions at x=0 should spread like sqrt(T)
    topology = Topology((1, 1), ("linear",))
    x = np.zeros((1, 1))
    y = np.full((1, 1), 3.0)

    evaluator = net.Evaluator(topology, "sse", x, y)

    spreads = {}
    for temperature in (0.5, 1e-4):
        chain_mass = max(temperature, 1e-4) / 2.0  # stiffness of (b-3)^2 is 2
        state = PhaseState(
            positions=np.array([0.25, 3.0]),
            velocities=initial_velocities(2, temperature, seeding.child_seed(1, "velocities")),
            masses=1.0,
            chain=ThermostatChain.rest(2, mass=chain_mass),
        )
        _, traj = run_trajectory(
            state, evaluator.gradient, 0.01, TemperatureSchedule(temperature, temperature),
            20_000, evaluator.losses, snapshot_steps=SamplingPlan(burn_in=10_000).steps(20_000, 0, 0),
            block=net.chunk_size(topology, 1),
        )
        bundle = collect(traj)
        pooled = evaluate(topology, identity_scaler(1), [bundle.members], means=[x], members=[x])
        spreads[temperature] = pooled.members[0][:, 0, 0].var()
        assert abs(pooled.means[0][0, 0] - 3.0) < 0.5

    assert spreads[0.5] / max(spreads[1e-4], 1e-12) > 50.0


# ------------------------------------------------------------ stacked chunks

# topologies the chunked walk was sized on; member counts per pooled
# matrix are chosen so that no budget below divides them
CHUNK_TOPOLOGIES = [
    (1, 10, 1), (1, 20, 20, 1), (2, 100, 50, 50, 3), (2, 5, 1), (3, 7, 4), (4, 33, 17, 2),
]
CHUNK_ROWS = (1, 37, 3600)
POOLED_MEMBERS = (5, 3, 7)
# chunk budgets: one member per chunk, the default, and every member in one chunk
CHUNK_BUDGETS = (1, net.CHUNK_VALUES, 1 << 40)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def chunk_pool(sizes, activation, seed):
    """(topology, scaler, member matrices) of a pool of ``POOLED_MEMBERS`` replicates."""
    topology = Topology(sizes, (activation,) * (len(sizes) - 1))
    rng = seeding.generator(seed)
    n_in, n_out = sizes[0], sizes[-1]
    scaler = ScalerParams(
        rng.uniform(-3.0, -1.0, n_in), rng.uniform(1.0, 3.0, n_in),
        rng.uniform(-20.0, -10.0, n_out), rng.uniform(10.0, 20.0, n_out),
    )
    return topology, scaler, [
        rng.normal(scale=0.5, size=(m, topology.param_count)) for m in POOLED_MEMBERS
    ]


def per_member_outputs(topology, scaler, matrices, inputs):
    """Reference walk: one plain ``net.forward`` per member."""
    scaled = data.scale_features(scaler, inputs)
    return [net.forward(topology, member, scaled) for m in matrices for member in m]


def reference_votes(topology, scaler, matrices, inputs):
    counts = 0
    one_hot = np.eye(ensemble.n_vote_classes(topology), dtype=np.int64)
    for outputs in per_member_outputs(topology, scaler, matrices, inputs):
        counts = counts + one_hot[net.class_labels_from_outputs(outputs)]
    return counts


def chunk_sizes(matrices, step):
    """Members per chunk of a walk over ``matrices`` ``step`` members at a time."""
    return [min(step, len(m) - lo) for m in matrices for lo in range(0, len(m), step)]


@pytest.mark.parametrize("activation", net.ACTIVATIONS)
@pytest.mark.parametrize("sizes", CHUNK_TOPOLOGIES, ids=str)
def test_chunked_walk_equals_per_member_forwards_bitwise(sizes, activation, monkeypatch):
    pool = chunk_pool(sizes, activation, seed=len(sizes) * 10 + len(activation))
    topology, scaler, matrices = pool
    rng = seeding.generator(3)
    for n_rows in CHUNK_ROWS:
        x = rng.uniform(-2.0, 2.0, size=(n_rows, sizes[0]))
        ref_outputs = np.array(per_member_outputs(*pool, x))
        ref_rows = np.array([data.unscale_targets(scaler, out) for out in ref_outputs])
        ref_mean = replicate_order_mean(*pool, x)
        ref_counts = reference_votes(*pool, x)
        ref_props = np.array(
            [ensemble._exact_fraction_row(row, len(ref_outputs)) for row in ref_counts]
        )
        for budget in CHUNK_BUDGETS:
            monkeypatch.setattr(net, "CHUNK_VALUES", budget)
            chunks = [
                chunk for m in matrices
                for chunk in ensemble._member_outputs(topology, scaler, m, [x])
            ]
            step = net.chunk_size(topology, n_rows)
            assert [k for k, _ in chunks] == [0] * len(chunk_sizes(matrices, step))
            assert [out.shape[0] for _, out in chunks] == chunk_sizes(matrices, step)
            outputs = np.concatenate([out for _, out in chunks])
            assert np.array_equal(bits(outputs), bits(ref_outputs))
            split = evaluate(*pool, members=[x], votes=[x])
            assert np.array_equal(bits(split.members[0]), bits(ref_rows))
            assert np.array_equal(bits(evaluate(*pool, means=[x]).means[0]), bits(ref_mean))
            counts = split.votes[0]
            assert counts.dtype == np.int64 and np.array_equal(counts, ref_counts)
            assert np.array_equal(bits(proportions(counts)), bits(ref_props))


@pytest.mark.parametrize("activation", net.ACTIVATIONS)
@pytest.mark.parametrize("sizes", [s for s in CHUNK_TOPOLOGIES if s[0] == 2], ids=str)
def test_chunked_decision_grid_equals_per_member_votes_bitwise(sizes, activation, monkeypatch):
    pool = chunk_pool(sizes, activation, seed=7)
    xs, ys, nodes = grid_nodes(((-1.5, 2.0), (-2.0, 1.0)), 60)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()])
    assert np.array_equal(nodes, points)
    n = sum(POOLED_MEMBERS)
    ref = np.array(
        [ensemble._exact_fraction_row(row, n) for row in reference_votes(*pool, points)]
    )
    for budget in CHUNK_BUDGETS:
        monkeypatch.setattr(net, "CHUNK_VALUES", budget)
        grid = proportions(evaluate(*pool, votes=[nodes]).votes[0])
        assert np.array_equal(bits(grid), bits(ref))


def test_chunk_size_depends_only_on_rows_and_topology():
    iris = Topology((2, 100, 50, 50, 3), ("tanh", "tanh", "tanh", "linear"))
    mpg = Topology((1, 10, 1), ("tanh", "linear"))
    # the decision grid's 3600 nodes at the widest iris layer: one member a chunk
    assert net.chunk_size(iris, 3600) == 1
    assert net.chunk_size(mpg, 92) == net.CHUNK_VALUES // 920
    # same shapes, different members and member counts: the same chunks
    x = np.zeros((92, 1))
    step = net.chunk_size(mpg, 92)
    for n_members, seed in ((1, 0), (step, 1), (2 * step + 3, 2)):
        members = seeding.generator(seed).normal(size=(n_members, mpg.param_count))
        chunks = ensemble._member_outputs(mpg, identity_scaler(1), members, [x])
        sizes = [out.shape[0] for _, out in chunks]
        assert sizes == [min(step, n_members - lo) for lo in range(0, n_members, step)]


@pytest.mark.parametrize("activation", net.ACTIVATIONS)
def test_buffered_walk_keeps_every_chunk_and_the_bits(activation, monkeypatch):
    # two hidden layers; 8 members walked 3 at a time: chunks of 3, 3 and 2
    topology = Topology((2, 9, 5, 3), (activation,) * 3)
    rng = seeding.generator(11)
    scaler = ScalerParams(
        np.array([-2.0, -1.0]), np.array([1.0, 3.0]), np.array([-5.0] * 3), np.array([5.0] * 3)
    )
    matrices = [rng.normal(scale=1.5, size=(m, topology.param_count)) for m in (8, 8)]
    pool = topology, scaler, matrices
    x = rng.uniform(-3.0, 3.0, size=(13, 2))
    y = rng.uniform(-3.0, 3.0, size=(4, 2))
    monkeypatch.setattr(net, "CHUNK_VALUES", 3 * 13 * 9)
    assert net.chunk_size(topology, 13) == 3

    walks = []  # per matrix, each chunk's hidden-layer buffer addresses
    real_forward = net.forward

    def forward(topology, params, inputs, hidden_out=()):
        walks[-1].append([h.__array_interface__["data"][0] for h in hidden_out])
        return real_forward(topology, params, inputs, hidden_out)

    monkeypatch.setattr(net, "forward", forward)
    kept = []
    for m in matrices:
        walks.append([])
        for _, outputs in ensemble._member_outputs(topology, scaler, m, [x]):
            # no earlier chunk changes while later ones run
            assert all(np.array_equal(bits(out), bits(copy)) for out, copy in kept)
            kept.append((outputs, outputs.copy()))
    assert [out.shape[0] for out, _ in kept] == [3, 3, 2, 3, 3, 2]
    assert all(np.array_equal(bits(out), bits(copy)) for out, copy in kept)
    assert not any(np.shares_memory(a, b) for (a, _), (b, _) in itertools.combinations(kept, 2))
    # within a matrix's walk, every chunk's hidden layers went into the same two buffers
    assert [len(walk) for walk in walks] == [3, 3]
    assert all(len(b) == 2 and b == walk[0] for walk in walks for b in walk)
    monkeypatch.setattr(net, "forward", real_forward)

    ref = per_member_outputs(*pool, x)
    assert np.array_equal(bits(np.concatenate([out for out, _ in kept])), bits(np.array(ref)))
    ref_rows = np.array([data.unscale_targets(scaler, out) for out in ref])
    ref_mean = replicate_order_mean(*pool, x)
    assert np.array_equal(bits(evaluate(*pool, members=[x]).members[0]), bits(ref_rows))
    assert np.array_equal(bits(evaluate(*pool, means=[x]).means[0]), bits(ref_mean))

    # several input sets in one pass give each set's own bits
    y_rows = np.array([data.unscale_targets(scaler, out) for out in per_member_outputs(*pool, y)])
    both = evaluate(*pool, means=[x, y], members=[y, x])
    assert both.n_members == 16
    assert np.array_equal(bits(both.means[0]), bits(ref_mean))
    assert np.array_equal(bits(both.means[1]), bits(evaluate(*pool, means=[y]).means[0]))
    assert np.array_equal(bits(both.members[0]), bits(y_rows))
    assert np.array_equal(bits(both.members[1]), bits(ref_rows))
    pooled = evaluate(*pool, members=[y, x], votes=[x])
    assert pooled.n_members == 16
    assert np.array_equal(bits(pooled.members[0]), bits(y_rows))
    assert np.array_equal(bits(pooled.members[1]), bits(ref_rows))
    assert np.array_equal(pooled.votes[0], reference_votes(*pool, x))
