"""Network module: layout, initialisers, forward pass, losses, gradients.

The gradient oracle is a central finite difference of the loss; the forward
oracle is an explicit per-sample, per-unit loop written independently of the
vectorised implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simmering import net
from simmering.net import NonFiniteError, Topology


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# topology and layout


def test_param_count_small():
    top = Topology((1, 20, 20, 1), ("tanh", "tanh", "linear"))
    assert top.param_count == 40 + 420 + 21


def test_param_count_formula_random():
    r = rng(1)
    for _ in range(20):
        sizes = tuple(int(n) for n in r.integers(1, 9, size=r.integers(2, 5)))
        top = Topology(sizes, ("tanh",) * (len(sizes) - 1))
        expected = sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:]))
        assert top.param_count == expected


@pytest.mark.parametrize(
    "sizes,acts",
    [
        ((3,), ()),
        ((0, 2), ("tanh",)),
        ((2, 2), ("tanh", "tanh")),
        ((2, 2), ("softplus",)),
    ],
)
def test_topology_rejects_bad_shapes(sizes, acts):
    with pytest.raises(ValueError):
        Topology(sizes, acts)


def pack_layers(topology, layers):
    """Inverse of net.layer_views: flatten (weights, biases) pairs."""
    out = np.empty(topology.param_count, dtype=np.float64)
    for view, (w, b) in zip(net.layer_views(topology, out), layers):
        view[0][...] = w
        view[1][...] = b
    return out


def test_layer_views_round_trip():
    top = Topology((2, 4, 3), ("relu", "linear"))
    params = rng(2).normal(size=top.param_count)
    views = net.layer_views(top, params)
    assert [w.shape for w, _ in views] == [(4, 2), (3, 4)]
    repacked = pack_layers(top, views)
    assert np.array_equal(repacked, params)


def test_layer_views_are_views():
    top = Topology((2, 2), ("linear",))
    params = np.zeros(top.param_count)
    w, b = net.layer_views(top, params)[0]
    w[0, 0] = 7.0
    b[1] = -3.0
    assert params[0] == 7.0 and params[5] == -3.0


def test_layer_views_wrong_length():
    top = Topology((2, 2), ("linear",))
    with pytest.raises(ValueError):
        net.layer_views(top, np.zeros(top.param_count + 1))


# ---------------------------------------------------------------------------
# initialisers


def test_glorot_biases_zero_and_deterministic():
    top = Topology((3, 8, 2), ("tanh", "linear"))
    a = net.init_glorot_normal(top, 123)
    b = net.init_glorot_normal(top, 123)
    assert np.array_equal(a, b)
    for _, bias in net.layer_views(top, a):
        assert np.all(bias == 0.0)
    assert not np.array_equal(a, net.init_glorot_normal(top, 124))


def test_glorot_moments_monte_carlo():
    # one wide layer gives enough draws to pin mean and variance
    top = Topology((40, 50), ("linear",))
    params = net.init_glorot_normal(top, 7)
    w = net.layer_views(top, params)[0][0]
    sigma2 = 2.0 / (40 + 50)
    n = w.size
    assert abs(w.mean()) < 4.0 * math.sqrt(sigma2 / n)
    # sample variance of N(0, s^2) has std ~ s^2 * sqrt(2/n)
    assert abs(w.var() - sigma2) < 5.0 * sigma2 * math.sqrt(2.0 / n)


def test_stratified_glorot_single_input_is_centred():
    # one input node: single segment with midpoint 0, scale sigma/2
    top = Topology((1, 400), ("linear",))
    params = net.init_stratified_glorot(top, 11)
    w = net.layer_views(top, params)[0][0]
    sigma = math.sqrt(2.0 / 401)
    assert abs(w.mean()) < 4.0 * (sigma / 2.0) / math.sqrt(w.size)
    assert abs(w.std() - sigma / 2.0) < 0.1 * sigma


def test_stratified_glorot_column_means_and_layer_mean():
    fan_in, fan_out = 10, 4000
    top = Topology((fan_in, fan_out), ("linear",))
    params = net.init_stratified_glorot(top, 5)
    w = net.layer_views(top, params)[0][0]
    sigma = math.sqrt(2.0 / (fan_in + fan_out))
    width = 4.0 * sigma / fan_in
    midpoints = -2.0 * sigma + width * (np.arange(fan_in) + 0.5)
    se = (sigma / 2.0) / math.sqrt(fan_out)
    assert np.all(np.abs(w.mean(axis=0) - midpoints) < 5.0 * se)
    # midpoints are symmetric, so the layer-wide mean is zero
    layer_se = (sigma / 2.0) / math.sqrt(w.size)
    assert abs(w.mean()) < 5.0 * layer_se
    for _, bias in net.layer_views(top, params):
        assert np.all(bias == 0.0)


# ---------------------------------------------------------------------------
# forward pass


def apply_activation(kind, z):
    """The activation of ``z`` in a fresh array."""
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "elu":
        return np.where(z > 0.0, z, net.ELU_ALPHA * np.expm1(z))
    return z  # linear


def slope_from_pre(kind, z, a):
    """d(activation)/dz from the pre-activations ``z`` and activations ``a``."""
    if kind == "tanh":
        return 1.0 - a * a
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    if kind == "elu":
        # for z <= 0 the slope is alpha*exp(z) == a + alpha
        return np.where(z > 0.0, 1.0, a + net.ELU_ALPHA)
    return np.ones_like(z)


def forward_keeping_pre(top, params, x):
    """Forward pass in fresh arrays: (pre-activations, [x, *activations]).

    It shares no code with net's layer loop, which computes in buffers and
    keeps no pre-activations, so the tests below compare against it bit for
    bit.
    """
    pre, post = [], [np.asarray(x, dtype=np.float64)]
    for (w, b), act in zip(net.layer_views(top, params), top.activations):
        pre.append(post[-1] @ w.T + b)
        post.append(apply_activation(act, pre[-1]))
    return pre, post


def forward_loop_oracle(top, params, inputs):
    """Per-sample, per-unit forward pass with explicit Python loops."""

    def act(kind, z):
        if kind == "tanh":
            return math.tanh(z)
        if kind == "relu":
            return max(z, 0.0)
        if kind == "elu":
            return z if z > 0.0 else net.ELU_ALPHA * (math.exp(z) - 1.0)
        return z

    out = []
    views = net.layer_views(top, params)
    for row in inputs:
        a = list(row)
        for (w, b), kind in zip(views, top.activations):
            a = [act(kind, sum(w[j, i] * a[i] for i in range(w.shape[1])) + b[j])
                 for j in range(w.shape[0])]
        out.append(a)
    return np.array(out)


def test_forward_matches_loop_oracle():
    r = rng(3)
    for acts in [("tanh", "linear"), ("relu", "elu"), ("elu", "tanh")]:
        top = Topology((3, 5, 2), acts)
        params = r.normal(size=top.param_count)
        x = r.normal(size=(7, 3))
        got = net.forward(top, params, x)
        want = forward_loop_oracle(top, params, x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_forward_zero_params_linear_is_zero():
    top = Topology((2, 3, 2), ("tanh", "linear"))
    out = net.forward(top, np.zeros(top.param_count), rng(0).normal(size=(4, 2)))
    assert np.all(out == 0.0)


def test_forward_rows_independent():
    top = Topology((2, 6, 1), ("elu", "linear"))
    params = rng(4).normal(size=top.param_count)
    x = rng(5).normal(size=(10, 2))
    full = net.forward(top, params, x)
    one = net.forward(top, params, x[3:4])
    # BLAS picks different kernels for different batch shapes, so rows are
    # independent only up to rounding, not bit-for-bit
    np.testing.assert_allclose(full[3:4], one, rtol=1e-13, atol=0.0)


def test_forward_shape_errors():
    top = Topology((2, 2), ("linear",))
    params = np.zeros(top.param_count)
    with pytest.raises(ValueError):
        net.forward(top, params, np.zeros((3, 5)))
    with pytest.raises(ValueError):
        net.forward(top, params, np.zeros(2))
    with pytest.raises(NonFiniteError):
        net.forward(top, params, np.array([[1.0, np.nan]]))


def test_stacked_forward_equals_member_forwards_bitwise():
    top = Topology((3, 7, 4), ("elu", "tanh"))
    stack = rng(6).normal(size=(5, top.param_count))
    x = rng(7).normal(size=(11, 3))
    out = net.forward(top, stack, x)
    assert out.shape == (5, 11, 4)
    for m in range(5):
        single = net.forward(top, stack[m], x)
        assert np.array_equal(out[m].view(np.int64), single.view(np.int64))
    # the stacked layer views are views of the stack
    for w, b in net.layer_views(top, stack):
        assert np.shares_memory(w, stack) and np.shares_memory(b, stack)
        assert w.shape[0] == b.shape[0] == 5 and b.shape[1] == 1


def test_stacked_forward_errors():
    top = Topology((2, 3, 1), ("tanh", "linear"))
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match="parameter vector must have shape"):
        net.forward(top, np.zeros((3, top.param_count + 1)), x)
    with pytest.raises(ValueError, match="parameter vector must have shape"):
        net.forward(top, np.zeros((2, 3, top.param_count)), x)
    with pytest.raises(NonFiniteError):
        net.forward(top, np.zeros((3, top.param_count)), np.array([[1.0, np.inf]]))


# ---------------------------------------------------------------------------
# losses


def test_sse_known_value():
    out = np.array([[1.0, 2.0], [3.0, 4.0]])
    tgt = np.array([[0.0, 2.0], [5.0, 1.0]])
    assert net.loss("sse", out, tgt) == 1.0 + 0.0 + 4.0 + 9.0


def test_perfect_prediction_zero_loss():
    y = rng(6).normal(size=(5, 3))
    assert net.loss("sse", y, y) == 0.0
    assert net.loss("mse", y, y) == 0.0


def test_categorical_ce_uniform_logits():
    # equal logits over 3 classes -> ln 3 per sample
    out = np.zeros((4, 3))
    tgt = np.eye(3)[[0, 1, 2, 0]]
    assert math.isclose(net.loss("categorical_cross_entropy", out, tgt), math.log(3.0), rel_tol=1e-15)


def test_categorical_ce_shift_invariant():
    r = rng(7)
    out = r.normal(size=(6, 4))
    tgt = np.eye(4)[r.integers(0, 4, size=6)]
    a = net.loss("categorical_cross_entropy", out, tgt)
    b = net.loss("categorical_cross_entropy", out + 100.0, tgt)
    assert math.isclose(a, b, rel_tol=1e-12)


def test_categorical_ce_extreme_logits_stable():
    out = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    tgt = np.array([[1.0, 0.0], [0.0, 1.0]])
    v = net.loss("categorical_cross_entropy", out, tgt)
    assert math.isfinite(v) and 0.0 <= v < 1e-6


def test_binary_ce_matches_naive_formula():
    r = rng(8)
    z = r.normal(size=(9, 1)) * 3.0
    t = (r.random(size=(9, 1)) > 0.5).astype(float)
    p = 1.0 / (1.0 + np.exp(-z))
    naive = float(np.mean(-(t * np.log(p) + (1 - t) * np.log(1 - p))))
    assert math.isclose(net.loss("binary_cross_entropy_from_logits", z, t), naive, rel_tol=1e-10)


def test_binary_ce_extreme_logits_stable():
    z = np.array([[800.0], [-800.0]])
    t = np.array([[1.0], [0.0]])
    v = net.loss("binary_cross_entropy_from_logits", z, t)
    assert math.isfinite(v) and v < 1e-10


def test_loss_rejects_bad_targets():
    with pytest.raises(ValueError):
        net.loss("categorical_cross_entropy", np.zeros((2, 3)), np.full((2, 3), 0.5))
    with pytest.raises(ValueError):
        net.loss("binary_cross_entropy_from_logits", np.zeros((2, 1)), np.full((2, 1), 0.5))
    with pytest.raises(ValueError):
        net.loss("sse", np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        net.loss("huber", np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(NonFiniteError):
        net.loss("sse", np.array([[np.inf]]), np.array([[0.0]]))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_sse_equals_mse_times_samples(n, k, seed):
    r = rng(seed)
    out = r.normal(size=(n, k))
    tgt = r.normal(size=(n, k))
    assert math.isclose(
        net.loss("sse", out, tgt), net.loss("mse", out, tgt) * n, rel_tol=1e-15, abs_tol=1e-300
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_losses_permutation_invariant(seed):
    r = rng(seed)
    out = r.normal(size=(8, 3))
    tgt = np.eye(3)[r.integers(0, 3, size=8)]
    perm = r.permutation(8)
    for kind in ("sse", "mse", "categorical_cross_entropy"):
        assert math.isclose(
            net.loss(kind, out, tgt), net.loss(kind, out[perm], tgt[perm]), rel_tol=1e-12
        )


# ---------------------------------------------------------------------------
# gradients


def fd_gradient(top, params, x, y, kind, h=1e-5):
    g = np.empty_like(params)
    for j in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[j] += h
        dn[j] -= h
        fu = net.loss(kind, net.forward(top, up, x), y)
        fd = net.loss(kind, net.forward(top, dn, x), y)
        g[j] = (fu - fd) / (2.0 * h)
    return g


def max_rel_err(a, b):
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


def make_case(r, kind):
    """Random small net + batch appropriate for the loss kind."""
    hidden = tuple(int(v) for v in r.integers(2, 8, size=r.integers(1, 3)))
    acts_pool = ("tanh", "relu", "elu")
    if kind == "categorical_cross_entropy":
        k_out = int(r.integers(2, 4))
        out_act = "linear"
    elif kind == "binary_cross_entropy_from_logits":
        k_out = 1
        out_act = "linear"
    else:
        k_out = int(r.integers(1, 3))
        out_act = str(r.choice(acts_pool + ("linear",)))
    sizes = (int(r.integers(1, 5)),) + hidden + (k_out,)
    acts = tuple(str(r.choice(acts_pool)) for _ in hidden) + (out_act,)
    top = Topology(sizes, acts)
    params = r.normal(size=top.param_count)
    n = int(r.integers(1, 7))
    x = r.normal(size=(n, sizes[0]))
    if kind == "categorical_cross_entropy":
        y = np.eye(k_out)[r.integers(0, k_out, size=n)].astype(float)
    elif kind == "binary_cross_entropy_from_logits":
        y = (r.random(size=(n, 1)) > 0.5).astype(float)
    else:
        y = r.normal(size=(n, k_out))
    return top, params, x, y


def relu_safe(top, params, x, margin=1e-3):
    """True when no pre-activation of a relu layer sits within `margin` of 0.

    A kink inside the finite-difference stencil would invalidate the oracle,
    not the analytic gradient.
    """
    pre, _ = forward_keeping_pre(top, params, x)
    for z, act in zip(pre, top.activations):
        if act == "relu" and np.any(np.abs(z) < margin):
            return False
    return True


@pytest.mark.parametrize("kind", net.LOSSES)
def test_gradient_matches_fd(kind):
    r = rng(hash(kind) % 2**32)
    done = 0
    while done < 8:
        top, params, x, y = make_case(r, kind)
        if not relu_safe(top, params, x):
            continue
        g = net.Evaluator(top, kind, x, y).gradient(params)
        g_fd = fd_gradient(top, params, x, y, kind)
        assert max_rel_err(g, g_fd) < 1e-6
        done += 1


def test_gradient_zero_at_perfect_sse_fit():
    top = Topology((1, 3, 1), ("tanh", "linear"))
    params = rng(9).normal(size=top.param_count)
    x = rng(10).normal(size=(5, 1))
    y = net.forward(top, params, x)
    g = net.Evaluator(top, "sse", x, y).gradient(params)
    assert np.all(g == 0.0)


@pytest.mark.parametrize("act", net.ACTIVATIONS)
@pytest.mark.parametrize("kind", net.LOSSES)
def test_stacked_losses_equal_each_row_alone_bit_for_bit(kind, act):
    r = rng(len(kind) * 11 + len(act))
    top, _, x, y = bound_case(r, kind, act)
    ev = net.Evaluator(top, kind, x, y)
    chunk = net.chunk_size(top, x.shape[0])
    # growing stacks, then a smaller one in the grown buffers
    for c in (1, 2, 7, chunk, chunk + 1, 7):
        stack = 2.0 * r.normal(size=(c, top.param_count))
        values = ev.losses(stack)
        assert values.shape == (c,)
        alone = [net.loss(kind, net.forward(top, row, x), y) for row in stack]
        assert np.array_equal(values, alone)
    assert np.array_equal(ev.losses(stack[3:4]), values[3:4])


def test_stacked_losses_refuse_nonfinite_outputs():
    top = Topology((1, 2, 1), ("tanh", "linear"))
    stack = np.zeros((3, top.param_count))
    stack[1, -1] = np.inf
    ev = net.Evaluator(top, "sse", np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(NonFiniteError, match="non-finite network outputs"):
        ev.losses(stack)
    assert np.array_equal(ev.losses(stack[[0, 2]]), [2.0, 2.0])


def test_loss_and_gradient_consistent():
    top = Topology((2, 4, 2), ("elu", "linear"))
    params = rng(11).normal(size=top.param_count)
    x = rng(12).normal(size=(6, 2))
    y = rng(13).normal(size=(6, 2))
    ev = net.Evaluator(top, "mse", x, y)
    v, g = ev.loss_and_gradient(params)
    g = g.copy()  # the next call overwrites the evaluator's buffer
    assert v == ev.losses(params[None])[0] == net.loss("mse", net.forward(top, params, x), y)
    np.testing.assert_array_equal(g, ev.gradient(params))


def test_gradient_empty_batch_rejected():
    top = Topology((1, 1), ("linear",))
    with pytest.raises(ValueError):
        net.Evaluator(top, "sse", np.zeros((0, 1)), np.zeros((0, 1))).gradient(np.zeros(2))


def test_gradient_nonfinite_params_flagged():
    top = Topology((1, 2, 1), ("tanh", "linear"))
    params = np.zeros(top.param_count)
    params[0] = np.nan
    with pytest.raises(NonFiniteError):
        net.Evaluator(top, "sse", np.ones((2, 1)), np.ones((2, 1))).gradient(params)


# ---------------------------------------------------------------------------
# the bound evaluator


def reference_loss_and_gradient(top, params, x, y, kind):
    """Backprop through fresh arrays and slopes taken from the pre-activations."""
    pre, post = forward_keeping_pre(top, params, x)
    value = net.loss(kind, post[-1], y)
    grad = np.empty(top.param_count)
    grad_views = net.layer_views(top, grad)
    weights = net.layer_views(top, params)
    delta = net._loss_output_grad(kind, post[-1], y)
    for layer in range(top.n_layers - 1, -1, -1):
        dz = delta * slope_from_pre(top.activations[layer], pre[layer], post[layer + 1])
        grad_views[layer][0][...] = dz.T @ post[layer]
        grad_views[layer][1][...] = dz.sum(axis=0)
        if layer > 0:
            delta = dz @ weights[layer][0]
    return value, grad


def bound_case(r, kind, act):
    if kind == "categorical_cross_entropy":
        k_out, out_act = 3, "linear"
        y = np.eye(3)[r.integers(0, 3, size=9)]
    elif kind == "binary_cross_entropy_from_logits":
        k_out, out_act = 1, "linear"
        y = (r.random(size=(9, 1)) > 0.5).astype(float)
    else:
        k_out, out_act = 2, act
        y = r.normal(size=(9, 2))
    top = Topology((3, 5, 4, k_out), (act, act, out_act))
    return top, r.normal(size=top.param_count), r.normal(size=(9, 3)), y


@pytest.mark.parametrize("act", net.ACTIVATIONS)
@pytest.mark.parametrize("kind", net.LOSSES)
def test_evaluator_matches_module_functions_bit_for_bit(kind, act):
    r = rng(len(kind) * 7 + len(act))
    top, params, x, y = bound_case(r, kind, act)
    ev = net.Evaluator(top, kind, x, y)
    for _ in range(3):
        want_value, want_grad = reference_loss_and_gradient(top, params, x, y, kind)
        value, grad = ev.loss_and_gradient(params)
        assert value == want_value
        np.testing.assert_array_equal(grad, want_grad)
        np.testing.assert_array_equal(ev.gradient(params), want_grad)
        assert ev.losses(params[None])[0] == net.loss(kind, net.forward(top, params, x), y)
        outputs = forward_keeping_pre(top, params, x)[1][-1]
        assert np.array_equal(net.forward(top, params, x).view(np.int64), outputs.view(np.int64))
        # the integrator updates one array in place; the kept views follow it
        params += 0.01 * r.normal(size=params.shape)


@pytest.mark.parametrize("act", net.ACTIVATIONS)
def test_gradient_skips_linear_slope_bit_for_bit(act):
    # a linear layer's dz is delta itself, not delta * ones: same bits,
    # signed zeros included, with the linear layer in every position
    r = rng(91 + len(act))
    for activations in ((act, "linear", act), ("linear", act, "linear"), (act, act, act)):
        top = Topology((3, 6, 5, 2), activations)
        params = r.normal(size=top.param_count)
        params[: 3 * 6 : 4] = -0.0
        x = r.normal(size=(11, 3))
        x[::3, 1] = -0.0
        y = r.normal(size=(11, 2))
        for kind in ("sse", "mse"):
            want_value, want_grad = reference_loss_and_gradient(top, params, x, y, kind)
            value, grad = net.Evaluator(top, kind, x, y).loss_and_gradient(params)
            assert value == want_value
            assert np.array_equal(grad.view(np.int64), want_grad.view(np.int64))


@pytest.mark.parametrize("act", ["relu", "elu", "tanh"])
def test_slope_from_activations_equals_slope_from_pre_activations(act):
    # a > 0 exactly where z > 0, down to signed zeros and subnormals
    magnitudes = [0.0, 5e-324, 1e-300, 1e-8, 1.0, 40.0, 800.0]
    z = np.array([sign * m for m in magnitudes for sign in (1.0, -1.0)])
    with np.errstate(over="ignore"):  # expm1(800) in the discarded branch
        a = apply_activation(act, z)
    got = net._activation_slope(act, a)
    assert np.array_equal(got.view(np.int64), slope_from_pre(act, z, a).view(np.int64))


@pytest.mark.parametrize("kind", ["mse", "categorical_cross_entropy"])
def test_interleaved_calls_share_no_stale_layer(kind):
    # every call recomputes the hidden buffers it and the backward pass read
    r = rng(37)
    top, p1, x, y = bound_case(r, kind, "elu")
    p2 = p1 + 0.5 * r.normal(size=p1.shape)
    ev = net.Evaluator(top, kind, x, y)
    calls = (("losses", p1[None]), ("gradient", p2), ("losses", p1[None]), ("gradient", p1))
    for method, params in calls:
        got = np.array(getattr(ev, method)(params))
        want = np.array(getattr(net.Evaluator(top, kind, x, y), method)(params))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_evaluator_flags_nonfinite_params():
    top, params, x, y = bound_case(rng(14), "mse", "linear")
    params[-1] = np.inf
    ev = net.Evaluator(top, "mse", x, y)
    with pytest.raises(NonFiniteError):
        ev.gradient(params)
    with pytest.raises(NonFiniteError):
        ev.losses(params[None])


@pytest.mark.parametrize(
    "kind,x,y,error,match",
    [
        ("huber", np.zeros((2, 2)), np.zeros((2, 1)), ValueError, "unknown loss"),
        ("sse", np.zeros(2), np.zeros((2, 1)), ValueError, "2-D"),
        ("sse", np.zeros((2, 3)), np.zeros((2, 1)), ValueError, "features"),
        ("sse", np.array([[0.0, np.nan]]), np.zeros((1, 1)), NonFiniteError, "inputs"),
        ("sse", np.zeros((2, 2)), np.zeros(2), ValueError, "2-D"),
        ("sse", np.zeros((2, 2)), np.zeros((3, 1)), ValueError, "shape mismatch"),
        ("sse", np.zeros((0, 2)), np.zeros((0, 1)), ValueError, "at least one sample"),
        ("sse", np.zeros((1, 2)), np.array([[np.inf]]), NonFiniteError, "non-finite"),
        ("categorical_cross_entropy", np.zeros((2, 2)), np.zeros((2, 1)), ValueError, "two output classes"),
        ("binary_cross_entropy_from_logits", np.zeros((2, 2)), np.full((2, 1), 0.5), ValueError, "0 or 1"),
    ],
)
def test_evaluator_rejects_bad_data_at_construction(kind, x, y, error, match):
    top = Topology((2, 1), ("linear",))
    with pytest.raises(error, match=match):
        net.Evaluator(top, kind, x, y)


def test_evaluator_rejects_non_one_hot_targets():
    top = Topology((2, 3), ("linear",))
    with pytest.raises(ValueError, match="one-hot"):
        net.Evaluator(top, "categorical_cross_entropy", np.zeros((2, 2)), np.full((2, 3), 0.5))


def test_labels_from_outputs():
    multi = np.array([[0.1, 0.9, 0.3], [2.0, 2.0, 1.0]])
    np.testing.assert_array_equal(net.class_labels_from_outputs(multi), [1, 0])
    binary = np.array([[0.2], [-0.4], [0.0]])
    np.testing.assert_array_equal(net.class_labels_from_outputs(binary), [1, 0, 0])


def test_labels_from_stacked_outputs():
    # (members, samples, k): ties go to the lowest index on every member
    multi = np.array([
        [[0.1, 0.9, 0.3], [2.0, 2.0, 1.0], [-1.0, 0.5, 0.5]],
        [[1.0, 1.0, 1.0], [0.0, -3.0, 4.0], [7.0, 7.0, 7.5]],
    ])
    labels = net.class_labels_from_outputs(multi)
    np.testing.assert_array_equal(labels, [[1, 0, 1], [0, 2, 2]])
    for m in range(2):
        np.testing.assert_array_equal(labels[m], net.class_labels_from_outputs(multi[m]))
    # one logit on 3-D input: > 0 is class 1, and 0 itself is class 0
    binary = np.array([[[0.2], [-0.4], [0.0]], [[-0.0], [1e-300], [-2.0]]])
    labels = net.class_labels_from_outputs(binary)
    assert labels.dtype == np.int64
    np.testing.assert_array_equal(labels, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        net.class_labels_from_outputs(np.zeros(3))
