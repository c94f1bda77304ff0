"""Dense feedforward networks on flat float64 parameter vectors.

Parameter layout is layer-major: for each layer, in input-to-output order,
the weight matrix with shape ``(fan_out, fan_in)`` in row-major (C) order,
immediately followed by the bias vector of length ``fan_out``.  Everything
downstream (integrator state, snapshots on disk, Hessian probes) shares this
single flat layout.

Losses, conventions:

- ``sse``  sums squared errors over all samples and outputs.
- ``mse``  is ``sse`` divided by the sample count (not by the output count),
  so ``sse == mse * n_samples`` holds exactly.
- ``categorical_cross_entropy`` consumes raw logits (no softmax layer in the
  network) together with one-hot target rows, stabilised via the log-sum-exp
  shift, averaged over samples.
- ``binary_cross_entropy_from_logits`` consumes a single logit column with
  {0,1} targets, computed in the standard overflow-safe form, averaged over
  samples.

The module functions (:func:`forward`, :func:`loss`) validate their
arguments on every call.  Gradients and recorded losses come from an
:class:`Evaluator`, bound to one data set for the many evaluations of a
loop (the integrator, Adam, the Hessian probe): it validates the data
once, keeps the layer views of the parameter array it is handed, the
buffers of its forward and backward passes and a gradient buffer, and
runs the layer loop of
:func:`forward`, so its losses equal the module functions' bit for bit.
:meth:`Evaluator.losses` takes a ``(C, N)`` stack of parameter vectors,
the steps a loop records together, in one stacked pass.

Every stacked forward, the ensemble walk's and the loops' loss records,
holds :func:`chunk_size` vectors: a rule of the shapes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeding

ACTIVATIONS = ("tanh", "relu", "elu", "linear")
LOSSES = ("sse", "mse", "categorical_cross_entropy", "binary_cross_entropy_from_logits")

# Fixed ELU knee scale; exposed for tests.
ELU_ALPHA = 1.0
# float budget of one stacked forward's widest layer output; see chunk_size
CHUNK_VALUES = 1 << 16


class NonFiniteError(ArithmeticError):
    """A numeric quantity that must be finite came out inf or nan."""


@dataclass(frozen=True)
class Topology:
    """Layer sizes plus one activation per connection.

    ``layer_sizes[0]`` is the input dimension, ``layer_sizes[-1]`` the output
    dimension; ``activations[i]`` acts on the output of connection ``i``.
    """

    layer_sizes: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(n) for n in self.layer_sizes))
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(self.layer_sizes) < 2:
            raise ValueError("topology needs at least an input and an output layer")
        if any(n < 1 for n in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if len(self.activations) != len(self.layer_sizes) - 1:
            raise ValueError(
                f"expected {len(self.layer_sizes) - 1} activations, got {len(self.activations)}"
            )
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def param_count(self) -> int:
        return sum(
            (fan_in + 1) * fan_out
            for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        )

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) per connection."""
        return [
            (fan_out, fan_in)
            for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        ]


def layer_views(topology: Topology, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Zero-copy (weights, biases) views into a flat parameter vector or a stack.

    A vector ``(N,)`` gives weights ``(fan_out, fan_in)`` and biases
    ``(fan_out,)``.  A stack ``(C, N)`` of vectors gives weights
    ``(C, fan_out, fan_in)`` and biases ``(C, 1, fan_out)``, which broadcast
    over a ``(C, samples, fan_out)`` layer output.
    """
    params = np.asarray(params)
    if params.ndim not in (1, 2) or params.shape[-1] != topology.param_count:
        raise ValueError(
            f"parameter vector must have shape ({topology.param_count},) or "
            f"(members, {topology.param_count}), got {params.shape}"
        )
    stack = params.shape[:-1]
    views = []
    offset = 0
    for fan_out, fan_in in topology.layer_shapes():
        w = params[..., offset : offset + fan_out * fan_in].reshape(*stack, fan_out, fan_in)
        offset += fan_out * fan_in
        b = params[..., offset : offset + fan_out]
        if stack:
            b = b.reshape(*stack, 1, fan_out)
        offset += fan_out
        views.append((w, b))
    return views


# ---------------------------------------------------------------------------
# initialisers


def init_glorot_normal(topology: Topology, seed) -> np.ndarray:
    """Weights ~ N(0, 2/(fan_in+fan_out)) per layer, biases zero.

    Draw order is fixed (layers in order, weights row-major, then biases), so
    a seed pins the whole vector bit-for-bit.
    """
    rng = seeding.generator(seed)
    params = np.zeros(topology.param_count, dtype=np.float64)
    for w, b in layer_views(topology, params):
        fan_out, fan_in = w.shape
        sigma = np.sqrt(2.0 / (fan_in + fan_out))
        w[...] = rng.normal(0.0, sigma, size=w.shape)
        # biases stay zero
    return params


def init_stratified_glorot(topology: Topology, seed) -> np.ndarray:
    """Glorot-scale weights with input-node-stratified means.

    For a layer with ``n`` input nodes the interval [-2*sigma, 2*sigma]
    (sigma the Glorot normal scale) is cut into ``n`` equal segments; every
    weight fed by input node ``i`` is drawn from N(midpoint_i, sigma/2).  The
    segment midpoints are symmetric about zero, so the layer-wide mean is
    zero.  With ``n == 1`` this degenerates to a single centred normal.
    Biases are zero.
    """
    rng = seeding.generator(seed)
    params = np.zeros(topology.param_count, dtype=np.float64)
    for w, b in layer_views(topology, params):
        fan_out, fan_in = w.shape
        sigma = np.sqrt(2.0 / (fan_in + fan_out))
        width = 4.0 * sigma / fan_in
        midpoints = -2.0 * sigma + width * (np.arange(fan_in) + 0.5)
        w[...] = midpoints[np.newaxis, :] + rng.normal(0.0, sigma / 2.0, size=w.shape)
    return params


# the config's model.init names, each with its initialiser
INITIALIZERS = {
    "glorot_normal": init_glorot_normal,
    "stratified_glorot": init_stratified_glorot,
}


# ---------------------------------------------------------------------------
# forward pass


def _activate_in_place(kind: str, z: np.ndarray) -> np.ndarray:
    """The activation ``kind`` of the pre-activations ``z``, computed in ``z`` itself."""
    if kind == "tanh":
        return np.tanh(z, out=z)
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "elu":
        knee = ~(z > 0.0)
        np.expm1(z, out=z, where=knee)
        return np.multiply(ELU_ALPHA, z, out=z, where=knee)
    return z  # linear


def _activation_slope(kind: str, a: np.ndarray, out=None) -> np.ndarray:
    """d(activation)/dz of a tanh, relu or elu layer, from its activations ``a`` alone.

    Computed in ``out`` (shaped as ``a``) if given, else in a new array.
    ``a > 0`` holds exactly where ``z > 0``: for ``z <= 0`` both ``max(z, 0)``
    and ``expm1(z)`` are ``<= 0``.
    """
    if out is None:
        out = np.empty_like(a)
    if kind == "tanh":
        np.multiply(a, a, out=out)
        return np.subtract(1.0, out, out=out)
    if kind == "relu":
        return np.greater(a, 0.0, out=out)
    # elu: for z <= 0 the slope is alpha*exp(z) == a + alpha
    np.add(a, ELU_ALPHA, out=out)
    np.copyto(out, 1.0, where=a > 0.0)
    return out


def _check_inputs(topology: Topology, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError(f"inputs must be 2-D (samples, features), got shape {inputs.shape}")
    if inputs.shape[1] != topology.layer_sizes[0]:
        raise ValueError(
            f"inputs have {inputs.shape[1]} features, topology expects {topology.layer_sizes[0]}"
        )
    if not np.isfinite(inputs).all():
        raise NonFiniteError("non-finite values in network inputs")
    return inputs


def forward(
    topology: Topology, params: np.ndarray, inputs: np.ndarray, hidden_out=()
) -> np.ndarray:
    """Batched forward pass; rows are independent samples.

    ``params`` is one parameter vector ``(N,)``, giving outputs
    ``(samples, outputs)``, or a stack ``(C, N)`` of them, giving
    ``(C, samples, outputs)``.  Each layer of a stack is one stacked
    ``np.matmul``, which makes for every member the same BLAS call a single
    vector's ``a @ w.T`` makes, so ``forward(topology, stack, x)[c]`` equals
    ``forward(topology, stack[c], x)`` bit for bit.

    ``hidden_out``, if given, holds one array per hidden layer, shaped as
    that layer's output, and the hidden layers are computed in those
    arrays; otherwise they are computed in arrays allocated here.  The
    output layer is always a fresh array.
    """
    if hidden_out and len(hidden_out) != topology.n_layers - 1:
        raise ValueError(
            f"expected {topology.n_layers - 1} hidden-layer buffers, got {len(hidden_out)}"
        )
    a = _check_inputs(topology, inputs)
    if not hidden_out:
        hidden_out = _hidden_buffers(topology, (*np.shape(params)[:-1], a.shape[0]))
    return _forward(layer_views(topology, params), topology.activations, a, hidden_out)


def chunk_size(topology: Topology, n_rows: int) -> int:
    """Parameter vectors per stacked forward over ``n_rows`` inputs.

    The one size rule of every stacked forward: the ensemble walk's
    members and the steps whose losses a loop records together.  Fixed by
    shapes alone, so the chunks, and with them the bytes, never depend on
    the machine: each chunk's widest layer output, and its stack of
    parameter vectors, holds about ``CHUNK_VALUES`` floats, and at least
    one vector.  So a walk that reads its members from a file a chunk at a
    time holds at most that many of them.
    """
    widest = n_rows * max(topology.layer_sizes)
    return max(1, CHUNK_VALUES // max(widest, topology.param_count))


def _hidden_buffers(topology: Topology, lead: tuple) -> list[np.ndarray]:
    """One uninitialised ``(*lead, width)`` array per hidden layer."""
    return [np.empty((*lead, width)) for width in topology.layer_sizes[1:-1]]


def _forward(views, activations, a, hidden, out=None):
    """The one layer loop: hidden layer ``i`` in place in ``hidden[i]``, the
    output in ``out``, or fresh."""
    for (w, b), act, z in zip(views, activations, [*hidden, out]):
        z = np.matmul(a, w.swapaxes(-1, -2), out=z)
        z += b
        a = _activate_in_place(act, z)
    return a


# ---------------------------------------------------------------------------
# losses


def _check_targets(kind: str, targets, output_shape: tuple) -> np.ndarray:
    """Targets checked against the shape of the outputs they are compared with."""
    targets = np.asarray(targets, dtype=np.float64)
    if len(output_shape) != 2 or targets.ndim != 2:
        raise ValueError("outputs and targets must be 2-D (samples, outputs)")
    if targets.shape != output_shape:
        raise ValueError(f"shape mismatch: outputs {output_shape} vs targets {targets.shape}")
    if output_shape[0] < 1:
        raise ValueError("need at least one sample")
    if not np.isfinite(targets).all():
        raise NonFiniteError("non-finite values in targets")
    if kind == "categorical_cross_entropy":
        if output_shape[1] < 2:
            raise ValueError("categorical cross-entropy needs at least two output classes")
        _check_one_hot(targets)
    elif kind == "binary_cross_entropy_from_logits":
        if not np.all((targets == 0.0) | (targets == 1.0)):
            raise ValueError("binary cross-entropy targets must be 0 or 1")
    return targets


def _check_outputs(outputs: np.ndarray) -> None:
    if not np.isfinite(outputs).all():
        raise NonFiniteError("non-finite network outputs")


def _check_one_hot(targets: np.ndarray) -> None:
    if not np.all((targets == 0.0) | (targets == 1.0)) or not np.all(targets.sum(axis=1) == 1.0):
        raise ValueError("categorical cross-entropy targets must be one-hot rows")


def loss(kind: str, outputs: np.ndarray, targets: np.ndarray) -> float:
    if kind not in LOSSES:
        raise ValueError(f"unknown loss {kind!r}")
    outputs = np.asarray(outputs, dtype=np.float64)
    targets = _check_targets(kind, targets, outputs.shape)
    _check_outputs(outputs)
    return float(_loss_value(kind, outputs, targets))


def _loss_value(kind: str, outputs: np.ndarray, targets: np.ndarray):
    """The loss, reduced over the trailing ``(samples, outputs)`` axes.

    One network's 2-D outputs give a numpy scalar, a ``(C, samples,
    outputs)`` stack gives ``(C,)``.  Every reduction runs over trailing
    axes of a C-contiguous array, so each stack entry is the loss of that
    network alone, bit for bit.
    """
    if kind in ("sse", "mse"):
        return _squared_error(kind, outputs - targets)
    if kind == "categorical_cross_entropy":
        zmax = outputs.max(axis=-1, keepdims=True)
        lse = zmax[..., 0] + np.log(np.sum(np.exp(outputs - zmax), axis=-1))
        picked = np.sum(targets * outputs, axis=-1)
        return np.mean(lse - picked, axis=-1)
    # binary cross-entropy from logits: max(z,0) - z*t + log1p(exp(-|z|))
    z = outputs
    per_elem = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    return np.mean(np.sum(per_elem, axis=-1), axis=-1)


def _squared_error(kind: str, diff: np.ndarray):
    """``sse`` or ``mse`` of the errors ``diff``, reduced as :func:`_loss_value` reduces."""
    sse = np.sum(diff * diff, axis=(-2, -1))
    return sse if kind == "sse" else sse / diff.shape[-2]


def _loss_output_grad(kind: str, outputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """dL/d(outputs) for each loss kind."""
    n = outputs.shape[0]
    if kind == "sse":
        return 2.0 * (outputs - targets)
    if kind == "mse":
        return (2.0 / n) * (outputs - targets)
    if kind == "categorical_cross_entropy":
        zmax = outputs.max(axis=1, keepdims=True)
        ez = np.exp(outputs - zmax)
        softmax = ez / ez.sum(axis=1, keepdims=True)
        return (softmax - targets) / n
    # binary: sigmoid(z) - t, averaged over samples
    z = outputs
    sig = np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    return (sig - targets) / n


def class_labels_from_outputs(outputs: np.ndarray) -> np.ndarray:
    """Predicted class indices over the last axis of ``(..., k)`` outputs.

    A single logit (``k == 1``) is the binary case: logit > 0 means class
    1.  Otherwise the argmax wins, and the lowest index among tied maxima,
    matching the vote tie-break used for ensembles.
    """
    outputs = np.asarray(outputs)
    if outputs.ndim < 2:
        raise ValueError("outputs must be at least 2-D (..., outputs)")
    if outputs.shape[-1] == 1:
        return (outputs[..., 0] > 0.0).astype(np.int64)
    return np.argmax(outputs, axis=-1)


# ---------------------------------------------------------------------------
# gradient


class Evaluator:
    """A network bound to one data set, for many parameter vectors.

    The loss kind, inputs and targets are checked once, here, with the
    errors :func:`forward` and :func:`loss` raise.  Each call then runs the
    layer loop of :func:`forward` and the expressions of :func:`loss`, so
    losses agree bit for bit, and still raises :class:`NonFiniteError` on
    non-finite outputs, loss or gradient.

    Every call computes the hidden layers in buffers the Evaluator owns,
    one per layer (a stack of them for :meth:`losses`), and the backward
    pass reads its activations from them.  A gradient call also computes
    the output layer, each layer's slope and dz, and the weight and bias
    gradients in owned buffers, and an ``sse``/``mse`` one takes the loss
    and dL/d(outputs) from one ``outputs - targets``.
    The layer views of the last parameter array seen are kept, so an
    integrator that updates one array in place builds them once.  The array
    :meth:`gradient` returns is a buffer the next call overwrites.
    """

    def __init__(self, topology: Topology, loss_kind: str, inputs, targets):
        if loss_kind not in LOSSES:
            raise ValueError(f"unknown loss {loss_kind!r}")
        self.topology = topology
        self.loss_kind = loss_kind
        self.inputs = _check_inputs(topology, inputs)
        self.targets = _check_targets(
            loss_kind, targets, (self.inputs.shape[0], topology.layer_sizes[-1])
        )
        rows = self.inputs.shape[0]
        self._hidden = _hidden_buffers(topology, (rows,))
        self._out = np.empty((rows, topology.layer_sizes[-1]))
        self._diff = np.empty((rows, topology.layer_sizes[-1]))  # sse/mse: outputs - targets
        self._dz = [np.empty((rows, width)) for width in topology.layer_sizes[1:]]
        self._stack_hidden = 0, []
        self._grad = np.empty(topology.param_count, dtype=np.float64)
        self._grad_views = layer_views(topology, self._grad)
        self._params = None
        self._views = None

    def _views_of(self, params):
        if params is not self._params:
            self._views = layer_views(self.topology, params)
            self._params = params
        return self._views

    def losses(self, stack: np.ndarray) -> np.ndarray:
        """The loss of each row of a ``(C, N)`` stack of parameter vectors, as ``(C,)``.

        One stacked pass of the layer loop, in hidden buffers kept for the
        largest stack seen; entry ``c`` equals
        ``loss(kind, forward(topology, stack[c], inputs), targets)`` bit
        for bit.  Non-finite outputs in any row raise.
        """
        c = stack.shape[0]
        if self._stack_hidden[0] < c:
            self._stack_hidden = c, _hidden_buffers(self.topology, (c, self.inputs.shape[0]))
        hidden = [h[:c] for h in self._stack_hidden[1]]
        views = layer_views(self.topology, stack)
        outputs = _forward(views, self.topology.activations, self.inputs, hidden)
        _check_outputs(outputs)
        return _loss_value(self.loss_kind, outputs, self.targets)

    def loss_and_gradient(self, params: np.ndarray) -> tuple[float, np.ndarray]:
        """Full-batch loss and exact reverse-mode gradient d(loss)/d(params)."""
        topology, kind, targets = self.topology, self.loss_kind, self.targets
        weight_views = self._views_of(params)
        outputs = _forward(weight_views, topology.activations, self.inputs, self._hidden, self._out)
        _check_outputs(outputs)
        if kind in ("sse", "mse"):
            # one difference serves the loss and, scaled in place, dL/d(outputs)
            delta = np.subtract(outputs, targets, out=self._diff)
            value = float(_squared_error(kind, delta))
            delta *= 2.0 if kind == "sse" else 2.0 / outputs.shape[0]
        else:
            value = float(_loss_value(kind, outputs, targets))
            delta = _loss_output_grad(kind, outputs, targets)
        post = [self.inputs, *self._hidden, outputs]

        grad = self._grad
        for layer in range(topology.n_layers - 1, -1, -1):
            act = topology.activations[layer]
            # a linear slope is all ones, and x * 1.0 == x bit for bit
            if act == "linear":
                dz = delta
            else:
                dz = _activation_slope(act, post[layer + 1], self._dz[layer])
                dz *= delta
            gw, gb = self._grad_views[layer]
            np.matmul(dz.T, post[layer], out=gw)
            np.add.reduce(dz, axis=0, out=gb)
            if layer > 0:
                delta = dz @ weight_views[layer][0]

        if not math.isfinite(value) or not np.isfinite(grad).all():
            raise NonFiniteError("non-finite loss or gradient")
        return value, grad

    def gradient(self, params: np.ndarray) -> np.ndarray:
        return self.loss_and_gradient(params)[1]
