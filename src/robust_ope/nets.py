"""Minimal dense neural kernel: fully connected nets, backprop, Adam, spectral norm.

Everything runs in float64 on numpy arrays. Nets are plain dataclasses; a
trained net's arrays view one flat buffer, and a copy or a pickle owns its
memory, so nets move between workers freely. Training is single-threaded.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "identity")


class DimensionError(ValueError):
    """Input shape does not match the network."""


class TrainingFault(RuntimeError):
    """Non-finite values encountered during an update."""


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "relu"
    # persistent left singular vector for power iteration
    power_vec: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass
class FeedForwardNet:
    layers: list[Layer]

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def copy(self) -> "FeedForwardNet":
        return copy.deepcopy(self)


@dataclass
class SgdConfig:
    learning_rate: float = 1e-4
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def init_net(layer_dims: list[int], rng: np.random.Generator) -> FeedForwardNet:
    """Build a net with uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights.

    `layer_dims` lists [input, hidden..., output] sizes. Hidden layers are
    relu, the output layer identity.
    """
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dims")
    layers = []
    for i in range(len(layer_dims) - 1):
        fan_in, fan_out = layer_dims[i], layer_dims[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        act = "identity" if i == len(layer_dims) - 2 else "relu"
        layers.append(Layer(weight=w, bias=b, activation=act))
    return FeedForwardNet(layers=layers)


def _apply_activation(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return z


def forward_batch(net: FeedForwardNet, inputs: np.ndarray) -> np.ndarray:
    """Forward pass on a (n, in_dim) batch; returns (n, out_dim)."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != net.in_dim:
        raise DimensionError(
            f"expected (n, {net.in_dim}) input, got {inputs.shape}")
    h = inputs
    for layer in net.layers:
        h = _apply_activation(h @ layer.weight.T + layer.bias, layer.activation)
    return h


def forward(net: FeedForwardNet, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != net.in_dim:
        raise DimensionError(f"expected ({net.in_dim},) input, got {x.shape}")
    return forward_batch(net, x[None, :])[0]


def _forward_trace(net: FeedForwardNet, inputs: np.ndarray):
    """Forward pass keeping pre-activations for backprop."""
    h = inputs
    pre = []
    post = [h]
    for layer in net.layers:
        z = h @ layer.weight.T + layer.bias
        pre.append(z)
        h = _apply_activation(z, layer.activation)
        post.append(h)
    return pre, post


def backward_batch(net: FeedForwardNet, inputs: np.ndarray,
                   output_grads: np.ndarray):
    """Batch backprop of a scalar objective whose per-output gradients are given.

    Parameter gradients are *summed* over the batch; divide by n upstream for
    mean objectives. Returns (list of (dW, db) per layer, input gradients).
    """
    inputs = np.asarray(inputs, dtype=float)
    output_grads = np.asarray(output_grads, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != net.in_dim:
        raise DimensionError(
            f"expected (n, {net.in_dim}) input, got {inputs.shape}")
    if output_grads.shape != (inputs.shape[0], net.out_dim):
        raise DimensionError(
            f"expected {(inputs.shape[0], net.out_dim)} gradient, "
            f"got {output_grads.shape}")
    pre, post = _forward_trace(net, inputs)
    return _backprop(net, pre, post, output_grads)


def _backprop(net: FeedForwardNet, pre, post, g: np.ndarray):
    """Backpropagate output gradients `g` through a `_forward_trace`."""
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.activation == "relu":
            g = g * (pre[i] > 0)
        grads[i] = (g.T @ post[i], g.sum(axis=0))
        g = g @ layer.weight
    return grads, g


def backward(net: FeedForwardNet, x: np.ndarray, output_grad: np.ndarray):
    """Single-input backprop; returns ([(dW, db) per layer], input gradient)."""
    x = np.asarray(x, dtype=float)
    output_grad = np.asarray(output_grad, dtype=float)
    if output_grad.shape != (net.out_dim,):
        raise DimensionError(
            f"expected ({net.out_dim},) output gradient, got {output_grad.shape}")
    grads, gin = backward_batch(net, x[None, :], output_grad[None, :])
    return grads, gin[0]


@dataclass
class AdamState:
    """Adam moments over `params`, one flat buffer of all a net's parameters.

    `for_net` copies the weights and biases into `params` and rebinds each
    layer's arrays to views of it, so one update covers the whole net. Adam
    is the only update rule because the stock learning rate of 1e-4 only
    trains these small nets in a reasonable number of epochs with adaptive
    per-parameter steps.
    """

    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_net(cls, net: FeedForwardNet) -> "AdamState":
        arrays = [a for l in net.layers for a in (l.weight, l.bias)]
        params = np.concatenate([a.ravel() for a in arrays])
        views = np.split(params, np.cumsum([a.size for a in arrays])[:-1])
        for i, layer in enumerate(net.layers):
            layer.weight = views[2 * i].reshape(layer.weight.shape)
            layer.bias = views[2 * i + 1].reshape(layer.bias.shape)
        return cls(params, np.zeros_like(params), np.zeros_like(params))


def adam_step(net: FeedForwardNet, grads, config: SgdConfig,
              state: AdamState) -> FeedForwardNet:
    """In-place Adam update with bias correction. Returns the same net.

    `grads` lists (dW, db) per layer, packed here in `state.params` order.
    """
    g = np.concatenate([a.ravel() for pair in grads for a in pair])
    if not np.isfinite(g).all():
        raise TrainingFault("non-finite gradient in adam_step")
    lr = config.learning_rate
    state.step += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    state.m[:] = b1 * state.m + (1 - b1) * g
    state.v[:] = b2 * state.v + (1 - b2) * g ** 2
    state.params -= lr * (state.m / c1) / (np.sqrt(state.v / c2) + eps)
    return net


def _spectral_sigma(w: np.ndarray, power_vec: np.ndarray | None):
    """Return (power-iteration spectral-norm estimate of `w`, power vector).

    Given `power_vec`, one step is taken from it (Miyato et al. 2018);
    without one, the iteration burns in from a fixed random vector until it
    stabilizes. The estimate is None where `w` is to be left as it is: a
    zero matrix, a vanishing iterate or an estimate that is not positive.
    """
    burn_in = power_vec is None
    if burn_in:
        if not np.any(w):
            return None, None
        u = np.random.default_rng(0).standard_normal(w.shape[0])
        u /= math.sqrt(u @ u)
    else:
        u = power_vec
    sigma_prev = None
    for _ in range(2000 if burn_in else 1):
        v = w.T @ u
        v_norm = math.sqrt(v @ v)
        if v_norm == 0:
            return None, u
        v /= v_norm
        u = w @ v
        u_norm = math.sqrt(u @ u)
        if u_norm == 0:
            return None, u
        u /= u_norm
        if burn_in:
            sigma_now = float(u @ w @ v)
            if sigma_prev is not None and abs(sigma_now - sigma_prev) \
                    <= 1e-12 * abs(sigma_now):
                break
            sigma_prev = sigma_now
    sigma = float(u @ w @ v)
    return (None if sigma <= 0 else sigma), u


def spectral_normalize(weights: np.ndarray,
                       power_vec: np.ndarray | None = None):
    """Divide a matrix by its power-iteration spectral-norm estimate.

    Returns (normalized matrix, updated power vector); see `_spectral_sigma`.
    """
    w = np.asarray(weights, dtype=float)
    sigma, u = _spectral_sigma(w, power_vec)
    return (w.copy() if sigma is None else w / sigma), u


def spectral_normalize_net(net: FeedForwardNet) -> None:
    """Normalize every weight matrix in place, reusing persistent power vectors.

    Weights are divided, never rebound, so views of `AdamState.params` hold.
    """
    for layer in net.layers:
        sigma, layer.power_vec = _spectral_sigma(layer.weight, layer.power_vec)
        if sigma is not None:
            layer.weight /= sigma


def fit(net: FeedForwardNet, inputs: np.ndarray, output_grads,
        config: SgdConfig, rng: np.random.Generator) -> FeedForwardNet:
    """The minibatch training loop shared by every trained net; in place.

    Per epoch the rows are permuted by `rng`. Per minibatch of row indices
    `idx` the net is spectral-normalized and traced forward once;
    `output_grads(outputs, idx)` returns d(loss)/d(outputs), which is
    backpropagated through the same trace for one `adam_step`. A
    TrainingFault raised in an epoch is re-raised naming that epoch.
    """
    inputs = np.asarray(inputs, dtype=float)
    state = AdamState.for_net(net)
    for epoch in range(config.epochs):
        order = rng.permutation(inputs.shape[0])
        try:
            for start in range(0, inputs.shape[0], config.batch_size):
                idx = order[start:start + config.batch_size]
                spectral_normalize_net(net)
                pre, post = _forward_trace(net, inputs[idx])
                grads, _ = _backprop(net, pre, post,
                                     output_grads(post[-1], idx))
                adam_step(net, grads, config, state)
        except TrainingFault as exc:
            raise TrainingFault(f"{exc} at epoch {epoch}") from exc
    return net
