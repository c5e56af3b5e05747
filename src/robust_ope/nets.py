"""Minimal dense neural kernel: fully connected nets, backprop, Adam, spectral norm.

Everything runs in float64 on numpy arrays. A net is its layers' weights and
biases, with relu after every layer but the last. `fit` trains a net in an
`AdamState` workspace: the net's arrays become views of one flat parameter
buffer, backprop writes into one flat gradient buffer and Adam updates in
place, so a training step allocates nothing parameter-sized. The workspace
stays with `fit`: a trained net's arrays view the parameter buffer only, and
a copy or a pickle owns its memory, so nets move between workers freely.
Training is single-threaded.

Two per-step updates use folded forms that equal the textbook rules in real
arithmetic and match them to a few ulps in floating point. Adam folds its
bias corrections into one step size and one epsilon (Kingma & Ba 2014, end
of section 2). The spectral norm's power step takes sigma = |w v| in place
of u^T w v (Miyato et al. 2018, Alg. 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DimensionError(ValueError):
    """Input shape does not match the network."""


class TrainingFault(RuntimeError):
    """Non-finite values encountered during an update."""


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass
class FeedForwardNet:
    """Dense layers with relu after every layer but the last."""

    layers: list[Layer]

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


@dataclass
class SgdConfig:
    learning_rate: float = 1e-4
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def init_net(layer_dims: list[int], rng: np.random.Generator) -> FeedForwardNet:
    """Build a net with uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights.

    `layer_dims` lists [input, hidden..., output] sizes.
    """
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dims")
    if min(layer_dims) < 1:
        raise ValueError(f"every entry of layer_dims must be >= 1, "
                         f"got {list(layer_dims)}")
    layers = []
    for i in range(len(layer_dims) - 1):
        fan_in, fan_out = layer_dims[i], layer_dims[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(Layer(weight=w, bias=np.zeros(fan_out)))
    return FeedForwardNet(layers=layers)


def _forward_from(z: np.ndarray, layers: list[Layer]) -> np.ndarray:
    """Finish a forward pass from `z`, a fresh output of the layer before
    `layers`. Relu writes into each hidden output, which is freed once the
    next layer has read it, and the bias is added in place to each fresh
    product."""
    for layer in layers:
        z = np.maximum(z, 0.0, out=z) @ layer.weight.T
        z += layer.bias
    return z


def forward_batch(net: FeedForwardNet, inputs: np.ndarray) -> np.ndarray:
    """Forward pass on a (n, in_dim) batch; returns (n, out_dim)."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != net.in_dim:
        raise DimensionError(
            f"expected (n, {net.in_dim}) input, got {inputs.shape}")
    first = net.layers[0]
    z = inputs @ first.weight.T
    z += first.bias
    return _forward_from(z, net.layers[1:])


def action_inputs(contexts: np.ndarray, actions: np.ndarray,
                  n_actions: int) -> np.ndarray:
    """The input of a net on (context, action) rows: context ⊕ one-hot action."""
    contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
    onehot = np.eye(n_actions)[np.asarray(actions, dtype=int)]
    return np.hstack([contexts, onehot])


def forward_actions(net: FeedForwardNet, contexts: np.ndarray, n_actions: int):
    """The (n, n_actions * out_dim) outputs on `action_inputs`, action a in
    columns a * out_dim onward, multiplying the context half of the first
    layer once. Equal to `forward_batch` bit for bit where BLAS sums each
    product in column order."""
    contexts = np.asarray(contexts, dtype=float)
    d = net.in_dim - n_actions
    if contexts.ndim != 2 or contexts.shape[1] != d:
        raise DimensionError(f"expected (n, {d}) contexts, got {contexts.shape}")
    first, rest = net.layers[0], net.layers[1:]
    shared = contexts @ first.weight[:, :d].T

    def at(a):
        z = shared + first.weight[:, d + a]
        z += first.bias
        return _forward_from(z, rest)

    return np.hstack([at(a) for a in range(n_actions)])


def _forward_trace(net: FeedForwardNet, inputs: np.ndarray) -> list:
    """Forward pass keeping each layer's input, then the output, for backprop.
    The bias and relu are applied in place on each fresh matmul output."""
    trace = [inputs]
    for i, layer in enumerate(net.layers):
        h = trace[-1] @ layer.weight.T
        h += layer.bias
        if i < len(net.layers) - 1:
            np.maximum(h, 0.0, out=h)
        trace.append(h)
    return trace


def _backprop(net: FeedForwardNet, trace, g: np.ndarray, out) -> None:
    """Backpropagate output gradients `g` through a `_forward_trace`,
    writing each layer's gradients into its (dW, db) pair in `out`. Layer
    0's input gradient is never formed."""
    for i in range(len(net.layers) - 1, -1, -1):
        dw, db = out[i]
        np.matmul(g.T, trace[i], out=dw)
        g.sum(axis=0, out=db)
        if i == 0:
            return
        g = g @ net.layers[i].weight  # a fresh array, so masked in place
        g *= trace[i] > 0  # relu(z) > 0 exactly where z > 0


@dataclass
class AdamState:
    """The workspace of one `fit`: Adam moments over `params`, one flat
    buffer of all a net's parameters.

    `for_net` copies the weights and biases into `params` and rebinds each
    layer's arrays to views of it, so one update covers the whole net.
    Backprop writes into `grads`, per-layer (dW, db) views of `grad`, which
    is laid out like `params`; Adam computes in two `scratch` buffers. Adam
    is the only update rule because the stock learning rate of 1e-4 only
    trains these small nets in a reasonable number of epochs with adaptive
    per-parameter steps.
    """

    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    grads: list
    scratch: tuple
    step: int = 0

    @classmethod
    def for_net(cls, net: FeedForwardNet) -> "AdamState":
        arrays = [a for l in net.layers for a in (l.weight, l.bias)]
        params = np.concatenate([a.ravel() for a in arrays])
        grad = np.empty_like(params)
        bounds = np.cumsum([a.size for a in arrays])[:-1]

        def layer_views(buffer):
            views = [v.reshape(a.shape)
                     for v, a in zip(np.split(buffer, bounds), arrays)]
            return list(zip(views[::2], views[1::2]))

        for layer, (weight, bias) in zip(net.layers, layer_views(params)):
            layer.weight, layer.bias = weight, bias
        return cls(params, np.zeros_like(params), np.zeros_like(params),
                   grad, layer_views(grad),
                   (np.empty_like(params), np.empty_like(params)))


def adam_step(config: SgdConfig, state: AdamState) -> None:
    """In-place Adam update of `state.params` with bias correction from
    `state.grad`.

    The moments are kept scaled by 1 / (1 - beta): `m = b1 * m + g` and
    `v = b2 * v + g ** 2`, and the step folds the bias corrections c1, c2
    and those scales into two scalars (Kingma & Ba 2014, end of section 2):
    `params -= lr_t * m / (sqrt(v) + eps_t)` with
    `lr_t = lr * sqrt(c2) / c1 * (1 - b1) / sqrt(1 - b2)` and
    `eps_t = eps * sqrt(c2 / (1 - b2))`. In real arithmetic this is the
    textbook `params -= lr * (m / c1) / (sqrt(v / c2) + eps)` on unscaled
    moments; in floating point the two agree to a few ulps. One finite
    check precedes every write.
    """
    g, m, v = state.grad, state.m, state.v
    if not np.isfinite(g).all():
        raise TrainingFault("non-finite gradient in adam_step")
    a, b = state.scratch
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    lr_t = (config.learning_rate * math.sqrt(c2) / c1 * (1 - ADAM_BETA1)
            / math.sqrt(1 - ADAM_BETA2))
    eps_t = ADAM_EPS * math.sqrt(c2 / (1 - ADAM_BETA2))
    m *= ADAM_BETA1
    m += g
    v *= ADAM_BETA2
    v += np.square(g, out=a)
    np.sqrt(v, out=a)
    a += eps_t
    state.params -= np.divide(np.multiply(lr_t, m, out=b), a, out=b)


def _spectral_sigma(w: np.ndarray):
    """Return (power-iteration spectral-norm estimate of `w`, power vector),
    burning in from a fixed random vector until the estimate stabilizes.

    Each iteration takes v = w^T u / |w^T u|, u = w v / |w v| and
    sigma = u^T w v. The product `u @ w` that gives sigma is reused as the
    next iteration's w^T u: both are one BLAS gemv over `w` and equal bit
    for bit (a test pins this at the nets' shapes), so the iterates and the
    estimate are those of the loop that forms w^T u afresh.
    The estimate is None where `w` is to be left as it is: a zero matrix, a
    vanishing iterate or an estimate that is not positive.
    """
    if not np.any(w):
        return None, None
    u = np.random.default_rng(0).standard_normal(w.shape[0])
    u /= math.sqrt(u @ u)
    ut_w = w.T @ u
    sigma = None
    for _ in range(2000):
        v = ut_w
        v_norm = math.sqrt(v @ v)
        if v_norm == 0:
            return None, u
        v /= v_norm
        u = w @ v
        u_norm = math.sqrt(u @ u)
        if u_norm == 0:
            return None, u
        u /= u_norm
        ut_w = u @ w
        sigma_prev, sigma = sigma, float(ut_w @ v)
        if sigma_prev is not None and abs(sigma - sigma_prev) \
                <= 1e-12 * abs(sigma):
            break
    return (None if sigma <= 0 else sigma), u


def spectral_normalize_net(net: FeedForwardNet, power_vecs: list) -> None:
    """Normalize every weight matrix in place.

    `power_vecs` holds one power vector per layer, None before the first
    call, and is updated in place. A layer without one burns in through
    `_spectral_sigma`; a layer with one takes one power step from it
    (Miyato et al. 2018, Alg. 1): v = w^T u / |w^T u|, u = w v,
    sigma = |u|, u /= sigma, w /= sigma. After that step u^T w v = |w v|,
    so sigma needs no further product and matches u^T w v to a few ulps.
    Weights are divided, never rebound, so views of `AdamState.params` hold.
    """
    for i, layer in enumerate(net.layers):
        w, u = layer.weight, power_vecs[i]
        if u is None:
            sigma, power_vecs[i] = _spectral_sigma(w)
        else:
            v = w.T @ u
            v_norm = math.sqrt(v @ v)
            if v_norm == 0:
                continue
            v /= v_norm
            power_vecs[i] = u = w @ v
            sigma = math.sqrt(u @ u)
            if sigma == 0:
                continue
            u /= sigma
        if sigma is not None:
            w /= sigma


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
    power_vecs = [None] * len(net.layers)
    for epoch in range(config.epochs):
        order = rng.permutation(inputs.shape[0])
        try:
            for start in range(0, inputs.shape[0], config.batch_size):
                idx = order[start:start + config.batch_size]
                spectral_normalize_net(net, power_vecs)
                trace = _forward_trace(net, inputs[idx])
                _backprop(net, trace, output_grads(trace[-1], idx),
                          state.grads)
                adam_step(config, state)
        except TrainingFault as exc:
            raise TrainingFault(f"{exc} at epoch {epoch}") from exc
    return net
