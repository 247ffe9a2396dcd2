"""Dense feed-forward networks with manual forward and backward passes.

Everything is float64 NumPy. A network is a chain of layer specs (`mlp`)
plus one flat parameter vector, laid out as every gradient in the package
assumes:

    for each layer k:  W_k.ravel() (C order, shape (input_dim, output_dim)),
                       then b_k (length output_dim)

`layer_deltas` gives, per layer k, the (batch, output_dim) matrix delta_k
of per-sample loss gradients with respect to the pre-activations. With a_k
the layer's input, sample i's gradient block is a_k[i] (outer) delta_k[i]
for W_k and delta_k[i] for b_k, so no reduction builds a per-sample row:

    weighted_gradient:  sum_i c_i g_i  = per layer a_k^T (c * delta_k), c^T delta_k
    gradient_gram:      (g'_i . g_j)   = sum_k K_k * (delta'_k delta_k^T),
                                         K_k = a'_k a_k^T + 1

(per-example gradient inner products in Gram form, Goodfellow,
arXiv:1510.01799). The same factors run a network at the virtual point
w_hat = w - sum_i s_i g_i without forming it: with S_k = s * delta_k, a
new batch a'_k sees

    forward:   z'_k = a'_k W_k + b_k - K_k S_k
    backward:  delta'_{k-1} = (delta'_k W_k^T - (delta'_k S_k^T) a_k) * act'

(`lookahead_forward`, `lookahead_deltas`), in O(batch * width) memory.

A forward pass keeps each layer's output only: ReLU rectifies in place,
and its backward pass masks on act > 0, which equals preact > 0 for every
float (Rota Bulo et al., arXiv:1712.02616).

Products go through `dot = np.ndarray.dot` and reductions through
`ufunc.reduce` (`np.add.reduce`, `np.maximum.reduce`): a tiny model's step
is many small calls, and both skip the Python-level dispatch of `@`,
`sum` and `max` while giving their bits (tests/test_nnet.py). `dot`'s
first operand must be an ndarray. `weighted_gradient` writes its weight
blocks with `np.matmul(..., out=)`, straight into the flat gradient.

Values are checked once, where they enter the package: settings in
`metaopt.TrainConfig` and `metaopt.BaselineSpec`, data in
`biasgen.BiasedDataset` (a batch is a dataset's rows,
`metaopt.Batch.from_dataset`, and a kernel caller's dataset has as many
classes as the net has outputs), a weighting net's shape in
`weightnet.MWNet`, a layer chain and its vector in `DenseNet`, and each
new vector's shape and finiteness in `DenseNet.with_params`. The kernels
take float64 2-D arrays (1-D for `sgd_step`) uncoerced and check shapes
and settings, not values; all but `sgd_step` leave their inputs
unchanged, apart from `weighted_gradient`'s `out`. The loop checks each
stage output once, where it is made: weights in `metaopt.weights`, the
meta-gradient, and the classifier's new vector in
`metaopt.update_classifier`. Reductions keep NumPy's fixed summation
order, so identical inputs give identical bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

# Rows per block of `outputs`. A multiple of 4, so that every block starts
# where the BLAS kernels' row tiles start and its rows equal the one-pass
# product's bit for bit; few enough that a block's activations fit in the
# memory a training step frees.
ROW_BLOCK = 64

RELU = "relu"
SIGMOID = "sigmoid"
IDENTITY = "identity"
ACTIVATIONS = (RELU, SIGMOID, IDENTITY)

dot = np.ndarray.dot  # np.dot without its dispatch (module docstring)


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer followed by an activation."""

    input_dim: int
    output_dim: int
    activation: str = RELU

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError(f"layer dims must be >= 1, got {self.input_dim}->{self.output_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}")

    @cached_property  # read several times per training step; a stored value is cheaper than a call
    def param_count(self) -> int:
        return self.input_dim * self.output_dim + self.output_dim


def mlp(widths: Sequence[int], head: str) -> tuple[LayerSpec, ...]:
    """ReLU layers through `widths` (input, hidden..., output), with `head` the last layer's activation."""
    acts = [RELU] * (len(widths) - 2) + [head]
    return tuple(LayerSpec(a, b, act) for a, b, act in zip(widths, widths[1:], acts))


def _layer_views(layers: Sequence[LayerSpec], flat: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    views, off = [], 0
    for spec in layers:
        mid, end = off + spec.input_dim * spec.output_dim, off + spec.param_count
        views.append((flat[off:mid].reshape(spec.input_dim, spec.output_dim), flat[mid:end]))
        off = end
    return tuple(views)


def _check_chain(specs: Sequence[LayerSpec]) -> tuple[LayerSpec, ...]:
    specs = tuple(specs)
    if not specs:
        raise ValueError("network needs at least one layer")
    for a, b in zip(specs, specs[1:]):
        if a.output_dim != b.input_dim:
            raise ValueError(f"adjacent layer dims mismatch: {a.output_dim} != {b.input_dim}")
    return specs


@dataclass(frozen=True)
class DenseNet:
    """Layer specs plus one flat parameter vector (module docstring).

    Frozen: the (W, b) views are bound to `params` at construction. The
    vector's entries are not frozen; `sgd_step` writes into them."""

    layers: tuple[LayerSpec, ...]
    params: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "layers", _check_chain(self.layers))
        self._bind(np.asarray(self.params, dtype=np.float64), sum(s.param_count for s in self.layers))

    def _bind(self, params: np.ndarray, expected: int) -> None:
        if params.shape != (expected,):
            raise ValueError(f"params must have shape ({expected},), got {params.shape}")
        if not np.isfinite(params).all():
            raise ValueError("non-finite parameter entries")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_views", _layer_views(self.layers, params))

    @property
    def param_count(self) -> int:
        return self.params.size

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim

    def layer_params(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The (W, b) views into the flat vector, layer by layer."""
        return self._views

    def with_params(self, params: np.ndarray) -> "DenseNet":
        """This net's layers bound to `params`, uncopied if float64 (pass a
        vector nothing else writes to); checks its shape and finiteness."""
        net = object.__new__(DenseNet)
        object.__setattr__(net, "layers", self.layers)
        net._bind(np.asarray(params, dtype=np.float64), self.params.size)
        return net


@dataclass
class ForwardCache:
    """One forward pass's activations: acts[0] the input, acts[k+1] layer k's output."""

    acts: list[np.ndarray]

    @property
    def batch_size(self) -> int:
        return self.acts[0].shape[0]


def init_net(specs: Sequence[LayerSpec], seed: int) -> DenseNet:
    """Zero biases and Gaussian weights of std sqrt(2/input_dim) for ReLU
    layers (He) or sqrt(1/input_dim); deterministic in (specs, seed)."""
    # checked on a zero vector, then drawn into its views (finite by construction)
    net = DenseNet(specs, np.zeros(sum(spec.param_count for spec in specs)))
    rng = np.random.Generator(np.random.Philox(seed))
    for spec, (w, _) in zip(net.layers, net.layer_params()):
        scale = np.sqrt(2.0 / spec.input_dim) if spec.activation == RELU else np.sqrt(1.0 / spec.input_dim)
        w[...] = rng.normal(0.0, scale, size=w.shape)
    return net


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation of the pre-activation `z`; ReLU overwrites `z`."""
    if kind == RELU:
        return np.maximum(z, 0.0, out=z)
    if kind == SIGMOID:
        # exp(-|z|) <= 1 cannot overflow; per sign of z this is the arithmetic
        # of 1/(1+exp(-z)) or exp(z)/(1+exp(z)). A NaN fails z >= 0: e/d is NaN.
        e = np.exp(-np.abs(z))
        d = 1.0 + e
        return np.divide(1.0, d, out=e / d, where=z >= 0)
    return z


def _activation_backward(delta: np.ndarray, act: np.ndarray, kind: str) -> np.ndarray:
    """delta times the activation's derivative, read from the layer output `act`."""
    # ReLU subgradient at 0 is defined as 0.
    if kind == RELU:
        return delta * (act > 0.0)
    if kind == SIGMOID:
        return delta * (act * (1.0 - act))
    return delta


def _check_batch(net: DenseNet, batch: np.ndarray) -> None:
    if batch.ndim != 2 or batch.shape[1] != net.input_dim:
        raise ValueError(f"batch must be a matrix with {net.input_dim} columns, got shape {batch.shape}")


def forward(net: DenseNet, batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """The net's outputs on a (batch_size, input_dim) matrix, and the pass's cache."""
    _check_batch(net, batch)
    acts = [batch]
    for spec, (w, b) in zip(net.layers, net.layer_params()):
        z = dot(acts[-1], w)
        z += b
        acts.append(_activate(z, spec.activation))
    return acts[-1], ForwardCache(acts)


def outputs(net: DenseNet, batch: np.ndarray) -> np.ndarray:
    """`forward`'s outputs without its cache, ROW_BLOCK rows at a time, so a
    pass over a whole set holds one block's activations. A 1-row tail joins
    the block before it: NumPy runs a 1-row product as a matrix-vector
    product, whose bits differ from the matrix product's."""
    x = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    n = x.shape[0]
    if n <= ROW_BLOCK + 1:
        return forward(net, x)[0]
    out = np.empty((n, net.output_dim))
    starts = list(range(0, n, ROW_BLOCK))
    if n - starts[-1] == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [n]):
        out[start:stop] = forward(net, x[start:stop])[0]
    return out


def layer_deltas(net: DenseNet, cache: ForwardCache, upstream: np.ndarray) -> list[np.ndarray]:
    """Entry k is the (batch_size, output_dim_k) matrix d(loss_i)/d(preact_k),
    from `upstream`, each sample's loss gradient at the outputs."""
    bsz = cache.batch_size
    if upstream.shape != (bsz, net.output_dim):
        raise ValueError(f"upstream must have shape ({bsz}, {net.output_dim}), got {upstream.shape}")
    views = net.layer_params()
    deltas = [None] * len(net.layers)
    delta = upstream
    for k in range(len(net.layers) - 1, -1, -1):
        delta = _activation_backward(delta, cache.acts[k + 1], net.layers[k].activation)
        deltas[k] = delta
        if k > 0:
            delta = dot(delta, views[k][0].T)
    return deltas


def weighted_gradient(
    net: DenseNet, cache: ForwardCache, deltas: list[np.ndarray], coeffs: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """sum_i coeffs[i] * d(loss_i)/d(params) from `layer_deltas` output,
    into `out` (a contiguous float64 vector) when given."""
    grad = np.empty(net.param_count) if out is None else out
    if grad.shape != (net.param_count,):
        raise ValueError(f"out must have shape ({net.param_count},), got {grad.shape}")
    for (w, b), a_prev, delta in zip(_layer_views(net.layers, grad), cache.acts, deltas):
        np.matmul(a_prev.T, coeffs[:, None] * delta, out=w)
        b[...] = dot(coeffs, delta)
    return grad


def lookahead_forward(
    net: DenseNet, cache: ForwardCache, steps: list[np.ndarray], batch: np.ndarray
) -> tuple[np.ndarray, ForwardCache, list[np.ndarray]]:
    """`forward` at w_hat = w - sum_i s_i g_i, g_i the gradients of the batch
    in `cache` and steps[k] = s * delta_k; also returns the Gram matrices K_k."""
    _check_batch(net, batch)
    acts, grams = [batch], []
    for spec, (w, b), a_prev, step in zip(net.layers, net.layer_params(), cache.acts, steps):
        gram = dot(acts[-1], a_prev.T)
        gram += 1.0
        z = dot(acts[-1], w)
        z += b
        z -= dot(gram, step)
        grams.append(gram)
        acts.append(_activate(z, spec.activation))
    return acts[-1], ForwardCache(acts), grams


def lookahead_deltas(
    net: DenseNet, cache: ForwardCache, steps: list[np.ndarray], look_cache: ForwardCache, upstream: np.ndarray
) -> list[np.ndarray]:
    """`layer_deltas` at `lookahead_forward`'s w_hat, for the batch of `look_cache`."""
    views = net.layer_params()
    deltas = [None] * len(net.layers)
    delta = upstream
    for k in range(len(net.layers) - 1, -1, -1):
        delta = _activation_backward(delta, look_cache.acts[k + 1], net.layers[k].activation)
        deltas[k] = delta
        if k > 0:
            delta = dot(delta, views[k][0].T) - dot(dot(delta, steps[k].T), cache.acts[k])
    return deltas


def gradient_gram(grams: list[np.ndarray], deltas_a: list[np.ndarray], deltas_b: list[np.ndarray]) -> np.ndarray:
    """The matrix of g_a[i] . g_b[j] = sum_k K_k * (da_k db_k^T) between two batches."""
    total = grams[0] * dot(deltas_a[0], deltas_b[0].T)
    for gram, da, db in zip(grams[1:], deltas_a[1:], deltas_b[1:]):
        total += gram * dot(da, db.T)
    return total


def per_sample_gradients(net: DenseNet, cache: ForwardCache, upstream: np.ndarray) -> np.ndarray:
    """Row i is d(loss_i)/d(params), as in `layer_deltas`: the tests' oracle
    and the weighting net's Jacobian. Peaks at twice batch_size * param_count floats."""
    blocks = []
    for a_prev, delta in zip(cache.acts, layer_deltas(net, cache, upstream)):
        # dL_i/dW = a_prev_i (outer) delta_i, in contiguous blocks that one copy joins into rows
        outer = a_prev[:, :, None] * delta[:, None, :]
        blocks += [outer.reshape(len(delta), a_prev.shape[1] * delta.shape[1]), delta]
    return np.concatenate(blocks, axis=1)


def fd_gradient(loss_fn: Callable[[np.ndarray], float], params: np.ndarray, eps: float) -> np.ndarray:
    """Central-difference gradient estimate, one coordinate at a time."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    params = np.asarray(params, dtype=np.float64)
    grad = np.empty_like(params)
    probe = params.copy()
    for k in range(params.size):
        probe[k] = params[k] + eps
        hi = float(loss_fn(probe))
        probe[k] = params[k] - eps
        lo = float(loss_fn(probe))
        probe[k] = params[k]
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"non-finite loss evaluation at coordinate {k}")
        grad[k] = (hi - lo) / (2.0 * eps)
    return grad


def sgd_step(
    params: np.ndarray,
    grad: np.ndarray,
    lr: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    *,
    state: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Momentum SGD: v' = momentum*v + grad + weight_decay*params, params' = params - lr*v'.

    `state` (v) becomes v' in place, as in `torch.optim.SGD`; params' is
    written into `grad`'s buffer and (grad, state) returned; `params` is
    unchanged and nothing param-sized is allocated. The weight-decay
    product is taken even at 0, for its signed zeros."""
    if not lr >= 0:
        raise ValueError("lr must be >= 0")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must be in [0, 1)")
    if not weight_decay >= 0:
        raise ValueError("weight_decay must be >= 0")
    if grad.shape != params.shape:
        raise ValueError(f"shape mismatch: params {params.shape} vs grad {grad.shape}")
    if state.shape != params.shape:
        raise ValueError(f"shape mismatch: params {params.shape} vs state {state.shape}")
    state *= momentum
    state += grad
    np.multiply(weight_decay, params, out=grad)
    state += grad
    np.multiply(lr, state, out=grad)
    return np.subtract(params, grad, out=grad), state


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample softmax cross-entropy and its gradient softmax(logits) -
    onehot(labels); labels in [0, classes) are checked where datasets are built."""
    shifted = logits - np.maximum.reduce(logits, axis=1)[:, None]
    expz = np.exp(shifted)
    norm = np.add.reduce(expz, axis=1)
    # each sample's label entry, as one index into the raveled (batch, classes) arrays
    at_label = np.arange(0, shifted.size, shifted.shape[1]) + labels
    losses = np.log(norm) - shifted.ravel()[at_label]
    grad = np.divide(expz, norm[:, None], out=expz)  # softmax, turned into the gradient in place
    grad.ravel()[at_label] -= 1.0
    return losses, grad
