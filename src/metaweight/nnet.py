"""Dense feed-forward networks with manual forward/backward passes.

Everything here is plain float64 numpy. A network is a list of layer
specs plus one flat parameter vector; the flattening order is part of
the contract shared by every gradient in the package:

    for each layer k:  W_k.ravel() (C order, shape (input_dim, output_dim)),
                       then b_k (length output_dim)

Gradients come from one backward pass. `layer_deltas` returns, for each
layer k, the (batch, output_dim) matrix delta_k of per-sample loss
gradients with respect to the layer's pre-activations. Sample i's gradient
block for layer k is then a_k[i] (outer) delta_k[i] for W_k and delta_k[i]
for b_k, with a_k the layer's input, so the reductions the training loop
needs never build a per-sample gradient row:

    weighted_gradient:  sum_i c_i g_i  = per layer a_k^T (c * delta_k), c^T delta_k
    gradient_gram:      (g'_i . g_j)   = sum_k K_k * (delta'_k delta_k^T),
                                         K_k = a'_k a_k^T + 1

`gradient_gram` is the Gram-matrix form of per-example gradient inner
products (Goodfellow, arXiv:1510.01799): the bias block adds the 1.

The same factorization runs a network at the virtual point
w_hat = w - sum_i s_i g_i of an SGD step without forming w_hat. Layer k's
step is W_k - a_k^T S_k, b_k - 1^T S_k with S_k = s * delta_k, so a new
batch a'_k sees

    forward:   z'_k = a'_k W_k + b_k - K_k S_k
    backward:  delta'_{k-1} = (delta'_k W_k^T - (delta'_k S_k^T) a_k) * act'

(`lookahead_forward`, `lookahead_deltas`), and the K_k of the forward
pass are the Gram matrices `gradient_gram` needs. All of this costs
O(batch * width) memory instead of O(batch * param_count).
`per_sample_gradients` materializes the rows from the same deltas; it
serves as the oracle in tests and as the engine of the weighting net's
small Jacobian.

A forward pass keeps one array per layer, its output: ReLU rectifies the
pre-activation in place and its backward pass masks on act > 0, equal to
preact > 0 for every float (as in in-place activated layers, Rota Bulo et
al., arXiv:1712.02616); sigmoid's derivative reads only its output.

Products go through `dot = np.ndarray.dot`, not `@` or `np.matmul`, and
row reductions through `ufunc.reduce` (`np.add.reduce`,
`np.maximum.reduce`), not the `sum` and `max` methods. On the shipped
tiny models a step is about a hundred small NumPy calls, so per-call cost
sets its speed. `ndarray.dot` is `np.dot`'s C routine without its
`__array_function__` dispatch, and `ufunc.reduce` is what the methods
call after their Python-level argument handling, so both give the bits of
the forms they replace; `dot`'s first operand must be an ndarray, as
every array the kernels take is. Where the inner dimension is 1, `matmul`
takes a slow path; the weighting net's scalar input gives two such
products per meta step (x @ W_1 forward, delta_2 @ W_2^T back). `dot` and
`@` give the same bits on every operand the kernels pass
(tests/test_nnet.py). The one exception is `weighted_gradient`'s weight
block, which keeps `np.matmul(..., out=)` to write straight into the flat
gradient, where `dot` with `out=` is slower at the wide shapes.

`outputs` runs the forward pass ROW_BLOCK rows at a time without a cache,
for passes over a whole dataset or grid: O(ROW_BLOCK * width) memory,
which at the benchmarked widths fits in the memory a training step frees.

Values are checked once, where they enter the package, and each stage
output where it is made. Settings are checked in `metaopt.TrainConfig`
and `metaopt.BaselineSpec`, data in `biasgen.BiasedDataset` and
`biasgen.load_dataset`, hand-built batches in the `metaopt.Batch`
constructor, a fixed rule's weights where `metaopt.train` receives them,
and a weighting net's shape in the `weightnet.MWNet` constructor. The
`DenseNet` constructor checks the layer chain and the parameter vector;
`DenseNet.with_params`, the one way a new vector is bound onto a built
net, checks that vector's shape and finiteness against the layers
already checked; `outputs` coerces its input to a float64 matrix. The
kernels (`forward`, `lookahead_forward`, `layer_deltas`,
`lookahead_deltas`, `weighted_gradient`, `gradient_gram`,
`per_sample_gradients`, `softmax_cross_entropy`, `sgd_step`) take float64
2-D arrays (1-D vectors for `sgd_step`) as they are, without coercing
them: the training loop builds every array they see, from datasets
checked when they were built. All but `sgd_step` leave their inputs
unchanged, apart from `weighted_gradient`'s `out`; `sgd_step` updates the
velocity in place and writes the new parameter vector into the
gradient's buffer, so a run keeps two classifier nets and steps each
into the other's vector (`metaopt.TrainState`). The kernels check
argument shapes and step settings, not array values, and do not check
their outputs for finiteness; the training loop checks each stage output
it acts on (the step coefficients, the meta-gradient, each new
weighting-net vector through `with_params`, and the classifier's new
vector in `metaopt.update_classifier`), and nothing is checked again
inside the loop.
Reductions use numpy's fixed summation order, so identical inputs give
bit-identical results across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

# Rows per block of `outputs`. A multiple of 4, so that every block starts
# on a row where the BLAS kernels' row tiles start: with OpenBLAS (x86-64
# SkylakeX kernels) each block's rows then equal the rows of the one-pass
# product bit for bit on the shipped layer shapes (2-64-3, 2-16-3, 1-100-1).
# 64 rows, so that a block's activations at the widest benchmarked layer
# (256 units, 128 KiB) fit in the chunks a training step frees and a
# full-set pass does not grow the heap.
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
    """Layer specs plus one flat parameter vector (see module docstring for layout).

    Frozen: the per-layer (W, b) views into `params` are built once, at
    construction, and stay bound to that vector. The vector's entries are
    not frozen: a classifier step (`sgd_step`) writes the new parameters
    into the vector of a second net of the same layers, its spare.
    """

    layers: tuple[LayerSpec, ...]
    params: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "layers", _check_chain(self.layers))
        self._bind(np.asarray(self.params, dtype=np.float64), sum(s.param_count for s in self.layers))

    def _bind(self, params: np.ndarray, expected: int) -> None:
        """Check `params` against the layer chain and store it with its
        per-layer (W, b) views."""
        if params.shape != (expected,):
            raise ValueError(f"params must have shape ({expected},), got {params.shape}")
        if not np.isfinite(params).all():
            raise ValueError("non-finite parameter entries")
        views, off = [], 0
        for spec in self.layers:
            nw = spec.input_dim * spec.output_dim
            views.append((params[off:off + nw].reshape(spec.input_dim, spec.output_dim),
                          params[off + nw:off + spec.param_count]))
            off += spec.param_count
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_views", tuple(views))

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
        """This net's layers with the parameter vector `params`, held as
        given (a float64 array is not copied, so pass one nothing else will
        write to). The layer chain was checked when this net was built, so
        only the new vector's shape and finiteness are checked. The training
        loop binds each new weighting-net vector this way, and the
        classifier's spare once per run; classifier steps write into the
        two classifier vectors without rebinding them."""
        net = object.__new__(DenseNet)
        object.__setattr__(net, "layers", self.layers)
        net._bind(np.asarray(params, dtype=np.float64), self.params.size)
        return net


@dataclass
class ForwardCache:
    """The activations of one forward pass, the only arrays it keeps: acts[0]
    is the input batch, acts[k+1] the output of layer k."""

    acts: list[np.ndarray]

    @property
    def batch_size(self) -> int:
        return self.acts[0].shape[0]


def init_net(specs: Sequence[LayerSpec], seed: int) -> DenseNet:
    """Build a network with Gaussian weights and zero biases.

    Weight std is sqrt(2/input_dim) for ReLU layers (He) and
    sqrt(1/input_dim) otherwise; deterministic in (specs, seed).
    """
    # The constructor checks the layer chain on a zero vector; the weights
    # are then drawn into its views in place (finite by construction).
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
        # exp(-|z|) <= 1 cannot overflow; for each sign of z this is the same
        # arithmetic as 1/(1+exp(-z)) and exp(z)/(1+exp(z)), so the bits
        # match. A NaN fails z >= 0 and keeps e/d, which is NaN.
        e = np.exp(-np.abs(z))
        d = 1.0 + e
        return np.divide(1.0, d, out=e / d, where=z >= 0)
    return z


def _activation_backward(delta: np.ndarray, act: np.ndarray, kind: str) -> np.ndarray:
    """delta times the activation's derivative at the layer output `act`;
    identity passes delta through."""
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
    """Run the network on a float64 (batch_size, input_dim) matrix.

    Returns the final activations and a cache of every intermediate.
    """
    _check_batch(net, batch)
    acts = [batch]
    for spec, (w, b) in zip(net.layers, net.layer_params()):
        z = dot(acts[-1], w)
        z += b
        acts.append(_activate(z, spec.activation))
    return acts[-1], ForwardCache(acts)


def outputs(net: DenseNet, batch: np.ndarray) -> np.ndarray:
    """`forward`'s outputs without its cache, computed ROW_BLOCK rows at a
    time into one (batch_size, output_dim) array: a pass over a whole set
    holds one block's activations, not O(batch_size * width), and at the
    benchmarked widths a block fits in the memory a training step frees.

    A 1-row tail joins the block before it: NumPy runs a 1-row product as a
    matrix-vector product, whose rows differ in the last bits from the
    matrix product's. A batch of at most ROW_BLOCK + 1 rows is one block.
    """
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
    """Backprop one scalar loss per sample; entry k is the (batch_size,
    output_dim_k) matrix d(loss_i)/d(preact_k).

    `upstream` is the (batch_size, output_dim) matrix of per-sample loss
    gradients with respect to the network outputs.
    """
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
    """The flat vector sum_i coeffs[i] * d(loss_i)/d(params), built layer
    by layer from `layer_deltas` output without per-sample rows, into
    `out` (a contiguous float64 vector) when given."""
    grad = np.empty(net.param_count) if out is None else out
    if grad.shape != (net.param_count,):
        raise ValueError(f"out must have shape ({net.param_count},), got {grad.shape}")
    off = 0
    for spec, a_prev, delta in zip(net.layers, cache.acts, deltas):
        nw = spec.input_dim * spec.output_dim
        np.matmul(a_prev.T, coeffs[:, None] * delta, out=grad[off:off + nw].reshape(spec.input_dim, spec.output_dim))
        grad[off + nw:off + spec.param_count] = dot(coeffs, delta)
        off += spec.param_count
    return grad


def lookahead_forward(
    net: DenseNet, cache: ForwardCache, steps: list[np.ndarray], batch: np.ndarray
) -> tuple[np.ndarray, ForwardCache, list[np.ndarray]]:
    """`forward` at w_hat = w - sum_i s_i g_i, where g_i are the per-sample
    gradients of the batch cached in `cache` and steps[k] = s * delta_k
    (see module docstring). Returns the outputs, the cache and the
    per-layer Gram matrices K_k = a'_k a_k^T + 1 of this batch against the
    cached one."""
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
    """`layer_deltas` at the w_hat of `lookahead_forward`, for the batch of
    `look_cache`; `cache` and `steps` are the ones that defined w_hat."""
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
    """The (batch_a, batch_b) matrix of inner products g_a[i] . g_b[j]
    between two batches' per-sample gradients, sum_k K_k * (da_k db_k^T),
    from the per-layer Gram matrices K_k = a_a,k a_b,k^T + 1 (as returned
    by `lookahead_forward`) and each batch's per-layer deltas."""
    total = grams[0] * dot(deltas_a[0], deltas_b[0].T)
    for gram, da, db in zip(grams[1:], deltas_a[1:], deltas_b[1:]):
        total += gram * dot(da, db.T)
    return total


def per_sample_gradients(net: DenseNet, cache: ForwardCache, upstream: np.ndarray) -> np.ndarray:
    """Backprop one scalar loss per sample; row i is d(loss_i)/d(params).

    `upstream` is the (batch_size, output_dim) matrix of per-sample loss
    gradients with respect to the network outputs. The mean of the rows
    equals the gradient of the mean loss. Memory is batch_size *
    param_count floats; the training loop uses `weighted_gradient` and
    `gradient_gram` instead.
    """
    deltas = layer_deltas(net, cache, upstream)
    bsz = cache.batch_size
    grads = np.empty((bsz, net.param_count))
    off = 0
    for spec, a_prev, delta in zip(net.layers, cache.acts, deltas):
        nw = spec.input_dim * spec.output_dim
        # dL_i/dW = a_prev_i (outer) delta_i, C-order ravel matches the layout
        block = grads[:, off:off + nw].reshape(bsz, spec.input_dim, spec.output_dim)
        np.multiply(a_prev[:, :, None], delta[:, None, :], out=block)
        grads[:, off + nw:off + spec.param_count] = delta
        off += spec.param_count
    return grads


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
    """Momentum SGD: v' = momentum*v + grad + weight_decay*params; params' = params - lr*v',
    with `state` the velocity v.

    `state` becomes v' in place, as `torch.optim.SGD` updates its momentum
    buffer; params' is written into `grad`'s buffer, and (grad, state) is
    returned. `params` is left unchanged, and the step allocates no
    param-sized array. Evaluated left to right; the weight-decay product
    is taken even at weight_decay 0, for its signed zeros."""
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
    """Per-sample softmax cross-entropy and its gradient w.r.t. the logits.

    Returns (losses, grad) with losses shape (batch,) and grad shape
    (batch, classes) = softmax(logits) - onehot(labels). Labels must lie
    in [0, classes); they are checked where datasets are built, not here.
    """
    shifted = logits - np.maximum.reduce(logits, axis=1)[:, None]
    expz = np.exp(shifted)
    norm = np.add.reduce(expz, axis=1)
    # each sample's label entry, as one index into the raveled (batch, classes) arrays
    at_label = np.arange(0, shifted.size, shifted.shape[1]) + labels
    losses = np.log(norm) - shifted.ravel()[at_label]
    grad = np.divide(expz, norm[:, None], out=expz)  # softmax, turned into the gradient in place
    grad.ravel()[at_label] -= 1.0
    return losses, grad
