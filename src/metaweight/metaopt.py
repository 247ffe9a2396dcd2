"""The bilevel training loop: weighted loss, virtual step, meta-gradient.

One iteration does three things with a shared training mini-batch and an
independent meta mini-batch:

1. Virtual step: w_hat(Theta) = w - alpha * sum_i coeff_i * d L_i/d w,
   a plain SGD step whose coefficients coeff_i come from the weighting
   net (raw weight / n, or the normalized eta_i).
2. Meta step: the meta-set loss at w_hat is differentiated through the
   virtual step analytically. With g_meta the mean meta-batch gradient at
   w_hat and g_j training sample j's gradient at w, the unnormalized case
   gives

       grad_theta = -(alpha/n) * sum_j (g_meta . g_j) * dV(L_j)/dTheta

   and Theta moves by -beta * grad_theta, so a training sample whose
   gradient aligns with the meta gradients gets its weight pushed up.
   Under normalization the coefficients couple through their sum and the
   quotient rule replaces the simple per-sample factor.
3. Actual step: the classifier redoes the weighted step from w with the
   weights recomputed under the new Theta, this time with the configured
   momentum and weight decay. It updates the velocity in place and writes
   the new parameters into its gradient's buffer (`nnet.sgd_step`).

No step builds a per-sample gradient row, and the meta step builds no
vector of param_count length at all. One backward pass on the training
batch gives each layer's inputs a_k and deltas delta_k at w
(`nnet.layer_deltas`); the virtual step is kept as these factors, and the
meta batch runs forward and backward at w_hat through them
(`nnet.lookahead_forward`, `nnet.lookahead_deltas`) with the m x n Gram
matrices K_k = a_meta,k a_k^T + 1. The inner products g_meta . g_j are
then the column means of sum_k K_k * (delta_meta,k delta_k^T)
(`nnet.gradient_gram`), so neither w_hat nor g_meta is ever formed; the
extra work is O(n * m * width). Only `meta_gradient_fd`, the independent
oracle, builds w_hat as a vector. The deltas do not depend on Theta, so
the virtual step's backward pass is reused by step 3, the one
param_count-sized reduction of an iteration.

The weighting net runs forward once per Theta: the virtual step's pass at
Theta gives the raw weights, and its cache gives the meta step's Jacobian
dV(L_j)/dTheta (`nnet.per_sample_gradients` with unit upstream); step 3
runs the second pass, at the updated Theta'.

Every pass over a whole dataset or grid (epoch evaluation and meta loss,
the tracked samples, the final report's losses, weights and curve) runs
without a cache in row blocks of `nnet.ROW_BLOCK` (`nnet.outputs`), so it
holds one block's activations whatever the dataset's size; each training
step runs `nnet.forward` on its whole batch and keeps the cache.

Values are checked as `nnet`'s module docstring sets out: once, where
they enter, and never again inside the loop.
"""

from __future__ import annotations

import math
import sys
import warnings as _warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from metaweight import weightnet
from metaweight.biasgen import BiasedDataset, derive_seed, rng_stream, sample_batch
from metaweight.metrics import confusion_matrix, stability_from_history
from metaweight.nnet import (
    DenseNet,
    ForwardCache,
    LayerSpec,
    dot,
    forward,
    gradient_gram,
    init_net,
    layer_deltas,
    lookahead_deltas,
    lookahead_forward,
    outputs,
    per_sample_gradients,
    sgd_step,
    softmax_cross_entropy,
    weighted_gradient,
)
from metaweight.weightnet import MWNet, init_mwnet, mw_forward, mw_forward_cache

WEIGHT_CURVE_POINTS = 200
TRACKED_SAMPLES = 10
# The weight curve's grid ends at this percentile of the final training
# losses, taken by `_percentile` because np.percentile imports numpy.ma.
CURVE_PERCENTILE = 99.0
# An epoch's meta loss above this many times ln(c), the loss of a uniform
# guess, marks a diverging run. The shipped configs stay below 3 times
# ln(c) in every epoch, baselines included.
DIVERGENCE_FACTOR = 10.0
# This many consecutive iterations with an exactly zero meta-gradient (and
# some weight nonzero) mark a stalled weighting net. None of the 8400
# iterations of the shipped configs' learned runs has a zero meta-gradient
# (the smallest norm is about 1e-8), so a small count raises no false
# alarm there. One zero can come from a batch whose weights all sit where
# the sigmoid head rounds to 1; five in a row take five independently drawn
# batches, and a stalled net is reported within five iterations.
STALL_ITERS = 5


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer-level settings for one training run."""

    alpha: float = 0.1
    beta: float = 1e-2
    n: int = 32
    m: int = 16
    T: int = 100
    normalize: bool = False
    classifier_momentum: float = 0.0
    classifier_weight_decay: float = 0.0
    lr_schedule: tuple[tuple[int, float], ...] = ()
    seed: int = 0

    def __post_init__(self):
        # Each comparison is written so that NaN fails it.
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        # beta == 0 freezes the weighting net, which equals running it as a
        # fixed rule; tests use it (baselines bring their own fixed rule)
        if not self.beta >= 0:
            raise ValueError("beta must be >= 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not 0.0 <= self.classifier_momentum < 1.0:
            raise ValueError("classifier_momentum must be in [0, 1)")
        if not self.classifier_weight_decay >= 0:
            raise ValueError("classifier_weight_decay must be >= 0")
        schedule = tuple((int(it), float(mult)) for it, mult in self.lr_schedule)
        for it, mult in schedule:
            if not 0 <= it < self.T or not mult > 0:
                raise ValueError(f"bad lr_schedule entry ({it}, {mult}): need 0 <= iteration < T={self.T}, mult > 0")
        object.__setattr__(self, "lr_schedule", schedule)


@dataclass
class TrainState:
    """Classifier, weighting net, momentum buffer and spare classifier.

    Each classifier step (`update_classifier`) updates `velocity`, a
    float64 vector shaped like `w.params`, in place, and writes the new
    parameters into the vector of `spare`, a net of `w`'s layers (built at
    the first step if None); the new state's `w` is the spare and its
    `spare` the old `w`, so a run keeps two classifier vectors, and a
    caller that keeps a state across two steps copies its `w.params`.
    `theta` is replaced at each weighting-net step; None for a fixed rule."""

    w: DenseNet
    theta: MWNet | None
    velocity: np.ndarray
    spare: DenseNet | None = None


@dataclass
class Batch:
    """A mini-batch; samples are sorted by dataset index at construction
    so reductions run in one canonical order regardless of draw order.
    Ids already in order keep the arrays given, uncopied."""

    ids: np.ndarray
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.ids.size == 0:
            raise ValueError("empty batch")
        if self.features.shape[0] != self.ids.size or self.labels.shape != self.ids.shape:
            raise ValueError("batch field lengths disagree")
        if (self.ids[1:] < self.ids[:-1]).any():
            order = np.argsort(self.ids, kind="stable")
            self.ids = self.ids[order]
            self.features = self.features[order]
            self.labels = self.labels[order]

    @property
    def size(self) -> int:
        return self.ids.size

    @classmethod
    def from_dataset(cls, dataset: BiasedDataset, indices: np.ndarray) -> "Batch":
        """The rows `indices` of a dataset, in sorted order. The dataset's
        arrays were checked when it was built, so the batch is built from
        them without the constructor's checks."""
        indices = np.array(indices, dtype=np.int64)  # a copy, sorted in place (np.sort without its wrapper)
        indices.sort()
        if indices.size == 0:
            raise ValueError("empty batch")
        batch = object.__new__(cls)
        batch.ids, batch.features, batch.labels = indices, dataset.features[indices], dataset.observed_labels[indices]
        return batch


@dataclass
class VirtualCache:
    """One virtual step from w, kept as the factors of w_hat and reused by
    the meta step and the actual update: the training batch's forward pass
    at w, its per-layer deltas (`nnet.layer_deltas`), losses, raw weights,
    step coefficients coeffs = raw_weights / denom with their denominator,
    and the weighting net's forward pass at Theta that gave the raw weights.
    w_hat = w - alpha * sum_i coeffs[i] * g_i is never formed."""

    losses: np.ndarray
    forward_cache: ForwardCache
    deltas: list[np.ndarray]
    raw_weights: np.ndarray
    coeffs: np.ndarray
    denom: float
    mw_cache: ForwardCache


@dataclass
class MetaGradientReport:
    """The analytic meta-gradient and the pieces it is assembled from.

    mean_G_per_j[j] is the inner product between the mean meta gradient at
    w_hat and training sample j's gradient at w.
    """

    grad_theta: np.ndarray
    mean_G_per_j: np.ndarray
    weighted_loss: float
    virtual: VirtualCache


@dataclass
class RunReport:
    """Everything a finished run exposes for analysis.

    Histories hold one entry per completed epoch (an epoch is
    ceil(N_train / n) iterations). Stability is computed from the tracked
    weights: one row between each pair of adjacent epochs, so
    len(histories) - 1 of them, and none below 2 epochs.
    """

    accuracy_history: np.ndarray
    train_loss_history: np.ndarray
    meta_loss_history: np.ndarray
    grad_norm_history: np.ndarray
    final_confusion: np.ndarray
    curve_losses: np.ndarray
    curve_weights: np.ndarray
    dist_ids: np.ndarray
    dist_weights: np.ndarray
    dist_corrupted: np.ndarray
    tracked_ids: np.ndarray
    tracked_weight_history: np.ndarray
    config_echo: dict
    warnings: list[str] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        total = self.final_confusion.sum()
        return float(np.trace(self.final_confusion) / total)

    @property
    def stability_mean(self) -> np.ndarray:
        return self._stability()[0]

    @property
    def stability_std(self) -> np.ndarray:
        return self._stability()[1]

    def _stability(self) -> tuple[np.ndarray, np.ndarray]:
        if self.tracked_weight_history.shape[0] < 2:
            return np.empty(0), np.empty(0)
        return stability_from_history(self.tracked_weight_history)

    def clean_noisy_means(self) -> tuple[float, float] | None:
        """Mean final weight of the clean and of the corrupted samples;
        None unless both groups are present."""
        noisy = self.dist_corrupted
        if not noisy.any() or noisy.all():
            return None
        return float(self.dist_weights[~noisy].mean()), float(self.dist_weights[noisy].mean())


BASELINE_KINDS = ("uniform", "ramp", "step")


@dataclass(frozen=True)
class BaselineSpec:
    """A fixed loss -> weight rule standing in for the learned net.

    uniform: weight 1. ramp: (loss / max loss in the batch)^gamma,
    clipped to [0, 1]. step: 1 below the threshold lam, 0 above.
    """

    kind: str
    gamma: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.kind == "ramp" and not self.gamma >= 0:
            raise ValueError("ramp exponent gamma must be >= 0")
        if self.kind == "step" and not self.lam > 0:
            raise ValueError("step threshold lam must be > 0")

    def weight_fn(self):
        if self.kind == "uniform":
            return lambda losses: np.ones_like(np.asarray(losses, dtype=np.float64))
        if self.kind == "ramp":

            def ramp(losses):
                losses = np.asarray(losses, dtype=np.float64)
                top = losses.max()
                if top <= 0.0:
                    return np.ones_like(losses)
                return np.clip((losses / top) ** self.gamma, 0.0, 1.0)

            return ramp
        return lambda losses: (np.asarray(losses, dtype=np.float64) < self.lam).astype(np.float64)


def _losses(net: DenseNet, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample losses, from a forward pass in row blocks that keeps no
    cache (`nnet.outputs`)."""
    return softmax_cross_entropy(outputs(net, features), labels)[0]


def _losses_deltas(net: DenseNet, batch: Batch) -> tuple[np.ndarray, ForwardCache, list[np.ndarray]]:
    """Per-sample losses plus the forward cache and per-layer deltas of
    one backward pass."""
    out, cache = forward(net, batch.features)
    losses, dlogits = softmax_cross_entropy(out, batch.labels)
    return losses, cache, layer_deltas(net, cache, dlogits)


def _coefficients(raw: np.ndarray, normalize: bool) -> tuple[np.ndarray, float]:
    """The step coefficients raw / denom and denom: `weightnet.normalizer`
    under normalization (the coefficients are `weightnet.normalize(raw)`),
    else the batch size."""
    if normalize:
        denom = weightnet.normalizer(raw)
        return raw / denom, denom
    coeffs = raw / raw.size
    if not np.isfinite(coeffs).all():
        raise ValueError("non-finite sample weights")
    return coeffs, raw.size


class _stage:
    """Prefix a numeric failure inside the block with where it happened: the
    loop stage it hit, or the report file being read."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (ValueError, ArithmeticError)):
            raise ValueError(f"{self.name}: {exc}") from exc


def virtual_update(state: TrainState, batch: Batch, normalize: bool = False) -> VirtualCache:
    """One plain SGD step on the weighted loss, kept as a function of
    Theta: w_hat = w - alpha * sum_i coeff_i * grad_i, held as its factors
    and never formed (see `VirtualCache`); the meta step applies alpha.
    No momentum, no weight decay; those belong to the actual update."""
    losses, fcache, deltas = _losses_deltas(state.w, batch)
    raw, mw_cache = mw_forward_cache(state.theta, losses)
    coeffs, denom = _coefficients(raw, normalize)
    return VirtualCache(losses, fcache, deltas, raw, coeffs, denom, mw_cache)


def meta_gradient_direct(
    state: TrainState,
    train_batch: Batch,
    meta_batch: Batch,
    alpha: float,
    normalize: bool = False,
) -> MetaGradientReport:
    """Exact gradient of the mean meta loss at w_hat(Theta) w.r.t. Theta.

    Unnormalized, this is the closed form
    -(alpha/n) * sum_j (g_meta . g_j) * dV(L_j; Theta)/dTheta; under
    normalization the same chain rule runs through eta = raw/sum(raw)
    and picks up the quotient-rule coupling between samples; an all-zero
    raw vector has an all-zero Jacobian, so its gradient is 0. The meta
    batch runs forward and backward at w_hat through the virtual step's
    factors, and the n inner products come from the m x n Gram matrices
    of the two batches (see the module docstring); the weighting net's
    Jacobian comes from the virtual step's forward pass at Theta.
    """
    if not alpha >= 0:
        raise ValueError("alpha must be >= 0")
    with _stage("virtual step"):
        cache = virtual_update(state, train_batch, normalize)
    with _stage("meta step"):
        scale = (alpha * cache.coeffs)[:, None]
        steps = [scale * delta for delta in cache.deltas]
        meta_out, meta_fcache, grams = lookahead_forward(state.w, cache.forward_cache, steps, meta_batch.features)
        dmeta = softmax_cross_entropy(meta_out, meta_batch.labels)[1]
        meta_deltas = lookahead_deltas(state.w, cache.forward_cache, steps, meta_fcache, dmeta)
        # np.add.reduce(x) / count is ndarray.mean's arithmetic without its
        # Python wrapper (see nnet's module docstring)
        mean_G_per_j = np.add.reduce(gradient_gram(grams, meta_deltas, cache.deltas), axis=0) / meta_batch.size
        jac = per_sample_gradients(state.theta.net, cache.mw_cache, np.ones((cache.losses.size, 1)))

        n = train_batch.size
        if normalize:
            # d(eta_j)/d(raw_k) = delta_jk/denom - raw_j/denom^2, dividing
            # twice where denom^2 is below the normal range
            denom = cache.denom
            coupled = float(dot(mean_G_per_j, cache.raw_weights))
            coupled = coupled / denom**2 if denom**2 >= sys.float_info.min else coupled / denom / denom
            grad_theta = dot(-alpha * (mean_G_per_j / denom - coupled), jac)
        else:
            grad_theta = -(alpha / n) * dot(mean_G_per_j, jac)

        if not np.isfinite(grad_theta).all():
            raise ValueError("non-finite meta-gradient")
    return MetaGradientReport(
        grad_theta=grad_theta,
        mean_G_per_j=mean_G_per_j,
        weighted_loss=float(dot(cache.coeffs, cache.losses)),
        virtual=cache,
    )


def meta_gradient_fd(
    state: TrainState,
    train_batch: Batch,
    meta_batch: Batch,
    alpha: float,
    eps: float,
    normalize: bool = False,
) -> np.ndarray:
    """Central-difference oracle for the meta-gradient: perturb each
    Theta coordinate, rebuild w_hat(Theta), re-evaluate the meta loss."""
    from metaweight.nnet import fd_gradient

    losses, fcache, deltas = _losses_deltas(state.w, train_batch)

    def mean_meta_loss(theta_params: np.ndarray) -> float:
        mw = state.theta.with_theta(theta_params)
        raw = mw_forward(mw, losses)
        coeffs = _coefficients(raw, normalize)[0]
        w_hat = state.w.params - alpha * weighted_gradient(state.w, fcache, deltas, coeffs)
        return float(_losses(state.w.with_params(w_hat), meta_batch.features, meta_batch.labels).mean())

    return fd_gradient(mean_meta_loss, state.theta.theta, eps)


def update_theta(state: TrainState, grad_theta: np.ndarray, beta: float) -> TrainState:
    """Plain SGD on the weighting net: Theta' = Theta - beta * grad_theta."""
    if not beta >= 0:
        raise ValueError("beta must be >= 0")
    if grad_theta.shape != state.theta.theta.shape:
        raise ValueError("grad_theta shape mismatch")
    theta = state.theta.with_theta(state.theta.theta - beta * grad_theta)
    return TrainState(state.w, theta, state.velocity, state.spare)


def update_classifier(
    state: TrainState,
    forward_cache: ForwardCache,
    deltas: list[np.ndarray],
    raw: np.ndarray,
    alpha: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    normalize: bool = False,
) -> tuple[TrainState, np.ndarray]:
    """The classifier's SGD step from w on the per-sample gradients of one
    backward pass at w (its forward cache and `nnet.layer_deltas`),
    weighted by `raw`; returns the new state and the coefficients applied.
    Momentum and weight decay apply here and only here; zero both for the
    bare one-step form. The deltas depend on w only, not on Theta, so the
    virtual step's pass serves a step under the updated Theta.

    The gradient goes into the spare's vector, which `nnet.sgd_step`
    overwrites with the new parameters while it updates `state.velocity`
    in place; `state.w.params` is left unchanged. The new state's `w` is
    the spare and its `spare` is `state.w` (see `TrainState`).
    """
    with _stage("classifier step"):
        coeffs = _coefficients(raw, normalize)[0]
        spare = state.spare if state.spare is not None else state.w.with_params(np.zeros_like(state.w.params))
        grad = weighted_gradient(state.w, forward_cache, deltas, coeffs, out=spare.params)
        params, _ = sgd_step(
            state.w.params, grad, alpha, momentum=momentum, weight_decay=weight_decay, state=state.velocity
        )
        if not np.isfinite(params).all():
            raise ValueError("non-finite parameter entries")
        return TrainState(spare, state.theta, state.velocity, state.w), coeffs


def train_step(
    state: TrainState,
    train_batch: Batch,
    meta_batch: Batch,
    config: TrainConfig,
    alpha: float,
) -> tuple[TrainState, MetaGradientReport, np.ndarray]:
    """One full iteration: virtual step, Theta update, classifier update,
    each under its stage name. Returns the new state, the meta-gradient
    report and the raw weights the classifier step applied.

    `alpha` is the classifier step size of this iteration: config.alpha
    under the driver's schedule.
    """
    if train_batch.size != config.n:
        raise ValueError(f"train batch size {train_batch.size} != config.n {config.n}")
    if meta_batch.size != config.m:
        raise ValueError(f"meta batch size {meta_batch.size} != config.m {config.m}")
    report = meta_gradient_direct(state, train_batch, meta_batch, alpha, config.normalize)
    with _stage("theta update"):
        state = update_theta(state, report.grad_theta, config.beta)
    raw = mw_forward_cache(state.theta, report.virtual.losses)[0]
    state, _ = update_classifier(
        state, report.virtual.forward_cache, report.virtual.deltas, raw, alpha,
        config.classifier_momentum, config.classifier_weight_decay, config.normalize,
    )
    return state, report, raw


def evaluate(net: DenseNet, dataset: BiasedDataset) -> tuple[float, np.ndarray]:
    """Accuracy of argmax predictions against the true labels plus the
    confusion matrix (rows true class, columns predicted class). The
    forward pass runs in row blocks (`nnet.outputs`)."""
    predictions = np.argmax(outputs(net, dataset.features), axis=1)
    confusion = confusion_matrix(dataset.true_labels, predictions, dataset.c)
    return float(np.trace(confusion) / dataset.n), confusion


def _check_meta_set(meta_set: BiasedDataset, train_set: BiasedDataset) -> list[str]:
    if meta_set.n == 0:
        raise ValueError("meta set is empty")
    if np.any(meta_set.corrupted):
        raise ValueError("meta set must have clean labels")
    counts = meta_set.class_counts
    if np.any(counts != counts[0]):
        raise ValueError(f"meta set must be class-balanced, got counts {counts.tolist()}")
    notes = []
    if meta_set.n > train_set.n:
        msg = f"meta set ({meta_set.n}) larger than train set ({train_set.n}); expected M << N"
        _warnings.warn(msg)
        notes.append(msg)
    return notes


def _pick_tracked(train_set: BiasedDataset, seed: int, count: int = TRACKED_SAMPLES) -> np.ndarray:
    """Sample ids whose weights get traced per epoch: noisy ones when
    available, otherwise arbitrary samples. A baseline run on the same
    training set and seed tracks the same ids as the learned run."""
    rng = rng_stream(seed, 200)
    pool = np.flatnonzero(train_set.corrupted)
    if pool.size == 0:
        pool = np.arange(train_set.n)
    take = min(count, pool.size)
    return np.sort(rng.choice(pool, size=take, replace=False))


def _batches(dataset: BiasedDataset, size: int, rng: np.random.Generator) -> Callable[[], Batch]:
    """A function returning the next mini-batch of `size` samples drawn by
    `rng`. A batch the size of the set is the whole set in sorted order
    whatever the draw, so it is built once and returned every time, and
    `rng` is never drawn; each stream feeds only its own set's batches, so
    no other draw changes."""
    if size == dataset.n:
        whole = Batch.from_dataset(dataset, np.arange(dataset.n))
        return lambda: whole
    return lambda: Batch.from_dataset(dataset, sample_batch(dataset, size, rng))


def train(
    train_set: BiasedDataset,
    meta_set: BiasedDataset,
    test_set: BiasedDataset,
    config: TrainConfig,
    classifier_specs: Sequence[LayerSpec],
    mwnet_hidden: tuple[int, ...] = (100,),
    weight_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    config_echo: dict | None = None,
) -> tuple[TrainState, RunReport]:
    """Run T iterations of the bilevel loop and assemble the run report.

    weight_fn replaces the weighting net with a fixed losses -> weights
    map (baselines): each iteration is then the same `update_classifier`
    step with the rule's weights and no meta step, Theta is never touched
    and recorded meta-gradient norms are zero; no weighting net is built
    and the returned state's `theta` is None. The report's warnings name a
    meta set larger than the train set, classifier steps whose weights
    were all zero, a meta-gradient that stayed exactly zero, and epochs
    whose meta loss shows the run diverging.

    Each iteration draws a training batch of config.n samples and, in a
    learned run, a meta batch of config.m. A batch as large as its set is
    the whole set on every draw, so it is built once and not drawn
    (`_batches`).
    """
    notes = _check_meta_set(meta_set, train_set)
    if config.n > train_set.n:
        raise ValueError(f"batch size n={config.n} exceeds train set size {train_set.n}")
    if config.m > meta_set.n:
        raise ValueError(f"meta batch size m={config.m} exceeds meta set size {meta_set.n}")
    if test_set.n == 0:
        raise ValueError("test set is empty")

    classifier = init_net(classifier_specs, derive_seed(config.seed, 1))
    mwnet = init_mwnet(mwnet_hidden, derive_seed(config.seed, 2)) if weight_fn is None else None
    state = TrainState(w=classifier, theta=mwnet, velocity=np.zeros_like(classifier.params))
    # The state holds the only references, so each weighting net is freed
    # once replaced, and the two classifier nets trade places each step.
    del classifier, mwnet

    tracked_ids = _pick_tracked(train_set, config.seed)
    tracked_batch = Batch.from_dataset(train_set, tracked_ids)

    def weigh(theta: MWNet, losses: np.ndarray) -> np.ndarray:
        if weight_fn is None:
            return mw_forward(theta, losses)
        raw = np.asarray(weight_fn(losses), dtype=np.float64)
        if raw.shape != losses.shape or (raw < 0).any() or not np.isfinite(raw).all():
            raise ValueError("weight_fn must return finite nonnegative weights, one per sample")
        return raw

    draw_train = _batches(train_set, config.n, rng_stream(config.seed, 100))
    draw_meta = _batches(meta_set, config.m, rng_stream(config.seed, 101))
    schedule = sorted(config.lr_schedule)
    iters_per_epoch = -(-train_set.n // config.n)

    alpha = config.alpha
    history = {"accuracy": [], "train_loss": [], "meta_loss": [], "grad_norm": [], "tracked": []}
    epoch_losses, epoch_norms = [], []
    zero_weight_iters, zero_grad_iters = [], []

    for t in range(config.T):
        try:
            for it, mult in schedule:
                if it == t:
                    alpha *= mult
            train_batch = draw_train()

            if weight_fn is None:
                state, report, raw = train_step(state, train_batch, draw_meta(), config, alpha)
                epoch_losses.append(report.weighted_loss)
                epoch_norms.append(math.sqrt(dot(report.grad_theta, report.grad_theta)))
                # Its virtual-step cache holds the batch's activations and
                # deltas; nothing reads them again.
                del report
                # With all-zero weights the gradient is 0 too; that case is
                # the all-zero-weights warning's.
                if epoch_norms[-1] == 0.0 and raw.any():
                    zero_grad_iters.append(t + 1)
            else:
                with _stage("classifier step"):
                    losses, fcache, deltas = _losses_deltas(state.w, train_batch)
                    raw = weigh(state.theta, losses)
                state, coeffs = update_classifier(
                    state, fcache, deltas, raw, alpha,
                    config.classifier_momentum, config.classifier_weight_decay, config.normalize,
                )
                epoch_losses.append(float(dot(coeffs, losses)))
                epoch_norms.append(0.0)
            if not raw.any():
                zero_weight_iters.append(t + 1)

            if (t + 1) % iters_per_epoch == 0:
                with _stage("epoch evaluation"):
                    history["accuracy"].append(evaluate(state.w, test_set)[0])
                    history["train_loss"].append(float(np.mean(epoch_losses)))
                    history["grad_norm"].append(float(np.mean(epoch_norms)))
                    meta_losses = _losses(state.w, meta_set.features, meta_set.observed_labels)
                    history["meta_loss"].append(float(np.mean(meta_losses)))
                    losses = _losses(state.w, tracked_batch.features, tracked_batch.labels)
                    history["tracked"].append(weigh(state.theta, losses))
                epoch_losses, epoch_norms = [], []
        except ValueError as exc:
            raise ValueError(f"seed {config.seed}, iteration {t + 1} of {config.T}, {exc}") from exc

    if zero_weight_iters:
        notes.append(
            f"all-zero weights: every sample weight of the classifier step was zero in "
            f"{len(zero_weight_iters)} of {config.T} iterations, first in iteration {zero_weight_iters[0]}"
        )
    notes.extend(_stall_notes(zero_grad_iters, config.T))
    notes.extend(_divergence_notes(history["meta_loss"], meta_set.c))
    echo = asdict(config)
    echo["classifier_layers"] = [asdict(spec) for spec in classifier_specs]
    echo["mwnet_hidden"] = list(mwnet_hidden)
    echo["lr_schedule"] = [list(entry) for entry in config.lr_schedule]
    if config_echo:
        echo.update(config_echo)
    # The final pass needs one classifier vector; the spare's is freed here.
    state = TrainState(state.w, state.theta, state.velocity)
    return state, _final_report(state, weigh, train_set, test_set, tracked_ids, history, echo, notes)


def _stall_notes(zero_grad_iters: list[int], T: int) -> list[str]:
    """A run warning when the meta-gradient was exactly zero, with some
    weight nonzero, in STALL_ITERS consecutive iterations: Theta then no
    longer moves and the run has become a fixed-rule run."""
    run = 0
    for k, t in enumerate(zero_grad_iters):
        run = run + 1 if k and t == zero_grad_iters[k - 1] + 1 else 1
        if run == STALL_ITERS:
            return [
                f"zero meta-gradient: the meta-gradient was exactly zero with nonzero weights in "
                f"{len(zero_grad_iters)} of {T} iterations, {STALL_ITERS} or more in a row first from iteration "
                f"{t - STALL_ITERS + 1}, so the weighting net stopped learning"
            ]
    return []


def _divergence_notes(meta_losses: list[float], c: int) -> list[str]:
    """A run warning when some epoch's meta loss is above DIVERGENCE_FACTOR
    times ln(c): the classifier is then confidently wrong on the clean,
    balanced meta set, far worse than guessing."""
    limit = DIVERGENCE_FACTOR * float(np.log(c))
    over = [epoch for epoch, loss in enumerate(meta_losses, 1) if loss > limit]
    if not over:
        return []
    return [
        f"diverging meta loss: the meta-set loss was above {limit:.4g} ({DIVERGENCE_FACTOR:g} times ln {c}, "
        f"the loss of a uniform guess) in {len(over)} of {len(meta_losses)} epochs, first in epoch {over[0]} "
        f"at {meta_losses[over[0] - 1]:.4g}"
    ]


def _percentile(values: np.ndarray, percent: float) -> float:
    """`float(np.percentile(values, percent))` for a 1-D float64 array, bit
    for bit: NumPy's default ("linear") method, NaN when any value is NaN.
    The kth list and the two-sided lerp are NumPy's own, so equal values of
    either sign (0.0 and -0.0) land where NumPy's partition puts them."""
    n = values.size
    virtual = (n - 1) * (percent / 100)
    # at or past the last index NumPy reads the last value on both sides,
    # with the interpolation weight measured from index -1
    lo = math.floor(virtual) if virtual < n - 1 else -1
    hi = lo + 1 if lo >= 0 else -1
    g = virtual - lo
    part = np.partition(values, sorted({0, -1, lo, hi}))
    if math.isnan(part[-1]):
        return float(part[-1])
    a, b = float(part[lo]), float(part[hi])
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def _final_report(
    state: TrainState, weigh: Callable[[MWNet, np.ndarray], np.ndarray], train_set: BiasedDataset,
    test_set: BiasedDataset, tracked_ids: np.ndarray, history: dict[str, list], echo: dict, notes: list[str],
) -> RunReport:
    """The run report: per-epoch histories plus the final classifier's
    confusion matrix, per-sample weights and weight curve. The final passes
    read the training set in place (its ids are already in `Batch` order)
    and run both nets one row block at a time (`nnet.outputs`)."""
    _, final_confusion = evaluate(state.w, test_set)

    final_losses = _losses(state.w, train_set.features, train_set.observed_labels)

    hi = max(_percentile(final_losses, CURVE_PERCENTILE), 1e-6)
    grid = np.linspace(0.0, hi, WEIGHT_CURVE_POINTS)

    tracked_matrix = np.array(history["tracked"]) if history["tracked"] else np.empty((0, tracked_ids.size))

    return RunReport(
        accuracy_history=np.array(history["accuracy"]),
        train_loss_history=np.array(history["train_loss"]),
        meta_loss_history=np.array(history["meta_loss"]),
        grad_norm_history=np.array(history["grad_norm"]),
        final_confusion=final_confusion,
        curve_losses=grid,
        curve_weights=weigh(state.theta, grid),
        dist_ids=np.arange(train_set.n, dtype=np.int64),
        dist_weights=weigh(state.theta, final_losses),
        dist_corrupted=train_set.corrupted,
        tracked_ids=tracked_ids,
        tracked_weight_history=tracked_matrix,
        config_echo=echo,
        warnings=notes,
    )
