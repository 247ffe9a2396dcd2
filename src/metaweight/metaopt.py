"""The bilevel training loop: weighted loss, virtual step, meta-gradient.

One iteration (`train_step`) takes a training mini-batch and an
independent meta mini-batch (a fixed rule draws none and skips step 2):

1. Virtual step: w_hat(Theta) = w - alpha * sum_i coeff_i * dL_i/dw, a
   plain SGD step with coeff_i = raw weight / n, or the normalized eta_i.
2. Meta step: with g_meta the mean meta-batch gradient at w_hat and g_j
   training sample j's gradient at w, the unnormalized meta-gradient is

       grad_theta = -(alpha/n) * sum_j (g_meta . g_j) * dV(L_j)/dTheta

   (under normalization the quotient rule couples the samples), and Theta
   moves by -beta * grad_theta: a sample whose gradient aligns with the
   meta gradient gains weight.
3. Actual step: the classifier steps from w with the weights recomputed
   under the new Theta, with the configured momentum and weight decay.

No step builds a per-sample gradient row. The virtual step is kept as the
training batch's per-layer factors at w, the meta batch runs at w_hat
through them (`nnet.lookahead_forward`, `nnet.lookahead_deltas`), and the
g_meta . g_j are the column means of `nnet.gradient_gram`, so neither
w_hat nor g_meta is formed (`meta_gradient_fd`, the oracle, forms w_hat).
The deltas do not depend on Theta, so step 3 reuses the virtual step's
backward pass, and the Jacobian dV/dTheta comes from the virtual step's
weighting-net pass.

Passes over a whole dataset or grid run in row blocks without a cache
(`nnet.outputs`). Values are checked as `nnet`'s module docstring sets out.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from metaweight import _stage, weightnet
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
# guess, marks a diverging run; the shipped configs stay below 3 times.
DIVERGENCE_FACTOR = 10.0
# This many consecutive iterations with an exactly zero meta-gradient (and
# some weight nonzero) mark a stalled weighting net. One zero can come from
# a batch whose weights all sit where the sigmoid head rounds to 1; five in
# a row take five independent batches, yet report a stall within five.
STALL_ITERS = 5
# The grad_theta of every record without a meta step: it has no entries to change.
_NO_GRADIENT = np.zeros(0)


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
        # beta == 0 freezes the weighting net into a fixed rule, as tests use
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
    """Classifier, weighting (net or fixed rule), velocity and spare classifier.

    A classifier step updates `velocity` in place and writes the new
    parameters into `spare`'s vector (built at the first step if None);
    the new state swaps `w` and `spare`, so a caller that keeps a state
    across two steps copies its `w.params`."""

    w: DenseNet
    theta: MWNet | Callable[[np.ndarray], np.ndarray]
    velocity: np.ndarray
    spare: DenseNet | None = None


@dataclass(init=False)
class Batch:
    """A mini-batch: rows of a `BiasedDataset`, which checked them, sorted
    by dataset index so that reductions run in one order whatever the draw.
    `from_dataset` is the only constructor."""

    ids: np.ndarray
    features: np.ndarray
    labels: np.ndarray

    @property
    def size(self) -> int:
        return self.ids.size

    @classmethod
    def from_dataset(cls, dataset: BiasedDataset, indices: np.ndarray) -> "Batch":
        """The dataset's rows `indices` (one or more, repeats allowed), sorted."""
        indices = np.array(indices, dtype=np.int64)  # a copy, sorted in place (np.sort without its wrapper)
        indices.sort()
        if indices.size == 0 or indices[0] < 0 or indices[-1] >= dataset.features.shape[0]:
            raise ValueError(f"a batch takes one or more row indices in [0, {dataset.n})")
        batch = object.__new__(cls)
        batch.ids, batch.features, batch.labels = indices, dataset.features[indices], dataset.observed_labels[indices]
        return batch


@dataclass
class MetaGradientReport:
    """One iteration's record. The virtual step from w as the factors of
    w_hat: the training batch's forward cache and deltas at w, losses, raw
    weights, coeffs = raw / denom, and the weighting net's cache at Theta
    (None for a rule). A meta step sets the meta-gradient and
    mean_G_per_j[j] = g_meta . g_j; without one grad_theta stays empty and
    mean_G_per_j None."""

    losses: np.ndarray
    forward_cache: ForwardCache
    deltas: list[np.ndarray]
    raw_weights: np.ndarray
    coeffs: np.ndarray
    denom: float
    mw_cache: ForwardCache | None
    grad_theta: np.ndarray
    mean_G_per_j: np.ndarray | None = None

    @property
    def weighted_loss(self) -> float:
        return float(dot(self.coeffs, self.losses))


@dataclass
class RunReport:
    """Everything a finished run exposes. Histories hold one entry per
    epoch of ceil(N_train / n) iterations; stability one per pair of
    adjacent epochs, from the tracked weights."""

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
    """A fixed loss -> weight rule in place of the net. uniform: 1. ramp:
    (loss / batch max loss)^gamma, clipped to [0, 1]. step: 1 below lam, else 0."""

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

    def __call__(self, losses) -> np.ndarray:
        losses = np.asarray(losses, dtype=np.float64)
        if self.kind == "uniform":
            return np.ones_like(losses)
        if self.kind == "ramp":
            top = losses.max()
            if top <= 0.0:
                return np.ones_like(losses)
            return np.clip((losses / top) ** self.gamma, 0.0, 1.0)
        return (losses < self.lam).astype(np.float64)


def weights(theta: MWNet | Callable[[np.ndarray], np.ndarray], losses: np.ndarray, cache: bool = False):
    """The weights of `losses` under a net or rule, the one place either is
    made and checked: anything but one finite nonnegative weight per sample
    raises. With `cache`, (weights, the net's ForwardCache or None)."""
    if isinstance(theta, MWNet):
        kind = "weighting net"
        raw, mw_cache = mw_forward_cache(theta, losses) if cache else (mw_forward(theta, losses), None)
    else:
        kind, raw, mw_cache = "weight_fn", np.asarray(theta(losses), dtype=np.float64), None
    # NaN fails >= 0; initial=0.0 passes an empty vector and changes no other outcome
    if raw.shape != (len(losses),) or not (
        np.minimum.reduce(raw, initial=0.0) >= 0 and np.maximum.reduce(raw, initial=0.0) < math.inf
    ):
        raise ValueError(f"{kind} must return finite nonnegative weights, one per sample")
    return (raw, mw_cache) if cache else raw


def _losses(net: DenseNet, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return softmax_cross_entropy(outputs(net, features), labels)[0]


def _coefficients(raw: np.ndarray, normalize: bool) -> tuple[np.ndarray, float]:
    """raw / denom and denom: `weightnet.normalizer` or the batch size."""
    denom = weightnet.normalizer(raw) if normalize else raw.size
    return raw / denom, denom


def virtual_update(state: TrainState, batch: Batch, normalize: bool = False) -> MetaGradientReport:
    """The virtual step, without momentum or weight decay, as the record of
    its iteration; the meta step applies alpha."""
    out, fcache = forward(state.w, batch.features)
    losses, dlogits = softmax_cross_entropy(out, batch.labels)
    deltas = layer_deltas(state.w, fcache, dlogits)
    raw, mw_cache = weights(state.theta, losses, cache=True)
    coeffs, denom = _coefficients(raw, normalize)
    return MetaGradientReport(losses, fcache, deltas, raw, coeffs, denom, mw_cache, _NO_GRADIENT)


def meta_gradient_direct(
    state: TrainState,
    train_batch: Batch,
    meta_batch: Batch,
    alpha: float,
    normalize: bool = False,
) -> MetaGradientReport:
    """The exact gradient of the mean meta loss at w_hat(Theta) w.r.t. Theta
    (module docstring), set on the virtual step's record. Normalized, an
    all-zero raw vector has a zero Jacobian, so a zero gradient."""
    if not alpha >= 0:
        raise ValueError("alpha must be >= 0")
    with _stage("virtual step: "):
        report = virtual_update(state, train_batch, normalize)
    with _stage("meta step: "):
        scale = (alpha * report.coeffs)[:, None]
        steps = [scale * delta for delta in report.deltas]
        meta_out, meta_fcache, grams = lookahead_forward(state.w, report.forward_cache, steps, meta_batch.features)
        dmeta = softmax_cross_entropy(meta_out, meta_batch.labels)[1]
        meta_deltas = lookahead_deltas(state.w, report.forward_cache, steps, meta_fcache, dmeta)
        # ndarray.mean's arithmetic without its Python wrapper (nnet's module docstring)
        mean_G_per_j = np.add.reduce(gradient_gram(grams, meta_deltas, report.deltas), axis=0) / meta_batch.size
        jac = per_sample_gradients(state.theta.net, report.mw_cache, np.ones((report.losses.size, 1)))

        n = train_batch.size
        if normalize:
            # d(eta_j)/d(raw_k) = delta_jk/denom - raw_j/denom^2, dividing
            # twice where denom^2 is below the normal range
            denom = report.denom
            coupled = float(dot(mean_G_per_j, report.raw_weights))
            coupled = coupled / denom**2 if denom**2 >= sys.float_info.min else coupled / denom / denom
            grad_theta = dot(-alpha * (mean_G_per_j / denom - coupled), jac)
        else:
            grad_theta = -(alpha / n) * dot(mean_G_per_j, jac)

        if not np.isfinite(grad_theta).all():
            raise ValueError("non-finite meta-gradient")
    report.grad_theta, report.mean_G_per_j = grad_theta, mean_G_per_j
    return report


def meta_gradient_fd(
    state: TrainState,
    train_batch: Batch,
    meta_batch: Batch,
    alpha: float,
    eps: float,
    normalize: bool = False,
) -> np.ndarray:
    """Central-difference oracle for the meta-gradient, forming w_hat(Theta) each time."""
    from metaweight.nnet import fd_gradient

    cache = virtual_update(state, train_batch, normalize)

    def mean_meta_loss(theta_params: np.ndarray) -> float:
        raw = weights(state.theta.with_theta(theta_params), cache.losses)
        coeffs = _coefficients(raw, normalize)[0]
        w_hat = state.w.params - alpha * weighted_gradient(state.w, cache.forward_cache, cache.deltas, coeffs)
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
    coeffs: np.ndarray,
    alpha: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> TrainState:
    """The classifier's SGD step from w on one backward pass at w, each
    sample's gradient scaled by its coefficient; momentum and weight decay
    apply here only. The new parameters go into the spare's vector, and
    `state.w.params` is unchanged (`TrainState`)."""
    spare = state.spare if state.spare is not None else state.w.with_params(np.zeros_like(state.w.params))
    grad = weighted_gradient(state.w, forward_cache, deltas, coeffs, out=spare.params)
    params, _ = sgd_step(
        state.w.params, grad, alpha, momentum=momentum, weight_decay=weight_decay, state=state.velocity
    )
    if not np.isfinite(params).all():
        raise ValueError("non-finite parameter entries")
    return TrainState(spare, state.theta, state.velocity, state.w)


def train_step(
    state: TrainState,
    train_batch: Batch,
    meta_batch: Batch | None,
    config: TrainConfig,
    alpha: float,
) -> tuple[TrainState, MetaGradientReport, np.ndarray]:
    """One iteration of any run, each stage entered once and under its name:
    virtual step, meta step, theta update, classifier step. A fixed rule has
    no meta batch, and its classifier step takes the virtual step too.
    `alpha` is config.alpha under the schedule. Returns the new state, the
    iteration's record and the raw weights the classifier step applied."""
    if train_batch.size != config.n:
        raise ValueError(f"train batch size {train_batch.size} != config.n {config.n}")
    if meta_batch is not None:
        if meta_batch.size != config.m:
            raise ValueError(f"meta batch size {meta_batch.size} != config.m {config.m}")
        report = meta_gradient_direct(state, train_batch, meta_batch, alpha, config.normalize)
        with _stage("theta update: "):
            state = update_theta(state, report.grad_theta, config.beta)
    with _stage("classifier step: "):
        if meta_batch is None:
            report = virtual_update(state, train_batch, config.normalize)
            raw, coeffs = report.raw_weights, report.coeffs
        else:
            raw = weights(state.theta, report.losses, cache=True)[0]  # one pass, as in the virtual step
            coeffs = _coefficients(raw, config.normalize)[0]
        state = update_classifier(
            state, report.forward_cache, report.deltas, coeffs, alpha,
            config.classifier_momentum, config.classifier_weight_decay,
        )
    return state, report, raw


def evaluate(net: DenseNet, dataset: BiasedDataset) -> tuple[float, np.ndarray]:
    """Accuracy against the true labels and the confusion matrix [true][predicted]."""
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
    if meta_set.n > train_set.n:
        return [f"meta set ({meta_set.n}) larger than train set ({train_set.n}); expected M << N"]
    return []


def _pick_tracked(train_set: BiasedDataset, seed: int, count: int = TRACKED_SAMPLES) -> np.ndarray:
    """The ids whose weights are traced per epoch, noisy ones if any; the
    same for every run of a seed."""
    rng = rng_stream(seed, 200)
    pool = np.flatnonzero(train_set.corrupted)
    if pool.size == 0:
        pool = np.arange(train_set.n)
    take = min(count, pool.size)
    return np.sort(rng.choice(pool, size=take, replace=False))


def _batches(dataset: BiasedDataset, size: int, rng: np.random.Generator) -> Callable[[], Batch]:
    """The next mini-batch of `size` samples drawn by `rng`; a batch the size
    of the set is the whole set whatever the draw, so it is built once and
    `rng` is not drawn."""
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
    """Run T iterations of `train_step` and assemble the run report.

    `weight_fn`, a fixed losses -> weights rule, replaces the weighting net:
    no meta batch is drawn and the meta-gradient norms are zero. A set whose
    features or classes disagree with the classifier's inputs or outputs
    raises. Warnings name a meta set larger than the train set, all-zero
    weights, a stalled meta-gradient, a diverging meta loss and, in a
    learned run, corrupted samples that outweigh the clean ones."""
    d, c = classifier_specs[0].input_dim, classifier_specs[-1].output_dim
    for name, dataset in (("train", train_set), ("meta", meta_set), ("test", test_set)):
        if (dataset.d, dataset.c) != (d, c):
            raise ValueError(
                f"{name} set has {dataset.d} features and {dataset.c} classes, "
                f"but the classifier takes {d} inputs and gives {c} outputs"
            )
    notes = _check_meta_set(meta_set, train_set)
    if config.n > train_set.n:
        raise ValueError(f"batch size n={config.n} exceeds train set size {train_set.n}")
    if config.m > meta_set.n:
        raise ValueError(f"meta batch size m={config.m} exceeds meta set size {meta_set.n}")
    if test_set.n == 0:
        raise ValueError("test set is empty")

    classifier = init_net(classifier_specs, derive_seed(config.seed, 1))
    if weight_fn is None:
        theta = init_mwnet(mwnet_hidden, derive_seed(config.seed, 2))
        draw_meta = _batches(meta_set, config.m, rng_stream(config.seed, 101))
        stall_iters = STALL_ITERS
    else:
        # A rule's meta-gradient is 0 by design: no run of T + 1 zeros stalls.
        theta, draw_meta, stall_iters = weight_fn, lambda: None, config.T + 1
    state = TrainState(w=classifier, theta=theta, velocity=np.zeros_like(classifier.params))
    # The state holds the only references, so each replaced net is freed.
    del classifier, theta

    tracked_ids = _pick_tracked(train_set, config.seed)
    tracked_batch = Batch.from_dataset(train_set, tracked_ids)

    draw_train = _batches(train_set, config.n, rng_stream(config.seed, 100))
    schedule = sorted(config.lr_schedule)
    iters_per_epoch = -(-train_set.n // config.n)

    alpha = config.alpha
    history = {"accuracy": [], "train_loss": [], "meta_loss": [], "grad_norm": [], "tracked": []}
    epoch_losses, epoch_norms = [], []
    zero_weight_iters, zero_grad_iters = [], []

    # The iteration's context is formatted only when a fault passes.
    with _stage(lambda: f"seed {config.seed}, iteration {t + 1} of {config.T}, "):
        for t in range(config.T):
            for it, mult in schedule:
                if it == t:
                    alpha *= mult
            state, report, raw = train_step(state, draw_train(), draw_meta(), config, alpha)
            epoch_losses.append(report.weighted_loss)
            epoch_norms.append(math.sqrt(dot(report.grad_theta, report.grad_theta)))
            # it holds the batch's activations and deltas, read no more
            del report
            if not raw.any():
                zero_weight_iters.append(t + 1)
            elif epoch_norms[-1] == 0.0:  # all-zero weights zero the gradient too
                zero_grad_iters.append(t + 1)

            if (t + 1) % iters_per_epoch == 0:
                with _stage("epoch evaluation: "):
                    history["accuracy"].append(evaluate(state.w, test_set)[0])
                    history["train_loss"].append(float(np.mean(epoch_losses)))
                    history["grad_norm"].append(float(np.mean(epoch_norms)))
                    meta_losses = _losses(state.w, meta_set.features, meta_set.observed_labels)
                    history["meta_loss"].append(float(np.mean(meta_losses)))
                    losses = _losses(state.w, tracked_batch.features, tracked_batch.labels)
                    history["tracked"].append(weights(state.theta, losses))
                epoch_losses, epoch_norms = [], []

    if zero_weight_iters:
        notes.append(
            f"all-zero weights: every sample weight of the classifier step was zero in "
            f"{len(zero_weight_iters)} of {config.T} iterations, first in iteration {zero_weight_iters[0]}"
        )
    notes.extend(_stall_notes(zero_grad_iters, config.T, stall_iters))
    notes.extend(_divergence_notes(history["meta_loss"], meta_set.c))
    echo = asdict(config)
    echo["classifier_layers"] = [asdict(spec) for spec in classifier_specs]
    echo["mwnet_hidden"] = list(mwnet_hidden)
    echo["lr_schedule"] = [list(entry) for entry in config.lr_schedule]
    if config_echo:
        echo.update(config_echo)
    # The final pass needs one classifier vector; the spare's is freed here.
    state = TrainState(state.w, state.theta, state.velocity)
    with _stage(f"seed {config.seed}, final report: "):
        report = _final_report(state, train_set, test_set, tracked_ids, history, echo, notes)
    # A fixed rule's weights are by design, as the ramp's up-weighting of high losses.
    means = report.clean_noisy_means() if weight_fn is None else None
    if means is not None and means[1] > means[0]:
        report.warnings.append(f"corrupted samples outweigh clean ones: mean weight {means[1]:.3g} vs {means[0]:.3g}")
    return state, report


def _stall_notes(zero_grad_iters: list[int], T: int, limit: int = STALL_ITERS) -> list[str]:
    """A warning when the meta-gradient was exactly zero, with some weight
    nonzero, in `limit` consecutive iterations: Theta no longer moves."""
    run = 0
    for k, t in enumerate(zero_grad_iters):
        run = run + 1 if k and t == zero_grad_iters[k - 1] + 1 else 1
        if run == limit:
            return [
                f"zero meta-gradient: the meta-gradient was exactly zero with nonzero weights in "
                f"{len(zero_grad_iters)} of {T} iterations, {limit} or more in a row first from iteration "
                f"{t - limit + 1}, so the weighting net stopped learning"
            ]
    return []


def _divergence_notes(meta_losses: list[float], c: int) -> list[str]:
    """A warning when some epoch's meta loss is above DIVERGENCE_FACTOR * ln(c)."""
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
    for bit: NumPy's kth list and two-sided lerp."""
    n = values.size
    virtual = (n - 1) * (percent / 100)
    # at or past the last index NumPy reads the last value on both sides,
    # with the interpolation weight measured from index -1
    lo = math.floor(virtual) if virtual < n - 1 else -1
    hi = lo + 1 if lo >= 0 else -1
    g = virtual - lo
    part = np.partition(values, sorted({0, -1, lo, hi}))
    a, b = float(part[lo]), float(part[hi])
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def _final_report(
    state: TrainState, train_set: BiasedDataset, test_set: BiasedDataset, tracked_ids: np.ndarray,
    history: dict[str, list], echo: dict, notes: list[str],
) -> RunReport:
    """The run report: the histories plus the final confusion matrix,
    per-sample weights and weight curve."""
    _, final_confusion = evaluate(state.w, test_set)

    final_losses = _losses(state.w, train_set.features, train_set.observed_labels)
    if not np.isfinite(final_losses).all():
        raise ValueError("non-finite training losses")

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
        curve_weights=weights(state.theta, grid),
        dist_ids=np.arange(train_set.n, dtype=np.int64),
        dist_weights=weights(state.theta, final_losses),
        dist_corrupted=train_set.corrupted,
        tracked_ids=tracked_ids,
        tracked_weight_history=tracked_matrix,
        config_echo=echo,
        warnings=notes,
    )
