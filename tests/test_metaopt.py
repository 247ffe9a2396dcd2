"""Tests for the bilevel training core.

The analytic meta-gradient is checked against a central-difference oracle
in both weighting modes, plus hand-constructed instances where the exact
value is known (zero meta gradients, dead weighting nets, single-sample
sign semantics).
"""

import gc
import os
import struct
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metaweight.biasgen import (
    BiasedDataset,
    GaussianMixtureSpec,
    apply_uniform_noise,
    circle_means,
    derive_seed,
    gen_gaussians,
    rng_stream,
    sample_batch,
    split_meta,
)
from metaweight import metaopt, nnet
from metaweight.config import load_config
from metaweight.harness import run_experiment
from metaweight.metaopt import (
    Batch,
    MetaGradientReport,
    TrainConfig,
    TrainState,
    meta_gradient_direct,
    meta_gradient_fd,
    train,
    train_step,
    update_classifier,
    update_theta,
    virtual_update,
)
from metaweight.nnet import (
    ACTIVATIONS,
    DenseNet,
    LayerSpec,
    forward,
    init_net,
    layer_deltas,
    per_sample_gradients,
    sgd_step,
    softmax_cross_entropy,
    weighted_gradient,
)
from metaweight.weightnet import init_mwnet, mw_forward, mw_jacobian, normalize as normalize_weights


def rel_err(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(1.0, np.linalg.norm(b))


def make_instance(seed, n=8, m=4, d=2, c=3, hidden=8, mw_hidden=(5,), perturb=0.3):
    """A random classifier + weighting net + batches, small enough for FD."""
    rng = np.random.Generator(np.random.Philox(seed))
    classifier = init_net(
        (LayerSpec(d, hidden, "relu"), LayerSpec(hidden, c, "identity")),
        derive_seed(seed, 1),
    )
    mwnet = init_mwnet(mw_hidden, derive_seed(seed, 2))
    # Move Theta off its near-flat initialization so dV/dTheta is not tiny.
    mwnet = mwnet.with_theta(mwnet.theta + perturb * rng.standard_normal(mwnet.theta.size))
    state = TrainState(w=classifier, theta=mwnet, velocity=np.zeros_like(classifier.params))
    train_batch = make_batch(rng.standard_normal((n, d)), rng.integers(0, c, n), c)
    meta_batch = make_batch(rng.standard_normal((m, d)), rng.integers(0, c, m), c)
    return state, train_batch, meta_batch


def make_batch(features, labels, c=3, ids=None):
    """The rows `ids` (all, by default) of a clean dataset of these features
    and labels over c classes: every test batch is built from a dataset."""
    dataset = BiasedDataset(features, labels, labels, c)
    return Batch.from_dataset(dataset, np.arange(len(labels)) if ids is None else ids)


def zero_weight_theta(mw_hidden=(5,), seed=0):
    """A weighting net whose output is exactly 0 for every loss."""
    mwnet = init_mwnet(mw_hidden, seed)
    theta = mwnet.theta.copy()
    h = mw_hidden[-1]
    theta[-(h + 1) : -1] = 0.0  # final-layer weights
    theta[-1] = -1000.0  # final bias; sigmoid underflows to exactly 0
    return mwnet.with_theta(theta)


def virtual_params(state, record, alpha):
    """The virtual parameters w_hat = w - alpha * sum_i coeffs[i] g_i of
    the virtual step `record` taken from `state` (the training loop never
    forms them)."""
    return state.w.params - alpha * weighted_gradient(state.w, record.forward_cache, record.deltas, record.coeffs)


def copied(state):
    """`state` with its own copies of the classifier's parameter vector and
    velocity: a classifier step updates the velocity in place, and the step
    after it writes into the vector the state held."""
    return TrainState(state.w.with_params(state.w.params.copy()), state.theta, state.velocity.copy())


def losses_deltas(net, batch):
    """Per-sample losses, forward cache and per-layer deltas of one backward
    pass, as the virtual step takes them."""
    out, cache = forward(net, batch.features)
    losses, dlogits = softmax_cross_entropy(out, batch.labels)
    return losses, cache, layer_deltas(net, cache, dlogits)


def per_sample_losses_grads(net, batch):
    out, cache = forward(net, batch.features)
    losses, dlogits = softmax_cross_entropy(out, batch.labels)
    return losses, per_sample_gradients(net, cache, dlogits)


def make_toy_sets(seed, per_class=12, meta_per_class=2, noise_rate=0.3):
    spec = GaussianMixtureSpec(3, 2, circle_means(3), 0.6, per_class)
    pool = gen_gaussians(spec, seed)
    meta, rest = split_meta(pool, meta_per_class, seed)
    train_set = apply_uniform_noise(rest, noise_rate, seed) if noise_rate else rest
    test_spec = GaussianMixtureSpec(3, 2, circle_means(3), 0.6, 6)
    test_set = gen_gaussians(test_spec, derive_seed(seed, 99))
    return train_set, meta, test_set


SMALL_LAYERS = (LayerSpec(2, 8, "relu"), LayerSpec(8, 3, "identity"))


# ---------------------------------------------------------------- weighted loss


def weighted_loss(state, batch, meta_batch, normalize=False):
    return meta_gradient_direct(state, batch, meta_batch, alpha=0.1, normalize=normalize).weighted_loss


def test_weighted_loss_constant_half_weights():
    state, batch, meta_batch = make_instance(0)
    flat = TrainState(state.w, state.theta.with_theta(np.zeros_like(state.theta.theta)), state.velocity)
    losses, _ = per_sample_losses_grads(state.w, batch)
    value = weighted_loss(flat, batch, meta_batch)
    assert value == pytest.approx(0.5 * losses.mean(), rel=1e-14)
    normalized = weighted_loss(flat, batch, meta_batch, normalize=True)
    assert normalized == pytest.approx(losses.mean(), rel=1e-14)


def test_weighted_loss_compositional_oracle():
    for seed in range(3):
        state, batch, meta_batch = make_instance(seed)
        losses, _ = per_sample_losses_grads(state.w, batch)
        raw = mw_forward(state.theta, losses)
        expected = sum(float(r) * float(l) for r, l in zip(raw, losses)) / batch.size
        assert weighted_loss(state, batch, meta_batch) == pytest.approx(expected, rel=1e-13)
        expected_norm = sum(float(r) * float(l) for r, l in zip(raw, losses)) / raw.sum()
        got_norm = weighted_loss(state, batch, meta_batch, normalize=True)
        assert got_norm == pytest.approx(expected_norm, rel=1e-13)


# ---------------------------------------------------------------- virtual step


def test_virtual_update_zero_weights_is_identity():
    state, batch, _ = make_instance(1)
    state = TrainState(state.w, zero_weight_theta(), state.velocity)
    cache = virtual_update(state, batch)
    assert np.array_equal(virtual_params(state, cache, 0.5), state.w.params)
    assert np.all(cache.raw_weights == 0.0)
    assert np.all(cache.coeffs == 0.0)


def test_virtual_update_half_weights_is_half_step():
    state, batch, _ = make_instance(2)
    flat = TrainState(state.w, state.theta.with_theta(np.zeros_like(state.theta.theta)), state.velocity)
    alpha = 0.2
    w_hat = virtual_params(flat, virtual_update(flat, batch), alpha)
    _, grads = per_sample_losses_grads(state.w, batch)
    # sgd_step overwrites its gradient and velocity: each call gets its own.
    still = np.zeros_like(state.w.params)
    expected, _ = sgd_step(state.w.params.copy(), grads.mean(axis=0), 0.5 * alpha, state=still.copy())
    assert rel_err(w_hat, expected) < 1e-13
    # Normalized flat weights are exactly 1/n: a full-rate mean-loss step.
    w_hat_n = virtual_params(flat, virtual_update(flat, batch, normalize=True), alpha)
    expected_n, _ = sgd_step(state.w.params.copy(), grads.mean(axis=0), alpha, state=still.copy())
    assert rel_err(w_hat_n, expected_n) < 1e-13


def test_virtual_update_per_sample_oracle():
    state, batch, _ = make_instance(3)
    alpha = 0.1
    cache = virtual_update(state, batch)
    w_hat = virtual_params(state, cache, alpha)
    losses, grads = per_sample_losses_grads(state.w, batch)
    raw = mw_forward(state.theta, losses)
    step = np.zeros_like(state.w.params)
    for i in range(batch.size):
        step += (raw[i] / batch.size) * grads[i]
    assert rel_err(w_hat, state.w.params - alpha * step) < 1e-12
    assert np.array_equal(cache.losses, losses)
    # The cached deltas hold every per-sample gradient: a one-hot
    # coefficient vector reduces them to exactly the oracle's row.
    for i, onehot in enumerate(np.eye(batch.size)):
        assert np.array_equal(weighted_gradient(state.w, cache.forward_cache, cache.deltas, onehot), grads[i])
    assert np.array_equal(cache.raw_weights, raw)


# ---------------------------------------------------------------- meta-gradient


def test_meta_gradient_rejects_negative_alpha():
    state, batch, meta_batch = make_instance(4)
    with pytest.raises(ValueError, match=r"^alpha must be >= 0$"):
        meta_gradient_direct(state, batch, meta_batch, alpha=-0.1)


@pytest.mark.parametrize("normalize", [False, True])
def test_meta_gradient_matches_fd(normalize):
    worst = 0.0
    for seed in range(5):
        state, tb, mb = make_instance(seed)
        assert state.theta.theta.size <= 60
        report = meta_gradient_direct(state, tb, mb, alpha=0.1, normalize=normalize)
        fd = meta_gradient_fd(state, tb, mb, alpha=0.1, eps=1e-5, normalize=normalize)
        worst = max(worst, rel_err(report.grad_theta, fd))
    # The stated contract is 1e-4; the analytic form is exact so the
    # observed error is FD roundoff, orders of magnitude below that.
    assert worst < 1e-8


def test_meta_gradient_report_pieces_consistent():
    state, tb, mb = make_instance(7)
    alpha = 0.1
    report = meta_gradient_direct(state, tb, mb, alpha)
    n, m = tb.size, mb.size
    assert report.mean_G_per_j.shape == (n,)

    losses, grads = per_sample_losses_grads(state.w, tb)
    assert np.array_equal(report.losses, losses)
    assert rel_err(
        weighted_gradient(state.w, report.forward_cache, report.deltas, report.coeffs),
        report.coeffs @ grads,
    ) < 1e-14
    assert np.array_equal(report.raw_weights, mw_forward(state.theta, losses))

    # mean_G_per_j is the meta-sample mean of the meta/train gradient inner
    # products G_ij at (w_hat, w), built here from per-sample rows.
    w_hat = state.w.with_params(virtual_params(state, report, alpha))
    _, meta_grads = per_sample_losses_grads(w_hat, mb)
    G = meta_grads @ grads.T
    assert rel_err(report.mean_G_per_j, G.mean(axis=0)) < 1e-14

    # grad_theta == -(alpha/(n*m)) * sum_j (sum_i G_ij) * dV(L_j)/dTheta.
    _, jac = mw_jacobian(state.theta, losses)
    expected = -(alpha / (n * m)) * (G.sum(axis=0) @ jac)
    assert rel_err(report.grad_theta, expected) < 1e-12


def test_meta_gradient_normalized_quotient_rule_oracle():
    for seed in range(3):
        state, tb, mb = make_instance(seed + 20)
        alpha = 0.15
        report = meta_gradient_direct(state, tb, mb, alpha, normalize=True)
        raw = report.raw_weights
        n = tb.size
        total = raw.sum()
        # Independent formulation: chain rule through the explicit n-by-n
        # Jacobian of eta = raw / sum(raw).
        d_eta_d_raw = np.eye(n) / total - np.outer(raw, np.ones(n)) / total**2
        d_meta_d_eta = -alpha * report.mean_G_per_j
        _, jac = mw_jacobian(state.theta, report.losses)
        expected = (d_meta_d_eta @ d_eta_d_raw) @ jac
        assert rel_err(report.grad_theta, expected) < 1e-12


def test_meta_gradient_zero_when_classifier_exact_on_meta():
    # A one-layer classifier with a huge logit margin: softmax saturates to
    # exact one-hot on the meta points, so every per-sample meta gradient is
    # exactly zero, G vanishes, and the Theta-gradient is the zero vector.
    spec = (LayerSpec(3, 3, "identity"),)
    params = np.concatenate([800.0 * np.eye(3).ravel(), np.zeros(3)])
    classifier = DenseNet(spec, params)
    mwnet = init_mwnet((5,), 0)
    state = TrainState(classifier, mwnet, np.zeros_like(params))

    rng = np.random.Generator(np.random.Philox(9))
    meta_labels = np.array([0, 1, 2, 0])
    meta_batch = make_batch(np.eye(3)[meta_labels], meta_labels)
    train_batch = make_batch(0.5 * rng.standard_normal((6, 3)), rng.integers(0, 3, 6))

    report = meta_gradient_direct(state, train_batch, meta_batch, alpha=0.1)
    w_hat = classifier.with_params(virtual_params(state, report, 0.1))
    _, meta_grads = per_sample_losses_grads(w_hat, meta_batch)
    assert np.all(meta_grads == 0.0)
    assert np.all(report.mean_G_per_j == 0.0)
    assert np.all(report.grad_theta == 0.0)
    fd = meta_gradient_fd(state, train_batch, meta_batch, alpha=0.1, eps=1e-5)
    assert np.all(fd == 0.0)

    # The fixed point: a full step leaves Theta bitwise unchanged.
    config = TrainConfig(alpha=0.1, beta=0.5, n=6, m=4, T=1)
    new_state, _, _ = train_step(state, train_batch, meta_batch, config, config.alpha)
    assert np.array_equal(new_state.theta.theta, mwnet.theta)


def test_meta_gradient_dead_weight_net_region():
    # All hidden ReLU units inactive for every nonnegative loss: the weight
    # is locally constant in the losses, and under normalization the
    # coefficients are exactly 1/n no matter how Theta moves, so the map
    # Theta -> meta loss is locally constant and both gradients vanish.
    state, tb, mb = make_instance(11)
    theta = state.theta.theta.copy()
    theta[:5] = -1.0  # hidden weights
    theta[5:10] = -1.0  # hidden biases
    state = TrainState(state.w, state.theta.with_theta(theta), state.velocity)

    losses, _ = per_sample_losses_grads(state.w, tb)
    assert np.all(losses >= 0.0)
    weights = mw_forward(state.theta, losses)
    assert np.all(weights == weights[0])

    fd = meta_gradient_fd(state, tb, mb, alpha=0.1, eps=1e-5, normalize=True)
    assert np.all(fd == 0.0)
    report = meta_gradient_direct(state, tb, mb, alpha=0.1, normalize=True)
    assert np.linalg.norm(report.grad_theta) < 1e-12

    # Unnormalized, only the output bias can still matter: every coordinate
    # feeding through the dead hidden layer has an exactly-zero gradient.
    raw = meta_gradient_direct(state, tb, mb, alpha=0.1, normalize=False)
    assert np.all(raw.grad_theta[:-1] == 0.0)


def test_meta_gradient_zero_sum_guard_yields_finite_zero():
    state, tb, mb = make_instance(12)
    state = TrainState(state.w, zero_weight_theta(seed=3), state.velocity)
    report = meta_gradient_direct(state, tb, mb, alpha=0.1, normalize=True)
    # All raw weights are exactly zero: the denominator is then 1, and
    # the saturated sigmoid has zero slope, so the gradient is exactly zero.
    assert np.all(report.raw_weights == 0.0)
    assert np.all(np.isfinite(report.grad_theta))
    assert np.all(report.grad_theta == 0.0)


def test_meta_gradient_normalized_with_an_underflowing_square_sum():
    state, tb, mb = make_instance(3)
    # Last-layer weights 0 and bias -460: every raw weight is about 1e-200,
    # so their sum is positive but its square underflows to 0.
    theta = state.theta.theta.copy()
    h = state.theta.net.layers[-1].input_dim
    theta[-(h + 1):-1] = 0.0
    theta[-1] = -460.0
    state = TrainState(state.w, state.theta.with_theta(theta), state.velocity)
    report = meta_gradient_direct(state, tb, mb, 0.1, normalize=True)
    total = float(report.raw_weights.sum())
    assert total > 0.0 and total**2 == 0.0
    fd = meta_gradient_fd(state, tb, mb, 0.1, eps=1e-5, normalize=True)
    assert np.linalg.norm(report.grad_theta - fd) < 1e-6 * np.linalg.norm(fd)


def test_meta_gradient_duplicated_sample_columns_identical():
    state, _, mb = make_instance(13)
    rng = np.random.Generator(np.random.Philox(13))
    feats = rng.standard_normal((3, 2))
    labels = rng.integers(0, 3, 3)
    # Sample 0 is drawn twice; the sort keeps the copies adjacent.
    tb = make_batch(feats, labels, ids=[0, 2, 0, 1])
    report = meta_gradient_direct(state, tb, mb, alpha=0.1)
    _, grads = per_sample_losses_grads(state.w, tb)
    _, meta_grads = per_sample_losses_grads(state.w.with_params(virtual_params(state, report, 0.1)), mb)
    assert rel_err(report.mean_G_per_j, (meta_grads @ grads.T).mean(axis=0)) < 1e-14
    assert report.mean_G_per_j[0] == report.mean_G_per_j[1]
    assert report.raw_weights[0] == report.raw_weights[1]
    _, jac = mw_jacobian(state.theta, report.losses)
    assert np.array_equal(jac[0], jac[1])


def test_meta_gradient_sign_single_sample():
    # With one training sample, Theta moves along +alpha*mean(G)*dV/dTheta,
    # so a positively aligned sample must see its weight strictly increase
    # at the same loss value.
    found = False
    for seed in range(40):
        state, _, mb = make_instance(seed, n=1)
        rng = np.random.Generator(np.random.Philox(seed + 1000))
        tb = make_batch(rng.standard_normal((1, 2)), rng.integers(0, 3, 1))
        report = meta_gradient_direct(state, tb, mb, alpha=0.1)
        mean_g = float(report.mean_G_per_j[0])
        _, jac = mw_jacobian(state.theta, report.losses)
        if mean_g > 1e-3 and np.linalg.norm(jac[0]) > 1e-3:
            found = True
            break
    assert found, "no instance with positively aligned sample found"

    beta = 1e-4
    new_state = update_theta(state, report.grad_theta, beta)
    loss = report.losses
    before = mw_forward(state.theta, loss)[0]
    after = mw_forward(new_state.theta, loss)[0]
    assert after > before
    predicted = beta * 0.1 * mean_g * float(jac[0] @ jac[0])
    assert (after - before) == pytest.approx(predicted, rel=0.05)


def test_meta_gradient_first_order_weight_movement():
    # Multi-sample version: the first-order change of each sample's weight
    # under one Theta step is -beta * <dV(L_j)/dTheta, grad_theta>.
    state, tb, mb = make_instance(17)
    report = meta_gradient_direct(state, tb, mb, alpha=0.1)
    _, jac = mw_jacobian(state.theta, report.losses)
    beta = 1e-5
    new_theta = state.theta.with_theta(state.theta.theta - beta * report.grad_theta)
    before = mw_forward(state.theta, report.losses)
    after = mw_forward(new_theta, report.losses)
    predicted = -beta * (jac @ report.grad_theta)
    assert np.linalg.norm((after - before) - predicted) < 1e-3 * np.linalg.norm(predicted)
    rising = predicted > 1e-14
    assert np.any(rising)
    assert np.all(after[rising] > before[rising])


def test_meta_gradient_alpha_scaling_limit():
    # grad_theta(alpha)/alpha converges as alpha -> 0 (the explicit factor
    # is linear; the residual alpha-dependence through w_hat is O(alpha)).
    state, tb, mb = make_instance(19)
    g_small = meta_gradient_direct(state, tb, mb, alpha=1e-4).grad_theta / 1e-4
    g_tiny = meta_gradient_direct(state, tb, mb, alpha=1e-6).grad_theta / 1e-6
    assert rel_err(g_small, g_tiny) < 1e-3
    g_mid = meta_gradient_direct(state, tb, mb, alpha=0.2).grad_theta
    assert rel_err(g_mid / 0.2, g_tiny) < 0.2  # drift stays first order


def test_meta_gradient_fd_convergence_order():
    # Central differences are second-order accurate: halving eps shrinks
    # the error against the analytic gradient by about 4x. The eps range
    # stays small so no ReLU kink is crossed (the map is only piecewise
    # smooth) while the truncation error still dominates roundoff.
    state, tb, mb = make_instance(0, perturb=0.5)
    exact = meta_gradient_direct(state, tb, mb, alpha=0.1).grad_theta
    errs = [
        np.linalg.norm(meta_gradient_fd(state, tb, mb, 0.1, eps=eps) - exact)
        for eps in (2.5e-3, 1.25e-3, 6.25e-4)
    ]
    assert errs[-1] > 1e-9
    assert 3.2 < errs[0] / errs[1] < 4.8
    assert 3.2 < errs[1] / errs[2] < 4.8


def test_meta_gradient_batch_order_invariance():
    state, _, _ = make_instance(23)
    rng = np.random.Generator(np.random.Philox(23))
    feats = rng.standard_normal((8, 2))
    labels = rng.integers(0, 3, 8)
    mfeats = rng.standard_normal((4, 2))
    mlabels = rng.integers(0, 3, 4)

    perm = rng.permutation(8)
    mperm = rng.permutation(4)
    tb1 = make_batch(feats, labels)
    tb2 = make_batch(feats, labels, ids=perm)
    mb1 = make_batch(mfeats, mlabels)
    mb2 = make_batch(mfeats, mlabels, ids=mperm)

    r1 = meta_gradient_direct(state, tb1, mb1, alpha=0.1, normalize=True)
    r2 = meta_gradient_direct(state, tb2, mb2, alpha=0.1, normalize=True)
    assert np.array_equal(r1.grad_theta, r2.grad_theta)
    assert np.array_equal(r1.mean_G_per_j, r2.mean_G_per_j)
    assert np.array_equal(virtual_params(state, r1, 0.1), virtual_params(state, r2, 0.1))


def test_batch_sorts_only_out_of_order_ids():
    # A batch is a dataset's rows: there is no constructor that takes arrays.
    pytest.raises(TypeError, Batch, np.arange(5), np.zeros((5, 2)), np.zeros(5, dtype=np.int64))

    train_set = make_toy_sets(12)[0]
    batch = Batch.from_dataset(train_set, np.array([5, 1, 3]))
    assert np.array_equal(batch.ids, [1, 3, 5])
    assert np.array_equal(batch.features, train_set.features[[1, 3, 5]])
    assert np.array_equal(batch.labels, train_set.observed_labels[[1, 3, 5]])


@pytest.mark.parametrize("indices", [[], [-1, 0], [0, 30]], ids=["empty", "negative", "past the end"])
def test_a_batch_refuses_indices_outside_its_dataset(indices):
    train_set = make_toy_sets(12)[0]
    assert train_set.n == 30
    with pytest.raises(ValueError, match=r"^a batch takes one or more row indices in \[0, 30\)$"):
        Batch.from_dataset(train_set, np.array(indices, dtype=np.int64))


# ---------------------------------------------------------------- per-layer path vs per-sample oracle


def close(a, b, scale=0.0, tol=1e-12):
    """|a - b| <= tol * max(|b|, scale). `scale` bounds the size of the
    terms summed into b, so a result that cancels to (near) zero is held
    to the rounding of its terms; a zero vector with zero terms must
    match exactly."""
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) <= tol * max(np.linalg.norm(b), scale)


def row_scale(coeffs, rows):
    """sum_i |coeffs_i| * |rows_i|, the size of the terms of coeffs @ rows."""
    return float(np.abs(coeffs) @ np.linalg.norm(rows, axis=1))


@st.composite
def bilevel_instances(draw):
    """A random classifier of depth 1-3 with mixed hidden activations, a
    weighting net with 1-2 hidden layers of width 1-4, batches down to one
    sample, train batches with duplicate ids, both normalize modes and
    alpha down to zero."""
    dims = [draw(st.integers(1, 3))]
    depth = draw(st.integers(1, 3))
    dims += [draw(st.integers(1, 5)) for _ in range(depth - 1)] + [draw(st.integers(2, 4))]
    specs = tuple(
        LayerSpec(dims[k], dims[k + 1], draw(st.sampled_from(ACTIVATIONS)) if k < depth - 1 else "identity")
        for k in range(depth)
    )
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    # Ids drawn from a pool smaller than n repeat; a repeated id is the same sample.
    pool = draw(st.integers(1, n))
    ids = np.array(draw(st.lists(st.integers(0, pool - 1), min_size=n, max_size=n)))
    normalize = draw(st.booleans())
    alpha = draw(st.sampled_from([0.0, 0.05, 0.5]))
    mw_hidden = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    seed = draw(st.integers(0, 2**16))

    rng = np.random.Generator(np.random.Philox(seed))
    classifier = init_net(specs, derive_seed(seed, 1))
    mwnet = init_mwnet(mw_hidden, derive_seed(seed, 2))
    mwnet = mwnet.with_theta(mwnet.theta + 0.5 * rng.standard_normal(mwnet.theta.size))
    state = TrainState(classifier, mwnet, 0.1 * rng.standard_normal(classifier.params.size))
    feats, labels = rng.standard_normal((pool, dims[0])), rng.integers(0, dims[-1], pool)
    train_batch = make_batch(feats, labels, dims[-1], ids)
    meta_batch = make_batch(rng.standard_normal((m, dims[0])), rng.integers(0, dims[-1], m), dims[-1])
    config = TrainConfig(
        alpha=0.1, beta=0.5, n=n, m=m, T=1, normalize=normalize,
        classifier_momentum=0.9, classifier_weight_decay=1e-3,
    )
    return state, train_batch, meta_batch, config, alpha


# The 200 examples take about 1.6 s on a 2-core x86-64 host; keep them under
# 3.4 s, twice their time when the weighting net was fixed at (3,).
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bilevel_instances())
def test_train_step_matches_per_sample_oracle(instance):
    state, tb, mb, config, alpha = instance
    # The step updates the velocity in place; every expectation below is
    # taken from a copy made before it.
    before = copied(state)
    new_state, report, _ = train_step(state, tb, mb, config, alpha=alpha)
    state = before

    def coefficients(theta):
        raw = mw_forward(theta, losses)
        return normalize_weights(raw) if config.normalize else raw / tb.size

    losses, grads = per_sample_losses_grads(state.w, tb)
    w, velocity = state.w.params, state.velocity
    coeffs = coefficients(state.theta)
    w_hat = w - alpha * (coeffs @ grads)
    # The step never forms w_hat; virtual_params builds it from the virtual
    # step's factors, and the meta batch ran at it through them.
    formed = virtual_params(state, report, alpha)
    assert close(formed, w_hat, np.linalg.norm(w) + alpha * row_scale(coeffs, grads))

    meta_grads = per_sample_losses_grads(state.w.with_params(w_hat), mb)[1]
    mean_meta_grad = meta_grads.mean(axis=0)
    # Every term of g_j . mean_meta_grad is bounded via Cauchy-Schwarz.
    terms = row_scale(np.full(mb.size, 1.0 / mb.size), meta_grads) * np.linalg.norm(grads, axis=1)
    assert close(report.mean_G_per_j, grads @ mean_meta_grad, np.linalg.norm(terms))

    new_coeffs = coefficients(new_state.theta)
    expected, expected_velocity = sgd_step(
        w.copy(), new_coeffs @ grads, alpha, momentum=config.classifier_momentum,
        weight_decay=config.classifier_weight_decay, state=velocity.copy(),
    )
    velocity_scale = np.linalg.norm(velocity) + row_scale(new_coeffs, grads) + np.linalg.norm(w)
    assert close(new_state.velocity, expected_velocity, velocity_scale)
    assert close(new_state.w.params, expected, np.linalg.norm(w) + alpha * velocity_scale)

    fd = meta_gradient_fd(state, tb, mb, alpha, eps=1e-5, normalize=config.normalize)
    assert rel_err(report.grad_theta, fd) < 1e-6


def test_train_step_memory_is_per_layer():
    # Per-sample gradient matrices would hold (n+m)*P floats, 52 MB at
    # P=68362, n=64, m=32; the per-layer reductions need a few MB.
    rng = np.random.Generator(np.random.Philox(41))
    classifier = init_net((LayerSpec(256, 256, "relu"), LayerSpec(256, 10, "identity")), 1)
    state = TrainState(classifier, init_mwnet((100,), 2), np.zeros_like(classifier.params))
    tb = make_batch(rng.standard_normal((64, 256)), rng.integers(0, 10, 64), 10)
    mb = make_batch(rng.standard_normal((32, 256)), rng.integers(0, 10, 32), 10)
    config = TrainConfig(alpha=0.1, beta=0.3, n=64, m=32, T=1, normalize=True, classifier_momentum=0.9)
    train_step(state, tb, mb, config, config.alpha)
    tracemalloc.start()
    try:
        train_step(state, tb, mb, config, config.alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"train_step peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("weight_fn", [None, metaopt.BaselineSpec("uniform")])
def test_a_run_alternates_between_two_aligned_classifier_vectors(monkeypatch, weight_fn):
    # init_net's vector, the velocity and the spare start on 64-byte
    # boundaries, and each classifier step reads one of the two parameter
    # vectors and writes the other, with the one velocity.
    train_set, meta_set, test_set = make_toy_sets(3)
    config = TrainConfig(alpha=0.1, beta=0.1, n=10, m=4, T=6, seed=1, classifier_momentum=0.9)
    address = lambda a: a.__array_interface__["data"][0]
    seen, step = [], metaopt.sgd_step

    def recording_step(params, grad, *args, state, **kwargs):
        seen.append((address(params), address(grad), address(state)))
        return step(params, grad, *args, state=state, **kwargs)

    monkeypatch.setattr(metaopt, "sgd_step", recording_step)
    train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,), weight_fn=weight_fn)
    first, second, velocity = seen[0]
    assert first != second and [a % 64 for a in (first, second, velocity)] == [0, 0, 0]
    assert seen == [(first, second, velocity), (second, first, velocity)] * (config.T // 2)


def test_classifier_step_allocates_one_parameter_sized_array():
    # The step updates the velocity in place and writes the new vector into
    # the spare net's, which first holds the weighted gradient. A state
    # without a spare gets one at its first step, the one param-sized array
    # that step allocates: 1.36 P floats at peak with the batch
    # temporaries. Returning a fresh velocity and vector took 3.13 P. A
    # later step reuses the spare and allocates no param-sized array.
    rng = np.random.Generator(np.random.Philox(43))
    classifier = init_net((LayerSpec(256, 256, "relu"), LayerSpec(256, 10, "identity")), 1)
    state = TrainState(classifier, None, np.zeros_like(classifier.params))
    batch = make_batch(rng.standard_normal((64, 256)), rng.integers(0, 10, 64), 10)
    coeffs = rng.uniform(size=64) / 64
    params, velocity = state.w.params, state.velocity
    param_bytes = params.nbytes

    def traced_step(state):
        _, fcache, deltas = losses_deltas(state.w, batch)
        tracemalloc.start()
        try:
            new_state = update_classifier(state, fcache, deltas, coeffs, 0.1, momentum=0.9, weight_decay=5e-4)
            return new_state, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    first, peak = traced_step(state)
    assert peak < 1.5 * param_bytes, f"classifier step peaked at {peak / param_bytes:.2f} parameter vectors"
    assert first.spare is state.w and first.w.params is not params and first.velocity is velocity
    second, peak = traced_step(first)
    assert peak < param_bytes, f"a later classifier step peaked at {peak / param_bytes:.2f} parameter vectors"
    assert second.w is state.w and second.spare is first.w and second.velocity is velocity


def test_train_keeps_one_activation_of_the_training_set():
    # The run report's passes over all N training samples read the dataset in
    # place and run in row blocks, so a run peaks below one N x 256
    # activation (0.87 here, mostly parameter-sized arrays); one-pass
    # evaluation reached 1.40, and a pass that gathered the set twice and
    # kept each ReLU layer's pre-activation 3.9.
    means = np.zeros((10, 256))
    means[np.arange(10), np.arange(10)] = 16.0
    pool = gen_gaussians(GaussianMixtureSpec(10, 256, means, 1.0, 200), 1)
    meta_set, rest = split_meta(pool, 10, 2)
    train_set = apply_uniform_noise(rest, 0.4, 3)
    test_set = gen_gaussians(GaussianMixtureSpec(10, 256, means, 1.0, 20), 4)
    config = TrainConfig(alpha=0.1, beta=0.3, n=64, m=32, T=30, normalize=True, classifier_momentum=0.9)
    specs = (LayerSpec(256, 256, "relu"), LayerSpec(256, 10, "identity"))
    assert train_set.n == 1900
    tracemalloc.start()
    try:
        train(train_set, meta_set, test_set, config, classifier_specs=specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    activation = train_set.n * 256 * 8
    assert peak < 1.0 * activation, f"train peaked at {peak / activation:.2f} activations"


def test_full_set_passes_run_in_row_blocks(monkeypatch):
    # evaluate, the final report and mw_forward over a probe grid run every
    # network pass in blocks of at most ROW_BLOCK + 1 rows, none of them a
    # single row.
    block = 16
    monkeypatch.setattr(nnet, "ROW_BLOCK", block)
    train_set, meta_set, test_set = make_toy_sets(5, per_class=13)
    assert (train_set.n, test_set.n) == (2 * block + 1, 18)
    config = TrainConfig(alpha=0.1, beta=0.01, n=10, m=4, T=4, seed=7)
    real_forward = nnet.forward
    rows, phase = {}, []

    def spy_forward(net, batch):
        if phase:
            rows.setdefault(phase[0], []).append(len(batch))
        return real_forward(net, batch)

    def during(name, fn):
        def wrapped(*args):
            phase.append(name)
            try:
                return fn(*args)
            finally:
                phase.pop()

        return wrapped

    monkeypatch.setattr(nnet, "forward", spy_forward)
    monkeypatch.setattr(metaopt, "evaluate", during("evaluate", metaopt.evaluate))
    monkeypatch.setattr(metaopt, "_final_report", during("final report", metaopt._final_report))
    state, report = train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    during("probe", mw_forward)(state.theta, np.linspace(0.0, 5.0, 2 * block + 1))
    # one epoch's evaluation; the final test pass, training losses, weight
    # curve and per-sample weights; the probe grid
    assert rows["evaluate"] == [16, 2]
    assert rows["final report"] == [16, 2, 16, 17] + [16] * 12 + [8] + [16, 17]
    assert rows["probe"] == [16, 17]
    assert report.curve_losses.size == metaopt.WEIGHT_CURVE_POINTS == 200
    final_losses = metaopt._losses(state.w, train_set.features, train_set.observed_labels)
    assert report.curve_losses[-1] == max(np.percentile(final_losses, 99.0), 1e-6)


@st.composite
def loss_arrays(draw):
    """1 to 3000 float64 values drawn from a pool of at most six (a
    one-value pool is a constant array), with signed zeros, subnormals and
    infinities among the pool's candidates; on half the draws about half
    the values are replaced by distinct ones. No value is NaN: the final
    report refuses non-finite losses before it takes the percentile."""
    specials = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf])
    pool = draw(st.lists(specials | st.floats(allow_nan=False), min_size=1, max_size=6))
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.choice(np.array(pool), n)
    if draw(st.booleans()):
        values = np.where(rng.random(n) < 0.5, values, rng.exponential(1.0, n))
    return values


# The 100 examples take about 0.4 s on a 2-core x86-64 host.
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(loss_arrays())
# 0.0 and -0.0 compare equal, so which sign lands at an index depends on
# how the partition ran; a full sort puts the other sign at index 149 here.
@example(np.random.default_rng(0).choice([0.0, -0.0], 151))
def test_curve_percentile_is_numpys_bit_for_bit(values):
    with np.errstate(invalid="ignore"):
        expected = float(np.percentile(values, 99.0))
    assert struct.pack("<d", metaopt._percentile(values, 99.0)) == struct.pack("<d", expected)


# ---------------------------------------------------------------- updates


def test_update_theta_closed_forms():
    state, _, _ = make_instance(29)
    theta0 = state.theta.theta.copy()
    assert np.array_equal(update_theta(state, np.zeros_like(theta0), 0.5).theta.theta, theta0)
    assert np.array_equal(update_theta(state, np.ones_like(theta0), 0.0).theta.theta, theta0)
    moved = update_theta(state, np.ones_like(theta0), 1e-3).theta.theta
    assert np.allclose(moved, theta0 - 1e-3, atol=1e-18)
    with pytest.raises(ValueError):
        update_theta(state, np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        update_theta(state, np.zeros_like(theta0), -0.1)


def test_update_classifier_degenerates_to_virtual_step():
    state, batch, _ = make_instance(31)
    alpha = 0.1
    cache = virtual_update(state, batch)
    expected = virtual_params(state, cache, alpha)  # at w, before the step
    new_state = update_classifier(state, cache.forward_cache, cache.deltas, cache.coeffs, alpha)
    assert np.array_equal(new_state.w.params, expected)


def test_update_classifier_zero_weights_is_identity():
    state, batch, _ = make_instance(32)
    state = TrainState(state.w, zero_weight_theta(seed=1), state.velocity)
    losses, fcache, deltas = losses_deltas(state.w, batch)
    raw = mw_forward(state.theta, losses)
    before = state.w.params.copy()
    coeffs = metaopt._coefficients(raw, False)[0]
    new_state = update_classifier(state, fcache, deltas, coeffs, alpha=0.3)
    assert np.array_equal(new_state.w.params, before)
    assert np.all(raw == 0.0)
    assert np.all(coeffs == 0.0)


def test_update_classifier_recomputes_weights_under_new_theta():
    state, batch, _ = make_instance(33)
    losses, grads = per_sample_losses_grads(state.w, batch)
    rng = np.random.Generator(np.random.Philox(33))
    shifted = state.theta.with_theta(state.theta.theta + 0.5 * rng.standard_normal(state.theta.theta.size))
    state = TrainState(state.w, shifted, np.full_like(state.w.params, 0.01))

    mom, wd, alpha = 0.9, 5e-4, 0.1
    _, fcache, deltas = losses_deltas(state.w, batch)
    raw = mw_forward(shifted, losses)
    # Each step below updates the velocity it is given, so each gets copies.
    new_state = update_classifier(copied(state), fcache, deltas, raw / batch.size, alpha, momentum=mom, weight_decay=wd)
    expected, expected_vel = sgd_step(
        state.w.params.copy(), (raw / batch.size) @ grads, alpha, momentum=mom, weight_decay=wd,
        state=state.velocity.copy(),
    )
    # The per-layer reduction sums in another order than the oracle's
    # row-weighted sum, so agreement is to rounding, not bitwise.
    assert rel_err(new_state.w.params, expected) < 1e-14
    assert rel_err(new_state.velocity, expected_vel) < 1e-14

    # The pass of a virtual step taken under a different Theta (the deltas
    # depend on w only, not on Theta), with the weights recomputed under
    # the new Theta, gives the same step.
    cache = virtual_update(TrainState(state.w, init_mwnet((5,), 0), state.velocity), batch)
    cached = update_classifier(
        copied(state), cache.forward_cache, cache.deltas, mw_forward(shifted, cache.losses) / batch.size, alpha,
        momentum=mom, weight_decay=wd,
    )
    assert np.array_equal(cached.w.params, new_state.w.params)
    assert np.array_equal(cached.velocity, new_state.velocity)


# ---------------------------------------------------------------- train_step


def test_train_step_composes_the_three_updates():
    state, tb, mb = make_instance(37)
    config = TrainConfig(alpha=0.1, beta=0.05, n=8, m=4, T=1, classifier_momentum=0.9, classifier_weight_decay=1e-3)
    before = copied(state)
    new_state, report, raw = train_step(state, tb, mb, config, config.alpha)

    state = before
    manual = meta_gradient_direct(state, tb, mb, config.alpha, config.normalize)
    s1 = update_theta(state, manual.grad_theta, config.beta)
    s1_raw = mw_forward(s1.theta, manual.losses)
    s2 = update_classifier(
        s1,
        manual.forward_cache,
        manual.deltas,
        metaopt._coefficients(s1_raw, config.normalize)[0],
        config.alpha,
        momentum=config.classifier_momentum,
        weight_decay=config.classifier_weight_decay,
    )
    assert np.array_equal(new_state.theta.theta, s2.theta.theta)
    assert np.array_equal(new_state.w.params, s2.w.params)
    assert np.array_equal(new_state.velocity, s2.velocity)
    assert np.array_equal(report.grad_theta, manual.grad_theta)
    # The weights applied are the classifier step's, under the updated Theta.
    assert np.array_equal(raw, s1_raw)


def test_train_step_beta_zero_freezes_theta():
    state, tb, mb = make_instance(38)
    config = TrainConfig(alpha=0.1, beta=0.0, n=8, m=4, T=1)
    theta0 = state.theta.theta.copy()
    w0 = state.w.params.copy()
    new_state, _, _ = train_step(state, tb, mb, config, config.alpha)
    assert np.array_equal(new_state.theta.theta, theta0)
    assert not np.array_equal(new_state.w.params, w0)


def test_train_step_alpha_zero_is_stationary():
    state, tb, mb = make_instance(39)
    config = TrainConfig(alpha=0.1, beta=0.5, n=8, m=4, T=1)
    before = copied(state)
    new_state, report, _ = train_step(state, tb, mb, config, alpha=0.0)
    assert np.all(report.grad_theta == 0.0)
    assert np.array_equal(virtual_params(before, report, 0.0), before.w.params)
    assert np.array_equal(new_state.w.params, before.w.params)
    assert np.array_equal(new_state.theta.theta, state.theta.theta)


def test_train_step_validates_batch_sizes():
    state, tb, mb = make_instance(40)
    with pytest.raises(ValueError):
        train_step(state, tb, mb, TrainConfig(n=9, m=4, T=1), 0.1)
    with pytest.raises(ValueError):
        train_step(state, tb, mb, TrainConfig(n=8, m=3, T=1), 0.1)


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("kind", metaopt.BASELINE_KINDS)
def test_fixed_rule_train_step_is_the_classifier_step_on_the_rule_weights(kind, normalize):
    # A fixed rule's iteration is the learned one without its meta step: the
    # classifier step on the rule's weights of the batch's losses at w. The
    # rule is the state's Theta, and no step changes it.
    state, tb, _ = make_instance(41)
    losses, fcache, deltas = losses_deltas(state.w, tb)
    rule = metaopt.BaselineSpec(kind, gamma=2.0, lam=float(np.median(losses)))
    raw = rule(losses)
    assert kind == "uniform" or 0.0 < raw.sum() < raw.size
    state = TrainState(state.w, rule, np.full_like(state.w.params, 0.01))
    config = TrainConfig(alpha=0.1, beta=0.5, n=8, m=4, T=1, normalize=normalize, classifier_momentum=0.9,
                         classifier_weight_decay=1e-3)
    new_state, report, applied = train_step(copied(state), tb, None, config, config.alpha)
    coeffs = metaopt._coefficients(raw, normalize)[0]
    expected = update_classifier(copied(state), fcache, deltas, coeffs, config.alpha, config.classifier_momentum,
                                 config.classifier_weight_decay)
    assert np.array_equal(applied, raw)
    assert np.array_equal(new_state.w.params, expected.w.params)
    assert np.array_equal(new_state.velocity, expected.velocity)
    assert new_state.theta is rule
    assert report.grad_theta.size == 0 and report.mean_G_per_j is None
    assert report.mw_cache is None
    assert report.weighted_loss == float(nnet.dot(coeffs, losses))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TrainConfig(beta=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(n=0)
    with pytest.raises(ValueError):
        TrainConfig(T=0)
    with pytest.raises(ValueError):
        TrainConfig(classifier_momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(lr_schedule=((5, 0.0),))
    nan = float("nan")
    for field in ("alpha", "beta", "classifier_momentum", "classifier_weight_decay"):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: nan})
    with pytest.raises(ValueError, match="lr_schedule"):
        TrainConfig(lr_schedule=((5, nan),))
    state, tb, mb = make_instance(41)
    with pytest.raises(ValueError, match="alpha"):
        meta_gradient_direct(state, tb, mb, alpha=nan)
    with pytest.raises(ValueError, match="beta"):
        update_theta(state, np.zeros_like(state.theta.theta), beta=nan)


@pytest.mark.parametrize("normalize", [False, True])
def test_train_step_does_the_promised_work(monkeypatch, normalize):
    """One weighting-net forward per Theta (Theta, then Theta'), the
    training batch's forward at w and the meta batch's lookahead forward
    at w_hat, one classifier sgd_step (the benchmark's clock), and a
    meta-step Jacobian equal bit for bit to mw_jacobian's. The meta step
    runs no weighted-gradient reduction and builds no net, so it builds no
    param_count-length vector: the one weighted_gradient belongs to the
    classifier step. The one new net, Theta', is bound once through
    with_params, and no net goes through the constructor: the classifier
    step's new net is the state's spare, bound to the vector sgd_step
    returned, and the old net becomes the spare."""
    from metaweight import nnet, weightnet

    state, tb, mb = make_instance(42)
    # A run's state carries the spare that its first classifier step built.
    state.spare = state.w.with_params(np.zeros_like(state.w.params))
    config = TrainConfig(n=tb.size, m=mb.size, T=1, beta=0.5, normalize=normalize)
    calls = {"forward": [], "lookahead": 0, "sgd_step": [], "jacobians": [], "weighted": [], "nets": []}
    stage = ["update"]

    def counting_forward(net, batch):
        calls["forward"].append(net.layers)
        return forward(net, batch)

    def counting_lookahead(*args):
        calls["lookahead"] += 1
        return nnet.lookahead_forward(*args)

    def counting_sgd_step(*args, **kwargs):
        calls["sgd_step"].append(sgd_step(*args, **kwargs))
        return calls["sgd_step"][-1]

    def recording_psg(net, cache, upstream):
        calls["jacobians"].append(per_sample_gradients(net, cache, upstream))
        return calls["jacobians"][-1]

    def staged_weighted_gradient(*args, **kwargs):
        calls["weighted"].append(stage[0])
        return weighted_gradient(*args, **kwargs)

    with_params, post_init = DenseNet.with_params, DenseNet.__post_init__

    def staged_with_params(net, params):
        calls["nets"].append((stage[0], "with_params", net.layers))
        return with_params(net, params)

    def staged_post_init(net):
        calls["nets"].append((stage[0], "DenseNet", net.layers))
        post_init(net)

    def meta_step(*args, **kwargs):
        stage[0] = "meta"
        try:
            return meta_gradient_direct(*args, **kwargs)
        finally:
            stage[0] = "update"

    for module in (nnet, weightnet, metaopt):
        monkeypatch.setattr(module, "forward", counting_forward)
    monkeypatch.setattr(metaopt, "lookahead_forward", counting_lookahead)
    monkeypatch.setattr(metaopt, "sgd_step", counting_sgd_step)
    monkeypatch.setattr(metaopt, "per_sample_gradients", recording_psg)
    monkeypatch.setattr(metaopt, "weighted_gradient", staged_weighted_gradient)
    monkeypatch.setattr(DenseNet, "with_params", staged_with_params)
    monkeypatch.setattr(DenseNet, "__post_init__", staged_post_init)
    monkeypatch.setattr(metaopt, "meta_gradient_direct", meta_step)
    new_state, report, _ = train_step(state, tb, mb, config, config.alpha)

    assert calls["forward"] == [state.w.layers, state.theta.net.layers, state.theta.net.layers]
    assert calls["lookahead"] == 1
    assert len(calls["sgd_step"]) == 1
    assert new_state.w is state.spare and new_state.w.params is calls["sgd_step"][0][0]
    assert new_state.spare is state.w
    assert calls["weighted"] == ["update"]
    assert calls["nets"] == [("update", "with_params", state.theta.net.layers)]
    monkeypatch.undo()
    weights, jac = mw_jacobian(state.theta, report.losses)
    assert len(calls["jacobians"]) == 1
    assert np.array_equal(calls["jacobians"][0], jac)
    assert np.array_equal(report.raw_weights, weights)
    assert not np.array_equal(new_state.theta.theta, state.theta.theta)


def test_fixed_rule_step_does_the_promised_work(monkeypatch):
    """A baseline iteration is the bilevel iteration without its meta
    step: one classifier forward, no weighting-net forward, one training
    batch drawn and no meta batch, one weighted-gradient reduction and one
    sgd_step (the benchmark's clock), all inside `update_classifier` but
    the forward and the draw."""
    from metaweight import weightnet
    from metaweight.metaopt import BaselineSpec

    train_set, meta_set, test_set = make_toy_sets(15, per_class=40)
    config = TrainConfig(alpha=0.1, beta=0.3, n=10, m=4, T=6, seed=3)
    assert -(-train_set.n // config.n) > config.T  # no epoch evaluation
    calls = {"forward": [], "sample_batch": [], "weighted": [], "sgd_step": []}
    stage, counting = ["loop"], [True]

    def record(name, fn, tag=lambda *args: stage[0]):
        def wrapped(*args, **kwargs):
            if counting[0]:
                calls[name].append(tag(*args))
            return fn(*args, **kwargs)

        return wrapped

    def staged_update(*args, **kwargs):
        stage[0] = "update"
        try:
            return update_classifier(*args, **kwargs)
        finally:
            stage[0] = "loop"

    def uncounted_report(*args):
        counting[0] = False
        return final_report(*args)

    final_report, sample_batch = metaopt._final_report, metaopt.sample_batch
    net_kind = lambda net, batch: "weighting net" if net.output_dim == 1 else "classifier"
    for module in (nnet, weightnet, metaopt):
        monkeypatch.setattr(module, "forward", record("forward", forward, net_kind))
    monkeypatch.setattr(metaopt, "sample_batch", record("sample_batch", sample_batch, lambda ds, size, rng: size))
    monkeypatch.setattr(metaopt, "weighted_gradient", record("weighted", weighted_gradient))
    monkeypatch.setattr(metaopt, "sgd_step", record("sgd_step", sgd_step))
    monkeypatch.setattr(metaopt, "update_classifier", staged_update)
    monkeypatch.setattr(metaopt, "_final_report", uncounted_report)
    train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,),
          weight_fn=BaselineSpec("ramp"))

    T = config.T
    assert calls["forward"] == ["classifier"] * T
    assert calls["sample_batch"] == [config.n] * T
    assert calls["weighted"] == ["update"] * T
    assert calls["sgd_step"] == ["update"] * T
    assert not counting[0]


ITERATION_STAGES = ("virtual step: ", "meta step: ", "theta update: ", "classifier step: ")


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("fixed_rule", [False, True])
def test_an_iteration_enters_each_stage_once_in_order(monkeypatch, fixed_rule, normalize):
    """A recorder on the stage hook sees one span per stage per iteration:
    a learned iteration enters the virtual step, the meta step, the theta
    update and the classifier step, in that order; a fixed rule's
    iteration enters only its classifier step, which takes the virtual
    step too."""
    import metaweight

    train_set, meta_set, test_set = make_toy_sets(3)
    config = TrainConfig(alpha=0.1, beta=0.1, n=10, m=4, T=4, normalize=normalize, seed=1)
    entered, enter = [], metaweight._stage.__enter__

    def recording_enter(stage):
        if stage.context in ITERATION_STAGES:
            entered.append(stage.context)
        return enter(stage)

    monkeypatch.setattr(metaweight._stage, "__enter__", recording_enter)
    weight_fn = metaopt.BaselineSpec("ramp") if fixed_rule else None
    train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,),
          weight_fn=weight_fn)

    per_iteration = ["classifier step: "] if fixed_rule else list(ITERATION_STAGES)
    assert entered == per_iteration * config.T


@pytest.mark.parametrize("fixed_rule", [False, True])
def test_an_iteration_rechecks_nothing_checked_before(monkeypatch, fixed_rule):
    """Structure is checked once, where it is built: an iteration of `train`,
    bilevel or fixed-rule, runs no layer-chain check and no DenseNet or
    MWNet constructor check. TrainState has no check of its own (sgd_step
    checks the velocity's shape at each classifier step), and a Batch has no
    constructor but `Batch.from_dataset`, whose rows the dataset checked."""
    from metaweight import weightnet

    train_set, meta_set, test_set = make_toy_sets(15, per_class=40)
    config = TrainConfig(alpha=0.1, beta=0.3, n=10, m=4, T=3, seed=3)
    assert -(-train_set.n // config.n) > config.T  # no epoch evaluation
    phase, calls = ["set-up"], []
    sample_batch, final_report = metaopt.sample_batch, metaopt._final_report

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((phase[0], name))
            return fn(*args, **kwargs)

        return wrapped

    def iteration_starts(*args):
        # Each iteration starts by drawing its training batch.
        phase[0] = "iteration"
        return sample_batch(*args)

    def iterations_end(*args):
        phase[0] = "final report"
        return final_report(*args)

    monkeypatch.setattr(metaopt, "sample_batch", iteration_starts)
    monkeypatch.setattr(metaopt, "_final_report", iterations_end)
    monkeypatch.setattr(nnet, "_check_chain", spy("_check_chain", nnet._check_chain))
    for cls in (DenseNet, weightnet.MWNet):
        monkeypatch.setattr(cls, "__post_init__", spy(f"{cls.__name__}.__post_init__", cls.__post_init__))
    weight_fn = metaopt.BaselineSpec("uniform") if fixed_rule else None
    train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,),
          weight_fn=weight_fn)

    assert phase == ["final report"]
    assert [name for stage, name in calls if stage == "iteration"] == []
    assert "__post_init__" not in vars(TrainState)
    assert "__init__" not in vars(Batch) and "__post_init__" not in vars(Batch)
    # The spies do see the checks where the nets are built.
    built = [name for stage, name in calls if stage == "set-up"]
    assert "_check_chain" in built and "DenseNet.__post_init__" in built
    assert ("MWNet.__post_init__" in built) == (not fixed_rule)


# ---------------------------------------------------------------- train loop


def test_train_is_deterministic():
    train_set, meta_set, test_set = make_toy_sets(5)
    config = TrainConfig(alpha=0.1, beta=0.01, n=10, m=4, T=6, seed=7)
    s1, r1 = train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    s2, r2 = train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    assert np.array_equal(s1.w.params, s2.w.params)
    assert np.array_equal(s1.theta.theta, s2.theta.theta)
    for name in ("accuracy_history", "train_loss_history", "meta_loss_history", "grad_norm_history",
                 "curve_weights", "dist_weights", "tracked_weight_history"):
        assert np.array_equal(getattr(r1, name), getattr(r2, name)), name


def test_a_draw_of_every_sample_is_the_whole_set_batch():
    # The premise of `train`'s whole-set batches: whatever the stream, a
    # draw of all of a set's samples, sorted by Batch.from_dataset, is the
    # set in index order, field by field and layout for layout.
    for seed in range(6):
        for dataset in make_toy_sets(seed)[:2]:
            whole = Batch.from_dataset(dataset, np.arange(dataset.n))
            for stream in range(20):
                drawn = Batch.from_dataset(dataset, sample_batch(dataset, dataset.n, rng_stream(seed, stream)))
                for name in ("ids", "features", "labels"):
                    a, b = getattr(drawn, name), getattr(whole, name)
                    assert a.dtype == b.dtype and a.flags.c_contiguous == b.flags.c_contiguous, name
                    assert np.array_equal(a, b), name


@pytest.mark.parametrize("whole", ["neither", "meta", "both"])
def test_a_batch_the_size_of_its_set_is_never_drawn(monkeypatch, whole):
    # A learned iteration draws a training and a meta batch; one the size
    # of its set is built once and never drawn, and the run is bit for bit
    # the run that draws every batch.
    train_set, meta_set, test_set = make_toy_sets(4)
    config = TrainConfig(alpha=0.1, beta=0.3, n=train_set.n if whole == "both" else 10,
                         m=4 if whole == "neither" else meta_set.n, T=5, seed=3)
    draws, drawn = [], metaopt.sample_batch

    def spy(dataset, size, rng):
        draws.append(dataset)
        return drawn(dataset, size, rng)

    monkeypatch.setattr(metaopt, "sample_batch", spy)
    run = lambda: train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    state, report = run()
    per_iteration = {"neither": [train_set, meta_set], "meta": [train_set], "both": []}[whole]
    assert draws == per_iteration * config.T

    monkeypatch.setattr(metaopt, "_batches", lambda dataset, size, rng: lambda: Batch.from_dataset(
        dataset, drawn(dataset, size, rng)))
    every_state, every_report = run()
    assert np.array_equal(state.w.params, every_state.w.params)
    assert np.array_equal(state.theta.theta, every_state.theta.theta)
    for name in ("accuracy_history", "train_loss_history", "meta_loss_history", "grad_norm_history",
                 "curve_weights", "dist_weights", "tracked_weight_history"):
        assert np.array_equal(getattr(report, name), getattr(every_report, name)), name


def test_train_releases_stale_state_before_the_final_pass(monkeypatch):
    # The final pass over the whole training set is a run's memory peak.
    # The last step's report (which holds the batch's activations and
    # deltas) may not still be reachable when it starts, nor the spare
    # classifier net: of the two classifier vectors a run alternates
    # between, only the final one is alive, after an odd or an even number
    # of steps.
    train_set, meta_set, test_set = make_toy_sets(5)
    update_fn, train_step_fn, final_report_fn = metaopt.update_classifier, metaopt.train_step, metaopt._final_report
    refs, vectors, alive = {}, [], []

    def spy_update_classifier(*args, **kwargs):
        state = update_fn(*args, **kwargs)
        vectors.extend(weakref.ref(net.params) for net in (state.w, state.spare))
        return state

    def spy_train_step(*args, **kwargs):
        state, report, raw = train_step_fn(*args, **kwargs)
        refs["last report"] = weakref.ref(report)
        return state, report, raw

    def spy_final_report(state, *args):
        gc.collect()
        stale = [name for name, ref in refs.items() if ref() is not None]
        live = {id(vector) for vector in (ref() for ref in vectors) if vector is not None}
        alive.append((stale, live == {id(state.w.params)}, state.spare))
        return final_report_fn(state, *args)

    monkeypatch.setattr(metaopt, "update_classifier", spy_update_classifier)
    monkeypatch.setattr(metaopt, "train_step", spy_train_step)
    monkeypatch.setattr(metaopt, "_final_report", spy_final_report)
    for T in (3, 4):
        for store in (refs, vectors, alive):
            store.clear()
        config = TrainConfig(alpha=0.1, beta=0.01, n=10, m=4, T=T, seed=7)
        state, _ = train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
        assert sorted(refs) == ["last report"]
        assert len(vectors) == 2 * T
        assert alive == [([], True, None)], T
        assert state.spare is None


@pytest.mark.parametrize("fixed_rule", [False, True])
def test_an_odd_run_alternates_two_classifier_vectors(monkeypatch, fixed_rule):
    """Over an odd number of steps, learned or fixed-rule, the classifier
    alternates between exactly two vectors, and no sgd_step writes into
    the vector its own step's forward pass read. The final classifier and
    velocity have the bits of the same run stepped in fresh arrays,
    params - lr * ((momentum * v + g) + weight_decay * params)."""
    train_set, meta_set, test_set = make_toy_sets(5)
    config = TrainConfig(alpha=0.1, beta=0.3, n=10, m=4, T=7, seed=7, classifier_momentum=0.9,
                         classifier_weight_decay=1e-3)
    assert config.T % 2 == 1
    weight_fn = metaopt.BaselineSpec("ramp") if fixed_rule else None
    run = lambda: train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,),
                        weight_fn=weight_fn)
    read, written = [], []

    def spy_forward(net, batch):
        read.append(net.params)
        return forward(net, batch)

    def spy_sgd_step(params, grad, *args, **kwargs):
        before = params.copy()
        new_params, velocity = sgd_step(params, grad, *args, **kwargs)
        assert params is read[-1] and new_params is grad and np.array_equal(params, before)
        written.append(new_params)
        return new_params, velocity

    monkeypatch.setattr(metaopt, "forward", spy_forward)
    monkeypatch.setattr(metaopt, "sgd_step", spy_sgd_step)
    state, _ = run()
    assert len(read) == len(written) == config.T
    assert all(w is not r for r, w in zip(read, written))
    vectors = [read[0]] + written
    assert len({id(v) for v in vectors}) == 2
    assert all(vectors[t] is vectors[t - 2] for t in range(2, len(vectors)))
    assert all(r is v for r, v in zip(read, vectors))
    assert state.w.params is written[-1] and state.w.params is not read[0]

    def fresh_step(params, grad, lr, momentum=0.0, weight_decay=0.0, *, state):
        velocity = (momentum * state + grad) + weight_decay * params
        new_params = params - lr * velocity
        # the fresh arrays' values, in the buffers the classifier step reads
        grad[...], state[...] = new_params, velocity
        return grad, state

    monkeypatch.setattr(metaopt, "forward", forward)
    monkeypatch.setattr(metaopt, "sgd_step", fresh_step)
    oracle, _ = run()
    bits = lambda a: a.view(np.uint64)
    assert np.array_equal(bits(state.w.params), bits(oracle.w.params))
    assert np.array_equal(bits(state.velocity), bits(oracle.velocity))


def test_train_epoch_accounting_and_report_shapes():
    train_set, meta_set, test_set = make_toy_sets(6)
    assert train_set.n == 30
    config = TrainConfig(alpha=0.1, beta=0.01, n=10, m=4, T=7, seed=3)
    state, report = train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    # ceil(30/10) = 3 iterations per epoch; 7 iterations complete 2 epochs.
    assert report.accuracy_history.shape == (2,)
    assert report.train_loss_history.shape == (2,)
    assert report.meta_loss_history.shape == (2,)
    assert report.grad_norm_history.shape == (2,)
    assert np.all(report.grad_norm_history > 0.0)
    k = report.tracked_ids.size
    assert 0 < k <= 10
    assert np.all(train_set.corrupted[report.tracked_ids])
    assert report.tracked_weight_history.shape == (2, k)
    assert report.stability_mean.shape == (1,)
    assert report.curve_losses.shape == (200,)
    assert report.curve_losses[0] == 0.0
    assert report.dist_weights.shape == (30,)
    assert np.array_equal(report.dist_corrupted, train_set.corrupted)
    assert report.final_confusion.sum() == test_set.n
    assert 0.0 <= report.final_accuracy <= 1.0
    assert report.config_echo["n"] == 10
    assert report.config_echo["mwnet_hidden"] == [5]


def test_train_single_iteration_has_no_epochs():
    train_set, meta_set, test_set = make_toy_sets(8)
    config = TrainConfig(alpha=0.1, beta=0.01, n=10, m=4, T=1, seed=3)
    state, report = train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    assert report.accuracy_history.size == 0
    assert report.stability_mean.size == 0
    assert report.tracked_weight_history.shape[0] == 0
    assert report.dist_weights.size == train_set.n


def test_train_meta_set_validation():
    train_set, meta_set, test_set = make_toy_sets(9)
    config = TrainConfig(alpha=0.1, beta=0.01, n=10, m=4, T=2, seed=0)
    noisy_meta = apply_uniform_noise(meta_set, 1.0, 0)
    with pytest.raises(ValueError):
        train(train_set, noisy_meta, test_set, config, classifier_specs=SMALL_LAYERS)
    unbalanced = meta_set.subset(np.arange(meta_set.n - 1))
    with pytest.raises(ValueError):
        train(train_set, unbalanced, test_set, config, classifier_specs=SMALL_LAYERS)
    with pytest.raises(ValueError):
        train(train_set, meta_set, test_set, TrainConfig(n=1000, m=4, T=1), classifier_specs=SMALL_LAYERS)
    with pytest.raises(ValueError):
        train(train_set, meta_set, test_set, TrainConfig(n=10, m=1000, T=1), classifier_specs=SMALL_LAYERS)


def test_train_warns_when_meta_outnumbers_train():
    pool = gen_gaussians(GaussianMixtureSpec(3, 2, circle_means(3), 0.6, 12), 4)
    meta, rest = split_meta(pool, 8, 4)  # meta 24, train 12
    test_set = gen_gaussians(GaussianMixtureSpec(3, 2, circle_means(3), 0.6, 4), 5)
    config = TrainConfig(alpha=0.1, beta=0.01, n=6, m=6, T=2, seed=0)
    # The run warning is the one report: no Python warning repeats it on stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, report = train(rest, meta, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    assert any("larger than train" in w for w in report.warnings)


def test_train_warns_when_weights_collapse(monkeypatch):
    # A huge step size saturates the weighting net's sigmoid: from some
    # iteration on every weight is exactly zero and the run would stall
    # silently. The schedule raises the step size to 1e4 from iteration 5;
    # unnormalized, the meta-gradient that saturates the sigmoid is far
    # above rounding, so the collapse does not hinge on the last bits.
    train_set, meta_set, test_set = make_toy_sets(12)
    config = TrainConfig(alpha=0.1, beta=0.3, n=10, m=4, T=9, seed=2, lr_schedule=((4, 1e5),))
    zero_steps = []

    def spy(state, forward_cache, deltas, coeffs, *args, **kwargs):
        zero_steps.append(not coeffs.any())
        return update_classifier(state, forward_cache, deltas, coeffs, *args, **kwargs)

    monkeypatch.setattr(metaopt, "update_classifier", spy)
    with np.errstate(over="ignore", invalid="ignore"):
        _, report = train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    assert len(zero_steps) == 9 and 0 < sum(zero_steps) < 9
    first = zero_steps.index(True) + 1
    assert report.warnings == [
        f"all-zero weights: every sample weight of the classifier step was zero in "
        f"{sum(zero_steps)} of 9 iterations, first in iteration {first}"
    ]

    # A baseline whose rule zeroes every weight warns from iteration 1; a
    # healthy run records nothing.
    _, zeroed = train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS,
                      weight_fn=np.zeros_like)
    assert zeroed.warnings == [
        "all-zero weights: every sample weight of the classifier step was zero in 9 of 9 iterations, "
        "first in iteration 1"
    ]
    _, healthy = train(train_set, meta_set, test_set, TrainConfig(n=10, m=4, T=9, seed=2),
                       classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    assert healthy.warnings == []


def test_a_learned_run_warns_when_corrupted_samples_outweigh_clean_ones():
    # noise40's seed 32 learns a rising curve where seeds 1-5 learn a
    # falling one. A fixed rule's weights are by design: the ramp gives the
    # corrupted samples' high losses the most weight and records nothing.
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "noise40.json"))
    result = run_experiment(replace(cfg, seeds=(32,), baselines=(metaopt.BaselineSpec("ramp"),)))
    assert result.reports[0].warnings == ["corrupted samples outweigh clean ones: mean weight 0.611 vs 0.552"]
    ramp = result.baseline_reports["ramp"][0]
    clean, noisy = ramp.clean_noisy_means()
    assert noisy > clean and ramp.warnings == []


@pytest.mark.parametrize("side", ["inputs", "outputs"])
@pytest.mark.parametrize("which", ["train", "meta", "test"])
def test_train_refuses_a_set_that_disagrees_with_the_classifier(which, side):
    sets = dict(zip(("train", "meta", "test"), make_toy_sets(3)))
    ds = sets[which]
    if side == "inputs":
        sets[which] = BiasedDataset(np.hstack([ds.features, ds.features]), ds.observed_labels, ds.true_labels, ds.c)
    else:
        sets[which] = BiasedDataset(ds.features, ds.observed_labels, ds.true_labels, ds.c + 1)
    d, c = sets[which].d, sets[which].c
    message = f"{which} set has {d} features and {c} classes, but the classifier takes 2 inputs and gives 3 outputs"
    with pytest.raises(ValueError, match=f"^{message}$"):
        train(sets["train"], sets["meta"], sets["test"], TrainConfig(n=8, m=4, T=2, seed=3), SMALL_LAYERS, (5,))


def test_stall_warning_needs_five_zero_gradients_in_a_row():
    # Iterations (1-based) whose meta-gradient was exactly zero with some
    # weight nonzero; only a run of STALL_ITERS = 5 consecutive ones warns.
    assert metaopt.STALL_ITERS == 5
    assert metaopt._stall_notes([], 50) == []
    assert metaopt._stall_notes([1, 2, 3, 4, 6, 7, 8, 9, 11, 13, 15, 17, 19], 50) == []
    assert metaopt._stall_notes([3, 10, 11, 12, 13, 14, 30], 50) == [
        "zero meta-gradient: the meta-gradient was exactly zero with nonzero weights in 7 of 50 iterations, "
        "5 or more in a row first from iteration 10, so the weighting net stopped learning"
    ]


def test_train_beta_zero_equals_frozen_weighting_fn():
    train_set, meta_set, test_set = make_toy_sets(10)
    config = TrainConfig(alpha=0.1, beta=0.0, n=10, m=4, T=6, seed=11)
    s_frozen, r_frozen = train(train_set, meta_set, test_set, config,
                               classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    theta0 = init_mwnet((5,), derive_seed(11, 2))
    assert np.array_equal(s_frozen.theta.theta, theta0.theta)
    s_fn, r_fn = train(train_set, meta_set, test_set, config,
                       classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,),
                       weight_fn=lambda losses: mw_forward(theta0, losses))
    assert np.array_equal(s_fn.w.params, s_frozen.w.params)
    assert np.array_equal(r_fn.tracked_ids, r_frozen.tracked_ids)
    assert np.array_equal(r_fn.tracked_weight_history, r_frozen.tracked_weight_history)
    assert np.array_equal(r_fn.accuracy_history, r_frozen.accuracy_history)
    assert np.array_equal(r_fn.train_loss_history, r_frozen.train_loss_history)
    assert np.array_equal(r_fn.dist_weights, r_frozen.dist_weights)
    assert np.all(r_fn.grad_norm_history == 0.0)


def test_train_weight_fn_mode_skips_meta_machinery():
    train_set, meta_set, test_set = make_toy_sets(12)
    config = TrainConfig(alpha=0.1, beta=0.9, n=10, m=4, T=6, seed=2)
    rule = lambda losses: np.ones_like(losses)
    state, report = train(train_set, meta_set, test_set, config,
                          classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,), weight_fn=rule)
    assert state.theta is rule
    assert np.all(report.grad_norm_history == 0.0)
    assert np.all(report.dist_weights == 1.0)
    assert np.all(report.curve_weights == 1.0)


def test_train_weight_fn_validation():
    train_set, meta_set, test_set = make_toy_sets(13)
    config = TrainConfig(alpha=0.1, beta=0.01, n=10, m=4, T=1, seed=2)
    with pytest.raises(ValueError):
        train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS,
              weight_fn=lambda losses: -np.ones_like(losses))
    with pytest.raises(ValueError):
        train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS,
              weight_fn=lambda losses: np.ones(3))
    with pytest.raises(ValueError, match=r"^seed 2, iteration 1 of 1, classifier step: weight_fn must"):
        train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS,
              weight_fn=lambda losses: np.full_like(losses, np.nan))


@pytest.mark.parametrize("cache", [False, True])
@pytest.mark.parametrize("loss", [np.inf, np.nan])
def test_weights_refuses_what_a_net_makes_of_a_non_finite_loss(loss, cache):
    # A net's weights are checked as a rule's are, in the same words; an
    # empty vector passes either check.
    with np.errstate(invalid="ignore"), pytest.raises(
        ValueError, match=r"^weighting net must return finite nonnegative weights, one per sample$"
    ):
        metaopt.weights(init_mwnet(), np.array([loss, 1.0]), cache=cache)
    for theta in (init_mwnet(), metaopt.BaselineSpec("uniform")):
        assert metaopt.weights(theta, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize(
    "weight_fn", [None, metaopt.BaselineSpec("uniform"), metaopt.BaselineSpec("step")], ids=["learned", "uniform", "step"]
)
def test_a_run_whose_final_losses_are_not_finite_names_the_seed_and_the_final_report(weight_fn):
    # One training sample overflows the trained classifier's logits to -inf
    # and +inf, so its final loss is NaN: the net's weight for it is NaN too,
    # but the uniform and step rules give it a finite weight. The sample is
    # kept out of the one iteration's batch and out of the tracked samples,
    # and the run ends before an epoch evaluation, so the loop itself never
    # sees it.
    train_set, meta_set, test_set = make_toy_sets(13)
    config = TrainConfig(alpha=0.1, beta=0.01, n=10, m=4, T=1, seed=2)
    assert -(-train_set.n // config.n) > config.T
    first = metaopt._batches(train_set, config.n, rng_stream(config.seed, 100))().ids
    k = min(set(range(train_set.n)) - set(first) - set(metaopt._pick_tracked(train_set, config.seed)))
    features = train_set.features.copy()
    features[k] = [-1e308, 1e308]
    train_set = BiasedDataset(features, train_set.observed_labels, train_set.true_labels, train_set.c)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^seed 2, final report: non-finite training losses$"):
        train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, weight_fn=weight_fn)


def test_train_lr_schedule_scales_the_step():
    train_set, meta_set, test_set = make_toy_sets(14)
    base = TrainConfig(alpha=0.1, beta=0.01, n=10, m=4, T=1, seed=6)
    w_init = init_net(SMALL_LAYERS, derive_seed(6, 1)).params
    s_plain, _ = train(train_set, meta_set, test_set, base, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    tiny = TrainConfig(alpha=0.1, beta=0.01, n=10, m=4, T=1, seed=6, lr_schedule=((0, 1e-12),))
    s_tiny, _ = train(train_set, meta_set, test_set, tiny, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    assert np.linalg.norm(s_plain.w.params - w_init) > 1e-4
    assert np.linalg.norm(s_tiny.w.params - w_init) < 1e-9
    # A multiplier scheduled at or past T would never fire, so it is rejected.
    for it in (1, 5):
        with pytest.raises(ValueError, match=rf"bad lr_schedule entry \({it}, 1e-12\): need 0 <= iteration < T=1"):
            TrainConfig(alpha=0.1, beta=0.01, n=10, m=4, T=1, seed=6, lr_schedule=((it, 1e-12),))
