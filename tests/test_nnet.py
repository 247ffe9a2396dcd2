"""Network forward/backward checks against independent oracles.

The main oracles are a straight-line scalar evaluator (no vectorized
code shared with the implementation) and central finite differences.
"""

import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from metaweight import nnet
from metaweight.nnet import (
    DenseNet,
    LayerSpec,
    _activate,
    _activation_backward,
    fd_gradient,
    forward,
    gradient_gram,
    init_net,
    layer_deltas,
    lookahead_deltas,
    lookahead_forward,
    mlp,
    outputs,
    per_sample_gradients,
    sgd_step,
    softmax_cross_entropy,
    weighted_gradient,
)


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    return np.linalg.norm(approx - exact) / max(1.0, np.linalg.norm(exact))


def scalar_forward(net, x_row):
    """Loop-and-accumulate evaluator for one sample, no matrix ops."""
    values = list(x_row)
    off = 0
    for spec in net.layers:
        nw = spec.input_dim * spec.output_dim
        w_flat = net.params[off:off + nw]
        b = net.params[off + nw:off + nw + spec.output_dim]
        off += nw + spec.output_dim
        nxt = []
        for j in range(spec.output_dim):
            z = b[j]
            for i in range(spec.input_dim):
                # C-order ravel of (input_dim, output_dim)
                z += values[i] * w_flat[i * spec.output_dim + j]
            if spec.activation == "relu":
                z = max(z, 0.0)
            elif spec.activation == "sigmoid":
                z = 1.0 / (1.0 + math.exp(-z))
            nxt.append(z)
        values = nxt
    return np.array(values)


def scalar_xent(logits_row, label):
    m = max(logits_row)
    total = sum(math.exp(v - m) for v in logits_row)
    return m + math.log(total) - logits_row[label]


@pytest.fixture
def small_net():
    return init_net(
        [LayerSpec(3, 5, "relu"), LayerSpec(5, 4, "sigmoid"), LayerSpec(4, 2, "identity")],
        seed=7,
    )


def test_forward_matches_scalar_oracle(small_net):
    rng = np.random.Generator(np.random.Philox(11))
    x = rng.normal(size=(6, 3))
    out, _ = forward(small_net, x)
    for i in range(6):
        expected = scalar_forward(small_net, x[i])
        assert rel_err(out[i], expected) < 1e-12


def test_forward_cache_shapes(small_net):
    x = np.ones((4, 3))
    out, cache = forward(small_net, x)
    assert out.shape == (4, 2)
    # the input plus one activation per layer
    assert [a.shape for a in cache.acts] == [(4, 3), (4, 5), (4, 4), (4, 2)]
    assert cache.batch_size == 4


def test_forward_rejects_bad_input(small_net):
    with pytest.raises(ValueError):
        forward(small_net, np.ones((2, 4)))
    # Values are not checked here: datasets reject non-finite features when
    # they are built, and the training loop checks what each stage outputs.
    out, _ = forward(small_net, np.array([[1.0, np.nan, 0.0]]))
    assert np.isnan(out).all()


def test_init_deterministic_and_scaled():
    specs = [LayerSpec(50, 80, "relu"), LayerSpec(80, 60, "sigmoid"), LayerSpec(60, 10, "identity")]
    a = init_net(specs, seed=3)
    b = init_net(specs, seed=3)
    c = init_net(specs, seed=4)
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)

    off = 0
    for spec in specs:
        nw = spec.input_dim * spec.output_dim
        w = a.params[off:off + nw]
        bias = a.params[off + nw:off + nw + spec.output_dim]
        off += nw + spec.output_dim
        target = 2.0 / spec.input_dim if spec.activation == "relu" else 1.0 / spec.input_dim
        # sample std of nw >= 3000 draws, loose 15% band
        assert abs(np.std(w) / np.sqrt(target) - 1.0) < 0.15
        assert np.all(bias == 0.0)


def test_init_net_checks_the_layer_chain_once(monkeypatch):
    checked = []

    def spy(specs):
        checked.append(tuple(specs))
        return real(specs)

    real = nnet._check_chain
    monkeypatch.setattr(nnet, "_check_chain", spy)
    specs = (LayerSpec(2, 8, "relu"), LayerSpec(8, 3, "identity"))
    assert init_net(specs, seed=1).layers == specs
    assert checked == [specs]
    for bad in ((), (LayerSpec(2, 3), LayerSpec(4, 1))):
        with pytest.raises(ValueError, match="at least one layer|adjacent layer dims mismatch"):
            init_net(bad, seed=1)


def test_layer_validation():
    with pytest.raises(ValueError):
        LayerSpec(0, 3)
    with pytest.raises(ValueError):
        LayerSpec(3, 3, "tanh")
    with pytest.raises(ValueError):
        DenseNet((LayerSpec(2, 3), LayerSpec(4, 1)), np.zeros(14))
    with pytest.raises(ValueError):
        DenseNet((LayerSpec(2, 3),), np.zeros(5))


def test_with_params_checks_the_new_vector_and_rebinds_the_views(small_net):
    p = small_net.params
    with pytest.raises(ValueError, match=r"^params must have shape \(54,\), got \(53,\)$"):
        small_net.with_params(p[:-1])
    bad = p.copy()
    bad[7] = np.inf
    with pytest.raises(ValueError, match="^non-finite parameter entries$"):
        small_net.with_params(bad)

    new = small_net.with_params(p + 1.0)
    assert new.layers is small_net.layers
    off = 0
    for spec, (w, b) in zip(new.layers, new.layer_params()):
        nw = spec.input_dim * spec.output_dim
        assert np.array_equal(w, (p + 1.0)[off:off + nw].reshape(spec.input_dim, spec.output_dim))
        assert np.array_equal(b, (p + 1.0)[off + nw:off + spec.param_count])
        assert np.shares_memory(w, new.params) and np.shares_memory(b, new.params)
        off += spec.param_count
    # The views are bound once, so the vector cannot be swapped under them.
    with pytest.raises(FrozenInstanceError):
        new.params = p


def masked_sigmoid(z):
    """The sigmoid as first written, with boolean-mask indexing; the oracle
    for the branch-free form in nnet."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_identical_to_the_masked_form():
    edge = np.array([0.0, 1e-300, 36.0, 710.0, 745.0, 1e308, np.inf])
    rng = np.random.Generator(np.random.Philox(29))
    z = np.concatenate([edge, -edge, rng.normal(0.0, 20.0, 10_000)]).reshape(-1, 1)
    got = _activate(z, "sigmoid")
    assert np.array_equal(got.view(np.uint64), masked_sigmoid(z).view(np.uint64))


def test_sigmoid_keeps_the_bits_of_the_where_form():
    # `_activate` divides under a mask instead of building np.where's
    # numerator; the bits, NaN's included, stay those of the where form.
    edge = np.array([0.0, 5e-324, 1e-300, 1.0, 709.0, 745.0, 1e308, np.inf])
    z = np.concatenate([edge, -edge, [np.nan]]).reshape(-1, 1)
    e = np.exp(-np.abs(z))
    where_form = np.where(z >= 0, 1.0, e) / (1.0 + e)
    assert np.array_equal(_activate(z.copy(), "sigmoid").view(np.uint64), where_form.view(np.uint64))


def keepdims_softmax_cross_entropy(logits, labels):
    """`softmax_cross_entropy` with the reductions as the max and sum
    methods with keepdims, the oracle for nnet's ufunc.reduce form."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    norm = expz.sum(axis=1, keepdims=True)
    at_label = np.arange(0, shifted.size, shifted.shape[1]) + labels
    losses = np.log(norm[:, 0]) - shifted.ravel()[at_label]
    grad = expz / norm
    grad.ravel()[at_label] -= 1.0
    return losses, grad


@pytest.mark.parametrize("rows, classes", [(32, 3), (30, 3), (16, 3), (64, 10)])
def test_softmax_cross_entropy_keeps_the_bits_of_the_keepdims_form(rows, classes):
    rng = np.random.Generator(np.random.Philox(31))
    labels = rng.integers(0, classes, size=rows)
    tied = np.repeat(rng.choice([-1.0, 0.0, 2.5], size=(rows, 1)), classes, axis=1)
    tied[::3, 0] = -0.0
    huge = rng.choice([-1e300, 1e300, 0.0, -0.0, 1.0], size=(rows, classes))
    for logits in (rng.normal(0.0, 5.0, size=(rows, classes)), tied, huge):
        got, want = softmax_cross_entropy(logits, labels), keepdims_softmax_cross_entropy(logits, labels)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_forward_cache_holds_one_array_per_layer(small_net):
    rng = np.random.Generator(np.random.Philox(31))
    x = rng.normal(size=(6, 3))
    out, cache = forward(small_net, x)
    assert [f.name for f in fields(cache)] == ["acts"]
    assert len(cache.acts) == len(small_net.layers) + 1
    assert np.shares_memory(cache.acts[0], x) and out is cache.acts[-1]
    for k, (spec, (w, b)) in enumerate(zip(small_net.layers, small_net.layer_params())):
        z = cache.acts[k] @ w + b
        expected = {"relu": np.maximum(z, 0.0), "sigmoid": masked_sigmoid(z), "identity": z}[spec.activation]
        assert np.array_equal(cache.acts[k + 1], expected)
        assert cache.acts[k + 1].base is None  # the layer's own buffer, no view of another
    # ReLU rectifies the pre-activation buffer itself.
    z = rng.normal(size=(4, 5))
    assert _activate(z, "relu") is z and (z >= 0.0).all()


# The classifier shapes of the shipped configs and the weighting net's.
SHIPPED_SHAPES = {
    "2-64-3": (LayerSpec(2, 64, "relu"), LayerSpec(64, 3, "identity")),
    "2-16-3": (LayerSpec(2, 16, "relu"), LayerSpec(16, 3, "identity")),
    "1-100-1": (LayerSpec(1, 100, "relu"), LayerSpec(100, 1, "sigmoid")),
}
# Those, gradcheck's classifier, a deeper chain and one with no hidden layer,
# with the activation of each head.
CHAINS = {
    **SHIPPED_SHAPES,
    "2-8-3": (LayerSpec(2, 8, "relu"), LayerSpec(8, 3, "identity")),
    "3-5-4-2": (LayerSpec(3, 5, "relu"), LayerSpec(5, 4, "relu"), LayerSpec(4, 2, "identity")),
    "5-2": (LayerSpec(5, 2, "sigmoid"),),
}
HEADS = {"2-64-3": "identity", "2-16-3": "identity", "1-100-1": "sigmoid", "2-8-3": "identity",
         "3-5-4-2": "identity", "5-2": "sigmoid"}


@pytest.mark.parametrize("shape", sorted(CHAINS))
def test_mlp_builds_relu_layers_through_the_widths_then_the_head(shape):
    assert mlp(tuple(int(w) for w in shape.split("-")), HEADS[shape]) == CHAINS[shape]


@pytest.mark.parametrize("shape", sorted(CHAINS))
def test_layer_views_are_views_that_write_through_to_the_vector_and_the_matrix_rows(shape):
    # Each (W, b) of a net's vector and of a row of its
    # per_sample_gradients matrix (a flat vector too) is written through
    # with its own values; the vector and the matrix must then hold them in
    # the documented order (W_k C-order, then b_k). A copy would drop the
    # write. The row's views first read that sample's gradient blocks.
    layers = CHAINS[shape]
    rng = np.random.Generator(np.random.Philox(53))
    net = init_net(layers, 53)
    _, cache = forward(net, rng.normal(size=(4, net.input_dim)))
    upstream = rng.normal(size=(4, net.output_dim))
    grads = per_sample_gradients(net, cache, upstream)
    deltas = layer_deltas(net, cache, upstream)
    for (w, b), a_prev, delta in zip(nnet._layer_views(layers, grads[2]), cache.acts, deltas):
        assert np.array_equal(w, np.outer(a_prev[2], delta[2])) and np.array_equal(b, delta[2])
    for flat, views in ((net.params, net.layer_params()), (grads[2], nnet._layer_views(layers, grads[2]))):
        expected = []
        for spec, (w, b) in zip(layers, views):
            assert w.shape == (spec.input_dim, spec.output_dim)
            assert b.shape == (spec.output_dim,)
            assert w.base is not None and np.shares_memory(w, flat) and np.shares_memory(b, flat)
            w[...] = rng.normal(size=w.shape)
            b[...] = rng.normal(size=b.shape)
            expected += [w.ravel().copy(), b.copy()]
        assert np.array_equal(flat, np.concatenate(expected))


def blocked_sizes(n, block):
    """Row counts of `outputs`' blocks: full blocks, a 1-row tail folded
    into the block before it."""
    sizes = [block] * (n // block) + ([n % block] if n % block else [])
    if len(sizes) > 1 and sizes[-1] == 1:
        sizes[-2:] = [block + 1]
    return sizes


@pytest.mark.parametrize("block", [256, 64])
@pytest.mark.parametrize("shape", sorted(SHIPPED_SHAPES))
def test_outputs_in_row_blocks_match_one_pass_bit_for_bit(monkeypatch, shape, block):
    monkeypatch.setattr(nnet, "ROW_BLOCK", block)
    net = init_net(SHIPPED_SHAPES[shape], 41)
    rng = np.random.Generator(np.random.Philox(41))
    rows = []

    def spy(net_, batch):
        rows.append(len(batch))
        return forward(net_, batch)

    # `outputs` calls the spy; this module's `forward` stays the real one.
    monkeypatch.setattr(nnet, "forward", spy)
    for n in (1, 2, 180, 255, 600, block + 1, 2 * block + 1):
        x = rng.normal(0.0, 3.0, size=(n, net.input_dim))
        rows.clear()
        got = outputs(net, x)
        assert rows == blocked_sizes(n, block), n
        assert got.shape == (n, net.output_dim)
        assert np.array_equal(got.view(np.uint64), forward(net, x)[0].view(np.uint64)), n


def test_outputs_in_row_blocks_match_one_pass_on_the_wide_shape():
    # The 256 -> 10 product is not row-stable across block sizes, so here
    # the blocks agree with the one-pass product to rounding, not in bits.
    net = init_net((LayerSpec(256, 256, "relu"), LayerSpec(256, 10, "identity")), 43)
    rng = np.random.Generator(np.random.Philox(43))
    for n in (600, nnet.ROW_BLOCK + 1, 2 * nnet.ROW_BLOCK + 1, 1900):
        x = rng.normal(0.0, 1.0, size=(n, 256))
        x[np.arange(n), np.arange(n) % 10] += 16.0
        full = forward(net, x)[0]
        np.testing.assert_allclose(outputs(net, x), full, rtol=1e-13, atol=1e-13 * np.abs(full).max())


def test_outputs_rejects_bad_input(small_net):
    with pytest.raises(ValueError, match="columns"):
        outputs(small_net, np.zeros((2 * nnet.ROW_BLOCK + 3, 2)))


# The products of a bilevel step, by classifier: layers, n, m. The
# weighting net (1-100-1) runs at the same n, with the two inner-dimension-1
# products its scalar input brings: x @ W_1 forward and delta_2 @ W_2^T back.
DOT_SHAPES = {
    "2-64-3": (SHIPPED_SHAPES["2-64-3"], 32, 30),
    "2-16-3": (SHIPPED_SHAPES["2-16-3"], 32, 16),
    "256-256-10": ((LayerSpec(256, 256, "relu"), LayerSpec(256, 10, "identity")), 64, 32),
}


@pytest.mark.parametrize("shape", sorted(DOT_SHAPES))
def test_np_dot_keeps_the_bits_of_matmul_on_the_kernels_operands(monkeypatch, shape):
    # The kernels compute their products with `dot` (np.ndarray.dot), for
    # its lower per-call cost (module docstring); here every operand pair a
    # bilevel step and a classifier step pass to it, transposed views as
    # passed, gives the bits of a @ b and of np.dot. Checked with OpenBLAS
    # 0.3.31 (x86-64 SkylakeX kernels), as the ROW_BLOCK tests are.
    from metaweight import metaopt
    from metaweight.weightnet import init_mwnet
    from test_metaopt import make_batch

    specs, n, m = DOT_SHAPES[shape]
    rng = np.random.Generator(np.random.Philox(47))
    d, c = specs[0].input_dim, specs[-1].output_dim
    theta = init_mwnet((100,), 2)
    state = metaopt.TrainState(init_net(specs, 1), theta.with_theta(theta.theta + 0.3 * rng.normal(size=301)),
                               np.zeros(sum(s.param_count for s in specs)))
    train_batch = make_batch(rng.normal(0.0, 2.0, size=(n, d)), rng.integers(0, c, size=n), c)
    meta_batch = make_batch(rng.normal(0.0, 2.0, size=(m, d)), rng.integers(0, c, size=m), c)
    operands, real_dot = [], nnet.dot

    def spy(a, b):
        operands.append((a, b))
        return real_dot(a, b)

    monkeypatch.setattr(nnet, "dot", spy)
    monkeypatch.setattr(metaopt, "dot", spy)
    for normalize in (False, True):
        report = metaopt.meta_gradient_direct(state, train_batch, meta_batch, 0.1, normalize)
        metaopt.update_classifier(state, report.forward_cache, report.deltas, report.coeffs, 0.1)
    monkeypatch.undo()

    for a, b in operands:
        assert np.array_equal(nnet.dot(a, b), a @ b), (a.shape, b.shape, b.flags.c_contiguous)
        assert np.array_equal(nnet.dot(a, b), np.dot(a, b)), (a.shape, b.shape, b.flags.c_contiguous)
    shapes = [(a.shape, b.shape) for a, b in operands]
    # x @ W_1 and delta_2 @ W_2^T of the weighting net, once each per meta step
    assert shapes.count(((n, 1), (1, 100))) == 4
    assert any(not b.flags.c_contiguous for _, b in operands)  # transposed views
    assert ((m, n), (n, specs[0].output_dim)) in shapes  # a lookahead K_k @ S_k
    assert ((n,), (n, 301)) in shapes  # the meta-gradient's mean_G_per_j @ jac


def test_relu_backward_masks_on_the_output_exactly_as_on_the_preactivation():
    tiny = np.nextafter(0.0, 1.0)
    edge = np.array([0.0, tiny, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 1e308, np.inf, np.nan])
    preact = np.concatenate([edge, -edge]).reshape(2, -1)
    rng = np.random.Generator(np.random.Philox(37))
    delta = rng.normal(size=preact.shape)
    delta[0, :3] = [np.inf, -np.inf, np.nan]
    act = _activate(preact.copy(), "relu")
    with np.errstate(invalid="ignore"):  # inf * 0
        got = _activation_backward(delta, act, "relu")
        expected = delta * (preact > 0.0)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_per_sample_gradients_match_fd(small_net):
    rng = np.random.Generator(np.random.Philox(13))
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 2, size=5)

    _, cache = forward(small_net, x)
    out, _ = forward(small_net, x)
    _, dlogits = softmax_cross_entropy(out, y)
    grads = per_sample_gradients(small_net, cache, dlogits)
    assert grads.shape == (5, small_net.param_count)

    for i in range(5):
        def loss_i(p, i=i):
            o, _ = forward(small_net.with_params(p), x[i:i + 1])
            losses, _ = softmax_cross_entropy(o, y[i:i + 1])
            return float(losses[0])

        fd = fd_gradient(loss_i, small_net.params, eps=1e-5)
        assert rel_err(grads[i], fd) < 1e-7


def test_gradient_mean_equals_mean_loss_gradient(small_net):
    rng = np.random.Generator(np.random.Philox(17))
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, size=8)
    out, cache = forward(small_net, x)
    _, dlogits = softmax_cross_entropy(out, y)
    per_sample = per_sample_gradients(small_net, cache, dlogits)

    def mean_loss(p):
        o, _ = forward(small_net.with_params(p), x)
        losses, _ = softmax_cross_entropy(o, y)
        return float(np.mean(losses))

    fd = fd_gradient(mean_loss, small_net.params, eps=1e-5)
    assert rel_err(per_sample.mean(axis=0), fd) < 1e-7


@pytest.mark.parametrize("activation", ["relu", "sigmoid", "identity"])
def test_layer_reductions_match_per_sample_rows(activation):
    # weighted_gradient and gradient_gram reduce the deltas layer by layer;
    # the oracle reduces the materialized per-sample rows.
    rng = np.random.Generator(np.random.Philox(19))
    net = init_net((LayerSpec(4, 6, activation), LayerSpec(6, 5, activation), LayerSpec(5, 3, "identity")), 3)
    x = rng.normal(size=(7, 4))
    out, cache = forward(net, x)
    _, dlogits = softmax_cross_entropy(out, rng.integers(0, 3, size=7))
    deltas = layer_deltas(net, cache, dlogits)
    assert [d.shape for d in deltas] == [(7, 6), (7, 5), (7, 3)]
    rows = per_sample_gradients(net, cache, dlogits)
    coeffs = rng.random(7)
    assert rel_err(weighted_gradient(net, cache, deltas, coeffs), coeffs @ rows) < 1e-14

    # A second batch at the same point (zero steps): the lookahead pass is
    # the plain forward, and its Gram matrices give the rows' inner products.
    x2 = rng.normal(size=(4, 4))
    out2, cache2 = forward(net, x2)
    _, dlogits2 = softmax_cross_entropy(out2, rng.integers(0, 3, size=4))
    rows2 = per_sample_gradients(net, cache2, dlogits2)
    zero = [np.zeros_like(d) for d in deltas]
    look_out, look_cache, grams = lookahead_forward(net, cache, zero, x2)
    assert np.array_equal(look_out, out2)
    assert [g.shape for g in grams] == [(4, 7)] * 3
    deltas2 = lookahead_deltas(net, cache, zero, look_cache, dlogits2)
    assert all(np.array_equal(a, b) for a, b in zip(deltas2, layer_deltas(net, cache2, dlogits2)))
    assert rel_err(gradient_gram(grams, deltas2, deltas), rows2 @ rows.T) < 1e-14


@pytest.mark.parametrize("activation", ["relu", "sigmoid", "identity"])
def test_lookahead_pass_matches_the_explicit_step(activation):
    # The lookahead pass runs a batch at w_hat = w - sum_i s_i g_i from the
    # step's factors; the oracle builds w_hat and runs the plain passes.
    rng = np.random.Generator(np.random.Philox(23))
    net = init_net((LayerSpec(3, 5, activation), LayerSpec(5, 4, activation), LayerSpec(4, 3, "identity")), 5)
    x = rng.normal(size=(6, 3))
    out, cache = forward(net, x)
    _, dlogits = softmax_cross_entropy(out, rng.integers(0, 3, size=6))
    deltas = layer_deltas(net, cache, dlogits)
    rows = per_sample_gradients(net, cache, dlogits)
    s = 0.3 * rng.random(6)
    steps = [s[:, None] * d for d in deltas]
    net_hat = net.with_params(net.params - s @ rows)

    x2 = rng.normal(size=(5, 3))
    labels2 = rng.integers(0, 3, size=5)
    look_out, look_cache, grams = lookahead_forward(net, cache, steps, x2)
    out_hat, cache_hat = forward(net_hat, x2)
    assert rel_err(look_out, out_hat) < 1e-14
    for gram, a_new, a_old in zip(grams, cache_hat.acts, cache.acts):
        assert rel_err(gram, a_new @ a_old.T + 1.0) < 1e-14
    _, dlogits2 = softmax_cross_entropy(look_out, labels2)
    deltas2 = lookahead_deltas(net, cache, steps, look_cache, dlogits2)
    for got, want in zip(deltas2, layer_deltas(net_hat, cache_hat, dlogits2)):
        assert rel_err(got, want) < 1e-14
    rows_hat = per_sample_gradients(net_hat, cache_hat, softmax_cross_entropy(out_hat, labels2)[1])
    assert rel_err(gradient_gram(grams, deltas2, deltas), rows_hat @ rows.T) < 1e-13


def test_relu_subgradient_at_zero_is_zero():
    # Weights and bias chosen so the preactivation is exactly 0.
    net = DenseNet(
        (LayerSpec(1, 1, "relu"), LayerSpec(1, 1, "identity")),
        np.array([1.0, 0.0, 1.0, 0.0]),
    )
    out, cache = forward(net, np.array([[0.0]]))
    assert out[0, 0] == 0.0
    grads = per_sample_gradients(net, cache, np.array([[1.0]]))
    # First-layer weight and bias get zero gradient through the dead unit.
    assert grads[0, 0] == 0.0
    assert grads[0, 1] == 0.0


def test_forward_and_backward_are_pure(small_net):
    x = np.linspace(-1, 1, 12).reshape(4, 3)
    params_before = small_net.params.copy()
    x_before = x.copy()
    out, cache = forward(small_net, x)
    upstream = np.ones((4, 2))
    per_sample_gradients(small_net, cache, upstream)
    assert np.array_equal(small_net.params, params_before)
    assert np.array_equal(x, x_before)
    out2, _ = forward(small_net, x)
    assert np.array_equal(out, out2)


def test_fd_gradient_on_quadratic():
    # d/dx sum(x^2) = 2x, exact for central differences.
    x0 = np.array([1.0, -2.0, 0.5])
    fd = fd_gradient(lambda p: float(np.sum(p * p)), x0, eps=1e-4)
    assert rel_err(fd, 2 * x0) < 1e-9
    with pytest.raises(ValueError):
        fd_gradient(lambda p: float(np.sum(p)), x0, eps=0.0)


def test_sgd_step_plain():
    params = np.array([1.0, 2.0])
    grad = np.array([0.5, -1.0])
    new, vel = sgd_step(params.copy(), grad.copy(), lr=0.1, state=np.zeros(2))
    assert np.allclose(new, params - 0.1 * grad)
    assert np.allclose(vel, grad)


def test_sgd_step_momentum_weight_decay_closed_form():
    params = np.array([1.0, -1.0])
    g1 = np.array([0.2, 0.4])
    g2 = np.array([-0.1, 0.3])
    lr, mom, wd = 0.05, 0.9, 0.01

    # sgd_step overwrites its inputs: each call gets copies.
    p1, v1 = sgd_step(params.copy(), g1.copy(), lr, momentum=mom, weight_decay=wd, state=np.zeros(2))
    v1_exp = g1 + wd * params
    assert np.allclose(v1, v1_exp, atol=1e-15)
    assert np.allclose(p1, params - lr * v1_exp, atol=1e-15)

    p2, v2 = sgd_step(p1.copy(), g2.copy(), lr, momentum=mom, weight_decay=wd, state=v1.copy())
    v2_exp = mom * v1_exp + g2 + wd * p1
    assert np.allclose(v2, v2_exp, atol=1e-15)
    assert np.allclose(p2, p1 - lr * v2_exp, atol=1e-15)


def test_sgd_step_updates_its_inputs_in_place_with_the_bits_of_the_fresh_step():
    # The step overwrites the velocity, writes the new parameters into the
    # gradient's buffer and returns those two arrays, leaving the parameters
    # unchanged; their bits are those of the step that returned new arrays,
    # params - lr * ((momentum * v + g) + weight_decay * params) evaluated
    # left to right, signed zeros and subnormals included. The weight-decay
    # product at weight_decay 0 turns a -0 velocity entry into +0.
    tiny = np.nextafter(0.0, 1.0)
    edge = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -2.2250738585072014e-308, 1.0, -2.5])
    p_edge, g_edge, v_edge = (a.ravel() for a in np.meshgrid(edge, edge, edge, indexing="ij"))
    rng = np.random.Generator(np.random.Philox(53))
    params0, grad0, vel0 = (np.concatenate([e, rng.standard_normal(200)]) for e in (p_edge, g_edge, v_edge))
    bits = lambda a: a.view(np.uint64)
    for lr in (0.0, 0.1, 1e-300):
        for momentum in (0.0, 0.9):
            for weight_decay in (0.0, 5e-4):
                velocity = (momentum * vel0 + grad0) + weight_decay * params0
                expected = params0 - lr * velocity
                params, grad, state = params0.copy(), grad0.copy(), vel0.copy()
                out_params, out_state = sgd_step(params, grad, lr, momentum, weight_decay, state=state)
                assert out_params is grad and out_state is state
                assert np.array_equal(bits(params), bits(params0)), (lr, momentum, weight_decay)
                assert np.array_equal(bits(out_state), bits(velocity)), (lr, momentum, weight_decay)
                assert np.array_equal(bits(out_params), bits(expected)), (lr, momentum, weight_decay)
    # The weight-decay product's signed zero is in the result.
    zero = np.array([-0.0])
    _, state = sgd_step(np.array([1.0]), zero.copy(), 0.1, 0.9, 0.0, state=zero.copy())
    assert not np.signbit(state[0])


def test_sgd_step_validation():
    p, v = np.zeros(3), np.zeros(3)
    with pytest.raises(ValueError):
        sgd_step(p, np.zeros(3), lr=-0.1, state=v)
    with pytest.raises(ValueError):
        sgd_step(p, np.zeros(3), lr=0.1, momentum=1.0, state=v)
    with pytest.raises(ValueError):
        sgd_step(p, np.zeros(3), lr=0.1, weight_decay=-0.1, state=v)
    with pytest.raises(ValueError):
        sgd_step(p, np.zeros(2), lr=0.1, state=v)
    with pytest.raises(ValueError, match="state"):
        sgd_step(p, np.zeros(3), lr=0.1, state=np.zeros(2))
    with pytest.raises(ValueError, match="^lr"):
        sgd_step(p, np.zeros(3), lr=float("nan"), state=v)
    with pytest.raises(ValueError, match="^momentum"):
        sgd_step(p, np.zeros(3), lr=0.1, momentum=float("nan"), state=v)
    with pytest.raises(ValueError, match="^weight_decay"):
        sgd_step(p, np.zeros(3), lr=0.1, weight_decay=float("nan"), state=v)
    with pytest.raises(ValueError, match="^eps"):
        fd_gradient(lambda q: 0.0, p, eps=float("nan"))
    # lr=0 is a legal degenerate step: parameters stay put, velocity updates.
    new, vel = sgd_step(p, np.ones(3), lr=0.0, momentum=0.9, state=v)
    assert np.array_equal(new, np.zeros(3))
    assert np.array_equal(vel, np.ones(3))


def test_softmax_cross_entropy_matches_scalar():
    rng = np.random.Generator(np.random.Philox(23))
    logits = rng.normal(size=(7, 4)) * 3.0
    labels = rng.integers(0, 4, size=7)
    losses, grad = softmax_cross_entropy(logits, labels)
    for i in range(7):
        assert abs(losses[i] - scalar_xent(list(logits[i]), labels[i])) < 1e-12
    # Gradient rows are softmax - onehot: they sum to zero.
    assert np.all(np.abs(grad.sum(axis=1)) < 1e-12)


def test_softmax_cross_entropy_gradient_vs_fd():
    rng = np.random.Generator(np.random.Philox(29))
    logits = rng.normal(size=(3, 5))
    labels = np.array([0, 2, 4])
    _, grad = softmax_cross_entropy(logits, labels)
    for i in range(3):
        def loss_fn(row, i=i):
            losses, _ = softmax_cross_entropy(row.reshape(1, -1), labels[i:i + 1])
            return float(losses[0])

        fd = fd_gradient(loss_fn, logits[i], eps=1e-6)
        assert rel_err(grad[i], fd) < 1e-8


def test_softmax_cross_entropy_extreme_logits_stable():
    logits = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    labels = np.array([0, 0])
    losses, grad = softmax_cross_entropy(logits, labels)
    assert np.all(np.isfinite(losses))
    assert losses[0] == 0.0
    assert losses[1] == 1000.0
    assert np.all(np.isfinite(grad))
