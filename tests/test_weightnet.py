"""Weighting-net checks: shape contract, Jacobian oracle, normalization."""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaweight.nnet import DenseNet, LayerSpec, fd_gradient
from metaweight.weightnet import (
    MWNet,
    init_mwnet,
    load_mwnet,
    mw_forward,
    mw_jacobian,
    mw_forward_cache,
    normalize,
    save_mwnet,
)


def rel_err(approx, exact):
    return np.linalg.norm(np.asarray(approx) - np.asarray(exact)) / max(
        1.0, np.linalg.norm(np.asarray(exact))
    )


def test_shape_contract_enforced():
    with pytest.raises(ValueError):
        MWNet(DenseNet((LayerSpec(2, 5, "relu"), LayerSpec(5, 1, "sigmoid")), np.zeros(2 * 5 + 5 + 5 + 1)))
    with pytest.raises(ValueError):
        MWNet(DenseNet((LayerSpec(1, 5, "relu"), LayerSpec(5, 2, "sigmoid")), np.zeros(1 * 5 + 5 + 10 + 2)))
    with pytest.raises(ValueError):
        MWNet(DenseNet((LayerSpec(1, 5, "relu"), LayerSpec(5, 1, "identity")), np.zeros(16)))
    with pytest.raises(ValueError):
        MWNet(DenseNet((LayerSpec(1, 5, "sigmoid"), LayerSpec(5, 1, "sigmoid")), np.zeros(16)))
    with pytest.raises(ValueError):
        init_mwnet(hidden=())


def test_init_outputs_near_half():
    # Shrunk init keeps the sigmoid close to its midpoint over a wide range.
    for seed in range(5):
        mwnet = init_mwnet((100,), seed)
        weights = mw_forward(mwnet, np.linspace(0.0, 10.0, 50))
        assert np.all(np.abs(weights - 0.5) < 0.2)


def test_outputs_in_open_unit_interval():
    mwnet = init_mwnet((10, 10), seed=3)
    w = mw_forward(mwnet, np.linspace(0.0, 50.0, 200))
    assert np.all(w > 0.0)
    assert np.all(w < 1.0)


def test_forward_rejects_bad_shapes():
    mwnet = init_mwnet((5,), 0)
    with pytest.raises(ValueError):
        mw_forward(mwnet, np.ones((3, 1)))
    with pytest.raises(ValueError):
        mw_jacobian(mwnet, np.ones((3, 1)))


@pytest.mark.parametrize("hidden", [(5,), (4, 3)])
def test_jacobian_matches_fd(hidden):
    rng = np.random.Generator(np.random.Philox(9))
    mwnet = init_mwnet(hidden, seed=2)
    # move away from the tiny init so activations have texture
    mwnet = mwnet.with_theta(mwnet.theta + 0.5 * rng.normal(size=mwnet.param_count))
    losses = np.abs(rng.normal(size=6)) * 3.0
    weights, jac = mw_jacobian(mwnet, losses)
    assert jac.shape == (6, mwnet.param_count)
    assert np.allclose(weights, mw_forward(mwnet, losses))
    for i in range(losses.size):
        def w_i(theta, i=i):
            return float(mw_forward(mwnet.with_theta(theta), losses[i:i + 1])[0])

        fd = fd_gradient(w_i, mwnet.theta, eps=1e-6)
        assert rel_err(jac[i], fd) < 1e-7


def test_normalize_sums_to_one():
    rng = np.random.Generator(np.random.Philox(15))
    for _ in range(50):
        raw = rng.random(rng.integers(1, 30))
        eta = normalize(raw)
        assert abs(eta.sum() - 1.0) < 1e-12
        assert np.all(eta >= 0)


def test_normalize_all_zero_guard():
    eta = normalize(np.zeros(7))
    assert np.array_equal(eta, np.zeros(7))
    with pytest.raises(ValueError):
        normalize(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        normalize(np.array([np.inf, 1.0]))


def test_normalize_scale_invariant_direction():
    raw = np.array([0.2, 0.5, 0.3])
    assert np.allclose(normalize(raw), normalize(10.0 * raw))


def test_mw_forward_over_a_grid():
    # The probe grid: weights in (0, 1) equal to one forward pass over it.
    # The grid's bad-range cases are the probe command's config errors
    # (test_cli::test_probe_bad_range_is_config_error).
    mwnet = init_mwnet((5,), 1)
    grid = np.linspace(0.0, 4.0, 9)
    weights = mw_forward(mwnet, grid)
    assert weights.shape == grid.shape
    assert np.all((weights > 0) & (weights < 1))
    assert np.array_equal(weights, mw_forward_cache(mwnet, grid)[0])


def test_mw_forward_memory_does_not_grow_with_the_grid():
    # The weighting net runs in row blocks: the grid and the weights column
    # (1.53 MiB each at 200,000 points) dominate, where a one-pass forward
    # also held a 200,000 x 100 hidden layer (160 MiB).
    mwnet = init_mwnet((100,), 3)
    tracemalloc.start()
    try:
        grid = np.linspace(0.0, 10.0, 200_000)
        weights = mw_forward(mwnet, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weights.shape == grid.shape == (200_000,)
    assert peak < 4 * 2**20, f"mw_forward peaked at {peak / 2**20:.2f} MiB"


def test_save_load_round_trip(tmp_path):
    mwnet = init_mwnet((8, 4), seed=11)
    mwnet = mwnet.with_theta(mwnet.theta + 0.25)
    path = tmp_path / "mwnet.json"
    save_mwnet(mwnet, path)
    back = load_mwnet(path)
    assert back.net.layers == mwnet.net.layers
    assert np.array_equal(back.theta, mwnet.theta)
    # saving again is byte-identical
    path2 = tmp_path / "again.json"
    save_mwnet(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_a_file_in_the_unsorted_key_order_loads_to_the_same_net(tmp_path):
    # Nets saved before the JSON writer sorted keys list each layer's keys
    # in LayerSpec's field order: input_dim, output_dim, activation.
    mwnet = init_mwnet((4, 3), seed=5)
    payload = {"layers": [asdict(spec) for spec in mwnet.net.layers], "params": mwnet.theta.tolist()}
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    assert '"input_dim": 1,\n      "output_dim": 4,\n      "activation": "relu"' in old.read_text()
    back = load_mwnet(old)
    assert back.net.layers == mwnet.net.layers
    assert back.theta.tobytes() == mwnet.theta.tobytes()
    save_mwnet(back, tmp_path / "new.json")
    assert json.loads((tmp_path / "new.json").read_text()) == json.loads(old.read_text())


# Signed zeros, the smallest subnormal and values near float64's ends, of
# both signs, besides any finite float.
PARAM_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def weighting_nets(draw):
    hidden = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    mwnet = init_mwnet(hidden, seed=0)
    params = draw(st.lists(PARAM_VALUES, min_size=mwnet.param_count, max_size=mwnet.param_count))
    return mwnet.with_theta(np.array(params, dtype=np.float64))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(weighting_nets())
def test_save_then_load_returns_the_parameters_bit_for_bit(tmp_path_factory, mwnet):
    path = tmp_path_factory.mktemp("mwnet") / "mwnet.json"
    save_mwnet(mwnet, path)
    back = load_mwnet(path)
    assert back.net.layers == mwnet.net.layers
    assert back.theta.tobytes() == mwnet.theta.tobytes()
