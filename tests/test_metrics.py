"""Tests for the shared metric primitives."""

import numpy as np
import pytest

from metaweight.metrics import confusion_matrix, monotonicity_score, stability_from_history


def test_confusion_matrix_counts():
    true = np.array([0, 0, 1, 1, 2, 2, 2])
    pred = np.array([0, 1, 1, 1, 2, 0, 2])
    mat = confusion_matrix(true, pred, 3)
    expected = np.array(
        [
            [1, 1, 0],
            [0, 2, 0],
            [1, 0, 2],
        ]
    )
    assert mat.dtype == np.int64
    assert np.array_equal(mat, expected)
    assert mat.sum() == true.size


def test_confusion_matrix_diagonal_is_accuracy_numerator():
    rng = np.random.Generator(np.random.Philox(5))
    true = rng.integers(0, 4, size=200)
    pred = rng.integers(0, 4, size=200)
    mat = confusion_matrix(true, pred, 4)
    assert np.trace(mat) == int(np.sum(true == pred))
    # Row sums recover the per-class counts.
    for k in range(4):
        assert mat[k].sum() == int(np.sum(true == k))


def test_confusion_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        confusion_matrix(np.array([0, 1]), np.array([0]), 2)
    with pytest.raises(ValueError):
        confusion_matrix(np.array([]), np.array([]), 2)
    with pytest.raises(ValueError):
        confusion_matrix(np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int), 2)


def test_stability_constant_history_is_zero():
    hist = np.ones((5, 7)) * 0.3
    mean, std = stability_from_history(hist)
    assert mean.shape == (4,)
    assert std.shape == (4,)
    assert np.all(mean == 0.0)
    assert np.all(std == 0.0)


def test_stability_matches_hand_computation():
    hist = np.array(
        [
            [0.1, 0.4],
            [0.2, 0.2],
            [0.5, 0.2],
        ]
    )
    mean, std = stability_from_history(hist)
    # Epoch 1 -> 2 deltas: |0.1|, |0.2|; epoch 2 -> 3 deltas: |0.3|, |0.0|.
    assert np.allclose(mean, [0.15, 0.15], atol=1e-15)
    assert np.allclose(std, [0.05, 0.15], atol=1e-15)


def test_stability_single_sample_has_zero_std():
    hist = np.array([[0.1], [0.7], [0.2]])
    mean, std = stability_from_history(hist)
    assert np.allclose(mean, [0.6, 0.5], atol=1e-15)
    assert np.all(std == 0.0)


def test_stability_requires_two_epochs():
    with pytest.raises(ValueError):
        stability_from_history(np.ones((1, 4)))
    with pytest.raises(ValueError):
        stability_from_history(np.ones(4))


def test_monotonicity_perfect_orders():
    losses = np.array([0.1, 0.5, 1.2, 3.0, 9.0])
    up, deg = monotonicity_score(losses, losses**2)
    assert up == pytest.approx(1.0)
    assert not deg
    down, deg = monotonicity_score(losses, -losses)
    assert down == pytest.approx(-1.0)
    assert not deg


def test_monotonicity_is_rank_based():
    rng = np.random.Generator(np.random.Philox(11))
    losses = rng.random(50)
    weights = rng.random(50)
    base, _ = monotonicity_score(losses, weights)
    # Any strictly increasing transform leaves ranks, hence the score, intact.
    warped, _ = monotonicity_score(np.exp(losses), weights**3 + 5.0)
    assert warped == pytest.approx(base, abs=1e-12)


def test_monotonicity_degenerate_inputs():
    losses = np.array([1.0, 2.0, 3.0])
    score, deg = monotonicity_score(losses, np.full(3, 0.5))
    assert score == 0.0 and deg
    score, deg = monotonicity_score(np.full(3, 2.0), losses)
    assert score == 0.0 and deg
    score, deg = monotonicity_score(np.array([1.0, 1.0, np.nan]), losses)
    assert score == 0.0 and deg
    with pytest.raises(ValueError):
        monotonicity_score(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        monotonicity_score(losses, np.array([1.0, 2.0]))


def test_monotonicity_matches_scipy_spearmanr_bitwise():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.Generator(np.random.Philox(3))
    for k in range(400):
        n = int(rng.integers(2, 80))
        # Few distinct values, so most vectors hold long runs of ties.
        losses = rng.integers(0, rng.integers(2, 10), size=n) * 0.37
        weights = rng.integers(0, rng.integers(2, 10), size=n) + (rng.normal(size=n) if k % 4 == 0 else 0.0)
        score, degenerate = monotonicity_score(losses, weights)
        if degenerate:
            assert np.all(losses == losses[0]) or np.all(weights == weights[0])
        else:
            assert score == stats.spearmanr(losses, weights).statistic
