"""Small metric primitives shared by the trainer and the harness."""

from __future__ import annotations

import numpy as np


def confusion_matrix(true_labels: np.ndarray, predictions: np.ndarray, c: int) -> np.ndarray:
    """Counts indexed [true][predicted]."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if true_labels.shape != predictions.shape or true_labels.ndim != 1:
        raise ValueError("labels and predictions must be 1-d vectors of equal length")
    if true_labels.size == 0:
        raise ValueError("empty evaluation set")
    mat = np.zeros((c, c), dtype=np.int64)
    np.add.at(mat, (true_labels, predictions), 1)
    return mat


def stability_from_history(weight_history: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std over samples of |weight change| between adjacent rows
    of an (epochs, samples) history: two vectors of length epochs - 1."""
    weight_history = np.asarray(weight_history, dtype=np.float64)
    if weight_history.ndim != 2 or weight_history.shape[0] < 2:
        raise ValueError("need a (epochs >= 2, samples) weight history")
    deltas = np.abs(np.diff(weight_history, axis=0))
    return deltas.mean(axis=1), deltas.std(axis=1)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n, each run of tied values given the mean of its positions."""
    _, run, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return (last - (counts - 1) / 2)[run]


def monotonicity_score(losses: np.ndarray, weights: np.ndarray) -> tuple[float, bool]:
    """(Spearman rank correlation, degenerate); a constant or NaN-holding
    input, where it is undefined, scores 0.0 with degenerate set."""
    losses = np.asarray(losses, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if losses.shape != weights.shape or losses.ndim != 1:
        raise ValueError("losses and weights must be 1-d vectors of equal length")
    if losses.size < 2:
        raise ValueError("need at least 2 points")
    constant = np.all(losses == losses[0]) or np.all(weights == weights[0])
    if constant or np.isnan(losses).any() or np.isnan(weights).any():
        return 0.0, True
    ranks = np.column_stack((_average_ranks(losses), _average_ranks(weights)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0]), False
