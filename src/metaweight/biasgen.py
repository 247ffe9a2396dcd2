"""Synthetic datasets and training-bias injection.

Two biases: long-tailed class imbalance (class i keeps base_count * mu^i
samples, mu = factor^(-1/(c-1))) and label noise, either uniform (resample
over all c classes with probability p, corrupting p*(c-1)/c in
expectation) or flip (to one of two fixed targets per class, p/2 each,
corrupting p). Every generator is a pure function of (inputs, seed) on
its own Philox stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from metaweight import _csv_rows, _stage, _write_csv

UNIFORM = "uniform"
FLIP = "flip"


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """A Philox generator on an independent stream keyed by (seed, *key)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def derive_seed(seed: int, *key: int) -> int:
    """A child integer seed on the stream keyed by (seed, *key)."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


@dataclass(frozen=True)
class GaussianMixtureSpec:
    """Isotropic Gaussian blob per class."""

    c: int
    d: int
    means: np.ndarray
    covariance_scale: float
    per_class_count: int

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=np.float64))
        if self.c < 2:
            raise ValueError("need at least 2 classes")
        if self.d < 1:
            raise ValueError("need at least 1 feature dimension")
        if self.means.shape != (self.c, self.d):
            raise ValueError(f"means must have shape ({self.c}, {self.d}), got {self.means.shape}")
        if self.covariance_scale < 0:
            raise ValueError("covariance scale must be >= 0")
        if self.per_class_count < 1:
            raise ValueError("per_class_count must be >= 1")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    rate: float

    def __post_init__(self):
        if self.kind not in (UNIFORM, FLIP):
            raise ValueError(f"noise kind must be {UNIFORM!r} or {FLIP!r}, got {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("noise rate must be in [0, 1]")


def _read_only(arr, dtype) -> np.ndarray:
    view = np.asarray(arr, dtype=dtype).view()
    view.flags.writeable = False
    return view


@dataclass
class BiasedDataset:
    """Features plus observed and true labels; a sample is corrupted where
    they differ. The one place features are checked finite. The fields are
    read-only views, so derived datasets share arrays without aliasing writes."""

    features: np.ndarray
    observed_labels: np.ndarray
    true_labels: np.ndarray
    c: int

    def __post_init__(self):
        self.features = _read_only(self.features, np.float64)
        self.observed_labels = _read_only(self.observed_labels, np.int64)
        self.true_labels = _read_only(self.true_labels, np.int64)
        n = self.features.shape[0]
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if not np.isfinite(self.features).all():
            raise ValueError("non-finite feature values")
        for name, arr in (("observed_labels", self.observed_labels), ("true_labels", self.true_labels)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if self.c < 2:
            raise ValueError("need at least 2 classes")
        for labels in (self.observed_labels, self.true_labels):
            if labels.size and (labels.min() < 0 or labels.max() >= self.c):
                raise ValueError("label out of range")

    @property
    def corrupted(self) -> np.ndarray:
        """Per-sample flags, observed label != true label (a new array)."""
        return self.observed_labels != self.true_labels

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def class_counts(self) -> np.ndarray:
        return np.bincount(self.observed_labels, minlength=self.c)

    def subset(self, indices: np.ndarray) -> "BiasedDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return BiasedDataset(
            self.features[indices], self.observed_labels[indices], self.true_labels[indices], self.c
        )


def gen_gaussians(spec: GaussianMixtureSpec, seed: int) -> BiasedDataset:
    """per_class_count clean samples around each class mean, drawn in place
    with the bits of `means[k] + scale * rng.normal(...)`."""
    rng = rng_stream(seed, 0)
    n = spec.c * spec.per_class_count
    features = np.empty((n, spec.d))
    labels = np.empty(n, dtype=np.int64)
    for k in range(spec.c):
        lo = k * spec.per_class_count
        hi = lo + spec.per_class_count
        block = features[lo:hi]
        rng.standard_normal(out=block)
        block *= spec.covariance_scale
        np.add(spec.means[k], block, out=block)
        labels[lo:hi] = k
    return BiasedDataset(features, labels, labels, spec.c)


def longtail_counts(c: int, base_count: int, factor: float) -> np.ndarray:
    """Per-class keep counts round(base_count * mu^i), never rising with i,
    so every class keeps a sample."""
    mu = _longtail_ratio(c, base_count, factor)
    return np.array([round(base_count * mu**i) for i in range(c)], dtype=np.int64)


# Above this many classes an emptied class is reported without the counts.
_LISTED_CLASSES = 100


def _longtail_ratio(c: int, base_count: int, factor: float) -> float:
    """mu, once the factor is at least 1 and the smallest count at least 1."""
    if not factor >= 1:
        raise ValueError("imbalance factor must be >= 1")
    mu = factor ** (-1.0 / (c - 1))
    if round(base_count * mu ** (c - 1)) < 1:
        where = f"class {c - 1} of {c} keeps none"
        if c <= _LISTED_CLASSES:
            where = f"counts {[round(base_count * mu**i) for i in range(c)]}"
        raise ValueError(f"imbalance factor {factor} empties a class ({where})")
    return mu


def apply_longtail(dataset: BiasedDataset, factor: float, seed: int) -> BiasedDataset:
    """Subsample a balanced dataset's classes exponentially: class 0 keeps
    all of its samples, class c-1 about 1/factor of them."""
    counts = dataset.class_counts
    if np.any(counts != counts[0]):
        raise ValueError(f"imbalance injection needs a balanced dataset, got class counts {counts.tolist()}")
    keep_counts = longtail_counts(dataset.c, int(counts[0]), factor)
    rng = rng_stream(seed, 1)
    kept = []
    for k in range(dataset.c):
        members = np.flatnonzero(dataset.observed_labels == k)
        chosen = rng.choice(members, size=keep_counts[k], replace=False)
        kept.append(np.sort(chosen))
    return dataset.subset(np.concatenate(kept))


def apply_uniform_noise(dataset: BiasedDataset, p: float, seed: int) -> BiasedDataset:
    """With probability p, resample a label uniformly, possibly to the true class."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("noise rate must be in [0, 1]")
    rng = rng_stream(seed, 2)
    hit = rng.random(dataset.n) < p
    draws = rng.integers(0, dataset.c, size=dataset.n)
    observed = np.where(hit, draws, dataset.observed_labels)
    return BiasedDataset(dataset.features, observed, dataset.true_labels, dataset.c)


def apply_flip_noise(dataset: BiasedDataset, p: float, seed: int) -> BiasedDataset:
    """With probability p, flip a label to one of its class's two fixed
    other classes, drawn once per dataset."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("noise rate must be in [0, 1]")
    if dataset.c < 3:
        raise ValueError("flip noise needs at least 3 classes for two distinct targets")
    rng = rng_stream(seed, 3)
    targets = np.empty((dataset.c, 2), dtype=np.int64)
    for k in range(dataset.c):
        others = np.array([j for j in range(dataset.c) if j != k])
        targets[k] = rng.choice(others, size=2, replace=False)
    hit = rng.random(dataset.n) < p
    side = rng.integers(0, 2, size=dataset.n)
    flipped = targets[dataset.observed_labels, side]
    observed = np.where(hit, flipped, dataset.observed_labels)
    return BiasedDataset(dataset.features, observed, dataset.true_labels, dataset.c)


def split_meta(dataset: BiasedDataset, per_class: int, seed: int) -> tuple[BiasedDataset, BiasedDataset]:
    """(meta_set, remainder): per_class clean samples of every class, and
    the rest; per_class 0 gives an empty meta set, which training refuses."""
    if per_class < 0:
        raise ValueError("per_class must be >= 0")
    rng = rng_stream(seed, 4)
    is_clean = dataset.observed_labels == dataset.true_labels
    picked = []
    for k in range(dataset.c):
        clean = np.flatnonzero((dataset.observed_labels == k) & is_clean)
        if clean.size < per_class:
            raise ValueError(
                f"class {k} has only {clean.size} clean samples, need {per_class}"
            )
        if per_class:
            picked.append(np.sort(rng.choice(clean, size=per_class, replace=False)))
    meta_idx = np.concatenate(picked) if picked else np.array([], dtype=np.int64)
    mask = np.zeros(dataset.n, dtype=bool)
    mask[meta_idx] = True
    return dataset.subset(meta_idx), dataset.subset(np.flatnonzero(~mask))


def sample_batch(dataset: BiasedDataset, size: int, rng: np.random.Generator) -> np.ndarray:
    """`size` distinct indices drawn uniformly; `rng` advances in place."""
    if size < 1 or size > dataset.n:
        raise ValueError(f"batch size must be in [1, {dataset.n}], got {size}")
    return rng.choice(dataset.n, size=size, replace=False)


def save_dataset(dataset: BiasedDataset, path) -> None:
    """CSV with one header record (N, d, c) then per-sample records
    (features..., observed, true, corrupted)."""
    records = zip(dataset.features, dataset.observed_labels, dataset.true_labels, dataset.corrupted)
    _write_csv(path, [dataset.n, dataset.d, dataset.c],
               ([repr(float(v)) for v in x] + [int(obs), int(tru), int(flag)] for x, obs, tru, flag in records))


def _integer(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where} has a non-integer field {text!r}") from None


def load_dataset(path) -> BiasedDataset:
    """Read a `save_dataset` file: a header of integers N >= 0, d >= 1 and
    c >= 2, then records of finite features, labels in [0, c) and a flag
    set exactly where observed != true. A fault names the file and the
    header or the record (counted from 0)."""
    with _stage(f"{path}: "):
        return _read_dataset(_csv_rows(path))


def _read_dataset(reader) -> BiasedDataset:
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty dataset file") from None
    if len(header) != 3:
        raise ValueError(f"header must be 'N,d,c', got {header}")
    n, d, c = (_integer(v, "header") for v in header)
    if n < 0 or d < 1 or c < 2:
        raise ValueError(f"header needs N >= 0, d >= 1 and c >= 2, got N={n}, d={d}, c={c}")
    features, observed, true = [], [], []
    for k, row in enumerate(reader):
        where = f"record {k}"
        if k >= n:
            raise ValueError(f"more than {n} sample records")
        if len(row) != d + 3:
            raise ValueError(f"{where} has {len(row)} fields, expected {d + 3}")
        try:
            values = [float(v) for v in row[:d]]
        except ValueError:
            raise ValueError(f"{where} has a non-numeric feature") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{where} has a non-finite feature")
        obs, tru, flag = (_integer(v, where) for v in row[d:])
        for label in (obs, tru):
            if not 0 <= label < c:
                raise ValueError(f"{where} has label {label} outside [0, {c})")
        if bool(flag) != (obs != tru):
            raise ValueError(
                f"{where} has corrupted flag {row[d + 2]} with observed label {obs} and true label {tru}"
            )
        features.append(values)
        observed.append(obs)
        true.append(tru)
    if len(features) != n:
        raise ValueError(f"expected {n} sample records, found {len(features)}")
    return BiasedDataset(np.array(features, dtype=np.float64).reshape(n, d), observed, true, c)


def circle_means(c: int, radius: float = 2.0) -> np.ndarray:
    """Evenly spaced 2-d class means on a circle; a convenient default."""
    angles = 2.0 * np.pi * np.arange(c) / c
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
