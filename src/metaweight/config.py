"""Experiment configuration: one strict JSON document.

Unknown keys anywhere in the document are errors, so a typoed
hyperparameter fails loudly instead of silently training with defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from metaweight.biasgen import FLIP, NoiseSpec, longtail_counts
from metaweight.metaopt import BaselineSpec, TrainConfig


class ConfigError(ValueError):
    """Raised for malformed or contradictory experiment configs."""


def _require_keys(block: dict, allowed: set[str], required: set[str], context: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing required key(s) {sorted(missing)} in {context}")


def _number(block: dict, key: str, context: str, default=None, lo=None, integer=False):
    if key not in block:
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}.{key} must be a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{context}.{key} must be finite")
    if integer:
        if int(value) != value:
            raise ConfigError(f"{context}.{key} must be an integer")
        value = int(value)
    if lo is not None and value < lo:
        raise ConfigError(f"{context}.{key} must be >= {lo}")
    return value


# The keys each dataset kind takes besides "kind"; the other kind's keys
# are unknown keys. A gaussians key maps to (lower bound, integer?).
_GAUSSIAN_KEYS = {
    "classes": (2, True), "dim": (1, True), "per_class": (1, True),
    "radius": (0, False), "spread": (0, False), "test_per_class": (1, True),
}
_FILE_KEYS = ("path", "test_fraction")
# NumPy sizes an array's bytes in a signed pointer-sized integer, so no
# dataset can hold more float64 features than this allows.
_FLOAT64_BYTES = np.dtype(np.float64).itemsize
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max


@dataclass(frozen=True)
class DatasetBlock:
    kind: str
    classes: int = 3
    dim: int = 2
    per_class: int = 200
    radius: float = 2.0
    spread: float = 1.0
    test_per_class: int = 200
    path: str = ""
    test_fraction: float = 0.2


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetBlock
    meta_per_class: int
    optim: TrainConfig
    seeds: tuple[int, ...]
    imbalance_factor: float | None = None
    noise: NoiseSpec | None = None
    classifier_hidden: tuple[int, ...] = (32,)
    mwnet_hidden: tuple[int, ...] = (100,)
    out_dir: str = ""
    plots: bool = False
    baselines: tuple[BaselineSpec, ...] = ()
    raw: dict = field(default_factory=dict)


def parse_config(doc: dict) -> ExperimentConfig:
    _require_keys(
        doc,
        {"dataset", "bias", "meta", "model", "optim", "output", "seeds", "baselines"},
        {"dataset", "meta", "optim", "seeds"},
        "config",
    )

    ds_block = doc["dataset"]
    _require_keys(ds_block, {"kind", *_GAUSSIAN_KEYS, *_FILE_KEYS}, {"kind"}, "dataset")
    kind = ds_block["kind"]
    if kind == "gaussians":
        _require_keys(ds_block, {"kind", *_GAUSSIAN_KEYS}, set(), "dataset")
        dataset = DatasetBlock(kind, **{
            key: _number(ds_block, key, "dataset", lo=lo, integer=integer)
            for key, (lo, integer) in _GAUSSIAN_KEYS.items() if key in ds_block
        })
        if dataset.dim != 2:
            raise ConfigError("dataset.dim must be 2 for gaussians on a circle of class means")
        for key, size in (("per_class", dataset.per_class), ("test_per_class", dataset.test_per_class)):
            if dataset.classes * size * dataset.dim * _FLOAT64_BYTES > _MAX_ARRAY_BYTES:
                raise ConfigError(
                    f"dataset.classes={dataset.classes} times dataset.{key}={size} rows of "
                    f"{dataset.dim} float64 features exceed NumPy's largest array ({_MAX_ARRAY_BYTES} bytes)"
                )
    elif kind == "file":
        _require_keys(ds_block, {"kind", *_FILE_KEYS}, set(), "dataset")
        path = ds_block.get("path")
        if not path or not isinstance(path, str):
            raise ConfigError("dataset.path must be a non-empty string when dataset.kind is 'file'")
        dataset = DatasetBlock(
            kind=kind,
            path=path,
            test_fraction=_number(ds_block, "test_fraction", "dataset", DatasetBlock.test_fraction, lo=0.0),
        )
        if not 0.0 < dataset.test_fraction < 1.0:
            raise ConfigError("dataset.test_fraction must be in (0, 1)")
    else:
        raise ConfigError(f"dataset.kind must be 'gaussians' or 'file', got {kind!r}")

    imbalance_factor = None
    noise = None
    if doc.get("bias") is not None:
        bias = doc["bias"]
        _require_keys(bias, {"imbalance", "noise"}, set(), "bias")
        if bias.get("imbalance") is not None:
            imb = bias["imbalance"]
            _require_keys(imb, {"factor"}, {"factor"}, "bias.imbalance")
            imbalance_factor = _number(imb, "factor", "bias.imbalance", lo=1)
        if bias.get("noise") is not None:
            nz = bias["noise"]
            _require_keys(nz, {"kind", "rate"}, {"kind", "rate"}, "bias.noise")
            rate = _number(nz, "rate", "bias.noise")
            try:
                noise = NoiseSpec(kind=nz["kind"], rate=rate)
            except ValueError as exc:
                raise ConfigError(f"bias.noise: {exc}") from exc

    if noise is not None and noise.kind == FLIP and kind == "gaussians" and dataset.classes < 3:
        raise ConfigError("flip noise needs at least 3 classes")

    meta = doc["meta"]
    _require_keys(meta, {"per_class"}, {"per_class"}, "meta")
    meta_per_class = _number(meta, "per_class", "meta", lo=1, integer=True)

    hidden = {}
    if doc.get("model") is not None:
        model = doc["model"]
        _require_keys(model, {"classifier_hidden", "mwnet_hidden"}, set(), "model")
        hidden = {key: _int_tuple(value, f"model.{key}") for key, value in model.items()}

    optim_block = doc["optim"]
    _require_keys(
        optim_block,
        {"alpha", "beta", "n", "m", "T", "normalize", "momentum", "weight_decay", "lr_schedule"},
        {"alpha", "beta", "n", "m", "T"},
        "optim",
    )
    schedule = optim_block.get("lr_schedule", [])
    if not isinstance(schedule, list) or not all(
        isinstance(e, list) and len(e) == 2 for e in schedule
    ):
        raise ConfigError("optim.lr_schedule must be a list of [iteration, multiplier] pairs")
    T = _number(optim_block, "T", "optim", integer=True)
    for k, (it, mult) in enumerate(schedule):
        pair = {"iteration": it, "multiplier": mult}
        it = _number(pair, "iteration", f"optim.lr_schedule[{k}]", integer=True)
        _number(pair, "multiplier", f"optim.lr_schedule[{k}]")
        if it >= T:
            raise ConfigError(f"optim.lr_schedule[{k}] at iteration {it} is not below optim.T={T}, so it never applies")
    # TrainConfig's checks name its classifier_* fields, not these keys
    momentum = _number(optim_block, "momentum", "optim", TrainConfig.classifier_momentum, lo=0)
    if not momentum < 1:
        raise ConfigError("optim.momentum must be below 1")
    weight_decay = _number(optim_block, "weight_decay", "optim", TrainConfig.classifier_weight_decay, lo=0)
    normalize = optim_block.get("normalize", TrainConfig.normalize)
    if not isinstance(normalize, bool):
        raise ConfigError("optim.normalize must be a boolean")
    try:
        optim = TrainConfig(
            alpha=_number(optim_block, "alpha", "optim"),
            beta=_number(optim_block, "beta", "optim"),
            n=_number(optim_block, "n", "optim", integer=True),
            m=_number(optim_block, "m", "optim", integer=True),
            T=T,
            normalize=normalize,
            classifier_momentum=momentum,
            classifier_weight_decay=weight_decay,
            lr_schedule=schedule,
        )
    except ValueError as exc:
        raise ConfigError(f"optim: {exc}") from exc

    if kind == "gaussians":
        _check_sizes(dataset, meta_per_class, imbalance_factor, optim)

    out_dir, plots = ExperimentConfig.out_dir, ExperimentConfig.plots
    if doc.get("output") is not None:
        output = doc["output"]
        _require_keys(output, {"dir", "plots"}, set(), "output")
        out_dir = output.get("dir", out_dir)
        if not isinstance(out_dir, str):
            raise ConfigError("output.dir must be a string")
        plots = output.get("plots", plots)
        if not isinstance(plots, bool):
            raise ConfigError("output.plots must be a boolean")

    seeds = doc["seeds"]
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds
    ):
        raise ConfigError("seeds must be a non-empty list of non-negative integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")

    entries = doc.get("baselines")
    if entries is None:
        entries = []
    if not isinstance(entries, list):
        raise ConfigError("baselines must be a list of baseline objects")
    baselines = []
    for k, entry in enumerate(entries):
        context = f"baselines[{k}]"
        _require_keys(entry, {"kind", "gamma", "lam"}, {"kind"}, context)
        gamma = _number(entry, "gamma", context, BaselineSpec.gamma)
        lam = _number(entry, "lam", context, BaselineSpec.lam)
        try:
            baselines.append(BaselineSpec(kind=entry["kind"], gamma=gamma, lam=lam))
        except ValueError as exc:
            raise ConfigError(f"{context}: {exc}") from exc

    return ExperimentConfig(
        dataset=dataset,
        meta_per_class=meta_per_class,
        optim=optim,
        seeds=tuple(seeds),
        imbalance_factor=imbalance_factor,
        noise=noise,
        **hidden,
        out_dir=out_dir,
        plots=plots,
        baselines=tuple(baselines),
        raw=doc,
    )


def _check_sizes(dataset: DatasetBlock, meta_per_class: int, factor: float | None, optim: TrainConfig) -> None:
    """Reject batch sizes that no run could draw. A gaussians dataset's
    sizes are known here: the meta set takes meta.per_class clean samples
    of each class from the pool, and the training set is the rest, after
    long-tail subsampling. (File datasets are checked when `train` runs.)"""
    if meta_per_class > dataset.per_class:
        raise ConfigError(
            f"meta.per_class={meta_per_class} is above dataset.per_class={dataset.per_class}, "
            f"so a class cannot fill the meta set"
        )
    base = dataset.per_class - meta_per_class
    if factor is None or base == 0:
        train_n = dataset.classes * base
    else:
        try:
            train_n = int(longtail_counts(dataset.classes, base, factor).sum())
        except ValueError as exc:
            raise ConfigError(f"bias.imbalance.factor: {exc}") from exc
    if optim.n > train_n:
        raise ConfigError(f"optim.n={optim.n} is above the training-set size {train_n}")
    meta_n = dataset.classes * meta_per_class
    if optim.m > meta_n:
        raise ConfigError(f"optim.m={optim.m} is above the meta-set size {meta_n} (classes times meta.per_class)")


def _int_tuple(value, context: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not value or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in value
    ):
        raise ConfigError(f"{context} must be a non-empty list of positive integers")
    return tuple(value)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(doc)
