"""Experiment configuration: one strict JSON document.

Unknown keys anywhere are errors, so a typo fails loudly instead of
training with defaults. Each block is read one way: `_require_keys` (or
`_optional`, for a block that may be absent or null) checks its keys,
`_numbers` its numbers against a bounds table, `_typed` the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from metaweight import _read_json, _stage
from metaweight.biasgen import FLIP, NoiseSpec, _longtail_ratio, longtail_counts
from metaweight.metaopt import BaselineSpec, TrainConfig
from metaweight.nnet import mlp


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


def _optional(doc: dict, key: str, context: str, allowed: set[str], required: set[str] = frozenset()) -> dict:
    """doc[key] checked by `_require_keys`, or {} when it is absent or null."""
    block = doc.get(key)
    if block is None:
        return {}
    _require_keys(block, allowed, required, context)
    return block


def _number(value, name: str, lo, integer: bool, hi):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer past float64: whole keys take it, real ones cannot
        finite = integer
    if not finite:
        raise ConfigError(f"{name} must be finite")
    if integer:
        if int(value) != value:
            raise ConfigError(f"{name} must be an integer")
        value = int(value)
    if lo is not None and value < lo:
        raise ConfigError(f"{name} must be >= {lo}")
    if hi is not None and not value < hi:
        raise ConfigError(f"{name} must be below {hi}")
    return value


def _numbers(block: dict, context: str, table: dict) -> dict:
    """The block's values of the table's keys, each checked against its
    bounds; absent keys are left to the defaults of the dataclass fed."""
    return {key: _number(block[key], f"{context}.{key}", *bounds) for key, bounds in table.items() if key in block}


def _typed(block: dict, key: str, context: str, default):
    """block[key], or the default when absent: a string or a boolean, as the default is."""
    value = block.get(key, default)
    if not isinstance(value, type(default)):
        raise ConfigError(f"{context}.{key} must be {'a boolean' if isinstance(default, bool) else 'a string'}")
    return value


def _int_tuple(value, context: str, lo: int) -> tuple[int, ...]:
    if not isinstance(value, list) or not value or not all(type(v) is int and v >= lo for v in value):
        raise ConfigError(f"{context} must be a non-empty list of {'positive' if lo else 'non-negative'} integers")
    return tuple(value)


# Bounds tables: key -> (lower bound, integer?, exclusive upper bound). A
# bound of None leaves the check to the dataclass the value feeds, whose
# message names its own field.
_REAL, _WHOLE = (None, False, None), (None, True, None)
# The keys each dataset kind takes besides "kind" (and a file's "path");
# the other kind's keys are unknown keys.
_GAUSSIAN_KEYS = {
    "classes": (2, True, None), "dim": (1, True, None), "per_class": (1, True, None),
    "radius": (0, False, None), "spread": (0, False, None), "test_per_class": (1, True, None),
}
_FILE_KEYS = {"test_fraction": (0.0, False, None)}
_OPTIM_KEYS = {
    "alpha": _REAL, "beta": _REAL, "n": _WHOLE, "m": _WHOLE, "T": _WHOLE,
    "momentum": (0, False, 1), "weight_decay": (0, False, None),
}
# TrainConfig's names for the optim keys it calls otherwise
_OPTIM_FIELDS = {"momentum": "classifier_momentum", "weight_decay": "classifier_weight_decay"}
_SCHEDULE_PAIR = {"iteration": _WHOLE, "multiplier": _REAL}
_BASELINE_KEYS = {"gamma": _REAL, "lam": _REAL}
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
    blocks = {"dataset", "bias", "meta", "model", "optim", "output", "seeds", "baselines"}
    _require_keys(doc, blocks, {"dataset", "meta", "optim", "seeds"}, "config")
    dataset = _dataset(doc["dataset"])

    bias = _optional(doc, "bias", "bias", {"imbalance", "noise"})
    imbalance = _optional(bias, "imbalance", "bias.imbalance", {"factor"}, {"factor"})
    imbalance_factor = _numbers(imbalance, "bias.imbalance", {"factor": (1, False, None)}).get("factor")
    noise = None
    noise_block = _optional(bias, "noise", "bias.noise", {"kind", "rate"}, {"kind", "rate"})
    if noise_block:
        rate = _numbers(noise_block, "bias.noise", {"rate": _REAL})["rate"]
        with _stage("bias.noise: ", ConfigError):
            noise = NoiseSpec(kind=noise_block["kind"], rate=rate)
    if noise is not None and noise.kind == FLIP and dataset.kind == "gaussians" and dataset.classes < 3:
        raise ConfigError("flip noise needs at least 3 classes")

    meta = doc["meta"]
    _require_keys(meta, {"per_class"}, {"per_class"}, "meta")
    meta_per_class = _numbers(meta, "meta", {"per_class": (1, True, None)})["per_class"]

    model = _optional(doc, "model", "model", {"classifier_hidden", "mwnet_hidden"})
    hidden = {key: _int_tuple(value, f"model.{key}", 1) for key, value in model.items()}
    _check_net("mwnet_hidden", hidden.get("mwnet_hidden", ExperimentConfig.mwnet_hidden), 1, 1)

    optim = _optim(doc["optim"])
    if dataset.kind == "gaussians":
        _check_sizes(dataset, meta_per_class, imbalance_factor, optim)
        widths = hidden.get("classifier_hidden", ExperimentConfig.classifier_hidden)
        _check_net("classifier_hidden", widths, dataset.dim, dataset.classes)

    output = _optional(doc, "output", "output", {"dir", "plots"})
    out_dir = _typed(output, "dir", "output", ExperimentConfig.out_dir)
    plots = _typed(output, "plots", "output", ExperimentConfig.plots)
    seeds = _int_tuple(doc["seeds"], "seeds", 0)
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")

    entries = [] if doc.get("baselines") is None else doc["baselines"]
    if not isinstance(entries, list):
        raise ConfigError("baselines must be a list of baseline objects")
    baselines = []
    for k, entry in enumerate(entries):
        context = f"baselines[{k}]"
        _require_keys(entry, {"kind", *_BASELINE_KEYS}, {"kind"}, context)
        numbers = _numbers(entry, context, _BASELINE_KEYS)
        with _stage(f"{context}: ", ConfigError):
            baselines.append(BaselineSpec(kind=entry["kind"], **numbers))

    return ExperimentConfig(
        dataset=dataset,
        meta_per_class=meta_per_class,
        optim=optim,
        seeds=seeds,
        imbalance_factor=imbalance_factor,
        noise=noise,
        **hidden,
        out_dir=out_dir,
        plots=plots,
        baselines=tuple(baselines),
        raw=doc,
    )


def _dataset(block) -> DatasetBlock:
    _require_keys(block, {"kind", "path", *_GAUSSIAN_KEYS, *_FILE_KEYS}, {"kind"}, "dataset")
    kind = block["kind"]
    if kind == "gaussians":
        _require_keys(block, {"kind", *_GAUSSIAN_KEYS}, set(), "dataset")
        dataset = DatasetBlock(kind, **_numbers(block, "dataset", _GAUSSIAN_KEYS))
        if dataset.dim != 2:
            raise ConfigError("dataset.dim must be 2 for gaussians on a circle of class means")
        for key in ("per_class", "test_per_class"):
            size = getattr(dataset, key)
            if dataset.classes * size * dataset.dim * _FLOAT64_BYTES > _MAX_ARRAY_BYTES:
                raise ConfigError(
                    f"dataset.classes={dataset.classes} times dataset.{key}={size} rows of "
                    f"{dataset.dim} float64 features exceed NumPy's largest array ({_MAX_ARRAY_BYTES} bytes)"
                )
        return dataset
    if kind == "file":
        _require_keys(block, {"kind", "path", *_FILE_KEYS}, set(), "dataset")
        path = block.get("path")
        if not path or not isinstance(path, str):
            raise ConfigError("dataset.path must be a non-empty string when dataset.kind is 'file'")
        dataset = DatasetBlock(kind, path=path, **_numbers(block, "dataset", _FILE_KEYS))
        if not 0.0 < dataset.test_fraction < 1.0:
            raise ConfigError("dataset.test_fraction must be in (0, 1)")
        return dataset
    raise ConfigError(f"dataset.kind must be 'gaussians' or 'file', got {kind!r}")


def _optim(block) -> TrainConfig:
    _require_keys(block, {*_OPTIM_KEYS, "normalize", "lr_schedule"}, {"alpha", "beta", "n", "m", "T"}, "optim")
    schedule = block.get("lr_schedule", [])
    if not isinstance(schedule, list) or not all(isinstance(e, list) and len(e) == 2 for e in schedule):
        raise ConfigError("optim.lr_schedule must be a list of [iteration, multiplier] pairs")
    numbers = _numbers(block, "optim", _OPTIM_KEYS)
    for k, pair in enumerate(schedule):
        context = f"optim.lr_schedule[{k}]"
        it = _numbers(dict(zip(_SCHEDULE_PAIR, pair)), context, _SCHEDULE_PAIR)["iteration"]
        if it >= numbers["T"] >= 1:  # a T below 1 is TrainConfig's to name
            raise ConfigError(f"{context} at iteration {it} is not below optim.T={numbers['T']}, so it never applies")
    normalize = _typed(block, "normalize", "optim", TrainConfig.normalize)
    fields = {_OPTIM_FIELDS.get(key, key): value for key, value in numbers.items()}
    with _stage("optim: ", ConfigError):
        return TrainConfig(**fields, normalize=normalize, lr_schedule=schedule)


def _check_sizes(dataset: DatasetBlock, meta_per_class: int, factor: float | None, optim: TrainConfig) -> None:
    """Reject batch sizes that no run of a gaussians dataset could draw. A
    long tail keeps a sample of every class, so only an optim.n above
    dataset.classes needs the exact size, in time linear in the classes."""
    if meta_per_class > dataset.per_class:
        raise ConfigError(
            f"meta.per_class={meta_per_class} is above dataset.per_class={dataset.per_class}, "
            f"so a class cannot fill the meta set"
        )
    base = dataset.per_class - meta_per_class
    train_n = dataset.classes * base
    if factor is not None and base > 0:
        with _stage("bias.imbalance.factor: ", ConfigError):
            _longtail_ratio(dataset.classes, base, factor)
            if optim.n > dataset.classes:
                train_n = int(longtail_counts(dataset.classes, base, factor).sum())
    _check_batches(optim, train_n, dataset.classes * meta_per_class, ConfigError)


def _check_net(key: str, hidden: tuple[int, ...], d: int, c: int) -> None:
    """Reject hidden widths that give a d-input, c-output net more float64
    parameters than NumPy's largest array holds, naming model.<key>."""
    if sum(spec.param_count for spec in mlp((d, *hidden, c), "identity")) * _FLOAT64_BYTES > _MAX_ARRAY_BYTES:
        raise ConfigError(
            f"model.{key}={list(hidden)} gives a {d}-input, {c}-output net whose float64 parameters "
            f"exceed NumPy's largest array ({_MAX_ARRAY_BYTES} bytes)"
        )


def _check_batches(optim: TrainConfig, train_n: int, meta_n: int, error: type[ValueError]) -> None:
    """Reject a batch size above the set it is drawn from, as `error`."""
    if optim.n > train_n:
        raise error(f"optim.n={optim.n} is above the training-set size {train_n}")
    if optim.m > meta_n:
        raise error(f"optim.m={optim.m} is above the meta-set size {meta_n} (classes times meta.per_class)")


def load_config(path) -> ExperimentConfig:
    try:
        with _stage(f"config {path} is not valid JSON: ", ConfigError):
            doc = _read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(doc)
