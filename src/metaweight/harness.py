"""Experiment orchestration: metrics, baselines, reports, multi-seed runs.

A RunReport serializes to a flat directory of CSVs plus config.json (the
resolved config echo with the run's warnings under "run_warnings"),
optionally mwnet.json and the plots weight_curve.svg and accuracy.svg.
The CSV layout is written down once, in _COLUMN_FILES and _MATRIX_FILES:
each file's header and the RunReport field and cell format behind each
column. save_report and load_report both walk those tables. stability.csv
holds computed fields, so it is written but never read back (row `epoch`
is the change from epoch-1 to epoch). All floats are written with repr(),
so a load/save round trip is byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from metaweight import metrics
from metaweight.biasgen import (
    UNIFORM,
    BiasedDataset,
    GaussianMixtureSpec,
    apply_flip_noise,
    apply_longtail,
    apply_uniform_noise,
    circle_means,
    derive_seed,
    gen_gaussians,
    load_dataset,
    rng_stream,
    split_meta,
)
from metaweight.config import ConfigError, DatasetBlock, ExperimentConfig, _check_batches
from metaweight.metaopt import BaselineSpec, RunReport, TrainConfig, _stage, train
from metaweight.nnet import LayerSpec, forward  # noqa: F401 (unused; bench/test_bench.py traces it here)
from metaweight.svgplot import save_plot
from metaweight.weightnet import MWNet, save_mwnet


def run_baseline(
    train_set: BiasedDataset,
    meta_set: BiasedDataset,
    test_set: BiasedDataset,
    config: TrainConfig,
    baseline: BaselineSpec,
    config_echo: dict | None = None,
    **train_kwargs,
) -> RunReport:
    """The training loop with the weighting net replaced by a fixed rule;
    beta is ignored and recorded meta-gradient norms are zero. Other
    keyword arguments go to `train` as they are."""
    echo = dict(config_echo or {})
    echo["baseline"] = {"kind": baseline.kind, "gamma": baseline.gamma, "lam": baseline.lam}
    try:
        _, report = train(
            train_set, meta_set, test_set, config, weight_fn=baseline.weight_fn(), config_echo=echo, **train_kwargs
        )
    except ValueError as exc:
        raise ValueError(f"{baseline.kind} baseline, {exc}") from exc
    return report


@dataclass
class ExperimentResult:
    """One report per seed, per-seed learned weighting nets, baseline
    reports keyed by kind, and the mean/std summary."""

    seeds: tuple[int, ...]
    reports: list[RunReport]
    mwnets: list[MWNet]
    baseline_reports: dict[str, list[RunReport]]
    summary: dict


def _gaussians(ds: DatasetBlock, key: str, seed: int) -> BiasedDataset:
    """A config's mixture drawn for one seed, `key`'s count per class. The
    spec's checks passed at parse time; what can still fail is memory for
    the sizes, or features that overflow float64 from radius and spread."""
    size = getattr(ds, key)
    try:
        means = circle_means(ds.classes, ds.radius)
        return gen_gaussians(GaussianMixtureSpec(ds.classes, ds.dim, means, ds.spread, size), seed)
    except MemoryError as exc:
        sizes = f"dataset.classes={ds.classes} times dataset.{key}={size} samples"
        raise ValueError(f"{sizes} do not fit in memory: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"dataset.radius={ds.radius} and dataset.spread={ds.spread} give {exc}") from exc


def _pool(cfg: ExperimentConfig, seed: int) -> BiasedDataset:
    """The unbiased data: generated from the config's mixture, or loaded."""
    ds = cfg.dataset
    if ds.kind == "gaussians":
        return _gaussians(ds, "per_class", derive_seed(seed, 11))
    try:
        return load_dataset(ds.path)
    except OSError as exc:
        raise ValueError(f"dataset.path={ds.path} cannot be read: {exc.strerror}") from exc


def _inject_bias(cfg: ExperimentConfig, dataset: BiasedDataset, seed: int) -> BiasedDataset:
    """Apply the config's imbalance, then its label noise."""
    if cfg.imbalance_factor is not None:
        dataset = apply_longtail(dataset, cfg.imbalance_factor, derive_seed(seed, 12))
    if cfg.noise is not None:
        inject = apply_uniform_noise if cfg.noise.kind == UNIFORM else apply_flip_noise
        dataset = inject(dataset, cfg.noise.rate, derive_seed(seed, 13))
    return dataset


def _build_datasets(cfg: ExperimentConfig, seed: int) -> tuple[BiasedDataset, BiasedDataset, BiasedDataset]:
    """Generate or load data, carve the meta set from the clean pool,
    then inject imbalance and/or noise into the remaining training data.
    A loaded file's set sizes are known only here, so the sizes that the
    config asks of them are checked here, naming the config key (a
    gaussians config's were checked when it was parsed)."""
    ds = cfg.dataset
    pool = _pool(cfg, seed)
    if ds.kind == "gaussians":
        test_set = _gaussians(ds, "test_per_class", derive_seed(seed, 15))
    else:
        n_test = max(1, int(round(pool.n * ds.test_fraction)))
        if n_test >= pool.n:
            raise ValueError(f"dataset.test_fraction={ds.test_fraction} leaves no training data")
        order = rng_stream(seed, 15).permutation(pool.n)
        test_set = pool.subset(np.sort(order[:n_test]))
        pool = pool.subset(np.sort(order[n_test:]))

    try:
        meta_set, train_set = split_meta(pool, cfg.meta_per_class, derive_seed(seed, 14))
    except ValueError as exc:
        raise ValueError(f"meta.per_class={cfg.meta_per_class}: {exc}") from exc
    train_set = _inject_bias(cfg, train_set, seed)
    _check_batches(cfg.optim, train_set.n, meta_set.n, ValueError)
    return train_set, meta_set, test_set


def generate_biased(cfg: ExperimentConfig, seed: int) -> BiasedDataset:
    """The config's data pipeline without the meta/test split: generate
    or load, then inject imbalance and/or noise. Backs the data-file
    export command."""
    return _inject_bias(cfg, _pool(cfg, seed), seed)


def _classifier_specs(cfg: ExperimentConfig, d: int, c: int) -> tuple[LayerSpec, ...]:
    dims = (d,) + cfg.classifier_hidden
    specs = [LayerSpec(dims[i], dims[i + 1], "relu") for i in range(len(cfg.classifier_hidden))]
    specs.append(LayerSpec(dims[-1], c, "identity"))
    return tuple(specs)


def _mean_std(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {"per_seed": values, "mean": float(arr.mean()), "std": float(arr.std())}


def summarize(seeds, reports: list[RunReport], baseline_reports: dict[str, list[RunReport]]) -> dict:
    """Aggregate per-seed reports into the summary dict saved as summary.json,
    each run's warnings included (empty lists for a healthy run)."""
    scores, degenerate, gaps = [], [], []
    for rep in reports:
        rho, flag = metrics.monotonicity_score(rep.curve_losses, rep.curve_weights)
        means = rep.clean_noisy_means()
        scores.append(rho)
        degenerate.append(flag)
        gaps.append(None if means is None else means[0] - means[1])
    summary = {
        "seeds": list(seeds),
        "final_accuracy": _mean_std([rep.final_accuracy for rep in reports]),
        "monotonicity": {"per_seed": scores, "degenerate": degenerate},
        "clean_noisy_weight_gap": {"per_seed": gaps},
        "run_warnings": {"per_seed": [list(rep.warnings) for rep in reports]},
        "baselines": {
            kind: {
                "final_accuracy": _mean_std([rep.final_accuracy for rep in reps]),
                "run_warnings": {"per_seed": [list(rep.warnings) for rep in reps]},
            }
            for kind, reps in baseline_reports.items()
        },
    }
    return summary


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """The full protocol: per seed, build data, train the weighted model,
    run any configured baselines; aggregate mean and std across seeds."""
    reports, mwnets = [], []
    baseline_reports: dict[str, list[RunReport]] = {b.kind: [] for b in cfg.baselines}
    for seed in cfg.seeds:
        train_set, meta_set, test_set = _build_datasets(cfg, seed)
        specs = _classifier_specs(cfg, train_set.d, train_set.c)
        optim = replace(cfg.optim, seed=seed)
        echo = {"experiment": cfg.raw, "run_seed": seed}
        state, report = train(
            train_set,
            meta_set,
            test_set,
            optim,
            classifier_specs=specs,
            mwnet_hidden=cfg.mwnet_hidden,
            config_echo=echo,
        )
        reports.append(report)
        mwnets.append(state.theta)
        for spec in cfg.baselines:
            baseline_reports[spec.kind].append(
                run_baseline(
                    train_set, meta_set, test_set, optim, spec,
                    config_echo=echo,
                    classifier_specs=specs,
                    mwnet_hidden=cfg.mwnet_hidden,
                )
            )
    summary = summarize(cfg.seeds, reports, baseline_reports)
    return ExperimentResult(cfg.seeds, reports, mwnets, baseline_reports, summary)


class _Cell(NamedTuple):
    """How one CSV column's values are written and parsed."""

    write: Callable
    read: Callable
    dtype: type


_FLOAT = _Cell(lambda v: repr(float(v)), float, np.float64)
_INT = _Cell(int, int, np.int64)
_FLAG = _Cell(int, lambda s: bool(int(s)), bool)

# The report layout. Column files: file name, the index column (header and
# first value) or None, then (header, RunReport field, cell) per column.
# Columns of a computed RunReport property are written and never read back.
_COLUMN_FILES = (
    ("metrics.csv", ("epoch", 1), (
        ("train_loss", "train_loss_history", _FLOAT),
        ("meta_loss", "meta_loss_history", _FLOAT),
        ("test_accuracy", "accuracy_history", _FLOAT),
        ("meta_grad_norm", "grad_norm_history", _FLOAT),
    )),
    ("weight_curve.csv", None, (("loss", "curve_losses", _FLOAT), ("weight", "curve_weights", _FLOAT))),
    ("weight_dist.csv", None, (
        ("sample_id", "dist_ids", _INT),
        ("weight", "dist_weights", _FLOAT),
        ("corrupted", "dist_corrupted", _FLAG),
    )),
    ("stability.csv", ("epoch", 2), (
        ("mean_abs_delta", "stability_mean", _FLOAT),
        ("std_abs_delta", "stability_std", _FLOAT),
    )),
)
# Matrix files: file name, index column (header, first value), the prefix
# of each column header, the RunReport field holding the column labels
# (None: 0..columns-1), the matrix field and its cell.
_MATRIX_FILES = (
    ("tracked_weights.csv", ("epoch", 1), "id_", "tracked_ids", "tracked_weight_history", _FLOAT),
    ("confusion.csv", ("true", 0), "pred_", None, "final_confusion", _INT),
)
_STORED = {f.name for f in fields(RunReport)}
MIN_CURVE_POINTS = 10


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh)) or [[]]
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ValueError(f"line {k} has {len(row)} fields, the header {len(rows[0])}")
    return rows[0], rows[1:]


def _header(index, columns) -> list[str]:
    return ([index[0]] if index else []) + [h for h, _, _ in columns]


def save_report(report: RunReport, out_dir, mwnet: MWNet | None = None, plots: bool = False) -> None:
    """Write the report directory (see module docstring for the layout)."""
    os.makedirs(out_dir, exist_ok=True)
    join = lambda name: os.path.join(out_dir, name)
    for name, index, columns in _COLUMN_FILES:
        cells = [map(cell.write, getattr(report, field)) for _, field, cell in columns]
        rows = [list(row) for row in zip(*cells)]
        if index:
            rows = [[index[1] + k] + row for k, row in enumerate(rows)]
        _write_csv(join(name), _header(index, columns), rows)
    for name, (index, first), prefix, labels, field, cell in _MATRIX_FILES:
        matrix = getattr(report, field)
        tags = getattr(report, labels) if labels else range(matrix.shape[1])
        _write_csv(
            join(name),
            [index] + [f"{prefix}{int(t)}" for t in tags],
            [[first + k] + [cell.write(v) for v in row] for k, row in enumerate(matrix)],
        )
    payload = dict(report.config_echo)
    payload["run_warnings"] = list(report.warnings)
    with open(join("config.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if mwnet is not None:
        save_mwnet(mwnet, join("mwnet.json"))
    if plots:
        render_plots(report, out_dir)


def load_report(report_dir) -> RunReport:
    """Rebuild a RunReport from a report directory. A malformed file, or a
    weight curve of fewer than MIN_CURVE_POINTS points, raises ValueError
    naming the file."""
    join = lambda name: os.path.join(report_dir, name)
    kwargs = {}
    for name, index, columns in _COLUMN_FILES:
        if not any(field in _STORED for _, field, _ in columns):
            continue
        with _stage(join(name)):
            header, rows = _read_csv(join(name))
            expected = _header(index, columns)
            if header != expected:
                raise ValueError(f"header {header} is not {expected}")
            for k, (_, field, cell) in enumerate(columns, start=bool(index)):
                kwargs[field] = np.array([cell.read(row[k]) for row in rows], dtype=cell.dtype)
    for name, (index, _), prefix, labels, field, cell in _MATRIX_FILES:
        with _stage(join(name)):
            header, rows = _read_csv(join(name))
            if header[:1] != [index] or not all(h.startswith(prefix) for h in header[1:]):
                raise ValueError(f"header {header} is not {index}, {prefix}<k>, ...")
            if labels:
                kwargs[labels] = np.array([int(h[len(prefix):]) for h in header[1:]], dtype=np.int64)
            matrix = [[cell.read(v) for v in row[1:]] for row in rows]
            kwargs[field] = np.array(matrix, dtype=cell.dtype).reshape(len(rows), len(header) - 1)
    points = kwargs["curve_losses"].size
    if points < MIN_CURVE_POINTS:
        raise ValueError(f"{join('weight_curve.csv')}: need at least {MIN_CURVE_POINTS} curve points, got {points}")
    with _stage(join("config.json")), open(join("config.json"), "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    warnings = payload.pop("run_warnings", [])
    return RunReport(config_echo=payload, warnings=warnings, **kwargs)


def render_plots(report: RunReport, out_dir) -> list[str]:
    """Render the report's weight_curve.svg and accuracy.svg into out_dir;
    deterministic, so re-rendering overwrites identically."""
    curve_path = os.path.join(out_dir, "weight_curve.svg")
    save_plot(curve_path, ("weight", report.curve_losses, report.curve_weights),
              "Loss to weight mapping", "training loss", "weight")
    written = [curve_path]
    if len(report.accuracy_history) >= 1:
        acc_path = os.path.join(out_dir, "accuracy.svg")
        epochs = np.arange(1, len(report.accuracy_history) + 1, dtype=np.float64)
        save_plot(acc_path, ("test accuracy", epochs, report.accuracy_history),
                  "Test accuracy by epoch", "epoch", "accuracy")
        written.append(acc_path)
    return written


def save_experiment(result: ExperimentResult, out_dir, plots: bool = False) -> None:
    """Write an experiment tree: single-seed results go directly into
    out_dir, multi-seed results into seed_<s>/ subdirectories; baseline
    runs into baseline_<kind>/ next to the run they accompany.
    summary.json always sits at the top."""
    os.makedirs(out_dir, exist_ok=True)
    single = len(result.seeds) == 1
    for k, seed in enumerate(result.seeds):
        run_dir = out_dir if single else os.path.join(out_dir, f"seed_{seed}")
        save_report(result.reports[k], run_dir, mwnet=result.mwnets[k], plots=plots)
        for kind, reps in result.baseline_reports.items():
            save_report(reps[k], os.path.join(run_dir, f"baseline_{kind}"), plots=plots)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
