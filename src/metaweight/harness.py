"""Experiment orchestration: metrics, baselines, reports, multi-seed runs.

A RunReport serializes to a flat directory of CSVs plus config.json:

    metrics.csv          epoch, train_loss, meta_loss, test_accuracy, meta_grad_norm
    weight_curve.csv     loss, weight            (probed loss -> weight mapping)
    weight_dist.csv      sample_id, weight, corrupted
    stability.csv        epoch, mean_abs_delta, std_abs_delta
                         (row `epoch` = change from epoch-1 to epoch, so rows run 2..E)
    tracked_weights.csv  epoch, id_<k>...        (raw per-epoch weights behind stability.csv)
    confusion.csv        true, pred_0..pred_{c-1}
    config.json          resolved config echo plus recorded run warnings

Optionally weight_curve.svg and accuracy.svg. All floats are written with
repr(), so a load/save round trip is byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from metaweight import metrics
from metaweight.biasgen import (
    UNIFORM,
    BiasedDataset,
    GaussianMixtureSpec,
    ImbalanceSpec,
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
from metaweight.config import DatasetBlock, ExperimentConfig
from metaweight.metaopt import BaselineSpec, RunReport, TrainConfig, train
from metaweight.nnet import LayerSpec, forward  # noqa: F401 (unused; bench/test_bench.py traces it here)
from metaweight.svgplot import save_plot
from metaweight.weightnet import MWNet, save_mwnet


def run_baseline(
    train_set: BiasedDataset,
    meta_set: BiasedDataset,
    test_set: BiasedDataset,
    config: TrainConfig,
    baseline: BaselineSpec,
    classifier_specs=None,
    tracked_ids=None,
    config_echo: dict | None = None,
) -> RunReport:
    """The training loop with the weighting net replaced by a fixed rule;
    beta is ignored and recorded meta-gradient norms are zero."""
    echo = dict(config_echo or {})
    echo["baseline"] = {"kind": baseline.kind, "gamma": baseline.gamma, "lam": baseline.lam}
    try:
        _, report = train(
            train_set,
            meta_set,
            test_set,
            config,
            classifier_specs=classifier_specs,
            weight_fn=baseline.weight_fn(),
            tracked_ids=tracked_ids,
            config_echo=echo,
        )
    except ValueError as exc:
        raise ValueError(f"{baseline.kind} baseline, {exc}") from exc
    return report


def monotonicity_score(weight_curve: tuple[np.ndarray, np.ndarray]) -> tuple[float, bool]:
    """Spearman rank correlation between the probed losses and weights;
    a constant curve scores 0.0 with the degeneracy flag set."""
    losses, weights = weight_curve
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < 10:
        raise ValueError("need at least 10 curve points")
    return metrics.monotonicity_score(losses, weights)


@dataclass
class ExperimentResult:
    """One report per seed, per-seed learned weighting nets, baseline
    reports keyed by kind, and the mean/std summary."""

    seeds: tuple[int, ...]
    reports: list[RunReport]
    mwnets: list[MWNet]
    baseline_reports: dict[str, list[RunReport]]
    summary: dict


def _gaussians(ds: DatasetBlock, per_class: int, seed: int) -> BiasedDataset:
    means = circle_means(ds.classes, ds.radius)
    return gen_gaussians(GaussianMixtureSpec(ds.classes, ds.dim, means, ds.spread, per_class), seed)


def _pool(cfg: ExperimentConfig, seed: int) -> BiasedDataset:
    """The unbiased data: generated from the config's mixture, or loaded."""
    ds = cfg.dataset
    if ds.kind == "gaussians":
        return _gaussians(ds, ds.per_class, derive_seed(seed, 11))
    return load_dataset(ds.path)


def _inject_bias(cfg: ExperimentConfig, dataset: BiasedDataset, seed: int) -> BiasedDataset:
    """Apply the config's imbalance, then its label noise."""
    if cfg.imbalance_factor is not None:
        counts = dataset.class_counts
        if np.any(counts != counts[0]):
            raise ValueError("imbalance injection needs a balanced dataset")
        dataset = apply_longtail(
            dataset,
            ImbalanceSpec(base_count=int(counts[0]), factor=cfg.imbalance_factor),
            derive_seed(seed, 12),
        )
    if cfg.noise is not None:
        inject = apply_uniform_noise if cfg.noise.kind == UNIFORM else apply_flip_noise
        dataset = inject(dataset, cfg.noise.rate, derive_seed(seed, 13))
    return dataset


def _build_datasets(cfg: ExperimentConfig, seed: int) -> tuple[BiasedDataset, BiasedDataset, BiasedDataset]:
    """Generate or load data, carve the meta set from the clean pool,
    then inject imbalance and/or noise into the remaining training data."""
    ds = cfg.dataset
    pool = _pool(cfg, seed)
    if ds.kind == "gaussians":
        test_set = _gaussians(ds, ds.test_per_class, derive_seed(seed, 15))
    else:
        n_test = max(1, int(round(pool.n * ds.test_fraction)))
        if n_test >= pool.n:
            raise ValueError("test fraction leaves no training data")
        order = rng_stream(seed, 15).permutation(pool.n)
        test_set = pool.subset(np.sort(order[:n_test]))
        pool = pool.subset(np.sort(order[n_test:]))

    meta_set, train_set = split_meta(pool, cfg.meta_per_class, derive_seed(seed, 14))
    return _inject_bias(cfg, train_set, seed), meta_set, test_set


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


def _clean_noisy_gap(report: RunReport) -> float | None:
    noisy = report.dist_corrupted
    if not noisy.any() or noisy.all():
        return None
    clean_mean = float(report.dist_weights[~noisy].mean())
    noisy_mean = float(report.dist_weights[noisy].mean())
    return clean_mean - noisy_mean


def summarize(seeds, reports: list[RunReport], baseline_reports: dict[str, list[RunReport]]) -> dict:
    """Aggregate per-seed reports into the summary dict saved as summary.json."""
    scores, degenerate, gaps = [], [], []
    for rep in reports:
        rho, flag = monotonicity_score((rep.curve_losses, rep.curve_weights))
        scores.append(rho)
        degenerate.append(flag)
        gaps.append(_clean_noisy_gap(rep))
    summary = {
        "seeds": list(seeds),
        "final_accuracy": _mean_std([rep.final_accuracy for rep in reports]),
        "monotonicity": {"per_seed": scores, "degenerate": degenerate},
        "clean_noisy_weight_gap": {"per_seed": gaps},
        "baselines": {
            kind: {"final_accuracy": _mean_std([rep.final_accuracy for rep in reps])}
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
                    classifier_specs=specs,
                    tracked_ids=report.tracked_ids,
                    config_echo=echo,
                )
            )
    summary = summarize(cfg.seeds, reports, baseline_reports)
    return ExperimentResult(cfg.seeds, reports, mwnets, baseline_reports, summary)


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _f(v) -> str:
    return repr(float(v))


def save_report(report: RunReport, out_dir, mwnet: MWNet | None = None, plots: bool = False) -> None:
    """Write the report directory (see module docstring for the layout)."""
    os.makedirs(out_dir, exist_ok=True)
    join = lambda name: os.path.join(out_dir, name)

    epochs = range(1, len(report.accuracy_history) + 1)
    _write_csv(
        join("metrics.csv"),
        ["epoch", "train_loss", "meta_loss", "test_accuracy", "meta_grad_norm"],
        [
            [e, _f(report.train_loss_history[i]), _f(report.meta_loss_history[i]),
             _f(report.accuracy_history[i]), _f(report.grad_norm_history[i])]
            for i, e in enumerate(epochs)
        ],
    )
    _write_csv(
        join("weight_curve.csv"),
        ["loss", "weight"],
        [[_f(l), _f(w)] for l, w in zip(report.curve_losses, report.curve_weights)],
    )
    _write_csv(
        join("weight_dist.csv"),
        ["sample_id", "weight", "corrupted"],
        [
            [int(i), _f(w), int(c)]
            for i, w, c in zip(report.dist_ids, report.dist_weights, report.dist_corrupted)
        ],
    )
    _write_csv(
        join("stability.csv"),
        ["epoch", "mean_abs_delta", "std_abs_delta"],
        [
            [k + 2, _f(report.stability_mean[k]), _f(report.stability_std[k])]
            for k in range(len(report.stability_mean))
        ],
    )
    _write_csv(
        join("tracked_weights.csv"),
        ["epoch"] + [f"id_{int(i)}" for i in report.tracked_ids],
        [
            [e] + [_f(w) for w in report.tracked_weight_history[i]]
            for i, e in enumerate(epochs)
        ],
    )
    c = report.final_confusion.shape[0]
    _write_csv(
        join("confusion.csv"),
        ["true"] + [f"pred_{k}" for k in range(c)],
        [[k] + [int(v) for v in report.final_confusion[k]] for k in range(c)],
    )
    payload = dict(report.config_echo)
    payload["run_warnings"] = list(report.warnings)
    with open(join("config.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if mwnet is not None:
        save_mwnet(mwnet, join("mwnet.json"))
    if plots:
        render_plots(out_dir)


def load_report(report_dir) -> RunReport:
    """Rebuild a RunReport from a report directory."""
    join = lambda name: os.path.join(report_dir, name)

    def read_csv(name):
        with open(join(name), "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        return rows[0], rows[1:]

    _, metric_rows = read_csv("metrics.csv")
    train_loss = np.array([float(r[1]) for r in metric_rows])
    meta_loss = np.array([float(r[2]) for r in metric_rows])
    accuracy = np.array([float(r[3]) for r in metric_rows])
    grad_norm = np.array([float(r[4]) for r in metric_rows])

    _, curve_rows = read_csv("weight_curve.csv")
    curve_losses = np.array([float(r[0]) for r in curve_rows])
    curve_weights = np.array([float(r[1]) for r in curve_rows])

    _, dist_rows = read_csv("weight_dist.csv")
    dist_ids = np.array([int(r[0]) for r in dist_rows], dtype=np.int64)
    dist_weights = np.array([float(r[1]) for r in dist_rows])
    dist_corrupted = np.array([bool(int(r[2])) for r in dist_rows])

    _, stab_rows = read_csv("stability.csv")
    stab_mean = np.array([float(r[1]) for r in stab_rows])
    stab_std = np.array([float(r[2]) for r in stab_rows])

    tracked_header, tracked_rows = read_csv("tracked_weights.csv")
    tracked_ids = np.array([int(h.removeprefix("id_")) for h in tracked_header[1:]], dtype=np.int64)
    tracked_history = (
        np.array([[float(v) for v in r[1:]] for r in tracked_rows])
        if tracked_rows
        else np.empty((0, tracked_ids.size))
    )

    _, conf_rows = read_csv("confusion.csv")
    confusion = np.array([[int(v) for v in r[1:]] for r in conf_rows], dtype=np.int64)

    with open(join("config.json"), "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    warnings = payload.pop("run_warnings", [])

    return RunReport(
        accuracy_history=accuracy,
        train_loss_history=train_loss,
        meta_loss_history=meta_loss,
        grad_norm_history=grad_norm,
        final_confusion=confusion,
        curve_losses=curve_losses,
        curve_weights=curve_weights,
        dist_ids=dist_ids,
        dist_weights=dist_weights,
        dist_corrupted=dist_corrupted,
        tracked_ids=tracked_ids,
        tracked_weight_history=tracked_history,
        stability_mean=stab_mean,
        stability_std=stab_std,
        config_echo=payload,
        warnings=warnings,
    )


def render_plots(report_dir) -> list[str]:
    """Render weight_curve.svg and accuracy.svg inside a report
    directory; deterministic, so re-rendering overwrites identically."""
    report = load_report(report_dir)
    written = []
    curve_path = os.path.join(report_dir, "weight_curve.svg")
    save_plot(
        curve_path,
        [("weight", report.curve_losses, report.curve_weights)],
        "Loss to weight mapping",
        "training loss",
        "weight",
    )
    written.append(curve_path)
    if len(report.accuracy_history) >= 1:
        acc_path = os.path.join(report_dir, "accuracy.svg")
        epochs = np.arange(1, len(report.accuracy_history) + 1, dtype=np.float64)
        save_plot(
            acc_path,
            [("test accuracy", epochs, report.accuracy_history)],
            "Test accuracy by epoch",
            "epoch",
            "accuracy",
        )
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
