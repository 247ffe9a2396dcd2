"""Command-line front end.

Subcommands: gen-data, train, probe, gradcheck, report. Exit codes:
0 success, 1 config error, 2 runtime/numeric error, 3 gradient-check
failure. All behavior flows from the JSON config plus flags; there are
no environment variables.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from metaweight.biasgen import derive_seed, save_dataset
from metaweight.config import ConfigError, load_config
from metaweight.harness import generate_biased, load_report, render_plots, run_experiment, save_experiment
from metaweight.metaopt import (
    BASELINE_KINDS,
    BaselineSpec,
    Batch,
    TrainState,
    meta_gradient_direct,
    meta_gradient_fd,
)
from metaweight.metrics import monotonicity_score
from metaweight.nnet import LayerSpec, init_net
from metaweight.weightnet import init_mwnet, load_mwnet, mw_forward

GRADCHECK_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap to 1 (config error)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metaweight", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="write a biased dataset CSV from a config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output dataset CSV path")
    p.add_argument("--seed", type=int, default=None, help="override the config's first seed")

    p = sub.add_parser("train", help="run the training experiment from a config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="report directory (overrides output.dir)")
    p.add_argument("--seed", type=int, default=None, help="run only this seed")
    p.add_argument(
        "--baseline",
        choices=BASELINE_KINDS,
        action="append",
        default=None,
        help="also run this fixed-weighting baseline (repeatable)",
    )

    p = sub.add_parser("probe", help="tabulate a saved weighting net over a loss range")
    p.add_argument("--model", required=True, help="mwnet.json file to probe")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--min", type=float, default=0.0, help="low end of the loss grid")
    p.add_argument("--max", type=float, default=10.0, help="high end of the loss grid")
    p.add_argument("--steps", type=int, default=200, help="number of grid points")

    p = sub.add_parser("gradcheck", help="compare analytic and finite-difference meta-gradients")
    p.add_argument(
        "--instances",
        type=int,
        default=20,
        help="number N of random instances; one more instance with a zero step is checked after them, "
        "so the summary counts N + 1",
    )
    p.add_argument("--seed", type=int, default=0, help="base seed for the instances")

    p = sub.add_parser("report", help="render SVG plots and a text summary for a report directory")
    p.add_argument("dir", help="report directory containing metrics.csv")
    return parser


def _at_least(flag: str, value, lo) -> None:
    """Reject a flag value below `lo` as a config error naming the flag."""
    if value is not None and not value >= lo:
        raise ConfigError(f"{flag} must be >= {lo}, got {value}")


def cmd_gen_data(args) -> int:
    _at_least("--seed", args.seed, 0)
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    dataset = generate_biased(cfg, seed)
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.n} samples ({dataset.d} features, {dataset.c} classes) to {args.out}")
    return 0


def cmd_train(args) -> int:
    _at_least("--seed", args.seed, 0)
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if args.baseline:
        existing = {b.kind for b in cfg.baselines}
        extra = tuple(BaselineSpec(kind) for kind in dict.fromkeys(args.baseline) if kind not in existing)
        cfg = replace(cfg, baselines=cfg.baselines + extra)
    out_dir = args.out if args.out is not None else cfg.out_dir
    if not out_dir:
        raise ConfigError("no output directory: set output.dir in the config or pass --out")
    result = run_experiment(cfg)
    save_experiment(result, out_dir, plots=cfg.plots)
    acc = result.summary["final_accuracy"]
    print(f"final accuracy {acc['mean']:.4f} +- {acc['std']:.4f} over seeds {list(result.seeds)}")
    for k, seed in enumerate(result.seeds):
        for warning in result.reports[k].warnings:
            print(f"run warning: seed {seed}: {warning}")
        for kind, reports in result.baseline_reports.items():
            for warning in reports[k].warnings:
                print(f"run warning: seed {seed}, {kind} baseline: {warning}")
    print(f"report written to {out_dir}")
    return 0


def cmd_probe(args) -> int:
    _at_least("--steps", args.steps, 2)
    if not -math.inf < args.min < args.max < math.inf:
        raise ConfigError(f"--min and --max must be finite with --max above --min, got {args.min} and {args.max}")
    if not args.max - args.min < math.inf:
        raise ConfigError(f"--max minus --min must be finite, got --min {args.min} and --max {args.max}")
    mwnet = load_mwnet(args.model)
    grid = np.linspace(args.min, args.max, args.steps)
    weights = mw_forward(mwnet, grid)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("loss,weight\n")
        for l, w in zip(grid, weights):
            fh.write(f"{repr(float(l))},{repr(float(w))}\n")
    print(f"wrote {args.steps} curve points to {args.out}")
    return 0


def _gradcheck_instance(seed: int, alpha: float, normalize: bool) -> tuple[np.ndarray, np.ndarray]:
    """One random small instance; returns (analytic, finite-difference)."""
    rng = np.random.Generator(np.random.Philox(seed))
    classifier = init_net([LayerSpec(2, 8, "relu"), LayerSpec(8, 3, "identity")], derive_seed(seed, 1))
    mwnet = init_mwnet((5,), derive_seed(seed, 2))
    # Perturb Theta away from the near-flat init so the Jacobian has texture.
    mwnet = mwnet.with_theta(mwnet.theta + 0.3 * rng.normal(size=mwnet.param_count))
    state = TrainState(w=classifier, theta=mwnet, velocity=np.zeros_like(classifier.params))

    n, m = 8, 4
    train_batch = Batch(
        ids=np.arange(n),
        features=rng.normal(size=(n, 2)) * 1.5,
        labels=rng.integers(0, 3, size=n),
    )
    meta_batch = Batch(
        ids=np.arange(m),
        features=rng.normal(size=(m, 2)) * 1.5,
        labels=rng.integers(0, 3, size=m),
    )
    report = meta_gradient_direct(state, train_batch, meta_batch, alpha, normalize=normalize)
    fd = meta_gradient_fd(state, train_batch, meta_batch, alpha, eps=1e-5, normalize=normalize)
    return report.grad_theta, fd


def cmd_gradcheck(args) -> int:
    _at_least("--instances", args.instances, 1)
    _at_least("--seed", args.seed, 0)
    worst = 0.0
    failures = 0
    # Alternate normalization modes; one extra zero-step instance at the
    # end, where both gradients must vanish identically.
    cases = [(derive_seed(args.seed, k), 0.1, k % 2 == 1) for k in range(args.instances)]
    cases.append((derive_seed(args.seed, args.instances), 0.0, False))
    for case_seed, alpha, normalize in cases:
        analytic, fd = _gradcheck_instance(case_seed, alpha, normalize)
        err = float(np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(fd)))
        worst = max(worst, err)
        if err > GRADCHECK_TOLERANCE:
            failures += 1
    verdict = "PASS" if failures == 0 else "FAIL"
    print(
        f"{verdict}: {len(cases)} instances, max relative error {worst:.3e} "
        f"(tolerance {GRADCHECK_TOLERANCE:.0e})"
    )
    return 0 if failures == 0 else 3


def cmd_report(args) -> int:
    report = load_report(args.dir)
    written = render_plots(report, args.dir)
    rho, degenerate = monotonicity_score(report.curve_losses, report.curve_weights)
    print(f"final accuracy: {report.final_accuracy:.4f}")
    flag = " (degenerate: constant curve)" if degenerate else ""
    print(f"weighting-curve monotonicity (Spearman): {rho:+.4f}{flag}")
    means = report.clean_noisy_means()
    if means is not None:
        print(f"mean weight clean {means[0]:.4f} vs noisy {means[1]:.4f}")
    for warning in report.warnings:
        print(f"run warning: {warning}")
    for path in written:
        print(f"rendered {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-data": cmd_gen_data,
        "train": cmd_train,
        "probe": cmd_probe,
        "gradcheck": cmd_gradcheck,
        "report": cmd_report,
    }
    # The finite checks name the stage of a numeric failure; NumPy's own
    # overflow/invalid-value warnings on the way there would only add noise.
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
