"""The benchmark's three workloads. Each builds its inputs from a seed in
its constructor (the set-up the benchmark times) and then runs one pass,
the timed body, as often as the benchmark asks.

A pass is a fixed sequence of short timed operations, each of a named
kind: one `train --seed` equivalent (shipped), one training run (wide) or
one CLI command (cli). An operation carries one or more training runs or
commands; each of those fails on an exception, a non-zero exit or a
failed output check. A failure is counted and the pass goes on.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from metaweight import biasgen, config, harness, metaopt
from metaweight.nnet import LayerSpec

from tracing import CLOCK_TARGETS, Span, Tracer, spans_from_rows, update_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


@dataclass
class PassResult:
    """What one pass did and whether its outputs passed their checks."""

    runs: dict[str, int] = field(default_factory=dict)  # training runs or commands per operation
    op_seconds: dict[str, float] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    iters: int = 0
    updates: list[tuple[int, int]] = field(default_factory=list)  # per training run: T, fastest update (ns)
    final_accs: list[float] = field(default_factory=list)
    bytes_written: int = 0
    digest: str = ""
    spans: list[Span] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str, why: str, count: int | None = None) -> None:
        """Count `count` of the operation's runs (all by default) as failed."""
        count = self.runs[kind] if count is None else count
        self.failures[kind] = min(self.runs[kind], max(self.failures.get(kind, 0), count))
        self.problems.append(f"{kind}: {why}")


def tree_digest(root: str) -> tuple[str, int]:
    """SHA-256 over every file's relative path and bytes, and the byte total."""
    h = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, root).encode() + b"\0" + data)
            total += len(data)
    return h.hexdigest(), total


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


SHIPPED_OUTPUTS = ("summary.json", "metrics.csv", "mwnet.json", "weight_curve.svg", "accuracy.svg",
                   "baseline_uniform/metrics.csv")


class Shipped:
    """The shipped noise40 and imbalance20 configs with their own seeds 1-5,
    run in-process the way `metaweight train --config <cfg> --seed <s>`
    runs them: load_config -> run_experiment -> save_experiment(plots=True).
    One (config, seed) is one operation: the weighted run plus the uniform
    baseline."""

    def __init__(self, root: str, seed: int, workdir: str, small: bool = False):
        # `seed` is unused: the configs keep their own seeds (see NOTES.md).
        self.root, self.workdir, self.small = root, workdir, small
        self.ref = REFERENCE["shipped"]
        # Parse once up front: config parsing belongs to set-up. Each
        # operation parses again, as each user command does.
        self.configs = {name: self._load(spec["path"]) for name, spec in self.ref["configs"].items()}

    def _load(self, rel_path: str):
        cfg = config.load_config(os.path.join(self.root, rel_path))
        if self.small:
            cfg = replace(cfg, seeds=cfg.seeds[:1], optim=replace(cfg.optim, T=30, lr_schedule=()))
        return cfg

    def run_pass(self, traced: bool = False) -> PassResult:
        res = PassResult()
        out_root = _fresh_dir(os.path.join(self.workdir, "shipped"))
        tracer = Tracer() if traced else Tracer(CLOCK_TARGETS)
        with tracer:
            for name, spec in self.ref["configs"].items():
                accs = []
                for seed in self.configs[name].seeds:
                    kind = f"{name}/seed_{seed}"
                    res.runs[kind] = 1 + len(self.configs[name].baselines)
                    res.iters += res.runs[kind] * self.configs[name].optim.T
                    out_dir = os.path.join(out_root, name, f"seed_{seed}")
                    start = time.perf_counter()
                    try:
                        cfg = replace(self._load(spec["path"]), seeds=(seed,))
                        result = harness.run_experiment(cfg)
                        harness.save_experiment(result, out_dir, plots=True)
                    except Exception as exc:  # counted as failed runs; the pass goes on
                        res.op_seconds[kind] = time.perf_counter() - start
                        res.fail(kind, f"{type(exc).__name__}: {exc}")
                        continue
                    res.op_seconds[kind] = time.perf_counter() - start
                    accs.append(result.reports[0].final_accuracy)
                    self._check_run(kind, spec, result, out_dir, res)
                res.final_accs.extend(accs)
                mean_acc = float(np.mean(accs)) if accs else float("nan")
                if not self.small and not abs(mean_acc - spec["final_acc"]) <= self.ref["final_acc_tolerance"]:
                    for seed in self.configs[name].seeds:
                        res.fail(f"{name}/seed_{seed}", f"mean final_acc {mean_acc:.4f} vs reference "
                                 f"{spec['final_acc']:.4f}", count=1)
        res.digest, res.bytes_written = tree_digest(out_root)
        spans = tracer.spans
        res.updates = update_times(spans)
        res.spans = spans if traced else []
        return res

    def _check_run(self, kind, spec, result, out_dir, res: PassResult) -> None:
        rho = result.summary["monotonicity"]["per_seed"][0]
        bound = self.ref["rho_bound"]
        if spec["rho_sign"] * rho < bound:
            res.fail(kind, f"Spearman {rho:+.3f}, want {'<= -' if spec['rho_sign'] < 0 else '>= +'}{bound}", count=1)
        if not all(np.isfinite(rep.final_accuracy) for reps in result.baseline_reports.values() for rep in reps):
            res.fail(kind, "non-finite baseline accuracy")
        missing = [f for f in SHIPPED_OUTPUTS if not os.path.isfile(os.path.join(out_dir, f))]
        if missing:
            res.fail(kind, f"missing outputs {missing}")


WIDE_CLASSES = 10
WIDE_DIM = 256
WIDE_AXIS_SCALE = 16.0


class Wide:
    """One noisy-label training run of three epochs with a 256-256-10
    classifier (P = 68362), data built through the public biasgen API
    because config only accepts dim 2: classes sit on scaled orthogonal
    axes, 40% uniform label noise."""

    def __init__(self, root: str, seed: int, workdir: str, small: bool = False):
        dim, hidden, per_class, T = (16, 16, 20, 5) if small else (WIDE_DIM, 256, 200, 90)
        means = np.zeros((WIDE_CLASSES, dim))
        means[np.arange(WIDE_CLASSES), np.arange(WIDE_CLASSES)] = WIDE_AXIS_SCALE
        pool = biasgen.gen_gaussians(
            biasgen.GaussianMixtureSpec(WIDE_CLASSES, dim, means, 1.0, per_class), biasgen.derive_seed(seed, 11)
        )
        self.test_set = biasgen.gen_gaussians(
            biasgen.GaussianMixtureSpec(WIDE_CLASSES, dim, means, 1.0, per_class // 2), biasgen.derive_seed(seed, 15)
        )
        self.meta_set, train_set = biasgen.split_meta(pool, 10 if not small else 4, biasgen.derive_seed(seed, 14))
        self.train_set = biasgen.apply_uniform_noise(train_set, 0.4, biasgen.derive_seed(seed, 13))
        self.config = metaopt.TrainConfig(
            alpha=0.1, beta=0.3, n=64 if not small else 16, m=32 if not small else 8, T=T,
            normalize=True, classifier_momentum=0.9, seed=seed,
        )
        self.specs = (LayerSpec(dim, hidden, "relu"), LayerSpec(hidden, WIDE_CLASSES, "identity"))
        self.floor = REFERENCE["wide"]["final_acc_floor"]
        self.small = small

    def run_pass(self, traced: bool = False) -> PassResult:
        res = PassResult(runs={"run": 1}, iters=self.config.T)
        tracer = Tracer() if traced else Tracer(CLOCK_TARGETS)
        start = time.perf_counter()
        try:
            with tracer:
                state, report = metaopt.train(
                    self.train_set, self.meta_set, self.test_set, self.config, classifier_specs=self.specs
                )
        except Exception as exc:  # counted as a failed run
            res.op_seconds["run"] = time.perf_counter() - start
            res.fail("run", f"{type(exc).__name__}: {exc}")
            return res
        res.op_seconds["run"] = time.perf_counter() - start
        spans = tracer.spans
        res.updates = update_times(spans)
        res.spans = spans if traced else []
        arrays = [
            report.accuracy_history, report.train_loss_history, report.meta_loss_history,
            report.grad_norm_history, report.curve_weights, report.dist_weights,
            report.tracked_weight_history, state.w.params, state.theta.theta,
        ]
        h = hashlib.sha256()
        for a in arrays + [report.final_confusion]:
            h.update(np.ascontiguousarray(a).tobytes())
        res.digest = h.hexdigest()
        res.final_accs.append(report.final_accuracy)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            res.fail("run", "non-finite value in the run report")
        elif not self.small and report.final_accuracy <= self.floor:
            res.fail("run", f"final_acc {report.final_accuracy:.4f} not above floor {self.floor}")
        return res


CLI_CONFIG = "configs/imbalance20.json"


class Cli:
    """gen-data, train --seed 1 (imbalance20), report, probe and
    gradcheck --instances 4, in turn, each in a fresh process that runs
    the CLI's main as `python -m metaweight` does, through
    bench/cli_entry.py so that the benchmark's clock or tracer is in it."""

    def __init__(self, root: str, seed: int, workdir: str, small: bool = False):
        self.root, self.seed, self.workdir = root, seed, workdir
        cfg_path = os.path.join(root, CLI_CONFIG)
        cfg = config.load_config(cfg_path)
        if small:
            with open(cfg_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["optim"].update(T=20, lr_schedule=[])
            cfg_path = os.path.join(workdir, "small.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            cfg = config.load_config(cfg_path)
        self.cfg_path = cfg_path
        self.iters = cfg.optim.T * (1 + len(cfg.baselines))
        self.instances = 1 if small else 4
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def _commands(self, out: str) -> list[tuple[str, list[str], list[str]]]:
        """(subcommand, argv, files it must leave behind)."""
        train_dir = os.path.join(out, "train")
        return [
            ("gen-data", ["--config", self.cfg_path, "--out", os.path.join(out, "data.csv"), "--seed", str(self.seed)],
             ["data.csv"]),
            ("train", ["--config", self.cfg_path, "--seed", "1", "--out", train_dir],
             ["train/summary.json", "train/metrics.csv", "train/mwnet.json", "train/baseline_uniform/metrics.csv"]),
            ("report", [train_dir], ["train/weight_curve.svg", "train/accuracy.svg"]),
            ("probe", ["--model", os.path.join(train_dir, "mwnet.json"), "--out", os.path.join(out, "curve.csv"),
                       "--min", "0", "--max", "5", "--steps", "200"], ["curve.csv"]),
            ("gradcheck", ["--instances", str(self.instances), "--seed", str(self.seed)], []),
        ]

    def run_pass(self, traced: bool = False) -> PassResult:
        res = PassResult(iters=self.iters)
        out = _fresh_dir(os.path.join(self.workdir, "cli"))
        span_dir = _fresh_dir(os.path.join(self.workdir, "cli-spans"))
        stdout_log = []
        for k, (sub, argv, expected) in enumerate(self._commands(out)):
            res.runs[sub] = 1
            prefix = [sys.executable, os.path.join(BENCH_DIR, "cli_entry.py"), "trace" if traced else "clock",
                      os.path.join(span_dir, f"{k}.json")]
            start = time.perf_counter()
            try:
                proc = subprocess.run(prefix + [sub] + argv, cwd=self.root, env=self.env,
                                      capture_output=True, text=True, timeout=120)
            except subprocess.TimeoutExpired:
                res.op_seconds[sub] = time.perf_counter() - start
                res.fail(sub, "timed out")
                continue
            res.op_seconds[sub] = time.perf_counter() - start
            stdout_log.append(proc.stdout)
            missing = [f for f in expected if not os.path.isfile(os.path.join(out, f))]
            if proc.returncode != 0:
                res.fail(sub, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            elif missing:
                res.fail(sub, f"missing outputs {missing}")
            elif sub == "train":
                with open(os.path.join(out, "train", "summary.json"), encoding="utf-8") as fh:
                    res.final_accs.extend(json.load(fh)["final_accuracy"]["per_seed"])
        res.digest, res.bytes_written = tree_digest(out)
        res.digest = hashlib.sha256((res.digest + "".join(stdout_log)).encode()).hexdigest()
        spans = []
        for name in sorted(os.listdir(span_dir)):
            with open(os.path.join(span_dir, name), encoding="utf-8") as fh:
                spans += spans_from_rows(json.load(fh), offset=max((s.id for s in spans), default=-1) + 1)
        res.updates = update_times(spans)
        res.spans = spans if traced else []
        return res


WORKLOADS = {"shipped": Shipped, "wide": Wide, "cli": Cli}


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory of the process that ran the workload: this one,
    or for cli the largest command process it waited for."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
