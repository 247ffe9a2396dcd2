"""Acceptance suite: eleven criteria, one printed PASS/FAIL line each.

Criteria 3-8 share three five-seed experiment runs (40% uniform noise,
factor-20 long-tail imbalance, and a clean control) driven through the
shipped configs in configs/. The remaining criteria are oracle and
property checks plus CLI-level determinism.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from metaweight.biasgen import (
    GaussianMixtureSpec,
    apply_flip_noise,
    apply_longtail,
    apply_uniform_noise,
    circle_means,
    derive_seed,
    gen_gaussians,
    longtail_counts,
)
from metaweight.cli import _gradcheck_instance
from metaweight.config import load_config
from metaweight.harness import run_experiment
from metaweight.metaopt import _coefficients
from metaweight.nnet import (
    LayerSpec,
    fd_gradient,
    forward,
    init_net,
    per_sample_gradients,
    softmax_cross_entropy,
)
from metaweight.weightnet import normalize

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def record(number, ok, detail):
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def rel_err(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(1.0, np.linalg.norm(b)))


def timed_experiment(config_name):
    cfg = load_config(os.path.join(CONFIG_DIR, config_name))
    start = time.monotonic()
    result = run_experiment(cfg)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def noise_runs():
    return timed_experiment("noise40.json")


@pytest.fixture(scope="module")
def imbalance_runs():
    return timed_experiment("imbalance20.json")


@pytest.fixture(scope="module")
def clean_runs():
    return timed_experiment("clean.json")


def test_criterion_1_meta_gradient_exactness():
    start = time.monotonic()
    errs = []
    for k in range(20):
        analytic, fd = _gradcheck_instance(derive_seed(0, k), alpha=0.1, normalize=k % 2 == 1)
        errs.append(rel_err(analytic, fd))
    elapsed = time.monotonic() - start
    worst = max(errs)
    ok = worst <= 1e-4 and elapsed < 30.0
    record(1, ok, f"meta-gradient vs FD, 20 instances, max rel err {worst:.2e} (tol 1e-4), {elapsed:.1f}s")


def test_criterion_2_classifier_gradients_match_fd():
    start = time.monotonic()
    architectures = [
        (LayerSpec(2, 8, "relu"), LayerSpec(8, 3, "identity")),
        (LayerSpec(3, 10, "relu"), LayerSpec(10, 4, "identity")),
        (LayerSpec(1, 10, "relu"), LayerSpec(10, 10, "relu"), LayerSpec(10, 2, "identity")),
        (LayerSpec(2, 7, "sigmoid"), LayerSpec(7, 3, "identity")),
        (LayerSpec(5, 2, "identity"),),
    ]
    worst = 0.0
    checked = 0
    for arch_index, specs in enumerate(architectures):
        for seed in (0, 1):
            net = init_net(specs, derive_seed(seed, 50 + arch_index))
            assert net.params.size <= 200
            rng = np.random.Generator(np.random.Philox(derive_seed(seed, 60 + arch_index)))
            feats = rng.standard_normal((6, specs[0].input_dim))
            labels = rng.integers(0, specs[-1].output_dim, 6)

            out, cache = forward(net, feats)
            _, dlogits = softmax_cross_entropy(out, labels)
            analytic = per_sample_gradients(net, cache, dlogits).mean(axis=0)

            def mean_loss(params):
                o, _ = forward(net.with_params(params), feats)
                losses, _ = softmax_cross_entropy(o, labels)
                return float(losses.mean())

            fd = fd_gradient(mean_loss, net.params, 1e-6)
            worst = max(worst, rel_err(analytic, fd))
            checked += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    record(2, ok, f"classifier gradients vs FD, {checked} nets <= 200 params, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_shipped_configs_record_no_run_warnings(noise_runs, imbalance_runs, clean_runs):
    for result, _ in (noise_runs, imbalance_runs, clean_runs):
        for report in result.reports + [r for reps in result.baseline_reports.values() for r in reps]:
            assert report.warnings == []
        # summary.json carries each run's warnings: one empty list per seed.
        none = {"per_seed": [[] for _ in result.seeds]}
        assert result.summary["run_warnings"] == none
        assert result.baseline_reports and all(
            result.summary["baselines"][kind]["run_warnings"] == none for kind in result.baseline_reports
        )


def test_criterion_3_imbalance_curve_rises(imbalance_runs):
    result, elapsed = imbalance_runs
    scores = result.summary["monotonicity"]["per_seed"]
    hits = sum(1 for rho in scores if rho >= 0.8)
    ok = hits >= 4 and elapsed < 600.0
    record(3, ok, f"imbalance weighting curve Spearman >= +0.8 in {hits}/5 seeds "
                  f"(scores {[round(s, 2) for s in scores]}), runs took {elapsed:.0f}s (< 600s)")


def test_criterion_4_noise_curve_falls(noise_runs):
    result, _ = noise_runs
    scores = result.summary["monotonicity"]["per_seed"]
    hits = sum(1 for rho in scores if rho <= -0.8)
    ok = hits >= 4
    record(4, ok, f"noise weighting curve Spearman <= -0.8 in {hits}/5 seeds "
                  f"(scores {[round(s, 2) for s in scores]})")


def test_criterion_5_clean_noisy_weight_separation(noise_runs):
    result, _ = noise_runs
    gaps = result.summary["clean_noisy_weight_gap"]["per_seed"]
    hits = sum(1 for g in gaps if g is not None and g > 0)
    ok = hits == 5
    record(5, ok, f"clean-minus-noisy mean weight positive in {hits}/5 seeds, "
                  f"mean gap {np.mean([g for g in gaps if g is not None]):+.3f}")


def test_criterion_6_accuracy_ordering(noise_runs, imbalance_runs, clean_runs):
    lines = []
    oks = []
    for label, (result, _) in (("noise", noise_runs), ("imbalance", imbalance_runs)):
        mw = result.summary["final_accuracy"]["mean"]
        uni = result.summary["baselines"]["uniform"]["final_accuracy"]["mean"]
        oks.append(mw > uni)
        lines.append(f"{label} {mw:.3f} vs uniform {uni:.3f} ({100 * (mw - uni):+.2f} pts)")
    result, _ = clean_runs
    mw = result.summary["final_accuracy"]["mean"]
    uni = result.summary["baselines"]["uniform"]["final_accuracy"]["mean"]
    oks.append(abs(mw - uni) <= 0.02)
    lines.append(f"clean parity {mw:.3f} vs {uni:.3f} ({100 * (mw - uni):+.2f} pts, band 2.0)")
    record(6, all(oks), "; ".join(lines))


def test_criterion_7_tracked_weight_stability(noise_runs):
    result, _ = noise_runs
    hits = 0
    for report in result.reports:
        deltas = report.stability_mean
        decile = max(1, (deltas.size + 1) // 10)
        hits += deltas[-decile:].mean() < deltas[:decile].mean()
    ok = hits >= 4
    record(7, ok, f"tracked-weight |delta| last decile < first decile in {hits}/5 seeds")


def test_criterion_8_meta_gradient_norm_decreases(noise_runs):
    result, _ = noise_runs
    hits = 0
    for report in result.reports:
        ma = np.convolve(report.grad_norm_history, np.ones(10) / 10, mode="valid")
        hits += ma[-1] < ma[0]
    ok = hits >= 4
    record(8, ok, f"meta-gradient norm MA(10) final < epoch-10 value in {hits}/5 seeds")


def test_criterion_9_bias_generator_statistics():
    c, per_class = 10, 1000
    pool = gen_gaussians(GaussianMixtureSpec(c, 2, circle_means(c), 1.0, per_class), 77)
    n = pool.n
    assert n == 10_000

    p = 0.4
    uniform = apply_uniform_noise(pool, p, 101)
    q = p * (c - 1) / c
    u_count = int(uniform.corrupted.sum())
    u_dev = abs(u_count - n * q) / np.sqrt(n * q * (1 - q))
    flip = apply_flip_noise(pool, p, 102)
    f_count = int(flip.corrupted.sum())
    f_dev = abs(f_count - n * p) / np.sqrt(n * p * (1 - p))

    big = gen_gaussians(GaussianMixtureSpec(c, 2, circle_means(c), 1.0, 5000), 78)
    expected = longtail_counts(c, 5000, 100)
    mu = 100.0 ** (-1.0 / (c - 1))
    exact = np.array([int(round(5000 * mu**i)) for i in range(c)])
    tail = apply_longtail(big, 100, 103)
    observed = np.bincount(tail.true_labels, minlength=c)

    ok = (
        u_dev <= 3.0
        and f_dev <= 3.0
        and np.array_equal(expected, exact)
        and np.array_equal(observed, exact)
        and expected[0] == 5000
        and expected[-1] == 50
    )
    record(9, ok, f"uniform corrupted {u_count}/{n} ({u_dev:.2f} sigma), flip {f_count}/{n} "
                  f"({f_dev:.2f} sigma), long-tail counts exact incl. 5000->50 at factor 100")


def test_criterion_10_cli_determinism(tmp_path):
    doc = {
        "dataset": {"kind": "gaussians", "classes": 3, "per_class": 10, "spread": 0.6, "test_per_class": 5},
        "bias": {"noise": {"kind": "uniform", "rate": 0.4}},
        "meta": {"per_class": 2},
        "model": {"classifier_hidden": [8], "mwnet_hidden": [5]},
        "optim": {"alpha": 0.1, "beta": 0.01, "n": 8, "m": 4, "T": 6},
        "seeds": [0],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")

    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "metaweight", *map(str, args)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    csvs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in csvs:
        run("gen-data", "--config", cfg, "--out", path)
    gen_same = csvs[0].read_bytes() == csvs[1].read_bytes()

    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        run("train", "--config", cfg, "--out", d)
    mismatched = []
    names = sorted(os.listdir(dirs[0]))
    if names != sorted(os.listdir(dirs[1])):
        mismatched.append("file sets differ")
    for name in names:
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
            mismatched.append(name)
    ok = gen_same and not mismatched
    record(10, ok, f"gen-data byte-identical: {gen_same}; train outputs byte-identical "
                   f"across {len(names)} files" + (f" (mismatch: {mismatched})" if mismatched else ""))


def test_criterion_11_normalization_invariants():
    rng = np.random.Generator(np.random.Philox(4242))
    worst = 0.0
    checked = 0
    for k in range(10_000):
        size = int(rng.integers(1, 65))
        if k % 100 == 0:
            raw = np.zeros(size)
        elif k % 100 == 50:
            raw = rng.random(size) * 1e-12  # tiny but positive scales
        else:
            raw = rng.random(size)
        eta = _coefficients(raw, True)[0]  # the training loop's normalization
        assert eta.tobytes() == normalize(raw).tobytes()  # the tests' reference, bit for bit
        if np.any(raw > 0):
            worst = max(worst, abs(float(eta.sum()) - 1.0))
        else:
            assert np.all(eta == 0.0)
        assert np.all(eta >= 0.0)
        checked += 1
    ok = worst <= 1e-12
    record(11, ok, f"sum(eta) partition over {checked} random vectors by the training loop's normalization "
                   f"(bit for bit weightnet.normalize), max |sum - 1| {worst:.2e} (tol 1e-12), all-zero -> all-zero")
