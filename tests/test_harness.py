"""Tests for experiment orchestration, baselines and report round trips."""

import filecmp
import json
import os
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metaweight.biasgen import (
    BiasedDataset,
    GaussianMixtureSpec,
    circle_means,
    derive_seed,
    gen_gaussians,
    longtail_counts,
    save_dataset,
    split_meta,
)
from metaweight import harness
from metaweight.config import parse_config
from metaweight.harness import (
    generate_biased,
    load_report,
    render_plots,
    run_baseline,
    run_experiment,
    save_experiment,
    save_report,
    summarize,
)
from metaweight.metaopt import BaselineSpec, TrainConfig, evaluate, train
from metaweight.metrics import stability_from_history
from metaweight.nnet import DenseNet, LayerSpec, forward, softmax_cross_entropy
from metaweight.weightnet import load_mwnet, mw_forward

from test_biasgen import FINITE_FLOATS

SMALL_LAYERS = (LayerSpec(2, 8, "relu"), LayerSpec(8, 3, "identity"))

REPORT_FILES = [
    "metrics.csv",
    "weight_curve.csv",
    "weight_dist.csv",
    "stability.csv",
    "tracked_weights.csv",
    "confusion.csv",
    "config.json",
]


def tiny_doc(**overrides):
    doc = {
        "dataset": {"kind": "gaussians", "classes": 3, "per_class": 10, "spread": 0.6, "test_per_class": 5},
        "meta": {"per_class": 2},
        "model": {"classifier_hidden": [8], "mwnet_hidden": [5]},
        "optim": {"alpha": 0.1, "beta": 0.01, "n": 8, "m": 4, "T": 6},
        "seeds": [0],
    }
    doc.update(overrides)
    return doc


def make_sets(seed=0, per_class=10):
    spec = GaussianMixtureSpec(3, 2, circle_means(3), 0.6, per_class)
    pool = gen_gaussians(spec, seed)
    meta, rest = split_meta(pool, 2, seed)
    test_set = gen_gaussians(GaussianMixtureSpec(3, 2, circle_means(3), 0.6, 5), derive_seed(seed, 9))
    return rest, meta, test_set


# ---------------------------------------------------------------- evaluate


def test_evaluate_perfect_classifier():
    labels = np.array([0, 0, 1, 1, 2, 2])
    features = np.eye(3)[labels]
    ds = BiasedDataset(features, labels, labels, 3)
    # One identity layer reading out 10 * feature: argmax equals the label.
    net = DenseNet((LayerSpec(3, 3, "identity"),), np.concatenate([10.0 * np.eye(3).ravel(), np.zeros(3)]))
    accuracy, confusion = evaluate(net, ds)
    assert accuracy == 1.0
    assert np.array_equal(confusion, 2 * np.eye(3, dtype=np.int64))


def test_evaluate_constant_classifier_scores_class_share():
    labels = np.array([0, 1, 1, 2, 2, 2])
    ds = BiasedDataset(np.random.default_rng(0).normal(size=(6, 2)), labels, labels, 3)
    # Zero weights, bias favoring class 2: every prediction is class 2.
    params = np.concatenate([np.zeros(6), np.array([0.0, 0.0, 1.0])])
    net = DenseNet((LayerSpec(2, 3, "identity"),), params)
    accuracy, confusion = evaluate(net, ds)
    assert accuracy == pytest.approx(3 / 6)
    assert np.all(confusion[:, :2] == 0)
    assert np.array_equal(confusion[:, 2], [1, 2, 3])


def test_evaluate_uses_true_labels():
    labels = np.array([0, 0, 1, 1, 2, 2])
    observed = np.array([1, 0, 1, 2, 2, 0])
    ds = BiasedDataset(np.eye(3)[labels], observed, labels, 3)
    net = DenseNet((LayerSpec(3, 3, "identity"),), np.concatenate([10.0 * np.eye(3).ravel(), np.zeros(3)]))
    accuracy, _ = evaluate(net, ds)
    assert accuracy == 1.0  # predictions match the true labels, not the noisy ones


# ------------------------------------------------------- weight distribution


def test_weight_distribution_fresh_net_near_half():
    train_set, meta_set, test_set = make_sets(3)
    config = TrainConfig(alpha=0.1, beta=0.01, n=8, m=4, T=1, seed=0)
    state, report = train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    out, _ = forward(state.w, train_set.features)
    losses, _ = softmax_cross_entropy(out, train_set.observed_labels)
    assert np.array_equal(report.dist_ids, np.arange(train_set.n))
    assert np.array_equal(report.dist_weights, mw_forward(state.theta, losses))
    assert np.all((report.dist_weights > 0.3) & (report.dist_weights < 0.7))
    assert np.array_equal(report.dist_corrupted, train_set.corrupted)
    report.dist_corrupted[0] = not report.dist_corrupted[0]  # the report holds a copy
    assert not np.array_equal(report.dist_corrupted, train_set.corrupted)


# ---------------------------------------------------------------- stability


def test_stability_trace_selects_columns():
    snaps = np.array(
        [
            [0.1, 0.5, 0.9],
            [0.2, 0.5, 0.8],
            [0.4, 0.5, 0.6],
        ]
    )
    mean_all, _ = stability_from_history(snaps)
    assert np.allclose(mean_all, [(0.1 + 0.0 + 0.1) / 3, (0.2 + 0.0 + 0.2) / 3], atol=1e-15)
    mean_sel, std_sel = stability_from_history(snaps[:, [1]])
    assert np.all(mean_sel == 0.0) and np.all(std_sel == 0.0)
    with pytest.raises(ValueError):
        stability_from_history(snaps[:1])


# ---------------------------------------------------------------- baselines


def test_baseline_spec_validation():
    with pytest.raises(ValueError):
        BaselineSpec("focal")
    with pytest.raises(ValueError):
        BaselineSpec("ramp", gamma=-1.0)
    with pytest.raises(ValueError, match="gamma"):
        BaselineSpec("ramp", gamma=float("nan"))
    with pytest.raises(ValueError, match="lam"):
        BaselineSpec("step", lam=float("nan"))
    with pytest.raises(ValueError):
        BaselineSpec("step", lam=0.0)
    assert BaselineSpec("uniform").kind == "uniform"


def test_baseline_weight_rules():
    losses = np.array([0.0, 1.0, 2.0, 4.0])
    assert np.array_equal(BaselineSpec("uniform")(losses), np.ones(4))

    ramp = BaselineSpec("ramp", gamma=2.0)
    assert np.allclose(ramp(losses), (losses / 4.0) ** 2, atol=1e-15)
    assert np.array_equal(ramp(np.zeros(3)), np.ones(3))  # degenerate all-zero batch
    assert np.array_equal(BaselineSpec("ramp", gamma=0.0)(losses), np.ones(4))

    step = BaselineSpec("step", lam=2.0)
    assert np.array_equal(step(losses), [1.0, 1.0, 0.0, 0.0])  # strict threshold


def test_run_baseline_uniform_equals_weight_fn_training():
    train_set, meta_set, test_set = make_sets(4)
    config = TrainConfig(alpha=0.1, beta=0.01, n=8, m=4, T=6, seed=5)
    report_b = run_baseline(train_set, meta_set, test_set, config, BaselineSpec("uniform"),
                            classifier_specs=SMALL_LAYERS)
    _, report_w = train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS,
                        weight_fn=lambda losses: np.ones_like(losses))
    assert np.array_equal(report_b.accuracy_history, report_w.accuracy_history)
    assert np.array_equal(report_b.train_loss_history, report_w.train_loss_history)
    assert np.all(report_b.dist_weights == 1.0)
    assert np.all(report_b.grad_norm_history == 0.0)
    assert report_b.config_echo["baseline"]["kind"] == "uniform"


def test_run_baseline_degenerate_rules_match_uniform():
    train_set, meta_set, test_set = make_sets(6)
    config = TrainConfig(alpha=0.1, beta=0.01, n=8, m=4, T=6, seed=7)
    uniform = run_baseline(train_set, meta_set, test_set, config, BaselineSpec("uniform"),
                           classifier_specs=SMALL_LAYERS)
    # A step threshold above every loss keeps every sample: identical run.
    step = run_baseline(train_set, meta_set, test_set, config, BaselineSpec("step", lam=1e9),
                        classifier_specs=SMALL_LAYERS)
    assert np.array_equal(step.accuracy_history, uniform.accuracy_history)
    assert np.array_equal(step.dist_weights, uniform.dist_weights)
    # gamma = 0 flattens the ramp to 1 everywhere.
    ramp = run_baseline(train_set, meta_set, test_set, config, BaselineSpec("ramp", gamma=0.0),
                        classifier_specs=SMALL_LAYERS)
    assert np.array_equal(ramp.accuracy_history, uniform.accuracy_history)


# ------------------------------------------------------------- round trips


def run_tiny_experiment(tmp_path, doc=None):
    cfg = parse_config(doc or tiny_doc())
    return cfg, run_experiment(cfg)


def assert_round_trip(report, out, mwnet=None):
    """Save, load and save again: every field survives bit for bit, and every file."""
    save_report(report, out / "run", mwnet=mwnet)
    loaded = load_report(out / "run")
    for name in (
        "accuracy_history", "train_loss_history", "meta_loss_history", "grad_norm_history",
        "curve_losses", "curve_weights", "dist_ids", "dist_weights", "dist_corrupted",
        "tracked_ids", "tracked_weight_history", "final_confusion", "stability_mean", "stability_std",
    ):
        got, want = getattr(loaded, name), getattr(report, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert loaded.config_echo == report.config_echo
    assert loaded.warnings == report.warnings

    save_report(loaded, out / "again", mwnet=mwnet)
    names = REPORT_FILES + (["mwnet.json"] if mwnet else [])
    for name in names:
        assert filecmp.cmp(out / "run" / name, out / "again" / name, shallow=False), name
    return loaded


def test_report_round_trip_with_no_completed_epochs(tmp_path):
    train_set, meta_set, test_set = make_sets(8)
    config = TrainConfig(alpha=0.1, beta=0.01, n=8, m=4, T=1, seed=1)
    _, report = train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    loaded = assert_round_trip(report, tmp_path)
    assert loaded.accuracy_history.size == 0
    assert loaded.stability_mean.size == 0
    assert loaded.tracked_weight_history.shape == (0, report.tracked_ids.size)


def test_report_round_trip_with_one_completed_epoch(tmp_path):
    train_set, meta_set, test_set = make_sets(8)
    # 24 training samples, n=8: 3 iterations make one epoch.
    config = TrainConfig(alpha=0.1, beta=0.01, n=8, m=4, T=4, seed=1)
    _, report = train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    loaded = assert_round_trip(report, tmp_path)
    assert loaded.accuracy_history.size == 1
    assert loaded.stability_mean.size == 0
    assert (tmp_path / "run" / "stability.csv").read_text() == "epoch,mean_abs_delta,std_abs_delta\n"


@pytest.fixture(scope="module")
def tiny_result():
    return run_tiny_experiment(None)[1]


@pytest.fixture(scope="module")
def tiny_report(tiny_result):
    return tiny_result.reports[0]


WEIGHTS = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1e308]) | st.floats(0.0, 1.0)


@st.composite
def report_arrays(draw):
    """The arrays of a report that load_report reads back: four histories
    of one length (none included), at least MIN_CURVE_POINTS curve points,
    the weight distribution, a tracked-weight matrix and a confusion
    matrix, each weight finite and nonnegative."""

    def array(elements, size, dtype):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=dtype)

    int64s = st.integers(-(2**63), 2**63 - 1)
    epochs, points = draw(st.integers(0, 3)), draw(st.integers(harness.MIN_CURVE_POINTS, 14))
    samples, rows, tracked, c = (draw(st.integers(lo, 4)) for lo in (0, 0, 1, 1))
    histories = ("accuracy_history", "train_loss_history", "meta_loss_history", "grad_norm_history")
    return {
        **{name: array(FINITE_FLOATS, epochs, np.float64) for name in histories},
        "curve_losses": array(FINITE_FLOATS, points, np.float64),
        "curve_weights": array(WEIGHTS, points, np.float64),
        "dist_ids": array(int64s, samples, np.int64),
        "dist_weights": array(WEIGHTS, samples, np.float64),
        "dist_corrupted": array(st.booleans(), samples, bool),
        "tracked_ids": array(int64s, tracked, np.int64),
        "tracked_weight_history": array(WEIGHTS, rows * tracked, np.float64).reshape(rows, tracked),
        "final_confusion": array(int64s, c * c, np.int64).reshape(c, c),
    }


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(arrays=report_arrays())
@example(arrays={})  # the trained report as it is
def test_report_save_load_round_trip(tmp_path_factory, tiny_result, arrays):
    out = tmp_path_factory.mktemp("report")
    mwnet = tiny_result.mwnets[0]
    # Stability from weights near 1e308 overflows, alike in both reports.
    with np.errstate(over="ignore", invalid="ignore"):
        assert_round_trip(replace(tiny_result.reports[0], **arrays), out, mwnet=mwnet)
    assert load_mwnet(out / "run" / "mwnet.json").theta.tobytes() == mwnet.theta.tobytes()


def same_json(a, b) -> bool:
    """Equal as JSON values, with each value's type and each float's bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    return a == b


# Any JSON value without NaN or infinities, with FINITE_FLOATS' numbers.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | FINITE_FLOATS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    echo=st.dictionaries(st.text().filter(lambda key: key != "run_warnings"), JSON_VALUES, max_size=4),
    warnings=st.lists(st.text(), max_size=3),
)
def test_config_echo_and_warnings_survive_a_round_trip(tmp_path_factory, tiny_report, echo, warnings):
    out = tmp_path_factory.mktemp("report")
    save_report(replace(tiny_report, config_echo=echo, warnings=warnings), out)
    loaded = load_report(out)
    assert same_json(loaded.config_echo, echo)
    assert same_json(loaded.warnings, warnings)


def test_load_report_rejects_a_short_curve(tmp_path):
    _, result = run_tiny_experiment(tmp_path)
    out = tmp_path / "run"
    save_report(result.reports[0], out)
    curve = out / "weight_curve.csv"
    curve.write_text("".join(curve.read_text().splitlines(keepends=True)[:6]))  # header + 5 rows
    with pytest.raises(ValueError, match=r"weight_curve\.csv: need at least 10 curve points, got 5"):
        load_report(out)


def test_load_report_names_a_malformed_file(tmp_path):
    _, result = run_tiny_experiment(tmp_path)
    out = tmp_path / "run"
    save_report(result.reports[0], out)
    dist = out / "weight_dist.csv"
    good = dist.read_text()
    for bad in (good.replace("sample_id,weight", "weight,sample_id"), good.replace(",0\n", ",x\n", 1),
                good + "1,0.5\n"):
        dist.write_text(bad)
        with pytest.raises(ValueError, match=r"weight_dist\.csv: "):
            load_report(out)
    dist.write_text(good)
    (out / "config.json").write_text("{")
    with pytest.raises(ValueError, match=r"config\.json: "):
        load_report(out)


def test_render_plots_deterministic(tmp_path, monkeypatch):
    _, result = run_tiny_experiment(tmp_path)
    report = result.reports[0]

    def no_reading(_):
        raise AssertionError("save_report read its own output back")

    monkeypatch.setattr(harness, "load_report", no_reading)
    save_report(report, tmp_path / "saved", plots=True)
    (tmp_path / "rendered").mkdir()
    written = render_plots(report, tmp_path / "rendered")
    assert [os.path.basename(p) for p in written] == ["weight_curve.svg", "accuracy.svg"]
    for p in written:
        blob = open(p, "rb").read()
        assert blob.startswith(b"<svg")
        assert (tmp_path / "saved" / os.path.basename(p)).read_bytes() == blob
    monkeypatch.undo()
    # Rendering the report loaded back from disk gives the same bytes.
    for p in render_plots(load_report(tmp_path / "saved"), tmp_path / "saved"):
        assert open(p, "rb").read() == (tmp_path / "rendered" / os.path.basename(p)).read_bytes()


# ------------------------------------------------------------- experiments


def test_run_experiment_single_seed_layout(tmp_path):
    doc = tiny_doc(baselines=[{"kind": "uniform"}])
    cfg, result = run_tiny_experiment(tmp_path, doc)
    assert len(result.reports) == 1
    assert len(result.mwnets) == 1
    assert list(result.baseline_reports) == ["uniform"]

    out = tmp_path / "exp"
    save_experiment(result, out)
    for name in REPORT_FILES + ["mwnet.json", "summary.json"]:
        assert (out / name).is_file(), name
    assert (out / "baseline_uniform" / "metrics.csv").is_file()
    assert not (out / "baseline_uniform" / "mwnet.json").exists()

    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [0]
    assert "mean" in summary["final_accuracy"]
    assert "uniform" in summary["baselines"]
    assert len(summary["monotonicity"]["per_seed"]) == 1


def test_run_experiment_multi_seed_layout_and_determinism(tmp_path):
    doc = tiny_doc(seeds=[3, 5])
    cfg, result = run_tiny_experiment(tmp_path, doc)
    assert result.seeds == (3, 5)
    assert len(result.reports) == 2

    out = tmp_path / "exp"
    save_experiment(result, out)
    assert (out / "seed_3" / "metrics.csv").is_file()
    assert (out / "seed_5" / "metrics.csv").is_file()
    assert (out / "summary.json").is_file()
    assert not (out / "metrics.csv").exists()

    # Per-seed optimizer seeds differ, so the two runs are distinct.
    a, b = result.reports
    assert not np.array_equal(a.accuracy_history, b.accuracy_history) or not np.array_equal(
        a.dist_weights, b.dist_weights
    )

    _, rerun = run_tiny_experiment(tmp_path, tiny_doc(seeds=[3, 5]))
    assert json.dumps(rerun.summary, sort_keys=True) == json.dumps(result.summary, sort_keys=True)
    for r1, r2 in zip(result.reports, rerun.reports):
        assert np.array_equal(r1.dist_weights, r2.dist_weights)


def test_run_experiment_echo_names_the_seed(tmp_path):
    doc = tiny_doc(seeds=[9])
    _, result = run_tiny_experiment(tmp_path, doc)
    echo = result.reports[0].config_echo
    assert echo["run_seed"] == 9
    assert echo["seed"] == 9
    assert echo["experiment"]["optim"]["T"] == 6


def test_baseline_echo_names_the_configs_weighting_net(tmp_path):
    # A baseline run echoes the experiment's model block, not train's
    # default weighting net, although its fixed rule never runs that net.
    doc = tiny_doc(baselines=[{"kind": "uniform"}])
    doc["model"]["mwnet_hidden"] = [7]
    _, result = run_tiny_experiment(tmp_path, doc)
    assert result.reports[0].config_echo["mwnet_hidden"] == [7]
    assert result.baseline_reports["uniform"][0].config_echo["mwnet_hidden"] == [7]
    save_experiment(result, tmp_path)
    with open(tmp_path / "baseline_uniform" / "config.json", encoding="utf-8") as fh:
        assert json.load(fh)["mwnet_hidden"] == [7]


def test_baselines_track_the_learned_runs_samples():
    # run_experiment does not hand a baseline its learned run's tracked ids:
    # both pick them from the same training set and seed.
    doc = tiny_doc(seeds=[0, 1], bias={"noise": {"kind": "uniform", "rate": 0.4}},
                   baselines=[{"kind": "uniform"}, {"kind": "step"}])
    result = run_experiment(parse_config(doc))
    for k, learned in enumerate(result.reports):
        assert learned.tracked_ids.size > 0 and learned.dist_corrupted[learned.tracked_ids].all()
        for kind, reps in result.baseline_reports.items():
            assert np.array_equal(reps[k].tracked_ids, learned.tracked_ids), (k, kind)


def test_summarize_reports_clean_noisy_gap(tmp_path):
    doc = tiny_doc(bias={"noise": {"kind": "uniform", "rate": 0.4}})
    _, result = run_tiny_experiment(tmp_path, doc)
    gap = result.summary["clean_noisy_weight_gap"]["per_seed"][0]
    assert gap is not None and np.isfinite(gap)
    # Clean data has no corrupted samples: the gap is undefined.
    _, clean = run_tiny_experiment(tmp_path)
    assert clean.summary["clean_noisy_weight_gap"]["per_seed"][0] is None


def test_meta_set_is_carved_before_bias_injection(tmp_path):
    # Even with every training label resampled (draws land back on the
    # original class 1/c of the time), the meta set stays clean and
    # balanced, or train() would refuse it.
    doc = tiny_doc(bias={"noise": {"kind": "uniform", "rate": 1.0}})
    doc["optim"]["T"] = 2
    _, result = run_tiny_experiment(tmp_path, doc)
    corrupted = result.reports[0].dist_corrupted
    assert corrupted.mean() > 0.4  # expectation (c-1)/c = 2/3


def test_generate_biased_applies_longtail_and_noise():
    doc = tiny_doc(bias={"imbalance": {"factor": 5}, "noise": {"kind": "uniform", "rate": 0.5}})
    cfg = parse_config(doc)
    ds = generate_biased(cfg, 0)
    expected_counts = longtail_counts(3, 10, 5)
    assert np.array_equal(np.bincount(ds.true_labels, minlength=3), expected_counts)
    assert ds.corrupted.any()
    again = generate_biased(cfg, 0)
    assert np.array_equal(ds.features, again.features)
    assert np.array_equal(ds.observed_labels, again.observed_labels)


def test_file_dataset_pipeline(tmp_path):
    pool = gen_gaussians(GaussianMixtureSpec(3, 2, circle_means(3), 0.6, 12), 1)
    path = tmp_path / "pool.csv"
    save_dataset(pool, path)
    doc = tiny_doc(dataset={"kind": "file", "path": str(path), "test_fraction": 0.2})
    doc["optim"] = {"alpha": 0.1, "beta": 0.01, "n": 6, "m": 4, "T": 4}
    cfg = parse_config(doc)
    result = run_experiment(cfg)
    report = result.reports[0]
    # 36 samples: round(36 * 0.2) = 7 test, 29 pool, minus 6 meta = 23 train.
    assert report.final_confusion.sum() == 7
    assert report.dist_weights.size == 23


def test_summarize_shape():
    train_set, meta_set, test_set = make_sets(11)
    config = TrainConfig(alpha=0.1, beta=0.01, n=8, m=4, T=6, seed=2)
    _, r1 = train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    summary = summarize((2,), [r1], {})
    assert summary["seeds"] == [2]
    assert summary["final_accuracy"]["per_seed"] == [r1.final_accuracy]
    assert summary["final_accuracy"]["std"] == 0.0
    assert summary["baselines"] == {}
