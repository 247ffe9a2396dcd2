"""End-to-end tests of the command-line interface. One test per command
starts `python -m metaweight` in a subprocess; the rest call `cli.main` in
this process (`run_main`), which skips the interpreter start-up."""

import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from metaweight import cli, harness
from metaweight.biasgen import load_dataset
from metaweight.metaopt import meta_gradient_direct
from metaweight.weightnet import init_mwnet, mw_forward, save_mwnet

from test_biasgen import LOAD_FAULTS


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "metaweight", *map(str, args)],
        capture_output=True,
        text=True,
    )


def _show_on_stderr(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_main(*args):
    """`cli.main` in this process, returning `run_cli`'s result shape: the
    exit code (a SystemExit's code included), stdout and stderr. Warnings
    go to the captured stderr, as a fresh process prints them, instead of
    to pytest's warning summary."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = _show_on_stderr
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def tree_bytes(root):
    blobs = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                blobs[rel] = fh.read()
    return blobs


def base_doc():
    return {
        "dataset": {"kind": "gaussians", "classes": 3, "per_class": 10, "spread": 0.6, "test_per_class": 5},
        "bias": {"noise": {"kind": "uniform", "rate": 0.4}},
        "meta": {"per_class": 2},
        "model": {"classifier_hidden": [8], "mwnet_hidden": [5]},
        "optim": {"alpha": 0.1, "beta": 0.01, "n": 8, "m": 4, "T": 6},
        "output": {"plots": True},
        "seeds": [0],
    }


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return write_config(tmp_path_factory.mktemp("cfg") / "experiment.json", base_doc())


@pytest.fixture(scope="module")
def trained(cfg_path, tmp_path_factory):
    """The same train command run twice, with a uniform baseline attached."""
    root = tmp_path_factory.mktemp("train")
    dirs = [str(root / "a"), str(root / "b")]
    procs = [run_cli("train", "--config", cfg_path, "--out", d, "--baseline", "uniform") for d in dirs]
    return dirs, procs


# ---------------------------------------------------------------- gen-data


def test_gen_data_deterministic(cfg_path, tmp_path):
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    p1 = run_cli("gen-data", "--config", cfg_path, "--out", out1)
    p2 = run_cli("gen-data", "--config", cfg_path, "--out", out2)
    assert p1.returncode == 0, p1.stderr
    assert p2.returncode == 0
    assert "wrote 30 samples" in p1.stdout
    assert out1.read_bytes() == out2.read_bytes()
    ds = load_dataset(out1)
    assert ds.n == 30 and ds.c == 3
    assert ds.corrupted.any()

    other = tmp_path / "d3.csv"
    p3 = run_cli("gen-data", "--config", cfg_path, "--out", other, "--seed", 1)
    assert p3.returncode == 0
    assert other.read_bytes() != out1.read_bytes()


def test_gen_data_degenerate_bias_is_clean(tmp_path):
    doc = base_doc()
    doc["bias"] = {"imbalance": {"factor": 1}, "noise": {"kind": "uniform", "rate": 0.0}}
    cfg = write_config(tmp_path / "clean.json", doc)
    out = tmp_path / "clean.csv"
    assert run_main("gen-data", "--config", cfg, "--out", out).returncode == 0
    ds = load_dataset(out)
    assert not ds.corrupted.any()
    assert np.all(ds.class_counts == 10)
    assert np.array_equal(ds.observed_labels, ds.true_labels)


def test_gen_data_flip_noise_two_classes_is_config_error(tmp_path):
    doc = base_doc()
    doc["dataset"]["classes"] = 2
    doc["bias"] = {"noise": {"kind": "flip", "rate": 0.2}}
    cfg = write_config(tmp_path / "flip2.json", doc)
    proc = run_main("gen-data", "--config", cfg, "--out", tmp_path / "x.csv")
    assert proc.returncode == 1
    assert "config error" in proc.stderr
    assert "3 classes" in proc.stderr


# ---------------------------------------------------------------- train


def test_train_writes_report_directory(trained):
    dirs, procs = trained
    assert procs[0].returncode == 0, procs[0].stderr
    assert "final accuracy" in procs[0].stdout
    for name in ("metrics.csv", "weight_curve.csv", "weight_dist.csv", "stability.csv",
                 "tracked_weights.csv", "confusion.csv", "config.json", "mwnet.json", "summary.json"):
        assert os.path.isfile(os.path.join(dirs[0], name)), name
    assert os.path.isfile(os.path.join(dirs[0], "baseline_uniform", "metrics.csv"))
    summary = json.load(open(os.path.join(dirs[0], "summary.json")))
    assert "uniform" in summary["baselines"]


def test_train_repeat_is_byte_identical(trained):
    dirs, procs = trained
    assert procs[1].returncode == 0
    a, b = tree_bytes(dirs[0]), tree_bytes(dirs[1])
    assert sorted(a) == sorted(b)
    for rel in a:
        assert a[rel] == b[rel], rel


def test_train_seed_override(cfg_path, tmp_path):
    out = tmp_path / "s7"
    proc = run_main("train", "--config", cfg_path, "--out", out, "--seed", 7)
    assert proc.returncode == 0, proc.stderr
    echo = json.load(open(out / "config.json"))
    assert echo["run_seed"] == 7
    assert echo["seed"] == 7


def test_train_missing_meta_block_is_config_error(tmp_path):
    doc = base_doc()
    del doc["meta"]
    cfg = write_config(tmp_path / "nometa.json", doc)
    proc = run_main("train", "--config", cfg, "--out", tmp_path / "r")
    assert proc.returncode == 1
    assert "meta" in proc.stderr


def test_train_without_out_dir_is_config_error(cfg_path):
    proc = run_main("train", "--config", cfg_path)
    assert proc.returncode == 1
    assert "output" in proc.stderr


def test_negative_seed_flag_is_config_error(cfg_path, tmp_path):
    for args in (
        ("train", "--config", cfg_path, "--out", tmp_path / "r"),
        ("gen-data", "--config", cfg_path, "--out", tmp_path / "x.csv"),
        ("gradcheck", "--instances", 1),
    ):
        proc = run_main(*args, "--seed", -1)
        assert proc.returncode == 1, args
        assert "config error: --seed must be >= 0, got -1" in proc.stderr
    assert not (tmp_path / "r").exists() and not (tmp_path / "x.csv").exists()


def test_train_schedule_entry_past_T_is_config_error(tmp_path):
    doc = base_doc()
    doc["optim"]["lr_schedule"] = [[3, 0.5], [6, 0.1]]
    out = tmp_path / "r"
    proc = run_main("train", "--config", write_config(tmp_path / "late.json", doc), "--out", out)
    assert proc.returncode == 1
    assert proc.stderr == (
        "config error: optim.lr_schedule[1] at iteration 6 is not below optim.T=6, so it never applies\n"
    )
    assert not out.exists()


def test_train_impossible_batch_size_is_config_error(tmp_path):
    # The sizes of a gaussians dataset are known from the config, so a
    # batch larger than its set fails before any data is built.
    doc = base_doc()
    doc["optim"]["n"] = 10000
    out = tmp_path / "r"
    proc = run_main("train", "--config", write_config(tmp_path / "big_n.json", doc), "--out", out)
    assert proc.returncode == 1
    assert proc.stderr == "config error: optim.n=10000 is above the training-set size 24\n"
    assert not out.exists()


def test_train_missing_config_file_is_config_error(tmp_path):
    proc = run_main("train", "--config", tmp_path / "absent.json", "--out", tmp_path / "r")
    assert proc.returncode == 1
    assert "config error" in proc.stderr


NOISE40 = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "noise40.json")


def huge_alpha_noise40(baselines):
    with open(NOISE40, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["optim"]["alpha"] = 1e6
    doc["baselines"] = baselines
    return doc


def test_train_numeric_failure_names_iteration_and_stage(tmp_path):
    # A valid config whose step size makes the uniform baseline's classifier
    # blow up: the error names the run, the iteration and the stage, and it
    # is the only thing on stderr.
    cfg = write_config(tmp_path / "huge_alpha.json", huge_alpha_noise40([{"kind": "uniform"}]))
    proc = run_main("train", "--config", cfg, "--out", tmp_path / "r", "--seed", 1)
    assert proc.returncode == 2
    stages = "virtual step|meta step|theta update|classifier step|epoch evaluation"
    pattern = rf"error: uniform baseline, seed 1, iteration \d+ of 600, ({stages}): [^\n]+\n"
    assert re.fullmatch(pattern, proc.stderr), proc.stderr


def test_train_theta_update_failure_names_its_stage(tmp_path):
    # A weighting-net step size that overflows Theta fails in the Theta
    # update, and the error names that stage.
    doc = huge_alpha_noise40([])
    doc["optim"].update(alpha=10, beta=1e308, T=20, lr_schedule=[])
    out = tmp_path / "r"
    proc = run_main("train", "--config", write_config(tmp_path / "theta.json", doc), "--out", out, "--seed", 1)
    assert (proc.returncode, proc.stderr) == (
        2, "error: seed 1, iteration 1 of 20, theta update: non-finite parameter entries\n"
    )
    assert not out.exists()


def test_train_weight_collapse_is_reported(tmp_path):
    # Without the baseline the same step size does not fail: the weighting
    # net saturates and every weight is zero. The run records that, and
    # `report` prints it.
    cfg = write_config(tmp_path / "collapse.json", huge_alpha_noise40([]))
    out = tmp_path / "r"
    proc = run_main("train", "--config", cfg, "--out", out, "--seed", 1)
    assert proc.returncode == 0, proc.stderr
    warnings = json.load(open(out / "config.json"))["run_warnings"]
    assert len(warnings) == 1
    assert re.fullmatch(r"all-zero weights: .* in \d+ of 600 iterations, first in iteration \d+", warnings[0])
    shown = run_main("report", out)
    assert shown.returncode == 0, shown.stderr
    assert f"run warning: {warnings[0]}\n" in shown.stdout


@pytest.mark.parametrize("alpha", [30, 100])
def test_train_divergence_is_reported(tmp_path, alpha):
    # A large step size drives the classifier to chance accuracy with
    # positive weights, so no weight collapses: the run records the meta
    # loss it diverged to, and `report` prints it. At alpha 100 the
    # classifier also fits its batches with losses of exactly 0, so the
    # meta-gradient is exactly 0 and the weighting net stops learning.
    doc = huge_alpha_noise40([])
    doc["optim"]["alpha"] = alpha
    cfg = write_config(tmp_path / "diverge.json", doc)
    out = tmp_path / "r"
    proc = run_main("train", "--config", cfg, "--out", out, "--seed", 1)
    assert proc.returncode == 0, proc.stderr
    warnings = json.load(open(out / "config.json"))["run_warnings"]
    stalled = alpha == 100
    assert len(warnings) == 1 + stalled
    if stalled:
        zero_grad = r"zero meta-gradient: .* in \d+ of 600 iterations, 5 or more in a row first from iteration \d+, .*"
        assert re.fullmatch(zero_grad, warnings[0]), warnings[0]
    pattern = r"diverging meta loss: the meta-set loss was above 10\.99 \(10 times ln 3, .*\) in \d+ of 100 epochs, first in epoch \d+ at [0-9.e+]+"
    assert re.fullmatch(pattern, warnings[-1]), warnings[-1]
    shown = run_main("report", out)
    assert shown.returncode == 0, shown.stderr
    for warning in warnings:
        assert f"run warning: {warning}\n" in shown.stdout


def test_train_zero_meta_gradient_is_reported(tmp_path):
    # A huge weighting-net step saturates the sigmoid head at 1 after the
    # first update: every weight is 1, the meta-gradient is exactly 0 from
    # then on, and the run has silently become the uniform baseline.
    doc = huge_alpha_noise40([])
    doc["optim"].update(alpha=0.1, beta=1e300, T=20, lr_schedule=[])
    out = tmp_path / "r"
    proc = run_main("train", "--config", write_config(tmp_path / "stall.json", doc), "--out", out, "--seed", 1)
    assert proc.returncode == 0, proc.stderr
    warnings = json.load(open(out / "config.json"))["run_warnings"]
    assert warnings == [
        "zero meta-gradient: the meta-gradient was exactly zero with nonzero weights in 19 of 20 iterations, "
        "5 or more in a row first from iteration 2, so the weighting net stopped learning"
    ]
    assert proc.stdout.splitlines()[1:] == [f"run warning: seed 1: {warnings[0]}", f"report written to {out}"]
    summary = json.load(open(out / "summary.json"))
    assert summary["run_warnings"] == {"per_seed": [warnings]} and summary["baselines"] == {}
    shown = run_main("report", out)
    assert shown.returncode == 0, shown.stderr
    assert f"run warning: {warnings[0]}\n" in shown.stdout


def test_train_prints_the_run_warnings_of_each_run(tmp_path):
    # The weighting net zeroes every weight while the uniform baseline
    # diverges; train prints each run's warnings, the baseline's named.
    doc = huge_alpha_noise40([{"kind": "uniform"}])
    doc["optim"].update(alpha=30, beta=1e300, T=20, lr_schedule=[])
    out = tmp_path / "r"
    proc = run_main("train", "--config", write_config(tmp_path / "warn.json", doc), "--out", out, "--seed", 1)
    assert proc.returncode == 0, proc.stderr
    learned = json.load(open(out / "config.json"))["run_warnings"]
    baseline = json.load(open(out / "baseline_uniform" / "config.json"))["run_warnings"]
    assert [w.split(":")[0] for w in learned + baseline] == ["all-zero weights", "diverging meta loss"]
    summary = json.load(open(out / "summary.json"))
    assert summary["run_warnings"] == {"per_seed": [learned]}
    assert summary["baselines"]["uniform"]["run_warnings"] == {"per_seed": [baseline]}
    assert proc.stdout.splitlines()[1:] == [
        f"run warning: seed 1: {learned[0]}",
        f"run warning: seed 1, uniform baseline: {baseline[0]}",
        f"report written to {out}",
    ]


def test_a_spread_that_overflows_float64_is_a_config_error(tmp_path):
    doc = base_doc()
    doc["dataset"]["spread"] = 1e308
    cfg = write_config(tmp_path / "wide_spread.json", doc)
    expected = "config error: dataset.radius=2.0 and dataset.spread=1e+308 give non-finite feature values\n"
    for command, out in (("train", tmp_path / "r"), ("gen-data", tmp_path / "d.csv")):
        proc = run_main(command, "--config", cfg, "--out", out)
        assert (proc.returncode, proc.stderr) == (1, expected), command
    assert not (tmp_path / "r").exists()


def test_train_rejects_a_non_finite_feature_before_training(tmp_path):
    data = tmp_path / "data.csv"
    assert run_main("gen-data", "--config", write_config(tmp_path / "gen.json", base_doc()), "--out", data).returncode == 0
    lines = data.read_text().splitlines()
    lines[4] = "nan," + lines[4].split(",", 1)[1]
    data.write_text("\n".join(lines) + "\n")
    doc = base_doc()
    doc["dataset"] = {"kind": "file", "path": str(data), "test_fraction": 0.2}
    out = tmp_path / "r"
    proc = run_main("train", "--config", write_config(tmp_path / "file.json", doc), "--out", out)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {data}: record 3 has a non-finite feature\n"
    assert not out.exists()


def test_train_on_a_file_that_is_not_utf8_names_the_file(tmp_path):
    data = tmp_path / "data.csv"
    data.write_bytes(b"1,2,3\n0.0,\xff0.0,0,0,0\n")
    doc = base_doc()
    doc["dataset"] = {"kind": "file", "path": str(data)}
    out = tmp_path / "r"
    proc = run_main("train", "--config", write_config(tmp_path / "file.json", doc), "--out", out)
    assert (proc.returncode, proc.stderr) == (
        2, f"error: {data}: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, named", [("classes", 10**15, "per_class"), ("test_per_class", 10**17, "test_per_class")]
)
def test_train_on_sizes_past_memory_names_the_keys(tmp_path, key, value, named):
    # Sizes that fit NumPy's largest array but no memory pass parsing; the
    # draw of the pool or of the test set fails before it allocates, and
    # the error names the class count and the per-class key (exit 2).
    with open(NOISE40, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["dataset"][key] = value
    doc["optim"].update(T=20, lr_schedule=[])
    out = tmp_path / "r"
    proc = run_main("train", "--config", write_config(tmp_path / "huge.json", doc), "--out", out, "--seed", 1)
    sizes = rf"dataset\.classes={doc['dataset']['classes']} times dataset\.{named}={doc['dataset'][named]} samples"
    assert proc.returncode == 2
    assert re.fullmatch(rf"error: {sizes} do not fit in memory: .+\n", proc.stderr), proc.stderr
    assert not out.exists()


def test_train_exits_2_naming_the_file_on_a_header_or_label_fault(tmp_path):
    for fault, (text, message) in sorted(LOAD_FAULTS.items()):
        data = tmp_path / f"{fault.replace(' ', '_')}.csv"
        data.write_text(text)
        doc = base_doc()
        doc["dataset"] = {"kind": "file", "path": str(data)}
        out = tmp_path / "r"
        proc = run_main("train", "--config", write_config(tmp_path / "file.json", doc), "--out", out)
        assert (proc.returncode, proc.stderr) == (2, f"error: {data}: {message}\n"), fault
        assert not out.exists()


def test_train_rejects_a_flag_that_disagrees_with_the_labels(tmp_path):
    # A record's corrupted flag must be set exactly where its observed and
    # true labels differ; the error names the file and the record.
    data = tmp_path / "data.csv"
    assert run_main("gen-data", "--config", write_config(tmp_path / "gen.json", base_doc()), "--out", data).returncode == 0
    lines = data.read_text().splitlines()
    *features, observed, true, flag = lines[5].split(",")
    assert observed == true and flag == "0"
    lines[5] = ",".join(features + [observed, true, "1"])
    data.write_text("\n".join(lines) + "\n")
    doc = base_doc()
    doc["dataset"] = {"kind": "file", "path": str(data)}
    out = tmp_path / "r"
    proc = run_main("train", "--config", write_config(tmp_path / "file.json", doc), "--out", out)
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: {data}: record 4 has corrupted flag 1 with observed label {observed} and true label {true}\n"
    )
    assert not out.exists()


@pytest.fixture(scope="module")
def noise40_data(tmp_path_factory):
    """configs/noise40.json's data for seed 1, written by gen-data (210
    samples, which a file dataset splits into 42 test, 30 meta and 138
    training samples)."""
    data = tmp_path_factory.mktemp("noise40") / "noise40.csv"
    assert run_main("gen-data", "--config", NOISE40, "--out", data, "--seed", 1).returncode == 0
    return data


# config key -> (value, the error it gives on noise40_data)
FILE_FAULTS = {
    "dataset.path": ("absent.csv", "dataset.path=absent.csv cannot be read: No such file or directory"),
    "optim.n": (10000, "optim.n=10000 is above the training-set size 138"),
    "optim.m": (10000, "optim.m=10000 is above the meta-set size 30 (classes times meta.per_class)"),
    "meta.per_class": (1000, "meta.per_class=1000: class 0 has only 40 clean samples, need 1000"),
}


@pytest.mark.parametrize("key", sorted(FILE_FAULTS))
def test_a_file_dataset_fault_names_its_key(noise40_data, tmp_path, monkeypatch, key):
    # A file's set sizes are known only once it loads, so these faults are
    # runtime errors (exit 2), named by the config key.
    value, message = FILE_FAULTS[key]
    with open(NOISE40, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["dataset"] = {"kind": "file", "path": str(noise40_data)}
    block, name = key.split(".")
    doc[block][name] = value
    monkeypatch.chdir(tmp_path)
    proc = run_main("train", "--config", write_config(tmp_path / "file.json", doc), "--out", "r", "--seed", 1)
    assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")
    assert not (tmp_path / "r").exists()


def test_train_dataset_key_of_the_other_kind_is_config_error(tmp_path):
    doc = base_doc()
    doc["dataset"] = {"kind": "file", "path": str(tmp_path / "data.csv"), "classes": 7, "radius": -3}
    out = tmp_path / "r"
    proc = run_main("train", "--config", write_config(tmp_path / "mixed.json", doc), "--out", out)
    assert proc.returncode == 1
    assert proc.stderr == "config error: unknown key(s) ['classes', 'radius'] in dataset\n"
    assert not out.exists()


# ---------------------------------------------------------------- probe


def test_probe_round_trips_the_curve(tmp_path):
    mwnet = init_mwnet((5,), 3)
    model = tmp_path / "mwnet.json"
    save_mwnet(mwnet, model)

    out = tmp_path / "curve.csv"
    proc = run_cli("probe", "--model", model, "--out", out, "--min", 0.0, "--max", 10.0, "--steps", 2)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "loss,weight"
    assert len(lines) == 3  # header + exactly the two endpoints
    grid = np.linspace(0.0, 10.0, 2)
    weights = mw_forward(mwnet, grid)
    for line, l, w in zip(lines[1:], grid, weights):
        got_l, got_w = map(float, line.split(","))
        assert got_l == l and got_w == w

    # Freshly initialized nets sit near weight 0.5 over the whole range.
    dense = tmp_path / "dense.csv"
    assert run_cli("probe", "--model", model, "--out", dense).returncode == 0
    rows = dense.read_text().splitlines()[1:]
    assert len(rows) == 200
    values = np.array([float(r.split(",")[1]) for r in rows])
    assert np.all(np.abs(values - 0.5) < 0.2)


def test_probe_bad_range_is_config_error(tmp_path):
    mwnet = init_mwnet((5,), 3)
    model = tmp_path / "mwnet.json"
    save_mwnet(mwnet, model)
    out = tmp_path / "c.csv"
    for flags, message in (
        (("--min", 5.0, "--max", 1.0), "--max above --min, got 5.0 and 1.0"),
        (("--min", 3.0, "--max", 3.0), "--max above --min, got 3.0 and 3.0"),
        (("--max", "inf"), "must be finite with --max above --min, got 0.0 and inf"),
        (("--min", "nan"), "must be finite with --max above --min, got nan and 10.0"),
        (("--min=-1e308", "--max=1e308", "--steps", 5),
         "--max minus --min must be finite, got --min -1e+308 and --max 1e+308"),
        (("--steps", 1), "--steps must be >= 2, got 1"),
    ):
        proc = run_main("probe", "--model", model, "--out", out, *flags)
        assert proc.returncode == 1, flags
        assert message in proc.stderr and "config error: --" in proc.stderr
    assert not out.exists()


NOT_AN_MWNET = "need a JSON object with exactly the keys 'layers' and 'params'"
# fault -> (the saved document with the fault, the error it gives)
MODEL_FAULTS = {
    "layer without activation": (
        lambda doc: {**doc, "layers": [{"input_dim": 1, "output_dim": 5}] + doc["layers"][1:]},
        "layers[0] must be an object with exactly the keys ['activation', 'input_dim', 'output_dim']",
    ),
    "no params": (lambda doc: {"layers": doc["layers"]}, NOT_AN_MWNET),
    "a list": (lambda doc: [doc], NOT_AN_MWNET),
    "text param": (lambda doc: {**doc, "params": ["x"] + doc["params"][1:]}, "params must be a list of numbers"),
    "param past float64": (lambda doc: {**doc, "params": [10**400] + doc["params"][1:]}, "int too large to convert to float"),
}


@pytest.mark.parametrize("fault", sorted(MODEL_FAULTS))
def test_probe_on_a_malformed_model_names_the_file(tmp_path, fault):
    edit, message = MODEL_FAULTS[fault]
    model = tmp_path / "mwnet.json"
    save_mwnet(init_mwnet((5,), 3), model)
    model.write_text(json.dumps(edit(json.loads(model.read_text()))))
    out = tmp_path / "c.csv"
    proc = run_main("probe", "--model", model, "--out", out)
    assert (proc.returncode, proc.stderr) == (2, f"error: {model}: {message}\n")
    assert not out.exists()


# ---------------------------------------------------------------- gradcheck


def test_gradcheck_passes(tmp_path):
    proc = run_cli("gradcheck", "--instances", 5, "--seed", 0)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS")
    assert "max relative error" in proc.stdout


def test_gradcheck_corrupted_sign_fails(monkeypatch):
    # An analytic gradient with its sign flipped must fail the check.
    def negated(*args, **kwargs):
        report = meta_gradient_direct(*args, **kwargs)
        return dataclasses.replace(report, grad_theta=-report.grad_theta)

    monkeypatch.setattr(cli, "meta_gradient_direct", negated)
    proc = run_main("gradcheck", "--instances", 3)
    assert proc.returncode == 3
    assert proc.stdout.startswith("FAIL")


def test_gradcheck_help_counts_the_zero_step_instance():
    # The summary counts the zero-step instance checked after the N random
    # ones, and the help says so.
    proc = run_main("gradcheck", "--help")
    assert proc.returncode == 0
    assert "one more instance with a zero step is checked after them, so the summary counts N + 1" in " ".join(
        proc.stdout.split()
    )
    assert run_main("gradcheck", "--instances", 1).stdout.startswith("PASS: 2 instances,")


def test_gradcheck_rejects_bad_instance_count():
    proc = run_main("gradcheck", "--instances", 0)
    assert proc.returncode == 1
    assert "config error" in proc.stderr


# ---------------------------------------------------------------- report


def test_report_renders_and_summarizes(trained):
    dirs, _ = trained
    # train drew the plots from memory; report re-renders them from disk.
    svgs = [os.path.join(dirs[0], name) for name in ("weight_curve.svg", "accuracy.svg")]
    from_train = [open(p, "rb").read() for p in svgs]
    proc = run_cli("report", dirs[0])
    assert proc.returncode == 0, proc.stderr
    assert "final accuracy" in proc.stdout
    assert "monotonicity" in proc.stdout
    assert "clean" in proc.stdout  # the run had noisy labels
    assert "run warning" not in proc.stdout
    assert [open(p, "rb").read() for p in svgs] == from_train


def test_report_loads_the_directory_once(trained, monkeypatch, capsys):
    dirs, _ = trained
    loads, load = [], harness.load_report

    def counting(report_dir):
        loads.append(report_dir)
        return load(report_dir)

    monkeypatch.setattr(cli, "load_report", counting)
    monkeypatch.setattr(harness, "load_report", counting)
    assert cli.main(["report", dirs[0]]) == 0
    assert loads == [dirs[0]]
    assert "final accuracy" in capsys.readouterr().out


def test_report_on_a_short_curve_names_the_file(trained, tmp_path):
    dirs, _ = trained
    shutil.copytree(dirs[0], tmp_path / "run")
    curve = tmp_path / "run" / "weight_curve.csv"
    curve.write_text("".join(curve.read_text().splitlines(keepends=True)[:6]))  # header + 5 rows
    proc = run_main("report", tmp_path / "run")
    assert proc.returncode == 2
    assert re.fullmatch(r"error: .*weight_curve\.csv: need at least 10 curve points, got 5\n", proc.stderr)


def test_report_on_missing_directory_is_runtime_error(tmp_path):
    proc = run_main("report", tmp_path / "empty")
    assert proc.returncode == 2
    assert "error" in proc.stderr


# ---------------------------------------------------------------- parsing


def test_unknown_flag_exits_one(cfg_path):
    proc = run_main("train", "--config", cfg_path, "--frobnicate")
    assert proc.returncode == 1
    proc = run_main("trian")
    assert proc.returncode == 1
    proc = run_main("gradcheck", "--corrupt-sign")
    assert proc.returncode == 1
    assert "unrecognized arguments: --corrupt-sign" in proc.stderr
    proc = run_main()
    assert proc.returncode == 1


def test_cli_import_loads_no_scipy():
    code = "import sys, metaweight.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
