"""Tests for strict JSON experiment-config parsing."""

import copy
import json
import re
import signal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from metaweight.biasgen import longtail_counts
from metaweight.config import ConfigError, load_config, parse_config


def minimal_doc():
    return {
        "dataset": {"kind": "gaussians", "classes": 3, "per_class": 20},
        "meta": {"per_class": 2},
        "optim": {"alpha": 0.1, "beta": 0.01, "n": 8, "m": 4, "T": 10},
        "seeds": [0, 1],
    }


def test_minimal_doc_parses_with_defaults():
    cfg = parse_config(minimal_doc())
    assert cfg.dataset.kind == "gaussians"
    assert cfg.dataset.dim == 2
    assert cfg.meta_per_class == 2
    assert cfg.optim.alpha == 0.1
    assert cfg.optim.normalize is False
    assert cfg.optim.classifier_momentum == 0.0
    assert cfg.classifier_hidden == (32,)
    assert cfg.mwnet_hidden == (100,)
    assert cfg.seeds == (0, 1)
    assert cfg.imbalance_factor is None
    assert cfg.noise is None
    assert cfg.baselines == ()
    assert cfg.out_dir == ""
    assert cfg.raw["seeds"] == [0, 1]


def test_unknown_keys_are_rejected_by_name():
    doc = minimal_doc()
    doc["optimizer"] = {}
    with pytest.raises(ConfigError, match="optimizer"):
        parse_config(doc)
    doc = minimal_doc()
    doc["optim"]["learning_rate"] = 0.1
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config(doc)
    doc = minimal_doc()
    doc["dataset"]["classs"] = 3
    with pytest.raises(ConfigError, match="classs"):
        parse_config(doc)
    # Each dataset kind takes only its own keys.
    doc = minimal_doc()
    doc["dataset"]["test_fraction"] = 0.5
    with pytest.raises(ConfigError, match=r"^unknown key\(s\) \['test_fraction'\] in dataset$"):
        parse_config(doc)
    doc["dataset"] = {"kind": "file", "path": "x.csv", "classes": 7, "radius": -3}
    with pytest.raises(ConfigError, match=r"^unknown key\(s\) \['classes', 'radius'\] in dataset$"):
        parse_config(doc)
    # A removed key fails like a typo.
    doc = minimal_doc()
    doc["optim"]["tau"] = 1e-8
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['tau'\] in optim"):
        parse_config(doc)


def test_missing_required_keys_are_named():
    doc = minimal_doc()
    del doc["meta"]
    with pytest.raises(ConfigError, match="meta"):
        parse_config(doc)
    doc = minimal_doc()
    del doc["optim"]["alpha"]
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(doc)


def test_bias_block_parses_noise_and_imbalance():
    doc = minimal_doc()
    doc["bias"] = {"imbalance": {"factor": 10}, "noise": {"kind": "uniform", "rate": 0.4}}
    cfg = parse_config(doc)
    assert cfg.imbalance_factor == 10
    assert cfg.noise.kind == "uniform"
    assert cfg.noise.rate == 0.4


def test_null_optional_blocks_are_tolerated():
    doc = minimal_doc()
    doc.update({"bias": None, "model": None, "output": None, "baselines": None})
    cfg = parse_config(doc)
    assert cfg.noise is None and cfg.baselines == ()
    doc["bias"] = {"imbalance": None, "noise": None}
    cfg = parse_config(doc)
    assert cfg.imbalance_factor is None and cfg.noise is None


def test_flip_noise_needs_three_classes():
    doc = minimal_doc()
    doc["dataset"]["classes"] = 2
    doc["bias"] = {"noise": {"kind": "flip", "rate": 0.2}}
    with pytest.raises(ConfigError, match="3 classes"):
        parse_config(doc)
    doc["dataset"]["classes"] = 3
    assert parse_config(doc).noise.kind == "flip"


def test_noise_rate_bounds():
    doc = minimal_doc()
    doc["bias"] = {"noise": {"kind": "uniform", "rate": 1.5}}
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc["bias"] = {"noise": {"kind": "uniform", "rate": -0.1}}
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc["bias"] = {"noise": {"kind": "salt", "rate": 0.1}}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_meta_per_class_must_be_positive():
    # An empty meta set is a config error, named before any data is built.
    doc = minimal_doc()
    doc["meta"]["per_class"] = 0
    with pytest.raises(ConfigError, match=r"meta\.per_class must be >= 1"):
        parse_config(doc)


def test_readme_configuration_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(json.loads(re.sub(r"//.*", "", block)))
    assert cfg.noise is not None and cfg.imbalance_factor == 20.0
    assert cfg.optim.lr_schedule == ((360, 0.1), (480, 0.1))
    assert [b.kind for b in cfg.baselines] == ["uniform"]


def test_seed_validation():
    for bad in ([], [1, 1], [-1], [True], ["a"], 3):
        doc = minimal_doc()
        doc["seeds"] = bad
        with pytest.raises(ConfigError):
            parse_config(doc)


def test_optim_validation_surfaces_as_config_error():
    doc = minimal_doc()
    doc["optim"]["alpha"] = 0.0
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = minimal_doc()
    doc["optim"]["alpha"] = True
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = minimal_doc()
    doc["optim"]["T"] = 1.5
    with pytest.raises(ConfigError):
        parse_config(doc)
    for block, key, value in (("optim", "alpha", float("nan")), ("optim", "beta", float("inf")),
                              ("dataset", "spread", float("nan"))):
        doc = minimal_doc()
        doc[block][key] = value
        with pytest.raises(ConfigError, match=rf"{block}\.{key} must be finite"):
            parse_config(doc)
    doc = minimal_doc()
    doc["optim"]["normalize"] = "yes"
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = minimal_doc()
    doc["optim"]["lr_schedule"] = [[10, 0.1], [20]]
    with pytest.raises(ConfigError):
        parse_config(doc)
    for bad in ([[10.7, 0.1]], [[float("nan"), 0.1]], [[float("inf"), 0.1]], [[10, float("inf")]]):
        doc = minimal_doc()
        doc["optim"]["lr_schedule"] = [[5, 0.5]] + bad
        with pytest.raises(ConfigError, match=r"optim\.lr_schedule\[1\]"):
            parse_config(doc)
    # An entry at or past T would never apply.
    doc = minimal_doc()
    doc["optim"]["lr_schedule"] = [[5, 0.5], [10, 0.1]]
    with pytest.raises(ConfigError, match=r"optim\.lr_schedule\[1\] at iteration 10 is not below optim\.T=10"):
        parse_config(doc)
    doc = minimal_doc()
    doc["optim"]["T"] = 30
    doc["optim"]["lr_schedule"] = [[10, 0.1], [20.0, 0.01]]
    assert parse_config(doc).optim.lr_schedule == ((10, 0.1), (20, 0.01))


def test_model_block():
    doc = minimal_doc()
    doc["model"] = {"classifier_hidden": [64, 32], "mwnet_hidden": [10, 10]}
    cfg = parse_config(doc)
    assert cfg.classifier_hidden == (64, 32)
    assert cfg.mwnet_hidden == (10, 10)
    doc["model"] = {"classifier_hidden": []}
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc["model"] = {"mwnet_hidden": [0]}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_gaussians_dim_must_be_two():
    doc = minimal_doc()
    doc["dataset"]["dim"] = 3
    with pytest.raises(ConfigError, match="dim"):
        parse_config(doc)


def test_gaussian_set_sizes_are_checked_at_parse_time():
    # minimal_doc: 3 classes of 20 samples, 2 per class for the meta set,
    # so the meta set has 6 samples and the training set 3 * 18 = 54.
    for key, value, message in (
        ("n", 55, r"^optim\.n=55 is above the training-set size 54$"),
        ("m", 7, r"^optim\.m=7 is above the meta-set size 6 \(classes times meta\.per_class\)$"),
    ):
        doc = minimal_doc()
        doc["optim"][key] = value
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)
    doc = minimal_doc()
    doc["optim"].update(n=54, m=6)
    optim = parse_config(doc).optim
    assert (optim.n, optim.m) == (54, 6)
    # Long tail over the 18 left per class: counts 18, 6 and 2, 26 in all.
    doc = minimal_doc()
    doc["bias"] = {"imbalance": {"factor": 10}, "noise": {"kind": "uniform", "rate": 0.4}}
    doc["optim"]["n"] = 26
    assert parse_config(doc).optim.n == 26
    doc["optim"]["n"] = 27
    with pytest.raises(ConfigError, match=r"^optim\.n=27 is above the training-set size 26$"):
        parse_config(doc)
    doc["bias"]["imbalance"]["factor"] = 1e6
    with pytest.raises(ConfigError, match=r"^bias\.imbalance\.factor: imbalance factor 1000000\.0 empties a class"):
        parse_config(doc)
    doc = minimal_doc()
    doc["meta"]["per_class"] = 21
    with pytest.raises(ConfigError, match=r"^meta\.per_class=21 is above dataset\.per_class=20"):
        parse_config(doc)
    # Every sample in the meta set leaves no training set at all.
    doc["meta"]["per_class"] = 20
    doc["optim"]["m"] = 4
    with pytest.raises(ConfigError, match=r"^optim\.n=8 is above the training-set size 0$"):
        parse_config(doc)
    # A file dataset's sizes are known only once it is read; train checks them.
    doc = minimal_doc()
    doc["dataset"] = {"kind": "file", "path": "data.csv"}
    doc["optim"].update(n=10000, m=10000)
    assert parse_config(doc).optim.n == 10000


def test_sizes_past_numpy_arrays_are_config_errors_naming_the_key():
    # 1e308 samples fit no NumPy array; they used to fail in NumPy itself.
    for key in ("classes", "per_class", "test_per_class"):
        doc = minimal_doc()
        doc["dataset"][key] = 1e308
        with pytest.raises(ConfigError, match=r"^dataset\.classes=\d+ times dataset\.(test_)?per_class=\d+ rows of "
                           r"2 float64 features exceed NumPy's largest array"):
            parse_config(doc)


def test_optim_messages_name_the_config_key():
    # A value the reader rejects is named by its key once; TrainConfig's
    # own checks are prefixed with the block. A valid schedule is present,
    # so a T below 1 must be named as such, not blamed on the schedule.
    for key, value, message in (
        ("n", 0, r"optim: n must be >= 1"),
        ("m", -1, r"optim: m must be >= 1"),
        ("T", 0, r"optim: T must be >= 1"),
        ("T", -1, r"optim: T must be >= 1"),
        ("momentum", -1, r"optim\.momentum must be >= 0"),
        ("momentum", 1, r"optim\.momentum must be below 1"),
        ("weight_decay", -1, r"optim\.weight_decay must be >= 0"),
        *((key, "text", rf"optim\.{key} must be a number") for key in ("alpha", "beta", "n", "m")),
        *((key, 1.5, rf"optim\.{key} must be an integer") for key in ("n", "m")),
    ):
        doc = minimal_doc()
        doc["optim"]["lr_schedule"] = [[5, 0.1]]
        doc["optim"][key] = value
        with pytest.raises(ConfigError) as raised:
            parse_config(doc)
        assert re.fullmatch(message, str(raised.value)), str(raised.value)


def test_a_huge_class_count_under_imbalance_parses_at_once():
    # Under a long tail the parse checks in constant time that the last,
    # smallest class keeps a sample, and sums the per-class counts only when
    # optim.n exceeds dataset.classes; every class keeps a sample, so a batch
    # of at most dataset.classes rows always fits. Here optim.n is 32, so
    # neither size is summed and neither costs time or memory. An interval
    # timer turns a parse that does not finish into a failure. 759e6 classes
    # of 759e6 samples are the largest square size whose features fit
    # NumPy's largest array.
    base = json.loads((Path(__file__).resolve().parents[1] / "configs" / "imbalance20.json").read_text())
    for classes, per_class in ((10**15, 210), (759_000_000, 759_000_000)):
        doc = copy.deepcopy(base)
        doc["dataset"].update(classes=classes, per_class=per_class)

        def too_slow(signum, frame):
            raise TimeoutError("parse_config took more than 1 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        tracemalloc.start()
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            cfg = parse_config(doc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert cfg.dataset.classes == classes
        assert peak < 1 << 20


def test_long_tail_batch_check_matches_the_exact_size():
    # The outcome and message are those of a check against the exact size,
    # on a few hundred random small long tails with batch sizes around the
    # class count (where the sum is skipped) and around the size.
    rng = np.random.default_rng(23)
    outcomes = {"fits": 0, "too big": 0, "emptied": 0}
    branches = {"sum skipped": 0, "exact sum": 0}
    for _ in range(600):
        c = int(rng.integers(2, 300))
        base = int(np.exp(rng.uniform(0, np.log(3000))))
        factor = 1.0 if rng.random() < 0.1 else float(np.exp(rng.uniform(0, np.log(1e3))))
        doc = minimal_doc()
        doc["dataset"].update(classes=c, per_class=base + 2)
        doc["bias"] = {"imbalance": {"factor": factor}}
        try:
            total = int(longtail_counts(c, base, factor).sum())
        except ValueError as exc:
            expected = f"bias.imbalance.factor: {exc}"
            n = int(rng.integers(1, 50))
        else:
            n = max(1, (c if rng.random() < 0.5 else total) + int(rng.integers(-c, c + 1)))
            expected = f"optim.n={n} is above the training-set size {total}" if n > total else None
            branches["sum skipped" if n <= c else "exact sum"] += 1
        doc["optim"]["n"] = n
        try:
            parse_config(doc)
            message = None
        except ConfigError as exc:
            message = str(exc)
        assert message == expected, (c, base, factor, n)
        outcomes["fits" if expected is None else "emptied" if "empties" in expected else "too big"] += 1
    assert min(outcomes.values()) > 60, outcomes
    assert min(branches.values()) > 60, branches


def test_string_and_list_values_are_typed():
    for value in (0, True, {}, [], None):
        doc = minimal_doc()
        doc["output"] = {"dir": value}
        with pytest.raises(ConfigError, match=r"^output\.dir must be a string$"):
            parse_config(doc)
        doc = minimal_doc()
        doc["dataset"] = {"kind": "file", "path": value}
        with pytest.raises(ConfigError, match=r"^dataset\.path must be a non-empty string"):
            parse_config(doc)
    for value in (-1, 1e308, True, "uniform", {}):
        doc = minimal_doc()
        doc["baselines"] = value
        with pytest.raises(ConfigError, match=r"^baselines must be a list of baseline objects$"):
            parse_config(doc)


def test_file_dataset_block():
    doc = minimal_doc()
    doc["dataset"] = {"kind": "file", "path": "data.csv", "test_fraction": 0.25}
    cfg = parse_config(doc)
    assert cfg.dataset.path == "data.csv"
    assert cfg.dataset.test_fraction == 0.25
    doc["dataset"] = {"kind": "file"}
    with pytest.raises(ConfigError, match="path"):
        parse_config(doc)
    doc["dataset"] = {"kind": "file", "path": "x.csv", "test_fraction": 1.0}
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc["dataset"] = {"kind": "parquet"}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_baseline_blocks():
    doc = minimal_doc()
    doc["baselines"] = [
        {"kind": "uniform"},
        {"kind": "ramp", "gamma": 2.0},
        {"kind": "step", "lam": 0.5},
    ]
    cfg = parse_config(doc)
    assert [b.kind for b in cfg.baselines] == ["uniform", "ramp", "step"]
    assert cfg.baselines[1].gamma == 2.0
    assert cfg.baselines[2].lam == 0.5
    for bad in ({"kind": "focal"}, {"kind": "step", "lam": 0}, {"kind": "ramp", "gamma": -1}):
        doc["baselines"] = [{"kind": "uniform"}, bad]
        with pytest.raises(ConfigError, match=r"baselines\[1\]"):
            parse_config(doc)


def test_output_block():
    doc = minimal_doc()
    doc["output"] = {"dir": "runs/exp1", "plots": True}
    cfg = parse_config(doc)
    assert cfg.out_dir == "runs/exp1"
    assert cfg.plots is True
    doc["output"] = {"plots": "maybe"}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_load_config_error_paths(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="object"):
        load_config(arr)
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps(minimal_doc()).replace('"alpha": 0.1', '"alpha": NaN'), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"optim\.alpha"):
        load_config(nan)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_doc()), encoding="utf-8")
    assert load_config(good).seeds == (0, 1)


def test_parse_does_not_mutate_input():
    doc = minimal_doc()
    snapshot = copy.deepcopy(doc)
    parse_config(doc)
    assert doc == snapshot
