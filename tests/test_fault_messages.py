"""The exact stderr line and exit code of one failing input per place that
names a fault (the stage hook `metaweight._stage` and the handlers that
reword a fault). Each input is a few small files and one command line;
`{root}` in a command or a message is the directory the files are in.

Run as a script, `python tests/test_fault_messages.py DIR` writes every
input under DIR and prints one tab-separated line per case: its name,
then its command-line arguments (`tools/compare_outputs.sh` runs them).
"""

import json
import os
import sys

import numpy as np
import pytest

from test_cli import run_main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
MAX_ARRAY_BYTES = np.iinfo(np.intp).max
# A file dataset of 2 features and 3 classes, 6 samples.
TINY_DATA = "6,2,3\n" + "".join(f"{k}.0,{k % 2}.0,{k % 3},{k % 3},0\n" for k in range(6))
MWNET = {
    "layers": [
        {"activation": "relu", "input_dim": 1, "output_dim": 2},
        {"activation": "sigmoid", "input_dim": 2, "output_dim": 1},
    ],
    "params": [0.1, -0.2, 0.0, 0.1, 0.3, -0.1, 0.0],
}

# A report directory whose CSV files load: one epoch, ten curve points.
REPORT_CSVS = {
    "report/metrics.csv": "epoch,train_loss,meta_loss,test_accuracy,meta_grad_norm\n1,0.5,0.5,0.5,0.1\n",
    "report/weight_curve.csv": "loss,weight\n" + "".join(f"{k}.0,0.5\n" for k in range(10)),
    "report/weight_dist.csv": "sample_id,weight,corrupted\n0,0.5,0\n1,0.5,1\n",
    "report/tracked_weights.csv": "epoch,id_0\n1,0.5\n",
    "report/confusion.csv": "true,pred_0,pred_1\n0,1,0\n1,0,1\n",
}


def noise40(**edits):
    """configs/noise40.json, each keyword a block whose keys it updates (a
    list replaces the block, and so does a dataset with a "kind")."""
    with open(os.path.join(CONFIG_DIR, "noise40.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for block, value in edits.items():
        if isinstance(value, dict) and "kind" not in value:
            doc[block].update(value)
        else:
            doc[block] = value
    return json.dumps(doc)


def on_file(**edits):
    """`noise40` on TINY_DATA as a file dataset."""
    return noise40(dataset={"kind": "file", "path": "{root}/data.csv"}, **edits)


TRAIN = ["train", "--config", "{root}/config.json", "--out", "{root}/out", "--seed", "1"]
PROBE = ["probe", "--model", "{root}/mwnet.json", "--out", "{root}/curve.csv"]
# JSON arrays nested past the recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000

# name -> (files by name, command line, exit code, stderr): one input per
# place that names a fault.
FAULTS = {
    "train iteration": (
        {"config.json": noise40(optim={"alpha": 10, "beta": 1e308, "T": 20, "lr_schedule": []}, baselines=[])},
        TRAIN, 2, "error: seed 1, iteration 1 of 20, theta update: non-finite parameter entries\n",
    ),
    "baseline run": (
        {"config.json": noise40(optim={"alpha": 1e6, "T": 40, "lr_schedule": []})},
        TRAIN, 2,
        "error: uniform baseline, seed 1, iteration 28 of 40, classifier step: non-finite parameter entries\n",
    ),
    "mixture draw": (
        {"config.json": noise40(dataset={"spread": 1e308})},
        TRAIN, 1, "config error: dataset.radius=2.0 and dataset.spread=1e+308 give non-finite feature values\n",
    ),
    "meta split": (
        {"config.json": on_file(meta={"per_class": 1000}), "data.csv": TINY_DATA},
        TRAIN, 2, "error: meta.per_class=1000: class 0 has only 2 clean samples, need 1000\n",
    ),
    "noise spec": (
        {"config.json": noise40(bias={"noise": {"kind": "bogus", "rate": 0.4}})},
        TRAIN, 1, "config error: bias.noise: noise kind must be 'uniform' or 'flip', got 'bogus'\n",
    ),
    "baseline spec": (
        {"config.json": noise40(baselines=[{"kind": "ramp", "gamma": -1}])},
        TRAIN, 1, "config error: baselines[0]: ramp exponent gamma must be >= 0\n",
    ),
    "optim spec": (
        {"config.json": noise40(optim={"n": 0})},
        TRAIN, 1, "config error: optim: n must be >= 1\n",
    ),
    "imbalance factor": (
        {"config.json": noise40(bias={"imbalance": {"factor": 1e6}})},
        TRAIN, 1,
        "config error: bias.imbalance.factor: imbalance factor 1000000.0 empties a class (counts [60, 0, 0])\n",
    ),
    "model file": (
        {"mwnet.json": "not json\n"},
        PROBE, 2, "error: {root}/mwnet.json: Expecting value: line 1 column 1 (char 0)\n",
    ),
    "model layer": (
        {"mwnet.json": json.dumps(MWNET).replace('"relu"', '"bogus"')},
        PROBE, 2,
        "error: {root}/mwnet.json: layers[0]: unknown activation 'bogus', "
        "expected one of ('relu', 'sigmoid', 'identity')\n",
    ),
    "model layers not a list": (
        {"mwnet.json": json.dumps({**MWNET, "layers": {}})},
        PROBE, 2, "error: {root}/mwnet.json: layers must be a list\n",
    ),
    "model layer dims": (
        {"mwnet.json": json.dumps(MWNET).replace('"input_dim": 1', '"input_dim": 1.0')},
        PROBE, 2, "error: {root}/mwnet.json: layers[0] dims must be integers\n",
    ),
    "model weights": (
        {"mwnet.json": json.dumps({**MWNET, "params": [1e308, 1e308, 0.0, 0.0, 1e308, -1e308, 0.0]})},
        PROBE + ["--steps", "3"], 2,
        "error: {root}/mwnet.json: weighting net must return finite nonnegative weights, one per sample\n",
    ),
    "data header": (
        {"config.json": on_file(), "data.csv": "1,2\n"},
        TRAIN, 2, "error: {root}/data.csv: header must be 'N,d,c', got ['1', '2']\n",
    ),
    "data records past header": (
        {"config.json": on_file(), "data.csv": "2,2,3\n" + TINY_DATA.split("\n", 1)[1]},
        TRAIN, 2, "error: {root}/data.csv: more than 2 sample records\n",
    ),
    "data feature": (
        {"config.json": on_file(), "data.csv": TINY_DATA.replace("0.0,", "zero,", 1)},
        TRAIN, 2, "error: {root}/data.csv: record 0 has a non-numeric feature\n",
    ),
    "test split": (
        {
            "config.json": noise40(dataset={"kind": "file", "path": "{root}/data.csv", "test_fraction": 0.99}),
            "data.csv": "10,2,3\n" + "".join(f"{k}.0,{k % 2}.0,{k % 3},{k % 3},0\n" for k in range(10)),
        },
        TRAIN, 2, "error: dataset.test_fraction=0.99 leaves no training data\n",
    ),
    "data encoding": (
        {"config.json": on_file(), "data.csv": b"1,2,3\n0.0,\xff0.0,0,0,0\n"},
        TRAIN, 2, "error: {root}/data.csv: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte\n",
    ),
    "report file": (
        {"report/metrics.csv": "step,accuracy\n1,0.5\n"},
        ["report", "{root}/report"], 2,
        "error: {root}/report/metrics.csv: header ['step', 'accuracy'] is not "
        "['epoch', 'train_loss', 'meta_loss', 'test_accuracy', 'meta_grad_norm']\n",
    ),
    "report config not an object": (
        {**REPORT_CSVS, "report/config.json": "[1, 2]\n"},
        ["report", "{root}/report"], 2, "error: {root}/report/config.json: expected a JSON object, got list\n",
    ),
    "report config a string": (
        {**REPORT_CSVS, "report/config.json": '"text"\n'},
        ["report", "{root}/report"], 2, "error: {root}/report/config.json: expected a JSON object, got str\n",
    ),
    "report warnings not a list": (
        {**REPORT_CSVS, "report/config.json": '{"run_warnings": 5}\n'},
        ["report", "{root}/report"], 2,
        "error: {root}/report/config.json: run_warnings must be a list of strings, got 5\n",
    ),
    # JSON that does not decode: not UTF-8, an integer past Python's
    # 4300-digit limit, and nesting past the recursion limit in each file
    # the package reads as JSON.
    "config not utf-8": (
        {"config.json": b'{"seeds": [1]\xff}\n'},
        TRAIN, 1,
        "config error: config {root}/config.json is not valid JSON: 'utf-8' codec can't decode byte 0xff "
        "in position 13: invalid start byte\n",
    ),
    "config integer past digit limit": (
        {"config.json": '{"seeds": [' + "1" * 5000 + "]}\n"},
        TRAIN, 1,
        "config error: config {root}/config.json is not valid JSON: Exceeds the limit (4300 digits) for integer "
        "string conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit\n",
    ),
    "config nested too deeply": (
        {"config.json": DEEP_JSON},
        TRAIN, 1, "config error: config {root}/config.json is not valid JSON: JSON nested too deeply\n",
    ),
    "model nested too deeply": (
        {"mwnet.json": DEEP_JSON},
        PROBE, 2, "error: {root}/mwnet.json: JSON nested too deeply\n",
    ),
    "report config nested too deeply": (
        {**REPORT_CSVS, "report/config.json": DEEP_JSON},
        ["report", "{root}/report"], 2, "error: {root}/report/config.json: JSON nested too deeply\n",
    ),
    "probe steps past numpy": (
        {"mwnet.json": json.dumps(MWNET)},
        PROBE + ["--steps", str(10**20)], 1,
        f"config error: --steps={10**20} curve points exceed NumPy's largest array ({MAX_ARRAY_BYTES} bytes)\n",
    ),
    # A count that np.linspace rounds up to 2**60 as a float, past the largest array.
    "probe steps rounded up past numpy": (
        {"mwnet.json": json.dumps(MWNET)},
        PROBE + ["--steps", str(2**60 - 1)], 1,
        f"config error: --steps={2**60 - 1} curve points exceed NumPy's largest array ({MAX_ARRAY_BYTES} bytes)\n",
    ),
    # A field past the csv module's 131072-character limit, in a data file
    # and in a report file.
    "data field past csv limit": (
        {"config.json": on_file(), "data.csv": TINY_DATA.replace("0.0,", "0." + "0" * 200000 + ",", 1)},
        TRAIN, 2, "error: {root}/data.csv: line 2: field larger than field limit (131072)\n",
    ),
    "report field past csv limit": (
        {"report/metrics.csv": "epoch,train_loss,meta_loss,test_accuracy,meta_grad_norm\n0,0.5,0.5,0.5,0.\n"
         "1,0.5,0.5,0.5,0." + "0" * 200000 + "\n"},
        ["report", "{root}/report"], 2,
        "error: {root}/report/metrics.csv: line 3: field larger than field limit (131072)\n",
    ),
    # An accuracy that is not finite, or so large that the plot's range
    # rounds to 0, puts no point of accuracy.svg at finite coordinates.
    **{
        f"report accuracy {value}": (
            {**REPORT_CSVS, "report/config.json": "{}\n",
             "report/metrics.csv": REPORT_CSVS["report/metrics.csv"].replace("0.5,0.1", f"{value},0.1")},
            ["report", "{root}/report"], 2,
            "error: {root}/report/accuracy.svg: series 'test accuracy' has values that give non-finite plot "
            "coordinates\n",
        )
        for value in ("inf", "nan", "1.7e308")
    },
    # A weight that is not finite and nonnegative, in a weight column.
    **{
        f"report {name}": (
            {**REPORT_CSVS, "report/config.json": "{}\n", f"report/{file}": content},
            ["report", "{root}/report"], 2,
            f"error: {{root}}/report/{file}: line 2: weight {value} is not finite and nonnegative\n",
        )
        for name, file, content, value in (
            ("weight nan", "weight_dist.csv", "sample_id,weight,corrupted\n0,nan,0\n1,0.5,1\n", "nan"),
            ("weight negative", "weight_dist.csv", "sample_id,weight,corrupted\n0,-3,0\n1,0.5,1\n", "-3.0"),
            ("tracked weight inf", "tracked_weights.csv", "epoch,id_0\n1,inf\n", "inf"),
        )
    },
}

# Inputs past a limit, named by key when the config is parsed (a file
# classifier's widths once its data loads): an integer that no float64
# holds in a real-valued key, and hidden widths that give a net more
# float64 parameters than NumPy's largest array holds.
PAST_LIMIT_FAULTS = {
    "radius past float64": (
        {"config.json": noise40(dataset={"radius": 10**400})},
        TRAIN, 1, "config error: dataset.radius must be finite\n",
    ),
    "alpha past float64": (
        {"config.json": noise40(optim={"alpha": 10**400})},
        TRAIN, 1, "config error: optim.alpha must be finite\n",
    ),
    "classifier past numpy": (
        {"config.json": noise40(model={"classifier_hidden": [2**31, 2**31]})},
        TRAIN, 1,
        "config error: model.classifier_hidden=[2147483648, 2147483648] gives a 2-input, 3-output net whose "
        f"float64 parameters exceed NumPy's largest array ({MAX_ARRAY_BYTES} bytes)\n",
    ),
    "weighting net past numpy": (
        {"config.json": noise40(model={"mwnet_hidden": [2**62]})},
        TRAIN, 1,
        "config error: model.mwnet_hidden=[4611686018427387904] gives a 1-input, 1-output net whose "
        f"float64 parameters exceed NumPy's largest array ({MAX_ARRAY_BYTES} bytes)\n",
    ),
    "file classifier past numpy": (
        {
            "config.json": on_file(model={"classifier_hidden": [2**62]}, meta={"per_class": 1}, optim={"n": 2, "m": 3}),
            "data.csv": TINY_DATA,
        },
        TRAIN, 1,
        "config error: model.classifier_hidden=[4611686018427387904] gives a 2-input, 3-output net whose "
        f"float64 parameters exceed NumPy's largest array ({MAX_ARRAY_BYTES} bytes)\n",
    ),
}


def write_input(root, files: dict, argv: list) -> list:
    """Write the case's files under root; return its command line."""
    for name, content in files.items():
        path = os.path.join(root, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if isinstance(content, str):
            content = content.replace("{root}", str(root)).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(content)
    return [arg.replace("{root}", str(root)) for arg in argv]


def check(root, case):
    files, argv, code, stderr = case
    proc = run_main(*write_input(root, files, argv))
    assert (proc.returncode, proc.stderr) == (code, stderr.replace("{root}", str(root)))
    assert not os.path.exists(os.path.join(root, "out"))
    assert not os.path.exists(os.path.join(root, "curve.csv"))


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_every_fault_message_is_pinned(tmp_path, name):
    check(tmp_path, FAULTS[name])


def test_a_meta_set_larger_than_the_train_set_is_warned_once_on_stdout(tmp_path):
    # 6 samples: 3 go to the meta set, 1 to the test set, 2 are left to train.
    files = {"config.json": on_file(meta={"per_class": 1}, optim={"n": 2, "m": 3, "T": 3, "lr_schedule": []}),
             "data.csv": TINY_DATA}
    proc = run_main(*write_input(tmp_path, files, TRAIN))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.count("meta set (3) larger than train set (2); expected M << N") == 2  # run and baseline


@pytest.mark.parametrize("name", sorted(PAST_LIMIT_FAULTS))
def test_a_number_or_net_past_its_limit_is_a_config_error_naming_the_key(tmp_path, name):
    check(tmp_path, PAST_LIMIT_FAULTS[name])


if __name__ == "__main__":
    for name, (files, argv, _, _) in sorted({**FAULTS, **PAST_LIMIT_FAULTS}.items()):
        root = os.path.join(sys.argv[1], name.replace(" ", "_"))
        print(name, *write_input(root, files, argv), sep="\t")
