"""Boundary fuzz test of `metaweight train`: a shipped config with one key,
at any depth, set to an edge value or removed, run in-process through
`cli.main`. Whatever the draw, the command exits 0, 1 (a config error that
names the key) or 2 (a runtime error that names the seed, iteration and
stage, or a size past memory that names the key), and no exception
escapes. A variant runs noise40 on its own data read as a `file` dataset;
there any runtime error may instead name the drawn key, since a file's
set sizes are known only once it loads.

Caps, so that every draw is cheap and allocates little:
- `optim.T` is 6, with the shipped `lr_schedule` scaled into it, and the
  run has one seed.
- The dataset sizes stay at the shipped ones unless the drawn key is one
  of them. The only large values drawn are 1e308, beyond any array NumPy
  can make, the integer 10**15, within NumPy's limit but past any memory
  (as a dataset size or model width its first array cannot be allocated,
  so no draw can ask for a large but allocatable one), and the integer
  10**400, which no float64 holds and no array's size reaches.
  `optim.T` is never set to any of them: that config is valid and would
  train for that many iterations.
- The file variant's data is written once per test run, not per draw.
"""

import copy
import json
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import noise40_data, run_main  # noqa: F401 (a fixture)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED = ("noise40", "imbalance20", "clean")
T_CAP = 6
REMOVED = "removed"
HUGE = (1e308, 10**15, 10**400)
EDGE_VALUES = (0, -1, *HUGE, "text", True, None, {}, [], REMOVED)
STAGE_PREFIX = re.compile(r"error: (\w+ baseline, )?seed \d+, iteration \d+ of \d+, [a-z ]+: ")


def capped_doc(name: str, out_dir: str) -> dict:
    with open(os.path.join(CONFIG_DIR, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    T = doc["optim"]["T"]
    doc["optim"]["T"] = T_CAP
    doc["optim"]["lr_schedule"] = [[it * T_CAP // T, mult] for it, mult in doc["optim"].get("lr_schedule", [])]
    doc["seeds"] = doc["seeds"][:1]
    doc["output"]["dir"] = out_dir
    return doc


def key_paths(node, prefix=()):
    """Every dict key and list index of a JSON document, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


def names_key(path, stderr: str) -> bool:
    """Whether `stderr` names the path's dict keys joined with dots (list
    indices name no key)."""
    dotted = ".".join(key for key in path if isinstance(key, str))
    return re.search(rf"\b{re.escape(dotted)}\b", stderr) is not None


def train_with_one_edge_value(data, doc: dict, tmp: str):
    """Draw one key path of `doc` and an edge value, put it in, and run
    `train` on the result from `tmp`; returns the path and the outcome."""
    path = data.draw(st.sampled_from(sorted(key_paths(doc), key=repr)), label="key")
    values = [v for v in EDGE_VALUES if not (path == ("optim", "T") and v in HUGE)]
    value = data.draw(st.sampled_from(values), label="value")
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    if value == REMOVED:
        del holder[path[-1]]
    else:
        holder[path[-1]] = copy.deepcopy(value)
    config = os.path.join(tmp, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    # a drawn output.dir is relative to the working directory
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        proc = run_main("train", "--config", config)
    finally:
        os.chdir(cwd)

    assert proc.returncode in (0, 1, 2), proc
    if proc.returncode == 0:
        assert proc.stderr == ""
    elif proc.returncode == 1:
        # the innermost named key on the path (list indices name no key)
        named = [key for key in path if isinstance(key, str)][-1]
        assert re.search(rf"\b{re.escape(named)}\b", proc.stderr), proc.stderr
    return path, proc


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_one_edge_value_in_a_shipped_config_fails_cleanly(data):
    name = data.draw(st.sampled_from(SHIPPED), label="config")
    with tempfile.TemporaryDirectory() as tmp:
        path, proc = train_with_one_edge_value(data, capped_doc(name, os.path.join(tmp, "report")), tmp)
    if proc.returncode == 2:
        past_memory = names_key(path, proc.stderr) and "do not fit in memory" in proc.stderr
        assert STAGE_PREFIX.match(proc.stderr) or past_memory, proc.stderr


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_edge_value_in_a_file_dataset_config_fails_cleanly(noise40_data, data):
    with tempfile.TemporaryDirectory() as tmp:
        doc = capped_doc("noise40", os.path.join(tmp, "report"))
        doc["dataset"] = {"kind": "file", "path": str(noise40_data), "test_fraction": 0.2}
        path, proc = train_with_one_edge_value(data, doc, tmp)
    if proc.returncode == 2:
        assert STAGE_PREFIX.match(proc.stderr) or names_key(path, proc.stderr), proc.stderr
