"""Count the calls one training run makes in the package's frames.

    PYTHONPATH=src python3 tools/count_calls.py [--epochs 2]

Trains noise40's data for seed 1, `--epochs` epochs and no lr schedule,
once as a learned run and once with the uniform rule, and prints per run
kind the events that `sys.setprofile` reports in the package's frames:
Python calls into the package, Python calls out of it (to NumPy's Python
functions, say) and C calls made from it. Each count follows one
uncounted warm-up run, which fills the `LayerSpec.param_count` cache, so
the counts are the same on every later run in the process.
Only package frames are counted, so a NumPy upgrade moves a count only
where the package calls a NumPy function written in Python.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace
from functools import partial

import metaweight
from metaweight.config import load_config
from metaweight.harness import _build_datasets
from metaweight.metaopt import BaselineSpec, train
from metaweight.nnet import mlp

PACKAGE_DIR = os.path.dirname(metaweight.__file__) + os.sep
CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs", "noise40.json")
SEED = 1


def count_events(run) -> dict[str, int]:
    """The package-frame events of `run()` after one uncounted warm-up
    run: Python calls into the package ("in"), Python calls out of it
    ("out") and C calls from it ("c")."""
    run()
    counts = {"in": 0, "out": 0, "c": 0}
    inside = {}

    def in_package(frame) -> bool:
        code = frame.f_code
        if code not in inside:
            inside[code] = code.co_filename.startswith(PACKAGE_DIR)
        return inside[code]

    def profile(frame, event, _arg):
        if event == "call":
            if in_package(frame):
                counts["in"] += 1
            elif frame.f_back is not None and in_package(frame.f_back):
                counts["out"] += 1
        elif event == "c_call" and in_package(frame):
            counts["c"] += 1

    # A collection inside a package frame could call some other module's __del__.
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return counts


def runs(epochs: int) -> tuple[dict, int]:
    """A zero-argument training run per kind of CONFIG for SEED, and the
    iterations each takes."""
    cfg = load_config(CONFIG)
    train_set, meta_set, test_set = _build_datasets(cfg, SEED)
    specs = mlp((train_set.d, *cfg.classifier_hidden, train_set.c), "identity")
    T = epochs * -(-train_set.n // cfg.optim.n)
    optim = replace(cfg.optim, seed=SEED, T=T, lr_schedule=())
    rules = {"learned": None, "uniform": BaselineSpec("uniform")}
    args = (train, train_set, meta_set, test_set, optim, specs, cfg.mwnet_hidden)
    return {kind: partial(*args, weight_fn=rule) for kind, rule in rules.items()}, T


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=2)
    args = parser.parse_args(argv)
    kinds, T = runs(args.epochs)
    for kind, run in kinds.items():
        counts = count_events(run)
        total = sum(counts.values())
        print(f"{kind}: {total} events in {T} iterations ({total / T:.1f} per iteration): "
              f"{counts['in']} calls in, {counts['out']} calls out, {counts['c']} C calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
