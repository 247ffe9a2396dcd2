"""The benchmark's tracer (bench/tracing.py) wraps package functions by
name and times classifier updates by their sgd_step calls; these checks
keep the package's side of that contract."""

import importlib
import importlib.util
import os

import numpy as np

from metaweight import metaopt
from metaweight.metaopt import TrainConfig

from test_metaopt import SMALL_LAYERS, make_toy_sets

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_its_module():
    tracing = load_tracing()
    for layer, qualname, _ in tracing.TARGETS + tracing.CLOCK_TARGETS:
        home = importlib.import_module(f"metaweight.{layer}")
        owner, _, attr = qualname.rpartition(".")
        holder = vars(getattr(home, owner)) if owner else vars(home)
        assert callable(getattr(holder.get(attr), "__func__", holder.get(attr))), f"{layer}.{qualname}"


def test_one_sgd_step_per_bilevel_update_under_the_tracer():
    tracing = load_tracing()
    train_set, meta_set, test_set = make_toy_sets(3)
    config = TrainConfig(alpha=0.1, beta=0.1, n=10, m=4, T=4, seed=1)
    with tracing.Tracer() as tracer:
        metaopt.train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
    names = [span.name for span in tracer.spans]
    assert names.count("metaopt.train_step") == config.T
    assert names.count("nnet.sgd_step") == config.T
    steps = [s for s in tracer.spans if s.name == "metaopt.train_step"]
    clocks = [s for s in tracer.spans if s.name == "nnet.sgd_step"]
    assert all(any(st.start_ns <= c.start_ns and c.end_ns <= st.end_ns for st in steps) for c in clocks)
    # The weighting net's Jacobian is the one per-sample matrix of an update.
    assert names.count("nnet.per_sample_gradients") == config.T
    assert [T for T, best in tracing.update_times(tracer.spans)] == [config.T]
    assert all(np.isfinite(best) and best > 0 for _, best in tracing.update_times(tracer.spans))


def test_the_clock_runs_for_fixed_rule_updates_under_the_tracer():
    # A baseline run has no train_step: its T classifier updates are timed
    # by the same sgd_step spans, so they must reach the traced name.
    tracing = load_tracing()
    train_set, meta_set, test_set = make_toy_sets(3)
    config = TrainConfig(alpha=0.1, beta=0.1, n=10, m=4, T=4, seed=1)
    with tracing.Tracer() as tracer:
        metaopt.train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS,
                      weight_fn=metaopt.BaselineSpec("uniform").weight_fn())
    names = [span.name for span in tracer.spans]
    assert names.count("nnet.sgd_step") == config.T
    assert names.count("metaopt.train_step") == 0
    ((T, best),) = tracing.update_times(tracer.spans)
    assert T == config.T and best > 0
