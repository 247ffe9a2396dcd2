"""The benchmark's tracer (bench/tracing.py) wraps package functions by
name and times classifier updates by their sgd_step calls, and its
workloads (bench/workloads.py) drive the package through its public
names; these checks keep the package's side of that contract."""

import importlib
import importlib.util
import os
import sys

import numpy as np

from metaweight import metaopt
from metaweight.metaopt import TrainConfig

from test_metaopt import SMALL_LAYERS, make_toy_sets

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TRACING = os.path.join(ROOT, "bench", "tracing.py")
WORKLOADS = os.path.join(ROOT, "bench", "workloads.py")


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
    # Also with a meta batch the size of the meta set, which is built once
    # and not drawn: the clock still sees one sgd_step per update.
    tracing = load_tracing()
    train_set, meta_set, test_set = make_toy_sets(3)
    for m, draws_per_update in ((4, 2), (meta_set.n, 1)):
        config = TrainConfig(alpha=0.1, beta=0.1, n=10, m=m, T=4, seed=1)
        with tracing.Tracer() as tracer:
            metaopt.train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS, mwnet_hidden=(5,))
        names = [span.name for span in tracer.spans]
        assert names.count("metaopt.train_step") == config.T
        assert names.count("nnet.sgd_step") == config.T
        assert names.count("biasgen.sample_batch") == draws_per_update * config.T
        steps = [s for s in tracer.spans if s.name == "metaopt.train_step"]
        clocks = [s for s in tracer.spans if s.name == "nnet.sgd_step"]
        assert all(any(st.start_ns <= c.start_ns and c.end_ns <= st.end_ns for st in steps) for c in clocks)
        # The weighting net's Jacobian is the one per-sample matrix of an update.
        assert names.count("nnet.per_sample_gradients") == config.T
        assert [T for T, best in tracing.update_times(tracer.spans)] == [config.T]
        assert all(np.isfinite(best) and best > 0 for _, best in tracing.update_times(tracer.spans))


def test_the_clock_runs_for_fixed_rule_updates_under_the_tracer():
    # A baseline run's iterations are train_steps too, without a meta step:
    # its T classifier updates are timed by the same sgd_step spans, each
    # inside its iteration's train_step span.
    tracing = load_tracing()
    train_set, meta_set, test_set = make_toy_sets(3)
    config = TrainConfig(alpha=0.1, beta=0.1, n=10, m=4, T=4, seed=1)
    with tracing.Tracer() as tracer:
        metaopt.train(train_set, meta_set, test_set, config, classifier_specs=SMALL_LAYERS,
                      weight_fn=metaopt.BaselineSpec("uniform"))
    names = [span.name for span in tracer.spans]
    assert names.count("nnet.sgd_step") == config.T
    assert names.count("metaopt.train_step") == config.T
    assert names.count("metaopt.meta_gradient_direct") == 0
    steps = [s for s in tracer.spans if s.name == "metaopt.train_step"]
    clocks = [s for s in tracer.spans if s.name == "nnet.sgd_step"]
    assert all(any(st.start_ns <= c.start_ns and c.end_ns <= st.end_ns for st in steps) for c in clocks)
    ((T, best),) = tracing.update_times(tracer.spans)
    assert T == config.T and best > 0


def test_the_benchmark_workloads_run_on_the_package(tmp_path, monkeypatch):
    # The `wide` and `shipped` workloads at their small sizes, in this
    # process: a renamed attribute or constructor argument that they use
    # (state.theta.theta, result.summary["monotonicity"], the biasgen
    # dataset builders) fails here instead of in a benchmark run.
    monkeypatch.setitem(sys.modules, "tracing", load_tracing())  # workloads.py imports it by this name
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up as it loads
    spec.loader.exec_module(workloads)

    wide = workloads.Wide(ROOT, 1, str(tmp_path), small=True)
    res = wide.run_pass()
    assert res.runs == {"run": 1} and res.iters == wide.config.T
    assert res.failed == 0, res.problems
    assert len(res.final_accs) == 1 and res.digest

    shipped = workloads.Shipped(ROOT, 1, str(tmp_path), small=True)
    res = shipped.run_pass()
    # One operation per config (one seed at small size), each a learned run
    # plus the uniform baseline. A small run may miss the accuracy or
    # Spearman checks, but none may raise: every operation records its
    # accuracy, which an exception skips.
    assert sorted(res.runs) == sorted(f"{name}/seed_{cfg.seeds[0]}" for name, cfg in shipped.configs.items())
    assert set(res.runs.values()) == {2}
    assert len(res.final_accs) == len(res.runs), res.problems
