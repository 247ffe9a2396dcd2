"""Smoke tests for the benchmark itself: python3 -m pytest -q bench"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
# every layer is imported up front so attribute snapshots see all modules
from metaweight import biasgen, cli, config, harness, metaopt, metrics, nnet, svgplot, weightnet  # noqa: E402,F401


def _snapshot():
    """Every attribute of every metaweight module and traced class."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "metaweight" or name.startswith("metaweight."):
            snap.update({(name, attr): value for attr, value in vars(module).items()})
    for cls in (nnet.DenseNet, metaopt.Batch):
        snap.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return snap


@pytest.mark.parametrize("name, attempted", [("shipped", 4), ("wide", 1), ("cli", 5)])
def test_each_workload_runs_at_tiny_size(tmp_path, name, attempted):
    wl = workloads.WORKLOADS[name](ROOT, 3, str(tmp_path), small=True)
    res = wl.run_pass()
    assert res.attempted == attempted
    assert res.iters > 0 and res.op_seconds and res.digest
    assert res.updates and all(T > 0 and best > 0 for T, best in res.updates)
    assert len(res.final_accs) >= 1
    if name != "shipped":  # tiny shipped runs are too short for the Spearman check
        assert res.failed == 0, res.problems


def test_traced_pass_matches_untraced_and_restores_wrappers(tmp_path):
    wl = workloads.Wide(ROOT, 2, str(tmp_path), small=True)
    before = _snapshot()
    plain = wl.run_pass(traced=False)
    traced = wl.run_pass(traced=True)
    assert traced.digest == plain.digest
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in traced.spans}
    assert {"metaopt.train_step", "nnet.per_sample_gradients", "nnet.forward", "metaopt.Batch.from_dataset"} <= names


def test_names_imported_elsewhere_are_wrapped_in_every_module():
    original = nnet.forward
    with tracing.Tracer():
        wrapped = {m.forward for m in (nnet, metaopt, weightnet, harness)}
        assert len(wrapped) == 1 and original not in wrapped
    assert all(m.forward is original for m in (nnet, metaopt, weightnet, harness))


def test_injected_failures_are_counted_not_raised(tmp_path, monkeypatch):
    wl = workloads.Wide(ROOT, 1, str(tmp_path), small=True)

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(metaopt, "train", broken)
    res = wl.run_pass()
    assert (res.attempted, res.failed) == (1, 1)
    assert "injected" in res.problems[0]

    monkeypatch.undo()
    wl.floor, wl.small = 1.0, False  # no accuracy is above 1.0
    res = wl.run_pass()
    assert (res.attempted, res.failed) == (1, 1)
    assert "floor" in res.problems[0]

    res = workloads.PassResult(runs={"a": 2, "b": 1})
    res.fail("a", "one run", count=1)
    res.fail("a", "both runs")
    res.fail("a", "one run again", count=1)
    assert (res.attempted, res.failed) == (3, 2)


def test_layer_metrics_self_time_and_per_iteration_counts():
    spans = [
        tracing.Span(1, "nnet.per_sample_gradients", 100, 400, 0, 800),
        tracing.Span(2, "nnet.forward", 500, 600, 0, 0),
        tracing.Span(0, "metaopt.meta_gradient_direct", 0, 1000, 3, 0),
        tracing.Span(3, "metaopt.train_step", 0, 1200, 4, 0),
        tracing.Span(4, "metaopt.train", 0, 2000, -1, 2),
    ]
    m = tracing.layer_metrics(spans, wall_s=2000e-9)
    assert m["metaopt.meta_gradient_direct.self_ms"] == pytest.approx(600e-6)
    assert m["nnet.per_sample_gradients.calls_per_iter"] == 0.5
    assert m["nnet.per_sample_gradients.bytes"] == 400
    assert m["nnet.per_sample_gradients.share"] == pytest.approx(0.15)
    # a second pass's spans reuse ids 0..4; renumbered, they leave self times intact
    twice = tracing.layer_metrics(spans + tracing.spans_from_rows(spans, offset=5), wall_s=4000e-9)
    assert twice["metaopt.meta_gradient_direct.self_ms"] == pytest.approx(600e-6)


def test_update_times_are_gaps_between_sgd_steps_inside_each_run():
    spans = [
        tracing.Span(1, "nnet.sgd_step", 5, 10, 0, 0),
        tracing.Span(2, "nnet.sgd_step", 25, 30, 0, 0),
        tracing.Span(3, "nnet.sgd_step", 31, 45, 0, 0),
        tracing.Span(0, "metaopt.train", 0, 50, -1, 3),
        tracing.Span(5, "nnet.sgd_step", 100, 120, 4, 0),
        tracing.Span(4, "metaopt.train", 60, 200, -1, 7),
        tracing.Span(7, "nnet.sgd_step", 300, 310, 6, 0),
        tracing.Span(6, "metaopt.train", 210, 400, -1, 2),
        tracing.Span(9, "nnet.sgd_step", 430, 440, 8, 0),
        tracing.Span(8, "metaopt.train", 410, 500, -1, 2),
    ]
    assert tracing.update_times(spans) == [(3, 15)]  # runs with one update give no gap


def test_importtime_parsing_sums_lazy_scipy_subtrees():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.stats._a",
        "import time:        50 |         50 |         scipy.linalg._b",
        "import time:       200 |        250 |       scipy.stats._c",
        "import time:        10 |        360 |     metaweight.metrics",
        "import time:        40 |        400 | metaweight",
    ])
    assert run.parse_importtime(stderr) == {"metaweight": 400e-6, "scipy.stats": 350e-6}


def test_every_listed_metric_is_computed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    passes = [
        {"traced": traced, "seconds": 2.0 + slow, "op_seconds": {"train": 1.5 + slow, "probe": 0.5},
         "iters": 10, "updates": [[4, 250_000_000 + int(slow * 1e9)]], "final_accs": [0.9],
         "bytes_written": 100, "digest": "d"}
        for traced, slow in ((False, 0.0), (True, 0.0), (False, 0.7))
    ]
    result = {"passes": passes, "peak_rss_mb": 100.0, "layers": tracing.layer_metrics([], 2.0)}
    e2e = run.end_to_end([1.0, 2.0, 3.0], result)
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    assert e2e["run_s"] == 2.0 and e2e["iters_per_s"] == 4.0 and e2e["cmd_p50_s"] == 1.0
    layers = run.per_layer(ROOT, result)
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "wide", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
