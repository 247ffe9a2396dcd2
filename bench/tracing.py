"""Spans around calls into metaweight's public functions, recorded from
the benchmark's own files; the package itself is never edited.

`Tracer.install` replaces each traced function on every ``metaweight``
module that holds it (a name brought in with ``from x import f`` lives on
each importing module, so ``forward`` is wrapped on ``nnet``, ``metaopt``,
``weightnet``, ``harness`` and the package root). `Tracer.uninstall` puts
every original object back. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import sys
import time
from array import array
from typing import NamedTuple

import numpy as np

LAYERS = ("config", "biasgen", "nnet", "weightnet", "metaopt", "harness", "metrics", "svgplot", "cli")


def _train_iters(train_set, meta_set, test_set, config, *args, **kwargs):
    return config.T


def _psg_bytes(net, cache, upstream):
    return cache.batch_size * net.param_count * 8


def _jacobian_bytes(mwnet, losses):
    return len(losses) * mwnet.param_count * 8


# (module, qualified name, size function or None). A size function gets
# the call's arguments and returns a count stored on the span.
TARGETS = (
    ("config", "load_config", None),
    ("biasgen", "gen_gaussians", None),
    ("biasgen", "split_meta", None),
    ("biasgen", "apply_longtail", None),
    ("biasgen", "apply_uniform_noise", None),
    ("biasgen", "apply_flip_noise", None),
    ("biasgen", "sample_batch", None),
    ("nnet", "forward", None),
    ("nnet", "per_sample_gradients", _psg_bytes),
    ("nnet", "sgd_step", None),
    ("nnet", "DenseNet.with_params", None),
    ("weightnet", "mw_forward", None),
    ("weightnet", "mw_jacobian", _jacobian_bytes),
    ("metaopt", "train", _train_iters),
    ("metaopt", "train_step", None),
    ("metaopt", "meta_gradient_direct", None),
    ("metaopt", "virtual_update", None),
    ("metaopt", "update_classifier", None),
    ("metaopt", "update_theta", None),
    ("metaopt", "Batch.from_dataset", None),
    ("harness", "run_experiment", None),
    ("harness", "run_baseline", _train_iters),
    ("harness", "save_experiment", None),
    ("harness", "load_report", None),
    ("harness", "render_plots", None),
    ("metrics", "monotonicity_score", None),
    ("svgplot", "save_plot", None),
)

# The end-to-end run's clock: every classifier update calls sgd_step once
# (inside update_classifier for a bilevel step, directly for a baseline
# step), so the gaps between sgd_step returns inside one training run are
# that run's update times.
CLOCK_TARGETS = (
    ("metaopt", "train", _train_iters),
    ("nnet", "sgd_step", None),
)

# Top-level dataset construction calls; nested ones are not counted twice.
BUILD_SPANS = (
    "biasgen.gen_gaussians",
    "biasgen.split_meta",
    "biasgen.apply_longtail",
    "biasgen.apply_uniform_noise",
    "biasgen.apply_flip_noise",
)


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int
    size: int


class Tracer:
    """Records one span per traced call: name, start, end, parent span and
    an optional size. Use as a context manager to install and remove the
    wrappers. Spans go into a flat integer array, which keeps the cost per
    call low and adds no objects for the garbage collector to scan."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._buf = array("q")
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name, fn, size):
        code = len(self.names)
        self.names.append(name)
        buf, stack, ids, clock = self._buf, self._stack, self._ids, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.extend((sid, code, start, end, parent, size(*args, **kwargs) if size else 0))

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"metaweight.{layer}")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "metaweight" or k.startswith("metaweight.")]
        for layer, qualname, size in self.targets:
            name = f"{layer}.{qualname}"
            home = sys.modules[f"metaweight.{layer}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(name, original.__func__, size))
                else:
                    replacement = self._wrap(name, original, size)
                self._restore.append((cls, attr, original))
                setattr(cls, attr, replacement)
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(name, original, size)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @property
    def spans(self) -> list[Span]:
        b, names = self._buf, self.names
        return [
            Span(b[i], names[b[i + 1]], b[i + 2], b[i + 3], b[i + 4], b[i + 5]) for i in range(0, len(b), 6)
        ]

    def rows(self) -> list[list]:
        """The spans as plain rows (id, name, start_ns, end_ns, parent, size)."""
        return [list(span) for span in self.spans]


def spans_from_rows(rows, offset: int = 0) -> list[Span]:
    """Spans from rows (or spans) with their ids shifted by `offset`, which
    keeps ids unique when spans of several passes or processes are merged."""
    return [
        Span(sid + offset, name, start, end, parent + offset if parent >= 0 else -1, size)
        for sid, name, start, end, parent, size in rows
    ]


def update_times(spans: list[Span]) -> list[tuple[int, int]]:
    """For each training run, in call order: (its T, its fastest classifier
    update in ns), the update time being the gap between the returns of
    consecutive sgd_step calls inside the run. Gaps that hold an epoch's
    evaluation are longer, so they never set the minimum."""
    runs = sorted((s for s in spans if s.name == "metaopt.train"), key=lambda s: s.start_ns)
    ends = sorted(s.end_ns for s in spans if s.name == "nnet.sgd_step")
    out = []
    for run in runs:
        inside = ends[bisect.bisect_left(ends, run.start_ns):bisect.bisect_right(ends, run.end_ns)]
        gaps = [b - a for a, b in zip(inside, inside[1:])]
        if gaps:
            out.append((run.size, min(gaps)))
    return out


def _tail(durations_ms: np.ndarray) -> tuple[float, float, int]:
    """The highest of a fixed ladder of percentiles that still has at least
    ten samples beyond it: (percentile, value, samples beyond)."""
    n = durations_ms.size
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = int(np.floor(n * (1.0 - pct / 100.0)))
        if beyond >= 10:
            return pct, float(np.percentile(durations_ms, pct)), beyond
    return 50.0, float(np.percentile(durations_ms, 50.0)) if n else 0.0, n // 2


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer figures from the spans of traced passes that took `wall_s`
    seconds in all; shares are of that wall time.

    Times are means per call unless named p50/tail; `calls_per_iter` and
    `bytes` are per classifier update (bilevel and baseline iterations
    both count); bytes are computed from array shapes, not measured.
    """
    by_name: dict[str, list[Span]] = {}
    child_ns: dict[int, int] = {}
    names = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        names[s.id] = s.name
        if s.parent >= 0:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + (s.end_ns - s.start_ns)

    def durs(name):
        return np.array([s.end_ns - s.start_ns for s in by_name.get(name, [])], dtype=np.float64)

    def count(name):
        return len(by_name.get(name, []))

    def sizes(name):
        return sum(s.size for s in by_name.get(name, []))

    def total(name):
        return float(durs(name).sum())

    def self_total(name):
        return float(sum(s.end_ns - s.start_ns - child_ns.get(s.id, 0) for s in by_name.get(name, [])))

    def mean(name, scale):
        return total(name) / scale / count(name) if count(name) else 0.0

    def self_mean(name, scale):
        return self_total(name) / scale / count(name) if count(name) else 0.0

    iters = sizes("metaopt.train")

    def per_iter(value):
        return value / iters if iters else 0.0

    ms, us = 1e6, 1e3
    step_ms = durs("metaopt.train_step") / ms
    tail_pct, tail_ms, tail_beyond = _tail(step_ms) if step_ms.size else (0.0, 0.0, 0)
    baseline_iters = sizes("harness.run_baseline")
    builds = [s for s in spans if s.name in BUILD_SPANS and names.get(s.parent) not in BUILD_SPANS]
    n_builds = count("biasgen.split_meta")
    wall_ns = wall_s * 1e9

    return {
        "iters": float(iters),
        "metaopt.train_step.calls": float(step_ms.size),
        "metaopt.train_step.p50_ms": float(np.median(step_ms)) if step_ms.size else 0.0,
        "metaopt.train_step.tail_ms": tail_ms,
        "metaopt.train_step.tail_pct": tail_pct,
        "metaopt.train_step.tail_beyond": float(tail_beyond),
        "metaopt.meta_gradient_direct.self_ms": self_mean("metaopt.meta_gradient_direct", ms),
        "metaopt.meta_gradient_direct.self_share": self_total("metaopt.meta_gradient_direct") / wall_ns,
        "metaopt.virtual_update.self_ms": self_mean("metaopt.virtual_update", ms),
        "metaopt.update_classifier.ms": mean("metaopt.update_classifier", ms),
        "metaopt.update_theta.us": mean("metaopt.update_theta", us),
        "metaopt.Batch.from_dataset.us": mean("metaopt.Batch.from_dataset", us),
        "nnet.per_sample_gradients.ms": mean("nnet.per_sample_gradients", ms),
        "nnet.per_sample_gradients.calls_per_iter": per_iter(count("nnet.per_sample_gradients")),
        "nnet.per_sample_gradients.bytes": per_iter(sizes("nnet.per_sample_gradients")),
        "nnet.per_sample_gradients.share": total("nnet.per_sample_gradients") / wall_ns,
        "nnet.forward.us": mean("nnet.forward", us),
        "nnet.forward.calls_per_iter": per_iter(count("nnet.forward")),
        "nnet.DenseNet.with_params.calls_per_iter": per_iter(count("nnet.DenseNet.with_params")),
        "nnet.sgd_step.us": mean("nnet.sgd_step", us),
        "weightnet.mw_jacobian.us": mean("weightnet.mw_jacobian", us),
        "weightnet.mw_jacobian.bytes": per_iter(sizes("weightnet.mw_jacobian")),
        "weightnet.mw_forward.us": mean("weightnet.mw_forward", us),
        "weightnet.mw_forward.calls_per_iter": per_iter(count("weightnet.mw_forward")),
        "harness.run_baseline.iter_ms": total("harness.run_baseline") / ms / baseline_iters if baseline_iters else 0.0,
        "biasgen.sample_batch.us": mean("biasgen.sample_batch", us),
        "biasgen.build.ms": sum(s.end_ns - s.start_ns for s in builds) / ms / n_builds if n_builds else 0.0,
        "config.load_config.ms": mean("config.load_config", ms),
        "harness.save_experiment.ms": mean("harness.save_experiment", ms),
        "harness.load_report.ms": mean("harness.load_report", ms),
        "harness.render_plots.ms": mean("harness.render_plots", ms),
        "svgplot.save_plot.ms": mean("svgplot.save_plot", ms),
        "metrics.monotonicity_score.ms": mean("metrics.monotonicity_score", ms),
    }
