"""The work of a training run, counted by tools/count_calls.py: the events
in package frames are the same on every run in a process after the first,
and at or below a committed budget per run kind."""

import importlib.util
import os

import numpy as np

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
# Events for two epochs (12 iterations) of the counter's CONFIG (noise40)
# and SEED (1), counted with NumPy 2.4.6 (one 600-iteration run reads 241.8
# per learned iteration and 116.2 per uniform-rule one). A change that
# lowers a count lowers its budget.
BUDGET_NUMPY = "2.4.6"
BUDGET = {"learned": 3395, "uniform": 1718}


def load_counter():
    spec = importlib.util.spec_from_file_location("count_calls", os.path.join(ROOT, "tools", "count_calls.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_count_the_same_events_within_the_budget():
    counter = load_counter()
    kinds, T = counter.runs(epochs=2)
    assert T == 12 and sorted(kinds) == sorted(BUDGET)
    for kind, run in kinds.items():
        counts = counter.count_events(run)
        assert counter.count_events(run) == counts, kind
        total = sum(counts.values())
        assert total <= BUDGET[kind], (
            f"{kind}: {total} events ({counts}) past the budget of {BUDGET[kind]}, "
            f"counted with NumPy {np.__version__} (budget with NumPy {BUDGET_NUMPY})"
        )
