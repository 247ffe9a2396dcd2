"""Each demo script runs to completion against the current package and
prints its table. The scripts run in this process, as `__main__` with no
arguments, which skips a fresh interpreter's start-up and imports."""

import glob
import os
import runpy
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))

# Each script's table: its header line, then one row per seed, instance
# or grid point, each starting with a number.
TABLE_HEADERS = {
    "class_imbalance.py": ("seed", "curve rho", "recall per class (mwnet)", "recall per class (uniform)"),
    "gradient_exactness.py": ("instance", "mode", "|analytic|", "rel err"),
    "noisy_labels.py": ("seed", "clean w", "noisy w", "gap", "curve rho", "acc (mwnet)", "acc (uniform)"),
    "weighting_curve.py": ("loss", "untrained", "noise-trained", "imbalance-trained"),
}


@pytest.mark.parametrize("script", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script])
    try:
        runpy.run_path(script, run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None), f"{os.path.basename(script)} exited with {exc.code!r}"
    out, err = capsys.readouterr()
    lines = out.splitlines()
    header = TABLE_HEADERS[os.path.basename(script)]
    starts = [k for k, line in enumerate(lines) if all(h in line for h in header)]
    assert len(starts) == 1, out
    rows = lines[starts[0] + 1:]
    assert rows and rows[0].split()[0].replace(".", "", 1).isdigit(), out
    assert not err, err
