"""The metaweight benchmark: one workload, one seed, one measurement.

    python3 bench/run.py --workload {shipped,wide,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
src/, nothing is installed). Every workload runs in a fresh worker
process, closed loop, one operation at a time. With --trace 0 the last
line of output is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run instead.
Lines before it show every metric by name and unit, the environment and
any failed check. Work files and results go under .bench_out/.

The benchmark measures only the processes it starts and changes no
machine setting: no CPU pinning, no cache dropping, no thread-count
overrides. Metric definitions and the workloads' rationale are in
bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("shipped", "wide", "cli")
SETUP_PROBES = 4  # extra set-up-only processes; set-up is the median of these and the worker's
IMPORT_PROBES = 3
RUN_LIMIT_S = 170  # every child process is stopped by then
NOTE = "measures only its own processes; changes no machine setting (no CPU pinning, no cache dropping)"

def _layout_ok(root: str) -> bool:
    return all(
        os.path.isfile(os.path.join(root, rel))
        for rel in ("src/metaweight/__init__.py", "configs/noise40.json", "configs/imbalance20.json")
    )


def _child_env(root: str) -> dict:
    src = os.path.join(root, "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _worker(root: str, args: list[str], deadline: float) -> dict:
    """Run worker.py in its own process group, so that on timeout the CLI
    commands it started are stopped with it."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args],
        cwd=root, env=_child_env(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:  # timeout or interrupt: stop the whole group, then re-raise
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing metaweight, and scipy (scipy.stats loads
    lazily, so its parts appear as separate scipy.* subtrees), from
    `-X importtime` output."""
    lines = []
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            lines.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
    found = {"metaweight": 0.0, "scipy.stats": 0.0}
    stack = []  # ancestors of the current line: children are printed before parents
    for depth, name, cumulative in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == "metaweight":
            found["metaweight"] = cumulative
        elif name.startswith("scipy") and not parent.startswith("scipy"):
            found["scipy.stats"] += cumulative
        stack.append((depth, name))
    return found


def import_times(root: str) -> dict[str, float]:
    """Import times in a fresh interpreter, median of IMPORT_PROBES runs."""
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import metaweight"],
            cwd=root, env=_child_env(root), capture_output=True, text=True, timeout=30,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        runs.append(parse_importtime(proc.stderr))
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def best_times(passes: list[dict]) -> dict[str, float]:
    """Each kind of operation's shortest time over the passes."""
    kinds = passes[0]["op_seconds"]
    return {k: min(p["op_seconds"][k] for p in passes) for k in kinds}


def best_update_rate(passes: list[dict]) -> float:
    """Classifier updates per second at the best speed the run saw: each
    training run (the same position in every pass) contributes its T
    updates at its fastest update time over all passes."""
    first = passes[0]["updates"]
    best_s = sum(T * min(p["updates"][j][1] for p in passes if len(p["updates"]) > j) for j, (T, _) in enumerate(first))
    return sum(T for T, _ in first) / (best_s / 1e9) if best_s else 0.0


def end_to_end(setups: list[float], result: dict) -> dict[str, float]:
    """Every end-to-end figure; BENCHMARK.json bounds those that repeat
    from run to run on a shared host, the others are printed and recorded."""
    passes = result["passes"]
    best = best_times(passes)
    accs = [a for p in passes for a in p["final_accs"]]
    return {
        "setup_s": statistics.median(setups),
        "iters_per_s": best_update_rate(passes),
        "peak_rss_mb": result["peak_rss_mb"],
        "final_acc": statistics.fmean(accs) if accs else 0.0,
        "run_s": sum(best.values()),
        "cmd_p50_s": statistics.median(best.values()),
        "median_pass_s": statistics.median(p["seconds"] for p in passes),
    }


def per_layer(root: str, result: dict) -> dict[str, float]:
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = dict(result["layers"])
    imports = import_times(root)
    metrics.update({
        "import.metaweight_s": imports["metaweight"],
        "import.scipy_stats_s": imports["scipy.stats"],
        "import.cmd_share": imports["metaweight"] / statistics.median(best_times(plain).values()),
        "harness.bytes_written": float(statistics.median(p["bytes_written"] for p in plain)),
        "trace.run_s": sum(best_times(traced).values()),
        "trace.untraced_run_s": sum(best_times(plain).values()),
    })
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    metrics["trace.identical"] = float(all(p["digest"] == passes[0]["digest"] for p in passes))
    for sub in ("gen-data", "train", "report", "probe", "gradcheck"):
        times = [p["op_seconds"][sub] for p in plain if sub in p["op_seconds"]]
        metrics[f"cli.{sub}.p50_s"] = statistics.median(times) if times else 0.0
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not _layout_ok(root):
        print("error: run from the root of a metaweight checkout (src/metaweight and configs/ not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    out_root = os.path.join(root, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_PROBES):
                probe = _worker(root, common + ["--setup-only", "--workdir", os.path.join(workdir, f"probe{k}")],
                                deadline)
                setups.append(probe["setup_s"])
        result = _worker(
            root,
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--workdir", os.path.join(workdir, "run"),
                      "--spans-out", os.path.join(out_root, f"spans-{tag}.json") if args.trace else ""],
            deadline,
        )
        setups.append(result["setup_s"])
        if args.trace:
            metrics = per_layer(root, result)
            listed = spec["per_layer"]
        else:
            metrics = end_to_end(setups, result)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"]
    attempted = sum(q["attempted"] for q in passes)
    failed = sum(q["failed"] for q in passes)
    env = dict(result["env"], commit=git_commit(root))
    problems = [why for q in passes for why in q["problems"]]

    print(f"metaweight benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(passes)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"note: {NOTE}")
    units = {m["name"]: m["unit"] for m in listed}
    kinds = len(passes[0]["op_seconds"])
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "iters_per_s": f"each training run at its fastest update over {len(passes)} passes",
        "run_s": f"sum over {kinds} kinds of operation of each one's best of {len(passes)} passes",
        "cmd_p50_s": f"median over {kinds} kinds of operation of each one's best of {len(passes)} passes",
        "median_pass_s": f"median wall time of {len(passes)} passes",
    }
    extra_units = {"run_s": "s", "cmd_p50_s": "s", "median_pass_s": "s"}
    for name, unit in list(units.items()) + [(k, u) for k, u in extra_units.items() if not args.trace]:
        label = name if name in units else f"{name} (not bounded)"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {label:44s} {metrics[name]:.6g} {unit}{note}")
    print(f"  {'fail_frac':44s} {failed / attempted:.6g} fraction  ({failed} of {attempted} operations failed)")
    for why in problems:
        print(f"  FAILED CHECK: {why}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "note": NOTE, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "problems": problems, "setups_s": setups,
        "metrics": metrics, "passes": passes,
    }
    with open(os.path.join(out_root, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
