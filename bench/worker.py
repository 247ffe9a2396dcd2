"""One workload in one fresh process; started by bench/run.py.

Times its own set-up from the first line (so `import metaweight` counts),
then runs passes until --seconds have gone by and prints one JSON object.
With --trace 1 untraced and traced passes alternate, so the tracing
overhead and the traced == untraced output check come from one process.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def blas_info() -> dict:
    """OpenBLAS version and thread count, read from the library numpy loaded."""
    import numpy as np  # already loaded by metaweight

    info = {"blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                info.update(openblas=get_config().decode(), blas_threads=get_threads())
                return info
    return info


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans-out", default="")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, BENCH_DIR)
    import workloads
    from tracing import layer_metrics, spans_from_rows

    wl = workloads.WORKLOADS[args.workload](os.getcwd(), args.seed, args.workdir)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes, spans = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        res = wl.run_pass(traced)
        if passes and res.digest != passes[0]["digest"]:
            for kind in res.runs:
                res.fail(kind, "outputs differ from the first pass" + (" (traced)" if traced else ""))
        spans += spans_from_rows(res.spans, offset=max((sp.id for sp in spans), default=-1) + 1)
        passes.append({
            "traced": traced,
            "seconds": sum(res.op_seconds.values()),
            "attempted": res.attempted,
            "failed": res.failed,
            "iters": res.iters,
            "updates": res.updates,
            "final_accs": res.final_accs,
            "op_seconds": res.op_seconds,
            "bytes_written": res.bytes_written,
            "digest": res.digest,
            "problems": res.problems,
        })
        # Start another pass only if most of it fits in the time left, so a
        # run measures about --seconds however long one pass takes.
        typical = sorted(q["seconds"] for q in passes)[len(passes) // 2]
        enough = not args.trace or len(passes) >= 2
        if enough and time.perf_counter() - start + typical / 2 >= args.seconds:
            break

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": workloads.peak_rss_mb(args.workload),
        "passes": passes,
        "env": environment(),
    }
    if args.trace:
        traced_s = sum(q["seconds"] for q in passes if q["traced"])
        out["layers"] = layer_metrics(spans, traced_s)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump([list(s) for s in spans], fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
