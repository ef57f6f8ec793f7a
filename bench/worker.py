"""One measured pass of a workload in a fresh process.

Started by ``run.py``; prints one JSON object on stdout.  Set-up runs from
process start (``--t0``, taken by the parent on the same monotonic clock
just before it starts this process) until the imports are done and the
workload's problems are built.  The pass then runs every operation once
and gates its result.  With ``--setup-only`` the process stops after set-up.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_info():
    """OpenBLAS libraries loaded in this process and their thread counts."""
    libs = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            libs.append(entry)
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    entry["threads"] = get_threads()
                    entry["config"] = get_config().decode()
        libs.append(entry)
    return libs


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_info(),
            "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                     "MKL_NUM_THREADS") if k in os.environ}}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans", default=None, help="trace the pass and write its spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import homsos
    import tracing
    import workloads
    if not os.path.realpath(homsos.__file__).startswith(os.path.realpath(args.root) + os.sep):
        sys.exit(f"homsos imported from {homsos.__file__}, not from {args.root}")
    ops = workloads.build(args.workload, args.root)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = tracing.Tracer() if args.spans else None
    outcomes = []
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    try:
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = f"{i}:{op.name}"
            op_start = time.perf_counter()
            outcome = workloads.run_checked(op, args.seed)
            outcome["wall_s"] = time.perf_counter() - op_start
            outcomes.append(outcome)
    finally:
        if tracer:
            tracer.close()
    wall_s, cpu_s = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = environment()
    threads = sorted({b.get("threads") for b in env["blas"]}, key=str)
    for outcome in outcomes:
        outcome["regressions"] = workloads.regressions(outcome, args.seed, threads)
    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb, "outcomes": outcomes, "env": env}
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["restored"] = tracing.restored()
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
