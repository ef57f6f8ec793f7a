"""homsos benchmark: run one workload, gate every result, print the metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload battery --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``battery``, ``unattained``, ``large_sdp``.

Each measured pass is a fresh ``worker.py`` process with the BLAS defaults a
user gets (no thread variables are set, no warm-up solve), so every pass pays
interpreter start-up, imports and first-call costs.  Passes repeat until
``--seconds`` have elapsed (at least one); set-up is also measured in a few
set-up-only processes.  Reported values are medians over the passes.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, ``cpu_s``,
``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics of the traced passes, with
the tracing overhead.  Each operation counts once in ``attempted`` and
``failed``, whatever the number of passes, since every pass must agree; the
number of passes a failure occurs in is printed with it.  ``correct`` is
false when an operation fails a check that the baseline commit passes
(``workloads.regressions``), or when passes of the same seed, traced or not,
disagree on a bound, a status or a failed check.  Details go to
``bench/out/``.

One run has ``BUDGET_S`` seconds.  With ``--trace 1`` an untraced and a
traced pass must both fit in it: a workload or host that makes one pass take
more than about 80 s ends the run with an error and no result.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("battery", "unattained", "large_sdp")
BUDGET_S = 170.0        # every run ends well within 180 s
SETUP_SAMPLES = 5       # set-up times per run, from passes and set-up-only processes
BOUND_RTOL = 1e-7       # bounds of two passes at the same seed agree to this

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer times that are zero by construction on some workload: battery and
# large_sdp never enter cli, unattained has no certificate and no restart.
# They are printed and kept in the detail file, but left out of the result
# line, whose times are all measured values.
PRINT_ONLY = ("cli.parse_s", "cli.self_s", "relax.certificate_s", "sdp.restart_s")


class BenchError(RuntimeError):
    pass


def _worker(args, deadline, *extra):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the pass could start")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--root", str(ROOT), "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass ran out of time: one run has {BUDGET_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rounds(args, start, deadline, round_passes):
    """Run rounds of passes (the extra worker arguments of round r are
    ``round_passes(r)``) until --seconds have elapsed or another round would
    not fit before the deadline."""
    passes = []
    for r in itertools.count():
        t = time.monotonic()
        passes += [_worker(args, deadline, *extra) for extra in round_passes(r)]
        now = time.monotonic()
        if now - start >= args.seconds or now + 1.5 * (now - t) > deadline:
            return passes


def _fingerprint(outcomes):
    return [(o["name"], o["statuses"], o["bound"], o["failures"]) for o in outcomes]


def _same(a, b):
    """Two passes at one seed agree on every status, bound and failed check."""
    for (na, sa, ba, fa), (nb, sb, bb, fb) in zip(_fingerprint(a), _fingerprint(b)):
        if na != nb or sa != sb or fa != fb or (ba is None) != (bb is None):
            return False
        if ba is not None and abs(ba - bb) > BOUND_RTOL * (1.0 + abs(ba)):
            return False
    return len(a) == len(b)


def _gate(passes):
    """(attempted, failed, any regression, failure lines) of a run.

    Each operation counts once, with its outcome in the first pass; the
    caller checks that the other passes agree.  A failure line names the
    operation, its failed checks and the number of passes it occurs in."""
    first = passes[0]["outcomes"]
    outcomes = [o for p in passes for o in p["outcomes"]]
    lines = Counter(
        f"{o['name']}: {', '.join(o['failures'])} (bound {o['bound']}, f(u_ref) {o.get('f_ref')}, "
        f"statuses {o['statuses']}){' ' + o['error'] if o.get('error') else ''}"
        f"{' [regression: ' + ', '.join(o['regressions']) + ']' if o['regressions'] else ''}"
        for o in outcomes if o["failures"])
    lines = [f"{line} in {n} of {len(passes)} passes" for line, n in lines.items()]
    return (len(first), sum(bool(o["failures"]) for o in first),
            any(o["regressions"] for o in outcomes), lines)


def _describe_env(env):
    blas = "; ".join(f"{b['library']} threads={b.get('threads')} ({b.get('config', '?')})"
                     for b in env["blas"])
    return (f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
            f"scipy={env['scipy']} blas=[{blas}] blas_env={env['blas_env'] or 'unset'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    missing = [p for p in ("src/homsos/__init__.py", "problems/escape_directions.pop",
                           "problems/unattained.pop") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a homsos checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for old in OUT.glob(f"{stem}-spans*.json"):
        old.unlink()
    start = time.monotonic()
    deadline = start + BUDGET_S

    if args.trace:
        runs = _rounds(args, start, deadline,
                       lambda r: [(), ("--spans", str(OUT / f"{stem}-spans{r}.json"))])
    else:
        runs = _rounds(args, start, deadline, lambda r: [()])
    setups = [p["setup_s"] for p in runs]
    while len(setups) < SETUP_SAMPLES and time.monotonic() + 5.0 < deadline:
        setups.append(_worker(args, deadline, "--setup-only")["setup_s"])

    attempted, failed, regressed, lines = _gate(runs)
    consistent = all(_same(runs[0]["outcomes"], p["outcomes"]) for p in runs[1:])
    correct = not regressed and consistent
    plain = [p for p in runs if "layers" not in p]
    traced = [p for p in runs if "layers" in p]
    med = {k: statistics.median(p[k] for p in plain) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    med["setup_s"] = statistics.median(setups)

    if args.trace:
        units = {k: u for k, (_, u) in traced[0]["layers"].items()}
        layers = {k: statistics.median(p["layers"][k][0] for p in traced) for k in units}
        unsteady = sorted(k for k in units if units[k] == "count"
                          and len({p["layers"][k][0] for p in traced}) > 1)
        overhead = statistics.median(p["wall_s"] for p in traced) - med["wall_s"]
        units["trace.overhead_s"], layers["trace.overhead_s"] = "s", overhead
        correct = correct and all(p["restored"] for p in traced)
        shown = {k: {"value": layers[k], "unit": units[k]} for k in units}
        metrics = {k: v for k, v in shown.items() if k not in PRINT_ONLY}
    else:
        unsteady, overhead = [], None
        shown = metrics = {k: {"value": med[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    env = runs[0]["env"]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": correct, "consistent": consistent,
              "attempted": attempted, "failed": failed, "failures": lines,
              "setup_samples": setups, "metrics": shown, "unsteady_counts": unsteady,
              "passes": [{k: v for k, v in p.items() if k != "env"} for p in runs]}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {attempted} operations")
    print(f"environment: {_describe_env(env)}")
    for k, m in shown.items():
        print(f"  {k:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':28s} {failed / attempted:.6g} ratio "
          f"({failed} failed / {attempted} attempted)")
    for line in lines:
        print(f"  failed: {line}")
    if not consistent:
        print("  passes at this seed disagree on a bound or a status")
    if unsteady:
        print(f"  counts that differ between traced passes: {', '.join(unsteady)}")
    if overhead is not None:
        print(f"  tracing overhead: {overhead:.4f} s over an untraced median of "
              f"{med['wall_s']:.4f} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
