"""Print the resident memory of one process after each traced call of a
benchmark workload.

    python3 tools/memory_layers.py ROOT WORKLOAD [SEED]    # SEED: 0 by default

Builds the operations of ``ROOT/bench/workloads.py`` for WORKLOAD with the
code of ``ROOT/src`` and runs each of them once at SEED, gated as the
benchmark gates it, in this one process.  For the run every function of
``bench/tracing.TARGETS`` and ``sdp._reduce``, ``sdp._stack_factor`` and
``sdp._ipm`` is wrapped.  Each wrapped call, when it returns or raises,
prints one line: its name, indented by call depth (so a call's line follows
those of the calls it made), then ``VmHWM`` (the process's peak so far),
``RssAnon`` and ``RssFile`` from ``/proc/self/status``, in MB of 2^20 bytes
like the benchmark's ``peak_rss_mb``.  The first line is the state after
set-up, each operation's last line its gate failures.  Run it with
``OPENBLAS_NUM_THREADS=1`` for the figures quoted in ROADMAP.md and README.md.
"""

import functools
import sys
from pathlib import Path

FIELDS = ("VmHWM", "RssAnon", "RssFile")
INTERNALS = ("_reduce", "_stack_factor", "_ipm")


def status():
    """``FIELDS`` of this process, in MB."""
    found = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in FIELDS:
                found[key] = int(value.split()[0]) / 1024.0   # kB
    return [found[key] for key in FIELDS]


def show(label, depth):
    print(f"{'  ' * depth + label:<40}" + "".join(f"{v:10.2f}" for v in status()),
          flush=True)


def wrap(func, name, depth):
    """``func`` that shows ``name`` at its call depth when it returns or
    raises; ``depth`` is a one-element list shared by all wrappers."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        depth[0] += 1
        try:
            return func(*args, **kwargs)
        finally:
            depth[0] -= 1
            show(name, depth[0] + 1)
    return wrapper


def main(root, workload, seed="0"):
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import tracing
    import workloads
    from homsos import sdp
    targets = [(owner, attr, name) for owner, attr, name, _ in tracing.TARGETS]
    targets += [(sdp, attr, f"sdp.{attr}") for attr in INTERNALS]
    ops = workloads.build(workload, root)
    print(f"{'call':<40}" + "".join(f"{key:>10}" for key in FIELDS))
    show("set-up", 0)
    saved, depth = [], [0]
    try:
        for owner, attr, name in targets:
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, wrap(orig, name, depth))
        for op in ops:
            outcome = workloads.run_checked(op, int(seed))
            show(f"{op.name}: failures {outcome['failures']}", 0)
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)


if __name__ == "__main__":
    main(*sys.argv[1:])
