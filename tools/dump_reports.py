"""Print every benchmark operation's report as sorted JSON, floats in hex.

    python3 tools/dump_reports.py ROOT SEEDS      # SEEDS: 3, or a range 0-9

Runs each operation of ``ROOT/bench/workloads.py`` at each seed with the code
of ``ROOT/src``.  Equal outputs from two checkouts mean the same bits: every
``to_dict()`` or CLI JSON, each record's ``bound``, an infinity report's
``bound``, ``status``, ``points``, ``values`` and ``positive``, and under
``gate`` the labels of the benchmark gate checks the operation fails
(``workloads.check``).
"""

import json
import sys
from pathlib import Path

import numpy as np


def hexed(value):
    """``value`` with every float written by ``float.hex``."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, dict):
        return {str(k): hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def report(result, driver):
    if isinstance(result, driver.HierarchyReport):
        out = result.to_dict()
        out["bounds"] = [rec.bound for rec in result.records]
        if isinstance(result, driver.InfinityReport):
            out.update(bound=result.bound, status=result.status,
                       points=result.points, values=result.values,
                       positive=result.positive)
        return out
    return {"code": result.code, "report": result.report}


def main(root, seeds):
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from homsos import driver
    lo, _, hi = seeds.partition("-")
    dump = {}
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, root):
            for seed in range(int(lo), int(hi or lo) + 1):
                result = op.call(seed)
                dump[f"{name}/{op.name}/{seed}"] = dict(
                    report(result, driver), gate=workloads.check(op, result))
    print(json.dumps(hexed(dump), sort_keys=True, indent=1))


if __name__ == "__main__":
    main(*sys.argv[1:])
