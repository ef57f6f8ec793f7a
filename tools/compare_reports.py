"""Compare two outputs of ``tools/dump_reports.py``.

    python3 tools/compare_reports.py A.json B.json

Prints each operation whose fields differ outside the numeric report fields
below (statuses, bounds, points, flat_t, verdicts, gate labels and the
rest), with the paths that differ, and then the largest absolute drift of
each numeric field between the two runs.  Exits 1 when an operation
differs outside those fields or is missing from one side, else 0.
"""

import json
import math
import sys

# report fields computed from a least-squares or SVD step, whose last bits
# may move when that step is factored differently
NUMERIC = ("certificate_residual", "multipliers", "fooc_residual", "scc_margin",
           "sosc_margin", "licq_min_sv", "lambda0", "lambda_bar")


def drift(a, b):
    """Largest absolute difference between the floats of ``a`` and ``b``
    (hex strings as ``dump_reports`` writes them); inf where their shapes
    differ or a value is matched by neither an equal one nor a float."""
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return math.inf
        return max((drift(a[key], b[key]) for key in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((drift(x, y) for x, y in zip(a, b)), default=0.0)
    if a == b:
        return 0.0
    try:
        diff = abs(float.fromhex(a) - float.fromhex(b))
    except (TypeError, ValueError):
        return math.inf
    return diff if math.isfinite(diff) else math.inf


def differences(a, b, path, drifts):
    """Paths below ``path`` where ``a`` and ``b`` differ outside the numeric
    fields; the numeric fields' drifts go into ``drifts``."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append(f"{path}/{key}")
            elif key in NUMERIC:
                drifts[key] = max(drifts[key], drift(a[key], b[key]))
            else:
                out += differences(a[key], b[key], f"{path}/{key}", drifts)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in differences(x, y, f"{path}/{i}", drifts)]
    return [] if a == b else [path]


def main(path_a, path_b):
    with open(path_a) as fh:
        dump_a = json.load(fh)
    with open(path_b) as fh:
        dump_b = json.load(fh)
    drifts = dict.fromkeys(NUMERIC, 0.0)
    ops = sorted(set(dump_a) | set(dump_b))
    failed = 0
    for op in ops:
        if op not in dump_a or op not in dump_b:
            print(f"{op}: only in {path_a if op in dump_a else path_b}")
            failed += 1
            continue
        diff = differences(dump_a[op], dump_b[op], "", drifts)
        if diff:
            print(f"{op}: {', '.join(diff)}")
            failed += 1
    print(f"{failed} of {len(ops)} operations differ outside the numeric fields")
    for key in NUMERIC:
        print(f"  max drift {key}: {drifts[key]:.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
