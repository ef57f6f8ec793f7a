"""Workloads of the benchmark and the correctness gate applied to each
operation.

An operation is one public homsos call (``driver.solve_pop``,
``driver.minimizers_at_infinity`` or ``cli.run``).  The gate fails an
operation when it raises, when ``cli.run`` exits with a code other than 0,
when it reports no bound, when its bound is above the objective's value at a
known feasible point ``u_ref`` (so it is not a lower bound), or when it
misses one of the outcomes pinned by the acceptance criteria 1-10 of the
test suite.  A failure that the baseline commit does not show is a
regression (``regressions``) and makes the run incorrect.  The callables look the homsos functions up through their
module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from homsos import cli, driver

import problems as P

WORKLOADS = ("battery", "unattained", "large_sdp")

# Slack of the lower-bound check: bound <= f(u_ref) + LOWER_BOUND_SLACK * (1 + |f(u_ref)|).
LOWER_BOUND_SLACK = 1e-6

# Gate checks whose failure means that an operation gave no answer.
NO_ANSWER = ("raised", "exit code", "no bound")

# Gate failures of the baseline commit (ec548b6, see BASELINE.json), by
# operation: (the seeds at which they occur, or None for every seed; the
# labels).  Each seed of RECORDED_SEEDS was run with RECORDED_BLAS_THREADS
# threads in every loaded BLAS library; outcomes move with the thread count.
# unattained_quartic reports the moment-side value 1.03e-3 as its bound
# although f(1e-3, 1e3) = 1e-12, the uncertified-bound defect of ROADMAP
# item 1; chain_with_product at order 2 hits the iteration limit without a
# bound; stalled restarts of motzkin_like_cubic and robinson_like_cubic miss
# their minimizers and escape directions at some seeds.
BASELINE_FAILURES = {
    "unattained_quartic": (None, ("not a lower bound",)),
    "chain_k2": (None, ("no bound",)),
    "motzkin_like_cubic": ({1, 5, 7, 8, 13, 15, 19, 21, 23, 28},
                           ("minimizer (1, 1)", "escape directions (1, 0), (0, 1)",
                            "two escape directions")),
    "robinson_like_cubic": ({26}, ("three minimizers", "minimizers (1, 1), (0, 1), (1, 0)",
                                   "escape direction (s, s)", "one escape direction")),
}
RECORDED_SEEDS = range(30)
RECORDED_BLAS_THREADS = 2


@dataclass
class CliResult:
    code: int
    report: dict | None
    stderr: str


@dataclass
class Operation:
    name: str
    call: Callable[[int], object]        # seed -> HierarchyReport, InfinityReport or CliResult
    objective: object                    # Polynomial whose value at u_ref caps the bound
    feasible_set: object                 # PopProblem in which every u_ref is feasible
    refs: list                           # known feasible points u_ref
    criteria: Callable[[object], list] = lambda result: []   # result -> [(label, thunk)]
    f_ref: float = field(init=False)

    def __post_init__(self):
        self.f_ref = min(self.objective.eval(np.asarray(u, dtype=float))
                         for u in self.refs)


def match_points(points, references, tol):
    """Every reference point has a point within tol."""
    points = [np.asarray(p, dtype=float) for p in points]
    return all(any(np.linalg.norm(p - np.asarray(ref, dtype=float)) <= tol
                   for p in points) for ref in references)


def _pts(rec):
    return [pt for pt, _ in rec.minimizers]


def _converged_record(rep):
    return rep.records[rep.convergence_order - rep.records[0].k]


# -- acceptance criteria 1-10, one list of (label, thunk) per operation -----

def _cubic_unbounded(rep):
    rec = lambda: _converged_record(rep)
    regs = lambda: [r for r in rec().optcond if r.location_kind == "regular"]
    return [
        ("converged by order 4", lambda: rep.converged and rep.convergence_order <= 4),
        ("bound -1-2*sqrt(3)/9", lambda: abs(rep.best_bound - P.CUBIC_MIN) <= 1e-4),
        ("minimizer", lambda: match_points(_pts(rec()), [P.CUBIC_ARGMIN], 1e-3)),
        ("one regular optimality check", lambda: len(regs()) == 1),
        ("licq, scc and sosc", lambda: all(r.licq and r.scc and r.sosc for r in regs())),
        ("multipliers (1, 0)", lambda: abs(regs()[0].multipliers["ineq0"] - 1.0) <= 1e-4
         and abs(regs()[0].multipliers["ineq1"]) <= 1e-4),
    ]


def _product_quartic(k):
    def criteria(rep):
        rec = lambda: rep.records[-1]
        return [
            (f"order {k}", lambda: rec().k == k),
            ("bound 0.0763", lambda: abs(rec().bound - 0.0763) <= 2e-3),
            ("symmetric minimizer", lambda: match_points(_pts(rec()), [0.5757 * np.ones(4)], 1e-2)),
        ]
    return criteria


def _motzkin(rep):
    rec = lambda: rep.records[-1]
    return [
        ("order 3", lambda: rec().k == 3),
        ("bound -1", lambda: abs(rec().bound + 1.0) <= 1e-3),
        ("minimizer (1, 1)", lambda: match_points(_pts(rec()), [(1.0, 1.0)], 1e-3)),
        ("escape directions (1, 0), (0, 1)", lambda: match_points(
            rec().minimizers_at_infinity, [(1.0, 0.0), (0.0, 1.0)], 1e-3)),
        ("two escape directions", lambda: len(rec().minimizers_at_infinity) == 2),
    ]


def _choi(rep):
    rec = lambda: rep.records[0]
    return [
        ("order 2", lambda: rec().k == 2),
        ("bound 0", lambda: abs(rec().bound) < 1e-5),
        ("minimizers (1, 1), (0, 0)", lambda: match_points(_pts(rec()), [(1.0, 1.0), (0.0, 0.0)], 1e-3)),
        ("two minimizers", lambda: len(_pts(rec())) == 2),
        ("escape directions (1, 0), (0, 1)", lambda: match_points(
            rec().minimizers_at_infinity, [(1.0, 0.0), (0.0, 1.0)], 1e-3)),
    ]


def _robinson(rep):
    rec = lambda: rep.records[0]
    return [
        ("order 2", lambda: rec().k == 2),
        ("bound -1", lambda: abs(rec().bound + 1.0) <= 1e-3),
        ("three minimizers", lambda: len(rec().minimizers) == 3),
        ("minimizers (1, 1), (0, 1), (1, 0)", lambda: match_points(
            _pts(rec()), [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0)], 1e-3)),
        ("escape direction (s, s)", lambda: match_points(rec().minimizers_at_infinity, [(P.S2, P.S2)], 1e-3)),
        ("one escape direction", lambda: len(rec().minimizers_at_infinity) == 1),
    ]


def _sextic(rep):
    rec = lambda: rep.records[0]
    return [
        ("order 3", lambda: rec().k == 3),
        ("bound 0", lambda: abs(rec().bound) < 1e-4),
        ("minimizers (-1, 0), (0, -1)", lambda: match_points(_pts(rec()), [(-1.0, 0.0), (0.0, -1.0)], 1e-3)),
        ("two escape directions", lambda: len(rec().minimizers_at_infinity) == 2),
        ("escape directions (s, -s), (-s, s)", lambda: match_points(
            rec().minimizers_at_infinity, [(P.S2, -P.S2), (-P.S2, P.S2)], 2e-3)),
    ]


def _norm_hyperbolas(rep):
    rec = lambda: rep.records[-1]
    refs = [(s1 * 2.4142, s2 * 1.0) for s1 in (1, -1) for s2 in (1, -1)]
    return [
        ("order 3", lambda: rec().k == 3),
        ("bound 6.8284", lambda: abs(rec().bound - 6.8284) <= 1e-3),
        ("four minimizers", lambda: len(rec().minimizers) == 4),
        ("minimizers (+-2.4142, +-1)", lambda: match_points(_pts(rec()), refs, 1e-3)),
        ("no escape directions", lambda: rec().minimizers_at_infinity == []),
    ]


def _single_order(k, bound, minimizer, tol):
    def criteria(rep):
        rec = lambda: rep.records[0]
        return [
            (f"order {k}", lambda: rec().k == k),
            (f"bound {bound}", lambda: abs(rec().bound - bound) <= 1e-3),
            ("minimizer", lambda: match_points(_pts(rec()), [minimizer], tol)),
        ]
    return criteria


def _unattained_quartic(rep):
    return [
        ("bound in [-1e-4, 1e-2]", lambda: -1e-4 <= rep.best_bound <= 1e-2),
        ("no flat truncation", lambda: all(r.flat_t is None for r in rep.records)),
        ("not converged", lambda: not rep.converged),
        ("unattained diagnosis", lambda: "optimum likely unattained" in rep.diagnosis),
    ]


def _escape_directions_cli(refs, count):
    def criteria(res):
        pts = lambda: [m["point"] for m in res.report["records"][0]["minimizers_at_infinity"]]
        return [
            ("bound 0", lambda: abs(res.report["final"]["best_bound"]) < 1e-6),
            (f"{count} escape directions", lambda: len(pts()) == count),
            ("escape directions", lambda: match_points(pts(), refs, 1e-3)),
        ]
    return criteria


def _chain_infinity(rep):
    return [
        ("bound 0", lambda: abs(rep.bound) < 1e-6),
        ("escape direction e5", lambda: match_points(rep.points, [(0, 0, 0, 0, 1.0)], 1e-3)),
    ]


# -- workloads -----------------------------------------------------------------

def _hierarchy(name, prob, k_min, k_max, refs, criteria):
    def call(seed):
        return driver.solve_pop(prob, driver.DriverOptions(k_min=k_min, k_max=k_max, seed=seed))
    return Operation(name, call, prob.objective, prob, refs, criteria)


def battery():
    """The ten hierarchy runs of the test suite's reference battery."""
    s = 1.0 + math.sqrt(2.0)
    return [
        _hierarchy("cubic_unbounded", P.cubic_unbounded(), 2, 4, [P.CUBIC_ARGMIN], _cubic_unbounded),
        _hierarchy("product_quartic", P.product_quartic(), 3, 3, [0.5757 * np.ones(4)], _product_quartic(3)),
        _hierarchy("motzkin_like_cubic", P.motzkin_like_cubic(), 3, 3, [(1.0, 1.0)], _motzkin),
        _hierarchy("choi_like_cubic", P.choi_like_cubic(), 2, 2, [(1.0, 1.0), (0.0, 0.0)], _choi),
        _hierarchy("robinson_like_cubic", P.robinson_like_cubic(), 2, 2,
                   [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0)], _robinson),
        _hierarchy("sextic_on_line", P.sextic_on_line(), 3, 3, [(-1.0, 0.0), (0.0, -1.0)], _sextic),
        _hierarchy("norm_over_hyperbolas", P.norm_over_hyperbolas(), 2, 3,
                   [(a * s, b) for a in (1, -1) for b in (1, -1)], _norm_hyperbolas),
        _hierarchy("perturbed_robinson_3d", P.perturbed_robinson_3d(), 2, 2, [(0.6979, 0.6980, 0.6978)],
                   _single_order(2, 0.4708, (0.6979, 0.6980, 0.6978), 2e-3)),
        _hierarchy("shifted_cubic_corner", P.shifted_cubic_corner(), 2, 2, [(1.0, 1.0)],
                   _single_order(2, 2.0, (1.0, 1.0), 1e-3)),
        _hierarchy("unattained_quartic", P.unattained_quartic(), 2, 4, [(1e-3, 1e3)], _unattained_quartic),
    ]


def unattained(root):
    """The user flow for an unattained infimum, through ``cli.run`` and ``driver``."""
    ops = []
    for name, path, extra, refs in [
            ("escape_directions_cli", "problems/escape_directions.pop", ["--order", "3"],
             [(1.0, 0.0), (-1.0, 0.0), (P.S2, -P.S2), (-P.S2, P.S2)]),
            ("unattained_cli", "problems/unattained.pop", [], [(0.0, 1.0), (0.0, -1.0)])]:
        path = Path(root) / path
        prob, _, _ = cli.parse_problem(path.read_text())
        sph = driver.sphere_restriction(prob)

        def call(seed, path=path, extra=extra):
            out, err = io.StringIO(), io.StringIO()
            code = cli.run([str(path), "--infinity", *extra, "--seed", str(seed)], out=out, err=err)
            text = out.getvalue()
            return CliResult(code, json.loads(text) if text else None, err.getvalue())
        ops.append(Operation(name, call, sph.objective, sph, refs,
                             _escape_directions_cli(refs, len(refs))))

    chain = P.chain_with_product()
    ops.append(Operation(
        "chain_k2", lambda seed: driver.solve_pop(chain, driver.DriverOptions(seed=seed)),
        chain.objective, chain, [(0.0, 0.0, 0.0, 2e-4, 1e4)]))
    sph = driver.sphere_restriction(chain)
    ops.append(Operation(
        "chain_infinity_k2",
        lambda seed: driver.minimizers_at_infinity(chain, 2, driver.DriverOptions(seed=seed)),
        sph.objective, sph, [(0.0, 0.0, 0.0, 0.0, 1.0)], _chain_infinity))
    return ops


def large_sdp():
    """One large SDP: product_quartic at order 4."""
    return [_hierarchy("product_quartic_k4", P.product_quartic(), 4, 4,
                       [0.5757 * np.ones(4)], _product_quartic(4))]


def build(name, root):
    """The operations of a workload; building them is part of set-up."""
    if name == "battery":
        return battery()
    if name == "unattained":
        return unattained(root)
    if name == "large_sdp":
        return large_sdp()
    raise ValueError(f"unknown workload {name!r}")


# -- the gate ------------------------------------------------------------------

def summarize(result):
    """(exit code, bound, statuses, converged) of any operation result."""
    if isinstance(result, CliResult):
        rep = result.report or {"records": [], "final": {}}
        return (result.code, rep["final"].get("best_bound"),
                [r["status"] for r in rep["records"]], bool(rep["final"].get("converged")))
    if isinstance(result, driver.InfinityReport):
        return None, result.bound, [result.status], result.status == "optimal"
    return None, result.best_bound, [r.status for r in result.records], bool(result.converged)


def check(op, result):
    """Labels of the gate checks the result fails (empty when it passes)."""
    code, bound, _, _ = summarize(result)
    failures = []
    if code not in (None, 0):
        failures.append("exit code")
    if bound is None:
        failures.append("no bound")
    elif bound > op.f_ref + LOWER_BOUND_SLACK * (1.0 + abs(op.f_ref)):
        failures.append("not a lower bound")
    for label, thunk in op.criteria(result):
        try:
            ok = bool(thunk())
        except (TypeError, ValueError, IndexError, KeyError, AttributeError):
            ok = False
        if not ok:
            failures.append(label)
    return failures


def run_checked(op, seed):
    """Run one operation and gate it; returns a JSON-ready outcome."""
    try:
        result = op.call(seed)
    except Exception as exc:  # a raising operation is a failed operation
        return {"name": op.name, "failures": ["raised"], "error": f"{type(exc).__name__}: {exc}",
                "code": None, "bound": None, "statuses": [], "converged": False}
    code, bound, statuses, converged = summarize(result)
    return {"name": op.name, "failures": check(op, result),
            "code": code, "bound": None if bound is None else float(bound),
            "statuses": statuses, "converged": converged, "f_ref": op.f_ref}


def regressions(outcome, seed, blas_threads):
    """Gate failures of an outcome that the baseline commit does not show.

    ``blas_threads`` lists the thread counts of the loaded BLAS libraries.
    At a recorded seed and thread count every failure the baseline commit
    does not show there counts.  Elsewhere only a missing answer counts,
    unless the baseline commit shows it: its wrong and incomplete answers
    come and go with the seed and the thread count (sextic_on_line reports
    2.4e-6 above f = 0 at seed 38).
    """
    seeds, labels = BASELINE_FAILURES.get(outcome["name"], (None, ()))
    if seed in RECORDED_SEEDS and list(blas_threads) == [RECORDED_BLAS_THREADS]:
        expected = labels if seeds is None or seed in seeds else ()
        return [f for f in outcome["failures"] if f not in expected]
    return [f for f in outcome["failures"] if f in NO_ANSWER and f not in labels]
