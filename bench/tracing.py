"""Span tracing of homsos from outside the package, and the per-layer metrics
computed from the spans.

The tracer replaces public module attributes with timing wrappers and puts
the originals back when it is closed.  This reaches every call because
``driver`` calls ``relax``, ``sdp``, ``extract`` and ``optcond`` through the
module attribute, ``sdp.solve_with_restarts`` looks ``solve`` up in its
module globals, ``sdp.solve`` calls ``inst.validate()`` through the class,
and ``cli.run`` looks up ``parse_problem`` and ``driver`` at call time.
``poly`` is not wrapped: its calls are too fine-grained to time one by one,
and its time shows inside ``relax.assemble`` and the ``optcond`` checks.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from homsos import cli, driver, extract, optcond, relax, sdp

STATUSES = ("optimal", "numerical_trouble", "iter_limit",
            "primal_infeasible", "dual_infeasible")


def _assemble(args, result):
    return {"moments": int(result.tms_dim), "eq_rows": int(result.eq_A.shape[0])}


def _attempt(args, result):
    inst = args[0]
    return {"iterations": int(result.iterations), "status": result.status.value,
            "free_dim": int(inst.dim - inst.A.shape[0]),
            "max_block": max((p.size for p in inst.pencils), default=0)}


def _orders(args, result):
    return {"orders": len(result.records)}


# (owner, attribute, span name, annotation of the result)
TARGETS = [
    (cli, "run", "cli.run", lambda a, r: {"code": r}),
    (cli, "parse_problem", "cli.parse_problem", None),
    (driver, "solve_pop", "driver.solve_pop", _orders),
    (driver, "minimizers_at_infinity", "driver.minimizers_at_infinity",
     lambda a, r: {"orders": 1}),
    (relax, "assemble", "relax.assemble", _assemble),
    (relax, "to_sdp_instance", "relax.to_sdp_instance", None),
    (relax, "sos_certificate_from_dual", "relax.sos_certificate_from_dual", None),
    (sdp, "solve_with_restarts", "sdp.solve_with_restarts", None),
    (sdp, "solve", "sdp.solve", _attempt),
    (sdp.SdpInstance, "validate", "sdp.SdpInstance.validate", None),
    (extract, "flat_truncation", "extract.flat_truncation",
     lambda a, r: {"found": r is not None}),
    (extract, "extract_atoms", "extract.extract_atoms", lambda a, r: {"atoms": len(r)}),
    (extract, "classify", "extract.classify", None),
    (optcond, "check_regular", "optcond.check_regular", lambda a, r: {"passed": bool(r.passed)}),
    (optcond, "check_at_infinity", "optcond.check_at_infinity",
     lambda a, r: {"passed": bool(r.passed)}),
    (optcond, "check_at_infinity_even", "optcond.check_at_infinity_even",
     lambda a, r: {"passed": bool(r.passed)}),
]


class Tracer:
    """Records spans (name, start, end, CPU start and end, parent, operation)
    in memory while installed; ``close`` restores every wrapped attribute."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []
        try:
            for owner, attr, name, annotate in TARGETS:
                orig = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(orig, name, annotate))
                self._saved.append((owner, attr, orig))
        except BaseException:
            self.close()
            raise

    def _wrap(self, func, name, annotate):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "cpu_start": time.process_time()}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                span["cpu_end"] = time.process_time()
                self._stack.pop()
            if annotate is not None:
                span.update(annotate(args, result))
            return result
        return wrapper

    def close(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def restored():
    """True when no target attribute is a tracer wrapper."""
    return all(not hasattr(owner.__dict__[attr], "__wrapped__")
               for owner, attr, _, _ in TARGETS)


def _dur(span):
    return span["end"] - span["start"]


def layer_metrics(spans):
    """Per-layer metrics from one pass's spans: {name: (value, unit)}.

    Times are summed over spans; a self time is a span's duration minus its
    child spans.  ``sdp.solve_s`` covers ``solve_with_restarts`` (all
    attempts), ``sdp.restart_s`` the attempts after the first of each solve,
    and ``sdp.s_per_iteration`` the attempt time per IPM iteration.
    ``sdp.free_dim`` sums m minus the equality rows over attempts and
    ``sdp.status.<status>`` counts attempts by status.
    ``extract.success_ratio`` is the share of ``flat_truncation`` calls that
    find a flat order, ``optcond.pass_ratio`` the share of checks that pass.
    A ratio with no calls behind it is 0.
    """
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def total(*names):
        return sum(_dur(s) for n in names for s in by_name.get(n, []))

    def self_time(*names):
        # children of one span run one after another, so they never overlap
        return sum(_dur(s) - sum(_dur(c) for c in children.get(s["id"], []))
                   for n in names for s in by_name.get(n, []))

    def count(name):
        return len(by_name.get(name, []))

    def ratio(num, den):
        return num / den if den else 0.0

    attempts = by_name.get("sdp.solve", [])
    solves = by_name.get("sdp.solve_with_restarts", [])
    restart_s = sum(_dur(c) for s in solves
                    for c in children.get(s["id"], [])[1:] if c["name"] == "sdp.solve")
    iterations = sum(s.get("iterations", 0) for s in attempts)
    attempt_s = total("sdp.solve")
    flats = by_name.get("extract.flat_truncation", [])
    checks = [s for n in ("optcond.check_regular", "optcond.check_at_infinity",
                          "optcond.check_at_infinity_even") for s in by_name.get(n, [])]
    statuses = Counter(s.get("status") for s in attempts)
    assembled = by_name.get("relax.assemble", [])

    metrics = {
        "cli.parse_s": (total("cli.parse_problem"), "s"),
        "cli.self_s": (self_time("cli.run"), "s"),
        "driver.self_s": (self_time("driver.solve_pop", "driver.minimizers_at_infinity"), "s"),
        "driver.orders": (sum(s.get("orders", 0) for n in ("driver.solve_pop",
                                                          "driver.minimizers_at_infinity")
                              for s in by_name.get(n, [])), "count"),
        "relax.assemble_s": (total("relax.assemble"), "s"),
        "relax.to_sdp_instance_s": (total("relax.to_sdp_instance"), "s"),
        "relax.to_sdp_instance.calls": (count("relax.to_sdp_instance"), "count"),
        "relax.certificate_s": (total("relax.sos_certificate_from_dual"), "s"),
        "relax.moments": (sum(s.get("moments", 0) for s in assembled), "count"),
        "relax.eq_rows": (sum(s.get("eq_rows", 0) for s in assembled), "count"),
        "sdp.solve_s": (total("sdp.solve_with_restarts"), "s"),
        "sdp.solve_cpu_s": (sum(s["cpu_end"] - s["cpu_start"] for s in solves), "s"),
        "sdp.validate_s": (total("sdp.SdpInstance.validate"), "s"),
        "sdp.solves": (len(solves), "count"),
        "sdp.attempts": (len(attempts), "count"),
        "sdp.useful_attempt_ratio": (ratio(len(solves), len(attempts)), "ratio"),
        "sdp.restart_s": (restart_s, "s"),
        "sdp.iterations": (iterations, "count"),
        "sdp.s_per_iteration": (ratio(attempt_s, iterations), "s/iter"),
        "sdp.free_dim": (sum(s.get("free_dim", 0) for s in attempts), "count"),
        "sdp.max_block": (max((s.get("max_block", 0) for s in attempts), default=0), "count"),
        "extract.flat_truncation_s": (total("extract.flat_truncation"), "s"),
        "extract.extract_atoms_s": (total("extract.extract_atoms"), "s"),
        "extract.atoms": (sum(s.get("atoms", 0) for s in by_name.get("extract.extract_atoms", [])),
                          "count"),
        "extract.success_ratio": (ratio(sum(bool(s.get("found")) for s in flats), len(flats)),
                                  "ratio"),
        "optcond.check_s": (sum(_dur(s) for s in checks), "s"),
        "optcond.checks": (len(checks), "count"),
        "optcond.pass_ratio": (ratio(sum(bool(s.get("passed")) for s in checks), len(checks)),
                               "ratio"),
    }
    for status in STATUSES:
        metrics[f"sdp.status.{status}"] = (statuses.get(status, 0), "count")
    return metrics

