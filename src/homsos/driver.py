"""Hierarchy orchestration: order loop, solve, extraction, verification.

Also provides the dedicated sphere-constrained solve for minimizers at
infinity (the top-degree parts of all problem data restricted to the unit
sphere); its report also carries the verdict on positivity at infinity
that the same solve gives.

``DriverOptions`` is an ``sdp.SolveOptions`` and goes to the solver as it
is.  The reports serialize through ``optcond.report_dict``; a record's
``bound`` and ``atom_set`` and an infinity report's ``values`` and
``positive`` are Python-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import extract, optcond, relax, sdp
from .poly import PopProblem, sphere_equation

UNATTAINED_DIAGNOSIS = (
    "optimum likely unattained (no flat truncation at any solved order); "
    "run the minimizers-at-infinity solve")

VALUE_TOL = 1e-4           # |f(u) - bound| of a minimizer, relative
OPTCOND_FOOC_TOL = 1e-4    # first-order test of optcond
POSITIVITY_TOL = 1e-6      # a certified sphere bound above this proves positivity
MERGE_TOL = 1e-6           # relative distance of atoms merged by the even kind


@dataclass
class DriverOptions(sdp.SolveOptions):
    """The solver's ``gap_tol`` and ``seed``, and the hierarchy's settings, checked when built."""

    kind: relax.HierarchyKind = relax.HOMOGENIZED
    k_min: int | None = None
    k_max: int | None = None
    rank_tol: float = 1e-6
    extract_tol: float = 1e-5
    atom_tol: float = 1e-4       # x0 test of classify; admission and activity in optcond
    verify: bool = True
    dump_sdpa: str | None = None

    def __post_init__(self):
        super().__post_init__()
        for name in ("rank_tol", "extract_tol", "atom_tol"):
            sdp.check_tolerance(name, getattr(self, name))
        for name in ("k_min", "k_max"):
            k = getattr(self, name)
            if k is not None and k < 1:
                raise ValueError(f"{name} must be at least 1, got {k}")
        if self.k_min is not None and self.k_max is not None and self.k_max < self.k_min:
            raise ValueError("k_max must be at least k_min")


@dataclass
class OrderRecord:
    k: int
    kind: str
    status: str
    f_k: float | None            # certificate-side bound
    f_k_prime: float | None      # moment-side value
    bound: float | None = field(default=None, metadata=optcond.PYTHON_ONLY)  # see _solve_order
    flat_t: int | None = None
    flat_gap: int | None = None
    atom_set: extract.AtomSet | None = field(default=None, metadata=optcond.PYTHON_ONLY)
    minimizers: list = field(default_factory=list)        # (point, value)
    minimizers_at_infinity: list = field(default_factory=list)  # points
    optcond: list = field(default_factory=list)
    certificate_residual: float | None = None
    iterations: int | None = None   # IPM iterations of the kept attempt
    solver_message: str = ""
    notes: str = ""
    symmetry: dict | None = None    # relax.describe_symmetry of the solve
    blocks: dict | None = None      # sdp.describe_blocks of the solve

    def to_dict(self) -> dict:
        return optcond.report_dict(
            self, minimizers=[{"point": pt, "value": val} for pt, val in self.minimizers],
            minimizers_at_infinity=[{"point": pt} for pt in self.minimizers_at_infinity])


@dataclass
class HierarchyReport:
    records: list
    best_bound: float | None
    converged: bool
    convergence_order: int | None
    diagnosis: str

    def to_dict(self) -> dict:
        final = optcond.report_dict(self)
        return {"records": final.pop("records"), "final": final}


def default_k_min(prob: PopProblem, kind: relax.HierarchyKind) -> int:
    """Smallest order that holds every constraint and, for the lifted
    kinds, the normalizer x0^(2 power + d)."""
    return max(rank_gap(prob),
               math.ceil((2 * kind.power + prob.objective.degree()) / 2))


def rank_gap(prob: PopProblem) -> int:
    """Default flat-truncation rank gap: the largest half-degree of the
    objective and all constraints."""
    degs = [prob.objective.degree()]
    degs += [c.degree() for c in prob.equalities]
    degs += [c.degree() for c in prob.inequalities]
    return max(max(math.ceil(d / 2) for d in degs), 1)


def _solve_order(prob, kind, k, opts, dump_path=None):
    """Assemble and solve one order; returns (record, rel, sol) with
    ``sol.y`` in the moment coordinates of ``rel``.  The solved instance,
    in orbit coordinates when the relaxation has a symmetry group, is
    written to ``dump_path`` in SDPA format when one is given.

    This is the one place that decides the order's ``bound``: the
    certificate value ``f_k``, else the moment value ``f_k_prime`` once the
    moment side converged, else None; both are None when the moment vector
    diverged, past ``sdp.DIVERGED_NORM``.  Once the moment side converged it
    also fills ``certificate_residual`` from the solve's duals.  A solve
    that raises ``sdp.NonFiniteError`` ends the order ``numerical_trouble``
    with no bound and no ``sol``."""
    rec = OrderRecord(k=k, kind=str(kind), status="", f_k=None, f_k_prime=None)
    try:
        rel = relax.assemble(kind, prob, k)
    except relax.OrderTooSmallError as exc:
        rec.status = "order_too_small"
        rec.notes = str(exc)
        return rec, None, None
    try:
        inst, _ = relax.to_sdp_instance(rel)
    except relax.InfeasibleRelaxationError as exc:
        rec.status = sdp.SdpStatus.PRIMAL_INFEASIBLE.value
        rec.notes = str(exc)
        return rec, rel, None
    rec.symmetry = relax.describe_symmetry(rel, inst)
    if dump_path:
        sdp.write_sdpa(inst, dump_path)
    try:
        sol = relax.full_solution(rel, sdp.solve_with_restarts(inst, opts))
    except sdp.NonFiniteError as exc:
        rec.status = sdp.SdpStatus.NUMERICAL_TROUBLE.value
        rec.notes = f"the solve stopped on a non-finite array: {exc}"
        return rec, rel, None
    rec.blocks = sdp.describe_blocks(inst, sol)
    rec.status = sol.status.value
    rec.iterations = sol.iterations
    rec.solver_message = sol.message
    if sol.y is not None and sol.primal_infeas <= sdp.REPORT_TOL:
        rec.f_k_prime = float(sol.primal_obj)
    diverged = sol.y is not None and np.linalg.norm(sol.y) > sdp.DIVERGED_NORM
    if np.isfinite(sol.dual_obj) and sol.dual_infeas <= sdp.REPORT_TOL and not diverged:
        rec.f_k = float(sol.dual_obj)
        # weak duality: when a solve that is not optimal leaves the moment
        # side converged, its value is the relaxation's, and a certificate
        # value above it is no lower bound
        if sol.status is not sdp.SdpStatus.OPTIMAL and sol.moment_converged \
                and rec.f_k_prime is not None:
            rec.f_k = min(rec.f_k, rec.f_k_prime)
    rec.bound = rec.f_k if rec.f_k is not None else (
        rec.f_k_prime if sol.moment_converged and not diverged else None)
    if sol.moment_converged:
        try:
            rec.certificate_residual = relax.sos_certificate_from_dual(rel, sol).residual
        except ValueError:
            pass
    return rec, rel, sol


def _attempt_extraction(rec, rel, sol, prob, opts):
    """Flat truncation, atom extraction and classification for one order.

    Tries the full rank gap first, then falls back to gap 1 (rank
    stabilization); extracted atoms are verified a posteriori in both cases.
    """
    y = sol.y
    nv = rel.nvars
    k = rel.order
    gap_full = rank_gap(prob)
    flat_t, used_gap = None, None
    for gap in dict.fromkeys([gap_full, 1]):
        t = extract.flat_truncation(y, nv, k, gap, opts.rank_tol)
        if t is not None:
            flat_t, used_gap = t, gap
            break
    if flat_t is None:
        return None
    rec.flat_t = flat_t
    rec.flat_gap = used_gap
    # the atomic rebuild can only be as accurate as the moment solve
    err = max(sol.gap, sol.primal_infeas, sol.dual_infeas)
    rebuild_tol = max(opts.extract_tol, min(1e-2, 100.0 * err))
    try:
        atoms = extract.extract_atoms(y, nv, k, flat_t, rank_tol=opts.rank_tol,
                                      extract_tol=rebuild_tol, seed=opts.seed)
    except extract.AtomExtractionError as exc:
        rec.notes = f"extraction failed: {exc}"
        return None
    return atoms


def _merge_close(pairs):
    """Merge (point, weight) pairs whose points coincide up to MERGE_TOL
    (the even variant maps antipodal atom pairs onto one projective point)."""
    merged = []
    for pt, wt in pairs:
        for i, (q, w) in enumerate(merged):
            if np.linalg.norm(pt - q) <= MERGE_TOL * (1.0 + np.linalg.norm(q)):
                merged[i] = (q, w + wt)
                break
        else:
            merged.append((pt, wt))
    return merged


def _verified_atoms(rec, rel, sol, prob, opts):
    """Extract and classify the atoms of one solved order and check each
    regular one.  A regular atom is admitted when ``check_regular`` accepts
    it as feasible (with ``opts.atom_tol``) and its value is within VALUE_TOL
    of the moment value.  Returns (atom set, [(minimizer, value)], [optcond
    report per minimizer]), or None when extraction or a check fails."""
    kind = rel.kind
    atoms = _attempt_extraction(rec, rel, sol, prob, opts)
    if atoms is None:
        return None
    if kind.has_x0:
        atom_set = extract.classify(atoms, rel.nu.degree(),
                                    tau_tol=opts.atom_tol, flip_negative=kind.even)
    else:
        # no x0 coordinate: every atom is a direct minimizer candidate
        atom_set = extract.AtomSet(
            regular=[(a.point, a.weight) for a in atoms], at_infinity=[], flagged=[])
    if kind.even:
        atom_set.regular = _merge_close(atom_set.regular)
    if not (atom_set.regular and not atom_set.flagged
            and abs(atom_set.regular_weight - 1.0) < 1e-4):
        return None
    minimizers, reports = [], []
    value_tol = max(VALUE_TOL * (1.0 + abs(rec.f_k_prime)), 10 * opts.gap_tol)
    for u, _nu in atom_set.regular:
        val = prob.objective.eval(u)
        try:
            rep = optcond.check_regular(prob, u, active_tol=opts.atom_tol,
                                        fooc_tol=OPTCOND_FOOC_TOL)
        except ValueError:
            rep = None
        if rep is None or abs(val - rec.f_k_prime) > value_tol:
            rec.notes = "an extracted point failed feasibility or value checks"
            return None
        # a stalled solve only earns its atoms if they are critical points
        if sol.status is not sdp.SdpStatus.OPTIMAL and not rep.fooc_ok:
            rec.notes = ("extracted point is not a first-order critical "
                         "point; treating the rank condition as spurious")
            return None
        minimizers.append((u, val))
        reports.append(rep)
    return atom_set, minimizers, reports


def _directions_at_infinity(rec, prob, points, f_min, opts, even):
    """Admit escape directions into ``rec``: a unit vector of ``points`` is
    kept, with its report in ``rec.optcond``, only when ``check_at_infinity``
    (``check_at_infinity_even`` when ``even``) accepts it with
    ``tol=opts.atom_tol``; every other vector is dropped with a note."""
    check = optcond.check_at_infinity_even if even else optcond.check_at_infinity
    for v in points:
        try:
            rec.optcond.append(check(prob, v, f_min, tol=opts.atom_tol,
                                     fooc_tol=OPTCOND_FOOC_TOL))
        except ValueError as exc:
            rec.notes = (rec.notes + f" infinity check rejected: {exc}").strip()
            continue
        rec.minimizers_at_infinity.append(v)


def solve_pop(prob: PopProblem, opts: DriverOptions | None = None) -> HierarchyReport:
    """Run the hierarchy from k_min to k_max with early stop on verified
    convergence (flat truncation, value agreement, optionally the
    optimality-condition checks at every regular minimizer).  k_min
    defaults to ``default_k_min`` capped by k_max, and k_max to k_min.

    A record reports a minimizer only when ``check_regular`` accepts it and
    an escape direction only when the at-infinity check accepts it, both
    with ``opts.atom_tol``; ``optcond`` holds the report of every point the
    record reports, and ``notes`` name the directions that were dropped."""
    opts = opts or DriverOptions()
    kind = opts.kind
    k_lo = default_k_min(prob, kind) if opts.k_min is None else opts.k_min
    if opts.k_min is None and opts.k_max is not None:
        k_lo = min(k_lo, opts.k_max)
    k_hi = k_lo if opts.k_max is None else opts.k_max

    records = []
    best_bound = None
    convergence_order = None
    with sdp._one_blas_thread():
        for k in range(k_lo, k_hi + 1):
            dump = opts.dump_sdpa
            if dump and k_hi > k_lo:
                dump = f"{dump}.k{k}"
            rec, rel, sol = _solve_order(prob, kind, k, opts, dump)
            records.append(rec)
            if rec.bound is not None and (best_bound is None or rec.bound > best_bound):
                best_bound = rec.bound
            if sol is None or not sol.moment_converged:
                continue
            found = _verified_atoms(rec, rel, sol, prob, opts) if kind.extracts else None
            if found is None:
                rec.flat_t = rec.flat_gap = None
                continue
            rec.atom_set, rec.minimizers, rec.optcond = found
            all_pass = all(rep.passed for rep in rec.optcond)
            _directions_at_infinity(rec, prob, [v for v, _nu in rec.atom_set.at_infinity],
                                    best_bound, opts, kind.even)
            if all_pass or not opts.verify:
                convergence_order = k
                break

    converged = convergence_order is not None
    if converged:
        diagnosis = f"converged at order {convergence_order} with verified minimizers"
    elif any(r.status == sdp.SdpStatus.PRIMAL_INFEASIBLE.value for r in records):
        diagnosis = "the relaxation is infeasible, and so is the problem"
    elif any(r.flat_t is not None for r in records):
        diagnosis = ("flat truncation held but verification is incomplete; "
                     "inspect the per-order records")
    elif best_bound is not None:
        diagnosis = UNATTAINED_DIAGNOSIS
    else:
        diagnosis = "no usable bound was produced at any order"
    return HierarchyReport(records=records, best_bound=best_bound,
                           converged=converged,
                           convergence_order=convergence_order,
                           diagnosis=diagnosis)


def sphere_restriction(prob: PopProblem) -> PopProblem:
    """Top-degree parts of all data, restricted to the unit sphere."""
    eqs = [c.graded_part(1) for c in prob.equalities]
    eqs.append(sphere_equation(prob.nvars))
    ineqs = [c.graded_part(1) for c in prob.inequalities]
    return PopProblem(prob.nvars, prob.objective.graded_part(1),
                      tuple(eqs), tuple(ineqs))


@dataclass
class InfinityReport(HierarchyReport):
    """Report of the minimizers-at-infinity solve: one record of kind
    ``standard(sphere)`` whose ``minimizers_at_infinity`` are the unit
    vectors found, and ``values``, the top-degree objective at each.
    Both ``bound`` and ``best_bound`` are the record's ``bound``.
    ``positive`` is the verdict on positivity at infinity, which
    ``diagnosis`` explains; the bound behind it is the record's ``f_k``."""

    values: list = field(default_factory=list, metadata=optcond.PYTHON_ONLY)
    positive: bool = field(default=False, metadata=optcond.PYTHON_ONLY)

    @property
    def bound(self):
        return self.records[0].bound

    @property
    def status(self) -> str:
        return self.records[0].status

    @property
    def points(self) -> list:
        return self.records[0].minimizers_at_infinity


def _positivity(rec, sol) -> tuple:
    """(verdict, diagnosis) of positivity at infinity from the sphere solve's
    record: a certified bound ``f_k`` above ``POSITIVITY_TOL`` certifies that
    the top-degree objective is positive on every feasible direction, so the
    objective grows along each of them.  An infeasible sphere problem has no
    directions, and the verdict holds vacuously."""
    if rec.status == sdp.SdpStatus.PRIMAL_INFEASIBLE.value:
        return True, "no feasible directions at infinity; positivity holds vacuously"
    # a value capped by the moment value has no certificate behind it
    if rec.f_k is None or rec.f_k != sol.dual_obj:
        return False, f"no certified bound ({rec.status}); verdict unavailable"
    # a bound at or below the tolerance proves nothing: a higher order may
    # still certify positivity
    if rec.f_k > POSITIVITY_TOL:
        return True, "positive at infinity"
    return False, (f"positivity not shown at order {rec.k}: bound {rec.f_k:.3g} is not "
                   f"above {POSITIVITY_TOL:g}")


def minimizers_at_infinity(prob: PopProblem, k: int | None = None,
                           opts: DriverOptions | None = None) -> InfinityReport:
    """Solve the sphere-restricted top-degree problem and extract its atoms.

    When the original optimum is finite, minimizers at infinity are exactly
    the sphere points with vanishing top-degree objective.  The normalized
    atoms are admitted as in ``solve_pop``: a direction is reported, with its
    ``check_at_infinity`` report, only when that check accepts it with
    ``opts.atom_tol``, and is otherwise dropped with a note.  ``values`` are
    the top-degree objective at the reported directions.  The same solve
    gives the verdict on positivity at infinity: ``positive``, and in
    ``diagnosis`` its reason.  The order ``k`` defaults to the last order
    ``solve_pop`` would run: ``opts.k_max``, else ``opts.k_min``, else the
    sphere problem's first standard order.  The solve is dumped to
    ``opts.dump_sdpa`` when that is set.
    """
    opts = opts or DriverOptions()
    if k is not None and k < 1:
        raise ValueError(f"order must be at least 1, got {k}")
    k = k or opts.k_max or opts.k_min
    with sdp._one_blas_thread():
        sph = sphere_restriction(prob)
        k = default_k_min(sph, relax.STANDARD) if k is None else k
        rec, rel, sol = _solve_order(sph, relax.STANDARD, k, opts, opts.dump_sdpa)
        rec.kind = "standard(sphere)"
        if sol is not None and sol.moment_converged:
            atoms = _attempt_extraction(rec, rel, sol, sph, opts)
            if atoms is None:
                rec.notes = (rec.notes + " no atoms extracted").strip()
            _directions_at_infinity(
                rec, prob, [a.point / np.linalg.norm(a.point) for a in atoms or ()],
                rec.f_k_prime, opts, even=False)
    values = [sph.objective.eval(v) for v in rec.minimizers_at_infinity]
    positive, diagnosis = _positivity(rec, sol)
    ok = rec.status == sdp.SdpStatus.OPTIMAL.value
    return InfinityReport(records=[rec], best_bound=rec.bound,
                          converged=ok and bool(rec.minimizers_at_infinity),
                          convergence_order=rec.k if ok else None,
                          diagnosis=diagnosis, values=values, positive=positive)
