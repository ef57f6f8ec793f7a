"""Hierarchy orchestration: order loop, solve, extraction, verification.

Also provides the dedicated sphere-constrained solve for minimizers at
infinity (the top-degree parts of all problem data restricted to the unit
sphere) and a positivity-at-infinity probe built on the same machinery.
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


@dataclass
class DriverOptions:
    kind: relax.HierarchyKind = relax.HOMOGENIZED
    k_min: int | None = None
    k_max: int | None = None
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200
    rank_tol: float = 1e-6
    extract_tol: float = 1e-5
    tau_tol: float = 1e-4
    atom_feas_tol: float = 1e-4
    value_tol: float = 1e-4
    infinity_value_tol: float = 1e-4
    optcond_active_tol: float = 1e-4
    optcond_fooc_tol: float = 1e-4
    verify: bool = True
    seed: int = 0
    dump_sdpa: str | None = None
    verbose: bool = False

    def sdp_options(self) -> sdp.SolveOptions:
        return sdp.SolveOptions(gap_tol=self.gap_tol, feas_tol=self.feas_tol,
                                max_iter=self.max_iter, seed=self.seed,
                                verbose=self.verbose)


@dataclass
class OrderRecord:
    k: int
    kind: str
    status: str
    f_k: float | None            # certificate-side bound
    f_k_prime: float | None      # moment-side value
    flat_t: int | None = None
    flat_gap: int | None = None
    atom_set: extract.AtomSet | None = None
    minimizers: list = field(default_factory=list)        # (point, value)
    minimizers_at_infinity: list = field(default_factory=list)  # points
    optcond: list = field(default_factory=list)
    certificate_residual: float | None = None
    solver_message: str = ""
    notes: str = ""

    @property
    def bound(self):
        return self.f_k if self.f_k is not None else self.f_k_prime

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "kind": self.kind,
            "status": self.status,
            "f_k": None if self.f_k is None else float(self.f_k),
            "f_k_prime": None if self.f_k_prime is None else float(self.f_k_prime),
            "flat_t": self.flat_t,
            "flat_gap": self.flat_gap,
            "minimizers": [{"point": [float(v) for v in pt], "value": float(val)}
                           for pt, val in self.minimizers],
            "minimizers_at_infinity": [{"point": [float(v) for v in pt]}
                                       for pt in self.minimizers_at_infinity],
            "optcond": [r.to_dict() for r in self.optcond],
            "certificate_residual": None if self.certificate_residual is None
            else float(self.certificate_residual),
            "solver_message": self.solver_message,
            "notes": self.notes,
        }


@dataclass
class HierarchyReport:
    records: list
    best_bound: float | None
    converged: bool
    convergence_order: int | None
    diagnosis: str

    def to_dict(self) -> dict:
        return {
            "records": [r.to_dict() for r in self.records],
            "final": {
                "best_bound": None if self.best_bound is None else float(self.best_bound),
                "converged": bool(self.converged),
                "convergence_order": self.convergence_order,
                "diagnosis": self.diagnosis,
            },
        }


def default_k_min(prob: PopProblem, kind: relax.HierarchyKind) -> int:
    degs = [prob.objective.degree()]
    degs += [c.degree() for c in prob.equalities]
    degs += [c.degree() for c in prob.inequalities]
    k = max(math.ceil(d / 2) for d in degs)
    if kind.name == "power_x0":
        k = max(k, math.ceil((2 * kind.power + prob.objective.degree()) / 2))
    return max(k, 1)


def rank_gap(prob: PopProblem) -> int:
    """Default flat-truncation rank gap: the largest half-degree of the
    objective and all constraints."""
    degs = [prob.objective.degree()]
    degs += [c.degree() for c in prob.equalities]
    degs += [c.degree() for c in prob.inequalities]
    return max(max(math.ceil(d / 2) for d in degs), 1)


def _solve_order(prob, kind, k, opts):
    """Assemble and solve one order; returns (record, rel, sol)."""
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
    if opts.dump_sdpa:
        path = opts.dump_sdpa if opts.k_min == opts.k_max else f"{opts.dump_sdpa}.k{k}"
        sdp.write_sdpa(inst, path)
    sol = sdp.solve_with_restarts(inst, opts.sdp_options())
    rec.status = sol.status.value
    rec.solver_message = sol.message
    if sol.y is not None and np.isfinite(sol.primal_obj) \
            and sol.primal_infeas is not None and np.isfinite(sol.primal_infeas) \
            and sol.primal_infeas <= 1e-6:
        rec.f_k_prime = float(sol.primal_obj)
    if np.isfinite(sol.dual_obj) and sol.dual_infeas is not None \
            and np.isfinite(sol.dual_infeas) and sol.dual_infeas <= 1e-6:
        rec.f_k = float(sol.dual_obj)
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
    err = max(v if v is not None and np.isfinite(v) else 0.0
              for v in (sol.gap, sol.primal_infeas, sol.dual_infeas))
    rebuild_tol = max(opts.extract_tol, min(1e-2, 100.0 * err))
    try:
        atoms = extract.extract_atoms(y, nv, k, flat_t, rank_tol=opts.rank_tol,
                                      extract_tol=rebuild_tol, seed=opts.seed)
    except extract.AtomExtractionError as exc:
        rec.notes = f"extraction failed: {exc}"
        return None
    return atoms


def _merge_close(pairs, tol=1e-6):
    """Merge (point, weight) pairs whose points coincide up to tol (the even
    variant maps antipodal atom pairs onto one projective point)."""
    merged = []
    for pt, wt in pairs:
        for i, (q, w) in enumerate(merged):
            if np.linalg.norm(pt - q) <= tol * (1.0 + np.linalg.norm(q)):
                merged[i] = (q, w + wt)
                break
        else:
            merged.append((pt, wt))
    return merged


def _verify_minimizer(prob, u, bound, opts):
    tolscale = 1.0 + abs(bound)
    if prob.feasibility_violation(u) > opts.atom_feas_tol * tolscale:
        return None
    val = prob.objective.eval(u)
    if abs(val - bound) > max(opts.value_tol * tolscale, 10 * opts.gap_tol):
        return None
    return val


def solve_pop(prob: PopProblem, opts: DriverOptions | None = None) -> HierarchyReport:
    """Run the hierarchy from k_min to k_max with early stop on verified
    convergence (flat truncation, value agreement, optionally the
    optimality-condition checks at every regular minimizer)."""
    opts = opts or DriverOptions()
    kind = opts.kind
    k_lo = opts.k_min or default_k_min(prob, kind)
    k_hi = opts.k_max or k_lo
    if k_hi < k_lo:
        raise ValueError("k_max must be at least k_min")

    records = []
    best_bound = None
    converged = False
    convergence_order = None
    even_kind = kind.name == "homogenized_even"
    homog_like = kind.name in ("homogenized", "homogenized_even", "power_x0")

    with sdp._one_blas_thread():
        for k in range(k_lo, k_hi + 1):
            rec, rel, sol = _solve_order(prob, kind, k, opts)
            records.append(rec)
            usable = sol is not None and (sol.status is sdp.SdpStatus.OPTIMAL
                                           or sol.moment_converged)
            bound_k = rec.f_k if rec.f_k is not None else (
                rec.f_k_prime if usable else None)
            if bound_k is not None and (best_bound is None or bound_k > best_bound):
                best_bound = bound_k
            if not usable:
                continue
            try:
                cert = relax.sos_certificate_from_dual(rel, sol)
                rec.certificate_residual = cert.residual
            except ValueError:
                pass
            if not homog_like and kind.name != "standard":
                continue  # denominator bounds come without atoms

            atoms = _attempt_extraction(rec, rel, sol, prob, opts)
            if atoms is None:
                rec.flat_t = None
                rec.flat_gap = None
                continue
            if kind.name == "standard":
                # no x0 coordinate: every atom is a direct minimizer candidate
                atom_set = extract.AtomSet(
                    atoms=atoms, regular=[(a.point, a.weight) for a in atoms],
                    at_infinity=[], flagged=[], d=0)
            else:
                atom_set = extract.classify(atoms, rel.normalizer_power,
                                            tau_tol=opts.tau_tol,
                                            flip_negative=even_kind)
            if even_kind:
                atom_set.regular = _merge_close(atom_set.regular)
            bound = rec.f_k_prime if rec.f_k_prime is not None else rec.f_k
            clean = sol.status is sdp.SdpStatus.OPTIMAL
            verified = bool(atom_set.regular) and not atom_set.flagged \
                and abs(atom_set.regular_weight - 1.0) < 1e-4
            minimizers = []
            reg_reports = []
            for u, _nu in atom_set.regular:
                if not verified:
                    break
                val = _verify_minimizer(prob, u, bound, opts)
                if val is None:
                    verified = False
                    rec.notes = "an extracted point failed feasibility or value checks"
                    break
                try:
                    rep = optcond.check_regular(prob, u,
                                                active_tol=opts.optcond_active_tol,
                                                fooc_tol=opts.optcond_fooc_tol)
                except ValueError:
                    rep = None
                # a stalled solve only earns its atoms if they are critical points
                if not clean and (rep is None or not rep.fooc_ok):
                    verified = False
                    rec.notes = ("extracted point is not a first-order critical "
                                 "point; treating the rank condition as spurious")
                    break
                minimizers.append((u, val))
                reg_reports.append(rep)
            if not verified:
                rec.flat_t = None
                rec.flat_gap = None
                continue

            rec.atom_set = atom_set
            rec.minimizers = minimizers
            rec.minimizers_at_infinity = [v for v, _nu in atom_set.at_infinity]
            f_min_est = best_bound if best_bound is not None else bound
            all_pass = True
            for rep in reg_reports:
                if rep is None:
                    rec.notes = "optcond check rejected an extracted point"
                    all_pass = False
                else:
                    rec.optcond.append(rep)
                    all_pass = all_pass and rep.passed
            for v, _nu in atom_set.at_infinity:
                checker = optcond.check_at_infinity_even if even_kind \
                    else optcond.check_at_infinity
                try:
                    rec.optcond.append(checker(prob, v, f_min_est, tol=1e-4,
                                               fooc_tol=opts.optcond_fooc_tol))
                except ValueError as exc:
                    rec.notes = (rec.notes + f" infinity check rejected: {exc}").strip()
            if all_pass or not opts.verify:
                converged = True
                convergence_order = k
                break

    if converged:
        diagnosis = f"converged at order {convergence_order} with verified minimizers"
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
class InfinityReport:
    k: int
    status: str
    bound: float | None            # moment-side optimum of the sphere problem
    cert_bound: float | None
    points: list                   # unit vectors, candidate minimizers at infinity
    values: list                   # top-degree objective values at the points
    flat_t: int | None
    flat_gap: int | None
    optcond: list
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "status": self.status,
            "bound": None if self.bound is None else float(self.bound),
            "cert_bound": None if self.cert_bound is None else float(self.cert_bound),
            "points": [[float(v) for v in p] for p in self.points],
            "values": [float(v) for v in self.values],
            "flat_t": self.flat_t,
            "flat_gap": self.flat_gap,
            "optcond": [r.to_dict() for r in self.optcond],
            "notes": self.notes,
        }


def minimizers_at_infinity(prob: PopProblem, k: int,
                           opts: DriverOptions | None = None,
                           filter_zero: bool = True) -> InfinityReport:
    """Solve the sphere-restricted top-degree problem and extract its atoms.

    When the original optimum is finite, minimizers at infinity are exactly
    the sphere points with vanishing top-degree objective; with
    ``filter_zero`` the extracted points are filtered accordingly.
    """
    opts = opts or DriverOptions()
    sph = sphere_restriction(prob)
    with sdp._one_blas_thread():
        rec, rel, sol = _solve_order(sph, relax.STANDARD, k, opts)
        report = InfinityReport(k=k, status=rec.status, bound=rec.f_k_prime,
                                cert_bound=rec.f_k, points=[], values=[],
                                flat_t=None, flat_gap=None, optcond=[],
                                notes=rec.notes or rec.solver_message)
        if sol is None or not (sol.status is sdp.SdpStatus.OPTIMAL
                               or sol.moment_converged):
            return report
        atoms = _attempt_extraction(rec, rel, sol, sph, opts)
        report.flat_t, report.flat_gap = rec.flat_t, rec.flat_gap
        if atoms is None:
            report.notes = (report.notes + " no atoms extracted").strip()
            return report
        f_top = sph.objective
        for atom in atoms:
            v = atom.point / np.linalg.norm(atom.point)
            val = f_top.eval(v)
            if filter_zero and abs(val) > opts.infinity_value_tol:
                continue
            if sph.feasibility_violation(v) > opts.atom_feas_tol:
                continue
            report.points.append(v)
            report.values.append(val)
            try:
                report.optcond.append(optcond.check_at_infinity(
                    prob, v, report.bound or 0.0, tol=1e-4,
                    fooc_tol=opts.optcond_fooc_tol))
            except ValueError:
                pass
        return report


def positivity_at_infinity_probe(prob: PopProblem, k: int,
                                 probe_tol: float = 1e-6,
                                 opts: DriverOptions | None = None) -> dict:
    """Lower-bound the top-degree objective part over the sphere-restricted
    feasible directions; a positive bound certifies that the objective grows
    along every feasible escape direction (hence is coercive there)."""
    opts = opts or DriverOptions()
    sph = sphere_restriction(prob)
    with sdp._one_blas_thread():
        rec, _rel, _sol = _solve_order(sph, relax.STANDARD, k, opts)
    if rec.status == sdp.SdpStatus.PRIMAL_INFEASIBLE.value:
        return {"bound": None, "verdict": True,
                "diagnosis": "no feasible directions at infinity; "
                             "positivity holds vacuously"}
    bound = rec.f_k if rec.f_k is not None else rec.f_k_prime
    if bound is None:
        return {"bound": None, "verdict": False,
                "diagnosis": f"solver failed ({rec.status}); verdict unavailable"}
    verdict = bound > probe_tol
    return {"bound": float(bound), "verdict": bool(verdict),
            "diagnosis": "positive at infinity" if verdict
            else "top-degree part is not strictly positive on the feasible "
                 "directions at infinity"}
