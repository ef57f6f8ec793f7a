"""Numerical verification of LICQ, strict complementarity and second-order
sufficiency at candidate minimizers.

Three locations are supported:

* ``check_regular`` — a feasible point of the original problem, via the
  classical KKT system with least-squares multipliers.
* ``check_at_infinity`` — a unit direction where the top-degree parts of the
  data vanish appropriately; conditions are evaluated on the sphere-lifted
  problem with the x0 >= 0 constraint active.
* ``check_at_infinity_even`` — the even-degree variant, where x0 >= 0 is
  dropped and the stacked vectors (second-part value, top-part gradient)
  take over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .poly import Polynomial, PopProblem, build_homogenized


@dataclass
class OptCondReport:
    location_kind: str            # regular | at_infinity | at_infinity_even
    point: np.ndarray
    active_set: list
    licq: bool
    licq_min_sv: float
    multipliers: dict             # constraint label -> scalar
    fooc_ok: bool
    fooc_residual: float
    scc: bool
    scc_margin: float
    sosc: bool
    sosc_margin: float
    lambda0: float | None = None
    lambda_bar: float | None = None
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.licq and self.fooc_ok and self.scc and self.sosc

    def to_dict(self) -> dict:
        return {
            "location_kind": self.location_kind,
            "point": [float(v) for v in self.point],
            "active_set": list(self.active_set),
            "licq": bool(self.licq),
            "licq_min_sv": float(self.licq_min_sv),
            "multipliers": {k: float(v) for k, v in self.multipliers.items()},
            "fooc_ok": bool(self.fooc_ok),
            "fooc_residual": float(self.fooc_residual),
            "scc": bool(self.scc),
            "scc_margin": float(self.scc_margin),
            "sosc": bool(self.sosc),
            "sosc_margin": float(self.sosc_margin),
            "lambda0": None if self.lambda0 is None else float(self.lambda0),
            "lambda_bar": None if self.lambda_bar is None else float(self.lambda_bar),
            "passed": bool(self.passed),
            "notes": self.notes,
        }


def _null_basis(rows: np.ndarray, n: int, basis_seed=None) -> np.ndarray:
    """Orthonormal basis of the null space of the stacked row vectors."""
    if rows.size == 0:
        basis = np.eye(n)
    else:
        basis = scipy.linalg.null_space(rows)
    if basis_seed is not None and basis.shape[1] > 1:
        rng = np.random.default_rng(basis_seed)
        q, _ = np.linalg.qr(rng.standard_normal((basis.shape[1],) * 2))
        basis = basis @ q
    return basis


def _licq(rows: np.ndarray):
    if rows.shape[0] == 0:
        return True, np.inf
    sv = scipy.linalg.svdvals(rows)
    min_sv = float(sv[-1])
    return bool(min_sv > 1e-8 * max(1.0, sv[0])), min_sv


def _projected_min_eig(hess: np.ndarray, rows: np.ndarray, basis_seed=None):
    basis = _null_basis(rows, hess.shape[0], basis_seed)
    if basis.shape[1] == 0:
        return np.inf
    return float(scipy.linalg.eigvalsh(basis.T @ hess @ basis)[0])


def check_regular(prob: PopProblem, point, active_tol: float | None = None,
                  scc_tol: float = 1e-6, sosc_tol: float | None = None,
                  feas_tol: float = 1e-6, fooc_tol: float = 1e-6,
                  basis_seed=None) -> OptCondReport:
    """KKT verification at a feasible point of the original problem."""
    x = np.asarray(point, dtype=float)
    cvals_eq = [c.eval(x) for c in prob.equalities]
    cvals_in = [c.eval(x) for c in prob.inequalities]
    scale = 1.0 + max((abs(v) for v in cvals_eq + cvals_in), default=0.0)
    if active_tol is None:
        active_tol = 1e-6 * scale
    viol = max([abs(v) for v in cvals_eq] + [-min(0.0, v) for v in cvals_in],
               default=0.0)
    if viol > max(feas_tol * scale, active_tol):
        raise ValueError(f"point is infeasible (violation {viol:.3e})")

    active = [("eq", i) for i in range(len(prob.equalities))]
    active += [("ineq", j) for j, v in enumerate(cvals_in) if abs(v) <= active_tol]
    labels = [f"{k}{i}" for k, i in active]
    grads = np.array([
        (prob.equalities[i] if k == "eq" else prob.inequalities[i]).gradient(x)
        for k, i in active]).reshape(len(active), prob.nvars)

    gf = prob.objective.gradient(x)
    n = prob.nvars
    if len(active) > n:
        return OptCondReport(
            location_kind="regular", point=x, active_set=labels, licq=False,
            licq_min_sv=0.0, multipliers={}, fooc_ok=False,
            fooc_residual=np.nan, scc=False, scc_margin=np.nan, sosc=False,
            sosc_margin=np.nan,
            notes="more active constraints than variables; multipliers undefined")
    licq, min_sv = _licq(grads)

    if len(active):
        lam, *_ = np.linalg.lstsq(grads.T, gf, rcond=None)
        fooc_res = float(np.linalg.norm(grads.T @ lam - gf))
    else:
        lam = np.zeros(0)
        fooc_res = float(np.linalg.norm(gf))
    multipliers = {lab: float(v) for lab, v in zip(labels, lam)}
    for j in range(len(prob.inequalities)):
        multipliers.setdefault(f"ineq{j}", 0.0)
    gscale = 1.0 + float(np.linalg.norm(gf))
    fooc_ok = fooc_res <= fooc_tol * gscale and all(
        multipliers[f"ineq{j}"] >= -scc_tol for j in range(len(prob.inequalities)))

    if prob.inequalities:
        scc_margin = min(multipliers[f"ineq{j}"] + cvals_in[j]
                         for j in range(len(prob.inequalities)))
    else:
        scc_margin = np.inf
    scc = scc_margin > scc_tol

    hess = prob.objective.hessian(x)
    for (k, i), l_i in zip(active, lam):
        con = prob.equalities[i] if k == "eq" else prob.inequalities[i]
        hess = hess - l_i * con.hessian(x)
    if sosc_tol is None:
        sosc_tol = 1e-8 * (1.0 + float(np.linalg.norm(hess)))
    sosc_margin = _projected_min_eig(hess, grads, basis_seed)
    sosc = sosc_margin > sosc_tol

    return OptCondReport(
        location_kind="regular", point=x, active_set=labels, licq=licq,
        licq_min_sv=min_sv, multipliers=multipliers, fooc_ok=fooc_ok,
        fooc_residual=fooc_res, scc=scc, scc_margin=float(scc_margin),
        sosc=sosc, sosc_margin=float(sosc_margin))


def _infinity_setup(prob: PopProblem, point, tol: float):
    x = np.asarray(point, dtype=float)
    nrm = np.linalg.norm(x)
    if abs(nrm - 1.0) > 1e-6:
        x = x / nrm
    f_top = prob.objective.graded_part(1)
    fval = f_top.eval(x)
    if abs(fval) > tol:
        raise ValueError(f"top-degree objective part is {fval:.3e} != 0 at the point")
    eq_top = [c.graded_part(1) for c in prob.equalities]
    in_top = [c.graded_part(1) for c in prob.inequalities]
    for i, c in enumerate(eq_top):
        if abs(c.eval(x)) > tol:
            raise ValueError(f"equality {i} top part nonzero at the point")
    for j, c in enumerate(in_top):
        if c.eval(x) < -tol:
            raise ValueError(f"inequality {j} top part negative at the point")
    return x, f_top, eq_top, in_top


def check_at_infinity(prob: PopProblem, point, f_min_estimate: float,
                      tol: float = 1e-6, scc_tol: float = 1e-6,
                      sosc_tol: float | None = None, fooc_tol: float = 1e-6,
                      basis_seed=None) -> OptCondReport:
    """Optimality conditions at a minimizer at infinity (x0 >= 0 retained).

    The point must be a unit vector in the zero set of the top-degree
    objective part, feasible for the top-degree constraint parts.
    """
    x, f_top, eq_top, in_top = _infinity_setup(prob, point, tol)
    n = prob.nvars
    d = prob.objective.degree()

    active = [("eq", i) for i in range(len(prob.equalities))]
    active += [("ineq", j) for j, c in enumerate(in_top) if abs(c.eval(x)) <= tol]
    labels = [f"{k}{i}" for k, i in active]
    tops = {("eq", i): eq_top[i] for i in range(len(eq_top))}
    tops.update({("ineq", j): in_top[j] for j in range(len(in_top))})
    grads = np.array([tops[a].gradient(x) for a in active]).reshape(len(active), n)
    licq, min_sv = _licq(grads)

    gf = f_top.gradient(x)
    cols = np.vstack([grads, x[None, :]]).T     # multipliers then lambda_bar
    sol, *_ = np.linalg.lstsq(cols, gf, rcond=None)
    lam = sol[:-1]
    lam_bar = float(sol[-1])
    fooc_res = float(np.linalg.norm(cols @ sol - gf))
    gscale = 1.0 + float(np.linalg.norm(gf))
    fooc_ok = fooc_res <= fooc_tol * gscale and abs(lam_bar) <= fooc_tol * gscale

    f_sec = prob.objective.graded_part(2)
    zero_pow = 1.0 if d == 1 else 0.0           # literal 0^(d-1)
    lam0 = f_sec.eval(x) - d * f_min_estimate * zero_pow
    multipliers = {}
    for (kind, i), l_i in zip(active, lam):
        con = prob.equalities[i] if kind == "eq" else prob.inequalities[i]
        lam0 -= l_i * con.graded_part(2).eval(x)
        multipliers[f"{kind}{i}"] = float(l_i)
    for j in range(len(prob.inequalities)):
        multipliers.setdefault(f"ineq{j}", 0.0)

    ineq_lams = [multipliers[f"{k}{i}"] for k, i in active if k == "ineq"]
    scc_margin = min([lam0] + ineq_lams)
    scc = scc_margin > scc_tol

    hess = f_top.hessian(x)
    for a, l_i in zip(active, lam):
        hess = hess - l_i * tops[a].hessian(x)
    rows = np.vstack([grads, x[None, :]]) if len(active) else x[None, :]
    if sosc_tol is None:
        sosc_tol = 1e-8 * (1.0 + float(np.linalg.norm(hess)))
    sosc_margin = _projected_min_eig(hess, rows, basis_seed)
    sosc = sosc_margin > sosc_tol

    return OptCondReport(
        location_kind="at_infinity", point=x, active_set=labels, licq=licq,
        licq_min_sv=min_sv, multipliers=multipliers, fooc_ok=fooc_ok,
        fooc_residual=fooc_res, scc=scc, scc_margin=float(scc_margin),
        sosc=sosc, sosc_margin=float(sosc_margin), lambda0=float(lam0),
        lambda_bar=lam_bar)


def check_at_infinity_even(prob: PopProblem, point, f_min_estimate: float,
                           tol: float = 1e-6, scc_tol: float = 1e-6,
                           sosc_tol: float | None = None, fooc_tol: float = 1e-6,
                           basis_seed=None) -> OptCondReport:
    """Even-degree variant: conditions on the sphere-lifted problem without
    the x0 >= 0 constraint, using stacked (second part, top gradient) vectors."""
    d = prob.objective.degree()
    odd = [c for c in (prob.objective, *prob.inequalities) if c.degree() % 2]
    if odd:
        raise ValueError("even-degree check requires even objective and inequalities")
    if d < 2:
        raise ValueError("objective degree must be at least 2")
    x, f_top, eq_top, in_top = _infinity_setup(prob, point, tol)
    n = prob.nvars

    cons = list(prob.equalities) + list(prob.inequalities)
    kinds = [("eq", i) for i in range(len(prob.equalities))]
    kinds += [("ineq", j) for j in range(len(prob.inequalities))]
    tops = eq_top + in_top
    active = [a for a, top in zip(kinds, tops)
              if a[0] == "eq" or abs(top.eval(x)) <= tol]
    labels = [f"{k}{i}" for k, i in active]
    top_by = dict(zip(kinds, tops))
    con_by = dict(zip(kinds, cons))

    stacked = np.array([
        np.concatenate(([con_by[a].graded_part(2).eval(x)],
                        top_by[a].gradient(x)))
        for a in active]).reshape(len(active), n + 1)
    licq, min_sv = _licq(stacked)

    f_sec = prob.objective.graded_part(2)
    target = np.concatenate(([f_sec.eval(x)], f_top.gradient(x)))
    cols = np.vstack([stacked, np.concatenate(([0.0], x))[None, :]]).T
    sol, *_ = np.linalg.lstsq(cols, target, rcond=None)
    lam = sol[:-1]
    lam_bar = float(sol[-1])
    fooc_res = float(np.linalg.norm(cols @ sol - target))
    gscale = 1.0 + float(np.linalg.norm(target))
    fooc_ok = fooc_res <= fooc_tol * gscale and abs(lam_bar) <= fooc_tol * gscale

    multipliers = {f"{k}{i}": float(v) for (k, i), v in zip(active, lam)}
    for j in range(len(prob.inequalities)):
        multipliers.setdefault(f"ineq{j}", 0.0)
    ineq_lams = [multipliers[f"{k}{i}"] for k, i in active if k == "ineq"]
    scc_margin = min(ineq_lams) if ineq_lams else np.inf
    scc = scc_margin > scc_tol if ineq_lams else True

    zero_pow = 1.0 if d == 2 else 0.0           # literal 0^(d-2)
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = 2.0 * prob.objective.graded_part(3).eval(x) \
        - d * (d - 1) * f_min_estimate * zero_pow
    h[0, 1:] = h[1:, 0] = f_sec.gradient(x)
    h[1:, 1:] = f_top.hessian(x)
    for a, l_i in zip(active, lam):
        hc = np.zeros((n + 1, n + 1))
        hc[0, 0] = 2.0 * con_by[a].graded_part(3).eval(x)
        hc[0, 1:] = hc[1:, 0] = con_by[a].graded_part(2).gradient(x)
        hc[1:, 1:] = top_by[a].hessian(x)
        h = h - l_i * hc
    tangent_rows = np.vstack([stacked, np.concatenate(([0.0], x))[None, :]])
    if sosc_tol is None:
        sosc_tol = 1e-8 * (1.0 + float(np.linalg.norm(h)))
    sosc_margin = _projected_min_eig(h, tangent_rows, basis_seed)
    sosc = sosc_margin > sosc_tol

    return OptCondReport(
        location_kind="at_infinity_even", point=x, active_set=labels, licq=licq,
        licq_min_sv=min_sv, multipliers=multipliers, fooc_ok=fooc_ok,
        fooc_residual=fooc_res, scc=scc, scc_margin=float(scc_margin),
        sosc=sosc, sosc_margin=float(sosc_margin), lambda_bar=lam_bar)


def homogenized_nlp(prob: PopProblem, f_min_estimate: float) -> PopProblem:
    """The sphere-lifted nonlinear program in (x0, x) whose regular
    minimizers correspond to minimizers of the original problem."""
    lift = build_homogenized(prob)
    x0_d = Polynomial.monomial(lift.nvars, (prob.objective.degree(),) + (0,) * prob.nvars)
    return PopProblem(lift.nvars, lift.objective - f_min_estimate * x0_d,
                      lift.equalities, lift.inequalities)


def equivalence_probe(prob: PopProblem, point, **kwargs):
    """Run the regular check on the original problem and directly on the
    sphere-lifted program at the corresponding point; the three condition
    booleans should agree."""
    x = np.asarray(point, dtype=float)
    original = check_regular(prob, x, **kwargs)
    fval = prob.objective.eval(x)
    lifted_prob = homogenized_nlp(prob, fval)
    x_lift = np.concatenate(([1.0], x)) / math.sqrt(1.0 + float(x @ x))
    lifted = check_regular(lifted_prob, x_lift, **kwargs)
    return original, lifted
