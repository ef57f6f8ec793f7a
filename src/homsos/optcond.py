"""Numerical verification of LICQ, strict complementarity and second-order
sufficiency at candidate minimizers.

One KKT test serves three locations:

* ``check_regular`` — a feasible point u of the original problem, with
  least-squares multipliers.
* ``check_at_infinity`` — a minimizer at infinity: a unit vector v where the
  top-degree parts of the objective and equalities vanish and those of the
  inequalities are nonnegative.  Its conditions are the regular conditions
  of the homogenized program ``homogenized_nlp`` (min f~ - f_min x0^d on the
  unit sphere, x0 >= 0) at the point (0, v).
* ``check_at_infinity_even`` — the same in the even-degree variant, whose
  homogenized program drops x0 >= 0.

An at-infinity report lists the constraints of the original problem only:
``lambda0`` is the multiplier of x0 >= 0 and ``lambda_bar`` twice that of
the sphere.  Their rows still count in LICQ, ``licq_min_sv`` and SOSC.

One SVD of the active gradients decides LICQ and gives the least-squares
multipliers and the tangent space on which SOSC is tested.

``report_dict`` is the JSON form of every report, here and in ``driver``:
its declared fields in order, except those marked ``PYTHON_ONLY``, with
each non-finite number as None, so that ``json.dumps`` writes strict JSON
(``null``).  An unbounded margin stays infinite on the report itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
import scipy.linalg

from .poly import Polynomial, PopProblem, build_homogenized

SCC_TOL = 1e-6    # strict complementarity; dual feasibility of inequality multipliers
FEAS_TOL = 1e-6   # constraint violation of a regular point, relative
PYTHON_ONLY = {"json": False}   # field metadata: the field stays out of report_dict


def _jsonable(value):
    """``value`` in strict JSON types: an array as a list of floats, a numpy
    scalar as a Python number, a non-finite float as None, a report as its
    ``to_dict``, lists and dicts element by element."""
    if isinstance(value, np.ndarray):
        return [_jsonable(float(v)) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if is_dataclass(value):
        return value.to_dict()
    return value


def report_dict(report, **reshaped) -> dict:
    """The JSON dict of the dataclass ``report``: each declared field not
    marked ``PYTHON_ONLY``, in declaration order, through ``_jsonable``, so
    a non-finite number is None; a field named in ``reshaped`` is written
    from the value given there."""
    return {f.name: _jsonable(reshaped.get(f.name, getattr(report, f.name)))
            for f in fields(report) if f.metadata.get("json", True)}


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
        out = report_dict(self)
        out["passed"] = bool(self.passed)
        out["notes"] = out.pop("notes")
        return out


def _active_constraints(prob: PopProblem, cvals_in, active_tol: float) -> list:
    """(label, polynomial) of the equalities and of the inequalities within active_tol of 0."""
    active = [(f"eq{i}", c) for i, c in enumerate(prob.equalities)]
    active += [(f"ineq{j}", prob.inequalities[j]) for j, v in enumerate(cvals_in)
               if abs(v) <= active_tol]
    return active


def _kkt(prob: PopProblem, x, active: list, cvals_in, fooc_tol: float,
         location_kind: str) -> OptCondReport:
    """LICQ, first-order, strict complementarity and projected second-order
    tests at the feasible point x, with least-squares multipliers of the
    active constraints; ``cvals_in`` are the inequality values at x.  The
    rank of the gradients G has the cutoff of ``lstsq``, eps max(shape)
    sigma_0; ``licq_min_sv`` is 0 when the rows outnumber the variables."""
    labels = [lab for lab, _ in active]
    grads = np.array([c.gradient(x) for _, c in active]).reshape(len(active), prob.nvars)
    u, sv, vt = scipy.linalg.svd(grads)
    sv_max = np.amax(sv, initial=0.0)
    min_sv = float(sv[-1]) if 0 < len(active) <= prob.nvars else 0.0 if active else np.inf
    licq = bool(min_sv > 1e-8 * max(1.0, sv_max))
    rank = int(np.sum(sv > np.finfo(float).eps * max(grads.shape) * sv_max))

    gf = prob.objective.gradient(x)
    lam = u[:, :rank] @ ((vt[:rank] @ gf) / sv[:rank])
    fooc_res = float(np.linalg.norm(grads.T @ lam - gf))
    multipliers = {lab: float(v) for lab, v in zip(labels, lam)}
    for j in range(len(prob.inequalities)):
        multipliers.setdefault(f"ineq{j}", 0.0)
    ineq_lams = [multipliers[f"ineq{j}"] for j in range(len(prob.inequalities))]
    gscale = 1.0 + float(np.linalg.norm(gf))
    fooc_ok = fooc_res <= fooc_tol * gscale and all(m >= -SCC_TOL for m in ineq_lams)

    scc_margin = min((m + v for m, v in zip(ineq_lams, cvals_in)), default=np.inf)
    scc = scc_margin > SCC_TOL

    hess = prob.objective.hessian(x)
    for (_, con), l_i in zip(active, lam):
        hess = hess - l_i * con.hessian(x)
    tangent = vt[rank:].T
    sosc_margin = (float(scipy.linalg.eigvalsh(tangent.T @ hess @ tangent)[0])
                   if rank < prob.nvars else np.inf)
    sosc = sosc_margin > 1e-8 * (1.0 + float(np.linalg.norm(hess)))

    return OptCondReport(
        location_kind=location_kind, point=x, active_set=labels, licq=licq,
        licq_min_sv=min_sv, multipliers=multipliers, fooc_ok=fooc_ok,
        fooc_residual=fooc_res, scc=scc, scc_margin=float(scc_margin),
        sosc=sosc, sosc_margin=float(sosc_margin))


def check_regular(prob: PopProblem, point, active_tol: float | None = None,
                  fooc_tol: float = 1e-6) -> OptCondReport:
    """KKT verification at a feasible point of the original problem; raises
    ValueError when its violation exceeds both active_tol and FEAS_TOL
    relative."""
    x = np.asarray(point, dtype=float)
    cvals_eq = [c.eval(x) for c in prob.equalities]
    cvals_in = [c.eval(x) for c in prob.inequalities]
    scale = 1.0 + max((abs(v) for v in cvals_eq + cvals_in), default=0.0)
    if active_tol is None:
        active_tol = FEAS_TOL * scale
    viol = max([abs(v) for v in cvals_eq] + [-min(0.0, v) for v in cvals_in],
               default=0.0)
    if viol > max(FEAS_TOL * scale, active_tol):
        raise ValueError(f"point is infeasible (violation {viol:.3e})")

    return _kkt(prob, x, _active_constraints(prob, cvals_in, active_tol), cvals_in,
                fooc_tol, "regular")


def _check_lifted(prob: PopProblem, point, f_min_estimate: float, tol: float,
                  fooc_tol: float, even_variant: bool) -> OptCondReport:
    """The KKT tests of ``homogenized_nlp`` at (0, v), reported in the
    original problem's labels."""
    lifted = homogenized_nlp(prob, f_min_estimate, even_variant)
    v = np.asarray(point, dtype=float)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-6:
        v = v / nrm
    x = np.concatenate(([0.0], v))
    n_eq, n_in = len(prob.equalities), len(prob.inequalities)
    # at x0 = 0 every homogenized polynomial is the top-degree part at v
    fval = lifted.objective.eval(x)
    if abs(fval) > tol:
        raise ValueError(f"top-degree objective part is {fval:.3e} != 0 at the point")
    for i, c in enumerate(lifted.equalities[:n_eq]):
        if abs(c.eval(x)) > tol:
            raise ValueError(f"equality {i} top part nonzero at the point")
    cvals_in = [c.eval(x) for c in lifted.inequalities]
    for j, val in enumerate(cvals_in[:n_in]):
        if val < -tol:
            raise ValueError(f"inequality {j} top part negative at the point")

    rep = _kkt(lifted, x, _active_constraints(lifted, cvals_in, tol), cvals_in,
               fooc_tol, "at_infinity_even" if even_variant else "at_infinity")
    sphere, x0 = f"eq{n_eq}", f"ineq{n_in}"
    rep.point = v
    rep.active_set = [lab for lab in rep.active_set if lab not in (sphere, x0)]
    rep.lambda_bar = 2.0 * rep.multipliers.pop(sphere)
    if not even_variant:
        rep.lambda0 = rep.multipliers.pop(x0)
    return rep


def check_at_infinity(prob: PopProblem, point, f_min_estimate: float,
                      tol: float = 1e-6, fooc_tol: float = 1e-6) -> OptCondReport:
    """Optimality conditions at a minimizer at infinity (x0 >= 0 retained).

    The point must be a unit vector in the zero set of the top-degree
    objective part, feasible for the top-degree constraint parts."""
    return _check_lifted(prob, point, f_min_estimate, tol, fooc_tol, even_variant=False)


def check_at_infinity_even(prob: PopProblem, point, f_min_estimate: float,
                           tol: float = 1e-6, fooc_tol: float = 1e-6) -> OptCondReport:
    """Even-degree variant of ``check_at_infinity``: the homogenized program
    drops x0 >= 0, and the report has no ``lambda0``."""
    if prob.objective.degree() < 2:
        raise ValueError("objective degree must be at least 2")
    return _check_lifted(prob, point, f_min_estimate, tol, fooc_tol, even_variant=True)


def homogenized_nlp(prob: PopProblem, f_min_estimate: float,
                    even_variant: bool = False) -> PopProblem:
    """The sphere-lifted nonlinear program in (x0, x): min f~ - f_min x0^d
    on the unit sphere, with x0 >= 0 unless ``even_variant``.  Its
    minimizers with x0 > 0 correspond to minimizers of the original problem,
    those with x0 = 0 to minimizers at infinity."""
    lift = build_homogenized(prob, even_variant)
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
