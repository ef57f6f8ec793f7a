"""Assembly of moment relaxations for polynomial optimization.

Every hierarchy member is assembled as one generic moment SDP

    minimize   <theta, y>
    s.t.       L_p[y] = 0       for equality polynomials p,
               L_q[y] >= 0      (psd) for inequality polynomials q,
               M_k[y] >= 0,
               <nu, y> = 1,

where the objective/normalizer pair (theta, nu) and the variable space
depend on the hierarchy kind:

  homogenized       theta = f~,                nu = x0^d        (x0 >= 0 kept)
  homogenized_even  same, without x0 >= 0      (even degrees only)
  denominator       theta = (1+|x|^2)^m f,     nu = (1+|x|^2)^m, original vars
  power_x0(l)       theta = x0^(2l) f~,        nu = x0^(2l+d)
  standard          theta = f,                 nu = 1

Equality polynomials are encoded as scalar rows <p * x^g, y> = 0 over all
monomials x^g with deg(p * x^g) <= 2k, which spans the same truncated ideal
as the matrix condition L_p[y] = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .poly import (Polynomial, PopProblem, basis_index, build_homogenized,
                   monomial_basis, sum_of_squares_norm)
from . import sdp


class OrderTooSmallError(ValueError):
    """The relaxation order cannot accommodate some constraint degree."""


class InfeasibleRelaxationError(ValueError):
    """The linear moment constraints are inconsistent (no normalized y)."""


@dataclass(frozen=True)
class HierarchyKind:
    """One member family of the relaxation hierarchy.  Its capabilities are
    read-only properties derived from ``name``: ``has_x0`` (the data lift to
    the sphere in (x0, x), theta = x0^(2 power) f~, nu = x0^(2 power + d)),
    ``even`` (the lift drops x0 >= 0; atoms come in antipodal pairs) and
    ``extracts`` (flat truncations yield minimizer candidates)."""

    name: str
    power: int = 0  # x0 exponent parameter, used by power_x0 only

    @property
    def has_x0(self) -> bool:
        return self.name in ("homogenized", "homogenized_even", "power_x0")

    @property
    def even(self) -> bool:
        return self.name == "homogenized_even"

    @property
    def extracts(self) -> bool:
        return self.name != "denominator"

    def __str__(self):
        if self.name == "power_x0":
            return f"power_x0({self.power})"
        return self.name


HOMOGENIZED = HierarchyKind("homogenized")
HOMOGENIZED_EVEN = HierarchyKind("homogenized_even")
DENOMINATOR = HierarchyKind("denominator")
STANDARD = HierarchyKind("standard")


def power_x0(ell: int) -> HierarchyKind:
    if ell < 0:
        raise ValueError("power must be nonnegative")
    return HierarchyKind("power_x0", power=ell)


def localizing_pencil(p: Polynomial, k: int, label: str = "") -> sdp.SdpPencil:
    """Pencil of the localizing matrix of p at order k: entry (a, b) is the
    functional y -> sum_g p_g y_{g + a + b} over basis monomials of degree
    <= k - ceil(deg(p)/2).  p = 1 yields the moment matrix."""
    deg = p.degree()
    if 2 * k < deg:
        raise OrderTooSmallError(f"order {k} too small for degree-{deg} polynomial")
    t = k - math.ceil(deg / 2)
    rows_basis = monomial_basis(p.nvars, t)
    idx = basis_index(p.nvars, 2 * k)
    s = len(rows_basis)
    data, ri, ci = [], [], []
    for i, a in enumerate(rows_basis):
        for j, b in enumerate(rows_basis):
            ab = tuple(x + y for x, y in zip(a, b))
            for g, c in p.terms.items():
                ri.append(i * s + j)
                ci.append(idx[tuple(x + y for x, y in zip(ab, g))])
                data.append(c)
    coeffs = scipy.sparse.csr_matrix(
        (data, (ri, ci)), shape=(s * s, len(idx)))
    return sdp.SdpPencil(label or f"loc[{p.to_string()}]", s, coeffs,
                         basis=rows_basis)


@dataclass
class MomentRelaxation:
    """One assembled moment SDP instance of the hierarchy."""

    kind: HierarchyKind
    nvars: int          # variables of the tms space (n or n+1)
    order: int
    tms_dim: int
    objective_vector: np.ndarray
    normalizer_vector: np.ndarray
    normalizer_power: int | None   # x0 exponent of nu for the lifted kinds
    eq_A: np.ndarray               # rows: <p x^g, y> = 0, then <nu, y> = 1
    eq_b: np.ndarray
    eq_row_meta: list              # ("eq", i, gamma) or ("normalizer", None, None)
    psd_pencils: list              # sdp.SdpPencil, moment pencil first


def _relaxed_space(kind: HierarchyKind, prob: PopProblem, k: int):
    """Resolve (theta, nu, equalities, inequalities, nvars, nu_power)."""
    d = prob.objective.degree()
    if kind.has_x0:
        lift = build_homogenized(prob, even_variant=kind.even)
        x0 = Polynomial.variable(lift.nvars, 0)
        nu_pow = 2 * kind.power + d
        return (lift.objective * x0 ** (2 * kind.power), x0 ** nu_pow,
                lift.equalities, lift.inequalities, lift.nvars, nu_pow)
    if kind.name == "denominator":
        m = k - math.ceil(d / 2)
        if m < 0:
            raise OrderTooSmallError(f"order {k} below ceil(deg(f)/2)")
        den = (1.0 + sum_of_squares_norm(prob.nvars)) ** m
        return (den * prob.objective, den, prob.equalities, prob.inequalities,
                prob.nvars, None)
    if kind.name == "standard":
        one = Polynomial.constant(prob.nvars, 1.0)
        return (prob.objective, one, prob.equalities, prob.inequalities,
                prob.nvars, None)
    raise ValueError(f"unknown hierarchy kind {kind.name!r}")


def assemble(kind: HierarchyKind, prob: PopProblem, k: int) -> MomentRelaxation:
    """Assemble the order-k moment relaxation of the given kind."""
    theta, nu, eqs, ineqs, nv, nu_pow = _relaxed_space(kind, prob, k)
    two_k = 2 * k
    for p in (theta, nu, *eqs, *ineqs):
        if p.degree() > two_k:
            raise OrderTooSmallError(
                f"order {k} too small: degree {p.degree()} exceeds 2k = {two_k}")
    idx = basis_index(nv, two_k)
    dim = len(idx)

    pencils = [localizing_pencil(Polynomial.constant(nv, 1.0), k, label="moment")]
    for j, q in enumerate(ineqs):
        pencils.append(localizing_pencil(q, k, label=f"ineq{j}"))

    rows, meta = [], []
    for i, p in enumerate(eqs):
        if p.is_zero:
            continue
        shifts = monomial_basis(nv, two_k - p.degree())
        pmonos = list(p.terms.items())
        for g in shifts:
            row = np.zeros(dim)
            for mono, c in pmonos:
                row[idx[tuple(a + b for a, b in zip(mono, g))]] += c
            rows.append(row)
            meta.append(("eq", i, g))
    nu_vec = nu.coefficient_vector(two_k)
    rows.append(nu_vec)
    meta.append(("normalizer", None, None))
    eq_A = np.array(rows)
    eq_b = np.zeros(len(rows))
    eq_b[-1] = 1.0

    return MomentRelaxation(
        kind=kind, nvars=nv, order=k, tms_dim=dim,
        objective_vector=theta.coefficient_vector(two_k),
        normalizer_vector=nu_vec, normalizer_power=nu_pow,
        eq_A=eq_A, eq_b=eq_b, eq_row_meta=meta, psd_pencils=pencils)


def _independent_rows(rows: np.ndarray, tol: float) -> list:
    """Indices of a maximal independent row subset (rank-revealing QR)."""
    if rows.shape[0] == 0:
        return []
    r = scipy.linalg.qr(rows.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r[0]))
    piv = r[1]
    if diag.size == 0 or diag[0] == 0.0:
        return []
    rank = int(np.sum(diag > tol * diag[0]))
    return sorted(piv[:rank].tolist())


def to_sdp_instance(rel: MomentRelaxation, row_tol: float = 1e-10):
    """Preprocess the relaxation into a full-row-rank SDP instance.

    Redundant equality rows are removed by rank-revealing QR and the kept
    rows (normalizer included) are scaled to unit norm.  Returns
    ``(instance, kept_row_indices)``.
    """
    norms = np.linalg.norm(rel.eq_A, axis=1)
    if norms[-1] == 0.0:
        raise InfeasibleRelaxationError("normalizer polynomial is zero")
    if np.any(norms == 0.0):
        raise ValueError("zero equality row in the relaxation")
    scaled = rel.eq_A / norms[:, None]
    data = scaled[:-1]
    kept = _independent_rows(data, row_tol)
    nu_row = scaled[-1]
    if kept:
        resid = nu_row - data[kept].T @ np.linalg.lstsq(
            data[kept].T, nu_row, rcond=None)[0]
        if np.linalg.norm(resid) <= row_tol:
            raise InfeasibleRelaxationError(
                "normalizer lies in the span of the equality rows; "
                "<nu, y> = 1 is inconsistent with the moment equalities")
    kept_all = kept + [rel.eq_A.shape[0] - 1]
    A = scaled[kept_all]
    b = rel.eq_b[kept_all] / norms[kept_all]
    inst = sdp.SdpInstance(c=rel.objective_vector.copy(), A=A, b=b,
                           pencils=rel.psd_pencils)
    return inst, kept_all


@dataclass
class SosCertificate:
    """Weighted-SOS representation recovered from moment duality:

        theta - gamma * nu = sum_j sigma_j * q_j + sum_p phi_p * p

    with sigma_j = [x]^T G_j [x] for psd Gram matrices G_j.  ``residual`` is
    the max-norm coefficient defect of this polynomial identity.
    """

    gamma: float
    grams: list            # (label, basis monomials, psd Gram matrix)
    multipliers: dict      # equality index -> Polynomial phi_p
    residual: float


def sos_certificate_from_dual(rel: MomentRelaxation, sol) -> SosCertificate:
    """Reconstruct the SOS-side certificate from an SDP solution's duals."""
    if sol.pencil_duals is None:
        raise ValueError(f"no dual information available (status {sol.status})")
    _, kept = to_sdp_instance(rel)
    norms = np.linalg.norm(rel.eq_A, axis=1)

    resid = rel.objective_vector.copy()
    grams = []
    for pen, Z in zip(rel.psd_pencils, sol.pencil_duals):
        resid -= pen.coeffs.T @ Z.reshape(-1)
        grams.append((pen.label, pen.basis, Z))

    gamma = 0.0
    shifts = {}  # equality index -> {shift g: coefficient}
    for dual, row_id in zip(sol.eq_duals, kept):
        coef = dual / norms[row_id]  # dual of the unit-scaled row
        kind_, i, g = rel.eq_row_meta[row_id]
        resid -= coef * rel.eq_A[row_id]
        if kind_ == "normalizer":
            gamma = coef
        else:
            terms = shifts.setdefault(i, {})
            terms[g] = terms.get(g, 0.0) + coef
    multipliers = {i: Polynomial(rel.nvars, terms) for i, terms in shifts.items()}
    return SosCertificate(gamma=gamma, grams=grams, multipliers=multipliers,
                          residual=float(np.max(np.abs(resid))))
