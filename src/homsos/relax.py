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

Symmetry reduction.  ``assemble`` tests transpositions of two variables,
single sign flips, and the flips of all variables and of all but one; it
keeps those that fix theta and nu, the equalities as a multiset up to sign
and the inequalities as a multiset, comparing coefficients exactly.  For
the group G they generate, averaging a feasible y over G gives a feasible y
of the same value, so the relaxation may be solved over the G-invariant
moment vectors y = P z without changing its optimal value (Gatermann &
Parrilo, JPAA 2004; Riener, Theobald, Andren & Lasserre, Math. OR 2013).
Column o of P spans the monomials of orbit o with their signs; an orbit that
G maps to its own negative forces its moments to 0.  ``to_sdp_instance``
then builds the instance in z, ``full_solution`` maps its solution back to
y, and ``sos_certificate_from_dual`` averages the solution's Gram matrices
and multipliers over G (by orbit sums, so G is never enumerated), which
makes the whole SOS identity hold rather than only its orbit sums.  With no
symmetry found, every step is the unreduced one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse

from .poly import (Polynomial, PopProblem, basis_size, build_homogenized,
                   exponent_array, monomial_basis, monomial_positions,
                   sum_of_squares_norm)
from . import sdp

ROW_TOL = 1e-10   # relative size below which an equality row is dependent


class OrderTooSmallError(ValueError):
    """The relaxation order cannot accommodate some constraint degree."""


class InfeasibleRelaxationError(ValueError):
    """The linear moment constraints are inconsistent (no normalized y)."""


@dataclass(frozen=True)
class HierarchyKind:
    """One member family of the relaxation hierarchy, described by data.
    ``name`` is the report label.  ``has_x0``: the data lift to the sphere in
    (x0, x), theta = x0^(2 power) f~, nu = x0^(2 power + d); ``even``: the
    lift drops x0 >= 0 and atoms come in antipodal pairs.  Without the lift,
    theta = (1+|x|^2)^m f and nu = (1+|x|^2)^m, with m = k - ceil(d/2) when
    ``denominator`` and m = 0 otherwise."""

    name: str
    has_x0: bool = False
    even: bool = False
    power: int = 0
    denominator: bool = False

    @property
    def extracts(self) -> bool:
        """Flat truncations yield minimizer candidates."""
        return not self.denominator

    def __str__(self):
        return self.name


HOMOGENIZED = HierarchyKind("homogenized", has_x0=True)
HOMOGENIZED_EVEN = HierarchyKind("homogenized_even", has_x0=True, even=True)
DENOMINATOR = HierarchyKind("denominator", denominator=True)
STANDARD = HierarchyKind("standard")


def power_x0(ell: int) -> HierarchyKind:
    if ell < 0:
        raise ValueError("power must be nonnegative")
    return HierarchyKind(f"power_x0({ell})", has_x0=True, power=ell)


def _shifted_rows(p: Polynomial, shifts: np.ndarray, dim: int):
    """CSR rows of p x^g over ``dim`` moments for each exponent row g of
    ``shifts``, columns ascending; a row's terms land apart, so each stored
    value is a coefficient of p, rounded to the nearest float."""
    terms = np.array(list(p.terms), dtype=np.int64).reshape(-1, p.nvars)
    pos = monomial_positions(shifts[:, None] + terms)
    order = np.argsort(pos, axis=1)
    vals = np.array(list(p.terms.values()), dtype=float)[order]
    return scipy.sparse.csr_matrix(
        (vals.reshape(-1), np.take_along_axis(pos, order, axis=1).reshape(-1),
         np.arange(len(shifts) + 1) * len(terms)), shape=(len(shifts), dim))


def localizing_pencil(p: Polynomial, k: int, label: str = "") -> sdp.SdpPencil:
    """Pencil of the localizing matrix of p at order k: entry (a, b) is the
    functional y -> sum_g p_g y_{g + a + b} over basis monomials of degree
    <= k - ceil(deg(p)/2).  p = 1 yields the moment matrix."""
    deg = p.degree()
    if 2 * k < deg:
        raise OrderTooSmallError(f"order {k} too small for degree-{deg} polynomial")
    t = k - math.ceil(deg / 2)
    rows = exponent_array(p.nvars, t)
    # row i s + j of the coefficients is entry (i, j)
    coeffs = _shifted_rows(p, (rows[:, None] + rows[None, :]).reshape(-1, p.nvars),
                           basis_size(p.nvars, 2 * k))
    return sdp.SdpPencil(label or f"loc[{p.to_string()}]", len(rows), coeffs,
                         basis=monomial_basis(p.nvars, t))


@dataclass
class MomentRelaxation:
    """One assembled moment SDP instance of the hierarchy: the exact theta
    and nu of the kind, and the float rows and pencils built from them."""

    kind: HierarchyKind
    order: int
    theta: Polynomial
    nu: Polynomial
    # scipy.sparse.csr_matrix, (rows, tms_dim), columns sorted in each row:
    # <p_i x^g, y> = 0 for each (i, g) of eq_shifts, then <nu, y> = 1
    eq_A: object
    eq_shifts: list                # (equality index i, shift g) per row but the last
    psd_pencils: list              # sdp.SdpPencil, moment pencil first
    symmetry: "Symmetry | None" = None   # None when the group is trivial

    @property
    def nvars(self) -> int:
        """Variables of the tms space (n or n+1)."""
        return self.theta.nvars

    @property
    def tms_dim(self) -> int:
        return basis_size(self.nvars, 2 * self.order)


def _relaxed_space(kind: HierarchyKind, prob: PopProblem, k: int):
    """Resolve (theta, nu, equalities, inequalities, nvars)."""
    d = prob.objective.degree()
    if kind.has_x0:
        lift = build_homogenized(prob, even_variant=kind.even)
        x0 = Polynomial.variable(lift.nvars, 0)
        return (lift.objective * x0 ** (2 * kind.power), x0 ** (2 * kind.power + d),
                lift.equalities, lift.inequalities, lift.nvars)
    m = k - math.ceil(d / 2) if kind.denominator else 0
    if m < 0:
        raise OrderTooSmallError(f"order {k} below ceil(deg(f)/2)")
    den = (1.0 + sum_of_squares_norm(prob.nvars)) ** m
    return (den * prob.objective, den, prob.equalities, prob.inequalities,
            prob.nvars)


def assemble(kind: HierarchyKind, prob: PopProblem, k: int, *,
             _symmetry: bool = True) -> MomentRelaxation:
    """Assemble the order-k moment relaxation of the given kind, with the
    group of signed permutations of the variables that fixes its data
    (``_symmetry=False`` leaves the group out).  Raises ``sdp.ResourceError``
    when the solve's dense arrays (``_dense_bytes``, over the group's
    orbits) would exceed the memory the process may use
    (``sdp.physical_memory``): before any pencil is built, and before
    anything that grows with the order where the moment matrix alone
    would."""
    what = f"the order-{k} relaxation"
    # refuse on the moment matrix first, before the denominator kind's
    # (1+|x|^2)^m and the group's monomial maps
    check_order_fits(prob.nvars + 1 if kind.has_x0 else prob.nvars, k, what)
    theta, nu, eqs, ineqs, nv = _relaxed_space(kind, prob, k)
    two_k = 2 * k
    for p in (theta, nu, *eqs, *ineqs):
        if p.degree() > two_k:
            raise OrderTooSmallError(
                f"order {k} too small: degree {p.degree()} exceeds 2k = {two_k}")
    group = _group(theta, nu, eqs, ineqs, nv, k) if _symmetry else None
    dim = basis_size(nv, two_k)
    orbits = live = None
    if group is not None:
        orbits = _orbits(dim, [mono for *_, mono in group])
        live = _live(orbits).size
    sdp.check_memory(_dense_bytes(nv, k, eqs, ineqs, live), what)

    pencils = [localizing_pencil(Polynomial.constant(nv, 1.0), k, label="moment")]
    for j, q in enumerate(ineqs):
        pencils.append(localizing_pencil(q, k, label=f"ineq{j}"))

    blocks, shifts = [], []
    for i, p in enumerate(eqs):
        if p.is_zero:
            continue
        blocks.append(_shifted_rows(p, exponent_array(nv, two_k - p.degree()), dim))
        shifts.extend((i, g) for g in monomial_basis(nv, two_k - p.degree()))
    blocks.append(_shifted_rows(nu, np.zeros((1, nv), dtype=np.int64), dim))
    eq_A = scipy.sparse.vstack(blocks, format="csr")

    return MomentRelaxation(
        kind=kind, order=k, theta=theta, nu=nu, eq_A=eq_A, eq_shifts=shifts,
        psd_pencils=pencils,
        symmetry=None if group is None
        else _symmetry_of(group, orbits))


def check_order_fits(nvars: int, k: int, what: str):
    """Raise ``sdp.ResourceError`` for ``what`` when the QR stack of the
    order-k moment matrix in nvars variables, which every relaxation of that
    order holds however few orbits its group leaves, exceeds physical memory."""
    sdp.check_memory(sdp.dense_bytes(0, 0, [basis_size(nvars, k)]), what)


def _dense_bytes(nv: int, k: int, eqs, ineqs, orbits: int | None = None) -> int:
    """``sdp.dense_bytes`` of the order-k relaxation in nv variables with
    these equalities and inequalities, from its sizes alone: the moments of
    degree <= 2k, the rows ``assemble`` builds and the localizing sizes.
    Under a symmetry group with ``orbits`` live monomial orbits the solved
    instance has that many moments, and its free moments number at most
    ``orbits`` and at most those of the unreduced instance (an invariant
    y = P z is one of them)."""
    m = math.comb(nv + 2 * k, nv)
    rows = 1 + sum(math.comb(nv + 2 * k - p.degree(), nv) for p in eqs if not p.is_zero)
    sizes = [math.comb(nv + k - math.ceil(d / 2), nv)
             for d in (0, *(q.degree() for q in ineqs))]
    if orbits is not None:
        m, rows = orbits, orbits - min(orbits, max(m - rows, 0))
    return sdp.dense_bytes(m, rows, sizes)


# -- symmetry -----------------------------------------------------------------

@dataclass(frozen=True)
class SignedPermutation:
    """The substitution x_i -> signs[i] * x_{perm[i]} of the variables."""

    perm: tuple
    signs: tuple

    def monomial(self, mono) -> tuple:
        """(sign, image): x^mono after the substitution is sign * x^image."""
        image = [0] * len(mono)
        sign = 1
        for i, e in enumerate(mono):
            image[self.perm[i]] = e
            if e % 2 and self.signs[i] < 0:
                sign = -sign
        return sign, tuple(image)

    def monomial_map(self, exps: np.ndarray) -> tuple:
        """``monomial`` for each exponent row of ``exps``: arrays of the
        graded-lex positions of the images and of the signs (as floats)."""
        image = np.empty_like(exps)
        image[:, list(self.perm)] = exps
        flipped = [i for i, sg in enumerate(self.signs) if sg < 0]
        odd = exps[:, flipped].sum(axis=1) % 2
        return monomial_positions(image), np.where(odd, -1.0, 1.0)

    def apply(self, p: Polynomial) -> dict:
        """Terms of p after the substitution (exact: coefficients only move
        and change sign)."""
        out = {}
        for mono, c in p.terms.items():
            sign, image = self.monomial(mono)
            out[image] = c if sign > 0 else -c
        return out

    def describe(self, names) -> str:
        """The moved variables and their images, e.g. ``x1->x2 x2->x1``."""
        return " ".join(f"{names[i]}->{'-' if sg < 0 else ''}{names[j]}"
                        for i, (j, sg) in enumerate(zip(self.perm, self.signs))
                        if j != i or sg < 0)


def _candidates(nv: int) -> list:
    """Transpositions, single sign flips, and the flips of all variables and
    of all but one (x -> -x with x0 fixed), without repeats."""
    ident = tuple(range(nv))
    out = []
    for i, j in itertools.combinations(range(nv), 2):
        perm = list(ident)
        perm[i], perm[j] = j, i
        out.append(SignedPermutation(tuple(perm), (1,) * nv))
    flips = [{i} for i in range(nv)] + [set(ident)]
    flips += [set(ident) - {i} for i in range(nv)]
    for flip in flips:
        if flip:
            out.append(SignedPermutation(
                ident, tuple(-1 if i in flip else 1 for i in ident)))
    return list(dict.fromkeys(out))


def _match(images, targets, signed):
    """A bijection taking each image to an equal target (or, when
    ``signed``, to the negative of one): [(target index, sign)], or None."""
    free = list(range(len(targets)))
    out = []
    for image in images:
        negated = {m: -c for m, c in image.items()}
        for pos, j in enumerate(free):
            if targets[j] == image or (signed and targets[j] == negated):
                out.append((j, 1 if targets[j] == image else -1))
                del free[pos]
                break
        else:
            return None
    return out


def _orbits(n: int, maps: list) -> tuple:
    """Orbits of {0, ..., n-1} under signed maps, each a pair (image, sign)
    of arrays: element i goes to image[i] with sign sign[i].

    Returns (root, sign): the smallest element of each element's orbit and
    the element's sign relative to it, found by propagating the smallest
    label along the maps and their inverses.  ``sign`` is 0 on an orbit that
    some composition of the maps sends to its own negative."""
    edges = list(maps)
    for image, sg in maps:
        inverse = np.empty_like(image)
        inverse[image] = np.arange(n)
        edges.append((inverse, sg[inverse]))
    root = np.arange(n)
    sign = np.ones(n)
    changed = True
    while changed:
        changed = False
        for image, sg in edges:
            lower = root[image] < root
            if lower.any():
                root[lower] = root[image[lower]]
                sign[lower] = sg[lower] * sign[image[lower]]
                changed = True
    negated = np.zeros(n, dtype=bool)
    for image, sg in edges:
        negated[root[sg * sign[image] != sign]] = True
    sign[negated[root]] = 0.0
    return root, sign


def _orbit_average(orbits: tuple, v: np.ndarray) -> np.ndarray:
    """The average of v over the group the orbit maps generate: by
    orbit-stabilizer, each entry becomes the signed mean of its orbit."""
    root, sign = orbits
    n = root.size
    sums = np.bincount(root, weights=sign * v, minlength=n)
    counts = np.bincount(root, minlength=n)
    return sign * (sums[root] / counts[root])


@dataclass
class Symmetry:
    """Signed permutations of the variables that fix a relaxation's data.

    The relaxation is then solved over the invariant moment vectors
    y = P z, where column o of the sparse ``orbit_map`` P holds the signs
    of the monomials of orbit o relative to its first monomial, so z_o is
    the moment of that monomial.  An orbit that the group maps to its own
    negative forces its moments to 0 and has no column.  ``images`` keeps,
    per generator, what ``_group`` found: the images of the equalities and
    of the inequalities and the map of the monomials.  ``group_average``
    builds from them the orbits of the Gram entries and of the equality
    rows, for the certificate alone."""

    generators: list       # SignedPermutation
    orbit_map: object      # scipy.sparse.csr_matrix, (tms_dim, orbits)
    images: list           # (eq_image, ineq_image, (image, sign)) per generator


def _group(theta, nu, eqs, ineqs, nv, k):
    """The signed permutations among ``_candidates`` that fix theta, nu, the
    equalities up to sign and the inequalities, all compared exactly, as
    (g, equality images, inequality images, monomial map) with the map of
    the monomials of degree <= 2k (see ``_orbits``); None when no candidate
    does.  The pencils play no part, so ``assemble`` sizes its resource
    guard with the group before building them."""
    found = []
    for g in _candidates(nv):
        if g.apply(theta) != theta.terms or g.apply(nu) != nu.terms:
            continue
        eq_image = _match([g.apply(p) for p in eqs], [p.terms for p in eqs], True)
        ineq_image = _match([g.apply(q) for q in ineqs],
                            [q.terms for q in ineqs], False)
        if eq_image is not None and ineq_image is not None:
            found.append((g, eq_image, ineq_image,
                          g.monomial_map(exponent_array(nv, 2 * k))))
    return found or None


def _live(orbits: tuple) -> np.ndarray:
    """The first element of each orbit that is not its own negative: one
    per free moment of the invariant moment vectors."""
    root, sign = orbits
    return np.flatnonzero((root == np.arange(root.size)) & (sign != 0))


def _symmetry_of(group, orbits):
    """The ``Symmetry`` of the relaxation from its ``_group`` and the
    monomial orbits the group generates."""
    root, sign = orbits
    cols = _live(orbits)
    live = np.flatnonzero(sign)
    orbit_map = scipy.sparse.csr_matrix(
        (sign[live], (live, np.searchsorted(cols, root[live]))),
        shape=(root.size, cols.size))
    return Symmetry(generators=[g for g, *_ in group], orbit_map=orbit_map,
                    images=[(eq, ineq, mono) for _g, eq, ineq, mono in group])


def group_average(rel: MomentRelaxation, lam: np.ndarray, grams: list) -> tuple:
    """The multipliers ``lam`` of the rows of ``eq_A`` and the Gram matrices
    ``grams`` of the pencils, averaged over the relaxation's group: each
    entry becomes the signed mean of its orbit (``_orbit_average``).  The
    orbits of the stacked Gram entries and of the rows are built here from
    the generators' ``images``, so only a certificate holds them."""
    sizes = [pen.size for pen in rel.psd_pencils]
    offsets = np.cumsum([0] + [s * s for s in sizes])
    rows = lam.size
    eq_rows = {}   # equality index -> [first row, row count]
    for row, (i, _g) in enumerate(rel.eq_shifts):
        eq_rows.setdefault(i, [row, 0])[1] += 1
    gram_maps, row_maps = [], []
    for eq_image, ineq_image, (image, sg) in rel.symmetry.images:
        # pencil j + 1 localizes inequality j; the moment pencil is fixed
        targets = [0] + [j + 1 for j, _ in ineq_image]
        g_image, g_sign = [], []
        for j, s in enumerate(sizes):
            g_image.append(offsets[targets[j]]
                           + np.add.outer(image[:s] * s, image[:s]).reshape(-1))
            g_sign.append(np.outer(sg[:s], sg[:s]).reshape(-1))
        gram_maps.append((np.concatenate(g_image), np.concatenate(g_sign)))
        r_image, r_sign = np.arange(rows), np.ones(rows)
        for i, (start, count) in eq_rows.items():
            j, eps = eq_image[i]
            r_image[start:start + count] = eq_rows[j][0] + image[:count]
            r_sign[start:start + count] = eps * sg[:count]
        row_maps.append((r_image, r_sign))

    flat = _orbit_average(_orbits(int(offsets[-1]), gram_maps),
                          np.concatenate([g.reshape(-1) for g in grams]))
    out = [flat[start:stop].reshape(g.shape)
           for g, start, stop in zip(grams, offsets, offsets[1:])]
    return _orbit_average(_orbits(rows, row_maps), lam), out


def describe_symmetry(rel: MomentRelaxation, inst) -> dict | None:
    """Report fields of the relaxation's symmetry reduction (None when the
    group is trivial): the generators, the orbits (free moments of the
    solved instance) against the moments, and the equality rows before and
    after ``to_sdp_instance``."""
    sym = rel.symmetry
    if sym is None:
        return None
    first = 0 if rel.kind.has_x0 else 1
    names = [f"x{i + first}" for i in range(rel.nvars)]
    return {"generators": [g.describe(names) for g in sym.generators],
            "orbits": int(sym.orbit_map.shape[1]),
            "moments": int(rel.tms_dim),
            "eq_rows_before": int(rel.eq_A.shape[0]),
            "eq_rows_after": int(inst.A.shape[0])}


def full_solution(rel: MomentRelaxation, sol):
    """A solution of ``to_sdp_instance(rel)`` with ``y`` in the moment
    coordinates of ``rel``: y = P z when the instance is in orbit
    coordinates.  Duals stay those of the solved instance."""
    if rel.symmetry is None or sol.y is None:
        return sol
    return replace(sol, y=rel.symmetry.orbit_map @ sol.y)


def _independent_rows(rows: np.ndarray, tol: float):
    """Indices of a maximal independent row subset and an orthonormal basis
    of their span, from one rank-revealing QR of ``rows^T``: the first rank
    pivots and the first rank columns of Q."""
    q, r, piv = scipy.linalg.qr(rows.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > tol * diag[:1]))
    return sorted(piv[:rank].tolist()), q[:, :rank]


def _solved_rows(rel: MomentRelaxation) -> np.ndarray:
    """The equality rows in the coordinates of the solved instance, as a new
    dense array: ``eq_A`` in C order, or ``eq_A P`` in orbit coordinates,
    multiplied sparse and laid out in Fortran order.  The layout is part of
    the arithmetic: numpy sums a contiguous axis pairwise and a strided one
    in sequence, and the row norms are such sums."""
    if rel.symmetry is None:
        return rel.eq_A.toarray()
    return (rel.eq_A @ rel.symmetry.orbit_map).toarray(order="F")


def to_sdp_instance(rel: MomentRelaxation):
    """Preprocess the relaxation into a full-row-rank SDP instance.

    With a symmetry group the instance is in orbit coordinates z (y = P z):
    objective ``P^T c``, pencil coefficients ``coeffs P`` and equality rows
    ``eq_A P``, densified as the orbits x rows product (without a group,
    ``eq_A`` itself).  Rows whose orbit sums cancel are dropped, the rest
    scaled to unit norm (in place when none was dropped), and one
    rank-revealing QR keeps an independent subset of them and spans it:
    a normalizer within ``ROW_TOL`` of that span is inconsistent.  The
    instance's ``A`` is dense.  Returns ``(instance, kept_row_indices)``,
    indices of rows of ``eq_A``.
    """
    sym = rel.symmetry
    theta = rel.theta.coefficient_vector(2 * rel.order)
    rows = _solved_rows(rel)
    norms = np.linalg.norm(rows, axis=1)
    if norms[-1] == 0.0:
        raise InfeasibleRelaxationError("normalizer polynomial is zero")
    if sym is None:
        if np.any(norms == 0.0):
            raise ValueError("zero equality row in the relaxation")
        c, pencils = theta, rel.psd_pencils
    else:
        c = sym.orbit_map.T @ theta
        pencils = [replace(pen, coeffs=(pen.coeffs @ sym.orbit_map).tocsr())
                   for pen in rel.psd_pencils]
    # an invariant y satisfies a row whose orbit sums cancel
    full = np.sqrt(rel.eq_A.power(2) @ np.ones(rel.tms_dim))[:-1]
    ids = np.append(np.flatnonzero(norms[:-1] > ROW_TOL * full), rows.shape[0] - 1)
    scaled = rows if ids.size == rows.shape[0] else rows[ids]
    scaled /= norms[ids, None]
    kept, basis = _independent_rows(scaled[:-1], ROW_TOL)
    nu_row = scaled[-1]
    # the residual itself: sqrt(|nu|^2 - |S^T nu|^2) reads up to 1.5e-8 in the span
    if np.linalg.norm(nu_row - basis @ (basis.T @ nu_row)) <= ROW_TOL:
        raise InfeasibleRelaxationError(
            "normalizer lies in the span of the equality rows; "
            "<nu, y> = 1 is inconsistent with the moment equalities")
    kept_all = [int(i) for i in ids[kept]] + [rows.shape[0] - 1]
    A = scaled[kept + [ids.size - 1]]
    b = np.zeros(len(kept_all))
    b[-1] = 1.0 / norms[-1]
    inst = sdp.SdpInstance(c=c, A=A, b=b, pencils=pencils)
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
    """Reconstruct the SOS-side certificate from an SDP solution's duals.

    A solution in orbit coordinates only makes the orbit sums of the
    identity's residual vanish; its Gram matrices and multipliers are
    averaged over the group first (``group_average``, which builds the
    orbits of the Gram entries and of the rows for this call alone), after
    which the whole residual does."""
    if sol.pencil_duals is None:
        raise ValueError(f"no dual information available (status {sol.status})")
    _, kept = to_sdp_instance(rel)
    norms = np.linalg.norm(_solved_rows(rel), axis=1)
    lam = np.zeros(rel.eq_A.shape[0])
    lam[kept] = sol.eq_duals / norms[kept]  # duals of the unit-scaled rows
    pencil_duals = sol.pencil_duals
    if rel.symmetry is not None:
        lam, pencil_duals = group_average(rel, lam, pencil_duals)

    resid = rel.theta.coefficient_vector(2 * rel.order)
    grams = []
    for pen, Z in zip(rel.psd_pencils, pencil_duals):
        resid -= pen.coeffs.T @ Z.reshape(-1)
        grams.append((pen.label, pen.basis, Z))
    # each multiplier's row at its nonzeros, row after row: ``subtract.at``
    # applies the terms in the order given
    used = np.flatnonzero(lam)
    rows = rel.eq_A[used]
    np.subtract.at(resid, rows.indices,
                   np.repeat(lam[used], np.diff(rows.indptr)) * rows.data)

    shifts = {}  # equality index -> {shift g: coefficient}
    for row_id in used[used < len(rel.eq_shifts)]:
        i, g = rel.eq_shifts[row_id]
        shifts.setdefault(i, {})[g] = lam[row_id]
    multipliers = {i: Polynomial(rel.nvars, terms) for i, terms in shifts.items()}
    return SosCertificate(gamma=float(lam[-1]), grams=grams, multipliers=multipliers,
                          residual=float(np.max(np.abs(resid))))
