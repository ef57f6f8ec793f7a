"""Flat-truncation detection and atom extraction from truncated moment vectors.

A degree-2k truncated moment vector y (indexed by ``monomial_basis(nvars, 2k)``)
that satisfies the rank condition

    rank M_t[y] = rank M_{t - gap}[y]

for some t admits a finitely-atomic representation; the atoms are recovered
through multiplication matrices on a monomial basis of the column space of
M_t and a joint Schur diagonalization.  For homogenized problems the atoms
(tau, v) on the unit sphere split into regular minimizers u = v / tau (with
weight a * tau^d) and minimizers at infinity (tau = 0, weight a).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .poly import basis_size, exponent_array, monomial_basis, monomial_positions

NU_TOL = 1e-5   # normalizer weight a * tau^d below which an atom is not regular


class AtomExtractionError(RuntimeError):
    """Extraction failed (ill-conditioned basis or inconsistent moments)."""


def numerical_rank(mat: np.ndarray, tol: float = 1e-6) -> int:
    """Eigenvalues of a symmetric psd matrix above tol * max(1, lambda_max)."""
    w = scipy.linalg.eigvalsh(0.5 * (mat + mat.T))
    lam_max = max(w[-1], 0.0) if w.size else 0.0
    return int(np.sum(w > tol * max(1.0, lam_max)))


def moment_matrix(y: np.ndarray, nvars: int, k: int, t: int) -> np.ndarray:
    """Order-t principal moment matrix of a degree-2k tms."""
    if t > k:
        raise ValueError("t exceeds the truncation order")
    rows = exponent_array(nvars, t)
    return np.asarray(y, dtype=float)[monomial_positions(rows[:, None] + rows[None, :])]


def flat_truncation(y: np.ndarray, nvars: int, k: int, d_k: int,
                    rank_tol: float = 1e-6):
    """Smallest t in [d_k, k] with rank M_t = rank M_{t-d_k}, or None;
    each order's rank is computed once, and none past the t found."""
    if d_k < 1:
        raise ValueError("rank gap must be >= 1")
    if len(y) != basis_size(nvars, 2 * k):
        raise ValueError("tms length does not match nvars and order")
    rank = functools.cache(lambda t: numerical_rank(moment_matrix(y, nvars, k, t), rank_tol))
    for t in range(d_k, k + 1):
        if rank(t) == rank(t - d_k):
            return t
    return None


@dataclass
class Atom:
    """One weighted point of an atomic measure."""

    weight: float
    point: np.ndarray


@dataclass
class AtomSet:
    """Atoms of a homogenized moment solution, classified by the first
    coordinate tau: regular minimizers u = v/tau with weight a * tau^d,
    and minimizers at infinity v with weight a."""

    regular: list          # (u, nu) pairs
    at_infinity: list      # (v, nu) pairs
    flagged: list          # atoms with tau < -tau_tol (violating x0 >= 0)

    @property
    def regular_weight(self) -> float:
        return sum(nu for _, nu in self.regular)


def extract_atoms(y: np.ndarray, nvars: int, k: int, t: int,
                  rank_tol: float = 1e-6, extract_tol: float = 1e-5,
                  seed: int = 0) -> list:
    """Recover the atoms of a flat tms from its order-t moment matrix.

    Requires a monomial basis of degree <= t-1 for the column space of
    M_t[y] (guaranteed when rank M_t = rank M_{t-1}).  Raises
    ``AtomExtractionError`` on ill-conditioned bases, complex eigenvalue
    clusters, or a rebuild residual above ``extract_tol``.
    """
    mt = moment_matrix(y, nvars, k, t)
    w, q = scipy.linalg.eigh(mt)
    lam_max = max(w[-1], 0.0)
    keep = w > rank_tol * max(1.0, lam_max)
    r = int(np.sum(keep))
    if r == 0:
        raise AtomExtractionError("moment matrix is numerically zero")
    fac = q[:, keep] * np.sqrt(w[keep])          # (s, r) with M_t ~ fac fac^T

    low = basis_size(nvars, t - 1)
    _, rr, piv = scipy.linalg.qr(fac[:low].T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rr))
    if diag.size < r or diag[r - 1] <= 1e-9 * diag[0]:
        cond = diag[0] / diag[r - 1] if diag.size >= r and diag[r - 1] > 0 else np.inf
        raise AtomExtractionError(
            f"no well-conditioned low-degree basis (condition ~ {cond:.2e})")
    pivots = sorted(piv[:r].tolist())
    base = fac[pivots]                           # (r, r)

    piv_exps = exponent_array(nvars, t)[pivots]
    mults = []
    for v in range(nvars):
        shifted = fac[monomial_positions(piv_exps + np.eye(nvars, dtype=np.int64)[v])]
        # columns express x_v * basis monomials in the pivot basis
        mults.append(np.linalg.solve(base.T, shifted.T).T)

    rng = np.random.default_rng(seed)
    mix = rng.dirichlet(np.ones(nvars))
    combo = sum(c * n for c, n in zip(mix, mults))
    tmat, qmat = scipy.linalg.schur(combo, output="real")
    sub = np.abs(np.diag(tmat, -1)) if r > 1 else np.array([])
    if sub.size and np.max(sub) > 1e-6 * (1.0 + np.max(np.abs(tmat))):
        raise AtomExtractionError(
            f"complex eigenvalue cluster in multiplication matrix "
            f"(condition ~ {np.linalg.cond(base):.2e})")

    points = np.empty((r, nvars))
    for v, n_v in enumerate(mults):
        points[:, v] = np.einsum("ij,jl,li->i", qmat.T, n_v, qmat)

    deg_fit = 2 * (t - 1)
    monos = monomial_basis(nvars, deg_fit)
    if len(monos) < r:
        raise AtomExtractionError(
            f"{r} atoms cannot be weighted from degree-{deg_fit} moments")
    phi = np.empty((len(monos), r))
    for i, mono in enumerate(monos):
        col = np.ones(r)
        for v, e in enumerate(mono):
            if e:
                col = col * points[:, v] ** e
        phi[i] = col
    ysub = np.array(y[:len(monos)], dtype=float)   # graded order: a prefix
    weights, *_ = np.linalg.lstsq(phi, ysub, rcond=None)
    resid = float(np.max(np.abs(phi @ weights - ysub)))
    scale = 1.0 + float(np.max(np.abs(ysub)))
    if resid > extract_tol * scale:
        raise AtomExtractionError(
            f"atomic rebuild residual {resid:.2e} exceeds tolerance "
            f"(condition ~ {np.linalg.cond(base):.2e})")
    if np.min(weights) < -extract_tol * scale:
        raise AtomExtractionError(f"negative atom weight {np.min(weights):.2e}")
    return [Atom(weight=float(a), point=points[i].copy())
            for i, a in enumerate(weights) if a > 0.0]


def build_tms(atoms: list, nvars: int, k: int) -> np.ndarray:
    """Moments up to degree 2k of a finitely-atomic measure (test oracle)."""
    monos = monomial_basis(nvars, 2 * k)
    y = np.zeros(len(monos))
    for atom in atoms:
        col = np.array([np.prod(np.asarray(atom.point, dtype=float) ** np.asarray(m))
                        for m in monos])
        y += atom.weight * col
    return y


def classify(atoms: list, d: int, tau_tol: float = 1e-4,
             flip_negative: bool = False) -> AtomSet:
    """Split homogenized atoms by the sign of tau = point[0].

    An atom counts as regular only when both tau > tau_tol and its
    normalizer weight a * tau^d exceeds NU_TOL: the weight separates true
    minimizers from near-infinity atoms whose tau is inflated by solver
    noise (regular weights sum to 1; spurious ones scale like noise^d).

    ``flip_negative`` maps (tau, v) -> (-tau, -v) first; valid for the
    even-degree variant where both represent the same projective point.
    Without it, atoms with tau < -tau_tol are flagged as violations of
    x0 >= 0.
    """
    regular, infinity, flagged = [], [], []
    for atom in atoms:
        tau = atom.point[0]
        point = atom.point
        if flip_negative and tau < 0.0:
            point = -point
            tau = -tau
        nu = atom.weight * tau ** d
        if tau < -tau_tol:
            flagged.append(atom)
        elif tau > tau_tol and nu > NU_TOL:
            regular.append((point[1:] / tau, nu))
        else:
            v = point[1:]
            nrm = np.linalg.norm(v)
            infinity.append((v / nrm if nrm > 0 else v, atom.weight))
    return AtomSet(regular=regular, at_infinity=infinity, flagged=flagged)
