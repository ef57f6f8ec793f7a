"""Dense primal-dual interior-point solver for moment-style SDPs.

Solves

    minimize    c . y
    subject to  A y = b                      (full-row-rank equalities)
                S_j(y) psd  for each pencil  (S_j affine symmetric in y)

with a Mehrotra predictor-corrector path-following method using the HKM
scaling direction.  Each iteration factors every X and Z block once,
X = Lx Lx^T and Z = Lz Lz^T, and those factors serve the whole iteration:
Z^{-1} = Q Q^T with Q = Lz^{-T}, the step lengths, and the Schur complement,
formed as the Gram matrix of the flattened Lx^T A_l Q (one SYRK per block;
Toh, Todd & Tutuncu, SDPT3, 1999) and solved by a dense Cholesky.  The
factors of the accepted step are those of the next iterate.

Moment relaxations over varieties (for instance the sphere) are never
strictly feasible in y-space: the equality rows force common null vectors
on every pencil.  The solver therefore preprocesses the instance by

  1. eliminating ``A y = b`` through an orthonormal null-space basis, and
  2. compressing each pencil onto the orthogonal complement of the null
     space its matrices share on that affine subspace,

which restores strict feasibility for well-posed instances.  Solutions are
reported in the original y coordinates with duals lifted back accordingly.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import functools
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse

_log = logging.getLogger(__name__)


class SdpStatus(enum.Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"
    NUMERICAL_TROUBLE = "numerical_trouble"
    ITER_LIMIT = "iter_limit"


@dataclass
class SdpPencil:
    """Affine symmetric matrix map y -> const + mat(coeffs @ y)."""

    label: str
    size: int
    coeffs: object                 # (size*size, m) array or scipy sparse
    const: np.ndarray | None = None

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        s = self.size
        mat = np.asarray(self.coeffs @ y).reshape(s, s)
        if self.const is not None:
            mat = mat + self.const
        return mat


@dataclass
class SdpInstance:
    """Linear objective over equality constraints and psd pencils in y."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    pencils: list

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float).reshape(-1, self.c.size)
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.A.shape[0] != self.b.size:
            raise ValueError("A and b row counts disagree")
        for pen in self.pencils:
            if pen.coeffs.shape != (pen.size ** 2, self.c.size):
                raise ValueError(f"pencil {pen.label!r} has inconsistent shape")

    @property
    def dim(self) -> int:
        return self.c.size

    def validate(self, rng=None):
        """Reject rank-deficient equality systems and asymmetric pencils."""
        p = self.A.shape[0]
        if p:
            sv = scipy.linalg.svdvals(self.A)
            if sv[-1] <= 1e-10 * max(1.0, sv[0]):
                raise ValueError("equality system A is rank deficient; "
                                 "remove redundant rows before solving")
        rng = rng or np.random.default_rng(12345)
        probe = rng.standard_normal(self.dim)
        for pen in self.pencils:
            s_mat = pen.evaluate(probe)
            if np.max(np.abs(s_mat - s_mat.T)) > 1e-9 * (1.0 + np.max(np.abs(s_mat))):
                raise ValueError(f"pencil {pen.label!r} is not symmetric")


@dataclass
class SolveOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200
    step_frac: float = 0.98
    init_scale: float = 1.0
    seed: int = 0
    norm_cap: float = 1e8
    verbose: bool = False


@dataclass
class SdpSolution:
    status: SdpStatus
    y: np.ndarray | None
    pencil_values: list | None
    pencil_duals: list | None
    eq_duals: np.ndarray | None
    primal_obj: float
    dual_obj: float
    gap: float
    primal_infeas: float
    dual_infeas: float
    iterations: int
    message: str = ""
    moment_converged: bool = False
    history: list = field(default_factory=list)


@functools.cache
def _openblas_thread_controls():
    """(get, set) thread-count functions of every OpenBLAS library loaded in
    this process; empty where none is found (another BLAS, or no /proc)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        names = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                 for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]
        for get_name, set_name in names:
            get_threads = getattr(lib, get_name, None)
            set_threads = getattr(lib, set_name, None)
            if get_threads is not None and set_threads is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                controls.append((get_threads, set_threads))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS library on one thread and
    restore each library's thread count on exit.

    The solver's BLAS calls are too small for threads to pay, and where numpy
    and scipy each load their own OpenBLAS the idle threads of the two pools
    compete with the working one.  The setting is process-wide while the
    body runs; concurrent bodies in several threads each restore the counts
    they saw on entry.
    """
    controls = _openblas_thread_controls()
    saved = [get_threads() for get_threads, _ in controls]
    try:
        for _, set_threads in controls:
            set_threads(1)
        yield
    finally:
        for (_, set_threads), count in zip(controls, saved):
            set_threads(count)


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _backtrack_pd(mats, dirs, alpha):
    """Shrink alpha until every ``_sym(mat + alpha*dir)`` admits a Cholesky
    factor.  Returns alpha with those matrices and their lower factors, or
    None when 40 shrinks do not reach a positive definite point."""
    for _ in range(40):
        new, factors = [], []
        try:
            for mat, d_mat in zip(mats, dirs):
                new.append(_sym(mat + alpha * d_mat))
                factors.append(np.linalg.cholesky(new[-1]))
            return alpha, new, factors
        except np.linalg.LinAlgError:
            alpha *= 0.7
    return None


def _max_step(chol: np.ndarray, d_mat: np.ndarray) -> float:
    """Largest a with L L^T + a*d_mat psd, for the lower Cholesky factor L
    of a pd matrix."""
    tmp = scipy.linalg.solve_triangular(chol, d_mat, lower=True)
    tmp = scipy.linalg.solve_triangular(chol, tmp.T, lower=True)
    lam = scipy.linalg.eigvalsh(_sym(tmp))[0]
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _schur(astk, lxs, qs) -> np.ndarray:
    """HKM Schur complement M[l,l'] = sum_j tr(A_l X_j A_l' Z_j^{-1}).

    With X_j = Lx Lx^T and Z_j^{-1} = Q Q^T the term of block j is
    <Lx^T A_l Q, Lx^T A_l' Q>, so M is the Gram matrix of the flattened
    B_l = Lx^T A_l Q: one SYRK per block, symmetric by construction."""
    mz = astk[0].shape[0]
    schur = np.zeros((mz, mz))
    for a_s, lx, q in zip(astk, lxs, qs):
        b = np.matmul(np.matmul(lx.T, a_s), q).reshape(mz, -1)
        schur += b @ b.T
    return schur


@dataclass
class _Block:
    orig: int             # index into inst.pencils
    basis: np.ndarray     # (s_orig, s) compression map U
    g0: np.ndarray        # (s, s) constant term on the affine subspace
    glin: np.ndarray      # (mz, s, s) linear part over z


@dataclass
class _Reduced:
    y0: np.ndarray
    nullmap: np.ndarray   # (m, mz) orthonormal
    chat: np.ndarray      # objective over z
    cy0: float
    blocks: list
    dropped: list         # pencil indices vacuous on the subspace


def _reduce(inst: SdpInstance, feas_tol: float):
    """Null-space elimination plus facial compression.  Returns either a
    ``_Reduced`` problem or a shortcut ``SdpSolution``."""
    m = inst.dim
    p = inst.A.shape[0]
    if p:
        y0, *_ = np.linalg.lstsq(inst.A, inst.b, rcond=None)
        resid = inst.A @ y0 - inst.b
        if np.linalg.norm(resid) > 1e-8 * (1.0 + np.linalg.norm(inst.b)):
            return SdpSolution(
                status=SdpStatus.PRIMAL_INFEASIBLE, y=None, pencil_values=None,
                pencil_duals=None, eq_duals=None, primal_obj=np.nan,
                dual_obj=np.nan, gap=np.nan, primal_infeas=float(np.linalg.norm(resid)),
                dual_infeas=np.nan, iterations=0,
                message="equality system A y = b is inconsistent")
        nullmap = scipy.linalg.null_space(inst.A)
    else:
        y0 = np.zeros(m)
        nullmap = np.eye(m)
    mz = nullmap.shape[1]

    if mz == 0:
        viol = 0.0
        vals = []
        for pen in inst.pencils:
            s_mat = _sym(pen.evaluate(y0))
            vals.append(s_mat)
            if pen.size:
                viol = max(viol, -float(scipy.linalg.eigvalsh(s_mat)[0]))
        status = SdpStatus.OPTIMAL if viol <= feas_tol else SdpStatus.PRIMAL_INFEASIBLE
        obj = float(inst.c @ y0)
        return SdpSolution(
            status=status, y=y0, pencil_values=vals,
            pencil_duals=[np.zeros((pen.size, pen.size)) for pen in inst.pencils],
            eq_duals=np.zeros(p), primal_obj=obj, dual_obj=obj, gap=0.0,
            primal_infeas=viol, dual_infeas=0.0, iterations=0,
            message="variable fully determined by equalities")

    blocks, dropped = [], []
    for j, pen in enumerate(inst.pencils):
        s = pen.size
        g0 = _sym(pen.evaluate(y0))
        glin = np.asarray(pen.coeffs @ nullmap).reshape(s, s, mz).transpose(2, 0, 1)
        glin = 0.5 * (glin + glin.transpose(0, 2, 1))
        # The tall stack [g0; glin] has the singular values and row space
        # of its s x s QR factor R, whose SVD gives the rank and the basis
        # without forming left singular vectors.  Fortran order lets the QR
        # run in place; mode="raw" returns R as s x s ("r" returns all rows).
        stacked = np.empty(((mz + 1) * s, s), order="F")
        stacked[:s] = g0
        stacked[s:] = glin.reshape(-1, s)
        tri = scipy.linalg.qr(stacked, mode="raw", overwrite_a=True)[1]
        del stacked
        sv, vt = scipy.linalg.svd(tri)[1:]
        if sv.size == 0 or sv[0] <= 1e-13:
            dropped.append(j)
            continue
        rank = int(np.sum(sv > 1e-9 * sv[0]))
        if rank == s:
            basis = np.eye(s)
        else:
            basis = vt[:rank].T
            g0 = _sym(basis.T @ g0 @ basis)
            glin = np.matmul(np.matmul(basis.T, glin), basis)
            glin = 0.5 * (glin + glin.transpose(0, 2, 1))
        blocks.append(_Block(orig=j, basis=basis, g0=g0, glin=glin))

    chat = nullmap.T @ inst.c
    red = _Reduced(y0=y0, nullmap=nullmap, chat=chat, cy0=float(inst.c @ y0),
                   blocks=blocks, dropped=dropped)

    if not blocks:
        if np.linalg.norm(chat) <= 1e-10 * (1.0 + np.linalg.norm(inst.c)):
            return _finish_trivial(inst, red)
        return SdpSolution(
            status=SdpStatus.DUAL_INFEASIBLE, y=None, pencil_values=None,
            pencil_duals=None, eq_duals=None, primal_obj=-np.inf, dual_obj=np.nan,
            gap=np.nan, primal_infeas=0.0, dual_infeas=np.nan, iterations=0,
            message="objective is unbounded along the pencil-free subspace")

    # Directions of z unseen by any pencil make the problem linear there.
    flat = np.concatenate([blk.glin.reshape(mz, -1) for blk in blocks], axis=1)
    sv = scipy.linalg.svdvals(flat) if mz else np.array([])
    rank = int(np.sum(sv > 1e-11 * max(1.0, sv[0]))) if sv.size else 0
    if rank < mz:
        _, _, vt = scipy.linalg.svd(flat.T, full_matrices=True)
        kernel = vt[rank:].T
        if np.max(np.abs(kernel.T @ chat)) > 1e-9 * (1.0 + np.linalg.norm(chat)):
            return SdpSolution(
                status=SdpStatus.DUAL_INFEASIBLE, y=None, pencil_values=None,
                pencil_duals=None, eq_duals=None, primal_obj=-np.inf,
                dual_obj=np.nan, gap=np.nan, primal_infeas=0.0, dual_infeas=np.nan,
                iterations=0, message="improving ray in the pencil null directions")
        keep = vt[:rank].T
        red.nullmap = red.nullmap @ keep
        red.chat = keep.T @ chat
        for blk in blocks:
            blk.glin = np.tensordot(keep.T, blk.glin, axes=(1, 0))
        if red.chat.size == 0:
            return _finish_trivial(inst, red)
    return red


def _finish_trivial(inst: SdpInstance, red: _Reduced) -> SdpSolution:
    y = red.y0
    vals = [_sym(pen.evaluate(y)) for pen in inst.pencils]
    obj = float(inst.c @ y)
    return SdpSolution(
        status=SdpStatus.OPTIMAL, y=y, pencil_values=vals,
        pencil_duals=[np.zeros((pen.size, pen.size)) for pen in inst.pencils],
        eq_duals=np.linalg.lstsq(inst.A.T, inst.c, rcond=None)[0]
        if inst.A.shape[0] else np.zeros(0),
        primal_obj=obj, dual_obj=obj, gap=0.0, primal_infeas=0.0,
        dual_infeas=0.0, iterations=0, message="objective constant on the fiber")


def _ipm(red: _Reduced, opts: SolveOptions):
    """HKM Mehrotra predictor-corrector on the reduced pair.

    Internally the certificate side is ``min <C, X> s.t. <A_l, X> = b_l`` with
    A_l = -G_l, C = G0, b = -chat; the moment side is its dual (z, Z) with
    Z = G0 + sum z_l G_l.

    Every block of X and Z is factored once per iterate, by the
    ``_backtrack_pd`` call that accepts it (by Cholesky for the start).
    The factors give Z^{-1} = Q Q^T with Q = Lz^{-T}, the Schur complement
    M = B B^T with rows B_l = flat(Lx^T A_l Q) (``_schur``), and the
    predictor and corrector step lengths (``_max_step``).  Each iteration
    that takes a step adds the accepted step lengths ``ap``, ``ad`` and the
    centering parameter ``sigma`` to its ``history`` record.
    """
    blocks = red.blocks
    mz = red.chat.size
    bvec = -red.chat
    astk = [-blk.glin for blk in blocks]                 # (mz, s, s) each
    aflat = [a.reshape(mz, -1) for a in astk]
    cmats = [blk.g0 for blk in blocks]
    sizes = [blk.g0.shape[0] for blk in blocks]
    sdim = sum(sizes)

    xs, zs = [], []
    for c_mat, a_f, s in zip(cmats, aflat, sizes):
        anorm = np.linalg.norm(a_f, axis=1)
        xi = max(10.0, math.sqrt(s),
                 s * np.max((1.0 + np.abs(bvec)) / (1.0 + anorm)) if mz else 10.0)
        eta = max(10.0, math.sqrt(s), np.linalg.norm(c_mat),
                  float(np.max(anorm)) if mz else 0.0)
        xs.append(opts.init_scale * xi * np.eye(s))
        zs.append(opts.init_scale * eta * np.eye(s))
    z = np.zeros(mz)
    # lower Cholesky factors of the current X and Z blocks
    lxs = [np.linalg.cholesky(x) for x in xs]
    lzs = [np.linalg.cholesky(w) for w in zs]

    bnorm = 1.0 + np.linalg.norm(bvec)
    cnorm = 1.0 + math.sqrt(sum(np.linalg.norm(c) ** 2 for c in cmats))
    history = []
    stall = 0
    message = ""
    status = SdpStatus.ITER_LIMIT
    mom_ok = False
    it = 0

    def tostatus(s, msg):
        nonlocal status, message
        status, message = s, msg

    for it in range(opts.max_iter + 1):
        rp = bvec.copy()
        for a_f, x in zip(aflat, xs):
            rp -= a_f @ x.reshape(-1)
        rds = []
        for a_s, c_mat, z_mat in zip(astk, cmats, zs):
            rds.append(c_mat - np.tensordot(z, a_s, axes=1) - z_mat)
        mu = sum(np.tensordot(x, w) for x, w in zip(xs, zs)) / sdim
        pobj = sum(np.tensordot(c_mat, x) for c_mat, x in zip(cmats, xs))
        dobj = float(bvec @ z)
        rp_rel = np.linalg.norm(rp) / bnorm
        rd_rel = math.sqrt(sum(np.linalg.norm(r) ** 2 for r in rds)) / cnorm
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        history.append({"mu": mu, "cert_obj": red.cy0 - pobj,
                        "mom_obj": red.cy0 - dobj,
                        "rp": rp_rel, "rd": rd_rel, "gap": relgap})
        if opts.verbose:
            _log.info("it %3d mu %9.2e gap %9.2e rp %9.2e rd %9.2e",
                      it, mu, relgap, rp_rel, rd_rel)

        znorm = np.linalg.norm(z)
        mu_rel = mu / (1.0 + abs(pobj) + abs(dobj))
        mom_ok = rd_rel <= opts.feas_tol and mu_rel <= 10.0 * opts.gap_tol
        if relgap <= opts.gap_tol and rp_rel <= opts.feas_tol and rd_rel <= opts.feas_tol:
            if znorm > opts.norm_cap:
                tostatus(SdpStatus.NUMERICAL_TROUBLE,
                         "converged only with a diverging moment vector; "
                         "the optimum is likely unattained")
            else:
                tostatus(SdpStatus.OPTIMAL, "")
            break
        # One side can converge while the other stalls (unattained optimum
        # on the stalled side); detect it and stop instead of grinding on.
        if mu_rel <= 1e-2 * opts.gap_tol and len(history) >= 5:
            prev = history[-5]
            if rd_rel <= opts.feas_tol and rp_rel > opts.feas_tol \
                    and rp_rel > 0.5 * prev["rp"]:
                tostatus(SdpStatus.NUMERICAL_TROUBLE,
                         "moment side converged but the certificate side "
                         "stalled (certificate likely unattained)")
                break
            if rp_rel <= opts.feas_tol and rd_rel > opts.feas_tol \
                    and rd_rel > 0.5 * prev["rd"]:
                tostatus(SdpStatus.NUMERICAL_TROUBLE,
                         "certificate side converged but the moment side stalled")
                break
        if dobj > 1e10 * (1.0 + abs(pobj)) and rd_rel <= opts.feas_tol:
            tostatus(SdpStatus.DUAL_INFEASIBLE,
                     "moment objective unbounded below (certificate side infeasible)")
            break
        if pobj < -1e10 * (1.0 + abs(dobj)) and rp_rel <= opts.feas_tol:
            tostatus(SdpStatus.PRIMAL_INFEASIBLE,
                     "certificate objective unbounded (moment side infeasible)")
            break
        if znorm > 100.0 * opts.norm_cap:
            tostatus(SdpStatus.NUMERICAL_TROUBLE, "moment iterate norm diverged")
            break
        if stall >= 6:
            tostatus(SdpStatus.NUMERICAL_TROUBLE, "step lengths collapsed")
            break
        if it == opts.max_iter:
            tostatus(SdpStatus.ITER_LIMIT, "iteration limit reached")
            break

        try:
            # Z^{-1} = Q Q^T with Q = Lz^{-T}
            qs = [scipy.linalg.solve_triangular(lz, np.eye(s), lower=True).T
                  for lz, s in zip(lzs, sizes)]
            zinvs = [q @ q.T for q in qs]
            schur = _schur(astk, lxs, qs)
            chol = None
            scale = np.trace(schur) / mz if mz else 1.0
            for jit in (0.0, 1e-13, 1e-10, 1e-7):
                try:
                    chol = scipy.linalg.cho_factor(
                        schur + jit * scale * np.eye(mz), lower=True)
                    break
                except np.linalg.LinAlgError:
                    continue
            if chol is None:
                tostatus(SdpStatus.NUMERICAL_TROUBLE,
                         "Schur complement not positive definite")
                break

            def solve_direction(rcs):
                rhs = rp.copy()
                for a_f, rc, x, rd, zi in zip(aflat, rcs, xs, rds, zinvs):
                    rhs -= a_f @ (rc - x @ rd @ zi).reshape(-1)
                dz = scipy.linalg.cho_solve(chol, rhs)
                dzmats, dxmats = [], []
                for a_s, rc, rd, x, zi in zip(astk, rcs, rds, xs, zinvs):
                    dzm = rd - np.tensordot(dz, a_s, axes=1)
                    dxm = _sym(rc - x @ dzm @ zi)
                    dzmats.append(dzm)
                    dxmats.append(dxm)
                return dz, dxmats, dzmats

            # predictor
            rcs_aff = [-x for x in xs]
            dz_aff, dx_aff, dzm_aff = solve_direction(rcs_aff)
            ap_aff = min((_max_step(lx, dx) for lx, dx in zip(lxs, dx_aff)), default=np.inf)
            ad_aff = min((_max_step(lz, dw) for lz, dw in zip(lzs, dzm_aff)), default=np.inf)
            ap_aff, ad_aff = min(1.0, ap_aff), min(1.0, ad_aff)
            mu_aff = sum(np.tensordot(x + ap_aff * dx, w + ad_aff * dw)
                         for x, dx, w, dw in zip(xs, dx_aff, zs, dzm_aff)) / sdim
            sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))

            # corrector
            rcs = [sigma * mu * zi - x - dx @ dw @ zi
                   for x, zi, dx, dw in zip(xs, zinvs, dx_aff, dzm_aff)]
            dz, dxm, dzm = solve_direction(rcs)
            ap = min((_max_step(lx, dx) for lx, dx in zip(lxs, dxm)), default=np.inf)
            ad = min((_max_step(lz, dw) for lz, dw in zip(lzs, dzm)), default=np.inf)
        except np.linalg.LinAlgError as exc:
            tostatus(SdpStatus.NUMERICAL_TROUBLE, f"factorization failed: {exc}")
            break
        ap = min(1.0, opts.step_frac * ap)
        ad = min(1.0, opts.step_frac * ad)
        # roundoff can defeat the fraction-to-boundary step; backtrack to pd.
        # The accepted factors are the next iteration's.
        xstep = _backtrack_pd(xs, dxm, ap)
        zstep = _backtrack_pd(zs, dzm, ad)
        if xstep is None or zstep is None:
            tostatus(SdpStatus.NUMERICAL_TROUBLE, "no positive definite step")
            break
        (ap, xs, lxs), (ad, zs, lzs) = xstep, zstep
        history[-1].update(ap=ap, ad=ad, sigma=sigma)
        if max(ap, ad) < 1e-3:
            stall += 1
        else:
            stall = 0
        z = z + ad * dz

    return status, message, xs, z, zs, it, history, mom_ok


def solve(inst: SdpInstance, opts: SolveOptions | None = None,
          _reduction: list | None = None) -> SdpSolution:
    """Solve the instance; see the module docstring for the method.

    ``_reduction`` lets ``solve_with_restarts`` preprocess once for all its
    attempts: an empty list is filled with the validated reduction of
    ``inst``, and a filled one is used instead of validating and reducing.
    """
    opts = opts or SolveOptions()
    with _one_blas_thread():
        if _reduction:
            red = _reduction[0]
        else:
            inst.validate()
            red = _reduce(inst, opts.feas_tol)
            if _reduction is not None:
                _reduction.append(red)
        if isinstance(red, SdpSolution):
            return red

        status, message, xs, z, zs, iters, history, mom_ok = _ipm(red, opts)

        y = red.y0 + red.nullmap @ z
        pencil_values = [_sym(pen.evaluate(y)) for pen in inst.pencils]
        pencil_duals = [np.zeros((pen.size, pen.size)) for pen in inst.pencils]
        for blk, x in zip(red.blocks, xs):
            pencil_duals[blk.orig] = _sym(blk.basis @ x @ blk.basis.T)

        grad = inst.c.copy()
        for pen, dual in zip(inst.pencils, pencil_duals):
            grad -= np.asarray(pen.coeffs.T @ dual.reshape(-1)).reshape(-1)
        if inst.A.shape[0]:
            eq_duals, *_ = np.linalg.lstsq(inst.A.T, grad, rcond=None)
        else:
            eq_duals = np.zeros(0)

        primal_obj = float(inst.c @ y)
        cert = history[-1]["cert_obj"] if history else primal_obj
        return SdpSolution(
            status=status, y=y, pencil_values=pencil_values,
            pencil_duals=pencil_duals, eq_duals=eq_duals,
            primal_obj=primal_obj, dual_obj=float(cert),
            gap=float(history[-1]["gap"]) if history else 0.0,
            primal_infeas=float(history[-1]["rd"]) if history else 0.0,
            dual_infeas=float(history[-1]["rp"]) if history else 0.0,
            iterations=iters, message=message,
            moment_converged=bool(mom_ok or status is SdpStatus.OPTIMAL),
            history=history)


def solve_with_restarts(inst: SdpInstance, opts: SolveOptions | None = None) -> SdpSolution:
    """Retry with jittered initial scaling and a tighter step fraction on
    numerical trouble; at most 3 attempts, deterministic for a fixed seed.

    A restart changes only the starting point and the step fraction, so the
    instance is validated and reduced once, by the first attempt."""
    opts = opts or SolveOptions()
    rng = np.random.default_rng(opts.seed)
    fracs = [opts.step_frac, 0.95, 0.9]
    reduction = []
    best = None
    with _one_blas_thread():
        for attempt in range(3):
            if attempt == 0:
                cur = opts
            else:
                cur = replace(opts,
                              init_scale=opts.init_scale * 10.0 ** rng.uniform(-1.0, 1.0),
                              step_frac=fracs[attempt])
            sol = solve(inst, cur, _reduction=reduction)
            if attempt:
                sol.message = (sol.message + f" (attempt {attempt + 1})").strip()
            if best is None or _solution_rank(sol) < _solution_rank(best):
                best = sol
            if sol.status is not SdpStatus.NUMERICAL_TROUBLE:
                return sol
    return best


def _solution_rank(sol: SdpSolution):
    order = {SdpStatus.OPTIMAL: 0, SdpStatus.PRIMAL_INFEASIBLE: 1,
             SdpStatus.DUAL_INFEASIBLE: 1, SdpStatus.ITER_LIMIT: 2,
             SdpStatus.NUMERICAL_TROUBLE: 3}
    gap = sol.gap if np.isfinite(sol.gap) else np.inf
    return (order[sol.status], gap)


def write_sdpa(inst: SdpInstance, path: str):
    """Dump the instance in SDPA sparse (SDPA-S) format.

    Pencils become dense blocks; the equality system contributes one
    diagonal block with paired rows  a.y - b >= 0  and  b - a.y >= 0.
    """
    m = inst.dim
    p = inst.A.shape[0]
    blocks = [pen.size for pen in inst.pencils]
    if p:
        blocks.append(-2 * p)
    lines = [f"{m}", f"{len(blocks)}",
             " ".join(str(s) for s in blocks),
             " ".join(repr(float(v)) for v in inst.c)]

    def emit(matno, blockno, i, j, value):
        if value != 0.0:
            lines.append(f"{matno} {blockno} {i} {j} {repr(float(value))}")

    for bno, pen in enumerate(inst.pencils, start=1):
        s = pen.size
        if pen.const is not None:
            f0 = -pen.const
            for i in range(s):
                for j in range(i, s):
                    emit(0, bno, i + 1, j + 1, f0[i, j])
        coeffs = pen.coeffs.toarray() if scipy.sparse.issparse(pen.coeffs) else np.asarray(pen.coeffs)
        for var in range(m):
            mat = coeffs[:, var].reshape(s, s)
            for i in range(s):
                for j in range(i, s):
                    emit(var + 1, bno, i + 1, j + 1, mat[i, j])
    if p:
        bno = len(blocks)
        for r in range(p):
            emit(0, bno, 2 * r + 1, 2 * r + 1, inst.b[r])
            emit(0, bno, 2 * r + 2, 2 * r + 2, -inst.b[r])
            for var in range(m):
                emit(var + 1, bno, 2 * r + 1, 2 * r + 1, inst.A[r, var])
                emit(var + 1, bno, 2 * r + 2, 2 * r + 2, -inst.A[r, var])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
