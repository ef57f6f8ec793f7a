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

On small blocks an iteration costs more in Python calls than in flops, so
its per-block linear algebra calls LAPACK directly (``_solve_lower``,
``_eigvalsh``, ``_cho_factor``, ``_cho_solve``): each makes the dtrtrs,
dsyevr, dpotrf or dpotrs call that scipy.linalg's ``solve_triangular``,
``eigvalsh``, ``cho_factor`` or ``cho_solve`` makes, with the same arguments
(``_cho_factor`` factors in place the matrix that scipy would copy first),
and so returns the same bits.  What those wrappers validated is checked once
per array, after it was last written: a NaN or an inf raises
``NonFiniteError``, a ValueError with the message of scipy's
``check_finite``, and so does an overflow anywhere in a solve.
Contractions with the pencil stack are the single ``np.dot`` that
``np.tensordot`` would make.

Moment relaxations over varieties (for instance the sphere) are never
strictly feasible in y-space: the equality rows force common null vectors
on every pencil.  The solver therefore preprocesses the instance by

  1. eliminating ``A y = b`` through an orthonormal null-space basis, from
     one SVD of A that also tests that A has full row rank (A y = b then
     has a solution, so a y0 that misses b is NUMERICAL_TROUBLE),
  2. compressing each pencil onto the orthogonal complement of the null
     space its matrices share on that affine subspace, and
  3. dropping the directions of the subspace that no pencil sees (a Gram
     matrix eigensolve settles full coverage when it can, else an SVD),

which restores strict feasibility for well-posed instances.  Where no pencil
then sees a free moment, the y0 of step 1 settles the instance (OPTIMAL if
every pencil is psd there within ``FEAS_TOL``, else PRIMAL_INFEASIBLE); else by

  4. splitting each compressed pencil into the parts that block-diagonalize
     all of its matrices at once, where the Schur flops saved pay for the
     extra blocks (``_split_block``), and solving one copy of a part that
     holds d identical copies of one irreducible block, I_d (x) M (the
     second stage of Murota, Kanno, Kojima & Kojima 2010).

The reduction returns the C heap's free pages to the OS when it starts and
when it ends (glibc's ``malloc_trim``; see ``_reduce`` for why there): its
QR stacks are the largest arrays of a solve, and the heap freed on either
side of them would otherwise stay resident.  Nothing is trimmed inside the
interior-point loop, and no arithmetic changes.

The interior-point run ends OPTIMAL when both sides have converged (gap,
primal and dual residuals within tolerance); PRIMAL_INFEASIBLE or
DUAL_INFEASIBLE when one side's objective runs off with the other side
feasible; NUMERICAL_TROUBLE when it converges only with a diverging moment
vector, when the moment side converged and the certificate side stalled,
when the moment iterate diverges, when the step lengths collapse, or when a
factorization fails or no positive definite step is found; and ITER_LIMIT
when it spends either iteration budget: ``MAX_ITER`` iterations in all, or
``MOMENT_BUDGET`` iterations after its moment side first converged.  The
second budget ends runs whose certificate side is not attained: their
moment side converges, and the steps after it change neither the gap nor
the residuals nor the value.  If the certificate residual was within
``REPORT_TOL`` at some iterate since the moment side converged, such a run
goes on past the budget until it is again.  A certificate side that runs
off is a ray whose residual grows with it by rounding, so
PRIMAL_INFEASIBLE measures the residual against the ray's own objective,
as SDPT3 does: ||rp|| <= FEAS_TOL (1 + ||b|| + |pobj|).

Solutions are reported in the original y coordinates with duals lifted back
accordingly; a block solved for d copies has X' = d X_M, since
<A, I_d (x) X_M> = <A_M, d X_M>, and lifts to (1/d) sum_i U_i X' U_i^T.  The
equality multipliers solve A^T lambda = c - sum_j coeffs_j^T X_j in least
squares, through the factors of step 1's SVD.  One tail of ``solve`` lifts
the duals, forms the multipliers and builds the solution, whether the
interior-point run or y0 gave the point.  ``solve_with_restarts``
validates and reduces the instance once and hands the reduction to each of
its attempts.  Attempt i steps ``STEP_FRACS[i]`` of the way to the boundary
from X and Z at scale 1, later ones at 10^u, u uniform on [-1, 1] by seed.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import functools
import logging
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg import lapack

_log = logging.getLogger(__name__)

FEAS_TOL = 1e-8   # relative residual of a converged side
NORM_CAP = 1e8    # moment norm past which convergence means an unattained optimum
DIVERGED_NORM = 100.0 * NORM_CAP   # moment norm that ends a run as diverged
REPORT_TOL = 1e-6    # relative residual up to which a side's value is reported
MAX_ITER = 200       # iterations a run may take in all
MOMENT_BUDGET = 50   # iterations a run may take after its moment side converged
STEP_FRACS = (0.98, 0.95, 0.9)   # fraction to the boundary of each restart attempt


class SdpStatus(enum.Enum):
    """How a solve ended (see the module docstring).  ITER_LIMIT covers both
    iteration budgets: ``MAX_ITER`` iterations in all, with the message
    ``iteration limit reached``, and ``MOMENT_BUDGET`` iterations after the
    moment side converged, with the message ``iteration limit reached: <N>
    iterations since the moment side converged``.  Either way the moment
    side may have converged (``SdpSolution.moment_converged``), and
    ``solve_with_restarts`` does not restart.  PRIMAL_INFEASIBLE measures
    the certificate ray's residual against its own objective."""

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
    basis: tuple = ()  # monomials indexing the rows of a localizing matrix

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

    def validate(self):
        """Reject asymmetric pencils.  The rank of A is tested by ``_reduce``,
        from the SVD that also eliminates ``A y = b``."""
        probe = np.random.default_rng(12345).standard_normal(self.dim)
        for pen in self.pencils:
            s_mat = pen.evaluate(probe)
            if np.max(np.abs(s_mat - s_mat.T)) > 1e-9 * (1.0 + np.max(np.abs(s_mat))):
                raise ValueError(f"pencil {pen.label!r} is not symmetric")


def check_tolerance(name: str, value):
    """Raise ValueError unless ``value`` is a positive finite number."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def check_seed(seed):
    """Raise ValueError unless ``seed`` is a nonnegative integer, as
    ``np.random.default_rng`` needs."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


@dataclass
class SolveOptions:
    gap_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        check_tolerance("gap_tol", self.gap_tol)
        check_seed(self.seed)


@dataclass
class SdpSolution:
    """Outcome of a solve in the y-form: "primal" is the moment problem in y
    (``primal_obj = c . y``), "dual" the certificate (``dual_obj``, with
    Gram matrices ``pencil_duals`` and multipliers ``eq_duals``).
    ``blocks`` holds one (pencil index, size, copies) triple per block the
    interior-point method solved, empty when preprocessing settled the
    instance; the pencil holds ``copies`` identical copies of the block."""

    status: SdpStatus
    y: np.ndarray | None
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
    blocks: list = field(default_factory=list)


class ResourceError(MemoryError):
    """The dense arrays of a solve would not fit in physical memory."""

    def __init__(self, what: str, needed: int, limit: int):
        # an int past the float range has a decimal exponent only
        size = (f"{needed / 1e9:.3g}" if needed < 1e300
                else f"1e+{math.floor(math.log10(needed)) - 9}")
        super().__init__(f"{what} needs about {size} GB of dense arrays, "
                         f"more than the {limit / 1e9:.3g} GB of physical memory")
        self.needed = needed
        self.limit = limit


# The cgroup mount, and the process's cgroups, "hierarchy:controllers:path".
_CGROUP_ROOT = "/sys/fs/cgroup"
_SELF_CGROUP = "/proc/self/cgroup"


def physical_memory() -> int:
    """Bytes of physical memory the process may use: the machine's, or the
    lowest memory limit of its cgroup and the cgroup's ancestors where that
    is lower (a container's): of the v2 cgroup (``0::path``) under the mount,
    and of the v1 ``memory`` cgroup under its ``memory`` directory."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        own = Path(_SELF_CGROUP).read_text().splitlines()
    except OSError:
        own = []
    for line in ["0::/", "0:memory:/"] + own:
        _, controllers, path = line.split(":", 2)
        if controllers and "memory" not in controllers.split(","):
            continue
        sub, name = ("memory", "memory.limit_in_bytes") if controllers else ("", "memory.max")
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            try:
                text = Path(_CGROUP_ROOT, sub, *parts[:depth], name).read_text().strip()
            except OSError:
                continue
            if text.isdigit():  # v2 writes "max" for no limit
                limit = min(limit, int(text))
    return limit


def dense_bytes(m: int, rows: int, sizes) -> int:
    """Bytes of the largest dense float64 arrays that ``solve`` holds for an
    instance of m moments, ``rows`` equality rows and pencils of ``sizes``,
    with mz = m - rows free moments (more where rows are dependent): the
    null-space basis (m x mz), the compressed pencil stacks (mz x s x s
    each), the QR stack of the largest pencil ((mz + 1) s x s) and the Schur
    matrix (mz x mz).  It bounds the peak of ``_reduce``, which holds the
    null-space basis, the stacks of the pencils done so far and either one
    QR stack or one stack in the making, never both: on product_quartic at
    orders 3 and 4 without its symmetry the peak is 0.58 and 0.50 of it.
    The coverage test adds two mz x mz Gram matrices, and joins the stacks
    only when the Gram matrix leaves the rank open.  The interior-point
    loop's own arrays are not counted: one B stack of the largest block
    (mz x s x s) and one chunk of left products (``_schur_work``), the
    jittered copy of the Schur matrix (a second mz x mz array, which
    ``_cho_factor`` factors in place), and the blocks' s x s iterates and
    directions."""
    mz = max(m - rows, 0)
    s2 = [s * s for s in sizes]
    return 8 * (m * mz + mz * sum(s2) + (mz + 1) * max(s2, default=0) + mz * mz)


def check_memory(needed: int, what: str):
    """Raise ``ResourceError`` for ``what`` when ``needed`` bytes exceed
    physical memory."""
    limit = physical_memory()
    if needed > limit:
        raise ResourceError(what, needed, limit)


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


@functools.cache
def _malloc_trim():
    """The C library's ``malloc_trim``, found once; None where it has none
    (macOS, musl) or where no C library opens by name (Windows)."""
    try:
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):
        return None
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _trim_heap():
    """Return the free pages of the C heap to the OS: ``malloc_trim(0)``,
    a no-op where there is no ``malloc_trim``.  No array changes."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@contextlib.contextmanager
def _overflow_raises():
    """Run the body with numpy overflows raising ``NonFiniteError``, the
    error of the inf they would make."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise NonFiniteError("array must not contain infs or NaNs") from None


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


class NonFiniteError(ValueError):
    """An array of a solve, an interior-point iterate or a pencil stack of
    the reduction, holds a NaN or an inf."""


def _finite(a: np.ndarray) -> np.ndarray:
    """``a``, after raising ``NonFiniteError`` with the message of scipy's
    ``check_finite`` if it holds a NaN or an inf."""
    if not np.isfinite(a).all():
        raise NonFiniteError("array must not contain infs or NaNs")
    return a


# The helpers below make the LAPACK call their scipy.linalg counterpart makes
# for float64 input, with the same arguments, so they return the same bits;
# they skip the wrappers' validation, which costs more than the call itself
# on small blocks.  Their callers check finiteness with ``_finite``.

def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``solve_triangular(chol, b, lower=True)`` for a nonempty lower
    triangular ``chol`` in C order, as ``np.linalg.cholesky`` returns it.
    dtrtrs reads Fortran order, so the solve is with the transpose, as
    scipy makes it for a C-order matrix; a 1 x 1 factor, which scipy
    passes as it is, gives the same single division either way."""
    x, info = lapack.dtrtrs(chol.T, b, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


@functools.cache
def _syevr_work(n: int) -> tuple:
    """The (lwork, liwork) that ``eigvalsh`` passes to dsyevr at order n."""
    query = lapack.get_lapack_funcs("syevr_lwork", dtype=np.float64)
    return lapack._compute_lwork(query, n=n, lower=True)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """``eigvalsh(a)`` for a nonempty symmetric ``a``: ascending eigenvalues,
    read from the lower triangle."""
    lwork, liwork = _syevr_work(a.shape[0])
    w, _, _, _, info = lapack.dsyevr(a, compute_v=0, lower=1, lwork=lwork, liwork=liwork)
    if info:
        raise np.linalg.LinAlgError("Internal Error.")
    return w


def _cho_factor(a: np.ndarray) -> np.ndarray:
    """``cho_factor(a, lower=True)[0]`` for a symmetric ``a`` in C order: the
    lower factor, with ``a``'s upper triangle left in place, in the memory of
    ``a``, which it overwrites.  scipy hands dpotrf a Fortran-order copy of
    ``a``; ``a.T`` is that copy's layout without the copy, and its lower
    triangle holds the same entries, ``a`` being symmetric."""
    chol, info = lapack.dpotrf(a.T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f'LAPACK reported an illegal value in {-info}-th argument '
                         'on entry to "POTRF".')
    return chol


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cho_solve((chol, True), b)``."""
    x, info = lapack.dpotrs(chol, b, lower=1)
    if info:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _max_step(chol: np.ndarray, d_mat: np.ndarray) -> float:
    """Largest a with L L^T + a*d_mat psd, for the lower Cholesky factor L
    of a pd matrix.  L must be finite (``_ipm`` checks each factor once per
    iterate); a NaN or inf in ``d_mat`` or in the scaled direction raises
    ValueError, as scipy's checks did (a non-finite first solve leaves the
    second one non-finite)."""
    tmp = _solve_lower(chol, _finite(d_mat))
    tmp = _finite(_sym(_solve_lower(chol, tmp.T)))
    lam = _eigvalsh(tmp)[0]
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _shift_diagonal(mat: np.ndarray, shift) -> np.ndarray:
    """``mat + shift * np.eye(len(mat))`` entry for entry, signed zeros
    included, without forming the identity."""
    out = mat + shift * 0.0
    np.fill_diagonal(out, mat.diagonal() + shift)
    return out


def _inner(a: np.ndarray, b: np.ndarray):
    """Frobenius product <a, b>, as the single ``np.dot`` of a row and a
    column that ``np.tensordot(a, b)`` makes."""
    return np.dot(a.reshape(1, -1), b.reshape(-1, 1))[0, 0]


def _schur_work(mz: int, sizes) -> tuple:
    """The flat buffers of ``_schur`` for blocks of ``sizes``: the B stack
    (mz s^2 entries for the largest block) and one chunk of left products
    (the most that ``_chunk_width`` puts in a chunk of any block)."""
    return (np.empty(mz * max(sizes) ** 2),
            np.empty(max(_chunk_width(s, mz) * s * s for s in sizes)))


def _schur(glins, lxs, qs, work) -> np.ndarray:
    """HKM Schur complement M[l,l'] = sum_j tr(A_l X_j A_l' Z_j^{-1}).

    With X_j = Lx Lx^T and Z_j^{-1} = Q Q^T the term of block j is
    <Lx^T A_l Q, Lx^T A_l' Q>, so M is the Gram matrix of the flattened
    B_l = Lx^T A_l Q: one SYRK per block, symmetric by construction.  It is
    formed from the stacks ``glins`` of G_l = -A_l, whose B_l are the exact
    negatives, so M is the same.

    The B_l are formed ``_chunk_width`` at a time: the left products
    Lx^T G_l of a chunk go into the chunk buffer, and their products with Q
    straight into the (mz, s, s) B stack, which the SYRK reads.  ``np.matmul``
    multiplies each matrix of a chunk by the same call it makes for the
    whole stack, so M keeps its bits.  ``work`` is the pair of flat buffers
    of ``_schur_work``, which ``_ipm`` allocates once: a fresh stack of a
    megabyte or more would be mapped and paged in anew at each iteration
    unless the allocator happens to keep freed memory."""
    mz = glins[0].shape[0]
    bflat, chunk = work
    schur = np.zeros((mz, mz))
    for g_s, lx, q in zip(glins, lxs, qs):
        s = lx.shape[0]
        bstack = bflat[:g_s.size].reshape(mz, s, s)
        width = _chunk_width(s, mz)
        for lo in range(0, mz, width):
            hi = min(lo + width, mz)
            left = np.matmul(lx.T, g_s[lo:hi], out=chunk[:(hi - lo) * s * s].reshape(-1, s, s))
            np.matmul(left, q, out=bstack[lo:hi])
        b = bstack.reshape(mz, -1)
        schur += b @ b.T
    return schur


@dataclass
class _Block:
    orig: int             # index into inst.pencils
    basis: np.ndarray     # (s_orig, copies*s) compression map U, copy-major
    g0: np.ndarray        # (s, s) constant term on the affine subspace
    # (mz, s, s) linear part G_l over z, which _ipm reads in place.  Its
    # memory order is part of the solver's arithmetic: an uncompressed stack
    # is the mz-fastest (s, s, mz) array that _pencil_chunks fills,
    # transposed, which makes _ipm's gflat an F-order view, and a C-order
    # copy rounds the GEMVs on it differently.
    glin: np.ndarray
    copies: int = 1       # the pencil part is I_copies (x) (g0 + sum z_l glin_l)


@dataclass
class _Reduced:
    y0: np.ndarray
    nullmap: np.ndarray   # (m, mz) orthonormal
    eq_pinv: tuple        # (U/sigma, V1^T) of A: A^T lam = g by (U/sigma)(V1^T g)
    chat: np.ndarray      # objective over z
    cy0: float
    blocks: list


# Bytes of one chunk of matrices: of the sparse product in ``_pencil_chunks``,
# of the rotation in ``_split_block`` and of the left products in ``_schur``.
# Larger chunks raised the peak RSS of small solves; the floor of 2 columns
# sets it for pencils from 91 rows.
_CHUNK_BYTES = 1 << 17


def _chunk_width(s: int, n: int) -> int:
    """s x s matrices per chunk of n: as many as fit in ``_CHUNK_BYTES``, at
    least 2, at most n."""
    return min(n, max(2, _CHUNK_BYTES // (8 * s * s)))


def _pencil_chunks(pen: SdpPencil, nullmap: np.ndarray, out: np.ndarray | None = None):
    """The symmetrized matrices of ``pen`` on the null space, ``_chunk_width``
    at a time: pairs (lo, mats) where mats[:, :, i] is the matrix of nullmap
    column lo + i.  No (s*s, mz) product is formed, and a chunk's sparse
    product, the only array made per chunk, is freed before the next one.

    The matrices are written through the (s, s, mz) view ``out`` where the
    caller keeps them, or else into one (s, s, width) buffer that the next
    chunk overwrites.  The buffer's width is at least 2 unless mz = 1, so
    its matrices are strided like those of a whole (s, s, mz) stack,
    contiguous only when mz = 1, and ``np.matmul`` multiplies them as it
    would the whole stack's: by BLAS or by its own loop, with the same
    rounding."""
    s, mz = pen.size, nullmap.shape[1]
    width = _chunk_width(s, mz)
    buf = np.empty((s, s, width)) if out is None else None
    for lo in range(0, mz, width):
        raw = np.asarray(pen.coeffs @ nullmap[:, lo:lo + width]).reshape(s, s, -1)
        hi = lo + raw.shape[2]
        mats = buf[:, :, :hi - lo] if out is None else out[:, :, lo:hi]
        np.add(raw, raw.transpose(1, 0, 2), out=mats)
        del raw
        mats *= 0.5
        yield lo, mats


def _no_point(status: SdpStatus, message: str, primal_obj=-np.inf, primal_infeas=0.0):
    """An outcome without a point: an ``A y = b`` too ill-conditioned to
    place y0, or a ray."""
    return SdpSolution(status=status, y=None, pencil_duals=None, eq_duals=None,
                       primal_obj=primal_obj, dual_obj=np.nan, gap=np.nan,
                       primal_infeas=primal_infeas, dual_infeas=np.nan, iterations=0,
                       message=message)


def _reduce(inst: SdpInstance):
    """Null-space elimination plus facial compression.  Returns a shortcut
    ``SdpSolution`` where there is no point to report, else a ``_Reduced``
    problem.  Its ``blocks`` are empty when no pencil sees a free moment (no
    free moment at all, no block left and a constant objective, or no seen
    direction left after the coverage step): the instance is then settled
    at y0, and ``solve`` gives it its status from the pencils at y0.

    The free pages of the C heap go back to the OS (``_trim_heap``) when
    the reduction starts and however it ends.  At the start they are what
    the assembly and ``validate`` freed, which would otherwise sit under
    the QR stack, the largest array of a solve.  At the end they are
    glibc's: freeing the stack by munmap raises its dynamic mmap threshold
    to the stack's size, so the compressed stacks and the split's
    temporaries come from the brk heap, and it keeps their pages once they
    are freed.  No arithmetic changes."""
    _trim_heap()
    try:
        return _eliminate_and_compress(inst)
    finally:
        _trim_heap()


def _eliminate_and_compress(inst: SdpInstance):
    """``_reduce`` without its heap trims.

    One SVD of A gives the one rank test of A, the null-space basis and
    ``eq_pinv``: A has full row rank when it has no more rows than columns
    and its last singular value clears the test, and each singular value
    past the test clears ``null_space``'s cutoff.  y0 is placed by
    ``lstsq``, whose rounding the interior-point run depends on.  Once A
    has full row rank, A y = b has a solution, so a y0 that misses b is
    rounding on a nearly singular A: NUMERICAL_TROUBLE."""
    p = inst.A.shape[0]
    u, sv, vt = scipy.linalg.svd(inst.A)
    if p and (p > sv.size or sv[-1] <= 1e-10 * max(1.0, sv[0])):
        raise ValueError("equality system A is rank deficient; "
                         "remove redundant rows before solving")
    y0, *_ = np.linalg.lstsq(inst.A, inst.b, rcond=None)
    miss = float(np.linalg.norm(inst.A @ y0 - inst.b))
    if miss > 1e-8 * (1.0 + np.linalg.norm(inst.b)):
        return _no_point(SdpStatus.NUMERICAL_TROUBLE,
                         "equality system A y = b is too ill-conditioned: "
                         f"lstsq misses b by {miss:.2g}", np.nan, miss)
    nullmap = vt[sv.size:].T
    eq_pinv = (u[:, :sv.size] / sv, vt[:sv.size])
    mz = nullmap.shape[1]
    red = _Reduced(y0=y0, nullmap=nullmap, eq_pinv=eq_pinv, chat=nullmap.T @ inst.c,
                   cy0=float(inst.c @ y0), blocks=[])
    if mz == 0:
        return red

    blocks = []
    for j, pen in enumerate(inst.pencils):
        blocks.extend(_compress(j, pen, y0, nullmap))

    if not blocks:
        if np.linalg.norm(red.chat) <= 1e-10 * (1.0 + np.linalg.norm(inst.c)):
            return red
        return _no_point(SdpStatus.DUAL_INFEASIBLE,
                         "objective is unbounded along the pencil-free subspace")
    red.blocks = blocks

    # Directions of z unseen by any pencil make the problem linear there.
    parts = [blk.glin.reshape(mz, -1) for blk in blocks]
    if _gram_full_rank(*parts):
        return red
    flat = np.concatenate(parts, axis=1)
    sv = scipy.linalg.svdvals(flat)
    rank = int(np.sum(sv > 1e-11 * max(1.0, sv[0])))
    if rank < mz:
        # only the mz x mz right factor is read; with N = flat.shape[1] >= mz
        # the thin SVD gives it without the N x N left factor
        _, _, vt = scipy.linalg.svd(flat.T, full_matrices=flat.shape[1] < mz)
        kernel = vt[rank:].T
        if np.max(np.abs(kernel.T @ red.chat)) > 1e-9 * (1.0 + np.linalg.norm(red.chat)):
            return _no_point(SdpStatus.DUAL_INFEASIBLE,
                             "improving ray in the pencil null directions")
        keep = vt[:rank].T
        red.nullmap = red.nullmap @ keep
        red.chat = keep.T @ red.chat
        for blk in blocks:
            blk.glin = np.tensordot(keep.T, blk.glin, axes=(1, 0))
        if red.chat.size == 0:
            red.blocks = []
    return red


def _stack_factor(pen: SdpPencil, g0: np.ndarray, nullmap: np.ndarray) -> np.ndarray:
    """The s x s factor R of the QR factorization of the tall stack [g0; glin]
    of ``pen`` on the null space, which has the stack's singular values and
    row space.  Fortran order lets the QR run in place; mode="raw" returns R
    as s x s ("r" returns all rows).  The chunks are written straight into
    the stack's rows and checked there for the NaN or inf that the QR's own
    check would refuse (it would hold a boolean copy of the stack), and the
    stack dies with this call, views and all."""
    s, mz = pen.size, nullmap.shape[1]
    stacked = np.empty(((mz + 1) * s, s), order="F")
    stacked[:s] = _finite(g0)
    # rows s (i + 1) .. s (i + 2) - 1 hold the matrix of nullmap column i
    rows = stacked[s:].reshape(mz, s, s).transpose(1, 2, 0)
    for _, mats in _pencil_chunks(pen, nullmap, out=rows):
        _finite(mats)
    return scipy.linalg.qr(stacked, mode="raw", overwrite_a=True, check_finite=False)[1]


def _compress(j: int, pen: SdpPencil, y0: np.ndarray, nullmap: np.ndarray) -> list:
    """The blocks of pencil ``j`` on the affine subspace y0 + range(nullmap):
    the pencil compressed onto the row space of its stack [g0; glin], split
    by ``_split_block``; none when the pencil is vacuous there.  The SVD of
    the stack's R factor gives the rank and the basis without forming left
    singular vectors, and glin is formed once the stack is freed, so the two
    are never held at once."""
    s, mz = pen.size, nullmap.shape[1]
    g0 = _sym(pen.evaluate(y0))
    sv, vt = scipy.linalg.svd(_stack_factor(pen, g0, nullmap))[1:]
    if sv.size == 0 or sv[0] <= 1e-13:
        return []
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    if rank == s:
        glin = np.empty((s, s, mz))
        for _ in _pencil_chunks(pen, nullmap, out=glin):
            pass
        return _split_block(_Block(orig=j, basis=np.eye(s), g0=g0,
                                   glin=glin.transpose(2, 0, 1)))
    basis = vt[:rank].T
    glin = np.empty((mz, rank, rank))
    for lo, mats in _pencil_chunks(pen, nullmap):
        rot = np.matmul(np.matmul(basis.T, mats.transpose(2, 0, 1)), basis)
        glin[lo:lo + len(rot)] = 0.5 * (rot + rot.transpose(0, 2, 1))
    return _split_block(_Block(orig=j, basis=basis, g0=_sym(basis.T @ g0 @ basis), glin=glin))


# Schur flops an extra IPM block must save to pay for itself: its Python and
# LAPACK calls cost about 0.17 ms per iteration, measured on a 2-vCPU host.
_SPLIT_FLOPS = 2.5e6


def _schur_flops(mz: int, sizes) -> float:
    """Flops of the Schur terms of blocks of ``sizes`` over mz free moments:
    the products Lx^T A_l Q (4 mz s^3) and the SYRK (mz^2 s^2)."""
    return sum(4.0 * mz * s ** 3 + float(mz) ** 2 * s ** 2 for s in sizes)


def _split_block(blk: _Block, _plain=frozenset()) -> list:
    """The parts of a compressed pencil that block-diagonalize its matrices
    g0, glin_l all at once, each solved as one copy where it holds identical
    copies of one irreducible part; ``[blk]`` when there is one part without
    copies, when the parts do not save enough Schur flops, or when they fail
    verification.

    The eigenvectors of one random element of the pencil's span, grouped by
    eigenvalue and joined where a second random element B couples the groups,
    split the span's *-algebra into its isotypic components (Murota, Kanno,
    Kojima & Kojima 2010): the symmetry reduction of Gatermann & Parrilo
    (2004) without building a group representation.  A component whose m
    eigenvalue groups all have size d > 1 is a candidate for I_d (x) M, with
    copy bases read off B (``_copy_basis``).  A part is accepted only once
    every matrix, rotated into the parts' basis, is seen to vanish outside
    them, and a component's copies only once they are seen to be uncoupled
    and equal; components in ``_plain`` or whose copies fail keep one block
    of their eigenvectors.  The rotation runs on at most ``_chunk_width``
    matrices at a time, so no copy of the whole stack is made."""
    g0, glin = blk.g0, blk.glin
    mz, s = glin.shape[0], g0.shape[0]
    if _schur_flops(mz, [s]) < 2 * _SPLIT_FLOPS:
        return [blk]
    rng = np.random.default_rng(0)
    flat = glin.reshape(mz, -1)

    def combination():
        r = rng.standard_normal(mz + 1)
        return r[0] * g0 + (r[1:] @ flat).reshape(s, s)

    lam, vecs = np.linalg.eigh(combination())
    tol = 1e-8 * max(abs(lam[0]), abs(lam[-1]))
    starts = np.flatnonzero(np.diff(lam, prepend=-np.inf) > tol)
    second = vecs.T @ combination() @ vecs
    coupling = np.maximum.reduceat(np.maximum.reduceat(np.abs(second), starts, axis=0),
                                   starts, axis=1)
    root = list(range(starts.size))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, j in zip(*np.nonzero(coupling > tol)):
        root[find(i)] = find(j)
    bounds = np.append(starts, s).tolist()
    groups = {}
    for g, span in enumerate(zip(bounds[:-1], bounds[1:])):
        groups.setdefault(find(g), []).append(span)
    bases, copies = [], []
    for i, spans in enumerate(groups[r] for r in sorted(groups)):
        basis = None if i in _plain else _copy_basis(vecs, second, spans)
        copies.append(1 if basis is None else spans[0][1] - spans[0][0])
        bases.append(np.hstack([vecs[:, a:b] for a, b in spans]) if basis is None else basis)
    sizes = [u.shape[1] for u in bases]
    solved = [n // d for n, d in zip(sizes, copies)]
    if _schur_flops(mz, [s]) - _schur_flops(mz, solved) <= _SPLIT_FLOPS * (len(bases) - 1):
        return [blk]

    vecs = np.hstack(bases)
    ends = np.cumsum(sizes)
    spans = list(zip(ends - sizes, ends))
    outside = np.ones((s, s), dtype=bool)
    for a, b in spans:
        outside[a:b, a:b] = False
    # the rotated stack [g0; glin], ``width`` matrices at a time, each chunk
    # contiguous as in the joined stack, so BLAS rotates every matrix
    rotated = [np.empty((mz + 1, n, n)) for n in solved]
    spread = [0.0] * len(spans)
    off = top = 0.0
    width = _chunk_width(s, mz + 1)
    for lo in range(0, mz + 1, width):
        mats = glin[max(lo - 1, 0):lo + width - 1]
        mats = np.concatenate([g0[None], mats]) if lo == 0 else np.ascontiguousarray(mats)
        rot = np.matmul(np.matmul(vecs.T, mats), vecs)
        mag = np.abs(rot)
        top = max(top, float(mag.max()))
        off = max(off, float(mag[:, outside].max(initial=0.0)))   # empty for one part
        for i, (out, (a, b), d) in enumerate(zip(rotated, spans, copies)):
            part = rot[:, a:b, a:b]
            if d > 1:
                part, err = _copy_mean(part, d)
                spread[i] = max(spread[i], err)
            out[lo:lo + width] = part
    if off > 1e-11 * top:
        return [blk]
    failed = {i for i, err in enumerate(spread) if err > 1e-11 * top}
    if failed:
        return _split_block(blk, _plain | failed)
    return [_Block(orig=blk.orig, basis=blk.basis @ vecs[:, a:b], g0=_sym(stack[0]),
                   glin=0.5 * (stack[1:] + stack[1:].transpose(0, 2, 1)), copies=d)
            for stack, (a, b), d in zip(rotated, spans, copies)]


def _copy_basis(vecs, second, spans):
    """Copy-major basis [U_1 ... U_d] of the component whose eigenvalue
    groups are the column ranges ``spans`` of ``vecs``, or None unless all m
    groups have one size d > 1.

    On I_d (x) M the eigenspace of group k is spanned by the columns of
    V_k = (I_d (x) w_k) Q_k for an eigenvector w_k of M and some orthogonal
    Q_k, so V_k^T B V_1 = c_k Q_k^T Q_1 for the scalar c_k = w_k^T M_B w_1,
    and T_k = V_k (V_k^T B V_1), its columns normalized, is
    sign(c_k) (I_d (x) w_k) Q_1.  Column i of T_1 = V_1, ..., T_m then spans
    copy i: U_i = [T_1[:, i], ..., T_m[:, i]].  ``second`` is V^T B V.
    Where the component is no such product (or c_k vanishes), the basis is
    wrong and ``_split_block``'s verification refuses it."""
    a1, b1 = spans[0]
    d = b1 - a1
    if d == 1 or any(b - a != d for a, b in spans):
        return None
    cols = [vecs[:, a1:b1]]
    floor = 1e-8 * np.abs(second).max()
    for a, b in spans[1:]:
        t = vecs[:, a:b] @ second[a:b, a1:b1]
        norms = np.linalg.norm(t, axis=0)
        if norms.min() <= floor:
            return None
        cols.append(t / norms)
    return np.stack(cols, axis=2).reshape(vecs.shape[0], -1)


def _copy_mean(stack: np.ndarray, d: int):
    """The mean of the d diagonal m x m blocks of each copy-major matrix in
    ``stack``, and the largest entry between copies or of a copy's deviation
    from the first."""
    m = stack.shape[-1] // d
    sub = stack.reshape(-1, d, m, d, m)
    diag = np.einsum("kimin->ikmn", sub)
    between = sub.transpose(1, 3, 0, 2, 4)[~np.eye(d, dtype=bool)]
    err = max(float(np.abs(between).max()), float(np.abs(diag[1:] - diag[0]).max()))
    return diag.mean(axis=0), err


def _gram_full_rank(*parts: np.ndarray) -> bool:
    """True when the eigenvalues of G = F F^T prove that the rows of the
    stacks ``parts`` joined side by side, F = [F_1 ... F_B], pass the
    singular-value rank test of ``_reduce`` (sigma_min > 1e-11 max(1,
    sigma_max)); False when they leave it open.  F itself is never formed.

    G is summed block by block, G = sum_b F_b F_b^T.  Each product is off
    by at most gamma_(k_b) |F_b| |F_b|^T entrywise (k_b columns), and the sum
    adds at most gamma_(B-1) times the sum of the |products|, so G is off by
    at most gamma_(k_max + B - 1) |F| |F|^T, whose 2-norm is at most tr(G);
    k_max + B - 1 <= k, the column count of F.  G and its eigenvalues are
    therefore each off by at most e = 2 (k + rows) eps tr(G) in the 2-norm,
    so lambda_min - e > 1e-20 max(1, lambda_max + e) gives sigma_min >
    1e-10 max(1, sigma_max): ten times the threshold, which rounding in the
    SVD cannot undo.  One SYRK per block and a symmetric eigensolve cost far
    less than the SVD of a wide F."""
    gram = parts[0] @ parts[0].T
    for f in parts[1:]:
        gram += f @ f.T
    lam = scipy.linalg.eigvalsh(gram)
    cols = sum(f.shape[1] for f in parts)
    err = 2 * (cols + gram.shape[0]) * np.finfo(float).eps * np.trace(gram)
    return bool(lam[0] - err > 1e-20 * max(1.0, lam[-1] + err))


def _joint_norm(parts, axis=None):
    """``np.linalg.norm`` of the parts joined along ``axis`` (flattened when
    None), bit for bit that of the part itself when there is one."""
    if len(parts) == 1:
        return np.linalg.norm(parts[0], axis=axis)
    return np.sqrt(sum(np.linalg.norm(p, axis=axis) ** 2 for p in parts))


def _ipm(red: _Reduced, opts: SolveOptions, start: tuple):
    """HKM Mehrotra predictor-corrector on the reduced pair from ``start``,
    the attempt's (start scale, step fraction).

    Internally the certificate side is ``min <C, X> s.t. <A_l, X> = b_l`` with
    A_l = -G_l, C = G0, b = -chat; the moment side is its dual (z, Z) with
    Z = G0 + sum z_l G_l.  A_l is not formed: each product with it is the
    exact negative of the product with the block's glin (negation is exact
    in floating point), so the residuals and directions subtract A_l terms
    by adding G_l terms, to the same bits.

    Every block of X and Z is factored once per iterate, by the
    ``_backtrack_pd`` call that accepts it (by Cholesky for the start).
    The factors give Z^{-1} = Q Q^T with Q = Lz^{-T}, the Schur complement
    M = B B^T with rows B_l = flat(Lx^T A_l Q) (``_schur``), and the
    predictor and corrector step lengths (``_max_step``).  The run
    allocates one B stack, for the largest block, and one chunk of left
    products (``_schur_work``), which every iteration reuses; an iteration
    allocates M and the jittered copy of M that ``_cho_factor`` overwrites
    with its factor.  Each iteration that takes a step adds the accepted
    step lengths ``ap``, ``ad`` and the centering parameter ``sigma`` to
    its ``history`` record.
    """
    blocks = red.blocks
    scale, frac = start
    mz = red.chat.size
    bvec = -red.chat
    glins = [blk.glin for blk in blocks]                 # (mz, s, s) each
    gflat = [g.reshape(mz, -1) for g in glins]
    cmats = [blk.g0 for blk in blocks]
    sizes = [blk.g0.shape[0] for blk in blocks]
    sdim = sum(sizes)
    eyes = [np.eye(s) for s in sizes]
    work = _schur_work(mz, sizes)

    # X and Z start at multiples of the identity sized from each original
    # pencil as a whole, so a split pencil starts where the unsplit one would
    members = {}
    for i, blk in enumerate(blocks):
        members.setdefault(blk.orig, []).append(i)
    xs, zs = [None] * len(blocks), [None] * len(blocks)
    for idx in members.values():
        s = sum(sizes[i] for i in idx)
        anorm = _joint_norm([gflat[i] for i in idx], axis=1)
        xi = max(10.0, math.sqrt(s), s * np.max((1.0 + np.abs(bvec)) / (1.0 + anorm)))
        eta = max(10.0, math.sqrt(s), _joint_norm([cmats[i] for i in idx]), float(np.max(anorm)))
        for i in idx:
            xs[i] = scale * xi * np.eye(sizes[i])
            zs[i] = scale * eta * np.eye(sizes[i])
    z = np.zeros(mz)
    # lower Cholesky factors of the current X and Z blocks
    lxs = [np.linalg.cholesky(x) for x in xs]
    lzs = [np.linalg.cholesky(w) for w in zs]

    bnorm = 1.0 + np.linalg.norm(bvec)
    cnorm = 1.0 + math.sqrt(sum(np.linalg.norm(c) ** 2 for c in cmats))
    history = []
    stall = 0
    mom_first = None   # first iteration at which the moment side converged
    cert_seen = False  # a reportable certificate side since then
    # every run ends at a break: at the latest when it == MAX_ITER
    for it in range(MAX_ITER + 1):
        rp = bvec.copy()
        for g_f, x in zip(gflat, xs):
            rp += g_f @ x.reshape(-1)
        zrow = z.reshape(1, mz)
        rds = [c_mat + np.dot(zrow, g_f).reshape(c_mat.shape) - z_mat
               for g_f, c_mat, z_mat in zip(gflat, cmats, zs)]
        mu = sum(_inner(x, w) for x, w in zip(xs, zs)) / sdim
        pobj = sum(_inner(c_mat, x) for c_mat, x in zip(cmats, xs))
        dobj = float(bvec @ z)
        rp_rel = np.linalg.norm(rp) / bnorm
        rd_rel = math.sqrt(sum(np.linalg.norm(r) ** 2 for r in rds)) / cnorm
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        history.append({"mu": mu, "cert_obj": red.cy0 - pobj,
                        "mom_obj": red.cy0 - dobj,
                        "rp": rp_rel, "rd": rd_rel, "gap": relgap})
        _log.debug("it %3d mu %9.2e gap %9.2e rp %9.2e rd %9.2e",
                   it, mu, relgap, rp_rel, rd_rel)

        znorm = np.linalg.norm(z)
        mu_rel = mu / (1.0 + abs(pobj) + abs(dobj))
        mom_ok = rd_rel <= FEAS_TOL and mu_rel <= 10.0 * opts.gap_tol
        if mom_ok and mom_first is None:
            mom_first = it
        cert_seen = cert_seen or (mom_first is not None and rp_rel <= REPORT_TOL)
        if relgap <= opts.gap_tol and rp_rel <= FEAS_TOL and rd_rel <= FEAS_TOL:
            if znorm > NORM_CAP:
                status, message = (SdpStatus.NUMERICAL_TROUBLE,
                                   "converged only with a diverging moment vector; "
                                   "the optimum is likely unattained")
            else:
                status, message = SdpStatus.OPTIMAL, ""
            break
        # The moment side can converge while the certificate side stalls
        # (unattained certificate); detect it and stop instead of grinding on.
        if mu_rel <= 1e-2 * opts.gap_tol and len(history) >= 5 and rd_rel <= FEAS_TOL \
                and rp_rel > FEAS_TOL and rp_rel > 0.5 * history[-5]["rp"]:
            status, message = (SdpStatus.NUMERICAL_TROUBLE, "moment side converged but the "
                               "certificate side stalled (certificate likely unattained)")
            break
        if dobj > 1e10 * (1.0 + abs(pobj)) and rd_rel <= FEAS_TOL:
            status, message = (SdpStatus.DUAL_INFEASIBLE,
                               "moment objective unbounded below (certificate side infeasible)")
            break
        # the ray rule: ||rp|| <= FEAS_TOL (1 + ||b|| + |pobj|)
        if pobj < -1e10 * (1.0 + abs(dobj)) and rp_rel <= FEAS_TOL * (1.0 + abs(pobj) / bnorm):
            status, message = (SdpStatus.PRIMAL_INFEASIBLE,
                               "certificate objective unbounded (moment side infeasible)")
            break
        if znorm > DIVERGED_NORM:
            status, message = SdpStatus.NUMERICAL_TROUBLE, "moment iterate norm diverged"
            break
        if stall >= 6:
            status, message = SdpStatus.NUMERICAL_TROUBLE, "step lengths collapsed"
            break
        if it == MAX_ITER:
            status, message = SdpStatus.ITER_LIMIT, "iteration limit reached"
            break
        # An unattained certificate leaves the run idling once the moment
        # side has converged.  Stopping where rp is not reportable would
        # cost the driver a certificate value that the idle phase had.
        if mom_first is not None and it - mom_first >= MOMENT_BUDGET \
                and (rp_rel <= REPORT_TOL or not cert_seen):
            status, message = (SdpStatus.ITER_LIMIT,
                               f"iteration limit reached: {it - mom_first} iterations "
                               "since the moment side converged")
            break

        try:
            # Z^{-1} = Q Q^T with Q = Lz^{-T}.  Each factor is checked once,
            # at its first LAPACK call: here for Lz, before the predictor's
            # step lengths for Lx.
            qs = [_solve_lower(_finite(lz), eye).T for lz, eye in zip(lzs, eyes)]
            zinvs = [q @ q.T for q in qs]
            schur = _schur(glins, lxs, qs, work)
            chol = None
            scale = np.trace(schur) / mz
            for jit in (0.0, 1e-13, 1e-10, 1e-7):
                try:
                    chol = _cho_factor(_finite(_shift_diagonal(schur, jit * scale)))
                    break
                except np.linalg.LinAlgError:
                    continue
            if chol is None:
                status, message = (SdpStatus.NUMERICAL_TROUBLE,
                                   "Schur complement not positive definite")
                break
            _finite(chol)  # potrf can pass a NaN pivot into the factor

            def solve_direction(rcs):
                rhs = rp.copy()
                for g_f, rc, x, rd, zi in zip(gflat, rcs, xs, rds, zinvs):
                    rhs += g_f @ (rc - x @ rd @ zi).reshape(-1)
                dz = _cho_solve(chol, _finite(rhs))
                dzrow = dz.reshape(1, mz)
                dzmats, dxmats = [], []
                for g_f, rc, rd, x, zi in zip(gflat, rcs, rds, xs, zinvs):
                    dzm = rd + np.dot(dzrow, g_f).reshape(rd.shape)
                    dxm = _sym(rc - x @ dzm @ zi)
                    dzmats.append(dzm)
                    dxmats.append(dxm)
                return dz, dxmats, dzmats

            # predictor
            rcs_aff = [-x for x in xs]
            dz_aff, dx_aff, dzm_aff = solve_direction(rcs_aff)
            for lx in lxs:
                _finite(lx)
            ap_aff = min(_max_step(lx, dx) for lx, dx in zip(lxs, dx_aff))
            ad_aff = min(_max_step(lz, dw) for lz, dw in zip(lzs, dzm_aff))
            ap_aff, ad_aff = min(1.0, ap_aff), min(1.0, ad_aff)
            mu_aff = sum(_inner(x + ap_aff * dx, w + ad_aff * dw)
                         for x, dx, w, dw in zip(xs, dx_aff, zs, dzm_aff)) / sdim
            # (mu_aff / mu) ** 3 grows without bound as mu falls to 0
            sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10)) if mu else 1.0

            # corrector
            rcs = [sigma * mu * zi - x - dx @ dw @ zi
                   for x, zi, dx, dw in zip(xs, zinvs, dx_aff, dzm_aff)]
            dz, dxm, dzm = solve_direction(rcs)
            ap = min(_max_step(lx, dx) for lx, dx in zip(lxs, dxm))
            ad = min(_max_step(lz, dw) for lz, dw in zip(lzs, dzm))
        except np.linalg.LinAlgError as exc:
            status, message = SdpStatus.NUMERICAL_TROUBLE, f"factorization failed: {exc}"
            break
        ap = min(1.0, frac * ap)
        ad = min(1.0, frac * ad)
        # roundoff can defeat the fraction-to-boundary step; backtrack to pd.
        # The accepted factors are the next iteration's.
        xstep = _backtrack_pd(xs, dxm, ap)
        zstep = _backtrack_pd(zs, dzm, ad)
        if xstep is None or zstep is None:
            status, message = SdpStatus.NUMERICAL_TROUBLE, "no positive definite step"
            break
        (ap, xs, lxs), (ad, zs, lzs) = xstep, zstep
        history[-1].update(ap=ap, ad=ad, sigma=sigma)
        if max(ap, ad) < 1e-3:
            stall += 1
        else:
            stall = 0
        z = z + ad * dz

    return status, message, xs, z, it, history, mom_ok


def solve(inst: SdpInstance, opts: SolveOptions | None = None, *,
          _reduced: _Reduced | SdpSolution | None = None,
          _start: tuple = (1.0, STEP_FRACS[0])) -> SdpSolution:
    """Solve the instance; see the module docstring for the method.

    The instance is validated and reduced (``_reduce``) unless ``_reduced``
    holds that reduction already: ``solve_with_restarts`` makes it once and
    hands it to each attempt with the attempt's ``_start`` for ``_ipm``.  A
    shortcut outcome of the reduction is returned as it is.  Otherwise the
    interior-point run, or y0 where no pencil sees a free moment, gives the
    point, the status and the certificate side's last record; the Gram
    matrices are lifted back to the pencils and the equality multipliers
    formed the same way for both.  An overflow anywhere in the solve raises
    ``NonFiniteError``.
    """
    opts = opts or SolveOptions()
    with _one_blas_thread(), _overflow_raises():
        red = _reduced
        if red is None:
            inst.validate()
            red = _reduce(inst)
        if isinstance(red, SdpSolution):
            return red

        if red.blocks:
            status, message, xs, z, iters, history, mom_ok = _ipm(red, opts, _start)
            y = red.y0 + red.nullmap @ z
            last = history[-1]
            dual_obj, gap, primal_infeas, dual_infeas = (
                last["cert_obj"], last["gap"], last["rd"], last["rp"])
        else:   # settled: y0 is the only point, feasible when every pencil is psd there
            xs, iters, history, mom_ok, y = [], 0, [], False, red.y0
            viol = max([0.0] + [-float(np.linalg.eigvalsh(_sym(pen.evaluate(y)))[0])
                                for pen in inst.pencils if pen.size])
            status = SdpStatus.OPTIMAL if viol <= FEAS_TOL else SdpStatus.PRIMAL_INFEASIBLE
            message = ("variable fully determined by equalities" if inst.A.shape[0] == inst.dim
                       else "objective constant on the fiber")
            dual_obj, gap, primal_infeas, dual_infeas = inst.c @ y, 0.0, viol, 0.0

        lifted = {}
        for blk, x in zip(red.blocks, xs):
            # <A, I_d (x) X_m> = <A_m, d X_m>: the block's X is d X_m
            if blk.copies > 1:
                x = np.kron(np.eye(blk.copies), x / blk.copies)
            part = blk.basis @ x @ blk.basis.T
            lifted[blk.orig] = lifted[blk.orig] + part if blk.orig in lifted else part
        pencil_duals = [_sym(lifted[j]) if j in lifted else np.zeros((pen.size, pen.size))
                        for j, pen in enumerate(inst.pencils)]

        grad = inst.c.copy()
        for pen, dual in zip(inst.pencils, pencil_duals):
            grad -= np.asarray(pen.coeffs.T @ dual.reshape(-1)).reshape(-1)
        eq_duals = red.eq_pinv[0] @ (red.eq_pinv[1] @ grad)
        return SdpSolution(
            status=status, y=y, pencil_duals=pencil_duals, eq_duals=eq_duals,
            primal_obj=float(inst.c @ y), dual_obj=float(dual_obj), gap=float(gap),
            primal_infeas=float(primal_infeas), dual_infeas=float(dual_infeas),
            iterations=iters, message=message,
            moment_converged=bool(mom_ok or status is SdpStatus.OPTIMAL),
            history=history,
            blocks=[(blk.orig, blk.g0.shape[0], blk.copies) for blk in red.blocks])


def describe_blocks(inst: SdpInstance, sol: SdpSolution) -> dict | None:
    """Report fields of the solved blocks, per pencil label: the pencil's
    ``size``, its size after facial compression (``compressed``, 0 when the
    pencil is vacuous), the sizes of the blocks it was ``split`` into and
    how many identical ``copies`` of each block it holds (so ``compressed``
    is the sum of size times copies).  None when no block was solved."""
    if not sol.blocks:
        return None
    split = {j: [] for j in range(len(inst.pencils))}
    for j, size, copies in sol.blocks:
        split[j].append((int(size), int(copies)))
    return {pen.label: {"size": int(pen.size),
                        "compressed": sum(n * d for n, d in split[j]),
                        "split": [n for n, _ in split[j]],
                        "copies": [d for _, d in split[j]]}
            for j, pen in enumerate(inst.pencils)}


def solve_with_restarts(inst: SdpInstance, opts: SolveOptions | None = None) -> SdpSolution:
    """Restart on numerical trouble from the next attempt's start (see the
    module docstring); at most 3 attempts, deterministic for a fixed seed.

    The instance is validated and reduced once, here, and every attempt is
    a ``solve`` handed that reduction; a shortcut outcome of the reduction
    is returned after the first."""
    opts = opts or SolveOptions()
    rng = np.random.default_rng(opts.seed)
    stalled = []
    with _one_blas_thread(), _overflow_raises():
        inst.validate()
        red = _reduce(inst)
        for attempt, frac in enumerate(STEP_FRACS):
            scale = 10.0 ** rng.uniform(-1.0, 1.0) if attempt else 1.0
            sol = solve(inst, opts, _reduced=red, _start=(scale, frac))
            if sol is red:
                return sol
            if attempt:
                sol.message = (sol.message + f" (attempt {attempt + 1})").strip()
            if sol.status is not SdpStatus.NUMERICAL_TROUBLE:
                return sol
            stalled.append(sol)
    # the first stalled attempt with the smallest gap
    return min(stalled, key=lambda s: s.gap)


def write_sdpa(inst: SdpInstance, path: str):
    """Dump the instance in SDPA sparse (SDPA-S) format.

    Pencils become dense blocks, written from the nonzeros of their upper
    triangles; the equality system contributes one diagonal block with
    paired rows  a.y - b >= 0  and  b - a.y >= 0.
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
        keep = value != 0.0
        lines.extend(f"{a} {blockno} {r} {c} {v!r}" for a, r, c, v in zip(
            *(np.broadcast_to(x, keep.shape)[keep].tolist() for x in (matno, i, j, value))))

    for bno, pen in enumerate(inst.pencils, start=1):
        s = pen.size
        if pen.const is not None:
            i, j = np.triu_indices(s)
            emit(0, bno, i + 1, j + 1, -pen.const[i, j])
        # column var holds matrix var + 1 row-major, its rows in order
        coeffs = scipy.sparse.csc_array(pen.coeffs, copy=True)
        coeffs.sum_duplicates()
        var = np.repeat(np.arange(m), np.diff(coeffs.indptr))
        i, j = np.divmod(coeffs.indices, s)
        upper = i <= j
        emit(var[upper] + 1, bno, i[upper] + 1, j[upper] + 1, coeffs.data[upper])
    if p:
        # row r holds b_r (matrix 0), then a_r, each value v as the pair
        # v at 2r+1 and -v at 2r+2
        table = np.column_stack([inst.b, inst.A])
        rows, matno = np.nonzero(table)
        vals = table[rows, matno]
        diag = (2 * rows[:, None] + [1, 2]).reshape(-1)
        emit(np.repeat(matno, 2), len(blocks), diag, diag, np.column_stack([vals, -vals]).ravel())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
