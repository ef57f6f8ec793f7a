"""Shared example problems and cached hierarchy runs."""

import numpy as np
import pytest

from homsos.poly import Polynomial, PopProblem
from homsos import driver, sdp


def _vars(n):
    return [Polynomial.variable(n, i) for i in range(n)]


def cubic_unbounded():
    # min x1+x2 over two unbounded cubic inequalities; minimum -1-2*sqrt(3)/9
    a, b = _vars(2)
    return PopProblem(2, a + b, (), (a**3 + b + 1, b**3 - a + 1))


def product_quartic():
    # symmetric degree-4 objective in 4 vars built from pairwise differences
    # of (1, x1, ..., x4), plus 0.1 * sum xi^4
    xs = [Polynomial.constant(4, 1.0)] + _vars(4)
    total = Polynomial.zero(4)
    for i in range(5):
        term = Polynomial.constant(4, 1.0)
        for j in range(5):
            if j != i:
                term = term * (xs[i] - xs[j])
        total = total + term
    quart = sum((x**4 for x in xs[1:]), Polynomial.zero(4))
    return PopProblem(4, total + 0.1 * quart)


def motzkin_like_cubic():
    a, b = _vars(2)
    return PopProblem(2, a**2 * b + b**2 * a - 3 * a * b, (), (a, b))


def choi_like_cubic():
    a, b = _vars(2)
    return PopProblem(2, a**2 * b + b**2 + a - 3 * a * b, (), (a, b))


def robinson_like_cubic():
    a, b = _vars(2)
    f = a**3 + b**3 + 3*a*b - a**2*(b + 1) - b**2*(a + 1) - (a + b)
    return PopProblem(2, f, (), (a, b))


def sextic_on_line():
    a, b = _vars(2)
    f = (a**6 + b**6 + 1 + 3*a**2*b**2 - a**2*(b**4 + 1)
         - b**2*(1 + a**4) - (a**4 + b**4))
    return PopProblem(2, f, (a + b + 1,), ())


def norm_over_hyperbolas():
    a, b = _vars(2)
    return PopProblem(2, a**2 + b**2,
                      (), (b**2 - 1, a**2 - 2*a*b - 1, a**2 + 2*a*b - 1))


def perturbed_robinson_3d():
    # first constraint uses the cubic 2*x2^3 so that the known symmetric
    # minimizer 0.6979*(1,1,1) is strictly feasible
    a, b, c = _vars(3)
    f = (a**2*(a-1)**2 + b**2*(b-1)**2 + c**2*(c-1)**2
         + 2*a*b*c*(a + b + c - 2) + (a-1)**2 + (b-1)**2 + (c-1)**2)
    return PopProblem(3, f, (), (a - 2*b**3, b - c))


def shifted_cubic_corner():
    # -4*x1*x2 coupling makes (1,1) the corner minimizer with value 2
    a, b = _vars(2)
    f = 2*a**3 + 2*b**3 - 4*a*b - a*(b**2 + 1) + b*(1 + a**2) + a**2 + b**2
    return PopProblem(2, f, (), (a - 1, b - 1))


def biquadratic_escape():
    a, b = _vars(2)
    return PopProblem(2, b**2 + (2*b**2 + 2*a*b + 1)**2)


def choi_lam_augmented():
    x1, x2, x3 = _vars(3)
    choi = x1**4*x2**2 + x2**4*x3**2 + x3**4*x1**2 - 3*x1**2*x2**2*x3**2
    return PopProblem(3, x1**2 + (1 - x1*x2)**2 + choi)


def chain_with_product():
    x1, x2, x3, x4, x5 = _vars(5)
    f = ((x1 + x2 + x3 + x4*x5)**2
         - 4*(x1*x2 + x2*x3 + x3*(x4*x5 - 1) + x4*x5 - 1 + x1)
         + (x1 - 1)**2 + x4**2)
    return PopProblem(5, f, (), (x1, x2 - x1, x3 - x2, x4 - x3, x5 - x4,
                                 x4*x5 - 1))


def unattained_quartic():
    a, b = _vars(2)
    return PopProblem(2, a**4 + (a*b - 1)**2)


ALL_PROBLEMS = [cubic_unbounded, product_quartic, motzkin_like_cubic, choi_like_cubic,
                robinson_like_cubic, sextic_on_line, norm_over_hyperbolas,
                perturbed_robinson_3d, shifted_cubic_corner, biquadratic_escape,
                choi_lam_augmented, chain_with_product, unattained_quartic]

SQ3 = np.sqrt(3.0)
CUBIC_MIN = -1.0 - 2.0 * SQ3 / 9.0
CUBIC_ARGMIN = np.array([-SQ3 / 3.0, -1.0 + SQ3 / 9.0])


@pytest.fixture(scope="session")
def hierarchy_reports():
    """One hierarchy run per example at its reference order range."""
    runs = {
        "cubic_unbounded": (cubic_unbounded(), dict(k_min=2, k_max=4)),
        "product_quartic": (product_quartic(), dict(k_min=3, k_max=3)),
        "motzkin_like_cubic": (motzkin_like_cubic(), dict(k_min=3, k_max=3)),
        "choi_like_cubic": (choi_like_cubic(), dict(k_min=2, k_max=2)),
        "robinson_like_cubic": (robinson_like_cubic(), dict(k_min=2, k_max=2)),
        "sextic_on_line": (sextic_on_line(), dict(k_min=3, k_max=3)),
        "norm_over_hyperbolas": (norm_over_hyperbolas(), dict(k_min=2, k_max=3)),
        "perturbed_robinson_3d": (perturbed_robinson_3d(), dict(k_min=2, k_max=2)),
        "shifted_cubic_corner": (shifted_cubic_corner(), dict(k_min=2, k_max=2)),
        "unattained_quartic": (unattained_quartic(), dict(k_min=2, k_max=4)),
    }
    out = {}
    for name, (prob, kw) in runs.items():
        out[name] = (prob, driver.solve_pop(prob, driver.DriverOptions(**kw)))
    return out


@pytest.fixture
def blas_threads():
    """Put every loaded OpenBLAS library on two threads for the test and
    return a reader of their thread counts; skip where no OpenBLAS thread
    control is found."""
    controls = sdp._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control found")
    saved = [get_threads() for get_threads, _ in controls]
    for _, set_threads in controls:
        set_threads(2)
    yield lambda: [get_threads() for get_threads, _ in controls]
    for (_, set_threads), count in zip(controls, saved):
        set_threads(count)


def converged_record(report):
    assert report.converged, report.diagnosis
    return report.records[report.convergence_order
                          - report.records[0].k]


def match_points(points, references, tol):
    """Every reference point has an extracted point within tol (and counts
    agree when lengths match)."""
    points = [np.asarray(p, dtype=float) for p in points]
    for ref in references:
        ref = np.asarray(ref, dtype=float)
        if not any(np.linalg.norm(p - ref) <= tol for p in points):
            return False
    return True
