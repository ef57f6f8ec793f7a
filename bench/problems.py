"""The benchmark's problem instances, built with the public ``homsos.poly`` API.

These are the reference problems of the test suite (``tests/conftest.py``),
kept here so that the benchmark's inputs stay fixed when the tests change.
"""

import math

import numpy as np

from homsos.poly import Polynomial, PopProblem


def _vars(n):
    return [Polynomial.variable(n, i) for i in range(n)]


def cubic_unbounded():
    a, b = _vars(2)
    return PopProblem(2, a + b, (), (a**3 + b + 1, b**3 - a + 1))


def product_quartic():
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
    a, b, c = _vars(3)
    f = (a**2*(a-1)**2 + b**2*(b-1)**2 + c**2*(c-1)**2
         + 2*a*b*c*(a + b + c - 2) + (a-1)**2 + (b-1)**2 + (c-1)**2)
    return PopProblem(3, f, (), (a - 2*b**3, b - c))


def shifted_cubic_corner():
    a, b = _vars(2)
    f = 2*a**3 + 2*b**3 - 4*a*b - a*(b**2 + 1) + b*(1 + a**2) + a**2 + b**2
    return PopProblem(2, f, (), (a - 1, b - 1))


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


SQ3 = math.sqrt(3.0)
S2 = 1.0 / math.sqrt(2.0)
CUBIC_MIN = -1.0 - 2.0 * SQ3 / 9.0
CUBIC_ARGMIN = np.array([-SQ3 / 3.0, -1.0 + SQ3 / 9.0])
