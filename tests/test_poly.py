import math
from fractions import Fraction

import numpy as np
import pytest

from homsos import poly
from homsos.poly import (Polynomial, PopProblem, basis_index, basis_size,
                         exponent_array, monomial_basis, monomial_positions,
                         sphere_equation)


def random_poly(rng, nvars, deg, nterms=8):
    monos = monomial_basis(nvars, deg)
    picks = rng.choice(len(monos), size=min(nterms, len(monos)), replace=False)
    return Polynomial(nvars, {monos[i]: rng.uniform(-2, 2) for i in picks})


def test_degree_examples():
    p = Polynomial(2, {(3, 0): 1.0, (0, 1): 1.0, (0, 0): 1.0})
    assert p.degree() == 3
    assert Polynomial.constant(3, 5.0).degree() == 0
    q = Polynomial(2, {(2, 1): 1.0, (0, 2): 1.0, (1, 0): 1.0, (1, 1): -3.0})
    assert q.degree() == 3
    assert Polynomial.zero(2).degree() == 0


def test_homogenize_cubic_constraint():
    p = Polynomial(2, {(3, 0): 1.0, (0, 1): 1.0, (0, 0): 1.0})  # x1^3+x2+1
    h = p.homogenize()
    assert h.terms == {(0, 3, 0): 1.0, (2, 0, 1): 1.0, (3, 0, 0): 1.0}
    linear = Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0})
    assert linear.homogenize().terms == {(0, 1, 0): 1.0, (0, 0, 1): 1.0}


def test_homogenize_evaluation_oracle():
    rng = np.random.default_rng(7)
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    p = a**2 + (1.0 - a * b)**2
    h = p.homogenize()
    for _ in range(5):
        x = rng.uniform(-2, 2, size=2)
        assert h.eval(np.concatenate(([1.0], x))) == pytest.approx(p.eval(x), rel=1e-12)
    # homogeneity: h(t * z) = t^deg h(z)
    for _ in range(5):
        z = rng.uniform(-1, 1, size=3)
        t = rng.uniform(0.3, 2.0)
        assert h.eval(t * z) == pytest.approx(t**p.degree() * h.eval(z), rel=1e-10)


def test_dehomogenize_examples():
    h = Polynomial(3, {(0, 3, 0): 1.0, (2, 0, 1): 1.0, (3, 0, 0): 1.0})
    assert h.dehomogenize().terms == {(3, 0): 1.0, (0, 1): 1.0, (0, 0): 1.0}
    assert Polynomial(2, {(4, 0): 1.0}).dehomogenize().terms == {(0,): 1.0}


def test_dehomogenize_round_trip_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        q = random_poly(rng, n, int(rng.integers(1, 5)))
        back = q.homogenize().dehomogenize()
        assert back == q


def test_graded_parts():
    p = Polynomial(2, {(2, 1): 1.0, (0, 2): 1.0, (1, 0): 1.0, (1, 1): -3.0})
    assert p.graded_part(1).terms == {(2, 1): 1.0}
    assert p.graded_part(2).terms == {(0, 2): 1.0, (1, 1): -3.0}
    homog = Polynomial(2, {(2, 0): 1.0, (1, 1): 2.0})
    assert homog.graded_part(1) == homog
    assert homog.graded_part(2).is_zero


def test_graded_parts_sum_to_poly():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = random_poly(rng, 3, 5)
        total = Polynomial.zero(3)
        for i in range(1, p.degree() + 2):
            total = total + p.graded_part(i)
        assert total == p


def test_gradient_simple():
    p = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    assert np.allclose(p.gradient([1.0, 2.0]), [2.0, 4.0])
    assert np.allclose(p.hessian([0.3, -0.7]), 2.0 * np.eye(2))


def test_derivative():
    # 3 x^2 y - x + 2 y^3 + 5
    p = Polynomial(2, {(2, 1): 3.0, (1, 0): -1.0, (0, 3): 2.0, (0, 0): 5.0})
    dx, dy = p.derivative(0), p.derivative(1)
    assert list(dx.terms.items()) == [((1, 1), 6.0), ((0, 0), -1.0)]
    assert list(dy.terms.items()) == [((2, 0), 3.0), ((0, 2), 6.0)]
    assert dx.derivative(0).derivative(1) == Polynomial.constant(2, 6.0)
    assert Polynomial.constant(2, 5.0).derivative(1).is_zero
    with pytest.raises(ValueError):
        p.derivative(2)
    x = np.array([0.7, -1.3])
    assert p.gradient(x).tolist() == [dx.eval(x), dy.eval(x)]
    assert p.hessian(x)[0, 1] == 0.5 * (dx.derivative(1).eval(x) + dy.derivative(0).eval(x))


def finite_difference_gradient(p, x, h=1e-5):
    g = np.zeros(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        g[i] = (p.eval(x + e) - p.eval(x - e)) / (2 * h)
    return g


def finite_difference_hessian(p, x, h=1e-4):
    n = len(x)
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei, ej = np.zeros(n), np.zeros(n)
            ei[i] = h
            ej[j] = h
            hess[i, j] = (p.eval(x + ei + ej) - p.eval(x + ei - ej)
                          - p.eval(x - ei + ej) + p.eval(x - ei - ej)) / (4 * h * h)
    return hess


def test_calculus_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        p = random_poly(rng, n, int(rng.integers(2, 7)))
        x = rng.uniform(-1, 1, size=n)
        g, gfd = p.gradient(x), finite_difference_gradient(p, x)
        assert np.linalg.norm(g - gfd) <= 1e-6 * (1.0 + np.linalg.norm(g))
        hh, hfd = p.hessian(x), finite_difference_hessian(p, x)
        assert np.linalg.norm(hh - hfd) <= 1e-5 * (1.0 + np.linalg.norm(hh))


def test_euler_identity_for_forms():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 6))
        p = random_poly(rng, n, d)
        form = p.graded_part(1)
        if form.is_zero:
            continue
        deg = form.degree()
        x = rng.uniform(-1.5, 1.5, size=n)
        assert x @ form.gradient(x) == pytest.approx(deg * form.eval(x),
                                                     rel=1e-10, abs=1e-10)


def test_eval_dimension_mismatch():
    p = Polynomial(2, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        p.eval([1.0])
    with pytest.raises(ValueError):
        p.gradient([1.0, 2.0, 3.0])


def test_monomial_basis_examples():
    assert monomial_basis(2, 2) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert monomial_basis(1, 3) == ((0,), (1,), (2,), (3,))
    assert len(monomial_basis(3, 3)) == math.comb(6, 3) == 20
    assert basis_size(3, 3) == 20


def test_monomial_index_round_trip():
    basis = monomial_basis(3, 4)
    idx = basis_index(3, 4)
    assert len(idx) == len(basis)
    for i, mono in enumerate(basis):
        assert idx[mono] == i
    # ordering is graded, then earlier variables carry higher powers first
    degrees = [sum(m) for m in basis]
    assert degrees == sorted(degrees)



def test_monomial_positions_match_the_basis_index():
    for n in range(1, 6):
        for d in range(6):
            assert np.array_equal(monomial_positions(exponent_array(n, d)),
                                  np.arange(basis_size(n, d)))
    # any array of exponent vectors, read along its last axis
    exps = np.random.default_rng(0).integers(0, 3, size=(4, 7, 3))
    idx = basis_index(3, 6)
    assert np.array_equal(monomial_positions(exps),
                          [[idx[tuple(e)] for e in row] for row in exps])

def test_arithmetic_drops_zero_terms():
    a = Polynomial.variable(2, 0)
    z = a - a
    assert z.is_zero
    p = (1.0 + a) * (1.0 - a)
    assert p.terms == {(0, 0): 1.0, (2, 0): -1.0}


def test_pop_problem_validation():
    a = Polynomial.variable(2, 0)
    with pytest.raises(ValueError):
        PopProblem(3, a)
    prob = PopProblem(2, a, (), (a,))
    assert prob.feasibility_violation([1.0, 0.0]) == 0.0
    assert prob.feasibility_violation([-1.0, 0.0]) == 1.0


def test_sphere_equation():
    s = sphere_equation(3)
    assert s.eval([1.0, 0.0, 0.0]) == 0.0
    assert s.eval([1.0, 1.0, 1.0]) == pytest.approx(2.0)


def test_small_coefficients_are_kept_exactly():
    # every coefficient of magnitude at most 1e-14 was dropped
    p = Polynomial(1, {(2,): 1.0, (1,): 1e-15})
    assert p.terms == {(2,): 1, (1,): Fraction(1e-15)}
    x = Polynomial.variable(1, 0)
    scaled = (x**2 + x) * 2.0**-60
    assert scaled.terms == {(2,): Fraction(1, 2**60), (1,): Fraction(1, 2**60)}
    assert scaled * 2**60 == x**2 + x
    # 1 + 0.1 is one rounding of the exact sum, whatever the order
    assert (1 + 0.1 * x - 1) == 0.1 * x
    assert (Polynomial.constant(1, 1) + 0.1).coefficient_vector(0)[0] == 1.1


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_nonfinite_coefficient_is_refused(bad):
    with pytest.raises(ValueError, match="is not finite"):
        Polynomial(1, {(1,): bad})
    with pytest.raises(ValueError, match="is not finite"):
        Polynomial.variable(1, 0) * bad


def test_to_string_writes_each_coefficient_exactly():
    x = Polynomial.variable(1, 0)
    # repr of the float when it reads back exactly, else the exact expansion
    assert (0.5 * x + 3).to_string(["x"]) == "3.0 + 0.5*x"
    assert (Fraction("0.1") * x).to_string(["x"]) == "0.1*x"
    assert (0.1 * x).to_string(["x"]) == \
        "0.1000000000000000055511151231257827021181583404541015625*x"
    assert (x + 1 + Fraction("1e-30")).to_string(["x"]) == \
        "1." + "0" * 29 + "1 + 1.0*x"
    # an integer of more digits than a double holds
    assert Polynomial.constant(1, -(10**30 + 1)).to_string() == "-1" + "0" * 29 + "1"
    # a value without a finite decimal expansion, which the grammar does not read
    assert Polynomial.constant(1, Fraction(1, 3)).to_string() == "1/3"


def test_a_coefficient_past_the_double_range_is_refused_where_it_is_built():
    # it was kept exactly, and overflowed only where floats were formed
    x = Polynomial.variable(1, 0)
    assert (x * 1e200).coefficient_vector(1)[1] == 1e200
    with pytest.raises(ValueError, match="^a coefficient overflows$"):
        x * 1e200 * 1e200


def literal(text):
    """A decimal literal as the parser reads it."""
    return Polynomial.constant(1, Fraction(text))


X = Polynomial.variable(1, 0)


@pytest.mark.parametrize("build, what", [
    (lambda: literal("1e200") * literal("1e200") * X, "overflows"),
    (lambda: (literal("1e200") * X) ** 2, "overflows"),
    (lambda: literal("1e-200") * literal("1e-200") * X, "underflows to 0"),
    (lambda: (literal("1.0000001") * X + 1) ** 1000, "needs more than 2048 bits"),
    (lambda: Polynomial.constant(1, Fraction("1.0000001") ** 300), "needs more than 2048 bits")],
    ids=["product", "power", "underflow", "bits_power", "bits_constant"])
def test_the_parser_refusals_hold_for_polynomials_built_in_python(build, what):
    # the parser refuses 1e200*1e200*x, (1e200*x)^2, 1e-200*1e-200*x and
    # (1.0000001*x + 1)^1000 with the same words
    with pytest.raises(ValueError, match=f"^a coefficient {what}$"):
        build()


def test_a_product_past_the_work_bound_is_refused_before_it_is_expanded(monkeypatch):
    # 100 x 100 terms of 64 counted bits each: 1.28e6 units of work
    p = Polynomial(1, {(i,): i + 1 for i in range(100)})
    q = Polynomial(1, {(i,): Fraction(1, 3) ** 60 for i in range(100)})   # 96 bits
    monkeypatch.setattr(poly, "MAX_PRODUCT_WORK", 100 * 100 * 128)
    assert (p * p).terms[(198,)] == 100 ** 2
    with pytest.raises(ValueError, match="^a product of 100 by 100 terms with coefficients "
                                         "of up to 96 bits is too costly to expand exactly$"):
        p * q
    with pytest.raises(ValueError, match="too costly"):
        q ** 2
    assert p * 3 == 3 * p
