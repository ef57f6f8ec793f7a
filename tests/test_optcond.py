import json
import math

import numpy as np
import pytest
import scipy.linalg

from homsos.poly import Polynomial, PopProblem, monomial_basis
from homsos import optcond

from conftest import (CUBIC_ARGMIN, cubic_unbounded, chain_with_product,
                      shifted_cubic_corner, unattained_quartic)


def test_regular_cubic_example_analytic():
    rep = optcond.check_regular(cubic_unbounded(), CUBIC_ARGMIN)
    assert rep.active_set == ["ineq0"]
    assert rep.licq and rep.scc and rep.sosc and rep.fooc_ok
    assert rep.multipliers["ineq0"] == pytest.approx(1.0, abs=1e-9)
    assert rep.multipliers["ineq1"] == 0.0
    # Lagrangian Hessian is diag(2*sqrt(3), 0); projection onto the tangent
    # line of the active gradient (1, 1) leaves sqrt(3)
    assert rep.sosc_margin == pytest.approx(math.sqrt(3.0), rel=1e-8)


def test_regular_unconstrained_quadratic():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    rep = optcond.check_regular(PopProblem(2, a**2 + b**2), np.zeros(2))
    assert rep.active_set == []
    assert rep.licq and rep.fooc_ok and rep.scc and rep.sosc
    assert rep.sosc_margin == pytest.approx(2.0)


def test_regular_cubic_saddle_fails_sosc():
    a = Polynomial.variable(1, 0)
    rep = optcond.check_regular(PopProblem(1, a**3), np.zeros(1))
    assert rep.fooc_ok          # gradient vanishes
    assert not rep.sosc         # zero curvature
    assert rep.sosc_margin == pytest.approx(0.0, abs=1e-12)


def test_regular_rejects_infeasible_point():
    prob = cubic_unbounded()
    with pytest.raises(ValueError, match="infeasible"):
        optcond.check_regular(prob, np.array([-10.0, -10.0]))


def test_regular_degenerate_active_set_fails_licq():
    # three active constraints in one variable go through the KKT tests
    # like any other active set, and LICQ fails
    a = Polynomial.variable(1, 0)
    prob = PopProblem(1, a, (), (a, -1.0 * a, a * a))
    rep = optcond.check_regular(prob, np.zeros(1))
    assert not rep.licq and not rep.passed
    assert sorted(rep.multipliers) == ["ineq0", "ineq1", "ineq2"]
    assert np.isfinite(rep.fooc_residual)


def test_infinity_chain_example_formula_oracle():
    """Direct formula evaluation at the known escape direction e5."""
    prob = chain_with_product()
    v = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    rep = optcond.check_at_infinity(prob, v, f_min_estimate=0.0)
    f_top = prob.objective.graded_part(1)
    assert abs(f_top.eval(v)) < 1e-12
    # active top-degree constraints at e5: all but x5 - x4
    assert rep.active_set == ["ineq0", "ineq1", "ineq2", "ineq3", "ineq5"]
    grads = np.array([prob.inequalities[j].graded_part(1).gradient(v)
                      for j in (0, 1, 2, 3, 5)])
    sv = np.linalg.svd(grads, compute_uv=False)
    assert (sv[-1] > 1e-8) == rep.licq  # dependent gradients: licq fails
    assert not rep.licq
    # gradient of the top part vanishes at e5, so all multipliers are 0 and
    # lambda0 = f_sec(e5) = 0
    assert np.allclose(f_top.gradient(v), 0.0)
    assert rep.lambda0 == pytest.approx(prob.objective.graded_part(2).eval(v),
                                        abs=1e-10)
    assert rep.lambda_bar == pytest.approx(0.0, abs=1e-10)
    assert not rep.scc
    # tangent space is {0}: vacuous second-order condition
    assert rep.sosc and rep.sosc_margin == np.inf


def test_infinity_rejects_nonvanishing_top_part():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a**3 + b)
    with pytest.raises(ValueError, match="top-degree"):
        optcond.check_at_infinity(prob, np.array([1.0, 0.0]), 0.0)


def test_infinity_rejects_point_outside_directions():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a * b, (), (a,))
    # top part of the constraint is x1, negative at (-1, 0)
    with pytest.raises(ValueError, match="negative"):
        optcond.check_at_infinity(prob, np.array([-1.0, 0.0]), 0.0)


def test_infinity_detects_forced_licq_failure():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a * b, (a**2,), ())
    rep = optcond.check_at_infinity(prob, np.array([0.0, 1.0]), 0.0)
    assert not rep.licq
    assert rep.licq_min_sv == pytest.approx(0.0, abs=1e-12)


def test_infinity_motzkin_like_cubic_direction():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a**2 * b + b**2 * a - 3 * a * b, (), (a, b))
    rep = optcond.check_at_infinity(prob, np.array([1.0, 0.0]), -1.0)
    assert rep.licq and rep.fooc_ok
    assert rep.multipliers["ineq1"] == pytest.approx(1.0, abs=1e-9)
    # lambda0 = f_sec(x*) - sum lambda_i c_sec_i(x*) = 0 at this direction
    assert rep.lambda0 == pytest.approx(0.0, abs=1e-9)
    assert not rep.scc


def test_infinity_negative_x0_multiplier_fails_first_order():
    # f = x1^2 (x2 - 1) with x2 >= 0 decreases without bound along (1, 0):
    # there the multiplier of x0 >= 0 is the degree-2 part -x1^2, i.e. -1
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a**2 * b - a**2, (), (b,))
    rep = optcond.check_at_infinity(prob, np.array([1.0, 0.0]), 0.0)
    assert rep.lambda0 == pytest.approx(-1.0, abs=1e-12)
    assert rep.multipliers["ineq0"] == pytest.approx(1.0, abs=1e-12)
    assert rep.fooc_residual < 1e-12
    assert not rep.fooc_ok


def test_infinity_even_unattained_quartic():
    prob = unattained_quartic()
    rep = optcond.check_at_infinity_even(prob, np.array([0.0, 1.0]), 0.0)
    assert rep.licq and rep.fooc_ok and rep.scc
    # the Hessian block structure gives projected eigenvalues {0, 2}
    assert not rep.sosc
    assert rep.sosc_margin == pytest.approx(0.0, abs=1e-10)
    f_top = prob.objective.graded_part(1)
    h_block = f_top.hessian(np.array([0.0, 1.0]))
    assert np.allclose(h_block, [[2.0, 0.0], [0.0, 0.0]])


def test_infinity_even_rejects_odd_degrees():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a**4, (), (b,))
    with pytest.raises(ValueError, match="even"):
        optcond.check_at_infinity_even(prob, np.array([0.0, 1.0]), 0.0)


def test_infinity_lambda_bar_zero():
    prob = chain_with_product()
    rep = optcond.check_at_infinity(prob, np.array([0.0, 0, 0, 0, 1.0]), 0.0)
    assert abs(rep.lambda_bar) < 1e-10


def test_equivalence_probe_cubic_example():
    orig, lifted = optcond.equivalence_probe(cubic_unbounded(), CUBIC_ARGMIN)
    assert (orig.licq, orig.scc, orig.sosc) == (lifted.licq, lifted.scc,
                                                lifted.sosc) == (True,) * 3
    # the lifted problem sees the sphere equality as active as well
    assert "eq0" in lifted.active_set


def test_equivalence_probe_corner_minimizer():
    orig, lifted = optcond.equivalence_probe(shifted_cubic_corner(),
                                             np.array([1.0, 1.0]))
    assert (orig.licq, orig.scc, orig.sosc) == (lifted.licq, lifted.scc,
                                                lifted.sosc)
    assert orig.multipliers["ineq0"] == pytest.approx(4.0, abs=1e-8)
    assert orig.multipliers["ineq1"] == pytest.approx(4.0, abs=1e-8)


def test_equivalence_probe_random_quadratic():
    rng = np.random.default_rng(13)
    for _ in range(3):
        n = 3
        q = rng.standard_normal((n, n))
        h = q @ q.T + n * np.eye(n)
        center = rng.uniform(-1, 1, size=n)
        xs = [Polynomial.variable(n, i) for i in range(n)]
        f = Polynomial.zero(n)
        for i in range(n):
            for j in range(n):
                f = f + 0.5 * h[i, j] * (xs[i] - center[i]) * (xs[j] - center[j])
        orig, lifted = optcond.equivalence_probe(PopProblem(n, f), center)
        assert orig.licq and lifted.licq
        assert orig.sosc and lifted.sosc
        assert orig.scc and lifted.scc


def test_report_serialization():
    rep = optcond.check_regular(cubic_unbounded(), CUBIC_ARGMIN)
    d = rep.to_dict()
    assert d["passed"] is True
    assert isinstance(d["licq"], bool)
    assert isinstance(d["multipliers"]["ineq0"], float)


def test_report_dict_writes_each_nonfinite_number_as_none():
    rep = optcond.OptCondReport(
        location_kind="regular", point=np.array([1.0, np.inf, np.nan]), active_set=[],
        licq=np.bool_(True), licq_min_sv=np.float64(np.inf), multipliers={"ineq0": -np.inf},
        fooc_ok=True, fooc_residual=0.0, scc=True, scc_margin=math.inf,
        sosc=True, sosc_margin=np.float64(2.0), lambda0=math.nan)
    d = rep.to_dict()
    assert d["point"] == [1.0, None, None]
    assert d["licq_min_sv"] is d["scc_margin"] is d["lambda0"] is None
    assert d["multipliers"] == {"ineq0": None}
    assert d["licq"] is True and type(d["sosc_margin"]) is float
    assert json.loads(json.dumps(d, allow_nan=False)) == d
    # the report itself keeps its values
    assert rep.scc_margin == math.inf and rep.licq_min_sv == np.inf


def test_infinity_even_precondition_filters_candidates():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a**4 + b**2)
    # the top part x1^4 vanishes at (0, 1): the check runs there
    rep = optcond.check_at_infinity_even(prob, np.array([0.0, 1.0]), 0.0)
    assert rep.location_kind == "at_infinity_even"
    # but not at (1, 0), where the top part is 1
    with pytest.raises(ValueError, match="top-degree"):
        optcond.check_at_infinity_even(prob, np.array([1.0, 0.0]), 0.0)


def _lifted_at_zero(prob, v, f_min_est, even_variant=False):
    """The regular check of the sphere-lifted program at (0, v), which the
    at-infinity checks report in the original problem's labels."""
    lifted = optcond.homogenized_nlp(prob, f_min_est, even_variant)
    x_lift = np.concatenate(([0.0], np.asarray(v, float)))
    return lifted, optcond.check_regular(lifted, x_lift)


def test_infinity_check_matches_lifted_nlp():
    cases = [
        (PopProblem(2, Polynomial.variable(2, 0)**2 * Polynomial.variable(2, 1)
                    + Polynomial.variable(2, 1)**2 * Polynomial.variable(2, 0)
                    - 3 * Polynomial.variable(2, 0) * Polynomial.variable(2, 1),
                    (), (Polynomial.variable(2, 0), Polynomial.variable(2, 1))),
         np.array([1.0, 0.0]), -1.0),
    ]
    from conftest import robinson_like_cubic
    s = 1.0 / math.sqrt(2.0)
    cases.append((robinson_like_cubic(), np.array([s, s]), -1.0))
    for prob, v, fmin in cases:
        reduced = optcond.check_at_infinity(prob, v, fmin)
        lifted, direct = _lifted_at_zero(prob, v, fmin)
        assert reduced.licq == direct.licq
        # the x0 constraint is the last lifted inequality, the sphere the
        # last lifted equality; its multiplier is lambda_bar / 2
        n_in = len(prob.inequalities)
        n_eq = len(prob.equalities)
        assert direct.multipliers[f"ineq{n_in}"] == pytest.approx(
            reduced.lambda0, abs=1e-8)
        assert 2 * direct.multipliers.get(f"eq{n_eq}", 0.0) == pytest.approx(
            reduced.lambda_bar, abs=1e-8)
        for j in range(n_in):
            assert direct.multipliers[f"ineq{j}"] == pytest.approx(
                reduced.multipliers[f"ineq{j}"], abs=1e-8)
        assert direct.sosc == reduced.sosc
        if np.isfinite(reduced.sosc_margin) and np.isfinite(direct.sosc_margin):
            assert direct.sosc_margin == pytest.approx(reduced.sosc_margin,
                                                       rel=1e-7, abs=1e-9)


def test_even_infinity_check_matches_lifted_nlp():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    for prob, v in [(unattained_quartic(), np.array([0.0, 1.0])),
                    (PopProblem(2, a**4 + b**2), np.array([0.0, 1.0]))]:
        reduced = optcond.check_at_infinity_even(prob, v, 0.0)
        lifted, direct = _lifted_at_zero(prob, v, 0.0, even_variant=True)
        assert reduced.licq == direct.licq
        assert direct.sosc == reduced.sosc
        if np.isfinite(reduced.sosc_margin) and np.isfinite(direct.sosc_margin):
            assert direct.sosc_margin == pytest.approx(reduced.sosc_margin,
                                                       rel=1e-7, abs=1e-9)


def former_kkt(prob, x, active):
    """LICQ, least-squares multipliers and the projected SOSC eigenvalue as
    ``_kkt`` computed them with one factorization each: ``svdvals``,
    ``lstsq`` and ``null_space``."""
    grads = np.array([c.gradient(x) for _, c in active]).reshape(len(active), prob.nvars)
    if active:
        sv = scipy.linalg.svdvals(grads)
        min_sv = float(sv[-1]) if grads.shape[0] <= grads.shape[1] else 0.0
        lam = np.linalg.lstsq(grads.T, prob.objective.gradient(x), rcond=None)[0]
    else:
        min_sv, lam = np.inf, np.zeros(0)
    hess = prob.objective.hessian(x)
    for (_, con), l_i in zip(active, lam):
        hess = hess - l_i * con.hessian(x)
    basis = scipy.linalg.null_space(grads) if grads.size else np.eye(prob.nvars)
    sosc = float(scipy.linalg.eigvalsh(basis.T @ hess @ basis)[0]) if basis.shape[1] else np.inf
    return min_sv, lam, sosc


def random_quadratic(rng, n):
    monos = monomial_basis(n, 2)
    return Polynomial(n, dict(zip(monos, rng.standard_normal(len(monos)))))


def test_kkt_matches_the_former_factorizations():
    """On random active sets, with duplicated and linearly dependent gradient
    rows and more rows than variables, the one SVD of ``_kkt`` gives the
    multipliers, ``licq_min_sv`` and ``sosc_margin`` of the former three
    factorizations."""
    rng = np.random.default_rng(7)
    seen_dependent = seen_tall = 0
    for _ in range(60):
        n = int(rng.integers(1, 6))
        cons = [random_quadratic(rng, n) for _ in range(rng.integers(0, n + 2))]
        if cons and rng.random() < 0.5:
            cons.append(cons[rng.integers(len(cons))])          # duplicated row
        if len(cons) >= 2 and rng.random() < 0.5:
            a, b = rng.standard_normal(2)
            cons.append(a * cons[0] + b * cons[1])               # dependent row
        prob = PopProblem(n, random_quadratic(rng, n), tuple(cons))
        x = rng.standard_normal(n)
        active = [(f"eq{i}", c) for i, c in enumerate(cons)]
        rep = optcond._kkt(prob, x, active, [], 1e-6, "regular")
        min_sv, lam, sosc = former_kkt(prob, x, active)

        assert rep.licq_min_sv == pytest.approx(min_sv, abs=1e-12)
        assert np.allclose([rep.multipliers[lab] for lab, _ in active], lam,
                           rtol=0, atol=1e-12)
        assert rep.sosc_margin == pytest.approx(sosc, abs=1e-12)
        rank = np.linalg.matrix_rank(np.array([c.gradient(x) for c in cons]).reshape(-1, n))
        seen_dependent += rank < len(cons) <= n
        seen_tall += len(cons) > n
    assert seen_dependent and seen_tall
