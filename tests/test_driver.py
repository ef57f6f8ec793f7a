import numpy as np
import pytest

from homsos.poly import Polynomial, PopProblem
from homsos import driver, relax

from conftest import (biquadratic_escape, choi_like_cubic, cubic_unbounded,
                      match_points, product_quartic, sextic_on_line,
                      unattained_quartic)


def test_min_square_bound_exact_at_order_one():
    a = Polynomial.variable(1, 0)
    rep = driver.solve_pop(PopProblem(1, a**2),
                           driver.DriverOptions(k_min=1, k_max=2))
    # the order-1 value is already exact; extraction needs order 2 because
    # the order-1 optimal face is a segment and the interior-point solver
    # returns its center, which is not a moment vector of a measure
    assert rep.records[0].bound == pytest.approx(0.0, abs=1e-6)
    assert rep.converged and rep.convergence_order <= 2
    (pt, val), = rep.records[rep.convergence_order - 1].minimizers
    assert pt[0] == pytest.approx(0.0, abs=1e-4)
    assert rep.best_bound == pytest.approx(0.0, abs=1e-6)


def test_driver_entry_points_restore_blas_threads(blas_threads):
    before = blas_threads()
    a = Polynomial.variable(1, 0)
    prob = PopProblem(1, a**2)
    driver.solve_pop(prob, driver.DriverOptions(k_min=1, k_max=1))
    assert blas_threads() == before
    driver.minimizers_at_infinity(prob, 1)
    assert blas_threads() == before
    driver.positivity_at_infinity_probe(prob, 1)
    assert blas_threads() == before


def test_default_k_min_and_rank_gap():
    prob = cubic_unbounded()
    assert driver.default_k_min(prob, relax.HOMOGENIZED) == 2
    assert driver.rank_gap(prob) == 2
    assert driver.default_k_min(prob, relax.power_x0(2)) == 3


def test_sphere_restriction_structure():
    prob = cubic_unbounded()
    sph = driver.sphere_restriction(prob)
    assert sph.objective.terms == prob.objective.terms  # f is linear = its top
    assert sph.equalities[-1].terms == {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}
    assert [c.terms for c in sph.inequalities] == [{(3, 0): 1.0}, {(0, 3): 1.0}]


def test_unattained_quartic_diagnosis():
    rep = driver.solve_pop(unattained_quartic(),
                           driver.DriverOptions(k_min=2, k_max=4))
    assert not rep.converged
    assert all(r.flat_t is None for r in rep.records)
    assert "optimum likely unattained" in rep.diagnosis
    assert -1e-4 <= rep.best_bound <= 1e-2


def test_minimizers_at_infinity_biquadratic():
    rep = driver.minimizers_at_infinity(biquadratic_escape(), 3)
    assert abs(rep.bound) < 1e-6
    s = 1.0 / np.sqrt(2.0)
    assert match_points(rep.points, [(1, 0), (-1, 0), (s, -s), (-s, s)], 1e-3)
    assert len(rep.points) == 4
    assert all(abs(v) < 1e-6 for v in rep.values)


def test_minimizers_at_infinity_empty_when_coercive():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, (a**2 + b**2)**2)
    rep = driver.minimizers_at_infinity(prob, 2)
    assert rep.bound == pytest.approx(1.0, abs=1e-6)
    assert rep.points == []


def test_positivity_probe_cubic_example():
    out = driver.positivity_at_infinity_probe(cubic_unbounded(), 3)
    assert out["verdict"] is True
    assert out["bound"] > 0.5


def test_positivity_probe_coercive_but_not_positive():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    out = driver.positivity_at_infinity_probe(PopProblem(2, a**4 + b**2), 2)
    assert out["verdict"] is False
    assert abs(out["bound"]) < 1e-6


def test_positivity_probe_empty_directions():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a + b, (a**2 + b**2 + 1,), ())
    out = driver.positivity_at_infinity_probe(prob, 2)
    assert out["verdict"] is True
    assert "vacuously" in out["diagnosis"]


def test_no_verify_skips_optcond_gate():
    prob = cubic_unbounded()
    rep = driver.solve_pop(prob, driver.DriverOptions(k_min=3, k_max=3,
                                                      verify=False))
    assert rep.converged


def test_order_too_small_recorded_and_skipped():
    prob = cubic_unbounded()
    rep = driver.solve_pop(prob, driver.DriverOptions(k_min=1, k_max=3))
    assert rep.records[0].status == "order_too_small"
    assert rep.converged


def test_report_serialization_round_trip():
    import json
    rep = driver.solve_pop(cubic_unbounded(),
                           driver.DriverOptions(k_min=3, k_max=3))
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["final"]["converged"] is True
    assert back["records"][0]["minimizers"]


def test_even_kind_end_to_end():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a**4 + b**4 - a * b)
    rep = driver.solve_pop(prob, driver.DriverOptions(
        kind=relax.HOMOGENIZED_EVEN, k_min=2, k_max=3))
    # order 2 already carries the exact bound; the antipodal atom pairs of
    # the even variant become extractable one order later
    assert rep.records[0].bound == pytest.approx(-0.125, abs=1e-6)
    assert rep.converged and rep.convergence_order <= 3
    rec = rep.records[rep.convergence_order - 2]
    pts = [pt for pt, _ in rec.minimizers]
    assert match_points(pts, [(0.5, 0.5), (-0.5, -0.5)], 1e-4)
    assert len(pts) == 2
    assert rep.best_bound == pytest.approx(-0.125, abs=1e-6)


def test_denominator_kind_reports_bound_without_atoms():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a**4 + b**4 - a * b)
    rep = driver.solve_pop(prob, driver.DriverOptions(
        kind=relax.DENOMINATOR, k_min=3, k_max=3))
    assert not rep.converged
    rec = rep.records[0]
    assert rec.status == "optimal"
    assert rec.bound == pytest.approx(-0.125, abs=1e-6)
    assert rec.minimizers == []


def test_choi_lam_augmented_all_fourteen_directions():
    from conftest import choi_lam_augmented, match_points
    prob = choi_lam_augmented()
    # the six axis zeros are second-order degenerate, so the optimal measure
    # smears around them: four-digit extraction tolerances recover the
    # fourteen directions cleanly
    rep = driver.minimizers_at_infinity(
        prob, 5, driver.DriverOptions(rank_tol=1e-4, extract_tol=1e-3))
    assert abs(rep.bound) < 1e-6
    s3 = 1.0 / np.sqrt(3.0)
    refs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    refs += [(a * s3, b * s3, c * s3) for a in (1, -1) for b in (1, -1)
             for c in (1, -1)]
    assert len(rep.points) == 14
    assert match_points(rep.points, refs, 5e-3)


def test_power_kind_tightens_with_order():
    prob = cubic_unbounded()
    rep = driver.solve_pop(prob, driver.DriverOptions(
        kind=relax.power_x0(1), k_min=4, k_max=4))
    rec = rep.records[0]
    assert rec.bound == pytest.approx(-1.0 - 2.0 * np.sqrt(3.0) / 9.0, abs=1e-4)


def test_homogenized_at_least_even_bound():
    # the x0 >= 0 pencil can only tighten the relaxation
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a**4 + b**4 - a * b, (), (a**2 - 1.0,))
    for k in (3, 4):
        vals = {}
        for kind in (relax.HOMOGENIZED, relax.HOMOGENIZED_EVEN):
            rep = driver.solve_pop(prob, driver.DriverOptions(
                kind=kind, k_min=k, k_max=k))
            vals[kind.name] = rep.records[0].f_k_prime
        assert vals["homogenized"] >= vals["homogenized_even"] \
            - 1e-6 * (1.0 + abs(vals["homogenized_even"]))


def test_infinity_atoms_satisfy_direction_conditions(hierarchy_reports):
    """Every extracted escape direction lies in the zero set of the
    top-degree objective part and satisfies the top-degree constraints."""
    checked = 0
    for name, (prob, rep) in hierarchy_reports.items():
        f_top = prob.objective.graded_part(1)
        for rec in rep.records:
            for v in rec.minimizers_at_infinity:
                assert abs(f_top.eval(v)) < 1e-4
                for c in prob.equalities:
                    assert abs(c.graded_part(1).eval(v)) < 1e-4
                for c in prob.inequalities:
                    assert c.graded_part(1).eval(v) > -1e-4
                checked += 1
    assert checked >= 5


def test_convergence_implies_verified_minimizers(hierarchy_reports):
    for name, (prob, rep) in hierarchy_reports.items():
        if not rep.converged:
            continue
        rec = next(r for r in rep.records if r.k == rep.convergence_order)
        assert rec.minimizers
        for pt, val in rec.minimizers:
            assert prob.feasibility_violation(pt) < 1e-3
            assert abs(val - rec.bound) <= 1e-3 * (1.0 + abs(rec.bound))
        assert rec.atom_set.regular_weight == pytest.approx(1.0, abs=1e-4)


def test_regular_weights_sum_to_one_on_clean_solves(hierarchy_reports):
    checked = 0
    for name, (prob, rep) in hierarchy_reports.items():
        for rec in rep.records:
            if rec.status == "optimal" and rec.atom_set is not None \
                    and rec.atom_set.regular:
                assert abs(rec.atom_set.regular_weight - 1.0) < 1e-6
                checked += 1
    assert checked >= 4


def _multistart_minimum(prob, rng, radius=3.0, starts=25, ring=None):
    """Local-optimization oracle for the global minimum at desk scale.
    ``ring`` adds deterministic starts on a circle (boundary optima are easy
    for SLSQP to miss from interior starts)."""
    from scipy.optimize import minimize

    cons = []
    for c in prob.equalities:
        cons.append({"type": "eq", "fun": c.eval, "jac": c.gradient})
    for c in prob.inequalities:
        cons.append({"type": "ineq", "fun": c.eval, "jac": c.gradient})
    x0s = [rng.uniform(-radius, radius, size=prob.nvars) for _ in range(starts)]
    if ring is not None and prob.nvars == 2:
        x0s += [ring * np.array([np.cos(t), np.sin(t)])
                for t in np.linspace(0.0, 2 * np.pi, 16, endpoint=False)]
    best = np.inf
    for x0 in x0s:
        res = minimize(prob.objective.eval, x0, jac=prob.objective.gradient,
                       constraints=cons, method="SLSQP",
                       options={"maxiter": 200, "ftol": 1e-12})
        # keep any feasible improvement, converged flag or not
        if res.fun < best and prob.feasibility_violation(res.x) < 1e-6:
            best = float(res.fun)
    return best


@pytest.mark.parametrize("trial", range(6))
def test_random_ball_problems_against_multistart(trial):
    from homsos.poly import monomial_basis
    rng = np.random.default_rng(300 + trial)
    monos = monomial_basis(2, 4)
    coefs = {m: rng.uniform(-1, 1) for m in
             (monos[i] for i in rng.choice(len(monos), size=8, replace=False))}
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, Polynomial(2, coefs), (), (4.0 - a**2 - b**2,))
    rep = driver.solve_pop(prob, driver.DriverOptions(
        kind=relax.STANDARD, k_min=3, k_max=3))
    rec = rep.records[0]
    assert rec.status == "optimal"
    oracle = _multistart_minimum(prob, rng, radius=2.0, ring=2.0)
    scale = 1.0 + abs(oracle)
    assert rec.bound <= oracle + 1e-5 * scale
    # order 3 is exact on these instances more often than not; when the
    # rank test certifies it, values and minimizers must agree
    if rep.converged:
        assert abs(rec.bound - oracle) <= 1e-4 * scale
        assert any(abs(prob.objective.eval(pt) - oracle) <= 1e-4 * scale
                   for pt, _ in rec.minimizers)


@pytest.mark.parametrize("trial", range(4))
def test_random_coercive_problems_homogenized(trial):
    from homsos.poly import monomial_basis, sum_of_squares_norm
    rng = np.random.default_rng(400 + trial)
    monos = monomial_basis(2, 3)
    coefs = {m: rng.uniform(-1, 1) for m in
             (monos[i] for i in rng.choice(len(monos), size=6, replace=False))}
    f = Polynomial(2, coefs) + sum_of_squares_norm(2) ** 2
    prob = PopProblem(2, f)
    rep = driver.solve_pop(prob, driver.DriverOptions(k_min=2, k_max=3))
    oracle = _multistart_minimum(prob, rng)
    scale = 1.0 + abs(oracle)
    assert rep.best_bound <= oracle + 1e-5 * scale
    if rep.converged:
        assert abs(rep.best_bound - oracle) <= 1e-4 * scale
        rec = next(r for r in rep.records if r.k == rep.convergence_order)
        assert any(abs(f.eval(pt) - oracle) <= 1e-4 * scale
                   for pt, _ in rec.minimizers)


def test_sextic_escape_bound_only():
    # the escape directions (+-1, 0, 0) of this sextic are sixth-order flat,
    # so the optimal measure smears beyond extraction tolerances; the bound
    # is still resolved to high accuracy
    x1, x2, x3 = [Polynomial.variable(3, i) for i in range(3)]
    robinson = (1 + x2**6 + x3**6 + 3 * x2**2 * x3**2 - (x2**2 + x3**2)
                - x2**4 * (1 + x3**2) - x3**4 * (1 + x2**2))
    prob = PopProblem(3, (x3**2 + x1 * x3 + 1)**2 + x3**6 + robinson)
    rep = driver.minimizers_at_infinity(prob, 3)
    assert abs(rep.bound) < 1e-6


def test_bad_order_range_rejected():
    with pytest.raises(ValueError, match="k_max"):
        driver.solve_pop(cubic_unbounded(),
                         driver.DriverOptions(k_min=3, k_max=2))


@pytest.mark.parametrize("make, k", [(choi_like_cubic, 2), (product_quartic, 3),
                                     (cubic_unbounded, 3)])
def test_affine_objective_map_moves_bound(make, k):
    # f -> 2 f + 3 maps every bound b to 2 b + 3 and leaves statuses alone
    prob = make()
    mapped = PopProblem(prob.nvars, 2.0 * prob.objective + 3.0,
                        prob.equalities, prob.inequalities)
    opts = driver.DriverOptions(k_min=k, k_max=k)
    rep, rep_mapped = driver.solve_pop(prob, opts), driver.solve_pop(mapped, opts)
    assert [r.status for r in rep_mapped.records] == [r.status for r in rep.records]
    bound = rep.best_bound
    assert bound is not None
    assert rep_mapped.best_bound == pytest.approx(2.0 * bound + 3.0, rel=0.0,
                                                  abs=1e-6 * (1.0 + abs(bound)))


def test_variable_swap_swaps_minimizer():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    # cubic_unbounded with x1 and x2 exchanged
    swapped = PopProblem(2, b + a, (), (b**3 + a + 1, a**3 - b + 1))
    opts = driver.DriverOptions(k_min=3, k_max=3)
    rep, rep_swapped = driver.solve_pop(cubic_unbounded(), opts), driver.solve_pop(swapped, opts)
    assert rep.converged and rep_swapped.converged
    assert rep_swapped.best_bound == pytest.approx(
        rep.best_bound, rel=0.0, abs=1e-6 * (1.0 + abs(rep.best_bound)))
    (pt, _), = rep.records[-1].minimizers
    (pt_swapped, _), = rep_swapped.records[-1].minimizers
    assert np.allclose(pt_swapped, pt[::-1], atol=1e-5)
