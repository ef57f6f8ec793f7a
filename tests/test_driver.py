from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from homsos.poly import Polynomial, PopProblem
from homsos import cli, driver, extract, relax, sdp

from conftest import (biquadratic_escape, chain_with_product, choi_like_cubic,
                      cubic_unbounded, match_points, product_quartic,
                      sextic_on_line, unattained_quartic)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


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


@pytest.mark.parametrize("kind", [relax.STANDARD, relax.DENOMINATOR])
def test_relaxation_fixed_by_its_equalities_has_a_certificate(kind):
    # min x s.t. x - 1 = 0 at order 1: the equalities fix every moment, and
    # the certificate x - 1 = 1 * (x - 1) has gamma 1 and only a multiplier
    x = Polynomial.variable(1, 0)
    prob = PopProblem(1, x, (x - 1,), ())
    rec = driver.solve_pop(prob, driver.DriverOptions(kind=kind, k_min=1, k_max=1)).records[0]
    assert rec.status == "optimal" and rec.bound == pytest.approx(1.0)
    assert rec.certificate_residual <= 1e-12
    rel = relax.assemble(kind, prob, 1)
    inst, _ = relax.to_sdp_instance(rel)
    sol = sdp.solve_with_restarts(inst)
    assert inst.A.T @ sol.eq_duals == pytest.approx(inst.c, abs=1e-12)
    assert relax.sos_certificate_from_dual(rel, sol).gamma == pytest.approx(1.0)


@pytest.mark.parametrize("status, moment_converged, capped", [
    (sdp.SdpStatus.NUMERICAL_TROUBLE, True, True),
    (sdp.SdpStatus.NUMERICAL_TROUBLE, False, False),
    (sdp.SdpStatus.ITER_LIMIT, True, True),
    (sdp.SdpStatus.OPTIMAL, True, False)])
def test_stalled_certificate_value_capped_by_moment_value(monkeypatch, status,
                                                          moment_converged, capped):
    # weak duality: a converged moment side's value caps the relaxation's
    a = Polynomial.variable(1, 0)
    solve = sdp.solve_with_restarts

    def raised_dual(inst, opts):
        sol = solve(inst, opts)
        return replace(sol, status=status, moment_converged=moment_converged,
                       dual_obj=sol.primal_obj + 1e-3)

    monkeypatch.setattr(sdp, "solve_with_restarts", raised_dual)
    rec, _, sol = driver._solve_order(PopProblem(1, a**2 - 2 * a), relax.STANDARD,
                                      1, driver.DriverOptions())
    assert rec.f_k_prime == sol.primal_obj
    assert rec.f_k == (sol.primal_obj if capped else sol.dual_obj)


def test_unconverged_moment_side_gives_no_bound(monkeypatch):
    # a moment value without a converged moment side bounds nothing
    a = Polynomial.variable(1, 0)
    solve = sdp.solve_with_restarts

    def unconverged(inst, opts):
        sol = solve(inst, opts)
        return replace(sol, status=sdp.SdpStatus.NUMERICAL_TROUBLE,
                       moment_converged=False, dual_infeas=1e-3)

    monkeypatch.setattr(sdp, "solve_with_restarts", unconverged)
    prob = PopProblem(1, a**2 - 2 * a)
    rec, _, sol = driver._solve_order(prob, relax.STANDARD, 1, driver.DriverOptions())
    assert rec.f_k is None and rec.f_k_prime == sol.primal_obj
    assert rec.bound is None
    rep = driver.solve_pop(prob, driver.DriverOptions(kind=relax.STANDARD, k_min=1))
    assert rep.records[0].bound is None and rep.best_bound is None


def test_diverged_moment_vector_gives_no_bound_once_converged(monkeypatch):
    # a diverged moment vector gives no bound even where its moment side
    # converged (test_cli has a real run whose moment side did not)
    a = Polynomial.variable(1, 0)
    solve = sdp.solve_with_restarts

    def diverged(inst, opts):
        sol = solve(inst, opts)
        return replace(sol, status=sdp.SdpStatus.NUMERICAL_TROUBLE, moment_converged=True,
                       y=np.full_like(sol.y, sdp.DIVERGED_NORM))

    monkeypatch.setattr(sdp, "solve_with_restarts", diverged)
    rec, _, sol = driver._solve_order(PopProblem(1, a**2 - 2 * a), relax.STANDARD,
                                      1, driver.DriverOptions())
    assert rec.f_k is None and rec.f_k_prime == sol.primal_obj
    assert rec.bound is None


def test_infinity_bound_is_the_certificate_value():
    prob, _, _ = cli.parse_problem((PROBLEMS / "escape_directions.pop").read_text())
    rep = driver.minimizers_at_infinity(prob, 3)
    rec, = rep.records
    assert rep.bound == rep.best_bound == rec.bound == rec.f_k
    assert rec.f_k <= 0.0


def test_chain_order2_certificate_value_below_moment_value():
    # the solve ends at the iteration limit with its moment side converged
    rec, = driver.solve_pop(chain_with_product(),
                            driver.DriverOptions(k_min=2, k_max=2)).records
    assert rec.f_k is not None and rec.f_k_prime is not None
    assert rec.f_k <= rec.f_k_prime



def test_no_battery_solve_ends_on_the_moment_budget(hierarchy_reports):
    for name, (_prob, rep) in hierarchy_reports.items():
        for rec in rep.records:
            assert "since the moment side converged" not in rec.solver_message, name


def test_record_iterations_are_those_of_the_kept_attempt(monkeypatch):
    solve, kept = sdp.solve_with_restarts, []

    def recorded(inst, opts):
        kept.append(solve(inst, opts))
        return kept[-1]

    monkeypatch.setattr(sdp, "solve_with_restarts", recorded)
    rep = driver.solve_pop(cubic_unbounded(), driver.DriverOptions(k_min=1, k_max=3))
    assert rep.records[0].status == "order_too_small"
    iters = [None] + [sol.iterations for sol in kept]
    assert [rec.iterations for rec in rep.records] == iters
    assert [rec["iterations"] for rec in rep.to_dict()["records"]] == iters
    assert all(n > 0 for n in iters[1:])

def test_driver_entry_points_restore_blas_threads(blas_threads):
    before = blas_threads()
    a = Polynomial.variable(1, 0)
    prob = PopProblem(1, a**2)
    driver.solve_pop(prob, driver.DriverOptions(k_min=1, k_max=1))
    assert blas_threads() == before
    driver.minimizers_at_infinity(prob, 1)
    assert blas_threads() == before


def test_default_k_min_and_rank_gap():
    prob = cubic_unbounded()
    assert driver.default_k_min(prob, relax.HOMOGENIZED) == 2
    assert driver.rank_gap(prob) == 2
    assert driver.default_k_min(prob, relax.power_x0(2)) == 3
    assert driver.default_k_min(prob, relax.power_x0(0)) == \
        driver.default_k_min(prob, relax.HOMOGENIZED)


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


def test_chain_escape_direction_fails_licq():
    # at (0, e5) the homogenized program has seven active constraints (five
    # top-degree inequalities, the sphere and x0 >= 0) in six variables
    rep = driver.minimizers_at_infinity(chain_with_product(), 2)
    check, = [c for c in rep.records[0].optcond if abs(c.point[4]) > 1.0 - 1e-3]
    assert check.location_kind == "at_infinity"
    assert check.active_set == ["ineq0", "ineq1", "ineq2", "ineq3", "ineq5"]
    assert not check.licq and check.licq_min_sv == 0.0


def test_solve_pop_drops_a_direction_the_infinity_check_rejects(monkeypatch):
    # f = x1 + x2 has top-degree part 1 at (1, 0), so (1, 0) is no escape
    # direction; a spurious at-infinity atom there is dropped with a note
    classify = extract.classify

    def with_direction(*args, **kwargs):
        atom_set = classify(*args, **kwargs)
        atom_set.at_infinity.append((np.array([1.0, 0.0]), 0.0))
        return atom_set

    monkeypatch.setattr(extract, "classify", with_direction)
    rep = driver.solve_pop(cubic_unbounded(), driver.DriverOptions(k_min=3, k_max=3))
    rec, = rep.records
    assert rec.minimizers
    assert rec.minimizers_at_infinity == []
    assert all(r.location_kind == "regular" for r in rec.optcond)
    assert "infinity check rejected: top-degree objective part" in rec.notes


def test_minimizers_at_infinity_drops_a_rejected_atom_with_a_note(monkeypatch):
    # (1, 0) is on the sphere but a^4 + a^2 b^2 is 1 there
    extract_atoms = extract.extract_atoms

    def with_spurious(*args, **kwargs):
        return extract_atoms(*args, **kwargs) + [extract.Atom(0.0, np.array([1.0, 0.0]))]

    monkeypatch.setattr(extract, "extract_atoms", with_spurious)
    rep = driver.minimizers_at_infinity(unattained_quartic(), 3)
    assert not match_points(rep.points, [(1.0, 0.0)], 1e-3)
    assert match_points(rep.points, [(0.0, 1.0)], 1e-3) \
        or match_points(rep.points, [(0.0, -1.0)], 1e-3)
    assert len(rep.values) == len(rep.points) == len(rep.records[0].optcond)
    assert "infinity check rejected: top-degree objective part" in rep.records[0].notes


def test_minimizer_admitted_only_when_check_regular_accepts_it(monkeypatch):
    # min x s.t. x >= 10: a regular atom at 10 - 5e-4 violates the constraint
    # by more than atom_tol = 1e-4 but less than atom_tol * (1 + |bound|)
    x = Polynomial.variable(1, 0)
    classify = extract.classify

    def off_by_5e4(*args, **kwargs):
        atom_set = classify(*args, **kwargs)
        atom_set.regular = [(np.array([10.0 - 5e-4]), 1.0)]
        return atom_set

    monkeypatch.setattr(extract, "classify", off_by_5e4)
    rep = driver.solve_pop(PopProblem(1, x, (), (x - 10.0,)),
                           driver.DriverOptions(k_min=2, k_max=2))
    rec, = rep.records
    assert rec.bound == pytest.approx(10.0, abs=1e-5)
    assert rec.minimizers == [] and rec.optcond == []
    assert rec.flat_t is None and not rep.converged


@pytest.mark.parametrize("make, k", [(unattained_quartic, 3), (chain_with_product, 2)])
def test_infinity_record_has_a_certificate_residual(make, k):
    rec = driver.minimizers_at_infinity(make(), k).records[0]
    assert rec.certificate_residual <= 1e-6


def test_infinity_report_round_trips_json():
    import json
    rep = driver.minimizers_at_infinity(biquadratic_escape(), 3)
    blob = rep.to_dict()
    back = json.loads(json.dumps(blob))
    assert back == blob
    rec, = back["records"]
    assert rec["kind"] == "standard(sphere)"
    assert len(rec["minimizers_at_infinity"]) == len(rep.points) == 4
    assert back["final"]["best_bound"] == rep.bound
    assert back["final"]["converged"] is True


def test_minimizers_at_infinity_empty_when_coercive():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, (a**2 + b**2)**2)
    rep = driver.minimizers_at_infinity(prob, 2)
    assert rep.bound == pytest.approx(1.0, abs=1e-6)
    assert rep.points == []


# The verdict on positivity at infinity comes from the sphere solve of
# minimizers_at_infinity: one test per branch of the verdict.

def test_positivity_probe_cubic_example():
    # the certified bound behind the verdict is the record's f_k, and its
    # residual the record's certificate_residual
    rep = driver.minimizers_at_infinity(cubic_unbounded(), 3)
    rec, = rep.records
    assert rep.positive is True and rep.diagnosis == "positive at infinity"
    assert rec.f_k > 0.5
    assert 0.0 <= rec.certificate_residual < 1e-6


def test_positivity_probe_does_not_claim_a_negative_below_its_order():
    # the top-degree part a + b is at least 1 on the feasible directions
    # (order 3 certifies 0.92), yet order 2's bound is negative; an earlier
    # verdict said "not strictly positive"
    rep = driver.minimizers_at_infinity(cubic_unbounded(), 2)
    bound = rep.records[0].f_k
    assert rep.positive is False and bound < 0
    assert rep.diagnosis == (f"positivity not shown at order 2: bound {bound:.3g} "
                             "is not above 1e-06")
    assert "not strictly positive" not in rep.diagnosis


def test_positivity_probe_reports_the_certificate_residual():
    # the JSON report carries the verdict's bound and residual in its record
    rep = driver.minimizers_at_infinity(cubic_unbounded(), 3)
    rec, = rep.to_dict()["records"]
    assert (rec["f_k"], rec["certificate_residual"]) == (
        rep.records[0].f_k, rep.records[0].certificate_residual)
    assert rep.to_dict()["final"]["diagnosis"] == "positive at infinity"


def test_positivity_probe_coercive_but_not_positive():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    rep = driver.minimizers_at_infinity(PopProblem(2, a**4 + b**2), 2)
    assert rep.positive is False
    assert abs(rep.records[0].f_k) < 1e-6
    assert rep.diagnosis.startswith("positivity not shown at order 2: bound ")


def test_positivity_probe_needs_a_certified_bound(monkeypatch):
    # a positive moment value without a dual-feasible certificate proves nothing
    solve = sdp.solve_with_restarts
    statuses = []

    def uncertified(inst, opts):
        sol = solve(inst, opts)
        statuses.append(sol.status.value)
        return replace(sol, primal_obj=0.5, dual_infeas=1.0)

    monkeypatch.setattr(sdp, "solve_with_restarts", uncertified)
    rep = driver.minimizers_at_infinity(cubic_unbounded(), 3)
    assert rep.positive is False and rep.records[0].f_k is None
    assert rep.diagnosis == f"no certified bound ({statuses[0]}); verdict unavailable"


def test_positivity_probe_gives_no_verdict_from_a_capped_value(monkeypatch):
    # a stalled solve's certificate value above its moment value is capped by
    # the moment value, which certifies nothing
    solve = sdp.solve_with_restarts

    def raised_dual(inst, opts):
        sol = solve(inst, opts)
        return replace(sol, status=sdp.SdpStatus.NUMERICAL_TROUBLE,
                       moment_converged=True, dual_obj=sol.primal_obj + 1e-3)

    monkeypatch.setattr(sdp, "solve_with_restarts", raised_dual)
    rep = driver.minimizers_at_infinity(cubic_unbounded(), 3)
    rec, = rep.records
    assert rec.f_k == rec.f_k_prime
    assert rep.positive is False
    assert rep.diagnosis == "no certified bound (numerical_trouble); verdict unavailable"


def test_positivity_probe_empty_directions():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a + b, (a**2 + b**2 + 1,), ())
    rep = driver.minimizers_at_infinity(prob, 2)
    assert rep.positive is True and rep.records[0].f_k is None
    assert rep.diagnosis == "no feasible directions at infinity; positivity holds vacuously"


def test_infinity_report_solves_the_sphere_problem_once(monkeypatch):
    # the directions and the verdict come from the same solve
    solve, calls = sdp.solve_with_restarts, []

    def counted(inst, opts):
        calls.append(inst)
        return solve(inst, opts)

    monkeypatch.setattr(sdp, "solve_with_restarts", counted)
    rep = driver.minimizers_at_infinity(biquadratic_escape(), 3)
    assert len(calls) == 1
    assert len(rep.points) == 4 and rep.positive is False


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


def test_solve_pop_starts_at_k_max_when_it_is_below_the_first_order():
    prob = cubic_unbounded()
    assert driver.default_k_min(prob, relax.HOMOGENIZED) == 2
    rep = driver.solve_pop(prob, driver.DriverOptions(k_max=1))
    assert [(r.k, r.status) for r in rep.records] == [(1, "order_too_small")]
    with pytest.raises(ValueError, match="k_max must be at least k_min"):
        driver.solve_pop(prob, driver.DriverOptions(k_min=2, k_max=1))


def test_infinity_solve_defaults_to_the_first_standard_order():
    prob = cubic_unbounded()
    k = driver.default_k_min(driver.sphere_restriction(prob), relax.STANDARD)
    assert k == 2
    default, explicit = driver.minimizers_at_infinity(prob), driver.minimizers_at_infinity(prob, k)
    assert default.records[0].k == k
    assert default.to_dict() == explicit.to_dict()
    assert default.positive == explicit.positive


def test_infinity_solve_reads_its_order_from_the_options():
    # without k, the last order solve_pop would run: k_max, else k_min
    prob = cubic_unbounded()
    at_3 = driver.minimizers_at_infinity(prob, 3)
    for opts in (driver.DriverOptions(k_max=3), driver.DriverOptions(k_min=3),
                 driver.DriverOptions(k_min=2, k_max=3)):
        rep = driver.minimizers_at_infinity(prob, opts=opts)
        assert rep.records[0].k == 3
        assert rep.to_dict() == at_3.to_dict()
    # an explicit order wins
    rep = driver.minimizers_at_infinity(prob, 2, driver.DriverOptions(k_max=3))
    assert rep.records[0].k == 2
    with pytest.raises(ValueError, match="k_max must be at least 1, got 0"):
        driver.minimizers_at_infinity(prob, opts=driver.DriverOptions(k_max=0))


@pytest.mark.parametrize("k_min, k_max, message", [
    (3, 2, "k_max must be at least k_min"), (0, 3, "k_min must be at least 1, got 0")])
def test_both_entry_points_refuse_bad_order_options(k_min, k_max, message):
    # the options refuse them when built, so neither entry point runs a solve
    prob = cubic_unbounded()
    with pytest.raises(ValueError, match=message):
        driver.solve_pop(prob, driver.DriverOptions(k_min=k_min, k_max=k_max))
    with pytest.raises(ValueError, match=message):
        driver.minimizers_at_infinity(prob, opts=driver.DriverOptions(k_min=k_min, k_max=k_max))
