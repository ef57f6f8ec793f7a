import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from homsos.poly import (Polynomial, PopProblem, basis_index, exponent_array,
                         monomial_basis)
from homsos import cli, driver, relax, sdp

from conftest import (chain_with_product, choi_like_cubic, cubic_unbounded,
                      motzkin_like_cubic, norm_over_hyperbolas,
                      perturbed_robinson_3d, product_quartic,
                      robinson_like_cubic, sextic_on_line,
                      shifted_cubic_corner, unattained_quartic)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

SWAP = ["x1->x2 x2->x1"]
S4 = ["x1->x2 x2->x1", "x1->x3 x3->x1", "x1->x4 x4->x1",
      "x2->x3 x3->x2", "x2->x4 x4->x2", "x3->x4 x4->x3"]
FLIPS = ["x1->-x1", "x2->-x2", "x1->-x1 x2->-x2"]
ANTIPODAL = ["x1->-x1 x2->-x2"]


def sphere_problem(name):
    prob, _, _ = cli.parse_problem((PROBLEMS / name).read_text())
    return driver.sphere_restriction(prob)


def reduced(kind, prob, k):
    rel = relax.assemble(kind, prob, k)
    inst, _ = relax.to_sdp_instance(rel)
    return rel, relax.describe_symmetry(rel, inst)


# (problem, kind, order, generators, orbits, moments, rows before, rows after)
SYMMETRIC = [
    (product_quartic, relax.HOMOGENIZED, 4, S4, 162, 1287, 463, 72),
    (product_quartic, relax.HOMOGENIZED, 3, S4, 71, 462, 127, 27),
    (motzkin_like_cubic, relax.HOMOGENIZED, 3, SWAP, 50, 84, 36, 23),
    (robinson_like_cubic, relax.HOMOGENIZED, 2, SWAP, 22, 35, 11, 8),
    (sextic_on_line, relax.HOMOGENIZED, 3, SWAP, 50, 84, 92, 44),
    (norm_over_hyperbolas, relax.HOMOGENIZED, 2, FLIPS, 14, 35, 11, 6),
    (unattained_quartic, relax.HOMOGENIZED, 2, ANTIPODAL, 19, 35, 11, 7),
    (lambda: sphere_problem("unattained.pop"), relax.STANDARD, 2, FLIPS, 6, 15, 7, 4),
    (lambda: sphere_problem("escape_directions.pop"), relax.STANDARD, 3, ANTIPODAL,
     16, 28, 16, 10),
]


@pytest.mark.parametrize("prob, kind, k, gens, orbits, moments, before, after", SYMMETRIC)
def test_detected_generators_and_orbits(prob, kind, k, gens, orbits, moments,
                                        before, after):
    _, desc = reduced(kind, prob(), k)
    assert desc == {"generators": gens, "orbits": orbits, "moments": moments,
                    "eq_rows_before": before, "eq_rows_after": after}


@pytest.mark.parametrize("prob, kind, k", [
    (cubic_unbounded, relax.HOMOGENIZED, 2),
    (choi_like_cubic, relax.HOMOGENIZED, 2),
    (perturbed_robinson_3d, relax.HOMOGENIZED, 2),
    (shifted_cubic_corner, relax.HOMOGENIZED, 2),
    (chain_with_product, relax.HOMOGENIZED, 2),
    (lambda: driver.sphere_restriction(chain_with_product()), relax.STANDARD, 2),
])
def test_asymmetric_problems_take_the_unreduced_path(prob, kind, k):
    rel, desc = reduced(kind, prob(), k)
    assert rel.symmetry is None and desc is None
    inst, kept = relax.to_sdp_instance(rel)
    plain, plain_kept = relax.to_sdp_instance(
        relax.assemble(kind, prob(), k, _symmetry=False))
    assert inst.dim == rel.tms_dim and kept == plain_kept
    assert np.array_equal(inst.c, plain.c) and np.array_equal(inst.A, plain.A)
    assert np.array_equal(inst.b, plain.b)


def one_ulp_up(prob, mono):
    terms = dict(prob.objective.terms)
    terms[mono] = np.nextafter(float(terms[mono]), math.inf)
    return PopProblem(prob.nvars, Polynomial(prob.nvars, terms),
                      prob.equalities, prob.inequalities)


def test_detection_is_exact():
    # x1^3 x2 is fixed only by the transposition of x3 and x4
    rel = relax.assemble(relax.HOMOGENIZED, one_ulp_up(product_quartic(), (3, 1, 0, 0)), 3)
    assert relax.describe_symmetry(rel, relax.to_sdp_instance(rel)[0])["generators"] \
        == ["x3->x4 x4->x3"]
    rel = relax.assemble(relax.HOMOGENIZED, one_ulp_up(motzkin_like_cubic(), (2, 1)), 3)
    assert rel.symmetry is None
    assert relax.to_sdp_instance(rel)[0].dim == rel.tms_dim


@pytest.mark.parametrize("prob, k", [(product_quartic, 3), (norm_over_hyperbolas, 2),
                                     (unattained_quartic, 2), (sextic_on_line, 3)])
def test_orbit_coordinates_are_invariant(prob, k):
    rel = relax.assemble(relax.HOMOGENIZED, prob(), k)
    sym = rel.symmetry
    pmat = sym.orbit_map.toarray()
    assert set(np.unique(pmat)) <= {-1.0, 0.0, 1.0}
    # one column per orbit, each monomial in at most one
    assert np.all(np.count_nonzero(pmat, axis=1) <= 1)
    assert np.all(np.count_nonzero(pmat, axis=0) >= 1)
    y = pmat @ np.random.default_rng(4).standard_normal(pmat.shape[1])
    idx = basis_index(rel.nvars, 2 * k)
    for g in sym.generators:
        for mono in monomial_basis(rel.nvars, 2 * k):
            sign, image = g.monomial(mono)
            assert y[idx[image]] == sign * y[idx[mono]]
    # the symmetric localizing matrices of an invariant y
    for pen in rel.psd_pencils:
        mat = pen.evaluate(y)
        assert np.allclose(mat, mat.T)



@pytest.mark.parametrize("nv, k", [(5, 4), (3, 3)])
def test_monomial_maps_match_the_loop(nv, k):
    idx = basis_index(nv, 2 * k)
    basis = monomial_basis(nv, 2 * k)
    for g in relax._candidates(nv):
        image, sign = g.monomial_map(exponent_array(nv, 2 * k))
        signs, images = zip(*(g.monomial(m) for m in basis))
        assert image.dtype == np.int64
        assert np.array_equal(image, [idx[m] for m in images])
        assert np.array_equal(sign, np.array(signs, dtype=float))

def test_forced_zero_moments_have_no_column():
    # x -> -x fixes the data of unattained_quartic: every odd moment in
    # (x1, x2) is 0 and gets no column
    rel = relax.assemble(relax.HOMOGENIZED, unattained_quartic(), 2)
    rows = np.flatnonzero(np.asarray(abs(rel.symmetry.orbit_map).sum(axis=1)).ravel())
    basis = monomial_basis(3, 4)
    assert [basis[r] for r in rows] == [m for m in basis if (m[1] + m[2]) % 2 == 0]


def test_relabelled_motzkin_has_the_same_reduction():
    prob = motzkin_like_cubic()

    def swapped(p):
        return Polynomial(2, {(m[1], m[0]): c for m, c in reversed(p.terms.items())})

    relabelled = PopProblem(2, swapped(prob.objective), (),
                            tuple(swapped(q) for q in reversed(prob.inequalities)))
    bounds, orbits = [], []
    for p in (prob, relabelled):
        rep = driver.solve_pop(p, driver.DriverOptions(k_min=3, k_max=3))
        orbits.append(rep.records[0].symmetry["orbits"])
        bounds.append(rep.records[0].f_k_prime)
    assert orbits[0] == orbits[1] == 50
    assert bounds[1] == pytest.approx(bounds[0], abs=1e-7 * (1.0 + abs(bounds[0])))


def solve_both_paths(prob, k):
    out = []
    for symmetric in (True, False):
        rel = relax.assemble(relax.HOMOGENIZED, prob, k, _symmetry=symmetric)
        inst, kept = relax.to_sdp_instance(rel)
        sol = sdp.solve_with_restarts(inst)
        out.append((rel, inst, kept, sol, relax.sos_certificate_from_dual(rel, sol)))
    return out


def dual_residual(c, pencils, grams, rows, multipliers):
    """c - sum of pencil adjoints of the Gram matrices - rows^T multipliers."""
    resid = c - rows.T @ multipliers
    for pen, gram in zip(pencils, grams):
        resid -= pen.coeffs.T @ gram.reshape(-1)
    return resid


@pytest.mark.parametrize("prob, k", [(product_quartic, 3), (norm_over_hyperbolas, 2),
                                     (norm_over_hyperbolas, 3), (robinson_like_cubic, 2)])
def test_reduced_and_full_paths_agree(prob, k):
    (rel, inst, _, sol, cert), (_, inst0, _, sol0, _) = solve_both_paths(prob(), k)
    assert inst.dim < inst0.dim
    assert sol.status is sol0.status is sdp.SdpStatus.OPTIMAL
    bound = sol0.dual_obj
    assert abs(sol.dual_obj - bound) <= 1e-7 * (1.0 + abs(bound))
    assert cert.gamma == pytest.approx(sol.dual_obj, abs=1e-12)
    # averaging leaves at most the residual of the solved instance's own
    # dual equations in the whole identity
    solved = dual_residual(inst.c, inst.pencils, sol.pencil_duals, inst.A, sol.eq_duals)
    assert cert.residual <= np.max(np.abs(solved)) < 5e-8
    grams = [gram for _, _, gram in cert.grams]
    _, averaged = relax.group_average(rel, np.zeros(rel.eq_A.shape[0]), grams)
    for gram, again in zip(grams, averaged):
        assert np.allclose(gram, again, atol=1e-14)
        assert np.linalg.eigvalsh(gram)[0] >= -1e-9
    y = relax.full_solution(rel, sol).y
    assert y.shape == (rel.tms_dim,)
    theta = rel.theta.coefficient_vector(2 * rel.order)
    assert theta @ y == pytest.approx(sol.primal_obj, abs=1e-12)


def test_unaveraged_duals_satisfy_only_orbit_sums():
    # the duals of the kept rows alone, mapped to y, leave a large residual
    (rel, _, kept, sol, cert), _ = solve_both_paths(product_quartic(), 3)
    rows = rel.eq_A.toarray()
    lam = np.zeros(rows.shape[0])
    lam[kept] = sol.eq_duals / np.linalg.norm(rows[kept] @ rel.symmetry.orbit_map, axis=1)
    resid = dual_residual(rel.theta.coefficient_vector(6), rel.psd_pencils,
                          sol.pencil_duals, rows, lam)
    assert np.max(np.abs(resid)) > 1e-2
    assert np.max(np.abs(rel.symmetry.orbit_map.T @ resid)) < 5e-8
    assert cert.residual < 5e-8


def test_equality_fixed_up_to_sign():
    # the swap maps x1^2 - x2^2 to its negative: its multiplier rows are
    # averaged with that sign
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a**4 + b**4 - a * b, (a**2 - b**2,), ())
    (rel, _, _, sol, cert), (_, _, _, sol0, _) = solve_both_paths(prob, 2)
    assert [g.describe(["x0", "x1", "x2"]) for g in rel.symmetry.generators] \
        == ["x1->x2 x2->x1", "x1->-x1 x2->-x2"]
    assert sol.status is sol0.status is sdp.SdpStatus.OPTIMAL
    assert sol.dual_obj == pytest.approx(sol0.dual_obj, abs=1e-7)
    assert cert.residual < 1e-8


def test_averaged_certificate_permutes_inequality_pencils():
    # x1 -> -x1 swaps the inequalities x1^2 -+ 2 x1 x2 - x0^2 of
    # norm_over_hyperbolas, and with them their Gram matrices
    (rel, _, _, _, cert), _ = solve_both_paths(norm_over_hyperbolas(), 2)
    labels = [label for label, _, _ in cert.grams]
    g1, g2 = (cert.grams[labels.index(name)][2] for name in ("ineq1", "ineq2"))
    basis = rel.psd_pencils[labels.index("ineq1")].basis
    flip = rel.symmetry.generators[0]
    signs = np.array([flip.monomial(m)[0] for m in basis])
    assert np.allclose(g2, signs[:, None] * g1 * signs[None, :], atol=1e-14)
    assert np.max(np.abs(g1)) > 1e-3


@pytest.mark.parametrize("seed", range(5))
def test_product_quartic_order4_bound_below_feasible_value(seed):
    # the reduced solve stalls; its certificate value lies 4e-7 above the
    # value of its own moment vector, and neither may pass f at a point
    prob = product_quartic()
    rep = driver.solve_pop(prob, driver.DriverOptions(k_min=4, seed=seed))
    rec = rep.records[0]
    assert rec.symmetry["orbits"] == 162
    assert rec.f_k <= rec.f_k_prime
    assert rep.best_bound <= prob.objective.eval(0.5757 * np.ones(4))


def test_symmetry_in_report():
    rep = driver.solve_pop(robinson_like_cubic(), driver.DriverOptions(k_min=2, k_max=2))
    assert rep.to_dict()["records"][0]["symmetry"] == {
        "generators": SWAP, "orbits": 22, "moments": 35,
        "eq_rows_before": 11, "eq_rows_after": 8}
    rep = driver.solve_pop(cubic_unbounded(), driver.DriverOptions(k_min=2, k_max=2))
    assert rep.to_dict()["records"][0]["symmetry"] is None


def test_symmetry_in_infinity_record():
    out, err = io.StringIO(), io.StringIO()
    code = cli.run([str(PROBLEMS / "escape_directions.pop"), "--infinity", "--order", "3"],
                   out=out, err=err)
    assert code == 0
    rec = json.loads(out.getvalue())["records"][0]
    assert rec["symmetry"]["generators"] == ANTIPODAL
    assert rec["symmetry"]["orbits"] == 16


def dump_files(tmp_path):
    return sorted(p.name for p in tmp_path.iterdir())


def test_dump_sdpa_suffix_only_for_several_orders(tmp_path):
    a = Polynomial.variable(1, 0)
    prob = PopProblem(1, a**4 - a**2)
    driver.solve_pop(prob, driver.DriverOptions(k_min=2, dump_sdpa=str(tmp_path / "a.dat-s")))
    assert dump_files(tmp_path) == ["a.dat-s"]
    driver.solve_pop(unattained_quartic(), driver.DriverOptions(
        k_min=2, k_max=3, dump_sdpa=str(tmp_path / "b.dat-s")))
    assert dump_files(tmp_path) == ["a.dat-s", "b.dat-s.k2", "b.dat-s.k3"]
    driver.minimizers_at_infinity(unattained_quartic(), 2, driver.DriverOptions(
        k_max=2, dump_sdpa=str(tmp_path / "c.dat-s")))
    assert dump_files(tmp_path) == ["a.dat-s", "b.dat-s.k2", "b.dat-s.k3", "c.dat-s"]


def test_dump_sdpa_holds_the_solved_instance(tmp_path):
    path = tmp_path / "pq.dat-s"
    rep = driver.solve_pop(product_quartic(), driver.DriverOptions(
        k_min=3, k_max=3, dump_sdpa=str(path)))
    lines = path.read_text().splitlines()
    # free variables are the orbits; the last block holds the kept rows
    assert int(lines[0]) == rep.records[0].symmetry["orbits"] == 71
    assert lines[2].split()[-1] == str(-2 * rep.records[0].symmetry["eq_rows_after"])
