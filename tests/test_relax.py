import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from homsos.poly import (Polynomial, PopProblem, basis_index, build_homogenized,
                         exponent_array, monomial_basis, monomial_positions)
from homsos import relax, sdp

from conftest import (ALL_PROBLEMS, chain_with_product, cubic_unbounded,
                      norm_over_hyperbolas, product_quartic, robinson_like_cubic,
                      sextic_on_line)


def lift_point(point, nvars, k):
    """Moments of the Dirac measure at a point, up to degree 2k."""
    return np.array([np.prod(np.asarray(point, float) ** np.asarray(m))
                     for m in monomial_basis(nvars, 2 * k)])


def test_build_homogenized_cubic_example():
    base = relax.build_homogenized(cubic_unbounded())
    assert base.nvars == 3
    assert base.objective.terms == {(0, 1, 0): 1.0, (0, 0, 1): 1.0}
    # equalities end with the sphere, inequalities end with x0
    assert base.equalities[-1].terms == {(2, 0, 0): 1.0, (0, 2, 0): 1.0,
                                         (0, 0, 2): 1.0, (0, 0, 0): -1.0}
    assert base.inequalities[0].terms == {(0, 3, 0): 1.0, (2, 0, 1): 1.0,
                                          (3, 0, 0): 1.0}
    assert base.inequalities[1].terms == {(0, 0, 3): 1.0, (2, 1, 0): -1.0,
                                          (3, 0, 0): 1.0}
    assert base.inequalities[-1].terms == {(1, 0, 0): 1.0}


def test_build_homogenized_unconstrained():
    a = Polynomial.variable(1, 0)
    lift = relax.build_homogenized(PopProblem(1, a**2))
    assert len(lift.equalities) == 1
    assert [c.terms for c in lift.inequalities] == [{(1, 0): 1.0}]


def test_build_homogenized_even_variant():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    lift = relax.build_homogenized(PopProblem(2, a**4 + b**2, (), (a**2 - 1,)),
                                   even_variant=True)
    assert len(lift.inequalities) == 1  # no x0 appended
    assert lift.inequalities[0].terms == {(0, 2, 0): 1.0, (2, 0, 0): -1.0}


def test_even_variant_rejects_odd_degrees():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    with pytest.raises(ValueError, match="even"):
        relax.build_homogenized(PopProblem(2, a**3 + b), even_variant=True)
    with pytest.raises(ValueError, match="even"):
        relax.build_homogenized(PopProblem(2, a**2, (), (b,)), even_variant=True)


def test_localizing_pencil_hankel():
    one = Polynomial.constant(1, 1.0)
    pen = relax.localizing_pencil(one, 1)
    assert pen.size == 2
    y = np.array([3.0, 5.0, 7.0])  # (y0, y1, y2)
    assert np.allclose(pen.evaluate(y), [[3.0, 5.0], [5.0, 7.0]])


def test_localizing_pencil_linear_x0():
    x0 = Polynomial.variable(2, 0)
    pen = relax.localizing_pencil(x0, 1)
    assert pen.size == 1
    idx = basis_index(2, 2)
    y = np.zeros(len(idx))
    y[idx[(1, 0)]] = 4.5
    assert pen.evaluate(y)[0, 0] == pytest.approx(4.5)


def test_localizing_pencil_dirac_oracle():
    rng = np.random.default_rng(21)
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    p = 1.0 + a - b**2
    k = 2
    pen = relax.localizing_pencil(p, k)
    t = k - 1
    for _ in range(6):
        u = rng.uniform(-1.5, 1.5, size=2)
        y = lift_point(u, 2, k)
        mono_vec = np.array([np.prod(u ** np.asarray(m)) for m in pen.basis])
        expect = p.eval(u) * np.outer(mono_vec, mono_vec)
        assert np.allclose(pen.evaluate(y), expect, atol=1e-10)
        eigmin = np.linalg.eigvalsh(pen.evaluate(y))[0]
        assert (eigmin >= -1e-10) == (p.eval(u) >= -1e-12)


def test_localizing_pencil_order_too_small():
    a = Polynomial.variable(1, 0)
    with pytest.raises(relax.OrderTooSmallError):
        relax.localizing_pencil(a**4, 1)


def test_assemble_cubic_example_sizes():
    rel = relax.assemble(relax.HOMOGENIZED, cubic_unbounded(), 3)
    assert rel.tms_dim == math.comb(3 + 6, 6) == 84
    moment = rel.psd_pencils[0]
    assert moment.label == "moment"
    assert moment.size == math.comb(3 + 3, 3) == 20
    sizes = {p.label: p.size for p in rel.psd_pencils}
    assert sizes["ineq0"] == sizes["ineq1"] == math.comb(3 + 1, 1) == 4
    assert sizes["ineq2"] == math.comb(3 + 2, 2) == 10  # x0 pencil, t = 2
    # the normalizer row is last, and the only row with a nonzero right-hand side
    assert len(rel.eq_shifts) == rel.eq_A.shape[0] - 1
    assert np.array_equal(rel.eq_A[-1].toarray()[0], rel.nu.coefficient_vector(6))
    b = relax.to_sdp_instance(rel)[0].b
    assert b[-1] > 0 and np.count_nonzero(b) == 1


def test_assemble_order_too_small():
    with pytest.raises(relax.OrderTooSmallError):
        relax.assemble(relax.HOMOGENIZED, cubic_unbounded(), 1)


def test_standard_min_square_analytic():
    a = Polynomial.variable(1, 0)
    rel = relax.assemble(relax.STANDARD, PopProblem(1, a**2), 1)
    inst, kept = relax.to_sdp_instance(rel)
    sol = relax.full_solution(rel, sdp.solve(inst))
    assert sol.status is sdp.SdpStatus.OPTIMAL
    assert sol.primal_obj == pytest.approx(0.0, abs=1e-7)
    assert sol.y.shape == (rel.tms_dim,)
    assert sol.y[0] == pytest.approx(1.0, abs=1e-7)


def test_denominator_power_zero_matches_standard():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a**4 + b**4 - a * b, (), (a,))
    r1 = relax.assemble(relax.DENOMINATOR, prob, 2)
    r2 = relax.assemble(relax.STANDARD, prob, 2)
    assert r1.theta == r2.theta and r1.nu == r2.nu
    assert np.allclose(r1.eq_A.toarray(), r2.eq_A.toarray())
    assert r1.eq_shifts == r2.eq_shifts
    for p1, p2 in zip(r1.psd_pencils, r2.psd_pencils):
        assert (p1.coeffs != p2.coeffs).nnz == 0


def test_denominator_data_in_original_variables():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a**4 + b**4, (), (a,))
    rel = relax.assemble(relax.DENOMINATOR, prob, 3)
    assert rel.nvars == 2
    # theta = (1+|x|^2) * f at m = 1, nu = 1+|x|^2
    den = 1.0 + a**2 + b**2
    assert rel.theta == den * prob.objective
    assert rel.nu == den


def test_power_kind_data():
    prob = cubic_unbounded()
    rel = relax.assemble(relax.power_x0(1), prob, 3)
    assert rel.nu == Polynomial.monomial(3, (3, 0, 0))  # x0^(2*l + deg(f))
    x0sq = Polynomial.monomial(3, (2, 0, 0))
    assert rel.theta == x0sq * prob.objective.homogenize()


def test_feasible_lift_satisfies_relaxation():
    prob = cubic_unbounded()
    rel = relax.assemble(relax.HOMOGENIZED, prob, 3)
    u = np.array([0.5, 2.0])
    assert prob.feasibility_violation(u) == 0.0
    lift = np.concatenate(([1.0], u)) / math.sqrt(1.0 + float(u @ u))
    y = lift_point(lift, 3, 3)
    # all data rows vanish, every pencil is psd
    assert np.max(np.abs(rel.eq_A[:-1] @ y)) < 1e-12
    for pen in rel.psd_pencils:
        assert np.linalg.eigvalsh(pen.evaluate(y))[0] >= -1e-12
    # rescaling by the normalizer keeps psd-ness and pins <nu, y> = 1
    scale = rel.nu.coefficient_vector(6) @ y
    assert scale > 0
    y2 = y / scale
    assert rel.nu.coefficient_vector(6) @ y2 == pytest.approx(1.0)
    # hence the moment value at y2 is an upper bound proxy: <theta, y2> = f(u)
    assert rel.theta.coefficient_vector(6) @ y2 == pytest.approx(
        prob.objective.eval(u), rel=1e-10)


def test_to_sdp_instance_full_rank_and_scaling():
    rel = relax.assemble(relax.HOMOGENIZED, cubic_unbounded(), 2)
    inst, kept = relax.to_sdp_instance(rel)
    assert inst.A.shape[0] == len(kept) <= rel.eq_A.shape[0]
    sv = np.linalg.svd(inst.A, compute_uv=False)
    assert sv[-1] > 1e-8
    assert np.allclose(np.linalg.norm(inst.A, axis=1), 1.0)
    assert kept[-1] == rel.eq_A.shape[0] - 1  # normalizer kept last


@pytest.mark.parametrize("symmetric", [True, False])
def test_infeasible_normalizer_detected(symmetric):
    # x1^2 + x2^2 + 1 = 0 forces the empty set; the sphere rows plus the
    # constraint rows make <1, y> = 1 inconsistent
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PopProblem(2, a + b, (a**2 + b**2 + 1,), ())
    rel = relax.assemble(relax.HOMOGENIZED, prob, 2, _symmetry=symmetric)
    assert (rel.symmetry is not None) == symmetric
    with pytest.raises(relax.InfeasibleRelaxationError, match="span of the equality rows"):
        relax.to_sdp_instance(rel)


@pytest.mark.parametrize("symmetric", [True, False])
def test_to_sdp_instance_factors_the_rows_once(monkeypatch, symmetric):
    """One pivoted QR keeps the independent rows and tests the normalizer
    against their span; no least-squares solve follows it."""
    rel = relax.assemble(relax.HOMOGENIZED, product_quartic(), 3, _symmetry=symmetric)
    assert (rel.symmetry is not None) == symmetric
    calls = []

    def counted(module, name):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(scipy.linalg, "qr")
    counted(np.linalg, "lstsq")
    inst, kept = relax.to_sdp_instance(rel)
    assert calls == ["qr"]
    assert len(kept) == inst.A.shape[0]


def test_certificate_min_square():
    a = Polynomial.variable(1, 0)
    rel = relax.assemble(relax.STANDARD, PopProblem(1, a**2), 1)
    inst, _ = relax.to_sdp_instance(rel)
    sol = sdp.solve(inst)
    cert = relax.sos_certificate_from_dual(rel, sol)
    assert cert.gamma == pytest.approx(0.0, abs=1e-7)
    assert cert.residual < 1e-8
    label, basis, gram = cert.grams[0]
    assert label == "moment"
    assert np.allclose(gram, [[0.0, 0.0], [0.0, 1.0]], atol=1e-6)


def test_certificate_residual_random_instances():
    rng = np.random.default_rng(17)
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    ball = 1.0 - a**2 - b**2
    monos = monomial_basis(2, 2)
    for trial in range(10):
        coefs = rng.uniform(-1, 1, size=len(monos))
        f = Polynomial(2, dict(zip(monos, coefs)))
        rel = relax.assemble(relax.STANDARD, PopProblem(2, f, (), (ball,)), 2)
        inst, _ = relax.to_sdp_instance(rel)
        sol = sdp.solve(inst)
        assert sol.status is sdp.SdpStatus.OPTIMAL
        cert = relax.sos_certificate_from_dual(rel, sol)
        assert cert.residual < 1e-6
        assert cert.gamma == pytest.approx(sol.dual_obj, abs=1e-6)


def quadratic_multipliers(rel, sol):
    """Multipliers and residual of ``sos_certificate_from_dual`` by its
    former loop, which added one monomial at a time to each multiplier."""
    _, kept = relax.to_sdp_instance(rel)
    rows = rel.eq_A.toarray()
    norms = np.linalg.norm(rows, axis=1)
    resid = rel.theta.coefficient_vector(2 * rel.order)
    for pen, gram in zip(rel.psd_pencils, sol.pencil_duals):
        resid -= pen.coeffs.T @ gram.reshape(-1)
    multipliers = {}
    for dual, row_id in zip(sol.eq_duals, kept):
        coef = dual / norms[row_id]
        resid -= coef * rows[row_id]
        if row_id < len(rel.eq_shifts):
            i, g = rel.eq_shifts[row_id]
            phi = multipliers.get(i, Polynomial.zero(rel.nvars))
            multipliers[i] = phi + Polynomial.monomial(rel.nvars, g, coef)
    return multipliers, float(np.max(np.abs(resid)))


@pytest.mark.parametrize("prob, k", [(sextic_on_line, 3), (product_quartic, 3)])
def test_certificate_multipliers_match_former_loop(prob, k):
    # the former loop read the duals of the unreduced instance
    rel = relax.assemble(relax.HOMOGENIZED, prob(), k, _symmetry=False)
    inst, _ = relax.to_sdp_instance(rel)
    sol = sdp.solve(inst)
    cert = relax.sos_certificate_from_dual(rel, sol)
    multipliers, residual = quadratic_multipliers(rel, sol)
    assert cert.residual == residual
    assert list(cert.multipliers) == list(multipliers)
    for i, phi in multipliers.items():
        assert list(cert.multipliers[i].terms.items()) == list(phi.terms.items())
    assert sum(len(phi.terms) for phi in multipliers.values()) > 10


def test_monotone_bounds_small_example():
    prob = cubic_unbounded()
    vals = []
    for k in (3, 4):
        inst, _ = relax.to_sdp_instance(relax.assemble(relax.HOMOGENIZED, prob, k))
        sol = sdp.solve_with_restarts(inst)
        assert sol.status is sdp.SdpStatus.OPTIMAL
        vals.append(sol.primal_obj)
    assert vals[1] >= vals[0] - 1e-6


def test_certificate_gamma_cubic_example():
    prob = cubic_unbounded()
    rel = relax.assemble(relax.HOMOGENIZED, prob, 3)
    inst, _ = relax.to_sdp_instance(rel)
    sol = sdp.solve_with_restarts(inst)
    assert sol.status is sdp.SdpStatus.OPTIMAL
    cert = relax.sos_certificate_from_dual(rel, sol)
    assert cert.gamma == pytest.approx(-1.0 - 2.0 * math.sqrt(3.0) / 9.0,
                                       abs=1e-4)
    assert cert.residual < 1e-5
    for _label, _basis, gram in cert.grams:
        assert np.linalg.eigvalsh(gram)[0] >= -1e-7


@pytest.mark.parametrize("kind, has_x0, even, extracts", [
    (relax.HOMOGENIZED, True, False, True),
    (relax.HOMOGENIZED_EVEN, True, True, True),
    (relax.power_x0(2), True, False, True),
    (relax.DENOMINATOR, False, False, False),
    (relax.STANDARD, False, False, True),
])
def test_kind_capabilities(kind, has_x0, even, extracts):
    assert (kind.has_x0, kind.even, kind.extracts) == (has_x0, even, extracts)


@pytest.mark.parametrize("k", [2, 3])
def test_power_zero_assembles_homogenized(k):
    prob = cubic_unbounded()
    r0 = relax.assemble(relax.power_x0(0), prob, k)
    rh = relax.assemble(relax.HOMOGENIZED, prob, k)
    assert r0.theta == rh.theta and r0.nu == rh.nu
    assert np.array_equal(r0.eq_A.toarray(), rh.eq_A.toarray())
    assert r0.nu.degree() == rh.nu.degree() == 1
    assert len(r0.psd_pencils) == len(rh.psd_pencils)
    for p0, ph in zip(r0.psd_pencils, rh.psd_pencils):
        assert p0.basis == ph.basis
        assert (p0.coeffs != ph.coeffs).nnz == 0


@pytest.mark.parametrize("k", [2, 3])
def test_standard_kind_assembles_f_and_one(k):
    # the standard kind is the denominator form with m = 0: theta = f, nu = 1
    prob = cubic_unbounded()
    rel = relax.assemble(relax.STANDARD, prob, k)
    assert rel.theta == prob.objective
    assert rel.nu == Polynomial.constant(prob.nvars, 1)


def quartic_on_two_lines():
    """unattained_quartic on the lines b = 1 and b = -1: even data, so
    every kind applies."""
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return PopProblem(2, a**4 + (a * b - 1)**2, (b**2 - 1,), ())


@pytest.mark.parametrize("kind", [relax.HOMOGENIZED, relax.HOMOGENIZED_EVEN,
                                  relax.power_x0(1), relax.DENOMINATOR, relax.STANDARD])
def test_relaxation_holds_exact_theta_and_nu(kind):
    prob, k = quartic_on_two_lines(), 3
    f, (h,) = prob.objective, prob.equalities
    if kind.has_x0:
        x0, x1, x2 = (Polynomial.variable(3, i) for i in range(3))
        theta, nu = x0 ** (2 * kind.power) * f.homogenize(), x0 ** (2 * kind.power + 4)
        eqs = [h.homogenize(), x0**2 + x1**2 + x2**2 - 1]
    else:
        m = 1 if kind.denominator else 0   # k - ceil(deg(f) / 2)
        den = (1 + Polynomial.variable(2, 0)**2 + Polynomial.variable(2, 1)**2) ** m
        theta, nu, eqs = den * f, den, [h]
    rel = relax.assemble(kind, prob, k)
    assert rel.theta == theta and rel.nu == nu
    assert (rel.nvars, rel.tms_dim) == (theta.nvars, math.comb(theta.nvars + 6, 6))
    assert rel.eq_shifts == [(i, g) for i, p in enumerate(eqs)
                             for g in monomial_basis(rel.nvars, 6 - p.degree())]
    assert np.array_equal(rel.eq_A[-1].toarray()[0], rel.nu.coefficient_vector(6))
    b = relax.to_sdp_instance(rel)[0].b
    assert np.all(b[:-1] == 0.0) and b[-1] > 0.0


def test_to_sdp_instance_passes_pencils_through():
    rel = relax.assemble(relax.HOMOGENIZED, cubic_unbounded(), 2)
    inst, _ = relax.to_sdp_instance(rel)
    assert all(p is q for p, q in zip(inst.pencils, rel.psd_pencils))
    assert len(inst.pencils) == len(rel.psd_pencils)


def test_dense_bytes_of_a_ten_variable_quartic_at_order_4():
    """From the sizes alone: nothing is assembled."""
    n = 10
    x = [Polynomial.variable(n, i) for i in range(n)]
    f = x[0] ** 4
    for xi in x[1:]:
        f = f + xi ** 4 - xi
    _, _, eqs, ineqs, nv = relax._relaxed_space(relax.HOMOGENIZED, PopProblem(n, f), 4)
    # x0..x10 with the sphere equation (degree 2) and x0 >= 0 (degree 1)
    assert nv == 11 and [p.degree() for p in eqs] == [2] and [q.degree() for q in ineqs] == [1]
    m = math.comb(19, 8)                   # 75,582 moments of degree <= 8
    mz = m - (math.comb(17, 6) + 1)        # 12,376 sphere rows and the normalizer
    sizes = [math.comb(15, 4), math.comb(14, 3)]          # 1,365 and 364
    assert relax._dense_bytes(nv, 4, eqs, ineqs) == 8 * (
        m * mz + mz * sum(s * s for s in sizes) + (mz + 1) * sizes[0] ** 2 + mz * mz)
    # the null-space basis and the Schur matrix alone
    assert 8 * m * mz >= 30e9 and 8 * mz * mz >= 30e9


def test_assemble_refuses_what_memory_cannot_hold(monkeypatch):
    monkeypatch.setattr(sdp, "physical_memory", lambda: 1 << 20)
    with pytest.raises(sdp.ResourceError) as exc:
        relax.assemble(relax.HOMOGENIZED, product_quartic(), 4)
    assert exc.value.limit == 1 << 20 < exc.value.needed
    assert relax.assemble(relax.HOMOGENIZED, product_quartic(), 2).order == 2


def test_guard_sizes_a_symmetric_relaxation_by_its_orbits(monkeypatch):
    prob = product_quartic()
    _, _, eqs, ineqs, nv = relax._relaxed_space(relax.HOMOGENIZED, prob, 4)
    full = relax._dense_bytes(nv, 4, eqs, ineqs)
    # 1,287 moments in 162 live orbits: at most 162 free moments, not 824
    reduced = relax._dense_bytes(nv, 4, eqs, ineqs, 162)
    assert reduced == sdp.dense_bytes(162, 0, [126, 56]) < full / 4
    monkeypatch.setattr(sdp, "physical_memory", lambda: (reduced + full) // 2)
    assert relax.assemble(relax.HOMOGENIZED, prob, 4).symmetry is not None
    with pytest.raises(sdp.ResourceError) as exc:
        relax.assemble(relax.HOMOGENIZED, prob, 4, _symmetry=False)
    assert exc.value.needed == full
    monkeypatch.setattr(sdp, "physical_memory", lambda: reduced - 1)
    with pytest.raises(sdp.ResourceError) as exc:
        relax.assemble(relax.HOMOGENIZED, prob, 4)
    assert exc.value.needed == reduced


def test_guard_keeps_the_unreduced_estimate_without_symmetry(monkeypatch):
    prob = chain_with_product()
    _, _, eqs, ineqs, nv = relax._relaxed_space(relax.HOMOGENIZED, prob, 3)
    monkeypatch.setattr(sdp, "physical_memory", lambda: 1 << 20)
    with pytest.raises(sdp.ResourceError) as exc:
        relax.assemble(relax.HOMOGENIZED, prob, 3)
    assert exc.value.needed == relax._dense_bytes(nv, 3, eqs, ineqs)


def loop_localizing_coeffs(p, k):
    """The coefficients of ``localizing_pencil(p, k)`` as the former triple
    loop over rows, columns and terms built them."""
    rows_basis = monomial_basis(p.nvars, k - math.ceil(p.degree() / 2))
    idx = basis_index(p.nvars, 2 * k)
    s = len(rows_basis)
    data, ri, ci = [], [], []
    for i, a in enumerate(rows_basis):
        for j, b in enumerate(rows_basis):
            ab = tuple(x + y for x, y in zip(a, b))
            for g, c in p.terms.items():
                ri.append(i * s + j)
                ci.append(idx[tuple(x + y for x, y in zip(ab, g))])
                data.append(float(c))
    return scipy.sparse.csr_matrix((data, (ri, ci)), shape=(s * s, len(idx)))


@pytest.mark.parametrize("prob", ALL_PROBLEMS)
def test_localizing_pencil_matches_the_loop(prob):
    problem = prob()
    lift = build_homogenized(problem)
    for p in (Polynomial.constant(lift.nvars, 1.0), lift.objective, *lift.equalities,
              *lift.inequalities, problem.objective, *problem.inequalities):
        for k in (math.ceil(p.degree() / 2), math.ceil(p.degree() / 2) + 1):
            got, want = relax.localizing_pencil(p, k).coeffs, loop_localizing_coeffs(p, k)
            assert got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("prob", ALL_PROBLEMS)
def test_equality_rows_match_the_loop(prob):
    for kind in (relax.HOMOGENIZED, relax.STANDARD):
        rel = relax.assemble(kind, prob(), 3)
        eqs = relax._relaxed_space(kind, prob(), 3)[2]
        idx = basis_index(rel.nvars, 6)
        rows = []
        for p in eqs:
            for g in monomial_basis(rel.nvars, 6 - p.degree()) if not p.is_zero else ():
                row = np.zeros(len(idx))
                for mono, c in p.terms.items():
                    row[idx[tuple(a + b for a, b in zip(mono, g))]] += c
                rows.append(row)
        rows.append(relax._relaxed_space(kind, prob(), 3)[1].coefficient_vector(6))
        assert np.array_equal(rel.eq_A.toarray(), np.array(rows))
        assert rel.eq_A.has_sorted_indices


KINDS = [relax.HOMOGENIZED, relax.HOMOGENIZED_EVEN, relax.DENOMINATOR, relax.STANDARD,
         relax.power_x0(1)]


def assembled(kind, prob, k, **kwargs):
    """``relax.assemble``, or None where the kind or order does not apply."""
    try:
        return relax.assemble(kind, prob, k, **kwargs)
    except ValueError:  # odd degrees for the even kind, or OrderTooSmallError
        return None


def dense_equality_rows(kind, prob, k):
    """The rows of ``eq_A`` as the former dense construction wrote them:
    each equality's shifted terms assigned into a zero (rows, m) array."""
    _, nu, eqs, _, _ = relax._relaxed_space(kind, prob, k)
    rel = relax.assemble(kind, prob, k, _symmetry=False)
    nv, two_k = rel.nvars, 2 * k
    shifts = [monomial_basis(nv, two_k - p.degree()) if not p.is_zero else ()
              for p in eqs]
    eq_A = np.zeros((sum(map(len, shifts)) + 1, rel.tms_dim))
    top = 0
    for p, gs in zip(eqs, shifts):
        if not gs:
            continue
        terms = np.array(list(p.terms), dtype=np.int64)
        cols = monomial_positions(exponent_array(nv, two_k - p.degree())[:, None] + terms)
        eq_A[top + np.arange(len(gs))[:, None], cols] = list(p.terms.values())
        top += len(gs)
    eq_A[-1] = nu.coefficient_vector(two_k)
    return eq_A


@pytest.mark.parametrize("prob", ALL_PROBLEMS)
def test_sparse_equality_rows_match_the_dense_construction(prob):
    for kind, k in itertools.product(KINDS, (2, 3, 4)):
        rel = assembled(kind, prob(), k)
        if rel is None:
            continue
        assert rel.eq_A.format == "csr"
        assert rel.eq_A.has_sorted_indices and np.all(rel.eq_A.data != 0.0)
        assert np.array_equal(rel.eq_A.toarray(), dense_equality_rows(kind, prob(), k))


def dense_solved_rows(rel, eq_A):
    """The former ``_solved_rows`` of the dense rows ``eq_A``."""
    if rel.symmetry is None:
        return eq_A
    return np.asarray((rel.symmetry.orbit_map.T @ eq_A.T).T)


def dense_sdp_instance(rel, row_tol=1e-10):
    """``to_sdp_instance`` as it was with dense rows: c, A, b, the pencil
    coefficients and the kept rows."""
    sym, eq_A = rel.symmetry, rel.eq_A.toarray()
    theta = rel.theta.coefficient_vector(2 * rel.order)
    rows = dense_solved_rows(rel, eq_A)
    eq_b = np.zeros(rows.shape[0])
    eq_b[-1] = 1.0
    norms = np.linalg.norm(rows, axis=1)
    if sym is None:
        ids = np.arange(rows.shape[0])
        c, coeffs = theta, [pen.coeffs for pen in rel.psd_pencils]
    else:
        full = np.linalg.norm(eq_A[:-1], axis=1)
        ids = np.append(np.flatnonzero(norms[:-1] > row_tol * full), rows.shape[0] - 1)
        c = sym.orbit_map.T @ theta
        coeffs = [(pen.coeffs @ sym.orbit_map).tocsr() for pen in rel.psd_pencils]
    scaled = rows[ids] / norms[ids, None]
    kept, _ = relax._independent_rows(scaled[:-1], row_tol)
    kept_all = [int(i) for i in ids[kept]] + [rows.shape[0] - 1]
    return (c, scaled[kept + [ids.size - 1]], eq_b[kept_all] / norms[kept_all],
            coeffs, kept_all)


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def swap_symmetric_equality():
    """A problem fixed by x1 <-> x2 whose equality has irrational-looking
    coefficients: its rows' squared norms are rounded, so how they are
    summed shows in the scaled rows."""
    rng = np.random.default_rng(3)
    terms = {}
    for i in range(5):
        for j in range(i, 5 - i):
            terms[(i, j)] = terms[(j, i)] = float(rng.uniform(0.1, 1.0))
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return PopProblem(2, a**4 + b**4 + a * b, (Polynomial(2, terms),), ())


@pytest.mark.parametrize("prob", ALL_PROBLEMS + [swap_symmetric_equality])
def test_to_sdp_instance_matches_the_dense_rows(prob):
    # values, dtype and memory layout: the IPM's arithmetic depends on all three
    for kind, k, symmetric in itertools.product(
            (relax.HOMOGENIZED, relax.STANDARD), (2, 3), (True, False)):
        rel = assembled(kind, prob(), k, _symmetry=symmetric)
        if rel is None:
            continue
        inst, kept = relax.to_sdp_instance(rel)
        c, A, b, coeffs, kept_want = dense_sdp_instance(rel)
        assert kept == kept_want
        for got, want in ((inst.c, c), (inst.A, A), (inst.b, b)):
            assert_same_array(got, want)
        for pen, want in zip(inst.pencils, coeffs, strict=True):
            for name in ("indptr", "indices", "data"):
                assert_same_array(getattr(pen.coeffs, name), getattr(want, name))


def dense_certificate(rel, sol):
    """Residual, gamma and multipliers of ``sos_certificate_from_dual`` by
    its former loop, which subtracted each multiplier's dense row."""
    eq_A = rel.eq_A.toarray()
    _, kept = relax.to_sdp_instance(rel)
    norms = np.linalg.norm(dense_solved_rows(rel, eq_A), axis=1)
    lam = np.zeros(eq_A.shape[0])
    lam[kept] = sol.eq_duals / norms[kept]
    grams = sol.pencil_duals
    if rel.symmetry is not None:
        lam, grams = relax.group_average(rel, lam, grams)
    resid = rel.theta.coefficient_vector(2 * rel.order)
    for pen, gram in zip(rel.psd_pencils, grams):
        resid -= pen.coeffs.T @ gram.reshape(-1)
    gamma, shifts = 0.0, {}
    for row_id in np.flatnonzero(lam):
        coef = lam[row_id]
        resid -= coef * eq_A[row_id]
        if row_id == len(rel.eq_shifts):
            gamma = coef
        else:
            i, g = rel.eq_shifts[row_id]
            terms = shifts.setdefault(i, {})
            terms[g] = terms.get(g, 0.0) + coef
    return float(np.max(np.abs(resid))), gamma, shifts


@pytest.mark.parametrize("prob, k", [(cubic_unbounded, 3), (product_quartic, 3),
                                     (norm_over_hyperbolas, 2)])
def test_certificate_residual_matches_the_dense_rows(prob, k):
    rel = relax.assemble(relax.HOMOGENIZED, prob(), k)
    inst, _ = relax.to_sdp_instance(rel)
    sol = sdp.solve(inst)
    cert = relax.sos_certificate_from_dual(rel, sol)
    residual, gamma, shifts = dense_certificate(rel, sol)
    assert cert.residual == residual and cert.gamma == gamma
    assert {i: phi.terms for i, phi in cert.multipliers.items()} == \
        {i: Polynomial(rel.nvars, terms).terms for i, terms in shifts.items()}


def test_sparse_rows_keep_assembly_below_the_dense_rows():
    """product_quartic at order 5: its dense rows alone took 29.5 MiB, and
    assembly with preprocessing peaked at 65 MiB."""
    tracemalloc.start()
    try:
        rel = relax.assemble(relax.HOMOGENIZED, product_quartic(), 5)
        relax.to_sdp_instance(rel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * rel.eq_A.shape[0] * rel.tms_dim


def test_assembly_leaves_the_certificate_orbits_to_the_certificate():
    """product_quartic at order 4: assembly that also built the orbits of
    every Gram entry and every equality row peaked at about 5 MiB."""
    tracemalloc.start()
    try:
        rel = relax.assemble(relax.HOMOGENIZED, product_quartic(), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rel.symmetry is not None
    assert peak < 3.5 * 2**20


@pytest.mark.parametrize("prob", [product_quartic, sextic_on_line])
@pytest.mark.parametrize("kind", [relax.HOMOGENIZED, relax.DENOMINATOR])
def test_an_objective_scaled_by_a_power_of_two_assembles_scaled(prob, kind):
    # every coefficient of magnitude at most 1e-14 was dropped, so the
    # scaled objective vanished
    problem = prob()
    scaled = PopProblem(problem.nvars, problem.objective * 2.0**-60,
                        problem.equalities, problem.inequalities)
    rel, rel_s = relax.assemble(kind, problem, 3), relax.assemble(kind, scaled, 3)
    theta, theta_s = rel.theta.coefficient_vector(6), rel_s.theta.coefficient_vector(6)
    assert np.any(theta)
    assert np.array_equal(theta_s, theta * 2.0**-60)
    assert (rel.symmetry is None) == (rel_s.symmetry is None)
    inst, inst_s = relax.to_sdp_instance(rel)[0], relax.to_sdp_instance(rel_s)[0]
    assert np.array_equal(inst_s.c, inst.c * 2.0**-60)
