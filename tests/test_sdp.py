import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from homsos import sdp
from homsos.poly import Polynomial, PopProblem
from homsos import relax

from conftest import (chain_with_product, cubic_unbounded, norm_over_hyperbolas,
                      product_quartic, unattained_quartic)


def dense_pencil(label, mats, const=None):
    """Pencil from a list of per-variable symmetric matrices."""
    s = mats[0].shape[0]
    coeffs = np.stack([m.reshape(-1) for m in mats], axis=1)
    return sdp.SdpPencil(label=label, size=s, coeffs=coeffs, const=const)


def test_moment_of_min_square():
    # minimize y2 s.t. [[1, y1], [y1, y2]] psd with y0 = 1
    mats = [np.zeros((2, 2)) for _ in range(3)]
    mats[0][0, 0] = 1.0
    mats[1][0, 1] = mats[1][1, 0] = 1.0
    mats[2][1, 1] = 1.0
    inst = sdp.SdpInstance(c=np.array([0.0, 0.0, 1.0]),
                           A=np.array([[1.0, 0.0, 0.0]]), b=np.array([1.0]),
                           pencils=[dense_pencil("m", mats)])
    sol = sdp.solve(inst)
    assert sol.status is sdp.SdpStatus.OPTIMAL
    assert sol.primal_obj == pytest.approx(0.0, abs=1e-7)
    assert sol.dual_obj == pytest.approx(0.0, abs=1e-7)


def test_eigenvalue_bound_instance():
    # min y s.t. [[y, 1], [1, y]] psd  ->  y* = 1
    const = np.array([[0.0, 1.0], [1.0, 0.0]])
    inst = sdp.SdpInstance(c=np.array([1.0]), A=np.zeros((0, 1)),
                           b=np.zeros(0),
                           pencils=[dense_pencil("e", [np.eye(2)], const)])
    sol = sdp.solve(inst)
    assert sol.status is sdp.SdpStatus.OPTIMAL
    assert sol.y[0] == pytest.approx(1.0, abs=1e-7)


def random_strictly_feasible(rng, m=4, s=3, box=4.0):
    """Random bounded instance with a strictly feasible point at the origin."""
    mats = [np.zeros((s, s)) for _ in range(m)]
    for mat in mats:
        sym = rng.uniform(-1, 1, size=(s, s))
        mat += 0.5 * (sym + sym.T)
    q = rng.uniform(-1, 1, size=(s, s))
    const = q @ q.T + np.eye(s)
    pencils = [dense_pencil("main", mats, const)]
    # 2x2 blocks enforcing |y_i| <= box keep the optimum finite
    for i in range(m):
        coeffs = [np.array([[0.0, 1.0], [1.0, 0.0]]) if j == i
                  else np.zeros((2, 2)) for j in range(m)]
        pencils.append(dense_pencil(f"box{i}", coeffs, box * np.eye(2)))
    c = rng.uniform(-1, 1, size=m)
    return sdp.SdpInstance(c=c, A=np.zeros((0, m)), b=np.zeros(0),
                           pencils=pencils)


def subgradient_upper_value(inst, rho=60.0, iters=6000, step=2.0):
    """Exact-penalty subgradient descent; any iterate value upper-bounds the
    optimum, and the best iterate converges to it (independent oracle)."""
    m = inst.dim

    def value_and_subgradient(y):
        val = float(inst.c @ y)
        grad = inst.c.copy()
        for pen in inst.pencils:
            mat = 0.5 * (pen.evaluate(y) + pen.evaluate(y).T)
            w, v = scipy.linalg.eigh(mat)
            if w[0] < 0.0:
                val += -rho * w[0]
                vec = v[:, 0]
                contrib = np.array([
                    float(vec @ pen.coeffs[:, i].reshape(pen.size, pen.size) @ vec)
                    for i in range(m)])
                grad -= rho * contrib
        return val, grad

    y = np.zeros(m)
    best, best_y = np.inf, y.copy()
    for t in range(iters):
        val, grad = value_and_subgradient(y)
        if val < best:
            best, best_y = val, y.copy()
        if t % 1000 == 999:
            y = best_y.copy()  # restart from the incumbent to curb zigzag
            continue
        y = y - step / np.sqrt(t + 1.0) * grad / max(np.linalg.norm(grad), 1e-12)
    return best


def kkt_residuals(inst, sol):
    grad = inst.c.copy()
    comp = 0.0
    values = [sdp._sym(pen.evaluate(sol.y)) for pen in inst.pencils]
    for pen, dual, val in zip(inst.pencils, sol.pencil_duals, values):
        grad -= np.asarray(pen.coeffs.T @ dual.reshape(-1)).reshape(-1)
        comp = max(comp, abs(float(np.tensordot(val, dual))))
    if inst.A.shape[0]:
        grad -= inst.A.T @ sol.eq_duals
    feas = max((-scipy.linalg.eigvalsh(v)[0] for v in values), default=0.0)
    return float(np.linalg.norm(grad)), comp, feas


def test_random_instances_against_subgradient_oracle():
    rng = np.random.default_rng(42)
    for trial in range(30):
        inst = random_strictly_feasible(rng)
        sol = sdp.solve(inst)
        assert sol.status is sdp.SdpStatus.OPTIMAL, sol.message
        assert sol.gap < 1e-8
        scale = 1.0 + abs(sol.primal_obj)
        stat, comp, feas = kkt_residuals(inst, sol)
        assert stat < 1e-7 * scale
        assert comp < 1e-6 * scale
        assert feas < 1e-7 * scale
        upper = subgradient_upper_value(inst)
        assert sol.primal_obj <= upper + 1e-6 * scale
        assert upper - sol.primal_obj <= 0.1 * scale


def test_weak_duality_along_iterates():
    rng = np.random.default_rng(1)
    inst = random_strictly_feasible(rng)
    sol = sdp.solve(inst)
    for rec in sol.history:
        assert rec["mom_obj"] >= rec["cert_obj"] - 1e-6 * (
            1.0 + abs(rec["mom_obj"]) + abs(rec["cert_obj"]))


def test_restarts_match_single_solve_when_clean():
    rng = np.random.default_rng(2)
    inst = random_strictly_feasible(rng)
    a = sdp.solve(inst)
    b = sdp.solve_with_restarts(inst)
    assert a.status is b.status is sdp.SdpStatus.OPTIMAL
    assert np.allclose(a.y, b.y, atol=1e-12)
    assert a.iterations == b.iterations


def test_determinism_fixed_seed():
    rng = np.random.default_rng(3)
    inst = random_strictly_feasible(rng)
    opts = sdp.SolveOptions(seed=7)
    a = sdp.solve_with_restarts(inst, opts)
    b = sdp.solve_with_restarts(inst, opts)
    assert np.allclose(a.y, b.y, atol=1e-12)
    assert a.primal_obj == b.primal_obj


def rank_deficient_instance():
    mats = [np.eye(2), np.diag([1.0, -1.0])]
    return sdp.SdpInstance(c=np.array([1.0, 0.0]),
                           A=np.array([[1.0, 1.0], [2.0, 2.0]]),
                           b=np.array([1.0, 2.0]),
                           pencils=[dense_pencil("m", mats)])


def test_rank_deficient_equalities_rejected():
    with pytest.raises(ValueError, match="rank deficient"):
        sdp.solve(rank_deficient_instance())


@pytest.mark.parametrize("b", [(1, 1), (1, 2)])
def test_more_equality_rows_than_moments_are_rejected(b):
    # A has one singular value for its two rows; the rank test read it alone,
    # and these ended "objective constant on the fiber" and "lstsq misses b"
    with pytest.raises(ValueError, match="rank deficient"):
        sdp.solve(exit_instance([1], [[[1]]], [[0]], A=[[1], [1]], b=b))


# Where _reduce returns the heap, each of its three exits: a reduction, a
# shortcut outcome and a refused A.
@pytest.mark.parametrize("make, outcome", [
    (lambda: random_strictly_feasible(np.random.default_rng(2)), sdp._Reduced),
    (lambda: ill_conditioned_equalities(), sdp.SdpSolution),
    (rank_deficient_instance, ValueError)],
    ids=["reduction", "shortcut", "raise"])
def test_reduce_trims_the_heap_when_it_starts_and_ends(monkeypatch, make, outcome):
    inst, events = make(), []
    body = sdp._eliminate_and_compress

    def logged_body(inst):
        events.append("reduce")
        return body(inst)

    monkeypatch.setattr(sdp, "_trim_heap", lambda: events.append("trim"))
    monkeypatch.setattr(sdp, "_eliminate_and_compress", logged_body)
    try:
        result = sdp._reduce(inst)
    except ValueError as exc:
        result = exc
    assert isinstance(result, outcome)
    assert events == ["trim", "reduce", "trim"]


def no_c_library(name):
    raise TypeError("expected str, bytes or os.PathLike object, not NoneType")


# a C library without malloc_trim (macOS, musl), and none to open (Windows)
@pytest.mark.parametrize("cdll", [lambda name: object(), no_c_library],
                         ids=["no_malloc_trim", "no_c_library"])
def test_trim_heap_is_a_no_op_without_malloc_trim(monkeypatch, cdll):
    monkeypatch.setattr(sdp.ctypes, "CDLL", cdll)
    sdp._malloc_trim.cache_clear()
    try:
        assert sdp._malloc_trim() is None
        sdp._trim_heap()
    finally:
        monkeypatch.undo()
        sdp._malloc_trim.cache_clear()


def test_solves_restore_blas_threads(blas_threads):
    before = blas_threads()
    inst = random_strictly_feasible(np.random.default_rng(2))
    sdp.solve(inst)
    assert blas_threads() == before
    sdp.solve_with_restarts(inst)
    assert blas_threads() == before
    for solve in (sdp.solve, sdp.solve_with_restarts):
        with pytest.raises(ValueError, match="rank deficient"):
            solve(rank_deficient_instance())
        assert blas_threads() == before


def test_ipm_runs_on_one_blas_thread(blas_threads, monkeypatch):
    seen = []
    ipm = sdp._ipm

    def probe(red, opts, start):
        seen.append(blas_threads())
        return ipm(red, opts, start)

    monkeypatch.setattr(sdp, "_ipm", probe)
    sdp.solve(random_strictly_feasible(np.random.default_rng(2)))
    sdp.solve_with_restarts(random_strictly_feasible(np.random.default_rng(3)))
    assert len(seen) == 2
    assert all(counts == [1] * len(counts) for counts in seen)


def test_restarts_validate_and_reduce_once(monkeypatch):
    rel = relax.assemble(relax.HOMOGENIZED, unattained_quartic(), 2)
    inst, _ = relax.to_sdp_instance(rel)
    solve, reduce, validate = sdp.solve, sdp._reduce, sdp.SdpInstance.validate
    calls = {"reduce": 0, "validate": 0}
    attempts = []
    factored = []   # (function, "A" or "A.T") for each factorization of inst.A

    def watch(module, name):
        func = getattr(module, name)

        def counted(a, *args, **kwargs):
            if a is inst.A or a.base is inst.A:
                factored.append((name, "A" if a is inst.A else "A.T"))
            return func(a, *args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("svd", "svdvals", "null_space"):
        watch(scipy.linalg, name)
    watch(np.linalg, "lstsq")

    def counted_reduce(*args):
        calls["reduce"] += 1
        return reduce(*args)

    def counted_validate(self, *args):
        calls["validate"] += 1
        return validate(self, *args)

    def recorded_solve(inst, opts, **kwargs):
        sol = solve(inst, opts, **kwargs)
        attempts.append((opts, kwargs["_start"], sol))
        return sol

    monkeypatch.setattr(sdp, "_reduce", counted_reduce)
    monkeypatch.setattr(sdp.SdpInstance, "validate", counted_validate)
    monkeypatch.setattr(sdp, "solve", recorded_solve)
    sdp.solve_with_restarts(inst)
    assert len(attempts) == 3
    assert calls == {"reduce": 1, "validate": 1}
    # one SVD gives the rank test, the null space and the multipliers; the
    # lstsq places y0
    assert sorted(factored) == [("lstsq", "A"), ("svd", "A")]
    # a shared reduction gives every attempt the numbers of a fresh solve
    for opts, start, sol in attempts:
        fresh = solve(inst, opts, _start=start)
        assert fresh.status is sol.status
        assert np.array_equal(fresh.y, sol.y)
        assert fresh.dual_obj == sol.dual_obj


@pytest.mark.parametrize("seed", [0, 1])
def test_restart_attempts_start_as_the_policy_says(monkeypatch, seed):
    # unattained_quartic at order 2 takes all three attempts: the first from
    # scale 1, each later one from 10^u with u drawn from the seed's
    # generator, at the step fractions 0.98, 0.95 and 0.9
    inst, _ = relax.to_sdp_instance(relax.assemble(relax.HOMOGENIZED, unattained_quartic(), 2))
    ipm = sdp._ipm
    starts = []

    def recorded(red, opts, start):
        starts.append(start)
        return ipm(red, opts, start)

    monkeypatch.setattr(sdp, "_ipm", recorded)
    sdp.solve_with_restarts(inst, sdp.SolveOptions(seed=seed))
    rng = np.random.default_rng(seed)
    u1, u2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    assert starts == [(1.0, 0.98), (10.0 ** u1, 0.95), (10.0 ** u2, 0.9)]
    # the start belongs to the attempt, and the budget to the module
    # (MAX_ITER): the options cannot set them
    for name in ("step_frac", "init_scale", "max_iter"):
        with pytest.raises(TypeError):
            sdp.SolveOptions(**{name: 0.9})


def test_asymmetric_pencil_rejected():
    coeffs = np.zeros((4, 1))
    coeffs[1, 0] = 1.0  # entry (0,1) only: not symmetric
    pen = sdp.SdpPencil(label="bad", size=2, coeffs=coeffs)
    inst = sdp.SdpInstance(c=np.array([1.0]), A=np.zeros((0, 1)),
                           b=np.zeros(0), pencils=[pen])
    with pytest.raises(ValueError, match="symmetric"):
        sdp.solve(inst)


def test_unbounded_objective_detected():
    # one free direction with no pencil coverage
    mats = [np.eye(2), np.zeros((2, 2))]
    inst = sdp.SdpInstance(c=np.array([0.0, 1.0]), A=np.zeros((0, 2)),
                           b=np.zeros(0),
                           pencils=[dense_pencil("m", mats, np.eye(2))])
    sol = sdp.solve(inst)
    assert sol.status is sdp.SdpStatus.DUAL_INFEASIBLE
    assert sol.message == "improving ray in the pencil null directions"
    # the Gram test of the coverage stack leaves this case to the SVD
    flat = np.stack([m.reshape(-1) for m in mats])
    assert not sdp._gram_full_rank(flat) and svd_rank(flat) == 1


def exit_instance(c, mats, const, A=None, b=None):
    """One pencil with the symmetric matrices ``mats`` and constant ``const``."""
    m = len(c)
    return sdp.SdpInstance(c=np.asarray(c, float),
                           A=np.zeros((0, m)) if A is None else np.asarray(A, float),
                           b=np.zeros(0) if b is None else np.asarray(b, float),
                           pencils=[dense_pencil("m", [np.asarray(g, float) for g in mats],
                                                 np.asarray(const, float))])


def ill_conditioned_equalities():
    """[[1, 1], [1, 1 + 5e-10]] y = (0, 1) passes the rank test, so it has a
    solution, but the y0 that lstsq places misses b by 5.3e-7, more than the
    tolerance of 2e-8."""
    return exit_instance([0, 0], [np.eye(2), np.eye(2)], np.eye(2),
                         A=[[1, 1], [1, 1 + 5e-10]], b=[0, 1])


ILL_CONDITIONED = "equality system A y = b is too ill-conditioned: lstsq misses b by 5.3e-07"


# One tiny instance per exit of _reduce and _ipm that no other test reaches.
# A consistent but ill-conditioned equality system; a pencil that vanishes
# leaves a moment the objective pulls on unseen; y >= 0 with the objective
# -y; diag(y, -1 - y) >= 0, which no y meets; and
# [[y1, 10], [10, y2]] >= 0 at the objective y2, whose infimum 0 needs
# y1 = 100 / y2 to run off.
@pytest.mark.parametrize("inst, status, message", [
    (ill_conditioned_equalities(), sdp.SdpStatus.NUMERICAL_TROUBLE, ILL_CONDITIONED),
    (exit_instance([1], [np.zeros((2, 2))], np.zeros((2, 2))),
     sdp.SdpStatus.DUAL_INFEASIBLE, "objective is unbounded along the pencil-free subspace"),
    (exit_instance([-1], [[[1]]], [[0]]),
     sdp.SdpStatus.DUAL_INFEASIBLE,
     "moment objective unbounded below (certificate side infeasible)"),
    (exit_instance([0], [np.diag([1, -1])], np.diag([0, -1])),
     sdp.SdpStatus.PRIMAL_INFEASIBLE,
     "certificate objective unbounded (moment side infeasible)"),
    (exit_instance([0, 1], [np.diag([1, 0]), np.diag([0, 1])], [[0, 10], [10, 0]]),
     sdp.SdpStatus.NUMERICAL_TROUBLE,
     "converged only with a diverging moment vector; the optimum is likely unattained")],
    ids=["inconsistent_equalities", "unseen_moment", "moment_unbounded",
         "certificate_unbounded", "diverging_moments"])
def test_each_solver_exit(inst, status, message):
    sol = sdp.solve(inst)
    assert (sol.status, sol.message) == (status, message)


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-12, 2.0, 0.5])
@pytest.mark.parametrize("c", [0.0, 1.0])
@pytest.mark.parametrize("lin, const", [([[-2, 1], [1, 0]], [[1, -1], [-1, -1]]),
                                        (np.diag([1, -1]), np.diag([0, -1]))],
                         ids=["skew", "diag"])
def test_an_infeasible_pencil_is_proved_infeasible_at_the_first_attempt(lin, const, c,
                                                                        scale):
    """No y makes [[1 - 2y, y - 1], [y - 1, -1]] or diag(y, -1 - y) psd.
    Rounding grows the residual of the certificate ray with its objective,
    so an absolute residual test missed the ray: at scale 1 + 1e-12 both
    raised NonFiniteError, and at scale 1 with c = 0 the first one's first
    attempt ended "certificate side converged but the moment side stalled"."""
    inst = exit_instance([scale * c], [scale * np.asarray(lin, float)],
                         scale * np.asarray(const, float))
    sol = sdp.solve_with_restarts(inst)
    # no " (attempt N)" suffix: the first attempt ended it
    assert (sol.status, sol.message) == (
        sdp.SdpStatus.PRIMAL_INFEASIBLE, "certificate objective unbounded (moment side infeasible)")


@pytest.mark.xfail(strict=True, reason="facial reduction does not see that the pencil's "
                   "zero diagonal entry forces its off-diagonal entries to 0")
def test_a_weakly_feasible_pencil_is_not_proved_infeasible():
    """y = (1/2, -1, 0) meets 2 y1 - y2 - y3 = 2 and makes the pencil
    diag(0, 6), so the instance is feasible, with an objective unbounded
    below.  The reduction rounds the (1, 1) entry, 0 on the whole fiber, to
    -8.9e-16, and the ray rule then proves the instance infeasible."""
    inst = exit_instance([2, 0, 0], [-4 * np.eye(2), [[2, -1], [-1, -4]], [[2, -2], [-2, -2]]],
                         [[4, -1], [-1, 4]], A=[[2, -1, -1]], b=[2])
    y = np.array([0.5, -1.0, 0.0])
    assert inst.A @ y == inst.b
    assert np.array_equal(inst.pencils[0].evaluate(y), np.diag([0.0, 6.0]))
    assert sdp.solve(inst).status is not sdp.SdpStatus.PRIMAL_INFEASIBLE


def test_a_reduction_shortcut_is_not_restarted(monkeypatch):
    # every attempt would get the same outcome of the one reduction back
    solve, calls = sdp.solve, []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sdp, "solve", counted)
    sol = sdp.solve_with_restarts(ill_conditioned_equalities())
    assert len(calls) == 1
    assert (sol.status, sol.message) == (sdp.SdpStatus.NUMERICAL_TROUBLE, ILL_CONDITIONED)


def refuse(*args):
    raise np.linalg.LinAlgError("Internal Error.")


# Tiny instances reach "no positive definite step" only through the last
# bits of their rounding (scaling the data by 1 + 1e-12 changes the exit),
# and none was found that reaches the other two, so each exit is reached by
# making the call that fails there fail: every Cholesky of the jittered
# Schur matrix, the eigensolve of a step-length test, or every backtrack.
@pytest.mark.parametrize("name, stub, message", [
    ("_cho_factor", refuse, "Schur complement not positive definite"),
    ("_eigvalsh", refuse, "factorization failed: Internal Error."),
    ("_backtrack_pd", lambda *args: None, "no positive definite step")],
    ids=["schur_not_pd", "factorization_failed", "no_pd_step"])
def test_each_failed_factorization_exit(monkeypatch, name, stub, message):
    monkeypatch.setattr(sdp, name, stub)
    sol = sdp.solve(exit_instance([1], [[[1]]], [[0]]))
    assert (sol.status, sol.message, sol.iterations) == (
        sdp.SdpStatus.NUMERICAL_TROUBLE, message, 0)


def test_fixed_variable_fiber():
    # equalities pin y completely; feasibility decides the status
    mats = [np.eye(2)]
    inst = sdp.SdpInstance(c=np.array([1.0]), A=np.array([[1.0]]),
                           b=np.array([2.0]),
                           pencils=[dense_pencil("m", mats)])
    sol = sdp.solve(inst)
    assert sol.status is sdp.SdpStatus.OPTIMAL
    assert sol.primal_obj == pytest.approx(2.0)
    inst2 = sdp.SdpInstance(c=np.array([1.0]), A=np.array([[1.0]]),
                            b=np.array([-2.0]),
                            pencils=[dense_pencil("m", mats)])
    assert sdp.solve(inst2).status is sdp.SdpStatus.PRIMAL_INFEASIBLE
    # a constant pencil diag(1, -1) with y free: no pencil sees y, and the
    # pencil at y0 decides the status
    flip = np.diag([1.0, -1.0])
    inst3 = sdp.SdpInstance(c=np.zeros(1), A=np.zeros((0, 1)), b=np.zeros(0),
                            pencils=[dense_pencil("m", [np.zeros((2, 2))], flip)])
    sol = sdp.solve(inst3)
    assert sol.status is sdp.SdpStatus.PRIMAL_INFEASIBLE
    assert sol.primal_infeas == pytest.approx(1.0)
    assert not sol.moment_converged
    # two moments, y1 fixed by an equality and y2 seen by no pencil: the
    # coverage step drops y2 and leaves no free moment
    for b, status, viol in [(2.0, sdp.SdpStatus.PRIMAL_INFEASIBLE, 1.0),
                            (0.5, sdp.SdpStatus.OPTIMAL, 0.0)]:
        pencil = dense_pencil("m", [flip, np.zeros((2, 2))], np.eye(2))  # I + y1 flip
        inst4 = sdp.SdpInstance(c=np.array([3.0, 0.0]), A=np.array([[1.0, 0.0]]),
                                b=np.array([b]), pencils=[pencil])
        red = sdp._reduce(inst4)
        assert red.nullmap.shape == (2, 0) and red.blocks == []
        sol = sdp.solve(inst4)
        assert sol.status is status and sol.iterations == 0
        assert sol.primal_infeas == pytest.approx(viol)
        assert sol.message == "objective constant on the fiber"
        assert sol.eq_duals == pytest.approx([3.0])


def test_unattained_instance_never_reports_clean_optimum():
    # homogenized relaxation of x1^4 + (x1 x2 - 1)^2: the moment optimum is
    # not attained; the solver must not declare full optimality
    rel = relax.assemble(relax.HOMOGENIZED, unattained_quartic(), 3)
    inst, _ = relax.to_sdp_instance(rel)
    sol = sdp.solve_with_restarts(inst)
    assert sol.status in (sdp.SdpStatus.NUMERICAL_TROUBLE,
                          sdp.SdpStatus.ITER_LIMIT)
    assert abs(sol.primal_obj) < 1e-2



@pytest.mark.parametrize("field, value", [("gap_tol", -1.0), ("gap_tol", 0.0),
                                          ("gap_tol", float("nan")), ("gap_tol", float("inf")),
                                          ("seed", -5), ("seed", 1.5)])
def test_bad_solve_options_are_rejected(field, value):
    # np.random.default_rng(-5) raised only in the restarts; a negative or
    # NaN gap tolerance made every run end without a bound
    with pytest.raises(ValueError, match=f"{field} must be a "):
        sdp.SolveOptions(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be a "):
        replace(sdp.SolveOptions(), **{field: value})


def test_idle_run_stops_within_the_moment_budget(monkeypatch):
    # chain_with_product's order-2 certificate is not attained: the moment
    # side converges, and the steps after it change nothing
    inst, _ = relax.to_sdp_instance(relax.assemble(relax.HOMOGENIZED, chain_with_product(), 2))
    solve, attempts = sdp.solve, []

    def counted(*args, **kwargs):
        attempts.append(solve(*args, **kwargs))
        return attempts[-1]

    monkeypatch.setattr(sdp, "solve", counted)
    sol = sdp.solve_with_restarts(inst)
    assert len(attempts) == 1
    assert sol.status is sdp.SdpStatus.ITER_LIMIT and sol.moment_converged
    idle = re.fullmatch(r"iteration limit reached: (\d+) iterations since "
                        r"the moment side converged", sol.message)
    assert idle, sol.message
    assert sol.iterations < sdp.MAX_ITER
    # past the budget the run goes on only while its certificate side is
    # not reportable, since the idle phase had a reportable one
    first = sol.iterations - int(idle.group(1))
    rps = [h["rp"] for h in sol.history]
    assert min(rps[first:]) <= sdp.REPORT_TOL
    assert all(rp > sdp.REPORT_TOL for rp in rps[first + sdp.MOMENT_BUDGET:-1])
    assert sol.dual_infeas == rps[-1] <= sdp.REPORT_TOL

def test_write_sdpa(tmp_path):
    mats = [np.zeros((2, 2)) for _ in range(3)]
    mats[0][0, 0] = 1.0
    mats[1][0, 1] = mats[1][1, 0] = 1.0
    mats[2][1, 1] = 1.0
    inst = sdp.SdpInstance(c=np.array([0.0, 0.0, 1.0]),
                           A=np.array([[1.0, 0.0, 0.0]]), b=np.array([1.0]),
                           pencils=[dense_pencil("m", mats)])
    path = tmp_path / "dump.dat-s"
    sdp.write_sdpa(inst, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "3"                 # variables
    assert lines[1] == "2"                 # pencil block + equality block
    assert lines[2].split() == ["2", "-2"]
    assert len(lines[3].split()) == 3      # objective
    for line in lines[4:]:
        parts = line.split()
        assert len(parts) == 5
        matno, blockno, i, j, _ = parts
        assert 0 <= int(matno) <= 3
        assert int(blockno) in (1, 2)
        assert int(i) <= int(j)


def parse_sdpa(path):
    """Minimal SDPA-S reader used as a round-trip oracle."""
    lines = [l for l in open(path).read().splitlines() if l.strip()]
    m = int(lines[0])
    nblocks = int(lines[1])
    sizes = [int(v) for v in lines[2].split()]
    c = np.array([float(v) for v in lines[3].split()])
    mats = {}
    for line in lines[4:]:
        matno, blockno, i, j, val = line.split()
        key = (int(matno), int(blockno))
        size = abs(sizes[int(blockno) - 1])
        mat = mats.setdefault(key, np.zeros((size, size)))
        i, j = int(i) - 1, int(j) - 1
        mat[i, j] = float(val)
        mat[j, i] = float(val)
    return m, sizes, c, mats


def test_write_sdpa_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    inst = random_strictly_feasible(rng, m=3, s=3)
    inst = sdp.SdpInstance(c=inst.c, A=np.array([[1.0, 2.0, 0.5]]),
                           b=np.array([0.7]), pencils=inst.pencils)
    path = tmp_path / "round.dat-s"
    sdp.write_sdpa(inst, str(path))
    m, sizes, c, mats = parse_sdpa(str(path))
    assert m == inst.dim
    assert np.allclose(c, inst.c)
    y = rng.uniform(-1, 1, size=m)
    for bno, pen in enumerate(inst.pencils, start=1):
        rebuilt = -mats.get((0, bno), np.zeros((pen.size, pen.size)))
        for i in range(m):
            rebuilt = rebuilt + y[i] * mats.get((i + 1, bno),
                                                np.zeros((pen.size, pen.size)))
        assert np.allclose(rebuilt, pen.evaluate(y), atol=1e-12)
    # the diagonal equality block encodes A y - b and b - A y
    eqno = len(sizes)
    row = np.array([mats[(i + 1, eqno)][0, 0] for i in range(m)])
    assert np.allclose(row, inst.A[0])
    assert mats[(0, eqno)][0, 0] == inst.b[0]


def loop_sdpa(inst):
    """SDPA-S text of ``inst``, written entry by entry from dense matrices."""
    m, p = inst.dim, inst.A.shape[0]
    blocks = [pen.size for pen in inst.pencils] + ([-2 * p] if p else [])
    lines = [f"{m}", f"{len(blocks)}", " ".join(str(s) for s in blocks),
             " ".join(repr(float(v)) for v in inst.c)]

    def emit(matno, blockno, i, j, value):
        if value != 0.0:
            lines.append(f"{matno} {blockno} {i} {j} {repr(float(value))}")

    for bno, pen in enumerate(inst.pencils, start=1):
        s = pen.size
        if pen.const is not None:
            for i in range(s):
                for j in range(i, s):
                    emit(0, bno, i + 1, j + 1, -pen.const[i, j])
        coeffs = pen.coeffs.toarray() if scipy.sparse.issparse(pen.coeffs) else pen.coeffs
        for var in range(m):
            mat = coeffs[:, var].reshape(s, s)
            for i in range(s):
                for j in range(i, s):
                    emit(var + 1, bno, i + 1, j + 1, mat[i, j])
    for r in range(p):
        emit(0, len(blocks), 2 * r + 1, 2 * r + 1, inst.b[r])
        emit(0, len(blocks), 2 * r + 2, 2 * r + 2, -inst.b[r])
        for var in range(m):
            emit(var + 1, len(blocks), 2 * r + 1, 2 * r + 1, inst.A[r, var])
            emit(var + 1, len(blocks), 2 * r + 2, 2 * r + 2, -inst.A[r, var])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("prob, k", [(chain_with_product, 2), (product_quartic, 3)])
def test_write_sdpa_matches_the_entrywise_writer(tmp_path, prob, k):
    inst, _ = relax.to_sdp_instance(relax.assemble(relax.HOMOGENIZED, prob(), k))
    assert inst.A.shape[0]
    path = tmp_path / "dump.dat-s"
    sdp.write_sdpa(inst, str(path))
    assert path.read_text() == loop_sdpa(inst)
    # a pencil with a constant term, given as a dense array
    rng = np.random.default_rng(8)
    dense = random_strictly_feasible(rng, m=3, s=3)
    dense = sdp.SdpInstance(c=dense.c, A=np.array([[1.0, 0.0, 0.5]]), b=np.array([0.7]),
                            pencils=dense.pencils)
    sdp.write_sdpa(dense, str(path))
    assert path.read_text() == loop_sdpa(dense)


def test_write_sdpa_forms_no_dense_coefficients(tmp_path):
    """The homogenized chain_with_product relaxation at order 3: its dense
    pencil coefficient matrices took 55.5 MiB."""
    inst, _ = relax.to_sdp_instance(relax.assemble(relax.HOMOGENIZED, chain_with_product(), 3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sdp.write_sdpa(inst, str(tmp_path / "chain.dat-s"))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_medium_scale_random_instance():
    rng = np.random.default_rng(77)
    inst = random_strictly_feasible(rng, m=20, s=8, box=5.0)
    sol = sdp.solve(inst)
    assert sol.status is sdp.SdpStatus.OPTIMAL
    assert sol.gap < 1e-8
    stat, comp, feas = kkt_residuals(inst, sol)
    scale = 1.0 + abs(sol.primal_obj)
    assert stat < 1e-6 * scale and feas < 1e-7 * scale


def random_pd(rng, s):
    g = rng.standard_normal((s, s))
    return g @ g.T + 0.5 * np.eye(s)


def random_sym(rng, s):
    g = rng.standard_normal((s, s))
    return 0.5 * (g + g.T)


def test_schur_matches_trace_definition(monkeypatch):
    rng = np.random.default_rng(11)
    mz = 7
    pencils = [dense_pencil(f"p{j}", [random_sym(rng, s) for _ in range(mz)],
                            random_pd(rng, s)) for j, s in enumerate((5, 3))]
    inst = sdp.SdpInstance(c=rng.standard_normal(mz), A=np.zeros((0, mz)),
                           b=np.zeros(0), pencils=pencils)
    red = sdp._reduce(inst)
    assert red.chat.size == mz and len(red.blocks) == 2
    glins = [blk.glin for blk in red.blocks]
    astk = [-g for g in glins]      # A_l = -G_l, as _ipm defines it
    xs = [random_pd(rng, blk.g0.shape[0]) for blk in red.blocks]
    zs = [random_pd(rng, blk.g0.shape[0]) for blk in red.blocks]
    ref = np.zeros((mz, mz))
    for a_s, x, z_mat in zip(astk, xs, zs):
        zinv = np.linalg.inv(z_mat)
        for l in range(mz):
            for k in range(mz):
                ref[l, k] += np.trace(a_s[l] @ x @ a_s[k] @ zinv)
    lxs = [np.linalg.cholesky(x) for x in xs]
    qs = [scipy.linalg.solve_triangular(np.linalg.cholesky(z_mat), np.eye(len(z_mat)),
                                        lower=True).T for z_mat in zs]
    work = sdp._schur_work(mz, [5, 3])
    schur = sdp._schur(glins, lxs, qs, work)
    assert np.array_equal(schur, schur.T)
    assert np.max(np.abs(schur - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the A_l give the same bits: their B_l are the exact negatives
    assert np.array_equal(sdp._schur(astk, lxs, qs, work), schur)
    # buffers larger than needed, as the IPM's are for its smaller blocks,
    # give the same bits
    wide = tuple(np.full(buf.size + 7, np.nan) for buf in work)
    assert np.array_equal(sdp._schur(glins, lxs, qs, wide), schur)
    # and so do chunks of 2 left products, the last one of 1
    monkeypatch.setattr(sdp, "_CHUNK_BYTES", 1)
    assert sdp._chunk_width(5, mz) == 2
    assert np.array_equal(sdp._schur(glins, lxs, qs, sdp._schur_work(mz, [5, 3])), schur)


def test_max_step_is_generalized_eigenvalue():
    rng = np.random.default_rng(12)
    for s in (1, 4, 9):
        mat = random_pd(rng, s)
        chol = np.linalg.cholesky(mat)
        d_mat = random_sym(rng, s) - 2.0 * np.eye(s)
        lam = scipy.linalg.eigh(d_mat, chol @ chol.T, eigvals_only=True)[0]
        assert sdp._max_step(chol, d_mat) == pytest.approx(-1.0 / lam, rel=1e-10)
        assert sdp._max_step(chol, random_pd(rng, s)) == np.inf


def test_backtrack_returns_factor_of_accepted_point():
    rng = np.random.default_rng(13)
    mats = [random_pd(rng, 4), random_pd(rng, 2)]
    # the first direction leaves the cone at alpha = 1/3
    dirs = [-3.0 * mats[0], random_sym(rng, 2)]
    alpha, new, factors = sdp._backtrack_pd(mats, dirs, 1.0)
    assert alpha == pytest.approx(0.7 ** 4)
    for mat, d_mat, point, chol in zip(mats, dirs, new, factors):
        assert np.array_equal(point, sdp._sym(mat + alpha * d_mat))
        assert np.array_equal(chol, np.tril(chol))
        assert np.allclose(chol @ chol.T, point, rtol=0.0,
                           atol=1e-13 * np.max(np.abs(point)))
    assert sdp._backtrack_pd([np.eye(2)], [-np.eye(2)], 1e9) is None


def test_history_records_step_lengths_and_centering():
    sol = sdp.solve(random_strictly_feasible(np.random.default_rng(4)))
    assert sol.status is sdp.SdpStatus.OPTIMAL
    steps = [rec for rec in sol.history if "ap" in rec]
    # every iteration but the converged last one takes a step
    assert len(steps) == sol.iterations == len(sol.history) - 1
    for rec in steps:
        assert 0.0 < rec["ap"] <= 1.0
        assert 0.0 < rec["ad"] <= 1.0
        assert 0.0 < rec["sigma"] <= 1.0


def test_a_zero_mu_centers_fully_without_dividing_by_it():
    """This random tiny instance reaches mu = 0 at the centering step, which
    divided by it with a "divide by zero" and an "invalid value"
    RuntimeWarning; the suite turns either into an error."""
    inst = exit_instance([-0.1, 0.002], [[[0.2, -0.1], [-0.1, 0]],
                                         [[-0.001, 0.002], [0.002, 0.002]]],
                         [[2, -2], [-2, 2]], A=[[0, -0.002]], b=[0])
    sol = sdp.solve(inst)
    assert (sol.status, sol.message, sol.iterations) == (
        sdp.SdpStatus.NUMERICAL_TROUBLE,
        "moment side converged but the certificate side stalled (certificate likely "
        "unattained)", 34)


def test_reduce_compression_matches_tall_svd():
    rel = relax.assemble(relax.HOMOGENIZED, cubic_unbounded(), 3)
    inst, _ = relax.to_sdp_instance(rel)
    red = sdp._reduce(inst)
    # reference: the rank and row space of the tall stack [g0; glin] by SVD
    y0 = np.linalg.lstsq(inst.A, inst.b, rcond=None)[0]
    nullmap = scipy.linalg.null_space(inst.A)
    compressed = 0
    for blk in red.blocks:
        pen = inst.pencils[blk.orig]
        s = pen.size
        g0 = sdp._sym(pen.evaluate(y0))
        glin = np.asarray(pen.coeffs @ nullmap).reshape(s, s, -1).transpose(2, 0, 1)
        glin = 0.5 * (glin + glin.transpose(0, 2, 1))
        stacked = np.concatenate([g0[None], glin]).reshape(-1, s)
        sv, vt = scipy.linalg.svd(stacked, full_matrices=False)[1:]
        rank = int(np.sum(sv > 1e-9 * sv[0]))
        assert blk.basis.shape == (s, rank)
        compressed += rank < s
        if rank < s:
            assert np.allclose(blk.basis @ blk.basis.T, vt[:rank].T @ vt[:rank],
                               atol=1e-10)
    assert compressed


# -- the LAPACK helpers of the IPM loop ---------------------------------------

HELPER_SIZES = (1, 2, 7, 27, 105)


def pd_matrices(rng, s):
    """A random and an ill-conditioned (condition about 1e12) pd matrix,
    each C- and F-ordered."""
    orth = np.linalg.qr(rng.standard_normal((s, s)))[0]
    ill = sdp._sym(orth @ np.diag(np.logspace(0.0, -12.0, s)) @ orth.T)
    ill += 1e-13 * np.eye(s)
    return [m for a in (random_pd(rng, s), ill) for m in (a, np.asfortranarray(a))]


def lower_factors(rng, s):
    """Cholesky factors of ``pd_matrices``, each C- and F-ordered."""
    chols = [np.linalg.cholesky(a) for a in pd_matrices(rng, s)[::2]]
    return [m for chol in chols for m in (chol, np.asfortranarray(chol))]


def scipy_max_step(chol, d_mat):
    """``sdp._max_step`` as it was written with scipy's checked wrappers."""
    tmp = scipy.linalg.solve_triangular(chol, d_mat, lower=True)
    tmp = scipy.linalg.solve_triangular(chol, tmp.T, lower=True)
    lam = scipy.linalg.eigvalsh(sdp._sym(tmp))[0]
    return np.inf if lam >= -1e-14 else -1.0 / lam


def same_array(a, b):
    return (np.array_equal(a, b) and a.shape == b.shape
            and a.flags.f_contiguous == b.flags.f_contiguous)


def test_lapack_helpers_match_scipy_bit_for_bit():
    rng = np.random.default_rng(21)
    for s in HELPER_SIZES:
        rhs = rng.standard_normal((s, s))
        for b in (rhs, np.asfortranarray(rhs), np.eye(s)):
            for chol in lower_factors(rng, s):
                assert same_array(sdp._solve_lower(chol, b),
                                  scipy.linalg.solve_triangular(chol, b, lower=True))
        for chol in lower_factors(rng, s):
            for d_mat in (random_sym(rng, s), -random_pd(rng, s), random_pd(rng, s)):
                assert sdp._max_step(chol, d_mat) == scipy_max_step(chol, d_mat)
        for a in pd_matrices(rng, s) + [random_sym(rng, s)]:
            assert same_array(sdp._eigvalsh(a), scipy.linalg.eigvalsh(a))
        for a in pd_matrices(rng, s):
            chol = sdp._cho_factor(a.copy(order="K"))   # it overwrites its argument
            ref = scipy.linalg.cho_factor(a, lower=True)
            assert same_array(chol, ref[0])
            for b in (rng.standard_normal(s), rng.standard_normal((s, 3))):
                assert same_array(sdp._cho_solve(chol, b), scipy.linalg.cho_solve(ref, b))
        # the contractions that replace np.tensordot in the iteration
        mz = 5
        a_s = rng.standard_normal((mz, s, s))
        z = rng.standard_normal(mz)
        assert same_array(np.dot(z.reshape(1, mz), a_s.reshape(mz, -1)).reshape(s, s),
                          np.tensordot(z, a_s, axes=1))
        x, w = random_sym(rng, s), random_sym(rng, s)
        assert sdp._inner(x, w) == np.tensordot(x, w)
        x[0, -1] = x[-1, 0] = -0.0
        for shift in (0.0, 1e-13 * np.trace(x), -2.5):
            assert same_array(sdp._shift_diagonal(x, shift).view(np.int64),
                              (x + shift * np.eye(s)).view(np.int64))


def test_lapack_helpers_raise_like_scipy():
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        sdp._cho_factor(-np.eye(3))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        sdp._solve_lower(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError) as ref:
        scipy.linalg.solve_triangular(np.array([[np.nan]]), np.ones((1, 1)))
    for bad in (np.nan, np.inf, -np.inf):
        mat = np.eye(3)
        mat[2, 1] = bad
        with pytest.raises(ValueError) as exc:
            sdp._finite(mat)
        assert str(exc.value) == str(ref.value)
        # a direction with a NaN or inf fails the step test as it did
        with pytest.raises(ValueError, match=str(ref.value)):
            scipy_max_step(np.eye(3), mat)
        with pytest.raises(ValueError, match=str(ref.value)):
            sdp._max_step(np.eye(3), mat)
    # a finite direction whose scaled image overflows fails at the eigensolve
    tiny = np.diag([1.0, 1e-200, 1.0])
    huge = np.full((3, 3), 1e200)
    with pytest.raises(ValueError, match=str(ref.value)):
        scipy_max_step(tiny, huge)
    with pytest.raises(ValueError, match=str(ref.value)):
        sdp._max_step(tiny, huge)


def corrupt(monkeypatch, name, spoil, call=1):
    """Replace sdp.<name> by a wrapper that spoils the result of its
    ``call``-th call."""
    orig = getattr(sdp, name)
    calls = []

    def wrapper(*args):
        out = orig(*args)
        calls.append(None)
        return spoil(out) if len(calls) == call else out

    monkeypatch.setattr(sdp, name, wrapper)


def nan_at_corner(mat):
    mat = mat.copy()
    mat[-1, 0] = np.nan
    return mat


def inf_factor(step):
    alpha, new, factors = step
    factors[0] = factors[0].copy()
    factors[0][0, 0] = np.inf
    return alpha, new, factors


@pytest.mark.parametrize("name, spoil, call", [
    ("_schur", nan_at_corner, 1),                       # Schur matrix
    ("_cho_solve", lambda dz: np.full_like(dz, np.nan), 1),   # direction
    ("_backtrack_pd", inf_factor, 1),                   # X factor
    ("_backtrack_pd", inf_factor, 2),                   # Z factor
])
def test_nonfinite_iterates_raise_value_error(monkeypatch, name, spoil, call):
    inst = random_strictly_feasible(np.random.default_rng(5))
    corrupt(monkeypatch, name, spoil, call)
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="must not contain infs or NaNs"):
        sdp.solve(inst)


def test_iteration_calls_no_scipy_wrapper_or_tensordot(monkeypatch):
    rel = relax.assemble(relax.HOMOGENIZED, chain_with_product(), 2)
    inst, _ = relax.to_sdp_instance(rel)
    monkeypatch.setattr(sdp, "MAX_ITER", 15)
    red = sdp._reduce(inst)
    ref = sdp.solve(inst, _reduced=red)
    assert len(red.blocks) > 1
    assert len({blk.g0.shape[0] for blk in red.blocks}) > 1

    def forbidden(*args, **kwargs):
        raise AssertionError("called from the IPM loop")

    for name in ("solve_triangular", "eigvalsh", "cho_factor", "cho_solve"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    monkeypatch.setattr(np, "tensordot", forbidden)
    sol = sdp.solve(inst, _reduced=red)
    assert sol.iterations == ref.iterations == 15
    assert sol.status is ref.status
    assert np.array_equal(sol.y, ref.y)
    assert sol.history == ref.history


# -- the coverage rank test of _reduce ----------------------------------------

def svd_rank(flat):
    """The singular-value rank test of ``_reduce``."""
    sv = scipy.linalg.svdvals(flat)
    return int(np.sum(sv > 1e-11 * max(1.0, sv[0])))


def coverage_instance(delta, c):
    """Two variables seen by orthogonal pencil directions of norms sqrt(2)
    and delta*sqrt(2): their singular values."""
    mats = [np.eye(2), delta * np.array([[0.0, 1.0], [1.0, 0.0]])]
    flat = np.stack([m.reshape(-1) for m in mats])
    inst = sdp.SdpInstance(c=np.asarray(c, float), A=np.zeros((0, 2)), b=np.zeros(0),
                           pencils=[dense_pencil("m", mats, 3.0 * np.eye(2))])
    return inst, flat


def count_svdvals(monkeypatch):
    calls = []
    svdvals = scipy.linalg.svdvals

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svdvals(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svdvals", counted)
    return calls


def test_coverage_gram_test_decides_full_rank(monkeypatch):
    rel = relax.assemble(relax.HOMOGENIZED, product_quartic(), 3)
    inst, _ = relax.to_sdp_instance(rel)
    red = sdp._reduce(inst)
    mz = red.chat.size
    flat = np.concatenate([blk.glin.reshape(mz, -1) for blk in red.blocks], axis=1)
    assert sdp._gram_full_rank(flat) and svd_rank(flat) == mz
    inst, flat = coverage_instance(0.5, [1.0, 1.0])
    assert sdp._gram_full_rank(flat) and svd_rank(flat) == 2
    calls = count_svdvals(monkeypatch)
    assert sdp._reduce(inst).chat.size == 2
    assert calls == []


@pytest.mark.parametrize("delta, rank", [(3e-11, 2), (1e-12, 1)])
def test_coverage_falls_back_to_svd_near_rank_deficiency(monkeypatch, delta, rank):
    inst, flat = coverage_instance(delta, [1.0, 0.0])
    assert not sdp._gram_full_rank(flat)
    assert svd_rank(flat) == rank
    calls = count_svdvals(monkeypatch)
    red = sdp._reduce(inst)
    assert calls == [(2, 4)]
    assert red.chat.size == rank


def test_coverage_fallback_forms_no_left_singular_vectors():
    """12 moments, one 60 x 60 pencil that sees 11 of them: the full SVD of
    the 3600 x 12 coverage stack built a 3600 x 3600 left factor (101 MiB)."""
    rng = np.random.default_rng(7)
    mats = [random_sym(rng, 60) for _ in range(11)] + [np.zeros((60, 60))]
    inst = sdp.SdpInstance(c=np.zeros(12), A=np.zeros((0, 12)), b=np.zeros(0),
                           pencils=[dense_pencil("m", mats, np.eye(60))])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        red = sdp._reduce(inst)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert red.chat.size == 11
    assert peak < 10 * 2**20


def test_shortcut_optimal_solutions_have_a_converged_moment_side():
    # every coordinate fixed by the equalities (mz = 0)
    fixed = sdp.SdpInstance(c=np.ones(2), A=np.eye(2), b=np.array([1.0, 2.0]),
                            pencils=[dense_pencil("m", [np.eye(1), np.eye(1)])])
    # the objective is constant on the pencil-free fiber y0 = 2
    fiber = sdp.SdpInstance(c=np.array([3.0, 0.0]), A=np.array([[1.0, 0.0]]),
                            b=np.array([2.0]), pencils=[])
    for inst, message in [(fixed, "variable fully determined by equalities"),
                          (fiber, "objective constant on the fiber")]:
        sol = sdp.solve(inst)
        assert sol.status is sdp.SdpStatus.OPTIMAL and sol.message == message
        assert sol.moment_converged


# -- splitting compressed pencils into simultaneous blocks -------------------

SPLIT_SIZES = (30, 20)
SPLIT_MZ = 15


def direct_sum_instance(seed, coupling=0.0):
    """One pencil that is the direct sum of two random pencils of sizes
    ``SPLIT_SIZES``, rotated by a random orthogonal matrix, with a strictly
    feasible moment side (pd constant) and certificate side (c_l = <G_l, X0>
    for a pd X0).  ``coupling`` puts one symmetric entry between the two
    parts of the first linear matrix before the rotation."""
    rng = np.random.default_rng(seed)
    s = sum(SPLIT_SIZES)
    mats = np.zeros((SPLIT_MZ, s, s))
    const = np.zeros((s, s))
    lo = 0
    for n in SPLIT_SIZES:
        mats[:, lo:lo + n, lo:lo + n] = [random_sym(rng, n) for _ in range(SPLIT_MZ)]
        const[lo:lo + n, lo:lo + n] = random_pd(rng, n)
        lo += n
    mats[0, 0, s - 1] = mats[0, s - 1, 0] = coupling
    return rotated_instance(rng, mats, const)


def rotated_instance(rng, mats, const):
    """The instance of one pencil with linear matrices ``mats`` and constant
    ``const``, both rotated by a random orthogonal matrix, and an objective
    c_l = <G_l, X0> for a pd X0, which makes the certificate side strictly
    feasible."""
    s = const.shape[0]
    rot = np.linalg.qr(rng.standard_normal((s, s)))[0]
    mats = rot.T @ mats @ rot
    const = rot.T @ const @ rot
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))
    const = 0.5 * (const + const.T)
    c = np.einsum("lij,ij->l", mats, random_pd(rng, s))
    pencil = dense_pencil("m", list(mats), const)
    return sdp.SdpInstance(c=c, A=np.zeros((0, len(mats))), b=np.zeros(0), pencils=[pencil])


def whole_block(inst):
    """The instance's one compressed pencil, not split."""
    pen = inst.pencils[0]
    s = pen.size
    glin = np.asarray(pen.coeffs).reshape(s, s, -1).transpose(2, 0, 1).copy()
    return sdp._Block(orig=0, basis=np.eye(s), g0=pen.const.copy(), glin=glin)


def test_split_recovers_a_rotated_direct_sum():
    blk = whole_block(direct_sum_instance(0))
    parts = sdp._split_block(blk)
    assert sorted(p.g0.shape[0] for p in parts) == sorted(SPLIT_SIZES)
    basis = np.hstack([p.basis for p in parts])
    assert np.allclose(basis.T @ basis, np.eye(len(basis)), atol=1e-12)
    inside = scipy.linalg.block_diag(*[np.ones((n, n)) for n in
                                       (p.g0.shape[0] for p in parts)]).astype(bool)
    for mat in np.concatenate([blk.g0[None], blk.glin]):
        rot = basis.T @ mat @ basis
        assert np.max(np.abs(rot[~inside])) <= 1e-11 * np.max(np.abs(rot))
    lo = 0
    for p in parts:
        n = p.g0.shape[0]
        assert np.allclose(p.g0, (basis.T @ blk.g0 @ basis)[lo:lo + n, lo:lo + n],
                           atol=1e-12)
        lo += n


def test_split_solve_matches_the_unsplit_solve(monkeypatch):
    inst = direct_sum_instance(1)
    split = sdp.solve(inst)
    assert len(split.blocks) == 2
    monkeypatch.setattr(sdp, "_split_block", lambda blk: [blk])
    whole = sdp.solve(inst)
    assert whole.blocks == [(0, sum(SPLIT_SIZES), 1)]
    assert split.status is whole.status is sdp.SdpStatus.OPTIMAL
    for a, b in ((split.primal_obj, whole.primal_obj), (split.dual_obj, whole.dual_obj)):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
    # the parts' Gram matrices lift to the whole pencil's
    scale = np.max(np.abs(whole.pencil_duals[0]))
    assert np.allclose(split.pencil_duals[0], whole.pencil_duals[0], rtol=0, atol=1e-6 * scale)


def test_split_refuses_a_coupling_that_verification_sees():
    blk = whole_block(direct_sum_instance(0, coupling=1e-9))
    assert sdp._split_block(blk) == [blk]


def test_product_quartic_splits_into_isotypic_blocks(monkeypatch):
    rel = relax.assemble(relax.HOMOGENIZED, product_quartic(), 4)
    inst, _ = relax.to_sdp_instance(rel)
    red = sdp._reduce(inst)
    sizes = {}
    for blk in red.blocks:
        sizes.setdefault(blk.orig, []).append((blk.g0.shape[0], blk.copies))
    # 105 = 4*3 + 7*2 + 19 + 20*3 and 50 = 1*3 + 3*2 + 11 + 10*3
    assert {j: sorted(v) for j, v in sizes.items()} == {
        0: [(4, 3), (7, 2), (19, 1), (20, 3)], 1: [(1, 3), (3, 2), (10, 3), (11, 1)]}
    monkeypatch.setattr(sdp, "_split_block", lambda blk: [blk])
    whole = sdp._reduce(inst)
    assert [blk.g0.shape[0] for blk in whole.blocks] == [105, 50]
    for ref in whole.blocks:
        proj = sum(blk.basis @ blk.basis.T for blk in red.blocks if blk.orig == ref.orig)
        assert np.allclose(proj, ref.basis @ ref.basis.T, atol=1e-10)


def test_unsplit_solve_keeps_its_bits(monkeypatch):
    # neither the copy reduction nor the split touches these pencils
    monkeypatch.setattr(sdp, "MAX_ITER", 30)
    for prob, k in ((chain_with_product, 2), (norm_over_hyperbolas, 3)):
        inst, _ = relax.to_sdp_instance(relax.assemble(relax.HOMOGENIZED, prob(), k))
        ref = sdp.solve(inst)
        assert len(ref.blocks) == len(inst.pencils)
        with monkeypatch.context() as patch:
            for name, off in (("_copy_basis", lambda *args: None),
                              ("_split_block", lambda blk: [blk])):
                patch.setattr(sdp, name, off)
                sol = sdp.solve(inst)
                assert ref.blocks == sol.blocks
                assert np.array_equal(ref.y, sol.y)
                assert ref.history == sol.history


@pytest.mark.parametrize("prob, k", [(norm_over_hyperbolas, 2), (norm_over_hyperbolas, 3),
                                     (unattained_quartic, 2), (unattained_quartic, 4)])
def test_small_symmetric_blocks_stay_whole(monkeypatch, prob, k):
    inst, _ = relax.to_sdp_instance(relax.assemble(relax.HOMOGENIZED, prob(), k))
    red = sdp._reduce(inst)
    assert len(red.blocks) == len({blk.orig for blk in red.blocks})
    # they have parts: only the cost of the extra blocks keeps them whole
    monkeypatch.setattr(sdp, "_SPLIT_FLOPS", 0.0)
    assert len(sdp._reduce(inst).blocks) > len(red.blocks)


COPIES, COPY_SIZE, OTHER_SIZE = 3, 10, 20


def realified_hermitian(rng, n):
    """The real 2n x 2n form [[A, -B], [B, A]] of a random Hermitian A + iB."""
    g = rng.standard_normal((n, n))
    a, b = random_sym(rng, n), 0.5 * (g - g.T)
    return np.block([[a, -b], [b, a]])


def copies_instance(seed, complex_type=False, between=0.0):
    """One pencil I_3 (x) M(z) + N(z), M of size 10 and N of size 20 over
    ``SPLIT_MZ`` free moments, rotated at random (``rotated_instance``), with
    a pd constant.  ``complex_type`` replaces I_3 (x) M by realified random
    Hermitian matrices of size 15 (two copies over C, none over R);
    ``between`` adds between * (F (x) R) to the first linear matrix, F
    coupling copies 1 and 2 and R random symmetric."""
    rng = np.random.default_rng(seed)
    half = COPIES * COPY_SIZE // 2
    first = [realified_hermitian(rng, half) if complex_type
             else np.kron(np.eye(COPIES), random_sym(rng, COPY_SIZE)) for _ in range(SPLIT_MZ)]
    first_const = (np.kron(np.eye(2), random_pd(rng, half)) if complex_type
                   else np.kron(np.eye(COPIES), random_pd(rng, COPY_SIZE)))
    mats = np.array([scipy.linalg.block_diag(f, random_sym(rng, OTHER_SIZE)) for f in first])
    const = scipy.linalg.block_diag(first_const, random_pd(rng, OTHER_SIZE))
    couple = np.zeros((COPIES, COPIES))
    couple[0, 1] = couple[1, 0] = 1.0
    mats[0, :2 * half, :2 * half] += between * np.kron(couple, random_sym(rng, COPY_SIZE))
    return rotated_instance(rng, mats, const)


def test_copies_of_a_rotated_kron_pencil():
    blk = whole_block(copies_instance(0))
    parts = sdp._split_block(blk)
    assert sorted((p.g0.shape[0], p.copies) for p in parts) == [(COPY_SIZE, COPIES),
                                                                (OTHER_SIZE, 1)]
    # the copies' bases together span the compressed pencil
    proj = sum(p.basis @ p.basis.T for p in parts)
    assert np.allclose(proj, blk.basis @ blk.basis.T, atol=1e-12)
    top = np.max(np.abs(blk.glin))
    for p in parts:
        # every matrix is I_copies (x) the block's, in the block's basis
        for mat, part in zip(np.concatenate([blk.g0[None], blk.glin]),
                             np.concatenate([p.g0[None], p.glin])):
            rot = p.basis.T @ mat @ p.basis
            assert np.allclose(rot, np.kron(np.eye(p.copies), part), rtol=0, atol=1e-11 * top)


def test_a_pencil_of_copies_alone_is_copy_reduced():
    # one component of copies leaves nothing outside it, and the check of
    # what lies outside the parts raised on the empty selection
    rng = np.random.default_rng(3)
    mats = np.array([np.kron(np.eye(COPIES), random_sym(rng, 2 * COPY_SIZE))
                     for _ in range(SPLIT_MZ)])
    inst = rotated_instance(rng, mats, np.kron(np.eye(COPIES), random_pd(rng, 2 * COPY_SIZE)))
    parts = sdp._split_block(whole_block(inst))
    assert [(p.g0.shape[0], p.copies) for p in parts] == [(2 * COPY_SIZE, COPIES)]


def test_complex_type_pencil_is_not_copy_reduced():
    parts = sdp._split_block(whole_block(copies_instance(0, complex_type=True)))
    assert sorted((p.g0.shape[0], p.copies) for p in parts) == [(OTHER_SIZE, 1),
                                                                (COPIES * COPY_SIZE, 1)]


def test_copies_refused_when_verification_sees_a_coupling():
    parts = sdp._split_block(whole_block(copies_instance(0, between=1e-9)))
    assert sorted((p.g0.shape[0], p.copies) for p in parts) == [(OTHER_SIZE, 1),
                                                                (COPIES * COPY_SIZE, 1)]


def test_describe_blocks_reports_the_solved_blocks_per_pencil():
    inst, _ = relax.to_sdp_instance(relax.assemble(relax.HOMOGENIZED, product_quartic(), 3))
    sol = sdp.solve_with_restarts(inst)
    desc = sdp.describe_blocks(inst, sol)
    assert list(desc) == [pen.label for pen in inst.pencils]
    for j, pen in enumerate(inst.pencils):
        rep = desc[pen.label]
        assert rep["size"] == pen.size
        assert len(rep["split"]) == len(rep["copies"])
        assert list(zip(rep["split"], rep["copies"])) == [
            (size, copies) for i, size, copies in sol.blocks if i == j]
        assert rep["compressed"] == sum(n * d for n, d in zip(rep["split"], rep["copies"]))
        assert rep["compressed"] <= pen.size
    # the moment pencil holds identical copies of a block
    assert max(desc["moment"]["copies"]) > 1


def test_describe_blocks_of_a_vacuous_pencil_and_a_settled_instance():
    # on the subspace y2 = 0 the second pencil vanishes
    inst = sdp.SdpInstance(c=np.array([1.0, 0.0]), A=np.array([[0.0, 1.0]]), b=np.zeros(1),
                           pencils=[dense_pencil("seen", [np.eye(1), np.zeros((1, 1))]),
                                    dense_pencil("vacuous", [np.zeros((2, 2)), np.eye(2)])])
    desc = sdp.describe_blocks(inst, sdp.solve_with_restarts(inst))
    assert desc["vacuous"] == {"size": 2, "compressed": 0, "split": [], "copies": []}
    assert desc["seen"]["compressed"] == 1
    # the equality fixes y, so no block is solved
    settled = exit_instance([1], [[[1]]], [[0]], A=[[1]], b=[1])
    assert sdp.describe_blocks(settled, sdp.solve_with_restarts(settled)) is None


def test_copy_reduced_solve_matches_the_unreduced_solve(monkeypatch):
    inst = copies_instance(1)
    reduced = sdp.solve(inst)
    assert sorted(reduced.blocks) == [(0, COPY_SIZE, COPIES), (0, OTHER_SIZE, 1)]
    monkeypatch.setattr(sdp, "_copy_basis", lambda *args: None)
    plain = sdp.solve(inst)
    assert sorted(plain.blocks) == [(0, OTHER_SIZE, 1), (0, COPIES * COPY_SIZE, 1)]
    assert reduced.status is plain.status is sdp.SdpStatus.OPTIMAL
    for a, b in ((reduced.primal_obj, plain.primal_obj), (reduced.dual_obj, plain.dual_obj)):
        assert abs(a - b) <= 1e-7 * max(1.0, abs(b))
    pen = inst.pencils[0]
    residuals = []
    for sol in (reduced, plain):
        dual = sol.pencil_duals[0]
        lam = np.linalg.eigvalsh(dual)
        assert lam[0] >= -1e-12 * lam[-1]
        # the certificate side: c = coeffs^T vec(X)
        resid = np.linalg.norm(inst.c - pen.coeffs.T @ dual.reshape(-1))
        residuals.append(resid / (1.0 + np.linalg.norm(inst.c)))
    assert max(residuals) <= 1e-8
    assert residuals[0] <= 10 * residuals[1] + 1e-14


def test_split_solve_loads_no_csgraph():
    """scipy.sparse.csgraph costs about 2 MB of resident memory on import."""
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_sdp import direct_sum_instance\n"
        "from homsos import sdp\n"
        "assert len(sdp.solve(direct_sum_instance(0)).blocks) == 2\n"
        "print(sorted(m for m in sys.modules if 'csgraph' in m))\n")
    src = str(Path(sdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# -- streaming facial reduction ------------------------------------------------

def whole_stack_blocks(inst):
    """(pencil index, g0, basis, glin) of each compressed pencil, formed as
    ``_reduce`` formed them before it streamed the products: the whole
    product, its symmetrized copy and the QR stack at once."""
    y0 = np.linalg.lstsq(inst.A, inst.b, rcond=None)[0]
    nullmap = scipy.linalg.null_space(inst.A)
    mz = nullmap.shape[1]
    out = []
    for j, pen in enumerate(inst.pencils):
        s = pen.size
        g0 = sdp._sym(pen.evaluate(y0))
        glin = np.asarray(pen.coeffs @ nullmap).reshape(s, s, mz).transpose(2, 0, 1)
        glin = 0.5 * (glin + glin.transpose(0, 2, 1))
        stacked = np.empty(((mz + 1) * s, s), order="F")
        stacked[:s] = g0
        stacked[s:] = glin.reshape(-1, s)
        tri = scipy.linalg.qr(stacked, mode="raw", overwrite_a=True)[1]
        sv, vt = scipy.linalg.svd(tri)[1:]
        if sv.size == 0 or sv[0] <= 1e-13:
            continue
        rank = int(np.sum(sv > 1e-9 * sv[0]))
        if rank == s:
            basis = np.eye(s)
        else:
            basis = vt[:rank].T
            g0 = sdp._sym(basis.T @ g0 @ basis)
            glin = np.matmul(np.matmul(basis.T, glin), basis)
            glin = 0.5 * (glin + glin.transpose(0, 2, 1))
        out.append((j, g0, basis, glin))
    return out


def assert_streamed_blocks_equal(monkeypatch, inst):
    """The blocks ``_reduce`` hands to ``_split_block`` equal the whole-stack
    ones bit for bit, in the same memory order."""
    seen = []  # the coverage test may replace a block's glin afterwards
    split = sdp._split_block
    monkeypatch.setattr(sdp, "_split_block", lambda blk: seen.append(
        (blk.orig, blk.g0, blk.basis, blk.glin)) or split(blk))
    sdp._reduce(inst)
    ref = whole_stack_blocks(inst)
    assert [j for j, *_ in seen] == [j for j, *_ in ref]
    for got, want in zip(seen, ref):
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a, b)
        assert got[3].strides == want[3].strides
    return seen


@pytest.mark.parametrize("prob, k, sizes", [
    (product_quartic, 4, [105, 50]),
    (chain_with_product, 2, [27] + [7] * 7),     # the 7 x 7 blocks stay whole
    (cubic_unbounded, 3, [16, 4, 4, 9])])
def test_streamed_reduction_keeps_every_bit(monkeypatch, prob, k, sizes):
    inst, _ = relax.to_sdp_instance(relax.assemble(relax.HOMOGENIZED, prob(), k))
    blocks = assert_streamed_blocks_equal(monkeypatch, inst)
    assert [basis.shape[1] for _, _, basis, _ in blocks] == sizes


def chunk_edge_instance(s, mz, rank):
    """One sparse s x s pencil over mz + 1 moments with one equality row;
    its matrices share a kernel unless rank = s."""
    rng = np.random.default_rng(100 * mz + rank)
    low = rng.standard_normal((s, rank))
    mats = [low @ (w + w.T) @ low.T for w in rng.standard_normal((mz + 1, rank, rank))]
    mats[0] += low @ low.T
    coeffs = scipy.sparse.csr_matrix(np.stack([a.reshape(-1) for a in mats], axis=1))
    return sdp.SdpInstance(c=np.zeros(mz + 1), A=np.eye(1, mz + 1), b=np.ones(1),
                           pencils=[sdp.SdpPencil("p", s, coeffs)])


@pytest.mark.parametrize("s, chunks, rank", [(40, 1, 4), (40, 1, 40), (40, 2, 5), (40, 0, 3),
                                             (100, 2, 6)])
def test_streamed_reduction_keeps_every_bit_at_chunk_edges(monkeypatch, s, chunks, rank):
    # mz is one past a whole number of chunks, so the last chunk has one
    # column: its matrices are no more contiguous than in a whole stack,
    # and np.matmul rotates them the same way.  A 100 x 100 pencil has
    # chunks of 2 columns, the floor; chunks = 0 gives mz = 1.
    width = sdp._chunk_width(s, 10 ** 6)
    assert width == (10 if s == 40 else 2)
    inst = chunk_edge_instance(s, chunks * width + 1, rank)
    blocks = assert_streamed_blocks_equal(monkeypatch, inst)
    assert [basis.shape[1] for _, _, basis, _ in blocks] == [rank]


def test_reduce_peak_stays_inside_the_resource_estimate():
    """Unreduced product_quartic at order 3: the whole stacks peaked at
    1.34 times the estimate, the streamed ones at 0.59 and, written in
    place, at 0.58."""
    prob = product_quartic()
    inst, _ = relax.to_sdp_instance(relax.assemble(relax.HOMOGENIZED, prob, 3,
                                                   _symmetry=False))
    _, _, eqs, ineqs, nv = relax._relaxed_space(relax.HOMOGENIZED, prob, 3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sdp._reduce(inst)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 0 < peak <= relax._dense_bytes(nv, 3, eqs, ineqs)


def test_reduce_peaks_at_the_qr_stack_and_one_chunk(monkeypatch):
    """product_quartic at order 4 (moment pencil 126 x 126, mz = 90): at its
    peak ``_reduce`` holds the moment pencil's QR stack (11.0 MiB) and one
    chunk's sparse product on top of what it held when the stack was made
    (A's SVD factors and g0, 0.4 MiB), give or take numpy's ufunc buffers.
    Filling the stack through a chunk buffer and a reshaped copy of it
    peaked 17.3 MiB above entry; the rotation in ``_split_block`` took
    another 6.3 MiB over the compressed stack."""
    inst, _ = relax.to_sdp_instance(relax.assemble(relax.HOMOGENIZED, product_quartic(), 4))
    s, mz = inst.pencils[0].size, inst.dim - inst.A.shape[0]
    assert (s, mz) == (126, 90)
    held = []
    factor = sdp._stack_factor
    monkeypatch.setattr(sdp, "_stack_factor", lambda pen, *rest: held.append(
        tracemalloc.get_traced_memory()[0]) or factor(pen, *rest))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sdp._reduce(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = 8 * (mz + 1) * s * s
    raw = 8 * s * s * sdp._chunk_width(s, mz)
    assert peak - held[0] <= stack + raw + (1 << 18)


def test_ipm_holds_one_b_stack(monkeypatch):
    """chain_with_product at order 2 (mz = 181, largest block 27): the
    interior-point loop holds one (mz, 27, 27) B stack, one chunk of left
    products and, while it factors, the Schur matrix and its jittered copy,
    factored in place.  A second stack of left products, and the copy that
    dpotrf made of the jittered matrix, took its peak above entry from 2.27
    to 3.15 times the stack."""
    inst, _ = relax.to_sdp_instance(relax.assemble(relax.HOMOGENIZED, chain_with_product(), 2))
    red = sdp._reduce(inst)
    monkeypatch.setattr(sdp, "MAX_ITER", 5)
    mz, s_max = red.chat.size, max(blk.g0.shape[0] for blk in red.blocks)
    assert (mz, s_max) == (181, 27)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert sdp._ipm(red, sdp.SolveOptions(), (1.0, 0.98))[4] == 5
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.8 * 8 * mz * s_max ** 2


def test_coverage_test_stays_inside_the_resource_estimate():
    """Standard relaxation with no equalities whose five pencils (28 and
    4 x 21) keep full rank: joining their stacks for the coverage test
    peaked at 1.58 times the estimate."""
    xs = [Polynomial.variable(2, i) for i in range(2)]
    rng = np.random.default_rng(1)
    f = sum((float(c) * x + x**4 for c, x in zip(rng.standard_normal(2), xs)),
            Polynomial.zero(2))
    ineqs = tuple(Polynomial.constant(2, 1.0 + j)
                  - sum((float(w) * x**2 for w, x in zip(rng.uniform(0.5, 2.0, 2), xs)),
                        Polynomial.zero(2))
                  for j in range(4))
    prob = PopProblem(2, f, (), ineqs)
    inst, _ = relax.to_sdp_instance(relax.assemble(relax.STANDARD, prob, 6))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        red = sdp._reduce(inst)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [blk.glin.shape for blk in red.blocks] == [(90, 28, 28)] + [(90, 21, 21)] * 4
    assert 0 < peak <= relax._dense_bytes(2, 6, (), ineqs)


def test_physical_memory_honours_cgroup_limits(tmp_path, monkeypatch):
    v2, v1 = tmp_path / "memory.max", tmp_path / "memory" / "memory.limit_in_bytes"
    v1.parent.mkdir()
    monkeypatch.setattr(sdp, "_CGROUP_ROOT", str(tmp_path))
    monkeypatch.setattr(sdp, "_SELF_CGROUP", str(tmp_path / "missing"))
    machine = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert sdp.physical_memory() == machine      # neither file readable
    v2.write_text("max\n")
    v1.write_text(f"{2 * machine}\n")            # v1 reads as a huge number
    assert sdp.physical_memory() == machine
    v1.write_text("3000000\n")
    assert sdp.physical_memory() == 3000000
    v2.write_text("1048576\n")
    assert sdp.physical_memory() == 1048576


@pytest.mark.parametrize("sub, name, line, limits, expected", [
    ("memory", "memory.limit_in_bytes", "4:memory:/api/job",
     {"api/job": "3000000", "api": "5000000"}, 3000000),
    ("", "memory.max", "0::/api/job", {"api/job": "max", "api": "2000000"}, 2000000)])
def test_physical_memory_reads_the_process_cgroup(tmp_path, monkeypatch, sub, name, line,
                                                  limits, expected):
    """A limit set only on the process's own cgroup (v1) or on an ancestor
    below the root (v2) counts; "max" and other controllers' cgroups do not."""
    root, own = tmp_path / "cgroup", tmp_path / "self_cgroup"
    monkeypatch.setattr(sdp, "_CGROUP_ROOT", str(root))
    monkeypatch.setattr(sdp, "_SELF_CGROUP", str(own))
    own.write_text(f"5:cpu,cpuacct:/jobs\n{line}\n")
    limits = {**limits, "jobs": "1000"}
    for path, text in limits.items():
        (root / sub / path).mkdir(parents=True, exist_ok=True)
        (root / sub / path / name).write_text(text + "\n")
    assert sdp.physical_memory() == expected
