import numpy as np
import pytest
import scipy.linalg

from homsos import sdp
from homsos.poly import Polynomial, PopProblem
from homsos import relax

from conftest import unattained_quartic


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
    for pen, dual, val in zip(inst.pencils, sol.pencil_duals, sol.pencil_values):
        grad -= np.asarray(pen.coeffs.T @ dual.reshape(-1)).reshape(-1)
        comp = max(comp, abs(float(np.tensordot(val, dual))))
    if inst.A.shape[0]:
        grad -= inst.A.T @ sol.eq_duals
    feas = max((-scipy.linalg.eigvalsh(v)[0] for v in sol.pencil_values),
               default=0.0)
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

    def probe(red, opts):
        seen.append(blas_threads())
        return ipm(red, opts)

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

    def counted_reduce(*args):
        calls["reduce"] += 1
        return reduce(*args)

    def counted_validate(self, *args):
        calls["validate"] += 1
        return validate(self, *args)

    def recorded_solve(inst, opts, **kwargs):
        sol = solve(inst, opts, **kwargs)
        attempts.append((opts, sol))
        return sol

    monkeypatch.setattr(sdp, "_reduce", counted_reduce)
    monkeypatch.setattr(sdp.SdpInstance, "validate", counted_validate)
    monkeypatch.setattr(sdp, "solve", recorded_solve)
    sdp.solve_with_restarts(inst)
    assert len(attempts) == 3
    assert calls == {"reduce": 1, "validate": 1}
    # a shared reduction gives every attempt the numbers of a fresh solve
    for opts, sol in attempts:
        fresh = solve(inst, opts)
        assert fresh.status is sol.status
        assert np.array_equal(fresh.y, sol.y)
        assert fresh.dual_obj == sol.dual_obj


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


def test_unattained_instance_never_reports_clean_optimum():
    # homogenized relaxation of x1^4 + (x1 x2 - 1)^2: the moment optimum is
    # not attained; the solver must not declare full optimality
    rel = relax.assemble(relax.HOMOGENIZED, unattained_quartic(), 3)
    inst, _ = relax.to_sdp_instance(rel)
    sol = sdp.solve_with_restarts(inst)
    assert sol.status in (sdp.SdpStatus.NUMERICAL_TROUBLE,
                          sdp.SdpStatus.ITER_LIMIT)
    assert abs(sol.primal_obj) < 1e-2


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


def test_medium_scale_random_instance():
    rng = np.random.default_rng(77)
    inst = random_strictly_feasible(rng, m=20, s=8, box=5.0)
    sol = sdp.solve(inst)
    assert sol.status is sdp.SdpStatus.OPTIMAL
    assert sol.gap < 1e-8
    stat, comp, feas = kkt_residuals(inst, sol)
    scale = 1.0 + abs(sol.primal_obj)
    assert stat < 1e-6 * scale and feas < 1e-7 * scale
