import math

import numpy as np
import pytest

from homsos import driver, extract, relax, sdp
from homsos.extract import (Atom, AtomExtractionError, build_tms, classify,
                            extract_atoms, flat_truncation, moment_matrix,
                            numerical_rank)
from homsos.poly import basis_index, basis_size, monomial_basis

from conftest import ALL_PROBLEMS


def test_numerical_rank_basics():
    assert numerical_rank(np.eye(3), 1e-6) == 3
    u = np.array([1.0, 2.0, -1.0])
    assert numerical_rank(np.outer(u, u)) == 1
    assert numerical_rank(np.zeros((4, 4))) == 0


def test_numerical_rank_four_atom_oracle():
    # atoms (+-(1+sqrt(2)), +-1) lifted to the sphere in (x0, x) coordinates
    atoms = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            u = np.array([s1 * (1.0 + math.sqrt(2.0)), s2 * 1.0])
            lift = np.concatenate(([1.0], u)) / math.sqrt(1.0 + u @ u)
            atoms.append(Atom(weight=0.25, point=lift))
    y = build_tms(atoms, 3, 2)
    assert numerical_rank(moment_matrix(y, 3, 2, 2)) == 4


def test_moment_matrix_layout():
    atoms = [Atom(weight=2.0, point=np.array([0.5, -1.0]))]
    y = build_tms(atoms, 2, 2)
    m1 = moment_matrix(y, 2, 2, 1)
    u = np.array([1.0, 0.5, -1.0])
    assert np.allclose(m1, 2.0 * np.outer(u, u))


def loop_moment_matrix(y, nvars, k, t):
    """``moment_matrix`` as the former double loop over dict lookups built it."""
    idx = basis_index(nvars, 2 * k)
    rows = monomial_basis(nvars, t)
    mat = np.empty((len(rows), len(rows)))
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            mat[i, j] = mat[j, i] = y[idx[tuple(p + q for p, q in zip(a, rows[j]))]]
    return mat


@pytest.mark.parametrize("prob", ALL_PROBLEMS)
def test_moment_matrix_matches_the_loop(prob):
    problem = prob()
    k = driver.default_k_min(problem, relax.HOMOGENIZED)
    rel = relax.assemble(relax.HOMOGENIZED, problem, k)
    inst, _ = relax.to_sdp_instance(rel)
    y = relax.full_solution(rel, sdp.solve(inst)).y
    for t in range(k + 1):
        got, want = moment_matrix(y, rel.nvars, k, t), loop_moment_matrix(y, rel.nvars, k, t)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)


def test_flat_truncation_single_atom():
    atoms = [Atom(weight=1.0, point=np.array([0.3, 0.8, -0.2]))]
    y = build_tms(atoms, 3, 3)
    assert flat_truncation(y, 3, 3, 2) == 2
    assert flat_truncation(y, 3, 3, 1) == 1


def test_flat_truncation_absent_for_full_rank():
    rng = np.random.default_rng(0)
    atoms = [Atom(weight=rng.uniform(0.5, 1.5),
                  point=rng.standard_normal(2)) for _ in range(60)]
    y = build_tms(atoms, 2, 3)
    assert flat_truncation(y, 2, 3, 2) is None
    assert flat_truncation(y, 2, 3, 1) is None


def pairwise_flat_truncation(y, nvars, k, d_k, rank_tol=1e-6):
    """``flat_truncation`` as it was before: both ranks computed at every t."""
    for t in range(d_k, k + 1):
        if numerical_rank(moment_matrix(y, nvars, k, t), rank_tol) == \
                numerical_rank(moment_matrix(y, nvars, k, t - d_k), rank_tol):
            return t
    return None


def test_flat_truncation_ranks_each_order_once(monkeypatch):
    sizes = {1: 0, 3: 1, 6: 2, 10: 3}
    rng = np.random.default_rng(0)
    full = build_tms([Atom(weight=rng.uniform(0.5, 1.5), point=rng.standard_normal(2))
                      for _ in range(60)], 2, 3)
    seen = []
    rank = extract.numerical_rank
    monkeypatch.setattr(extract, "numerical_rank",
                        lambda mat, *args: seen.append(sizes[mat.shape[0]]) or rank(mat, *args))
    assert flat_truncation(full, 2, 3, 1) is None
    assert sorted(seen) == [0, 1, 2, 3]
    # the early exit still leaves the larger orders alone
    seen.clear()
    flat = build_tms([Atom(1.0, np.array([0.6, 0.8]))], 2, 3)
    assert flat_truncation(flat, 2, 3, 1) == 1
    assert sorted(seen) == [0, 1]


def test_flat_truncation_matches_pairwise_ranks():
    rng = np.random.default_rng(1)
    for _ in range(20):
        atoms = [Atom(weight=rng.uniform(0.5, 1.5), point=rng.standard_normal(2))
                 for _ in range(rng.integers(1, 12))]
        y = build_tms(atoms, 2, 4)
        for d_k in (1, 2, 3):
            for tol in (1e-6, 1e-3):
                assert flat_truncation(y, 2, 4, d_k, tol) == \
                    pairwise_flat_truncation(y, 2, 4, d_k, tol)


def test_flat_truncation_validates_input():
    with pytest.raises(ValueError):
        flat_truncation(np.zeros(5), 2, 2, 1)
    y = build_tms([Atom(1.0, np.array([1.0, 0.0]))], 2, 2)
    with pytest.raises(ValueError):
        flat_truncation(y, 2, 2, 0)


def test_extract_two_atoms_exact():
    atoms = [Atom(weight=0.3, point=np.array([0.6, 0.8])),
             Atom(weight=0.7, point=np.array([1.0, 0.0]))]
    y = build_tms(atoms, 2, 2)
    t = flat_truncation(y, 2, 2, 1)
    got = extract_atoms(y, 2, 2, t)
    assert len(got) == 2
    got.sort(key=lambda a: a.weight)
    assert np.allclose(got[0].point, [0.6, 0.8], atol=1e-8)
    assert got[0].weight == pytest.approx(0.3, abs=1e-8)
    assert np.allclose(got[1].point, [1.0, 0.0], atol=1e-8)
    assert got[1].weight == pytest.approx(0.7, abs=1e-8)


def test_extract_rank_one():
    point = np.array([0.2, -0.5, 0.84])
    y = build_tms([Atom(weight=1.3, point=point)], 3, 2)
    got = extract_atoms(y, 3, 2, flat_truncation(y, 3, 2, 1))
    assert len(got) == 1
    assert np.allclose(got[0].point, point, atol=1e-9)
    assert got[0].weight == pytest.approx(1.3, abs=1e-9)


def _random_separated_atoms(rng, nvars, count, min_gap=0.45):
    while True:
        pts = rng.uniform(-1.2, 1.2, size=(count, nvars))
        gaps = [np.linalg.norm(pts[i] - pts[j])
                for i in range(count) for j in range(i + 1, count)]
        if not gaps or min(gaps) > min_gap:
            return [Atom(weight=float(rng.uniform(0.2, 2.0)), point=pts[i])
                    for i in range(count)]


@pytest.mark.parametrize("trial", range(10))
def test_round_trip_random(trial):
    rng = np.random.default_rng(100 + trial)
    nvars = int(rng.integers(2, 5))
    count = int(rng.integers(1, 6))
    atoms = _random_separated_atoms(rng, nvars, count)
    k = 3
    y = build_tms(atoms, nvars, k)
    t = flat_truncation(y, nvars, k, 1)
    assert t is not None
    got = extract_atoms(y, nvars, k, t)
    assert len(got) == count
    for atom in atoms:
        dists = [np.linalg.norm(g.point - atom.point) for g in got]
        j = int(np.argmin(dists))
        assert dists[j] < 1e-6
        assert abs(got[j].weight - atom.weight) < 1e-6


def test_extraction_error_on_inconsistent_moments():
    rng = np.random.default_rng(5)
    atoms = _random_separated_atoms(rng, 2, 3)
    y = build_tms(atoms, 2, 2)
    y = y + rng.normal(scale=2e-2, size=y.shape)  # not atomic any more
    try:
        got = extract_atoms(y, 2, 2, 2, rank_tol=1e-12)
    except AtomExtractionError as exc:
        assert "residual" in str(exc) or "condition" in str(exc) \
            or "complex" in str(exc)
    else:
        # if extraction survives the noise, it must report a real rank drop
        assert len(got) <= basis_size(2, 2)


def test_classify_regular_origin():
    aset = classify([Atom(weight=1.0, point=np.array([1.0, 0.0, 0.0]))], d=3)
    assert len(aset.regular) == 1
    u, nu = aset.regular[0]
    assert np.allclose(u, [0.0, 0.0])
    assert nu == pytest.approx(1.0)
    assert not aset.at_infinity and not aset.flagged
    assert aset.regular_weight == pytest.approx(1.0)


def test_classify_mixed_atoms():
    # one regular atom at u = (1, 1) plus one direction at infinity
    tau = 1.0 / math.sqrt(3.0)
    reg = Atom(weight=1.0 / tau**3, point=np.array([tau, tau, tau]))
    inf = Atom(weight=0.4, point=np.array([0.0, 1.0, 0.0]))
    aset = classify([reg, inf], d=3)
    assert len(aset.regular) == 1 and len(aset.at_infinity) == 1
    u, nu = aset.regular[0]
    assert np.allclose(u, [1.0, 1.0], atol=1e-12)
    assert nu == pytest.approx(1.0)
    v, a = aset.at_infinity[0]
    assert np.allclose(v, [1.0, 0.0])
    assert a == pytest.approx(0.4)


def test_classify_weight_rule_rejects_noise_tau():
    # tau inflated by solver noise: weight * tau^d is tiny -> at infinity
    noisy = Atom(weight=1.4, point=np.array([1.7e-3, 0.0, 1.0]))
    aset = classify([noisy], d=3)
    assert not aset.regular
    assert len(aset.at_infinity) == 1
    assert np.allclose(aset.at_infinity[0][0], [0.0, 1.0])


def test_classify_flags_negative_tau():
    bad = Atom(weight=1.0, point=np.array([-0.5, 0.5, 0.7]))
    aset = classify([bad], d=2)
    assert aset.flagged == [bad]
    assert not aset.regular and not aset.at_infinity


def test_classify_flip_for_even_variant():
    tau = 0.6
    atom = Atom(weight=1.0 / tau**4, point=np.array([-tau, -0.8, 0.0]))
    aset = classify([atom], d=4, flip_negative=True)
    assert not aset.flagged
    u, nu = aset.regular[0]
    assert np.allclose(u, [0.8 / 0.6, 0.0])
    assert nu == pytest.approx(1.0)
