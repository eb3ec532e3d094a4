import numpy as np
import pytest
import scipy.sparse

from curladapt.linalg import (ENERGY_DELAY, ENERGY_RELATIVE_TOL, CgNonConvergence,
                              CgResult, Level, cg_solve, hybrid_smoother)
from reference import from_triplet_arrays, from_triplets


def poisson_5point(n):
    """2D 5-point Laplacian on an n-by-n interior grid (SPD)."""
    entries = []
    def idx(i, j):
        return i * n + j
    for i in range(n):
        for j in range(n):
            entries.append((idx(i, j), idx(i, j), 4.0))
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if 0 <= i + di < n and 0 <= j + dj < n:
                    entries.append((idx(i, j), idx(i + di, j + dj), -1.0))
    return from_triplets(n * n, n * n, entries)


def test_from_triplets_sums_duplicates():
    m = from_triplets(1, 1, [(0, 0, 1.0), (0, 0, 2.0)])
    assert m.toarray()[0, 0] == pytest.approx(3.0)


def test_from_triplets_empty():
    m = from_triplets(2, 2, [])
    assert np.array_equal(m.toarray(), np.zeros((2, 2)))
    assert m.nnz == 0


def test_from_triplets_out_of_range():
    with pytest.raises(ValueError):
        from_triplets(2, 2, [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        from_triplets(2, 2, [(-1, 0, 1.0)])


def test_from_triplets_order_invariant_bitwise():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 7, size=200)
    cols = rng.integers(0, 5, size=200)
    vals = rng.standard_normal(200)
    base = from_triplet_arrays(7, 5, rows, cols, vals)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(200)
        other = from_triplet_arrays(7, 5, rows[perm], cols[perm], vals[perm])
        assert np.array_equal(base.indptr, other.indptr)
        assert np.array_equal(base.indices, other.indices)
        assert np.array_equal(base.data, other.data)  # bit identical


def test_from_triplets_matches_sort_then_sum_oracle():
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 6, size=80)
    cols = rng.integers(0, 6, size=80)
    vals = rng.standard_normal(80)
    built = from_triplet_arrays(6, 6, rows, cols, vals).toarray()
    dense = np.zeros((6, 6))
    for r, c, v in sorted(zip(rows, cols, vals)):
        dense[r, c] += v
    assert built == pytest.approx(dense, abs=1e-15)


def test_spmv_identity_and_diagonal():
    eye = from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(eye @ x, x)
    diag = from_triplets(2, 2, [(0, 0, 2.0), (1, 1, 3.0)])
    assert diag @ np.ones(2) == pytest.approx([2.0, 3.0])


def test_spmv_dimension_mismatch():
    m = from_triplets(2, 3, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        m @ np.ones(2)


@pytest.mark.parametrize("n", [10, 25, 50])
def test_spmv_against_dense_oracle(n):
    rng = np.random.default_rng(n)
    dense = rng.standard_normal((n, n))
    dense[rng.random((n, n)) < 0.6] = 0.0
    rows, cols = np.nonzero(dense)
    m = from_triplet_arrays(n, n, rows, cols, dense[rows, cols])
    for _ in range(5):
        x = rng.standard_normal(n)
        expected = dense @ x
        scale = np.abs(expected).max() + 1.0
        assert np.abs(m @ x - expected).max() < 1e-14 * scale


def test_cg_identity_single_iteration():
    eye = from_triplets(4, 4, [(i, i, 1.0) for i in range(4)])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    x, iterations, residual = cg_solve(eye, b)
    assert iterations <= 1
    assert x == pytest.approx(b)


def test_cg_zero_rhs():
    m = poisson_5point(4)
    x, iterations, residual = cg_solve(m, np.zeros(16))
    assert np.array_equal(x, np.zeros(16))
    assert iterations == 0 and residual == 0.0


def test_cg_poisson_against_dense_oracle():
    m = poisson_5point(16)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(256)
    x, iterations, residual = cg_solve(m, b, rel_tol=1e-12)
    oracle = np.linalg.solve(m.toarray(), b)
    assert np.linalg.norm(x - oracle) / np.linalg.norm(oracle) < 1e-10
    assert residual <= 1e-12


def test_cg_residual_contract_random_spd():
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = 30
        basis = rng.standard_normal((n, n))
        dense = basis @ basis.T + n * np.eye(n)
        rows, cols = np.nonzero(dense)
        m = from_triplet_arrays(n, n, rows, cols, dense[rows, cols])
        b = rng.standard_normal(n)
        x, iterations, residual = cg_solve(m, b, rel_tol=1e-11)
        assert np.linalg.norm(b - dense @ x) <= 1e-11 * np.linalg.norm(b)
        assert residual <= 1e-11


def test_cg_nonconvergence_reports_residual():
    m = poisson_5point(16)
    b = np.ones(256)
    with pytest.raises(CgNonConvergence) as info:
        cg_solve(m, b, rel_tol=1e-14, max_iter=3)
    assert info.value.iterations == 3
    achieved = np.linalg.norm(b - m.toarray() @ info.value.x) / np.linalg.norm(b)
    assert info.value.residual == pytest.approx(achieved, rel=1e-12)
    assert info.value.x.shape == (256,)


def test_cg_ends_its_steps_when_r_dot_z_underflows():
    # at this scale z = r / diag underflows once r is at rounding level, so
    # r . z reads zero on a nonzero residual: the steps end there, and CG
    # raises with the residual it reached instead of iterating on
    m = scipy.sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]) * 1e300)
    with pytest.raises(CgNonConvergence) as info:
        cg_solve(m, np.array([1.0, 0.3]), rel_tol=1e-20)
    assert info.value.iterations == 2
    assert 0 < info.value.residual < 1e-15


def test_cg_rejects_bad_diagonal():
    m = from_triplets(2, 2, [(0, 0, 1.0), (1, 1, -1.0)])
    with pytest.raises(ValueError):
        cg_solve(m, np.ones(2))
    zero_diag = from_triplets(2, 2, [(0, 1, 1.0), (1, 0, 1.0)])
    with pytest.raises(ValueError):
        cg_solve(zero_diag, np.ones(2))


@pytest.mark.parametrize("matrix, b", [
    (from_triplets(2, 3, [(0, 0, 1.0), (1, 1, 1.0)]), np.ones(2)),
    (from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 1.0)]), np.ones(3)),
], ids=["non_square", "long_rhs"])
def test_cg_rejects_mismatched_shapes(matrix, b):
    with pytest.raises(ValueError, match="square and match the right-hand side"):
        cg_solve(matrix, b)


def test_cg_rejects_an_indefinite_matrix():
    # the diagonal is positive, but the first direction (1, -1) has p.Ap = -2
    m = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)])
    with pytest.raises(ValueError, match="not positive definite"):
        cg_solve(m, np.array([1.0, -1.0]))


def test_cg_rejects_bad_tol():
    m = poisson_5point(2)
    for rel_tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            cg_solve(m, np.ones(4), rel_tol=rel_tol)
    for target in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            cg_solve(m, np.ones(4), rel_tol=None, energy_target=target)
    with pytest.raises(ValueError):  # two stopping rules at once
        cg_solve(m, np.ones(4), rel_tol=1e-8, energy_target=1e-3)
    with pytest.raises(ValueError):
        cg_solve(m, np.ones(4), x0=np.zeros(3))


def test_cg_result_keeps_three_fields():
    assert CgResult._fields == ("x", "iterations", "residual")


def energy_norm(matrix, v):
    return np.sqrt(v @ (matrix @ v))


@pytest.mark.parametrize("target", [1e-2, 1e-5, 1e-9])
def test_cg_energy_stop_meets_absolute_target(target):
    m = poisson_5point(16)
    b = np.random.default_rng(1).standard_normal(256)
    x, iterations, residual = cg_solve(m, b, rel_tol=None, energy_target=target)
    oracle = np.linalg.solve(m.toarray(), b)
    assert energy_norm(m, oracle - x) <= target
    assert iterations >= ENERGY_DELAY
    assert residual == pytest.approx(np.linalg.norm(b - m @ x) / np.linalg.norm(b))


def test_cg_energy_stop_relative_target():
    m = poisson_5point(16)
    b = np.random.default_rng(2).standard_normal(256)
    x, _, _ = cg_solve(m, b, rel_tol=None)
    oracle = np.linalg.solve(m.toarray(), b)
    assert energy_norm(m, oracle - x) <= np.sqrt(ENERGY_RELATIVE_TOL) * energy_norm(m, x)
    # the relative stop needs fewer iterations than a tight absolute one
    assert cg_solve(m, b, rel_tol=None)[1] < cg_solve(m, b, rel_tol=None,
                                                      energy_target=1e-12)[1]


def test_cg_energy_stop_before_the_delay_returns_cleanly():
    # Jacobi solves a diagonal system in one step: r.z is then exactly zero
    diag = from_triplets(3, 3, [(0, 0, 2.0), (1, 1, 4.0), (2, 2, 8.0)])
    b = np.array([1.0, 2.0, 3.0])
    with np.errstate(all="raise"):
        for target in (None, 1e-3):
            x, iterations, residual = cg_solve(diag, b, rel_tol=None, energy_target=target)
            assert iterations == 1 < ENERGY_DELAY
            assert np.array_equal(x, b / [2.0, 4.0, 8.0])
            assert residual == 0.0


def test_cg_energy_stop_max_iter_names_the_target():
    m = poisson_5point(16)
    b = np.ones(256)
    with pytest.raises(CgNonConvergence, match="energy target 1.000e-12") as info:
        cg_solve(m, b, rel_tol=None, energy_target=1e-12, max_iter=3)
    assert info.value.iterations == 3
    achieved = np.linalg.norm(b - m @ info.value.x) / np.linalg.norm(b)
    assert info.value.residual == pytest.approx(achieved, rel=1e-12)


def test_cg_resumes_from_x0():
    m = poisson_5point(8)
    exact = np.arange(64.0) - 20.0
    b = m @ exact  # integer arithmetic: b - A exact is exactly zero
    for rel_tol in (None, 1e-12):
        x, iterations, residual = cg_solve(m, b, rel_tol=rel_tol, x0=exact)
        assert iterations == 0 and residual == 0.0
        assert np.array_equal(x, exact)
    with pytest.raises(CgNonConvergence) as info:
        cg_solve(m, b, rel_tol=None, energy_target=1e-6, max_iter=ENERGY_DELAY)
    partial = info.value.x
    x, _, _ = cg_solve(m, b, rel_tol=None, energy_target=1e-6, x0=partial)
    assert energy_norm(m, exact - x) <= 1e-6
    assert np.array_equal(partial, info.value.x)  # x0 is not written to


def test_transpose_structural_symmetry():
    m = poisson_5point(5)
    t = m.T.tocsr()
    assert np.array_equal(m.indptr, t.indptr)
    assert np.array_equal(m.indices, t.indices)
    assert np.array_equal(m.data, t.data)


def test_cg_gradient_correction_on_generic_spd():
    m = poisson_5point(8)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(64)
    # any full-rank set of columns keeps the preconditioner SPD
    cols = rng.permutation(64)[:20]
    gradient = from_triplet_arrays(64, 20, np.concatenate([cols, (cols + 1) % 64]),
                                   np.tile(np.arange(20), 2),
                                   np.repeat([1.0, -1.0], 20))
    x, iterations, residual = cg_solve(m, b, rel_tol=1e-12,
                                       smoother=hybrid_smoother(m, gradient))
    oracle = np.linalg.solve(m.toarray(), b)
    assert np.linalg.norm(x - oracle) / np.linalg.norm(oracle) < 1e-10
    assert residual <= 1e-12


def test_cg_rejects_mismatched_gradient():
    m = poisson_5point(2)
    with pytest.raises(ValueError):
        hybrid_smoother(m, from_triplets(3, 1, [(0, 0, 1.0)]))
    with pytest.raises(ValueError):  # empty column: nothing to correct with
        hybrid_smoother(m, from_triplets(4, 2, [(0, 0, 1.0)]))
    with pytest.raises(ValueError, match="one diagonal entry per unknown"):
        cg_solve(m, np.ones(4), smoother=hybrid_smoother(poisson_5point(3)))
    coarse = hybrid_smoother(poisson_5point(1))
    for shape in ((4, 2), (3, 1)):  # a level of 1 unknown onto the 4 of m
        with pytest.raises(ValueError, match="onto the next"):
            cg_solve(m, np.ones(4), coarse=[Level(coarse, scipy.sparse.csr_matrix(shape))])
