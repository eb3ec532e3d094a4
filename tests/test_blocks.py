"""The drivers' sampling of the problem and its reduction on each element
run over blocks of ``mesh._BLOCK`` triangles, and the sparse builders over
blocks of triangles, edges or matrix rows: the block size changes no bit of
any result, no kernel holds more than a block's worth of per-point
temporaries, no builder more than its kept triplets and their CSR, and the
reduced sample keeps a few floats per triangle."""

import numpy as np
import pytest

from curladapt import adaptive_solve, linalg
from curladapt import mesh as mesh_module
from curladapt.edge_fem import (DofMap, _mesh_sample, _reduced, _Reduced, assemble_system,
                                discrete_gradient, energy_error, error_points, prolongation)
from curladapt.estimators import indicator, oscillations
from curladapt.mesh import bisect_refine, build_structured_unit_square, red_refine
from curladapt.problems import interface_problem, paper_problem
from reference import bisected_two_region_mesh, random_field, traced_memory


def arrays_of(reduced):
    """The arrays of a reduced sample, in field order."""
    if isinstance(reduced, np.ndarray):
        return [reduced]
    if isinstance(reduced, tuple):
        return [a for part in reduced for a in arrays_of(part)]
    return []


def same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def kernel_outputs(mesh, problem, solution):
    sample = problem.sample(error_points(mesh))
    matrix, b, _ = assemble_system(mesh, problem.coefficients, sample)
    breakdown = indicator(solution, problem, sample=sample)
    osc = oscillations(solution, problem)
    driver_sample = _mesh_sample(problem, mesh)
    # the u of a trig problem's drivers' sample is its f at scale 1/kappa
    assert driver_sample.u.y is driver_sample.f.y and driver_sample.u.rem is driver_sample.f.rem
    assert driver_sample.u.scale == 1.0 / problem.coefficients.kappa
    from_sample, b_from_sample, _ = assemble_system(mesh, problem.coefficients, driver_sample)
    reduced = _reduced(mesh, sample, _Reduced._fields)
    gradient = discrete_gradient(solution.dofmap)
    fine = bisect_refine(mesh, set(range(0, mesh.num_triangles, 2)))
    prolong = prolongation(solution.dofmap, DofMap(fine))
    gradient_diag = linalg.hybrid_smoother(matrix, gradient).gradient_diag
    return {
        "matrix": (matrix.indptr, matrix.indices, matrix.data), "b": (b,),
        "energy_error": (energy_error(solution, problem.coefficients, sample),),
        "indicator": (breakdown.r1, breakdown.r2, breakdown.j1, breakdown.j2),
        "oscillations": (osc.osc1, osc.osc2, osc.element_part1, osc.edge_part1,
                         osc.element_part2, osc.edge_part2),
        "points_sample": (sample.u, sample.div_f),
        "sample": arrays_of(reduced),
        "sample_f": arrays_of((reduced.f, reduced.div_f)),
        "driver_sample": arrays_of(driver_sample),
        "driver_sample_f": arrays_of((driver_sample.f, driver_sample.div_f)),
        "matrix_from_sample": (from_sample.indptr, from_sample.indices, from_sample.data),
        "b_from_sample": (b_from_sample,),
        "gradient": (gradient.indptr, gradient.indices, gradient.data),
        "prolongation": (prolong.indptr, prolong.indices, prolong.data),
        "gradient_diag": (gradient_diag,),
        "gradient_diag_whole": (
            np.asarray(gradient.multiply(matrix @ gradient).sum(axis=0)).ravel(),),
    }


@pytest.mark.parametrize("block", [3, 4, 64, 1000, None, 1 << 20],
                         ids=["3", "4", "64", "1000", "default", "above-T"])
def test_block_size_changes_no_bit(monkeypatch, block):
    # every reduction is row-local and every builder keeps its triplets in
    # row order, so no block size moves a bit, odd ones neither; the
    # smoother's row block varies with the others.  The mass term is of the
    # size of the curl term: where the curl term dominates, A G cancels to
    # a few bits, and diag(G^T A G) sums exactly in any order
    problem = interface_problem(1.0, 1e-2, 1e2)
    mesh = bisected_two_region_mesh(problem)
    solution = random_field(mesh, 5)
    expected = kernel_outputs(mesh, problem, solution)
    if block is not None:
        monkeypatch.setattr(mesh_module, "_BLOCK", block)
        monkeypatch.setattr(linalg, "_ROW_BLOCK", block)
    actual = kernel_outputs(mesh, problem, solution)
    for name, arrays in expected.items():
        assert all(same_bytes(x, y) for x, y in zip(arrays, actual[name])), name
    # f and div f of the drivers' per-block sample and the load read from
    # it are those of the reduced whole-mesh sample and the load from its
    # f, and diag(G^T A G) is scipy's column sum of the whole G * (A G),
    # byte for byte
    for name, whole in [("driver_sample_f", "sample_f"), ("matrix_from_sample", "matrix"),
                        ("b_from_sample", "b"), ("gradient_diag", "gradient_diag_whole")]:
        assert all(same_bytes(x, y) for x, y in zip(actual[name], expected[whole])), name


def test_kernels_add_less_than_one_full_mesh_vector_field():
    # on 32,768 triangles: a (T, 16, 2) float64 array is 8 MiB, and each
    # kernel adds less than that to what it keeps
    problem = paper_problem(1e-3, 1e3)
    mesh = build_structured_unit_square(4)
    for _ in range(5):
        mesh = red_refine(mesh)
    assert mesh.num_triangles == 32_768
    points = error_points(mesh)
    sample = problem.sample(points)
    solution = random_field(mesh, 7)
    kernels = {
        "energy_error": lambda: energy_error(solution, problem.coefficients, sample),
        "indicator": lambda: indicator(solution, problem, sample=sample),
        "sample": lambda: problem.sample(points),
    }
    for call in kernels.values():
        call()  # fills the per-mesh and per-field caches the kernels read
    peaks = {}
    for name, call in kernels.items():
        _, peak, kept = traced_memory(call)
        peaks[name] = peak - kept
    assert all(peak < points.nbytes for peak in peaks.values()), (peaks, points.nbytes)


def red_refined(levels):
    mesh = build_structured_unit_square(4)
    for _ in range(levels):
        mesh = red_refine(mesh)
    return mesh


def red_refined_32768():
    mesh = red_refined(5)
    assert mesh.num_triangles == 32_768
    return mesh


def test_driver_sampling_adds_less_than_one_full_mesh_vector_field():
    # the points of the whole mesh, (T, 16, 2) float64 or 8 MiB, are never
    # formed: sampling them whole added 10.0 MiB to the sample it returns
    problem = paper_problem(1e-3, 1e3)
    mesh = red_refined_32768()
    _mesh_sample(problem, mesh)  # fills the per-mesh caches
    _, peak, kept = traced_memory(lambda: _mesh_sample(problem, mesh))
    assert peak - kept < error_points(mesh).nbytes, peak - kept


def test_driver_sample_holds_at_most_80_bytes_per_triangle():
    # reduced on each element: 9 floats (72 B) per triangle of a trig
    # problem, where u and div f at the 16 points took 384 B
    problem = paper_problem(1e-3, 1e3)
    mesh = red_refined_32768()
    _mesh_sample(problem, mesh)  # fills the per-mesh caches
    sample, _, held = traced_memory(lambda: _mesh_sample(problem, mesh))
    assert sample is not None
    assert held <= 80 * mesh.num_triangles, held / mesh.num_triangles


def test_load_from_the_sample_adds_less_than_10_mib():
    # the load reads the moments of f from the drivers' reduced sample:
    # handed f at the whole mesh's points, formed for the call, the
    # assembly added 20.4 MiB
    problem = paper_problem(1e-3, 1e3)
    mesh = red_refined_32768()
    sample = _mesh_sample(problem, mesh)
    assemble_system(mesh, problem.coefficients, sample)  # fills the per-mesh caches
    _, peak, kept = traced_memory(lambda: assemble_system(mesh, problem.coefficients, sample))
    assert peak - kept < 10 * 2 ** 20, peak - kept


@pytest.mark.parametrize("builder, bound_mib", [("assembly", 6), ("smoother", 4),
                                               ("prolongation", 4.5)])
def test_sparse_builder_holds_little_beyond_its_triplets_and_their_csr(builder, bound_mib):
    # the traced peak above what the builder returns, on 32,768 triangles
    # (48,896 dofs; P from the 8,192 of the level below): A with the whole
    # mesh's local matrices (T, 3, 3) and masked triplet copies added
    # 7.90 MiB, P with its whole-mesh weights and triplets 6.46 MiB, and
    # diag(G^T A G) with A G and G * (A G) whole 6.51 MiB; built block by
    # block, 4.34, 2.78 and 2.54 MiB
    problem = paper_problem(1e-3, 1e3)
    coarse = red_refined(4)
    mesh = red_refine(coarse)
    sample = _mesh_sample(problem, mesh)
    matrix, _, dofmap = assemble_system(mesh, problem.coefficients, sample)
    gradient, coarse_dofmap = discrete_gradient(dofmap), DofMap(coarse)
    call = {"assembly": lambda: assemble_system(mesh, problem.coefficients, sample),
            "smoother": lambda: linalg.hybrid_smoother(matrix, gradient),
            "prolongation": lambda: prolongation(coarse_dofmap, dofmap)}[builder]
    call()  # fills the per-mesh caches
    _, peak, kept = traced_memory(call)
    assert peak - kept <= bound_mib * 2 ** 20, (peak - kept) / 2 ** 20


def test_adaptive_run_stays_under_its_traced_peak():
    # tracemalloc peak above the returned records of a 5,000-dof run,
    # numpy's buffers included: 3.91 MiB with the sample reduced on each
    # element, 4.93 MiB with the per-block sample of u and div f at the
    # points, 5.57 MiB with the points and f of the whole mesh; the bound
    # leaves 0.29 MiB (7.3%) above the first
    _, peak, kept = traced_memory(lambda: adaptive_solve(paper_problem(1e-5, 1e5),
                                                         max_dofs=5000))
    assert peak - kept < 4.2 * 2 ** 20, (peak - kept) / 2 ** 20
