"""The per-point kernels run over blocks of ``mesh._BLOCK`` triangles: the
block size changes no bit of any result, and no kernel holds more than a
block's worth of per-point temporaries."""

import tracemalloc

import numpy as np
import pytest

from curladapt import mesh as mesh_module
from curladapt.edge_fem import (DiscreteSolution, DofMap, assemble_system, energy_error,
                               error_points)
from curladapt.estimators import indicator, oscillations
from curladapt.mesh import bisect_refine, build_structured_unit_square, red_refine, tag_regions
from curladapt.problems import interface_problem, paper_problem


def random_field(mesh, seed):
    dofmap = DofMap(mesh)
    coefficients = np.random.default_rng(seed).standard_normal(dofmap.n_free)
    return DiscreteSolution(mesh, dofmap, coefficients)


def bisected_two_region_mesh(problem):
    mesh = tag_regions(build_structured_unit_square(8), problem.classifier)
    while mesh.num_triangles <= 2 * mesh_module._BLOCK:
        mesh = bisect_refine(mesh, set(range(0, mesh.num_triangles, 3)))
    return mesh


def kernel_outputs(mesh, problem, solution):
    sample = problem.sample(error_points(mesh))
    matrix, b, _ = assemble_system(mesh, problem.coefficients, sample.f)
    breakdown = indicator(solution, problem, sample=sample)
    osc = oscillations(solution, problem)
    return {
        "matrix": (matrix.indptr, matrix.indices, matrix.data), "b": (b,),
        "energy_error": (energy_error(solution, problem.coefficients, sample.u,
                                      sample.curl_u),),
        "indicator": (breakdown.r1, breakdown.r2, breakdown.j1, breakdown.j2),
        "oscillations": (osc.osc1, osc.osc2, osc.element_part1, osc.edge_part1,
                         osc.element_part2, osc.edge_part2),
        "sample": (sample.u, sample.div_f),
    }


@pytest.mark.parametrize("block", [4, 64, None, 1 << 20], ids=["4", "64", "default", "above-T"])
def test_block_size_changes_no_bit(monkeypatch, block):
    # power-of-two blocks: every block starts at a multiple of 4 rows
    problem = interface_problem(1e2, 1.0, 3.0)
    mesh = bisected_two_region_mesh(problem)
    solution = random_field(mesh, 5)
    expected = kernel_outputs(mesh, problem, solution)
    if block is not None:
        monkeypatch.setattr(mesh_module, "_BLOCK", block)
    actual = kernel_outputs(mesh, problem, solution)
    for name, arrays in expected.items():
        assert all(np.array_equal(x, y) for x, y in zip(arrays, actual[name])), name


def transient_peak(call):
    """The traced peak of ``call()`` above the memory that is still
    allocated when it returns, its result included."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current


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
        "energy_error": lambda: energy_error(solution, problem.coefficients, sample.u,
                                             sample.curl_u),
        "indicator": lambda: indicator(solution, problem, sample=sample),
        "sample": lambda: problem.sample(points),
    }
    for call in kernels.values():
        call()  # fills the per-mesh and per-field caches the kernels read
    peaks = {name: transient_peak(call) for name, call in kernels.items()}
    assert all(peak < points.nbytes for peak in peaks.values()), (peaks, points.nbytes)
