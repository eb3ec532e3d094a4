"""Acceptance suite: every release criterion as one test with a printed
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Reference values for the constant-coefficient convergence study are the
published three-digit figures, checked at 10% relative tolerance; sweep
effectivities are regression-frozen from the first verified run of this
package.
"""

import time

import numpy as np
import pytest

from curladapt.amr import doerfler_mark
from curladapt.edge_fem import (assemble_system, element_matrices, error_points,
                                solve, whitney_eval)
from curladapt.estimators import EstimatorKind, indicator
from curladapt.linalg import cg_solve
from curladapt.mesh import (bisect_refine, build_structured_unit_square,
                            red_refine, tag_regions)
from curladapt.problems import (interface_problem, paper_problem,
                                verify_consistency)
from curladapt.quadrature import triangle_rule
from curladapt.report import RunConfig, run_robustness_sweep, run_table
from reference import edge_rule, from_triplet_arrays, from_triplets

# published reference values: (eps, kappa) -> per-level e, eta, eta_tilde
REFERENCE_STUDY = {
    (0.1, 10.0): {
        "e": [8.42e-1, 4.35e-1, 2.19e-1, 1.10e-1, 5.49e-2],
        "eta": [3.72, 2.04, 1.04, 5.26e-1, 2.64e-1],
        "eta_tilde": [3.94, 2.04, 1.04, 5.26e-1, 2.64e-1],
    },
    (1e-3, 1e3): {
        "e": [8.24, 4.30, 2.18, 1.10, 5.49e-1],
        "eta": [3.72e1, 2.04e1, 1.06e1, 5.36, 2.69],
        "eta_tilde": [1.46e3, 3.80e2, 9.70e1, 2.48e1, 6.61],
    },
    (1e-5, 1e5): {
        "e": [8.24e1, 4.30e1, 2.18e1, 1.10e1, 5.49],
        "eta": [3.72e2, 2.04e2, 1.06e2, 5.36e1, 2.69e1],
        "eta_tilde": [1.46e6, 3.80e5, 9.64e4, 2.42e4, 6.06e3],
    },
}

# regression baseline from the first verified sweep run
SWEEP_BASELINE = {
    (1.0, 1.0): (0.219207, 0.219207),
    (1.0, 1e4): (0.212530, 0.124923),
    (100.0, 1.0): (0.219240, 0.219240),
    (100.0, 1e4): (0.214396, 0.144982),
    (1e4, 1.0): (0.219241, 0.219241),
    (1e4, 1e4): (0.215903, 0.145341),
}


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def study():
    start = time.time()
    tables = {}
    for eps, kappa in REFERENCE_STUDY:
        tables[(eps, kappa)] = run_table(RunConfig(eps=eps, kappa=kappa, levels=5))
    return {"tables": tables, "elapsed": time.time() - start}


@pytest.fixture(scope="module")
def sweep():
    start = time.time()
    rows = run_robustness_sweep([1.0, 100.0, 1e4], [1.0, 1e4], levels=4)
    return {"rows": rows, "elapsed": time.time() - start}


def test_study_first_column_reproduction(study):
    table = study["tables"][(0.1, 10.0)]
    expected = REFERENCE_STUDY[(0.1, 10.0)]
    worst = 0.0
    for level, row in enumerate(table.rows):
        for key, value in (("e", row.error), ("eta", row.eta),
                           ("eta_tilde", row.eta_tilde)):
            worst = max(worst, abs(value / expected[key][level] - 1.0))
    ok = worst <= 0.10 and study["elapsed"] < 60.0
    report("convergence study, eps=0.1 kappa=10 (10% of reference)", ok,
           f"worst deviation {worst:.1%}, all columns in {study['elapsed']:.1f}s")


def test_study_extreme_columns_reproduction(study):
    worst = 0.0
    for key in ((1e-3, 1e3), (1e-5, 1e5)):
        expected = REFERENCE_STUDY[key]
        for level, row in enumerate(study["tables"][key].rows):
            for name, value in (("e", row.error), ("eta", row.eta),
                                ("eta_tilde", row.eta_tilde)):
                worst = max(worst, abs(value / expected[name][level] - 1.0))
    coarse_classical = study["tables"][(1e-5, 1e5)].rows[0].eta_tilde
    ok = worst <= 0.10 and abs(coarse_classical / 1.46e6 - 1.0) <= 0.10
    report("convergence study, extreme coefficient columns", ok,
           f"worst deviation {worst:.1%}, classical at 32 elements "
           f"{coarse_classical:.3g}")


def test_effectivity_robustness(study):
    effs = [study["tables"][key].eff_eta for key in REFERENCE_STUDY]
    classical_mid = study["tables"][(1e-3, 1e3)].eff_eta_tilde
    classical_last = study["tables"][(1e-5, 1e5)].eff_eta_tilde
    ok = (all(0.18 <= eff <= 0.25 for eff in effs)
          and classical_last <= 1e-3 and classical_mid <= 5e-2)
    report("effectivity robustness across coefficient regimes", ok,
           f"robust effs {[f'{v:.3f}' for v in effs]}, classical "
           f"{classical_mid:.2e}/{classical_last:.2e}")


def test_first_order_convergence(study):
    worst = (np.inf, -np.inf)
    for table in study["tables"].values():
        for row, nxt in zip(table.rows, table.rows[1:]):
            ratio = row.error / nxt.error
            worst = (min(worst[0], ratio), max(worst[1], ratio))
    ok = 1.8 <= worst[0] and worst[1] <= 2.1
    report("first-order convergence of the energy error", ok,
           f"level ratios in [{worst[0]:.3f}, {worst[1]:.3f}]")


def test_two_sided_bound_structure(study):
    robust_stats, classical_stats = [], []
    for table in study["tables"].values():
        for row in table.rows:
            robust_stats.append((row.error / row.eta) ** 2)
            classical_stats.append((row.error / row.eta_tilde) ** 2)
    robust_spread = max(robust_stats) / min(robust_stats)
    classical_spread = max(classical_stats) / min(classical_stats)
    ok = robust_spread <= 1.5 and classical_spread > 1e3
    report("two-sided bound: stable robust ratio, drifting classical one", ok,
           f"spread robust {robust_spread:.3f}, classical {classical_spread:.2e}")


def test_oracle_equivalence_element_matrices():
    rng = np.random.default_rng(2024)
    quad = triangle_rule(8)
    worst = 0.0
    for _ in range(100):
        while True:
            coords = rng.random((3, 2)) * 2.0
            u, v = coords[1] - coords[0], coords[2] - coords[0]
            area = 0.5 * (u[0] * v[1] - u[1] * v[0])
            if abs(area) > 0.05:
                break
        if area < 0:
            coords = coords[[0, 2, 1]]
            area = -area
        eps = float(rng.uniform(0.5, 2.0))
        kappa = float(rng.uniform(0.5, 2.0))
        signs = rng.choice([-1.0, 1.0], size=3)
        stiffness, mass = element_matrices(coords, eps, kappa, signs)
        values, curls = whitney_eval(coords, quad.points, signs)
        mass_oracle = kappa * area * np.einsum("q,qae,qbe->ab", quad.weights,
                                               values, values)
        stiff_oracle = eps * area * np.outer(curls, curls)
        worst = max(worst, np.abs(mass - mass_oracle).max(),
                    np.abs(stiffness - stiff_oracle).max())
    ok = worst <= 1e-13
    report("element matrices match the degree-8 quadrature oracle", ok,
           f"worst entry deviation {worst:.2e}")


def test_oracle_equivalence_cg():
    rng = np.random.default_rng(7)
    worst = 0.0
    # 2D 5-point Laplacian, 196 unknowns
    n = 14
    entries = []
    for i in range(n):
        for j in range(n):
            k = i * n + j
            entries.append((k, k, 4.0))
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if 0 <= i + di < n and 0 <= j + dj < n:
                    entries.append((k, (i + di) * n + j + dj, -1.0))
    systems = [from_triplets(n * n, n * n, entries)]
    # dense random SPD, 200 unknowns
    basis = rng.standard_normal((200, 200))
    dense = basis @ basis.T + 200 * np.eye(200)
    rows, cols = np.nonzero(dense)
    systems.append(from_triplet_arrays(200, 200, rows, cols, dense[rows, cols]))
    for matrix in systems:
        size = matrix.shape[0]
        b = rng.standard_normal(size)
        x, _, _ = cg_solve(matrix, b, rel_tol=1e-13)
        oracle = np.linalg.solve(matrix.toarray(), b)
        worst = max(worst, np.linalg.norm(x - oracle) / np.linalg.norm(oracle))
    ok = worst <= 1e-10
    report("CG matches the dense-factorization oracle", ok,
           f"worst relative solution error {worst:.2e}")


def test_property_galerkin_orthogonality():
    worst = 0.0
    for eps, kappa in REFERENCE_STUDY:
        problem = paper_problem(eps, kappa)
        mesh = red_refine(build_structured_unit_square(4))
        sample = problem.sample(error_points(mesh))
        matrix, b, _ = assemble_system(mesh, problem.coefficients, sample)
        solution = solve(mesh, problem.coefficients, sample)
        residual = np.abs(b - matrix @ solution.coefficients).max()
        worst = max(worst, residual / np.linalg.norm(b))
    ok = worst <= 1e-10
    report("Galerkin orthogonality after solve", ok, f"worst residual {worst:.2e}")


def test_property_euler_characteristic_under_refinement():
    rng = np.random.default_rng(11)
    mesh = build_structured_unit_square(3)
    ok = mesh.euler_characteristic() == 1
    for step in range(5):
        mesh = red_refine(mesh) if step == 2 else bisect_refine(
            mesh, set(rng.choice(mesh.num_triangles,
                                 size=mesh.num_triangles // 3, replace=False)))
        ok = ok and mesh.euler_characteristic() == 1
    report("Euler characteristic invariant under refinement", ok,
           f"final mesh {mesh.num_triangles} elements")


def test_property_whitney_divergence_free():
    # Gauss identity: boundary flux equals int phi . grad(q) for affine q
    rng = np.random.default_rng(3)
    tri_quad = triangle_rule(4)
    pts, wts = edge_rule(4)
    worst = 0.0
    for _ in range(50):
        while True:
            coords = rng.random((3, 2)) * 2.0
            u, v = coords[1] - coords[0], coords[2] - coords[0]
            area = 0.5 * (u[0] * v[1] - u[1] * v[0])
            if area > 0.05:
                break
        q_coef = rng.standard_normal(3)
        interior_vals, _ = whitney_eval(coords, tri_quad.points)
        volume = area * np.einsum("q,qke->ke", tri_quad.weights,
                                  interior_vals) @ q_coef[1:]
        flux = np.zeros(3)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            tangent = coords[j] - coords[i]
            length = np.linalg.norm(tangent)
            outward = np.array([tangent[1], -tangent[0]]) / length
            lam = np.zeros((len(pts), 3))
            lam[:, i] = 1 - pts
            lam[:, j] = pts
            values, _ = whitney_eval(coords, lam)
            edge_pts = coords[i] + pts[:, None] * tangent
            q_vals = q_coef[0] + edge_pts @ q_coef[1:]
            flux += length * np.einsum("q,q,qk->k", wts, q_vals, values @ outward)
        worst = max(worst, np.abs(flux - volume).max() / max(1.0, np.abs(flux).max()))
    ok = worst <= 1e-13
    report("Whitney basis divergence-free identity", ok,
           f"worst Gauss-identity residual {worst:.2e}")


def test_property_doerfler_minimality():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(1000):
        n = rng.integers(1, 50)
        indicators = rng.random(n) * rng.choice([0.0, 1.0, 100.0], size=n)
        theta = rng.uniform(0.05, 1.0)
        marked = doerfler_mark(indicators, theta)
        total = indicators.sum()
        if not marked:
            ok = ok and total == 0.0
            continue
        marked_sum = indicators[list(marked)].sum()
        smallest = min(marked, key=lambda t: (indicators[t], -t))
        ok = (ok and marked_sum >= theta * total - 1e-12 * total
              and marked_sum - indicators[smallest] < theta * total)
    report("Doerfler marking minimality (1000 randomized trials)", ok)


def test_property_manufactured_consistency():
    problems = [paper_problem(eps, kappa) for eps, kappa in REFERENCE_STUDY]
    problems += [interface_problem(ratio, 1.0, kappa)
                 for ratio in (1.0, 100.0, 1e4) for kappa in (1.0, 1e4)]
    failures = [p.tag for p in problems if not verify_consistency(p).passed]
    report("manufactured-solution consistency for every shipped problem",
           not failures, f"failures: {failures}" if failures else "9 problems")


def test_interface_sweep_robustness(sweep):
    rows = sweep["rows"]
    effs = [row.eff_eta for row in rows]
    spread = max(effs) / min(effs)
    regression_ok = True
    for row in rows:
        base_eta, base_tilde = SWEEP_BASELINE[(row.ratio, row.kappa)]
        regression_ok = (regression_ok
                         and abs(row.eff_eta / base_eta - 1.0) <= 1e-3
                         and abs(row.eff_eta_tilde / base_tilde - 1.0) <= 1e-3)
    ok = spread <= 3.0 and regression_ok and sweep["elapsed"] < 300.0
    report("two-phase sweep: robust effectivity stable across contrasts", ok,
           f"spread {spread:.3f}, {sweep['elapsed']:.1f}s, regression "
           f"{'ok' if regression_ok else 'drifted'}")


def test_weight_identity_regime():
    # constant eps = kappa = 1 on the coarse meshes: all capped sizes take
    # the size branch and the two estimators agree element by element
    problem = paper_problem(1.0, 1.0)
    mesh = build_structured_unit_square(4)
    worst = 0.0
    for _ in range(2):
        solution = solve(mesh, problem.coefficients, problem.sample(error_points(mesh)))
        robust = indicator(solution, problem, EstimatorKind.ROBUST)
        classical = indicator(solution, problem, EstimatorKind.CLASSICAL)
        rel = np.abs(robust.total - classical.total) / robust.total
        worst = max(worst, rel.max())
        mesh = red_refine(mesh)
    ok = worst <= 1e-14
    report("robust and classical weights coincide in the size-branch regime",
           ok, f"worst per-element relative gap {worst:.2e}")
