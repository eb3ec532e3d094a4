from dataclasses import replace

import numpy as np
import pytest

from curladapt.problems import interface_problem
from curladapt.report import (ConvergenceTable, RunConfig, TableRow, emit,
                              parse_table_csv, run_robustness_sweep, run_table,
                              table_to_csv, table_to_markdown)


def test_effectivity_is_arithmetic_mean():
    # cross-check on the published reference study: the mean of the
    # per-level error/estimate ratios reproduces the quoted effectivity
    errors = [0.842, 0.435, 0.219, 0.110, 0.0549]
    etas = [3.72, 2.04, 1.04, 0.526, 0.264]
    mean = np.mean([e / eta for e, eta in zip(errors, etas)])
    assert mean == pytest.approx(2.13e-1, rel=5e-3)


def test_from_rows_effectivity_exact():
    rows = [TableRow(32, 1.0, 4.0, 8.0), TableRow(128, 0.5, 1.0, 2.0)]
    table = ConvergenceTable.from_rows(rows)
    assert table.eff_eta == pytest.approx((0.25 + 0.5) / 2, abs=1e-15)
    assert table.eff_eta_tilde == pytest.approx((0.125 + 0.25) / 2, abs=1e-15)


def test_emit_empty_table(tmp_path):
    table = ConvergenceTable.from_rows([])
    path = tmp_path / "empty.csv"
    text = emit(table, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "elements,e,eta,eta_tilde"


def test_emit_csv_roundtrip(tmp_path):
    rows = [TableRow(32, 0.8371, 3.623, 3.827), TableRow(128, 0.434, 2.024, 2.024)]
    table = ConvergenceTable.from_rows(rows)
    path = tmp_path / "table.csv"
    emit(table, "csv", path)
    parsed = parse_table_csv(path)
    assert [r.elements for r in parsed.rows] == [32, 128]
    for got, expected in zip(parsed.rows, table.rows):
        assert got.error == pytest.approx(expected.error, rel=5e-3)  # 3 digits
        assert got.eta == pytest.approx(expected.eta, rel=5e-3)
    assert parsed.eff_eta == pytest.approx(table.eff_eta, rel=5e-3)


def test_emit_full_precision_roundtrip(tmp_path):
    rows = [TableRow(32, 0.8370937, 3.6229, 3.8269)]
    table = ConvergenceTable.from_rows(rows)
    path = tmp_path / "table.csv"
    emit(table, "csv", path, full_precision=True)
    parsed = parse_table_csv(path)
    assert parsed.rows[0].error == table.rows[0].error  # exact
    assert parsed.eff_eta == table.eff_eta


def test_markdown_layout():
    rows = [TableRow(32, 0.8, 3.6, 3.8)]
    text = table_to_markdown(ConvergenceTable.from_rows(rows))
    lines = text.splitlines()
    assert lines[0].startswith("| elements ")
    assert lines[-1].startswith("| eff | N/A |")


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(levels=0).validate()
    with pytest.raises(ValueError):
        RunConfig(problem="interface").validate()  # missing eps1/eps2
    with pytest.raises(ValueError):
        RunConfig(problem="nope").validate()
    with pytest.raises(ValueError):
        RunConfig(eps=-1.0).validate()
    with pytest.raises(ValueError):
        RunConfig(fmt="xml").validate()
    RunConfig(problem="interface", eps1=10.0, eps2=1.0, kappa=2.0).validate()


def test_run_table_progression_and_footer():
    config = RunConfig(eps=1.0, kappa=1.0, levels=3)
    table = run_table(config)
    assert [r.elements for r in table.rows] == [32, 128, 512]
    ratios = [r_prev.error / r_next.error
              for r_prev, r_next in zip(table.rows, table.rows[1:])]
    assert all(1.8 <= r <= 2.1 for r in ratios)
    mean = np.mean([r.error / r.eta for r in table.rows])
    assert table.eff_eta == pytest.approx(mean, abs=1e-15)


def test_run_table_deterministic_output(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        config = RunConfig(eps=1.0, kappa=1.0, levels=2, out=str(path))
        run_table(config)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    md = []
    for name in ("a.md", "b.md"):
        path = tmp_path / name
        config = RunConfig(eps=1.0, kappa=1.0, levels=2, out=str(path), fmt="markdown")
        run_table(config)
        md.append(path.read_bytes())
    assert md[0] == md[1]


def test_run_table_dumps(tmp_path):
    out = tmp_path / "study.csv"
    config = RunConfig(eps=1.0, kappa=1.0, levels=2, out=str(out),
                       dump_indicators=True, dump_mesh=True)
    run_table(config)
    assert out.exists()
    for level in range(2):
        indicators = tmp_path / f"study_indicators_L{level}.csv"
        assert indicators.exists()
        header = indicators.read_text().splitlines()[0]
        assert header == "element_id,r1,r2,j1,j2,total"
        mesh_file = tmp_path / f"study_mesh_L{level}.txt"
        assert mesh_file.exists()
    from curladapt.mesh import load_mesh
    mesh = load_mesh(tmp_path / "study_mesh_L1.txt")
    assert mesh.num_triangles == 128


def test_sweep_ratio_one_reproduces_constant_coefficients(tmp_path):
    rows = run_robustness_sweep([1.0], [2.0], levels=2, solver_tol=1e-12)
    config = RunConfig(eps=1.0, kappa=2.0, levels=2, solver_tol=1e-12)
    table = run_table(config)
    assert rows[0].eff_eta == pytest.approx(table.eff_eta, rel=1e-12)
    assert rows[0].eff_eta_tilde == pytest.approx(table.eff_eta_tilde, rel=1e-12)


def test_sweep_csv_output(tmp_path):
    path = tmp_path / "sweep.csv"
    rows = run_robustness_sweep([1.0, 100.0], [1.0], levels=2, out=str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "ratio,kappa,eff_eta,eff_eta_tilde"
    assert len(lines) == 3
    assert len(rows) == 2


def test_sweep_rejects_bad_ratio():
    with pytest.raises(ValueError):
        run_robustness_sweep([0.5], [1.0], levels=1)


def test_run_table_classifier_without_interface_abscissa(monkeypatch):
    # a two-region problem whose interface is not a straight line x1 = split
    # has nothing to align; run_table must treat it as adaptive_solve does
    problem = replace(interface_problem(10.0, 1.0, 1.0), interface_abscissa=None)
    monkeypatch.setattr(RunConfig, "make_problem", lambda self: problem)
    table = run_table(RunConfig(problem="interface", eps1=10.0, eps2=1.0,
                                kappa=1.0, levels=2))
    assert [r.elements for r in table.rows] == [32, 128]
