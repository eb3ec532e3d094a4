from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from curladapt import edge_fem
from curladapt.amr import AdaptiveRecord
from curladapt.cli import main
from curladapt.estimators import EstimatorKind, IndicatorBreakdown
from curladapt.linalg import CgNonConvergence
from curladapt.mesh import OMEGA1, OMEGA2, load_mesh
from curladapt.problems import interface_problem, paper_problem
from curladapt.report import (ConvergenceTable, RunConfig, SweepRow, TableRow,
                              dump_indicators, emit, parse_table_csv, records_to_csv,
                              run_robustness_sweep, run_table, sweep_table)
from reference import (checkerboard, counting_trig_problem, horizontal_split,
                       records_digest)


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


@pytest.mark.parametrize("body, message", [
    ("32,0.8,3.6\n", "line 2: expected 'elements,e,eta,eta_tilde', got '32,0.8,3.6'"),
    ("32,0.8,3.6,3.8\neff,,0.2\n", "line 3: expected 'eff,,eta,eta_tilde', got 'eff,,0.2'"),
    ("32,zz,3.6,3.8\n", "line 2: expected 'elements,e,eta,eta_tilde'"),
    ("32.5,0.8,3.6,3.8\n", "line 2: expected 'elements,e,eta,eta_tilde'"),
    ("# note\n\n32,0.8,3.6,3.8,9\n", "line 4: expected 'elements,e,eta,eta_tilde'"),
], ids=["short_row", "short_eff", "non_numeric", "fractional_elements", "extra_cell"])
def test_parse_table_csv_rejects_malformed_lines(tmp_path, body, message):
    path = tmp_path / "table.csv"
    path.write_text("elements,e,eta,eta_tilde\n" + body)
    with pytest.raises(ValueError, match=message):
        parse_table_csv(path)


def test_markdown_layout():
    rows = [TableRow(32, 0.8, 3.6, 3.8)]
    text = emit(ConvergenceTable.from_rows(rows), "markdown")
    lines = text.splitlines()
    assert lines[0].startswith("| elements ")
    assert lines[-1].startswith("| eff | N/A |")


# The exact text of every table the package writes or prints, on fixed
# rows: the files and the console tables must not change by a byte.
PINNED_TABLE = ConvergenceTable(
    rows=(TableRow(32, 0.8371499323621449, 3.623365212901181, 3.827389073933854),
          TableRow(128, 0.4340190899125971, 2.0243123101863283, 2.0243123101863283)),
    eff_eta=0.21869143292231966, eff_eta_tilde=0.21458610143110932)

PINNED_TEXT = {
    ("csv", False): """\
elements,e,eta,eta_tilde
32,8.37e-01,3.62e+00,3.83e+00
128,4.34e-01,2.02e+00,2.02e+00
eff,,2.19e-01,2.15e-01
""",
    ("markdown", False): """\
| elements | e | eta | eta_tilde |
| ---: | ---: | ---: | ---: |
| 32 | 8.37e-01 | 3.62e+00 | 3.83e+00 |
| 128 | 4.34e-01 | 2.02e+00 | 2.02e+00 |
| eff | N/A | 2.19e-01 | 2.15e-01 |
""",
    ("csv", True): """\
elements,e,eta,eta_tilde
32,0.8371499323621449,3.623365212901181,3.827389073933854
128,0.4340190899125971,2.0243123101863283,2.0243123101863283
eff,,0.21869143292231966,0.21458610143110932
""",
    ("markdown", True): """\
| elements | e | eta | eta_tilde |
| ---: | ---: | ---: | ---: |
| 32 | 0.8371499323621449 | 3.623365212901181 | 3.827389073933854 |
| 128 | 0.4340190899125971 | 2.0243123101863283 | 2.0243123101863283 |
| eff | N/A | 0.21869143292231966 | 0.21458610143110932 |
""",
}


@pytest.mark.parametrize("fmt, full_precision", sorted(PINNED_TEXT))
def test_emit_pinned_text(tmp_path, fmt, full_precision):
    path = tmp_path / "table"
    text = emit(PINNED_TABLE, fmt, path, full_precision)
    assert text == PINNED_TEXT[fmt, full_precision]
    assert path.read_bytes() == text.encode()


def test_sweep_pinned_text():
    rows = [SweepRow(1.0, 10000.0, 0.21869143292231966, 0.07771),
            SweepRow(1e6, 0.01, 0.25, 0.125)]
    assert sweep_table(rows) == """\
ratio,kappa,eff_eta,eff_eta_tilde
1,10000,0.21869143292231966,0.07771
1e+06,0.01,0.25,0.125
"""
    assert sweep_table(rows, "markdown") == """\
| ratio | kappa | eff(eta) | eff(eta_tilde) |
| ---: | ---: | ---: | ---: |
| 1 | 10000 | 2.19e-01 | 7.77e-02 |
| 1e+06 | 0.01 | 2.50e-01 | 1.25e-01 |
"""


def test_records_and_indicators_pinned_text(tmp_path):
    records = [AdaptiveRecord(0, 32, 40, 1.120950039841819, 0.2668974978588877, 11),
               AdaptiveRecord(1, 46, 61, 0.8213791100613076, float("nan"), 0)]
    path = tmp_path / "records.csv"
    assert records_to_csv(records, path) == path.read_text() == """\
iter,elements,dofs,eta,error,marked
0,32,40,1.120950039841819,0.2668974978588877,11
1,46,61,0.8213791100613076,nan,0
"""
    breakdown = IndicatorBreakdown(
        kind=EstimatorKind.ROBUST, r1=np.array([0.5, 1e-300]), r2=np.array([0.25, 2.0]),
        j1=np.array([0.125, 0.0]), j2=np.array([1.0, 3.0]), norms=None)
    path = tmp_path / "indicators.csv"
    assert dump_indicators(breakdown, path) == path.read_text() == """\
element_id,r1,r2,j1,j2,total
0,0.5,0.25,0.125,1.0,1.875
1,1e-300,2.0,0.0,3.0,5.0
"""


def failing_on_third_solve(monkeypatch):
    """Make ``edge_fem.solve`` raise CgNonConvergence on its third call."""
    calls = []
    solve = edge_fem.solve

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise CgNonConvergence("CG gave up", None, 7, 1e-3)
        return solve(*args, **kwargs)

    monkeypatch.setattr(edge_fem, "solve", failing)


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
def test_run_table_writes_the_partial_table_on_failure(tmp_path, monkeypatch, fmt):
    finished = emit(run_table(RunConfig(eps=1.0, kappa=1.0, levels=2)), fmt)
    failing_on_third_solve(monkeypatch)
    out = tmp_path / "table"
    with pytest.raises(CgNonConvergence, match="CG gave up"):
        run_table(RunConfig(eps=1.0, kappa=1.0, levels=4, out=str(out), fmt=fmt))
    assert out.read_text() == finished + "# FAILED at level 2: CG gave up\n"


def test_cli_run_table_exits_1_on_failure(tmp_path, monkeypatch, capsys):
    failing_on_third_solve(monkeypatch)
    out = tmp_path / "table.csv"
    code = main(["run-table", "--eps", "1", "--kappa", "1", "--levels", "3",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: CG gave up\n"
    lines = out.read_text().splitlines()
    assert len(lines) == 5 and lines[-1] == "# FAILED at level 2: CG gave up"


def test_parse_table_csv_rejects_a_wrong_header(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("elements,e,eta\n32,0.8,3.6\n")
    with pytest.raises(ValueError, match="unexpected header 'elements,e,eta'"):
        parse_table_csv(path)


@pytest.mark.parametrize("render", [
    lambda fmt: emit(ConvergenceTable.from_rows([TableRow(32, 0.8, 3.6, 3.8)]), fmt),
    lambda fmt: sweep_table([SweepRow(10.0, 1.0, 0.5, 0.4)], fmt),
], ids=["emit", "sweep_table"])
def test_tables_refuse_an_unknown_format(render):
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        render("xml")


def test_dump_indicators_without_out_writes_to_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_table(RunConfig(eps=1.0, kappa=1.0, levels=1, dump_indicators=True))
    assert [p.name for p in tmp_path.iterdir()] == ["indicators_L0.csv"]
    lines = (tmp_path / "indicators_L0.csv").read_text().splitlines()
    assert lines[0] == "element_id,r1,r2,j1,j2,total" and len(lines) == 33


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
    with pytest.raises(ValueError, match="solver_tol must be positive"):
        RunConfig(solver_tol=0).validate()
    # refused up front, not by a TypeError in the middle of run_table
    with pytest.raises(ValueError, match="levels must be an integer"):
        RunConfig(levels=2.5).validate()
    with pytest.raises(ValueError, match="initial_n must be an integer"):
        RunConfig(initial_n=2.5).validate()
    # bool is an int subclass, but True is no level count
    with pytest.raises(ValueError, match="levels must be an integer, got True"):
        RunConfig(levels=True).validate()
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


def test_run_table_samples_the_problem_once_per_level(monkeypatch):
    # per level: one sample at the 16 degree-6 points, which the load, the
    # energy error and both estimators read
    problem, shapes = counting_trig_problem(paper_problem(1.0, 1.0))
    monkeypatch.setattr(RunConfig, "make_problem", lambda self: problem)
    table = run_table(RunConfig(eps=1.0, kappa=1.0, levels=3))
    assert Counter(shapes) == Counter((r.elements, 16) for r in table.rows)


def run_table_iterations(monkeypatch, config):
    """(free dofs, CG iterations) of every solve of ``run_table(config)``."""
    counts = []
    solve = edge_fem.solve

    def counting(*args, **kwargs):
        solution = solve(*args, **kwargs)
        counts.append((solution.dofmap.n_free, solution.iterations))
        return solution

    monkeypatch.setattr(edge_fem, "solve", counting)
    run_table(config)
    return counts


@pytest.mark.parametrize("config, dofs, max_iterations", [
    (RunConfig(eps=0.1, kappa=10.0, levels=4), 3008, 60),  # measured 51, 141 on one level
    (RunConfig(problem="interface", eps1=1e4, eps2=1.0, kappa=1.0, levels=5),
     12160, 75),                                           # measured 60, 563 on one level
], ids=["paper-0.1-10", "interface-1e4"])
def test_run_table_solves_on_the_red_hierarchy(monkeypatch, config, dofs, max_iterations):
    n_free, iterations = run_table_iterations(monkeypatch, config)[-1]
    assert n_free == dofs and iterations <= max_iterations


def test_run_table_keeps_mass_dominated_columns_on_one_level(monkeypatch):
    # kappa diam^2 > eps on every level: the hierarchy restarts each time
    counts = run_table_iterations(monkeypatch, RunConfig(eps=1e-5, kappa=1e5, levels=4))
    assert [iterations for _, iterations in counts] == [12, 27, 32, 32]


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
    # only the file name's suffix is cut: a dot in a directory name or a
    # leading dot is no suffix
    (tmp_path / "results.v2").mkdir()
    for name in ("results.v2/table", ".hidden"):
        run_table(RunConfig(eps=1.0, kappa=1.0, levels=1, out=str(tmp_path / name),
                            dump_indicators=True))
        assert (tmp_path / f"{name}_indicators_L0.csv").exists()
    assert sorted(p.name for p in tmp_path.iterdir() if "indicators" in p.name) == \
        [".hidden_indicators_L0.csv", "study_indicators_L0.csv", "study_indicators_L1.csv"]


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


@pytest.mark.parametrize("ratios, kappas, levels", [([1.0, 0.5], [1.0], 1),
                                                    ([1.0], [1.0, 0.0], 1),
                                                    ([1.0, 10.0], [1.0, -1.0], 1),
                                                    ([1.0], [1.0], 0),
                                                    ([1.0, np.nan], [1.0], 1),
                                                    ([1.0, np.inf], [1.0], 1),
                                                    ([1.0], [1.0, np.nan], 1),
                                                    ([1.0], [1.0, np.inf], 1)])
def test_sweep_refuses_a_late_bad_value_before_any_solve(monkeypatch, ratios, kappas,
                                                         levels):
    calls = []
    monkeypatch.setattr(edge_fem, "solve", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError):
        run_robustness_sweep(ratios, kappas, levels=levels)
    assert calls == []


def test_run_table_classifier_without_interface_abscissa(monkeypatch):
    # a two-region problem whose interface is not a vertical line, here the
    # horizontal line x2 = 1/2 of the start mesh, is checked against its
    # classifier like any other and accepted
    problem = replace(interface_problem(10.0, 1.0, 1.0), classifier=horizontal_split)
    monkeypatch.setattr(RunConfig, "make_problem", lambda self: problem)
    table = run_table(RunConfig(problem="interface", eps1=10.0, eps2=1.0,
                                kappa=1.0, levels=2))
    assert [r.elements for r in table.rows] == [32, 128]


def test_run_table_of_a_checkerboard(monkeypatch, tmp_path):
    # four quadrants meeting at the cross point (1/2, 1/2): each triangle of
    # the start mesh lies in one of them, so the check accepts the layout
    problem = replace(interface_problem(10.0, 1.0, 1.0), classifier=checkerboard)
    monkeypatch.setattr(RunConfig, "make_problem", lambda self: problem)
    out = tmp_path / "checkerboard.csv"
    table = run_table(RunConfig(problem="interface", eps1=10.0, eps2=1.0, kappa=1.0,
                                levels=2, out=str(out), dump_mesh=True))
    assert [r.elements for r in table.rows] == [32, 128]
    start = load_mesh(tmp_path / "checkerboard_mesh_L0.txt")
    left, low = (start.centroids < 0.5).T
    assert np.array_equal(start.regions, np.where(left == low, OMEGA1, OMEGA2))
    assert np.bincount(start.regions).tolist() == [0, 16, 16]


# Full-precision rows and effectivities recorded before the estimator and
# kernel refactor that made both estimator kinds one pass, and re-frozen
# when the load moved from the degree-4 points onto the degree-6 sample
# (no value moved by more than 3.0e-6 relative); rel=1e-9 guards the
# formulas far below the 10% tolerance of the published figures.
GOLDEN_TABLES = {
    (0.1, 10.0): (
        [(32, 0.8371499323621449, 3.623365212901181, 3.827389073933854),
         (128, 0.4340190899125971, 2.0243123101863283, 2.0243123101863283),
         (512, 0.21890664682781127, 1.0392998222054814, 1.0392998222054814)],
        0.21869143292231966, 0.21458610143110932),
    (1e-5, 1e5): (
        [(32, 81.71568617848956, 361.4411351345587, 1444542.9368882303),
         (128, 42.8910553300494, 202.6476341816949, 379107.00177708967),
         (512, 21.809007045865023, 105.61078013538489, 96383.15991940725)],
        0.21474665087183487, 0.0001319932171183576),
}


@pytest.mark.parametrize("eps, kappa", sorted(GOLDEN_TABLES))
def test_run_table_golden_values(eps, kappa):
    rows, eff_eta, eff_eta_tilde = GOLDEN_TABLES[(eps, kappa)]
    table = run_table(RunConfig(eps=eps, kappa=kappa, levels=3))
    assert [r.elements for r in table.rows] == [r[0] for r in rows]
    for row, expected in zip(table.rows, rows):
        assert tuple(row[1:]) == pytest.approx(expected[1:], rel=1e-9)
    assert table.eff_eta == pytest.approx(eff_eta, rel=1e-9)
    assert table.eff_eta_tilde == pytest.approx(eff_eta_tilde, rel=1e-9)


# records_digest of the rows of run_table at 3 levels (32, 128 and 512
# triangles), frozen from a verified run: a change that moves any bit of
# any row fails here, where the golden values above allow rel 1e-9.
FROZEN_TABLE_DIGESTS = {
    RunConfig(eps=0.1, kappa=10.0, levels=3):
        "f39057aef3a5f41f5908e4b33dbe869a1fc2598e8442330daaabc25dfd61de81",
    RunConfig(eps=1e-5, kappa=1e5, levels=3):
        "40c2d55b0e0375f43f573e9e64dd9ec1b587bef8f6bb05aa3852f004d45c9d8a",
    RunConfig(problem="interface", eps1=1e4, eps2=1.0, kappa=1.0, levels=3):
        "0613d6688603734628de02b74c8d858779553f82b3bd49888569dac000ccefe5",
}


@pytest.mark.parametrize("config", list(FROZEN_TABLE_DIGESTS),
                         ids=["paper-0.1-10", "paper-1e-5-1e5", "interface-1e4"])
def test_run_table_records_are_frozen(config):
    table = run_table(config)
    assert [r.elements for r in table.rows] == [32, 128, 512]
    assert records_digest(table.rows) == FROZEN_TABLE_DIGESTS[config]
