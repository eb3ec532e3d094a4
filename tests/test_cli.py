import re

import pytest

from curladapt import edge_fem
from curladapt.cli import main
from curladapt.report import RunConfig


def test_run_table_writes_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["run-table", "--eps", "1", "--kappa", "1", "--levels", "2",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[0] == "elements,e,eta,eta_tilde"
    assert lines[1].startswith("32,")
    stdout = capsys.readouterr().out
    assert "| elements |" in stdout


def test_run_table_markdown(tmp_path):
    out = tmp_path / "table.md"
    code = main(["run-table", "--eps", "1", "--kappa", "1", "--levels", "1",
                 "--out", str(out), "--format", "markdown"])
    assert code == 0
    assert out.read_text().startswith("| elements |")


def test_run_table_interface(tmp_path):
    out = tmp_path / "iface.csv"
    code = main(["run-table", "--problem", "interface", "--eps1", "100",
                 "--eps2", "1", "--kappa", "1", "--levels", "2", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_run_table_dump_flags(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["run-table", "--eps", "1", "--kappa", "1", "--levels", "1",
                 "--out", str(out), "--dump-indicators", "--dump-mesh"])
    assert code == 0
    assert (tmp_path / "t_indicators_L0.csv").exists()
    assert (tmp_path / "t_mesh_L0.txt").exists()


def test_invalid_arguments_exit_nonzero(capsys):
    code = main(["run-table", "--problem", "interface", "--levels", "2"])
    assert code != 0
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run-table", "run-adaptive"])
def test_misaligned_regions_are_refused_before_any_solve(monkeypatch, capsys, command):
    # the 4x4 start mesh has grid lines at x1 = 0.25 and 0.5, not at 0.3
    calls = []
    monkeypatch.setattr(edge_fem, "solve", lambda *args, **kwargs: calls.append(args))
    code = main([command, "--problem", "interface", "--eps1", "10", "--eps2", "1",
                 "--split", "0.3"])
    assert code == 1
    assert "not aligned" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command, builds", [
    (["run-table", "--levels", "1"], 1),
    (["run-adaptive", "--max-dofs", "100"], 1),
    # each built once, by its validation before the first run
    (["run-sweep", "--ratios", "1,100", "--kappas", "1", "--levels", "1"], 2),
], ids=["run-table", "run-adaptive", "run-sweep"])
def test_validation_builds_the_problem_each_run_uses(monkeypatch, command, builds):
    made = []
    make = RunConfig.make_problem
    monkeypatch.setattr(RunConfig, "make_problem", lambda self: made.append(self) or make(self))
    assert main(command) == 0
    assert len(made) == builds


def test_run_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["run-sweep", "--ratios", "1,100", "--kappas", "1",
                 "--levels", "2", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("ratio,kappa,eff_eta,eff_eta_tilde")
    assert "| ratio |" in capsys.readouterr().out


def test_run_adaptive(tmp_path, capsys):
    out = tmp_path / "amr.csv"
    code = main(["run-adaptive", "--problem", "paper", "--eps", "1",
                 "--kappa", "1", "--theta", "0.5", "--max-dofs", "100",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iter,elements,dofs,eta,error,marked"
    assert len(lines) >= 3
    assert "iter" in capsys.readouterr().out


@pytest.mark.parametrize("problem", [
    ["--eps", "1", "--kappa", "1e-4"],
    ["--problem", "interface", "--eps1", "1e6", "--eps2", "1", "--kappa", "1e-2"],
], ids=["paper-1-1e-4", "interface-1e6-kappa-1e-2"])
def test_run_adaptive_below_the_residual_floor(capsys, problem):
    # a fixed relative residual is out of reach on the first mesh here
    code = main(["run-adaptive", *problem, "--max-dofs", "2000"])
    assert code == 0
    *_, dofs, eta, error, marked = capsys.readouterr().out.splitlines()[-1].split()
    assert int(dofs) >= 2000 and int(marked) == 0
    assert 0 < float(error) < float(eta)


@pytest.mark.parametrize("max_dofs", ["100", "12000"], ids=["4-digit", "5-digit"])
def test_run_adaptive_table_is_aligned(capsys, max_dofs):
    # every field ends where its column does: two spaces before the next
    # header word, or at the end of the widest row for the last column
    code = main(["run-adaptive", "--eps", "1e-5", "--kappa", "1e5", "--max-dofs", max_dofs])
    assert code == 0
    header, *rows = capsys.readouterr().out.splitlines()
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    ends = [start - 2 for start in starts[1:]] + [max(map(len, rows))]
    for row in rows:
        spans = [m.span() for m in re.finditer(r"\S+", row)]
        assert [end for _, end in spans] == ends, row
        assert all(s >= start for (s, _), start in zip(spans, starts)), row
    if max_dofs == "100":
        # under 10,000 dofs the table keeps its fixed layout
        assert header == "iter  elements  dofs  eta        error      marked"
        for row in rows:
            i, elements, dofs, eta, error, marked = row.split()
            assert row == (f"{int(i):4d}  {int(elements):8d}  {int(dofs):4d}  "
                           f"{eta}  {error}  {int(marked):6d}")
    else:
        assert max(int(row.split()[2]) for row in rows) >= 10_000


def test_full_precision_flag(tmp_path):
    low = tmp_path / "low.csv"
    high = tmp_path / "high.csv"
    main(["run-table", "--eps", "1", "--kappa", "1", "--levels", "1",
          "--out", str(low)])
    main(["run-table", "--eps", "1", "--kappa", "1", "--levels", "1",
          "--out", str(high), "--full-precision"])
    low_e = low.read_text().splitlines()[1].split(",")[1]
    high_e = high.read_text().splitlines()[1].split(",")[1]
    assert len(high_e) > len(low_e)
    assert float(high_e) != float(low_e) or low_e != high_e


def test_run_adaptive_interface_to_2e4_dofs(capsys):
    code = main(["run-adaptive", "--problem", "interface", "--eps1", "1e4", "--eps2", "1",
                 "--kappa", "1", "--max-dofs", "20000"])
    assert code == 0
    *_, dofs, eta, error, marked = capsys.readouterr().out.splitlines()[-1].split()
    assert int(dofs) >= 20000 and int(marked) == 0
    assert float(error) < 0.02
