import pytest

from curladapt.cli import main


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