"""End-to-end command-line driver tests (in-process)."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trefftzdg
from trefftzdg import CSV_HEADER, cli, fit_rates
from trefftzdg.errors import SingularSlabMatrix

SMALL = """
domain.x_r = 4
domain.t_final = 2
ic.center = 2
ic.width = 0.4
basis.degree = 2
experiment.h_values = 1, 0.5, 0.25
experiment.p_values = 0, 1, 2
"""


def _write_cfg(tmp_path, text=SMALL, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_validate_accepts_defaults(capsys):
    assert cli.main(["validate"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_every_problem(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "mesh.h_x = -1\nflux.delta = 2\n")
    assert cli.main(["validate", cfg]) == 1
    out = capsys.readouterr().out
    assert "mesh.h_x" in out and "flux.delta" in out
    assert "2 problem(s) found" in out


def test_run_writes_results_and_manifest(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "results.csv")
    assert rows[0] == CSV_HEADER
    assert len(rows) == 2
    assert rows[1][0] == "run"              # unnamed experiments take the kind
    assert float(rows[1][7]) < 0.2          # eps_q column
    assert (out / "manifest.cfg").exists()


def test_default_run_repeats_the_benchmark_outputs_exactly(tmp_path):
    # the perfbench audit_default workload records these outputs of the
    # default run at seed 0 with one BLAS thread; rounding drift shows here
    # first. BLAS threads are fixed at import, hence the fresh process.
    expected = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                           / "expected.json").read_text())["audit_default"]
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(trefftzdg.__file__).resolve().parents[1]),
               **{key: "1" for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS")})
    subprocess.run([sys.executable, "-m", "trefftzdg.cli", "run", "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=300)
    row = dict(zip(*_read_csv(out / "results.csv")))
    assert float(row["eps_q"]) == expected["l2"]
    assert float(row["dg_error"]) == expected["dg_error"]
    assert float(row["energy_final"]) == expected["energy_final"]


def test_manifest_rerun_is_bit_identical(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep-h", cfg, "--out", str(out1)]) == 0
    assert cli.main(["run", str(out1 / "manifest.cfg"), "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "manifest.cfg").read_text() == (out2 / "manifest.cfg").read_text()


def test_h_sweep_attaches_rate_to_last_row(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["sweep-h", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "results.csv")
    assert len(rows) == 4
    rate_col = CSV_HEADER.index("rate")
    assert [r[rate_col] for r in rows[1:-1]] == ["", ""]
    assert float(rows[-1][rate_col]) > 2.0    # p = 2 refinement rate
    hs = [float(r[1]) for r in rows[1:]]
    assert hs == [1.0, 0.5, 0.25]


def test_h_sweep_ignores_the_spacings_it_replaces(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["sweep-h", cfg, "--set", "mesh.h_x=-1", "--out", str(out)]) == 0
    assert len(_read_csv(out / "results.csv")) == 4
    assert cli.main(["run", cfg, "--set", "mesh.h_x=-1", "--out", str(out)]) == 1
    assert "mesh.h_x" in capsys.readouterr().err


def test_h_sweep_rate_and_plot_read_the_mesh_spacing(tmp_path):
    # 0.3 does not divide the domain: the mesh rounds it to 13 cells of 4/13,
    # the spacing results.csv reports, and the rate and the plot read it too
    cfg = _write_cfg(tmp_path, SMALL + "output.svg = errors.svg\n")
    out = tmp_path / "out"
    assert cli.main(["sweep-h", cfg, "--set", "experiment.h_values=1,0.5,0.3",
                     "--out", str(out)]) == 0
    rows = _read_csv(out / "results.csv")[1:]
    hs, errs = [float(r[1]) for r in rows], [float(r[7]) for r in rows]
    assert hs == [1.0, 0.5, 4 / 13]
    assert float(rows[-1][CSV_HEADER.index("rate")]) == fit_rates(hs, errs, mode="h").rate
    cli.write_svg(tmp_path / "want.svg", [("sweep_h", hs, errs)], "h", "relative L2 error",
                  log_y=True)
    assert (out / "errors.svg").read_text() == (tmp_path / "want.svg").read_text()


def test_p_sweep_and_svg(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL + "output.svg = errors.svg\n")
    out = tmp_path / "out"
    assert cli.main(["sweep-p", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "results.csv")
    assert [int(r[3]) for r in rows[1:]] == [0, 1, 2]
    errs = [float(r[7]) for r in rows[1:]]
    assert errs[2] < errs[0]
    svg = (out / "errors.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_flux_sweep_covers_the_grid(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["sweep-flux", cfg, "--out", str(out),
                     "--set", "experiment.alpha_values=0.25,0.5",
                     "--set", "experiment.beta_values=0.5,1"])
    assert code == 0
    rows = _read_csv(out / "results.csv")
    pairs = {(float(r[5]), float(r[6])) for r in rows[1:]}
    assert pairs == {(0.25, 0.5), (0.25, 1.0), (0.5, 0.5), (0.5, 1.0)}


def test_spectrum_outputs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["spectrum", cfg, "--out", str(out),
                     "--set", "experiment.p_values=0,1"]) == 0
    eig = _read_csv(out / "eigenvalues.csv")
    assert eig[0] == ["experiment", "p", "index", "re", "im", "modulus"]
    assert len(eig) == 1 + 8 + 16    # 4 columns x (2p + 2) dofs per degree
    summary = _read_csv(out / "spectrum.csv")
    assert summary[0] == ["experiment", "p", "n_dofs", "spectral_radius", "cond"]
    radii = [float(r[3]) for r in summary[1:]]
    assert all(rho <= 1.0 + 1e-10 for rho in radii)
    assert "spectral_radius" in capsys.readouterr().out


def test_energy_outputs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL + "output.svg = energy.svg\n")
    out = tmp_path / "out"
    assert cli.main(["energy", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "energy.csv")
    assert rows[0] == ["experiment", "t", "energy"]
    assert len(rows) == 1 + 1 + 2    # t = 0 plus one row per slab interface
    energies = [float(r[2]) for r in rows[1:]]
    assert all(e1 <= e0 + 1e-12 for e0, e1 in zip(energies, energies[1:]))
    budget = dict((term, float(v)) for term, v in _read_csv(out / "budget.csv")[1:])
    assert budget["residual"] <= 1e-10
    assert "identity residual" in capsys.readouterr().out
    svg = (out / "energy.svg").read_text()
    assert svg.startswith("<svg") and svg.count("polyline") == 1


def test_config_problems_exit_one(tmp_path, capsys):
    bad_grammar = _write_cfg(tmp_path, "domain.x_r 4\n", name="bad.cfg")
    assert cli.main(["run", bad_grammar]) == 1
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 1
    good = _write_cfg(tmp_path)
    assert cli.main(["run", good, "--set", "mesh.h_q=1"]) == 1
    assert cli.main(["run", good, "--set", "mesh.h_x=-2",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "mesh.h_x" in err


@pytest.mark.parametrize("assignment, diagnostic", [
    ("output.dir=3", "output.dir must be a string, got 3"),
    ("output.svg=3", "output.svg must be a string, got 3"),
    ("output.csv=", "output.csv must not be empty"),
    ("output.csv=sub/r.csv", "output.csv must be a bare file name, got 'sub/r.csv'"),
    ("output.csv=.", "output.csv must be a bare file name, got '.'"),
    ("experiment.name=3", "experiment.name must be a string, got 3"),
])
def test_bad_output_names_exit_one_before_writing(tmp_path, monkeypatch, capsys, assignment,
                                                  diagnostic):
    # the config must be valid as written, even under --out, so that its manifest re-runs
    cfg = _write_cfg(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", cfg, "--set", assignment, "--out", str(tmp_path / "o")]) == 1
    key = assignment.partition("=")[0]
    assert any(line.startswith(f"error: {key}") and line.endswith(diagnostic)
               for line in capsys.readouterr().err.splitlines())
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_cli_overrides_beat_file_values(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--set", "basis.degree=1",
                     "--out", str(out)]) == 0
    rows = _read_csv(out / "results.csv")
    assert rows[1][3] == "1"
    manifest = (out / "manifest.cfg").read_text()
    assert "basis.degree = 1" in manifest


def test_output_directory_precedence(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, SMALL + f"output.dir = {tmp_path / 'from_cfg'}\n")
    assert cli.main(["run", cfg]) == 0
    assert (tmp_path / "from_cfg" / "results.csv").exists()
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "from_env"))
    assert cli.main(["run", cfg]) == 0
    assert (tmp_path / "from_env" / "results.csv").exists()
    assert cli.main(["run", cfg, "--out", str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag" / "results.csv").exists()


def test_numerical_failures_exit_two(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SingularSlabMatrix("synthetic failure")

    monkeypatch.setattr(cli, "march", boom)
    cfg = _write_cfg(tmp_path)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_argparse_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1