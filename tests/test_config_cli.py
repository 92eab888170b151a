"""Scenario parsing, persistence round-trips, CLI exit behavior."""

import dataclasses
import hashlib
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from vkribbon import cli
from vkribbon.cli import main
from vkribbon.config import ScenarioError, load_scenario
from vkribbon.fem import Mesh1D, Mesh2D
from vkribbon.flow import SolverOptions
from vkribbon.forms import MaterialPair
from vkribbon.io import (
    load_snapshot,
    save_plate_state,
    save_ribbon_state,
)
from vkribbon.plate import PlateSystem
from vkribbon.ribbon import RibbonSystem

ROOT = Path(__file__).resolve().parents[1]

MINIMAL = """
[material]
model = isotropic
"""

XI2_DECAY = """
[material]
model = isotropic
mu_W = 1.0
lambda_W = 0.0
mu_R = 1.0
lambda_R = 0.0

[mesh]
n1d = 16
nx = 8
ny = 4

[time]
tau = 0.01
T = 0.05

[initial]
xi2 = 0.0625 0 -0.5 0 1
"""

# a loaded strip small enough to run every subcommand in a few seconds
PINNED = """
[material]
model = isotropic

[geometry]
epsilon_list = 0.4 0.2

[mesh]
n1d = 16
nx = 8
ny = 4

[time]
tau = 0.02
tau_list = 0.04 0.02
T = 0.08

[solver]
tol = 1e-8

[forces]
f = 1 0.5

[initial]
xi2 = 0.0625 0 -0.5 0 1
w = 0.0625 0 -0.5 0 1
"""


def write(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def readme_scenario() -> str:
    """The README's ```ini scenario block, verbatim."""
    return re.search(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)


class TestScenario:
    def test_minimal_fills_defaults(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        sc = load_scenario(path)
        assert sc.l == 1.0
        assert sc.n1d == 64 and sc.nx == 64 and sc.ny == 8
        assert sc.tau == 0.01 and sc.T == 1.0
        assert sc.solver.tol == 1e-10
        assert sc.material.hypothesis == "H1"
        assert sc.sha256 == hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def test_negative_modulus_names_key(self, tmp_path):
        bad = MINIMAL + "mu_W = -1.0\n"
        with pytest.raises(ScenarioError, match="mu"):
            load_scenario(write(tmp_path, bad))

    def test_asymmetric_matrix_rejected(self, tmp_path):
        bad = """
[material]
model = matrix
CW = 2 1 0 0 2 0 0 0 2
CR = 2 0 0 0 2 0 0 0 2
"""
        with pytest.raises(ScenarioError, match="symmetric"):
            load_scenario(write(tmp_path, bad))

    def test_unknown_key_rejected(self, tmp_path):
        bad = MINIMAL + "colour = blue\n"
        with pytest.raises(ScenarioError, match="colour"):
            load_scenario(write(tmp_path, bad))

    def test_unknown_section_rejected(self, tmp_path):
        bad = MINIMAL + "\n[shenanigans]\nx = 1\n"
        with pytest.raises(ScenarioError, match="shenanigans"):
            load_scenario(write(tmp_path, bad))

    def test_readme_block_loads_as_written(self, tmp_path):
        block = readme_scenario()
        stripped = "\n".join(line.split(";")[0].rstrip() for line in block.splitlines())
        assert stripped != block  # the block carries inline comments
        verbatim = load_scenario(write(tmp_path, block, "verbatim.cfg"))
        plain = load_scenario(write(tmp_path, stripped, "stripped.cfg"))
        assert verbatim.sha256 != plain.sha256
        assert verbatim.raw == plain.raw
        assert repr(dataclasses.replace(verbatim, sha256="")) == repr(
            dataclasses.replace(plain, sha256="")
        )
        assert verbatim.material.h2_family is False and verbatim.out_dir == "out"
        assert verbatim.cutoff_width == 0.1 and verbatim.solver.tol == 1e-10

    def test_polynomials_parsed(self, tmp_path):
        text = MINIMAL + "\n[initial]\nw = 0.5 0 -1\n\n[forces]\nf = 1 2\n"
        sc = load_scenario(write(tmp_path, text))
        assert sc.initial[2] == [0.5, 0.0, -1.0]
        assert sc.forces.f(0.5) == pytest.approx(2.0)


class TestSnapshots:
    def test_ribbon_round_trip(self, tmp_path):
        mesh = Mesh1D(l=1.0, n=9)
        mat = MaterialPair.isotropic(1, 0, 1, 0)
        s = RibbonSystem(mesh, mat)
        rng = np.random.default_rng(50)
        u = s.zero_state()
        u[s.free] += rng.standard_normal(int(s.free.sum()))
        path = tmp_path / "state.snap"
        save_ribbon_state(path, s.state(u))
        back = load_snapshot(path)
        assert np.array_equal(back.vector, u)

    def test_plate_round_trip(self, tmp_path):
        mesh = Mesh2D(l=1.0, nx=5, ny=3)
        mat = MaterialPair.isotropic(1, 0, 1, 0)
        s = PlateSystem(mesh, 0.125, mat)
        rng = np.random.default_rng(51)
        u = s.zero_state()
        u[s.free] += rng.standard_normal(int(s.free.sum()))
        path = tmp_path / "plate.snap"
        save_plate_state(path, s.state(u))
        back = load_snapshot(path)
        assert back.eps == 0.125
        assert np.array_equal(back.vector, u)

    def ribbon_snapshot_lines(self, tmp_path):
        s = RibbonSystem(Mesh1D(l=1.0, n=4), MaterialPair.isotropic(1, 0, 1, 0))
        path = tmp_path / "state.snap"
        save_ribbon_state(path, s.state(s.zero_state()))
        return path, path.read_text().splitlines()

    def test_missing_field_names_path_and_field(self, tmp_path):
        path, lines = self.ribbon_snapshot_lines(tmp_path)
        at = lines.index(next(ln for ln in lines if ln.startswith("field xi2 ")))
        path.write_text("\n".join(lines[:at] + lines[at + 2 :]) + "\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*lacks field xi2"):
            load_snapshot(path)

    @pytest.mark.parametrize("cut", ["last", "middle"])
    def test_field_without_values_names_path_and_field(self, tmp_path, cut):
        path, lines = self.ribbon_snapshot_lines(tmp_path)
        name = "theta" if cut == "last" else "xi2"
        at = lines.index(next(ln for ln in lines if ln.startswith(f"field {name} ")))
        path.write_text("\n".join(lines[: at + 1] + lines[at + 2 :]) + "\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: field {name} has no values"):
            load_snapshot(path)

    def test_missing_header_names_path_and_key(self, tmp_path):
        path, lines = self.ribbon_snapshot_lines(tmp_path)
        path.write_text("\n".join(ln for ln in lines if not ln.startswith("n ")) + "\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*lacks header line 'n'"):
            load_snapshot(path)

    def test_non_integer_field_size_names_path_and_field(self, tmp_path):
        path, lines = self.ribbon_snapshot_lines(tmp_path)
        lines = ["field w five" if ln.startswith("field w ") else ln for ln in lines]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: field w has no integer size"):
            load_snapshot(path)


class TestCli:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "x.cfg"]) == 64
        assert "unknown subcommand 'frobnicate'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args", [[], ["x.cfg", "--bogus"], ["x.cfg", "--seed", "3"]], ids=["none", "bogus", "seed"]
    )
    def test_usage_error_exits_64(self, capsys, args):
        # argparse's own exit code 2 would read as a solver failure
        assert main(["simulate-1d", *args]) == 64
        assert "usage" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["simulate-1d", "-h"]) == 0
        assert "--out" in capsys.readouterr().out

    def test_study_section_rejected(self, tmp_path, capsys):
        path = write(tmp_path, XI2_DECAY + "\n[study]\nseed = 0\n")
        assert main(["simulate-1d", path, "--out", str(tmp_path / "o"), "--quiet"]) == 65
        assert "[study]" in capsys.readouterr().err

    def test_subcommand_lists_agree(self):
        # each list runs from "Subcommands:" to the first full stop
        def listed(text):
            return set(re.findall(r"[\w-]+", text.split("Subcommands:", 1)[1].split(".", 1)[0]))

        table = set(cli.COMMANDS) | {"report"}
        assert listed(cli.USAGE) == table
        assert listed((ROOT / "README.md").read_text()) == table

    def test_missing_scenario(self):
        assert main(["simulate-1d", "/nonexistent/path.cfg"]) == 65

    def test_invalid_scenario(self, tmp_path):
        path = write(tmp_path, MINIMAL + "mu_W = -2\n")
        assert main(["simulate-1d", path]) == 65

    @pytest.mark.parametrize(
        "text, key",
        [
            (MINIMAL + "[geometry]\nl = 0\n", "geometry.l"),
            (MINIMAL + "[geometry]\nl = abc\n", "geometry.l"),
            (MINIMAL + "[geometry]\nepsilon_list = 0.1 -0.2\n", "geometry.epsilon_list"),
            (MINIMAL + "[geometry]\ncutoff_width = 0\n", "geometry.cutoff_width"),
            (MINIMAL + "[geometry]\ncutoff_width = 0.5\n", "geometry.cutoff_width"),
            (MINIMAL + "[mesh]\nn1d = 1\n", "mesh.n1d"),
            (MINIMAL + "[mesh]\nnx = 1\n", "mesh.nx"),
            (MINIMAL + "[mesh]\nny = 1\n", "mesh.ny"),
            (MINIMAL + "[mesh]\nn1d = 2.5\n", "mesh.n1d"),
            (MINIMAL + "[time]\ntau = 0\n", "time.tau"),
            (MINIMAL + "[time]\nT = -1\n", "time.T"),
            (MINIMAL + "[time]\ntau_list = 0.1 0\n", "time.tau_list"),
            ("[material]\nmodel = matrix\n", "CW and CR"),
            ("[material]\nmodel = matrix\nCW = 1 0 0 0 1 0 0 0\nCR = 1 0 0 0 1 0 0 0 1\n", "CW"),
            ("[material]\nmodel = neo-hookean\n", "material.model"),
            (MINIMAL + "h2_family = maybe\n", "material.h2_family"),
            ("model = isotropic\n", "parse error"),
        ],
    )
    def test_invalid_value_exits_65_naming_key(self, tmp_path, capsys, text, key):
        path = write(tmp_path, text)
        assert main(["simulate-1d", path, "--out", str(tmp_path / "o"), "--quiet"]) == 65
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("time.tau", "nan"),
            ("time.tau", "inf"),
            ("time.T", "inf"),
            ("mesh.n1d", "nan"),
            ("solver.max_newton", "inf"),
            ("solver.tol", "nan"),
        ],
    )
    def test_non_finite_number_exits_65_naming_key(self, tmp_path, capsys, key, value):
        section, name = key.split(".")
        path = write(tmp_path, MINIMAL + f"[{section}]\n{name} = {value}\n")
        assert main(["simulate-1d", path, "--out", str(tmp_path / "o"), "--quiet"]) == 65
        assert key in capsys.readouterr().err

    def test_non_finite_tolerance_is_rejected(self):
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol"):
                SolverOptions(tol=tol)

    def test_out_of_range_solver_option_exits_65(self, tmp_path, capsys):
        # a line search that cannot succeed would otherwise exit 2, as a solver failure
        path = write(tmp_path, XI2_DECAY + "\n[solver]\narmijo = 1.5\n")
        assert main(["simulate-1d", path, "--out", str(tmp_path / "o"), "--quiet"]) == 65
        assert "solver" in capsys.readouterr().err

    def test_simulate_1d_row_count(self, tmp_path):
        path = write(tmp_path, XI2_DECAY)
        out = str(tmp_path / "out")
        assert main(["simulate-1d", path, "--out", out, "--quiet"]) == 0
        rows = (tmp_path / "out" / "ledger.csv").read_text().splitlines()
        assert len(rows) == 1 + 5 + 1  # header + N+1 states, N = ceil(T/tau)

    def test_manifest_written_and_references_outputs(self, tmp_path):
        path = write(tmp_path, XI2_DECAY)
        out = str(tmp_path / "out")
        assert main(["simulate-1d", path, "--out", out, "--quiet"]) == 0
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "hypothesis = H1" in manifest
        assert "C0_W = 2" in manifest
        listed = [
            ln.split(" = ", 1)[1] for ln in manifest.splitlines() if ln.startswith("output")
        ]
        produced = sorted(os.listdir(out))
        produced.remove("manifest.txt")
        assert sorted(listed) == produced

    def test_manifest_records_versions_and_host(self, tmp_path):
        path = write(tmp_path, XI2_DECAY)
        assert main(["simulate-1d", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0
        lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        manifest = dict(ln.split(" = ", 1) for ln in lines if not ln.startswith("output"))
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__
        assert manifest["system"] == platform.system()
        assert manifest["machine"] == platform.machine()

    def test_readme_scenario_runs_gamma_check(self, tmp_path):
        path = write(tmp_path, readme_scenario())
        assert main(["gamma-check", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0

    def test_solver_failure_exits_2(self, tmp_path):
        cfg = XI2_DECAY + "\n[solver]\nmax_newton = 0\n"
        path = write(tmp_path, cfg, "fail.cfg")
        assert main(["simulate-1d", path, "--out", str(tmp_path / "f"), "--quiet"]) == 2

    def test_reduce_study_refuses_none_material(self, tmp_path):
        cfg = XI2_DECAY.replace("lambda_W = 0.0", "lambda_W = 1.0").replace(
            "lambda_R = 0.0", "lambda_R = 1.0"
        )
        path = write(tmp_path, cfg)
        assert main(["reduce-study", path, "--out", str(tmp_path / "o"), "--quiet"]) == 3

    def test_determinism_bitwise(self, tmp_path):
        path = write(tmp_path, XI2_DECAY)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate-1d", path, "--out", str(out), "--quiet"]) == 0
            outs.append((out / "ledger.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_snapshot_from_cli_round_trips(self, tmp_path):
        path = write(tmp_path, XI2_DECAY)
        out = tmp_path / "out"
        assert main(["simulate-1d", path, "--out", str(out), "--quiet"]) == 0
        snap = load_snapshot(out / "state_final.snap")
        save_ribbon_state(out / "again.snap", snap)
        assert (out / "state_final.snap").read_bytes() == (out / "again.snap").read_bytes()

    def test_decouple_and_slope_checks_run(self, tmp_path):
        path = write(tmp_path, XI2_DECAY)
        assert main(["decouple-check", path, "--out", str(tmp_path / "d"), "--quiet"]) == 0
        assert main(["slope-check", path, "--out", str(tmp_path / "s"), "--quiet"]) == 0
        assert (tmp_path / "d" / "decouple_check.csv").exists()
        assert (tmp_path / "s" / "slope_check.csv").exists()

    def test_study_subcommands_run(self, tmp_path):
        cfg = XI2_DECAY + "\n[geometry]\nepsilon_list = 0.4 0.2\n\n[solver]\ntol = 1e-8\n"
        cfg = cfg.replace("tau = 0.01", "tau = 0.02").replace("T = 0.05", "T = 0.08")
        path = write(tmp_path, cfg, "study.cfg")
        assert main(["tau-study", path, "--out", str(tmp_path / "t"), "--quiet"]) == 0
        assert (tmp_path / "t" / "tau_study.csv").exists()
        assert main(["gamma-check", path, "--out", str(tmp_path / "g"), "--quiet"]) == 0
        assert (tmp_path / "g" / "gamma_check.csv").exists()
        assert main(["simulate-2d", path, "--out", str(tmp_path / "p"), "--quiet"]) == 0
        assert (tmp_path / "p" / "state_final.snap").exists()
        assert main(["reduce-study", path, "--out", str(tmp_path / "r"), "--quiet"]) == 0
        assert (tmp_path / "r" / "reduce_study.csv").exists()
        assert main(["commute-study", path, "--out", str(tmp_path / "c"), "--quiet"]) == 0
        assert (tmp_path / "c" / "commute_study.csv").exists()

    def test_every_summary_line_reports_numbers(self, tmp_path, capsys):
        path = write(tmp_path, PINNED)
        for sub in cli.COMMANDS:
            assert main([sub, path, "--out", str(tmp_path / sub)]) == 0
            line = capsys.readouterr().out.strip()
            assert line.startswith(f"{sub}: ") and re.search(r"\d", line), line
            assert line != f"{sub}: done" and "np.float64(" not in line, line
        # both ledgers carry the slope of every state
        for sub in ("simulate-1d", "simulate-2d"):
            ledger = np.genfromtxt(tmp_path / sub / "ledger.csv", delimiter=",", names=True)
            assert np.all(np.isfinite(ledger["slope"])) and np.all(ledger["slope"] > 0.0)

    def test_report_prints_summary(self, tmp_path, capsys):
        path = write(tmp_path, XI2_DECAY)
        out = str(tmp_path / "out")
        main(["simulate-1d", path, "--out", out, "--quiet"])
        assert main(["report", path, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "ledger.csv" in text and "hypothesis" in text

    def test_report_after_scenario_deleted(self, tmp_path, capsys):
        path = write(tmp_path, XI2_DECAY)
        out = str(tmp_path / "out")
        assert main(["simulate-1d", path, "--out", out, "--quiet"]) == 0
        os.remove(path)
        capsys.readouterr()
        assert main(["report", path, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "ledger.csv: 6 rows" in text and "hypothesis = H1" in text
        # without --out the scenario names the run directory, so it must exist
        assert main(["report", path]) == 65


# Runs in a fresh interpreter: imports the package, then starts the program
# with threaded BLAS requested, and reports the thread count each OpenBLAS
# library numpy and scipy ship reads at load (none where BLAS is not OpenBLAS).
PROGRAM_THREADS = """
import ctypes, glob, os, sys
import vkribbon
assert "numpy" not in sys.modules
from vkribbon.__main__ import entry
sys.argv = ["vkribbon", "--help"]
try:
    entry()
except SystemExit:
    pass
import numpy, scipy.linalg
print("env", os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"])
site = os.path.dirname(os.path.dirname(numpy.__file__))
for path in glob.glob(os.path.join(site, "*.libs", "*openblas*")):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        if hasattr(lib, sym):
            print("openblas", getattr(lib, sym)())
"""


def test_program_runs_blas_on_one_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="4")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM_THREADS], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert "env 1 1" in lines
    assert all(ln == "openblas 1" for ln in lines if ln.startswith("openblas"))


def test_every_export_resolves():
    # the package loads its names lazily, so a stale table entry fails only on access
    import vkribbon

    assert vkribbon.__all__
    missing = [name for name in vkribbon.__all__ if not hasattr(vkribbon, name)]
    assert not missing
