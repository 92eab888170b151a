"""What the run-time path costs besides its arithmetic: the modules it
loads, the memory of an assembly plan, and a load vector without a
sparse matrix."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vkribbon import fem
from vkribbon.fem import Mesh1D, Mesh2D
from vkribbon.forms import MaterialPair
from vkribbon.plate import PlateSystem
from vkribbon.ribbon import RibbonForces, RibbonSystem

from oracles import sampled_force

ROOT = Path(__file__).resolve().parents[1]
H1 = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)
LOADS = RibbonForces.from_coeffs(f=(0.2, 0.5, -0.3), g1=(0.1, 0.4), g2=(0.3, 0.0, 1.1))

RUNS = """
import sys
from numpy.polynomial import Polynomial
from vkribbon import cli, flow, studies
from vkribbon.fem import Mesh1D, Mesh2D
from vkribbon.forms import MaterialPair
from vkribbon.plate import PlateSystem
from vkribbon.ribbon import RibbonForces, RibbonSystem

bump = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
mat = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)
loads = RibbonForces.from_coeffs(f=(0.5, 0.2), g1=(0.1,), g2=(0.0, 0.3))
r = RibbonSystem(Mesh1D(l=1.0, n=8), mat, forces=loads)
v = r.interpolate((0.0,), (0.0,), 2.0 * bump, 4.0 * bump)
flow.run_trajectory(r, v, 0.01, 0.03).ledger_rows(r)
p = PlateSystem(Mesh2D(l=1.0, nx=8, ny=2), 0.1, mat, forces=loads)
flow.run_trajectory(p, p.zero_state(), 0.01, 0.02)
targets = {"generic": ((0.0,), (0.0,), tuple(bump.coef), tuple(4.0 * bump.coef))}
studies.gamma_check(mat, targets, (0.2, 0.1), Mesh1D(l=1.0, n=8), Mesh2D(l=1.0, nx=8, ny=2))
assert cli.main(["tau-study", sys.argv[1], "--out", sys.argv[2], "--quiet"]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
"""

SCENARIO = """
[mesh]
n1d = 8
[time]
tau_list = 0.04 0.02
T = 0.08
[forces]
f = 1.0 0.5
[initial]
w = 0.0 0.0 1.0
"""


def test_runs_load_no_sparse_module(tmp_path):
    """Ribbon and plate flows with loads, a ledger with its slopes, a
    gamma_check and a CLI study run without scipy.sparse."""
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUNS, str(cfg), str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"


def test_plan_build_stays_small():
    """The 48 x 8 plate's plan (2538 free DOFs, half-width 65) allocates
    at most 3 MB at its peak while it is built."""
    s = PlateSystem(Mesh2D(l=1.0, nx=48, ny=8), 0.05, H1)
    args = (s._tables, s.free, s.QW, s.QR, s._slope_forms(), (48, 8))
    tracemalloc.start()
    try:
        plan = fem.ElementAssembly(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.bandwidth == 65 and plan.n_free == 2538
    assert peak <= 3e6


SYSTEMS = {
    "ribbon": lambda: RibbonSystem(Mesh1D(l=1.0, n=24), H1, forces=LOADS),
    "plate 8x2": lambda: PlateSystem(Mesh2D(l=1.0, nx=8, ny=2), 0.1, H1, forces=LOADS),
    "plate 48x8": lambda: PlateSystem(Mesh2D(l=1.0, nx=48, ny=8), 0.05, H1, forces=LOADS),
    "plate 256x4": lambda: PlateSystem(Mesh2D(l=1.0, nx=256, ny=4), 0.05, H1, forces=LOADS),
}


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_load_vector_is_bitwise_the_sampled_one(name, monkeypatch):
    """The load vector sums in point order, as B^T (wq f) does, and builds
    no sampling matrix."""
    s = SYSTEMS[name]()
    with monkeypatch.context() as m:
        for space in (fem.P1Space, fem.Hermite3Space, fem.Q1Space, fem.BFSSpace):
            m.setattr(space, "sample_matrix", lambda *a: pytest.fail("sampling matrix built"))
        force = s._force
    assert np.array_equal(force, sampled_force(s))
    assert all(np.any(force[s.slices[field]]) for field, _, _ in s._loads)
