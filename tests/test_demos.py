"""The demo scripts and the README's quick start run to completion against
the package's public names."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_material_reduction.py",
    "02_ribbon_flow.py",
    "03_slope_representation.py",
    "04_gamma_limsup.py",
    "05_dimension_reduction.py",
    "06_commutativity.py",
]


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    run_python([str(ROOT / "demos" / name)])


def test_readme_quick_start_runs_as_printed():
    """The README's Python quick start, run as printed: the energy falls
    from the first state to the last, and the numbers it prints are the
    ones its comments show."""
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", readme, re.S)[1]
    energies, slope = run_python(["-c", code]).splitlines()
    first, last = (float(e) for e in energies.strip("[]").split())
    assert last < first
    assert [f"{x:.3g}" for x in (first, last, float(slope))] == ["0.0667", "0.00911", "0.135"]
    assert "[0.0667 0.00911]" in code and "# 0.135" in code
