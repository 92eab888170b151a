"""Work budgets: deterministic counts of what an evaluation allocates and
rebuilds, which back the performance claims that wall time on a shared
host cannot resolve.

A budget that a change lowers is tightened with it; one that a change
raises needs a stated reason.
"""

import tracemalloc

from numpy.polynomial import Polynomial

from vkribbon import fem, plate as plate_module, studies
from vkribbon.fem import BoundaryData, Mesh1D, Mesh2D
from vkribbon.forms import MaterialPair
from vkribbon.plate import PlateSystem, RecoveryInputs, build_recovery
from vkribbon.ribbon import RibbonSystem

H1 = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)
BUMP = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
PARABOLA = Polynomial.fromroots([-0.5, 0.5])
# the benchmark's recovery targets (xi1, xi2, w, theta)
TARGETS = {
    "generic": (0.5 * PARABOLA, 0.2 * BUMP, 2.0 * BUMP, 6.0 * BUMP),
    "twist_only": ((0.0,), (0.0,), (0.0,), 4.0 * BUMP),
}
EVALUATION_BYTES = 256 * 1024


def test_new_width_energy_allocates_no_channel_arrays():
    """On a 256 x 4 mesh that has evaluated one width, the energy of the
    next width (its eps-scaled rows and load vector built, once per
    system) allocates under 256 KB at its peak: the channel product, QW s
    and the density live in the mesh's workspace.  Only the gather of the
    element coefficients (E, 24), 192 KB, is left; a fresh evaluation
    takes 3 MB."""
    ribbon = RibbonSystem(Mesh1D(l=1.0, n=256), H1)
    inputs = RecoveryInputs(ribbon.state(ribbon.interpolate(*TARGETS["generic"])))
    mesh = Mesh2D(l=1.0, nx=256, ny=4)
    warm = PlateSystem(mesh, 0.2, H1)
    warm.energy(build_recovery(warm, inputs))
    system = PlateSystem(mesh, 0.1, H1)
    u = build_recovery(system, inputs)
    system._tables, system._force  # noqa: B018  (built once per system)
    tracemalloc.start()
    try:
        system.energy(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < EVALUATION_BYTES


def test_width_sweep_builds_dirichlet_data_once_per_mesh_and_bc(monkeypatch):
    """A gamma_check builds the Dirichlet data of its plate mesh once, not
    once per (target, width); an equal boundary datum on the same mesh
    reuses it, and another mesh or datum builds its own."""
    calls = []
    build = fem.dirichlet_2d

    def counted(mesh, bc):
        calls.append((mesh, bc))
        return build(mesh, bc)

    # the package's own name and the name the plate module imports
    monkeypatch.setattr(fem, "dirichlet_2d", counted)
    monkeypatch.setattr(plate_module, "dirichlet_2d", counted)
    mesh1, mesh2 = Mesh1D(l=1.0, n=16), Mesh2D(l=1.0, nx=16, ny=2)
    widths = (0.2, 0.1, 0.05, 0.025)
    studies.gamma_check(H1, TARGETS, widths, mesh1, mesh2)
    assert len(calls) == 1
    studies.gamma_check(H1, TARGETS, widths, mesh1, mesh2, BoundaryData.zero())
    assert len(calls) == 1
    studies.gamma_check(H1, TARGETS, widths, mesh1, Mesh2D(l=1.0, nx=16, ny=2))
    assert len(calls) == 2
    tilted = BoundaryData.from_coeffs(u1=(0.0, 0.1))
    PlateSystem(mesh2, 0.1, H1, tilted)
    PlateSystem(mesh2, 0.05, H1, BoundaryData.from_coeffs(u1=(0.0, 0.1)))
    assert len(calls) == 3


def test_reference_bases_are_built_once_per_spacing():
    """Meshes of one element size share one read-only pair of reference
    bases, as Gauss rules of one order share their points."""
    a, b = Mesh2D(l=1.0, nx=32, ny=4), Mesh2D(l=1.0, nx=32, ny=4)
    assert a.reference_bases is b.reference_bases
    assert Mesh2D(l=1.0, nx=16, ny=4).reference_bases is not a.reference_bases
