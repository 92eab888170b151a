"""A mesh's workspace is scratch: the scalar evaluations (energy, sqdist)
of every system on the mesh carve it, so no array that the package returns
or keeps may be a view of it, and a later evaluation must leave every such
array as it was.  The Dirichlet data that the plates of one mesh share
refuse writes."""

import numpy as np
import pytest

from vkribbon.fem import BoundaryData, Mesh1D, Mesh2D
from vkribbon.forms import MaterialPair
from vkribbon.plate import PlateSystem
from vkribbon.ribbon import RibbonForces, RibbonSystem

BC = BoundaryData.from_coeffs(u1=(0.0, 0.3), u2=(0.05, 0.1), v=(0.1, 0.2))
FORCES = RibbonForces.from_coeffs(f=(0.2, 0.5), g1=(0.1,), g2=(0.3,))
ISO = MaterialPair.isotropic(1.2, 0.5, 0.8, 0.3)
TAU = 0.05


def plates():
    """Two widths on one mesh."""
    mesh = Mesh2D(l=1.0, nx=12, ny=4)
    return PlateSystem(mesh, 0.1, ISO, BC, FORCES), PlateSystem(mesh, 0.03, ISO, BC, FORCES)


def ribbons():
    """Two materials on one mesh."""
    mesh = Mesh1D(l=1.0, n=12)
    h1 = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)
    return RibbonSystem(mesh, ISO, BC, FORCES), RibbonSystem(mesh, h1, BC, FORCES)


def states(system, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        u = system.zero_state()
        u[system.free] += 0.2 * rng.standard_normal(int(system.free.sum()))
        out.append(u)
    return out


@pytest.mark.parametrize("build", [plates, ribbons])
def test_nothing_kept_or_returned_is_a_view_of_the_workspace(build):
    system, other = build()
    u, v, w = states(system, 5)
    kept = []

    def evaluated(*arrays):
        # interleave the scalar evaluations with everything else
        system.energy(w)
        system.sqdist(v, w)
        kept.extend(arrays)

    evaluated(system.rows(u))
    if isinstance(system, PlateSystem):
        evaluated(*system.channels(u))
    evaluated(system.grad_energy(u), system.grad_halfsqdist(v, u))
    problem = system.incremental(v, TAU)
    evaluated(problem.grad(u), problem.hessian(u).values)
    _, (s, g), PW, _ = system._valued
    evaluated(s, g, PW, *(a for a in vars(system.state(u)).values() if isinstance(a, np.ndarray)))
    workspace = system.mesh._workspace
    assert workspace.size > 0
    assert not any(np.shares_memory(a, workspace) for a in kept)

    before = [a.copy() for a in kept]
    x = states(other, 6)
    other.energy(x[0])
    other.sqdist(x[1], x[2])
    for a, b in zip(kept, before):
        assert np.array_equal(a, b)


def test_scalar_evaluations_do_not_depend_on_the_workspace_history():
    """The same values whatever the workspace held before, and the same
    as on a mesh of their own."""
    system, other = plates()
    u, v, _ = states(system, 7)
    alone = PlateSystem(Mesh2D(l=1.0, nx=12, ny=4), 0.1, ISO, BC, FORCES)
    values = (system.energy(u), system.sqdist(u, v))
    other.sqdist(v, u)
    system.mesh._workspace[:] = np.nan
    assert (system.energy(u), system.sqdist(u, v)) == values
    assert (alone.energy(u), alone.sqdist(u, v)) == values


def test_shared_dirichlet_data_refuse_writes():
    mesh = Mesh2D(l=1.0, nx=12, ny=4)
    a = PlateSystem(mesh, 0.1, ISO, BC)
    equal = BoundaryData.from_coeffs(u1=(0.0, 0.3), u2=(0.05, 0.1), v=(0.1, 0.2))
    b = PlateSystem(mesh, 0.03, ISO, equal)
    assert a.bc_mask is b.bc_mask and a.bc_values is b.bc_values
    mask, values = mesh.dirichlet(BC)
    assert a.bc_mask is mask and a.bc_values is values
    for arr in (a.bc_mask, a.bc_values):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


@pytest.mark.parametrize("build", [plates, ribbons])
def test_scalar_evaluations_refuse_a_short_vector(build):
    """A free-DOF vector is not a state: the gather's index check stops it
    before anything is written to the workspace."""
    system, _ = build()
    u, v, _ = states(system, 8)
    free = system.free
    with pytest.raises(IndexError):
        system.sqdist(u[free], v[free])
    with pytest.raises(IndexError):
        system.energy(u[free])
