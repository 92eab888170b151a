"""Exact symmetries of the recovery sequence: the recovery of a mirrored or
rotated ribbon target is the mirrored or rotated recovery."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from vkribbon.fem import Mesh1D, Mesh2D
from vkribbon.forms import MaterialPair
from vkribbon.plate import PlateSystem, RecoveryInputs, build_recovery
from vkribbon.ribbon import RibbonSystem

from oracles import plate_symmetry

BUMP = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
PARABOLA = Polynomial.fromroots([-0.5, 0.5])
X = Polynomial([0.0, 1.0])
# a target without symmetry of its own, with zero traces: (xi1, xi2, w, theta)
TARGET = (
    0.5 * PARABOLA * (1 + X), 0.2 * BUMP * (1 + X), 2.0 * BUMP * (1 + 0.5 * X), 4.0 * BUMP * (1 - X)
)
# a non-H1 material: the transverse-curvature and membrane correctors are nonzero
ISO = MaterialPair.isotropic(1.0, 0.5, 1.0, 0.3)


def flipped(p: Polynomial) -> Polynomial:
    """x -> p(-x)."""
    return Polynomial(p.coef * (-1.0) ** np.arange(len(p.coef)))


# how each map moves the target (xi1, xi2, w, theta): the mirror turns the
# transverse displacement and the twist, the rotation also the axis
TARGET_MAPS = {
    "x2-mirror": (False, lambda xi1, xi2, w, th: (xi1, -xi2, w, -th)),
    "pi-rotation": (
        True,
        lambda xi1, xi2, w, th: (-flipped(xi1), -flipped(xi2), flipped(w), -flipped(th)),
    ),
}


@pytest.mark.parametrize("eps", [0.2, 0.05])
@pytest.mark.parametrize("name", list(TARGET_MAPS))
def test_recovery_is_equivariant(name, eps):
    map_x1, move = TARGET_MAPS[name]
    ribbon = RibbonSystem(Mesh1D(l=1.0, n=32), ISO)
    plate = PlateSystem(Mesh2D(l=1.0, nx=32, ny=4), eps, ISO)
    assert np.any(ISO.W1.argmin_coeff != 0.0)  # the correctors act
    u = build_recovery(plate, RecoveryInputs(ribbon.state(ribbon.interpolate(*TARGET))))
    moved = ribbon.state(ribbon.interpolate(*move(*TARGET)))
    got = build_recovery(plate, RecoveryInputs(moved))
    want = plate_symmetry(plate, u, map_x1)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(u).max()
    assert plate.energy(got) == pytest.approx(plate.energy(u), rel=1e-12)
