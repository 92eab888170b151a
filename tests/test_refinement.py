"""Mesh refinement as an invariance of the stepper.

Newton's method is mesh-independent (Allgower, Bohmer, Potra & Rheinboldt,
SIAM J. Numer. Anal. 23, 1986): on a family of refined meshes the Newton
iterations a step needs do not grow.  With the scale-free decrement stop
and the lent factor this holds for the iterations and for the fresh
factorizations per step, no step needs a shifted factor, and the final
energy and the De Giorgi residual converge at the elements' second order
in h.
"""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from vkribbon.fem import Mesh1D, Mesh2D
from vkribbon.flow import SolverOptions, dissipation_ledger, run_trajectory
from vkribbon.forms import MaterialPair
from vkribbon.plate import PlateSystem, RecoveryInputs, build_recovery
from vkribbon.ribbon import RibbonSystem

BUMP = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
PARABOLA = Polynomial.fromroots([-0.5, 0.5])
H1 = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)
# the acceptance datum: xi1, xi2, w, theta
DATUM = tuple(tuple(p.coef) for p in (0.5 * PARABOLA, 0.3 * BUMP, 2.0 * BUMP, 4.0 * BUMP))
RIBBON_MESHES = (32, 64, 128, 256, 512)


def per_step(traj):
    """(max Newton iterations, max fresh factorizations, shifted factorizations)."""
    steps = traj.reports[1:]
    return (
        max(r.newton_iters for r in steps),
        max(r.factorizations for r in steps),
        sum(r.used_fallback for r in steps),
    )


@pytest.fixture(scope="module")
def ribbon_runs():
    runs = {}
    for n in RIBBON_MESHES:
        s = RibbonSystem(Mesh1D(l=1.0, n=n), H1)
        runs[n] = s, run_trajectory(s, s.interpolate(*DATUM), 0.01, 0.5)
    return runs


def observed_orders(values):
    """log2 of successive gap ratios of a quantity on the halved meshes."""
    gaps = np.abs(np.diff(values))
    return np.log2(gaps[:-1] / gaps[1:])


def test_ribbon_newton_work_does_not_grow(ribbon_runs):
    counts = [per_step(ribbon_runs[n][1]) for n in RIBBON_MESHES]
    iters, factorizations, shifted = zip(*counts)
    assert max(iters) <= iters[0] and max(factorizations) <= factorizations[0], counts
    assert not any(shifted)


def test_ribbon_energy_converges_at_second_order(ribbon_runs):
    orders = observed_orders([ribbon_runs[n][1].reports[-1].energy for n in RIBBON_MESHES])
    assert np.all((1.8 <= orders) & (orders <= 2.2)), orders


def test_ribbon_de_giorgi_residual_converges_at_second_order(ribbon_runs):
    residuals = [
        dissipation_ledger(s, traj).residual
        for s, traj in (ribbon_runs[n] for n in RIBBON_MESHES)
    ]
    orders = observed_orders(residuals)
    assert np.all((1.8 <= orders) & (orders <= 2.2)), orders


def test_plate_newton_work_does_not_grow():
    counts = []
    for nx, ny in ((24, 4), (48, 8)):
        ribbon = RibbonSystem(Mesh1D(l=1.0, n=nx), H1)
        s = PlateSystem(Mesh2D(l=1.0, nx=nx, ny=ny), 0.05, H1)
        u0 = build_recovery(s, RecoveryInputs(ribbon.state(ribbon.interpolate(*DATUM))))
        counts.append(per_step(run_trajectory(s, u0, 0.02, 0.4, SolverOptions(tol=1e-8))))
    (iters0, fact0, _), (iters1, fact1, _) = counts
    assert iters1 <= iters0 and fact1 <= fact0, counts
    assert not any(shifted for _, _, shifted in counts)
