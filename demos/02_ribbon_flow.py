"""Evolving the ribbon by minimizing movements and balancing the books.

A coupled (stretch, deflection) flow under a vertical load: each step
minimizes  D(v, u_n)^2 / (2 tau) + phi(v).  The De Giorgi ledger sums
half the squared metric velocity, half the squared local slope, and the
energy drop; the residual vanishes as tau -> 0 (here: visibly halving
with tau).
"""

import numpy as np
from numpy.polynomial import Polynomial

from vkribbon import Mesh1D, MaterialPair, RibbonForces, RibbonSystem
from vkribbon.flow import dissipation_ledger, run_trajectory

bump = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
material = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)
system = RibbonSystem(
    Mesh1D(l=1.0, n=24), material, forces=RibbonForces.from_coeffs(f=(1.0, 0.5))
)
u0 = system.interpolate((0.0,), (0.0,), tuple((1.2 * bump).coef), (0.0,))

print("tau      steps   phi(0)      phi(T)      R(tau)")
for tau in (0.08, 0.04, 0.02, 0.01):
    traj = run_trajectory(system, u0, tau, 0.8)
    led = dissipation_ledger(system, traj)
    print(
        f"{tau:<8} {traj.n_steps:<7} {traj.reports[0].energy:<11.6f} "
        f"{traj.reports[-1].energy:<11.6f} {led.residual:+.3e}"
    )

print("\nledger of the finest run (first steps):")
traj = run_trajectory(system, u0, 0.01, 0.1)
print("n   t      energy      step_dist   slope")
for n, t, e, d, s, *_ in traj.ledger_rows(system):
    print(f"{n:<3} {t:<6.2f} {e:<11.6f} {d:<11.6f} {s:.6f}")
