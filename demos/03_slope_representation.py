"""Two routes to the local slope, and its balance with the metric rate.

The local slope solves an SPD auxiliary problem on the zero-trace test
space; the same number is recovered pointwise from the operator field
L = Cbar_R H(u*) - Cbar_W G through the inverse square root of the
viscous form.  Along an implicit-Euler flow of the decoupled in-plane
bending mode, slope and metric rate balance exactly step by step.
"""

import numpy as np
from numpy.polynomial import Polynomial

from vkribbon import Mesh1D, MaterialPair, RibbonSystem
from vkribbon.flow import run_trajectory

bump = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
system = RibbonSystem(Mesh1D(l=1.0, n=24), MaterialPair.isotropic(1.3, 0.6, 0.9, 0.3))

rng = np.random.default_rng(0)
u = system.zero_state()
u[system.free] += 0.3 * rng.standard_normal(int(system.free.sum()))

sol = system.slope_solution(u)
print("slope (SPD solve)      :", sol.value)
print("slope (representation) :", sol.representation)
print("max test-basis pairing of L:", sol.orthogonality, " (|L| =", sol.L_norm, ")")

print("\nslope^2 vs (step distance / tau)^2 along the decoupled flow:")
decay = RibbonSystem(Mesh1D(l=1.0, n=24), MaterialPair.isotropic(1, 0, 1, 0))
u0 = decay.interpolate((0.0,), tuple(bump.coef), (0.0,), (0.0,))
tau = 0.01
traj = run_trajectory(decay, u0, tau, 0.05)
for n in range(1, traj.n_steps + 1):
    s2 = decay.local_slope(traj.states[n]) ** 2
    r2 = (traj.reports[n].dist / tau) ** 2
    print(f"  step {n}: slope^2 = {s2:.8f}, rate^2 = {r2:.8f}, ratio = {s2 / r2:.12f}")
