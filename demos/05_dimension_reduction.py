"""Dynamic dimension reduction: the 2D flow tracks the 1D flow as eps -> 0.

Both systems start from compatible data (the 2D initial state is the
recovery of the 1D one) and evolve by minimizing movements with the same
time step.  The table reports the effective 1D distance between the
projected plate trajectory and the ribbon trajectory: it shrinks
proportionally to the width.

Runs in about a minute; shrink the mesh or horizon to go faster.
"""

from numpy.polynomial import Polynomial

from vkribbon import MaterialPair
from vkribbon.config import Scenario
from vkribbon.flow import SolverOptions
from vkribbon.studies import epsilon_study

bump = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
material = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)

report = epsilon_study(
    Scenario(
        material,
        epsilon_list=[0.2, 0.1, 0.05],
        tau=0.02,
        T=0.5,
        n1d=32,
        nx=32,
        ny=8,
        initial=(
            tuple((0.5 * Polynomial.fromroots([-0.5, 0.5])).coef),
            tuple((0.3 * bump).coef),
            tuple((2.0 * bump).coef),
            tuple((4.0 * bump).coef),
        ),
        # the small-eps Hessian blocks scale like 1/eps^4; 1e-8 is what
        # double precision can actually deliver there (see README)
        solver=SolverOptions(tol=1e-8),
    )
)

print("initial recovery-energy gaps:", {k: f"{v:.2e}" for k, v in report.summary["initial_energy_gap"].items()})
print("\neps     t       D0(projected 2D, 1D)   |gamma|_L2   |E22|_L2")
for eps, t, d0, e2, e1, g, e12, e22 in report.rows:
    print(f"{eps:<7} {t:<7.3f} {d0:<22.8f} {g:<12.4e} {e22:.4e}")
