"""The two refinement limits commute.

Refining the time step of the 2D scheme and shrinking the width can be
taken in either order; both paths land on the 1D flow.  The table shows
the legs of the refinement diagram for a small grid of (eps, tau) pairs
and the discrepancy between the two path sums, which is smallest at the
doubly refined corner.
"""

from numpy.polynomial import Polynomial

from vkribbon import MaterialPair
from vkribbon.config import Scenario
from vkribbon.studies import commutativity_report

bump = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
material = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)

report = commutativity_report(
    Scenario(
        material,
        epsilon_list=[0.2, 0.1],
        tau_list=[0.1, 0.05],
        T=0.4,
        n1d=24,
        nx=24,
        ny=4,
        initial=((0.0,), (0.0,), tuple((1.5 * bump).coef), tuple((3.0 * bump).coef)),
    )
)

t_final = 0.4
print("rows at the final sample time:")
print("eps    tau    horizontal  tau_leg_1d  tau_leg_2d  diagonal    path_gap")
for eps, tau, t, horiz, l1, l2, diag, gap in report.rows:
    if abs(t - t_final) > 1e-12:
        continue
    print(
        f"{eps:<6} {tau:<6} {horiz:<11.6f} {l1:<11.6f} {l2:<11.6f} {diag:<11.6f} {gap:.2e}"
    )
