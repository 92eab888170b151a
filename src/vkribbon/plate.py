"""The scaled 2D viscoelastic von Karman system on the fixed strip S.

States store the scaled fields (y1, y2, w) on S = I x (-1/2, 1/2); the
width eps enters only through the scaled operators

    E^eps y   = (d1 y1, (d2 y1 + d1 y2)/(2 eps), d2 y2 / eps^2)
    grad_eps w = (d1 w, d2 w / eps)
    hess_eps w = (d11 w, d12 w / eps, d22 w / eps^2)

so a single mesh serves the whole eps-sweep.  The energy couples the
membrane strain E^eps y + (grad_eps w (x) grad_eps w)/2 and the scaled
Hessian through the 2D material forms; the dissipation distance uses the
viscous form, or its eps-indexed family when the material carries one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import (
    FIRST,
    SECOND,
    BFSSpace,
    BoundaryData,
    FieldSystem,
    Hermite3Space,
    Mesh2D,
    P1Space,
    Q1Space,
    check_traces,
    dirichlet_1d,
    dirichlet_2d,
    triple_product,  # noqa: F401  (perfbench/layers.py traces it under this module)
)
from .forms import MaterialPair
from .ribbon import RibbonForces, RibbonState, RibbonSystem

BEND_FACTOR = 1.0 / 12.0


@dataclass
class PlateState:
    """Scaled plate fields (y1, y2 bilinear; w BFS) at a fixed width eps."""

    mesh: Mesh2D
    eps: float
    bc: BoundaryData
    y1: np.ndarray
    y2: np.ndarray
    w: np.ndarray

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.y1, self.y2, self.w])


class PlateSystem(FieldSystem):
    """Discrete 2D gradient system at one width eps on a fixed mesh.

    Its strain (mu, h) adds (g1^2, g1 g2, g2^2) / 2 to mu.  The blocks
    (y1 | y2 | w) of the weak residual are the three scalar rows of the two
    weak plate equations.
    """

    LINEAR_ROWS = [0, 1, 2, 5, 6, 7]
    SLOPE_ROWS = [3, 4]
    MEMBRANE_SLOPES = [(0, 0), (0, 1), (1, 1)]

    def __init__(
        self,
        mesh: Mesh2D,
        eps: float,
        material: MaterialPair,
        bc: BoundaryData | None = None,
        forces: RibbonForces | None = None,
    ):
        if eps <= 0.0:
            raise ValueError(f"plate width eps must be positive, got {eps}")
        self.mesh = mesh
        self.eps = float(eps)
        self.material = material
        self.bc = bc or BoundaryData.zero()
        self.forces = forces or RibbonForces.zero()
        self.quad = mesh.quadrature

        self.q1 = Q1Space(mesh)
        self.bfs = BFSSpace(mesh)
        sizes = {"y1": self.q1.n_dofs, "y2": self.q1.n_dofs, "w": self.bfs.n_dofs}
        self._set_layout(sizes, *dirichlet_2d(mesh, self.bc))

        self.wq = self.quad.weights
        self.CW = material.W.C
        self.CR = material.viscous_matrix(self.eps)
        f = self.forces
        self._loads = [("w", self.bfs, f.f), ("y1", self.q1, f.g1), ("y2", self.q1, f.g2)]
        # the strain channels (mu, h) carry the forms C and C / 12
        self.QW, self.QR = np.zeros((6, 6)), np.zeros((6, 6))
        for Q, C in ((self.QW, self.CW), (self.QR, self.CR)):
            Q[:3, :3], Q[3:, 3:] = C, BEND_FACTOR * C

    # -- state handling -----------------------------------------------------

    def state(self, u: np.ndarray) -> PlateState:
        y1, y2, w = self.split(u)
        return PlateState(self.mesh, self.eps, self.bc, y1.copy(), y2.copy(), w.copy())

    def interpolate(self, y1_fn, y2_fn, w_fns) -> np.ndarray:
        """Nodal interpolation; w_fns = (w, d1 w, d2 w, d12 w) callables."""
        u = np.concatenate(
            [
                self.q1.interpolate(y1_fn),
                self.q1.interpolate(y2_fn),
                self.bfs.interpolate(*w_fns),
            ]
        )
        u[self.bc_mask] = self.bc_values[self.bc_mask]
        return u

    # -- channels -------------------------------------------------------------

    def channels(self, u: np.ndarray):
        """Membrane strain mu (nq, 3), scaled deflection gradient g (nq, 2),
        scaled Hessian h (nq, 3), in quadrature-point order."""
        s, g = self._channels(u)
        s = self._by_point(s)
        return s[:, :3], self._by_point(g), s[:, 3:]

    def _element_rows(self):
        """Element DOFs (y1 | y2 | w) and reference rows: the linear strain
        (E11, E12, E22), the scaled deflection gradient (g1, g2) and the
        scaled Hessian (h11, h12, h22); membrane and bending rows never meet.
        The DOFs and the reference bases are the mesh's; only the scaling
        by eps is formed here."""
        eps, dofs = self.eps, self.mesh.element_dofs
        (q1_x, q1_y), bfs = self.mesh.reference_bases
        rows = np.zeros((q1_x.shape[0], 8, dofs.shape[1]))
        rows[:, 0, :4] = q1_x
        rows[:, 1, :4] = q1_y / (2.0 * eps)
        rows[:, 1, 4:8] = q1_x / (2.0 * eps)
        rows[:, 2, 4:8] = q1_y / eps**2
        for i, (_, dy) in enumerate(FIRST + SECOND):
            rows[:, 3 + i, 8:] = bfs[i] / eps**dy
        coupling = np.ones((8, 8), dtype=bool)
        coupling[:3, 5:] = coupling[5:, :3] = False
        return dofs, rows, coupling

    def d0_projected(self, u: np.ndarray, ribbon: RibbonSystem, v: np.ndarray) -> float:
        """Effective 1D distance between pi_eps of a plate state and a ribbon state.

        Uses the limit metric on the projected channels: the membrane slot
        compares d1 y1 + |d1 w|^2 / 2 against the Bernoulli-Navier field of
        the ribbon state, the bending/twist slot compares d11 w and the
        x2-averaged twist derivative against (w'', theta').  The ribbon
        fields depend on x1 alone, so they are evaluated once per x1-station
        and spread over the station's transverse points.
        """
        mu, _, h = self.channels(u)
        q = self.quad
        pa_2d, kap_2d = mu[:, 0], h[:, 0]
        t_2d = q.spread(q.x2_average(h[:, 1]))

        xi1, xi2, wv, th = ribbon.split(v)
        xs = q.x_stations()
        pa_1d = q.spread(
            ribbon.p1.evaluate(xi1, xs, 1) + 0.5 * ribbon.h3.evaluate(wv, xs, 1) ** 2
        ) - q.y * q.spread(ribbon.h3.evaluate(xi2, xs, 2))
        kap_1d = q.spread(ribbon.h3.evaluate(wv, xs, 2))
        t_1d = q.spread(ribbon.p1.evaluate(th, xs, 1))

        m = self.material
        da = pa_2d - pa_1d
        dk = kap_2d - kap_1d
        dt = t_2d - t_1d
        Q1 = m.R1.C
        dens = m.R0.C0 * da**2 + BEND_FACTOR * (
            Q1[0, 0] * dk**2 + 2.0 * Q1[0, 1] * dk * dt + Q1[1, 1] * dt**2
        )
        return float(np.sqrt(max(np.dot(self.wq, dens), 0.0)))


# ---------------------------------------------------------------------------
# recovery sequences


@dataclass
class RecoveryInputs:
    """Static recovery data: the 1D target plus the cutoff parameter.

    The corrections multiply polynomial cutoffs whose zone width shrinks
    proportionally to eps; a fixed-width cutoff would leave an
    eps-independent energy offset and the recovery energies would stall
    above the target.  The target's fields at the x-nodes of a plate mesh
    do not depend on eps: ``build_recovery`` samples them and checks the
    target's traces once per x-node grid and boundary data, and keeps the
    samples here, arrays only, so one RecoveryInputs serves an eps-sweep.
    """

    target: RibbonState
    cutoff_width: float = 0.1
    _sampled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _samples(self, x1: np.ndarray, bc: BoundaryData) -> dict:
        """The target's fields and their derivatives at the points x1, after
        checking its traces against bc; kept for the next call with the same
        points, target values and bc."""
        target = self.target
        key = x1.tobytes(), target.vector.tobytes(), bc
        if self._sampled is not None and self._sampled[0] == key:
            return self._sampled[1]
        mesh1 = target.mesh
        # target must satisfy the 1D boundary data of the plate's lateral traces
        check_traces(target.vector, *dirichlet_1d(mesh1, bc), tol=1e-10)
        p1, h3 = P1Space(mesh1), Hermite3Space(mesh1)
        samples = {
            "theta": p1.evaluate(target.theta, x1, 0),
            "dtheta": _node_eval(p1, target.theta, x1, 1),
            "w": h3.evaluate(target.w, x1, 0),
            "dw": h3.evaluate(target.w, x1, 1),
            "ddw": _node_eval(h3, target.w, x1, 2),
            "dddw": _node_eval(h3, target.w, x1, 3),
            "xi1": p1.evaluate(target.xi1, x1, 0),
            "dxi1": _node_eval(p1, target.xi1, x1, 1),
            "xi2": h3.evaluate(target.xi2, x1, 0),
            "dxi2": h3.evaluate(target.xi2, x1, 1),
            "ddxi2": _node_eval(h3, target.xi2, x1, 2),
        }
        self._sampled = key, samples
        return samples


def _smoothstep_cutoff(x, l, delta):
    """C^1 polynomial cutoff: 0 at the ends of I, 1 outside the two zones.

    Returns (chi, chi') arrays."""
    x = np.asarray(x, dtype=float)
    chi = np.ones_like(x)
    dchi = np.zeros_like(x)
    if delta <= 0.0:
        return chi, dchi
    a = -0.5 * l
    b = 0.5 * l
    left = x < a + delta
    right = x > b - delta
    s = np.clip((x[left] - a) / delta, 0.0, 1.0)
    chi[left] = 3.0 * s**2 - 2.0 * s**3
    dchi[left] = (6.0 * s - 6.0 * s**2) / delta
    s = np.clip((b - x[right]) / delta, 0.0, 1.0)
    chi[right] = 3.0 * s**2 - 2.0 * s**3
    dchi[right] = -(6.0 * s - 6.0 * s**2) / delta
    return chi, dchi


def _node_eval(space, coeffs, x, deriv):
    """Field evaluation with one-sided averaging at element boundaries."""
    h = space.mesh.h
    nudge = 1e-7 * h
    lo = np.maximum(x - nudge, -0.5 * space.mesh.l)
    hi = np.minimum(x + nudge, 0.5 * space.mesh.l)
    return 0.5 * (space.evaluate(coeffs, lo, deriv) + space.evaluate(coeffs, hi, deriv))


def build_recovery(system: PlateSystem, inputs: RecoveryInputs) -> np.ndarray:
    """Plate state whose energy approaches the 1D energy of the target.

    Implements the static recovery ansatz: the deflection gains the twist
    layer eps * x2 * theta and (for materials with nonvanishing argmin
    maps) the transverse curvature corrector; the in-plane fields carry the
    Bernoulli-Navier embedding with the quadratic twist compensation.  All
    corrections vanish on the lateral boundary through the cutoff, and the
    constrained DOFs are enforced exactly afterwards.  The target's fields
    are sampled once per x-node of the plate mesh, and once per
    RecoveryInputs for all widths on that mesh; each call forms only the
    cutoff of zone width cutoff_width * eps, the correctors, and the
    polynomial x2-profiles of the ansatz node by node.
    """
    eps = system.eps
    mesh1, mesh2 = inputs.target.mesh, system.mesh
    if abs(mesh1.l - mesh2.l) > 1e-14 * mesh1.l:
        raise ValueError("target and plate meshes must share the interval length")
    x1 = mesh2.x_nodes
    ts = inputs._samples(x1, system.bc)
    k_alpha = system.material.W1.argmin_coeff  # alpha*(q11, q12) coefficients of the elastic form

    delta = min(inputs.cutoff_width * eps, 0.45 * mesh1.l)
    chi, dchi = _smoothstep_cutoff(x1, mesh1.l, delta)
    th, dth = ts["theta"], ts["dtheta"]
    # transverse curvature corrector: gamma = alpha*(w'', theta');
    # identically zero under vanishing argmin maps
    gam = k_alpha[0] * ts["ddw"] + k_alpha[1] * dth
    dgam = k_alpha[0] * ts["dddw"]  # theta'' = 0 for P1 twist
    # membrane corrector z = alpha*(q11-field, 0)
    za = k_alpha[0] * (ts["dxi1"] + 0.5 * ts["dw"] ** 2)
    zb = -k_alpha[0] * ts["ddxi2"]
    fields = {
        "theta": th * chi,
        "dtheta": dth * chi + th * dchi,
        "w": ts["w"],
        "dw": ts["dw"],
        "xi1": ts["xi1"],
        "xi2": ts["xi2"],
        "dxi2": ts["dxi2"],
        "gam": gam * chi,
        "dgam": dgam * chi + gam * dchi,
        "za": za * chi,
        "zb": zb * chi,
    }

    # the fields depend on x1 alone: give each x-node's values the ny + 1
    # nodes it owns in the x-major node order
    f = {k: np.repeat(v, mesh2.ny + 1) for k, v in fields.items()}
    x2 = mesh2.node_coords[1]
    quad = 0.5 * (x2 + 0.5) ** 2
    zint = f["za"] * (x2 + 0.5) + 0.5 * f["zb"] * (x2**2 - 0.25)
    nodal = (
        f["xi1"] - x2 * f["dxi2"] - eps * x2 * f["dw"] * f["theta"],
        f["xi2"] - 0.5 * eps**2 * x2 * f["theta"] ** 2 + eps**2 * zint,
        f["w"] + eps * x2 * f["theta"] + eps**2 * f["gam"] * quad,
        f["dw"] + eps * x2 * f["dtheta"] + eps**2 * f["dgam"] * quad,
        eps * f["theta"] + eps**2 * f["gam"] * (x2 + 0.5),
        eps * f["dtheta"] + eps**2 * f["dgam"] * (x2 + 0.5),
    )
    y1_fn, y2_fn, *w_fns = (lambda x1, x2, a=a: a for a in nodal)
    u = system.interpolate(y1_fn, y2_fn, w_fns)
    system.check_admissible(u)
    return u
