"""The effective 1D gradient system for a viscoelastic von Karman ribbon.

State fields on I = (-l/2, l/2): axial stretch xi1 (P1), orthogonal
in-plane displacement xi2 (Hermite3), deflection w (Hermite3), twist
theta (P1).  The in-plane displacement of the underlying strip is the
Bernoulli-Navier combination y1 = xi1 - x2 * xi2', y2 = xi2.

Energy and squared dissipation distance are integrals of the extended
quadratic forms of the strain triple

    G(u) = (xi1' + |w'|^2 / 2 - x2 * xi2'',  w'',  theta'),

where the transverse variable is integrated analytically through the
moments  int x2 = 0  and  int x2^2 = 1/12.  Every integral below is
therefore one-dimensional; the x2-moment of the first channel travels
as a separate sample array (the xi2'' channel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .fem import (
    BoundaryData,
    FieldSystem,
    Hermite3Space,
    Mesh1D,
    P1Space,
    Quadrature1D,
    dirichlet_1d,
    poly_from_coeffs,
    triple_product,  # noqa: F401  (perfbench/layers.py traces it under this module)
)
from .forms import MaterialPair

BEND_FACTOR = 1.0 / 12.0  # transverse second moment of the unit-width strip


@dataclass(frozen=True)
class RibbonForces:
    """Time-independent load densities on I: vertical f, in-plane (g1, g2)."""

    f: Polynomial
    g1: Polynomial
    g2: Polynomial

    @classmethod
    def from_coeffs(cls, f=(0.0,), g1=(0.0,), g2=(0.0,)) -> "RibbonForces":
        return cls(poly_from_coeffs(f), poly_from_coeffs(g1), poly_from_coeffs(g2))

    @classmethod
    def zero(cls) -> "RibbonForces":
        return cls.from_coeffs()


@dataclass
class RibbonState:
    """Coefficient vectors of (xi1, xi2, w, theta); a point of the 1D metric space."""

    mesh: Mesh1D
    bc: BoundaryData
    xi1: np.ndarray
    xi2: np.ndarray
    w: np.ndarray
    theta: np.ndarray

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.xi1, self.xi2, self.w, self.theta])


@dataclass
class SlopeSolution:
    """The ribbon's slope representation (RibbonSystem.slope_solution).

    ``value`` is |dphi|(u), bitwise FieldSystem.local_slope(u);
    ``representation`` |dphi|(u) recomputed from the pointwise operator
    field L = Cbar_R H(u*) - Cbar_W G through the inverse square root of
    Cbar_R; ``orthogonality`` the largest pairing of L with the discrete
    test basis, the residual of the auxiliary problem; ``L_norm`` the L2
    norm of L.
    """

    value: float
    representation: float
    orthogonality: float
    L_norm: float


class RibbonSystem(FieldSystem):
    """Discrete gradient system (energy, metric, derivatives) on a fixed mesh.

    Instances are read-only after construction, apart from caches filled
    on first use, and safe to share; all methods operate on packed DOF
    vectors (xi1 | xi2 | w | theta).  The strain (a, m, kappa, t) adds
    w'^2 / 2 to a.  The four blocks of the weak residual are the four weak
    equations.
    """

    LINEAR_ROWS = [0, 1, 3, 4]
    SLOPE_ROWS = [2]
    MEMBRANE_SLOPES = [(0, 0)]

    def __init__(
        self,
        mesh: Mesh1D,
        material: MaterialPair,
        bc: BoundaryData | None = None,
        forces: RibbonForces | None = None,
    ):
        self.mesh = mesh
        self.material = material
        self.bc = bc or BoundaryData.zero()
        self.forces = forces or RibbonForces.zero()
        self.quad = Quadrature1D(mesh)

        self.p1 = P1Space(mesh)
        self.h3 = Hermite3Space(mesh)
        n1, n3 = self.p1.n_dofs, self.h3.n_dofs
        sizes = {"xi1": n1, "xi2": n3, "w": n3, "theta": n1}
        self._set_layout(sizes, *dirichlet_1d(mesh, self.bc))

        self.wq = self.quad.weights
        f = self.forces
        self._loads = [("w", self.h3, f.f), ("xi1", self.p1, f.g1), ("xi2", self.h3, f.g2)]
        # the strain channels (a, m, kappa, t) carry C0, C0 / 12 and Q1 / 12
        self.QW, self.QR = np.zeros((4, 4)), np.zeros((4, 4))
        m = material
        for Q, Q0, Q1 in ((self.QW, m.W0, m.W1), (self.QR, m.R0, m.R1)):
            Q[0, 0], Q[1, 1], Q[2:, 2:] = Q0.C0, BEND_FACTOR * Q0.C0, BEND_FACTOR * Q1.C

    # -- state handling ----------------------------------------------------

    def state(self, u: np.ndarray) -> RibbonState:
        xi1, xi2, w, theta = self.split(u)
        return RibbonState(self.mesh, self.bc, xi1.copy(), xi2.copy(), w.copy(), theta.copy())

    def interpolate(self, xi1_poly, xi2_poly, w_poly, theta_poly) -> np.ndarray:
        """Interpolate polynomial data into the FEM spaces and enforce the BCs."""
        xi2p, wp = poly_from_coeffs(xi2_poly), poly_from_coeffs(w_poly)
        u = np.concatenate(
            [
                self.p1.interpolate(poly_from_coeffs(xi1_poly)),
                self.h3.interpolate(xi2p, xi2p.deriv()),
                self.h3.interpolate(wp, wp.deriv()),
                self.p1.interpolate(poly_from_coeffs(theta_poly)),
            ]
        )
        u[self.bc_mask] = self.bc_values[self.bc_mask]
        return u

    def _element_rows(self):
        """Element DOFs (xi1 | xi2 | w | theta) and reference rows xi1',
        xi2'', w', w'', theta'; the extended form couples w' to xi1' and
        theta' to w''."""
        q = self.quad
        e = np.arange(self.mesh.n)
        p1_dofs, h3_dofs = self.p1.element_dofs(e), self.h3.element_dofs(e)
        off = self.offsets
        dofs = np.hstack([p1_dofs, h3_dofs + off[1], h3_dofs + off[2], p1_dofs + off[3]])
        s = q.rule.points
        rows = np.zeros((s.size, 5, dofs.shape[1]))
        rows[:, 0, 0:2] = rows[:, 4, 10:12] = self.p1.ref_basis(s, 1)
        rows[:, 1, 2:6] = rows[:, 3, 6:10] = self.h3.ref_basis(s, 2)
        rows[:, 2, 6:10] = self.h3.ref_basis(s, 1)
        coupling = np.eye(5, dtype=bool)
        coupling[0, 2] = coupling[2, 0] = coupling[3, 4] = coupling[4, 3] = True
        return dofs, rows, coupling

    # -- slope representation ---------------------------------------------

    def slope_solution(self, u: np.ndarray) -> SlopeSolution:
        """local_slope(u) with the diagnostics of the operator field
        L = Cbar_R H(u*) - Cbar_W G, u* the minimizer of its auxiliary
        problem and H(u*) the channels linearized at u in the direction u*.
        Raises FemError where local_slope does."""
        ch = self._channels(u)
        value, hstar = self._slope_solve(ch)
        full = np.zeros(self.n_dofs)
        full[self.free] = hstar
        m = self.material
        # the channel rows (a, m, kappa, t) of H(u*) and G
        H, G = self._linearized(ch, full), ch[0]
        # L = Cbar_R H(u*) - Cbar_W G, split into transverse-average and
        # moment parts of the first channel
        CR, CW = m.Rbar.M, m.Wbar.M
        vH, vG = H[[0, 2, 3]], G[[0, 2, 3]]
        L_avg = CR @ vH - CW @ vG
        L_m = CR[0, 0] * H[1] - CW[0, 0] * G[1]
        wq = self._tables.point_weights

        def integral(avg, moment):  # int |avg|^2 + int |moment|^2 / 12
            a, b = (np.einsum("cq,cq->q", v, v) @ wq for v in (avg, moment))
            return a + BEND_FACTOR * b

        l_norm = float(np.sqrt(integral(L_avg, L_m[None])))
        # representation: | sqrt(CR)^{-1} (Cbar_W G + L) | = | sqrt(CR) H(u*) |
        z = CW @ vG + L_avg
        z_m = CW[0, 0] * G[1] + L_m
        inv = m.Rbar.invsqrt
        representation = float(np.sqrt(max(integral(inv @ z, inv[:, :1] * z_m), 0.0)))
        # the pairing of L with the test basis is the residual K u* - g: the
        # gradient of the stress QR H(u*) - QW G with the loads of -phi
        resid = self._gradient(ch[1], self.QR @ H - self.QW @ G, -1.0)[self.free]
        orto = float(np.abs(resid).max(initial=0.0))
        if not abs(representation - value) <= 1e-10 * max(value, 1.0):
            raise AssertionError(f"slope representation mismatch: {representation} vs {value}")
        return SlopeSolution(
            value=value, representation=representation, orthogonality=orto, L_norm=l_norm
        )
