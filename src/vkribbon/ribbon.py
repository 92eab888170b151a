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
import scipy.sparse as sp
from numpy.polynomial import Polynomial

from .fem import (
    BoundaryData,
    FemError,
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
class ChannelSamples:
    """Strain channels at the quadrature points.

    ``a`` is the transverse average of the first channel; ``m`` its
    x2-moment channel (the xi2'' samples); ``kappa`` and ``t`` are the
    bending and twist channels w'' and theta'.
    """

    a: np.ndarray
    m: np.ndarray
    kappa: np.ndarray
    t: np.ndarray

    def minus(self, other: "ChannelSamples") -> "ChannelSamples":
        return ChannelSamples(
            self.a - other.a, self.m - other.m, self.kappa - other.kappa, self.t - other.t
        )


@dataclass
class SlopeSolution:
    """Local slope of the energy with the auxiliary-problem diagnostics.

    ``value`` is |dphi|(u); ``minimizer`` the solution of the quadratic
    auxiliary problem on the zero-trace test space; ``representation``
    the same number recomputed from the pointwise operator field
    L = Cbar_R H(u*) - Cbar_W G; ``orthogonality`` the largest pairing
    of L against the discrete test basis.
    """

    value: float
    minimizer: np.ndarray
    L: dict
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

        q = self.quad
        self.wq = q.weights
        self.f_q = self.forces.f(q.points)
        self.g1_q = self.forces.g1(q.points)
        self.g2_q = self.forces.g2(q.points)
        self._loads = [
            ("w", self.h3, self.f_q), ("xi1", self.p1, self.g1_q), ("xi2", self.h3, self.g2_q)
        ]
        # the strain channels (a, m, kappa, t) carry C0, C0 / 12 and Q1 / 12
        self.QW, self.QR = np.zeros((4, 4)), np.zeros((4, 4))
        m = material
        for Q, Q0, Q1 in ((self.QW, m.W0, m.W1), (self.QR, m.R0, m.R1)):
            Q[0, 0], Q[1, 1], Q[2:, 2:] = Q0.C0, BEND_FACTOR * Q0.C0, BEND_FACTOR * Q1.C

    # -- state handling ----------------------------------------------------

    def state(self, u: np.ndarray) -> RibbonState:
        xi1, xi2, w, theta = self.split(u)
        return RibbonState(self.mesh, self.bc, xi1.copy(), xi2.copy(), w.copy(), theta.copy())

    def pack(self, xi1, xi2, w, theta) -> np.ndarray:
        return np.concatenate([xi1, xi2, w, theta])

    def interpolate(self, xi1_poly, xi2_poly, w_poly, theta_poly) -> np.ndarray:
        """Interpolate polynomial data into the FEM spaces and enforce the BCs."""
        xi1p = poly_from_coeffs(xi1_poly) if not isinstance(xi1_poly, Polynomial) else xi1_poly
        xi2p = poly_from_coeffs(xi2_poly) if not isinstance(xi2_poly, Polynomial) else xi2_poly
        wp = poly_from_coeffs(w_poly) if not isinstance(w_poly, Polynomial) else w_poly
        thp = poly_from_coeffs(theta_poly) if not isinstance(theta_poly, Polynomial) else theta_poly
        u = self.pack(
            self.p1.interpolate(xi1p),
            self.h3.interpolate(xi2p, xi2p.deriv()),
            self.h3.interpolate(wp, wp.deriv()),
            self.p1.interpolate(thp),
        )
        u[self.bc_mask] = self.bc_values[self.bc_mask]
        return u

    # -- strain channels ----------------------------------------------------

    def channels(self, u: np.ndarray) -> ChannelSamples:
        return ChannelSamples(*self._channels(u)[0].reshape(-1, 4).T)

    def h_channels(self, du: np.ndarray, w_anchor_prime: np.ndarray) -> ChannelSamples:
        """Linearized channels H(du | w): membrane slot xi1' + w' * dw'."""
        R = self.rows(du)
        return ChannelSamples(R[:, 0] + w_anchor_prime * R[:, 2], R[:, 1], R[:, 3], R[:, 4])

    # -- energy / metric ----------------------------------------------------

    def energy_parts(self, u: np.ndarray) -> dict:
        s, _ = self._channels(u)
        Q = self.QW
        return {
            "stretching": self._form(s[..., :1], Q[:1, :1]),
            "bending_xi2": self._form(s[..., 1:2], Q[1:2, 1:2]),
            "bending_twist": self._form(s[..., 2:], Q[2:, 2:]),
            "force": float(np.dot(self._force, u)),
        }

    # -- extended-form evaluation (independent code path for tests) --------

    def energy_via_extended_form(self, u: np.ndarray) -> float:
        """0.5 * int_S Qbar_W(G) using the assembled 3x3 matrix; no forces."""
        M = self.material.Wbar.M
        ch = self.channels(u)
        return 0.5 * self._extended_integral(M, ch)

    def sqdist_via_extended_form(self, ua: np.ndarray, ub: np.ndarray) -> float:
        M = self.material.Rbar.M
        d = self.channels(ua).minus(self.channels(ub))
        return self._extended_integral(M, d)

    def _extended_integral(self, M: np.ndarray, ch: ChannelSamples) -> float:
        v = np.stack([ch.a, ch.kappa, ch.t], axis=-1)
        dens = np.einsum("qi,ij,qj->q", v, M, v) + BEND_FACTOR * M[0, 0] * ch.m**2
        return float(np.dot(self.wq, dens))

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

    # -- local slope ----------------------------------------------------------

    def metric_tensor(self, u: np.ndarray) -> sp.csc_matrix:
        """Hessian of v -> D^2(u, v)/2 at v = u; SPD on the free DOFs."""
        return self.hess_halfsqdist(u, u)

    def local_slope(self, u: np.ndarray, detailed: bool = False):
        """Local slope |dphi|(u) via the auxiliary quadratic problem.

        Solves  K h* = g  with K the metric tensor at u and g the energy
        gradient, both restricted to the zero-trace test space; then
        |dphi|(u)^2 = g . h*.  Raises FemError when the band Cholesky
        rejects K, as it does at a non-finite u.  With ``detailed`` the
        operator field L and its orthogonality/representation diagnostics
        are returned.
        """
        ch = self._channels(u)
        g = self._gradient(ch, ch, 1.0, 0.0)[self.free]
        K = self._hessian(ch, ch, 0.0, 1.0)
        solve = self._plan.factor(K)
        if solve is None:
            raise FemError("metric tensor not positive definite at u")
        hstar = solve(g)
        slope_sq = float(np.dot(g, hstar))
        value = float(np.sqrt(max(slope_sq, 0.0)))
        if not detailed:
            return value

        full = np.zeros(self.n_dofs)
        full[self.free] = hstar
        m = self.material
        H = self.h_channels(full, ch[1].ravel())
        G = ChannelSamples(*ch[0].reshape(-1, 4).T)
        # L = Cbar_R H(u*) - Cbar_W G, split into transverse-average and
        # moment parts of the first channel
        CR, CW = m.Rbar.M, m.Wbar.M
        vH = np.stack([H.a, H.kappa, H.t], axis=-1)
        vG = np.stack([G.a, G.kappa, G.t], axis=-1)
        L_avg = vH @ CR.T - vG @ CW.T
        L_m = CR[0, 0] * H.m - CW[0, 0] * G.m
        l_norm = float(
            np.sqrt(
                np.dot(self.wq, np.einsum("qi,qi->q", L_avg, L_avg))
                + BEND_FACTOR * np.dot(self.wq, L_m**2)
            )
        )
        # representation: | sqrt(CR)^{-1} (Cbar_W G + L) | = | sqrt(CR) H(u*) |
        z = vG @ CW.T + L_avg
        z_m = CW[0, 0] * G.m + L_m
        inv = m.Rbar.invsqrt
        r = z @ inv.T
        r_m = inv[:, 0] * z_m[:, None]
        rep_sq = np.dot(self.wq, np.einsum("qi,qi->q", r, r)) + BEND_FACTOR * np.dot(
            self.wq, np.einsum("qi,qi->q", r_m, r_m)
        )
        representation = float(np.sqrt(max(rep_sq, 0.0)))
        resid = K.tocsc() @ hstar - g
        orto = float(np.abs(resid).max()) if resid.size else 0.0
        if not (
            abs(representation - value) <= 1e-10 * max(value, 1.0)
        ):
            raise AssertionError(
                f"slope representation mismatch: {representation} vs {value}"
            )
        return SlopeSolution(
            value=value,
            minimizer=full,
            L={"avg": L_avg, "moment": L_m},
            representation=representation,
            orthogonality=orto,
            L_norm=l_norm,
        )

    # -- misc -----------------------------------------------------------------

    def sobolev_gap(self, ua: np.ndarray, ub: np.ndarray) -> float:
        """|w - w~|_{W^{2,2}} + |theta - theta~|_{W^{1,2}} via quadrature."""
        d = ua - ub
        _, _, dw, dth = self.split(d)
        R, x, wq = self.rows(d), self.quad.points, self.wq
        w_sq = (
            np.dot(wq, self.h3.evaluate(dw, x) ** 2)
            + np.dot(wq, R[:, 2] ** 2)
            + np.dot(wq, R[:, 3] ** 2)
        )
        th_sq = np.dot(wq, self.p1.evaluate(dth, x) ** 2) + np.dot(wq, R[:, 4] ** 2)
        return float(np.sqrt(w_sq) + np.sqrt(th_sq))


def mutual_shift(z_k: RibbonState, z: RibbonState, u: RibbonState) -> RibbonState:
    """1D mutual recovery: u_k = z_k + (u - z), componentwise in the DOFs.

    The (xi2, w, theta)-differences of (z_k, u_k) equal those of (z, u)
    exactly, which pins the bending/twist parts of energy and metric.
    """
    if z_k.mesh != z.mesh or z.mesh != u.mesh:
        raise ValueError("mutual shift requires a shared mesh")
    return RibbonState(
        mesh=z_k.mesh,
        bc=u.bc,
        xi1=z_k.xi1 + (u.xi1 - z.xi1),
        xi2=z_k.xi2 + (u.xi2 - z.xi2),
        w=z_k.w + (u.w - z.w),
        theta=z_k.theta + (u.theta - z.theta),
    )
