"""Independent code paths that the tests check the package against."""

import numpy as np

from vkribbon.fem import BFSSpace, FemError, Mesh2D, Q1Space
from vkribbon.ribbon import BEND_FACTOR, RibbonState


def scaled_operators_2d(mesh: Mesh2D, eps: float, fields: dict, points) -> dict:
    """Sample the scaled operators E^eps y, grad_eps w, hess_eps w.

    ``fields`` holds coefficient vectors for "y1", "y2" (Q1) and "w" (BFS);
    ``points`` is an (npts, 2) array.  The 1/eps and 1/eps^2 factors sit on
    the transverse derivatives exactly as in the scaled formulation.
    Returns symmetric matrices in (11, 12, 22) component order.
    """
    if eps <= 0.0:
        raise FemError(f"scaled operators: eps must be positive, got {eps}")
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
    q1 = Q1Space(mesh)
    bfs = BFSSpace(mesh)
    d1y1 = q1.evaluate(fields["y1"], x, y, 1, 0)
    d2y1 = q1.evaluate(fields["y1"], x, y, 0, 1)
    d1y2 = q1.evaluate(fields["y2"], x, y, 1, 0)
    d2y2 = q1.evaluate(fields["y2"], x, y, 0, 1)
    E = np.stack(
        [d1y1, (d2y1 + d1y2) / (2.0 * eps), d2y2 / eps**2], axis=-1
    )
    w = fields["w"]
    grad = np.stack(
        [bfs.evaluate(w, x, y, 1, 0), bfs.evaluate(w, x, y, 0, 1) / eps], axis=-1
    )
    hess = np.stack(
        [
            bfs.evaluate(w, x, y, 2, 0),
            bfs.evaluate(w, x, y, 1, 1) / eps,
            bfs.evaluate(w, x, y, 0, 2) / eps**2,
        ],
        axis=-1,
    )
    return {"E": E, "grad_w": grad, "hess_w": hess}


def _half_form(system, s: np.ndarray, Q: np.ndarray) -> float:
    """1/2 int s . Q s for element-local channels s (E, nq, n), weighted by
    the system's quadrature weights regrouped by element."""
    w = system.quad.by_element(system.wq)
    return 0.5 * float(np.einsum("eq,eqi,ij,eqj->", w, s, Q, s))


def ribbon_energy_parts(system, u: np.ndarray) -> dict:
    s, _ = system._channels(u)
    Q = system.QW
    return {
        "stretching": _half_form(system, s[..., :1], Q[:1, :1]),
        "bending_xi2": _half_form(system, s[..., 1:2], Q[1:2, 1:2]),
        "bending_twist": _half_form(system, s[..., 2:], Q[2:, 2:]),
        "force": float(np.dot(system._force, u)),
    }


def plate_energy_parts(system, u: np.ndarray) -> dict:
    s, _ = system._channels(u)
    return {
        "membrane": _half_form(system, s[..., :3], system.QW[:3, :3]),
        "bending": _half_form(system, s[..., 3:], system.QW[3:, 3:]),
        "force": float(np.dot(system._force, u)),
    }


def energy_via_extended_form(system, u: np.ndarray) -> float:
    """0.5 * int_S Qbar_W(G) using the assembled 3x3 matrix; no forces."""
    M = system.material.Wbar.M
    ch = system._channels(u)[0].reshape(-1, 4)
    return 0.5 * _extended_integral(system, M, ch)


def sqdist_via_extended_form(system, ua: np.ndarray, ub: np.ndarray) -> float:
    M = system.material.Rbar.M
    d = system._channels(ua)[0].reshape(-1, 4) - system._channels(ub)[0].reshape(-1, 4)
    return _extended_integral(system, M, d)


def _extended_integral(system, M: np.ndarray, ch: np.ndarray) -> float:
    """ch holds the channel columns (a, m, kappa, t) at the quadrature points."""
    v = ch[:, [0, 2, 3]]
    dens = np.einsum("qi,ij,qj->q", v, M, v) + BEND_FACTOR * M[0, 0] * ch[:, 1] ** 2
    return float(np.dot(system.wq, dens))


def sobolev_gap(system, ua: np.ndarray, ub: np.ndarray) -> float:
    """|w - w~|_{W^{2,2}} + |theta - theta~|_{W^{1,2}} via quadrature."""
    d = ua - ub
    _, _, dw, dth = system.split(d)
    R, x, wq = system.rows(d), system.quad.points, system.wq
    w_sq = (
        np.dot(wq, system.h3.evaluate(dw, x) ** 2)
        + np.dot(wq, R[:, 2] ** 2)
        + np.dot(wq, R[:, 3] ** 2)
    )
    th_sq = np.dot(wq, system.p1.evaluate(dth, x) ** 2) + np.dot(wq, R[:, 4] ** 2)
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
