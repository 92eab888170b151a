"""Independent code paths that the tests check the package against."""

import numpy as np

from vkribbon.fem import BFSSpace, FemError, GaussRule, Mesh2D, Q1Space, Quadrature2D
from vkribbon.ribbon import BEND_FACTOR, RibbonState


def repeat_tile_quadrature(mesh: Mesh2D, rule: GaussRule) -> dict:
    """Every per-point array of a 2D tensor Gauss rule, built point by point
    from repeat and tile chains in the (ex, kx, ey, ky)-major layout."""
    p, nx, ny = rule.order, mesh.nx, mesh.ny
    x_nodes = np.linspace(-0.5 * mesh.l, 0.5 * mesh.l, nx + 1)
    y_nodes = np.linspace(-0.5, 0.5, ny + 1)
    sx = np.repeat(np.tile(rule.points, nx), ny * p)
    ex = np.repeat(np.arange(nx), p * ny * p)
    ey = np.tile(np.repeat(np.arange(ny), p), nx * p)
    sy = np.tile(np.tile(rule.points, ny), nx * p)
    wx = np.repeat(np.tile(rule.weights * mesh.hx, nx), ny * p)
    wy = np.tile(np.tile(rule.weights * mesh.hy, ny), nx * p)
    return {
        "ref_x": sx,
        "ref_y": sy,
        "element_x": ex,
        "element_y": ey,
        "x": x_nodes[ex] + sx * mesh.hx,
        "y": y_nodes[ey] + sy * mesh.hy,
        "weights": wx * wy,
    }


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


def point_channels(system, u: np.ndarray) -> np.ndarray:
    """The strain channels at every quadrature point, (n_points, ns), in point order."""
    return system._by_point(system._channels(u)[0])


def _half_form(system, s: np.ndarray, Q: np.ndarray) -> float:
    """1/2 int s . Q s for channels s (n_points, n) in point order."""
    return 0.5 * float(np.einsum("q,qi,ij,qj->", system.wq, s, Q, s))


def ribbon_energy_parts(system, u: np.ndarray) -> dict:
    s = point_channels(system, u)
    Q = system.QW
    return {
        "stretching": _half_form(system, s[:, :1], Q[:1, :1]),
        "bending_xi2": _half_form(system, s[:, 1:2], Q[1:2, 1:2]),
        "bending_twist": _half_form(system, s[:, 2:], Q[2:, 2:]),
        "force": float(np.dot(system._force, u)),
    }


def plate_energy_parts(system, u: np.ndarray) -> dict:
    s = point_channels(system, u)
    return {
        "membrane": _half_form(system, s[:, :3], system.QW[:3, :3]),
        "bending": _half_form(system, s[:, 3:], system.QW[3:, 3:]),
        "force": float(np.dot(system._force, u)),
    }


def energy_via_extended_form(system, u: np.ndarray) -> float:
    """0.5 * int_S Qbar_W(G) using the assembled 3x3 matrix; no forces."""
    M = system.material.Wbar.M
    return 0.5 * _extended_integral(system, M, point_channels(system, u))


def sqdist_via_extended_form(system, ua: np.ndarray, ub: np.ndarray) -> float:
    M = system.material.Rbar.M
    d = point_channels(system, ua) - point_channels(system, ub)
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


def _unfused_parts(system):
    """The element product T ((point, row pair), element pair a <= b), with
    quadrature weights, and the constant blocks (K_W, K_R) of the linear
    rows, as the assembly computed them before it folded the slope forms."""
    t = system._tables
    rows, k = t.rows, t.rows.shape[-1]
    a, b = np.triu_indices(k)
    i, j = np.array(system._row_pairs).T
    ri, rj = rows[:, i], rows[:, j]
    T = ri[..., a] * rj[..., b] + (i != j)[:, None] * rj[..., a] * ri[..., b]
    T = (T * t.weights[:, None, None]).reshape(-1, a.size)
    lin = rows[:, system.LINEAR_ROWS]
    weighted = (lin * t.weights[:, None, None]).reshape(-1, k)
    K = [(weighted.T @ (Q @ lin).reshape(-1, k))[a, b] for Q in (system.QW, system.QR)]
    return T, K


def _unfused_forms(system):
    """(F_W, F_R, F_G) on the inputs (g, g_c g_d for every ordered (c, d), sig_m)."""
    D2 = system._D2
    nm, ng = D2.shape[:2]
    c, d = np.tril_indices(ng)
    n = ng * nm
    F = np.zeros((3, ng + ng * ng + nm, n + len(c)))
    for Fq, Q in zip(F, (system.QW[:nm, :nm], system.QR[:nm, :nm])):
        Fq[:ng, :n] = np.einsum("kj,jcd->dck", Q, D2).reshape(ng, n)
        P = np.einsum("jca,jk,kdb->abcd", D2, Q, D2)
        Fq[ng:-nm, n:] = P[..., c, d].reshape(-1, len(c))
    F[2, -nm:, n:] = D2[:, c, d]
    return F


def unfused_hessian(system, anchor: np.ndarray, u: np.ndarray, cw: float, cr: float):
    """Dense free-DOF Hessian of cw phi + cr D^2(anchor, .)/2 at u by the
    unfused assembly: the density z (cw F_W + cr F_R + F_G) on the row pairs
    at every point, its element values rem @ T, plus cw K_W + cr K_R."""
    t = system._tables
    nm, ng = system._D2.shape[:2]

    def channels(v):
        R = system.quad.by_element(system.rows(v)).reshape(-1, len(t.rows[0]))
        g = R[:, system.SLOPE_ROWS]
        s = R[:, system.LINEAR_ROWS].copy()
        for m, (a, b) in enumerate(system.MEMBRANE_SLOPES):
            s[:, m] += 0.5 * g[:, a] * g[:, b]
        return s, g

    s, g = channels(u)
    sig = cw * s @ system.QW + cr * (s - channels(anchor)[0]) @ system.QR
    gg = (g[:, :, None] * g[:, None, :]).reshape(len(g), -1)
    z = np.concatenate([g, gg, sig[:, :nm]], axis=1)
    FW, FR, FG = _unfused_forms(system)
    rem = z @ (cw * FW + cr * FR + FG)
    T, (KW, KR) = _unfused_parts(system)
    values = rem.reshape(len(t.dofs), -1) @ T + cw * KW + cr * KR
    a, b = np.triu_indices(t.dofs.shape[1])
    full = np.zeros((system.n_dofs, system.n_dofs))
    np.add.at(full, (t.dofs[:, a], t.dofs[:, b]), values)
    off = a != b
    np.add.at(full, (t.dofs[:, b[off]], t.dofs[:, a[off]]), values[:, off])
    return full[np.ix_(system.free, system.free)]


def reached_pairs(system) -> set:
    """The element pairs (a, b), a <= b, that the unfused assembly reaches."""
    T, (KW, KR) = _unfused_parts(system)
    a, b = np.triu_indices(system._tables.dofs.shape[1])
    hit = np.any(T != 0.0, axis=0) | (KW != 0.0) | (KR != 0.0)
    return set(zip(a[hit].tolist(), b[hit].tolist()))


def sampled_force(system) -> np.ndarray:
    """The load vector as the sampling matrices build it: B^T (wq f) for each
    nonzero load f and the value matrix B of its field's space."""
    f = np.zeros(system.n_dofs)
    value = (0,) * (2 if isinstance(system.quad, Quadrature2D) else 1)
    for name, space, load in system._loads:
        if np.any(load.coef):
            B = space.sample_matrix(system.quad, *value)
            f[system.slices[name]] = B.T @ (system.wq * system.quad.of_x1(load))
    return f


FAMILY_GRID = np.array([-1.0, -0.35, 0.4, 1.0])


def family_limit_holds(pair) -> bool:
    """Check lim_{eps->0} Q2_{R,eps}(q11,q12,alpha) = Q1_R(q11,q12) on a grid:
    the viscous forms of decreasing widths against the reduced form."""
    g = FAMILY_GRID
    q11, q12, alpha = np.meshgrid(g, g, g, indexing="ij")
    target = pair.R1(q11, q12)
    scale = 1.0 + np.abs(target).max()
    defects = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        C = pair.viscous_matrix(eps)
        q = np.stack([q11, q12, alpha], axis=-1)
        val = np.einsum("...i,ij,...j->...", q, C, q)
        defects.append(np.abs(val - target).max())
    return defects[-1] <= 1e-3 * scale and defects[-1] <= 1e-2 * max(defects[0], 1e-30)
