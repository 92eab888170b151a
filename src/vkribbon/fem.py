"""Conforming finite element spaces on the interval I and the fixed strip S.

1D fields live on I = (-l/2, l/2):
    P1        linear hats for the W^{1,2}-fields (axial stretch, twist)
    Hermite3  cubic Hermite, C^1 conforming, for the W^{2,2}-fields

2D fields live on S = I x (-1/2, 1/2), tensor-product rectangles:
    Q1   bilinear for the in-plane displacements
    BFS  Bogner-Fox-Schmit bicubic, C^1 conforming, for the deflection;
         DOFs per node: value, d1, d2, d12

All meshes are uniform, so the basis derivatives at an element's
quadrature points form one reference table shared by every element.
ElementTables pairs that table with the element-DOF list: ``evaluate``
gathers the element coefficients and yields every row value at every
point in one matrix product, and ``scatter``, its transpose, turns
per-point row coefficients into a DOF vector with one more product and a
bincount.  Energies, gradients and every diagnostic field value are read
through these two operations.  An ElementAssembly plan, made on the first
Hessian, orders the fixed pattern of the free DOFs by reverse
Cuthill-McKee into a narrow band.  The strain channels, which FieldSystem
writes once, are the linear element rows a system declares plus halved
products of its slope rows, so the plan computes the element values of
the channel forms on the linear rows once, and each Hessian adds the
rest, one product of the slopes with constant slope forms, with one more
matrix product and one bincount straight into LAPACK band storage, where
the plan factors it by banded Cholesky, unscaled or with its diagonal
raised by a given multiple of |diag H|, into a solver that outlives it.
A space's sparse sampling matrix (rows = quadrature points, columns =
DOFs) builds the load vector, once per system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import Polynomial
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee


class FemError(ValueError):
    pass


# ---------------------------------------------------------------------------
# meshes


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of the interval I = (-l/2, l/2) with n >= 2 elements."""

    l: float = 1.0
    n: int = 64

    def __post_init__(self):
        if self.l <= 0.0:
            raise FemError(f"mesh: length l must be positive, got {self.l}")
        if self.n < 2:
            raise FemError(f"mesh: need at least 2 elements, got {self.n}")

    @property
    def h(self) -> float:
        return self.l / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(-0.5 * self.l, 0.5 * self.l, self.n + 1)

    def locate(self, x) -> np.ndarray:
        """Element index of each point (clamped to valid range)."""
        x = np.asarray(x, dtype=float)
        idx = np.floor((x + 0.5 * self.l) / self.h).astype(int)
        return np.clip(idx, 0, self.n - 1)


@dataclass(frozen=True)
class Mesh2D:
    """Tensor-product mesh of S = I x (-1/2, 1/2), nx x ny rectangles."""

    l: float = 1.0
    nx: int = 64
    ny: int = 8

    def __post_init__(self):
        if self.l <= 0.0:
            raise FemError(f"mesh: length l must be positive, got {self.l}")
        if self.nx < 2 or self.ny < 2:
            raise FemError(f"mesh: need nx, ny >= 2, got ({self.nx}, {self.ny})")

    @property
    def hx(self) -> float:
        return self.l / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / self.ny

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(-0.5 * self.l, 0.5 * self.l, self.nx + 1)

    @property
    def y_nodes(self) -> np.ndarray:
        return np.linspace(-0.5, 0.5, self.ny + 1)

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    def node_index(self, i, j):
        """Global node number of grid node (i, j); x-major ordering."""
        return np.asarray(i) * (self.ny + 1) + np.asarray(j)

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        xi, yj = np.meshgrid(self.x_nodes, self.y_nodes, indexing="ij")
        return xi.ravel(), yj.ravel()


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class GaussRule:
    """Gauss-Legendre points/weights on the reference interval [0, 1].

    ``order`` points integrate polynomials up to degree 2*order - 1
    exactly.  The default order 5 makes the quartic membrane nonlinearity
    |w'|^4 of a cubic Hermite field (degree 8) exact.
    """

    order: int = 5

    def __post_init__(self):
        if self.order < 1:
            raise FemError("quadrature order must be >= 1")
        pts, wts = np.polynomial.legendre.leggauss(self.order)
        object.__setattr__(self, "_pts", 0.5 * (pts + 1.0))
        object.__setattr__(self, "_wts", 0.5 * wts)

    @property
    def points(self) -> np.ndarray:
        return self._pts

    @property
    def weights(self) -> np.ndarray:
        return self._wts


class Quadrature1D:
    """Gauss rule replicated over every element of a 1D mesh."""

    def __init__(self, mesh: Mesh1D, rule: GaussRule | None = None):
        self.mesh = mesh
        self.rule = rule or GaussRule()
        p = self.rule.order
        e = np.arange(mesh.n)
        self.ref = np.tile(self.rule.points, mesh.n)
        self.element = np.repeat(e, p)
        self.points = mesh.nodes[self.element] + self.ref * mesh.h
        self.weights = np.tile(self.rule.weights * mesh.h, mesh.n)
        self.n_points = self.points.size

    def by_element(self, values) -> np.ndarray:
        """Point values regrouped as (element, local point, ...)."""
        v = np.asarray(values)
        return v.reshape((self.mesh.n, self.rule.order) + v.shape[1:])

    def by_point(self, values) -> np.ndarray:
        """The inverse of by_element: element-local values back in point order."""
        v = np.asarray(values)
        return v.reshape((self.n_points,) + v.shape[2:])


class Quadrature2D:
    """Tensor Gauss rule on a 2D mesh.

    Point layout is (ex, kx, ey, ky)-major so each x1-station (ex, kx)
    owns a contiguous block of ny*order transverse points; x2-averages
    reduce to a reshape + weighted sum.
    """

    def __init__(self, mesh: Mesh2D, rule: GaussRule | None = None):
        self.mesh = mesh
        self.rule = rule or GaussRule()
        p = self.rule.order
        nx, ny = mesh.nx, mesh.ny
        sx = np.repeat(np.tile(self.rule.points, nx), ny * p)
        ex = np.repeat(np.arange(nx), p * ny * p)
        block = np.tile(np.repeat(np.arange(ny), p), nx * p)
        sy = np.tile(np.tile(self.rule.points, ny), nx * p)
        self.ref_x, self.ref_y = sx, sy
        self.element_x, self.element_y = ex, block
        self.x = mesh.x_nodes[ex] + sx * mesh.hx
        self.y = mesh.y_nodes[block] + sy * mesh.hy
        wx = np.repeat(np.tile(self.rule.weights * mesh.hx, nx), ny * p)
        wy = np.tile(np.tile(self.rule.weights * mesh.hy, ny), nx * p)
        self.weights = wx * wy
        self.wy_station = np.tile(self.rule.weights * mesh.hy, ny)
        self.n_stations = nx * p
        self.n_transverse = ny * p
        self.n_points = self.x.size

    def x_stations(self) -> np.ndarray:
        """The distinct x1 coordinates, one per station."""
        return self.x.reshape(self.n_stations, self.n_transverse)[:, 0]

    def x2_average(self, values: np.ndarray) -> np.ndarray:
        """Transverse average per x1-station (the strip has unit width)."""
        v = np.asarray(values).reshape(self.n_stations, self.n_transverse)
        return v @ self.wy_station

    def spread(self, station_values: np.ndarray) -> np.ndarray:
        """Broadcast per-station values back to the full point set."""
        return np.repeat(np.asarray(station_values), self.n_transverse)

    def by_element(self, values) -> np.ndarray:
        """Point values regrouped as (element ex*ny + ey, local point kx*p + ky, ...)."""
        v = np.asarray(values)
        p, m = self.rule.order, self.mesh
        v = v.reshape((m.nx, p, m.ny, p) + v.shape[1:]).swapaxes(1, 2)
        return v.reshape((m.nx * m.ny, p * p) + v.shape[4:])

    def by_point(self, values) -> np.ndarray:
        """The inverse of by_element: element-local values back in point order."""
        v = np.asarray(values)
        p, m = self.rule.order, self.mesh
        v = v.reshape((m.nx, m.ny, p, p) + v.shape[2:]).swapaxes(1, 2)
        return v.reshape((self.n_points,) + v.shape[4:])


# ---------------------------------------------------------------------------
# 1D reference bases


def _p1_ref(s: np.ndarray, deriv: int, h: float) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if deriv == 0:
        return np.stack([1.0 - s, s], axis=-1)
    if deriv == 1:
        one = np.ones_like(s)
        return np.stack([-one / h, one / h], axis=-1)
    raise FemError("P1 supports derivative orders 0 and 1")


def _hermite_ref(s: np.ndarray, deriv: int, h: float) -> np.ndarray:
    """Cubic Hermite shape functions with physical-slope DOFs (v0, v0', v1, v1')."""
    s = np.asarray(s, dtype=float)
    if deriv == 0:
        return np.stack(
            [
                1.0 - 3.0 * s**2 + 2.0 * s**3,
                h * (s - 2.0 * s**2 + s**3),
                3.0 * s**2 - 2.0 * s**3,
                h * (-(s**2) + s**3),
            ],
            axis=-1,
        )
    if deriv == 1:
        return np.stack(
            [
                (-6.0 * s + 6.0 * s**2) / h,
                1.0 - 4.0 * s + 3.0 * s**2,
                (6.0 * s - 6.0 * s**2) / h,
                -2.0 * s + 3.0 * s**2,
            ],
            axis=-1,
        )
    if deriv == 2:
        return np.stack(
            [
                (-6.0 + 12.0 * s) / h**2,
                (-4.0 + 6.0 * s) / h,
                (6.0 - 12.0 * s) / h**2,
                (-2.0 + 6.0 * s) / h,
            ],
            axis=-1,
        )
    if deriv == 3:
        one = np.ones_like(s)
        return np.stack(
            [12.0 * one / h**3, 6.0 * one / h**2, -12.0 * one / h**3, 6.0 * one / h**2],
            axis=-1,
        )
    raise FemError("Hermite3 supports derivative orders 0..3")


# ---------------------------------------------------------------------------
# 1D spaces


class P1Space:
    """W^{1,2}-conforming nodal space; one DOF per node."""

    max_deriv = 1

    def __init__(self, mesh: Mesh1D):
        self.mesh = mesh
        self.n_dofs = mesh.n + 1

    def element_dofs(self, e: np.ndarray) -> np.ndarray:
        e = np.asarray(e)
        return np.stack([e, e + 1], axis=-1)

    def ref_basis(self, s, deriv):
        return _p1_ref(s, deriv, self.mesh.h)

    def boundary_dofs(self):
        return {"value": np.array([0, self.mesh.n])}

    def interpolate(self, f) -> np.ndarray:
        return np.asarray(f(self.mesh.nodes), dtype=float)

    def sample_matrix(self, quad: Quadrature1D, deriv: int) -> sp.csr_matrix:
        return _sample_matrix_1d(self, quad, deriv)

    def evaluate(self, coeffs, x, deriv: int = 0):
        return _evaluate_1d(self, coeffs, x, deriv)


class Hermite3Space:
    """C^1 / W^{2,2}-conforming cubic Hermite space; DOFs (value, slope) per node."""

    max_deriv = 3

    def __init__(self, mesh: Mesh1D):
        self.mesh = mesh
        self.n_dofs = 2 * (mesh.n + 1)

    def element_dofs(self, e: np.ndarray) -> np.ndarray:
        e = np.asarray(e)
        return np.stack([2 * e, 2 * e + 1, 2 * e + 2, 2 * e + 3], axis=-1)

    def ref_basis(self, s, deriv):
        return _hermite_ref(s, deriv, self.mesh.h)

    def boundary_dofs(self):
        n = self.mesh.n
        return {"value": np.array([0, 2 * n]), "slope": np.array([1, 2 * n + 1])}

    def interpolate(self, f, df) -> np.ndarray:
        coeffs = np.empty(self.n_dofs)
        coeffs[0::2] = f(self.mesh.nodes)
        coeffs[1::2] = df(self.mesh.nodes)
        return coeffs

    def sample_matrix(self, quad: Quadrature1D, deriv: int) -> sp.csr_matrix:
        return _sample_matrix_1d(self, quad, deriv)

    def evaluate(self, coeffs, x, deriv: int = 0):
        return _evaluate_1d(self, coeffs, x, deriv)


def _sample_csr(vals: np.ndarray, cols: np.ndarray, n_dofs: int) -> sp.csr_matrix:
    """CSR matrix with row q holding vals[q] at cols[q], columns sorted.

    Every element's DOFs are a translate of the first element's, so one
    permutation sorts every row."""
    order = np.argsort(cols[0])
    if np.any(np.diff(order) < 0):
        vals, cols = vals.take(order, axis=1), cols.take(order, axis=1)
    n, k = cols.shape
    return sp.csr_matrix(
        (vals.ravel(), cols.ravel(), np.arange(0, n * k + 1, k)), shape=(n, n_dofs)
    )


def _sample_matrix_1d(space, quad: Quadrature1D, deriv: int) -> sp.csr_matrix:
    vals = space.ref_basis(quad.ref, deriv)
    return _sample_csr(vals, space.element_dofs(quad.element), space.n_dofs)


def _evaluate_1d(space, coeffs, x, deriv):
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    e = space.mesh.locate(x)
    s = (x - space.mesh.nodes[e]) / space.mesh.h
    vals = space.ref_basis(s, deriv)
    dofs = space.element_dofs(e)
    out = np.sum(vals * coeffs[dofs], axis=-1)
    return out


# ---------------------------------------------------------------------------
# 2D spaces


class Q1Space:
    """Bilinear W^{1,2}-conforming space; one DOF per node."""

    def __init__(self, mesh: Mesh2D):
        self.mesh = mesh
        self.n_dofs = mesh.n_nodes

    def element_dofs(self, ex, ey):
        m = self.mesh
        n00 = m.node_index(ex, ey)
        n10 = m.node_index(ex + 1, ey)
        n01 = m.node_index(ex, ey + 1)
        n11 = m.node_index(ex + 1, ey + 1)
        return np.stack([n00, n10, n01, n11], axis=-1)

    def ref_basis(self, sx, sy, dx, dy):
        bx = _p1_ref(sx, dx, self.mesh.hx)
        by = _p1_ref(sy, dy, self.mesh.hy)
        # tensor order must match element_dofs: (00, 10, 01, 11)
        return np.stack(
            [
                bx[..., 0] * by[..., 0],
                bx[..., 1] * by[..., 0],
                bx[..., 0] * by[..., 1],
                bx[..., 1] * by[..., 1],
            ],
            axis=-1,
        )

    def interpolate(self, f) -> np.ndarray:
        x, y = self.mesh.node_coords()
        return np.asarray(f(x, y), dtype=float)

    def sample_matrix(self, quad: Quadrature2D, dx: int, dy: int) -> sp.csr_matrix:
        return _sample_matrix_2d(self, quad, dx, dy)

    def evaluate(self, coeffs, x, y, dx=0, dy=0):
        return _evaluate_2d(self, coeffs, x, y, dx, dy)


class BFSSpace:
    """Bogner-Fox-Schmit bicubic space, C^1 across edges.

    DOFs per node: (w, d1 w, d2 w, d12 w); element shape functions are
    tensor products of the 1D Hermite cubics.
    """

    def __init__(self, mesh: Mesh2D):
        self.mesh = mesh
        self.n_dofs = 4 * mesh.n_nodes

    def element_dofs(self, ex, ey):
        nodes = Q1Space(self.mesh).element_dofs(ex, ey)
        return (4 * nodes[..., None] + np.arange(4)).reshape(nodes.shape[:-1] + (16,))

    def ref_basis(self, sx, sy, dx, dy):
        bx = _hermite_ref(sx, dx, self.mesh.hx)
        by = _hermite_ref(sy, dy, self.mesh.hy)
        # per node (ix, iy): value/slope combinations map onto DOFs
        # (w, wx, wy, wxy) = (Hv*Hv, Hs*Hv, Hv*Hs, Hs*Hs)
        out = []
        for (ix, iy) in ((0, 0), (1, 0), (0, 1), (1, 1)):
            vx, sx_ = bx[..., 2 * ix], bx[..., 2 * ix + 1]
            vy, sy_ = by[..., 2 * iy], by[..., 2 * iy + 1]
            out.extend([vx * vy, sx_ * vy, vx * sy_, sx_ * sy_])
        return np.stack(out, axis=-1)

    def interpolate(self, f, fx, fy, fxy) -> np.ndarray:
        x, y = self.mesh.node_coords()
        coeffs = np.empty(self.n_dofs)
        coeffs[0::4] = f(x, y)
        coeffs[1::4] = fx(x, y)
        coeffs[2::4] = fy(x, y)
        coeffs[3::4] = fxy(x, y)
        return coeffs

    def sample_matrix(self, quad: Quadrature2D, dx: int, dy: int) -> sp.csr_matrix:
        return _sample_matrix_2d(self, quad, dx, dy)

    def evaluate(self, coeffs, x, y, dx=0, dy=0):
        return _evaluate_2d(self, coeffs, x, y, dx, dy)


def _sample_matrix_2d(space, quad: Quadrature2D, dx: int, dy: int) -> sp.csr_matrix:
    vals = space.ref_basis(quad.ref_x, quad.ref_y, dx, dy)
    cols = space.element_dofs(quad.element_x, quad.element_y)
    return _sample_csr(vals, cols, space.n_dofs)


def _evaluate_2d(space, coeffs, x, y, dx, dy):
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    m = space.mesh
    ex = np.clip(np.floor((x + 0.5 * m.l) / m.hx).astype(int), 0, m.nx - 1)
    ey = np.clip(np.floor((y + 0.5) / m.hy).astype(int), 0, m.ny - 1)
    sx = (x - m.x_nodes[ex]) / m.hx
    sy = (y - m.y_nodes[ey]) / m.hy
    vals = space.ref_basis(sx, sy, dx, dy)
    dofs = space.element_dofs(ex, ey)
    return np.sum(vals * coeffs[dofs], axis=-1)


# ---------------------------------------------------------------------------
# boundary data


def poly_from_coeffs(coeffs) -> Polynomial:
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.size == 0:
        c = np.array([0.0])
    return Polynomial(c)


@dataclass(frozen=True)
class BoundaryData:
    """Lateral boundary data (u1hat, u2hat, vhat) as polynomials on I.

    Traces and trace derivatives are evaluated exactly from the
    coefficients; the twist always carries zero traces.
    """

    u1hat: Polynomial
    u2hat: Polynomial
    vhat: Polynomial

    @classmethod
    def from_coeffs(cls, u1=(0.0,), u2=(0.0,), v=(0.0,)) -> "BoundaryData":
        return cls(poly_from_coeffs(u1), poly_from_coeffs(u2), poly_from_coeffs(v))

    @classmethod
    def zero(cls) -> "BoundaryData":
        return cls.from_coeffs()


def dirichlet_1d(mesh: Mesh1D, bc: BoundaryData):
    """Constrained DOFs of the packed 1D state (xi1 | xi2 | w | theta).

    xi1 carries the values of u1hat; xi2 and w carry values and slopes of
    u2hat and vhat; theta has zero traces.  Only endpoint DOFs are
    constrained.  Returns (mask, values) over the packed vector.
    """
    p1 = P1Space(mesh)
    h3 = Hermite3Space(mesh)
    sizes = [p1.n_dofs, h3.n_dofs, h3.n_dofs, p1.n_dofs]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    mask = np.zeros(offsets[-1], dtype=bool)
    values = np.zeros(offsets[-1])
    ends = np.array([-0.5 * mesh.l, 0.5 * mesh.l])

    bd_p1 = p1.boundary_dofs()["value"]
    bd_val = h3.boundary_dofs()["value"]
    bd_slope = h3.boundary_dofs()["slope"]

    mask[offsets[0] + bd_p1] = True
    values[offsets[0] + bd_p1] = bc.u1hat(ends)
    for off, poly in ((offsets[1], bc.u2hat), (offsets[2], bc.vhat)):
        mask[off + bd_val] = True
        values[off + bd_val] = poly(ends)
        mask[off + bd_slope] = True
        values[off + bd_slope] = poly.deriv()(ends)
    mask[offsets[3] + bd_p1] = True
    return mask, values


def dirichlet_2d(mesh: Mesh2D, bc: BoundaryData):
    """Constrained DOFs of the packed 2D state (y1 | y2 | w).

    On the lateral boundary: y1 = u1hat - x2 * u2hat', y2 = u2hat,
    w = vhat, d1 w = vhat' (hence d2 w = d12 w = 0 there).  Top and
    bottom stay free; they carry the natural conditions.
    """
    q1 = Q1Space(mesh)
    bfs = BFSSpace(mesh)
    sizes = [q1.n_dofs, q1.n_dofs, bfs.n_dofs]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    mask = np.zeros(offsets[-1], dtype=bool)
    values = np.zeros(offsets[-1])

    j = np.arange(mesh.ny + 1)
    x2 = mesh.y_nodes[j]
    du2 = bc.u2hat.deriv()
    dv = bc.vhat.deriv()
    for side_i in (0, mesh.nx):
        x1 = mesh.x_nodes[side_i]
        nodes = mesh.node_index(side_i, j)
        # y1 trace is affine in x2; Q1 reproduces it exactly on the edge
        mask[offsets[0] + nodes] = True
        values[offsets[0] + nodes] = bc.u1hat(x1) - x2 * du2(x1)
        mask[offsets[1] + nodes] = True
        values[offsets[1] + nodes] = bc.u2hat(x1)
        wdofs = offsets[2] + 4 * nodes
        mask[wdofs] = True
        values[wdofs] = bc.vhat(x1)
        mask[wdofs + 1] = True
        values[wdofs + 1] = dv(x1)
        mask[wdofs + 2] = True
        mask[wdofs + 3] = True
    return mask, values


def check_traces(u: np.ndarray, mask: np.ndarray, values: np.ndarray, tol: float) -> None:
    """Raise if the constrained entries of u miss their boundary values by more than tol."""
    gap = np.abs(u[mask] - values[mask])
    if gap.size and gap.max() > tol:
        raise ValueError(f"state violates boundary data by {gap.max():.3e}")


# ---------------------------------------------------------------------------
# scaled differential operators


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


# ---------------------------------------------------------------------------
# element-local evaluation and assembly


class ElementTables:
    """Element-local view of the packed DOFs on a uniform mesh.

    ``dofs`` (E, k) lists the global DOFs of each element; ``rows`` (nq, r, k)
    holds r reference rows (scaled basis derivatives) at the nq quadrature
    points of an element, the same for every element, ``weights`` (nq,) its
    quadrature weights, and ``coupling`` (r, r) marks the row pairs a
    Hessian density may couple.  The strain channels are the rows
    ``linear`` plus terms quadratic in the other rows, so a Hessian density
    is the channel form on the linear rows, the same at every point, plus
    a remainder on the row pairs ``pairs`` (i, j) only.
    """

    def __init__(self, dofs, rows, weights, coupling, n_dofs: int, linear, pairs):
        self.dofs, self.rows, self.weights, self.coupling = dofs, rows, weights, coupling
        self.n_dofs = n_dofs
        self.linear, self.pairs = np.asarray(linear), np.asarray(pairs)
        self.flat = rows.reshape(-1, rows.shape[-1])
        self.flat_t = self.flat.T.copy()

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        """Every row value at every point, (E, nq, r), from one gather and one product."""
        return (u[self.dofs] @ self.flat_t).reshape(self.dofs.shape[:1] + self.rows.shape[:2])

    def scatter(self, coeffs: np.ndarray) -> np.ndarray:
        """The transpose of evaluate: the DOF vector of sum_e sum_q coeffs[e, q] . rows_q."""
        local = coeffs.reshape(len(self.dofs), -1) @ self.flat
        return np.bincount(self.dofs.ravel(), weights=local.ravel(), minlength=self.n_dofs)


class BandMatrix:
    """A symmetric free-DOF matrix in the lower band storage of its
    ElementAssembly plan: ``band[c, o]`` is the entry (c + o, c) in the
    plan's RCM order, so column 0 holds the diagonal and ``band.T`` is
    LAPACK's lower band layout."""

    def __init__(self, plan: "ElementAssembly", band: np.ndarray):
        self.plan, self.band = plan, band
        self.shape = (plan.n_free, plan.n_free)

    def tocsc(self) -> sp.csc_matrix:
        """CSC copy on the plan's pattern, in free-DOF order."""
        p = self.plan
        return sp.csc_matrix((self.band.ravel()[p.gather], p.indices, p.indptr), shape=self.shape)


class ElementAssembly:
    """Assembly of free-DOF Hessians straight into band storage, and banded
    Cholesky factorization of them.

    The pattern is the free-free element connectivity of ``tables``
    restricted to DOF pairs that coupled rows reach, kept as CSC
    (``indices``, ``indptr``).  A reverse Cuthill-McKee order ``perm`` of
    it makes it a band of half-width ``bandwidth``; ``gather`` holds the
    flat band position of each CSC entry.  An element matrix is kept as
    its values on the local DOF pairs a <= b that a Hessian reaches, and
    ``slot`` (E * pairs) sends them to their band positions, constrained
    DOFs to a dropped bin.  The linear rows carry the same density at every
    point, so the element values of the forms QW and QR there, ``KW`` and
    ``KR``, are computed once; the remainder density on the row pairs
    turns into element values by one product with ``T``: (point, row pair)
    -> element pair, quadrature weights included.
    """

    def __init__(self, tables: ElementTables, free: np.ndarray, QW: np.ndarray, QR: np.ndarray):
        dofs, rows = tables.dofs, tables.rows
        nf = int(free.sum())
        support = (rows != 0).astype(float)
        local = np.einsum("qra,rs,qsb->ab", support, tables.coupling.astype(float), support) > 0
        index = np.full(free.size, -1)
        index[free] = np.arange(nf)
        loc = index[dofs]
        # entry (e, a, b) sits at row loc[e, a], column loc[e, b]; keys are column-major
        keep = (loc[:, :, None] >= 0) & (loc[:, None, :] >= 0) & local
        key = np.unique((loc[:, None, :] * nf + loc[:, :, None])[keep])
        self.free, self.n_free, self.tables = free, nf, tables
        self.indices = (key % nf).astype(np.int32)
        self.indptr = np.searchsorted(key // nf, np.arange(nf + 1)).astype(np.int32)

        pattern = sp.csc_matrix((np.ones(key.size), self.indices, self.indptr), shape=(nf, nf))
        self.perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        rank = np.full(nf + 1, -1)  # a constrained DOF (loc -1) ranks -1
        rank[self.perm] = np.arange(nf)
        row, col = rank[self.indices], rank[key // nf]
        self.bandwidth = int(np.abs(row - col).max(initial=0))
        width = self.bandwidth + 1
        self.size = nf * width
        self.gather = np.minimum(row, col) * width + np.abs(row - col)

        # a density d on rows (i, j) adds d (rows_i[a] rows_j[b] + rows_j[a] rows_i[b])
        # to the element pair (a, b), the second term only when i != j
        a, b = np.triu_indices(dofs.shape[1])
        i, j = tables.pairs.T
        ri, rj = rows[:, i], rows[:, j]
        T = ri[..., a] * rj[..., b] + (i != j)[:, None] * rj[..., a] * ri[..., b]
        T = (T * tables.weights[:, None, None]).reshape(-1, a.size)
        KW, KR = self.constant_block(QW), self.constant_block(QR)
        reached = np.any(T != 0.0, axis=0) | (KW != 0.0) | (KR != 0.0)
        a, b = a[reached], b[reached]
        self.T, self.KW, self.KR = T[:, reached], KW[reached], KR[reached]
        ra, rb = rank[loc[:, a]], rank[loc[:, b]]
        ok = (ra >= 0) & (rb >= 0) & local[a, b]
        self.slot = np.where(ok, np.minimum(ra, rb) * width + np.abs(ra - rb), self.size).ravel()

    def constant_block(self, Q: np.ndarray) -> np.ndarray:
        """Element values on the pairs a <= b of the channel form Q on the
        linear rows; every element of the uniform mesh has the same."""
        t = self.tables
        lin = t.rows[:, t.linear]
        a, b = np.triu_indices(t.dofs.shape[1])
        return np.einsum("q,qia,ij,qjb->ab", t.weights, lin, Q, lin)[a, b]

    def assemble(self, rem: np.ndarray, cw: float, cr: float) -> BandMatrix:
        """Free-DOF matrix of the density cw QW + cr QR on the linear rows
        plus ``rem`` (E * nq, len(pairs)) on the row pairs, without weights."""
        values = rem.reshape(-1, len(self.T)) @ self.T
        values += cw * self.KW + cr * self.KR
        band = np.bincount(self.slot, weights=values.ravel(), minlength=self.size + 1)
        return BandMatrix(self, band[:-1].reshape(self.n_free, -1))

    def factor(self, H: BandMatrix, shift: float = 0.0):
        """Solver r -> H^{-1} r for a matrix from ``assemble``, or None when
        H + shift |diag H| is not positive definite.

        Banded Cholesky (LAPACK ``pbtrf``) in the RCM order; a nonpositive
        (or NaN) diagonal entry or a failed ``pbtrf`` is the indefiniteness
        test.  The shift is in units of H's own diagonal, so it does not
        depend on the units of H.  The solver keeps only the Cholesky band,
        not H."""
        band = H.band.copy()
        band[:, 0] += shift * np.abs(band[:, 0])
        if not np.all(band[:, 0] > 0.0):
            return None
        try:
            chol = cholesky_banded(band.T, overwrite_ab=True, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            return None
        perm = self.perm

        def solve(r: np.ndarray) -> np.ndarray:
            x = np.empty(len(perm))
            x[perm] = cho_solve_banded((chol, True), r[perm], check_finite=False)
            return x

        return solve

    def embed(self, K: sp.csc_matrix) -> sp.csc_matrix:
        """Full-size copy of a free-DOF matrix; constrained rows and columns are zero."""
        n = self.free.size
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:][self.free] = np.diff(K.indptr)
        rows = np.flatnonzero(self.free)[K.indices]
        return sp.csc_matrix((K.data, rows, np.cumsum(indptr)), shape=(n, n))


def _row_index(rows):
    """``rows`` as a slice when they are consecutive, so indexing by it is a view."""
    r = np.asarray(rows)
    return slice(r[0], r[-1] + 1) if np.array_equal(r, np.arange(r[0], r[-1] + 1)) else r


class FieldSystem:
    """What the ribbon and plate systems share: packed named fields with
    Dirichlet constraints, dead loads, the metric, the weak residual, and
    every energy, distance, gradient and Hessian, built on ElementTables.

    A subclass declares its strain: the channels s (E, nq, ns) are the
    element rows ``LINEAR_ROWS``, plus 1/2 g_a g_b on membrane channel k
    for the k-th pair (a, b) of ``MEMBRANE_SLOPES``, where the slopes g are
    the rows ``SLOPE_ROWS``; every row is linear or a slope.  It provides
    ``_element_rows()`` and QW, QR, in which the membrane channels meet no
    other channel.  phi(u) = 1/2 int s . QW s minus the work of the loads
    and D^2(a, b) = int (s_a - s_b) . QR (s_a - s_b).  Coefficients (cw, cr)
    select cw * phi + cr * D^2(anchor, .)/2, with stress
    sig = cw QW s + cr QR (s - s_anchor) and Hessian density C = cw QW + cr QR
    on the linear rows, which the assembly plan adds, plus C ds/dg on the
    row pairs (slope, membrane row) and ds/dg^T C ds/dg + sig . d^2s/dg^2
    on (slope, slope).
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        ng, nm = len(cls.SLOPE_ROWS), len(cls.MEMBRANE_SLOPES)
        cls._D2 = D2 = np.zeros((nm, ng, ng))  # d^2 s_k / dg^2
        for k, (a, b) in enumerate(cls.MEMBRANE_SLOPES):
            D2[k, a, b] += 0.5
            D2[k, b, a] += 0.5
        # index forms of the rows and of the factors of g_a g_b, g (x) g and sig_m (x) g
        cls._linear, cls._slope = _row_index(cls.LINEAR_ROWS), _row_index(cls.SLOPE_ROWS)
        cls._ga, cls._gb = (_row_index(ab) for ab in zip(*cls.MEMBRANE_SLOPES))
        cls._gc, cls._gd = _row_index(np.repeat(range(ng), ng)), _row_index(np.tile(range(ng), ng))
        cls._sk, cls._sd = _row_index(np.repeat(range(nm), ng)), _row_index(np.tile(range(ng), nm))
        slope, membrane = cls.SLOPE_ROWS, cls.LINEAR_ROWS[:nm]
        cls._row_pairs = [(i, j) for i in slope for j in membrane]
        cls._row_pairs += [(slope[i], slope[j]) for i, j in zip(*np.tril_indices(ng))]

    def _set_layout(self, sizes: dict, mask: np.ndarray, values: np.ndarray) -> None:
        self.offsets = np.concatenate([[0], np.cumsum(list(sizes.values()))])
        self.n_dofs = int(self.offsets[-1])
        self.slices = {
            name: slice(a, b) for name, a, b in zip(sizes, self.offsets[:-1], self.offsets[1:])
        }
        self.bc_mask, self.bc_values, self.free = mask, values, ~mask
        self._plan = None  # Hessian assembly plan and slope forms, built on first use

    def split(self, u: np.ndarray):
        return tuple(u[sl] for sl in self.slices.values())

    def zero_state(self) -> np.ndarray:
        u = np.zeros(self.n_dofs)
        u[self.bc_mask] = self.bc_values[self.bc_mask]
        return u

    def check_admissible(self, u: np.ndarray, tol: float = 1e-12) -> None:
        check_traces(u, self.bc_mask, self.bc_values, tol)

    def metric(self, ua: np.ndarray, ub: np.ndarray) -> float:
        return float(np.sqrt(max(self.sqdist(ua, ub), 0.0)))

    @cached_property
    def _force(self) -> np.ndarray:
        """Load vector of ``_loads`` (field, its space, density); its dot
        product with u is the work of the dead loads."""
        f = np.zeros(self.n_dofs)
        value = (0,) * (2 if isinstance(self.quad, Quadrature2D) else 1)
        for name, space, dens in self._loads:
            if np.any(dens):
                B = space.sample_matrix(self.quad, *value)
                f[self.slices[name]] = B.T @ (self.wq * dens)
        return f

    @cached_property
    def _tables(self) -> ElementTables:
        dofs, rows, coupling = self._element_rows()
        weights = self.quad.by_element(self.wq)[0]
        return ElementTables(
            dofs, rows, weights, coupling, self.n_dofs, self.LINEAR_ROWS, self._row_pairs
        )

    def rows(self, u: np.ndarray) -> np.ndarray:
        """Every reference row of ``_element_rows`` at every quadrature
        point, (n_points, r), in point order."""
        return self.quad.by_point(self._tables.evaluate(u))

    def _form(self, s: np.ndarray, Q: np.ndarray) -> float:
        """1/2 int s . Q s over channels s (E, nq, n)."""
        return 0.5 * float(np.vdot(s @ Q, s * self._tables.weights[:, None]))

    def _channels(self, u: np.ndarray):
        """Element-local strain s (E, nq, ns) and slopes g (E, nq, ng)."""
        R = self._tables.evaluate(u)
        g = R[..., self._slope]
        s = R[..., self._linear]
        s[..., :len(self._D2)] += 0.5 * g[..., self._ga] * g[..., self._gb]
        return s, g

    def _row_stress(self, ch, sig: np.ndarray) -> np.ndarray:
        """ds/drows^T sig, (E, nq, r): sig on the linear rows and
        sum_k sig_k ds_k/dg on the slope rows."""
        g = ch[1]
        out = np.empty(g.shape[:-1] + (sig.shape[-1] + g.shape[-1],))
        out[..., self._linear] = sig
        W = self._D2.reshape(-1, g.shape[-1])  # sig_k g_d -> sig_k D2[k, :, d]
        sg = sig[..., self._sk] * g[..., self._sd]
        out[..., self._slope] = (sg.reshape(-1, len(W)) @ W).reshape(g.shape)
        return out

    def _slope_forms(self) -> np.ndarray:
        """The slope forms (F_W, F_R, F_G): the density on the row pairs is
        (g, g (x) g, sig_m) @ (cw F_W + cr F_R + F_G), F_Q holding Q ds/dg
        and ds/dg^T Q ds/dg, F_G the geometric term sig . d^2s/dg^2."""
        D2 = self._D2
        nm, ng = D2.shape[:2]
        c, d = np.tril_indices(ng)
        n = ng * nm  # the (slope, membrane row) pairs come first
        F = np.zeros((3, ng + ng * ng + nm, n + len(c)))
        for Fq, Q in zip(F, (self.QW[:nm, :nm], self.QR[:nm, :nm])):
            Fq[:ng, :n] = np.einsum("kj,jcd->dck", Q, D2).reshape(ng, n)
            P = np.einsum("jca,jk,kdb->abcd", D2, Q, D2)  # P[a, b] is the form of g_a g_b
            Fq[ng:-nm, n:] = P[..., c, d].reshape(-1, len(c))
        F[2, -nm:, n:] = D2[:, c, d]
        return F

    def _hessian_density(self, ch, sig: np.ndarray, cw: float, cr: float) -> np.ndarray:
        """The density on the row pairs, (E * nq, len(pairs)) without weights."""
        FW, FR, FG = self._forms
        g = ch[1]
        z = np.concatenate([g, g[..., self._gc] * g[..., self._gd], sig[..., :len(self._D2)]], -1)
        return z.reshape(-1, z.shape[-1]) @ (cw * FW + cr * FR + FG)

    def _stress(self, ch, ch_a, cw: float, cr: float) -> np.ndarray:
        s = ch[0]
        return cw * (s @ self.QW) + cr * ((s - ch_a[0]) @ self.QR)

    def _gradient(self, ch, ch_a, cw: float, cr: float) -> np.ndarray:
        """DOF gradient at channels ch; zero on the constrained DOFs."""
        t = self._tables
        g = t.scatter(self._row_stress(ch, self._stress(ch, ch_a, cw, cr)) * t.weights[:, None])
        g -= cw * self._force
        g[self.bc_mask] = 0.0
        return g

    def _hessian(self, ch, ch_a, cw: float, cr: float) -> BandMatrix:
        """Free-DOF Hessian at channels ch, in band storage."""
        if self._plan is None:
            self._plan = ElementAssembly(self._tables, self.free, self.QW, self.QR)
            self._forms = self._slope_forms()
        rem = self._hessian_density(ch, self._stress(ch, ch_a, cw, cr), cw, cr)
        return self._plan.assemble(rem, cw, cr)

    def energy(self, u: np.ndarray) -> float:
        return self._form(self._channels(u)[0], self.QW) - float(np.dot(self._force, u))

    def sqdist(self, ua: np.ndarray, ub: np.ndarray) -> float:
        return 2.0 * self._form(self._channels(ua)[0] - self._channels(ub)[0], self.QR)

    def grad_energy(self, u: np.ndarray) -> np.ndarray:
        ch = self._channels(u)
        return self._gradient(ch, ch, 1.0, 0.0)

    def grad_halfsqdist(self, anchor: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self._gradient(self._channels(u), self._channels(anchor), 0.0, 1.0)

    def incremental(self, anchor: np.ndarray, tau: float) -> "IncrementalProblem":
        """The functional v -> phi(v) + D^2(anchor, v) / (2 tau) of one time step."""
        return IncrementalProblem(self, anchor, tau)

    def hess_energy(self, u: np.ndarray) -> sp.csc_matrix:
        """Full-size Hessian of phi at u; constrained rows and columns are zero."""
        ch = self._channels(u)
        K = self._hessian(ch, ch, 1.0, 0.0)
        return self._plan.embed(K.tocsc())

    def hess_halfsqdist(self, anchor: np.ndarray, u: np.ndarray) -> sp.csc_matrix:
        """Full-size Hessian of D^2(anchor, .)/2 at u; constrained rows and columns are zero."""
        K = self._hessian(self._channels(u), self._channels(anchor), 0.0, 1.0)
        return self._plan.embed(K.tocsc())

    def weak_residual_vector(self, prev: np.ndarray, nxt: np.ndarray, tau: float) -> np.ndarray:
        """Pairings of the weak equations (one block per field) against every
        interior basis function, with difference quotients in the viscous
        channels; identical to the DOF gradient of the incremental
        functional v -> phi(v) + D^2(prev, v) / (2 tau)."""
        if tau <= 0.0:
            raise ValueError("tau must be positive")
        return self.grad_energy(nxt) + self.grad_halfsqdist(prev, nxt) / tau

    def weak_residual(self, prev, nxt, tau: float) -> float:
        return float(np.linalg.norm(self.weak_residual_vector(prev, nxt, tau)))


class IncrementalProblem:
    """v -> Phi(v) = phi(v) + D^2(anchor, v) / (2 tau) of one time step.

    Keeps the anchor's channels and those of the last point, keyed on a
    copy of its values, with (phi, D^2) there once asked for, so value,
    gradient and Hessian at one point share one evaluation.  Holds the
    system; the system never holds it.
    """

    def __init__(self, system: FieldSystem, anchor: np.ndarray, tau: float):
        if tau <= 0.0:
            raise ValueError("tau must be positive")
        self.system, self.cr = system, 1.0 / tau
        self._key = np.array(anchor, dtype=float)
        self._anchor = self._ch = system._channels(self._key)
        self._parts = None

    def _at(self, v: np.ndarray):
        if not np.array_equal(v, self._key):
            self._key = np.array(v, dtype=float)
            self._ch = self.system._channels(self._key)
            self._parts = None
        return self._ch

    def parts(self, v: np.ndarray) -> tuple[float, float]:
        """(phi(v), D^2(anchor, v))."""
        system, strain = self.system, self._at(v)[0]
        if self._parts is None:
            phi = system._form(strain, system.QW) - float(np.dot(system._force, self._key))
            self._parts = phi, 2.0 * system._form(strain - self._anchor[0], system.QR)
        return self._parts

    def value(self, v: np.ndarray) -> float:
        phi, d2 = self.parts(v)
        return phi + 0.5 * self.cr * d2

    def grad(self, v: np.ndarray) -> np.ndarray:
        """Full-size gradient of Phi at v; zero on the constrained DOFs."""
        return self.system._gradient(self._at(v), self._anchor, 1.0, self.cr)

    def hessian(self, v: np.ndarray) -> BandMatrix:
        """Free-DOF Hessian of Phi at v in the plan's band storage; its
        ``tocsc()`` is the CSC matrix on the plan's fixed pattern."""
        return self.system._hessian(self._at(v), self._anchor, 1.0, self.cr)

    def factor(self, H: BandMatrix, shift: float = 0.0):
        """Solver r -> H^{-1} r for a Hessian from ``hessian`` by banded
        Cholesky of H + shift |diag H|, or None when that is not positive
        definite (ElementAssembly.factor)."""
        return self.system._plan.factor(H, shift)


# ---------------------------------------------------------------------------
# sampling-matrix product


def triple_product(Ba: sp.csr_matrix, diag: np.ndarray, Bb: sp.csr_matrix) -> sp.csr_matrix:
    """Ba^T diag(d) Bb as CSR.  Nothing in the package calls it; it stays
    as a trace site of the benchmark's per-layer view."""
    return (Ba.T @ sp.diags(diag) @ Bb).tocsr()
