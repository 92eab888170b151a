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
ElementTables pairs that table with the element-DOF list and keeps
values channel-major: a row, strain channel or slope is one contiguous
array over all quadrature points (point q of element e at q * E + e).
The element coefficients are gathered as one (E, k) block, so
``split_evaluate`` yields the linear and the slope rows in one matrix
product with (row x point, k) tables, and its mirror ``split_scatter``
turns coefficients on those rows back into a DOF vector with one product
each, against tables with the quadrature weights folded in, and one
bincount.  The strain channels, which FieldSystem writes once, are the
linear element rows a system declares plus halved products of its slope
rows; everything else on them (the products with the channel forms, the
integrals, the slope term of the gradient, the linearization) is whole-row
arithmetic, and a trial point of a time step makes one set of
channel-form products, QW s and QR (s - s_anchor), from which its value,
gradient and Hessian are all read.  An ElementAssembly plan, made on the
first Hessian, orders the free DOFs into a band from the mesh alone,
computes the element values of the channel forms on the linear rows once,
and folds the constant slope forms into two element tables: a Hessian is
then one product with the slopes and one with their products and the
membrane stress, and one bincount adds its element values up into LAPACK
band storage, which the plan factors in place by banded Cholesky
(unscaled or with its diagonal raised by a multiple of |diag H|) into a
solver that outlives it.  A load vector is one bincount, too.  Only the
names that return sparse matrices load scipy.sparse, on their first call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import Polynomial
from scipy.linalg.lapack import dpbtrf, dpbtrs

if TYPE_CHECKING:
    import scipy.sparse as sp


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

    @cached_property
    def nodes(self) -> np.ndarray:
        return _read_only(np.linspace(-0.5 * self.l, 0.5 * self.l, self.n + 1))

    def locate(self, x) -> np.ndarray:
        """Element index of each point (clamped to valid range)."""
        x = np.asarray(x, dtype=float)
        idx = np.floor((x + 0.5 * self.l) / self.h).astype(int)
        return np.clip(idx, 0, self.n - 1)


@dataclass(frozen=True)
class Mesh2D:
    """Tensor-product mesh of S = I x (-1/2, 1/2), nx x ny rectangles.

    A mesh owns the tables that do not depend on the width eps: its node
    arrays, its default quadrature, the element DOFs of the packed plate
    state and the Q1 and BFS reference bases at one element's quadrature
    points.  Each is built on its first read and kept read-only, so every
    plate on this mesh object shares it; equal meshes share nothing.
    """

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

    @cached_property
    def x_nodes(self) -> np.ndarray:
        return _read_only(np.linspace(-0.5 * self.l, 0.5 * self.l, self.nx + 1))

    @cached_property
    def y_nodes(self) -> np.ndarray:
        return _read_only(np.linspace(-0.5, 0.5, self.ny + 1))

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    def node_index(self, i, j):
        """Global node number of grid node (i, j); x-major ordering."""
        return np.asarray(i) * (self.ny + 1) + np.asarray(j)

    @cached_property
    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(x1, x2) of every node in node order."""
        xi, yj = np.meshgrid(self.x_nodes, self.y_nodes, indexing="ij")
        return _read_only(xi.ravel()), _read_only(yj.ravel())

    @cached_property
    def quadrature(self) -> "Quadrature2D":
        """The default Gauss rule on this mesh.  It holds an equal mesh, not
        this one: a reference cycle would keep every used mesh alive until
        the garbage collector ran."""
        return Quadrature2D(replace(self))

    @cached_property
    def element_dofs(self) -> np.ndarray:
        """DOFs (E, 24) of every element ex * ny + ey in the packed 2D state
        (y1 | y2 | w) of ``dirichlet_2d``: its Q1 DOFs in y1 and in y2, then
        its BFS DOFs in w."""
        ex, ey = np.divmod(np.arange(self.nx * self.ny), self.ny)
        q1, bfs = Q1Space(self).element_dofs(ex, ey), BFSSpace(self).element_dofs(ex, ey)
        return _read_only(np.hstack([q1, q1 + self.n_nodes, bfs + 2 * self.n_nodes]))

    @cached_property
    def reference_bases(self) -> tuple[np.ndarray, np.ndarray]:
        """The Q1 basis derivatives of orders ``FIRST`` (2, nq, 4) and the BFS
        basis derivatives of orders ``FIRST + SECOND`` (5, nq, 16) at the
        points kx * p + ky of the default quadrature on one element."""
        pts = self.quadrature.rule.points
        sx, sy = np.repeat(pts, pts.size), np.tile(pts, pts.size)
        q1, bfs = Q1Space(self), BFSSpace(self)
        return (
            _read_only(np.stack([q1.ref_basis(sx, sy, dx, dy) for dx, dy in FIRST])),
            _read_only(np.stack([bfs.ref_basis(sx, sy, dx, dy) for dx, dy in FIRST + SECOND])),
        )


# the (d1, d2) derivative orders of a gradient and of a Hessian
FIRST = ((1, 0), (0, 1))
SECOND = ((2, 0), (1, 1), (0, 2))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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

    @property
    def points(self) -> np.ndarray:
        return _gauss_legendre(self.order)[0]

    @property
    def weights(self) -> np.ndarray:
        return _gauss_legendre(self.order)[1]


@cache  # one read-only pair per order, shared by every rule of that order
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    pts, wts = np.polynomial.legendre.leggauss(order)
    return _read_only(0.5 * (pts + 1.0)), _read_only(0.5 * wts)


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

    def of_x1(self, fn) -> np.ndarray:
        """A function of x1 at every point."""
        return fn(self.points)

    @cached_property
    def channel_weights(self) -> np.ndarray:
        """The weights in channel-major order (ElementTables)."""
        return _read_only(self.by_element(self.weights).T.ravel())

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
    reduce to a reshape + weighted sum.  The weights are the outer product
    of the station and the transverse weights; the per-point coordinates
    and element indices are built on first read.
    """

    def __init__(self, mesh: Mesh2D, rule: GaussRule | None = None):
        self.mesh = mesh
        self.rule = rule or GaussRule()
        nx, ny = mesh.nx, mesh.ny
        self.n_stations = nx * self.rule.order
        self.n_transverse = ny * self.rule.order
        self.n_points = self.n_stations * self.n_transverse
        self.wy_station = _read_only(np.tile(self.rule.weights * mesh.hy, ny))
        wx = np.tile(self.rule.weights * mesh.hx, nx)
        self.weights = _read_only(np.multiply.outer(wx, self.wy_station).ravel())

    @cached_property
    def ref_x(self) -> np.ndarray:
        return _read_only(self.spread(np.tile(self.rule.points, self.mesh.nx)))

    @cached_property
    def ref_y(self) -> np.ndarray:
        return _read_only(np.tile(self.rule.points, self.mesh.ny * self.n_stations))

    @cached_property
    def element_x(self) -> np.ndarray:
        return _read_only(self.spread(np.repeat(np.arange(self.mesh.nx), self.rule.order)))

    @cached_property
    def element_y(self) -> np.ndarray:
        transverse = np.repeat(np.arange(self.mesh.ny), self.rule.order)
        return _read_only(np.tile(transverse, self.n_stations))

    @cached_property
    def x(self) -> np.ndarray:
        return _read_only(self.spread(self.x_stations()))

    @cached_property
    def y(self) -> np.ndarray:
        m = self.mesh
        transverse = m.y_nodes[:-1, None] + self.rule.points * m.hy
        return _read_only(np.tile(transverse.ravel(), self.n_stations))

    def x_stations(self) -> np.ndarray:
        """The distinct x1 coordinates, one per station."""
        m = self.mesh
        return (m.x_nodes[:-1, None] + self.rule.points * m.hx).ravel()

    def of_x1(self, fn) -> np.ndarray:
        """A function of x1 alone at every point: once per station, spread."""
        return self.spread(fn(self.x_stations()))

    @cached_property
    def channel_weights(self) -> np.ndarray:
        """The weights in channel-major order (ElementTables)."""
        return _read_only(self.by_element(self.weights).T.ravel())

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
    permutation sorts every row.  scipy.sparse loads on the first call."""
    import scipy.sparse as sp
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


def _element_values(space, quad) -> tuple[np.ndarray, np.ndarray]:
    """A space's element DOFs (E, k), as ``quad.by_element``, and values (nq, k)."""
    pts, m = quad.rule.points, quad.mesh
    if isinstance(quad, Quadrature1D):
        return space.element_dofs(np.arange(m.n)), space.ref_basis(pts, 0)
    ex, ey = np.divmod(np.arange(m.nx * m.ny), m.ny)
    sx, sy = np.repeat(pts, pts.size), np.tile(pts, pts.size)
    return space.element_dofs(ex, ey), space.ref_basis(sx, sy, 0, 0)


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
        x, y = self.mesh.node_coords
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
        x, y = self.mesh.node_coords
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
    """A Polynomial from its coefficients; a Polynomial is returned as is."""
    if isinstance(coeffs, Polynomial):
        return coeffs
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
# element-local evaluation and assembly


class ElementTables:
    """Element-local view of the packed DOFs on a uniform mesh, channel-major.

    ``dofs`` (E, k) lists the global DOFs of each element; ``rows`` (nq, r, k)
    holds r reference rows (scaled basis derivatives) at the nq quadrature
    points of an element, the same for every element, ``point_weights``
    (nq * E,) the quadrature weight of every point in the channel-major
    order below and ``weights`` (nq,) those of one element, and
    ``coupling`` (r, r) marks the row pairs a Hessian density may couple.
    The strain channels are the rows ``linear`` plus terms quadratic in the
    rows ``slope``; ``pairs`` lists the row pairs (i, j) on which a Hessian
    density is not the channel form on the linear rows (the assembly plan
    folds them).

    Values live channel-major: a row (or channel) c of n holds its value
    at every point, ``X[c, q * E + e]`` at the local point q of element e,
    so an (n, nq * E) array reshaped to (n * nq, E) is the operand of one
    matrix product with the element coefficients, gathered as (E, k) and
    read transposed.  ``all_e`` (r * nq, k) holds every row, the table of
    ``evaluate``; ``split_e`` the linear rows over the slope rows, the
    table of ``split_evaluate``; ``lin_t`` and ``slope_t`` (n * nq, k) are
    the same rows with the quadrature weights folded in, the tables of
    ``split_scatter``.
    """

    def __init__(self, dofs, rows, point_weights, coupling, n_dofs: int, linear, slope, pairs):
        self.dofs, self.rows, self.coupling = dofs, rows, coupling
        self.n_dofs = n_dofs
        self.linear, self.slope = np.asarray(linear), np.asarray(slope)
        self.pairs = np.asarray(pairs)
        nq, _, k = rows.shape
        self.point_weights = point_weights
        self.weights = weights = point_weights[:: len(dofs)]
        by_row = rows.transpose(1, 0, 2)  # (r, nq, k)
        self.all_e = by_row.reshape(-1, k)
        self.split_e = np.concatenate([by_row[linear], by_row[slope]]).reshape(-1, k)
        n = len(linear) * nq
        weighted = self.split_e * np.tile(weights, len(linear) + len(slope))[:, None]
        self.lin_t, self.slope_t = weighted[:n], weighted[n:]

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        """Every row at every point, (r, nq * E), from one gather and one product."""
        return (self.all_e @ u[self.dofs].T).reshape(self.rows.shape[1], -1)

    def split_evaluate(self, u: np.ndarray):
        """The linear rows (n, nq * E) and the slope rows (ng, nq * E), views
        of one product with one gather: the mirror of split_scatter."""
        out = (self.split_e @ u[self.dofs].T).reshape(len(self.linear) + len(self.slope), -1)
        return out[: len(self.linear)], out[len(self.linear):]

    def split_scatter(self, lin: np.ndarray, slope: np.ndarray) -> np.ndarray:
        """The DOF vector of sum_e sum_q w_q (lin . rows_q[linear] + slope .
        rows_q[slope]) for coefficients lin (n, nq * E) and slope (ng, nq * E)
        on the linear and the slope rows: one product each and a bincount."""
        e = len(self.dofs)
        local = lin.reshape(-1, e).T @ self.lin_t
        local += slope.reshape(-1, e).T @ self.slope_t
        return np.bincount(self.dofs.ravel(), weights=local.ravel(), minlength=self.n_dofs)


class BandMatrix:
    """A symmetric free-DOF matrix from ``ElementAssembly.assemble``, kept as
    its element ``values``.  ``band`` adds them up into the lower band
    storage of the plan: ``band[c, o]`` is the entry (c + o, c) in the
    plan's order ``perm``, so column 0 holds the diagonal and ``band.T`` is
    LAPACK's lower band layout.  A factorization takes the band and
    overwrites it; the next read of ``band`` adds it up again."""

    def __init__(self, plan: "ElementAssembly", values: np.ndarray):
        self.plan, self.values = plan, values
        self.shape = (plan.n_free, plan.n_free)
        self._band = None

    @property
    def band(self) -> np.ndarray:
        if self._band is None:
            p = self.plan
            band = np.bincount(p.slot, weights=self.values.ravel(), minlength=p.size + 1)
            self._band = band[:-1].reshape(p.n_free, -1)
        return self._band

    def take_band(self) -> np.ndarray:
        """The band, to be overwritten: this matrix no longer holds it."""
        band, self._band = self.band, None
        return band

    def tocsc(self) -> sp.csc_matrix:
        """CSC copy in free-DOF order on the free-free element connectivity of
        the plan's coupled pairs ``local``, built on each call (scipy.sparse
        loads on the first); a pair outside the band is a stored zero."""
        import scipy.sparse as sp
        p, nf, r = self.plan, self.plan.n_free, self.plan.rank.T
        keep = (r[:, :, None] >= 0) & (r[:, None, :] >= 0) & p.local
        i, j = (np.broadcast_to(x, keep.shape)[keep] for x in (r[:, :, None], r[:, None, :]))
        key, first = np.unique(p.perm[j] * nf + p.perm[i], return_index=True)  # column-major
        low, off, width = np.minimum(i, j)[first], np.abs(i - j)[first], p.bandwidth + 1
        data = np.append(self.band, 0.0)[np.where(off < width, low * width + off, -1)]
        indptr = np.searchsorted(key // nf, np.arange(nf + 1))
        return sp.csc_matrix((data, key % nf, indptr), shape=self.shape)


class ElementAssembly:
    """Assembly of free-DOF Hessians in element values that add up straight
    into band storage, and banded Cholesky factorization of them.

    The band order ``perm`` comes from the mesh alone.  ``local`` (k, k)
    marks the element DOF pairs that coupled rows reach; the DOFs it joins
    form blocks, each a band of its own (the ribbon's xi2 meets no other
    field), whose free DOFs are swept along the axis of the element
    ``grid`` with more elements (x1 on a tie), by the first plus the last
    place in the sweep of the elements holding them, ties in DOF order.
    Banded Cholesky costs about n bw^2; reverse Cuthill-McKee, which
    narrows the profile, gives the plate 48 x 8 a band of 107, the sweep
    65.  ``rank`` (k, E) places each element DOF, -1 if constrained.

    An element matrix is kept as its values on the local DOF pairs a <= b
    that a Hessian reaches, ``element_pairs`` (2, pairs), and ``slot``
    (pairs * E, pair-major) sends them to their band positions, constrained
    DOFs to a dropped bin; the half-width ``bandwidth`` is the widest of
    these pairs.  The linear rows carry the same density at every
    point, so the element values of the forms QW and QR there, ``K`` (2,
    pairs), are computed once.  The rest of the density on the row pairs
    ``tables.pairs`` is z F for the inputs z of ``FieldSystem._hessian`` and
    the forms F = cw F_W + cr F_R + F_G; the plan folds the forms into the
    element product, quadrature weights included.  The slopes feed the
    first ``n_slope`` pairs through ``A`` (F_W, F_R, each a flat pairs x
    slope rows table), the products g_a g_b and the membrane stress the next
    ``n_quadratic`` through ``B`` (F_W, F_R, F_G), and the last pairs
    take the constant blocks alone.  On the plate these are the 128 (w, y),
    the 136 (w, w) and the 36 (y, y) pairs, so a Hessian is two matrix
    products with the channel-major inputs plus cw K_W + cr K_R.
    """

    def __init__(self, tables: ElementTables, free, QW, QR, forms: np.ndarray, grid: tuple):
        dofs, rows = tables.dofs, tables.rows
        nf, (ne, k) = int(free.sum()), dofs.shape
        support = (rows != 0).astype(float)
        reach = (tables.coupling.astype(float) @ support).reshape(-1, k)
        self.local = local = support.reshape(-1, k).T @ reach > 0
        self.free, self.n_free, self.tables = free, nf, tables

        sweep = np.arange(ne).reshape(grid).transpose(np.argsort(np.negative(grid), kind="stable"))
        joined = np.linalg.matrix_power(local.astype(float), k) > 0  # the coupled blocks
        # each element DOF's block (named by its first DOF), then its element's place in the sweep
        at = joined.argmax(axis=0) * ne + np.argsort(sweep.ravel())[:, None]
        first, last = np.full(free.size, k * ne), np.full(free.size, -1)
        np.minimum.at(first, dofs, at)
        np.maximum.at(last, dofs, at)
        self.perm = np.argsort((first + last)[free], kind="stable")
        rank = np.full(free.size, -1, dtype=np.int32)
        rank[np.flatnonzero(free)[self.perm]] = np.arange(nf, dtype=np.int32)
        self.rank = rank[dofs.T]

        # a density d on rows (i, j) adds d (rows_i[a] rows_j[b] + rows_j[a] rows_i[b])
        # to the element pair (a, b), the second term only when i != j; the
        # density of inputs z is z F, so F folds into these products
        a, b = np.triu_indices(k)
        i, j = tables.pairs.T
        ri, rj = rows[:, i], rows[:, j]
        T = ri[..., a] * rj[..., b] + (i != j)[:, None] * rj[..., a] * ri[..., b]
        T *= tables.weights[:, None, None]
        hit = np.any(T != 0.0, axis=0)  # (row pair, element pair)

        def block(f):
            """The inputs with forms f folded into the element pairs they
            reach, (form, pair x (input row, point)) flat, and those pairs"""
            to = np.any(np.any(f != 0.0, axis=(0, 1))[:, None] & hit, axis=0)
            return np.einsum("fmj,qjp->fpmq", f, T[..., to]).reshape(len(f), -1), to

        ng = len(tables.slope)
        (self.A, to_a), (self.B, to_b) = block(forms[:2, :ng]), block(forms[:, ng:])
        if np.any(to_a & to_b):
            raise FemError("the slopes and the quadratic inputs reach a common element pair")
        K = np.stack([self.constant_block(QW), self.constant_block(QR)])
        only_k = np.any(K != 0.0, axis=0) & ~to_a & ~to_b
        sel = np.concatenate([np.flatnonzero(to_a), np.flatnonzero(to_b), np.flatnonzero(only_k)])
        self.n_slope, self.n_quadratic, self.K = int(to_a.sum()), int(to_b.sum()), K[:, sel]
        self.element_pairs = np.stack([a[sel], b[sel]])
        del T, hit
        # the element pairs' band positions from int32 (pairs, E) temporaries
        ra, rb = self.rank[a[sel]], self.rank[b[sel]]
        ok = (ra >= 0) & (rb >= 0) & local[a[sel], b[sel]][:, None]
        low, off = np.minimum(ra, rb), np.abs(np.subtract(ra, rb, out=ra), out=ra)
        del ra, rb
        self.bandwidth = int(off.max(initial=0, where=ok))
        self.size = nf * (self.bandwidth + 1)
        low *= self.bandwidth + 1
        low += off
        del off
        self.slot = np.full(ok.size, self.size, dtype=np.intp)
        np.copyto(self.slot, low.ravel(), where=ok.ravel())

    def constant_block(self, Q: np.ndarray) -> np.ndarray:
        """Element values on the pairs a <= b of the channel form Q on the
        linear rows; every element of the uniform mesh has the same."""
        t = self.tables
        k = t.dofs.shape[1]
        a, b = np.triu_indices(k)
        rows = t.rows[:, t.linear]
        # summed over (point, row) in this order: the slope solve of a fine
        # ribbon (n = 512) feels the last bit of these blocks, and this
        # order keeps its De Giorgi residual converging at second order
        weighted = (rows * t.weights[:, None, None]).reshape(-1, k)
        return (weighted.T @ (Q @ rows).reshape(-1, k))[a, b]

    def assemble(self, g: np.ndarray, z: np.ndarray, cw: float, cr: float) -> BandMatrix:
        """Free-DOF matrix of the density cw QW + cr QR on the linear rows
        plus z F on the row pairs, for the slopes g (ng, nq * E) and the
        inputs z (the rest of F's input rows, nq * E) of FieldSystem._hessian:
        one product each with the forms combined for (cw, cr)."""
        e = len(self.tables.dofs)
        na, nb = self.n_slope, self.n_slope + self.n_quadratic
        values = np.empty((self.K.shape[1], e))
        np.matmul(np.dot((cw, cr), self.A).reshape(na, -1), g.reshape(-1, e), out=values[:na])
        B = np.dot((cw, cr, 1.0), self.B).reshape(nb - na, -1)
        np.matmul(B, z.reshape(-1, e), out=values[na:nb])
        k = np.dot((cw, cr), self.K)
        values[:nb] += k[:nb, None]
        values[nb:] = k[nb:, None]
        return BandMatrix(self, values)

    def factor(self, H: BandMatrix, shift: float = 0.0):
        """Solver r -> H^{-1} r for a matrix from ``assemble``, or None when
        H + shift |diag H| is not positive definite.

        Banded Cholesky (LAPACK ``dpbtrf``, then ``dpbtrs`` per solve) in the
        plan's order; a nonpositive (or NaN) diagonal entry or a failed
        ``dpbtrf`` is the indefiniteness test.  The shift is in units of H's
        own diagonal, so it does not depend on the units of H.  The factor
        overwrites H's band, which H adds up again from its element values
        if it is read once more (a rejected shift, say); the diagonal test
        leaves it in place.  The solver keeps only the Cholesky band."""
        diag = H.band[:, 0]
        if shift:
            diag = diag + shift * np.abs(diag)
        if not np.all(diag > 0.0):
            return None
        band = H.take_band()
        band[:, 0] = diag
        chol, info = dpbtrf(band.T, lower=1, overwrite_ab=1)
        if info:
            return None
        perm = self.perm

        def solve(r: np.ndarray) -> np.ndarray:
            x = np.empty(len(perm))
            x[perm] = dpbtrs(chol, r[perm], lower=1, overwrite_b=1)[0]
            return x

        return solve

    def embed(self, K: sp.csc_matrix) -> sp.csc_matrix:
        """Full-size copy of a free-DOF matrix; constrained rows and columns are zero."""
        import scipy.sparse as sp
        n = self.free.size
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:][self.free] = np.diff(K.indptr)
        rows = np.flatnonzero(self.free)[K.indices]
        return sp.csc_matrix((K.data, rows, np.cumsum(indptr)), shape=(n, n))


class FieldSystem:
    """What the ribbon and plate systems share: packed named fields with
    Dirichlet constraints, dead loads, the metric, the weak residual, the
    local slope, and every energy, distance, gradient and Hessian, built on
    ElementTables.

    A subclass declares its strain: the channels s (ns, nq * E) are the
    element rows ``LINEAR_ROWS``, plus 1/2 g_a g_b on membrane channel k
    for the k-th pair (a, b) of ``MEMBRANE_SLOPES``, where the slopes g
    (ng, nq * E) are the rows ``SLOPE_ROWS``; every row is linear or a
    slope.  It provides ``_element_rows()`` and QW, QR, in which the
    membrane channels meet no other channel.  phi(u) = 1/2 int s . QW s
    minus the work of the loads and D^2(a, b) = int (s_a - s_b) . QR (s_a -
    s_b).  Every kernel works on whole channel rows (ElementTables): the
    products QW s and QR (s - s_anchor) are one small matrix product each,
    a value is the weighted sum of a product times its channels.
    Coefficients (cw, cr) select cw * phi + cr * D^2(anchor, .)/2, with
    stress sig = cw QW s + cr QR (s - s_anchor), whose gradient is
    ``split_scatter`` of sig on the linear rows and sum_k sig_k ds_k/dg on
    the slopes, and Hessian density C = cw QW + cr QR on the linear rows,
    plus C ds/dg on the row pairs (slope, membrane row) and ds/dg^T C ds/dg
    + sig . d^2s/dg^2 on (slope, slope); the assembly plan folds the last
    two into its products with the slopes and with their products g_a g_b
    (a <= b) and the membrane stress.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        ng, nm = len(cls.SLOPE_ROWS), len(cls.MEMBRANE_SLOPES)
        cls._D2 = D2 = np.zeros((nm, ng, ng))  # d^2 s_k / dg^2
        for k, (a, b) in enumerate(cls.MEMBRANE_SLOPES):
            D2[k, a, b] += 0.5
            D2[k, b, a] += 0.5
        # sum_k sig_k ds_k/dg_a = sum of D2[k, a, b] sig_k g_b over the nonzeros
        cls._slope_terms = [(k, a, b, D2[k, a, b]) for k, a, b in zip(*np.nonzero(D2))]
        cls._products_of_slopes = list(zip(*np.triu_indices(ng)))
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
        # the last point an incremental problem valued: (bytes, channels, QW s, phi)
        self._valued = None

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
        """Load vector of ``_loads`` (field, its space, load polynomial in
        x1); its dot product with u is the work of the dead loads.  Only a
        nonzero polynomial is evaluated, by one bincount over the DOFs at
        the quadrature points in point order: bitwise B^T (wq f) for the
        value sampling matrix B of its space."""
        f, q = np.zeros(self.n_dofs), self.quad
        for name, space, load in self._loads:
            if np.any(load.coef):
                dofs, basis = _element_values(space, q)
                at = q.by_point(np.broadcast_to(dofs[:, None], (len(dofs),) + basis.shape))
                local = q.by_point(q.by_element(self.wq * q.of_x1(load))[..., None] * basis)
                f[self.slices[name]] = np.bincount(at.ravel(), local.ravel(), space.n_dofs)
        return f

    @cached_property
    def _tables(self) -> ElementTables:
        dofs, rows, coupling = self._element_rows()
        return ElementTables(
            dofs, rows, self.quad.channel_weights, coupling, self.n_dofs,
            self.LINEAR_ROWS, self.SLOPE_ROWS, self._row_pairs,
        )

    def rows(self, u: np.ndarray) -> np.ndarray:
        """Every reference row of ``_element_rows`` at every quadrature
        point, (n_points, r), in point order."""
        return self._by_point(self._tables.evaluate(u))

    def _by_point(self, X: np.ndarray) -> np.ndarray:
        """Channel-major values X (n, nq * E) in point order, (n_points, n)."""
        return self.quad.by_point(X.reshape(len(X), len(self._tables.weights), -1).T)

    def _channels(self, u: np.ndarray):
        """Strain s (ns, nq * E) and slopes g (ng, nq * E), channel-major."""
        s, g = self._tables.split_evaluate(u)
        for k, (a, b) in enumerate(self.MEMBRANE_SLOPES):
            s[k] += 0.5 * g[a] * g[b]
        return s, g

    def _integral(self, P: np.ndarray, s: np.ndarray) -> float:
        """int P . s for channels s (ns, nq * E) and their product P with a form."""
        return float(np.einsum("cp,cp->p", P, s) @ self._tables.point_weights)

    def _products(self, s: np.ndarray, s_a: np.ndarray):
        """d = s - s_a for channels s and s_a, and the products QW s and QR d."""
        d = s - s_a
        return d, self.QW @ s, self.QR @ d

    def _slope_forms(self) -> np.ndarray:
        """The slope forms (F_W, F_R, F_G): the density on the row pairs is
        (g, g_a g_b for a <= b, sig_m) @ (cw F_W + cr F_R + F_G), F_Q holding
        Q ds/dg and ds/dg^T Q ds/dg, F_G the geometric term sig . d^2s/dg^2."""
        D2 = self._D2
        nm, ng = D2.shape[:2]
        c, d = np.tril_indices(ng)
        a, b = np.array(self._products_of_slopes).T
        n = ng * nm  # the (slope, membrane row) pairs come first
        F = np.zeros((3, ng + len(a) + nm, n + len(c)))
        for Fq, Q in zip(F, (self.QW[:nm, :nm], self.QR[:nm, :nm])):
            Fq[:ng, :n] = np.einsum("kj,jcd->dck", Q, D2).reshape(ng, n)
            P = np.einsum("jca,jk,kdb->abcd", D2, Q, D2)  # P[a, b] is the form of g_a g_b
            Fq[ng:-nm, n:] = (P[a, b] + (a != b)[:, None, None] * P[b, a])[:, c, d]
        F[2, -nm:, n:] = D2[:, c, d]
        return F

    def _gradient(self, g: np.ndarray, sig: np.ndarray, cw: float) -> np.ndarray:
        """DOF gradient of the stress sig (ns, nq * E) at slopes g, less cw
        times the loads; zero on the constrained DOFs."""
        slope = np.zeros(g.shape)
        for k, a, b, c in self._slope_terms:
            slope[a] += c * sig[k] * g[b]
        out = self._tables.split_scatter(sig, slope)
        out -= cw * self._force
        out[self.bc_mask] = 0.0
        return out

    def _hessian(self, g: np.ndarray, sig: np.ndarray, cw: float, cr: float) -> BandMatrix:
        """Free-DOF Hessian at slopes g with stress sig, in band storage."""
        if self._plan is None:
            grid = (m.nx, m.ny) if isinstance(m := self.mesh, Mesh2D) else (m.n,)
            self._plan = ElementAssembly(
                self._tables, self.free, self.QW, self.QR, self._slope_forms(), grid
            )
        pairs, nm = self._products_of_slopes, len(self._D2)
        z = np.empty((len(pairs) + nm, g.shape[1]))
        for i, (a, b) in enumerate(pairs):
            np.multiply(g[a], g[b], out=z[i])
        z[len(pairs):] = sig[:nm]
        return self._plan.assemble(g, z, cw, cr)

    def _linearized(self, ch, du: np.ndarray) -> np.ndarray:
        """ds/du . du at channels ch, (ns, nq * E): the linear rows of du plus
        1/2 (g_a dg_b + dg_a g_b) on the membrane channel of the pair (a, b),
        dg being the slopes of du."""
        h, dg = self._tables.split_evaluate(du)
        g = ch[1]
        for k, (a, b) in enumerate(self.MEMBRANE_SLOPES):
            h[k] += 0.5 * (g[a] * dg[b] + dg[a] * g[b])
        return h

    def _slope_solve(self, ch):
        """(|dphi|, h*) at channels ch, h* (free DOFs) solving K h* = g with K
        the Hessian of D^2(u, .)/2 at u, where its stress vanishes, and g the
        energy gradient."""
        s, g = ch
        grad = self._gradient(g, self.QW @ s, 1.0)[self.free]
        K = self._hessian(g, np.zeros(s.shape), 0.0, 1.0)
        solve = self._plan.factor(K)
        if solve is None:
            raise FemError("metric tensor not positive definite at u")
        hstar = solve(grad)
        return float(np.sqrt(max(float(np.dot(grad, hstar)), 0.0))), hstar

    def local_slope(self, u: np.ndarray) -> float:
        """Local slope |dphi|(u) via the auxiliary quadratic problem.

        K, the metric tensor at u, is positive definite on the zero-trace
        test space; |dphi|(u)^2 = max_h (2 g . h - h . K h) = g . K^{-1} g.
        Raises FemError when the band Cholesky rejects K, as it does at a
        non-finite u."""
        return self._slope_solve(self._channels(u))[0]

    def energy(self, u: np.ndarray) -> float:
        s = self._channels(u)[0]
        return 0.5 * self._integral(self.QW @ s, s) - float(np.dot(self._force, u))

    def sqdist(self, ua: np.ndarray, ub: np.ndarray) -> float:
        d = self._channels(ua)[0] - self._channels(ub)[0]
        return self._integral(self.QR @ d, d)

    def grad_energy(self, u: np.ndarray) -> np.ndarray:
        s, g = self._channels(u)
        return self._gradient(g, self.QW @ s, 1.0)

    def grad_halfsqdist(self, anchor: np.ndarray, u: np.ndarray) -> np.ndarray:
        s, g = self._channels(u)
        return self._gradient(g, self.QR @ (s - self._channels(anchor)[0]), 0.0)

    def incremental(self, anchor: np.ndarray, tau: float) -> "IncrementalProblem":
        """The functional v -> phi(v) + D^2(anchor, v) / (2 tau) of one time step."""
        return IncrementalProblem(self, anchor, tau)

    def hess_energy(self, u: np.ndarray) -> sp.csc_matrix:
        """Full-size Hessian of phi at u; constrained rows and columns are zero."""
        s, g = self._channels(u)
        K = self._hessian(g, self.QW @ s, 1.0, 0.0)
        return self._plan.embed(K.tocsc())

    def hess_halfsqdist(self, anchor: np.ndarray, u: np.ndarray) -> sp.csc_matrix:
        """Full-size Hessian of D^2(anchor, .)/2 at u; constrained rows and columns are zero."""
        s, g = self._channels(u)
        K = self._hessian(g, self.QR @ (s - self._channels(anchor)[0]), 0.0, 1.0)
        return self._plan.embed(K.tocsc())

    def weak_residual_vector(self, prev: np.ndarray, nxt: np.ndarray, tau: float) -> np.ndarray:
        """Pairings of the weak equations (one block per field) against every
        interior basis function, with difference quotients in the viscous
        channels; identical to the DOF gradient of the incremental
        functional v -> phi(v) + D^2(prev, v) / (2 tau)."""
        if tau <= 0.0:
            raise ValueError("tau must be positive")
        return self.grad_energy(nxt) + self.grad_halfsqdist(prev, nxt) / tau


class IncrementalProblem:
    """v -> Phi(v) = phi(v) + D^2(anchor, v) / (2 tau) of one time step.

    Keeps the anchor's channels and, for the last point, keyed on the
    bytes of its values, what its one set of products P_W = QW s and
    P_R = QR (s - s_anchor) (``FieldSystem._products``) yields: (phi, D^2),
    their reductions, and the stress sig = P_W + P_R / tau, from which the
    gradient and the Hessian there are read with its slopes.  Each valued
    point also becomes the system's record ``_valued`` (its bytes, channels,
    P_W and phi), so the next step, anchored at the point this one accepted,
    starts from the record without evaluating it again: at the anchor
    D^2 = 0 and sig = P_W.  Holds the system; the system holds only arrays.
    """

    def __init__(self, system: FieldSystem, anchor: np.ndarray, tau: float):
        if tau <= 0.0:
            raise ValueError("tau must be positive")
        self.system, self.cr = system, 1.0 / tau
        v = np.asarray(anchor, dtype=float)
        self._key = v.tobytes()
        if system._valued is None or system._valued[0] != self._key:
            ch = system._channels(v)
            self._anchor = ch[0]
            self._evaluate(v, self._key, ch)
        _, ch, PW, phi = system._valued
        self._anchor = ch[0]
        self._point = ch[1], PW, (phi, 0.0)

    def _evaluate(self, v: np.ndarray, key: bytes, ch):
        """(slopes, stress, (phi, D^2)) at v, whose bytes are key, with
        channels ch; recorded as the system's last valued point."""
        system = self.system
        s = ch[0]
        d, PW, PR = system._products(s, self._anchor)
        phi = 0.5 * system._integral(PW, s) - float(np.dot(system._force, v))
        parts = phi, system._integral(PR, d)
        system._valued = key, ch, PW, phi
        PR *= self.cr
        PR += PW  # P_R becomes the stress; P_W stays in the record
        return ch[1], PR, parts

    def _at(self, v: np.ndarray):
        v = np.asarray(v, dtype=float)
        key = v.tobytes()
        if key != self._key:
            # the old point and record go before the new one's arrays are
            # made, and stay gone if making them raises
            self._key = self._point = self.system._valued = None
            self._point = self._evaluate(v, key, self.system._channels(v))
            self._key = key
        return self._point

    def parts(self, v: np.ndarray) -> tuple[float, float]:
        """(phi(v), D^2(anchor, v))."""
        return self._at(v)[2]

    def value(self, v: np.ndarray) -> float:
        phi, d2 = self.parts(v)
        return phi + 0.5 * self.cr * d2

    def grad(self, v: np.ndarray) -> np.ndarray:
        """Full-size gradient of Phi at v; zero on the constrained DOFs."""
        g, sig, _ = self._at(v)
        return self.system._gradient(g, sig, 1.0)

    def hessian(self, v: np.ndarray) -> BandMatrix:
        """Free-DOF Hessian of Phi at v in the plan's band storage."""
        g, sig, _ = self._at(v)
        return self.system._hessian(g, sig, 1.0, self.cr)

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
    import scipy.sparse as sp
    return (Ba.T @ sp.diags(diag) @ Bb).tocsr()
