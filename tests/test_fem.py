"""Element spaces: reproduction, conformity, quadrature, boundary handling."""

import numpy as np
import pytest
import scipy.sparse as sp

from vkribbon.fem import (
    BFSSpace,
    BoundaryData,
    GaussRule,
    Hermite3Space,
    Mesh1D,
    Mesh2D,
    P1Space,
    Q1Space,
    Quadrature1D,
    Quadrature2D,
    dirichlet_1d,
    dirichlet_2d,
)

from oracles import repeat_tile_quadrature, scaled_operators_2d


@pytest.fixture
def mesh():
    return Mesh1D(l=1.0, n=4)


@pytest.fixture
def mesh2():
    return Mesh2D(l=1.0, nx=4, ny=3)


class TestFields1D:
    def test_hermite_reproduces_cubic(self, mesh):
        space = Hermite3Space(mesh)
        p = np.polynomial.Polynomial((0.3, -1.0, 0.25, 2.0))
        coeffs = space.interpolate(p, p.deriv())
        x = np.linspace(-0.5, 0.5, 57)
        assert np.abs(space.evaluate(coeffs, x, 0) - p(x)).max() < 1e-13
        assert np.abs(space.evaluate(coeffs, x, 1) - p.deriv()(x)).max() < 1e-12

    def test_hermite_second_derivative_of_quadratic(self, mesh):
        space = Hermite3Space(mesh)
        p = np.polynomial.Polynomial((0.0, 0.0, 1.0))
        coeffs = space.interpolate(p, p.deriv())
        x = np.linspace(-0.49, 0.49, 31)
        assert np.abs(space.evaluate(coeffs, x, 2) - 2.0).max() < 1e-11

    def test_p1_partition_of_unity(self, mesh):
        space = P1Space(mesh)
        coeffs = np.ones(space.n_dofs)
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 0.5, 40)
        assert np.abs(space.evaluate(coeffs, x, 0) - 1.0).max() < 1e-14


class TestConformity:
    def test_hermite_c1_across_elements(self, mesh):
        # exact edge traces: element e at s = 1 against element e+1 at s = 0
        rng = np.random.default_rng(1)
        space = Hermite3Space(mesh)
        coeffs = rng.standard_normal(space.n_dofs)
        for e in range(mesh.n - 1):
            for d in (0, 1):
                left = space.ref_basis(np.array([1.0]), d)[0] @ coeffs[
                    space.element_dofs(np.array([e]))[0]
                ]
                right = space.ref_basis(np.array([0.0]), d)[0] @ coeffs[
                    space.element_dofs(np.array([e + 1]))[0]
                ]
                assert abs(left - right) <= 1e-12 * max(1.0, abs(left))

    def test_bfs_c1_across_edges(self, mesh2):
        # sample values and first derivatives exactly on shared edges
        rng = np.random.default_rng(2)
        space = BFSSpace(mesh2)
        coeffs = rng.standard_normal(space.n_dofs)
        ts = np.linspace(0.0, 1.0, 5)
        for ex in range(mesh2.nx - 1):
            for ey in range(mesh2.ny):
                dl = space.element_dofs(np.array([ex]), np.array([ey]))[0]
                dr = space.element_dofs(np.array([ex + 1]), np.array([ey]))[0]
                for (dx, dy) in ((0, 0), (1, 0), (0, 1)):
                    left = space.ref_basis(np.ones_like(ts), ts, dx, dy) @ coeffs[dl]
                    right = space.ref_basis(np.zeros_like(ts), ts, dx, dy) @ coeffs[dr]
                    scale = max(1.0, np.abs(left).max())
                    assert np.abs(left - right).max() <= 1e-12 * scale
        for ex in range(mesh2.nx):
            for ey in range(mesh2.ny - 1):
                db = space.element_dofs(np.array([ex]), np.array([ey]))[0]
                da = space.element_dofs(np.array([ex]), np.array([ey + 1]))[0]
                for (dx, dy) in ((0, 0), (1, 0), (0, 1)):
                    below = space.ref_basis(ts, np.ones_like(ts), dx, dy) @ coeffs[db]
                    above = space.ref_basis(ts, np.zeros_like(ts), dx, dy) @ coeffs[da]
                    scale = max(1.0, np.abs(below).max())
                    assert np.abs(below - above).max() <= 1e-12 * scale

    def test_bfs_reproduces_bicubic(self, mesh2):
        space = BFSSpace(mesh2)
        f = lambda x, y: (x**3 - 0.2 * x) * (y**2 + 0.5 * y)
        fx = lambda x, y: (3 * x**2 - 0.2) * (y**2 + 0.5 * y)
        fy = lambda x, y: (x**3 - 0.2 * x) * (2 * y + 0.5)
        fxy = lambda x, y: (3 * x**2 - 0.2) * (2 * y + 0.5)
        coeffs = space.interpolate(f, fx, fy, fxy)
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.5, 0.5, 25)
        y = rng.uniform(-0.5, 0.5, 25)
        assert np.abs(space.evaluate(coeffs, x, y) - f(x, y)).max() < 1e-12
        assert np.abs(space.evaluate(coeffs, x, y, 1, 1) - fxy(x, y)).max() < 1e-10


class TestQuadrature:
    def test_1d_weights_sum_to_length(self, mesh):
        quad = Quadrature1D(mesh, GaussRule(5))
        assert quad.weights.sum() == pytest.approx(1.0, rel=1e-14)

    def test_2d_tensor_integrates_polynomial(self, mesh2):
        quad = Quadrature2D(mesh2, GaussRule(4))
        vals = quad.x**2 * quad.y**2
        # int x^2 over (-1/2,1/2) = 1/12 each direction
        assert np.dot(quad.weights, vals) == pytest.approx(1.0 / 144.0, rel=1e-13)

    @pytest.mark.parametrize("order", [1, 3, 5, 9])
    def test_rule_is_computed_once_per_order_and_read_only(self, mesh, order):
        a, b = GaussRule(order), GaussRule(order)
        assert a.points is b.points and a.weights is b.weights
        for values in (a.points, a.weights):
            with pytest.raises(ValueError):
                values[0] = 0.0
        # the values are those of a fresh leggauss call, bit for bit
        pts, wts = np.polynomial.legendre.leggauss(order)
        pts, wts = 0.5 * (pts + 1.0), 0.5 * wts
        assert np.array_equal(a.points, pts) and np.array_equal(a.weights, wts)
        quad = Quadrature1D(mesh, a)
        assert np.array_equal(quad.weights, np.tile(wts * mesh.h, mesh.n))
        expect = mesh.nodes[np.repeat(np.arange(mesh.n), order)] + np.tile(pts, mesh.n) * mesh.h
        assert np.array_equal(quad.points, expect)

    def test_quartic_gradient_exact(self, mesh):
        # |w'|^4 of a Hermite cubic is degree 8; the default rule must be exact
        space = Hermite3Space(mesh)
        p = np.polynomial.Polynomial((0.1, 0.3, -0.2, 0.6))
        coeffs = space.interpolate(p, p.deriv())
        q5 = Quadrature1D(mesh, GaussRule(5))
        q9 = Quadrature1D(mesh, GaussRule(9))
        v5 = np.dot(q5.weights, (space.sample_matrix(q5, 1) @ coeffs) ** 4)
        v9 = np.dot(q9.weights, (space.sample_matrix(q9, 1) @ coeffs) ** 4)
        assert v5 == pytest.approx(v9, rel=1e-14)

    @pytest.mark.parametrize("order", [5, 3])
    @pytest.mark.parametrize("mesh2", [Mesh2D(l=1.0, nx=12, ny=4), Mesh2D(l=2.5, nx=7, ny=3)])
    def test_2d_points_match_repeat_tile_construction(self, mesh2, order):
        rule = GaussRule(order)
        quad, oracle = Quadrature2D(mesh2, rule), repeat_tile_quadrature(mesh2, rule)
        for name, values in oracle.items():
            assert np.array_equal(getattr(quad, name), values), name
            assert getattr(quad, name).dtype == values.dtype, name
        assert np.array_equal(quad.x_stations(), oracle["x"][:: quad.n_transverse])
        elements = mesh2.nx * mesh2.ny
        one_element = quad.by_element(oracle["weights"])[0]
        assert np.array_equal(quad.channel_weights, np.repeat(one_element, elements))
        assert quad.n_points == oracle["x"].size

    def test_x2_average(self, mesh2):
        quad = Quadrature2D(mesh2, GaussRule(3))
        vals = quad.x + quad.y**2  # average over x2: x + 1/12
        avg = quad.x2_average(vals)
        assert np.abs(avg - (quad.x_stations() + 1.0 / 12.0)).max() < 1e-14


class TestScaledOperators:
    def test_identity_stretch(self, mesh2):
        q1 = Q1Space(mesh2)
        bfs = BFSSpace(mesh2)
        fields = {
            "y1": q1.interpolate(lambda x, y: x),
            "y2": np.zeros(q1.n_dofs),
            "w": np.zeros(bfs.n_dofs),
        }
        pts = np.array([[0.1, 0.2], [-0.3, -0.4]])
        out = scaled_operators_2d(mesh2, 0.7, fields, pts)
        assert np.allclose(out["E"], [[1, 0, 0], [1, 0, 0]], atol=1e-13)

    def test_transverse_hessian_scaling(self, mesh2):
        bfs = BFSSpace(mesh2)
        fields = {
            "y1": np.zeros((mesh2.nx + 1) * (mesh2.ny + 1)),
            "y2": np.zeros((mesh2.nx + 1) * (mesh2.ny + 1)),
            "w": bfs.interpolate(
                lambda x, y: y**2, lambda x, y: 0 * x, lambda x, y: 2 * y, lambda x, y: 0 * x
            ),
        }
        out = scaled_operators_2d(mesh2, 0.5, fields, np.array([[0.05, 0.1]]))
        assert out["hess_w"][0, 2] == pytest.approx(8.0, rel=1e-12)

    def test_x2_independent_field(self, mesh2):
        bfs = BFSSpace(mesh2)
        fields = {
            "y1": np.zeros((mesh2.nx + 1) * (mesh2.ny + 1)),
            "y2": np.zeros((mesh2.nx + 1) * (mesh2.ny + 1)),
            "w": bfs.interpolate(
                lambda x, y: x**2, lambda x, y: 2 * x, lambda x, y: 0 * x, lambda x, y: 0 * x
            ),
        }
        out = scaled_operators_2d(mesh2, 0.25, fields, np.array([[0.2, 0.3]]))
        assert out["grad_w"][0, 1] == pytest.approx(0.0, abs=1e-13)
        with pytest.raises(Exception):
            scaled_operators_2d(mesh2, -1.0, fields, np.array([[0.0, 0.0]]))


class TestDirichlet:
    def test_zero_data_homogeneous(self, mesh):
        mask, values = dirichlet_1d(mesh, BoundaryData.zero())
        assert np.all(values[mask] == 0.0)
        # xi1 endpoints, xi2/w value+slope pairs, theta endpoints
        assert mask.sum() == 2 + 4 + 4 + 2

    def test_1d_w_traces(self, mesh):
        bc = BoundaryData.from_coeffs(v=(1.0, 2.0, 1.0))  # 1 + 2x + x^2
        mask, values = dirichlet_1d(mesh, bc)
        n = mesh.n
        off_w = (n + 1) + 2 * (n + 1)  # after xi1 and xi2 blocks
        assert values[off_w + 0] == pytest.approx(1 - 1 + 0.25)  # v(-1/2)
        assert values[off_w + 1] == pytest.approx(2 - 1)  # v'(-1/2)
        assert values[off_w + 2 * n] == pytest.approx(1 + 1 + 0.25)
        assert values[off_w + 2 * n + 1] == pytest.approx(3.0)

    def test_2d_lateral_trace_reproduces_affine(self, mesh2):
        bc = BoundaryData.from_coeffs(u1=(0.2,), u2=(0.0, 1.0))  # u2hat = x
        mask, values = dirichlet_2d(mesh2, bc)
        q1 = Q1Space(mesh2)
        y1 = np.zeros(q1.n_dofs)
        y1[mask[: q1.n_dofs]] = values[: q1.n_dofs][mask[: q1.n_dofs]]
        ys = np.linspace(-0.5, 0.5, 9)
        vals = q1.evaluate(y1, np.full_like(ys, -0.5), ys)
        assert np.abs(vals - (0.2 - ys * 1.0)).max() < 1e-13

    def test_top_bottom_free(self, mesh2):
        mask, _ = dirichlet_2d(mesh2, BoundaryData.zero())
        q1 = Q1Space(mesh2)
        # an interior-column node on the top boundary stays free
        top_node = mesh2.node_index(2, mesh2.ny)
        assert not mask[top_node]
        assert not mask[q1.n_dofs + top_node]


def weighted_gram(Br, density, quad, Bc=None):
    """sum_q w_q c_q (Br u)_q (Bc v)_q as a matrix, Br^T diag(w c) Bc, from
    two sampling matrices; Bc defaults to Br."""
    Bc = Br if Bc is None else Bc
    return (Br.T @ sp.diags(quad.weights * density) @ Bc).tocsr()


class TestAssembly:
    """Quadratic forms assembled from sampling matrices: the oracle the
    sampling matrices provide for the element path."""

    def test_p1_stiffness_stencil(self):
        mesh = Mesh1D(l=1.0, n=2)
        space = P1Space(mesh)
        quad = Quadrature1D(mesh, GaussRule(3))
        K = weighted_gram(space.sample_matrix(quad, 1), 1.0, quad).toarray()
        h = mesh.h
        expect = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]]) / h
        assert np.abs(K - expect).max() < 1e-12

    def test_hermite_bending_matches_analytic(self):
        mesh = Mesh1D(l=1.0, n=3)
        space = Hermite3Space(mesh)
        quad = Quadrature1D(mesh, GaussRule(5))
        K = weighted_gram(space.sample_matrix(quad, 2), 1.0, quad)
        p = np.polynomial.Polynomial((0.0, 0.0, 1.5, 0.5))
        q = np.polynomial.Polynomial((0.0, 0.0, -1.0, 1.0))
        cp = space.interpolate(p, p.deriv())
        cq = space.interpolate(q, q.deriv())
        # int p'' q'' over (-1/2, 1/2), p'' = 3 + 3x, q'' = -2 + 6x
        analytic = np.polynomial.Polynomial((-6.0, 12.0, 18.0)).integ()
        expect = analytic(0.5) - analytic(-0.5)
        assert cp @ (K @ cq) == pytest.approx(expect, rel=1e-12)

    def test_zero_density(self, mesh):
        space = P1Space(mesh)
        quad = Quadrature1D(mesh)
        K = weighted_gram(space.sample_matrix(quad, 0), 0.0, quad)
        assert K.nnz == 0 or np.abs(K.data).max() == 0.0

    def test_against_dense_assembly(self):
        # brute-force dense assembly by basis-function sampling
        mesh = Mesh1D(l=2.0, n=3)
        space = P1Space(mesh)
        quad = Quadrature1D(mesh, GaussRule(4))
        dens = lambda x: 1.0 + x**2
        K = weighted_gram(space.sample_matrix(quad, 1), dens(quad.points), quad).toarray()
        ndof = space.n_dofs
        dense = np.zeros((ndof, ndof))
        for i in range(ndof):
            ei = np.zeros(ndof)
            ei[i] = 1.0
            for j in range(ndof):
                ej = np.zeros(ndof)
                ej[j] = 1.0
                vi = space.evaluate(ei, quad.points, 1)
                vj = space.evaluate(ej, quad.points, 1)
                dense[i, j] = np.dot(quad.weights * dens(quad.points), vi * vj)
        assert np.abs(K - dense).max() < 1e-12

    def test_2d_assembly_symmetric(self, mesh2):
        space = Q1Space(mesh2)
        quad = Quadrature2D(mesh2, GaussRule(3))
        Br, Bc = space.sample_matrix(quad, 1, 0), space.sample_matrix(quad, 1, 0)
        K = weighted_gram(Br, 2.0, quad, Bc)
        assert np.abs((K - K.T).data).max() < 1e-13 if (K - K.T).nnz else True
