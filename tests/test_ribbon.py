"""Ribbon system: energies, metric, gradients, slope machinery, recovery shift.

The channel expansion and the local slope are FieldSystem code; they are
checked on the plate as well."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from vkribbon.fem import BoundaryData, FemError, Mesh1D, Mesh2D
from vkribbon.forms import MaterialPair
from vkribbon.plate import PlateSystem, RecoveryInputs, build_recovery
from vkribbon.ribbon import RibbonForces, RibbonSystem

from oracles import energy_via_extended_form, mutual_shift, ribbon_energy_parts, sobolev_gap
from oracles import point_channels, sqdist_via_extended_form

BUMP = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])  # (x^2 - 1/4)^2


@pytest.fixture
def mesh():
    return Mesh1D(l=1.0, n=12)


@pytest.fixture
def mat_h1():
    return MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)


@pytest.fixture
def system(mesh, mat_h1):
    return RibbonSystem(mesh, mat_h1)


def random_state(system, rng, amp=0.3):
    u = system.zero_state()
    u[system.free] += amp * rng.standard_normal(int(system.free.sum()))
    return u


class TestEnergy:
    def test_zero_state(self, system):
        assert system.energy(system.zero_state()) == 0.0

    def test_pure_stretch(self, mesh, mat_h1):
        bc = BoundaryData.from_coeffs(u1=(0.0, 1.0))
        s = RibbonSystem(mesh, mat_h1, bc)
        u = s.interpolate((0.0, 1.0), (0.0,), (0.0,), (0.0,))
        # 0.5 * C0 * |xi1'|^2 * l = 0.5 * 2 * 1
        assert s.energy(u) == pytest.approx(1.0, rel=1e-13)

    def test_pure_xi2_bending(self, mesh, mat_h1):
        bc = BoundaryData.from_coeffs(u2=(0.0, 0.0, 0.5))
        s = RibbonSystem(mesh, mat_h1, bc)
        u = s.interpolate((0.0,), (0.0, 0.0, 0.5), (0.0,), (0.0,))
        # (1/24) * C0 * |xi2''|^2 * l = 2/24
        assert s.energy(u) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_force_linear_term(self, mesh, mat_h1):
        forces = RibbonForces.from_coeffs(f=(1.0,), g1=(0.5,))
        s = RibbonSystem(mesh, mat_h1, forces=forces)
        u = s.zero_state()
        u[s.slices["w"]] = s.h3.interpolate(BUMP, BUMP.deriv())
        u[s.bc_mask] = s.bc_values[s.bc_mask]
        # independent quadrature of f times the interpolated deflection
        from vkribbon.fem import GaussRule, Quadrature1D

        q9 = Quadrature1D(mesh, GaussRule(9))
        expect_force = float(
            np.dot(q9.weights, s.h3.evaluate(u[s.slices["w"]], q9.points, 0))
        )
        parts = ribbon_energy_parts(s, u)
        assert parts["force"] == pytest.approx(expect_force, rel=1e-13)

    def test_extended_form_representation(self, mesh):
        # two independent code paths for the same integral
        rng = np.random.default_rng(7)
        mat = MaterialPair.isotropic(1.3, 0.8, 0.7, 0.4)
        s = RibbonSystem(mesh, mat)
        for _ in range(10):
            u = random_state(s, rng)
            v = random_state(s, rng)
            e1 = s.energy(u)
            e2 = energy_via_extended_form(s, u)
            assert e2 == pytest.approx(e1, rel=1e-12)
            d1 = s.sqdist(u, v)
            d2 = sqdist_via_extended_form(s, u, v)
            assert d2 == pytest.approx(d1, rel=1e-12)


class TestMetric:
    def test_diagonal_zero(self, system):
        rng = np.random.default_rng(8)
        u = random_state(system, rng)
        assert system.metric(u, u) == 0.0

    def test_xi2_difference(self, system):
        ua = system.zero_state()
        ub = ua.copy()
        p = Polynomial((0.0, 0.0, 0.5))
        ub[system.slices["xi2"]] += system.h3.interpolate(p, p.deriv())
        assert system.metric(ua, ub) ** 2 == pytest.approx(1.0 / 6.0, rel=1e-13)
        assert system.metric(ub, ua) == system.metric(ua, ub)

    def test_triangle_inequality(self, system):
        rng = np.random.default_rng(9)
        for _ in range(15):
            a, b, c = (random_state(system, rng) for _ in range(3))
            assert system.metric(a, c) <= system.metric(a, b) + system.metric(b, c) + 1e-12

    def test_definite_on_difference(self, system):
        rng = np.random.default_rng(10)
        u = random_state(system, rng)
        v = u.copy()
        v[system.slices["theta"]][3] += 1e-3
        assert system.metric(u, v) > 0.0


class TestChannelExpansion:
    def test_g_minus_g_equals_h_minus_quadratic(self, system):
        # G(u) - G(v) = H(u - v | w_u) - ((w_u' - w_v')^2, 0, 0) / 2 pointwise
        rng = np.random.default_rng(11)
        u = random_state(system, rng)
        v = random_state(system, rng)
        a_u, m_u, k_u, t_u = point_channels(system, u).T
        a_v, m_v, k_v, t_v = point_channels(system, v).T
        B1 = system.h3.sample_matrix(system.quad, 1)
        dwprime = B1 @ u[system.slices["w"]] - B1 @ v[system.slices["w"]]
        a_h, m_h, k_h, t_h = system._by_point(system._linearized(system._channels(u), u - v)).T
        scale = 1.0 + max(np.abs(m_u).max(), np.abs(k_u).max())
        assert np.abs((a_u - a_v) - (a_h - 0.5 * dwprime**2)).max() < 1e-12 * scale
        assert np.abs((m_u - m_v) - m_h).max() < 1e-12 * scale
        assert np.abs((k_u - k_v) - k_h).max() < 1e-12 * scale
        assert np.abs((t_u - t_v) - t_h).max() < 1e-12 * scale

    def test_plate_g_minus_g_equals_h_minus_quadratic(self, mat_h1):
        # G(u) - G(v) = H(u - v | u) - ((dg1^2, dg1 dg2, dg2^2), 0) / 2 pointwise,
        # dg = grad_eps (w_u - w_v) from the BFS sampling matrices
        p = PlateSystem(Mesh2D(l=1.0, nx=12, ny=4), 0.1, mat_h1)
        rng = np.random.default_rng(27)
        u = random_state(p, rng)
        v = random_state(p, rng)
        dw = (u - v)[p.slices["w"]]
        dg1 = p.bfs.sample_matrix(p.quad, 1, 0) @ dw
        dg2 = p.bfs.sample_matrix(p.quad, 0, 1) @ dw / p.eps
        quadratic = np.zeros((p.quad.n_points, 6))
        quadratic[:, :3] = 0.5 * np.stack([dg1**2, dg1 * dg2, dg2**2], axis=-1)
        Gu = point_channels(p, u)
        Gv = point_channels(p, v)
        H = p._by_point(p._linearized(p._channels(u), u - v))
        scale = 1.0 + np.abs(Gu).max()
        assert np.abs((Gu - Gv) - (H - quadratic)).max() < 1e-12 * scale


class TestGradients:
    def test_fd_energy(self):
        mesh = Mesh1D(l=1.0, n=10)
        mat = MaterialPair.isotropic(1.1, 0.6, 0.9, 0.2)
        forces = RibbonForces.from_coeffs(f=(0.4, 1.0), g1=(0.2,), g2=(0.1, -0.3))
        s = RibbonSystem(mesh, mat, forces=forces)
        rng = np.random.default_rng(12)
        h = 1e-5
        for _ in range(6):
            u = random_state(s, rng)
            g = s.grad_energy(u)
            d = np.zeros_like(u)
            d[s.free] = rng.standard_normal(int(s.free.sum()))
            d /= np.linalg.norm(d)
            fd = (s.energy(u + h * d) - s.energy(u - h * d)) / (2 * h)
            assert abs(fd - g @ d) <= 1e-6 * max(abs(fd), 1e-8)

    def test_fd_halfsqdist(self, system):
        rng = np.random.default_rng(13)
        h = 1e-5
        anchor = random_state(system, rng)
        for _ in range(6):
            u = random_state(system, rng)
            g = system.grad_halfsqdist(anchor, u)
            d = np.zeros_like(u)
            d[system.free] = rng.standard_normal(int(system.free.sum()))
            d /= np.linalg.norm(d)
            fd = (
                system.sqdist(anchor, u + h * d) - system.sqdist(anchor, u - h * d)
            ) / (4 * h)
            assert abs(fd - g @ d) <= 1e-6 * max(abs(fd), 1e-8)

    def test_gradient_zero_at_anchor(self, system):
        rng = np.random.default_rng(14)
        u = random_state(system, rng)
        assert np.abs(system.grad_halfsqdist(u, u)).max() == 0.0

    def test_decoupled_critical_point(self, system):
        # zero state with zero data is a critical point of the xi2 block
        g = system.grad_energy(system.zero_state())
        assert np.abs(g[system.slices["xi2"]]).max() == 0.0

    def test_hessians_match_fd(self, system):
        rng = np.random.default_rng(15)
        u = random_state(system, rng)
        anchor = random_state(system, rng)
        h = 1e-6
        d = np.zeros_like(u)
        d[system.free] = rng.standard_normal(int(system.free.sum()))
        for hess, grad in (
            (system.hess_energy(u), lambda v: system.grad_energy(v)),
            (
                system.hess_halfsqdist(anchor, u),
                lambda v: system.grad_halfsqdist(anchor, v),
            ),
        ):
            fd = (grad(u + h * d) - grad(u - h * d)) / (2 * h)
            hv = hess @ d
            assert (
                np.linalg.norm((hv - fd)[system.free])
                <= 1e-6 * np.linalg.norm(hv[system.free]) + 1e-10
            )


def pure_xi2_ribbon():
    s = RibbonSystem(Mesh1D(l=1.0, n=12), MaterialPair.isotropic(1.0, 0.0, 2.0, 0.0))
    u = s.zero_state()
    u[s.slices["xi2"]] = s.h3.interpolate(BUMP, BUMP.deriv())
    u[s.bc_mask] = s.bc_values[s.bc_mask]
    return s, u


def recovered_plate():
    # the recovery of the quick-start datum xi2 = (x^2 - 1/4)^2
    mat = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)
    r = RibbonSystem(Mesh1D(l=1.0, n=12), mat)
    p = PlateSystem(Mesh2D(l=1.0, nx=24, ny=4), 0.1, mat)
    v = r.interpolate((0.0,), tuple(BUMP.coef), (0.0,), (0.0,))
    return p, build_recovery(p, RecoveryInputs(target=r.state(v)))


class TestSlope:
    @pytest.fixture(params=["ribbon", "plate"])
    def slope_case(self, request):
        return {"ribbon": pure_xi2_ribbon, "plate": recovered_plate}[request.param]()

    def test_zero_state_zero_slope(self, slope_case):
        s, _ = slope_case
        assert s.local_slope(s.zero_state()) == 0.0

    def test_non_finite_state_raises(self, slope_case):
        s, _ = slope_case
        with pytest.raises(FemError, match="not positive definite"):
            s.local_slope(np.full(s.n_dofs, np.nan))

    def test_dense_oracle(self, slope_case):
        s, u = slope_case
        # dense oracle: slope^2 = g^T K^{-1} g on the assembled matrices
        g = s.grad_energy(u)[s.free]
        K = s.hess_halfsqdist(u, u)[s.free][:, s.free].toarray()
        expect = float(g @ np.linalg.solve(K, g))
        assert expect > 0.0
        assert s.local_slope(u) == pytest.approx(np.sqrt(expect), rel=1e-12)

    def test_representation_and_orthogonality(self, system):
        rng = np.random.default_rng(16)
        u = random_state(system, rng)
        sol = system.slope_solution(u)
        assert sol.representation == pytest.approx(sol.value, rel=1e-10)
        assert sol.orthogonality <= 1e-8 * max(sol.L_norm, 1e-30)

    def test_sampling_lower_bound(self, system):
        # slope >= (phi(u) - phi(u + d))^+ / D(u, u + d) - o(1) on small d
        rng = np.random.default_rng(17)
        u = random_state(system, rng)
        slope = system.local_slope(u)
        phi_u = system.energy(u)
        worst = 0.0
        for _ in range(1000):
            d = np.zeros_like(u)
            d[system.free] = 1e-4 * rng.standard_normal(int(system.free.sum()))
            drop = phi_u - system.energy(u + d)
            if drop > 0:
                worst = max(worst, drop / system.metric(u, u + d))
        assert slope >= worst - 1e-4 * max(worst, 1.0)


class TestWeakResidual:
    def test_critical_point_zero(self, system):
        z = system.zero_state()
        assert np.linalg.norm(system.weak_residual_vector(z, z, 0.1)) == 0.0

    def test_positive_after_perturbation(self, system):
        rng = np.random.default_rng(18)
        u = random_state(system, rng)
        v = u.copy()
        idx = np.flatnonzero(system.free)[7]
        v[idx] += 1e-3
        assert np.linalg.norm(system.weak_residual_vector(u, v, 0.1)) > 0.0

    def test_accepted_step_residual(self, system):
        from vkribbon.flow import SolverOptions, incremental_step

        rng = np.random.default_rng(19)
        u = random_state(system, rng)
        opts = SolverOptions(tol=1e-10)
        tau = 0.05
        v, rep = incremental_step(system, tau, u, opts)
        scale = 1.0 + abs(system.energy(u))
        assert np.linalg.norm(system.weak_residual_vector(u, v, tau)) <= 10.0 * opts.tol * scale

    def test_matches_incremental_gradient(self, system):
        rng = np.random.default_rng(20)
        u = random_state(system, rng)
        v = random_state(system, rng)
        tau = 0.03
        res = system.weak_residual_vector(u, v, tau)
        ref = system.grad_energy(v) + system.grad_halfsqdist(u, v) / tau
        assert np.array_equal(res, ref)

    def test_w_block_is_third_equation(self, mesh, mat_h1):
        # hand-check: the w-block pairs the third weak equation against the
        # deflection basis (difference quotients in the viscous channels)
        forces = RibbonForces.from_coeffs(f=(0.7,))
        s = RibbonSystem(mesh, mat_h1, forces=forces)
        rng = np.random.default_rng(21)
        prev = random_state(s, rng, amp=0.2)
        nxt = random_state(s, rng, amp=0.2)
        tau = 0.02
        res = s.weak_residual_vector(prev, nxt, tau)

        m = s.material
        a_n, _, kappa_n, t_n = point_channels(s, nxt).T
        a_p, _, kappa_p, t_p = point_channels(s, prev).T
        B0, B1, B2 = (s.h3.sample_matrix(s.quad, d) for d in range(3))
        wprime = B1 @ nxt[s.slices["w"]]
        # membrane stress with difference quotient + bending pair
        sigma = m.W0.C0 * a_n + m.R0.C0 * (a_n - a_p) / tau
        bend1 = (
            m.W1.C[0, 0] * kappa_n
            + m.W1.C[0, 1] * t_n
            + (m.R1.C[0, 0] * (kappa_n - kappa_p) + m.R1.C[0, 1] * (t_n - t_p)) / tau
        )
        wq = s.wq
        expect = (
            B1.T @ (wq * sigma * wprime)
            + B2.T @ (wq * bend1 / 12.0)
            - B0.T @ (wq * s.forces.f(s.quad.points))
        )
        got = res[s.slices["w"]]
        free_w = s.free[s.slices["w"]]
        scale = 1.0 + np.abs(expect).max()
        assert np.abs((got - expect)[free_w]).max() < 1e-12 * scale


class TestMutualShift:
    def test_recovers_target_when_base_matches(self, system):
        rng = np.random.default_rng(22)
        z = system.state(random_state(system, rng))
        u = system.state(random_state(system, rng))
        u_k = mutual_shift(z, z, u)
        assert np.abs(u_k.vector - u.vector).max() < 1e-14

    def test_metric_preserved_for_equal_w(self, system):
        rng = np.random.default_rng(23)
        z = system.state(random_state(system, rng))
        zk_vec = random_state(system, rng)
        zk_vec[system.slices["w"]] = z.w  # same deflection
        z_k = system.state(zk_vec)
        u = system.state(random_state(system, rng))
        u_k = mutual_shift(z_k, z, u)
        d1 = system.metric(z_k.vector, u_k.vector)
        d2 = system.metric(z.vector, u.vector)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_convergence_along_sequence(self, system):
        rng = np.random.default_rng(24)
        z = system.state(random_state(system, rng))
        u = system.state(random_state(system, rng))
        pert = np.zeros(system.n_dofs)
        pert[system.free] = rng.standard_normal(int(system.free.sum()))
        d_ref = system.metric(z.vector, u.vector)
        e_ref = system.energy(z.vector) - system.energy(u.vector)
        gaps_d, gaps_e = [], []
        for k in (1, 4, 16, 64):
            z_k = system.state(z.vector + pert / k)
            u_k = mutual_shift(z_k, z, u)
            gaps_d.append(abs(system.metric(z_k.vector, u_k.vector) - d_ref))
            gaps_e.append(
                abs(
                    (system.energy(z_k.vector) - system.energy(u_k.vector)) - e_ref
                )
            )
        assert all(a > b for a, b in zip(gaps_d, gaps_d[1:]))
        assert all(a > b for a, b in zip(gaps_e, gaps_e[1:]))
        assert gaps_d[-1] < 1e-2 * max(gaps_d[0], 1e-12)
        assert gaps_e[-1] < 1e-2 * max(gaps_e[0], 1e-12)


class TestSobolevBound:
    def test_metric_controls_bending_norms(self, system, capsys):
        # |w - w~|_{2,2} + |theta - theta~|_{1,2} <= C * D0; C calibrated, logged
        rng = np.random.default_rng(25)
        ratios = []
        for _ in range(30):
            u, v = random_state(system, rng), random_state(system, rng)
            d = system.metric(u, v)
            gap = sobolev_gap(system, u, v)
            if d > 1e-12:
                ratios.append(gap / d)
        C = max(ratios)
        assert np.isfinite(C)
        assert all(r <= C for r in ratios)
        print(f"calibrated Sobolev/metric constant C = {C:.4f}")


class TestAdmissibility:
    def test_check_admissible(self, mesh, mat_h1):
        bc = BoundaryData.from_coeffs(u1=(0.3,))
        s = RibbonSystem(mesh, mat_h1, bc)
        u = s.zero_state()
        s.check_admissible(u)
        u[0] += 1e-6
        with pytest.raises(ValueError):
            s.check_admissible(u)
