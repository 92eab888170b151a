"""Plate system: scaled energetics, projection, recovery construction."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from vkribbon.fem import BoundaryData, Hermite3Space, Mesh1D, Mesh2D, P1Space
from vkribbon.flow import SolverOptions, run_trajectory
from vkribbon.forms import MaterialPair
from vkribbon.plate import (
    BEND_FACTOR,
    PlateSystem,
    RecoveryInputs,
    _node_eval,
    _smoothstep_cutoff,
    build_recovery,
)
from vkribbon.ribbon import RibbonForces, RibbonSystem

from oracles import plate_energy_parts, scaled_operators_2d

BUMP = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
PARABOLA = Polynomial.fromroots([-0.5, 0.5])


@pytest.fixture
def mat_h1():
    return MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)


@pytest.fixture
def mesh2():
    return Mesh2D(l=1.0, nx=12, ny=4)


@pytest.fixture
def mesh1():
    return Mesh1D(l=1.0, n=12)


def random_plate_state(system, rng, amp=0.2):
    u = system.zero_state()
    u[system.free] += amp * rng.standard_normal(int(system.free.sum()))
    return u


class TestEnergy:
    def test_zero(self, mesh2, mat_h1):
        s = PlateSystem(mesh2, 0.25, mat_h1)
        assert s.energy(s.zero_state()) == 0.0

    def test_transverse_bending_term(self, mesh2, mat_h1):
        # w = x2^2/2 at eps = 1: hess channel (0, 0, 1) everywhere
        s = PlateSystem(mesh2, 1.0, mat_h1)
        u = np.zeros(s.n_dofs)
        u[s.slices["w"]] = s.bfs.interpolate(
            lambda x, y: 0.5 * y**2,
            lambda x, y: 0 * x,
            lambda x, y: y,
            lambda x, y: 0 * x,
        )
        parts = plate_energy_parts(s, u)
        assert parts["bending"] == pytest.approx(2.0 / 24.0, rel=1e-13)

    def test_h1_embedding_matches_ribbon_energy(self, mesh1, mesh2, mat_h1):
        # x2-independent states: the two code paths integrate the same density
        bc = BoundaryData.from_coeffs(u1=(0.0, 0.3), v=(0.1,))
        rs = RibbonSystem(mesh1, mat_h1, bc)
        v = rs.interpolate((0.0, 0.3), (0.0,), (0.1, 0.0, 0.8, -0.4), (0.0,))
        ps = PlateSystem(mesh2, 0.25, mat_h1, bc)
        u = build_recovery(ps, RecoveryInputs(target=rs.state(v)))
        assert ps.energy(u) == pytest.approx(rs.energy(v), rel=1e-10)

    def test_h1_random_x2_independent_states(self, mesh1, mesh2, mat_h1):
        rng = np.random.default_rng(30)
        rs = RibbonSystem(mesh1, mat_h1)
        ps = PlateSystem(mesh2, 0.4, mat_h1)
        for _ in range(5):
            v = rs.zero_state()
            # xi1 and w only: exact Bernoulli-Navier embedding in Q1/BFS
            v[rs.slices["xi1"]][1:-1] = 0.3 * rng.standard_normal(rs.p1.n_dofs - 2)
            wfree = rng.standard_normal(rs.h3.n_dofs) * 0.2
            wfree[[0, 1, -2, -1]] = 0.0
            v[rs.slices["w"]] = wfree
            u = build_recovery(ps, RecoveryInputs(target=rs.state(v)))
            assert ps.energy(u) == pytest.approx(rs.energy(v), rel=1e-10)

    def test_force_scaling(self, mesh1, mesh2, mat_h1):
        # g2 enters the scaled functional as eps * g2 on y2 / eps: identical
        # integrand at every width by construction
        forces = RibbonForces.from_coeffs(f=(0.3,), g1=(0.1,), g2=(0.7,))
        for eps in (0.5, 0.1):
            ps = PlateSystem(mesh2, eps, mat_h1, forces=forces)
            u = np.zeros(ps.n_dofs)
            u[ps.slices["y2"]] = ps.q1.interpolate(lambda x, y: 1.0 + 0 * x)
            # energy force part: int g2 * y2 = 0.7 * |S|
            assert plate_energy_parts(ps, u)["force"] == pytest.approx(0.7, rel=1e-13)


class TestMetric:
    def test_diagonal(self, mesh2, mat_h1):
        s = PlateSystem(mesh2, 0.3, mat_h1)
        rng = np.random.default_rng(31)
        u = random_plate_state(s, rng)
        assert s.metric(u, u) == 0.0
        v = random_plate_state(s, rng)
        assert s.metric(u, v) == s.metric(v, u)

    def test_constant_hessian_difference(self, mesh2, mat_h1):
        # w_A = -w_B = x1^2/4: hessian difference (1, 0, 0) with the membrane
        # contributions cancelling between the two states
        s = PlateSystem(mesh2, 0.5, mat_h1)
        wq = s.bfs.interpolate(
            lambda x, y: 0.25 * x**2,
            lambda x, y: 0.5 * x,
            lambda x, y: 0 * x,
            lambda x, y: 0 * x,
        )
        ua = np.zeros(s.n_dofs)
        ub = np.zeros(s.n_dofs)
        ua[s.slices["w"]] = wq
        ub[s.slices["w"]] = -wq
        # D^2 = (1/12) * Q2_R(1,0,0) * |S| = (1/12) * 2
        assert s.sqdist(ua, ub) == pytest.approx(2.0 / 12.0, rel=1e-13)

    def test_h2_family_metric(self, mesh2):
        mat = MaterialPair.isotropic(1.0, 1.0, 1.0, 1.0, h2_family=True)
        s = PlateSystem(mesh2, 0.25, mat)
        assert s.CR[2, 2] == pytest.approx(0.25)
        assert np.allclose(s.CR[:2, :2], mat.R1.C)


class TestGradients:
    def test_fd_energy_and_metric(self, mesh2):
        mat = MaterialPair.isotropic(1.2, 0.5, 0.8, 0.3)
        forces = RibbonForces.from_coeffs(f=(0.2, 0.5), g1=(0.1,), g2=(0.3,))
        s = PlateSystem(mesh2, 0.25, mat, forces=forces)
        rng = np.random.default_rng(32)
        h = 1e-5
        anchor = random_plate_state(s, rng)
        for _ in range(4):
            u = random_plate_state(s, rng)
            d = np.zeros_like(u)
            d[s.free] = rng.standard_normal(int(s.free.sum()))
            d /= np.linalg.norm(d)
            g = s.grad_energy(u)
            fd = (s.energy(u + h * d) - s.energy(u - h * d)) / (2 * h)
            assert abs(fd - g @ d) <= 1e-6 * max(abs(fd), 1e-8)
            gm = s.grad_halfsqdist(anchor, u)
            fdm = (s.sqdist(anchor, u + h * d) - s.sqdist(anchor, u - h * d)) / (4 * h)
            assert abs(fdm - gm @ d) <= 1e-6 * max(abs(fdm), 1e-8)

    def test_gradient_zero_at_anchor(self, mesh2, mat_h1):
        s = PlateSystem(mesh2, 0.25, mat_h1)
        rng = np.random.default_rng(33)
        u = random_plate_state(s, rng)
        assert np.abs(s.grad_halfsqdist(u, u)).max() == 0.0

    def test_bending_only_critical_point(self, mesh2, mat_h1):
        # zero state with zero data: w-block gradient vanishes
        s = PlateSystem(mesh2, 0.25, mat_h1)
        g = s.grad_energy(s.zero_state())
        assert np.abs(g).max() == 0.0

    def test_hessian_action_fd(self, mesh2, mat_h1):
        s = PlateSystem(mesh2, 0.3, mat_h1)
        rng = np.random.default_rng(34)
        u = random_plate_state(s, rng)
        anchor = random_plate_state(s, rng)
        d = np.zeros_like(u)
        d[s.free] = rng.standard_normal(int(s.free.sum()))
        h = 1e-6
        for hess, grad in (
            (s.hess_energy(u), s.grad_energy),
            (s.hess_halfsqdist(anchor, u), lambda v: s.grad_halfsqdist(anchor, v)),
        ):
            fd = (grad(u + h * d) - grad(u - h * d)) / (2 * h)
            hv = hess @ d
            assert (
                np.linalg.norm((hv - fd)[s.free])
                <= 2e-6 * np.linalg.norm(hv[s.free]) + 1e-10
            )


class TestWeakResidual:
    def test_equilibrium(self, mesh2, mat_h1):
        s = PlateSystem(mesh2, 0.25, mat_h1)
        z = s.zero_state()
        assert np.linalg.norm(s.weak_residual_vector(z, z, 0.1)) == 0.0

    def test_accepted_step(self, mesh2, mat_h1):
        from vkribbon.flow import SolverOptions, incremental_step

        s = PlateSystem(mesh2, 0.25, mat_h1)
        rng = np.random.default_rng(35)
        u = random_plate_state(s, rng, amp=0.1)
        opts = SolverOptions(tol=1e-9)
        v, rep = incremental_step(s, 0.05, u, opts)
        scale = 1.0 + abs(s.energy(u))
        assert np.linalg.norm(s.weak_residual_vector(u, v, 0.05)) <= 10.0 * opts.tol * scale
        ref = s.grad_energy(v) + s.grad_halfsqdist(u, v) / 0.05
        assert np.array_equal(s.weak_residual_vector(u, v, 0.05), ref)

    def test_perturbed_positive(self, mesh2, mat_h1):
        s = PlateSystem(mesh2, 0.25, mat_h1)
        rng = np.random.default_rng(36)
        u = random_plate_state(s, rng)
        v = u.copy()
        v[np.flatnonzero(s.free)[11]] += 1e-3
        assert np.linalg.norm(s.weak_residual_vector(u, v, 0.1)) > 0.0


class TestProjection:
    def test_twist_layer_projects_exactly(self, mesh2, mat_h1):
        eps = 0.25
        th = Polynomial((0.0, 1.0, 2.0))
        s = PlateSystem(mesh2, eps, mat_h1)
        u = np.zeros(s.n_dofs)
        u[s.slices["w"]] = s.bfs.interpolate(
            lambda x, y: eps * y * th(x),
            lambda x, y: eps * y * th.deriv()(x),
            lambda x, y: eps * th(x),
            lambda x, y: eps * th.deriv()(x),
        )
        theta_bar = s.quad.x2_average(s.rows(u)[:, 4])
        assert np.abs(theta_bar - th(s.quad.x_stations())).max() < 1e-13

    def test_x2_independent_w_zero_twist(self, mesh2, mat_h1):
        s = PlateSystem(mesh2, 0.25, mat_h1)
        u = np.zeros(s.n_dofs)
        u[s.slices["w"]] = s.bfs.interpolate(
            lambda x, y: x**2, lambda x, y: 2 * x, lambda x, y: 0 * x, lambda x, y: 0 * x
        )
        assert np.abs(s.quad.x2_average(s.rows(u)[:, 4])).max() < 1e-14

    def test_d0_consistent_with_ribbon_metric(self, mesh1, mesh2, mat_h1):
        # embedded (xi1, w)-states: projected distance equals the 1D metric
        rs = RibbonSystem(mesh1, mat_h1)
        ps = PlateSystem(mesh2, 0.25, mat_h1)
        rng = np.random.default_rng(37)
        va = rs.zero_state()
        va[rs.slices["xi1"]][1:-1] = 0.2 * rng.standard_normal(rs.p1.n_dofs - 2)
        wfree = 0.3 * rng.standard_normal(rs.h3.n_dofs)
        wfree[[0, 1, -2, -1]] = 0.0
        va[rs.slices["w"]] = wfree
        vb = rs.interpolate((0.0,), (0.0,), 0.5 * BUMP, (0.0,))
        ua = build_recovery(ps, RecoveryInputs(target=rs.state(va)))
        d_proj = ps.d0_projected(ua, rs, vb)
        d_1d = rs.metric(va, vb)
        assert d_proj == pytest.approx(d_1d, rel=1e-10)


class TestRecovery:
    def test_zero_target(self, mesh1, mesh2, mat_h1):
        rs = RibbonSystem(mesh1, mat_h1)
        ps = PlateSystem(mesh2, 0.2, mat_h1)
        u = build_recovery(ps, RecoveryInputs(target=rs.state(rs.zero_state())))
        assert np.abs(u).max() == 0.0

    def test_trace_invariant(self, mesh1, mesh2):
        mat = MaterialPair.isotropic(1.0, 0.7, 1.0, 0.4, h2_family=True)
        bc = BoundaryData.from_coeffs(u1=(0.1,), u2=(0.0, 0.2), v=(0.05, -0.1))
        rs = RibbonSystem(mesh1, mat, bc)
        ps = PlateSystem(mesh2, 0.15, mat, bc)
        v = rs.interpolate((0.1,), (0.0, 0.2), (0.05, -0.1), 2.0 * BUMP)
        u = build_recovery(ps, RecoveryInputs(target=rs.state(v)))
        gap = np.abs(u[ps.bc_mask] - ps.bc_values[ps.bc_mask])
        assert gap.max() <= 1e-12

    def test_rejects_inadmissible_target(self, mesh1, mesh2, mat_h1):
        bc = BoundaryData.from_coeffs(u1=(0.3,))
        rs_plain = RibbonSystem(mesh1, mat_h1)  # zero boundary data
        ps = PlateSystem(mesh2, 0.2, mat_h1, bc)
        target = rs_plain.state(rs_plain.zero_state())
        with pytest.raises(ValueError):
            build_recovery(ps, RecoveryInputs(target=target))

    def test_one_inputs_serves_every_width_and_mesh(self):
        material, bc = STATION_MATERIALS["iso"], STATION_BCS["bc"]
        rs = RibbonSystem(Mesh1D(l=1.0, n=16), material, bc)
        v = rs.interpolate(0.5 * PARABOLA, 0.3 * BUMP, 2.0 * BUMP, 4.0 * BUMP)
        shared = RecoveryInputs(target=rs.state(v))
        for nx in (12, 20, 12):
            for eps in (0.2, 0.1, 0.05):
                ps = PlateSystem(Mesh2D(l=1.0, nx=nx, ny=4), eps, material, bc)
                fresh = build_recovery(ps, RecoveryInputs(target=rs.state(v)))
                assert np.array_equal(build_recovery(ps, shared), fresh)
        # the kept samples follow the target's values and the boundary data
        shared.target.theta[1:-1] += 0.1
        fresh = build_recovery(ps, RecoveryInputs(target=rs.state(shared.target.vector)))
        assert np.array_equal(build_recovery(ps, shared), fresh)
        with pytest.raises(ValueError):
            build_recovery(PlateSystem(ps.mesh, 0.05, material), shared)

    def test_twist_only_second_order(self, mat_h1):
        n = 96
        rs = RibbonSystem(Mesh1D(l=1.0, n=n), mat_h1)
        v = rs.interpolate((0.0,), (0.0,), (0.0,), 4.0 * BUMP)
        phi0 = rs.energy(v)
        errs = []
        eps_list = (0.2, 0.1, 0.05)
        for eps in eps_list:
            ps = PlateSystem(Mesh2D(l=1.0, nx=n, ny=4), eps, mat_h1)
            u = build_recovery(ps, RecoveryInputs(target=rs.state(v)))
            errs.append(abs(ps.energy(u) - phi0))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.8)

    def test_h2_energy_converges(self):
        # vanishing transverse dissipation with nonzero argmin maps
        mat = MaterialPair.isotropic(1.0, 1.0, 1.0, 1.0, h2_family=True)
        assert mat.hypothesis == "H2"
        n = 96
        rs = RibbonSystem(Mesh1D(l=1.0, n=n), mat)
        v = rs.interpolate(
            0.4 * Polynomial.fromroots([-0.5, 0.5]), 0.2 * BUMP, 1.5 * BUMP, 2.0 * BUMP
        )
        phi0 = rs.energy(v)
        errs = []
        for eps in (0.2, 0.1, 0.05):
            ps = PlateSystem(Mesh2D(l=1.0, nx=n, ny=8), eps, mat)
            u = build_recovery(ps, RecoveryInputs(target=rs.state(v)))
            errs.append(abs(ps.energy(u) - phi0))
        assert errs[1] < errs[0] and errs[2] < errs[1]


# ---------------------------------------------------------------------------
# per-point oracles: the ribbon fields evaluated afresh at every 2D point,
# the reference that the once-per-x1-station evaluation must match bit for bit


def pointwise_recovery(system, inputs):
    target, eps, mesh1 = inputs.target, system.eps, inputs.target.mesh
    p1, h3 = P1Space(mesh1), Hermite3Space(mesh1)
    k_alpha = system.material.W1.argmin_coeff
    delta = min(inputs.cutoff_width * eps, 0.45 * mesh1.l)

    def fields(x1, x2):
        chi, dchi = _smoothstep_cutoff(x1, mesh1.l, delta)
        th = p1.evaluate(target.theta, x1, 0)
        dth = _node_eval(p1, target.theta, x1, 1)
        dw = h3.evaluate(target.w, x1, 1)
        ddw = _node_eval(h3, target.w, x1, 2)
        gam = k_alpha[0] * ddw + k_alpha[1] * dth
        dgam = k_alpha[0] * _node_eval(h3, target.w, x1, 3)
        za = k_alpha[0] * (_node_eval(p1, target.xi1, x1, 1) + 0.5 * dw**2)
        zb = -k_alpha[0] * _node_eval(h3, target.xi2, x1, 2)
        return {
            "theta": th * chi,
            "dtheta": dth * chi + th * dchi,
            "w": h3.evaluate(target.w, x1, 0),
            "dw": dw,
            "xi1": p1.evaluate(target.xi1, x1, 0),
            "xi2": h3.evaluate(target.xi2, x1, 0),
            "dxi2": h3.evaluate(target.xi2, x1, 1),
            "gam": gam * chi,
            "dgam": dgam * chi + gam * dchi,
            "za": za * chi,
            "zb": zb * chi,
        }

    def w_data(x1, x2):
        f = fields(x1, x2)
        quad = 0.5 * (x2 + 0.5) ** 2
        return (
            f["w"] + eps * x2 * f["theta"] + eps**2 * f["gam"] * quad,
            f["dw"] + eps * x2 * f["dtheta"] + eps**2 * f["dgam"] * quad,
            eps * f["theta"] + eps**2 * f["gam"] * (x2 + 0.5),
            eps * f["dtheta"] + eps**2 * f["dgam"] * (x2 + 0.5),
        )

    def y1_fn(x1, x2):
        f = fields(x1, x2)
        return f["xi1"] - x2 * f["dxi2"] - eps * x2 * f["dw"] * f["theta"]

    def y2_fn(x1, x2):
        f = fields(x1, x2)
        zint = f["za"] * (x2 + 0.5) + 0.5 * f["zb"] * (x2**2 - 0.25)
        return f["xi2"] - 0.5 * eps**2 * x2 * f["theta"] ** 2 + eps**2 * zint

    w_fns = [lambda x, y, k=k: w_data(x, y)[k] for k in range(4)]
    return system.interpolate(y1_fn, y2_fn, w_fns)


def pointwise_d0(system, u, ribbon, v):
    mu, _, h = system.channels(u)
    q, m = system.quad, system.material
    xi1, xi2, wv, th = ribbon.split(v)
    pa_1d = (
        ribbon.p1.evaluate(xi1, q.x, 1)
        + 0.5 * ribbon.h3.evaluate(wv, q.x, 1) ** 2
        - q.y * ribbon.h3.evaluate(xi2, q.x, 2)
    )
    da = mu[:, 0] - pa_1d
    dk = h[:, 0] - ribbon.h3.evaluate(wv, q.x, 2)
    dt = q.spread(q.x2_average(h[:, 1])) - ribbon.p1.evaluate(th, q.x, 1)
    Q1 = m.R1.C
    dens = m.R0.C0 * da**2 + BEND_FACTOR * (
        Q1[0, 0] * dk**2 + 2.0 * Q1[0, 1] * dk * dt + Q1[1, 1] * dt**2
    )
    return float(np.sqrt(max(np.dot(system.wq, dens), 0.0)))


STATION_MATERIALS = {
    "H1": MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0),
    "iso": MaterialPair.isotropic(1.2, 0.5, 0.8, 0.3),
    "h2": MaterialPair.isotropic(1.0, 0.7, 1.0, 0.4, h2_family=True),
}
STATION_BCS = {
    "zero": BoundaryData.zero(),
    "bc": BoundaryData.from_coeffs(u1=(0, -0.1), u2=(0, 0.05), v=(0.01, 0.02)),
}


class TestPerStationEvaluation:
    """Fields of x1 alone evaluated once per x1-station give the per-point
    results bit for bit."""

    @pytest.mark.parametrize("eps", [0.2, 0.05])
    @pytest.mark.parametrize("n1d, nx, ny", [(48, 48, 8), (32, 64, 4), (40, 24, 4)])
    @pytest.mark.parametrize("bc", STATION_BCS)
    @pytest.mark.parametrize("mat", STATION_MATERIALS)
    def test_recovery_and_d0_match_pointwise(self, mat, bc, n1d, nx, ny, eps):
        material, data = STATION_MATERIALS[mat], STATION_BCS[bc]
        rs = RibbonSystem(Mesh1D(l=1.0, n=n1d), material, data)
        ps = PlateSystem(Mesh2D(l=1.0, nx=nx, ny=ny), eps, material, data)
        v = rs.interpolate(0.5 * PARABOLA, 0.3 * BUMP, 2.0 * BUMP, 4.0 * BUMP)
        inputs = RecoveryInputs(target=rs.state(v))
        u = build_recovery(ps, inputs)
        reference = pointwise_recovery(ps, inputs)
        reference[ps.bc_mask] = ps.bc_values[ps.bc_mask]
        assert np.array_equal(u, reference)
        # a state off the recovery and a ribbon state off the target
        w = u + 0.01 * np.sin(np.arange(u.size)) * ps.free
        vb = rs.interpolate(0.2 * PARABOLA, 0.1 * BUMP, BUMP, 3.0 * BUMP)
        for plate_u, ribbon_v in ((u, v), (w, v), (w, vb)):
            assert ps.d0_projected(plate_u, rs, ribbon_v) == pointwise_d0(ps, plate_u, rs, ribbon_v)

    def test_argmin_correctors_are_exercised(self):
        assert not np.any(STATION_MATERIALS["H1"].W1.argmin_coeff)
        assert np.any(STATION_MATERIALS["iso"].W1.argmin_coeff)
        assert np.any(STATION_MATERIALS["h2"].W1.argmin_coeff)

    def test_load_vector_matches_pointwise(self, mesh2):
        forces = RibbonForces.from_coeffs(f=(0.2, 0.5, -0.3), g1=(0.1, 0.4), g2=(0.3,))
        s = PlateSystem(mesh2, 0.1, STATION_MATERIALS["iso"], forces=forces)
        q, reference = s.quad, np.zeros(s.n_dofs)
        loads = (("w", s.bfs, forces.f), ("y1", s.q1, forces.g1), ("y2", s.q1, forces.g2))
        for name, space, load in loads:
            reference[s.slices[name]] = space.sample_matrix(q, 0, 0).T @ (s.wq * load(q.x))
        assert np.array_equal(s._force, reference)


class TestMeshOwnedTables:
    """Plates on one mesh share its eps-independent tables; sharing must
    change no number, and a shared table must refuse writes."""

    FORCES = RibbonForces.from_coeffs(f=(0.2, 0.5), g1=(0.1,), g2=(0.0, 0.3))

    def outputs(self, system, inputs):
        dofs, rows, coupling = system._element_rows()
        u = build_recovery(system, inputs)
        traj = run_trajectory(system, u, 0.02, 0.06, SolverOptions(tol=1e-8))
        return [dofs, rows, coupling, u, system.energy(u), system._force, *traj.states]

    def test_sharing_changes_no_number(self, mesh1, mat_h1):
        ribbon = RibbonSystem(mesh1, mat_h1)
        v = ribbon.interpolate((0.0,), (0.0,), 0.5 * BUMP, 2.0 * BUMP)
        shared = Mesh2D(l=1.0, nx=12, ny=4)
        for eps in (0.2, 0.05):
            got = self.outputs(
                PlateSystem(shared, eps, mat_h1, forces=self.FORCES),
                RecoveryInputs(ribbon.state(v)),
            )
            alone = self.outputs(
                PlateSystem(Mesh2D(l=1.0, nx=12, ny=4), eps, mat_h1, forces=self.FORCES),
                RecoveryInputs(ribbon.state(v)),
            )
            assert len(got) == len(alone) > 7
            for a, b in zip(got, alone):
                assert np.array_equal(a, b)
        assert PlateSystem(shared, 0.1, mat_h1).quad is shared.quadrature

    def test_shared_tables_refuse_writes(self, mesh2, mat_h1):
        s = PlateSystem(mesh2, 0.1, mat_h1)
        s.energy(s.zero_state())
        q = mesh2.quadrature
        owned = [
            mesh2.x_nodes, mesh2.y_nodes, *mesh2.node_coords, mesh2.element_dofs,
            *mesh2.reference_bases, q.weights, q.wy_station, q.channel_weights,
            q.ref_x, q.ref_y, q.element_x, q.element_y, q.x, q.y, s.wq, Mesh1D(n=4).nodes,
        ]
        for a in owned:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


class TestOperatorPaths:
    def test_channels_match_standalone_scaled_operators(self, mesh2, mat_h1):
        s = PlateSystem(mesh2, 0.3, mat_h1)
        rng = np.random.default_rng(44)
        u = random_plate_state(s, rng, amp=0.25)
        y1, y2, w = s.split(u)
        pts = np.stack([s.quad.x, s.quad.y], axis=-1)
        ops = scaled_operators_2d(mesh2, s.eps, {"y1": y1, "y2": y2, "w": w}, pts)
        _, g, h = s.channels(u)
        B10, B01 = s.q1.sample_matrix(s.quad, 1, 0), s.q1.sample_matrix(s.quad, 0, 1)
        E_sys = np.stack(
            [B10 @ y1, ((B01 @ y1) + (B10 @ y2)) / (2 * s.eps), (B01 @ y2) / s.eps**2],
            axis=-1,
        )
        assert np.abs(ops["E"] - E_sys).max() < 1e-12
        assert np.abs(ops["grad_w"] - g).max() < 1e-12
        assert np.abs(ops["hess_w"] - h).max() < 1e-11

    def test_hessians_symmetric(self, mesh2, mat_h1):
        s = PlateSystem(mesh2, 0.3, mat_h1)
        rng = np.random.default_rng(45)
        u = random_plate_state(s, rng)
        for H in (s.hess_energy(u), s.hess_halfsqdist(s.zero_state(), u)):
            gap = np.abs((H - H.T).toarray()).max()
            assert gap <= 1e-11 * max(np.abs(H.toarray()).max(), 1.0)


class TestSemicontinuitySanity:
    def test_metric_continuity_along_shifts(self, mesh2, mat_h1):
        s = PlateSystem(mesh2, 0.25, mat_h1)
        rng = np.random.default_rng(38)
        u = random_plate_state(s, rng)
        other = random_plate_state(s, rng)
        pert = np.zeros(s.n_dofs)
        pert[s.free] = rng.standard_normal(int(s.free.sum()))
        d_ref = s.metric(u, other)
        gaps = [abs(s.metric(u + pert / k, other) - d_ref) for k in (1, 4, 16, 64)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2 * gaps[0]


class TestConditioning:
    def test_incremental_hessian_ratio_logged(self, mesh2, mat_h1, capsys):
        # reported only: the stiffness ratio of the incremental Hessian grows
        # as the width shrinks
        tau = 0.02
        ratios = {}
        for eps in (0.4, 0.1):
            s = PlateSystem(mesh2, eps, mat_h1)
            u = s.zero_state()
            H = (s.hess_energy(u) + s.hess_halfsqdist(u, u) / tau).toarray()
            Hff = H[np.ix_(s.free, s.free)]
            eigs = np.linalg.eigvalsh(Hff)
            ratios[eps] = eigs[-1] / max(eigs[0], 1e-300)
        print(f"incremental Hessian extreme-eigenvalue ratios: {ratios}")
        assert ratios[0.1] > ratios[0.4]
