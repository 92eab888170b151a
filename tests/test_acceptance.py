"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them all);
tolerances are pinned here, not configured elsewhere.  The 2D sweeps use
solver tolerance 1e-8: the incremental Hessian carries 1/eps^4-scaled
blocks whose attainable gradient accuracy in double precision sits above
the 1e-10 default used everywhere else.
"""

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.optimize import minimize_scalar

import vkribbon as vk
from vkribbon.flow import SolverOptions, dissipation_ledger, incremental_step, run_trajectory
from vkribbon.plate import RecoveryInputs, build_recovery
from vkribbon.studies import fit_order, gamma_check, geodesic_convexity_check

BUMP = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
H1 = vk.MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)

_trajectory_registry = []


def _register(system, traj):
    _trajectory_registry.append((system, traj))
    return traj


def ok(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


# ---------------------------------------------------------------------------


def test_criterion_01_reduction_constants():
    """Reduction chain against a nested numeric minimization oracle."""
    q2 = vk.make_isotropic(1.0, 1.0)
    c0 = vk.reduce_to_0(vk.reduce_to_1(q2)).C0
    assert c0 == pytest.approx(8.0 / 3.0, rel=1e-13)

    def inner(q11):
        def over_alpha(z):
            res = minimize_scalar(
                lambda a: float(q2(q11, z, a)), bounds=(-20, 20), method="bounded",
                options={"xatol": 1e-12},
            )
            return res.fun

        res = minimize_scalar(over_alpha, bounds=(-20, 20), method="bounded",
                              options={"xatol": 1e-12})
        return res.fun

    oracle = inner(1.0)
    assert abs(c0 - oracle) <= 1e-10

    c0_h1 = vk.reduce_to_0(vk.reduce_to_1(vk.make_isotropic(1.0, 0.0))).C0
    assert c0_h1 == 2.0
    ok(1, f"C0(mu=1,lam=1) = {c0:.12f} vs oracle {oracle:.12f}; C0(mu=1,lam=0) = 2 exactly")


@pytest.fixture(scope="module")
def decay_run():
    mesh = vk.Mesh1D(l=1.0, n=32)
    system = vk.RibbonSystem(mesh, H1)
    u0 = system.interpolate((0.0,), tuple(BUMP.coef), (0.0,), (0.0,))
    traj = _register(system, run_trajectory(system, u0, 0.01, 1.0))
    return system, traj


def test_criterion_02_linear_decoupled_decay(decay_run):
    system, traj = decay_run
    tau, rho = 0.01, 1.0 / 1.01
    # dense oracle for the first step: textbook Euler-Bernoulli stiffness
    from test_flow import hermite_beam_stiffness

    K = hermite_beam_stiffness(32, 1.0)
    free = system.free[system.slices["xi2"]]
    Kff = K[np.ix_(free, free)]
    prev = traj.states[0][system.slices["xi2"]][free]
    dense = np.linalg.solve((1.0 + 1.0 / tau) * Kff, (1.0 / tau) * (Kff @ prev))
    got = traj.states[1][system.slices["xi2"]][free]
    assert np.abs(got - dense).max() <= 1e-9

    for n in range(1, traj.n_steps + 1):
        gap = np.linalg.norm(traj.states[n] - rho * traj.states[n - 1])
        assert gap <= 1e-9 * max(np.linalg.norm(traj.states[n - 1]), 1e-30)

    final = traj.states[-1][system.slices["xi2"]]
    exact = np.exp(-1.0) * traj.states[0][system.slices["xi2"]]
    rel = np.linalg.norm(final - exact) / np.linalg.norm(exact)
    assert rel <= 0.006
    ok(2, f"per-step factor (1+tau)^-1 within 1e-9; final vs e^-1 xi2_0: {rel:.4%}")


def test_criterion_03_gradient_consistency():
    rng = np.random.default_rng(2024)
    h = 1e-5
    worst = 0.0

    mesh1 = vk.Mesh1D(l=1.0, n=12)
    mat = vk.MaterialPair.isotropic(1.2, 0.5, 0.9, 0.3)
    forces = vk.RibbonForces.from_coeffs(f=(0.4, 0.8), g1=(0.2,), g2=(0.1,))
    rsys = vk.RibbonSystem(mesh1, mat, forces=forces)
    psys = vk.PlateSystem(vk.Mesh2D(l=1.0, nx=12, ny=4), 0.25, mat, forces=forces)

    def check(value, grad, system, n_states, amp):
        nonlocal worst
        anchorable = []
        for _ in range(n_states):
            u = system.zero_state()
            u[system.free] += amp * rng.standard_normal(int(system.free.sum()))
            anchorable.append(u)
        for u in anchorable:
            g = grad(u)
            d = np.zeros_like(u)
            d[system.free] = rng.standard_normal(int(system.free.sum()))
            d /= np.linalg.norm(d)
            fd = (value(u + h * d) - value(u - h * d)) / (2 * h)
            err = abs(fd - g @ d) / max(abs(fd), 1e-10)
            worst = max(worst, err)
            assert err <= 1e-6

    anchor_r = rsys.zero_state()
    anchor_r[rsys.free] += 0.25 * rng.standard_normal(int(rsys.free.sum()))
    anchor_p = psys.zero_state()
    anchor_p[psys.free] += 0.2 * rng.standard_normal(int(psys.free.sum()))

    check(rsys.energy, rsys.grad_energy, rsys, 20, 0.3)
    check(
        lambda u: 0.5 * rsys.sqdist(anchor_r, u),
        lambda u: rsys.grad_halfsqdist(anchor_r, u),
        rsys,
        20,
        0.3,
    )
    check(psys.energy, psys.grad_energy, psys, 20, 0.2)
    check(
        lambda u: 0.5 * psys.sqdist(anchor_p, u),
        lambda u: psys.grad_halfsqdist(anchor_p, u),
        psys,
        20,
        0.2,
    )
    ok(3, f"energy/metric gradients vs central differences: worst rel err {worst:.2e}")


@pytest.fixture(scope="module")
def degiorgi_runs():
    mesh = vk.Mesh1D(l=1.0, n=24)
    forces = vk.RibbonForces.from_coeffs(f=(1.0, 0.5))
    system = vk.RibbonSystem(mesh, H1, forces=forces)
    u0 = system.interpolate(
        tuple((0.3 * Polynomial.fromroots([-0.5, 0.5])).coef),
        (0.0,),
        tuple((1.2 * BUMP).coef),
        (0.0,),
    )
    runs = {}
    for tau in (0.08, 0.04, 0.02, 0.01, 0.005):
        runs[tau] = _register(system, run_trajectory(system, u0, tau, 0.8))
    return system, runs


def test_criterion_05_degiorgi_refinement(degiorgi_runs):
    system, runs = degiorgi_runs
    residuals = {
        tau: dissipation_ledger(system, traj, system.local_slope).residual
        for tau, traj in runs.items()
    }
    ratios = []
    for tau in (0.08, 0.04, 0.02, 0.01):
        r = abs(residuals[tau / 2]) / abs(residuals[tau])
        ratios.append(r)
        assert r <= 0.7
    ok(5, f"|R(tau/2)|/|R(tau)| = {[f'{r:.3f}' for r in ratios]} (all <= 0.7)")


def test_criterion_06_kkt_weak_form_equivalence():
    rng = np.random.default_rng(7)
    tau = 0.05
    checked = []
    for system, tol in (
        (vk.RibbonSystem(vk.Mesh1D(l=1.0, n=16), H1), 1e-10),
        (vk.PlateSystem(vk.Mesh2D(l=1.0, nx=10, ny=4), 0.25, H1), 1e-8),
    ):
        u = system.zero_state()
        u[system.free] += 0.2 * rng.standard_normal(int(system.free.sum()))
        opts = SolverOptions(tol=tol)
        v, rep = incremental_step(system, tau, u, opts)
        scale = 1.0 + abs(system.energy(u))
        res_vec = system.weak_residual_vector(u, v, tau)
        ref = system.grad_energy(v) + system.grad_halfsqdist(u, v) / tau
        assert np.array_equal(res_vec, ref)
        res = float(np.linalg.norm(res_vec[system.free]))
        assert res <= 10.0 * opts.tol * scale
        checked.append(res)
    ok(6, f"weak residuals at accepted steps: 1d {checked[0]:.2e}, 2d {checked[1]:.2e}; "
          "residual vector identical to incremental gradient")


def test_criterion_07_slope_machinery():
    rng = np.random.default_rng(11)
    system = vk.RibbonSystem(vk.Mesh1D(l=1.0, n=24), vk.MaterialPair.isotropic(1.1, 0.4, 0.8, 0.2))
    worst_rep, worst_orth = 0.0, 0.0
    for _ in range(10):
        u = system.zero_state()
        u[system.free] += 0.3 * rng.standard_normal(int(system.free.sum()))
        sol = system.local_slope(u, detailed=True)
        worst_rep = max(worst_rep, abs(sol.representation - sol.value) / max(sol.value, 1e-30))
        worst_orth = max(worst_orth, sol.orthogonality / max(sol.L_norm, 1e-30))
        assert abs(sol.representation - sol.value) <= 1e-10 * max(sol.value, 1e-30)
        assert sol.orthogonality <= 1e-8 * max(sol.L_norm, 1e-30)

    decay = vk.RibbonSystem(vk.Mesh1D(l=1.0, n=24), H1)
    u0 = decay.interpolate((0.0,), tuple(BUMP.coef), (0.0,), (0.0,))
    tau = 0.005
    traj = _register(decay, run_trajectory(decay, u0, tau, 0.1))
    for n in range(1, traj.n_steps + 1):
        ratio = decay.local_slope(traj.states[n]) ** 2 / (traj.reports[n].dist / tau) ** 2
        assert abs(ratio - 1.0) <= 0.02
    ok(7, f"representation gap {worst_rep:.2e}, orthogonality {worst_orth:.2e}, "
          "linear slope/rate ratio within 2%")


def test_criterion_08_gamma_limsup():
    n = 256
    eps_list = [0.2, 0.1, 0.05, 0.025]
    targets = {
        "generic": (
            tuple((0.5 * Polynomial.fromroots([-0.5, 0.5])).coef),
            tuple((0.2 * BUMP).coef),
            tuple((2.0 * BUMP).coef),
            tuple((6.0 * BUMP).coef),
        ),
        "twist_only": ((0.0,), (0.0,), (0.0,), tuple((4.0 * BUMP).coef)),
    }
    rep = gamma_check(
        H1, targets, eps_list, vk.Mesh1D(l=1.0, n=n), vk.Mesh2D(l=1.0, nx=n, ny=4)
    )
    for name, min_order in (("generic", 1.0), ("twist_only", 1.8)):
        errs = [r[4] for r in rep.rows if r[0] == name]
        assert all(a > b for a, b in zip(errs, errs[1:])), f"{name}: not decreasing"
        assert rep.summary["orders"][name] >= min_order
    ok(8, f"recovery-energy orders: generic {rep.summary['orders']['generic']:.2f} (>= 1), "
          f"twist-only {rep.summary['orders']['twist_only']:.2f} (>= 1.8)")


@pytest.fixture(scope="module")
def reduction_runs():
    n, ny = 48, 8
    tau, T = 0.02, 1.0
    mesh1 = vk.Mesh1D(l=1.0, n=n)
    ribbon = vk.RibbonSystem(mesh1, H1)
    u0 = ribbon.interpolate(
        tuple((0.5 * Polynomial.fromroots([-0.5, 0.5])).coef),
        tuple((0.3 * BUMP).coef),
        tuple((2.0 * BUMP).coef),
        tuple((4.0 * BUMP).coef),
    )
    traj1 = _register(ribbon, run_trajectory(ribbon, u0, tau, T))
    plates, trajs = {}, {}
    opts = SolverOptions(tol=1e-8)
    for eps in (0.2, 0.1, 0.05):
        plate = vk.PlateSystem(vk.Mesh2D(l=1.0, nx=n, ny=ny), eps, H1)
        w0 = build_recovery(plate, RecoveryInputs(ribbon.state(u0)))
        plates[eps] = plate
        trajs[eps] = _register(plate, run_trajectory(plate, w0, tau, T, opts))
    return ribbon, traj1, plates, trajs


def test_criterion_09_dynamic_dimension_reduction(reduction_runs):
    ribbon, traj1, plates, trajs = reduction_runs
    eps_list = [0.2, 0.1, 0.05]
    table = {}
    for t in (0.1, 0.5, 1.0):
        dists = [
            plates[eps].d0_projected(trajs[eps].at_time(t), ribbon, traj1.at_time(t))
            for eps in eps_list
        ]
        assert all(a > b for a, b in zip(dists, dists[1:])), f"t={t}: {dists}"
        assert dists[-1] <= 0.5 * dists[0]
        table[t] = dists
    ok(9, "projected 2D-vs-1D distances decrease in eps at t = 0.1, 0.5, 1.0; "
          f"final/first = {[f'{table[t][-1]/table[t][0]:.2f}' for t in table]}")


def test_criterion_10_twist_decoupling():
    system = vk.RibbonSystem(vk.Mesh1D(l=1.0, n=24), H1)
    tau, T = 0.02, 0.5
    runs = {}
    for name, w_amp in (("a", 1.0), ("b", 2.5)):
        u0 = system.interpolate((0.0,), (0.0,), tuple((w_amp * BUMP).coef), tuple((3.0 * BUMP).coef))
        runs[name] = _register(system, run_trajectory(system, u0, tau, T))
    slt = system.slices["theta"]
    theta_gap = max(
        np.abs(runs["a"].states[n][slt] - runs["b"].states[n][slt]).max()
        for n in range(runs["a"].n_steps + 1)
    )
    assert theta_gap <= 1e-8

    sl2 = system.slices["xi2"]
    base = system.interpolate((0.0,), tuple(BUMP.coef), (0.0,), (0.0,))
    mixed = system.interpolate(
        tuple((0.4 * Polynomial.fromroots([-0.5, 0.5])).coef),
        tuple(BUMP.coef),
        tuple((1.5 * BUMP).coef),
        tuple((2.0 * BUMP).coef),
    )
    t_base = _register(system, run_trajectory(system, base, tau, T))
    t_mixed = _register(system, run_trajectory(system, mixed, tau, T))
    xi2_gap = max(
        np.abs(t_base.states[n][sl2] - t_mixed.states[n][sl2]).max()
        for n in range(t_base.n_steps + 1)
    )
    assert xi2_gap <= 1e-8
    ok(10, f"theta trajectories identical to {theta_gap:.2e}; xi2 flow unaffected "
           f"by companion data to {xi2_gap:.2e}")


def smallest_feasible_constant(rep, c_max=1e8):
    """Bisection over [0, c_max] of the two interpolation inequalities on
    the report's rows, without the doubling bracket of the study."""
    D, Ds, pa, pb, ps, s = np.array(rep.rows).T
    sqrtM = np.sqrt(rep.summary["M"])

    def feasible(C):
        rhs1 = s**2 * (D**2 + C * D**3 + C * D**4)
        rhs2 = (1.0 - s) * pa + s * pb + s * (C * sqrtM * D**2 + C * D**3 + C * D**4)
        return np.all(Ds**2 <= rhs1 * (1.0 + 1e-12) + 1e-14) and np.all(
            ps <= rhs2 + 1e-12 * (1.0 + np.abs(rhs2))
        )

    lo, hi = 0.0, c_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
    return hi


def test_criterion_11_geodesic_calibration():
    system = vk.RibbonSystem(vk.Mesh1D(l=1.0, n=12), H1)
    rng = np.random.default_rng(33)

    def pool(count, amp):
        out = []
        for _ in range(count):
            u = system.zero_state()
            u[system.free] += amp * rng.standard_normal(int(system.free.sum()))
            out.append(u)
        return out

    u0_pool = pool(16, 0.4)
    u1_pool = pool(16, 0.4)
    rep1 = geodesic_convexity_check(system, u0_pool, u1_pool, 1000, seed=5)
    rep2 = geodesic_convexity_check(system, u0_pool, u1_pool, 2000, seed=5)
    C1, C2 = rep1.summary["C"], rep2.summary["C"]
    assert np.isfinite(C1) and C1 >= 0.0
    assert abs(C2 - C1) <= 0.2 * max(C1, C2) + 1e-12
    for rep in (rep1, rep2):
        assert abs(rep.summary["C"] - smallest_feasible_constant(rep)) <= 1e-6 * rep.summary["C"]
    ok(11, f"calibrated C = {C1:.3e} (sample 1000), {C2:.3e} (sample 2000): stable within 20%")


def test_criterion_04_one_step_energy_inequality(decay_run, degiorgi_runs, reduction_runs):
    # variational comparison on every accepted step of every registered run
    n_steps = 0
    for system, traj in _trajectory_registry:
        tau = traj.tau
        for n in range(1, traj.n_steps + 1):
            lhs = system.energy(traj.states[n]) + system.sqdist(
                traj.states[n - 1], traj.states[n]
            ) / (2.0 * tau)
            rhs = system.energy(traj.states[n - 1])
            assert lhs <= rhs + 1e-9
            n_steps += 1
    assert n_steps > 400
    ok(4, f"one-step energy inequality verified on {n_steps} accepted steps")


def test_criterion_12_determinism_and_round_trip(tmp_path):
    import vkribbon.cli as cli
    from vkribbon.io import load_snapshot, save_ribbon_state

    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        """
[material]
model = isotropic

[mesh]
n1d = 24
nx = 8
ny = 4

[time]
tau = 0.02
T = 0.2

[initial]
w = 0.0625 0 -0.5 0 1
xi1 = 0 0.2
"""
    )
    ledgers = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main(["simulate-1d", str(cfg), "--out", str(out), "--quiet"]) == 0
        ledgers.append((out / "ledger.csv").read_bytes())
    assert ledgers[0] == ledgers[1]

    snap = load_snapshot(tmp_path / "r1" / "state_final.snap")
    save_ribbon_state(tmp_path / "copy.snap", snap)
    again = load_snapshot(tmp_path / "copy.snap")
    assert np.array_equal(snap.vector, again.vector)
    assert (tmp_path / "r1" / "state_final.snap").read_bytes() == (
        tmp_path / "copy.snap"
    ).read_bytes()
    ok(12, "bitwise-identical ledgers on repeated runs; snapshots round-trip exactly")
