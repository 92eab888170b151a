"""Minimizing movements: closed-form steps, decay oracles, De Giorgi ledger."""

import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from vkribbon import flow
from vkribbon.fem import IncrementalProblem, Mesh1D, Mesh2D
from vkribbon.flow import (
    Chord,
    SolverOptions,
    StepFailure,
    dissipation_ledger,
    incremental_step,
    run_trajectory,
)
from vkribbon.forms import MaterialPair
from vkribbon.plate import PlateSystem, RecoveryInputs, build_recovery
from vkribbon.ribbon import RibbonForces, RibbonSystem

BUMP = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
PARABOLA = Polynomial([-0.25, 0.0, 1.0])


class OneDof:
    """phi = u^2/2 with the flat metric; the step halves the state at tau = 1."""

    n_dofs = 1
    free = np.array([True])

    def energy(self, u):
        return 0.5 * float(u[0]) ** 2

    def incremental(self, a, tau):
        def parts(v):
            return self.energy(v), float((v[0] - a[0]) ** 2)

        return SimpleNamespace(
            parts=parts,
            value=lambda v: parts(v)[0] + parts(v)[1] / (2 * tau),
            grad=lambda v: v + (v - a) / tau,
            hessian=lambda v: np.array([[1.0 + 1.0 / tau]]),
            factor=lambda H, shift: lambda b: b / ((1.0 + shift) * H[0, 0]),
        )


class Kinked(OneDof):
    """OneDof with 10 |v - a| added to Phi's value but not to its gradient,
    so no step along the Newton direction lowers Phi."""

    def incremental(self, a, tau):
        problem = super().incremental(a, tau)
        smooth = problem.value
        problem.value = lambda v: smooth(v) + 10.0 * abs(float(v[0] - a[0]))
        return problem


def hermite_beam_stiffness(n, l):
    """Textbook 4x4 Euler-Bernoulli element stiffness, assembled densely."""
    h = l / n
    ke = (
        np.array(
            [
                [12, 6 * h, -12, 6 * h],
                [6 * h, 4 * h**2, -6 * h, 2 * h**2],
                [-12, -6 * h, 12, -6 * h],
                [6 * h, 2 * h**2, -6 * h, 4 * h**2],
            ]
        )
        / h**3
    )
    K = np.zeros((2 * (n + 1), 2 * (n + 1)))
    for e in range(n):
        idx = slice(2 * e, 2 * e + 4)
        K[idx, idx] += ke
    return K


def xi2_system(n=16, mu_w=1.0, mu_r=1.0):
    mesh = Mesh1D(l=1.0, n=n)
    mat = MaterialPair.isotropic(mu_w, 0.0, mu_r, 0.0)
    s = RibbonSystem(mesh, mat)
    u0 = s.zero_state()
    u0[s.slices["xi2"]] = s.h3.interpolate(BUMP, BUMP.deriv())
    u0[s.bc_mask] = s.bc_values[s.bc_mask]
    return s, u0


class TestIncrementalStep:
    def test_one_dof_closed_form(self):
        u, rep = incremental_step(OneDof(), 1.0, np.array([1.0]))
        assert u[0] == pytest.approx(0.5, abs=1e-12)

    def test_xi2_dense_oracle(self):
        # the step's optimality system is K (C_W xi + (C_R / tau)(xi - xi_prev)) = 0
        s, u0 = xi2_system(n=8, mu_w=1.0, mu_r=2.0)
        tau = 0.05
        u1, _ = incremental_step(s, tau, u0)
        K = hermite_beam_stiffness(8, 1.0)
        free = s.free[s.slices["xi2"]]
        Kff = K[np.ix_(free, free)]
        C_W, C_R = s.material.W0.C0, s.material.R0.C0
        prev = u0[s.slices["xi2"]][free]
        rhs = (C_R / tau) * (Kff @ prev)
        sol = np.linalg.solve((C_W + C_R / tau) * Kff, rhs)
        assert np.abs(u1[s.slices["xi2"]][free] - sol).max() < 1e-9

    def test_critical_point_fixed(self):
        s, _ = xi2_system()
        z = s.zero_state()
        u, rep = incremental_step(s, 0.1, z)
        assert np.array_equal(u, z)
        assert rep.newton_iters == 0

    def test_one_step_energy_inequality(self):
        s, u0 = xi2_system()
        tau = 0.02
        u1, rep = incremental_step(s, tau, u0)
        assert s.energy(u1) + s.sqdist(u0, u1) / (2 * tau) <= s.energy(u0) + 1e-9

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            incremental_step(OneDof(), -1.0, np.array([1.0]))


class TestTrajectory:
    def test_short_horizon_single_step(self):
        traj = run_trajectory(OneDof(), np.array([1.0]), 1.0, 0.5)
        assert traj.n_steps == 1

    def test_geometric_decay(self):
        s, u0 = xi2_system(n=12)
        tau = 0.01
        traj = run_trajectory(s, u0, tau, 0.2)
        rho = 1.0 / (1.0 + tau)
        for n in range(1, traj.n_steps + 1):
            gap = np.linalg.norm(traj.states[n] - rho * traj.states[n - 1])
            assert gap <= 1e-9 * np.linalg.norm(traj.states[n - 1])

    def test_energy_monotone_nonlinear(self):
        mesh = Mesh1D(l=1.0, n=12)
        mat = MaterialPair.isotropic(1.0, 0.4, 0.8, 0.2)
        forces = RibbonForces.from_coeffs(f=(0.5,))
        s = RibbonSystem(mesh, mat, forces=forces)
        u0 = s.interpolate((0.0,), (0.0,), 1.5 * BUMP, (0.0,))
        traj = run_trajectory(s, u0, 0.05, 0.5)
        e = traj.energies()
        assert np.all(np.diff(e) <= 1e-9)

    def test_interpolant_indexing(self):
        traj = run_trajectory(OneDof(), np.array([1.0]), 0.25, 1.0)
        assert traj.index_at(0.0) == 0
        assert traj.index_at(0.25) == 1
        assert traj.index_at(0.2500001) == 2  # right-continuous at grid points only
        assert traj.index_at(0.26) == 2
        assert traj.index_at(1.0) == 4

    @pytest.mark.parametrize("tau", [-0.01, 0.0])
    def test_nonpositive_tau_rejected(self, tau):
        s, u0 = xi2_system(n=8)
        with pytest.raises(ValueError, match="tau must be positive"):
            run_trajectory(s, u0, tau, 0.1)

    def test_kkt_residual_checked(self):
        s, u0 = xi2_system(n=8)
        traj = run_trajectory(s, u0, 0.05, 0.2)
        assert all(np.isfinite(r.grad_norm) for r in traj.reports[1:])


class TestDissipationLedger:
    def test_equilibrium_all_zero(self):
        s, _ = xi2_system()
        z = s.zero_state()
        traj = run_trajectory(s, z, 0.1, 0.3)
        led = dissipation_ledger(s, traj)
        assert led.velocity_term == 0.0
        assert led.slope_term == 0.0
        assert led.residual == 0.0

    def test_xi2_closed_form_geometric_sums(self):
        # all interior DOFs scale by rho per step, so every ledger term is a
        # geometric sum in rho^2 driven by the initial bending energy
        n, tau, T = 12, 0.02, 0.4
        s, u0 = xi2_system(n=n)
        traj = run_trajectory(s, u0, tau, T)
        led = dissipation_ledger(s, traj)

        K = hermite_beam_stiffness(n, 1.0)
        xi0 = u0[s.slices["xi2"]]
        E0 = float(xi0 @ (K @ xi0))  # int |xi2''|^2
        C = s.material.W0.C0  # = C0_R here
        rho = 1.0 / (1.0 + tau)
        N = traj.n_steps
        # D_n^2 = (C/12) (1-rho)^2 rho^{2(n-1)} E0; slope(U_n)^2 = (C/12) rho^{2n} E0
        geo = sum(rho ** (2 * (k - 1)) for k in range(1, N + 1))
        vel = 0.5 * tau * (C / 12.0) * E0 * ((1 - rho) / tau) ** 2 * geo
        slo = 0.5 * tau * (C / 12.0) * E0 * rho**2 * geo
        drop = (C / 24.0) * E0 * (rho ** (2 * N) - 1.0)
        expect = vel + slo + drop
        assert led.residual == pytest.approx(expect, abs=1e-10 * max(1.0, abs(expect)))
        assert led.residual < 0.0

    def test_refinement_shrinks_residual(self):
        mesh = Mesh1D(l=1.0, n=16)
        mat = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)
        forces = RibbonForces.from_coeffs(f=(1.0,))
        s = RibbonSystem(mesh, mat, forces=forces)
        u0 = s.interpolate((0.0,), (0.0,), BUMP, (0.0,))
        residuals = []
        for tau in (0.08, 0.04):
            traj = run_trajectory(s, u0, tau, 0.8)
            residuals.append(abs(dissipation_ledger(s, traj).residual))
        assert residuals[1] <= 0.7 * residuals[0]


class TestFailureModes:
    @pytest.mark.parametrize(
        "bad", [{"armijo": 1.5}, {"armijo": 1.0}, {"armijo": 0.0}, {"max_newton": -3}, {"tol": 0.0}]
    )
    def test_out_of_range_options_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverOptions(**bad)

    def test_nonconvergence_reported_with_step_index(self):
        s, u0 = xi2_system(n=8)
        opts = SolverOptions(tol=1e-10, max_newton=0)
        with pytest.raises(StepFailure) as err:
            run_trajectory(s, u0, 0.05, 0.2, opts)
        assert err.value.step_index == 1

    def test_failed_line_search_reported_with_step_index(self):
        with pytest.raises(StepFailure, match="line search failed") as err:
            run_trajectory(Kinked(), np.array([1.0]), 1.0, 2.0)
        assert err.value.step_index == 1

    def test_non_finite_warm_start_named_before_any_hessian(self, monkeypatch):
        s = RibbonSystem(Mesh1D(l=1.0, n=12), MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0))
        u = s.zero_state()
        u[np.flatnonzero(s.free)[:3]] = np.nan
        hessians = []
        real = IncrementalProblem.hessian
        monkeypatch.setattr(
            IncrementalProblem, "hessian", lambda p, v: hessians.append(v) or real(p, v)
        )
        with pytest.raises(StepFailure, match="state is not finite") as err:
            incremental_step(s, 0.1, u, step_index=4)
        assert err.value.step_index == 4 and not hessians


def forced_trajectory(mu_w, mu_r, load, tau, steps=5, n=32):
    """A nonlinear forced ribbon flow: W, R and the load f set by their scales."""
    mat = MaterialPair.isotropic(mu_w, 0.4 * mu_w, mu_r, 0.2 * mu_r)
    forces = RibbonForces.from_coeffs(f=(load, 0.5 * load))
    s = RibbonSystem(Mesh1D(l=1.0, n=n), mat, forces=forces)
    u0 = s.interpolate((0.0,), (0.0,), 2.0 * BUMP, 4.0 * BUMP)
    return np.array(run_trajectory(s, u0, tau, steps * tau).states)


def relative_gap(states, reference):
    return np.abs(states - reference).max() / np.abs(reference).max()


class TestScaleInvariance:
    """Phi scales by one factor under these rescalings, so the iterates,
    the stopping rule included, must not move."""

    TAU = 0.01

    @pytest.fixture(scope="class")
    def reference(self):
        return forced_trajectory(1.0, 1.0, 1.0, self.TAU)

    @settings(max_examples=6, deadline=None)
    @given(exponent=st.floats(-8.0, 8.0))
    def test_material_scaling(self, reference, exponent):
        lam = 10.0**exponent
        states = forced_trajectory(lam, lam, lam, self.TAU)
        assert relative_gap(states, reference) <= 1e-12

    @settings(max_examples=6, deadline=None)
    @given(exponent=st.floats(-8.0, 8.0))
    def test_time_rescaling(self, reference, exponent):
        lam = 10.0**exponent
        states = forced_trajectory(lam, 1.0, lam, self.TAU / lam)
        assert relative_gap(states, reference) <= 1e-12


README_DATA = {
    "readme_quick_start": ((0.0,), (0.0625, 0.0, -0.5, 0.0, 1.0), (0.0,), (0.0,)),
    "acceptance": ((0.0,), (0.0,), 2.0 * BUMP, 4.0 * BUMP),
}


@pytest.mark.parametrize("datum", sorted(README_DATA))
@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_readme_defaults_run_on_every_mesh(n, datum):
    # tau = 0.01 and tol = 1e-10 as in the README scenario, three steps
    s = RibbonSystem(Mesh1D(l=1.0, n=n), MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0))
    u0 = s.interpolate(*README_DATA[datum])
    traj = run_trajectory(s, u0, 0.01, 0.03, SolverOptions(tol=1e-10))
    assert traj.n_steps == 3


def chord_plate():
    """The benchmark's plate at eps = 0.05 on a coarser mesh, started from
    the recovery of a bent and twisted ribbon."""
    mat = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)
    ribbon = RibbonSystem(Mesh1D(l=1.0, n=16), mat)
    v0 = ribbon.interpolate(0.5 * PARABOLA, 0.3 * BUMP, 2.0 * BUMP, 4.0 * BUMP)
    s = PlateSystem(Mesh2D(l=1.0, nx=16, ny=4), 0.05, mat)
    return s, build_recovery(s, RecoveryInputs(ribbon.state(v0))), 0.02, SolverOptions(tol=1e-8)


def chord_ribbon():
    mat = MaterialPair.isotropic(1.0, 0.4, 1.0, 0.2)
    s = RibbonSystem(Mesh1D(l=1.0, n=32), mat, forces=RibbonForces.from_coeffs(f=(1.0, 0.5)))
    return s, s.interpolate((0.0,), (0.0,), 2.0 * BUMP, 4.0 * BUMP), 0.01, SolverOptions()


CHORD_CASES = {"plate eps=0.05": chord_plate, "ribbon": chord_ribbon}


def counted_trajectory(monkeypatch, build, steps, contraction=None):
    """A trajectory and the number of fresh Hessians it asked for;
    contraction 0 makes every Newton direction a fresh one."""
    if contraction is not None:
        monkeypatch.setattr(flow, "CONTRACTION", contraction)
    s, u0, tau, opts = build()
    hessians = []
    hessian = IncrementalProblem.hessian
    monkeypatch.setattr(
        IncrementalProblem, "hessian", lambda self, v: hessians.append(1) or hessian(self, v)
    )
    traj = run_trajectory(s, u0, tau, steps * tau, opts)
    monkeypatch.undo()
    return traj, len(hessians)


@pytest.mark.parametrize("name", list(CHORD_CASES))
class TestChord:
    def test_matches_fresh_newton(self, name, monkeypatch):
        traj, _ = counted_trajectory(monkeypatch, CHORD_CASES[name], 10)
        fresh, _ = counted_trajectory(monkeypatch, CHORD_CASES[name], 10, contraction=0.0)
        assert len(traj.states) == len(fresh.states) == 11
        assert relative_gap(np.array(traj.states), np.array(fresh.states)) <= 1e-10
        assert all(r.factorizations == r.newton_iters for r in fresh.reports[1:])

    def test_factorizations_count_fresh_hessians(self, name, monkeypatch):
        traj, hessians = counted_trajectory(monkeypatch, CHORD_CASES[name], 10)
        factorizations = sum(r.factorizations for r in traj.reports)
        assert factorizations == hessians
        assert factorizations < sum(r.newton_iters for r in traj.reports)

    @pytest.mark.parametrize("lender", ["other tau", "far state"])
    def test_poor_lent_factor(self, name, lender):
        s, u0, tau, opts = CHORD_CASES[name]()
        if lender == "other tau":
            problem, at = s.incremental(u0, 100.0 * tau), u0
        else:
            far = u0.copy()
            far[s.free] += 0.05 * np.random.default_rng(81).standard_normal(int(s.free.sum()))
            problem, at = s.incremental(far, tau), far
        chord = Chord(problem.factor(problem.hessian(at)))
        assert chord.solve is not None
        u1, rep = incremental_step(s, tau, u0, opts, chord=chord)
        ref, _ = incremental_step(s, tau, u0, opts)
        assert s.energy(u1) + s.sqdist(u0, u1) / (2 * tau) <= s.energy(u0) + opts.tol * rep.scale
        assert relative_gap(u1, ref) <= 1e-10


class Unlent(Chord):
    """A holder that keeps nothing: a fresh factor on every Newton iteration
    and none alive between them."""

    @property
    def solve(self):
        return None

    @solve.setter
    def solve(self, value):
        pass


def test_lent_factor_costs_no_extra_band(monkeypatch):
    """The lent factor is dropped before a fresh Hessian is assembled, so
    lending adds at most one held solver, which keeps one band and the few
    objects around it alive, to the peak of fresh Newton."""
    s, u0, tau, opts = chord_plate()
    problem = s.incremental(u0, tau)
    problem.hessian(u0)  # the plan, made once per system
    tracemalloc.start()
    solve = problem.factor(problem.hessian(u0))
    held = tracemalloc.get_traced_memory()[0]
    del solve
    solver = held - tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    band = s._plan.n_free * (s._plan.bandwidth + 1) * 8
    assert band <= solver < 2 * band
    # no solver is alive when a Hessian is assembled
    made = []
    factor, hessian = IncrementalProblem.factor, IncrementalProblem.hessian

    def kept(self, H, shift=0.0):
        solve = factor(self, H, shift)
        if solve is not None:
            made.append(weakref.ref(solve))
        return solve

    def assembled(self, v):
        assert all(ref() is None for ref in made)
        return hessian(self, v)

    monkeypatch.setattr(IncrementalProblem, "factor", kept)
    monkeypatch.setattr(IncrementalProblem, "hessian", assembled)
    traj = run_trajectory(s, u0, tau, 5 * tau, opts)
    assert sum(r.factorizations for r in traj.reports) == len(made) > 1
    monkeypatch.undo()
    peaks = []
    for lender in (Chord, Unlent):
        monkeypatch.setattr(flow, "Chord", lender)
        tracemalloc.start()
        run_trajectory(s, u0, tau, 5 * tau, opts)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] <= peaks[1] + solver
