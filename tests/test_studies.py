"""Study orchestration: refinement tables, refusals, calibrations."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from vkribbon import studies
from vkribbon.config import Scenario
from vkribbon.fem import Hermite3Space, Mesh1D, Mesh2D, P1Space
from vkribbon.flow import SolverOptions, dissipation_ledger, run_trajectory
from vkribbon.forms import MaterialPair
from vkribbon.plate import PlateSystem, RecoveryInputs, build_recovery
from vkribbon.ribbon import RibbonForces, RibbonSystem
from vkribbon.studies import (
    HypothesisError,
    commutativity_report,
    decoupling_checks,
    epsilon_study,
    fit_order,
    gamma_check,
    geodesic_convexity_check,
    slope_consistency,
    tau_study,
)

BUMP = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
H1 = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)
NONE_MAT = MaterialPair.isotropic(1.0, 1.0, 1.0, 1.0)


def xi2_initial():
    return ((0.0,), tuple(BUMP.coef), (0.0,), (0.0,))


class TestFitOrder:
    def test_exact_power(self):
        eps = [0.2, 0.1, 0.05, 0.025]
        errs = [3.0 * e**1.7 for e in eps]
        assert fit_order(eps, errs) == pytest.approx(1.7, rel=1e-10)

    def test_uses_last_three_points(self):
        eps = [0.2, 0.1, 0.05, 0.025]
        errs = [99.0, 3.0 * 0.1**2, 3.0 * 0.05**2, 3.0 * 0.025**2]
        assert fit_order(eps, errs) == pytest.approx(2.0, rel=1e-10)


class TestTauStudy:
    def test_linear_distances_match_closed_form(self):
        mesh = Mesh1D(l=1.0, n=12)
        s = RibbonSystem(mesh, H1)
        u0 = s.interpolate(*xi2_initial())
        T = 0.4
        taus = [0.08, 0.04]
        rep = tau_study(s, u0, taus, T)
        # closed form: states are rho^n u0 with n = ceil(t / tau)
        E0_metric = s.sqdist(u0, s.zero_state())
        for t1, t2 in [(0.08, 0.04)]:
            for t in (0.1 * T, 0.25 * T, 0.5 * T, T):
                n1 = int(np.ceil(round(t / t1, 12)))
                n2 = int(np.ceil(round(t / t2, 12)))
                expect = np.sqrt(E0_metric) * abs(
                    (1 + t1) ** -n1 - (1 + t2) ** -n2
                )
                got = [r for r in rep.rows if r[0] == t1 and abs(r[1] - t) < 1e-12][0][2]
                assert got == pytest.approx(expect, abs=1e-8)

    def test_single_tau_empty_comparison(self):
        mesh = Mesh1D(l=1.0, n=8)
        s = RibbonSystem(mesh, H1)
        u0 = s.interpolate(*xi2_initial())
        rep = tau_study(s, u0, [0.05], 0.2)
        assert all(np.isnan(r[2]) for r in rep.rows)

    def test_rejects_non_nested(self):
        mesh = Mesh1D(l=1.0, n=8)
        s = RibbonSystem(mesh, H1)
        u0 = s.zero_state()
        with pytest.raises(ValueError):
            tau_study(s, u0, [0.08, 0.05], 0.2)
        with pytest.raises(ValueError):
            tau_study(s, u0, [0.04, 0.08], 0.2)

    def test_one_ledger_per_step_size(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return dissipation_ledger(*args)

        monkeypatch.setattr(studies, "dissipation_ledger", counted)
        s = RibbonSystem(Mesh1D(l=1.0, n=8), H1)
        # the ledgers take one slope per step; nothing reads the slope of u0
        slopes, local_slope = [], s.local_slope
        monkeypatch.setattr(s, "local_slope", lambda u: slopes.append(u) or local_slope(u))
        taus = [0.08, 0.04, 0.02]
        rep = tau_study(s, s.interpolate(*xi2_initial()), taus, 0.16)
        assert len(calls) == len(taus)
        assert sorted(rep.summary["residuals"]) == sorted(taus)
        assert len(slopes) == sum(round(0.16 / tau) for tau in taus)

    def test_residual_magnitude_decreases(self):
        mesh = Mesh1D(l=1.0, n=12)
        forces = RibbonForces.from_coeffs(f=(0.8,))
        s = RibbonSystem(mesh, H1, forces=forces)
        u0 = s.interpolate((0.0,), (0.0,), BUMP, (0.0,))
        rep = tau_study(s, u0, [0.08, 0.04, 0.02], 0.4)
        res = rep.summary["residuals"]
        assert abs(res[0.04]) < abs(res[0.08])
        assert abs(res[0.02]) < abs(res[0.04])

    def test_plate_degiorgi_residual_first_order(self):
        # the plate's ledger reads FieldSystem.local_slope, as the ribbon's does
        r = RibbonSystem(Mesh1D(l=1.0, n=24), H1)
        p = PlateSystem(Mesh2D(l=1.0, nx=24, ny=4), 0.1, H1)
        v = r.interpolate((0.0,), (0.0,), tuple(BUMP.coef), (0.0,))
        recovery = build_recovery(p, RecoveryInputs(target=r.state(v)))
        rep = tau_study(p, recovery, [0.04, 0.02, 0.01], 0.2, SolverOptions(tol=1e-8))
        assert all(res < 0.0 for res in rep.summary["residuals"].values())
        assert 0.8 <= rep.summary["residual_order"] <= 1.2


def scenario(material, n, eps_list, T, initial, tau=0.05, tau_list=(0.1, 0.05), **kw):
    """A study scenario on the n-element ribbon and the n x 4 plate."""
    return Scenario(
        material,
        epsilon_list=list(eps_list),
        n1d=n,
        nx=n,
        ny=4,
        tau=tau,
        T=T,
        tau_list=list(tau_list),
        initial=initial,
        **kw,
    )


class TestEpsilonStudy:
    def test_refuses_incompatible_material(self):
        with pytest.raises(HypothesisError):
            epsilon_study(scenario(NONE_MAT, 8, [0.2, 0.1], 0.2, xi2_initial()))

    def test_exact_embedding_coincides(self):
        # (xi1, w)-only data embeds exactly; trajectories coincide at all eps
        initial = ((0.0,), (0.0,), tuple((0.8 * BUMP).coef), (0.0,))
        rep = epsilon_study(scenario(H1, 8, [0.4, 0.2], 0.2, initial))
        dists = rep.column("d0_projected")
        assert np.abs(dists).max() <= 1e-8

    def test_distances_decrease_in_eps(self):
        initial = (
            (0.0,),
            tuple((0.2 * BUMP).coef),
            tuple((1.5 * BUMP).coef),
            tuple((3.0 * BUMP).coef),
        )
        rep = epsilon_study(scenario(H1, 24, [0.2, 0.1], 0.2, initial))
        # includes the static (t = 0) recovery projection error
        assert 0.0 in rep.column("t")
        for t in set(rep.column("t")):
            sub = [r for r in rep.rows if r[1] == t]
            assert sub[1][2] < sub[0][2]

    def test_h2_dynamic_runs(self):
        mat = MaterialPair.isotropic(1.0, 0.5, 1.0, 0.5, h2_family=True)
        initial = ((0.0,), (0.0,), tuple((1.0 * BUMP).coef), tuple((2.0 * BUMP).coef))
        rep = epsilon_study(
            scenario(mat, 12, [0.3, 0.15], 0.1, initial, solver=SolverOptions(tol=1e-8))
        )
        d = rep.column("d0_projected")
        assert np.all(np.isfinite(d))


class TestCommutativity:
    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            commutativity_report(scenario(H1, 8, [], 0.2, xi2_initial(), tau_list=[0.1]))

    def test_refuses_incompatible_material(self):
        with pytest.raises(HypothesisError):
            commutativity_report(scenario(NONE_MAT, 8, [0.2], 0.2, xi2_initial(), tau_list=[0.1]))

    def test_linear_exact_embedding_small_discrepancy(self):
        # xi1-only data: linear flow, exact embedding; both refinement paths
        # agree to solver accuracy
        initial = (tuple((0.5 * Polynomial.fromroots([-0.5, 0.5])).coef), (0.0,), (0.0,), (0.0,))
        rep = commutativity_report(scenario(H1, 8, [0.4, 0.2], 0.2, initial))
        assert np.abs(rep.column("path_discrepancy")).max() <= 1e-7
        assert np.abs(rep.column("horizontal_leg")).max() <= 1e-7

    def test_diagonal_smallest(self):
        initial = ((0.0,), (0.0,), tuple((1.0 * BUMP).coef), tuple((2.0 * BUMP).coef))
        rep = commutativity_report(scenario(H1, 16, [0.2, 0.1], 0.2, initial))
        # gap to the doubly refined reference is smallest at (eps_min, tau_min)
        t_final = 0.2
        diag = {
            (r[0], r[1]): r[6] for r in rep.rows if abs(r[2] - t_final) < 1e-12
        }
        best = diag[(0.1, 0.05)]
        assert all(best <= v + 1e-12 for v in diag.values())

    def test_horizontal_leg_at_tau_is_the_reduce_study_distance(self):
        # both studies run the one sweep: at the scenario's tau the
        # horizontal leg is reduce-study's d0_projected, bit for bit
        initial = ((0.0,), tuple((0.2 * BUMP).coef), tuple((1.5 * BUMP).coef), (0.0,))
        sc = scenario(H1, 8, [0.4, 0.2], 0.2, initial, forces=RibbonForces.from_coeffs(f=(1.0,)))
        assert sc.tau in sc.tau_list
        reduce = epsilon_study(sc)
        d0 = {(r[0], r[1]): r[2] for r in reduce.rows if r[1] > 0.0}
        legs = {(r[0], r[2]): r[3] for r in commutativity_report(sc).rows if r[1] == sc.tau}
        assert d0 == legs and len(d0) == 2 * len(studies.SAMPLE_FRACTIONS)
        assert all(v > 0.0 for v in d0.values())


class TestGammaCheck:
    def test_zero_target_exact(self):
        rep = gamma_check(
            H1,
            {"zero": ((0.0,), (0.0,), (0.0,), (0.0,))},
            [0.2, 0.1],
            Mesh1D(l=1.0, n=8),
            Mesh2D(l=1.0, nx=8, ny=4),
        )
        assert np.abs(rep.column("error")).max() == 0.0

    def test_twist_order_and_generic_decrease(self):
        n = 96
        rep = gamma_check(
            H1,
            {
                "twist": ((0.0,), (0.0,), (0.0,), tuple((4.0 * BUMP).coef)),
                "generic": (
                    tuple((0.5 * Polynomial.fromroots([-0.5, 0.5])).coef),
                    tuple((0.2 * BUMP).coef),
                    tuple((2.0 * BUMP).coef),
                    tuple((6.0 * BUMP).coef),
                ),
            },
            [0.2, 0.1, 0.05, 0.025],
            Mesh1D(l=1.0, n=n),
            Mesh2D(l=1.0, nx=n, ny=4),
        )
        assert rep.summary["orders"]["twist"] >= 1.8
        assert rep.summary["orders"]["generic"] >= 0.9
        errs = [r[4] for r in rep.rows if r[0] == "generic"]
        assert all(a > b for a, b in zip(errs, errs[1:]))


    def test_samples_each_target_once(self, monkeypatch):
        calls = []
        for space in (P1Space, Hermite3Space):
            evaluate = space.evaluate
            monkeypatch.setattr(
                space, "evaluate", lambda *a, f=evaluate, **k: calls.append(1) or f(*a, **k)
            )
        targets = {
            "twist": ((0.0,), (0.0,), (0.0,), tuple((4.0 * BUMP).coef)),
            "bent": ((0.0,), tuple((0.2 * BUMP).coef), tuple((2.0 * BUMP).coef), (0.0,)),
        }
        counts = []
        for eps_list in ([0.2, 0.1], [0.2, 0.1, 0.05, 0.025]):
            calls.clear()
            gamma_check(H1, targets, eps_list, Mesh1D(l=1.0, n=8), Mesh2D(l=1.0, nx=8, ny=2))
            counts.append(len(calls))
        # the 1D fields are sampled per target, the widths only cut them off
        assert counts[0] == counts[1] > 0


class TestGeodesicConvexity:
    def _pool(self, system, rng, count, amp):
        pool = []
        for _ in range(count):
            u = system.zero_state()
            u[system.free] += amp * rng.standard_normal(int(system.free.sum()))
            pool.append(u)
        return pool

    def test_identical_endpoints_any_constant(self):
        mesh = Mesh1D(l=1.0, n=8)
        s = RibbonSystem(mesh, H1)
        rng = np.random.default_rng(40)
        pool = self._pool(s, rng, 3, 0.3)
        rep = geodesic_convexity_check(s, pool, pool, 20, seed=1)
        assert np.isfinite(rep.summary["C"])

    def test_linear_states_need_no_constant(self):
        # identical deflections: DOF interpolation is an exact geodesic for
        # the first inequality
        mesh = Mesh1D(l=1.0, n=8)
        s = RibbonSystem(mesh, H1)
        rng = np.random.default_rng(41)
        base_w = 0.3 * rng.standard_normal(s.h3.n_dofs)
        base_w[[0, 1, -2, -1]] = 0.0
        pool = []
        for _ in range(4):
            u = s.zero_state()
            u[s.slices["xi1"]][1:-1] = rng.standard_normal(s.p1.n_dofs - 2)
            u[s.slices["theta"]][1:-1] = rng.standard_normal(s.p1.n_dofs - 2)
            u[s.slices["w"]] = base_w
            pool.append(u)
        for a in pool:
            for b in pool:
                D = s.metric(a, b)
                for sfrac in (0.25, 0.5, 0.75):
                    us = (1 - sfrac) * a + sfrac * b
                    assert s.metric(a, us) <= sfrac * D + 1e-12

    def test_calibration_stable_under_doubling(self):
        mesh = Mesh1D(l=1.0, n=10)
        s = RibbonSystem(mesh, H1)
        rng = np.random.default_rng(42)
        u0_pool = self._pool(s, rng, 8, 0.4)
        u1_pool = self._pool(s, rng, 8, 0.4)
        rep1 = geodesic_convexity_check(s, u0_pool, u1_pool, 150, seed=2)
        rep2 = geodesic_convexity_check(s, u0_pool, u1_pool, 300, seed=2)
        C1, C2 = rep1.summary["C"], rep2.summary["C"]
        assert np.isfinite(C1) and np.isfinite(C2)
        assert abs(C2 - C1) <= 0.2 * max(C1, C2) + 1e-9

    def test_constant_between_last_power_of_two_and_cap(self):
        class Stretched:
            """Scalar states; an interpolant at s lies sqrt(7) s from the
            start, so the first inequality needs (7 - 1) / (1 + 1) = 3."""

            def energy(self, u):
                return 0.0

            def metric(self, a, b):
                d = abs(float(b[0] - a[0]))
                return np.sqrt(7.0) * d if 0.0 < b[0] < 1.0 else d

        rep = geodesic_convexity_check(Stretched(), [np.zeros(1)], [np.ones(1)], 3)
        assert rep.summary["C"] == pytest.approx(3.0, rel=1e-9)

    @pytest.mark.parametrize("bulging", ["metric", "energy"])
    def test_sample_failing_at_every_constant_raises(self, bulging):
        """The endpoints are at distance zero, so no C helps an interpolant
        that lies away from the start or above the endpoint energies."""

        class Pinched:
            def energy(self, u):
                return float(bulging == "energy" and 0.0 < u[0] < 1.0)

            def metric(self, a, b):
                return float(bulging == "metric" and 0.0 < b[0] < 1.0)

        with pytest.raises(RuntimeError):
            geodesic_convexity_check(Pinched(), [np.zeros(1)], [np.ones(1)], 3)


class TestSlopeConsistency:
    def test_equilibrium_zeros(self):
        mesh = Mesh1D(l=1.0, n=8)
        s = RibbonSystem(mesh, H1)
        traj = run_trajectory(s, s.zero_state(), 0.05, 0.2)
        rep = slope_consistency(s, traj)
        assert np.abs(rep.column("slope_sq")).max() == 0.0

    def test_linear_ratio_one(self):
        mesh = Mesh1D(l=1.0, n=12)
        s = RibbonSystem(mesh, H1)
        u0 = s.interpolate(*xi2_initial())
        traj = run_trajectory(s, u0, 0.01, 0.1)
        rep = slope_consistency(s, traj)
        ratios = rep.column("ratio")
        assert np.abs(ratios - 1.0).max() <= 1e-8
        assert rep.column("representation_gap").max() <= 1e-10


class TestDecoupling:
    def test_all_gaps_small(self):
        rep = decoupling_checks(H1, Mesh1D(l=1.0, n=16), 0.01, 1.0)
        assert rep.summary["per_step_factor_gap"] <= 1e-9
        assert rep.summary["xi2_invariance_gap"] <= 1e-8
        assert rep.summary["theta_invariance_gap"] <= 1e-8
        assert rep.summary["final_vs_continuous_rel"] <= 0.006
