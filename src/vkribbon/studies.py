"""Orchestrated studies probing the structural claims of the plate/ribbon pair.

Each study runs trajectories or static sweeps, tabulates raw data first,
and only then fits summary quantities (orders from the last three points
of a sweep).  Nothing here asserts a theorem; the studies produce the
quantitative shadows that the test suite checks.  The two dynamic width
studies, ``epsilon_study`` and ``commutativity_report``, read a
``config.Scenario`` and run one shared sweep of ribbon and plate
trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Scenario
from .fem import BoundaryData, FieldSystem, Mesh1D, Mesh2D
from .flow import SolverOptions, Trajectory, dissipation_ledger, run_trajectory
from .forms import MaterialPair
from .plate import PlateSystem, RecoveryInputs, build_recovery
from .ribbon import RibbonSystem


class HypothesisError(RuntimeError):
    """Raised when a study requires the compatibility hypotheses and the
    material satisfies neither."""


SAMPLE_FRACTIONS = (0.1, 0.25, 0.5, 1.0)
# interpolation fractions s of geodesic_convexity_check
S_GRID = tuple(np.linspace(0.1, 0.9, 9))


@dataclass
class StudyReport:
    kind: str
    columns: list
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add(self, *row):
        self.rows.append(tuple(row))

    def column(self, name):
        i = self.columns.index(name)
        return np.array([r[i] for r in self.rows], dtype=float)

    def write_csv(self, path):
        from .io import write_csv

        write_csv(path, self.columns, self.rows, summary=self.summary)


def fit_order(params, errors) -> float:
    """Least-squares slope of log(err) against log(param), last three points."""
    p = np.asarray(params, dtype=float)[-3:]
    e = np.asarray(errors, dtype=float)[-3:]
    good = e > 0.0
    if good.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(p[good]), np.log(e[good]), 1)[0])


def require_hypothesis(material: MaterialPair, study: str) -> None:
    if material.hypothesis not in ("H1", "H2"):
        raise HypothesisError(
            f"{study}: material is classified '{material.hypothesis}'; the "
            "dimension-reduction studies require hypothesis H1 or H2"
        )


# ---------------------------------------------------------------------------
# tau refinement


def tau_study(
    system: FieldSystem,
    u0: np.ndarray,
    tau_list,
    T: float,
    options: SolverOptions | None = None,
) -> StudyReport:
    """Distances between piecewise-constant interpolants at nested time steps
    plus the energy-identity residual per step size."""
    taus = list(tau_list)
    if any(t2 >= t1 for t1, t2 in zip(taus, taus[1:])):
        raise ValueError("tau list must be strictly decreasing")
    for t1, t2 in zip(taus, taus[1:]):
        if abs(t1 / t2 - 2.0) > 1e-9:
            raise ValueError("tau list must be nested by halving")

    report = StudyReport(
        kind="tau_study",
        columns=["tau", "t", "dist_to_half_step", "energy", "degiorgi_residual"],
    )
    trajectories = {tau: run_trajectory(system, u0, tau, T, options) for tau in taus}
    residuals = {t: dissipation_ledger(system, traj).residual for t, traj in trajectories.items()}
    times = [f * T for f in SAMPLE_FRACTIONS]
    sups = {}
    for t1, t2 in zip(taus, taus[1:]):
        a, b = trajectories[t1], trajectories[t2]
        dists = [system.metric(a.at_time(t), b.at_time(t)) for t in times]
        for t, d in zip(times, dists):
            report.add(t1, t, d, a.reports[a.index_at(t)].energy, residuals[t1])
        sups[t1] = max(dists)
    t_last, last = taus[-1], trajectories[taus[-1]]
    for t in times:
        energy = last.reports[last.index_at(t)].energy
        report.add(t_last, t, float("nan"), energy, residuals[t_last])
    report.summary = {
        "sup_dist": sups,
        "residuals": residuals,
        "residual_order": fit_order(taus, [abs(residuals[t]) for t in taus]),
    }
    return report


# ---------------------------------------------------------------------------
# eps reduction


def _projection_diag(plate: PlateSystem, u: np.ndarray) -> dict:
    """Compactness-channel samples: gamma ~ d22 w / eps^2, E12, E22.

    Reported, never asserted against theory."""
    R = plate.rows(u)
    gamma, E12, E22 = R[:, 7], R[:, 1], R[:, 2]
    wq = plate.wq
    area = wq.sum()

    def l2(v):
        return float(np.sqrt(np.dot(wq, v**2) / area))

    return {"gamma_l2": l2(gamma), "E12_l2": l2(E12), "E22_l2": l2(E22)}


def _sweep(sc: Scenario, study: str, taus):
    """The set-up both width sweeps share: the ribbon, its initial state u0
    and its trajectory per time step, and, lazily, one (eps, plate, w0,
    trajectory per time step) per width of the scenario, w0 being the
    plate's recovery of u0.  Refuses a material outside H1 and H2 and
    empty width or step lists."""
    require_hypothesis(sc.material, study)
    if not sc.epsilon_list or not taus:
        raise ValueError(f"{study} needs nonempty eps and tau lists")
    ribbon = RibbonSystem(sc.mesh1(), sc.material, sc.boundary, sc.forces)
    u0 = ribbon.interpolate(*sc.initial)
    traj1 = {tau: run_trajectory(ribbon, u0, tau, sc.T, sc.solver) for tau in taus}
    inputs = RecoveryInputs(ribbon.state(u0), sc.cutoff_width)
    mesh2 = sc.mesh2()

    def widths():
        for eps in sc.epsilon_list:
            plate = PlateSystem(mesh2, eps, sc.material, sc.boundary, sc.forces)
            w0 = build_recovery(plate, inputs)
            yield eps, plate, w0, {
                tau: run_trajectory(plate, w0, tau, sc.T, sc.solver) for tau in taus
            }

    return ribbon, u0, traj1, widths()


def epsilon_study(sc: Scenario) -> StudyReport:
    """Distance between the projected 2D discrete flow and the 1D discrete
    flow at the sample times, for each width of ``sc.epsilon_list``, at the
    time step ``sc.tau``.

    2D initial data is the recovery state of the 1D initial datum, so the
    initial energies converge along the sweep by construction; the summary
    holds their gaps per width.
    """
    ribbon, u0, ribbon_runs, widths = _sweep(sc, "epsilon_study", [sc.tau])
    traj1 = ribbon_runs[sc.tau]
    report = StudyReport(
        kind="epsilon_study",
        columns=[
            "eps",
            "t",
            "d0_projected",
            "energy_2d",
            "energy_1d",
            "gamma_l2",
            "E12_l2",
            "E22_l2",
        ],
    )
    # t = 0 row measures the static recovery projection error
    times = [0.0] + [f * sc.T for f in SAMPLE_FRACTIONS]
    gap0 = {}
    for eps, plate, w0, traj2 in widths:
        gap0[eps] = abs(plate.energy(w0) - ribbon.energy(u0))
        for t in times:
            s2 = traj2[sc.tau].at_time(t)
            s1 = traj1.at_time(t)
            diag = _projection_diag(plate, s2)
            report.add(
                eps,
                t,
                plate.d0_projected(s2, ribbon, s1),
                plate.energy(s2),
                ribbon.energy(s1),
                diag["gamma_l2"],
                diag["E12_l2"],
                diag["E22_l2"],
            )
    report.summary = {"initial_energy_gap": gap0}
    return report


# ---------------------------------------------------------------------------
# commutativity of the two limits


def commutativity_report(sc: Scenario) -> StudyReport:
    """Both refinement paths of the (eps, tau) diagram over the widths of
    ``sc.epsilon_list`` and the time steps of ``sc.tau_list``.

    For every grid pair the table carries the horizontal leg (2D vs 1D at
    equal tau), the two vertical legs (tau-refinement at fixed eps / in
    1D), the diagonal gap against the doubly refined reference, and the
    discrepancy between the two path sums.
    """
    tau_list = sc.tau_list
    ribbon, _, traj1, widths = _sweep(sc, "commutativity_report", tau_list)
    tau_min = min(tau_list)
    report = StudyReport(
        kind="commutativity",
        columns=[
            "eps",
            "tau",
            "t",
            "horizontal_leg",
            "tau_leg_1d",
            "tau_leg_2d",
            "diagonal",
            "path_discrepancy",
        ],
    )
    times = [f * sc.T for f in SAMPLE_FRACTIONS]
    for eps, plate, _, traj2 in widths:
        # the horizontal leg at the finest step depends on (eps, t) only
        fine = traj2[tau_min]
        horiz_fine = {
            t: plate.d0_projected(fine.at_time(t), ribbon, traj1[tau_min].at_time(t)) for t in times
        }
        for tau in tau_list:
            for t in times:
                s2 = traj2[tau].at_time(t)
                horiz = plate.d0_projected(s2, ribbon, traj1[tau].at_time(t))
                leg1d = ribbon.metric(traj1[tau].at_time(t), traj1[tau_min].at_time(t))
                leg2d = plate.metric(s2, fine.at_time(t))
                diag = plate.d0_projected(s2, ribbon, traj1[tau_min].at_time(t))
                report.add(
                    eps,
                    tau,
                    t,
                    horiz,
                    leg1d,
                    leg2d,
                    diag,
                    abs((horiz + leg1d) - (leg2d + horiz_fine[t])),
                )
    return report


# ---------------------------------------------------------------------------
# static recovery-energy convergence


def gamma_check(
    material: MaterialPair,
    targets: dict,
    eps_list,
    mesh1: Mesh1D,
    mesh2: Mesh2D,
    bc: BoundaryData | None = None,
    cutoff_width: float = 0.1,
) -> StudyReport:
    """|phi_eps(recovery) - phi_0(target)| per target and width, with the
    fitted order over the last three widths."""
    bc = bc or BoundaryData.zero()
    ribbon = RibbonSystem(mesh1, material, bc)
    report = StudyReport(
        kind="gamma_check",
        columns=["target", "eps", "energy_2d", "energy_1d", "error"],
    )
    orders = {}
    for name, polys in targets.items():
        v = ribbon.interpolate(*polys)
        phi0 = ribbon.energy(v)
        inputs = RecoveryInputs(ribbon.state(v), cutoff_width)
        errs = []
        for eps in eps_list:
            plate = PlateSystem(mesh2, eps, material, bc)
            u = build_recovery(plate, inputs)
            e = plate.energy(u)
            errs.append(abs(e - phi0))
            report.add(name, eps, e, phi0, errs[-1])
        orders[name] = fit_order(eps_list, errs)
    report.summary = {"orders": orders}
    return report


# ---------------------------------------------------------------------------
# generalized geodesics


def geodesic_convexity_check(
    system: RibbonSystem,
    u0_pool,
    u1_pool,
    n_samples: int,
    seed: int = 0,
) -> StudyReport:
    """Smallest constant C for which the interpolation inequalities

        D(u0, u_s) <= s sqrt(D^2 + C D^3 + C D^4)
        phi(u_s) <= (1-s) phi(u0) + s phi(u1)
                    + s (C sqrt(M) D^2 + C D^3 + C D^4)

    hold over all sampled pairs and the interpolation fractions S_GRID,
    with M the largest energy of the u0 pool and u_s the DOF-linear
    interpolation.  Both sides of each inequality, with its round-off
    slack, are affine in C with a nonnegative slope, so each holds from
    one threshold on and C is the largest threshold of the samples.
    Raises RuntimeError when a sample fails at every C (zero slope).
    """
    rng = np.random.default_rng(seed)
    M = max(system.energy(u) for u in u0_pool)
    pairs = []
    for _ in range(n_samples):
        a = u0_pool[rng.integers(len(u0_pool))]
        b = u1_pool[rng.integers(len(u1_pool))]
        pairs.append((a, b))

    samples = []
    for a, b in pairs:
        D = system.metric(a, b)
        pa, pb = system.energy(a), system.energy(b)
        for s in S_GRID:
            us = (1.0 - s) * a + s * b
            samples.append(
                (D, system.metric(a, us), pa, pb, system.energy(us), s)
            )
    samples = np.array(samples)
    D, Ds, pa, pb, ps, s = samples.T
    sqrtM = np.sqrt(max(M, 0.0))

    # each sample holds iff need <= C gain, gain >= 0; first inequality:
    # Ds^2 <= (1 + 1e-12) s^2 (D^2 + C (D^3 + D^4)) + 1e-14
    need1 = Ds**2 - 1e-14 - (1.0 + 1e-12) * s**2 * D**2
    gain1 = (1.0 + 1e-12) * s**2 * (D**3 + D**4)
    # second: ps <= r + 1e-12 (1 + |r|), increasing in r = base + C gain2,
    # holds iff r >= r_min
    base = (1.0 - s) * pa + s * pb
    r_min = (ps - 1e-12) / np.where(ps >= 1e-12, 1.0 + 1e-12, 1.0 - 1e-12)
    gain2 = s * (sqrtM * D**2 + D**3 + D**4)
    need, gain = np.concatenate([need1, r_min - base]), np.concatenate([gain1, gain2])
    thresholds = np.where(need > 0.0, np.inf, 0.0)
    np.divide(need, gain, out=thresholds, where=gain > 0.0)
    C = float(max(thresholds.max(), 0.0))
    if not np.isfinite(C):
        raise RuntimeError("a sample fails the interpolation inequalities at every constant")

    report = StudyReport(
        kind="geodesic_convexity",
        columns=["D", "D_to_interp", "phi_u0", "phi_u1", "phi_interp", "s"],
        rows=[tuple(r) for r in samples],
    )
    report.summary = {"C": C, "M": M, "n_samples": n_samples}
    return report


# ---------------------------------------------------------------------------
# slope consistency along a trajectory


def slope_consistency(system: RibbonSystem, traj: Trajectory) -> StudyReport:
    """Per accepted step: slope^2 against the squared metric rate and the
    agreement of the two slope code paths."""
    report = StudyReport(
        kind="slope_consistency",
        columns=["n", "t", "slope_sq", "rate_sq", "ratio", "representation_gap"],
    )
    tau = traj.tau
    for n in range(1, traj.n_steps + 1):
        sol = system.slope_solution(traj.states[n])
        rate_sq = (traj.reports[n].dist / tau) ** 2
        ratio = sol.value**2 / rate_sq if rate_sq > 0 else float("nan")
        report.add(n, n * tau, sol.value**2, rate_sq, ratio, abs(sol.representation - sol.value))
    ratios = report.column("ratio")
    report.summary = {"final_ratio": float(ratios[-1]) if ratios.size else float("nan")}
    return report


# ---------------------------------------------------------------------------
# decoupling checks


def decoupling_checks(
    material: MaterialPair,
    mesh1: Mesh1D,
    tau: float,
    T: float,
    options: SolverOptions | None = None,
) -> StudyReport:
    """(a) the xi2 flow with zero boundary data contracts by the exact
    implicit-Euler factor each step and is unaffected by the other fields;
    (b) for vanishing-argmin materials the twist trajectory is independent
    of the deflection data."""
    system = RibbonSystem(mesh1, material)
    bump = np.polynomial.Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
    xi2_only = system.interpolate((0.0,), bump, (0.0,), (0.0,))
    rho = 1.0 / (1.0 + tau * material.W0.C0 / material.R0.C0)
    traj = run_trajectory(system, xi2_only, tau, T, options)
    sl = system.slices["xi2"]
    factor_gap = 0.0
    for n in range(1, traj.n_steps + 1):
        gap = np.linalg.norm(traj.states[n][sl] - rho * traj.states[n - 1][sl])
        factor_gap = max(
            factor_gap, float(gap / max(np.linalg.norm(traj.states[n - 1][sl]), 1e-30))
        )

    # same xi2 data, different companion fields
    mixed = system.interpolate(
        0.4 * np.polynomial.Polynomial.fromroots([-0.5, 0.5]), bump, 1.5 * bump, 2.0 * bump
    )
    traj_mixed = run_trajectory(system, mixed, tau, T, options)
    xi2_gap = max(
        float(np.abs(traj.states[n][sl] - traj_mixed.states[n][sl]).max())
        for n in range(traj.n_steps + 1)
    )

    # twist independence from the deflection data (needs vanishing argmins)
    theta_gap = float("nan")
    if material.hypothesis == "H1":
        a = system.interpolate((0.0,), (0.0,), 1.0 * bump, 3.0 * bump)
        b = system.interpolate((0.0,), (0.0,), 2.5 * bump, 3.0 * bump)
        ta = run_trajectory(system, a, tau, T, options)
        tb = run_trajectory(system, b, tau, T, options)
        slt = system.slices["theta"]
        theta_gap = max(
            float(np.abs(ta.states[n][slt] - tb.states[n][slt]).max())
            for n in range(ta.n_steps + 1)
        )

    final = traj.states[-1][sl]
    exact = np.exp(-T * material.W0.C0 / material.R0.C0) * xi2_only[sl]
    final_rel = float(
        np.linalg.norm(final - exact) / max(np.linalg.norm(exact), 1e-30)
    )

    report = StudyReport(
        kind="decoupling",
        columns=["check", "value"],
        rows=[
            ("per_step_factor_gap", factor_gap),
            ("xi2_invariance_gap", xi2_gap),
            ("theta_invariance_gap", theta_gap),
            ("final_vs_continuous_rel", final_rel),
        ],
    )
    report.summary = {r[0]: r[1] for r in report.rows}
    return report
