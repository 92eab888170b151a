"""The three workloads: inputs made from the seed, set-up, the timed
computation, the clock that times its operations, and its correctness gates.

Each workload is a closed-loop batch job, one caller in one process,
run to completion.  Calls go through module attributes (``flow.run_trajectory``,
``studies.gamma_check``, ``cli.main``) so that the tracing wrappers and
the operation clocks see them.
"""

from __future__ import annotations

import csv
import shutil
import time

import numpy as np
from numpy.polynomial import Polynomial

from vkribbon import cli, config, flow, plate, studies
from vkribbon.fem import Mesh1D, Mesh2D
from vkribbon.flow import SolverOptions, StepFailure
from vkribbon.forms import MaterialPair
from vkribbon.plate import PlateSystem, RecoveryInputs
from vkribbon.ribbon import RibbonSystem

BUMP = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
PARABOLA = Polynomial.fromroots([-0.5, 0.5])
# seeds other than 0 scale each initial-data amplitude by a factor in
# [1 - band, 1 + band]; seed 0 keeps the acceptance fixtures exactly
AMPLITUDE_BAND = 0.02


def amplitude_factors(seed: int, k: int) -> np.ndarray:
    if seed == 0:
        return np.ones(k)
    return 1.0 + AMPLITUDE_BAND * np.random.default_rng(seed).uniform(-1.0, 1.0, k)


def coeffs(poly: Polynomial) -> tuple:
    return tuple(float(c) for c in poly.coef)


def h1_material() -> MaterialPair:
    """The acceptance material: isotropic, mu = 1, lambda = 0 for both forms."""
    return MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)


class StepClock:
    """Times every incremental step that flow.run_trajectory takes.

    The wrapper sits where run_trajectory resolves ``incremental_step``
    and costs two clock reads per step.
    """

    def __init__(self):
        self.latencies: list = []
        self.reports: list = []
        self.failures = 0

    def install(self, patches) -> None:
        step = flow.incremental_step

        def timed_step(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = step(*args, **kwargs)
            except StepFailure:
                self.failures += 1
                raise
            self.latencies.append(time.perf_counter() - t0)
            self.reports.append(out[1])
            return out

        patches.set(flow, "incremental_step", timed_step)


class EvaluationClock:
    """Times every (target, width) evaluation of studies.gamma_check.

    An evaluation opens when gamma_check constructs its PlateSystem and
    closes at the next construction or at the order fit that ends the
    target, so it covers construction, build_recovery and energy.
    """

    def __init__(self):
        self.latencies: list = []
        self.reports: list = []
        self.failures = 0
        self._open = None

    def _close(self) -> None:
        if self._open is not None:
            self.latencies.append(time.perf_counter() - self._open)
            self._open = None

    def install(self, patches) -> None:
        build = studies.PlateSystem
        fit = studies.fit_order

        def plate_system(*args, **kwargs):
            self._close()
            self._open = time.perf_counter()
            return build(*args, **kwargs)

        def fit_order(*args, **kwargs):
            self._close()
            return fit(*args, **kwargs)

        patches.set(studies, "PlateSystem", plate_system)
        patches.set(studies, "fit_order", fit_order)


class Workload:
    """Made from (seed, workdir); keeps its amplitude factors in ``factors``."""

    name = ""
    why = ""
    op = ""  # what one timed operation is
    nominal_repeat_s = 1.0  # one set-up + solve round on a 2-core x86 machine
    clock_type = StepClock

    def probe(self, tally) -> None:
        """Untimed, untraced checks that count towards failed_share."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def solve(self, state):
        raise NotImplementedError

    def check(self, state, result, tally) -> None:
        raise NotImplementedError


class PlateFlow(Workload):
    name = "plate_flow"
    why = (
        "2D minimizing movement where plate Hessian assembly and LU dominate "
        "and the ribbon module stays idle"
    )
    op = "accepted incremental step"
    nominal_repeat_s = 16.5
    N, NY, EPS, TAU, T, TOL = 48, 8, 0.05, 0.02, 1.0, 1e-8
    INEQUALITY_SLACK = 1e-9  # criterion 04

    def __init__(self, seed, workdir):
        f = self.factors = amplitude_factors(seed, 4)
        # criterion-09 datum: xi1, xi2, w, theta
        self.datum = (
            coeffs(f[0] * 0.5 * PARABOLA),
            coeffs(f[1] * 0.3 * BUMP),
            coeffs(f[2] * 2.0 * BUMP),
            coeffs(f[3] * 4.0 * BUMP),
        )

    def setup(self):
        material = h1_material()
        ribbon = RibbonSystem(Mesh1D(l=1.0, n=self.N), material)
        v0 = ribbon.interpolate(*self.datum)
        system = PlateSystem(Mesh2D(l=1.0, nx=self.N, ny=self.NY), self.EPS, material)
        return system, plate.build_recovery(system, RecoveryInputs(ribbon.state(v0)))

    def warm_up(self):
        system, u0 = self.setup()
        flow.incremental_step(system, self.TAU, u0, SolverOptions(tol=self.TOL))

    def solve(self, state):
        system, u0 = state
        try:
            return flow.run_trajectory(system, u0, self.TAU, self.T, SolverOptions(tol=self.TOL))
        except StepFailure as exc:
            return exc

    def check(self, state, traj, tally):
        if isinstance(traj, StepFailure):
            tally.record("energy_inequality", False, f"no trajectory: {traj}")
            tally.record("final_tolerance", False, f"no trajectory: {traj}")
            return
        system = state[0]
        u = traj.states
        energies = [system.energy(v) for v in u]
        worst = max(
            energies[n] + system.sqdist(u[n - 1], u[n]) / (2.0 * self.TAU) - energies[n - 1]
            for n in range(1, len(u))
        )
        tally.record(
            "energy_inequality",
            worst <= self.INEQUALITY_SLACK,
            f"phi(u_n) + D^2/(2 tau) exceeds phi(u_n-1) by {worst:.3e}",
        )
        g = system.grad_energy(u[-1]) + system.grad_halfsqdist(u[-2], u[-1]) / self.TAU
        gnorm = float(np.linalg.norm(g[system.free]))
        limit = 10.0 * self.TOL * (1.0 + abs(energies[-2]))
        tally.record("final_tolerance", gnorm <= limit, f"|grad| = {gnorm:.3e} > {limit:.3e}")


class RibbonTauStudy(Workload):
    name = "ribbon_tau_study"
    why = (
        "in-process CLI tau-study: small 1D sparse systems bound by per-call "
        "overhead, the slope solve and the config/io/cli path; plate idle"
    )
    op = "accepted incremental step"
    nominal_repeat_s = 4.5
    N1D, T = 24, 0.8
    TAUS = (0.08, 0.04, 0.02, 0.01, 0.005)
    MAX_HALVING_RATIO = 0.7  # criterion 05
    PROBE_N1D = (32, 64, 128, 256)
    PROBE_TAU, PROBE_STEPS = 0.01, 3
    PROBE_DATA = {
        "readme_quick_start": ((0.0,), (0.0625, 0.0, -0.5, 0.0, 1.0), (0.0,), (0.0,)),
        "acceptance": ((0.0,), (0.0,), coeffs(2.0 * BUMP), coeffs(4.0 * BUMP)),
    }

    def __init__(self, seed, workdir):
        f = self.factors = amplitude_factors(seed, 2)
        self.cfg = workdir / "tau_study.cfg"
        self.out = workdir / "tau_study_out"
        self.csv = self.out / "tau_study.csv"
        shutil.rmtree(self.out, ignore_errors=True)
        workdir.mkdir(parents=True, exist_ok=True)
        # criterion-05 scenario; the CLI defaults give material H1 and tol 1e-10
        text = (
            "[mesh]\n"
            f"n1d = {self.N1D}\n"
            "[time]\n"
            f"tau_list = {' '.join(repr(t) for t in self.TAUS)}\n"
            f"T = {self.T!r}\n"
            "[forces]\n"
            "f = 1.0 0.5\n"
            "[initial]\n"
            f"xi1 = {' '.join(repr(c) for c in coeffs(f[0] * 0.3 * PARABOLA))}\n"
            f"w = {' '.join(repr(c) for c in coeffs(f[1] * 1.2 * BUMP))}\n"
        )
        self.cfg.write_text(text)

    def probe(self, tally):
        """README defaults (tau = 0.01, tol = 1e-10) on a range of meshes."""
        material = h1_material()
        horizon = self.PROBE_STEPS * self.PROBE_TAU
        for label, datum in self.PROBE_DATA.items():
            for n in self.PROBE_N1D:
                system = RibbonSystem(Mesh1D(l=1.0, n=n), material)
                detail = ""
                try:
                    flow.run_trajectory(system, system.interpolate(*datum), self.PROBE_TAU, horizon)
                except StepFailure as exc:
                    detail = str(exc)
                tally.record(f"probe {label} n1d={n}", not detail, detail, probe=True)

    def setup(self):
        sc = config.load_scenario(str(self.cfg))
        system = RibbonSystem(sc.mesh1(), sc.material, sc.boundary, sc.forces)
        return system, system.interpolate(*sc.initial)

    def warm_up(self):
        system, u0 = self.setup()
        flow.incremental_step(system, self.TAUS[0], u0)
        system.local_slope(u0)

    def solve(self, state):
        return cli.main(["tau-study", str(self.cfg), "--out", str(self.out), "--quiet"])

    def _residuals(self) -> dict:
        with open(self.csv) as f:
            rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
        return {round(float(r["tau"]), 12): float(r["degiorgi_residual"]) for r in rows}

    def check(self, state, rc, tally):
        tally.record("exit_code", rc == 0, f"tau-study exited with {rc}")
        residuals = self._residuals() if self.csv.exists() else {}
        # a later repeat must not read this repeat's table
        self.csv.unlink(missing_ok=True)
        for tau in self.TAUS[:-1]:
            coarse = residuals.get(round(tau, 12))
            fine = residuals.get(round(tau / 2, 12))
            if coarse is None or fine is None:
                tally.record("residual_halving", False, f"no residual for tau = {tau}")
                continue
            ratio = abs(fine) / abs(coarse)
            tally.record(
                "residual_halving",
                ratio <= self.MAX_HALVING_RATIO,
                f"|R({tau / 2})|/|R({tau})| = {ratio:.3f}",
            )


class RecoveryGamma(Workload):
    name = "recovery_gamma"
    why = (
        "gamma_check uses the plate as an evaluator: construction-bound, "
        "no Newton and no LU, so work moved into construction shows here"
    )
    op = "(target, width) evaluation"
    nominal_repeat_s = 1.25
    clock_type = EvaluationClock
    N, NY = 256, 4
    EPS = (0.2, 0.1, 0.05, 0.025)
    MIN_ORDER = {"generic": 1.0, "twist_only": 1.8}  # criterion 08

    def __init__(self, seed, workdir):
        f = self.factors = amplitude_factors(seed, 5)
        self.targets = {
            "generic": (
                coeffs(f[0] * 0.5 * PARABOLA),
                coeffs(f[1] * 0.2 * BUMP),
                coeffs(f[2] * 2.0 * BUMP),
                coeffs(f[3] * 6.0 * BUMP),
            ),
            "twist_only": ((0.0,), (0.0,), (0.0,), coeffs(f[4] * 4.0 * BUMP)),
        }

    def setup(self):
        """The inputs, plus what gamma_check builds before its first
        evaluation: the 1D system and each target's state and energy."""
        material = h1_material()
        mesh1 = Mesh1D(l=1.0, n=self.N)
        ribbon = RibbonSystem(mesh1, material)
        for polys in self.targets.values():
            ribbon.energy(ribbon.interpolate(*polys))
        return material, mesh1, Mesh2D(l=1.0, nx=self.N, ny=self.NY)

    def warm_up(self):
        studies.gamma_check(
            h1_material(), self.targets, self.EPS[:2], Mesh1D(l=1.0, n=16), Mesh2D(l=1.0, nx=16, ny=2)
        )

    def solve(self, state):
        material, mesh1, mesh2 = state
        return studies.gamma_check(material, self.targets, self.EPS, mesh1, mesh2)

    def check(self, state, rep, tally):
        for name, min_order in self.MIN_ORDER.items():
            errs = [row[4] for row in rep.rows if row[0] == name]
            tally.record(
                "errors_decrease",
                len(errs) == len(self.EPS) and all(a > b for a, b in zip(errs, errs[1:])),
                f"{name}: errors {errs}",
            )
            order = rep.summary["orders"][name]
            tally.record("order", order >= min_order, f"{name}: order {order:.3f} < {min_order}")


WORKLOADS = {w.name: w for w in (PlateFlow, RibbonTauStudy, RecoveryGamma)}
