"""Incremental variational time stepping for metric gradient systems.

One step solves

    u_{n+1} = argmin_v  Phi(tau, u_n; v),
    Phi(tau, u; v) = D(v, u)^2 / (2 tau) + phi(v)

by a Newton iteration with Armijo backtracking.  The incremental problem
assembles each Hessian straight into the band storage of its fixed
pattern and solves for the Newton direction by banded Cholesky there;
a Hessian that is not positive definite (the membrane part can be
indefinite far from minimizers) goes to SuperLU instead, and when that
direction fails to descend the step falls back to scaled gradient
descent.  The accepted point obeys the one-step energy inequality
phi(u_{n+1}) + D^2/(2 tau) <= phi(u_n).

The anchor u_n is fixed for the whole step, so the stepper asks the
system once for the incremental problem v -> Phi(tau, u_n; v) and works
on that object alone: it keeps the anchor's strain channels and those of
the last trial point, and each trial point is evaluated once for its
value, gradient and Hessian.  Any object exposing the small
GradientSystem surface below can be advanced; the ribbon and plate
systems both do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class GradientSystem(Protocol):
    """Minimal interface consumed by the stepper and the trajectory driver.

    DOF vectors are flat; ``free`` masks the unconstrained entries
    (Dirichlet DOFs stay untouched).  ``energy`` is phi, read once per
    trajectory.  ``incremental(anchor, tau)`` is the functional
    Phi(v) = phi(v) + D^2(anchor, v) / (2 tau) of one step, with methods
    ``parts(v)`` -> (phi(v), D^2(anchor, v)), ``value(v)`` -> Phi(v),
    ``grad(v)``, the full-size DOF gradient with zero constrained entries,
    ``hessian(v)``, a symmetric matrix on the free DOFs with
    ``diagonal()`` and ``tocsc()`` (a scipy sparse matrix qualifies; the
    field systems return their band storage), and ``solve(H, rhs)`` ->
    H^{-1} rhs for such a matrix, or None when H is not positive definite
    (the stepper then runs SuperLU on ``H.tocsc()``).  D^2 must be
    symmetric, nonnegative and zero exactly on the diagonal; the gradients
    must be consistent with finite differences of the values.
    """

    n_dofs: int
    free: np.ndarray

    def energy(self, u: np.ndarray) -> float: ...

    def incremental(self, anchor: np.ndarray, tau: float): ...


class StepFailure(RuntimeError):
    def __init__(self, step_index: int, message: str):
        super().__init__(f"incremental step {step_index}: {message}")
        self.step_index = step_index


# Armijo halvings per line search before the stepper switches to polishing
MAX_BACKTRACK = 40


@dataclass
class SolverOptions:
    tol: float = 1e-10
    max_newton: int = 50
    armijo: float = 1e-4

    def __post_init__(self):
        if self.tol <= 0.0 or self.armijo <= 0.0:
            raise ValueError("solver tolerances must be positive")


@dataclass
class StepReport:
    energy: float
    dist: float
    newton_iters: int
    grad_norm: float
    used_fallback: bool = False
    slope: float = float("nan")


@dataclass
class Trajectory:
    """Minimizing-movement iterates with the per-step ledger.

    The piecewise-constant interpolant takes the value U^n on the
    interval ((n-1) tau, n tau] and U^0 at t = 0.
    """

    tau: float
    T: float
    states: list
    reports: list

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1

    def index_at(self, t: float) -> int:
        if t <= 0.0:
            return 0
        n = int(np.ceil(t / self.tau - 1e-9))
        return min(max(n, 0), self.n_steps)

    def at_time(self, t: float) -> np.ndarray:
        return self.states[self.index_at(t)]

    def energies(self) -> np.ndarray:
        return np.array([r.energy for r in self.reports])

    def ledger_rows(self):
        """Rows (n, t, energy, step_dist, slope, phi_residual, newton_iters)."""
        rows = []
        for n, r in enumerate(self.reports):
            rows.append(
                (n, n * self.tau, r.energy, r.dist, r.slope, r.grad_norm, r.newton_iters)
            )
        return rows


def _superlu_solve(H: sp.csc_matrix, rhs: np.ndarray):
    """SuperLU solve with Jacobi equilibration and one refinement pass, or
    None when H is exactly singular.

    The scaling multiplies the CSC data directly, so the matrix reaches
    SuperLU without a conversion."""
    scale = 1.0 / np.sqrt(np.maximum(np.abs(H.diagonal()), 1e-300))
    data = H.data * scale[H.indices] * np.repeat(scale, np.diff(H.indptr))
    Hs = sp.csc_matrix((data, H.indices, H.indptr), shape=H.shape)
    b = rhs * scale
    try:
        lu = spla.splu(Hs)
    except RuntimeError:
        return None
    x = lu.solve(b)
    x = x + lu.solve(b - Hs @ x)
    return x * scale


def _solve_spd(problem, H, rhs: np.ndarray) -> np.ndarray:
    """Newton direction H^{-1} rhs, or None when no direct solve gives one.

    The problem's banded Cholesky solves when H is positive definite; only
    a matrix it rejects reaches SuperLU, as a CSC copy.  Each path makes one refinement
    pass, which recovers digits lost to the conditioning of the stiffest
    (bending / small-eps) blocks."""
    x = problem.solve(H, rhs)
    if x is None:
        x = _superlu_solve(H.tocsc(), rhs)
    if x is None or not np.all(np.isfinite(x)):
        return None
    return x


def incremental_step(
    system: GradientSystem,
    tau: float,
    u_prev: np.ndarray,
    options: SolverOptions | None = None,
    step_index: int = 0,
) -> tuple[np.ndarray, StepReport]:
    """Solve one incremental minimization from the warm start u_prev."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    opts = options or SolverOptions()
    problem = system.incremental(u_prev, tau)
    free = system.free

    u = np.array(u_prev, dtype=float, copy=True)
    phi_prev = problem.parts(u)[0]
    scale = 1.0 + abs(phi_prev)
    phi_u = phi_prev
    used_fallback = False

    g = problem.grad(u)
    iters = 0
    polish = False
    polish_left = 4
    while True:
        gnorm = float(np.linalg.norm(g[free]))
        if gnorm <= opts.tol * scale:
            break
        if iters >= opts.max_newton:
            raise StepFailure(
                step_index,
                f"Newton did not converge in {opts.max_newton} iterations "
                f"(|grad| = {gnorm:.3e}, tol = {opts.tol * scale:.3e})",
            )
        Hff = problem.hessian(u)
        d_free = _solve_spd(problem, Hff, -g[free])
        slope0 = None
        if d_free is not None:
            slope0 = float(np.dot(g[free], d_free))
        if d_free is None or slope0 >= 0.0:
            # Jacobi-scaled steepest descent keeps the trial step bounded
            d_free = -g[free] / np.maximum(np.abs(Hff.diagonal()), 1e-300)
            slope0 = float(np.dot(g[free], d_free))
            used_fallback = True
        step = np.zeros_like(u)
        step[free] = d_free

        # once the predicted decrease is below evaluation noise the line
        # search is blind; polish the gradient with plain Newton steps
        if polish or 0.5 * abs(slope0) <= 1e-14 * scale:
            if polish_left == 0 or used_fallback:
                break
            polish = True
            polish_left -= 1
            cand = u + step
            g_cand = problem.grad(cand)
            if float(np.linalg.norm(g_cand[free])) >= 0.9 * gnorm:
                break
            u = cand
            g = g_cand
            phi_u = problem.value(u)
            iters += 1
            continue

        alpha = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACK):
            cand = u + alpha * step
            phi_cand = problem.value(cand)
            if phi_cand <= phi_u + opts.armijo * alpha * slope0:
                u = cand
                phi_u = phi_cand
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # switch to the polishing phase instead of failing outright
            polish = True
            continue
        g = problem.grad(u)
        iters += 1

    gnorm = float(np.linalg.norm(g[free]))
    if gnorm > 10.0 * opts.tol * scale:
        raise StepFailure(
            step_index,
            f"stalled at |grad| = {gnorm:.3e} (> 10x tolerance {opts.tol * scale:.3e})",
        )
    # variational comparison with the warm start: the one-step inequality
    phi_u = problem.value(u)
    if phi_u > phi_prev + 1e-9:
        raise StepFailure(
            step_index,
            f"one-step energy inequality violated: {phi_u:.15e} > {phi_prev:.15e}",
        )
    energy, d2 = problem.parts(u)
    report = StepReport(
        energy=float(energy),
        dist=float(np.sqrt(max(d2, 0.0))),
        newton_iters=iters,
        grad_norm=float(np.linalg.norm(g[free])),
        used_fallback=used_fallback,
    )
    return u, report


def run_trajectory(
    system: GradientSystem,
    u0: np.ndarray,
    tau: float,
    T: float,
    options: SolverOptions | None = None,
    slope_fn: Callable[[np.ndarray], float] | None = None,
) -> Trajectory:
    """Advance the minimizing-movement scheme over N = ceil(T / tau) steps.

    Each step's report carries the norm of the incremental gradient on the
    free DOFs at the accepted point; a slope evaluator fills the ledger
    column used by the De Giorgi bookkeeping.
    """
    if T <= 0.0:
        raise ValueError("horizon T must be positive")
    opts = options or SolverOptions()
    n_steps = int(np.ceil(T / tau - 1e-12))
    u = np.array(u0, dtype=float, copy=True)
    states = [u.copy()]
    first = StepReport(
        energy=float(system.energy(u)),
        dist=0.0,
        newton_iters=0,
        grad_norm=float("nan"),
        slope=float(slope_fn(u)) if slope_fn else float("nan"),
    )
    reports = [first]
    prev_energy = first.energy
    for n in range(1, n_steps + 1):
        u_next, rep = incremental_step(system, tau, u, opts, step_index=n)
        if rep.energy > prev_energy + 1e-9:
            raise StepFailure(n, "energy sequence not monotone")
        if slope_fn is not None:
            rep.slope = float(slope_fn(u_next))
        states.append(u_next.copy())
        reports.append(rep)
        prev_energy = rep.energy
        u = u_next
    return Trajectory(tau=tau, T=T, states=states, reports=reports)


@dataclass
class DissipationLedger:
    """De Giorgi bookkeeping of a discrete trajectory.

    residual = sum_n tau/2 (D_n / tau)^2 + sum_n tau/2 slope(U^n)^2
             + phi(U^N) - phi(U^0);
    nonpositive at finite tau for the schemes considered here and
    vanishing under tau-refinement.
    """

    tau: float
    velocity_term: float
    slope_term: float
    energy_drop: float
    residual: float
    rows: list = field(default_factory=list)


def dissipation_ledger(
    system: GradientSystem, traj: Trajectory, slope_fn: Callable[[np.ndarray], float]
) -> DissipationLedger:
    tau = traj.tau
    vel = 0.0
    slo = 0.0
    rows = []
    for n in range(1, traj.n_steps + 1):
        rep = traj.reports[n]
        s = rep.slope
        if not np.isfinite(s):
            s = float(slope_fn(traj.states[n]))
        vel += 0.5 * tau * (rep.dist / tau) ** 2
        slo += 0.5 * tau * s**2
        rows.append((n, n * tau, rep.dist, s, rep.energy))
    phi0 = traj.reports[0].energy
    phiN = traj.reports[-1].energy
    res = vel + slo + phiN - phi0
    return DissipationLedger(
        tau=tau,
        velocity_term=vel,
        slope_term=slo,
        energy_drop=phiN - phi0,
        residual=res,
        rows=rows,
    )
