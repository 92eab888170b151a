"""Incremental variational time stepping for metric gradient systems.

One step solves

    u_{n+1} = argmin_v  Phi(tau, u_n; v),
    Phi(tau, u; v) = D(v, u)^2 / (2 tau) + phi(v)

by a Newton iteration with Armijo backtracking.  Its one stopping rule is
the Newton decrement lambda^2 = g . H^{-1} g (Boyd & Vandenberghe, Convex
Optimization, sec. 9.5.1): once lambda^2 <= tol * scale, the full Newton
step is taken without a line search.  scale = |Phi(u_n)| + lambda_1^2 / 2,
lambda_1^2 being the first iteration's decrement, is nonzero on every
non-stationary step and scales with Phi, so a rescaling that multiplies
Phi by a constant (the moduli and loads together, or W and the loads by s
with tau by 1/s) leaves the iterates unchanged.  Each Hessian goes
straight into the band storage of its fixed pattern and is factored by
banded Cholesky.  One that is not positive definite (the membrane part is
indefinite under compression, and far from minimizers) is factored with
its diagonal raised by the first shift of SHIFTS that makes it so, in
units of |diag H| (Cholesky with added multiple of the identity; Nocedal &
Wright, Numerical Optimization, 2nd ed., Alg. 3.3).  Any positive
definite factor gives a descent direction, but only an unshifted one
certifies a local minimizer, so a step ends only on a direction from an
unshifted fresh factor (a second-order stop); a step no shift can factor
fails.  The accepted point obeys the one-step energy inequality
phi(u_{n+1}) + D^2/(2 tau) <= phi(u_n) up to tol * scale.

The Hessian barely changes from one iterate to the next, or from one step
to the next, so the last Cholesky factor of a trajectory is lent to the
iterations after it (the simplified Newton or chord method; Deuflhard,
Newton Methods for Nonlinear Problems, 2004, ch. 2).  Each iteration first
solves with the lent factor; its direction is taken while it contracts,
i.e. after a full step and with a decrement at most CONTRACTION times the
previous direction's (the first iteration of a step has no previous
direction).  Otherwise the lent factor is dropped and a fresh Hessian is
assembled and factored.  A lent decrement at or below tol * scale also
takes the fresh path, so the stop test and the final unsearched step
always use a fresh Hessian and keep Newton's quadratic final accuracy.
The held factor is the last fresh one, shifted or not; the Armijo search
guards the rest.

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
from importlib import import_module
from typing import Callable, Protocol

import numpy as np


def __getattr__(name: str):
    # spla, scipy.sparse.linalg, loads on first read; perfbench/layers.py traces its splu
    if name != "spla":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return import_module("scipy.sparse.linalg")


class GradientSystem(Protocol):
    """Minimal interface consumed by the stepper and the trajectory driver.

    DOF vectors are flat; ``free`` masks the unconstrained entries
    (Dirichlet DOFs stay untouched).  ``energy`` is phi, read once per
    trajectory.  ``incremental(anchor, tau)`` is the functional
    Phi(v) = phi(v) + D^2(anchor, v) / (2 tau) of one step, with methods
    ``parts(v)`` -> (phi(v), D^2(anchor, v)), ``value(v)`` -> Phi(v),
    ``grad(v)``, the full-size DOF gradient with zero constrained entries,
    ``hessian(v)``, a symmetric matrix on the free DOFs that only
    ``factor`` reads (the field systems return their band storage), and
    ``factor(H, shift)``, a solver r -> H^{-1} r for H + shift |diag H|,
    or None when that is not positive definite.  The stepper keeps the
    last solver and applies it to the gradients of later iterates and
    later steps, so it must stay valid when H and the problem are gone.
    D^2 must be symmetric, nonnegative and zero exactly on the diagonal; the
    gradients must be consistent with finite differences of the values.
    ``dissipation_ledger`` and ``Trajectory.ledger_rows`` also need
    ``local_slope(u)`` -> |dphi|(u), which the field systems inherit from
    FieldSystem.
    """

    n_dofs: int
    free: np.ndarray

    def energy(self, u: np.ndarray) -> float: ...

    def incremental(self, anchor: np.ndarray, tau: float): ...


class StepFailure(RuntimeError):
    def __init__(self, step_index: int, message: str):
        super().__init__(f"incremental step {step_index}: {message}")
        self.step_index = step_index


# Armijo halvings per line search before the step fails
MAX_BACKTRACK = 40
# a lent factor's direction is taken only while its decrement falls at least
# this much from the previous direction's, after a full step
CONTRACTION = 1.0 / 16.0
# diagonal shifts, in units of |diag H|, tried in turn on a fresh Hessian
SHIFTS = (0.0,) + tuple(1e-3 * 10.0**k for k in range(7))


@dataclass
class SolverOptions:
    tol: float = 1e-10
    max_newton: int = 50
    armijo: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not 0.0 < self.armijo < 1.0:
            raise ValueError(f"armijo must lie in (0, 1), got {self.armijo}")
        if self.max_newton < 0:
            raise ValueError(f"max_newton must be nonnegative, got {self.max_newton}")


@dataclass
class StepReport:
    energy: float
    dist: float
    newton_iters: int  # Newton steps taken, the final full step included
    grad_norm: float
    used_fallback: int = 0  # fresh Hessians that needed a diagonal shift
    scale: float = float("nan")  # |Phi(u_n)| + lambda_1^2 / 2, the step's unit of Phi
    factorizations: int = 0  # fresh Hessians assembled and factored


# the columns of Trajectory.ledger_rows, the header of ledger.csv
LEDGER_COLUMNS = (
    "n", "t", "energy", "step_dist", "slope", "phi_residual", "newton_iters", "factorizations"
)


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

    def ledger_rows(self, system: GradientSystem):
        """One row of LEDGER_COLUMNS per state; the slope is
        ``system.local_slope`` of the state."""
        rows = []
        for n, (u, r) in enumerate(zip(self.states, self.reports)):
            rows.append(
                (n, n * self.tau, r.energy, r.dist, float(system.local_slope(u)), r.grad_norm)
                + (r.newton_iters, r.factorizations)
            )
        return rows


@dataclass
class Chord:
    """The banded Cholesky solver r -> H^{-1} r of a trajectory's last fresh
    Hessian, lent to its next Newton iterations, across steps too; empty
    until the first fresh Hessian.

    ``run_trajectory`` makes one per trajectory, so a run does not depend
    on what ran before it on the same system."""

    solve: Callable[[np.ndarray], np.ndarray] | None = None


def _fresh_direction(problem, u: np.ndarray, rhs: np.ndarray, chord: Chord, step_index: int):
    """Newton direction from a fresh Hessian H(u), factored with the first
    shift of SHIFTS for which Cholesky accepts it; returns (direction,
    shifted).  The factor becomes the held solver; the old one is dropped
    before H is assembled, so at most one factor is alive."""
    chord.solve = None
    H = problem.hessian(u)
    for shift in SHIFTS:
        solve = chord.solve = problem.factor(H, shift)
        if solve is not None:
            return solve(rhs), shift > 0.0
    raise StepFailure(step_index, f"no shift up to {shift:g} |diag H| makes H positive definite")


def incremental_step(
    system: GradientSystem,
    tau: float,
    u_prev: np.ndarray,
    options: SolverOptions | None = None,
    step_index: int = 0,
    *,
    chord: Chord | None = None,
) -> tuple[np.ndarray, StepReport]:
    """Solve one incremental minimization from the warm start u_prev.

    ``chord`` holds the solver lent by earlier iterations; the step starts
    with none when it is not given, and leaves its last fresh one there."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    opts = options or SolverOptions()
    chord = chord if chord is not None else Chord()
    problem = system.incremental(u_prev, tau)
    free = system.free

    u = np.array(u_prev, dtype=float, copy=True)
    phi_prev = problem.parts(u)[0]
    phi_u = phi_prev
    scale = None
    used_fallback = 0
    # the previous direction's decrement and whether its full step was taken;
    # the previous step's last direction ends in its unsearched full step
    prev_decrement, full = np.inf, True
    factorizations = 0

    g = problem.grad(u)
    if not (np.isfinite(phi_prev) and np.isfinite(g[free]).all()):
        raise StepFailure(step_index, f"warm start state is not finite (Phi = {phi_prev:.3e})")
    iters = 0
    while True:
        rhs = -g[free]
        d_free = chord.solve(rhs) if chord.solve is not None else None
        if d_free is not None:
            decrement = float(np.dot(rhs, d_free))
            unit = scale if scale is not None else abs(phi_prev) + 0.5 * decrement
            # the chord is taken while it contracts; the stop test is always fresh
            if not (full and opts.tol * unit < decrement <= CONTRACTION * prev_decrement):
                d_free = None
        shifted = False
        if d_free is None:
            d_free, shifted = _fresh_direction(problem, u, rhs, chord, step_index)
            factorizations += 1
            used_fallback += shifted
            decrement = float(np.dot(rhs, d_free))
        if scale is None:
            # the step's unit of Phi: nonzero unless u_prev is stationary
            scale = abs(phi_prev) + 0.5 * decrement
        step = np.zeros_like(u)
        step[free] = d_free

        # only an unshifted fresh factor certifies a minimizer
        if not shifted and decrement <= opts.tol * scale:
            # a zero decrement means a zero gradient: u is already stationary
            if decrement > 0.0:
                u = u + step
                g = problem.grad(u)
                iters += 1
            break
        if iters >= opts.max_newton:
            raise StepFailure(
                step_index,
                f"Newton did not converge in {opts.max_newton} iterations "
                f"(decrement = {decrement:.3e}, tol = {opts.tol * scale:.3e})",
            )
        alpha = 1.0
        for _ in range(MAX_BACKTRACK):
            cand = u + alpha * step
            phi_cand = problem.value(cand)
            if phi_cand <= phi_u - opts.armijo * alpha * decrement:
                break
            alpha *= 0.5
        else:
            raise StepFailure(
                step_index,
                f"line search failed (decrement = {decrement:.3e}, "
                f"tol = {opts.tol * scale:.3e})",
            )
        u = cand
        phi_u = phi_cand
        g = problem.grad(u)
        iters += 1
        prev_decrement, full = decrement, alpha == 1.0

    # variational comparison with the warm start: the one-step inequality,
    # up to what the unsearched final step may change
    energy, d2 = problem.parts(u)
    phi_u = problem.value(u)
    if phi_u > phi_prev + opts.tol * scale:
        raise StepFailure(
            step_index,
            f"one-step energy inequality violated: {phi_u:.15e} > {phi_prev:.15e}",
        )
    report = StepReport(
        energy=float(energy),
        dist=float(np.sqrt(max(d2, 0.0))),
        newton_iters=iters,
        grad_norm=float(np.linalg.norm(g[free])),
        used_fallback=used_fallback,
        scale=scale,
        factorizations=factorizations,
    )
    return u, report


def run_trajectory(
    system: GradientSystem,
    u0: np.ndarray,
    tau: float,
    T: float,
    options: SolverOptions | None = None,
) -> Trajectory:
    """Advance the minimizing-movement scheme over N = ceil(T / tau) steps.

    Each step's report carries the norm of the incremental gradient on the
    free DOFs at the accepted point.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
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
    )
    reports = [first]
    prev_energy = first.energy
    chord = Chord()
    for n in range(1, n_steps + 1):
        u_next, rep = incremental_step(system, tau, u, opts, step_index=n, chord=chord)
        if rep.energy > prev_energy + opts.tol * rep.scale:
            raise StepFailure(n, "energy sequence not monotone")
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


def dissipation_ledger(system: GradientSystem, traj: Trajectory) -> DissipationLedger:
    """The ledger of traj; the slope of a step is ``system.local_slope`` of
    its state."""
    tau = traj.tau
    vel = 0.0
    slo = 0.0
    rows = []
    for n in range(1, traj.n_steps + 1):
        rep = traj.reports[n]
        s = float(system.local_slope(traj.states[n]))
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
