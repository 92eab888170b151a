"""The incremental problem of one time step, v -> phi(v) + D^2(anchor, v) / (2 tau).

Its value and gradient must agree with the public system methods (its
Hessian is checked against them in test_assembly.py), its channel cache
and the system's record of the last valued point must never serve a
stale point, a step must start from that record, the stepper must need
nothing from a system but ``incremental`` and ``free``, and no object it
builds may keep a system alive through a reference cycle.
"""

import gc
import weakref

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from vkribbon.fem import BoundaryData, IncrementalProblem, Mesh1D, Mesh2D
from vkribbon.flow import Chord, SolverOptions, incremental_step, run_trajectory
from vkribbon.forms import MaterialPair
from vkribbon.plate import PlateSystem
from vkribbon.ribbon import RibbonForces, RibbonSystem

BUMP = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
BC = BoundaryData.from_coeffs(u1=(0.0, 0.3), u2=(0.05, 0.1), v=(0.1, 0.2))
FORCES = RibbonForces.from_coeffs(f=(0.2, 0.5), g1=(0.1,), g2=(0.3,))
TAU = 0.05


def plate_system(eps):
    mat = MaterialPair.isotropic(1.0, 1.0, 1.0, 1.0, h2_family=True)
    return PlateSystem(Mesh2D(l=1.0, nx=12, ny=4), eps, mat, BC, FORCES)


def ribbon_system():
    mat = MaterialPair.isotropic(1.2, 0.5, 0.8, 0.3)
    return RibbonSystem(Mesh1D(l=1.0, n=12), mat, BC, FORCES)


SYSTEMS = {
    "plate eps=0.3": lambda: plate_system(0.3),
    "plate eps=0.05": lambda: plate_system(0.05),
    "ribbon": ribbon_system,
}


def random_state(system, rng, amp=0.2):
    u = system.zero_state()
    u[system.free] += amp * rng.standard_normal(int(system.free.sum()))
    return u


def rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("name", list(SYSTEMS))
class TestAgainstPublicMethods:
    def test_value_and_parts(self, name):
        s = SYSTEMS[name]()
        rng = np.random.default_rng(71)
        anchor, v = random_state(s, rng), random_state(s, rng)
        p = s.incremental(anchor, TAU)
        phi, d2 = p.parts(v)
        assert phi == pytest.approx(s.energy(v), rel=1e-13)
        assert d2 == pytest.approx(s.sqdist(anchor, v), rel=1e-13)
        ref = s.energy(v) + s.sqdist(anchor, v) / (2 * TAU)
        assert p.value(v) == pytest.approx(ref, rel=1e-13)

    def test_grad(self, name):
        s = SYSTEMS[name]()
        rng = np.random.default_rng(72)
        anchor, v = random_state(s, rng), random_state(s, rng)
        ref = s.grad_energy(v) + s.grad_halfsqdist(anchor, v) / TAU
        g = s.incremental(anchor, TAU).grad(v)
        assert rel_gap(g, ref) <= 1e-13
        assert np.all(g[s.bc_mask] == 0.0)

    def test_no_stale_channels(self, name):
        s = SYSTEMS[name]()
        rng = np.random.default_rng(74)
        anchor, v1, v2 = (random_state(s, rng) for _ in range(3))
        kept = anchor.copy()
        p = s.incremental(anchor, TAU)
        # the problem copied what it needs of the anchor
        anchor[s.free] += 0.1

        def check(v):
            fresh = s.incremental(kept, TAU)
            assert p.parts(v) == fresh.parts(v)
            assert np.array_equal(p.grad(v), fresh.grad(v))
            assert abs(p.hessian(v).tocsc() - fresh.hessian(v).tocsc()).max() == 0.0

        for v in (anchor, v1, v2, v1):
            check(v)
        w = v1.copy()
        check(w)
        w[np.flatnonzero(s.free)[::3]] += 1e-3  # same array, new values
        check(w)
        # nor does the system's record of the last valued point, the next
        # anchor's start
        p.parts(w)
        w[s.free] += 1e-3
        assert s.incremental(w, TAU).parts(w) == (s.energy(w), 0.0)


class Spy:
    """Forwards to a system and records every attribute the caller asks for."""

    def __init__(self, system):
        self._system = system
        self.asked = set()

    def __getattr__(self, name):
        self.asked.add(name)
        return getattr(self._system, name)


def count_evaluations(system):
    """Record the values of every state whose element rows are evaluated."""
    tables = system._tables
    evaluate = tables.split_evaluate
    seen = []

    def counted(u):
        seen.append(u.tobytes())
        return evaluate(u)

    tables.split_evaluate = counted
    return seen


def nonlinear_ribbon():
    mat = MaterialPair.isotropic(1.0, 0.4, 0.8, 0.2)
    s = RibbonSystem(Mesh1D(l=1.0, n=12), mat, forces=RibbonForces.from_coeffs(f=(0.5,)))
    return s, s.interpolate((0.0,), (0.0,), 1.5 * BUMP, 2.0 * BUMP)


def nonlinear_plate():
    s = plate_system(0.1)
    return s, random_state(s, np.random.default_rng(75), amp=0.3)


@pytest.mark.parametrize("build", [nonlinear_ribbon, nonlinear_plate])
def test_stepper_asks_only_for_the_incremental_problem(build):
    system, u = build()
    spy = Spy(system)
    seen = count_evaluations(system)
    iters = 0
    for n in range(3):
        seen.clear()
        u, rep = incremental_step(spy, TAU, u, SolverOptions(tol=1e-9), step_index=n)
        iters += rep.newton_iters
        # every trial point has its element rows evaluated once; every
        # Newton step is full here, so the trial points are the iterates,
        # and the anchor only on the first step: later steps start from
        # the point the step before accepted, which the system recorded
        assert len(seen) == len(set(seen)) == rep.newton_iters + (n == 0)
    assert iters > 3
    assert spy.asked == {"incremental", "free"}


@pytest.mark.parametrize("build", [nonlinear_ribbon, nonlinear_plate])
def test_each_valued_point_reduces_its_forms_once(build, monkeypatch):
    system, u = build()
    products, valued = [], []
    make = system._products
    monkeypatch.setattr(system, "_products", lambda s, s_a: products.append(1) or make(s, s_a))
    parts = IncrementalProblem.parts

    def recorded(self, v):
        valued.append(v.tobytes())
        return parts(self, v)

    monkeypatch.setattr(IncrementalProblem, "parts", recorded)
    for n in range(3):
        products.clear(), valued.clear()
        u, rep = incremental_step(system, TAU, u, SolverOptions(tol=1e-9), step_index=n)
        # one set of products (s QW, d QR) per point whose value is asked
        # for: the trial points, the accepted one not again at the end, nor
        # for its gradient or Hessian, and the warm start on the first step
        # only, since later steps start from the recorded accepted point
        assert rep.newton_iters > 0 and len(valued) > len(set(valued))
        assert len(products) == len(set(valued)) - (n > 0) == rep.newton_iters + (n == 0)
    # a gradient and a Hessian at a valued point reuse its products
    problem = system.incremental(u, TAU)
    v = u + 1e-3 * problem.grad(u)
    problem.value(v)
    made = len(products)
    problem.grad(v), problem.hessian(v)
    assert len(products) == made


@pytest.mark.parametrize("build", [nonlinear_ribbon, nonlinear_plate])
def test_a_trajectory_values_each_point_once(build, monkeypatch):
    system, u0 = build()
    products = []
    make = system._products
    monkeypatch.setattr(system, "_products", lambda s, s_a: products.append(1) or make(s, s_a))

    def run(s):
        return run_trajectory(s, u0, TAU, 4 * TAU, SolverOptions(tol=1e-9))

    traj = run(system)
    # each Newton iterate once (every step is full here) and u0: a step's
    # anchor is the point the step before valued last
    assert len(products) == sum(r.newton_iters for r in traj.reports) + 1
    # the record changes no number: a second run on the same system and a
    # run on a fresh one give the same ledger, bit for bit
    ledger = np.array(traj.ledger_rows(system))
    fresh = build()[0]
    for s, other in ((system, run(system)), (fresh, run(fresh))):
        assert np.array_equal(np.array(other.ledger_rows(s)), ledger, equal_nan=True)
        assert all(np.array_equal(a, b) for a, b in zip(other.states, traj.states))


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_no_reference_cycle_keeps_a_system_alive(name):
    gc.disable()
    try:
        s = SYSTEMS[name]()
        u = random_state(s, np.random.default_rng(76), amp=0.05)
        incremental_step(s, TAU, u, SolverOptions(tol=1e-8))
        # a trajectory's reports and a lent factor outlive the system
        chord = Chord()
        incremental_step(s, TAU, u, SolverOptions(tol=1e-8), chord=chord)
        traj = run_trajectory(s, u, TAU, 3 * TAU, SolverOptions(tol=1e-8))
        assert chord.solve is not None and sum(r.factorizations for r in traj.reports) > 0
        s.hess_energy(u), s.grad_energy(u), s.energy(u), s.local_slope(u)
        if isinstance(s, RibbonSystem):
            s.slope_solution(u)
        # the mesh holds the tables it shares with every system on it
        ref, mesh = weakref.ref(s), weakref.ref(s.mesh)
        del s
        assert ref() is None and mesh() is None
    finally:
        gc.enable()
