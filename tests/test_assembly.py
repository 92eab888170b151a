"""Element-local, fixed-pattern Hessian assembly of the plate and ribbon systems."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import Polynomial
from scipy.sparse.csgraph import reverse_cuthill_mckee

from vkribbon import fem, flow, studies
from vkribbon.fem import (
    BFSSpace,
    BoundaryData,
    Hermite3Space,
    IncrementalProblem,
    Mesh1D,
    Mesh2D,
    P1Space,
    Q1Space,
    Quadrature1D,
    Quadrature2D,
)
from vkribbon.forms import MaterialPair
from vkribbon.plate import PlateSystem, RecoveryInputs, build_recovery
from vkribbon.ribbon import RibbonForces, RibbonSystem

from oracles import reached_pairs, sobolev_gap, unfused_hessian

BUMP = Polynomial.fromroots([-0.5, -0.5, 0.5, 0.5])
BC = BoundaryData.from_coeffs(u1=(0.0, 0.3), u2=(0.05, 0.1), v=(0.1, 0.2))
FORCES = RibbonForces.from_coeffs(f=(0.2, 0.5), g1=(0.1,), g2=(0.3,))
TAU = 0.05


def plate_system(eps, nx=12, ny=4):
    mat = MaterialPair.isotropic(1.0, 1.0, 1.0, 1.0, h2_family=True)
    return PlateSystem(Mesh2D(l=1.0, nx=nx, ny=ny), eps, mat, BC, FORCES)


def ribbon_system():
    mat = MaterialPair.isotropic(1.2, 0.5, 0.8, 0.3)
    return RibbonSystem(Mesh1D(l=1.0, n=12), mat, BC, FORCES)


SYSTEMS = {
    "plate eps=0.3": lambda: plate_system(0.3),
    "plate eps=0.05": lambda: plate_system(0.05),
    # longer across than along: the plan sweeps along x2
    "plate 4x12": lambda: plate_system(0.3, nx=4, ny=12),
    "ribbon": ribbon_system,
}


def random_state(system, rng, amp=0.2):
    u = system.zero_state()
    u[system.free] += amp * rng.standard_normal(int(system.free.sum()))
    return u


def incremental_gradient(system, anchor, v):
    g = system.grad_energy(v) + system.grad_halfsqdist(anchor, v) / TAU
    return g[system.free]


@pytest.mark.parametrize("name", list(SYSTEMS))
class TestIncrementalHessian:
    def test_action_matches_fd_of_gradient(self, name):
        s = SYSTEMS[name]()
        rng = np.random.default_rng(61)
        anchor, u = random_state(s, rng), random_state(s, rng)
        d = np.zeros(s.n_dofs)
        d[s.free] = rng.standard_normal(int(s.free.sum()))
        h = 1e-6
        fd = (
            incremental_gradient(s, anchor, u + h * d) - incremental_gradient(s, anchor, u - h * d)
        ) / (2 * h)
        hv = s.incremental(anchor, TAU).hessian(u).tocsc() @ d[s.free]
        assert np.linalg.norm(hv - fd) <= 2e-6 * np.linalg.norm(hv)

    def test_symmetric(self, name):
        s = SYSTEMS[name]()
        rng = np.random.default_rng(62)
        H = s.incremental(random_state(s, rng), TAU).hessian(random_state(s, rng)).tocsc()
        assert abs(H - H.T).max() <= 1e-13 * abs(H).max()

    def test_fused_equals_sum_of_parts(self, name):
        s = SYSTEMS[name]()
        rng = np.random.default_rng(63)
        anchor, u = random_state(s, rng), random_state(s, rng)
        parts = (s.hess_energy(u) + s.hess_halfsqdist(anchor, u) / TAU).tocsr()
        parts_ff = parts[s.free][:, s.free]
        fused = s.incremental(anchor, TAU).hessian(u).tocsc()
        assert abs(fused - parts_ff).max() <= 1e-13 * abs(parts_ff).max()
        # the full-size wrappers vanish on constrained rows and columns
        assert parts[s.bc_mask].nnz == 0 and parts[:, s.bc_mask].nnz == 0

    def test_tocsc_is_canonical_csc(self, name):
        s = SYSTEMS[name]()
        H = s.incremental(s.zero_state(), TAU).hessian(s.zero_state()).tocsc()
        assert H.format == "csc" and H.has_canonical_format
        assert H.shape == (int(s.free.sum()),) * 2

    @pytest.mark.parametrize("shift", [0.0, 1e-2])
    def test_band_solve_matches_spsolve(self, name, shift):
        s = SYSTEMS[name]()
        rng = np.random.default_rng(64)
        anchor, u = random_state(s, rng), random_state(s, rng)
        problem = s.incremental(anchor, TAU)
        H = problem.hessian(u)
        b = rng.standard_normal(H.shape[0])
        Hc = H.tocsc()
        ref = spla.spsolve((Hc + shift * sp.diags(np.abs(Hc.diagonal()))).tocsc(), b)
        x = problem.factor(H, shift)(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        # the plan's order (the sweep along the longer axis of the mesh, one
        # coupled block after another) makes the pattern a band narrower
        # than the matrix
        assert s._plan.bandwidth < H.shape[0] // 2


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_split_evaluate_matches_evaluate(name):
    """The channel kernel's linear and slope rows are the matching rows
    of the all-rows evaluation."""
    s = SYSTEMS[name]()
    u = random_state(s, np.random.default_rng(69))
    R = s._tables.evaluate(u)
    for part, rows in zip(s._tables.split_evaluate(u), (s.LINEAR_ROWS, s.SLOPE_ROWS)):
        ref = R[rows]
        assert part.shape == ref.shape
        assert np.abs(part - ref).max() <= 1e-14 * np.abs(ref).max()


def full_density(s, anchor, u, cw, cr):
    """The weighted (E, nq, r, r) Hessian density of cw * phi + cr * D^2(anchor, .)/2
    from the channels' Jacobian J = ds/drows and their second derivatives D2:
    J^T C J + sum_k sig_k D2_k, with every row pair written out."""
    R = s.quad.by_element(s.rows(u))
    Ra = s.quad.by_element(s.rows(anchor))
    if isinstance(s, RibbonSystem):
        J = np.zeros(R.shape[:2] + (4, 5))
        J[..., [0, 1, 2, 3], [0, 1, 3, 4]] = 1.0
        J[..., 0, 2] = R[..., 2]
        D2 = np.zeros((4, 5, 5))
        D2[0, 2, 2] = 1.0

        def strain(R):
            return np.stack([R[..., 0] + 0.5 * R[..., 2] ** 2, R[..., 1], R[..., 3], R[..., 4]], -1)

    else:
        g1, g2 = R[..., 3], R[..., 4]
        J = np.zeros(R.shape[:2] + (6, 8))
        J[..., [0, 1, 2, 3, 4, 5], [0, 1, 2, 5, 6, 7]] = 1.0
        J[..., 0, 3], J[..., 1, 3], J[..., 1, 4], J[..., 2, 4] = g1, 0.5 * g2, 0.5 * g1, g2
        D2 = np.zeros((6, 8, 8))
        D2[0, 3, 3] = D2[2, 4, 4] = 1.0
        D2[1, 3, 4] = D2[1, 4, 3] = 0.5

        def strain(R):
            g1, g2 = R[..., 3], R[..., 4]
            mu = [R[..., 0] + 0.5 * g1**2, R[..., 1] + 0.5 * g1 * g2, R[..., 2] + 0.5 * g2**2]
            return np.stack(mu + [R[..., 5], R[..., 6], R[..., 7]], -1)

    su = strain(R)
    sig = cw * su @ s.QW + cr * (su - strain(Ra)) @ s.QR
    C = cw * s.QW + cr * s.QR
    dens = np.einsum("eqki,kl,eqlj->eqij", J, C, J) + np.einsum("eqk,kij->eqij", sig, D2)
    return dens * s._tables.weights[:, None, None]


def reference_hessian(s, dens):
    """Free-DOF block of sum_e sum_q rows_q^T dens[e, q] rows_q: the element
    product of the CSC assembly, added densely."""
    t = s._tables
    flat = t.rows.reshape(-1, t.rows.shape[-1]).T
    K = flat @ (dens @ t.rows).reshape(len(dens), -1, t.rows.shape[-1])
    full = np.zeros((s.n_dofs, s.n_dofs))
    np.add.at(full, (t.dofs[:, :, None], t.dofs[:, None, :]), K)
    return full[np.ix_(s.free, s.free)]


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_band_hessian_matches_full_density_reference(name):
    s = SYSTEMS[name]()
    rng = np.random.default_rng(68)
    anchor, u = random_state(s, rng), random_state(s, rng)
    free = s.free
    cases = [
        (s.incremental(anchor, TAU).hessian(u).tocsc(), anchor, 1.0, 1.0 / TAU),
        (s.hess_energy(u)[free][:, free], anchor, 1.0, 0.0),
        (s.hess_halfsqdist(anchor, u)[free][:, free], anchor, 0.0, 1.0),
        # the metric tensor of local_slope
        (s.hess_halfsqdist(u, u)[free][:, free], u, 0.0, 1.0),
    ]
    for H, a, cw, cr in cases:
        ref = reference_hessian(s, full_density(s, a, u, cw, cr))
        assert np.abs(H.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_folded_assembly_matches_unfused(name):
    """The plan's two products with the slope forms folded in give the
    Hessian of the unfused assembly: for a time step, for the slope solve
    (the metric tensor, where the stress vanishes) and for hess_energy."""
    s = SYSTEMS[name]()
    rng = np.random.default_rng(70)
    anchor, u = random_state(s, rng), random_state(s, rng)
    free = s.free
    cases = [
        (s.incremental(anchor, TAU).hessian(u).tocsc(), anchor, 1.0, 1.0 / TAU),
        (s.hess_halfsqdist(u, u)[free][:, free], u, 0.0, 1.0),
        (s.hess_energy(u)[free][:, free], anchor, 1.0, 0.0),
    ]
    for H, a, cw, cr in cases:
        ref = unfused_hessian(s, a, u, cw, cr)
        assert np.abs(H.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_pair_groups_cover_every_reached_pair_once(name):
    s = SYSTEMS[name]()
    s.incremental(s.zero_state(), TAU).hessian(s.zero_state())
    plan = s._plan
    pairs = list(zip(*plan.element_pairs.tolist()))
    ends = np.cumsum([0, plan.n_slope, plan.n_quadratic, len(pairs)])
    groups = [set(pairs[i:j]) for i, j in zip(ends[:-1], ends[1:])]
    assert sum(map(len, groups)) == len(pairs) == len(set(pairs))
    assert set(pairs) == reached_pairs(s)
    assert plan.slot.size == len(pairs) * len(s._tables.dofs)
    if isinstance(s, PlateSystem):
        # (w, y), (w, w) and (y, y) pairs: y DOFs are the first 8 of an element
        assert [len(g) for g in groups] == [128, 136, 36]
        assert all(a < 8 <= b for a, b in groups[0])
        assert all(a >= 8 for a, _ in groups[1]) and all(b < 8 for _, b in groups[2])


def sampled_rows(s):
    """Each element row at the quadrature points as a sum of terms
    scale * sample_matrix(quad, *derivs) @ u[field], one list per row."""
    if isinstance(s, RibbonSystem):
        return [
            [(s.p1, (1,), "xi1", 1.0)],
            [(s.h3, (2,), "xi2", 1.0)],
            [(s.h3, (1,), "w", 1.0)],
            [(s.h3, (2,), "w", 1.0)],
            [(s.p1, (1,), "theta", 1.0)],
        ]
    e = s.eps
    return [
        [(s.q1, (1, 0), "y1", 1.0)],
        [(s.q1, (0, 1), "y1", 0.5 / e), (s.q1, (1, 0), "y2", 0.5 / e)],
        [(s.q1, (0, 1), "y2", e**-2)],
        [(s.bfs, (1, 0), "w", 1.0)],
        [(s.bfs, (0, 1), "w", 1.0 / e)],
        [(s.bfs, (2, 0), "w", 1.0)],
        [(s.bfs, (1, 1), "w", 1.0 / e)],
        [(s.bfs, (0, 2), "w", e**-2)],
    ]


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_rows_match_sampling_matrices(name):
    s = SYSTEMS[name]()
    u = random_state(s, np.random.default_rng(66))
    R = s.rows(u)
    terms = sampled_rows(s)
    assert R.shape == (s.quad.n_points, len(terms))
    for col, row in zip(R.T, terms):
        ref = sum(
            c * (space.sample_matrix(s.quad, *d) @ u[s.slices[f]]) for space, d, f, c in row
        )
        assert np.abs(col - ref).max() <= 1e-13 * np.abs(ref).max()


def test_diagnostics_build_no_sampling_matrix(monkeypatch):
    sampled, calls = [], []
    for space in (P1Space, Hermite3Space, Q1Space, BFSSpace):
        original = space.sample_matrix

        def counted(self, *args, _original=original):
            sampled.append(type(self).__name__)
            return _original(self, *args)

        monkeypatch.setattr(space, "sample_matrix", counted)
    element_values = fem._element_values
    monkeypatch.setattr(
        fem,
        "_element_values",
        lambda space, quad: calls.append(type(space).__name__) or element_values(space, quad),
    )
    r = ribbon_system()
    p = plate_system(0.05)
    rng = np.random.default_rng(67)
    v, v2, u = random_state(r, rng, 0.05), random_state(r, rng, 0.05), random_state(p, rng, 0.05)
    # the loads: one table of basis values per nonzero density (f, g1, g2),
    # built once with the load vector and not kept; no sampling matrix
    r.energy(v), p.energy(u)
    expect = ["Hermite3Space", "P1Space", "Hermite3Space", "BFSSpace", "Q1Space", "Q1Space"]
    assert calls == expect and sampled == []
    r.energy(v), p.energy(u)
    assert calls == expect and sampled == []
    assert not any(sp.issparse(x) for x in [*vars(r).values(), *vars(p).values()])
    calls.clear()
    only_f = RibbonSystem(Mesh1D(l=1.0, n=12), r.material, BC, RibbonForces.from_coeffs(f=(1.0,)))
    only_f.energy(v)
    assert calls == ["Hermite3Space"] and sampled == []
    calls.clear()
    R = p.rows(u)
    p.quad.x2_average(R[:, 4]), p.quad.x2_average(R[:, 6])
    p.d0_projected(u, r, v), studies._projection_diag(p, u)
    r.slope_solution(v), sobolev_gap(r, v, v2)
    assert calls == [] and sampled == []


def shifted_diagonal(H, sigma):
    """H - sigma I in element values on the same plan: sigma comes off one
    element's share of each diagonal entry."""
    plan, values = H.plan, H.values.copy()
    flat = values.reshape(-1)
    on_diagonal = np.flatnonzero((plan.slot < plan.size) & (plan.slot % (plan.bandwidth + 1) == 0))
    _, first = np.unique(plan.slot[on_diagonal], return_index=True)
    assert len(first) == plan.n_free
    flat[on_diagonal[first]] -= sigma
    return fem.BandMatrix(plan, values)


def indefinite(H):
    """H with its diagonal lowered by 0.3 of its smallest entry: the diagonal
    stays positive, so only pbtrf can reject it, and it must."""
    Hs = shifted_diagonal(H, 0.3 * H.band[:, 0].min())
    assert np.linalg.eigvalsh(Hs.tocsc().toarray())[0] < 0.0
    assert H.plan.factor(Hs) is None
    return Hs


def test_rejected_factor_leaves_the_matrix_to_the_next_shift():
    """A compressed ribbon's flat start: Cholesky takes H's band in place
    and rejects it at shift 0, after the diagonal test has passed; the next
    shift factors the matrix that H adds up again from its element values."""
    s = RibbonSystem(
        Mesh1D(l=1.0, n=64),
        MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0),
        BoundaryData.from_coeffs(u1=(0.0, -30.0)),
    )
    u0 = s.interpolate((0.0, -30.0), (0.0,), (0.0,), (0.0,))
    problem = s.incremental(u0, 0.2)
    H = problem.hessian(u0)
    before = H.tocsc()
    assert np.all(H.band[:, 0] > 0.0)
    assert problem.factor(H, 0.0) is None
    Hc = H.tocsc()
    assert abs(Hc - before).max() == 0.0
    dense = Hc.toarray() + 1e-3 * np.diag(np.abs(Hc.diagonal()))
    b = np.random.default_rng(69).standard_normal(H.shape[0])
    x = problem.factor(H, 1e-3)(b)
    ref = np.linalg.solve(dense, b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def recorded_directions(monkeypatch):
    """(rhs, direction, shifted) of every fresh direction; asserts that
    nothing reaches SuperLU."""
    directions = []
    monkeypatch.setattr(
        flow, "spla", SimpleNamespace(splu=lambda A: pytest.fail("SuperLU called"))
    )
    fresh_direction = flow._fresh_direction

    def recording_direction(problem, u, rhs, chord, step_index):
        d, shifted = fresh_direction(problem, u, rhs, chord, step_index)
        directions.append((rhs, d, shifted))
        return d, shifted

    monkeypatch.setattr(flow, "_fresh_direction", recording_direction)
    return directions


@pytest.mark.parametrize("name", ["plate eps=0.05", "ribbon"])
def test_indefinite_hessian_takes_shifted_cholesky(name, monkeypatch):
    s = SYSTEMS[name]()
    rng = np.random.default_rng(65)
    u0 = random_state(s, rng, amp=0.05)
    directions = recorded_directions(monkeypatch)
    hessian = IncrementalProblem.hessian
    first = []

    def indefinite_once(self, v):
        H = hessian(self, v)
        if first:
            return H
        first.append(1)
        return indefinite(H)

    monkeypatch.setattr(IncrementalProblem, "hessian", indefinite_once)
    u1, rep = flow.incremental_step(s, TAU, u0)
    assert rep.used_fallback >= 1
    rhs, d, shifted = directions[0]
    # a descent direction for the gradient -rhs
    assert shifted and np.dot(-rhs, d) < 0.0
    # the step ended on an unshifted factor
    assert not directions[-1][2]
    # the one-step energy inequality
    assert s.energy(u1) + s.sqdist(u0, u1) / (2 * TAU) <= s.energy(u0) + 1e-12


@pytest.mark.parametrize("start", ["random", "stationary"])
def test_step_never_ends_on_a_shifted_factor(start, monkeypatch):
    """With every fresh Hessian indefinite, the shifted directions still
    descend, but no decrement of theirs may end the step: not even a zero
    one at a stationary point, which is then a saddle of the fake Hessian."""
    if start == "random":
        s = SYSTEMS["ribbon"]()
        u0 = random_state(s, np.random.default_rng(66), amp=0.05)
    else:
        s = RibbonSystem(Mesh1D(l=1.0, n=12), MaterialPair.isotropic(1.2, 0.5, 0.8, 0.3))
        u0 = s.zero_state()
        assert not np.any(s.incremental(u0, TAU).grad(u0))
    directions = recorded_directions(monkeypatch)
    hessian = IncrementalProblem.hessian
    monkeypatch.setattr(IncrementalProblem, "hessian", lambda self, v: indefinite(hessian(self, v)))
    with pytest.raises(flow.StepFailure, match="did not converge") as err:
        flow.incremental_step(s, TAU, u0, flow.SolverOptions(max_newton=8), step_index=3)
    assert err.value.step_index == 3
    assert len(directions) == 9 and all(shifted for _, _, shifted in directions)
    assert all(np.dot(-rhs, d) <= 0.0 for rhs, d, _ in directions)


def connectivity(system, element_dofs, fields, coupled):
    """Free-free pairs of DOFs that share an element and whose fields couple."""
    index = np.cumsum(system.free) - 1
    pairs = set()
    for dofs in element_dofs:
        for a, ga in enumerate(dofs):
            for b, gb in enumerate(dofs):
                if system.free[ga] and system.free[gb] and (fields[a], fields[b]) in coupled:
                    pairs.add((index[ga], index[gb]))
    return pairs


def stored_pairs(H):
    coo = H.tocoo()
    return set(zip(coo.row, coo.col))


def test_plate_pattern_is_element_connectivity():
    s = plate_system(0.3)
    m = s.mesh
    off = s.offsets
    elements = [
        np.concatenate(
            [
                s.q1.element_dofs(ex, ey) + off[0],
                s.q1.element_dofs(ex, ey) + off[1],
                s.bfs.element_dofs(ex, ey) + off[2],
            ]
        )
        for ex in range(m.nx)
        for ey in range(m.ny)
    ]
    fields = ["y"] * 8 + ["w"] * 16
    coupled = {("y", "y"), ("y", "w"), ("w", "y"), ("w", "w")}
    expect = connectivity(s, elements, fields, coupled)
    H = s.incremental(s.zero_state(), TAU).hessian(s.zero_state()).tocsc()
    assert stored_pairs(H) == expect


def test_ribbon_pattern_is_coupled_element_connectivity():
    s = ribbon_system()
    off = s.offsets
    elements = [
        np.concatenate(
            [
                s.p1.element_dofs(e) + off[0],
                s.h3.element_dofs(e) + off[1],
                s.h3.element_dofs(e) + off[2],
                s.p1.element_dofs(e) + off[3],
            ]
        )
        for e in range(s.mesh.n)
    ]
    fields = ["xi1"] * 2 + ["xi2"] * 4 + ["w"] * 4 + ["theta"] * 2
    coupled = {("xi1", "xi1"), ("xi1", "w"), ("xi2", "xi2"), ("w", "w"), ("w", "theta")}
    coupled |= {(b, a) for a, b in coupled} | {("theta", "theta")}
    expect = connectivity(s, elements, fields, coupled)
    H = s.incremental(s.zero_state(), TAU).hessian(s.zero_state()).tocsc()
    assert stored_pairs(H) == expect


def test_no_plan_without_a_hessian(monkeypatch):
    orderings, constants = [], []
    plan = fem.ElementAssembly.__init__
    monkeypatch.setattr(
        fem.ElementAssembly, "__init__", lambda self, *a: orderings.append(1) or plan(self, *a)
    )
    constant_block = fem.ElementAssembly.constant_block
    monkeypatch.setattr(
        fem.ElementAssembly,
        "constant_block",
        lambda self, Q: constants.append(1) or constant_block(self, Q),
    )
    mat = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)
    r = RibbonSystem(Mesh1D(l=1.0, n=12), mat, forces=FORCES)
    v = r.interpolate((0.0,), (0.0,), 2.0 * BUMP, 4.0 * BUMP)
    r.energy(v), r.sqdist(v, v), r.grad_energy(v), r.grad_halfsqdist(v, v)
    p = PlateSystem(Mesh2D(l=1.0, nx=12, ny=4), 0.1, mat, forces=FORCES)
    u = build_recovery(p, RecoveryInputs(r.state(v)))
    p.energy(u), p.sqdist(u, u), p.grad_energy(u), p.grad_halfsqdist(u, u)
    assert r._plan is None and p._plan is None and not orderings and not constants
    r.incremental(v, TAU).hessian(v)
    p.incremental(u, TAU).hessian(u)
    assert r._plan is not None and p._plan is not None
    # one band layout and one pair of constant element blocks (QW, QR) per
    # system, whatever is assembled or solved afterwards
    assert len(orderings) == 2 and len(constants) == 4
    flow.run_trajectory(r, v, TAU, 2 * TAU).ledger_rows(r)
    flow.run_trajectory(p, u, TAU, 2 * TAU).ledger_rows(p)
    r.hess_energy(v), p.hess_halfsqdist(u, u), r.local_slope(v)
    assert len(orderings) == 2 and len(constants) == 4


def test_an_evaluator_builds_one_set_of_tables(monkeypatch):
    """A plate that only evaluates energies (gamma_check's use) builds its
    element tables once and no plan, and the tables hold arrays only."""
    calls = []
    element_rows = PlateSystem._element_rows
    monkeypatch.setattr(
        PlateSystem, "_element_rows", lambda self: calls.append(1) or element_rows(self)
    )
    p = plate_system(0.1)
    u = random_state(p, np.random.default_rng(71), 0.05)
    p.energy(u), p.energy(2.0 * u)
    assert calls == [1] and p._plan is None
    assert all(isinstance(v, (np.ndarray, int)) for v in vars(p._tables).values())


def rcm_bandwidth(H):
    """Half-width of the pattern of H in reverse Cuthill-McKee order."""
    perm = reverse_cuthill_mckee(H, symmetric_mode=True)
    rank = np.empty_like(perm)
    rank[perm] = np.arange(len(perm))
    coo = H.tocoo()
    return int(np.abs(rank[coo.row] - rank[coo.col]).max())


H1 = MaterialPair.isotropic(1.0, 0.0, 1.0, 0.0)
BANDS = {
    # long plates: the sweep along x1, where RCM gives 107 and 59
    "plate 48x8": (lambda: PlateSystem(Mesh2D(l=1.0, nx=48, ny=8), 0.05, H1), 65),
    "plate 24x4": (lambda: PlateSystem(Mesh2D(l=1.0, nx=24, ny=4), 0.05, H1), 41),
    # a plate longer across than along: the sweep along x2 (RCM gives 89,
    # a sweep along x1 113)
    "plate 8x16": (lambda: PlateSystem(Mesh2D(l=1.0, nx=8, ny=16), 0.05, H1), 71),
    # the ribbon, whose xi2 block meets no other field: one block after the
    # other (RCM gives 7, one sweep over both blocks 10)
    "ribbon n=12": (lambda: RibbonSystem(Mesh1D(l=1.0, n=12), H1), 6),
    "ribbon n=64": (lambda: RibbonSystem(Mesh1D(l=1.0, n=64), H1), 6),
}


@pytest.mark.parametrize("name", list(BANDS))
def test_band_is_never_wider_than_rcm(name):
    build, width = BANDS[name]
    s = build()
    H = s.incremental(s.zero_state(), TAU).hessian(s.zero_state()).tocsc()
    assert s._plan.bandwidth == width <= rcm_bandwidth(H)


def coo_sample_matrix(vals, cols, n_dofs):
    """The reference construction: COO triplets converted to CSR."""
    n = cols.shape[0]
    rows = np.repeat(np.arange(n), cols.shape[1])
    return sp.coo_matrix((vals.ravel(), (rows, cols.ravel())), shape=(n, n_dofs)).tocsr()


def assert_bitwise(a, b):
    assert a.shape == b.shape
    for attr in ("data", "indices", "indptr"):
        x, y = getattr(a, attr), getattr(b, attr)
        assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("n", [2, 7, 64])
def test_sample_matrices_1d_match_coo_reference(n):
    mesh = Mesh1D(l=1.0, n=n)
    q = Quadrature1D(mesh)
    for space in (P1Space(mesh), Hermite3Space(mesh)):
        for d in range(space.max_deriv + 1):
            ref = coo_sample_matrix(
                space.ref_basis(q.ref, d), space.element_dofs(q.element), space.n_dofs
            )
            assert_bitwise(space.sample_matrix(q, d), ref)


@pytest.mark.parametrize("nx, ny", [(2, 2), (5, 3), (16, 4)])
def test_sample_matrices_2d_match_coo_reference(nx, ny):
    mesh = Mesh2D(l=1.0, nx=nx, ny=ny)
    q = Quadrature2D(mesh)
    for space in (Q1Space(mesh), BFSSpace(mesh)):
        cols = space.element_dofs(q.element_x, q.element_y)
        for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
            vals = space.ref_basis(q.ref_x, q.ref_y, dx, dy)
            ref = coo_sample_matrix(vals, cols, space.n_dofs)
            assert_bitwise(space.sample_matrix(q, dx, dy), ref)
