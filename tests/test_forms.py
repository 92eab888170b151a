"""Material-form reductions against independent minimization oracles."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from oracles import family_limit_holds

from vkribbon.forms import (
    MaterialError,
    MaterialPair,
    QuadForm2,
    _argmins_vanish,
    classify_hypothesis,
    dQ1,
    extended_form,
    h2_family_matrix,
    make_isotropic,
    reduce_to_0,
    reduce_to_1,
)


def oracle_q1(q2, q11, q12):
    """Numeric partial minimization over the transverse entry."""
    res = minimize_scalar(lambda a: float(q2(q11, q12, a)), bounds=(-50, 50), method="bounded")
    return res.fun


def oracle_q0(q2, q11):
    """Nested numeric minimization over both eliminated entries."""
    def inner(z):
        return oracle_q1(q2, q11, z)

    res = minimize_scalar(inner, bounds=(-50, 50), method="bounded")
    return res.fun


def random_spd(rng, dim=3, scale=1.0):
    A = rng.standard_normal((dim, dim))
    return scale * (A @ A.T + 0.3 * np.eye(dim))


class TestIsotropic:
    def test_formula_values(self):
        q = make_isotropic(1.0, 0.0)
        assert q(1, 0, 0) == pytest.approx(2.0, abs=0)
        assert q(0, 1, 0) == pytest.approx(4.0, abs=0)
        assert q(0, 0, 1) == pytest.approx(2.0, abs=0)

    def test_formula_with_lambda(self):
        q = make_isotropic(1.0, 1.0)
        assert q(1, 0, 1) == pytest.approx(8.0, abs=0)

    def test_rejects_indefinite(self):
        with pytest.raises(MaterialError):
            make_isotropic(1.0, -3.0)
        with pytest.raises(MaterialError):
            make_isotropic(-1.0, 0.0)
        with pytest.raises(MaterialError):
            make_isotropic(0.0, 1.0)

    def test_rejects_between_definiteness_bounds(self):
        # 2*mu + lambda > 0 alone does not make the form definite
        with pytest.raises(MaterialError):
            make_isotropic(1.0, -1.5)

    def test_tiny_moduli_accepted(self):
        pair = MaterialPair.isotropic(1e-13, 0, 1e-13, 0)
        assert pair.W0.C0 > 0.0

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_definiteness_is_unit_free(self, scale):
        QuadForm2(scale * make_isotropic(1.0, 0.5).C)
        # mu = 1, lambda = -1.5: eigenvalues -1, 2 and 4
        indefinite = np.array([[0.5, 0.0, -1.5], [0.0, 4.0, 0.0], [-1.5, 0.0, 0.5]])
        with pytest.raises(MaterialError, match="not positive definite"):
            QuadForm2(scale * indefinite)

    def test_matches_displayed_formula_random(self):
        rng = np.random.default_rng(3)
        q = make_isotropic(1.3, 0.7)
        for _ in range(20):
            a, b, c = rng.standard_normal(3)
            expect = 2 * 1.3 * (a**2 + 2 * b**2 + c**2) + 0.7 * (a + c) ** 2
            assert q(a, b, c) == pytest.approx(expect, rel=1e-14)


class TestReductions:
    def test_lambda_zero_diagonal(self):
        q1 = reduce_to_1(make_isotropic(1.0, 0.0))
        assert q1(1, 0) == pytest.approx(2.0)
        assert q1(0, 1) == pytest.approx(4.0)
        assert np.all(q1.argmin_coeff == 0.0)

    def test_lambda_one_closed_form(self):
        # alpha* = -lambda q11 / (2 mu + lambda), coefficient 4 mu (mu+lambda) / (2 mu + lambda)
        q2 = make_isotropic(1.0, 1.0)
        q1 = reduce_to_1(q2)
        assert q1(1, 0) == pytest.approx(8.0 / 3.0, rel=1e-14)
        assert q1(0, 1) == pytest.approx(4.0, rel=1e-14)
        assert q1.argmin_alpha(1.0, 0.0) == pytest.approx(-1.0 / 3.0, rel=1e-14)
        # against the numeric oracle
        for (a, b) in ((1.0, 0.0), (0.4, -1.2), (-0.7, 0.3)):
            assert q1(a, b) == pytest.approx(oracle_q1(q2, a, b), rel=1e-9)

    def test_identity_matrix(self):
        q1 = reduce_to_1(QuadForm2(np.eye(3)))
        assert q1(1, 0) == pytest.approx(1.0)
        assert q1(0, 1) == pytest.approx(1.0)
        assert np.all(q1.argmin_coeff == 0.0)
        q0 = reduce_to_0(q1)
        assert q0.C0 == pytest.approx(1.0)

    def test_c0_values(self):
        q2 = make_isotropic(1.0, 1.0)
        q0 = reduce_to_0(reduce_to_1(q2))
        assert q0.C0 == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert q0.argmin_coeff == 0.0
        assert q0.C0 * 1.0 == pytest.approx(oracle_q0(q2, 1.0), rel=1e-8)
        q0b = reduce_to_0(reduce_to_1(make_isotropic(1.0, 0.0)))
        assert q0b.C0 == pytest.approx(2.0, abs=0)

    def test_argmin_attains_minimum(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            q2 = QuadForm2(random_spd(rng))
            q1 = reduce_to_1(q2)
            a, b = rng.standard_normal(2)
            alpha = q1.argmin_alpha(a, b)
            assert q2(a, b, alpha) == pytest.approx(q1(a, b), rel=1e-12)
            # monotonicity: Q1 <= Q2 for all alpha, equality at alpha*
            for da in np.linspace(-2, 2, 9):
                assert q1(a, b) <= q2(a, b, alpha + da) + 1e-12

    def test_grid_minimum_agreement(self):
        rng = np.random.default_rng(12)
        grid = np.linspace(-3, 3, 1201)
        h = grid[1] - grid[0]
        for _ in range(5):
            q2 = QuadForm2(random_spd(rng))
            q1 = reduce_to_1(q2)
            a, b = rng.standard_normal(2) * 0.5
            grid_min = q2(a, b, grid).min()
            curvature = q2.C[2, 2]
            assert grid_min >= q1(a, b) - 1e-12
            assert grid_min - q1(a, b) <= h**2 * curvature
            q0 = reduce_to_0(q1)
            zmin = min(q1(a, z) for z in grid)
            assert zmin - q0(a) <= h**2 * q1.C[1, 1] + 1e-12


class TestHypotheses:
    def test_h1(self):
        assert MaterialPair.isotropic(1, 0, 2, 0).hypothesis == "H1"

    def test_h2_default_family(self):
        pair = MaterialPair.isotropic(1, 1, 1, 1, h2_family=True)
        assert pair.hypothesis == "H2"
        C = pair.viscous_matrix(0.01)
        assert C[2, 2] == pytest.approx(0.01)
        assert np.allclose(C[:2, :2], pair.R1.C)
        # the family limit relation holds pointwise
        q = np.array([0.7, -0.3, 1.9])
        val = q @ h2_family_matrix(pair.R1, 1e-8) @ q
        assert val == pytest.approx(pair.R1(0.7, -0.3), abs=1e-6)

    def test_none_for_constant_family(self):
        pair = MaterialPair.isotropic(1, 1, 1, 1, h2_family=False)
        assert pair.hypothesis == "none"

    def test_classify_matches_tag(self):
        for pair in (
            MaterialPair.isotropic(1, 0, 1, 0),
            MaterialPair.isotropic(1, 1, 1, 1, h2_family=True),
            MaterialPair.isotropic(1, 1, 1, 1),
        ):
            assert classify_hypothesis(pair) == pair.hypothesis

    def test_family_flag_equals_the_limit_check(self):
        """The H2 branch reads ``h2_family``; for SPD forms the limit check it
        replaced agrees with the flag on every pair, so no tag moves."""
        rng = np.random.default_rng(20)
        seen = set()
        for n in range(300):
            forms = []
            for label in "WR":
                C = np.diag(rng.uniform(0.5, 3.0, 3))
                off = rng.uniform(-0.3, 0.3, 3)
                # every third pair has no z* coupling, every other one of
                # those no alpha* coupling either: H2 and H1 candidates,
                # with and without the flag
                off[[0, 2]] *= n % 3 != 0
                off[1] *= n % 6 != 0
                C[0, 1] = C[1, 0] = off[0]
                C[0, 2] = C[2, 0] = off[1]
                C[1, 2] = C[2, 1] = off[2]
                forms.append(QuadForm2(10.0 ** rng.uniform(-2, 2) * C, label))
            pair = MaterialPair(*forms, h2_family=n % 4 >= 2)
            assert family_limit_holds(pair) == pair.h2_family
            old = "none"
            if _argmins_vanish(pair.W1, pair.W) and _argmins_vanish(pair.R1, pair.R):
                old = "H1"
            elif _argmins_vanish(pair.W1) and _argmins_vanish(pair.R1) and family_limit_holds(pair):
                old = "H2"
            assert classify_hypothesis(pair) == pair.hypothesis == old
            seen.add(old)
        assert seen == {"H1", "H2", "none"}

    def test_h1_argmins_vanish_exactly(self):
        pair = MaterialPair.isotropic(2.0, 0.0, 0.5, 0.0)
        assert np.all(pair.W1.argmin_coeff == 0.0)
        assert pair.W0.argmin_coeff == 0.0
        assert np.all(pair.R1.argmin_coeff == 0.0)


class TestExtendedForm:
    def test_block_structure(self):
        from vkribbon.forms import QuadForm0, QuadForm1

        q0 = QuadForm0(1.0, 0.0)
        q1 = QuadForm1(np.eye(2), np.zeros(2))
        bar = extended_form(q0, q1)
        assert np.allclose(bar.M, np.diag([1.0, 1 / 12, 1 / 12]))

    def test_isotropic_values(self):
        pair = MaterialPair.isotropic(1, 1, 1, 1)
        assert np.allclose(np.diag(pair.Wbar.M), [8 / 3, 2 / 9, 1 / 3])

    def test_square_roots(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            q2 = QuadForm2(random_spd(rng))
            q1 = reduce_to_1(q2)
            bar = extended_form(reduce_to_0(q1), q1)
            assert np.abs(bar.sqrt @ bar.sqrt - bar.M).max() <= 1e-12 * np.abs(bar.M).max()
            assert np.abs(bar.invsqrt @ bar.sqrt - np.eye(3)).max() <= 1e-12

    def test_invsqrt_is_inverse_metric(self):
        rng = np.random.default_rng(5)
        q2 = QuadForm2(random_spd(rng))
        q1 = reduce_to_1(q2)
        bar = extended_form(reduce_to_0(q1), q1)
        Minv = np.linalg.inv(bar.M)
        for _ in range(25):
            v = rng.standard_normal(3)
            lhs = np.sum((bar.invsqrt @ v) ** 2)
            rhs = v @ Minv @ v
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestGradient:
    def test_identity(self):
        from vkribbon.forms import QuadForm1

        q1 = QuadForm1(np.eye(2), np.zeros(2))
        assert dQ1(q1, 1.0, 2.0) == (pytest.approx(2.0), pytest.approx(4.0))
        assert dQ1(q1, 0.0, 0.0) == (pytest.approx(0.0), pytest.approx(0.0))

    def test_reduced_isotropic(self):
        q1 = reduce_to_1(make_isotropic(1.0, 0.0))
        d1, d2 = dQ1(q1, 1.0, 0.0)
        assert d1 == pytest.approx(4.0)
        assert d2 == pytest.approx(0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        q1 = reduce_to_1(QuadForm2(random_spd(rng)))
        a, b = rng.standard_normal(2)
        h = 1e-6
        d1, d2 = dQ1(q1, a, b)
        assert d1 == pytest.approx((q1(a + h, b) - q1(a - h, b)) / (2 * h), rel=1e-7)
        assert d2 == pytest.approx((q1(a, b + h) - q1(a, b - h)) / (2 * h), rel=1e-7)
