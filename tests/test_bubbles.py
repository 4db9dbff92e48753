import numpy as np
import pytest
from scipy.integrate import quad as quad1d

from lichlab.bubbles import (
    BubbleParams,
    DirectionData,
    QuadratureBudgetError,
    asympt_LP,
    asympt_LV,
    blowup_constants,
    bubble,
    quad_LP,
    quad_LV,
    theta,
)
from lichlab.quadrature import sphere_area


class TestBubbleValues:
    def test_center_value(self):
        p = BubbleParams(n=3, mu=0.01, f_center=1.0)
        assert bubble(p, np.zeros(3)) == pytest.approx(10.0)

    def test_unit_scale_value(self):
        p = BubbleParams(n=3, mu=1.0, f_center=3.0)
        x = np.array([1.0, 0.0, 0.0])
        assert bubble(p, x) == pytest.approx(2 ** -0.5)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(5)
        p = BubbleParams(n=5, mu=0.3, f_center=2.0)
        for _ in range(10):
            lam = rng.uniform(0.5, 2.0)
            x = rng.normal(size=5)
            pl = BubbleParams(n=5, mu=lam * 0.3, f_center=2.0)
            assert bubble(p, x) == pytest.approx(
                lam ** 1.5 * bubble(pl, lam * x), rel=1e-12)

    def test_theta(self):
        assert theta(3.0, np.array([0.0, 4.0, 0.0])) == pytest.approx(5.0)
        assert theta(0.7, np.zeros(3)) == pytest.approx(0.7)
        rng = np.random.default_rng(2)
        z = rng.normal(size=(50, 3))
        assert np.all(theta(0.3, z) >= 0.3)


class TestConstants:
    def test_stability_coef_vanishes_at_n4(self):
        # C(6) = 0.2 is the verify row constants_c6
        assert blowup_constants(4).stability_coef == 0.0

    @pytest.mark.parametrize("n", [142, 144])
    def test_overflow_names_the_dimension(self, n):
        # at n = 142 C2 is -inf; at n = 144 a float power overflows
        with pytest.raises(ValueError, match=f"at n = {n}$"):
            blowup_constants(n)

    def test_bubble_energy_is_profile_mass(self):
        # direct radial quadrature of the B^{2*} integral at f0 = 1
        for n in (3, 5):
            c = 1.0 / (n * (n - 2.0))
            val, _ = quad1d(lambda s: s ** (n - 1) * (1 + c * s * s) ** (-n),
                            0.0, np.inf)
            mass = sphere_area(n - 1) * val
            assert mass == pytest.approx(blowup_constants(n).bubble_energy,
                                         rel=1e-10)


@pytest.fixture(scope="module")
def direction():
    return DirectionData(eps=0.7, beta_k=np.array([0.3, 0.0, 0.0]),
                         zeta0=np.array([1.0, 0.0, 0.0]),
                         zeta_k=np.eye(3)[[1, 0, 2]])


@pytest.fixture(scope="module")
def params():
    return BubbleParams(n=3, mu=0.01, f_center=3.0)


class TestAsymptotics:
    def test_orthogonal_entry_vanishes(self, params):
        d = DirectionData(eps=1.0, beta_k=np.zeros(3),
                          zeta0=np.array([1.0, 0.0, 0.0]),
                          zeta_k=np.eye(3))
        z = np.array([0.0, 1.0, 0.0])      # zhat perp zeta0
        M = asympt_LV(d, params, z)
        assert M[2, 2] == pytest.approx(0.0, abs=1e-15)

    def test_first_order_bracket_traceless(self, params, direction):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = rng.normal(size=3)
            M = asympt_LV(direction, params, z)
            assert abs(np.trace(M)) < 1e-14 * np.linalg.norm(M)

    def test_second_order_traceless_symmetric(self, params, direction):
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = rng.normal(size=3)
            M = asympt_LP(direction, params, z, 0)
            assert np.allclose(M, M.T)
            assert abs(np.trace(M)) < 1e-13 * max(np.linalg.norm(M), 1e-300)

    def test_beta_zero_gives_zero(self, params):
        d = DirectionData(eps=1.0, beta_k=np.zeros(3),
                          zeta0=np.array([0.0, 1.0, 0.0]), zeta_k=np.eye(3))
        assert np.allclose(asympt_LP(d, params, np.ones(3), 1), 0.0)

    def test_second_order_decay_rate(self, params, direction):
        z = np.array([0.4, 0.1, -0.2])
        M1 = asympt_LP(direction, params, z, 0)
        M2 = asympt_LP(direction, params, 2 * z, 0)
        assert np.allclose(M2, M1 / 2 ** 3)

    def test_first_order_decay_rate(self, params, direction):
        z = np.array([0.4, 0.1, -0.2])
        M1 = asympt_LV(direction, params, z)
        M2 = asympt_LV(direction, params, 2 * z)
        assert np.allclose(M2, M1 / 2 ** 2)


@pytest.fixture(scope="module")
def far_point(params):
    z = np.array([0.3, -0.2, 1.0])
    return 50.0 * params.mu * z / np.linalg.norm(z)


@pytest.fixture(scope="module")
def unit_quadratures(params, far_point):
    v = np.array([0.6, -0.8, 0.0])
    return v, quad_LV(v, params, far_point), quad_LP(v, params, far_point, 1)


class TestQuadrature:
    @pytest.mark.parametrize("s", [1e-12, 1e-9, 1e3])
    def test_linear_at_every_amplitude(self, params, far_point,
                                       unit_quadratures, s):
        # the far-field expansions scale with the coefficient, so a tiny
        # coefficient gives a tiny matrix, not zeros
        v, LV, LP = unit_quadratures
        assert LV.shape == LP.shape == (3, 3)
        np.testing.assert_allclose(quad_LV(s * v, params, far_point), s * LV,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(quad_LP(s * v, params, far_point, 1),
                                   s * LP, rtol=1e-12, atol=0.0)

    def test_traceless_symmetric(self, params, direction):
        z = 60 * params.mu * np.array([0.5, 0.5, 1.0]) / np.sqrt(1.5)
        out = quad_LV(direction.eps * direction.zeta0, params, z)
        scale = np.linalg.norm(out)
        assert np.allclose(out, out.T, atol=1e-8 * scale)
        assert abs(np.trace(out)) < 1e-6 * scale

    def test_envelope_bound(self, params, direction):
        # |L V| <= C eps theta(z)^{1-n} with one fitted constant over a
        # z-grid spanning near and far field
        zhat = np.array([0.3, -0.2, 1.0]) / np.linalg.norm([0.3, -0.2, 1.0])
        ratios = []
        for fac in (2.0, 5.0, 20.0, 80.0):
            z = fac * params.mu * zhat
            out = quad_LV(direction.eps * direction.zeta0, params, z)
            env = direction.eps * theta(params.mu, z) ** (1 - 3)
            ratios.append(np.max(np.abs(out)) / env)
        C = max(ratios)
        assert C < 5.0            # one uniform constant fits the whole range
        assert min(ratios) > 0.0

    def test_tail_past_truncation_raises(self):
        # a nearly flat profile (tiny f0) keeps mass far beyond the
        # truncation radius 1e3 mu: its tail bound is about 9e3
        p = BubbleParams(n=3, mu=1.0, f_center=1e-6)
        with pytest.raises(QuadratureBudgetError,
                           match=r"tail bound 9\.\d+e\+03 exceeds"):
            quad_LV([1.0, 0.0, 0.0], p, z=(0.0, 0.0, 2.0))

    def test_tail_check_runs_no_quadrature(self, monkeypatch):
        # the tail bound needs only the profile, z and the truncation
        # radius, so a rejected point costs no kernel evaluation
        import lichlab.bubbles as bubbles

        calls = []
        monkeypatch.setattr(bubbles, "stress_contraction",
                            lambda *a, **k: calls.append(a))
        p = BubbleParams(n=3, mu=1.0, f_center=1e-6)
        with pytest.raises(QuadratureBudgetError):
            quad_LP([1.0, 0.0, 0.0], p, (0.0, 0.0, 2.0), 0)
        assert calls == []
