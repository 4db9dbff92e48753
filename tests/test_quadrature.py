from math import pi

import numpy as np
import pytest

from lichlab.quadrature import (
    ball_rule,
    gauss_panels,
    singular_shells,
    unit_sphere_rule,
)


class TestOrders:
    @pytest.mark.parametrize("rule, match", [
        (lambda: unit_sphere_rule(3, 4, 0), "azimuth_order"),
        (lambda: unit_sphere_rule(3, 0, 8), "polar_order"),
        (lambda: gauss_panels(np.linspace(0.0, 1.0, 3), 0), "order"),
    ], ids=["azimuth", "polar", "gauss"])
    def test_order_below_one_rejected(self, rule, match):
        with pytest.raises(ValueError, match=match):
            rule()

    # else numpy's "need at least one array to concatenate" names neither
    @pytest.mark.parametrize("rule, match", [
        (lambda: gauss_panels([0.0], 4), "edges"),
        (lambda: gauss_panels([], 4), "edges"),
        (lambda: ball_rule(3, 1.0, 0, 4, unit_sphere_rule(3, 4, 8)),
         "panels"),
    ], ids=["one-edge", "no-edge", "no-panel"])
    def test_empty_panels_rejected(self, rule, match):
        with pytest.raises(ValueError, match=match):
            rule()


class TestBallRule:
    @pytest.mark.parametrize("n, volume", [(3, 4.0 * pi / 3.0),
                                           (4, pi ** 2 / 2.0)])
    def test_weights_sum_to_volume(self, n, volume):
        radius = 0.7
        pts, w = ball_rule(n, radius, 3, 8, unit_sphere_rule(n, 8, 16),
                           center=np.full(n, 0.2))
        assert pts.shape == (w.size, n)
        assert abs(np.sum(w) / (volume * radius ** n) - 1.0) < 1e-13
        assert np.max(np.linalg.norm(pts - 0.2, axis=-1)) < radius


class TestSingularShells:
    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("x", [(0.0, 0.0, 0.0), (0.15, -0.1, 0.2)])
    def test_integrates_ball_moments(self, level, x):
        # the settings of green.representation_residual on the unit ball:
        # the patch and the bulk weights must add up to the plain measure
        npolar, nrad, rho = 24 + 8 * level, 20 + 4 * level, 0.25
        rule = unit_sphere_rule(3, npolar, 2 * npolar)
        volume = second = 0.0
        for y, w in singular_shells(np.array(x), rho, nrad,
                                    np.linspace(0.0, 1.5 * rho, 7), rule,
                                    np.zeros(3), np.linspace(0.0, 1.0, 7),
                                    rule):
            assert np.all(w > 0.0)
            volume += np.sum(w)
            second += w @ np.sum(y ** 2, axis=-1)
        assert abs(volume / (4.0 * pi / 3.0) - 1.0) < 1e-6
        assert abs(second / (4.0 * pi / 5.0) - 1.0) < 1e-6
