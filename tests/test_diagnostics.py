from dataclasses import replace

import numpy as np
import pytest

import lichlab.diagnostics as diagnostics
from lichlab.bubbles import BubbleParams, bubble
from lichlab.conformal import SystemCoefficients
from lichlab.diagnostics import (
    conformal_covariance_residuals,
    harnack_ratio,
    pohozaev_defect,
    stability_condition,
)
from lichlab.geometry import (
    Chart,
    GeometryMismatch,
    OneFormField,
    ScalarField,
    SymTensorField,
)


def chart_coeffs(g, h=0.0, f=0.0, b=0.0):
    return SystemCoefficients(
        h=ScalarField.constant(g, h), f=ScalarField.constant(g, f),
        b=ScalarField.constant(g, b), U=SymTensorField.zero(g),
        X=OneFormField.zero(g), Y=OneFormField.zero(g), gamma=1.0)


def chart_points(g):
    return np.stack(np.meshgrid(*([g.axis_coords] * g.dimension),
                                indexing="ij"), axis=-1)


class TestHarnack:
    def test_constant_field(self):
        vals = np.full((8, 8, 8), 5.0)
        mask = np.ones_like(vals, dtype=bool)
        assert harnack_ratio(vals, mask) == pytest.approx(1.0)

    def test_profile_on_unit_ball(self):
        g = Chart(3, 65, extent=1.0)
        pts = chart_points(g)
        vals = bubble(BubbleParams(n=3, mu=1.0, f_center=3.0), pts)
        r = np.linalg.norm(pts, axis=-1)
        inner = r <= 1.0
        # sup = 1 at the origin, inf = (1 + 1)^{-1/2} on the sphere
        assert harnack_ratio(vals, inner) == pytest.approx(np.sqrt(2.0),
                                                           rel=1e-3)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        vals = 1.0 + rng.random((6, 6, 6))
        mask = np.zeros_like(vals, dtype=bool)
        mask[1:5, 1:5, 1:5] = True
        assert harnack_ratio(7.3 * vals, mask) == pytest.approx(
            harnack_ratio(vals, mask))

    def test_positivity_enforced(self):
        vals = np.ones((6, 6, 6))
        vals[0, 0, 0] = -1.0
        mask = np.ones_like(vals, dtype=bool)
        with pytest.raises(ValueError):
            harnack_ratio(vals, mask, mask)


class TestStabilityCondition:
    def test_positive_margin(self):
        out = stability_condition(h0=1.0, f0=1.0, lap_f0=0.0, Rg=30.0, n=6)
        assert out["satisfied"]
        assert out["margin"] == pytest.approx(5.0)

    def test_boundary_not_satisfied(self):
        n, Rg = 7, 12.0
        h0 = (n - 2.0) * Rg / (4.0 * (n - 1.0))
        out = stability_condition(h0=h0, f0=2.0, lap_f0=0.0, Rg=Rg, n=n)
        assert out["margin"] == pytest.approx(0.0, abs=1e-14)
        assert not out["satisfied"]

    def test_laplacian_term(self):
        out = stability_condition(h0=-2.0, f0=2.0, lap_f0=10.0, Rg=0.0, n=6)
        assert out["margin"] == pytest.approx(1.0)
        assert out["satisfied"]

    def test_margin_affine_in_h0(self):
        base = stability_condition(h0=0.0, f0=1.0, lap_f0=3.0, Rg=7.0, n=8)
        for dh in (0.5, 2.0, -1.0):
            out = stability_condition(h0=dh, f0=1.0, lap_f0=3.0, Rg=7.0, n=8)
            assert out["margin"] == pytest.approx(base["margin"] - dh)

    def test_f0_positive_required(self):
        with pytest.raises(ValueError):
            stability_condition(h0=0.0, f0=0.0, lap_f0=0.0, Rg=1.0, n=6)


class TestPohozaev:
    def test_constant_zero_coefficients(self):
        g = Chart(3, 33, extent=1.2)
        v = ScalarField.constant(g, 2.0)
        rep = pohozaev_defect(v, chart_coeffs(g), np.zeros(3), 1.0)
        assert rep.interior == pytest.approx(0.0, abs=1e-13)
        assert rep.boundary == pytest.approx(0.0, abs=1e-13)

    def test_exact_bubble_defect_is_small_on_the_coarse_grid(self):
        # the refinement order is the verify row pohozaev_order
        p = BubbleParams(n=3, mu=1.0, f_center=3.0)
        g = Chart(3, 33, extent=1.3)
        v = ScalarField(g, bubble(p, chart_points(g)))
        rep = pohozaev_defect(v, chart_coeffs(g, f=3.0), np.zeros(3), 1.0)
        assert rep.defect < 1e-4

    def test_constant_coefficients_are_not_interpolated(self, monkeypatch):
        # h, f and a are constant: only v and its three derivatives go
        # through map_coordinates, once each, over the interior nodes and
        # the boundary sphere together
        calls = []
        real = diagnostics.map_coordinates

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "map_coordinates", counted)
        p = BubbleParams(n=3, mu=1.0, f_center=3.0)
        g = Chart(3, 33, extent=1.3)
        v = ScalarField(g, bubble(p, chart_points(g)))
        rep = pohozaev_defect(v, chart_coeffs(g, h=0.3, f=3.0, b=0.1),
                              np.zeros(3), 1.0)
        assert len(calls) == 4
        assert rep.K1 != 0.0 and rep.K3 != 0.0

    def test_rule_matches_the_reference_rule(self, monkeypatch):
        # the ball rule is sized by its own quadrature error: each side of
        # the balance agrees with the finer reference rule to 1e-3 of the
        # defect that the grid leaves
        p = BubbleParams(n=3, mu=1.0, f_center=3.0)
        reference = {"_RADIAL_ORDER": 24, "_PANELS": 6,
                     "_POLAR_ORDER": 32, "_AZIMUTH_ORDER": 64}
        for N in (33, 65, 129):
            g = Chart(3, N, extent=1.3)
            v = ScalarField(g, bubble(p, chart_points(g)))
            C = chart_coeffs(g, f=3.0)
            rep = pohozaev_defect(v, C, np.zeros(3), 1.0)
            with monkeypatch.context() as m:
                for name, value in reference.items():
                    m.setattr(diagnostics, name, value)
                ref = pohozaev_defect(v, C, np.zeros(3), 1.0)
            assert abs(rep.interior - ref.interior) < 1e-3 * ref.defect
            assert abs(rep.boundary - ref.boundary) < 1e-3 * ref.defect

    def test_term_breakdown_sums(self):
        p = BubbleParams(n=3, mu=1.0, f_center=3.0)
        g = Chart(3, 33, extent=1.3)
        v = ScalarField(g, bubble(p, chart_points(g)))
        rep = pohozaev_defect(v, chart_coeffs(g, h=0.3, f=3.0, b=0.1),
                              np.zeros(3), 1.0)
        assert rep.interior == pytest.approx(rep.K1 + rep.K2 + rep.K3)
        assert rep.K1 != 0.0 and rep.K3 != 0.0

    def test_translation_identity_odd_symmetry(self):
        p = BubbleParams(n=3, mu=1.0, f_center=3.0)
        g = Chart(3, 65, extent=1.3)
        v = ScalarField(g, bubble(p, chart_points(g)))
        rep = pohozaev_defect(v, chart_coeffs(g, f=3.0), np.zeros(3), 1.0,
                              direction=np.array([1.0, 0.0, 0.0]))
        assert abs(rep.interior) < 1e-10
        assert abs(rep.boundary) < 1e-10

    def test_ball_must_fit_chart(self):
        g = Chart(3, 33, extent=1.0)
        v = ScalarField.constant(g, 1.0)
        with pytest.raises(ValueError):
            pohozaev_defect(v, chart_coeffs(g), np.array([0.5, 0, 0]), 0.8)

    def test_coefficients_on_another_chart_rejected(self):
        # a finer chart of the same extent: read on v's nodes, its f would
        # give another, wrong, interior value
        p = BubbleParams(n=3, mu=1.0, f_center=3.0)
        g = Chart(3, 33, extent=1.3)
        v = ScalarField(g, bubble(p, chart_points(g)))
        fine = Chart(3, 65, extent=1.3)
        C = replace(chart_coeffs(fine), f=ScalarField(
            fine, 3.0 + 0.3 * chart_points(fine)[..., 0]))
        with pytest.raises(GeometryMismatch):
            pohozaev_defect(v, C, np.zeros(3), 1.0)

    @pytest.mark.parametrize("radius", [-0.5, 0.0])
    def test_radius_must_be_positive(self, radius):
        g = Chart(3, 33, extent=1.3)
        v = ScalarField.constant(g, 1.0)
        with pytest.raises(ValueError, match="positive radius"):
            pohozaev_defect(v, chart_coeffs(g, f=3.0), np.zeros(3), radius)


class TestCovariance:
    def test_flat_factor_trivial(self):
        g = Chart(3, 33, extent=1.0)
        x = g.coords()
        v = ScalarField(g, np.sin(2 * x[0]) * np.cos(x[1])
                        + np.zeros(g.grid_shape))
        Xv = np.zeros((3,) + g.grid_shape)
        Xv[0] = np.cos(x[1]) + 0 * x[0] + 0 * x[2]
        res = conformal_covariance_residuals(
            v, OneFormField(g, Xv), ScalarField.constant(g, 1.0))
        assert all(r < 5e-12 for r in res)

    def test_constant_form_flat_factor(self):
        g = Chart(3, 33, extent=1.0)
        v = ScalarField.constant(g, 0.0)
        Xv = np.zeros((3,) + g.grid_shape)
        Xv[1] = 1.0
        res = conformal_covariance_residuals(
            v, OneFormField(g, Xv), ScalarField.constant(g, 1.0))
        assert res[1] == 0.0 and res[2] == 0.0

    def test_nonpositive_factor_rejected(self):
        g = Chart(3, 33, extent=1.0)
        v = ScalarField.constant(g, 1.0)
        X = OneFormField.zero(g)
        with pytest.raises(ValueError):
            conformal_covariance_residuals(v, X, ScalarField.constant(g, 0.0))

    def test_fields_on_another_chart_rejected(self):
        g = Chart(3, 33, extent=1.0)
        v = ScalarField.constant(g, 1.0)
        X = OneFormField.zero(Chart(3, 33, extent=2.0))
        with pytest.raises(GeometryMismatch):
            conformal_covariance_residuals(v, X, ScalarField.constant(g, 1.0))
