import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import lichlab.diagnostics as diagnostics
from lichlab.bubbles import BubbleParams, bubble
from lichlab.conformal import SystemCoefficients
from lichlab.diagnostics import (
    conformal_covariance_residuals,
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
from lichlab.quadrature import _usable_cores


def chart_coeffs(g, h=0.0, f=0.0, b=0.0):
    return SystemCoefficients(
        h=ScalarField.constant(g, h), f=ScalarField.constant(g, f),
        b=ScalarField.constant(g, b), U=SymTensorField.zero(g),
        X=OneFormField.zero(g), Y=OneFormField.zero(g), gamma=1.0)


def chart_points(g):
    return np.stack(np.meshgrid(*([g.axis_coords] * g.dimension),
                                indexing="ij"), axis=-1)


class TestStabilityCondition:
    def test_positive_margin(self):
        margin = stability_condition(h0=1.0, f0=1.0, lap_f0=0.0, Rg=30.0, n=6)
        assert margin == pytest.approx(5.0)

    def test_boundary_not_satisfied(self):
        n, Rg = 7, 12.0
        h0 = (n - 2.0) * Rg / (4.0 * (n - 1.0))
        margin = stability_condition(h0=h0, f0=2.0, lap_f0=0.0, Rg=Rg, n=n)
        assert margin == pytest.approx(0.0, abs=1e-14)
        assert not margin > 0.0

    def test_laplacian_term(self):
        margin = stability_condition(h0=-2.0, f0=2.0, lap_f0=10.0, Rg=0.0,
                                     n=6)
        assert margin == pytest.approx(1.0)

    def test_margin_affine_in_h0(self):
        base = stability_condition(h0=0.0, f0=1.0, lap_f0=3.0, Rg=7.0, n=8)
        for dh in (0.5, 2.0, -1.0):
            margin = stability_condition(h0=dh, f0=1.0, lap_f0=3.0, Rg=7.0,
                                         n=8)
            assert margin == pytest.approx(base - dh)

    def test_nodal_arrays_give_the_margin_at_each_node(self):
        h0 = np.array([-2.0, 0.0, 1.0])
        f0 = np.array([2.0, 1.0, 4.0])
        lap_f0 = np.array([10.0, 0.0, -2.0])
        margin = stability_condition(h0, f0, lap_f0, Rg=0.0, n=6)
        assert margin.shape == (3,)
        assert margin == pytest.approx(
            [stability_condition(*node, Rg=0.0, n=6)
             for node in zip(h0, f0, lap_f0)])

    def test_f0_positive_required(self):
        # at every node of an array, too
        for f0 in (0.0, -1.0, np.nan, np.array([1.0, 0.0, 2.0])):
            with pytest.raises(ValueError, match="f0 must be positive"):
                stability_condition(h0=0.0, f0=f0, lap_f0=0.0, Rg=1.0, n=6)


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

    @pytest.mark.parametrize("center", [
        [np.nan, 0.0, 0.0],
        [np.inf, 0.0, 0.0],
        [0.0, 0.0],
        [[0.0, 0.0, 0.0]],
    ])
    def test_center_must_be_a_finite_point(self, center):
        # a NaN center passed the ball-fits check and gave an all-NaN
        # report; a short one failed later in the quadrature arithmetic
        g = Chart(3, 33, extent=1.3)
        v = ScalarField.constant(g, 1.0)
        with pytest.raises(ValueError, match="finite numbers"):
            pohozaev_defect(v, chart_coeffs(g, f=3.0), center, 0.5)

    def test_one_worker_gives_the_same_report(self, monkeypatch):
        # every field is read by the same call on the same array whatever
        # the number of workers, so the report is bit-identical
        g = Chart(3, 33, extent=1.3)
        x = chart_points(g)
        v = ScalarField(g, bubble(BubbleParams(n=3, mu=1.0, f_center=3.0),
                                  x))
        C = replace(chart_coeffs(g),
                    h=ScalarField(g, 0.2 + 0.1 * x[..., 1]),
                    f=ScalarField(g, 3.0 + 0.3 * x[..., 0]),
                    b=ScalarField(g, 0.1 + 0.05 * x[..., 2] ** 2))
        center = np.array([0.1, -0.05, 0.0])
        default = pohozaev_defect(v, C, center, 0.9)
        reads = []
        real = diagnostics.map_coordinates

        def counted(*args, **kwargs):
            reads.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "map_coordinates", counted)
        monkeypatch.setattr(diagnostics, "ThreadPoolExecutor",
                            lambda max_workers: ThreadPoolExecutor(1))
        serial = pohozaev_defect(v, C, center, 0.9)
        assert len(reads) == 7
        assert (serial.interior, serial.boundary, serial.K1, serial.K2,
                serial.K3) == (default.interior, default.boundary,
                               default.K1, default.K2, default.K3)
        assert 0.0 not in (default.K1, default.K2, default.K3)

    @pytest.mark.skipif(_usable_cores() < 2, reason="needs 2 usable cores")
    def test_fields_are_read_concurrently(self, monkeypatch):
        # each map_coordinates call waits for a second one in flight: a
        # loop that reads one field after another breaks the barrier
        barrier = threading.Barrier(2, timeout=10.0)
        real = diagnostics.map_coordinates

        def paired(*args, **kwargs):
            barrier.wait()
            return real(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "map_coordinates", paired)
        p = BubbleParams(n=3, mu=1.0, f_center=3.0)
        g = Chart(3, 33, extent=1.3)
        v = ScalarField(g, bubble(p, chart_points(g)))
        threads = threading.active_count()
        rep = pohozaev_defect(v, chart_coeffs(g, f=3.0), np.zeros(3), 1.0)
        assert rep.defect < 1e-4
        # and the pool is gone once the call returns
        assert threading.active_count() == threads


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
