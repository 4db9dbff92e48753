import numpy as np
import pytest
from scipy.optimize import brentq

import lichlab.solver as solver

from lichlab.conformal import SystemCoefficients, critical_exponent
from lichlab.geometry import (
    OneFormField,
    ScalarField,
    SymTensorField,
    Torus,
    h1_norm_squared,
    lame,
)
from lichlab.solver import (
    DegenerateDataError,
    NewtonDivergedError,
    NonCoerciveError,
    SolveOptions,
    constant_balance_root,
    manufactured_forcing,
    momentum_residual_field,
    scalar_residual_field,
    solve_momentum,
    solve_scalar,
    solve_system,
)


def make_coeffs(g, h=1.0, f=0.25, b=0.125, gamma=1.0, X=None, Y=None, U=None):
    def scal(v):
        if isinstance(v, ScalarField):
            return v
        if np.isscalar(v):
            return ScalarField.constant(g, v)
        return ScalarField(g, v)

    return SystemCoefficients(
        h=scal(h), f=scal(f), b=scal(b),
        U=U if U is not None else SymTensorField.zero(g),
        X=X if X is not None else OneFormField.zero(g),
        Y=Y if Y is not None else OneFormField.zero(g),
        gamma=gamma)


@pytest.fixture(scope="module")
def torus16():
    return Torus(3, 16)


class TestMomentum:
    def test_zero_rhs(self, torus16):
        C = make_coeffs(torus16)
        u = ScalarField.constant(torus16, 1.3)
        W, defect = solve_momentum(u, C)
        assert np.max(np.abs(W.values)) < 1e-14
        assert defect < 1e-14

    def test_symbol_inversion_closed_form(self, torus16):
        g = torus16
        x = g.coords()
        vals = np.zeros((3,) + g.grid_shape)
        vals[0] = np.cos(x[0])
        C = make_coeffs(g, X=OneFormField(g, vals))
        c = 1.7
        u = ScalarField.constant(g, c)
        W, defect = solve_momentum(u, C)
        p = critical_exponent(3)
        expected = c ** p * vals[0] / (4.0 / 3.0)
        assert np.max(np.abs(W.values[0] - expected)) < 1e-10
        assert np.max(np.abs(W.values[1:])) < 1e-12
        assert defect < 1e-12

    def test_odd_rhs_has_zero_kernel_defect(self, torus16):
        g = torus16
        x = g.coords()
        tau_grad = np.zeros((3,) + g.grid_shape)
        tau_grad[0] = -(2.0 / 3.0) * (-np.sin(x[0]))   # X = -(2/3) grad(cos x1)
        C = make_coeffs(g, X=OneFormField(g, tau_grad))
        u_vals = 1.0 + 0.3 * np.cos(x[0]) + np.zeros(g.grid_shape)
        _, defect = solve_momentum(ScalarField(g, u_vals), C)
        assert defect < 1e-13


class TestScalar:
    def test_degenerate_data_flagged(self, torus16):
        C = make_coeffs(torus16, h=1.0, f=0.0, b=0.0)
        with pytest.raises(DegenerateDataError):
            solve_scalar(OneFormField.zero(torus16), C, SolveOptions())

    def test_krylov_failure_raises(self, torus16, monkeypatch):
        # a usable step reported with a nonzero info is still a failure
        minres = solver.spla.minres

        def failing(A, b, **kwargs):
            return minres(A, b, **kwargs)[0], -1

        monkeypatch.setattr(solver.spla, "minres", failing)
        with pytest.raises(NewtonDivergedError):
            solve_scalar(OneFormField.zero(torus16), make_coeffs(torus16),
                         SolveOptions(initial_guess=2.0))

    def test_non_descent_step_rejected(self, torus16, monkeypatch):
        # one ascent direction, then honest Newton steps: no step length
        # reduces the residual, so the solve must stop there
        minres = solver.spla.minres
        calls = []

        def ascent_once(A, b, **kwargs):
            x, info = minres(A, b, **kwargs)
            calls.append(1)
            return (-x if len(calls) == 1 else x), info

        monkeypatch.setattr(solver.spla, "minres", ascent_once)
        with pytest.raises(NewtonDivergedError):
            solve_scalar(OneFormField.zero(torus16), make_coeffs(torus16),
                         SolveOptions(initial_guess=2.0))
        assert len(calls) == 1

    def test_noncoercive_rejected(self, torus16):
        C = make_coeffs(torus16, h=-1.0)
        with pytest.raises(NonCoerciveError):
            solve_scalar(OneFormField.zero(torus16), C, SolveOptions())

    def test_manufactured_pointwise(self, torus16):
        g = torus16
        x = g.coords()
        u_star = ScalarField(g, 2.0 + 0.1 * np.cos(x[0]) + np.zeros(g.grid_shape))
        C = make_coeffs(g, h=0.0, f=1.0, b=1.0)
        C = manufactured_forcing(u_star, OneFormField.zero(g), C)
        u = solve_scalar(OneFormField.zero(g), C,
                         SolveOptions(initial_guess=2.0, coercivity_check="off"))
        assert np.max(np.abs(u.values - u_star.values)) < 1e-8

    def test_constant_balance_against_root_finder(self, torus16):
        g = torus16
        h, f, b = 1.0, 0.25, 0.125
        C = make_coeffs(g, h=h, f=f, b=b)
        u = solve_scalar(OneFormField.zero(g), C, SolveOptions())
        p = critical_exponent(3)
        root = brentq(lambda t: h * t - f * t ** (p - 1) - b * t ** (-p - 1),
                      0.1, 1.2, xtol=1e-14)
        assert np.max(np.abs(u.values - root)) < 1e-9
        assert abs(constant_balance_root(h, f, b, 3) - root) < 1e-6


class TestSystem:
    def test_decoupled_matches_scalar(self, torus16):
        C = make_coeffs(torus16)
        sol = solve_system(C, SolveOptions())
        u_direct = solve_scalar(OneFormField.zero(torus16), C, SolveOptions())
        assert sol.converged
        assert np.max(np.abs(sol.W.values)) < 1e-14
        assert np.max(np.abs(sol.u.values - u_direct.values)) < 1e-12

    def test_manufactured_coupled_recovery(self):
        g = Torus(3, 16)
        x = g.coords()
        u_star = ScalarField(g, 1.5 + 0.1 * np.cos(x[0]) + np.zeros(g.grid_shape))
        w_vals = np.zeros((3,) + g.grid_shape)
        w_vals[0] = 0.05 * np.cos(x[1])
        w_vals[2] = 0.05 * np.sin(x[0]) * np.cos(x[1])
        W_star = OneFormField(g, w_vals)
        x_vals = np.zeros((3,) + g.grid_shape)
        x_vals[0] = 0.2 * np.sin(x[0])
        C = make_coeffs(g, h=0.0, f=0.25, b=0.125, X=OneFormField(g, x_vals))
        C = manufactured_forcing(u_star, W_star, C)
        sol = solve_system(C, SolveOptions(damping=1.0, initial_guess=1.5,
                                           coercivity_check="off"))
        assert sol.converged
        assert sol.iterations <= 15
        assert np.max(np.abs(sol.u.values - u_star.values)) < 1e-6
        assert np.max(np.abs(sol.W.values - W_star.values)) < 1e-6

    def test_manufactured_fixed_point_immediate(self, torus16):
        g = torus16
        x = g.coords()
        u_star = ScalarField(g, 1.2 + 0.05 * np.cos(x[1]) + np.zeros(g.grid_shape))
        W_star = OneFormField.zero(g)
        C = manufactured_forcing(u_star, W_star, make_coeffs(g, h=0.0))
        res = np.max(np.abs(scalar_residual_field(u_star, W_star, C)))
        mom = np.max(np.abs(momentum_residual_field(u_star, W_star, C)))
        assert res < 1e-10
        assert mom < 1e-10

    def test_focusing_system_level_coefficients_converge(self, torus16):
        g = torus16
        x = g.coords()
        x_vals = np.zeros((3,) + g.grid_shape)
        x_vals[0] = 0.1 * np.sin(x[0])
        y_vals = np.zeros((3,) + g.grid_shape)
        y_vals[1] = 0.05 * np.sin(x[1])
        C = make_coeffs(g, h=1.0, f=0.25, b=0.125,
                        X=OneFormField(g, x_vals), Y=OneFormField(g, y_vals))
        sol = solve_system(C, SolveOptions())
        assert sol.converged
        assert np.min(sol.u.values) > 0.0
        assert np.max(np.abs(sol.W.values)) > 0.0

    def test_gauge_invariance_constant_form(self, torus16):
        g = torus16
        x = g.coords()
        x_vals = np.zeros((3,) + g.grid_shape)
        x_vals[0] = 0.1 * np.sin(x[0])
        C = make_coeffs(g, X=OneFormField(g, x_vals))
        sol = solve_system(C, SolveOptions())
        shifted = OneFormField(g, sol.W.values
                               + np.array([0.4, -0.2, 1.0])[:, None, None, None])
        r0 = scalar_residual_field(sol.u, sol.W, C)
        r1 = scalar_residual_field(sol.u, shifted, C)
        m0 = momentum_residual_field(sol.u, sol.W, C)
        m1 = momentum_residual_field(sol.u, shifted, C)
        assert np.max(np.abs(r0 - r1)) < 1e-12
        assert np.max(np.abs(m0 - m1)) < 1e-12

    def test_residual_certificate(self, torus16):
        g = torus16
        x = g.coords()
        x_vals = np.zeros((3,) + g.grid_shape)
        x_vals[0] = 0.1 * np.sin(x[0])
        C = make_coeffs(g, X=OneFormField(g, x_vals))
        sol = solve_system(C, SolveOptions())
        assert sol.converged
        fresh_scal = np.max(np.abs(scalar_residual_field(sol.u, sol.W, C)))
        fresh_mom = np.max(np.abs(momentum_residual_field(sol.u, sol.W, C)))
        assert abs(fresh_scal - sol.scalar_residual) < 1e-12
        assert abs(fresh_mom - sol.momentum_residual) < 1e-12

    def test_decoupling_limit_first_order(self, torus16):
        g = torus16
        x = g.coords()
        base = np.zeros((3,) + g.grid_shape)
        base[0] = np.sin(x[0])
        norms = []
        for s in (1e-2, 1e-3, 1e-4):
            C = make_coeffs(g, X=OneFormField(g, s * base))
            sol = solve_system(C, SolveOptions())
            norms.append(np.sqrt(h1_norm_squared(sol.W)))
        assert norms[0] / norms[1] == pytest.approx(10.0, rel=0.05)
        assert norms[1] / norms[2] == pytest.approx(10.0, rel=0.05)

    def test_monotone_refinement_manufactured(self):
        errs = []
        for N in (8, 16):
            g = Torus(3, N)
            x = g.coords()
            u_star = ScalarField(
                g, 1.5 + 0.2 * np.cos(x[0]) * np.cos(x[1]) + np.zeros(g.grid_shape))
            C = make_coeffs(g, h=0.0, f=0.25, b=0.125)
            C = manufactured_forcing(u_star, OneFormField.zero(g), C)
            u = solve_scalar(OneFormField.zero(g), C,
                             SolveOptions(initial_guess=1.5, coercivity_check="off"))
            errs.append(np.max(np.abs(u.values - u_star.values)))
        # the discrete manufactured problem is exact at both resolutions,
        # so both errors sit at the solver tolerance floor
        assert errs[0] < 1e-8 and errs[1] < 1e-8
