from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from lichlab.geometry import (
    GeometryMismatch,
    ScalarField,
    SphereRadial,
    conformal_killing_deriv,
)
from lichlab.harness import check_instability
from lichlab.instability import (
    EtaParams,
    assemble,
    phi_bubble_sphere,
    solve_Z,
    sphere_yamabe_residual,
    verify,
)
from lichlab.solver import momentum_residual_field


def homogeneous_solutions(r):
    """Closed-form solutions of the homogeneous radial one-form equation.

    Returns (Z1, Z2) with Z1(pi/2) = 1, Z1'(pi/2) = 0 and Z2(pi/2) = 0,
    Z2'(pi/2) = -1.
    """
    r = np.asarray(r, dtype=float)
    z1 = np.sin(r)
    z2 = np.cos(r) + np.cos(r) ** 3 / (3.0 * np.sin(r) ** 2)
    return z1, z2


class TestSphereBubble:
    def test_pole_value_closed_form(self):
        assert phi_bubble_sphere(3, 1.25, 0.0) == pytest.approx(np.sqrt(3.0))

    def test_large_lam_limit(self):
        r = np.linspace(0.0, np.pi, 7)
        assert np.allclose(phi_bubble_sphere(3, 1e8, r), 1.0, rtol=1e-6)

    @pytest.mark.parametrize("lam", [1.0, np.nan, np.inf])
    def test_lam_must_be_finite_and_exceed_one(self, lam):
        with pytest.raises(ValueError, match="lam must be finite"):
            phi_bubble_sphere(3, lam, 0.5)
        # assemble leaves the check to phi_bubble_sphere
        with pytest.raises(ValueError, match="lam must be finite"):
            assemble(lam, geometry=SphereRadial(64))

    def test_yamabe_identity_n3(self):
        assert sphere_yamabe_residual(3, 1.25) < 1e-6

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_yamabe_identity_general_n(self, n):
        assert sphere_yamabe_residual(n, 1.2) < 1e-6

    def test_cosine_convention_is_the_right_one(self):
        # substituting r for cos r leaves an O(1) residual (and is not even
        # defined past r = lam)
        lam = 1.25
        grid = np.linspace(1e-3, 1.1, 1024)
        phi_wrong = (lam ** 2 - 1.0) ** 0.25 * (lam - grid) ** -0.5
        from lichlab.geometry import _fd_matrix
        d1, d2 = _fd_matrix(grid, 1), _fd_matrix(grid, 2)
        lap = -(d2 @ phi_wrong) - 2.0 / np.tan(grid) * (d1 @ phi_wrong)
        res = lap + 0.75 * phi_wrong - 0.75 * phi_wrong ** 5
        assert np.max(np.abs(res)) / np.max(0.75 * phi_wrong ** 5) > 0.1


class TestRadialProfile:
    def test_initial_conditions(self):
        grid = np.linspace(1e-3, np.pi - 1e-3, 2048)
        Z, Zp = solve_Z(1.25, grid)
        mid = np.argmin(np.abs(grid - np.pi / 2))
        # grid point nearest pi/2; interpolate the ICs loosely
        assert Z[mid] == pytest.approx(1.0, abs=2e-3)
        assert abs(Zp[mid]) < 5e-3

    def test_second_derivative_at_equator(self):
        lam = 1.25
        eps = 1e-6
        grid = np.array([np.pi / 2 - eps, np.pi / 2, np.pi / 2 + eps])
        Z, _ = solve_Z(lam, grid)
        zpp = (Z[0] - 2 * Z[1] + Z[2]) / eps ** 2
        phi_eq = (lam ** 2 - 1.0) ** 0.25 * lam ** -0.5
        assert zpp == pytest.approx(-1.0 - 0.75 * phi_eq ** 6, rel=1e-3)

    def test_homogeneous_solutions_satisfy_ode(self):
        from lichlab.geometry import _fd_matrix
        r = np.linspace(0.3, np.pi - 0.3, 2001)
        d1, d2 = _fd_matrix(r, 1), _fd_matrix(r, 2)
        for z in homogeneous_solutions(r):
            res = (d2 @ z) + 2.0 / np.tan(r) * (d1 @ z) \
                + (1 - 2.0 / np.tan(r) ** 2) * z
            assert np.max(np.abs(res)) < 1e-6 * np.max(np.abs(z))

    def test_against_variation_of_parameters_oracle(self):
        lam = 1.2
        grid = np.linspace(0.4, np.pi - 0.4, 4001)
        Z, _ = solve_Z(lam, grid)
        # oracle: Z = sin r + Z1 I2 - Z2 I1 with quadrature integrals
        # running from pi/2 (dense Simpson on a fine grid)
        fine = np.linspace(0.4, np.pi - 0.4, 40001)
        z1, z2 = homogeneous_solutions(fine)
        gsrc = -0.75 * phi_bubble_sphere(3, lam, fine) ** 6
        mid = len(fine) // 2
        itg1 = z1 * gsrc * np.sin(fine) ** 2
        itg2 = z2 * gsrc * np.sin(fine) ** 2
        I1 = cumulative_simpson(itg1, x=fine, initial=0.0)
        I2 = cumulative_simpson(itg2, x=fine, initial=0.0)
        I1 -= I1[mid]
        I2 -= I2[mid]
        oracle = np.sin(fine) + z1 * I2 - z2 * I1
        Z_interp = np.interp(grid, fine, oracle)
        assert np.max(np.abs(Z - Z_interp)) < 1e-6

    def test_homogeneous_variant_two_integrators(self):
        # RHS = 0: the adaptive integrator must reproduce sin(r) exactly
        grid = np.linspace(0.2, np.pi - 0.2, 512)

        from scipy.integrate import solve_ivp

        def rhs(r, y):
            cot = 1.0 / np.tan(r)
            return [y[1], -2 * cot * y[1] - (1 - 2 * cot ** 2) * y[0]]

        out = []
        for method in ("DOP853", "Radau"):
            sol = solve_ivp(rhs, (np.pi / 2, grid[0]), [1.0, 0.0],
                            method=method, dense_output=True,
                            rtol=1e-11, atol=1e-12)
            out.append(sol.sol(grid[grid < np.pi / 2])[0])
        assert np.max(np.abs(out[0] - out[1])) < 1e-8
        assert np.max(np.abs(out[0] - np.sin(grid[grid < np.pi / 2]))) < 1e-8


@pytest.fixture(scope="module")
def asm():
    return assemble(1.25, geometry=SphereRadial(2048))


class TestAssembly:
    def test_zero_cutoff_rejected(self):
        with pytest.raises(ValueError):
            EtaParams(delta=1.5, rise=0.2, fall=0.2)    # empty plateau

    def test_support_constraints(self, asm):
        g = asm.geometry
        inside = g.r < asm.eta_params.delta
        outside = g.r > np.pi - asm.eta_params.delta
        assert np.all(asm.W.values[inside] == 0.0)
        assert np.all(asm.W.values[outside] == 0.0)

    def test_cancellation_identity(self, asm):
        LW = conformal_killing_deriv(asm.W)
        assert np.max(np.abs(asm.C.U.values + LW.values)) < 1e-14

    def test_U_traceless(self, asm):
        from lichlab.geometry import tensor_trace
        assert np.max(np.abs(tensor_trace(asm.C.U))) < 1e-12

    def test_killing_rr_component_at_equator(self):
        # with a ramp crossing pi/2 the rr-component there is
        # (4/3) eta'(pi/2), using Z(pi/2) = 1, Z'(pi/2) = 0
        params = EtaParams(delta=0.8, rise=1.0, fall=0.3)
        g = SphereRadial(4096)
        asm = assemble(1.25, params, g)
        LW = conformal_killing_deriv(asm.W)
        mid = np.argmin(np.abs(g.r - np.pi / 2))
        _, etap, _ = params.evaluate(np.array([g.r[mid]]))
        assert etap[0] != 0.0
        assert LW.values[0][mid] == pytest.approx((4.0 / 3.0) * etap[0],
                                                  rel=5e-3)


class TestVerify:
    def test_momentum_residual_rejected_off_the_torus(self):
        # it removes the torus's constant-form kernel, which the sphere's
        # radial one-forms do not have
        asm = assemble(1.25, geometry=SphereRadial(512))
        with pytest.raises(GeometryMismatch):
            momentum_residual_field(asm.phi, asm.W, asm.C)

    def test_lam_15_closed_form_value(self):
        rep = verify(assemble(1.5, geometry=SphereRadial(1024)))
        assert rep.sup_phi == pytest.approx(2.5 ** 0.25 / 0.5 ** 0.25,
                                            rel=1e-12)

    def test_margin_row_fails_off_the_bound(self, asm):
        # a mutant family with h = 3/4 + 1e-6 has margin -1e-6 at every
        # node, and no other row of the check sees it
        reps = []
        for member in (assemble(1.5, geometry=asm.geometry), asm):
            reps.append(verify(replace(member, C=replace(
                member.C, h=ScalarField.constant(asm.geometry, 0.75 + 1e-6)))))
            assert reps[-1].stability_margin == pytest.approx(1e-6, rel=1e-3)
        failed = [r.name for r in check_instability(reps) if not r.passed]
        assert failed == ["instability_stability_margin"]

    def test_check_needs_two_members(self, asm):
        # sup_increasing and data_spread compare consecutive members
        for reps in ([], [verify(asm)]):
            with pytest.raises(ValueError, match="at least two"):
                check_instability(reps)

    def test_family_converges_as_lam_decreases(self):
        # Cauchy differences of U and Y between successive lam values
        # shrink as lam -> 1
        g = SphereRadial(2048)
        asms = [assemble(lam, geometry=g) for lam in (1.2, 1.05, 1.01, 1.002)]
        dU = [np.max(np.abs(a.C.U.values - b.C.U.values))
              for a, b in zip(asms[:-1], asms[1:])]
        dY = [np.max(np.abs(a.C.Y.values - b.C.Y.values))
              for a, b in zip(asms[:-1], asms[1:])]
        assert dU[0] > dU[1] > dU[2]
        assert dY[0] > dY[1] > dY[2]
