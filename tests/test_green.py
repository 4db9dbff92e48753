from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lichlab.green import (
    BallQuadrature,
    _lame_fd,
    fundamental,
    killing_basis,
    lame_of_columns,
    project_killing,
    representation_residual,
    stress_kernel,
)


def poly_bump(pts, rho=0.8):
    """Compactly supported one-form (1 - (r/rho)^2)^8 e_1."""
    pts = np.atleast_2d(pts)
    r2 = np.sum(pts ** 2, axis=-1) / rho ** 2
    out = np.zeros((pts.shape[0], 3))
    m = r2 < 1.0
    out[m, 0] = (1.0 - r2[m]) ** 8
    return out


class TestFundamental:
    def test_n3_axis_values(self):
        G = fundamental(np.array([1.0, 0.0, 0.0]), 3)
        assert G[0, 0] == pytest.approx(1.0 / (4.0 * np.pi))
        assert G[0, 1] == 0.0
        assert G[1, 1] == pytest.approx(7.0 / (32.0 * np.pi))

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        for n in (3, 4, 5):
            y = rng.normal(size=n)
            assert np.allclose(fundamental(2 * y, n),
                               2.0 ** (2 - n) * fundamental(y, n))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            y = rng.normal(size=3)
            G = fundamental(y, 3)
            assert np.allclose(G, G.T)

    def test_singularity_raises(self):
        with pytest.raises(ValueError):
            fundamental(np.zeros(3), 3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_columns_in_lame_kernel(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(3):
            y = rng.normal(size=n)
            y *= 1.5 / np.linalg.norm(y)
            assert np.max(np.abs(lame_of_columns(y, n))) < 1e-8


class TestLameStencil:
    @pytest.mark.parametrize("n, calls", [(3, 61), (4, 113)])
    def test_each_stencil_point_evaluated_once(self, n, calls):
        h = 0.01
        pts = np.random.default_rng(7).uniform(-0.5, 0.5, size=(5, n))
        offsets = []

        def X(p):
            assert p.shape == pts.shape
            offsets.append(tuple(np.rint((p[0] - pts[0]) / h).astype(int)))
            return np.sin(p)

        _lame_fd(X, pts, h, n)
        assert len(offsets) == calls
        assert len(set(offsets)) == calls

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32 - 1))
    def test_cubic_one_forms_match_closed_form(self, n, seed):
        # X_i = c_i + B_ia x_a + Q_iab x_a x_b + T_iabc x_a x_b x_c with Q, T
        # symmetric in the lower indices; the stencil is exact on cubics
        rng = np.random.default_rng(seed)
        c, B = rng.normal(size=n), rng.normal(size=(n, n))
        Q = rng.normal(size=(n, n, n))
        Q = 0.5 * (Q + np.swapaxes(Q, 1, 2))
        T = rng.normal(size=(n, n, n, n))
        T = sum(np.transpose(T, (0,) + p)
                for p in permutations((1, 2, 3))) / 6.0

        def X(p):
            return (c + np.einsum("ia,Ma->Mi", B, p)
                    + np.einsum("iab,Ma,Mb->Mi", Q, p, p)
                    + np.einsum("iabc,Ma,Mb,Mc->Mi", T, p, p, p))

        pts = rng.uniform(-1.0, 1.0, size=(20, n))
        hess = 2.0 * Q + 6.0 * np.einsum("iabc,Mc->Miab", T, pts)
        closed = (-np.einsum("Miaa->Mi", hess)
                  - (1.0 - 2.0 / n) * np.einsum("Mjji->Mi", hess))
        assert np.max(np.abs(_lame_fd(X, pts, 0.01, n) - closed)) < 1e-7


class TestStressKernel:
    def test_traceless(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x, y = rng.normal(size=3), rng.normal(size=3)
            H = stress_kernel(x, y, 3)
            assert np.max(np.abs(np.einsum("iip->p", H))) < 1e-14

    def test_scaling(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=3), rng.normal(size=3)
        lam = 1.9
        H1 = stress_kernel(x, y, 3)
        H2 = stress_kernel(lam * x, lam * y, 3)
        assert np.allclose(H2, lam ** (1 - 3) * H1)

    def test_matches_finite_differences(self):
        x = np.array([0.7, -0.3, 0.5])
        y = np.array([-0.2, 0.4, 0.1])
        n, h = 3, 1e-5
        H = stress_kernel(x, y, n)
        dG = np.zeros((n, n, n))
        for a in range(n):
            e = np.zeros(n)
            e[a] = h
            dG[a] = (fundamental(x + e - y, n)
                     - fundamental(x - e - y, n)) / (2 * h)
        Hfd = np.zeros((n, n, n))
        for i in range(n):
            for j in range(n):
                Hfd[i, j] = dG[i, j] + dG[j, i]
                if i == j:
                    Hfd[i, j] -= (2.0 / n) * np.einsum("kkp->p", dG)
        assert np.max(np.abs(H - Hfd)) < 1e-6


@pytest.fixture(scope="module")
def basis():
    return killing_basis(3, 1.0)


class TestKillingBasis:
    def test_dimension_n3(self, basis):
        assert len(basis) == 10

    def test_dimension_n4(self):
        quad = BallQuadrature(4, 1.0, radial_order=12, polar_order=12,
                              azimuth_order=24, panels=2)
        assert len(killing_basis(4, 1.0, quad)) == 15

    def test_orthonormality(self, basis):
        vals = basis.evaluate(basis.quad.points)
        gram = np.einsum("aMi,bMi,M->ab", vals, vals, basis.quad.weights)
        assert np.max(np.abs(gram - np.eye(10))) < 1e-10

    def test_killing_derivative_vanishes(self, basis):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.5, 0.5, size=(30, 3))
        assert np.max(np.abs(basis.killing_deriv(pts))) < 1e-10

    def test_projection_fixes_span(self, basis):
        vals = basis.evaluate(basis.quad.points)
        X = 0.3 * vals[2] - 1.2 * vals[8]
        PX = project_killing(X, basis)
        assert np.max(np.abs(PX - X)) < 1e-10

    def test_projection_idempotent(self, basis):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(basis.quad.node_count, 3))
        PX = project_killing(X, basis)
        PPX = project_killing(PX, basis)
        assert np.max(np.abs(PPX - PX)) < 1e-10

    def test_orthogonalized_bump_projects_to_zero(self, basis):
        X = poly_bump(basis.quad.points)
        X0 = X - project_killing(X, basis)
        assert np.max(np.abs(project_killing(X0, basis))) < 1e-10

    def test_grid_mismatch_rejected(self, basis):
        with pytest.raises(ValueError):
            project_killing(np.zeros((7, 3)), basis)


class TestRepresentation:
    def test_zero_form(self):
        def zero(pts):
            pts = np.atleast_2d(pts)
            return np.zeros((pts.shape[0], 3))

        res = representation_residual(zero, np.zeros(3), 3, radius=1.0)
        assert res == 0.0

    def test_residual_small_and_halving(self):
        x = np.zeros(3)
        res = [representation_residual(poly_bump, x, 3, radius=1.0, level=lev)
               for lev in (0, 1, 2)]
        assert res[-1] < 1e-2 * poly_bump(x[None, :])[0, 0]
        for a, b in zip(res[:-1], res[1:]):
            assert 1.6 <= a / b <= 2.4

    def test_rotation_equivariance(self):
        theta_ang = 0.7
        R = np.array([[np.cos(theta_ang), -np.sin(theta_ang), 0.0],
                      [np.sin(theta_ang), np.cos(theta_ang), 0.0],
                      [0.0, 0.0, 1.0]])
        # the kernel itself is exactly equivariant: G(R z) = R G(z) R^T
        rng = np.random.default_rng(6)
        for _ in range(5):
            z = rng.normal(size=3)
            assert np.allclose(fundamental(R @ z, 3),
                               R @ fundamental(z, 3) @ R.T)

        # the residual probe agrees up to its own (axis-aligned FD) noise
        def rotated(pts):
            return poly_bump(np.atleast_2d(pts) @ R) @ R.T

        x = np.array([0.15, -0.1, 0.2])
        r0 = representation_residual(poly_bump, x, 3, radius=1.0, level=0)
        r1 = representation_residual(rotated, R @ x, 3, radius=1.0, level=0)
        assert 0.5 < r1 / r0 < 2.0
