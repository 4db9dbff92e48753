import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lichlab import green
from lichlab.green import (
    _lame_fd,
    fundamental,
    fundamental_contraction,
    killing_basis,
    lame_of_columns,
    project_killing,
    representation_residual,
    stress_contraction,
    stress_kernel,
)
from lichlab.quadrature import _usable_cores, ball_rule, unit_sphere_rule


def poly_bump(pts, rho=0.8):
    """Compactly supported one-form (1 - (r/rho)^2)^8 e_1 in any dimension."""
    pts = np.atleast_2d(pts)
    r2 = np.sum(pts ** 2, axis=-1) / rho ** 2
    out = np.zeros(pts.shape)
    m = r2 < 1.0
    out[m, 0] = (1.0 - r2[m]) ** 8
    return out


class TestFundamental:
    def test_n3_axis_values(self):
        G = fundamental(np.array([1.0, 0.0, 0.0]), 3)
        assert G[0, 0] == pytest.approx(1.0 / (4.0 * np.pi))
        assert G[0, 1] == 0.0
        assert G[1, 1] == pytest.approx(7.0 / (32.0 * np.pi))

    def test_singularity_raises(self):
        with pytest.raises(ValueError):
            fundamental(np.zeros(3), 3)

    def test_dimension_two_rejected(self):
        with pytest.raises(ValueError, match="need n >= 3"):
            fundamental(np.array([1.0, 0.0]), 2)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([3, 4, 5]), st.integers(1, 40),
           st.integers(0, 2 ** 32 - 1))
    def test_contraction_matches_matrices(self, n, M, seed):
        rng = np.random.default_rng(seed)
        d, v, w = (rng.normal(size=(M, n)), rng.normal(size=(M, n)),
                   rng.normal(size=M))
        G = fundamental(d, n)
        expected = np.einsum("M,Mij,Mj->i", w, G, v)
        scale = np.max(np.einsum("M,Mij,Mj->i", np.abs(w), np.abs(G),
                                 np.abs(v)))
        got = fundamental_contraction(d, v, w)
        assert np.max(np.abs(got - expected)) <= 1e-13 * scale
        d[rng.integers(M)] = 0.0
        with pytest.raises(ValueError):
            fundamental_contraction(d, v, w)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_columns_in_lame_kernel(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(3):
            y = rng.normal(size=n)
            y *= 1.5 / np.linalg.norm(y)
            assert np.max(np.abs(lame_of_columns(y, n))) < 1e-8


class TestLameStencil:
    # 1 + 4n + 2n(n-1): the centre, 4 points per axis, 4 on the diagonal
    # e_a + e_b of each plane
    @pytest.mark.parametrize("n, calls", [(3, 25), (4, 41)])
    def test_each_stencil_point_evaluated_once(self, n, calls):
        h = 0.01
        pts = np.random.default_rng(7).uniform(-0.5, 0.5, size=(5, n))
        offsets = []

        def X(p):
            assert p.shape == pts.shape and p.dtype == float
            assert p.flags.f_contiguous          # coordinate-major points
            offsets.append(tuple(np.rint((p[0] - pts[0]) / h).astype(int)))
            return np.sin(p)

        _lame_fd(X, pts, h, n)
        assert len(offsets) == calls
        e = np.eye(n, dtype=int)
        steps = list(e) + [e[a] + e[b] for a in range(n) for b in range(a)]
        expected = {tuple(s * v) for v in steps for s in (-2, -1, 1, 2)}
        assert set(offsets) == expected | {(0,) * n}

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([3, 4]), st.integers(1, 40),
           st.integers(0, 2 ** 32 - 1))
    def test_point_layout_does_not_change_values(self, n, M, seed):
        pts = np.random.default_rng(seed).uniform(-0.7, 0.7, size=(M, n))
        for X in (poly_bump, lambda p: fundamental(p, n)):
            c_order = _lame_fd(X, np.ascontiguousarray(pts), 0.01, n)
            f_order = _lame_fd(X, np.asfortranarray(pts), 0.01, n)
            assert np.array_equal(c_order, f_order)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([3, 4, 5]), st.integers(0, 2 ** 32 - 1))
    def test_quintic_one_forms_match_closed_form(self, n, seed):
        # X_i = c_i + B_ia x_a + Q_iab x_a x_b + ... + S_iabcde x_a..x_e with
        # each tensor symmetric in its lower indices.  A 4th-order stencil is
        # exact on quintics; a 2nd-order one is not, its h^2 error being made
        # of the 4th derivatives of the quartic and quintic terms.
        rng = np.random.default_rng(seed)

        def symmetric(k):
            T = rng.normal(size=(n,) * (k + 1))
            return sum(np.transpose(T, (0,) + p)
                       for p in permutations(range(1, k + 1))) / factorial(k)

        c, B = rng.normal(size=n), rng.normal(size=(n, n))
        Q, T, P, S = (symmetric(k) for k in (2, 3, 4, 5))

        def X(p):
            # optimize: contract one index at a time, not all n^6 at once
            return (c + np.einsum("ia,Ma->Mi", B, p)
                    + np.einsum("iab,Ma,Mb->Mi", Q, p, p)
                    + np.einsum("iabc,Ma,Mb,Mc->Mi", T, p, p, p)
                    + np.einsum("iabcd,Ma,Mb,Mc,Md->Mi", P, p, p, p, p,
                                optimize=True)
                    + np.einsum("iabcde,Ma,Mb,Mc,Md,Me->Mi",
                                S, p, p, p, p, p, optimize=True))

        pts = rng.uniform(-1.0, 1.0, size=(20, n))
        hess = (2.0 * Q + 6.0 * np.einsum("iabc,Mc->Miab", T, pts)
                + 12.0 * np.einsum("iabcd,Mc,Md->Miab", P, pts, pts)
                + 20.0 * np.einsum("iabcde,Mc,Md,Me->Miab", S, pts, pts, pts))
        closed = (-np.einsum("Miaa->Mi", hess)
                  - (1.0 - 2.0 / n) * np.einsum("Mjji->Mi", hess))
        assert np.max(np.abs(_lame_fd(X, pts, 0.05, n) - closed)) < 1e-7


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

    def test_dimension_two_rejected(self):
        with pytest.raises(ValueError, match="need n >= 3"):
            stress_contraction(np.ones((4, 2)), np.ones(2), np.ones(4))

    @pytest.mark.parametrize("n", [3, 4])
    def test_weighted_sum_of_pointwise_contractions(self, n):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(7, n))
        vec, c = rng.normal(size=n), rng.normal(size=7)
        pointwise = np.stack([stress_kernel(wM, np.zeros(n), n) @ vec
                              for wM in w])
        expected = np.einsum("M,Mij->ij", c, pointwise)
        got = stress_contraction(w, vec, c)
        assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))


@pytest.fixture(scope="module")
def basis():
    return killing_basis(3, 1.0)


class TestKillingBasis:
    def test_dimension_n4(self):
        rule = ball_rule(4, 1.0, 2, 12, unit_sphere_rule(4, 12, 24))
        assert len(killing_basis(4, 1.0, rule)) == 15

    def test_projection_fixes_span(self, basis):
        vals = basis.evaluate(basis.points)
        X = 0.3 * vals[2] - 1.2 * vals[8]
        PX = project_killing(X, basis)
        assert np.max(np.abs(PX - X)) < 1e-10

    def test_projection_idempotent(self, basis):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(len(basis.weights), 3))
        PX = project_killing(X, basis)
        PPX = project_killing(PX, basis)
        assert np.max(np.abs(PPX - PX)) < 1e-10

    def test_orthogonalized_bump_projects_to_zero(self, basis):
        X = poly_bump(basis.points)
        X0 = X - project_killing(X, basis)
        assert np.max(np.abs(project_killing(X0, basis))) < 1e-10

    # a non-finite radius would give a basis of NaN coefficients
    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="finite positive radius"):
            killing_basis(3, radius)

    def test_grid_mismatch_rejected(self, basis):
        with pytest.raises(ValueError):
            project_killing(np.zeros((7, 3)), basis)


class TestRepresentation:
    @pytest.mark.parametrize("level", [0, True])     # a bool is an int
    def test_zero_form(self, level):
        def zero(pts):
            pts = np.atleast_2d(pts)
            return np.zeros((pts.shape[0], 3))

        res = representation_residual(zero, np.zeros(3), 3, radius=1.0,
                                      level=level)
        assert res == 0.0

    # a probe on a ball of negative radius would pass by construction (0.0);
    # one at a non-finite point or radius returns nan or |X(x)|
    @pytest.mark.parametrize("x, kwargs, match", [
        (np.zeros(3), {"radius": -1.0}, "radius"),
        (np.zeros(3), {"radius": np.inf}, "radius"),
        (np.zeros(3), {"level": -3}, "level"),
        (np.zeros(3), {"level": 0.5}, "level"),
        (np.zeros(4), {}, "x has shape"),
        (np.array([0.0, 0.0, np.nan]), {}, "finite x"),
        (np.zeros(2), {"n": 2}, "n >= 3"),
    ])
    def test_bad_input_rejected(self, x, kwargs, match):
        def X(p):
            raise AssertionError("X called before the input was checked")

        with pytest.raises(ValueError, match=match):
            representation_residual(X, x, **({"n": 3} | kwargs))

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

    @pytest.mark.parametrize("x", [np.zeros(3), np.array([0.15, -0.1, 0.2])])
    def test_one_worker_gives_the_same_result(self, monkeypatch, x):
        # every shell's contraction is added in shell order whatever the
        # number of workers, so the result is bit-identical
        default = [representation_residual(poly_bump, x, 3, level=le)
                   for le in (0, 1)]
        monkeypatch.setattr(green, "ThreadPoolExecutor",
                            lambda max_workers: ThreadPoolExecutor(1))
        serial = [representation_residual(poly_bump, x, 3, level=le)
                  for le in (0, 1)]
        assert serial == default

    @pytest.mark.skipif(_usable_cores() < 2, reason="needs 2 usable cores")
    def test_batches_run_concurrently(self):
        # the first two calls of X wait for each other: a loop that runs
        # one batch after another breaks the barrier
        barrier = threading.Barrier(2, timeout=10.0)
        waits = iter(range(2))
        lock = threading.Lock()

        def paired(p):
            with lock:
                wait = next(waits, None) is not None
            if wait:
                barrier.wait()
            return poly_bump(p)

        threads = threading.active_count()
        res = representation_residual(paired, np.zeros(3), 3, level=0)
        assert res == representation_residual(poly_bump, np.zeros(3), 3,
                                               level=0)
        # and the pool is gone once the call returns
        assert threading.active_count() == threads

    def test_exception_from_X_propagates(self):
        err = ArithmeticError("X failed")
        calls = iter(range(60))

        def failing(p):
            if next(calls, None) is None:
                raise err
            return poly_bump(p)

        threads = threading.active_count()
        with pytest.raises(ArithmeticError) as info:
            representation_residual(failing, np.zeros(3), 3, level=0)
        assert info.value is err
        assert threading.active_count() == threads

    def test_each_node_evaluated_once_on_coordinate_major_points(
            self, monkeypatch):
        # batching whole shells leaves X 25 calls per node at n = 3 (the
        # stencil of _lame_fd), plus X(x) itself
        nodes, points = [], []
        real = green.singular_shells

        def counted(*args):
            for y, wt in real(*args):
                nodes.append(len(wt))
                yield y, wt

        def X(p):
            assert p.ndim == 2 and p.shape[1] == 3 and p.dtype == float
            assert p.flags.f_contiguous
            points.append(len(p))
            return poly_bump(p)

        monkeypatch.setattr(green, "singular_shells", counted)
        representation_residual(X, np.array([0.15, -0.1, 0.2]), 3, level=0)
        assert sum(points) == 25 * sum(nodes) + 1
