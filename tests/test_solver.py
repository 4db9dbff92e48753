import warnings

import numpy as np
import pytest
import scipy.fft
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import lichlab.solver as solver

from lichlab.conformal import (
    PhysicsData,
    Potential,
    SystemCoefficients,
    critical_exponent,
    normalize,
)
from lichlab.geometry import (
    GeometryMismatch,
    OneFormField,
    ScalarField,
    SymTensorField,
    Torus,
    h1_norm_squared,
)
from lichlab.harness import (
    check_round_trip,
    scalar_from_recipe,
    tensor_from_recipe,
)
from lichlab.solver import (
    DegenerateDataError,
    NewtonDivergedError,
    NonCoerciveError,
    SolveOptions,
    check_coercivity,
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


def smooth_well(g, depth, width, center):
    """-depth exp(-d^2/width), d^2 = sum 2(1 - cos(x_a - c_a)) periodic."""
    x = g.coords()
    d2 = sum(2.0 * (1.0 - np.cos(xa - ca)) for xa, ca in zip(x, center))
    return -depth * np.exp(-d2 / width)


def nodal_operator(g, symbol, diag=0.0):
    """The spectral multiplier symbol plus diag, on flat nodal vectors."""
    shape, size = g.grid_shape, int(np.prod(g.grid_shape))
    return spla.LinearOperator(
        (size, size), dtype=float,
        matvec=lambda v: (g.irfft(symbol * g.rfft(v.reshape(shape)))
                          + diag * v.reshape(shape)).ravel())


def eigsh_smallest(g, h):
    """Reference smallest eigenvalue of lap + h by ARPACK."""
    v0 = np.random.default_rng(0).random(h.size)
    return float(spla.eigsh(nodal_operator(g, g.k2, h), k=1, which="SA",
                            v0=v0, return_eigenvectors=False)[0])


class TestCoercivity:
    @pytest.mark.parametrize("N", [32, 48])
    def test_deep_narrow_well_rejected(self, N):
        # h = 1 - 41 exp(-|x - pi|^2/0.09) is positive away from the well,
        # but the smallest eigenvalue of lap + h is about -0.035; an upper
        # bound such as a 20-step Lanczos Ritz value stays positive here
        g = Torus(3, N)
        r2 = sum((xa - np.pi) ** 2 for xa in g.coords())
        C = make_coeffs(g, h=1.0 - 41.0 * np.exp(-r2 / 0.09))
        with pytest.raises(NonCoerciveError):
            check_coercivity(C, "strict")

    @settings(max_examples=20, deadline=None)
    @given(depth=st.floats(0.0, 40.0), width=st.floats(0.09, 1.0),
           center=st.tuples(*[st.floats(0.0, 2.0 * np.pi)] * 3),
           target=st.floats(1e-3, 1.0), negative=st.booleans())
    def test_smallest_eigenvalue_matches_eigsh(self, depth, width, center,
                                               target, negative):
        # a constant shift moves every eigenvalue by itself, so the drawn
        # well is shifted until eigsh puts its smallest eigenvalue at target
        g = Torus(3, 16)
        well = smooth_well(g, depth, width, center)
        target = -target if negative else target
        h = well + (target - eigsh_smallest(g, well))
        C = make_coeffs(g, h=h)
        if negative:
            for mode in ("strict", "weak"):
                with pytest.raises(NonCoerciveError):
                    check_coercivity(C, mode)
        else:
            assert abs(check_coercivity(C, "strict") - target) < 1e-6

    def test_constant_h(self, torus16):
        assert check_coercivity(make_coeffs(torus16, h=1.0)) == \
            pytest.approx(1.0, abs=1e-12)
        # the constants are a null mode of lap: weak passes, strict does not
        assert abs(check_coercivity(make_coeffs(torus16, h=0.0), "weak")) \
            < 1e-12
        with pytest.raises(NonCoerciveError):
            check_coercivity(make_coeffs(torus16, h=0.0), "strict")

    def test_unconverged_eigensolve_raises_without_warning(self, torus16,
                                                           monkeypatch):
        # lobpcg reports non-convergence only by a UserWarning
        lobpcg = solver.spla.lobpcg

        def unconverged(*args, **kwargs):
            warnings.warn("Exited at iteration 100 with accuracies [1e-3] "
                          "not reaching the requested tolerance 1e-08.",
                          UserWarning)
            return lobpcg(*args, **kwargs)

        monkeypatch.setattr(solver.spla, "lobpcg", unconverged)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonCoerciveError):
                check_coercivity(make_coeffs(torus16), "strict")
        assert not caught


def fold(n, h, f):
    """(t*, a*): for constant data on the torus, h t = f t^{2*-1} +
    a t^{-2*-1} has positive roots exactly when a <= a*, the balance's
    maximum at t* is 0 when a = a*, and the smaller root lies below t*."""
    p = critical_exponent(n)
    t_star = ((p + 2.0) * h / (2.0 * p * f)) ** (1.0 / (p - 2.0))
    return t_star, h * t_star ** (p + 2.0) - f * t_star ** (2.0 * p)


def smaller_root(n, h, f, a):
    """The smaller positive root of the constant balance, for a < a*."""
    p = critical_exponent(n)
    t_star = fold(n, h, f)[0]
    return brentq(lambda t: h * t - f * t ** (p - 1) - a * t ** (-p - 1),
                  1e-6 * t_star, t_star, xtol=1e-15)


class TestScalar:
    def test_degenerate_data_flagged(self, torus16):
        C = make_coeffs(torus16, h=1.0, f=0.0, b=0.0)
        with pytest.raises(DegenerateDataError):
            solve_scalar(C.quadratic(), C, SolveOptions())

    def test_krylov_failure_raises(self, torus16, monkeypatch):
        # a usable step reported with a nonzero info is still a failure
        minres = solver.spla.minres

        def failing(A, b, **kwargs):
            return minres(A, b, **kwargs)[0], -1

        monkeypatch.setattr(solver.spla, "minres", failing)
        C = make_coeffs(torus16)
        with pytest.raises(NewtonDivergedError):
            solve_scalar(C.quadratic(), C, SolveOptions(),
                         guess=ScalarField.constant(torus16, 2.0))

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
        C = make_coeffs(torus16)
        with pytest.raises(NewtonDivergedError):
            solve_scalar(C.quadratic(), C, SolveOptions(),
                         guess=ScalarField.constant(torus16, 2.0))
        assert len(calls) == 1

    def test_transforms_see_only_float_vectors(self, monkeypatch):
        # an operator built without a dtype is probed by scipy with an int8
        # zero vector: one wasted matvec and preconditioner apply per step.
        # The transforms are looked up on the scipy.fft module at each call,
        # so replacing its attributes (as a tracer does) sees every one,
        # the Krylov operator's Hartley transforms included
        minres = solver.spla.minres
        dtypes = {"rfftn": [], "fftn": [], "fftn in minres": []}
        inside = []

        def recording(name):
            transform = getattr(scipy.fft, name)

            def record(values, *args, **kwargs):
                dtypes[name].append(np.asarray(values).dtype)
                if name == "fftn" and inside:
                    dtypes["fftn in minres"].append(dtypes[name][-1])
                return transform(values, *args, **kwargs)
            return record

        def flagged(*args, **kwargs):
            inside.append(1)
            try:
                return minres(*args, **kwargs)
            finally:
                inside.pop()

        for name in ("rfftn", "fftn"):
            monkeypatch.setattr(scipy.fft, name, recording(name))
        monkeypatch.setattr(solver.spla, "minres", flagged)
        g = Torus(3, 8)
        C = make_coeffs(g)
        solve_scalar(C.quadratic(), C, SolveOptions(),
                     guess=ScalarField.constant(g, 2.0))
        for seen in dtypes.values():
            assert seen and set(seen) == {np.dtype(np.float64)}

    @pytest.mark.parametrize("value", [0.0, -1.0, 1e-9])
    def test_guess_must_stay_above_the_floor(self, value, monkeypatch):
        # fields are finite by construction, so the floor is the one check
        calls = []
        monkeypatch.setattr(solver.spla, "minres",
                            lambda *args, **kwargs: calls.append(1))
        g = Torus(3, 8)
        vals = np.ones(g.grid_shape)
        vals[1, 2, 3] = value
        guess = ScalarField(g, vals)
        for solve in (lambda C: solve_scalar(C.quadratic(), C,
                                             SolveOptions(), guess=guess),
                      lambda C: solve_system(C, guess=guess)):
            with pytest.raises(ValueError, match="guess"):
                solve(make_coeffs(g))
        assert not calls

    def test_guess_on_another_geometry_rejected(self):
        g = Torus(3, 8)
        with pytest.raises(GeometryMismatch):
            solve_system(make_coeffs(g),
                         guess=ScalarField.constant(Torus(3, 12), 1.0))

    def test_noncoercive_rejected(self, torus16):
        C = make_coeffs(torus16, h=-1.0)
        with pytest.raises(NonCoerciveError):
            solve_scalar(C.quadratic(), C, SolveOptions())

    def test_manufactured_pointwise(self, torus16):
        g = torus16
        x = g.coords()
        u_star = ScalarField(g, 2.0 + 0.1 * np.cos(x[0]) + np.zeros(g.grid_shape))
        C = make_coeffs(g, h=0.0, f=1.0, b=1.0)
        C = manufactured_forcing(u_star, OneFormField.zero(g), C)
        u = solve_scalar(C.quadratic(), C,
                         SolveOptions(coercivity_check="off"),
                         guess=ScalarField.constant(g, 2.0))
        assert np.max(np.abs(u.values - u_star.values)) < 1e-8

    def test_constant_balance_against_root_finder(self, torus16):
        g = torus16
        h, f, b = 1.0, 0.25, 0.125
        C = make_coeffs(g, h=h, f=f, b=b)
        u = solve_scalar(C.quadratic(), C, SolveOptions())
        p = critical_exponent(3)
        root = brentq(lambda t: h * t - f * t ** (p - 1) - b * t ** (-p - 1),
                      0.1, 1.2, xtol=1e-14)
        assert np.max(np.abs(u.values - root)) < 1e-9
        assert abs(constant_balance_root(h, f, b, 3) - root) < 1e-6

    @pytest.mark.parametrize("ratio", [0.98, 0.99, 0.995, 0.999])
    def test_constant_balance_finds_the_smaller_root_near_the_fold(self,
                                                                   ratio):
        # both roots lie in the grid cells next to the balance's maximum,
        # so the grid shows no sign change; the grid's argmax 1.3040 lies
        # past the fold, and a cold start from it found the upper root
        h, f = 2.0, 0.5
        b = ratio * fold(3, h, f)[1]
        smaller = smaller_root(3, h, f, b)
        assert abs(constant_balance_root(h, f, b, 3) - smaller) < 1e-12
        sol = solve_system(make_coeffs(Torus(3, 8), h=h, f=f, b=b))
        assert sol.converged
        assert np.max(np.abs(sol.u.values - smaller)) < 1e-12


class TestExistenceEdge:
    """The constant-data edge of existence as an exact oracle."""

    @pytest.mark.parametrize("n", [3, 4])
    @settings(max_examples=25, deadline=None)
    @given(h=st.floats(0.25, 4.0), f=st.floats(0.25, 4.0),
           ratio=st.one_of(st.floats(0.05, 0.99), st.floats(1.01, 2.0)))
    def test_solution_below_the_fold_and_none_above(self, n, h, f, ratio):
        t_star, a_star = fold(n, h, f)
        b = ratio * a_star
        C = make_coeffs(Torus(n, 8), h=h, f=f, b=b)
        if ratio > 1.0:
            # the default start is the balance's maximum, the closest
            # approach, so no step of the first Newton pass can reduce
            # the residual
            with pytest.raises(NewtonDivergedError, match=r"Newton step 0\)"):
                solve_system(C)
            return
        smaller = smaller_root(n, h, f, b)
        sol = solve_system(C)
        assert sol.converged
        assert np.max(sol.u.values) < t_star
        assert np.max(np.abs(sol.u.values - smaller)) < 1e-9 * smaller


class TestFourierCoordinates:
    @pytest.mark.parametrize("n, N", [(3, 8), (3, 9), (4, 8), (4, 9),
                                      (5, 8), (5, 9)])
    def test_map_is_orthogonal(self, n, N):
        # the Hartley transform is real, its own inverse and transpose, and
        # diagonalizes lap
        g = Torus(n, N)
        H = g.hartley
        rng = np.random.default_rng(N)
        x, y = rng.normal(size=(2,) + g.grid_shape)
        scale = np.linalg.norm(x) * np.linalg.norm(y)
        assert H(x).dtype == np.float64
        assert np.max(np.abs(H(H(x)) - x)) < 1e-14
        assert abs(np.sum(H(x) * y) - np.sum(x * H(y))) < 1e-15 * scale
        assert abs(np.sum(H(x) * H(y)) - np.sum(x * y)) < 1e-15 * scale
        assert np.max(np.abs(g.k2_full * H(x) - H(g.laplacian(x)))) \
            < 1e-14 * np.max(g.k2_full) * np.linalg.norm(x)

    def test_minres_matches_the_nodal_solve(self):
        g = Torus(3, 16)
        x = g.coords()
        diag = (1.0 + 0.5 * np.cos(x[0]) * np.sin(x[1])
                + 0.2 * np.cos(2.0 * x[2]) + np.zeros(g.grid_shape))
        rhs = np.random.default_rng(3).normal(size=g.grid_shape)
        shift = float(np.mean(diag))
        results = []
        for A, M, b, back in (
                (nodal_operator(g, g.k2, diag),
                 nodal_operator(g, 1.0 / (g.k2 + shift)), rhs,
                 lambda v: v.reshape(g.grid_shape)),
                (*solver._fourier_newton_system(g, diag, shift),
                 g.hartley(rhs), lambda z: g.hartley(z.reshape(rhs.shape)))):
            iterations = []
            v, info = spla.minres(A, b.ravel(), M=M, rtol=1e-12,
                                  maxiter=400,
                                  callback=lambda xk: iterations.append(1))
            assert info == 0
            results.append((back(v), len(iterations)))
        (nodal, nodal_its), (fourier, fourier_its) = results
        assert fourier_its == nodal_its > 0
        assert np.max(np.abs(fourier - nodal)) < 1e-13

    @pytest.mark.parametrize("n, N", [(3, 9), (4, 8), (4, 9)])
    def test_coercivity_matches_eigsh_across_parity_and_dimension(self, n,
                                                                  N):
        # the k = 0 and Nyquist planes pair their modes differently at odd
        # and even N and in each dimension
        g = Torus(n, N)
        well = smooth_well(g, 8.0, 0.3, (1.0, 2.0, 3.0, 4.0)[:n])
        h = well + (0.25 - eigsh_smallest(g, well))
        assert abs(check_coercivity(make_coeffs(g, h=h)) - 0.25) < 1e-6


class TestContract:
    """Every solve raises a SolverError, reports converged=False after
    max_outer passes, or returns a positive solution whose residuals are
    below the tolerance."""

    @pytest.mark.parametrize("n", [3, 4])
    @settings(max_examples=25, deadline=None)
    @given(h=st.tuples(st.floats(-0.5, 2.0), st.floats(-1.0, 1.0)),
           f=st.tuples(st.floats(-0.5, 1.0), st.floats(-0.5, 0.5)),
           b=st.floats(0.0, 0.5), data=st.data())
    def test_typed_failure_or_certified_solution(self, n, h, f, b, data):
        # h = h0 + h1 cos x, f = f0 + f1 cos y, and X, Y single sine modes
        g = Torus(n, 8)
        x = g.coords()
        zero = np.zeros(g.grid_shape)
        forms = []
        for _ in range(2):
            comp, axis = data.draw(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)))
            vals = np.zeros(g.one_form_shape)
            vals[comp] = data.draw(st.floats(-1.0, 1.0)) * np.sin(x[axis])
            forms.append(OneFormField(g, vals))
        C = make_coeffs(g, h=h[0] + h[1] * np.cos(x[0]) + zero,
                        f=f[0] + f[1] * np.cos(x[1]) + zero, b=b,
                        X=forms[0], Y=forms[1])
        opts = SolveOptions(max_outer=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                sol = solve_system(C, opts)
            except solver.SolverError:
                return
        if not sol.converged:
            assert sol.iterations == opts.max_outer
            return
        assert np.min(sol.u.values) > 0.0
        for reported, fresh in (
                (sol.scalar_residual, scalar_residual_field(sol.u, sol.W, C)),
                (sol.momentum_residual,
                 momentum_residual_field(sol.u, sol.W, C))):
            assert reported == np.max(np.abs(fresh)) < opts.tol_residual


class TestSystem:
    def test_decoupled_matches_scalar(self, torus16):
        C = make_coeffs(torus16)
        sol = solve_system(C, SolveOptions())
        u_direct = solve_scalar(C.quadratic(), C, SolveOptions())
        assert sol.converged
        assert np.max(np.abs(sol.W.values)) < 1e-14
        assert np.max(np.abs(sol.u.values - u_direct.values)) < 1e-12

    def test_inner_solve_stops_at_the_forcing_tolerance(self, torus16,
                                                         monkeypatch):
        # criterion-9 data: each pass stops its scalar solve at a tenth of
        # the residual it starts from, never below the caller's tolerance,
        # and the returned solution is still checked at that tolerance
        tol = 1e-11
        passes = []
        inner = solver.solve_scalar

        def recording(a, C, opts, guess=None):
            start = np.max(np.abs(solver._scalar_residual(guess, a, C)))
            passes.append((opts.tol_residual, start))
            return inner(a, C, opts, guess=guess)

        monkeypatch.setattr(solver, "solve_scalar", recording)
        C = normalize(PhysicsData(
            psi=ScalarField.constant(torus16, 1.0),
            pi=scalar_from_recipe(
                torus16, "lorentz(amp=0.02, c=1.05, axis=1, offset=1.0)"),
            tau=scalar_from_recipe(
                torus16, "lorentz(amp=0.015, c=1.05, axis=0, offset=1.0)"),
            sigma=tensor_from_recipe(torus16, "constant_tensor(xy=0.1)"),
            potential=Potential.constant(0.0)))
        sol = solve_system(C, SolveOptions(coercivity_check="weak",
                                           tol_residual=tol, max_outer=100))
        assert sol.converged and sol.scalar_residual < tol
        assert passes
        assert all(used == max(tol, 0.1 * start) for used, start in passes)
        assert min(used for used, _ in passes) >= tol
        assert max(used for used, _ in passes) > tol

    def test_newton_and_krylov_effort_is_mesh_independent(self,
                                                          monkeypatch):
        # criterion-9 data at 16^3 and 32^3: the same Newton steps, one per
        # outer pass, each with the same MINRES iterations on both grids
        minres = solver.spla.minres
        iterations = {}

        def counting(A, b, **kwargs):
            steps = iterations.setdefault(b.size, [])
            steps.append(0)

            def callback(xk):
                steps[-1] += 1

            return minres(A, b, callback=callback, **kwargs)

        monkeypatch.setattr(solver.spla, "minres", counting)
        rows = check_round_trip(grids=(16, 32))
        assert all(row.passed for row in rows)
        coarse, fine = (iterations[size] for size in sorted(iterations))
        assert coarse == fine == [8] * 13

    @pytest.mark.parametrize("N", [32, 48])
    def test_coercivity_effort_is_mesh_independent(self, N, monkeypatch):
        # the depth-41 well of TestCoercivity: LOBPCG's eigenvalue history
        # has the same 11 entries on both grids
        lobpcg = solver.spla.lobpcg
        lengths = []

        def counting(*args, **kwargs):
            value, vector, history = lobpcg(*args, retLambdaHistory=True,
                                            **kwargs)
            lengths.append(len(history))
            return value, vector

        monkeypatch.setattr(solver.spla, "lobpcg", counting)
        g = Torus(3, N)
        r2 = sum((xa - np.pi) ** 2 for xa in g.coords())
        C = make_coeffs(g, h=1.0 - 41.0 * np.exp(-r2 / 0.09))
        with pytest.raises(NonCoerciveError):
            check_coercivity(C, "strict")
        assert lengths == [11]

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
            u = solve_scalar(C.quadratic(), C,
                             SolveOptions(coercivity_check="off"),
                             guess=ScalarField.constant(g, 1.5))
            errs.append(np.max(np.abs(u.values - u_star.values)))
        # the discrete manufactured problem is exact at both resolutions,
        # so both errors sit at the solver tolerance floor
        assert errs[0] < 1e-8 and errs[1] < 1e-8
