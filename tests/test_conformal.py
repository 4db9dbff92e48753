import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lichlab.conformal import (
    PhysicsData,
    Potential,
    SystemCoefficients,
    classify,
    coefficients,
    constraint_residuals,
    normalize,
    reconstruct,
)
from lichlab.geometry import (
    Chart,
    OneFormField,
    ScalarField,
    SphereRadial,
    SymTensorField,
    Torus,
    conformal_killing_deriv,
    sym_index,
)
from lichlab.solver import SolveOptions, solve_system


def make_data(g, psi=0.0, pi=0.0, tau=0.0, sigma=None, potential=None):
    def scal(v):
        if isinstance(v, ScalarField):
            return v
        if np.isscalar(v):
            return ScalarField.constant(g, v)
        return ScalarField(g, v)

    return PhysicsData(
        psi=scal(psi), pi=scal(pi), tau=scal(tau),
        sigma=sigma if sigma is not None else SymTensorField.zero(g),
        potential=potential or Potential.constant(0.0))


@pytest.fixture(scope="module")
def torus():
    return Torus(3, 16)


class TestCoefficients:
    def test_constant_potential_zero_tau(self, torus):
        D = make_data(torus, potential=Potential.constant(1.0))
        _, B = coefficients(D)
        assert np.allclose(B.values, 2.0)

    def test_flat_constant_psi_gives_zero_rpsi(self, torus):
        D = make_data(torus, psi=3.7)
        r_psi, _ = coefficients(D)
        assert np.max(np.abs(r_psi.values)) < 1e-13

    def test_direct_evaluation_n4(self):
        g = Torus(4, 8)
        D = make_data(g, psi=2.0, tau=1.0,
                      potential=Potential.quadratic(c2=2))
        _, B = coefficients(D)
        assert np.allclose(B.values, 2.0 * 4.0 - 0.75)

    def test_classification(self, torus):
        assert classify(ScalarField.constant(torus, 2.0)) == "Focusing"
        assert classify(ScalarField.constant(torus, 0.0)) == "Defocusing"
        x = torus.coords()
        mixed = ScalarField(torus, np.sin(x[0]) + np.zeros(torus.grid_shape))
        assert classify(mixed) == "Mixed"

    def test_classification_invariant_under_psi_shift(self, torus):
        x = torus.coords()
        V = Potential.constant(0.7)
        psi0 = np.cos(x[0]) + np.zeros(torus.grid_shape)
        for shift in (0.0, 2.5):
            D = make_data(torus, psi=psi0 + shift, tau=0.4, potential=V)
            _, B = coefficients(D)
            assert classify(B) == "Focusing"


class TestNormalize:
    def test_b_from_pi(self, torus):
        D = make_data(torus, pi=2.0, potential=Potential.constant(1.0))
        C = normalize(D)
        assert np.allclose(C.b.values, 0.5)      # (1/8) * 4
        assert C.gamma == pytest.approx(1.0 / 8.0)

    def test_constant_tau_kills_X(self, torus):
        D = make_data(torus, tau=5.0, potential=Potential.constant(10.0))
        C = normalize(D)
        assert np.max(np.abs(C.X.values)) < 1e-13

    def test_zero_pi_kills_Y(self, torus):
        x = torus.coords()
        D = make_data(torus, psi=np.cos(x[0]) + np.zeros(torus.grid_shape),
                      potential=Potential.constant(1.0))
        C = normalize(D)
        assert np.max(np.abs(C.Y.values)) < 1e-13

    def test_b_scales_quadratically_in_pi(self, torus):
        x = torus.coords()
        pi_vals = 1.0 + 0.2 * np.cos(x[1]) + np.zeros(torus.grid_shape)
        D1 = make_data(torus, pi=pi_vals, potential=Potential.constant(1.0))
        D2 = make_data(torus, pi=3.0 * pi_vals, potential=Potential.constant(1.0))
        C1, C2 = normalize(D1), normalize(D2)
        assert np.allclose(C2.b.values, 9.0 * C1.b.values)

    def test_sigma_trace_defect_warns(self, torus):
        vals = np.zeros((6,) + torus.grid_shape)
        vals[0] = 1.0    # trace defect
        with pytest.warns(UserWarning) as record:
            make_data(torus, sigma=SymTensorField(torus, vals))
        # the warning points at the code that built the data
        assert [w.filename for w in record] == [__file__]


def random_coefficients(g, rng):
    """Coefficients with random b >= 0, U, gamma > 0 and zero h, f, X, Y."""
    zero = ScalarField.constant(g, 0.0)
    m = g.dimension * (g.dimension + 1) // 2
    return SystemCoefficients(
        h=zero, f=zero, b=ScalarField(g, rng.uniform(0.0, 1.0, g.grid_shape)),
        U=SymTensorField(g, rng.normal(size=(m,) + g.grid_shape)),
        X=OneFormField.zero(g), Y=OneFormField.zero(g),
        gamma=rng.uniform(0.1, 2.0))


def unpack(T):
    """The full (n, n, *grid) array of a packed SymTensorField, entry by
    entry from sym_index: the reference for the packed storage."""
    n = T.geometry.dimension
    full = np.zeros((n, n) + T.values.shape[1:])
    for a, (i, j) in enumerate(sym_index(n)):
        full[i, j] = full[j, i] = T.values[a]
    return full


def full_norm_squared(T):
    """sum_ij T_ij^2 from the unpacked tensor."""
    return np.sum(unpack(T) ** 2, axis=(0, 1))


class TestQuadratic:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([Torus(3, 8), Chart(3, 8)]),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_the_unpacked_tensor(self, g, seed):
        rng = np.random.default_rng(seed)
        C = random_coefficients(g, rng)
        W = OneFormField(g, rng.normal(size=g.one_form_shape))
        S = SymTensorField(g, C.U.values + conformal_killing_deriv(W).values)
        np.testing.assert_allclose(
            C.quadratic(W), C.b.values + C.gamma * full_norm_squared(S),
            rtol=1e-13)
        np.testing.assert_allclose(
            C.quadratic(), C.b.values + C.gamma * full_norm_squared(C.U),
            rtol=1e-13)


class TestSphereCoefficients:
    def test_radial_closed_forms(self):
        # psi = cos r, tau = sin r, pi = 0.3 on the round S^3 (R = 6)
        g = SphereRadial(257)
        r = g.r
        D = make_data(g, psi=np.cos(r), pi=0.3, tau=np.sin(r))
        r_psi, _ = coefficients(D)
        C = normalize(D)
        assert np.max(np.abs(r_psi.values - (6.0 - np.sin(r) ** 2))) < 1e-8
        assert np.max(np.abs(C.X.values + (2.0 / 3.0) * np.cos(r))) < 1e-8
        assert np.max(np.abs(C.Y.values - 0.3 * np.sin(r))) < 1e-8


class TestReconstruct:
    def test_trivial_data(self, torus):
        D = make_data(torus)
        u = ScalarField.constant(torus, 1.0)
        ids = reconstruct(u, OneFormField.zero(torus), D)
        assert np.max(np.abs(ids.extrinsic.values)) < 1e-14
        assert np.allclose(ids.conformal_factor.values, 1.0)

    def test_pure_trace_extrinsic(self, torus):
        D = make_data(torus, tau=3.0)
        u = ScalarField.constant(torus, 1.0)
        ids = reconstruct(u, OneFormField.zero(torus), D)
        K = unpack(ids.extrinsic)
        trK = np.einsum("ii...->...", K)        # conformal factor 1
        assert np.allclose(trK, 3.0)

    def test_pi_rescaling(self, torus):
        D = make_data(torus, pi=3.0)
        u = ScalarField.constant(torus, 2.0)
        ids = reconstruct(u, OneFormField.zero(torus), D)
        assert np.allclose(ids.pi.values, 3.0 * 2.0 ** (-6))

    def test_positive_u_required(self, torus):
        D = make_data(torus)
        u = ScalarField.constant(torus, -1.0)
        with pytest.raises(ValueError):
            reconstruct(u, OneFormField.zero(torus), D)


def defocusing_coupled_data(g):
    """Exact-reduction data that the flat torus can actually support.

    psi constant keeps h = 0 (weak coercivity mode), B < 0 keeps the
    integral identity satisfiable, nonconstant tau couples the momentum
    equation.
    """
    x = g.coords()
    tau = ScalarField(g, 1.0 + 0.3 * np.cos(x[0]) + np.zeros(g.grid_shape))
    pi = ScalarField(g, 1.0 + 0.3 * np.cos(2 * x[1]) + np.zeros(g.grid_shape))
    sigma_vals = np.zeros((6,) + g.grid_shape)
    sigma_vals[1] = 0.1     # constant off-diagonal tensor: traceless, div-free
    return make_data(g, psi=1.0, pi=pi, tau=tau,
                     sigma=SymTensorField(g, sigma_vals),
                     potential=Potential.constant(0.0))


class TestConstraintResiduals:
    def test_flat_static_vacuum(self, torus):
        D = make_data(torus)
        u = ScalarField.constant(torus, 1.0)
        ids = reconstruct(u, OneFormField.zero(torus), D)
        ham, mom = constraint_residuals(ids, D.potential)
        assert ham < 1e-12
        assert mom < 1e-12

    def test_perturbed_solution_raises_hamiltonian_defect(self, torus):
        D = defocusing_coupled_data(torus)
        C = normalize(D)
        sol = solve_system(C, SolveOptions(coercivity_check="weak"))
        ids = reconstruct(sol.u, sol.W, D)
        ham0, _ = constraint_residuals(ids, D.potential)
        bumped = ScalarField(torus, sol.u.values + 0.01)
        ids1 = reconstruct(bumped, sol.W, D)
        ham1, _ = constraint_residuals(ids1, D.potential)
        assert ham1 > ham0
