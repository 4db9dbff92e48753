import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lichlab.geometry import (
    Chart,
    OneFormField,
    ScalarField,
    SphereRadial,
    SymTensorField,
    Torus,
    GeometryMismatch,
    conformal_killing_deriv,
    divergence,
    gradient,
    h1_norm_squared,
    l2_inner,
    lame,
    lame_invert,
    laplace_beltrami,
    partial_deriv,
    sym_index,
    sym_weights,
    tensor_norm_squared,
    tensor_trace,
)
from lichlab.conformal import SystemCoefficients
from lichlab.harness import tensor_from_recipe


def unpack(T):
    """The full (n, n, *grid) array of a packed SymTensorField, entry by
    entry from sym_index: the reference for the packed storage."""
    n = T.geometry.dimension
    full = np.zeros((n, n) + T.values.shape[1:])
    for a, (i, j) in enumerate(sym_index(n)):
        full[i, j] = full[j, i] = T.values[a]
    return full


def random_bandlimited_oneform(g, rng, kmax=3, amplitude=1.0):
    """Real band-limited one-form with modes |k|_inf <= kmax."""
    n, N = g.dimension, g.resolution
    what = np.zeros((n,) + g.grid_shape, dtype=complex)
    freqs = np.fft.fftfreq(N, d=1.0 / N).astype(int)
    for a in range(n):
        spec = np.zeros(g.grid_shape, dtype=complex)
        for idx in np.ndindex(*(2 * kmax + 1,) * n):
            k = tuple(i - kmax for i in idx)
            if all(c == 0 for c in k):
                continue
            pos = tuple(np.nonzero(freqs == c)[0][0] for c in k)
            spec[pos] = rng.normal() + 1j * rng.normal()
        what[a] = spec
    vals = np.real(np.fft.ifftn(what, axes=tuple(range(1, n + 1))))
    scale = np.max(np.abs(vals)) or 1.0
    return OneFormField(g, amplitude * vals / scale)


class TestTorusOperators:
    def setup_method(self):
        self.g = Torus(3, 16)

    def test_laplacian_of_constant_is_zero(self):
        f = ScalarField.constant(self.g, 4.2)
        out = laplace_beltrami(f)
        assert np.max(np.abs(out.values)) < 1e-13

    def test_laplacian_eigenfunction(self):
        x = self.g.coords()
        f = ScalarField(self.g, np.sin(x[0]) + np.zeros(self.g.grid_shape))
        out = laplace_beltrami(f)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_spectral_exactness_single_mode(self):
        x = self.g.coords()
        k = (2, 1, 3)
        phase = k[0] * x[0] + k[1] * x[1] + k[2] * x[2]
        f = ScalarField(self.g, np.cos(phase) + np.zeros(self.g.grid_shape))
        out = laplace_beltrami(f)
        k2 = sum(c ** 2 for c in k)
        assert np.max(np.abs(out.values - k2 * f.values)) < 1e-10 * k2

    def test_killing_deriv_of_constant_form(self):
        W = OneFormField(self.g, np.broadcast_to(
            np.array([1.0, -2.0, 0.5])[:, None, None, None],
            (3,) + self.g.grid_shape).copy())
        LW = conformal_killing_deriv(W)
        assert np.max(np.abs(LW.values)) < 1e-13

    def test_killing_deriv_coordinate_formula(self):
        x = self.g.coords()
        vals = np.zeros((3,) + self.g.grid_shape)
        vals[0] = np.sin(x[0])
        W = OneFormField(self.g, vals)
        LW = conformal_killing_deriv(W)
        cos = np.cos(x[0]) + np.zeros(self.g.grid_shape)
        # packed order: xx, xy, xz, yy, yz, zz
        assert np.allclose(LW.values[0], (2 - 2.0 / 3.0) * cos, atol=1e-12)
        assert np.allclose(LW.values[3], -(2.0 / 3.0) * cos, atol=1e-12)
        assert np.allclose(LW.values[5], -(2.0 / 3.0) * cos, atol=1e-12)
        assert np.max(np.abs(LW.values[[1, 2, 4]])) < 1e-12

    def test_killing_deriv_traceless(self):
        rng = np.random.default_rng(7)
        W = random_bandlimited_oneform(self.g, rng)
        LW = conformal_killing_deriv(W)
        assert np.max(np.abs(tensor_trace(LW))) < 1e-12

    def test_lame_of_constant_is_zero(self):
        W = OneFormField(self.g, np.ones((3,) + self.g.grid_shape))
        assert np.max(np.abs(lame(W).values)) < 1e-13

    def test_lame_symbol_longitudinal_mode(self):
        x = self.g.coords()
        vals = np.zeros((3,) + self.g.grid_shape)
        vals[0] = np.cos(x[0])
        W = OneFormField(self.g, vals)
        out = lame(W)
        assert np.allclose(out.values[0], (2 - 2.0 / 3.0) * vals[0], atol=1e-12)
        assert np.max(np.abs(out.values[1:])) < 1e-12

    def test_lame_invert_roundtrip(self):
        rng = np.random.default_rng(3)
        F = random_bandlimited_oneform(self.g, rng)
        F.values -= np.mean(F.values, axis=(1, 2, 3), keepdims=True)
        W, defect = lame_invert(F)
        assert defect < 1e-13
        back = lame(W)
        assert np.max(np.abs(back.values - F.values)) < 1e-10
        assert np.max(np.abs(np.mean(W.values, axis=(1, 2, 3)))) < 1e-13

    def test_lame_invert_closed_form(self):
        x = self.g.coords()
        vals = np.zeros((3,) + self.g.grid_shape)
        vals[0] = np.cos(x[0])
        F = OneFormField(self.g, vals)
        W, _ = lame_invert(F)
        expected = vals[0] / (2.0 - 2.0 / 3.0)
        assert np.max(np.abs(W.values[0] - expected)) < 1e-12

    def test_lame_invert_constant_defect(self):
        c = np.array([2.0, 0.0, 0.0])
        F = OneFormField(self.g, np.broadcast_to(
            c[:, None, None, None], (3,) + self.g.grid_shape).copy())
        W, defect = lame_invert(F)
        assert np.max(np.abs(W.values)) < 1e-13
        assert abs(defect - 2.0 * np.sqrt(self.g.volume)) < 1e-10

    def test_lame_kernel_is_killing_kernel(self):
        # constant forms: both lame and the Killing derivative vanish
        for a in range(3):
            vals = np.zeros((3,) + self.g.grid_shape)
            vals[a] = 1.0
            W = OneFormField(self.g, vals)
            assert np.max(np.abs(lame(W).values)) < 1e-13
            assert np.max(np.abs(conformal_killing_deriv(W).values)) < 1e-13
        # and a nonconstant form is annihilated by neither
        x = self.g.coords()
        vals = np.zeros((3,) + self.g.grid_shape)
        vals[1] = np.sin(x[0])
        W = OneFormField(self.g, vals)
        assert np.max(np.abs(lame(W).values)) > 0.1
        assert np.max(np.abs(conformal_killing_deriv(W).values)) > 0.1


class TestSphereRadial:
    def setup_method(self):
        self.g = SphereRadial(2048)

    def test_laplacian_of_cos(self):
        f = ScalarField(self.g, np.cos(self.g.r))
        out = laplace_beltrami(f)
        assert np.max(np.abs(out.values - 3.0 * np.cos(self.g.r))) < 1e-8

    def test_killing_deriv_frame_components(self):
        # w = sin r is the radial part of a conformal Killing field on S^3
        W = OneFormField(self.g, np.sin(self.g.r))
        LW = conformal_killing_deriv(W)
        assert np.max(np.abs(LW.values)) < 1e-9
        assert np.max(np.abs(lame(W).values)) < 1e-7

    def test_trace_free(self):
        W = OneFormField(self.g, np.sin(2 * self.g.r) * np.exp(np.cos(self.g.r)))
        LW = conformal_killing_deriv(W)
        assert np.max(np.abs(tensor_trace(LW))) < 1e-12

    def test_norm_squared_uses_frame_weights(self):
        W = OneFormField(self.g, np.sin(2 * self.g.r))
        LW = conformal_killing_deriv(W)
        psi = (self.g.d1 @ W.values) - W.values * self.g.cot_r
        expected = (16.0 / 9.0 + 2 * 4.0 / 9.0) * psi ** 2
        assert np.allclose(tensor_norm_squared(LW), expected, atol=1e-12)


class TestChart:
    @pytest.mark.parametrize("box", [Torus, Chart])
    def test_dimension_below_three_rejected(self, box):
        # the critical exponent 2n/(n-2) has no meaning below n = 3
        with pytest.raises(ValueError, match="dimension"):
            box(2, 17)

    def test_laplacian_polynomial(self):
        g = Chart(3, 33, extent=1.0)
        x = g.coords()
        f = ScalarField(g, x[0] ** 2 + 2 * x[1] ** 2 - x[2] ** 2
                        + np.zeros(g.grid_shape))
        out = laplace_beltrami(f)
        assert np.max(np.abs(out.values - (-4.0))) < 1e-9

    def test_lame_fd_matches_analytic_value(self):
        gc = Chart(3, 33, extent=np.pi)
        xc = gc.coords()
        valsc = np.zeros((3,) + gc.grid_shape)
        valsc[0] = np.sin(xc[0] + np.pi) * np.cos(xc[1] + np.pi) + 0 * xc[2]
        Wc = OneFormField(gc, valsc)
        fd = lame(Wc).values
        mid = gc.resolution // 2
        x0 = xc[0].ravel()[mid] + np.pi
        x1 = xc[1].ravel()[mid] + np.pi
        # lame(W)_0 = -(d00 + d11 + d22) W_0 - (1/3) d_0 (div W) = (2 + 1/3) W_0
        w0 = np.sin(x0) * np.cos(x1)
        assert abs(fd[0][mid, mid, mid] - (2 + 1.0 / 3.0) * w0) < 1e-6

    def test_batched_operators_equal_per_axis_differences(self):
        g = Chart(3, 10, extent=1.0)
        rng = np.random.default_rng(5)
        f = rng.normal(size=g.grid_shape)
        w = rng.normal(size=g.one_form_shape)

        def d(values, a):        # one scalar array along one axis
            return np.apply_along_axis(g.d1.dot, a, values)

        assert np.array_equal(gradient(ScalarField(g, f)).values,
                              np.stack([d(f, a) for a in range(3)]))
        assert np.array_equal(divergence(OneFormField(g, w)).values,
                              d(w[0], 0) + d(w[1], 1) + d(w[2], 2))
        dw = [[d(w[j], i) for j in range(3)] for i in range(3)]
        div = dw[0][0] + dw[1][1] + dw[2][2]
        L = [[dw[i][j] + dw[j][i] - (2.0 / 3.0) * div if i == j
              else dw[i][j] + dw[j][i] for j in range(3)] for i in range(3)]
        ref = np.stack([-(d(L[0][i], 0) + d(L[1][i], 1) + d(L[2][i], 2))
                        for i in range(3)])
        assert np.array_equal(lame(OneFormField(g, w)).values, ref)

    def test_geometry_mismatch_raises(self):
        g1 = Torus(3, 16)
        g2 = Torus(3, 32)
        zero = ScalarField.constant(g1, 0.0)
        with pytest.raises(GeometryMismatch):
            SystemCoefficients(h=zero, f=zero, b=zero,
                               U=SymTensorField.zero(g1),
                               X=OneFormField.zero(g2),
                               Y=OneFormField.zero(g1))


CONSTANT_FIELDS = {
    "scalar": lambda g: ScalarField.constant(g, 2.5),
    "one-form": OneFormField.zero,
    "tensor": SymTensorField.zero,
    "tensor recipe": lambda g: tensor_from_recipe(
        g, "constant_tensor(xy=0.1, zz=-0.2)"),
}


class TestConstantFields:
    @pytest.mark.parametrize("make", CONSTANT_FIELDS.values(),
                             ids=CONSTANT_FIELDS.keys())
    def test_stored_once_and_read_only(self, make):
        g = Chart(3, 9)
        values = make(g).values
        assert values.shape[-3:] == g.grid_shape
        assert values.strides[-3:] == (0, 0, 0)
        assert not values.flags.writeable

    @pytest.mark.parametrize("make", CONSTANT_FIELDS.values(),
                             ids=CONSTANT_FIELDS.keys())
    def test_copy_is_full_and_writable(self, make):
        field = make(Torus(3, 8))
        copy = field.copy()
        assert type(copy) is type(field)
        assert copy.values.flags.writeable and copy.values.flags.c_contiguous
        assert np.array_equal(copy.values, field.values)
        copy.values[...] = 1.0
        assert not np.array_equal(copy.values, field.values)

    def test_writing_into_a_constant_raises(self):
        f = ScalarField.constant(Torus(3, 8), 2.5)
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            f.values += 1.0
        assert np.all(f.values == 2.5)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    def test_norm_squared_is_weighted_sum_of_squares(self, n, seed, constant):
        g = Torus(n, 8)
        m = n * (n + 1) // 2
        rng = np.random.default_rng(seed)
        T = (SymTensorField.constant(g, rng.normal(size=m)) if constant
             else SymTensorField(g, rng.normal(size=(m,) + g.grid_shape)))
        w = sym_weights(n)
        ref = sum(w[a] * T.values[a] ** 2 for a in range(m))
        assert np.allclose(tensor_norm_squared(T), ref, rtol=1e-15, atol=0.0)


FIELD_KINDS = {"scalar": ScalarField, "one-form": OneFormField,
               "tensor": SymTensorField}


class TestFieldInvariants:
    @pytest.mark.parametrize("kind", FIELD_KINDS.values(),
                             ids=FIELD_KINDS.keys())
    def test_shape_checked(self, kind):
        g = Torus(3, 16)
        shape = kind.zero(g).values.shape
        for bad in (shape[:-1] + (4,), (2,) + shape, shape[1:]):
            with pytest.raises(ValueError, match="shape"):
                kind(g, np.zeros(bad))

    @pytest.mark.parametrize("kind", FIELD_KINDS.values(),
                             ids=FIELD_KINDS.keys())
    def test_nonfinite_rejected(self, kind):
        g = Torus(3, 16)
        vals = kind.zero(g).copy().values
        vals.flat[-1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            kind(g, vals)

    @pytest.mark.parametrize("make", [
        lambda: Chart(3, 9, extent=-1.0), lambda: Chart(3, 9, extent=0.0),
        lambda: Chart(3, 9, extent=np.inf), lambda: Chart(3, 9, extent=np.nan),
        lambda: SphereRadial(16, eps=2.0),
        lambda: SphereRadial(16, eps=0.5 * np.pi),
        lambda: SphereRadial(16, eps=np.nan)],
        ids=["extent-neg", "extent-0", "extent-inf", "extent-nan",
             "eps-2", "eps-half-pi", "eps-nan"])
    def test_grid_without_positive_spacing_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_chart_div_sym_equals_div_of_full_tensor(self):
        g = Chart(3, 10, extent=1.0)
        T = SymTensorField(g, np.random.default_rng(6).normal(
            size=(6,) + g.grid_shape))
        assert np.array_equal(g.div_sym(T.values), g.div(unpack(T)))


# ---------------------------------------------------------------------------
# half-spectrum backend against full complex-FFT reference formulas
# ---------------------------------------------------------------------------

def ref_wavevectors(g, odd):
    """Full-spectrum wavevectors; odd=True zeroes the unpaired Nyquist mode."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(g.resolution, d=g.spacing)
    if odd and g.resolution % 2 == 0:
        k1[g.resolution // 2] = 0.0
    return np.stack(np.meshgrid(*([k1] * g.dimension), indexing="ij"))


def ref_multiply(g, symbol, values):
    """Re ifftn(symbol * fftn(values)) over the grid axes."""
    axes = tuple(range(-g.dimension, 0))
    return np.real(np.fft.ifftn(symbol * np.fft.fftn(values, axes=axes), axes=axes))


def ref_partials(g, values):
    """d[a, ...] = d_a values, by full complex transforms."""
    k = ref_wavevectors(g, odd=True)
    return np.stack([ref_multiply(g, 1j * k[a], values) for a in range(g.dimension)])


def ref_lame_symbol(g):
    """Per-mode Lame symbol |k|^2 I + (1 - 2/n) k k^T, shape (*grid, n, n)."""
    n = g.dimension
    k = np.moveaxis(ref_wavevectors(g, odd=True), 0, -1)
    k2 = np.sum(ref_wavevectors(g, odd=False) ** 2, axis=0)
    return (k2[..., None, None] * np.eye(n)
            + (1.0 - 2.0 / n) * k[..., :, None] * k[..., None, :])


def bandlimited_values(g, rng, lead, kmax):
    """Real field of shape lead + grid with modes |k|_inf <= kmax only."""
    N = g.resolution
    axes = tuple(range(-g.dimension, 0))
    spec = np.fft.fftn(rng.normal(size=lead + g.grid_shape), axes=axes)
    freqs = np.abs(np.fft.fftfreq(N, d=1.0 / N))
    keep = np.ones(g.grid_shape, dtype=bool)
    for a in range(g.dimension):
        shape = [1] * g.dimension
        shape[a] = N
        keep &= freqs.reshape(shape) <= kmax
    return np.real(np.fft.ifftn(spec * keep, axes=axes))


def rel_err(out, ref):
    return np.max(np.abs(out - ref)) / max(np.max(np.abs(ref)), 1e-300)


# resolutions per dimension: odd and even, with and without a Nyquist mode
resolutions = {3: st.sampled_from([8, 9, 12, 15, 16]),
               4: st.sampled_from([8, 9, 12])}
backend_settings = settings(max_examples=25, deadline=None)


@st.composite
def torus_draws(draw, n, below_nyquist=False):
    """(torus, rng, kmax); kmax reaches the Nyquist mode unless told not to."""
    N = draw(resolutions[n])
    top = (N - 1) // 2 if below_nyquist else N // 2
    kmax = draw(st.integers(1, top))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return Torus(n, N), np.random.default_rng(seed), kmax


@pytest.mark.parametrize("n", [3, 4])
class TestHalfSpectrumBackend:
    @backend_settings
    @given(data=st.data())
    def test_scalar_operators_match_reference(self, n, data):
        g, rng, kmax = data.draw(torus_draws(n))
        f = bandlimited_values(g, rng, (), kmax)
        F = ScalarField(g, f)
        k2 = np.sum(ref_wavevectors(g, odd=False) ** 2, axis=0)
        d = ref_partials(g, f)
        assert rel_err(laplace_beltrami(F).values, ref_multiply(g, k2, f)) < 1e-12
        assert rel_err(gradient(F).values, d) < 1e-12
        for a in range(n):
            assert rel_err(partial_deriv(g, f, a), d[a]) < 1e-12
        # a leading component axis is differentiated as one batch
        fs = bandlimited_values(g, rng, (2,), kmax)
        assert rel_err(g.grad(fs), ref_partials(g, fs)) < 1e-12
        assert rel_err(g.laplacian(fs), ref_multiply(g, k2, fs)) < 1e-12

    @backend_settings
    @given(data=st.data())
    def test_oneform_operators_match_reference(self, n, data):
        g, rng, kmax = data.draw(torus_draws(n))
        w = bandlimited_values(g, rng, (n,), kmax)
        W = OneFormField(g, w)
        dW = np.stack([ref_partials(g, w[j]) for j in range(n)], axis=1)
        div = np.trace(dW)
        ref_L = np.stack([dW[i, j] + dW[j, i] - (2.0 / n) * div * (i == j)
                          for i, j in sym_index(n)])
        assert rel_err(g.grad(w), dW) < 1e-12
        assert rel_err(divergence(W).values, div) < 1e-12
        assert rel_err(conformal_killing_deriv(W).values, ref_L) < 1e-12
        # div contracts the first index of a 2-tensor: d_j T[j, i]
        T = bandlimited_values(g, rng, (n, n), kmax)
        ref_divT = sum(ref_partials(g, T[j])[j] for j in range(n))
        assert rel_err(g.div(T), ref_divT) < 1e-12
        # div_sym takes the packed components of a symmetric tensor
        T = T + np.swapaxes(T, 0, 1)
        S = SymTensorField(g, np.stack([T[i, j] for i, j in sym_index(n)]))
        assert rel_err(g.div_sym(S.values), g.div(unpack(S))) < 1e-12

        axes = tuple(range(1, n + 1))
        what = np.moveaxis(np.fft.fftn(w, axes=axes), 0, -1)
        ref_lame = np.real(np.fft.ifftn(np.moveaxis(
            np.einsum("...ij,...j->...i", ref_lame_symbol(g), what), -1, 0),
            axes=axes))
        assert rel_err(lame(W).values, ref_lame) < 1e-12

        ref_h1 = l2_inner(g, w, w) + l2_inner(g, dW, dW)
        assert abs(h1_norm_squared(W) - ref_h1) < 1e-12 * ref_h1

    @backend_settings
    @given(data=st.data())
    def test_lame_invert_matches_reference(self, n, data):
        g, rng, kmax = data.draw(torus_draws(n))
        f = bandlimited_values(g, rng, (n,), kmax)
        axes = tuple(range(1, n + 1))
        fhat = np.moveaxis(np.fft.fftn(f, axes=axes), 0, -1)
        fhat[(0,) * n] = 0.0
        sym = ref_lame_symbol(g)
        sym[(0,) * n] = np.eye(n)
        what = np.linalg.solve(sym, fhat[..., None])[..., 0]
        ref = np.real(np.fft.ifftn(np.moveaxis(what, -1, 0), axes=axes))
        W, _ = lame_invert(OneFormField(g, f))
        assert rel_err(W.values, ref) < 1e-12

    @backend_settings
    @given(data=st.data())
    def test_lame_of_lame_invert_is_mean_free_part(self, n, data):
        g, rng, kmax = data.draw(torus_draws(n))
        F = OneFormField(g, bandlimited_values(g, rng, (n,), kmax)
                         + rng.normal(size=(n,) + (1,) * n))
        W, defect = lame_invert(F)
        mean = np.mean(F.values, axis=tuple(range(1, n + 1)), keepdims=True)
        assert rel_err(lame(W).values, F.values - mean) < 1e-12
        assert defect == pytest.approx(
            np.linalg.norm(mean) * np.sqrt(g.volume), rel=1e-12)

    @backend_settings
    @given(data=st.data())
    def test_lame_is_self_adjoint(self, n, data):
        g, rng, kmax = data.draw(torus_draws(n))
        V = OneFormField(g, bandlimited_values(g, rng, (n,), kmax))
        W = OneFormField(g, bandlimited_values(g, rng, (n,), kmax))
        lhs = l2_inner(g, lame(V).values, W.values)
        rhs = l2_inner(g, V.values, lame(W).values)
        assert abs(lhs - rhs) < 1e-12 * np.sqrt(h1_norm_squared(V) * h1_norm_squared(W))

    @backend_settings
    @given(data=st.data())
    def test_energy_identity(self, n, data):
        # with Nyquist content lame keeps |k|^2 where L drops k, so the
        # identity holds for fields below the Nyquist mode
        g, rng, kmax = data.draw(torus_draws(n, below_nyquist=True))
        W = OneFormField(g, bandlimited_values(g, rng, (n,), kmax))
        LW = conformal_killing_deriv(W)
        lhs = l2_inner(g, lame(W).values, W.values)
        weights = sym_weights(n).reshape((-1,) + (1,) * n)
        rhs = 0.5 * l2_inner(g, LW.values * weights, LW.values)
        assert abs(lhs - rhs) < 1e-12 * h1_norm_squared(W)


class TestSphereQuadrature:
    def test_volume_tends_to_round_s3(self):
        # the poles' caps left out have volume (8 pi / 3) eps^3 + O(eps^5)
        errors = []
        for eps in (1e-1, 1e-2, 1e-3):
            vol = SphereRadial(2049, eps).integrate(np.ones(2049))
            errors.append(abs(vol - 2.0 * np.pi ** 2))
            assert errors[-1] < 1.1 * (8.0 * np.pi / 3.0) * eps ** 3 + 1e-7
        assert errors[0] > errors[1] > errors[2]
