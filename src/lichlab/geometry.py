"""Discrete geometries and tensor calculus.

Three background geometries are supported:

* ``Torus``     -- flat periodic box T^n, spectral differentiation through
                   half-spectrum real transforms (``Torus.rfft``/``irfft``,
                   batched over field components) and cached half-spectrum
                   symbols (``Torus.k2``, ``Torus.k_odd``),
* ``SphereRadial`` -- radial reduction of the round S^3, 1-D finite differences,
* ``Chart``     -- non-periodic Euclidean box, n-D finite differences
                   (used by the chart-based diagnostics).

Fields are stored nodally.  Symmetric 2-tensors are packed: the values array
carries the n(n+1)/2 independent components in row-major upper-triangular
order.  On the radial sphere grid, one-forms store the radial component w(r)
and symmetric tensors store orthonormal-frame components (e_r, e_theta,
e_phi), which are functions of r alone for the radial fields used here.

The Laplacian follows the geometer's sign convention (minus divergence of
the gradient, a nonnegative operator), and the conformal Killing derivative
and Lame operator are

    (L W)_ij  = d_i W_j + d_j W_i - (2/n) (div W) g_ij,
    lame(W)_i = -div (L W)_i ,

so that on the torus the Fourier symbol of ``lame`` per mode k is
|k|^2 I + (1 - 2/n) k k^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.fft
import scipy.sparse as sp

__all__ = [
    "Torus",
    "SphereRadial",
    "Chart",
    "ScalarField",
    "OneFormField",
    "SymTensorField",
    "GeometryMismatch",
    "laplace_beltrami",
    "gradient",
    "divergence",
    "conformal_killing_deriv",
    "lame",
    "lame_invert",
    "sym_index",
    "sym_weights",
]


class GeometryMismatch(ValueError):
    """Field and operator geometries disagree."""


def _check_geometry(field_obj, g):
    if g is not None and field_obj.geometry is not g and field_obj.geometry != g:
        raise GeometryMismatch("field lives on a different geometry")
    return field_obj.geometry


def sym_index(n):
    """Upper-triangular (i, j) pairs in packed storage order."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def sym_weights(n):
    """Multiplicities (1 diagonal, 2 off-diagonal) matching sym_index."""
    return np.array([1.0 if i == j else 2.0 for i, j in sym_index(n)])


def fornberg_weights(x0, x, m):
    """Finite-difference weights for derivatives 0..m at x0 on nodes x.

    Classic Fornberg recursion; returns array (m+1, len(x)).
    """
    x = np.asarray(x, dtype=float)
    npts = len(x)
    c = np.zeros((m + 1, npts))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, npts):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1] - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


def _fd_matrix(x, deriv, stencil=7):
    """Sparse 1-D differentiation matrix of the given derivative order.

    Interior rows use centered stencils, edge rows one-sided ones; a 7-point
    stencil gives at least 4th-order accuracy for first and second
    derivatives everywhere.
    """
    npts = len(x)
    stencil = min(stencil, npts)
    half = stencil // 2
    rows, cols, vals = [], [], []
    for i in range(npts):
        lo = min(max(i - half, 0), npts - stencil)
        idx = np.arange(lo, lo + stencil)
        w = fornberg_weights(x[i], x[idx], deriv)[deriv]
        rows.extend([i] * stencil)
        cols.extend(idx.tolist())
        vals.extend(w.tolist())
    return sp.csr_matrix((vals, (rows, cols)), shape=(npts, npts))


# ---------------------------------------------------------------------------
# geometries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Torus:
    """Flat n-torus with uniform grid, periodic in every axis."""

    dimension: int
    resolution: int
    period: float = 2.0 * np.pi

    kind = "Torus"

    def __post_init__(self):
        if self.dimension < 3:
            raise ValueError("dimension must be >= 3")
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8 per axis")
        if not 0.0 < self.period < np.inf:
            raise ValueError("period must be positive and finite")

    @property
    def grid_shape(self):
        return (self.resolution,) * self.dimension

    @property
    def node_count(self):
        return self.resolution ** self.dimension

    @property
    def spacing(self):
        return self.period / self.resolution

    @property
    def volume(self):
        return self.period ** self.dimension

    @cached_property
    def axis_coords(self):
        return self.spacing * np.arange(self.resolution)

    def coords(self):
        """n broadcastable coordinate arrays."""
        x = self.axis_coords
        out = []
        for a in range(self.dimension):
            shape = [1] * self.dimension
            shape[a] = self.resolution
            out.append(x.reshape(shape))
        return out

    @cached_property
    def _axes(self):
        return tuple(range(-self.dimension, 0))

    def rfft(self, values):
        """Half-spectrum real transform over the last n axes.

        Leading axes, if any, are field components and are transformed as
        one batch.  The spectrum has shape (..., N, ..., N, N // 2 + 1).
        """
        return scipy.fft.rfftn(values, axes=self._axes)

    def irfft(self, coeffs):
        """Inverse of ``rfft``: real nodal values from a half spectrum."""
        return scipy.fft.irfftn(coeffs, s=self.grid_shape, axes=self._axes)

    def _half_wavevectors(self, odd):
        k_full = 2.0 * np.pi * np.fft.fftfreq(self.resolution, d=self.spacing)
        k_half = 2.0 * np.pi * np.fft.rfftfreq(self.resolution, d=self.spacing)
        if odd and self.resolution % 2 == 0:
            k_full[self.resolution // 2] = 0.0
            k_half[-1] = 0.0
        axes = [k_full] * (self.dimension - 1) + [k_half]
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def k_odd(self):
        """Half-spectrum wavevectors (n, N, ..., N // 2 + 1), Nyquist zeroed.

        Odd-order spectral multipliers (single derivatives, the k k^T part
        of the Lame symbol) must vanish at the unpaired Nyquist mode to
        stay conjugate-symmetric on real fields; even multipliers like
        |k|^2 are unaffected.
        """
        return self._half_wavevectors(odd=True)

    @cached_property
    def k2(self):
        """Half-spectrum symbol |k|^2 of the Laplacian, Nyquist included."""
        return np.sum(self._half_wavevectors(odd=False) ** 2, axis=0)

    def integrate(self, values):
        return np.sum(values) * self.spacing ** self.dimension

    def scalar_curvature(self):
        return 0.0


@dataclass(frozen=True)
class SphereRadial:
    """Radial grid on the round S^3, poles excluded by an eps margin."""

    resolution: int
    eps: float = 1.0e-3

    kind = "SphereRadial"
    dimension = 3

    def __post_init__(self):
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")

    @property
    def grid_shape(self):
        return (self.resolution,)

    @property
    def node_count(self):
        return self.resolution

    @cached_property
    def r(self):
        return np.linspace(self.eps, np.pi - self.eps, self.resolution)

    @property
    def spacing(self):
        return (np.pi - 2.0 * self.eps) / (self.resolution - 1)

    @cached_property
    def cot_r(self):
        return 1.0 / np.tan(self.r)

    @cached_property
    def d1(self):
        return _fd_matrix(self.r, 1)

    @cached_property
    def d2(self):
        return _fd_matrix(self.r, 2)

    def integrate(self, values):
        """Integral over S^3 of a radial function, 4 pi sin^2(r) weight."""
        return 4.0 * np.pi * np.trapezoid(values * np.sin(self.r) ** 2, self.r)

    def scalar_curvature(self):
        return 6.0


@dataclass(frozen=True)
class Chart:
    """Non-periodic uniform Cartesian grid on [-extent, extent]^n."""

    dimension: int
    resolution: int
    extent: float = 1.0

    kind = "Chart"

    def __post_init__(self):
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8 per axis")

    @property
    def grid_shape(self):
        return (self.resolution,) * self.dimension

    @property
    def node_count(self):
        return self.resolution ** self.dimension

    @cached_property
    def axis_coords(self):
        return np.linspace(-self.extent, self.extent, self.resolution)

    @property
    def spacing(self):
        return 2.0 * self.extent / (self.resolution - 1)

    def coords(self):
        x = self.axis_coords
        out = []
        for a in range(self.dimension):
            shape = [1] * self.dimension
            shape[a] = self.resolution
            out.append(x.reshape(shape))
        return out

    @cached_property
    def d1(self):
        return _fd_matrix(self.axis_coords, 1)

    @cached_property
    def d2(self):
        return _fd_matrix(self.axis_coords, 2)

    def scalar_curvature(self):
        return 0.0


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _as_finite_array(values):
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    return arr


@dataclass
class ScalarField:
    geometry: object
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = _as_finite_array(self.values)
        if self.values.shape != self.geometry.grid_shape:
            raise ValueError(
                f"scalar values shape {self.values.shape} does not match "
                f"grid {self.geometry.grid_shape}")

    @classmethod
    def constant(cls, geometry, value):
        return cls(geometry, np.full(geometry.grid_shape, float(value)))

    def copy(self):
        return ScalarField(self.geometry, self.values.copy())


@dataclass
class OneFormField:
    geometry: object
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = _as_finite_array(self.values)
        g = self.geometry
        if g.kind == "SphereRadial":
            expected = g.grid_shape
        else:
            expected = (g.dimension,) + g.grid_shape
        if self.values.shape != expected:
            raise ValueError(
                f"one-form values shape {self.values.shape}, expected {expected}")

    @classmethod
    def zero(cls, geometry):
        if geometry.kind == "SphereRadial":
            return cls(geometry, np.zeros(geometry.grid_shape))
        return cls(geometry, np.zeros((geometry.dimension,) + geometry.grid_shape))

    def copy(self):
        return OneFormField(self.geometry, self.values.copy())


@dataclass
class SymTensorField:
    geometry: object
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = _as_finite_array(self.values)
        n = self.geometry.dimension
        m = n * (n + 1) // 2
        expected = (m,) + self.geometry.grid_shape
        if self.values.shape != expected:
            raise ValueError(
                f"tensor values shape {self.values.shape}, expected {expected}")

    @classmethod
    def zero(cls, geometry):
        n = geometry.dimension
        return cls(geometry, np.zeros((n * (n + 1) // 2,) + geometry.grid_shape))

    @classmethod
    def from_full(cls, geometry, full):
        n = geometry.dimension
        comps = [0.5 * (full[i, j] + full[j, i]) for i, j in sym_index(n)]
        return cls(geometry, np.stack(comps))

    def full(self):
        """Expand packed components to shape (n, n, *grid)."""
        n = self.geometry.dimension
        out = np.zeros((n, n) + self.geometry.grid_shape)
        for a, (i, j) in enumerate(sym_index(n)):
            out[i, j] = self.values[a]
            out[j, i] = self.values[a]
        return out

    def copy(self):
        return SymTensorField(self.geometry, self.values.copy())


def tensor_norm_squared(T):
    """Pointwise |T|_g^2 for flat torus/chart tensors or sphere frame tensors."""
    w = sym_weights(T.geometry.dimension)
    return np.einsum("a,a...->...", w, T.values ** 2)


def tensor_trace(T):
    """Pointwise g-trace (flat metric on torus/chart, frame on sphere)."""
    n = T.geometry.dimension
    diag = [a for a, (i, j) in enumerate(sym_index(n)) if i == j]
    return np.sum(T.values[diag], axis=0)


# ---------------------------------------------------------------------------
# differentiation back ends
# ---------------------------------------------------------------------------

def _fd_partial(g, values, axis, deriv=1):
    mat = g.d1 if deriv == 1 else g.d2
    moved = np.moveaxis(values, axis, 0)
    flat = moved.reshape(g.resolution, -1)
    out = mat @ flat
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


def partial_deriv(g, values, axis):
    """First partial derivative along an axis, spectral or FD by geometry."""
    if g.kind == "Torus":
        return g.irfft(1j * g.k_odd[axis] * g.rfft(values))
    if g.kind == "Chart":
        return _fd_partial(g, values, axis, 1)
    raise GeometryMismatch("partial_deriv needs a torus or chart geometry")


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def laplace_beltrami(f, g=None):
    """Laplace-Beltrami of a scalar, nonnegative sign convention."""
    g = _check_geometry(f, g)
    if g.kind == "Torus":
        return ScalarField(g, g.irfft(g.k2 * g.rfft(f.values)))
    if g.kind == "SphereRadial":
        vals = -(g.d2 @ f.values) - 2.0 * g.cot_r * (g.d1 @ f.values)
        return ScalarField(g, vals)
    if g.kind == "Chart":
        out = np.zeros_like(f.values)
        for a in range(g.dimension):
            out -= _fd_partial(g, f.values, a, 2)
        return ScalarField(g, out)
    raise GeometryMismatch(f"unsupported geometry kind {g.kind}")


def gradient(f, g=None):
    """Euclidean-component gradient of a scalar (torus or chart)."""
    g = _check_geometry(f, g)
    if g.kind == "SphereRadial":
        return OneFormField(g, g.d1 @ f.values)
    if g.kind == "Torus":
        return OneFormField(g, g.irfft(1j * g.k_odd * g.rfft(f.values)))
    comps = [partial_deriv(g, f.values, a) for a in range(g.dimension)]
    return OneFormField(g, np.stack(comps))


def divergence(W, g=None):
    """Divergence of a one-form (torus or chart)."""
    g = _check_geometry(W, g)
    if g.kind == "SphereRadial":
        return ScalarField(g, (g.d1 @ W.values) + 2.0 * g.cot_r * W.values)
    if g.kind == "Torus":
        what = g.rfft(W.values)
        return ScalarField(g, g.irfft(1j * np.einsum("a...,a...->...", g.k_odd, what)))
    out = np.zeros(g.grid_shape)
    for a in range(g.dimension):
        out += partial_deriv(g, W.values[a], a)
    return ScalarField(g, out)


def conformal_killing_deriv(W, g=None):
    """Trace-free symmetrized derivative L_g W."""
    g = _check_geometry(W, g)
    n = g.dimension
    if g.kind == "SphereRadial":
        # radial one-form w(r) d/dr on round S^3: in the orthonormal frame
        # (L W) = diag((4/3) psi, -(2/3) psi, -(2/3) psi), psi = w' - w cot r
        psi = (g.d1 @ W.values) - W.values * g.cot_r
        vals = np.zeros((6, g.resolution))
        vals[0] = (4.0 / 3.0) * psi
        vals[3] = -(2.0 / 3.0) * psi
        vals[5] = -(2.0 / 3.0) * psi
        return SymTensorField(g, vals)
    if g.kind == "Torus":
        # in the half spectrum: one batched transform each way
        dW = 1j * g.k_odd[:, None] * g.rfft(W.values)[None]
    else:
        dW = np.stack([
            np.stack([partial_deriv(g, W.values[j], i) for j in range(n)])
            for i in range(n)
        ])  # dW[i, j] = d_i W_j
    div = np.trace(dW, axis1=0, axis2=1)
    comps = []
    for i, j in sym_index(n):
        c = dW[i, j] + dW[j, i]
        if i == j:
            c = c - (2.0 / n) * div
        comps.append(c)
    comps = np.stack(comps)
    return SymTensorField(g, g.irfft(comps) if g.kind == "Torus" else comps)


def lame(W, g=None):
    """Lame operator, minus the divergence of the conformal Killing derivative."""
    g = _check_geometry(W, g)
    n = g.dimension
    if g.kind == "Torus":
        what = g.rfft(W.values)
        k = g.k_odd
        kdotw = np.einsum("a...,a...->...", k, what)
        out = g.k2 * what + (1.0 - 2.0 / n) * k * kdotw
        return OneFormField(g, g.irfft(out))
    if g.kind == "SphereRadial":
        w = W.values
        vals = -(4.0 / 3.0) * ((g.d2 @ w) + 2.0 * g.cot_r * (g.d1 @ w)
                               + (1.0 - 2.0 * g.cot_r ** 2) * w)
        return OneFormField(g, vals)
    if g.kind == "Chart":
        LW = conformal_killing_deriv(W, g).full()
        comps = []
        for i in range(n):
            div_i = np.zeros(g.grid_shape)
            for j in range(n):
                div_i += partial_deriv(g, LW[j, i], j)
            comps.append(-div_i)
        return OneFormField(g, np.stack(comps))
    raise GeometryMismatch(f"unsupported geometry kind {g.kind}")


def lame_invert(F, g=None):
    """Invert the Lame operator on the torus, modulo its constant-form kernel.

    Returns (W, defect): W is mean-free and satisfies lame(W) = F - <F>,
    and defect is the L^2 norm of the discarded constant component of F.
    """
    g = _check_geometry(F, g)
    if g.kind != "Torus":
        raise GeometryMismatch("lame_invert requires a torus geometry")
    n = g.dimension
    fhat = g.rfft(F.values)
    k = g.k_odd
    k2 = g.k2.copy()
    zero = k2 == 0.0
    k2[zero] = 1.0
    # Sherman-Morrison inverse of the mode symbol |k|^2 I + beta k k^T
    # (k from the odd-consistent wavevectors, matching ``lame`` exactly)
    beta = 1.0 - 2.0 / n
    k2_odd = np.sum(k ** 2, axis=0)
    coef = beta / (k2 + beta * k2_odd)
    kdotf = np.einsum("a...,a...->...", k, fhat)
    what = (fhat - coef * k * kdotf) / k2
    what[(slice(None),) + tuple(np.nonzero(zero))] = 0.0
    mean_f = np.array([np.mean(F.values[a]) for a in range(n)])
    defect = float(np.linalg.norm(mean_f) * np.sqrt(g.volume))
    W = OneFormField(g, g.irfft(what))
    return W, defect


# ---------------------------------------------------------------------------
# norms and inner products
# ---------------------------------------------------------------------------

def l2_inner(g, a, b):
    """L^2 inner product of same-shaped nodal arrays (flat geometries)."""
    if g.kind == "Torus":
        return float(np.sum(a * b) * g.spacing ** g.dimension)
    if g.kind == "SphereRadial":
        return float(4.0 * np.pi * np.trapezoid(np.sum(
            (a * b).reshape(-1, g.resolution), axis=0) * np.sin(g.r) ** 2, g.r))
    raise GeometryMismatch("l2_inner supports torus and sphere grids")


def l2_norm(g, a):
    return float(np.sqrt(max(l2_inner(g, a, a), 0.0)))


def h1_norm_squared(W):
    """H^1 norm squared of a torus one-form, |W|_2^2 + |dW|_2^2."""
    g = W.geometry
    if g.kind != "Torus":
        raise GeometryMismatch("h1_norm_squared requires a torus geometry")
    dW = g.irfft(1j * g.k_odd[:, None] * g.rfft(W.values)[None])
    return l2_inner(g, W.values, W.values) + l2_inner(g, dW, dW)
