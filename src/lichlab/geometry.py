"""Discrete geometries and tensor calculus.

Three background geometries are supported, and each class carries its own
discretisation of one calculus:

* ``Torus``     -- flat periodic box T^n, spectral differentiation through
                   half-spectrum real transforms (``Torus.rfft``/``irfft``,
                   batched over field components) and cached half-spectrum
                   symbols (``Torus.k2``, ``Torus.k_odd``); the orthonormal
                   Hartley transform ``Torus.hartley`` and its symbol
                   ``Torus.k2_full`` give the solver real coordinates,
* ``SphereRadial`` -- radial reduction of the round S^3, 1-D finite differences,
* ``Chart``     -- non-periodic Euclidean box, n-D finite differences
                   (used by the chart-based diagnostics).

Each geometry has the array methods ``grad``, ``div``, ``laplacian``,
``killing``, ``lame`` and ``one_form_shape``, batched over leading
component axes: ``grad(W)[i, j] = d_i W_j`` and ``div(T)[i] = d_j T[j, i]``.
The box geometries (torus and chart) also have ``div_sym``, the divergence
of a packed symmetric tensor.
The module functions (``gradient``, ``divergence``, ``lame``, ...) are the
API: each calls one method of its field's geometry.

Fields are stored nodally.  Symmetric 2-tensors are packed: the values array
carries the n(n+1)/2 independent components in row-major upper-triangular
order.  Constant fields (``ScalarField.constant``, ``OneFormField.zero``,
``SymTensorField.constant`` and ``.zero``) store their value once:
``values`` is a read-only zero-stride view (``np.broadcast_to``) with the
full field shape, so writing into it raises ``ValueError``; ``copy()``
gives a full, writable array.  On the radial sphere grid, one-forms store
the radial component w(r) and symmetric tensors store orthonormal-frame
components (e_r, e_theta, e_phi), which are functions of r alone for the
radial fields used here.

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
    if field_obj.geometry is not g and field_obj.geometry != g:
        raise GeometryMismatch("field lives on a different geometry")


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


def _fd_matrix(x, deriv):
    """Sparse 1-D differentiation matrix of the given derivative order.

    Interior rows use centered stencils, edge rows one-sided ones; a 7-point
    stencil gives at least 4th-order accuracy for first and second
    derivatives everywhere.
    """
    npts = len(x)
    stencil = min(7, npts)
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


def _fd_apply(mat, values, axis):
    """Apply a 1-D differentiation matrix along one axis of an array."""
    moved = np.moveaxis(values, axis, 0)
    out = mat @ moved.reshape(moved.shape[0], -1)
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


def _trace_free_sym(dW):
    """Packed dW_ij + dW_ji - (2/n) tr(dW) delta_ij for dW[i, j] = d_i W_j."""
    n = dW.shape[0]
    div = np.trace(dW, axis1=0, axis2=1)
    comps = []
    for i, j in sym_index(n):
        c = dW[i, j] + dW[j, i]
        if i == j:
            c = c - (2.0 / n) * div
        comps.append(c)
    return np.stack(comps)


def _sym_rows(n):
    """Packed index of (i, j) for each row i: row i of T is packed[rows[i]]."""
    pos = {}
    for a, (i, j) in enumerate(sym_index(n)):
        pos[i, j] = pos[j, i] = a
    return [[pos[i, j] for j in range(n)] for i in range(n)]


def _unpack_sym(packed, n):
    """Packed symmetric components (m, ...) to the full array (n, n, ...)."""
    out = np.zeros((n, n) + packed.shape[1:])
    for a, (i, j) in enumerate(sym_index(n)):
        out[i, j] = packed[a]
        out[j, i] = packed[a]
    return out


# ---------------------------------------------------------------------------
# geometries
# ---------------------------------------------------------------------------

class _Box:
    """Uniform grid of ``resolution`` nodes per axis in ``dimension`` axes."""

    @property
    def grid_shape(self):
        return (self.resolution,) * self.dimension

    @property
    def one_form_shape(self):
        return (self.dimension,) + self.grid_shape

    def coords(self):
        """n broadcastable coordinate arrays."""
        x = self.axis_coords
        out = []
        for a in range(self.dimension):
            shape = [1] * self.dimension
            shape[a] = self.resolution
            out.append(x.reshape(shape))
        return out

    def div_sym(self, packed):
        """div(T)[i] = d_j T_ji of a packed symmetric tensor, row by row."""
        return np.stack([self.div(packed[row])
                         for row in _sym_rows(self.dimension)])


# the torus side; a torus of another size gives the same solutions with
# rescaled coefficients
_PERIOD = 2.0 * np.pi


@dataclass(frozen=True)
class Torus(_Box):
    """Flat n-torus [0, 2 pi)^n with uniform grid, periodic in every axis."""

    dimension: int
    resolution: int

    def __post_init__(self):
        if self.dimension < 3:
            raise ValueError("dimension must be >= 3")
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8 per axis")

    @property
    def spacing(self):
        return _PERIOD / self.resolution

    @property
    def volume(self):
        return _PERIOD ** self.dimension

    @cached_property
    def axis_coords(self):
        return self.spacing * np.arange(self.resolution)

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

    def hartley(self, values):
        """Orthonormal Hartley transform (Re - Im) fft / sqrt(N^n) over the
        last n axes, batched over leading axes like ``rfft``.

        It is real, symmetric and its own inverse, and it diagonalizes the
        Laplacian: hartley(laplacian(x)) = k2_full * hartley(x).
        """
        spectrum = scipy.fft.fftn(values, axes=self._axes, norm="ortho")
        return spectrum.real - spectrum.imag

    def _wavevectors(self, odd, half=True):
        k_full = 2.0 * np.pi * np.fft.fftfreq(self.resolution, d=self.spacing)
        k_half = 2.0 * np.pi * np.fft.rfftfreq(self.resolution, d=self.spacing)
        if odd and self.resolution % 2 == 0:
            k_full[self.resolution // 2] = 0.0
            k_half[-1] = 0.0
        axes = [k_full] * (self.dimension - 1) + [k_half if half else k_full]
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def k_odd(self):
        """Half-spectrum wavevectors (n, N, ..., N // 2 + 1), Nyquist zeroed.

        Odd-order spectral multipliers (single derivatives, the k k^T part
        of the Lame symbol) must vanish at the unpaired Nyquist mode to
        stay conjugate-symmetric on real fields; even multipliers like
        |k|^2 are unaffected.
        """
        return self._wavevectors(odd=True)

    @cached_property
    def k2(self):
        """Half-spectrum symbol |k|^2 of the Laplacian, Nyquist included."""
        return np.sum(self._wavevectors(odd=False) ** 2, axis=0)

    @cached_property
    def k2_full(self):
        """Full-spectrum symbol |k|^2 of the Laplacian, in ``hartley`` order."""
        return np.sum(self._wavevectors(odd=False, half=False) ** 2, axis=0)

    def _k(self, ndim):
        """``k_odd`` shaped to broadcast against a spectrum with ndim axes."""
        k = self.k_odd
        lead = (1,) * (ndim - self.dimension)
        return k.reshape(k.shape[:1] + lead + k.shape[1:])

    def grad(self, values):
        fhat = self.rfft(values)
        return self.irfft(1j * self._k(fhat.ndim) * fhat)

    def div(self, values):
        what = self.rfft(values)
        return self.irfft(1j * np.einsum("a...,a...->...",
                                         self._k(what.ndim - 1), what))

    def laplacian(self, values):
        return self.irfft(self.k2 * self.rfft(values))

    def killing(self, values):
        # the packed half spectrum i (k_i w_j + k_j w_i - (2/n) k.w d_ij),
        # filled component by component: one batched transform each way
        what = self.rfft(values)
        n = self.dimension
        k = self._k(what.ndim - 1)
        trace = (2.0 / n) * np.einsum("a...,a...->...", k, what)
        out = np.empty((n * (n + 1) // 2,) + what.shape[1:], dtype=complex)
        for a, (i, j) in enumerate(sym_index(n)):
            np.multiply(k[i], what[j], out=out[a])
            out[a] += k[j] * what[i]
            if i == j:
                out[a] -= trace
        out *= 1j
        return self.irfft(out)

    def lame(self, values):
        what = self.rfft(values)
        k = self._k(what.ndim - 1)
        kdotw = np.einsum("a...,a...->...", k, what)
        beta = 1.0 - 2.0 / self.dimension
        return self.irfft(self.k2 * what + beta * k * kdotw)

    def integrate(self, values):
        return np.sum(values) * self.spacing ** self.dimension

    def scalar_curvature(self):
        return 0.0


@dataclass(frozen=True)
class SphereRadial:
    """Radial grid on the round S^3, poles excluded by an eps margin."""

    resolution: int
    eps: float = 1.0e-3

    dimension = 3

    def __post_init__(self):
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8")
        if not 0.0 < self.eps < 0.5 * np.pi:
            raise ValueError("eps must lie in (0, pi/2)")

    @property
    def grid_shape(self):
        return (self.resolution,)

    @property
    def one_form_shape(self):
        return self.grid_shape

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

    def grad(self, values):
        return _fd_apply(self.d1, values, -1)

    def div(self, values):
        return self.grad(values) + 2.0 * self.cot_r * values

    def laplacian(self, values):
        return (-_fd_apply(self.d2, values, -1)
                - 2.0 * self.cot_r * self.grad(values))

    def killing(self, values):
        # radial one-form w(r) d/dr on round S^3: in the orthonormal frame
        # (L W) = diag((4/3) psi, -(2/3) psi, -(2/3) psi), psi = w' - w cot r
        psi = self.grad(values) - values * self.cot_r
        out = np.zeros((6,) + values.shape)
        out[0] = (4.0 / 3.0) * psi
        out[3] = out[5] = -(2.0 / 3.0) * psi
        return out

    def lame(self, values):
        return -(4.0 / 3.0) * (_fd_apply(self.d2, values, -1)
                               + 2.0 * self.cot_r * self.grad(values)
                               + (1.0 - 2.0 * self.cot_r ** 2) * values)

    def integrate(self, values):
        """Integral over S^3 of radial functions, 4 pi sin^2(r) weight,
        summed over leading component axes."""
        per_node = np.sum(np.reshape(values, (-1, self.resolution)), axis=0)
        weight = np.sin(self.r) ** 2
        return 4.0 * np.pi * np.trapezoid(per_node * weight, self.r)

    def scalar_curvature(self):
        return 6.0


@dataclass(frozen=True)
class Chart(_Box):
    """Non-periodic uniform Cartesian grid on [-extent, extent]^n."""

    dimension: int
    resolution: int
    extent: float = 1.0

    def __post_init__(self):
        if self.dimension < 3:
            raise ValueError("dimension must be >= 3")
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8 per axis")
        if not 0.0 < self.extent < np.inf:
            raise ValueError("extent must be positive and finite")

    @cached_property
    def axis_coords(self):
        return np.linspace(-self.extent, self.extent, self.resolution)

    @property
    def spacing(self):
        return 2.0 * self.extent / (self.resolution - 1)

    @cached_property
    def d1(self):
        return _fd_matrix(self.axis_coords, 1)

    @cached_property
    def d2(self):
        return _fd_matrix(self.axis_coords, 2)

    def _along(self, mat, values, a):
        """Apply mat along grid axis a of an array with leading components."""
        return _fd_apply(mat, values, values.ndim - self.dimension + a)

    def grad(self, values):
        out = np.empty((self.dimension,) + values.shape)
        for a in range(self.dimension):
            out[a] = self._along(self.d1, values, a)
        return out

    def div(self, values):
        return sum(self._along(self.d1, values[a], a)
                   for a in range(self.dimension))

    def laplacian(self, values):
        return -sum(self._along(self.d2, values, a)
                    for a in range(self.dimension))

    def killing(self, values):
        return _trace_free_sym(self.grad(values))

    def lame(self, values):
        return -self.div_sym(self.killing(values))

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
        """The value stored once, as a read-only view of the grid's shape."""
        return cls(geometry, np.broadcast_to(float(value), geometry.grid_shape))

    def copy(self):
        return ScalarField(self.geometry, self.values.copy())


@dataclass
class OneFormField:
    geometry: object
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = _as_finite_array(self.values)
        expected = self.geometry.one_form_shape
        if self.values.shape != expected:
            raise ValueError(
                f"one-form values shape {self.values.shape}, expected {expected}")

    @classmethod
    def zero(cls, geometry):
        """Zero stored once, as a read-only view of the one-form shape."""
        return cls(geometry, np.broadcast_to(0.0, geometry.one_form_shape))

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
    def constant(cls, geometry, components):
        """Packed constant components stored once, as a read-only view."""
        comps = np.asarray(components, dtype=float)
        grid = geometry.grid_shape
        return cls(geometry, np.broadcast_to(
            comps.reshape(comps.shape + (1,) * len(grid)), comps.shape + grid))

    @classmethod
    def zero(cls, geometry):
        n = geometry.dimension
        return cls.constant(geometry, np.zeros(n * (n + 1) // 2))

    def full(self):
        """Expand packed components to shape (n, n, *grid)."""
        return _unpack_sym(self.values, self.geometry.dimension)

    def copy(self):
        return SymTensorField(self.geometry, self.values.copy())


def tensor_norm_squared(T):
    """Pointwise |T|_g^2 for flat torus/chart tensors or sphere frame tensors."""
    w = sym_weights(T.geometry.dimension)
    return np.einsum("a,a...,a...->...", w, T.values, T.values)


def tensor_trace(T):
    """Pointwise g-trace (flat metric on torus/chart, frame on sphere)."""
    n = T.geometry.dimension
    diag = [a for a, (i, j) in enumerate(sym_index(n)) if i == j]
    return np.sum(T.values[diag], axis=0)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def partial_deriv(g, values, axis):
    """First partial derivative along a grid axis (torus or chart)."""
    if isinstance(g, SphereRadial):
        raise GeometryMismatch("partial_deriv needs a torus or chart geometry")
    return g.grad(values)[axis]


def laplace_beltrami(f):
    """Laplace-Beltrami of a scalar, nonnegative sign convention."""
    return ScalarField(f.geometry, f.geometry.laplacian(f.values))


def gradient(f):
    """Gradient of a scalar: Euclidean components, radial on the sphere."""
    return OneFormField(f.geometry, f.geometry.grad(f.values))


def divergence(W):
    """Divergence of a one-form."""
    return ScalarField(W.geometry, W.geometry.div(W.values))


def conformal_killing_deriv(W):
    """Trace-free symmetrized derivative L_g W."""
    return SymTensorField(W.geometry, W.geometry.killing(W.values))


def lame(W):
    """Lame operator, minus the divergence of the conformal Killing derivative."""
    return OneFormField(W.geometry, W.geometry.lame(W.values))


def lame_invert(F):
    """Invert the Lame operator on the torus, modulo its constant-form kernel.

    Returns (W, defect): W is mean-free and satisfies lame(W) = F - <F>,
    and defect is the L^2 norm of the discarded constant component of F.
    """
    g = F.geometry
    if not isinstance(g, Torus):
        raise GeometryMismatch("lame_invert requires a torus geometry")
    n = g.dimension
    fhat = g.rfft(F.values)
    k = g.k_odd
    k2 = g.k2.copy()
    zero = k2 == 0.0
    k2[zero] = 1.0
    # Sherman-Morrison inverse of the mode symbol |k|^2 I + beta k k^T
    # (k from the odd-consistent wavevectors, matching ``Torus.lame`` exactly)
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
    """L^2 inner product of same-shaped nodal arrays (torus and sphere grids)."""
    if isinstance(g, Chart):
        raise GeometryMismatch("l2_inner supports torus and sphere grids")
    return float(g.integrate(a * b))


def h1_norm_squared(W):
    """H^1 norm squared of a torus one-form, |W|_2^2 + |dW|_2^2."""
    g = W.geometry
    if not isinstance(g, Torus):
        raise GeometryMismatch("h1_norm_squared requires a torus geometry")
    dW = g.grad(W.values)
    return l2_inner(g, W.values, W.values) + l2_inner(g, dW, dW)
