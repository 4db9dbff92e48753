"""Coupled solves of the scalar/momentum system on the torus.

The system is

    lap u + h u = f u^{2*-1} + a(W) u^{-2*-1},  a(W) = b + gamma |U + L W|^2
    lame W      = u^{2*} X + Y   (modulo constant forms, projected + reported)

with a(W) from ``SystemCoefficients.quadratic``, solved by a damped
alternation: each pass inverts the momentum equation spectrally for the
current u, computes a(W) once, then runs a Newton iteration on the scalar
equation for that a(W) that keeps its iterates above a fixed floor of 1e-8.
``SolveOptions`` is exactly a config's [solver] section; the start field
is the separate ``guess`` argument.

The Newton linearization keeps both nonlinear terms,

    J(du) = lap du + [h - (2*-1) f u^{2*-2} + (2*+1) a u^{-2*-2}] du ;

the negative-power term enters with a positive sign, which is stabilizing.
Each Newton system is solved by MINRES in orthonormal real Fourier
coordinates (``_fourier_map``), an orthogonal map of the nodal fields onto
R^{N^n}, so MINRES takes the same iterates as on nodal vectors.  There the
constant-coefficient preconditioner (|k|^2 + shift)^-1 is an elementwise
product and lap is the multiplier |k|^2, so an iteration costs one forward
and one inverse transform, for the diagonal term.  The coercivity check
runs LOBPCG on the same system with diag = h, at the same cost.  The whole
pipeline stays deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla

from .conformal import critical_exponent
from .geometry import (
    GeometryMismatch,
    OneFormField,
    ScalarField,
    Torus,
    _check_geometry,
    lame,
    lame_invert,
    laplace_beltrami,
)

__all__ = [
    "SolveOptions",
    "Solution",
    "SolverError",
    "NonCoerciveError",
    "NewtonDivergedError",
    "PositivityLostError",
    "DegenerateDataError",
    "solve_momentum",
    "solve_scalar",
    "solve_system",
    "manufactured_forcing",
    "scalar_residual_field",
]


class SolverError(RuntimeError):
    pass


class NonCoerciveError(SolverError):
    """Smallest eigenvalue of the discrete lap + h is too low or unknown."""


class NewtonDivergedError(SolverError):
    pass


class PositivityLostError(SolverError):
    pass


class DegenerateDataError(PositivityLostError):
    """Only the zero function satisfies the scalar equation (f, a wiped out)."""


# the floor Newton iterates stay above, and the Newton steps one scalar
# solve may take
_U_FLOOR = 1e-8
_MAX_NEWTON = 40


@dataclass
class SolveOptions:
    max_outer: int = 60
    tol_residual: float = 1e-10
    damping: float = 0.7
    coercivity_check: str = "strict"    # "strict" | "weak" | "off"

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not 0.0 < self.tol_residual < np.inf:
            raise ValueError("tol_residual must be positive and finite")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if self.coercivity_check not in ("strict", "weak", "off"):
            raise ValueError("coercivity_check must be strict, weak or off")


@dataclass
class Solution:
    u: ScalarField
    W: OneFormField
    scalar_residual: float
    momentum_residual: float
    kernel_defect: float
    iterations: int
    converged: bool


def _scalar_residual(u, a, C):
    """Pointwise scalar residual at the field u for a precomputed a(W)."""
    p = critical_exponent(C.geometry.dimension)
    lap_u = laplace_beltrami(u).values
    return (lap_u + C.h.values * u.values
            - C.f.values * u.values ** (p - 1.0)
            - a * u.values ** (-p - 1.0))


def scalar_residual_field(u, W, C):
    """Pointwise residual of the scalar equation at (u, W)."""
    return _scalar_residual(u, C.quadratic(W), C)


def _momentum_rhs(u, C):
    n = C.geometry.dimension
    p = critical_exponent(n)
    return u.values ** p * C.X.values + C.Y.values


def momentum_residual_field(u, W, C):
    """Residual of the momentum equation after removing the kernel part,
    the constant forms of the torus (GeometryMismatch off the torus)."""
    if not isinstance(C.geometry, Torus):
        raise GeometryMismatch("momentum_residual_field requires a torus "
                               "geometry")
    rhs = _momentum_rhs(u, C)
    rhs = rhs - np.mean(rhs, axis=tuple(range(1, rhs.ndim)), keepdims=True)
    return lame(W).values - rhs


def _fourier_map(g):
    """(to_z, from_z, k2): an orthogonal map of nodal fields onto R^{N^n},
    its inverse and transpose, and the symbol |k|^2 of lap in its order.

    to_z holds rfft(x) as (re, im) pairs times sqrt(2 / N^n), since each
    half-spectrum mode also stands for its conjugate.  On the last-axis
    k = 0 plane, and the Nyquist plane of even N, the conjugate of mode k'
    is mode -k' of the same plane: only the first of the two is kept, and a
    mode with k' = -k', which is real, gives its real part times
    sqrt(1 / N^n).  from_z refills the dropped conjugates.
    """
    n, N = g.dimension, g.resolution
    half = g.k2.shape
    index = np.arange(g.k2.size)
    minus = -np.arange(N) % N
    conjugate = index.reshape(half)[np.ix_(*[minus] * (n - 1),
                                           np.arange(half[-1]))]
    # a mode off the planes keeps its (re, im) pair: conjugate past all
    on_plane = 2 * np.arange(half[-1]) % N == 0
    conjugate = np.where(on_plane, conjugate, index.size).reshape(-1)
    pairs = np.flatnonzero(index < conjugate)
    reals = np.flatnonzero(index == conjugate)
    copies = np.flatnonzero(index > conjugate)
    pair_scale = np.sqrt(2.0 / N ** n)
    real_scale = np.sqrt(1.0 / N ** n)
    split = 2 * pairs.size

    def to_z(x):
        spectrum = g.rfft(x).reshape(-1)
        return np.concatenate(((pair_scale * spectrum[pairs]).view(float),
                               real_scale * spectrum[reals].real))

    def from_z(z):
        z = z.reshape(-1)
        spectrum = np.empty(g.k2.size, dtype=complex)
        spectrum[pairs] = z[:split].view(complex) * (1.0 / pair_scale)
        spectrum[reals] = z[split:] * (1.0 / real_scale)
        spectrum[copies] = spectrum[conjugate[copies]].conj()
        return g.irfft(spectrum.reshape(half))

    k2 = g.k2.reshape(-1)
    return to_z, from_z, np.concatenate((np.repeat(k2[pairs], 2), k2[reals]))


def _fourier_newton_system(diag, shift, to_z, from_z, k2):
    """lap + diag and its preconditioner (|k|^2 + shift)^-1 in the
    coordinates of ``_fourier_map``: k2 z + to_z(diag from_z(z)), two
    transforms per product, and an elementwise preconditioner."""
    inv_symbol = 1.0 / (k2 + shift)
    size = k2.size

    def matvec(z):
        return k2 * z.reshape(-1) + to_z(diag * from_z(z))

    def precond(z):
        return inv_symbol * z.reshape(-1)

    # with a dtype, scipy does not probe each operator with a zero vector
    return (spla.LinearOperator((size, size), matvec=matvec, dtype=float),
            spla.LinearOperator((size, size), matvec=precond, dtype=float))


def check_coercivity(C, mode="strict"):
    """Smallest eigenvalue of lap + h by LOBPCG (0.0 when mode is "off").

    Raises NonCoerciveError when it is not above the mode's limit or when
    LOBPCG does not converge.  The start vector mixes the constant mode
    with a fixed low mode, so the run is deterministic.  LOBPCG runs on the
    Newton solver's system, in the coordinates of ``_fourier_map``.
    """
    if mode == "off":
        return 0.0
    g = C.geometry
    h = C.h.values
    to_z, from_z, k2 = _fourier_map(g)
    # on drawn 16^3 wells, whose mean h is near or below 0, LOBPCG took up
    # to 51 iterations with this shift and up to 87 of its 100 with Newton's
    # max(mean h, 1e-8)
    A, M = _fourier_newton_system(h, max(abs(float(np.mean(h))), 1.0),
                                  to_z, from_z, k2)
    shape = g.grid_shape
    first = np.arange(shape[0]).reshape((-1,) + (1,) * (len(shape) - 1))
    start = np.ones(shape) + 0.1 * np.cos(2.0 * np.pi * first / shape[0])
    with warnings.catch_warnings():
        # lobpcg reports non-convergence only by a UserWarning
        warnings.simplefilter("error", UserWarning)
        try:
            eigenvalue = float(spla.lobpcg(A, to_z(start)[:, None], M=M,
                                           tol=1e-8, maxiter=100,
                                           largest=False)[0][0])
        except UserWarning as warning:
            raise NonCoerciveError(
                "LOBPCG did not converge to the smallest eigenvalue of "
                f"lap + h: {warning}") from None
    limit = 1e-12 if mode == "strict" else -1e-10
    if eigenvalue <= limit:
        raise NonCoerciveError(
            f"smallest eigenvalue of lap + h is {eigenvalue:.3e} "
            f"(needs > {limit:.0e} in {mode} mode)")
    return eigenvalue


def solve_momentum(u, C):
    """Spectral momentum solve; returns (W, kernel_defect)."""
    return lame_invert(OneFormField(C.geometry, _momentum_rhs(u, C)))


def solve_scalar(a, C, opts: SolveOptions, guess=None):
    """Positivity-preserving Newton solve of the scalar equation for the
    array a = C.quadratic(W), started from guess (see _initial_field)."""
    g = C.geometry
    n = g.dimension
    p = critical_exponent(n)
    check_coercivity(C, opts.coercivity_check)

    degenerate = np.max(a) == 0.0 and np.max(C.f.values) <= 0.0
    u = _initial_field(C, guess, a)
    to_z, from_z, k2 = _fourier_map(g)

    res = _scalar_residual(ScalarField(g, u), a, C)
    for it in range(_MAX_NEWTON):
        res_norm = np.max(np.abs(res))
        if res_norm < opts.tol_residual:
            return ScalarField(g, u)
        diag = (C.h.values - (p - 1.0) * C.f.values * u ** (p - 2.0)
                + (p + 1.0) * a * u ** (-p - 2.0))
        op, M = _fourier_newton_system(
            diag, max(float(np.mean(diag)), 1e-8), to_z, from_z, k2)
        z, info = spla.minres(op, -to_z(res), M=M, rtol=1e-12, maxiter=400)
        if info != 0:
            raise NewtonDivergedError(
                f"MINRES failed on the Newton system (info {info}) at "
                f"residual {res_norm:.3e}")
        delta = from_z(z)

        t = 1.0
        for _ in range(60):
            trial = u + t * delta
            if np.min(trial) > _U_FLOOR:
                trial_res = _scalar_residual(ScalarField(g, trial), a, C)
                if np.max(np.abs(trial_res)) <= res_norm * (1.0 + 1e-8):
                    break
                if t < 1e-6:
                    error = DegenerateDataError if degenerate else NewtonDivergedError
                    raise error(
                        "line search found no step that reduces the residual "
                        f"{res_norm:.3e} (Newton step {it})")
            t *= 0.5
        else:
            if degenerate:
                raise DegenerateDataError(
                    "scalar data admit only the zero solution (f <= 0, a == 0); "
                    "iterate pinned at the floor")
            raise PositivityLostError(
                "line search exhausted without keeping the iterate above "
                "the floor")
        u = trial
        res = trial_res

    res_norm = float(np.max(np.abs(res)))
    if degenerate and np.min(u) < 10.0 * _U_FLOOR:
        raise DegenerateDataError(
            "scalar data admit only the zero solution; residual stationary "
            f"at the floor (residual {res_norm:.3e})")
    raise NewtonDivergedError(
        f"Newton did not reach {opts.tol_residual:.1e} within "
        f"{_MAX_NEWTON} iterations (residual {res_norm:.3e})")


def constant_balance_root(h_bar, f_bar, a_bar, n):
    """Smallest positive root of h t = f t^{2*-1} + a t^{-2*-1}.

    Used for the default initial guess.  Scans sign changes of the balance
    on a log grid and refines with bisection.  Near the fold both roots can
    lie in the cells next to the grid's maximum, with no sign change on the
    grid; the maximum is then refined there, and a positive one brackets
    the smaller root.  Returns the maximum of the balance when no root
    exists (closest approach), the grid's when that lies at its end.
    """
    p = critical_exponent(n)

    def balance(t):
        return h_bar * t - f_bar * t ** (p - 1.0) - a_bar * t ** (-p - 1.0)

    ts = np.logspace(-6.0, 2.0, 400)
    vals = balance(ts)
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if len(sign_change):
        lo, hi = ts[sign_change[0]], ts[sign_change[0] + 1]
    else:
        i = int(np.argmax(vals))
        if i in (0, len(ts) - 1):
            return float(ts[i])
        lo, hi = ts[i - 1], ts[i + 1]
        for _ in range(100):
            third = (hi - lo) / 3.0
            if balance(lo + third) < balance(hi - third):
                lo += third
            else:
                hi -= third
        peak = 0.5 * (lo + hi)
        if not vals[i - 1] < 0.0 < balance(peak):
            return float(peak)
        lo, hi = ts[i - 1], peak
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if balance(lo) * balance(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return float(0.5 * (lo + hi))


def _initial_field(C, guess, a):
    """A copy of guess, which must be on C's geometry (GeometryMismatch)
    and above the floor (ValueError); by default the constant balance root."""
    g = C.geometry
    if guess is not None:
        _check_geometry(guess, g)
        if not np.min(guess.values) > _U_FLOOR:
            raise ValueError(f"guess must stay above {_U_FLOOR:.0e}")
        return guess.values.copy()
    root = constant_balance_root(float(np.mean(C.h.values)),
                                 float(np.mean(C.f.values)),
                                 float(np.mean(a)),
                                 g.dimension)
    return np.full(g.grid_shape, max(root, 10.0 * _U_FLOOR))


def solve_system(C, opts: Optional[SolveOptions] = None, guess=None):
    """Damped alternation between the momentum and scalar solves, started
    from guess (see _initial_field)."""
    opts = opts or SolveOptions()
    g = C.geometry
    check_coercivity(C, opts.coercivity_check)

    u = ScalarField(g, _initial_field(C, guess, C.quadratic()))
    W, kdef = solve_momentum(u, C)
    a = C.quadratic(W)

    inner = replace(opts, coercivity_check="off")
    scal_res = mom_res = np.inf
    for it in range(1, opts.max_outer + 1):
        u_new = solve_scalar(a, C, inner, guess=u)
        # damping guards the strongly nonlinear u^{2*} feedback early on;
        # near the fixed point full steps restore fast linear convergence
        damp = opts.damping if max(scal_res, mom_res) > 1e-6 else 1.0
        u = ScalarField(g, (1.0 - damp) * u.values + damp * u_new.values)
        W, kdef = solve_momentum(u, C)
        a = C.quadratic(W)
        scal_res = float(np.max(np.abs(_scalar_residual(u, a, C))))
        mom_res = float(np.max(np.abs(momentum_residual_field(u, W, C))))
        converged = (scal_res < opts.tol_residual
                     and mom_res < opts.tol_residual)
        if converged:
            break
    return Solution(u=u, W=W, scalar_residual=scal_res,
                    momentum_residual=mom_res, kernel_defect=kdef,
                    iterations=it, converged=converged)


def manufactured_forcing(u_star, W_star, C):
    """Coefficients for which (u_star, W_star) solves the discrete system.

    h is replaced pointwise so the scalar equation is exact at u_star, and
    Y by lame(W_star) - u_star^{2*} X so the momentum equation is exact.
    """
    g = C.geometry
    n = g.dimension
    p = critical_exponent(n)
    if np.min(u_star.values) <= _U_FLOOR:
        raise ValueError(f"u_star must stay above {_U_FLOOR:.0e}")
    a = C.quadratic(W_star)
    lap_u = laplace_beltrami(u_star).values
    h_vals = (C.f.values * u_star.values ** (p - 1.0)
              + a * u_star.values ** (-p - 1.0) - lap_u) / u_star.values
    y_vals = lame(W_star).values - u_star.values ** p * C.X.values
    return replace(C, h=ScalarField(g, h_vals), Y=OneFormField(g, y_vals))
