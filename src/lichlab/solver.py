"""Coupled solves of the scalar/momentum system on the torus.

The system is

    lap u + h u = f u^{2*-1} + a(W) u^{-2*-1},  a(W) = b + gamma |U + L W|^2
    lame W      = u^{2*} X + Y   (modulo constant forms, projected + reported)

with a(W) from ``SystemCoefficients.quadratic``.  The momentum solve is
exact and spectral, so the system is one equation F(u) = scalar
residual(u, W(u)), solved by a Newton iteration on the scalar block that
keeps its iterates above a fixed floor of 1e-8 and recomputes W(u) and
a(W(u)) once at each line-search trial (Knoll and Keyes, J. Comput. Phys.
193 (2004)); ``solve_scalar`` runs the same loop for a fixed array a.
``SolveOptions`` is exactly a config's [solver] section; the start field
is the separate ``guess`` argument.

The Newton linearization keeps both nonlinear terms,

    J(du) = lap du + [h - (2*-1) f u^{2*-2} + (2*+1) a u^{-2*-2}] du ;

the negative-power term enters with a positive sign, which is stabilizing.
Each Newton system is solved by MINRES in the coordinates of the
orthonormal Hartley transform (``Torus.hartley``), which is real, its own
inverse and transpose, so MINRES takes the same iterates as on nodal
vectors.  There the constant-coefficient preconditioner
(|k|^2 + shift)^-1 is an elementwise product and lap is the multiplier
|k|^2, so an iteration costs two transforms, for the diagonal term.  The
coercivity check runs LOBPCG on the same system with diag = h, at the
same cost.  The whole pipeline stays deterministic.
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


# the floor Newton iterates stay above, and the steps of a scalar solve
_U_FLOOR = 1e-8
_MAX_NEWTON = 40


@dataclass
class SolveOptions:
    max_outer: int = 60                 # Newton steps of a coupled solve
    tol_residual: float = 1e-10
    damping: float = 0.7                # first trial step while res > 1e-6
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


def _fourier_newton_system(g, diag, shift):
    """lap + diag and its preconditioner (|k|^2 + shift)^-1 in the
    orthonormal Hartley coordinates of ``Torus.hartley``: k2 z +
    H(diag H z), two transforms per product, and an elementwise
    preconditioner."""
    k2 = g.k2_full
    inv_symbol = 1.0 / (k2 + shift)
    size = k2.size

    def matvec(z):
        z = z.reshape(k2.shape)
        return k2 * z + g.hartley(diag * g.hartley(z))

    def precond(z):
        return inv_symbol * z.reshape(k2.shape)

    # with a dtype, scipy does not probe each operator with a zero vector
    return (spla.LinearOperator((size, size), matvec=matvec, dtype=float),
            spla.LinearOperator((size, size), matvec=precond, dtype=float))


def check_coercivity(C, mode="strict"):
    """Smallest eigenvalue of lap + h by LOBPCG (0.0 when mode is "off").

    Raises NonCoerciveError when it is not above the mode's limit or when
    LOBPCG does not converge.  The start vector mixes the constant mode
    with a fixed low mode, so the run is deterministic.  LOBPCG runs on the
    Newton solver's system, in Hartley coordinates.
    """
    if mode == "off":
        return 0.0
    g = C.geometry
    h = C.h.values
    # on drawn 16^3 wells, whose mean h is near or below 0, LOBPCG took up
    # to 51 iterations with this shift and up to 87 of its 100 with Newton's
    # max(mean h, 1e-8)
    A, M = _fourier_newton_system(g, h, max(abs(float(np.mean(h))), 1.0))
    shape = g.grid_shape
    first = np.arange(shape[0]).reshape((-1,) + (1,) * (len(shape) - 1))
    start = g.hartley(np.ones(shape)
                      + 0.1 * np.cos(2.0 * np.pi * first / shape[0]))
    with warnings.catch_warnings():
        # lobpcg reports non-convergence only by a UserWarning
        warnings.simplefilter("error", UserWarning)
        try:
            eigenvalue = float(spla.lobpcg(A, start.reshape(-1, 1), M=M,
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


def _newton(C, evaluate, u, tol, max_steps, damping):
    """Newton on the residual of evaluate(u) = (a, W, kernel_defect, res)
    from the array u, until it is below tol or after max_steps steps; each
    line search starts from damping while it is above 1e-6 and evaluates
    each trial once.  Returns (u, W, kernel_defect, |res|, steps), or raises
    DegenerateDataError when degenerate data leave u at the floor."""
    g = C.geometry
    p = critical_exponent(g.dimension)
    a, W, kdef, res = evaluate(u)
    res_norm = float(np.max(np.abs(res)))
    degenerate = np.max(a) == 0.0 and np.max(C.f.values) <= 0.0
    steps = 0
    while res_norm >= tol and steps < max_steps:
        diag = (C.h.values - (p - 1.0) * C.f.values * u ** (p - 2.0)
                + (p + 1.0) * a * u ** (-p - 2.0))
        op, M = _fourier_newton_system(g, diag,
                                       max(float(np.mean(diag)), 1e-8))
        z, info = spla.minres(op, -g.hartley(res).reshape(-1), M=M,
                              rtol=1e-12, maxiter=400)
        if info != 0:
            raise NewtonDivergedError(
                f"MINRES failed on the Newton system (info {info}) at "
                f"residual {res_norm:.3e}")
        delta = g.hartley(z.reshape(g.grid_shape))
        del a, W, res, diag, op, M, z     # lowers the trials' peak memory

        t = damping if res_norm > 1e-6 else 1.0
        for _ in range(60):
            trial = u + t * delta
            if np.min(trial) > _U_FLOOR:
                a, W, kdef, res = evaluate(trial)
                trial_norm = float(np.max(np.abs(res)))
                if trial_norm <= res_norm * (1.0 + 1e-8):
                    break
                if t < 1e-6:
                    error = DegenerateDataError if degenerate else NewtonDivergedError
                    raise error(
                        "line search found no step that reduces the residual "
                        f"{res_norm:.3e} (Newton step {steps})")
            t *= 0.5
        else:
            if degenerate:
                raise DegenerateDataError(
                    "scalar data admit only the zero solution (f <= 0, a == 0); "
                    "iterate pinned at the floor")
            raise PositivityLostError(
                "line search exhausted without keeping the iterate above "
                "the floor")
        u, res_norm = trial, trial_norm
        steps += 1
    if res_norm >= tol and degenerate and np.min(u) < 10.0 * _U_FLOOR:
        raise DegenerateDataError(
            "scalar data admit only the zero solution; residual stationary "
            f"at the floor (residual {res_norm:.3e})")
    return u, W, kdef, res_norm, steps


def solve_scalar(a, C, opts: SolveOptions, guess=None):
    """Positivity-preserving Newton solve of the scalar equation for the
    array a = C.quadratic(W), started from guess (see _initial_field), in
    at most 40 steps, each with a full first trial step."""
    g = C.geometry
    check_coercivity(C, opts.coercivity_check)
    u, _, _, res_norm, _ = _newton(
        C, lambda v: (a, None, 0.0, _scalar_residual(ScalarField(g, v), a, C)),
        _initial_field(C, guess, a), opts.tol_residual, _MAX_NEWTON, 1.0)
    if res_norm < opts.tol_residual:
        return ScalarField(g, u)
    raise NewtonDivergedError(
        f"Newton did not reach {opts.tol_residual:.1e} within "
        f"{_MAX_NEWTON} iterations (residual {res_norm:.3e})")


def constant_balance_root(h_bar, f_bar, a_bar, n):
    """Smallest positive root of h t = f t^{2*-1} + a t^{-2*-1}.

    Used for the default initial guess.  Scans sign changes of the balance
    on a log grid from the floor ``_U_FLOOR`` to 100, 50 points per decade,
    so that no smaller root above the floor is passed over for the upper
    one, and refines with bisection.  Near the fold both roots can lie in
    the cells next to the grid's maximum, with no sign change on the grid;
    the maximum is then refined there, and a positive one brackets the
    smaller root.  Returns the maximum of the balance when no root exists
    (closest approach), the grid's when that lies at its end.
    """
    p = critical_exponent(n)

    def balance(t):
        return h_bar * t - f_bar * t ** (p - 1.0) - a_bar * t ** (-p - 1.0)

    ts = np.logspace(np.log10(_U_FLOOR), 2.0, 500)
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
    """Newton solve of F(u) = scalar residual(u, W(u)), W(u) the spectral
    momentum solve, from guess (see _initial_field): at most opts.max_outer
    steps, each line search starting from opts.damping while the residual
    is above 1e-6.  Converged when both residuals are below tol_residual.
    """
    opts = opts or SolveOptions()
    g = C.geometry
    check_coercivity(C, opts.coercivity_check)

    def evaluate(values):
        u = ScalarField(g, values)
        W, kdef = solve_momentum(u, C)
        a = C.quadratic(W)
        return a, W, kdef, _scalar_residual(u, a, C)

    u, W, kdef, scal_res, steps = _newton(
        C, evaluate, _initial_field(C, guess, C.quadratic()),
        opts.tol_residual, opts.max_outer, opts.damping)
    u = ScalarField(g, u)
    mom_res = float(np.max(np.abs(momentum_residual_field(u, W, C))))
    return Solution(u=u, W=W, scalar_residual=scal_res,
                    momentum_residual=mom_res, kernel_defect=kdef,
                    iterations=steps,
                    converged=max(scal_res, mom_res) < opts.tol_residual)


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
