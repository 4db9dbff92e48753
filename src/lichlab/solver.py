"""Coupled solves of the scalar/momentum system on the torus.

The system is

    lap u + h u = f u^{2*-1} + a(W) u^{-2*-1},  a(W) = b + gamma |U + L W|^2
    lame W      = u^{2*} X + Y   (modulo constant forms, projected + reported)

solved by a damped alternation: each pass inverts the momentum equation
spectrally for the current u, then runs a positivity-preserving Newton
iteration on the scalar equation for the current W.

The Newton linearization keeps both nonlinear terms,

    J(du) = lap du + [h - (2*-1) f u^{2*-2} + (2*+1) a u^{-2*-2}] du ;

the negative-power term enters with a positive sign, which is stabilizing.
Linear solves use MINRES with a constant-coefficient spectral
preconditioner, so the whole pipeline stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.sparse.linalg as spla

from .conformal import SystemCoefficients, critical_exponent
from .geometry import (
    OneFormField,
    ScalarField,
    lame,
    lame_invert,
    laplace_beltrami,
    tensor_norm_squared,
    conformal_killing_deriv,
    sym_weights,
)

__all__ = [
    "SolveOptions",
    "Solution",
    "SolverError",
    "NonCoerciveError",
    "NewtonDivergedError",
    "PositivityLostError",
    "DegenerateDataError",
    "OuterDivergedError",
    "solve_momentum",
    "solve_scalar",
    "solve_system",
    "manufactured_forcing",
    "scalar_residual_field",
]


class SolverError(RuntimeError):
    pass


class NonCoerciveError(SolverError):
    """The discrete lap + h operator has nonpositive modes."""


class NewtonDivergedError(SolverError):
    pass


class PositivityLostError(SolverError):
    pass


class DegenerateDataError(PositivityLostError):
    """Only the zero function satisfies the scalar equation (f, a wiped out)."""


class OuterDivergedError(SolverError):
    pass


@dataclass
class SolveOptions:
    max_outer: int = 60
    max_newton: int = 40
    tol_residual: float = 1e-10
    damping: float = 0.7
    u_floor: float = 1e-8
    initial_guess: Union[ScalarField, float, None] = None
    coercivity_check: str = "strict"    # "strict" | "weak" | "off"
    linear_tol: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.tol_residual <= 0.0 or self.u_floor <= 0.0:
            raise ValueError("tolerances must be positive")
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
    classification: str = ""


def _quadratic_term(W, C):
    """a(W) = b + gamma |U + L W|^2 evaluated pointwise."""
    LW = conformal_killing_deriv(W)
    S = C.U.values + LW.values
    w = sym_weights(C.geometry.dimension)
    sq = np.einsum("a,a...->...", w, S ** 2)
    return C.b.values + C.gamma * sq


def scalar_residual_field(u, W, C):
    """Pointwise residual of the scalar equation at (u, W)."""
    n = C.geometry.dimension
    p = critical_exponent(n)
    a = _quadratic_term(W, C)
    lap_u = laplace_beltrami(u).values
    return (lap_u + C.h.values * u.values
            - C.f.values * u.values ** (p - 1.0)
            - a * u.values ** (-p - 1.0))


def _momentum_rhs(u, C):
    n = C.geometry.dimension
    p = critical_exponent(n)
    return u.values ** p * C.X.values + C.Y.values


def momentum_residual_field(u, W, C):
    """Residual of the momentum equation after removing the kernel part."""
    rhs = _momentum_rhs(u, C)
    rhs = rhs - np.mean(rhs, axis=tuple(range(1, rhs.ndim)), keepdims=True)
    return lame(W).values - rhs


def _lanczos_smallest_ritz(apply_op, shape, iterations=20):
    """Smallest Ritz value of a symmetric operator after a short Lanczos run.

    The start vector mixes the constant mode with a fixed low mode, so
    near-null constant directions are captured deterministically.
    """
    size = int(np.prod(shape))
    v = np.ones(shape)
    idx = np.unravel_index(np.arange(size), shape)
    v = v + 0.1 * np.cos(2.0 * np.pi * idx[0].reshape(shape) / shape[0])
    v = v / np.linalg.norm(v)
    alphas, betas = [], []
    v_prev = np.zeros(shape)
    beta = 0.0
    vs = [v]
    for _ in range(iterations):
        w = apply_op(v)
        alpha = float(np.vdot(v, w).real)
        w = w - alpha * v - beta * v_prev
        # full reorthogonalization keeps the tiny Ritz values honest
        for vb in vs:
            w = w - np.vdot(vb, w).real * vb
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        if beta < 1e-14:
            break
        betas.append(beta)
        v_prev = v
        v = w / beta
        vs.append(v)
    T = np.diag(alphas)
    for i, b in enumerate(betas[: len(alphas) - 1]):
        T[i, i + 1] = b
        T[i + 1, i] = b
    return float(np.min(np.linalg.eigvalsh(T)))


def check_coercivity(C, mode="strict", iterations=20, threshold=1e-12):
    """Ritz check of lap + h; raises NonCoerciveError on failure."""
    if mode == "off":
        return 0.0
    g = C.geometry

    def apply_op(v):
        return laplace_beltrami(ScalarField(g, v)).values + C.h.values * v

    ritz = _lanczos_smallest_ritz(apply_op, g.grid_shape, iterations)
    limit = threshold if mode == "strict" else -1e-10
    if ritz <= limit:
        raise NonCoerciveError(
            f"smallest Ritz value of lap + h is {ritz:.3e} "
            f"(needs > {limit:.0e} in {mode} mode)")
    return ritz


def solve_momentum(u, C, opts: Optional[SolveOptions] = None):
    """Spectral momentum solve; returns (W, kernel_defect)."""
    g = C.geometry
    rhs = OneFormField(g, _momentum_rhs(u, C))
    return lame_invert(rhs, g)


def _newton_apply(g, diag, v):
    return laplace_beltrami(ScalarField(g, v)).values + diag * v


def solve_scalar(W, C, opts: SolveOptions):
    """Positivity-preserving Newton solve of the scalar equation at fixed W."""
    g = C.geometry
    n = g.dimension
    p = critical_exponent(n)
    check_coercivity(C, opts.coercivity_check)
    a = _quadratic_term(W, C)

    degenerate = np.max(a) == 0.0 and np.max(C.f.values) <= 0.0
    u = _initial_field(C, opts, a)
    size = u.size
    shape = g.grid_shape

    def residual(uv):
        lap_u = laplace_beltrami(ScalarField(g, uv)).values
        return (lap_u + C.h.values * uv - C.f.values * uv ** (p - 1.0)
                - a * uv ** (-p - 1.0))

    res = residual(u)
    for it in range(opts.max_newton):
        res_norm = np.max(np.abs(res))
        if res_norm < opts.tol_residual:
            return ScalarField(g, u)
        diag = (C.h.values - (p - 1.0) * C.f.values * u ** (p - 2.0)
                + (p + 1.0) * a * u ** (-p - 2.0))
        inv_symbol = 1.0 / (g.k2 + max(float(np.mean(diag)), 1e-8))

        def matvec(x):
            return _newton_apply(g, diag, x.reshape(shape)).ravel()

        def precond(x):
            return g.irfft(inv_symbol * g.rfft(x.reshape(shape))).ravel()

        op = spla.LinearOperator((size, size), matvec=matvec)
        M = spla.LinearOperator((size, size), matvec=precond)
        delta, info = spla.minres(op, -res.ravel(), M=M,
                                  rtol=opts.linear_tol, maxiter=400)
        if info != 0:
            raise NewtonDivergedError(
                f"MINRES failed on the Newton system (info {info}) at "
                f"residual {res_norm:.3e}")
        delta = delta.reshape(shape)

        t = 1.0
        for _ in range(60):
            trial = u + t * delta
            if np.min(trial) > opts.u_floor:
                trial_res = residual(trial)
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
                    "iterate pinned at u_floor")
            raise PositivityLostError(
                "line search exhausted without keeping the iterate above u_floor")
        u = trial
        res = trial_res

    res_norm = float(np.max(np.abs(res)))
    if degenerate and np.min(u) < 10.0 * opts.u_floor:
        raise DegenerateDataError(
            "scalar data admit only the zero solution; residual stationary "
            f"at u_floor (residual {res_norm:.3e})")
    raise NewtonDivergedError(
        f"Newton did not reach {opts.tol_residual:.1e} within "
        f"{opts.max_newton} iterations (residual {res_norm:.3e})")


def constant_balance_root(h_bar, f_bar, a_bar, n, u_floor=1e-8):
    """Smallest positive root of h t = f t^{2*-1} + a t^{-2*-1}.

    Used for the default initial guess.  Scans sign changes of the balance
    on a log grid and refines with bisection; returns the argmax of the
    balance when no root exists (closest approach).
    """
    p = critical_exponent(n)

    def balance(t):
        return h_bar * t - f_bar * t ** (p - 1.0) - a_bar * t ** (-p - 1.0)

    ts = np.logspace(np.log10(max(u_floor, 1e-6)), 2.0, 400)
    vals = balance(ts)
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if len(sign_change) == 0:
        return float(ts[np.argmax(vals)])
    lo, hi = ts[sign_change[0]], ts[sign_change[0] + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if balance(lo) * balance(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return float(0.5 * (lo + hi))


def _initial_field(C, opts, a):
    g = C.geometry
    guess = opts.initial_guess
    if isinstance(guess, ScalarField):
        return guess.values.copy()
    if guess is not None:
        return np.full(g.grid_shape, float(guess))
    root = constant_balance_root(float(np.mean(C.h.values)),
                                 float(np.mean(C.f.values)),
                                 float(np.mean(a)),
                                 g.dimension, opts.u_floor)
    return np.full(g.grid_shape, max(root, 10.0 * opts.u_floor))


def solve_system(C, opts: Optional[SolveOptions] = None):
    """Damped alternation between the momentum and scalar solves."""
    opts = opts or SolveOptions()
    g = C.geometry
    check_coercivity(C, opts.coercivity_check)

    a0 = C.b.values + C.gamma * tensor_norm_squared(C.U)
    u = ScalarField(g, _initial_field(C, opts, a0))
    W, kdef = solve_momentum(u, C)

    inner_tol = max(0.05 * opts.tol_residual, 1e-12)
    inner_opts = SolveOptions(**{**opts.__dict__, "coercivity_check": "off",
                                 "initial_guess": None,
                                 "tol_residual": inner_tol})
    scal_res = mom_res = np.inf
    for it in range(1, opts.max_outer + 1):
        inner_opts.initial_guess = u
        u_new = solve_scalar(W, C, inner_opts)
        # damping guards the strongly nonlinear u^{2*} feedback early on;
        # near the fixed point full steps restore fast linear convergence
        damp = opts.damping if max(scal_res, mom_res) > 1e-6 else 1.0
        u = ScalarField(g, (1.0 - damp) * u.values + damp * u_new.values)
        if not np.all(np.isfinite(u.values)):
            raise OuterDivergedError("iterate left the finite range")
        W, kdef = solve_momentum(u, C)
        scal_res = float(np.max(np.abs(scalar_residual_field(u, W, C))))
        mom_res = float(np.max(np.abs(momentum_residual_field(u, W, C))))
        if scal_res < opts.tol_residual and mom_res < opts.tol_residual:
            return Solution(u=u, W=W, scalar_residual=scal_res,
                            momentum_residual=mom_res, kernel_defect=kdef,
                            iterations=it, converged=True)
    return Solution(u=u, W=W, scalar_residual=scal_res,
                    momentum_residual=mom_res, kernel_defect=kdef,
                    iterations=opts.max_outer, converged=False)


def manufactured_forcing(u_star, W_star, C, u_floor=1e-8):
    """Coefficients for which (u_star, W_star) solves the discrete system.

    h is replaced pointwise so the scalar equation is exact at u_star, and
    Y by lame(W_star) - u_star^{2*} X so the momentum equation is exact.
    """
    g = C.geometry
    n = g.dimension
    p = critical_exponent(n)
    if np.min(u_star.values) <= u_floor:
        raise ValueError("u_star must stay above u_floor")
    a = _quadratic_term(W_star, C)
    lap_u = laplace_beltrami(u_star).values
    h_vals = (C.f.values * u_star.values ** (p - 1.0)
              + a * u_star.values ** (-p - 1.0) - lap_u) / u_star.values
    y_vals = lame(W_star).values - u_star.values ** p * C.X.values
    return C.replace(h=ScalarField(g, h_vals), Y=OneFormField(g, y_vals))
