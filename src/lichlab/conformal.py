"""Conformal-method bookkeeping.

Maps physics data (psi, pi, tau, sigma) and a potential V to the normalized
coefficients of the coupled scalar/momentum system, classifies the
focusing/defocusing regime, reconstructs initial data sets from solutions,
and measures the residuals of the original Hamiltonian and momentum
constraints for a reconstructed data set.

Conventions: the scalar unknown u multiplies the background metric as
u^{4/(n-2)}, the critical exponent is 2* = 2n/(n-2), and the normalization
constant is c_n = (n-2)/(4(n-1)), so that (u, W) solves

    lap_g u + h u = f u^{2*-1} + (b + gamma |U + L_g W|^2) u^{-2*-1}
    lame_g W      = u^{2*} X + Y

with h = c_n (R(g) - |grad psi|^2), f = c_n (2 V(psi) - ((n-1)/n) tau^2),
b = c_n pi^2, U = sigma, gamma = c_n, X = -((n-1)/n) grad tau,
Y = -pi grad psi exactly when the conformal pair (u, W) parametrizes a
solution of the constraints.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (
    GeometryMismatch,
    OneFormField,
    ScalarField,
    SymTensorField,
    Torus,
    _check_geometry,
    conformal_killing_deriv,
    gradient,
    _sym_rows,
    sym_index,
    tensor_norm_squared,
    tensor_trace,
)

__all__ = [
    "PhysicsData",
    "SystemCoefficients",
    "InitialDataSet",
    "Potential",
    "coefficients",
    "classify",
    "normalize",
    "reconstruct",
    "constraint_residuals",
    "critical_exponent",
]


def critical_exponent(n):
    return 2.0 * n / (n - 2.0)


@dataclass(frozen=True)
class Potential:
    """Quadratic potential V(s) = c0 + c1 s + c2 s^2 / 2."""

    c0: float
    c1: float
    c2: float

    @classmethod
    def constant(cls, value):
        return cls(float(value), 0.0, 0.0)

    @classmethod
    def quadratic(cls, c0=0.0, c1=0.0, c2=0.0):
        return cls(float(c0), float(c1), float(c2))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return self.c0 + self.c1 * s + 0.5 * self.c2 * s * s


# sigma's g-trace above which PhysicsData warns
_TRACE_TOL = 1e-10


@dataclass
class PhysicsData:
    psi: ScalarField
    pi: ScalarField
    tau: ScalarField
    sigma: SymTensorField
    potential: Potential

    def __post_init__(self):
        g = self.psi.geometry
        for f in (self.pi, self.tau, self.sigma):
            _check_geometry(f, g)
        tr = np.max(np.abs(tensor_trace(self.sigma)))
        if tr > _TRACE_TOL:
            warnings.warn(
                f"sigma has g-trace defect {tr:.3e}; the general system only "
                "needs a symmetric U, continuing", stacklevel=3)

    @property
    def geometry(self):
        return self.psi.geometry


@dataclass
class SystemCoefficients:
    """Canonical coefficients (h, f, b, U, X, Y, gamma) of the coupled system."""

    h: ScalarField
    f: ScalarField
    b: ScalarField
    U: SymTensorField
    X: OneFormField
    Y: OneFormField
    gamma: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if np.min(self.b.values) < -1e-13:
            raise ValueError("b must be nonnegative")
        g = self.h.geometry
        for f in (self.f, self.b, self.U, self.X, self.Y):
            _check_geometry(f, g)

    @property
    def geometry(self):
        return self.h.geometry

    def quadratic(self, W=None):
        """a(W) = b + gamma |U + L W|^2 pointwise; a(0) when W is None."""
        S = self.U
        if W is not None:
            S = conformal_killing_deriv(W)
            S.values += self.U.values       # the fresh L W becomes U + L W
        return self.b.values + self.gamma * tensor_norm_squared(S)


@dataclass
class InitialDataSet:
    """Reconstructed (metric factor, extrinsic curvature, field, momentum)."""

    conformal_factor: ScalarField          # phi, so that g~ = phi^{4/(n-2)} g
    extrinsic: SymTensorField              # K~ in background coordinates
    psi: ScalarField                       # psi~ = psi
    pi: ScalarField                        # pi~ = phi^{-2n/(n-2)} pi

    def __post_init__(self):
        if np.min(self.conformal_factor.values) <= 0.0:
            raise ValueError("conformal factor must be positive")

    @property
    def geometry(self):
        return self.conformal_factor.geometry


def coefficients(data: PhysicsData):
    """Scalar coefficient pair (R_psi, B) of the conformal system."""
    g = data.geometry
    n = g.dimension
    Rg = g.scalar_curvature()
    # sum over the gradient's components; a radial one-form has one
    dpsi = gradient(data.psi).values.reshape((-1,) + g.grid_shape)
    r_psi = ScalarField(g, Rg - np.sum(dpsi ** 2, axis=0))
    V = data.potential(data.psi.values)
    B = ScalarField(g, 2.0 * V - ((n - 1.0) / n) * data.tau.values ** 2)
    return r_psi, B


def classify(B: ScalarField):
    """Focusing / Defocusing / Mixed per the sign of B."""
    lo, hi = float(np.min(B.values)), float(np.max(B.values))
    if lo > 0.0:
        return "Focusing"
    if hi <= 0.0:
        return "Defocusing"
    return "Mixed"


def normalize(data: PhysicsData, h_override: ScalarField = None):
    """Physics data -> SystemCoefficients.

    With the default h, (u, W) solves the normalized system iff it solves
    the conformal constraint system of ``data``.  ``h_override`` replaces
    the derived h to produce general-system coefficients (the constraint
    correspondence is then intentionally broken; used by sweeps that probe
    the wider coefficient class).
    """
    g = data.geometry
    n = g.dimension
    c = (n - 2.0) / (4.0 * (n - 1.0))
    r_psi, B = coefficients(data)
    h = h_override if h_override is not None else ScalarField(g, c * r_psi.values)
    f = ScalarField(g, c * B.values)
    b = ScalarField(g, c * data.pi.values ** 2)
    X = OneFormField(g, -((n - 1.0) / n) * gradient(data.tau).values)
    Y = OneFormField(g, -data.pi.values * gradient(data.psi).values)
    return SystemCoefficients(h=h, f=f, b=b, U=data.sigma, X=X, Y=Y, gamma=c)


def reconstruct(u: ScalarField, W: OneFormField, data: PhysicsData):
    """Initial data set from a solution pair (u, W) of the conformal system."""
    g = u.geometry
    n = g.dimension
    if np.min(u.values) <= 0.0:
        raise ValueError("u must be positive to reconstruct initial data")
    phi = u.values
    LW = conformal_killing_deriv(W)
    conf = phi ** (4.0 / (n - 2.0))
    Kvals = np.empty_like(LW.values)
    for a, (i, j) in enumerate(sym_index(n)):
        gij = 1.0 if i == j else 0.0
        Kvals[a] = (data.tau.values / n) * conf * gij \
            + phi ** (-2.0) * (data.sigma.values[a] + LW.values[a])
    pit = ScalarField(g, phi ** (-critical_exponent(n)) * data.pi.values)
    return InitialDataSet(
        conformal_factor=ScalarField(g, phi.copy()),
        extrinsic=SymTensorField(g, Kvals),
        psi=data.psi.copy(),
        pi=pit,
    )


def _conformal_log_gradient(g, phi):
    """s = d sigma for the conformal metric e^{2 sigma} = phi^{4/(n-2)}."""
    return (2.0 / (g.dimension - 2.0)) * g.grad(np.log(phi))


def _row_contraction(s, T):
    """s^l T_{li} of a one-form s and a packed symmetric tensor T."""
    return np.stack([np.einsum("l...,l...->...", s, T[row])
                     for row in _sym_rows(len(s))])


def _conformal_divergence(g, T, s):
    """delta^{jk} nabla~_j T_{ki} of a packed symmetric 2-tensor (m, *grid).

    For g~_ij = e^{2 sigma} delta_ij with s_i = d_i sigma the connection is
    Gamma^l_{jk} = d^l_j s_k + d^l_k s_j - d_{jk} s_l, so the covariant
    divergence is the flat one, delta^{jk} d_j T_{ki}, plus Christoffel
    corrections.
    """
    n = g.dimension
    rows = _sym_rows(n)
    trT = sum(T[rows[i][i]] for i in range(n))                 # flat trace
    sT = _row_contraction(s, T)                                # s^l T_{li}
    # -delta^{jk} Gamma^l_{jk} T_{li} = (n - 2) s^l T_{li}
    # -delta^{jk} Gamma^l_{ji} T_{kl} = -s_i trT   (T symmetric)
    return g.div_sym(T) + ((n - 2.0) * sT - s * trT)


def _hamiltonian_defect(ids, potential, s, inv_conf, trK, dpsi):
    """Pointwise R~ + (tr K)^2 - |K|^2 - pi~^2 - |d psi|^2 - 2 V(psi)."""
    g = ids.geometry
    n = g.dimension
    # scalar curvature of g~ = e^{2 omega} delta through the conformal
    # transformation law, with omega = (2/(n-2)) log phi and d omega = s.
    # (The equivalent route through lap(phi) telescopes discretely onto the
    # solver's own scalar residual and would hide the discretization error
    # this diagnostic is meant to measure.)
    lap_omega = g.laplacian(
        (2.0 / (n - 2.0)) * np.log(ids.conformal_factor.values))
    R_tilde = -2.0 * (n - 1.0) * inv_conf * (
        -lap_omega + 0.5 * (n - 2.0) * np.sum(s ** 2, axis=0))
    return (R_tilde + trK ** 2
            - inv_conf ** 2 * tensor_norm_squared(ids.extrinsic)
            - ids.pi.values ** 2 - inv_conf * np.sum(dpsi ** 2, axis=0)
            - 2.0 * potential(ids.psi.values))


def constraint_residuals(ids: InitialDataSet, potential: Potential):
    """L^2 norms of the Hamiltonian and momentum constraint defects.

    The scalar curvature of the physical metric is evaluated through the
    conformal transformation law (reusing the spectrally exact flat
    Laplacian); covariant derivatives use the conformal Christoffels.
    K stays packed, and the Hamiltonian part's temporaries are freed before
    the momentum part.  Torus geometry only.
    """
    g = ids.geometry
    if not isinstance(g, Torus):
        raise GeometryMismatch(
            "constraint residual evaluation is implemented on the torus")
    n = g.dimension
    phi = ids.conformal_factor.values
    inv_conf = 1.0 / phi ** (4.0 / (n - 2.0))      # g~_ij = delta_ij / inv_conf
    vol_weight = phi ** critical_exponent(n)      # dv~ = phi^{2n/(n-2)} dv
    s = _conformal_log_gradient(g, phi)
    trK = inv_conf * tensor_trace(ids.extrinsic)
    dpsi = g.grad(ids.psi.values)

    ham_norm = float(np.sqrt(g.integrate(vol_weight * _hamiltonian_defect(
        ids, potential, s, inv_conf, trK, dpsi) ** 2)))

    # momentum: g~^{jk} nabla~_j K_{ki} - d_i trK - pi~ d_i psi~
    mom = (inv_conf * _conformal_divergence(g, ids.extrinsic.values, s)
           - g.grad(trK) - ids.pi.values * dpsi)
    mom_sq = inv_conf * np.sum(mom ** 2, axis=0)
    mom_norm = float(np.sqrt(g.integrate(vol_weight * mom_sq)))
    return ham_norm, mom_norm
