"""Identity and inequality checkers.

Harnack sup/inf ratios, Pohozaev balances on Euclidean charts, the
dimensional stability margin, and the conformal covariance of the scalar
and one-form operators.

The Pohozaev balance is pure integration by parts: for any smooth v on a
ball B(0, r),

    int_B (x.grad v + (n-2)/2 v) lap v dx
        = int_dB ( r/2 |grad v|^2 - (n-2)/2 v dv/dnu - r (dv/dnu)^2 ) ds,

with lap = -sum of second partials.  When a coefficient set is supplied,
lap v inside the volume integral is substituted from the scalar equation's
right-hand side, so the defect couples quadrature accuracy to how well v
solves the equation.  A direction vector switches to the translation
variant

    int_dB ( 1/2 Y.nu |grad v|^2 - (Y.grad v) dv/dnu ) ds
        = int_B (Y.grad v) (-h v + f v^{2*-1} + a v^{-2*-1}) dx .
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates

from .conformal import (
    SystemCoefficients,
    _conformal_divergence_correction,
    critical_exponent,
)
from .geometry import (
    Chart,
    GeometryMismatch,
    OneFormField,
    ScalarField,
    SymTensorField,
    conformal_killing_deriv,
    divergence,
    gradient,
    lame,
    laplace_beltrami,
    partial_deriv,
    sym_index,
    sym_weights,
)
from .quadrature import gauss_panels, unit_sphere_rule

__all__ = [
    "PohozaevReport",
    "harnack_ratio",
    "pohozaev_defect",
    "stability_condition",
    "conformal_covariance_residuals",
]


def harnack_ratio(u, inner_region, outer_region=None):
    """sup/inf of a positive field over the inner region.

    ``u`` may be a ScalarField or a plain array; regions are boolean masks
    of the same shape.  Positivity is required on the outer region (or the
    inner one when no outer mask is given).
    """
    vals = u.values if hasattr(u, "values") else np.asarray(u, dtype=float)
    inner = np.asarray(inner_region, dtype=bool)
    check = np.asarray(outer_region, dtype=bool) if outer_region is not None \
        else inner
    if not np.any(inner):
        raise ValueError("inner region is empty")
    if np.min(vals[check]) <= 0.0:
        raise ValueError("field must be positive on the outer region")
    return float(np.max(vals[inner]) / np.min(vals[inner]))


def stability_condition(h0, f0, lap_f0, Rg, n):
    """Margin of the dimensional stability bound at a critical point.

    margin = (n-2)/(4(n-1)) Rg - C(n) lap_f0 / f0 - h0, with the geometer's
    Laplacian convention in lap_f0; satisfied iff the margin is strictly
    positive.
    """
    from .bubbles import blowup_constants

    if f0 <= 0.0:
        raise ValueError("f0 must be positive")
    cn = blowup_constants(n).stability_coef
    margin = (n - 2.0) / (4.0 * (n - 1.0)) * Rg - cn * lap_f0 / f0 - h0
    return {"satisfied": bool(margin > 0.0), "margin": float(margin)}


# ---------------------------------------------------------------------------
# Pohozaev balances on a chart
# ---------------------------------------------------------------------------

@dataclass
class PohozaevReport:
    interior: float
    boundary: float
    K1: float          # h-term of the interior integral
    K2: float          # f-term
    K3: float          # quadratic (b, |U + LW|^2) term

    @property
    def defect(self):
        return abs(self.interior - self.boundary)


def _chart_interpolator(chart, values):
    """Quintic interpolation of nodal values at arbitrary points.

    The spline prefilter runs once here; evaluation is then cheap per call.
    """
    from scipy.ndimage import spline_filter

    lo = -chart.extent
    h = chart.spacing
    filtered = spline_filter(values, order=5, mode="nearest")

    def interp(pts):
        idx = (np.asarray(pts, dtype=float) - lo) / h
        return map_coordinates(filtered, idx.T, order=5, mode="nearest",
                               prefilter=False)

    return interp


def pohozaev_defect(v: ScalarField, C: SystemCoefficients, center, radius,
                    direction=None, radial_order=24, polar_order=32,
                    azimuth_order=64, panels=6):
    """Both sides of the Pohozaev balance over a ball inside the chart.

    Returns a PohozaevReport with the interior/boundary values and the
    interior term breakdown.  ``direction`` switches from the dilation
    identity to the translation identity along that vector.
    """
    g = v.geometry
    if g.kind != "Chart":
        raise GeometryMismatch("pohozaev_defect expects chart fields")
    n = g.dimension
    center = np.asarray(center, dtype=float)
    if np.max(np.abs(center)) + radius > g.extent:
        raise ValueError("ball exceeds the chart")
    p = critical_exponent(n)

    grad_vals = [partial_deriv(g, v.values, a) for a in range(n)]
    interp_v = _chart_interpolator(g, v.values)
    interp_g = [_chart_interpolator(g, gv) for gv in grad_vals]
    interp_h = _chart_interpolator(g, C.h.values)
    interp_f = _chart_interpolator(g, C.f.values)
    a_vals = C.b.values + C.gamma * np.einsum(
        "a,a...->...", sym_weights(n), C.U.values ** 2)
    interp_a = _chart_interpolator(g, a_vals)

    dirs, angw = unit_sphere_rule(n, polar_order, azimuth_order)

    # interior: radial-angular quadrature with lap v from the equation
    edges = np.linspace(0.0, radius, panels + 1)
    rn, rw = gauss_panels(edges, radial_order)
    pts = (center[None, None, :] + rn[:, None, None] * dirs[None, :, :])
    pts = pts.reshape(-1, n)
    w = ((rw * rn ** (n - 1.0))[:, None] * angw[None, :]).ravel()
    vv = interp_v(pts)
    gv = np.stack([ip(pts) for ip in interp_g], axis=-1)
    if direction is None:
        mult = np.einsum("Mi,Mi->M", pts - center[None, :], gv) \
            + 0.5 * (n - 2.0) * vv
    else:
        Yd = np.asarray(direction, dtype=float)
        mult = gv @ Yd
    K1 = float(np.sum(w * mult * (-interp_h(pts) * vv)))
    K2 = float(np.sum(w * mult * interp_f(pts) * vv ** (p - 1.0)))
    K3 = float(np.sum(w * mult * interp_a(pts) * vv ** (-p - 1.0)))
    interior = K1 + K2 + K3

    # boundary flux terms
    pts = center[None, :] + radius * dirs
    vv = interp_v(pts)
    gv = np.stack([ip(pts) for ip in interp_g], axis=-1)
    dnu = np.einsum("Mi,Mi->M", dirs, gv)
    grad2 = np.einsum("Mi,Mi->M", gv, gv)
    if direction is None:
        integrand = (0.5 * radius * grad2 - 0.5 * (n - 2.0) * vv * dnu
                     - radius * dnu ** 2)
    else:
        Yd = np.asarray(direction, dtype=float)
        integrand = 0.5 * (dirs @ Yd) * grad2 - (gv @ Yd) * dnu
    boundary = float(np.sum(angw * integrand) * radius ** (n - 1.0))

    return PohozaevReport(interior=interior, boundary=boundary,
                          K1=K1, K2=K2, K3=K3)


# ---------------------------------------------------------------------------
# conformal covariance residuals
# ---------------------------------------------------------------------------

def _conformal_scalar_laplacian(g, phi, v):
    """lap_g v for g = phi^{4/(n-2)} xi.

    Product-rule form of -phi^{-2*} div(phi^2 grad v); reduces to the plain
    discrete Laplacian exactly at phi = 1.
    """
    n = g.dimension
    p = critical_exponent(n)
    cross = np.zeros(g.grid_shape)
    for a in range(n):
        cross += partial_deriv(g, phi ** 2, a) * partial_deriv(g, v, a)
    return (phi ** (2.0 - p) * laplace_beltrami(ScalarField(g, v)).values
            - phi ** (-p) * cross)


def _conformal_killing(g, phi, X_vals):
    """L_g X for the conformal metric, via Christoffel corrections."""
    n = g.dimension
    s = (2.0 / (n - 2.0)) * np.stack(
        [partial_deriv(g, np.log(phi), a) for a in range(n)])
    dX = np.stack([
        np.stack([partial_deriv(g, X_vals[j], i) for j in range(n)])
        for i in range(n)
    ])                                      # dX[i, j] = d_i X_j
    sX = np.einsum("a...,a...->...", s, X_vals)
    div_flat = np.einsum("aa...->...", dX)
    div_g = phi ** (-4.0 / (n - 2.0)) * (div_flat + (n - 2.0) * sX)
    conf = phi ** (4.0 / (n - 2.0))
    out = np.empty((n * (n + 1) // 2,) + g.grid_shape)
    for a, (i, j) in enumerate(sym_index(n)):
        nab = dX[i, j] + dX[j, i] - 2.0 * (s[j] * X_vals[i] + s[i] * X_vals[j])
        if i == j:
            nab = nab + 2.0 * sX - (2.0 / n) * div_g * conf
        out[a] = nab
    return out


def _conformal_lame(g, phi, X_vals):
    """lame_g X for the conformal metric: -div_g of the Killing derivative."""
    n = g.dimension
    full = SymTensorField(g, _conformal_killing(g, phi, X_vals)).full()
    s = (2.0 / (n - 2.0)) * np.stack(
        [partial_deriv(g, np.log(phi), a) for a in range(n)])
    flat_div = np.stack([
        sum(partial_deriv(g, full[j, i], j) for j in range(n))
        for i in range(n)
    ])
    corr = _conformal_divergence_correction(g, full, s)
    inv_conf = phi ** (-4.0 / (n - 2.0))
    return -inv_conf * (flat_div + corr)


def conformal_covariance_residuals(v: ScalarField, X: OneFormField,
                                   phi_factor: ScalarField, chart=None):
    """Sup-norm defects of the three conformal covariance identities.

    With g = phi^{4/(n-2)} xi on the chart (phi positive):

      scalar:   lap_xi(phi v) = phi^{2*-1} lap_g v + v lap_xi phi
      killing:  phi^{4/(n-2)} L_xi(phi^{-4/(n-2)} X) = L_g X
      lame:     lame_xi(phi^{-4/(n-2)} X)
                  - 2* xi^{kl} d_k(log phi) L_xi(phi^{-4/(n-2)} X)_{l .}
                = lame_g X

    All three reduce to exact identities at phi = 1; for curved phi the
    defects sit at the finite-difference discretization order.
    """
    g = chart or v.geometry
    if g.kind != "Chart":
        raise GeometryMismatch("covariance residuals expect chart fields")
    n = g.dimension
    p = critical_exponent(n)
    phi = phi_factor.values
    if np.min(phi) <= 0.0:
        raise ValueError("conformal factor must be positive")

    # scalar identity
    lhs1 = laplace_beltrami(ScalarField(g, phi * v.values)).values
    rhs1 = (phi ** (p - 1.0) * _conformal_scalar_laplacian(g, phi, v.values)
            + v.values * laplace_beltrami(phi_factor).values)
    res1 = float(np.max(np.abs(lhs1 - rhs1)))

    # Killing derivative identity
    w = 4.0 / (n - 2.0)
    resc = OneFormField(g, phi ** (-w) * X.values)
    lhs2 = phi ** w * conformal_killing_deriv(resc).values
    rhs2 = _conformal_killing(g, phi, X.values)
    res2 = float(np.max(np.abs(lhs2 - rhs2)))

    # Lame identity
    full = conformal_killing_deriv(resc).full()
    dlog = np.stack([partial_deriv(g, np.log(phi), a) for a in range(n)])
    correction = p * np.einsum("k...,ki...->i...", dlog, full)
    lhs3 = lame(resc).values - correction
    rhs3 = _conformal_lame(g, phi, X.values)
    res3 = float(np.max(np.abs(lhs3 - rhs3)))

    return res1, res2, res3
