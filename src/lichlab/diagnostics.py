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
from scipy.ndimage import map_coordinates, spline_filter

from .conformal import (
    SystemCoefficients,
    _conformal_divergence,
    _conformal_log_gradient,
    _row_contraction,
    critical_exponent,
)
from .geometry import (
    Chart,
    GeometryMismatch,
    OneFormField,
    ScalarField,
    _check_geometry,
    _trace_free_sym,
    conformal_killing_deriv,
    lame,
    laplace_beltrami,
)
from .quadrature import ball_rule, unit_sphere_rule

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


def _chart_sample(chart, values, pts, overwrite=False):
    """Quintic spline of nodal values read at the points pts, shape (M, n).

    One prefilter and one map_coordinates call per field, so a caller
    reads all its points at once.  A constant field is read as that
    constant, with no spline at all.  With ``overwrite`` the prefilter
    writes over ``values``, for a fresh array the caller no longer needs.
    """
    if np.all(values == values.flat[0]):
        return np.full(len(pts), float(values.flat[0]))
    filtered = spline_filter(values, order=5, mode="nearest",
                             output=values if overwrite else np.float64)
    idx = (pts + chart.extent) / chart.spacing
    return map_coordinates(filtered, idx.T, order=5, mode="nearest",
                           prefilter=False)


# Pohozaev quadrature: Gauss points per radial panel, radial panels, and
# the polar and azimuthal orders of the unit-sphere rule.  The rule is
# sized by its own quadrature error: against the rule (24, 6, 32, 64), each
# side of the exact bubble's balance moves by less than 1e-3 of the defect
# at 33^3, 65^3 and 129^3, far below the grid error the defect measures.
_RADIAL_ORDER, _PANELS = 12, 3
_POLAR_ORDER, _AZIMUTH_ORDER = 32, 64


def pohozaev_defect(v: ScalarField, C: SystemCoefficients, center, radius,
                    direction=None):
    """Both sides of the Pohozaev balance over a ball inside the chart.

    Returns a PohozaevReport with the interior/boundary values and the
    interior term breakdown.  ``direction`` switches from the dilation
    identity to the translation identity along that vector.
    """
    g = v.geometry
    if not isinstance(g, Chart):
        raise GeometryMismatch("pohozaev_defect expects chart fields")
    n = g.dimension
    center = np.asarray(center, dtype=float)
    if np.max(np.abs(center)) + radius > g.extent:
        raise ValueError("ball exceeds the chart")
    p = critical_exponent(n)

    dirs, angw = unit_sphere_rule(n, _POLAR_ORDER, _AZIMUTH_ORDER)
    ball, w = ball_rule(n, radius, _PANELS, _RADIAL_ORDER, (dirs, angw),
                        center)
    m = len(ball)
    # v and its partials are read at the interior nodes and on the boundary
    # sphere in one pass; the partials are fresh, so they are filtered in
    # place
    pts = np.concatenate([ball, center[None, :] + radius * dirs])
    vv = _chart_sample(g, v.values, pts)
    gv = np.stack([_chart_sample(g, d, pts, overwrite=True)
                   for d in g.grad(v.values)], axis=-1)

    # interior: radial-angular quadrature with lap v from the equation
    vi, gi = vv[:m], gv[:m]
    if direction is None:
        mult = np.einsum("Mi,Mi->M", ball - center[None, :], gi) \
            + 0.5 * (n - 2.0) * vi
    else:
        Yd = np.asarray(direction, dtype=float)
        mult = gi @ Yd
    K1 = float(np.sum(w * mult * (-_chart_sample(g, C.h.values, ball) * vi)))
    K2 = float(np.sum(w * mult * _chart_sample(g, C.f.values, ball)
                      * vi ** (p - 1.0)))
    K3 = float(np.sum(w * mult
                      * _chart_sample(g, C.quadratic(), ball, overwrite=True)
                      * vi ** (-p - 1.0)))
    interior = K1 + K2 + K3

    # boundary flux terms
    vb, gb = vv[m:], gv[m:]
    dnu = np.einsum("Mi,Mi->M", dirs, gb)
    grad2 = np.einsum("Mi,Mi->M", gb, gb)
    if direction is None:
        integrand = (0.5 * radius * grad2 - 0.5 * (n - 2.0) * vb * dnu
                     - radius * dnu ** 2)
    else:
        Yd = np.asarray(direction, dtype=float)
        integrand = 0.5 * (dirs @ Yd) * grad2 - (gb @ Yd) * dnu
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
    p = critical_exponent(g.dimension)
    cross = np.sum(g.grad(phi ** 2) * g.grad(v), axis=0)
    return phi ** (2.0 - p) * g.laplacian(v) - phi ** (-p) * cross


def _conformal_killing(g, s, X_vals):
    """L_g X for the conformal metric, s its log-gradient.

    With nabla~_i X_j = d_i X_j - s_i X_j - s_j X_i + d_ij s.X, whose last
    term is pure trace, L_g X is the trace-free symmetric part of
    d_i X_j - 2 s_i X_j.
    """
    return _trace_free_sym(g.grad(X_vals)
                           - 2.0 * s[:, None] * X_vals[None, :])


def _conformal_lame(g, phi, s, X_vals):
    """lame_g X for the conformal metric: -div_g of the Killing derivative."""
    inv_conf = phi ** (-4.0 / (g.dimension - 2.0))
    return -inv_conf * _conformal_divergence(
        g, _conformal_killing(g, s, X_vals), s)


def conformal_covariance_residuals(v: ScalarField, X: OneFormField,
                                   phi_factor: ScalarField):
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
    g = v.geometry
    if not isinstance(g, Chart):
        raise GeometryMismatch("covariance residuals expect chart fields")
    _check_geometry(X, g)
    _check_geometry(phi_factor, g)
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
    s = _conformal_log_gradient(g, phi)
    w = 4.0 / (n - 2.0)
    resc = OneFormField(g, phi ** (-w) * X.values)
    L_resc = conformal_killing_deriv(resc)
    lhs2 = phi ** w * L_resc.values
    rhs2 = _conformal_killing(g, s, X.values)
    res2 = float(np.max(np.abs(lhs2 - rhs2)))

    # Lame identity; 2* d log phi = n s
    correction = n * _row_contraction(s, L_resc.values)
    lhs3 = lame(resc).values - correction
    rhs3 = _conformal_lame(g, phi, s, X.values)
    res3 = float(np.max(np.abs(lhs3 - rhs3)))

    return res1, res2, res3
