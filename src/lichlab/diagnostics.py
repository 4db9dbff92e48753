"""Identity and inequality checkers.

The dimensional stability margin (instability.verify reports it for the
blow-up family, whose data sit exactly on the bound), the Pohozaev
dilation balance on Euclidean charts, and the conformal covariance of the
scalar and one-form operators.

The Pohozaev dilation balance is pure integration by parts: for any
smooth v on a ball B(x0, r), with x measured from the center x0,

    int_B (x.grad v + (n-2)/2 v) lap v dx
        = int_dB ( r/2 |grad v|^2 - (n-2)/2 v dv/dnu - r (dv/dnu)^2 ) ds,

with lap = -sum of second partials.  When a coefficient set is supplied,
lap v inside the volume integral is substituted from the scalar equation's
right-hand side, so the defect couples quadrature accuracy to how well v
solves the equation.

The fields are read off the chart by quintic splines, concurrently: one
worker thread per usable core, with the index array of each point set
built once and shared by every read of it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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
from .quadrature import _usable_cores, ball_rule, unit_sphere_rule

__all__ = [
    "PohozaevReport",
    "pohozaev_defect",
    "stability_condition",
    "conformal_covariance_residuals",
]


def stability_condition(h0, f0, lap_f0, Rg, n):
    """Margin of the dimensional stability bound at a critical point of f.

    margin = (n-2)/(4(n-1)) Rg - C(n) lap_f0 / f0 - h0, with the geometer's
    Laplacian convention in lap_f0; the bound holds iff the margin is
    strictly positive.  The arguments may be arrays of nodal values, f0
    positive at every node (ValueError).
    """
    from .bubbles import blowup_constants

    if not np.all(np.asarray(f0) > 0.0):
        raise ValueError("f0 must be positive")
    cn = blowup_constants(n).stability_coef
    return (n - 2.0) / (4.0 * (n - 1.0)) * Rg - cn * lap_f0 / f0 - h0


# ---------------------------------------------------------------------------
# Pohozaev dilation balance on a chart
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


def _chart_sample(values, idx, overwrite=False):
    """Quintic spline of nodal values read at chart indices idx, shape (M, n).

    One prefilter and one map_coordinates call per field, so a caller
    reads all its points at once.  A constant field is read as that
    constant, with no spline at all.  With ``overwrite`` the prefilter
    writes over ``values``, for a fresh array the caller no longer needs.
    _chart_read runs it for several fields at once, one worker thread per
    usable core, and the reads of one point set share its idx.
    """
    if np.all(values == values.flat[0]):
        return np.full(len(idx), float(values.flat[0]))
    filtered = spline_filter(values, order=5, mode="nearest",
                             output=values if overwrite else np.float64)
    return map_coordinates(filtered, idx.T, order=5, mode="nearest",
                           prefilter=False)


def _chart_read(chart, jobs):
    """_chart_sample of each (values, pts, overwrite) job, all at once.

    The fields are read concurrently, one worker thread per usable core
    (both scipy calls release the GIL), by a pool that lives only for this
    call.  Each point set's index array (pts + extent) / spacing is built
    once and shared by every read of it.
    """
    index = {}
    for _, pts, _ in jobs:
        if id(pts) not in index:
            index[id(pts)] = (pts + chart.extent) / chart.spacing
    workers = min(len(jobs), _usable_cores())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        reads = [pool.submit(_chart_sample, values, index[id(pts)], overwrite)
                 for values, pts, overwrite in jobs]
    return [read.result() for read in reads]


def _finite_vector(x, n, name):
    """x as a float array of n finite entries (ValueError otherwise)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be {n} finite numbers, got {x}")
    return x


# Pohozaev quadrature: Gauss points per radial panel, radial panels, and
# the polar and azimuthal orders of the unit-sphere rule.  The rule is
# sized by its own quadrature error: against the rule (24, 6, 32, 64), each
# side of the exact bubble's balance moves by less than 1e-3 of the defect
# at 33^3, 65^3 and 129^3, far below the grid error the defect measures.
_RADIAL_ORDER, _PANELS = 12, 3
_POLAR_ORDER, _AZIMUTH_ORDER = 32, 64


def pohozaev_defect(v: ScalarField, C: SystemCoefficients, center, radius):
    """Both sides of the Pohozaev dilation balance over a ball inside the
    chart.

    Returns a PohozaevReport with the interior/boundary values and the
    interior term breakdown.  C must live on v's chart (GeometryMismatch);
    the radius must be positive and the center n finite numbers
    (ValueError).  The fields are read by _chart_read in two concurrent
    batches: v and its partials, then the coefficients.
    """
    g = v.geometry
    if not isinstance(g, Chart):
        raise GeometryMismatch("pohozaev_defect expects chart fields")
    _check_geometry(C, g)
    if not radius > 0.0:
        raise ValueError(f"need a positive radius, got {radius}")
    n = g.dimension
    center = _finite_vector(center, n, "center")
    if np.max(np.abs(center)) + radius > g.extent:
        raise ValueError("ball exceeds the chart")
    p = critical_exponent(n)

    dirs, angw = unit_sphere_rule(n, _POLAR_ORDER, _AZIMUTH_ORDER)
    ball, w = ball_rule(n, radius, _PANELS, _RADIAL_ORDER, (dirs, angw),
                        center)
    m = len(ball)
    # v and its partials are read at the interior nodes and on the boundary
    # sphere in one batch; the partials are fresh, so they are filtered in
    # place
    pts = np.concatenate([ball, center[None, :] + radius * dirs])
    vv, *gv = _chart_read(g, [(v.values, pts, False)]
                          + [(d, pts, True) for d in g.grad(v.values)])
    gv = np.stack(gv, axis=-1)

    # interior: radial-angular quadrature with lap v from the equation
    vi, gi = vv[:m], gv[:m]
    mult = np.einsum("Mi,Mi->M", ball - center[None, :], gi) \
        + 0.5 * (n - 2.0) * vi
    hb, fb, ab = _chart_read(g, [(C.h.values, ball, False),
                                 (C.f.values, ball, False),
                                 (C.quadratic(), ball, True)])
    K1 = float(np.sum(w * mult * (-hb * vi)))
    K2 = float(np.sum(w * mult * fb * vi ** (p - 1.0)))
    K3 = float(np.sum(w * mult * ab * vi ** (-p - 1.0)))
    interior = K1 + K2 + K3

    # boundary flux terms
    vb, gb = vv[m:], gv[m:]
    dnu = np.einsum("Mi,Mi->M", dirs, gb)
    grad2 = np.einsum("Mi,Mi->M", gb, gb)
    integrand = (0.5 * radius * grad2 - 0.5 * (n - 2.0) * vb * dnu
                 - radius * dnu ** 2)
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
