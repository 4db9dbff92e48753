"""Explicit blow-up families on the round sphere.

For lam > 1 the radial profile

    phi(x) = (lam^2 - 1)^{(n-2)/4} (lam - cos r)^{(2-n)/2},  r = distance,

is the sphere bubble: smooth, positive, with sup -> infinity as lam -> 1,
and it satisfies the Yamabe-type identity

    lap phi + (n(n-2)/4) phi = (n(n-2)/4) phi^{2*-1}

globally.  (The cosine enters the distance dependence; the verification
below pins this convention numerically, see ``sphere_yamabe_residual``.)

On S^3 the construction couples phi to a radial one-form: Z solves

    Z'' + 2 cot(r) Z' + (1 - 2 cot^2 r) Z = -(3/4) phi^6,
    Z(pi/2) = 1, Z'(pi/2) = 0,

and with the smooth plateau cutoff eta, supported on [1.2, pi - 1.2] and
equal to 1 on [1.45, pi - 1.45] (module constants), the one-form
W = eta Z d/dr satisfies  lame(W) = phi^6 X + Y  with X = eta d/dr and

    Y = -(4/3) (2 eta' Z' + eta'' Z + 2 cot(r) eta' Z) d/dr .

Setting U = -L W makes (phi, W) an exact solution of the coupled system
with h = f = 3/4, b = 0, gamma = 1 (``assemble`` returns these data as a
``SystemCoefficients``) and (U, Y) bounded uniformly as lam -> 1 while sup
phi blows up; ``verify`` measures it with the solver's own residuals.

The homogeneous radial equation has the closed solutions sin(r) and
cos(r) + cos^3(r)/(3 sin^2 r); they power the variation-of-parameters
oracle used by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import SystemCoefficients, critical_exponent
from .geometry import (
    OneFormField,
    ScalarField,
    SphereRadial,
    SymTensorField,
    conformal_killing_deriv,
    lame,
    laplace_beltrami,
)
from .solver import _momentum_rhs, scalar_residual_field

__all__ = [
    "InstabilityAssembly",
    "InstabilityReport",
    "phi_bubble_sphere",
    "sphere_yamabe_residual",
    "solve_Z",
    "assemble",
    "verify",
]


def phi_bubble_sphere(n, lam, r_dist):
    """Sphere bubble at geodesic distance r_dist from the concentration pole;
    ValueError unless 1 < lam < inf."""
    if not 1.0 < lam < np.inf:
        raise ValueError(f"lam must be finite and exceed 1, got {lam}")
    r_dist = np.asarray(r_dist, dtype=float)
    return ((lam ** 2 - 1.0) ** ((n - 2.0) / 4.0)
            * (lam - np.cos(r_dist)) ** ((2.0 - n) / 2.0))


def sphere_yamabe_residual(n, lam):
    """Relative FD residual of the Yamabe identity for the sphere bubble.

    Computed on the radial grid of SphereRadial(4096) with the round-S^n
    radial Laplacian -f'' - (n-1) cot(r) f'; pins the cosine distance
    convention (the alternative r-convention leaves an O(1) residual).
    """
    g = SphereRadial(4096)
    phi = phi_bubble_sphere(n, lam, g.r)
    lap = -(g.d2 @ phi) - (n - 1.0) * g.cot_r * (g.d1 @ phi)
    coef = n * (n - 2.0) / 4.0
    p = critical_exponent(n)
    res = lap + coef * phi - coef * phi ** (p - 1.0)
    return float(np.max(np.abs(res)) / np.max(coef * phi ** (p - 1.0)))


def solve_Z(lam, grid):
    """Integrate the sourced radial equation outward from the equator.

    Returns (Z, Z') sampled on the grid; the integration runs separately
    toward each pole with DOP853 (rtol 1e-12, atol 1e-13) and dense output.
    """
    from scipy.integrate import solve_ivp    # imported here: it is slow to load

    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0) or np.any(grid >= np.pi):
        raise ValueError("grid must lie strictly inside (0, pi)")

    def rhs(r, y):
        z, zp = y
        cot = 1.0 / np.tan(r)
        phi6 = phi_bubble_sphere(3, lam, r) ** 6
        return [zp, -2.0 * cot * zp - (1.0 - 2.0 * cot ** 2) * z - 0.75 * phi6]

    mid = 0.5 * np.pi
    y0 = [1.0, 0.0]
    Z = np.empty_like(grid)
    Zp = np.empty_like(grid)
    left = grid <= mid
    for mask, end in ((left, grid.min()), (~left, grid.max())):
        if not np.any(mask):
            continue
        sol = solve_ivp(rhs, (mid, end), y0, method="DOP853",
                        dense_output=True, rtol=1e-12, atol=1e-13)
        if not sol.success:
            raise RuntimeError(f"radial integration failed: {sol.message}")
        vals = sol.sol(grid[mask])
        Z[mask] = vals[0]
        Zp[mask] = vals[1]
    return Z, Zp


# ---------------------------------------------------------------------------
# smooth cutoff from the exponential mollifier
# ---------------------------------------------------------------------------

def _moll(t):
    """exp(-1/t) for t > 0, else 0, and its first two derivatives."""
    t = np.asarray(t, dtype=float)
    out = np.zeros((3,) + t.shape)
    m = t > 0.0
    tm, e = t[m], np.exp(-1.0 / t[m])
    out[:, m] = e, e / tm ** 2, e * (1.0 / tm ** 4 - 2.0 / tm ** 3)
    return out


def _smooth_step(t):
    """C^inf step S with S = 0 for t <= 0, 1 for t >= 1, and S', S''."""
    a, ap, app = _moll(t)
    b, bp, bpp = _moll(1.0 - np.asarray(t, dtype=float))    # b' = -bp
    q = a + b
    qp = ap - bp
    qpp = app + bpp
    S = a / q
    Sp = (ap * q - a * qp) / q ** 2
    Spp = (app * q - a * qpp) / q ** 2 - 2.0 * qp * Sp / q
    return S, Sp, Spp


# the plateau cutoff eta vanishes on [0, delta] and [pi - delta, pi], rises
# over [delta, delta + rise] and falls over [pi - delta - fall, pi - delta].
# Its support hugs the equator, where the sourced radial profile is pinned
# by its initial conditions; the assembled data (U, Y) then vary by about
# one percent along the whole blow-up family.
_ETA_DELTA, _ETA_RISE, _ETA_FALL = 1.2, 0.25, 0.25


def _cutoff(r):
    """eta, eta', eta'' at radial points r (analytic derivatives)."""
    s1, s1p, s1pp = _smooth_step((r - _ETA_DELTA) / _ETA_RISE)
    s2, s2p, s2pp = _smooth_step((np.pi - _ETA_DELTA - r) / _ETA_FALL)
    eta = s1 * s2
    etap = s1p / _ETA_RISE * s2 - s1 * s2p / _ETA_FALL
    etapp = (s1pp / _ETA_RISE ** 2 * s2
             - 2.0 * s1p * s2p / (_ETA_RISE * _ETA_FALL)
             + s1 * s2pp / _ETA_FALL ** 2)
    return eta, etap, etapp


@dataclass
class InstabilityAssembly:
    lam: float
    phi: ScalarField
    W: OneFormField
    C: SystemCoefficients

    @property
    def geometry(self):
        return self.C.geometry


@dataclass
class InstabilityReport:
    lam: float
    scalar_residual: float
    vector_residual: float
    sup_phi: float
    sup_phi_closed_form: float
    norm_U: float
    norm_Y: float
    cancellation: float
    stability_margin: float


def assemble(lam, geometry: SphereRadial = None):
    """Build the S^3 blow-up family member at the given lam, 1 < lam < inf;
    ``phi_bubble_sphere`` rejects any other lam before ``solve_Z`` runs."""
    g = geometry or SphereRadial(4096)
    r = g.r
    eta, etap, etapp = _cutoff(r)
    phi = ScalarField(g, phi_bubble_sphere(3, lam, r))
    Z, Zp = solve_Z(lam, r)
    W = OneFormField(g, eta * Z)
    yamabe = ScalarField.constant(g, 0.75)       # n(n-2)/4 at n = 3
    C = SystemCoefficients(
        h=yamabe, f=yamabe, b=ScalarField.constant(g, 0.0),
        U=SymTensorField(g, -conformal_killing_deriv(W).values),
        X=OneFormField(g, eta),
        Y=OneFormField(g, -(4.0 / 3.0) * (2.0 * etap * Zp + etapp * Z
                                          + 2.0 * g.cot_r * etap * Z)),
        gamma=1.0)
    return InstabilityAssembly(lam=lam, phi=phi, W=W, C=C)


def verify(assembly: InstabilityAssembly):
    """Residuals of the coupled system for an assembled family member.

    The solver's ``scalar_residual_field`` relative to max f phi^{2*-1}
    (a(W) vanishes, U = -L W), and lame(W) minus its ``_momentum_rhs``
    relative to that right-hand side (the sphere has no kernel to project).
    The supremum of phi is measured on a dense closed-form sample of [0, pi]
    (the grid excludes the poles where the maximum sits).  The stability
    margin is the largest |margin| of diagnostics.stability_condition over
    the nodes, every one a critical point of the constant f: h = 3/4 is
    exactly the conformal Laplacian's potential R/8, where the strict
    bound fails.
    """
    from .diagnostics import stability_condition

    g = assembly.geometry
    phi, W, C, lam = assembly.phi, assembly.W, assembly.C, assembly.lam
    p = critical_exponent(g.dimension)

    cancellation = float(np.max(np.abs(C.quadratic(W))))

    rhs_scale = C.f.values * phi.values ** (p - 1.0)
    scalar_residual = float(np.max(np.abs(scalar_residual_field(phi, W, C)))
                            / np.max(rhs_scale))

    vec_rhs = _momentum_rhs(phi, C)
    vec_scale = max(np.max(np.abs(vec_rhs)), 1e-300)
    vector_residual = float(np.max(np.abs(lame(W).values - vec_rhs))
                            / vec_scale)

    dense = np.linspace(0.0, np.pi, 8 * g.resolution + 1)
    sup_phi = float(np.max(phi_bubble_sphere(3, lam, dense)))
    closed = (lam + 1.0) ** 0.25 * (lam - 1.0) ** -0.25

    return InstabilityReport(
        lam=lam,
        scalar_residual=scalar_residual,
        vector_residual=vector_residual,
        sup_phi=sup_phi,
        sup_phi_closed_form=closed,
        norm_U=float(np.max(np.abs(C.U.values))),
        norm_Y=float(np.max(np.abs(C.Y.values))),
        cancellation=cancellation,
        stability_margin=float(np.max(np.abs(stability_condition(
            C.h.values, C.f.values, laplace_beltrami(C.f).values,
            g.scalar_curvature(), g.dimension)))),
    )
