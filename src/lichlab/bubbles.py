"""Blow-up profiles and the far-field one-form machinery.

The concentration model is the rescaled profile

    B(x) = mu^{(n-2)/2} (mu^2 + f0/(n(n-2)) |x|^2)^{1-n/2},

centered at the origin, which solves lap_xi B = f0 B^{2*-1} on R^n.
Around such a profile, the momentum response to a one-form coefficient X
is captured by convolution one-forms whose conformal Killing derivatives
admit explicit far-field expansions; both the direct quadrature
(``quad_LV`` / ``quad_LP``) and the closed-form leading terms
(``asympt_LV`` / ``asympt_LP``) are provided so that each can serve as
the other's oracle.  The quadrature integrates
``green.stress_contraction``, the Lame kernel's Killing-derivative stress,
over ``quadrature.singular_shells``: a polar patch about the evaluation
point and bubble-centered shells, the same partition of unity as the
representation probe in ``green``.  The rule sizes, truncation radius and
tail tolerance are module constants; a point z whose analytic tail past
the truncation radius exceeds the tolerance raises QuadratureBudgetError.

Constants (omega_d = area of the d-sphere in R^{d+1}):

    C1 = n^{(n+2)/2} (n-2)^{n/2} omega_n / (2^{n+1} (n-1) omega_{n-1})
    C2 = -n^{(n+4)/2} (n-2)^{n/2} omega_n / (2^{n+1} (n-1) omega_{n-1})
    bubble_energy = 2^{-n} (n(n-2))^{n/2} omega_n       (integral of B^{2*})
    stability_coef = (n-2)(n-4) / (8(n-1))

C2 and the second-order angular bracket are fixed against the quadrature
oracle (moment expansion of the convolution kernel); see the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, beta as beta_fn

from .green import _kappa, stress_contraction
from .quadrature import singular_shells, sphere_area, unit_sphere_rule

__all__ = [
    "BubbleParams",
    "DirectionData",
    "QuadratureBudgetError",
    "bubble",
    "bubble_laplacian",
    "theta",
    "blowup_constants",
    "quad_LV",
    "quad_LP",
    "asympt_LV",
    "asympt_LP",
]


class QuadratureBudgetError(RuntimeError):
    """Analytic tail bound past the truncation radius exceeds the tolerance."""


@dataclass(frozen=True)
class BubbleParams:
    n: int
    mu: float
    f_center: float

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        if self.f_center <= 0.0:
            raise ValueError("f_center must be positive")

    @property
    def curvature_scale(self):
        """f0 / (n (n-2)), the coefficient of |x|^2 in the profile."""
        return self.f_center / (self.n * (self.n - 2.0))


@dataclass(frozen=True)
class DirectionData:
    """Leading coefficient data of the momentum one-form at the center."""

    eps: float                      # |X(0)|
    beta_k: np.ndarray              # |d_k X(0)| per axis
    zeta0: np.ndarray               # unit direction of X(0)
    zeta_k: np.ndarray              # unit directions of d_k X(0), rows k

    def __post_init__(self):
        object.__setattr__(self, "beta_k", np.asarray(self.beta_k, dtype=float))
        object.__setattr__(self, "zeta0", np.asarray(self.zeta0, dtype=float))
        object.__setattr__(self, "zeta_k", np.asarray(self.zeta_k, dtype=float))
        for v in [self.zeta0] + list(self.zeta_k):
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ValueError("direction vectors must be unit")


def bubble(p: BubbleParams, x):
    """Profile value at point(s) x; x has shape (..., n)."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x ** 2, axis=-1)
    return p.mu ** ((p.n - 2.0) / 2.0) * (
        p.mu ** 2 + p.curvature_scale * r2) ** (1.0 - p.n / 2.0)


def bubble_laplacian(p: BubbleParams, x):
    """Closed-form lap_xi of the profile (exact second derivatives)."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x ** 2, axis=-1)
    base = p.mu ** 2 + p.curvature_scale * r2
    return (p.mu ** ((p.n - 2.0) / 2.0) * p.n * (p.n - 2.0)
            * p.curvature_scale * p.mu ** 2 * base ** (-p.n / 2.0 - 1.0))


def theta(mu, z):
    """Concentration weight (mu^2 + |z|^2)^{1/2}."""
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    z = np.asarray(z, dtype=float)
    return np.sqrt(mu ** 2 + np.sum(z ** 2, axis=-1))


@dataclass(frozen=True)
class Constants:
    C1: float
    C2: float
    bubble_energy: float            # integral of B^{2*}, f0 = n(n-2) scale
    stability_coef: float


def blowup_constants(n):
    """Dimension constants of the far-field expansions and stability bound.

    From n = 142 on they overflow a double (ValueError).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    try:
        om_n = sphere_area(n)
        denom = 2.0 ** (n + 1) * (n - 1.0) * sphere_area(n - 1)
        c1 = n ** ((n + 2.0) / 2.0) * (n - 2.0) ** (n / 2.0) * om_n / denom
        c2 = -(n ** ((n + 4.0) / 2.0)) * (n - 2.0) ** (n / 2.0) * om_n / denom
        kn = 2.0 ** (-n) * (n * (n - 2.0)) ** (n / 2.0) * om_n
    except OverflowError:           # a power or gamma past the largest double
        c1 = c2 = kn = np.inf
    if not np.all(np.isfinite([c1, c2, kn])):
        raise ValueError(f"the dimension constants overflow a double at "
                         f"n = {n}")
    cn = (n - 2.0) * (n - 4.0) / (8.0 * (n - 1.0))
    return Constants(C1=c1, C2=c2, bubble_energy=kn, stability_coef=cn)


# ---------------------------------------------------------------------------
# far-field brackets (shared by the asymptotic formulas and their tests)
# ---------------------------------------------------------------------------

def _bracket_first_order(n, zeta, zhat):
    d = np.eye(n)
    zd = float(zeta @ zhat)
    return (d * zd - np.outer(zeta, zhat) - np.outer(zhat, zeta)
            - (n - 2.0) * zd * np.outer(zhat, zhat))


def _bracket_second_order(n, zeta_k, zhat, k):
    d = np.eye(n)
    zd = float(zeta_k @ zhat)
    col = n * zhat * zhat[k] - d[k]
    return (np.outer(zeta_k, col) + np.outer(col, zeta_k)
            + zd * (-n * d * zhat[k]
                    - (n - 2.0) * np.outer(d[k], zhat)
                    - (n - 2.0) * np.outer(zhat, d[k])
                    + (n + 2.0) * (n - 2.0) * np.outer(zhat, zhat) * zhat[k])
            + zeta_k[k] * (d - (n - 2.0) * np.outer(zhat, zhat)))


def _far_field(p: BubbleParams, z):
    """(|z|, z / |z|, blowup_constants) of a far-field point z != 0."""
    z = np.asarray(z, dtype=float)
    r = np.linalg.norm(z)
    if r == 0.0:
        raise ValueError("z must be nonzero")
    return r, z / r, blowup_constants(p.n)


def asympt_LV(d: DirectionData, p: BubbleParams, z):
    """Leading far-field Killing derivative of the first-order form."""
    r, zhat, c = _far_field(p, z)
    return (d.eps * c.C1 * p.f_center ** (-p.n / 2.0) * r ** (1.0 - p.n)
            * _bracket_first_order(p.n, d.zeta0, zhat))


def asympt_LP(d: DirectionData, p: BubbleParams, z, k):
    """Second-order far-field term for the k-th moment one-form."""
    r, zhat, c = _far_field(p, z)
    return (d.beta_k[k] * c.C2 * p.f_center ** (-(p.n + 2.0) / 2.0)
            * p.mu ** 2 * r ** (-p.n)
            * _bracket_second_order(p.n, d.zeta_k[k], zhat, k))


# ---------------------------------------------------------------------------
# direct quadrature of the convolution one-forms
# ---------------------------------------------------------------------------

# quadrature sizes: Gauss order of every radial panel, the bulk and patch
# sphere rules (polar x azimuth orders), the truncation radius in units of
# mu, and the largest analytic tail bound accepted past it
_RADIAL_ORDER = 20
_BULK_SPHERE = (48, 96)
_PATCH_SPHERE = (32, 64)
_TRUNC_FACTOR = 1.0e3
_TAIL_TOL = 1.0e-6


def _profile_power(p, pts):
    """B^{2*}(pts) for pts of shape (M, n)."""
    r2 = np.sum(pts ** 2, axis=-1)
    return p.mu ** p.n * (p.mu ** 2 + p.curvature_scale * r2) ** (-p.n)


def _tail_mass(p, radius, moment=0):
    """Integral of |y|^moment B^{2*} over |y| > radius, closed form."""
    n = p.n
    c = p.curvature_scale
    S = np.sqrt(c) * radius / p.mu
    x = S * S / (1.0 + S * S)
    a, b = (n + moment) / 2.0, (n - moment) / 2.0
    total = 0.5 * beta_fn(a, b)
    frac = 1.0 - betainc(a, b, x)
    return (p.mu ** moment * c ** (-(n + moment) / 2.0)
            * sphere_area(n - 1) * total * frac)


def _moment_quadrature(p, z, vec, moment_axis=None):
    """Quadrature of  int m(y) B^{2*}(y) H(z - y) vec dy  with a
    partition-of-unity patch around the kernel singularity; m = 1 or y_k."""
    n = p.n
    z = np.asarray(z, dtype=float)
    vec = np.asarray(vec, dtype=float)
    dist = np.linalg.norm(z)
    if dist == 0.0:
        raise ValueError("z must differ from the bubble center")
    rho = 0.5 * dist
    trunc = max(_TRUNC_FACTOR * p.mu, 5.0 * dist)

    # analytic far-field tail bound, checked before any quadrature
    c_h = 2.0 * n * _kappa(n) * n * (n + 2.0)
    moment = 0 if moment_axis is None else 1
    tail = c_h * (trunc - dist) ** (1.0 - n) * _tail_mass(p, trunc, moment)
    if tail > _TAIL_TOL:
        raise QuadratureBudgetError(
            f"tail bound {tail:.3e} exceeds tolerance {_TAIL_TOL:.1e}")

    # bulk: bubble-centered radial panels out to the truncation radius
    edges = [0.0, 0.5 * p.mu]
    while edges[-1] < trunc:
        edges.append(min(2.0 * edges[-1], trunc))
    extra = [dist - rho, dist, dist + rho]
    edges = np.unique(np.concatenate([edges, [e for e in extra if e < trunc]]))

    # the patch about z has geometric panels toward the singularity
    total = np.zeros((n, n))
    for y, wt in singular_shells(
            z, rho, _RADIAL_ORDER,
            np.concatenate([[0.0], np.geomspace(1e-3 * rho, 1.5 * rho, 12)]),
            unit_sphere_rule(n, *_PATCH_SPHERE),
            np.zeros(n), edges, unit_sphere_rule(n, *_BULK_SPHERE)):
        fac = wt * _profile_power(p, y)
        if moment_axis is not None:
            fac = fac * y[:, moment_axis]
        total += stress_contraction(z - y, vec, weights=fac)
    return total


def quad_LV(X0, p: BubbleParams, z):
    """Killing derivative at z of the first-order convolution one-form.

    X0 is the (unnormalized) one-form coefficient at the center; the result
    is an (n, n) matrix, linear in X0 at every amplitude (zero for X0 = 0).
    """
    return _moment_quadrature(p, z, X0)


def quad_LP(dX0_k, p: BubbleParams, z, k):
    """Killing derivative at z of the k-th first-moment convolution one-form.

    dX0_k is the (unnormalized) k-th directional derivative of the one-form
    coefficient at the center; the result is an (n, n) matrix, linear in
    dX0_k at every amplitude (zero for dX0_k = 0).
    """
    return _moment_quadrature(p, z, dX0_k, moment_axis=k)
