"""Euclidean Lame fundamental solution and the conformal Killing space.

The fundamental solution of the Lame operator lame = -div(L .) on R^n is
the Kelvin-type matrix

    G_i(y)_j = kappa |y|^{2-n} [ (3n-2)/(n-2) d_ij + (n-2) y^_i y^_j ],
    kappa    = 1 / (4 (n-1) omega_{n-1}),

normalized so that lame G(x - .) = delta_x Id distributionally: for any
smooth compactly supported one-form X,

    X_i(x) = int G_i(x-y)_j lame(X)(y)^j dy .

``representation_residual`` probes this identity by quadrature.  The
columns of G are annihilated pointwise by the Lame operator away from the
singularity and the matrix is symmetric and homogeneous of degree 2-n.

On a ball, the kernel of the conformal Killing derivative has dimension
(n+1)(n+2)/2, spanned by translations, rotations, the dilation and the
special conformal generators |x|^2 e_i - 2 x_i x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import gauss_panels, smoothstep, sphere_area, unit_sphere_rule

__all__ = [
    "fundamental",
    "stress_kernel",
    "lame_of_columns",
    "KillingBasis",
    "killing_basis",
    "project_killing",
    "representation_residual",
]


def _kappa(n):
    return 1.0 / (4.0 * (n - 1.0) * sphere_area(n - 1))


def fundamental(y, n):
    """Kelvin matrix G(y), shape (..., n, n); raises at y = 0."""
    y = np.asarray(y, dtype=float)
    r = np.linalg.norm(y, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("fundamental solution is singular at y = 0")
    yh = y / r[..., None]
    d = np.eye(n)
    A = (3.0 * n - 2.0) / (n - 2.0)
    out = A * d + (n - 2.0) * yh[..., :, None] * yh[..., None, :]
    return _kappa(n) * r[..., None, None] ** (2.0 - n) * out


def stress_kernel(x, y, n):
    """Killing-derivative stress H_{ij,p}(x, y) of the fundamental matrix.

    H_{ij,p} = d_i G_j(x-y)_p + d_j G_i(x-y)_p - (2/n) d_ij sum_k d_k G_k(x-y)_p,
    closed form; traceless in (i, j); derivatives with respect to x.
    """
    w = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.linalg.norm(w, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("stress kernel is singular at x = y")
    wh = w / r[..., None]
    d = np.eye(n)
    T = (d[..., :, :, None] * wh[..., None, None, :]
         - wh[..., :, None, None] * d[..., None, :, :]
         - wh[..., None, :, None] * np.swapaxes(d[..., None, :, :], -3, -2)
         - (n - 2.0) * wh[..., :, None, None] * wh[..., None, :, None]
         * wh[..., None, None, :])
    return 2.0 * n * _kappa(n) * r[..., None, None, None] ** (1.0 - n) * T


def lame_of_columns(y, n, step=None):
    """Pointwise Lame operator applied to each column of G, by central FD.

    Returns an (n, n) matrix whose columns are lame(G e_j)(y); vanishes
    away from the singularity.  Used as the kernel-correctness probe.
    """
    y = np.asarray(y, dtype=float)
    h = step or 1e-3 * max(np.linalg.norm(y), 1.0)
    beta = 1.0 - 2.0 / n
    out = np.zeros((n, n))
    # second partials by 5-point central differences
    for j in range(n):
        def col(pt):
            return fundamental(pt, n)[:, j]

        lap = np.zeros(n)
        for a in range(n):
            e = np.zeros(n)
            e[a] = h
            lap += (-col(y + 2 * e) + 16 * col(y + e) - 30 * col(y)
                    + 16 * col(y - e) - col(y - 2 * e)) / (12 * h * h)

        def div_at(pt):
            total = 0.0
            for a in range(n):
                e = np.zeros(n)
                e[a] = h
                total += (-col(pt + 2 * e)[a] + 8 * col(pt + e)[a]
                          - 8 * col(pt - e)[a] + col(pt - 2 * e)[a]) / (12 * h)
            return total

        grad_div = np.zeros(n)
        for a in range(n):
            e = np.zeros(n)
            e[a] = h
            grad_div[a] = (-div_at(y + 2 * e) + 8 * div_at(y + e)
                           - 8 * div_at(y - e) + div_at(y - 2 * e)) / (12 * h)
        out[:, j] = -lap - beta * grad_div
    return out


# ---------------------------------------------------------------------------
# conformal Killing basis on the ball
# ---------------------------------------------------------------------------

def _eval_generators(n, pts):
    """All (n+1)(n+2)/2 conformal Killing generators at pts (M, n).

    Order: n translations, n(n-1)/2 rotations, dilation, n special
    conformal generators |x|^2 e_i - 2 x_i x.  Returns (m, M, n).
    """
    M = pts.shape[0]
    out = []
    for i in range(n):
        v = np.zeros((M, n))
        v[:, i] = 1.0
        out.append(v)
    for a in range(n):
        for b in range(a + 1, n):
            v = np.zeros((M, n))
            v[:, a] = pts[:, b]
            v[:, b] = -pts[:, a]
            out.append(v)
    out.append(pts.copy())
    r2 = np.sum(pts ** 2, axis=-1)
    for i in range(n):
        v = -2.0 * pts[:, i][:, None] * pts
        v[:, i] += r2
        out.append(v)
    return np.stack(out)


@dataclass
class BallQuadrature:
    n: int
    radius: float
    radial_order: int = 24
    polar_order: int = 24
    azimuth_order: int = 48
    panels: int = 4

    def __post_init__(self):
        dirs, angw = unit_sphere_rule(self.n, self.polar_order,
                                      self.azimuth_order)
        edges = np.linspace(0.0, self.radius, self.panels + 1)
        rn, rw = gauss_panels(edges, self.radial_order)
        pts = rn[:, None, None] * dirs[None, :, :]
        wts = (rw * rn ** (self.n - 1))[:, None] * angw[None, :]
        self.points = pts.reshape(-1, self.n)
        self.weights = wts.ravel()

    @property
    def node_count(self):
        return self.points.shape[0]


@dataclass
class KillingBasis:
    """L^2-orthonormal basis of the conformal Killing space on a ball."""

    n: int
    radius: float
    coeffs: np.ndarray = field(repr=False)     # (m, m) over the generators
    quad: BallQuadrature = field(repr=False, default=None)

    def __len__(self):
        return self.coeffs.shape[0]

    def evaluate(self, pts):
        """Basis elements at pts (M, n); returns (m, M, n)."""
        gens = _eval_generators(self.n, np.asarray(pts, dtype=float))
        return np.einsum("ab,bMi->aMi", self.coeffs, gens)

    def killing_deriv(self, pts, step=1e-4):
        """L_xi of each element at pts by 4th-order central differences.

        The generators are quadratic polynomials, so the differences are
        exact to roundoff; values near zero certify the Killing property.
        """
        pts = np.asarray(pts, dtype=float)
        n = self.n
        m = len(self)
        M = pts.shape[0]
        dW = np.zeros((m, M, n, n))      # dW[., ., a, j] = d_a W_j
        for a in range(n):
            e = np.zeros(n)
            e[a] = step
            vp2 = self.evaluate(pts + 2 * e)
            vp1 = self.evaluate(pts + e)
            vm1 = self.evaluate(pts - e)
            vm2 = self.evaluate(pts - 2 * e)
            dW[:, :, a, :] = (-vp2 + 8 * vp1 - 8 * vm1 + vm2) / (12 * step)
        div = np.einsum("qMaa->qM", dW)
        L = dW + np.swapaxes(dW, -2, -1)
        for i in range(n):
            L[:, :, i, i] -= (2.0 / n) * div
        return L


def killing_basis(n, radius, quad: BallQuadrature = None):
    """Orthonormalized conformal Killing basis on the ball of given radius."""
    if n < 3 or radius <= 0.0:
        raise ValueError("need n >= 3 and a positive radius")
    quad = quad or BallQuadrature(n, radius)
    gens = _eval_generators(n, quad.points)           # (m, M, n)
    gram = np.einsum("aMi,bMi,M->ab", gens, gens, quad.weights)
    # inverse Cholesky transform orthonormalizes in the quadrature metric
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("quadrature degeneracy: Gram matrix not SPD") from exc
    coeffs = np.linalg.inv(chol.T).T                  # rows: basis over gens
    return KillingBasis(n=n, radius=radius, coeffs=coeffs, quad=quad)


def project_killing(X_samples, basis: KillingBasis):
    """L^2 projection of a sampled one-form onto the Killing basis.

    X_samples has shape (M, n) on the basis quadrature nodes; returns the
    projected samples on the same nodes.
    """
    X = np.asarray(X_samples, dtype=float)
    quad = basis.quad
    if X.shape != (quad.node_count, basis.n):
        raise ValueError(
            f"samples shape {X.shape} does not match the basis quadrature "
            f"grid ({quad.node_count}, {basis.n})")
    vals = basis.evaluate(quad.points)                # (m, M, n)
    coef = np.einsum("qMi,Mi,M->q", vals, X, quad.weights)
    return np.einsum("q,qMi->Mi", coef, vals)


# ---------------------------------------------------------------------------
# representation formula probe
# ---------------------------------------------------------------------------

def _lame_fd(X, pts, h, n):
    """lame(X) at pts via 4th-order central differences of the callable X."""
    pts = np.asarray(pts, dtype=float)
    beta = 1.0 - 2.0 / n

    def d2(axis_a, axis_b):
        ea = np.zeros(n)
        ea[axis_a] = h
        if axis_a == axis_b:
            return (-X(pts + 2 * ea) + 16 * X(pts + ea) - 30 * X(pts)
                    + 16 * X(pts - ea) - X(pts - 2 * ea)) / (12 * h * h)
        eb = np.zeros(n)
        eb[axis_b] = h

        def d1(q):
            return (-X(q + 2 * ea) + 8 * X(q + ea)
                    - 8 * X(q - ea) + X(q - 2 * ea)) / (12 * h)

        return (-d1(pts + 2 * eb) + 8 * d1(pts + eb)
                - 8 * d1(pts - eb) + d1(pts - 2 * eb)) / (12 * h)

    lap = sum(d2(a, a) for a in range(n))              # (M, n)
    grad_div = np.empty_like(lap)
    for i in range(n):
        grad_div[:, i] = sum(d2(i, a)[:, a] for a in range(n))
    return -lap - beta * grad_div


def representation_residual(X, x, n, radius=1.0, level=0, lame_apply=None):
    """Defect of the fundamental-solution representation at the point x.

    X is a vectorized callable mapping (M, n) points to (M, n) one-form
    values, smooth and supported strictly inside the ball (so the boundary
    terms of the representation formula drop).  Returns

        max_i | X_i(x) - int G_i(x-y)_j lame(X)(y)^j dy |

    with lame(X) from 4th-order finite differences (or ``lame_apply`` when
    supplied) and a singularity-patched quadrature.  ``level`` refines the
    pipeline: the FD step shrinks by 2^{1/4} per level (so the leading
    O(h^4) error halves) and the quadrature orders grow alongside.
    """
    x = np.asarray(x, dtype=float)
    h = 0.02 * radius * 2.0 ** (-level / 4.0)
    npolar = 24 + 8 * level
    nazim = 2 * npolar
    nrad = 20 + 4 * level

    def lame_X(pts):
        if lame_apply is not None:
            return lame_apply(pts)
        return _lame_fd(X, pts, h, n)

    rho = 0.25 * radius
    total = np.zeros(n)

    # patch around the kernel singularity at x (polar measure cancels it)
    dirs, angw = unit_sphere_rule(n, npolar, nazim)
    redges = np.linspace(0.0, 1.5 * rho, 7)
    rn, rw = gauss_panels(redges, nrad)
    for r, wr in zip(rn, rw):
        chi = 1.0 - smoothstep((r / rho - 1.0) / 0.5)
        if chi == 0.0:
            continue
        y = x[None, :] - r * dirs
        G = fundamental(r * dirs, n)                   # G(x - y)
        F = lame_X(y)
        total += wr * r ** (n - 1.0) * np.einsum(
            "M,Mij,Mj->i", angw * chi, G, F)

    # bulk of the ball with the complementary weight
    dirs, angw = unit_sphere_rule(n, npolar, nazim)
    redges = np.linspace(0.0, radius, 7)
    rn, rw = gauss_panels(redges, nrad)
    for r, wr in zip(rn, rw):
        y = r * dirs
        w = x[None, :] - y
        dw = np.linalg.norm(w, axis=-1)
        comp = smoothstep((dw / rho - 1.0) / 0.5)
        mask = comp > 0.0
        if not np.any(mask):
            continue
        G = fundamental(w[mask], n)
        F = lame_X(y[mask])
        total += wr * r ** (n - 1.0) * np.einsum(
            "M,Mij,Mj->i", angw[mask] * comp[mask], G, F)

    return float(np.max(np.abs(np.asarray(X(x[None, :])[0]) - total)))
