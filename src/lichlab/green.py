"""Euclidean Lame fundamental solution and the conformal Killing space.

The fundamental solution of the Lame operator lame = -div(L .) on R^n is
the Kelvin-type matrix

    G_i(y)_j = kappa |y|^{2-n} [ (3n-2)/(n-2) d_ij + (n-2) y^_i y^_j ],
    kappa    = 1 / (4 (n-1) omega_{n-1}),

normalized so that lame G(x - .) = delta_x Id distributionally: for any
smooth compactly supported one-form X,

    X_i(x) = int G_i(x-y)_j lame(X)(y)^j dy .

``representation_residual`` probes this identity by quadrature, on one
worker thread per usable core, so the X it is given must be safe to call
concurrently; its result does not depend on the number of workers.  The
columns of G are annihilated pointwise by the Lame operator away from the
singularity and the matrix is symmetric and homogeneous of degree 2-n.

On a ball, the kernel of the conformal Killing derivative has dimension
(n+1)(n+2)/2, spanned by translations, rotations, the dilation and the
special conformal generators |x|^2 e_i - 2 x_i x.  ``killing_basis``
orthonormalizes them in a (points, weights) ball rule from
``quadrature.ball_rule`` and keeps that rule for ``project_killing``.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .quadrature import (
    _usable_cores,
    ball_rule,
    singular_shells,
    sphere_area,
    unit_sphere_rule,
)

__all__ = [
    "fundamental",
    "fundamental_contraction",
    "stress_contraction",
    "stress_kernel",
    "lame_of_columns",
    "KillingBasis",
    "killing_basis",
    "project_killing",
    "representation_residual",
]


def _kappa(n):
    return 1.0 / (4.0 * (n - 1.0) * sphere_area(n - 1))


def _kelvin(n):
    """kappa and A = (3n-2)/(n-2) of G in dimension n >= 3."""
    if n < 3:
        raise ValueError("need n >= 3")
    return _kappa(n), (3.0 * n - 2.0) / (n - 2.0)


def _kelvin_frame(y, n):
    """The prologue every Kelvin kernel shares, at separations y of shape
    (..., n): (kappa, A, |y|, y / |y|), with the n >= 3 check of
    ``_kelvin``; raises at y = 0."""
    kappa, A = _kelvin(n)
    y = np.asarray(y, dtype=float)
    r = np.linalg.norm(y, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("the Kelvin kernel is singular at zero separation")
    return kappa, A, r, y / r[..., None]


def fundamental(y, n):
    """Kelvin matrix G(y), shape (..., n, n); raises for n < 3 and at y = 0."""
    kappa, A, r, yh = _kelvin_frame(y, n)
    out = A * np.eye(n) + (n - 2.0) * yh[..., :, None] * yh[..., None, :]
    return kappa * r[..., None, None] ** (2.0 - n) * out


def fundamental_contraction(w, vec, weights):
    """sum_M c_M G(w_M) vec_M, shape (n,), for w and vec of shape (M, n)
    and weights c of shape (M,); raises for n < 3 and at w = 0.

    With G from ``fundamental``, the sum is

        sum_M kappa |w_M|^{2-n} c_M [A vec_M + (n-2) w^_M (w^_M . vec_M)],

    A = (3n-2)/(n-2), built without the (M, n, n) matrices.
    """
    n = np.shape(w)[-1]
    kappa, A, r, wh = _kelvin_frame(w, n)
    c = kappa * r ** (2.0 - n) * weights
    return A * (c @ vec) + (n - 2.0) * ((c * np.sum(wh * vec, axis=1)) @ wh)


def stress_contraction(w, vec, weights):
    """sum_M c_M H_{ij,p}(w_M) vec^p, shape (n, n), for w = x - y of shape
    (M, n) and weights c of shape (M,); raises for n < 3 and at x = y.

    H is the Killing-derivative stress of the fundamental matrix,
    H_{ij,p} = d_i G_j(w)_p + d_j G_i(w)_p - (2/n) d_ij sum_k d_k G_k(w)_p
    with derivatives in x, traceless in (i, j); in closed form

        H_{ij,p} = 2 n kappa |w|^{1-n} [d_ij w^_p - w^_i d_jp - w^_j d_ip
                                        - (n-2) w^_i w^_j w^_p].

    The sum is built from the weighted sums of the bracket's terms, without
    the (M, n, n) stresses.  It is linear in vec.
    """
    n = np.shape(w)[-1]
    kappa, _, r, wh = _kelvin_frame(w, n)
    zd = wh @ vec
    c = 2.0 * n * kappa * r ** (1.0 - n) * weights
    c_w = c @ wh
    return (np.eye(n) * (c @ zd)
            - c_w[:, None] * vec
            - vec[:, None] * c_w
            - (n - 2.0) * np.einsum("M,Mi,Mj->ij", c * zd, wh, wh))


def stress_kernel(x, y, n):
    """Full stress H_{ij,p}(x, y) at one pair of points, shape (n, n, n):
    the contraction with each basis vector e_p, stacked on the last axis;
    raises for n < 3 and at x = y."""
    w = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return np.stack([stress_contraction(w[None], e, np.ones(1))
                     for e in np.eye(n)], axis=-1)


# 4th-order central differences on the offsets -2..2: first-derivative
# weights over 12 h, second-derivative weights over 12 h^2
_OFFSETS = (-2, -1, 0, 1, 2)
_D1 = (1.0, -8.0, 0.0, 8.0, -1.0)
_D2 = (-1.0, 16.0, -30.0, 16.0, -1.0)


def _lame_fd(X, pts, h, n):
    """lame(X) = -lap X - (1 - 2/n) grad div X at pts by central differences.

    X maps (M, n) points to (M, n, ...) values; trailing axes ride along.
    It is called once per distinct stencil point: the centre, four points
    on each axis and four on the diagonal e_a + e_b of each coordinate
    plane, so 1 + 4n + 2n(n-1) calls of M points each (25 at n = 3).
    Every second derivative is the 4th-order five-point difference along
    its step v (an axis or a diagonal, offsets -2..2 of step h v), which
    gives d_v^2 X; the mixed ones follow from the diagonal as

        d_a d_b X = (d_{e_a+e_b}^2 X - d_a^2 X - d_b^2 X) / 2 .

    Every call gets a coordinate-major (F-contiguous) float array, whatever
    the layout of pts, so a reduction over the coordinate axis, such as
    np.sum(p ** 2, axis=-1), runs over contiguous columns instead of
    length-n rows.  Elementwise code and such sums give the same values in
    either layout; a callable whose reduction order follows the layout
    (np.einsum, matmul) may differ at roundoff.
    """
    pts = np.asfortranarray(pts, dtype=float)
    e = h * np.eye(n)
    center = X(pts)

    def second(v):                                     # d_v^2 X
        return sum(w * (center if s == 0 else X(pts + s * v))
                   for s, w in zip(_OFFSETS, _D2)) / (12.0 * h * h)

    d2 = [[None] * n for _ in range(n)]                # d2[a][b] = d_a d_b X
    for a in range(n):
        d2[a][a] = second(e[a])
        for b in range(a):
            d2[a][b] = d2[b][a] = 0.5 * (second(e[a] + e[b])
                                         - d2[a][a] - d2[b][b])
    lap = sum(d2[a][a] for a in range(n))
    grad_div = np.stack([sum(d2[i][a][:, a] for a in range(n))
                         for i in range(n)], axis=1)
    return -lap - (1.0 - 2.0 / n) * grad_div


def lame_of_columns(y, n):
    """Pointwise Lame operator applied to each column of G, by central FD.

    Returns an (n, n) matrix whose columns are lame(G e_j)(y); vanishes
    away from the singularity.  Used as the kernel-correctness probe.
    """
    y = np.asarray(y, dtype=float)
    h = 1e-3 * max(np.linalg.norm(y), 1.0)
    return _lame_fd(lambda p: fundamental(p, n), y[None, :], h, n)[0]


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
class KillingBasis:
    """L^2-orthonormal basis of the conformal Killing space on a ball."""

    n: int
    radius: float
    coeffs: np.ndarray = field(repr=False)     # (m, m) over the generators
    points: np.ndarray = field(repr=False)     # (M, n) ball quadrature nodes
    weights: np.ndarray = field(repr=False)    # (M,) their weights

    def __len__(self):
        return self.coeffs.shape[0]

    def evaluate(self, pts):
        """Basis elements at pts (M, n); returns (m, M, n)."""
        gens = _eval_generators(self.n, np.asarray(pts, dtype=float))
        return np.einsum("ab,bMi->aMi", self.coeffs, gens)

    def killing_deriv(self, pts):
        """L_xi of each element at pts by 4th-order central differences.

        The generators are quadratic polynomials, so the differences are
        exact to roundoff; values near zero certify the Killing property.
        """
        pts = np.asarray(pts, dtype=float)
        n = self.n
        h = 1e-4
        e = h * np.eye(n)
        dW = np.stack([                  # dW[., ., a, j] = d_a W_j
            sum(w * self.evaluate(pts + s * e[a])
                for s, w in zip(_OFFSETS, _D1) if w) / (12.0 * h)
            for a in range(n)], axis=2)
        div = np.einsum("qMaa->qM", dW)
        L = dW + np.swapaxes(dW, -2, -1)
        for i in range(n):
            L[:, :, i, i] -= (2.0 / n) * div
        return L


def killing_basis(n, radius, rule=None):
    """Orthonormalized conformal Killing basis on the ball of given radius.

    rule is a (points (M, n), weights (M,)) quadrature of the ball, as from
    ``quadrature.ball_rule``; by default 4 radial panels of 24 Gauss points
    times the 24 x 48 sphere rule.
    """
    if n < 3 or not (np.isfinite(radius) and radius > 0.0):
        raise ValueError("need n >= 3 and a finite positive radius")
    if rule is None:
        rule = ball_rule(n, radius, 4, 24, unit_sphere_rule(n, 24, 48))
    points, weights = rule
    gens = _eval_generators(n, points)                # (m, M, n)
    gram = np.einsum("aMi,bMi,M->ab", gens, gens, weights)
    # inverse Cholesky transform orthonormalizes in the quadrature metric
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("quadrature degeneracy: Gram matrix not SPD") from exc
    coeffs = np.linalg.inv(chol.T).T                  # rows: basis over gens
    return KillingBasis(n=n, radius=radius, coeffs=coeffs, points=points,
                        weights=weights)


def project_killing(X_samples, basis: KillingBasis):
    """L^2 projection of a sampled one-form onto the Killing basis.

    X_samples has shape (M, n) on the basis quadrature nodes
    ``basis.points``; returns the projected samples on the same nodes.
    """
    X = np.asarray(X_samples, dtype=float)
    M = len(basis.weights)
    if X.shape != (M, basis.n):
        raise ValueError(
            f"samples shape {X.shape} does not match the basis quadrature "
            f"grid ({M}, {basis.n})")
    vals = basis.evaluate(basis.points)               # (m, M, n)
    coef = np.einsum("qMi,Mi,M->q", vals, X, basis.weights)
    return np.einsum("q,qMi->Mi", coef, vals)


# ---------------------------------------------------------------------------
# representation formula probe
# ---------------------------------------------------------------------------

# Nodes per batch of whole shells that one worker differentiates and
# contracts, sized on a 2-core host at level 2, whose shells hold 3200
# nodes.  The numpy calls of a batch release the GIL but the Python that
# issues them holds it, so small batches gain little: the level-2 probe
# took 0.85 s serially and on 2 workers with one-shell batches, 0.61 s
# with two-shell and 0.52 s with three-shell batches (this size).  Each
# running batch holds about 3 MB of stencil temporaries at this size.
_BATCH_NODES = 8192


def _shell_batches(shells):
    """Consecutive (points, weights) shells, grouped into lists of whole
    shells of at least _BATCH_NODES nodes each (the last may hold fewer)."""
    batch, nodes = [], 0
    for shell in shells:
        batch.append(shell)
        nodes += len(shell[1])
        if nodes >= _BATCH_NODES:
            yield batch
            batch, nodes = [], 0
    if batch:
        yield batch


def _batch_contractions(X, x, batch, h, n):
    """fundamental_contraction of each shell of a batch, in order, with
    lame(X) from one ``_lame_fd`` over all the batch's nodes."""
    lam = _lame_fd(X, np.concatenate([y for y, _ in batch]), h, n)
    out, start = [], 0
    for y, wt in batch:
        stop = start + len(wt)
        out.append(fundamental_contraction(x - y, lam[start:stop], wt))
        start = stop
    return out


def representation_residual(X, x, n, radius=1.0, level=0):
    """Defect of the fundamental-solution representation at the point x.

    X is a vectorized callable mapping (M, n) points to (M, n) one-form
    values, smooth and supported strictly inside the ball of the given
    radius about 0 (so the boundary terms of the representation formula
    drop).  x is a finite point of shape (n,), n >= 3, radius is finite
    and > 0 and level is an integer >= 0; anything else raises ValueError
    before X is called.  The points X gets for lame(X) are
    coordinate-major (F-contiguous) float arrays, so a reduction over their
    last axis runs over contiguous columns; a callable whose reduction
    order follows the layout (np.einsum, matmul) may move the result at
    roundoff.  X(x) itself is called once on x[None, :].  Returns

        max_i | X_i(x) - int G_i(x-y)_j lame(X)(y)^j dy |

    with lame(X) from the 4th-order central differences of ``_lame_fd``
    (the centre, 4 points per axis and 4 on the diagonal e_a + e_b of each
    plane: 1 + 4n + 2n(n-1) calls of X per batch of nodes, 25 at n = 3),
    contracted with G node by node through ``fundamental_contraction``,
    and a singularity-patched quadrature: a polar patch around x (whose
    measure cancels the kernel singularity) weighted by 1 - smoothstep of
    the distance to x, and the ball weighted by smoothstep.  ``level``
    refines the pipeline: the FD step shrinks by 2^{1/4} per level (so the
    leading O(h^4) error halves) and the quadrature orders grow alongside.

    The quadrature shells are grouped into batches of several whole
    shells, and the batches are differentiated and contracted
    concurrently, one worker thread per usable core, by a pool that lives
    only for this call; at most one batch per worker is in flight.  So X
    is called concurrently from worker threads, on points that span
    several shells, and must be safe to call that way (a pure function
    is).  Each shell's contraction is added in shell order, so the result
    does not depend on the number of workers.  An exception raised by X
    propagates unchanged.
    """
    _kelvin(n)                                        # raises for n < 3
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, need ({n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"need a finite x, got {x}")
    if not (np.isfinite(radius) and radius > 0.0):
        raise ValueError(f"need a finite positive radius, got {radius}")
    if not (isinstance(level, (int, np.integer)) and level >= 0):
        raise ValueError(f"need an integer level >= 0, got {level!r}")
    h = 0.02 * radius * 2.0 ** (-level / 4.0)
    npolar = 24 + 8 * level
    nrad = 20 + 4 * level
    rho = 0.25 * radius
    rule = unit_sphere_rule(n, npolar, 2 * npolar)
    shells = singular_shells(x, rho, nrad, np.linspace(0.0, 1.5 * rho, 7),
                             rule, np.zeros(n),
                             np.linspace(0.0, radius, 7), rule)
    total = np.zeros(n)
    workers = _usable_cores()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for batch in _shell_batches(shells):
            pending.append(pool.submit(_batch_contractions, X, x, batch,
                                       h, n))
            if len(pending) == workers:
                for term in pending.popleft().result():
                    total += term
        while pending:
            for term in pending.popleft().result():
                total += term
    return float(np.max(np.abs(np.asarray(X(x[None, :])[0]) - total)))
