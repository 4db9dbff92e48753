"""Shared quadrature rules: n-sphere product rules, radial panels, cutoffs,
ball rules and the partition-of-unity shells for kernels singular at a
point."""

from __future__ import annotations

import os

import numpy as np
from math import gamma, pi
from scipy.special import roots_legendre, roots_gegenbauer

__all__ = [
    "sphere_area",
    "unit_sphere_rule",
    "gauss_panels",
    "smoothstep",
    "ball_rule",
    "singular_shells",
]


def _usable_cores():
    """Cores this process may run on: the size of its CPU affinity set where
    the platform reports one, else the machine's CPU count.  Sizes the
    worker pools of the quadrature probes."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sphere_area(d):
    """Area of the d-dimensional unit sphere embedded in R^{d+1}."""
    return 2.0 * pi ** ((d + 1) / 2.0) / gamma((d + 1) / 2.0)


def unit_sphere_rule(n, polar_order, azimuth_order):
    """Product quadrature on S^{n-1} in R^n.

    Polar angles use Gauss-Gegenbauer nodes in cos(theta_j), exact for the
    sin^p weights; the final angle is a uniform trapezoid (exact for
    trigonometric polynomials).  Returns (directions (M, n), weights (M,))
    with weights summing to the sphere area.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    for name, order in (("polar_order", polar_order),
                        ("azimuth_order", azimuth_order)):
        if order < 1:
            raise ValueError(f"need {name} >= 1, got {order}")
    phis = 2.0 * pi * np.arange(azimuth_order) / azimuth_order
    base = np.stack([np.cos(phis), np.sin(phis)], axis=-1)   # S^1 nodes
    dirs = base
    wts = np.full(azimuth_order, 2.0 * pi / azimuth_order)
    for p in range(1, n - 1):
        # add a polar angle with weight sin^p(theta): Gegenbauer alpha = p/2
        u, wu = roots_gegenbauer(polar_order, 0.5 * p)
        s = np.sqrt(np.maximum(1.0 - u ** 2, 0.0))
        new_dirs = np.concatenate([
            u[:, None, None] * np.ones((1, dirs.shape[0], 1)),
            s[:, None, None] * dirs[None, :, :],
        ], axis=-1).reshape(-1, p + 2)
        wts = (wu[:, None] * wts[None, :]).ravel()
        dirs = new_dirs
    # orientation: components were prepended; flip to conventional order
    return dirs[:, ::-1].copy(), wts


def gauss_panels(edges, order):
    """Composite Gauss-Legendre nodes/weights over consecutive panels."""
    if order < 1:
        raise ValueError(f"need order >= 1, got {order}")
    if len(edges) < 2:
        raise ValueError(f"need at least two edges, got {len(edges)}")
    xs, ws = roots_legendre(order)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * xs + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * ws)
    return np.concatenate(nodes), np.concatenate(weights)


def smoothstep(t):
    """C^3 polynomial step: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t ** 4 * (35.0 - 84.0 * t + 70.0 * t ** 2 - 20.0 * t ** 3)


def ball_rule(n, radius, panels, radial_order, rule, center=0.0):
    """Gauss radial panels times the sphere rule (directions, weights).

    Returns (points (M, n), weights (M,)) on the ball of given radius
    about center, weights including the polar Jacobian r^{n-1}.
    """
    if panels < 1:
        raise ValueError(f"need panels >= 1, got {panels}")
    dirs, angw = rule
    rn, rw = gauss_panels(np.linspace(0.0, radius, panels + 1), radial_order)
    pts = center + rn[:, None, None] * dirs[None, :, :]
    wts = (rw * rn ** (n - 1.0))[:, None] * angw[None, :]
    return pts.reshape(-1, n), wts.ravel()


def singular_shells(x, rho, order, patch_edges, patch_rule, bulk_center,
                    bulk_edges, bulk_rule):
    """Partition-of-unity quadrature for an integrand singular at x.

    Yields (points (M, n), weights (M,)) per Gauss shell: first the shells
    of a polar patch about x, weighted by 1 - smoothstep((|x-y|/rho - 1)/0.5),
    whose r^{n-1} measure cancels a |x-y|^{1-n} singularity; then shells
    about bulk_center weighted by the complement.  Radii are Gauss nodes
    of the given order over each edge list, directions come from each
    (directions, weights) sphere rule.  Nodes of zero weight are dropped,
    and a shell with none left is skipped.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    dirs, angw = patch_rule
    rn, rw = gauss_panels(patch_edges, order)
    for r, wr in zip(rn, rw):
        chi = 1.0 - smoothstep((r / rho - 1.0) / 0.5)     # |x - y| = r
        if chi > 0.0:
            yield x - r * dirs, wr * r ** (n - 1.0) * chi * angw
    dirs, angw = bulk_rule
    rn, rw = gauss_panels(bulk_edges, order)
    for r, wr in zip(rn, rw):
        y = bulk_center - r * dirs
        wt = wr * r ** (n - 1.0) * angw * smoothstep(
            (np.linalg.norm(x - y, axis=-1) / rho - 1.0) / 0.5)
        keep = wt > 0.0
        if np.any(keep):
            yield y[keep], wt[keep]
