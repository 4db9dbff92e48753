"""Blow-up bubbles and the far field of their momentum response.

The bubble solves the critical equation in closed form; around it, the
momentum one-forms admit explicit far-field expansions whose constants we
check against direct singular quadrature.
"""

import numpy as np

from lichlab.bubbles import (
    BubbleParams,
    DirectionData,
    asympt_LP,
    asympt_LV,
    blowup_constants,
    bubble,
    bubble_laplacian,
    quad_LP,
    quad_LV,
    theta,
)

p = BubbleParams(n=3, mu=0.01, f_center=3.0)
print(f"bubble: n = {p.n}, mu = {p.mu}, f0 = {p.f_center}")
print(f"center height mu^(-1/2) = {bubble(p, np.zeros(3)):.4f}")

rng = np.random.default_rng(1)
pts = rng.normal(size=(5, 3))
res = bubble_laplacian(p, pts) - p.f_center * bubble(p, pts) ** 5
print("PDE residual at 5 random points:",
      np.max(np.abs(res / (p.f_center * bubble(p, pts) ** 5))))

c = blowup_constants(3)
print(f"\nconstants: C1 = {c.C1:.6f}, C2 = {c.C2:.6f}, "
      f"bubble energy = {c.bubble_energy:.6f}")
print(f"stability coefficient, n = 6: {blowup_constants(6).stability_coef}")

d = DirectionData(eps=0.7, beta_k=np.array([0.3, 0.0, 0.0]),
                  zeta0=np.array([1.0, 0.0, 0.0]),
                  zeta_k=np.eye(3)[[1, 0, 2]])
zhat = np.array([0.3, -0.2, 1.0])
zhat /= np.linalg.norm(zhat)

print("\nfar-field agreement, quadrature vs closed-form leading term:")
print("|z|/mu    first-order dev    second-order dev    theta(z)")
for fac in (20.0, 50.0, 100.0, 200.0):
    z = fac * p.mu * zhat
    qv = quad_LV(d.eps * d.zeta0, p, z)
    av = asympt_LV(d, p, z)
    qp = quad_LP(d.beta_k[0] * d.zeta_k[0], p, z, 0)
    ap = asympt_LP(d, p, z, 0)
    print(f"{fac:>5.0f}     {np.linalg.norm(qv - av) / np.linalg.norm(av):.4f}"
          f"             {np.linalg.norm(qp - ap) / np.linalg.norm(ap):.4f}"
          f"              {theta(p.mu, z):.4f}")

print("\nthe leading terms decay like |z|^{1-n} and mu^2 |z|^{-n}; the")
print("deviation is the o(1) of the expansion, dying off as |z|/mu grows.")
