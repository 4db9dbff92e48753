"""The Euclidean Lame kernel, its Killing complement, and the
representation formula as a quadrature-checked identity."""

import numpy as np

from lichlab.green import (
    fundamental,
    killing_basis,
    lame_of_columns,
    project_killing,
    representation_residual,
    stress_kernel,
)

print("Kelvin-type fundamental matrix, n = 3:")
G = fundamental(np.array([1.0, 0.0, 0.0]), 3)
print(G)
print("G11(e1) =", G[0, 0], "= 1/(4 pi) =", 1.0 / (4 * np.pi))

rng = np.random.default_rng(0)
y = rng.normal(size=3)
print("\nsymmetry defect:", np.max(np.abs(G - G.T)))
print("homogeneity defect (degree 2-n):",
      np.max(np.abs(fundamental(2 * y, 3) - 0.5 * fundamental(y, 3))))
print("lame annihilates the columns away from 0:",
      np.max(np.abs(lame_of_columns(y / np.linalg.norm(y) * 1.5, 3))))

H = stress_kernel(np.array([0.7, -0.3, 0.5]), np.array([-0.2, 0.4, 0.1]), 3)
print("stress kernel trace over (i, j):",
      np.max(np.abs(np.einsum("iip->p", H))))

print("\nconformal Killing space on the unit ball:")
kb = killing_basis(3, 1.0)
print(f"  dimension = {len(kb)}  (= (n+1)(n+2)/2 for n = 3)")
vals = kb.evaluate(kb.points)
gram = np.einsum("aMi,bMi,M->ab", vals, vals, kb.weights)
print("  orthonormality defect:", np.max(np.abs(gram - np.eye(len(kb)))))
pts = rng.uniform(-0.5, 0.5, size=(20, 3))
print("  sup |L K| over the basis:", np.max(np.abs(kb.killing_deriv(pts))))

X = rng.normal(size=(len(kb.weights), 3))
PX = project_killing(X, kb)
print("  projection idempotence:",
      np.max(np.abs(project_killing(PX, kb) - PX)))


def bump(points):
    points = np.atleast_2d(points)
    r2 = np.sum(points ** 2, axis=-1) / 0.8 ** 2
    out = np.zeros((points.shape[0], 3))
    m = r2 < 1.0
    out[m, 0] = (1.0 - r2[m]) ** 8
    return out


print("\nrepresentation formula X(x) = int G(x-y) lame(X)(y) dy:")
print("level   residual      ratio")
prev = None
for level in (0, 1, 2):
    res = representation_residual(bump, np.zeros(3), 3, radius=1.0,
                                  level=level)
    print(f"  {level}     {res:.3e}    "
          + (f"{prev / res:.2f}" if prev else "-"))
    prev = res
print("each refinement level halves the leading error term.")
