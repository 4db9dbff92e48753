"""Spectral tensor calculus on the torus: operators and their identities.

Walks through the Laplacian, the conformal Killing derivative, the Lame
operator, and its spectral inversion, checking the structural identities
that everything downstream relies on.
"""

import numpy as np

from lichlab.geometry import (
    OneFormField,
    ScalarField,
    Torus,
    conformal_killing_deriv,
    h1_norm_squared,
    l2_inner,
    lame,
    lame_invert,
    laplace_beltrami,
    sym_weights,
    tensor_trace,
)

g = Torus(3, 32)
x = g.coords()
print(f"flat 3-torus, {g.resolution}^3 nodes, period {2 * np.pi:.4f}")

# the Laplacian is spectrally exact on Fourier modes
f = ScalarField(g, np.cos(2 * x[0] + x[1]) + np.zeros(g.grid_shape))
lap = laplace_beltrami(f)
print("\nLaplacian eigenvalue check, mode k = (2, 1, 0):")
print("  max |lap f - 5 f| =", np.max(np.abs(lap.values - 5.0 * f.values)))

# Killing derivative: traceless by construction
w_vals = np.zeros((3,) + g.grid_shape)
w_vals[0] = np.sin(x[0])
w_vals[1] = 0.5 * np.cos(x[2])
W = OneFormField(g, w_vals)
LW = conformal_killing_deriv(W)
print("\nconformal Killing derivative of a two-mode one-form:")
print("  sup |trace| =", np.max(np.abs(tensor_trace(LW))))

# the energy identity <lame W, W> = (1/2) |L W|^2
weights = sym_weights(3)[:, None, None, None]
lhs = l2_inner(g, lame(W).values, W.values)
rhs = 0.5 * l2_inner(g, weights * LW.values, LW.values)
print("\nenergy identity:")
print(f"  <lame W, W> = {lhs:.12f}")
print(f"  (1/2)|L W|^2 = {rhs:.12f}")
print(f"  defect / |W|_H1^2 = {abs(lhs - rhs) / h1_norm_squared(W):.2e}")

# invert the Lame operator and come back
rhs_form = OneFormField(g, np.stack([
    np.cos(x[0]) * np.cos(x[1]) + np.zeros(g.grid_shape),
    np.zeros(g.grid_shape),
    0.3 * np.sin(x[1]) + np.zeros(g.grid_shape),
]))
sol, defect = lame_invert(rhs_form)
back = lame(sol)
centered = rhs_form.values - np.mean(rhs_form.values, axis=(1, 2, 3),
                                     keepdims=True)
print("\nspectral inversion modulo constant forms:")
print("  kernel defect (constant component) =", defect)
print("  round-trip error =", np.max(np.abs(back.values - centered)))

# constant forms span the kernel on the torus
K = OneFormField(g, np.broadcast_to(
    np.array([1.0, -2.0, 0.5])[:, None, None, None],
    (3,) + g.grid_shape).copy())
print("\nconstant one-form (conformal Killing on the torus):")
print("  sup |lame K| =", np.max(np.abs(lame(K).values)))
print("  sup |L K|    =", np.max(np.abs(conformal_killing_deriv(K).values)))
