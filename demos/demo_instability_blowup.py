"""Explicit blow-up on the round 3-sphere with bounded data.

As lam decreases to 1 the sphere bubble's supremum diverges like
(lam - 1)^{-1/4}, while the assembled coefficient data (U, Y) barely move:
a family of exact solutions with bounded data and unbounded solutions.
"""

from lichlab.instability import assemble, sphere_yamabe_residual, verify

print("Yamabe identity residual of the sphere bubble (n = 3, lam = 1.25):",
      f"{sphere_yamabe_residual(3, 1.25):.2e}")
print("same identity in higher dimensions:",
      ", ".join(f"n={n}: {sphere_yamabe_residual(n, 1.2):.1e}"
                for n in (4, 5, 6)))

print("\nlam      sup(phi)    closed form   scalar res  vector res   "
      "|U|_inf   |Y|_inf")
for lam in (1.5, 1.25, 1.1, 1.05, 1.01):
    rep = verify(assemble(lam))
    print(f"{lam:<6}  {rep.sup_phi:>9.4f}   {rep.sup_phi_closed_form:>9.4f}"
          f"     {rep.scalar_residual:.1e}    {rep.vector_residual:.1e}"
          f"    {rep.norm_U:7.3f}  {rep.norm_Y:8.3f}")

print("\nsup(phi) = (lam+1)^{1/4} (lam-1)^{-1/4} exactly; it diverges as")
print("lam -> 1 while the data norms are flat to about one percent, and")
print("the quadratic source |U + L W|^2 cancels identically (U = -L W).")
