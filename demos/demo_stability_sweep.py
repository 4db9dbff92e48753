"""Stability sweep: focusing base data under shrinking perturbations.

The base data have B = 2 V(psi) - (2/3) tau^2 = 2 exactly (the quadratic
potential compensates the tau^2 term).  Each schedule point perturbs tau,
psi, pi and the potential with amplitudes tied to the right derivative
order (tau through third derivatives, psi and V through second, pi in sup
norm), then re-solves from the Lagrange interpolant in eps through the
base solution and the last three converged ones (the secant through the
base and the last converged one where the interpolant is not above the
solver floor).  The config fixes h, so only the base solve checks its
coercivity.  The solutions stay in a tight band, their successive
distances shrink with the schedule, and the later rows take fewer Newton
steps.
"""

from pathlib import Path

from lichlab.harness import BAND_CHECK_NOTE, load_config, run_sweep

config = Path(__file__).resolve().parent.parent / "configs" / "sweep_focusing.ini"
cfg = load_config(str(config))
report = run_sweep(cfg)

print(f"base regime: {report.base_regime}")
print("alpha  eps         sup u       inf u       |u_a - u_prev|_C1  steps"
      "  regime")
for r in report.rows:
    print(f"{r.alpha:>4}   {r.eps:<10.6g}  {r.sup_u:.8f}  {r.inf_u:.8f}"
          f"  {r.diff_prev:.3e}          {r.newton_steps:>5}  {r.regime}")

sups = [r.sup_u for r in report.rows]
print(f"\nsup u spread over the schedule: "
      f"{100 * (max(sups) - min(sups)) / min(sups):.2f}%")
print(f"verdict: {report.verdict}")
print(f"\nnote: {BAND_CHECK_NOTE}")
