"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 1, 2, 3, 5, 6, 7 and 11 call the check functions of
``lichlab.harness`` at acceptance size; ``lichlab verify`` runs the same
functions at reduced size, and each of their tolerances is written once,
in the function.  The other criteria pin their tolerances here; nothing
is deferred to later calibration.
"""

import time
from pathlib import Path

import numpy as np

import lichlab.harness as harness
from lichlab.bubbles import (
    BubbleParams,
    DirectionData,
    asympt_LP,
    asympt_LV,
    quad_LP,
    quad_LV,
)
from lichlab.conformal import (
    PhysicsData,
    Potential,
    SystemCoefficients,
    constraint_residuals,
    normalize,
    reconstruct,
)
from lichlab.geometry import OneFormField, ScalarField, SymTensorField, Torus
from lichlab.harness import (
    load_config,
    run_instability_demo,
    run_sweep,
    scalar_from_recipe,
    tensor_from_recipe,
)
from lichlab.solver import SolveOptions, manufactured_forcing, solve_system


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail} "
          f"({elapsed:.1f} s < {budget:.0f} s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: exceeded {budget} s budget"


def _report_rows(num, name, budget, check, *sizes, **named_sizes):
    """Time one shared check at acceptance size and report its rows."""
    t0 = time.time()
    rows = check(*sizes, **named_sizes)
    detail = ", ".join(f"{r.name} {r.measured:.2e} < {r.tolerance:.0e}"
                       for r in rows)
    _report(num, name, all(r.passed for r in rows), detail,
            time.time() - t0, budget)


def test_criterion_01_lame_energy_identity():
    _report_rows(1, "Lame energy identity", 10.0,
                 harness.check_energy_identity, 32, draws=50, band=3)


def test_criterion_02_bubble_pde_residual():
    _report_rows(2, "bubble PDE residual", 1.0, harness.check_bubble_residual)


def test_criterion_03_constants_consistency():
    _report_rows(3, "constants consistency", 1.0, harness.check_constants)


def test_criterion_04_asymptotics_vs_quadrature():
    t0 = time.time()
    p = BubbleParams(n=3, mu=0.01, f_center=3.0)
    d = DirectionData(eps=0.7, beta_k=np.array([0.3, 0.0, 0.0]),
                      zeta0=np.array([1.0, 0.0, 0.0]),
                      zeta_k=np.eye(3)[[1, 0, 2]])
    zhat = np.array([0.3, -0.2, 1.0])
    zhat /= np.linalg.norm(zhat)
    worst_v = worst_p = 0.0
    for fac in (50.0, 100.0, 200.0):
        z = fac * p.mu * zhat
        qv = quad_LV(d.eps * d.zeta0, p, z)
        av = asympt_LV(d, p, z)
        worst_v = max(worst_v,
                      np.linalg.norm(qv - av) / np.linalg.norm(av))
        qp = quad_LP(d.beta_k[0] * d.zeta_k[0], p, z, 0)
        ap = asympt_LP(d, p, z, 0)
        worst_p = max(worst_p,
                      np.linalg.norm(qp - ap) / np.linalg.norm(ap))
    ok = worst_v < 0.05 and worst_p < 0.10
    _report(4, "asymptotics vs quadrature", ok,
            f"first-order dev {worst_v:.3f} < 0.05, "
            f"second-order dev {worst_p:.3f} < 0.10 at |z|/mu = 50, 100, 200",
            time.time() - t0, 300.0)


def test_criterion_05_green_representation():
    _report_rows(5, "Green representation", 120.0,
                 harness.check_representation, finest_level=2)


def test_criterion_06_killing_dimension_and_kernel():
    _report_rows(6, "Killing dimension and kernel", 10.0,
                 harness.check_killing, points=40)


def test_criterion_07_instability_demo():
    _report_rows(7, "instability demo", 30.0,
                 lambda: harness.check_instability(run_instability_demo(
                     (1.5, 1.1, 1.01), resolution=4096)))


def test_criterion_08_manufactured_coupled_solve():
    t0 = time.time()
    g = Torus(3, 32)
    x = g.coords()
    u_star = ScalarField(g, 0.8 + 0.05 * np.cos(x[0])
                         + 0.03 * np.cos(x[1]) * np.cos(x[2])
                         + np.zeros(g.grid_shape))
    w_vals = np.zeros((3,) + g.grid_shape)
    w_vals[0] = 0.05 * np.cos(x[1])
    w_vals[2] = 0.05 * np.sin(x[0]) * np.cos(x[1])
    W_star = OneFormField(g, w_vals)
    x_vals = np.zeros((3,) + g.grid_shape)
    x_vals[0] = 0.2 * np.sin(x[0])
    C = SystemCoefficients(
        h=ScalarField.constant(g, 0.0), f=ScalarField.constant(g, 0.25),
        b=ScalarField.constant(g, 0.125), U=SymTensorField.zero(g),
        X=OneFormField(g, x_vals), Y=OneFormField.zero(g), gamma=1.0)
    C = manufactured_forcing(u_star, W_star, C)
    sol = solve_system(C, SolveOptions(damping=1.0, coercivity_check="off"))
    err_u = float(np.max(np.abs(sol.u.values - u_star.values)))
    err_w = float(np.max(np.abs(sol.W.values - W_star.values)))
    ok = sol.converged and sol.iterations <= 15 \
        and err_u < 1e-6 and err_w < 1e-6
    _report(8, "manufactured coupled solve", ok,
            f"recovered in {sol.iterations} <= 15 outer iterations, "
            f"errors ({err_u:.1e}, {err_w:.1e}) < 1e-6",
            time.time() - t0, 120.0)


def test_criterion_09_constraint_round_trip():
    t0 = time.time()
    results = []
    for N in (16, 32, 64):
        g = Torus(3, N)
        D = PhysicsData(
            psi=ScalarField.constant(g, 1.0),
            pi=scalar_from_recipe(
                g, "lorentz(amp=0.02, c=1.05, axis=1, offset=1.0)"),
            tau=scalar_from_recipe(
                g, "lorentz(amp=0.015, c=1.05, axis=0, offset=1.0)"),
            sigma=tensor_from_recipe(g, "constant_tensor(xy=0.1)"),
            potential=Potential.constant(0.0))
        C = normalize(D)
        sol = solve_system(C, SolveOptions(coercivity_check="weak",
                                           tol_residual=1e-11,
                                           max_outer=100))
        assert sol.converged
        ids = reconstruct(sol.u, sol.W, D)
        results.append(constraint_residuals(ids, D.potential))
    hams = [r[0] for r in results]
    moms = [r[1] for r in results]
    ratios_h = [a / b for a, b in zip(hams[:-1], hams[1:])]
    ratios_m = [a / b for a, b in zip(moms[:-1], moms[1:])]
    ok = all(r >= 3.0 for r in ratios_h + ratios_m)
    _report(9, "constraint round trip", ok,
            f"ham {[f'{h:.1e}' for h in hams]} ratios "
            f"{[f'{r:.1f}' for r in ratios_h]}, mom "
            f"{[f'{m:.1e}' for m in moms]} ratios "
            f"{[f'{r:.1f}' for r in ratios_m]}, all >= 3 per doubling",
            time.time() - t0, 600.0)


def test_criterion_10_stability_sweep():
    t0 = time.time()
    cfg = load_config(str(Path(__file__).resolve().parent.parent
                          / "configs" / "sweep_focusing.ini"))
    report = run_sweep(cfg)
    sups = [r.sup_u for r in report.rows]
    spread = (max(sups) - min(sups)) / min(sups)
    ok = (report.base_regime == "Focusing"
          and report.all_converged
          and report.verdict == "Stable-band"
          and spread < 0.10)
    _report(10, "stability sweep", ok,
            f"regime {report.base_regime}, verdict {report.verdict}, "
            f"all converged, sup spread {100 * spread:.2f}% < 10% "
            f"over eps = 2^-1 .. 2^-8",
            time.time() - t0, 600.0)


def test_criterion_11_pohozaev_exactness():
    _report_rows(11, "Pohozaev exactness", 60.0,
                 harness.check_pohozaev, grids=(33, 65, 129))
