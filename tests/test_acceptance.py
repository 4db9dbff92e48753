"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion calls one check function of ``lichlab.harness`` at
acceptance size, and each tolerance is written once, in that function.
``lichlab verify`` runs the same functions at reduced size, except the
criterion-10 sweep judge, whose input is ``configs/sweep_focusing.ini``.
"""

import time
from pathlib import Path

import lichlab.harness as harness
from lichlab.harness import load_config, run_instability_demo, run_sweep


def _report_rows(num, name, budget, check, *sizes, **named_sizes):
    """Time one shared check at acceptance size; print and assert its rows."""
    t0 = time.time()
    rows = check(*sizes, **named_sizes)
    elapsed = time.time() - t0
    ok = all(r.passed for r in rows)
    detail = ", ".join(f"{r.name} {r.measured:.2e} < {r.tolerance:g}"
                       for r in rows)
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail} "
          f"({elapsed:.1f} s < {budget:.0f} s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: exceeded {budget} s budget"


def test_criterion_01_lame_energy_identity():
    _report_rows(1, "Lame energy identity", 10.0,
                 harness.check_energy_identity, 32, draws=50, band=3)


def test_criterion_02_bubble_pde_residual():
    _report_rows(2, "bubble PDE residual", 1.0, harness.check_bubble_residual)


def test_criterion_03_constants_consistency():
    _report_rows(3, "constants consistency", 1.0, harness.check_constants)


def test_criterion_04_asymptotics_vs_quadrature():
    _report_rows(4, "asymptotics vs quadrature", 300.0,
                 harness.check_asymptotics, factors=(50.0, 100.0, 200.0))


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
    _report_rows(8, "manufactured coupled solve", 120.0,
                 harness.check_manufactured_solve, resolution=32)


def test_criterion_09_constraint_round_trip():
    _report_rows(9, "constraint round trip", 600.0,
                 harness.check_round_trip, grids=(16, 32, 64))


def test_criterion_10_stability_sweep():
    config = Path(__file__).resolve().parent.parent / "configs" \
        / "sweep_focusing.ini"
    _report_rows(10, "stability sweep", 600.0,
                 lambda: harness.check_sweep(run_sweep(load_config(
                     str(config)))))


def test_criterion_11_pohozaev_exactness():
    _report_rows(11, "Pohozaev exactness", 60.0,
                 harness.check_pohozaev, grids=(33, 65, 129))
