"""Command-line front end.

Subcommands:
  solve         one coupled solve from a config file
  sweep         stability sweep along the perturbation schedule
  instability3  blow-up family demo on the round 3-sphere, judged by the
                acceptance check of criterion 7
  verify        module invariant suites with a pass/fail table: the
                acceptance checks at reduced size
  constants     print the dimension constants for a given n

Exit status is 0 iff every requested check passes.  Bad input (a
ValueError or OSError) is one line ``lichlab: error: <message>`` on
stderr with exit status 2; a SolverError propagates.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .harness import (
    BAND_CHECK_NOTE,
    check_instability,
    load_config,
    run_instability_demo,
    run_sweep,
    run_verification_suite,
    write_csv,
    write_json_summary,
)

__all__ = ["main"]


def _write_out(out, rows, verdict, config_hash="", extra=None,
               paths=(None, None)):
    """Write rows to <out>.csv and the verdict to <out>.json; without out,
    to the (csv, json) paths, skipping an empty one."""
    csv_path, json_path = (out + ".csv", out + ".json") if out else paths
    if csv_path:
        write_csv(csv_path, rows)
    if json_path:
        write_json_summary(json_path, verdict, config_hash, extra)


def _cmd_solve(args):
    from .conformal import normalize
    from .solver import solve_system

    cfg = load_config(args.config)
    C = normalize(cfg.base, h_override=cfg.h_override)
    sol = solve_system(C, cfg.solver)
    row = {
        "converged": sol.converged,
        "iterations": sol.iterations,
        "sup_u": float(np.max(sol.u.values)),
        "inf_u": float(np.min(sol.u.values)),
        "scalar_residual": sol.scalar_residual,
        "momentum_residual": sol.momentum_residual,
        "kernel_defect": sol.kernel_defect,
    }
    for key, val in row.items():
        print(f"{key} = {val}")
    verdict = "Converged" if sol.converged else "NotConverged"
    _write_out(args.out, [row], verdict, cfg.config_hash())
    return 0 if sol.converged else 1


def _cmd_sweep(args):
    cfg = load_config(args.config)
    report = run_sweep(cfg)
    print(f"base regime: {report.base_regime}")
    for r in report.rows:
        print(f"alpha={r.alpha} eps={r.eps:.6g} sup_u={r.sup_u:.8f} "
              f"inf_u={r.inf_u:.8f} converged={r.converged} "
              f"diff_prev={r.diff_prev:.3e} steps={r.newton_steps}")
    print(f"verdict: {report.verdict}")
    _write_out(args.out, report.rows, report.verdict, report.config_hash,
               extra={"base_regime": report.base_regime,
                      "note": BAND_CHECK_NOTE},
               paths=(cfg.csv_path, cfg.json_path))
    return 0 if report.verdict != "NonConvergent" else 1


def _print_checks(rows):
    width = max(len(r.name) for r in rows)
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {r.group:<12} measured={r.measured:.3e} "
              f"tol={r.tolerance:.1e}  {status}")
    return all(r.passed for r in rows)


def _cmd_instability3(args):
    lambdas = [float(s) for s in args.lambdas.split(",")]
    rows = run_instability_demo(lambdas, resolution=args.resolution)
    for r in rows:
        print(f"lambda={r.lam:.6g} sup_phi={r.sup_phi:.8f} "
              f"closed_form={r.sup_phi_closed_form:.8f} "
              f"scalar={r.scalar_residual:.3e} "
              f"vector={r.vector_residual:.3e}")
    ok = _print_checks(check_instability(rows))
    _write_out(args.out, rows, "Pass" if ok else "Fail")
    print(f"blow-up demo: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def _cmd_verify(args):
    rows = run_verification_suite(args.select)
    ok = _print_checks(rows)
    _write_out(args.out, rows, "Pass" if ok else "Fail")
    print(f"{sum(r.passed for r in rows)}/{len(rows)} checks passed")
    return 0 if ok else 1


def _cmd_constants(args):
    from .bubbles import blowup_constants

    c = blowup_constants(args.n)
    print(f"C1({args.n}) = {c.C1!r}")
    print(f"C2({args.n}) = {c.C2!r}")
    print(f"bubble_energy({args.n}) = {c.bubble_energy!r}")
    print(f"stability_coef({args.n}) = {c.stability_coef!r}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lichlab",
        description="Einstein-Lichnerowicz conformal constraint laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="one coupled solve from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output path prefix")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="stability sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output path prefix")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("instability3", help="round-sphere blow-up demo")
    p.add_argument("--lambdas", default="1.5,1.25,1.1,1.05,1.01")
    p.add_argument("--resolution", type=int, default=4096)
    p.add_argument("--out", default=None, help="output path prefix")
    p.set_defaults(func=_cmd_instability3)

    p = sub.add_parser("verify", help="module invariant suites")
    p.add_argument("--select", default=None,
                   help="run only the check group of this exact name, "
                   "e.g. green")
    p.add_argument("--out", default=None, help="output path prefix")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("constants", help="print dimension constants")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_constants)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"lichlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
