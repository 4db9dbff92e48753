"""The benchmark's four workloads.

Each ``build_*`` function makes one workload's inputs from the seed and
returns a Case: the operations of one round, in order, and the check of a
round's results.  Rounds repeat the same operations on the same inputs,
so every round does the same work.  Program calls go through module
attributes (``solver.solve_system``) so a traced run sees them.

    roundtrip    criterion 9: coupled solve, reconstruction and constraint
                 defects at 16^3, 32^3, 64^3 (tol 1e-11, weak coercivity,
                 cold start); the seed picks an axis permutation of the data
    sweep        criterion 10: configs/sweep_focusing.ini, a base solve plus
                 8 warm-started solves at 16^3; the seed picks an axis
                 permutation of every recipe's wavevector
    green-probe  criterion 5: the Lame representation probe at levels 0, 1,
                 2 of a bump one-form; the seed picks its component and sign
    pohozaev     criterion 11: the Pohozaev defect of the exact bubble on
                 33^3, 65^3, 129^3 charts; the bubble is radial, so every
                 permutation is the same input and the seed has no effect
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from lichlab import bubbles, conformal, diagnostics, geometry, green, harness, solver


@dataclass
class Op:
    label: str
    run: Callable
    work: int = 1        # results a user gets from it: solves, levels, grids


@dataclass
class Case:
    ops: list
    largest: Callable    # (results, times) -> seconds of the largest call
    check: Callable      # results -> list of problems
    inputs: dict = field(default_factory=dict)     # what the seed chose


def _permutation(seed):
    return [int(a) for a in np.random.default_rng(seed).permutation(3)]


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

ROUNDTRIP_GRIDS = (16, 32, 64)
ROUNDTRIP_TOL = 1e-11


@dataclass
class Trip:
    solution: object
    defects: tuple       # (hamiltonian, momentum) constraint defects
    solve_s: float


def build_roundtrip(seed, root, count):
    perm = _permutation(seed)
    tau_axis, pi_axis = perm[0], perm[1]
    pair = "".join("xyz"[a] for a in sorted((tau_axis, pi_axis)))
    opts = solver.SolveOptions(coercivity_check="weak",
                               tol_residual=ROUNDTRIP_TOL, max_outer=100)
    problems = {}
    for N in ROUNDTRIP_GRIDS:
        g = geometry.Torus(3, N)
        data = conformal.PhysicsData(
            psi=geometry.ScalarField.constant(g, 1.0),
            pi=harness.scalar_from_recipe(
                g, f"lorentz(amp=0.02, c=1.05, axis={pi_axis}, offset=1.0)"),
            tau=harness.scalar_from_recipe(
                g, f"lorentz(amp=0.015, c=1.05, axis={tau_axis}, offset=1.0)"),
            sigma=harness.tensor_from_recipe(g, f"constant_tensor({pair}=0.1)"),
            potential=conformal.Potential.constant(0.0))
        problems[N] = (data, conformal.normalize(data))

    def trip(N):
        data, C = problems[N]
        t0 = time.perf_counter()
        sol = solver.solve_system(C, opts)
        solve_s = time.perf_counter() - t0
        if not sol.converged:
            raise RuntimeError(f"{N}^3 solve did not converge")
        ids = conformal.reconstruct(sol.u, sol.W, data)
        return Trip(sol, conformal.constraint_residuals(ids, data.potential),
                    solve_s)

    def check(results):
        out = []
        for N in ROUNDTRIP_GRIDS:
            sol = results[f"{N}"].solution
            coef = checks.roundtrip_coefficients(N, tau_axis, pi_axis)
            # 2x the solve tolerance leaves room for the roundoff of an
            # evaluation in another order; a wrong digit at 1e-11 still fails
            out += [f"{N}^3: {p}" for p in checks.check_coupled_solution(
                sol.u.values, sol.W.values, coef, 2.0 * ROUNDTRIP_TOL)]
        out += checks.check_defect_decay(
            [results[f"{N}"].defects for N in ROUNDTRIP_GRIDS])
        return out

    return Case(ops=[Op(f"{N}", lambda N=N: trip(N)) for N in ROUNDTRIP_GRIDS],
                largest=lambda results, times: results["64"].solve_s,
                check=check, inputs={"axis_permutation": perm})


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_CONFIG = "configs/sweep_focusing.ini"
OUT_DIR = ".perfbench_out"


def permute_wavevectors(text, perm):
    """Config text with every recipe wavevector k=a:b:c moved to axes perm."""
    def move(match):
        k = match.group(1).split(":")
        k += ["0"] * (3 - len(k))
        moved = ["0"] * 3
        for axis, value in enumerate(k):
            moved[perm[axis]] = value
        return "k=" + ":".join(moved)

    return re.sub(r"k=([-0-9.:]+)", move, text)


def build_sweep(seed, root, count):
    perm = _permutation(seed)
    text = (Path(root) / SWEEP_CONFIG).read_text(encoding="utf-8")
    path = Path(root) / OUT_DIR / f"sweep-seed{seed}.ini"
    path.parent.mkdir(exist_ok=True)
    path.write_text(permute_wavevectors(text, perm), encoding="utf-8")
    cfg = harness.load_config(str(path))
    base_sup = []

    def check(results):
        report = results["sweep"]
        if not base_sup:
            # a base solve apart from the sweep, made once per run
            base = solver.solve_system(
                conformal.normalize(cfg.base, h_override=cfg.h_override),
                cfg.solver)
            base_sup.append(float(np.max(base.u.values)))
        return checks.check_sweep(
            report.base_regime, report.verdict,
            [r.converged for r in report.rows], [r.sup_u for r in report.rows],
            [r.eps for r in report.rows], base_sup[0])

    return Case(ops=[Op("sweep", lambda: harness.run_sweep(cfg),
                        work=1 + len(cfg.alphas))],
                largest=lambda results, times: times["sweep"],
                check=check, inputs={"axis_permutation": perm})


# ---------------------------------------------------------------------------
# green-probe
# ---------------------------------------------------------------------------

GREEN_LEVELS = (0, 1, 2)


def build_green_probe(seed, root, count):
    rng = np.random.default_rng(seed)
    component = int(rng.integers(3))
    sign = float(rng.choice((-1.0, 1.0)))

    def bump(pts):
        pts = np.atleast_2d(pts)
        count("green.X_calls")
        count("green.X_points", pts.shape[0])
        r2 = np.sum(pts ** 2, axis=-1) / 0.8 ** 2
        out = np.zeros((pts.shape[0], 3))
        m = r2 < 1.0
        out[m, component] = sign * (1.0 - r2[m]) ** 8
        return out

    def check(results):
        # X(0) = sign * e_component exactly, so |X(0)| = 1
        return checks.check_green([results[f"level{le}"] for le in GREEN_LEVELS],
                                  1.0)

    return Case(
        ops=[Op(f"level{le}", lambda le=le: green.representation_residual(
            bump, np.zeros(3), 3, radius=1.0, level=le)) for le in GREEN_LEVELS],
        largest=lambda results, times: times["level2"],
        check=check, inputs={"component": component, "sign": sign})


# ---------------------------------------------------------------------------
# pohozaev
# ---------------------------------------------------------------------------

POHOZAEV_GRIDS = (33, 65, 129)


def build_pohozaev(seed, root, count):
    p = bubbles.BubbleParams(n=3, mu=1.0, f_center=3.0)
    inputs = {}
    for N in POHOZAEV_GRIDS:
        g = geometry.Chart(3, N, extent=1.3)
        pts = np.stack(np.meshgrid(*([g.axis_coords] * 3), indexing="ij"),
                       axis=-1)
        v = geometry.ScalarField(g, bubbles.bubble(p, pts))
        C = conformal.SystemCoefficients(
            h=geometry.ScalarField.constant(g, 0.0),
            f=geometry.ScalarField.constant(g, 3.0),
            b=geometry.ScalarField.constant(g, 0.0),
            U=geometry.SymTensorField.zero(g),
            X=geometry.OneFormField.zero(g), Y=geometry.OneFormField.zero(g),
            gamma=1.0)
        inputs[N] = (v, C)

    def check(results):
        return checks.check_pohozaev(
            [(results[f"{N}"].interior, results[f"{N}"].boundary)
             for N in POHOZAEV_GRIDS])

    return Case(
        ops=[Op(f"{N}", lambda N=N: diagnostics.pohozaev_defect(
            *inputs[N], np.zeros(3), 1.0)) for N in POHOZAEV_GRIDS],
        largest=lambda results, times: times["129"],
        check=check)


WORKLOADS = {
    "roundtrip": build_roundtrip,
    "sweep": build_sweep,
    "green-probe": build_green_probe,
    "pohozaev": build_pohozaev,
}
