"""Tests of the benchmark itself: tracing changes nothing, checks bite.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lichlab import solver  # noqa: E402


def _no_count(key, amount=1):
    pass


@pytest.fixture(scope="module")
def roundtrip():
    case = workloads.build_roundtrip(1, ROOT, _no_count)
    return case, case.ops[0].run()       # the 16^3 round trip, untraced


def test_traced_solve_is_bit_identical(roundtrip):
    case, plain = roundtrip
    original = solver.solve_system
    with tracing.Tracer() as tracer:
        tracer.run_id = "r"
        traced = case.ops[0].run()
    assert solver.solve_system is original
    assert np.array_equal(traced.solution.u.values, plain.solution.u.values)
    assert np.array_equal(traced.solution.W.values, plain.solution.W.values)
    s = tracer.summary(["r"])
    assert s.calls["solver.solve_system"] == 1
    assert s.counts["solver.outer_iters"] == plain.solution.iterations
    assert s.counts["krylov.minres.iters"] == s.counts["krylov.matvecs"] > 0
    assert s.calls["fft"] > 0 and s.counts["fft.bytes"] > 0


def test_roundtrip_check_accepts_solution_and_rejects_perturbed_u(roundtrip):
    case, trip = roundtrip
    u, W = trip.solution.u.values, trip.solution.W.values
    coef = checks.roundtrip_coefficients(16, 0, 1)
    assert checks.check_coupled_solution(u, W, coef, 2e-11) == []
    bad = u.copy()
    bad[3, 4, 5] += 1e-8
    assert checks.check_coupled_solution(bad, W, coef, 2e-11)
    assert checks.check_coupled_solution(u, 1.001 * W, coef, 2e-11)
    # the same solution does not solve the data of another permutation
    assert checks.check_coupled_solution(
        u, W, checks.roundtrip_coefficients(16, 1, 0), 2e-11)


def test_defect_decay_check():
    assert checks.check_defect_decay([(1e-3, 5e-3), (8e-5, 9e-4), (3e-7, 1e-5)]) == []
    assert checks.check_defect_decay([(1e-3, 5e-3), (5e-4, 9e-4), (3e-7, 1e-5)])


def test_sweep_check():
    eps = [2.0 ** -a for a in range(1, 9)]
    sups = [0.908, 0.898, 0.895, 0.893, 0.8926, 0.8923, 0.8921, 0.89208]
    good = dict(base_regime="Focusing", verdict="Stable-band",
                converged=[True] * 8, sup_u=sups, epsilons=eps, base_sup=0.89202)
    assert checks.check_sweep(**good) == []
    assert checks.check_sweep(**dict(good, verdict="NonConvergent"))
    assert checks.check_sweep(**dict(good, base_regime="Mixed"))
    assert checks.check_sweep(**dict(good, converged=[True] * 7 + [False]))
    assert checks.check_sweep(**dict(good, base_sup=0.87))


def test_green_check_rejects_swapped_levels():
    res = [6.2e-6, 3.13e-6, 1.59e-6]
    assert checks.check_green(res, 1.0) == []
    assert checks.check_green([res[0], res[2], res[1]], 1.0)
    assert checks.check_green(res, 1e-4)


def test_pohozaev_check():
    sides = [(1.0, 1.0 + 4e-4), (1.0, 1.0 + 2e-5), (1.0, 1.0 + 1e-7)]
    assert checks.check_pohozaev(sides) == []
    assert checks.check_pohozaev(sides[::-1])
    assert checks.check_pohozaev([(0.0, 4e-4), (0.0, 2e-5), (0.0, 1e-7)])


def test_permute_wavevectors():
    text = "psi = cosine(amp=1.0, k=1:0:0)\npi = cosine(k=0:2:0, offset=1.0)"
    assert workloads.permute_wavevectors(text, [0, 1, 2]) == text
    moved = workloads.permute_wavevectors(text, [2, 0, 1])
    assert "k=0:0:1" in moved and "k=2:0:0" in moved


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_without_package_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
