import configparser
import io
import json
import os
import re
import textwrap
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lichlab.harness as harness
from lichlab.cli import main as cli_main
from lichlab.conformal import Potential, classify, coefficients
from lichlab.geometry import OneFormField, ScalarField, Torus
from lichlab.solver import (
    _U_FLOOR,
    NewtonDivergedError,
    Solution,
    SolverError,
)
from lichlab.harness import (
    SweepConfig,
    check_instability,
    load_config,
    parse_recipe,
    run_instability_demo,
    run_sweep,
    run_verification_suite,
    scalar_from_recipe,
    tensor_from_recipe,
    write_csv,
)

FOCUSING_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir,
                               "configs", "sweep_focusing.ini")


def focusing_ini(overrides):
    """configs/sweep_focusing.ini as INI text, with overrides
    {section: {key: value}}; a section mapped to None is left out."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    cp.read(FOCUSING_CONFIG, encoding="utf-8")
    for section, entries in overrides.items():
        if entries is None:
            cp.remove_section(section)
        else:
            cp[section].update(entries)
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


# the focusing config on a coarser grid and a shorter schedule, with no
# output paths
FOCUSING_INI = focusing_ini({"geometry": {"resolution": "12"},
                             "schedule": {"alphas": "1 2 3 4 5 6"},
                             "output": None})

VANISHING_INI = textwrap.dedent("""\
    [geometry]
    kind = torus
    dimension = 3
    resolution = 12

    [data]
    psi = cosine(amp=0.3, k=1:0:0)
    pi = constant(value=0.003)
    tau = constant(value=1.0)
    sigma = zero()
    potential = constant(value=0.0)
    h = constant(value=0.5)

    [schedule]
    alphas = 2 3 4 5 6
    perturb_psi = cosine(amp=1.0, k=0:2:0)
    vanish_threshold = 0.2

    [solver]
    tol_residual = 1e-10
    coercivity_check = strict
    """)


# the focusing config with pi = 0 and tau shifted to offset 2: the data
# leave the focusing regime the stability hypotheses ask for
HYPOTHESES_BROKEN_INI = focusing_ini({
    "data": {"pi": "constant(value=0)",
             "tau": "cosine(amp=0.3, k=1:0:0, offset=2.0)"},
    "output": None})


@pytest.fixture
def focusing_cfg(tmp_path):
    path = tmp_path / "focusing.ini"
    path.write_text(FOCUSING_INI)
    return load_config(str(path))


@pytest.fixture(scope="module")
def coarse_focusing_cfg(tmp_path_factory):
    """The focusing config on 8^3, loaded once per module."""
    path = tmp_path_factory.mktemp("coarse") / "focusing.ini"
    path.write_text(focusing_ini({"geometry": {"resolution": "8"},
                                  "output": None}))
    return load_config(str(path))


class TestRecipes:
    def test_parse_recipe_vectors(self):
        name, prm = parse_recipe("cosine(amp=0.5, k=1:0:2, offset=1.0)")
        assert name == "cosine"
        assert prm["k"] == [1.0, 0.0, 2.0]
        assert prm["amp"] == 0.5

    def test_scalar_recipes_resolution_independent(self):
        for N in (8, 16):
            g = Torus(3, N)
            f = scalar_from_recipe(g, "cosine(amp=0.3, k=1:0:0, offset=1.0)")
            assert np.max(f.values) == pytest.approx(1.3)
            assert np.min(f.values) == pytest.approx(0.7)

    def test_lorentz_recipe(self):
        g = Torus(3, 16)
        f = scalar_from_recipe(g, "lorentz(amp=0.1, c=1.5, axis=1)")
        assert np.max(f.values) == pytest.approx(0.2)    # at cos = 1

    def test_tensor_recipe(self):
        g = Torus(3, 8)
        t = tensor_from_recipe(g, "constant_tensor(xy=0.1, zz=-0.2)")
        assert np.allclose(t.values[1], 0.1)
        assert np.allclose(t.values[5], -0.2)

    def test_unknown_recipe_rejected(self):
        g = Torus(3, 8)
        with pytest.raises(ValueError):
            scalar_from_recipe(g, "wavelet(a=1)")

    def test_repeated_parameter_rejected(self):
        # as configparser rejects a repeated key
        with pytest.raises(ValueError, match="'amp'"):
            parse_recipe("cosine(amp=1.0, amp=2.0)")

    @pytest.mark.parametrize("text", ["cosine(amp=1.0,,)", "cosine(,)",
                                      "cosine(amp=1.0,)", "cosine(, amp=1.0)"])
    def test_empty_parameter_rejected(self, text):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_recipe(text)
        # an empty body is no empty item
        assert parse_recipe("cosine()") == parse_recipe("cosine( )") == \
            ("cosine", {})

    @pytest.mark.parametrize("text", ["constant()", "cosine()", "sine()",
                                      "lorentz()"])
    def test_sup_norm_of_the_defaults_is_the_field_sup(self, text):
        # the fields and their norms read the same defaults; each maximum
        # falls on a node of the 16^3 grid
        f = scalar_from_recipe(Torus(3, 16), text)
        assert harness.recipe_ck_norm(text, 0) == pytest.approx(
            np.max(np.abs(f.values)), abs=1e-12)


class TestSweep:
    def test_focusing_stable_band(self, focusing_cfg):
        rows = harness.check_sweep(run_sweep(focusing_cfg))
        assert [r.name for r in rows if not r.passed] == []

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_sup_spread_fails_wherever_a_row_failed(self, position):
        # run_sweep records a failed row's sup_u as NaN
        sups = [1.0, 1.05]
        sups.insert(position, float("nan"))
        report = harness.SweepReport(
            rows=[SimpleNamespace(sup_u=s, converged=not np.isnan(s))
                  for s in sups],
            verdict="NonConvergent", base_regime="Focusing", config_hash="")
        spread, = [r for r in harness.check_sweep(report)
                   if r.name == "sweep_sup_spread"]
        assert np.isnan(spread.measured) and not spread.passed

    def test_zero_schedule_rows_identical(self, focusing_cfg):
        focusing_cfg.perturb = {}
        report = run_sweep(focusing_cfg)
        sups = [r.sup_u for r in report.rows]
        assert np.ptp(sups) < 1e-9
        assert all(r.diff_prev < 1e-8 for r in report.rows)

    def test_classification_stable_under_subsampling(self, focusing_cfg):
        full = run_sweep(focusing_cfg)
        sub = SweepConfig(**{**focusing_cfg.__dict__, "alphas": (2, 4, 6)})
        assert run_sweep(sub).verdict == full.verdict

    def test_vanishing_family(self, tmp_path):
        path = tmp_path / "vanishing.ini"
        path.write_text(VANISHING_INI)
        cfg = load_config(str(path))
        report = run_sweep(cfg)
        assert report.base_regime == "Defocusing"
        assert report.verdict == "VanishingLimit"
        assert report.rows[-1].sup_u < 0.2
        # first alternative: the momentum equation settles at lame W = Y
        assert report.rows[-1].momentum_residual < 1e-10

    def test_failing_row_is_recorded_not_raised(self, focusing_cfg,
                                                monkeypatch, tmp_path):
        focusing_cfg.alphas = (1, 2, 3, 4)
        solve = harness.solve_system
        guesses, solutions = [], []

        def failing_third_call(C, opts, guess=None):
            guesses.append(guess)
            if len(guesses) == 3:
                raise NewtonDivergedError("forced failure")
            solutions.append(solve(C, opts, guess=guess))
            return solutions[-1]

        monkeypatch.setattr(harness, "solve_system", failing_third_call)
        report = run_sweep(focusing_cfg)
        assert len(guesses) == 5 and len(report.rows) == 4
        failed = report.rows[1]
        assert not failed.converged
        assert failed.regime == report.rows[0].regime
        for name in ("sup_u", "inf_u", "sup_LW", "scalar_residual",
                     "momentum_residual", "kernel_defect", "diff_prev",
                     "newton_steps"):
            assert np.isnan(getattr(failed, name))
        assert all(r.converged for r in report.rows[::2] + report.rows[3:])
        # the row after the failure starts from the secant through the base
        # and the last converged row, alpha = 1: the failed row moves neither
        base, last = solutions[0].u.values, solutions[1].u.values
        expected = base + (2.0 ** -3 / 2.0 ** -1) * (last - base)
        np.testing.assert_allclose(guesses[3].values, expected,
                                   rtol=0.0, atol=1e-15)
        assert report.verdict == "NonConvergent"
        write_csv(str(tmp_path / "rows.csv"), report.rows)
        assert ",nan," in (tmp_path / "rows.csv").read_text()

    def test_unconverged_row_moves_no_secant_point(self, focusing_cfg,
                                                   monkeypatch):
        focusing_cfg.alphas = (1, 2, 3, 4)
        solve = harness.solve_system
        guesses, solutions = [], []

        def unconverged_third_call(C, opts, guess=None):
            guesses.append(guess)
            solutions.append(solve(C, opts, guess=guess))
            if len(guesses) == 3:
                solutions[-1] = replace(solutions[-1], converged=False)
            return solutions[-1]

        monkeypatch.setattr(harness, "solve_system", unconverged_third_call)
        report = run_sweep(focusing_cfg)
        assert [r.converged for r in report.rows] == [True, False, True, True]
        # the row after the unconverged one starts from the secant through
        # the base and the last converged row, alpha = 1, and measures its
        # distance from that row
        base, last = solutions[0].u.values, solutions[1].u.values
        expected = base + (2.0 ** -3 / 2.0 ** -1) * (last - base)
        np.testing.assert_allclose(guesses[3].values, expected,
                                   rtol=0.0, atol=1e-15)
        assert report.rows[2].diff_prev == harness._c1_distance(
            focusing_cfg.geometry, solutions[3].u.values, last)
        assert report.verdict == "NonConvergent"

    def test_failing_base_solve_raises(self, focusing_cfg, monkeypatch):
        def failing(C, opts):
            raise NewtonDivergedError("forced failure")

        monkeypatch.setattr(harness, "solve_system", failing)
        with pytest.raises(NewtonDivergedError):
            run_sweep(focusing_cfg)

    def test_newton_steps_per_row_are_pinned(self, focusing_cfg,
                                             monkeypatch):
        # full steps from the interpolating start: each row after the first
        # takes fewer Newton steps than the one before
        solve = harness.solve_system
        steps = []

        def recording(C, opts, guess=None):
            sol = solve(C, opts, guess=guess)
            steps.append(sol.iterations)
            return sol

        monkeypatch.setattr(harness, "solve_system", recording)
        assert run_sweep(focusing_cfg).verdict == "Stable-band"
        assert steps == [8, 7, 6, 5, 4, 3, 2]
        assert max(steps[1:]) <= steps[0]

    @pytest.mark.parametrize("shared_h", [True, False])
    def test_coercivity_is_checked_once_per_shared_h(self, coarse_focusing_cfg,
                                                      shared_h):
        # a stand-in solve: on the flat torus the derived h = c R_psi <= 0
        # is not coercive, so without an override a real row solve would
        # raise NonCoerciveError
        cfg = SweepConfig(**{**coarse_focusing_cfg.__dict__,
                             "solver": replace(coarse_focusing_cfg.solver,
                                               coercivity_check="weak")})
        if not shared_h:
            cfg.h_override = None
        g = cfg.geometry
        received = []

        def stand_in(C, opts, guess=None):
            received.append(opts)
            return Solution(u=ScalarField.constant(g, 1.0),
                            W=OneFormField.zero(g), scalar_residual=0.0,
                            momentum_residual=0.0, kernel_defect=0.0,
                            iterations=1, converged=True)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "solve_system", stand_in)
            run_sweep(cfg)
        assert len(received) == 1 + len(cfg.alphas)
        assert received[0] == cfg.solver
        row_opts = (replace(cfg.solver, coercivity_check="off") if shared_h
                    else cfg.solver)
        assert all(opts == row_opts for opts in received[1:])

    def test_unconverged_base_solve_raises_a_solver_error(self, tmp_path):
        # one Newton step leaves the base scalar residual near 0.4
        path = tmp_path / "one_step.ini"
        path.write_text(focusing_ini({"solver": {"max_outer": "1"}}))
        with pytest.raises(SolverError,
                           match="base data solve did not converge"):
            run_sweep(load_config(str(path)))

    def test_data_breaking_the_hypotheses_raise_a_typed_error(self,
                                                              tmp_path):
        # tau^2 outweighs 2 V(psi) on most of the torus, so B changes sign,
        # and pi = 0 takes away b = c pi^2, the floor of a(W): the base
        # solve must fail with a typed error, not return a solution
        path = tmp_path / "broken.ini"
        path.write_text(HYPOTHESES_BROKEN_INI)
        cfg = load_config(str(path))
        assert classify(coefficients(cfg.base)[1]) == "Mixed"
        assert not np.any(cfg.base.pi.values)
        with pytest.raises(SolverError):
            run_sweep(cfg)

    def test_schedule_must_decrease(self, focusing_cfg):
        with pytest.raises(ValueError):
            SweepConfig(**{**focusing_cfg.__dict__, "alphas": (3, 2, 1)})

    @pytest.mark.parametrize("alphas, bad", [((-1100, 1, 2), -1100),
                                             ((1, 2, 1075), 1075),
                                             ((1, 1075, 1076), 1075)])
    def test_eps_outside_the_doubles_rejected(self, focusing_cfg, alphas,
                                              bad):
        # 2^-alpha overflows below alpha = -1023 and rounds to 0.0 above
        # 1074, the last subnormal
        with pytest.raises(ValueError, match=f"^alpha {bad} gives"):
            SweepConfig(**{**focusing_cfg.__dict__, "alphas": alphas})

    def test_perturbation_amplitude_tracks_derivative_order(self, focusing_cfg):
        # a tau shape with wavevector 2 has C^3 norm 8, so the applied
        # perturbation amplitude is eps / 8
        data = harness._perturbed_data(focusing_cfg, 0.5)
        delta = data.tau.values - focusing_cfg.base.tau.values
        assert np.max(np.abs(delta)) == pytest.approx(0.5 / 8.0, rel=1e-10)
        # pi is perturbed in sup norm: amplitude eps itself
        dpi = data.pi.values - focusing_cfg.base.pi.values
        assert np.max(np.abs(dpi)) == pytest.approx(0.5, rel=1e-10)

    def test_unperturbed_fields_are_the_base_fields(self, focusing_cfg):
        focusing_cfg.perturb = {"tau": focusing_cfg.perturb["tau"]}
        base_tau = focusing_cfg.base.tau.values.copy()
        data = harness._perturbed_data(focusing_cfg, 0.5)
        for key in ("psi", "pi", "sigma", "potential"):
            assert getattr(data, key) is getattr(focusing_cfg.base, key), key
        assert np.array_equal(focusing_cfg.base.tau.values, base_tau)
        assert np.any(data.tau.values != base_tau)


    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=3, max_size=6,
                    unique=True).map(sorted),
           st.lists(st.booleans(), min_size=6, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    # the halving schedule, whose draws at seed 0 reach both the
    # interpolant and its fallback, with and without failed rows
    @example([0, 1, 2, 3, 4, 5], [False] * 6, 0)
    @example([0, 1, 2, 3, 4, 5], [False, True, False, False, True, False], 0)
    def test_each_row_starts_from_the_interpolant(self, coarse_focusing_cfg,
                                                  alphas, fails, seed):
        # stand-in solves return positive fields, half of them down to near
        # the floor, the rest within [1, 10^0.5], where the interpolant of
        # the schedule (Lebesgue constant at most 1.44) stays positive; a
        # row marked in fails raises instead and becomes no node
        cfg = SweepConfig(**{**coarse_focusing_cfg.__dict__,
                             "alphas": tuple(alphas)})
        g = cfg.geometry
        rng = np.random.default_rng(seed)
        starts, returned = [], []

        def stand_in(C, opts, guess=None):
            if guess is not None:
                starts.append(guess.values.copy())
                if fails[len(starts) - 1]:
                    raise NewtonDivergedError("forced failure")
            low = rng.choice([-7.9, 0.0])
            u = 10.0 ** rng.uniform(low, 0.5, g.grid_shape)
            returned.append(u)
            return Solution(u=ScalarField(g, u), W=OneFormField.zero(g),
                            scalar_residual=0.0, momentum_residual=0.0,
                            kernel_defect=0.0, iterations=1, converged=True)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "solve_system", stand_in)
            report = run_sweep(cfg)
        assert len(starts) == len(alphas) == len(report.rows)
        base = returned.pop(0)
        nodes = [(0.0, base)]
        for start, eps, failed in zip(starts, cfg.epsilons, fails):
            # Lagrange form sum_j L_j(eps) u_j through the base and the
            # last three converged rows
            knots = [e for e, _ in nodes]
            expected = sum(
                np.prod([(eps - ei) / (ej - ei) for ei in knots if ei != ej])
                * uj for ej, uj in nodes)
            if np.min(expected) > _U_FLOOR:
                np.testing.assert_allclose(start, expected, rtol=1e-12,
                                           atol=1e-14)
            else:
                last_eps, last = nodes[-1]
                secant = base + (eps / last_eps) * (last - base)
                np.testing.assert_allclose(start, secant, rtol=1e-15, atol=0.0)
                assert np.all(start >= np.minimum(base, last) * (1 - 1e-15))
                assert np.all(start <= np.maximum(base, last) * (1 + 1e-15))
            assert np.min(start) > _U_FLOOR
            if not failed:
                nodes = [nodes[0]] + nodes[1:][-2:] + [(eps, returned.pop(0))]

    def test_c1_distance_counts_sup_norm_once(self):
        g = load_config(FOCUSING_CONFIG).geometry
        d = 0.1 + 0.01 * np.cos(g.coords()[0]) + np.zeros(g.grid_shape)
        # sup|d| = 0.11 and sup|d_x d| = 0.01
        assert harness._c1_distance(g, d, np.zeros(g.grid_shape)) == \
            pytest.approx(0.12, abs=1e-12)


class TestPotentialNorm:
    def test_focusing_shape_norm(self, focusing_cfg):
        # V = s^2 / 2 on [-3, 3]: sup|V| = 4.5 beats sup|V'| = 3, |V''| = 1
        assert focusing_cfg.perturb["potential"][1] == 4.5

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(-10.0, 10.0)] * 3))
    def test_closed_form_matches_dense_reference(self, coefs):
        pot = Potential.quadratic(*coefs)
        c0, c1, c2 = coefs

        def sampled(s):
            return max(float(np.max(np.abs(pot(s)))),
                       float(np.max(np.abs(c1 + c2 * s))), abs(c2))

        dense = np.linspace(-3.0, 3.0, 60001)
        if c2 != 0.0 and abs(c1) <= 3.0 * abs(c2):
            dense = np.append(dense, -c1 / c2)
        norm = harness._potential_c2_norm(pot)
        scale = abs(c0) + 3.0 * abs(c1) + 4.5 * abs(c2)
        assert norm == pytest.approx(sampled(dense), rel=1e-13,
                                     abs=1e-13 * scale)
        # a 2,001-point sample can miss the vertex, but never exceeds the
        # closed form beyond roundoff
        assert norm >= sampled(np.linspace(-3.0, 3.0, 2001)) - 1e-13 * scale


class TestInstabilityDemo:
    def test_rows_and_monotonicity(self):
        # the verify grid: at 1024 nodes the vector residual is 1.7e-5
        rows = run_instability_demo((1.1, 1.5), resolution=2048)
        assert [r.lam for r in rows] == [1.5, 1.1]
        failed = [r.name for r in check_instability(rows) if not r.passed]
        assert failed == []

    def test_repeated_lambda_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            run_instability_demo((1.5, 1.5), resolution=1024)

    @pytest.mark.parametrize("lambdas", [(), (1.5,)])
    def test_fewer_than_two_lambdas_rejected_before_assembly(
            self, monkeypatch, lambdas):
        # check_instability compares consecutive members, so the family is
        # rejected before any member is assembled
        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled a member of a rejected family")

        monkeypatch.setattr("lichlab.instability.assemble", no_assembly)
        with pytest.raises(ValueError, match="at least two, got"):
            run_instability_demo(lambdas, resolution=1024)

    @pytest.mark.parametrize("lam", [1.0, np.nan, np.inf])
    def test_lambda_outside_the_family_rejected(self, lam):
        with pytest.raises(ValueError, match="finite and exceed 1"):
            run_instability_demo((1.5, lam), resolution=1024)


class TestVerificationSuite:
    def test_selector_filters(self):
        rows = run_verification_suite("bubbles")
        assert rows and all(r.group == "bubbles" for r in rows)

    def test_bad_selector_rejected(self, monkeypatch):
        # a selector names one group exactly: "o" is in the names
        # diagnostics, geometry and solver, and "bubble" begins one
        ran = []
        monkeypatch.setattr(harness, "SUITES", {
            group: [lambda group=group: ran.append(group) or []]
            for group in harness.SUITES})
        for selector in ("nonexistent-group", "o", "e", "bubble", "Green",
                         ""):
            with pytest.raises(ValueError) as err:
                run_verification_suite(selector)
            assert all(group in str(err.value) for group in harness.SUITES)
        assert ran == []

    def test_injected_constant_error_fails(self, monkeypatch):
        import lichlab.bubbles as bubbles

        original = bubbles.blowup_constants

        def corrupted(n):
            c = original(n)
            return type(c)(C1=c.C1, C2=c.C2, bubble_energy=c.bubble_energy,
                           stability_coef=-c.stability_coef)

        monkeypatch.setattr(bubbles, "blowup_constants", corrupted)
        rows = run_verification_suite("bubbles")
        failed = [r for r in rows if not r.passed]
        assert any("constants" in r.name for r in failed)

    def test_whole_suite_passes(self):
        rows = run_verification_suite()
        assert [r.name for r in rows if not r.passed] == []
        assert [r.name for r in rows] == VERIFY_ROW_NAMES

    @pytest.mark.parametrize("check", [
        lambda: harness.check_round_trip((64,)),
        lambda: harness.check_pohozaev(grids=(33,)),
        lambda: harness.check_representation(finest_level=0)],
        ids=["round_trip", "pohozaev", "representation"])
    def test_refinement_check_needs_two_sizes(self, check, monkeypatch):
        # a refinement order compares consecutive sizes: one size is
        # rejected before any solve or quadrature starts
        import lichlab.diagnostics as diagnostics
        import lichlab.green as green

        calls = []

        def work(*args, **kwargs):
            calls.append(1)

        monkeypatch.setattr(harness, "solve_system", work)
        monkeypatch.setattr(diagnostics, "pohozaev_defect", work)
        monkeypatch.setattr(green, "representation_residual", work)
        with pytest.raises(ValueError, match="at least two"):
            check()
        assert not calls

    def test_lame_fault_fails_energy_identity_at_both_sizes(self,
                                                            monkeypatch):
        lame = harness.lame
        monkeypatch.setattr(harness, "lame", lambda W: OneFormField(
            W.geometry, 1.01 * lame(W).values))
        for rows in (run_verification_suite("geometry"),
                     harness.check_energy_identity(32, draws=50, band=3)):
            assert [r.passed for r in rows
                    if r.name == "energy_identity"] == [False]


VERIFY_ROW_NAMES = """energy_identity bubble_residual constants_c6
    constants_k3 constants_quadrature asymptotics_first_order
    asymptotics_second_order kernel_symmetry kernel_homogeneity
    kernel_annihilation killing_dimension killing_orthonormality
    killing_derivative representation_residual representation_halving
    pohozaev_defect pohozaev_order covariance_order instability_scalar
    instability_vector instability_cancellation instability_sup_closed_form
    instability_sup_increasing instability_data_spread
    instability_stability_margin manufactured_iterations
    manufactured_u_error manufactured_W_error round_trip_unconverged
    round_trip_hamiltonian_order round_trip_momentum_order""".split()


class TestOutputs:
    @pytest.mark.parametrize("row", [
        {"a": 0.1 + 0.2, "b": True, "c": 7},
        # NumPy 2 reprs a float64 as np.float64(0.3...), and its bool is no
        # Python bool; run_instability_demo's lam is a NumPy float when the
        # lambdas come as an array
        {"a": np.float64(0.1 + 0.2), "b": np.bool_(True), "c": np.int64(7)},
    ])
    def test_csv_round_trip_floats(self, tmp_path, row):
        path = tmp_path / "t.csv"
        write_csv(str(path), [row])
        header, line = path.read_text().strip().split("\n")
        assert header == "a,b,c"
        assert line == "0.30000000000000004,true,7"
        val = line.split(",")[0]
        assert float(val) == 0.1 + 0.2        # exact round trip

    def test_sweep_outputs_deterministic(self, tmp_path, focusing_cfg):
        focusing_cfg.alphas = (1, 2, 3, 4)
        blobs = []
        for tag in ("x", "y"):
            report = run_sweep(focusing_cfg)
            path = tmp_path / f"{tag}.csv"
            write_csv(str(path), report.rows)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_cli_sweep_and_verify(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(focusing_ini({"geometry": {"resolution": "12"},
                                     "schedule": {"alphas": "1 2 3 4"},
                                     "output": None}))
        out = tmp_path / "run"
        code = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["verdict"] == "Stable-band"
        assert "config_hash" in summary and "versions" in summary
        csv_text = (tmp_path / "run.csv").read_text()
        assert csv_text.startswith("alpha,eps,")

    def test_newton_steps_are_the_last_column(self, tmp_path, monkeypatch,
                                              capsys):
        solve = harness.solve_system
        steps = []

        def recording(C, opts, guess=None):
            sol = solve(C, opts, guess=guess)
            steps.append(sol.iterations)
            return sol

        cfg = tmp_path / "cfg.ini"
        cfg.write_text(focusing_ini({"geometry": {"resolution": "12"},
                                     "schedule": {"alphas": "1 2 3 4"},
                                     "output": None}))
        monkeypatch.setattr(harness, "solve_system", recording)
        out = tmp_path / "run"
        assert cli_main(["sweep", "--config", str(cfg),
                         "--out", str(out)]) == 0
        header, *lines = (tmp_path / "run.csv").read_text().splitlines()
        assert header.endswith(",diff_prev,newton_steps")
        assert [line.rsplit(",", 1)[1] for line in lines] == \
            [str(n) for n in steps[1:]]
        printed = re.findall(r"steps=(\d+)", capsys.readouterr().out)
        assert printed == [str(n) for n in steps[1:]]

    def test_cli_solve(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(FOCUSING_INI)
        out = tmp_path / "solve"
        code = cli_main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert "converged = True" in capsys.readouterr().out
        assert (tmp_path / "solve.csv").exists()

    def test_cli_constants(self, capsys):
        assert cli_main(["constants", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "stability_coef(6) = 0.2" in out

    def test_cli_instability3_csv_has_the_report_fields(self, tmp_path):
        out = tmp_path / "blowup"
        assert cli_main(["instability3", "--lambdas", "1.25,1.5",
                         "--resolution", "2048", "--out", str(out)]) == 0
        header, *rows = (tmp_path / "blowup.csv").read_text().splitlines()
        assert header.split(",") == [
            "lam", "scalar_residual", "vector_residual", "sup_phi",
            "sup_phi_closed_form", "norm_U", "norm_Y", "cancellation",
            "stability_margin"]
        assert [row.split(",")[0] for row in rows] == ["1.5", "1.25"]

    @pytest.mark.parametrize("argv", [
        # the blow-up check compares consecutive members of the family
        ["instability3", "--lambdas", "1.5", "--resolution", "2048"],
        ["instability3", "--lambdas", "1.5,1.5"],
        ["instability3", "--lambdas", "1.5,x"],
        ["instability3", "--lambdas", "1.5,nan"],
        ["instability3", "--lambdas", "1.5,inf"],
        # C2 overflows to -inf at n = 142, and a power raises OverflowError
        # at n = 144
        ["constants", "--n", "142"],
        ["constants", "--n", "144"],
        ["sweep", "--config", "missing.ini"],
        ["sweep", "--config", "short.ini"],
        ["sweep", "--config", "overflow.ini"],
    ])
    def test_cli_input_error_is_one_line(self, argv, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "short.ini").write_text(
            "[geometry]\nresolution = 8\n[data]\n[schedule]\nalphas = 1 2\n")
        (tmp_path / "overflow.ini").write_text(
            "[geometry]\nresolution = 8\n[data]\n[schedule]\n"
            "alphas = -1100 1 2\n")
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("lichlab: error: ") and err.count("\n") == 1
        # rejected before any work: no row of a run that cannot pass
        assert out == ""

    def test_cli_sweep_exits_1_on_an_unconverged_row(self, tmp_path,
                                                    monkeypatch):
        solve = harness.solve_system

        def failing_rows(C, opts, guess=None):
            if guess is not None:
                raise NewtonDivergedError("forced failure")
            return solve(C, opts)

        cfg = tmp_path / "cfg.ini"
        cfg.write_text(focusing_ini({"geometry": {"resolution": "12"},
                                     "schedule": {"alphas": "1 2 3"},
                                     "output": None}))
        monkeypatch.setattr(harness, "solve_system", failing_rows)
        out = tmp_path / "run"
        code = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["verdict"] == "NonConvergent"

    def test_cli_solver_error_propagates(self, tmp_path, monkeypatch):
        def failing(cfg):
            raise NewtonDivergedError("forced failure")

        cfg = tmp_path / "cfg.ini"
        cfg.write_text(FOCUSING_INI)
        monkeypatch.setattr("lichlab.cli.run_sweep", failing)
        with pytest.raises(NewtonDivergedError):
            cli_main(["sweep", "--config", str(cfg)])

    def test_cli_verify_selector(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = cli_main(["verify", "--select", "bubbles",
                         "--out", str(out)])
        assert code == 0
        text = (tmp_path / "v.csv").read_text()
        assert "constants_quadrature" in text


_RECIPES = ["constant(value={})", "cosine(k={}, offset={})", "sine(amp={})",
            "lorentz(axis={}, c={})", "quadratic(c2={})", "zero(xy={})",
            "constant_tensor(xy={}, zz={})", "wavelet(a={})"]
# each section's keys, the last one misspelled
_KEYS = {"geometry": ["kind", "dimension", "resolution", "resolutoin"],
         "data": ["psi", "tau", "h", "sigma", "potential", "tua"],
         "schedule": ["alphas", "perturb_tau", "perturb_potential",
                      "perturb_tua"],
         "solver": ["damping", "max_outer", "tol_residual", "dampng"]}
_ENTRIES = {"kind": ["torus", "sphere"], "dimension": ["3", "4", "2", "x"],
            "resolution": ["8", "9", "7", "abc"],
            "alphas": ["1 2 3", "3 2", "a"], "damping": ["0.7", "2", "x"],
            "max_outer": ["80", "0", "1.5"],
            "tol_residual": ["1e-10", "nan", "-1"],
            "psi": _RECIPES, "tau": _RECIPES, "h": _RECIPES,
            "sigma": _RECIPES, "potential": _RECIPES,
            "perturb_tau": _RECIPES, "perturb_potential": _RECIPES,
            "resolutoin": ["8"], "tua": ["1"], "perturb_tua": ["1"],
            "dampng": ["0.7"]}
_VALUES = ["1", "-1", "0", "1.5", "3", "2:0:0", "0:1", "1:0:0:0:0", "1:",
           "nan", "inf", "", "abc", "%"]


@st.composite
def _ini_text(draw):
    """INI text with mostly well-formed entries, so that most draws reach
    the recipe code.  The grid is allocated on load: it stays small."""
    lines = []
    for name in ("geometry", "data", "schedule", "solver"):
        if draw(st.sampled_from([True, True, True, False])):
            lines.append(f"[{name}]")
            for key in draw(st.lists(st.sampled_from(_KEYS[name]),
                                     max_size=5, unique=True)):
                args = draw(st.lists(st.sampled_from(_VALUES), min_size=2,
                                     max_size=2))
                value = draw(st.sampled_from(_ENTRIES[key])).format(*args)
                lines.append(f"{key} = {value}")
    if draw(st.sampled_from([False, False, False, True])):
        junk = st.text(st.characters(blacklist_categories=("Cs",)),
                       max_size=20)
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "\n".join(lines)


class TestMalformedInput:
    @pytest.mark.parametrize("text", [
        "[geometry]\n", "[data]\n", "resolution = 8\n",
        "[geometry]\n[data]\n[geometry]\n",
        "[geometry]\n[data]\npsi = cosine(=1)\n",
        "[geometry]\n[data]\npsi = constant(value=1:2)\n",
        "[geometry]\n[data]\npotential = constant(value=nan)\n",
        "[geometry]\n[data]\npsi = cosine(k=1:0:0:1)\n",
        "[geometry]\n[data]\npsi = cosine(k=2)\n",
        "[geometry]\n[data]\npsi = cosine(amplitude=5)\n",
        "[geometry]\n[data]\npsi = const(value=1)\n",
        "[geometry]\n[data]\nsigma = none()\n",
        "[geometry]\n[data]\n[schedule]\nperturb_tau = wavelet(a=1)\n",
        "[geometry]\n[data]\n[schedule]\nperturb_psi = constant(value=0)\n",
        "[geometry]\n[data]\n[schedule]\nalphas =\n",
        "[geometry]\n[data]\n[schedule]\nalphas = 1 2\n",
        "[geometry]\n[data]\n[schedule]\nperturb_tau = none\n",
        "[geometry]\n[data]\npsi = lorentz(axis=3)\n",
        "[geometry]\nperiod = 0\n[data]\n",
        "[geometry]\nperiod = 6.283185307179586\n[data]\n",
        "[geometry]\ndimension = 5\nresolution = 8\n"
        "[data]\nsigma = constant_tensor(xy=1)\n",
        "[geometry]\n[data]\n[schedule]\n"
        "perturb_tua = cosine(amp=1.0, k=0:2:0)\n",
        "[geometry]\n[data]\n[solver]\ntol_residul = 1e-12\n",
        "[geometry]\n[data]\n[solvr]\ntol_residual = 1e-12\n",
        "[geometry]\n[data]\n[solver]\ntol_residual = nan\n",
        "[geometry]\n[data]\n[solver]\nmax_outer = 0\n",
        "[geometry]\n[data]\n[solver]\nu_floor = inf\n",
        "[geometry]\n[data]\n[solver]\nmax_newton = 0\n",
        "[geometry]\n[data]\n[schedule]\nvanish_threshold = nan\n",
        "[geometry]\n[data]\n[schedule]\nvanish_threshold = inf\n",
        "[geometry]\n[data]\n[schedule]\nvanish_threshold = 0\n",
        "[geometry]\n[data]\n[schedule]\nvanish_threshold = -1e-3\n",
    ])
    def test_malformed_config_raises_value_error(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_config(str(path))

    def test_unset_keys_keep_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "minimal.ini"
        path.write_text("[geometry]\nresolution = 8\n[data]\n")
        cfg = load_config(str(path))
        assert cfg.geometry == Torus(3, 8)
        assert cfg == SweepConfig(geometry=cfg.geometry, base=cfg.base,
                                  config_text=cfg.config_text)

    def test_empty_perturbation_is_no_perturbation(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[geometry]\nresolution = 8\n[data]\n"
                        "[schedule]\nperturb_tau =\n")
        assert load_config(str(path)).perturb == {}

    # a sigma with a trace loads, with PhysicsData's warning
    @pytest.mark.filterwarnings("ignore:sigma has g-trace defect:UserWarning")
    @settings(max_examples=500, deadline=None)
    @given(_ini_text())
    def test_ini_text_loads_or_raises_value_error(self, tmp_path_factory,
                                                    text):
        path = tmp_path_factory.getbasetemp() / "fuzz.ini"
        path.write_text(text, encoding="utf-8")
        try:
            load_config(str(path))
        except ValueError:
            pass


def readme_ini_block():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        block, = re.findall(r"```ini\n(.*?)```", fh.read(), re.DOTALL)
    return block


class TestReadmeConfig:
    def test_readme_block_names_every_key(self):
        # a key the example does not set is shown as a comment line
        block = readme_ini_block()
        for section, keys in harness._SECTIONS.items():
            assert f"[{section}]\n" in block, section
            for key in keys:
                assert re.search(rf"^(# )?{key} =", block, re.MULTILINE), key

    def test_readme_block_is_the_focusing_config(self, tmp_path):
        # output paths and the config text may differ
        path = tmp_path / "readme.ini"
        path.write_text(readme_ini_block())
        doc = load_config(str(path))
        ref = load_config(FOCUSING_CONFIG)

        assert doc.geometry == ref.geometry
        assert doc.solver == ref.solver
        assert doc.alphas == ref.alphas
        assert doc.vanish_threshold == ref.vanish_threshold
        assert np.array_equal(doc.h_override.values, ref.h_override.values)
        for name in ("psi", "pi", "tau", "sigma"):
            assert np.array_equal(getattr(doc.base, name).values,
                                  getattr(ref.base, name).values), name
        assert doc.base.potential == ref.base.potential
        assert doc.perturb.keys() == ref.perturb.keys()
        for key, (shape, norm) in ref.perturb.items():
            doc_shape, doc_norm = doc.perturb[key]
            assert doc_norm == norm, key
            if key == "potential":
                assert doc_shape == shape
            else:
                assert np.array_equal(doc_shape.values, shape.values), key
