import json
import os
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lichlab.harness as harness
from lichlab.cli import main as cli_main
from lichlab.geometry import OneFormField, Torus
from lichlab.harness import (
    SweepConfig,
    load_config,
    parse_recipe,
    run_instability_demo,
    run_sweep,
    run_verification_suite,
    scalar_from_recipe,
    tensor_from_recipe,
    write_csv,
)

FOCUSING_INI = textwrap.dedent("""\
    [geometry]
    kind = torus
    dimension = 3
    resolution = 12

    [data]
    psi = cosine(amp=1.0, k=1:0:0)
    pi = cosine(amp=0.2, k=0:2:0, offset=1.0)
    tau = cosine(amp=0.3, k=1:0:0)
    sigma = zero()
    potential = quadratic(c0=1.0, c2=0.06)
    h = constant(value=1.0)

    [schedule]
    alphas = 1 2 3 4 5 6
    perturb_tau = cosine(amp=1.0, k=0:2:0)
    perturb_psi = cosine(amp=1.0, k=0:0:2)
    perturb_pi = cosine(amp=1.0, k=2:0:0)
    perturb_potential = quadratic(c2=1.0)

    [solver]
    max_outer = 80
    tol_residual = 1e-10
    damping = 0.7
    coercivity_check = strict

    [output]
    csv = sweep.csv
    json = sweep.json
    """)

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


@pytest.fixture
def focusing_cfg(tmp_path):
    path = tmp_path / "focusing.ini"
    path.write_text(FOCUSING_INI)
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


class TestSweep:
    def test_focusing_stable_band(self, focusing_cfg):
        report = run_sweep(focusing_cfg)
        assert report.base_regime == "Focusing"
        assert report.all_converged
        assert report.verdict == "Stable-band"
        sups = [r.sup_u for r in report.rows]
        assert (max(sups) - min(sups)) / min(sups) < 0.10
        diffs = [r.diff_prev for r in report.rows]
        assert diffs[-3] > diffs[-2] > diffs[-1]

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

    def test_schedule_must_decrease(self, focusing_cfg):
        with pytest.raises(ValueError):
            SweepConfig(**{**focusing_cfg.__dict__, "alphas": (3, 2)})

    def test_perturbation_amplitude_tracks_derivative_order(self, focusing_cfg):
        # a tau shape with wavevector 2 has C^3 norm 8, so the applied
        # perturbation amplitude is eps / 8
        data = harness._perturbed_data(focusing_cfg, 0.5)
        delta = data.tau.values - focusing_cfg.base.tau.values
        assert np.max(np.abs(delta)) == pytest.approx(0.5 / 8.0, rel=1e-10)
        # pi is perturbed in sup norm: amplitude eps itself
        dpi = data.pi.values - focusing_cfg.base.pi.values
        assert np.max(np.abs(dpi)) == pytest.approx(0.5, rel=1e-10)


    def test_c1_distance_counts_sup_norm_once(self):
        cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", "sweep_focusing.ini"))
        g = cfg.geometry
        d = 0.1 + 0.01 * np.cos(g.coords()[0]) + np.zeros(g.grid_shape)
        # sup|d| = 0.11 and sup|d_x d| = 0.01
        assert harness._c1_distance(g, d, np.zeros(g.grid_shape)) == \
            pytest.approx(0.12, abs=1e-12)


class TestInstabilityDemo:
    def test_rows_and_monotonicity(self):
        rows = run_instability_demo((1.5, 1.1), resolution=1024)
        assert [r["lambda"] for r in rows] == [1.5, 1.1]
        assert rows[0]["sup_phi"] < rows[1]["sup_phi"]
        for r in rows:
            assert r["scalar_residual"] < 1e-6
            assert abs(r["sup_phi"] - r["sup_phi_closed_form"]) < 1e-9


class TestVerificationSuite:
    def test_selector_filters(self):
        rows = run_verification_suite("bubbles")
        assert rows and all(r.group == "bubbles" for r in rows)

    def test_bad_selector_rejected(self):
        with pytest.raises(ValueError):
            run_verification_suite("nonexistent-group")

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
        assert set(VERIFY_ROW_NAMES) <= {r.name for r in rows}

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
    constants_k3 constants_quadrature kernel_symmetry kernel_homogeneity
    kernel_annihilation killing_dimension killing_orthonormality
    killing_derivative representation_residual representation_halving
    pohozaev_defect pohozaev_order covariance_order instability_scalar
    instability_vector instability_cancellation
    instability_sup_closed_form""".split()


class TestOutputs:
    def test_csv_round_trip_floats(self, tmp_path):
        rows = [{"a": 0.1 + 0.2, "b": True, "c": 7}]
        path = tmp_path / "t.csv"
        write_csv(str(path), rows)
        header, line = path.read_text().strip().split("\n")
        assert header == "a,b,c"
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
        cfg.write_text(FOCUSING_INI.replace("alphas = 1 2 3 4 5 6",
                                            "alphas = 1 2 3 4"))
        out = tmp_path / "run"
        code = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["verdict"] == "Stable-band"
        assert "config_hash" in summary and "versions" in summary
        csv_text = (tmp_path / "run.csv").read_text()
        assert csv_text.startswith("alpha,eps,")

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
_ENTRIES = {"kind": ["torus", "sphere"], "dimension": ["3", "4", "2", "x"],
            "resolution": ["8", "9", "7", "abc"], "period": ["6.28", "0"],
            "alphas": ["1 2 3", "3 2", "a"], "damping": ["0.7", "2", "x"],
            "psi": _RECIPES, "tau": _RECIPES, "h": _RECIPES,
            "sigma": _RECIPES, "potential": _RECIPES}
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
            for key in draw(st.lists(st.sampled_from(sorted(_ENTRIES)),
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
        "[geometry]\n[data]\n[schedule]\nperturb_tau = wavelet(a=1)\n",
        "[geometry]\n[data]\n[schedule]\nperturb_psi = constant(value=0)\n",
        "[geometry]\n[data]\npsi = lorentz(axis=3)\n",
        "[geometry]\nperiod = 0\n[data]\n",
        "[geometry]\ndimension = 5\nresolution = 8\n"
        "[data]\nsigma = constant_tensor(xy=1)\n",
    ])
    def test_malformed_config_raises_value_error(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_config(str(path))

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
    def test_worker_count_rejects_non_positive_integers(self, monkeypatch,
                                                        value):
        monkeypatch.setenv(harness.WORKERS_ENV, value)
        with pytest.raises(ValueError):
            harness.worker_count()

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
