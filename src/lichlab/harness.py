"""Sweeps, demos, and verification suites.

Configuration is a flat INI document with sections [geometry], [data],
[schedule], [solver], [output].  Field values are symbolic recipes of the
form ``name(param=value, ...)``; vector parameters use colon-separated
components (``k=1:0:0``).  Recipes keep configs resolution-independent.

Scalar recipes:   constant(value=)
                  cosine(amp=, k=, offset=)       sine(amp=, k=, offset=)
                  lorentz(amp=, c=, axis=, offset=)   [amp / (c - cos x_axis)]
Potential:        constant(value=)                quadratic(c0=, c1=, c2=)
Tensor (sigma):   zero()                          constant_tensor(xy=, xz=, ...)

A parameter the recipe does not take raises ValueError.

A stability sweep perturbs the base data along a strictly decreasing
schedule eps_alpha = 2^{-alpha}; each perturbation shape is normalized in
the norm matching its field's convergence topology (tau through third
derivatives, psi and the potential through second, pi and sigma in sup
norm), so eps_alpha is exactly the perturbation's size in that topology.
The shapes and their norms are built once, when the config loads.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .conformal import (
    PhysicsData,
    Potential,
    SystemCoefficients,
    classify,
    coefficients,
    normalize,
)
from .geometry import (
    OneFormField,
    ScalarField,
    SymTensorField,
    Torus,
    conformal_killing_deriv,
    lame,
    partial_deriv,
    sym_index,
    sym_weights,
    tensor_norm_squared,
)
from .solver import SolveOptions, solve_system

__all__ = [
    "parse_recipe",
    "scalar_from_recipe",
    "potential_from_recipe",
    "tensor_from_recipe",
    "recipe_ck_norm",
    "SweepConfig",
    "SweepRow",
    "SweepReport",
    "load_config",
    "run_sweep",
    "run_instability_demo",
    "run_verification_suite",
    "write_csv",
    "write_json_summary",
    "worker_count",
]

WORKERS_ENV = "LICHLAB_WORKERS"


def worker_count():
    """LICHLAB_WORKERS as a positive integer; 1 when unset."""
    text = os.environ.get(WORKERS_ENV, "1")
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(
            f"{WORKERS_ENV} must be a positive integer, not {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------

def parse_recipe(text):
    """'name(a=1, k=1:0:0)' -> (name, {'a': 1.0, 'k': [1.0, 0.0, 0.0]})."""
    text = text.strip()
    if "(" not in text:
        return text, {}
    if not text.endswith(")"):
        raise ValueError(f"malformed recipe {text!r}")
    name, body = text[:-1].split("(", 1)
    params = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, val = item.partition("=")
        key, val = key.strip(), val.strip()
        if not _ or not key:
            raise ValueError(f"malformed recipe parameter {item!r}")
        nums = [float(c) for c in val.split(":")]
        if not np.all(np.isfinite(nums)):
            raise ValueError(f"recipe parameter {key!r} is not finite")
        params[key] = nums if ":" in val else nums[0]
    return name.strip(), params


_SCALAR_PARAMS = {"constant": ("value",), "const": ("value",),
                  "cosine": ("amp", "k", "offset"),
                  "sine": ("amp", "k", "offset"),
                  "lorentz": ("amp", "c", "axis", "offset")}
_POTENTIAL_PARAMS = {"constant": ("value",), "const": ("value",),
                     "quadratic": ("c0", "c1", "c2")}


def _parse_known(text, known):
    """parse_recipe(text); ValueError on a parameter the recipe does not take.

    known maps recipe names to their parameter names; an unknown name is
    left for the caller to reject.
    """
    name, prm = parse_recipe(text)
    unknown = sorted(set(prm) - set(known.get(name, prm)))
    if unknown:
        raise ValueError(f"recipe {name!r} has no parameter "
                         f"{', '.join(map(repr, unknown))}")
    return name, prm


def _param(prm, key, default):
    """Recipe parameter key, a number or (if default is a list) a vector."""
    val = prm.get(key, default)
    if isinstance(val, list) != isinstance(default, list):
        kind = "a vector a:b:c" if isinstance(default, list) else "one number"
        raise ValueError(f"recipe parameter {key!r} takes {kind}")
    return val


def _phase(g, k):
    if len(k) > g.dimension:
        raise ValueError(f"wavevector {k} has more than {g.dimension} "
                         "components")
    x = g.coords()
    k = list(k) + [0.0] * (g.dimension - len(k))
    return sum(kj * xj for kj, xj in zip(k, x))


def scalar_from_recipe(g, text):
    name, prm = _parse_known(text, _SCALAR_PARAMS)
    shape = g.grid_shape
    offset, amp = _param(prm, "offset", 0.0), _param(prm, "amp", 1.0)
    if name in ("constant", "const"):
        return ScalarField.constant(g, _param(prm, "value", 0.0))
    if name in ("cosine", "sine"):
        wave = np.cos if name == "cosine" else np.sin
        vals = offset + amp * wave(_phase(g, _param(prm, "k", [1.0])))
        return ScalarField(g, vals + np.zeros(shape))
    if name == "lorentz":
        axis = _param(prm, "axis", 0.0)
        if axis not in range(g.dimension):
            raise ValueError(f"lorentz axis must lie in 0..{g.dimension - 1}")
        c = _param(prm, "c", 1.5)
        if not c > 1.0:
            raise ValueError("lorentz recipe needs c > 1")
        x = g.coords()[int(axis)]
        vals = offset + amp / (c - np.cos(x))
        return ScalarField(g, vals + np.zeros(shape))
    raise ValueError(f"unknown scalar recipe {name!r}")


def potential_from_recipe(text):
    name, prm = _parse_known(text, _POTENTIAL_PARAMS)
    if name in ("constant", "const"):
        return Potential.constant(_param(prm, "value", 0.0))
    if name == "quadratic":
        return Potential.quadratic(*(_param(prm, c, 0.0)
                                     for c in ("c0", "c1", "c2")))
    raise ValueError(f"unknown potential recipe {name!r}")


def tensor_from_recipe(g, text):
    n = g.dimension
    pairs = ["xyzw"[i] + "xyzw"[j] for i, j in sym_index(min(n, 4))]
    name, prm = _parse_known(text, {"zero": (), "none": (),
                                    "constant_tensor": pairs})
    if name in ("zero", "none"):
        return SymTensorField.zero(g)
    if name == "constant_tensor":
        if n > 4:
            raise ValueError("constant_tensor names axes x, y, z, w: "
                             "dimension at most 4")
        vals = np.zeros((n * (n + 1) // 2,) + g.grid_shape)
        for a, key in enumerate(pairs):
            vals[a] = _param(prm, key, 0.0)
        return SymTensorField(g, vals)
    raise ValueError(f"unknown tensor recipe {name!r}")


def recipe_ck_norm(text, order):
    """Continuum C^k norm of a scalar recipe (sup of derivatives 0..order).

    Closed form for trigonometric shapes (a mixed partial of
    cos(k.x + p) has supremum prod |k_j|^{alpha_j}); single-axis recipes
    reduce to 1-D and are measured spectrally on a fine circle.
    """
    name, prm = _parse_known(text, _SCALAR_PARAMS)
    if name in ("constant", "const"):
        return abs(_param(prm, "value", 0.0))
    if name in ("cosine", "sine"):
        amp = abs(_param(prm, "amp", 1.0))
        off = abs(_param(prm, "offset", 0.0))
        K = max(abs(c) for c in _param(prm, "k", [1.0]))
        best = off + amp
        for t in range(1, order + 1):
            best = max(best, amp * K ** t)
        return best
    if name == "lorentz":
        m = 4096
        x = 2.0 * np.pi * np.arange(m) / m
        f = _param(prm, "offset", 0.0) + _param(prm, "amp", 1.0) / (
            _param(prm, "c", 1.5) - np.cos(x))
        k = np.fft.fftfreq(m, d=1.0 / m)
        fh = np.fft.fft(f)
        best = float(np.max(np.abs(f)))
        for t in range(1, order + 1):
            fh = 1j * k * fh
            best = max(best, float(np.max(np.abs(np.fft.ifft(fh).real))))
        return best
    raise ValueError(f"no C^k norm rule for recipe {name!r}")


def _potential_ck_norm(pot, order, span=3.0):
    s = np.linspace(-span, span, 2001)
    best = float(np.max(np.abs(pot.func(s))))
    if order >= 1:
        best = max(best, float(np.max(np.abs(pot.deriv(s)))))
    if order >= 2:
        best = max(best, float(np.max(np.abs(pot.deriv2(s)))))
    return best


# ---------------------------------------------------------------------------
# sweep configuration
# ---------------------------------------------------------------------------

PERTURBATION_ORDERS = {"tau": 3, "psi": 2, "potential": 2, "pi": 0, "sigma": 0}


def _perturbation(g, key, recipe):
    """Shape of a [schedule] perturbation and its norm in the field's topology."""
    order = PERTURBATION_ORDERS[key]
    if key == "potential":
        shape = potential_from_recipe(recipe)
        norm = _potential_ck_norm(shape, order)
    elif key == "sigma":
        shape = tensor_from_recipe(g, recipe)
        norm = float(np.sqrt(np.max(tensor_norm_squared(shape))))
    else:
        shape = scalar_from_recipe(g, recipe)
        norm = recipe_ck_norm(recipe, order)
    if not norm > 0.0:
        raise ValueError(f"perturb_{key} shape {recipe!r} has zero norm")
    return shape, norm


@dataclass
class SweepConfig:
    geometry: Torus
    base: PhysicsData
    h_override: ScalarField = None
    alphas: tuple = tuple(range(1, 9))
    perturb: dict = field(default_factory=dict)  # field -> (shape, norm)
    solver: SolveOptions = field(default_factory=SolveOptions)
    vanish_threshold: float = 1e-3
    csv_path: str = None
    json_path: str = None
    config_text: str = ""

    def __post_init__(self):
        eps = [2.0 ** (-a) for a in self.alphas]
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("schedule must be strictly decreasing")

    @property
    def epsilons(self):
        return [2.0 ** (-a) for a in self.alphas]

    def config_hash(self):
        return hashlib.sha256(self.config_text.encode()).hexdigest()[:16]


def load_config(path):
    """Read a sweep/solve configuration from an INI file.

    Malformed content raises ValueError.  Values are taken literally (no
    ``%`` interpolation).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config {path}: {exc}") from exc
    for name in ("geometry", "data"):
        if not cp.has_section(name):
            raise ValueError(f"config {path} has no [{name}] section")

    geo = cp["geometry"]
    kind = geo.get("kind", "torus").lower()
    if kind != "torus":
        raise ValueError("sweeps support torus geometries")
    g = Torus(dimension=geo.getint("dimension", 3),
              resolution=geo.getint("resolution", 16),
              period=geo.getfloat("period", 2.0 * np.pi))

    data = cp["data"]
    base = PhysicsData(
        psi=scalar_from_recipe(g, data.get("psi", "constant(value=0.0)")),
        pi=scalar_from_recipe(g, data.get("pi", "constant(value=0.0)")),
        tau=scalar_from_recipe(g, data.get("tau", "constant(value=0.0)")),
        sigma=tensor_from_recipe(g, data.get("sigma", "zero()")),
        potential=potential_from_recipe(
            data.get("potential", "constant(value=0.0)")))
    h_override = None
    if data.get("h", None):
        h_override = scalar_from_recipe(g, data["h"])

    # a missing [schedule], [solver] or [output] section means defaults
    alphas = tuple(int(a) for a in cp.get(
        "schedule", "alphas", fallback="1 2 3 4 5 6 7 8").split())
    perturb = {}
    for key in PERTURBATION_ORDERS:
        recipe = cp.get("schedule", f"perturb_{key}", fallback="")
        if recipe and recipe.lower() != "none":
            perturb[key] = _perturbation(g, key, recipe)

    opts = SolveOptions(
        max_outer=cp.getint("solver", "max_outer", fallback=60),
        max_newton=cp.getint("solver", "max_newton", fallback=40),
        tol_residual=cp.getfloat("solver", "tol_residual", fallback=1e-10),
        damping=cp.getfloat("solver", "damping", fallback=0.7),
        u_floor=cp.getfloat("solver", "u_floor", fallback=1e-8),
        coercivity_check=cp.get("solver", "coercivity_check",
                                fallback="strict"),
    )
    return SweepConfig(
        geometry=g, base=base, h_override=h_override, alphas=alphas,
        perturb=perturb, solver=opts,
        vanish_threshold=cp.getfloat("schedule", "vanish_threshold",
                                     fallback=1e-3),
        csv_path=cp.get("output", "csv", fallback=None),
        json_path=cp.get("output", "json", fallback=None),
        config_text=text)


# ---------------------------------------------------------------------------
# stability sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    alpha: int
    eps: float
    sup_u: float
    inf_u: float
    sup_LW: float
    scalar_residual: float
    momentum_residual: float
    kernel_defect: float
    converged: bool
    regime: str                 # focusing classification of the row's data
    diff_prev: float            # C0+C1 distance to the previous solution


BAND_CHECK_NOTE = (
    "the stable-band verdict checks the whole sequence; the compactness "
    "statement it proxies is subsequential, so a NonConvergent verdict "
    "does not by itself contradict it")


@dataclass
class SweepReport:
    rows: list
    verdict: str
    base_regime: str
    config_hash: str
    note: str = BAND_CHECK_NOTE

    @property
    def all_converged(self):
        return all(r.converged for r in self.rows)


def _perturbed_data(cfg, eps):
    g = cfg.geometry
    base = cfg.base
    fields = {"psi": base.psi.values.copy(), "pi": base.pi.values.copy(),
              "tau": base.tau.values.copy()}
    sigma = base.sigma.values.copy()
    pot = base.potential
    for key, (shape, norm) in cfg.perturb.items():
        scale = eps / norm
        if key == "potential":
            pot = Potential(
                lambda s, b=pot, q=shape, c=scale: b.func(s) + c * q.func(s),
                lambda s, b=pot, q=shape, c=scale: b.deriv(s) + c * q.deriv(s),
                lambda s, b=pot, q=shape, c=scale: b.deriv2(s) + c * q.deriv2(s))
        elif key == "sigma":
            sigma = sigma + scale * shape.values
        else:
            fields[key] = fields[key] + scale * shape.values
    return PhysicsData(psi=ScalarField(g, fields["psi"]),
                       pi=ScalarField(g, fields["pi"]),
                       tau=ScalarField(g, fields["tau"]),
                       sigma=SymTensorField(g, sigma),
                       potential=pot)


def _c1_distance(g, u1, u0):
    """C^1 distance sup|d| + max_a sup|d_a d| of d = u1 - u0."""
    d = u1 - u0
    slope = max(float(np.max(np.abs(partial_deriv(g, d, a))))
                for a in range(g.dimension))
    return float(np.max(np.abs(d))) + slope


def run_sweep(cfg: SweepConfig):
    """Solve along the perturbation schedule and classify the trajectory."""
    g = cfg.geometry
    _, B0 = coefficients(cfg.base)
    base_regime = classify(B0)

    C0 = normalize(cfg.base, h_override=cfg.h_override)
    base_sol = solve_system(C0, cfg.solver)
    if not base_sol.converged:
        raise RuntimeError(
            "base data solve did not converge; the sweep precondition fails "
            f"(residuals {base_sol.scalar_residual:.2e}, "
            f"{base_sol.momentum_residual:.2e})")

    rows = []
    prev_u = base_sol.u.values
    warm = base_sol.u
    for alpha, eps in zip(cfg.alphas, cfg.epsilons):
        data = _perturbed_data(cfg, eps)
        C = normalize(data, h_override=cfg.h_override)
        opts = SolveOptions(**{**cfg.solver.__dict__, "initial_guess": warm})
        sol = solve_system(C, opts)
        LW = conformal_killing_deriv(sol.W)
        _, B = coefficients(data)
        rows.append(SweepRow(
            alpha=alpha, eps=eps,
            sup_u=float(np.max(sol.u.values)),
            inf_u=float(np.min(sol.u.values)),
            sup_LW=float(np.sqrt(np.max(tensor_norm_squared(LW)))),
            scalar_residual=sol.scalar_residual,
            momentum_residual=sol.momentum_residual,
            kernel_defect=sol.kernel_defect,
            converged=sol.converged,
            regime=classify(B),
            diff_prev=_c1_distance(g, sol.u.values, prev_u)))
        prev_u = sol.u.values
        warm = sol.u

    verdict = _classify_trajectory(cfg, rows)
    return SweepReport(rows=rows, verdict=verdict, base_regime=base_regime,
                       config_hash=cfg.config_hash())


def _classify_trajectory(cfg, rows):
    if not all(r.converged for r in rows):
        return "NonConvergent"
    if rows[-1].sup_u < cfg.vanish_threshold:
        return "VanishingLimit"
    diffs = [r.diff_prev for r in rows[-3:]]
    band = min(r.inf_u for r in rows) > 0.0
    if band and len(diffs) == 3 and diffs[0] > diffs[1] > diffs[2]:
        return "Stable-band"
    return "NonConvergent"


# ---------------------------------------------------------------------------
# instability demo
# ---------------------------------------------------------------------------

def _instability_point(args):
    from .geometry import SphereRadial
    from .instability import assemble, verify

    lam, resolution, eta = args
    rep = verify(assemble(lam, eta, SphereRadial(resolution)))
    return {
        "lambda": lam,
        "sup_phi": rep.sup_phi,
        "sup_phi_closed_form": rep.sup_phi_closed_form,
        "scalar_residual": rep.scalar_residual,
        "vector_residual": rep.vector_residual,
        "norm_U": rep.norm_U,
        "norm_Y": rep.norm_Y,
        "cancellation": rep.cancellation,
    }


def run_instability_demo(lambdas=(1.5, 1.25, 1.1, 1.05, 1.01),
                         resolution=4096, eta=None, workers=None):
    """Assemble and verify the blow-up family at each lam; returns rows."""
    lambdas = sorted(lambdas, reverse=True)
    if any(lam <= 1.0 for lam in lambdas):
        raise ValueError("all lambda values must exceed 1")
    args = [(lam, resolution, eta) for lam in lambdas]
    workers = workers or worker_count()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_instability_point, args))
    else:
        rows = [_instability_point(a) for a in args]
    return rows


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------
# Each check_* function measures one invariant and returns its CheckRows.
# It takes only sizes: SUITES runs it small for ``lichlab verify``, and
# tests/test_acceptance.py runs it at acceptance size.

@dataclass
class CheckRow:
    name: str
    group: str
    measured: float
    tolerance: float
    passed: bool


def _check(name, group, measured, tolerance):
    return CheckRow(name=name, group=group, measured=float(measured),
                    tolerance=float(tolerance),
                    passed=bool(measured < tolerance))


def check_energy_identity(resolution, draws, band):
    """<lame W, W> = (1/2)|L W|^2 for random W with modes |k_i| <= band."""
    from .geometry import h1_norm_squared, l2_inner

    g = Torus(3, resolution)
    rng = np.random.default_rng(2024)
    freqs = np.fft.fftfreq(resolution, d=1.0 / resolution).astype(int)
    pos = {c: np.nonzero(freqs == c)[0][0] for c in range(-band, band + 1)}
    weights = sym_weights(3)[:, None, None, None]
    side = 2 * band + 1
    worst = 0.0
    for _ in range(draws):
        what = np.zeros((3,) + g.grid_shape, dtype=complex)
        for a in range(3):
            for idx in np.ndindex(side, side, side):
                k = tuple(i - band for i in idx)
                if k == (0, 0, 0):
                    continue
                what[a][tuple(pos[c] for c in k)] = rng.normal() \
                    + 1j * rng.normal()
        W = OneFormField(g, np.real(np.fft.ifftn(what, axes=(1, 2, 3))))
        lhs = l2_inner(g, lame(W).values, W.values)
        LW = conformal_killing_deriv(W)
        rhs = 0.5 * l2_inner(g, weights * LW.values, LW.values)
        worst = max(worst, abs(lhs - rhs) / h1_norm_squared(W))
    return [_check("energy_identity", "geometry", worst, 1e-10)]


def check_bubble_residual():
    """Closed-form bubbles solve their PDE at 100 random points, n = 3..6."""
    from .bubbles import BubbleParams, bubble, bubble_laplacian

    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (3, 4, 5, 6):
        p = BubbleParams(n=n, mu=rng.uniform(0.1, 1.5),
                         f_center=rng.uniform(0.5, 4.0))
        x = rng.normal(size=(100, n)) * 2.5
        rhs = p.f_center * bubble(p, x) ** (2.0 * n / (n - 2.0) - 1.0)
        worst = max(worst, float(np.max(
            np.abs(bubble_laplacian(p, x) - rhs) / np.abs(rhs))))
    return [_check("bubble_residual", "bubbles", worst, 1e-8)]


def _suite_kernel():
    from .green import fundamental, lame_of_columns

    rng = np.random.default_rng(9)
    sym = homog = annihilation = 0.0
    for n in (3, 4, 5):
        y = rng.normal(size=n)
        G = fundamental(y, n)
        sym = max(sym, float(np.max(np.abs(G - G.T))))
        homog = max(homog, float(np.max(np.abs(
            fundamental(2 * y, n) - 2.0 ** (2 - n) * G))))
        y = y * (1.5 / np.linalg.norm(y))
        annihilation = max(annihilation,
                           float(np.max(np.abs(lame_of_columns(y, n)))))
    return [_check("kernel_symmetry", "green", sym, 1e-12),
            _check("kernel_homogeneity", "green", homog, 1e-12),
            _check("kernel_annihilation", "green", annihilation, 1e-8)]


def check_killing(points):
    """Ten orthonormal conformal Killing fields on the unit 3-ball, L K = 0."""
    from .green import killing_basis

    kb = killing_basis(3, 1.0)
    count_defect = abs(len(kb) - 10)
    vals = kb.evaluate(kb.quad.points)
    gram = np.einsum("aMi,bMi,M->ab", vals, vals, kb.quad.weights)
    ortho = float(np.max(np.abs(gram - np.eye(len(kb)))))
    rng = np.random.default_rng(5)
    killing = float(np.max(np.abs(kb.killing_deriv(
        rng.uniform(-0.6, 0.6, size=(points, 3))))))
    return [_check("killing_dimension", "green", count_defect, 0.5),
            _check("killing_orthonormality", "green", ortho, 1e-10),
            _check("killing_derivative", "green", killing, 1e-10)]


def check_constants():
    """C(6) = 0.2, the n = 3 bubble energy, and the quadrature identity."""
    from scipy.integrate import quad as quad1d

    from .bubbles import blowup_constants
    from .quadrature import sphere_area

    c6 = abs(blowup_constants(6).stability_coef - 0.2)
    k3 = abs(blowup_constants(3).bubble_energy
             - 2.0 ** -3 * 3.0 ** 1.5 * 2.0 * np.pi ** 2)
    worst = 0.0
    for n in (5, 6, 7):
        c = 1.0 / (n * (n - 2.0))
        val, _ = quad1d(lambda s: s ** (n - 1) * (1 + c * s * s) ** (2.0 - n),
                        0.0, np.inf)
        integral = sphere_area(n - 1) * val
        consts = blowup_constants(n)
        worst = max(worst, abs(0.5 * (n - 2.0) * consts.bubble_energy
                               / integral - consts.stability_coef))
    return [_check("constants_c6", "bubbles", c6, 1e-14),
            _check("constants_k3", "bubbles", k3, 1e-9),
            _check("constants_quadrature", "bubbles", worst, 1e-6)]


def check_pohozaev(grids):
    """Pohozaev defect of the n = 3 bubble; 4th order: 2^4 per halving."""
    from .bubbles import BubbleParams, bubble
    from .diagnostics import pohozaev_defect
    from .geometry import Chart

    p = BubbleParams(n=3, mu=1.0, f_center=3.0)
    defects = []
    for N in grids:
        g = Chart(3, N, extent=1.3)
        pts = np.stack(np.meshgrid(*([g.axis_coords] * 3), indexing="ij"),
                       axis=-1)
        v = ScalarField(g, bubble(p, pts))
        C = SystemCoefficients(
            h=ScalarField.constant(g, 0.0), f=ScalarField.constant(g, 3.0),
            b=ScalarField.constant(g, 0.0), U=SymTensorField.zero(g),
            X=OneFormField.zero(g), Y=OneFormField.zero(g), gamma=1.0)
        defects.append(pohozaev_defect(v, C, np.zeros(3), 1.0).defect)
    slowest = min(a / b for a, b in zip(defects[:-1], defects[1:]))
    return [_check("pohozaev_defect", "diagnostics", defects[-1], 1e-6),
            _check("pohozaev_order", "diagnostics",
                   16.0 / max(slowest, 1e-300), 1.0)]


def _suite_covariance():
    from .diagnostics import conformal_covariance_residuals
    from .geometry import Chart

    out = []
    for N in (33, 65):
        g = Chart(3, N, extent=1.0)
        x = g.coords()
        phi = ScalarField(g, 1.0 + 0.1 * (x[0] ** 2 + x[1] ** 2 + x[2] ** 2)
                          + np.zeros(g.grid_shape))
        v = ScalarField(g, np.sin(2 * x[0]) * np.cos(x[1])
                        + 0.3 * np.cos(x[2]) + np.zeros(g.grid_shape))
        Xv = np.zeros((3,) + g.grid_shape)
        Xv[0] = np.cos(x[1]) + 0 * x[0] + 0 * x[2]
        Xv[1] = 0.5 * np.sin(x[0]) * np.cos(x[2])
        Xv[2] = 0.2 * x[0] * x[1] + 0 * x[2]
        out.append(conformal_covariance_residuals(
            v, OneFormField(g, Xv), phi))
    worst_ratio = min(a / b for a, b in zip(*out))
    return [_check("covariance_order", "diagnostics",
                   8.0 / max(worst_ratio, 1e-300), 1.0)]


def _bump(pts):
    pts = np.atleast_2d(pts)
    r2 = np.sum(pts ** 2, axis=-1) / 0.8 ** 2
    out = np.zeros((pts.shape[0], 3))
    m = r2 < 1.0
    out[m, 0] = (1.0 - r2[m]) ** 8
    return out


def check_representation(finest_level):
    """Representation residual of a bump: halves per level, ends < 1e-2."""
    from .green import representation_residual

    res = [representation_residual(_bump, np.zeros(3), 3, radius=1.0,
                                   level=le)
           for le in range(finest_level + 1)]
    ratios = [a / b for a, b in zip(res[:-1], res[1:])]
    return [_check("representation_residual", "green",
                   res[-1] / _bump(np.zeros((1, 3)))[0, 0], 1e-2),
            _check("representation_halving", "green",
                   max(abs(r - 2.0) for r in ratios), 0.4)]


def check_instability(rows):
    """Judge run_instability_demo rows: exact, sup at closed form, data flat."""
    sups = [r["sup_phi"] for r in rows]
    totals = [r["norm_U"] + r["norm_Y"] for r in rows]

    def worst(key):
        return max(r[key] for r in rows)

    return [
        _check("instability_scalar", "instability",
               worst("scalar_residual"), 1e-6),
        _check("instability_vector", "instability",
               worst("vector_residual"), 1e-6),
        _check("instability_cancellation", "instability",
               worst("cancellation"), 1e-14),
        _check("instability_sup_closed_form", "instability",
               max(abs(r["sup_phi"] - r["sup_phi_closed_form"])
                   for r in rows), 1e-9),
        _check("instability_sup_increasing", "instability",
               sum(a >= b for a, b in zip(sups, sups[1:])), 0.5),
        _check("instability_data_spread", "instability",
               (max(totals) - min(totals)) / min(totals), 0.05)]


SUITES = {
    "geometry": [lambda: check_energy_identity(16, draws=20, band=2)],
    "bubbles": [check_bubble_residual, check_constants],
    "green": [_suite_kernel, lambda: check_killing(points=30),
              lambda: check_representation(finest_level=1)],
    "diagnostics": [lambda: check_pohozaev(grids=(33, 65)),
                    _suite_covariance],
    "instability": [lambda: check_instability(
        run_instability_demo((1.5, 1.25), resolution=2048))],
}


def run_verification_suite(selector=None):
    """Run the module invariant checks; returns a list of CheckRow."""
    rows = []
    for group, funcs in SUITES.items():
        if selector and selector not in group:
            continue
        for fn in funcs:
            rows.extend(fn())
    if selector and not rows:
        raise ValueError(f"selector {selector!r} matched no check group")
    return rows


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)            # shortest round-trip decimal
    return str(value)


def write_csv(path, rows):
    """Rows are dataclasses or dicts with a uniform schema; header mandatory."""
    if not rows:
        raise ValueError("no rows to write")
    first = rows[0]
    if hasattr(first, "__dataclass_fields__"):
        headers = list(first.__dataclass_fields__)
        get = lambda r, h: getattr(r, h)
    else:
        headers = list(first)
        get = lambda r, h: r[h]
    lines = [",".join(headers)]
    for r in rows:
        lines.append(",".join(_fmt(get(r, h)) for h in headers))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json_summary(path, verdict, config_hash="", extra=None):
    summary = {
        "verdict": verdict,
        "config_hash": config_hash,
        "versions": {"lichlab": __version__, "numpy": np.__version__},
    }
    if extra:
        summary.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
