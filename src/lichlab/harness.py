"""Sweeps, demos, and verification suites.

Configuration is a flat INI document with sections [geometry], [data],
[schedule], [solver], [output]; any other section or key is an error, and
a key left out keeps the default of SweepConfig or SolveOptions.  Field
values are symbolic recipes of the form ``name(param=value, ...)``; vector
parameters use colon-separated components (``k=1:0:0``).  Recipes keep
configs resolution-independent.

Scalar recipes:   constant(value=)
                  cosine(amp=, k=, offset=)       sine(amp=, k=, offset=)
                  lorentz(amp=, c=, axis=, offset=)
                  [offset + amp / (c - cos x_axis)]
Potential:        constant(value=)                quadratic(c0=, c1=, c2=)
                  [c0 + c1 s + c2 s^2 / 2]
Tensor (sigma):   zero()                          constant_tensor(xy=, xz=, ...)

Each recipe's parameters and defaults are written once, in a table that
the fields and their norms both read.  An unknown name or parameter, or
one number where a vector belongs (or the reverse), raises ValueError.
The [solver] keys are the fields of SolveOptions.

A stability sweep perturbs the base data along a strictly decreasing
schedule eps_alpha = 2^{-alpha}; each perturbation shape is normalized in
the norm matching its field's convergence topology (tau through third
derivatives, psi and the potential through second, pi and sigma in sup
norm), so eps_alpha is exactly the perturbation's size in that topology.
The potential's norm is its closed-form C^2 norm on [-3, 3].  Shapes and
norms are built once, when the config loads.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .conformal import (
    PhysicsData,
    Potential,
    SystemCoefficients,
    classify,
    constraint_residuals,
    critical_exponent,
    normalize,
    reconstruct,
)
from .geometry import (
    OneFormField,
    ScalarField,
    SymTensorField,
    Torus,
    conformal_killing_deriv,
    lame,
    sym_index,
    sym_weights,
    tensor_norm_squared,
)
from .solver import _U_FLOOR, SolveOptions, SolverError, solve_system

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
]


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
    for item in body.split(",") if body.strip() else []:
        item = item.strip()
        if not item:
            raise ValueError(f"malformed recipe {text!r}: empty parameter")
        key, _, val = item.partition("=")
        key, val = key.strip(), val.strip()
        if not _ or not key:
            raise ValueError(f"malformed recipe parameter {item!r}")
        if key in params:
            raise ValueError(f"recipe parameter {key!r} is repeated")
        nums = [float(c) for c in val.split(":")]
        if not np.all(np.isfinite(nums)):
            raise ValueError(f"recipe parameter {key!r} is not finite")
        params[key] = nums if ":" in val else nums[0]
    return name.strip(), params


# each recipe's parameters and their defaults; a parameter whose default is
# a list takes a vector a:b:c, any other one number
_SCALAR_RECIPES = {"constant": {"value": 0.0},
                   "cosine": {"amp": 1.0, "k": [1.0], "offset": 0.0},
                   "sine": {"amp": 1.0, "k": [1.0], "offset": 0.0},
                   "lorentz": {"amp": 1.0, "c": 1.5, "axis": 0.0,
                               "offset": 0.0}}
_POTENTIAL_RECIPES = {"constant": {"value": 0.0},
                      "quadratic": {"c0": 0.0, "c1": 0.0, "c2": 0.0}}


def _parse_known(text, table, kind):
    """(name, parameters) of a recipe in table, with its defaults filled in.

    ValueError on a name table lacks, a parameter the recipe does not
    take, and one number where a vector belongs or the reverse.
    """
    name, prm = parse_recipe(text)
    if name not in table:
        raise ValueError(f"unknown {kind} recipe {name!r}")
    defaults = table[name]
    unknown = sorted(set(prm) - set(defaults))
    if unknown:
        raise ValueError(f"recipe {name!r} has no parameter "
                         f"{', '.join(map(repr, unknown))}")
    for key, val in prm.items():
        if isinstance(val, list) != isinstance(defaults[key], list):
            takes = ("a vector a:b:c" if isinstance(defaults[key], list)
                     else "one number")
            raise ValueError(f"recipe parameter {key!r} takes {takes}")
    return name, {**defaults, **prm}


def _phase(g, k):
    if len(k) > g.dimension:
        raise ValueError(f"wavevector {k} has more than {g.dimension} "
                         "components")
    x = g.coords()
    k = list(k) + [0.0] * (g.dimension - len(k))
    return sum(kj * xj for kj, xj in zip(k, x))


def _lorentz(prm, x):
    """The lorentz recipe's periodic peak offset + amp / (c - cos x)."""
    if not prm["c"] > 1.0:
        raise ValueError("lorentz recipe needs c > 1")
    return prm["offset"] + prm["amp"] / (prm["c"] - np.cos(x))


def scalar_from_recipe(g, text):
    name, prm = _parse_known(text, _SCALAR_RECIPES, "scalar")
    if name == "constant":
        return ScalarField.constant(g, prm["value"])
    if name == "lorentz":
        if prm["axis"] not in range(g.dimension):
            raise ValueError(f"lorentz axis must lie in 0..{g.dimension - 1}")
        vals = _lorentz(prm, g.coords()[int(prm["axis"])])
    else:
        wave = np.cos if name == "cosine" else np.sin
        vals = prm["offset"] + prm["amp"] * wave(_phase(g, prm["k"]))
    return ScalarField(g, vals + np.zeros(g.grid_shape))


def potential_from_recipe(text):
    name, prm = _parse_known(text, _POTENTIAL_RECIPES, "potential")
    if name == "constant":
        return Potential.constant(prm["value"])
    return Potential.quadratic(**prm)


def tensor_from_recipe(g, text):
    n = g.dimension
    pairs = ["xyzw"[i] + "xyzw"[j] for i, j in sym_index(min(n, 4))]
    table = {"zero": {}, "constant_tensor": dict.fromkeys(pairs, 0.0)}
    name, prm = _parse_known(text, table, "tensor")
    if name == "zero":
        return SymTensorField.zero(g)
    if n > 4:
        raise ValueError("constant_tensor names axes x, y, z, w: "
                         "dimension at most 4")
    return SymTensorField.constant(g, [prm[key] for key in pairs])


def recipe_ck_norm(text, order):
    """Continuum C^k norm of a scalar recipe (sup of derivatives 0..order).

    Closed form for trigonometric shapes (a mixed partial of
    cos(k.x + p) has supremum prod |k_j|^{alpha_j}); single-axis recipes
    reduce to 1-D and are measured spectrally on a fine circle.
    """
    name, prm = _parse_known(text, _SCALAR_RECIPES, "scalar")
    if name == "constant":
        return abs(prm["value"])
    if name == "lorentz":
        m = 4096
        f = _lorentz(prm, 2.0 * np.pi * np.arange(m) / m)
        k = np.fft.fftfreq(m, d=1.0 / m)
        fh = np.fft.fft(f)
        best = float(np.max(np.abs(f)))
        for t in range(1, order + 1):
            fh = 1j * k * fh
            best = max(best, float(np.max(np.abs(np.fft.ifft(fh).real))))
        return best
    amp = abs(prm["amp"])
    K = max(abs(c) for c in prm["k"])
    best = abs(prm["offset"]) + amp
    for t in range(1, order + 1):
        best = max(best, amp * K ** t)
    return best


def _potential_c2_norm(pot):
    """C^2 norm of V on [-3, 3]: sup of |V|, |V'| and |V''| = |c2|.

    V' is affine, so its sup sits at s = +-3; |V| peaks at s = +-3 or at
    the vertex -c1/c2 when that lies inside.
    """
    s = [-3.0, 3.0]
    if pot.c2 != 0.0 and abs(pot.c1) <= 3.0 * abs(pot.c2):
        s.append(-pot.c1 / pot.c2)
    s = np.array(s)
    return float(max(np.max(np.abs(pot(s))),
                     np.max(np.abs(pot.c1 + pot.c2 * s)), abs(pot.c2)))


# ---------------------------------------------------------------------------
# sweep configuration
# ---------------------------------------------------------------------------

PERTURBATION_ORDERS = {"tau": 3, "psi": 2, "potential": 2, "pi": 0, "sigma": 0}


def _perturbation(g, key, recipe):
    """Shape of a [schedule] perturbation and its norm in the field's topology."""
    if key == "potential":
        shape = potential_from_recipe(recipe)
        norm = _potential_c2_norm(shape)
    elif key == "sigma":
        shape = tensor_from_recipe(g, recipe)
        norm = float(np.sqrt(np.max(tensor_norm_squared(shape))))
    else:
        shape = scalar_from_recipe(g, recipe)
        norm = recipe_ck_norm(recipe, PERTURBATION_ORDERS[key])
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
        for a in self.alphas:
            # 2^-alpha overflows from alpha = -1024 down and rounds to 0.0
            # from 1075 up
            if not -1024 < a < 1075:
                raise ValueError(f"alpha {a} gives eps = 2^-alpha outside "
                                 "the positive finite doubles")
        eps = self.epsilons
        if len(eps) < 3:
            # the verdict compares the last three rows' diff_prev
            raise ValueError("schedule needs at least three alphas")
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("schedule must be strictly decreasing")
        if not (math.isfinite(self.vanish_threshold)
                and self.vanish_threshold > 0.0):
            raise ValueError("vanish_threshold must be finite and positive, "
                             f"got {self.vanish_threshold}")

    @property
    def epsilons(self):
        return [2.0 ** (-a) for a in self.alphas]

    def config_hash(self):
        return hashlib.sha256(self.config_text.encode()).hexdigest()[:16]


# the keys each config section takes; any other section or key is an error
_SECTIONS = {
    "geometry": ("kind", "dimension", "resolution"),
    "data": ("psi", "pi", "tau", "sigma", "potential", "h"),
    "schedule": ("alphas", "vanish_threshold")
    + tuple(f"perturb_{key}" for key in PERTURBATION_ORDERS),
    "solver": tuple(f.name for f in fields(SolveOptions)),
    "output": ("csv", "json"),
}


def _given_fields(cp, section, cls, names):
    """Fields of cls among names set in [section], typed as their default."""
    read = {int: cp.getint, float: cp.getfloat, str: cp.get}
    return {f.name: read[type(f.default)](section, f.name)
            for f in fields(cls)
            if f.name in names and cp.has_option(section, f.name)}


def load_config(path):
    """Read a sweep/solve configuration from an INI file.

    Malformed content, an unknown section and an unknown key raise
    ValueError.  Values are taken literally (no ``%`` interpolation).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config {path}: {exc}") from exc
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ValueError(f"config {path} has unknown section [{name}]")
        unknown = sorted(set(cp[name]) - set(_SECTIONS[name]))
        if unknown:
            raise ValueError(f"config {path} [{name}] has unknown key(s) "
                             f"{', '.join(unknown)}")
    for name in ("geometry", "data"):
        if not cp.has_section(name):
            raise ValueError(f"config {path} has no [{name}] section")

    geo = cp["geometry"]
    if geo.get("kind", "torus").lower() != "torus":
        raise ValueError("sweeps support torus geometries")
    g = Torus(dimension=geo.getint("dimension", 3),
              resolution=geo.getint("resolution", 16))

    data = cp["data"]
    base = PhysicsData(
        **{key: scalar_from_recipe(g, data.get(key, "constant(value=0.0)"))
           for key in ("psi", "pi", "tau")},
        sigma=tensor_from_recipe(g, data.get("sigma", "zero()")),
        potential=potential_from_recipe(
            data.get("potential", "constant(value=0.0)")))
    h_override = scalar_from_recipe(g, data["h"]) if data.get("h") else None

    schedule = _given_fields(cp, "schedule", SweepConfig,
                             ("vanish_threshold",))
    if cp.has_option("schedule", "alphas"):
        schedule["alphas"] = tuple(
            int(a) for a in cp.get("schedule", "alphas").split())
    perturb = {}
    for key in PERTURBATION_ORDERS:
        recipe = cp.get("schedule", f"perturb_{key}", fallback="")
        if recipe:
            perturb[key] = _perturbation(g, key, recipe)
    output = dict(cp["output"]) if cp.has_section("output") else {}

    return SweepConfig(
        geometry=g, base=base, h_override=h_override, perturb=perturb,
        solver=SolveOptions(**_given_fields(cp, "solver", SolveOptions,
                                            _SECTIONS["solver"])),
        **schedule, **{f"{key}_path": val for key, val in output.items()},
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
    newton_steps: int           # the row solve's Solution.iterations


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


def _perturbed_data(cfg, eps):
    """The base data with each perturbed field moved by eps / norm * shape."""
    moved = {}
    for key, (shape, norm) in cfg.perturb.items():
        scale = eps / norm
        old = getattr(cfg.base, key)
        if key == "potential":
            moved[key] = Potential(*(b + scale * q for b, q in
                                     zip(astuple(old), astuple(shape))))
        else:
            moved[key] = type(old)(old.geometry,
                                   old.values + scale * shape.values)
    return replace(cfg.base, **moved)


def _c1_distance(g, u1, u0):
    """C^1 distance sup|d| + max_a sup|d_a d| of d = u1 - u0."""
    d = u1 - u0
    return float(np.max(np.abs(d))) + float(np.max(np.abs(g.grad(d))))


def _interpolant(eps, u0, nodes):
    """Lagrange interpolant in eps through (0, u0) and nodes [(eps_j, u_j)].

    Written as u0 + sum_j w_j (u_j - u0), since the weights sum to 1; with
    one node it is the secant u0 + (eps / eps_1)(u_1 - u0).
    """
    knots = [0.0] + [e for e, _ in nodes]
    start = u0.copy()
    for j, (ej, uj) in enumerate(nodes, 1):
        w = math.prod((eps - ei) / (ej - ei)
                      for i, ei in enumerate(knots) if i != j)
        start += w * (uj - u0)
    return start


def run_sweep(cfg: SweepConfig):
    """Solve along the perturbation schedule and classify the trajectory.

    The base solve is the sweep's precondition: its SolverError propagates
    and a non-converged base raises SolverError.  The solutions u(eps) lie
    on a smooth branch through the base solution u0, so each perturbed row
    starts from the Lagrange interpolant in eps through (0, u0) and the last
    three converged rows, fewer while fewer exist (with one, the secant).
    The schedule strictly decreases, so this interpolates inside [0, eps_w],
    eps_w the last converged row's.  Where the interpolant is not above the
    solver floor, the row starts from the secant through u0 and the last
    converged row, a convex combination of two positive fields.  With
    h_override every row shares the h the base solve checked for
    coercivity, so the rows skip the check; otherwise h depends on psi and
    every row checks it.  A row whose solve raises SolverError is recorded
    with converged=False and NaN measures, so the verdict is NonConvergent.
    A row that raises or does not converge becomes neither a node nor the
    next diff_prev reference.  Each regime is classified from the
    normalized f = c B, which has the signs of B since c > 0.
    """
    g = cfg.geometry
    C0 = normalize(cfg.base, h_override=cfg.h_override)
    base_regime = classify(C0.f)
    base_sol = solve_system(C0, cfg.solver)
    if not base_sol.converged:
        raise SolverError(
            "base data solve did not converge; the sweep precondition fails "
            f"(residuals {base_sol.scalar_residual:.2e}, "
            f"{base_sol.momentum_residual:.2e})")
    row_opts = (cfg.solver if cfg.h_override is None
                else replace(cfg.solver, coercivity_check="off"))

    rows = []
    u0 = base_sol.u.values
    nodes = []                  # (eps, u) of the last three converged rows
    for alpha, eps in zip(cfg.alphas, cfg.epsilons):
        data = _perturbed_data(cfg, eps)
        C = normalize(data, h_override=cfg.h_override)
        start = _interpolant(eps, u0, nodes)
        if not np.min(start) > _U_FLOOR:
            start = _interpolant(eps, u0, nodes[-1:])
        try:
            sol = solve_system(C, row_opts, guess=ScalarField(g, start))
        except SolverError:
            nan = float("nan")
            rows.append(SweepRow(
                alpha=alpha, eps=eps, sup_u=nan, inf_u=nan, sup_LW=nan,
                scalar_residual=nan, momentum_residual=nan, kernel_defect=nan,
                converged=False, regime=classify(C.f), diff_prev=nan,
                newton_steps=nan))
            continue
        LW = conformal_killing_deriv(sol.W)
        rows.append(SweepRow(
            alpha=alpha, eps=eps,
            sup_u=float(np.max(sol.u.values)),
            inf_u=float(np.min(sol.u.values)),
            sup_LW=float(np.sqrt(np.max(tensor_norm_squared(LW)))),
            scalar_residual=sol.scalar_residual,
            momentum_residual=sol.momentum_residual,
            kernel_defect=sol.kernel_defect,
            converged=sol.converged,
            regime=classify(C.f),
            diff_prev=_c1_distance(g, sol.u.values,
                                   nodes[-1][1] if nodes else u0),
            newton_steps=sol.iterations))
        if sol.converged:
            nodes = nodes[-2:] + [(eps, sol.u.values)]

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
    if band and diffs[0] > diffs[1] > diffs[2]:
        return "Stable-band"
    return "NonConvergent"


# ---------------------------------------------------------------------------
# instability demo
# ---------------------------------------------------------------------------

def run_instability_demo(lambdas=(1.5, 1.25, 1.1, 1.05, 1.01),
                         resolution=4096):
    """Assemble and verify the blow-up family at two or more distinct lam,
    largest first; returns their InstabilityReports."""
    from .geometry import SphereRadial
    from .instability import assemble, verify

    lambdas = sorted(lambdas, reverse=True)
    if not all(1.0 < lam < math.inf for lam in lambdas):
        raise ValueError("all lambda values must be finite and exceed 1")
    if len(set(lambdas)) < len(lambdas):
        raise ValueError("lambda values must be distinct")
    _need_two("lambdas", lambdas)      # check_instability compares them
    return [verify(assemble(lam, geometry=SphereRadial(resolution)))
            for lam in lambdas]


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------
# Each check_* function measures one invariant and returns its CheckRows.
# It takes only sizes (or the output it judges) and writes its tolerances
# once: SUITES runs it small for ``lichlab verify``, and
# tests/test_acceptance.py runs it at acceptance size.

@dataclass
class CheckRow:
    name: str
    group: str
    measured: float
    tolerance: float
    passed: bool


def _need_two(name, sizes):
    """A check that compares consecutive sizes or members needs two."""
    if len(sizes) < 2:
        raise ValueError(f"this check compares consecutive {name}: it needs "
                         f"at least two, got {len(sizes)}")


def _check(name, group, measured, tolerance):
    return CheckRow(name=name, group=group, measured=float(measured),
                    tolerance=float(tolerance),
                    passed=bool(measured < tolerance))


def _order_check(name, group, factor, coarse, fine):
    """The refinement-order row: each defect in coarse falls at least
    factor-fold to its partner in fine, one refinement later.  It measures
    factor over the slowest coarse/fine ratio, which passes below 1."""
    slowest = min(a / b for a, b in zip(coarse, fine))
    return _check(name, group, factor / max(slowest, 1e-300), 1.0)


def check_energy_identity(resolution, draws, band):
    """<lame W, W> = (1/2)|L W|^2 for random W with modes |k_i| <= band."""
    from .geometry import h1_norm_squared, l2_inner

    g = Torus(3, resolution)
    rng = np.random.default_rng(2024)
    near = np.abs(np.fft.fftfreq(resolution, d=1.0 / resolution)) <= band
    keep = near[:, None, None] & near[:, None] & near
    keep[0, 0, 0] = False
    weights = sym_weights(3)[:, None, None, None]
    worst = 0.0
    for _ in range(draws):
        W = OneFormField(g, g.hartley(keep * rng.normal(
            size=g.one_form_shape)))
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
        rhs = p.f_center * bubble(p, x) ** (critical_exponent(n) - 1.0)
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
    vals = kb.evaluate(kb.points)
    gram = np.einsum("aMi,bMi,M->ab", vals, vals, kb.weights)
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

    _need_two("grids", grids)
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
    return [_check("pohozaev_defect", "diagnostics", defects[-1], 1e-6),
            _order_check("pohozaev_order", "diagnostics", 16.0,
                         defects[:-1], defects[1:])]


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
    return [_order_check("covariance_order", "diagnostics", 8.0, *out)]


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

    _need_two("levels", range(finest_level + 1))
    res = [representation_residual(_bump, np.zeros(3), 3, radius=1.0,
                                   level=le)
           for le in range(finest_level + 1)]
    ratios = [a / b for a, b in zip(res[:-1], res[1:])]
    return [_check("representation_residual", "green",
                   res[-1] / _bump(np.zeros((1, 3)))[0, 0], 1e-2),
            _check("representation_halving", "green",
                   max(abs(r - 2.0) for r in ratios), 0.4)]


def check_instability(rows):
    """Judge two or more run_instability_demo rows: exact, sup at closed
    form and increasing, data flat, and the data on the stability bound."""
    _need_two("lambdas", rows)
    sups = [r.sup_phi for r in rows]
    totals = [r.norm_U + r.norm_Y for r in rows]

    def worst(key):
        return max(getattr(r, key) for r in rows)

    return [
        _check("instability_scalar", "instability",
               worst("scalar_residual"), 1e-6),
        _check("instability_vector", "instability",
               worst("vector_residual"), 1e-6),
        _check("instability_cancellation", "instability",
               worst("cancellation"), 1e-14),
        _check("instability_sup_closed_form", "instability",
               max(abs(r.sup_phi - r.sup_phi_closed_form) for r in rows),
               1e-9),
        _check("instability_sup_increasing", "instability",
               sum(a >= b for a, b in zip(sups, sups[1:])), 0.5),
        _check("instability_data_spread", "instability",
               (max(totals) - min(totals)) / min(totals), 0.05),
        # the margin is c3 R - h = 6/8 - 3/4 = 0 up to the finite-difference
        # Laplacian of the constant f (1.8e-9 at 2048 nodes, 8.1e-9 at
        # 4096), which leaves |margin| at 1.5e-10 and 6.7e-10
        _check("instability_stability_margin", "instability",
               worst("stability_margin"), 1e-8)]


def check_asymptotics(factors):
    """Far-field expansions against the quadrature at |z| = factor * mu.

    Worst relative deviation over the factors of quad_LV from asympt_LV
    (first order) and of quad_LP from asympt_LP (second order).
    """
    from .bubbles import BubbleParams, DirectionData
    from .bubbles import asympt_LP, asympt_LV, quad_LP, quad_LV

    p = BubbleParams(n=3, mu=0.01, f_center=3.0)
    d = DirectionData(eps=0.7, beta_k=np.array([0.3, 0.0, 0.0]),
                      zeta0=np.array([1.0, 0.0, 0.0]),
                      zeta_k=np.eye(3)[[1, 0, 2]])
    zhat = np.array([0.3, -0.2, 1.0])
    zhat /= np.linalg.norm(zhat)
    first = second = 0.0
    for fac in factors:
        z = fac * p.mu * zhat
        av = asympt_LV(d, p, z)
        first = max(first, np.linalg.norm(quad_LV(d.eps * d.zeta0, p, z) - av)
                    / np.linalg.norm(av))
        ap = asympt_LP(d, p, z, 0)
        second = max(second, np.linalg.norm(
            quad_LP(d.beta_k[0] * d.zeta_k[0], p, z, 0) - ap)
            / np.linalg.norm(ap))
    return [_check("asymptotics_first_order", "bubbles", first, 0.05),
            _check("asymptotics_second_order", "bubbles", second, 0.10)]


def check_manufactured_solve(resolution):
    """Coupled solve recovers a manufactured (u, W) in at most 15 Newton steps.

    A solve that does not converge counts infinitely many steps.
    """
    from .solver import manufactured_forcing

    g = Torus(3, resolution)
    x = g.coords()
    u_star = ScalarField(g, 0.8 + 0.05 * np.cos(x[0])
                         + 0.03 * np.cos(x[1]) * np.cos(x[2]))
    w_vals = np.zeros(g.one_form_shape)
    w_vals[0] = 0.05 * np.cos(x[1])
    w_vals[2] = 0.05 * np.sin(x[0]) * np.cos(x[1])
    W_star = OneFormField(g, w_vals)
    x_vals = np.zeros(g.one_form_shape)
    x_vals[0] = 0.2 * np.sin(x[0])
    C = SystemCoefficients(
        h=ScalarField.constant(g, 0.0), f=ScalarField.constant(g, 0.25),
        b=ScalarField.constant(g, 0.125), U=SymTensorField.zero(g),
        X=OneFormField(g, x_vals), Y=OneFormField.zero(g), gamma=1.0)
    sol = solve_system(manufactured_forcing(u_star, W_star, C),
                       SolveOptions(damping=1.0, coercivity_check="off"))
    return [_check("manufactured_iterations", "solver",
                   sol.iterations if sol.converged else np.inf, 16.0),
            _check("manufactured_u_error", "solver",
                   np.max(np.abs(sol.u.values - u_star.values)), 1e-6),
            _check("manufactured_W_error", "solver",
                   np.max(np.abs(sol.W.values - W_star.values)), 1e-6)]


def check_round_trip(grids):
    """Solve, reconstruct (g, K), and measure the constraints on each grid.

    Every solve converges, and the Hamiltonian and momentum defects of the
    reconstructed data fall at least 3x per doubling of the grid.
    """
    _need_two("grids", grids)
    unconverged = 0
    defects = []
    for N in grids:
        g = Torus(3, N)
        D = PhysicsData(
            psi=ScalarField.constant(g, 1.0),
            pi=scalar_from_recipe(
                g, "lorentz(amp=0.02, c=1.05, axis=1, offset=1.0)"),
            tau=scalar_from_recipe(
                g, "lorentz(amp=0.015, c=1.05, axis=0, offset=1.0)"),
            sigma=tensor_from_recipe(g, "constant_tensor(xy=0.1)"),
            potential=Potential.constant(0.0))
        sol = solve_system(normalize(D), SolveOptions(
            coercivity_check="weak", tol_residual=1e-11, max_outer=100))
        unconverged += not sol.converged
        defects.append(constraint_residuals(reconstruct(sol.u, sol.W, D),
                                            D.potential))
    rows = [_check("round_trip_unconverged", "solver", unconverged, 0.5)]
    for name, per_grid in zip(("hamiltonian", "momentum"), zip(*defects)):
        rows.append(_order_check(f"round_trip_{name}_order", "solver", 3.0,
                                 per_grid[:-1], per_grid[1:]))
    return rows


def check_sweep(report):
    """Judge a run_sweep report: Focusing base, every row converged,
    verdict Stable-band, and sup u spread under 10% (NaN if a row failed)."""
    sups = np.array([r.sup_u for r in report.rows])
    return [
        _check("sweep_base_regime", "sweep",
               report.base_regime != "Focusing", 0.5),
        _check("sweep_unconverged", "sweep",
               sum(not r.converged for r in report.rows), 0.5),
        _check("sweep_verdict", "sweep", report.verdict != "Stable-band", 0.5),
        _check("sweep_sup_spread", "sweep",
               np.ptp(sups) / np.min(sups), 0.10)]


SUITES = {
    "geometry": [lambda: check_energy_identity(16, draws=20, band=2)],
    "bubbles": [check_bubble_residual, check_constants,
                lambda: check_asymptotics(factors=(50.0,))],
    "green": [_suite_kernel, lambda: check_killing(points=30),
              lambda: check_representation(finest_level=1)],
    "diagnostics": [lambda: check_pohozaev(grids=(33, 65)),
                    _suite_covariance],
    "instability": [lambda: check_instability(
        run_instability_demo((1.5, 1.25), resolution=2048))],
    "solver": [lambda: check_manufactured_solve(resolution=16),
               lambda: check_round_trip(grids=(16, 32))],
}


def run_verification_suite(selector=None):
    """Run the module invariant checks, or only the group named by
    selector; returns a list of CheckRow."""
    if selector is not None and selector not in SUITES:
        raise ValueError(f"no check group {selector!r}; the groups are "
                         + ", ".join(SUITES))
    rows = []
    for group, funcs in SUITES.items():
        if selector in (None, group):
            for fn in funcs:
                rows.extend(fn())
    return rows


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))     # shortest round-trip decimal
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
