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

A stability sweep perturbs the base data along a strictly decreasing
schedule eps_alpha = 2^{-alpha}; each perturbation shape is normalized in
the norm matching its field's convergence topology (tau through third
derivatives, psi and the potential through second, pi and sigma in sup
norm), so eps_alpha is exactly the perturbation's size in that topology.
"""

from __future__ import annotations

import hashlib
import json
import os
from configparser import ConfigParser
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
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


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
        if not _:
            raise ValueError(f"malformed recipe parameter {item!r}")
        val = val.strip()
        if ":" in val:
            params[key.strip()] = [float(c) for c in val.split(":")]
        else:
            params[key.strip()] = float(val)
    return name.strip(), params


def _phase(g, k):
    x = g.coords()
    k = list(k) + [0.0] * (g.dimension - len(k))
    return sum(kj * xj for kj, xj in zip(k, x))


def scalar_from_recipe(g, text):
    name, prm = parse_recipe(text)
    shape = g.grid_shape
    if name in ("constant", "const"):
        return ScalarField.constant(g, prm.get("value", 0.0))
    if name == "cosine":
        vals = prm.get("offset", 0.0) + prm.get("amp", 1.0) * np.cos(
            _phase(g, prm.get("k", [1.0])))
        return ScalarField(g, vals + np.zeros(shape))
    if name == "sine":
        vals = prm.get("offset", 0.0) + prm.get("amp", 1.0) * np.sin(
            _phase(g, prm.get("k", [1.0])))
        return ScalarField(g, vals + np.zeros(shape))
    if name == "lorentz":
        axis = int(prm.get("axis", 0))
        c = prm.get("c", 1.5)
        if c <= 1.0:
            raise ValueError("lorentz recipe needs c > 1")
        x = g.coords()[axis]
        vals = prm.get("offset", 0.0) + prm.get("amp", 1.0) / (c - np.cos(x))
        return ScalarField(g, vals + np.zeros(shape))
    raise ValueError(f"unknown scalar recipe {name!r}")


def potential_from_recipe(text):
    name, prm = parse_recipe(text)
    if name in ("constant", "const"):
        return Potential.constant(prm.get("value", 0.0))
    if name == "quadratic":
        return Potential.quadratic(prm.get("c0", 0.0), prm.get("c1", 0.0),
                                   prm.get("c2", 0.0))
    raise ValueError(f"unknown potential recipe {name!r}")


def tensor_from_recipe(g, text):
    name, prm = parse_recipe(text)
    n = g.dimension
    if name in ("zero", "none"):
        return SymTensorField.zero(g)
    if name == "constant_tensor":
        labels = {(i, j): f"{'xyzw'[i]}{'xyzw'[j]}" for i, j in sym_index(n)}
        vals = np.zeros((n * (n + 1) // 2,) + g.grid_shape)
        for a, (i, j) in enumerate(sym_index(n)):
            vals[a] = prm.get(labels[(i, j)], 0.0)
        return SymTensorField(g, vals)
    raise ValueError(f"unknown tensor recipe {name!r}")


def recipe_ck_norm(text, order):
    """Continuum C^k norm of a scalar recipe (sup of derivatives 0..order).

    Closed form for trigonometric shapes (a mixed partial of
    cos(k.x + p) has supremum prod |k_j|^{alpha_j}); single-axis recipes
    reduce to 1-D and are measured spectrally on a fine circle.
    """
    name, prm = parse_recipe(text)
    if name in ("constant", "const"):
        return abs(prm.get("value", 0.0))
    if name in ("cosine", "sine"):
        amp = abs(prm.get("amp", 1.0))
        off = abs(prm.get("offset", 0.0))
        K = max(abs(c) for c in prm.get("k", [1.0]))
        best = off + amp
        for t in range(1, order + 1):
            best = max(best, amp * K ** t)
        return best
    if name == "lorentz":
        m = 4096
        x = 2.0 * np.pi * np.arange(m) / m
        f = prm.get("offset", 0.0) + prm.get("amp", 1.0) / (
            prm.get("c", 1.5) - np.cos(x))
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


@dataclass
class SweepConfig:
    geometry: Torus
    base: PhysicsData
    h_override: ScalarField = None
    alphas: tuple = tuple(range(1, 9))
    perturb: dict = field(default_factory=dict)      # field -> recipe text
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
    """Read a sweep/solve configuration from an INI file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    cp = ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(text)

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

    sched = cp["schedule"] if cp.has_section("schedule") else {}
    alphas = tuple(int(a) for a in sched.get(
        "alphas", "1 2 3 4 5 6 7 8").split())
    perturb = {}
    for key in PERTURBATION_ORDERS:
        recipe = sched.get(f"perturb_{key}", "") if sched else ""
        if recipe and recipe.lower() != "none":
            perturb[key] = recipe
    vanish = float(sched.get("vanish_threshold", "1e-3")) if sched else 1e-3

    sv = cp["solver"] if cp.has_section("solver") else {}
    opts = SolveOptions(
        max_outer=int(sv.get("max_outer", "60")),
        max_newton=int(sv.get("max_newton", "40")),
        tol_residual=float(sv.get("tol_residual", "1e-10")),
        damping=float(sv.get("damping", "0.7")),
        u_floor=float(sv.get("u_floor", "1e-8")),
        coercivity_check=sv.get("coercivity_check", "strict"),
    )

    out = cp["output"] if cp.has_section("output") else {}
    return SweepConfig(geometry=g, base=base, h_override=h_override,
                       alphas=alphas, perturb=perturb, solver=opts,
                       vanish_threshold=vanish,
                       csv_path=out.get("csv", None) if out else None,
                       json_path=out.get("json", None) if out else None,
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
    for key, recipe in cfg.perturb.items():
        order = PERTURBATION_ORDERS[key]
        if key == "potential":
            shape_pot = potential_from_recipe(recipe)
            norm = _potential_ck_norm(shape_pot, order)
            scale = eps / norm
            pot = Potential(
                lambda s, b=pot, q=shape_pot, c=scale: b.func(s) + c * q.func(s),
                lambda s, b=pot, q=shape_pot, c=scale: b.deriv(s) + c * q.deriv(s),
                lambda s, b=pot, q=shape_pot, c=scale: b.deriv2(s) + c * q.deriv2(s))
        elif key == "sigma":
            shape_t = tensor_from_recipe(g, recipe)
            norm = max(float(np.sqrt(np.max(tensor_norm_squared(shape_t)))),
                       1e-300)
            sigma = sigma + (eps / norm) * shape_t.values
        else:
            shape_f = scalar_from_recipe(g, recipe)
            norm = recipe_ck_norm(recipe, order)
            fields[key] = fields[key] + (eps / norm) * shape_f.values
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
    from .instability import EtaParams, assemble, verify

    lam, resolution, eta = args
    from .geometry import SphereRadial
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


def _suite_energy_identity():
    from .geometry import h1_norm_squared, l2_inner

    g = Torus(3, 16)
    rng = np.random.default_rng(41)
    worst = 0.0
    weights = sym_weights(3)
    for _ in range(20):
        what = np.zeros((3,) + g.grid_shape, dtype=complex)
        freqs = np.fft.fftfreq(16, d=1.0 / 16).astype(int)
        for a in range(3):
            spec = np.zeros(g.grid_shape, dtype=complex)
            for idx in np.ndindex(5, 5, 5):
                k = tuple(i - 2 for i in idx)
                if k == (0, 0, 0):
                    continue
                pos = tuple(np.nonzero(freqs == c)[0][0] for c in k)
                spec[pos] = rng.normal() + 1j * rng.normal()
            what[a] = spec
        W = OneFormField(g, np.real(np.fft.ifftn(what, axes=(1, 2, 3))))
        lhs = l2_inner(g, lame(W).values, W.values)
        LW = conformal_killing_deriv(W)
        rhs = 0.5 * l2_inner(
            g, LW.values * weights[:, None, None, None], LW.values)
        worst = max(worst, abs(lhs - rhs) / h1_norm_squared(W))
    return _check("energy_identity", "geometry", worst, 1e-10)


def _suite_bubble_residual():
    from .bubbles import BubbleParams, bubble, bubble_laplacian

    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (3, 4, 5, 6):
        p = BubbleParams(n=n, mu=0.7, f_center=2.0)
        x = rng.normal(size=(100, n)) * 2.0
        rhs = p.f_center * bubble(p, x) ** (2.0 * n / (n - 2.0) - 1.0)
        worst = max(worst, float(np.max(
            np.abs(bubble_laplacian(p, x) - rhs) / np.abs(rhs))))
    return _check("bubble_residual", "bubbles", worst, 1e-8)


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


def _suite_killing():
    from .green import killing_basis

    kb = killing_basis(3, 1.0)
    count_defect = abs(len(kb) - 10)
    vals = kb.evaluate(kb.quad.points)
    gram = np.einsum("aMi,bMi,M->ab", vals, vals, kb.quad.weights)
    ortho = float(np.max(np.abs(gram - np.eye(len(kb)))))
    rng = np.random.default_rng(3)
    killing = float(np.max(np.abs(kb.killing_deriv(
        rng.uniform(-0.5, 0.5, size=(30, 3))))))
    return [_check("killing_dimension", "green", count_defect, 0.5),
            _check("killing_orthonormality", "green", ortho, 1e-10),
            _check("killing_derivative", "green", killing, 1e-10)]


def _suite_constants():
    from scipy.integrate import quad as quad1d

    from .bubbles import blowup_constants

    c6 = abs(blowup_constants(6).stability_coef - 0.2)
    k3 = abs(blowup_constants(3).bubble_energy
             - 2.0 ** -3 * 3.0 ** 1.5 * 2.0 * np.pi ** 2)
    worst = 0.0
    from .quadrature import sphere_area
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


def _suite_pohozaev():
    from .bubbles import BubbleParams, bubble
    from .diagnostics import pohozaev_defect
    from .geometry import Chart

    p = BubbleParams(n=3, mu=1.0, f_center=3.0)
    defects = []
    for N in (33, 65):
        g = Chart(3, N, extent=1.3)
        pts = np.stack(np.meshgrid(*([g.axis_coords] * 3), indexing="ij"),
                       axis=-1)
        v = ScalarField(g, bubble(p, pts))
        C = SystemCoefficients(
            h=ScalarField.constant(g, 0.0), f=ScalarField.constant(g, 3.0),
            b=ScalarField.constant(g, 0.0), U=SymTensorField.zero(g),
            X=OneFormField.zero(g), Y=OneFormField.zero(g), gamma=1.0)
        defects.append(pohozaev_defect(v, C, np.zeros(3), 1.0).defect)
    return [_check("pohozaev_defect", "diagnostics", defects[1], 1e-6),
            _check("pohozaev_order", "diagnostics",
                   16.0 / max(defects[0] / defects[1], 1e-300), 1.0)]


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


def _suite_representation():
    from .green import representation_residual

    def bump(pts):
        pts = np.atleast_2d(pts)
        r2 = np.sum(pts ** 2, axis=-1) / 0.8 ** 2
        out = np.zeros((pts.shape[0], 3))
        m = r2 < 1.0
        out[m, 0] = (1.0 - r2[m]) ** 8
        return out

    res = [representation_residual(bump, np.zeros(3), 3, radius=1.0, level=le)
           for le in (0, 1)]
    ratio = res[0] / res[1]
    return [_check("representation_residual", "green", res[1], 1e-2),
            _check("representation_halving", "green",
                   abs(ratio - 2.0), 0.4)]


def _suite_instability():
    from .geometry import SphereRadial
    from .instability import assemble, verify

    rep = verify(assemble(1.25, geometry=SphereRadial(2048)))
    return [_check("instability_scalar", "instability",
                   rep.scalar_residual, 1e-6),
            _check("instability_vector", "instability",
                   rep.vector_residual, 1e-6),
            _check("instability_cancellation", "instability",
                   rep.cancellation, 1e-14),
            _check("instability_sup_closed_form", "instability",
                   abs(rep.sup_phi - rep.sup_phi_closed_form), 1e-9)]


SUITES = {
    "geometry": [_suite_energy_identity],
    "bubbles": [_suite_bubble_residual, _suite_constants],
    "green": [_suite_kernel, _suite_killing, _suite_representation],
    "diagnostics": [_suite_pohozaev, _suite_covariance],
    "instability": [_suite_instability],
}


def run_verification_suite(selector=None):
    """Run the module invariant checks; returns a list of CheckRow."""
    rows = []
    for group, funcs in SUITES.items():
        if selector and selector not in group:
            continue
        for fn in funcs:
            out = fn()
            rows.extend(out if isinstance(out, list) else [out])
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
