"""Spans and counts for lichlab's layers, installed from outside the package.

``Tracer.install()`` replaces the public functions of each layer with
wrappers that record a span (name, start, end, parent, run id) and, for a
few boundaries, counts.  lichlab binds functions by name
(``from .geometry import laplace_beltrami``), so every module of the
package that holds a function under any name gets the wrapper in its
place; the library kernels (``numpy.fft``, ``scipy.fft``,
``scipy.sparse.linalg.minres`` and ``LinearOperator``, ``scipy.ndimage``)
are replaced in their own namespaces and in every lichlab module that
imported them.
``uninstall()`` puts every original back.  The package source is never
touched.

Span names are ``<layer>.<function>``; the layer is the part before the
first dot.  A span's self time is its duration minus the durations of its
direct children (calls are strictly nested: the benchmark is one thread).
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time

import numpy as np
import scipy.sparse.linalg as spla

# The real class: scipy looks it up in its own module, the wrappers below
# build operators from it while the namespace attribute is replaced.
from scipy.sparse.linalg import LinearOperator as _LinearOperator

PACKAGE_TARGETS = {
    "geometry": ("laplace_beltrami", "gradient", "divergence",
                 "conformal_killing_deriv", "lame", "lame_invert",
                 "partial_deriv"),
    "solver": ("solve_system", "solve_scalar", "solve_momentum",
               "check_coercivity", "scalar_residual_field",
               "momentum_residual_field"),
    "conformal": ("normalize", "coefficients", "reconstruct",
                  "constraint_residuals"),
    "harness": ("load_config", "run_sweep"),
    "green": ("representation_residual", "fundamental"),
    "quadrature": ("unit_sphere_rule", "gauss_panels"),
    "diagnostics": ("pohozaev_defect",),
}

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
             "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")

FIELD_CLASSES = ("ScalarField", "OneFormField", "SymTensorField")


def _nbytes(x):
    return int(getattr(x, "nbytes", np.asarray(x).nbytes))


class Tracer:
    """In-memory span and count recorder; one per traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, run id]
        self.counts = collections.Counter()    # (run id, key) -> amount
        self.run_id = "setup"
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def add(self, key, amount=1):
        self.counts[(self.run_id, key)] += amount

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def wrap(self, name, fn, before=None, after=None):
        """Return fn wrapped in a span; before/after hooks see the call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        # a class (LinearOperator) keeps its attributes to itself
        return traced if isinstance(fn, type) else functools.wraps(fn)(traced)

    # -- installation ------------------------------------------------------

    def _replace(self, namespace, attr, wrapper):
        original = getattr(namespace, attr)
        holders = [namespace] + [m for n, m in list(sys.modules.items())
                                 if n == "lichlab" or n.startswith("lichlab.")]
        for mod in holders:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def install(self):
        """Wrap every layer boundary of the imported lichlab package."""
        for layer, names in PACKAGE_TARGETS.items():
            mod = importlib.import_module(f"lichlab.{layer}")
            for fname in names:
                after = self._after_solve if fname == "solve_system" else None
                self._replace(mod, fname, self.wrap(
                    f"{layer}.{fname}", getattr(mod, fname), after=after))

        geometry = importlib.import_module("lichlab.geometry")
        for cls_name in FIELD_CLASSES:
            cls = getattr(geometry, cls_name)
            original = cls.__dict__["__post_init__"]
            cls.__post_init__ = self.wrap("geometry.field_wraps", original)
            self._undo.append((cls, "__post_init__", original))

        for module_name, tag in (("numpy.fft", "np"), ("scipy.fft", "sp")):
            mod = importlib.import_module(module_name)
            for fname in FFT_NAMES:
                if hasattr(mod, fname):
                    self._replace(mod, fname, self.wrap(
                        f"fft.{tag}.{fname}", getattr(mod, fname),
                        after=self._after_fft))

        self._replace(spla, "minres", self.wrap(
            "krylov.minres", spla.minres, before=self._before_minres,
            after=self._after_minres))
        self._replace(spla, "LinearOperator", self._traced_operator_class())

        ndimage = importlib.import_module("scipy.ndimage")
        self._replace(ndimage, "spline_filter", self.wrap(
            "diagnostics.spline_filter", ndimage.spline_filter,
            after=self._after_spline_filter))
        self._replace(ndimage, "map_coordinates", self.wrap(
            "diagnostics.map_coordinates", ndimage.map_coordinates,
            before=self._before_map_coordinates))
        return self

    def uninstall(self):
        while self._undo:
            mod, key, original = self._undo.pop()
            setattr(mod, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- hooks -------------------------------------------------------------

    def _after_solve(self, args, sol):
        self.add("solver.outer_iters", int(sol.iterations))

    def _after_fft(self, args, out):
        # an n-D transform built from other public transforms counts once
        if not self.parent_name().startswith("fft."):
            self.add("fft.bytes", _nbytes(args[0]) + _nbytes(out))

    def _before_minres(self, args, kwargs):
        A, b, *rest = args
        A = spla.aslinearoperator(A)
        A = _LinearOperator(A.shape, dtype=A.dtype,
                            matvec=self._counting(A.matvec, "krylov.matvecs"))
        M = kwargs.get("M")
        if M is not None:
            M = spla.aslinearoperator(M)
            kwargs["M"] = _LinearOperator(
                M.shape, dtype=M.dtype,
                matvec=self._counting(M.matvec, "krylov.precond_applies"))
        user_callback = kwargs.get("callback")

        def callback(xk):
            self.add("krylov.minres.iters")
            if user_callback is not None:
                user_callback(xk)

        kwargs["callback"] = callback
        return (A, b, *rest), kwargs

    def _after_minres(self, args, out):
        if out[1] != 0:
            self.add("krylov.minres.info_nonzero")

    def _counting(self, fn, key):
        def counted(x):
            self.add(key)
            return fn(x)
        return counted

    def _traced_operator_class(self):
        """LinearOperator construction as a span.

        Without a dtype, scipy probes the operator once with a zero vector;
        the span keeps that probe apart from the solve that builds it.
        """
        build = self.wrap("krylov.operator", _LinearOperator)

        class TracedLinearOperator(_LinearOperator):
            def __new__(cls, *args, **kwargs):
                # an instance of the real class: __init__ is not run twice
                return build(*args, **kwargs)

        return TracedLinearOperator

    def _after_spline_filter(self, args, out):
        self.add("diagnostics.spline_filter.bytes",
                 _nbytes(args[0]) + _nbytes(out))

    def _before_map_coordinates(self, args, kwargs):
        coords = np.asarray(args[1] if len(args) > 1 else kwargs["coordinates"])
        self.add("diagnostics.map_coordinates.points",
                 int(np.prod(coords.shape[1:])))
        return args, kwargs

    # -- aggregation -------------------------------------------------------

    def summary(self, run_ids):
        """Aggregate the spans and counts recorded under run_ids.

        Returns a Summary: per span name the calls and inclusive seconds
        (a name nested in itself counts once), self seconds, calls per
        (name, parent name) pair, and the counts.  All transforms whose
        parent is not itself a transform are pooled under the name "fft".
        """
        runs = set(run_ids)
        spans = self.spans
        child_time = collections.defaultdict(float)
        for name, t0, t1, parent, run in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = Summary()
        for i, (name, t0, t1, parent, run) in enumerate(spans):
            if run not in runs:
                continue
            pname = spans[parent][0] if parent >= 0 else ""
            out.by_parent[(name, pname)] += 1
            out.self_s[name.split(".")[0]] += (t1 - t0) - child_time[i]
            out.self_s[name] += (t1 - t0) - child_time[i]
            if not self._nested_in(i, name):
                out.calls[name] += 1
                out.incl[name] += t1 - t0
            if name.startswith("fft.") and not pname.startswith("fft."):
                out.calls["fft"] += 1
                out.incl["fft"] += t1 - t0
        for (run, key), amount in self.counts.items():
            if run in runs:
                out.counts[key] += amount
        return out

    def _nested_in(self, i, name):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


class Summary:
    def __init__(self):
        self.calls = collections.Counter()
        self.incl = collections.defaultdict(float)
        self.self_s = collections.defaultdict(float)   # by span name and by layer
        self.by_parent = collections.Counter()
        self.counts = collections.Counter()

    def add_scaled(self, other, factor):
        for mine, theirs in ((self.calls, other.calls), (self.incl, other.incl),
                             (self.self_s, other.self_s),
                             (self.by_parent, other.by_parent),
                             (self.counts, other.counts)):
            for key, value in theirs.items():
                mine[key] += factor * value


def _accept_ratio(s):
    trials = _line_search_evals(s) - s.calls["solver.solve_scalar"]
    return s.by_parent[("krylov.minres", "solver.solve_scalar")] / trials \
        if trials > 0 else 0.0


def _line_search_evals(s):
    # residual evaluations of solve_scalar outside Krylov solves and
    # operator set-up: the operator applications it makes itself
    return s.by_parent[("geometry.laplace_beltrami", "solver.solve_scalar")]


def _calls_s(name):
    return [(f"{name}.calls", "count", "lower", lambda s: s.calls[name]),
            (f"{name}.s", "s", "lower", lambda s: s.incl[name])]


def _s(name):
    return [(f"{name}.s", "s", "lower", lambda s: s.incl[name])]


# (metric name, unit, better, function of a Summary); BENCHMARK.json's
# per_layer list is this table
PER_LAYER = (
    _calls_s("fft")
    + [("fft.bytes", "B_computed", "lower", lambda s: s.counts["fft.bytes"])]
    + [m for f in ("laplace_beltrami", "lame", "lame_invert",
                   "conformal_killing_deriv", "partial_deriv", "field_wraps")
       for m in _calls_s(f"geometry.{f}")]
    + [("geometry.self_s", "s", "lower", lambda s: s.self_s["geometry"])]
    + _calls_s("solver.solve_system")
    + [("solver.outer_iters", "count", "lower",
        lambda s: s.counts["solver.outer_iters"])]
    + _s("solver.solve_scalar")
    + [("solver.newton_steps", "count", "lower",
        lambda s: s.by_parent[("krylov.minres", "solver.solve_scalar")])]
    + _calls_s("solver.solve_momentum") + _s("solver.check_coercivity")
    + [("solver.residual_fields.s", "s", "lower",
        lambda s: s.incl["solver.scalar_residual_field"]
        + s.incl["solver.momentum_residual_field"]),
       ("solver.line_search.evals", "count", "lower", _line_search_evals),
       ("solver.line_search.accept_ratio", "ratio", "higher", _accept_ratio),
       ("solver.self_s", "s", "lower", lambda s: s.self_s["solver"])]
    + _calls_s("krylov.minres")
    + [("krylov.minres.iters", "count", "lower",
        lambda s: s.counts["krylov.minres.iters"])]
    + [("krylov.matvecs", "count", "lower",
        lambda s: s.counts["krylov.matvecs"]),
       ("krylov.precond_applies", "count", "lower",
        lambda s: s.counts["krylov.precond_applies"]),
       ("krylov.minres.info_nonzero", "count", "lower",
        lambda s: s.counts["krylov.minres.info_nonzero"]),
       ("krylov.self_s", "s", "lower", lambda s: s.self_s["krylov"])]
    + _s("conformal.normalize") + _s("conformal.reconstruct")
    + _s("conformal.constraint_residuals")
    + [("conformal.self_s", "s", "lower", lambda s: s.self_s["conformal"])]
    + _s("harness.run_sweep")
    + [("harness.sweep.self_s", "s", "lower",
        lambda s: s.self_s["harness.run_sweep"])]
    + _s("green.representation_residual")
    + [("green.X_calls", "count", "lower", lambda s: s.counts["green.X_calls"]),
       ("green.X_points", "count", "lower",
        lambda s: s.counts["green.X_points"])]
    + _calls_s("green.fundamental")
    + [("green.self_s", "s", "lower", lambda s: s.self_s["green"])]
    + _calls_s("quadrature.unit_sphere_rule")
    + _s("diagnostics.pohozaev_defect")
    + _calls_s("diagnostics.spline_filter")
    + [("diagnostics.spline_filter.bytes", "B_computed", "lower",
        lambda s: s.counts["diagnostics.spline_filter.bytes"])]
    + _calls_s("diagnostics.map_coordinates")
    + [("diagnostics.map_coordinates.points", "count", "lower",
        lambda s: s.counts["diagnostics.map_coordinates.points"]),
       ("diagnostics.self_s", "s", "lower", lambda s: s.self_s["diagnostics"])]
)
