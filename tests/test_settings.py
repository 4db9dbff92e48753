"""Repository settings: the pytest settings and dependency floors in
pyproject.toml, no unused imports in the package, its tests and its demos,
no stale ``__all__`` entry in the package and none that only tests read,
no defaulted option of a public name that only tests set, every function
and field class the benchmark tracer wraps still in the package under its
name, and the three quick demos run without a warning."""

import ast
import dataclasses
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

ONE_FAILING_ONE_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # hypothesis imports libcst to report a failure, and libcst warns with a
    # DeprecationWarning that the error:: filters would turn into an
    # internal error ending the whole run
    (tmp_path / "test_two.py").write_text(ONE_FAILING_ONE_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]


# the oldest releases with the calls the package makes: np.trapezoid
# (SphereRadial.integrate) and minres(rtol=...) (solve_system)
NEEDED_FLOORS = {"numpy": (2, 0), "scipy": (1, 12)}


def test_dependency_floors_cover_the_calls_the_package_makes():
    tomllib = pytest.importorskip("tomllib")    # Python >= 3.11
    floors = {}
    for dep in tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]:
        name, _, version = dep.partition(">=")
        floors[name.strip()] = tuple(int(part) for part in version.split("."))
    assert all(floors.get(name, ()) >= needed
               for name, needed in NEEDED_FLOORS.items()), floors


def unused_imports(path):
    """Names a module imports and never reads.

    ``__future__`` imports and the names listed in ``__all__`` do not count.
    """
    imported, read = {}, set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in read]


def test_every_imported_name_is_read():
    # __init__.py files import to re-export
    paths = [p for d in ("src", "tests", "demos")
             for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(paths) > 20
    unused = [u for p in paths for u in unused_imports(p)]
    assert not unused, unused


def test_every_name_in_all_resolves():
    modules = sorted((ROOT / "src" / "lichlab").glob("*.py"))
    assert len(modules) > 5
    stale = []
    for path in modules:
        name = "lichlab" if path.stem == "__init__" else f"lichlab.{path.stem}"
        mod = importlib.import_module(name)
        stale += [f"{name}.{entry}" for entry in getattr(mod, "__all__", ())
                  if not hasattr(mod, entry)]
    assert not stale, stale


def read_names(path):
    """Every name a module loads, as a bare name or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            read.add(node.attr)
    return read


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def reader_paths():
    """The code in src/, demos/ and perfbench/ outside a test."""
    readers = [p for d in ("src", "demos", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))
               if "tests" not in p.relative_to(ROOT).parts]
    assert len(readers) > 15
    return readers


def public_names():
    """(qualified name, object) of every entry of a package ``__all__``."""
    for path in sorted((ROOT / "src" / "lichlab").glob("*.py")):
        name = "lichlab" if path.stem == "__init__" else f"lichlab.{path.stem}"
        mod = importlib.import_module(name)
        for entry in getattr(mod, "__all__", ()):
            yield f"{name}.{entry}", getattr(mod, entry, None)


def test_every_public_name_has_a_reader():
    # a reader is code in src/, demos/ or perfbench/ outside a test, or the
    # benchmark tracer, which wraps its PACKAGE_TARGETS by name; a name only
    # tests read belongs in the test that reads it
    read = set().union(*map(read_names, reader_paths()))
    read.update(*load_tracing().PACKAGE_TARGETS.values())
    unread = [name for name, _ in public_names()
              if name.rsplit(".", 1)[1] not in read]
    assert not unread, unread


def defaulted_options(obj):
    """(name, position) of each defaulted parameter of a function or field
    of a dataclass; position is the index of the positional argument that
    sets it, None for a keyword-only parameter."""
    if dataclasses.is_dataclass(obj):
        init = [f for f in dataclasses.fields(obj) if f.init]
        return [(f.name, i) for i, f in enumerate(init)
                if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING]
    if not inspect.isfunction(obj):
        return []
    positional = (inspect.Parameter.POSITIONAL_ONLY,
                  inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [(p.name, i if p.kind in positional else None)
            for i, p in enumerate(inspect.signature(obj).parameters.values())
            if p.default is not p.empty]


def calls_by_callee(paths):
    """Every call in the files, keyed by the bare or attribute name called."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                callee = (getattr(node.func, "id", None)
                          or getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
    return calls


# defaulted options that no code outside tests/ sets, each kept for its
# reason
KEPT_OPTIONS = {
    "lichlab.green.killing_basis.rule":
        "the n = 4 test needs a rule smaller than the default's 2.6 M nodes",
    "lichlab.geometry.SphereRadial.eps":
        "test_volume_tends_to_round_s3 runs a convergence study as eps -> 0",
    "lichlab.solver.solve_scalar.guess":
        "solve_scalar is kept only as a benchmark tracer target",
    "lichlab.cli.main.argv":
        "the tests run the command line in-process through it",
}


def test_every_option_is_set_outside_the_tests():
    # a defaulted parameter or dataclass field that only tests set is a
    # second code path only they drive: it goes, and the one value the
    # package uses is written in its place.  A call sets an option if it
    # passes it by position or by keyword, or passes a **mapping.
    calls = calls_by_callee(reader_paths())

    def sets(call, option, position):
        return (any(k.arg in (option, None) for k in call.keywords)
                or position is not None and len(call.args) > position)

    unset = {f"{name}.{option}" for name, obj in public_names()
             for option, position in defaulted_options(obj)
             if not any(sets(call, option, position)
                        for call in calls.get(name.rsplit(".", 1)[1], ()))}
    assert unset == set(KEPT_OPTIONS), (
        f"set only by tests: {sorted(unset - set(KEPT_OPTIONS))}; "
        f"kept, but now set or gone: {sorted(set(KEPT_OPTIONS) - unset)}")


def test_every_traced_name_resolves():
    # perfbench's tracer wraps these by name; one that is gone would fail
    # only in a traced benchmark run
    tracing = load_tracing()
    assert len(tracing.PACKAGE_TARGETS) > 5
    stale = [f"lichlab.{module}.{name}"
             for module, names in tracing.PACKAGE_TARGETS.items()
             for name in names
             if not hasattr(importlib.import_module(f"lichlab.{module}"),
                            name)]
    assert not stale, stale
    # and it times each field kind's own __post_init__, read from the
    # class's own namespace, not one inherited from a shared base
    geometry = importlib.import_module("lichlab.geometry")
    assert len(tracing.FIELD_CLASSES) == 3
    stale = [f"lichlab.geometry.{name}.__post_init__"
             for name in tracing.FIELD_CLASSES
             if "__post_init__" not in vars(getattr(geometry, name, object))]
    assert not stale, stale
    # and it counts the Pohozaev spline reads by replacing scipy's own
    # functions wherever the package holds them under their names
    ndimage = importlib.import_module("scipy.ndimage")
    diagnostics = importlib.import_module("lichlab.diagnostics")
    stale = [f"lichlab.diagnostics.{name}"
             for name in ("spline_filter", "map_coordinates")
             if getattr(diagnostics, name, None) is not getattr(ndimage, name)]
    assert not stale, stale


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate costs about 15 MB and 0.16 s to load; only
    # instability.solve_Z needs it, and imports it itself
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, lichlab; print('scipy.integrate' in sys.modules)"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.stdout.strip() == "False", run.stdout + run.stderr


# these take 1-4 s each on a 2-core machine, the other demos 5-8 s each
@pytest.mark.parametrize("demo", ["demo_operators.py",
                                  "demo_stability_sweep.py",
                                  "demo_green_kernel.py"])
def test_demo_runs_without_warning(demo, tmp_path):
    run = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
