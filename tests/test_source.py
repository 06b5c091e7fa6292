"""Checks on the library source itself."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import periform

SOURCES = sorted(Path(periform.__file__).resolve().parent.glob("*.py"))


def test_no_assert_in_library():
    """python -O strips assert statements, so no check may be one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def test_line_width():
    """No source line is wider than 100 columns, so the line count falls by
    deletion and not by packing."""
    found = [
        f"{path.name}:{n}"
        for path in SOURCES
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert SOURCES and found == []


def test_traced_layers_exist():
    """Every (module, function) the benchmark traces resolves, so a rename
    fails here instead of in a traced benchmark run."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{func}"
        for module, func, _ in spans.LAYERS
        if not callable(getattr(importlib.import_module(f"periform.{module}"), func, None))
    ]
    assert spans.LAYERS and missing == []


def test_exports_resolve():
    """Every name in ``periform.__all__`` and in each module's ``__all__``
    resolves, so a deleted helper fails here and not in ``import *``."""
    modules = [periform] + [
        importlib.import_module(f"periform.{path.stem}")
        for path in SOURCES if path.stem != "__init__"
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert len(modules) == len(SOURCES) and missing == []


def test_no_private_cross_module_imports():
    """No module imports another's private name (``from .mod import _name``):
    what a module shares is public, so it is also what its tests pin."""
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert SOURCES and found == []


def test_integer_types_named_only_in_linalg():
    """Only ``linalg`` names the narrow integer types or their limits, so
    ``linalg.int_type`` is the one rule for the type of an exact integer
    array."""
    pattern = re.compile(r"\bnp\.(iinfo|int8|int16|int32)\b")
    found = [
        f"{path.name}:{n}"
        for path in SOURCES if path.name != "linalg.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert SOURCES and found == []


def imported(node):
    """The module and names an import statement names; [] for other nodes."""
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""] + [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return []


def test_every_test_module_imports():
    """Every test module imports.  The Tier-1 run continues past collection
    errors, so a module that imports a deleted name would otherwise drop
    all of its tests without one failure."""
    for path in sorted(Path(__file__).resolve().parent.glob("test_*.py")):
        importlib.import_module(path.stem)


def test_no_module_imports_scipy():
    """No module imports scipy, or even names it: the float solve that steers
    the cone projections is ``cones.nnls``, and scipy serves only the tests,
    as a reference."""
    found = [
        f"{path.name}:{n}"
        for path in SOURCES
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "scipy" in line
    ]
    assert SOURCES and found == []


def test_one_cone_solver():
    """Only ``simplex`` holds an LP: no other module imports it or names
    scipy's ``linprog``, so every cone question goes through
    ``cones.project_to_cone``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES if path.name != "simplex.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if any(name.split(".")[-1] == "simplex" for name in imported(node))
    ] + [
        f"{path.name}:{n}"
        for path in SOURCES if path.name != "simplex.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "linprog" in line
    ]
    assert SOURCES and found == []


def test_no_process_wide_caches():
    """No function is memoised across calls (``functools.lru_cache`` or
    ``functools.cache``, as a decorator or imported), so no result depends on
    what the process computed before; a form keeps its own reduction."""

    def named(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")

    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and any(named(dec) in ("lru_cache", "cache") for dec in node.decorator_list)
        or isinstance(node, ast.ImportFrom) and node.module == "functools"
        and any(alias.name in ("lru_cache", "cache") for alias in node.names)
    ]
    assert SOURCES and found == []
