"""Library code has a caller outside the tests, and caches its results on objects.

Every public module-level function and class of the checked modules is
read, as an AST `Name` or `Attribute`, by another module of the package,
by its own module outside its own definition, or by the code of a
`bench/*.py` file.  Strings, docstrings and the names `mereotime/__init__.py`
re-exports do not count, so a name that only the tests reach fails here:
the paper checks are reached from a command, and helpers and oracles that
only the tests call live in `tests/conftest.py`.  No function in `src/`
keeps a value-keyed cache (`lru_cache`, `functools.cache`) beyond the named
exceptions, and none recurses through a nested function that calls itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mereotime"
CHECKED = ("boolean", "contact", "snapshot", "dca", "dms", "category", "generate")


def _referenced(nodes) -> set[str]:
    """The identifiers that `nodes` read as names or attributes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _unreferenced() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = _referenced(ast.parse(path.read_text()) for path in sorted((ROOT / "bench").glob("*.py")))
    out = []
    for module in CHECKED:
        elsewhere = _referenced(tree for name, tree in trees.items() if name != module) | bench
        body = trees[module].body
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere and node.name not in _referenced(other for other in body if other is not node):
                out.append(f"{module}.{node.name}")
    return out


def test_every_public_library_name_has_a_caller_outside_the_tests():
    unreferenced = _unreferenced()
    assert not unreferenced, f"only the tests reach these; route them from a command or move them to tests/conftest.py: {unreferenced}"


# Value-keyed function caches kept in src/, each for one reason.  Every
# other result is cached on the structure it describes.
VALUE_CACHES = {
    "contact.check_axioms": "bench/spans.py counts its misses through cache_info() until ROADMAP item 1",
}


def _value_caches() -> list[str]:
    """The functions of src/ decorated with `lru_cache` or `functools.cache`."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    out.append(f"{path.stem}.{node.name}")
    return out


def test_results_are_cached_on_objects_not_in_value_keyed_tables():
    assert sorted(_value_caches()) == sorted(VALUE_CACHES), "cache the result on the structure it describes"


def _recursive_closures() -> list[str]:
    """The functions of src/ that define a nested function calling itself by name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                calls = (sub.func for sub in ast.walk(inner) if isinstance(sub, ast.Call))
                if any(isinstance(f, ast.Name) and f.id == inner.name for f in calls):
                    out.append(f"{path.stem}.{outer.name}")
    return out


def test_no_function_recurses_through_a_nested_closure():
    """A nested function that calls itself holds its own closure cell, so
    every call of the outer function leaves a reference cycle for the
    cyclic collector; recurse through a module-level helper instead."""
    assert _recursive_closures() == [], "make the recursive closure a module-level function"
