"""Library code has a caller outside the tests, and caches its results on objects.

Every public module-level function and class of the checked modules is
referenced, as an AST `Name` or `Attribute`, by another module of the
package or by its own module outside its own definition, or is named in a
`bench/*.py` file, or is exported in `mereotime.__all__`.  Docstring
mentions do not count.  Helpers and oracles that only the tests call live
in `tests/conftest.py`.  No function in `src/` keeps a value-keyed cache
(`lru_cache`, `functools.cache`) beyond the named exceptions.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import mereotime

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mereotime"
CHECKED = ("boolean", "contact", "snapshot", "dca", "dms", "category")
# Kept without a caller, each for one open question.
ALLOWED = {
    "functor_laws": "the morphism sweep of the exhaustive census checks the functor laws",
    "irr_one_directional": "the census records whether irreflexivity shows a converse gap",
}


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
    bench = " ".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))
    exported = set(mereotime.__all__)
    out = []
    for module in CHECKED:
        elsewhere = _referenced(tree for name, tree in trees.items() if name != module)
        body = trees[module].body
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            name = node.name
            if (
                name in exported
                or name in elsewhere
                or name in _referenced(other for other in body if other is not node)
                or re.search(rf"\b{name}\b", bench)
            ):
                continue
            out.append(f"{module}.{name}")
    return out


def test_every_public_library_name_has_a_caller_outside_the_tests():
    unreferenced = _unreferenced()
    offenders = [name for name in unreferenced if name.split(".")[1] not in ALLOWED]
    assert not offenders, f"only the tests reach these; move them to tests/conftest.py: {offenders}"
    assert sorted(name.split(".")[1] for name in unreferenced) == sorted(ALLOWED), "an allowed name has a caller now"


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
