"""Every exception class of the package is caught by name in the package.

Inside the program a refusal is a ValueError with its message, and at the
scenario and command-line boundary a ScenarioError; a subclass earns its
place only where some ``except`` tells it apart.  This walks the syntax tree
of each package module, as ``tests/test_imports.py`` does for imports.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "towercalc").glob("*.py"))


def _names(node) -> set:
    """The names a base or an ``except`` clause refers to, a tuple's each."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def uncaught_exceptions(sources: list) -> list:
    """The exception classes that ``sources`` define and no ``except`` of
    theirs names, sorted; a class is an exception class when one of its
    bases is a built-in exception or another such class."""
    trees = [ast.parse(source) for source in sources]
    bases = {
        n.name: set().union(*map(_names, n.bases))
        for t in trees
        for n in ast.walk(t)
        if isinstance(n, ast.ClassDef)
    }
    built_in = {
        name
        for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    found = set()
    while new := {c for c, b in bases.items() if c not in found and b & (built_in | found)}:
        found |= new
    caught = set().union(
        *(_names(n.type) for t in trees for n in ast.walk(t) if isinstance(n, ast.ExceptHandler))
    )
    return sorted(found - caught)


def test_the_guard_finds_an_exception_that_nothing_catches():
    source = (
        "class A(ValueError): pass\n"
        "class B(A): pass\n"
        "class C(errors.Base, A): pass\n"
        "class D(Exception): pass\n"
        "class E: pass\n"
        "try:\n    pass\n"
        "except (A, mod.D):\n    pass\n"
    )
    assert uncaught_exceptions([source]) == ["B", "C"]


def test_every_exception_class_of_the_package_is_caught_by_name():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert uncaught_exceptions(sources) == []
