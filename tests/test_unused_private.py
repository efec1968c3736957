"""Every module-level private function, class and constant of the package is used.

A private helper that nothing calls any more is dead code that still reads
as if it mattered.  Like ``test_unused_imports``, this is a small stdlib
``ast`` check: a private definition counts as used when its name appears as
a name or an attribute outside its own definition, anywhere in the package.
A use in the tests alone does not count: a helper only the tests need
belongs in the tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tenrol"
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _referenced(node: ast.AST) -> set[str]:
    """Names read in ``node``, as plain names or as attributes; assignment targets do not count."""
    loads = [n for n in ast.walk(node) if isinstance(getattr(n, "ctx", None), ast.Load)]
    return {n.id for n in loads if isinstance(n, ast.Name)} | {n.attr for n in loads if isinstance(n, ast.Attribute)}


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, _DEFINITIONS):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def private_definitions(sources: dict[str, str]) -> list[str]:
    """``"module.name"`` for each module-level private def, class or assignment."""
    return [
        f"{module}.{name}"
        for module, source in sources.items()
        for node in ast.parse(source).body
        for name in _defined_names(node)
        if _is_private(name)
    ]


def unused_private(sources: dict[str, str]) -> list[str]:
    """The private definitions of ``sources`` that ``sources`` do not reference."""
    used: set[str] = set()
    for source in sources.values():
        for node in ast.parse(source).body:
            refs = _referenced(node)
            if isinstance(node, _DEFINITIONS):
                refs.discard(node.name)  # its own body, recursion included, does not count
            used |= refs
    return sorted(where for where in private_definitions(sources) if where.split(".", 1)[1] not in used)


def read_all(paths) -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(paths)}


def test_every_private_definition_is_used():
    sources = read_all(SRC.glob("*.py"))
    assert private_definitions(sources), "no private definitions found: the check would be vacuous"
    assert unused_private(sources) == []


def test_the_check_sees_an_unused_private_definition():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_dead_constant: int = 4\n"
            "def _used(): return _LIMIT\n"
            "def _recursive(n): return _recursive(n - 1) if n else 0\n"
            "class _Dead: pass\n"
            "def _by_attribute(): pass\n"
            "def __dunder__(): pass\n"
            "def public(): return _used()\n"
        ),
        "b": "from . import a\nx = a._by_attribute\n",
    }
    assert unused_private(sources) == ["a._Dead", "a._dead_constant", "a._recursive"]
