"""Checks of the package source itself: no private helper outlives its
callers."""

import ast
from pathlib import Path

import cubiclab

SRC = Path(cubiclab.__file__).parent


def _references(node):
    """The names that ``node`` reads, as a name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced_privates(src=SRC):
    """(module, name) of every top-level private function or class in the
    ``.py`` files of ``src`` that no code there references outside its own
    definition."""
    defs, uses = [], {}
    for path in sorted(Path(src).glob("*.py")):
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            where = (path.name, i)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and stmt.name.startswith("_") and not stmt.name.startswith("__"):
                defs.append((where, stmt.name))
            for name in _references(stmt):
                uses.setdefault(name, set()).add(where)
    return [(where[0], name) for where, name in defs if not uses.get(name, set()) - {where}]


def test_every_private_definition_is_referenced_in_the_package():
    assert unreferenced_privates() == []
