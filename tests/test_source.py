"""Checks of the package source itself: no private helper outlives its
callers."""

import ast
import re
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


# the one refusal that is no work budget: the oscillatory cross-check's
# quadrature is written for r <= 1 only
REFUSALS_OUTSIDE_GRID = [("singular_integral.py", "chi_w_oscillatory")]
# a budget constant's name; cli's EXIT_BUDGET is the exit code of a refusal
BUDGET_NAME = re.compile(r"^(?!EXIT_).*(_BUDGET$|_CAP$|_MAX_)")


def _raises_resource_limit(node):
    """Whether a ``raise`` statement raises ResourceLimit."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return "ResourceLimit" in {getattr(exc, "id", None), getattr(exc, "attr", None)}


def test_only_the_budget_table_refuses_work():
    # every budget is a row of _grid.BUDGETS and every refusal goes through
    # _grid.charge: no other module raises ResourceLimit, but the listed
    # refusal, or defines a budget constant of its own
    refusals, constants = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_grid.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            refusals += [(path.name, getattr(stmt, "name", type(stmt).__name__))
                         for sub in ast.walk(stmt)
                         if isinstance(sub, ast.Raise) and sub.exc is not None
                         and _raises_resource_limit(sub)]
            targets = stmt.targets if isinstance(stmt, ast.Assign) else (
                [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            constants += [(path.name, t.id) for t in targets if isinstance(t, ast.Name)
                          and BUDGET_NAME.match(t.id)]
    assert refusals == REFUSALS_OUTSIDE_GRID
    assert constants == []
