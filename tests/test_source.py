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


# no refusal outside _grid: an input a route is not written for (such as
# r >= 2 for the oscillatory cross-check) is a ValueError, not a budget
REFUSALS_OUTSIDE_GRID = []
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


# where L's coefficients themselves are read, as a float matrix: the rank
# check of LinearSystem and the frequencies of the oscillatory cross-check
MATRIX_READERS = [("forms_core.py", "LinearSystem.__post_init__"),
                  ("singular_integral.py", "_osc_separable_value"),
                  ("singular_integral.py", "chi_w_oscillatory")]


def test_linear_coefficients_are_read_as_a_matrix_only_where_needed():
    # every L at points goes through _grid.row_values, which sums l_k x_k in
    # k order: a matmul rounds by the array a point sits in
    readers = set()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            for node in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
                if any(isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "matrix"
                       for sub in ast.walk(node)):
                    name = getattr(node, "name", type(node).__name__)
                    readers.add((path.name, f"{stmt.name}.{name}" if node is not stmt else name))
    assert sorted(readers) == sorted(MATRIX_READERS)
