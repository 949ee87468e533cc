"""What the benchmark under ``perfbench/`` reaches in ``cubiclab``.

The benchmark looks names up at run time (``Tracer.install`` by ``getattr``,
its checks by imports inside functions), so a name that leaves the package
breaks it only when it runs.  These tests read its files and change none.
"""

import ast
import importlib.util
import os
import sys

import pytest

import cubiclab as cl
from cubiclab import exp_sums, lattice_enum

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_tracing():
    """``perfbench/tracing.py`` as a module, without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module     # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def test_every_traced_target_resolves_to_a_callable():
    targets = _load_tracing().TARGETS
    assert targets
    for module, name, _ in targets:
        assert callable(getattr(importlib.import_module(f"cubiclab.{module}"), name)), \
            f"{module}.{name}"


def test_every_name_the_benchmark_imports_exists():
    found = []
    for file in sorted(os.listdir(PERFBENCH)):
        if file.endswith(".py"):
            with open(os.path.join(PERFBENCH, file)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cubiclab"):
                    module = importlib.import_module(node.module)
                    found += [(file, node.module, a.name) for a in node.names]
                    for a in node.names:
                        assert hasattr(module, a.name), f"{file}: {node.module}.{a.name}"
    assert ("checks.py", "cubiclab.exp_sums", "complete_sum_crt") in found
    assert ("workloads.py", "cubiclab.lattice_enum", "additive_split") in found


def test_the_benchmark_oracle_routes_run():
    C = cl.taxicab_form()
    direct, _ = lattice_enum.zero_points(C, 2, "direct")
    mim, _ = lattice_enum.zero_points(C, 2, "meet_in_middle")
    assert sorted(direct.tolist()) == sorted(mim.tolist())
    assert [1, -1, 0, 0] in direct.tolist()
    assert lattice_enum.additive_split(C) is not None
    crt = exp_sums.complete_sum_crt(C, 6, 1, [0] * 4)
    assert crt.value == pytest.approx(cl.complete_sum(C, 6, 1, [0] * 4).value, abs=1e-9)
