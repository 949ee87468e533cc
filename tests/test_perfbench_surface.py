"""What the benchmark under ``perfbench/`` reaches in ``cubiclab``.

The benchmark looks names up at run time (``Tracer.install`` by ``getattr``,
its checks by imports inside functions), so a name that leaves the package
breaks it only when it runs.  Its outputs are checked against its recorded
references only when it runs, too: here every workload's commands run at
seed 0 through ``cli.main`` and meet the benchmark's own checks.  These
tests read its files and change none.  ``tools/cli_outputs.py``, which
hashes the benchmark's outputs to compare two checkouts, runs once on one
workload, and ``tools/peak_rss.py``, which measures each call's peak memory
in a fresh process, on one command.
"""

import ast
import importlib.util
import json
import math
import os
import re
import subprocess
import sys

import pytest

import cubiclab as cl
from cubiclab import exp_sums, lattice_enum
from cubiclab.cli import main
from cubiclab.forms_core import load_cubic_form

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load(name, **imports):
    """``perfbench/<name>.py`` as a module, without writing its bytecode;
    ``imports`` are the modules it imports by name, as run from its folder."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    imports = {spec.name: module, **imports}    # its dataclasses look their module up
    sys.modules.update(imports)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        for key in imports:
            del sys.modules[key]
    return module


def test_every_traced_target_resolves_to_a_callable():
    targets = _load("tracing").TARGETS
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


@pytest.mark.parametrize("workload", ["split", "connected", "quadrature"])
def test_workload_outputs_meet_the_benchmark_checks(workload, tmp_path, capsys):
    # each command at seed 0, checked as the benchmark's first pass checks
    # it: its oracles, and its fields against reference.json, so an output
    # the benchmark would count as incorrect fails here first
    wl = _load("workloads")
    checks = _load("checks", workloads=wl)
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        ref = json.load(fh)[workload]["0"]
    inp = wl.make_inputs(0)
    paths = wl.write_inputs(workload, inp, str(tmp_path))
    C = load_cubic_form(paths["form"])
    assert wl.property_problems(workload, paths) == []
    for cmd in wl.commands(workload, inp, paths):
        assert main(list(cmd.argv)) == 0, cmd.label
        doc = checks.normalize(json.loads(capsys.readouterr().out), str(tmp_path))
        problems = checks.oracle_problems(workload, cmd.label, doc, inp, C)
        problems += checks.compare(checks.fields(cmd.label, doc), ref[cmd.label], True)
        assert problems == [], f"{cmd.label}: {problems}"


def test_cli_outputs_hashes_the_named_workload():
    # one line per call: 32 seeds x the 3 commands of `quadrature`, each
    # with exit code 0 and a SHA-256; -B keeps bytecode out of perfbench/
    run = subprocess.run([sys.executable, "-B", os.path.join(ROOT, "tools", "cli_outputs.py"),
                          ROOT, "quadrature"], capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    lines = [line.split() for line in run.stdout.splitlines()]
    assert len(lines) == 96
    assert [(seed, workload, rc) for seed, workload, _, rc, _ in lines] \
        == [(str(seed), "quadrature", "0") for seed in range(32) for _ in range(3)]
    assert {label for _, _, label, _, _ in lines} == {"sintegral_osc", "sintegral_tent", "kernel"}
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for *_, digest in lines)


def test_peak_rss_runs_one_command_in_a_fresh_process():
    # one line: seed, workload, label, exit code, then the baseline and peak
    # ru_maxrss in MB and their difference; -B keeps bytecode out of perfbench/
    run = subprocess.run([sys.executable, "-B", os.path.join(ROOT, "tools", "peak_rss.py"),
                          ROOT, "split", "--labels", "construct"],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    [line] = [line.split() for line in run.stdout.splitlines()]
    assert line[:4] == ["0", "split", "construct", "0"]
    base, peak, above = map(float, line[4:])
    assert 0 < base <= peak and math.isclose(above, peak - base, abs_tol=0.11)
