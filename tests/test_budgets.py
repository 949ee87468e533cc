"""The work budgets of ``_grid.BUDGETS`` at their boundary: each kind's call
runs with its limit at the exact work it does and refuses at one less."""

import math
import tracemalloc

import numpy as np
import pytest

import cubiclab as cl
from cubiclab import _grid, exp_sums, forms_core
from cubiclab.errors import ResourceLimit
from cubiclab.kernels import KernelParams, sandwich_check
from cubiclab.lattice_enum import zero_points
from cubiclab.linear_construction import solve_system
from cubiclab.singular_integral import chi_w_oscillatory


def _transform_case():
    # every distinct |t| of the grid and the knots, times the 22,328 alpha
    # nodes of the plus sign at |t| <= 2 eta, the larger of the two signs
    eta = 0.05
    rho = KernelParams.from_P(eta, 100, "plus").rho
    grid = np.linspace(-2 * eta, 2 * eta, 10).tolist()
    ts = {abs(t) for t in grid + [0.0, eta - rho, eta, eta + rho]}
    return lambda: sandwich_check(eta, rho, grid, 1e-4), len(ts) * 22_328


def _chi_w_call(taxicab):
    # n - r = 3, so the value is the box integral alone; a tolerance every
    # second grid meets stops the doubling at k = 2
    Ls = cl.LinearSystem.from_rows([[1.0, math.sqrt(2), math.sqrt(3), math.sqrt(5)]])
    return lambda: chi_w_oscillatory(taxicab, Ls, box=(1.0, 1.0), tol=1e9)


# kind -> (the call, the work it does of that kind).  The doubling kinds'
# work is their second grid's: a tolerance of 1 (or more) stops there.
CASES = {
    "residues": lambda f: (lambda: exp_sums.residue_histogram(f["connected"], 31), 31**4),
    "points": lambda f: (lambda: zero_points(f["connected"], 15, "direct"), 31**4),
    "side points": lambda f: (lambda: zero_points(f["taxicab"], 100), 201**2),
    "g points": lambda f: (lambda: exp_sums.sum_g(f["connected"], 10.0, 0.1, [0.1] * 4, True),
                           19**4),
    # start = max(8, ceil(2 (3 + 0.5))) = 8 panels, then 16 of 12 nodes
    "axis nodes": lambda f: (lambda: exp_sums.osc_integral_I(cl.CubicForm.diagonal([1]), 1.0,
                                                             [0.5], tol=1.0), 16 * 12),
    # x1^2 x2: start = max(4, ceil(1.5 * 0.3)) = 4 panels, then 8, of 8 nodes an axis
    "tensor nodes": lambda f: (lambda: exp_sums.osc_integral_I(
        cl.CubicForm.from_terms(2, [(1, 1, 2, 1)]), 0.1, [0.0, 0.0], tol=1.0), (8 * 8) ** 2),
    # grid k = 2: 48 k outer nodes an axis
    "outer nodes": lambda f: (_chi_w_call(f["taxicab"]), 48 * 2),
    # grid k = 2: 24 k outer nodes with beta > 0 times 5 t0 k t nodes with
    # t > 0, t0 = max(16, ceil(1.5 (3 + sqrt 5))) = 16
    "phase entries": lambda f: (_chi_w_call(f["taxicab"]), 24 * 2 * 5 * 16 * 2),
    "candidate vectors": lambda f: (lambda: forms_core._primitive_vectors(4, 5), 11**4),
    # no kernel point comes near tau, so every band of |y| <= 100 is scanned
    "search points": lambda f: (lambda: solve_system(f["taxicab"], f["taxicab_decomp"],
                                                     f["irr_linsys"], [1e6], 0.05, 100), 201**2),
    "transform pairs": lambda f: _transform_case(),
}
DOUBLING = {"axis nodes", "tensor nodes", "outer nodes", "phase entries"}


def _traced(call):
    """(the call's ResourceLimit or None, its traced peak in bytes)."""
    tracemalloc.start()
    try:
        try:
            call()
        except ResourceLimit as exc:
            return exc, tracemalloc.get_traced_memory()[1]
        return None, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", list(_grid.BUDGETS))
def test_each_budget_runs_at_its_work_and_refuses_one_less(monkeypatch, request, kind):
    # a charged kind refuses before its walk allocates anything and names
    # the work, its amount and the limit; a doubling kind refuses when its
    # second grid no longer fits, which is then never built
    fixtures = {name: request.getfixturevalue(name)
                for name in ("taxicab", "connected", "taxicab_decomp", "irr_linsys")}
    call, work = CASES[kind](fixtures)
    call()      # warm every cache, so that each traced peak is the call's own
    monkeypatch.setitem(_grid.BUDGETS, kind, work)
    exc, ran = _traced(call)
    assert exc is None
    monkeypatch.setitem(_grid.BUDGETS, kind, work - 1)
    exc, refused = _traced(call)
    assert exc is not None
    if kind in DOUBLING:
        # the refusal names the row that stopped the doubling, with its limit
        assert "needs two grids to estimate its error; 1 fit its budget of " in str(exc)
        assert f"{kind} {work - 1}" in str(exc)
        assert refused < ran
    else:
        assert f" = {work} {kind} exceeds budget {work - 1}" in str(exc)
        assert refused < 2**16 < ran, (refused, ran)


def test_join_budgets_stay_in_int32():
    # the join's int32 order, lo, run and running totals hold a side's
    # points and the pair count
    assert max(_grid.BUDGETS["points"], _grid.BUDGETS["side points"]) < 2**31
