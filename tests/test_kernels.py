import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import cubiclab as cl
from cubiclab import _grid, kernels
from cubiclab._grid import gl_nodes, gl_phases
from cubiclab.cli import EXIT_BUDGET, main
from cubiclab.errors import ResourceLimit, SandwichViolation
from cubiclab.kernels import (KernelParams, choose_T, indicator_U, kernel_K, kernel_hat,
                              sandwich_check)


def test_kernel_at_zero():
    for sign, expect in [("plus", 2.5), ("minus", 1.5)]:
        kp = KernelParams(eta=1.0, rho=0.5, sign=sign)
        assert kernel_K(0.0, kp) == pytest.approx(expect)


def test_kernel_minus_example():
    kp = KernelParams(eta=1.0, rho=0.5, sign="minus")
    assert kernel_K(1.0, kp) == pytest.approx(-2 / math.pi**2)
    assert kernel_K(1.0, kp) == pytest.approx(-0.20264236728467555)


def test_kernel_even_and_bounded():
    rng = random.Random(3)
    kp = KernelParams(eta=0.2, rho=0.05, sign="plus")
    for _ in range(200):
        a = rng.uniform(-50, 50)
        va, vm = kernel_K(a, kp), kernel_K(-a, kp)
        assert va == pytest.approx(vm, abs=1e-15)
        assert abs(va) <= 2 * kp.eta + kp.rho + 1e-15
        if a != 0:
            assert abs(va) <= 1 / (math.pi**2 * kp.rho * a * a) + 1e-15


def test_kernel_params_invariants():
    with pytest.raises(ValueError):
        KernelParams(eta=0.1, rho=0.2, sign="minus")
    with pytest.raises(ValueError):
        KernelParams(eta=0.1, rho=0.05, sign="both")
    # the minus plateau inf - inf would be NaN
    with pytest.raises(ValueError, match="eta must be finite, got inf"):
        KernelParams(eta=math.inf, rho=math.inf, sign="minus")


def test_hat_plateau_and_support():
    kp_p = KernelParams(eta=1.0, rho=0.5, sign="plus")
    kp_m = KernelParams(eta=1.0, rho=0.5, sign="minus")
    assert kernel_hat(0.0, kp_p) == 1.0 and kernel_hat(0.0, kp_m) == 1.0
    assert kernel_hat(1.6, kp_p) == 0.0  # beyond eta + rho
    assert kernel_hat(1.0 - 0.25, kp_m) == pytest.approx(0.5)  # ramp midpoint
    assert kernel_hat(1.0, kp_m) == 0.0
    assert kernel_hat(1.0, kp_p) == 1.0  # plus plateau reaches eta


def test_hat_sandwiches_indicator_pointwise():
    kp_p = KernelParams(eta=0.3, rho=0.1, sign="plus")
    kp_m = KernelParams(eta=0.3, rho=0.1, sign="minus")
    for t in np.linspace(-0.8, 0.8, 401):
        u = cl.indicator_U(float(t), 0.3)
        assert kernel_hat(t, kp_m) <= u + 1e-15
        assert u <= kernel_hat(t, kp_p) + 1e-15


def test_transform_matches_quadpack_spot():
    kp = KernelParams(eta=0.5, rho=0.1, sign="plus")
    for t in (0.0, 0.3, 0.55, 0.7):
        val, _ = quad(lambda a: kernel_K(a, kp) * math.cos(2 * math.pi * a * t),
                      0, 2000, limit=20000)
        assert 2 * val == pytest.approx(kernel_hat(t, kp), abs=5e-3)


@pytest.mark.parametrize("eta", [0.05, 0.5])
def test_sandwich_check(eta):
    rho = eta / math.log(100)
    grid = np.linspace(-2 * eta, 2 * eta, 60)
    rep = sandwich_check(eta, rho, grid.tolist(), 1e-4)
    assert rep.max_numeric_dev_plus <= 1e-4 + rep.tail_bound
    assert rep.max_numeric_dev_minus <= 1e-4 + rep.tail_bound


@settings(max_examples=40)
@given(eta=st.floats(1e-6, 1e3), frac=st.floats(0.1, 1.0),
       ts=st.lists(st.floats(0, 1), max_size=8))
def test_knot_decision_holds_at_every_t(eta, frac, ts):
    # where sandwich_check passes, the float trapezoids keep the chain at
    # the knots, their float neighbours and points between them
    rho = eta * frac
    sandwich_check(eta, rho, [0.0], 1.0)
    kp_m = KernelParams(eta=eta, rho=rho, sign="minus")
    kp_p = KernelParams(eta=eta, rho=rho, sign="plus")
    knots = [eta - rho, eta, eta + rho]
    points = [0.0] + [t * 2 * (eta + rho) for t in ts]
    points += [math.nextafter(k, d) for k in knots for d in (0.0, math.inf)] + knots
    for t in points:
        for s in (t, -t):
            assert kernel_hat(s, kp_m) <= indicator_U(s, eta) <= kernel_hat(s, kp_p)


def test_sandwich_check_decides_the_chain_at_the_knots(monkeypatch):
    # a plus plateau of eta - rho leaves hat_plus below U = 1 on
    # eta - rho < |t| < eta; the knot comparison refuses it, and the CLI
    # propagates the defect instead of reporting a config error
    monkeypatch.setattr(KernelParams, "plateau", property(lambda kp: kp.eta - kp.rho))
    kp = KernelParams(eta=0.05, rho=0.01, sign="plus")
    assert kernel_hat(0.045, kp) < indicator_U(0.045, 0.05)
    with pytest.raises(SandwichViolation, match="knots"):
        sandwich_check(0.05, 0.01, [0.0, 0.045], 1e-4)
    with pytest.raises(SandwichViolation, match="knots"):
        main(["kernel", "check", "--eta", "0.05", "--P", "100", "--grid", "10"])


def test_transform_integral_at_zero_is_plateau():
    # integral of K over the line equals hat(0) = 1
    kp = KernelParams(eta=0.25, rho=0.05, sign="minus")
    val, _ = quad(lambda a: kernel_K(a, kp), 0, 4000, limit=40000)
    assert 2 * val == pytest.approx(1.0, abs=2e-3)


def test_small_alpha_taylor_bound():
    rng = random.Random(17)
    P = 100.0
    for sign in ("plus", "minus"):
        kp = KernelParams.from_P(0.05, P, sign)
        m = kp.outer_width
        for _ in range(100):
            a = rng.uniform(-(P**-0.5), P**-0.5)
            bound = (math.pi**2 / 6) * a * a * (kp.rho**2 + m * m) * m
            assert abs(kernel_K(a, kp) - m) <= bound + 1e-15


def test_choose_T():
    assert choose_T(1.0) == 1.0
    assert choose_T(math.exp(10)) == pytest.approx(10.0)
    ps = [1.0, 2.0, 10.0, 1e3, 1e6]
    ts = [choose_T(p) for p in ps]
    assert all(a <= b for a, b in zip(ts, ts[1:]))
    assert all(t <= p for t, p in zip(ts, ps))


@pytest.mark.parametrize("call, detail", [
    (lambda: choose_T(math.nan), "P must be finite, got nan"),
    (lambda: choose_T(math.inf), "P must be finite, got inf"),
    (lambda: KernelParams.from_P(math.nan, 100.0, "plus"), "eta must be positive, got nan"),
    (lambda: KernelParams.from_P(-0.05, 100.0, "plus"), "eta must be positive, got -0.05"),
    (lambda: sandwich_check(0.05, 0.01, [0.0], -1.0), "tol must be non-negative, got -1.0"),
    (lambda: sandwich_check(0.05, 0.01, [0.0], math.nan), "tol must be non-negative, got nan"),
    (lambda: sandwich_check(0.05, 0.01, [0.0], math.inf), "tol must be finite, got inf"),
], ids=["T-P-nan", "T-P-inf", "from_P-eta-nan", "from_P-eta-negative", "sandwich-tol-negative",
        "sandwich-tol-nan", "sandwich-tol-inf"])
def test_kernel_inputs_are_refused_by_name(call, detail):
    # a NaN P gave T = 1, a NaN eta a NaN rho, and a negative tol would end
    # in SandwichViolation, the signal of a program defect, not bad input
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == detail


@pytest.mark.parametrize("eta", [1e-310, 3e-306])
def test_an_eta_whose_transform_cut_overflows_is_refused(eta):
    # the cut 400/rho is inf at these rho, and the panel count then raised
    # OverflowError; the parameters, the grid charge and the check refuse it
    with pytest.raises(ValueError, match=f"eta {eta!r} is too small"):
        KernelParams.from_P(eta, 100.0, "plus")
    with pytest.raises(ValueError, match="is too small"):
        kernels.check_grid(eta, eta / 2, 10)
    with pytest.raises(ValueError, match="is too small"):
        sandwich_check(eta, eta / 2, [0.0], 1e-4)


def test_from_P_ties_rho_to_schedule():
    # T = log P passes e past P = e^e: L = log T = log log P, and rho = eta below
    kp = KernelParams.from_P(0.05, 1e50, "plus")
    assert kp.rho == pytest.approx(0.05 / math.log(math.log(1e50)))
    assert KernelParams.from_P(0.05, 100.0, "plus").rho == 0.05 / math.log(math.log(100.0))
    assert KernelParams.from_P(0.05, 15.0, "plus").rho == 0.05


def test_sandwich_check_memory_at_cli_sizes():
    # `kernel check --eta 0.05 --P 100 --grid 1000`: 721 t values against
    # 22,328 alpha nodes (plus kernel).  A dense (t, alpha) cosine table is 129 MB, and the
    # chunked dense route peaked at about 245 MB here; the factored phase
    # tables over all t values at once took 11.7 MiB, and walked in column
    # blocks of _grid.BLOCK entries they need about 3 MiB
    kp = KernelParams.from_P(0.05, 100, "plus")
    grid = np.linspace(-0.1, 0.1, 1000).tolist()
    tracemalloc.start()
    try:
        report = sandwich_check(0.05, kp.rho, grid, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.points_checked == 721
    assert peak < 4 * 2**20, f"sandwich_check peaked at {peak / 2**20:.2f} MiB"


def _pair_charge(monkeypatch, eta, P, grid):
    """t values times the larger sign's alpha nodes of ``sandwich_check``,
    read from a run at the shipped budget."""
    nodes = []

    def counted(*args):
        got = gl_nodes(*args)
        nodes.append(len(got[0]))
        return got
    with monkeypatch.context() as m:
        m.setattr(kernels, "gl_nodes", counted)
        rho = KernelParams.from_P(eta, P, "plus").rho
        report = sandwich_check(eta, rho, np.linspace(-2 * eta, 2 * eta, grid).tolist(), 1e-4)
    return report, report.points_checked * max(nodes)


@settings(max_examples=30, deadline=None)
@given(ts=st.lists(st.sampled_from([0.0, -0.0, 0.05, -0.05, 0.07, -0.07]) | st.floats(-0.1, 0.1),
                   max_size=12))
def test_sandwich_check_counts_each_distinct_abs_t_once(ts):
    # the t values are |t| over the grid and the knots, each once
    eta = 0.05
    rho = KernelParams.from_P(eta, 100, "plus").rho
    report = sandwich_check(eta, rho, ts, 1e-4)
    assert report.points_checked == len({abs(t) for t in ts + [0.0, eta - rho, eta, eta + rho]})


@pytest.mark.parametrize("grid", [1000, 200])
def test_cli_kernels_stay_far_inside_the_pair_budget(monkeypatch, grid):
    # the benchmark's `kernel check --eta 0.05 --P 100 --grid 1000` and the
    # README's `--grid 200`
    report, charge = _pair_charge(monkeypatch, 0.05, 100, grid)
    assert charge == report.points_checked * 22_328
    assert 50 * charge <= _grid.BUDGETS["transform pairs"]


@pytest.mark.parametrize("slack", [0, -1])
def test_sandwich_check_charges_its_pairs_before_any_phase(monkeypatch, slack):
    # at the exact charge the check runs; one pair less and it refuses
    # before a phase is built
    want, charge = _pair_charge(monkeypatch, 0.05, 100, 50)
    built = []

    def phases(*args):
        built.append(args)
        return gl_phases(*args)
    monkeypatch.setitem(_grid.BUDGETS, "transform pairs", charge + slack)
    monkeypatch.setattr(kernels, "gl_phases", phases)
    rho = KernelParams.from_P(0.05, 100, "plus").rho
    grid = np.linspace(-0.1, 0.1, 50).tolist()
    if slack == 0:
        assert sandwich_check(0.05, rho, grid, 1e-4) == want
        assert built
    else:
        with pytest.raises(ResourceLimit, match="exceeds budget"):
            sandwich_check(0.05, rho, grid, 1e-4)
        assert not built


def test_kernel_check_past_the_pair_budget_exits_3(monkeypatch, capsys):
    # `--grid 20000000` would charge about 3.5e11 pairs; the same refusal at
    # a lowered budget, without building that grid
    monkeypatch.setitem(_grid.BUDGETS, "transform pairs", 1000)
    assert main(["kernel", "check", "--eta", "0.05", "--P", "100", "--grid", "10"]) == EXIT_BUDGET
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "budget exceeded" and "exceeds budget 1000" in doc["detail"]


def test_kernel_check_refuses_a_huge_grid_before_building_it(capsys):
    # 2 10^7 grid points give at least 10^7 distinct |t|: charged before the
    # linspace exists, so the refusal allocates next to nothing
    tracemalloc.start()
    try:
        code = main(["kernel", "check", "--eta", "0.05", "--P", "100", "--grid", "20000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BUDGET
    doc = json.loads(capsys.readouterr().out)
    assert doc["detail"].startswith("kernel transform over at least 10000000 t values x ")
    assert peak < 2**20, f"refusal traced {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("grid", [10, 11, 1000])
def test_grid_bound_charges_at_most_the_exact_charge(monkeypatch, capsys, grid):
    # ceil(grid/2) |t| values at the grid's node count: a budget at that
    # bound lets the grid through to the exact charge of sandwich_check,
    # which counts the knots too and refuses
    report, charge = _pair_charge(monkeypatch, 0.05, 100, grid)
    bound = -(-grid // 2) * (charge // report.points_checked)
    assert bound < charge
    rho = KernelParams.from_P(0.05, 100, "plus").rho
    kernels.check_grid(0.05, rho, grid)
    monkeypatch.setitem(_grid.BUDGETS, "transform pairs", bound)
    kernels.check_grid(0.05, rho, grid)
    assert main(["kernel", "check", "--eta", "0.05", "--P", "100",
                 "--grid", str(grid)]) == EXIT_BUDGET
    detail = json.loads(capsys.readouterr().out)["detail"]
    assert detail.startswith(f"kernel transform over {report.points_checked} t values x ")
    monkeypatch.setitem(_grid.BUDGETS, "transform pairs", bound - 1)
    with pytest.raises(ResourceLimit, match=f"over at least {-(-grid // 2)} t values"):
        kernels.check_grid(0.05, rho, grid)
