import ast
import inspect
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import cubiclab as cl
from cubiclab import _grid, lattice_enum
from cubiclab._grid import cubic_values
from cubiclab.cli import EXIT_BUDGET, EXIT_OK, main
from cubiclab.errors import DimensionMismatch, ResourceLimit, SplitUnavailable
from cubiclab.kernels import KernelParams, kernel_hat
from cubiclab.lattice_enum import (
    additive_split,
    count,
    weight_w,
    zero_points,
)
from oracles import kernel_smoothed_count


def test_weight_examples():
    assert weight_w([0.0, 0.0, 0.0]) == pytest.approx(math.exp(-3))
    assert weight_w([1.0, 0.0]) == 0.0
    assert weight_w([0.3, -1.2]) == 0.0
    assert weight_w([0.5]) == pytest.approx(math.exp(-4 / 3))
    assert weight_w([0.5]) == pytest.approx(0.26359713811572677)


def test_weight_range():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 4)
        x = [rng.uniform(-1.5, 1.5) for _ in range(n)]
        w = weight_w(x)
        assert 0.0 <= w <= math.exp(-n)


def test_indicator_examples():
    assert cl.indicator_U(0.0, 1.0) == 1
    assert cl.indicator_U(1.0, 1.0) == 0
    assert cl.indicator_U(-0.5, 0.6) == 1
    with pytest.raises(ValueError):
        cl.indicator_U(0.0, 0.0)


def test_enumerate_taxicab_contains_known_zeros(taxicab):
    pts = set(map(tuple, zero_points(taxicab, 12)[0].tolist()))
    assert (1, 12, 9, 10) in pts
    assert (0, 0, 0, 0) in pts


def test_enumerate_at_P_zero():
    C = cl.CubicForm.diagonal([1, 1, 1])
    assert zero_points(C, 0)[0].tolist() == [[0, 0, 0]]


def test_origin_box_past_int64():
    # at B = 0 the value bound sum|c| B^3 is 0, so it cannot size the dtype:
    # a coefficient past int64 must still meet Python integers
    C = cl.CubicForm.from_terms(2, [(1, 1, 1, 2**80 + 1), (2, 2, 2, 1)])
    for strategy in ("direct", "meet_in_middle", "auto"):
        pts, _ = zero_points(C, 0, strategy)
        assert pts.dtype == np.int64 and pts.tolist() == [[0, 0]]
    # without a split, a constrained count at B = 0 takes the sliced route
    D = cl.CubicForm.from_terms(2, [(1, 1, 2, 2**80 + 1), (2, 2, 2, 1)])
    Lsys = cl.LinearSystem.from_rows([[math.sqrt(2), 1.0]])
    assert lattice_enum._slab(2, 0, Lsys, [0.0], 0.5, lattice_enum._line_work(2, 0))
    q = cl.CountQuery(C=D, Lsys=Lsys, tau=(0.0,), eta=0.5, P=1.0, weighted=True)
    assert count(q).value == float(np.sum(weight_w(np.zeros((1, 2)))))


def test_enumerate_antidiagonal_line():
    C = cl.CubicForm.diagonal([1, 1])
    pts = sorted(map(tuple, zero_points(C, 5)[0].tolist()))
    assert pts == sorted((t, -t) for t in range(-5, 6))
    assert len(pts) == 11


@pytest.mark.parametrize("diag,P", [
    ([1, 1], 12),
    ([1, -2], 10),
    ([1, 1, -1], 8),
    ([2, 3, -1, -4], 6),
    ([1, 1, -1, -1], 9),
])
def test_strategy_equivalence(diag, P):
    C = cl.CubicForm.diagonal(diag)
    a, _ = zero_points(C, P, "direct")
    b, _ = zero_points(C, P, "meet_in_middle")
    assert set(map(tuple, a.tolist())) == set(map(tuple, b.tolist()))


def test_split_unavailable_for_connected_form():
    C = cl.CubicForm.from_terms(3, [(1, 2, 3, 1)])
    assert additive_split(C) is None
    with pytest.raises(SplitUnavailable):
        zero_points(C, 3, "meet_in_middle")


def test_auto_never_scans_the_box(monkeypatch, capsys, tmp_path, connected):
    # the oracle is taken first; then the full-box scan refuses to run
    B = 6
    expect, _ = zero_points(connected, B, "direct")

    def refuse(*args, **kwargs):
        raise AssertionError("the full-box scan ran")

    monkeypatch.setattr(lattice_enum, "_zeros_direct", refuse)
    for pts, examined in (zero_points(connected, B, "auto"), zero_points(connected, B)):
        assert np.array_equal(pts, expect) and examined == (2 * B + 1) ** 4
    res = count(cl.CountQuery(C=connected, P=B))
    assert res.value == len(expect) and res.points_examined == (2 * B + 1) ** 4
    form = {"n": 4, "monomials": [{"i": i, "j": j, "k": k, "c": str(c)}
                                  for (i, j, k), c in connected.coeffs.items()]}
    (tmp_path / "connected.json").write_text(json.dumps(form))
    assert main(["count", "--form", str(tmp_path / "connected.json"), "--P", str(B)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == len(expect) and doc["points_examined"] == (2 * B + 1) ** 4


def test_split_commands_never_build_the_zero_set(monkeypatch, capsys, fixture_dir, taxicab,
                                                irr_linsys):
    # count, asymptotic and equidist on the taxicab form read the join: rows
    # are built for the candidate pairs of the float screen only
    tau, eta, grid = (0.3,), 0.05, [8, 12]
    queries = [cl.CountQuery(C=taxicab, Lsys=irr_linsys, tau=tau, eta=eta, P=P, weighted=True)
               for P in grid]
    expect = [count(q) for q in queries]
    table = cl.equidist_experiment(taxicab, irr_linsys, grid, [[1]], 50, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("the full zero set was built")

    window = lattice_enum._Join.window

    def candidates_only(join, *args):
        pts = window(join, *args)
        if len(pts) == join.total > 1:
            refuse()
        return pts

    monkeypatch.setattr(lattice_enum, "zero_points", refuse)
    monkeypatch.setattr(lattice_enum._Join, "rows", refuse)
    monkeypatch.setattr(lattice_enum._Join, "window", candidates_only)
    assert [count(q) for q in queries] == expect
    assert cl.equidist_experiment(taxicab, irr_linsys, grid, [[1]], 50, 3) == table
    assert main(["asymptotic", "--config", str(fixture_dir / "config.json")]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert [(row["N_w"], row["points_examined"]) for row in doc["counts"]] \
        == [(res.value, res.points_examined) for res in expect]


def test_only_the_block_walk_expands_runs_into_pairs():
    # runs become pairs in one place: every np.repeat of lattice_enum is in
    # _Join.blocks, whose (p0, p1, a, b) every reader takes, and rows()
    # builds every pair's row, with no pair list
    with open(lattice_enum.__file__) as fh:
        tree = ast.parse(fh.read())
    where = []
    for cls in [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
        for fn in ast.iter_child_nodes(cls):
            if isinstance(fn, ast.FunctionDef):
                where += [f"{getattr(cls, 'name', '')}.{fn.name}" for node in ast.walk(fn)
                          if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.repeat"]
    assert where and set(where) == {"_Join.blocks"}
    assert list(inspect.signature(lattice_enum._Join.rows).parameters) == ["self"]


def test_mim_charges_its_pairs_before_building_rows(monkeypatch, irr_linsys):
    # x1^3 in four variables splits as (x1, x3) / (x2, x4), and each of the
    # 21^2 b-points matches the 21 a-points with x1 = 0: 21^3 pairs at B = 10
    C = cl.CubicForm.from_terms(4, [(1, 1, 1, 1)])
    assert additive_split(C) == ((1, 3), (2, 4))
    q = cl.CountQuery(C=C, Lsys=irr_linsys, tau=(0.3,), eta=0.5, P=10)
    monkeypatch.setitem(_grid.BUDGETS, "points", 21**3)
    pts, _ = zero_points(C, 10)
    assert len(pts) == 21**3 and count(q).value > 0
    assert cl.equidist_experiment(C, irr_linsys, [10], [[1]], 10, 0)[0].N == 21**3

    def refuse(*args, **kwargs):
        raise AssertionError("a block of pairs was walked past the budget")

    monkeypatch.setitem(_grid.BUDGETS, "points", 21**3 - 1)
    for name in ("blocks", "rows"):
        monkeypatch.setattr(lattice_enum._Join, name, refuse)
    with pytest.raises(ResourceLimit, match="join = 9261 points exceeds budget"):
        zero_points(C, 10)
    with pytest.raises(ResourceLimit, match="exceeds budget"):
        count(q)
    with pytest.raises(ResourceLimit, match="exceeds budget"):
        cl.equidist_experiment(C, irr_linsys, [10], [[1]], 10, 0)


def test_mim_refuses_a_join_past_the_budget():
    # at B = 600 each side has 1201^2 points, within the "side points"
    # budget, but the join has 1201^3 (about 1.7e9) pairs: its rows would
    # take some 55 GB
    C = cl.CubicForm.from_terms(4, [(1, 1, 1, 1)])
    with pytest.raises(ResourceLimit, match=f"join = {1201**3} points exceeds budget"):
        zero_points(C, 600)


@pytest.mark.parametrize("n, s", [(n, s) for n in range(2, 13) for s in range((n + 1) // 2, n)])
def test_line_route_refuses_every_split_box_past_the_table_cap(n, s):
    # a split form in n variables whose larger side has s <= n - 1 of them
    # would leave the join at the first B past the "side points" budget; the
    # line route refuses that box (and, its work growing with B, every larger one), so
    # a split form needs no route but the join
    B = 0
    while (2 * B + 1) ** s <= _grid.BUDGETS["side points"]:
        B += 1
    assert lattice_enum._line_work(n, B) > _grid.BUDGETS["points"]


def test_table_cap_refuses_before_any_table(monkeypatch, capsys, fixture_dir, taxicab,
                                            irr_linsys):
    # the taxicab form's sides have (2B+1)^2 points each: at exactly that
    # cap the join runs, one point below it every caller refuses before a
    # side table is built
    B = 6
    expect, _ = zero_points(taxicab, B, "direct")
    monkeypatch.setitem(_grid.BUDGETS, "side points", (2 * B + 1) ** 2)
    pts, examined = zero_points(taxicab, B)
    assert np.array_equal(pts[np.lexsort(pts.T[::-1])], expect)
    assert examined == 2 * (2 * B + 1) ** 2
    q = cl.CountQuery(C=taxicab, P=B)
    assert count(q).value == len(expect) and lattice_enum.count_grid(q, []) == []

    def refuse(*args, **kwargs):
        raise AssertionError("a side table was built past the cap")

    monkeypatch.setitem(_grid.BUDGETS, "side points", (2 * B + 1) ** 2 - 1)
    monkeypatch.setattr(lattice_enum, "_value_table", refuse)
    for call in (lambda: zero_points(taxicab, B), lambda: count(q),
                 lambda: lattice_enum.count_grid(q, [2, B]),
                 lambda: cl.equidist_experiment(taxicab, irr_linsys, [B], [[1]], 10, 0)):
        with pytest.raises(ResourceLimit, match=f"side table = {(2 * B + 1) ** 2} side points"):
            call()
    assert main(["count", "--form", str(fixture_dir / "taxicab.json"), "--P", str(B)]) \
        == EXIT_BUDGET
    assert json.loads(capsys.readouterr().out)["error"] == "budget exceeded"


def test_line_route_past_the_box_budget(connected):
    # 121^4 box points are over the budget, but the line route's work
    # (121^3 lines, 40 evaluations each) is not
    with pytest.raises(ResourceLimit):
        zero_points(connected, 60, "direct")
    pts, examined = zero_points(connected, 60, "auto")
    assert examined == 121**4 > _grid.BUDGETS["points"]
    assert len(pts) and (cubic_values(connected, pts.astype(object).T) == 0).all()
    small, _ = zero_points(connected, 28, "direct")
    assert np.array_equal(pts[np.abs(pts).max(axis=1) <= 28], small)


@pytest.mark.parametrize("n, P", [(4, 200), (1, 1e9)])
def test_line_route_refuses_before_allocating(monkeypatch, connected, n, P):
    # n = 1 has one line, but its axis alone holds 2P + 1 points
    C = connected if n == 4 else cl.CubicForm.from_terms(1, [(1, 1, 1, -3)])

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the budget check")

    monkeypatch.setattr(lattice_enum, "exact_dtype", refuse)
    monkeypatch.setattr(lattice_enum, "cubic_values", refuse)
    with pytest.raises(ResourceLimit, match="exceeds budget"):
        zero_points(C, P, "auto")
    with pytest.raises(ResourceLimit, match="exceeds budget"):
        count(cl.CountQuery(C=C, P=P))
    # a constraint admits a thin slab, but the box is refused all the same
    Ls = cl.LinearSystem.from_rows([[math.sqrt(2)] + [1.0] * (n - 1)])
    with pytest.raises(ResourceLimit, match="exceeds budget"):
        count(cl.CountQuery(C=C, Lsys=Ls, tau=(0.3,), eta=0.05, P=P))


def test_constrained_count_at_the_largest_line_box(monkeypatch, connected, irr_linsys):
    # B = 82 is the largest box the line route accepts for n = 4.  The line
    # route could still refuse it mid-scan, so count keeps that route there;
    # with the budget raised, the sliced route counts the same points
    B = 82
    assert (lattice_enum._line_work(4, B) <= _grid.BUDGETS["points"]
            < lattice_enum._line_work(4, B + 1))
    q = cl.CountQuery(C=connected, Lsys=irr_linsys, tau=(0.3,), eta=0.05, P=B, keep_solutions=10**6)
    res = count(q)
    assert res.value > 0 and res.points_examined == (2 * B + 1) ** 4
    monkeypatch.setitem(_grid.BUDGETS, "points", 10**9)
    monkeypatch.setattr(lattice_enum, "_zeros_lines", None)
    assert count(q) == res


def test_constrained_count_keeps_mid_scan_refusals(monkeypatch):
    # the setting of test_line_route_charges_scanned_lines: the line route
    # refuses x1 x2 x3 one evaluation short of its 41 lines of zeros, and a
    # constrained count refuses and accepts exactly as it does
    C = cl.CubicForm.from_terms(3, [(1, 2, 3, 1)])
    Ls = cl.LinearSystem.from_rows([[1.0, math.sqrt(2), -0.5]])
    B, m = 10, 21
    q = cl.CountQuery(C=C, Lsys=Ls, tau=(0.3,), eta=0.4, P=B)
    expect, _ = zero_points(C, B, "direct")
    expect = expect[lattice_enum.constraint_mask(Ls, expect, (0.3,), 0.4)]
    work = lattice_enum._line_work(3, B)
    monkeypatch.setitem(_grid.BUDGETS, "points", work + 41 * m - 1)
    with pytest.raises(ResourceLimit, match="exceeds budget"):
        count(q)
    monkeypatch.setitem(_grid.BUDGETS, "points", work + 41 * m)
    assert count(q).value == len(expect)
    # once the line route could not refuse, the sliced route runs: no line
    # is solved
    monkeypatch.setitem(_grid.BUDGETS, "points", work + m**3)
    monkeypatch.setattr(lattice_enum, "_zeros_lines", None)
    assert count(q).value == len(expect)


def test_constrained_route_choice(monkeypatch, connected, irr_linsys):
    # the sliced route on the connected form with a thin slab; the line route
    # for r = 0, and where the window covers the whole axis of a larger box
    expect, _ = zero_points(connected, 8, "direct")
    _, examined = zero_points(connected, 8)
    mask = lattice_enum.constraint_mask(irr_linsys, expect, (0.3,), 0.05)
    q = cl.CountQuery(C=connected, Lsys=irr_linsys, tau=(0.3,), eta=0.05, P=8)
    wide = cl.CubicForm.from_terms(2, [(1, 1, 2, 1), (1, 2, 2, -2)])    # x1 x2 (x1 - 2 x2)
    wide_zeros, _ = zero_points(wide, 30, "direct")
    Lw = cl.LinearSystem.from_rows([[1e-9, -3e-9]])
    with monkeypatch.context() as mp:
        mp.setattr(lattice_enum, "_zeros_lines", None)
        pts = lattice_enum.constrained_zero_points(connected, 8, irr_linsys, (0.3,), 0.05)
        assert np.array_equal(pts, expect[mask])
        res = count(q)
        assert res.value == mask.sum() and res.points_examined == examined == 17**4
    monkeypatch.setattr(lattice_enum, "_zeros_sliced", None)
    assert count(cl.CountQuery(C=connected, P=8)).value == len(expect)
    pts = lattice_enum.constrained_zero_points(wide, 30, Lw, (0.0,), 1.0)
    assert np.array_equal(pts, wide_zeros)


def test_sliced_route_keeps_the_strict_rational_boundary(monkeypatch):
    # x4 (x1^2 + x1 x2 + x2 x3 + x3^2) has no split and vanishes on x4 = 0,
    # where L = x1/2 + x2/3 - x3 takes every value in Z/6.  With tau and eta
    # binary fractions, L = tau +- eta holds exactly on some zeros: the
    # widened window makes them candidates, and the exact predicate drops
    # them, while the zeros one step of 1/6 inside are kept
    C = cl.CubicForm.from_terms(4, [(1, 1, 4, 1), (1, 2, 4, 1), (2, 3, 4, 1), (3, 3, 4, 1)])
    Ls = cl.LinearSystem.from_rows([["1/2", "1/3", "-1", "0"]])
    tau, eta, B = 0.5, 0.5, 6
    seen, mask = [], lattice_enum.constraint_mask

    def spy(system, pts, *args):
        seen.extend(map(tuple, pts.tolist()))
        return mask(system, pts, *args)

    monkeypatch.setattr(lattice_enum, "constraint_mask", spy)
    monkeypatch.setattr(lattice_enum, "_zeros_lines", None)
    pts = lattice_enum.constrained_zero_points(C, B, Ls, (tau,), eta)
    zeros, examined = zero_points(C, B, "direct")
    gap = {x: abs(Fraction(x[0], 2) + Fraction(x[1], 3) - x[2] - Fraction(tau)) - Fraction(eta)
           for x in map(tuple, zeros.tolist())}
    on_edge = [x for x, g in gap.items() if g == 0]
    inside = [x for x, g in gap.items() if g < 0]
    assert on_edge and [x for x in inside if gap[x] == -Fraction(1, 6)]
    assert set(on_edge) <= set(seen)
    assert sorted(map(tuple, pts.tolist())) == sorted(inside)
    res = count(cl.CountQuery(C=C, Lsys=Ls, tau=(tau,), eta=eta, P=B))
    assert res.value == len(inside) and res.points_examined == examined


def test_line_route_charges_scanned_lines(monkeypatch):
    # x1 x2 x3 has no split; its 41 lines with x2 = 0 or x3 = 0 are lines
    # of zeros, each charged the 21 points of the axis before any is solved
    C = cl.CubicForm.from_terms(3, [(1, 2, 3, 1)])
    B, m = 10, 21
    expect, _ = zero_points(C, B, "direct")
    work = lattice_enum._line_work(3, B)
    monkeypatch.setitem(_grid.BUDGETS, "points", work + 41 * m)
    pts, _ = zero_points(C, B, "auto")
    assert np.array_equal(pts, expect) and len(pts) == 3 * m * m - 3 * m + 1

    def refuse(*args, **kwargs):
        raise AssertionError("solved past the budget")

    monkeypatch.setitem(_grid.BUDGETS, "points", work + 41 * m - 1)
    monkeypatch.setattr(lattice_enum, "_line_hits", refuse)
    with pytest.raises(ResourceLimit, match="exceeds budget"):
        zero_points(C, B, "auto")


def test_split_detected_for_taxicab(taxicab):
    split = additive_split(taxicab)
    assert split is not None
    a, b = split
    assert sorted(a + b) == [1, 2, 3, 4] and len(a) == 2


def test_count_unweighted_example():
    C = cl.CubicForm.diagonal([1, 1])
    res = count(cl.CountQuery(C=C, P=5, weighted=False))
    assert res.value == 11


def test_count_weighted_example():
    C = cl.CubicForm.diagonal([1, 1])
    res = count(cl.CountQuery(C=C, P=5, weighted=True))
    # oracle: direct summation over the known solution line
    expect = sum(math.exp(-2 / (1 - (t / 5) ** 2)) for t in range(-4, 5))
    assert res.value == pytest.approx(expect, rel=1e-12)
    assert res.value == pytest.approx(0.6648948857764592)


def test_count_rational_row_on_the_boundary(plane_form):
    # tau is the float nearest L(x0) +- eta, so x0 sits on the boundary up to
    # the rounding of tau; only exact arithmetic decides which side
    Ls = cl.LinearSystem.from_rows([["-5/3", "1/5", "-1/2"]])
    row = Ls.rows[0]
    zeros = zero_points(plane_form, 6)[0].tolist()
    for x0 in [(1, 0, 0), (0, 3, 1), (2, 0, 0), (0, 4, -3), (0, 1, 1), (0, -2, 5)]:
        for eta in (0.25, 0.5, 1.0):
            for side in (1, -1):
                tau = float(sum(c * v for c, v in zip(row, x0)) + side * Fraction(eta))
                exact = sum(abs(sum(c * v for c, v in zip(row, x)) - Fraction(tau)) < Fraction(eta)
                            for x in zeros)
                res = count(cl.CountQuery(C=plane_form, Lsys=Ls, tau=(tau,), eta=eta, P=6))
                assert res.value == exact, (x0, eta, side)


def test_count_query_rejects_system_of_other_n(taxicab):
    Ls = cl.LinearSystem.from_rows([[1.5, 0.5, 0.25]])
    with pytest.raises(DimensionMismatch, match="n = 3"):
        cl.CountQuery(C=taxicab, Lsys=Ls, tau=(0.0,), P=4)


@pytest.mark.parametrize("tau, eta", [(0.0, math.inf), (math.inf, 1.0), (math.nan, 1.0)])
def test_count_query_rejects_non_finite_tau_eta(taxicab, irr_linsys, tau, eta):
    # rational rows read tau and eta as exact rationals, which these are not
    with pytest.raises(ValueError, match="finite"):
        cl.CountQuery(C=taxicab, Lsys=irr_linsys, tau=(tau,), eta=eta, P=4)


def test_count_weighted_below_unweighted(taxicab, irr_linsys):
    qu = cl.CountQuery(C=taxicab, Lsys=irr_linsys, tau=(0.3,), eta=0.5, P=8, weighted=False)
    qw = cl.CountQuery(C=taxicab, Lsys=irr_linsys, tau=(0.3,), eta=0.5, P=8, weighted=True)
    u, w = count(qu), count(qw)
    assert 0 <= w.value <= u.value


def test_count_vacuous_constraint(taxicab, irr_linsys):
    with_l = count(cl.CountQuery(C=taxicab, Lsys=irr_linsys, tau=(0.0,), eta=1e10,
                                 P=7, weighted=True))
    without = count(cl.CountQuery(C=taxicab, P=7, weighted=True))
    assert with_l.value == without.value


def test_count_monotone_in_P_and_eta(taxicab, irr_linsys):
    vals = [count(cl.CountQuery(C=taxicab, Lsys=irr_linsys, tau=(0.3,), eta=eta,
                                P=P, weighted=False)).value
            for P, eta in [(4, 0.2), (8, 0.2), (8, 0.8), (12, 0.8)]]
    assert vals[0] <= vals[1] <= vals[2] <= vals[3]


def test_zero_set_closed_under_negation(taxicab):
    pts, _ = zero_points(taxicab, 6, "direct")
    s = set(map(tuple, pts.tolist()))
    assert all(tuple(-v for v in p) in s for p in s)


def test_kernel_sandwich_against_indicator(taxicab, irr_linsys):
    eta, P = 0.4, 8
    rho = eta / math.log(100)
    tau = (0.3,)
    nw = count(cl.CountQuery(C=taxicab, Lsys=irr_linsys, tau=tau, eta=eta, P=P,
                             weighted=True)).value
    minus = kernel_smoothed_count(taxicab, irr_linsys, tau, P,
                                  KernelParams(eta=eta, rho=rho, sign="minus"))
    plus = kernel_smoothed_count(taxicab, irr_linsys, tau, P,
                                 KernelParams(eta=eta, rho=rho, sign="plus"))
    assert minus <= nw <= plus


def test_kernel_smoothed_count_on_the_sliced_route(connected, irr_linsys):
    # kernel_hat vanishes past kp.support, so summing the slab's zeros gives
    # the sum over every zero of the box up to its grouping
    P, tau = 10, (0.3,)
    pts, _ = zero_points(connected, P - 1, "auto")
    w = weight_w(pts.astype(float) / P)
    nw = count(cl.CountQuery(C=connected, Lsys=irr_linsys, tau=tau, eta=0.4, P=P,
                             weighted=True)).value
    values = []
    for sign in ("minus", "plus"):
        kp = KernelParams(eta=0.4, rho=0.1, sign=sign)
        full = float(np.sum(w * kernel_hat(pts.astype(float) @ irr_linsys.matrix()[0] - tau[0], kp)))
        values.append(kernel_smoothed_count(connected, irr_linsys, tau, P, kp))
        assert values[-1] == pytest.approx(full, rel=1e-12)
    assert values[0] <= nw <= values[1] and values[0] > 0


def test_kernel_smoothed_count_checks_tau_length(taxicab, irr_linsys):
    kp = KernelParams(eta=0.4, rho=0.1, sign="plus")
    with pytest.raises(DimensionMismatch, match="tau length"):
        kernel_smoothed_count(taxicab, irr_linsys, (), 8, kp)
    with pytest.raises(DimensionMismatch, match="tau length"):
        kernel_smoothed_count(taxicab, None, (0.3,), 8, kp)


@pytest.mark.parametrize("P, message", [(math.inf, "P must be finite, got inf"),
                                        (math.nan, "P must be finite, got nan"),
                                        (0.5, "P must be at least 1")])
def test_kernel_smoothed_count_refuses_a_bad_P(taxicab, irr_linsys, P, message):
    # the count's own query refuses P, as ``count`` does
    kp = KernelParams(eta=0.4, rho=0.1, sign="plus")
    with pytest.raises(ValueError, match=message):
        kernel_smoothed_count(taxicab, irr_linsys, (0.3,), P, kp)


def test_keep_solutions_sample(taxicab):
    res = count(cl.CountQuery(C=taxicab, P=4, weighted=False, keep_solutions=5))
    assert res.solutions is not None and len(res.solutions) == 5
    for x in res.solutions:
        assert cl.eval_cubic(taxicab, x) == 0
