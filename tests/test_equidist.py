import math
import tracemalloc

import numpy as np
import pytest

import cubiclab as cl
from cubiclab import _grid, lattice_enum
from cubiclab.equidist import equidist_experiment, write_equidist_csv
from cubiclab.errors import ResourceLimit
from cubiclab.lattice_enum import count, zero_points
from oracles import discrepancy, erdos_turan_bound, linear_values_mod1


def test_weyl_geometric_oracle():
    # zeros of x1^3 + x2^3 lie on the line x2 = -x1, so the sum telescopes to
    # a Dirichlet kernel with the closed form sin((2P+1) pi lam) / sin(pi lam)
    C = cl.CubicForm.diagonal([1, 1])
    Ls = cl.LinearSystem.from_rows([[math.sqrt(2), 0.0]])
    ws = cl.weyl_sum(C, Ls, [1], 5)
    lam = math.sqrt(2)
    oracle = math.sin(11 * math.pi * lam) / math.sin(math.pi * lam)
    assert ws.N == 11
    assert abs(ws.sum) == pytest.approx(abs(oracle), abs=1e-9)
    assert abs(ws.normalized) <= 1


def test_weyl_conjugation():
    C = cl.taxicab_form()
    Ls = cl.LinearSystem.from_rows([[0.7, math.sqrt(2), math.sqrt(3), math.sqrt(5)]])
    a = cl.weyl_sum(C, Ls, [2], 6)
    b = cl.weyl_sum(C, Ls, [-2], 6)
    assert b.sum == pytest.approx(a.sum.conjugate(), abs=1e-9)


def test_weyl_rejects_zero_frequency(taxicab, irr_linsys):
    with pytest.raises(ValueError):
        cl.weyl_sum(taxicab, irr_linsys, [0], 5)


def test_experiment_rejects_zero_frequency(taxicab):
    # a zero frequency would report a Weyl magnitude of exactly 1.0
    Ls = cl.LinearSystem.from_rows([[math.sqrt(2), math.sqrt(3), 0.5, 1.0],
                                    [1.0, 0.0, math.sqrt(5), 0.0]])
    for k_set in ([[0, 0]], [[1, 0], [0, 0]]):
        with pytest.raises(ValueError):
            equidist_experiment(taxicab, Ls, [6], k_set, 10, 0)
    assert len(equidist_experiment(taxicab, Ls, [6], [[0, 1]], 10, 0)[0].weyl) == 1


def test_discrepancy_single_point():
    pts = np.full((50, 1), 0.5)
    stat = discrepancy(pts, boxes=100, seed=3)
    assert stat.value >= 0.49


def test_discrepancy_regular_grid():
    pts = (np.arange(100) / 100).reshape(-1, 1)
    stat = discrepancy(pts, boxes=500, seed=3)
    assert stat.value <= 0.02


def test_discrepancy_uniform_sample():
    rng = np.random.default_rng(12)
    pts = rng.uniform(size=(10_000, 1))
    stat = discrepancy(pts, boxes=500, seed=3)
    assert stat.value <= 0.05


def test_discrepancy_deterministic():
    pts = np.random.default_rng(5).uniform(size=(500, 2))
    a = discrepancy(pts, boxes=200, seed=17)
    b = discrepancy(pts, boxes=200, seed=17)
    assert a.value == b.value


def test_zero_count_agrees_with_lattice_module(taxicab):
    Ls = cl.LinearSystem.from_rows([[0.3, math.sqrt(2), math.sqrt(3), math.sqrt(5)]])
    ws = cl.weyl_sum(taxicab, Ls, [1], 9)
    res = count(cl.CountQuery(C=taxicab, P=9, weighted=False))
    assert ws.N == res.value


def test_erdos_turan_one_sided(taxicab, irr_linsys):
    P = 30
    mags = [abs(cl.weyl_sum(taxicab, irr_linsys, [k], P).normalized)
            for k in range(1, 6)]
    pts, _ = zero_points(taxicab, P, "auto")
    vals = linear_values_mod1(irr_linsys, pts)
    stat = discrepancy(vals, boxes=500, seed=11)
    # random-box discrepancy is at most twice the star discrepancy
    assert stat.value <= 2 * erdos_turan_bound(mags)


def test_translation_invariance(taxicab):
    base = [0.41, math.sqrt(2), math.sqrt(3), math.sqrt(5)]
    shifted = [base[0] + 3, base[1] - 2, base[2], base[3] + 1]
    La = cl.LinearSystem.from_rows([base])
    Lb = cl.LinearSystem.from_rows([shifted])
    a = cl.weyl_sum(taxicab, La, [1], 7)
    b = cl.weyl_sum(taxicab, Lb, [1], 7)
    assert b.sum == pytest.approx(a.sum, abs=1e-7)
    pts, _ = zero_points(taxicab, 7, "direct")
    va = linear_values_mod1(La, pts)
    vb = linear_values_mod1(Lb, pts)
    assert np.allclose(np.minimum(np.abs(va - vb), 1 - np.abs(va - vb)), 0, atol=1e-9)


def test_experiment_table_and_csv(tmp_path, taxicab, irr_linsys):
    rows = equidist_experiment(taxicab, irr_linsys, [10, 20], [[1], [2]],
                               boxes=200, seed=11)
    assert [row.P for row in rows] == [10, 20]
    for row in rows:
        assert 0 <= row.discrepancy <= 1
        for _, mag in row.weyl:
            assert mag <= 1
        assert {k for k, _ in row.weyl} == {(1,), (2,)}
    out = tmp_path / "table.csv"
    write_equidist_csv(rows, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("P,N,discrepancy")
    assert len(lines) == 3


def test_boxes_are_charged_before_any_is_drawn(monkeypatch, taxicab, irr_linsys):
    # boxes r against the budget: 50 boxes in [0,1)^2 charge 100, and 1000
    # boxes on the taxicab form (r = 1) charge 1000, more than its 61 pairs
    # at P = 2; with the budget at the charge each call runs, one less and
    # it refuses
    pts = np.random.default_rng(1).uniform(size=(30, 2))
    monkeypatch.setitem(_grid.BUDGETS, "points", 100)
    assert discrepancy(pts, 50, 3).boxes == 50
    monkeypatch.setitem(_grid.BUDGETS, "points", 99)
    with pytest.raises(ResourceLimit, match="50 boxes in dimension 2 = 100 points exceeds budget"):
        discrepancy(pts, 50, 3)
    monkeypatch.setitem(_grid.BUDGETS, "points", 1000)
    assert equidist_experiment(taxicab, irr_linsys, [2], [[1]], 1000, 0)[0].N == 61
    monkeypatch.setitem(_grid.BUDGETS, "points", 999)
    with pytest.raises(ResourceLimit,
                       match="1000 boxes in dimension 1 = 1000 points exceeds budget"):
        equidist_experiment(taxicab, irr_linsys, [2], [[1]], 1000, 0)


@pytest.mark.parametrize("seed", [0, 5])
def test_box_blocks_give_the_one_draw_bit_for_bit(monkeypatch, taxicab, irr_linsys, seed):
    # one block, two blocks and many: the boxes are the one draw's, and each
    # discrepancy is the maximum over every box, bit for bit
    pts = np.random.default_rng(seed).uniform(size=(40, 2))
    results = []
    for chunk in (2**15, 700, 7):
        monkeypatch.setattr(_grid, "BLOCK", chunk)
        rows = equidist_experiment(taxicab, irr_linsys, [4, 6, 5.5], [[1]], 1000, seed)
        results.append(([(row.N, row.discrepancy) for row in rows],
                        discrepancy(pts, 1000, seed).value,
                        discrepancy(pts[:, 0], 1000, seed).value))
    assert results[0] == results[1] == results[2]


def test_boxes_are_drawn_in_bounded_blocks(taxicab, irr_linsys):
    # 2 10^5 boxes drew 3.2 MB of corners at once, and counted them per
    # shell; in blocks of _grid.BLOCK the traced peak stays under 4 MiB
    equidist_experiment(taxicab, irr_linsys, [6], [[1]], 1000, 0)
    tracemalloc.start()
    try:
        rows = equidist_experiment(taxicab, irr_linsys, [4, 6], [[1]], 200_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[1].N == 517
    assert peak < 2**22, f"equidist peaked at {peak / 2**20:.2f} MiB"
