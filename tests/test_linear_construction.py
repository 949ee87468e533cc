import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import tracemalloc

import cubiclab as cl
from cubiclab import _grid, linear_construction
from cubiclab.errors import ResourceLimit
from cubiclab.linear_construction import (
    IntegerKernelBasis,
    integer_kernel,
    reduce_linear_system,
    solve_system,
)
from cubiclab.lattice_enum import zero_points
from oracles import kernel_is_saturated


def test_kernel_coordinate_differences():
    basis = integer_kernel([cl.LinearForm.rational([1, 1, 0, 0]),
                            cl.LinearForm.rational([0, 0, 1, 1])])
    assert set(basis.vectors) == {(0, 0, 1, -1), (1, -1, 0, 0)}
    assert kernel_is_saturated(basis)


def test_kernel_gcd_pair():
    basis = integer_kernel([cl.LinearForm.rational([2, 3])])
    assert basis.vectors == ((3, -2),)


def test_kernel_full_rank_empty():
    basis = integer_kernel([cl.LinearForm.rational([1, 0]),
                            cl.LinearForm.rational([0, 1])])
    assert basis.vectors == ()
    assert kernel_is_saturated(basis)


def test_kernel_with_denominators():
    basis = integer_kernel([cl.LinearForm.rational(["1/2", "1/3"])])
    # 1/2 x + 1/3 y = 0 over Z: (2, -3)
    assert basis.vectors in (((2, -3),), ((-2, 3),))


def test_kernel_exactness_random():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 5)
        m = rng.randint(1, n - 1)
        forms = [cl.LinearForm.rational(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)])
            for _ in range(m)]
        basis = integer_kernel(forms)
        for z in basis.vectors:
            for f in forms:
                assert f.eval(z) == 0
        assert kernel_is_saturated(basis)
        rank = sum(1 for f in forms if any(c != 0 for c in f.coeffs))
        assert len(basis) >= n - m


def test_saturation_detects_scaled_sublattice():
    fake = IntegerKernelBasis(n=4, vectors=((0, 0, 2, -2), (1, -1, 0, 0)))
    assert not kernel_is_saturated(fake)


def test_reduce_selects_columns():
    Ls = cl.LinearSystem.from_rows([[0.5, 1.5, -2.0]])
    basis = IntegerKernelBasis(n=3, vectors=((1, 0, 0), (0, 0, 1)))
    red = reduce_linear_system(Ls, basis)
    assert red.rows == ((0.5, -2.0),)


def test_reduce_taxicab(irr_linsys, taxicab_decomp):
    basis = integer_kernel([a for a, _ in taxicab_decomp.pairs])
    red = reduce_linear_system(irr_linsys, basis)
    lam = irr_linsys.matrix()[0]
    expect = [float(np.dot(lam, z)) for z in basis.vectors]
    assert red.rows == (pytest.approx(expect),)


def test_reduce_empty_basis(irr_linsys):
    red = reduce_linear_system(irr_linsys, IntegerKernelBasis(n=4, vectors=()))
    assert red.n == 0 and red.rows == ((),)


def test_solver_taxicab(taxicab, taxicab_decomp, irr_linsys):
    x = solve_system(taxicab, taxicab_decomp, irr_linsys, [0.3], 0.05, 500)
    assert x is not None
    # soundness re-checked through the independent modules
    assert cl.eval_cubic(taxicab, x) == 0
    vals = cl.eval_linear(irr_linsys, x)
    assert abs(vals[0] - 0.3) < 0.05
    assert list(x) in zero_points(taxicab, max(abs(v) for v in x))[0].tolist()


def test_solver_returns_minimal_shell(taxicab, taxicab_decomp, irr_linsys):
    x = solve_system(taxicab, taxicab_decomp, irr_linsys, [0.3], 0.05, 500)
    # the kernel coordinates of the returned solution have sup-norm 1
    assert max(abs(v) for v in x) == 1


def test_solver_trivial_when_tau_small(taxicab, taxicab_decomp, irr_linsys):
    assert solve_system(taxicab, taxicab_decomp, irr_linsys, [0.01], 0.05, 5) == \
        (0, 0, 0, 0)


def test_solver_absent_for_rational_gap():
    # reduced system takes values in (1/2) Z; tau = 1/4 is 1/4 away, eta = 0.1
    C = cl.CubicForm.from_terms(2, [(1, 1, 1, 1)])
    D = cl.HDecomposition(((cl.LinearForm.rational([1, 0]),
                            cl.QuadraticForm.from_terms(2, [(1, 1, "1")])),))
    Ls = cl.LinearSystem.from_rows([["1/2", "1/2"]])
    assert solve_system(C, D, Ls, [0.25], 0.1, 200) is None


def test_solver_rational_row_on_the_boundary(plane_form, plane_decomp):
    # tau is the float nearest L(x0) +- eta; the answer must be the exact
    # minimum over kernel coordinates y: sup-norm first, then lex order
    basis = integer_kernel([a for a, _ in plane_decomp.pairs])
    Y = 3
    rng = random.Random(1)
    for _ in range(40):
        row = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        if not any(row):
            continue  # a zero row is not a linear system of rank 1
        Ls = cl.LinearSystem.from_rows([row])
        L = lambda x: sum(c * v for c, v in zip(row, x))
        eta = rng.choice([0.125, 0.25, 0.5, 1.0])
        x0 = (0, rng.randint(-2, 2), rng.randint(-2, 2))
        tau = float(L(x0) + rng.choice([1, -1]) * Fraction(eta))
        hits = []
        for y in product(range(-Y, Y + 1), repeat=len(basis)):
            x = tuple(sum(yj * z[v] for yj, z in zip(y, basis.vectors)) for v in range(3))
            if abs(L(x) - Fraction(tau)) < Fraction(eta):
                hits.append(((max(map(abs, y)), y), x))
        expect = min(hits)[1] if hits else None
        assert solve_system(plane_form, plane_decomp, Ls, [tau], eta, Y) == expect, (row, tau, eta)


@pytest.fixture()
def box_sizes(monkeypatch):
    """The number of points of every box ``solve_system`` scans: one entry
    per band, the points of the blocks its ``_band_hits`` calls take."""
    sizes = []
    band_hits = linear_construction._band_hits

    def recording(reduced, tau, eta, lo, hi, start):
        if start == 0:
            sizes.append(0)
        sizes[-1] += min(_grid.BLOCK, (2 * hi + 1) ** reduced.n - start)
        return band_hits(reduced, tau, eta, lo, hi, start)

    monkeypatch.setattr(linear_construction, "_band_hits", recording)
    return sizes


def test_solver_work_follows_the_first_hit(box_sizes, taxicab, taxicab_decomp, irr_linsys):
    # the first hit has kernel norm 7, in the band [7, 14]: nothing wider is built
    x = solve_system(taxicab, taxicab_decomp, irr_linsys, [3.95], 0.05, 1000)
    assert max(map(abs, x)) == 7
    assert max(box_sizes) <= (2 * 14 + 1) ** 2
    box_sizes.clear()
    Y = 4000
    assert (2 * Y + 1) ** 2 > _grid.BUDGETS["search points"]
    with pytest.raises(ResourceLimit):
        solve_system(taxicab, taxicab_decomp, irr_linsys, [3.95], 0.05, Y)
    assert box_sizes == []


@pytest.mark.parametrize("Y", [0, 1, 5, 13, 15, 29, 100])
def test_solver_work_without_a_hit(box_sizes, taxicab, taxicab_decomp, irr_linsys, Y):
    # with no hit the bands cost less than 2^d / (2^d - 1) full boxes, d = 2
    assert solve_system(taxicab, taxicab_decomp, irr_linsys, [0.3], 1e-9, Y) is None
    assert max(box_sizes) == (2 * Y + 1) ** 2
    assert sum(box_sizes) < 4 / 3 * (2 * Y + 1) ** 2


@pytest.mark.parametrize("block", [1, 7, 2**15])
def test_solver_blocks_keep_the_first_hit(monkeypatch, taxicab, taxicab_decomp, irr_linsys,
                                          block):
    # the bands are scanned in blocks of any size, some ending inside a
    # band's inner box, and the hit of least norm, lexicographically first,
    # is the one a whole band gives: (2, -2, -7, 7) at kernel norm 7
    monkeypatch.setattr(_grid, "BLOCK", block)
    assert solve_system(taxicab, taxicab_decomp, irr_linsys, [3.95], 0.05, 1000) \
        == (2, -2, -7, 7)


def test_solver_holds_one_block_of_a_far_band(taxicab, taxicab_decomp):
    # the first hit lies at kernel norm 343, in the last band, whose box
    # [-510, 510]^2 has 1,042,441 points (16.7 MB of int64 rows); in blocks
    # the search holds a few blocks' arrays
    Lsys = cl.LinearSystem.from_rows([[1.2575354264740255, 2.0, 0.5282705437953743,
                                       1.6424598681869371]])
    tracemalloc.start()
    try:
        x = solve_system(taxicab, taxicab_decomp, Lsys, [-0.581119], 0.05, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x == (343, -343, -228, 228)
    assert peak <= 16 * 8 * _grid.BLOCK < 1_042_441 * 2 * 8


def test_solver_requires_valid_decomposition(taxicab):
    bad = cl.HDecomposition(((cl.LinearForm.rational([1, 0, 0, 0]),
                              cl.QuadraticForm.from_terms(4, [(1, 1, "1")])),))
    with pytest.raises(ValueError):
        solve_system(taxicab, bad, cl.LinearSystem.empty(4), [], 0.1, 10)
