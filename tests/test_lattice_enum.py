import math
import os
import random

import numpy as np
import pytest

import cubiclab as cl
from cubiclab.errors import SplitUnavailable
from cubiclab.kernels import KernelParams
from cubiclab.lattice_enum import (
    additive_split,
    count,
    kernel_smoothed_count,
    weight_w,
    zero_points,
)


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
    pts = set(cl.enumerate_zeros(taxicab, 12, strategy="meet_in_middle"))
    assert (1, 12, 9, 10) in pts
    assert (0, 0, 0, 0) in pts


def test_enumerate_at_P_zero():
    C = cl.CubicForm.diagonal([1, 1, 1])
    assert list(cl.enumerate_zeros(C, 0)) == [(0, 0, 0)]


def test_enumerate_antidiagonal_line():
    C = cl.CubicForm.diagonal([1, 1])
    pts = sorted(cl.enumerate_zeros(C, 5))
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


@pytest.mark.parametrize("form, P", [("taxicab", 7), ("connected", 10)])
def test_worker_count_does_not_change_results(request, form, P):
    C = request.getfixturevalue(form)
    base, _ = zero_points(C, P, "direct")
    old = os.environ.get("CUBICLAB_WORKERS")
    os.environ["CUBICLAB_WORKERS"] = "2"
    try:
        par, _ = zero_points(C, P, "direct")
    finally:
        if old is None:
            del os.environ["CUBICLAB_WORKERS"]
        else:
            os.environ["CUBICLAB_WORKERS"] = old
    assert np.array_equal(base, par)


def test_keep_solutions_sample(taxicab):
    res = count(cl.CountQuery(C=taxicab, P=4, weighted=False, keep_solutions=5))
    assert res.solutions is not None and len(res.solutions) == 5
    for x in res.solutions:
        assert cl.eval_cubic(taxicab, x) == 0
