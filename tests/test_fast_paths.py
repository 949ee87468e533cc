"""Property tests: the structure-aware routes for complete sums, residue
histograms, local densities and the singular series against the direct
enumerations they replace, box zero enumeration against a pure-Python scan,
the meet-in-the-middle gather against a per-point one, and the sorted box
discrepancy against a per-box count."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubiclab as cl
from cubiclab.equidist import discrepancy
from cubiclab.errors import ResourceLimit
from cubiclab.exp_sums import _EPS, _complete_sum_direct, _phase_histogram, residue_histogram
from cubiclab.lattice_enum import _subform, _value_table, _zeros_mim, additive_split, zero_points
from cubiclab.singular_series import solutions_mod_pk

COEFF = st.integers(-5, 5)


@st.composite
def forms(draw, max_n=3, split=None):
    """A random cubic in n <= max_n variables.  split=True gives a form whose
    monomials stay inside two variable blocks; split=False chains every
    variable to the next, so the co-occurrence graph is connected."""
    if split is None:
        split = draw(st.booleans())
    n = draw(st.integers(2 if split else 1, max_n))
    cut = draw(st.integers(1, n - 1)) if split else n
    blocks = [range(1, cut + 1), range(cut + 1, n + 1)] if split else [range(1, n + 1)]
    terms = []
    for block in blocks:
        for i in block:
            for j in block:
                for k in block:
                    if i <= j <= k:
                        terms.append((i, j, k, draw(COEFF)))
    if not split:
        terms += [(i, i, i + 1, draw(COEFF.filter(bool))) for i in range(1, n)]
    C = cl.CubicForm.from_terms(n, terms)
    assert (additive_split(C) is not None) == split
    return C


@settings(max_examples=60)
@given(C=forms(), q=st.integers(1, 40), a=st.integers(-40, 80), data=st.data())
def test_complete_sum_matches_direct(C, q, a, data):
    avec = data.draw(st.lists(st.integers(-20, 20), min_size=C.n, max_size=C.n))
    fast = cl.complete_sum(C, q, a, avec)
    direct = _complete_sum_direct(C, q, a, avec)
    assert fast.abs_error >= direct.abs_error
    assert abs(fast.value - direct.value) <= fast.abs_error + direct.abs_error


@settings(max_examples=40)
@given(C=forms(max_n=4, split=True), q=st.integers(1, 20))
def test_split_residue_histogram_bit_identical(C, q):
    direct = _phase_histogram(C, q, 1, [0] * C.n, 10**9)
    split = residue_histogram(C, q)
    assert split.dtype == direct.dtype and np.array_equal(split, direct)


@settings(max_examples=30)
@given(C=forms(split=True), p=st.sampled_from([2, 3, 5, 7]), k=st.integers(1, 3),
       budget=st.one_of(st.just(10**8), st.integers(1, 20_000)))
def test_split_local_density_matches_lifting(C, p, k, budget):
    try:
        sols = solutions_mod_pk(C, p, k, budget)
    except ResourceLimit:
        try:
            cl.local_density(C, p, k, budget)
        except ResourceLimit:
            return
        raise AssertionError("lifting refused a budget the split route accepted")
    d = cl.local_density(C, p, k, budget)
    assert d.solutions == len(sols)
    assert d.sigma == Fraction(len(sols), p ** (k * (C.n - 1)))


@settings(max_examples=15)
@given(C=forms(), Q=st.integers(1, 12))
def test_series_matches_direct_q_terms(C, Q):
    total, terms = cl.singular_series_truncated(C, Q)
    zero = [0] * C.n
    assert terms[0] == (1, 1.0)
    for q, term in terms[1:]:
        units = [a for a in range(1, q) if math.gcd(a, q) == 1]
        direct = [_complete_sum_direct(C, q, a, zero) for a in units]
        fast_err = sum(cl.complete_sum(C, q, a, zero).abs_error for a in units)
        expect = sum(s.value for s in direct).real / q**C.n
        tol = (fast_err + sum(s.abs_error for s in direct)) / q**C.n
        assert abs(term - expect) <= tol
    assert total == sum(t for _, t in terms)


def test_guards_fire_on_q_to_the_n():
    C = cl.CubicForm.diagonal([1, 1, 1])
    assert cl.complete_sum(C, 10, 1, [0, 0, 0], budget=1000).abs_error >= 1000 * 4 * _EPS
    for call in (lambda: cl.complete_sum(C, 11, 1, [0, 0, 0], budget=1000),
                 lambda: residue_histogram(C, 11, budget=1000),
                 lambda: cl.sbound_check(C, 1, 11, 0.25, budget=1000),
                 lambda: cl.singular_series_truncated(C, 11, budget=1000)):
        try:
            call()
        except ResourceLimit as exc:
            assert "q^n = 1331" in str(exc)
        else:
            raise AssertionError("q^n > budget did not raise")


@settings(max_examples=40)
@given(C=forms(), B=st.integers(0, 4))
def test_direct_enumeration_matches_python_scan(C, B):
    scan = [list(x) for x in product(range(-B, B + 1), repeat=C.n) if cl.eval_cubic(C, x) == 0]
    direct, examined = zero_points(C, B, "direct")
    assert direct.tolist() == scan and examined == (2 * B + 1) ** C.n
    if additive_split(C) is not None:
        mim, _ = zero_points(C, B, "meet_in_middle")
        assert sorted(mim.tolist()) == scan


def _mim_per_point_gather(C, B):
    """Meet-in-the-middle zeros gathered one b-side point at a time: the
    b-points in box order, each followed by its a-side matches in stable
    value order."""
    vars_a, vars_b = additive_split(C)
    pts_a, vals_a = _value_table(_subform(C, vars_a), B)
    pts_b, vals_b = _value_table(_subform(C, vars_b), B)
    order = np.argsort(vals_a, kind="stable")
    lo = np.searchsorted(vals_a[order], -vals_b, side="left")
    hi = np.searchsorted(vals_a[order], -vals_b, side="right")
    out = np.empty((int((hi - lo).sum()), C.n), dtype=np.int64)
    if len(out):
        a_idx = np.concatenate([order[l:h] for l, h in zip(lo, hi) if h > l])
        b_rep = np.repeat(np.arange(len(pts_b)), hi - lo)
        out[:, [v - 1 for v in vars_a]] = pts_a[a_idx]
        out[:, [v - 1 for v in vars_b]] = pts_b[b_rep]
    return out


@settings(max_examples=40)
@given(C=forms(max_n=4, split=True), B=st.integers(0, 6))
def test_mim_gather_matches_per_point_gather(C, B):
    pts, examined = _zeros_mim(C, B)
    assert pts.dtype == np.int64 and np.array_equal(pts, _mim_per_point_gather(C, B))
    assert examined == sum((2 * B + 1) ** len(side) for side in additive_split(C))


@pytest.mark.parametrize("C, B", [(cl.taxicab_form(), 0), (cl.CubicForm.diagonal([1, 2]), 5),
                                  (cl.CubicForm.diagonal([1, 2, 4]), 6)])
def test_mim_gather_edge_boxes(C, B):
    # B = 0 is the origin alone; x1^3 + 2 x2^3 and x1^3 + 2 x2^3 + 4 x3^3 have
    # no integer zero but the origin
    pts, _ = _zeros_mim(C, B)
    assert np.array_equal(pts, _mim_per_point_gather(C, B))
    assert pts.tolist() == [[0] * C.n]


def _discrepancy_per_box(pts, boxes, seed):
    """max over boxes of |fraction inside - volume|, one box at a time."""
    pts = np.mod(np.asarray(pts, dtype=float), 1.0)
    corners = np.random.default_rng(seed).uniform(size=(boxes, 2, pts.shape[1]))
    lo = np.minimum(corners[:, 0, :], corners[:, 1, :])
    hi = np.maximum(corners[:, 0, :], corners[:, 1, :])
    worst = 0.0
    for b in range(boxes):
        inside = sum(all(lo[b, i] <= x[i] < hi[b, i] for i in range(len(x))) for x in pts)
        worst = max(worst, abs(inside / len(pts) - float(np.prod(hi[b] - lo[b]))))
    return worst


@settings(max_examples=80)
@given(r=st.integers(1, 3), boxes=st.integers(0, 30), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_discrepancy_matches_per_box_count(r, boxes, seed, data):
    # coordinates are free floats or box corner coordinates drawn as the
    # function draws them, so points sit on box faces; whole corners a and b
    # of boxes are added, and repeated rows are duplicates
    corners = np.random.default_rng(seed).uniform(size=(boxes, 2, r))
    coord = st.floats(-2.0, 2.0)
    if boxes:
        coord = st.one_of(coord, st.tuples(st.integers(0, boxes - 1), st.integers(0, 1)))
    rows = data.draw(st.lists(st.lists(coord, min_size=r, max_size=r), min_size=1, max_size=40))
    pts = [[corners[v[0], v[1], i] if isinstance(v, tuple) else v for i, v in enumerate(row)]
           for row in rows]
    if boxes:
        lo_hi = [np.min(corners, axis=1), np.max(corners, axis=1)]
        for b, side in data.draw(st.lists(st.tuples(st.integers(0, boxes - 1),
                                                    st.integers(0, 1)), max_size=10)):
            pts.append(list(lo_hi[side][b]))
    pts += data.draw(st.lists(st.sampled_from(pts), max_size=10))
    value = discrepancy(np.array(pts), boxes, seed).value
    assert value == _discrepancy_per_box(np.array(pts), boxes, seed)
