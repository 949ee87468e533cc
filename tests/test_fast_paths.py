"""Property tests: the structure-aware routes for complete sums, residue
histograms, local densities and the singular series against the direct
enumerations they replace."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cubiclab as cl
from cubiclab.errors import ResourceLimit
from cubiclab.exp_sums import _EPS, _complete_sum_direct, _phase_histogram, residue_histogram
from cubiclab.lattice_enum import additive_split
from cubiclab.singular_series import solutions_mod_pk

SETTINGS = dict(deadline=None, derandomize=True, database=None)
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


@settings(max_examples=60, **SETTINGS)
@given(C=forms(), q=st.integers(1, 40), a=st.integers(-40, 80), data=st.data())
def test_complete_sum_matches_direct(C, q, a, data):
    avec = data.draw(st.lists(st.integers(-20, 20), min_size=C.n, max_size=C.n))
    fast = cl.complete_sum(C, q, a, avec)
    direct = _complete_sum_direct(C, q, a, avec)
    assert fast.abs_error >= direct.abs_error
    assert abs(fast.value - direct.value) <= fast.abs_error + direct.abs_error


@settings(max_examples=40, **SETTINGS)
@given(C=forms(max_n=4, split=True), q=st.integers(1, 20))
def test_split_residue_histogram_bit_identical(C, q):
    direct = _phase_histogram(C, q, 1, [0] * C.n, 10**9)
    split = residue_histogram(C, q)
    assert split.dtype == direct.dtype and np.array_equal(split, direct)


@settings(max_examples=30, **SETTINGS)
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


@settings(max_examples=15, **SETTINGS)
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
