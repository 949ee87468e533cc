"""Property tests: the structure-aware routes for complete sums, residue
histograms, local densities and the singular series against the direct
enumerations they replace, box zero enumeration against a pure-Python scan,
the line route of zero enumeration against the full-box scan, the
meet-in-the-middle gather against a per-point one, the sorted box
discrepancy against a per-box count, the linear constraint predicate
against a per-point Fraction filter and against itself on one point, the polar-form space search against
symbolic substitution, the Hensel count of local densities against
enumeration (and its budget, at the work of lifting only the singular
roots, and the chunked lift of those roots against one lift array), each
residue guard at the exact work of its own route, the phased
residue walk against the direct sum for every a, the mod-q evaluators (and ``residue_slabs``, and the residue
counts and local factors of both benchmark forms) against Python integers
and the per-monomial evaluator they replaced, the roots mod p kept from the
residue walk against those of the whole box, the one-pass
``line_coefficients`` against C at x1 = 0, 1 and -1, the box sum ``g`` by
Horner steps against the float sum of its monomials, ``cis`` and
``cos_e`` bit for bit against their two-temporary expressions, the
angle-addition phase tables (and the kernel transform and the separable
oscillatory integral built on them) against dense ``cis`` tables, the
fold of that integral by its sign symmetries against a spy on its phase
tables and matmuls, the column-wise ``weight_w`` and ``Psi_L`` (and the tent
table built on them) against row reductions, the tent table on the
widest tent's support against the row formula over every point, the
one-axis bump ``w1`` against ``weight_w`` on one column, the tent schedule's shared
Sobol draw against one ``schmidt_IL`` per L, the
sup-norm band search of ``solve_system`` against a scan of the full box, and
the per-axis weights of ``sum_g`` against the per-point ``weight_w``, ``sum_g``
as a product over split blocks against the full box, and the one-pass
``equidist_experiment`` (and ``weyl_sum``) against one enumeration and one
direct Weyl sum per P, and the sliced route of constrained enumeration
(and ``count`` on it) against masking the zeros of the whole box.  The
meet-in-the-middle join keeps its argsort and ``searchsorted`` route as the
oracle, also for the self-join of sides that agree up to sign (which
builds one value table); its constrained rows, shells and values of L are
checked against the masked or evaluated zero rows, the k-order L evaluator against itself
on one point, and ``count_grid`` against one ``count`` per P.  The folds by
x -> -x are checked against the routes they replace: the residue counts
against the per-monomial oracle, the line route (and its budget, at the
work of solving every line) against the full-box scan, with no float
arithmetic in its solve of a line, and the real
half-box ``g`` against the per-point full box.  The mod-1 reduction
x - floor(x) is checked bit for bit against ``np.mod``, and the p-adic
certificate search on odd levels against a scan of every level.  The
scrambled Sobol points are checked bit for bit, and in memory order,
against ``scipy.stats.qmc.Sobol``, the generator they replace, block by
block as well, and the tent table walked in blocks against itself at every
block size (and its traced memory at the benchmark's size)."""

import ast
import cmath
import inspect
import itertools
import math
import re
import textwrap
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cubiclab as cl
from cubiclab import _grid, exp_sums, forms_core, lattice_enum
from cubiclab._grid import (INT64_SAFE, box_points, constraint_mask, cubic_mod, cubic_values,
                            diag_coeffs, exact_dtype, gl_nodes, gl_phases, k_order_sum,
                            linear_values, phase_columns, slabs, w1)
from cubiclab._trig import cis, cos_e
from cubiclab.equidist import _mod1, _nested_zeros
from cubiclab.errors import DimensionMismatch, EmptyZeroSet, NotConverged, ResourceLimit
from cubiclab.exp_sums import (_complete_sum_direct, _factorize, _phase_histogram,
                               _residue_counts, residue_histogram)
from cubiclab.kernels import KernelParams, kernel_K, kernel_transform_numeric
from cubiclab.lattice_enum import (_coord_dtype, _Join, _runs, _stable_order, _subform,
                                   _value_table, _zeros_lines, additive_split,
                                   constrained_zero_points, count_grid, weight_w, zero_points,
                                   zero_values_by_shell)
from cubiclab.linear_construction import (ReducedSystem, integer_kernel, reduce_linear_system,
                                          solve_system)
from cubiclab.singular_integral import Psi_L, _osc_separable_value, psi_L
from cubiclab.singular_series import (_singular_lift, _solutions_mod_p, _vector_valuation,
                                     local_factor_via_sums)
from oracles import (_find_rational_linear_space_direct, cis_expression, cos_e_expression,
                     discrepancy, fold_by_shell, intbox_check, linear_values_mod1, roots_mod_p,
                     solutions_mod_pk, zero_shells_and_values)

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
    # a chain term can cancel the block's own term on the same monomial
    assume((additive_split(C) is not None) == split)
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
    direct = _phase_histogram(C, q, 1, [0] * C.n)
    split = residue_histogram(C, q)
    assert split.dtype == direct.dtype and np.array_equal(split, direct)


@settings(max_examples=30)
@given(C=forms(split=True), p=st.sampled_from([2, 3, 5, 7]), k=st.integers(1, 3),
       budget=st.one_of(st.just(10**8), st.integers(1, 20_000)))
def test_split_local_density_matches_lifting(C, p, k, budget):
    _check_against_lifting(C, p, k, budget)


def _refused_or(call):
    try:
        return call()
    except ResourceLimit:
        return "refused"


def _singular_root_count(C, p, level):
    """#{x mod p^level : C(x) = 0 mod p^level, grad C(x) = 0 mod p}, from the
    lifting oracle's list."""
    roots = solutions_mod_pk(C, p, level)
    singular = np.ones(len(roots), dtype=bool)
    for g in cl.grad_cubic(C, roots.T.astype(object)):     # Python integers, elementwise
        singular &= g % p == 0
    return int(np.count_nonzero(singular))


def _check_against_lifting(C, p, k, budget=10**8):
    """local_density counts the residues solutions_mod_pk lists wherever the
    oracle runs, at the budget but at no less than 10^6 (so that a budget
    the Hensel count fits and the oracle does not still compares values),
    and refuses exactly where its own charge passes the budget: p^n for the
    roots mod p, and one residue per singular root mod p^(L-1) for the lifts
    to each level 3 <= L <= k."""
    charge = max([p**C.n] + [_singular_root_count(C, p, L - 1) for L in range(3, k + 1)])
    with mock.patch.dict(_grid.BUDGETS, {"residues": budget}):
        d = _refused_or(lambda: cl.local_density(C, p, k))
    assert (d == "refused") == (charge > budget)
    with mock.patch.dict(_grid.BUDGETS, {"residues": max(budget, 10**6)}):
        zeros = _refused_or(lambda: len(solutions_mod_pk(C, p, k)))
    if "refused" not in (d, zeros):
        assert d.solutions == zeros
        assert d.sigma == Fraction(zeros, p ** (k * (C.n - 1)))


@st.composite
def decomposed_forms(draw, max_n=4):
    """sum_i A_i B_i for h <= n pairs of small integer linear and quadratic
    forms, so {C = 0} holds rational spaces of dimension up to n - h; or a
    sparse form with coefficients in -2..2."""
    n = draw(st.sampled_from(range(max_n, 1, -1)))
    small = st.sampled_from([0, 0, 0, 1, -1, 2, -2])
    terms = []
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, n))):
            A = [draw(small) for _ in range(n)]
            B = [(u, v, draw(small)) for u in range(1, n + 1) for v in range(u, n + 1)]
            terms += [(l, u, v, a * b) for l, a in enumerate(A, 1) for u, v, b in B]
    else:
        terms = [(i, j, k, draw(small)) for i in range(1, n + 1) for j in range(i, n + 1)
                 for k in range(j, n + 1)]
    C = cl.CubicForm.from_terms(n, terms)
    assume(not C.is_zero)
    return C


@settings(max_examples=60)
@given(C=decomposed_forms(), H=st.integers(1, 2))
def test_polar_space_search_matches_substitution(C, H):
    for d in range(1, C.n):
        space = cl.find_rational_linear_space(C, d, H)
        assert space == _find_rational_linear_space_direct(C, d, H)
        if space is None:
            break


def test_space_search_past_int64_runs_in_python_integers(monkeypatch, taxicab):
    # 6 sum|c| H^3 passes 2^62, so the polar products are Python integers
    big = cl.CubicForm.from_terms(4, [(i, i, i, c * 2**60) for i, c in
                                      enumerate([1, 1, -1, -1], 1)])
    assert 6 * big.max_abs_value(1) >= INT64_SAFE
    expected = {H: _find_rational_linear_space_direct(big, 2, H) for H in (1, 2)}
    assert all(expected.values())
    assert expected == {H: _find_rational_linear_space_direct(taxicab, 2, H) for H in (1, 2)}

    dtypes = []

    class Recording(forms_core._PolarSearch):
        def __init__(self, *args):
            super().__init__(*args)
            dtypes.append(self.V.dtype)

    monkeypatch.setattr(forms_core, "_PolarSearch", Recording)
    for H in (1, 2):
        assert cl.find_rational_linear_space(big, 2, H) == expected[H]
    assert cl.h_bounds(big) == (2, 4)
    assert dtypes and all(dt == object for dt in dtypes)


@pytest.mark.parametrize("C", [
    # split: 2^59 (2 x1^3 + 3 x2^3 - 2 x3^3 - 3 x4^3)
    cl.CubicForm(4, {(1, 1, 1): 2**60, (2, 2, 2): 3 * 2**59,
                     (3, 3, 3): -(2**60), (4, 4, 4): -3 * 2**59}),
    # connected: 2^59 x2 (2 x1 - x3) (x1 + 2 x3), zero on a plane and two lines
    cl.CubicForm(3, {(1, 1, 2): 2**60, (1, 2, 3): 3 * 2**59, (2, 3, 3): -(2**60)}),
])
@pytest.mark.parametrize("B", [3, 6])
def test_enumeration_past_int64_matches_python_scan(C, B):
    # |C| reaches past 2^63 on the box; int64 products would wrap mod 2^64,
    # and the factor 2^59 would turn every value divisible by 32 into a zero
    assert C.max_abs_value(B) >= 2 * INT64_SAFE
    scan = [list(x) for x in product(range(-B, B + 1), repeat=C.n) if cl.eval_cubic(C, x) == 0]
    direct, examined = zero_points(C, B, "direct")
    assert direct.dtype == np.int64 and direct.tolist() == scan
    assert examined == (2 * B + 1) ** C.n
    lines, examined = _zeros_lines(C, B)
    assert lines.dtype == np.int64 and lines.tolist() == scan
    assert examined == (2 * B + 1) ** C.n
    auto, _ = zero_points(C, B, "auto")
    assert auto.dtype == np.int64 and sorted(auto.tolist()) == scan
    if additive_split(C) is not None:
        mim, examined = zero_points(C, B, "meet_in_middle")
        assert mim.dtype == np.int64 and np.array_equal(mim, auto)
        assert sorted(mim.tolist()) == scan
        assert examined == sum((2 * B + 1) ** len(side) for side in additive_split(C))
    else:
        assert np.array_equal(auto, lines)


@st.composite
def unsplit_forms(draw, p):
    """A form without an additive split in which some coefficients carry a
    factor p, so that more of its roots mod p are singular."""
    C = draw(forms(max_n=4, split=False))
    scaled = draw(st.lists(st.booleans(), min_size=len(C.coeffs), max_size=len(C.coeffs)))
    return cl.CubicForm(C.n, {key: c * (p if s else 1)
                              for (key, c), s in zip(C.coeffs.items(), scaled)})


@settings(max_examples=60)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), k=st.integers(1, 3),
       budget=st.one_of(st.just(300_000), st.integers(1, 20_000)))
def test_hensel_local_density_matches_lifting(data, p, k, budget):
    _check_against_lifting(data.draw(unsplit_forms(p)), p, k, budget)


@pytest.mark.parametrize("C, p", [
    (cl.CubicForm.from_terms(4, [(1, 1, 3, 1), (1, 2, 3, 1), (1, 2, 4, -1), (2, 2, 4, -1),
                                 (2, 3, 3, 1), (1, 3, 4, -1), (2, 3, 4, 1), (1, 4, 4, -1)]), 7),
    (cl.CubicForm.from_terms(3, [(1, 1, 1, 1), (1, 2, 3, 3), (2, 2, 2, 9)]), 3),
    (cl.CubicForm.from_terms(2, [(1, 1, 2, 4), (1, 2, 2, 2)]), 2),
])
def test_hensel_count_with_singular_roots(C, p):
    roots = solutions_mod_pk(C, p, 1)
    grads = np.array([cl.grad_cubic(C, r) for r in roots.tolist()]) % p
    assert np.count_nonzero(~grads.any(axis=1)) > 1  # singular roots beyond the origin
    for k in (1, 2, 3):
        _check_against_lifting(C, p, k)


def cubic_mod_per_monomial(C, coords, q):
    """C(y) mod q with every product of every monomial reduced: the evaluator
    that ``cubic_mod`` replaced, kept as the oracle of the mod-q layer."""
    coords = [np.asarray(x).astype(_grid.exact_dtype(q * q), copy=False) for x in coords]
    vals = np.zeros(coords[-1].shape, dtype=np.int64)
    for (i, j, k), c in C.coeffs.items():
        t = (c % q) * coords[i - 1] % q
        t = t * coords[j - 1] % q
        t = t * coords[k - 1] % q
        vals = (vals + t) % q
    return vals.astype(np.int64, copy=False)


def residue_counts_per_monomial(C, q):
    """Counts of C(y) mod q over (Z/q)^n from the per-monomial oracle."""
    hist = np.zeros(q, dtype=np.int64)
    for coords in slabs(np.arange(q, dtype=np.int64), C.n):
        hist += np.bincount(np.ravel(cubic_mod_per_monomial(C, coords, q)), minlength=q)
    return hist


BIG_COEFF = st.integers(-10**12, 10**12).filter(bool)


@st.composite
def big_forms(draw, max_n=5, coeff=BIG_COEFF):
    """A cubic in n <= max_n variables on a random set of monomials, so that
    the variables of a monomial interleave freely, with nonzero ``coeff``
    coefficients: by default of both signs up to 10^12."""
    n = draw(st.integers(1, max_n))
    monomials = [(i, j, k) for i in range(1, n + 1) for j in range(i, n + 1)
                 for k in range(j, n + 1)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=8, unique=True))
    return cl.CubicForm(n, {m: draw(coeff) for m in chosen})


PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 32, 49, 81, 121, 125]
MODULI = st.one_of(st.just(2), st.sampled_from(PRIME_POWERS), st.integers(1, 400),
                   st.integers(2**21 + 1, 2**31),   # the exact bound passes 2^62, q^2 does not
                   st.integers(2**31, 2**40))       # q^2 passes 2^62: Python integers


@settings(max_examples=150)
@given(C=forms(max_n=4) | big_forms(), q=MODULI, data=st.data())
def test_mod_evaluators_match_exact(C, q, data):
    pts = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=C.n, max_size=C.n),
                             min_size=1, max_size=20))
    coords = np.array(pts, dtype=np.int64).T
    got = cubic_mod(C, coords, q)
    assert got.dtype == np.int64
    assert np.array_equal(got, cubic_mod_per_monomial(C, coords, q))
    assert got.tolist() == [cl.eval_cubic(C, x) % q for x in pts]
    # the gradient as _singular_lift takes it: grad_cubic of C mod q on the
    # roots' columns, elementwise in the exact dtype of its bound
    Cq = _grid.reduce_mod(C, q)
    cols = coords.astype(exact_dtype(3 * sum(Cq.coeffs.values()) * (q - 1) ** 2))
    grad = [np.broadcast_to(g % q, len(pts)) for g in cl.grad_cubic(Cq, cols)]
    assert np.array(grad).T.tolist() == [[g % q for g in cl.grad_cubic(C, x)] for x in pts]


@st.composite
def residue_cases(draw):
    """(C, q) with q^n up to about 20^3."""
    C = draw(big_forms())
    q = draw(st.sampled_from([q for q in [2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 20, 25]
                              if q ** C.n <= 8000]))
    return C, q


@settings(max_examples=80)
@given(case=residue_cases())
@example(case=(cl.CubicForm(1, {(1, 1, 1): -(10**12 + 3)}), 7))
# 3 (q-1)^4 passes 2^62: the one slab of n = 1 takes its Horner step in Python integers
@example(case=(cl.CubicForm(1, {(1, 1, 1): -1}), 2**16 + 1))
def test_residue_slabs_match_per_monomial_oracle(case):
    # every slab of (Z/q)^n
    C, q = case
    got = list(_grid.residue_slabs(C, q))
    want = list(slabs(np.arange(q, dtype=np.int64), C.n))
    assert len(got) == len(want)
    for (coords, vals), expect in zip(got, want):
        assert all(np.array_equal(x, y) for x, y in zip(coords, expect))
        assert vals.dtype == np.int64
        assert np.array_equal(vals, cubic_mod_per_monomial(C, expect, q))


@pytest.mark.parametrize("q, slab_count", [(2003, None), (2**21 + 23, 2)])
def test_residue_slabs_wide_moduli(q, slab_count):
    # every coefficient is -1 mod q, the largest residue; at q past 2^21 the
    # Horner bound passes 2^62, and the line coefficients and every Horner
    # step are Python integers
    C = cl.CubicForm(2, {(1, 1, 1): q - 1, (1, 1, 2): -1, (1, 2, 2): 10**12 * q - 1,
                         (2, 2, 2): -(q + 1)})
    in_int64 = 3 * _grid.reduce_mod(C, q).max_abs_value(q - 1) < INT64_SAFE
    assert in_int64 == (slab_count is None)
    pairs = zip(_grid.residue_slabs(C, q), slabs(np.arange(q, dtype=np.int64), 2))
    for t, ((_, vals), coords) in enumerate(pairs):
        if t == slab_count:
            break
        if slab_count or t % 97 == 0 or t == q - 1:
            assert np.array_equal(vals, cubic_mod_per_monomial(C, coords, q))


@settings(max_examples=60)
@given(C=forms(max_n=4) | big_forms(max_n=4), p=st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_roots_mod_p_from_the_residue_walk_match_the_box(C, p):
    # the roots kept slab by slab of residue_slabs are the rows of the whole
    # box's, in the same lex order
    assume(p ** C.n <= 30_000)
    roots = _solutions_mod_p(C, p)
    assert roots.dtype == np.int64 and np.array_equal(roots, roots_mod_p(C, p))


def _lift_in_one_array(C, p):
    """(regular, S_L) of ``_singular_lift`` for L = 1, 2, ..., with the roots
    mod p from the whole box, the gradient per root in Python integers and
    every lift of a level made in one array: the route the chunked lift
    replaced."""
    roots = roots_mod_p(C, p)
    singular = np.array([all(g % p == 0 for g in cl.grad_cubic(C, x)) for x in roots.tolist()],
                        dtype=bool)
    regular, S = roots[~singular], roots[singular]
    yield regular, S
    offsets = box_points(np.arange(p, dtype=np.int64), C.n)
    for level in range(2, 100):
        S = S[cubic_mod(C, S.T, p**level) == 0]
        yield regular, S
        S = (S[:, None, :] + offsets[None, :, :] * p ** (level - 1)).reshape(-1, C.n)


@settings(max_examples=60)
@given(C=forms(max_n=3) | big_forms(max_n=3), p=st.sampled_from([2, 3, 5]),
       block=st.sampled_from([1, 7, 64, 2**15]))
@example(C=cl.CubicForm.diagonal([1, 2, 5]), p=5, block=1)
def test_chunked_lift_matches_one_array(C, p, block):
    # the same rows in the same order at every level, whatever the chunk
    with mock.patch.object(_grid, "BLOCK", block):
        levels = zip(range(6), _singular_lift(C, p), _lift_in_one_array(C, p))
        for _, (regular, S), (want_regular, want_S) in levels:
            assert np.array_equal(regular, want_regular) and np.array_equal(S, want_S)
            assert S.dtype == want_S.dtype == np.int64
            if len(S) * p ** C.n > 20_000:
                break


def test_singular_lift_holds_one_chunk_of_lifts(monkeypatch):
    # x1^3 + 2 x2^3 + 5 x3^3 at p = 5: the 3125 roots of S_4 have 390,625
    # lifts, 9.4 MB of rows in one array, of which 78,125 are S_5; in chunks
    # the lift holds S_5 twice (its pieces and their concatenation) and one
    # chunk's arrays
    monkeypatch.setattr(_grid, "BLOCK", 2**10)
    lift = _singular_lift(cl.CubicForm.diagonal([1, 2, 5]), 5)
    _, S = next(itertools.islice(lift, 3, None))
    assert len(S) == 3125
    tracemalloc.start()
    try:
        _, S5 = next(lift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(S5) == 78_125
    assert peak <= 2 * S5.nbytes + 16 * _grid.BLOCK * 3 * 8 < len(S) * 5**3 * 3 * 8


def test_local_density_counts_its_last_level_unheld(monkeypatch):
    # local_density at k = 5 counts the 78,125 rows of S_5 as the 3125 roots
    # of S_4 are lifted, chunk by chunk: it holds S_4 twice (its pieces and
    # their concatenation) and one chunk's arrays, never S_5 (1.9 MB), and
    # its count is the one S_5 of the lift gives
    monkeypatch.setattr(_grid, "BLOCK", 2**10)
    C = cl.CubicForm.diagonal([1, 2, 5])
    lift = _singular_lift(C, 5)
    _, S4 = next(itertools.islice(lift, 3, None))
    regular, S5 = next(lift)
    assert (len(S4), len(S5)) == (3125, 78_125)
    tracemalloc.start()
    try:
        got = cl.local_density(C, 5, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.solutions == len(regular) * 5 ** (2 * 4) + len(S5) * 5**3 == 17_578_125
    assert peak <= 2 * S4.nbytes + 16 * _grid.BLOCK * 3 * 8 < S5.nbytes


def _line_coefficients_three_evaluations(C, rest):
    """(a, b, c, d) of C on the lines x2..xn = ``rest`` from C at x1 = 0, 1
    and -1: the formula ``_grid.line_coefficients`` replaced."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in rest))
    d, f1, f_1 = (cubic_values(C, [np.full(shape, v, dtype=rest[0].dtype), *rest])
                  for v in (0, 1, -1))
    a = C.coeffs.get((1, 1, 1), 0)
    return a, (f1 + f_1) // 2 - d, (f1 - f_1) // 2 - a, d


@st.composite
def line_cases(draw):
    """(C, rest) as the callers of ``line_coefficients`` pass them: the
    residue grid of y2..yn (``residue_slabs``, int64, C reduced mod q), the
    lines of a box gathered from its axis (``_zeros_lines``) or the grid of
    x2..xn (``_g_box``), both in the exact dtype, with a zero column for
    n = 1.  The forms take x1^3 always, never, or by chance, or leave x1
    out; the box forms may be scaled past 2^62, to Python integers."""
    C = draw(big_forms(max_n=5))
    coeffs = dict(C.coeffs)
    shape = draw(st.sampled_from(["any", "cube", "no cube", "no x1"]))
    if shape == "cube":
        coeffs[(1, 1, 1)] = draw(BIG_COEFF)
    elif shape == "no cube":
        coeffs.pop((1, 1, 1), None)
    elif shape == "no x1":
        coeffs = {m: c for m, c in coeffs.items() if m[0] > 1}
    C = cl.CubicForm(C.n, coeffs)
    route = draw(st.sampled_from(["residues", "lines", "grid"] if C.n > 1 else ["lines", "grid"]))
    if route == "residues":
        q = draw(st.integers(1, 7))
        Cq = _grid.reduce_mod(C, q)
        return Cq, next(slabs(np.arange(q, dtype=np.int64), C.n))[1:]
    C = cl.CubicForm(C.n, {m: c << draw(st.sampled_from([0, 70])) for m, c in C.coeffs.items()})
    B = draw(st.integers(0, 3))
    axis = np.arange(-B, B + 1, dtype=exact_dtype(3 * C.max_abs_value(max(B, 1))))
    m = 2 * B + 1
    if route == "grid":
        rest = np.meshgrid(*([axis] * (C.n - 1)), indexing="ij")
        return C, rest or [np.zeros(1, dtype=axis.dtype)]
    idx = np.arange(draw(st.integers(0, m ** (C.n - 1) - 1)), m ** (C.n - 1))
    rest = [axis[i] for i in np.unravel_index(idx, (m,) * (C.n - 1))] if C.n > 1 else []
    return C, rest or [np.zeros(len(idx), dtype=axis.dtype)]


@settings(max_examples=200)
@given(case=line_cases())
@example(case=(cl.CubicForm(3, {(2, 3, 3): 5 << 70}),
               [np.arange(-2, 3, dtype=object), np.arange(-2, 3, dtype=object)]))
@example(case=(cl.CubicForm(1, {(1, 1, 1): -4}), [np.zeros(3, dtype=np.int64)]))
def test_line_coefficients_match_three_evaluations(case):
    # one pass over the monomials gives the same integers, in the same
    # shape and dtype, as C at x1 = 0, 1 and -1
    C, rest = case
    got = _grid.line_coefficients(C, rest)
    want = _line_coefficients_three_evaluations(C, rest)
    assert got[0] == want[0]
    for x, y in zip(got[1:], want[1:]):
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


PIN_PRIME_POWERS = [q for q in range(2, 25) if len(_factorize(q)) == 1]


@pytest.mark.parametrize("form", ["taxicab", "connected"])
def test_workload_residue_counts_match_oracle(form, request):
    # the histograms behind the benchmark's sseries, for every prime power <= 24
    C = request.getfixturevalue(form)
    for q in PIN_PRIME_POWERS:
        assert np.array_equal(_residue_counts(C, q), residue_counts_per_monomial(C, q))


@settings(max_examples=60)
@given(C=forms() | big_forms(max_n=3), q=st.integers(1, 12))
def test_folded_residue_counts_match_oracle(C, q):
    # the slabs y1 <= q/2 stand for their mirrors q - y1; for even q the
    # slab q/2 is its own mirror, and for n = 1 the one slab is all of Z/q
    assert np.array_equal(_residue_counts(C, q), residue_counts_per_monomial(C, q))


@settings(max_examples=40)
@given(C=forms(split=False) | big_forms(max_n=3), q=st.integers(2, 30), data=st.data())
def test_phased_walk_stays_within_abs_error_for_every_a(C, q, data):
    # with a nonzero avec the folded walk adds each mirror slab's phased
    # counts conjugated at -c, which moves the sum by rounding only
    assume(additive_split(C) is None)
    avec = data.draw(st.lists(st.integers(-20, 20), min_size=C.n, max_size=C.n).filter(any))
    for a in range(q):
        fast = cl.complete_sum(C, q, a, avec)
        assert abs(fast.value - _complete_sum_direct(C, q, a, avec).value) <= fast.abs_error


@pytest.mark.parametrize("form", ["taxicab", "connected"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_workload_local_factors_match_oracle(form, p, request):
    C = request.getfixturevalue(form)
    for k in (1, 2):
        expect = Fraction(1)
        for j in range(1, k + 1):
            hist = residue_counts_per_monomial(C, p**j)
            full, divisible = int(hist[0]), int(hist[::p ** (j - 1)].sum())
            expect += Fraction(p ** (j - 1) * (p * full - divisible), p ** (j * C.n))
        assert local_factor_via_sums(C, p, k) == expect


@pytest.mark.parametrize("c, p, k", [(1, 3, 20), (2, 5, 14)])
def test_local_density_past_int64_products(c, p, k):
    # c x^3 = 0 mod p^k exactly when p^ceil(k/3) divides x
    assert cl.local_density(cl.CubicForm.diagonal([c]), p, k).solutions == p ** (k - -(-k // 3))


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


CONNECTED = cl.CubicForm.from_terms(4, [(1, 1, 3, 1), (1, 2, 3, 1), (1, 2, 4, -1), (2, 2, 4, -1),
                                        (2, 3, 3, 1), (1, 3, 4, -1), (2, 3, 4, 1), (1, 4, 4, -1)])
SUMS_OF_CUBES = cl.CubicForm.diagonal([1, 1, 1])   # every root mod 3 is singular


# (call, exact work, what its guard names): the largest residue count the
# call charges, worked out by hand
GUARDS = {
    # the walk of an unsplit block, 5^4 residues
    "complete_sum-leaf": (lambda: cl.complete_sum(CONNECTED, 5, 1, [1, 2, 3, 4]), 625,
                          "q^|block|"),
    "sbound_check-leaf": (lambda: cl.sbound_check(CONNECTED, 1, 5, 0.25), 625, "q^|block|"),
    "series-leaf": (lambda: cl.singular_series_truncated(CONNECTED, 5), 625, "q^|block|"),
    "local_factor-leaf": (lambda: cl.local_factor_via_sums(CONNECTED, 5, 1), 625, "q^|block|"),
    # the taxicab form's blocks are single variables: 11 residues each, and
    # 11^2 for each convolution of two histograms
    "histogram-convolution": (lambda: residue_histogram(cl.taxicab_form(), 11), 121, "q^2"),
    # the vectors of length 6 of the taxicab form's four blocks, charged at
    # the top before its one-variable blocks are combined from mod 2 and mod 3
    "complete_sum-vectors": (lambda: cl.complete_sum(cl.taxicab_form(), 6, 1, [1, 2, 3, 4]),
                             24, "n q"),
    # 3^3 roots mod 3; the 7 singular roots mod 3 with C = 0 mod 9, (0,0,0)
    # and the permutations of (0,1,2), lift to 7 * 3^3 residues mod 9
    "local_density-lift": (lambda: cl.local_density(SUMS_OF_CUBES, 3, 3), 189, "|S| p^n"),
    "padic_zero-lift": (lambda: cl.find_nonsingular_padic_zero(SUMS_OF_CUBES, 3, 3), 189,
                        "|S| p^n"),
    "local_density-roots": (lambda: cl.local_density(CONNECTED, 5, 2), 625,
                            "enumeration of p^n"),
    "positivity-roots": (lambda: cl.positivity_report(CONNECTED, 5, 1, 1), 625,
                         "enumeration of p^n"),
    # the oracles: every residue mod q, every root lifted
    "direct-oracle": (lambda: _complete_sum_direct(CONNECTED, 5, 1, [0] * 4), 625, "q^n"),
    "crt-oracle": (lambda: cl.complete_sum_crt(SUMS_OF_CUBES, 11, 1, [0] * 3), 1331, "q^n"),
    "lifting-oracle": (lambda: solutions_mod_pk(SUMS_OF_CUBES, 3, 2), 243, "roots x p^n"),
}


@pytest.mark.parametrize("case", list(GUARDS))
def test_each_residue_guard_refuses_one_past_its_work(monkeypatch, case):
    # each guard charges the residues its own route walks: with the budget
    # at that work the call runs, one less and it names the work it refuses
    call, work, what = GUARDS[case]
    monkeypatch.setitem(_grid.BUDGETS, "residues", work)
    call()
    monkeypatch.setitem(_grid.BUDGETS, "residues", work - 1)
    with pytest.raises(ResourceLimit, match=re.escape(f"{what} = {work} residues")):
        call()


@pytest.mark.parametrize("C", [cl.taxicab_form(), CONNECTED], ids=["split", "unsplit"])
def test_sum_vectors_are_charged_before_any_is_made(monkeypatch, C):
    # n q passes the budget, so neither form makes a vector of length q nor
    # factorizes the prime q before it refuses
    q = 10007
    monkeypatch.setitem(_grid.BUDGETS, "residues", 1000)
    monkeypatch.setattr(cl.exp_sums, "_factorize", mock.Mock(side_effect=AssertionError))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match=re.escape(f"n q = {4 * q} residues")):
            cl.complete_sum(C, q, 1, [0] * 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * q


@pytest.mark.parametrize("q, avec", [(7, (1, 2, 3, 4)), (8, (0, 3, 0, 5)), (9, (4, 4, 4, 4))])
def test_phased_counts_of_a_split_form_match_the_direct_sum(q, avec):
    # each block's counts carry its part of avec into the convolution
    C = cl.CubicForm.from_terms(4, [(1, 1, 1, 1), (2, 2, 2, 2), (1, 1, 2, -1),
                                    (3, 3, 3, 1), (3, 4, 4, 3)])
    expect = np.zeros(q, dtype=complex)
    for y in product(range(q), repeat=4):
        expect[cl.eval_cubic(C, y) % q] += cmath.exp(2j * math.pi * np.dot(avec, y) / q)
    assert additive_split(C) is not None
    assert np.allclose(_residue_counts(C, q, avec), expect, atol=1e-9 * q**4)


@settings(max_examples=40)
@given(C=forms(), B=st.integers(0, 4))
def test_direct_enumeration_matches_python_scan(C, B):
    scan = [list(x) for x in product(range(-B, B + 1), repeat=C.n) if cl.eval_cubic(C, x) == 0]
    direct, examined = zero_points(C, B, "direct")
    assert direct.tolist() == scan and examined == (2 * B + 1) ** C.n
    if additive_split(C) is not None:
        mim, _ = zero_points(C, B, "meet_in_middle")
        assert sorted(mim.tolist()) == scan


def _assert_lines_match_direct(C, B):
    lines, examined = _zeros_lines(C, B)
    direct, box = zero_points(C, B, "direct")
    assert lines.dtype == np.int64 and np.array_equal(lines, direct)
    assert examined == box


@settings(max_examples=80)
@given(C=forms(max_n=5), cube=st.one_of(st.just(0), COEFF.filter(bool)), data=st.data())
def test_line_route_matches_direct(C, cube, data):
    # the x1^3 coefficient a is redrawn: with a = 0 every line is at most
    # quadratic in x1, and f' is monotone on the whole axis
    coeffs = {**C.coeffs, (1, 1, 1): cube}
    C = cl.CubicForm(C.n, {key: c for key, c in coeffs.items() if c})
    _assert_lines_match_direct(C, data.draw(st.integers(0, 7 if C.n <= 3 else 3)))


@settings(max_examples=30)
@given(C=forms(max_n=4), B=st.integers(0, 5))
def test_line_route_without_x1(C, B):
    # each line is constant in x1: a line of zeros, or none on it
    shifted = cl.CubicForm(C.n + 1, {(i + 1, j + 1, k + 1): c for (i, j, k), c in C.coeffs.items()})
    _assert_lines_match_direct(shifted, B)


def _product_form(*linear):
    """The cubic form l1 l2 l3 of three integer linear forms."""
    n = len(linear[0])
    return cl.CubicForm.from_terms(n, [(i + 1, j + 1, k + 1, linear[0][i] * linear[1][j] * linear[2][k])
                                       for i, j, k in product(range(n), repeat=3)])


def _scaled(C, shift=1100):
    """2^shift C: every line's coefficients are Python integers."""
    return cl.CubicForm(C.n, {key: c << shift for key, c in C.coeffs.items()})


@settings(max_examples=60)
@given(n=st.integers(1, 4), data=st.data())
def test_line_route_on_products_of_linear_forms(n, data):
    # l^3 and l^2 m have triple and double roots in x1 on every line, and a
    # factor with no x1 that vanishes on a line makes it a line of zeros
    linear = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    l, m, k = data.draw(linear), data.draw(linear), data.draw(linear)
    for factors in ((l, l, l), (l, l, m), (l, m, k)):
        _assert_lines_match_direct(_product_form(*factors), data.draw(st.integers(0, 6)))


@pytest.mark.parametrize("C, B", [
    (_product_form([1, -1, 0], [1, -1, 0], [0, 0, 1]), 11),   # (x1 - x2)^2 x3
    (_product_form([1, -1], [1, -1], [1, -1]), 11),           # (x1 - x2)^3
    (_product_form([1, 0, 1], [1, 0, 1], [1, -1, 0]), 11),    # (x1 + x3)^2 (x1 - x2)
    (cl.CubicForm.from_terms(3, [(2, 2, 2, 1), (2, 3, 3, -2)]), 11),  # no x1
    (cl.CubicForm.from_terms(3, [(1, 2, 2, 1), (1, 3, 3, 1)]), 11),   # x1 (x2^2 + x3^2)
    (cl.CubicForm.from_terms(1, [(1, 1, 1, -3)]), 40),
    (cl.CubicForm.from_terms(4, [(1, 1, 3, -1), (1, 2, 3, -1), (1, 2, 4, 1), (2, 2, 4, 1),
                                 (2, 3, 3, -1), (1, 3, 4, 1), (2, 3, 4, -1), (1, 4, 4, 1)]), 13),
])
def test_line_route_edge_forms(C, B):
    # the last form is minus the connected benchmark form: every coefficient
    # changes sign, so every piece's direction does
    _assert_lines_match_direct(C, B)


@pytest.mark.parametrize("factors", [
    ([1, -1], [1, -2], [1, 1]),                   # roots y, 2y and -y on line y
    ([1, -1, 0], [1, 0, -2], [1, 1, 1]),
])
def test_line_route_past_the_float_range(factors):
    # 2^1100 C is past the float range: its lines are solved in Python
    # integers, and a line with three roots in the box has f' of one sign
    # at both ends, so only the bisections of f' cut it into its pieces
    _assert_lines_match_direct(_scaled(_product_form(*factors)), 8)


def _zero_lines(C, B):
    """How many lines of the box |x| <= B, of its (2B+1)^(n-1), C vanishes
    on identically: the lines whose 2B+1 points the line route charges."""
    m = 2 * B + 1
    axis = np.arange(-B, B + 1, dtype=exact_dtype(3 * C.max_abs_value(max(B, 1))))
    rest = ([axis[i] for i in np.unravel_index(np.arange(m ** (C.n - 1)), (m,) * (C.n - 1))]
            if C.n > 1 else [np.zeros(1, dtype=axis.dtype)])
    a, b, c, d = _grid.line_coefficients(C, rest)
    return int(np.count_nonzero((a == 0) & (b == 0) & (c == 0) & (d == 0)))


PLANE = cl.CubicForm.from_terms(3, [(1, 2, 2, 1), (1, 3, 3, 1)])    # zeros on x1 = 0
XYZ = cl.CubicForm.from_terms(3, [(1, 2, 3, 1)])                    # lines of zeros
CUBE_DOUBLE = _product_form([1, -1], [1, -1], [1, 2])              # (x1 - x2)^2 (x1 + 2 x2)


@settings(max_examples=60)
@given(C=forms(max_n=4) | big_forms(max_n=4, coeff=COEFF.filter(bool)) | big_forms(max_n=4),
       B=st.integers(0, 4))
@example(C=PLANE, B=0)
@example(C=PLANE, B=1)
@example(C=PLANE, B=4)
@example(C=XYZ, B=3)
@example(C=cl.CubicForm.from_terms(2, [(1, 2, 2, 1)]), B=2)             # no x1^3
@example(C=cl.CubicForm.from_terms(1, [(1, 1, 1, -3)]), B=1)
# a double root and a simple one on every line, at +-B on the lines y = +-B
@example(C=CUBE_DOUBLE, B=4)
@example(C=_product_form([1, -1], [1, -1], [1, -1]), B=4)              # triple roots
@example(C=_product_form([1, 0, -1], [1, 1, 0], [1, -1, 1]), B=3)       # roots at +-B
# f' = 3 (x1^2 - x2^2): integer critical points +-x2 on every line
@example(C=cl.CubicForm.from_terms(2, [(1, 1, 1, 1), (1, 2, 2, -3)]), B=4)
@example(C=cl.CubicForm.from_terms(2, [(1, 1, 1, -1), (1, 2, 2, 3), (2, 2, 2, 2)]), B=4)  # a < 0
@example(C=cl.CubicForm.from_terms(3, [(1, 1, 2, -1), (1, 3, 3, 2), (2, 2, 3, 1)]), B=4)  # a = 0, b < 0
@example(C=_product_form([1, 0, 0], [0, 1, 0], [0, 1, -1]), B=3)      # lines of zeros x2 = 0, x2 = x3
@example(C=_scaled(CUBE_DOUBLE), B=4)
@example(C=_scaled(_product_form([1, -1, 0], [1, 0, -2], [1, 1, 1])), B=3)
@example(C=_scaled(XYZ), B=2)
def test_folded_line_route_matches_direct_and_budget(C, B):
    # the line route solves half its lines and mirrors the rest; at the
    # budget of solving every line it runs, and one evaluation less refuses
    direct, box = zero_points(C, B, "direct")
    work = lattice_enum._line_work(C.n, B) + _zero_lines(C, B) * (2 * B + 1)
    with mock.patch.dict(_grid.BUDGETS, {"points": work}):
        pts, examined = _zeros_lines(C, B)
    assert pts.dtype == np.int64 and np.array_equal(pts, direct) and examined == box
    with mock.patch.dict(_grid.BUDGETS, {"points": work - 1}), \
            pytest.raises(ResourceLimit, match="exceeds budget"):
        _zeros_lines(C, B)


def test_line_hits_does_no_float_arithmetic():
    # every step of the line route's solve is an exact integer: no float
    # literal, true division, float conversion or float function
    floats = {"float", "sqrt", "floor", "ceil", "inf", "nan", "copysign", "nan_to_num",
              "float64", "isfinite", "math", "rint", "round"}
    for fn in (lattice_enum._line_hits, _grid.horner):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), \
                f"{fn.__name__}: float literal"
            assert not isinstance(getattr(node, "op", None), ast.Div), \
                f"{fn.__name__}: true division at line {node.lineno}"
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            assert name not in floats, f"{fn.__name__}: {name} at line {node.lineno}"


def _mim_per_point_gather(C, B):
    """Meet-in-the-middle zeros gathered one b-side point at a time: the
    b-points in box order, each followed by its a-side matches in stable
    value order."""
    vars_a, vars_b = additive_split(C)
    axis = np.arange(-B, B + 1)
    pts_a, vals_a = box_points(axis, len(vars_a)), _value_table(_subform(C, vars_a), axis)
    pts_b, vals_b = box_points(axis, len(vars_b)), _value_table(_subform(C, vars_b), axis)
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
    pts, examined = zero_points(C, B, "meet_in_middle")
    assert pts.dtype == np.int64 and np.array_equal(pts, _mim_per_point_gather(C, B))
    assert examined == sum((2 * B + 1) ** len(side) for side in additive_split(C))


@pytest.mark.parametrize("C, B", [(cl.taxicab_form(), 0), (cl.CubicForm.diagonal([1, 2]), 5),
                                  (cl.CubicForm.diagonal([1, 2, 4]), 6)])
def test_mim_gather_edge_boxes(C, B):
    # B = 0 is the origin alone; x1^3 + 2 x2^3 and x1^3 + 2 x2^3 + 4 x3^3 have
    # no integer zero but the origin
    pts, _ = zero_points(C, B, "meet_in_middle")
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
@given(r=st.integers(1, 3), boxes=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_discrepancy_matches_per_box_count(r, boxes, seed, data):
    # coordinates are free floats or box corner coordinates drawn as the
    # function draws them, so points sit on box faces; whole corners a and b
    # of boxes are added, and repeated rows are duplicates
    corners = np.random.default_rng(seed).uniform(size=(boxes, 2, r))
    coord = st.one_of(st.floats(-2.0, 2.0),
                      st.tuples(st.integers(0, boxes - 1), st.integers(0, 1)))
    rows = data.draw(st.lists(st.lists(coord, min_size=r, max_size=r), min_size=1, max_size=40))
    pts = [[corners[v[0], v[1], i] if isinstance(v, tuple) else v for i, v in enumerate(row)]
           for row in rows]
    lo_hi = [np.min(corners, axis=1), np.max(corners, axis=1)]
    for b, side in data.draw(st.lists(st.tuples(st.integers(0, boxes - 1), st.integers(0, 1)),
                                      max_size=10)):
        pts.append(list(lo_hi[side][b]))
    pts += data.draw(st.lists(st.sampled_from(pts), max_size=10))
    value = discrepancy(np.array(pts), boxes, seed).value
    assert value == _discrepancy_per_box(np.array(pts), boxes, seed)


MOD1_EDGES = [-0.0, 0.0, 5e-324, -5e-324, -1e-17, 2.0**52 + 0.5, 2.0**52 - 0.5,
              -(2.0**52 + 0.5), -(2.0**52 - 0.5), 1e300, -1e300, 7.0, -7.0, 2.0**60, -(2.0**60),
              math.nan, math.inf, -math.inf]


@settings(max_examples=100)
@given(xs=st.lists(st.floats() | st.integers(-(2**60), 2**60).map(float), max_size=60))
def test_mod1_is_np_mod_bit_for_bit(xs):
    # x - floor(x) against np.mod(x, 1.0), compared as bit patterns: signed
    # zeros, the 1.0 of tiny negative x, subnormals, halves at 2^52 and the
    # nan of nan and +-inf
    x = np.array(xs + MOD1_EDGES)
    with np.errstate(invalid="ignore"):
        want = np.mod(x, 1.0).view(np.uint64)
        assert np.array_equal(_mod1(x).view(np.uint64), want)
        _mod1(x, out=x)
    assert np.array_equal(x.view(np.uint64), want)


def _exact_verdicts(system, pts, tau, eta):
    """Per point: whether |L_i(x) - tau_i| < eta for every row, in Fractions
    with tau and eta read as the binary rationals of their floats; None where a
    real row lies so close to its boundary that float rounding may decide."""
    out = []
    for x in pts.tolist():
        ok, close = True, False
        for row, t in zip(system.rows, tau):
            gap = abs(sum(Fraction(c) * v for c, v in zip(row, x)) - Fraction(t)) - Fraction(eta)
            if all(isinstance(c, Fraction) for c in row):
                ok &= gap < 0
            elif abs(gap) <= 1e-9 * (1 + abs(t) + sum(abs(float(c) * v) for c, v in zip(row, x))):
                close = True
            else:
                ok &= gap < 0
        out.append(None if ok and close else ok)
    return out


@st.composite
def constraint_cases(draw):
    """r <= 3 rational or real rows in n <= 4 variables, integer points, and
    each tau_i the float nearest L_i(x0) +- eta for one of the points, so that
    point sits on the boundary.  With big numerators |M . x| passes 2^62 and
    the rational rows take the Python-integer route."""
    n = draw(st.integers(1, 4))
    big = draw(st.booleans())
    num = st.integers(-2**61, 2**61) if big else st.integers(-20, 20)
    rows = []
    for _ in range(draw(st.integers(0, min(3, n)))):
        if draw(st.booleans()):
            rows.append(tuple(Fraction(draw(num), draw(st.integers(1, 30))) for _ in range(n)))
        else:
            rows.append(tuple(draw(st.floats(-10, 10)) for _ in range(n)))
    pts = np.array(draw(st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                                 min_size=1, max_size=30)), dtype=np.int64)
    eta = draw(st.sampled_from([0.125, 0.5, 1.0, 3.0]) | st.floats(1e-3, 100))
    x0 = pts[draw(st.integers(0, len(pts) - 1))].tolist()
    tau = tuple(float(sum(Fraction(c) * v for c, v in zip(row, x0))
                      + draw(st.sampled_from([1, -1])) * Fraction(eta)) for row in rows)
    return ReducedSystem(n=n, rows=tuple(rows)), pts, tau, eta


def _real_row_values(rows, pts):
    """(N, r) table of L_i(x), point by point in Python floats: l_k x_k
    summed in k order."""
    def value(row, x):
        total = float(row[0]) * x[0]
        for l, v in zip(row[1:], x[1:]):
            total += float(l) * v
        return total
    return np.array([[value(row, x) for row in rows] for x in pts.tolist()],
                    dtype=float).reshape(len(pts), len(rows))


@settings(max_examples=200)
@given(case=constraint_cases())
def test_constraint_mask_matches_fraction_filter(case):
    system, pts, tau, eta = case
    mask = constraint_mask(system, pts, tau, eta)
    for got, want in zip(mask.tolist(), _exact_verdicts(system, pts, tau, eta)):
        assert want is None or got == want
    if not any(all(isinstance(c, Fraction) for c in row) for row in system.rows):
        # a real row is decided on its value summed point by point in k order
        vals = _real_row_values(system.rows, pts)
        assert np.array_equal(mask, np.all(np.abs(vals - np.array(tau)) < eta, axis=1))


@settings(max_examples=200)
@given(case=constraint_cases())
# numpy's matmul rounded this point's value one way alone and another way
# among other points, so it was inside alone and on the boundary in an array
@example(case=(ReducedSystem(n=3, rows=((-3.537593100988791, -1e-09, 0.0),)),
               np.array([[-3, -3, 3], [0, 0, 0]], dtype=np.int64), (10.737779305966372,), 0.125))
def test_constraint_mask_decides_each_point_alone(case):
    system, pts, tau, eta = case
    mask = constraint_mask(system, pts, tau, eta)
    for x, inside in zip(pts, mask.tolist()):
        assert constraint_mask(system, x[None, :], tau, eta)[0] == inside


@settings(max_examples=60)
@given(case=constraint_cases())
@example(case=(ReducedSystem(n=3, rows=((-3.537593100988791, -1e-09, 0.0),)),
               np.array([[-3, -3, 3]], dtype=np.int64), (10.737779305966372,), 0.125))
def test_linear_values_of_each_point_alone(case):
    # the k-order evaluator of constraint_mask, equidist and the kernel
    # count: a point's L(x) alone is its L(x) inside a box of 13^n points,
    # where a matmul would take BLAS, and it is the k-order sum in Python
    system, pts, _, _ = case
    n = system.n
    big = np.concatenate([box_points(np.arange(-6, 7, dtype=np.int64), n), pts])
    inside = linear_values(system, big)[-len(pts):]
    alone = np.concatenate([linear_values(system, x[None, :]) for x in pts])
    assert np.array_equal(inside, alone)
    assert np.array_equal(alone, _real_row_values(system.rows, pts))
    assert np.array_equal(linear_values_mod1(system, pts), np.mod(alone, 1.0))


def test_constraint_mask_past_int64():
    # |M . x| reaches about 2^70, far past int64: the bounds must still be exact
    system = ReducedSystem(n=2, rows=((Fraction(2**61 + 1, 3), Fraction(-(2**60), 7)),))
    pts = np.array([[x, y] for x in range(-100, 101, 7) for y in range(-100, 101, 9)], dtype=np.int64)
    for x0 in pts[::37].tolist():
        for eta in (0.5, 2.0**40):
            tau = (float(sum(c * v for c, v in zip(system.rows[0], x0)) + Fraction(eta)),)
            expect = _exact_verdicts(system, pts, tau, eta)
            assert constraint_mask(system, pts, tau, eta).tolist() == expect


def _constraint_mask_rows(system, pts, tau, eta, vals):
    """The real-row test as one row reduction over the (N, r) value table
    ``vals`` of ``_real_row_values``."""
    return np.all(np.abs(vals - np.array(tau, dtype=float)) < eta, axis=1)


@pytest.mark.parametrize("r", [2, 3])
def test_constraint_mask_real_columns_match_row_form(r):
    # a box of integer points with every tau_i at L_i(x) +- eta of some point x
    # (on the boundary, where float ties decide) or halfway (x is inside)
    rows = [IRR_ROW[j:] + IRR_ROW[:j] for j in range(r)]
    system = ReducedSystem(n=4, rows=tuple(map(tuple, rows)))
    pts = box_points(np.arange(-6, 7, dtype=np.int64), 4)
    vals = _real_row_values(rows, pts)
    for eta in (0.125, 0.5, 3.0):
        for k in (0, 1000, len(pts) - 1):
            for shift in (1.0, 0.5):
                tau = tuple(vals[k] + shift * eta * np.array([1, -1, 1][:r]))
                mask = constraint_mask(system, pts, tau, eta)
                assert np.array_equal(mask, _constraint_mask_rows(system, pts, tau, eta, vals))
                assert not mask.all() and (shift == 1.0 or mask[k])


def test_constraint_mask_checks_dimensions(irr_linsys):
    with pytest.raises(DimensionMismatch):
        constraint_mask(irr_linsys, np.zeros((2, 3), dtype=np.int64), (0.0,), 1.0)
    with pytest.raises(DimensionMismatch):
        constraint_mask(irr_linsys, np.zeros((2, 4), dtype=np.int64), (0.0, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Quadrature phase tables by angle addition, and one Sobol draw per schedule

# phases as the callers make them: any float up to 1e6 in magnitude, exact
# quarter-, half- and whole-integer phases (cos, sin or both exactly 0 or
# +-1 after the reduction), and +-0.0
PHASE = st.one_of(st.floats(-1e6, 1e6), st.integers(-4 * 10**6, 4 * 10**6).map(lambda k: k / 4),
                  st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0]))


def _same_bits(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).dtype == np.asarray(want).dtype
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@settings(max_examples=200)
@given(phases=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=9),
                         elements=PHASE),
       view=st.sampled_from(["as is", "transposed", "every other"]))
def test_cis_and_cos_e_keep_the_expression_bits(phases, view):
    # one complex output (cis) and one buffer (cos_e) give the bits of the
    # expressions with a real array per sin, on any layout of the input
    if view == "transposed":
        phases = phases.T
    elif view == "every other" and phases.ndim:
        phases = phases[::2]
    assert _same_bits(cis(phases), cis_expression(phases))
    assert _same_bits(cos_e(phases), cos_e_expression(phases))


@given(phase=PHASE)
def test_cis_and_cos_e_of_a_scalar_are_scalars(phase):
    # a Python float, a numpy float, a 0-d array and an exact integer phase
    # each give what the expressions give: a numpy scalar, not a 0-d array
    for x in (phase, np.float64(phase), np.array(phase), round(phase)):
        got, want = cis(x), cis_expression(x)
        assert _same_bits(got, want) and type(got) is np.complex128
        got, want = cos_e(x), cos_e_expression(x)
        assert _same_bits(got, want) and type(got) is np.float64


EPS = np.finfo(float).eps
IRR_ROW = [(1 + math.sqrt(5)) / 2, math.sqrt(2), math.sqrt(3), math.sqrt(5)]
# per entry, |gl_phases(...).table() - cis(nu s)| <= PHASE_C eps (1 + max|nu s|):
# each of the three factor phases, the reference product nu * s and the node
# itself round once, and e() turns a phase error d into an error <= 2 pi d
PHASE_C = 64


def _phase_bound(nodes, s):
    return PHASE_C * EPS * (1 + float(np.abs(np.outer(nodes, s)).max(initial=0.0)))


@settings(max_examples=80)
@given(panels=st.one_of(st.just(1), st.sampled_from([2, 3, 5, 7, 11, 13, 97, 101, 211]),
                        st.integers(1, 300)),
       order=st.integers(1, 12), lo=st.floats(-100, 100), width=st.floats(1e-3, 200),
       reach=st.floats(0, 1e4), data=st.data())
def test_gl_phases_match_dense_table(panels, order, lo, width, reach, data):
    hi = lo + width
    nodes, weights = gl_nodes(panels, order, lo, hi)
    # s values spread over [-1, 1] * reach / max|nu|, so |nu s| <= reach
    s = np.linspace(-1.0, 1.0, data.draw(st.integers(1, 9))) * reach / max(abs(lo), abs(hi))
    dense = cis(np.outer(nodes, s))
    phases = gl_phases(panels, order, lo, hi, s)
    table = phases.table()
    start = data.draw(st.integers(0, len(nodes)))
    assert phases.table(start).tobytes() == table[start:].tobytes()
    bound = _phase_bound(nodes, s)
    assert table.shape == dense.shape
    assert np.abs(table - dense).max() <= bound
    # the contraction is the real part, and adds its own summation error
    # over the nodes
    got = phases.contract(weights)
    assert got.dtype == float and got.shape == s.shape
    assert np.abs(got - (weights @ dense).real).max() \
        <= np.abs(weights).sum() * (bound + len(nodes) * EPS)
    # a column depends on its s alone: each column block's table is the
    # whole table's columns, bit for bit, and its contraction the same sums
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_grid, "BLOCK", data.draw(st.integers(1, 4 * len(nodes))))
        for walk in (start, None):
            for cols in phase_columns(len(s), panels, order, walk):
                block = gl_phases(panels, order, lo, hi, s[cols])
                if walk is not None:
                    assert block.table(walk).tobytes() == table[walk:, cols].tobytes()
                else:
                    assert np.abs(block.contract(weights) - got[cols]).max(initial=0.0) \
                        <= np.abs(weights).sum() * len(nodes) * EPS


@settings(max_examples=120)
@given(K=st.integers(0, 400), panels=st.integers(1, 300), order=st.integers(1, 12),
       block=st.integers(1, 6000), data=st.data())
def test_phase_columns_keep_each_block_within_the_bound(K, panels, order, block, data):
    # the blocks cover the K columns in order, each as wide as keeps the
    # largest array built for it within BLOCK entries, one column at least:
    # the table it is built for (``table(start)``, or the ``contract``
    # product, B order entries a column with B = isqrt(panels)), or the
    # stacked factor table of ``gl_phases`` where that is taller
    start = data.draw(st.one_of(st.none(), st.integers(0, panels * order)))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_grid, "BLOCK", block)
        blocks = list(phase_columns(K, panels, order, start))
    assert [k for cols in blocks for k in range(K)[cols]] == list(range(K))
    phases = gl_phases(panels, order, 0.0, 1.0, np.ones(1))
    factors = phases.ea.base
    assert factors.shape == (len(phases.ea) + len(phases.eb) + order, 1)
    if start is None:
        rows = math.isqrt(panels) * order
    else:
        table = phases.table(start)
        rows = table.base.size if table.base is not None else table.size
    rows = max(rows, len(factors))
    for cols in blocks:
        width = cols.stop - cols.start
        assert width == 1 or width * rows <= block
    for cols in blocks[:-1]:
        assert (cols.stop - cols.start + 1) * rows > block


KERNEL_CASES = [(0.05, 0.05 / math.log(math.log(100)), "plus"),
                (0.05, 0.05 / math.log(math.log(100)), "minus"),
                (0.3, 0.1, "plus"), (1.0, 1.0, "minus")]


@pytest.mark.parametrize("eta, rho, sign", KERNEL_CASES)
def test_kernel_transform_matches_dense_sum(eta, rho, sign):
    _check_kernel_transform(eta, rho, sign)


@pytest.mark.parametrize("block", [1, 5000])    # t by t, and a few t values a block
@pytest.mark.parametrize("eta, rho, sign", KERNEL_CASES)
def test_kernel_transform_blocks_match_dense_sum(monkeypatch, eta, rho, sign, block):
    monkeypatch.setattr(_grid, "BLOCK", block)
    _check_kernel_transform(eta, rho, sign)


def _check_kernel_transform(eta, rho, sign):
    kp = KernelParams(eta=eta, rho=rho, sign=sign)
    ts = np.linspace(0.0, 3 * eta, 61)
    alpha_cut = 50.0 / rho
    got, _ = kernel_transform_numeric(ts, kp, alpha_cut)
    # the dense route it replaced: the same panels, cos(2 pi t nu) for every (t, nu)
    fmax = (kp.rho + kp.outer_width) / 2 + ts.max()
    panels = max(16, int(math.ceil(alpha_cut * fmax * 1.25)))
    nodes, weights = gl_nodes(panels, 8, 0.0, alpha_cut)
    kvals = kernel_K(nodes, kp) * weights
    dense = 2.0 * (np.cos(2 * np.pi * np.outer(ts, nodes)) @ kvals)
    bound = 2 * np.abs(kvals).sum() * (_phase_bound(nodes, ts) + len(nodes) * EPS)
    assert np.abs(got - dense).max() <= bound


def _osc_separable_dense(C, Lsys, b0, b1, outer_panels, t_panels):
    """``_osc_separable_value`` with every phase table a dense cis of an outer
    product, one per axis."""
    diag = diag_coeffs(C)
    n0, w0 = gl_nodes(outer_panels, 6, -b0, b0)
    t, wt = gl_nodes(t_panels, 10, -1.0, 1.0)
    wfac = w1(t) * wt
    if Lsys.r == 0:
        val = np.ones(len(n0), dtype=complex)
        for c in diag:
            val *= cis(np.outer(n0, c * t**3)) @ wfac
        return complex(w0 @ val), 0.0
    na, wa = gl_nodes(outer_panels, 6, -b1, b1)
    prod = np.ones((len(n0), len(na)), dtype=complex)
    for c, l in zip(diag, Lsys.matrix()[0]):
        prod *= (cis(np.outer(n0, c * t**3)) * wfac) @ cis(np.outer(na * l, t)).T
    return complex(w0 @ prod @ wa), float(np.abs(wa).sum())


@pytest.mark.parametrize("coeffs, row", [
    ([1, 1, -1, -1], None), ([1, 2, -3], None),
    ([1, 1, -1, -1], IRR_ROW), ([2, -1, 3], [0.5, -math.sqrt(2), 0.0])])
@pytest.mark.parametrize("panels", [(8, 40), (13, 61), (12, 61), (13, 40)])
def test_osc_separable_matches_dense_tables(coeffs, row, panels):
    C = cl.CubicForm.diagonal(coeffs)
    Lsys = cl.LinearSystem.for_form(C, None if row is None else cl.LinearSystem.from_rows([row]))
    b0, b1 = 12.0, 6.0
    got = _osc_separable_value(C, Lsys, b0, b1, *panels)
    want, wa_mass = _osc_separable_dense(C, Lsys, b0, b1, *panels)
    # each axis factor is a t-sum of entries within delta of the dense ones,
    # so to first order the product moves by at most n delta S^n per term
    # (S = sum |w1 wt| bounds every factor), times the outer weight masses
    t, wt = gl_nodes(panels[1], 10, -1.0, 1.0)
    S = np.abs(w1(t) * wt).sum()
    phase = 3 * b0 * max(map(abs, coeffs)) + b1 * max(map(abs, row or [0.0]))
    delta = 2 * (PHASE_C * EPS * (1 + phase) + len(t) * EPS)
    bound = 2 * b0 * max(wa_mass, 1.0) * len(coeffs) * delta * S ** len(coeffs)
    assert abs(got - want) <= bound
    assert got.imag == 0.0


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(any),
       row=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), r=st.integers(0, 1),
       b0=st.floats(0.5, 16.0), b1=st.floats(0.5, 16.0), outer_panels=st.integers(1, 14),
       t_panels=st.integers(1, 40))
@example(coeffs=[2, -2, 1, -1], row=[math.sqrt(3), 0.5, -math.sqrt(2), 1.1], r=1, b0=12.0,
         b1=6.0, outer_panels=13, t_panels=40)
@example(coeffs=[1, 1, -1, -3], row=[0.0] * 4, r=0, b0=16.0, b1=16.0, outer_panels=8,
         t_panels=36)
def test_osc_separable_blocks_match_dense_tables(coeffs, row, r, b0, b1, outer_panels, t_panels):
    # the walk over t blocks against the dense oracle, at one block, two
    # blocks and one t node a block, within 1e-13 of the sum of |terms|
    # (the scale both routes round at; the value itself may cancel)
    from cubiclab import singular_integral

    C = cl.CubicForm.diagonal(coeffs)
    Lsys = cl.LinearSystem.for_form(C, cl.LinearSystem.from_rows([row[:C.n]]) if r else None)
    panels = (outer_panels, t_panels)
    want, wa_mass = _osc_separable_dense(C, Lsys, b0, b1, *panels)
    _, w0 = gl_nodes(outer_panels, 6, -b0, b0)
    t, wt = gl_nodes(t_panels, 10, -1.0, 1.0)
    scale = np.abs(w0).sum() * max(wa_mass, 1.0) * np.abs(w1(t) * wt).sum() ** C.n
    # a block's tallest array, a column: the half table's panels, or the
    # stacked factor table of ``gl_phases`` where that is taller
    B = math.isqrt(outer_panels)
    rows = max(-(-outer_panels // 2) * 6, -(-outer_panels // B) + B + 6)
    K = len(t) // 2     # t > 0 nodes
    tables = len(set(np.abs(diag_coeffs(C)))) + (C.n if r else 0)    # a block's tables
    for blocks, width in ((1, K), (2, -(-K // 2)), (K, 1)):
        calls = []

        def counted(*args):
            calls.append(args)
            return gl_phases(*args)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_grid, "BLOCK", rows * width)
            m.setattr(singular_integral, "gl_phases", counted)
            got = _osc_separable_value(C, Lsys, b0, b1, *panels)
        assert len(calls) == blocks * tables
        assert got.imag == 0.0
        assert abs(got - want) <= 1e-13 * scale


@pytest.mark.parametrize("C, row, schedule, seed, converges", [
    (cl.taxicab_form(), None, [8.0, 16.0, 32.0], 7, True),
    (cl.CubicForm.from_terms(6, [(i, i, i, 1 if i <= 3 else -1) for i in range(1, 7)]),
     IRR_ROW + [math.sqrt(7), math.sqrt(11)], [1.0, 2.0, 4.0], 0, True),
    (cl.CubicForm.from_terms(2, [(1, 1, 1, 1)]), [0.0, math.sqrt(2)], [4.0, 8.0, 16.0, 32.0], 7,
     False),
])
def test_tent_schedule_table_is_per_L_schmidt(C, row, schedule, seed, converges):
    Ls = None if row is None else cl.LinearSystem.from_rows([row])
    samples = 1 << 14
    if converges:
        table = cl.chi_w_estimate(C, Ls, schedule, samples, seed).table
    else:
        with pytest.raises(NotConverged) as exc:
            cl.chi_w_estimate(C, Ls, schedule, samples, seed)
        table = exc.value.table
    assert table == tuple(cl.schmidt_IL(C, Ls, L, samples, seed) for L in schedule)



# ---------------------------------------------------------------------------
# The folded separable integral, and the weight and tents column by column


class _TrackedRows(np.ndarray):
    """An array that logs the operand shapes of every matmul it enters and
    passes its type on to the arrays computed from it."""

    matmuls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        def plain(x):
            return x.view(np.ndarray) if isinstance(x, _TrackedRows) else x
        args = [plain(x) for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(plain(x) for x in out)
        if ufunc is np.matmul:
            _TrackedRows.matmuls.append(tuple(np.shape(x) for x in args))
        result = getattr(ufunc, method)(*args, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(_TrackedRows) if isinstance(result, np.ndarray) else result


class _PoisonedPhases:
    """A phase table whose rows at negative nodes are NaN, tracked."""

    def __init__(self, phases, negative):
        self.phases, self.negative = phases, negative

    def table(self, start=0):
        table = self.phases.table().copy()
        table[self.negative] = np.nan
        return table[start:].view(_TrackedRows)


@pytest.mark.parametrize("coeffs, row", [
    ([1, 2, -3], None), ([1, 1, -1, -1], IRR_ROW), ([2, -1, 3], [0.5, -math.sqrt(2), 0.0]),
    ([2, -2, 1, -1], [math.sqrt(3), 0.5, -math.sqrt(2), 1.1]), ([0, 2, -3], None),
    ([1, 0, -1], [0.25, math.sqrt(5), -1.5]), ([1, -1, 2], None)])
@pytest.mark.parametrize("panels", [(8, 40), (13, 61), (12, 61), (13, 40), (7, 40)])
def test_osc_separable_folds_both_rules(monkeypatch, coeffs, row, panels):
    # phases only over t > 0, walked in blocks of t nodes; in every block one
    # beta0 table per distinct |c| and one alpha table per axis, and every
    # matmul only over the beta0 > 0 rows and the alpha > 0 rows: the rows at
    # beta0 < 0 and at alpha < 0 are NaN and must not reach the value
    from cubiclab import singular_integral

    C = cl.CubicForm.diagonal(coeffs)
    Lsys = cl.LinearSystem.for_form(C, None if row is None else cl.LinearSystem.from_rows([row]))
    b0, b1 = 12.0, 6.0
    outer_panels, t_panels = panels
    monkeypatch.setattr(_grid, "BLOCK", 2**11)    # 3 to 7 blocks at these sizes
    want = _osc_separable_value(C, Lsys, b0, b1, *panels)
    n0, _ = gl_nodes(outer_panels, 6, -b0, b0)
    na, _ = gl_nodes(outer_panels, 6, -b1, b1)
    t, _ = gl_nodes(t_panels, 10, -1.0, 1.0)
    t_pos = t[t > 0]
    asked = []

    def spy(panels_, order, lo, hi, s):
        asked.append((lo, np.asarray(s)))
        return _PoisonedPhases(gl_phases(panels_, order, lo, hi, s), (n0 if lo == -b0 else na) < 0)

    monkeypatch.setattr(singular_integral, "gl_phases", spy)
    monkeypatch.setattr(_TrackedRows, "matmuls", [])
    got = _osc_separable_value(C, Lsys, b0, b1, *panels)
    assert got == want and math.isfinite(got.real)
    assert len(t_pos) == len(t) // 2
    mags = list(set(np.abs(diag_coeffs(C))))
    lam = list(Lsys.matrix()[0]) if Lsys.r else []
    per_block = len(mags) + len(lam)
    blocks = [asked[k:k + per_block] for k in range(0, len(asked), per_block)]
    assert len(blocks) >= 3
    for block in blocks:
        assert [lo for lo, _ in block] == [-b0] * len(mags) + [-b1] * len(lam)
    # the blocks' frequencies, joined in order, are each table's whole row
    wanted = [c * t_pos**3 for c in mags] + [l * t_pos for l in lam]
    for k, w in enumerate(wanted):
        assert np.array_equal(np.concatenate([block[k][1] for block in blocks]), w)
    widths = [len(block[0][1]) for block in blocks]
    products = 2 * C.n if lam else len(mags)    # U and V per axis, or one sum per |c|
    assert len(_TrackedRows.matmuls) == products * len(blocks)
    for k, (a, b) in enumerate(_TrackedRows.matmuls):
        assert a == (len(n0) // 2, widths[k // products])
        if lam:
            assert b == (widths[k // products], len(na) // 2)


def _weight_w_rows(x):
    """``weight_w`` by row reductions over the (N, n) points."""
    arr = np.asarray(x, dtype=float)
    pts = np.atleast_2d(arr)
    inside = np.abs(pts).max(axis=1) < 1.0
    out = np.zeros(len(pts))
    if inside.any():
        out[inside] = np.exp(-np.sum(1.0 / (1.0 - pts[inside] ** 2), axis=1))
    return float(out[0]) if arr.ndim == 1 else out


def _Psi_L_rows(components, L):
    return np.prod(psi_L(components, L), axis=-1)


# coordinates in and out of the unit box, with the edges +-1 and their
# neighbours drawn often
COORD = st.sampled_from([-1.0, 1.0, 0.0, np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0),
                         1.5, -3.0]) | st.floats(-1.2, 1.2)


@settings(max_examples=100)
@given(t=st.lists(COORD, min_size=1, max_size=40))
@example(t=[-1.0, 1.0, np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), 0.0, 1.5, -3.0])
def test_w1_is_weight_w_on_one_column(t):
    t = np.array(t)
    assert np.array_equal(w1(t), weight_w(t[:, None]))


@settings(max_examples=150)
@given(n=st.integers(1, 11), data=st.data())
def test_column_weight_and_tents_match_row_reductions(n, data):
    # numpy sums and multiplies fewer than 8 contiguous entries in order, so
    # for n <= 7 the columns give the same bits; past that the sum of the
    # n terms 1/(1 - x^2) >= 1 is regrouped, within 4 n eps relative
    N = data.draw(st.integers(1, 40))
    pts = np.array(data.draw(st.lists(st.lists(COORD, min_size=n, max_size=n),
                                      min_size=N, max_size=N)))
    L = data.draw(st.sampled_from([0.5, 1.0, 4.0, 32.0]))
    assert np.array_equal(Psi_L(pts, L), _Psi_L_rows(pts, L))
    got, want = weight_w(pts), _weight_w_rows(pts)
    if n <= 7:
        assert np.array_equal(got, want)
        assert weight_w(pts[0]) == _weight_w_rows(pts[0])
    else:
        assert not np.any(got[np.abs(pts).max(axis=1) >= 1.0])
        # the sum s = -log w of n terms >= 1 is regrouped, within 4 n eps s;
        # the roundings of exp and log add less than eps s, since s >= n
        tiny = np.finfo(float).tiny
        normal = np.minimum(got, want) >= tiny
        s = -np.log(want[normal])
        assert np.all(np.abs(np.log(got[normal]) + s) <= 4 * n * EPS * s)
        assert np.all(np.abs(got - want)[~normal] <= tiny)


@pytest.mark.parametrize("C, row", [
    (cl.taxicab_form(), None), (cl.taxicab_form(), IRR_ROW),
    (cl.CubicForm.from_terms(6, [(i, i, i, 1 if i <= 3 else -1) for i in range(1, 7)]),
     IRR_ROW + [math.sqrt(7), math.sqrt(11)])])
def test_tent_table_rows_match_row_formula(C, row):
    from cubiclab.singular_integral import _tent_table

    Ls = cl.LinearSystem.for_form(C, None if row is None else cl.LinearSystem.from_rows([row]))
    samples, seed, schedule = 1 << 12, 3, [1.0, 4.0, 16.0]
    X = _all_sobol_points(C.n, samples, seed)
    f = _components_at_rows(C, Ls, X)
    _assert_rows_match(_tent_table(C, Ls, schedule, samples, seed), X, f, schedule)


def _all_sobol_points(n, samples, seed):
    """Every point of ``_sobol_blocks`` as one C-ordered (N, n) array, row i
    the point i (the concatenation alone would be F-ordered, and a matmul on
    it rounds differently)."""
    blocks = [X.T for X in _grid._sobol_blocks(n, samples, seed)]
    return np.ascontiguousarray(np.concatenate(blocks))


def _components_at_rows(C, Ls, X):
    """(N, r+1) matrix of (C(x), L_1(x), ..., L_r(x)) at the rows x of X,
    L by one matmul over all of them."""
    return np.stack([cubic_values(C, X.T), *(X @ Ls.matrix().T).T], axis=1)


def _assert_rows_match(table, X, f, schedule):
    """Each row of a tent table is the row formula over all the points X,
    with (C, L) = f at them, bit for bit."""
    from cubiclab.singular_integral import BATCHES, batch_stderr

    for got, L in zip(table, schedule, strict=True):
        vals = _weight_w_rows(X) * _Psi_L_rows(f, L) * 2.0**X.shape[1]
        batches = vals.reshape(BATCHES, -1).mean(axis=1)
        assert got.value == float(batches.mean())
        assert got.std_error == batch_stderr(batches)

# nonzero row entries, so that L(x) = 0 only where the point makes it so
ROW_ENTRY = st.sampled_from([(1 + math.sqrt(5)) / 2, math.sqrt(2), -math.sqrt(3), 0.5, -2.0])


@st.composite
def _tent_forms(draw):
    """A nonzero form with n <= 5, diagonal or not."""
    n = draw(st.integers(1, 5))
    coeff = st.integers(-3, 3).filter(bool)
    if draw(st.booleans()):
        return cl.CubicForm.diagonal(draw(st.lists(coeff, min_size=n, max_size=n)))
    index = st.integers(1, n)
    terms = draw(st.lists(st.tuples(index, index, index, coeff), min_size=1, max_size=5))
    C = cl.CubicForm.from_terms(n, terms)
    assume(not C.is_zero)
    return C


@settings(max_examples=40)
@given(C=_tent_forms(), data=st.data(), share=st.sampled_from(["all", "typical", "none"]))
def test_tent_table_weighs_only_the_widest_tents_support(C, data, share):
    # w and the tents on the support S of the widest tent only, every row
    # still bit-identical to the row formula over all N points
    from cubiclab import singular_integral
    from cubiclab.singular_integral import _tent_table

    row = data.draw(st.none() | st.lists(ROW_ENTRY, min_size=C.n, max_size=C.n))
    Ls = cl.LinearSystem.for_form(C, None if row is None else cl.LinearSystem.from_rows([row]))
    reach = max(sum(map(abs, C.coeffs.values())), sum(map(abs, row or [0.0])))
    L0 = {"all": 0.5 / reach, "typical": data.draw(st.sampled_from([1.0, 4.0, 16.0])),
          "none": 1e300}[share]
    schedule = [L0 * m for m in data.draw(st.sampled_from([[1], [1, 2, 4], [1, 3, 1e3]]))]
    samples, seed = 1 << 10, data.draw(st.integers(0, 50))
    X = _all_sobol_points(C.n, samples, seed)
    f = _components_at_rows(C, Ls, X)
    inside = np.all(1.0 - L0 * np.abs(f) > 0, axis=1)
    if share == "all":
        assert inside.all()
    if share == "none":
        assert inside.sum() <= samples // 100
    seen = []

    def weight_spy(x):
        seen.append(len(x))
        return weight_w(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(singular_integral, "weight_w", weight_spy)
        table = _tent_table(C, Ls, schedule, samples, seed)
    assert seen == [inside.sum()]
    _assert_rows_match(table, X, f, schedule)


@settings(max_examples=30, deadline=None)
@given(C=_tent_forms(), data=st.data())
def test_tent_table_does_not_depend_on_the_block_size(C, data):
    # blocks of 2^10 points, of 2^15 and one block of all N points (the
    # evaluation over every point at once) give the same bits; with a row
    # (r = 1) the per-block matmul must round as the one over all points
    from cubiclab.singular_integral import _tent_table

    row = data.draw(st.none() | st.lists(ROW_ENTRY, min_size=C.n, max_size=C.n))
    Ls = cl.LinearSystem.for_form(C, None if row is None else cl.LinearSystem.from_rows([row]))
    samples = 2 ** data.draw(st.sampled_from([10, 12, 17]))
    seed = data.draw(st.integers(0, 2**31 - 1))
    schedule = data.draw(st.sampled_from([[1.0, 4.0, 16.0], [0.25, 2.0, 8.0, 64.0]]))
    tables = []
    for block in (2**10, 2**15, samples):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_grid, "BLOCK", block)
            tables.append(_tent_table(C, Ls, schedule, samples, seed))
    assert tables[0] == tables[1] == tables[2]
    if samples <= 2**12:
        X = _all_sobol_points(C.n, samples, seed)
        _assert_rows_match(tables[0], X, _components_at_rows(C, Ls, X), schedule)


@pytest.mark.parametrize("row", [None, [1.7706312815307244, 1.0904995136125413, 2.0,
                                        1.1854979567276382]])
def test_tent_table_holds_no_array_per_point(row):
    # the benchmark's tent (taxicab, 2^19 points) and its irrational row:
    # over all the points at once the table traced 32.7 MiB
    from cubiclab.singular_integral import _tent_table

    Ls = None if row is None else cl.LinearSystem.from_rows([row])
    tracemalloc.start()
    try:
        _tent_table(cl.taxicab_form(), Ls, [4.0, 8.0, 16.0, 32.0], 1 << 19, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("row", [None, [1.7706312815307244, 1.0904995136125413, 2.0,
                                        1.1854979567276382]])
def test_intbox_holds_no_array_per_point(row):
    # the same points and row as the tent: over all the points at once
    # intbox_check traced 28.0 MiB (r = 0) and 36.0 MiB (the row)
    Ls = None if row is None else cl.LinearSystem.from_rows([row])
    tracemalloc.start()
    try:
        intbox_check(cl.taxicab_form(), Ls, 8.0, 1 << 19, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# The sup-norm band search of solve_system, and per-axis weights in sum_g


def _solve_full_box(C, decomp, Lsys, tau, eta, Y):
    """The full-box scan the band search replaces: every kernel coordinate
    with |y| <= Y at once, the hits ranked by (sup-norm, lex) and re-checked
    in that order."""
    basis = integer_kernel([a for a, _ in decomp.pairs])
    d = len(basis)
    ys = box_points(np.arange(-Y, Y + 1, dtype=np.int64), d)
    hits = ys[constraint_mask(reduce_linear_system(Lsys, basis), ys, tau, eta)]
    norms = np.abs(hits).max(axis=1)
    order = np.lexsort(tuple(hits[:, j] for j in reversed(range(d))) + (norms,))
    for y in hits[order]:
        x = tuple(int(sum(int(y[j]) * basis.vectors[j][v] for j in range(d)))
                  for v in range(basis.n))
        assert cl.eval_cubic(C, x) == 0
        if constraint_mask(Lsys, np.array([x]), tau, eta)[0]:
            return x
    return None


@st.composite
def kernel_searches(draw):
    """sum_i A_i B_i for h < n pairs, so the common kernel of the A_i has
    dimension d = 1, 2 or 3, with r <= 2 real or rational rows.  Each tau_i
    sits at L_i(x0) +- eta for a kernel point x0 of norm up to Y + 1 (on the
    boundary for a rational row, at or near it for a real one), or far from
    it, so that some searches have no hit; Y runs over the band edges."""
    n = draw(st.integers(2, 4))
    small = st.sampled_from([0, 0, 1, -1, 2, -2, 3])
    pairs = []
    for _ in range(draw(st.integers(1, n - 1))):
        A = [draw(small) for _ in range(n)]
        assume(any(A))
        B = [(u, v, draw(small)) for u in range(1, n + 1) for v in range(u, n + 1)]
        pairs.append((cl.LinearForm.rational(A), cl.QuadraticForm.from_terms(n, B)))
    decomp = cl.HDecomposition(tuple(pairs))
    C = cl.CubicForm(n, {k: int(c) for k, c in forms_core.expand_decomposition(decomp).items()})
    basis = integer_kernel([a for a, _ in pairs])
    d = len(basis)
    Y = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15] + [28, 29] * (d < 3)))
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            rows.append([Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
                         for _ in range(n)])
        else:
            rows.append([draw(st.floats(-3, 3)) for _ in range(n)])
    try:
        Lsys = cl.LinearSystem.from_rows(rows)
    except ValueError:
        assume(False)
    eta = draw(st.sampled_from([1e-6, 1e-3, 0.125, 0.5]) | st.floats(1e-6, 0.5))
    y0 = [draw(st.integers(-Y - 1, Y + 1)) for _ in range(d)]
    x0 = [sum(yj * z[v] for yj, z in zip(y0, basis.vectors)) for v in range(n)]
    tau = []
    for row in rows:
        L = sum(Fraction(c) * v for c, v in zip(row, x0))
        shift = draw(st.sampled_from([1, -1, 0.5, -0.5, 0, 1000]))
        tau.append(float(L + Fraction(shift) * Fraction(eta)))
    return C, decomp, Lsys, tau, eta, Y


@settings(max_examples=300)
@given(case=kernel_searches())
def test_band_search_matches_full_box_scan(case):
    assert solve_system(*case) == _solve_full_box(*case)


def _sum_g_per_point(C, P, alpha0, lam, weighted=True):
    """The g sum over the full box, with w(x/P) from ``weight_w`` at every
    point when weighted."""
    B = math.ceil(P) - 1
    total = 0j
    for coords in slabs(np.arange(-B, B + 1, dtype=np.int64), C.n):
        fcoords = [x.astype(float) for x in coords]
        phase = alpha0 * cubic_values(C, fcoords)
        for d in range(C.n):
            phase = phase + lam[d] * fcoords[d]
        pts = np.stack([np.broadcast_to(x, phase.shape).ravel() for x in fcoords], axis=1) / P
        terms = cis(phase).ravel()
        total += complex(np.sum(terms * weight_w(pts) if weighted else terms))
    return total


@settings(max_examples=40)
@given(C=forms(max_n=4), P=st.floats(1, 7), alpha0=st.floats(-1, 1), data=st.data())
def test_sum_g_axis_weights_match_per_point_weights(C, P, alpha0, data):
    # one rounding of exp(-sum) against a product of n rounded factors:
    # each term moves by a few eps, so the sum by at most 64 eps per point
    lam = data.draw(st.lists(st.floats(-1, 1), min_size=C.n, max_size=C.n))
    N = (2 * math.ceil(P) - 1) ** C.n
    got = cl.sum_g(C, P, alpha0, lam, weighted=True).value
    assert abs(got - _sum_g_per_point(C, P, alpha0, lam)) <= 64 * EPS * N


# ---------------------------------------------------------------------------
# g as a product over split blocks, and equidist in one pass over nested boxes


@st.composite
def split_forms(draw, big=False):
    """A form whose variables fall into 2 to 4 blocks of 1 or 2 variables,
    shuffled over the positions (so blocks interleave), with random
    monomials inside each block; a block may have none (an unused
    variable).  All blocks of size 1 give a diagonal form.  With big=True
    the coefficients may be scaled by 3 10^14, so that the values of a side
    table reach 2^62 / N or pass 2^62."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=2, max_size=4))
    assume(sum(sizes) <= 5)
    n = sum(sizes)
    perm = draw(st.permutations(range(1, n + 1)))
    scale = draw(st.sampled_from([1, 3 * 10**14])) if big else 1
    terms, start = [], 0
    for size in sizes:
        block = sorted(perm[start:start + size])
        start += size
        for i, j, k in product(block, repeat=3):
            if i <= j <= k:
                terms.append((i, j, k, scale * draw(COEFF)))
    C = cl.CubicForm.from_terms(n, terms)
    assert additive_split(C) is not None
    return C


# three components: x1, the block {x2, x3}, and the unused x4
THREE_COMPONENTS = cl.CubicForm.from_terms(4, [(1, 1, 1, 1), (2, 3, 3, 1), (2, 2, 2, 3)])


@st.composite
def mirrored_forms(draw):
    """F(y) + s F(z), s = +-1, for a random cubic F in m <= 3 variables,
    chained so that it is connected, and increasing variable tuples y and z
    that interleave over 1..2m: ``additive_split`` returns the sides y and
    z, whose subforms are F and s F.  The coefficients may be scaled by
    3 10^14, as in ``split_forms(big=True)``."""
    m = draw(st.integers(1, 3))
    y = sorted(draw(st.permutations(range(1, 2 * m + 1)))[:m])
    z = [v for v in range(1, 2 * m + 1) if v not in y]
    scale = draw(st.sampled_from([1, 3 * 10**14]))
    F = {mono: draw(COEFF) for mono in product(range(1, m + 1), repeat=3)
         if mono[0] <= mono[1] <= mono[2]}
    F.update({(i, i, i + 1): draw(COEFF.filter(bool)) for i in range(1, m)})
    s = draw(st.sampled_from([1, -1]))
    C = cl.CubicForm.from_terms(2 * m, [(y[i - 1], y[j - 1], y[k - 1], scale * c)
                                        for (i, j, k), c in F.items()]
                                + [(z[i - 1], z[j - 1], z[k - 1], s * scale * c)
                                   for (i, j, k), c in F.items()])
    assert _sides_agree(C)
    return C


def _sides_agree(C):
    """Whether the two sides of C's split have as many variables and
    subforms equal up to sign."""
    vars_a, vars_b = additive_split(C)
    C_a, C_b = _subform(C, vars_a), _subform(C, vars_b)
    return C_a.n == C_b.n and C_b.coeffs in (C_a.coeffs, {m: -c for m, c in C_a.coeffs.items()})


# x1^3 + ... + x4^3 = x5^3 + ... + x8^3, the eighth moment of Vaughan's
# count of sums of four cubes; its sides x1, x3, x5, x7 and x2, x4, x6, x8
# agree with sign +
EIGHTH_MOMENT = cl.CubicForm.diagonal([1, 1, 1, 1, -1, -1, -1, -1])
# f(x1, x2) + f(x4, x5) with x3 unused: the sides (x1, x2, x3) and (x4, x5)
# have equal coefficients, but not as many variables
UNUSED_MIDDLE = cl.CubicForm.from_terms(5, [(1, 1, 2, 1), (2, 2, 2, -2), (4, 4, 5, 1),
                                           (5, 5, 5, -2)])


def _join_by_argsort(C, B):
    """(order, lo, run) of the meet-in-the-middle join by a stable argsort
    of the a-side values and one search of the b-side needles in box order."""
    vars_a, vars_b = additive_split(C)
    axis = np.arange(-B, B + 1, dtype=exact_dtype(C.max_abs_value(B)))
    vals_a = _value_table(_subform(C, vars_a), axis)
    vals_b = _value_table(_subform(C, vars_b), axis)
    order = np.argsort(vals_a, kind="stable")
    first, run = _runs(vals_a[order])
    uniq = vals_a[order][first]
    k = np.minimum(np.searchsorted(uniq, -vals_b), len(uniq) - 1)
    return order, first[k], np.where(uniq[k] == -vals_b, run[k], 0)


@settings(max_examples=60)
@given(C=split_forms(big=True) | mirrored_forms(), B=st.integers(0, 6))
@example(C=THREE_COMPONENTS, B=0)
@example(C=THREE_COMPONENTS, B=1)
@example(C=cl.CubicForm.diagonal([3 * 10**14, -(10**15), 1, 0]), B=6)
@example(C=cl.taxicab_form(), B=0)
@example(C=cl.taxicab_form(), B=6)
@example(C=cl.CubicForm.diagonal([1, -1]), B=6)
@example(C=EIGHTH_MOMENT, B=1)
@example(C=EIGHTH_MOMENT, B=2)
@example(C=UNUSED_MIDDLE, B=3)
def test_join_matches_argsort_and_searchsorted(C, B):
    # sides that agree up to sign take the self-join, with one table for
    # both; every other split keeps the two-table join.  order, lo and run
    # are int32, and the side tables in the coordinates' smallest dtype
    join = _Join(C, B, additive_split(C))
    assert (join.pts_b is join.pts_a) == _sides_agree(C)
    for got, want in zip((join.order, join.lo, join.run), _join_by_argsort(C, B)):
        assert got.dtype == np.int32 and np.array_equal(got, want)
    assert join.pts_a.dtype == join.pts_b.dtype == _coord_dtype(B)
    assert join.total == len(zero_points(C, B, "direct")[0])
    assert join.examined == sum((2 * B + 1) ** len(side) for side in additive_split(C))


def test_self_join_builds_one_value_table():
    # the taxicab sides x1^3 - x3^3 and x2^3 - x4^3 agree, and x1^3 - x3^3
    # and x2^3 - 2 x4^3 do not
    for C, tables in ((cl.taxicab_form(), 1), (cl.CubicForm.diagonal([1, 1, -1, -2]), 2)):
        with mock.patch.object(lattice_enum, "_value_table",
                               wraps=lattice_enum._value_table) as spy:
            _Join(C, 4, additive_split(C))
        assert spy.call_count == tables


def _full_pair_oracle(join):
    """The readers of a join over one array with an entry per pair: a
    per-a-point table read at every pair as table[order][positions], and a
    per-b-point one as repeat(table, run); ``b_index`` is each pair's
    b-point."""
    starts = np.cumsum(join.run) - join.run
    positions = np.repeat(join.lo - starts, join.run) + np.arange(join.total)
    b_index = np.repeat(np.arange(len(join.run)), join.run)

    def column(v, f=lambda x: x):
        if v in join.vars_a:
            return f(join.pts_a[:, join.vars_a.index(v)])[join.order][positions]
        return np.repeat(f(join.pts_b[:, join.vars_b.index(v)]), join.run)

    return positions, b_index, column


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# x1^3 in four variables splits as (x1, x3) / (x2, x4): each of the (2B+1)^2
# b-points matches the 2B+1 a-points with x1 = 0, a run longer than a block
# of 1, 2 or 7 pairs
X1_CUBED = cl.CubicForm.from_terms(4, [(1, 1, 1, 1)])


@settings(max_examples=60, deadline=None)
@given(C=split_forms() | mirrored_forms().filter(lambda C: C.n <= 5), B=st.integers(0, 4),
       r=st.integers(0, 2), chunk=st.sampled_from([1, 2, 7, 2**15]), data=st.data())
@example(C=X1_CUBED, B=10, r=1, chunk=7, data=None)
@example(C=X1_CUBED, B=3, r=2, chunk=2**15, data=None)
@example(C=cl.taxicab_form(), B=4, r=1, chunk=2, data=None)
@example(C=cl.CubicForm.diagonal([1, -1]), B=0, r=0, chunk=1, data=None)
@example(C=cl.CubicForm.diagonal([1, 2, 4]), B=3, r=2, chunk=7, data=None)
# the side tables' dtype changes at B = 128 (int8 to int16) and B = 32768
# (int16 to int32): a two-variable side at both sides of the first, and
# one-variable sides past the second, as a self-join of either sign and as
# a two-table join (x1 = 2 x2)
@example(C=cl.taxicab_form(), B=127, r=2, chunk=2**15, data=None)
@example(C=cl.taxicab_form(), B=128, r=1, chunk=2**15, data=None)
@example(C=cl.CubicForm.diagonal([1, -1]), B=32767, r=1, chunk=2**15, data=None)
@example(C=cl.CubicForm.diagonal([1, 1]), B=32768, r=2, chunk=2**15, data=None)
@example(C=cl.CubicForm.diagonal([1, -8]), B=32768, r=1, chunk=2**15, data=None)
def test_block_walk_matches_full_pair_oracle(C, B, r, chunk, data):
    # self-joins with C_B = +-C_A, two-table joins, b-points without a match
    # and runs longer than a block: every reader's output is the oracle's,
    # bit for bit and in the same order.  The side tables are in the
    # coordinates' smallest dtype, and each block's indices in intp
    if data is None:
        rows = [[math.sqrt(2), -0.5, 1.0, math.sqrt(3)], [0.25, 0.0, -math.sqrt(5), 1.5]]
        rows, tau, eta = [row[:C.n] for row in rows[:r]], [0.3, -0.7][:r], 0.6
    else:
        assume(r <= C.n)
        rows = [data.draw(st.lists(st.floats(-3, 3), min_size=C.n, max_size=C.n)) for _ in range(r)]
        tau = data.draw(st.lists(st.floats(-4, 4), min_size=r, max_size=r))
        eta = data.draw(st.floats(0.01, 3))
    try:
        Lsys = cl.LinearSystem.from_rows(rows, n=C.n)
    except ValueError:
        assume(False)
    with mock.patch.object(_grid, "BLOCK", chunk):
        join = _Join(C, B, additive_split(C))
        assert join.pts_a.dtype == join.pts_b.dtype == _coord_dtype(B)
        positions, b_index, column = _full_pair_oracle(join)
        want_rows = np.stack([column(v) for v in range(1, C.n + 1)], axis=1).astype(np.int64)
        blocks = list(join.blocks())
        # the blocks cover the pairs in order, each of whole b-points, and
        # give each pair's a-point and b-point; their rows are the oracle's
        assert [p0 for p0, *_ in blocks] == [0] + [p1 for _, p1, *_ in blocks[:-1]]
        assert sum(p1 - p0 for p0, p1, *_ in blocks) == join.total
        for p0, p1, a, b in blocks:
            assert p1 - p0 > 0 and (p0 == 0 or b_index[p0 - 1] < b_index[p0])
            assert p1 - p0 <= chunk or b[0] == b[-1]
            assert a.dtype == b.dtype == np.intp
            assert np.array_equal(a, join.order[positions[p0:p1]])
            assert np.array_equal(b, b_index[p0:p1])
            got = join.gather(a, b, np.empty((p1 - p0, C.n), dtype=np.int64))
            assert _same_bytes(got, want_rows[p0:p1])
        assert _same_bytes(join.rows(), want_rows)

        want_keep = np.ones(join.total, dtype=bool)
        for row, t in zip(Lsys.rows, tau):
            row, t = [float(v) for v in row], float(t)
            T = abs(t) + eta + B * sum(map(abs, row))
            if not T < 2.0 ** 1000:
                continue
            delta = (C.n + 3) * 2.0 ** -50 * T + C.n * (B + 2) * 2.0 ** -1074
            s = k_order_sum(column(v, lambda x: row[v - 1] * x.astype(float))
                            for v in range(1, C.n + 1) if v in join.vars_a)
            s_b = k_order_sum(column(v, lambda x: row[v - 1] * x.astype(float))
                              for v in range(1, C.n + 1) if v in join.vars_b)
            want_keep &= np.abs(s + (s_b - t)) < eta + delta
        # the screened pairs' rows in pair order, and every pair's unscreened
        assert _same_bytes(join.window(Lsys, tau, eta), want_rows[want_keep])

        bounds = sorted({0, B // 2, B})
        shell, vals = zero_shells_and_values(C, bounds, Lsys)
        by_shell, Ns = zero_values_by_shell(C, bounds, Lsys)
    sup = np.abs(want_rows).max(axis=1)
    want_shell = np.searchsorted(bounds, sup).astype(shell.dtype)
    assert _same_bytes(shell, want_shell)
    want_vals = np.empty((join.total, r))
    for i, row in enumerate(Lsys.rows):
        want_vals[:, i] = k_order_sum(column(v, lambda x: float(row[v - 1]) * x)
                                      for v in range(1, C.n + 1))
    assert _same_bytes(vals, want_vals)
    # the pair order lists -x in reverse, and the reader writes the floats
    # of its first half grouped stably by shell, each shell's mirrors after
    assert np.array_equal(want_rows[::-1], -want_rows)
    assert Ns == np.cumsum(np.bincount(want_shell, minlength=len(bounds))).tolist()
    _assert_folded(by_shell, want_shell, want_vals, len(bounds))


def _reduced(vals):
    """vals mod 1 as ``_nested_zeros`` reduces them: ``_mod1``, then 1.0 to 0.0."""
    out = _mod1(vals)
    out[out == 1.0] = 0.0
    return out


def _assert_folded(got, shell, vals, shells):
    """``got`` is the folded layout of the zeros' own values (``fold_by_shell``):
    equal, with each mirror's negated value against its own up to the sign
    of a zero, and bit for bit once reduced mod 1."""
    want = fold_by_shell(shell, vals, shells)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert _reduced(got).tobytes() == _reduced(want).tobytes()


@pytest.mark.parametrize("C, B, bounds", [
    (cl.taxicab_form(), 12, [3, 7, 12]),
    (cl.taxicab_form(), 12, list(range(13))),
    (X1_CUBED, 6, [0, 2, 4, 6]),
    (cl.CubicForm.diagonal([1, 2, -1, -3]), 10, [1, 5, 10]),
])
def test_shell_counts_from_runs_or_from_the_pairs(C, B, bounds):
    # few shells over many pairs are counted by passes over the side
    # tables, many shells or few pairs by one walk of the pairs: both give
    # the pair-order oracle's counts
    join = _Join(C, B, additive_split(C))
    shell_a, shell_b = (lattice_enum._shells(pts, bounds) for pts in (join.pts_a, join.pts_b))
    shell, _ = zero_shells_and_values(C, bounds, cl.LinearSystem.empty(C.n))
    want = np.cumsum(np.bincount(shell, minlength=len(bounds))).tolist()
    assert join.shell_counts(shell_a, shell_b, len(bounds)) == want


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["count", "equidist"])
def test_join_readers_hold_no_pair_sized_array(irr_linsys, command):
    # the benchmark's split sizes: 493,639 pairs at B = 199 for the weighted
    # count at P = 200, 498,577 at B = 200 for equidist.  Walked in blocks,
    # count_grid peaks near 8 side tables of 8 (2B+1)^2 bytes and
    # equidist_experiment, whose shells and values are pair-sized outputs,
    # near 10.2; arrays with an entry per pair took both to about 20
    C = cl.taxicab_form()
    if command == "count":
        B = 199
        q = cl.CountQuery(C=C, Lsys=irr_linsys, tau=(0.3,), eta=0.05, P=200, weighted=True)
        peak = _traced_peak(lambda: count_grid(q, [50, 100, 200]))
    else:
        B = 200
        peak = _traced_peak(lambda: cl.equidist_experiment(C, irr_linsys, [50, 100, 200],
                                                           [[1], [2]], 500, 7))
    assert peak < 12 * 8 * (2 * B + 1) ** 2


def test_taxicab_join_keeps_16_bytes_a_side_point():
    # at B = 200 each side of x1^3 - x3^3 = -(x2^3 - x4^3) has 401^2 points.
    # The self-join keeps one int16 table of two coordinates and the int32
    # order, lo and run: 16 bytes a point (besides the arrays' headers),
    # and its construction peaks within twice that.  int64 tables took 40
    # and 60
    C, B = cl.taxicab_form(), 200
    side = (2 * B + 1) ** 2
    tracemalloc.start()
    try:
        join = _Join(C, B, additive_split(C))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = (join.pts_a, join.order, join.lo, join.run)
    assert join.pts_b is join.pts_a and sum(x.nbytes for x in arrays) == 16 * side
    assert kept <= 16 * side + 2**12 and peak <= 32 * side


@pytest.mark.parametrize("r", [1, 2])
def test_equidist_walk_holds_one_float_array(irr_linsys, r):
    # the taxicab form has 498,577 zeros in |x| <= 200.  Beyond the join
    # (16 bytes a side point) and the side's shells (1 byte), the walk
    # holds the zeros' (N, r) floats, the blocks' cuts (4 bytes a side
    # point) and a few blocks' arrays: no zero's shell, and no second (N, r)
    # array to group them by shell or to reduce them mod 1.  At r = 1 the
    # discrepancy sorts the floats in place, so all of equidist_experiment
    # stays within the same bound
    C, B = cl.taxicab_form(), 200
    side = (2 * B + 1) ** 2
    rows = [list(irr_linsys.rows[0]), [1.0, 0.3, math.sqrt(5), -0.25]][:r]
    Lsys = cl.LinearSystem.from_rows(rows)
    out = []
    peak = _traced_peak(lambda: out.append(_nested_zeros(C, Lsys, [50, 100, 200])))
    frac, _, Ns = out.pop()
    assert frac.shape == (Ns[-1], r) == (498_577, r)
    bound = frac.nbytes + (16 + 1 + 4) * side + 16 * 8 * _grid.BLOCK
    assert peak <= bound
    if r == 1:
        assert _traced_peak(lambda: cl.equidist_experiment(C, Lsys, [50, 100, 200],
                                                           [[1], [2]], 500, 7)) <= bound


@pytest.mark.parametrize("r", [2, 3])
def test_sort_rows_reorders_a_column_at_a_time(r):
    # the rows in the order of one argsort of the first column, bit for
    # bit as a fancy index of the whole array gives them, holding the order
    # and one column beyond the array; the fancy index held the order and
    # a copy of the array
    pts = np.random.default_rng(3).uniform(size=(50_000, r))
    want = pts[np.argsort(pts[:, 0])]
    tracemalloc.start()
    try:
        first, rest = cl.equidist._sort_rows(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.flags.c_contiguous and rest.base is pts
    assert first.tobytes() == want[:, 0].tobytes() and pts.tobytes() == want.tobytes()
    assert peak <= 2 * 8 * len(pts) + 2**13 < pts.nbytes + 8 * len(pts)


@settings(max_examples=60)
@given(vals=st.lists(st.integers(-3, 3) | st.integers(-(2**62) + 1, 2**62 - 1), max_size=40),
       python_ints=st.booleans())
@example(vals=[2**61, -(2**61), 2**61, 0], python_ints=False)     # keys past 2^62
@example(vals=[7, -7, 7, 0, -7], python_ints=False)               # composite keys
def test_stable_order_matches_stable_argsort(vals, python_ints):
    # an int64 array is sorted in place, so it gets a copy
    arr = np.array(vals, dtype=object if python_ints else np.int64)
    order, sorted_vals = _stable_order(arr.copy())
    want = np.argsort(arr, kind="stable")
    assert order.dtype == np.int32
    assert np.array_equal(order, want) and np.array_equal(sorted_vals, arr[want])


@settings(max_examples=60)
@given(C=split_forms(), P=st.floats(1, 6), alpha0=st.floats(-1, 1), weighted=st.booleans(),
       data=st.data())
@example(C=THREE_COMPONENTS, P=4.5, alpha0=0.37, weighted=True, data=None)
@example(C=THREE_COMPONENTS, P=5.0, alpha0=-0.81, weighted=False, data=None)
@example(C=cl.taxicab_form(), P=6.0, alpha0=0.5, weighted=True, data=None)
def test_sum_g_split_product_matches_full_box(C, P, alpha0, weighted, data):
    lam = (data.draw(st.lists(st.floats(-1, 1), min_size=C.n, max_size=C.n)) if data
           else [0.3, -0.45, 0.1, 0.7][:C.n])
    _assert_g_matches_full_box(C, P, alpha0, lam, weighted)


def _assert_g_matches_full_box(C, P, alpha0, lam, weighted):
    """sum_g is exactly real, and within its abs_error plus the full box's
    own rounding of ``_sum_g_per_point``."""
    g = cl.sum_g(C, P, alpha0, lam, weighted=weighted)
    assert g.im == 0.0 and math.copysign(1.0, g.im) == 1.0
    # the full box rounds its own way: its phases reach max_phase, and each
    # of its N terms carries a few eps in the weight and 2 pi eps max_phase
    # in the phase
    B = math.ceil(P) - 1
    N = (2 * B + 1) ** C.n
    max_phase = abs(alpha0) * sum(abs(c) for c in C.coeffs.values()) * B**3 \
        + sum(abs(v) for v in lam) * B
    box_err = N * EPS * (64 + 2 * math.pi * max_phase)
    assert abs(g.value - _sum_g_per_point(C, P, alpha0, lam, weighted)) <= g.abs_error + box_err


@settings(max_examples=40)
@given(C=forms(max_n=4), P=st.floats(1, 6), alpha0=st.floats(-1, 1), weighted=st.booleans(),
       data=st.data())
@example(C=cl.CubicForm.from_terms(3, [(1, 1, 2, 1), (1, 2, 3, -2), (3, 3, 3, 1)]), P=5.5,
         alpha0=-0.37, weighted=True, data=None)
@example(C=cl.CubicForm.diagonal([2]), P=1.0, alpha0=0.3, weighted=False, data=None)
@example(C=cl.taxicab_form(), P=6.0, alpha0=-2.8145e-05, weighted=True, data=None)
def test_sum_g_half_box_matches_full_box(C, P, alpha0, weighted, data):
    # forms with and without a split; the taxicab example has two negative
    # axis factors, and their product stays at im +0.0
    lam = (data.draw(st.lists(st.floats(-1, 1), min_size=C.n, max_size=C.n)) if data
           else [0.918234, 0.829853, 0.9678, 0.358049][:C.n])
    _assert_g_matches_full_box(C, P, alpha0, lam, weighted)


def _g_box_monomial_sum(C, B, P, alpha0, lam, weighted):
    """(g, abs_error) of ``_g_box`` with C summed in float over its
    monomials on every slab (``cubic_values``): the evaluation the Horner
    step in x1 replaced."""
    axis = np.arange(-B, B + 1, dtype=np.int64)
    fold = np.where(axis[B:] > 0, 2.0, 1.0)
    wrest = 1.0
    if weighted:
        wax = w1(axis / P)
        fold = fold * wax[B:]
        wrest = np.ones(())
        for _ in range(C.n - 1):
            wrest = np.multiply.outer(wrest, wax)
    if C.n == 1:
        parts = [([axis[B:]], fold)]
    else:
        parts = ((coords, f * wrest) for coords, f in zip(list(slabs(axis, C.n))[B:], fold))
    total = 0.0
    max_phase = 0.0
    for coords, factor in parts:
        fcoords = [x.astype(float) for x in coords]
        phase = alpha0 * cubic_values(C, fcoords)
        for d in range(C.n):
            phase = phase + lam[d] * fcoords[d]
        max_phase = max(max_phase, float(np.abs(phase).max(initial=0.0)))
        total += float(np.sum(cos_e(phase) * factor))
    return total, len(axis) ** C.n * EPS * (4 + 2 * math.pi * max_phase)


@settings(max_examples=80)
@given(C=forms(max_n=4) | big_forms(max_n=3, coeff=st.integers(-10**6, 10**6).filter(bool)),
       B=st.integers(0, 5), alpha0=st.floats(-1, 1), weighted=st.booleans(), data=st.data())
@example(C=cl.CubicForm.from_terms(3, [(1, 1, 2, 1), (1, 2, 3, -2), (3, 3, 3, 1)]), B=5,
         alpha0=-0.37, weighted=True, data=None)
@example(C=cl.CubicForm(1, {}), B=2, alpha0=0.5, weighted=False, data=None)
def test_g_box_horner_is_the_monomial_sum_bit_for_bit(C, B, alpha0, weighted, data):
    # every float partial sum of the monomials is exact below 2^53, so C(x)
    # is the same float either way, and so is every phase and term
    assert 3 * C.max_abs_value(max(B, 1)) < 2**53
    lam = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=C.n, max_size=C.n)) if data
                   else [0.3, -0.45, 0.1][:C.n])
    P = B + 0.75
    got = exp_sums._g_box(C, B, P, alpha0, lam, weighted)
    assert got == _g_box_monomial_sum(C, B, P, alpha0, lam, weighted)


@settings(max_examples=60)
@given(C=big_forms(max_n=3, coeff=st.integers(2**48, 2**50) | st.integers(-2**50, -2**48)),
       B=st.integers(3, 5), scale=st.sampled_from([1e-12, 1e-15, 1e-17]),
       weighted=st.booleans(), data=st.data())
def test_g_box_past_2_53_stays_within_abs_error(C, B, scale, weighted, data):
    # past 2^53 the float monomial sum rounds C(x) on the way; the Horner
    # step rounds it once, and the two sums stay within the old abs_error
    assert 3 * C.max_abs_value(B) >= 2**53
    lam = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=C.n, max_size=C.n)))
    alpha0 = data.draw(st.floats(0.5, 1)) * scale
    got, err = exp_sums._g_box(C, B, B + 0.5, alpha0, lam, weighted)
    want, want_err = _g_box_monomial_sum(C, B, B + 0.5, alpha0, lam, weighted)
    assert abs(got - want) <= want_err


def test_sum_g_budget_counts_block_points(taxicab, connected):
    # the taxicab sum at P = 100 covers 4 axes of 199 points, not 199^4
    g = cl.sum_g(taxicab, 100, 1e-4, [0.1, 0.2, 0.3, 0.4], weighted=True)
    assert g.abs_error < 1e-6
    with pytest.raises(ResourceLimit):
        cl.sum_g(connected, 100, 1e-4, [0.1, 0.2, 0.3, 0.4], weighted=True)


def _equidist_per_P(C, Lsys, P_grid, k_set, boxes, seed):
    """(N, discrepancy, Weyl sums) per P, each box enumerated on its own and
    each Weyl sum taken directly from L(x)."""
    rows = []
    for P in P_grid:
        pts, _ = zero_points(C, P)
        disc = discrepancy(linear_values_mod1(Lsys, pts), boxes, seed).value
        sums = [complex(np.sum(np.exp(2j * np.pi * (pts.astype(float)
                                                    @ (Lsys.matrix().T @ np.asarray(k, float))))))
                for k in k_set]
        rows.append((len(pts), disc, sums))
    return rows


TAXICAB, CONNECTED = cl.taxicab_form(), cl.CubicForm.from_terms(4, [
    (1, 1, 3, 1), (1, 2, 3, 1), (1, 2, 4, -1), (2, 2, 4, -1),
    (2, 3, 3, 1), (1, 3, 4, -1), (2, 3, 4, 1), (1, 4, 4, -1)])


@settings(max_examples=30)
@given(C=st.sampled_from([TAXICAB, CONNECTED]), r=st.integers(1, 2),
       grid=st.lists(st.sampled_from([0, 2, 3.5, 5, 6.9, 8, 10.2, 12]), min_size=1, max_size=4),
       seed=st.integers(0, 2**31), data=st.data())
@example(C=TAXICAB, r=2, grid=[12, 5, 7.5], seed=3, data=None)
@example(C=CONNECTED, r=1, grid=[9.5, 3, 6], seed=11, data=None)
def test_equidist_one_pass_matches_per_P(C, r, grid, seed, data):
    if data is None:
        rows = [[math.sqrt(2), math.sqrt(3), 0.5, 1.0], [1.0, 0.0, math.sqrt(5), -0.25]][:r]
        k_set = [[1, -1], [-2, 3]] if r == 2 else [[1], [-2]]
    else:
        rows = [data.draw(st.lists(st.floats(-3, 3), min_size=4, max_size=4)) for _ in range(r)]
        freq = st.lists(st.integers(-3, 3), min_size=r, max_size=r).filter(any)
        k_set = data.draw(st.lists(freq, min_size=1, max_size=3))
    try:
        Lsys = cl.LinearSystem.from_rows(rows)
    except ValueError:
        assume(False)
    # unsorted, with a duplicate and a non-integer entry
    _check_equidist_per_P(C, Lsys, grid + [grid[0], grid[-1] + 0.5], k_set, seed)


def _check_equidist_per_P(C, Lsys, grid, k_set, seed):
    """``equidist_experiment`` and ``weyl_sum`` against ``_equidist_per_P``:
    N and the discrepancy identical, the Weyl sums within 1e-9."""
    got = cl.equidist_experiment(C, Lsys, grid, k_set, 60, seed)
    expect = _equidist_per_P(C, Lsys, grid, k_set, 60, seed)
    assert [row.P for row in got] == [float(P) for P in grid]
    for row, (N, disc, sums) in zip(got, expect):
        assert row.N == N and row.discrepancy == disc
        assert [k for k, _ in row.weyl] == [tuple(k) for k in k_set]
        for (_, mag), s in zip(row.weyl, sums):
            assert math.isclose(mag, abs(s) / N, rel_tol=1e-9, abs_tol=1e-12)
    ws = cl.weyl_sum(C, Lsys, k_set[0], grid[0])
    assert ws.N == expect[0][0] and ws.sum.imag == 0.0
    assert cmath.isclose(ws.sum, expect[0][2][0], rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=25)
@given(C=split_forms(), r=st.integers(1, 2),
       grid=st.lists(st.sampled_from([0, 1, 2, 3.5, 4]), min_size=1, max_size=3),
       seed=st.integers(0, 2**31), data=st.data())
@example(C=THREE_COMPONENTS, r=2, grid=[4, 0, 1], seed=5, data=None)
@example(C=cl.taxicab_form(), r=2, grid=[1, 4, 2, 3.5], seed=9, data=None)
def test_equidist_on_split_forms_matches_per_P(C, r, grid, seed, data):
    # L and the shells are read from the join, bit for bit the floats of
    # the zero rows; N and the discrepancy are those of one enumeration per P
    if data is None:
        rows = [[math.sqrt(2), -1e-9, 0.5, 3.0], [1.0, 0.0, math.sqrt(5), -0.25]][:r]
        k_set = [[1, -1], [-2, 3]] if r == 2 else [[1], [-2]]
    else:
        rows = [data.draw(st.lists(st.floats(-3, 3), min_size=C.n, max_size=C.n))
                for _ in range(r)]
        freq = st.lists(st.integers(-3, 3), min_size=r, max_size=r).filter(any)
        k_set = data.draw(st.lists(freq, min_size=1, max_size=2))
    try:
        Lsys = cl.LinearSystem.from_rows(rows)
    except ValueError:
        assume(False)
    bounds = sorted({math.floor(P) for P in grid})
    vals, Ns = zero_values_by_shell(C, bounds, Lsys)
    pts, _ = zero_points(C, bounds[-1])
    shell = np.searchsorted(bounds, np.abs(pts).max(axis=1))
    assert Ns == np.cumsum(np.bincount(shell, minlength=len(bounds))).tolist()
    _assert_folded(vals, shell, linear_values(Lsys, pts), len(bounds))
    _check_equidist_per_P(C, Lsys, grid + [grid[0]], k_set, seed)


def test_equidist_reduces_into_the_unit_interval():
    # -1e-300 x1 is a tiny negative value for x1 > 0, and mod 1 it is 1.0;
    # the one reduction gives 0.0, which discrepancy gave after its own
    # second reduction, and whose cis is that of 1.0
    Lsys = cl.LinearSystem.from_rows([[-1e-300, 0.0, 0.0, 0.0]])
    pts, _ = zero_points(TAXICAB, 5)
    assert np.any(linear_values_mod1(Lsys, pts)[:, 0] == 1.0)
    frac, _, _ = _nested_zeros(TAXICAB, Lsys, [5])
    assert np.all((frac >= 0) & (frac < 1))
    assert np.array_equal(cis(np.array([0.0, 1.0]))[0], cis(np.array([0.0, 1.0]))[1])
    _check_equidist_per_P(TAXICAB, Lsys, [2, 5, 3], [[1], [-3]], 4)


# rows whose L is tiny at some zeros (1e-300 x1 where x2 = x3, and 1e-17 x3
# where x1 = x2: a tiny negative L reduces to 1.0, taken to 0.0) and exactly
# 0 at others (where also x1 = 0, or x3 = 0: the mirror's -L is -0.0, and
# its own row gives +0.0)
FOLD_ROWS = [[1e-300, 1.0, -1.0, 0.0], [1.0, -1.0, 1e-17, 0.0]]


@pytest.mark.parametrize("C", [TAXICAB, CONNECTED], ids=["join", "rows"])
@pytest.mark.parametrize("rows, grid", [
    (FOLD_ROWS[:1], [3, 5]),
    # r = 2, a P below 1 and a duplicate
    (FOLD_ROWS, [0.5, 4, 4, 2.5]),
    # B = 0: the origin is the only zero, and no zero is walked
    (FOLD_ROWS[1:], [0]),
    (FOLD_ROWS, [0.75, 0.25]),
])
def test_equidist_fold_matches_per_P(C, rows, grid):
    # one zero of each pair {x, -x} is walked: N and the discrepancy equal
    # one enumeration per P exactly and every Weyl sum is real; the values
    # are the zeros' own, the mirrors' bit for bit once reduced, also with
    # a negative bound, whose shell is empty, before the origin's
    Lsys = cl.LinearSystem.from_rows(rows)
    k_set = [[1] * len(rows), [-2] + [3] * (len(rows) - 1)]
    _check_equidist_per_P(C, Lsys, grid, k_set, 5)
    for P in grid:
        for k in k_set:
            assert cl.weyl_sum(C, Lsys, k, P).sum.imag == 0.0
    bounds = sorted({-1} | {math.floor(P) for P in grid})
    shell, vals = zero_shells_and_values(C, bounds, Lsys)
    got, Ns = zero_values_by_shell(C, bounds, Lsys)
    assert Ns[0] == 0 and Ns == np.cumsum(np.bincount(shell, minlength=len(bounds))).tolist()
    _assert_folded(got, shell, vals, len(bounds))
    if bounds[-1] > 0:
        # the first row reaches both on both forms: a 1.0 to remap, and a
        # mirror's -0.0 where its own row gives +0.0
        want = fold_by_shell(shell, vals, len(bounds))
        assert np.any(_mod1(want) == 1.0) and np.any(np.signbit(got) != np.signbit(want))
    with pytest.raises(EmptyZeroSet):
        cl.equidist_experiment(C, Lsys, grid + [-0.5], k_set, 10, 5)


@pytest.mark.parametrize("chunk", [1, 7, 50, 2**15])
def test_weyl_totals_in_blocks_match_one_sum(monkeypatch, chunk):
    # 301 rows in the layout of zero_values_by_shell, in shells ending at
    # 41, 41 (an empty shell), 101 and 301: 20, 0, 30 and 100 walked rows of
    # random L, the reduced -L of their mirrors after them, and the origin
    # last in shell 0.  With blocks of 7 the walked rows of shell 0 end
    # inside a block; k = (1, 0) and (0, -3) have a zero entry.  Each sum is
    # real, within 4 N eps (|each term| = 1) of 2 Re of one np.sum of the
    # walked rows' cis products plus 1, and within 16 N eps of one np.sum
    # over all its box's rows, whose mirrors' terms are conjugate up to
    # rounding.  In one block the first box's sum is the former's, bit for bit
    rng = np.random.default_rng(5)
    Ns, k_set = [41, 41, 101, 301], [(1, 0), (0, -3), (2, 5)]
    frac, walked = np.empty((Ns[-1], 2)), []
    for start, N in zip([0] + Ns[:-1], Ns):
        w = N // 2 - start // 2
        L = rng.uniform(-3, 3, size=(w, 2))
        frac[start:start + w], frac[start + w:start + 2 * w] = _reduced(L), _reduced(-L)
        frac[start + 2 * w:N] = 0.0
        walked.append(np.arange(start, start + w))
    monkeypatch.setattr(_grid, "BLOCK", chunk)
    got = cl.equidist._weyl_totals(frac, Ns, k_set)
    roots = cis(frac)
    eps = np.finfo(float).eps
    for k, totals in zip(k_set, got):
        terms = np.prod([cl.equidist._power(roots[:, i], m) for i, m in enumerate(k) if m],
                        axis=0)
        for j, (N, total) in enumerate(zip(Ns, totals)):
            half = 2 * float(np.sum(terms[np.concatenate(walked[:j + 1])].real)) + 1
            assert type(total) is float
            if chunk >= len(frac) and j == 0:
                assert total == half
            assert abs(total - half) <= 4 * N * eps
            assert abs(total - complex(np.sum(terms[:N]))) <= 16 * N * eps


def test_equidist_in_blocks_keeps_counts_and_discrepancy(monkeypatch, irr_linsys):
    # blocks of 7 zeros against one block: N and the discrepancy are exact,
    # and the Weyl sums move by rounding only
    grid, k_set = [4, 9, 6], [[1], [-2]]
    whole = cl.equidist_experiment(TAXICAB, irr_linsys, grid, k_set, 40, 2)
    monkeypatch.setattr(_grid, "BLOCK", 7)
    blocks = cl.equidist_experiment(TAXICAB, irr_linsys, grid, k_set, 40, 2)
    for got, want in zip(blocks, whole):
        assert (got.P, got.N, got.discrepancy) == (want.P, want.N, want.discrepancy)
        for (k, mag), (k_want, mag_want) in zip(got.weyl, want.weyl):
            assert k == k_want and abs(mag - mag_want) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("chunk", [1, 7, 2**15])
@pytest.mark.parametrize("C, rows, grid", [
    (TAXICAB, [[math.sqrt(2), -0.5, 1.0, math.sqrt(3)]], [5]),
    (TAXICAB, [[math.sqrt(2), -0.5, 1.0, 3.0], [0.25, math.sqrt(5), -1e-9, 2.0]], [8, 0, 3.5, 5]),
    # only the origin is a zero, so every shell past the first is empty
    (cl.CubicForm.diagonal([1, 2, 4]), [[math.sqrt(2), 0.5, -1.0]], [3, 0, 2]),
    # no split: the rows of the line route are placed the same way
    (CONNECTED, [[math.sqrt(2), -0.5, 1.0, 3.0], [0.25, math.sqrt(5), -1e-9, 2.0]], [6, 2, 4]),
])
def test_nested_zeros_group_stably_by_shell(monkeypatch, chunk, C, rows, grid):
    # the values of the pair-order oracle zero_shells_and_values, folded
    # by x -> -x and reduced: bit for bit, a one-box grid included
    Lsys = cl.LinearSystem.from_rows(rows)
    bounds = sorted({math.floor(P) for P in grid})
    level, vals = zero_shells_and_values(C, bounds, Lsys)
    want = _reduced(fold_by_shell(level, vals, len(bounds)))
    monkeypatch.setattr(_grid, "BLOCK", chunk)
    frac, got_bounds, Ns = _nested_zeros(C, Lsys, grid)
    assert got_bounds == bounds
    assert Ns == np.cumsum(np.bincount(level, minlength=len(bounds))).tolist()
    assert _same_bytes(frac, want)


def test_equidist_empty_box_or_grid_is_refused(taxicab, irr_linsys):
    with pytest.raises(EmptyZeroSet, match="-1"):
        cl.equidist_experiment(taxicab, irr_linsys, [4, -1], [[1]], 10, 0)
    with pytest.raises(ValueError, match="empty"):
        cl.equidist_experiment(taxicab, irr_linsys, [], [[1]], 10, 0)


# ---------------------------------------------------------------------------
# The sliced route of constrained enumeration against masking the whole box

# entries with both signs, tiny ones, and 2^-210, past the sliced route's
# exponent range
ENTRY = st.one_of(st.floats(-10, 10), st.sampled_from([-1e-9, 3e-12, -(2.0 ** -210), -7.5]))
SLAB_BOX = {1: 40, 2: 25, 3: 8, 4: 4, 5: 2}   # the largest B drawn for each n
JOIN_BOX = {2: 30, 3: 12, 4: 6, 5: 3}          # the same for split forms


@st.composite
def slab_cases(draw, split=False):
    """An unsplit form in n <= 5 variables (with split=True, a form of
    ``split_forms`` with big coefficients or not), a box |x| <= B, and
    r = 1 or 2 rational or real rows.  Each tau_i is free or the float
    nearest L_i(x0) +- eta for a zero x0, which then sits on the boundary;
    an eta of 1e6 makes the window cover the whole axis, so that the line
    route is chosen on the larger boxes, and the join's screen keeps every
    pair."""
    C = draw(split_forms(big=True) if split else forms(max_n=5, split=False))
    n = C.n
    B = draw(st.integers(0, (JOIN_BOX if split else SLAB_BOX)[n]))
    rows = []
    for _ in range(draw(st.integers(1, min(2, n)))):
        if draw(st.booleans()):
            rows.append([Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 12)))
                         for _ in range(n)])
        else:
            rows.append([draw(ENTRY) for _ in range(n)])
    try:
        Lsys = cl.LinearSystem.from_rows(rows)
    except ValueError:
        assume(False)
    eta = draw(st.sampled_from([0.125, 0.5, 3.0, 1e6]) | st.floats(1e-3, 10))
    zeros, _ = zero_points(C, B, "auto")
    x0 = zeros[draw(st.integers(0, len(zeros) - 1))].tolist()   # the origin is a zero
    tau = []
    for row in Lsys.rows:
        if draw(st.booleans()):
            tau.append(draw(st.floats(-10, 10)))
        else:
            side = draw(st.sampled_from([1, -1]))
            tau.append(float(sum(Fraction(c) * v for c, v in zip(row, x0)) + side * Fraction(eta)))
    return C, B, Lsys, tuple(tau), eta


def _masked_count(C, Lsys, tau, eta, P, weighted):
    """N_w(P) or the unweighted count from every zero of the box, masked."""
    B = math.ceil(P) - 1 if weighted else math.floor(P)
    pts, _ = zero_points(C, B, "auto")
    pts = pts[constraint_mask(Lsys, pts, tau, eta)]
    if not weighted:
        return float(len(pts))
    return float(np.sum(weight_w(pts.astype(float) / P))) if len(pts) else 0.0


@settings(max_examples=150)
@given(case=slab_cases())
def test_constrained_route_matches_masked_enumeration(case):
    _check_constrained_route(case)


@settings(max_examples=60)
@given(case=slab_cases(split=True))
@example(case=(THREE_COMPONENTS, 0, cl.LinearSystem.from_rows([[0.5, -1e-9, 3e-12, -7.5]]),
               (0.0,), 0.125))
@example(case=(cl.taxicab_form(), 1, cl.LinearSystem.from_rows([["1/3", "-1/2", "0", "1"]]),
               (0.5,), 0.5))
@example(case=(cl.taxicab_form(), 12, cl.LinearSystem.from_rows([IRR_ROW, [1.0, -2.0, 0.5, 0.0]]),
               (0.3, -1.0), 1e6))
def test_join_constrained_route_matches_masked_enumeration(case):
    # rows in meet-in-the-middle order, built only for the pairs the float
    # screen keeps, against every row of the join masked
    _check_constrained_route(case)


def _check_constrained_route(case):
    """``constrained_zero_points`` equals the masked rows of ``zero_points``,
    order and points examined included, and ``count`` equals masking the
    whole box, weighted and not."""
    C, B, Lsys, tau, eta = case
    pts, examined = zero_points(C, B, "auto")
    expect = pts[constraint_mask(Lsys, pts, tau, eta)]
    got = constrained_zero_points(C, B, Lsys, tau, eta)
    assert got.dtype == np.int64 and np.array_equal(got, expect)
    for weighted, P in ((True, B + 1), (True, B + 0.5), (False, max(B, 1))):
        if P >= 1:
            q = cl.CountQuery(C=C, Lsys=Lsys, tau=tau, eta=eta, P=P, weighted=weighted)
            res = cl.count(q)
            assert res.value == _masked_count(C, Lsys, tau, eta, P, weighted)
            # a weighted P of B + 1 or B + 0.5 counts the box |x| <= B
            assert not weighted or res.points_examined == examined


@settings(max_examples=40)
@given(C=forms(max_n=4), weighted=st.booleans(),
       grid=st.lists(st.sampled_from([1, 2, 3.5, 5, 6]), min_size=1, max_size=3),
       data=st.data())
def test_count_grid_matches_one_count_per_P(C, weighted, grid, data):
    # a grid of nested boxes from one constrained enumeration, at its largest
    rows = [data.draw(st.lists(st.floats(-3, 3), min_size=C.n, max_size=C.n))
            for _ in range(data.draw(st.integers(0, min(2, C.n))))]
    try:
        Lsys = cl.LinearSystem.from_rows(rows, n=C.n)
    except ValueError:
        assume(False)
    tau = tuple(data.draw(st.floats(-5, 5)) for _ in rows)
    eta = data.draw(st.sampled_from([0.5, 3.0, 1e6]))
    # unsorted, with a duplicate and a non-integer P
    grid = grid + [grid[0], grid[-1] + 0.5]
    q = cl.CountQuery(C=C, Lsys=Lsys, tau=tau, eta=eta, weighted=weighted, keep_solutions=3)
    assert count_grid(q, grid) == [cl.count(replace(q, P=P)) for P in grid]


def _padic_zero_per_level(C, p, m_max):
    """The first certificate in (m, lex) order, scanning every root mod p^m
    at every level m <= m_max."""
    for m in range(1, m_max + 1):
        for row in solutions_mod_pk(C, p, m):
            a = tuple(int(v) for v in row)
            t = _vector_valuation(cl.grad_cubic(C, a), p, m)
            if m - 2 * t >= 1:
                return cl.PadicCertificate(p=p, a=a, m=m, t=t, slack=m - 2 * t)
    return None


def _search_charge(C, p, odd, cert):
    """The largest residue count find_nonsingular_padic_zero charges when its
    first certificate is ``cert`` (None: none up to the odd level ``odd``):
    p^n for the roots mod p, and one residue per singular root mod p^(L-1)
    for the lifts to each level 3 <= L <= the certificate's level."""
    top = odd if cert is None else cert.m
    return max([p**C.n if odd else 0] + [_singular_root_count(C, p, L - 1)
                                         for L in range(3, top + 1)])


@settings(max_examples=80)
@given(C=forms(), p=st.sampled_from([2, 3, 5, 7]), m_max=st.integers(1, 6))
@example(C=cl.CubicForm.diagonal([1, 1, -2]), p=3, m_max=4)
@example(C=cl.CubicForm.diagonal([1]), p=2, m_max=6)
@example(C=cl.CubicForm.diagonal([1, 2]), p=7, m_max=4)     # every-level scan refuses at 10^5
def test_padic_search_on_odd_levels_matches_every_level(C, p, m_max):
    # a certificate at an even level reduces to one a level lower, so the
    # odd levels find the same first certificate as every level; the search
    # lifts only the singular roots, so it may run where the scans refuse,
    # and it refuses exactly where its own charge passes the budget
    odd = max(0, m_max - 1 + m_max % 2)
    with mock.patch.dict(_grid.BUDGETS, {"residues": 10**5}):
        got = _refused_or(lambda: cl.find_nonsingular_padic_zero(C, p, m_max))
    scans = {}
    for top in (odd, m_max):
        for budget in (10**5, 10**6):   # at 10^6 only where the scan refused at 10^5
            if scans.get(top, "refused") == "refused":
                with mock.patch.dict(_grid.BUDGETS, {"residues": budget}):
                    scans[top] = _refused_or(lambda: _padic_zero_per_level(C, p, top))
        if "refused" not in (got, scans[top]):
            assert got == scans[top]
    if scans[odd] != "refused":
        with mock.patch.dict(_grid.BUDGETS, {"residues": 10**6}):
            charge = _refused_or(lambda: _search_charge(C, p, odd, scans[odd]))
        if charge != "refused":
            assert (got == "refused") == (charge > 10**5)


# ---------------------------------------------------------------------------
# Scrambled Sobol points against scipy.stats.qmc.Sobol


def _check_sobol_box(n, samples, seed):
    """The concatenated blocks of ``_sobol_blocks`` bit for bit against the
    draw they replace, 2u - 1 for u = qmc.Sobol(d=n, scramble=True,
    seed=seed).random_base2(m).  random_base2(m) is random(2^m), which
    scipy's engine gives in blocks of 2^16 points as well; the blocks keep
    the test small."""
    from scipy.stats import qmc

    got = _all_sobol_points(n, samples, seed)
    m = max(10, math.ceil(math.log2(max(2, samples))))
    assert got.dtype == np.float64 and got.shape == (2**m, n)
    engine = qmc.Sobol(d=n, scramble=True, seed=seed)
    for start in range(0, 2**m, 2**16):
        want = 2 * engine.random(min(2**m, 2**16)) - 1
        assert np.array_equal(got[start:start + len(want)].view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 8, 10, 16])
def test_sobol_box_matches_scipy(n):
    for seed, samples in product([1, 7, 12345, 1063938750], [1000, 3000, 2**16, 2**19]):
        _check_sobol_box(n, samples, seed)


@settings(max_examples=30)
@given(st.integers(1, 128), st.integers(0, 2**31 - 1), st.integers(10, 16))
@example(n=128, seed=2**31 - 1, m=14)
def test_sobol_box_matches_scipy_property(n, seed, m):
    assume(n << m <= 2**21)  # at most 2^21 coordinates, 16 MB a draw
    _check_sobol_box(n, 2**m, seed)


@pytest.mark.parametrize("n, m, block, align, seed", [
    (1, 12, 2**10, 1, 3), (4, 13, 2**10, 1, 2073320062), (4, 13, 2**10, 2**11, 5),
    (4, 11, 2**15, 1, 9), (4, 12, 2**10, 2**13, 1), (128, 12, 2**10, 1, 12345)])
def test_sobol_blocks_match_scipy_chunks(monkeypatch, n, m, block, align, seed):
    # blocks after the first are block 0 XORed with one constant a
    # coordinate, with the extra direction number at odd block indices;
    # block k must be the next chunk of scipy's points, bit for bit, and its
    # half the same chunk of scipy's draw in [-1/2, 1/2]
    from scipy.stats import qmc

    monkeypatch.setattr(_grid, "BLOCK", block)
    S = min(2**m, max(block, align))
    engine = qmc.Sobol(d=n, scramble=True, seed=seed)
    count = 0
    for X in _grid._sobol_blocks(n, 2**m, seed, align=align):
        assert X.dtype == np.float64 and X.shape == (n, S) and X.flags.c_contiguous
        u = engine.random(S)
        assert np.array_equal(X.T.view(np.uint64), (2 * u - 1).view(np.uint64))
        assert np.array_equal((0.5 * X).T.view(np.uint64), (u - 0.5).view(np.uint64))
        count += 1
    assert count == 2**m // S


def test_sobol_box_refuses_before_building_points():
    # the direction numbers are imported on the first call; imported here,
    # the traced peak is the refusal's own
    import cubiclab._joe_kuo  # noqa: F401
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"2\^31 samples exceed the 2\^30"):
            _grid._sobol_blocks(4, 2**30 + 1, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ValueError, match="129 coordinates exceed the 128"):
        _grid._sobol_blocks(129, 2**10, 7)
