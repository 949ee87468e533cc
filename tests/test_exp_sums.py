import cmath
import math
import random
import statistics
from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import cubiclab as cl
from cubiclab.errors import ResourceLimit, ToleranceNotMet
from cubiclab import exp_sums
from cubiclab._grid import diag_coeffs
from cubiclab.exp_sums import _complete_sum_direct
from cubiclab.lattice_enum import weight_w
from cubiclab.singular_integral import batch_stderr
from oracles import _osc_tensor, irrationality_F, nearest_int, poisson_residual


def _w1(t):
    return math.exp(-1.0 / (1.0 - t * t)) if abs(t) < 1 else 0.0


def test_complete_sum_q1(taxicab):
    s = cl.complete_sum(taxicab, 1, 0, [0, 0, 0, 0])
    assert s.value == 1 and s.abs_error == 0


def test_complete_sum_cube_mod9():
    C = cl.CubicForm.diagonal([1])
    s = cl.complete_sum(C, 9, 1, [0])
    # y^3 mod 9 cycles through {0, 1, 8}: sum = 3 (1 + 2 cos(2 pi / 9))
    assert s.value.real == pytest.approx(3 * (1 + 2 * math.cos(2 * math.pi / 9)), abs=1e-10)
    assert abs(s.value.imag) < 1e-10


def test_complete_sum_cube_mod2():
    C = cl.CubicForm.diagonal([1])
    s = cl.complete_sum(C, 2, 1, [0])
    assert abs(s.value) < 1e-12


def test_complete_sum_trivial_bound():
    rng = random.Random(37)
    for _ in range(50):
        n = rng.randint(1, 2)
        C = cl.CubicForm.from_terms(
            n, [(i, i, i, rng.randint(-4, 4)) for i in range(1, n + 1)] + [(1, 1, 1, 1)])
        q = rng.randint(1, 30)
        a = rng.randint(0, q)
        avec = [rng.randint(-3, 3) for _ in range(n)]
        s = cl.complete_sum(C, q, a, avec)
        assert abs(s.value) <= q**n + 1e-9


def test_complete_sum_conjugation():
    rng = random.Random(11)
    C = cl.CubicForm.diagonal([1, 2])
    for _ in range(25):
        q = rng.randint(2, 25)
        a = rng.choice([a for a in range(1, q + 1) if gcd(a, q) == 1])
        avec = [rng.randint(-4, 4), rng.randint(-4, 4)]
        s = cl.complete_sum(C, q, a, avec).value
        conj = cl.complete_sum(C, q, q - a, [-v for v in avec]).value
        assert conj == pytest.approx(s.conjugate(), abs=1e-9 * q**2)


def test_crt_matches_direct_random():
    rng = random.Random(4242)
    done = 0
    while done < 40:
        q1, q2 = rng.randint(2, 20), rng.randint(2, 20)
        if gcd(q1, q2) != 1 or q1 * q2 > 400:
            continue
        q = q1 * q2
        a = rng.choice([a for a in range(1, q + 1) if gcd(a, q) == 1])
        n = rng.randint(1, 2)
        C = cl.CubicForm.from_terms(
            n, [(i, i, i, rng.randint(-3, 3)) for i in range(1, n + 1)] + [(1, 1, 1, 1)])
        avec = [rng.randint(-5, 5) for _ in range(n)]
        direct = _complete_sum_direct(C, q, a, avec)
        via_crt = cl.complete_sum_crt(C, q, a, avec)
        assert abs(direct.value - via_crt.value) <= 1e-9 * q**n
        done += 1


def test_crt_requires_coprime(taxicab):
    with pytest.raises(ValueError):
        cl.complete_sum_crt(taxicab, 6, 2, [0, 0, 0, 0])


def test_crt_prime_is_direct():
    C = cl.CubicForm.diagonal([1, 1])
    d = cl.complete_sum(C, 7, 3, [1, 2]).value
    c = cl.complete_sum_crt(C, 7, 3, [1, 2]).value
    assert c == pytest.approx(d, abs=1e-12)


def test_complete_sum_budget(connected):
    # a form without a split walks all q^n residues, and 101^4 passes 10^8;
    # the diagonal form's blocks walk 8 or 125 residues at q = 1000, where
    # the sum of e(x^3 / 1000) over x mod 1000 is 100
    with pytest.raises(ResourceLimit, match=r"q\^\|block\| = 104060401 residues"):
        cl.complete_sum(connected, 101, 1, [0, 0, 0, 0])
    s = cl.complete_sum(cl.CubicForm.diagonal([1, 1, 1, 1]), 1000, 1, [0] * 4)
    assert abs(s.value - 100**4) <= s.abs_error
    # the vectors of length q are charged n q before any is made: four of
    # them at q = 10^8 - 1, whose blocks' walks mod 9, 11, 73, 101, 137 fit
    with pytest.raises(ResourceLimit, match=r"n q = 399999996 residues"):
        cl.complete_sum(cl.taxicab_form(), 99_999_999, 1, [0] * 4)


def test_sbound_report():
    C = cl.CubicForm.diagonal([1, 1])
    rep = cl.sbound_check(C, h_lower=1, qmax=20, psi=0.25)
    assert rep.per_q[0].ratio == pytest.approx(1.0)  # q = 1 row
    assert rep.max_ratio >= 1.0
    assert len(rep.per_q) == 20
    # 2 x^3 at q=4: the sum vanishes at avec = 0 and 1 alike, so the ratio is 0
    rep1 = cl.sbound_check(cl.CubicForm.diagonal([2]), h_lower=1, qmax=4, psi=0.25)
    assert rep1.per_q[3].abs_sum == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("h_lower, psi, detail", [
    (0, 0.25, "h_lower must be at least 1, got 0"),
    (2, math.nan, "psi must be finite, got nan"),
    (2, -math.inf, "psi must be finite, got -inf"),
])
def test_sbound_and_positivity_refuse_h_lower_and_psi(h_lower, psi, detail):
    C = cl.CubicForm.diagonal([1, 1])
    with pytest.raises(ValueError, match=detail):
        cl.sbound_check(C, h_lower=h_lower, qmax=3, psi=psi)
    with pytest.raises(ValueError, match=detail):
        cl.positivity_report(C, pmax=3, m_max=2, Q=3, h_lower=h_lower, psi=psi)


@pytest.mark.parametrize("qmax", [0, -3])
def test_sbound_refuses_qmax_below_1_before_any_sum(monkeypatch, taxicab, qmax):
    # no q to scan: it raised a bare AssertionError after the empty loop
    def no_sum(*args):
        raise AssertionError("sum computed")
    monkeypatch.setattr(exp_sums, "_sum_vector", no_sum)
    with pytest.raises(ValueError, match=f"qmax must be at least 1, got {qmax}"):
        cl.sbound_check(taxicab, 1, qmax, 0.25)


def test_sum_g_all_ones():
    C = cl.CubicForm.diagonal([1])
    g = cl.sum_g(C, 3, 0.0, [0.0], weighted=False)
    assert g.value == pytest.approx(5.0)
    g25 = cl.sum_g(C, 2.5, 0.0, [0.0], weighted=False)
    assert g25.value == pytest.approx(5.0)


def test_sum_g_weighted_positive():
    C = cl.CubicForm.diagonal([1])
    g = cl.sum_g(C, 4, 0.0, [0.0], weighted=True)
    expect = sum(_w1(x / 4) for x in range(-3, 4))
    assert g.value == pytest.approx(expect, rel=1e-12)


def test_sum_g_quarter_phase():
    C = cl.CubicForm.diagonal([1])
    g = cl.sum_g(C, 3, 0.25, [0.0], weighted=False)
    assert g.value == pytest.approx(3.0, abs=1e-12)


MIXED3 = cl.CubicForm.from_terms(3, [(1, 1, 2, 2), (1, 2, 3, -3), (2, 3, 3, 1), (3, 3, 3, 5)])


@pytest.mark.parametrize("P, alpha0, lam, weighted", [
    (5, 0.013, (0.1, -0.27, 0.4), True),
    (4.5, 0.21, (0.3, 0.0, -0.6), False),
])
def test_sum_g_matches_pointwise_sum(P, alpha0, lam, weighted):
    """A form with mixed monomials against a point-by-point sum."""
    B = math.ceil(P) - 1
    expect = 0j
    for x in product(range(-B, B + 1), repeat=3):
        w = weight_w([v / P for v in x]) if weighted else 1.0
        phase = alpha0 * cl.eval_cubic(MIXED3, x) + sum(l * v for l, v in zip(lam, x))
        expect += w * cmath.exp(2j * math.pi * phase)
    g = cl.sum_g(MIXED3, P, alpha0, lam, weighted=weighted)
    assert abs(g.value - expect) <= g.abs_error


def test_osc_I_weight_mass():
    C = cl.CubicForm.diagonal([1])
    val = cl.osc_integral_I(C, 0.0, [0.0], tol=1e-10)
    oracle, err = quad(_w1, -1, 1, limit=200)
    assert val.value.real == pytest.approx(oracle, abs=1e-9)
    assert val.value.real == pytest.approx(0.4439938161680786, abs=1e-9)
    assert val.abs_error <= 1e-10


def test_osc_I_conjugate_symmetry():
    C = cl.CubicForm.diagonal([1, 1])
    for g0, g in [(0.7, (0.3, -1.2)), (2.0, (0.0, 0.5))]:
        a = cl.osc_integral_I(C, g0, g, tol=1e-9).value
        b = cl.osc_integral_I(C, -g0, [-x for x in g], tol=1e-9).value
        assert b == pytest.approx(a.conjugate(), abs=1e-8)


def test_osc_I_decay_in_linear_phase():
    C = cl.CubicForm.diagonal([1])
    val = cl.osc_integral_I(C, 0.0, [5.0], tol=1e-9)
    assert abs(val.value) <= 0.05
    re_o, _ = quad(lambda t: _w1(t) * math.cos(2 * math.pi * 5 * t), -1, 1, limit=400)
    assert val.value.real == pytest.approx(re_o, abs=1e-8)


def test_osc_I_box_mass():
    # at zero phase the integral is the weight's mass, the n-th power of the
    # one-axis mass
    mass, _ = quad(_w1, -1, 1, limit=200)
    for n in (1, 2, 3):
        C = cl.CubicForm.diagonal([1] * n)
        v = cl.osc_integral_I(C, 0.0, [0.0] * n, tol=1e-9)
        assert v.value.real == pytest.approx(mass**n, abs=1e-8)


def _no_grid(*args):
    raise AssertionError("grid built")


def test_osc_I_refuses_a_non_diagonal_form(monkeypatch):
    # x1^2 x2 has no product of axis integrals, and no other route takes it
    monkeypatch.setattr(exp_sums, "gl_nodes", _no_grid)
    with pytest.raises(ValueError, match="diagonal form"):
        cl.osc_integral_I(cl.CubicForm.from_terms(2, [(1, 1, 2, 1)]), 0.0, [0.0, 0.0])


@pytest.mark.parametrize("gamma0, gamma, tol, name", [
    (math.nan, [0.0, 0.0], 1e-8, "gamma0"),
    (math.inf, [0.0, 0.0], 1e-8, "gamma0"),
    (-math.inf, [0.0, 0.0], 1e-8, "gamma0"),
    (1.0, [0.0, math.nan], 1e-8, r"gamma\[1\]"),
    (1.0, [math.inf, 0.0], 1e-8, r"gamma\[0\]"),
    (1.0, [0.0, -math.inf], 1e-8, r"gamma\[1\]"),
    (1.0, [0.0, 0.0], -1.0, "tol"),
    (1.0, [0.0, 0.0], math.nan, "tol"),
])
def test_osc_I_refuses_non_finite_phases_and_bad_tol(monkeypatch, gamma0, gamma, tol, name):
    # each is refused by name before any grid is built
    monkeypatch.setattr(exp_sums, "gl_nodes", _no_grid)
    with pytest.raises(ValueError, match=name):
        cl.osc_integral_I(cl.CubicForm.diagonal([1, -2]), gamma0, gamma, tol=tol)


def test_osc_I_full_period():
    # e(t) over one period of the axis: the weight is even, so the integral
    # is the real cosine transform
    C = cl.CubicForm.diagonal([1])
    v = cl.osc_integral_I(C, 0.0, [1.0], tol=1e-10)
    re_o, _ = quad(lambda t: _w1(t) * math.cos(2 * math.pi * t), -1, 1, limit=400)
    assert v.value.real == pytest.approx(re_o, abs=1e-9)
    assert abs(v.value.imag) < 1e-12


def test_osc_I_cubic_stationary_decay():
    C = cl.CubicForm.diagonal([1])
    v = cl.osc_integral_I(C, 40.0, [0.0], tol=1e-8)
    assert abs(v.value) <= 40 ** (-1 / 3)
    re_o, _ = quad(lambda t: _w1(t) * math.cos(2 * math.pi * 40 * t**3), -1, 1, limit=2000)
    assert v.value.real == pytest.approx(re_o, abs=1e-6)


def test_osc_tensor_matches_separable():
    C = cl.CubicForm.diagonal([1, -2])
    a = cl.osc_integral_I(C, 0.35, (0.2, -0.7), 1e-9).value
    b = _osc_tensor(C, 0.35, (0.2, -0.7), 1e-8).value
    assert b == pytest.approx(a, abs=1e-6)


def test_batch_stderr_known_spread():
    # 64 batches on a circle of radius 0.5 about their mean: every |d|^2 is
    # 0.25, so the error is 0.5 / sqrt(63); the magnitudes |d| do not vary
    # at all, so their spread (the old "mc" bar) would have been 0
    k = 64
    batches = (0.3 - 0.2j) + 0.5 * np.exp(2j * np.pi * np.arange(k) / k)
    assert batch_stderr(batches) == pytest.approx(0.5 / math.sqrt(k - 1), rel=1e-12)
    assert np.abs(batches - batches.mean()).std() < 1e-12
    # real batches: the ddof = 1 sample deviation over sqrt(k)
    real = np.array([1.0, 2.0, 4.0, 7.0])
    assert batch_stderr(real) == pytest.approx(statistics.stdev(real) / 2, rel=1e-12)
    # complex: the real and imaginary errors add in quadrature
    rng = np.random.default_rng(5)
    z = rng.normal(size=64) + 1j * rng.normal(size=64)
    assert batch_stderr(z) == pytest.approx(math.hypot(batch_stderr(z.real),
                                                       batch_stderr(z.imag)), rel=1e-12)


def test_osc_axis_budget_refusal_is_resource_limit():
    # c3 = 2e4 asks for 120000 panels of 12 nodes from the start, 1.44M nodes
    # against the axis budget of 400k: no grid is evaluated
    with pytest.raises(ResourceLimit):
        cl.osc_integral_I(cl.CubicForm.diagonal([1]), 2e4, [0.0])
    # c3 = 1e308 asks for 3e308 cycles, past the float range: refused the same way
    with pytest.raises(ResourceLimit, match="0 fit its budget of axis nodes 400000"):
        cl.osc_integral_I(cl.CubicForm.diagonal([1]), 1e308, [0.0])
    # c3 = 2e3 starts at 12000 panels: 144k and 288k nodes fit, 576k does
    # not, so the two values refined are reported with the failure
    with pytest.raises(ToleranceNotMet) as exc:
        cl.osc_integral_I(cl.CubicForm.diagonal([1]), 2e3, [0.0], tol=1e-30)
    assert len(exc.value.table) == 2


def test_poisson_identity_small():
    C = cl.CubicForm.diagonal([1])
    res = poisson_residual(C, 10, 0.0, [0.0], 3)
    assert res <= 1e-3 * 10


def test_poisson_identity_shifted():
    C = cl.CubicForm.diagonal([1])
    res = poisson_residual(C, 8, 1e-4, [0.3], 5)
    assert res / 8 <= 1e-2


def test_poisson_cutoff_zero_is_central_term():
    C = cl.CubicForm.diagonal([1])
    P, a0, lam = 6, 1e-3, [0.2]
    res = poisson_residual(C, P, a0, lam, 0)
    g = cl.sum_g(C, P, a0, lam, weighted=True).value
    central = P * cl.osc_integral_I(C, P**3 * a0, [P * lam[0]], tol=1e-7).value
    assert res == pytest.approx(abs(g - central), abs=1e-9)


def test_poisson_residual_decreases_with_cutoff():
    C = cl.CubicForm.diagonal([1])
    r = [poisson_residual(C, 6, 1e-4, [0.45], c) for c in (0, 1, 3)]
    assert r[2] <= r[1] <= r[0]


def test_irrationality_F_zero_alpha(irr_linsys):
    v, (q, avec) = irrationality_F(irr_linsys, [0.0], 100)
    assert v == 1.0 and q == 1 and avec == (0, 0, 0, 0)


def test_irrationality_F_rational_row():
    Ls = cl.LinearSystem.from_rows([["1/2", "1/3"]])
    v, (q, avec) = irrationality_F(Ls, [6.0], 1000)
    assert v >= 6.0 ** (-2)
    # 6 * (1/2, 1/3) = (3, 2) is integral, so q = 1 already achieves the sup
    assert v == 1.0 and q == 1


def test_irrationality_F_sqrt2():
    Ls = cl.LinearSystem.from_rows([[math.sqrt(2)]])
    v, (q, avec) = irrationality_F(Ls, [1.0], 1e4)
    assert v < 0.02
    # brute-force oracle over q <= 200 with independently rounded numerators
    lam = math.sqrt(2)
    best = 0.0
    for qq in range(1, 201):
        a = round(qq * lam)
        best = max(best, 1.0 / (qq + 1e4 * abs(qq * lam - a)))
    assert v == pytest.approx(best, rel=1e-12)
    assert (q, avec) == (70, (99,))  # convergent 99/70 of sqrt(2)


def test_irrationality_F_nonincreasing_in_P():
    rng = random.Random(5)
    Ls = cl.LinearSystem.from_rows([[math.sqrt(2), math.e]])
    for _ in range(10):
        alpha = [rng.uniform(-2, 2)]
        ps = sorted(rng.uniform(1, 1e4) for _ in range(3))
        vals = [irrationality_F(Ls, alpha, P)[0] for P in ps]
        assert vals[0] >= vals[1] >= vals[2]


@pytest.mark.parametrize("alpha, P, detail", [
    ([0.5], math.nan, "P must be finite, got nan"),
    ([0.5], math.inf, "P must be finite, got inf"),
    ([math.nan], 10.0, "alpha[0] must be finite, got nan"),
    ([math.inf], 10.0, "alpha[0] must be finite, got inf"),
])
def test_irrationality_F_refuses_a_non_finite_input(irr_linsys, alpha, P, detail):
    # every factor would be NaN or 0, so the search over q never stopped
    with pytest.raises(ValueError) as info:
        irrationality_F(irr_linsys, alpha, P)
    assert str(info.value) == detail


def test_irrationality_F_refuses_a_P_whose_products_underflow():
    # every factor is about 1/P, so the product at q = 1 (and at every q)
    # underflows to 0 and no running best could stop the search
    Ls = cl.LinearSystem.from_rows([[math.sqrt(2), math.sqrt(3)]])
    with pytest.raises(ValueError, match=r"P = 1e\+300 is too large"):
        irrationality_F(Ls, [0.5], 1e300)


def test_nearest_int_half_rounds_down():
    assert nearest_int(2.5) == 2
    assert nearest_int(-2.5) == -3
    assert nearest_int(2.51) == 3
    assert nearest_int(2.49) == 2



@settings(max_examples=30)
@given(coeffs=st.lists(st.sampled_from([1, -1, 2, 0]), min_size=1, max_size=5),
       gamma0=st.sampled_from([0.0, -0.0, 1.5, -3.0]), data=st.data())
def test_osc_separable_integrates_each_distinct_axis_once(coeffs, gamma0, data):
    # repeated coefficients and frequencies: one 1-d integral per distinct
    # axis (gamma0 c_d, gamma_d), -0.0 kept apart from 0.0, and the same
    # bits as one integral per axis multiplied in axis order
    gamma = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5]),
                               min_size=len(coeffs), max_size=len(coeffs)))
    C = cl.CubicForm.diagonal(coeffs)
    tol = 1e-8
    value, err = 1 + 0j, 0.0
    for c, g in zip(diag_coeffs(C), gamma):
        v, e = exp_sums._osc_axis(gamma0 * c, g, tol / C.n)
        value *= v
        err += e
    calls = []
    axis = exp_sums._osc_axis

    def spy(c3, g, *args):
        calls.append((c3, g, math.copysign(1.0, c3), math.copysign(1.0, g)))
        return axis(c3, g, *args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exp_sums, "_osc_axis", spy)
        got = exp_sums.osc_integral_I(C, gamma0, gamma, tol)
    bits = np.array([got.value.real, got.value.imag, got.abs_error]).tobytes()
    assert bits == np.array([value.real, value.imag, err]).tobytes()
    assert len(calls) == len(set(calls)) == len({(gamma0 * c, g, math.copysign(1.0, gamma0 * c),
                                                  math.copysign(1.0, g))
                                                 for c, g in zip(diag_coeffs(C), gamma)})
