import cmath
import math
import random
from itertools import product
from math import gcd

import pytest
from scipy.integrate import quad

import cubiclab as cl
from cubiclab.errors import ResourceLimit
from cubiclab.exp_sums import _complete_sum_direct, nearest_int
from cubiclab.lattice_enum import weight_w


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


def test_complete_sum_budget():
    C = cl.CubicForm.diagonal([1, 1, 1, 1])
    with pytest.raises(ResourceLimit):
        cl.complete_sum(C, 1000, 1, [0, 0, 0, 0])


def test_sbound_report():
    C = cl.CubicForm.diagonal([1, 1])
    rep = cl.sbound_check(C, h_lower=1, qmax=20, psi=0.25)
    assert rep.per_q[0].ratio == pytest.approx(1.0)  # q = 1 row
    assert rep.max_ratio >= 1.0
    assert len(rep.per_q) == 20
    # n=1 cube at q=2: the sum vanishes, so the ratio is 0
    rep1 = cl.sbound_check(cl.CubicForm.diagonal([1]), h_lower=1, qmax=2, psi=0.25,
                           avec_samples=[[0]])
    assert rep1.per_q[1].abs_sum == pytest.approx(0.0, abs=1e-12)


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


def test_osc_Iu_box_volume():
    for n in (1, 2, 3):
        C = cl.CubicForm.diagonal([1] * n)
        v = cl.osc_integral_Iu(C, 0.0, [0.0] * n, tol=1e-9)
        assert v.value.real == pytest.approx(2.0**n, abs=1e-8)


def test_osc_Iu_full_period_vanishes():
    C = cl.CubicForm.diagonal([1])
    v = cl.osc_integral_Iu(C, 0.0, [1.0], tol=1e-10)
    assert abs(v.value) < 1e-9


def test_osc_Iu_cubic_stationary_decay():
    C = cl.CubicForm.diagonal([1])
    v = cl.osc_integral_Iu(C, 40.0, [0.0], tol=1e-8)
    assert abs(v.value) <= 40 ** (-1 / 3)
    re_o, _ = quad(lambda t: math.cos(2 * math.pi * 40 * t**3), -1, 1, limit=2000)
    assert v.value.real == pytest.approx(re_o, abs=1e-6)


def test_osc_tensor_matches_separable():
    C = cl.CubicForm.diagonal([1, -2])
    a = cl.osc_integral_I(C, 0.35, (0.2, -0.7), tol=1e-9, method="separable").value
    b = cl.osc_integral_I(C, 0.35, (0.2, -0.7), tol=1e-8, method="tensor").value
    assert b == pytest.approx(a, abs=1e-6)


@pytest.mark.parametrize("gamma0, gamma", [(0.3, (0.2, -0.1)), (1.1, (0.5, -0.3)),
                                           (4.0, (1.5, 0.7))])
def test_osc_mc_matches_tensor(gamma0, gamma):
    C = cl.CubicForm.from_terms(2, [(1, 1, 2, 2), (1, 2, 2, -1), (2, 2, 2, 1)])
    mc = cl.osc_integral_I(C, gamma0, gamma, method="mc")
    tensor = cl.osc_integral_I(C, gamma0, gamma, tol=1e-7, method="tensor")
    assert abs(mc.value - tensor.value) <= mc.abs_error + tensor.abs_error


def test_poisson_identity_small():
    C = cl.CubicForm.diagonal([1])
    res = cl.poisson_residual(C, 10, 0.0, [0.0], 3)
    assert res <= 1e-3 * 10


def test_poisson_identity_shifted():
    C = cl.CubicForm.diagonal([1])
    res = cl.poisson_residual(C, 8, 1e-4, [0.3], 5)
    assert res / 8 <= 1e-2


def test_poisson_cutoff_zero_is_central_term():
    C = cl.CubicForm.diagonal([1])
    P, a0, lam = 6, 1e-3, [0.2]
    res = cl.poisson_residual(C, P, a0, lam, 0)
    g = cl.sum_g(C, P, a0, lam, weighted=True).value
    central = P * cl.osc_integral_I(C, P**3 * a0, [P * lam[0]], tol=1e-7).value
    assert res == pytest.approx(abs(g - central), abs=1e-9)


def test_poisson_residual_decreases_with_cutoff():
    C = cl.CubicForm.diagonal([1])
    r = [cl.poisson_residual(C, 6, 1e-4, [0.45], c) for c in (0, 1, 3)]
    assert r[2] <= r[1] <= r[0]


def test_irrationality_F_zero_alpha(irr_linsys):
    v, (q, avec) = cl.irrationality_F(irr_linsys, [0.0], 100)
    assert v == 1.0 and q == 1 and avec == (0, 0, 0, 0)


def test_irrationality_F_rational_row():
    Ls = cl.LinearSystem.from_rows([["1/2", "1/3"]])
    v, (q, avec) = cl.irrationality_F(Ls, [6.0], 1000)
    assert v >= 6.0 ** (-2)
    # 6 * (1/2, 1/3) = (3, 2) is integral, so q = 1 already achieves the sup
    assert v == 1.0 and q == 1


def test_irrationality_F_sqrt2():
    Ls = cl.LinearSystem.from_rows([[math.sqrt(2)]])
    v, (q, avec) = cl.irrationality_F(Ls, [1.0], 1e4)
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
        vals = [cl.irrationality_F(Ls, alpha, P)[0] for P in ps]
        assert vals[0] >= vals[1] >= vals[2]


def test_nearest_int_half_rounds_down():
    assert nearest_int(2.5) == 2
    assert nearest_int(-2.5) == -3
    assert nearest_int(2.51) == 3
    assert nearest_int(2.49) == 2

