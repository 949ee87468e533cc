import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import cubiclab as cl
from cubiclab import exp_sums, singular_series
from cubiclab.singular_series import euler_product_partial, local_factor_via_sums, positivity_report
from oracles import hensel_lift_step, solutions_mod_pk


def test_local_density_examples():
    C2 = cl.CubicForm.diagonal([1, 1])
    assert cl.local_density(C2, 2, 1).sigma == 1
    assert cl.local_density(C2, 2, 1).solutions == 2  # (0,0) and (1,1)
    assert cl.local_density(C2, 3, 1).sigma == 1
    C1 = cl.CubicForm.diagonal([1])
    assert cl.local_density(C1, 5, 1).sigma == 1


def test_local_density_rejects_composite():
    with pytest.raises(ValueError):
        cl.local_density(cl.CubicForm.diagonal([1]), 6, 1)


def test_a_search_of_nothing_is_refused(monkeypatch):
    # no level below 1 to search or tabulate; the report refuses before any
    # certificate search, also when no prime is searched
    C = cl.CubicForm.diagonal([1, 1, -2])
    with pytest.raises(ValueError, match="k must be at least 1, got 0"):
        cl.local_density(C, 3, 0)
    with pytest.raises(ValueError, match="m_max must be at least 1, got 0"):
        cl.find_nonsingular_padic_zero(C, 3, 0)
    monkeypatch.setattr(cl.singular_series, "_singular_lift", None)
    for pmax in (1, 7):
        with pytest.raises(ValueError, match="m_max must be at least 1, got -1"):
            positivity_report(C, pmax=pmax, m_max=-1, Q=3)


def test_local_factor_k0_is_one():
    C2 = cl.CubicForm.diagonal([1, 1])
    assert local_factor_via_sums(C2, 3, 0) == 1


@pytest.mark.parametrize("diag", [[1, 1], [1, 2, 3]])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_local_identity_exact(diag, p, k):
    C = cl.CubicForm.diagonal(diag)
    assert local_factor_via_sums(C, p, k) == cl.local_density(C, p, k).sigma


def test_solutions_lex_sorted():
    C = cl.CubicForm.diagonal([1, 1])
    sols = solutions_mod_pk(C, 3, 2)
    lst = [tuple(r) for r in sols.tolist()]
    assert lst == sorted(lst)
    for a in lst:
        assert cl.eval_cubic(C, a) % 9 == 0


def test_series_truncation_q1():
    C = cl.CubicForm.diagonal([1, 1])
    val, terms = cl.singular_series_truncated(C, 1)
    assert val == 1.0 and terms == [(1, 1.0)]


def test_series_q2_term_single_numerator():
    C = cl.CubicForm.diagonal([1, 1, 1])
    _, terms = cl.singular_series_truncated(C, 2)
    s2 = cl.complete_sum(C, 2, 1, [0, 0, 0]).value
    assert terms[1][1] == pytest.approx((s2 / 2**3).real, abs=1e-12)
    assert abs(s2.imag) < 1e-12


def test_series_terms_multiplicative():
    C = cl.CubicForm.diagonal([1, 2])
    _, terms = cl.singular_series_truncated(C, 36)
    A = dict(terms)
    for q1, q2 in [(2, 3), (4, 9), (4, 7), (5, 7)]:
        assert A[q1 * q2] == pytest.approx(A[q1] * A[q2], abs=1e-9)


def test_series_matches_euler_product_with_cross_terms():
    C = cl.CubicForm.diagonal([1, 1])
    Q = 9
    depths = {2: 3, 3: 2, 5: 1, 7: 1}
    partial, _ = cl.singular_series_truncated(C, Q)
    product_val = euler_product_partial(C, depths)
    # exact per-prime-power terms from consecutive truncation differences
    A = {1: Fraction(1)}
    for p, k in depths.items():
        prev = Fraction(1)
        for j in range(1, k + 1):
            cur = local_factor_via_sums(C, p, j)
            A[p**j] = cur - prev
            prev = cur
    # the product expands over all q = products of one power per prime
    cross = Fraction(0)
    supported = sorted(A)
    for qs in product(*[[1] + [p**j for j in range(1, k + 1)] for p, k in depths.items()]):
        q = math.prod(qs)
        if q > Q:
            term = Fraction(1)
            for piece in qs:
                if piece > 1:
                    term *= A[piece]
            cross += term
    assert partial == pytest.approx(float(product_val - cross), abs=1e-9)


def test_padic_certificate_search_and_verify():
    C = cl.CubicForm.diagonal([1, 1, -2])
    cert5 = cl.find_nonsingular_padic_zero(C, 5, 3)
    assert cert5 is not None and cert5.verify(C)
    assert cert5.m - 2 * cert5.t >= 1
    cert3 = cl.find_nonsingular_padic_zero(C, 3, 4)
    assert cert3 is not None and cert3.verify(C)
    assert cert3.m == 3 and cert3.t == 1  # gradient 3-valuation forces depth 3


def test_certificate_search_rechecks_its_certificate(monkeypatch):
    # a corrupted lift hands the search (1, 0, 0) as a regular root mod 5:
    # its gradient (3, 0, 0) is a unit, so the search certifies it, but
    # C(1, 0, 0) = 1, and the re-check refuses the certificate
    C = cl.CubicForm.diagonal([1, 1, -2])

    def corrupted(C, p):
        yield np.array([[1, 0, 0]]), np.zeros((0, 3), dtype=np.int64)

    monkeypatch.setattr(singular_series, "_singular_lift", corrupted)
    with pytest.raises(AssertionError, match="fails its re-check"):
        cl.find_nonsingular_padic_zero(C, 5, 1)


def test_padic_example_point_is_valid_certificate():
    # (1,1,1) with gradient (3,3,-6): nonsingular mod 5 at depth 1
    C = cl.CubicForm.diagonal([1, 1, -2])
    assert cl.eval_cubic(C, (1, 1, 1)) == 0
    cert = cl.PadicCertificate(p=5, a=(1, 1, 1), m=1, t=0, slack=1)
    assert cert.verify(C)


def test_padic_absent_for_pure_cube():
    C = cl.CubicForm.diagonal([1])
    assert cl.find_nonsingular_padic_zero(C, 2, 6) is None


def test_hensel_lift_certificates():
    C = cl.CubicForm.diagonal([1, 1, -2])
    for p in (2, 3, 5, 7):
        cert = cl.find_nonsingular_padic_zero(C, p, 4)
        assert cert is not None
        lifted = hensel_lift_step(C, cert)
        assert cl.eval_cubic(C, lifted) % p ** (cert.m + 1) == 0
        # the lift agrees with the certificate modulo p^(m - t)
        mod = p ** (cert.m - cert.t)
        assert all((a - b) % mod == 0 for a, b in zip(lifted, cert.a))


def test_positivity_report_all_primes_certified():
    C = cl.CubicForm.diagonal([1, 1, -2])
    rep = positivity_report(C, pmax=7, m_max=4, Q=6, h_lower=2)
    assert set(rep.certificates) == {2, 3, 5, 7}
    assert all(c is not None for c in rep.certificates.values())
    assert rep.tail_heuristic is None  # h_lower = 2 leaves the tail unquantified
    assert "unquantified" in rep.note


def test_positivity_report_quantified_tail_for_large_h():
    C = cl.CubicForm.diagonal([1, 1])
    rep = positivity_report(C, pmax=3, m_max=2, Q=4, h_lower=24, psi=0.25)
    assert rep.tail_heuristic is not None and rep.tail_heuristic >= 0
    assert rep.tail_exponent == pytest.approx(1 - 3 + 0.25)


def test_positivity_report_deterministic():
    C = cl.CubicForm.diagonal([1, 1, -2])
    a = positivity_report(C, pmax=5, m_max=3, Q=5, h_lower=2)
    b = positivity_report(C, pmax=5, m_max=3, Q=5, h_lower=2)
    assert a == b


@pytest.mark.parametrize("C", [
    # (x1+x2)(x1x3 - x2x4) + (x3+x4)(x2x3 - x1x4): no additive split
    cl.CubicForm.from_terms(4, [(1, 1, 3, 1), (1, 2, 3, 1), (1, 2, 4, -1), (2, 2, 4, -1),
                                (2, 3, 3, 1), (1, 3, 4, -1), (2, 3, 4, 1), (1, 4, 4, -1)]),
    cl.CubicForm.diagonal([1, 1, -2]),
])
def test_positivity_report_sums_each_block_once(monkeypatch, C):
    # the series (q <= Q) and the ratio scan (q <= 12) share one cache, so
    # every (block, prime power, avec) is summed once across both
    calls = Counter()

    def counting(name):
        real = getattr(exp_sums, name)

        def wrapper(block, q, *avec):
            calls[(name, block.n, tuple(sorted(block.coeffs.items())), q, *avec)] += 1
            return real(block, q, *avec)
        return wrapper

    for name in ("_residue_counts", "_prime_power_sums"):
        monkeypatch.setattr(exp_sums, name, counting(name))
    positivity_report(C, pmax=3, m_max=2, Q=14, h_lower=2)
    assert max(calls.values()) == 1
    prime_powers = {2, 3, 4, 5, 7, 8, 9, 11, 13}
    assert {key[3] for key in calls if key[0] == "_residue_counts"} == prime_powers


def test_inputs_charged_on_the_work_they_do_run(connected):
    # the lift charges only the singular roots it lifts, and the series each
    # block's q^|block|: 7^4 roots mod 7 and their singular lifts, not every
    # root mod 49 times 7^4; eight one-variable blocks of 11 residues, not 11^8
    assert cl.local_density(connected, 7, 3).solutions == 84_824_929
    C8 = cl.CubicForm.diagonal([1, 1, 1, 1, -1, -1, -1, -1])
    assert cl.local_density(C8, 3, 2).solutions == 7_263_027
    _, terms = cl.singular_series_truncated(C8, 11)
    assert terms[:10] == cl.singular_series_truncated(C8, 10)[1]
