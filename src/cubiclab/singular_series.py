"""Truncated singular series, exact p-adic local densities, their mutual
consistency, and nonsingular p-adic zero certificates.

Two independent routes compute each local quantity: direct counting of
solution residues, and the orthogonality rearrangement of root-of-unity sums
(which collapses to exact integer Ramanujan-sum classifications).  The two
must agree as exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._grid import box_points, cubic_mod, slabs
from .errors import ResourceLimit
from .exp_sums import _residue_counts, _sums_over_a, sbound_check
from .forms_core import CubicForm, eval_cubic, grad_cubic
from .lattice_enum import additive_split

LOCAL_ENUM_BUDGET = 100_000_000


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _primes_up_to(n: int) -> List[int]:
    return [p for p in range(2, n + 1) if _is_prime(p)]


# ---------------------------------------------------------------------------
# Local densities


@dataclass(frozen=True)
class LocalDensity:
    p: int
    k: int
    sigma: Fraction
    solutions: int

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("density cannot be negative")


def _solutions_mod_p(C: CubicForm, p: int, budget: int) -> np.ndarray:
    n = C.n
    if p**n > budget:
        raise ResourceLimit(f"enumeration of p^n = {p**n} residues exceeds budget")
    pts = box_points(np.arange(p, dtype=np.int64), n)
    return pts[cubic_mod(C, pts.T, p) == 0]


def _lift_solutions(C: CubicForm, p: int, sols: np.ndarray, level: int,
                    budget: int) -> np.ndarray:
    """Solutions mod p^level from solutions mod p^(level-1) by residue lifting."""
    n = C.n
    modulus = p**level
    step = p ** (level - 1)
    if len(sols) * p**n > budget:
        raise ResourceLimit("residue lifting exceeds budget")
    offsets = box_points(np.arange(p, dtype=np.int64), n) * step
    cand = (sols[:, None, :] + offsets[None, :, :]).reshape(-1, n)
    return cand[cubic_mod(C, cand.T, modulus) == 0]


def solutions_mod_pk(C: CubicForm, p: int, k: int,
                     budget: int = LOCAL_ENUM_BUDGET) -> np.ndarray:
    """All x mod p^k with C(x) = 0 mod p^k, via levelwise lifting, lex-sorted."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be at least 1")
    sols = _solutions_mod_p(C, p, budget)
    for level in range(2, k + 1):
        sols = _lift_solutions(C, p, sols, level, budget)
    order = np.lexsort(tuple(sols[:, j] for j in reversed(range(C.n))))
    return sols[order]


def _split_zero_count(C: CubicForm, p: int, k: int, budget: int) -> int:
    """#{x mod p^k : C(x) = 0 mod p^k} for a form with an additive split, read
    from the exact residue counts (a convolution over the split).  The budget
    guards are the lifting route's, level by level, so both routes refuse the
    same inputs."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be at least 1")
    n = C.n
    if p**n > budget:
        raise ResourceLimit(f"enumeration of p^n = {p**n} residues exceeds budget")
    zeros = 0
    for level in range(1, k + 1):
        if level > 1 and zeros * p**n > budget:
            raise ResourceLimit("residue lifting exceeds budget")
        zeros = int(_residue_counts(C, p**level)[0])
    return zeros


def local_density(C: CubicForm, p: int, k: int,
                  budget: int = LOCAL_ENUM_BUDGET) -> LocalDensity:
    """sigma = p^{-k(n-1)} * #{x mod p^k : C(x) = 0 mod p^k}, exact.

    Forms with an additive split count residues by convolution; the others
    lift solutions level by level (``solutions_mod_pk``)."""
    if additive_split(C) is not None:
        zeros = _split_zero_count(C, p, k, budget)
    else:
        zeros = len(solutions_mod_pk(C, p, k, budget))
    return LocalDensity(p=p, k=k, sigma=Fraction(zeros, p ** (k * (C.n - 1))),
                        solutions=zeros)


def local_factor_via_sums(C: CubicForm, p: int, k: int,
                          budget: int = LOCAL_ENUM_BUDGET) -> Fraction:
    """sum_{j<=k} p^{-jn} sum_{(a,p^j)=1} S_{p^j,a,0} computed exactly.

    The inner sum over units is a Ramanujan sum in C(x), so each x mod p^j
    contributes phi(p^j), -p^{j-1}, or 0 according to whether p^j, exactly
    p^{j-1}, or less divides C(x).  Direct enumeration per level keeps this
    route independent of local_density's lifting and convolution routes.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = C.n
    total = Fraction(1)
    for j in range(1, k + 1):
        pj = p**j
        if pj**n > budget:
            raise ResourceLimit(f"enumeration of p^(jn) = {pj**n} residues exceeds budget")
        a_full = 0
        b_div = 0
        for coords in slabs(np.arange(pj, dtype=np.int64), n):
            vals = cubic_mod(C, coords, pj)
            a_full += int(np.count_nonzero(vals == 0))
            b_div += int(np.count_nonzero(vals % p ** (j - 1) == 0))
        t_j = p ** (j - 1) * (p * a_full - b_div)
        total += Fraction(t_j, pj**n)
    return total


# ---------------------------------------------------------------------------
# Truncated singular series


def singular_series_truncated(C: CubicForm, Q: int,
                              budget: int = LOCAL_ENUM_BUDGET
                              ) -> Tuple[float, List[Tuple[int, float]]]:
    """Partial sum over q <= Q of q^{-n} sum_{(a,q)=1} S_{q,a,0}.

    Conjugate pairing a <-> q - a makes every q-term real; the imaginary
    residue is asserted below 1e-9.  Each q-term sums the vector of
    S_{q,a,0} over all a (``_sums_over_a``) over the units; the vectors of
    prime powers and of the form's blocks are cached for the call, so a
    composite q costs O(q).
    """
    if Q < 1:
        raise ValueError("Q must be at least 1")
    n = C.n
    terms: List[Tuple[int, float]] = [(1, 1.0)]
    total = 1.0
    cache: Dict[tuple, Tuple[np.ndarray, int]] = {}
    for q in range(2, Q + 1):
        values, _ = _sums_over_a(C, q, [0] * n, budget, cache)
        units = np.gcd(np.arange(q), q) == 1
        term = complex(np.sum(values[units])) / q**n
        if abs(term.imag) > 1e-9:
            raise ArithmeticError(f"q-term imaginary part {term.imag:.3g} exceeds 1e-9 at q={q}")
        terms.append((q, term.real))
        total += term.real
    return total, terms


def euler_product_partial(C: CubicForm, depths: Dict[int, int],
                          budget: int = LOCAL_ENUM_BUDGET) -> Fraction:
    """prod_p local_factor_via_sums(C, p, depths[p]), exact."""
    out = Fraction(1)
    for p in sorted(depths):
        out *= local_factor_via_sums(C, p, depths[p], budget)
    return out


# ---------------------------------------------------------------------------
# Nonsingular p-adic zeros


@dataclass(frozen=True)
class PadicCertificate:
    """A residue vector a with C(a) = 0 mod p^m whose gradient valuation t
    leaves Newton slack m - 2t >= 1, so the zero lifts to Z_p."""

    p: int
    a: Tuple[int, ...]
    m: int
    t: int
    slack: int

    def __post_init__(self):
        if self.slack < 1:
            raise ValueError("certificate needs slack m - 2t >= 1")

    def verify(self, C: CubicForm) -> bool:
        """Re-check with fresh arithmetic, independent of the search."""
        pm = self.p**self.m
        if eval_cubic(C, self.a) % pm != 0:
            return False
        t = _vector_valuation(grad_cubic(C, self.a), self.p, self.m)
        return t == self.t and self.m - 2 * t == self.slack


def _valuation_capped(value: int, p: int, cap: int) -> int:
    value %= p**cap
    if value == 0:
        return cap
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


def _vector_valuation(vec: Sequence[int], p: int, cap: int) -> int:
    return min(_valuation_capped(int(v), p, cap) for v in vec)


def find_nonsingular_padic_zero(C: CubicForm, p: int, m_max: int,
                                budget: int = LOCAL_ENUM_BUDGET
                                ) -> Optional[PadicCertificate]:
    """Search residues mod p^m for increasing m <= m_max; return the first
    certificate in (m, lex) order, or None.  Absence is not a disproof."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    sols: Optional[np.ndarray] = None
    for m in range(1, m_max + 1):
        if sols is None:
            sols = _solutions_mod_p(C, p, budget)
        else:
            sols = _lift_solutions(C, p, sols, m, budget)
        order = np.lexsort(tuple(sols[:, j] for j in reversed(range(C.n))))
        sols = sols[order]
        for row in sols:
            a = tuple(int(v) for v in row)
            t = _vector_valuation(grad_cubic(C, a), p, m)
            if m - 2 * t >= 1:
                return PadicCertificate(p=p, a=a, m=m, t=t, slack=m - 2 * t)
    return None


def hensel_lift_step(C: CubicForm, cert: PadicCertificate) -> Tuple[int, ...]:
    """One Newton step: a solution mod p^(m+1) congruent to cert.a mod p^m.

    With C(a) = 0 mod p^m, gradient valuation t, and m >= 2t + 1, adjusting
    coordinate j (where the valuation is attained) by p^(m-t) s with
    s = -(C(a)/p^m) / (dC_j(a)/p^t) mod p produces the lift.
    """
    p, m, t = cert.p, cert.m, cert.t
    grad = grad_cubic(C, cert.a)
    j = next(i for i, gv in enumerate(grad) if _valuation_capped(int(gv), p, m) == t)
    unit = (grad[j] // p**t) % p
    c_red = (eval_cubic(C, cert.a) // p**m) % p
    s = (-c_red * pow(unit, -1, p)) % p
    lifted = list(cert.a)
    lifted[j] = (lifted[j] + p ** (m - t) * s) % p ** (m + 1)
    out = tuple(lifted)
    if eval_cubic(C, out) % p ** (m + 1) != 0:
        raise AssertionError("Newton step failed; certificate slack was wrong")
    return out


# ---------------------------------------------------------------------------
# Positivity report


@dataclass(frozen=True)
class PositivityReport:
    partial_sum: float
    Q: int
    per_q: Tuple[Tuple[int, float], ...]
    certificates: Dict[int, Optional[PadicCertificate]]
    searched_m_max: int
    tail_exponent: float
    tail_heuristic: Optional[float]
    observed_sum_constant: float
    note: str


def positivity_report(C: CubicForm, pmax: int, m_max: int, Q: int,
                      h_lower: int = 1, psi: float = 0.25,
                      budget: int = LOCAL_ENUM_BUDGET) -> PositivityReport:
    """Bundle per-prime nonsingular-zero certificates, the truncated series,
    and a clearly-heuristic tail estimate.

    The tail uses the observed constant from the complete-sum ratio scan with
    the certified h lower bound: sum_{q>Q} c_obs * q^(1 - h/8 + psi), summed
    when the exponent is below -1 and reported as unquantified otherwise.
    A missing certificate means "not found within m_max", never "impossible".
    """
    certs: Dict[int, Optional[PadicCertificate]] = {}
    for p in _primes_up_to(pmax):
        certs[p] = find_nonsingular_padic_zero(C, p, m_max, budget)
    partial, per_q = singular_series_truncated(C, Q, budget)
    scan = sbound_check(C, h_lower, min(Q, 12), psi)
    exponent = 1 - h_lower / 8 + psi
    if exponent < -1:
        # zeta-style tail: sum_{q > Q} q^exponent, completed by an integral bound
        tail = 0.0
        for q in range(Q + 1, Q + 1001):
            tail += q**exponent
        tail += (Q + 1000) ** (exponent + 1) / (-exponent - 1)
        tail_heuristic: Optional[float] = scan.max_ratio * tail
        note = "tail is heuristic: observed constant, certified h lower bound"
    else:
        tail_heuristic = None
        note = (f"tail unquantified: exponent {exponent:.3f} >= -1 "
                f"(needs h_lower > {8 * (2 + psi):.0f})")
    missing = [p for p, c in certs.items() if c is None]
    if missing:
        note += f"; no certificate found for p in {missing} (not a disproof)"
    return PositivityReport(
        partial_sum=partial, Q=Q, per_q=tuple(per_q), certificates=certs,
        searched_m_max=m_max, tail_exponent=exponent, tail_heuristic=tail_heuristic,
        observed_sum_constant=scan.max_ratio, note=note,
    )
