"""Truncated singular series, exact p-adic local densities, their mutual
consistency, and nonsingular p-adic zero certificates.

Two independent routes compute each local quantity: one lift of the
singular roots (``_singular_lift``, which the certificate search shares),
and the Ramanujan-sum classification of the residue histogram of C mod p^j.
The two must agree as exact rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _grid
from ._grid import box_points, cubic_mod, exact_dtype, reduce_mod, residue_slabs
from .exp_sums import _is_prime, _sum_vector, check_h_lower_psi, residue_histogram, sbound_check
from .forms_core import CubicForm, eval_cubic, grad_cubic


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


def _solutions_mod_p(C: CubicForm, p: int) -> np.ndarray:
    """The roots of C mod p in [0, p)^n as int64 rows in lex order: the
    lex indices of the roots are kept slab by slab of the residue walk
    (``residue_slabs``), and only they become rows."""
    n = C.n
    _grid.charge("residues", p**n, "enumeration of p^n")
    hits = [np.flatnonzero(vals == 0) + y1 * p ** (n - 1)
            for y1, (_, vals) in enumerate(residue_slabs(C, p))]
    return np.stack(np.unravel_index(np.concatenate(hits), (p,) * n), axis=1)


def _singular_lift(C: CubicForm, p: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(the regular roots mod p, S_L) for L = 1, 2, ..., each level formed
    when asked for: S_1 the singular roots mod p (gradient 0 mod p), S_L the
    representatives mod p^(L-1) of the singular roots with C = 0 mod p^L.
    As C(x + p^j y) = C(x) + p^j grad C(x) . y mod p^(j+1) for j >= 1, S_2 is
    S_1 filtered mod p^2, and S_(L+1) the p^n lifts of S_L filtered mod
    p^(L+1) (``_lift_chunks``).

    The gradient mod p is ``grad_cubic`` of C reduced mod p on the roots'
    columns, exact in ``exact_dtype`` of its bound 3 sum(c mod p) (p-1)^2."""
    roots = _solutions_mod_p(C, p)
    Cp = reduce_mod(C, p)
    cols = roots.T.astype(exact_dtype(3 * sum(Cp.coeffs.values()) * (p - 1) ** 2), copy=False)
    singular = np.ones(len(roots), dtype=bool)
    for g in grad_cubic(Cp, cols):
        singular &= g % p == 0
    regular, S = roots[~singular], roots[singular]
    yield regular, S
    S = S[cubic_mod(C, S.T, p**2) == 0]
    for level in itertools.count(2):
        yield regular, S
        S = np.concatenate([S[:0], *_lift_chunks(C, p, S, level)])


def _lift_chunks(C: CubicForm, p: int, S: np.ndarray, level: int) -> Iterator[np.ndarray]:
    """S_(level+1) from S = S_level (level >= 2), in the order of one lift of
    all of S, as the pieces that the chunks of S leave: the p^n lifts
    x + p^(level-1) y of BLOCK // p^n roots at a time (one at least),
    filtered mod p^(level+1) before the next chunk is lifted.  The work,
    |S| p^n lifts, is charged before any chunk."""
    n = C.n
    _grid.charge("residues", len(S) * p**n, "lifts of the singular roots, |S| p^n")
    step = box_points(np.arange(p, dtype=np.int64), n) * p ** (level - 1)
    rows = max(1, _grid.BLOCK // p**n)
    for start in range(0, len(S), rows):
        lifts = (S[start:start + rows, None, :] + step).reshape(-1, n)
        yield lifts[cubic_mod(C, lifts.T, p ** (level + 1)) == 0]


def check_depth(k: int) -> None:
    """Refuse a depth of ``local_density`` below 1, before any work."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def local_density(C: CubicForm, p: int, k: int) -> LocalDensity:
    """sigma = p^{-k(n-1)} * #{x mod p^k : C(x) = 0 mod p^k}, exact.

    By Hensel's lemma a regular root mod p has p^((n-1)(k-1)) lifts mod p^k,
    and for k >= 2 each element of S_k (``_singular_lift``) stands for its
    p^n lifts; the last level is counted without lifting.  For k >= 3, S_k is
    counted chunk by chunk as S_(k-1) is lifted (``_lift_chunks``), and never
    held.  The tests' oracle enumerates every level by residue lifting."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    check_depth(k)
    n = C.n
    lifted = k >= 3     # S_k is counted as S_(k-1) is lifted
    regular, S = next(itertools.islice(_singular_lift(C, p), k - 1 - lifted, None))
    last = sum(len(kept) for kept in _lift_chunks(C, p, S, k - 1)) if lifted else len(S)
    zeros = len(regular) * p ** ((n - 1) * (k - 1)) + last * (p**n if k > 1 else 1)
    return LocalDensity(p=p, k=k, sigma=Fraction(zeros, p ** (k * (n - 1))), solutions=zeros)


def local_factor_via_sums(C: CubicForm, p: int, k: int) -> Fraction:
    """sum_{j<=k} p^{-jn} sum_{(a,p^j)=1} S_{p^j,a,0} computed exactly.

    The inner sum over units is a Ramanujan sum in C(x), so each x mod p^j
    contributes phi(p^j), -p^{j-1}, or 0 according to whether p^j, exactly
    p^{j-1}, or less divides C(x), counted from the residue histogram of
    C mod p^j: independent of local_density's Hensel count.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = Fraction(1)
    for j in range(1, k + 1):
        hist = residue_histogram(C, p**j)
        t_j = p ** (j - 1) * (p * int(hist[0]) - int(hist[::p ** (j - 1)].sum()))
        total += Fraction(t_j, p ** (j * C.n))
    return total


# ---------------------------------------------------------------------------
# Truncated singular series


def check_Q(Q: int) -> None:
    if Q < 1:
        raise ValueError(f"Q must be at least 1, got {Q}")


def singular_series_truncated(C: CubicForm, Q: int,
                              cache: Optional[Dict[tuple, Tuple[np.ndarray, int]]] = None
                              ) -> Tuple[float, List[Tuple[int, float]]]:
    """Partial sum over q <= Q of q^{-n} sum_{(a,q)=1} S_{q,a,0}.

    Conjugate pairing a <-> q - a makes every q-term real; the imaginary
    residue is asserted below 1e-9.  Each q-term sums the vector of
    S_{q,a,0} over all a (``_sum_vector``) over the units; the vectors of
    prime powers and of the form's blocks are cached, so a composite q costs
    O(q).  The cache lives for the call unless one is passed in (see
    ``sbound_check``).
    """
    check_Q(Q)
    n = C.n
    terms: List[Tuple[int, float]] = [(1, 1.0)]
    total = 1.0
    cache = {} if cache is None else cache
    for q in range(2, Q + 1):
        values, _ = _sum_vector(C, q, [0] * n, cache)
        units = np.gcd(np.arange(q), q) == 1
        term = complex(np.sum(values[units])) / q**n
        if abs(term.imag) > 1e-9:
            raise ArithmeticError(f"q-term imaginary part {term.imag:.3g} exceeds 1e-9 at q={q}")
        terms.append((q, term.real))
        total += term.real
    return total, terms


def euler_product_partial(C: CubicForm, depths: Dict[int, int]) -> Fraction:
    """prod_p local_factor_via_sums(C, p, depths[p]), exact."""
    out = Fraction(1)
    for p in sorted(depths):
        out *= local_factor_via_sums(C, p, depths[p])
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


def check_m_max(m_max: int) -> None:
    """Refuse a certificate search with no level to search, before any work."""
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")


def find_nonsingular_padic_zero(C: CubicForm, p: int, m_max: int) -> Optional[PadicCertificate]:
    """Search residues mod p^m for increasing m <= m_max; return the first
    certificate in (m, lex) order, or None.  Absence is not a disproof.
    An m_max below 1 searches nothing and raises ValueError.

    Only odd m are scanned: a certificate at an even level m reduces mod
    p^(m-1) to one at m - 1, its gradient valuation t <= m/2 - 1 unchanged.
    At m = 1 they are the regular roots; past it every root is x + p^(m-1) y
    with x in S_m (``_singular_lift``), of x's valuation while that is at
    most m - 2, so the first certificate is the first certifying x.  It is
    re-checked (``PadicCertificate.verify``) before it is returned, and a
    failed re-check raises AssertionError."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    check_m_max(m_max)
    odd_levels = itertools.islice(_singular_lift(C, p), 0, None, 2)
    for m, (regular, S) in zip(range(1, m_max + 1, 2), odd_levels):  # no lift past m_max
        roots = regular if m == 1 else S
        for row in roots[np.lexsort(roots.T[::-1])]:
            a = tuple(int(v) for v in row)
            t = _vector_valuation(grad_cubic(C, a), p, m)
            if m - 2 * t >= 1:
                cert = PadicCertificate(p=p, a=a, m=m, t=t, slack=m - 2 * t)
                if not cert.verify(C):
                    raise AssertionError(f"p-adic certificate {cert} fails its re-check")
                return cert
    return None


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
                      h_lower: int = 1, psi: float = 0.25) -> PositivityReport:
    """Bundle per-prime nonsingular-zero certificates, the truncated series,
    and a clearly-heuristic tail estimate.

    The tail uses the observed constant from the complete-sum ratio scan with
    the certified h lower bound: sum_{q>Q} c_obs * q^(1 - h/8 + psi), summed
    when the exponent is below -1 and reported as unquantified otherwise.
    A missing certificate means "not found within m_max", never "impossible".
    The series and the scan share one cache of complete-sum vectors, so each
    (block, q, avec) is summed once.
    """
    check_h_lower_psi(h_lower, psi)
    check_Q(Q)
    check_m_max(m_max)
    certs: Dict[int, Optional[PadicCertificate]] = {}
    for p in range(2, pmax + 1):
        if _is_prime(p):
            certs[p] = find_nonsingular_padic_zero(C, p, m_max)
    cache: Dict[tuple, Tuple[np.ndarray, int]] = {}
    partial, per_q = singular_series_truncated(C, Q, cache)
    scan = sbound_check(C, h_lower, min(Q, 12), psi, cache=cache)
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
