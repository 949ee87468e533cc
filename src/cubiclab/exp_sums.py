"""Complete exponential sums mod q, weighted/unweighted generating sums,
oscillatory integrals with certified-tolerance quadrature, the Poisson
decomposition residual, and the rational-approximation quality functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._grid import (cubic_mod, cubic_values, diag_coeffs, gl_nodes, is_diagonal,
                    linear_mod, slabs, w1)
from ._trig import cis
from .errors import DimensionMismatch, ResourceLimit, ToleranceNotMet
from .forms_core import CubicForm, LinearSystem
from .lattice_enum import _subform, additive_split, weight_w

COMPLETE_SUM_BUDGET = 100_000_000
G_SUM_BUDGET = 1_000_000_000
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ExpSumValue:
    """A complex value with an attached absolute-error bound (0 means exact up
    to the stated envelope; quadrature and Monte Carlo attach their bounds)."""

    value: complex
    abs_error: float = 0.0

    def __post_init__(self):
        if not (self.abs_error >= 0):
            raise ValueError("abs_error must be nonnegative")

    @property
    def re(self) -> float:
        return self.value.real

    @property
    def im(self) -> float:
        return self.value.imag


def nearest_int(x: float) -> int:
    """Nearest integer, rounding halves down (toward minus infinity)."""
    f = math.floor(x)
    return f + 1 if x - f > 0.5 else f


# ---------------------------------------------------------------------------
# Complete sums mod q


def _check_sum_args(C: CubicForm, q: int, avec: Sequence[int], budget: int) -> None:
    if q**C.n > budget:
        raise ResourceLimit(f"complete sum over q^n = {q**C.n} residues exceeds budget {budget}")
    if len(avec) != C.n:
        raise DimensionMismatch("avec length must equal n")


def _phase_histogram(C: CubicForm, q: int, a: int, avec: Sequence[int],
                     budget: int) -> np.ndarray:
    """Counts of (a*C(y) + avec . y) mod q over y in (Z/q)^n.

    Collapsing to a histogram keeps the float work at O(q) regardless of q^n.
    """
    _check_sum_args(C, q, avec, budget)
    a_mod = a % q
    avec_mod = [v % q for v in avec]
    hist = np.zeros(q, dtype=np.int64)
    for coords in slabs(np.arange(q, dtype=np.int64), C.n):
        phase = (a_mod * cubic_mod(C, coords, q) + linear_mod(avec_mod, coords, q)) % q
        hist += np.bincount(np.ravel(phase), minlength=q)[:q]
    return hist


def _residue_counts(C: CubicForm, q: int) -> np.ndarray:
    """Counts of C(y) mod q over (Z/q)^n, unguarded.  An additive split
    C = C_A + C_B makes them the cyclic convolution of the blocks' counts."""
    split = additive_split(C)
    if split is None:
        hist = np.zeros(q, dtype=np.int64)
        for coords in slabs(np.arange(q, dtype=np.int64), C.n):
            hist += np.bincount(np.ravel(cubic_mod(C, coords, q)), minlength=q)
        return hist
    ha, hb = (_residue_counts(_subform(C, side), q) for side in split)
    full = np.convolve(ha, hb)          # exact int64
    hist = full[:q].copy()
    hist[:q - 1] += full[q:]
    return hist


def residue_histogram(C: CubicForm, q: int, budget: int = COMPLETE_SUM_BUDGET) -> np.ndarray:
    """Counts of C(y) mod q over (Z/q)^n."""
    _check_sum_args(C, q, [0] * C.n, budget)
    return _residue_counts(C, q)


def _factorize(q: int) -> List[Tuple[int, int]]:
    out = []
    d = 2
    while d * d <= q:
        if q % d == 0:
            e = 0
            while q % d == 0:
                q //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if q > 1:
        out.append((q, 1))
    return out


def _prime_power_sums(C: CubicForm, q: int, avec_mod: Tuple[int, ...]) -> np.ndarray:
    """S_{q,a,avec} for every a mod q from one pass over (Z/q)^n.

    h[c] sums e_q(avec . y) over the y with C(y) = c mod q (the integer counts
    when avec = 0); then S_{q,a,avec} = sum_c h[c] e_q(a c) for all a at once
    is an unnormalized inverse DFT of length q.
    """
    if not any(avec_mod):
        h = _residue_counts(C, q).astype(complex)
    else:
        roots = np.exp(2j * np.pi * np.arange(q) / q)
        h = np.zeros(q, dtype=complex)
        for coords in slabs(np.arange(q, dtype=np.int64), C.n):
            cvals = np.ravel(cubic_mod(C, coords, q))
            w = roots[np.ravel(linear_mod(avec_mod, coords, q))]
            h += np.bincount(cvals, weights=w.real, minlength=q)
            h += 1j * np.bincount(cvals, weights=w.imag, minlength=q)
    return np.fft.ifft(h, norm="forward")


def _sum_vector(C: CubicForm, q: int, avec: Sequence[int],
                cache: Dict[tuple, Tuple[np.ndarray, int]]) -> Tuple[np.ndarray, int]:
    """(S_{q,a,avec} for a = 0..q-1, number of base sums multiplied into it).

    Exact reductions, applied recursively:
      additive split  C = C_A + C_B: S = S_A(avec_A) * S_B(avec_B), for every a;
      coprime moduli  q = q1 q2: S(q, a) = S(q1, a q2^2) * S(q2, a q1^2), avec
                      unchanged (y = q2 y1 + q1 y2; the cross terms of the
                      cubic vanish mod q), for every a;
      base case       q a prime power and C without a split.
    ``cache`` is keyed by (block, modulus, reduced avec) and lives for one call.
    """
    avec_mod = tuple(v % q for v in avec)
    key = (C.n, tuple(sorted(C.coeffs.items())), q, avec_mod)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if (split := additive_split(C)) is not None:
        values, leaves = np.ones(q, dtype=complex), 0
        for side in split:
            v, l = _sum_vector(_subform(C, side), q, [avec_mod[i - 1] for i in side], cache)
            values, leaves = values * v, leaves + l
        out = (values, leaves)
    elif len(factors := _factorize(q)) > 1:
        p, e = factors[0]
        q1 = p**e
        q2 = q // q1
        a = np.arange(q, dtype=np.int64)
        v1, l1 = _sum_vector(C, q1, avec_mod, cache)
        v2, l2 = _sum_vector(C, q2, avec_mod, cache)
        out = (v1[(a % q1) * (q2 * q2 % q1) % q1] * v2[(a % q2) * (q1 * q1 % q2) % q2],
               l1 + l2)
    else:
        out = (_prime_power_sums(C, q, avec_mod), 1)
    cache[key] = out
    return out


def _sums_over_a(C: CubicForm, q: int, avec: Sequence[int], budget: int,
                 cache: Dict[tuple, Tuple[np.ndarray, int]]) -> Tuple[np.ndarray, int]:
    """``_sum_vector`` behind the same guards as the direct route."""
    _check_sum_args(C, q, avec, budget)
    return _sum_vector(C, q, avec, cache)


def _complete_sum_direct(C: CubicForm, q: int, a: int, avec: Sequence[int],
                         budget: int = COMPLETE_SUM_BUDGET) -> ExpSumValue:
    """S_{q,a,avec} from the phase histogram over all q^n residues: the
    structure-blind route, kept as the oracle for ``complete_sum``."""
    if q < 1:
        raise ValueError("q must be positive")
    if q == 1:
        return ExpSumValue(1 + 0j, 0.0)
    hist = _phase_histogram(C, q, a, avec, budget)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    value = complex(np.dot(hist.astype(float), roots))
    return ExpSumValue(value, abs_error=q**C.n * 4 * _EPS)


def complete_sum(C: CubicForm, q: int, a: int, avec: Sequence[int],
                 budget: int = COMPLETE_SUM_BUDGET) -> ExpSumValue:
    """S_{q,a,avec} = sum over y mod q of e_q(a C(y) + avec . y), exactly
    (abs_error covers only floating-point roundoff: q^n 4 eps per base sum
    multiplied in).  Computed through additive splits and coprime moduli
    (see ``_sum_vector``); ``budget`` still bounds q^n."""
    if q < 1:
        raise ValueError("q must be positive")
    if q == 1:
        return ExpSumValue(1 + 0j, 0.0)
    values, leaves = _sums_over_a(C, q, avec, budget, {})
    return ExpSumValue(complex(values[a % q]), abs_error=q**C.n * 4 * _EPS * leaves)


def complete_sum_crt(C: CubicForm, q: int, a: int, avec: Sequence[int],
                     budget: int = COMPLETE_SUM_BUDGET) -> ExpSumValue:
    """S_{q,a,avec} as a product over prime powers p^e || q, each factor
    summed directly.

    Splitting y across coprime moduli multiplies the sum; the cubic part picks
    up the square of the complementary modulus in each factor's numerator,
    while the linear part passes through unchanged.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if math.gcd(a, q) != 1:
        raise ValueError("need gcd(a, q) = 1 for the CRT factorization")
    if q == 1:
        return ExpSumValue(1 + 0j, 0.0)
    factors = _factorize(q)
    value = 1 + 0j
    for p, e in factors:
        pe = p**e
        cof = q // pe
        a_pe = (a * cof * cof) % pe
        value *= _complete_sum_direct(C, pe, a_pe, avec, budget).value
    return ExpSumValue(value, abs_error=q**C.n * 4 * _EPS * len(factors))


@dataclass(frozen=True)
class SboundRow:
    q: int
    a: int
    avec: Tuple[int, ...]
    abs_sum: float
    ratio: float


@dataclass(frozen=True)
class SboundReport:
    exponent: float
    max_ratio: float
    witness: SboundRow
    per_q: Tuple[SboundRow, ...]


def sbound_check(C: CubicForm, h_lower: int, qmax: int, psi: float,
                 avec_samples: Optional[Sequence[Sequence[int]]] = None,
                 budget: int = COMPLETE_SUM_BUDGET) -> SboundReport:
    """Scan |S_{q,a,avec}| / q^(n - h_lower/8 + psi) over q <= qmax and report
    the worst observed ratio.  Diagnostic of the implied constant only; no
    pass/fail meaning.  All a mod q come from one ``_sum_vector`` per
    (q, avec), sharing its cache across the scan.
    """
    n = C.n
    if avec_samples is None:
        avec_samples = [[0] * n, [1] + [0] * (n - 1), [1] * n]
    exponent = n - h_lower / 8 + psi
    rows: List[SboundRow] = []
    best: Optional[SboundRow] = None
    cache: Dict[tuple, Tuple[np.ndarray, int]] = {}
    for q in range(1, qmax + 1):
        if q == 1:
            sums = [np.ones(1, dtype=complex)] * len(avec_samples)
        else:
            sums = [_sums_over_a(C, q, avec, budget, cache)[0] for avec in avec_samples]
        q_best: Optional[SboundRow] = None
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            for avec, values in zip(avec_samples, sums):
                s = abs(complex(values[a % q]))
                row = SboundRow(q, a, tuple(avec), s, s / q**exponent)
                if q_best is None or row.ratio > q_best.ratio:
                    q_best = row
        if q_best is not None:
            rows.append(q_best)
            if best is None or q_best.ratio > best.ratio:
                best = q_best
    assert best is not None
    return SboundReport(exponent=exponent, max_ratio=best.ratio, witness=best, per_q=tuple(rows))


# ---------------------------------------------------------------------------
# Generating sums over boxes


def sum_g(C: CubicForm, P: float, alpha0: float, lam: Sequence[float],
          weighted: bool, budget: int = G_SUM_BUDGET) -> ExpSumValue:
    """g(alpha0, lambda) = sum over |x| < P of [w(x/P)] e(alpha0 C(x) + lambda . x).

    The support box is |x| <= ceil(P) - 1 for both the weighted and unweighted
    variants (the weight vanishes outside it anyway).
    """
    if P < 1:
        raise ValueError("P must be at least 1")
    if len(lam) != C.n:
        raise DimensionMismatch("lambda length must equal n")
    B = math.ceil(P) - 1
    n = C.n
    box = (2 * B + 1) ** n
    if box > budget:
        raise ResourceLimit(f"g sum over {box} points exceeds budget {budget}")
    axis = np.arange(-B, B + 1, dtype=np.int64)
    lam_arr = np.asarray(lam, dtype=float)
    total = 0 + 0j
    max_phase = 0.0
    for coords in slabs(axis, n):
        fcoords = [x.astype(float) for x in coords]
        phase = alpha0 * cubic_values(C, fcoords)
        for d in range(n):
            phase = phase + lam_arr[d] * fcoords[d]
        max_phase = max(max_phase, float(np.abs(phase).max(initial=0.0)))
        terms = cis(phase)
        if weighted:
            pts = np.stack([np.broadcast_to(x, phase.shape).ravel() for x in fcoords], axis=1) / P
            terms = terms.ravel() * weight_w(pts)
        total += complex(np.sum(terms))
    err = box * _EPS * (4 + 2 * math.pi * max_phase)
    return ExpSumValue(total, abs_error=err)


# ---------------------------------------------------------------------------
# Oscillatory integrals


def _osc_axis(c3: float, g: float, tol: float, weighted: bool,
              max_nodes: int = 400_000) -> Tuple[complex, float]:
    """integral over [-1,1] of [w(t)] e(c3 t^3 + g t) dt by panel doubling."""
    cycles = (3 * abs(c3) + abs(g))  # max phase derivative, in cycles per unit
    panels = max(8, int(math.ceil(2 * cycles)))
    prev = None
    while panels * 12 <= max_nodes:
        nodes, wts = gl_nodes(panels, 12, -1.0, 1.0)
        f = cis(c3 * nodes**3 + g * nodes)
        if weighted:
            f = f * w1(nodes)
        val = complex(np.sum(f * wts))
        if prev is not None:
            est = abs(val - prev)
            if est <= tol:
                return val, est
        prev = val
        panels *= 2
    raise ToleranceNotMet(f"1-d oscillatory panel budget hit before tol={tol}")


def _osc_integral(C: CubicForm, gamma0: float, gamma: Sequence[float], tol: float,
                  weighted: bool, method: str, max_points: int) -> ExpSumValue:
    n = C.n
    if len(gamma) != n:
        raise DimensionMismatch("gamma length must equal n")
    if method == "auto":
        if is_diagonal(C):
            method = "separable"
        elif n <= 4:
            method = "tensor"
        else:
            method = "mc"
    if method == "separable":
        if not is_diagonal(C):
            raise ValueError("separable quadrature needs a diagonal form")
        axis_bound = 0.444 if weighted else 2.0
        amp = max(1.0, axis_bound) ** (n - 1)
        tol_axis = tol / (n * amp)
        diag = diag_coeffs(C)
        value = 1 + 0j
        err = 0.0
        for d in range(n):
            v, e = _osc_axis(gamma0 * diag[d], float(gamma[d]), tol_axis, weighted)
            value *= v
            err += e * amp
        return ExpSumValue(value, abs_error=err)
    if method == "tensor":
        if n > 4:
            raise ResourceLimit("tensor quadrature limited to n <= 4; use method='mc'")
        coeff_sum = sum(abs(c) for c in C.coeffs.values())
        cycles = 3 * abs(gamma0) * coeff_sum + max((abs(g) for g in gamma), default=0.0)
        panels = max(4, int(math.ceil(1.5 * cycles)))
        prev = None
        while (panels * 8) ** n <= max_points:
            nodes, wts = gl_nodes(panels, 8, -1.0, 1.0)
            grids = np.meshgrid(*([nodes] * n), indexing="ij")
            phase = gamma0 * cubic_values(C, grids)
            for d in range(n):
                phase = phase + float(gamma[d]) * grids[d]
            f = cis(phase)
            if weighted:
                for d in range(n):
                    f = f * w1(grids[d])
            wprod = wts
            for _ in range(n - 1):
                wprod = np.multiply.outer(wprod, wts)
            val = complex(np.sum(f * wprod))
            if prev is not None:
                est = abs(val - prev)
                if est <= tol:
                    return ExpSumValue(val, abs_error=est)
            prev = val
            panels *= 2
        raise ToleranceNotMet(f"tensor quadrature budget hit before tol={tol}")
    if method == "mc":
        from scipy.stats import qmc
        m = 18
        sampler = qmc.Sobol(d=n, scramble=True, seed=12345)
        pts = sampler.random_base2(m) * 2.0 - 1.0
        phase = gamma0 * cubic_values(C, pts.T)
        phase = phase + pts @ np.asarray(gamma, dtype=float)
        f = cis(phase)
        if weighted:
            f = f * weight_w(pts)
        vol = 2.0**n
        batches = f.reshape(64, -1).mean(axis=1) * vol
        value = complex(batches.mean())
        stderr = float(np.abs(batches - batches.mean()).std() / math.sqrt(64))
        return ExpSumValue(value, abs_error=3 * stderr)
    raise ValueError(f"unknown method {method!r}")


def osc_integral_I(C: CubicForm, gamma0: float, gamma: Sequence[float], tol: float = 1e-8,
                   method: str = "auto", max_points: int = 20_000_000) -> ExpSumValue:
    """I(gamma0, gamma) = integral of w(x) e(gamma0 C(x) + gamma . x) over R^n
    (support [-1,1]^n), with |value - true| <= abs_error <= tol for the
    deterministic methods."""
    return _osc_integral(C, gamma0, gamma, tol, weighted=True, method=method,
                         max_points=max_points)


def osc_integral_Iu(C: CubicForm, gamma0: float, gamma: Sequence[float], tol: float = 1e-8,
                    method: str = "auto", max_points: int = 20_000_000) -> ExpSumValue:
    """I_u(gamma0, gamma) = integral over the box [-1,1]^n without the weight."""
    return _osc_integral(C, gamma0, gamma, tol, weighted=False, method=method,
                         max_points=max_points)


def poisson_residual(C: CubicForm, P: float, alpha0: float, lam: Sequence[float],
                     c_cutoff: int, tol_inner: float = 1e-7) -> float:
    """|g(alpha0, lambda) - P^n sum over |c| <= cutoff of I(P^3 alpha0, P lambda - P c)|.

    The identity is exact with the sum over all c; the returned residual is
    the truncation tail plus quadrature error, so it should be small when
    alpha0 and lambda are small.
    """
    n = C.n
    if n > 2:
        raise ResourceLimit("poisson residual limited to n <= 2 (quadrature cost)")
    g = sum_g(C, P, alpha0, lam, weighted=True)
    total = 0 + 0j
    from itertools import product as iproduct
    for cvec in iproduct(range(-c_cutoff, c_cutoff + 1), repeat=n):
        gamma = [P * (lam[d] - cvec[d]) for d in range(n)]
        total += osc_integral_I(C, P**3 * alpha0, gamma, tol=tol_inner).value
    return abs(g.value - P**n * total)


# ---------------------------------------------------------------------------
# Rational-approximation quality functional


def irrationality_F(Lsys: LinearSystem, alpha: Sequence[float], P: float
                    ) -> Tuple[float, Tuple[int, Tuple[int, ...]]]:
    """Exact supremum over q >= 1 and integer vectors a of
    prod_v (q + P |q lambda_v - a_v|)^{-1}, with lambda = alpha . rows.

    Each factor is at most 1/q, so only q with q^{-n} above the running best
    can win; for each q the optimal a is the nearest-integer vector.
    Returns (value, (q, avec)) with the smallest maximizing q.
    """
    if P < 1:
        raise ValueError("P must be at least 1")
    if len(alpha) != Lsys.r:
        raise DimensionMismatch("alpha length must equal r")
    n = Lsys.n
    lam = Lsys.matrix().T @ np.asarray(alpha, dtype=float) if Lsys.r else np.zeros(n)
    best = -1.0
    witness: Tuple[int, Tuple[int, ...]] = (1, tuple([0] * n))
    q = 1
    while True:
        if best > 0 and q**-n <= best:
            break
        avec = tuple(nearest_int(q * l) for l in lam)
        val = 1.0
        for v in range(n):
            val /= q + P * abs(q * lam[v] - avec[v])
        if val > best:
            best = val
            witness = (q, avec)
        q += 1
    return best, witness
