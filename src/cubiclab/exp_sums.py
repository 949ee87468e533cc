"""Complete exponential sums mod q, weighted/unweighted generating sums, and
the weighted oscillatory integral with certified-tolerance quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._grid import (BUDGETS, _subform, additive_split, charge, check_P, check_tol,
                    components, diag_coeffs, doubling, exact_dtype, gl_nodes, horner,
                    is_diagonal, line_coefficients, refine, residue_slabs, start_size, w1)
from ._trig import cis, cos_e
from .errors import DimensionMismatch
from .forms_core import CubicForm

INNER_TOL = 1e-7            # tolerance of each I(gamma0, gamma) inside an outer sum
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ExpSumValue:
    """A complex value with an attached absolute-error bound (0 means exact up
    to the stated envelope; quadrature attaches its own bound)."""

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


# ---------------------------------------------------------------------------
# Complete sums mod q


def _check_sum_args(C: CubicForm, avec: Sequence[int]) -> None:
    if len(avec) != C.n:
        raise DimensionMismatch("avec length must equal n")


def _phase_histogram(C: CubicForm, q: int, a: int, avec: Sequence[int]) -> np.ndarray:
    """Counts of (a*C(y) + avec . y) mod q over y in (Z/q)^n.

    Collapsing to a histogram keeps the float work at O(q) regardless of q^n.
    The phase is summed in int64 and reduced once: the q^n charge keeps its
    bound (n + 1) (q-1)^2 below 2^62.
    """
    _check_sum_args(C, avec)
    charge("residues", q**C.n, "complete sum over q^n")
    a_mod = a % q
    avec_mod = [v % q for v in avec]
    hist = np.zeros(q, dtype=np.int64)
    for coords, cvals in residue_slabs(C, q):
        phase = (a_mod * cvals + sum(v * y for v, y in zip(avec_mod, coords))) % q
        hist += np.bincount(np.ravel(phase), minlength=q)[:q]
    return hist


def _residue_counts(C: CubicForm, q: int, avec_mod: Sequence[int] = ()) -> np.ndarray:
    """h[c] = sum of e_q(avec . y) over y in (Z/q)^n with C(y) = c mod q: the
    integer counts without avec.  An additive split C = C_A + C_B makes them
    the cyclic convolution of the blocks' h, each with its part of avec,
    charging q^2 before the blocks are walked.

    Without a split, the walk charges q^n and reads the slabs y1 <= q/2
    alone: y -> -y maps the slab y1 onto the slab q - y1, C(y) to -C(y) and
    the phase to its conjugate (see ``_grid``), so each slab 0 < y1 < q/2
    adds its h at c and, conjugated, at -c mod q for its mirror.  The slab
    y1 = 0, and y1 = q/2 for even q, is its own mirror; for n = 1 the one
    slab is all of Z/q."""
    avec_mod = tuple(avec_mod) or (0,) * C.n
    split = additive_split(C)
    if split is None:
        charge("residues", q**C.n, "residue walk of a block, q^|block|")
        roots = np.exp(2j * np.pi * np.arange(q) / q) if any(avec_mod) else None
        own = np.zeros(q, dtype=np.int64 if roots is None else complex)
        paired = np.zeros_like(own)
        for y1, (coords, cvals) in enumerate(residue_slabs(C, q)):
            if 2 * y1 > q:
                break
            cvals = np.ravel(cvals)
            if roots is None:
                h = np.bincount(cvals, minlength=q)
            else:
                w = roots[np.ravel(sum(v * y for v, y in zip(avec_mod, coords)) % q)]
                h = np.bincount(cvals, w.real, q) + 1j * np.bincount(cvals, w.imag, q)
            if 0 < 2 * y1 < q:
                paired += h
            else:
                own += h
        return own + paired + np.conj(paired[-np.arange(q) % q])
    charge("residues", q * q, "cyclic convolution, q^2")
    ha, hb = (_residue_counts(_subform(C, side), q, [avec_mod[i - 1] for i in side])
              for side in split)
    full = np.convolve(ha, hb)          # exact int64 without avec
    hist = full[:q].copy()
    hist[:q - 1] += full[q:]
    return hist


def residue_histogram(C: CubicForm, q: int) -> np.ndarray:
    """Counts of C(y) mod q over (Z/q)^n (see ``_residue_counts``)."""
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


def _is_prime(p: int) -> bool:
    return _factorize(p) == [(p, 1)]


def _prime_power_sums(C: CubicForm, q: int, avec_mod: Tuple[int, ...]) -> np.ndarray:
    """S_{q,a,avec} for every a mod q from one walk over (Z/q)^n: with h the
    phased residue counts (``_residue_counts``), S_{q,a,avec} = sum_c h[c]
    e_q(a c) for all a at once is an unnormalized inverse DFT of length q.
    """
    return np.fft.ifft(_residue_counts(C, q, avec_mod).astype(complex), norm="forward")


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
    Each route holds vectors of length q, about one per block of its split
    tree, so n q (<= q^n) is charged before any is made or q is factorized;
    a residue walk charges its q^|block| (``_residue_counts``).
    """
    avec_mod = tuple(v % q for v in avec)
    key = (C.n, tuple(sorted(C.coeffs.items())), q, avec_mod)
    hit = cache.get(key)
    if hit is not None:
        return hit
    charge("residues", C.n * q, "sum vectors of a block, n q")
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


def _complete_sum_direct(C: CubicForm, q: int, a: int, avec: Sequence[int]) -> ExpSumValue:
    """S_{q,a,avec} from the phase histogram over all q^n residues: the
    structure-blind route, kept as the oracle for ``complete_sum``."""
    if q < 1:
        raise ValueError("q must be positive")
    if q == 1:
        return ExpSumValue(1 + 0j, 0.0)
    hist = _phase_histogram(C, q, a, avec)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    value = complex(np.dot(hist.astype(float), roots))
    return ExpSumValue(value, abs_error=q**C.n * 4 * _EPS)


def complete_sum(C: CubicForm, q: int, a: int, avec: Sequence[int]) -> ExpSumValue:
    """S_{q,a,avec} = sum over y mod q of e_q(a C(y) + avec . y), exactly
    (abs_error covers only floating-point roundoff: q^n 4 eps per base sum
    multiplied in).  Computed through additive splits and coprime moduli
    (see ``_sum_vector``), each step charging the residues it walks."""
    if q < 1:
        raise ValueError("q must be positive")
    if q == 1:
        return ExpSumValue(1 + 0j, 0.0)
    _check_sum_args(C, avec)
    values, leaves = _sum_vector(C, q, avec, {})
    return ExpSumValue(complex(values[a % q]), abs_error=q**C.n * 4 * _EPS * leaves)


def complete_sum_crt(C: CubicForm, q: int, a: int, avec: Sequence[int]) -> ExpSumValue:
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
        value *= _complete_sum_direct(C, pe, a_pe, avec).value
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


def check_h_lower_psi(h_lower: int, psi: float) -> None:
    """Refuse an h lower bound below 1 (h >= 1 for every nonzero form) and a
    psi that is not finite, naming the argument."""
    if not h_lower >= 1:
        raise ValueError(f"h_lower must be at least 1, got {h_lower}")
    if not math.isfinite(psi):
        raise ValueError(f"psi must be finite, got {psi}")


def sbound_check(C: CubicForm, h_lower: int, qmax: int, psi: float,
                 cache: Optional[Dict[tuple, Tuple[np.ndarray, int]]] = None) -> SboundReport:
    """Scan |S_{q,a,avec}| / q^(n - h_lower/8 + psi) over q <= qmax, a prime
    to q and avec = 0, (1, 0, ..., 0) and (1, ..., 1), and report the worst
    observed ratio.  Diagnostic of the implied constant only; no
    pass/fail meaning.  All a mod q come from one ``_sum_vector`` per
    (q, avec), sharing its cache across the scan.

    A ``cache`` passed in is shared with other callers (``positivity_report``
    passes the singular series' one).  A qmax below 1 has no q to scan and
    raises ValueError before any sum.
    """
    check_h_lower_psi(h_lower, psi)
    if not qmax >= 1:
        raise ValueError(f"qmax must be at least 1, got {qmax}")
    n = C.n
    avec_samples = [[0] * n, [1] + [0] * (n - 1), [1] * n]
    exponent = n - h_lower / 8 + psi
    rows: List[SboundRow] = []
    best: Optional[SboundRow] = None
    cache = {} if cache is None else cache
    for q in range(1, qmax + 1):
        if q == 1:
            sums = [np.ones(1, dtype=complex)] * len(avec_samples)
        else:
            sums = [_sum_vector(C, q, avec, cache)[0] for avec in avec_samples]
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


def _g_box(C: CubicForm, B: int, P: float, alpha0: float, lam: np.ndarray,
           weighted: bool) -> Tuple[float, float]:
    """(g, abs_error) over the box |x| <= B, slab by slab: the sum over one
    component of a form.

    g is real: the terms at x and -x are conjugate (see ``_grid``), so it
    is the sum of [w(x/P)] cos 2 pi (alpha0 C(x) + lambda . x) over the
    slabs x1 >= 0, the slab x1 = 0 once and every other one twice (for
    n = 1, the axis points x >= 0).  |phase| is even, so its maximum over
    the half is the one over the box.

    On the slab x1, C = a x1^3 + b x1^2 + c x1 + d with the coefficients of
    ``line_coefficients`` on the grid of x2..xn, made once per call in exact
    integers (``exact_dtype`` of 3 sum|c| max(B, 1)^3, the bound of every
    Horner partial sum); each slab is one Horner step in x1.  C(x) goes to
    float once, so the phase is alpha0 C(x) + lambda_1 x1 + ... + lambda_n xn
    summed in that order with C(x) correctly rounded: the float sum of the
    monomials bit for bit while 3 sum|c| B^3 < 2^53, where every partial
    sum of that float sum was exact."""
    n = C.n
    axis = np.arange(-B, B + 1, dtype=np.int64)
    fold = np.where(axis[B:] > 0, 2.0, 1.0)
    wrest = 1.0
    if weighted:
        # w(x/P) is the product of w1(x_d/P) over the coordinates: one factor
        # per axis value, times the grid of the other n - 1 factors, built once
        wax = w1(axis / P)
        fold = fold * wax[B:]
        wrest = np.ones(())
        for _ in range(n - 1):
            wrest = np.multiply.outer(wrest, wax)
    exact = np.arange(-B, B + 1, dtype=exact_dtype(3 * C.max_abs_value(max(B, 1))))
    rest = np.meshgrid(*([exact] * (n - 1)), indexing="ij")
    # for n = 1 a zero that no monomial reads stands for the other coordinates
    a, b, c, d = line_coefficients(C, rest or [np.zeros(1, dtype=exact.dtype)])
    lam_rest = [lam[k] * x.astype(float) for k, x in enumerate(rest, 1)]
    del rest
    if n == 1:
        parts = [(exact[B:], fold)]
    else:
        parts = ((x1, f * wrest) for x1, f in zip(exact[B:], fold))
    total = 0.0
    max_phase = 0.0
    for x1, factor in parts:
        cvals = horner((a, b, c, d), x1)
        phase = alpha0 * cvals.astype(float) + lam[0] * np.asarray(x1, dtype=float)
        for t in lam_rest:
            phase = phase + t
        max_phase = max(max_phase, float(np.abs(phase).max(initial=0.0)))
        total += float(np.sum(cos_e(phase) * factor))
    return total, len(axis) ** n * _EPS * (4 + 2 * math.pi * max_phase)


def _check_finite(name0: str, x0: float, name: str, xs: Sequence[float]) -> None:
    """ValueError naming the first of x0 and the entries of xs that is not finite."""
    for label, x in [(name0, x0)] + [(f"{name}[{i}]", x) for i, x in enumerate(xs)]:
        if not math.isfinite(x):
            raise ValueError(f"{label} must be finite, got {x}")


def sum_g(C: CubicForm, P: float, alpha0: float, lam: Sequence[float],
          weighted: bool) -> ExpSumValue:
    """g(alpha0, lambda) = sum over |x| < P of [w(x/P)] e(alpha0 C(x) + lambda . x).

    The support box is |x| <= ceil(P) - 1 for both the weighted and unweighted
    variants (the weight vanishes outside it anyway).

    g is real by symmetry: C and lambda . x are odd under x -> -x, and the
    weight and the box are even, so the terms at x and -x are conjugate.
    Each box sum is a real half-box sum (``_g_box``), and ``im`` is exactly
    +0.0.

    The phase and the weight both separate over the components of C
    (``_grid.components``), so g is the product of one box sum per
    component, and the (2B+1)^|block| points of each component's box, which
    its sum covers, are charged as "g points".  True factors g_A + d_A
    with |d_A| <= e_A multiply to within |g_A| e_B + |g_B| e_A + e_A e_B of
    g_A g_B; the product's own rounding adds 4 eps |g_A g_B|.
    """
    check_P(P)
    if len(lam) != C.n:
        raise DimensionMismatch("lambda length must equal n")
    _check_finite("alpha0", alpha0, "lambda", lam)
    B = math.ceil(P) - 1
    blocks = components(C)
    charge("g points", sum((2 * B + 1) ** len(block) for block in blocks), "g sum")
    lam_arr = np.asarray(lam, dtype=float)
    (value, err), *rest = (_g_box(_subform(C, block), B, P, alpha0,
                                  lam_arr[[v - 1 for v in block]], weighted) for block in blocks)
    for g, e in rest:
        prod = value * g
        value, err = prod, abs(value) * e + abs(g) * err + err * e + 4 * _EPS * abs(prod)
    return ExpSumValue(complex(value, 0.0), abs_error=err)


# ---------------------------------------------------------------------------
# Oscillatory integrals


def _osc_axis(c3: float, g: float, tol: float) -> Tuple[complex, float]:
    """integral over [-1,1] of w(t) e(c3 t^3 + g t) dt by panel doubling."""
    cycles = (3 * abs(c3) + abs(g))  # max phase derivative, in cycles per unit

    def evaluate(panels: int) -> complex:
        nodes, wts = gl_nodes(panels, 12, -1.0, 1.0)
        f = cis(c3 * nodes**3 + g * nodes) * w1(nodes)
        return complex(np.sum(f * wts))

    sizes = doubling(start_size(8, 2 * cycles), lambda p: 12 * p <= BUDGETS["axis nodes"])
    return refine(evaluate, sizes, tol, "1-d oscillatory quadrature", ["axis nodes"])


def osc_integral_I(C: CubicForm, gamma0: float, gamma: Sequence[float],
                   tol: float = 1e-8) -> ExpSumValue:
    """I(gamma0, gamma) = integral of w(x) e(gamma0 C(x) + gamma . x) over R^n
    (support [-1,1]^n) for a diagonal form, with |value - true| <= abs_error
    <= tol.

    It is the product of 1-d integrals, each distinct axis
    (gamma0 c_d, gamma_d) integrated once and the factors multiplied in axis
    order.  Every factor is at most the weight's mass 0.444 < 1 in absolute
    value, so the axes' errors add.  A non-diagonal form raises ValueError,
    as ``chi_w_oscillatory`` does: it has no separable quadrature.  So do a
    phase that is not finite and a tol that ``check_tol`` refuses, before
    any grid is built."""
    check_tol(tol)
    if len(gamma) != C.n:
        raise DimensionMismatch("gamma length must equal n")
    _check_finite("gamma0", gamma0, "gamma", gamma)
    if not is_diagonal(C):
        raise ValueError("osc_integral_I needs a diagonal form: a non-diagonal form "
                         "has no separable quadrature")
    n = C.n
    tol_axis = tol / n
    diag = diag_coeffs(C).tolist()    # floats, which overflow to inf without a warning
    axes = {}
    value = 1 + 0j
    err = 0.0
    for d in range(n):
        c3, g = gamma0 * diag[d], float(gamma[d])
        key = (c3, g, math.copysign(1.0, c3), math.copysign(1.0, g))   # -0.0 is not 0.0
        if key not in axes:
            axes[key] = _osc_axis(c3, g, tol_axis)
        v, e = axes[key]
        value *= v
        err += e
    return ExpSumValue(value, abs_error=err)
