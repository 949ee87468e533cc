"""The weighted real density of the variety cut out by the cubic and the
linear forms: a tent-function estimator as the primary path, and the
oscillatory double integral of a diagonal form as a cross-check.

Both integrate at tau = 0, where the cone's apex lies on the slice, so one
law sets both error bars: the C-value density has a cusp |c|^kappa at 0,
kappa = (n - r - 3)/3, and the density is infinite when n - r <= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._grid import (BUDGETS, _sobol_blocks, check_tol, cubic_values, diag_coeffs, doubling,
                    gl_nodes, gl_phases, is_diagonal, phase_columns, refine, row_values,
                    sobol_exponent, start_size, w1, weight_w)
from .errors import NotConverged
from .exp_sums import INNER_TOL, ExpSumValue, osc_integral_I
from .forms_core import CubicForm, LinearSystem


def psi_L(xi, L: float):
    """Tent of height L and half-width 1/L: L * max(0, 1 - L|xi|).

    Nonnegative and integrates to 1 for every L."""
    if L <= 0:
        raise ValueError("L must be positive")
    arr = np.asarray(xi, dtype=float)
    val = L * np.clip(1.0 - L * np.abs(arr), 0.0, None)
    return float(val) if np.isscalar(xi) else val


def Psi_L(components: np.ndarray, L: float) -> np.ndarray:
    """Product of tents across the last axis, as a running product over its
    columns (the order ``np.prod`` multiplies in, so the values are the same)."""
    cols = np.moveaxis(np.asarray(components, dtype=float), -1, 0)
    return math.prod(psi_L(col, L) for col in cols)


@dataclass(frozen=True)
class DensityEstimate:
    value: float
    std_error: float
    L: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def check_tents(L_values: Sequence[float], samples: int, seed: int) -> None:
    """Refuse tents and a Sobol draw that ``_tent_table`` cannot use."""
    if samples < 1000:
        raise ValueError("use at least 10^3 samples")
    for L in L_values:
        if not 0 < L < math.inf:
            raise ValueError(f"L must be positive and finite, got {L}")
    sobol_exponent(samples, seed)


def check_schedule(L_schedule: Sequence[float], samples: int, seed: int) -> None:
    """Refuse the inputs of ``chi_w_estimate`` outside their domain."""
    if len(L_schedule) < 3:
        raise ValueError("schedule needs at least 3 values")
    if any(b <= a for a, b in zip(L_schedule, L_schedule[1:])):
        raise ValueError("schedule must increase")
    check_tents(L_schedule, samples, seed)


BATCHES = 64     # batch means of the tent estimator


def batch_stderr(batches: np.ndarray) -> float:
    """Batch-means standard error of the mean of equal-size batch means:
    the sample standard deviation of the batches (ddof = 1, with |d|^2 for
    complex deviations d) over sqrt(number of batches)."""
    return float(np.std(batches, ddof=1) / math.sqrt(len(batches)))


def _components(C: CubicForm, rows: Sequence[Sequence], X: np.ndarray) -> List[np.ndarray]:
    """[C, L_1, ..., L_r] at the points of a coordinate-major (n, S) block X,
    for the ``rows`` of L: each L by ``row_values`` on the block's
    coordinate rows, bit for bit in any block."""
    return [cubic_values(C, X), *(row_values(row, X) for row in rows)]


def _tent_table(C: CubicForm, Lsys: Optional[LinearSystem], L_values: Sequence[float],
                samples: int, seed: int) -> Tuple[DensityEstimate, ...]:
    """``schmidt_IL`` for each L, from one walk over the Sobol points: C and
    L are computed once at each point, and each L costs only its tents and
    batch means.  Its callers check the inputs first.

    The points come in blocks of ``_sobol_blocks``, each holding whole
    batches, so no array has an entry per point: on a block, C and L come
    from ``_components``, L from ``row_values`` on the rows of ``Lsys``,
    and each of its batches gets its mean.  Every value is bit-identical to
    one evaluation over all the points at once, whatever the block size.

    w and the tents are evaluated only on the support of the widest tent,
    the points with 1 - L0 |f_i| > 0 in every column i of f = (C, L) at
    L0 = min(L_values); every other point's value is +0.0.  This is exact:
    psi_L is +0.0 when fl(1 - fl(L |xi|)) <= 0, and fl(L |xi|) does not
    decrease as L grows, so for every L >= L0 a point outside the support
    had w * 0 * 2^n = +0.0, while inside it the same elementwise operations
    run in the same order.  The batch means still run over all the points."""
    n = C.n
    rows = LinearSystem.for_form(C, Lsys).rows
    N = 1 << sobol_exponent(samples, seed)
    per_batch = N // BATCHES
    L0 = min(L_values)
    batches = np.empty((len(L_values), BATCHES))
    done = 0
    for X in _sobol_blocks(n, samples, seed, align=per_batch):
        f = _components(C, rows, X)
        support = np.ones(X.shape[1], dtype=bool)
        for col in f:
            support &= 1.0 - L0 * np.abs(col) > 0
        inside = np.flatnonzero(support)     # indices gather and scatter faster than a mask
        f = np.stack([col.take(inside) for col in f], axis=1)
        w = weight_w(X.take(inside, axis=1).T)
        vals = np.zeros(X.shape[1])     # outside the support every L's value is +0.0
        span = slice(done, done + X.shape[1] // per_batch)
        for i, L in enumerate(L_values):
            vals[inside] = w * Psi_L(f, L) * 2.0**n
            batches[i, span] = vals.reshape(-1, per_batch).mean(axis=1)
        done = span.stop
    return tuple(DensityEstimate(value=float(b.mean()), std_error=batch_stderr(b),
                                 L=L, samples=N, seed=seed)
                 for b, L in zip(batches, L_values))


def schmidt_IL(C: CubicForm, Lsys: Optional[LinearSystem], L: float,
               samples: int, seed: int) -> DensityEstimate:
    """Quasi-Monte Carlo estimate of integral of w(x) Psi_L(C(x), L(x)) dx
    over [-1,1]^n, with batch-means standard error; bit-reproducible per seed."""
    check_tents([L], samples, seed)
    return _tent_table(C, Lsys, [L], samples, seed)[0]


@dataclass(frozen=True)
class ChiEstimate:
    value: float
    error_bar: float
    table: Tuple[DensityEstimate, ...]


def chi_w_estimate(C: CubicForm, Lsys: Optional[LinearSystem],
                   L_schedule: Sequence[float], samples: int, seed: int) -> ChiEstimate:
    """Tent-limit estimate: run the Schmidt estimator along an increasing
    L schedule with common sample points and require successive differences to
    decrease.  The points are walked once, block by block (``_tent_table``),
    and C, L and w are evaluated on each point once, for the whole schedule,
    so the call holds O(max(2^15, N/64) n) floats, not O(N n); each row of
    the table is bit-identical to ``schmidt_IL`` at its L with the same
    samples and seed.

    The value is the last I_L and the bar d q/(1 - q) + stderr: the bias
    left after the last difference d, plus the standard error.  The apex
    cusp gives I_L - chi_w ~ L^(-kappa) with kappa = min((n - r - 3)/3, 2)
    (2 is the tent's own bias), so q = max(rho^(-kappa), d/d_prev), rho the
    last ratio of the schedule; the observed ratio catches a singular locus
    larger than the apex.  q >= 1, as at every n - r <= 3, gives +inf.

    Raises NotConverged (with the table attached) when differences grow; the
    limit is only guaranteed under the high-dimension hypotheses, and this
    estimator never extrapolates past what the diagnostic supports.

    The rule compares raw differences and ignores their sampling noise.  With
    r = 1 the standard error grows about linearly in L: for
    x1^3+x2^3+x3^3-x4^3-x5^3-x6^3 with an irrational row, seed 7 and 2^18
    samples it is 8e-6, 2e-5, 7e-5 and 1.5e-4 at L = 1, 2, 4 and 8.  So a
    convergent instance can still raise NotConverged once its later
    differences fall inside the noise.
    """
    check_schedule(L_schedule, samples, seed)
    Lsys = LinearSystem.for_form(C, Lsys)
    table = _tent_table(C, Lsys, L_schedule, samples, seed)
    diffs = [abs(b.value - a.value) for a, b in zip(table, table[1:])]
    for a, b in zip(diffs, diffs[1:]):
        if b >= a:
            raise NotConverged(
                f"schedule differences fail to decrease: {[f'{d:.4g}' for d in diffs]}",
                table=table)
    kappa = min((C.n - Lsys.r - 3) / 3, 2.0)
    d, d_prev = diffs[-1], diffs[-2]
    q = max((L_schedule[-1] / L_schedule[-2]) ** -kappa, d / d_prev)
    bias = d * q / (1 - q) if q < 1 else math.inf
    last = table[-1]
    return ChiEstimate(value=last.value, error_bar=bias + last.std_error, table=table)


# ---------------------------------------------------------------------------
# Oscillatory cross-check


def _osc_separable_value(C: CubicForm, Lsys: LinearSystem, b0: float,
                         b1: float, outer_panels: int, t_panels: int) -> complex:
    """Box integral of I(beta0, Lambda alpha) for a diagonal form: each axis
    contributes a rank-one factor matrix over the (beta0, alpha) grid, so the
    whole thing reduces to dense products over a shared t-grid.  The phase
    tables e(beta0 c t^3) and e(alpha lambda_j t) come from ``gl_phases`` over
    the outer nodes, one block of t nodes at a time (``phase_columns``): on
    each block the beta0 table is built once per distinct |c| and the alpha
    table once per axis, and their products over the block's t nodes are
    added into the axis sums, so no table has an entry per (outer node,
    t node) pair of the whole grid.

    The sum is folded by its sign symmetries, and only the phase rows it
    reads are built.  The t-rule is symmetric with no node at 0 (its order
    is even), so an axis factor is
    sum_{t>0} 2 w(t) cos(2 pi (beta c t^3 + alpha lambda t)) = U - V, with
    U = (Re e3 w) @ Re e1^T and V = (Im e3 w) @ Im e1^T real products over
    the positive half of t.  The beta0-rule is symmetric too, and the factor
    at -beta is U + V, so only the beta > 0 rows are built (``table`` from
    the first positive node), and the value is real by construction.  The
    alpha-rule is symmetric and e1(-alpha) = conj e1(alpha), so U is even in
    alpha and V odd: the factor at (beta, -alpha) is the one at
    (-beta, alpha), and only the alpha > 0 columns are built, the value
    being 2 w0+ @ (pp + pn) @ wa+.  e3(-c) = conj e3(c), so axes whose
    coefficients differ only in sign share one table, with V negated.  The
    halves are counted on the full rules (a rule built on [0, b0] has other
    nodes when ``outer_panels`` is odd), and a rule with no positive node
    has an empty half.  Every matmul reads contiguous real operands: the
    real and imaginary parts of a complex table are strided views, which a
    matmul reads more slowly than a copy of each part costs."""
    diag = diag_coeffs(C)
    r = Lsys.r
    n0, w0 = gl_nodes(outer_panels, 6, -b0, b0)
    beta_start = len(n0) - np.count_nonzero(n0 > 0)
    t, wt = gl_nodes(t_panels, 10, -1.0, 1.0)
    t_pos = t > 0
    t, wfac = t[t_pos], 2.0 * w1(t[t_pos]) * wt[t_pos]
    t3 = t**3
    mags = set(np.abs(diag))
    w0 = w0[beta_start:]

    def e3(c: float, cols: slice) -> np.ndarray:
        return gl_phases(outer_panels, 6, -b0, b0, c * t3[cols]).table(beta_start)

    if r == 0:
        sums = {c: np.zeros(len(w0)) for c in mags}    # each |c|'s axis factor
        for cols in phase_columns(len(t), outer_panels, 6, beta_start):
            for c in mags:
                sums[c] += e3(c, cols).real.copy() @ wfac[cols]
        val = np.ones(len(w0))
        for c in diag:
            val *= sums[abs(c)]
        return complex(2.0 * (w0 @ val))
    na, wa = gl_nodes(outer_panels, 6, -b1, b1)
    alpha_start = len(na) - np.count_nonzero(na > 0)
    wa = wa[alpha_start:]
    lam = Lsys.matrix()[0]
    U = np.zeros((len(diag), len(w0), len(wa)))
    V = np.zeros((len(diag), len(w0), len(wa)))
    for cols in phase_columns(len(t), outer_panels, 6, min(beta_start, alpha_start)):
        wb = wfac[cols]
        ce3 = {c: e3(c, cols) for c in mags}
        ce3 = {c: (e.real * wb, e.imag * wb) for c, e in ce3.items()}
        for d, (c, l) in enumerate(zip(diag, lam)):
            re3, im3 = ce3[abs(c)]
            e1 = gl_phases(outer_panels, 6, -b1, b1, l * t[cols]).table(alpha_start)
            U[d] += re3 @ e1.real.copy().T
            V[d] += im3 @ e1.imag.copy().T
            del e1     # the next axis's table is built without this one
    pp = np.ones((len(w0), len(wa)))    # at (beta, alpha) and (-beta, -alpha)
    pn = np.ones((len(w0), len(wa)))    # at (-beta, alpha) and (beta, -alpha)
    for c, Ud, Vd in zip(diag, U, V):
        if c < 0:     # Im e3(c) = -Im e3(|c|)
            Vd = -Vd
        pp *= Ud - Vd
        pn *= Ud + Vd
    return complex(2.0 * (w0 @ (pp + pn) @ wa))


def _power_tail(xs: np.ndarray, mags: np.ndarray, bound: float) -> float:
    """Fit |I| ~ c x^{-s} on sampled magnitudes and integrate the envelope
    over both rays beyond the bound: 2 c bound^(1-s)/(s-1), or infinity when
    the fitted decay is not integrable."""
    good = mags > 1e-300
    if good.sum() < 2:
        return 0.0
    slope, logc = np.polyfit(np.log(xs[good]), np.log(mags[good]), 1)
    s, c = -slope, math.exp(logc)
    if s <= 1:
        return math.inf
    return 2 * c * bound ** (1 - s) / (s - 1)


def chi_w_oscillatory(C: CubicForm, Lsys: Optional[LinearSystem],
                      box: Tuple[float, float] = (12.0, 12.0), tol: float = 1e-3) -> ExpSumValue:
    """Quadrature of I(beta0, Lambda alpha) over the truncated (beta0, alpha)
    box for a diagonal form; abs_error combines the refinement difference
    with a tail bound extrapolated from the observed decay along each axis
    (infinite when that decay is not integrable).  When n - r <= 3 the whole
    integral is +inf: the value is the box integral, abs_error is +inf and
    no tail is fitted.  A non-diagonal form, or r >= 2, raises ValueError.

    Validation path only; the Schmidt estimator is the primary route.  The
    true value is real, and the quadrature is folded by that symmetry
    (``_osc_separable_value``), so the imaginary part is exactly 0.
    """
    check_tol(tol)
    b0, b1 = float(box[0]), float(box[1])
    if not 0 < b0 < math.inf:
        raise ValueError(f"box[0] must be positive and finite, got {b0}")
    if not 0 <= b1 < math.inf:    # b1 = 0 is legal for r = 0, which has no alpha axis
        raise ValueError(f"box[1] must be non-negative and finite, got {b1}")
    Lsys = LinearSystem.for_form(C, Lsys)
    r = Lsys.r
    if r > 1:
        raise ValueError(f"oscillatory cross-check supports r <= 1, got r = {r}: its "
                         "quadrature is written for one alpha axis at most")
    if r and b1 == 0:    # the alpha box would be empty, and its tail fit takes log 0
        raise ValueError(f"box[1] must be positive when r = {r}, got {b1}")
    if not is_diagonal(C):
        raise ValueError("oscillatory cross-check needs a diagonal form: a non-diagonal "
                         "form has no separable quadrature, and chi_w = +inf at n - r <= 3")
    lam_T = Lsys.matrix().T

    # grid k has (8k, t0 k) outer and t panels: 48k outer nodes per axis,
    # 24k of them with beta > 0, and 5 t0 k t nodes with t > 0
    coeff_scale = max(abs(c) for c in C.coeffs.values()) if C.coeffs else 1.0
    lam_scale = float(np.abs(lam_T).max(initial=0.0))
    cycles_t = 3 * b0 * coeff_scale + b1 * lam_scale
    t_panels = start_size(16, 1.5 * cycles_t)

    def evaluate(k: int) -> complex:
        return _osc_separable_value(C, Lsys, b0, b1, 8 * k, t_panels * k)

    # the "phase entries" of a grid's half table, outer nodes with beta > 0
    # times t nodes with t > 0, bound its work, not its memory: the table
    # is built in column blocks of _grid.BLOCK entries
    sizes = doubling(1, lambda k: 48 * k <= BUDGETS["outer nodes"]
                     and 24 * k * 5 * t_panels * k <= BUDGETS["phase entries"])
    value, quad_est = refine(evaluate, sizes, tol, "outer quadrature",
                             ["outer nodes", "phase entries"])
    if C.n - r <= 3:
        return ExpSumValue(value, abs_error=math.inf)

    def inner(beta0: float, alpha: np.ndarray) -> complex:
        return osc_integral_I(C, beta0, lam_T @ alpha, tol=INNER_TOL).value

    radii = np.array([0.5, 0.7, 1.0])
    mags0 = np.array([abs(inner(rho * b0, np.zeros(r))) for rho in radii])
    tail = _power_tail(radii * b0, mags0, b0)
    if r:
        tail *= 2 * b1
        magsa = np.array([abs(inner(0.0, np.full(r, rho * b1))) for rho in radii])
        tail_a = _power_tail(radii * b1, magsa, b1) * 2 * b0
        tail = tail + tail_a
    return ExpSumValue(value, abs_error=quad_est + tail)
