"""The weighted real density of the variety cut out by the cubic and the
linear forms: a tent-function estimator as the primary path, the oscillatory
double integral as a cross-check, and the box positivity probe.

The tent limit is only guaranteed in high dimension; at desk scale it can
diverge (the cubic's gradient vanishes at the origin, and for n - r < 4 the
resulting density blows up), so the estimator reports a stabilization
diagnostic and refuses to extrapolate a value when differences grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.stats import qmc

from ._grid import cubic_values, diag_coeffs, gl_nodes, is_diagonal, w1
from ._trig import cis
from .errors import NotConverged, ResourceLimit, ToleranceNotMet
from .exp_sums import ExpSumValue, osc_integral_I
from .forms_core import CubicForm, LinearSystem
from .lattice_enum import weight_w


def psi_L(xi, L: float):
    """Tent of height L and half-width 1/L: L * max(0, 1 - L|xi|).

    Nonnegative and integrates to 1 for every L."""
    if L <= 0:
        raise ValueError("L must be positive")
    arr = np.asarray(xi, dtype=float)
    val = L * np.clip(1.0 - L * np.abs(arr), 0.0, None)
    return float(val) if np.isscalar(xi) else val


def Psi_L(components: np.ndarray, L: float) -> np.ndarray:
    """Product of tents across the last axis."""
    return np.prod(psi_L(components, L), axis=-1)


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


def _sobol_box(n: int, samples: int, seed: int, lo: float, hi: float) -> np.ndarray:
    """Scrambled Sobol points in [lo, hi]^n; sample count rounds up to 2^m."""
    m = max(10, math.ceil(math.log2(max(2, samples))))
    pts = qmc.Sobol(d=n, scramble=True, seed=seed).random_base2(m)
    return lo + (hi - lo) * pts


def _eval_components(C: CubicForm, Lsys: Optional[LinearSystem], X: np.ndarray) -> np.ndarray:
    """(N, r+1) matrix of (C(x), L_1(x), ..., L_r(x)) at float points."""
    cols = [cubic_values(C, X.T)]
    if Lsys is not None and Lsys.r:
        cols.extend((X @ Lsys.matrix().T).T)
    return np.stack(cols, axis=1)


_BATCHES = 64


def schmidt_IL(C: CubicForm, Lsys: Optional[LinearSystem], L: float,
               samples: int, seed: int) -> DensityEstimate:
    """Quasi-Monte Carlo estimate of integral of w(x) Psi_L(C(x), L(x)) dx
    over [-1,1]^n, with batch-means standard error; bit-reproducible per seed."""
    if samples < 1000:
        raise ValueError("use at least 10^3 samples")
    n = C.n
    X = _sobol_box(n, samples, seed, -1.0, 1.0)
    f = _eval_components(C, Lsys, X)
    vals = weight_w(X) * Psi_L(f, L) * 2.0**n
    batches = vals.reshape(_BATCHES, -1).mean(axis=1)
    value = float(batches.mean())
    stderr = float(batches.std(ddof=1) / math.sqrt(_BATCHES))
    return DensityEstimate(value=value, std_error=stderr, L=L, samples=len(X), seed=seed)


@dataclass(frozen=True)
class ChiEstimate:
    value: float
    error_bar: float
    table: Tuple[DensityEstimate, ...]


def chi_w_estimate(C: CubicForm, Lsys: Optional[LinearSystem],
                   L_schedule: Sequence[float], samples: int, seed: int) -> ChiEstimate:
    """Tent-limit estimate: run the Schmidt estimator along an increasing
    L schedule with common sample points and require successive differences to
    decrease; the reported error bar is the last difference plus the Monte
    Carlo standard error.

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
    if len(L_schedule) < 3:
        raise ValueError("schedule needs at least 3 values")
    if any(b <= a for a, b in zip(L_schedule, L_schedule[1:])):
        raise ValueError("schedule must increase")
    table = tuple(schmidt_IL(C, Lsys, L, samples, seed) for L in L_schedule)
    diffs = [abs(b.value - a.value) for a, b in zip(table, table[1:])]
    for a, b in zip(diffs, diffs[1:]):
        if b >= a:
            raise NotConverged(
                f"schedule differences fail to decrease: {[f'{d:.4g}' for d in diffs]}",
                table=table)
    last = table[-1]
    return ChiEstimate(value=last.value, error_bar=diffs[-1] + last.std_error, table=table)


def intbox_check(C: CubicForm, Lsys: Optional[LinearSystem], L: float,
                 samples: int, seed: int) -> float:
    """Estimate of integral over |x| <= 1/2 of Psi_L(C(x), L(x)) dx; should
    stay bounded away from 0 as L grows when the variety meets the box well."""
    X = _sobol_box(C.n, samples, seed, -0.5, 0.5)
    f = _eval_components(C, Lsys, X)
    return float(np.mean(Psi_L(f, L)))


# ---------------------------------------------------------------------------
# Oscillatory cross-check


def _osc_separable_value(C: CubicForm, Lsys: Optional[LinearSystem], b0: float,
                         b1: float, outer_panels: int, t_panels: int) -> complex:
    """Box integral of I(beta0, Lambda alpha) for a diagonal form: each axis
    contributes a rank-one factor matrix over the (beta0, alpha) grid, so the
    whole thing reduces to dense products over a shared t-grid."""
    diag = diag_coeffs(C)
    r = Lsys.r if Lsys is not None else 0
    n0, w0 = gl_nodes(outer_panels, 6, -b0, b0)
    t, wt = gl_nodes(t_panels, 10, -1.0, 1.0)
    wfac = w1(t) * wt
    t3 = t**3
    if r == 0:
        val = np.ones(len(n0), dtype=complex)
        for j in range(C.n):
            val *= cis(np.outer(n0, diag[j] * t3)) @ wfac
        return complex(w0 @ val)
    if r != 1:
        raise ResourceLimit("oscillatory cross-check supports r <= 1")
    na, wa = gl_nodes(outer_panels, 6, -b1, b1)
    lam = Lsys.matrix()[0]
    prod = np.ones((len(n0), len(na)), dtype=complex)
    for j in range(C.n):
        e3 = cis(np.outer(n0, diag[j] * t3))
        e1 = cis(np.outer(na * lam[j], t))
        prod *= (e3 * wfac) @ e1.T
    return complex(w0 @ prod @ wa)


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
                      box: Tuple[float, float] = (12.0, 12.0), tol: float = 1e-3,
                      tol_inner: float = 1e-7, max_outer: int = 200_000) -> ExpSumValue:
    """Iterated quadrature of I(beta0, Lambda alpha) over the truncated
    (beta0, alpha) box; abs_error combines the quadrature estimate with a tail
    bound extrapolated from the observed decay along each axis (infinite when
    the observed decay is not integrable, which honestly flags divergence).

    Validation path only; the Schmidt estimator is the primary route.  The
    true value is real, so the imaginary part is itself a quality indicator.
    """
    r = Lsys.r if Lsys is not None else 0
    if r > 1:
        raise ResourceLimit("oscillatory cross-check supports r <= 1 (cost)")
    b0, b1 = float(box[0]), float(box[1])
    diagonal = is_diagonal(C)
    if not diagonal and C.n > 3:
        raise ResourceLimit("non-diagonal forms limited to n <= 3 (cost)")
    lam_T = Lsys.matrix().T if r else None

    def inner(beta0: float, alpha: np.ndarray) -> complex:
        gamma = lam_T @ alpha if r else np.zeros(C.n)
        return osc_integral_I(C, beta0, gamma, tol=tol_inner).value

    coeff_scale = max(abs(c) for c in C.coeffs.values()) if C.coeffs else 1.0
    lam_scale = float(np.abs(Lsys.matrix()).max()) if r else 0.0
    cycles_t = 3 * b0 * coeff_scale + b1 * lam_scale
    if diagonal:
        t_panels = max(16, int(math.ceil(1.5 * cycles_t)))
        prev = None
        quad_est = math.inf
        outer_panels = 8
        while True:
            value = _osc_separable_value(C, Lsys, b0, b1, outer_panels, t_panels)
            if prev is not None:
                quad_est = abs(value - prev)
                if quad_est <= tol:
                    break
            prev = value
            outer_panels *= 2
            t_panels *= 2
            if outer_panels * 6 > max_outer:
                raise ToleranceNotMet(f"outer quadrature stalled at diff {quad_est:.3g} > {tol}")
    else:
        prev = None
        quad_est = math.inf
        outer_panels = 6
        while True:
            n0, w0 = gl_nodes(outer_panels, 6, -b0, b0)
            if r == 0:
                value = complex(sum(wt * inner(float(b), np.zeros(0))
                                    for b, wt in zip(n0, w0)))
            else:
                na, wa = gl_nodes(outer_panels, 6, -b1, b1)
                if len(n0) * len(na) > max_outer:
                    raise ResourceLimit("outer quadrature exceeds budget")
                value = 0 + 0j
                for b, wb in zip(n0, w0):
                    for a, wav in zip(na, wa):
                        value += wb * wav * inner(float(b), np.array([a]))
            if prev is not None:
                quad_est = abs(value - prev)
                if quad_est <= tol:
                    break
            prev = value
            outer_panels *= 2
            if outer_panels > 96:
                raise ToleranceNotMet(f"outer quadrature stalled at diff {quad_est:.3g} > {tol}")

    radii = np.array([0.5, 0.7, 1.0])
    mags0 = np.array([abs(inner(rho * b0, np.zeros(r))) for rho in radii])
    tail = _power_tail(radii * b0, mags0, b0)
    if r:
        tail *= 2 * b1
        magsa = np.array([abs(inner(0.0, np.full(r, rho * b1))) for rho in radii])
        tail_a = _power_tail(radii * b1, magsa, b1) * 2 * b0
        tail = tail + tail_a
    return ExpSumValue(value, abs_error=quad_est + tail)
