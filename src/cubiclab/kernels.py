"""Smoothing kernels whose Fourier transforms are trapezoids sandwiching the
open-interval indicator, the growth schedule T(P) that sharpens them, and the
numerical verification of the sandwich.

The transform closed form comes from the box-convolution identity: the kernel
is the product of the transforms of boxes of widths rho and 2 eta +/- rho, so
its own transform is their normalized convolution, a trapezoid with plateau
eta (plus sign) or eta - rho (minus sign).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ._grid import (charge, check_P, check_tol, check_window, gl_nodes, gl_phases,
                    phase_columns)
from .errors import SandwichViolation


def choose_T(P: float) -> float:
    """The concrete monotone schedule T(P) = max(1, log P) <= P.

    Only existence of such a function is guaranteed abstractly; a concrete
    one is required for reproducible runs, and reports name it "log".
    """
    check_P(P)
    return max(1.0, math.log(P))


@dataclass(frozen=True)
class KernelParams:
    """eta, rho and the sign choice; rho = eta / L with L = max(1, log T).
    A rho whose cut ``_alpha_cut`` is not finite (eta below ~3e-306) is refused."""

    eta: float
    rho: float
    sign: str  # "plus" or "minus"

    def __post_init__(self):
        check_window(self.eta, ())
        if self.sign not in ("plus", "minus"):
            raise ValueError("sign must be 'plus' or 'minus'")
        if not (0 < self.rho <= self.eta):
            raise ValueError("need 0 < rho <= eta (minus-kernel trapezoid degenerates otherwise)")
        if not math.isfinite(_alpha_cut(self.rho)):
            raise ValueError(f"eta {self.eta!r} is too small: the transform cut 400/rho "
                             f"at rho {self.rho!r} is not finite")

    @classmethod
    def from_P(cls, eta: float, P: float, sign: str) -> "KernelParams":
        T = choose_T(P)
        LP = max(1.0, math.log(T))
        return cls(eta=eta, rho=eta / LP, sign=sign)

    @property
    def outer_width(self) -> float:
        """2 eta + rho (plus) or 2 eta - rho (minus)."""
        return 2 * self.eta + self.rho if self.sign == "plus" else 2 * self.eta - self.rho

    @property
    def plateau(self) -> float:
        return self.eta if self.sign == "plus" else self.eta - self.rho

    @property
    def support(self) -> float:
        return self.eta + self.rho if self.sign == "plus" else self.eta


def kernel_K(alpha, kp: KernelParams):
    """K(alpha) = sin(pi alpha rho) sin(pi alpha (2 eta +/- rho)) / (pi^2 alpha^2 rho),
    extended continuously by K(0) = 2 eta +/- rho.

    Even, real, bounded by 2 eta + rho, and decaying like 1/(pi^2 rho alpha^2).
    """
    a = np.asarray(alpha, dtype=float)
    m = kp.outer_width
    val = m * np.sinc(a * kp.rho) * np.sinc(a * m)
    return float(val) if np.isscalar(alpha) else val


def kernel_hat(t, kp: KernelParams):
    """Closed-form transform: the trapezoid that is 1 on |t| <= plateau and
    falls linearly to 0 at |t| = support."""
    a = np.abs(np.asarray(t, dtype=float))
    lo, hi = kp.plateau, kp.support
    val = np.clip((hi - a) / (hi - lo), 0.0, 1.0)
    return float(val) if np.isscalar(t) else val


def indicator_U(t: float, eta: float) -> int:
    """1 iff |t| < eta (strict), else 0."""
    check_window(eta, ())
    return 1 if abs(t) < eta else 0


def _transform_panels(tmax: float, kp: KernelParams, alpha_cut: float) -> int:
    """Gauss-Legendre panels of order 8 on [0, alpha_cut] for the transform
    at t values up to ``tmax`` in absolute value."""
    # max combined frequency of the three oscillating factors, cycles per unit alpha
    fmax = (kp.rho + kp.outer_width) / 2 + tmax
    return max(16, int(math.ceil(alpha_cut * fmax * 1.25)))


def kernel_transform_numeric(t_values: Sequence[float], kp: KernelParams,
                             alpha_cut: float) -> Tuple[np.ndarray, float]:
    """Truncated transform 2 * integral_0^A K(alpha) cos(2 pi alpha t) d alpha
    for each t, plus the tail bound 2/(pi^2 rho A) from the alpha^{-2} envelope.

    The cosines are the real parts of ``gl_phases`` tables by angle
    addition, contracted with the real weights K(alpha_i) w_i block by block
    over the t values (``GLPhases.contract``, on ``phase_columns``), so
    neither the (t, alpha) table nor a whole-width factor is formed.
    """
    ts = np.asarray(t_values, dtype=float)
    panels = _transform_panels(float(np.abs(ts).max()), kp, alpha_cut)
    nodes, weights = gl_nodes(panels, 8, 0.0, alpha_cut)
    kvals = kernel_K(nodes, kp) * weights
    out = np.empty(len(ts))
    for cols in phase_columns(len(ts), panels, 8):
        out[cols] = gl_phases(panels, 8, 0.0, alpha_cut, ts[cols]).contract(kvals)
    out *= 2.0
    tail = 2.0 / (math.pi**2 * kp.rho * alpha_cut)
    return out, tail


def _alpha_cut(rho: float) -> float:
    """The transform's cut A: its tail 2/(pi^2 rho A) stays near 5e-4 for any rho."""
    return 400.0 / rho


def _charge_pairs(eta: float, rho: float, t_count: int, tmax: float, bound: str) -> None:
    """Charge ``t_count`` t values up to ``tmax`` in absolute value, times
    the alpha nodes of each sign's transform, as "transform pairs";
    ``bound`` prefixes the count in the message."""
    alpha_cut = _alpha_cut(rho)
    for sign in ("plus", "minus"):
        kp = KernelParams(eta=eta, rho=rho, sign=sign)
        nodes = 8 * _transform_panels(tmax, kp, alpha_cut)
        charge("transform pairs", t_count * nodes,
               f"kernel transform over {bound}{t_count} t values x {nodes} nodes ({sign})")


def check_grid(eta: float, rho: float, points: int) -> None:
    """Refuse, before it is built, a ``points``-value linspace over
    [-2 eta, 2 eta] whose ``sandwich_check`` would pass its budget.

    Its values are distinct and each |t| comes from at most two of them, so
    the check takes at least ceil(points/2) distinct |t|; for points >= 1
    the largest is max(2 eta, eta + rho) with the knots, which fixes the
    node count.  So this charge is at most the exact one, and refuses only
    grids that the check would refuse too."""
    _charge_pairs(eta, rho, -(-points // 2), max(2 * eta, eta + rho), "at least ")


@dataclass(frozen=True)
class SandwichReport:
    eta: float
    rho: float
    quad_tol: float
    tail_bound: float
    max_numeric_dev_plus: float
    max_numeric_dev_minus: float
    points_checked: int


def sandwich_check(eta: float, rho: float, t_grid: Sequence[float],
                   quad_tol: float) -> SandwichReport:
    """Verify the sandwich hat_minus(t) <= U_eta(t) <= hat_plus(t):

    1. the numeric truncated transform matches the closed-form trapezoid within
       quad_tol + tail for both signs, on a grid of t values plus the
       trapezoid knots, and
    2. the chain holds for every real t, decided once at the knots.  Where
       plateau < support, ``kernel_hat`` is 0 at |t| >= support and 1 at
       |t| <= plateau (float subtraction and division are monotone), and U
       is 1 exactly on |t| < eta, so the chain holds everywhere iff
       minus.support <= eta <= plus.plateau: exact float comparisons.

    Each sign's work, len(ts) t values times its alpha nodes, is charged as
    "transform pairs" before any phase is built, and ResourceLimit is
    raised past that budget (``_charge_pairs``).  Raises SandwichViolation
    on any failure of the check; that means a bug, not bad input.
    """
    check_tol(quad_tol)
    kp_plus = KernelParams(eta=eta, rho=rho, sign="plus")
    kp_minus = KernelParams(eta=eta, rho=rho, sign="minus")
    if not (kp_minus.plateau < kp_minus.support <= eta <= kp_plus.plateau < kp_plus.support):
        raise SandwichViolation(
            f"trapezoid chain fails at the knots: minus {kp_minus.plateau!r}, "
            f"{kp_minus.support!r}; eta {eta!r}; plus {kp_plus.plateau!r}, {kp_plus.support!r}")
    knots = [0.0, eta - rho, eta, eta + rho]
    ts = np.sort(np.abs(np.concatenate([np.asarray(t_grid, dtype=float), knots])))
    ts = ts[np.append(True, ts[1:] != ts[:-1])]    # each distinct |t| once
    _charge_pairs(eta, rho, len(ts), float(ts[-1]), "")
    alpha_cut = _alpha_cut(rho)
    devs = {}
    tail = 0.0
    for kp in (kp_plus, kp_minus):
        numeric, tail = kernel_transform_numeric(ts, kp, alpha_cut)
        closed = kernel_hat(ts, kp)
        dev = float(np.max(np.abs(numeric - closed)))
        if dev > quad_tol + tail:
            raise SandwichViolation(
                f"numeric transform deviates {dev:.3g} > {quad_tol:.3g} + tail {tail:.3g} "
                f"for sign={kp.sign}")
        devs[kp.sign] = dev
    return SandwichReport(
        eta=eta, rho=rho, quad_tol=quad_tol, tail_bound=tail,
        max_numeric_dev_plus=devs["plus"], max_numeric_dev_minus=devs["minus"],
        points_checked=len(ts),
    )
