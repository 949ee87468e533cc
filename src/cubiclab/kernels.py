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
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from ._grid import gl_nodes
from ._trig import cos2pi
from .errors import SandwichViolation


def choose_T(P: float, policy: str = "log", theta: float = 0.01) -> float:
    """A concrete monotone schedule T(P) <= P, either max(1, log P) or P^theta.

    Only existence of such a function is guaranteed abstractly; a concrete
    policy is required for reproducible runs and is recorded in reports.
    """
    if P < 1:
        raise ValueError("P must be at least 1")
    if policy == "log":
        return max(1.0, math.log(P))
    if policy == "pow":
        if not (0 < theta <= 1):
            raise ValueError("theta must lie in (0, 1]")
        return P**theta
    raise ValueError(f"unknown policy {policy!r}")


@dataclass(frozen=True)
class KernelParams:
    """eta, rho and the sign choice; rho = eta / L with L = max(1, log T)."""

    eta: float
    rho: float
    sign: str  # "plus" or "minus"

    def __post_init__(self):
        if self.sign not in ("plus", "minus"):
            raise ValueError("sign must be 'plus' or 'minus'")
        if not (0 < self.rho <= self.eta):
            raise ValueError("need 0 < rho <= eta (minus-kernel trapezoid degenerates otherwise)")

    @classmethod
    def from_P(cls, eta: float, P: float, sign: str, policy: str = "log",
               theta: float = 0.01) -> "KernelParams":
        T = choose_T(P, policy, theta)
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


def _hat_exact(t: Fraction, eta: Fraction, rho: Fraction, sign: str) -> Fraction:
    a = abs(t)
    lo = eta if sign == "plus" else eta - rho
    hi = eta + rho if sign == "plus" else eta
    if a <= lo:
        return Fraction(1)
    if a >= hi:
        return Fraction(0)
    return (hi - a) / (hi - lo)


def _indicator_exact(t: Fraction, eta: Fraction) -> Fraction:
    return Fraction(1) if abs(t) < eta else Fraction(0)


def kernel_transform_numeric(t_values: Sequence[float], kp: KernelParams,
                             alpha_cut: float, gl_order: int = 8
                             ) -> Tuple[np.ndarray, float]:
    """Truncated transform 2 * integral_0^A K(alpha) cos(2 pi alpha t) d alpha
    for each t, plus the tail bound 2/(pi^2 rho A) from the alpha^{-2} envelope.
    """
    tmax = max(abs(float(t)) for t in t_values)
    # max combined frequency of the three oscillating factors, cycles per unit alpha
    fmax = (kp.rho + kp.outer_width) / 2 + tmax
    panels = max(16, int(math.ceil(alpha_cut * fmax * 1.25)))
    nodes, weights = gl_nodes(panels, gl_order, 0.0, alpha_cut)
    kvals = kernel_K(nodes, kp) * weights
    t_arr = np.asarray(t_values, dtype=float)
    out = np.empty(len(t_arr))
    chunk = max(1, 8_000_000 // max(1, len(nodes)))
    for s in range(0, len(t_arr), chunk):
        block = t_arr[s:s + chunk]
        out[s:s + chunk] = 2.0 * (cos2pi(np.outer(block, nodes)) @ kvals)
    tail = 2.0 / (math.pi**2 * kp.rho * alpha_cut)
    return out, tail


@dataclass(frozen=True)
class SandwichReport:
    eta: float
    rho: float
    quad_tol: float
    tail_bound: float
    max_numeric_dev_plus: float
    max_numeric_dev_minus: float
    points_checked: int


def sandwich_check(eta: float, rho: float, t_grid: Sequence[float], quad_tol: float,
                   alpha_cut: float | None = None) -> SandwichReport:
    """Verify, on a grid of t values plus the trapezoid knots:

    1. the numeric truncated transform matches the closed-form trapezoid within
       quad_tol + tail for both signs, and
    2. hat_minus(t) <= U_eta(t) <= hat_plus(t) in exact rational arithmetic.

    Raises SandwichViolation on any failure; that means a bug, not bad input.
    """
    kp_plus = KernelParams(eta=eta, rho=rho, sign="plus")
    kp_minus = KernelParams(eta=eta, rho=rho, sign="minus")
    knots = [0.0, eta - rho, eta, eta + rho]
    ts = sorted(set(abs(float(t)) for t in list(t_grid) + knots + [-k for k in knots]))
    if alpha_cut is None:
        # tail = 2/(pi^2 rho A); this choice pins it near 5e-4 for any rho
        alpha_cut = 400.0 / rho
    devs = {}
    tail = 0.0
    for kp in (kp_plus, kp_minus):
        numeric, tail = kernel_transform_numeric(ts, kp, alpha_cut)
        closed = kernel_hat(np.array(ts), kp)
        dev = float(np.max(np.abs(numeric - closed)))
        if dev > quad_tol + tail:
            raise SandwichViolation(
                f"numeric transform deviates {dev:.3g} > {quad_tol:.3g} + tail {tail:.3g} "
                f"for sign={kp.sign}")
        devs[kp.sign] = dev
    eta_f = Fraction(eta)
    rho_f = Fraction(rho)
    for t in ts:
        t_f = Fraction(t)
        lo = _hat_exact(t_f, eta_f, rho_f, "minus")
        mid = _indicator_exact(t_f, eta_f)
        hi = _hat_exact(t_f, eta_f, rho_f, "plus")
        if not (lo <= mid <= hi):
            raise SandwichViolation(f"exact trapezoid chain fails at t={t}")
    return SandwichReport(
        eta=eta, rho=rho, quad_tol=quad_tol, tail_bound=tail,
        max_numeric_dev_plus=devs["plus"], max_numeric_dev_minus=devs["minus"],
        points_checked=len(ts),
    )
