"""Enumeration of integer zeros of a cubic form in boxes, and the weighted and
unweighted counting functions under linear inequality constraints.

Zero detection is always exact integer arithmetic: both enumerations build
their box axis in ``_grid.exact_dtype`` of the bound ``C.max_abs_value(B)``,
int64 below 2^62 and Python integers past it, and return int64 points.
Meet-in-the-middle needs an additive split of the form; ``zero_points``
picks it under "auto" whenever the form has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ._grid import (_subform, additive_split, box_points, constraint_mask, cubic_values,
                    exact_dtype, slabs)
from .errors import DimensionMismatch, ResourceLimit, SplitUnavailable
from .forms_core import CubicForm, LinearSystem

DIRECT_POINT_BUDGET = 200_000_000
MIM_TABLE_CAP = 20_000_000


def weight_w(x) -> np.ndarray | float:
    """Smooth bump weight on the open unit sup-norm box.

    w(x) = exp(-sum_j 1/(1 - x_j^2)) for |x| < 1 and 0 otherwise, so
    0 <= w <= e^{-n} with the maximum at the origin.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    inside = np.abs(pts).max(axis=1) < 1.0
    out = np.zeros(len(pts))
    if inside.any():
        sq = pts[inside] ** 2
        out[inside] = np.exp(-np.sum(1.0 / (1.0 - sq), axis=1))
    return float(out[0]) if single else out


def indicator_U(t: float, eta: float) -> int:
    """1 iff |t| < eta (strict), else 0."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return 1 if abs(t) < eta else 0


# ---------------------------------------------------------------------------
# Enumeration


def _slab_zeros(C: CubicForm, coords: List[np.ndarray]) -> np.ndarray:
    """The zeros of C on one slab of exact integer coordinates, as rows of points."""
    vals = cubic_values(C, coords)
    hits = np.nonzero(vals == 0)
    return np.stack([np.broadcast_to(x, vals.shape)[hits] for x in coords], axis=1)


def _zeros_direct(C: CubicForm, B: int) -> Tuple[np.ndarray, int]:
    """All x with |x| <= B and C(x) = 0, lex-ordered, plus points examined."""
    if B < 0:
        return np.zeros((0, C.n), dtype=np.int64), 0
    box = (2 * B + 1) ** C.n
    if box > DIRECT_POINT_BUDGET:
        raise ResourceLimit(f"direct enumeration over {box} points exceeds budget")
    axis = np.arange(-B, B + 1, dtype=exact_dtype(C.max_abs_value(B)))
    zeros = [_slab_zeros(C, coords) for coords in slabs(axis, C.n)]
    return np.concatenate(zeros, axis=0).astype(np.int64, copy=False), box


def _value_table(C_sub: CubicForm, axis: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(points, values) of a subform over the box axis^n, exact in the axis dtype."""
    pts = box_points(axis, C_sub.n)
    return pts, cubic_values(C_sub, pts.T)


def _zeros_mim(C: CubicForm, B: int, table_cap: int = MIM_TABLE_CAP) -> Tuple[np.ndarray, int]:
    """Meet-in-the-middle zero enumeration for additively split forms.

    Row order: the b-side points in box (lexicographic) order, each followed
    by its a-side matches in stable order of their values (box order among
    equal values).  Weyl sums add up rows in this order, so it is part of
    the output, not an accident of the implementation.
    """
    split = additive_split(C)
    if split is None:
        raise SplitUnavailable("form has no additive split over a variable partition")
    if B < 0:
        return np.zeros((0, C.n), dtype=np.int64), 0
    vars_a, vars_b = split
    side = (2 * B + 1) ** max(len(vars_a), len(vars_b))
    if side > table_cap:
        return _zeros_direct(C, B)
    axis = np.arange(-B, B + 1, dtype=exact_dtype(C.max_abs_value(B)))
    pts_a, vals_a = _value_table(_subform(C, vars_a), axis)
    pts_b, vals_b = _value_table(_subform(C, vars_b), axis)
    order = np.argsort(vals_a, kind="stable")
    # one search over the distinct a-side values gives each b-point's run of
    # matches in sorted order: it starts at first[k] and has run[k] rows
    uniq, first, run = np.unique(vals_a[order], return_index=True, return_counts=True)
    k = np.minimum(np.searchsorted(uniq, -vals_b), len(uniq) - 1)
    hit = uniq[k] == -vals_b
    lo = first[k]
    counts = np.where(hit, run[k], 0)
    total = int(counts.sum())
    examined = len(pts_a) + len(pts_b)
    out = np.empty((total, C.n), dtype=np.int64)
    if total:
        # row t of b-point i's run reads order[lo[i] + t]: shift the running
        # row number by lo[i] minus the start of that run
        starts = np.cumsum(counts) - counts
        a_idx = order[np.arange(total) + np.repeat(lo - starts, counts)]
        for j, v in enumerate(vars_a):
            out[:, v - 1] = pts_a[:, j][a_idx]
        for j, v in enumerate(vars_b):
            out[:, v - 1] = np.repeat(pts_b[:, j], counts)
    return out, examined


def zero_points(C: CubicForm, P: float, strategy: str = "direct") -> Tuple[np.ndarray, int]:
    """Zero set {x : |x| <= P, C(x) = 0} as an int64 array, plus points examined.

    "auto" picks meet-in-the-middle for a form with an additive split and
    direct enumeration otherwise; callers above this layer always pass it.
    "direct" and "meet_in_middle" force one route, as test oracles."""
    B = math.floor(P)
    if strategy == "direct":
        return _zeros_direct(C, B)
    if strategy == "meet_in_middle":
        return _zeros_mim(C, B)
    if strategy == "auto":
        if additive_split(C) is not None:
            return _zeros_mim(C, B)
        return _zeros_direct(C, B)
    raise ValueError(f"unknown strategy {strategy!r}")


def enumerate_zeros(C: CubicForm, P: float, strategy: str = "direct") -> Iterator[Tuple[int, ...]]:
    """Stream the zero set {x : |x| <= P, C(x) = 0}, each point exactly once.

    Both strategies produce the same set; the iteration order is deterministic
    per strategy.  "direct" is lexicographic.  Meet-in-the-middle takes the
    b-side points of the split in lexicographic order and follows each with
    its a-side matches in stable order of their values; sums over the zeros
    (Weyl sums) are accumulated in this order.
    """
    pts, _ = zero_points(C, P, strategy)
    for row in pts:
        yield tuple(int(v) for v in row)


# ---------------------------------------------------------------------------
# Counting


@dataclass(frozen=True)
class CountQuery:
    """One counting problem; Lsys None is stored as the empty system."""

    C: CubicForm
    Lsys: Optional[LinearSystem] = None
    tau: Tuple[float, ...] = ()
    eta: float = 1.0
    P: float = 1.0
    weighted: bool = False
    keep_solutions: int = 0

    def __post_init__(self):
        if not 0 < self.eta < math.inf or not all(map(math.isfinite, self.tau)):
            raise ValueError("eta must be positive and finite, and tau finite")
        if self.P < 1:
            raise ValueError("P must be at least 1")
        object.__setattr__(self, "Lsys", LinearSystem.for_form(self.C, self.Lsys))
        if len(self.tau) != self.Lsys.r:
            raise DimensionMismatch("tau length must equal r")


@dataclass(frozen=True)
class CountResult:
    value: float
    points_examined: int
    solutions: Optional[Tuple[Tuple[int, ...], ...]] = None

    @property
    def count(self) -> int:
        return int(round(self.value))


def count(q: CountQuery) -> CountResult:
    """N_w(P) (weighted) or the exact unweighted count of constrained zeros.

    Weighted counting enumerates |x| <= ceil(P) - 1 (the weight vanishes for
    |x| >= P anyway); unweighted counting uses |x| <= floor(P).  The
    constraints are ``_grid.constraint_mask``, exact for rational rows.
    """
    B = math.ceil(q.P) - 1 if q.weighted else math.floor(q.P)
    pts, examined = zero_points(q.C, B, "auto")
    pts = pts[constraint_mask(q.Lsys, pts, q.tau, q.eta)]
    if q.weighted:
        value = float(np.sum(weight_w(pts.astype(float) / q.P))) if len(pts) else 0.0
    else:
        value = float(len(pts))
    sols = None
    if q.keep_solutions:
        order = np.lexsort(tuple(pts[:, j] for j in reversed(range(q.C.n))))
        keep = pts[order[: q.keep_solutions]]
        sols = tuple(tuple(int(v) for v in row) for row in keep)
    return CountResult(value=value, points_examined=examined, solutions=sols)


def kernel_smoothed_count(C: CubicForm, Lsys: Optional[LinearSystem],
                          tau: Sequence[float], P: float, kp) -> float:
    """Counting with the interval indicator replaced by the trapezoid transform
    of a Freeman kernel; sandwiches N_w(P) between the minus and plus variants."""
    from .kernels import kernel_hat
    Lsys = LinearSystem.for_form(C, Lsys)
    if len(tau) != Lsys.r:
        raise DimensionMismatch("tau length must equal r")
    B = math.ceil(P) - 1
    pts, _ = zero_points(C, B, "auto")
    w = weight_w(pts.astype(float) / P) if len(pts) else np.zeros(0)
    vals = pts.astype(float) @ Lsys.matrix().T
    for i in range(Lsys.r):
        w = w * kernel_hat(vals[:, i] - float(tau[i]), kp)
    return float(np.sum(w))
