"""Enumeration of integer zeros of a cubic form in boxes, and the weighted and
unweighted counting functions under linear inequality constraints.

Zero detection is always exact integer arithmetic.  The numpy fast paths check
an a-priori bound against the int64 range and fall back to a pure-Python scan
if it could overflow.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ._grid import box_points, cubic_values, slabs
from .errors import DimensionMismatch, ResourceLimit, SplitUnavailable
from .forms_core import CubicForm, LinearSystem

DIRECT_POINT_BUDGET = 200_000_000
MIM_TABLE_CAP = 20_000_000
_INT64_SAFE = 2**62


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


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("CUBICLAB_WORKERS", "1")))
    except ValueError:
        return 1


def _slab_zeros(C: CubicForm, coords: List[np.ndarray]) -> np.ndarray:
    """The zeros of C on one slab of int64 coordinates, as rows of points."""
    vals = cubic_values(C, coords)
    hits = np.nonzero(vals == 0)
    return np.stack([np.broadcast_to(x, vals.shape)[hits] for x in coords], axis=1)


def _slab_task(args):
    """One x1 slab in a worker process, which rebuilds the grid of the rest."""
    C, B, x1 = args
    axis = np.arange(-B, B + 1, dtype=np.int64)
    rest = np.meshgrid(*([axis] * (C.n - 1)), indexing="ij")
    return _slab_zeros(C, [np.int64(x1), *rest])


def _zeros_direct(C: CubicForm, B: int) -> Tuple[np.ndarray, int]:
    """All x with |x| <= B and C(x) = 0, lex-ordered, plus points examined."""
    if B < 0:
        return np.zeros((0, C.n), dtype=np.int64), 0
    box = (2 * B + 1) ** C.n
    if box > DIRECT_POINT_BUDGET:
        raise ResourceLimit(f"direct enumeration over {box} points exceeds budget")
    if C.max_abs_value(B) >= _INT64_SAFE:
        pts = _zeros_python(C, B)
        return pts, box
    workers = _worker_count()
    if workers > 1 and C.n > 1 and 2 * B + 1 >= 4:
        xs = list(range(-B, B + 1))
        with ProcessPoolExecutor(max_workers=workers) as ex:
            zeros = list(ex.map(_slab_task, [(C, B, x1) for x1 in xs], chunksize=8))
    else:
        axis = np.arange(-B, B + 1, dtype=np.int64)
        zeros = [_slab_zeros(C, coords) for coords in slabs(axis, C.n)]
    return np.concatenate(zeros, axis=0), box


def _zeros_python(C: CubicForm, B: int) -> np.ndarray:
    from itertools import product as iproduct
    from .forms_core import eval_cubic
    out = [x for x in iproduct(range(-B, B + 1), repeat=C.n) if eval_cubic(C, x) == 0]
    return np.array(out, dtype=np.int64).reshape(len(out), C.n)


def additive_split(C: CubicForm) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """A variable partition (A, B) with C = C_A + C_B and no monomial crossing
    it, or None when the co-occurrence graph is connected.

    Components are assigned to the smaller side greedily (largest first), so
    diagonal forms split near-evenly.  Unused variables count as singleton
    components.
    """
    n = C.n
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for (i, j, k) in C.coeffs:
        union(i, j)
        union(j, k)
    comps: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        comps.setdefault(find(v), []).append(v)
    groups = sorted(comps.values(), key=lambda g: (-len(g), g[0]))
    if len(groups) < 2:
        return None
    side_a: List[int] = []
    side_b: List[int] = []
    for g in groups:
        (side_a if len(side_a) <= len(side_b) else side_b).extend(g)
    return tuple(sorted(side_a)), tuple(sorted(side_b))


def _subform(C: CubicForm, vars_subset: Tuple[int, ...]) -> CubicForm:
    pos = {v: i + 1 for i, v in enumerate(vars_subset)}
    terms = {}
    for (i, j, k), c in C.coeffs.items():
        if i in pos and j in pos and k in pos:
            terms[tuple(sorted((pos[i], pos[j], pos[k])))] = c
    return CubicForm(n=len(vars_subset), coeffs=terms)


def _value_table(C_sub: CubicForm, B: int) -> Tuple[np.ndarray, np.ndarray]:
    """(points, values) of a subform over its box, exact int64."""
    pts = box_points(np.arange(-B, B + 1, dtype=np.int64), C_sub.n)
    return pts, cubic_values(C_sub, pts.T)


def _zeros_mim(C: CubicForm, B: int, table_cap: int = MIM_TABLE_CAP) -> Tuple[np.ndarray, int]:
    """Meet-in-the-middle zero enumeration for additively split forms."""
    split = additive_split(C)
    if split is None:
        raise SplitUnavailable("form has no additive split over a variable partition")
    if B < 0:
        return np.zeros((0, C.n), dtype=np.int64), 0
    vars_a, vars_b = split
    side = (2 * B + 1) ** max(len(vars_a), len(vars_b))
    if side > table_cap:
        return _zeros_direct(C, B)
    if C.max_abs_value(B) >= _INT64_SAFE:
        pts = _zeros_python(C, B)
        return pts, (2 * B + 1) ** C.n
    Ca = _subform(C, vars_a)
    Cb = _subform(C, vars_b)
    pts_a, vals_a = _value_table(Ca, B)
    pts_b, vals_b = _value_table(Cb, B)
    order = np.argsort(vals_a, kind="stable")
    sa = vals_a[order]
    lo = np.searchsorted(sa, -vals_b, side="left")
    hi = np.searchsorted(sa, -vals_b, side="right")
    counts = hi - lo
    total = int(counts.sum())
    examined = len(pts_a) + len(pts_b)
    out = np.empty((total, C.n), dtype=np.int64)
    if total:
        b_rep = np.repeat(np.arange(len(pts_b)), counts)
        a_idx = np.concatenate([order[l:h] for l, h in zip(lo, hi) if h > l])
        out[:, [v - 1 for v in vars_a]] = pts_a[a_idx]
        out[:, [v - 1 for v in vars_b]] = pts_b[b_rep]
    return out, examined


def zero_points(C: CubicForm, P: float, strategy: str = "direct") -> Tuple[np.ndarray, int]:
    """Zero set {x : |x| <= P, C(x) = 0} as an int64 array, plus points examined."""
    B = math.floor(P)
    if strategy == "direct":
        return _zeros_direct(C, B)
    if strategy in ("meet_in_middle", "mim"):
        return _zeros_mim(C, B)
    if strategy == "auto":
        if additive_split(C) is not None:
            return _zeros_mim(C, B)
        return _zeros_direct(C, B)
    raise ValueError(f"unknown strategy {strategy!r}")


def enumerate_zeros(C: CubicForm, P: float, strategy: str = "direct") -> Iterator[Tuple[int, ...]]:
    """Stream the zero set {x : |x| <= P, C(x) = 0}, each point exactly once.

    Both strategies produce the same set; the iteration order is deterministic
    per strategy (lexicographic for "direct").
    """
    pts, _ = zero_points(C, P, strategy)
    for row in pts:
        yield tuple(int(v) for v in row)


# ---------------------------------------------------------------------------
# Counting


@dataclass(frozen=True)
class CountQuery:
    C: CubicForm
    Lsys: Optional[LinearSystem] = None
    tau: Tuple[float, ...] = ()
    eta: float = 1.0
    P: float = 1.0
    weighted: bool = False
    strategy: str = "auto"
    keep_solutions: int = 0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.P < 1:
            raise ValueError("P must be at least 1")
        r = self.Lsys.r if self.Lsys is not None else 0
        if len(self.tau) != r:
            raise DimensionMismatch("tau length must equal r")


@dataclass(frozen=True)
class CountResult:
    value: float
    points_examined: int
    solutions: Optional[Tuple[Tuple[int, ...], ...]] = None

    @property
    def count(self) -> int:
        return int(round(self.value))


def _constraint_mask(pts: np.ndarray, Lsys: Optional[LinearSystem],
                     tau: Sequence[float], eta: float) -> np.ndarray:
    mask = np.ones(len(pts), dtype=bool)
    if Lsys is None or Lsys.r == 0:
        return mask
    vals = pts.astype(float) @ Lsys.matrix().T
    for i in range(Lsys.r):
        # strict inequality, no epsilon: ties are measure zero for irrational rows
        mask &= np.abs(vals[:, i] - float(tau[i])) < eta
    return mask


def count(q: CountQuery) -> CountResult:
    """N_w(P) (weighted) or the exact unweighted count of constrained zeros.

    Weighted counting enumerates |x| <= ceil(P) - 1 (the weight vanishes for
    |x| >= P anyway); unweighted counting uses |x| <= floor(P).
    """
    B = math.ceil(q.P) - 1 if q.weighted else math.floor(q.P)
    pts, examined = zero_points(q.C, B, q.strategy)
    mask = _constraint_mask(pts, q.Lsys, q.tau, q.eta)
    pts = pts[mask]
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
    B = math.ceil(P) - 1
    pts, _ = zero_points(C, B, "auto")
    w = weight_w(pts.astype(float) / P) if len(pts) else np.zeros(0)
    if Lsys is not None and Lsys.r:
        vals = pts.astype(float) @ Lsys.matrix().T
        for i in range(Lsys.r):
            w = w * kernel_hat(vals[:, i] - float(tau[i]), kp)
    return float(np.sum(w))
