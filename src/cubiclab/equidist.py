"""Weyl sums over the integer zero set of a cubic form, seeded box discrepancy
of the linear-form values mod 1, and the desk-scale equidistribution table."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ._trig import cis
from .errors import EmptyZeroSet
from .forms_core import CubicForm, LinearSystem
from .lattice_enum import zero_points


@dataclass(frozen=True)
class WeylStat:
    k: Tuple[int, ...]
    P: float
    sum: complex
    N: int

    @property
    def normalized(self) -> complex:
        return self.sum / self.N

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("normalization needs N >= 1")


@dataclass(frozen=True)
class DiscrepancyStat:
    P: float
    value: float
    boxes: int
    seed: int

    def __post_init__(self):
        if not (0 <= self.value <= 1):
            raise ValueError("discrepancy lies in [0, 1]")


def linear_values_mod1(Lsys: LinearSystem, pts: np.ndarray) -> np.ndarray:
    """L(x) mod 1 for every zero in pts, shape (N, r)."""
    vals = pts.astype(float) @ Lsys.matrix().T
    return np.mod(vals, 1.0)


def _weyl_total(Lsys: LinearSystem, pts: np.ndarray, k: Sequence[int]) -> complex:
    """sum over the rows x of pts of e(k . L(x))."""
    lam = Lsys.matrix().T @ np.asarray(k, dtype=float)
    return complex(np.sum(cis(pts.astype(float) @ lam)))


def weyl_sum(C: CubicForm, Lsys: LinearSystem, k: Sequence[int], P: float,
             strategy: str = "auto") -> WeylStat:
    """sum over {|x| <= P, C(x) = 0} of e(k . L(x)), with N_u(P) alongside.

    k = 0 is rejected: that sum is just the normalization count N_u(P).
    """
    kvec = tuple(int(v) for v in k)
    if len(kvec) != Lsys.r:
        raise ValueError("k length must equal r")
    if not any(kvec):
        raise ValueError("k must be a nonzero integer vector")
    pts, _ = zero_points(C, P, strategy)
    if len(pts) == 0:
        raise EmptyZeroSet(f"no zeros with |x| <= {P}")
    return WeylStat(k=kvec, P=P, sum=_weyl_total(Lsys, pts, kvec), N=len(pts))


def discrepancy(points: np.ndarray, boxes: int, seed: int) -> DiscrepancyStat:
    """Max over seeded random axis-aligned boxes [a, b) in [0,1)^r of
    |empirical fraction - volume|; cheap, reproducible trend detector."""
    pts = np.mod(np.asarray(points, dtype=float), 1.0)
    if pts.ndim == 1:
        pts = pts[:, None]
    if len(pts) == 0:
        raise ValueError("need at least one point")
    r = pts.shape[1]
    rng = np.random.default_rng(seed)
    corners = rng.uniform(size=(boxes, 2, r))
    lo = np.minimum(corners[:, 0, :], corners[:, 1, :])
    hi = np.maximum(corners[:, 0, :], corners[:, 1, :])
    worst = 0.0
    for b in range(boxes):
        inside = np.all((pts >= lo[b]) & (pts < hi[b]), axis=1)
        vol = float(np.prod(hi[b] - lo[b]))
        worst = max(worst, abs(float(inside.mean()) - vol))
    return DiscrepancyStat(P=float("nan"), value=worst, boxes=boxes, seed=seed)


@dataclass(frozen=True)
class EquidistRow:
    P: float
    N: int
    discrepancy: float
    weyl: Tuple[Tuple[Tuple[int, ...], float], ...]  # (k, |normalized|)


def equidist_experiment(C: CubicForm, Lsys: LinearSystem, P_grid: Sequence[float],
                        k_set: Sequence[Sequence[int]], boxes: int, seed: int,
                        strategy: str = "auto") -> List[EquidistRow]:
    """Per P: the zero count, the box discrepancy of L(Z) mod 1, and the
    normalized Weyl sum magnitude for each requested frequency."""
    rows = []
    for P in P_grid:
        pts, _ = zero_points(C, P, strategy)
        if len(pts) == 0:
            raise EmptyZeroSet(f"no zeros with |x| <= {P}")
        vals = linear_values_mod1(Lsys, pts)
        disc = discrepancy(vals, boxes, seed)
        weyl = tuple((tuple(int(v) for v in k), abs(_weyl_total(Lsys, pts, k)) / len(pts))
                     for k in k_set)
        rows.append(EquidistRow(P=float(P), N=len(pts), discrepancy=disc.value,
                                weyl=weyl))
    return rows


def write_equidist_csv(rows: Sequence[EquidistRow], path: str) -> None:
    if not rows:
        raise ValueError("no rows to write")
    k_labels = ["k=" + ",".join(str(v) for v in k) for k, _ in rows[0].weyl]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["P", "N", "discrepancy"] + k_labels)
        for row in rows:
            writer.writerow([row.P, row.N, f"{row.discrepancy:.6f}"]
                            + [f"{mag:.6e}" for _, mag in row.weyl])


def erdos_turan_bound(normalized_mags: Sequence[float]) -> float:
    """One-dimensional Erdos-Turan upper bound on the star discrepancy from
    the first K normalized Weyl sums, with the standard constant 3."""
    K = len(normalized_mags)
    if K == 0:
        raise ValueError("need at least one frequency")
    return 3.0 * (1.0 / (K + 1) + sum(m / h for h, m in enumerate(normalized_mags, 1)))
