"""Weyl sums over the integer zero set of a cubic form, seeded box discrepancy
of the linear-form values mod 1, and the desk-scale equidistribution table."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from . import _grid, lattice_enum
from ._trig import cis
from .errors import DimensionMismatch, EmptyZeroSet
from .forms_core import CubicForm, LinearSystem


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


def _mod1(x: np.ndarray, out=None) -> np.ndarray:
    """x mod 1 as x - floor(x), bit for bit ``np.mod(x, 1.0)`` and several
    times faster: for x < 0 both round the one real number 1 + (x - trunc x),
    and an integer x gives +0.0.  Like ``np.mod``, it gives 1.0 for tiny
    negative x."""
    return np.subtract(x, np.floor(x), out=out)


def _nested_zeros(C: CubicForm, Lsys: LinearSystem, P_grid: Sequence[float]
                  ) -> Tuple[np.ndarray, List[int], List[int]]:
    """One enumeration for a whole grid of nested boxes: (frac, bounds, Ns).

    ``bounds`` are the distinct floor(P) of the grid in increasing order.
    The zeros are enumerated once, at the largest, and their L(x) come
    grouped by shell (the index of the smallest box that holds a zero)
    from ``zero_values_by_shell``, which walks one zero of each pair
    {x, -x} and writes its floats, ``_grid.row_values`` on each block's
    coordinate columns, into its shell's rows: on a split form the columns
    are gathered from the meet-in-the-middle join, and no row of the zero
    set is built.  Each shell holds its walked zeros, then their negated
    values, the values of their mirrors, and the origin's 0.0 where it
    holds the origin.  Ns[j] is where shell j ends.  ``frac`` is L(x)
    reduced once into [0, 1), in place, a block of ``_grid.BLOCK`` rows at
    a time, so that ``_mod1``'s floor holds one block: ``_mod1`` of the
    floats of ``_grid.row_values``, with its 1.0 (from tiny negative L)
    taken to 0.0, which ``cis`` maps alike and a second ``_mod1`` would
    give.  A mirror's -L reduces to what its own row gives, whose L is -L
    up to the sign of a zero, which ``_mod1`` removes.  So box j is
    ``frac[:Ns[j]]``, the zeros and floats of its own enumeration in
    another order, and shell j is the block ``frac[Ns[j-1]:Ns[j]]``; the
    one array with an entry per zero is ``frac``.  The discrepancy does not
    depend on the order, and a Weyl sum only in its rounding.
    """
    for P in P_grid:
        if not math.isfinite(P):
            raise ValueError(f"P must be finite, got {P}")
    bounds = sorted({math.floor(P) for P in P_grid})
    frac, Ns = lattice_enum.zero_values_by_shell(C, bounds, Lsys)
    for s in range(0, len(frac), _grid.BLOCK):
        part = frac[s:s + _grid.BLOCK]
        _mod1(part, out=part)
        part[part == 1.0] = 0.0
    for P in P_grid:
        if Ns[bounds.index(math.floor(P))] == 0:
            raise EmptyZeroSet(f"no zeros with |x| <= {P}")
    return frac, bounds, Ns


def _power(z: np.ndarray, m: int) -> np.ndarray:
    """z**m elementwise for |z| = 1, by repeated squaring; a negative m
    conjugates."""
    out, base, e = None, z, abs(m)
    while True:
        if e & 1:
            out = base if out is None else out * base
        e >>= 1
        if not e:
            break
        base = base * base
    return np.conj(out) if m < 0 else out


def _weyl_totals(frac: np.ndarray, Ns: Sequence[int], k_set: Sequence[Sequence[int]]
                 ) -> List[List[float]]:
    """For each k, the sums of e(k . v) over the first Ns[j] rows v of frac,
    for every j, in the layout of ``zero_values_by_shell``: shell j, rows
    Ns[j-1] to Ns[j], holds w walked rows, their mirrors and, in one shell,
    the origin.  A mirror's row reduces -L where the walked row reduces L,
    so the two terms are conjugate up to rounding, and the origin's term is
    1.  So each sum is exactly real: twice the real part of the sum over
    the walked rows of the shells up to j, plus 1 when Ns[j] is odd (the
    box holds the origin).  e(v) takes one ``cis``, and e(k . v) is a
    product of its powers.

    The walked rows of each shell go in blocks of ``_grid.BLOCK``, so no
    complex array has an entry per row: each block's real parts are summed
    into the shell's Python float total, and box j's sum adds the totals of
    shells 0..j.  A sum differs from one ``np.sum`` over its box's rows in
    rounding only."""
    shell_sums = [[0.0] * len(Ns) for _ in k_set]
    chunk = _grid.BLOCK
    for j, (start, N) in enumerate(zip([0] + Ns[:-1], Ns)):
        stop = start + N // 2 - start // 2     # box j walks N // 2 zeros
        for s in range(start, stop, chunk):
            roots = cis(frac[s:min(s + chunk, stop)])
            for k, sums in zip(k_set, shell_sums):
                terms = None
                for i, m in enumerate(k):
                    if m:
                        f = _power(roots[:, i], int(m))
                        terms = f if terms is None else terms * f
                sums[j] += float(np.sum(terms.real))
    return [(2 * np.cumsum(sums) + np.remainder(Ns, 2)).tolist() for sums in shell_sums]


def _check_frequencies(Lsys: LinearSystem, k_set: Sequence[Sequence[int]]) -> None:
    if any(len(k) != Lsys.r for k in k_set):
        raise DimensionMismatch("k length must equal r")
    if not all(any(int(v) for v in k) for k in k_set):
        raise ValueError("every k must be a nonzero integer vector")


def weyl_sum(C: CubicForm, Lsys: LinearSystem, k: Sequence[int], P: float) -> WeylStat:
    """sum over {|x| <= P, C(x) = 0} of e(k . L(x)), with N_u(P) alongside.
    The zero set is closed under x -> -x, so the sum is real, and its
    imaginary part is 0.0 (``_weyl_totals``).

    k = 0 is rejected: that sum is just the normalization count N_u(P).
    """
    Lsys = LinearSystem.for_form(C, Lsys)
    kvec = tuple(int(v) for v in k)
    _check_frequencies(Lsys, [kvec])
    frac, _, Ns = _nested_zeros(C, Lsys, [P])
    [[total]] = _weyl_totals(frac, Ns, [kvec])
    return WeylStat(k=kvec, P=P, sum=complex(total), N=Ns[0])


def _boxes(boxes: int, r: int, seed: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The corners (lo, hi) of the seeded boxes [lo, hi) in [0,1)^r, in blocks
    of ``_grid.BLOCK`` boxes drawn as they are read: the boxes of one
    ``default_rng(seed)`` draw of all the corners, bit for bit, since the
    stream gives the same numbers in blocks.  Refuses fewer than one box,
    which would report a discrepancy of 0, and charges boxes r here, before
    any corner is drawn: "points" also meters box dimensions, as a bound on
    time (a block bounds the memory)."""
    if boxes < 1:
        raise ValueError(f"boxes must be at least 1, got {boxes}")
    _grid.charge("points", boxes * r, f"discrepancy over {boxes} boxes in dimension {r}")
    return _box_blocks(boxes, r, np.random.default_rng(seed))


def _box_blocks(boxes: int, r: int, rng) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    chunk = _grid.BLOCK
    for s in range(0, boxes, chunk):
        corners = rng.uniform(size=(min(chunk, boxes - s), 2, r))
        yield (np.minimum(corners[:, 0, :], corners[:, 1, :]),
               np.maximum(corners[:, 0, :], corners[:, 1, :]))


def _sort_rows(pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(first, rest) for ``_box_counts``: the rows of pts (N, r) reordered in
    place by their first coordinate, that coordinate as a contiguous array
    and the others as a view.  For r >= 2 the rows are reordered one column
    at a time from one argsort, so beyond pts the sort holds the order and
    one column."""
    if pts.shape[1] == 1:
        pts[:, 0].sort()
        return pts[:, 0], pts[:, 1:]
    order = np.argsort(pts[:, 0])
    for col in pts.T[1:]:   # a column at a time: no second (N, r) array
        col[:] = col[order]
    first = pts[:, 0][order]
    pts[:, 0] = first
    return first, pts[:, 1:]


def _box_counts(first: np.ndarray, rest: np.ndarray, lo: np.ndarray, hi: np.ndarray
                ) -> np.ndarray:
    """For each box [lo, hi), the number of points inside it, of the points
    sorted once by ``_sort_rows``.

    The points with lo_1 <= x_1 < hi_1 form one slice per box, found by
    binary search.  For r = 1 the slice lengths are the counts and the cost
    is O(boxes log N) after the O(N log N) sort; for r > 1 the other
    coordinates are tested on each box's slice only."""
    start = np.searchsorted(first, lo[:, 0], side="left")
    stop = np.searchsorted(first, hi[:, 0], side="left")
    counts = stop - start
    if rest.shape[1]:
        for b in range(len(counts)):
            sl = rest[start[b]:stop[b]]
            counts[b] = np.count_nonzero(np.all((sl >= lo[b, 1:]) & (sl < hi[b, 1:]), axis=1))
    return counts


def _worst(counts: np.ndarray, N: int, lo: np.ndarray, hi: np.ndarray) -> float:
    """max over the boxes of |counts / N - volume|."""
    vol = np.prod(hi - lo, axis=1)
    return float(np.max(np.abs(counts / N - vol)))


@dataclass(frozen=True)
class EquidistRow:
    P: float
    N: int
    discrepancy: float
    weyl: Tuple[Tuple[Tuple[int, ...], float], ...]  # (k, |normalized|)


def equidist_experiment(C: CubicForm, Lsys: LinearSystem, P_grid: Sequence[float],
                        k_set: Sequence[Sequence[int]], boxes: int, seed: int
                        ) -> List[EquidistRow]:
    """Per P: the zero count, the box discrepancy of L(Z) mod 1, and the
    normalized Weyl sum magnitude for each requested frequency.  As in
    ``weyl_sum``, k = 0 is rejected.

    The boxes are nested, so one pass serves the whole grid (see
    ``_nested_zeros``): each P sees exactly the zeros and the floats that
    its own enumeration would give.  The values are reduced mod 1 once, the
    Weyl sums read the walked half only (``_weyl_totals``), and each
    shell's block is sorted once, in place, after the Weyl sums have read
    it.  The boxes come in blocks (``_boxes``): a box's counts are the
    sums of its shells' counts, and each P keeps the running maximum over
    the blocks, the maximum over the boxes of one enumeration per P."""
    Lsys = LinearSystem.for_form(C, Lsys)
    _check_frequencies(Lsys, k_set)
    if len(P_grid) == 0:
        raise ValueError("the P grid is empty")
    blocks = _boxes(boxes, Lsys.r, seed)
    frac, bounds, Ns = _nested_zeros(C, Lsys, P_grid)
    totals = _weyl_totals(frac, Ns, k_set)
    shells = [_sort_rows(frac[a:b]) for a, b in zip([0] + Ns[:-1], Ns)]
    worst = [0.0] * len(Ns)
    for lo, hi in blocks:
        counts = np.cumsum([_box_counts(first, rest, lo, hi) for first, rest in shells], axis=0)
        worst = [max(w, _worst(c, N, lo, hi)) for w, c, N in zip(worst, counts, Ns)]
    rows = []
    for P in P_grid:
        j = bounds.index(math.floor(P))
        N = Ns[j]
        weyl = tuple((tuple(int(v) for v in k), abs(t[j]) / N) for k, t in zip(k_set, totals))
        rows.append(EquidistRow(P=float(P), N=N, discrepancy=worst[j], weyl=weyl))
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

