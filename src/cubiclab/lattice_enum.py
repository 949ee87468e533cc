"""Enumeration of integer zeros of a cubic form in boxes, and the weighted and
unweighted counting functions under linear inequality constraints.

Zero detection is always exact integer arithmetic: every enumeration builds
its box axis in ``_grid.exact_dtype`` of an a-priori bound on its values,
int64 below 2^62 and Python integers past it, and returns int64 points.
``zero_points`` has three routes, and under "auto" the form alone picks
one: meet-in-the-middle when the form has an additive split, and otherwise
the line route, which solves C = 0 as a cubic in x1 on each line of the
other coordinates by exact integer bisection alone: of its derivative for
the points where that turns sign, and of the cubic on each monotone piece
between them for its one possible zero.  The full-box scan ("direct") is
kept as the test oracle.

Meet-in-the-middle is one sorted join of the two side tables of the split
(``_Join``): the a-side in stable order of its values, and per b-point the
start and length of its run of matches.  A side past the "side points"
budget (``_grid.BUDGETS``) refuses before any table is built.  Both sides
sort on composite keys v N + i, in place, with a stable argsort where those
keys could pass 2^62; sides that agree up to sign (C_B = +-C_A) share one
table and one sort.  The join keeps its coordinates in the smallest signed
dtype that holds them and its indices in int32: 16 bytes a side point of
two coordinates on a self-join.  Every reader walks the pairs of the join,
so their count is charged as "points" before any is walked.  They walk
them in blocks of about ``_grid.BLOCK`` pairs (``_Join.blocks``), reading
side-sized tables at one block's pairs, so each reader holds only its
output beyond them: all int64 rows for ``zero_points``, the rows of a
few candidate pairs for constrained enumeration, and the floats of L of
one zero of each pair {x, -x} (``_Join.half``), written straight into the
rows of its shell, for ``zero_values_by_shell``.

Counting wants only the zeros that also satisfy |L_i(x) - tau_i| < eta.
``constrained_zero_points`` gives exactly the rows of ``zero_points`` that
``constraint_mask`` admits, in the same order.  On a split form, a float
screen of every pair, widened by a stated rounding bound delta, picks the
candidates, and the exact mask decides on them.  On any other form with
r >= 1, the sliced route runs where it is cheaper than the line route: one
row's inequality is solved for one variable x_j on every line of the
others in float, widened by a stated rounding bound, and C is evaluated
exactly at those few candidates only.  Its budget is the line route's.
``count_grid`` counts a whole grid of nested boxes from one constrained
enumeration, at its largest box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _grid
from ._grid import (INT64_SAFE, _subform, additive_split, box_points, check_P, check_window,
                    constraint_mask, cubic_values, exact_dtype, horner, k_order_sum,
                    line_coefficients, linear_values, row_values, slabs, weight_w)
from .errors import DimensionMismatch, SplitUnavailable
from .forms_core import CubicForm, LinearSystem

# lines per chunk of the line route, which bounds its transient arrays
LINE_CHUNK = 2**12


# ---------------------------------------------------------------------------
# Enumeration


def _value_dtype(C: CubicForm, B: int):
    """The exact dtype of C's values over |x| <= B, from their bound at
    max(B, 1): at B = 0 that bound is 0, and an int64 axis would meet
    coefficients past int64."""
    return exact_dtype(C.max_abs_value(max(B, 1)))


def _slab_zeros(C: CubicForm, coords: List[np.ndarray]) -> np.ndarray:
    """The zeros of C on one slab of exact integer coordinates, as rows of points."""
    vals = cubic_values(C, coords)
    hits = np.nonzero(vals == 0)
    return np.stack([np.broadcast_to(x, vals.shape)[hits] for x in coords], axis=1)


def _zeros_direct(C: CubicForm, B: int) -> Tuple[np.ndarray, int]:
    """All x with |x| <= B and C(x) = 0, lex-ordered, plus points examined."""
    if B < 0:
        return np.zeros((0, C.n), dtype=np.int64), 0
    box = _grid.charge("points", (2 * B + 1) ** C.n, "direct enumeration")
    axis = np.arange(-B, B + 1, dtype=_value_dtype(C, B))
    zeros = [_slab_zeros(C, coords) for coords in slabs(axis, C.n)]
    return np.concatenate(zeros, axis=0).astype(np.int64, copy=False), box


def _line_work(n: int, B: int) -> int:
    """The line route's evaluations of the cubic in x1 over the box |x| <= B,
    charged as "points" before any line is solved: per line
    12 + 4 bit_length(2B+1), which bounds the bisections of its (at most
    three) monotone pieces and the check of each piece's candidate, and at
    least the 2B+1 points of the axis.  The evaluations of f' that
    cut a line into pieces are not counted."""
    m = 2 * B + 1
    return max(m, m ** (n - 1) * (12 + 4 * m.bit_length()))


def _line_hits(a: int, b, c, d, axis: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(line, x1) of every zero of f = a x1^3 + b x1^2 + c x1 + d with x1 on
    the box axis [-B, B], for one chunk of lines with exact coefficient
    arrays b, c and d in the axis dtype, on none of which f is identically 0.

    Everything is exact integer bisection in the axis dtype.  f is negated
    where a < 0, which keeps its zeros.  Then f' = 3a x^2 + 2b x + c falls
    up to v = floor(-b/(3a)) and rises past it (v is clipped to
    [-B - 1, B]); for a = 0, f' is monotone on the whole axis, and v is B
    where b < 0 and -B - 1 otherwise.  One bisection on [-B, v] finds t1,
    the first x with f'(x) <= 0, and one on [v+1, B] finds t2, the first x
    with f'(x) >= 0.  So f' > 0 on [-B, t1 - 1], f' <= 0 on [t1, t2 - 1]
    (it holds at both ends, and f' is convex) and f' >= 0 on [t2, B].  f'
    vanishes at isolated points only, unless f is a nonzero constant, so f
    has at most one zero on each piece, and one bisection finds it."""
    B, dtype = len(axis) // 2, axis.dtype
    if a < 0:
        a, b, c, d = -a, -b, -c, -d
    edge = np.full(len(d), B, dtype=np.int64)

    def first(coeffs, sign, lo, hi):
        """The first x in [lo, hi] with sign[j] p(x) >= 0 in row j, or hi + 1
        where none is, for int64 ranges in [-B, B] of shape (k, lines) on
        which that is false and then true; p has the line's ``coeffs``,
        highest degree first.  Only nonempty ranges are bisected."""
        out = lo.copy()
        k, line = np.nonzero(lo <= hi)
        sign = np.array(sign, dtype=dtype)[k]
        coeffs = [sign * (w[line] if np.ndim(w) else w) for w in coeffs]
        below, hi = lo[k, line] - 1, hi[k, line]
        for bit in reversed(range(int((hi - below).max(initial=0)).bit_length())):
            x = np.minimum(below + (1 << bit), hi)
            np.copyto(below, x, where=horner(coeffs, x.astype(dtype, copy=False)) < 0)
        out[k, line] = below + 1
        return out

    if a:
        v = np.minimum(np.maximum((-b) // (3 * a), -B - 1), B).astype(np.int64)
    else:
        v = np.where(b < 0, B, -B - 1)
    # where a = 0 (on every line alike) the leading 0 is dropped, which saves
    # two steps of every Horner evaluation
    t1, t2 = first((3 * a, 2 * b, c)[not a:], [-1, 1], np.stack([-edge, v + 1]),
                   np.stack([v, edge]))
    f = (a, b, c, d)[not a:]
    lo, hi = np.stack([-edge, t1, t2]), np.stack([t1 - 1, t2 - 1, edge])
    x = first(f, [1, -1, 1], lo, hi)
    k, line = np.nonzero((x <= hi) & (horner(f, np.minimum(x, B).astype(dtype, copy=False)) == 0))
    return line, x[k, line]


def _zeros_lines(C: CubicForm, B: int) -> Tuple[np.ndarray, int]:
    """All x with |x| <= B and C(x) = 0, lex-ordered, plus points examined.

    On each line y = (x2, ..., xn) of the box, C is the cubic
    a x1^3 + b(y) x1^2 + c(y) x1 + d(y); a is the coefficient of x1^3, and
    b, c and d are exact integers read off the monomials once per chunk of
    lines (``line_coefficients``).  Its zeros in x1 are found exactly by
    ``_line_hits``, and a line on which it is identically 0 holds every
    point of the axis.  C(-x) = -C(x) (see ``_grid``), so the line -y holds
    the zeros -x1 of the line y: only the lines of index at most
    (m^(n-1) - 1)/2, the line y = 0 last, are solved, and every hit x1 on a
    line i below it gives the hit -x1 on its mirror m^(n-1) - 1 - i.  Lines
    go in chunks of LINE_CHUNK.  The budget is charged on ``_line_work``
    before anything is allocated, and on the 2B+1 points of every line of
    zeros, and again of its mirror (a line of zeros too), before that
    chunk's points are emitted: the charge of solving every line.  Points
    examined is the box (2B+1)^n, whose zero status the route decides.
    """
    n = C.n
    if B < 0:
        return np.zeros((0, n), dtype=np.int64), 0
    m = 2 * B + 1
    work = _grid.charge("points", _line_work(n, B), "line enumeration")
    # Horner partial sums and f' stay within 3 sum|c| max(B, 1)^3
    dtype = exact_dtype(3 * C.max_abs_value(max(B, 1)))
    axis = np.arange(-B, B + 1, dtype=dtype)
    lines, xs = [], []
    total = m ** (n - 1)
    mid = (total - 1) // 2      # the line y = 0, its own mirror
    for start in range(0, mid + 1, LINE_CHUNK):
        idx = np.arange(start, min(start + LINE_CHUNK, mid + 1))
        rest = [axis[i] for i in np.unravel_index(idx, (m,) * (n - 1))] if n > 1 else []
        # for n = 1 the one line has no other coordinate; a zero column that
        # no monomial reads gives it its length
        a, b, c, d = line_coefficients(C, rest or [np.zeros(len(idx), dtype=dtype)])
        null = (a == 0) & (b == 0) & (c == 0) & (d == 0)    # lines of zeros
        rows, solve = np.flatnonzero(null), np.flatnonzero(~null)
        work += (2 * len(rows) - int(np.count_nonzero(idx[rows] == mid))) * m
        _grid.charge("points", work, "line enumeration, with its lines of zeros")
        line, x = _line_hits(a, b[solve], c[solve], d[solve], axis)
        null_line, null_x = np.broadcast_arrays(idx[rows, None], np.arange(-B, B + 1))
        lines += [idx[solve[line]], null_line.ravel()]
        xs += [x, null_x.ravel()]
    line, x = np.concatenate(lines), np.concatenate(xs)
    below = line < mid
    line = np.concatenate([line, total - 1 - line[below]])
    x = np.concatenate([x, -x[below]])
    order = np.lexsort((line, x))
    out = np.empty((len(order), n), dtype=np.int64)
    out[:, 0] = x[order]
    if n > 1:
        out[:, 1:] = np.stack(np.unravel_index(line[order], (m,) * (n - 1)), axis=1) - B
    return out, m ** n


def _coord_dtype(B: int):
    """The smallest signed integer dtype that holds every coordinate -B..B of
    the box: int16 on sides up to B = 32767."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if B <= np.iinfo(t).max)


def _value_table(C_sub: CubicForm, axis: np.ndarray) -> np.ndarray:
    """The values of a subform over the box axis^n in box order, exact in the
    axis dtype: 8 bytes a point in int64.  They are formed on the sparse
    grids of the axis, so no table of points is made, and each monomial's
    product is side-sized only when it is added in."""
    grids = np.meshgrid(*([axis] * C_sub.n), indexing="ij", sparse=True)
    return cubic_values(C_sub, grids).ravel()


def _runs(sorted_vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(index of the first of each run, length of each run) of a sorted
    array, both int32: a run starts where a value differs from the one
    before."""
    first = np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1])))
    first = first.astype(np.int32)
    return first, np.diff(first, append=np.int32(len(sorted_vals)))


def _stable_order(vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(order, vals[order]) for the stable argsort ``order`` of an exact
    integer array of fewer than 2^31 entries, ``order`` in int32.  An int64
    ``vals`` is consumed: its storage becomes the sorted values.

    With N = len(vals), the composite keys v N + i are distinct and sort in
    the stable order, and one plain sort of them is several times faster
    than ``argsort(kind="stable")``.  They are built, sorted and decoded in
    place, in blocks of ``_grid.BLOCK`` where an index is added or taken
    out, so the sort holds the keys and the int32 order alone.  Where
    (max|v| + 1) N could pass 2^62, or the values are Python integers, the
    stable argsort runs instead."""
    N = len(vals)
    if vals.dtype == np.int64 and N:
        reach = max(-int(vals.min()), int(vals.max()))
        if (reach + 1) * N < INT64_SAFE:
            key = vals
            key *= N
            for s in range(0, N, _grid.BLOCK):
                key[s:s + _grid.BLOCK] += np.arange(s, min(s + _grid.BLOCK, N))
            key.sort()
            order = np.empty(N, dtype=np.int32)
            for s in range(0, N, _grid.BLOCK):
                part = key[s:s + _grid.BLOCK]
                order[s:s + _grid.BLOCK] = part % N
                part //= N
            return order, key
    order = np.argsort(vals, kind="stable").astype(np.int32)
    return order, vals[order]


class _Join:
    """The zeros of a split form C = C_A + C_B in |x| <= B, as the pairs of
    an a-point and a b-point of the two side tables with C_A(a) = -C_B(b).

    ``order`` is the stable order of the a-points by value, and b-point i
    matches the run order[lo[i] : lo[i] + run[i]] (run[i] = 0 without a
    match).  Pair t is row t of meet-in-the-middle: the b-points in box
    order, each followed by its run.  Readers walk the pairs in ``blocks``
    and read per-point tables of either side at one block's pairs at a
    time, so no array has an entry per pair but the readers' outputs.  On
    a self-join (sides equal up to sign, see ``__init__``) ``pts_b`` is
    ``pts_a``, and a per-point table of one side serves both.

    Each array is in the smallest dtype that holds it: the side tables
    ``pts_a`` and ``pts_b`` in ``_coord_dtype(B)`` (int16 up to B = 32767),
    and ``order``, ``lo`` and ``run`` in int32, as the "side points" budget
    keeps a side below 2^31 points.  So a side point of two coordinates costs
    16 bytes on a self-join: 4 of coordinates and 12 of the join.  On the
    taxicab form at B = 200 (160,801 points a side) the join keeps 16 bytes
    a side point and its construction peaks at 24, where int64 tables kept
    40 and peaked at 60."""

    def __init__(self, C: CubicForm, B: int, split: Tuple[Tuple[int, ...], Tuple[int, ...]]):
        """The a-side is sorted by ``_stable_order`` and its distinct values
        found by ``_runs``.  The b-side's needles -C_B(b) are sorted the
        same way, so that each ``searchsorted``, one per block of
        ``_grid.BLOCK`` needles, meets sorted needles, and the runs are
        scattered back to b box order.

        Where the sides have as many variables and C_B = +-C_A (as on
        x1^3 + x2^3 = x3^3 + x4^3), the join is a self-join: one table serves
        both sides, ``pts_b`` is ``pts_a``, and b-point i takes the run of
        the a-point that holds its needle, read from the a-points' run ids:
        a-point i itself where C_B = -C_A, and its negative, at box index
        N - 1 - i, where C_B = C_A, as -C_A(b) = C_A(-b) (C is odd, and
        box order lists -x in reverse).  ``order``, ``lo`` and ``run`` are
        those of the two-table join.

        The values come from sparse grids (``_value_table``) and are
        sorted in place, the self-join's run ids are int32, each side-sized
        temporary goes once read, and the coordinate tables are built last,
        so the peak stays within twice what the join keeps.  The
        larger side's (2B+1)^|side| points are charged as "side points"
        before any table is built, and the pair count as "points" before any
        block is walked: every reader walks the pairs."""
        _grid.charge("side points", (2 * B + 1) ** max(map(len, split)),
                     "meet-in-the-middle side table")
        self.n, self.B, (self.vars_a, self.vars_b) = C.n, B, split
        axis = np.arange(-B, B + 1, dtype=_value_dtype(C, B))
        C_a, C_b = _subform(C, self.vars_a), _subform(C, self.vars_b)
        self.order, sorted_a = _stable_order(_value_table(C_a, axis))
        first, run = _runs(sorted_a)
        mirrored = C_a.n == C_b.n and C_b.coeffs in (C_a.coeffs,
                                                     {m: -c for m, c in C_a.coeffs.items()})
        if mirrored:
            del sorted_a
            # the run of sorted a-point t counts the runs that start by t
            starts = np.zeros(len(self.order), dtype=bool)
            starts[first[1:]] = True
            run_id = np.empty(len(self.order), dtype=np.int32)
            run_id[self.order] = np.cumsum(starts, dtype=np.int32)
            del starts
            if C_b.coeffs == C_a.coeffs:
                run_id = run_id[::-1]
            self.lo, self.run = first[run_id], run[run_id]
        else:
            uniq = sorted_a[first]
            del sorted_a
            vals_b = _value_table(C_b, axis)
            b_order, needles = _stable_order(np.negative(vals_b, out=vals_b))
            self.lo = np.empty(len(needles), dtype=np.int32)
            self.run = np.empty(len(needles), dtype=np.int32)
            for s in range(0, len(needles), _grid.BLOCK):
                part, to = needles[s:s + _grid.BLOCK], b_order[s:s + _grid.BLOCK]
                k = np.minimum(np.searchsorted(uniq, part), len(uniq) - 1)
                self.lo[to] = first[k]
                self.run[to] = np.where(uniq[k] == part, run[k], 0)
        del first, run
        coords = np.arange(-B, B + 1, dtype=_coord_dtype(B))
        self.pts_a = box_points(coords, C_a.n)
        self.pts_b = self.pts_a if mirrored else box_points(coords, C_b.n)
        self.total = _grid.charge("points", int(self.run.sum()), "meet-in-the-middle join")
        self.examined = len(self.pts_a) + len(self.pts_b)

    def blocks(self, stop: Optional[int] = None
               ) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
        """The pairs of the b-points below ``stop`` (of all by default) in
        blocks of about ``_grid.BLOCK``, each made of whole b-points:
        (p0, p1, a, b), where ``a`` and ``b`` are the box indices of the
        a-point and the b-point of each of pairs p0..p1, in intp, so that no
        reader's ``take`` casts them again.

        The cuts are found first, greedily on the running total of ``run``
        (int32, as the total is within the "points" budget < 2^31), which
        then goes.  Row t of b-point i's run is a-point
        order[lo[i] + t], so ``a`` reads ``order`` at the pair's place in
        its block shifted by lo[i] minus the start of its run there.  A
        b-point whose run is longer than a block is a block by itself;
        b-points without a match join the block after them, and those after
        the last pair none.  This is the one place where runs are expanded
        into pairs: a block's arrays have p1 - p0 entries, whatever the
        join's size."""
        ends, cuts, p0 = np.cumsum(self.run[:stop], dtype=np.int32), [0], 0
        total = int(ends[-1]) if len(ends) else 0
        while p0 < total:
            # whole b-points up to BLOCK pairs, and at least one pair; the
            # bounds are int32, as a Python int would cast all of ends
            cuts.append(max(int(ends.searchsorted(np.int32(p0 + _grid.BLOCK), side="right")),
                            int(ends.searchsorted(np.int32(p0), side="right")) + 1))
            p0 = int(ends[cuts[-1] - 1])
        del ends
        p0 = 0
        for b0, b1 in zip(cuts, cuts[1:]):
            run = self.run[b0:b1].astype(np.intp)
            ends = np.cumsum(run)
            p1 = p0 + int(ends[-1])
            a = np.repeat(self.lo[b0:b1] - (ends - run), run)
            a += np.arange(p1 - p0)
            a[:] = self.order.take(a)
            yield p0, p1, a, np.repeat(np.arange(b0, b1), run)
            p0 = p1

    def half(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """(a, b) as in ``blocks``, for one zero of each pair {x, -x} but the
        origin, which is its own mirror.  Box order lists -x in reverse, so
        the pair of a-point i and b-point k mirrors that of a-point
        len(pts_a) - 1 - i and b-point len(pts_b) - 1 - k.  So the walk
        takes the pairs of the b-points below the middle one (the origin of
        its side) in ``blocks``, and then the middle b-point's pairs with an
        a-point below the middle, in one block: its run holds the zeros of
        C_A in box order, the a-side's origin among them."""
        mid_a, mid_b = (len(self.pts_a) - 1) // 2, (len(self.pts_b) - 1) // 2
        for _, _, a, b in self.blocks(mid_b):
            yield a, b
        lo = int(self.lo[mid_b])
        a = self.order[lo:lo + int(self.run[mid_b])].astype(np.intp)
        a = a[a < mid_a]
        yield a, np.full(len(a), mid_b, dtype=np.intp)

    def shell_counts(self, shell_a: np.ndarray, shell_b: np.ndarray, shells: int) -> List[int]:
        """Ns[j] for j < ``shells``: the number of pairs whose a-point and
        b-point both lie in shells 0..j, for the shells ``shell_a`` and
        ``shell_b`` of the side points, the last shell holding every pair.

        It is read from the runs, one pass over the side tables per shell
        but the last and none over the pairs: with c the running count of
        the a-points of shell at most j in sorted order, b-point i of shell
        at most j adds c[lo[i] + run[i]] - c[lo[i]].  The b-points go in
        blocks of ``_grid.BLOCK``, so beyond c (4 bytes an a-point) each
        pass holds one block's arrays.  Where those passes would read over
        4 entries a pair (many shells, or few pairs), one walk of the pairs
        counts each block's shells instead: on the taxicab form at B = 200
        a pass reads an entry in about a quarter of the time the walk takes
        a pair (2.9 against 11.6 ns)."""
        if (shells - 1) * (len(self.order) + len(self.lo)) > 4 * self.total:
            counts = np.zeros(shells, dtype=np.int64)
            for _, _, a, b in self.blocks():
                counts += np.bincount(np.maximum(shell_a.take(a), shell_b.take(b)),
                                      minlength=shells)
            return np.cumsum(counts).tolist()
        sorted_shell = shell_a.take(self.order)
        c = np.zeros(len(sorted_shell) + 1, dtype=np.int32)
        Ns = []
        for j in range(shells - 1):
            np.cumsum(sorted_shell <= j, dtype=np.int32, out=c[1:])
            N = 0
            for s in range(0, len(self.lo), _grid.BLOCK):
                i = np.flatnonzero(shell_b[s:s + _grid.BLOCK] <= j) + s
                lo = self.lo.take(i)
                N += int(c.take(lo + self.run.take(i)).sum()) - int(c.take(lo).sum())
            Ns.append(N)
        return Ns + [self.total]

    def gather(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out``, filled with the int64 points of the pairs (a-point a[t],
        b-point b[t]), a whole column at a time from the side tables stored
        by column (``box_points``): faster than a fancy index on a row."""
        out.T[np.subtract(self.vars_a, 1)] = self.pts_a.T.take(a, axis=1)
        out.T[np.subtract(self.vars_b, 1)] = self.pts_b.T.take(b, axis=1)
        return out

    def rows(self) -> np.ndarray:
        """The int64 points of every pair, in pair order, filled block by block."""
        out = np.empty((self.total, self.n), dtype=np.int64)
        for p0, p1, a, b in self.blocks():
            self.gather(a, b, out[p0:p1])
        return out

    def window(self, system, tau: Sequence[float], eta: float) -> np.ndarray:
        """The int64 points of the pairs that may satisfy every row of
        ``system``, in pair order: every pair where no row is screened.

        Each row is screened on float partial sums: s_A(a) = sum_{k in A}
        l_k x_k on the a-side table and s_B(b) - tau_i on the b-side's, in
        k order, formed once per row on the side tables' integer columns
        (l_k x_k rounds as it does on the float of x_k).  A pair is kept when
        |s_A + (s_B - tau_i)| < eta + delta, where, with
        T = |tau_i| + eta + B sum_k |l_k| and the entries as floats,

            delta = (n + 3) 2^-50 T + n (B + 2) 2^-1074,

        over four times the (2n + 5) 2^-53 T that bounds, to first order,
        the rounding of the mask's own float test (or of the floats of a
        rational row's entries), of the screen's sum of n + 1 terms in its
        own association, and of eta + delta, and twice the absolute error
        of products and entries below the normal range.  So every point
        that ``constraint_mask`` admits is kept.  A row with T past 2^1000,
        where a sum could overflow, is not screened.  Each block of pairs
        (see ``blocks``) is screened and its candidates' rows gathered in
        the same walk, so only the candidates are pair-sized."""
        screens = []
        for row, t in zip(system.rows, tau):
            row, t = [float(v) for v in row], float(t)
            T = abs(t) + eta + self.B * sum(map(abs, row))
            if not T < 2.0 ** 1000:
                continue
            delta = (self.n + 3) * 2.0 ** -50 * T + self.n * (self.B + 2) * 2.0 ** -1074
            s_a = row_values([row[v - 1] for v in self.vars_a], self.pts_a.T)
            s_b = row_values([row[v - 1] for v in self.vars_b], self.pts_b.T)
            s_b -= t
            screens.append((s_a, s_b, eta + delta))
        if not screens:
            return self.rows()
        keep = [np.zeros((0, self.n), dtype=np.int64)]
        for _, _, a, b in self.blocks():
            inside = None
            for s_a, s_b, bound in screens:
                hit = np.abs(s_a.take(a) + s_b.take(b)) < bound
                inside = hit if inside is None else inside & hit
            k = np.flatnonzero(inside)
            keep.append(self.gather(a[k], b[k], np.empty((len(k), self.n), dtype=np.int64)))
        return np.concatenate(keep)


def zero_points(C: CubicForm, P: float, strategy: str = "auto") -> Tuple[np.ndarray, int]:
    """Zero set {x : |x| <= P, C(x) = 0} as an int64 array, plus points examined.

    The route is the form's: on a form with an additive split, "auto" and
    "meet_in_middle" turn every pair of the join of its side tables (see
    ``_Join``) into a row; on any other form, "auto" takes the line route
    and "meet_in_middle" raises SplitUnavailable.  Callers above this layer
    always use "auto"; "direct" (the full-box scan) is a test oracle.

    Meet-in-the-middle rows are the b-side points in box (lexicographic)
    order, each followed by its a-side matches in stable order of their
    values (box order among equal values); the other routes are
    lexicographic.  The order is deterministic, part of the output and not
    an accident of the implementation.  A side past the "side points"
    budget raises ResourceLimit before any table is built, and pairs past
    the "points" budget before any row is."""
    B = math.floor(P)
    if strategy == "direct":
        return _zeros_direct(C, B)
    if strategy not in ("auto", "meet_in_middle"):
        raise ValueError(f"unknown strategy {strategy!r}")
    split = additive_split(C)
    if split is None and strategy == "meet_in_middle":
        raise SplitUnavailable("form has no additive split over a variable partition")
    if split is None or B < 0:     # an empty box has no zeros on either route
        return _zeros_lines(C, B)
    join = _Join(C, B, split)
    return join.rows(), join.examined


# ---------------------------------------------------------------------------
# Constrained enumeration


def _slab(n: int, B: int, system, tau: Sequence[float], eta: float,
          work: int) -> Optional[Tuple[int, int, float]]:
    """(row i, variable j, delta) of the sliced route over |x| <= B, or None
    where the line route, charged ``work``, runs instead.

    x_j has the entry l_j of largest |l_j| over the rows.  Every point that
    ``constraint_mask`` admits lies within delta of the float window
    ((tau_i - eta - s) / l_j, (tau_i + eta - s) / l_j), s = sum_{k != j} l_k x_k,
    where, with T = |tau_i| + eta + B sum_k |l_k| and the entries as floats,

        delta = (n + 2) 2^-50 T / |l_j|,

    four times the (2n + 4) 2^-53 T / |l_j| that bounds the rounding of the
    mask's own float test (or of the floats of a rational row's entries), of
    s, of the window's ends and of their widening.  Each of the two sums is
    an inner product, whose rounding is within n 2^-53 sum_k |l_k x_k| (to
    first order) in any order of summation, the mask's k order included.
    The row's nonzero entries, eta and |tau_i| must lie within
    2^-200 .. 2^200, so that every float step of it stays normal.

    The route runs when its evaluations, (2B+1)^(n-1) K for K candidates a
    line, are fewer than ``work``, and only on boxes the line route cannot
    refuse mid-scan (``work`` + (2B+1)^n within the budget), so ``count``
    refuses and accepts the same boxes on either route."""
    m = 2 * B + 1
    if work + m ** n > _grid.BUDGETS["points"]:
        return None
    rows = [[float(v) for v in row] for row in system.rows]
    i, j = max(((i, j) for i in range(len(rows)) for j in range(n)),
               key=lambda ij: abs(rows[ij[0]][ij[1]]))
    row, t, lj = rows[i], float(tau[i]), abs(rows[i][j])
    lo, hi = 2.0 ** -200, 2.0 ** 200
    if not (lj and all(lo <= abs(v) <= hi for v in row if v) and lo <= eta <= hi
            and abs(t) <= hi):
        return None
    delta = (n + 2) * 2.0 ** -50 * (abs(t) + eta + B * sum(map(abs, row))) / lj
    K = min(m, math.floor(2 * eta / lj + 4 * delta) + 1)
    return (i, j, delta) if m ** (n - 1) * K < work else None


def _zeros_sliced(C: CubicForm, B: int, system, tau: Sequence[float], eta: float,
                  i: int, j: int, delta: float) -> np.ndarray:
    """The zeros of C in |x| <= B that ``constraint_mask`` admits, lex-ordered.

    The lines of the other coordinates go in chunks of LINE_CHUNK.  On each,
    the candidates are the integers x_j in [-B, B] within ``delta`` of the
    window of row i (see ``_slab``); C is evaluated exactly at them, and
    the mask decides on the zeros."""
    n, m = C.n, 2 * B + 1
    row, t = [float(v) for v in system.rows[i]], float(tau[i])
    rest_vars = [k for k in range(n) if k != j]
    dtype = _value_dtype(C, B)
    lines, xs = [], []
    total = m ** (n - 1)
    for start in range(0, total, LINE_CHUNK):
        idx = np.arange(start, min(start + LINE_CHUNK, total))
        rest = np.unravel_index(idx, (m,) * (n - 1)) if n > 1 else ()
        s = np.zeros(len(idx))
        for k, pos in zip(rest_vars, rest):
            s += row[k] * (pos - B)
        lo, hi = (t - eta - s) / row[j], (t + eta - s) / row[j]
        if row[j] < 0:
            lo, hi = hi, lo
        first = np.ceil(np.clip(lo - delta, -B, B + 1)).astype(np.int64)
        last = np.floor(np.clip(hi + delta, -B - 1, B)).astype(np.int64)
        some = np.nonzero(first <= last)[0]
        if not len(some):
            continue
        first, last = first[some], last[some]
        x = first[:, None] + np.arange(int((last - first).max()) + 1)
        coords = [None] * n
        coords[j] = np.minimum(x, B).astype(dtype, copy=False)
        for k, pos in zip(rest_vars, rest):
            coords[k] = (pos[some] - B).astype(dtype, copy=False)[:, None]
        line, col = np.nonzero((x <= last[:, None]) & (cubic_values(C, coords) == 0))
        lines.append(idx[some[line]])
        xs.append(x[line, col])
    pts = np.empty((sum(map(len, xs)), n), dtype=np.int64)
    if len(pts):
        pts[:, j] = np.concatenate(xs)
        if n > 1:
            pts[:, rest_vars] = np.stack(np.unravel_index(np.concatenate(lines), (m,) * (n - 1)),
                                         axis=1) - B
    pts = pts[constraint_mask(system, pts, tau, eta)]
    return pts[np.lexsort(pts.T[::-1])]


def constrained_zero_points(C: CubicForm, B: int, system, tau: Sequence[float],
                            eta: float) -> np.ndarray:
    """The rows of ``zero_points(C, B, "auto")`` that ``constraint_mask``
    admits, in the same order.

    On a split form, the join's float screen (``_Join.window``) picks the
    candidate pairs, only they become int64 rows, in meet-in-the-middle
    order, and the mask decides on them.  On any other form whose system
    has a row, the sliced route (``_zeros_sliced``) runs instead of the
    line route when ``_slab`` finds it cheaper; the line route's budget is
    charged first either way."""
    split = additive_split(C)
    if split is not None and B >= 0:
        pts = _Join(C, B, split).window(system, tau, eta)
        return pts[constraint_mask(system, pts, tau, eta)]
    if system.rows and B >= 0:
        work = _grid.charge("points", _line_work(C.n, B), "line enumeration")
        slab = _slab(C.n, B, system, tau, eta, work)
        if slab is not None:
            return _zeros_sliced(C, B, system, tau, eta, *slab)
    pts, _ = zero_points(C, B, "auto")
    return pts[constraint_mask(system, pts, tau, eta)]


def zero_values_by_shell(C: CubicForm, bounds: Sequence[int], system
                         ) -> Tuple[np.ndarray, List[int]]:
    """(vals, Ns) for the zeros x with |x| <= bounds[-1] (bounds increasing):
    the (N, r) floats L_i(x) of ``_grid.linear_values``, grouped by shell,
    the index of the smallest bound that holds a zero.  Ns[j] is where
    shell j ends, the number of zeros with |x| <= bounds[j], so
    vals[:Ns[j]] is box j.

    C is odd and the box is closed under x -> -x (see ``_grid``), so the
    zeros other than the origin come in pairs {x, -x} of one shell, and
    L(-x) = -L(x) in floats up to the sign of a zero.  So one zero of each
    pair is walked, and shell j holds (``_ShellWriter``) its walked zeros
    in walk order, then their values negated in the same order, and last
    the origin's 0.0, in the first shell whose bound is not negative: the
    walked zeros of box j are Ns[j] // 2, and it holds the origin when
    Ns[j] is odd.  The walk is the first half of the row order of
    ``zero_points(C, bounds[-1], "auto")``, whose row i mirrors row
    N - 1 - i and whose middle row is the origin; on a split form it is
    ``_Join.half``, which is the first half of the join's pair order.

    The shells' sizes come first: on a split form from the join's runs
    (``_Join.shell_counts``), with no pass over the pairs, and otherwise
    from the walked rows.  Then one walk, in blocks (``_Join.half``, or
    ``_grid.BLOCK`` rows), forms each block's values and writes its zeros
    of each shell where that shell has filled up to.  On a split form no
    row is built: a zero's shell is the larger of its two sides' shells,
    and L_i(x) sums the products l_k x_k, formed on the block's
    coordinates gathered from the side that holds x_k, in k order: the
    floats that ``linear_values`` gives on the zero's int64 row, as a
    product rounds elementwise.  vals is the only array with an entry per
    zero."""
    split = additive_split(C)
    if split is None or bounds[-1] < 0:
        pts, _ = zero_points(C, bounds[-1], "auto")
        half = pts[:len(pts) // 2]
        shell = _shells(half, bounds)
        Ns = 2 * np.cumsum(np.bincount(shell, minlength=len(bounds))) + (np.array(bounds) >= 0)
        write = _ShellWriter(Ns.tolist(), len(system.rows))
        for s in range(0, len(half), _grid.BLOCK):
            places = write.places(shell[s:s + _grid.BLOCK])
            for i, col in enumerate(linear_values(system, half[s:s + _grid.BLOCK]).T):
                write(places, i, col)
        return write.mirrored(), write.Ns
    join = _Join(C, bounds[-1], split)
    shell_a = _shells(join.pts_a, bounds)
    shell_b = shell_a if join.pts_b is join.pts_a else _shells(join.pts_b, bounds)
    rows = [[float(v) for v in row] for row in system.rows]
    write = _ShellWriter(join.shell_counts(shell_a, shell_b, len(bounds)), len(rows))
    for a, b in join.half():
        places = write.places(np.maximum(shell_a.take(a), shell_b.take(b)))

        def coord(v):
            """x_v at the block's pairs, gathered from the side that holds it
            one column at a time, which keeps the block's arrays smallest."""
            if v in join.vars_a:
                return join.pts_a[:, join.vars_a.index(v)].take(a)
            return join.pts_b[:, join.vars_b.index(v)].take(b)

        for i, row in enumerate(rows):
            write(places, i, k_order_sum(l * coord(v) for v, l in enumerate(row, 1)))
    return write.mirrored(), write.Ns


class _ShellWriter:
    """The (Ns[-1], r) float array ``vals`` of ``zero_values_by_shell``,
    filled one block of walked zeros at a time, the blocks in walk order:
    each block's zeros go, in walk order, to the rows of their shell after
    the rows that earlier blocks filled there, from the shell's first row.
    ``mirrored`` then fills the rest of each shell, so shell j ends at row
    Ns[j]."""

    def __init__(self, Ns: List[int], r: int):
        self.Ns, self.vals = Ns, np.empty((Ns[-1], r))
        self.at = [0] + Ns[:-1]     # the next row of each shell

    def places(self, shell: np.ndarray) -> List[Tuple[slice, np.ndarray]]:
        """(rows of vals, indices into the block) for each shell of a block
        of zeros with these shells, which it reserves."""
        out = []
        for j in range(int(shell.min(initial=0)), int(shell.max(initial=0)) + 1):
            idx = np.flatnonzero(shell == j)
            out.append((slice(self.at[j], self.at[j] + len(idx)), idx))
            self.at[j] += len(idx)
        return out

    def __call__(self, places, i: int, col: np.ndarray) -> None:
        """Column i of a block's zeros, in walk order, into its ``places``."""
        for rows, idx in places:
            # the indices are in range, and mode="clip" lets take write into
            # the view without a buffer of its own
            np.take(col, idx, out=self.vals[rows, i], mode="clip")

    def mirrored(self) -> np.ndarray:
        """``vals``, once every walked zero is written: after each shell's w
        walked rows, their negatives in the same order, the values of their
        mirrors, and in the rest of the shell (the origin's row, or none)
        0.0, the values of the origin."""
        for start, at, stop in zip([0] + self.Ns[:-1], self.at, self.Ns):
            end = 2 * at - start
            np.negative(self.vals[start:at], out=self.vals[at:end])
            self.vals[end:stop] = 0.0
        return self.vals


def _sup_norms(pts: np.ndarray) -> np.ndarray:
    """The sup norm of each row of integer points pts, in their dtype."""
    sup = np.zeros(len(pts), dtype=pts.dtype)
    for col in pts.T:   # column by column: a row max over n columns is slower
        np.maximum(sup, np.abs(col), out=sup)
    return sup


def _shells(pts: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """For each row of pts, the index of the smallest bound that holds its
    sup norm, in the smallest unsigned type that holds len(bounds).  The
    bounds are searched in the dtype of pts, so the search casts no side
    table: that dtype holds the largest bound, which made the box, and
    every negative bound is searched as -1, which holds no point either."""
    sup = _sup_norms(pts)
    keys = np.array([max(b, -1) for b in bounds], dtype=sup.dtype)
    return np.searchsorted(keys, sup).astype(np.min_scalar_type(len(bounds)))


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
        check_window(self.eta, self.tau)
        check_P(self.P)
        object.__setattr__(self, "Lsys", LinearSystem.for_form(self.C, self.Lsys))
        if len(self.tau) != self.Lsys.r:
            raise DimensionMismatch("tau length must equal r")


@dataclass(frozen=True)
class CountResult:
    value: float
    points_examined: int
    solutions: Optional[Tuple[Tuple[int, ...], ...]] = None


def _count_box(q: CountQuery) -> int:
    """The box |x| <= B that ``count`` enumerates for q."""
    return math.ceil(q.P) - 1 if q.weighted else math.floor(q.P)


def _count_result(q: CountQuery, pts: np.ndarray, examined: int) -> CountResult:
    """q's CountResult from its constrained zeros, in enumeration order."""
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


def count(q: CountQuery) -> CountResult:
    """N_w(P) (weighted) or the exact unweighted count of constrained zeros.

    Weighted counting enumerates |x| <= ceil(P) - 1 (the weight vanishes for
    |x| >= P anyway); unweighted counting uses |x| <= floor(P).  The
    constraints are ``_grid.constraint_mask``, exact for rational rows.  The
    zeros come from ``constrained_zero_points``: on a split form only the
    pairs of the join that pass a float screen become rows, and on a
    form without one, with r >= 1, the sliced route evaluates C only in the
    slab that one constraint admits; the points and their order, hence the
    value, are those of enumerating the box and masking it, and so is the
    budget.  It is ``count_grid`` at the one P of q.
    """
    return count_grid(q, [q.P])[0]


def count_grid(q: CountQuery, P_grid: Sequence[float]) -> List[CountResult]:
    """``count`` of q with P replaced by each P of the grid in turn.

    The boxes are nested, and every box takes the form's one route, so a
    box's constrained zeros are the rows of a larger box's within its sup
    norm, in the same order.  So the grid enumerates once, at its largest
    box.  Each box's points examined are those of ``zero_points`` on it:
    both side tables of a split, or else the whole box."""
    queries = [replace(q, P=P) for P in P_grid]
    boxes = [_count_box(qq) for qq in queries]
    if not boxes:
        return []
    pts = constrained_zero_points(q.C, max(boxes), q.Lsys, q.tau, q.eta)
    sup = _sup_norms(pts)
    sides = [len(side) for side in additive_split(q.C) or [range(q.C.n)]]
    return [_count_result(qq, pts[sup <= B], sum((2 * B + 1) ** s for s in sides))
            for qq, B in zip(queries, boxes)]
