"""Constructive search for integer solutions of C(x) = 0, |L(x) - tau| < eta.

The route: compute an exact integer basis of the common kernel of the rational
linear forms from an h-decomposition of C (every point of that kernel is a zero
of C), push the real linear forms down to kernel coordinates, then scan kernel
coordinates band by band in sup-norm (0, then [lo, 2 lo] for lo = 1, 3, 7,
...) until the inequality constraints hit, so the work grows with the norm of
the first solution rather than with the search radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import _grid
from ._grid import check_window, constraint_mask
from .errors import DimensionMismatch
from .forms_core import (
    CubicForm,
    HDecomposition,
    LinearForm,
    LinearSystem,
    clear_row,
    eval_cubic,
    verify_h_decomposition,
)


@dataclass(frozen=True)
class IntegerKernelBasis:
    """A Z-basis of the lattice {x in Z^n : A_i(x) = 0 for all i}.

    Each vector is primitive and the basis generates the full kernel lattice
    (not a proper sublattice): the gcd of its maximal minors is 1, which the
    tests check.
    """

    n: int
    vectors: Tuple[Tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class ReducedSystem:
    """The linear system in d = ``n`` kernel coordinates, L_i(z_j) in row i."""

    n: int
    rows: Tuple[Tuple[Union[Fraction, float], ...], ...]


def _canonical_sign(v: Sequence[int]) -> Tuple[int, ...]:
    nz = next((c for c in v if c != 0), 0)
    return tuple(-c for c in v) if nz < 0 else tuple(v)


def integer_kernel(forms: Sequence[LinearForm]) -> IntegerKernelBasis:
    """Exact Z-basis of the common integer kernel of rational linear forms.

    Denominators are cleared row by row, then unimodular column operations
    bring the matrix to column-echelon form; the transformation columns above
    the zero columns form the kernel basis.  The basis has n - rank(A) vectors
    and spans the full kernel lattice because the transformation is unimodular.
    """
    if not forms:
        raise ValueError("need at least one linear form")
    n = forms[0].n
    for f in forms:
        if f.n != n:
            raise DimensionMismatch("all forms must share n variables")
        if not f.is_rational:
            raise ValueError("integer kernel requires rational forms")
    M = [clear_row(f.coeffs)[0] for f in forms]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_addmul(dst: int, src: int, q: int):
        for row in M:
            row[dst] -= q * row[src]
        for row in U:
            row[dst] -= q * row[src]

    def col_swap(a: int, b: int):
        for row in M:
            row[a], row[b] = row[b], row[a]
        for row in U:
            row[a], row[b] = row[b], row[a]

    pivot = 0
    for i in range(len(M)):
        if pivot >= n:
            break
        while True:
            live = [j for j in range(pivot, n) if M[i][j] != 0]
            if not live:
                break
            jmin = min(live, key=lambda j: (abs(M[i][j]), j))
            if jmin != pivot:
                col_swap(pivot, jmin)
            done = True
            for j in range(pivot + 1, n):
                if M[i][j] != 0:
                    q = M[i][j] // M[i][pivot]
                    col_addmul(j, pivot, q)
                    if M[i][j] != 0:
                        done = False
            if done:
                break
        if M[i][pivot] != 0:
            pivot += 1
    basis = [_canonical_sign([U[row][j] for row in range(n)]) for j in range(pivot, n)]
    basis.sort()
    return IntegerKernelBasis(n=n, vectors=tuple(basis))


def reduce_linear_system(Lsys: LinearSystem, basis: IntegerKernelBasis) -> ReducedSystem:
    """lambda'[i][j] = L_i(z_j): the linear system seen from kernel coordinates,
    in Fractions for a rational row and in float for a real one."""
    if Lsys.n != basis.n:
        raise DimensionMismatch("system and kernel basis disagree on n")
    d = len(basis)
    lam = Lsys.matrix() @ np.array(basis.vectors, dtype=float).reshape(d, basis.n).T
    rows = []
    for form, real in zip(Lsys.forms(), lam):
        if form.is_rational:
            rows.append(tuple(sum(c * zk for c, zk in zip(form.coeffs, z)) for z in basis.vectors))
        else:
            rows.append(tuple(real.tolist()))
    return ReducedSystem(n=d, rows=tuple(rows))


def _band_hits(reduced: ReducedSystem, tau: Sequence[float], eta: float, lo: int, hi: int,
               start: int) -> np.ndarray:
    """The points y of norm at least lo that satisfy |L'(y) - tau| < eta,
    among the ``_grid.BLOCK`` points of the box [-hi, hi]^d from box index
    ``start`` on, in box (lexicographic) order."""
    side = 2 * hi + 1
    idx = np.arange(start, min(start + _grid.BLOCK, side ** reduced.n))
    # one row per coordinate, as ``box_points`` stores a box: the max over
    # the coordinates and the compress then run along contiguous rows
    coords = np.stack(np.unravel_index(idx, (side,) * reduced.n))
    coords -= hi
    ys = np.compress(np.abs(coords).max(axis=0) >= lo, coords, axis=1).T
    return ys[constraint_mask(reduced, ys, tau, eta)]


def solve_system(C: CubicForm, decomp: HDecomposition, Lsys: LinearSystem,
                 tau: Sequence[float], eta: float, Y: int) -> Optional[Tuple[int, ...]]:
    """Search |y| <= Y in kernel coordinates for |L'(y) - tau| < eta; on a hit,
    return x = sum y_j z_j after re-verifying C(x) = 0 and |L(x) - tau| < eta,
    both inequalities by ``_grid.constraint_mask`` (exact for rational rows).
    None means the bounded search failed, which proves nothing.

    Candidates are ranked by sup-norm, then lexicographically, so the returned
    solution minimizes |y| with a deterministic tie-break.  The search runs
    over sup-norm bands: 0, then [lo, 2 lo] for lo = 1, 3, 7, ..., the last
    band running on to Y once the next would not double the box.  A band scans
    the box [-hi, hi]^d in blocks of ``_grid.BLOCK`` points, taken by box
    index, keeps their points of norm >= lo and collects their hits
    (``_band_hits``); every hit of one band precedes every hit of the next,
    so ranking each band on its own ranks the whole box.  The work grows with
    the norm of the first solution, not with Y.  With no solution, each box
    is at least twice as wide as the one before, so the bands examine fewer
    than 2^d / (2^d - 1) times the (2Y+1)^d points of the full box; the
    arrays are one block's and the band's hits.  A Y below 0 has no box to
    search and raises ValueError before any work.
    """
    if Y < 0:
        raise ValueError(f"Y must be nonnegative, got {Y}")
    if not verify_h_decomposition(C, decomp):
        raise ValueError("decomposition does not reproduce C")
    if len(tau) != Lsys.r:
        raise DimensionMismatch("tau length must equal r")
    check_window(eta, tau)
    basis = integer_kernel([a for a, _ in decomp.pairs])
    d = len(basis)
    if d == 0:
        return None
    _grid.charge("search points", (2 * Y + 1) ** d, f"search box (2*{Y}+1)^{d}")
    reduced = reduce_linear_system(Lsys, basis)
    lo = 0
    while lo <= Y:
        hi = Y if Y <= 4 * lo else 2 * lo  # [lo, 2 lo], or on to Y if the next is short
        hits = np.concatenate([_band_hits(reduced, tau, eta, lo, hi, start)
                               for start in range(0, (2 * hi + 1) ** d, _grid.BLOCK)])
        norms = np.abs(hits).max(axis=1)
        order = np.lexsort(tuple(hits[:, j] for j in reversed(range(d))) + (norms,))
        for y in hits[order]:
            x = tuple(int(sum(int(y[j]) * basis.vectors[j][v] for j in range(d)))
                      for v in range(basis.n))
            if eval_cubic(C, x) != 0:
                raise AssertionError("kernel point failed exact zero re-check; kernel is wrong")
            if constraint_mask(Lsys, np.array([x]), tau, eta)[0]:
                return x
        lo = hi + 1
    return None
