"""Constructive search for integer solutions of C(x) = 0, |L(x) - tau| < eta.

The route: compute an exact integer basis of the common kernel of the rational
linear forms from an h-decomposition of C (every point of that kernel is a zero
of C), push the real linear forms down to kernel coordinates, then scan kernel
coordinates by growing sup-norm shells until the inequality constraints hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._grid import box_points
from .errors import DimensionMismatch, ResourceLimit
from .forms_core import (
    CubicForm,
    HDecomposition,
    LinearForm,
    LinearSystem,
    eval_cubic,
    eval_linear,
    verify_h_decomposition,
)


@dataclass(frozen=True)
class IntegerKernelBasis:
    """A Z-basis of the lattice {x in Z^n : A_i(x) = 0 for all i}.

    Each vector is primitive and the basis generates the full kernel lattice
    (not a proper sublattice); see ``is_saturated``.
    """

    n: int
    vectors: Tuple[Tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class ReducedSystem:
    """The r x d matrix of the linear system restricted to kernel coordinates."""

    lambda_prime: np.ndarray

    @property
    def r(self) -> int:
        return self.lambda_prime.shape[0]

    @property
    def d(self) -> int:
        return self.lambda_prime.shape[1]


def _clear_row(form: LinearForm) -> List[int]:
    scale = lcm(*(Fraction(c).denominator for c in form.coeffs), 1)
    return [int(Fraction(c) * scale) for c in form.coeffs]


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
    M = [_clear_row(f) for f in forms]
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


def kernel_is_saturated(basis: IntegerKernelBasis) -> bool:
    """True iff the basis generates the full lattice it spans rationally,
    i.e. the gcd of all maximal minors is 1 (elementary-divisor check)."""
    vecs = basis.vectors
    d = len(vecs)
    if d == 0:
        return True
    g = 0
    for cols in combinations(range(basis.n), d):
        sub = [[vecs[a][c] for c in cols] for a in range(d)]
        g = gcd(g, _int_det(sub))
        if g == 1:
            return True
    return g == 1


def _int_det(mat: List[List[int]]) -> int:
    """Exact determinant by fraction-free expansion (tiny matrices only)."""
    d = len(mat)
    if d == 0:
        return 1
    if d == 1:
        return mat[0][0]
    if d == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = 0
    for j in range(d):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _int_det(minor)
    return total


def reduce_linear_system(Lsys: LinearSystem, basis: IntegerKernelBasis) -> ReducedSystem:
    """lambda'[i][j] = L_i(z_j): the linear system seen from kernel coordinates."""
    if Lsys.n != basis.n:
        raise DimensionMismatch("system and kernel basis disagree on n")
    lam = Lsys.matrix()
    if len(basis) == 0:
        return ReducedSystem(lambda_prime=np.zeros((Lsys.r, 0)))
    Z = np.array(basis.vectors, dtype=float).T
    return ReducedSystem(lambda_prime=lam @ Z)


SOLVER_POINT_BUDGET = 50_000_000


def solve_system(C: CubicForm, decomp: HDecomposition, Lsys: LinearSystem,
                 tau: Sequence[float], eta: float, Y: int) -> Optional[Tuple[int, ...]]:
    """Search |y| <= Y in kernel coordinates for |L'(y) - tau| < eta; on a hit,
    return x = sum y_j z_j after re-verifying C(x) = 0 exactly and the linear
    inequalities in double precision.  None means the bounded search failed,
    which proves nothing.

    Candidates are ranked by sup-norm, then lexicographically, so the returned
    solution minimizes |y| with a deterministic tie-break.
    """
    if not verify_h_decomposition(C, decomp):
        raise ValueError("decomposition does not reproduce C")
    if len(tau) != Lsys.r:
        raise DimensionMismatch("tau length must equal r")
    if eta <= 0:
        raise ValueError("eta must be positive")
    basis = integer_kernel([a for a, _ in decomp.pairs])
    d = len(basis)
    if d == 0:
        return None
    if (2 * Y + 1) ** d > SOLVER_POINT_BUDGET:
        raise ResourceLimit(f"search box (2*{Y}+1)^{d} exceeds {SOLVER_POINT_BUDGET} points")
    red = reduce_linear_system(Lsys, basis)
    lam = red.lambda_prime
    ys = box_points(np.arange(-Y, Y + 1, dtype=np.int64), d)
    ok = np.ones(len(ys), dtype=bool)
    if Lsys.r:
        vals = ys.astype(float) @ lam.T
        for i in range(Lsys.r):
            ok &= np.abs(vals[:, i] - float(tau[i])) < eta
    hits = ys[ok]
    if len(hits) == 0:
        return None
    norms = np.abs(hits).max(axis=1)
    order = np.lexsort(tuple(hits[:, j] for j in reversed(range(d))) + (norms,))
    for idx in order:
        y = hits[idx]
        x = tuple(int(sum(int(y[j]) * basis.vectors[j][v] for j in range(d)))
                  for v in range(basis.n))
        if eval_cubic(C, x) != 0:
            raise AssertionError("kernel point failed exact zero re-check; kernel is wrong")
        lx = eval_linear(Lsys, x)
        if all(abs(lx[i] - float(tau[i])) < eta for i in range(Lsys.r)):
            return x
    return None
