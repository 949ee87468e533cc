"""Reference routes that only the tests call.

Each is the slow or structure-blind oracle of a fast path in ``cubiclab``,
or a check the tests make of its output: the direct rational space search,
the file writers, the kernel-smoothed count, the Poisson residual, the
rational-approximation functional, the roots mod p from the whole box,
levelwise root lifting and one Newton step, the box positivity probe, the Erdos-Turan bound,
the shells and L(x) of the zeros in pair order and their layout folded
by x -> -x, L(x) mod 1 at given
points, the seeded box discrepancy of a point set,
the saturation test of a kernel basis and the two-temporary expressions of
``cis`` and ``cos_e``.  They charge the package's budgets as its own
routes do, reading the budget constants when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from cubiclab._grid import (_sobol_blocks, additive_split, box_points, charge, check_P,
                            cubic_mod, k_order_sum, linear_values, sobol_exponent, weight_w)
from cubiclab.equidist import _box_counts, _boxes, _mod1, _sort_rows, _worst
from cubiclab.errors import DimensionMismatch, ResourceLimit
from cubiclab.exp_sums import INNER_TOL, _is_prime, osc_integral_I, sum_g
from cubiclab.forms_core import (CubicForm, HDecomposition, LinearSystem, _primitive_vectors,
                                 eval_cubic, grad_cubic, rational_rank, substitute_linear_span)
from cubiclab.kernels import kernel_hat
from cubiclab.lattice_enum import (CountQuery, _count_box, _Join, _shells, constrained_zero_points,
                                   zero_points)
from cubiclab.linear_construction import IntegerKernelBasis
from cubiclab.singular_integral import Psi_L, _components, check_tents
from cubiclab.singular_series import PadicCertificate, _valuation_capped


# ---------------------------------------------------------------------------
# forms_core: the direct space search and the file writers

def _find_rational_linear_space_direct(C: CubicForm, d: int, H: int
                                       ) -> Optional[List[Tuple[int, ...]]]:
    """The same search with exact symbolic substitution and a Fraction rank
    at every node: the test oracle of the polar search."""
    cands = [v for v in _primitive_vectors(C.n, H) if eval_cubic(C, v) == 0]

    def extend(chosen: List[Tuple[int, ...]], start: int) -> Optional[List[Tuple[int, ...]]]:
        if len(chosen) == d:
            return list(chosen)
        for idx in range(start, len(cands)):
            v = cands[idx]
            trial = chosen + [v]
            if rational_rank(trial) < len(trial):
                continue
            if substitute_linear_span(C, trial):
                continue
            found = extend(trial, idx + 1)
            if found is not None:
                return found
        return None

    return extend([], 0)


def _rat_str(c: Union[int, Fraction]) -> str:
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def dump_cubic_form(C: CubicForm) -> dict:
    return {
        "n": C.n,
        "monomials": [{"i": i, "j": j, "k": k, "c": _rat_str(Fraction(c) / C.rescale)}
                      for (i, j, k), c in sorted(C.coeffs.items())],
    }


def dump_linear_system(Lsys: LinearSystem) -> dict:
    rows = []
    for row in Lsys.rows:
        rows.append([_rat_str(v) if isinstance(v, Fraction) else float(v) for v in row])
    return {"r": Lsys.r, "n": Lsys.n, "rows": rows}


def dump_h_decomposition(D: HDecomposition) -> dict:
    pairs = []
    for a, b in D.pairs:
        pairs.append({
            "A": [_rat_str(c) for c in a.coeffs],
            "B": [{"i": i, "j": j, "c": _rat_str(c)} for (i, j), c in sorted(b.coeffs.items())],
        })
    return {"n": D.n, "pairs": pairs}


# ---------------------------------------------------------------------------
# lattice_enum: the kernel-smoothed count

def kernel_smoothed_count(C: CubicForm, Lsys: Optional[LinearSystem],
                          tau: Sequence[float], P: float, kp) -> float:
    """Counting with the interval indicator replaced by the trapezoid transform
    of a Freeman kernel; sandwiches N_w(P) between the minus and plus variants.

    ``kernel_hat`` is 0 at |t| >= kp.support, so only the zeros of the
    weighted ``CountQuery`` of half-width kp.support are summed; the query
    checks P, tau and the system as ``count`` does."""
    q = CountQuery(C=C, Lsys=Lsys, tau=tuple(tau), eta=kp.support, P=P, weighted=True)
    pts = constrained_zero_points(C, _count_box(q), q.Lsys, q.tau, q.eta)
    w = weight_w(pts.astype(float) / P) if len(pts) else np.zeros(0)
    vals = linear_values(q.Lsys, pts)
    for i in range(q.Lsys.r):
        w = w * kernel_hat(vals[:, i] - float(q.tau[i]), kp)
    return float(np.sum(w))


# ---------------------------------------------------------------------------
# exp_sums: the Poisson residual and the rational-approximation functional

def nearest_int(x: float) -> int:
    """Nearest integer, rounding halves down (toward minus infinity)."""
    f = math.floor(x)
    return f + 1 if x - f > 0.5 else f


def poisson_residual(C: CubicForm, P: float, alpha0: float, lam: Sequence[float],
                     c_cutoff: int) -> float:
    """|g(alpha0, lambda) - P^n sum over |c| <= cutoff of I(P^3 alpha0, P lambda - P c)|.

    The identity is exact with the sum over all c; the returned residual is
    the truncation tail plus quadrature error, so it should be small when
    alpha0 and lambda are small.
    """
    n = C.n
    if n > 2:
        raise ResourceLimit("poisson residual limited to n <= 2 (quadrature cost)")
    g = sum_g(C, P, alpha0, lam, weighted=True)
    total = 0 + 0j
    from itertools import product as iproduct
    for cvec in iproduct(range(-c_cutoff, c_cutoff + 1), repeat=n):
        gamma = [P * (lam[d] - cvec[d]) for d in range(n)]
        total += osc_integral_I(C, P**3 * alpha0, gamma, tol=INNER_TOL).value
    return abs(g.value - P**n * total)


def irrationality_F(Lsys: LinearSystem, alpha: Sequence[float], P: float
                    ) -> Tuple[float, Tuple[int, Tuple[int, ...]]]:
    """Exact supremum over q >= 1 and integer vectors a of
    prod_v (q + P |q lambda_v - a_v|)^{-1}, with lambda = alpha . rows.

    Each factor is at most 1/q, so only q with q^{-n} above the running best
    can win; for each q the optimal a is the nearest-integer vector.
    Returns (value, (q, avec)) with the smallest maximizing q.  A P whose
    product at q = 1 underflows to 0 is refused: no best could stop the scan.
    """
    check_P(P)
    if len(alpha) != Lsys.r:
        raise DimensionMismatch("alpha length must equal r")
    for i, a in enumerate(alpha):
        if not math.isfinite(a):
            raise ValueError(f"alpha[{i}] must be finite, got {a}")
    n = Lsys.n
    lam = Lsys.matrix().T @ np.asarray(alpha, dtype=float)
    best = -1.0
    witness: Tuple[int, Tuple[int, ...]] = (1, tuple([0] * n))
    q = 1
    while True:
        if best > 0 and q**-n <= best:
            break
        avec = tuple(nearest_int(q * l) for l in lam)
        val = 1.0
        for v in range(n):
            val /= q + P * abs(q * lam[v] - avec[v])
        if val > best:
            best = val
            witness = (q, avec)
        if best == 0.0:
            raise ValueError(f"P = {P} is too large: the product at q = 1 underflows to 0")
        q += 1
    return best, witness


# ---------------------------------------------------------------------------
# singular_series: every root by levelwise lifting, and one Newton step

def _lift_solutions(C: CubicForm, p: int, sols: np.ndarray, level: int) -> np.ndarray:
    """Solutions mod p^level from solutions mod p^(level-1) by residue lifting."""
    n = C.n
    modulus = p**level
    step = p ** (level - 1)
    charge("residues", len(sols) * p**n, "residue lifting of roots x p^n")
    offsets = box_points(np.arange(p, dtype=np.int64), n) * step
    cand = (sols[:, None, :] + offsets[None, :, :]).reshape(-1, n)
    return cand[cubic_mod(C, cand.T, modulus) == 0]


def roots_mod_p(C: CubicForm, p: int) -> np.ndarray:
    """All x in [0, p)^n with C(x) = 0 mod p, in lex order, from every
    point of the box at once: the oracle of the residue walk's roots."""
    charge("residues", p**C.n, "enumeration of p^n")
    pts = box_points(np.arange(p, dtype=np.int64), C.n)
    return pts[cubic_mod(C, pts.T, p) == 0]


def solutions_mod_pk(C: CubicForm, p: int, k: int) -> np.ndarray:
    """All x mod p^k with C(x) = 0 mod p^k, via levelwise lifting, lex-sorted."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be at least 1")
    sols = roots_mod_p(C, p)
    for level in range(2, k + 1):
        sols = _lift_solutions(C, p, sols, level)
    return sols[np.lexsort(sols.T[::-1])]


def hensel_lift_step(C: CubicForm, cert: PadicCertificate) -> Tuple[int, ...]:
    """One Newton step: a solution mod p^(m+1) congruent to cert.a mod p^m.

    With C(a) = 0 mod p^m, gradient valuation t, and m >= 2t + 1, adjusting
    coordinate j (where the valuation is attained) by p^(m-t) s with
    s = -(C(a)/p^m) / (dC_j(a)/p^t) mod p produces the lift.
    """
    p, m, t = cert.p, cert.m, cert.t
    grad = grad_cubic(C, cert.a)
    j = next(i for i, gv in enumerate(grad) if _valuation_capped(int(gv), p, m) == t)
    unit = (grad[j] // p**t) % p
    c_red = (eval_cubic(C, cert.a) // p**m) % p
    s = (-c_red * pow(unit, -1, p)) % p
    lifted = list(cert.a)
    lifted[j] = (lifted[j] + p ** (m - t) * s) % p ** (m + 1)
    out = tuple(lifted)
    if eval_cubic(C, out) % p ** (m + 1) != 0:
        raise AssertionError("Newton step failed; certificate slack was wrong")
    return out


# ---------------------------------------------------------------------------
# singular_integral: the box positivity probe

def intbox_check(C: CubicForm, Lsys: Optional[LinearSystem], L: float,
                 samples: int, seed: int) -> float:
    """Estimate of integral over |x| <= 1/2 of Psi_L(C(x), L(x)) dx; should
    stay bounded away from 0 as L grows when the variety meets the box well.
    Refuses what ``schmidt_IL`` refuses, before any point is drawn.  It sums
    Psi_L over the tent's Sobol blocks, each halved into [-1/2, 1/2]^n (exact,
    see ``_sobol_blocks``), so no array has an entry per point."""
    check_tents([L], samples, seed)
    M = LinearSystem.for_form(C, Lsys).matrix()
    total = 0.0
    for X in _sobol_blocks(C.n, samples, seed):
        X *= 0.5
        total += float(np.sum(Psi_L(np.stack(_components(C, M, X), axis=1), L)))
    return total / (1 << sobol_exponent(samples, seed))


# ---------------------------------------------------------------------------
# equidist: the Erdos-Turan bound, L(x) mod 1 and the box discrepancy

def erdos_turan_bound(normalized_mags: Sequence[float]) -> float:
    """One-dimensional Erdos-Turan upper bound on the star discrepancy from
    the first K normalized Weyl sums, with the standard constant 3."""
    K = len(normalized_mags)
    if K == 0:
        raise ValueError("need at least one frequency")
    return 3.0 * (1.0 / (K + 1) + sum(m / h for h, m in enumerate(normalized_mags, 1)))


@dataclass(frozen=True)
class DiscrepancyStat:
    P: float
    value: float
    boxes: int
    seed: int

    def __post_init__(self):
        if not (0 <= self.value <= 1):
            raise ValueError("discrepancy lies in [0, 1]")


def zero_shells_and_values(C: CubicForm, bounds: Sequence[int], system
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """For every zero x with |x| <= bounds[-1] (bounds increasing), in the
    row order of ``zero_points(C, bounds[-1], "auto")``: its shell, the
    index of the smallest bound that holds it, and the (N, r) floats L_i(x)
    of ``linear_values``; the oracle of ``zero_values_by_shell``, which
    groups the same floats stably by shell.  On a split form both are read
    from the join's walk, as the package reads them."""
    split = additive_split(C)
    if split is None or bounds[-1] < 0:
        pts, _ = zero_points(C, bounds[-1], "auto")
        return _shells(pts, bounds), linear_values(system, pts)
    join = _Join(C, bounds[-1], split)
    shell_a, shell_b = _shells(join.pts_a, bounds), _shells(join.pts_b, bounds)
    shell = np.empty(join.total, dtype=shell_a.dtype)
    vals = np.empty((join.total, len(system.rows)))
    for p0, p1, a, b in join.blocks():
        shell[p0:p1] = np.maximum(shell_a[a], shell_b[b])
        cols = [join.pts_a[a, join.vars_a.index(v)] if v in join.vars_a
                else join.pts_b[b, join.vars_b.index(v)] for v in range(1, C.n + 1)]
        for i, row in enumerate(system.rows):
            vals[p0:p1, i] = k_order_sum(float(l) * x for l, x in zip(row, cols))
    return shell, vals


def fold_by_shell(shell: np.ndarray, vals: np.ndarray, shells: int) -> np.ndarray:
    """The layout of ``zero_values_by_shell`` from every zero's shell and
    values in the order of ``zero_shells_and_values``, where row i mirrors
    row N - 1 - i and the middle row is the origin: per shell, its rows in
    the first half in order, then the rows of their mirrors in the same
    order, then the origin's row where the shell holds it.  The mirrors'
    values are their own, which the package's negated ones equal up to the
    sign of a zero."""
    N = len(vals)
    first = np.arange(N // 2)
    rows = []
    for j in range(shells):
        mine = first[shell[:N // 2] == j]
        rows += [mine, N - 1 - mine, [N // 2] if N % 2 and shell[N // 2] == j else []]
    return vals[np.concatenate(rows).astype(np.intp)]


def linear_values_mod1(Lsys: LinearSystem, pts: np.ndarray) -> np.ndarray:
    """L(x) mod 1 for every zero in pts, shape (N, r), from the k-order sums
    of ``_grid.linear_values``."""
    return _mod1(linear_values(Lsys, pts))


def discrepancy(points: np.ndarray, boxes: int, seed: int) -> DiscrepancyStat:
    """Max over seeded random axis-aligned boxes [a, b) in [0,1)^r of
    |empirical fraction - volume|: a seeded lower bound on the extreme
    discrepancy (the supremum over all boxes), cheap and reproducible.

    The points are reduced mod 1 by ``_mod1``, sorted once on the first
    coordinate and counted per block of boxes by ``_box_counts``, one
    binary search per box end; the maximum runs over the blocks.
    """
    pts = _mod1(np.asarray(points, dtype=float))
    if pts.ndim == 1:
        pts = pts[:, None]
    if len(pts) == 0:
        raise ValueError("need at least one point")
    blocks = _boxes(boxes, pts.shape[1], seed)
    first, rest = _sort_rows(pts)
    worst = max(_worst(_box_counts(first, rest, lo, hi), len(pts), lo, hi) for lo, hi in blocks)
    return DiscrepancyStat(P=float("nan"), value=worst, boxes=boxes, seed=seed)


# ---------------------------------------------------------------------------
# linear_construction: saturation of a kernel basis

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


# ---------------------------------------------------------------------------
# _trig: cis and cos_e as one expression each, a real array per sin

def cis_expression(phase):
    """e(phase) as sin(2 pi y + pi/2) + 1j sin(2 pi y), y = phase - rint(phase):
    the bits ``cis`` keeps with one complex output."""
    y = np.asarray(phase, dtype=float)
    y = y - np.rint(y)
    return np.sin(2 * np.pi * y + np.pi / 2) + 1j * np.sin(2 * np.pi * y)


def cos_e_expression(phase):
    """cos(2 pi phase) as sin(2 pi y + pi/2), y = phase - rint(phase): the
    bits ``cos_e`` keeps in one buffer."""
    y = np.asarray(phase, dtype=float)
    y = y - np.rint(y)
    return np.sin(2 * np.pi * y + np.pi / 2)
