"""Boxes of lattice points, a cubic form evaluated on them, the components
and additive splits of a form, the linear constraint predicate, scrambled
Sobol points, the bump weight, the one-dimensional quadrature pieces shared
by the oscillatory integrals and the kernel transform, and the one
refinement loop of every panel-doubling quadrature.

C is evaluated on coordinate arrays in two arithmetics: exact integers
(zero detection, the box sums, which take each value to float once, and
every value mod q) and float (quadrature and Monte Carlo).  Every exact
integer array takes its dtype from ``exact_dtype`` of an a-priori bound on
its products: int64 below 2^62 and Python integers (``object``) past it, so
the same numpy code runs in both.  ``cubic_values`` takes each monomial as
one ``c * x_i * x_j * x_k`` product, accumulated in coefficient order, so
every caller rounds the same way.

The walks along x1-lines read C as a x1^3 + b x1^2 + c x1 + d with b, c
and d exact integers on the other coordinates (``line_coefficients``, one
pass over the monomials, each adding into the coefficient of its degree in
x1), made once a call or a chunk of lines and then one Horner step
(``horner``) per slab or line: the residue slabs (``residue_slabs``), the
line route of zero enumeration (``lattice_enum._zeros_lines``) and the box
sum g (``exp_sums._g_box``), which takes the exact value to float once.

Mod q is a reduction, not an arithmetic of its own: with the coefficients
in [0, q) and residues y in [0, q), C(y) lies in [0, sum(c mod q) (q-1)^3],
so it is computed exactly in ``exact_dtype`` of that bound and takes one
% q (``cubic_mod``; the gradient mod p of the local densities is
``forms_core.grad_cubic`` on the same columns, reduced once).
``residue_slabs`` walks (Z/q)^n slab by slab with one Horner step in y1 per
slab; every residue histogram and complete sum over (Z/q)^n reads it.

The box [-B, B]^n and (Z/q)^n are closed under x -> -x, and C is odd under
it, C(-x) = -C(x), as every linear form is; the weight w is even.  So the
slab x1 and the slab -x1 (q - y1 mod q) carry the same values up to sign,
and three kernels without an additive split read only half of them: the
box sum g (``exp_sums._g_box``), whose terms at x and -x are conjugate, so
that it is real; the line route of zero enumeration
(``lattice_enum._zeros_lines``), where the line -y holds the zeros -x1 of
the line y; and the residue counts (``exp_sums._residue_counts``), where
the mirror slab's histogram is the slab's at -c mod q (conjugated, with a
phase e_q(avec . y)).  ``equidist`` folds the zeros themselves, on every
form: the zeros in |x| <= B are closed under x -> -x and L(-x) = -L(x) in
floats up to the sign of a zero, so ``lattice_enum.zero_values_by_shell``
walks one zero of each pair and writes -L for its mirror, and each Weyl
sum is twice the real part of its walked half's, plus 1 for the origin.

The scrambled Sobol points (``_sobol_blocks``) are built with numpy alone and
are bit-identical to scipy's ``qmc.Sobol(scramble=True)``: the same Joe-Kuo
direction numbers (``_joe_kuo``), the same random bits drawn from
``default_rng(seed)`` in the same order for the digital shift and the
linear matrix scramble, the points in the same Gray-code order, and the same
one rounding in the step to floats.  So every tent estimate is unchanged,
and the package imports no scipy.  The points come in aligned blocks of
S = 2^s, built as they are read: point i is the shift XORed with the
direction numbers v_b at the bits b of gray(i) = i ^ (i >> 1), and
gray(kS + j) = gray(k) 2^s ^ gray(j) ^ (k odd) 2^(s-1), so block k is block
0 XORed with one constant a coordinate, the v_(s+b) at the bits b of gray(k)
and v_(s-1) once more when k is odd.  The tent table walks the blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ._trig import cis
from .errors import DimensionMismatch, ResourceLimit, ToleranceNotMet
from .forms_core import CubicForm, clear_row

INT64_SAFE = 2**62  # an a-priori bound below this rules out int64 overflow

# The one limit of each kind of work, in the unit that names it: every walk
# that grows like P^n, q^n or (2Y+1)^d is charged here before it starts
# (``charge``), and the doubling quadratures stop at their largest grid that
# fits.  "points" and "side points" stay below 2^31, the range of the join's
# int32 indices and running totals (``lattice_enum._Join``).
BUDGETS = {
    "residues": 100_000_000,        # residues or lifts of one walk mod q or p^k
    "points": 200_000_000,          # box points, line evaluations, join pairs, box-dimensions
    "side points": 20_000_000,      # points of one meet-in-the-middle side table
    "g points": 1_000_000_000,      # box points of the sum g over its components
    "axis nodes": 400_000,          # nodes of the largest 1-d oscillatory grid
    "tensor nodes": 20_000_000,     # nodes of the largest tensor oscillatory grid
    "outer nodes": 200_000,         # outer nodes per axis of chi_w's largest grid
    "phase entries": 1 << 21,       # entries of chi_w's largest half phase table
    "candidate vectors": 2_000_000,  # vectors of one rational space search
    "search points": 50_000_000,    # kernel points of the solvability search box
    "transform pairs": 1_000_000_000,  # t values x alpha nodes of one kernel transform
}


def charge(kind: str, amount: int, what: str) -> int:
    """``amount``, or ResourceLimit naming ``what``, the amount and the limit
    when the work of that kind passes ``BUDGETS[kind]``: the one guard of
    every budgeted walk, called before the walk allocates anything."""
    limit = BUDGETS[kind]
    if amount > limit:
        raise ResourceLimit(f"{what} = {amount} {kind} exceeds budget {limit}")
    return amount


def exact_dtype(bound: int):
    """The dtype for exact integer arithmetic whose values stay below
    ``bound`` in absolute value: int64 while bound < 2^62, Python integers
    (``object``) past that."""
    return np.int64 if bound < INT64_SAFE else object


def slabs(axis: np.ndarray, n: int) -> Iterator[List[np.ndarray]]:
    """axis^n as coordinate arrays, one slab per value of x1, in lex order.

    x1 is a scalar of the axis dtype that broadcasts against the grid of the
    other n - 1 coordinates; for n = 1 the single slab is the axis itself.
    """
    if n == 1:
        yield [axis]
        return
    rest = np.meshgrid(*([axis] * (n - 1)), indexing="ij")
    for x1 in axis:
        yield [x1, *rest]


def box_points(axis: np.ndarray, n: int) -> np.ndarray:
    """axis^n as an (N, n) array of points in lex order, stored by column:
    its readers take whole coordinates (``pts.T``) and gather columns."""
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids]).T


def cubic_values(C: CubicForm, coords: Sequence[np.ndarray]) -> np.ndarray:
    """C on broadcastable coordinate arrays, in their own dtype."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in coords))
    total = np.zeros(shape, dtype=np.result_type(*coords))
    for (i, j, k), c in C.coeffs.items():
        total += c * coords[i - 1] * coords[j - 1] * coords[k - 1]
    return total


def line_coefficients(C: CubicForm, rest: Sequence[np.ndarray]
                      ) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c, d) with C = a x1^3 + b x1^2 + c x1 + d on the coordinates
    ``rest`` of x2..xn, in one pass over the monomials: a is the coefficient
    of x1^3, and each other monomial c x_i x_j x_k adds its product over
    the coordinates other than x1 into b, c or d, by its degree 2, 1 or 0
    in x1.  b, c and d are exact integers of the shape and dtype of
    ``rest``; their partial sums stay within sum|c| max(1, max|x|)^3."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in rest))
    dtype = np.result_type(*rest)
    parts = [np.zeros(shape, dtype=dtype) for _ in range(3)]     # b, c, d
    for (i, j, k), coef in C.coeffs.items():
        others = [rest[v - 2] for v in (i, j, k) if v > 1]
        if others:
            term = coef
            for x in others:
                term = term * x
            parts[len(others) - 1] += term
    return (C.coeffs.get((1, 1, 1), 0), *parts)


def reduce_mod(C: CubicForm, q: int) -> CubicForm:
    """C with every coefficient reduced into [0, q); those that vanish mod q
    are dropped."""
    return CubicForm(n=C.n, coeffs={m: c % q for m, c in C.coeffs.items() if c % q})


def horner(coeffs, x):
    """The polynomial with the given coefficients, highest degree first, at
    x by Horner's rule, elementwise."""
    value = coeffs[0]
    for k in coeffs[1:]:
        value = value * x + k
    return value


def cubic_mod(C: CubicForm, coords: Sequence[np.ndarray], q: int) -> np.ndarray:
    """C(y) mod q on residue coordinates y in [0, q), as int64: ``cubic_values``
    of C with its coefficients reduced mod q, exact in ``exact_dtype`` of
    sum(c mod q) (q-1)^3, the bound of every partial sum, and one % q."""
    Cq = reduce_mod(C, q)
    dtype = exact_dtype(Cq.max_abs_value(q - 1))
    vals = cubic_values(Cq, [np.asarray(y).astype(dtype, copy=False) for y in coords])
    return (vals % q).astype(np.int64, copy=False)


def residue_slabs(C: CubicForm, q: int) -> Iterator[Tuple[List[np.ndarray], np.ndarray]]:
    """(coords, C(y) mod q as int64) for every slab of (Z/q)^n, in ``slabs``
    order over the int64 axis 0..q-1.

    With the coefficients reduced mod q, C = a y1^3 + b y1^2 + c y1 + d;
    ``line_coefficients`` reads b, c and d off the monomials once, on the
    grid of y2..yn (a zero column for n = 1), and each slab is one Horner
    step in y1 and one % q.  Every partial sum stays within
    3 sum(c mod q) (q-1)^3, and the evaluation axis is built once in
    ``exact_dtype`` of that bound."""
    Cq = reduce_mod(C, q)
    dtype = exact_dtype(3 * Cq.max_abs_value(q - 1))
    exact = np.arange(q, dtype=dtype)
    line = None
    for coords, y1 in zip(slabs(np.arange(q, dtype=np.int64), C.n),
                          exact if C.n > 1 else [exact]):
        if line is None:
            rest = [y.astype(dtype, copy=False) for y in coords[1:]]
            line = line_coefficients(Cq, rest or [np.zeros(1, dtype=dtype)])
        yield coords, (horner(line, y1) % q).astype(np.int64, copy=False)


def components(C: CubicForm) -> List[Tuple[int, ...]]:
    """The variable sets of the connected components of C's co-occurrence
    graph (two variables meet when a monomial holds both), each in
    increasing order, listed by their smallest variable.  An unused
    variable is a component of its own.  C is the sum of its subforms on
    these sets, and no additive split cuts one."""
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
    return [tuple(g) for g in comps.values()]


def additive_split(C: CubicForm) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """A variable partition (A, B) with C = C_A + C_B and no monomial crossing
    it, or None when the co-occurrence graph is connected.

    Components are assigned to the smaller side greedily (largest first), so
    diagonal forms split near-evenly.  Unused variables count as singleton
    components.
    """
    groups = sorted(components(C), key=lambda g: (-len(g), g[0]))
    if len(groups) < 2:
        return None
    side_a: List[int] = []
    side_b: List[int] = []
    for g in groups:
        (side_a if len(side_a) <= len(side_b) else side_b).extend(g)
    return tuple(sorted(side_a)), tuple(sorted(side_b))


def _subform(C: CubicForm, vars_subset: Tuple[int, ...]) -> CubicForm:
    """The monomials of C inside ``vars_subset``, renumbered 1..len."""
    pos = {v: i + 1 for i, v in enumerate(vars_subset)}
    terms = {}
    for (i, j, k), c in C.coeffs.items():
        if i in pos and j in pos and k in pos:
            terms[tuple(sorted((pos[i], pos[j], pos[k])))] = c
    return CubicForm(n=len(vars_subset), coeffs=terms)


def k_order_sum(terms: Iterable[np.ndarray]) -> np.ndarray:
    """The float columns ``terms`` summed one at a time in the order given:
    each entry is rounded by its own column values only, so a point's sum
    does not depend on the array it sits in (a matmul may pick a dot
    product for one row and BLAS for more, which round differently)."""
    it = iter(terms)
    total = np.array(next(it), dtype=float)
    for t in it:
        total += t
        del t   # each column is freed before the next is made
    return total


def row_values(row: Sequence, cols: Sequence[np.ndarray]) -> np.ndarray:
    """sum_k l_k x_k over float coordinate columns x_k, with the entries l_k
    of one linear row as floats: the products l_k x_k summed in k order by
    ``k_order_sum``, the one evaluation of a real row at float points."""
    return k_order_sum(float(l) * col for l, col in zip(row, cols))


def linear_values(system, pts: np.ndarray) -> np.ndarray:
    """(N, r) floats L_i(x) at the rows x of pts, one column per row of
    ``system``, each by ``row_values``."""
    cols = pts.T.astype(float, order="C")
    out = np.empty((len(pts), len(system.rows)))
    for i, row in enumerate(system.rows):
        out[:, i] = row_values(row, cols)
    return out


def check_P(P: float) -> None:
    if not math.isfinite(P):
        raise ValueError(f"P must be finite, got {P}")
    if P < 1:
        raise ValueError(f"P must be at least 1, got {P}")


def check_window(eta: float, tau: Sequence[float]) -> None:
    """The window |L - tau| < eta of every count, construction and kernel."""
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    if not all(map(math.isfinite, tau)):
        raise ValueError(f"tau must be finite, got {list(tau)}")


def constraint_mask(system, pts: np.ndarray, tau: Sequence[float], eta: float) -> np.ndarray:
    """Which integer points x (rows of pts) have |L_i(x) - tau_i| < eta for
    every row L_i of ``system`` (a ``LinearSystem`` or a ``ReducedSystem``).

    A rational row (all entries Fractions), cleared to M / D, is decided
    exactly: the integer M . x is compared with integer bounds from tau_i and
    eta read as the binary rationals of their floats, in int64 while
    max|x| * sum|M| < 2^62 and in Python integers past that.  A real row is
    decided in float, strictly, with no epsilon, on L_i(x) from
    ``row_values``, so a point gets the same verdict in any array.
    """
    if pts.ndim != 2 or pts.shape[1] != system.n or len(tau) != len(system.rows):
        raise DimensionMismatch(f"points {pts.shape} and {len(tau)} tau values do not fit "
                                f"n = {system.n}, r = {len(system.rows)}")
    real, exact = [], []
    for row, t in zip(system.rows, tau):
        (exact if all(isinstance(c, Fraction) for c in row) else real).append((row, t))
    mask = np.ones(len(pts), dtype=bool)
    cols = pts.T.astype(float, order="C") if real else ()
    for row, t in real:
        mask &= np.abs(row_values(row, cols) - float(t)) < eta
    reach = int(np.abs(pts).max(initial=1)) if exact else 1
    e = Fraction(float(eta))
    for row, t in exact:
        M, D = clear_row(row)
        t = Fraction(float(t))
        lo, hi = math.floor(D * (t - e)) + 1, math.ceil(D * (t + e)) - 1
        dtype = exact_dtype(reach * sum(map(abs, M)))
        if dtype is np.int64:
            lo, hi = max(lo, -INT64_SAFE), min(hi, INT64_SAFE)
        v = pts.astype(dtype, copy=False) @ np.array(M, dtype=dtype)
        mask &= (v >= lo) & (v <= hi)
    return mask


# entries of a block of every blocked walk, which bounds its transient arrays: Sobol
# points (unless a caller aligns to more), phase columns, join pairs, equidist's zeros
BLOCK = 2**15
SOBOL_BITS = 30  # bits of every Sobol coordinate, so at most 2^30 points


def sobol_exponent(samples: int, seed: int) -> int:
    """The m of the 2^m points ``_sobol_blocks`` draws; refuses m > SOBOL_BITS
    and a negative seed."""
    m = max(10, math.ceil(math.log2(max(2, samples))))
    if m > SOBOL_BITS:
        raise ValueError(f"Sobol points: 2^{m} samples exceed the 2^{SOBOL_BITS} "
                         f"of {SOBOL_BITS}-bit direction numbers")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return m


def _sobol_blocks(n: int, samples: int, seed: int, align: int = 1) -> Iterator[np.ndarray]:
    """Scrambled Sobol points in [-1, 1]^n, 2^m of them with
    m = max(10, ceil(log2 samples)), as coordinate-major float64 blocks of
    shape (n, S) in point order: S = max(BLOCK, align), capped at 2^m,
    so that a power-of-two ``align`` that divides 2^m divides S too, and
    each block holds whole groups of ``align`` points.

    Bit-identical to ``2 * qmc.Sobol(d=n, scramble=True,
    seed=seed).random_base2(m) - 1`` of scipy.stats, with numpy alone:

    - Joe-Kuo direction numbers of 30 bits (``_joe_kuo``), n <= 128;
    - scipy's scramble, drawn from ``default_rng(seed)`` in its order: a
      digital shift (30 random bits a coordinate), then a random lower
      triangular bit matrix with unit diagonal a coordinate (linear matrix
      scramble), which maps bit 29 - k of each direction number to bit
      29 - p with the parity of sum_k ltm[p, k] (bit 29 - k);
    - points in Gray-code order: point i is the shift XORed with the
      scrambled direction numbers v_b at the bits b of gray(i) = i ^ (i >> 1),
      which is the order scipy's one-at-a-time XOR steps visit.  Block 0 is
      built by reflection: the points [2^b, 2^(b+1)) are the points
      [0, 2^b) reversed, XORed with v_b, for b < s = log2 S.  Point kS + j
      has gray(kS + j) = gray(k) 2^s ^ gray(j) ^ (k odd) 2^(s-1), so block k
      is block 0 XORed with one constant a coordinate: v_(s+b) at the bits
      b of gray(k), and v_(s-1) once more when k is odd;
    - exact float steps: scipy's coordinate is u = q 2^-30 for an integer
      q < 2^30, and 2u - 1 = (q - 2^29) 2^-29 is a float, so is its half
      u - 1/2: a halved block is ``qmc.Sobol(...) - 0.5`` bit for bit.

    More than 128 coordinates, 2^30 points or a negative seed raise
    ValueError here, before any point is built; the blocks are built as
    they are read.  The table is imported here, so that
    ``import cubiclab.cli`` leaves it out."""
    from ._joe_kuo import JOE_KUO, direction_numbers

    m = sobol_exponent(samples, seed)
    if n > len(JOE_KUO) + 1:
        raise ValueError(f"Sobol points: {n} coordinates exceed the {len(JOE_KUO) + 1} "
                         "of the Joe-Kuo table")
    msb = np.uint32(1) << (SOBOL_BITS - 1 - np.arange(SOBOL_BITS, dtype=np.uint32))
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, (n, SOBOL_BITS), dtype=np.uint32) @ msb[::-1]
    ltm = np.tril(rng.integers(0, 2, (n, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
    ltm[:, range(SOBOL_BITS), range(SOBOL_BITS)] = 1
    in_bits = ((direction_numbers(n, SOBOL_BITS)[:, :, None] & msb) != 0).astype(np.uint32)
    v = ((in_bits @ ltm.transpose(0, 2, 1)) & 1) @ msb
    s = min(m, max(BLOCK, align).bit_length() - 1)
    return _xor_blocks(shift, v, s, m)


def _xor_blocks(shift: np.ndarray, v: np.ndarray, s: int, m: int) -> Iterator[np.ndarray]:
    """The 2^(m-s) blocks of ``_sobol_blocks``, each of 2^s points."""
    q0 = np.empty((len(shift), 1 << s), dtype=np.uint32)
    q0[:, 0] = shift
    for b in range(s):
        h = 1 << b
        np.bitwise_xor(q0[:, h - 1::-1], v[:, b, None], out=q0[:, h:2 * h])
    q = np.empty_like(q0)
    for k in range(1 << (m - s)):
        g = k ^ (k >> 1)
        offset = np.bitwise_xor.reduce(v[:, [s + b for b in range(m - s) if g >> b & 1]],
                                       axis=1, initial=0)
        if k & 1:
            offset ^= v[:, s - 1]
        np.bitwise_xor(q0, offset[:, None], out=q)
        pts = np.empty(q.shape)
        np.multiply(q, 2.0 ** (1 - SOBOL_BITS), out=pts)
        pts -= 1.0
        yield pts


@functools.lru_cache(maxsize=None)
def _leggauss(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gl_nodes(panels: int, order: int, lo: float, hi: float) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
    x, w = _leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def doubling(start: int, fits: Callable[[int], bool]) -> Iterator[int]:
    """The sizes start, 2 start, 4 start, ... while ``fits(size)`` holds."""
    size = start
    while fits(size):
        yield size
        size *= 2


def check_tol(tol: float) -> None:
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")


def refine(evaluate: Callable[[int], complex], sizes: Iterable[int], tol: float,
           what: str, kinds: Sequence[str]) -> Tuple[complex, float]:
    """(value, |difference|) at the first size whose value is within ``tol``
    of the previous size's value, evaluating the sizes in turn.

    Raises ResourceLimit, naming each row ``kinds`` of ``BUDGETS`` that
    bounds the sizes with its limit, when fewer than two sizes fit, since no
    error estimate could be made, and ToleranceNotMet, with every value it
    refined in ``table``, when the sizes run out before the tolerance is met.
    """
    table = []
    for size in sizes:
        table.append(evaluate(size))
        if len(table) > 1:
            est = abs(table[-1] - table[-2])
            if est <= tol:
                return table[-1], est
    if len(table) < 2:
        limits = " and ".join(f"{kind} {BUDGETS[kind]}" for kind in kinds)
        raise ResourceLimit(f"{what} needs two grids to estimate its error; "
                            f"{len(table)} fit its budget of {limits}")
    raise ToleranceNotMet(f"{what} budget hit before tol={tol} "
                          f"(last difference {est:.3g})", table=table)


@dataclass(frozen=True)
class GLPhases:
    """e(nu_i s_k) for the nodes nu_i of ``gl_nodes(panels, order, lo, hi)``,
    kept as three factor tables over the split of panel p = B a + b:

        nu = a B H + (lo + H (b + 1/2)) + (H/2) x_j,   H = (hi - lo) / panels,

    so e(nu s) = ea[a] * eb[b] * ej[j], and only ceil(panels/B) + B + order
    phases per s go through sin, in one ``cis`` call: the factor tables are
    consecutive row blocks of one C-ordered complex array.  Each factor's
    phase is rounded on its own, so an entry is within a few
    eps * (1 + |nu s|) of cis(nu s).

    A column k depends on s_k alone, so its callers build one GLPhases per
    block of ``phase_columns`` and never hold a (nodes x len(s)) array: the
    columns of a block are the whole table's, bit for bit.
    """

    ea: np.ndarray      # (A, K): e(a B H s_k)
    eb: np.ndarray      # (B, K): e((lo + H (b + 1/2)) s_k)
    ej: np.ndarray      # (order, K): e((H/2) x_j s_k)
    nodes: int          # panels * order; the last a-block may be partial

    def table(self, start: int = 0) -> np.ndarray:
        """The rows i >= start of the (nodes, K) table e(nu_i s_k), node i in
        ``gl_nodes`` order; each row is the same products ea[a] eb[b] ej[j]
        whatever ``start`` is.  Only the panels holding those rows are
        multiplied out, so fewer than ``order`` rows more are made than
        returned."""
        J, K = self.ej.shape
        p0 = start // J
        p = np.arange(p0, self.nodes // J)
        B = len(self.eb)
        full = (self.ea[p // B] * self.eb[p % B])[:, None, :] * self.ej[None, :, :]
        return full.reshape(-1, K)[start - p0 * J:]

    def contract(self, weights: np.ndarray) -> np.ndarray:
        """Re sum_i weights_i e(nu_i s_k) for real weights, every k, without
        the table.  The a-factor is contracted by one real matmul of the
        weights against ea read as floats, (Re, Im) interleaved, which is
        read back as the complex (B order, K) product; ``np.einsum`` then
        sums the j- and b-factors into it, so no complex temporary has an
        entry per (b, j, k).  Each output is a sum over the nodes of
        products of three rounded factors, within
        sum |w| (64 eps (1 + max|nu s|) + nodes eps) of the dense sum."""
        A, B, J = len(self.ea), len(self.eb), len(self.ej)
        w = np.zeros(A * B * J)
        w[:self.nodes] = weights
        m = (w.reshape(A, B * J).T @ self.ea.view(float)).view(complex).reshape(B, J, -1)
        return np.einsum("bk,bk->k", np.einsum("bjk,jk->bk", m, self.ej), self.eb).real


def _b_panels(panels: int) -> int:
    """B, the panels of one a-block of a ``gl_phases`` table."""
    return max(1, math.isqrt(panels))


def gl_phases(panels: int, order: int, lo: float, hi: float, s) -> GLPhases:
    """The phase table e(nu_i s_k) over ``gl_nodes(panels, order, lo, hi)`` by
    angle addition, with B = isqrt(panels) panels per a-block; the phases
    of the three factors are stacked and go through one ``cis``."""
    x, _ = _leggauss(order)
    s = np.asarray(s, dtype=float)
    H = (hi - lo) / panels
    B = _b_panels(panels)
    A = -(-panels // B)
    parts = np.concatenate([np.arange(A) * (B * H), lo + H * (np.arange(B) + 0.5), H / 2 * x])
    e = cis(np.outer(parts, s))
    return GLPhases(ea=e[:A], eb=e[A:A + B], ej=e[A + B:], nodes=panels * order)


def phase_columns(K: int, panels: int, order: int, start: Optional[int] = None
                  ) -> Iterator[slice]:
    """The column blocks, in order, of a K-column ``gl_phases(panels, order,
    ...)`` table: each as wide as keeps the largest array its caller makes
    from the block within BLOCK entries, and one column at least.
    That array is ``table(start)`` with its partial first panel when
    ``start`` is given, and otherwise the ``contract`` product, B order
    entries a column; or, where it is taller (few panels or a small order),
    the factor table ``gl_phases`` stacks, ceil(panels/B) + B + order
    entries a column."""
    B = _b_panels(panels)
    if start is None:
        rows = B * order
    else:
        rows = (panels - start // order) * order
    width = max(1, BLOCK // max(rows, -(-panels // B) + B + order))
    return (slice(k, min(k + width, K)) for k in range(0, K, width))


def w1(t: np.ndarray) -> np.ndarray:
    """One-dimensional bump exp(-1/(1 - t^2)) on |t| < 1, 0 outside; the
    weight w is its product over the coordinates."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def weight_w(x) -> np.ndarray | float:
    """Smooth bump weight on the open unit sup-norm box.

    w(x) = exp(-sum_j 1/(1 - x_j^2)) for |x| < 1 and 0 otherwise, so
    0 <= w <= e^{-n} with the maximum at the origin.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    # column by column: numpy's reductions along short rows cost more than
    # the arithmetic, and for n <= 7 they sum in this same order
    cols = np.atleast_2d(arr).T
    inside = np.abs(cols[0]) < 1.0
    for col in cols[1:]:
        inside &= np.abs(col) < 1.0
    out = np.zeros(len(inside))
    if inside.any():
        out[inside] = np.exp(-sum(1.0 / (1.0 - col[inside] ** 2) for col in cols))
    return float(out[0]) if single else out


def is_diagonal(C: CubicForm) -> bool:
    return all(i == j == k for (i, j, k) in C.coeffs)


def diag_coeffs(C: CubicForm) -> np.ndarray:
    """The coefficients of x_i^3 of a diagonal form, as floats."""
    d = np.zeros(C.n)
    for (i, j, k), c in C.coeffs.items():
        d[i - 1] = c
    return d
