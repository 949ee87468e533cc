"""Boxes of lattice points, a cubic form evaluated on them, the components
and additive splits of a form, the linear constraint predicate, Sobol
points, the bump weight, the one-dimensional quadrature pieces shared by the
oscillatory integrals and the kernel transform, and the one refinement loop
of every panel-doubling quadrature.

C is evaluated on coordinate arrays in three arithmetics: exact integers
(zero detection), mod q (residue sums, and the gradient mod q for the local
densities) and float (box sums, quadrature and Monte Carlo).  Every exact
integer array takes its dtype from ``exact_dtype`` of an a-priori bound on
its products: int64 below 2^62 and Python integers (``object``) past it, so
the same numpy code runs in both.  Each monomial is one
``c * x_i * x_j * x_k`` product, accumulated in coefficient order, so every
caller rounds the same way.
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
RESIDUE_BUDGET = 100_000_000    # residues of one q^n or p^n enumeration


def check_residues(count: int, what: str) -> None:
    """Raise ResourceLimit when an enumeration of ``count`` residues would pass
    RESIDUE_BUDGET: the one guard of every complete sum, local density and
    p-adic search over residues mod q or p^k."""
    if count > RESIDUE_BUDGET:
        raise ResourceLimit(f"{what} = {count} residues exceeds budget {RESIDUE_BUDGET}")


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
    """axis^n as an (N, n) array of points in lex order."""
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def cubic_values(C: CubicForm, coords: Sequence[np.ndarray]) -> np.ndarray:
    """C on broadcastable coordinate arrays, in their own dtype."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in coords))
    total = np.zeros(shape, dtype=np.result_type(*coords))
    for (i, j, k), c in C.coeffs.items():
        total += c * coords[i - 1] * coords[j - 1] * coords[k - 1]
    return total


def _residues(coords: Sequence[np.ndarray], q: int) -> List[np.ndarray]:
    """Residue coordinates for arithmetic mod q, whose products reach q^2."""
    dtype = exact_dtype(q * q)
    return [np.asarray(x).astype(dtype, copy=False) for x in coords]


def cubic_mod(C: CubicForm, coords: Sequence[np.ndarray], q: int) -> np.ndarray:
    """C(y) mod q on residue coordinates, as int64."""
    coords = _residues(coords, q)
    vals = np.zeros(coords[-1].shape, dtype=np.int64)
    for (i, j, k), c in C.coeffs.items():
        t = (c % q) * coords[i - 1] % q
        t = t * coords[j - 1] % q
        t = t * coords[k - 1] % q
        vals = (vals + t) % q
    return vals.astype(np.int64, copy=False)


def grad_mod(C: CubicForm, coords: Sequence[np.ndarray], q: int) -> List[np.ndarray]:
    """The gradient of C mod q on residue coordinates, one int64 array per
    variable, in ``grad_cubic``'s order of terms."""
    coords = _residues(coords, q)
    shape = np.broadcast_shapes(*(np.shape(x) for x in coords))
    grad = [np.zeros(shape, dtype=np.int64) for _ in range(C.n)]
    for (i, j, k), c in C.coeffs.items():
        c = c % q
        for g, a, b in ((i, j, k), (j, i, k), (k, i, j)):
            grad[g - 1] = (grad[g - 1] + c * coords[a - 1] % q * coords[b - 1]) % q
    return [g.astype(np.int64, copy=False) for g in grad]


def linear_mod(avec_mod: Sequence[int], coords: Sequence[np.ndarray], q: int) -> np.ndarray:
    """avec . y mod q for reduced avec."""
    vals = np.zeros(coords[-1].shape, dtype=np.int64)
    for v, coord in zip(avec_mod, coords):
        if v:
            vals = (vals + v * coord) % q
    return vals


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


def constraint_mask(system, pts: np.ndarray, tau: Sequence[float], eta: float) -> np.ndarray:
    """Which integer points x (rows of pts) have |L_i(x) - tau_i| < eta for
    every row L_i of ``system`` (a ``LinearSystem`` or a ``ReducedSystem``).

    A rational row (all entries Fractions), cleared to M / D, is decided
    exactly: the integer M . x is compared with integer bounds from tau_i and
    eta read as the binary rationals of their floats, in int64 while
    max|x| * sum|M| < 2^62 and in Python integers past that.  A real row is
    decided in float, strictly, with no epsilon.
    """
    if pts.ndim != 2 or pts.shape[1] != system.n or len(tau) != len(system.rows):
        raise DimensionMismatch(f"points {pts.shape} and {len(tau)} tau values do not fit "
                                f"n = {system.n}, r = {len(system.rows)}")
    real, exact = [], []
    for row, t in zip(system.rows, tau):
        (exact if all(isinstance(c, Fraction) for c in row) else real).append((row, t))
    mask = np.ones(len(pts), dtype=bool)
    if real:
        rows, ts = zip(*real)
        vals = pts.astype(float) @ np.array(rows, dtype=float).T
        for col, t in zip(vals.T, ts):
            mask &= np.abs(col - float(t)) < eta
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


def _sobol_box(n: int, samples: int, seed: int, lo: float, hi: float) -> np.ndarray:
    """Scrambled Sobol points in [lo, hi]^n; sample count rounds up to 2^m.
    scipy is imported here, not at module level, so that start-up stays fast."""
    from scipy.stats import qmc

    m = max(10, math.ceil(math.log2(max(2, samples))))
    pts = qmc.Sobol(d=n, scramble=True, seed=seed).random_base2(m)
    return lo + (hi - lo) * pts


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


def refine(evaluate: Callable[[int], complex], sizes: Iterable[int], tol: float,
           what: str) -> Tuple[complex, float]:
    """(value, |difference|) at the first size whose value is within ``tol``
    of the previous size's value, evaluating the sizes in turn.

    Raises ResourceLimit when fewer than two sizes fit the budget, since no
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
        raise ResourceLimit(f"{what} needs two grids to estimate its error; "
                            f"{len(table)} fit its budget")
    raise ToleranceNotMet(f"{what} budget hit before tol={tol} "
                          f"(last difference {est:.3g})", table=table)


@dataclass(frozen=True)
class GLPhases:
    """e(nu_i s_k) for the nodes nu_i of ``gl_nodes(panels, order, lo, hi)``,
    kept as three factor tables over the split of panel p = B a + b:

        nu = a B H + (lo + H (b + 1/2)) + (H/2) x_j,   H = (hi - lo) / panels,

    so e(nu s) = ea[a] * eb[b] * ej[j], and only ceil(panels/B) + B + order
    phases per s go through sin.  Each factor's phase is rounded on its own,
    so an entry is within a few eps * (1 + |nu s|) of cis(nu s).
    """

    ea: np.ndarray      # (A, K): e(a B H s_k)
    eb: np.ndarray      # (B, K): e((lo + H (b + 1/2)) s_k)
    ej: np.ndarray      # (order, K): e((H/2) x_j s_k)
    nodes: int          # panels * order; the last a-block may be partial

    def table(self) -> np.ndarray:
        """The (nodes, K) table e(nu_i s_k), node i in ``gl_nodes`` order."""
        ab = self.ea[:, None, :] * self.eb[None, :, :]
        full = ab[:, :, None, :] * self.ej[None, None, :, :]
        return full.reshape(-1, full.shape[-1])[:self.nodes]

    def contract(self, weights: np.ndarray) -> np.ndarray:
        """sum_i weights_i e(nu_i s_k) for every k, without the table: one
        matmul contracts the a-factor, then the b- and j-factors multiply in."""
        A, B, J = len(self.ea), len(self.eb), len(self.ej)
        w = np.zeros(A * B * J, dtype=np.result_type(weights, float))
        w[:self.nodes] = weights
        m = (self.ea.T @ w.reshape(A, B * J)).reshape(-1, B, J)
        return np.sum(np.sum(m * self.ej.T[:, None, :], axis=2) * self.eb.T, axis=1)


def gl_phases(panels: int, order: int, lo: float, hi: float, s) -> GLPhases:
    """The phase table e(nu_i s_k) over ``gl_nodes(panels, order, lo, hi)`` by
    angle addition, with B = isqrt(panels) panels per a-block."""
    x, _ = _leggauss(order)
    s = np.asarray(s, dtype=float)
    H = (hi - lo) / panels
    B = max(1, math.isqrt(panels))
    A = -(-panels // B)
    return GLPhases(ea=cis(np.outer(np.arange(A) * (B * H), s)),
                    eb=cis(np.outer(lo + H * (np.arange(B) + 0.5), s)),
                    ej=cis(np.outer(H / 2 * x, s)),
                    nodes=panels * order)


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
