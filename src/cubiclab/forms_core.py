"""Exact representation and structural analysis of cubic and linear forms.

Everything in this module is exact: coefficients are integers or Fractions,
evaluation uses arbitrary-precision arithmetic, and polynomial identities are
checked coefficient by coefficient after symbolic expansion.  Floating point
never enters here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionMismatch, InconsistentBounds

Triple = Tuple[int, int, int]
Pair = Tuple[int, int]
Rat = Union[int, Fraction, str]


def as_fraction(v: Rat) -> Fraction:
    """Parse an exact rational from an int, Fraction, or 'p/q' string."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v.strip())
    raise TypeError(f"not an exact rational: {v!r}")


def linear_entry(v) -> Union[Fraction, float]:
    """Parse one linear-form coefficient: a float is real; an int, Fraction
    or 'p/q' string is an exact rational.  Bools are refused."""
    if isinstance(v, float):
        return v
    if isinstance(v, (int, Fraction, str)) and not isinstance(v, bool):
        return as_fraction(v)
    raise ValueError(f"bad linear coefficient {v!r}")


def clear_row(row: Sequence[Rat]) -> Tuple[List[int], int]:
    """Rationals as integers M over their least common denominator D, row = M / D."""
    D = lcm(*(Fraction(c).denominator for c in row), 1)
    return [int(Fraction(c) * D) for c in row], D


def _sorted_triple(i: int, j: int, k: int) -> Triple:
    a, b, c = sorted((i, j, k))
    return (a, b, c)


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class CubicForm:
    """Integer-coefficient symmetric cubic in n variables.

    ``coeffs`` maps index triples (i, j, k), 1 <= i <= j <= k <= n, to nonzero
    integers.  Rational input is rescaled to integers at ingestion and the
    multiplier is recorded in ``rescale`` (zeros of the form are unaffected).
    The zero form (empty ``coeffs``) is representable so that degenerate
    integrands can be exercised; structural operations reject it.
    """

    n: int
    coeffs: Mapping[Triple, int]
    rescale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        for (i, j, k), c in self.coeffs.items():
            if not (1 <= i <= j <= k <= self.n):
                raise ValueError(f"bad monomial index {(i, j, k)} for n={self.n}")
            if not isinstance(c, int) or c == 0:
                raise ValueError(f"coefficient for {(i, j, k)} must be a nonzero int")

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[Tuple[int, int, int, Rat]]) -> "CubicForm":
        """Build from (i, j, k, coeff) terms; indices are sorted and merged,
        rational coefficients are cleared to integers."""
        acc: Dict[Triple, Fraction] = {}
        for i, j, k, c in terms:
            key = _sorted_triple(i, j, k)
            acc[key] = acc.get(key, Fraction(0)) + as_fraction(c)
        keys = sorted(key for key, c in acc.items() if c != 0)
        ints, scale = clear_row([acc[key] for key in keys])
        return cls(n=n, coeffs=dict(zip(keys, ints)), rescale=Fraction(scale))

    @classmethod
    def diagonal(cls, diag: Sequence[Rat]) -> "CubicForm":
        """The form sum_i d_i * x_i^3."""
        return cls.from_terms(len(diag), [(i, i, i, d) for i, d in enumerate(diag, 1) if d != 0])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def max_abs_value(self, box: int) -> int:
        """Upper bound for |C(x)| over the box |x| <= box (exact)."""
        return sum(abs(c) for c in self.coeffs.values()) * box**3


@dataclass(frozen=True)
class LinearForm:
    """A linear form in n variables with exact rational or float coefficients."""

    n: int
    coeffs: Tuple[Union[Fraction, float], ...]

    def __post_init__(self):
        if len(self.coeffs) != self.n:
            raise DimensionMismatch("coefficient vector length must equal n")

    @classmethod
    def rational(cls, coeffs: Sequence[Rat]) -> "LinearForm":
        return cls(len(coeffs), tuple(as_fraction(c) for c in coeffs))

    @property
    def is_rational(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coeffs)

    def eval(self, x: Sequence[int]):
        if len(x) != self.n:
            raise DimensionMismatch("vector length must equal n")
        return sum(c * xi for c, xi in zip(self.coeffs, x))


@dataclass(frozen=True)
class QuadraticForm:
    """A quadratic form given by exact rational coefficients on (i, j), i <= j."""

    n: int
    coeffs: Mapping[Pair, Fraction]

    def __post_init__(self):
        for (i, j), c in self.coeffs.items():
            if not (1 <= i <= j <= self.n):
                raise ValueError(f"bad quadratic index {(i, j)} for n={self.n}")
            if not isinstance(c, Fraction):
                raise ValueError("quadratic coefficients must be Fractions")

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[Tuple[int, int, Rat]]) -> "QuadraticForm":
        acc: Dict[Pair, Fraction] = {}
        for i, j, c in terms:
            key = (min(i, j), max(i, j))
            acc[key] = acc.get(key, Fraction(0)) + as_fraction(c)
        return cls(n, {k: c for k, c in sorted(acc.items()) if c != 0})


@dataclass(frozen=True)
class HDecomposition:
    """A list of (linear, quadratic) pairs whose products are meant to sum to C."""

    pairs: Tuple[Tuple[LinearForm, QuadraticForm], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("decomposition needs at least one pair")
        n = self.pairs[0][0].n
        for a, b in self.pairs:
            if a.n != n or b.n != n:
                raise DimensionMismatch("all forms in a decomposition share n")
            if not a.is_rational:
                raise ValueError("decomposition linear forms must be rational")

    @property
    def n(self) -> int:
        return self.pairs[0][0].n

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class LinearSystem:
    """r real linear forms in n variables (rows of the matrix)."""

    r: int
    n: int
    rows: Tuple[Tuple[Union[Fraction, float], ...], ...]

    def __post_init__(self):
        if not (0 <= self.r <= self.n):
            raise ValueError("need 0 <= r <= n")
        if len(self.rows) != self.r:
            raise ValueError("row count must equal r")
        for row in self.rows:
            if len(row) != self.n:
                raise DimensionMismatch("row length must equal n")
        if self.r > 0 and np.linalg.matrix_rank(self.matrix()) < self.r:
            raise ValueError("rows must be linearly independent over the reals")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Union[float, Rat]]],
                  n: Optional[int] = None) -> "LinearSystem":
        parsed = [tuple(map(linear_entry, row)) for row in rows]
        if n is None:
            if not parsed:
                raise ValueError("cannot infer n from an empty system")
            n = len(parsed[0])
        return cls(r=len(parsed), n=n, rows=tuple(parsed))

    @classmethod
    def empty(cls, n: int) -> "LinearSystem":
        return cls(r=0, n=n, rows=())

    @classmethod
    def for_form(cls, C: "CubicForm", Lsys: Optional["LinearSystem"]) -> "LinearSystem":
        """The constraints of a (C, Lsys) call: None is the empty system
        (r = 0) in C's variables, and a system in another number of
        variables raises DimensionMismatch."""
        if Lsys is None:
            return cls.empty(C.n)
        if Lsys.n != C.n:
            raise DimensionMismatch(f"linear system has n = {Lsys.n}, form has n = {C.n}")
        return Lsys

    def matrix(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.rows], dtype=float).reshape(self.r, self.n)

    def forms(self) -> List[LinearForm]:
        return [LinearForm(self.n, row) for row in self.rows]


# ---------------------------------------------------------------------------
# Evaluation


def eval_cubic(C: CubicForm, x: Sequence[int]) -> int:
    """Evaluate C at an integer vector, exactly."""
    if len(x) != C.n:
        raise DimensionMismatch(f"expected {C.n} coordinates, got {len(x)}")
    total = 0
    for (i, j, k), c in C.coeffs.items():
        total += c * x[i - 1] * x[j - 1] * x[k - 1]
    return total


def grad_cubic(C: CubicForm, x: Sequence[int]) -> Tuple[int, ...]:
    """Gradient of C at an integer vector; satisfies x . grad = 3 C(x).

    It works elementwise: x may be n arrays (the columns of a set of
    points), and each entry is then an array of their partial derivatives
    in the arrays' dtype, or the integer 0 for a variable C does not
    hold."""
    if len(x) != C.n:
        raise DimensionMismatch(f"expected {C.n} coordinates, got {len(x)}")
    g = [0] * C.n
    for (i, j, k), c in C.coeffs.items():
        g[i - 1] += c * x[j - 1] * x[k - 1]
        g[j - 1] += c * x[i - 1] * x[k - 1]
        g[k - 1] += c * x[i - 1] * x[j - 1]
    return tuple(g)


def eval_linear(Lsys: LinearSystem, x: Sequence[int]) -> List[float]:
    """Values (L_1(x), ..., L_r(x)).  Rational rows are evaluated exactly
    before the final conversion to float."""
    if len(x) != Lsys.n:
        raise DimensionMismatch(f"expected {Lsys.n} coordinates, got {len(x)}")
    out = []
    for row in Lsys.rows:
        out.append(float(sum(c * xi for c, xi in zip(row, x))))
    return out


# ---------------------------------------------------------------------------
# Exact polynomial expansion


def expand_decomposition(D: HDecomposition) -> Dict[Triple, Fraction]:
    """Expand sum_i A_i * B_i into a canonical cubic coefficient map."""
    acc: Dict[Triple, Fraction] = {}
    for a, b in D.pairs:
        for l, al in enumerate(a.coeffs, 1):
            if al == 0:
                continue
            for (u, v), buv in b.coeffs.items():
                key = _sorted_triple(l, u, v)
                acc[key] = acc.get(key, Fraction(0)) + al * buv
    return {k: c for k, c in acc.items() if c != 0}


def verify_h_decomposition(C: CubicForm, D: HDecomposition) -> bool:
    """True iff C - sum A_i B_i is the zero polynomial, by exact comparison.

    The comparison targets C as written, its stored integer coefficients
    divided by ``rescale``.
    """
    if D.n != C.n:
        raise DimensionMismatch("decomposition has wrong number of variables")
    expanded = expand_decomposition(D)
    target = {k: Fraction(c) / C.rescale for k, c in C.coeffs.items()}
    return expanded == target


def substitute_linear_span(C: CubicForm, vectors: Sequence[Sequence[int]]) -> Dict[Triple, int]:
    """Coefficients of t -> C(t_1 v_1 + ... + t_d v_d) as a cubic in d variables.

    Exact integer arithmetic; the result is empty iff C vanishes identically
    on the span of the vectors.
    """
    d = len(vectors)
    for v in vectors:
        if len(v) != C.n:
            raise DimensionMismatch("substitution vectors must have n coordinates")
    acc: Dict[Triple, int] = {}
    for (i, j, k), c in C.coeffs.items():
        vi = [vectors[a][i - 1] for a in range(d)]
        vj = [vectors[a][j - 1] for a in range(d)]
        vk = [vectors[a][k - 1] for a in range(d)]
        for a in range(d):
            if vi[a] == 0:
                continue
            for b in range(d):
                if vj[b] == 0:
                    continue
                for e in range(d):
                    if vk[e] == 0:
                        continue
                    key = _sorted_triple(a + 1, b + 1, e + 1)
                    acc[key] = acc.get(key, 0) + c * vi[a] * vj[b] * vk[e]
    return {k: v for k, v in acc.items() if v != 0}


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q by exact Gaussian elimination."""
    mat = [list(map(Fraction, row)) for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pr = mat[rank]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                f = mat[r][col] / pr[col]
                mat[r] = [a - f * b for a, b in zip(mat[r], pr)]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# Rational linear spaces inside the hypersurface, and h-invariant bounds


def _primitive_vectors(n: int, H: int) -> List[Tuple[int, ...]]:
    """Canonical primitive vectors of sup-norm <= H, in ascending lex order.

    Canonical means the first nonzero coordinate is positive, so each line
    through the origin is represented once.
    """
    from ._grid import charge  # _grid imports this module
    charge("candidate vectors", (2 * H + 1) ** n, f"vector enumeration (2*{H}+1)^{n}")
    out = []
    for v in product(range(-H, H + 1), repeat=n):
        nz = next((c for c in v if c != 0), 0)
        if nz <= 0:
            continue
        if gcd(*v) != 1:
            continue
        out.append(v)
    return out


def _polar_tensor(C: CubicForm, dtype) -> np.ndarray:
    """The integer tensor 6T of the symmetric trilinear form T with
    C(x) = T(x, x, x), in ``dtype``: a monomial c x_i x_j x_k puts 6c / m on
    each of its m distinct index orders."""
    S = np.zeros((C.n,) * 3, dtype=dtype)
    for (i, j, k), c in C.coeffs.items():
        orders = set(permutations((i - 1, j - 1, k - 1)))
        for idx in orders:
            S[idx] += 6 * c // len(orders)
    return S


def _reduce_against(basis: Sequence[Tuple[int, Tuple[int, ...]]],
                    v: Sequence[int]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """v reduced by an integer echelon basis of (pivot, row) pairs, each row
    zero at the pivots before its own: the new (pivot, row), or None when v
    lies in the span."""
    v = list(v)
    for piv, row in basis:
        if v[piv]:
            a, b = row[piv], v[piv]
            v = [a * x - b * y for x, y in zip(v, row)]
    piv = next((i for i, x in enumerate(v) if x), None)
    if piv is None:
        return None
    g = gcd(*v)
    return piv, tuple(x // g for x in v)


class _PolarSearch:
    """The bounded space search on the polar form of C.

    The span of v_1..v_d lies in {C = 0} exactly when T(v_a, v_b, v_c) = 0
    for every a <= b <= c.  The candidates are the primitive vectors of height
    <= H with C(v) = 0; the table ``pair`` holds T(v_a, v_a, v_b) = 0 and
    T(v_b, v_b, v_a) = 0 for every two of them.  Below each node of the
    depth-first search, the allowed candidates are the later ones that pass
    the table with every chosen vector and T(u, w, .) = 0 with every chosen
    pair.  The products of 6T with candidates are bounded by 6 sum|c| H^3, so
    they are int64 below 2^62 and Python integers past it (``exact_dtype``).
    """

    def __init__(self, C: CubicForm, H: int):
        from ._grid import exact_dtype  # _grid imports this module
        dtype = exact_dtype(6 * C.max_abs_value(H))
        prim = np.array(_primitive_vectors(C.n, H), dtype=dtype).reshape(-1, C.n)
        S = _polar_tensor(C, dtype)
        Q = np.einsum("ijk,ai,aj->ak", S, prim, prim)          # 6T(v, v, .)
        zero = np.einsum("ak,ak->a", Q, prim) == 0             # 6C(v) = 0
        self.V = prim[zero]
        self.cands = [tuple(int(x) for x in v) for v in self.V]
        tab = Q[zero] @ self.V.T                                # 6T(v_a, v_a, v_b)
        self.pair = (tab == 0) & (tab.T == 0)
        self.SV = np.einsum("ijk,ai->ajk", S, self.V)           # 6T(v_a, ., .)

    def first(self, d: int) -> Optional[List[Tuple[int, ...]]]:
        """The first d-vector certificate in depth-first lex order, or None."""

        def extend(chosen: List[int], basis, allowed: np.ndarray):
            if len(chosen) == d:
                return [self.cands[a] for a in chosen]
            for pos, a in enumerate(allowed):
                if len(chosen) + len(allowed) - pos < d:
                    break
                reduced = _reduce_against(basis, self.cands[a])
                if reduced is None:
                    continue
                rest = allowed[pos + 1:]
                rest = rest[self.pair[a, rest]]
                for u in chosen:
                    rest = rest[self.V[rest] @ (self.V[u] @ self.SV[a]) == 0]
                found = extend(chosen + [a], basis + [reduced], rest)
                if found is not None:
                    return found
            return None

        return extend([], [], np.arange(len(self.cands)))


def check_height(H: int) -> None:
    if H < 1:
        raise ValueError(f"need H >= 1, got {H}")


def _space_finder(C: CubicForm, H: int):
    """d -> the first certificate of the polar-form search at dimension d, or
    None.  A certificate is re-checked by symbolic substitution before it is
    returned."""
    check_height(H)
    search = _PolarSearch(C, H).first

    def find(d: int) -> Optional[List[Tuple[int, ...]]]:
        found = search(d)
        if found is not None and (substitute_linear_span(C, found)
                                  or rational_rank(found) != d):
            raise AssertionError(f"space search returned a bad certificate {found}")
        return found

    return find


def find_rational_linear_space(C: CubicForm, d: int, H: int) -> Optional[List[Tuple[int, ...]]]:
    """Search for d independent integer vectors of height <= H whose span lies
    inside {C = 0}.

    Returns the first certificate in depth-first lex order over the primitive
    zeros of C of height <= H, or None if the bounded search fails.  Failure is
    not a proof of nonexistence.  The search works on the polar form: with the
    integer tensor 6T of C (C(x) = T(x, x, x)) built once, a table of
    T(v_a, v_a, v_b) = 0 over every two candidates and the rows
    T(v, u, .) . V of the chosen vectors narrow the candidates allowed below
    each node, and an incremental integer echelon form tests independence.
    The products are int64 while 6 sum|c| H^3 < 2^62 and Python integers past
    that.  A direct search with symbolic substitution and a Fraction rank at
    every node, kept in the tests as the oracle, returns the same
    certificate; the certificate is re-verified by ``substitute_linear_span``.
    """
    if C.is_zero:
        raise ValueError("the zero form contains every linear space")
    if not (1 <= d < C.n):
        raise ValueError("need 1 <= d < n")
    return _space_finder(C, H)(d)


def check_nonzero(C: CubicForm) -> CubicForm:
    if C.is_zero:
        raise ValueError("h-invariant is undefined for the zero form")
    return C


def h_bounds(C: CubicForm, witness: Optional[HDecomposition] = None,
             H: int = 2) -> Tuple[int, int]:
    """Certified window (lower, upper) for the h-invariant.

    upper comes from a verified decomposition witness (h <= #pairs); lower is
    n - d_max with d_max the largest dimension at which the space search over
    vectors of height <= H succeeds.  The candidates and tables of the search
    are built once for every d.  The window is exact only when lower ==
    upper; crossing bounds indicate an internal defect since both endpoints
    carry verified certificates.
    """
    check_nonzero(C)
    if witness is not None and not verify_h_decomposition(C, witness):
        raise ValueError("witness decomposition does not reproduce C")
    upper = C.n if witness is None else min(C.n, len(witness))
    d_max = 0
    if C.n > 1:
        find = _space_finder(C, H)
        for d in range(1, C.n):
            if find(d) is None:
                break
            d_max = d
    lower = C.n - d_max
    if lower > upper:
        raise InconsistentBounds(
            f"h window crossed: lower {lower} > upper {upper}; certificates disagree")
    return lower, upper


# ---------------------------------------------------------------------------
# File formats


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _malformed(kind: str, source: Union[str, dict], where: str, exc: Exception) -> ValueError:
    """A KeyError or TypeError met while a document was read, as a ValueError
    that names the document, the position and the key or value at fault."""
    name = f"{kind} {source}" if isinstance(source, str) else kind
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ValueError(f"{name}: {where}{detail}")


def load_cubic_form(source: Union[str, dict]) -> CubicForm:
    """Load {"n": int, "monomials": [{"i","j","k","c"}]} with i <= j <= k required."""
    doc = _read_json(source) if isinstance(source, str) else source
    where = ""
    try:
        n = doc["n"]
        terms = []
        for idx, m in enumerate(doc["monomials"]):
            where = f"monomials[{idx}]: "
            i, j, k = m["i"], m["j"], m["k"]
            if not (i <= j <= k):
                raise ValueError(f"{where}index order violated (need i <= j <= k), "
                                 f"got {(i, j, k)}")
            terms.append((i, j, k, as_fraction(m["c"])))
        where = ""
        return CubicForm.from_terms(n, terms)
    except (KeyError, TypeError) as exc:
        raise _malformed("cubic form", source, where, exc) from exc


def load_linear_system(source: Union[str, dict]) -> LinearSystem:
    """Load {"r", "n", "rows"}; row entries are read by ``linear_entry``, as
    in ``from_rows``, and other keys are ignored."""
    doc = _read_json(source) if isinstance(source, str) else source
    try:
        rows = tuple(tuple(map(linear_entry, row)) for row in doc["rows"])
        return LinearSystem(r=doc["r"], n=doc["n"], rows=rows)
    except (KeyError, TypeError) as exc:
        raise _malformed("linear system", source, "", exc) from exc


def load_h_decomposition(source: Union[str, dict]) -> HDecomposition:
    """Load {"n": int, "pairs": [{"A": [rat, ...], "B": [{"i","j","c"}]}]}."""
    doc = _read_json(source) if isinstance(source, str) else source
    try:
        n = doc["n"]
        pairs = []
        for p in doc["pairs"]:
            a = LinearForm.rational(p["A"])
            b = QuadraticForm.from_terms(n, [(t["i"], t["j"], as_fraction(t["c"]))
                                             for t in p["B"]])
            pairs.append((a, b))
        return HDecomposition(tuple(pairs))
    except (KeyError, TypeError) as exc:
        raise _malformed("decomposition", source, "", exc) from exc


# Standard small test form: two equal sums of cubes with a nontrivial zero (1, 12, 9, 10).
def taxicab_form() -> CubicForm:
    return CubicForm.diagonal([1, 1, -1, -1])


def taxicab_decomposition() -> HDecomposition:
    one = Fraction(1)
    a1 = LinearForm.rational([1, 1, 0, 0])
    b1 = QuadraticForm.from_terms(4, [(1, 1, one), (1, 2, -one), (2, 2, one)])
    a2 = LinearForm.rational([0, 0, -1, -1])
    b2 = QuadraticForm.from_terms(4, [(3, 3, one), (3, 4, -one), (4, 4, one)])
    return HDecomposition(((a1, b1), (a2, b2)))
