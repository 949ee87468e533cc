"""Boxes of lattice points, a cubic form evaluated on them, and the
one-dimensional quadrature pieces shared by the oscillatory integrals and the
kernel transform.

C is evaluated on coordinate arrays in three arithmetics: exact int64 (zero
detection; exact only while the caller's ``CubicForm.max_abs_value`` guard
keeps |C| below 2^62), mod q (residue sums) and float (box sums, quadrature
and Monte Carlo).  Each monomial is one ``c * x_i * x_j * x_k`` product,
accumulated in coefficient order, so every caller rounds the same way.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .forms_core import CubicForm


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


def cubic_mod(C: CubicForm, coords: Sequence[np.ndarray], q: int) -> np.ndarray:
    """C(y) mod q on int64 residue coordinates; every product stays below q^2."""
    vals = np.zeros(coords[-1].shape, dtype=np.int64)
    for (i, j, k), c in C.coeffs.items():
        t = (c % q) * coords[i - 1] % q
        t = t * coords[j - 1] % q
        t = t * coords[k - 1] % q
        vals = (vals + t) % q
    return vals


def linear_mod(avec_mod: Sequence[int], coords: Sequence[np.ndarray], q: int) -> np.ndarray:
    """avec . y mod q for reduced avec."""
    vals = np.zeros(coords[-1].shape, dtype=np.int64)
    for v, coord in zip(avec_mod, coords):
        if v:
            vals = (vals + v * coord) % q
    return vals


def gl_nodes(panels: int, order: int, lo: float, hi: float) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def w1(t: np.ndarray) -> np.ndarray:
    """One-dimensional bump exp(-1/(1 - t^2)) on |t| < 1, 0 outside; the
    weight w is its product over the coordinates."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def is_diagonal(C: CubicForm) -> bool:
    return all(i == j == k for (i, j, k) in C.coeffs)


def diag_coeffs(C: CubicForm) -> np.ndarray:
    """The coefficients of x_i^3 of a diagonal form, as floats."""
    d = np.zeros(C.n)
    for (i, j, k), c in C.coeffs.items():
        d[i - 1] = c
    return d
