"""Span wrappers installed from the benchmark around cubiclab's public functions.

Nothing in ``src/`` changes: each wrapper replaces a module attribute, on
every cubiclab module that holds the same function object, so the name a
caller actually looks up is wrapped (``singular_series.residue_histogram`` and
``equidist.zero_points`` are bound at import time, for example).  Spans stay
in memory; the caller writes them out at the end.

A span's busy time counts only spans without an ancestor of the same name; its
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    work: Dict[str, float] = field(default_factory=dict)


def _residues(a, r):
    return {"residues": a["q"] ** a["C"].n}


def _complete_sum_residues(a, r):
    return {"complete_sum.residues": a["q"] ** a["C"].n if a["q"] > 1 else 0}


def _zero_points(a, r):
    return {"points_examined": r[1], "zeros": len(r[0])}


def _sum_g_points(a, r):
    return {"sum_g.points": (2 * (math.ceil(a["P"]) - 1) + 1) ** a["C"].n}


def _solve_system_candidates(a, r):
    from cubiclab.linear_construction import integer_kernel
    d = len(integer_kernel([form for form, _ in a["decomp"].pairs]))
    return {"candidates": (2 * a["Y"] + 1) ** d}


# (module, function, work counter taken from bound arguments and return value)
TARGETS = (
    ("forms_core", "h_bounds", None),
    ("lattice_enum", "count", None),
    ("lattice_enum", "zero_points", _zero_points),
    ("exp_sums", "residue_histogram", _residues),
    ("exp_sums", "complete_sum", _complete_sum_residues),
    ("exp_sums", "sbound_check", None),
    ("exp_sums", "sum_g", _sum_g_points),
    ("exp_sums", "osc_integral_I", lambda a, r: {"osc_integral_I.calls": 1}),
    ("singular_series", "singular_series_truncated", None),
    ("singular_series", "find_nonsingular_padic_zero", None),
    ("singular_series", "local_density",
     lambda a, r: {"local_density.solutions": r.solutions}),
    ("singular_integral", "schmidt_IL", lambda a, r: {"samples": r.samples}),
    ("singular_integral", "chi_w_oscillatory", None),
    ("kernels", "sandwich_check", lambda a, r: {"points_checked": r.points_checked}),
    ("equidist", "equidist_experiment", lambda a, r: {"zeros": sum(row.N for row in r)}),
    ("linear_construction", "solve_system", _solve_system_candidates),
)


class Tracer:
    """Records nested spans while installed; ``uninstall`` restores the
    original functions."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patched: List[tuple] = []
        self.wrapped: List[str] = []     # "<module>.<name>" of every patched lookup

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def _close(self) -> None:
        self._stack.pop().end = time.perf_counter()

    def _wrap(self, name: str, fn: Callable, work: Optional[Callable]) -> Callable:
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                sp.work = work(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target on each loaded cubiclab module that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cubiclab" or n.startswith("cubiclab.")) and m is not None]
        for mod_name, fn_name, work in TARGETS:
            home = sys.modules[f"cubiclab.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, work)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))
        self.wrapped = sorted(f"{mod.__name__}.{fn}" for mod, fn, _ in self._patched)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()


def layer_totals(spans: List[Span]) -> Dict[str, float]:
    """Busy time (``<name>_s``), self time (``<name>_self_s``) and summed work
    counts per span name over a list of spans."""
    by_id = {sp.id: sp for sp in spans}
    child_time: Dict[int, float] = {}
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] = child_time.get(sp.parent, 0.0) + (sp.end - sp.start)
    out: Dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for sp in spans:
        duration = sp.end - sp.start
        ancestor = by_id.get(sp.parent) if sp.parent is not None else None
        nested = False
        while ancestor is not None:
            if ancestor.name == sp.name:
                nested = True
                break
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        if not nested:
            add(f"{sp.name}_s", duration)
        add(f"{sp.name}_self_s", duration - child_time.get(sp.id, 0.0))
        module = sp.name.split(".", 1)[0]
        for key, value in sp.work.items():
            add(f"{module}.{key}", value)
    return out
