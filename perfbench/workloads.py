"""The benchmark's three workloads: seeded inputs, input files and CLI commands.

Every workload is a closed loop: one process calls ``cubiclab.cli.main`` once
per command, each call after the previous one returns, with
``CUBICLAB_WORKERS`` unset (one worker).

Why each workload exists (the property it has and the layer it loads):

split
    The taxicab form x1^3 + x2^3 - x3^3 - x4^3 is diagonal, so it has an
    additive split over a variable partition.  "auto" enumeration resolves to
    meet-in-the-middle, and the residue histograms, ``g`` and the oscillatory
    axis integrals all factor over the split.  Every structure-aware fast path
    of the roadmap (MIM enumeration, histogram convolution, product weights)
    is exercised here.

connected
    C = (x1+x2)(x1x3 - x2x4) + (x3+x4)(x2x3 - x1x4).  Its co-occurrence graph
    is connected, so ``additive_split`` returns None and direct enumeration
    does the work; it still has a verified two-pair decomposition, so the
    h window is (2, 2) and ``construct`` runs.  Same commands as ``split``:
    a gain that depends on the split should show no change here, and a gain
    that slows the general path shows as a regression.

quadrature
    The taxicab form through ``sintegral`` (oscillatory, r = 1; tent
    estimator, r = 0) and ``kernel check``.  Gauss-Legendre quadrature, Sobol
    sampling and the kernel transform do nearly all the work; there is no
    zero enumeration and no residue sum, so changes to the grid-evaluation
    layer or to the singular series must leave this workload flat.

Sizes are fixed; only the values below are drawn from the seed, so the cost
of a pass does not depend on the seed.  The sizes are smaller than the first
indicative timings in ROADMAP.md so that one run repeats every command
several times and reports medians.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

ETA = 0.05
EXPSUM_Q = 36                 # composite (4 * 9), so the CRT route has two factors
EXPSUM_G_P = 16
CONSTRUCT_Y = 1000
OSC_BOX = 16
TENT_SAMPLES = 1 << 19
KERNEL = {"eta": 0.05, "P": 100, "grid": 1000}
_ROW_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
ROW_MAX = 2.0

# Per-workload sizes of the enumeration and series commands.
SIZES = {
    "split": {"Q": 24, "P_grid": (50, 100, 200), "count_P": 200,
              "samples": 1 << 16},
    "connected": {"Q": 20, "P_grid": (12, 16, 20), "count_P": 28,
                  "samples": 1 << 16},
}

def _cube(i: int, c: str) -> dict:
    return {"i": i, "j": i, "k": i, "c": c}


TAXICAB = {"n": 4, "monomials": [_cube(1, "1"), _cube(2, "1"), _cube(3, "-1"), _cube(4, "-1")]}
TAXICAB_DECOMP = {"n": 4, "pairs": [
    {"A": ["1", "1", "0", "0"],
     "B": [{"i": 1, "j": 1, "c": "1"}, {"i": 1, "j": 2, "c": "-1"}, {"i": 2, "j": 2, "c": "1"}]},
    {"A": ["0", "0", "-1", "-1"],
     "B": [{"i": 3, "j": 3, "c": "1"}, {"i": 3, "j": 4, "c": "-1"}, {"i": 4, "j": 4, "c": "1"}]},
]}
# (x1+x2)(x1x3 - x2x4) + (x3+x4)(x2x3 - x1x4), expanded.
CONNECTED = {"n": 4, "monomials": [
    {"i": i, "j": j, "k": k, "c": c} for (i, j, k, c) in (
        (1, 1, 3, "1"), (1, 2, 3, "1"), (1, 2, 4, "-1"), (2, 2, 4, "-1"),
        (2, 3, 3, "1"), (1, 3, 4, "-1"), (2, 3, 4, "1"), (1, 4, 4, "-1"))
]}
CONNECTED_DECOMP = {"n": 4, "pairs": [
    {"A": ["1", "1", "0", "0"], "B": [{"i": 1, "j": 3, "c": "1"}, {"i": 2, "j": 4, "c": "-1"}]},
    {"A": ["0", "0", "1", "1"], "B": [{"i": 2, "j": 3, "c": "1"}, {"i": 1, "j": 4, "c": "-1"}]},
]}


@dataclass(frozen=True)
class Inputs:
    """Everything a workload draws from its seed."""

    seed: int
    tau: float
    primes: Tuple[int, ...]
    row: Tuple[float, ...]
    sobol_seed: int
    disc_seed: int
    alpha0: float
    lam: Tuple[float, ...]
    a: int


def make_inputs(seed: int) -> Inputs:
    """Seeded values.  The row is ROW_MAX * sqrt(p / max p) over four distinct
    primes: irrational and linearly independent over Q, with a largest entry
    of exactly ROW_MAX so that the oscillatory quadrature's node count (which
    scales with the largest coefficient) does not depend on the seed."""
    rng = random.Random(seed)
    primes = tuple(rng.sample(_ROW_PRIMES, 4))
    row = tuple(ROW_MAX * math.sqrt(p / max(primes)) for p in primes)
    units = [a for a in range(1, EXPSUM_Q) if math.gcd(a, EXPSUM_Q) == 1]
    return Inputs(
        seed=seed,
        tau=round(rng.uniform(-1.0, 1.0), 6),
        primes=primes,
        row=row,
        sobol_seed=rng.randrange(1, 2**31),
        disc_seed=rng.randrange(1, 2**31),
        alpha0=round(rng.uniform(-1e-3, 1e-3), 9),
        lam=tuple(round(rng.random(), 6) for _ in range(4)),
        a=rng.choice(units),
    )


@dataclass(frozen=True)
class Command:
    """One CLI call: ``kind`` names the subcommand, ``label`` the call."""

    label: str
    kind: str
    argv: Tuple[str, ...]


def _csv(values) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def write_inputs(workload: str, inp: Inputs, directory: str) -> Dict[str, str]:
    """Write the form, linear system, decomposition and config JSON files."""
    os.makedirs(directory, exist_ok=True)
    form, decomp = (CONNECTED, CONNECTED_DECOMP) if workload == "connected" \
        else (TAXICAB, TAXICAB_DECOMP)
    docs = {
        "form": form,
        "decomp": decomp,
        "linsys": {"r": 1, "n": 4, "rows": [list(inp.row)], "assume_irrational": True},
    }
    if workload in SIZES:
        size = SIZES[workload]
        docs["config"] = {
            "form": "form.json", "linsys": "linsys.json", "decomp": "decomp.json",
            "tau": [inp.tau], "eta": ETA, "P_grid": list(size["P_grid"]),
            "seed": inp.sobol_seed, "Q": size["Q"], "samples": size["samples"],
            "strategy": "auto",
        }
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return paths


def commands(workload: str, inp: Inputs, paths: Dict[str, str]) -> List[Command]:
    """The workload's CLI calls; seeded numbers are passed as ``--flag=value``
    so that a negative value is not read as an option."""
    F, L = paths["form"], paths["linsys"]
    if workload == "quadrature":
        return [
            Command("sintegral_osc", "sintegral",
                    ("sintegral", "--form", F, "--linsys", L, "--oscillatory",
                     "--box", str(OSC_BOX))),
            Command("sintegral_tent", "sintegral",
                    ("sintegral", "--form", F, "--samples", str(TENT_SAMPLES),
                     "--seed", str(inp.sobol_seed))),
            Command("kernel", "kernel",
                    ("kernel", "check", "--eta", str(KERNEL["eta"]), "--P", str(KERNEL["P"]),
                     "--grid", str(KERNEL["grid"]))),
        ]
    size = SIZES[workload]
    tau = repr(inp.tau)
    return [
        Command("asymptotic", "asymptotic", ("asymptotic", "--config", paths["config"])),
        Command("sseries", "sseries",
                ("sseries", "--form", F, "--Q", str(size["Q"]), "--pmax", "7", "--depth", "2")),
        Command("count", "count",
                ("count", "--form", F, "--linsys", L, f"--tau={tau}", "--eta", str(ETA),
                 "--P", str(size["count_P"]), "--weighted")),
        Command("equidist", "equidist",
                ("equidist", "--form", F, "--linsys", L, "--Pgrid", _csv(size["P_grid"]),
                 "--kset", "1;2", "--seed", str(inp.disc_seed))),
        Command("expsum_complete", "expsum",
                ("expsum", "complete", "--form", F, "--q", str(EXPSUM_Q), "--a", str(inp.a))),
        Command("expsum_g", "expsum",
                ("expsum", "g", "--form", F, "--P", str(EXPSUM_G_P), f"--alpha0={inp.alpha0!r}",
                 f"--lambda={_csv(inp.lam)}", "--weighted")),
        Command("construct", "construct",
                ("construct", "--form", F, "--decomp", paths["decomp"], "--linsys", L,
                 f"--tau={tau}", "--eta", str(ETA), "--Y", str(CONSTRUCT_Y))),
    ]


def property_problems(workload: str, paths: Dict[str, str]) -> List[str]:
    """Check, rather than assume, the property each workload stands for."""
    from cubiclab import forms_core as fc
    from cubiclab.lattice_enum import additive_split

    C = fc.load_cubic_form(paths["form"])
    problems = []
    split = additive_split(C)
    if workload == "connected" and split is not None:
        problems.append(f"connected form has an additive split {split}")
    if workload != "connected" and split is None:
        problems.append("taxicab form has no additive split")
    if not fc.verify_h_decomposition(C, fc.load_h_decomposition(paths["decomp"])):
        problems.append("decomposition does not reproduce the form")
    return problems
