"""Output checks for every command, the reference outputs recorded at the
benchmark's first commit, and cheap independent oracles for other seeds.

Each command's output is reduced to named fields of three kinds:

exact  integers, rationals, strings and solution vectors; must be identical.
float  deterministic floats without a stated error (weighted counts, series
       terms, discrepancies); a later change may reorder a sum, so they must
       agree to a relative 1e-9.
est    estimates with their own error bar (``abs_error`` / ``error_bar``);
       two values must differ by at most the sum of their error bars.

A field is seed-independent when the seed cannot change it (the form, the
sizes and the moduli are fixed); those are checked against the reference for
every seed, the others only for the seeds in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import product
from typing import Dict, List, Tuple

import numpy as np

from workloads import CONSTRUCT_Y, ETA, EXPSUM_G_P, EXPSUM_Q, Inputs

EXACT, FLOAT, EST = "exact", "float", "est"
# field name -> (kind, seed-independent, value, error bar or None)
Fields = Dict[str, Tuple[str, bool, object, object]]


def normalize(doc, input_dir: str):
    """The output without its run-dependent parts: ``wall_ms`` and the
    directory the input files were written to."""
    if isinstance(doc, dict):
        return {k: normalize(v, input_dir) for k, v in doc.items() if k != "wall_ms"}
    if isinstance(doc, list):
        return [normalize(v, input_dir) for v in doc]
    if isinstance(doc, str):
        return doc.replace(input_dir, "<inputs>")
    return doc


def output_hash(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _cplx(doc, re="re", im="im"):
    return [doc[re], doc[im]]


def fields(label: str, doc: dict) -> Fields:
    if label == "asymptotic":
        out: Fields = {"h_window": (EXACT, True, doc["h_window"], None),
                       "series": (FLOAT, True, doc["singular_series"]["partial_sum"], None),
                       "chi_w": (EST, False, doc["chi_w"]["value"], doc["chi_w"]["error_bar"])}
        for row in doc["counts"]:
            out[f"P{row['P']:g}.points_examined"] = (EXACT, True, row["points_examined"], None)
            out[f"P{row['P']:g}.N_w"] = (FLOAT, False, row["N_w"], None)
        return out
    if label == "sseries":
        return {
            "partial_sum": (FLOAT, True, doc["partial_sum"], None),
            "per_q": (FLOAT, True, [t["term"] for t in doc["per_q"]], None),
            "local": (EXACT, True, doc["local"], None),
            "certificates": (EXACT, True, doc["certificates"], None),
        }
    if label == "count":
        return {"value": (FLOAT, False, doc["value"], None),
                "points_examined": (EXACT, True, doc["points_examined"], None)}
    if label == "equidist":
        rows = doc["rows"]
        return {
            "N": (EXACT, True, [r["N"] for r in rows], None),
            "discrepancy": (FLOAT, False, [r["discrepancy"] for r in rows], None),
            "weyl": (FLOAT, False, [w["normalized_abs"] for r in rows for w in r["weyl"]], None),
        }
    if label in ("expsum_complete", "expsum_g"):
        return {"value": (EST, False, _cplx(doc), doc["abs_error"])}
    if label == "construct":
        return {"x": (EXACT, False, doc.get("x"), None),
                "found": (EXACT, False, doc["found"], None)}
    if label == "sintegral_osc":
        return {"value": (EST, False, _cplx(doc, "value", "im"), doc["error_bar"])}
    if label == "sintegral_tent":
        # r = 0: the quantity does not depend on the seed, only its estimate does
        return {"value": (EST, True, doc["value"], doc["error_bar"])}
    if label == "kernel":
        return {
            "points_checked": (EXACT, True, doc["points_checked"], None),
            "deviation": (FLOAT, True, [doc["max_numeric_dev_plus"],
                                        doc["max_numeric_dev_minus"]], None),
        }
    raise KeyError(label)


def _close(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _distance(a, b) -> float:
    if isinstance(a, list):
        return abs(complex(*a) - complex(*b))
    return abs(a - b)


def compare(got: Fields, ref: Dict[str, list], seed_shipped: bool) -> List[str]:
    """Problems found comparing fields with a recorded reference."""
    problems = []
    for name, (kind, indep, value, err) in got.items():
        if not (indep or seed_shipped):
            continue
        if name not in ref:
            problems.append(f"{name}: no reference value")
            continue
        ref_value, ref_err = ref[name]
        if kind == EXACT:
            ok = value == ref_value
        elif kind == FLOAT:
            ok = _close(value, ref_value)
        else:
            ok = _distance(value, ref_value) <= err + ref_err + 1e-12
        if not ok:
            problems.append(f"{name}: {value!r} disagrees with reference {ref_value!r}")
    return problems


def to_reference(got: Fields) -> Dict[str, list]:
    return {name: [value, err] for name, (_, _, value, err) in got.items()}


# ---------------------------------------------------------------------------
# Oracles: independent checks that hold for every seed


def _oracle_zero_sets(workload: str, C) -> List[str]:
    """MIM against direct enumeration on the split form, direct enumeration
    against a pure-Python scan on the connected one, at a small box."""
    from cubiclab import forms_core as fc
    from cubiclab.lattice_enum import zero_points

    if workload == "split":
        a, _ = zero_points(C, 12, "direct")
        b, _ = zero_points(C, 12, "meet_in_middle")
        return [] if set(map(tuple, a.tolist())) == set(map(tuple, b.tolist())) \
            else ["MIM and direct zero sets differ at P=12"]
    B = 4
    brute = {x for x in product(range(-B, B + 1), repeat=C.n) if fc.eval_cubic(C, x) == 0}
    a, _ = zero_points(C, B, "direct")
    return [] if set(map(tuple, a.tolist())) == brute \
        else [f"direct zero set differs from a pure-Python scan at P={B}"]


def _g_product(C, inp: Inputs) -> complex:
    """g for a diagonal form as a product of one-dimensional weighted sums."""
    P = EXPSUM_G_P
    B = math.ceil(P) - 1
    x = np.arange(-B, B + 1, dtype=float)
    w = np.exp(-1.0 / (1.0 - (x / P) ** 2))
    value = 1 + 0j
    for (i, _, _), c in C.coeffs.items():
        phase = inp.alpha0 * float(c) * x**3 + inp.lam[i - 1] * x
        value *= complex(np.sum(w * np.exp(2j * np.pi * phase)))
    return value


def oracle_problems(workload: str, label: str, doc: dict, inp: Inputs, C) -> List[str]:
    from cubiclab import forms_core as fc
    from cubiclab.exp_sums import complete_sum_crt

    problems = []
    if label == "count":
        if not doc["value"] >= 0:
            problems.append("negative weighted count")
        problems += _oracle_zero_sets(workload, C)
    elif label == "expsum_complete":
        crt = complete_sum_crt(C, EXPSUM_Q, inp.a, [0] * C.n)
        if abs(complex(doc["re"], doc["im"]) - crt.value) > doc["abs_error"] + crt.abs_error:
            problems.append(f"direct complete sum disagrees with CRT product {crt.value}")
    elif label == "expsum_g" and workload == "split":
        ref = _g_product(C, inp)
        if abs(complex(doc["re"], doc["im"]) - ref) > doc["abs_error"]:
            problems.append(f"g disagrees with the product of axis sums {ref}")
    elif label == "construct":
        if not doc["found"]:
            problems.append(f"no solution within Y={CONSTRUCT_Y}")
        else:
            x = doc["x"]
            lx = sum(r * v for r, v in zip(inp.row, x))
            if fc.eval_cubic(C, x) != 0 or not abs(lx - inp.tau) < ETA:
                problems.append(f"construct returned a non-solution {x}")
    elif label == "sseries":
        for cert in doc["certificates"]:
            if cert["found"] and fc.eval_cubic(C, cert["a"]) % cert["p"] ** cert["m"]:
                problems.append(f"p-adic certificate for p={cert['p']} is not a zero")
    elif label == "equidist":
        if not all(0 <= r["discrepancy"] <= 1 for r in doc["rows"]):
            problems.append("discrepancy outside [0, 1]")
    elif label == "sintegral_osc":
        if not abs(doc["im"]) <= doc["error_bar"]:
            problems.append("imaginary part of a real integral exceeds its error bar")
    elif label == "kernel":
        bound = doc["quad_tol"] + doc["tail_bound"]
        if not (doc["sandwich_ok"] and doc["max_numeric_dev_plus"] <= bound
                and doc["max_numeric_dev_minus"] <= bound):
            problems.append("kernel sandwich check failed")
    return problems


def work_count(label: str, doc: dict):
    """(count, what) of the work one call did, read from its output."""
    if label == "asymptotic":
        return sum(r["points_examined"] for r in doc["counts"]), "points examined"
    if label == "sseries":
        return sum(q**4 for q in range(2, doc["Q"] + 1)), "residues"
    if label == "count":
        return doc["points_examined"], "points examined"
    if label == "equidist":
        return sum(r["N"] for r in doc["rows"]), "zeros"
    if label == "expsum_complete":
        return EXPSUM_Q**4, "residues"
    if label == "expsum_g":
        return (2 * (math.ceil(EXPSUM_G_P) - 1) + 1) ** 4, "points"
    if label == "construct":
        return (2 * CONSTRUCT_Y + 1) ** 2, "candidates"
    if label == "sintegral_tent":
        return len(doc["table"]), "schedule steps"
    if label == "kernel":
        return doc["points_checked"], "points checked"
    return 1, "call"
