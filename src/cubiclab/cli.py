"""Command-line entry point: experiment orchestration and structured reports.

Every subcommand is a thin dispatcher over the library modules; all randomness
is seeded through flags or config so reports reproduce bit for bit.  Exit
codes: 0 success, 2 config error (a malformed input file included), 3 budget
exceeded, 4 convergence failure (its report carries the refined values in
``table``); program defects (``SandwichViolation``, ``InconsistentBounds``,
an internal ``KeyError``) propagate.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from ._grid import check_P, check_window, constraint_mask
from .errors import (
    CubicLabError,
    InconsistentBounds,
    NotConverged,
    ResourceLimit,
    SandwichViolation,
)
from . import equidist as eq
from . import exp_sums as es
from . import forms_core as fc
from . import kernels as kn
from . import lattice_enum as le
from . import linear_construction as lc
from . import singular_integral as si
from . import singular_series as ss

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_CONVERGENCE = 4


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, default=_jsonable))


def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if hasattr(obj, "__dict__") or hasattr(obj, "__dataclass_fields__"):
        try:
            return asdict(obj)
        except TypeError:
            return str(obj)
    return str(obj)


def _floats(text: str) -> List[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _ints(text: str) -> List[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _load_linsys(path: Optional[str], n: int) -> fc.LinearSystem:
    if path is None:
        return fc.LinearSystem.empty(n)
    return fc.load_linear_system(path)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_count(args) -> int:
    C = fc.load_cubic_form(args.form)
    Lsys = _load_linsys(args.linsys, C.n)
    tau = tuple(_floats(args.tau)) if args.tau else ()
    t0 = time.perf_counter()
    query = le.CountQuery(C=C, Lsys=Lsys, tau=tau, eta=args.eta,
                          P=args.P, weighted=args.weighted,
                          keep_solutions=10**9 if args.dump_solutions else 0)
    result = le.count(query)
    wall_ms = 1000 * (time.perf_counter() - t0)
    if args.dump_solutions:
        with open(args.dump_solutions, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i}" for i in range(1, C.n + 1)])
            for sol in result.solutions or ():
                writer.writerow(sol)
    _emit({"value": result.value, "points_examined": result.points_examined,
           "wall_ms": wall_ms})
    return EXIT_OK


def cmd_expsum(args) -> int:
    C = fc.load_cubic_form(args.form)
    if args.which == "complete":
        avec = _ints(args.avec) if args.avec else [0] * C.n
        val = es.complete_sum(C, args.q, args.a, avec)
    else:
        lam = _floats(args.lam) if args.lam else [0.0] * C.n
        val = es.sum_g(C, args.P, args.alpha0, lam, weighted=args.weighted)
    _emit({"re": val.re, "im": val.im, "abs_error": val.abs_error})
    return EXIT_OK


def cmd_sseries(args) -> int:
    C = fc.load_cubic_form(args.form)
    ss.check_depth(args.depth)
    report = ss.positivity_report(C, pmax=args.pmax, m_max=args.mmax, Q=args.Q,
                                  h_lower=args.h_lower, psi=args.psi)
    locals_table = []
    for p in sorted(report.certificates):
        try:
            d = ss.local_density(C, p, args.depth)
            locals_table.append({"p": p, "k": args.depth, "sigma": str(d.sigma),
                                 "solutions": d.solutions})
        except ResourceLimit:
            locals_table.append({"p": p, "k": args.depth, "sigma": None,
                                 "solutions": None})
    certs = [{"p": p, "found": False} if cert is None else {**asdict(cert), "found": True}
             for p, cert in sorted(report.certificates.items())]
    _emit({
        "partial_sum": report.partial_sum,
        "Q": report.Q,
        "per_q": [{"q": q, "term": t} for q, t in report.per_q],
        "local": locals_table,
        "certificates": certs,
        "tail_heuristic": report.tail_heuristic,
        "tail_exponent": report.tail_exponent,
        "note": report.note,
    })
    return EXIT_OK


def cmd_sintegral(args) -> int:
    C = fc.load_cubic_form(args.form)
    Lsys = _load_linsys(args.linsys, C.n)
    if args.oscillatory:
        val = si.chi_w_oscillatory(C, Lsys, box=(args.box, args.box), tol=args.tol)
        _emit({"value": val.re, "im": val.im, "error_bar": val.abs_error})
        return EXIT_OK
    schedule = _floats(args.schedule)
    est = si.chi_w_estimate(C, Lsys, schedule, samples=args.samples, seed=args.seed)
    _emit({
        "value": est.value,
        "error_bar": est.error_bar,
        "table": [{"L": row.L, "IL": row.value, "stderr": row.std_error}
                  for row in est.table],
    })
    return EXIT_OK


def cmd_kernel(args) -> int:
    kp = kn.KernelParams.from_P(args.eta, args.P, "plus")
    kn.check_grid(args.eta, kp.rho, args.grid)
    grid = np.linspace(-2 * args.eta, 2 * args.eta, args.grid)
    report = kn.sandwich_check(args.eta, kp.rho, grid, args.tol)
    _emit({**asdict(report), "T_policy": "log", "sandwich_ok": True})
    return EXIT_OK


def cmd_weyl(args) -> int:
    C = fc.load_cubic_form(args.form)
    Lsys = _load_linsys(args.linsys, C.n)
    stat = eq.weyl_sum(C, Lsys, _ints(args.k), args.P)
    _emit({
        "k": list(stat.k), "P": stat.P, "N": stat.N,
        "sum": {"re": stat.sum.real, "im": stat.sum.imag},
        "normalized_abs": abs(stat.normalized),
    })
    return EXIT_OK


def cmd_equidist(args) -> int:
    C = fc.load_cubic_form(args.form)
    Lsys = _load_linsys(args.linsys, C.n)
    k_set = [_ints(part) for part in args.kset.split(";") if part.strip()]
    rows = eq.equidist_experiment(C, Lsys, _floats(args.Pgrid), k_set,
                                  boxes=args.boxes, seed=args.seed)
    if args.out:
        eq.write_equidist_csv(rows, args.out)
    _emit({"rows": [{
        "P": row.P, "N": row.N, "discrepancy": row.discrepancy,
        "weyl": [{"k": list(k), "normalized_abs": m} for k, m in row.weyl],
    } for row in rows]})
    return EXIT_OK


def cmd_construct(args) -> int:
    C = fc.load_cubic_form(args.form)
    decomp = fc.load_h_decomposition(args.decomp)
    Lsys = fc.load_linear_system(args.linsys)
    tau = _floats(args.tau)
    x = lc.solve_system(C, decomp, Lsys, tau, args.eta, args.Y)
    if x is None:
        _emit({"found": False, "message": f"not found within bound Y={args.Y}"})
        return EXIT_OK
    transcript = {
        "cubic_value": str(fc.eval_cubic(C, x)),
        "linear_values": fc.eval_linear(Lsys, x),
        "tau": tau,
        "eta": args.eta,
        "constraints_ok": bool(constraint_mask(Lsys, np.array([x]), tau, args.eta)[0]),
    }
    _emit({"found": True, "x": list(x), "verification": transcript})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Config-driven experiment


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_numbers(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


def _is_path(v) -> bool:
    return v is None or isinstance(v, str)


# what each known config key must hold; other keys are ignored
_CONFIG_TYPES = {
    "form": ("a file name", lambda v: isinstance(v, str)),
    "linsys": ("a file name", _is_path),
    "decomp": ("a file name", _is_path),
    "tau": ("a list of numbers", _is_numbers),
    "eta": ("a number", _is_number),
    "P": ("a number", _is_number),
    "P_grid": ("a list of numbers", _is_numbers),
    "seed": ("an integer", _is_int),
    "Q": ("an integer", _is_int),
    "schedule": ("a list of numbers", _is_numbers),
    "samples": ("an integer", _is_int),
    "h_search_height": ("an integer", _is_int),
}


def _mistyped(doc: dict) -> List[str]:
    return [key for key, (_, ok) in _CONFIG_TYPES.items() if key in doc and not ok(doc[key])]


def _config_type_issues(doc) -> List[str]:
    """One diagnostic per known config key whose value has the wrong type."""
    if not isinstance(doc, dict):
        return ["config: must be a JSON object"]
    return [f"config.{key}: must be {_CONFIG_TYPES[key][0]}, got {json.dumps(doc[key])}"
            for key in _mistyped(doc)]


@dataclass(frozen=True)
class ExperimentConfig:
    form_path: str
    linsys_path: Optional[str]
    decomp_path: Optional[str]
    tau: Tuple[float, ...]
    eta: float
    P_grid: Tuple[float, ...]
    seed: int
    Q: int
    schedule: Tuple[float, ...]
    samples: int
    h_search_height: int


@dataclass(frozen=True)
class Experiment:
    """What ``asymptotic`` runs on: the config its report echoes, and the
    form, linear system (empty without a ``linsys``) and witness it names."""
    cfg: ExperimentConfig
    C: fc.CubicForm
    Lsys: fc.LinearSystem
    witness: Optional[fc.HDecomposition]


def read_config(path: str) -> Tuple[List[str], Optional[Experiment]]:
    """Open a config file once: its diagnostics and, when there are none, the
    experiment it describes.  Each value, defaults applied, goes through its
    stage's own checks.  A ``linsys`` or ``decomp`` of null or "" is absent
    (r = 0 without a ``linsys``), and an empty ``form`` is missing."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: cannot parse: {exc}"], None
    issues = _config_type_issues(doc)
    if not isinstance(doc, dict):
        return issues, None
    base = os.path.dirname(os.path.abspath(path))
    if doc.get("form", "") == "":
        issues.append("config: missing required key 'form'")
    if not doc.get("P_grid") and "P" not in doc:
        issues.append("config: need P or P_grid")
    # a mistyped key, or a float key holding an integer past the float range,
    # gets its one diagnostic, and the value checks below read its default
    # (they name a NaN or an infinity)
    bad = _mistyped(doc)
    for key in ("tau", "eta", "P", "P_grid", "schedule"):
        values = doc[key] if isinstance(doc.get(key), list) else [doc.get(key, 0)]
        if key not in bad and any(_is_int(v) and abs(v) > sys.float_info.max for v in values):
            issues.append(f"config.{key}: {key} must be finite, got {json.dumps(doc[key])}")
            bad.append(key)
    doc = {key: v for key, v in doc.items() if key not in bad}
    paths = {key: os.path.join(base, doc[key]) if doc.get(key) else None
             for key in ("form", "linsys", "decomp")}
    cfg = ExperimentConfig(
        form_path=paths["form"],
        linsys_path=paths["linsys"],
        decomp_path=paths["decomp"],
        tau=tuple(float(t) for t in doc.get("tau", [])),
        eta=float(doc.get("eta", 1.0)),
        P_grid=tuple(float(p) for p in doc.get("P_grid") or [doc.get("P", 1)]),
        seed=int(doc.get("seed", 7)),
        Q=int(doc.get("Q", 20)),
        schedule=tuple(float(v) for v in doc.get("schedule", [4, 8, 16, 32])),
        samples=int(doc.get("samples", 1 << 16)),
        h_search_height=int(doc.get("h_search_height", 2)),
    )
    for check, *values in ((check_window, cfg.eta, cfg.tau), *((check_P, P) for P in cfg.P_grid),
                           (si.check_schedule, cfg.schedule, cfg.samples, cfg.seed),
                           (ss.check_Q, cfg.Q), (fc.check_height, cfg.h_search_height)):
        try:
            check(*values)
        except ValueError as exc:
            issues.append(f"config: {exc}")

    def load(key, loader):
        """The file ``key`` names; None when it is absent or refused."""
        if paths[key] is None:
            return None
        try:
            return loader(paths[key])
        except FileNotFoundError:
            issues.append(f"{key}: file not found: {paths[key]}")
        except (OSError, ValueError) as exc:
            issues.append(f"{key}: {exc}")
        return None

    C = load("form", lambda path: fc.check_nonzero(fc.load_cubic_form(path)))
    Lsys = load("linsys", fc.load_linear_system)
    if paths["linsys"] is None or Lsys is not None:   # a refused linsys has its diagnostic
        r, tau = 0 if Lsys is None else Lsys.r, doc.get("tau", [])
        if "tau" not in bad and len(tau) != r:
            issues.append(f"config.tau: length {len(tau)} != r {r}")
        if C is not None and Lsys is not None and Lsys.n != C.n:
            issues.append(f"linsys: n {Lsys.n} != form n {C.n}")
    witness = load("decomp", fc.load_h_decomposition)
    if C is not None and witness is not None and not fc.verify_h_decomposition(C, witness):
        issues.append("decomp: does not reproduce the form")
    if issues:
        return issues, None
    return [], Experiment(cfg, C, fc.LinearSystem.for_form(C, Lsys), witness)


def run_asymptotic_experiment(exp: Experiment) -> dict:
    """Compare N_w(P) against (2 eta)^r * S * chi_w * P^(n-r-3) along a P grid,
    flagging whether the theorem hypotheses hold for the certified h window."""
    cfg, C, Lsys = exp.cfg, exp.C, exp.Lsys
    r = Lsys.r
    h_lo, h_hi = fc.h_bounds(C, exp.witness, cfg.h_search_height)
    series, per_q = ss.singular_series_truncated(C, cfg.Q)
    chi_table = []
    converged = True
    try:
        chi = si.chi_w_estimate(C, Lsys, cfg.schedule, cfg.samples, cfg.seed)
        chi_value, chi_err = chi.value, chi.error_bar
        chi_table = [(row.L, row.value, row.std_error) for row in chi.table]
    except NotConverged as exc:
        converged = False
        chi_table = [(row.L, row.value, row.std_error) for row in (exc.table or ())]
        chi_value = chi_table[-1][1] if chi_table else float("nan")
        chi_err = float("inf")
    rows = []
    q = le.CountQuery(C=C, Lsys=Lsys, tau=cfg.tau, eta=cfg.eta, weighted=True)
    for P, res in zip(cfg.P_grid, le.count_grid(q, cfg.P_grid)):
        predicted = (2 * cfg.eta) ** r * series * chi_value * P ** (C.n - r - 3)
        rows.append({
            "P": P, "N_w": res.value, "predicted": predicted,
            "ratio": res.value / predicted if predicted else float("nan"),
            "points_examined": res.points_examined,
        })
    report = {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(cfg).items()},
        "version": __version__,
        "h_window": [h_lo, h_hi],
        "hypotheses": {
            "weighted_asymptotic_h_gt_16_plus_8r": h_lo > 16 + 8 * r,
            "solvability_n_gt_16_plus_9r": C.n > 16 + 9 * r,
            "equidistribution_h_gt_16": h_lo > 16,
            "note": "flags use the certified h lower bound; tool runs outside these regimes by design",
        },
        "singular_series": {"Q": cfg.Q, "partial_sum": series},
        "chi_w": {"value": chi_value, "error_bar": chi_err,
                  "converged": converged,
                  "table": [{"L": L, "IL": v, "stderr": s} for L, v, s in chi_table]},
        "counts": rows,
    }
    return report


def cmd_asymptotic(args) -> int:
    issues, exp = read_config(args.config)
    if issues:
        _emit({"diagnostics": issues})
        return EXIT_CONFIG
    report = run_asymptotic_experiment(exp)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=_jsonable)
    _emit(report)
    return EXIT_OK


def cmd_validate(args) -> int:
    issues, _ = read_config(args.config)
    _emit({"diagnostics": issues, "clean": not issues})
    return EXIT_OK if not issues else EXIT_CONFIG


# ---------------------------------------------------------------------------
# Parser


def _count_args(p) -> None:
    p.add_argument("--form", required=True)
    p.add_argument("--linsys")
    p.add_argument("--tau", default="")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--dump-solutions", dest="dump_solutions")
    p.set_defaults(func=cmd_count)


def _expsum_args(p) -> None:
    which = p.add_subparsers(dest="which", required=True)
    pc = which.add_parser("complete")
    pc.add_argument("--form", required=True)
    pc.add_argument("--q", type=int, required=True)
    pc.add_argument("--a", type=int, required=True)
    pc.add_argument("--avec", default="")
    pc.set_defaults(func=cmd_expsum)
    pg = which.add_parser("g")
    pg.add_argument("--form", required=True)
    pg.add_argument("--P", type=float, required=True)
    pg.add_argument("--alpha0", type=float, default=0.0)
    pg.add_argument("--lambda", dest="lam", default="")
    pg.add_argument("--weighted", action="store_true")
    pg.set_defaults(func=cmd_expsum)


def _sseries_args(p) -> None:
    p.add_argument("--form", required=True)
    p.add_argument("--Q", type=int, default=20)
    p.add_argument("--pmax", type=int, default=7)
    p.add_argument("--mmax", type=int, default=4)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--h-lower", dest="h_lower", type=int, default=1)
    p.add_argument("--psi", type=float, default=0.25)
    p.set_defaults(func=cmd_sseries)


def _sintegral_args(p) -> None:
    p.add_argument("--form", required=True)
    p.add_argument("--linsys")
    p.add_argument("--schedule", default="4,8,16,32")
    p.add_argument("--samples", type=int, default=1 << 17)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--oscillatory", action="store_true")
    p.add_argument("--box", type=float, default=12.0)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=cmd_sintegral)


def _kernel_args(p) -> None:
    p.add_argument("verb", choices=["check"])
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_kernel)


def _weyl_args(p) -> None:
    p.add_argument("--form", required=True)
    p.add_argument("--linsys", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--P", type=float, required=True)
    p.set_defaults(func=cmd_weyl)


def _equidist_args(p) -> None:
    p.add_argument("--form", required=True)
    p.add_argument("--linsys", required=True)
    p.add_argument("--Pgrid", required=True)
    p.add_argument("--kset", required=True)
    p.add_argument("--boxes", type=int, default=500)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out")
    p.set_defaults(func=cmd_equidist)


def _construct_args(p) -> None:
    p.add_argument("--form", required=True)
    p.add_argument("--decomp", required=True)
    p.add_argument("--linsys", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--Y", type=int, default=500)
    p.set_defaults(func=cmd_construct)


def _asymptotic_args(p) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_asymptotic)


def _validate_args(p) -> None:
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate)


# name: (help, add-arguments function) of every subcommand, in help order
_SUBCOMMANDS = {
    "count": ("count constrained integer zeros", _count_args),
    "expsum": ("complete and box exponential sums", _expsum_args),
    "sseries": ("truncated singular series and local data", _sseries_args),
    "sintegral": ("weighted singular integral estimators", _sintegral_args),
    "kernel": ("smoothing kernel checks", _kernel_args),
    "weyl": ("normalized Weyl sum over the zero set", _weyl_args),
    "equidist": ("equidistribution experiment table", _equidist_args),
    "construct": ("solve the system through a decomposition kernel", _construct_args),
    "asymptotic": ("end-to-end comparison experiment", _asymptotic_args),
    "validate": ("config diagnostics", _validate_args),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.

    A one-subcommand parser parses that subcommand's lines as the full one
    does, and its usage names every subcommand as the full one's does."""
    parser = argparse.ArgumentParser(
        prog="cubiclab",
        description="numerical laboratory for integer zeros of cubic forms under "
                    "real linear inequality constraints",
    )
    parser.add_argument("--version", action="version", version=f"cubiclab {__version__}")
    # the full parser derives the same metavar from its choices, and names
    # the argument "command" when it is missing
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, add_arguments) in _SUBCOMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=text))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the subcommand that runs gets a parser; help, errors and an
    # unknown command get them all
    known = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(known).parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimit as exc:
        _emit({"error": "budget exceeded", "detail": str(exc)})
        return EXIT_BUDGET
    except NotConverged as exc:
        _emit({"error": "convergence failure", "detail": str(exc), "table": exc.table})
        return EXIT_CONVERGENCE
    except (SandwichViolation, InconsistentBounds):
        raise
    except (CubicLabError, ValueError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": "config error", "detail": str(exc)})
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
