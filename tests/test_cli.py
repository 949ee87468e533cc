import argparse
import ast
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import cubiclab as cl
from cubiclab import cli, forms_core, kernels
from cubiclab.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_OK, main
from cubiclab.errors import InconsistentBounds, SandwichViolation
from cubiclab.lattice_enum import zero_points


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_count_matches_library(capsys, fixture_dir, taxicab, irr_linsys):
    code, doc = run_cli(capsys, "count",
                        "--form", str(fixture_dir / "taxicab.json"),
                        "--linsys", str(fixture_dir / "linsys.json"),
                        "--tau", "0.3", "--eta", "0.05", "--P", "12",
                        "--weighted")
    assert code == EXIT_OK
    expect = cl.count(cl.CountQuery(C=taxicab, Lsys=irr_linsys, tau=(0.3,),
                                    eta=0.05, P=12, weighted=True))
    assert doc["value"] == expect.value
    assert doc["points_examined"] == expect.points_examined
    assert "wall_ms" in doc


def test_count_dump_solutions(capsys, fixture_dir, tmp_path):
    out_csv = tmp_path / "sols.csv"
    code, _ = run_cli(capsys, "count", "--form", str(fixture_dir / "taxicab.json"),
                      "--P", "4", "--dump-solutions", str(out_csv))
    assert code == EXIT_OK
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,x3,x4"
    assert len(lines) > 1


def test_expsum_complete_and_crt(capsys, fixture_dir, taxicab):
    code, doc = run_cli(capsys, "expsum", "complete",
                        "--form", str(fixture_dir / "taxicab.json"),
                        "--q", "9", "--a", "2", "--avec", "1,0,0,0")
    assert code == EXIT_OK
    direct = cl.complete_sum(taxicab, 9, 2, [1, 0, 0, 0])
    assert doc["re"] == pytest.approx(direct.value.real)
    via_crt = cl.complete_sum_crt(taxicab, 9, 2, [1, 0, 0, 0])
    assert via_crt.value.real == pytest.approx(doc["re"], abs=1e-8)


def test_expsum_g(capsys, fixture_dir, taxicab):
    code, doc = run_cli(capsys, "expsum", "g",
                        "--form", str(fixture_dir / "taxicab.json"),
                        "--P", "5", "--alpha0", "0.25", "--lambda", "0,0.3,0,0",
                        "--weighted")
    assert code == EXIT_OK
    lib = cl.sum_g(taxicab, 5, 0.25, [0, 0.3, 0, 0], weighted=True)
    assert doc["re"] == pytest.approx(lib.value.real)
    assert doc["im"] == pytest.approx(lib.value.imag)


def test_expsum_budget_exit(capsys, fixture_dir):
    # the four vectors of length q = 10^8 - 1 pass the budget (n q) before
    # any is made, although each block's walk mod 9, 11, 73, 101, 137 fits
    code, doc = run_cli(capsys, "expsum", "complete",
                        "--form", str(fixture_dir / "taxicab.json"),
                        "--q", "99999999", "--a", "1")
    assert code == EXIT_BUDGET
    assert doc["error"] == "budget exceeded"


def test_kernel_check(capsys):
    code, doc = run_cli(capsys, "kernel", "check", "--eta", "0.05", "--P", "100",
                        "--grid", "50", "--tol", "1e-4")
    assert code == EXIT_OK
    assert doc["sandwich_ok"] is True
    assert doc["max_numeric_dev_plus"] <= 1e-4 + doc["tail_bound"]


def test_sintegral_convergence_exit(capsys, tmp_path):
    # n = 2 with one linear form: the tent limit diverges, exit code 4
    form = {"n": 2, "monomials": [{"i": 1, "j": 1, "k": 1, "c": "1"}]}
    linsys = {"r": 1, "n": 2, "rows": [[0.0, math.sqrt(2)]], "assume_irrational": True}
    (tmp_path / "f.json").write_text(json.dumps(form))
    (tmp_path / "l.json").write_text(json.dumps(linsys))
    code, doc = run_cli(capsys, "sintegral", "--form", str(tmp_path / "f.json"),
                        "--linsys", str(tmp_path / "l.json"),
                        "--schedule", "4,8,16,32", "--samples", "16384", "--seed", "7")
    assert code == EXIT_CONVERGENCE
    assert doc["error"] == "convergence failure"
    # the report carries the tent row of every L it refined
    assert [row["L"] for row in doc["table"]] == [4.0, 8.0, 16.0, 32.0]


def test_sintegral_oscillatory_wrong_n_is_config_error(capsys, fixture_dir, tmp_path):
    linsys = {"r": 1, "n": 3, "rows": [[1.0, math.sqrt(2), math.sqrt(3)]]}
    (tmp_path / "l3.json").write_text(json.dumps(linsys))
    code, doc = run_cli(capsys, "sintegral", "--form", str(fixture_dir / "taxicab.json"),
                        "--linsys", str(tmp_path / "l3.json"), "--oscillatory", "--box", "2")
    assert code == EXIT_CONFIG
    assert "linear system has n = 3, form has n = 4" in doc["detail"]


def test_sintegral_oscillatory_refuses_a_non_diagonal_form(capsys, monkeypatch, tmp_path):
    # 2 x1^2 x2 - x1 x2^2 + x2^3: at n - r <= 3 its chi_w is +inf, and it has
    # no separable quadrature, so it is refused before any integral
    def no_integral(*args, **kwargs):
        raise AssertionError("integrated")
    monkeypatch.setattr(cli.si, "osc_integral_I", no_integral)
    monkeypatch.setattr(cli.si, "_osc_separable_value", no_integral)
    form = {"n": 2, "monomials": [{"i": 1, "j": 1, "k": 2, "c": "2"},
                                  {"i": 1, "j": 2, "k": 2, "c": "-1"},
                                  {"i": 2, "j": 2, "k": 2, "c": "1"}]}
    (tmp_path / "f.json").write_text(json.dumps(form))
    code, doc = run_cli(capsys, "sintegral", "--form", str(tmp_path / "f.json"),
                        "--oscillatory", "--box", "2")
    assert code == EXIT_CONFIG
    assert "needs a diagonal form" in doc["detail"]


def test_bool_row_entry_is_config_error(capsys, fixture_dir, tmp_path):
    (tmp_path / "lb.json").write_text('{"r": 1, "n": 4, "rows": [[true, 0, 0, 0.5]]}')
    code, doc = run_cli(capsys, "count", "--form", str(fixture_dir / "taxicab.json"),
                        "--linsys", str(tmp_path / "lb.json"), "--tau", "0", "--P", "3")
    assert code == EXIT_CONFIG
    assert "bad linear coefficient True" in doc["detail"]


def test_sintegral_matches_library(capsys, fixture_dir, taxicab):
    code, doc = run_cli(capsys, "sintegral", "--form", str(fixture_dir / "taxicab.json"),
                        "--schedule", "8,16,32", "--samples", "16384", "--seed", "7")
    assert code == EXIT_OK
    est = cl.chi_w_estimate(taxicab, None, [8, 16, 32], 16384, 7)
    assert doc["value"] == est.value
    assert [row["IL"] for row in doc["table"]] == [r.value for r in est.table]


def test_weyl_and_equidist(capsys, fixture_dir, tmp_path):
    code, doc = run_cli(capsys, "weyl", "--form", str(fixture_dir / "taxicab.json"),
                        "--linsys", str(fixture_dir / "linsys.json"),
                        "--k", "1", "--P", "8")
    assert code == EXIT_OK
    assert doc["normalized_abs"] <= 1.0
    out = tmp_path / "t.csv"
    code, doc = run_cli(capsys, "equidist", "--form", str(fixture_dir / "taxicab.json"),
                        "--linsys", str(fixture_dir / "linsys.json"),
                        "--Pgrid", "6,10", "--kset", "1;2", "--boxes", "100",
                        "--seed", "11", "--out", str(out))
    assert code == EXIT_OK
    assert len(doc["rows"]) == 2
    assert out.exists()


@pytest.mark.parametrize("boxes", ["0", "-3"])
def test_equidist_refuses_fewer_than_one_box(capsys, fixture_dir, boxes):
    # no box tested printed a discrepancy of 0.0, and a negative count a
    # numpy message about array dimensions
    code, doc = run_cli(capsys, "equidist", "--form", str(fixture_dir / "taxicab.json"),
                        "--linsys", str(fixture_dir / "linsys.json"), "--Pgrid", "6",
                        "--kset", "1", f"--boxes={boxes}")
    assert code == EXIT_CONFIG and doc["detail"] == f"boxes must be at least 1, got {boxes}"


def test_equidist_refuses_too_many_boxes_before_drawing(capsys, fixture_dir):
    # 10^9 boxes would draw 16 GB of corners: the budget refuses them first
    tracemalloc.start()
    try:
        code, doc = run_cli(capsys, "equidist", "--form", str(fixture_dir / "taxicab.json"),
                            "--linsys", str(fixture_dir / "linsys.json"), "--Pgrid", "6",
                            "--kset", "1", "--boxes", "1000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BUDGET
    assert doc["detail"] == ("discrepancy over 1000000000 boxes in dimension 1 = 1000000000 "
                             "points exceeds budget 200000000")
    assert peak < 2**22


def test_construct(capsys, fixture_dir):
    code, doc = run_cli(capsys, "construct", "--form", str(fixture_dir / "taxicab.json"),
                        "--decomp", str(fixture_dir / "decomp.json"),
                        "--linsys", str(fixture_dir / "linsys.json"),
                        "--tau", "0.3", "--eta", "0.05", "--Y", "500")
    assert code == EXIT_OK
    assert doc["found"] is True
    assert doc["verification"]["cubic_value"] == "0"
    assert doc["verification"]["constraints_ok"] is True


@pytest.fixture()
def plane_files(tmp_path):
    """x1(x2^2 + x3^2), its decomposition and a "p/q" row, as JSON files."""
    form = {"n": 3, "monomials": [{"i": 1, "j": 2, "k": 2, "c": "1"},
                                  {"i": 1, "j": 3, "k": 3, "c": "1"}]}
    decomp = {"n": 3, "pairs": [{"A": ["1", "0", "0"],
                                 "B": [{"i": 2, "j": 2, "c": "1"}, {"i": 3, "j": 3, "c": "1"}]}]}
    linsys = {"r": 1, "n": 3, "rows": [["-5/3", "1/5", "-2/3"]], "assume_irrational": False}
    for name, doc in [("form", form), ("decomp", decomp), ("linsys", linsys)]:
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(tmp_path / f"{name}.json") for name in ("form", "decomp", "linsys")}


def _exact_within(x, tau, eta):
    row = (Fraction(-5, 3), Fraction(1, 5), Fraction(-2, 3))
    return abs(sum(c * v for c, v in zip(row, x)) - Fraction(tau)) < Fraction(eta)


def test_count_rational_rows(capsys, plane_files, plane_form):
    # (0, -1, -1) has L = 7/15, so this tau puts it on the boundary
    tau = float(Fraction(7, 15) + Fraction(1, 2))
    code, doc = run_cli(capsys, "count", "--form", plane_files["form"],
                        "--linsys", plane_files["linsys"], f"--tau={tau!r}",
                        "--eta", "0.5", "--P", "6")
    assert code == EXIT_OK
    zeros = zero_points(plane_form, 6)[0].tolist()
    assert doc["value"] == sum(_exact_within(x, tau, 0.5) for x in zeros)


def test_construct_rational_rows(capsys, plane_files):
    # the exact first hit in kernel order is the boundary point (0, -1, -1)
    tau = float(Fraction(7, 15) + 1)
    code, doc = run_cli(capsys, "construct", "--form", plane_files["form"],
                        "--decomp", plane_files["decomp"], "--linsys", plane_files["linsys"],
                        f"--tau={tau!r}", "--eta", "1.0", "--Y", "4")
    assert code == EXIT_OK
    assert doc["x"] == [0, -1, -1] and _exact_within(doc["x"], tau, 1.0)
    assert doc["verification"]["constraints_ok"] is True


def test_sandwich_violation_is_not_a_config_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise SandwichViolation("kernel transform left the indicator")
    monkeypatch.setattr(kernels, "sandwich_check", broken)
    with pytest.raises(SandwichViolation):
        main(["kernel", "check", "--eta", "0.05", "--P", "100", "--grid", "10"])


def test_infinite_eta_is_a_config_error(capsys):
    code, doc = run_cli(capsys, "kernel", "check", "--eta", "inf", "--P", "100")
    assert code == EXIT_CONFIG and doc["detail"] == "eta must be finite, got inf"


@pytest.mark.parametrize("eta, code", [("1e-310", EXIT_CONFIG), ("3e-306", EXIT_CONFIG),
                                       ("1e-305", EXIT_OK)])
def test_kernel_check_refuses_an_eta_whose_cut_is_not_finite(capsys, eta, code):
    # rho <= eta, and the transform cut 400/rho overflowed to inf past
    # eta ~ 3e-306, which ended in OverflowError; 1e-305 still runs
    got, doc = run_cli(capsys, "kernel", "check", "--eta", eta, "--P", "100", "--grid", "10")
    assert got == code
    if code == EXIT_CONFIG:
        assert doc["detail"].startswith(f"eta {float(eta)!r} is too small")
    else:
        assert doc["sandwich_ok"] is True and doc["eta"] == float(eta)


@pytest.mark.parametrize("flag, value, detail", [
    ("--eta", "nan", "eta must be positive, got nan"),
    ("--eta", "-0.05", "eta must be positive, got -0.05"),
    ("--P", "nan", "P must be finite, got nan"),
    ("--P", "inf", "P must be finite, got inf"),
    ("--tol", "-1", "tol must be non-negative, got -1.0"),
    ("--tol", "nan", "tol must be non-negative, got nan"),
    ("--tol", "inf", "tol must be finite, got inf"),
], ids=["eta-nan", "eta-negative", "P-nan", "P-inf", "tol-negative", "tol-nan", "tol-inf"])
def test_kernel_check_refuses_flags_outside_their_domain(capsys, flag, value, detail):
    # the library refuses these: a NaN P gave T = 1, and a negative tol
    # would raise SandwichViolation, the signal of a program defect
    argv = {"--eta": "0.05", "--P": "100", "--tol": "1e-4", flag: value}
    code, doc = run_cli(capsys, "kernel", "check", "--grid", "10",
                        *(part for item in argv.items() for part in item))
    assert code == EXIT_CONFIG and doc["detail"] == detail


@pytest.mark.parametrize("L", ["nan", "inf"])
def test_tent_schedule_refuses_a_non_finite_L(capsys, monkeypatch, fixture_dir, L):
    # NaN passes the schedule's order check, and every value and error bar
    # built on it would print NaN; sintegral refuses it before a point is
    # drawn, and the config reader before the run
    def no_draw(*args):
        raise AssertionError("points drawn")
    monkeypatch.setattr(cli.si, "_sobol_blocks", no_draw)
    code, doc = run_cli(capsys, "sintegral", "--form", str(fixture_dir / "taxicab.json"),
                        "--schedule", f"2,4,{L}")
    assert code == EXIT_CONFIG and doc["detail"] == f"L must be positive and finite, got {L}"
    path = _with_config(fixture_dir, schedule=[2, 4, float(L)])
    code, doc = run_cli(capsys, "asymptotic", "--config", path)
    assert code == EXIT_CONFIG
    assert doc["diagnostics"] == [f"config: L must be positive and finite, got {L}"]


@pytest.mark.parametrize("flag, value, detail", [
    ("--tol", "nan", "tol must be non-negative, got nan"),
    ("--tol", "-1", "tol must be non-negative, got -1.0"),
    ("--tol", "inf", "tol must be finite, got inf"),
    ("--box", "inf", "box[0] must be positive and finite, got inf"),
    ("--box", "nan", "box[0] must be positive and finite, got nan"),
    ("--box", "-3", "box[0] must be positive and finite, got -3.0"),
    ("--box", "0", "box[0] must be positive and finite, got 0.0"),
], ids=["tol-nan", "tol-negative", "tol-inf", "box-inf", "box-nan", "box-negative", "box-zero"])
def test_oscillatory_refuses_tol_and_box_outside_their_domain(capsys, fixture_dir, flag,
                                                              value, detail):
    # a NaN or negative tol refined through every grid, an infinite box
    # overflowed, and a negative or zero one failed in a least-squares fit
    code, doc = run_cli(capsys, "sintegral", "--form", str(fixture_dir / "taxicab.json"),
                        "--linsys", str(fixture_dir / "linsys.json"), "--oscillatory",
                        f"{flag}={value}")
    assert code == EXIT_CONFIG and doc["detail"] == detail


@pytest.mark.parametrize("flag, value, detail", [
    ("--psi", "nan", "psi must be finite, got nan"),
    ("--psi", "inf", "psi must be finite, got inf"),
    ("--h-lower", "-5", "h_lower must be at least 1, got -5"),
    ("--h-lower", "0", "h_lower must be at least 1, got 0"),
    ("--Q", "0", "Q must be at least 1, got 0"),
    ("--Q", "-2", "Q must be at least 1, got -2"),
    ("--mmax", "0", "m_max must be at least 1, got 0"),
    ("--mmax", "-1", "m_max must be at least 1, got -1"),
    ("--depth", "0", "k must be at least 1, got 0"),
], ids=["psi-nan", "psi-inf", "h-lower-negative", "h-lower-zero", "Q-zero", "Q-negative",
        "mmax-zero", "mmax-negative", "depth-zero"])
def test_sseries_refuses_psi_and_h_lower_outside_their_domain(capsys, monkeypatch, fixture_dir,
                                                              flag, value, detail):
    # each is refused before the p-adic certificate search runs: an mmax
    # below 1 searched no level and reported every prime as not found, and
    # a depth of 0 was refused only after the search and the series
    searched = []
    monkeypatch.setattr(cli.ss, "find_nonsingular_padic_zero",
                        lambda *args: searched.append(args))
    argv = {"--Q": "3", flag: value}
    code, doc = run_cli(capsys, "sseries", "--form", str(fixture_dir / "taxicab.json"),
                        "--pmax", "3", *(f"{k}={v}" for k, v in argv.items()))
    assert code == EXIT_CONFIG and doc["detail"] == detail
    assert searched == []


def test_construct_refuses_a_negative_Y(capsys, monkeypatch, fixture_dir):
    # a negative Y has no box to search: it printed "not found within bound Y=-1"
    def no_kernel(*args):
        raise AssertionError("kernel computed")
    monkeypatch.setattr(cli.lc, "integer_kernel", no_kernel)
    code, doc = run_cli(capsys, "construct", "--form", str(fixture_dir / "taxicab.json"),
                        "--decomp", str(fixture_dir / "decomp.json"),
                        "--linsys", str(fixture_dir / "linsys.json"),
                        "--tau", "0.3", "--eta", "0.05", "--Y=-1")
    assert code == EXIT_CONFIG and doc["detail"] == "Y must be nonnegative, got -1"


@pytest.mark.parametrize("flags, detail", [
    (["--alpha0=nan"], "alpha0 must be finite, got nan"),
    (["--alpha0=inf"], "alpha0 must be finite, got inf"),
    (["--lambda=0,nan,0,0"], "lambda[1] must be finite, got nan"),
], ids=["alpha0-nan", "alpha0-inf", "lambda-nan"])
def test_expsum_g_refuses_a_non_finite_phase(capsys, fixture_dir, flags, detail):
    code, doc = run_cli(capsys, "expsum", "g", "--form", str(fixture_dir / "taxicab.json"),
                        "--P", "4", *flags)
    assert code == EXIT_CONFIG and doc["detail"] == detail


def test_inconsistent_bounds_is_not_a_config_error(capsys, monkeypatch, fixture_dir):
    def broken(*args, **kwargs):
        raise InconsistentBounds("lower bound above upper bound")
    monkeypatch.setattr(forms_core, "h_bounds", broken)
    with pytest.raises(InconsistentBounds):
        main(["asymptotic", "--config", str(fixture_dir / "config.json")])


def test_sseries(capsys, fixture_dir):
    code, doc = run_cli(capsys, "sseries", "--form", str(fixture_dir / "taxicab.json"),
                        "--Q", "5", "--pmax", "3", "--depth", "1", "--mmax", "3")
    assert code == EXIT_OK
    assert doc["per_q"][0] == {"q": 1, "term": 1.0}
    assert [c["p"] for c in doc["certificates"]] == [2, 3]
    assert all(c["found"] for c in doc["certificates"])


def _form_file(tmp_path, C):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"n": C.n, "monomials": [
        {"i": i, "j": j, "k": k, "c": str(c)} for (i, j, k), c in C.coeffs.items()]}))
    return str(path)


@pytest.mark.parametrize("form, Q", [("taxicab", 24), ("connected", 20)])
def test_sseries_at_the_benchmark_flags_is_pinned(capsys, tmp_path, request, form, Q):
    # the whole report at the flags the benchmark runs, recorded: a
    # certificate, a local sigma or a series term that moves fails here
    with open(os.path.join(os.path.dirname(__file__), "sseries_pin.json")) as fh:
        pinned = json.load(fh)[form]
    path = _form_file(tmp_path, request.getfixturevalue(form))
    code, doc = run_cli(capsys, "sseries", "--form", path, "--Q", str(Q), "--pmax", "7",
                        "--depth", "2")
    assert code == EXIT_OK and doc == pinned


_PINNED_WALKS = {
    "equidist": ("equidist", "--Pgrid", "10,20,40", "--kset", "1;2"),
    "g": ("expsum", "g", "--P", "12", "--alpha0=0.25", "--lambda=0,0.3,0.7,-0.2",
          "--weighted"),
}


@pytest.mark.parametrize("command", sorted(_PINNED_WALKS))
@pytest.mark.parametrize("form", ["taxicab", "connected"])
def test_walk_outputs_are_pinned(capsys, tmp_path, fixture_dir, request, command, form):
    # nested-box zero grouping (equidist) and the half-box slab walk of g
    # (reached on the connected form, whose one component has n = 4),
    # recorded: a float that moves by one rounding fails here
    with open(os.path.join(os.path.dirname(__file__), "walk_pin.json")) as fh:
        pinned = json.load(fh)[f"{command}-{form}"]
    argv = [*_PINNED_WALKS[command], "--form", _form_file(tmp_path, request.getfixturevalue(form))]
    if command == "equidist":
        argv += ["--linsys", str(fixture_dir / "linsys.json")]
    code, doc = run_cli(capsys, *argv)
    assert code == EXIT_OK and doc == pinned


def test_sseries_reports_sigma_7_at_depth_3(capsys, tmp_path, connected):
    # the lifts of the singular roots mod 7 fit the budget, so the local
    # table holds sigma_7(3) instead of null
    code, doc = run_cli(capsys, "sseries", "--form", _form_file(tmp_path, connected),
                        "--Q", "2", "--pmax", "7", "--depth", "3")
    assert code == EXIT_OK
    [row] = [row for row in doc["local"] if row["p"] == 7]
    assert row == {"p": 7, "k": 3, "sigma": str(Fraction(84_824_929, 7**9)),
                   "solutions": 84_824_929}


def test_validate_clean_and_dirty(capsys, fixture_dir, tmp_path):
    code, doc = run_cli(capsys, "validate", "--config", str(fixture_dir / "config.json"))
    assert code == EXIT_OK and doc["clean"] is True

    bad_form = {"n": 2, "monomials": [{"i": 2, "j": 1, "k": 2, "c": "1"}]}
    (tmp_path / "bad_form.json").write_text(json.dumps(bad_form))
    bad_cfg = {"form": "bad_form.json", "eta": 0, "P": 4}
    (tmp_path / "bad.json").write_text(json.dumps(bad_cfg))
    code, doc = run_cli(capsys, "validate", "--config", str(tmp_path / "bad.json"))
    assert code == EXIT_CONFIG
    joined = " ".join(doc["diagnostics"])
    assert "eta must be positive" in joined
    assert "index order" in joined


def test_validate_takes_a_witness_of_a_rational_form(capsys, tmp_path):
    # (x1^3 + x2^3)/2 with "1/2" coefficients and the witness
    # (x1/2 + x2/2)(x1^2 - x1 x2 + x2^2) of the form as written
    form = {"n": 2, "monomials": [{"i": 1, "j": 1, "k": 1, "c": "1/2"},
                                  {"i": 2, "j": 2, "k": 2, "c": "1/2"}]}
    decomp = {"n": 2, "pairs": [{"A": ["1/2", "1/2"], "B": [
        {"i": 1, "j": 1, "c": "1"}, {"i": 1, "j": 2, "c": "-1"}, {"i": 2, "j": 2, "c": "1"}]}]}
    for name, doc in (("f.json", form), ("d.json", decomp),
                      ("cfg.json", {"form": "f.json", "decomp": "d.json", "P": 4})):
        (tmp_path / name).write_text(json.dumps(doc))
    code, doc = run_cli(capsys, "validate", "--config", str(tmp_path / "cfg.json"))
    assert code == EXIT_OK and doc["clean"] is True


def _with_config(fixture_dir, **changes):
    path = fixture_dir / "config.json"
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("key, value", [("eta", 10**309), ("tau", [10**309]),
                                        ("schedule", [4, 8, -10**309])],
                         ids=["eta", "tau", "schedule"])
def test_integer_past_the_float_range_is_a_config_diagnostic(capsys, fixture_dir, key, value):
    # one range check serves every float key, as for P; the key's default is
    # checked in its place
    path = _with_config(fixture_dir, **{key: value})
    for command in ("validate", "asymptotic"):
        code, doc = run_cli(capsys, command, "--config", path)
        assert code == EXIT_CONFIG
        shown = json.dumps(value)
        assert doc["diagnostics"] == [f"config.{key}: {key} must be finite, got {shown}"]


def test_zero_form_is_a_config_diagnostic(capsys, monkeypatch, fixture_dir):
    # the zero form has no h-invariant, so both commands refuse it before any work
    calls = []
    monkeypatch.setattr(cli.fc, "h_bounds", lambda *args: calls.append(args))
    (fixture_dir / "zero.json").write_text(json.dumps({"n": 4, "monomials": []}))
    path = _with_config(fixture_dir, form="zero.json")
    for command in ("validate", "asymptotic"):
        code, doc = run_cli(capsys, command, "--config", path)
        assert code == EXIT_CONFIG
        assert doc["diagnostics"] == ["form: h-invariant is undefined for the zero form"]
    assert calls == []


def test_scalar_tau_is_a_config_diagnostic(capsys, fixture_dir):
    path = _with_config(fixture_dir, tau=0.3)
    code, doc = run_cli(capsys, "validate", "--config", path)
    assert code == EXIT_CONFIG
    assert doc["diagnostics"] == ["config.tau: must be a list of numbers, got 0.3"]


def test_scalar_P_grid_is_a_config_diagnostic(capsys, fixture_dir):
    path = _with_config(fixture_dir, P_grid=5)
    code, doc = run_cli(capsys, "validate", "--config", path)
    assert code == EXIT_CONFIG
    assert doc["diagnostics"] == ["config.P_grid: must be a list of numbers, got 5"]
    code, doc = run_cli(capsys, "asymptotic", "--config", path)
    assert code == EXIT_CONFIG
    assert doc["diagnostics"] == ["config.P_grid: must be a list of numbers, got 5"]


def test_from_dict_names_a_mistyped_key(capsys, fixture_dir):
    path = _with_config(fixture_dir, seed=1.5)
    for command in ("validate", "asymptotic"):
        code, doc = run_cli(capsys, command, "--config", path)
        assert code == EXIT_CONFIG
        assert doc["diagnostics"] == ["config.seed: must be an integer, got 1.5"]


def test_asymptotic_loads_each_file_once(capsys, monkeypatch, fixture_dir):
    # one reader opens the config and the files it names; the run reuses them
    calls = []
    for name in ("load_cubic_form", "load_linear_system", "load_h_decomposition"):
        loader = getattr(forms_core, name)
        monkeypatch.setattr(forms_core, name,
                            lambda path, name=name, loader=loader:
                            calls.append(name) or loader(path))
    code, _ = run_cli(capsys, "asymptotic", "--config", str(fixture_dir / "config.json"))
    assert code == EXIT_OK
    assert sorted(calls) == ["load_cubic_form", "load_h_decomposition", "load_linear_system"]


@pytest.mark.parametrize("changes, drop, diagnostics", [
    ({"form": ""}, (), ["config: missing required key 'form'"]),
    ({"linsys": ""}, (), ["config.tau: length 1 != r 0"]),
    ({"linsys": "", "tau": []}, (), []),
    ({"decomp": ""}, (), []),
    ({}, ("linsys",), ["config.tau: length 1 != r 0"]),
    ({}, ("linsys", "tau"), []),
], ids=["form-empty", "linsys-empty", "linsys-empty-no-tau", "decomp-empty", "tau-without-linsys",
        "no-linsys-no-tau"])
def test_validate_and_asymptotic_agree(capsys, fixture_dir, changes, drop, diagnostics):
    # "" names no file for linsys and decomp, and no form at all; tau is
    # checked against r = 0 when no linsys is given
    path = fixture_dir / "config.json"
    written = {key: v for key, v in {**json.loads(path.read_text()), **changes}.items()
               if key not in drop}
    path.write_text(json.dumps(written))
    code, doc = run_cli(capsys, "validate", "--config", str(path))
    assert doc["diagnostics"] == diagnostics
    assert code == (EXIT_CONFIG if diagnostics else EXIT_OK)
    code, doc = run_cli(capsys, "asymptotic", "--config", str(path))
    if diagnostics:
        assert code == EXIT_CONFIG and doc == {"diagnostics": diagnostics}
    else:
        assert code == EXIT_OK
        for key in ("linsys", "decomp"):
            assert (doc["config"][f"{key}_path"] is None) == (not written.get(key))


@pytest.mark.parametrize("changes, diagnostic", [
    ({"eta": math.inf}, "eta must be finite, got inf"),
    ({"tau": [math.nan]}, "tau must be finite, got [nan]"),
    ({"P_grid": [0.5, 8]}, "P must be at least 1, got 0.5"),
    ({"samples": 10}, "use at least 10^3 samples"),
    ({"samples": 2**31}, "Sobol points: 2^31 samples exceed the 2^30 of 30-bit direction numbers"),
    ({"seed": -1}, "seed must be non-negative, got -1"),
    ({"schedule": [4, 8]}, "schedule needs at least 3 values"),
    ({"schedule": [8, 4, 16]}, "schedule must increase"),
    ({"schedule": [2, 4, math.nan]}, "L must be positive and finite, got nan"),
    ({"Q": -1}, "Q must be at least 1, got -1"),
    ({"h_search_height": 0}, "need H >= 1, got 0"),
], ids=["eta-inf", "tau-nan", "P-below-1", "samples-few", "samples-past-sobol", "seed-negative",
        "schedule-short", "schedule-decreasing", "schedule-nan", "Q-negative", "height-zero"])
def test_config_values_are_checked_before_the_run(capsys, monkeypatch, fixture_dir, changes,
                                                  diagnostic):
    # the reader runs each stage's own checks, so validate reports what the
    # run would refuse, and asymptotic refuses it before any stage runs
    calls = []
    for module, name in ((cli.fc, "h_bounds"), (cli.ss, "singular_series_truncated"),
                         (cli.si, "chi_w_estimate"), (cli.le, "count_grid")):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    path = _with_config(fixture_dir, **changes)
    for command in ("validate", "asymptotic"):
        code, doc = run_cli(capsys, command, "--config", path)
        assert code == EXIT_CONFIG
        assert doc["diagnostics"] == [f"config: {diagnostic}"]
    assert calls == []


def test_config_strategy_key_is_ignored(capsys, fixture_dir):
    # enumeration is picked from the form; an old config that still names a
    # strategy validates clean and gives the same report
    path = fixture_dir / "config.json"
    code, base = run_cli(capsys, "asymptotic", "--config", str(path))
    assert code == EXIT_OK and "strategy" not in base["config"]
    doc = json.loads(path.read_text())
    doc["strategy"] = "direct"
    path.write_text(json.dumps(doc))
    code, diag = run_cli(capsys, "validate", "--config", str(path))
    assert code == EXIT_OK and diag["clean"] is True
    code, report = run_cli(capsys, "asymptotic", "--config", str(path))
    assert code == EXIT_OK and report == base


def test_missing_file_is_config_error(capsys):
    code, doc = run_cli(capsys, "count", "--form", "/nonexistent/f.json", "--P", "3")
    assert code == EXIT_CONFIG


def test_asymptotic_deterministic(capsys, fixture_dir):
    code, doc1 = run_cli(capsys, "asymptotic", "--config", str(fixture_dir / "config.json"))
    assert code == EXIT_OK
    code, doc2 = run_cli(capsys, "asymptotic", "--config", str(fixture_dir / "config.json"))
    assert code == EXIT_OK
    assert doc1 == doc2
    assert doc1["h_window"] == [2, 2]
    assert doc1["hypotheses"]["weighted_asymptotic_h_gt_16_plus_8r"] is False
    assert len(doc1["counts"]) == 2


def test_asymptotic_converged_prediction(capsys, fixture_dir):
    # the diagonal form of six cubes with an irrational row: chi_w converges
    # on this schedule, and each prediction is built from the report's own
    # fields; h_search_height 1 keeps h_bounds fast on six variables
    form = {"n": 6, "monomials": [{"i": i, "j": i, "k": i, "c": "1" if i <= 3 else "-1"}
                                  for i in range(1, 7)]}
    row = [(1 + math.sqrt(5)) / 2] + [math.sqrt(p) for p in (2, 3, 5, 7, 11)]
    (fixture_dir / "six.json").write_text(json.dumps(form))
    (fixture_dir / "six_linsys.json").write_text(
        json.dumps({"r": 1, "n": 6, "rows": [row], "assume_irrational": True}))
    path = _with_config(fixture_dir, form="six.json", linsys="six_linsys.json", decomp=None,
                        tau=[0.3], eta=0.05, P_grid=[4, 6], Q=6, schedule=[1, 2, 4, 8],
                        samples=1 << 16, seed=7, h_search_height=1)
    code, doc = run_cli(capsys, "asymptotic", "--config", path)
    assert code == EXIT_OK
    chi = doc["chi_w"]
    assert chi["converged"] is True and math.isfinite(chi["error_bar"])
    assert chi["value"] == chi["table"][-1]["IL"]
    S = doc["singular_series"]["partial_sum"]
    for count in doc["counts"]:
        expect = (2 * 0.05) ** 1 * S * chi["value"] * count["P"] ** (6 - 1 - 3)
        assert count["predicted"] == pytest.approx(expect, rel=1e-12)


CONNECTED_FILES = {
    "form": {"n": 4, "monomials": [
        {"i": i, "j": j, "k": k, "c": str(c)} for (i, j, k, c) in (
            (1, 1, 3, 1), (1, 2, 3, 1), (1, 2, 4, -1), (2, 2, 4, -1),
            (2, 3, 3, 1), (1, 3, 4, -1), (2, 3, 4, 1), (1, 4, 4, -1))]},
    "decomp": {"n": 4, "pairs": [
        {"A": ["1", "1", "0", "0"], "B": [{"i": 1, "j": 3, "c": "1"}, {"i": 2, "j": 4, "c": "-1"}]},
        {"A": ["0", "0", "1", "1"], "B": [{"i": 2, "j": 3, "c": "1"}, {"i": 1, "j": 4, "c": "-1"}]},
    ]},
}


@pytest.mark.parametrize("form", ["taxicab", "connected"])
def test_asymptotic_counts_equal_one_count_per_P(capsys, monkeypatch, fixture_dir, form):
    # the grid's nested boxes come from one constrained enumeration; each
    # row's N_w and points examined equal a count of its own, bit for bit
    grid = [12, 5, 7.5, 12, 3]
    changes = {"P_grid": grid}
    if form == "connected":
        for name, doc in CONNECTED_FILES.items():
            (fixture_dir / f"connected_{name}.json").write_text(json.dumps(doc))
        changes.update(form="connected_form.json", decomp="connected_decomp.json")
    path = _with_config(fixture_dir, **changes)
    calls = []
    enumerate_ = cli.le.constrained_zero_points
    monkeypatch.setattr(cli.le, "constrained_zero_points",
                        lambda *args: calls.append(args[1]) or enumerate_(*args))
    code, doc = run_cli(capsys, "asymptotic", "--config", path)
    assert code == EXIT_OK and calls == [11]
    C = forms_core.load_cubic_form(doc["config"]["form_path"])
    Lsys = forms_core.load_linear_system(str(fixture_dir / "linsys.json"))
    assert [row["P"] for row in doc["counts"]] == grid
    for row in doc["counts"]:
        res = cl.count(cl.CountQuery(C=C, Lsys=Lsys, tau=(0.3,), eta=0.05, P=row["P"],
                                     weighted=True))
        assert (row["N_w"], row["points_examined"]) == (res.value, res.points_examined)


def test_cli_import_leaves_scipy_out(fixture_dir):
    # scipy.stats takes more than a second to import, and the Sobol points of
    # the tent estimator are built without it: neither the import nor a tent
    # sintegral nor an asymptotic run loads any scipy module
    src = os.path.dirname(os.path.dirname(cl.__file__))
    runs = [["sintegral", "--form", str(fixture_dir / "taxicab.json"),
             "--schedule", "8,16,32", "--samples", "16384", "--seed", "7"],
            ["asymptotic", "--config", str(fixture_dir / "config.json")]]
    code = "\n".join([
        "import contextlib, io, sys",
        f"sys.path.insert(0, {src!r})",
        "import cubiclab.cli as cli",
        "def scipy_modules(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "print(scipy_modules())",
        f"for argv in {runs!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = cli.main(argv)",
        "    print(code, scipy_modules())",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "0 []", "0 []"]


def test_no_module_imports_scipy():
    # scipy is a test dependency only: the package runs on numpy alone
    src = os.path.dirname(cl.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                elif isinstance(node, ast.Import):
                    modules = [a.name for a in node.names]
                else:
                    continue
                found += [f"{name}:{m}" for m in modules if m.split(".")[0] == "scipy"]
    assert found == []


@pytest.mark.parametrize("module", ["exp_sums", "singular_integral", "kernels"])
def test_quadrature_and_kernel_modules_leave_enumeration_out(module):
    # the weight and the interval indicator live below the enumeration layer
    path = os.path.join(os.path.dirname(cl.__file__), f"{module}.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    assert not any("lattice_enum" in name.split(".") for name in names), names


def test_no_budget_or_route_parameters():
    # budgets are module constants read at call time, and routes come from the
    # input; a test lowers a constant with monkeypatch instead.  The kernel
    # schedule is log P alone, and a linear system carries no unread flag
    knobs = {"budget", "max_points", "max_outer", "table_cap", "method", "search", "theta",
             "avec_samples", "policy", "assume_irrational"}
    src = os.path.dirname(cl.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    params = args.posonlyargs + args.args + args.kwonlyargs
                    found += [f"{name}:{node.name}({a.arg})" for a in params if a.arg in knobs]
                elif isinstance(node, ast.ClassDef):
                    fields = [s.target.id for s in node.body
                              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                    found += [f"{name}:{node.name}.{f}" for f in fields if f in knobs]
                elif (isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"
                      and isinstance(node.args[0], ast.Constant)):
                    option = node.args[0].value.lstrip("-").replace("-", "_")
                    found += [f"{name}:--{option}"] if option in knobs else []
    assert found == []


@pytest.fixture()
def float_coefficient_form(tmp_path):
    form = {"n": 2, "monomials": [{"i": 1, "j": 1, "k": 1, "c": 1.5}]}
    (tmp_path / "f.json").write_text(json.dumps(form))
    return tmp_path / "f.json"


def test_float_coefficient_is_config_error(capsys, float_coefficient_form):
    code, doc = run_cli(capsys, "count", "--form", str(float_coefficient_form), "--P", "3")
    assert code == EXIT_CONFIG
    assert "monomials[0]" in doc["detail"] and "1.5" in doc["detail"]


def test_validate_lists_float_coefficient(capsys, float_coefficient_form, tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"form": float_coefficient_form.name, "P": 4}))
    code, doc = run_cli(capsys, "validate", "--config", str(tmp_path / "cfg.json"))
    assert code == EXIT_CONFIG
    [diagnostic] = doc["diagnostics"]
    assert diagnostic.startswith("form:") and "1.5" in diagnostic


@pytest.mark.parametrize("doc, key", [
    ({"n": 2}, "'monomials'"),
    ({"n": 2, "monomials": [{"i": 1, "j": 1, "c": "1"}]}, "'k'"),
])
def test_missing_key_names_document_and_key(capsys, tmp_path, doc, key):
    (tmp_path / "f.json").write_text(json.dumps(doc))
    code, out = run_cli(capsys, "count", "--form", str(tmp_path / "f.json"), "--P", "3")
    assert code == EXIT_CONFIG
    assert f"cubic form {tmp_path / 'f.json'}" in out["detail"]
    assert f"missing key {key}" in out["detail"]


def test_internal_key_error_propagates(capsys, monkeypatch, fixture_dir):
    def broken(*args, **kwargs):
        raise KeyError("internal")
    monkeypatch.setattr(cli.le, "count", broken)
    with pytest.raises(KeyError):
        main(["count", "--form", str(fixture_dir / "taxicab.json"), "--P", "3"])


@pytest.mark.parametrize("P", ["inf", "nan"])
@pytest.mark.parametrize("command", ["count", "expsum", "weyl", "equidist"])
def test_non_finite_P_is_a_config_error(capsys, fixture_dir, command, P):
    form, linsys = str(fixture_dir / "taxicab.json"), str(fixture_dir / "linsys.json")
    argv = {"count": ["count", "--form", form, "--P", P],
            "expsum": ["expsum", "g", "--form", form, "--P", P],
            "weyl": ["weyl", "--form", form, "--linsys", linsys, "--k", "1", "--P", P],
            "equidist": ["equidist", "--form", form, "--linsys", linsys, "--Pgrid", f"5,{P}",
                         "--kset", "1"]}[command]
    code, doc = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG and doc["detail"] == f"P must be finite, got {P}"


@pytest.mark.parametrize("key, value, shown", [("P_grid", [5, math.inf], "[5, Infinity]"),
                                               ("P", math.nan, "NaN"),
                                               ("P", 10**309, "1" + "0" * 309)])
def test_non_finite_P_is_a_config_diagnostic(capsys, fixture_dir, key, value, shown):
    # an integer past the float range is refused where the config is read,
    # and check_P names a NaN or an infinite P
    worst = value[-1] if isinstance(value, list) else value
    expect = (f"config.{key}: P must be finite, got {shown}" if isinstance(worst, int)
              else f"config: P must be finite, got {worst}")
    path = fixture_dir / "config.json"
    doc = json.loads(path.read_text())
    del doc["P_grid"]
    doc[key] = value
    path.write_text(json.dumps(doc))
    for command in ("validate", "asymptotic"):
        code, doc = run_cli(capsys, command, "--config", str(path))
        assert code == EXIT_CONFIG
        assert doc["diagnostics"] == [expect]


def _readme_argvs():
    """The argument lists of every command line of the README, its optional
    [...] parts included."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read().replace("\\\n", " ")
    lines = [line for line in text.splitlines() if line.startswith("cubiclab ")]
    return [shlex.split(line.replace("[", "").replace("]", ""))[1:] for line in lines]


def test_readme_commands_parse():
    # every command line of the README is accepted by the parser, so the
    # documented flags cannot drift from it
    argvs = _readme_argvs()
    assert len(argvs) == 11
    parser = cli.build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        assert args.func.__name__.startswith("cmd_"), argv


def _help_text(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


NAMES = list(cli._SUBCOMMANDS)


@pytest.mark.parametrize("name", NAMES)
def test_one_subcommand_parser_parses_as_the_full_one(capsys, name):
    # the same --help text, also of expsum's own subcommands, and the same
    # Namespace on every README line of the subcommand
    for argv in ([name, "--help"], *([name, which, "--help"] for which in ("complete", "g")
                                     if name == "expsum")):
        assert _help_text(capsys, cli.build_parser(name), argv) \
            == _help_text(capsys, cli.build_parser(), argv)
    argvs = [argv for argv in _readme_argvs() if argv[0] == name]
    assert argvs
    for argv in argvs:
        assert cli.build_parser(name).parse_args(argv) == cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv, code", [(["--help"], 0), ([], 2), (["bogus"], 2)])
def test_help_and_command_errors_list_every_subcommand(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out = capsys.readouterr()
    assert "{" + ",".join(NAMES) + "}" in (out.out if code == 0 else out.err)


def test_top_level_errors_read_alike_on_one_subcommand(capsys, fixture_dir):
    # an argument that no subcommand takes is refused by the top-level
    # parser, whose usage names every subcommand on either build
    argv = ["count", "--form", str(fixture_dir / "taxicab.json"), "--P", "3", "extra"]
    errors = []
    for parser in (cli.build_parser("count"), cli.build_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "unrecognized arguments: extra" in errors[0]


def test_main_builds_only_the_parser_it_runs(capsys, monkeypatch, fixture_dir):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert main(["count", "--form", str(fixture_dir / "taxicab.json"), "--P", "3"]) == EXIT_OK
    assert added == ["count"]
    capsys.readouterr()
    added.clear()
    assert main(["expsum", "g", "--form", str(fixture_dir / "taxicab.json"), "--P", "3"]) == EXIT_OK
    assert added == ["expsum", "complete", "g"]


# The benchmark's quadrature commands (taxicab form, box 16 and an r = 1 row of
# 2 sqrt(p / max p); the tent at 2^19 samples), at its inputs for seed 0.  The
# tent estimate is exact given its seed; the oscillatory value may move at
# rounding level only.  A change that moves chi_w fails here.
PIN_ROW = [1.913001429190555, 1.2028335340512826, 1.86798332490621, 2.0]
PIN_TENT = """{
  "error_bar": 0.024576876493853907,
  "table": [
    {
      "IL": 0.057962660189380705,
      "L": 4.0,
      "stderr": 2.3509559676955644e-05
    },
    {
      "IL": 0.06808655705930472,
      "L": 8.0,
      "stderr": 9.041719463285126e-05
    },
    {
      "IL": 0.07604807450745218,
      "L": 16.0,
      "stderr": 0.00021479743050602723
    },
    {
      "IL": 0.08231806663886107,
      "L": 32.0,
      "stderr": 0.00045419718817693783
    }
  ],
  "value": 0.08231806663886107
}
"""


def test_sintegral_pinned_at_the_quadrature_workload(capsys, fixture_dir):
    form = str(fixture_dir / "taxicab.json")
    linsys = fixture_dir / "row.json"
    linsys.write_text(json.dumps({"r": 1, "n": 4, "rows": [PIN_ROW], "assume_irrational": True}))
    assert main(["sintegral", "--form", form, "--linsys", str(linsys), "--oscillatory",
                 "--box", "16"]) == EXIT_OK
    osc = json.loads(capsys.readouterr().out)
    assert osc["im"] == 0.0
    assert osc["value"] == pytest.approx(0.035036596261764495, rel=1e-12, abs=0)
    assert osc["error_bar"] == math.inf
    assert main(["sintegral", "--form", form, "--samples", str(1 << 19),
                 "--seed", "2073320062"]) == EXIT_OK
    assert capsys.readouterr().out == PIN_TENT
