import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import cubiclab as cl
from cubiclab import _grid, singular_integral
from cubiclab._grid import GLPhases, cubic_values
from cubiclab.errors import NotConverged, ResourceLimit, ToleranceNotMet
from cubiclab.singular_integral import (
    Psi_L,
    _sobol_blocks,
    chi_w_estimate,
    chi_w_oscillatory,
    psi_L,
    schmidt_IL,
)
from cubiclab.lattice_enum import weight_w

import oracles
from oracles import intbox_check

W1_MASS = 0.4439938161680786  # integral of the one-axis weight (quadrature oracle)


def test_psi_examples():
    assert psi_L(0.0, 5.0) == 5.0
    assert psi_L(1 / 5, 5.0) == 0.0
    assert psi_L(0.25, 2.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        psi_L(0.0, 0.0)


def test_psi_unit_mass():
    for L in (0.5, 1.0, 7.0, 64.0):
        val, _ = quad(lambda x: psi_L(x, L), -1 / L, 1 / L, limit=100)
        assert val == pytest.approx(1.0, abs=1e-12)


def test_psi_symmetry():
    xs = np.linspace(-2, 2, 101)
    assert np.allclose(psi_L(xs, 3.0), psi_L(-xs, 3.0))
    comps = np.random.default_rng(0).normal(size=(50, 3))
    assert np.allclose(Psi_L(comps, 2.0), Psi_L(-comps, 2.0))


def test_schmidt_zero_form_gives_tent_height_times_mass():
    zero1 = cl.CubicForm(n=1, coeffs={})
    for L in (2.0, 4.0):
        est = schmidt_IL(zero1, None, L, 1 << 14, seed=3)
        assert est.value == pytest.approx(L * W1_MASS, abs=6 * est.std_error + 1e-4)


def test_schmidt_deterministic_given_seed():
    C = cl.taxicab_form()
    a = schmidt_IL(C, None, 8.0, 1 << 14, seed=9)
    b = schmidt_IL(C, None, 8.0, 1 << 14, seed=9)
    assert a == b
    c = schmidt_IL(C, None, 8.0, 1 << 14, seed=10)
    assert c.value != a.value


def test_schmidt_matches_quadrature_per_L():
    # n=2, C = x1^3: the integrand factorizes, quadrature gives the exact value
    C = cl.CubicForm.from_terms(2, [(1, 1, 1, 1)])
    for L in (4.0, 8.0, 16.0):
        oracle, _ = quad(lambda t: math.exp(-1 / (1 - t * t)) * psi_L(t**3, L), -1, 1,
                         limit=300)
        oracle *= W1_MASS
        est = schmidt_IL(C, None, L, 1 << 15, seed=5)
        assert est.value == pytest.approx(oracle, abs=6 * est.std_error + 1e-4)


def _components_at_rows(C, Ls, X):
    """(N, r+1) matrix of (C(x), L_1(x), ..., L_r(x)) at the rows x of X,
    L by the k-order row formula."""
    return np.column_stack([cubic_values(C, X.T), oracles.linear_values(Ls, X)])


def test_schmidt_reflection_invariance():
    C = cl.taxicab_form()
    Ls = cl.LinearSystem.from_rows([[0.9, math.sqrt(2), math.sqrt(3), math.sqrt(5)]])
    X = np.concatenate([block.T for block in _sobol_blocks(4, 1 << 15, 11)])
    vals = [float(np.mean(weight_w(pts) * Psi_L(_components_at_rows(C, Ls, pts), 6.0)))
            for pts in (X, -X)]
    assert vals[0] == pytest.approx(vals[1], rel=0.05)


def test_chi_estimate_converges_taxicab_r0():
    C = cl.taxicab_form()
    est = chi_w_estimate(C, None, [8.0, 16.0, 32.0, 64.0], 1 << 17, seed=7)
    assert est.value > 0
    diffs = [abs(b.value - a.value) for a, b in zip(est.table, est.table[1:])]
    assert diffs[0] > diffs[1] > diffs[2]
    assert est.error_bar >= diffs[-1]


def test_chi_estimate_sample_doubling_stays_within_noise():
    C = cl.taxicab_form()
    a = schmidt_IL(C, None, 32.0, 1 << 16, seed=7)
    b = schmidt_IL(C, None, 32.0, 1 << 17, seed=7)
    assert abs(a.value - b.value) <= 4 * (a.std_error + b.std_error)


def test_chi_estimate_diverges_at_n2_r1():
    # the variety degenerates at the origin for n = 2, so the tent limit grows
    # like L^(2/3) and the stabilization diagnostic must refuse
    C = cl.CubicForm.from_terms(2, [(1, 1, 1, 1)])
    Ls = cl.LinearSystem.from_rows([[0.0, math.sqrt(2)]])
    with pytest.raises(NotConverged) as exc:
        chi_w_estimate(C, Ls, [4.0, 8.0, 16.0, 32.0], 1 << 16, seed=7)
    table = exc.value.table
    diffs = [abs(b.value - a.value) for a, b in zip(table, table[1:])]
    assert diffs[1] > diffs[0]  # growing, the signature of divergence


def test_chi_schedule_validation():
    C = cl.taxicab_form()
    with pytest.raises(ValueError):
        chi_w_estimate(C, None, [4.0, 8.0], 1 << 12, seed=1)
    with pytest.raises(ValueError):
        chi_w_estimate(C, None, [4.0, 8.0, 6.0], 1 << 12, seed=1)


def test_oscillatory_real_valued():
    C = cl.taxicab_form()
    v = chi_w_oscillatory(C, None, box=(12.0, 0.0), tol=1e-3)
    assert abs(v.value.imag) <= 1e-3


def test_oscillatory_agrees_with_schmidt_taxicab_r0():
    C = cl.taxicab_form()
    est = chi_w_estimate(C, None, [8.0, 16.0, 32.0, 64.0], 1 << 17, seed=7)
    osc = chi_w_oscillatory(C, None, box=(24.0, 0.0), tol=1e-3)
    assert abs(est.value - osc.value.real) <= 2 * (est.error_bar + osc.abs_error)


def test_oscillatory_truncation_doubling_within_tail():
    C = cl.taxicab_form()
    v12 = chi_w_oscillatory(C, None, box=(12.0, 0.0), tol=1e-3)
    v24 = chi_w_oscillatory(C, None, box=(24.0, 0.0), tol=1e-3)
    assert abs(v24.value - v12.value) <= v12.abs_error


def test_oscillatory_flags_divergent_tail():
    C = cl.CubicForm.from_terms(2, [(1, 1, 1, 1)])
    Ls = cl.LinearSystem.from_rows([[0.0, math.sqrt(2)]])
    v = chi_w_oscillatory(C, Ls, box=(8.0, 8.0), tol=1e-3)
    assert math.isinf(v.abs_error)


@pytest.mark.parametrize("max_outer", [60, 40, 100])
def test_oscillatory_outer_budget_refusal_is_resource_limit(monkeypatch, taxicab, max_outer):
    # the diagonal outer loop's grids have 48, 96, ... nodes: 60 fits one and
    # 40 none, so no error estimate could be made; 100 fits two, whose values
    # come with the convergence failure
    Ls = cl.LinearSystem.from_rows([[math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(7)]])
    monkeypatch.setitem(_grid.BUDGETS, "outer nodes", max_outer)
    if max_outer < 96:
        with pytest.raises(ResourceLimit):
            chi_w_oscillatory(taxicab, Ls, box=(4, 4), tol=1e-30)
    else:
        with pytest.raises(ToleranceNotMet) as exc:
            chi_w_oscillatory(taxicab, Ls, box=(4, 4), tol=1e-30)
        assert len(exc.value.table) == 2


def test_oscillatory_phase_tables_stay_within_their_budget(monkeypatch, taxicab):
    # a tolerance no grid meets: the diagonal route refines k = 1, 2, 4, 8
    # (its t rule has 126 k panels here) and stops before the work of a half
    # phase table, the beta > 0 (or alpha > 0) rows times the t > 0 nodes,
    # passes the "phase entries" budget; the outer-node budget alone let k
    # grow to 4096.  The tables are built in column blocks over t, and no allocated
    # table passes _grid.BLOCK.
    Ls = cl.LinearSystem.from_rows([[1.0, math.sqrt(2), math.sqrt(3), math.sqrt(5)]])
    tables = []
    table = GLPhases.table

    def recorded(self, start=0):
        got = table(self, start)
        owner = got if got.base is None else got.base
        assert owner.size <= _grid.BLOCK
        assert 2 * got.shape[0] == self.nodes
        tables.append(got.shape)
        return got
    monkeypatch.setattr(GLPhases, "table", recorded)
    with pytest.raises(ToleranceNotMet) as exc:
        chi_w_oscillatory(taxicab, Ls, box=(16.0, 16.0), tol=1e-13)
    assert len(exc.value.table) == 4
    # at k = 8 the blocks of the one beta0 table (|c| = 1) and the four alpha
    # tables cover the 5 * 126 * 8 t > 0 nodes
    assert max(rows for rows, _ in tables) == 24 * 8
    assert sum(cols for rows, cols in tables if rows == 24 * 8) == 5 * 5 * 126 * 8


@pytest.mark.parametrize("slack, grids", [(0, 3), (-1, 2)])
def test_phase_work_budget_admits_a_grid_at_its_half_table(monkeypatch, taxicab, slack, grids):
    # the k = 4 grid's half table has 24 * 4 beta0 > 0 rows and 5 * 126 * 4
    # t > 0 nodes: at that many entries k = 4 runs, at one less it does not
    Ls = cl.LinearSystem.from_rows([[1.0, math.sqrt(2), math.sqrt(3), math.sqrt(5)]])
    monkeypatch.setitem(_grid.BUDGETS, "phase entries", 24 * 4 * 5 * 126 * 4 + slack)
    with pytest.raises(ToleranceNotMet) as exc:
        chi_w_oscillatory(taxicab, Ls, box=(16.0, 16.0), tol=1e-13)
    assert len(exc.value.table) == grids


# the `quadrature` workload's row at seed 0 (``perfbench/workloads.py``)
WORKLOAD_ROW = [1.913001429190555, 1.2028335340512826, 1.86798332490621, 2.0]


def test_oscillatory_memory_at_the_workload_box(taxicab):
    # the phase tables are walked in column blocks of _grid.BLOCK
    # entries; the whole (beta0 > 0 x t > 0) tables of the k = 4 grid took
    # 12.3 MiB of traced memory
    Ls = cl.LinearSystem.from_rows([WORKLOAD_ROW])
    tracemalloc.start()
    try:
        chi_w_oscillatory(taxicab, Ls, box=(16.0, 16.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"chi_w_oscillatory peaked at {peak / 2**20:.2f} MiB"


def test_oscillatory_pinned_at_r0_on_the_taxicab_form(taxicab):
    # n - r = 4 > 3, so the bar is finite, and it holds the tent estimate at
    # the workload's seed (`sintegral` pin in test_cli: 0.08232 +- 0.02458)
    v = chi_w_oscillatory(taxicab, None, box=(16.0, 16.0))
    assert v.value.imag == 0.0
    assert v.value.real == pytest.approx(0.08443613958321365, rel=1e-12, abs=0)
    assert v.abs_error == pytest.approx(0.021433324809385385, rel=1e-12, abs=0)
    assert abs(v.value.real - 0.08231806663886107) <= v.abs_error + 0.024576876493853907


def test_oscillatory_pinned_at_r1_on_the_taxicab_form(taxicab):
    # the benchmark's `sintegral --oscillatory --box 16` at seed 0: its row is
    # 2 sqrt(p / 47) over the primes 43, 17, 41, 47.  n - r = 3, so the bar is
    # +inf and passes any value; this pin is the check of the value itself
    primes = (43, 17, 41, 47)
    row = [2.0 * math.sqrt(p / max(primes)) for p in primes]
    v = chi_w_oscillatory(taxicab, cl.LinearSystem.from_rows([row]), box=(16.0, 16.0))
    assert v.value.imag == 0.0
    assert v.value.real == pytest.approx(0.0350365962617645, rel=1e-12, abs=0)
    assert v.abs_error == math.inf


@pytest.mark.parametrize("b1", [-1.0, math.inf])
def test_oscillatory_refuses_the_alpha_side_by_name(taxicab, irr_linsys, b1):
    # the CLI passes one --box for both sides; a zero b1 (r = 0) stays legal
    with pytest.raises(ValueError, match=re.escape(f"box[1] must be non-negative and finite, "
                                                   f"got {b1}")):
        chi_w_oscillatory(taxicab, irr_linsys, box=(4.0, b1))


@pytest.mark.parametrize("L", [0.0, -2.0, math.nan, math.inf])
def test_tent_refuses_L_before_drawing(monkeypatch, taxicab, L):
    def no_draw(*args):
        raise AssertionError("points drawn")
    monkeypatch.setattr(singular_integral, "_sobol_blocks", no_draw)
    with pytest.raises(ValueError, match=f"L must be positive and finite, got {L}"):
        schmidt_IL(taxicab, None, L, 1 << 12, seed=1)


@pytest.mark.parametrize("L, samples, detail", [
    (math.nan, 4096, "L must be positive and finite, got nan"),
    (0.0, 4096, "L must be positive and finite, got 0.0"),
    (math.inf, 4096, "L must be positive and finite, got inf"),
    (4.0, 10, "use at least 10^3 samples")])
def test_intbox_refuses_before_drawing(monkeypatch, taxicab, L, samples, detail):
    # a NaN L drew every point and returned nan
    def no_draw(*args):
        raise AssertionError("points drawn")
    monkeypatch.setattr(oracles, "_sobol_blocks", no_draw)
    with pytest.raises(ValueError, match=re.escape(detail)):
        intbox_check(taxicab, None, L, samples, seed=3)


@pytest.mark.parametrize("C, row, samples, seed", [
    (cl.taxicab_form(), None, 3000, 7),
    (cl.taxicab_form(), [math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(7)], 1 << 16, 11),
    (cl.CubicForm.from_terms(3, [(1, 1, 2, 2), (1, 3, 3, -1), (2, 2, 3, 1)]),
     [0.5, -math.sqrt(3), 2.0], 1 << 17, 1063938750)])
def test_intbox_matches_an_all_points_oracle(C, row, samples, seed):
    # the block walk against scipy's draw in [-1/2, 1/2]^n, read at once: the
    # same points, C and L, summed in another order
    from scipy.stats import qmc

    Ls = cl.LinearSystem.for_form(C, None if row is None else cl.LinearSystem.from_rows([row]))
    m = max(10, math.ceil(math.log2(samples)))
    X = -0.5 + qmc.Sobol(d=C.n, scramble=True, seed=seed).random(2**m)
    want = float(np.mean(Psi_L(_components_at_rows(C, Ls, X), 3.0)))
    assert intbox_check(C, Ls, 3.0, samples, seed) == pytest.approx(want, rel=1e-12)


NON_DIAGONAL = cl.CubicForm.from_terms(2, [(1, 1, 2, 2), (1, 2, 2, -1), (2, 2, 2, 1)])


@pytest.mark.parametrize("C, row, b0", [
    (cl.taxicab_form(), [(1 + math.sqrt(5)) / 2, math.sqrt(2), math.sqrt(3), math.sqrt(5)], 4.0),
    (NON_DIAGONAL, [1.0, math.sqrt(2)], 1.0)])
def test_oscillatory_refuses_an_empty_alpha_box_when_r_is_1(monkeypatch, C, row, b0):
    # the diagonal and the non-diagonal route alike; the alpha tail's fit
    # would take log 0.  b1 = 0 stays legal for r = 0 (test_oscillatory_real_valued)
    def no_integral(*args, **kwargs):
        raise AssertionError("integrated")
    monkeypatch.setattr(singular_integral, "osc_integral_I", no_integral)
    with pytest.raises(ValueError, match=re.escape("box[1] must be positive when r = 1, got 0.0")):
        chi_w_oscillatory(C, cl.LinearSystem.from_rows([row]), box=(b0, 0.0))


@settings(max_examples=25)
@given(coeffs=st.lists(st.sampled_from([1, -1, 2, -3]), min_size=1, max_size=4),
       r=st.integers(0, 1), seed=st.integers(0, 2**31 - 1))
def test_both_bars_are_infinite_when_n_minus_r_is_at_most_3(coeffs, r, seed):
    # at tau = 0 the cone's apex lies on the slice, so chi_w = +inf whenever
    # n - r <= 3: the tent refuses or reports +inf, and so does the box
    # integral, whatever value it gives at this box
    n = len(coeffs)
    assume(n - r <= 3)
    C = cl.CubicForm.diagonal(coeffs)
    Ls = cl.LinearSystem.from_rows([[math.sqrt(p) for p in (2, 3, 5, 7)[:n]]]) if r else None
    assert math.isinf(chi_w_oscillatory(C, Ls, box=(2.0, 2.0), tol=1e-2).abs_error)
    try:
        est = chi_w_estimate(C, Ls, [2.0, 4.0, 8.0, 16.0], 1 << 12, seed=seed)
    except NotConverged:
        return
    assert est.error_bar == math.inf


def test_tent_bar_covers_the_bias_left_after_the_schedule():
    # taxicab at r = 0 (kappa = 1/3): the schedule stops about 0.024 short
    # of the limit 0.10598, the oscillatory box 16 and box 32 values
    # (0.08444, 0.08888) extrapolated by b^(-1/3); the last difference plus
    # the standard error, 0.0067, missed it
    est = chi_w_estimate(cl.taxicab_form(), None, [4.0, 8.0, 16.0, 32.0], 1 << 19,
                         seed=2073320062)
    d = est.table[-1].value - est.table[-2].value
    assert est.error_bar > 3.8 * d
    assert abs(est.value - 0.10598) <= est.error_bar


def test_intbox_positive_and_growing_floor(irr_linsys, taxicab):
    vals = [intbox_check(taxicab, irr_linsys, L, 1 << 15, seed=3)
            for L in (1.0, 2.0, 4.0, 8.0)]
    assert all(v >= 0 for v in vals)
    assert vals[0] > 0.25
    assert min(vals) >= vals[0] * 0.9  # stays above a positive floor as L grows


def test_schmidt_continuous_in_L():
    C = cl.taxicab_form()
    base = schmidt_IL(C, None, 10.0, 1 << 15, seed=4).value
    gaps = [abs(schmidt_IL(C, None, 10.0 * (1 + d), 1 << 15, seed=4).value - base)
            for d in (0.2, 0.05, 0.01)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_intbox_small_L_matches_mean_tent():
    # L = 1: the tent is broad, the value is close to E[Psi] over the box
    C = cl.CubicForm.diagonal([1, 1])
    v = intbox_check(C, None, 1.0, 1 << 15, seed=5)
    assert v > 0.5
