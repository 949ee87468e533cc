import json
import math
import random
from fractions import Fraction

import pytest

import cubiclab as cl
from cubiclab.errors import DimensionMismatch
from cubiclab.kernels import KernelParams
from cubiclab.forms_core import (
    load_cubic_form,
    load_h_decomposition,
    load_linear_system,
    rational_rank,
    substitute_linear_span,
)
from oracles import (dump_cubic_form, dump_h_decomposition, dump_linear_system, intbox_check,
                     kernel_smoothed_count)


def random_cubic(rng, n, cmax=5):
    terms = []
    for _ in range(rng.randint(1, 6)):
        idx = sorted(rng.randint(1, n) for _ in range(3))
        terms.append((idx[0], idx[1], idx[2], rng.randint(-cmax, cmax)))
    C = cl.CubicForm.from_terms(n, terms)
    if C.is_zero:
        C = cl.CubicForm.from_terms(n, [(1, 1, 1, 1)])
    return C


def test_eval_cubic_examples(taxicab):
    assert cl.eval_cubic(taxicab, (1, 12, 9, 10)) == 0
    assert cl.eval_cubic(taxicab, (0, 0, 0, 0)) == 0
    assert cl.eval_cubic(cl.CubicForm.diagonal([1, 1, 1]), (1, 2, 3)) == 36


def test_eval_cubic_dimension_mismatch(taxicab):
    with pytest.raises(DimensionMismatch):
        cl.eval_cubic(taxicab, (1, 2, 3))


def test_grad_examples():
    assert cl.grad_cubic(cl.CubicForm.diagonal([1, 1]), (1, 2)) == (3, 12)
    assert cl.grad_cubic(cl.CubicForm.diagonal([1, 1]), (0, 0)) == (0, 0)
    C = cl.CubicForm.from_terms(2, [(1, 1, 2, 1)])  # x1^2 x2
    assert cl.grad_cubic(C, (1, 1)) == (2, 1)


def test_homogeneity_property():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 4)
        C = random_cubic(rng, n)
        x = [rng.randint(-10, 10) for _ in range(n)]
        t = rng.randint(-10, 10)
        assert cl.eval_cubic(C, [t * v for v in x]) == t**3 * cl.eval_cubic(C, x)


def test_euler_identity_property():
    rng = random.Random(202)
    for _ in range(200):
        n = rng.randint(1, 4)
        C = random_cubic(rng, n)
        x = [rng.randint(-10, 10) for _ in range(n)]
        g = cl.grad_cubic(C, x)
        assert sum(a * b for a, b in zip(x, g)) == 3 * cl.eval_cubic(C, x)


def test_eval_linear_examples():
    Ls = cl.LinearSystem.from_rows([["1", "0", "0"], ["0", "1", "0"]])
    assert cl.eval_linear(Ls, (7, -3, 9)) == [7.0, -3.0]
    import math
    Ls2 = cl.LinearSystem.from_rows([[math.sqrt(2), math.sqrt(3)]])
    assert cl.eval_linear(Ls2, (1, 1))[0] == pytest.approx(math.sqrt(2) + math.sqrt(3))
    assert cl.eval_linear(Ls2, (0, 0)) == [0.0]


def test_verify_taxicab_decomposition(taxicab, taxicab_decomp):
    assert cl.verify_h_decomposition(taxicab, taxicab_decomp)


def test_verify_rejects_wrong_quadratic(taxicab, taxicab_decomp):
    a2, _ = taxicab_decomp.pairs[1]
    bad_b2 = cl.QuadraticForm.from_terms(4, [(3, 3, "1"), (3, 4, "1"), (4, 4, "1")])
    bad = cl.HDecomposition((taxicab_decomp.pairs[0], (a2, bad_b2)))
    assert not cl.verify_h_decomposition(taxicab, bad)


def test_verify_single_cube():
    C = cl.CubicForm.diagonal([1])
    D = cl.HDecomposition(((cl.LinearForm.rational([1]),
                            cl.QuadraticForm.from_terms(1, [(1, 1, "1")])),))
    assert cl.verify_h_decomposition(C, D)


def _halved_sum_of_cubes():
    """(x1^3 + x2^3)/2, written with "1/2" coefficients, and its witness
    (x1/2 + x2/2)(x1^2 - x1 x2 + x2^2) of the same polynomial."""
    C = cl.CubicForm.from_terms(2, [(1, 1, 1, "1/2"), (2, 2, 2, "1/2")])
    B = cl.QuadraticForm.from_terms(2, [(1, 1, "1"), (1, 2, "-1"), (2, 2, "1")])
    return C, cl.HDecomposition(((cl.LinearForm.rational(["1/2", "1/2"]), B),))


def test_verify_compares_a_rational_form_as_written():
    # the form is stored as x1^3 + x2^3 with rescale 2; its witness is one
    # of the form as written, and that of the stored multiple is not
    C, D = _halved_sum_of_cubes()
    assert C.coeffs == {(1, 1, 1): 1, (2, 2, 2): 1} and C.rescale == 2
    assert cl.verify_h_decomposition(C, D)
    assert cl.h_bounds(C, D, H=1) == (1, 1)
    ((_, B),) = D.pairs
    doubled = cl.HDecomposition(((cl.LinearForm.rational([1, 1]), B),))
    assert not cl.verify_h_decomposition(C, doubled)
    assert cl.verify_h_decomposition(cl.CubicForm.diagonal([1, 1]), doubled)


def test_verify_invariances(taxicab, taxicab_decomp):
    # permuting pairs
    perm = cl.HDecomposition(tuple(reversed(taxicab_decomp.pairs)))
    assert cl.verify_h_decomposition(taxicab, perm)
    # scaling A by c and B by 1/c
    c = Fraction(7, 3)
    scaled_pairs = []
    for a, b in taxicab_decomp.pairs:
        a2 = cl.LinearForm.rational([c * Fraction(v) for v in a.coeffs])
        b2 = cl.QuadraticForm(b.n, {k: v / c for k, v in b.coeffs.items()})
        scaled_pairs.append((a2, b2))
    assert cl.verify_h_decomposition(taxicab, cl.HDecomposition(tuple(scaled_pairs)))


def test_find_space_taxicab(taxicab):
    vecs = cl.find_rational_linear_space(taxicab, 2, 1)
    assert vecs is not None and len(vecs) == 2
    assert rational_rank([list(map(Fraction, v)) for v in vecs]) == 2
    # the certificate is exact: the substituted polynomial vanishes identically
    assert substitute_linear_span(taxicab, vecs) == {}
    # secondary smoke test: integer grid points of the span are zeros
    for s in (-1, 0, 1):
        for t in (-1, 0, 1):
            x = [s * a + t * b for a, b in zip(*vecs)]
            assert cl.eval_cubic(taxicab, x) == 0


def test_find_space_unused_variable():
    C = cl.CubicForm.from_terms(2, [(1, 1, 1, 1)])  # x1^3, independent of x2
    vecs = cl.find_rational_linear_space(C, 1, 1)
    assert vecs == [(0, 1)]


def test_find_space_absent_for_three_cubes():
    C = cl.CubicForm.diagonal([1, 1, 1])
    assert cl.find_rational_linear_space(C, 2, 3) is None
    # oracle cross-check: no pair of height-3 zeros spans a plane inside {C=0}
    from itertools import product
    zeros = []
    for v in product(range(-3, 4), repeat=3):
        nz = next((c for c in v if c != 0), 0)
        if nz > 0 and cl.eval_cubic(C, v) == 0:
            zeros.append(v)
    for i in range(len(zeros)):
        for j in range(i + 1, len(zeros)):
            pair = [zeros[i], zeros[j]]
            if rational_rank([list(map(Fraction, v)) for v in pair]) == 2:
                assert substitute_linear_span(C, pair) != {}


def test_h_bounds_taxicab(taxicab, taxicab_decomp):
    assert cl.h_bounds(taxicab, taxicab_decomp) == (2, 2)


def test_h_bounds_single_variable():
    assert cl.h_bounds(cl.CubicForm.diagonal([1])) == (1, 1)


def test_h_bounds_three_cubes_window():
    C = cl.CubicForm.diagonal([1, 1, 1])
    pairs = tuple(
        (cl.LinearForm.rational([1 if j == i else 0 for j in range(3)]),
         cl.QuadraticForm.from_terms(3, [(i + 1, i + 1, "1")]))
        for i in range(3)
    )
    lo, hi = cl.h_bounds(C, cl.HDecomposition(pairs), H=3)
    assert (lo, hi) == (2, 3)
    assert lo <= 2 <= hi


def test_h_bounds_rejects_bad_witness(taxicab):
    bad = cl.HDecomposition(((cl.LinearForm.rational([1, 0, 0, 0]),
                              cl.QuadraticForm.from_terms(4, [(1, 1, "1")])),))
    with pytest.raises(ValueError):
        cl.h_bounds(taxicab, bad)


def test_rational_ingestion_records_rescale():
    C = cl.CubicForm.from_terms(2, [(1, 1, 1, "1/2"), (2, 2, 2, "1/3")])
    assert C.coeffs == {(1, 1, 1): 3, (2, 2, 2): 2}
    assert C.rescale == Fraction(6)


def test_cubic_file_roundtrip(tmp_path, taxicab):
    doc = dump_cubic_form(taxicab)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    C2 = load_cubic_form(str(path))
    assert C2.coeffs == taxicab.coeffs and C2.n == taxicab.n


def test_cubic_file_rejects_unsorted_indices():
    with pytest.raises(ValueError, match="i <= j <= k"):
        load_cubic_form({"n": 2, "monomials": [{"i": 2, "j": 1, "k": 2, "c": "1"}]})


def test_linsys_file_roundtrip(irr_linsys):
    doc = dump_linear_system(irr_linsys)
    Ls = load_linear_system(doc)
    assert Ls.rows == irr_linsys.rows
    mixed = load_linear_system({"r": 1, "n": 3, "rows": [["1/2", 0.25, -3]],
                                "assume_irrational": False})
    assert mixed.rows[0][0] == Fraction(1, 2) and mixed.rows[0][1] == 0.25
    # a JSON integer is exact, as a Python int is in from_rows
    assert type(mixed.rows[0][2]) is Fraction and mixed.rows[0][2] == -3
    ints = load_linear_system({"r": 1, "n": 3, "rows": [[1, 0, 0]]})
    assert ints.rows == cl.LinearSystem.from_rows([[1, 0, 0]]).rows
    assert all(type(v) is Fraction for v in ints.rows[0])


def test_decomp_file_roundtrip(taxicab, taxicab_decomp):
    doc = dump_h_decomposition(taxicab_decomp)
    D = load_h_decomposition(doc)
    assert cl.verify_h_decomposition(taxicab, D)


def test_linsys_requires_independent_rows():
    with pytest.raises(ValueError):
        cl.LinearSystem.from_rows([[1.0, 2.0], [2.0, 4.0]])


def test_linear_entries_parse_alike_on_both_routes():
    # ints and "p/q" strings are exact, floats real, on both routes
    rows = [[1, "2/3", 0.5]]
    for Ls in (cl.LinearSystem.from_rows(rows), load_linear_system({"r": 1, "n": 3, "rows": rows})):
        assert [type(v) for v in Ls.rows[0]] == [Fraction, Fraction, float]
        assert Ls.rows[0] == (1, Fraction(2, 3), 0.5)
    # a bool is neither: JSON true used to load as the float 1.0 and
    # from_rows read True as Fraction(1)
    with pytest.raises(ValueError, match="bad linear coefficient"):
        cl.LinearSystem.from_rows([[True, 0, 0]])
    with pytest.raises(ValueError, match="bad linear coefficient"):
        load_linear_system(json.loads('{"r": 1, "n": 3, "rows": [[true, 0, 0]]}'))
    with pytest.raises(ValueError, match="bad linear coefficient"):
        load_linear_system({"r": 1, "n": 3, "rows": [[None, 0, 0]]})


def test_for_form_reads_none_as_the_empty_system(taxicab, irr_linsys):
    assert cl.LinearSystem.for_form(taxicab, None) == cl.LinearSystem.empty(4)
    assert cl.LinearSystem.for_form(taxicab, irr_linsys) is irr_linsys
    with pytest.raises(DimensionMismatch):
        cl.LinearSystem.for_form(taxicab, cl.LinearSystem.empty(3))


def test_none_and_empty_system_agree_bit_for_bit(taxicab):
    empty = cl.LinearSystem.empty(4)
    for weighted in (False, True):
        a, b = (cl.count(cl.CountQuery(C=taxicab, Lsys=L, P=5, weighted=weighted))
                for L in (None, empty))
        assert a == b
    assert cl.schmidt_IL(taxicab, None, 4.0, 4096, 3) == cl.schmidt_IL(taxicab, empty, 4.0, 4096, 3)
    assert intbox_check(taxicab, None, 4.0, 4096, 3) == intbox_check(taxicab, empty, 4.0, 4096, 3)
    a, b = (cl.chi_w_oscillatory(taxicab, L, box=(4.0, 4.0), tol=1e-2) for L in (None, empty))
    assert a == b


THREE_COLUMNS = cl.LinearSystem.from_rows([[1.0, math.sqrt(2), math.sqrt(3)]])
KP = KernelParams(eta=0.1, rho=0.05, sign="plus")
WRONG_N_CALLS = {
    "count": lambda C, L: cl.count(cl.CountQuery(C=C, Lsys=L, tau=(0.3,), eta=0.1, P=4)),
    "kernel_smoothed_count": lambda C, L: kernel_smoothed_count(C, L, [0.3], 4, KP),
    "weyl_sum": lambda C, L: cl.weyl_sum(C, L, [1], 4),
    "equidist_experiment": lambda C, L: cl.equidist_experiment(C, L, [4], [[1]], 10, 0),
    "schmidt_IL": lambda C, L: cl.schmidt_IL(C, L, 4.0, 1024, 0),
    "chi_w_estimate": lambda C, L: cl.chi_w_estimate(C, L, [2, 4, 8], 1024, 0),
    "intbox_check": lambda C, L: intbox_check(C, L, 4.0, 1024, 0),
    "chi_w_oscillatory": lambda C, L: cl.chi_w_oscillatory(C, L, box=(2.0, 2.0)),
}


@pytest.mark.parametrize("name", sorted(WRONG_N_CALLS))
def test_wrong_n_raises_dimension_mismatch(taxicab, name):
    with pytest.raises(DimensionMismatch, match="linear system has n = 3, form has n = 4"):
        WRONG_N_CALLS[name](taxicab, THREE_COLUMNS)


def test_equidist_checks_every_k_length(taxicab, irr_linsys):
    with pytest.raises(DimensionMismatch, match="k length"):
        cl.equidist_experiment(taxicab, irr_linsys, [4], [[1], [1, 2]], 10, 0)
