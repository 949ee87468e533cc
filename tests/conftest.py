import json
import math

import pytest
from hypothesis import settings

import cubiclab as cl

# property tests draw the same examples on every run and write no example
# database; a test's own @settings sets only max_examples
settings.register_profile("cubiclab", deadline=None, derandomize=True, database=None)
settings.load_profile("cubiclab")

PHI = (1 + math.sqrt(5)) / 2
IRR_ROW = [PHI, math.sqrt(2), math.sqrt(3), math.sqrt(5)]


@pytest.fixture(scope="session")
def taxicab():
    return cl.taxicab_form()


@pytest.fixture(scope="session")
def connected():
    """(x1+x2)(x1x3 - x2x4) + (x3+x4)(x2x3 - x1x4): no additive split."""
    return cl.CubicForm.from_terms(4, [(1, 1, 3, 1), (1, 2, 3, 1), (1, 2, 4, -1), (2, 2, 4, -1),
                                       (2, 3, 3, 1), (1, 3, 4, -1), (2, 3, 4, 1), (1, 4, 4, -1)])


@pytest.fixture(scope="session")
def plane_form():
    """x1(x2^2 + x3^2): the whole plane x1 = 0 consists of zeros."""
    return cl.CubicForm.from_terms(3, [(1, 2, 2, 1), (1, 3, 3, 1)])


@pytest.fixture(scope="session")
def plane_decomp():
    """The h-decomposition x1 * (x2^2 + x3^2) of ``plane_form``."""
    return cl.HDecomposition(((cl.LinearForm.rational([1, 0, 0]),
                               cl.QuadraticForm.from_terms(3, [(2, 2, 1), (3, 3, 1)])),))


@pytest.fixture(scope="session")
def taxicab_decomp():
    return cl.taxicab_decomposition()


@pytest.fixture(scope="session")
def irr_linsys():
    return cl.LinearSystem.from_rows([IRR_ROW])


@pytest.fixture()
def fixture_dir(tmp_path):
    """Form/linsys/decomp JSON files for CLI-level tests."""
    form = {"n": 4, "monomials": [
        {"i": 1, "j": 1, "k": 1, "c": "1"},
        {"i": 2, "j": 2, "k": 2, "c": "1"},
        {"i": 3, "j": 3, "k": 3, "c": "-1"},
        {"i": 4, "j": 4, "k": 4, "c": "-1"},
    ]}
    linsys = {"r": 1, "n": 4, "rows": [IRR_ROW], "assume_irrational": True}
    decomp = {"n": 4, "pairs": [
        {"A": ["1", "1", "0", "0"],
         "B": [{"i": 1, "j": 1, "c": "1"}, {"i": 1, "j": 2, "c": "-1"}, {"i": 2, "j": 2, "c": "1"}]},
        {"A": ["0", "0", "-1", "-1"],
         "B": [{"i": 3, "j": 3, "c": "1"}, {"i": 3, "j": 4, "c": "-1"}, {"i": 4, "j": 4, "c": "1"}]},
    ]}
    config = {"form": "taxicab.json", "linsys": "linsys.json", "decomp": "decomp.json",
              "tau": [0.3], "eta": 0.05, "P_grid": [8, 12], "seed": 7, "Q": 6,
              "schedule": [4, 8, 16, 32], "samples": 16384}
    (tmp_path / "taxicab.json").write_text(json.dumps(form))
    (tmp_path / "linsys.json").write_text(json.dumps(linsys))
    (tmp_path / "decomp.json").write_text(json.dumps(decomp))
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path
