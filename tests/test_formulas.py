import pytest

from poplat.families import FORMULAS, SERIES
from poplat.formulas import (
    census_prediction,
    exact_div,
    h_coefficient,
    j_a_polynomial,
    j_b_polynomial,
    n_coefficient,
    tam_a_polynomial,
    tam_b_polynomial,
    weak_b_coefficient,
)
from poplat.lattice import QPoly
from poplat.series import ffrr_avoider_series
from poplat.words import binomial


def k_coefficient(n, k):
    """Coefficient of q^{n-k} in `tam_b_polynomial`, directly."""
    return binomial(n - 1, k) * binomial(n - k + 1, k)


def test_weak_b_coefficient_values():
    assert [weak_b_coefficient(n) for n in (1, 2, 3, 4, 5)] == [0, 4, 20, 72, 232]
    with pytest.raises(ValueError, match=r"^--n must be at least 1, got 0$"):
        FORMULAS["weak-b"].admit_formula(0)  # refused before the closed form runs


def test_census_prediction_totals():
    for n in range(1, 8):
        assert sum(census_prediction(n).values()) == weak_b_coefficient(n)
    assert census_prediction(2) == {1: 1, 2: 2, 3: 1, 4: 0}


def test_tam_a_polynomial():
    assert tam_a_polynomial(1) == QPoly({1: 1})
    assert tam_a_polynomial(2) == QPoly({2: 1, 1: 1})
    assert tam_a_polynomial(3) == QPoly({3: 1, 2: 3})
    motzkin = [1, 2, 4, 9, 21, 51, 127]
    assert [sum(tam_a_polynomial(n).coeffs.values()) for n in range(1, 8)] == motzkin


def test_tam_b_polynomial():
    assert tam_b_polynomial(1) == QPoly({1: 1})
    assert tam_b_polynomial(2) == QPoly({2: 1, 1: 2})
    assert tam_b_polynomial(3) == QPoly({3: 1, 2: 6, 1: 1})


def test_j_a_polynomial():
    assert j_a_polynomial(0) == QPoly({1: 1})
    assert j_a_polynomial(1) == QPoly({1: 1, 2: 1})
    assert j_a_polynomial(2) == QPoly({1: 1, 2: 3, 3: 1})
    totals = [sum(j_a_polynomial(n).coeffs.values()) for n in range(5)]
    assert totals == [1, 2, 5, 13, 35]


def test_j_b_polynomial_variants():
    assert j_b_polynomial(1) == QPoly({1: 1})
    assert j_b_polynomial(2) == QPoly({1: 2, 2: 1})
    assert j_b_polynomial(2, include_j0=False) == QPoly({1: 2})
    # the two variants differ by exactly (-1)^n q^n
    for n in range(1, 9):
        delta = j_b_polynomial(n) - j_b_polynomial(n, include_j0=False)
        assert delta == QPoly({n: (-1) ** n})


def test_h_coefficient_small_values():
    assert h_coefficient(1, 1) == 1  # the path rf
    assert h_coefficient(2, 1) == 1  # rrff
    assert h_coefficient(2, 2) == 1  # rfrf
    assert h_coefficient(3, 1) == 1
    # k = 0 is the constant term: the G check, the only caller to meet it,
    # reads it off its own branch and calls the closed form from k = 1 up
    assert SERIES["G"].checks["closed_form_coefficients"](ffrr_avoider_series(3), 3)


def test_n_and_k_coefficients():
    assert [n_coefficient(2, d) for d in (0, 1, 2, 3)] == [1, 1, 1, 0]
    assert [n_coefficient(3, d) for d in (0, 1, 2, 3)] == [1, 2, 4, 1]
    for n in range(1, 10):
        for k in range(n + 2):
            assert k_coefficient(n, k) == tam_b_polynomial(n)[n - k]
        # regrading: descents 2k and 2k-1 pool into the same cover count
        for k in range(n + 1):
            assert n_coefficient(n, 2 * k) + n_coefficient(n, 2 * k - 1) == k_coefficient(n, k)


def test_exact_div():
    assert exact_div(6, 3) == 2
    with pytest.raises(ArithmeticError):
        exact_div(7, 3)
