from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poplat import series
from poplat.dyck import all_paths, is_symmetric, symmetric_paths
from poplat.formulas import (
    h_coefficient,
    j_a_polynomial,
    j_b_polynomial,
    n_coefficient,
    tam_b_polynomial,
)
from poplat.families import SERIES
from poplat.lattice import QPoly
from poplat.series import (
    BiSeries,
    ffrr_avoider_series,
    path_image_series,
    radical_block_series,
    radical_check_symmetric,
    radical_symmetric_series,
    symmetric_avoider_series,
    symmetric_image_series,
    tamari_block_series,
    tamari_image_series,
)
from poplat.tamari import pop_tam_a, pop_tam_b, tam_a_elements, tam_b_elements
from series_reference import clear_caches, copying_arithmetic, yp_add
from word_stats import descent_count, half_peak_count, peak_count


def at_y1(s, n):
    """The x^n coefficient of s evaluated at y = 1."""
    return sum(s.coefficient(n).values(), 0)


def test_arithmetic_basics():
    one = BiSeries.constant(10, 1)
    u = BiSeries.monomial(10, 1, 1)  # u = x*y
    assert (one + u) * (one - u) == one - u * u
    s = one - BiSeries.monomial(10, 1, 0).scale(4)  # 1 - 4x
    root = s.sqrt()
    assert root * root == s
    assert root.coefficient(1, 0) == -2
    assert s.sqrt().inverse() * root == one
    inv = (one - BiSeries.monomial(10, 1, 0)).inverse()
    assert all(inv.coefficient(n, 0) == 1 for n in range(11))


def test_odd_part_extraction():
    s = BiSeries.from_terms(9, {(1, 0): 3, (2, 0): 5, (3, 1): 7, (5, 2): 11})
    odd = s.odd_part_half_shift()
    assert odd.coefficient(1, 0) == 3
    assert odd.coefficient(2, 1) == 7
    assert odd.coefficient(3, 2) == 11
    assert odd.coefficient(1, 1) == 0


def test_negative_exponents_raise():
    with pytest.raises(ValueError):
        BiSeries.monomial(4, -1, 0)
    with pytest.raises(ValueError):
        BiSeries.from_terms(4, {(2, -3): 5})
    with pytest.raises(ValueError):
        BiSeries(4, {-1: {0: 1}})
    with pytest.raises(ValueError):
        BiSeries.constant(4, 1).shift_x(-1)


def test_a_float_raises_even_when_zero_or_past_the_order():
    with pytest.raises(TypeError):
        BiSeries.constant(3, 0.0)
    with pytest.raises(TypeError):
        BiSeries.from_terms(3, {(1, 0): 0.0})
    with pytest.raises(TypeError):
        BiSeries.monomial(3, 5, 0, 0.5)
    with pytest.raises(TypeError):
        BiSeries.constant(3, 1).scale(0.0)


def test_divide_requires_unit_constant():
    s = BiSeries.monomial(5, 1, 0)
    with pytest.raises(ValueError):
        s.inverse()
    with pytest.raises(ValueError):
        s.sqrt()


def test_ffrr_avoider_series_values():
    g = ffrr_avoider_series(8)
    assert g.y_polynomial(0) == QPoly({0: 1})
    assert g.y_polynomial(2) == QPoly({1: 1, 2: 1})
    assert at_y1(g, 4) == 13


def test_ffrr_avoider_series_matches_enumeration():
    g = ffrr_avoider_series(8)
    for m in range(9):
        expected: dict[int, int] = {}
        for p in all_paths(m):
            if "ffrr" not in p:
                k = peak_count(p)
                expected[k] = expected.get(k, 0) + 1
        assert g.y_polynomial(m) == QPoly(expected), m


def test_h_closed_form_matches_series():
    g = ffrr_avoider_series(12)
    for n in range(13):
        for k in range(1, n + 1):
            assert g.coefficient(n, k) == h_coefficient(n, k), (n, k)
        assert g.coefficient(n, 0) == (1 if n == 0 else 0)


def test_path_image_series():
    f = path_image_series(12)
    assert f.y_polynomial(1) == QPoly({1: 1})
    assert f.y_polynomial(2) == QPoly({1: 1})
    for n in range(11):
        assert f.y_polynomial(n + 2) == j_a_polynomial(n), n


def test_symmetric_avoider_series_matches_enumeration():
    i = symmetric_avoider_series(12)
    for m in range(10):
        expected: dict[int, int] = {}
        if m % 2 == 0:
            pool = symmetric_paths(m // 2)
        else:
            pool = tuple(
                p for p in all_paths(m) if is_symmetric(p)
            )
        for p in pool:
            if "ffrr" not in p:
                k = half_peak_count(p)
                expected[k] = expected.get(k, 0) + 1
        assert i.y_polynomial(m) == QPoly(expected), m


def test_symmetric_image_series():
    j = symmetric_image_series(10)
    assert j.y_polynomial(0) == QPoly({0: 1})
    assert j.y_polynomial(1) == QPoly({1: 1})
    assert at_y1(j, 2) == 3
    assert at_y1(j, 3) == 9
    for n in range(1, 11):
        assert j.y_polynomial(n) == j_b_polynomial(n), n


def test_radical_forms():
    assert radical_check_symmetric(10)
    r = radical_symmetric_series(10)
    assert r.coefficient(0, 0) == 1
    assert [int(at_y1(r, n)) for n in (0, 1, 2, 3)] == [1, 1, 3, 9]
    assert tamari_block_series(12).agrees_with(radical_block_series(12), 12)


def test_tamari_block_series_matches_enumeration():
    m_series = tamari_block_series(7)
    for length in range(1, 8):
        expected: dict[int, int] = {}
        carrier = tam_a_elements(length - 1)
        for z in {pop_tam_a(p) for p in carrier}:
            d = 2 * descent_count(z)
            expected[d] = expected.get(d, 0) + 1
        assert m_series.y_polynomial(length) == QPoly(expected), length


def test_tamari_image_series_matches_enumeration():
    bundle = tamari_image_series(8)
    n_series, k_series = bundle["N"], bundle["K"]
    p_series, q_series = bundle["P"], bundle["Q"]
    for n in range(1, 5):
        by_descents: dict[int, int] = {}
        first_large: dict[int, int] = {}
        first_small: dict[int, int] = {}
        image = {pop_tam_b(x) for x in tam_b_elements(n)}
        for z in image:
            d = descent_count(z)
            by_descents[d] = by_descents.get(d, 0) + 1
            bucket = first_large if z[0] >= n + 1 else first_small
            bucket[d] = bucket.get(d, 0) + 1
        assert n_series.y_polynomial(n) == QPoly(by_descents), n
        assert p_series.y_polynomial(n) == QPoly(first_large), n
        assert q_series.y_polynomial(n) == QPoly(first_small), n
    for n in range(1, 9):
        assert k_series.y_polynomial(n) == tam_b_polynomial(n), n


def test_n_closed_form_matches_series():
    n_series = tamari_image_series(12)["N"]
    for n in range(1, 13):
        for d in range(n + 1):
            assert n_series.coefficient(n, d) == n_coefficient(n, d), (n, d)


def test_fixed_point_contraction_guard():
    # solving at a higher order extends, never changes, lower coefficients
    low = ffrr_avoider_series(6)
    high = ffrr_avoider_series(12)
    assert high.agrees_with(low, 6)
    low_i = symmetric_avoider_series(6)
    high_i = symmetric_avoider_series(12)
    assert high_i.agrees_with(low_i, 6)
    # J's radical check reads the order-16 solve through order 10
    assert symmetric_image_series(16).agrees_with(symmetric_image_series(10), 10)


def fixed_point_g(order: int) -> BiSeries:
    """Reference solver for G: iterate the defining equation from G = 1.

    The right-hand side is an x-adic contraction, so round r fixes the
    coefficients through x^r; each round is checked to keep them.
    """
    one = BiSeries.constant(order, 1)
    x = BiSeries.monomial(order, 1, 0)
    y = BiSeries.monomial(order, 0, 1)
    g = one
    for round_no in range(order + 1):
        nxt = one + x * y * g + x * (g - one) + x.shift_x(1) * y * g * (g - one)
        if not nxt.agrees_with(g, round_no):
            raise ArithmeticError("fixed-point iteration lost agreement")
        if nxt == g:
            return g
        g = nxt
    nxt = one + x * y * g + x * (g - one) + x.shift_x(1) * y * g * (g - one)
    if nxt != g:
        raise ArithmeticError("fixed point not reached within order+1 rounds")
    return g


def test_g_recurrence_matches_fixed_point():
    for order in range(17):
        assert ffrr_avoider_series(order) == fixed_point_g(order), order


def test_g_substitution_check_rejects_a_wrong_coefficient(monkeypatch):
    recurrence = series._g_coefficients

    for n in range(7):
        def perturbed(order, n=n):
            g = recurrence(order)
            g[n] = yp_add(g[n], {2: 1})
            return g

        monkeypatch.setattr(series, "_g_coefficients", perturbed)
        series._solve_g.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="does not satisfy"):
                series._solve_g(6)
        finally:
            series._solve_g.cache_clear()
    monkeypatch.undo()
    assert series._solve_g(6) == fixed_point_g(6)


def all_coefficients(s: BiSeries):
    return [v for poly in s.coeffs.values() for v in poly.values()]


def test_integral_coefficients_are_int():
    bundle = tamari_image_series(16)
    for s in (
        ffrr_avoider_series(16),
        path_image_series(16),
        symmetric_avoider_series(16),
        symmetric_image_series(16),
        radical_symmetric_series(10),
        tamari_block_series(16),
        radical_block_series(16),
        *bundle.values(),
    ):
        assert all(type(v) is int for v in all_coefficients(s))


def test_a_root_that_is_not_integral_raises():
    one = BiSeries.constant(3, 1)
    with pytest.raises(ArithmeticError, match="not divisible by 2"):
        (one + BiSeries.monomial(3, 1, 0)).sqrt()  # sqrt(1 + x) = 1 + x/2 - ...


def test_float_coefficients_raise():
    with pytest.raises(TypeError):
        BiSeries.constant(3, 0.5)
    with pytest.raises(TypeError):
        BiSeries.monomial(3, 1, 0, 2.0)
    with pytest.raises(TypeError):
        BiSeries.from_terms(3, {(1, 0): 1.5})
    with pytest.raises(TypeError):
        BiSeries.constant(3, 1).scale(0.5)
    with pytest.raises(TypeError):
        BiSeries.constant(3, Fraction(4, 2))
    with pytest.raises(TypeError):
        BiSeries.from_terms(3, {(1, 0): Fraction(1, 2)})
    with pytest.raises(TypeError):
        BiSeries.constant(3, 1).scale(Fraction(1))


exact_numbers = st.integers(-6, 6)


@st.composite
def unit_series(draw, order):
    """A series with constant term 1 and integer coefficients."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(1, 8), st.integers(0, 3)), exact_numbers, max_size=10
    ))
    terms[0, 0] = 1
    return BiSeries.from_terms(order, terms)


def to_ring(s: BiSeries, ring):
    return ring.from_dict({(n, k): v for n, poly in s.coeffs.items() for k, v in poly.items()})


def from_ring(p, order: int) -> BiSeries:
    return BiSeries.from_terms(order, {nk: int(c) for nk, c in p.items()})


def is_normalised(s: BiSeries) -> bool:
    """No zero, no empty row, no row past the order, and every coefficient an
    int (so never a float or a Fraction)."""
    return all(0 <= n <= s.order and poly for n, poly in s.coeffs.items()) and all(
        type(v) is int and v != 0 for v in all_coefficients(s)
    )


def every_solved_series() -> dict:
    """Each series the command line solves, and the radical forms its checks read."""
    out = {(name, order): SERIES[name].solve(order) for name in "GFHI" for order in (16, 32)}
    out["J", 16] = SERIES["J"].solve(16)
    out["M", 16] = SERIES["M"].solve(16)
    out["M radical", 16] = radical_block_series(16)
    out.update(((name, 16), s) for name, s in tamari_image_series(16).items())
    out["J radical", 10] = radical_symmetric_series(10)
    return out


def test_kernel_matches_the_copying_reference(monkeypatch):
    clear_caches()
    fast = every_solved_series()
    with copying_arithmetic(monkeypatch):
        slow = every_solved_series()
    assert fast.keys() == slow.keys()
    for key, s in fast.items():
        assert s == slow[key], key
        assert is_normalised(s), key


def single_term(draw, order: int) -> BiSeries:
    """c x^n y^k, possibly past the order or zero (then the empty series)."""
    return BiSeries.monomial(
        order, draw(st.integers(0, 8)), draw(st.integers(0, 3)), draw(exact_numbers)
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_matches_sympy_ring_series(data):
    ring_series = pytest.importorskip("sympy.polys.ring_series")
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring

    ring_xy, x, _ = ring("x,y", ZZ)
    draw = data.draw
    order = draw(st.integers(0, 8))
    a = draw(unit_series(order))
    b = draw(unit_series(draw(st.integers(0, 8))))
    t = single_term(draw, draw(st.integers(0, 8)))
    k = draw(exact_numbers)
    pa, pb, pt = (to_ring(s, ring_xy) for s in (a, b, t))
    low, with_t = min(order, b.order), min(order, t.order)

    expected = {
        "a * b": (a * b, ring_series.rs_mul(pa, pb, x, low + 1), low),
        "a + b": (a + b, pa + pb, low),
        "a - b": (a - b, pa - pb, low),
        "t * a": (t * a, pt * pa, with_t),
        "a * t": (a * t, pa * pt, with_t),
        "scale": (a.scale(k), pa * k, order),
        "inverse": (a.inverse(), ring_series.rs_series_inversion(pa, x, order + 1), order),
    }
    for label, (got, want, want_order) in expected.items():
        assert got == from_ring(want, want_order), label
        assert is_normalised(got), label
    root = (a * a).sqrt()
    assert root == a
    assert is_normalised(root)
