"""Exact truncated bivariate power series and the functional-equation checks.

A series is truncated in x at a fixed order; each x-coefficient is a finite
polynomial in y, and every coefficient is an `int`.  The public constructors
and `scale` raise `TypeError` on anything else (a float or a Fraction), and
they and `shift_x` raise `ValueError` on a negative exponent; every internal
result passes one gate, `BiSeries._of`, which drops rows past the order,
zeros and empty rows.  In between, ints are only added and multiplied (in
place, one row per x-power).  Square roots and reciprocals are computed
order by order in x and require constant term 1; a square root halves each
residual with `formulas.exact_div`, the raising integer division that every
closed form uses, so a root that is not integral raises `ArithmeticError` at
the first row that would need a 1/2.

G is solved by its triangular coefficient recurrence, since [x^n] of the
right-hand side of its equation reads only G_0..G_{n-1}; I is linear in
itself, I = A + B I with B(0) = 0, and solved by the same kind of recurrence.  Each solution is substituted
back into its defining equation, and a mismatch raises `ArithmeticError`.
"""
from __future__ import annotations

from functools import lru_cache
from typing import TypeAlias

from .formulas import exact_div
from .lattice import QPoly
from .words import binomial

YPoly: TypeAlias = dict[int, int]


def _addmul(row: YPoly, a: YPoly, b: YPoly) -> None:
    """row += a * b in place; `BiSeries._of` drops the zeros left."""
    get = row.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            row[k] = get(k, 0) + va * vb


class BiSeries:
    """Truncated series in x whose coefficients are y-polynomials."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, YPoly] | None = None):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = coeffs or {}
        for n, poly in coeffs.items():
            if n < 0 or min(poly, default=0) < 0:
                raise ValueError("exponents must be nonnegative")
            for v in poly.values():
                if type(v) is not int:
                    raise TypeError(f"series coefficients must be int, not {v!r}")
        self.order = order
        self.coeffs: dict[int, YPoly] = BiSeries._of(order, coeffs).coeffs

    @classmethod
    def _of(cls, order: int, coeffs: dict[int, YPoly]) -> "BiSeries":
        """Internal results: drop rows past `order`, zeros and empty rows."""
        s = object.__new__(cls)
        s.order = order
        s.coeffs = {}
        for n, poly in coeffs.items():
            if n <= order:
                row = {k: v for k, v in poly.items() if v}
                if row:
                    s.coeffs[n] = row
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, order: int, value: int) -> "BiSeries":
        return cls(order, {0: {0: value}})

    @classmethod
    def monomial(cls, order: int, n: int, k: int, value: int = 1) -> "BiSeries":
        return cls(order, {n: {k: value}})

    @classmethod
    def from_terms(cls, order: int, terms: dict[tuple[int, int], int]) -> "BiSeries":
        coeffs: dict[int, YPoly] = {}
        for (n, k), v in terms.items():
            coeffs.setdefault(n, {})[k] = v
        return cls(order, coeffs)

    # -- access -------------------------------------------------------------

    def coefficient(self, n: int, k: int | None = None):
        if n > self.order:
            raise ValueError(f"order {n} beyond truncation {self.order}")
        poly = self.coeffs.get(n, {})
        if k is None:
            return dict(poly)
        return poly.get(k, 0)

    def y_polynomial(self, n: int) -> QPoly:
        """The x^n coefficient as a polynomial in q."""
        return QPoly(self.coefficient(n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def agrees_with(self, other: "BiSeries", through: int) -> bool:
        return all(
            self.coeffs.get(n, {}) == other.coeffs.get(n, {})
            for n in range(min(through, self.order, other.order) + 1)
        )

    def __repr__(self) -> str:
        return f"BiSeries(order={self.order}, {self.coeffs!r})"

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "BiSeries") -> "BiSeries":
        return self._plus(other, 1)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self._plus(other, -1)

    def _plus(self, other: "BiSeries", sign: int) -> "BiSeries":
        out = {n: dict(p) for n, p in self.coeffs.items()}
        for n, p in other.coeffs.items():
            _addmul(out.setdefault(n, {}), p, {0: sign})
        return BiSeries._of(min(self.order, other.order), out)

    def scale(self, c: int) -> "BiSeries":
        return self * BiSeries.constant(self.order, c)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        """A single-term operand (x, y, x^2 y) costs one `_addmul` per row of
        the other: a shift of its exponents."""
        order = min(self.order, other.order)
        rows = sorted(other.coeffs.items())
        out: dict[int, YPoly] = {}
        for na, pa in self.coeffs.items():
            for nb, pb in rows:
                if na + nb > order:
                    break
                _addmul(out.setdefault(na + nb, {}), pa, pb)
        return BiSeries._of(order, out)

    def shift_x(self, exponent: int) -> "BiSeries":
        """Multiply by x^exponent."""
        if exponent < 0:
            raise ValueError("exponents must be nonnegative")
        return BiSeries._of(self.order, {n + exponent: p for n, p in self.coeffs.items()})

    def substitute_x_squared(self, order: int | None = None) -> "BiSeries":
        """x -> x^2; the result is reliable through twice the source order."""
        target = 2 * self.order if order is None else order
        if target > 2 * self.order + 1:
            raise ValueError("source order too small for requested truncation")
        return BiSeries._of(target, {2 * n: p for n, p in self.coeffs.items()})

    def odd_part_half_shift(self) -> "BiSeries":
        """Sum of a_{2t+1} x^{t+1} over the odd x-coefficients a_s.

        This realizes the square-root substitution that selects odd powers:
        the result never leaves integer x-exponents.  The source must be
        truncated at least at 2*order - 1 for the result to be full.
        """
        odd = {(n + 1) // 2: p for n, p in self.coeffs.items() if n % 2 == 1}
        return BiSeries._of((self.order + 1) // 2, odd)

    def _unit_constant(self) -> None:
        if self.coeffs.get(0, {}) != {0: 1}:
            raise ValueError("operation requires constant term 1")

    def inverse(self) -> "BiSeries":
        """Reciprocal of a series with constant term 1, order by order."""
        self._unit_constant()
        terms = sorted(self.coeffs.items())[1:]  # past the constant 1
        inv: dict[int, YPoly] = {0: {0: 1}}
        for n in range(1, self.order + 1):
            acc: YPoly = {}
            for i, p in terms:
                if i > n:
                    break
                _addmul(acc, p, inv[n - i])
            inv[n] = {}
            _addmul(inv[n], acc, {0: -1})
        return BiSeries._of(self.order, inv)

    def sqrt(self) -> "BiSeries":
        """Square root of a series with constant term 1, order by order."""
        self._unit_constant()
        root: dict[int, YPoly] = {0: {0: 1}}
        for n in range(1, self.order + 1):
            cross: YPoly = {}
            for i in range(1, n):
                _addmul(cross, root[i], root[n - i])
            residual = dict(self.coeffs.get(n, {}))
            _addmul(residual, cross, {0: -1})
            root[n] = {k: exact_div(v, 2) for k, v in residual.items() if v}
        return BiSeries._of(self.order, root)

    def divide_monomial(self, n: int, k: int) -> "BiSeries":
        """Exact division by x^n y^k; every term must carry at least that much.

        The truncation order drops by n: the top n coefficients of the
        quotient would need source terms beyond the truncation.
        """
        out: dict[int, YPoly] = {}
        for xn, p in self.coeffs.items():
            if xn < n or min(p) < k:
                raise ArithmeticError(f"a term is not divisible by x^{n} y^{k}")
            out[xn - n] = {yk - k: v for yk, v in p.items()}
        return BiSeries._of(self.order - n, out)


def _xy(order: int) -> tuple[BiSeries, BiSeries, BiSeries]:
    return (
        BiSeries.constant(order, 1),
        BiSeries.monomial(order, 1, 0),
        BiSeries.monomial(order, 0, 1),
    )


def _g_coefficients(order: int) -> dict[int, YPoly]:
    """G_0..G_order by the triangular recurrence of G's equation.

    For n >= 1, [x^n] of 1 + x y G + x (G - 1) + x^2 y G (G - 1) is
    (y + 1) G_{n-1} - [n = 1] + y * sum_{j=1}^{n-2} G_{n-2-j} G_j,
    which reads only lower coefficients.
    """
    g: dict[int, YPoly] = {0: {0: 1}}
    for n in range(1, order + 1):
        inner = dict(g[n - 1])
        for j in range(1, n - 1):
            _addmul(inner, g[n - 2 - j], g[j])
        g[n] = dict(g[n - 1]) if n > 1 else {}  # G_0 - 1 = 0
        _addmul(g[n], inner, {1: 1})
    return g


@lru_cache(maxsize=None)
def _solve_g(order: int) -> BiSeries:
    one, x, y = _xy(order)
    g = BiSeries._of(order, _g_coefficients(order))
    rhs = one + x * y * g + x * (g - one) + x.shift_x(1) * y * g * (g - one)
    if rhs != g:
        raise ArithmeticError("solved series does not satisfy its equation")
    return g


def ffrr_avoider_series(order: int) -> BiSeries:
    """Count paths with no 'ffrr' factor by (semi-length, peaks).

    Unique series with constant term 1 solving
    G = 1 + x y G + x (G - 1) + x^2 y G (G - 1).
    """
    return _solve_g(order)


def path_image_series(order: int) -> BiSeries:
    """Upward-pop image census over all semi-lengths: F = 1 + x(G-1) + xy."""
    one, x, y = _xy(order)
    g = ffrr_avoider_series(order)
    return one + x * (g - one) + x * y


@lru_cache(maxsize=None)
def _solve_i(order: int) -> BiSeries:
    # I = 1 + x^2 y I + x I + x^4 y I (G(x^2,y)-1) + x^3 y (G(x^2,y)-1) - x + xy
    one, x, y = _xy(order)
    g2 = _solve_g((order + 1) // 2).substitute_x_squared(order)
    gm1 = g2 - one
    # Linear in I: I = A + B I with A = 1 - x + xy + x^3 y (G(x^2)-1),
    # B = x^2 y + x + x^4 y (G(x^2)-1).  B(0) = 0, so I_n = A_n +
    # sum_{j>=1} B_j I_{n-j}; the result is substituted back into the equation.
    a = one - x + x * y + x.shift_x(2) * y * gm1
    terms = sorted((x.shift_x(1) * y + x + x.shift_x(3) * y * gm1).coeffs.items())
    rows: dict[int, YPoly] = {}
    for n in range(order + 1):
        rows[n] = dict(a.coeffs.get(n, {}))
        for j, p in terms:
            if j > n:
                break
            _addmul(rows[n], p, rows[n - j])
    i = BiSeries._of(order, rows)
    rhs = (
        one
        + x.shift_x(1) * y * i
        + x * i
        + x.shift_x(3) * y * i * gm1
        + x.shift_x(2) * y * gm1
        - x
        + x * y
    )
    if rhs != i:
        raise ArithmeticError("solved series does not satisfy its equation")
    return i


def symmetric_avoider_series(order: int) -> BiSeries:
    """Count midpoint-symmetric 'ffrr'-avoiding paths by semi-length and by
    peaks in the left half."""
    return _solve_i(order)


def symmetric_image_series(order: int) -> BiSeries:
    """Type-B upward-pop image census: odd-part extraction of the symmetric
    avoider series, one x per unit of rank."""
    inner = symmetric_avoider_series(2 * order)
    one = BiSeries.constant(order, 1)
    return one + inner.odd_part_half_shift()


def tamari_block_series(order: int) -> BiSeries:
    """Type-A Tamari image elements by (length, doubled descent count).

    Built from the closed-form coefficients C(2k,k)/(k+1) * C(m-1, 2k).
    """
    terms: dict[tuple[int, int], int] = {}
    for m in range(1, order + 1):
        for k in range(m // 2 + 1):
            value = exact_div(binomial(2 * k, k), k + 1) * binomial(m - 1, 2 * k)
            if value:
                terms[(m, 2 * k)] = value
    return BiSeries.from_terms(order, terms)


def tamari_image_series(order: int) -> dict[str, BiSeries]:
    """Assemble the type-B Tamari image series from the block series.

    P collects image elements starting with a large value, Q the rest;
    N = P + Q is graded by descents, K regrades N by upward covers.
    """
    one, x, y = _xy(order)
    m = tamari_block_series(order)
    geom = (one - y * m).inverse()
    p = y * y * m * m * geom
    q = m * geom
    n = p + q
    k_coeffs: dict[int, YPoly] = {}
    for xn, poly in n.coeffs.items():
        row = k_coeffs[xn] = {}
        for d, v in poly.items():
            u = xn - (d + 1) // 2
            row[u] = row.get(u, 0) + v
    k = BiSeries._of(order, k_coeffs)
    return {"M": m, "P": p, "Q": q, "N": n, "K": k}


def radical_symmetric_series(order: int) -> BiSeries:
    """(w^2 + 4z)^(-1/2) with z = xy/(x-1) and w = xy + 1.

    1/(x-1) expands as minus the geometric series.
    """
    one, x, y = _xy(order)
    geom = (one - x).inverse()  # 1/(1-x)
    z = x * y * geom.scale(-1)
    w = x * y + one
    return (w * w + z.scale(4)).sqrt().inverse()


def radical_check_symmetric(order: int) -> bool:
    """Does the radical closed form agree with the solved image series?"""
    lhs = radical_symmetric_series(order)
    rhs = symmetric_image_series(order)
    return lhs.agrees_with(rhs, order)


def radical_block_series(order: int) -> BiSeries:
    """Radical closed form of the block series:
    x (1 - x - sqrt((1-x)^2 - 4 x^2 y^2)) / (2 x^2 y^2)."""
    work = order + 2  # the monomial division costs two orders of precision
    one, x, y = _xy(work)
    inner = one - x.scale(2) + x * x - (x * y).scale(4) * x * y
    numerator = one - x - inner.sqrt()
    quotient = numerator.divide_monomial(2, 2)
    # times x/2: the numerator's coefficients are even, so halve them exactly
    return BiSeries._of(order, {n + 1: {k: exact_div(v, 2) for k, v in p.items()}
                                for n, p in quotient.coeffs.items()})
