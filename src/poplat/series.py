"""Exact truncated bivariate power series and the functional-equation checks.

A series is truncated in x at a fixed order; each x-coefficient is a finite
polynomial in y.  A coefficient is an `int` when it is integral and a
`Fraction` only where a real denominator appears (the 1/2 of a square root);
a float raises `TypeError`, so all arithmetic stays exact.  Square roots and
reciprocals are computed order by order in x and require constant term 1.

G is solved by its triangular coefficient recurrence, since [x^n] of the
right-hand side of its equation reads only G_0..G_{n-1}; I is linear in
itself and solved by one series inversion.  Each solution is substituted
back into its defining equation, and a mismatch raises `ArithmeticError`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .formulas import exact_div
from .lattice import QPoly
from .words import binomial

Exact = int | Fraction
YPoly = dict[int, Exact]


def _exact(v) -> Exact:
    """`v` as an `int` when integral, else as a `Fraction`; floats raise."""
    if isinstance(v, int):
        return int(v)
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    raise TypeError(f"series coefficients must be int or Fraction, not {v!r}")


def _yp_add(a: YPoly, b: YPoly) -> YPoly:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _yp_scale(a: YPoly, c: Exact) -> YPoly:
    if not c:
        return {}
    return {k: _exact(v * c) for k, v in a.items()}


def _yp_mul(a: YPoly, b: YPoly) -> YPoly:
    out: YPoly = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


class BiSeries:
    """Truncated series in x whose coefficients are y-polynomials."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, YPoly] | None = None):
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.order = order
        self.coeffs: dict[int, YPoly] = {}
        for n, poly in (coeffs or {}).items():
            if n <= order:
                cleaned = {k: _exact(v) for k, v in poly.items() if v}
                if cleaned:
                    self.coeffs[n] = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, order: int, value) -> "BiSeries":
        return cls(order, {0: {0: value}})

    @classmethod
    def monomial(cls, order: int, n: int, k: int, value=1) -> "BiSeries":
        return cls(order, {n: {k: value}})

    @classmethod
    def from_terms(cls, order: int, terms: dict[tuple[int, int], Exact]) -> "BiSeries":
        coeffs: dict[int, YPoly] = {}
        for (n, k), v in terms.items():
            if n <= order and v:
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
        """The x^n coefficient as an integer polynomial in q (integrality checked)."""
        poly = self.coefficient(n)
        out: dict[int, int] = {}
        for k, v in poly.items():
            if not isinstance(v, int):
                raise ArithmeticError(f"non-integer coefficient at x^{n} y^{k}: {v}")
            out[k] = v
        return QPoly(out)

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
        order = min(self.order, other.order)
        out: dict[int, YPoly] = {}
        for n in range(order + 1):
            poly = _yp_add(self.coeffs.get(n, {}), other.coeffs.get(n, {}))
            if poly:
                out[n] = poly
        return BiSeries(order, out)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + other.scale(-1)

    def scale(self, c) -> "BiSeries":
        c = _exact(c)
        return BiSeries(
            self.order, {n: _yp_scale(p, c) for n, p in self.coeffs.items()}
        )

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        order = min(self.order, other.order)
        out: dict[int, YPoly] = {n: {} for n in range(order + 1)}
        for na, pa in self.coeffs.items():
            if na > order:
                continue
            for nb, pb in other.coeffs.items():
                n = na + nb
                if n > order:
                    continue
                out[n] = _yp_add(out[n], _yp_mul(pa, pb))
        return BiSeries(order, out)

    def shift_x(self, exponent: int) -> "BiSeries":
        """Multiply by x^exponent."""
        return BiSeries(
            self.order,
            {n + exponent: p for n, p in self.coeffs.items() if n + exponent <= self.order},
        )

    def substitute_x_squared(self, order: int | None = None) -> "BiSeries":
        """x -> x^2; the result is reliable through twice the source order."""
        target = 2 * self.order if order is None else order
        if target > 2 * self.order + 1:
            raise ValueError("source order too small for requested truncation")
        return BiSeries(
            target,
            {2 * n: p for n, p in self.coeffs.items() if 2 * n <= target},
        )

    def odd_part_half_shift(self) -> "BiSeries":
        """Sum of a_{2t+1} x^{t+1} over the odd x-coefficients a_s.

        This realizes the square-root substitution that selects odd powers:
        the result never leaves integer x-exponents.  The source must be
        truncated at least at 2*order - 1 for the result to be full.
        """
        out: dict[int, YPoly] = {}
        target = (self.order + 1) // 2
        for n, p in self.coeffs.items():
            if n % 2 == 1:
                t = (n + 1) // 2
                if t <= target:
                    out[t] = p
        return BiSeries(target, out)

    def _unit_constant(self) -> None:
        if self.coeffs.get(0, {}) != {0: 1}:
            raise ValueError("operation requires constant term 1")

    def inverse(self) -> "BiSeries":
        """Reciprocal of a series with constant term 1, order by order."""
        self._unit_constant()
        inv: dict[int, YPoly] = {0: {0: 1}}
        for n in range(1, self.order + 1):
            acc: YPoly = {}
            for i in range(1, n + 1):
                bi = self.coeffs.get(i)
                if bi:
                    acc = _yp_add(acc, _yp_mul(bi, inv.get(n - i, {})))
            negated = _yp_scale(acc, -1)
            if negated:
                inv[n] = negated
        return BiSeries(self.order, inv)

    def sqrt(self) -> "BiSeries":
        """Square root of a series with constant term 1, order by order."""
        self._unit_constant()
        root: dict[int, YPoly] = {0: {0: 1}}
        for n in range(1, self.order + 1):
            cross: YPoly = {}
            for i in range(1, n):
                cross = _yp_add(cross, _yp_mul(root.get(i, {}), root.get(n - i, {})))
            residual = _yp_add(self.coeffs.get(n, {}), _yp_scale(cross, -1))
            half = _yp_scale(residual, Fraction(1, 2))
            if half:
                root[n] = half
        return BiSeries(self.order, root)

    def inv_sqrt(self) -> "BiSeries":
        return self.sqrt().inverse()

    def divide_monomial(self, n: int, k: int) -> "BiSeries":
        """Exact division by x^n y^k; every term must carry at least that much.

        The truncation order drops by n: the top n coefficients of the
        quotient would need source terms beyond the truncation.
        """
        out: dict[int, YPoly] = {}
        for xn, p in self.coeffs.items():
            if xn < n:
                raise ArithmeticError(f"term at x^{xn} not divisible by x^{n}")
            shifted: YPoly = {}
            for yk, v in p.items():
                if yk < k:
                    raise ArithmeticError(f"term y^{yk} not divisible by y^{k}")
                shifted[yk - k] = v
            out[xn - n] = shifted
        return BiSeries(self.order - n, out)


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
    y = {1: 1}
    g: dict[int, YPoly] = {0: {0: 1}}
    for n in range(1, order + 1):
        cross: YPoly = {}
        for j in range(1, n - 1):
            cross = _yp_add(cross, _yp_mul(g[n - 2 - j], g[j]))
        prev = g[n - 1]
        coeff = _yp_add(prev, _yp_mul(y, _yp_add(prev, cross)))
        if n == 1:
            coeff = _yp_add(coeff, {0: -1})
        g[n] = coeff
    return g


@lru_cache(maxsize=None)
def _solve_g(order: int) -> BiSeries:
    one, x, y = _xy(order)
    g = BiSeries(order, _g_coefficients(order))
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
    # B = x^2 y + x + x^4 y (G(x^2)-1).  Solve I = A / (1 - B); the tests
    # substitute the result back into the defining equation.
    a = one - x + x * y + x.shift_x(2) * y * gm1
    b = x.shift_x(1) * y + x + x.shift_x(3) * y * gm1
    i = a * (one - b).inverse()
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
    return one + BiSeries(order, inner.odd_part_half_shift().coeffs)


def tamari_block_series(order: int) -> BiSeries:
    """Type-A Tamari image elements by (length, doubled descent count).

    Built from the closed-form coefficients C(2k,k)/(k+1) * C(m-1, 2k); the
    radical form and the enumeration cross-checks live in the tests.
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
    for xn in range(1, order + 1):
        poly = n.coefficient(xn)
        regraded: YPoly = {}
        for d, v in poly.items():
            u = xn - (d + 1) // 2
            regraded[u] = regraded.get(u, 0) + v
        k_coeffs[xn] = regraded
    k = BiSeries(order, k_coeffs)
    return {"M": m, "P": p, "Q": q, "N": n, "K": k}


def radical_symmetric_series(order: int) -> BiSeries:
    """(w^2 + 4z)^(-1/2) with z = xy/(x-1) and w = xy + 1.

    1/(x-1) expands as minus the geometric series.
    """
    one, x, y = _xy(order)
    geom = (one - x).inverse()  # 1/(1-x)
    z = x * y * geom.scale(-1)
    w = x * y + one
    return (w * w + z.scale(4)).inv_sqrt()


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
    quotient = numerator.divide_monomial(2, 2).scale(Fraction(1, 2)).shift_x(1)
    return BiSeries(order, quotient.coeffs)
