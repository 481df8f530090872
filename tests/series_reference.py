"""The series kernel's first arithmetic, kept as the reference oracle.

Every operation here builds a new y-polynomial per pair of terms and sends
each result through the public `BiSeries` constructor, so every coefficient
passes its int check.  `copying_arithmetic` swaps these operations, the first
G recurrence and the first solve of I (by inversion) into `BiSeries` and
`series` for the length of a `with` block, so the series functions can be
run once on each kernel and compared.
"""
from contextlib import contextmanager
from functools import lru_cache

from poplat import series
from poplat.series import BiSeries, YPoly


def yp_add(a: YPoly, b: YPoly) -> YPoly:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def yp_scale(a: YPoly, c) -> YPoly:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def yp_mul(a: YPoly, b: YPoly) -> YPoly:
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


def add(self, other):
    order = min(self.order, other.order)
    out = {}
    for n in range(order + 1):
        poly = yp_add(self.coeffs.get(n, {}), other.coeffs.get(n, {}))
        if poly:
            out[n] = poly
    return BiSeries(order, out)


def sub(self, other):
    return self + other.scale(-1)


def scale(self, c):
    return BiSeries(self.order, {n: yp_scale(p, c) for n, p in self.coeffs.items()})


def mul(self, other):
    order = min(self.order, other.order)
    out = {n: {} for n in range(order + 1)}
    for na, pa in self.coeffs.items():
        if na > order:
            continue
        for nb, pb in other.coeffs.items():
            n = na + nb
            if n > order:
                continue
            out[n] = yp_add(out[n], yp_mul(pa, pb))
    return BiSeries(order, out)


def inverse(self):
    self._unit_constant()
    inv = {0: {0: 1}}
    for n in range(1, self.order + 1):
        acc = {}
        for i in range(1, n + 1):
            bi = self.coeffs.get(i)
            if bi:
                acc = yp_add(acc, yp_mul(bi, inv.get(n - i, {})))
        negated = yp_scale(acc, -1)
        if negated:
            inv[n] = negated
    return BiSeries(self.order, inv)


def halve(v: int) -> int:
    """v / 2, raising on an odd v: the root is not integral."""
    q, r = divmod(v, 2)
    if r:
        raise ArithmeticError(f"{v} is odd: the square root is not integral")
    return q


def sqrt(self):
    self._unit_constant()
    root = {0: {0: 1}}
    for n in range(1, self.order + 1):
        cross = {}
        for i in range(1, n):
            cross = yp_add(cross, yp_mul(root.get(i, {}), root.get(n - i, {})))
        residual = yp_add(self.coeffs.get(n, {}), yp_scale(cross, -1))
        if residual:
            root[n] = {k: halve(v) for k, v in residual.items()}
    return BiSeries(self.order, root)


def g_coefficients(order: int) -> dict[int, YPoly]:
    """G_0..G_order: (y + 1) G_{n-1} - [n = 1] + y sum_{j=1}^{n-2} G_{n-2-j} G_j."""
    y = {1: 1}
    g = {0: {0: 1}}
    for n in range(1, order + 1):
        cross = {}
        for j in range(1, n - 1):
            cross = yp_add(cross, yp_mul(g[n - 2 - j], g[j]))
        prev = g[n - 1]
        coeff = yp_add(prev, yp_mul(y, yp_add(prev, cross)))
        if n == 1:
            coeff = yp_add(coeff, {0: -1})
        g[n] = coeff
    return g


@lru_cache(maxsize=None)
def solve_i(order: int) -> BiSeries:
    """The first solve of I = A + B I: A / (1 - B), by one series inversion."""
    one, x, y = series._xy(order)
    gm1 = series._solve_g((order + 1) // 2).substitute_x_squared(order) - one
    a = one - x + x * y + x.shift_x(2) * y * gm1
    b = x.shift_x(1) * y + x + x.shift_x(3) * y * gm1
    return a * (one - b).inverse()


def clear_caches() -> None:
    series._solve_g.cache_clear()
    series._solve_i.cache_clear()


@contextmanager
def copying_arithmetic(monkeypatch):
    """Run the block on the reference arithmetic, with cold solver caches."""
    clear_caches()
    with monkeypatch.context() as patch:
        for name, fn in (("__add__", add), ("__sub__", sub), ("scale", scale),
                         ("__mul__", mul), ("inverse", inverse), ("sqrt", sqrt)):
            patch.setattr(BiSeries, name, fn)
        patch.setattr(series, "_g_coefficients", g_coefficients)
        patch.setattr(series, "_solve_i", solve_i)
        try:
            yield
        finally:
            clear_caches()
