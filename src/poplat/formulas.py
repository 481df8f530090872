"""Closed-form counting formulas evaluated with exact integer arithmetic.

Every fractional prefactor is an exact integer division that raises on a
nonzero remainder; integrality is part of what is being verified.
"""
from __future__ import annotations

from .lattice import QPoly
from .words import binomial


def exact_div(numerator: int, denominator: int) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(f"{numerator} is not divisible by {denominator}")
    return q


def weak_b_coefficient(n: int) -> int:
    """Count of signed pop-image elements with n-1 upward covers: 3^n - 2n - 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 3**n - 2 * n - 1


def census_prediction(n: int) -> dict[int, int]:
    """Predicted first-entry split of the count behind `weak_b_coefficient`."""
    if n < 1:
        raise ValueError("n must be at least 1")
    counts = {1: 3 ** (n - 1) - n}
    for i in range(2, n + 1):
        counts[i] = 2 ** (i - 1) * 3 ** (n - i)
    for i in range(n + 1, 2 * n + 1):
        counts[i] = 2 ** (2 * n - i) - 1
    return counts


def tam_a_polynomial(n: int) -> QPoly:
    """Image census of the type-A Tamari lattice inside S_{n+1}.

    Evaluating at q = 1 yields the Motzkin numbers.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    coeffs: dict[int, int] = {}
    for k in range(n // 2 + 1):
        term = exact_div(binomial(2 * k, k), k + 1) * binomial(n, 2 * k)
        if term:
            coeffs[n - k] = coeffs.get(n - k, 0) + term
    return QPoly(coeffs)


def tam_b_polynomial(n: int) -> QPoly:
    """Image census of the type-B Tamari lattice on rank-n signed permutations."""
    if n < 1:
        raise ValueError("n must be at least 1")
    coeffs: dict[int, int] = {}
    for k in range((n + 1) // 2 + 1):
        term = binomial(n - 1, k) * binomial(n + 1 - k, k)
        if term:
            coeffs[n - k] = coeffs.get(n - k, 0) + term
    return QPoly(coeffs)


def j_a_polynomial(n: int) -> QPoly:
    """Image census of the type-A ideal lattice.

    The formula at index n matches brute force over Dyck paths of semi-length
    n + 2; the off-by-two is a fixed, documented index mapping.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    coeffs: dict[int, int] = {}
    for k in range(n + 1):
        total = 0
        for j in range(n - k + 2):
            total += (
                binomial(k + 1, j - 1)
                * binomial(k + 1, j)
                * binomial(n - j + 1, n - k - j + 1)
            )
        coeff = exact_div(total, k + 1)
        if coeff:
            coeffs[k + 1] = coeff
    return QPoly(coeffs)


def j_b_polynomial(n: int, include_j0: bool = True) -> QPoly:
    """Image census of the type-B ideal lattice.

    With include_j0 the inner sum starts at j = 0, whose only surviving term
    uses the generalized convention binomial(-1, 0) = 1 and contributes
    (-1)^n q^n; only this variant matches enumeration.  include_j0=False is
    the sum as displayed (j from 1), kept so the discrepancy stays visible.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    coeffs: dict[int, int] = {}
    for k in range(n + 1):
        total = 0
        for j in range(0 if include_j0 else 1, k + 1):
            total += (
                binomial(2 * j, j)
                * binomial(k + j, k - j)
                * binomial(n - k + j - 1, n - k, generalized=True)
                * (-1) ** (k - j)
            )
        if total:
            coeffs[k] = total
    return QPoly(coeffs)


def h_coefficient(n: int, k: int) -> int:
    """Coefficient of x^n y^k in the series counting ffrr-avoiding paths by
    semi-length and peaks, minus its constant term; k >= 1."""
    if k < 1:
        raise ValueError("k must be at least 1")
    total = 0
    for j in range(n - k + 1):
        total += (
            binomial(k, j + 1) * binomial(k, j) * binomial(n - j - 1, n - k - j)
        )
    return exact_div(total, k)


def n_coefficient(n: int, d: int) -> int:
    """Count of type-B Tamari image elements of rank n with d descents."""
    if d < 0:
        return 0
    if d % 2 == 0:
        k = d // 2
        return binomial(n - 1, k) * binomial(n - k, k)
    k = (d + 1) // 2
    return binomial(n - 1, k) * binomial(n - k, k - 1)
