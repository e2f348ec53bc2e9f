"""Exact scalar arithmetic: arbitrary-precision rationals and binomial coefficients.

Every division in this package is either rational (a ``fractions.Fraction``)
or a checked exact integer division; no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def gen_binomial(a: int, k: int) -> int:
    """Binomial coefficient with an arbitrary integer top.

    Returns 0 for k < 0, otherwise the exact integer
    a*(a-1)*...*(a-k+1) / k!.  Negative tops are allowed, e.g.
    gen_binomial(-3, 2) == 6.
    """
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k)
    # Reflection: a(a-1)...(a-k+1) = (-1)^k (k-a-1)(k-a-2)...(-a).
    return comb(k - a - 1, k) if k % 2 == 0 else -comb(k - a - 1, k)


def frac_binomial(a: int | Fraction, k: int) -> Fraction:
    """Binomial coefficient whose top may be any exact rational."""
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= a - i
    return num / factorial(k)


def exact_div(a: int, b: int) -> int:
    """Integer division that must leave no remainder."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact integer division {a} / {b}")
    return q
