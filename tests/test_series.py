import random
from fractions import Fraction

import pytest

from narayana_lab.poly import PolyQQ
from narayana_lab.rationals import gen_binomial
from narayana_lab.series import TruncSeries
from series_oracle import series_inverse

Q = PolyQQ.var_q()
ONE = PolyQQ.one()


def geometric(order: int) -> TruncSeries:
    """(1-u)^{-1}"""
    return series_inverse(TruncSeries([ONE, -ONE], order=order))


def test_inverse_pair():
    one_minus_u = TruncSeries([ONE, -ONE], order=8)
    assert geometric(8) * one_minus_u == TruncSeries.one(8)


def test_cubed_inverse_binomials():
    cubed = geometric(9) * geometric(9) * geometric(9)
    for k in range(10):
        assert cubed.coefficient(k) == PolyQQ.const(gen_binomial(k + 2, k))


def test_div_geometric_in_one_minus_q():
    denom = TruncSeries([ONE, -(ONE - Q)], order=7)
    quot = TruncSeries.one(7) * series_inverse(denom)
    for m in range(8):
        assert quot.coefficient(m) == (ONE - Q) ** m


def test_div_exactness_random():
    rng = random.Random(3)
    for _ in range(60):
        n = 8
        a = TruncSeries(
            [PolyQQ.const(rng.randint(-4, 4)) + Q * rng.randint(-2, 2) for _ in range(n + 1)],
            order=n,
        )
        b_coeffs = [ONE] + [
            PolyQQ.const(rng.randint(-3, 3)) + Q * rng.randint(-2, 2) for _ in range(n)
        ]
        b = TruncSeries(b_coeffs, order=n)
        assert (a * series_inverse(b)) * b == a


def test_mismatched_orders_truncate():
    a = TruncSeries([ONE] * 9, order=8)
    b = TruncSeries([ONE] * 5, order=4)
    assert (a * b).order == 4
    assert (a + b).order == 4


def test_inverse_requires_unit_constant_term():
    with pytest.raises(ArithmeticError):
        series_inverse(TruncSeries([PolyQQ.zero(), ONE], order=3))
    with pytest.raises(ArithmeticError):
        series_inverse(TruncSeries([ONE + Q], order=3))
    # a monomial constant term is a Laurent unit
    inv = series_inverse(TruncSeries([Q], order=2))
    assert inv.coefficient(0) == PolyQQ.monomial(1, -1)


def test_reverse_identity():
    f = TruncSeries([PolyQQ.zero(), ONE] + [PolyQQ.zero()] * 7, order=8)
    assert f.reverse() == f


def test_reverse_geometric():
    # u/(1-u) reverses to u/(1+u): coefficients alternate sign
    f = TruncSeries([PolyQQ.zero()] + [ONE] * 9, order=9)
    rev = f.reverse()
    for k in range(1, 10):
        assert rev.coefficient(k) == PolyQQ.const((-1) ** (k - 1))


def test_reverse_gives_catalan():
    f = TruncSeries([0, 1, -1] + [0] * 8, order=10)
    rev = f.reverse()
    catalans = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    for k, c in enumerate(catalans, start=1):
        assert rev.coefficient(k) == PolyQQ.const(c)


def compose(outer: TruncSeries, inner: TruncSeries) -> TruncSeries:
    """outer(inner(u)) by Horner's rule; inner has a zero constant term."""
    assert inner.coefficient(0).is_zero
    n = min(outer.order, inner.order)
    acc = TruncSeries([outer.coefficient(n)], order=n)
    for k in range(n - 1, -1, -1):
        acc = acc * inner + TruncSeries([outer.coefficient(k)], order=n)
    return acc


def test_reverse_composes_to_identity_random():
    rng = random.Random(9)
    for _ in range(25):
        n = 8
        coeffs = [PolyQQ.zero(), ONE] + [
            PolyQQ.const(rng.randint(-3, 3)) + Q * rng.randint(-2, 2) for _ in range(n - 1)
        ]
        f = TruncSeries(coeffs, order=n)
        g = f.reverse()
        composed = compose(g, f)
        expected = TruncSeries([PolyQQ.zero(), ONE], order=n)
        assert composed == expected


def test_reverse_preconditions():
    with pytest.raises(ValueError):
        TruncSeries([ONE, ONE], order=1).reverse()
    with pytest.raises(ValueError):
        TruncSeries([PolyQQ.zero(), ONE * 2], order=1).reverse()


def test_coefficient_bounds():
    s = TruncSeries.one(3)
    with pytest.raises(IndexError):
        s.coefficient(4)
    with pytest.raises(IndexError):
        s.coefficient(-1)


def test_scalar_coefficients_coerced():
    s = TruncSeries([1, Fraction(1, 2)], order=1)
    assert s.coefficient(1) == PolyQQ.const(Fraction(1, 2))
