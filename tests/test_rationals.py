import random
from fractions import Fraction

import pytest

from narayana_lab.rationals import exact_div, factorial, frac_binomial, gen_binomial


def test_gen_binomial_examples():
    assert gen_binomial(7, 3) == 35
    assert gen_binomial(-3, 2) == 6
    assert gen_binomial(4, 6) == 0
    assert gen_binomial(5, -1) == 0
    assert gen_binomial(0, 0) == 1
    assert gen_binomial(-1, 0) == 1


def test_gen_binomial_matches_product_formula():
    for a in range(-12, 13):
        for k in range(0, 10):
            num = 1
            for i in range(k):
                num *= a - i
            assert gen_binomial(a, k) * factorial(k) == num


def test_reflection():
    for a in range(-15, 16):
        for k in range(0, 12):
            assert (-1) ** k * gen_binomial(k - a - 1, k) == gen_binomial(a, k)


def test_pascal_recurrence_small_grid():
    for a in range(-10, 11):
        for k in range(1, 8):
            assert gen_binomial(a, k) == gen_binomial(a - 1, k) + gen_binomial(a - 1, k - 1)


def test_factorial_memo():
    assert [factorial(k) for k in range(6)] == [1, 1, 2, 6, 24, 120]
    assert factorial(20) == 2432902008176640000
    with pytest.raises(ValueError):
        factorial(-1)


def test_exact_div():
    assert exact_div(84, 7) == 12
    assert exact_div(-84, 7) == -12
    with pytest.raises(ArithmeticError):
        exact_div(85, 7)


def test_frac_binomial():
    assert frac_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert frac_binomial(Fraction(1, 2), 0) == 1
    assert frac_binomial(3, 2) == 3
    assert frac_binomial(Fraction(1, 2), -1) == 0


def test_rational_field_laws():
    rng = random.Random(7)

    def rand():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 40))

    for _ in range(300):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a and b:
            assert (a / b) * (b / a) == 1


def test_rational_invariants():
    x = Fraction(6, -4)
    assert x.denominator > 0
    assert (x.numerator, x.denominator) == (-3, 2)
    assert Fraction(0, 5) == Fraction(0, 1)
