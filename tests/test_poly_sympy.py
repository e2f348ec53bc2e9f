"""Differential test of PolyQQ.subst_q against sympy's substitution."""

import random
from fractions import Fraction

import pytest

from narayana_lab.poly import PolyQQ

sympy = pytest.importorskip("sympy")

q, q2 = sympy.symbols("q q2")
Q = PolyQQ.var_q()
Q2 = PolyQQ.var_q2()
ONE = PolyQQ.one()


def to_sympy(p: PolyQQ):
    out = sympy.Integer(0)
    for (a, b), c in p.items():
        out += sympy.Rational(c.numerator, c.denominator) * q**a * q2**b
    return out


def random_poly(rng: random.Random, q_lo: int, q_hi: int, q2_lo: int = 0) -> PolyQQ:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = (rng.randint(q_lo, q_hi), rng.randint(q2_lo, 2))
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    return PolyQQ(terms)


def assert_matches_sympy(p: PolyQQ, replacement: PolyQQ) -> None:
    expected = sympy.expand(to_sympy(p).subs(q, to_sympy(replacement)))
    assert sympy.expand(to_sympy(p.subst_q(replacement)) - expected) == 0, (p, replacement)


def test_subst_q_random_against_sympy():
    rng = random.Random(7)
    for _ in range(10):
        assert_matches_sympy(random_poly(rng, 0, 5), random_poly(rng, 0, 2))


def test_subst_q_laurent_against_sympy():
    rng = random.Random(11)
    # q2-exponents of the input and q-exponents of the replacement may be negative.
    for _ in range(6):
        assert_matches_sympy(random_poly(rng, 0, 4, q2_lo=-2), random_poly(rng, -2, 2))
    assert_matches_sympy(Q**3 * 2 - Q + 5, ONE - PolyQQ.monomial(2, -1))


def test_subst_q_gaps_against_sympy():
    sparse = PolyQQ({(0, 0): 3, (5, 1): -2, (9, 0): Fraction(1, 2), (12, 2): 1})
    for replacement in (Q - 1, ONE - Q, -Q, Q2 + Q * 2, PolyQQ.monomial(3, -1)):
        assert_matches_sympy(sparse, replacement)
    # No constant term: the lowest q-degree is factored out at the end.
    assert_matches_sympy(PolyQQ({(3, 0): 1, (7, 1): -4}), ONE - Q)


def test_subst_q_zero_and_constant():
    for replacement in (Q - 1, PolyQQ.zero(), PolyQQ.const(5)):
        assert PolyQQ.zero().subst_q(replacement) == PolyQQ.zero()
        assert PolyQQ.const(Fraction(-7, 3)).subst_q(replacement) == Fraction(-7, 3)
        assert (Q2 * 4 + 1).subst_q(replacement) == Q2 * 4 + 1
    assert_matches_sympy(Q**4 + Q, PolyQQ.zero())
    assert_matches_sympy(Q**4 + Q * 3 + 2, PolyQQ.const(-2))


def test_subst_q_negative_exponent_raises():
    with pytest.raises(ValueError):
        (Q**2 + PolyQQ.monomial(1, -1)).subst_q(ONE - Q)
