import random
from fractions import Fraction

import pytest

from narayana_lab import poly
from narayana_lab.poly import ExactDivisionError, PolyQQ, _sum_powers, _unpack

Q = PolyQQ.var_q()
Q2 = PolyQQ.var_q2()
ONE = PolyQQ.one()


def random_poly(rng: random.Random, laurent: bool = False) -> PolyQQ:
    terms = {}
    lo = -3 if laurent else 0
    for _ in range(rng.randint(0, 6)):
        exps = (rng.randint(lo, 4), rng.randint(lo, 3))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        terms[exps] = coeff
    return PolyQQ(terms)


def test_eval_examples():
    p = Q**2 + Q * 3 + 1
    assert p.eval(at_q=1) == 5
    assert p.eval(at_q=2) == 11
    assert random_poly(random.Random(1)).eval(at_q=0, at_q2=0) in (
        random_poly(random.Random(1)).coeff(0, 0),
    )


def test_eval_rational_point():
    p = Q * Q2 + 2
    assert p.eval(Fraction(1, 2), Fraction(1, 3)) == Fraction(13, 6)


def test_eval_zero_to_negative_power():
    p = PolyQQ.monomial(1, -1)
    with pytest.raises(ZeroDivisionError):
        p.eval(at_q=0)
    assert p.eval(at_q=2) == Fraction(1, 2)


def test_ring_laws_random():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (random_poly(rng, laurent=True) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_no_zero_terms_stored():
    p = Q - Q
    assert p.is_zero
    assert not list(p.items())
    assert (Q + 1) - Q == ONE


def test_is_integral():
    assert (Q**3 + 6 * Q**2 + 1).is_integral
    assert not (Q * Fraction(1, 2)).is_integral
    assert not PolyQQ.monomial(1, -1).is_integral
    assert PolyQQ.zero().is_integral


def test_pow():
    assert (Q + 1) ** 0 == ONE
    assert (Q + 1) ** 2 == Q**2 + 2 * Q + 1
    assert PolyQQ.zero() ** 0 == ONE
    assert PolyQQ.monomial(2, 1) ** -2 == PolyQQ.monomial(Fraction(1, 4), -2)
    with pytest.raises(ExactDivisionError):
        (Q + 1) ** -1


def test_divexact_roundtrip_random():
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        a = random_poly(rng, laurent=True)
        b = random_poly(rng, laurent=True)
        if b.is_zero:
            continue
        assert (a * b).divexact(b) == a
        checked += 1
    assert checked > 250


def test_divexact_monomial_and_errors():
    p = Q**2 * Q2 + Q * 2
    assert p.divexact(Q) == Q * Q2 + 2
    with pytest.raises(ExactDivisionError):
        (Q**2 + 1).divexact(Q + 1)
    with pytest.raises(ZeroDivisionError):
        p.divexact(PolyQQ.zero())


def test_subst_q():
    p = Q**2 + 3 * Q + 1
    assert p.subst_q(ONE - Q) == (ONE - Q) ** 2 + 3 * (ONE - Q) + 1
    assert p.subst_q(Q2) == Q2**2 + 3 * Q2 + 1
    with pytest.raises(ValueError):
        PolyQQ.monomial(1, -1).subst_q(Q)


def test_eval_refuses_a_non_rational_point():
    for point in (1.5, "2", None):
        for p in (Q**2 + 3 * Q2, PolyQQ.zero()):
            with pytest.raises(TypeError, match="cannot use"):
                p.eval(at_q=point)
            with pytest.raises(TypeError, match="cannot use"):
                p.eval(at_q=2, at_q2=point)


def test_canonical_rendering():
    assert str(Q**3 + 6 * Q**2 + 6 * Q + 1) == "q^3 + 6*q^2 + 6*q + 1"
    assert str(4 * Q**2 - 20 * Q + 20) == "4*q^2 - 20*q + 20"
    assert str(PolyQQ.zero()) == "0"
    assert str(-(Q**3)) == "-q^3"
    assert str(Q * Fraction(3, 2)) == "3/2*q"
    assert str(PolyQQ.monomial(1, -1)) == "q^-1"
    assert str(Q**2 * Q2**3 * 6 + Q2) == "6*q^2*q2^3 + q2"
    # terms sorted by (deg_q, deg_q2) descending
    assert str(Q2 + Q) == "q + q2"


def test_q_coefficients():
    assert (Q**2 + 3 * Q + 1).q_coefficients() == [1, 3, 1]
    with pytest.raises(ValueError):
        (Q * Q2).q_coefficients()
    with pytest.raises(ValueError):
        PolyQQ.monomial(1, -1).q_coefficients()


def test_hash_and_eq():
    assert hash(Q + 1) == hash(ONE + Q)
    assert Q + 1 == 1 + Q
    assert PolyQQ.const(Fraction(4, 2)) == PolyQQ.const(2)
    assert PolyQQ.const(5) == 5


def test_constants_hash_as_their_values():
    # Equal objects must hash equal: a constant polynomial equals its value.
    for value in (0, 3, -7, Fraction(1, 2), Fraction(-5, 3)):
        p = PolyQQ.const(value)
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1
        # The hash is cached and stays the same.
        assert hash(p) == hash(value)
    assert hash(PolyQQ.zero()) == hash(0) and len({PolyQQ.zero(), 0}) == 1
    assert len({PolyQQ.const(Fraction(6, 2)), 3, Fraction(3)}) == 1
    assert {Q * 0 + 4: "four"}[4] == "four"
    # Non-constant values keep the structural hash.
    assert hash(Q + 1) == hash(PolyQQ({(1, 0): 1, (0, 0): 1}))


def test_unpack_raises_on_a_digit_past_the_last_slot(monkeypatch):
    # Balanced digits at w = 8 lie in [-128, 128).  A packed value read with
    # fewer digits than it has raises; it never comes back cut off.
    w = 8
    for row in ([3, -128, 127, 1], [0, 0, -1], [5, 0, 0, 0, 0, 127], [-128]):
        packed = sum(c << w * i for i, c in enumerate(row))
        assert _unpack(packed, w, len(row)) == row
        assert _unpack(packed, w, len(row) + 2) == row + [0, 0]
        with pytest.raises(ArithmeticError):
            _unpack(packed, w, len(row) - 1)
    assert _unpack(0, w, 0) == []
    # The same inside the kernel: a length one short raises.
    real = poly._unpack
    monkeypatch.setattr(poly, "_unpack", lambda packed, w, n: real(packed, w, n - 1))
    with pytest.raises(ArithmeticError):
        _sum_powers([((1, 2), [3, 4])], Q - 1)
    with pytest.raises(ArithmeticError):
        (Q**2 * Q2 + 1).subst_q(ONE - Q)
