"""Differential tests of h_of and e_of against two independent routes.

The library evaluates h_n[a] from an integer coefficient table and one
subst_q, and e_n[a] as (-1)^n h_n[-a].  Here they are checked against the
truncated series product (1-u)^-c * prod (1-x*u)^-w built with
TruncSeries.int_pow, with e_n read off the inverse of the series at -u, and,
with sympy, against the expanded products (1-u)^-c * prod (1-x*u)^-w and
(1+u)^c * prod (1+x*u)^w.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fuzzers import random_alphabet
from narayana_lab.lambdaring import Alphabet, VALUE_ONE_MINUS_Q, VALUE_Q, e_of, h_of, h_series
from narayana_lab.poly import PolyQQ
from narayana_lab.rationals import gen_binomial
from narayana_lab.series import TruncSeries

Q = VALUE_Q
Q2 = PolyQQ.var_q2()
ONE = PolyQQ.one()
ATOMS = (Q, VALUE_ONE_MINUS_Q, Q2, ONE - Q2)
# Beyond the DSL's atoms: a scaled atom, a square, a Fraction and a Laurent value.
WIDE_ATOMS = ATOMS + (Q * 2, Q**2, Q * Fraction(1, 2), PolyQQ.monomial(1, -1, 1))


def random_point(rng: random.Random, pool=ATOMS) -> Alphabet:
    """0-4 distinct atoms with weights -2..3 and a constant in -3..3."""
    values = rng.sample(pool, rng.randint(0, 4))
    weights = [rng.choice((-2, -1, 1, 2, 3)) for _ in values]
    return Alphabet(constant=rng.randint(-3, 3), atoms=tuple(zip(weights, values)))


def series_route_h(a: Alphabet, order: int) -> TruncSeries:
    """The product form of H(u), one int_pow per atom."""
    out = TruncSeries(
        [PolyQQ.const(gen_binomial(a.constant + k - 1, k)) for k in range(order + 1)],
        order=order,
    )
    for weight, value in a.atoms:
        out = out * TruncSeries([ONE, -value], order=order).int_pow(-weight)
    return out


def series_route_e(n: int, a: Alphabet) -> PolyQQ:
    """e_n as the coefficient of 1/H(-u)."""
    hs = series_route_h(a, n)
    flipped = TruncSeries(
        [c if k % 2 == 0 else -c for k, c in enumerate(hs.coefficients())], order=n
    )
    return flipped.inverse().coefficient(n)


def test_h_and_e_match_the_series_route():
    rng = random.Random(606)
    for _ in range(400):
        a = random_point(rng, WIDE_ATOMS)
        n = rng.randint(0, 14)
        hs = series_route_h(a, n)
        for k in range(n + 1):
            assert h_of(k, a) == hs.coefficient(k), (k, a)
        assert e_of(n, a) == series_route_e(n, a), (n, a)


def test_h_series_is_the_series_of_h_values():
    rng = random.Random(607)
    for _ in range(40):
        a = random_point(rng, WIDE_ATOMS)
        assert h_series(a, 12) == series_route_h(a, 12), a


def test_h_and_e_reach_no_series_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("series arithmetic on the h/e route")

    for name in ("__mul__", "inverse", "int_pow"):
        monkeypatch.setattr(TruncSeries, name, refuse)
    h_of.cache_clear()
    a = Alphabet(constant=-2, atoms=((2, Q), (-1, Q2), (3, VALUE_ONE_MINUS_Q), (1, ONE - Q2)))
    for n in range(9):
        assert h_of(n, a) is not None
        assert e_of(n, a) is not None


def test_scaled_matches_the_constructor():
    rng = random.Random(608)
    for _ in range(200):
        a = random_alphabet(rng, max_atoms=4)
        for m in range(-3, 4):
            built = Alphabet(m * a.constant, tuple((m * w, v) for w, v in a.atoms))
            got = a.scaled(m)
            assert got == built and hash(got) == hash(built), (a, m)
            assert got.atoms == built.atoms, (a, m)
        assert -(-a) == a and hash(-(-a)) == hash(a)
    assert Alphabet(constant=2, atoms=((1, Q),)).scaled(0) == Alphabet()


def to_ring(R, p: PolyQQ):
    return R.from_dict({(0, a, b): R.domain(c.numerator, c.denominator) for (a, b), c in p.items()})


def truncated(R, f, n: int):
    return R.from_dict({m: c for m, c in f.terms() if m[0] <= n})


def power_product(R, a: Alphabet, n: int, sign: int, exponent_sign: int):
    """Product of (1 - sign*x*u)^(exponent_sign*w) over the weighted atoms, to u^n.

    The constant c counts as the atom 1 with weight c.
    """
    u = R.gens[0]
    out = R.one
    for weight, x in ((a.constant, R.one), *((w, to_ring(R, v)) for w, v in a.atoms)):
        e = exponent_sign * weight
        if e >= 0:
            base = 1 - sign * x * u
        else:
            base = truncated(R, sum(((sign * x * u) ** i for i in range(n + 1)), R.zero), n)
        for _ in range(abs(e)):
            out = truncated(R, out * base, n)
    return out


def coefficient(f, n: int) -> dict:
    return {(a, b): Fraction(int(c.numerator), int(c.denominator)) for (k, a, b), c in f.terms() if k == n}


def as_dict(p: PolyQQ) -> dict:
    return {exps: Fraction(c) for exps, c in p.items()}


def test_h_and_e_match_the_expanded_products():
    sympy = pytest.importorskip("sympy")
    R = sympy.polys.rings.ring("u q q2", sympy.QQ)[0]
    rng = random.Random(609)
    for _ in range(150):
        a = random_point(rng)
        n = rng.randint(0, 14)
        # H(u) = (1-u)^-c prod (1-x u)^-w and E(u) = (1+u)^c prod (1+x u)^w.
        big_h = power_product(R, a, n, 1, -1)
        big_e = power_product(R, a, n, -1, 1)
        for k in range(n + 1):
            assert as_dict(h_of(k, a)) == coefficient(big_h, k), (k, a)
            assert as_dict(e_of(k, a)) == coefficient(big_e, k), (k, a)
