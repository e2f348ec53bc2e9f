import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

from narayana_lab import poly
from narayana_lab.poly import (
    ExactDivisionError,
    PolyQQ,
    _divide_exactly,
    _inverse_mod_2k,
    _pack,
    _permanent_bound,
    _sum_powers,
    _unpack,
)

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


def test_zero_to_a_negative_power_divides_by_zero():
    # As divexact and eval do: zero has no inverse, which is not an inexact division.
    for e in (-1, -4):
        with pytest.raises(ZeroDivisionError):
            PolyQQ.zero() ** e
    assert PolyQQ.zero() ** 3 == PolyQQ.zero()


def test_pow_refuses_an_exponent_that_is_not_an_int():
    for e in (2.0, Fraction(1, 2), "2", None):
        assert Q.__pow__(e) is NotImplemented
        with pytest.raises(TypeError, match="unsupported operand"):
            Q**e
        with pytest.raises(TypeError, match="unsupported operand"):
            (Q + 1) ** e
    # A whole Fraction is Fraction.__rpow__'s: it passes its numerator back.
    assert Q.__pow__(Fraction(2)) is NotImplemented
    assert (Q + 1) ** Fraction(2) == (Q + 1) ** 2


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


def render_term_by_term(p: PolyQQ) -> str:
    """The renderer __str__ replaced: factor lists joined per term."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for (a, b), c in sorted(p.items(), reverse=True):
        factors = []
        if a:
            factors.append("q" if a == 1 else f"q^{a}")
        if b:
            factors.append("q2" if b == 1 else f"q2^{b}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces)


def random_rendering_case(rng: random.Random, spread: int) -> PolyQQ:
    """Up to 8 terms at exponents in -spread..spread, of every coefficient kind."""
    terms = {}
    for _ in range(rng.randint(0, 8)):
        exps = (rng.randint(-spread, spread), rng.randint(-spread, spread))
        if rng.random() < 0.15:
            exps = (0, 0)
        kind = rng.randrange(5)
        if kind == 0:
            c = rng.choice((1, -1))
        elif kind == 1:
            c = rng.randint(-99, 99)
        elif kind == 2:
            c = Fraction(rng.randint(-99, 99), rng.randint(2, 40))
        elif kind == 3:
            c = rng.choice((1, -1)) * (10**199 + rng.randrange(10**199))
        else:
            c = Fraction(rng.choice((1, -1)) * 10**199 + rng.randint(-9, 9), 10**150 + rng.randint(1, 9))
        terms[exps] = c
    return PolyQQ(terms)


def test_rendering_matches_the_term_by_term_renderer():
    rng = random.Random(1903)
    cases = [PolyQQ.zero(), ONE, -ONE, PolyQQ.const(Fraction(-1, 2)), Q, -Q2, PolyQQ.monomial(-1, -1, -1)]
    cases += [random_rendering_case(rng, 3) for _ in range(2000)]
    # Wide exponents: more monomials than the table of names keeps.
    cases += [random_rendering_case(rng, 60) for _ in range(1500)]
    kinds = {type(c) for p in cases for _, c in p.items()}
    assert kinds == {int, Fraction}
    assert any(e < 0 for p in cases for (a, b), _ in p.items() for e in (a, b))
    for p in cases:
        assert str(p) == render_term_by_term(p), dict(p.items())
    assert len(poly._NAMES) == poly._NAMES_CAP


def test_a_value_renders_once_and_its_results_render_afresh():
    v = PolyQQ({(2, 1): 3, (1, 0): Fraction(-1, 2), (0, 0): 1, (0, 2): -7})
    text = str(v)
    assert str(v) is text
    # Each result is a new value, from PolyQQ() or from _wrap: none may carry v's text.
    results = (
        -v, v + 1, v * 2, v**2,
        (v * (ONE - Q)).divexact(ONE - Q), v.divexact(Q2), v.subst_q(ONE - Q),
    )
    for x in results:
        assert str(x) == str(PolyQQ(dict(x.items()))), dict(x.items())
    assert results[4] == v and str(results[4]) == text


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


def unpack_digit_by_digit(packed: int, w: int, n: int) -> list[int]:
    """The decoder _unpack replaced: each digit cut from the whole value."""
    half = 1 << (w - 1)
    biased = packed + half * (((1 << w * n) - 1) // ((1 << w) - 1))
    if biased >> w * n:
        raise ArithmeticError("packed value has a digit past its last slot")
    mask = (1 << w) - 1
    return [((biased >> i) & mask) - half for i in range(0, w * n, w)]


def test_unpack_by_halving_matches_the_digit_loop():
    rng = random.Random(31)
    base = poly._SPLIT_BASE
    for n in (1, 2, base - 1, base, base + 1, 2 * base, 2 * base + 1, 4 * base - 1, 1000):
        for w in (1, 2, 7, 64, 100):
            lo, hi = -(1 << (w - 1)), (1 << (w - 1)) - 1
            # Digits at both ends of the balanced range, and random ones.
            for digits in (
                [lo] * n,
                [hi] * n,
                [rng.choice((lo, hi)) for _ in range(n)],
                [rng.randint(lo, hi) for _ in range(n)],
            ):
                packed = sum(c << w * i for i, c in enumerate(digits))
                assert _unpack(packed, w, n) == unpack_digit_by_digit(packed, w, n) == digits
                # _pack joins halves where _unpack cuts them.
                assert _pack(digits, w) == packed
                # Past the end: a digit of 2^(w-1) at the top carries into
                # slot n, and so does any value of 2^(w*n) or more, or below
                # the smallest packable value.
                for bad in (packed + (1 << w * n), packed - (1 << w * n), hi + 1 << w * (n - 1)):
                    with pytest.raises(ArithmeticError):
                        unpack_digit_by_digit(bad, w, n)
                    with pytest.raises(ArithmeticError):
                        _unpack(bad, w, n)


def permanent(a: list[list[int]]) -> int:
    return sum(prod(row[j] for row, j in zip(a, perm)) for perm in permutations(range(len(a))))


def test_permanent_bound_against_the_permanent():
    rng = random.Random(17)
    for n in range(1, 7):
        for _ in range(20):
            top = rng.choice((1, 9, 10**6, 2**300))
            a = [[rng.choice((0, rng.randint(1, top))) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                a[i][i] = a[i][i] or 1
            assert _permanent_bound(a) >= permanent(a), a
        # Entries that grow along the rows, as a Jacobi-Trudi matrix's norms
        # |h_(mu_i - i + j)|_1 do: from n = 3 on, where balancing starts, the
        # bound stays within n + 2 bits of the permanent, where the plain
        # product of row sums overshoots by about n^2/2 entry ratios.
        mu = sorted((rng.randint(0, 8) for _ in range(n)), reverse=True)
        a = [[90 ** (mu[i] - i + j) if mu[i] - i + j >= 0 else 0 for j in range(n)] for i in range(n)]
        if n >= 3:
            per = permanent(a)
            assert per <= _permanent_bound(a) < per << n + 2, (mu, a)
        # A monomial permutation matrix attains the bound.
        perm = list(range(n))
        rng.shuffle(perm)
        a = [[rng.randint(1, 2**200) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
        assert _permanent_bound(a) == permanent(a)


def test_2_adic_inverse_stops_at_k():
    # x wider than k; the Newton steps stop at k bits, and the last one must
    # still reach them.
    rng = random.Random(31)
    for k in [*range(1, 70), 127, 128, 129, 1000, 4096]:
        for _ in range(3):
            x = rng.getrandbits(k + rng.randint(1, 2 * k)) | 1
            y = _inverse_mod_2k(x, k)
            assert x * y % (1 << k) == 1, (k, x)
            assert y.bit_length() <= max(k, 3), (k, x)


def test_exact_division_by_a_2_adic_inverse():
    rng = random.Random(29)
    for k in (1, 2, 3, 4, 7, 64, 65, 1000, 5000):
        for _ in range(5):
            x = rng.getrandbits(rng.randint(1, 2 * k)) | 1
            assert x * _inverse_mod_2k(x, k) % (1 << k) == 1
    for _ in range(300):
        bits = rng.choice((1, 5, 30, 31, 64, 200, 3000))
        v = rng.choice((0, 0, 1, 5, 64, 300))
        divisor = rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1) << v
        quotients = [
            [rng.choice((-1, 1)) * rng.getrandbits(rng.choice((0, 1, 8, bits, 4 * bits))) for _ in range(3)]
            for _ in range(2)
        ]
        rows = [[7] + [q * divisor for q in row] for row in quotients]
        _divide_exactly(rows, 1, divisor)
        assert rows == [[7] + row for row in quotients], (divisor, quotients)
    # The quotients at the edges of their signed width: +-2^(k-1) - 1 and -2^(k-1).
    for divisor in (3, -3, 12, 2**70 + 1):
        quotients = [[2**40 - 1, -(2**40), -(2**40) + 1, 1, -1, 0]]
        rows = [[q * divisor for q in quotients[0]]]
        _divide_exactly(rows, 0, divisor)
        assert rows == quotients
