"""Differential tests of the PolyQQ kernels against sympy.

subst_q (with and without q2) against substitution; *, +, -, eval and
divexact against sympy's expand, subs and cancel; jacobi11 against
sympy.jacobi; det_fraction_free against Matrix.det; TruncSeries.reverse by
composing in sympy.
"""

import random
from fractions import Fraction

import pytest

from narayana_lab.lambdaring import det_fraction_free
from narayana_lab.poly import ExactDivisionError, PolyQQ
from narayana_lab.sequences import jacobi11
from narayana_lab.series import TruncSeries

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


def assert_same(p: PolyQQ, expr) -> None:
    assert sympy.expand(to_sympy(p) - expr) == 0, (p, expr)


def assert_canonical(p: PolyQQ) -> None:
    # Canonical storage: no zero terms, and an int wherever the denominator is 1.
    for _, c in p.items():
        assert c != 0
        assert type(c) is int or c.denominator != 1, (p, c)


def ring_cases():
    rng = random.Random(23)
    for _ in range(12):
        yield random_poly(rng, -3, 4, q2_lo=-1), random_poly(rng, -2, 3, q2_lo=-1)
    # Integer operands, where the kernel copies nothing.
    yield Q**3 - Q * 3 + 2, (Q2 - Q) ** 2
    # Middle coefficients cancel: (1 + q)(1 - q) = 1 - q^2.
    yield Q + 1, ONE - Q


def test_ring_operations_against_sympy():
    for a, b in ring_cases():
        sa, sb = to_sympy(a), to_sympy(b)
        for got, want in ((a * b, sa * sb), (a + b, sa + sb), (a - b, sa - sb), (b - a, sb - sa)):
            assert_same(got, want)
            assert_canonical(got)
        assert (a - a).is_zero and (a * PolyQQ.zero()).is_zero
        for scalar in (3, Fraction(-2, 3), Fraction(4, 2)):
            assert_same(a * scalar, sa * sympy.Rational(scalar.numerator, scalar.denominator))
            assert_canonical(a * scalar)
    assert (Q + 1) * (ONE - Q) == ONE - Q**2
    assert ((Q + 1) * (ONE - Q)).coeff(1) == 0


def test_divexact_against_sympy():
    for a, b in ring_cases():
        product = a * b
        for divisor, quotient in ((b, a), (a, b)):
            got = product.divexact(divisor)
            assert got == quotient
            assert_same(got, sympy.cancel(to_sympy(product) / to_sympy(divisor)))
            assert_canonical(got)
    assert (Q**4 * 6 - 9).divexact(PolyQQ.monomial(3, 2)) == PolyQQ({(2, 0): 2, (-2, 0): -3})
    assert (Q * 3).divexact(PolyQQ.const(6)) == Q * Fraction(1, 2)
    with pytest.raises(ExactDivisionError):
        (Q**2 + 1).divexact(Q + 1)


def test_cancelled_denominators_store_ints():
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = (
        ((Q + 1) * half * (Q * 2 + 2), {(0, 0): 1, (1, 0): 2, (2, 0): 1}),
        ((Q * half + third) * 6, {(0, 0): 2, (1, 0): 3}),
        ((Q * half + third) + (Q * half + third * 2), {(0, 0): 1, (1, 0): 1}),
        ((Q2 * third - half) * (Q2 * 3 + Fraction(3, 2)), {(0, 2): 1, (0, 1): -1, (0, 0): Fraction(-3, 4)}),
        ((Q * 4 + 2).divexact(PolyQQ.const(2)), {(1, 0): 2, (0, 0): 1}),
    )
    for got, terms in cases:
        direct = PolyQQ(terms)
        assert got == direct and hash(got) == hash(direct)
        # == and hash cannot tell Fraction(1, 1) from 1; the stored types can.
        assert_canonical(got)


def test_eval_against_sympy():
    rng = random.Random(31)
    points = (0, 1, -2, 3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4))
    for _ in range(10):
        p = random_poly(rng, -3, 4, q2_lo=-2)
        sp = to_sympy(p)
        for x in points:
            for y in points:
                if (x == 0 and p.min_deg_q() < 0) or (y == 0 and p.min_deg_q2() < 0):
                    with pytest.raises(ZeroDivisionError):
                        p.eval(x, y)
                    continue
                got = p.eval(x, y)
                assert got == sp.subs({q: sympy.Rational(x), q2: sympy.Rational(y)}), (p, x, y)
                assert type(got) is int or got.denominator != 1


def test_eval_laurent_and_zero():
    p = PolyQQ({(-2, 0): 3, (1, 0): Fraction(1, 2), (0, -1): -1})
    assert p.eval(Fraction(2, 3), 4) == Fraction(27, 4) + Fraction(1, 3) - Fraction(1, 4)
    assert p.eval(-1, Fraction(-1, 2)) == 3 - Fraction(1, 2) + 2
    with pytest.raises(ZeroDivisionError):
        p.eval(0, 1)
    with pytest.raises(ZeroDivisionError):
        p.eval(1, 0)
    assert PolyQQ.zero().eval(0, 0) == 0
    assert (Q**2 * Q2 + 7).eval() == 7
    assert type((Q * Fraction(1, 2)).eval(Fraction(4, 1))) is int


def sympy_value(x):
    return to_sympy(x) if isinstance(x, PolyQQ) else sympy.Integer(x)


def test_subst_q_two_variables_against_sympy():
    rng = random.Random(41)
    replacements = [
        -1, 0, 2,  # int
        ONE - Q, Q - 1, PolyQQ.monomial(3, -1) + Q,  # q only, one Laurent
        Q2 - 1, Q * Q2 + Fraction(1, 2), PolyQQ.monomial(1, 0, -1) - Q,  # q2-bearing, one Laurent
    ]
    polys = [random_poly(rng, 0, 4) for _ in range(4)]
    polys.append(PolyQQ({(0, 0): 3, (4, 0): -1, (0, 5): 2, (3, 2): Fraction(1, 3)}))
    for p in polys:
        for _ in range(4):
            x, y = rng.choice(replacements), rng.choice(replacements)
            expected = to_sympy(p).subs({q: sympy_value(x), q2: sympy_value(y)}, simultaneous=True)
            got = p.subst_q(x, q2=y)
            assert isinstance(got, PolyQQ)
            assert_same(got, sympy.expand(expected))
            assert_canonical(got)
    # q -> q2 and q2 -> q at once is a swap, not a collapse.
    assert (Q**2 * Q2 * 5 + Q).subst_q(Q2, q2=Q) == Q2**2 * Q * 5 + Q2
    assert PolyQQ.zero().subst_q(2, q2=3) == PolyQQ.zero()
    assert (Q * 2 + 1).subst_q(1) == 3


def test_subst_q2_negative_exponent_raises():
    laurent_q2 = Q + PolyQQ.monomial(1, 0, -1)
    # Kept as it is without q2=, refused when q2 is replaced.
    assert laurent_q2.subst_q(ONE - Q) == ONE - Q + PolyQQ.monomial(1, 0, -1)
    with pytest.raises(ValueError):
        laurent_q2.subst_q(ONE - Q, q2=Q2)


def test_jacobi11_against_sympy():
    for n in range(26):
        assert_same(jacobi11(n), sympy.expand(sympy.jacobi(n, 1, 1, q)))


def random_matrix(rng: random.Random, size: int) -> list[list[PolyQQ]]:
    def entry():
        if rng.random() < 0.3:
            return PolyQQ.zero()
        return PolyQQ({
            (rng.randint(0, 1), rng.randint(0, 1)): rng.randint(-3, 3)
            for _ in range(rng.randint(1, 2))
        })
    return [[entry() for _ in range(size)] for _ in range(size)]


def assert_det_matches_sympy(matrix: list[list[PolyQQ]]) -> None:
    want = sympy.Matrix([[to_sympy(e) for e in row] for row in matrix]).det(method="berkowitz")
    assert_same(det_fraction_free(matrix), sympy.expand(want))


def test_det_fraction_free_against_sympy():
    rng = random.Random(53)
    for size in (2, 3, 4, 5):
        for _ in range(3):
            matrix = random_matrix(rng, size)
            assert_det_matches_sympy(matrix)
            # Swapping two rows flips the sign.
            assert det_fraction_free(matrix[1::-1] + matrix[2:]) == -det_fraction_free(matrix)
    # Zero pivots at the first and at a later step need a row swap.
    assert_det_matches_sympy([[PolyQQ.zero(), Q], [Q2 + 1, Q * 3]])
    later = [[ONE, ONE, Q], [ONE, ONE, Q2], [Q, ONE - Q, ONE]]
    assert_det_matches_sympy(later)
    # Singular: a zero column, and a row that is a multiple of another.
    zero_col = [[PolyQQ.zero(), Q, ONE], [PolyQQ.zero(), Q2, Q], [PolyQQ.zero(), ONE, Q2]]
    assert det_fraction_free(zero_col).is_zero
    rows = random_matrix(rng, 4)
    rows[2] = [e * (Q - Q2) for e in rows[0]]
    assert det_fraction_free(rows).is_zero
    assert_det_matches_sympy(rows)


def test_reverse_composes_to_identity_in_sympy():
    rng = random.Random(67)
    u = sympy.Symbol("u")
    order = 6

    def series_poly(coeffs):
        expr = sum(to_sympy(c) * u**k for k, c in enumerate(coeffs))
        return sympy.Poly(expr, u, q, q2, domain="QQ")

    def truncate(p):
        terms = {m: c for m, c in p.as_dict().items() if m[0] <= order}
        return sympy.Poly.from_dict(terms, u, q, q2, domain="QQ")

    for _ in range(4):
        coeffs = [PolyQQ.zero(), ONE] + [random_poly(rng, 0, 2) for _ in range(order - 1)]
        g = series_poly(TruncSeries(coeffs, order=order).reverse().coefficients())
        # f(g(u)) by sympy arithmetic, truncated after u^order at each power.
        composed, power = series_poly([]), series_poly([ONE])
        for c in coeffs[1:]:
            power = truncate(power * g)
            composed += power * series_poly([c])
        assert composed == series_poly([PolyQQ.zero(), ONE]), coeffs
