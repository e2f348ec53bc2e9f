import random
import sys

import pytest

from narayana_lab.dsl import _value
from narayana_lab.lambdaring import (
    Alphabet,
    HSequence,
    VALUE_ONE_MINUS_Q,
    VALUE_Q,
    e_of,
    h_of,
    hall_littlewood_principal,
    hook_schur_constant,
    m_of_constant,
    p_of,
    s_of,
    sfraction,
    strinc_oracle,
)
from narayana_lab.partitions import Partition, enumerate_partitions
from narayana_lab.poly import PolyQQ, _bareiss
from narayana_lab.rationals import gen_binomial
from narayana_lab.sequences import catalan, catalan_hsequence, narayana_hsequence
from narayana_lab.series import TruncSeries
from series_oracle import series_inverse

Q = VALUE_Q
OMQ = VALUE_ONE_MINUS_Q
ONE = PolyQQ.one()

RANK1_Q = Alphabet.rank_one(Q)
# "q" written through a rank-1 (1-q): the point 1 - (1-q)
Q_VIA_OMQ = Alphabet(constant=1, atoms=((-1, OMQ),))
MINUS_Q_VIA_OMQ = Alphabet(constant=-1, atoms=((1, OMQ),))


def test_h_of_constants():
    assert h_of(2, Alphabet.of_constant(3)) == 6
    assert h_of(3, Alphabet.of_constant(4)) == 20
    assert h_of(0, Alphabet.of_constant(-5)) == 1
    for c in range(-6, 7):
        for k in range(11):
            assert h_of(k, Alphabet.of_constant(c)) == gen_binomial(c + k - 1, k)


def test_h_of_mixed_point():
    a = Alphabet(constant=3, atoms=((-3, Q),))
    assert h_of(2, a) == 3 * Q**2 - 9 * Q + 6


def test_e_of_closed_forms():
    assert e_of(2, Alphabet.of_constant(3)) == 3
    for c in range(-6, 7):
        for k in range(11):
            assert e_of(k, Alphabet.of_constant(c)) == gen_binomial(c, k)


def test_rank1_q_table():
    for k in range(1, 11):
        assert p_of(k, RANK1_Q) == Q**k
        assert h_of(k, RANK1_Q) == Q**k
        assert e_of(k, RANK1_Q) == (Q if k == 1 else PolyQQ.zero())


def test_one_minus_q_rank1_table():
    for k in range(1, 11):
        assert p_of(k, Q_VIA_OMQ) == ONE - OMQ**k
        assert p_of(k, MINUS_Q_VIA_OMQ) == OMQ**k - 1
        assert h_of(k, Q_VIA_OMQ) == Q
        assert e_of(k, Q_VIA_OMQ) == Q * (Q - 1) ** (k - 1)
        assert h_of(k, MINUS_Q_VIA_OMQ) == (-1) ** k * Q * (Q - 1) ** (k - 1)
        assert e_of(k, MINUS_Q_VIA_OMQ) == (-1) ** k * Q


def test_constant_power_sums():
    for c in range(-6, 7):
        for k in range(1, 8):
            assert p_of(k, Alphabet.of_constant(c)) == c
    with pytest.raises(ValueError):
        p_of(0, RANK1_Q)


def test_m_of_constant():
    assert m_of_constant(Partition((2, 1)), 3) == 6
    assert m_of_constant(Partition((1, 1)), 3) == 3
    for c in range(-4, 7):
        assert m_of_constant(Partition((2,)), c) == c
    # second Cauchy formula at constants: h_k[c] = sum over |mu|=k of m_mu[c]
    for c in range(-4, 6):
        for k in range(9):
            total = sum(m_of_constant(mu, c) for mu in enumerate_partitions(k))
            assert total == gen_binomial(c + k - 1, k)


def test_schur_values():
    assert s_of(Partition((2, 1)), Alphabet.of_constant(3)) == 8
    assert s_of(Partition((2, 1)), Q_VIA_OMQ) == Q * (Q - 1)
    assert s_of(Partition((1,)), Alphabet.of_constant(5)) == h_of(1, Alphabet.of_constant(5))
    assert s_of(Partition(), RANK1_Q) == 1


def test_schur_hook_only_at_near_rank1():
    # at the point 1 - (1-q) every non-hook Schur value vanishes
    for mu in enumerate_partitions(5):
        value = s_of(mu, Q_VIA_OMQ)
        is_hook = mu.length <= 1 or all(x == 1 for x in mu.parts[1:])
        if is_hook:
            a, b = mu.parts[0], mu.length - 1
            assert value == Q * (Q - 1) ** b, mu
        else:
            assert value.is_zero, mu
    # and at its negative the hooks carry (-1)^(b+1) q (1-q)^(a-1)
    for mu in enumerate_partitions(4):
        value = s_of(mu, MINUS_Q_VIA_OMQ)
        is_hook = mu.length <= 1 or all(x == 1 for x in mu.parts[1:])
        if is_hook:
            a, b = mu.parts[0], mu.length - 1
            assert value == (-1) ** (b + 1) * Q * OMQ ** (a - 1), mu
        else:
            assert value.is_zero, mu


def test_hook_schur_constant():
    assert hook_schur_constant(2, 1, 3) == 8
    assert hook_schur_constant(3, 1, 5) == 105
    for c in range(-3, 7):
        assert hook_schur_constant(1, 0, c) == c
    for a in range(1, 5):
        for b in range(0, 4):
            for c in range(-3, 7):
                mu = Partition((a,) + (1,) * b)
                assert hook_schur_constant(a, b, c) == s_of(mu, Alphabet.of_constant(c))
    with pytest.raises(ValueError):
        hook_schur_constant(0, 1, 3)


def test_hall_littlewood_examples():
    assert hall_littlewood_principal(3, 4) == 4 * Q**2 - 20 * Q + 20
    p23 = hall_littlewood_principal(2, 3)
    assert p23.eval(at_q=0) == 6  # h_2 at three ones
    assert p23.eval(at_q=1) == 3  # p_2 at three ones
    with pytest.raises(ValueError):
        hall_littlewood_principal(0, 3)


def test_hall_littlewood_routes_agree_at_scale():
    # series route vs the closed form the library evaluates
    for r in range(1, 21):
        for n in range(1, 21):
            point = Alphabet(n, ((-n, Q),))
            assert h_of(r, point).divexact(OMQ) == hall_littlewood_principal(r, n), (r, n)


def test_third_cauchy_hook_expansion():
    # h_r[(1-q)n] expands over hooks with weights (1-q)(-q)^m
    for n in range(1, 9):
        for r in range(1, 9):
            point = Alphabet(constant=n, atoms=((-n, Q),))
            expansion = PolyQQ.zero()
            for m in range(r):
                expansion = expansion + OMQ * (-Q) ** m * hook_schur_constant(
                    r - m, m, n
                )
            assert h_of(r, point) == expansion, (n, r)


def test_strinc_examples():
    assert strinc_oracle(1) == 2
    assert strinc_oracle(2) == 6 - 3 * Q
    assert strinc_oracle(3) == 4 * Q**2 - 20 * Q + 20
    with pytest.raises(ValueError):
        strinc_oracle(13)


def test_strinc_matches_hall_littlewood():
    for n in range(1, 9):
        assert strinc_oracle(n) == hall_littlewood_principal(n, n + 1)


def test_sfraction():
    assert sfraction(narayana_hsequence(), 6) == [ONE, Q, ONE, Q, ONE, Q]
    assert sfraction(narayana_hsequence(), 1) == [ONE]
    catalan_seq = HSequence(lambda n: PolyQQ.const(catalan(n)))
    assert sfraction(catalan_seq, 5) == [ONE] * 5


def _sfraction_by_inverses(hseq, depth):
    # Peel one level at a time: c = [u^1](1 - 1/f), f <- (1 - 1/f)/(c*u),
    # a full series inverse per level.
    f = TruncSeries([hseq.h(k) for k in range(depth + 2)], order=depth + 1)
    coeffs = []
    for _ in range(depth):
        g = TruncSeries.one(f.order) - series_inverse(f)
        c = g.coefficient(1)
        assert not c.is_zero and c.is_monomial()
        coeffs.append(c)
        f = TruncSeries([g.coefficient(k + 1) * c**-1 for k in range(f.order)], order=f.order - 1)
    return coeffs


def test_sfraction_equals_the_inverse_peeling():
    for hseq in (narayana_hsequence(), catalan_hsequence()):
        for depth in range(1, 21):
            assert sfraction(hseq, depth) == _sfraction_by_inverses(hseq, depth), depth


def test_sfraction_expands_back_to_the_series_in_sympy():
    # The finite fraction 1/(1 - c_1 u/(1 - ... /(1 - c_d u))) agrees with
    # sum_k h_k u^k through u^d: its numerator minus the series times its
    # denominator has no term below u^(d+1).
    sympy = pytest.importorskip("sympy")
    q, u = sympy.symbols("q u")

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * q**a for (a, _), c in p.items())

    for hseq in (narayana_hsequence(), catalan_hsequence()):
        for depth in (1, 2, 7, 20):
            # From the innermost level out, N/D <- 1/(1 - c*u*N/D) = D/(D - c*u*N).
            num = den = sympy.Integer(1)
            for c in reversed(sfraction(hseq, depth)):
                num, den = den, sympy.expand(den - expr(c) * u * num)
            series = sum(expr(hseq.h(k)) * u**k for k in range(depth + 1))
            rest = sympy.Poly(sympy.expand(num - series * den), u)
            assert all(rest.coeff_monomial(u**k) == 0 for k in range(depth + 1)), depth


def test_sfraction_zero_coefficient_stops():
    ones = HSequence(lambda n: PolyQQ.one() if n == 0 else PolyQQ.zero())
    with pytest.raises(ArithmeticError, match="zero coefficient after 0 continued-fraction levels"):
        sfraction(ones, 2)
    # sum_k u^k = 1/(1 - u): c_1 = 1, then nothing is left.
    all_ones = HSequence(lambda n: PolyQQ.one())
    with pytest.raises(ArithmeticError, match="^zero coefficient after 1 continued-fraction levels$"):
        sfraction(all_ones, 3)


def test_sfraction_non_monomial_coefficient_stops():
    # h = 1, 1, 2+q, ...: c_1 = 1 and c_2 = h_2 - h_1^2 = 1+q.
    hseq = HSequence(lambda n: [ONE, ONE, 2 + Q, ONE][n])
    with pytest.raises(ArithmeticError) as err:
        sfraction(hseq, 2)
    assert str(err.value) == f"non-monomial continued-fraction coefficient {ONE + Q}"


def test_hsequence_validates_h0():
    bad = HSequence(lambda n: PolyQQ.const(2))
    with pytest.raises(ValueError):
        bad.h(0)


def test_hsequence_power_sums_past_the_recursion_limit():
    # h_n = 0 for n >= 1: every Newton product is of zero polynomials and
    # p_n = 0 throughout, so only the depth of the table is exercised. The
    # limit is lowered so that the O(n^2) products stay cheap; a table filled
    # by recursion would need about n frames.
    trivial = HSequence(lambda n: PolyQQ.one() if n == 0 else PolyQQ.zero())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        assert trivial.p(400).is_zero
    finally:
        sys.setrecursionlimit(limit)
    ones = HSequence(lambda n: PolyQQ.one())
    assert [ones.p(m) for m in (5, 1, 3)] == [PolyQQ.one()] * 3


def test_alphabet_canonicalization():
    a = Alphabet(constant=1, atoms=((1, Q), (2, Q), (0, OMQ)))
    assert a == Alphabet(constant=1, atoms=((3, Q),))
    assert a.scaled(-2) == Alphabet(constant=-2, atoms=((-6, Q),))
    assert (a + Alphabet(atoms=((-3, Q),))).is_constant


def test_alphabet_folds_constant_valued_atoms():
    # One point written four ways: the constant 2, the atom 1 of weight 2,
    # with an atom of value 0, and with both.
    two = Alphabet(constant=2)
    points = [
        Alphabet(atoms=((2, ONE),)),
        Alphabet(constant=2, atoms=((3, PolyQQ.zero()),)),
        Alphabet(constant=5, atoms=((-3, ONE), (1, PolyQQ.zero()))),
        Alphabet(constant=-1, atoms=((1, ONE), (2, ONE))),
    ]
    for p in points:
        assert p == two and hash(p) == hash(two) and p.is_constant, p
        assert p.constant == 2 and p.atoms == (), p
    # The value memo keeps one entry for the five.
    _value.cache_clear()
    for p in [two] + points:
        assert h_of(6, p) == _value("h", 6, p) == gen_binomial(7, 6)
    assert _value.cache_info().currsize == 1
    # Any other constant value stays an atom: (1 - u/2)^-2 is not (1 - u)^-1.
    half = Alphabet(atoms=((2, PolyQQ.const(2)),))
    assert not half.is_constant and half != two
    assert Alphabet(constant=1, atoms=((1, ONE), (1, Q))) == Alphabet(constant=2, atoms=((1, Q),))


def naive_det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * naive_det(minor)
    return total


def test_bareiss_matches_cofactor_expansion():
    # Small entries, more than half of them zero, so that pivots vanish and
    # rows swap; and entries packed as the Jacobi-Trudi tail packs them, in
    # 2^60-adic digits.
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 5)
        matrix = [[rng.choice((0, rng.randint(-3, 3))) for _ in range(n)] for _ in range(n)]
        want = naive_det(matrix)
        assert _bareiss([row[:] for row in matrix]) == want, matrix
    for _ in range(40):
        n = rng.randint(1, 5)
        matrix = [
            [sum(rng.randint(-9, 9) << 60 * i for i in range(rng.randint(0, 3))) for _ in range(n)]
            for _ in range(n)
        ]
        assert _bareiss([row[:] for row in matrix]) == naive_det(matrix), matrix


def test_bareiss_zero_column():
    assert _bareiss([[0, 1], [0, 5]]) == 0
    assert _bareiss([[2, 0, 1], [4, 0, 3], [1, 0, 7]]) == 0


def test_h_series_subtraction_rule():
    rng = random.Random(23)
    pool = [
        Alphabet.of_constant(2),
        Alphabet.rank_one(Q),
        Alphabet.rank_one(OMQ),
        Alphabet(constant=-1, atoms=((1, Q),)),
        Alphabet(constant=1, atoms=((2, OMQ),)),
    ]

    def series(a):
        return TruncSeries([h_of(k, a) for k in range(11)], order=10)

    for _ in range(30):
        p = rng.choice(pool)
        q = rng.choice(pool)
        assert series(p + (-q)) * series(q) == series(p)
