"""Differential tests of the PolyQQ kernels against sympy.

subst_q (with and without q2) against substitution, and its dense-row kernel
on rows of degree up to 30 against PolyElement.compose in sympy's sparse
ring; the convolution kernel _sum_powers against sums of powers in that ring;
*, +, -, eval and divexact against sympy's expand, subs and cancel;
jacobi11 against sympy.jacobi; the Jacobi-Trudi kernel _jacobi_trudi on
int rows against DomainMatrix.det over ZZ[t], at the edges of its packing;
Schur values at the query cap against sympy's integer determinants at three
points;
TruncSeries products and the tests' series_inverse oracle against
truncated sympy products, and
TruncSeries.reverse by composing in sympy; the packed series product
_series_product against the product of truncated series in that ring, and
the packed Schur kernel _schur (and s_of, which reads it) against
DomainMatrix.det of the Jacobi-Trudi matrix of those series' coefficients;
the packed power PolyQQ.__pow__, and the power sums p_of that read it,
against powers in that ring.
"""

import random
from fractions import Fraction

import pytest

from narayana_lab.dsl import alphabet_of, evaluate, parse
from narayana_lab.lambdaring import Alphabet, h_of, p_of, s_of
from narayana_lab.partitions import Partition, enumerate_partitions
from narayana_lab.poly import (
    Coeff,
    ExactDivisionError,
    PolyQQ,
    _jacobi_trudi,
    _permanent_bound,
    _schur,
    _series_product,
    _sum_powers,
)
from narayana_lab.sequences import jacobi11
from narayana_lab.series import TruncSeries
from series_oracle import series_inverse

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

q, q2 = sympy.symbols("q q2")
Q = PolyQQ.var_q()
Q2 = PolyQQ.var_q2()
ONE = PolyQQ.one()
BIG = 10**199 + 1  # 200 digits


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


def test_eval_integer_points_against_sympy():
    rng = random.Random(37)
    points = (0, 1, 2, -1, -3, 7)
    dense = [random_row(rng, degree, rational, keep_q2=False) for degree in (0, 1, 9, 30) for rational in (False, True)]
    dense += [
        PolyQQ({
            (a, b): random_coeff(rng, rational) or 1
            for a in range(degree + 1)
            for b in range(3)
            if rng.random() < 0.8 or a == degree
        })
        for degree in (1, 6, 12)
        for rational in (False, True)
    ]
    dense += [Q2 * 3 - 1, PolyQQ({(0, 2): Fraction(-1, 2), (1, 0): 4, (1, 1): 1, (0, 1): 2})]
    # Laurent, rational with q2, or sparse of high degree.
    general = [
        PolyQQ({(-2, 0): 3, (1, 0): Fraction(1, 2), (0, -1): -1}),
        random_row(rng, 9, True, keep_q2=True),
        PolyQQ({(40, 0): 1, (0, 0): -5}),
        PolyQQ({(0, 30): Fraction(2, 3), (3, 0): 1}),
    ]
    for p in dense + general:
        sp = to_sympy(p)
        for x in points:
            for y in points:
                if (x == 0 and p.min_deg_q() < 0) or (y == 0 and p.min_deg_q2() < 0):
                    with pytest.raises(ZeroDivisionError):
                        p.eval(x, y)
                    continue
                want = sp.subs({q: x, q2: y})
                got = p.eval(x, y)
                assert got == want, (p, x, y)
                assert type(got) is int or got.denominator != 1
    assert PolyQQ.zero().eval(-4, 5) == 0
    assert type((Q * Fraction(1, 2)).eval(4)) is int


def test_column_kernel_against_sympy():
    # Each sum is several (row, coefficients) pairs, as the convolution
    # identities pass them: rows of different lengths, coefficient lists of
    # different lengths, some coefficients zero (all of them, in some sums).
    rng = random.Random(53)
    bases = [Q - 1, ONE - Q, Q * Fraction(2, 3) + Fraction(1, 4), PolyQQ.monomial(3, -1) + Q]
    sums = []
    for i in range(32):
        zeros = rng.choice((0.2, 0.5, 1.0))
        terms = [
            (
                tuple(rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 25))),
                [rng.randint(-10**6, 10**6) if rng.random() >= zeros else 0 for _ in range(rng.randint(1, 22))],
            )
            for _ in range(rng.randint(1, 6))
        ]
        sums.append((terms, bases[i % len(bases)]))
    # At the edge of the slot width, which _horner takes from the bound
    # sum_k |row_k|_1 * max|c_k| * (|x|_1 + dx)^K on every output coefficient.
    # With K = 0 and rows whose one entry is at the top, the top coefficient
    # is the bound itself; with x = q+1 and positive numbers nothing cancels.
    sums += [
        ([((0, 0, 5), [7]), ((0, 0, 9), [2])], Q + 1),
        ([((0, 2**40), [2**40]), ((0, 1), [1])], Q + 1),
        ([((0, BIG), [BIG]), ((0, 3), [10**150])], Q + 1),
        (
            [
                (tuple(rng.randint(1, 10**6) for _ in range(rng.randint(1, 25))),
                 [rng.randint(1, 10**6) for _ in range(rng.randint(1, 22))])
                for _ in range(4)
            ],
            Q + 1,
        ),
        # Both signs, each near its end of the slot: -bound+1 and 1, then bound-1 and -1.
        ([((0, BIG), [-BIG]), ((1,), [1])], Q + 1),
        ([((BIG,), [BIG - 1]), ((0, 1), [-1])], ONE - Q),
        # 200-digit rows and coefficients over x = q-1.
        (
            [(tuple(rng.randint(-BIG, BIG) for _ in range(9)), [rng.randint(-BIG, BIG) for _ in range(12)]) for _ in range(3)],
            Q - 1,
        ),
        # Laurent bases over a denominator: (3/2)/q + q/3, and 5/q^2 - 1/7.
        ([((4, -1, 2), [3, 0, -2, 9]), ((1,), [5, 1])], PolyQQ.monomial(Fraction(3, 2), -1) + Q * Fraction(1, 3)),
        ([((BIG, 2), [1, -BIG, 3])], PolyQQ.monomial(5, -2) - Fraction(1, 7)),
        # Zero sums: zero coefficients, and rows that cancel: 1 + (q-1) - q.
        ([((1, 2), [0, 0]), ((0, 5), [0])], Q - 1),
        ([((1,), [1, 1]), ((0, 1), [-1])], Q - 1),
        ([((BIG, 1), [2, BIG]), ((BIG, 1), [-2, -BIG])], ONE - Q),
    ]
    for terms, base in sums:
        want = RING.zero
        for row, coeffs in terms:
            inner = sum((c * to_ring(base) ** m for m, c in enumerate(coeffs)), RING.zero)
            want += to_ring(PolyQQ.from_q_coefficients(row)) * inner
        got = _sum_powers(terms, base)
        assert isinstance(got, PolyQQ)
        assert dict(got.items()) == ring_terms(want), (terms, base)
        assert_canonical(got)
    assert _sum_powers([], Q - 1) == PolyQQ.zero()
    assert _sum_powers([((5, 1), [0, 0]), ((0, 0), [3])], ONE - Q) == PolyQQ.zero()


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


# The substitution kernel against sympy's sparse ring.  expand() on a
# substituted expression takes seconds at degree 30; PolyElement.compose
# substitutes term by term (each term c*q^a*q2^b becomes c*x^a*y^b, with
# sympy's own powers and products), another route than the kernel's Horner
# steps on packed rows.  qi and q2i stand for 1/q and 1/q2, folded back at
# the end.
RING, RQ, RQ2, RQI, RQ2I = ring("q,q2,qi,q2i", sympy.QQ)

# Every replacement shape the library passes, and more of each kind.
SHAPES = (
    0, 3, -2, Fraction(1, 2), Fraction(-5, 3), PolyQQ.zero(), PolyQQ.const(7),  # constants
    Q, -Q, ONE - Q, Q - 1, Q * Fraction(2, 3) + Fraction(1, 4),  # q only
    (Q - 1) * Fraction(1, 2), (Q + 1) * Fraction(1, 2),  # jacobi11's
    ONE - PolyQQ.monomial(2, -1), PolyQQ.monomial(3, -1) + Q,  # Laurent: 1-2/q
    Q2, Q2 - 1, ONE - Q2, PolyQQ.monomial(1, -1, 1),  # q2-bearing: q2, q2-1, q^-1*q2
    Q * Q2 + Fraction(1, 2), PolyQQ.monomial(1, 0, -1) - Q * 2,
)


def to_ring(p: PolyQQ | int | Fraction):
    if not isinstance(p, PolyQQ):
        p = PolyQQ.const(p)
    out = RING.zero
    for (a, b), c in p.items():
        mono = (RQ**a if a >= 0 else RQI**-a) * (RQ2**b if b >= 0 else RQ2I**-b)
        out += mono * sympy.QQ(c.numerator, c.denominator)
    return out


def ring_subst(p: PolyQQ, x, y=None) -> dict:
    """Laurent terms of p(x, y) (p(x, q2) without y), by sympy's compose."""
    pairs = [(RQ, to_ring(x))] + ([] if y is None else [(RQ2, to_ring(y))])
    return ring_terms(to_ring(p).compose(pairs))


def ring_terms(element) -> dict:
    """Laurent terms of a ring element, with qi and q2i folded into q and q2."""
    out: dict = {}
    for (i, j, k, m), c in element.terms():
        key = (i - k, j - m)
        out[key] = out.get(key, 0) + Fraction(int(c.numerator), int(c.denominator))
    return {key: c for key, c in out.items() if c}


def random_coeff(rng: random.Random, rational: bool) -> Coeff:
    c = rng.randint(-99, 99)
    return Fraction(c, rng.randint(1, 12)) if rational else c


def random_row(rng: random.Random, degree: int, rational: bool, keep_q2: bool) -> PolyQQ:
    """A q-row of the given degree; with keep_q2, terms also at q2^-2..q2^2."""
    terms = {(degree, 0): random_coeff(rng, rational) or 1}
    for a in range(degree):
        if rng.random() < 0.8:
            b = rng.randint(-2, 2) if keep_q2 else 0
            terms[(a, b)] = random_coeff(rng, rational)
    return PolyQQ(terms)


def random_table(rng: random.Random, degree: int, rational: bool) -> PolyQQ:
    """Coefficients at every (a, b) with a + b <= degree, as in h_of's table."""
    return PolyQQ({
        (a, b): random_coeff(rng, rational)
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
        if rng.random() < 0.8
    })


DEGREES = (0, 1, 2, 5, 9, 16, 23, 30)
# A Laurent replacement over a denominator in each variable: (3/2)/q + q/3
# and q2/5 - 2/q2.
LAURENT_X = PolyQQ.monomial(Fraction(3, 2), -1) + Q * Fraction(1, 3)
LAURENT_Y = Q2 * Fraction(1, 5) - PolyQQ.monomial(2, 0, -1)


def positive(p: PolyQQ) -> PolyQQ:
    return PolyQQ({exps: abs(c) for exps, c in p.items()})


def scaled(p: PolyQQ, c: int) -> PolyQQ:
    return PolyQQ({exps: v * c for exps, v in p.items()})


def test_subst_q_kernel_one_variable_against_sympy():
    rng = random.Random(2024)
    for i, x in enumerate(SHAPES):
        for rational in (False, True):
            for keep_q2 in (False, True):
                degree = DEGREES[(i + 2 * rational + keep_q2) % len(DEGREES)]
                p = random_row(rng, degree, rational, keep_q2)
                got = p.subst_q(x)
                assert isinstance(got, PolyQQ)
                assert dict(got.items()) == ring_subst(p, x), (p, x)
                assert_canonical(got)
    # At the edge of the slot width (see _horner).  One term c*q2^b makes
    # the bound |c| and the result c*q2^b; with x = q+1 and positive
    # coefficients nothing cancels.  Then both signs, 200-digit coefficients,
    # a Laurent x over a denominator, and results that cancel to zero.
    edges = [
        (PolyQQ.const(BIG), Q + 1),
        (PolyQQ.monomial(-BIG, 0, 3), Q + 1),
        (PolyQQ.monomial(2**64, 0, -2), ONE - Q),
        (positive(random_row(rng, 30, False, True)), Q + 1),
        (positive(random_row(rng, 16, True, False)), Q + 1),
        (PolyQQ({(0, 0): BIG, (0, 1): -BIG, (3, 2): 1}), Q + 1),
        (scaled(random_row(rng, 23, False, True), BIG), Q - 1),
        (scaled(random_row(rng, 9, True, True), BIG), LAURENT_X),
        (random_row(rng, 30, True, True), LAURENT_X),
        (Q - 1, ONE),
        (Q2 - Q, Q2),
        (Q**2 * BIG - Q * 2 * BIG + BIG, ONE),
    ]
    for p, x in edges:
        got = p.subst_q(x)
        assert dict(got.items()) == ring_subst(p, x), (p, x)
        assert_canonical(got)


def test_subst_q_kernel_two_variables_against_sympy():
    rng = random.Random(4048)
    # Every shape on each side, then the DSL's atom pairs, as h_of passes them.
    atoms = (Q, ONE - Q, Q2, ONE - Q2)
    pairs = (
        [(x, rng.choice(SHAPES)) for x in SHAPES]
        + [(rng.choice(SHAPES), y) for y in SHAPES]
        + [(x, y) for x in atoms for y in atoms]
    )
    for i, (x, y) in enumerate(pairs):
        degree = DEGREES[i % len(DEGREES)]
        for rational in (False, True):
            p = random_table(rng, min(degree, 16), rational)
            got = p.subst_q(x, q2=y)
            assert dict(got.items()) == ring_subst(p, x, y), (p, x, y)
            assert_canonical(got)
    # The largest: degree 30 both ways, with jacobi11's rational pair.
    half = Fraction(1, 2)
    for x, y in (((Q - 1) * half, (Q + 1) * half), (Q, ONE - Q2), (PolyQQ.monomial(1, -1, 1), Q2 - 1)):
        p = random_table(rng, 30, rational=True)
        assert dict(p.subst_q(x, q2=y).items()) == ring_subst(p, x, y), (x, y)
    # At the edge of the slot width: a constant is its own bound, positive
    # tables at x = q+1, y = q2+1 do not cancel; then both signs, 200-digit
    # coefficients, Laurent x and y over denominators, and zero results.
    edges = [
        (PolyQQ.const(BIG), Q + 1, Q2 + 1),
        (PolyQQ.const(-BIG), LAURENT_X, LAURENT_Y),
        (positive(random_table(rng, 16, False)), Q + 1, Q2 + 1),
        (positive(random_table(rng, 9, True)), Q + 1, Q + 1),
        (PolyQQ({(0, 0): BIG, (1, 0): -BIG, (0, 1): 1}), Q + 1, Q2 + 1),
        (scaled(random_table(rng, 12, False), BIG), ONE - Q, Q2 - 1),
        (scaled(random_table(rng, 6, True), BIG), LAURENT_X, LAURENT_Y),
        (random_table(rng, 16, True), LAURENT_X, Q2),
        (random_table(rng, 16, False), Q, LAURENT_Y),
        (Q - Q2, Q, Q),
        (Q2**2 * 3 + Q2**5, Q + 1, 0),
        (Q * Q2 - 1, Q * 2, PolyQQ.monomial(Fraction(1, 2), -1)),
    ]
    for p, x, y in edges:
        got = p.subst_q(x, q2=y)
        assert dict(got.items()) == ring_subst(p, x, y), (p, x, y)
        assert_canonical(got)


def test_subst_q_uses_no_polynomial_arithmetic(monkeypatch):
    rng = random.Random(99)
    half = Fraction(1, 2)
    cases = [
        (random_row(rng, 30, True, True), ONE - PolyQQ.monomial(2, -1), None),
        (random_row(rng, 12, False, False), Fraction(1, 2), None),
        (random_row(rng, 20, False, True), PolyQQ.monomial(1, -1, 1), None),
        (random_table(rng, 20, False), (Q - 1) * half, (Q + 1) * half),
        (random_table(rng, 12, True), Q2 - 1, PolyQQ.monomial(1, -1, 1)),
        (random_row(rng, 25, True, False), ONE - Q, None),  # one base, no q2-term
    ]
    expected = [ring_subst(p, x, y) for p, x, y in cases]

    def refuse(*args):
        raise AssertionError("PolyQQ arithmetic inside subst_q")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__neg__", "__pow__"):
        monkeypatch.setattr(PolyQQ, name, refuse)
    for (p, x, y), want in zip(cases, expected):
        assert dict(p.subst_q(x, q2=y).items()) == want


def test_jacobi11_against_sympy():
    for n in range(26):
        assert_same(jacobi11(n), sympy.expand(sympy.jacobi(n, 1, 1, q)))


DET_RING, DQ, DQ2 = ring("q,q2", sympy.QQ)


def ring_det(matrix: list[list[PolyQQ]]) -> dict:
    """Laurent terms of det(matrix), by DomainMatrix.det over sympy's ring QQ[q, q2].

    Every entry is multiplied by one q^-lo * q2^-lo2, the lowest exponents of
    the whole matrix, so that it is a polynomial; the determinant then
    carries that factor n times.
    """
    n = len(matrix)
    exps = [e for row in matrix for entry in row for e, _ in entry.items()] or [(0, 0)]
    lo, lo2 = min(a for a, _ in exps), min(b for _, b in exps)
    rows = [
        [
            sum(
                (DQ ** (a - lo) * DQ2 ** (b - lo2) * sympy.QQ(c.numerator, c.denominator)
                 for (a, b), c in entry.items()),
                DET_RING.zero,
            )
            for entry in row
        ]
        for row in matrix
    ]
    det = DomainMatrix(rows, (n, n), DET_RING.to_domain()).det()
    return {
        (a + n * lo, b + n * lo2): Fraction(int(c.numerator), int(c.denominator))
        for (a, b), c in det.terms()
    }


TAIL_RING, TT = ring("t", sympy.ZZ)


def ring_tail(rows: dict, parts) -> list[int]:
    """The ints at t^0, t^1, ... of det[h_(mu_i-i+j)], h_m = sum rows[m][e] * t^e, by DomainMatrix.det over ZZ[t].

    [] for a zero determinant.
    """
    l = len(parts)
    matrix = [
        [
            sum((TT**e * c for e, c in enumerate(rows[p - i + j])), TAIL_RING.zero) if p - i + j >= 0 else TAIL_RING.zero
            for j in range(l)
        ]
        for i, p in enumerate(parts)
    ]
    det = DomainMatrix(matrix, (l, l), TAIL_RING.to_domain()).det()
    if not det:
        return []
    out = [0] * (det.degree() + 1)
    for (e,), c in det.terms():
        out[e] = int(c)
    return out


def tail_slots(rows: dict, parts) -> int:
    """1 + the sum over the matrix's rows of their entries' largest t-degree, a bound on det's t-degree."""
    return 1 + sum(
        max((len(rows[p - i + j]) - 1 for j in range(len(parts)) if p - i + j >= 0), default=0)
        for i, p in enumerate(parts)
    )


def assert_tail_matches_ring(rows: dict, parts) -> list[int]:
    """_jacobi_trudi against ring_tail at tail_slots slots, each h_m read once; returns its digits."""
    reads = []

    def h(m):
        reads.append(m)
        return rows[m]

    n = tail_slots(rows, parts)
    got = _jacobi_trudi(h, parts, n)
    assert sorted(reads) == sorted({p - i + j for i, p in enumerate(parts) for j in range(len(parts)) if p - i + j >= 0})
    assert len(got) in (0, n), (rows, parts)
    want = ring_tail(rows, parts)
    assert got[:len(want)] == want and not any(got[len(want):]), (rows, parts)
    return got


def random_rows(rng: random.Random, parts, digits: int) -> dict:
    """Int rows of one to four slots for every h_m of the matrix, about one in six of them zero."""
    top = 10**digits
    return {
        m: [0] if rng.random() < 1 / 6 else [rng.randint(-top, top) for _ in range(rng.randint(1, 4))]
        for m in range(parts[0] + len(parts))
    }


def permutation_rows(l: int, shift: int, rng: random.Random) -> dict:
    """h_m for the shape (l^l), zero but at m = l + shift and (for shift > 0) m = shift.

    Each is one monomial with an odd coefficient of either sign.  The
    matrix has h_(l+shift) at (i, i + shift) and h_shift at
    (i, i + shift - l): one permutation, whose term is the determinant, with
    a coefficient of +-the permanent of the norms, the bound the width is
    taken from.
    """
    rows = {m: [0] for m in range(1, 2 * l)}
    rows[l + shift] = [0] * rng.randint(0, 3) + [rng.choice((-1, 1)) * (rng.randint(2, 10**6) | 1)]
    if shift:
        rows[shift] = [0] * rng.randint(0, 3) + [rng.choice((-1, 1)) * (rng.randint(2, 99) | 1)]
    return rows


def test_jacobi_trudi_tail_against_sympy():
    rng = random.Random(53)
    shapes = [mu.parts for size in range(1, 9) for mu in enumerate_partitions(size)]
    # Random rows, and 200-digit ones up to five parts.
    for _ in range(120):
        parts = rng.choice(shapes)
        assert_tail_matches_ring(random_rows(rng, parts, 1), parts)
        if len(parts) <= 5:
            assert_tail_matches_ring(random_rows(rng, parts, 200), parts)
    # The slot count is the edge: a determinant whose top t-degree is n - 1
    # leaves a digit past n - 1 slots.
    rows = {0: [1], 1: [2, 3], 2: [5, 0, 7], 3: [1, 1, 1, 2]}
    got = assert_tail_matches_ring(rows, (3,))
    assert got[-1] == 2
    with pytest.raises(ArithmeticError):
        _jacobi_trudi(rows.__getitem__, (3,), len(got) - 1)
    # Coefficients at +B and -B, B the permanent bound over the norms, at
    # every size up to 6 and every cyclic shift.
    signs = set()
    for l in range(1, 7):
        for shift in range(l):
            for _ in range(3):
                rows = permutation_rows(l, shift, rng)
                got = assert_tail_matches_ring(rows, (l,) * l)
                (top,) = [c for c in got if c]
                norms = [[sum(map(abs, rows[l - i + j])) for j in range(l)] for i in range(l)]
                assert abs(top) == _permanent_bound(norms), (l, shift, rows)
                signs.add(top > 0)
    assert signs == {False, True}
    # Zero pivots need a row swap, at the first step (h_2 = 0 in the matrix
    # of (2, 1)) and at the second (for (1, 1, 1), step 0 swaps in the row
    # of h_0 = 1, the smallest pivot, and leaves h_0*h_2 - h_1^2 = 0 below
    # it, beside h_0^2 = 1).
    assert_tail_matches_ring({0: [1], 1: [4, 1], 2: [0], 3: [3, 0, 5]}, (2, 1))
    assert_tail_matches_ring({0: [1], 1: [0, 1], 2: [0, 0, 1], 3: [2, 9, 0, 4]}, (1, 1, 1))
    # Zero rows and columns at every position give [].
    for parts in ((3, 1), (4, 4, 2, 1), (6, 5, 5, 3, 2, 1)):
        l = len(parts)
        for k in (0, l // 2, l - 1):
            rows = random_rows(rng, parts, 3)
            for j in range(l):
                if parts[k] - k + j >= 0:
                    rows[parts[k] - k + j] = [0]
            assert assert_tail_matches_ring(rows, parts) == []
            rows = random_rows(rng, parts, 3)
            for i in range(l):
                if parts[i] - i + k >= 0:
                    rows[parts[i] - i + k] = [0]
            assert assert_tail_matches_ring(rows, parts) == []
    # Singular with no zero row or column: rows 1 and 2 of (7, 5, 3) hold
    # h_4 and h_1 in column 0 alone, so every Leibniz term has a zero factor.
    rows = random_rows(rng, (7, 5, 3), 2)
    rows.update({1: [3, 1], 2: [0], 3: [0], 4: [2, 0, 5], 5: [0], 6: [0], 7: [1, 1], 8: [9], 9: [0, 4]})
    got = assert_tail_matches_ring(rows, (7, 5, 3))
    assert got and not any(got)


# The heaviest Schur values the query language admits (|mu| <= 30, weights
# and constant at most 30 in absolute value).
CAP_SCHUR_QUERIES = (
    "s{19,1,1,1,1,1,1,1,1,1,1,1}[30 + 30*q + 30*q2]",
    "s{3,3,3,3,3,3,3,3,3,3}[30 + 30*q + 30*Q + 30*q2 + 30*Q2]",
    "s{5,5,5,5,5,5}[30 + 30*q + 30*Q2]",
)


@pytest.mark.parametrize("text", CAP_SCHUR_QUERIES)
def test_schur_values_at_the_query_cap(text):
    # An integer route: the h-matrix at integer points, and sympy's det of it.
    expr = parse(text)
    mu, a = expr.partition, alphabet_of(expr.alpha)
    got = evaluate(expr)
    l = len(mu)
    for point in ((2, 3), (-1, 5), (3, -2)):
        h = [h_of(k, a).eval(*point) for k in range(mu[0] + l)]
        matrix = sympy.Matrix(l, l, lambda i, j: h[mu[i] - i + j] if mu[i] - i + j >= 0 else 0)
        assert got.eval(*point) == int(matrix.det())


SERIES_RING, SU, SQ, SQ2, SQI, SQ2I = ring("u,q,q2,qi,q2i", sympy.QQ)


def random_series(rng: random.Random, order: int) -> list[PolyQQ]:
    """order + 1 Laurent coefficients in q and q2, about a quarter of them zero."""
    return [
        random_poly(rng, -2, 2, q2_lo=-2) if rng.random() < 0.75 else PolyQQ.zero()
        for _ in range(order + 1)
    ]


def series_ring_terms(p: PolyQQ):
    out = SERIES_RING.zero
    for (a, b), v in p.items():
        mono = (SQ**a if a >= 0 else SQI**-a) * (SQ2**b if b >= 0 else SQ2I**-b)
        out += mono * sympy.QQ(v.numerator, v.denominator)
    return out


def truncated_product(f: list[PolyQQ], g: list[PolyQQ], order: int) -> list[dict]:
    """Laurent terms of the coefficients of u^0..u^order of f(u)*g(u), as a
    product in a sympy ring with qi and q2i for q^-1 and q2^-1."""
    def to_series_ring(coeffs):
        return sum((SU**k * series_ring_terms(c) for k, c in enumerate(coeffs)), SERIES_RING.zero)

    out: list[dict] = [{} for _ in range(order + 1)]
    for (k, i, j, m, n), c in (to_series_ring(f) * to_series_ring(g)).terms():
        if k <= order:
            key = (i - m, j - n)
            out[k][key] = out[k].get(key, 0) + Fraction(int(c.numerator), int(c.denominator))
    return [{key: c for key, c in terms.items() if c} for terms in out]


def test_series_mul_against_sympy():
    rng = random.Random(71)
    for _ in range(16):
        nf, ng = rng.randint(0, 8), rng.randint(0, 8)
        f, g = random_series(rng, nf), random_series(rng, ng)
        got = TruncSeries(f, order=nf) * TruncSeries(g, order=ng)
        assert got.order == min(nf, ng)
        want = truncated_product(f, g, got.order)
        assert [dict(c.items()) for c in got.coefficients()] == want, (f, g)


def test_series_inverse_against_sympy():
    rng = random.Random(73)
    for _ in range(16):
        order = rng.randint(0, 8)
        c0 = PolyQQ.monomial(
            Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)),
            rng.randint(-2, 2),
            rng.randint(-2, 2),
        )
        f = [c0] + random_series(rng, order)[1:]
        inv = series_inverse(TruncSeries(f, order=order))
        assert inv.order == order
        product = truncated_product(f, inv.coefficients(), order)
        assert product == [{(0, 0): 1}] + [{}] * order, f


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


def ring_series_product(factors, n: int) -> list[dict]:
    """Laurent terms of [u^0..u^n] of prod (1 - x*u)^-w, in sympy's ring.

    (1 - x*u)^-w is the truncated geometric series sum (x*u)^i multiplied
    by itself w times for w > 0, and 1 - x*u multiplied -w times for
    w < 0; every product is truncated after u^n.
    """
    def truncated(f):
        return SERIES_RING.from_dict({m: c for m, c in f.terms() if m[0] <= n})

    out = SERIES_RING.one
    for w, x in factors:
        xu = SU * series_ring_terms(x)
        base = sum((xu**i for i in range(n + 1)), SERIES_RING.zero) if w > 0 else 1 - xu
        for _ in range(abs(w)):
            out = truncated(out * truncated(base))
    coeffs: list[dict] = [{} for _ in range(n + 1)]
    for (k, i, j, m, l), c in out.terms():
        key = (i - m, j - l)
        coeffs[k][key] = coeffs[k].get(key, 0) + Fraction(int(c.numerator), int(c.denominator))
    return [{key: c for key, c in terms.items() if c} for terms in coeffs]


def test_series_product_against_sympy():
    rng = random.Random(83)
    pool = (
        ONE, PolyQQ.const(3), PolyQQ.const(Fraction(-5, 3)), Q, ONE - Q, Q2, ONE - Q2,
        Q * 2, Q**2, Q * Fraction(1, 2), PolyQQ.monomial(1, -1, 1), LAURENT_X, LAURENT_Y,
    )
    cases = []
    for _ in range(40):
        factors = [(rng.choice((-3, -2, -1, 1, 2, 3)), x) for x in rng.sample(pool, rng.randint(1, 4))]
        n = rng.randint(0, 9)
        cases.append((factors, n, rng.choice((0, rng.randint(0, n), n))))
    # Three and four factors with lo > 0, where only the last factor may
    # skip the coefficients below u^lo.
    cases += [
        ([(2, Q), (-1, ONE - Q2), (3, LAURENT_X)], 8, 5),
        ([(1, ONE), (2, Q2), (1, ONE - Q), (2, PolyQQ.monomial(1, -1, 1))], 7, 7),
    ]
    # At the edge of the slot width: the x are one monomial times numbers of
    # one sign and the weights of one sign, so [u^n] is one term whose
    # numerator is, up to sign, the bound itself: the product of the
    # majorants at u^n, prod (1 - |z|_1*u)^-w for positive weights and
    # prod (1 + |z|_1*u)^-w for negative ones.  Over integers, denominators
    # and Laurent exponents.
    for mono in ((0, 0), (1, 0), (-1, 2), (-2, -1)):
        for sign in (1, -1):
            for den in (1, 3):
                numbers = (2, 5, 7) if den == 1 else (Fraction(2, 3), Fraction(5, 6), 7)
                factors = [(w, PolyQQ.monomial(sign * c, *mono)) for w, c in zip((3, 1, 2), numbers)]
                cases += [(factors, 9, 0), (factors, 10, 10), (factors[:1], 12, 3)]
                factors = [(-w, x) for w, x in factors]
                cases += [(factors, 6, 0), (factors, 4, 4), (factors[:1], 3, 2)]
    for factors, n, lo in cases:
        got = _series_product(factors, n, lo)
        assert len(got) == n + 1 - lo
        assert [dict(p.items()) for p in got] == ring_series_product(factors, n)[lo:], (factors, n, lo)
        for p in got:
            assert_canonical(p)


def ring_schur(factors, parts) -> dict:
    """Laurent terms of det[h_(mu_i-i+j)], h_m the [u^m] of ring_series_product, by ring_det."""
    l = len(parts)
    h = [PolyQQ(terms) for terms in ring_series_product(factors, parts[0] + l - 1)]
    return ring_det([
        [h[p - i + j] if p - i + j >= 0 else PolyQQ.zero() for j in range(l)]
        for i, p in enumerate(parts)
    ])


def mono(c, a: int = 0, b: int = 0) -> PolyQQ:
    return PolyQQ.monomial(c, a, b)


# At the edge of both slot widths of _schur: each x is one monomial times a
# number, so every h_m is one term, and the top coefficient of an h_m in
# the matrix has the bit length of the row's bound (its width k less the
# sign bit) and the determinant's that of the permanent bound (the width W
# less the sign bit).  Found by a search over such points; the last two
# reach W alone.  Over integers, denominators, q2 and Laurent exponents,
# and with the partition's first part at least, and below, its length.
SCHUR_EDGES = [
    ([(-1, mono(-3, -1, 2)), (-2, mono(Fraction(-2, 3), -1, 2))], (3, 3, 1)),
    ([(-3, mono(-7, 0, 1))], (3, 1)),
    ([(-3, mono(Fraction(-5, 6)))], (3, 1)),
    ([(-2, mono(-7, 0, 1)), (-1, mono(Fraction(5, 6), 0, 1))], (3, 2)),
    ([(-1, mono(7, 1))], (1, 1, 1, 1)),
    ([(-2, mono(-7))], (2, 2, 1)),
    ([(-2, mono(Fraction(-5, 6), 1))], (2, 2)),
    ([(-1, mono(-1)), (-3, mono(Fraction(-5, 6))), (-1, mono(7))], (5, 1)),
    ([(3, mono(2, 1)), (1, mono(5, 1)), (2, mono(7, 1))], (9,)),
    ([(2, mono(Fraction(-2, 3), -1, 2)), (1, mono(5, -1, 2))], (6,)),
    ([(-3, mono(3, 0, 1)), (-3, mono(-3, 0, 1))], (3, 3)),
    ([(2, mono(7)), (1, mono(-5)), (-3, mono(3))], (2, 1)),
]


def test_schur_kernel_against_sympy():
    rng = random.Random(89)
    pool = (
        ONE, PolyQQ.const(3), PolyQQ.const(Fraction(-5, 3)), Q, ONE - Q, Q2, ONE - Q2,
        Q * 2, Q**2, Q * Fraction(1, 2), PolyQQ.monomial(1, -1, 1), LAURENT_X, LAURENT_Y,
    )
    shapes = [mu.parts for size in range(1, 8) for mu in enumerate_partitions(size)]
    cases = []
    for _ in range(60):
        factors = [(rng.choice((-3, -2, -1, 1, 2, 3)), x) for x in rng.sample(pool, rng.randint(1, 3))]
        cases.append((factors, rng.choice(shapes)))
    for factors, parts in cases + SCHUR_EDGES:
        want = ring_schur(factors, parts)
        got = _schur(factors, parts)
        assert dict(got.items()) == want, (factors, parts)
        assert_canonical(got)
        # s_of takes the conjugate shape at the negated point when it is smaller.
        value = s_of(Partition(parts), Alphabet(atoms=tuple(factors)))
        assert dict(value.items()) == want, (factors, parts)


def random_laurent(rng: random.Random, size: int, rational: bool) -> PolyQQ:
    """size terms at q^-2..q^2 * q2^-1..q2^1 with coefficients in -99..99 (some over 1..12)."""
    exps = rng.sample([(a, b) for a in range(-2, 3) for b in range(-1, 2)], size)
    return PolyQQ({e: random_coeff(rng, rational) or 1 for e in exps})


# At the edge of the slot width: one coefficient carries almost all of |x|_1,
# so the top coefficient of x^e is at least half of |x|_1^e, the bound the
# width is taken from, and a width one bit short reads it with the wrong sign.
POW_EDGES = [
    (PolyQQ.const(100) + Q, 2),
    (PolyQQ.const(100) + Q, 7),
    (PolyQQ.monomial(100, -1) + Q2, 5),
    (PolyQQ.const(Fraction(100, 3)) + Q * Fraction(1, 3), 4),
    (Q * Fraction(-1, 7) + PolyQQ.monomial(Fraction(100, 7), 0, -1), 6),
] + [
    (PolyQQ.const(2**k) - Q2 * sign, e)
    for k in (8, 12, 40) for sign in (1, -1) for e in (2, 3, 11, 30)
]


def test_pow_against_sympy():
    rng = random.Random(1901)
    cases = list(POW_EDGES)
    for e in range(31):
        for rational in (False, True):
            # Four terms to e = 12 and three past it keep sympy's power small.
            cases.append((random_laurent(rng, rng.randint(2, 4 if e <= 12 else 3), rational), e))
            cases.append((random_laurent(rng, 1, rational), e))
    cases += [(PolyQQ.zero(), 5), (PolyQQ.const(Fraction(-2, 3)), 9)]
    for x, e in cases:
        got = x**e
        assert dict(got.items()) == ring_terms(to_ring(x) ** e), (x, e)
        assert_canonical(got)
    # Negative powers of monomials, as positive powers of their inverses.
    for x in (Q, -Q2, PolyQQ.monomial(Fraction(-2, 3), -1, 2), PolyQQ.monomial(7, 3, -1)):
        ((a, b), c), = x.items()
        inverse = PolyQQ.monomial(1 / Fraction(c), -a, -b)
        for e in (1, 2, 5, 30):
            got = x**-e
            assert dict(got.items()) == ring_terms(to_ring(inverse) ** e), (x, e)
            assert_canonical(got)


# The query language's atom values, and Laurent ones over denominators.
ALPHABET_ATOMS = (Q, ONE - Q, Q2, ONE - Q2, Q * Fraction(1, 2), LAURENT_X, LAURENT_Y)


def test_pow_and_p_of_take_no_polynomial_product(monkeypatch):
    rng = random.Random(1902)
    cases = [(random_laurent(rng, rng.randint(1, 4), rng.random() < 0.5), rng.randint(2, 12)) for _ in range(20)]
    expected = [ring_terms(to_ring(x) ** e) for x, e in cases]
    points = [
        Alphabet(rng.randint(-3, 3), [(rng.choice((-2, -1, 1, 2)), rng.choice(ALPHABET_ATOMS)) for _ in range(k)])
        for k in range(5)
    ]
    sums = []
    for point in points:
        for n in (1, 2, 9, 20):
            total = to_ring(point.constant)
            for w, x in point.atoms:
                total += to_ring(x) ** n * w
            sums.append(ring_terms(total))

    def refuse(*args):
        raise AssertionError("PolyQQ product inside __pow__ or p_of")

    monkeypatch.setattr(PolyQQ, "__mul__", refuse)
    monkeypatch.setattr(PolyQQ, "__rmul__", refuse)
    for (x, e), want in zip(cases, expected):
        assert dict((x**e).items()) == want
    got = [dict(p_of(n, point).items()) for point in points for n in (1, 2, 9, 20)]
    assert got == sums
