"""Differential tests of h_of, e_of and s_of against independent routes.

The library evaluates h_n[a] by the packed series product
poly._series_product, and e_n[a] as (-1)^n h_n[-a].  Here they are checked
against the truncated series product (1-u)^-c * prod (1-x*u)^-w built from
TruncSeries products and the test oracle series_inverse, with e_n read off
the inverse of the series at -u; with sympy, against the expanded products (1-u)^-c * prod (1-x*u)^-w and
(1+u)^c * prod (1+x*u)^w; and against the route h_of took before the
packed product: an integer coefficient table and one subst_q up to two
atoms, and from three a head/tail convolution.  s_of is checked against
the Jacobi-Trudi determinant of the h_of values, taken by sympy's
DomainMatrix.det: on every partition of size up to 8 at every point of the
suite's alphabet pool and at Fraction and Laurent atoms, where it takes the
conjugate shape whenever that is smaller; and at constants, where it is the
hook-content product, on every partition of size up to 10 and at the query
cap.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fuzzers import random_alphabet
from narayana_lab import lambdaring, poly
from narayana_lab.identities import ALPHABET_POOL
from narayana_lab.lambdaring import (
    Alphabet,
    SCHUR_LENGTH_CAP,
    VALUE_ONE_MINUS_Q,
    VALUE_Q,
    e_of,
    h_of,
    s_of,
)
from narayana_lab.partitions import Partition, enumerate_partitions
from narayana_lab.poly import PolyQQ
from narayana_lab.rationals import gen_binomial
from narayana_lab.series import TruncSeries
from series_oracle import series_inverse

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
    """The product form of H(u): per atom, |w| factors 1/(1 - x*u) or (1 - x*u)."""
    out = TruncSeries(
        [PolyQQ.const(gen_binomial(a.constant + k - 1, k)) for k in range(order + 1)],
        order=order,
    )
    for weight, value in a.atoms:
        factor = TruncSeries([ONE, -value], order=order)
        if weight > 0:
            factor = series_inverse(factor)
        for _ in range(abs(weight)):
            out = out * factor
    return out


def series_route_e(n: int, a: Alphabet) -> PolyQQ:
    """e_n as the coefficient of 1/H(-u)."""
    hs = series_route_h(a, n)
    flipped = TruncSeries(
        [c if k % 2 == 0 else -c for k, c in enumerate(hs.coefficients())], order=n
    )
    return series_inverse(flipped).coefficient(n)


def jacobi_trudi(h_at, mu: Partition) -> PolyQQ:
    """det[h_at(mu_i-i+j)] by DomainMatrix.det over sympy's ring QQ[q, q2]; 1 at mu = ().

    Every entry is multiplied by one q^-lo * q2^-lo2, the lowest exponents of
    the whole matrix, so that it is a polynomial; the determinant then
    carries that factor l times.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ring, dq, dq2 = sympy.polys.rings.ring("q,q2", sympy.QQ)
    l = mu.length
    if not l:
        return ONE
    matrix = [
        [h_at(mu[i] - i + j) if mu[i] - i + j >= 0 else PolyQQ.zero() for j in range(l)]
        for i in range(l)
    ]
    exps = [e for row in matrix for entry in row for e, _ in entry.items()] or [(0, 0)]
    lo, lo2 = min(a for a, _ in exps), min(b for _, b in exps)
    rows = [
        [
            sum(
                (dq ** (a - lo) * dq2 ** (b - lo2) * sympy.QQ(c.numerator, c.denominator)
                 for (a, b), c in entry.items()),
                ring.zero,
            )
            for entry in row
        ]
        for row in matrix
    ]
    det = DomainMatrix(rows, (l, l), ring.to_domain()).det()
    return PolyQQ({
        (a + l * lo, b + l * lo2): Fraction(int(c.numerator), int(c.denominator))
        for (a, b), c in det.terms()
    })


def test_h_and_e_match_the_series_route():
    rng = random.Random(606)
    for _ in range(400):
        a = random_point(rng, WIDE_ATOMS)
        n = rng.randint(0, 14)
        hs = series_route_h(a, n)
        for k in range(n + 1):
            assert h_of(k, a) == hs.coefficient(k), (k, a)
        assert e_of(n, a) == series_route_e(n, a), (n, a)


def h_by_table(n: int, a: Alphabet) -> PolyQQ:
    """h_n[a] by the route h_of took before the packed series product.

    For a = c + w1*x1 + w2*x2, the sum over i + j <= n of
    C(c+n-i-j-1, n-i-j) * C(w1+i-1, i) * C(w2+j-1, j) * x1^i * x2^j, the
    integers at exponents (i, j) and one subst_q for x1 and x2.  More atoms
    split into a head (c and the first two atoms) and a tail, and
    h_n[head + tail] = sum_k h_k[head] * h_(n-k)[tail].
    """
    c, atoms = a.constant, a.atoms
    if len(atoms) > 2:
        head, tail = Alphabet(c, atoms[:2]), Alphabet(0, atoms[2:])
        out = PolyQQ.zero()
        for k in range(n + 1):
            out = out + h_by_table(k, head) * h_by_table(n - k, tail)
        return out
    if not atoms:
        return PolyQQ.const(gen_binomial(c + n - 1, n))
    hc = [gen_binomial(c + m - 1, m) for m in range(n + 1)]
    w1, x1 = atoms[0]
    r1 = [gen_binomial(w1 + i - 1, i) for i in range(n + 1)]
    if len(atoms) == 1:
        return PolyQQ.from_q_coefficients([hc[n - i] * r1[i] for i in range(n + 1)]).subst_q(x1)
    w2, x2 = atoms[1]
    r2 = [gen_binomial(w2 + j - 1, j) for j in range(n + 1)]
    table = {(i, j): hc[n - i - j] * r1[i] * r2[j] for i in range(n + 1) for j in range(n + 1 - i)}
    return PolyQQ(table).subst_q(x1, q2=x2)


def test_h_matches_the_table_and_head_tail_route():
    rng = random.Random(610)
    for natoms in (0, 1, 2, 3, 3, 4, 4):
        for _ in range(40):
            values = rng.sample(WIDE_ATOMS, natoms)
            weights = [rng.choice((-2, -1, 1, 2, 3)) for _ in values]
            a = Alphabet(constant=rng.randint(-3, 3), atoms=tuple(zip(weights, values)))
            assert len(a.atoms) == natoms
            n = rng.randint(0, 14)
            assert h_of(n, a) == h_by_table(n, a), (n, a)
            assert e_of(n, a) == (-1) ** n * h_by_table(n, -a), (n, a)


def test_s_matches_jacobi_trudi_over_h():
    rng = random.Random(611)
    for _ in range(60):
        a = random_point(rng, WIDE_ATOMS)
        mu = Partition(sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 6))), reverse=True))
        assert s_of(mu, a) == jacobi_trudi(lambda k: h_of(k, a), mu), (mu, a)


def test_h_takes_no_polynomial_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("PolyQQ product on the packed h route")

    a = Alphabet(constant=-2, atoms=((2, Q), (-1, Q2), (3, VALUE_ONE_MINUS_Q), (1, ONE - Q2)))
    b = Alphabet(atoms=((1, Q * Fraction(1, 2)), (2, PolyQQ.monomial(1, -1, 1)), (-1, ONE - Q)))
    c = Alphabet(constant=3, atoms=((-3, Q),))
    d = Alphabet(atoms=((2, Q2), (1, ONE - Q)))
    expected = {(n, p): h_by_table(n, p) for n in range(12) for p in (a, b, -a, c, d)}
    monkeypatch.setattr(PolyQQ, "__mul__", refuse)
    for (n, p), want in expected.items():
        assert h_of(n, p) == want, (n, p)


def test_s_off_a_constant_reads_no_h_value(monkeypatch):
    def refuse(*args):
        raise AssertionError("h_of on the Schur route at a non-constant point")

    cases = [
        (Partition((1,)), Alphabet(atoms=((1, Q),))),
        (Partition((5, 2)), Alphabet(-3, ((2, Q2), (1, ONE - Q)))),
        (Partition((3, 2, 2)), Alphabet(2, ((4, Q), (-3, Q2)))),
        (Partition((2, 1, 1, 1)), Alphabet(atoms=((1, VALUE_ONE_MINUS_Q),))),
        (Partition((4, 3, 3, 1, 1)), Alphabet(-1, ((1, Q), (2, Q2), (-1, ONE - Q2)))),
    ]
    expected = [jacobi_trudi(lambda k: h_of(k, a), mu) for mu, a in cases]
    monkeypatch.setattr(lambdaring, "h_of", refuse)
    for (mu, a), want in zip(cases, expected):
        assert s_of(mu, a) == want, (mu, a)


def test_s_off_a_constant_is_one_packed_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("PolyQQ product on the Schur route")

    decoded = []
    decode = poly._decode

    def counted(*args):
        decoded.append(args)
        return decode(*args)

    # One row, a 2 x 2, a square, and conjugates (first part below the
    # length) of side 1, 2 and 3; every value is nonzero, since a zero row
    # or column returns before anything is decoded.
    cases = [
        (Partition((4,)), Alphabet(atoms=((1, Q),))),
        (Partition((5, 2)), Alphabet(-3, ((2, Q2), (1, ONE - Q)))),
        (Partition((3, 2, 2)), Alphabet(2, ((4, Q), (-3, Q2)))),
        (Partition((1, 1, 1)), Alphabet(atoms=((3, Q * Fraction(1, 2)),))),
        (Partition((2, 1, 1, 1)), Alphabet(atoms=((4, VALUE_ONE_MINUS_Q),))),
        (Partition((3, 3, 2, 1, 1)), Alphabet(-1, ((1, Q), (2, Q2), (-1, ONE - Q2)))),
    ]
    expected = [jacobi_trudi(lambda k: h_of(k, a), mu) for mu, a in cases]
    monkeypatch.setattr(PolyQQ, "__mul__", refuse)
    monkeypatch.setattr(PolyQQ, "__rmul__", refuse)
    monkeypatch.setattr(poly, "_decode", counted)
    for (mu, a), want in zip(cases, expected):
        decoded.clear()
        assert s_of(mu, a) == want, (mu, a)
        assert len(decoded) == 1, (mu, a)


def test_s_matches_jacobi_trudi_on_every_small_shape():
    shapes = [mu for size in range(9) for mu in enumerate_partitions(size)]
    # Shapes that s_of conjugates (mu_1 < l), shapes at the border mu_1 = l,
    # and hooks.
    assert sum(1 for mu in shapes if mu.length and mu[0] < mu.length) == 28
    assert sum(1 for mu in shapes if mu.length and mu[0] == mu.length) == 10
    assert sum(1 for mu in shapes if mu.length > 1 and mu[1] == 1) == 28
    points = ALPHABET_POOL + (
        Alphabet(1, ((2, Q * Fraction(1, 2)), (-1, PolyQQ.monomial(1, -1, 1)))),
        Alphabet(-2, ((1, PolyQQ.monomial(Fraction(-3, 4), 2, -1)), (3, ONE - Q2))),
    )
    for a in points:
        for mu in shapes:
            assert s_of(mu, a) == jacobi_trudi(lambda k: h_of(k, a), mu), (mu, a)


# README's cap-level shapes: the 12-part ones that s_of conjugates or cannot,
# and the 1- to 10-part ones of its tables.
CAP_SHAPES = [
    (7, 7, 7) + (1,) * 9, (6, 6, 6, 4) + (1,) * 8, (13, 5, 3) + (1,) * 9, (12, 6, 3) + (1,) * 9,
    (12, 5, 3, 2) + (1,) * 8, (19,) + (1,) * 11, (5,) * 6, (3,) * 10, (4,) * 6 + (3, 3),
    (8, 8, 8), (29, 1), (30,), (15, 15),
]


def integer_jacobi_trudi(mu: Partition, c: int) -> int:
    """det[C(c + m - 1, m)], m = mu_i - i + j, by DomainMatrix.det over ZZ; 1 at mu = ()."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    l = mu.length
    if not l:
        return 1
    rows = [
        [sympy.ZZ(gen_binomial(c + m - 1, m) if m >= 0 else 0) for m in (mu[i] - i + j for j in range(l))]
        for i in range(l)
    ]
    return int(DomainMatrix(rows, (l, l), sympy.ZZ).det())


def test_s_at_a_constant_matches_jacobi_trudi():
    shapes = [mu for size in range(11) for mu in enumerate_partitions(size)]
    assert len(shapes) == 139
    for c in (-30, -2, 0, 1, 7, 30):
        for mu in shapes:
            assert s_of(mu, Alphabet.of_constant(c)) == integer_jacobi_trudi(mu, c), (mu, c)
    # Most cap values are past 2^53, where a quotient taken in floats rounds.
    wide = 0
    for parts in CAP_SHAPES:
        mu = Partition(parts)
        for c in (-30, 30):
            want = integer_jacobi_trudi(mu, c)
            assert s_of(mu, Alphabet.of_constant(c)) == want, (mu, c)
            wide += abs(want) > 2**53
    assert wide == 23


def test_s_at_the_empty_partition_and_past_the_length_cap():
    points = (Alphabet.of_constant(0), Alphabet.of_constant(-7), Alphabet(atoms=((1, Q),)), Alphabet(2, ((-1, Q2),)))
    for a in points:
        assert s_of(Partition(()), a) == ONE, a
        for parts in ((1,) * (SCHUR_LENGTH_CAP + 1), (2,) * (SCHUR_LENGTH_CAP + 1)):
            with pytest.raises(ValueError, match="exceeds cap"):
                s_of(Partition(parts), a)


def test_s_at_a_constant_takes_no_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("h_of or an elimination on the Schur route at a constant")

    cases = [(Partition(parts), c) for parts in CAP_SHAPES[:4] + [(3, 2, 2), (1,), (4, 1)] for c in (-30, -2, 0, 7)]
    expected = [integer_jacobi_trudi(mu, c) for mu, c in cases]
    monkeypatch.setattr(lambdaring, "h_of", refuse)
    monkeypatch.setattr(poly, "_bareiss", refuse)
    for (mu, c), want in zip(cases, expected):
        assert s_of(mu, Alphabet.of_constant(c)) == want, (mu, c)


def test_h_and_e_reach_no_series_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("series arithmetic on the h/e route")

    monkeypatch.setattr(TruncSeries, "__mul__", refuse)
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
