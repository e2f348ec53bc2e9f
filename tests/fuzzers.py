"""Seeded fuzz drivers shared by the property tests and the acceptance suite.

Each driver returns the number of cases it checked and raises AssertionError
on the first violation, so callers can assert on the count they asked for.
"""

from __future__ import annotations

import random
from typing import Iterator

from narayana_lab.dsl import AlphaTerm, BasisApp, PrincipalHL, parse, render
from narayana_lab.lambdaring import Alphabet, VALUE_ONE_MINUS_Q, VALUE_Q, h_of
from narayana_lab.poly import PolyQQ
from narayana_lab.rationals import gen_binomial
from narayana_lab.series import TruncSeries

_ATOM_VALUES = (
    VALUE_Q,
    VALUE_ONE_MINUS_Q,
    PolyQQ.var_q2(),
    PolyQQ.one() - PolyQQ.var_q2(),
    PolyQQ.var_q() * 2,
    PolyQQ.var_q() ** 2,
)


def random_alphabet(rng: random.Random, max_atoms: int = 2) -> Alphabet:
    constant = rng.randint(-3, 3)
    atoms = tuple(
        (rng.choice((-2, -1, 1, 2)), rng.choice(_ATOM_VALUES))
        for _ in range(rng.randint(0, max_atoms))
    )
    return Alphabet(constant=constant, atoms=atoms)


def fuzz_alphabet_additivity(pairs: int = 500, order: int = 10, seed: int = 2024) -> int:
    """h_n[P+Q] is the Cauchy convolution and H_u[P-Q]*H_u[Q] = H_u[P]."""
    rng = random.Random(seed)

    def series(a):
        return TruncSeries([h_of(k, a) for k in range(order + 1)], order=order)

    for _ in range(pairs):
        p = random_alphabet(rng)
        q = random_alphabet(rng)
        joint = p + q
        for n in range(order + 1):
            convolved = PolyQQ.zero()
            for k in range(n + 1):
                convolved = convolved + h_of(n - k, p) * h_of(k, q)
            assert h_of(n, joint) == convolved, (p, q, n)
        assert series(p + (-q)) * series(q) == series(p), (p, q)
    return pairs


def fuzz_pascal(cases: int = 10_000, seed: int = 2024) -> int:
    """gen_binomial satisfies the Pascal recurrence for arbitrary integer tops."""
    rng = random.Random(seed)
    for _ in range(cases):
        a = rng.randint(-60, 60)
        k = rng.randint(1, 40)
        assert gen_binomial(a, k) == gen_binomial(a - 1, k) + gen_binomial(a - 1, k - 1), (a, k)
    return cases


def random_expr(rng: random.Random, top: int = 9):
    """A random parse tree; its numbers, but for the partition parts, are at most ``top``."""
    def alpha() -> tuple[AlphaTerm, ...]:
        terms = []
        for i in range(rng.randint(1, 4)):
            sign = 1 if i == 0 or rng.random() < 0.5 else -1
            mult = rng.choice((None, rng.randint(1, top)))
            atom = rng.choice((rng.randint(0, top), "q", "Q", "q2", "Q2"))
            terms.append(AlphaTerm(sign, mult, atom))
        return tuple(terms)

    kind = rng.randrange(4)
    if kind == 0:
        return PrincipalHL(rng.randint(1, top), rng.randint(1, top))
    if kind == 1:
        basis = rng.choice("hep")
        lo = 1 if basis == "p" else 0
        return BasisApp(basis, rng.randint(lo, top), None, alpha())
    parts = tuple(
        sorted((rng.randint(1, 5) for _ in range(rng.randint(1, 4))), reverse=True)
    )
    if kind == 2:
        return BasisApp("s", None, parts, alpha())
    const_alpha = tuple(
        AlphaTerm(1 if i == 0 or rng.random() < 0.5 else -1,
                  rng.choice((None, rng.randint(1, top))),
                  rng.randint(0, top))
        for i in range(rng.randint(1, 3))
    )
    return BasisApp("m", None, parts, const_alpha)


def dsl_renders(cases: int, seed: int, top: int = 9) -> Iterator[tuple]:
    """``cases`` random parse trees with their canonical texts."""
    rng = random.Random(seed)
    for _ in range(cases):
        expr = random_expr(rng, top)
        yield expr, render(expr)


def fuzz_dsl_roundtrip(cases: int = 1000, seed: int = 2024, top: int = 9) -> int:
    """Rendering then re-parsing a random expression is the identity."""
    for expr, text in dsl_renders(cases, seed, top):
        assert parse(text) == expr, text
    return cases
