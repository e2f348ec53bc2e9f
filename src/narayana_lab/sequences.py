"""Narayana polynomials and their relatives, by several independent routes.

The library route is the binomial closed form
C_n(q) = sum_k N(n,k) q^(k-1),  N(n,k) = C(n,k-1) C(n,k) / n;
the defining recurrence
C_0 = 1,  C_n = (1-q) C_{n-1} + q * sum C_i C_{n-1-i}
is checked against it by the identity `gf-quadratic` and by the tests.
`narayana_closed` gives the paper's other closed forms, which the tests check
against `narayana`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate
from math import comb

from .lambdaring import POWER_SUM_CAP, HSequence
from .partitions import Partition
from .poly import PolyQQ, _jacobi_trudi
from .rationals import gen_binomial

CLOSED_FORM_VARIANTS = ("eqde", "eqtr", "eqqu", "eqci", "eqsi")

NARAYANA_SCHUR_LENGTH_CAP = 14
NARAYANA_SCHUR_INDEX_CAP = 20

_Q = PolyQQ.var_q()
_ONE = PolyQQ.one()


@lru_cache(maxsize=256)
def narayana_row(n: int) -> tuple[int, ...]:
    """The int coefficients of q^0, q^1, ... of C_n(q): the Narayana numbers
    N(n,1), ..., N(n,n), and (1,) at n = 0.

    The one per-n memo that narayana, large_narayana_row, catalan and
    schroeder read, for the 256 most recent n, above the 201 rows of the
    CLI's largest table.
    """
    if n < 0:
        raise ValueError("narayana index must be nonnegative")
    if n == 0:
        return (1,)
    return tuple(comb(n, k - 1) * comb(n, k) // n for k in range(1, n + 1))


@lru_cache(maxsize=256)
def narayana(n: int) -> PolyQQ:
    """The n-th Narayana polynomial C_n(q), from the Narayana numbers N(n,k)."""
    return PolyQQ.from_q_coefficients(narayana_row(n))


def large_narayana_row(n: int) -> tuple[int, ...]:
    """The int coefficients of q*C_n(q), and (1,) at n = 0."""
    return (0,) + narayana_row(n) if n else (1,)


def large_narayana(n: int) -> PolyQQ:
    """q * C_n(q) for n >= 1, and 1 at n = 0."""
    return PolyQQ.from_q_coefficients(large_narayana_row(n))


@lru_cache(maxsize=256)
def catalan(n: int) -> int:
    """Catalan number, as the q = 1 value of the Narayana polynomial: its row sum."""
    return sum(narayana_row(n))


@lru_cache(maxsize=256)
def _small_schroeder(n: int) -> int:
    """C_n(2), by Horner's rule on the row."""
    value = 0
    for c in reversed(narayana_row(n)):
        value = 2 * value + c
    return value


def schroeder(kind: str, n: int) -> int:
    """Schroeder numbers as q = 2 values: 'small' of C_n, 'large' of q*C_n (2*C_n(2), 1 at 0)."""
    if kind == "small":
        return _small_schroeder(n)
    if kind == "large":
        return 2 * _small_schroeder(n) if n else 1
    raise ValueError(f"unknown Schroeder kind {kind!r}")


def _integral(p: PolyQQ) -> PolyQQ:
    if not p.is_integral:
        raise ArithmeticError(f"expected an integral polynomial, got {p}")
    return p


def narayana_closed(n: int, variant: str) -> PolyQQ:
    """One of the closed-form routes to C_n(q).

    The 'eqde' variant evaluates to q*C_n(q); every other variant to C_n(q).
    Rational scalars appear along the way; integrality of the final value is
    asserted.
    """
    if n < 1:
        raise ValueError("closed forms need n >= 1")
    if variant == "eqde":
        acc = PolyQQ.from_q_coefficients(
            [gen_binomial(n + 1, m) * gen_binomial(2 * n - m, n) for m in range(n + 1)]
        ).subst_q(_Q - 1)
        return _integral(acc * Fraction(1, n + 1))
    if variant == "eqtr":
        # sum_m s_m * sum_{i<m} (1-q)^i = sum_i (1-q)^i * sum_{m>i} s_m
        signed = [
            (-1) ** (m + 1) * gen_binomial(n + 1, m) * gen_binomial(2 * n - m, n)
            for m in range(1, n + 1)
        ]
        tails = list(accumulate(reversed(signed)))[::-1]
        acc = PolyQQ.from_q_coefficients(tails).subst_q(_ONE - _Q)
        return _integral(acc * Fraction(1, n + 1))
    if variant == "eqqu":
        acc = PolyQQ.from_q_coefficients(
            [gen_binomial(n - 1, m) * gen_binomial(2 * n - m, n) for m in range(n)]
        ).subst_q(_Q - 1)
        return _integral(acc * Fraction(1, n + 1))
    if variant == "eqci":
        return PolyQQ(
            {(m, n - m): gen_binomial(n + m, 2 * m) * catalan(m) for m in range(n + 1)}
        ).subst_q(_Q, q2=_ONE - _Q)
    if variant == "eqsi":
        return PolyQQ(
            {
                (m, n - 2 * m - 1): gen_binomial(n - 1, 2 * m) * catalan(m)
                for m in range(n // 2 + 1)
            }
        ).subst_q(_Q, q2=_Q + 1)
    raise ValueError(f"unknown closed-form variant {variant!r}")


def master_formula(eta: int, zeta: int, r: int) -> PolyQQ:
    """Triple-binomial expansion of C_r(q) for a sign pair (eta, zeta).

    The sum lives in the Laurent ring with rational scalars; transient q^-1
    terms and halves cancel, and integrality of the result is asserted.
    """
    if eta not in (1, -1) or zeta not in (1, -1):
        raise ValueError("eta and zeta must be +1 or -1")
    if r < 1:
        raise ValueError("master_formula needs r >= 1")
    base_mixed = PolyQQ.const(1 + eta) + _Q * (1 + zeta)
    base_sign = PolyQQ.const(-eta) - _Q * zeta
    unit = 1 + eta * zeta
    acc = PolyQQ.zero()
    for i in range(r + 1):
        for j in range(r + 1 - i):
            b1 = gen_binomial(i + 1, r - i - j)
            if not b1:
                continue
            scalar = (
                Fraction(b1 * gen_binomial(2 * i + j, j) * gen_binomial(2 * i, i), 1)
                * Fraction(1, 2 ** (i + 1))
                * Fraction(1, i + 1)
                * unit ** (r - i - j)
            )
            if not scalar:
                continue
            term = PolyQQ.monomial(scalar, r - i - j - 1)
            term = term * base_mixed ** (2 * i + j - r + 1)
            if j:
                term = term * base_sign**j
            acc = acc + term
    return _integral(acc)


@cache
def narayana_hsequence() -> HSequence:
    """The formal alphabet whose complete functions are the Narayana polynomials."""
    return HSequence(narayana, cap=POWER_SUM_CAP)


@cache
def catalan_hsequence() -> HSequence:
    """The formal alphabet whose complete functions are the Catalan numbers."""
    return HSequence(catalan, cap=POWER_SUM_CAP)


def narayana_power_sum(r: int) -> PolyQQ:
    """Power sum of the Narayana alphabet: sum of C(r-1,k) C(r,k) q^k."""
    if r < 1:
        raise ValueError("power sums need r >= 1")
    return PolyQQ.from_q_coefficients(
        [gen_binomial(r - 1, k) * gen_binomial(r, k) for k in range(r)]
    )


def narayana_schur(mu: Partition) -> PolyQQ:
    """Schur function of the Narayana alphabet, det[C_(mu_i-i+j)(q)]; 1 at the empty partition.

    poly._jacobi_trudi takes the determinant on the int rows of narayana_row.
    C_m(q) has q-degree m - 1 for m >= 1 (0 at m = 0), and the m of every
    Leibniz term sum to |mu| with at least one m >= 1, so the determinant has
    q-degree at most |mu| - 1 and |mu| slots hold it.  Capped by determinant
    size and largest h-index so the exact elimination stays at desk scale.
    """
    if mu.length > NARAYANA_SCHUR_LENGTH_CAP:
        raise ValueError(
            f"narayana_schur capped at determinant size {NARAYANA_SCHUR_LENGTH_CAP}"
        )
    if mu.length and mu[0] + mu.length - 1 > NARAYANA_SCHUR_INDEX_CAP:
        raise ValueError(
            f"narayana_schur capped at h-index {NARAYANA_SCHUR_INDEX_CAP}"
        )
    if not mu.length:
        return _ONE
    return PolyQQ.from_q_coefficients(_jacobi_trudi(narayana_row, mu.parts, mu.weight))


@lru_cache(maxsize=256)
def jacobi11(n: int) -> PolyQQ:
    """Degree-n Jacobi polynomial with both parameters 1, in q as the argument.

    Memoized for the 256 most recent n: jacobi-bridge reads one per point.
    """
    if n < 0:
        raise ValueError("jacobi11 index must be nonnegative")
    half = Fraction(1, 2)
    return PolyQQ(
        {
            (n - m, m): gen_binomial(n + 1, m) * gen_binomial(n + 1, n - m)
            for m in range(n + 1)
        }
    ).subst_q((_Q - 1) * half, q2=(_Q + 1) * half)


def type_b_w(r: int) -> PolyQQ:
    """Type-B analogue: sum of C(r,k)^2 q^k, whose value at 1 is C(2r,r)."""
    if r < 0:
        raise ValueError("type_b_w index must be nonnegative")
    return PolyQQ.from_q_coefficients(
        [gen_binomial(r, k) ** 2 for k in range(r + 1)]
    )
