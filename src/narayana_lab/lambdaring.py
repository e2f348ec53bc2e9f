"""Evaluation of symmetric functions at formal specialization points.

A specialization point (:class:`Alphabet`) is an integer constant plus
integer-weighted rank-1 atoms whose values are exact polynomials.  Complete
functions are the coefficients of the product form (1-u)^-c * prod (1-x*u)^-w
of their generating series, which poly._series_product multiplies out on one
packed Python int per coefficient (Kronecker substitution); elementary
functions come from the lambda-ring negation e_n[a] = (-1)^n h_n[-a]; power
sums from the n-th powers of the atom values, each one packed int power
(PolyQQ.__pow__); Schur functions by one route per kind of point.  At a
constant c, s_mu[c] is the hook-content product prod (c + j - i) / h(i, j)
over the cells of mu, in ints; off a constant, poly._schur takes the
Jacobi-Trudi determinant from one packed row of complete functions to the
decoded value, on the smaller of the matrices of mu and of its conjugate.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import prod
from typing import Callable, Sequence

from .partitions import Partition, composition_multiplicity
from .poly import Coeff, PolyQQ, _as_poly, _schur, _series_product
from .rationals import gen_binomial

_ONE = PolyQQ.one()
VALUE_Q = PolyQQ.var_q()
VALUE_Q2 = PolyQQ.var_q2()
VALUE_ONE_MINUS_Q = PolyQQ.one() - VALUE_Q
VALUE_ONE_MINUS_Q2 = PolyQQ.one() - VALUE_Q2

STRINC_CAP = 12
SCHUR_LENGTH_CAP = 12
# The singleton alphabets' largest p index: thm8's and pa1-central's at VERIFY_MAX_N_CAP.
POWER_SUM_CAP = 30


def _poly_sort_key(cv: tuple[int, PolyQQ]) -> list:
    # Exponent pairs are unique in one value, and ints and Fractions compare
    # exactly with each other, so the terms as they are order the values.
    return sorted(cv[1].items())


class Alphabet:
    """Formal specialization point: integer constant + weighted rank-1 atoms.

    Negative weights encode alphabet subtraction.  Atoms with equal values are
    merged, atoms of value 0 dropped and atoms of value 1 folded into the
    constant (weight w adds w), so equality and hashing are canonical: a
    point has one Alphabet, and is_constant says whether it is a constant.
    """

    __slots__ = ("constant", "atoms")

    def __init__(
        self,
        constant: int = 0,
        atoms: Sequence[tuple[int, PolyQQ]] = (),
    ):
        merged: dict[PolyQQ, int] = {}
        for coeff, value in atoms:
            if coeff and value:
                merged[value] = merged.get(value, 0) + coeff
        self.constant = constant + merged.pop(_ONE, 0)
        self.atoms = tuple(
            sorted(
                ((c, v) for v, c in merged.items() if c),
                key=_poly_sort_key,
            )
        )

    @classmethod
    def of_constant(cls, c: int) -> Alphabet:
        return cls(constant=c)

    @classmethod
    def rank_one(cls, value: PolyQQ, coeff: int = 1) -> Alphabet:
        return cls(atoms=((coeff, value),))

    @property
    def is_constant(self) -> bool:
        return not self.atoms

    def __add__(self, other: Alphabet) -> Alphabet:
        return Alphabet(self.constant + other.constant, self.atoms + other.atoms)

    def scaled(self, m: int) -> Alphabet:
        if not m:
            return Alphabet()
        # A nonzero factor keeps every weight nonzero and every atom value, so
        # the merged, sorted tuple stays canonical.
        return _canonical(m * self.constant, tuple((m * c, v) for c, v in self.atoms))

    def __neg__(self) -> Alphabet:
        return self.scaled(-1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Alphabet)
            and self.constant == other.constant
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return hash((self.constant, self.atoms))

    def __repr__(self) -> str:
        parts = [str(self.constant)] if self.constant else []
        parts += [f"{c}*({v})" for c, v in self.atoms]
        return "Alphabet[" + (" + ".join(parts) if parts else "0") + "]"


def _canonical(constant: int, atoms: tuple[tuple[int, PolyQQ], ...]) -> Alphabet:
    """An Alphabet over atoms that are already canonical.

    That is: merged, of nonzero weights, of values other than 0 and 1, and sorted.
    """
    a = Alphabet.__new__(Alphabet)
    a.constant = constant
    a.atoms = atoms
    return a


def h_of(n: int, a: Alphabet) -> PolyQQ:
    """Complete function h_n at the point a.

    At a constant c it is C(c+n-1, n) (gen_binomial takes any integer top);
    otherwise [u^n] of H(u) = (1-u)^-c * prod (1-x*u)^-w, by the packed
    series product poly._series_product.
    """
    if n < 0:
        raise ValueError("h_of needs n >= 0")
    if a.is_constant:
        return PolyQQ.const(gen_binomial(a.constant + n - 1, n))
    return _series_product(_factors(a), n, n)[0]


def _factors(a: Alphabet) -> tuple[tuple[int, PolyQQ], ...]:
    """The pairs (w, x) of H(u) = prod (1 - x*u)^-w at a; the constant is the atom 1."""
    return ((a.constant, _ONE),) + a.atoms if a.constant else a.atoms


def e_of(n: int, a: Alphabet) -> PolyQQ:
    """Elementary function e_n at the point a, as (-1)^n h_n[-a].

    This is the lambda-ring negation H(u) E(-u) = 1 (Macdonald, Symmetric
    Functions and Hall Polynomials, I.2, (2.6)).
    """
    if n < 0:
        raise ValueError("e_of needs n >= 0")
    h = h_of(n, -a)
    return -h if n % 2 else h


def p_of(n: int, a: Alphabet) -> PolyQQ:
    """Power sum p_n at the point a: the constant plus weighted n-th powers.

    Each power is one packed int power (PolyQQ.__pow__), and the weighted
    terms are summed in one dict.
    """
    if n < 1:
        raise ValueError("p_of needs n >= 1")
    terms: dict = {(0, 0): a.constant}
    get = terms.get
    for coeff, value in a.atoms:
        for exps, c in (value**n).items():
            terms[exps] = get(exps, 0) + coeff * c
    return PolyQQ(terms)


def m_of_constant(mu: Partition, c: int) -> int:
    """Monomial function m_mu at an integer constant."""
    return gen_binomial(c, mu.length) * composition_multiplicity(mu)


def s_of(mu: Partition, a: Alphabet) -> PolyQQ:
    """Schur function s_mu at the point a; 1 at the empty partition.

    At a constant c it is the hook-content formula (Macdonald, Symmetric
    Functions and Hall Polynomials, I.3, Example 4): the product over the
    cells (i, j) of mu of (c + j - i) / h(i, j), h the hook length, taken
    as one exact int quotient.  At any other point it is the Jacobi-Trudi
    determinant, poly._schur, one packed pipeline from the row
    h_0..h_(mu_1+l-1) to the decoded value, on the smaller of the two
    Jacobi-Trudi matrices: s_mu = det e_(mu'_i-i+j) (Macdonald, I.3, (3.5))
    and e_n[a] = (-1)^n h_n[-a], so s_mu[a] = (-1)^|mu| s_mu'[-a], whose
    matrix has side mu_1 in place of l.
    """
    if mu.length > SCHUR_LENGTH_CAP:
        raise ValueError(
            f"partition length {mu.length} exceeds cap {SCHUR_LENGTH_CAP}"
        )
    if not mu.length:
        return _ONE
    if a.is_constant:
        c, cols = a.constant, mu.conjugate().parts
        cells = [(i, j) for i, p in enumerate(mu.parts) for j in range(p)]
        contents = prod(c + j - i for i, j in cells)
        return PolyQQ.const(contents // prod(mu[i] - j + cols[j] - i - 1 for i, j in cells))
    if mu[0] >= mu.length:
        return _schur(_factors(a), mu.parts)
    value = _schur(_factors(-a), mu.conjugate().parts)
    return -value if mu.weight % 2 else value


def hook_schur_constant(arm: int, leg: int, c: int) -> int:
    """Closed form for the Schur value of the hook (arm, 1^leg) at a constant."""
    if arm < 1 or leg < 0:
        raise ValueError("hook needs arm >= 1 and leg >= 0")
    return gen_binomial(arm + leg - 1, leg) * gen_binomial(arm + c - 1, arm + leg)


def hall_littlewood_principal(r: int, n: int) -> PolyQQ:
    """Principal specialization of the one-row Hall-Littlewood function at n ones.

    Computed by the alternating double-binomial closed form
    sum_m C(r-1, m) C(n+r-m-1, r) (-q)^m.  Its agreement with the series
    route, h_r[(1-q)n] divided exactly by (1-q), is the identity thm1.
    """
    if r < 1 or n < 1:
        raise ValueError("hall_littlewood_principal needs r >= 1 and n >= 1")
    return PolyQQ.from_q_coefficients(
        [(-1) ** m * gen_binomial(r - 1, m) * gen_binomial(n + r - m - 1, r) for m in range(r)]
    )


def strinc_oracle(n: int) -> PolyQQ:
    """Exhaustive sum of (1-q)^(number of ascents) over weakly increasing words.

    Words have length n and entries in 1..n+1; the result must match
    hall_littlewood_principal(n, n+1).
    """
    if n < 1:
        raise ValueError("strinc_oracle needs n >= 1")
    if n > STRINC_CAP:
        raise ValueError(f"strinc_oracle capped at n <= {STRINC_CAP}")
    counts = [0] * n
    for word in combinations_with_replacement(range(1, n + 2), n):
        counts[sum(1 for i in range(n - 1) if word[i] < word[i + 1])] += 1
    return PolyQQ.from_q_coefficients(counts).subst_q(VALUE_ONE_MINUS_Q)


class HSequence:
    """Formal alphabet given by the values of its complete functions.

    Power sums follow from the Newton recurrence n*h_n = sum h_r p_{n-r}.
    """

    def __init__(self, h_fn: Callable[[int], PolyQQ | Coeff], cap: float = float("inf")):
        # h is read straight from h_fn, so a costly h_fn memoizes itself
        # (narayana and catalan each keep a bounded lru_cache).
        self._h_fn = h_fn
        self._cap = cap
        self._p_cache: dict[int, PolyQQ] = {}

    def h(self, n: int) -> PolyQQ:
        if n < 0:
            raise ValueError("h index must be nonnegative")
        value = _as_poly(self._h_fn(n))
        if n == 0 and value != PolyQQ.one():
            raise ValueError("an h-sequence must start with h_0 = 1")
        return value

    def p(self, n: int) -> PolyQQ:
        if not 1 <= n <= self._cap:
            raise ValueError(f"p index must lie in 1..{self._cap}")
        # The table holds p_1..p_m; fill it upward, without recursion.
        for m in range(len(self._p_cache) + 1, n + 1):
            acc = self.h(m) * m
            for r in range(1, m):
                acc = acc - self.h(r) * self._p_cache[m - r]
            self._p_cache[m] = acc
        return self._p_cache[n]


def sfraction(hseq: HSequence, depth: int) -> list[PolyQQ]:
    """Coefficients c_1..c_depth of the S-fraction of f = sum_k h_k u^k.

    f = 1/(1 - c_1 u/(1 - c_2 u/(1 - ...))), by the three-term
    (Euler-Viskovatov) recurrence: P_0 = 1 and P_1 = f, then
    c_k = [u^1](P_k - P_(k-1)) and P_(k+1) = (P_k - P_(k-1)) * c_k^-1 / u.
    The tail 1/(1 - c_(k+1) u/(1 - ...)) is P_(k+1)/P_k, every P_k has
    constant term 1 (h_0 = 1), and each level is one subtraction and one
    product by the monomial c_k^-1: no series inverse.  Each c_k must be a
    nonzero monomial (a unit of the Laurent ring up to a rational factor),
    else ArithmeticError.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    # P_k as the list of its coefficients through u^(depth+2-k), the ones the
    # levels left read; P_0 = 1 is the list [1].
    prev = [_ONE]
    cur = [hseq.h(k) for k in range(depth + 2)]
    coeffs: list[PolyQQ] = []
    for _ in range(depth):
        # P_1 - P_0 keeps P_1's tail past [1]; after it P_k is the shorter list.
        diff = [a - b for a, b in zip(cur, prev)] + cur[len(prev):]
        c = diff[1]
        if c.is_zero:
            raise ArithmeticError(
                f"zero coefficient after {len(coeffs)} continued-fraction levels"
            )
        if not c.is_monomial():
            raise ArithmeticError(f"non-monomial continued-fraction coefficient {c}")
        coeffs.append(c)
        inv = c ** -1
        prev, cur = cur, [x * inv for x in diff[1:]]
    return coeffs
