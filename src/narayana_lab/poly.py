"""Sparse exact Laurent polynomials in the two variables q and q2.

Coefficients are arbitrary-precision rationals (stored as int whenever the
denominator is 1).  Exponents may be negative; ``is_integral`` decides whether
a value is an honest polynomial with integer coefficients.

Products, evaluation and substitution run on Python ints alone: each operand
is scaled to integer numerators over the lcm of its denominators (1, with
nothing copied, for an integer polynomial), the kernel accumulates ints, and a
Fraction is built once per output value, at the boundary.  The kernels pack
values into Python ints at t = 2^w (Kronecker substitution), so that the work
runs in CPython's bigint arithmetic.  Each one maps a value, shifted so that
no exponent is negative, by q -> t, q2 -> t^S, and reads the result's digits
once (_unpack, _decode):

- sums of powers sum c_ab*x^a*y^b, from subst_q or from _sum_powers: _horner
  packs each dense int row into one int;
- integer powers x^e (PolyQQ.__pow__, so also the power sums p_n): one int
  power of x packed;
- products of series prod (1 - x*u)^-w, the generating series of complete
  functions: _packed_row packs each x into one int and keeps u as the list
  index, and _series_product decodes the coefficients;
- Jacobi-Trudi determinants det[h_(mu_i-i+j)]: _jacobi_trudi packs each
  entry's int row at the determinant's slot width and runs Bareiss
  elimination (_bareiss) on them.  _schur feeds it the h_m of such a series,
  read off the packed row, for a Schur value off a constant point, with no
  PolyQQ in between; the Narayana alphabet feeds it its int rows.

A value is rendered once, in one pass over its sorted exponents, with the
names of its monomials read from a bounded table; the text is kept in the
value beside its hash, so a value read again from a memo is not rendered
again.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, log2
from operator import add, lshift, mul
from typing import Callable, Iterator, Mapping, Sequence

Coeff = int | Fraction
ExpPair = tuple[int, int]


class ExactDivisionError(ArithmeticError):
    """Polynomial division left a remainder."""


def _norm(c: Coeff) -> Coeff:
    # type() and not isinstance(): Fraction is a numbers.Rational ABC, so an
    # isinstance test on an int goes through ABCMeta.__instancecheck__.
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _numerators(terms: dict[ExpPair, Coeff]) -> tuple[dict[ExpPair, int], int]:
    """Integer numerators over the lcm d of the denominators, and d."""
    d = 1
    for c in terms.values():
        if type(c) is not int:
            d = lcm(d, c.denominator)
    if d == 1:
        return terms, 1
    return {exps: c.numerator * (d // c.denominator) for exps, c in terms.items()}, d


def _quotient(a: Coeff, b: Coeff) -> Coeff:
    """Exact a / b for b != 0, as an int when it is one."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _norm(Fraction(a) / b)


class PolyQQ:
    """Immutable Laurent polynomial in q and q2 with exact coefficients.

    Terms are held as a map from (deg_q, deg_q2) to a nonzero coefficient;
    the representation is canonical, so equality and hashing are structural.
    """

    __slots__ = ("_terms", "_hash", "_text")

    def __init__(self, terms: Mapping[ExpPair, Coeff] | None = None):
        clean: dict[ExpPair, Coeff] = {}
        if terms:
            for exps, c in terms.items():
                c = _norm(c)
                if c:
                    clean[exps] = c
        self._terms = clean
        self._hash: int | None = None
        self._text: str | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> PolyQQ:
        return _ZERO

    @classmethod
    def one(cls) -> PolyQQ:
        return _ONE

    @classmethod
    def const(cls, c: Coeff) -> PolyQQ:
        return cls({(0, 0): c})

    @classmethod
    def var_q(cls) -> PolyQQ:
        return _Q

    @classmethod
    def var_q2(cls) -> PolyQQ:
        return _Q2

    @classmethod
    def monomial(cls, c: Coeff, deg_q: int, deg_q2: int = 0) -> PolyQQ:
        return cls({(deg_q, deg_q2): c})

    @classmethod
    def from_q_coefficients(cls, coeffs) -> PolyQQ:
        """Build from a list of coefficients of q^0, q^1, ..."""
        return cls({(i, 0): c for i, c in enumerate(coeffs)})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[ExpPair, Coeff]]:
        return iter(self._terms.items())

    def coeff(self, deg_q: int, deg_q2: int = 0) -> Coeff:
        return self._terms.get((deg_q, deg_q2), 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_integral(self) -> bool:
        """True iff all coefficients are integers and no exponent is negative."""
        return all(
            isinstance(c, int) and a >= 0 and b >= 0
            for (a, b), c in self._terms.items()
        )

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def max_deg_q(self) -> int:
        return max((a for a, _ in self._terms), default=0)

    def min_deg_q(self) -> int:
        return min((a for a, _ in self._terms), default=0)

    def max_deg_q2(self) -> int:
        return max((b for _, b in self._terms), default=0)

    def min_deg_q2(self) -> int:
        return min((b for _, b in self._terms), default=0)

    def q_coefficients(self) -> list[Coeff]:
        """Coefficients of q^0, q^1, ... for a q2-free value with nonnegative exponents."""
        if any(b != 0 or a < 0 for a, b in self._terms):
            raise ValueError("not a plain polynomial in q")
        out: list[Coeff] = [0] * (self.max_deg_q() + 1)
        for (a, _), c in self._terms.items():
            out[a] = c
        return out

    # -- arithmetic --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyQQ):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == PolyQQ.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            terms = self._terms
            if not terms:
                self._hash = hash(0)
            elif len(terms) == 1 and (0, 0) in terms:
                # A constant equals its value, so it hashes as its value.
                self._hash = hash(terms[(0, 0)])
            else:
                self._hash = hash(frozenset(terms.items()))
        return self._hash

    def __add__(self, other: PolyQQ | Coeff) -> PolyQQ:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for exps, c in other._terms.items():
            s = out.get(exps, 0) + c
            if type(s) is not int:
                s = _norm(s)
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> PolyQQ:
        return _wrap({exps: -c for exps, c in self._terms.items()})

    def __sub__(self, other: PolyQQ | Coeff) -> PolyQQ:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Coeff) -> PolyQQ:
        return _coerce(other) + (-self)

    def __mul__(self, other: PolyQQ | Coeff) -> PolyQQ:
        if not isinstance(other, PolyQQ):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _norm(other)
            if not other:
                return _ZERO
            if other == 1:
                return self
            return _wrap(
                {exps: _norm(c * other) for exps, c in self._terms.items()}
            )
        a, da = _numerators(self._terms)
        b, db = _numerators(other._terms)
        if len(a) > len(b):
            a, b = b, a
        acc: dict[ExpPair, int] = {}
        get = acc.get
        for (x1, y1), c1 in a.items():
            for (x2, y2), c2 in b.items():
                exps = (x1 + x2, y1 + y2)
                acc[exps] = get(exps, 0) + c1 * c2
        d = da * db
        if d == 1:
            return _wrap({exps: c for exps, c in acc.items() if c})
        return _wrap({exps: _norm(Fraction(c, d)) for exps, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, e: int) -> PolyQQ:
        """self^e; a negative e only for a nonzero monomial.

        A monomial c*q^a*q2^b is c^e at e*(a, b).  Any other value is scaled
        to integer numerators x over one denominator d and shifted by
        q^-s * q2^-s2 (s, s2 its lowest exponents) so that every exponent
        is >= 0.  With A its top q-exponent so shifted, x^e has its
        q-exponents in [0, S), S = e*A + 1, and the ring map q -> t,
        q2 -> t^S, t -> 2^w packs x into one int X.  X^e is one int power,
        decoded once by _unpack; w is one bit more than the bit length of
        |x|_1^e, with |.|_1 the sum of absolute values, which bounds every
        coefficient of x^e.  The result is divided by d^e and shifted back
        by q^(e*s) * q2^(e*s2).
        """
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return _ONE
        terms = self._terms
        if not terms:
            if e < 0:
                raise ZeroDivisionError("zero raised to a negative power")
            return _ZERO
        if len(terms) == 1:
            ((a, b), c), = terms.items()
            return _wrap({(e * a, e * b): c**e if e > 0 else _quotient(1, c**-e)})
        if e < 0:
            raise ExactDivisionError("negative power of a non-monomial Laurent polynomial")
        if e == 1:
            return self
        nums, d = _numerators(terms)
        a_exps, b_exps = zip(*nums)
        s, s2 = min(a_exps), min(b_exps)
        stride = e * (max(a_exps) - s) + 1
        w = (sum(map(abs, nums.values())) ** e).bit_length() + 1
        packed = sum(c << w * (a - s + stride * (b - s2)) for (a, b), c in nums.items()) ** e
        digits = _unpack(packed, w, stride * e * (max(b_exps) - s2) + stride)
        return _decode(digits, stride, stride, e * s, e * s2, d**e)

    def divexact(self, divisor: PolyQQ) -> PolyQQ:
        """Exact division in the Laurent ring; raises ExactDivisionError otherwise."""
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        if not self:
            return _ZERO
        if divisor.is_monomial():
            ((a, b), c), = divisor._terms.items()
            return _wrap(
                {(x - a, y - b): _quotient(cc, c) for (x, y), cc in self._terms.items()}
            )
        # Leading-term elimination under lex order on (deg_q, deg_q2).  When the
        # division is exact every step emits one quotient term; a support bound
        # derived from the operands catches inexact input.
        rem = dict(self._terms)
        lead_d = max(divisor._terms)
        cd = divisor._terms[lead_d]
        span_q = self.max_deg_q() - divisor.min_deg_q() - (self.min_deg_q() - divisor.max_deg_q()) + 1
        span_q2 = self.max_deg_q2() - divisor.min_deg_q2() - (self.min_deg_q2() - divisor.max_deg_q2()) + 1
        budget = span_q * span_q2
        quot: dict[ExpPair, Coeff] = {}
        while rem:
            budget -= 1
            if budget < 0:
                raise ExactDivisionError("inexact polynomial division")
            lead_r = max(rem)
            exps = (lead_r[0] - lead_d[0], lead_r[1] - lead_d[1])
            c = _quotient(rem[lead_r], cd)
            quot[exps] = c
            for (x, y), cc in divisor._terms.items():
                key = (x + exps[0], y + exps[1])
                s = rem.get(key, 0) - c * cc
                if type(s) is not int:
                    s = _norm(s)
                if s:
                    rem[key] = s
                elif key in rem:
                    del rem[key]
        return _wrap(quot)

    # -- evaluation and substitution ----------------------------------------

    def eval(self, at_q: Coeff = 0, at_q2: Coeff = 0) -> Coeff:
        """Exact value at a rational point; TypeError for any other point.

        The terms are summed in ints over one shared denominator: with
        x = xn/xd and q-exponents in [lo, hi], each x^a is
        xn^(a-lo) * xd^(hi-a) over xd^(hi-lo), times the Laurent shift x^lo;
        likewise in q2.  The cost follows the number of terms, not the
        exponent window.
        """
        terms = self._terms
        for point in (at_q, at_q2):
            if not isinstance(point, (int, Fraction)):
                raise TypeError(f"cannot use {type(point).__name__!r} as a rational point")
        if not terms:
            return 0
        nums, den = _numerators(terms)
        num = 0
        xn, xd = at_q.numerator, at_q.denominator
        yn, yd = at_q2.numerator, at_q2.denominator
        a_lo, a_hi = min(a for a, _ in terms), max(a for a, _ in terms)
        b_lo, b_hi = min(b for _, b in terms), max(b for _, b in terms)
        for (a, b), c in nums.items():
            num += c * xn ** (a - a_lo) * xd ** (a_hi - a) * yn ** (b - b_lo) * yd ** (b_hi - b)
        den *= xd ** (a_hi - a_lo) * yd ** (b_hi - b_lo)
        for n, d, lo in ((xn, xd, a_lo), (yn, yd, b_lo)):
            if lo >= 0:
                num, den = num * n**lo, den * d**lo
            elif n == 0:
                raise ZeroDivisionError("zero raised to a negative exponent")
            else:
                num, den = num * d**-lo, den * n**-lo
        return _norm(Fraction(num, den))

    def subst_q(
        self, replacement: PolyQQ | Coeff, q2: PolyQQ | Coeff | None = None
    ) -> PolyQQ:
        """Substitute q -> replacement and, if q2 is given, q2 -> q2, both at once.

        The library's one route for power sums: sum c_ab*x^a*y^b is the
        polynomial with coefficient c_ab at (a, b), with subst_q(x, q2=y); over
        one base, from_q_coefficients(c).subst_q(x).  Without q2, q2 stays as
        it is.  The exponents of a replaced variable must be >= 0.

        Every shape runs on dense integer rows over one denominator.  self, x
        and y are scaled once to integer numerators (x = xn/dx, y = yn/dy).
        Every value is put into one Laurent row in t by the ring map
        q -> t, q2 -> t^S, S wider than the window of the result's
        q-exponents, and _decode reads the result back.  _horner sums, for
        each q2-exponent b, y^b (or the kept q2^b) times sum_a c_ab*x^a.

        Time and memory grow with the exponent window times the slot width,
        not with the number of terms.  The rows span K times the spread of x's
        exponents (0 included), plus B times that of y, where K and B are
        self's top degrees in q and q2; _horner packs them at w bits a slot,
        w = log2 of the largest coefficient + K*log2(|x|_1 + dx) +
        B*log2(|y|_1 + dy) and a little.  A sparse high-degree replacement is
        as dear as a dense one: x = q^200 + 1 into a degree-30 row packs rows
        6,001 slots wide.
        """
        terms = self._terms
        if not terms:
            return _ZERO
        nums, d = _numerators(terms)
        a_exps, b_exps = zip(*nums)
        if min(a_exps) < 0 or (q2 is not None and min(b_exps) < 0):
            raise ValueError("substitution into a negative exponent")
        xn, dx = _numerators(_as_poly(replacement)._terms)
        a_top = max(a_exps)
        # Without q2, y = q2 and the kept q2^b is y^(b-b_lo) * q2^b_lo.
        yn, dy = _numerators(_Q2._terms if q2 is None else _as_poly(q2)._terms)
        b_lo = min(b_exps) if q2 is None else 0
        x_lo, x_hi = _window(xn, a_top)
        y_lo, y_hi = _window(yn, max(b_exps) - b_lo)
        lo = x_lo + y_lo
        stride = x_hi + y_hi - lo + 1
        # One triple per q2-exponent b: the row 1, the power of y, and the
        # coefficients of x^0, x^1, ... that go with it.
        by_b: dict[int, list[int]] = {}
        for (a, b), c in nums.items():
            by_b.setdefault(b, [0] * (a_top + 1))[a] = c
        pairs = [([1], b - b_lo, coeffs) for b, coeffs in by_b.items()]
        x_row = _dense({a + b * stride: c for (a, b), c in xn.items()})
        y_row = _dense({a + b * stride: c for (a, b), c in yn.items()})
        (start, row), scale = _horner(pairs, x_row, dx, y_row, dy)
        # With the kept q2^b_lo, the row's first slot is q^(lo + pad) * q2^lo2.
        lo2, pad = divmod(start + b_lo * stride - lo, stride)
        return _decode([0] * pad + row, stride, stride, lo, lo2, d * scale)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        """Terms by descending (deg_q, deg_q2), as in "3*q^2*q2 - 1/2*q + 1".

        The text is built on the first call and kept in the value.
        """
        text = self._text
        if text is None:
            text = self._text = _render(self._terms)
        return text

    def __repr__(self) -> str:
        return f"PolyQQ({self})"


def _render(terms: dict[ExpPair, Coeff]) -> str:
    if not terms:
        return "0"
    pieces: list[str] = []
    append = pieces.append
    for exps in sorted(terms, reverse=True):
        c = terms[exps]
        name = _NAMES.get(exps)
        if name is None:
            name = _monomial_name(exps)
        sign = " + "
        if c < 0:
            sign, c = " - ", -c
        if not name:
            append(f"{sign}{c}")
        elif c == 1:
            append(sign + name)
        else:
            append(f"{sign}{c}*{name}")
    # The first term has no spaces around its sign, and no "+".
    text = "".join(pieces)
    return "-" + text[3:] if text[1] == "-" else text[3:]


# Rendered monomials by exponent pair, bounded: past the cap a name is built
# and not kept.
_NAMES_CAP = 4096
_NAMES: dict[ExpPair, str] = {}


def _monomial_name(exps: ExpPair) -> str:
    """The rendered name of q^a * q2^b, such as q^3*q2 or q, and "" at (0, 0)."""
    a, b = exps
    factors = []
    if a:
        factors.append("q" if a == 1 else f"q^{a}")
    if b:
        factors.append("q2" if b == 1 else f"q2^{b}")
    name = "*".join(factors)
    if len(_NAMES) < _NAMES_CAP:
        _NAMES[exps] = name
    return name


# A value of the Horner kernel: a Laurent polynomial in one variable t, as its
# lowest exponent and the dense int coefficients from there up.
_Row = tuple[int, Sequence[int]]


def _window(terms: dict[ExpPair, int], n: int) -> tuple[int, int]:
    """Bounds on the q-exponent over every product of at most n factors of terms."""
    exps = [a for a, _ in terms] or [0]
    return n * min(0, min(exps)), n * max(0, max(exps))


def _dense(terms: dict[int, int]) -> _Row:
    if not terms:
        return 0, []
    start = min(terms)
    row = [0] * (max(terms) - start + 1)
    for p, c in terms.items():
        row[p - start] = c
    return start, row


def _unpack(packed: int, w: int, n: int) -> list[int]:
    """The n balanced base-2^w digits of packed, each in [-2^(w-1), 2^(w-1)), lowest first.

    ArithmeticError if packed has a digit past the n-th: a short n never cuts a result off.
    """
    half = 1 << (w - 1)
    # Adding half to every slot makes each digit a plain w-bit field.
    biased = packed + half * (((1 << w * n) - 1) // ((1 << w) - 1))
    if biased >> w * n:
        raise ArithmeticError("packed value has a digit past its last slot")
    digits: list[int] = []
    _split(biased, w, n, half, digits)
    return digits


# Below this many slots _split cuts digit by digit: each cut copies the
# value, but a short value is cheaper to copy than to split again.
_SPLIT_BASE = 32


def _split(biased: int, w: int, n: int, half: int, out: list[int]) -> None:
    """Append the n w-bit fields of biased, less half, lowest first.

    Halving at a slot boundary keeps the cost near that of one product of
    the value's length; cutting one field at a time from the whole value
    is quadratic in it.
    """
    if n <= _SPLIT_BASE:
        mask = (1 << w) - 1
        out.extend(((biased >> i) & mask) - half for i in range(0, w * n, w))
        return
    k = n // 2
    _split(biased & ((1 << w * k) - 1), w, k, half, out)
    _split(biased >> w * k, w, n - k, half, out)


def _pack(digits: list[int], w: int) -> int:
    """sum digits[i] * 2^(w*i), the value that _unpack(value, w, len(digits)) splits.

    Joining halves at a slot boundary, as _split cuts them, keeps the cost
    near that of one product of the value's length; a running sum of
    shifted digits is quadratic in it.
    """
    n = len(digits)
    if n <= _SPLIT_BASE:
        return sum(map(lshift, digits, range(0, w * n, w)))
    k = n // 2
    return _pack(digits[:k], w) + (_pack(digits[k:], w) << w * k)


def _powers(row: _Row, d: int, n: int, w: int) -> tuple[list[int], int]:
    """t^(-n*s) * row^m * d^(n-m) for m = 0..n, packed at t = 2^w, and s = min(start, 0).

    A Laurent row t^start * R is shifted up: its m-th power is
    (t^(start-s) * R)^m * (d * t^(-s))^(n-m), and t^(n*s) is the caller's.
    """
    if not n:
        return [1], 0
    start, coeffs = row
    s = min(start, 0)
    x = sum(map(lshift, coeffs, range(0, w * len(coeffs), w))) << w * (start - s)
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * x)
    if d != 1 or s:
        step, scale = d << w * -s, 1
        for m in range(n - 1, -1, -1):
            scale *= step
            powers[m] *= scale
    return powers, s


def _horner(terms: list, x_row: _Row, dx: int, y_row: _Row = (0, [1]), dy: int = 1) -> tuple[_Row, int]:
    """sum over (row, b, c) of row * (y/dy)^b * sum_m c[m] * (x/dx)^m, times dx^K * dy^B.

    Each row is the ints at t^0, t^1, ...; K+1 is the longest c, B the
    largest b.  Returns the sum as a row, and dx^K * dy^B.  Every row is
    packed into one int at t = 2^w, the powers of x and y are built once,
    each pair's inner sum is one sum(map(mul, c, powers)), and the total's
    digits are read once.  w comes from a bound on every output coefficient:
    the sum over the pairs of |row|_1 * max|c|, times
    (|x|_1 + dx)^K * (|y|_1 + dy)^B, with |.|_1 the sum of absolute values.
    """
    (sx, rx), (sy, ry) = x_row, y_row
    x_top, y_top = max(sx + len(rx) - 1, 0), max(sy + len(ry) - 1, 0)
    top = big_b = bound = length = 0
    for row, b, coeffs in terms:
        bound += sum(map(abs, row)) * max(map(abs, coeffs))
        k = len(coeffs) - 1
        if k > top:
            top = k
        if b > big_b:
            big_b = b
        n = len(row) + k * x_top + b * y_top
        if n > length:
            length = n
    w = (bound * (sum(map(abs, rx)) + dx) ** top * (sum(map(abs, ry)) + dy) ** big_b).bit_length() + 1
    x_powers, s = _powers(x_row, dx, top, w)
    y_powers, u = _powers(y_row, dy, big_b, w)
    # Slot i of the total holds the coefficient of t^(lo + i).
    lo = top * s + big_b * u
    slots = range(0, w * (length - lo), w)
    total = 0
    for row, b, coeffs in terms:
        total += sum(map(lshift, row, slots)) * y_powers[b] * sum(map(mul, coeffs, x_powers))
    return (lo, _unpack(total, w, length - lo)), dx**top * dy**big_b


def _sum_powers(terms: list[tuple[tuple[int, ...], list[int]]], x: PolyQQ) -> PolyQQ:
    """sum_k row_k(q) * sum_m c_km * x^m over pairs (row_k, [c_k0, c_k1, ...]), for x free of q2.

    Each row_k is the int coefficients of q^0, q^1, ... ((c,) for a
    constant); the convolution identities pass their pairs as they build
    them.  x is scaled once to integer numerators, and _horner sums.
    """
    xn, dx = _numerators(x._terms)
    x_row = _dense({a: c for (a, _), c in xn.items()})
    (start, row), d = _horner([(row, 0, coeffs) for row, coeffs in terms], x_row, dx)
    return _decode(row, len(row) or 1, len(row), start, 0, d)


def _series_product(factors: Sequence[tuple[int, PolyQQ]], n: int, lo: int) -> list[PolyQQ]:
    """[u^lo], ..., [u^n] of prod (1 - x*u)^-w over the pairs (w, x), each x nonzero.

    _packed_row packs them at the stride S = n*A + 1, and each is decoded
    once by _unpack, divided by d^m and shifted back.
    """
    packed, k, stride, d, (s, s2), (top, top2) = _packed_row(factors, n, lo, n)
    out = []
    for m, value in enumerate(packed, lo):
        # [u^m] spans m*A + 1 slots in q and m*B + 1 rows of S in q2.
        width = m * top + 1
        digits = _unpack(value, k, stride * m * top2 + width)
        out.append(_decode(digits, stride, width, m * s, m * s2, d**m))
    return out


def _packed_row(
    factors: Sequence[tuple[int, PolyQQ]], n: int, lo: int, span: int
) -> tuple[list[int], int, int, int, ExpPair, ExpPair]:
    """[u^lo..u^n] of prod (1 - z*u)^-w packed into ints, with the scaling that gives z from x.

    The x of the pairs (w, x), each nonzero, are scaled to integer
    numerators z over one lcm d, and shifted by q^-s * q2^-s2 (s, s2 their
    lowest exponents) so that the lowest exponents are 0; then [u^m] of
    prod (1 - x*u)^-w is d^-m * q^(m*s) * q2^(m*s2) times [u^m] of
    prod (1 - z*u)^-w.  With A and B the largest q- and q2-exponents of the
    shifted z, a product of such [u^m] whose m sum to at most span has its
    q-exponents in [0, S), S = span*A + 1, and the ring map q -> t,
    q2 -> t^S, t -> 2^k packs each z into one int Z.  u stays the list
    index: factor (w, z) is the ints C(w+i-1, i) * Z^i, and _convolve
    multiplies them.  k is one bit more than the largest wanted [u^m] of
    the product of the majorants |C(w+i-1, i)| * |z|_1^i, with |.|_1 the sum
    of absolute values, taken exactly in ints; it bounds every coefficient
    of that [u^m], since (1 - z*u)^-w has |C(w+i-1, i)| * |z^i|_1 at u^i and
    |z^i|_1 <= |z|_1^i.  For w > 0 the majorant is the series of
    (1 - |z|_1*u)^-w, for w < 0 the polynomial (1 + |z|_1*u)^-w.

    Returns the packed [u^lo..u^n], k, S, d, (s, s2) and (A, B).
    """
    scaled = [(w, *_numerators(x._terms)) for w, x in factors]
    d = lcm(*[dz for _, _, dz in scaled])
    nums = [
        (w, z if dz == d else {e: c * (d // dz) for e, c in z.items()})
        for w, z, dz in scaled
    ]
    a_exps, b_exps = zip(*[e for _, z in nums for e in z])
    s, s2 = min(a_exps), min(b_exps)
    top, top2 = max(a_exps) - s, max(b_exps) - s2
    stride = span * top + 1
    bound = _convolve(
        [[abs(c) for c in _binomial_powers(w, sum(map(abs, z.values())), n)] for w, z in nums], n, lo
    )
    k = max(bound).bit_length() + 1
    packed = _convolve(
        [
            _binomial_powers(w, sum(c << k * (a - s + stride * (b - s2)) for (a, b), c in z.items()), n)
            for w, z in nums
        ],
        n,
        lo,
    )
    return packed, k, stride, d, (s, s2), (top, top2)


def _schur(factors: Sequence[tuple[int, PolyQQ]], parts: Sequence[int]) -> PolyQQ:
    """det[h_(mu_i-i+j)] for the partition mu = parts, h_m the [u^m] of prod (1 - x*u)^-w.

    The Jacobi-Trudi determinant off a constant, from the packed row to the
    decoded value with no PolyQQ in between.  The m of every Leibniz term's
    h_m sum to |mu|, so with the x scaled and shifted as in _packed_row each
    term is d^-|mu| * q^(|mu|*s) * q2^(|mu|*s2) times a product of integer
    polynomials with q-exponents in [0, S), S = |mu|*A + 1, and q2-exponents
    in [0, |mu|*B].  _packed_row builds h_0..h_N, N = mu_1 + l - 1 <= |mu|,
    at that stride and its own slot width k; each h_m of the matrix is read
    once by _unpack, _jacobi_trudi takes the determinant's digits, and the
    result is decoded once, divided by d^|mu| and shifted back.
    """
    size = sum(parts)
    packed, k, stride, d, (s, s2), (top, top2) = _packed_row(factors, parts[0] + len(parts) - 1, 0, size)
    digits = _jacobi_trudi(
        lambda m: _unpack(packed[m], k, stride * m * top2 + m * top + 1), parts, stride * (size * top2 + 1)
    )
    return _decode(digits, stride, stride, size * s, size * s2, d**size)


def _jacobi_trudi(h: Callable[[int], Sequence[int]], parts: Sequence[int], n: int) -> list[int]:
    """The n digits of det[h_(mu_i-i+j)] for the partition mu = parts, or [] when it is 0.

    h(m) is the ints of h_m at t^0, t^1, ..., read once for each distinct
    m >= 0 of the matrix; n must hold every t-exponent of the determinant.
    The slot width W is one bit more than the bit length of
    _permanent_bound over the exact |h_m|_1, which bounds every coefficient
    of the determinant: the norms of the values themselves, where a
    majorant would ignore cancellation inside each h_m.  Each h_m is packed
    at t = 2^W by _pack, _bareiss eliminates, and one _unpack reads the
    digits.  A zero row or column gives [].
    """
    index = [[p - i + j for j in range(len(parts))] for i, p in enumerate(parts)]
    entries = {m: h(m) for m in {m for row in index for m in row if m >= 0}}
    norm = {m: sum(map(abs, v)) for m, v in entries.items()}
    norms = [[norm[m] if m >= 0 else 0 for m in row] for row in index]
    if not all(map(any, norms)) or not all(map(any, zip(*norms))):
        return []
    w = _permanent_bound(norms).bit_length() + 1
    wide = {m: _pack(v, w) for m, v in entries.items()}
    return _unpack(_bareiss([[wide[m] if m >= 0 else 0 for m in row] for row in index]), w, n)


def _binomial_powers(w: int, x: int, n: int) -> list[int]:
    """C(w+i-1, i) * x^i for i = 0..n, the series of (1 - x*u)^-w; for w < 0 it ends at i = -w."""
    out, c, power = [1], 1, 1
    for i in range(1, n + 1 if w > 0 else min(n, -w) + 1):
        # C(w+i-1, i) = C(w+i-2, i-1) * (w+i-1) / i, exact for any integer w.
        c = c * (w + i - 1) // i
        power *= x
        out.append(c * power)
    return out


def _convolve(rows: list[list[int]], n: int, lo: int) -> list[int]:
    """[u^lo..u^n] of the product of the series rows (ints at u^0, u^1, ...).

    Each product is truncated at u^n, and the last one forms only the
    coefficients from u^lo on.
    """
    acc = rows[0] + [0] * (n + 1 - len(rows[0]))
    for j in range(1, len(rows)):
        first = lo if j == len(rows) - 1 else 0
        acc[first:] = [sum(map(mul, rows[j], acc[m::-1])) for m in range(first, n + 1)]
    return acc[lo:]


def _bareiss(m: list[list[int]]) -> int:
    """det of the n x n int matrix m, n >= 1, by Bareiss elimination in place.

    Each step swaps in the row whose entry in the pivot column is smallest
    in absolute value (flipping the sign), and divides exactly by the
    previous pivot, by a product with its 2-adic inverse (_divide_exactly).
    A column with no nonzero candidate gives 0.
    """
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        nonzero = [i for i in range(k, n) if m[i][k]]
        if not nonzero:
            return 0
        p = min(nonzero, key=lambda i: abs(m[i][k]))
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        rest = top[k + 1:]
        for row in m[k + 1:]:
            x = row[k]
            row[k + 1:] = [pivot * y - x * z for y, z in zip(row[k + 1:], rest)]
        if prev != 1:
            _divide_exactly(m[k + 1:], k + 1, prev)
        prev = pivot
    return sign * m[-1][-1]


def _decode(digits: list[int], stride: int, width: int, lo: int, lo2: int, d: int) -> PolyQQ:
    """The value with digits[b*stride + a] / d at q^(lo+a) * q2^(lo2+b), for a < width.

    The decoded side of the ring map q -> t, q2 -> t^stride of the packed kernels.
    """
    terms: dict[ExpPair, Coeff] = {}
    for b, start in enumerate(range(0, len(digits), stride), lo2):
        for a, v in enumerate(digits[start:start + width], lo):
            if v:
                terms[(a, b)] = v if d == 1 else _quotient(v, d)
    return _wrap(terms)


def _permanent_bound(a: list[list[int]]) -> int:
    """An int at least the permanent of the n x n matrix a >= 0, no row or column zero.

    For any column weights g_j > 0, per(a) = per(a * diag(g)) / prod g, and
    a permanent is at most the product of its row sums.  With g_j = 2^-e_j
    the bound is prod_i (sum_j a_ij * 2^(E - e_j)) / 2^(n*E - sum e), E = max e,
    taken exactly in ints, so any e gives a proven bound.  e = 0 is the
    plain product of row sums, which overshoots when entries grow along the
    rows, as a Jacobi-Trudi matrix's do: by 415 against 169 bits for the
    12 x 12 h-matrix of s{6,6,6,4,1^8}[30 - 30q + 30q2].  e comes from n - 2
    rounds of Sinkhorn balancing on bit lengths (185 bits there), each
    moving e_j by log2 of column j's share of the row sums.  A round takes
    n^2 float steps, where the elimination takes n^3 int products.
    """
    bits = [[x.bit_length() for x in row] for row in a]
    e = [0] * len(a)
    for _ in range(len(a) - 2):
        sums = [_log2_sum([b - y for b, y in zip(row, e) if b]) for row in bits]
        moves = [
            round(_log2_sum([b - y - s for b, s in zip(col, sums) if b]))
            for col, y in zip(zip(*bits), e)
        ]
        if not any(moves):
            break
        e = list(map(add, e, moves))
    big = max(e)
    total = 1
    for row in a:
        total *= sum(x << big - y for x, y in zip(row, e))
    # The permanent is an int, so it is at most the floor of the bound.
    return total >> len(a) * big - sum(e)


def _log2_sum(logs: list[float]) -> float:
    """log2 of sum 2^v over v in logs, which is not empty."""
    top = max(logs)
    return top + log2(sum(2.0 ** (v - top) for v in logs))


def _divide_exactly(rows: list[list[int]], start: int, divisor: int) -> None:
    """Divide every entry of rows from column start by divisor, which divides each exactly.

    divisor = 2^v * o with o odd, and a quotient q with |q| < 2^(k-1) is
    (a >> v) * o^-1 modulo 2^k, read as a signed k-bit number: one product,
    where CPython's long division is quadratic in the length.  o^-1 is taken
    once, modulo 2^k for the widest quotient.
    """
    v = (divisor & -divisor).bit_length() - 1
    odd = divisor >> v
    size = odd.bit_length()
    widest = max(x.bit_length() for row in rows for x in row[start:])
    inverse = _inverse_mod_2k(odd, widest - v - size + 2)
    for row in rows:
        for j in range(start, len(row)):
            a = row[j] >> v
            if a:
                # |a / o| < 2^(bits(a) - bits(o) + 1) = 2^(k-1).
                k = a.bit_length() - size + 2
                mask = (1 << k) - 1
                q = (a & mask) * (inverse & mask) & mask
                row[j] = q - (q >> k - 1 << k)


def _inverse_mod_2k(x: int, k: int) -> int:
    """An inverse of the odd x modulo 2^k, by Newton's step y <- y(2 - xy).

    x is its own inverse modulo 8, and each step doubles the bits that are right,
    up to k: the last step works modulo 2^k, and the factor 2 - xy is reduced
    before the product.
    """
    y, bits = x & 7, 3
    while bits < k:
        bits = min(2 * bits, k)
        mask = (1 << bits) - 1
        y = y * (2 - (x & mask) * y & mask) & mask
    return y


def _wrap(terms: dict[ExpPair, Coeff]) -> PolyQQ:
    p = PolyQQ.__new__(PolyQQ)
    p._terms = terms
    p._hash = None
    p._text = None
    return p


def _as_poly(x: PolyQQ | Coeff) -> PolyQQ:
    if isinstance(x, PolyQQ):
        return x
    p = _coerce(x)
    if p is NotImplemented:
        raise TypeError(f"cannot use {type(x).__name__!r} as a polynomial")
    return p


def _coerce(x: PolyQQ | Coeff) -> PolyQQ:
    if isinstance(x, PolyQQ):
        return x
    if isinstance(x, (int, Fraction)):
        return PolyQQ.const(x)
    return NotImplemented


_ZERO = PolyQQ()
_ONE = PolyQQ({(0, 0): 1})
_Q = PolyQQ({(1, 0): 1})
_Q2 = PolyQQ({(0, 1): 1})
