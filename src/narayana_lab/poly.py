"""Sparse exact Laurent polynomials in the two variables q and q2.

Coefficients are arbitrary-precision rationals (stored as int whenever the
denominator is 1).  Exponents may be negative; ``is_integral`` decides whether
a value is an honest polynomial with integer coefficients.

Products, evaluation and substitution run on Python ints alone: each operand
is scaled to integer numerators over the lcm of its denominators (1, with
nothing copied, for an integer polynomial), the kernel accumulates ints, and a
Fraction is built once per output value, at the boundary.  Every power sum,
from subst_q or from _sum_powers, is summed by one Horner loop, _horner, on
dense int rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, sub
from typing import Iterator, Mapping, Sequence

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

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[ExpPair, Coeff] | None = None):
        clean: dict[ExpPair, Coeff] = {}
        if terms:
            for exps, c in terms.items():
                c = _norm(c)
                if c:
                    clean[exps] = c
        self._terms = clean
        self._hash: int | None = None

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
        if e == 0:
            return _ONE
        if e < 0:
            if not self.is_monomial():
                raise ExactDivisionError(
                    "negative power of a non-monomial Laurent polynomial"
                )
            ((a, b), c), = self._terms.items()
            return PolyQQ.monomial(_quotient(1, c), -a, -b) ** (-e)
        base, acc = self, None
        while True:
            if e & 1:
                acc = base if acc is None else acc * base
            e >>= 1
            if not e:
                return acc
            base = base * base

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
        Every value is packed into one Laurent row in t by the ring map
        q -> t, q2 -> t^S, or q -> t^S, q2 -> t (Kronecker substitution), with
        S wider than the window that the result's exponents of the t-variable
        lie in, so that the result unpacks exactly.  _horner then sums, for
        each q2-exponent b, yn^b (or the kept q2^b) times
        sum_a c_ab*dy^(B-b)*(xn/dx)^a, with the yn^b built one product at a
        time; one PolyQQ is built at the end, over d*dy^B*dx^K.

        Time and memory grow with the exponent window, not with the number of
        terms: the rows span K times the spread of x's exponents (0 included),
        plus B times that of y, in each of q and q2, where K and B are self's
        top degrees in q and q2.  A sparse high-degree replacement is as dear
        as a dense one of its degree: x = q^200 + 1 into a degree-30 row packs
        rows 6,001 wide.
        """
        terms = self._terms
        if not terms:
            return _ZERO
        nums, d = _numerators(terms)
        a_exps = [a for a, _ in nums]
        b_exps = [b for _, b in nums]
        if min(a_exps) < 0 or (q2 is not None and min(b_exps) < 0):
            raise ValueError("substitution into a negative exponent")
        xn, dx = _numerators(_as_poly(replacement)._terms)
        a_top = max(a_exps)
        if q2 is None:
            windows = ((0, 0), (min(b_exps), max(b_exps)))
        else:
            yn, dy = _numerators(_as_poly(q2)._terms)
            b_top = max(b_exps)
            windows = (_window(yn, 0, b_top), _window(yn, 1, b_top))
        # t runs along the variable that the sums over b spread in (q on a
        # tie), so that the powers of y and the groups are dense rows.
        fast = int(windows[1][1] - windows[1][0] > windows[0][1] - windows[0][0])
        x_lo, x_hi = _window(xn, fast, a_top)
        lo = x_lo + windows[fast][0]
        stride = x_hi + windows[fast][1] - lo + 1
        w_q, w_q2 = (1, stride) if fast == 0 else (stride, 1)
        # One pair per q2-exponent b: the kept q2^b or y^b, and the
        # coefficients of x^0, x^1, ... that go with it.
        by_b: dict[int, list[int]] = {}
        for (a, b), c in nums.items():
            by_b.setdefault(b, [0] * (a_top + 1))[a] = c
        if q2 is None:
            pairs = [((b * w_q2, [1]), coeffs) for b, coeffs in by_b.items()]
        else:
            y_row = _dense({a * w_q + b * w_q2: c for (a, b), c in yn.items()})
            powers = [(0, [1])]
            for _ in range(b_top):
                powers.append(_mul(powers[-1], y_row))
            pairs = [(powers[b], [c * dy ** (b_top - b) for c in coeffs]) for b, coeffs in by_b.items()]
            d *= dy**b_top
        x_row = _dense({a * w_q + b * w_q2: c for (a, b), c in xn.items()})
        out, scale = _horner(pairs, x_row, dx)
        d *= scale
        start, row = out
        unpacked: dict[ExpPair, Coeff] = {}
        # One slice of the row per exponent of the other variable.
        first = (start - lo) // stride
        last = (start + len(row) - 1 - lo) // stride
        for slow in range(first, last + 1):
            i0 = max(lo + slow * stride - start, 0)
            i1 = min(lo + (slow + 1) * stride - start, len(row))
            for f, c in enumerate(row[i0:i1], start + i0 - slow * stride):
                if c:
                    if d != 1:
                        whole, r = divmod(c, d)
                        c = Fraction(c, d) if r else whole
                    unpacked[(f, slow) if fast == 0 else (slow, f)] = c
        return _wrap(unpacked)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for (a, b), c in sorted(self._terms.items(), reverse=True):
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

    def __repr__(self) -> str:
        return f"PolyQQ({self})"


# A value of the Horner kernel: a Laurent polynomial in one variable t, as its
# lowest exponent and the dense int coefficients from there up.
_Row = tuple[int, Sequence[int]]


def _window(terms: dict[ExpPair, int], i: int, n: int) -> tuple[int, int]:
    """Bounds on exponent i over every product of at most n factors of terms."""
    exps = [e[i] for e in terms] or [0]
    return n * min(0, min(exps)), n * max(0, max(exps))


def _dense(terms: dict[int, int]) -> _Row:
    if not terms:
        return 0, []
    start = min(terms)
    row = [0] * (max(terms) - start + 1)
    for p, c in terms.items():
        row[p - start] = c
    return start, row


def _mul(u: _Row, v: _Row) -> _Row:
    """The product of two rows: a convolution, looping over the shorter one."""
    (su, ru), (sv, rv) = u, v
    if len(ru) < len(rv):
        ru, rv = rv, ru
    if not rv:
        return 0, []
    n = len(ru)
    out = [rv[0] * t for t in ru] + [0] * (len(rv) - 1)
    for j in range(1, len(rv)):
        c = rv[j]
        if c == 1:
            out[j:j + n] = map(add, out[j:j + n], ru)
        elif c == -1:
            out[j:j + n] = map(sub, out[j:j + n], ru)
        elif c:
            out[j:j + n] = [s + c * t for s, t in zip(out[j:j + n], ru)]
    return su + sv, out


def _add(u: _Row | None, v: _Row, c: int) -> _Row:
    """u + c*v, with None for a zero u.

    u's list is updated in place when v fits inside it: every u that _horner
    passes is a list it built itself.  v is only read, so it may be a
    caller's tuple (a narayana_row) or a power of y.
    """
    sv, rv = v
    if u is None:
        return sv, [c * t for t in rv]
    su, ru = u
    i = sv - su
    if i < 0 or i + len(rv) > len(ru):
        start = min(su, sv)
        ru = [0] * (su - start) + ru + [0] * (sv + len(rv) - su - len(ru))
        su, i = start, sv - start
    if len(rv) == 1:
        ru[i] += c * rv[0]
    else:
        ru[i:i + len(rv)] = [s + c * t for s, t in zip(ru[i:i + len(rv)], rv)]
    return su, ru


def _horner(terms: list[tuple[_Row, list[int]]], x_row: _Row, dx: int) -> tuple[_Row | None, int]:
    """sum over the pairs (row, c) of row * sum_m c[m] * (x_row/dx)^m, by Horner's rule.

    From the top m = K down, out = out*x_row + sum of c[m]*dx^(K-m)*row: one
    _mul per step and one _add per nonzero coefficient.  Returns out (None
    for zero) and the power of dx it is scaled by (below dx^K when the top
    coefficients are zero).  The package's one Horner loop.
    """
    out: _Row | None = None
    scale = 1
    for m in range(max((len(c) for _, c in terms), default=0) - 1, -1, -1):
        if out is not None:
            out = _mul(out, x_row)
            scale *= dx
        for row, coeffs in terms:
            if m < len(coeffs) and coeffs[m]:
                out = _add(out, row, coeffs[m] * scale)
    return out, scale


def _sum_powers(terms: list[tuple[tuple[int, ...], list[int]]], x: PolyQQ) -> PolyQQ:
    """sum_k row_k(q) * sum_m c_km * x^m over pairs (row_k, [c_k0, c_k1, ...]), for x free of q2.

    Each row_k is the int coefficients of q^0, q^1, ... ((c,) for a
    constant); the convolution identities pass their pairs as they build
    them.  x is scaled once to integer numerators, _horner sums, and one
    PolyQQ is built at the end.
    """
    xn, dx = _numerators(x._terms)
    x_row = _dense({a: c for (a, _), c in xn.items()})
    out, d = _horner([((0, row), coeffs) for row, coeffs in terms], x_row, dx)
    if out is None:
        return _ZERO
    start, row = out
    if d == 1:
        return _wrap({(a, 0): c for a, c in enumerate(row, start) if c})
    return _wrap({(a, 0): _quotient(c, d) for a, c in enumerate(row, start) if c})


def _wrap(terms: dict[ExpPair, Coeff]) -> PolyQQ:
    p = PolyQQ.__new__(PolyQQ)
    p._terms = terms
    p._hash = None
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
