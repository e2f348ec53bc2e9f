"""Truncated power series in an auxiliary variable u over PolyQQ coefficients.

A series carries a fixed truncation order N and exactly N+1 coefficients;
binary operations on mismatched orders truncate to the smaller one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .poly import Coeff, PolyQQ, _as_poly


class TruncSeries:
    """Power series 1*u^0 + ... truncated after the coefficient of u^order."""

    __slots__ = ("order", "_c")

    def __init__(self, coeffs: Iterable[PolyQQ | Coeff], order: int | None = None):
        c = [_as_poly(x) for x in coeffs]
        if order is None:
            if not c:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(c) - 1
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        zero = PolyQQ.zero()
        c = c[: order + 1]
        c.extend([zero] * (order + 1 - len(c)))
        self.order = order
        self._c = c

    @classmethod
    def one(cls, order: int) -> TruncSeries:
        return cls([PolyQQ.one()], order=order)

    def coefficient(self, k: int) -> PolyQQ:
        """Coefficient of u^k (never consults anything beyond the order)."""
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient u^{k} outside truncation order {self.order}")
        return self._c[k]

    def coefficients(self) -> Sequence[PolyQQ]:
        return tuple(self._c)

    def is_zero(self) -> bool:
        return all(c.is_zero for c in self._c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self._c == other._c

    def __hash__(self) -> int:
        return hash((self.order, tuple(self._c)))

    def __add__(self, other: TruncSeries) -> TruncSeries:
        n = min(self.order, other.order)
        return TruncSeries(
            [self._c[k] + other._c[k] for k in range(n + 1)], order=n
        )

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        n = min(self.order, other.order)
        return TruncSeries(
            [self._c[k] - other._c[k] for k in range(n + 1)], order=n
        )

    def __neg__(self) -> TruncSeries:
        return TruncSeries([-c for c in self._c], order=self.order)

    def __mul__(self, other: TruncSeries) -> TruncSeries:
        n = min(self.order, other.order)
        zero = PolyQQ.zero()
        out = [zero] * (n + 1)
        for i in range(n + 1):
            ci = self._c[i]
            if ci.is_zero:
                continue
            for j in range(n + 1 - i):
                cj = other._c[j]
                if not cj.is_zero:
                    out[i + j] = out[i + j] + ci * cj
        return TruncSeries(out, order=n)

    def reverse(self) -> TruncSeries:
        """Compositional inverse of a series with f(0)=0 and unit linear coefficient."""
        if not self._c[0].is_zero:
            raise ValueError("reversion needs a zero constant term")
        if self.order >= 1 and self._c[1] != PolyQQ.one():
            raise ValueError("reversion needs coefficient 1 at u^1")
        n = self.order
        zero = PolyQQ.zero()
        g = [zero] * (n + 1)
        if n >= 1:
            g[1] = PolyQQ.one()
        fpows = [None, self]  # fpows[k] = self**k
        for m in range(2, n + 1):
            fpows.append(fpows[-1] * self)
            acc = zero
            for k in range(1, m):
                gk = g[k]
                if not gk.is_zero:
                    acc = acc + gk * fpows[k].coefficient(m)
            g[m] = -acc
        return TruncSeries(g, order=n)

    def __str__(self) -> str:
        parts = [f"({c})*u^{k}" for k, c in enumerate(self._c) if not c.is_zero]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TruncSeries(order={self.order}, {self})"
