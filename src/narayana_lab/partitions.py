"""Integer partitions and the small enumerations used by the exhaustive checks."""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from .rationals import exact_div, factorial

SUBSET_CAP = 12  # 2^12 subsets; enumeration stays at desk scale


class Partition:
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int] = ()):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        self.parts = parts

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def conjugate(self) -> Partition:
        """The transposed diagram: part j is the number of parts larger than j."""
        parts = self.parts
        return Partition([sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)])

    def multiplicity(self, i: int) -> int:
        return self.parts.count(i)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n == 0:
        yield Partition()
        return
    parts = [n]
    while True:
        yield Partition(parts)
        # Decrement the rightmost part exceeding 1, then greedily refill.
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        rest = len(parts) - i - 1 + 1  # ones to the right plus the unit shaved off
        parts[i] -= 1
        del parts[i + 1:]
        while rest > 0:
            nxt = min(parts[-1], rest)
            parts.append(nxt)
            rest -= nxt


def z_of(mu: Partition) -> int:
    """Centralizer size: the product of i^m_i * m_i! over the multiplicities."""
    z = 1
    for i, m in mu.multiplicities().items():
        z *= i**m * factorial(m)
    return z


def composition_multiplicity(mu: Partition) -> int:
    """Number of distinct orderings of the parts: length! / prod(m_i!)."""
    denom = 1
    for m in mu.multiplicities().values():
        denom *= factorial(m)
    return exact_div(factorial(mu.length), denom)


def iter_subsets(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All subsets of a small sequence (capped at SUBSET_CAP elements)."""
    n = len(items)
    if n > SUBSET_CAP:
        raise ValueError(f"subset enumeration capped at {SUBSET_CAP} elements")
    for mask in range(1 << n):
        yield tuple(items[i] for i in range(n) if mask >> i & 1)


def decompositions(rho: Partition) -> Iterator[tuple[Partition, Partition]]:
    """All splittings of rho into an ordered pair of sub-partitions (mu, nu).

    Parts keep their identity: a part of multiplicity m contributes m+1 choices.
    """
    mults = sorted(rho.multiplicities().items(), reverse=True)
    choices = [range(m + 1) for _, m in mults]
    for pick in product(*choices):
        mu: list[int] = []
        nu: list[int] = []
        for (part, m), k in zip(mults, pick):
            mu.extend([part] * k)
            nu.extend([part] * (m - k))
        yield Partition(mu), Partition(nu)
