from fractions import Fraction

import pytest

from narayana_lab.partitions import (
    Partition,
    composition_multiplicity,
    decompositions,
    enumerate_partitions,
    iter_subsets,
    z_of,
)
from narayana_lab.rationals import factorial, gen_binomial


def partition_count_oracle(n: int) -> int:
    # coin-style dynamic program, independent of the enumerator
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def test_examples():
    assert len(list(enumerate_partitions(4))) == 5
    assert list(enumerate_partitions(0)) == [Partition()]
    odd = [p for p in enumerate_partitions(5) if all(x % 2 == 1 for x in p)]
    assert odd == [Partition((5,)), Partition((3, 1, 1)), Partition((1,) * 5)]


def test_reverse_lexicographic_order():
    got = [p.parts for p in enumerate_partitions(6)]
    assert got == sorted(got, reverse=True)
    assert got[0] == (6,)
    assert got[-1] == (1,) * 6


def test_counts_match_classical_sequence():
    for n in range(31):
        assert len(list(enumerate_partitions(n))) == partition_count_oracle(n)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    p = Partition((3, 1, 1))
    assert (p.weight, p.length) == (5, 3)
    assert p.multiplicity(1) == 2
    assert p.multiplicities() == {3: 1, 1: 2}


def test_conjugate():
    assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))
    assert Partition((1,) * 5).conjugate() == Partition((5,))
    assert Partition().conjugate() == Partition()
    for n in range(9):
        for mu in enumerate_partitions(n):
            nu = mu.conjugate()
            assert nu.weight == n and nu.length == (mu[0] if n else 0)
            assert nu.conjugate() == mu


def test_z_of():
    assert z_of(Partition((2, 1, 1))) == 4
    assert z_of(Partition((1,) * 6)) == factorial(6)
    assert z_of(Partition((7,))) == 7
    assert z_of(Partition()) == 1


def test_z_weights_sum_to_one():
    for k in range(16):
        total = sum(Fraction(1, z_of(mu)) for mu in enumerate_partitions(k))
        assert total == 1, k


def test_composition_multiplicity_examples():
    assert composition_multiplicity(Partition((2, 1))) == 2
    assert composition_multiplicity(Partition((1, 1, 1))) == 1
    assert composition_multiplicity(Partition()) == 1
    two_parts_of_5 = [
        composition_multiplicity(mu)
        for mu in enumerate_partitions(5)
        if mu.length == 2
    ]
    assert sum(two_parts_of_5) == 4


def test_composition_multiplicity_sums():
    for r in range(1, 21):
        for k in range(1, r + 1):
            total = sum(
                composition_multiplicity(mu)
                for mu in enumerate_partitions(r)
                if mu.length == k
            )
            assert total == gen_binomial(r - 1, k - 1), (r, k)


def test_iter_subsets():
    assert len(list(iter_subsets([1, 2, 3]))) == 8
    assert () in list(iter_subsets([1, 2]))
    with pytest.raises(ValueError):
        list(iter_subsets(list(range(13))))


def test_decompositions():
    rho = Partition((2, 1, 1))
    splits = list(decompositions(rho))
    # (m_2+1)*(m_1+1) = 2*3 ordered splittings
    assert len(splits) == 6
    for mu, nu in splits:
        assert sorted(mu.parts + nu.parts, reverse=True) == list(rho.parts)
    assert (Partition(), rho) in splits
    assert (rho, Partition()) in splits
