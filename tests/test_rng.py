"""The random stream must match its documented bit-exact definition."""

from __future__ import annotations

import pytest

from newsbias.rng import Rng, SplitMix64

# first outputs of the reference SplitMix64 stream for seed 0
SPLITMIX_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_reference_stream():
    sm = SplitMix64(0)
    assert [sm.next_u64() for _ in range(3)] == SPLITMIX_SEED0


def test_same_seed_same_stream():
    a = [Rng(123).next_u64() for _ in range(32)]
    b = [Rng(123).next_u64() for _ in range(32)]
    assert a == b


def test_different_seeds_differ():
    assert [Rng(1).next_u64() for _ in range(4)] != [Rng(2).next_u64() for _ in range(4)]


def test_outputs_are_64_bit():
    rng = Rng(9)
    for _ in range(1000):
        assert 0 <= rng.next_u64() < 2**64


def test_random_unit_interval():
    rng = Rng(4)
    xs = [rng.random() for _ in range(2000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < sum(xs) / len(xs) < 0.6


def test_randbelow_range_and_coverage():
    rng = Rng(17)
    seen = set()
    for _ in range(500):
        v = rng.randbelow(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).randbelow(0)


def test_shuffle_is_permutation():
    rng = Rng(5)
    xs = list(range(40))
    rng.shuffle(xs)
    assert sorted(xs) == list(range(40))
    assert xs != list(range(40))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
def test_shuffle_is_the_documented_fisher_yates_over_randbelow(n):
    rng, twin = Rng(31), Rng(31)
    xs, ys = list(range(n)), list(range(n))
    rng.shuffle(xs)
    for i in range(n - 1, 0, -1):
        j = twin.randbelow(i + 1)
        ys[i], ys[j] = ys[j], ys[i]
    assert xs == ys
    # the generators stand at the same state: their next draws agree
    assert [rng.next_u64() for _ in range(4)] == [twin.next_u64() for _ in range(4)]


def test_seed_validation():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2**64)
    Rng(2**64 - 1)  # max value accepted

