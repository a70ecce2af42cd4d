"""Deterministic random streams for reproducible experiments.

Every randomized step in this package (fold shuffles, under-sampling,
synthetic corpora) draws from the generator defined here, so a run is
fully determined by its 64-bit seed. The algorithms
are specified bit-exactly so that results can be reproduced outside
this package:

SplitMix64 (used to expand seeds and to derive sub-stream seeds)
    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output z XOR (z >> 31)

xoshiro256** (the main bit generator)
    state s[0..3] = first four SplitMix64 outputs for the seed
    next():
        out <- rotl64(s[1] * 5, 7) * 9
        t <- (s[1] << 17) mod 2^64
        s[2] ^= s[0]; s[3] ^= s[1]; s[1] ^= s[2]; s[0] ^= s[3]
        s[2] ^= t; s[3] <- rotl64(s[3], 45)
        return out

Derived operations (all consuming one 64-bit draw per call):
    random():      (next() >> 11) * 2^-53, a double in [0, 1)
    randbelow(n):  (n * next()) >> 64   (multiply-shift reduction)
    shuffle(xs):   Fisher-Yates from the top: for i = len-1 .. 1,
                   j = randbelow(i + 1), swap xs[i], xs[j]
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def _rotl64(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class SplitMix64:
    """Seed expander / sub-seed derivation stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


class Rng:
    """xoshiro256** generator with the derived operations used package-wide."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        sm = SplitMix64(seed)
        self._s = [sm.next_u64() for _ in range(4)]

    def next_u64(self) -> int:
        s = self._s
        out = (_rotl64((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl64(s[3], 45)
        return out

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        return (n * self.next_u64()) >> 64

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randbelow(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def choice(self, xs: list):
        return xs[self.randbelow(len(xs))]
