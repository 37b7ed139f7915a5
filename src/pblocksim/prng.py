"""Deterministic counter-based pseudo-random generator.

The stream is a pure function of (seed, tag, counter) so any draw can be
reproduced in another implementation from this description alone:

    key     = mix64(seed * 0x9E3779B97F4A7C15 xor fnv1a64(tag))
    draw(i) = mix64(key + (i + 1) * 0x9E3779B97F4A7C15)    (i = 0, 1, 2, ...)

where mix64 is the splitmix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic modulo 2^64.  Tags split one seed into independent
streams (circuit generation, coin tosses, ...).
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class CounterRng:
    """Counter-based generator; splittable by tag, reproducible by seed."""

    def __init__(self, seed: int, tag: str = ""):
        self.key = _mix64((seed * _GOLDEN) ^ _fnv1a64(tag))
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return _mix64(self.key + self.counter * _GOLDEN)

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound

    def coin_bit(self) -> int:
        """One fair bit."""
        return self.next_u64() & 1
