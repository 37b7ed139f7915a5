"""Blockedness analysis of equal-amplitude basis superpositions.

States here are supports: a set of basis integers, all with amplitude
1/sqrt(|support|).  Such a state is the nonzero map with every value 1,
and it factors over a partition of bit positions exactly when the support
is the Cartesian product of its projections; `finest_factorization` decides
it with the same factor test the other engines use, and no amplitude is
ever built.  Qubits are labelled by the power of two they carry (bit 0 is
the 1s place).

Arithmetic-progression supports {x0 + k*r} are the intermediate states of
period finding; the census measures how rarely they stay p-blocked as the
period grows, which is the analyzer's whole point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import finest_factorization
from .prng import CounterRng


class RangeOverflow(ValueError):
    pass


class BadArgs(ValueError):
    pass


@dataclass(frozen=True)
class BasisSuperposition:
    width: int
    support: tuple[int, ...]

    def __post_init__(self):
        if not self.support:
            raise BadArgs("support must be nonempty")
        if list(self.support) != sorted(set(self.support)):
            raise BadArgs("support must be strictly increasing")
        if self.support[0] < 0 or self.support[-1] >= (1 << self.width):
            raise RangeOverflow(
                f"support exceeds {self.width}-bit range")


def build_ap(x0: int, r: int, count: int, n: int) -> BasisSuperposition:
    """Equal superposition over the progression x0, x0+r, ..., count terms."""
    if n < 1 or r < 1 or count < 1 or x0 < 0:
        raise BadArgs("need n >= 1, r >= 1, count >= 1, x0 >= 0")
    top = x0 + (count - 1) * r
    if top >= (1 << n):
        raise RangeOverflow(
            f"progression reaches {top}, beyond {n}-bit range")
    return BasisSuperposition(n, tuple(x0 + k * r for k in range(count)))


def build_pair(x0: int, x1: int, n: int) -> BasisSuperposition:
    """The two-string superposition (|x0> + |x1>)/sqrt(2)."""
    if n < 1:
        raise BadArgs(f"register width n must be >= 1, got {n}")
    if x0 == x1:
        raise BadArgs("pair values must differ")
    if not (0 <= x0 < (1 << n) and 0 <= x1 < (1 << n)):
        raise BadArgs(f"pair values must fit in {n} bits")
    return BasisSuperposition(n, tuple(sorted((x0, x1))))


def analyze_blockedness(s: BasisSuperposition, p: int):
    """Finest partition of bit positions (parts <= p) over which the state
    factors, or None when no such partition exists.

    The state is its support with every amplitude equal, so it is the
    nonzero map with every value 1, bit position q owning the index bit
    1 << q; `finest_factorization` decides it like any other state."""
    if p < 1:
        raise BadArgs("p must be >= 1")
    return finest_factorization(dict.fromkeys(s.support, 1),
                                [1 << q for q in range(s.width)], p)


def format_partition(parts) -> str:
    """Brace groups, positions descending, highest group first: {3,1}{2,0}."""
    ordered = sorted((tuple(sorted(part, reverse=True)) for part in parts),
                     key=lambda part: -part[0])
    return "".join("{" + ",".join(str(q) for q in part) + "}"
                   for part in ordered)


@dataclass(frozen=True)
class CensusResult:
    fraction: float
    trials: int
    seed: int

    def line(self) -> str:
        return f"fraction={self.fraction:.6f} trials={self.trials} " \
               f"seed={self.seed}"


def census(r_bits: int, trials: int, p: int, n: int, seed: int
           ) -> CensusResult:
    """Fraction of random maximal progressions (period of exactly r_bits
    bits, random phase) that are p-blocked on n qubits."""
    if n < r_bits + 3:
        raise BadArgs("need n >= r_bits + 3 to hold several periods")
    if r_bits < 1:
        raise BadArgs("r_bits must be >= 1")
    if trials < 1:
        raise BadArgs("trials must be >= 1")
    rng = CounterRng(seed, tag="ap_census")
    blocked = 0
    for _ in range(trials):
        if r_bits == 1:
            r = 1
        elif r_bits == 2:
            r = 3
        else:
            # odd, top bit set: exactly r_bits bits
            middle = rng.randrange(1 << (r_bits - 2))
            r = (1 << (r_bits - 1)) | (middle << 1) | 1
        x0 = 1 + rng.randrange(r - 1) if r > 1 else 0
        count = ((1 << n) - 1 - x0) // r + 1
        state = build_ap(x0, r, count, n)
        if analyze_blockedness(state, p) is not None:
            blocked += 1
    return CensusResult(blocked / trials, trials, seed)
