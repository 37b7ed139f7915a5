"""Two-outcome distributions and fair-coin sampling.

Every engine returns its distribution with exact p0 and p1, so sampling and
engine comparison never see a float probability.  Sampling an n-bit
probability x costs exactly n fair coin tosses: draw bits j_1..j_n and
report outcome 0 when the draw, read as a binary integer, is below 2^n * x.
Truncating an exact probability to n bits uses only exact
comparisons against dyadic rationals, so the sampling error bound is an
identity, not an estimate.
"""

from __future__ import annotations

from .exact import ExactScalar, ONE, TWO
from .prng import CounterRng


class OutcomeDistribution:
    """{p0, p1} as exact scalars.  Every engine produces them exactly; the
    approx engine reads them off its surrogate state's exact marginal.

    The range check is exact, with no tolerance: an input block is
    positive semidefinite by an exact check (DensityBlock.validate), so
    every engine's probabilities lie in [0, 1] exactly."""

    __slots__ = ("p0", "p1")

    def __init__(self, p0: ExactScalar, p1: ExactScalar):
        self.p0 = p0
        self.p1 = p1
        if p0.real_sign() < 0 or p1.real_sign() < 0:
            f0, f1 = self.floats()
            raise ValueError(f"probabilities out of range: {f0}, {f1}")
        if self.p0 + self.p1 != ONE:
            raise ValueError("exact probabilities do not sum to 1")

    def floats(self) -> tuple[float, float]:
        return self.p0.to_float(), self.p1.to_float()

    def exact_eq(self, other: "OutcomeDistribution") -> bool:
        return self.p0 == other.p0 and self.p1 == other.p1

    def __repr__(self):
        return f"OutcomeDistribution({self.p0.to_text()}, {self.p1.to_text()})"


def dist_distance(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """L1 distance |p0-q0| + |p1-q1| between two-outcome distributions."""
    pf, qf = p.floats(), q.floats()
    return abs(pf[0] - qf[0]) + abs(pf[1] - qf[1])


class CoinSource:
    """Stream of fair bits; every draw counts as one toss."""

    def __init__(self, seed: int):
        self._rng = CounterRng(seed, tag="coin")
        self.tosses = 0

    def toss(self) -> int:
        self.tosses += 1
        return self._rng.coin_bit()


def coin_sample(bits, coins: CoinSource) -> int:
    """Sample a bit that is 0 with probability x = 0.b1 b2 ... bn (binary).

    Consumes exactly len(bits) tosses: the draw j1..jn, read as an integer,
    is below the integer b1..bn with probability exactly x."""
    target = 0
    drawn = 0
    n = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("probability bits must be 0 or 1")
        target = (target << 1) | b
        drawn = (drawn << 1) | coins.toss()
        n += 1
    if n == 0:
        raise ValueError("need at least one probability bit")
    return 0 if drawn < target else 1


def sample_outcomes(dist: OutcomeDistribution, eta: float,
                    coins: CoinSource, count: int) -> list[int]:
    """`count` samples from a distribution within total-variation eta of
    `dist`.

    Truncates p0 to eta/2, once for all draws, so the sampled distribution
    P' satisfies ||P' - P|| = 2 * |trunc(p0) - p0| <= eta."""
    bits = truncate_prob(dist.p0, eta / 2)
    return [coin_sample(bits, coins) for _ in range(count)]


def truncate_prob(p: ExactScalar, eta: float) -> tuple[int, ...]:
    """First n binary digits of an exact probability, n = ceil(log2(1/eta)).

    Comparisons against dyadic thresholds are exact, so the truncation error
    is at most 2^-n <= eta by construction."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if not p.is_real():
        raise ValueError("probability must be a real scalar")
    if p.real_sign() < 0 or (p - ONE).real_sign() > 0:
        raise ValueError("probability must lie in [0, 1]")
    n = 1
    while 2.0 ** -n > eta:
        n += 1
    bits = []
    r = p
    for _ in range(n):
        r = r * TWO
        if (r - ONE).real_sign() >= 0:
            bits.append(1)
            r = r - ONE
        else:
            bits.append(0)
    return tuple(bits)
