"""Fair-coin sampling, binary truncation, distribution distance."""

import math
from fractions import Fraction

import pytest

from pblocksim.exact import ExactScalar, ONE, ZERO, HALF_SQRT2
from pblocksim.sampling import (OutcomeDistribution, CoinSource, coin_sample,
                                truncate_prob, dist_distance, sample_outcomes)
from pblocksim.prng import CounterRng

HALF = ExactScalar(Fraction(1, 2))


class TestCoinSample:
    def test_half_is_one_coin(self):
        coins = CoinSource(3)
        before = coins.tosses
        coin_sample((1,), coins)
        assert coins.tosses - before == 1

    def test_three_quarters_frequency(self):
        coins = CoinSource(11)
        n = 100_000
        zeros = sum(1 for _ in range(n) if coin_sample((1, 1), coins) == 0)
        sigma = math.sqrt(0.75 * 0.25 / n)
        assert abs(zeros / n - 0.75) <= 4 * sigma
        assert coins.tosses == 2 * n

    def test_zero_probability_always_one(self):
        coins = CoinSource(5)
        assert all(coin_sample((0, 0, 0), coins) == 1 for _ in range(200))

    def test_consumes_exactly_n(self):
        coins = CoinSource(7)
        for nbits in (1, 3, 8, 17):
            before = coins.tosses
            coin_sample((1,) * nbits, coins)
            assert coins.tosses - before == nbits


class TestTruncate:
    def test_third(self):
        bits = truncate_prob(ExactScalar(Fraction(1, 3)), 2 ** -10)
        assert bits == (0, 1, 0, 1, 0, 1, 0, 1, 0, 1)

    def test_half_any_eta(self):
        for eta in (0.4, 2 ** -3, 2 ** -20):
            bits = truncate_prob(HALF, eta)
            assert bits[0] == 1 and all(b == 0 for b in bits[1:])

    def test_sqrt2_over_2(self):
        bits = truncate_prob(HALF_SQRT2, 2 ** -8)
        # reference: floor(256 * sqrt2/2) = isqrt(2 * 128^2) = 181
        want = tuple(int(c) for c in format(math.isqrt(2 * 128 * 128), "08b"))
        assert bits == want

    def test_error_bound(self):
        rng = CounterRng(80, "trunc")
        for _ in range(30):
            num = rng.randrange(1000)
            p = ExactScalar(Fraction(num, 1000))
            eta = 2.0 ** -(1 + rng.randrange(20))
            bits = truncate_prob(p, eta)
            n = len(bits)
            assert 2.0 ** -n <= eta
            approx = Fraction(int("".join(map(str, bits)), 2), 1 << n)
            assert abs(approx - Fraction(num, 1000)) <= Fraction(1, 1 << n)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            truncate_prob(HALF, 0.0)
        with pytest.raises(ValueError):
            truncate_prob(ExactScalar(2), 0.5)
        with pytest.raises(ValueError):
            truncate_prob(ExactScalar(0, 1), 0.5)


class TestDistance:
    def test_identical(self):
        d = OutcomeDistribution(HALF, HALF)
        assert dist_distance(d, d) == 0.0

    def test_opposite_deterministic(self):
        a = OutcomeDistribution(ONE, ZERO)
        b = OutcomeDistribution(ZERO, ONE)
        assert dist_distance(a, b) == 2.0

    def test_quarter(self):
        a = OutcomeDistribution(HALF, HALF)
        b = OutcomeDistribution(ExactScalar(Fraction(3, 4)),
                                ExactScalar(Fraction(1, 4)))
        assert abs(dist_distance(a, b) - 0.5) <= 1e-12

    def test_metric_properties(self):
        rng = CounterRng(81, "metric")
        dists = []
        for _ in range(9):
            x = Fraction(rng.randrange(1001), 1000)
            dists.append(OutcomeDistribution(ExactScalar(x),
                                             ExactScalar(1 - x)))
        for a in dists:
            for b in dists:
                assert abs(dist_distance(a, b) - dist_distance(b, a)) < 1e-15
                for c in dists:
                    assert dist_distance(a, c) <= \
                        dist_distance(a, b) + dist_distance(b, c) + 1e-15


class TestEndToEnd:
    def test_sampled_distribution_within_eta(self):
        """Truncation bound + exact comparison sampling: the sampled
        distribution P' obeys ||P' - P|| <= eta by construction; check the
        identity and the empirical frequency."""
        p0 = ExactScalar(Fraction(2, 3))
        dist = OutcomeDistribution(p0, ExactScalar(Fraction(1, 3)))
        eta = 2 ** -7
        bits = truncate_prob(p0, eta / 2)
        n = len(bits)
        trunc = Fraction(int("".join(map(str, bits)), 2), 1 << n)
        tv = 2 * abs(trunc - Fraction(2, 3))
        assert tv <= eta
        coins = CoinSource(13)
        draws = 50_000
        zeros = sample_outcomes(dist, eta, coins, draws).count(0)
        sigma = math.sqrt(float(trunc) * (1 - float(trunc)) / draws)
        assert abs(zeros / draws - float(trunc)) <= 4 * sigma


def test_distribution_validation():
    with pytest.raises(ValueError):
        OutcomeDistribution(ExactScalar(Fraction(9, 10)),
                            ExactScalar(Fraction(3, 10)))
    with pytest.raises(ValueError):
        OutcomeDistribution(ExactScalar(Fraction(3, 4)),
                            ExactScalar(Fraction(3, 4)))
