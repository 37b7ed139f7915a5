"""Progression-state analyzer: worked example, pair states, census."""

from fractions import Fraction

import pytest

from pblocksim.exact import ExactScalar
from pblocksim.ap import (BasisSuperposition, RangeOverflow, BadArgs,
                          build_ap, build_pair, analyze_blockedness,
                          format_partition, census)
from pblocksim.dense import StateVector, dense_blockedness
from pblocksim.prng import CounterRng

from helpers import brute_support_blockedness


def to_dense_parts(parts, n):
    """Convert bit-position parts to circuit-qubit labels (q = n-1-pos)."""
    return sorted(tuple(sorted(n - 1 - pos for pos in part))
                  for part in parts)


class TestBuild:
    def test_ap1(self):
        s = build_ap(3, 3, 4, 4)
        assert s.support == (3, 6, 9, 12)

    def test_uniform(self):
        s = build_ap(0, 1, 16, 4)
        assert s.support == tuple(range(16))

    def test_single_term(self):
        assert build_ap(5, 7, 1, 4).support == (5,)

    def test_overflow(self):
        with pytest.raises(RangeOverflow):
            build_ap(3, 3, 6, 4)  # reaches 18, past the 4-bit range

    def test_pair(self):
        assert build_pair(0, 3, 2).support == (0, 3)
        assert build_pair(3, 0, 2).support == (0, 3)

    def test_pair_rejects(self):
        with pytest.raises(BadArgs):
            build_pair(1, 1, 3)
        with pytest.raises(BadArgs):
            build_pair(0, 9, 3)


class TestAnalyze:
    def test_ap1_partition(self):
        s = build_ap(3, 3, 4, 4)
        parts = analyze_blockedness(s, 2)
        assert parts == [(0, 2), (1, 3)]
        assert format_partition(parts) == "{3,1}{2,0}"
        assert analyze_blockedness(s, 1) is None

    def test_uniform_fully_splits(self):
        s = build_ap(0, 1, 32, 5)
        assert analyze_blockedness(s, 1) == [(q,) for q in range(5)]

    def test_pair_states(self):
        # single differing bit: still 1-blocked
        s = build_pair(0b1010, 0b1011, 4)
        assert analyze_blockedness(s, 1) is not None
        # Bell-like pair: nothing below a 2-block works
        s = build_pair(0, 3, 2)
        assert analyze_blockedness(s, 1) is None
        assert analyze_blockedness(s, 2) == [(0, 1)]

    def test_pair_differing_bits_share_one_block(self):
        """Brute force over partitions: the k differing bit positions must
        land in a single part, so k > p means not p-blocked."""
        for x0, x1, n in ((0b0000, 0b0111, 4), (0b1000, 0b0011, 4)):
            s = build_pair(x0, x1, n)
            diff_bits = [q for q in range(n) if (x0 ^ x1) >> q & 1]
            k = len(diff_bits)
            assert analyze_blockedness(s, k - 1) is None
            parts = analyze_blockedness(s, k)
            assert parts is not None
            assert tuple(sorted(diff_bits)) in parts
            # independent check at p = k-1: no partition factors the support
            assert brute_support_blockedness(s.support, n, k - 1) is None

    def test_parity_state_is_irreducible(self):
        """Even-parity support {000,011,101,110}: every pair of bit
        projections looks like a full product, but the triple is not one;
        the analyzer must not fall for pairwise independence."""
        s = BasisSuperposition(3, (0, 3, 5, 6))
        assert analyze_blockedness(s, 2) is None
        assert analyze_blockedness(s, 3) == [(0, 1, 2)]
        # and the quantum state behind it agrees
        sv = StateVector(3, dict.fromkeys((0, 3, 5, 6),
                                          ExactScalar(Fraction(1, 2))))
        assert dense_blockedness(sv, 2) is None

    def test_agrees_with_set_reference_up_to_width_7(self):
        """The analyzer against an independent set count over every
        partition, on random progressions and pairs at every p."""
        rng = CounterRng(70, "ap_sets")
        for i in range(40):
            n = 2 + rng.randrange(6)  # up to 7 qubits
            if i % 4 == 0:
                x0 = rng.randrange(1 << n)
                x1 = (x0 + 1 + rng.randrange((1 << n) - 1)) % (1 << n)
                state = build_pair(x0, x1, n)
            else:
                r = 1 + rng.randrange(10)
                x0 = rng.randrange(max(1, min(r, (1 << n) - 1)))
                max_count = ((1 << n) - 1 - x0) // r + 1
                state = build_ap(x0, r, 1 + rng.randrange(max_count), n)
            for p in range(1, n + 1):
                assert analyze_blockedness(state, p) == \
                    brute_support_blockedness(state.support, n, p), (state, p)

    def test_agrees_with_dense_up_to_width_12(self):
        """The same decider as the dense engine's, reached through another
        value type and bit order."""
        cases = [build_ap(5, 9, 50, 10), build_ap(1, 641, 6, 12),
                 build_ap(7, 340, 12, 12), build_pair(0b101000111000, 1, 12)]
        for state in cases:
            self._check_against_dense(state)

    @staticmethod
    def _check_against_dense(s):
        one = ExactScalar(1)
        n = s.width
        sv = StateVector(n, dict.fromkeys(s.support, one))
        for p in (1, 2, 3):
            got = analyze_blockedness(s, p)
            want = dense_blockedness(sv, p)
            assert got == (want and to_dense_parts(want, n)), (s, p)


class TestCensus:
    def test_deterministic(self):
        a = census(6, 50, 2, 10, 3)
        b = census(6, 50, 2, 10, 3)
        assert a == b

    def test_r1_includes_uniform_blocked_cases(self):
        res = census(1, 30, 1, 6, 5)
        assert res.fraction > 0.9  # r=1 full-range progressions are uniform

    def test_monotone_in_p(self):
        fr = [census(5, 60, p, 9, 11).fraction for p in (1, 2, 3)]
        assert fr[0] <= fr[1] <= fr[2]

    def test_large_r_rarely_blocked(self):
        res = census(12, 200, 3, 15, 7)
        assert res.fraction < 0.05
        assert res.trials == 200
        assert res.line() == "fraction=0.000000 trials=200 seed=7"


def test_format_partition_order():
    assert format_partition([(0, 2), (1, 3)]) == "{3,1}{2,0}"
    assert format_partition([(4,), (0, 1)]) == "{4}{1,0}"
