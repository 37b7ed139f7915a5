"""Field arithmetic over Q(i, sqrt2): identities, canonical form, parsing."""

import math
import sys
from fractions import Fraction

import pytest

from pblocksim.exact import (BigRational, ExactScalar, ZERO, ONE, MINUS_ONE,
                             I_UNIT, SQRT2, HALF_SQRT2, parse_scalar)
from pblocksim.matrices import ExactMatrix
from pblocksim.circuits import LIBRARY
from pblocksim.prng import CounterRng

from helpers import random_exact_scalar


def test_half_plus_half():
    assert ExactScalar(Fraction(1, 2)) + ExactScalar(Fraction(1, 2)) == ONE


def test_add_zero_identity():
    rng = CounterRng(1, "add_zero")
    for _ in range(50):
        x = random_exact_scalar(rng)
        assert x + ZERO == x


def test_sqrt2_halves_sum_to_sqrt2():
    s = HALF_SQRT2 + HALF_SQRT2
    assert s == SQRT2
    assert (s.a, s.b, s.c, s.d) == (0, 0, 1, 0)


def test_t_phase_modulus():
    phase = ExactScalar(0, 0, Fraction(1, 2), Fraction(1, 2))
    assert phase * phase.conjugate() == ONE


def test_sqrt2_squared():
    assert SQRT2 * SQRT2 == ExactScalar(2)


def test_i_squared():
    assert I_UNIT * I_UNIT == MINUS_ONE


def test_conjugation():
    assert I_UNIT.conjugate() == -I_UNIT
    assert SQRT2.conjugate() == SQRT2
    rng = CounterRng(2, "conj")
    for _ in range(50):
        x = random_exact_scalar(rng)
        assert x.conjugate().conjugate() == x


def test_gate_daggers_keep_the_shared_zero():
    """A real scalar is its own conjugate, so every zero entry of a gate's
    dagger is the shared ZERO, which `mat_mul` skips by identity."""
    assert ZERO.conjugate() is ZERO and SQRT2.conjugate() is SQRT2
    for gate in LIBRARY.values():
        assert all(x is ZERO for x in gate.dagger.entries if x.is_zero())


def test_inverse_values():
    assert SQRT2.inverse() == HALF_SQRT2
    assert ExactScalar(2).inverse() == ExactScalar(Fraction(1, 2))


def test_inverse_field_axiom():
    rng = CounterRng(3, "inverse")
    for _ in range(50):
        x = random_exact_scalar(rng)
        if x.is_zero():
            continue
        assert x * x.inverse() == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_to_float_sqrt2_half():
    # reference: sqrt(2)/2 from a 50-digit integer square root
    ref = Fraction(math.isqrt(2 * 10 ** 100), 2 * 10 ** 50)
    assert abs(HALF_SQRT2.to_complex().real - float(ref)) <= 1e-15
    assert HALF_SQRT2.to_complex().imag == 0.0


def test_to_float_third():
    ref = float(Fraction(1, 3))
    got = ExactScalar(Fraction(1, 3)).to_complex()
    assert abs(got.real - ref) <= 1e-15


def test_to_float_zero():
    assert ZERO.to_complex() == 0j


def test_to_float_add_consistency():
    rng = CounterRng(4, "float_add")
    for _ in range(50):
        x, y = random_exact_scalar(rng), random_exact_scalar(rng)
        lhs = (x + y).to_complex()
        rhs = x.to_complex() + y.to_complex()
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestFieldAxioms:
    """Exact equalities on canonical forms, random 32-bit-range components."""

    def _samples(self, seed, count=40):
        rng = CounterRng(seed, "axioms")
        return [random_exact_scalar(rng, 32) for _ in range(count)]

    def test_commutativity(self):
        xs = self._samples(10)
        for x, y in zip(xs, reversed(xs)):
            assert x + y == y + x
            assert x * y == y * x

    def test_associativity(self):
        xs = self._samples(11, 30)
        for x, y, z in zip(xs, xs[1:], xs[2:]):
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)

    def test_distributivity(self):
        xs = self._samples(12, 30)
        for x, y, z in zip(xs, xs[1:], xs[2:]):
            assert x * (y + z) == x * y + x * z


def test_subtraction_with_equal_and_different_denominators():
    rng = CounterRng(6, "sub")
    kinds = set()
    for _ in range(50):
        x = random_exact_scalar(rng)
        # adding an integer keeps the denominator of a canonical scalar
        same = x + ExactScalar(1 + rng.randrange(9))
        assert same.den == x.den
        for y in (same, random_exact_scalar(rng)):
            kinds.add(y.den == x.den)
            assert x - y == x + (-y)
            assert (x - y) + y == x
        diff = x - x
        assert diff == ZERO and diff.den == 1
    assert kinds == {True, False}


def test_matrix_sub():
    rng = CounterRng(7, "matrix sub")
    a = ExactMatrix(3, 3, [random_exact_scalar(rng) for _ in range(9)])
    assert all(e == ZERO and e.den == 1 for e in a.sub(a).entries)
    # b agrees with a on the diagonal only
    b = ExactMatrix(3, 3, [x if i % 4 == 0 else random_exact_scalar(rng)
                           for i, x in enumerate(a.entries)])
    diff = a.sub(b)
    assert diff.entries == [x - y for x, y in zip(a.entries, b.entries)]
    assert [e == ZERO for e in diff.entries] == [i % 4 == 0
                                                 for i in range(9)]
    assert diff.add(b) == a


def test_canonical_invariants():
    rng = CounterRng(5, "canon")
    for _ in range(100):
        x = random_exact_scalar(rng)
        assert x.den > 0
        assert math.gcd(x.xa, x.xb, x.xc, x.xd, x.den) == 1
        # BigRational views are reduced with positive denominators
        for comp in (x.a, x.b, x.c, x.d):
            assert isinstance(comp, BigRational)
            assert comp.denominator > 0
            assert math.gcd(comp.numerator, comp.denominator) == 1


def _unlimited_str(v: int) -> str:
    """str(v) with the interpreter's int-to-str digit limit lifted."""
    old_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old_limit is None:
        return str(v)
    sys.set_int_max_str_digits(0)
    try:
        return str(v)
    finally:
        sys.set_int_max_str_digits(old_limit)


def test_digit_count_is_the_length_of_the_decimal_text():
    """Exact on both sides of a power of ten, in any component, and past
    the 4300 digits at which str() refuses by default."""
    assert ZERO.digit_count() == 1
    for k in sorted({*range(0, 5001, 97), 4299, 4300, 4301, 4302, 5000}):
        for v in (10**k - 1, 10**k, 10**k + 1):
            if v == 0:
                continue
            want = len(_unlimited_str(v))
            for x in (ExactScalar(v), ExactScalar(0, -v),
                      ExactScalar(0, 0, v), ExactScalar(0, 0, 0, -v),
                      ExactScalar(Fraction(1, v))):
                assert x.digit_count() == want, (k, v - 10**k)


def test_digit_growth_linear():
    """Digit counts along a random chain of j operations on m-digit inputs
    stay within a linear budget in j*m."""
    rng = CounterRng(6, "digits")
    for trial in range(5):
        inputs = [random_exact_scalar(rng, 16) for _ in range(8)]
        m = max(x.digit_count() for x in inputs)
        acc = inputs[0]
        for j in range(1, 40):
            other = inputs[rng.randrange(len(inputs))]
            acc = acc + other if rng.coin_bit() else acc * other
            assert acc.digit_count() <= (j + 1) * (m + 2)


class TestParsing:
    def test_t_gate_phase_literal(self):
        assert parse_scalar("1/2*r2 + 1/2*r2*i") == \
            ExactScalar(0, 0, Fraction(1, 2), Fraction(1, 2))

    def test_whitespace_insensitive(self):
        assert parse_scalar(" 1/2 * r2+1/2* r2 *i ") == \
            parse_scalar("1/2*r2+1/2*r2*i")

    def test_plain_forms(self):
        assert parse_scalar("3") == ExactScalar(3)
        assert parse_scalar("-2/3") == ExactScalar(Fraction(-2, 3))
        assert parse_scalar("i") == I_UNIT
        assert parse_scalar("r2") == SQRT2
        assert parse_scalar("0") == ZERO

    def test_roundtrip(self):
        rng = CounterRng(7, "roundtrip")
        for _ in range(60):
            x = random_exact_scalar(rng, 12)
            assert parse_scalar(x.to_text()) == x

    @pytest.mark.parametrize("bad", ["", "1/0", "q", "2*2*i", "i*i",
                                     "1/2+", "+", "1//2"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_scalar(bad)
