"""Exact statevector oracle: updates, marginals, blockedness decisions."""

from fractions import Fraction

import pytest

from pblocksim.exact import ExactScalar, ZERO, ONE, HALF_SQRT2
from pblocksim.circuits import (Circuit, CircuitStep, LIBRARY, parse_circuit,
                                gen_block_local)
from pblocksim.dense import (StateVector, dense_apply, dense_run,
                             dense_marginal, dense_blockedness,
                             WidthCapExceeded)
from pblocksim.prng import CounterRng

from helpers import (brute_blockedness, float_statevector, full_amps,
                     ghz_circuit, random_clifford_circuit)

BELL = parse_circuit("qubits 2\ninput 00\ngate H 0\ngate CNOT 0 1\nmeasure 0\n")


def random_circuit(rng: CounterRng, n: int, steps: int) -> Circuit:
    names1 = ("H", "T", "S", "X", "Y", "Z")
    names2 = ("CNOT", "CZ", "SWAP")
    bits = "".join(str(rng.coin_bit()) for _ in range(n))
    out = []
    for _ in range(steps):
        if n >= 2 and rng.coin_bit():
            a = rng.randrange(n)
            b = a
            while b == a:
                b = rng.randrange(n)
            out.append(CircuitStep(LIBRARY[names2[rng.randrange(3)]], (a, b)))
        else:
            out.append(CircuitStep(LIBRARY[names1[rng.randrange(6)]],
                                   (rng.randrange(n),)))
    return Circuit(n, bits, tuple(out))


class TestDenseApply:
    def test_cnot_flips(self):
        sv = StateVector.from_bits("10")
        out = dense_apply(sv, CircuitStep(LIBRARY["CNOT"], (0, 1)))
        assert out.amps[0b11] == ONE

    def test_h_on_leftmost(self):
        sv = StateVector.from_bits("00")
        out = dense_apply(sv, CircuitStep(LIBRARY["H"], (0,)))
        assert out.amps == {0b00: HALF_SQRT2, 0b10: HALF_SQRT2}

    def test_gate_then_inverse_restores(self):
        rng = CounterRng(40, "uinv")
        for _ in range(10):
            c = random_circuit(rng, 3, 1)
            step = c.steps[0]
            sv = dense_run(Circuit(3, c.input_bits, ()))
            fwd = dense_apply(sv, step)
            # inverse via conjugate transpose
            from pblocksim.circuits import GateDef
            inv = GateDef("INV", step.gate.arity, step.gate.matrix.dagger())
            back = dense_apply(fwd, CircuitStep(inv, step.targets))
            assert back.amps == sv.amps

    def test_norm_preserved(self):
        rng = CounterRng(41, "norm")
        sv = StateVector.from_bits("0101")
        for _ in range(30):
            c = random_circuit(rng, 4, 1)
            sv = dense_apply(sv, c.steps[0])
            assert sv.is_normalized()

    def test_agrees_with_float_reference(self):
        rng = CounterRng(42, "floatref")
        for _ in range(5):
            c = random_circuit(rng, 3, 25)
            sv = dense_run(c)
            ref = float_statevector(c)
            for mine, theirs in zip(full_amps(sv), ref):
                assert abs(mine.to_complex() - theirs) <= 1e-12


class TestDenseRun:
    def test_bell(self):
        sv = dense_run(BELL)
        assert sv.amps[0b00] == HALF_SQRT2
        assert sv.amps[0b11] == HALF_SQRT2

    def test_empty_circuit(self):
        sv = dense_run(Circuit(3, "101", ()))
        assert sv.amps[0b101] == ONE

    def test_inverse_suffix_restores_input(self):
        rng = CounterRng(43, "restore")
        c = random_circuit(rng, 3, 20)
        from pblocksim.circuits import GateDef
        inv_steps = tuple(
            CircuitStep(GateDef("INV" + s.gate.name, s.gate.arity,
                                s.gate.matrix.dagger()), s.targets)
            for s in reversed(c.steps))
        whole = Circuit(3, c.input_bits, c.steps + inv_steps)
        sv = dense_run(whole)
        assert sv.amps[int(c.input_bits, 2)] == ONE

    def test_ghz_at_the_cap_holds_two_amplitudes(self):
        sv = dense_run(ghz_circuit(14))
        assert sv.amps == {0: HALF_SQRT2, (1 << 14) - 1: HALF_SQRT2}

    def test_width_cap(self):
        with pytest.raises(WidthCapExceeded):
            dense_run(Circuit(15, "0" * 15, ()))


class TestMarginal:
    def test_bell_marginal(self):
        dist = dense_marginal(dense_run(BELL), 0)
        half = ExactScalar(Fraction(1, 2))
        assert dist.p0 == half and dist.p1 == half

    def test_basis_state(self):
        sv = StateVector.from_bits("10")
        dist = dense_marginal(sv, 0)
        assert dist.p0 == ZERO and dist.p1 == ONE

    def test_sum_exactly_one(self):
        rng = CounterRng(44, "marg")
        for _ in range(10):
            c = random_circuit(rng, 4, 25)
            dist = dense_marginal(dense_run(c), rng.randrange(4))
            assert dist.p0 + dist.p1 == ONE


class TestBlockedness:
    def test_bell_not_1_blocked(self):
        assert dense_blockedness(dense_run(BELL), 1) is None

    def test_bell_2_blocked(self):
        assert dense_blockedness(dense_run(BELL), 2) == [(0, 1)]

    def test_basis_state_singletons(self):
        sv = StateVector.from_bits("0110")
        assert dense_blockedness(sv, 1) == [(0,), (1,), (2,), (3,)]

    def test_ap1_example(self):
        """Support {3,6,9,12}: two 2-qubit blocks pairing bit positions
        (3,1) and (2,0), i.e. circuit qubits (0,2) and (1,3) at width 4."""
        amp = ExactScalar(Fraction(1, 2))
        sv = StateVector.from_support(4, (3, 6, 9, 12), amp)
        assert dense_blockedness(sv, 2) == [(0, 2), (1, 3)]
        assert dense_blockedness(sv, 1) is None

    def test_matches_brute_force(self):
        """Peeling search equals literal enumerate-and-compare at n <= 5."""
        rng = CounterRng(45, "brute")
        for _ in range(25):
            n = 3 + rng.randrange(3)
            c = random_circuit(rng, n, 12)
            sv = dense_run(c)
            for p in (1, 2, 3):
                got = dense_blockedness(sv, p)
                want = brute_blockedness(full_amps(sv), n, p)
                assert got == want, (c, p)

    def test_matches_brute_force_on_structured_supports(self):
        half = ExactScalar(Fraction(1, 2))
        cases = [
            StateVector.from_support(3, (0, 3, 5, 6), half),   # parity state
            StateVector.from_support(3, (0, 6), HALF_SQRT2),   # Bell x |0>
            StateVector.from_support(4, (3, 6, 9, 12), half),  # two pairs
        ]
        for sv in cases:
            for p in (1, 2, 3):
                got = dense_blockedness(sv, p)
                want = brute_blockedness(full_amps(sv), sv.width, p)
                assert got == want, (sv.nonzeros(), p)

    def test_monotone_in_p(self):
        rng = CounterRng(46, "mono")
        for _ in range(10):
            c = random_circuit(rng, 4, 15)
            sv = dense_run(c)
            parts = [dense_blockedness(sv, p) for p in (1, 2, 3, 4)]
            for small, big in zip(parts, parts[1:]):
                if small is not None:
                    assert big == small  # finest partition is p-independent

    def test_ghz_needs_full_block(self):
        for n in (3, 5, 8):
            sv = dense_run(ghz_circuit(n))
            assert dense_blockedness(sv, n - 1) is None
            assert dense_blockedness(sv, n) == [tuple(range(n))]

    def test_clifford_states_sane(self):
        rng = CounterRng(47, "cliffbl")
        for _ in range(5):
            c = random_clifford_circuit(rng, 4, 20)
            sv = dense_run(c)
            parts = dense_blockedness(sv, 4)
            assert parts is not None  # p = n always factors

    def test_prefixes_of_block_local_circuit(self):
        """Every prefix of gen_block_local(6,2,50,1) is 2-blocked."""
        c = gen_block_local(6, 2, 50, 1)
        sv = StateVector.from_bits(c.input_bits)
        for step in c.steps:
            sv = dense_apply(sv, step)
            assert dense_blockedness(sv, 2) is not None
