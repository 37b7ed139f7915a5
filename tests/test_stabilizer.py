"""Tableau engine: update rules, marginals, scale, dense agreement."""

import time
from fractions import Fraction

import pytest

from pblocksim.exact import ExactScalar
from pblocksim.circuits import (Circuit, CircuitStep, GateDef, LIBRARY,
                                parse_circuit)
from pblocksim.matrices import mat_mul
from pblocksim.dense import dense_run, dense_marginal
from pblocksim.stabilizer import (PauliString, NonCliffordGate,
                                  StabilizerTableau, tableau_apply,
                                  tableau_marginal, run_stabilizer)
from pblocksim.prng import CounterRng

from helpers import S_H_CNOT, ghz_circuit, random_clifford_circuit

ONE = ExactScalar(1)
ZERO = ExactScalar(0)
HALF = ExactScalar(Fraction(1, 2))


# a defgate that shadows a built-in name runs by its matrix: this "H" is X
SHADOWED_H = "qubits 1\ndefgate H 1\n0 1\n1 0\ngate H 0\nmeasure 0\n"
# H's matrix under a fresh name
RENAMED_H = ("qubits 2\ndefgate HH 1\n1/2*r2 1/2*r2\n1/2*r2 -1/2*r2\n"
             "gate HH 0\ngate CNOT 0 1\nmeasure 1\n")
# T's matrix as the step-1 gate, under a fresh name and under S's name
T_MATRIX = "defgate {} 1\n1 0\n0 1/2*r2+1/2*i*r2\n"
NON_CLIFFORD = [
    "qubits 1\ngate H 0\ngate T 0\nmeasure 0\n",
    "qubits 1\n" + T_MATRIX.format("TT") + "gate H 0\ngate TT 0\n",
    "qubits 1\n" + T_MATRIX.format("S") + "gate H 0\ngate S 0\n",
]


def step(name, *qs):
    return CircuitStep(LIBRARY[name], tuple(qs))


def letters(t):
    """The generators' letter forms, in generator order."""
    return [g.to_text() for g in t.generators]


def custom(name, *factors):
    """A gate named `name` whose matrix is the product of library gates."""
    matrix = LIBRARY[factors[0]].matrix
    for f in factors[1:]:
        matrix = mat_mul(matrix, LIBRARY[f].matrix)
    return GateDef(name, LIBRARY[factors[0]].arity, matrix)


class TestInit:
    def test_zero(self):
        t = StabilizerTableau(1, "0")
        assert letters(t) == ["+Z"]

    def test_one(self):
        t = StabilizerTableau(1, "1")
        assert letters(t) == ["-Z"]

    def test_two_zeros(self):
        t = StabilizerTableau(2, "00")
        assert letters(t) == ["+ZI", "+IZ"]


class TestApply:
    def test_h_turns_z_into_x(self):
        t = tableau_apply(StabilizerTableau(1, "0"), step("H", 0))
        assert letters(t) == ["+X"]

    def test_bell_canonical_form(self):
        t = StabilizerTableau(2, "00")
        t = tableau_apply(t, step("H", 0))
        t = tableau_apply(t, step("CNOT", 0, 1))
        assert letters(t) == ["+XX", "+ZZ"]

    def test_updates_in_place(self):
        t = StabilizerTableau(2, "01")
        for s in (step("H", 0), step("CNOT", 0, 1), step("S", 1)):
            assert tableau_apply(t, s) is t
        assert letters(t) == ["+XY", "-ZZ"]

    @pytest.mark.parametrize("columns, bit, message", [
        # destabilizer 0 gains X_1, so it anticommutes with generator 1 = Z_1
        ("dxs", 0, "not dual"),
        # generator 0 becomes XX, which anticommutes with generator 1 = Z_1
        ("xs", 0, "do not commute"),
    ], ids=["destabilizer", "generator"])
    def test_flipped_bit_is_caught(self, columns, bit, message):
        t = tableau_apply(StabilizerTableau(2, "00"), step("H", 0))
        t.check_invariants()
        getattr(t, columns)[1] ^= 1 << bit
        with pytest.raises(ValueError, match=message):
            t.check_invariants()

    def test_fault_mid_run_is_caught_at_the_end(self):
        """An H whose table maps Z to I, not symplectic, at several points
        of a run, each followed by at least 30 correct gates: a correct
        update keeps both invariants as they are, so the one check at the
        end still sees the fault.  The same run with the real H passes."""
        bad_h = GateDef("H", 1, LIBRARY["H"].matrix)
        bad_h._clifford_table = (((1, (0,)),), ())
        rng = CounterRng(64, "fault")
        c = random_clifford_circuit(rng, 6, 80)
        for pos in (0, 10, 25, 40, 50):
            target = (rng.randrange(6),)
            for gate, faulty in ((bad_h, True), (LIBRARY["H"], False)):
                steps = list(c.steps)
                steps.insert(pos, CircuitStep(gate, target))
                assert len(steps) - pos - 1 >= 30
                t = StabilizerTableau(c.width, c.input_bits)
                for s in steps:
                    t = tableau_apply(t, s)
                if faulty:
                    with pytest.raises(ValueError):
                        t.check_invariants()
                else:
                    t.check_invariants()

    def test_t_gate_rejected(self):
        with pytest.raises(NonCliffordGate):
            tableau_apply(StabilizerTableau(1, "0"), step("T", 0))

    def test_invariants_hold_along_random_runs(self):
        rng = CounterRng(60, "stabinv")
        for _ in range(5):
            c = random_clifford_circuit(rng, 5, 60)
            t = StabilizerTableau(c.width, c.input_bits)
            for s in c.steps:
                t = tableau_apply(t, s)
                t.check_invariants()

    def test_single_gate_rules_match_dense(self):
        """Each Clifford gate, applied to a handful of stabilizer states,
        gives the same marginals as the dense oracle on every qubit."""
        rng = CounterRng(61, "rules")
        preps = [
            (),
            (step("H", 0),),
            (step("H", 1), step("S", 1)),
            (step("H", 0), step("CNOT", 0, 1)),
            (step("X", 1), step("H", 0), step("CZ", 0, 1)),
        ]
        gates = [step("I", 0), step("X", 0), step("Y", 1), step("Z", 0),
                 step("H", 1), step("S", 0), step("CNOT", 1, 0),
                 step("CZ", 0, 1), step("SWAP", 0, 1),
                 # rules come from the matrix, not the name
                 CircuitStep(custom("H", "X"), (0,)),
                 CircuitStep(custom("HH", "H"), (1,)),
                 CircuitStep(custom("SH", "S", "H"), (0,)),
                 CircuitStep(custom("CNOT", "CZ", "SWAP"), (1, 0)),
                 CircuitStep(S_H_CNOT, (0, 1)),
                 CircuitStep(S_H_CNOT, (1, 0))]
        for prep in preps:
            for g in gates:
                c = Circuit(2, "00", tuple(prep) + (g,))
                sv = dense_run(c)
                t = StabilizerTableau(2, "00")
                for s in c.steps:
                    t = tableau_apply(t, s)
                t.check_invariants()
                for q in range(2):
                    want = dense_marginal(sv, q)
                    got = tableau_marginal(t, q)
                    assert got.exact_eq(want), (prep, g.gate.name, q)


class TestMarginal:
    def test_plus_state(self):
        t = tableau_apply(StabilizerTableau(1, "0"), step("H", 0))
        dist = tableau_marginal(t, 0)
        assert dist.p0 == HALF and dist.p1 == HALF

    def test_one_state(self):
        dist = tableau_marginal(StabilizerTableau(1, "1"), 0)
        assert dist.p0 == ZERO and dist.p1 == ONE

    def test_ghz10_matches_dense(self):
        c = ghz_circuit(10)
        want = dense_marginal(dense_run(c), 0)
        t = StabilizerTableau(10, "0" * 10)
        for s in c.steps:
            t = tableau_apply(t, s)
        t.check_invariants()
        assert tableau_marginal(t, 0).exact_eq(want)

    def test_deterministic_after_disentangling(self):
        # Bell made and unmade: outcome returns to certain
        c = parse_circuit("qubits 2\ngate H 0\ngate CNOT 0 1\n"
                          "gate CNOT 0 1\ngate H 0\nmeasure 0\n")
        dist = run_stabilizer(c)
        assert dist.p0 == ONE


class TestRunStabilizer:
    def test_bell(self):
        dist = run_stabilizer(parse_circuit(
            "qubits 2\ngate H 0\ngate CNOT 0 1\nmeasure 0\n"))
        assert dist.p0 == HALF

    def test_t_gate_reports_step(self):
        for text in NON_CLIFFORD:
            c = parse_circuit(text)
            with pytest.raises(NonCliffordGate) as err:
                run_stabilizer(c)
            assert err.value.step_index == 1
            name = c.steps[1].gate.name
            assert str(err.value) == \
                f"step 1: gate {name} has no tableau update rule"

    def test_defgate_runs_by_matrix(self):
        for text in (SHADOWED_H, RENAMED_H):
            c = parse_circuit(text)
            want = dense_marginal(dense_run(c), c.measured_qubit)
            assert run_stabilizer(c).exact_eq(want), text
        assert run_stabilizer(parse_circuit(SHADOWED_H)).p1 == ONE

    def test_random_clifford_vs_dense_all_qubits(self):
        rng = CounterRng(62, "cliff_sweep")
        for _ in range(30):
            n = 2 + rng.randrange(7)
            c = random_clifford_circuit(rng, n, 8 + rng.randrange(80))
            sv = dense_run(c)
            t = StabilizerTableau(c.width, c.input_bits)
            for s in c.steps:
                t = tableau_apply(t, s)
            t.check_invariants()
            for q in range(n):
                got = tableau_marginal(t, q)
                assert got.exact_eq(dense_marginal(sv, q))
                f0, _ = got.floats()
                assert f0 in (0.0, 0.5, 1.0)

    def test_wide_circuit_fast(self):
        rng = CounterRng(63, "wide")
        c = random_clifford_circuit(rng, 60, 2000)
        t0 = time.perf_counter()
        dist = run_stabilizer(c)
        assert time.perf_counter() - t0 < 1.0
        f0, f1 = dist.floats()
        assert abs(f0 + f1 - 1.0) < 1e-12


class TestHeldQubits:
    def test_holds_every_qubit_by_default(self):
        assert StabilizerTableau(3, "010").qubits == (0, 1, 2)

    def test_generator_i_belongs_to_the_ith_held_qubit(self):
        t = StabilizerTableau(5, "01001", [4, 1, 2])
        assert t.qubits == (1, 2, 4)
        assert [(g.z_mask, g.letter_sign()) for g in t.generators] == [
            (1 << 1, -1), (1 << 2, 1), (1 << 4, -1)]
        assert t.xs == [0] * 5 and t.zs == [0, 1, 2, 0, 4]

    def test_held_qubits_lie_in_the_register(self):
        for qubits in ([3], [-1, 0]):
            with pytest.raises(ValueError, match="in the register"):
                StabilizerTableau(3, "000", qubits)

    def test_marginal_of_a_qubit_not_held_raises(self):
        t = tableau_apply(StabilizerTableau(4, "0000", [0, 2]),
                          step("H", 0))
        for q in (1, 3):
            with pytest.raises(ValueError, match=f"qubit {q} is not held"):
                tableau_marginal(t, q)
        assert tableau_marginal(t, 2).p0 == ONE

    @pytest.mark.parametrize("gate", ["CNOT", "CZ", "SWAP"])
    def test_gate_off_the_held_qubits_is_caught(self, gate):
        t = StabilizerTableau(3, "000", [0, 1])
        t = tableau_apply(t, step("H", 0))
        t.check_invariants()
        t = tableau_apply(t, step(gate, 0, 2))
        with pytest.raises(ValueError, match="support is not the held"):
            t.check_invariants()

    def test_ghz_at_the_end_of_a_wide_register(self, monkeypatch):
        """GHZ(3) on the last three of 100 000 qubits: the run's tableau
        holds three columns, its masks are three bits wide, and every held
        qubit reads 1/2, 1/2."""
        n = 100_000
        a, b, c = n - 3, n - 2, n - 1
        circuit = Circuit(n, "0" * n, (step("H", a), step("CNOT", a, b),
                                       step("CNOT", b, c)), c)
        seen = []

        def spy(t, qubit):
            seen.append(t)
            return tableau_marginal(t, qubit)

        monkeypatch.setattr("pblocksim.stabilizer.tableau_marginal", spy)
        dist = run_stabilizer(circuit)
        assert dist.p0 == HALF and dist.p1 == HALF
        (t,) = seen
        assert t.qubits == (a, b, c)
        assert all(0 < t.xs[q] | t.zs[q] < 8 for q in t.qubits)
        t.check_invariants()
        for q in t.qubits:
            got = tableau_marginal(t, q)
            assert got.p0 == HALF and got.p1 == HALF


def test_pauli_string_products():
    # X * Z on one qubit = -i Y (phase tracked through mask multiply)
    x = PauliString(1, 1, 0, 0)
    z = PauliString(1, 0, 1, 0)
    xz = x.mul(z)
    assert (xz.x_mask, xz.z_mask, xz.phase) == (1, 1, 0)
    zx = z.mul(x)
    assert zx.phase == 2  # ZX = -XZ
    assert not x.commutes(z)
    assert x.commutes(x)
