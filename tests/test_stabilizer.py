"""Tableau engine: update rules, marginals, scale, dense agreement."""

import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import pblocksim
from pblocksim.exact import ExactScalar
from pblocksim.circuits import (Circuit, CircuitStep, GateDef, LIBRARY,
                                parse_circuit)
from pblocksim.matrices import mat_mul
from pblocksim.dense import dense_run, dense_marginal
from pblocksim.stabilizer import (PauliString, NonCliffordGate,
                                  StabilizerTableau,
                                  tableau_init, tableau_apply,
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


# Z_0 twice: no generator has X on qubit 1, yet Z_1 is not in the group, so
# no answer may come back, also under python -O, which strips asserts
RANK_DEFICIENT = """
from pblocksim.stabilizer import PauliString, StabilizerTableau, tableau_marginal
z0 = PauliString(2, 0, 1)
try:
    tableau_marginal(StabilizerTableau(2, [z0, z0]), 1)
except ValueError as exc:
    print(exc)
"""


def step(name, *qs):
    return CircuitStep(LIBRARY[name], tuple(qs))


def custom(name, *factors):
    """A gate named `name` whose matrix is the product of library gates."""
    matrix = LIBRARY[factors[0]].matrix
    for f in factors[1:]:
        matrix = mat_mul(matrix, LIBRARY[f].matrix)
    return GateDef(name, LIBRARY[factors[0]].arity, matrix)


class TestInit:
    def test_zero(self):
        t = tableau_init(1, "0")
        assert t.dump() == "+Z"

    def test_one(self):
        t = tableau_init(1, "1")
        assert t.dump() == "-Z"

    def test_two_zeros(self):
        t = tableau_init(2, "00")
        assert t.dump().splitlines() == ["+ZI", "+IZ"]


class TestApply:
    def test_h_turns_z_into_x(self):
        t = tableau_apply(tableau_init(1, "0"), step("H", 0))
        assert t.dump() == "+X"

    def test_bell_canonical_form(self):
        t = tableau_init(2, "00")
        t = tableau_apply(t, step("H", 0))
        t = tableau_apply(t, step("CNOT", 0, 1))
        assert t.dump().splitlines() == ["+XX", "+ZZ"]

    def test_updates_in_place(self):
        t = tableau_init(2, "01")
        for s in (step("H", 0), step("CNOT", 0, 1), step("S", 1)):
            assert tableau_apply(t, s) is t
        assert t.dump().splitlines() == ["+XY", "-ZZ"]

    def test_flipped_destabilizer_bit_is_caught(self):
        t = tableau_apply(tableau_init(2, "00"), step("H", 0))
        t.check_invariants()
        t.dxs[1] ^= 1
        with pytest.raises(ValueError, match="not dual"):
            t.check_invariants()

    def test_t_gate_rejected(self):
        with pytest.raises(NonCliffordGate):
            tableau_apply(tableau_init(1, "0"), step("T", 0))

    def test_invariants_hold_along_random_runs(self):
        rng = CounterRng(60, "stabinv")
        for _ in range(5):
            c = random_clifford_circuit(rng, 5, 60)
            t = tableau_init(c.width, c.input_bits)
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
                t = tableau_init(2, "00")
                for s in c.steps:
                    t = tableau_apply(t, s)
                for q in range(2):
                    want = dense_marginal(sv, q)
                    got = tableau_marginal(t, q)
                    assert got.exact_eq(want), (prep, g.gate.name, q)


class TestMarginal:
    def test_plus_state(self):
        t = tableau_apply(tableau_init(1, "0"), step("H", 0))
        dist = tableau_marginal(t, 0)
        assert dist.p0 == HALF and dist.p1 == HALF

    def test_one_state(self):
        dist = tableau_marginal(tableau_init(1, "1"), 0)
        assert dist.p0 == ZERO and dist.p1 == ONE

    def test_rank_deficient_tableau_is_an_error(self):
        z0 = PauliString(2, 0, 1)
        with pytest.raises(ValueError, match="generators are not independent"):
            tableau_marginal(StabilizerTableau(2, [z0, z0]), 1)
        src = os.path.dirname(os.path.dirname(pblocksim.__file__))
        out = subprocess.run([sys.executable, "-O", "-c", RANK_DEFICIENT],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "generators are not independent\n"

    def test_anticommuting_tableau_is_an_error(self):
        # X_0 and Z_0: full rank and no X on qubit 1, yet Z_1 is not in the
        # span, because the generators do not commute
        x0, z0 = PauliString(2, 1, 0), PauliString(2, 0, 1)
        with pytest.raises(ValueError, match="generators do not commute"):
            tableau_marginal(StabilizerTableau(2, [x0, z0]), 1)

    def test_ghz10_matches_dense(self):
        c = ghz_circuit(10)
        want = dense_marginal(dense_run(c, cap=10), 0)
        t = tableau_init(10, "0" * 10)
        for s in c.steps:
            t = tableau_apply(t, s)
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
            t = tableau_init(c.width, c.input_bits)
            for s in c.steps:
                t = tableau_apply(t, s)
            for q in range(n):
                got = tableau_marginal(t, q)
                assert got.exact_eq(dense_marginal(sv, q))
                f0, _ = got.floats()
                assert f0 in (0.0, 0.5, 1.0)

    def test_wide_circuit_fast(self):
        import pblocksim.stabilizer as stab_mod
        rng = CounterRng(63, "wide")
        c = random_clifford_circuit(rng, 60, 2000)
        stab_mod.DEBUG_CHECKS = False  # timing a production-mode run
        try:
            t0 = time.perf_counter()
            dist = run_stabilizer(c)
            assert time.perf_counter() - t0 < 1.0
        finally:
            stab_mod.DEBUG_CHECKS = True
        f0, f1 = dist.floats()
        assert abs(f0 + f1 - 1.0) < 1e-12


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
