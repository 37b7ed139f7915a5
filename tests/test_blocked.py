"""Blocked engine: block bookkeeping, exact splits, oracle equivalence."""

import gc
import time
import weakref
from fractions import Fraction

import pytest

from pblocksim.exact import ExactScalar, ZERO, ONE, HALF_SQRT2
from pblocksim.matrices import DensityBlock
from pblocksim.circuits import (Circuit, CircuitStep, LIBRARY, parse_circuit,
                                gen_block_local, gen_entangle_disentangle)
from pblocksim.dense import dense_run, dense_marginal
from pblocksim import blocked
from pblocksim.blocked import (BlockedState, PBlockError, init_blocked,
                               apply_blocked, split_exact, run_blocked,
                               run_blocked_full)
from pblocksim.approx import ApproxConfig, run_approx
from pblocksim.prng import CounterRng

from helpers import (OUT_OF_ORDER_INPUTS, classical_bits,
                     density_from_statevector, evolve_density_exact,
                     full_amps, kron, kron_chain, random_mixed_density,
                     random_pure_density, reduced_by_definition)

BELL = parse_circuit("qubits 2\ninput 00\ngate H 0\ngate CNOT 0 1\nmeasure 0\n")
HALF = ExactScalar(Fraction(1, 2))


class TestInit:
    def test_bits(self):
        state = init_blocked(Circuit(2, "01", ()))
        assert [b.labels for b in state.assignment] == [(0,), (1,)]
        b0 = state.block_of(0)
        assert b0.matrix.at(0, 0) == ONE
        b1 = state.block_of(1)
        assert b1.matrix.at(1, 1) == ONE

    def test_every_block_singleton(self):
        state = init_blocked(Circuit(4, "0110", ()))
        assert [b.labels for b in state.assignment] == [(0,), (1,), (2,), (3,)]

    def test_basis_blocks_share_one_map_and_one_matrix_per_bit(self):
        """A start state allocates no map or matrix per basis qubit: every
        |b><b| block of two wide start states holds the one map and the one
        matrix of its bit, and equal bits share the block itself."""
        rng = CounterRng(8, "basis")
        inputs = ["".join("01"[rng.randrange(2)] for _ in range(1000))
                  for _ in range(2)]
        first, second = (init_blocked(Circuit(1000, bits, ()))
                         for bits in inputs)
        maps, matrices = {}, {}
        for q, bits in enumerate(zip(*inputs)):
            for bit, block in zip(bits, (first.block_of(q),
                                         second.block_of(q))):
                maps.setdefault(bit, {})[id(block.nonzeros)] = block.nonzeros
                matrices.setdefault(bit, set()).add(id(block.matrix))
            if bits[0] == bits[1]:
                assert first.block_of(q) is second.block_of(q)
        assert {bit: list(m.values()) for bit, m in maps.items()} == \
            {"0": [{0: ONE}], "1": [{3: ONE}]}
        assert [len(ids) for ids in matrices.values()] == [1, 1]

    def test_input_block_lies_over_the_shared_basis_blocks(self):
        """A wide start state with an input block holds, on every qubit the
        block leaves uncovered, the very |b><b| block the same circuit
        without it holds; both covered qubits hold the one input block, and
        a run from it gives the dense density oracle's marginal."""
        from pblocksim.circuits import InputBlock
        rng = CounterRng(9, "input over basis")
        bits = "".join("01"[rng.randrange(2)] for _ in range(600))
        labels = (301, 5)
        rho = random_mixed_density(rng, 2).matrix
        steps = tuple(CircuitStep(LIBRARY[name], targets) for name, targets in
                      (("H", (5,)), ("CNOT", (5, 301)), ("T", (301,)),
                       ("H", (301,))))
        plain = init_blocked(Circuit(600, bits, steps, 5))
        circuit = Circuit(600, bits, steps, 5, (InputBlock(labels, rho),))
        start = init_blocked(circuit)
        for q in range(600):
            if q not in labels:
                assert start.block_of(q) is plain.block_of(q)
        block = start.block_of(5)
        assert start.block_of(301) is block
        assert block.labels == labels and block.matrix == rho
        _, dist = run_blocked_full(circuit, 2)
        final = evolve_density_exact(circuit, DensityBlock(labels, rho))
        marginal = reduced_by_definition(final, (5,)).matrix
        assert (dist.p0, dist.p1) == (marginal.at(0, 0), marginal.at(1, 1))


class TestApply:
    def test_case1_same_block(self):
        state = init_blocked(Circuit(2, "00", ()))
        state = apply_blocked(state, CircuitStep(LIBRARY["H"], (0,)), 2)
        state = apply_blocked(state, CircuitStep(LIBRARY["CNOT"], (0, 1)), 2)
        assert state.block_of(0) is state.block_of(1)
        # CNOT again: both targets already share a block, which stays whole
        state = apply_blocked(state, CircuitStep(LIBRARY["CNOT"], (0, 1)), 2)
        assert state.block_of(0) is state.block_of(1)
        assert state.block_of(0).labels == (0, 1)

    def test_case2_merges_to_bell(self):
        state = init_blocked(Circuit(2, "01", ()))
        state = apply_blocked(state, CircuitStep(LIBRARY["H"], (0,)), 2)
        state = apply_blocked(state, CircuitStep(LIBRARY["CNOT"], (0, 1)), 2)
        block = state.block_of(0)
        assert block.labels == (0, 1)
        # dense oracle on the same 2-qubit circuit
        circ = Circuit(2, "01", (CircuitStep(LIBRARY["H"], (0,)),
                                 CircuitStep(LIBRARY["CNOT"], (0, 1))))
        want = density_from_statevector(full_amps(dense_run(circ)))
        assert block.matrix == want

    def test_case2_p1_raises(self):
        state = init_blocked(Circuit(2, "01", ()))
        state = apply_blocked(state, CircuitStep(LIBRARY["H"], (0,)), 1)
        with pytest.raises(PBlockError):
            apply_blocked(state, CircuitStep(LIBRARY["CNOT"], (0, 1)), 1,
                          step_index=1)

    def test_failed_split_makes_no_copy(self, monkeypatch):
        """H then CNOT at p = 1: the CNOT's Bell pair does not split, and
        the step raises before it makes a version, so the state it started
        from still reads as before."""
        copies = []
        copy = BlockedState.copy

        def counted(*args):
            copies.append(args)
            return copy(*args)

        monkeypatch.setattr(BlockedState, "copy", counted)
        state = init_blocked(Circuit(2, "00", ()))
        state = apply_blocked(state, CircuitStep(LIBRARY["H"], (0,)), 1)
        blocks = [state.block_of(q) for q in (0, 1)]
        before = [(b.labels, b.matrix.entries) for b in blocks]
        with pytest.raises(PBlockError):
            apply_blocked(state, CircuitStep(LIBRARY["CNOT"], (0, 1)), 1)
        assert len(copies) == 1
        assert [state.block_of(q) for q in (0, 1)] == blocks
        assert [(b.labels, b.matrix.entries) for b in blocks] == before


class TestSplitExact:
    def test_product_of_singletons(self):
        rng = CounterRng(50, "split1")
        a = random_pure_density(rng, 1)
        b = random_mixed_density(rng, 1)
        joint = DensityBlock((0, 1), kron(a.matrix, b.matrix))
        parts = split_exact(joint, 1)
        assert [blk.labels for blk in parts] == [(0,), (1,)]
        assert parts[0].matrix == a.matrix
        assert parts[1].matrix == b.matrix

    def test_ap1_block_splits_into_pairs(self):
        amp = HALF
        amps = [ZERO] * 16
        for v in (3, 6, 9, 12):
            amps[v] = amp
        # circuit-qubit labels: bit position k <-> qubit 3-k
        block = DensityBlock((0, 1, 2, 3), density_from_statevector(amps))
        parts = split_exact(block, 2)
        assert sorted(blk.labels for blk in parts) == [(0, 2), (1, 3)]

    def test_bell_block_unsplittable(self):
        amps = [HALF_SQRT2, ZERO, ZERO, HALF_SQRT2]
        block = DensityBlock((0, 1), density_from_statevector(amps))
        with pytest.raises(PBlockError):
            split_exact(block, 1)

    def test_split_kron_soundness(self):
        """Whenever a split succeeds the parts reassemble the block exactly."""
        rng = CounterRng(51, "split2")
        for _ in range(6):
            a = random_mixed_density(rng, 1)
            b = random_pure_density(rng, 2)
            joint = DensityBlock((0, 1, 2), kron(a.matrix, b.matrix))
            parts = split_exact(joint, 2)
            reassembled = kron_chain(parts, joint.labels)
            assert reassembled.matrix == joint.matrix

    def test_mixed_block_split(self):
        """Mixed product blocks split exactly too (no purity shortcut)."""
        rng = CounterRng(52, "split3")
        a = random_mixed_density(rng, 1)
        b = random_mixed_density(rng, 1)
        joint = DensityBlock((4, 7), kron(a.matrix, b.matrix))
        parts = split_exact(joint, 1)
        assert [blk.labels for blk in parts] == [(4,), (7,)]
        assert parts[0].matrix == a.matrix


    def test_basis_state_wider_than_any_start_state(self):
        """A basis state splits into the shared basis blocks even on qubits
        past every start state made so far, and a start state made later
        holds those very blocks."""
        top = max(map(len, blocked._BASIS_BLOCKS.values()))
        # label top + 2 at the high bit holds 1, label top holds 0
        block = DensityBlock((top + 2, top), nonzeros={0b10 << 2 | 0b10: ONE})
        parts = split_exact(block, 1)
        assert [(b.labels, b.nonzeros) for b in parts] == \
            [((top,), {0: ONE}), ((top + 2,), {3: ONE})]
        start = init_blocked(Circuit(top + 3, "0" * (top + 2) + "1", ()))
        assert parts[0] is start.block_of(top)
        assert parts[1] is start.block_of(top + 2)


class TestRunBlocked:
    def test_bell_measure(self):
        dist = run_blocked(BELL, 2)
        assert dist.p0 == HALF and dist.p1 == HALF

    def test_bell_p1_propagates(self):
        with pytest.raises(PBlockError) as err:
            run_blocked(BELL, 1)
        assert err.value.step_index == 1

    def test_classical_reversible_matches_bit_evaluator(self):
        rng = CounterRng(53, "classical")
        for _ in range(10):
            n = 4 + rng.randrange(3)
            bits = "".join(str(rng.coin_bit()) for _ in range(n))
            steps = []
            for _ in range(25):
                kind = rng.randrange(3)
                if kind == 0:
                    steps.append(CircuitStep(LIBRARY["X"],
                                             (rng.randrange(n),)))
                elif kind == 1:
                    a = rng.randrange(n)
                    b = a
                    while b == a:
                        b = rng.randrange(n)
                    steps.append(CircuitStep(LIBRARY["CNOT"], (a, b)))
                else:
                    a = rng.randrange(n)
                    b = a
                    while b == a:
                        b = rng.randrange(n)
                    steps.append(CircuitStep(LIBRARY["SWAP"], (a, b)))
            c = Circuit(n, bits, tuple(steps), rng.randrange(n))
            expected_bits = classical_bits(c)
            dist = run_blocked(c, 1)
            want1 = int(expected_bits[c.measured_qubit])
            assert dist.p1 == (ONE if want1 else ZERO)
            assert dist.p0 == (ZERO if want1 else ONE)

    def test_oracle_equivalence_sweep(self):
        rng = CounterRng(54, "sweep")
        for k in range(20):
            p = 1 + rng.randrange(3)
            n = max(p + 1, 4 + rng.randrange(4))
            steps = 15 + rng.randrange(25)
            seed = rng.randrange(10 ** 6)
            gen = gen_block_local if k % 2 == 0 else gen_entangle_disentangle
            c = gen(n, p, steps, seed)
            assert run_blocked(c, p).exact_eq(
                dense_marginal(dense_run(c), c.measured_qubit))

    def test_final_state_equals_dense_density(self):
        rng = CounterRng(55, "density_eq")
        for seed in range(4):
            c = gen_entangle_disentangle(5, 2, 30, seed)
            state, _ = run_blocked_full(c, 2)
            got = state.global_density()
            want = density_from_statevector(full_amps(dense_run(c)))
            assert got.matrix == want

    def test_entangle_disentangle_example(self):
        """H, CNOT, CNOT, H pattern: transient Bell inside one 2-block."""
        text = ("qubits 2\ninput 00\n"
                "gate H 0\ngate CNOT 0 1\ngate CNOT 0 1\ngate H 0\n"
                "measure 0\n")
        c = parse_circuit(text)
        dist = run_blocked(c, 2)
        assert dist.p0 == ONE
        with pytest.raises(PBlockError):
            run_blocked(c, 1)  # the transient Bell pair needs p >= 2

    def test_amalgamation_persists_within_p(self):
        """A merged block within p is kept, even once it factors again."""
        text = ("qubits 2\ninput 00\n"
                "gate H 0\ngate CNOT 0 1\ngate CNOT 0 1\ngate H 0\n"
                "measure 0\n")
        c = parse_circuit(text)
        state, dist = run_blocked_full(c, 2)
        assert dist.exact_eq(dense_marginal(dense_run(c), 0))
        assert state.block_of(0).labels == (0, 1)  # amalgamation persists

    def test_mixed_input_matches_density_oracle(self):
        """Mixed per-block inputs; full-width exact density as the oracle."""
        rng = CounterRng(56, "mixed")
        for seed in range(3):
            n = 4
            c = gen_block_local(n, 2, 12, seed)
            mixed0 = random_mixed_density(rng, 2)
            blocks = [DensityBlock((0, 1), mixed0.matrix)]
            from pblocksim.circuits import InputBlock
            circ = Circuit(n, "0" * n, c.steps, 0,
                           (InputBlock((0, 1), mixed0.matrix),))
            state, dist = run_blocked_full(circ, 2)
            # oracle: evolve the full density matrix directly
            rest = density_from_statevector(
                full_amps(dense_run(Circuit(2, "00", ()))))
            start = DensityBlock(tuple(range(n)),
                                 kron(mixed0.matrix, rest))
            final = evolve_density_exact(circ, start)
            assert state.global_density().matrix == final.matrix
            single = reduced_by_definition(final, (0,))
            assert dist.p0 == single.matrix.at(0, 0)

    def test_input_block_larger_than_p(self):
        from pblocksim.circuits import InputBlock
        rng = CounterRng(57, "bigblock")
        big = random_mixed_density(rng, 2)
        circ = Circuit(2, "00", (), 0, (InputBlock((0, 1), big.matrix),))
        with pytest.raises(PBlockError):
            run_blocked(circ, 1)

    def test_oversized_input_names_the_lowest_qubit(self):
        """The error names the block that holds the lowest qubit of any
        oversized input block, in its own label order, whatever order the
        inputblock lines come in."""
        with pytest.raises(PBlockError) as caught:
            run_blocked(OUT_OF_ORDER_INPUTS, 2)
        assert str(caught.value) == \
            "step -1: block (3, 1, 6) input block larger than p = 2"


def test_cost_independent_of_width():
    """Per-step cost at fixed p stays flat as n grows (same step count): a
    step copies no per-qubit table and writes only the entries of the qubits
    whose block it replaced."""
    times = {}
    for n in (50, 20000):
        c = gen_block_local(n, 2, 600, 17)
        state = init_blocked(c)
        t0 = time.perf_counter()
        for j, step in enumerate(c.steps):
            state = apply_blocked(state, step, 2, j)
        times[n] = time.perf_counter() - t0
    assert times[20000] <= 2.0 * times[50] + 0.05


def test_run_loop_keeps_no_old_version():
    """A version holds no reference to an older one, so a loop that drops
    old versions frees them."""
    c = gen_block_local(50, 2, 100, 3)
    state = apply_blocked(init_blocked(c), c.steps[0], 2, 0)
    early = weakref.ref(state)
    for j, step in enumerate(c.steps[1:], 1):
        state = apply_blocked(state, step, 2, j)
    gc.collect()
    assert early() is None


def test_no_engine_reads_a_dense_block(monkeypatch):
    """Both engines read every block through its nonzero map: runs that
    merge, split, project onto a product that is not exact and measure
    never build a block's dense view."""
    split = parse_circuit("qubits 4\ninput 0000\ngate H 0\ngate CNOT 0 1\n"
                          "gate SWAP 1 2\ngate CNOT 3 2\nmeasure 0\n")
    ghz = parse_circuit("qubits 3\ninput 000\ngate H 0\ngate CNOT 0 1\n"
                        "gate CNOT 1 2\nmeasure 2\n")
    reads = []
    view = DensityBlock.matrix

    def counted(block):
        reads.append(block)
        return view.fget(block)

    monkeypatch.setattr(DensityBlock, "matrix", property(counted))
    state, dist = run_blocked_full(split, 2)
    assert sorted(b.labels for b in state.blocks) == [(0, 2), (1,), (3,)]
    assert dist.p0 == ExactScalar(Fraction(1, 2))
    _, ledger, _ = run_approx(ghz, ApproxConfig(2, 0.0))
    assert ledger.entries[-1].d > 0
    assert reads == []


def test_blocks_is_a_view_of_each_block_once():
    """`blocks` maps each block of the state to itself, read from the
    assignment without a copy, and refuses blocks it does not hold."""
    circuit = gen_entangle_disentangle(9, 3, 30, 4)
    state = init_blocked(circuit)
    for j, step in enumerate(circuit.steps):
        view = state.blocks
        assert dict(view) == {b: b for b in state.assignment}
        assert len(view) == len(set(state.assignment))
        assert all(view[state.block_of(q)] is state.block_of(q)
                   for q in range(circuit.width))
        state = apply_blocked(state, step, 3, j)
        with pytest.raises(RuntimeError):
            list(view)
    foreign = DensityBlock((0,), nonzeros={0: ONE})
    for key in (foreign, DensityBlock((99,), nonzeros={0: ONE}), "block"):
        assert key not in state.blocks
        with pytest.raises(KeyError):
            state.blocks[key]
