"""Property tests over generated circuits and texts: the text format
round-trips, the parser fails only with CircuitError, a circuit built part
by part in code fails as it is built exactly when a part is invalid and
otherwise round-trips, hashes and runs, with its sequences given as tuples
or lists, a product with the shared ONE is the other factor and
agrees with a product by a fresh one, every cached index layout is its
definition and a tuple, tensor products of
blocks land in label order and trace back to their factors, a partial trace
is the reduced state of its definition, a block
conjugated tile by tile equals F rho F^dagger with the full gate F, a
permutation gate's moved entries are what its tiles give, and only a
permutation of ones counts as one, the
nonzero maps that gates, merges and partial traces give hold no zero and
match their dense views, `mat_mul` is the plain triple loop, the dense
state is the nonzero entries of the full statevector, the dense
blockedness decider agrees with brute-force enumeration, the blocked engine
aborts exactly when a prefix state is not p-blocked and otherwise ends with
the dense density, a run hands one state forward, so that its newest
version reads as its prefix state and every earlier one raises, its split
agrees with a brute-force search over products of marginals on pure, mixed
and classically correlated factors, and splits a basis state as the search
does, into the shared start blocks, every block a run splits splits into
the finest factorization of its nonzero map, the float
reference runs the dense engine's kernel to the same marginals, the nearest
exact gate's closed form picks the Frobenius argmin and the identity
whenever cos(theta) > 0, skipping the shared ZERO's conversion leaves every
trace norm the same float, the approx
engine's projection agrees with a brute-force search and, at epsilon 0 on
p-blocked circuits, ends with the blocked engine's blocks, the stabilizer
engine agrees with the dense state on Clifford circuits, and gives the
same marginal from the qubits a circuit touches when that circuit sits in
a register of thousands of idle qubits, and the blocked engine
agrees with the stabilizer engine on every marginal of wide Clifford
circuits that merge and split."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pblocksim.approx import (_EXACT_CANDIDATES, ApproxConfig, ErrorLedger,
                              PerturbedCircuit, Rotation, _rotation_matrix,
                              approx_step, nearest_exact_gate,
                              simulate_perturbed_floats)
from pblocksim import blocked
from pblocksim.blocked import (BlockedState, PBlockError, _conjugate_tiles,
                               _search_split, _tile_layout, advance,
                               apply_blocked, conjugate_block, init_blocked,
                               measurement_marginal, run_blocked_full,
                               split_exact)
from pblocksim.circuits import (LIBRARY, Circuit, CircuitError, CircuitStep,
                                GateDef, InputBlock, gen_block_local,
                                gen_entangle_disentangle, parse_circuit,
                                serialize_circuit)
from pblocksim.dense import dense_blockedness, dense_marginal, dense_run
from pblocksim.exact import I_UNIT, MINUS_ONE, ONE, ZERO, ExactScalar
from pblocksim.matrices import (DensityBlock, ExactMatrix, _placements,
                                _trace_layout, kron_blocks, mat_mul,
                                nonzero_map, reduced_state, target_offsets,
                                trace_norm_float)
from pblocksim.partitions import finest_factorization, rank_positions
from pblocksim.prng import CounterRng
from pblocksim.stabilizer import (StabilizerTableau, run_stabilizer,
                                  tableau_apply, tableau_marginal)

from helpers import (S_H_CNOT, all_partitions, brute_blockedness, combine,
                     brute_projection, density_from_statevector, full_amps,
                     full_gate, kron, kron_chain, product_of_marginals,
                     random_mixed_density, random_pure_density,
                     reduced_by_definition, reorder_bits)

# derandomized so that every run checks the same examples
PROPERTY = settings(deadline=None, derandomize=True)

GATES = sorted(LIBRARY.values(), key=lambda g: g.name)
GATES_1 = [g for g in GATES if g.arity == 1]
GATES_2 = [g for g in GATES if g.arity == 2]
CLIFFORDS = [g for g in GATES if g.name != "T"]
# short names, some of which shadow a library gate
NAMES = st.from_regex(r"[A-Z][A-Z0-9_]{0,3}", fullmatch=True)


def _targets(draw, width, arity):
    return tuple(draw(st.permutations(range(width)))[:arity])


@st.composite
def custom_gates(draw, pool=GATES, names=NAMES):
    """A named product of `pool` gates (kron pairs for two qubits)."""
    arity = draw(st.sampled_from([1, 2]))
    pool_1 = [g for g in pool if g.arity == 1]
    if arity == 1:
        factor = st.sampled_from([g.matrix for g in pool_1])
    else:
        pair = st.builds(lambda a, b: kron(a.matrix, b.matrix),
                         st.sampled_from(pool_1), st.sampled_from(pool_1))
        factor = st.one_of(st.sampled_from(
            [g.matrix for g in pool if g.arity == 2]), pair)
    factors = draw(st.lists(factor, min_size=1, max_size=3))
    matrix = factors[0]
    for nxt in factors[1:]:
        matrix = mat_mul(matrix, nxt)
    return GateDef(draw(names), arity, matrix)


@st.composite
def input_blocks(draw, labels):
    """A mixture of basis states with rational weights, rotated by a few
    library gates so that it has off-diagonal entries."""
    k = len(labels)
    dim = 1 << k
    weights = draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
                   .filter(any))
    total = sum(weights)
    entries = [ZERO] * (dim * dim)
    for i, w in enumerate(weights):
        entries[i * dim + i] = ExactScalar(Fraction(w, total))
    block = DensityBlock(tuple(range(k)), ExactMatrix(dim, dim, entries))
    pool = GATES_1 if k == 1 else GATES
    for gate in draw(st.lists(st.sampled_from(pool), max_size=3)):
        block = conjugate_block(block, gate,
                                _targets(draw, k, gate.arity))
    return InputBlock(labels, block.matrix)


@st.composite
def circuits(draw, max_width=5, custom=True):
    width = draw(st.integers(1, max_width))
    bits = draw(st.text("01", min_size=width, max_size=width))
    gates = GATES + (draw(st.lists(custom_gates(), max_size=3))
                     if custom else [])
    usable = [g for g in gates if g.arity <= width]
    steps = tuple(CircuitStep(g, _targets(draw, width, g.arity))
                  for g in draw(st.lists(st.sampled_from(usable),
                                         max_size=12)))
    blocks = []
    if custom:
        free = draw(st.permutations(range(width)))
        while free and draw(st.booleans()):
            size = draw(st.integers(1, min(2, len(free))))
            blocks.append(draw(input_blocks(tuple(free[:size]))))
            free = free[size:]
    return Circuit(width, bits, steps, draw(st.integers(0, width - 1)),
                   tuple(blocks))


@settings(PROPERTY, max_examples=150)
@given(circuits())
def test_serialize_parse_roundtrip(circuit):
    assert parse_circuit(serialize_circuit(circuit)) == circuit


# names a defgate line cannot carry
BAD_NAMES = st.sampled_from(["", "my gate", "a#b", "#", "x\ny", " X", "\t"])
FAULTS = st.sampled_from(
    [None, None, None, "repeat", "size", "trace", "hermitian", "negative"])


def _faulty_matrix(draw, fault, labels):
    """An input block's matrix on `labels`, made not a density of their
    size by `fault`."""
    k = len(labels)
    if fault == "size":
        k = draw(st.sampled_from([j for j in (1, 2, 3) if j != k]))
        labels = tuple(range(k))
    matrix = draw(input_blocks(labels)).matrix
    dim = 1 << k
    if fault == "trace":
        return combine((ExactScalar(2), matrix))
    if fault == "hermitian":  # entry (0, 1) no longer mirrors (1, 0)
        entries = list(matrix.entries)
        entries[1] = entries[1] + ONE
        return ExactMatrix(dim, dim, entries)
    if fault == "negative":  # trace 1 and Hermitian, but <1|M|1> < 0
        entries = list(matrix.entries)
        entries[0] = entries[0] + ExactScalar(2)
        entries[dim + 1] = entries[dim + 1] - ExactScalar(2)
        return ExactMatrix(dim, dim, entries)
    return matrix


def _build_circuit(width, bits, gate_args, steps, block_args, measured,
                   seq):
    """A circuit made part by part through the constructors; steps index
    the library gates and then the custom ones, and every sequence passed
    to a constructor is made by `seq` (tuple or list)."""
    gates = GATES + [GateDef(*args) for args in gate_args]
    return Circuit(width, bits,
                   seq(CircuitStep(gates[g], seq(t)) for g, t in steps),
                   measured, seq(InputBlock(seq(labels), matrix)
                                 for labels, matrix in block_args))


@st.composite
def circuit_parts(draw):
    """The arguments of `_build_circuit`, some parts invalid: a gate name a
    defgate line cannot carry, or an input block whose labels repeat or
    whose matrix is not a density of its size; and whether any is.  The
    sequences are tuples or lists."""
    width = draw(st.integers(1, 4))
    bits = draw(st.text("01", min_size=width, max_size=width))
    bad = False
    gate_args = []
    for gate in draw(st.lists(custom_gates(), max_size=2)):
        name = gate.name
        if draw(st.integers(0, 3)) == 3:
            name, bad = draw(BAD_NAMES), True
        gate_args.append((name, gate.arity, gate.matrix))
    arities = [g.arity for g in GATES] + [a for _, a, _ in gate_args]
    usable = [g for g, a in enumerate(arities) if a <= width]
    steps = tuple((g, _targets(draw, width, arities[g]))
                  for g in draw(st.lists(st.sampled_from(usable),
                                         max_size=8)))
    block_args = []
    free = draw(st.permutations(range(width)))
    while free and draw(st.booleans()):
        size = draw(st.integers(1, min(2, len(free))))
        labels, free = tuple(free[:size]), free[size:]
        fault = draw(FAULTS)
        matrix = _faulty_matrix(draw, fault, labels)
        if fault == "repeat":
            labels += labels[:1]
        block_args.append((labels, matrix))
        bad = bad or fault is not None
    measured = draw(st.integers(0, width - 1))
    seq = draw(st.sampled_from([tuple, list]))
    return (width, bits, tuple(gate_args), steps, tuple(block_args),
            measured, seq), bad


@settings(PROPERTY, max_examples=150)
@given(circuit_parts())
def test_parts_built_in_code_check_what_the_parser_checks(parts_and_bad):
    """A circuit built in code either fails as it is built, exactly when
    one of its parts is invalid, or reads back from its text, equal and
    with the same hash whether its parts were given as tuples or lists, and
    runs."""
    parts, bad = parts_and_bad
    if bad:
        with pytest.raises(CircuitError):
            _build_circuit(*parts)
        return
    circuit = _build_circuit(*parts)
    parsed = parse_circuit(serialize_circuit(circuit))
    assert parsed == circuit and hash(parsed) == hash(circuit)
    dist = run_blocked_full(circuit, circuit.width)[1]
    assert dist.p0 + dist.p1 == ONE


DIRECTIVES = st.sampled_from(
    ["qubits", "input", "gate", "defgate", "inputblock", "measure", "#", ""])
ARGS = st.sampled_from(
    ["H", "CNOT", "0", "1", "2", "3", "-1", "99", "01", "10", "0,1", "1,1",
     ",", "1/2", "1/0", "i", "r2", "-1/2*r2", "1+i", "x"])
LINES = st.builds(lambda head, args: " ".join([head] + args),
                  DIRECTIVES, st.lists(ARGS, max_size=3))


@st.composite
def mutated_texts(draw):
    """The text of a valid circuit with lines dropped, repeated or replaced."""
    lines = serialize_circuit(draw(circuits(max_width=3))).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["drop", "repeat", "replace", "insert"]))
        if op == "insert" or at == len(lines):
            lines.insert(at, draw(LINES))
        elif op == "drop":
            del lines[at]
        elif op == "repeat":
            lines.insert(at, lines[at])
        else:
            lines[at] = draw(LINES)
    return "\n".join(lines)


@settings(PROPERTY, max_examples=300)
@example("qubits 1\ndefgate G -1\n")
@example("qubits 1\ninputblock 0\n1" + "0" * 400 + " 0\n0 -" + "9" * 400)
@given(st.one_of(st.text(), st.lists(LINES, max_size=10).map("\n".join),
                 mutated_texts()))
def test_parser_raises_only_circuit_errors(text):
    try:
        circuit = parse_circuit(text)
    except CircuitError:
        return
    assert isinstance(circuit, Circuit)


@st.composite
def factored_circuits(draw):
    """Library-gate circuits of width <= 5; half of them keep every gate
    inside one part of a hidden partition, so the state factors."""
    circuit = draw(circuits(custom=False))
    if not draw(st.booleans()):
        return circuit
    order = draw(st.permutations(range(circuit.width)))
    parts = []
    while order:
        size = draw(st.integers(1, len(order)))
        parts.append(order[:size])
        order = order[size:]
    steps = []
    for _ in range(draw(st.integers(0, 12))):
        part = draw(st.sampled_from(parts))
        gate = draw(st.sampled_from(GATES if len(part) > 1 else GATES_1))
        steps.append(CircuitStep(gate, tuple(
            draw(st.permutations(part))[:gate.arity])))
    return Circuit(circuit.width, circuit.input_bits, tuple(steps))


# exact scalars with small components, zeros and the shared constants among
# them
_COMPONENTS = st.fractions(-4, 4, max_denominator=6)
EXACT_SCALARS = st.sampled_from([ZERO, ONE, MINUS_ONE, I_UNIT]) | \
    st.builds(ExactScalar, _COMPONENTS, _COMPONENTS, _COMPONENTS, _COMPONENTS)


@settings(PROPERTY, max_examples=200)
@given(EXACT_SCALARS)
def test_a_product_with_one_is_the_other_factor(x):
    assert ONE * x is x and x * ONE is x
    fresh = ExactScalar(1)
    assert fresh is not ONE
    assert fresh * x == x == x * fresh


@st.composite
def layout_shapes(draw):
    """A width of 1-6 bits and distinct positions in it, in any order."""
    width = draw(st.integers(1, 6))
    count = draw(st.integers(1, width))
    return width, tuple(draw(st.permutations(range(width)))[:count])


def _spread(width, positions, r):
    """Local index r on `width` bits: positions[j] carries bit n-1-j of r."""
    n = len(positions)
    return sum((r >> (n - 1 - j) & 1) << (width - 1 - p)
               for j, p in enumerate(positions))


def _gather(width, positions, index):
    """The local index that the bits of `index` at `positions` spell."""
    n = len(positions)
    return sum((index >> (width - 1 - p) & 1) << (n - 1 - j)
               for j, p in enumerate(positions))


@settings(PROPERTY, max_examples=150)
@given(layout_shapes())
def test_cached_layouts_are_their_definitions(shape):
    """Every index layout the blocked step reads is cached per shape, equals
    its definition bit by bit, and is a tuple that no caller can write."""
    k, positions = shape
    n = len(positions)
    local = range(1 << n)
    offsets = target_offsets(k, positions)
    assert offsets == tuple(_spread(k, positions, r) for r in local)
    assert target_offsets(k, positions) is offsets
    others = sum(1 << (k - 1 - q) for q in range(k) if q not in positions)
    g, tile_mask, spread = _tile_layout(k, positions)
    assert (g, tile_mask) == (1 << n, others << k | others)
    assert spread == tuple(_spread(k, positions, r) << k
                           | _spread(k, positions, c)
                           for r in local for c in local)
    kept = tuple(sorted(positions))
    traced_out, row_place, col_place = _trace_layout(k, kept)
    assert traced_out == others
    assert col_place == tuple(_gather(k, kept, i) for i in range(1 << k))
    assert row_place == tuple(_gather(k, kept, i) << n
                              for i in range(1 << k))
    place = _placements(k, positions)
    assert place == tuple(_spread(k, positions, e >> n) << k
                          | _spread(k, positions, e & ((1 << n) - 1))
                          for e in range(1 << 2 * n))
    for layout in (offsets, spread, row_place, col_place, place):
        assert type(layout) is tuple


@st.composite
def tensor_factors(draw):
    """2-3 random pure or mixed blocks of 1-3 qubits whose labels interleave
    at random, and a random label order for their product."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    width = sum(sizes)
    shuffled = draw(st.permutations(range(width)))
    seed = draw(st.integers(0, 1 << 16))
    blocks = []
    for i, size in enumerate(sizes):
        make = draw(st.sampled_from([random_pure_density,
                                     random_mixed_density]))
        matrix = make(CounterRng(seed, f"factor {i}"), size).matrix
        start = sum(sizes[:i])
        blocks.append(DensityBlock(shuffled[start:start + size], matrix))
    return blocks, tuple(draw(st.permutations(range(width))))


@settings(PROPERTY, max_examples=40)
@given(tensor_factors())
def test_kron_blocks_lays_factors_out_in_label_order(case):
    blocks, labels = case
    product = kron_blocks(blocks, labels)
    assert product.labels == labels
    assert product.matrix == kron_chain(blocks, labels).matrix
    for block in blocks:
        reduced = reduced_by_definition(product, block.labels)
        assert reduced.matrix == reorder_bits(block.matrix, block.labels,
                                              reduced.labels)


# unit amplitudes of a sparse pure block
_UNIT_AMPLITUDES = (ONE, MINUS_ONE, I_UNIT, -I_UNIT,
                    LIBRARY["T"].matrix.at(1, 1))


@st.composite
def traced_blocks(draw):
    """A pure, mixed or sparse block of 1-4 qubits on scattered labels in
    any order, and a nonempty set of its labels to keep, in any order.  A
    sparse block is a pure block with 1-3 unit amplitudes whose zero entries
    are each a fresh zero, not the shared ZERO."""
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["pure", "mixed", "sparse"]))
    rng = CounterRng(draw(st.integers(0, 1 << 16)), "traced block")
    if kind == "pure":
        matrix = random_pure_density(rng, k).matrix
    elif kind == "mixed":
        matrix = random_mixed_density(rng, k, terms=2).matrix
    else:
        support = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1,
                                max_size=3, unique=True))
        amps = [ZERO] * (1 << k)
        for i in support:
            amps[i] = draw(st.sampled_from(_UNIT_AMPLITUDES))
        dense = combine((ExactScalar(Fraction(1, len(support))),
                         density_from_statevector(amps)))
        matrix = ExactMatrix(dense.rows, dense.cols,
                             [ExactScalar(0) if x.is_zero() else x
                              for x in dense.entries])
    labels = draw(st.lists(st.integers(0, 20), min_size=k, max_size=k,
                           unique=True))
    keep = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=k,
                         unique=True))
    return DensityBlock(labels, matrix), keep


def _reduced(block: DensityBlock, keep) -> DensityBlock:
    """`reduced_state` of a block on the kept labels."""
    return reduced_state(block.labels, block.nonzeros,
                         [block.labels.index(q) for q in keep])


@settings(PROPERTY, max_examples=100)
@given(traced_blocks())
def test_partial_trace_is_the_reduced_state_by_definition(case):
    block, keep = case
    got = _reduced(block, keep)
    want = reduced_by_definition(block, keep)
    assert (got.labels, got.matrix) == (want.labels, want.matrix)


@st.composite
def conjugations(draw):
    """A library gate or S_H_CNOT, a block it fits on and targets in any
    order: a random mixed block of 1-3 qubits, or a pure block of up to 6
    qubits with 1-4 nonzero amplitudes, on scattered labels."""
    gate = draw(st.sampled_from(GATES + [S_H_CNOT]))
    if draw(st.booleans()):
        k = draw(st.integers(gate.arity, 3))
        rng = CounterRng(draw(st.integers(0, 1 << 16)), "conjugations")
        matrix = random_mixed_density(rng, k).matrix
    else:
        k = draw(st.integers(gate.arity, 6))
        support = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1,
                                max_size=4, unique=True))
        amps = [ZERO] * (1 << k)
        for i in support:
            amps[i] = draw(st.sampled_from(_UNIT_AMPLITUDES))
        matrix = combine((ExactScalar(Fraction(1, len(support))),
                          density_from_statevector(amps)))
    labels = tuple(draw(st.lists(st.integers(0, 20), min_size=k, max_size=k,
                                 unique=True)))
    return DensityBlock(labels, matrix), gate, _targets(draw, k, gate.arity)


def _mixed_pair(labels):
    return DensityBlock(labels, random_mixed_density(
        CounterRng(3, "mixed pair"), len(labels)).matrix)


@settings(PROPERTY, max_examples=150)
@example((_mixed_pair((5, 2)), S_H_CNOT, (0, 1)))
@example((_mixed_pair((5, 2)), S_H_CNOT, (1, 0)))
@example((_mixed_pair((7,)), LIBRARY["H"], (0,)))
@given(conjugations())
def test_conjugate_block_is_the_full_gate_conjugation(case):
    """Targets index the block's labels; the gates of the examples cover
    the whole block, in and against the labels' order."""
    block, gate, at = case
    targets = tuple(block.labels[i] for i in at)
    full = full_gate(gate.matrix, block.labels, targets)
    want = mat_mul(mat_mul(full, block.matrix), full.dagger())
    got = conjugate_block(block, gate, targets)
    assert got.labels == block.labels
    assert got.matrix == want


# the library gates that permute the basis states with entries 1
PERMUTATIONS = [g for g in GATES if g.name in ("CNOT", "I", "SWAP", "X")]


def _permutation_gate(image, sign=None) -> GateDef:
    """The defgate G|c> = |image[c]>, its entry in column `sign` -1."""
    dim = len(image)
    entries = [ZERO] * (dim * dim)
    for c, r in enumerate(image):
        entries[r * dim + c] = MINUS_ONE if c == sign else ONE
    return GateDef("P", dim.bit_length() - 1, ExactMatrix(dim, dim, entries))


@st.composite
def permuted_blocks(draw):
    """A library permutation gate or a random permutation defgate of arity
    1 or 2, and a block of 1-5 qubits it fits on, on scattered labels, with
    targets in any order: a random mixed density or a pure one with 1-4
    nonzero amplitudes."""
    if draw(st.booleans()):
        gate = draw(st.sampled_from(PERMUTATIONS))
    else:
        arity = draw(st.sampled_from([1, 2]))
        gate = _permutation_gate(draw(st.permutations(range(1 << arity))))
    k = draw(st.integers(gate.arity, 5))
    if draw(st.booleans()):
        rng = CounterRng(draw(st.integers(0, 1 << 16)), "permuted_blocks")
        matrix = random_mixed_density(rng, k, terms=2).matrix
    else:
        support = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1,
                                max_size=4, unique=True))
        amps = [ZERO] * (1 << k)
        for i in support:
            amps[i] = draw(st.sampled_from(_UNIT_AMPLITUDES))
        matrix = combine((ExactScalar(Fraction(1, len(support))),
                          density_from_statevector(amps)))
    labels = tuple(draw(st.lists(st.integers(0, 20), min_size=k, max_size=k,
                                 unique=True)))
    return DensityBlock(labels, matrix), gate, _targets(draw, k, gate.arity)


@settings(PROPERTY, max_examples=150)
@example((_mixed_pair((5, 2)), LIBRARY["CNOT"], (1, 0)))
@example((_mixed_pair((5, 2)), LIBRARY["SWAP"], (0, 1)))
@example((_mixed_pair((5, 2)), LIBRARY["X"], (1,)))
@example((_mixed_pair((7,)), LIBRARY["I"], (0,)))
@example((_mixed_pair((5, 2)), _permutation_gate((3, 0, 1, 2)), (0, 1)))
@given(permuted_blocks())
def test_a_permutation_gate_relabels_what_its_tiles_give(case):
    """A permutation gate moves each nonzero entry to its image, and the
    map that gives is exactly the tile path's, value for value."""
    block, gate, at = case
    assert gate.permutation() is not None
    got = conjugate_block(block, gate, tuple(block.labels[i] for i in at))
    want = _conjugate_tiles(block, gate, at)
    assert (got.labels, got.nonzeros) == (want.labels, want.nonzeros)


@settings(PROPERTY, max_examples=60)
@given(st.sampled_from([1, 2]), st.data())
def test_a_permutation_is_derived_only_from_entries_one(arity, data):
    """permutation() is the image of each column for a permutation matrix
    of ones, and None once one of its entries is -1; every derived form is
    a tuple, derived once."""
    image = tuple(data.draw(st.permutations(range(1 << arity))))
    assert _permutation_gate(image).permutation() == image
    sign = data.draw(st.integers(0, len(image) - 1))
    assert _permutation_gate(image, sign).permutation() is None
    assert {g.name for g in GATES if g.permutation() is not None} \
        == {g.name for g in PERMUTATIONS}
    for gate in GATES:
        for derived in (gate.nonzero_rows, gate.complex_rows):
            assert isinstance(derived(), tuple)
            assert derived() is derived()
        assert gate.complex_rows() == tuple(
            map(tuple, gate.matrix.to_complex_rows()))


@st.composite
def mapped_blocks(draw):
    """A pure, mixed or sparse block as `traced_blocks` draws it, given as
    its nonzero map the way a run holds it, with labels to keep and a gate
    that fits on it with targets in any order."""
    dense, keep = draw(traced_blocks())
    k = len(dense.labels)
    gate = draw(st.sampled_from(GATES if k > 1 else GATES_1))
    targets = tuple(dense.labels[i] for i in _targets(draw, k, gate.arity))
    return (DensityBlock(dense.labels, nonzeros=nonzero_map(dense.matrix)),
            keep, gate, targets)


def _sparse_block(labels, amps):
    dense = combine((ExactScalar(Fraction(1, sum(1 for a in amps if a))),
                     density_from_statevector(amps)))
    return DensityBlock(labels, nonzeros=nonzero_map(dense))


def _map_and_view(block: DensityBlock) -> ExactMatrix:
    """Check the map a block holds, which its first `matrix` read drops:
    no zero value and no key outside its 4^k entries, and exactly the
    nonzero entries of the view; return the view."""
    nonzeros = dict(block.nonzeros)
    dim = 1 << len(block.labels)
    assert not any(x.is_zero() for x in nonzeros.values())
    assert all(0 <= e < dim * dim for e in nonzeros)
    view = block.matrix
    assert nonzeros == nonzero_map(view)
    return view


# H turns |+><+| into |0><0| through sums that cancel to fresh zeros, and
# CZ turns |++> into CZ|++>, whose marginals' off-diagonal sums cancel
@settings(PROPERTY, max_examples=150)
@example((_sparse_block((4,), [ONE, ONE]), [4], LIBRARY["H"], (4,)))
@example((_sparse_block((2, 7), [ONE, ONE, ONE, ONE]), [7],
          LIBRARY["CZ"], (7, 2)))
@given(mapped_blocks())
def test_block_maps_hold_only_nonzero_entries(case):
    """Gates, merges and partial traces give blocks whose maps hold only
    nonzero entries, with views equal to the dense reference, and a block
    whose view was read turns under the next gate as one never read."""
    block, keep, gate, targets = case
    full = full_gate(gate.matrix, block.labels, targets)
    turned = conjugate_block(block, gate, targets)
    unread = conjugate_block(turned, gate, targets)
    assert _map_and_view(turned) == \
        mat_mul(mat_mul(full, block.matrix), full.dagger())
    read = conjugate_block(turned, gate, targets)
    assert _map_and_view(read) == _map_and_view(unread)
    kept = _reduced(turned, keep)
    assert _map_and_view(kept) == reduced_by_definition(turned, keep).matrix
    rest = [q for q in turned.labels if q not in keep]
    parts = [kept] + ([_reduced(turned, rest)] if rest else [])
    merged = kron_blocks(parts, turned.labels)
    assert _map_and_view(merged) == kron_chain(parts, turned.labels).matrix


@st.composite
def products_with_fresh_zeros(draw):
    """Two matrices of compatible shapes whose entries are units that
    cancel in sums, the shared ZERO or fresh zeros."""
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    entry = st.sampled_from([ZERO, ONE, MINUS_ONE, I_UNIT]) | \
        st.builds(ExactScalar, st.just(0))
    return tuple(ExactMatrix(r, c, draw(st.lists(entry, min_size=r * c,
                                                 max_size=r * c)))
                 for r, c in ((rows, inner), (inner, cols)))


@settings(PROPERTY, max_examples=100)
@given(products_with_fresh_zeros())
def test_mat_mul_is_the_plain_triple_loop(case):
    a, b = case
    want = [ExactScalar(0)] * (a.rows * b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            for t in range(a.cols):
                want[i * b.cols + j] = want[i * b.cols + j] + \
                    a.at(i, t) * b.at(t, j)
    got = mat_mul(a, b)
    assert (got.rows, got.cols, got.entries) == (a.rows, b.cols, want)


@settings(PROPERTY, max_examples=100)
@given(circuits(custom=False))
def test_dense_state_is_the_nonzero_part_of_the_full_vector(circuit):
    """The dense engine's map is the basis vector evolved by full-width
    gate matrices, restricted to its nonzero entries: no nonzero is lost
    and no zero is stored."""
    labels = tuple(range(circuit.width))
    dim = 1 << circuit.width
    entries = [ZERO] * dim
    entries[int(circuit.input_bits, 2)] = ONE
    vector = ExactMatrix(dim, 1, entries)
    for step in circuit.steps:
        vector = mat_mul(full_gate(step.gate.matrix, labels, step.targets),
                         vector)
    amps = dense_run(circuit).amps
    assert not any(a.is_zero() for a in amps.values())
    assert amps == {i: a for i, a in enumerate(vector.entries)
                    if not a.is_zero()}


@settings(PROPERTY, max_examples=40)
@given(factored_circuits())
def test_dense_blockedness_matches_brute_force(circuit):
    state = dense_run(circuit)
    for p in range(1, circuit.width + 1):
        assert dense_blockedness(state, p) == \
            brute_blockedness(full_amps(state), circuit.width, p)


@st.composite
def entangling_circuits(draw):
    """Library circuits of width 2-5 with 1-12 gates.  Two moves in three
    are H on a qubit and then a two-qubit gate from it, which entangles
    when that gate is CNOT or CZ; so about one run in six aborts."""
    width = draw(st.integers(2, 5))
    bits = draw(st.text("01", min_size=width, max_size=width))
    count = draw(st.integers(1, 12))
    steps = []
    while len(steps) < count:
        if draw(st.integers(0, 2)):
            a, b = _targets(draw, width, 2)
            steps += [CircuitStep(LIBRARY["H"], (a,)),
                      CircuitStep(draw(st.sampled_from(GATES_2)), (a, b))]
        else:
            gate = draw(st.sampled_from(GATES))
            steps.append(CircuitStep(gate, _targets(draw, width, gate.arity)))
    return Circuit(width, bits, tuple(steps[:count]))


@settings(PROPERTY, max_examples=100)
@given(entangling_circuits())
def test_blocked_aborts_iff_a_prefix_is_not_p_blocked(circuit):
    """At every p, `run_blocked_full` raises PBlockError at the first step
    whose state is not p-blocked, by the dense decider, and otherwise ends
    with the dense engine's density exactly."""
    states = []
    for j in range(len(circuit.steps)):
        states.append(dense_run(Circuit(circuit.width, circuit.input_bits,
                                        circuit.steps[:j + 1])))
    for p in range(1, circuit.width + 1):
        failing = [j for j, state in enumerate(states)
                   if dense_blockedness(state, p) is None]
        try:
            blocked, _ = run_blocked_full(circuit, p)
        except PBlockError as err:
            assert failing and err.step_index == failing[0]
            continue
        assert not failing
        assert max(len(b.labels) for b in blocked.assignment) <= p
        assert blocked.global_density().matrix == \
            density_from_statevector(full_amps(states[-1]))


# H on the first target, then CNOT: a Bell pair from any two basis qubits
H_CNOT = GateDef("HCX", 2, mat_mul(LIBRARY["CNOT"].matrix,
                                   kron(LIBRARY["H"].matrix,
                                        LIBRARY["I"].matrix)))


def _version(state):
    """Everything a blocked state holds, by value: each qubit's block."""
    return [(b.labels, b.matrix.entries) for b in state.assignment]


# every way to read a blocked state or to advance from it
READS = (lambda s: s.assignment, lambda s: s.blocks,
         lambda s: s.block_of(0),
         lambda s: apply_blocked(s, CircuitStep(H_CNOT, (0, 1)), 2))


@settings(PROPERTY, max_examples=40)
@given(st.sampled_from([gen_block_local, gen_entangle_disentangle]),
       st.integers(2, 8), st.integers(1, 3), st.integers(10, 60),
       st.integers(0, 1 << 16))
def test_only_the_newest_version_reads(generate, width, p, steps, seed):
    """A run hands one state forward: after each step the newest version
    equals the state a fresh run reaches after the same prefix, and every
    earlier version raises on each read and on an advance, which leaves
    the newest one as it was."""
    p = min(p, width)
    circuit = generate(width, p, steps, seed)
    want = [_version(init_blocked(circuit))]
    state = init_blocked(circuit)
    for j, step in enumerate(circuit.steps):
        state = apply_blocked(state, step, p, j)
        want.append(_version(state))

    versions = [init_blocked(circuit)]
    for j, step in enumerate(circuit.steps):
        versions.append(apply_blocked(versions[-1], step, p, j))
        assert _version(versions[-1]) == want[j + 1]
        assert max(len(b.labels) for b in versions[-1].assignment) <= p
    for old in versions[:-1]:
        for read in READS:
            with pytest.raises(RuntimeError, match="advanced"):
                read(old)
    assert _version(versions[-1]) == want[-1]


def _correlated_density(qubits: int) -> ExactMatrix:
    """(|0...0><0...0| + |1...1><1...1|) / 2: classically correlated, so
    mixed, and no qubit of it splits off."""
    dim = 1 << qubits
    entries = [ZERO] * (dim * dim)
    entries[0] = entries[-1] = ExactScalar(Fraction(1, 2))
    return ExactMatrix(dim, dim, entries)


@st.composite
def factored_blocks(draw):
    """A block of 2-4 qubits on scattered labels: the product of 1-3 pure,
    mixed or classically correlated factors of 1-3 qubits, whose labels
    interleave at random."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                 .filter(lambda sizes: 2 <= sum(sizes) <= 4))
    labels = draw(st.lists(st.integers(0, 20), min_size=sum(sizes),
                           max_size=sum(sizes), unique=True))
    seed = draw(st.integers(0, 1 << 16))
    factors = []
    for i, size in enumerate(sizes):
        kind = draw(st.sampled_from(["pure", "mixed", "correlated"]))
        rng = CounterRng(seed, f"factor {i}")
        if kind == "pure":
            matrix = random_pure_density(rng, size).matrix
        elif kind == "mixed":
            matrix = random_mixed_density(rng, size, terms=2).matrix
        else:
            matrix = _correlated_density(size)
        start = sum(sizes[:i])
        factors.append(DensityBlock(labels[start:start + size], matrix))
    return kron_chain(factors, tuple(draw(st.permutations(labels))))


@settings(PROPERTY, max_examples=80)
@given(factored_blocks())
def test_split_exact_matches_brute_force(block):
    """At every p, `split_exact` returns the reduced states of the first
    partition, finest first, whose product of fresh marginals is the block,
    and raises PBlockError when there is none."""
    candidates = sorted((sorted(parts) for parts in
                         all_partitions(block.labels, len(block.labels))),
                        key=lambda parts: (-len(parts), parts))
    verdicts = {}

    def exact(parts):
        key = tuple(parts)
        if key not in verdicts:
            verdicts[key] = \
                product_of_marginals(block, parts).matrix == block.matrix
        return verdicts[key]

    for p in range(1, len(block.labels) + 1):
        want = next((parts for parts in candidates
                     if max(map(len, parts)) <= p and exact(parts)), None)
        try:
            got = split_exact(block, p)
        except PBlockError:
            assert want is None
            continue
        assert want is not None
        assert [(b.labels, b.matrix) for b in got] == \
            [(r.labels, r.matrix) for r in
             (reduced_by_definition(block, part) for part in want)]


@st.composite
def one_entry_blocks(draw):
    """A block of 2-6 qubits on sorted or scattered labels whose map is one
    entry: the basis state |x><x| in half the draws, else an off-diagonal
    entry or a diagonal one other than 1; and a p from 1 to k - 1."""
    k = draw(st.integers(2, 6))
    labels = draw(st.lists(st.integers(0, 40), min_size=k, max_size=k,
                           unique=True))
    if draw(st.booleans()):
        labels.sort()
    row = draw(st.integers(0, (1 << k) - 1))
    col, value = row, ONE
    if draw(st.booleans()):
        col = draw(st.integers(0, (1 << k) - 1))
        value = draw(st.sampled_from([ONE, MINUS_ONE, I_UNIT,
                                      ExactScalar(Fraction(1, 2))]))
    block = DensityBlock(labels, nonzeros={row << k | col: value})
    return block, draw(st.integers(1, k - 1))


@settings(PROPERTY, max_examples=150)
@given(one_entry_blocks())
def test_a_basis_state_splits_into_the_shared_start_blocks(case):
    """A basis state splits as the search does, into the same labels, maps
    and order, and each part is the very block a start state holds for that
    qubit and bit; any other one-entry map goes through the search."""
    block, p = case
    got = split_exact(block, p)
    want = _search_split(block, p, -1)
    assert [(b.labels, b.nonzeros) for b in got] == \
        [(b.labels, b.nonzeros) for b in want]
    [(e, value)] = block.nonzeros.items()
    k = len(block.labels)
    if e >> k == e & (1 << k) - 1 and value == ONE:
        bits = ["0"] * (max(block.labels) + 1)
        for j, q in enumerate(block.labels):
            bits[q] = str(e >> (2 * k - 1 - j) & 1)
        start = init_blocked(Circuit(len(bits), "".join(bits), ()))
        assert all(b is start.block_of(b.labels[0]) for b in got)
    else:
        shared = blocked._BASIS_BLOCKS["0"] + blocked._BASIS_BLOCKS["1"]
        assert not any(b is s for b in got for s in shared)


@settings(PROPERTY, max_examples=150)
@given(st.sampled_from([gen_block_local, gen_entangle_disentangle]),
       st.integers(4, 12), st.integers(2, 3), st.integers(30, 60),
       st.integers(0, 1 << 16))
def test_finest_factorization_is_the_blocked_split(generate, width, p, steps,
                                                   seed):
    """On every block a blocked run splits, at every p up to the one the
    circuit was made for, the finest-factorization search over the block's
    nonzero map, the label of rank r owning the row and column bits of its
    position, gives the parts `split_exact` returns, and None exactly where
    `split_exact` raises PBlockError."""
    circuit = generate(width, p, steps, seed)

    def checked_split(block, run_p):
        k = len(block.labels)
        ranked = sorted(block.labels)
        masks = [m << k | m for m in
                 (target_offsets(k, (j,))[-1]
                  for j in rank_positions(block.labels))]
        want = finest_factorization(block.nonzeros, masks, run_p)
        try:
            got = split_exact(block, run_p)
        except PBlockError:
            assert want is None
            raise
        assert want is not None
        assert [tuple(sorted(b.labels)) for b in got] == \
            [tuple(ranked[r] for r in part) for part in want]
        return got

    for run_p in range(1, p + 1):
        state = init_blocked(circuit)
        try:
            for step in circuit.steps:
                state = advance(state, step, run_p,
                                lambda block: checked_split(block, run_p))
        except PBlockError:
            pass


@settings(PROPERTY, max_examples=60)
@given(circuits())
def test_float_reference_matches_exact_dense(circuit):
    """With no rotations, the float reference's marginals are the exact
    dense engine's, as floats, for every measured qubit: one kernel serves
    complex and exact amplitudes, for library gates in both target orders
    and for defgates."""
    state = dense_run(Circuit(circuit.width, circuit.input_bits,
                              circuit.steps))
    for qubit in range(circuit.width):
        got = simulate_perturbed_floats(PerturbedCircuit(
            circuit.width, circuit.input_bits, circuit.steps, qubit))
        want = dense_marginal(state, qubit).floats()
        assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))


PAULI_PAIRS = [a + b for a in "XYZ" for b in "XYZ"]


@settings(PROPERTY, max_examples=400)
@example("ZZ", 0.0)
@example("XY", 0.2)
@example("YX", math.pi / 2)
@example("ZX", 3.0)       # cos < 0: CNOT, CZ and SWAP tie
@example("YY", -math.pi)
@given(st.sampled_from(PAULI_PAIRS), st.floats(-math.pi, math.pi))
def test_nearest_exact_gate_is_the_frobenius_argmin(pauli, theta):
    """The closed form picks the candidate that the 16-entry distances
    rank first, wherever the two smallest differ by more than rounding
    could, and it picks the identity whenever cos(theta) > 0."""
    got = nearest_exact_gate(Rotation(pauli, theta, (0, 1)))
    rot = _rotation_matrix(pauli, theta)
    ranked = sorted(
        (math.fsum(abs(g - r) ** 2
                   for grow, rrow in zip(gate.complex_rows(), rot)
                   for g, r in zip(grow, rrow)), k, gate)
        for k, gate in enumerate(_EXACT_CANDIDATES))
    (first, _, nearest), (second, _, _) = ranked[:2]
    if second - first > 1e-9 * second:
        assert got is nearest
    if math.cos(theta) > 0:
        assert got.name == "II"


@st.composite
def sparse_hermitian(draw):
    """An exact Hermitian matrix of dimension 2-32, its zeros the shared
    ZERO, and its twin with a fresh zero scalar in each of those places."""
    dim = draw(st.integers(2, 32))
    entries = [ZERO] * (dim * dim)
    for _ in range(draw(st.integers(1, 2 * dim))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        x = draw(EXACT_SCALARS)
        if i == j:
            x = ExactScalar(x.a, 0, x.c)
        entries[i * dim + j], entries[j * dim + i] = x, x.conjugate()
    fresh = [ExactScalar(0) if x is ZERO else x for x in entries]
    return ExactMatrix(dim, dim, entries), ExactMatrix(dim, dim, fresh)


@settings(PROPERTY, max_examples=40)
@given(sparse_hermitian())
def test_trace_norm_reads_the_shared_zero_as_its_conversion(case):
    """Skipping the shared ZERO's conversion changes no float: the complex
    rows match to the sign of each zero, and the trace norm is the same
    float as the one that converts every entry."""
    shared, fresh = case
    assert repr(shared.to_complex_rows()) == repr(fresh.to_complex_rows())
    assert trace_norm_float(shared) == trace_norm_float(fresh)


@st.composite
def block_states(draw, labels):
    """On `labels`: the state of a random circuit with entangling gates, or
    on at most two labels a random mixed density.  (A wider mixed block fills
    the merge with long rationals: merged into 5 qubits at p = 2, a 3-qubit
    one costs ~4 s for the reference and the engine together.  The examples
    of the projection property cover 3-qubit mixed blocks instead.)"""
    k = len(labels)
    if k <= 2 and draw(st.booleans()):
        rng = CounterRng(draw(st.integers(0, 1 << 16)), "block_states")
        return DensityBlock(labels, random_mixed_density(rng, k).matrix)
    dim = 1 << k
    entries = [ZERO] * (dim * dim)
    basis = draw(st.integers(0, dim - 1))
    entries[basis * dim + basis] = ONE
    block = DensityBlock(range(k), ExactMatrix(dim, dim, entries))
    usable = [g for g in GATES if g.arity <= k]
    for gate in draw(st.lists(st.sampled_from(usable), max_size=6)):
        block = conjugate_block(block, gate,
                                _targets(draw, k, gate.arity))
    return DensityBlock(labels, block.matrix)


@st.composite
def merging_steps(draw):
    """p = 1 or 2, the width and two blocks that cover it, and a two-qubit
    gate across them that merges them into a block of 3 to 5 qubits.  The
    blocks, not a state, so that each run builds its own state from them.
    Five only at p = 1: at p = 2 a 5-qubit block has 26 candidate products,
    each scored by an exact difference and an eigensolve of dimension 32:
    ~1.5 s per example for the reference and the engine together.  One
    example covers that case."""
    p = draw(st.integers(1, 2))
    width = draw(st.integers(3, 5 if p == 1 else 4))
    order = draw(st.permutations(range(width)))
    cut = draw(st.integers(1, width - 1))
    first, second = tuple(order[:cut]), tuple(order[cut:])
    blocks = [draw(block_states(first)), draw(block_states(second))]
    targets = (draw(st.sampled_from(first)), draw(st.sampled_from(second)))
    if draw(st.booleans()):
        targets = targets[::-1]
    step = CircuitStep(draw(st.sampled_from(GATES_2)), targets)
    return (width, blocks), step, p


def _blocked_state(width, blocks) -> BlockedState:
    """The state whose blocks, which cover the qubits, are `blocks`."""
    assignment = [None] * width
    for block in blocks:
        for q in block.labels:
            assignment[q] = block
    return BlockedState(width, assignment)


def _prepared(labels, gates) -> DensityBlock:
    """|0...0><0...0| on `labels`, conjugated by (gate name, targets) pairs."""
    dim = 1 << len(labels)
    entries = [ZERO] * (dim * dim)
    entries[0] = ONE
    block = DensityBlock(labels, ExactMatrix(dim, dim, entries))
    for name, targets in gates:
        block = conjugate_block(block, LIBRARY[name], targets)
    return block


def _mixed_merge(p):
    """A mixed 3-qubit block and a mixed qubit, merged into 4 qubits."""
    return ((4, [
        DensityBlock((2, 0, 3), random_mixed_density(
            CounterRng(1, "mixed merge"), 3).matrix),
        DensityBlock((1,), random_mixed_density(
            CounterRng(2, "mixed merge"), 1).matrix)]),
        CircuitStep(LIBRARY["CNOT"], (1, 3)), p)


# entangled 2- and 3-qubit blocks with T phases, merged at p = 2 into a
# dense 5-qubit block
FIVE_QUBIT_MERGE = ((5, [
    _prepared((0, 2), [("H", (0,)), ("CNOT", (0, 2)), ("H", (2,)),
                       ("T", (2,))]),
    _prepared((1, 3, 4), [("H", (1,)), ("CNOT", (1, 3)), ("H", (4,)),
                          ("T", (4,)), ("CNOT", (4, 3)), ("S", (1,)),
                          ("H", (3,))])]),
    CircuitStep(LIBRARY["CNOT"], (2, 4)), 2)


# Bell pairs on (0, 2) and (1, 3), swapped by SWAP 0 3 into a product over
# {0,1}{2,3}: seven inexact partitions come first, two follow unscored
SWAPPED_PAIRS = ((4, [
    _prepared((0, 2), [("H", (0,)), ("CNOT", (0, 2))]),
    _prepared((1, 3), [("H", (1,)), ("CNOT", (1, 3))])]),
    CircuitStep(LIBRARY["SWAP"], (0, 3)), 2)


def test_approx_projection_matches_brute_force():
    distances = []

    @settings(PROPERTY, max_examples=60)
    @example(_mixed_merge(1))
    @example(_mixed_merge(2))
    @example(FIVE_QUBIT_MERGE)
    @example(SWAPPED_PAIRS)
    @given(merging_steps())
    def check(case):
        (width, blocks), step, p = case
        # the shared transition at p = width never splits; it and the
        # approx step each advance a state of their own
        merged = advance(_blocked_state(width, blocks), step, width,
                         None).block_of(step.targets[0])
        want_d, want_parts = brute_projection(merged, p)
        ledger = ErrorLedger(p, 0.0)
        out = approx_step(_blocked_state(width, blocks), step,
                          ApproxConfig(p, 0.0), ledger)
        assert ledger.entries[-1].d == want_d
        installed = {out.block_of(q) for q in merged.labels}
        assert sorted((b.labels, b.matrix.entries) for b in installed) == \
            sorted((r.labels, r.matrix.entries) for r in
                   (reduced_by_definition(merged, part)
                    for part in want_parts))
        distances.append(want_d)

    check()
    assert any(d > 0 for d in distances)


@settings(PROPERTY, max_examples=60)
@given(st.sampled_from([gen_block_local, gen_entangle_disentangle]),
       st.integers(2, 6), st.integers(1, 2), st.integers(0, 24),
       st.integers(0, 1 << 16))
def test_approx_at_epsilon_0_is_blocked_on_p_blocked_circuits(
        generate, width, p, steps, seed):
    """On a circuit whose states stay p-blocked, approx with epsilon = 0
    records d = 0 at every step and ends with the same blocks as `blocked`:
    the first exact product it finds is the finest split."""
    circuit = generate(width, p, steps, seed)
    want, _ = run_blocked_full(circuit, p)
    cfg = ApproxConfig(p, 0.0)
    ledger = ErrorLedger(p, 0.0)
    state = init_blocked(circuit)
    for step in circuit.steps:
        state = approx_step(state, step, cfg, ledger)
    assert all(entry.d == 0.0 for entry in ledger.entries)

    def by_labels(s):
        return sorted((b.labels, b.matrix.entries) for b in s.blocks.values())

    assert by_labels(state) == by_labels(want)


@st.composite
def clifford_circuits(draw):
    """Circuits of width <= 5 over the library's Clifford gates and products
    of them, under fresh names and under the library's own names."""
    width = draw(st.integers(1, 5))
    bits = draw(st.text("01", min_size=width, max_size=width))
    names = st.one_of(NAMES, st.sampled_from(sorted(LIBRARY)))
    gates = CLIFFORDS + draw(st.lists(custom_gates(CLIFFORDS, names),
                                      max_size=3))
    usable = [g for g in gates if g.arity <= width]
    steps = tuple(CircuitStep(g, _targets(draw, width, g.arity))
                  for g in draw(st.lists(st.sampled_from(usable),
                                         max_size=20)))
    return Circuit(width, bits, steps)


# S_H_CNOT both ways round, on adjacent and on distant qubits
BOTH_ORDERS = Circuit(3, "010", tuple(
    CircuitStep(gate, targets) for gate, targets in
    [(LIBRARY["H"], (0,)), (S_H_CNOT, (0, 1)), (S_H_CNOT, (1, 0)),
     (LIBRARY["H"], (2,)), (S_H_CNOT, (2, 0)), (S_H_CNOT, (0, 2))]))


_I_POWERS = (ONE, I_UNIT, MINUS_ONE, -I_UNIT)


def _pauli_fixes(gen, amps, width) -> bool:
    """gen = i^phase X^x Z^z maps the state to itself; tableau bit q is
    qubit q, which is index bit width-1-q of the dense state."""
    def index_mask(mask):
        return sum(1 << (width - 1 - q) for q in range(width) if mask >> q & 1)

    x, z = index_mask(gen.x_mask), index_mask(gen.z_mask)
    image = [ZERO] * len(amps)
    for c, amp in enumerate(amps):
        sign = 2 * (z & c).bit_count()
        image[c ^ x] = _I_POWERS[(gen.phase + sign) & 3] * amp
    return image == amps


@settings(PROPERTY, max_examples=120)
@example(BOTH_ORDERS)
@given(clifford_circuits())
def test_stabilizer_matches_dense_on_clifford_circuits(circuit):
    tableau = StabilizerTableau(circuit.width, circuit.input_bits)
    for step in circuit.steps:
        tableau = tableau_apply(tableau, step)
    tableau.check_invariants()
    state = dense_run(circuit)
    for gen in tableau.generators:
        assert _pauli_fixes(gen, full_amps(state), circuit.width), gen
    for q in range(circuit.width):
        assert tableau_marginal(tableau, q).exact_eq(
            dense_marginal(state, q))


@settings(PROPERTY, max_examples=80)
@given(clifford_circuits(), st.data())
def test_stabilizer_holds_only_the_touched_qubits(circuit, data):
    """A Clifford circuit placed in a register of up to 3000 qubits by a
    random injective qubit map, with random bits on the idle qubits, gives
    exactly the compact circuit's marginal, which is the dense one; a
    measured qubit that no gate touches gives its input bit."""
    k = circuit.width
    width = data.draw(st.integers(k, 3000), label="width")
    where = data.draw(st.lists(st.integers(0, width - 1), min_size=k,
                               max_size=k, unique=True), label="map")
    noise = random.Random(data.draw(st.integers(0, 1 << 32))
                          ).getrandbits(width)
    bits = [str(noise >> q & 1) for q in range(width)]
    for q, b in zip(where, circuit.input_bits):
        bits[q] = b
    measured = data.draw(st.integers(0, k - 1), label="measured")
    compact = replace(circuit, measured_qubit=measured)
    padded = Circuit(width, "".join(bits), tuple(
        CircuitStep(step.gate, tuple(where[q] for q in step.targets))
        for step in circuit.steps), where[measured])
    want = dense_marginal(dense_run(compact), measured)
    assert run_stabilizer(compact).exact_eq(want)
    assert run_stabilizer(padded).exact_eq(want)
    idle = sorted(set(range(width)) - set(where))
    if idle:
        q = idle[data.draw(st.integers(0, len(idle) - 1), label="idle")]
        got = run_stabilizer(replace(padded, measured_qubit=q))
        assert (got.p0, got.p1) == ((ONE, ZERO) if bits[q] == "0"
                                    else (ZERO, ONE))


@settings(PROPERTY, max_examples=6)
@given(st.integers(200, 260), st.sampled_from([2, 3]),
       st.integers(0, 1 << 16))
def test_blocked_matches_stabilizer_on_wide_clifford_circuits(width, p,
                                                              seed):
    """gen_entangle_disentangle with each T made S: S is diagonal, so the
    generator's basis tracking, and with it p-blockedness, still holds, and
    every gate is Clifford.  Both engines give every qubit's marginal
    exactly, at widths no dense oracle reaches, through merges and splits."""
    circuit = gen_entangle_disentangle(width, p, 600, seed)
    steps = tuple(CircuitStep(LIBRARY["S"], step.targets)
                  if step.gate.name == "T" else step
                  for step in circuit.steps)
    state = init_blocked(circuit)
    tableau = StabilizerTableau(width, circuit.input_bits)
    splits = 0
    for j, step in enumerate(steps):
        touched = {state.block_of(q) for q in step.targets}
        splits += sum(len(b.labels) for b in touched) > p
        state = apply_blocked(state, step, p, j)
        tableau = tableau_apply(tableau, step)
    tableau.check_invariants()
    assert splits > 0
    for q in range(width):
        assert measurement_marginal(state, q).exact_eq(
            tableau_marginal(tableau, q))
