"""Exact simulator for circuits whose states stay p-blocked.

The state is what Jozsa and Linden's definition names: a partition of the
qubits into blocks of at most p, each with its own exact density matrix,
stored as one list whose entry for qubit q is the block that holds q.  A
run hands that list from step to step, and a step rewrites only the
entries of the qubits it touched, so cost per step depends on p, never on
the circuit width.  A gate inside one block conjugates that block; a gate
straddling two blocks merges them first, and a merged block larger than p
must re-split exactly into parts of size <= p or the run aborts with
PBlockError: the hypothesis that every intermediate state is p-blocked is
an input contract, not something this engine can repair.
`advance` is the one state transition; `approx` runs it with its closest
projection in place of the exact split.

Blocks are stored as the nonzero maps of their density matrices, even when
pure, and read only through them; mixed per-block inputs (`inputblock` in
the circuit format) run through the same code path.  A gate that permutes
the basis states with entries 1 (X, CNOT, SWAP, I, and any such defgate:
the classical reversible gates) moves each nonzero entry to its image and
does no arithmetic.  Any other gate acts on a block through its own 2x2 or
4x4 matrix and the dagger the gate keeps, tile by tile on the targets'
index bits, and only on the tiles that hold a nonzero; no 2^k x 2^k gate is
ever built.  A basis state |x><x| splits into the shared start block of
each of its bits without a search.  Any other split asks of each candidate
part only whether it splits off, by the rank-one test the dense blockedness
decider also uses, so pure and mixed blocks split the same way.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache

from .exact import ZERO, ONE
from .matrices import (ExactMatrix, DensityBlock, mat_mul, kron_blocks,
                       nonzero_map, reduced_state, target_offsets)
from .circuits import Circuit, CircuitStep, GateDef
from .partitions import partitions_max_part, rank_positions, splits_across
from .sampling import OutcomeDistribution


class PBlockError(Exception):
    def __init__(self, step_index: int, qubits, diagnostic: str):
        self.step_index = step_index
        self.qubits = tuple(qubits)
        self.diagnostic = diagnostic
        super().__init__(
            f"step {step_index}: block {self.qubits} {diagnostic}")


class BlockedState:
    """A blocked state: `assignment[q]` is the block that holds qubit q, so
    a block's qubits all hold the same DensityBlock, which hashes by
    identity.  A run hands its one assignment list from step to step:
    copy() writes the step's blocks into it and returns the next state, and
    the state it was called on is spent, so reading it raises."""
    __slots__ = ("width", "_assignment", "__weakref__")

    def __init__(self, width: int, assignment: list[DensityBlock]):
        self.width = width
        self._assignment = assignment

    @property
    def assignment(self) -> list[DensityBlock]:
        if self._assignment is None:
            raise RuntimeError("this blocked state was advanced: read the "
                               "state its step returned")
        return self._assignment

    @property
    def blocks(self) -> "BlockView":
        """Each block once, keyed by itself, so that
        blocks[assignment[q]] is q's block; a view, built in O(1)."""
        self.assignment     # a spent state raises here already
        return BlockView(self)

    def copy(self, parts) -> "BlockedState":
        """The next state, in which each part's qubits hold that part; it
        takes over the assignment list, and this state is spent."""
        assignment = self.assignment
        for part in parts:
            for q in part.labels:
                assignment[q] = part
        self._assignment = None
        return BlockedState(self.width, assignment)

    def block_of(self, qubit: int) -> DensityBlock:
        return self.assignment[qubit]

    def max_block_size(self) -> int:
        return max(len(b.labels) for b in self.assignment)

    def global_density(self) -> DensityBlock:
        """kron of all blocks in ascending qubit order (small widths only)."""
        return kron_blocks(self.blocks, range(self.width))

    def digit_count(self) -> int:
        """Most digits of any entry; every block holds a nonzero, so the
        zeros (1 digit) never decide it."""
        return max(x.digit_count() for b in self.blocks
                   for x in b.nonzeros.values())


class BlockView(Mapping):
    """The blocks of a state, each once and keyed by itself, read from its
    assignment and not copied: iterating walks the assignment once and
    yields each block at its first label, and a lookup is one identity
    test.  Reading it once its state is spent raises, as reading the state
    does."""
    __slots__ = ("_state",)

    def __init__(self, state: BlockedState):
        self._state = state

    def __getitem__(self, block: DensityBlock) -> DensityBlock:
        assignment = self._state.assignment
        try:
            if assignment[block.labels[0]] is block:
                return block
        except (AttributeError, IndexError, TypeError):
            pass
        raise KeyError(block)

    def __iter__(self):
        for q, block in enumerate(self._state.assignment):
            if block.labels[0] == q:
                yield block

    def __len__(self) -> int:
        return sum(1 for _ in self)


# |0><0| and |1><1| as nonzero map and matrix, both shared by every
# single-qubit basis block (no code writes into either)
_BASIS_MAPS = {"0": {0: ONE}, "1": {3: ONE}}
_BASIS_MATRICES = {"0": ExactMatrix(2, 2, [ONE, ZERO, ZERO, ZERO]),
                   "1": ExactMatrix(2, 2, [ZERO, ZERO, ZERO, ONE])}
# |b><b| on qubit q at [b][q], made on first use and then shared by every
# state that holds it, as no code writes into a block: states kept side by
# side share the blocks of their untouched qubits.  Each list grows to the
# widest qubit asked for yet.
_BASIS_BLOCKS = {"0": [], "1": []}


def _basis_blocks(qubits, bits) -> list[DensityBlock]:
    """The shared |b><b| on each qubit q, for q and b ("0" or "1") taken
    pairwise from `qubits` and `bits`: the blocks of a start state's basis
    qubits and of a basis state's split alike."""
    out = []
    for q, bit in zip(qubits, bits):
        shared = _BASIS_BLOCKS[bit]
        try:
            block = shared[q]
        except IndexError:
            shared.extend([None] * (q + 1 - len(shared)))
            block = None
        if block is None:
            block = shared[q] = DensityBlock((q,), _BASIS_MATRICES[bit],
                                             _BASIS_MAPS[bit])
        out.append(block)
    return out


def init_blocked(circuit: Circuit) -> BlockedState:
    """The circuit's start state: its input blocks, and |b><b| for each
    other qubit."""
    bits = circuit.input_bits
    width = len(bits)
    if not circuit.input_blocks:
        return BlockedState(width, _basis_blocks(range(width), bits))
    assignment = [None] * width
    for blk in circuit.input_blocks:
        block = DensityBlock(blk.labels, nonzeros=nonzero_map(blk.matrix))
        for q in blk.labels:
            assignment[q] = block
    free = [q for q in range(width) if assignment[q] is None]
    for q, block in zip(free, _basis_blocks(free, [bits[q] for q in free])):
        assignment[q] = block
    return BlockedState(width, assignment)


@cache
def _tile_layout(k: int, positions: tuple[int, ...]):
    """(g, tile mask, spread) of a gate on `positions` of a k-qubit block:
    an entry's flat index row << k | col with the targets' bits cleared in
    both halves is the base of its g x g tile, whose entry (r, c) sits at
    base + spread[r * g + c]."""
    offsets = target_offsets(k, positions)
    others = ((1 << k) - 1) & ~offsets[-1]  # the index bits that are not targets
    return (len(offsets), others << k | others,
            tuple(r << k | c for r in offsets for c in offsets))


@cache
def _relabel_layout(k: int, positions: tuple[int, ...],
                    image: tuple[int, ...]):
    """(target mask, moves) of a gate G|c> = |image[c]> on `positions` of a
    k-qubit block: G rho G^dagger holds the entry at flat index e at
    e ^ moves[e & target mask], which puts the targets' row and column bits
    of tile entry (r, c) at those of (image[r], image[c]).  The moves are a
    dict, read and never written."""
    g, tile_mask, spread = _tile_layout(k, positions)
    moves = {}
    for r in range(g):
        for c in range(g):
            here = spread[r * g + c]
            moves[here] = here ^ spread[image[r] * g + image[c]]
    return ((1 << 2 * k) - 1) & ~tile_mask, moves


def conjugate_block(block: DensityBlock, gate: GateDef,
                    targets) -> DensityBlock:
    """rho -> G rho G^dagger for a gate G on `targets` inside the block.

    A gate that permutes the basis states, its every nonzero 1, only moves
    each nonzero entry to its image, without a tile or any arithmetic;
    every other gate goes through `_conjugate_tiles`."""
    labels = block.labels
    positions = tuple(map(labels.index, targets))
    image = gate.permutation()
    if image is None:
        return _conjugate_tiles(block, gate, positions)
    target_mask, moves = _relabel_layout(len(labels), positions, image)
    return DensityBlock(labels, nonzeros={
        e ^ moves[e & target_mask]: x for e, x in block.nonzeros.items()})


def _conjugate_tiles(block: DensityBlock, gate: GateDef,
                     positions: tuple[int, ...]) -> DensityBlock:
    """G rho G^dagger for any gate G on the block's `positions`, tile by
    tile.  G acts only on the targets' index bits, so rho falls into g x g
    tiles, one per (row base, column base) with every target bit clear.
    Each tile that holds a nonzero, found from the keys of the block's
    nonzero map, becomes G T G^dagger with the small gate and the dagger it
    keeps, and only its nonzero results are written; every other tile stays
    zero."""
    labels = block.labels
    g, tile_mask, spread = _tile_layout(len(labels), positions)
    nonzeros = block.nonzeros
    out = {}
    for base in {e & tile_mask for e in nonzeros}:
        places = [base + s for s in spread]
        tile = ExactMatrix(g, g, [nonzeros.get(i, ZERO) for i in places])
        turned = mat_mul(mat_mul(gate.matrix, tile), gate.dagger)
        for i, x in zip(places, turned.entries):
            # most zero results are the shared ZERO, which `is` skips
            # without a call
            if x is not ZERO and not x.is_zero():
                out[i] = x
    return DensityBlock(labels, nonzeros=out)


def split_exact(block: DensityBlock, p: int,
                step_index: int = -1) -> list[DensityBlock]:
    """Finest exact factorization of a block into parts of size <= p.

    A basis state |x><x|, a map of one diagonal entry equal to 1, is the
    product of its bits: it splits into the shared basis block of each
    label's bit, in ascending label order, which equals what
    `_search_split` returns for it at any p >= 1 but takes no factor test
    or partial trace.  Every other block goes through `_search_split`."""
    labels = block.labels
    nonzeros = block.nonzeros
    if len(nonzeros) == 1:
        [(e, x)] = nonzeros.items()
        k = len(labels)
        row = e >> k
        if row == e ^ row << k and x == ONE:
            bits = format(row, f"0{k}b")  # position j's bit at bits[j]
            order = rank_positions(labels)
            return _basis_blocks([labels[j] for j in order],
                                 [bits[j] for j in order])
    return _search_split(block, p, step_index)


def _search_split(block: DensityBlock, p: int,
                  step_index: int) -> list[DensityBlock]:
    """The finest exact factorization into parts of size <= p, searched.

    The density, read as a vector over flat indices row << k | col, is
    rank one across a part's row and column bits together exactly when the
    block is X (x) Y over the part and the rest, and then it is the product
    of its two reduced states.  Product bipartitions are closed under meet,
    so a partition reproduces the block iff each of its parts splits off;
    candidates are tried most-refined first, each part's verdict computed
    once.  The block's nonzero map serves every factor test and the
    reduced state of every part kept, and the candidates are the shared
    partitions of ranks, rank r standing for the r-th smallest label.
    Raises PBlockError when no partition reproduces the block."""
    labels = block.labels
    k = len(labels)
    nonzeros = block.nonzeros
    positions = rank_positions(labels)
    verdicts: dict[tuple, bool] = {}

    def splits_off(part):
        if part not in verdicts:
            m = target_offsets(k, tuple(positions[r] for r in part))[-1]
            verdicts[part] = splits_across(nonzeros, m << k | m)
        return verdicts[part]

    for parts in partitions_max_part(k, p):
        if len(parts) == 1:
            return [block]
        if all(splits_off(part) for part in parts):
            return [reduced_state(labels, nonzeros,
                                  [positions[r] for r in part])
                    for part in parts]
    raise PBlockError(step_index, labels,
                      f"does not factor into parts of size <= {p}")


def advance(state: BlockedState, step: CircuitStep, p: int,
            split) -> BlockedState:
    """The state after one gate, the only change a blocked state ever
    sees: merge the blocks the gate straddles, conjugate, and install
    the block itself when it has at most p qubits, otherwise the parts
    `split(block)` returns.  Nothing is written before the split, so a split
    that raises makes no next state and leaves this one live."""
    assignment = state.assignment
    touched = list(dict.fromkeys(assignment[q] for q in step.targets))
    block = touched[0] if len(touched) == 1 else \
        kron_blocks(touched, sorted(q for b in touched for q in b.labels))
    block = conjugate_block(block, step.gate, step.targets)
    return state.copy([block] if len(block.labels) <= p else split(block))


def apply_blocked(state: BlockedState, step: CircuitStep, p: int,
                  step_index: int = -1) -> BlockedState:
    """One gate on a blocked state; a merge larger than p splits exactly."""
    return advance(state, step, p,
                   lambda block: split_exact(block, p, step_index))


def measurement_marginal(state: BlockedState, qubit: int
                         ) -> OutcomeDistribution:
    block = state.block_of(qubit)
    single = reduced_state(block.labels, block.nonzeros,
                           [block.labels.index(qubit)]).nonzeros
    p0, p1 = single.get(0, ZERO), single.get(3, ZERO)
    if not (p0.is_real() and p1.is_real()):
        raise ValueError("marginal probabilities not real")
    return OutcomeDistribution(p0, p1)


def start_state(circuit: Circuit, p: int) -> BlockedState:
    """The circuit's start state, refused unless every input block has at
    most p qubits: both block engines start p-blocked."""
    if p < 1:
        raise ValueError("p must be >= 1")
    oversized = [blk.labels for blk in circuit.input_blocks
                 if len(blk.labels) > p]
    if oversized:
        raise PBlockError(-1, min(oversized, key=min),
                          f"input block larger than p = {p}")
    return init_blocked(circuit)


def run_blocked_full(circuit: Circuit, p: int
                     ) -> tuple[BlockedState, OutcomeDistribution]:
    state = start_state(circuit, p)
    for j, step in enumerate(circuit.steps):
        state = apply_blocked(state, step, p, j)
    return state, measurement_marginal(state, circuit.measured_qubit)


def run_blocked(circuit: Circuit, p: int) -> OutcomeDistribution:
    """Exact output distribution of a p-blocked circuit."""
    return run_blocked_full(circuit, p)[1]
