"""Stabilizer-tableau engine for Clifford circuits.

A state is the n commuting independent signed Pauli generators that fix it,
stored as X/Z bitmasks plus a power-of-i phase per generator (the value is
i^phase * prod_q X^x_q Z^z_q).  Each gate's update rule is read off its
exact matrix (`GateDef.clifford_table`), so any 1- or 2-qubit Clifford gate
runs, built-in or defined, whatever its name.  Conjugation rebuilds only
the generators that act on the gate's targets, so circuits far beyond any
amplitude representation run in milliseconds.  A gate whose matrix maps
some Pauli outside the Pauli group is not Clifford and is rejected.
Measurement here is the end-of-circuit marginal only, computed without
collapsing the state.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import ExactScalar
from .circuits import Circuit, CircuitStep
from .sampling import OutcomeDistribution

_HALF = ExactScalar(Fraction(1, 2))
_ONE = ExactScalar(1)
_ZERO = ExactScalar(0)

# re-verify commutation/rank/sign invariants after every update
DEBUG_CHECKS = False


class NonCliffordGate(ValueError):
    def __init__(self, gate_name: str, step_index: int = -1):
        self.gate_name = gate_name
        self.step_index = step_index
        super().__init__(
            f"step {step_index}: gate {gate_name} has no tableau update rule")


class PauliString:
    """Signed Pauli operator: value = i^phase * prod_q X^x Z^z."""

    __slots__ = ("width", "x_mask", "z_mask", "phase")

    def __init__(self, width: int, x_mask: int = 0, z_mask: int = 0,
                 phase: int = 0):
        self.width = width
        self.x_mask = x_mask
        self.z_mask = z_mask
        self.phase = phase & 3

    def mul(self, other: "PauliString") -> "PauliString":
        """Product; reordering Z-then-X contributes (-1)^(z1 & x2) bits."""
        sign_bits = (self.z_mask & other.x_mask).bit_count()
        return PauliString(self.width,
                           self.x_mask ^ other.x_mask,
                           self.z_mask ^ other.z_mask,
                           (self.phase + other.phase + 2 * sign_bits) & 3)

    def commutes(self, other: "PauliString") -> bool:
        anti = (self.x_mask & other.z_mask).bit_count() + \
            (self.z_mask & other.x_mask).bit_count()
        return anti % 2 == 0

    def letter_sign(self) -> int:
        """Sign of the letter form; Y = i*XZ, so each Y absorbs one i.
        +1 or -1 for any Hermitian Pauli string."""
        exp = (self.phase - (self.x_mask & self.z_mask).bit_count()) & 3
        if exp == 0:
            return 1
        if exp == 2:
            return -1
        raise ValueError("generator has an imaginary overall phase")

    def to_text(self) -> str:
        letters = []
        for q in range(self.width):
            bit = 1 << q
            x = bool(self.x_mask & bit)
            z = bool(self.z_mask & bit)
            letters.append("IXZY"[x + 2 * z])
        return ("+" if self.letter_sign() > 0 else "-") + "".join(letters)

    def __repr__(self):
        return f"PauliString({self.to_text()})"


class StabilizerTableau:
    __slots__ = ("width", "generators")

    def __init__(self, width: int, generators: list[PauliString]):
        if len(generators) != width:
            raise ValueError("need exactly n generators for n qubits")
        self.width = width
        self.generators = generators

    def check_invariants(self) -> None:
        gens = self.generators
        for i, g in enumerate(gens):
            g.letter_sign()
            for h in gens[i + 1:]:
                if not g.commutes(h):
                    raise ValueError("generators do not commute")
        rows = [(g.x_mask << self.width) | g.z_mask for g in gens]
        if _gf2_rank(rows) != self.width:
            raise ValueError("generators are not independent")

    def canonical(self) -> "StabilizerTableau":
        """Reduced echelon form over GF(2), pivoting X parts then Z parts;
        row operations multiply generators so signs stay consistent."""
        gens = list(self.generators)
        n = self.width
        row = 0
        for col_kind in ("x", "z"):
            for q in range(n):
                bit = 1 << q
                pivot = None
                for r in range(row, n):
                    mask = gens[r].x_mask if col_kind == "x" else gens[r].z_mask
                    if mask & bit:
                        pivot = r
                        break
                if pivot is None:
                    continue
                gens[row], gens[pivot] = gens[pivot], gens[row]
                for r in range(n):
                    if r == row:
                        continue
                    mask = gens[r].x_mask if col_kind == "x" else gens[r].z_mask
                    if mask & bit:
                        gens[r] = gens[r].mul(gens[row])
                row += 1
        return StabilizerTableau(n, gens)

    def dump(self) -> str:
        return "\n".join(g.to_text() for g in self.canonical().generators)


def tableau_init(width: int, bits: str) -> StabilizerTableau:
    """Basis state |b1...bn>: generators (-1)^b_q Z_q."""
    if len(bits) != width or any(c not in "01" for c in bits):
        raise ValueError("input must be a bitstring of the given width")
    gens = [PauliString(width, 0, 1 << q, 2 if bits[q] == "1" else 0)
            for q in range(width)]
    return StabilizerTableau(width, gens)


def tableau_apply(t: StabilizerTableau, step: CircuitStep
                  ) -> StabilizerTableau:
    """Conjugate every generator by the gate, by its table's entry for the
    generator's Pauli on the targets; generators that act trivially there
    are kept as they are."""
    table = step.gate.clifford_table()
    if table is None:
        raise NonCliffordGate(step.gate.name)
    width = t.width
    gens = []
    # one loop per arity: a loop over the targets inside the generator loop
    # took ~1.8x as long per gate
    if step.gate.arity == 1:
        (q,) = step.targets
        spread = (0, 1 << q)
        for g in t.generators:
            x, z = g.x_mask, g.z_mask
            xc, zc = x >> q & 1, z >> q & 1
            if not (xc or zc):
                gens.append(g)
                continue
            nx, nz, k = table[xc | zc << 1]
            gens.append(PauliString(width, x ^ spread[xc ^ nx],
                                    z ^ spread[zc ^ nz], g.phase + k))
    else:
        a, b = step.targets
        spread = (0, 1 << b, 1 << a, 1 << a | 1 << b)
        for g in t.generators:
            x, z = g.x_mask, g.z_mask
            xc = (x >> a & 1) << 1 | x >> b & 1
            zc = (z >> a & 1) << 1 | z >> b & 1
            if not (xc or zc):
                gens.append(g)
                continue
            nx, nz, k = table[xc | zc << 2]
            gens.append(PauliString(width, x ^ spread[xc ^ nx],
                                    z ^ spread[zc ^ nz], g.phase + k))
    out = StabilizerTableau(width, gens)
    if DEBUG_CHECKS:
        out.check_invariants()
    return out


def _gf2_rank(rows: list[int]) -> int:
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


def tableau_marginal(t: StabilizerTableau, qubit: int) -> OutcomeDistribution:
    """{p0, p1} in {{1,0}, {0,1}, {1/2,1/2}}: deterministic exactly when
    +/-Z_q lies in the stabilizer group, found by a GF(2) solve."""
    bit = 1 << qubit
    if any(g.x_mask & bit for g in t.generators):
        return OutcomeDistribution(_HALF, _HALF)
    # all generators commute with Z_q, so in a full-rank tableau some
    # product equals +/-Z_q; solve sum c_i (x_i|z_i) = (0|e_q) over GF(2)
    # and multiply out signs.
    n = t.width
    basis: dict[int, tuple[int, int]] = {}
    for i, g in enumerate(t.generators):
        vec, tag = (g.x_mask << n) | g.z_mask, 1 << i
        while vec:
            lead = vec.bit_length() - 1
            if lead not in basis:
                basis[lead] = (vec, tag)
                break
            bv, bt = basis[lead]
            vec ^= bv
            tag ^= bt
    vec, tag = bit, 0  # target: x part zero, z part e_q
    while vec:
        lead = vec.bit_length() - 1
        if lead not in basis:
            break
        bv, bt = basis[lead]
        vec ^= bv
        tag ^= bt
    prod = PauliString(n)
    for i, g in enumerate(t.generators):
        if tag & (1 << i):
            prod = prod.mul(g)
    assert prod.x_mask == 0 and prod.z_mask == bit
    if prod.letter_sign() > 0:
        return OutcomeDistribution(_ONE, _ZERO)
    return OutcomeDistribution(_ZERO, _ONE)


def run_stabilizer(circuit: Circuit) -> OutcomeDistribution:
    if circuit.input_blocks:
        raise ValueError("stabilizer engine cannot take mixed inputs")
    t = tableau_init(circuit.width, circuit.input_bits)
    for j, step in enumerate(circuit.steps):
        try:
            t = tableau_apply(t, step)
        except NonCliffordGate as exc:
            raise NonCliffordGate(exc.gate_name, j) from None
    return tableau_marginal(t, circuit.measured_qubit)
