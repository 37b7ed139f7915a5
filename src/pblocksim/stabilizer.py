"""Stabilizer-tableau engine for Clifford circuits.

A state is the n commuting independent signed Pauli generators that fix it,
stored by columns (Aaronson & Gottesman, quant-ph/0406196): per qubit, an
n-bit mask of the generators with X there and one of those with Z there,
plus a mask of the generators whose letter form is negative.  Each gate's
update rule is read off its exact matrix (`GateDef.clifford_table`), so any
1- or 2-qubit Clifford gate runs, built-in or defined, whatever its name; it
rewrites the target columns and the sign mask with a constant number of
n-bit mask operations.  A gate whose matrix maps some Pauli outside the
Pauli group is not Clifford and is rejected.  Rows (`PauliString`s) are
built only where they are read.  Measurement here is the end-of-circuit
marginal only, computed without collapsing the state.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import ExactScalar
from .circuits import Circuit, CircuitStep
from .sampling import OutcomeDistribution

_HALF = ExactScalar(Fraction(1, 2))
_ONE = ExactScalar(1)
_ZERO = ExactScalar(0)

# re-verify commutation/rank invariants after every update
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
    """By columns: bit i of `xs[q]` and `zs[q]` is generator i's X and Z on
    qubit q; bit i of `signs` is set when its letter form is negative."""

    __slots__ = ("width", "xs", "zs", "signs")

    def __init__(self, width: int, generators: list[PauliString]):
        if len(generators) != width:
            raise ValueError("need exactly n generators for n qubits")
        self.width = width
        self.xs = _transpose([g.x_mask for g in generators])
        self.zs = _transpose([g.z_mask for g in generators])
        self.signs = sum(1 << i for i, g in enumerate(generators)
                         if g.letter_sign() < 0)

    @classmethod
    def _from_columns(cls, width: int, xs: list[int], zs: list[int],
                      signs: int) -> "StabilizerTableau":
        t = cls.__new__(cls)
        t.width, t.xs, t.zs, t.signs = width, xs, zs, signs
        return t

    @property
    def generators(self) -> list[PauliString]:
        """The generators as rows, built afresh on every read."""
        signs = self.signs
        return [PauliString(self.width, x, z,
                            2 * (signs >> i & 1) + (x & z).bit_count())
                for i, (x, z) in enumerate(zip(_transpose(self.xs),
                                               _transpose(self.zs)))]

    def check_invariants(self) -> None:
        gens = self.generators
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                if not g.commutes(h):
                    raise ValueError("generators do not commute")
        if len(_echelon(gens)) != self.width:
            raise ValueError("generators are not independent")

    def dump(self) -> str:
        """The generators' letter forms, one a line, in reduced echelon form
        over GF(2), pivoting X parts then Z parts; row operations multiply
        generators so signs stay consistent."""
        gens = self.generators
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
        return "\n".join(g.to_text() for g in gens)


def _transpose(masks: list[int]) -> list[int]:
    """Transpose of a square bit matrix: bit i of out[j] is bit j of
    masks[i].  Costs one step per set bit."""
    out = [0] * len(masks)
    for i, mask in enumerate(masks):
        bit = 1 << i
        while mask:
            j = mask.bit_length() - 1
            out[j] |= bit
            mask ^= 1 << j
    return out


def tableau_init(width: int, bits: str) -> StabilizerTableau:
    """Basis state |b1...bn>: generators (-1)^b_q Z_q."""
    if len(bits) != width or any(c not in "01" for c in bits):
        raise ValueError("input must be a bitstring of the given width")
    return StabilizerTableau._from_columns(
        width, [0] * width, [1 << q for q in range(width)],
        sum(1 << q for q in range(width) if bits[q] == "1"))


def tableau_apply(t: StabilizerTableau, step: CircuitStep
                  ) -> StabilizerTableau:
    """Conjugate every generator by the gate.  The generators are grouped by
    their Pauli on the targets, one mask per table code; each group is ORed
    into the target columns its image sets, and its signs flip when the
    entry's i^k and the change in the number of Ys on the targets make -1."""
    table = step.gate.clifford_table()
    if table is None:
        raise NonCliffordGate(step.gate.name)
    arity = len(step.targets)
    # code bit j is the X part of target arity-1-j, bit arity+j its Z part
    targets = step.targets[::-1]
    columns = [t.xs[q] for q in targets] + [t.zs[q] for q in targets]
    groups = [(1 << t.width) - 1]
    for column in columns:
        groups = [g & ~column for g in groups] + [g & column for g in groups]
    images = [0] * len(columns)
    flips = 0
    for code, (group, (x, z, k)) in enumerate(zip(groups, table)):
        if not group:
            continue
        image = x | z << arity
        for j in range(len(columns)):
            if image >> j & 1:
                images[j] |= group
        ys_before = (code & code >> arity).bit_count()
        if (k + ys_before - (x & z).bit_count()) & 2:
            flips |= group
    xs, zs = list(t.xs), list(t.zs)
    for j, q in enumerate(targets):
        xs[q] = images[j]
        zs[q] = images[arity + j]
    out = StabilizerTableau._from_columns(t.width, xs, zs, t.signs ^ flips)
    if DEBUG_CHECKS:
        out.check_invariants()
    return out


def _reduce(basis: dict, vec: int, tag: int = 0) -> tuple[int, int]:
    while vec:
        lead = vec.bit_length() - 1
        if lead not in basis:
            break
        bv, bt = basis[lead]
        vec ^= bv
        tag ^= bt
    return vec, tag


def _echelon(gens: list[PauliString]) -> dict[int, tuple[int, int]]:
    """GF(2) basis of the generators' (x|z) vectors by leading bit:
    lead -> (vector, tag), bit i of the tag marking gens[i] in its sum."""
    basis: dict[int, tuple[int, int]] = {}
    for i, g in enumerate(gens):
        vec, tag = _reduce(basis, (g.x_mask << g.width) | g.z_mask, 1 << i)
        if vec:
            basis[vec.bit_length() - 1] = (vec, tag)
    return basis


def tableau_marginal(t: StabilizerTableau, qubit: int) -> OutcomeDistribution:
    """{p0, p1} in {{1,0}, {0,1}, {1/2,1/2}}: deterministic exactly when
    +/-Z_q lies in the stabilizer group, found by a GF(2) solve."""
    if t.xs[qubit]:
        return OutcomeDistribution(_HALF, _HALF)
    # all generators commute with Z_q, so in a full-rank tableau some
    # product equals +/-Z_q; solve sum c_i (x_i|z_i) = (0|e_q) over GF(2)
    # and multiply out signs.
    gens = t.generators
    basis = _echelon(gens)
    if len(basis) != t.width:
        raise ValueError("generators are not independent")
    rest, tag = _reduce(basis, 1 << qubit)
    if rest:
        raise ValueError("generators do not commute")
    prod = PauliString(t.width)
    for i, g in enumerate(gens):
        if tag >> i & 1:
            prod = prod.mul(g)
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
