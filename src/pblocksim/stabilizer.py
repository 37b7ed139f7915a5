"""Stabilizer-tableau engine for Clifford circuits.

A state is the n commuting independent signed Pauli generators that fix it,
stored by columns (Aaronson & Gottesman, quant-ph/0406196): per qubit, an
n-bit mask of the generators with X there and one of those with Z there,
plus a mask of the generators whose letter form is negative.  Beside them
sit the n unsigned destabilizers, stored the same way: destabilizer i
anticommutes with generator i and commutes with the others.  A tableau is
built one way, from the circuit's input bits (generators (-1)^b_q Z_q,
destabilizers X_q), and changes only by gate updates, so it always holds
n commuting independent generators with their dual destabilizers.  Each
gate's action is compiled once from its exact matrix
(`GateDef.clifford_table`), so any 1- or 2-qubit Clifford gate runs,
built-in or defined, whatever its name: every target column it changes is
an XOR of old target columns, and the sign mask flips on an XOR of ANDs of
them, a constant number of n-bit mask operations done in place (as in Stim,
Gidney, arXiv:2103.02202).  A gate whose matrix maps some Pauli outside the
Pauli group is not Clifford and is rejected.  Measurement here is the
end-of-circuit marginal only, computed without collapsing the state: a
deterministic outcome's sign is the product of the generators that the
qubit's destabilizer column names, so no elimination is needed.  Rows
(`PauliString`s) are built only where they are read.
"""

from __future__ import annotations

from itertools import compress

from .exact import HALF, ONE, ZERO
from .circuits import Circuit, CircuitStep
from .sampling import OutcomeDistribution


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
    qubit q; bit i of `signs` is set when its letter form is negative.
    `dxs` and `dzs` hold the unsigned destabilizers the same way:
    destabilizer i anticommutes with generator i and commutes with every
    other generator."""

    __slots__ = ("width", "xs", "zs", "signs", "dxs", "dzs")

    def __init__(self, width: int, bits: str):
        """Basis state |b1...bn>: generators (-1)^b_q Z_q, destabilizers
        X_q."""
        if len(bits) != width or bits.strip("01"):
            raise ValueError("input must be a bitstring of the given width")
        self.width = width
        self.xs, self.dzs = [0] * width, [0] * width
        self.zs = [1 << q for q in range(width)]
        self.dxs = list(self.zs)
        self.signs = int(bits[::-1] or "0", 2)

    @property
    def generators(self) -> list[PauliString]:
        """The generators as rows, built afresh on every read."""
        signs = self.signs
        return [PauliString(self.width, x, z,
                            2 * (signs >> i & 1) + (x & z).bit_count())
                for i, (x, z) in enumerate(zip(_transpose(self.xs),
                                               _transpose(self.zs)))]

    def check_invariants(self) -> None:
        """Raise ValueError unless the generators commute and the
        destabilizers are dual to them; O(n^2).  A correct update
        conjugates every row by the same Clifford, which keeps both, so a
        fault made at any step still shows when a run ends."""
        gens = self.generators
        _check_commuting(gens)
        # duality also makes the generators independent
        for i, (dx, dz) in enumerate(zip(_transpose(self.dxs),
                                         _transpose(self.dzs))):
            d = PauliString(self.width, dx, dz)
            for j, g in enumerate(gens):
                if d.commutes(g) == (i == j):
                    raise ValueError(
                        "destabilizers are not dual to the generators")


def _transpose(masks: list[int]) -> list[int]:
    """Transpose of a square bit matrix: bit i of out[j] is bit j of
    masks[i].  Costs one step per set bit."""
    out = [0] * len(masks)
    for i in compress(range(len(masks)), masks):
        mask = masks[i]
        while mask:
            j = mask.bit_length() - 1
            out[j] |= 1 << i
            mask ^= 1 << j
    return out


def _check_commuting(gens: list[PauliString]) -> None:
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            if not g.commutes(h):
                raise ValueError("generators do not commute")


def tableau_apply(t: StabilizerTableau, step: CircuitStep
                  ) -> StabilizerTableau:
    """Conjugate every generator and destabilizer by the gate, in place,
    and return `t`.  Each target column the gate changes becomes the XOR of
    the old target columns its compiled table lists, and the signs flip on
    the XOR of ANDs of old generator columns the table lists."""
    table = step.gate.clifford_table()
    if table is None:
        raise NonCliffordGate(step.gate.name)
    rows, flips = table
    targets = step.targets
    arity = len(targets)
    columns = (t.xs, t.zs, t.dxs, t.dzs)
    # old[c] is generator column c of the table, old[c + 2 * arity] the
    # destabilizer column
    old = [side[q] for side in columns for q in targets]
    for out, inputs in rows:
        gen = dest = 0
        for c in inputs:
            gen ^= old[c]
            dest ^= old[c + 2 * arity]
        side, j = divmod(out, arity)
        columns[side][targets[j]] = gen
        columns[side + 2][targets[j]] = dest
    signs = t.signs
    for monomial in flips:
        flip = old[monomial[0]]
        for c in monomial[1:]:
            flip &= old[c]
        signs ^= flip
    t.signs = signs
    return t


def tableau_marginal(t: StabilizerTableau, qubit: int) -> OutcomeDistribution:
    """{p0, p1} in {{1,0}, {0,1}, {1/2,1/2}}: random when a generator has X
    on the qubit.  Otherwise Z_q is, up to sign, the product of the
    generators g_i whose destabilizer d_i anticommutes with Z_q, that is
    has X on q (<d_i, g_j> = delta_ij); only their rows are built, to
    multiply out the sign."""
    if t.xs[qubit]:
        return OutcomeDistribution(HALF, HALF)
    chosen = t.dxs[qubit]
    xrows = _transpose([x & chosen for x in t.xs])
    zrows = _transpose([z & chosen for z in t.zs])
    prod = PauliString(t.width)
    while chosen:
        i = chosen.bit_length() - 1
        chosen ^= 1 << i
        x, z = xrows[i], zrows[i]
        prod = prod.mul(PauliString(
            t.width, x, z, 2 * (t.signs >> i & 1) + (x & z).bit_count()))
    if prod.letter_sign() > 0:
        return OutcomeDistribution(ONE, ZERO)
    return OutcomeDistribution(ZERO, ONE)


def run_stabilizer(circuit: Circuit) -> OutcomeDistribution:
    if circuit.input_blocks:
        raise ValueError("stabilizer engine cannot take mixed inputs")
    t = StabilizerTableau(circuit.width, circuit.input_bits)
    for j, step in enumerate(circuit.steps):
        try:
            t = tableau_apply(t, step)
        except NonCliffordGate as exc:
            raise NonCliffordGate(exc.gate_name, j) from None
    return tableau_marginal(t, circuit.measured_qubit)
