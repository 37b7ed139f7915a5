"""Stabilizer-tableau engine for Clifford circuits.

A state is the commuting independent signed Pauli generators that fix it,
stored by columns (Aaronson & Gottesman, quant-ph/0406196): per qubit, an
m-bit mask of the generators with X there and one of those with Z there,
plus a mask of the generators whose letter form is negative.  Beside them
sit the m unsigned destabilizers, stored the same way: destabilizer i
anticommutes with generator i and commutes with the others.  A tableau
holds columns only for the m qubits it is given, the held qubits; every
other qubit stays in its input basis state, a product factor that no gate
changes, so it needs no column.  A run holds the qubits its circuit
touches and the measured one, so its cost follows those m qubits and not
the register width n.  A tableau is built one way, from the input bits
(generators (-1)^b_q Z_q, destabilizers X_q, one pair per held qubit), and
changes only by gate updates on held qubits, so it always holds m
commuting independent generators with their dual destabilizers.  Each
gate's action is compiled once from its exact matrix
(`GateDef.clifford_table`), so any 1- or 2-qubit Clifford gate runs,
built-in or defined, whatever its name: every target column it changes is
an XOR of old target columns, and the sign mask flips on an XOR of ANDs of
them, a constant number of m-bit mask operations done in place (as in Stim,
Gidney, arXiv:2103.02202).  A gate whose matrix maps some Pauli outside the
Pauli group is not Clifford and is rejected.  Measurement here is the
end-of-circuit marginal only, computed without collapsing the state: a
deterministic outcome's sign is the product of the generators that the
qubit's destabilizer column names, so no elimination is needed.  Rows
(`PauliString`s) are built only where they are read, over the held qubits.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress
from operator import or_

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
    other generator.  Only the held qubits, `qubits` in ascending order,
    have columns: generator i belongs to the i-th of them, so masks are m
    bits wide for m held qubits.  The column lists stay indexed by qubit
    number, and the entries of qubits that are not held are unused zeros;
    a gate must act on held qubits only.  A held qubit's generator column
    `xs[q] | zs[q]` is never zero, because m independent commuting
    generators cannot all be the identity on one of m qubits."""

    __slots__ = ("width", "qubits", "xs", "zs", "signs", "dxs", "dzs")

    def __init__(self, width: int, bits: str,
                 qubits: Iterable[int] | None = None):
        """Basis state |b1...bn>: generators (-1)^b_q Z_q, destabilizers
        X_q, for each held qubit q; `qubits` defaults to every qubit."""
        if len(bits) != width or bits.strip("01"):
            raise ValueError("input must be a bitstring of the given width")
        self.width = width
        self.qubits = (tuple(range(width)) if qubits is None
                       else tuple(sorted(set(qubits))))
        if self.qubits and not 0 <= self.qubits[0] <= self.qubits[-1] < width:
            raise ValueError("held qubits must lie in the register")
        self.xs, self.zs, self.dxs, self.dzs = ([0] * width for _ in range(4))
        signs = 0
        for i, q in enumerate(self.qubits):
            self.zs[q] = self.dxs[q] = 1 << i
            if bits[q] == "1":
                signs |= 1 << i
        self.signs = signs

    @property
    def generators(self) -> list[PauliString]:
        """The generators as rows, built afresh on every read."""
        signs, held = self.signs, self.qubits
        return [PauliString(self.width, x, z,
                            2 * (signs >> i & 1) + (x & z).bit_count())
                for i, (x, z) in enumerate(zip(_rows(self.xs, held),
                                               _rows(self.zs, held)))]

    def check_invariants(self) -> None:
        """Raise ValueError unless the generators act on every held qubit
        and on no other, commute, and have dual destabilizers; O(m^2) past
        one scan of the columns.  A correct update conjugates every row by
        the same Clifford, which keeps all three, so a fault made at any
        step still shows when a run ends."""
        held = self.qubits
        if tuple(compress(range(self.width), map(or_, self.xs, self.zs))
                 ) != held:
            raise ValueError("the generators' support is not the held "
                             "qubits")
        gens = self.generators
        _check_commuting(gens)
        # duality also makes the generators independent
        for i, (dx, dz) in enumerate(zip(_rows(self.dxs, held),
                                         _rows(self.dzs, held))):
            d = PauliString(self.width, dx, dz)
            for j, g in enumerate(gens):
                if d.commutes(g) == (i == j):
                    raise ValueError(
                        "destabilizers are not dual to the generators")


def _rows(columns: list[int], qubits: tuple[int, ...], keep: int = -1
          ) -> list[int]:
    """The rows of a column-stored matrix, one per held qubit: bit q of
    out[i] is bit i of columns[q], for q in `qubits` and the rows in
    `keep`.  Costs one step per held qubit and per set bit."""
    out = [0] * len(qubits)
    for q in qubits:
        mask = columns[q] & keep
        while mask:
            i = mask.bit_length() - 1
            out[i] |= 1 << q
            mask ^= 1 << i
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
    has X on q (<d_i, g_j> = delta_ij); only their rows are built, over the
    held qubits, to multiply out the sign.  A qubit the tableau does not
    hold raises ValueError: its generator column is zero."""
    if t.xs[qubit]:
        return OutcomeDistribution(HALF, HALF)
    if not t.zs[qubit]:
        raise ValueError(f"qubit {qubit} is not held by the tableau")
    chosen = t.dxs[qubit]
    xrows = _rows(t.xs, t.qubits, chosen)
    zrows = _rows(t.zs, t.qubits, chosen)
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
    """The measured qubit's marginal from a tableau that holds only the
    qubits some gate touches and the measured one."""
    if circuit.input_blocks:
        raise ValueError("stabilizer engine cannot take mixed inputs")
    held = {q for step in circuit.steps for q in step.targets}
    held.add(circuit.measured_qubit)
    t = StabilizerTableau(circuit.width, circuit.input_bits, held)
    for j, step in enumerate(circuit.steps):
        try:
            t = tableau_apply(t, step)
        except NonCliffordGate as exc:
            raise NonCliffordGate(exc.gate_name, j) from None
    return tableau_marginal(t, circuit.measured_qubit)
