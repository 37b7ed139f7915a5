"""Gate library, circuit representation, text format, and generators.

Qubit 0 is the leftmost qubit (most significant index bit); a circuit is a
width, an input basis string, a gate sequence, and the measured qubit
(default 0).  The text format is line-oriented:

    qubits <n>
    input <bitstring>
    gate <NAME> <q> [<q2>]
    measure <q>

with '#' comments.  `defgate <NAME> <arity>` followed by 2^arity rows of
2^arity scalar literals defines a gate (a Clifford one runs on the
stabilizer engine whatever its name), and `inputblock <q1,q2,...>` and a
density-matrix literal a mixed input block for the blocked engines.  Each
of `GateDef`, `CircuitStep`, `InputBlock` and `Circuit` checks itself when
built; the parser only reads text and puts the line on their `CircuitError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import (ExactScalar, ZERO, ONE, MINUS_ONE, I_UNIT, HALF_SQRT2,
                    parse_scalar)
from .matrices import ExactMatrix, DensityBlock, is_unitary, mat_mul
from .prng import CounterRng


class CircuitError(ValueError):
    pass


class CircuitSyntaxError(CircuitError):
    pass


class UnknownGate(CircuitError):
    pass


class QubitOutOfRange(CircuitError):
    pass


class DuplicateTarget(CircuitError):
    pass


_I_POWERS = (ONE, I_UNIT, MINUS_ONE, -I_UNIT)
_UNDERIVED = object()


def _reverse_bits(value: int, width: int) -> int:
    return sum((value >> j & 1) << (width - 1 - j) for j in range(width))


def _pauli_matrix(dim: int, x: int, z: int, k: int = 0) -> ExactMatrix:
    """i^k X^x Z^z: column c holds i^k (-1)^|z & c| in row c ^ x."""
    entries = [ZERO] * (dim * dim)
    for c in range(dim):
        sign = 2 * (z & c).bit_count()
        entries[(c ^ x) * dim + c] = _I_POWERS[(k + sign) & 3]
    return ExactMatrix(dim, dim, entries)


class GateDef:
    """Named exactly unitary gate; check_signature bounds name and arity."""

    __slots__ = ("name", "arity", "matrix", "dagger", "_nonzero_rows",
                 "_permutation", "_complex_rows", "_clifford_table")

    ARITIES = (1, 2)

    @staticmethod
    def check_signature(name: str, arity: int) -> None:
        if name.split() != [name] or "#" in name:
            raise CircuitError(f"gate name {name!r} is not one '#'-free token")
        if arity not in GateDef.ARITIES:
            raise CircuitError(f"gate {name}: arity must be "
                               + " or ".join(map(str, GateDef.ARITIES)))

    def __init__(self, name: str, arity: int, matrix: ExactMatrix):
        self.check_signature(name, arity)
        dim = 1 << arity
        if matrix.rows != dim or matrix.cols != dim:
            raise CircuitError(f"gate {name}: expected {dim}x{dim} matrix")
        if not is_unitary(matrix):
            raise CircuitError(f"gate {name}: matrix is not exactly unitary")
        self.name = name
        self.arity = arity
        self.matrix = matrix
        self.dagger = matrix.dagger()
        self._nonzero_rows = self._permutation = self._complex_rows = \
            self._clifford_table = _UNDERIVED

    # Each derived form below is a function of the exact matrix alone, so
    # it is derived on first use, cached, and returned as a tuple (or None)
    # that no caller can write into.

    def nonzero_rows(self):
        """Per row, the (column, entry) pairs of its nonzero entries: the
        form the dense engine's gate kernel applies."""
        if self._nonzero_rows is _UNDERIVED:
            dim = self.matrix.rows
            self._nonzero_rows = tuple(
                tuple((j, self.matrix.at(i, j)) for j in range(dim)
                      if not self.matrix.at(i, j).is_zero())
                for i in range(dim))
        return self._nonzero_rows

    def permutation(self):
        """pi with G|c> = |pi[c]> when the gate permutes the basis states,
        every column holding one nonzero and that nonzero equal to 1;
        otherwise None (a phase such as Z's or CZ's -1 included)."""
        if self._permutation is _UNDERIVED:
            self._permutation = self._derive_permutation()
        return self._permutation

    def _derive_permutation(self):
        m, dim = self.matrix, self.matrix.rows
        image = []
        for c in range(dim):
            rows = [r for r in range(dim) if not m.at(r, c).is_zero()]
            if len(rows) != 1 or m.at(rows[0], c) != ONE:
                return None
            image.append(rows[0])
        return tuple(image)

    def complex_rows(self):
        """The matrix's rows as complex floats, for the float reference."""
        if self._complex_rows is _UNDERIVED:
            self._complex_rows = tuple(map(tuple,
                                           self.matrix.to_complex_rows()))
        return self._complex_rows

    def clifford_table(self):
        """The gate's action on the targets' Pauli bits, in the form the
        stabilizer update uses, or None when the gate is not Clifford.

        Column c < arity is the X bit of target c and column arity + c its
        Z bit.  A Clifford acts linearly on these bits, so the table is
        (rows, flips): each (c, inputs) in rows sets column c to the XOR of
        the old columns in `inputs` (columns the gate leaves as they were
        are not listed), and a Pauli's letter-form sign flips by the XOR,
        over the tuples in flips, of the AND of each tuple's old columns.
        Derived once from the exact matrix and cached."""
        if self._clifford_table is _UNDERIVED:
            self._clifford_table = self._derive_clifford_table()
        return self._clifford_table

    def _derive_clifford_table(self):
        arity, dim = self.arity, 1 << self.arity
        u, u_dag = self.matrix, self.dagger
        images, flips = [], []
        for code in range(dim * dim):
            # in the matrix index, bit arity-1-c is target c
            x = _reverse_bits(code % dim, arity)
            z = _reverse_bits(code // dim, arity)
            image = mat_mul(mat_mul(u, _pauli_matrix(dim, x, z)), u_dag)
            # U X^x Z^z U^dag = i^k X^x' Z^z': column 0 is i^k in row x';
            # column 1 << j carries the sign of Z_j
            col0 = [r for r in range(dim) if not image.at(r, 0).is_zero()]
            if len(col0) != 1 or image.at(col0[0], 0) not in _I_POWERS:
                return None
            x2 = col0[0]
            phase = image.at(x2, 0)
            z2 = sum(1 << j for j in range(arity)
                     if image.at(x2 ^ 1 << j, 1 << j) != phase)
            k = _I_POWERS.index(phase)
            if image != _pauli_matrix(dim, x2, z2, k):
                return None
            images.append(_reverse_bits(x2, arity)
                          | _reverse_bits(z2, arity) << arity)
            # a letter-form sign changes by i^k and by the change in Ys
            ys = (x & z).bit_count() - (x2 & z2).bit_count()
            flips.append((k + ys) >> 1 & 1)
        columns = range(2 * arity)
        rows = []
        for out in columns:
            inputs = tuple(c for c in columns if images[1 << c] >> out & 1)
            if inputs != (out,):
                rows.append((out, inputs))
        # Moebius transform: the flip's algebraic normal form
        for c in columns:
            for code in range(dim * dim):
                if code >> c & 1:
                    flips[code] ^= flips[code ^ 1 << c]
        monomials = tuple(tuple(c for c in columns if code >> c & 1)
                          for code, bit in enumerate(flips) if bit)
        return tuple(rows), monomials

    def __eq__(self, other) -> bool:
        if not isinstance(other, GateDef):
            return NotImplemented
        return self.name == other.name and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.name, self.matrix))

    def __repr__(self):
        return f"GateDef({self.name})"


def _m(rows) -> ExactMatrix:
    return ExactMatrix.from_rows(rows)


_T_PHASE = ExactScalar(0, 0, Fraction(1, 2), Fraction(1, 2))  # (1+i)/sqrt2
_NEG_HS = ExactScalar(0, 0, Fraction(-1, 2), 0)


def builtin_library() -> dict[str, GateDef]:
    """The ten built-in gates, all with exact Q(i, sqrt2) entries."""
    lib = {}

    def add(name, arity, rows):
        lib[name] = GateDef(name, arity, _m(rows))

    add("I", 1, [[ONE, ZERO], [ZERO, ONE]])
    add("X", 1, [[ZERO, ONE], [ONE, ZERO]])
    add("Y", 1, [[ZERO, -I_UNIT], [I_UNIT, ZERO]])
    add("Z", 1, [[ONE, ZERO], [ZERO, MINUS_ONE]])
    add("H", 1, [[HALF_SQRT2, HALF_SQRT2], [HALF_SQRT2, _NEG_HS]])
    add("S", 1, [[ONE, ZERO], [ZERO, I_UNIT]])
    add("T", 1, [[ONE, ZERO], [ZERO, _T_PHASE]])
    add("CNOT", 2, [[ONE, ZERO, ZERO, ZERO],
                    [ZERO, ONE, ZERO, ZERO],
                    [ZERO, ZERO, ZERO, ONE],
                    [ZERO, ZERO, ONE, ZERO]])
    add("CZ", 2, [[ONE, ZERO, ZERO, ZERO],
                  [ZERO, ONE, ZERO, ZERO],
                  [ZERO, ZERO, ONE, ZERO],
                  [ZERO, ZERO, ZERO, MINUS_ONE]])
    add("SWAP", 2, [[ONE, ZERO, ZERO, ZERO],
                    [ZERO, ZERO, ONE, ZERO],
                    [ZERO, ONE, ZERO, ZERO],
                    [ZERO, ZERO, ZERO, ONE]])
    return lib


LIBRARY = builtin_library()

ONE_QUBIT_GATES = tuple(n for n, g in LIBRARY.items() if g.arity == 1)
TWO_QUBIT_GATES = tuple(n for n, g in LIBRARY.items() if g.arity == 2)


def _store_tuple(part, name: str) -> None:
    """Store a sequence field as a tuple, so that a part built from lists
    equals and hashes like the parsed one; a tuple is kept as it is."""
    value = getattr(part, name)
    if not isinstance(value, tuple):
        object.__setattr__(part, name, tuple(value))


@dataclass(frozen=True)
class CircuitStep:
    gate: GateDef
    targets: tuple[int, ...]

    def __post_init__(self):
        _store_tuple(self, "targets")
        if len(self.targets) != self.gate.arity:
            raise CircuitError(
                f"gate {self.gate.name} takes {self.gate.arity} targets")
        if len(set(self.targets)) != len(self.targets):
            raise DuplicateTarget(
                f"gate {self.gate.name} targets repeat: {self.targets}")


@dataclass(frozen=True)
class InputBlock:
    labels: tuple[int, ...]
    matrix: ExactMatrix

    def __post_init__(self):
        _store_tuple(self, "labels")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateTarget(f"inputblock qubits repeat: {self.labels}")
        try:
            DensityBlock(self.labels, self.matrix).validate()
        except (ValueError, OverflowError) as exc:
            raise CircuitError(f"inputblock: {exc}") from None


@dataclass(frozen=True)
class Circuit:
    width: int
    input_bits: str
    steps: tuple[CircuitStep, ...]
    measured_qubit: int = 0
    input_blocks: tuple[InputBlock, ...] = field(default=())

    def __post_init__(self):
        _store_tuple(self, "steps")
        _store_tuple(self, "input_blocks")
        if self.width < 1:
            raise CircuitError("circuit width must be positive")
        if len(self.input_bits) != self.width or self.input_bits.strip("01"):
            raise CircuitError("input must be a bitstring of circuit width")
        if not 0 <= self.measured_qubit < self.width:
            raise QubitOutOfRange(
                f"measured qubit {self.measured_qubit} out of range")
        for step in self.steps:
            for q in step.targets:
                if not 0 <= q < self.width:
                    raise QubitOutOfRange(
                        f"target {q} out of range for width {self.width}")
        covered = [q for blk in self.input_blocks for q in blk.labels]
        if len(covered) != len(set(covered)):
            raise CircuitError("input blocks overlap")
        for q in covered:
            if not 0 <= q < self.width:
                raise QubitOutOfRange(f"input block qubit {q} out of range")

    def depth(self) -> int:
        return len(self.steps)


# -- text format ---

def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format; diagnostics carry line numbers."""
    gates = dict(LIBRARY)
    width = None
    input_bits = None
    steps: list[CircuitStep] = []
    measured = None
    input_blocks: list[InputBlock] = []

    lines = text.splitlines()
    i = 0

    def fail(lineno, msg, cls=CircuitSyntaxError):
        raise cls(f"line {lineno}: {msg}")

    def build(lineno, make, *args):
        try:
            return make(*args)
        except CircuitError as exc:  # a plain one is a syntax error
            fail(lineno, exc, type(exc) if type(exc) is not CircuitError
                 else CircuitSyntaxError)

    def parse_int(tok, lineno, what):
        try:
            return int(tok)
        except ValueError:
            fail(lineno, f"{what} must be an integer, got {tok!r}")

    def check_qubit(q, lineno):
        if width is None:
            fail(lineno, "qubit reference before 'qubits' line")
        if not 0 <= q < width:
            fail(lineno, f"qubit {q} out of range [0, {width})",
                 QubitOutOfRange)

    def read_matrix_rows(dim, lineno_start, what):
        nonlocal i
        rows = []
        while len(rows) < dim:
            if i >= len(lines):
                fail(lineno_start, f"{what}: expected {dim} matrix rows")
            raw = lines[i].split("#", 1)[0].strip()
            i += 1
            if not raw:
                continue
            cells = raw.split()
            if len(cells) != dim:
                fail(i, f"{what}: expected {dim} entries per row, "
                        f"got {len(cells)}")
            try:
                rows.append([parse_scalar(c) for c in cells])
            except ValueError as exc:
                fail(i, f"{what}: {exc}")
        return ExactMatrix.from_rows(rows)

    while i < len(lines):
        lineno = i + 1
        raw = lines[i].split("#", 1)[0].strip()
        i += 1
        if not raw:
            continue
        toks = raw.split()
        head = toks[0]
        if head == "qubits":
            if width is not None:
                fail(lineno, "duplicate 'qubits' line")
            if len(toks) != 2:
                fail(lineno, "usage: qubits <n>")
            width = parse_int(toks[1], lineno, "qubit count")
            if width < 1:
                fail(lineno, "qubit count must be positive")
        elif head == "input":
            if input_bits is not None:
                fail(lineno, "duplicate 'input' line")
            if len(toks) != 2:
                fail(lineno, "usage: input <bitstring>")
            if width is None:
                fail(lineno, "'input' before 'qubits'")
            if len(toks[1]) != width or toks[1].strip("01"):
                fail(lineno, f"input must be a {width}-bit string")
            input_bits = toks[1]
        elif head == "inputblock":
            if len(toks) != 2:
                fail(lineno, "usage: inputblock <q1,q2,...>")
            labels = tuple(parse_int(t, lineno, "qubit")
                           for t in toks[1].split(","))
            for q in labels:
                check_qubit(q, lineno)
            mat = read_matrix_rows(1 << len(labels), lineno, "inputblock")
            input_blocks.append(build(lineno, InputBlock, labels, mat))
        elif head == "defgate":
            if len(toks) != 3:
                fail(lineno, "usage: defgate <NAME> <arity>")
            name = toks[1]
            arity = parse_int(toks[2], lineno, "arity")
            # before 1 << arity sizes the rows to read
            build(lineno, GateDef.check_signature, name, arity)
            mat = read_matrix_rows(1 << arity, lineno, f"defgate {name}")
            gates[name] = build(lineno, GateDef, name, arity, mat)
        elif head == "gate":
            if len(toks) < 3:
                fail(lineno, "usage: gate <NAME> <q> [<q2>]")
            name = toks[1]
            if name not in gates:
                fail(lineno, f"unknown gate {name!r}", UnknownGate)
            gate = gates[name]
            qs = tuple(parse_int(t, lineno, "qubit") for t in toks[2:])
            for q in qs:
                check_qubit(q, lineno)
            steps.append(build(lineno, CircuitStep, gate, qs))
        elif head == "measure":
            if len(toks) != 2:
                fail(lineno, "usage: measure <q>")
            if measured is not None:
                fail(lineno, "duplicate 'measure' line")
            measured = parse_int(toks[1], lineno, "qubit")
            check_qubit(measured, lineno)
        else:
            fail(lineno, f"unknown directive {head!r}")

    if width is None:
        raise CircuitSyntaxError("missing 'qubits' line")
    if input_bits is None:
        input_bits = "0" * width
    return Circuit(width, input_bits, tuple(steps),
                   measured if measured is not None else 0,
                   tuple(input_blocks))


def _matrix_lines(matrix: ExactMatrix) -> list[str]:
    return [" ".join(matrix.at(r, c).to_text().replace(" ", "")
                     for c in range(matrix.cols))
            for r in range(matrix.rows)]


def serialize_circuit(circuit: Circuit) -> str:
    """Text that parse_circuit reads back to an equal circuit; a gate other
    than the library's gate of its name is written as a defgate before its
    first use."""
    out = [f"qubits {circuit.width}", f"input {circuit.input_bits}"]
    for blk in circuit.input_blocks:
        out.append("inputblock " + ",".join(str(q) for q in blk.labels))
        out.extend(_matrix_lines(blk.matrix))
    gates = dict(LIBRARY)
    for step in circuit.steps:
        gate = step.gate
        if gates.get(gate.name) is not gate:
            out.append(f"defgate {gate.name} {gate.arity}")
            out.extend(_matrix_lines(gate.matrix))
            gates[gate.name] = gate
        out.append("gate " + gate.name + " "
                   + " ".join(str(q) for q in step.targets))
    out.append(f"measure {circuit.measured_qubit}")
    return "\n".join(out) + "\n"


# -- deterministic generators ---

def _fixed_cells(n: int, p: int) -> list[tuple[int, ...]]:
    return [tuple(range(lo, min(lo + p, n))) for lo in range(0, n, p)]


def gen_block_local(n: int, p: int, steps: int, seed: int) -> Circuit:
    """Random circuit whose gates never cross a fixed partition into
    consecutive cells of size <= p, so every prefix state stays p-blocked."""
    if n < p or p < 1:
        raise CircuitError("need n >= p >= 1")
    rng = CounterRng(seed, tag="gen_block_local")
    cells = _fixed_cells(n, p)
    multi_cells = [c for c in cells if len(c) >= 2]
    input_bits = "".join(str(rng.coin_bit()) for _ in range(n))
    out: list[CircuitStep] = []
    for _ in range(steps):
        use_pair = multi_cells and rng.randrange(5) < 3
        if use_pair:
            cell = multi_cells[rng.randrange(len(multi_cells))]
            a = cell[rng.randrange(len(cell))]
            b = a
            while b == a:
                b = cell[rng.randrange(len(cell))]
            name = TWO_QUBIT_GATES[rng.randrange(len(TWO_QUBIT_GATES))]
            out.append(CircuitStep(LIBRARY[name], (a, b)))
        else:
            q = rng.randrange(n)
            name = ONE_QUBIT_GATES[rng.randrange(len(ONE_QUBIT_GATES))]
            out.append(CircuitStep(LIBRARY[name], (q,)))
    return Circuit(n, input_bits, tuple(out))


def gen_entangle_disentangle(n: int, p: int, steps: int, seed: int) -> Circuit:
    """Random circuit that entangles pairs across blocks and disentangles
    them again (each opening gate G paired with a later G^-1), plus classical
    reversible CNOT/CZ moves and SWAPs, so every prefix stays p-blocked.

    Entangling pairs need p >= 2; with p == 1 only moves that preserve full
    product structure are emitted (basis-controlled CNOT/CZ, SWAP, 1-qubit
    gates)."""
    if n < 2:
        raise CircuitError("need n >= 2")
    rng = CounterRng(seed, tag="gen_entangle_disentangle")
    input_bits = "".join(str(rng.coin_bit()) for _ in range(n))
    # tracked abstraction: basis value per qubit (None once in superposition)
    # and open entangled pairs.  Members of an open pair are frozen until the
    # pair closes, so the closing gate is an exact inverse and every qubit
    # outside open pairs is an exact single-qubit factor.
    basis: list[int | None] = [int(b) for b in input_bits]
    open_pairs: list[tuple[str, int, int, int | None, int | None]] = []
    frozen: set[int] = set()
    out: list[CircuitStep] = []

    while len(out) < steps:
        free = [q for q in range(n) if q not in frozen]
        moves = []
        if free:
            moves.append("single")
        if len(free) >= 2:
            moves.append("swap")
            if any(basis[q] is not None for q in free):
                moves.append("classical2")
            if p >= 2:
                moves += ["open", "open"]
        if open_pairs:
            moves += ["close", "close"]
        move = moves[rng.randrange(len(moves))]
        if move == "single":
            q = free[rng.randrange(len(free))]
            name = ONE_QUBIT_GATES[rng.randrange(len(ONE_QUBIT_GATES))]
            out.append(CircuitStep(LIBRARY[name], (q,)))
            if name == "H":
                basis[q] = None
            elif name in ("X", "Y") and basis[q] is not None:
                basis[q] ^= 1
        elif move == "swap":
            a = free[rng.randrange(len(free))]
            b = a
            while b == a:
                b = free[rng.randrange(len(free))]
            out.append(CircuitStep(LIBRARY["SWAP"], (a, b)))
            basis[a], basis[b] = basis[b], basis[a]
        elif move == "classical2":
            known = [q for q in free if basis[q] is not None]
            c = known[rng.randrange(len(known))]
            others = [q for q in free if q != c]
            t = others[rng.randrange(len(others))]
            if rng.coin_bit():
                out.append(CircuitStep(LIBRARY["CNOT"], (c, t)))
                if basis[c] == 1 and basis[t] is not None:
                    basis[t] ^= 1
            else:
                out.append(CircuitStep(LIBRARY["CZ"], (c, t)))
        elif move == "open":
            a = free[rng.randrange(len(free))]
            b = a
            while b == a:
                b = free[rng.randrange(len(free))]
            name = "CNOT" if rng.coin_bit() else "CZ"
            out.append(CircuitStep(LIBRARY[name], (a, b)))
            open_pairs.append((name, a, b, basis[a], basis[b]))
            frozen.update((a, b))
            basis[a] = basis[b] = None
        else:  # close
            name, a, b, ba, bb = open_pairs.pop(rng.randrange(len(open_pairs)))
            out.append(CircuitStep(LIBRARY[name], (a, b)))
            frozen.difference_update((a, b))
            basis[a], basis[b] = ba, bb
    return Circuit(n, input_bits, tuple(out[:steps]))
