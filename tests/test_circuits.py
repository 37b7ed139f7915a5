"""Gate library, circuit text format, and the seeded generators."""

from fractions import Fraction

import pytest

from pblocksim.exact import ExactScalar, ZERO, ONE, I_UNIT
from pblocksim.matrices import mat_mul, ExactMatrix, is_unitary
from pblocksim.circuits import (LIBRARY, builtin_library, parse_circuit,
                                serialize_circuit, gen_block_local,
                                gen_entangle_disentangle, CircuitError,
                                CircuitSyntaxError, UnknownGate,
                                QubitOutOfRange, DuplicateTarget, GateDef,
                                InputBlock, Circuit, _fixed_cells)

BELL_TEXT = "qubits 2\ninput 00\ngate H 0\ngate CNOT 0 1\nmeasure 0\n"

DEFGATE_TEXT = """qubits 3
input 010
defgate SX 1
1/2+1/2*i 1/2-1/2*i
1/2-1/2*i 1/2+1/2*i
gate SX 0
gate CNOT 0 1
defgate CS 2
1 0 0 0
0 1 0 0
0 0 1 0
0 0 0 i
gate CS 1 2
defgate H 1
0 1
1 0
gate H 2
gate SX 2
measure 2
"""

INPUTBLOCK_TEXT = """qubits 3
input 001
inputblock 2,0
1/2 0 0 1/4*r2
0 0 0 0
0 0 0 0
1/4*r2 0 0 1/2
gate H 1
gate CNOT 1 0
measure 1
"""


class TestLibrary:
    def test_exact_names(self):
        assert set(builtin_library()) == \
            {"I", "X", "Y", "Z", "H", "S", "T", "CNOT", "CZ", "SWAP"}

    def test_s_matrix(self):
        s = LIBRARY["S"].matrix
        assert s.at(0, 0) == ONE and s.at(1, 1) == I_UNIT
        assert s.at(0, 1) == ZERO and s.at(1, 0) == ZERO

    def test_h_involution(self):
        h = LIBRARY["H"].matrix
        assert mat_mul(h, h) == ExactMatrix.identity(2)

    def test_all_unitary(self):
        for gate in LIBRARY.values():
            assert is_unitary(gate.matrix), gate.name

    def test_non_unitary_gate_rejected(self):
        bad = ExactMatrix(2, 2, [ONE, ZERO, ZERO, ExactScalar(2)])
        with pytest.raises(CircuitError):
            GateDef("BAD", 1, bad)


def _diagonal(*values):
    dim = len(values)
    entries = [ZERO] * (dim * dim)
    for i, v in enumerate(values):
        entries[i * dim + i] = ExactScalar(v)
    return ExactMatrix(dim, dim, entries)


class TestPartsCheckThemselves:
    """A part built in code is refused where the parser refuses its text."""

    @pytest.mark.parametrize("matrix", [
        _diagonal(1, 0),                     # |0><0|, one qubit's size
        _diagonal(1, 0, 0, 0, 0, 0, 0, 0),   # |000><000|, three qubits'
        _diagonal(1, 1, 0, 0),               # trace 2
        _diagonal(Fraction(3, 2), Fraction(-1, 2), 0, 0),  # negative
    ], ids=["2x2", "8x8", "trace-2", "negative"])
    def test_input_block_must_be_a_density_of_its_size(self, matrix):
        with pytest.raises(CircuitError, match="inputblock: "):
            InputBlock((0, 1), matrix)

    def test_input_block_labels_must_differ(self):
        with pytest.raises(DuplicateTarget):
            InputBlock((1, 1), _diagonal(1, 0, 0, 0))

    @pytest.mark.parametrize("name", ["my gate", "", "a#b", "#", "x\ny",
                                      " X"])
    def test_gate_name_is_one_token_without_hash(self, name):
        with pytest.raises(CircuitError, match="gate name"):
            GateDef(name, 1, LIBRARY["X"].matrix)

    @pytest.mark.parametrize("arity", [0, 3])
    def test_arity_is_bounded_by_one_constant(self, arity):
        assert arity not in GateDef.ARITIES
        with pytest.raises(CircuitError, match="arity must be 1 or 2"):
            GateDef("G", arity, ExactMatrix.identity(1 << arity))


# Malformed files, each with the class of its error and the line it names
MALFORMED = {
    "target-count": ("qubits 2\n\ngate CNOT 0\n",
                     CircuitSyntaxError, 3),
    "repeated-targets": ("# c\nqubits 2\ngate CNOT 1 1\n",
                         DuplicateTarget, 3),
    "repeated-labels": ("qubits 2\ninputblock 1,1\n1 0 0 0\n0 0 0 0\n"
                        "0 0 0 0\n0 0 0 0\n", DuplicateTarget, 2),
    "non-unitary": ("qubits 1\ndefgate BAD 1\n1 0\n0 2\ngate BAD 0\n",
                    CircuitSyntaxError, 2),
    "arity-0": ("qubits 1\ndefgate G 0\n1\n", CircuitSyntaxError, 2),
    "arity-3": ("qubits 3\ndefgate G 3\n"
                + "".join(" ".join("1" if c == r else "0" for c in range(8))
                          + "\n" for r in range(8)),
                CircuitSyntaxError, 2),
    "trace-2": ("qubits 1\ninputblock 0\n1 0\n0 1\n",
                CircuitSyntaxError, 2),
    "not-hermitian": ("qubits 1\ninput 1\ninputblock 0\n1/2 1\n0 1/2\n",
                      CircuitSyntaxError, 3),
    "negative": ("qubits 1\ninputblock 0\n3/2 0\n0 -1/2\n",
                 CircuitSyntaxError, 2),
    "gate-out-of-range": ("qubits 2\ngate H 0\ngate CNOT 0 2\n",
                          QubitOutOfRange, 3),
    "block-out-of-range": ("qubits 2\ninputblock 2\n1 0\n0 0\n",
                           QubitOutOfRange, 2),
    "measure-out-of-range": ("qubits 2\nmeasure 2\n", QubitOutOfRange, 2),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_files_keep_their_class_and_line(name):
    text, cls, lineno = MALFORMED[name]
    with pytest.raises(CircuitError, match=f"^line {lineno}: ") as info:
        parse_circuit(text)
    assert type(info.value) is cls


@pytest.mark.parametrize("bits", ["x01", "0x1", "01x", "0 1"],
                         ids=["start", "middle", "end", "space"])
def test_input_bits_hold_only_zeros_and_ones(bits):
    """A wrong character is refused wherever it sits, in code and in a
    file alike; a file's space splits the line into too many words."""
    with pytest.raises(CircuitError,
                       match="^input must be a bitstring of circuit width$"):
        Circuit(3, bits, ())
    message = "usage: input <bitstring>" if " " in bits \
        else "input must be a 3-bit string"
    with pytest.raises(CircuitSyntaxError, match=f"^line 2: {message}$"):
        parse_circuit(f"qubits 3\ninput {bits}\nmeasure 0\n")


class TestParse:
    def test_bell(self):
        c = parse_circuit(BELL_TEXT)
        assert c.width == 2
        assert c.input_bits == "00"
        assert c.depth() == 2
        assert [s.gate.name for s in c.steps] == ["H", "CNOT"]
        assert c.measured_qubit == 0

    def test_comments_and_blanks(self):
        text = "# prep\nqubits 1\n\ninput 1  # one qubit\ngate X 0\n"
        c = parse_circuit(text)
        assert c.input_bits == "1"
        assert c.measured_qubit == 0  # default

    def test_duplicate_target(self):
        with pytest.raises(DuplicateTarget):
            parse_circuit("qubits 2\ngate CNOT 0 0\n")

    def test_unknown_gate(self):
        with pytest.raises(UnknownGate):
            parse_circuit("qubits 1\ngate FOO 0\n")

    def test_out_of_range(self):
        with pytest.raises(QubitOutOfRange):
            parse_circuit("qubits 2\ngate H 5\n")

    def test_syntax_error_carries_line(self):
        with pytest.raises(CircuitSyntaxError, match="line 3"):
            parse_circuit("qubits 2\ninput 00\nbogus stuff\n")

    def test_repeated_header_lines_rejected(self):
        for text, message in (
                ("qubits 2\nqubits 2\n", "line 2: duplicate 'qubits' line"),
                ("qubits 2\ninput 01\ninput 10\n",
                 "line 3: duplicate 'input' line"),
                ("qubits 2\nmeasure 0\nmeasure 1\n",
                 "line 3: duplicate 'measure' line")):
            with pytest.raises(CircuitSyntaxError, match=message):
                parse_circuit(text)

    def test_missing_qubits(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("gate H 0\n")

    def test_defgate_loads_and_applies(self):
        text = ("qubits 1\n"
                "defgate MYZ 1\n"
                "1 0\n"
                "0 -1\n"
                "gate MYZ 0\n")
        c = parse_circuit(text)
        assert c.steps[0].gate.name == "MYZ"
        assert c.steps[0].gate.matrix == LIBRARY["Z"].matrix

    def test_defgate_requires_exact_unitarity(self):
        # a rational approximation of a rotation is not exactly unitary
        text = ("qubits 1\n"
                "defgate ALMOST 1\n"
                "707/1000 -707/1000\n"
                "707/1000 707/1000\n")
        with pytest.raises(CircuitSyntaxError, match="unitary"):
            parse_circuit(text)

    def test_defgate_unparseable_entry(self):
        text = "qubits 1\ndefgate W 1\ncos(pi/8) 0\n0 1\n"
        with pytest.raises(CircuitSyntaxError):
            parse_circuit(text)

    def test_inputblock_mixed(self):
        text = ("qubits 2\n"
                "input 00\n"
                "inputblock 0\n"
                "1/2 0\n"
                "0 1/2\n"
                "gate X 1\n"
                "measure 0\n")
        c = parse_circuit(text)
        assert len(c.input_blocks) == 1
        assert c.input_blocks[0].labels == (0,)

    def test_inputblock_must_be_density(self):
        text = ("qubits 1\n"
                "inputblock 0\n"
                "1 0\n"
                "0 1\n")
        with pytest.raises(CircuitSyntaxError):
            parse_circuit(text)


class TestRoundTrip:
    def test_bell_roundtrip(self):
        c = parse_circuit(BELL_TEXT)
        again = parse_circuit(serialize_circuit(c))
        assert again == c

    def test_corpus_roundtrip(self):
        """Parse/serialize round-trips on a couple dozen generated circuits."""
        circuits = []
        for seed in range(12):
            circuits.append(gen_block_local(6, 2, 30, seed))
            circuits.append(gen_entangle_disentangle(5, 2, 30, seed))
        assert len(circuits) >= 20
        circuits.append(parse_circuit(DEFGATE_TEXT))
        circuits.append(parse_circuit(INPUTBLOCK_TEXT))
        for c in circuits:
            assert parse_circuit(serialize_circuit(c)) == c


class TestGenerators:
    def test_deterministic(self):
        a = gen_block_local(6, 2, 50, 1)
        b = gen_block_local(6, 2, 50, 1)
        assert a == b
        c = gen_entangle_disentangle(6, 2, 50, 1)
        d = gen_entangle_disentangle(6, 2, 50, 1)
        assert c == d
        assert gen_block_local(6, 2, 50, 2) != a

    def test_block_local_p1_only_single_qubit(self):
        c = gen_block_local(4, 1, 20, 3)
        assert all(s.gate.arity == 1 for s in c.steps)

    def test_block_local_gates_stay_in_cells(self):
        c = gen_block_local(9, 3, 80, 5)
        cells = _fixed_cells(9, 3)
        cell_of = {}
        for idx, cell in enumerate(cells):
            for q in cell:
                cell_of[q] = idx
        for s in c.steps:
            assert len({cell_of[q] for q in s.targets}) == 1

    def test_requested_length(self):
        assert gen_block_local(5, 2, 37, 9).depth() == 37
        assert gen_entangle_disentangle(5, 2, 37, 9).depth() == 37
