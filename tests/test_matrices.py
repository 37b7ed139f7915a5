"""Matrix core: exact products, tensor structure, trace norm, reductions."""

from fractions import Fraction

import pytest

from pblocksim.exact import ExactScalar, ZERO, ONE, HALF_SQRT2, I_UNIT
from pblocksim.matrices import (ExactMatrix, DensityBlock, DimensionMismatch,
                                NotHermitian, BadPermutation, mat_mul,
                                is_unitary, kron_blocks, reduced_state,
                                trace_norm_float, is_psd, is_hermitian)
from pblocksim.circuits import LIBRARY
from pblocksim.blocked import conjugate_block
from pblocksim.prng import CounterRng

from helpers import (char_poly, poly_eval, density_from_statevector,
                     full_gate, kron, product_of_marginals,
                     random_exact_scalar, random_pure_density,
                     random_mixed_density, reduced_by_definition,
                     relabel_reorder)

HALF = ExactScalar(Fraction(1, 2))
QUARTER = ExactScalar(Fraction(1, 4))


def bell_density() -> ExactMatrix:
    amps = [HALF_SQRT2, ZERO, ZERO, HALF_SQRT2]
    return density_from_statevector(amps)


def random_matrix(rng, rows, cols) -> ExactMatrix:
    return ExactMatrix(rows, cols,
                       [random_exact_scalar(rng, 8) for _ in range(rows * cols)])


class TestMatMul:
    def test_identity(self):
        rng = CounterRng(20, "matmul")
        a = random_matrix(rng, 4, 4)
        assert mat_mul(ExactMatrix.identity(4), a) == a

    def test_h_involution(self):
        h = LIBRARY["H"].matrix
        assert mat_mul(h, h) == ExactMatrix.identity(2)

    def test_x_flips_column(self):
        ket0 = ExactMatrix(2, 1, [ONE, ZERO])
        ket1 = ExactMatrix(2, 1, [ZERO, ONE])
        assert mat_mul(LIBRARY["X"].matrix, ket0) == ket1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(ExactMatrix.identity(2), ExactMatrix.identity(4))


# kron and relabel_reorder are the test oracles from helpers; these pin them
class TestKron:
    def test_identities(self):
        assert kron(ExactMatrix.identity(2), ExactMatrix.identity(2)) == \
            ExactMatrix.identity(4)

    def test_basis_projectors(self):
        p0 = ExactMatrix(2, 2, [ONE, ZERO, ZERO, ZERO])
        p1 = ExactMatrix(2, 2, [ZERO, ZERO, ZERO, ONE])
        out = kron(p0, p1)  # |01><01|
        expect = ExactMatrix.zeros(4, 4)
        expect.entries[1 * 4 + 1] = ONE
        assert out == expect

    def test_entry_formula(self):
        rng = CounterRng(21, "kron")
        a = random_matrix(rng, 2, 3)
        b = random_matrix(rng, 3, 2)
        out = kron(a, b)
        for i in range(2):
            for j in range(3):
                for k in range(3):
                    for l in range(2):
                        assert out.at(i * 3 + k, j * 2 + l) == \
                            a.at(i, j) * b.at(k, l)


@pytest.mark.parametrize("label_sets, labels", [
    (((1,), (2,)), (1, 2, 2)),     # a repeated label
    (((1,), (1,)), (1, 1)),        # repeated, and on two blocks
    (((1,), (2,)), (1,)),          # a block's label missing
    (((1,), (2,)), (1, 3)),        # a label missing, another in its place
    (((1,), (2,)), (1, 2, 3)),     # a label no block holds
    (((1,), (1,)), (1, 2)),        # two blocks share a label, count matches
    (((1, 2), (2,)), (1, 2, 3)),   # shared across sizes, count matches
    (((1, 2), (2,)), (1, 2)),      # every label held, one of them twice
])
def test_kron_blocks_refuses_what_is_not_a_permutation(label_sets, labels):
    blocks = [DensityBlock(ls, nonzeros={0: ONE}) for ls in label_sets]
    with pytest.raises(BadPermutation):
        kron_blocks(blocks, labels)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = DensityBlock((0, 1), bell_density())
        marginal = reduced_state(rho.labels, rho.nonzeros, (0,))
        expect = ExactMatrix(2, 2, [HALF, ZERO, ZERO, HALF])
        assert marginal.matrix == expect

    def test_product_reduces_to_factor(self):
        rng = CounterRng(22, "ptrace")
        for _ in range(10):
            rho1 = random_pure_density(rng, 1)
            rho2 = random_mixed_density(rng, 2)
            joint = DensityBlock((0, 1, 2), kron(rho1.matrix, rho2.matrix))
            back = reduced_state(joint.labels, joint.nonzeros, (0,))
            assert back.matrix == rho1.matrix
            back2 = reduced_state(joint.labels, joint.nonzeros, (1, 2))
            assert back2.matrix == rho2.matrix

    def test_trace_preserved(self):
        rng = CounterRng(23, "ptrace_tr")
        for _ in range(10):
            rho = random_mixed_density(rng, 3)
            red = reduced_state(rho.labels, rho.nonzeros, (0, 2))
            assert red.matrix.trace() == ONE


class TestTraceNorm:
    def test_z_difference(self):
        m = ExactMatrix(2, 2, [ONE, ZERO, ZERO, -ONE])
        assert abs(trace_norm_float(m) - 2.0) <= 1e-10

    def test_sum_is_correctly_rounded(self):
        """diag(1, 10**16, -1): a left-to-right float sum loses both ones,
        a correctly rounded one returns the exact 10**16 + 2 on every
        Python version."""
        m = ExactMatrix(3, 3, [ONE, ZERO, ZERO,
                               ZERO, ExactScalar(Fraction(10 ** 16)), ZERO,
                               ZERO, ZERO, -ONE])
        assert trace_norm_float(m) == 10 ** 16 + 2

    def test_density_norm_is_one(self):
        rng = CounterRng(24, "tnorm")
        for _ in range(10):
            rho = random_mixed_density(rng, 2)
            assert abs(trace_norm_float(rho.matrix) - 1.0) <= 1e-10

    def test_bell_minus_maximally_mixed(self):
        diff = bell_density().sub(ExactMatrix.identity(4).scale(QUARTER))
        assert abs(trace_norm_float(diff) - 1.5) <= 1e-10

    def test_bell_minus_mixed_eigable_by_char_poly(self):
        """Independent eigenvalue check: the characteristic polynomial of
        Bell - I/4 has roots 3/4 and -1/4 (triple)."""
        diff = bell_density().sub(ExactMatrix.identity(4).scale(QUARTER))
        coeffs = char_poly(diff)
        assert poly_eval(coeffs, Fraction(3, 4)) == 0
        assert poly_eval(coeffs, Fraction(-1, 4)) == 0
        # multiplicity 3: second derivative also vanishes at -1/4
        d1 = [c * (len(coeffs) - 1 - k) for k, c in enumerate(coeffs[:-1])]
        d2 = [c * (len(d1) - 1 - k) for k, c in enumerate(d1[:-1])]
        assert poly_eval(d1, Fraction(-1, 4)) == 0
        assert poly_eval(d2, Fraction(-1, 4)) == 0

    def test_zero_matrices_have_norm_zero(self):
        """The shared ZERO passes by identity, a fresh zero by value."""
        for entries in ([ZERO] * 4, [ExactScalar(0)] * 4,
                        [ZERO, ExactScalar(0), ZERO, ZERO]):
            assert trace_norm_float(ExactMatrix(2, 2, entries)) == 0.0
        with pytest.raises(NotHermitian):
            trace_norm_float(ExactMatrix(1, 2, [ZERO, ZERO]))

    def test_rejects_non_hermitian(self):
        m = ExactMatrix(2, 2, [ZERO, ONE, ZERO, ZERO])
        with pytest.raises(NotHermitian):
            trace_norm_float(m)

    def test_unitary_conjugation_invariance(self):
        rng = CounterRng(25, "tnorm_u")
        h = LIBRARY["H"].matrix
        cnot = LIBRARY["CNOT"].matrix
        u = mat_mul(kron(h, ExactMatrix.identity(2)), cnot)
        for _ in range(8):
            rho = random_mixed_density(rng, 2)
            sigma = random_mixed_density(rng, 2)
            diff = rho.matrix.sub(sigma.matrix)
            conj = mat_mul(mat_mul(u, diff), u.dagger())
            assert abs(trace_norm_float(diff) - trace_norm_float(conj)) <= 1e-9

    @pytest.mark.parametrize("qubits", [3, 4, 5])
    def test_known_spectrum_at_block_sizes(self, qubits):
        """U diag(lam) U^dagger with an exact U from H, T, S and CNOT: the
        off-diagonal entries carry complex phases, the spectrum has negative
        entries and a repeated one."""
        dim = 1 << qubits
        labels = tuple(range(qubits))
        gates = ([("H", (q,)) for q in labels]
                 + [("T", (q,)) for q in labels]
                 + [("CNOT", (q, q + 1)) for q in labels[:-1]]
                 + [("S", (0,)), ("H", (qubits - 1,)), ("T", (qubits - 1,)),
                    ("H", (0,))])
        u = ExactMatrix.identity(dim)
        for name, targets in gates:
            u = mat_mul(full_gate(LIBRARY[name].matrix, labels, targets), u)
        assert is_unitary(u)
        lam = [Fraction(i - dim // 3, 5) for i in range(dim)]
        lam[1] = lam[0]
        diag = ExactMatrix.zeros(dim, dim)
        for i, x in enumerate(lam):
            diag.entries[i * dim + i] = ExactScalar(x)
        h = mat_mul(mat_mul(u, diag), u.dagger())
        assert sum(not e.is_real() for e in h.entries) > dim
        assert abs(trace_norm_float(h) - float(sum(map(abs, lam)))) <= 1e-9
        # shifted by min(lam) the spectrum is >= 0 with a zero; by a hair
        # more one eigenvalue is -1e-12
        assert not is_psd(h)
        for shift, psd in ((min(lam), True),
                           (min(lam) + Fraction(1, 10 ** 12), False)):
            moved = h.sub(ExactMatrix.identity(dim).scale(ExactScalar(shift)))
            assert is_psd(moved) is psd

    def test_contractivity_under_partial_trace(self):
        rng = CounterRng(26, "contract")
        for _ in range(10):
            rho = random_mixed_density(rng, 2)
            sigma = random_mixed_density(rng, 2)
            whole = trace_norm_float(rho.matrix.sub(sigma.matrix))
            ra = reduced_by_definition(rho, (0,))
            sa = reduced_by_definition(sigma, (0,))
            part = trace_norm_float(ra.matrix.sub(sa.matrix))
            assert part <= whole + 1e-9


class TestUnitaryCheck:
    def test_library_gates(self):
        for gate in LIBRARY.values():
            assert is_unitary(gate.matrix)

    def test_diagonal_shrink_rejected(self):
        m = ExactMatrix(2, 2, [ONE, ZERO, ZERO, HALF])
        assert not is_unitary(m)


class TestMatEq:
    def test_reflexive(self):
        rng = CounterRng(27, "mateq")
        a = random_matrix(rng, 3, 3)
        assert a == ExactMatrix(3, 3, list(a.entries))

    def test_bell_is_not_product_of_marginals(self):
        rho = DensityBlock((0, 1), bell_density())
        product = product_of_marginals(rho, [(0,), (1,)])
        assert product.matrix != rho.matrix


class TestRelabelReorder:
    def test_identity_permutation(self):
        rng = CounterRng(28, "relabel")
        rho = random_mixed_density(rng, 2)
        assert relabel_reorder(rho, rho.labels).matrix == rho.matrix

    def test_swap_product_factors(self):
        rng = CounterRng(29, "relabel_swap")
        r0 = random_pure_density(rng, 1)
        r1 = random_mixed_density(rng, 1)
        a = DensityBlock((0,), r0.matrix)
        b = DensityBlock((1,), r1.matrix)
        joint = DensityBlock((0, 1), kron(a.matrix, b.matrix))
        swapped = relabel_reorder(joint, (1, 0))
        assert swapped.matrix == kron(b.matrix, a.matrix)

    def test_involution(self):
        rng = CounterRng(30, "relabel_inv")
        rho = random_mixed_density(rng, 3)
        perm = (2, 0, 1)
        there = relabel_reorder(rho, tuple(rho.labels[i] for i in perm))
        back = relabel_reorder(there, rho.labels)
        assert back.matrix == rho.matrix

    def test_bad_permutation(self):
        rng = CounterRng(31, "relabel_bad")
        rho = random_mixed_density(rng, 2)
        with pytest.raises(BadPermutation):
            relabel_reorder(rho, (0, 0))


def test_partial_trace_kron_inverse_property():
    rng = CounterRng(32, "pt_kron")
    for _ in range(6):
        r1 = random_mixed_density(rng, 2)
        r2 = random_pure_density(rng, 1)
        joint = DensityBlock((0, 1, 2),
                             kron(r1.matrix, r2.matrix))
        back = reduced_state(joint.labels, joint.nonzeros, (0, 1))
        assert back.matrix == r1.matrix


def test_conjugate_block_positions():
    """A CNOT on targets (9, 4) of the block (4, 7, 9): out of order and
    not adjacent, so each 4x4 tile gathers index bit 1 (the control, 9)
    and index bit 4 (the target, 4)."""
    cnot = LIBRARY["CNOT"]
    labels = (4, 7, 9)
    # |b4 b7 b9> = |0 0 1>: control 9 is set, so target 4 flips to |1 0 1>
    rho = DensityBlock(labels, density_from_statevector(
        [ONE if i == 1 else ZERO for i in range(8)]))
    out = conjugate_block(rho, cnot, (9, 4)).matrix
    assert out.at(5, 5) == ONE
    assert sum(not x.is_zero() for x in out.entries) == 1
    # |1 0 0>: control 9 is clear, so nothing flips
    rho = DensityBlock(labels, density_from_statevector(
        [ONE if i == 4 else ZERO for i in range(8)]))
    assert conjugate_block(rho, cnot, (9, 4)).matrix == rho.matrix
    # a mixed block against the full gate, which the tiles never build
    rho = DensityBlock(labels, random_mixed_density(
        CounterRng(13, "conjugate"), 3).matrix)
    full = full_gate(cnot.matrix, labels, (9, 4))
    assert conjugate_block(rho, cnot, (9, 4)).matrix == \
        mat_mul(mat_mul(full, rho.matrix), full.dagger())


def test_repr_keeps_the_nonzero_map():
    """Printing a block builds a view it does not keep, so the block goes
    on answering from the same map."""
    block = conjugate_block(DensityBlock((3,), nonzeros={0: ONE}),
                            LIBRARY["H"], (3,))
    nonzeros = block.nonzeros
    assert repr(block) == \
        "DensityBlock(labels=(3,), ExactMatrix(2x2: 1/2 1/2; 1/2 1/2))"
    assert block.nonzeros is nonzeros


def test_density_block_validation():
    good = DensityBlock((0,), ExactMatrix(2, 2, [HALF, ZERO, ZERO, HALF]))
    good.validate()
    bad_trace = DensityBlock((0,), ExactMatrix(2, 2, [ONE, ZERO, ZERO, ONE]))
    with pytest.raises(ValueError):
        bad_trace.validate()
    not_herm = DensityBlock((0,), ExactMatrix(2, 2, [HALF, ONE, ZERO, HALF]))
    with pytest.raises(NotHermitian):
        not_herm.validate()


def test_is_hermitian_is_the_definition():
    """M == M^dagger on sparse matrices that hold the shared ZERO, zeros
    made by arithmetic and nonzero entries facing either kind of zero."""
    rng = CounterRng(31, "hermitian")
    made_zero = ONE - ONE
    seen = set()
    for _ in range(400):
        n = 1 + rng.randrange(5)
        pool = [ZERO, ZERO, ZERO, made_zero, random_exact_scalar(rng, 3)]
        entries = [pool[rng.randrange(len(pool))] for _ in range(n * n)]
        if rng.coin_bit():  # mirror the lower triangle into the upper
            for i in range(n):
                for j in range(i):
                    entries[j * n + i] = entries[i * n + j].conjugate()
        m = ExactMatrix(n, n, entries)
        want = m == m.dagger()
        assert is_hermitian(m) == want, m
        seen.add(want)
    assert seen == {True, False}
    assert not is_hermitian(ExactMatrix(1, 2, [ONE, ONE]))


def test_density_block_psd_is_exact():
    """Each rejected block has one eigenvalue of about -1e-12, which a
    float check within a tolerance would pass."""
    tiny = ExactScalar(Fraction(1, 10 ** 12))
    micro = ExactScalar(Fraction(1, 10 ** 6))
    plus = ExactScalar(Fraction(1, 2))
    rejected = [
        ExactMatrix(2, 2, [ONE + tiny, ZERO, ZERO, ZERO - tiny]),
        # a zero pivot with a nonzero remaining row
        ExactMatrix(2, 2, [ZERO, micro, micro, ONE]),
        ExactMatrix(2, 2, [ZERO, micro * I_UNIT, ZERO - micro * I_UNIT, ONE]),
    ]
    for matrix in rejected:
        with pytest.raises(ValueError, match="not positive semidefinite"):
            DensityBlock((0,), matrix).validate()
    # |+><+| and |0><0| x |+><+|: zero pivots with zero rows
    pure = ExactMatrix(2, 2, [plus] * 4)
    DensityBlock((0,), pure).validate()
    DensityBlock((0, 1), kron(ExactMatrix(2, 2, [ONE, ZERO, ZERO, ZERO]),
                              pure)).validate()
    rng = CounterRng(27, "psd")
    for k in (1, 2, 3):
        random_mixed_density(rng, k).validate()
