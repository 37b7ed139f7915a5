"""Independent reference implementations the tests check the engines against.

Everything here deliberately avoids the code paths under test: partitions
are enumerated by plain recursion, blockedness is decided by full density
matrix comparison or, for an equal-amplitude support, by counting the
projections of the support, a factor test by every 2 x 2 minor of a dense
matrix, a partial trace sums the terms of its definition over
indices put together bit by bit, the approx projection is scored with
fresh partial traces and plain scalar arithmetic, tensor factors are
placed and gates widened by per-bit loops of their own, reversible circuits
are evaluated at the bit level, and eigenvalues come from exact
characteristic polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from pblocksim.approx import TIE_RTOL
from pblocksim.exact import ExactScalar, ZERO, ONE
from pblocksim.matrices import (ExactMatrix, DensityBlock, BadPermutation,
                                mat_mul, trace_norm_float)
from pblocksim.circuits import (Circuit, CircuitStep, GateDef, LIBRARY,
                                parse_circuit)
from pblocksim.prng import CounterRng


def all_partitions(items, max_size):
    """Every partition of `items` with parts of size <= max_size; plain
    head-recursion, no ordering guarantees."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for take in range(0, min(max_size - 1, len(rest)) + 1):
        for chosen in combinations(rest, take):
            part = tuple(sorted((head,) + chosen))
            left = [x for x in rest if x not in chosen]
            for tail in all_partitions(left, max_size):
                yield [part] + tail


def full_amps(state) -> list[ExactScalar]:
    """The dense engine's nonzero amplitudes as a full 2^n list."""
    return [state.amps.get(i, ZERO) for i in range(1 << state.width)]


def density_from_statevector(amps: list[ExactScalar]) -> ExactMatrix:
    dim = len(amps)
    ent = [ZERO] * (dim * dim)
    for i, ai in enumerate(amps):
        if ai.is_zero():
            continue
        for j, aj in enumerate(amps):
            if not aj.is_zero():
                ent[i * dim + j] = ai * aj.conjugate()
    return ExactMatrix(dim, dim, ent)


def brute_blockedness(amps: list[ExactScalar], width: int, p: int):
    """First partition (finest first) whose reduced-state product equals
    the full density matrix exactly; None when there is none.  O(Bell(n))
    density-matrix work: for small widths only."""
    rho = DensityBlock(tuple(range(width)), density_from_statevector(amps))
    best = None
    for parts in all_partitions(range(width), p):
        parts = sorted(tuple(p_) for p_ in parts)
        if product_of_marginals(rho, parts).matrix == rho.matrix:
            if best is None or len(parts) > len(best):
                best = parts
    return best


def brute_support_blockedness(support, width: int, p: int):
    """Finest partition of bit positions (parts <= p) over which an
    equal-amplitude support factors, by set counting: the support is a
    product over a partition exactly when its projections onto the parts'
    bits have sizes that multiply to its own size.  Every partition is
    tried, most parts first; None when none passes."""
    support = set(support)
    candidates = sorted((sorted(parts)
                         for parts in all_partitions(range(width), p)),
                        key=lambda parts: (-len(parts), parts))
    for parts in candidates:
        total = 1
        for part in parts:
            mask = sum(1 << q for q in part)
            total *= len({x & mask for x in support})
        if total == len(support):
            return parts
    return None


def rank_one_by_minors(nonzeros: dict, mask: int, bits: int, zero) -> bool:
    """Whether the values keyed by `bits`-bit index, laid out as the dense
    2^|mask| x 2^(bits-|mask|) matrix whose row is chosen by the index bits
    in `mask` and whose column by the rest (absent entries `zero`), have
    rank one: some entry is nonzero and every 2 x 2 minor vanishes."""
    row_bits = [b for b in range(bits) if mask >> b & 1]
    col_bits = [b for b in range(bits) if not mask >> b & 1]

    def spread(i, positions):
        return sum((i >> j & 1) << b for j, b in enumerate(positions))

    m = [[nonzeros.get(spread(r, row_bits) | spread(c, col_bits), zero)
          for c in range(1 << len(col_bits))]
         for r in range(1 << len(row_bits))]
    if all(x == zero for row in m for x in row):
        return False
    return all(m[r][c] * m[s][d] == m[r][d] * m[s][c]
               for r, s in combinations(range(len(m)), 2)
               for c, d in combinations(range(len(m[0])), 2))


def _bit_of(index: int, width: int, position: int) -> int:
    """Bit of `index` at `position` (0 is the most significant)."""
    return (index >> (width - 1 - position)) & 1


def reorder_bits(matrix: ExactMatrix, labels, new_labels) -> ExactMatrix:
    """`matrix` on the ordered `labels`, with its tensor factors moved into
    the order of `new_labels`, one index bit at a time."""
    labels, new_labels = tuple(labels), tuple(new_labels)
    k = len(labels)
    dim = 1 << k

    def old_index(new):
        old = 0
        for new_p, label in enumerate(new_labels):
            if _bit_of(new, k, new_p):
                old |= 1 << (k - 1 - labels.index(label))
        return old

    return ExactMatrix(dim, dim, [matrix.at(old_index(r), old_index(c))
                                  for r in range(dim) for c in range(dim)])


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Tensor product; the first factor supplies the high-order index bits."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [ZERO] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.entries[i * a.cols + j]
            if aij.is_zero():
                continue
            for k in range(b.rows):
                orow = (i * b.rows + k) * cols + j * b.cols
                brow = k * b.cols
                for l in range(b.cols):
                    bkl = b.entries[brow + l]
                    if not bkl.is_zero():
                        out[orow + l] = aij * bkl
    return ExactMatrix(rows, cols, out)


def relabel_reorder(rho: DensityBlock, new_label_order) -> DensityBlock:
    """Permute tensor factors so labels appear in the requested order."""
    new_order = tuple(new_label_order)
    if sorted(new_order) != sorted(rho.labels):
        raise BadPermutation(
            f"{new_order} is not a permutation of {rho.labels}")
    return DensityBlock(new_order,
                        reorder_bits(rho.matrix, rho.labels, new_order))


def kron_chain(blocks, labels) -> DensityBlock:
    """kron of `blocks` in order, then reordered bit by bit to `labels`."""
    assembled = blocks[0]
    for nxt in blocks[1:]:
        assembled = DensityBlock(assembled.labels + nxt.labels,
                                 kron(assembled.matrix, nxt.matrix))
    return relabel_reorder(assembled, labels)


def reduced_by_definition(block: DensityBlock, keep) -> DensityBlock:
    """<r| tr_T rho |s> = sum over the traced-out bits t of <r t| rho |s t>,
    term by term with zero terms skipped; each full index is put together
    bit by bit from r or s and t."""
    labels = block.labels
    kept = [q for q in labels if q in keep]
    traced = [q for q in labels if q not in keep]
    k = len(labels)

    def full_index(r, t):
        index = 0
        for bits, group in ((r, kept), (t, traced)):
            for n, q in enumerate(group):
                if _bit_of(bits, len(group), n):
                    index |= 1 << (k - 1 - labels.index(q))
        return index

    matrix = block.matrix
    dim_out = 1 << len(kept)
    full = [[full_index(r, t) for t in range(1 << len(traced))]
            for r in range(dim_out)]
    out = []
    for r in range(dim_out):
        for s in range(dim_out):
            acc = ZERO
            for i, j in zip(full[r], full[s]):
                x = matrix.at(i, j)
                if not x.is_zero():
                    acc = acc + x
            out.append(acc)
    return DensityBlock(kept, ExactMatrix(dim_out, dim_out, out))


def product_of_marginals(rho: DensityBlock, parts) -> DensityBlock:
    """kron of freshly traced reduced states of `parts`, in rho's order."""
    return kron_chain([reduced_by_definition(rho, part) for part in parts],
                      rho.labels)


def brute_projection(rho: DensityBlock, p: int):
    """(distance, parts) of the approx engine's projection, by brute force:
    every partition into parts <= p, in the engine's order (more parts
    first, then lexicographic), is scored by the trace norm of rho minus
    the product of fresh marginals, each entry subtracted as x + (-y); a
    later partition wins only when closer by more than the engine's
    relative tie margin, so the first of equally close partitions wins."""
    candidates = sorted((sorted(parts)
                         for parts in all_partitions(rho.labels, p)),
                        key=lambda parts: (-len(parts), parts))
    best = None
    for parts in candidates:
        product = product_of_marginals(rho, parts).matrix
        diff = ExactMatrix(product.rows, product.cols,
                           [x + (-y) for x, y in zip(rho.matrix.entries,
                                                     product.entries)])
        dist = trace_norm_float(diff)
        if best is None or dist < best[0] * (1 - TIE_RTOL):
            best = (dist, parts)
    return best


def classical_bits(circuit: Circuit) -> str | None:
    """Track basis bits through X/CNOT/SWAP (and bit-preserving phase
    gates); None when a gate would leave the basis."""
    bits = [int(b) for b in circuit.input_bits]
    for step in circuit.steps:
        name = step.gate.name
        if name in ("I", "Z", "S", "T"):
            continue
        if name in ("X", "Y"):
            bits[step.targets[0]] ^= 1
        elif name == "CNOT":
            c, t = step.targets
            bits[t] ^= bits[c]
        elif name == "SWAP":
            a, b = step.targets
            bits[a], bits[b] = bits[b], bits[a]
        elif name == "CZ":
            continue
        else:
            return None
    return "".join(str(b) for b in bits)


def combine(*terms) -> ExactMatrix:
    """The sum of c * m over the (c, m) pairs in `terms`, entry by entry,
    for matrices of one shape: combine((ONE, a), (MINUS_ONE, b)) is
    a - b, and combine((c, a)) is c times a."""
    (c, first), *rest = terms
    entries = [c * x for x in first.entries]
    for c, m in rest:
        assert (m.rows, m.cols) == (first.rows, first.cols)
        entries = [e + c * x for e, x in zip(entries, m.entries)]
    return ExactMatrix(first.rows, first.cols, entries)


def char_poly(h: ExactMatrix) -> list[Fraction]:
    """Characteristic polynomial coefficients of an exact matrix with
    rational entries, by Faddeev-LeVerrier: returns [c_n, ..., c_0] with
    p(x) = c_n x^n + ... + c_0 and c_n = 1."""
    n = h.rows
    for e in h.entries:
        if (e.b, e.c, e.d) != (0, 0, 0):
            raise ValueError("char_poly expects rational entries")
    m = ExactMatrix.identity(n)
    coeffs = [Fraction(1)]
    a_m = None
    for k in range(1, n + 1):
        a_m = mat_mul(h, m)
        tr = a_m.trace()
        c = -tr.a / k
        coeffs.append(c)
        m = combine((ONE, a_m), (ExactScalar(c), ExactMatrix.identity(n)))
    return coeffs


def poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def full_gate(gate_matrix: ExactMatrix, labels, targets) -> ExactMatrix:
    """The gate on `targets` as a matrix on all of `labels`: entry (i, j)
    is the gate's entry at the targets' bits of i and j when i and j agree
    on every other bit, and zero otherwise."""
    k = len(labels)
    positions = [labels.index(t) for t in targets]
    others = [p for p in range(k) if p not in positions]

    def gate_index(i):
        g = 0
        for pos in positions:
            g = (g << 1) | _bit_of(i, k, pos)
        return g

    dim = 1 << k
    ent = [ZERO] * (dim * dim)
    for i in range(dim):
        for j in range(dim):
            if all(_bit_of(i, k, p) == _bit_of(j, k, p) for p in others):
                ent[i * dim + j] = gate_matrix.at(gate_index(i),
                                                  gate_index(j))
    return ExactMatrix(dim, dim, ent)


def float_statevector(circuit: Circuit) -> list[complex]:
    """Plain complex-float simulation, written independently of the dense
    engine's loops (full-width matrices from `full_gate`)."""
    n = circuit.width
    amps = [0j] * (1 << n)
    amps[int(circuit.input_bits, 2)] = 1.0
    for step in circuit.steps:
        full = full_gate(step.gate.matrix, tuple(range(n)), step.targets)
        rows = full.to_complex_rows()
        amps = [sum(rows[i][j] * amps[j] for j in range(1 << n)
                    if rows[i][j] != 0)
                for i in range(1 << n)]
    return amps


def evolve_density_exact(circuit: Circuit, rho: DensityBlock) -> DensityBlock:
    """Full-width exact density evolution rho -> U rho U^dagger per step;
    independent oracle for mixed-input runs (keep widths small)."""
    out = rho
    for step in circuit.steps:
        u = full_gate(step.gate.matrix, out.labels, step.targets)
        out = DensityBlock(out.labels, mat_mul(mat_mul(u, out.matrix),
                                               u.dagger()))
    return out


def random_exact_scalar(rng: CounterRng, bits: int = 16) -> ExactScalar:
    def frac():
        num = rng.randrange(1 << bits) - (1 << (bits - 1))
        den = 1 + rng.randrange(1 << (bits // 2))
        return Fraction(num, den)
    return ExactScalar(frac(), frac(), frac(), frac())


def random_pure_density(rng: CounterRng, qubits: int) -> DensityBlock:
    """Exact random pure density: outer product of a random vector divided
    by its exact norm (stays inside the field, no square roots needed)."""
    dim = 1 << qubits
    vec = [random_exact_scalar(rng, 10) for _ in range(dim)]
    if all(v.is_zero() for v in vec):
        vec[0] = ONE
    norm = ZERO
    for v in vec:
        norm = norm + v.abs_squared()
    inv = norm.inverse()
    ent = [ZERO] * (dim * dim)
    for i, vi in enumerate(vec):
        for j, vj in enumerate(vec):
            ent[i * dim + j] = vi * vj.conjugate() * inv
    return DensityBlock(tuple(range(qubits)), ExactMatrix(dim, dim, ent))


def random_mixed_density(rng: CounterRng, qubits: int,
                         terms: int = 3) -> DensityBlock:
    """Exact rational convex mixture of random pure densities."""
    weights = [1 + rng.randrange(8) for _ in range(terms)]
    total = sum(weights)
    return DensityBlock(tuple(range(qubits)), combine(
        *[(ExactScalar(Fraction(w, total)),
           random_pure_density(rng, qubits).matrix) for w in weights]))


def random_clifford_circuit(rng: CounterRng, n: int, steps: int) -> Circuit:
    one_q = sorted(name for name in ("I", "X", "Y", "Z", "H", "S"))
    two_q = sorted(name for name in ("CNOT", "CZ", "SWAP"))
    bits = "".join(str(rng.coin_bit()) for _ in range(n))
    out = []
    for _ in range(steps):
        if n >= 2 and rng.coin_bit():
            a = rng.randrange(n)
            b = a
            while b == a:
                b = rng.randrange(n)
            out.append(CircuitStep(LIBRARY[two_q[rng.randrange(3)]], (a, b)))
        else:
            out.append(CircuitStep(LIBRARY[one_q[rng.randrange(6)]],
                                   (rng.randrange(n),)))
    return Circuit(n, bits, tuple(out), rng.randrange(n))


def ghz_circuit(n: int) -> Circuit:
    steps = [CircuitStep(LIBRARY["H"], (0,))]
    for q in range(n - 1):
        steps.append(CircuitStep(LIBRARY["CNOT"], (q, q + 1)))
    return Circuit(n, "0" * n, tuple(steps))


# (S (x) H) CNOT: its action on the targets differs when they are swapped,
# so it catches a tableau update that reads the targets in the wrong order
S_H_CNOT = GateDef("SHCX", 2, mat_mul(kron(LIBRARY["S"].matrix,
                                           LIBRARY["H"].matrix),
                                      LIBRARY["CNOT"].matrix))


def maximally_mixed_text(k: int) -> str:
    """The rows of I / 2^k in the circuit format's matrix literal."""
    dim = 1 << k
    return "".join(" ".join(f"1/{dim}" if i == j else "0"
                            for j in range(dim)) + "\n" for i in range(dim))


# oversized input blocks (7, 4, 5) and then (3, 1, 6) at p = 2
OUT_OF_ORDER_INPUTS = parse_circuit(
    "qubits 8\ninput 00000000\n"
    f"inputblock 7,4,5\n{maximally_mixed_text(3)}"
    f"inputblock 0\n{maximally_mixed_text(1)}"
    f"inputblock 3,1,6\n{maximally_mixed_text(3)}measure 0\n")
