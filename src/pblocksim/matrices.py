"""Small-matrix linear algebra over exact scalars, and the density block.

States stay exact end to end; only the trace norm goes through floats (it
needs eigenvalues, which leave the field Q(i, sqrt2)).  The Hermitian
eigensolve runs cyclic Jacobi sweeps on the complex matrix itself, so the
only numeric kernel is a phase followed by a real 2x2 rotation.

A `DensityBlock` is stored as its nonzero map, {row << k | col: value} over
its nonzero entries only, and the engines read a block through that map
alone; its dense `matrix` is a view for `InputBlock`'s checks and outside
readers, built on first read.  `mat_mul`, the tile kernel, skips the
shared ZERO by identity.

`target_offsets` is the one index map: every routine that spreads a local
index onto bit positions (partial traces, the tiles a gate conjugates in a
block, the dense engine's gate kernel) takes its offsets from it.
`kron_blocks` uses it to lay each block's nonzero entries straight into the
requested label order.  `reduced_state` is the one partial trace; it reads
a block's nonzero map, which a split shares between its factor tests and
the reduced states of its parts.  Every index map is a function of the
width and the positions alone, so each is computed once per shape, cached
on a tuple key, and returned as a tuple that no caller can write into; a
step then pays only for the block's values.
"""

from __future__ import annotations

import math
from functools import cache

from .exact import ExactScalar, ZERO, ONE

_JACOBI_EPS = 1e-13
_JACOBI_SWEEPS = 100


class DimensionMismatch(ValueError):
    pass


class NotHermitian(ValueError):
    pass


class BadPermutation(ValueError):
    pass


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: list[ExactScalar]):
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, "
                f"got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, row_lists) -> "ExactMatrix":
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        flat = []
        for row in row_lists:
            if len(row) != cols:
                raise DimensionMismatch("ragged rows")
            flat.extend(row)
        return cls(rows, cols, flat)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        ent = [ZERO] * (n * n)
        for i in range(n):
            ent[i * n + i] = ONE
        return cls(n, n, ent)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def from_nonzeros(cls, dim: int,
                      nonzeros: dict[int, ExactScalar]) -> "ExactMatrix":
        """dim x dim matrix of a nonzero map {row * dim + col: value}."""
        entries = [ZERO] * (dim * dim)
        for e, x in nonzeros.items():
            entries[e] = x
        return cls(dim, dim, entries)

    def at(self, i: int, j: int) -> ExactScalar:
        return self.entries[i * self.cols + j]

    def dagger(self) -> "ExactMatrix":
        ent = [None] * (self.rows * self.cols)
        for i in range(self.rows):
            base = i * self.cols
            for j in range(self.cols):
                ent[j * self.rows + i] = self.entries[base + j].conjugate()
        return ExactMatrix(self.cols, self.rows, ent)

    def trace(self) -> ExactScalar:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.entries[i * self.cols + i]
        return acc

    def add(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix add shape mismatch")
        return ExactMatrix(self.rows, self.cols,
                           [x + y for x, y in zip(self.entries, other.entries)])

    def sub(self, other: "ExactMatrix") -> "ExactMatrix":
        """Entrywise difference."""
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix sub shape mismatch")
        return ExactMatrix(self.rows, self.cols,
                           [x - y for x, y in zip(self.entries, other.entries)])

    def scale(self, s: ExactScalar) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [s * x for x in self.entries])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def to_complex_rows(self) -> list[list[complex]]:
        """The rows as complex floats, each a new list.  The shared ZERO
        becomes 0j by identity, without a call; ZERO.to_complex() is that
        same 0j, both parts +0.0, so the rows are those of converting every
        entry."""
        cols = self.cols
        flat = [0j if x is ZERO else x.to_complex() for x in self.entries]
        return [flat[i * cols:(i + 1) * cols] for i in range(self.rows)]

    def __repr__(self):
        body = "; ".join(
            " ".join(self.at(i, j).to_text() for j in range(self.cols))
            for i in range(self.rows))
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise DimensionMismatch(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = [ZERO] * (a.rows * b.cols)
    for i in range(a.rows):
        arow = i * a.cols
        orow = i * b.cols
        for k in range(a.cols):
            aik = a.entries[arow + k]
            # most zero entries are the shared ZERO, which `is` skips
            # without a call
            if aik is ZERO or aik.is_zero():
                continue
            brow = k * b.cols
            for j in range(b.cols):
                bkj = b.entries[brow + j]
                if bkj is ZERO or bkj.is_zero():
                    continue
                acc = out[orow + j]
                # the first product is stored, not added to ZERO
                out[orow + j] = aik * bkj if acc is ZERO else acc + aik * bkj
    return ExactMatrix(a.rows, b.cols, out)


def is_unitary(u: ExactMatrix) -> bool:
    if u.rows != u.cols:
        return False
    return mat_mul(u.dagger(), u) == ExactMatrix.identity(u.rows)


def is_hermitian(h: ExactMatrix) -> bool:
    n, ent = h.rows, h.entries
    # row i against column i; two shared ZEROs pass by identity, uncalled
    return h.cols == n and all(
        a is ZERO and b is ZERO or a == b.conjugate() for i in range(n)
        for a, b in zip(ent[i * n + i:(i + 1) * n], ent[i * n + i::n]))


def is_psd(h: ExactMatrix) -> bool:
    """Exact positive semidefiniteness of an exactly Hermitian matrix, by
    LDL-dagger elimination over Q(i, sqrt2): every pivot is real and must be
    >= 0, and a zero pivot needs a zero remaining row, which then drops out
    of the elimination."""
    n = h.rows
    a = [h.entries[i * n:(i + 1) * n] for i in range(n)]
    for k in range(n):
        row_k = a[k]
        sign = row_k[k].real_sign()
        if sign < 0:
            return False
        if sign == 0:
            if any(not x.is_zero() for x in row_k[k + 1:]):
                return False
            continue
        inv = row_k[k].inverse()
        for i in range(k + 1, n):
            if a[i][k].is_zero():
                continue
            f = a[i][k] * inv
            row_i = a[i]
            for j in range(k + 1, n):
                if not row_k[j].is_zero():
                    row_i[j] = row_i[j] - f * row_k[j]
    return True


class DensityBlock:
    """Density matrix on an ordered tuple of global qubit labels.

    The first label corresponds to the most significant index bit of the
    matrix.  A block is given as a dense matrix, as its nonzero map
    {row << k | col: value} (which never holds a zero value), or both when
    the two are shared, as the basis blocks' are.  `matrix` is a dense view,
    built from the map on first read and kept; from then on the block keeps
    only the view, which a caller may write into, and `nonzeros` is rebuilt
    from it on each read.  validate() checks trace one, Hermiticity and
    positive semidefiniteness, all exactly.
    """

    __slots__ = ("labels", "_matrix", "_nonzeros")

    def __init__(self, labels, matrix: ExactMatrix | None = None,
                 nonzeros: dict[int, ExactScalar] | None = None):
        self.labels = tuple(labels)
        k = len(self.labels)
        if matrix is not None and (matrix.rows != matrix.cols
                                   or matrix.rows != (1 << k)):
            raise DimensionMismatch(
                f"block on {k} qubits needs a {1 << k}x{1 << k} matrix")
        self._matrix = matrix
        self._nonzeros = nonzeros

    @property
    def matrix(self) -> ExactMatrix:
        if self._matrix is None:
            self._matrix = ExactMatrix.from_nonzeros(1 << len(self.labels),
                                                     self._nonzeros)
            self._nonzeros = None
        return self._matrix

    @property
    def nonzeros(self) -> dict[int, ExactScalar]:
        if self._nonzeros is None:
            return nonzero_map(self._matrix)
        return self._nonzeros

    def size(self) -> int:
        return len(self.labels)

    def validate(self) -> None:
        if not is_hermitian(self.matrix):
            raise NotHermitian("density block is not exactly Hermitian")
        if self.matrix.trace() != ONE:
            raise ValueError("density block trace is not exactly 1")
        if not is_psd(self.matrix):
            raise ValueError("density block is not positive semidefinite")

    def __repr__(self):
        # a view that is not kept, so that printing keeps the block's map
        view = ExactMatrix.from_nonzeros(1 << len(self.labels), self.nonzeros)
        return f"DensityBlock(labels={self.labels}, {view!r})"


@cache
def target_offsets(width: int, positions: tuple[int, ...]) -> tuple[int, ...]:
    """offsets[r] is local index r spread onto an index of `width` bits:
    positions[j] (0 is the most significant bit) carries bit len-1-j of r,
    so positions (a, b) give (0, mb, ma, ma | mb)."""
    offsets = [0]
    for pos in reversed(positions):
        mask = 1 << (width - 1 - pos)
        offsets += [o | mask for o in offsets]
    return tuple(offsets)


def nonzero_map(matrix: ExactMatrix) -> dict[int, ExactScalar]:
    """Each nonzero entry of a dense matrix keyed by its flat index
    row * cols + col, which for a 2^k x 2^k density is row << k | col: the
    map a block given as a dense matrix is read through."""
    # most zero entries are the shared ZERO, which `is` skips without a call
    return {e: x for e, x in enumerate(matrix.entries)
            if x is not ZERO and not x.is_zero()}


@cache
def _trace_layout(k: int, positions: tuple[int, ...]):
    """(traced-out bits, row place, column place) of the partial trace of a
    k-qubit block onto the sorted `positions`: a term row << k | col lands
    at row_place[row] + col_place[col] of the reduced state."""
    kept_masks = target_offsets(k, positions)
    local = [0] * (1 << k)
    for r, m in enumerate(kept_masks):
        local[m] = r
    kept, dim_out = kept_masks[-1], len(kept_masks)
    col_place = tuple(local[i & kept] for i in range(1 << k))
    return (((1 << k) - 1) & ~kept, tuple(r * dim_out for r in col_place),
            col_place)


def reduced_state(labels, nonzeros: dict[int, ExactScalar],
                  positions) -> DensityBlock:
    """Exact reduced state on the labels at `positions` of a block over
    `labels`, in the block's order, from the block's nonzero map.  A term
    row << k | col adds to the reduced entry of its kept bits only when its
    traced-out row and column bits agree, so each entry sums only its
    nonzero terms, the first of them stored as it is; sums that cancel
    are left out of the map."""
    k = len(labels)
    positions = tuple(sorted(positions))
    traced_out, row_place, col_place = _trace_layout(k, positions)
    bits = (1 << k) - 1
    out: dict[int, ExactScalar] = {}
    for e, x in nonzeros.items():
        row, col = e >> k, e & bits
        if not (row ^ col) & traced_out:
            i = row_place[row] + col_place[col]
            acc = out.get(i)
            out[i] = x if acc is None else acc + x
    return DensityBlock([labels[p] for p in positions], nonzeros={
        i: x for i, x in out.items() if not x.is_zero()})


@cache
def _placements(k: int, positions: tuple[int, ...]) -> tuple[int, ...]:
    """place[e] is the flat index, in a k-qubit product, of the flat index e
    of a factor whose labels sit at `positions`."""
    off = target_offsets(k, positions)
    kb = len(positions)
    bits = (1 << kb) - 1
    return tuple(off[e >> kb] << k | off[e & bits] for e in range(1 << 2 * kb))


def kron_blocks(blocks, labels) -> DensityBlock:
    """Tensor product of density blocks, laid out in the order of `labels`
    (a permutation of the blocks' labels): each nonzero product entry is
    made once, keyed straight by its index, with factors multiplied in
    block order."""
    blocks, labels = list(blocks), tuple(labels)
    k = len(labels)
    where = {l: p for p, l in enumerate(labels)}
    # each block's positions in `labels`, -1 for a label not there; a
    # permutation puts its k labels on k positions, all of them distinct
    # (a repeated label leaves a position that no block can reach)
    spots = [tuple(where.get(l, -1) for l in b.labels) for b in blocks]
    placed = {p for s in spots for p in s}
    if -1 in placed or len(placed) != k or sum(map(len, spots)) != k:
        raise BadPermutation(f"{labels} is not a permutation of the labels "
                             f"of {[b.labels for b in blocks]}")
    # (flat index, value) of each nonzero entry of the product so far; a
    # product of nonzeros is nonzero
    terms = None
    for block, spot in zip(blocks, spots):
        place = _placements(k, spot)
        local = [(place[e], x) for e, x in block.nonzeros.items()]
        terms = local if terms is None else \
            [(f + g, y * x) for f, y in terms for g, x in local]
    return DensityBlock(labels, nonzeros=dict(terms))


def product_over_partition(labels, reduced) -> DensityBlock:
    """kron of the reduced states of a partition's parts, in the order of
    `labels` (the labels of the block they were traced from)."""
    return kron_blocks(reduced, labels)


# -- numeric trace norm (cyclic Jacobi on the complex Hermitian matrix) ---

def _hermitian_eigenvalues_float(h: ExactMatrix) -> list[float]:
    """Eigenvalues of the float image of an exactly Hermitian matrix.

    Each rotation first scales index q by the phase of a_pq, which makes
    a_pq real, and then zeroes it with a real 2x2 rotation."""
    if not is_hermitian(h):
        raise NotHermitian("matrix is not exactly Hermitian")
    a = h.to_complex_rows()
    n = h.rows
    for _ in range(_JACOBI_SWEEPS):
        off = max((abs(a[p][q]) for p in range(n) for q in range(p + 1, n)),
                  default=0.0)
        if off <= _JACOBI_EPS:
            break
        for p in range(n):
            for q in range(p + 1, n):
                apq = a[p][q]
                r = abs(apq)
                if r <= _JACOBI_EPS:
                    continue
                u = apq / r
                phi = 0.5 * math.atan2(2.0 * r, a[q][q].real - a[p][p].real)
                c = math.cos(phi)
                s = math.sin(phi)
                # columns: p <- c p - s u* q,  q <- s p + c u* q
                su, cu = s * u.conjugate(), c * u.conjugate()
                for row in a:
                    aip, aiq = row[p], row[q]
                    row[p] = c * aip - su * aiq
                    row[q] = s * aip + cu * aiq
                # rows: the conjugate transform
                su, cu = s * u, c * u
                rp, rq = a[p], a[q]
                a[p] = [c * x - su * y for x, y in zip(rp, rq)]
                a[q] = [s * x + cu * y for x, y in zip(rp, rq)]
    return [a[i][i].real for i in range(n)]


def trace_norm_float(h: ExactMatrix) -> float:
    """Sum of |eigenvalues| of an exactly Hermitian matrix, numerically,
    added by math.fsum so that the sum is the same on every Python."""
    # count() passes the shared ZERO by identity, in C, and compares any
    # other entry by value; a zero scalar is canonical, so it equals ZERO
    if h.entries.count(ZERO) == len(h.entries):
        if h.rows != h.cols:
            raise NotHermitian("matrix is not square")
        return 0.0
    return math.fsum(abs(v) for v in _hermitian_eigenvalues_float(h))
