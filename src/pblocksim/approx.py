"""Tolerant simulator for circuits that are only nearly p-blocked.

The engine keeps a p-blocked surrogate: its step is the blocked engine's
transition (`blocked.advance`) with a projection in place of the exact
split.  When a merged block outgrows p, it
measures the trace-norm distance from that block to the product of its
reduced states for every partition into parts <= p, installs the closest
product (ties, within a relative TIE_RTOL so that the eigensolver's rounding
cannot decide them: more parts, then lexicographic), and logs the residual.
The search stops at the first partition whose product is exact (distance
0.0): a trace norm is never negative, and a later partition replaces the
closest so far only when it is closer by a relative margin, which nothing
is once the distance is 0, so stopping there installs the same blocks and
logs the same residual as scoring every partition.  Each part's reduced
state is traced once per step and shared by every partition that holds the
part and by the installed winner.  The difference block - product is
formed over the two nonzero maps, where equal entries (most of them) drop
out without arithmetic; only the trace norm builds a dense matrix.
The certified bound follows the recursion

    e_0 = 0,   e_{j+1} = (2p+3) * (e_j + epsilon)

recorded as an equality, which stays below epsilon * (2p+4)^j.  epsilon is
the caller's assumption about how far the true states can drift from some
p-blocked states; the certificate is conditional on it.  A measured residual
above (2p+1)(e_j + epsilon) contradicts that assumption, which flags the
ledger but does not stop the run.

Validation circuits interleave exactly-blocked gates with tiny two-qubit
rotations exp(-i*theta*P).  Those rotations model the true process and are
applied only by the float reference here; the engine substitutes the nearest
exact gate in Frobenius norm, found in closed form: for a unitary G,
||G - exp(-i theta P)||_F^2 = 8 - 2 (a cos(theta) + b sin(theta)) with
a = Re tr G^dagger and b = Im tr G^dagger P, traced once per Pauli pair from
the exact matrices, and an exact tie keeps the first candidate in order.  b is
0 for every candidate, so the identity is chosen exactly when cos(theta) > 0,
which holds for every calibrated angle.  The float reference is the
dense engine's state with complex values, a map of the nonzero amplitudes
stepped by the same gate kernel (`apply_rows`).  The generator calibrates
the rotations in one forward pass: each angle is set on the float state
just before its rotation, which is then applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

from .exact import ZERO
from .matrices import (DensityBlock, ExactMatrix, reduced_state,
                       trace_norm_float, product_over_partition,
                       target_offsets)
from .circuits import (CircuitStep, GateDef, LIBRARY, gen_block_local,
                       _fixed_cells, _pauli_matrix, _store_tuple)
from .partitions import partitions_max_part, rank_positions
from .blocked import (BlockedState, advance, measurement_marginal,
                      start_state)
from .dense import apply_rows
from .prng import CounterRng
from .sampling import OutcomeDistribution

DEBUG_CHECKS = False

# A later partition replaces the closest so far only when it is closer by
# more than this relative margin, so partitions at an exactly equal distance
# keep the first in order whatever the eigensolver's rounding.
TIE_RTOL = 1e-12

_IDENTITY4 = GateDef("II", 2, ExactMatrix.identity(4))


@dataclass(frozen=True)
class ApproxConfig:
    p: int
    epsilon: float

    def __post_init__(self):
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and >= 0")


@dataclass(frozen=True)
class LedgerEntry:
    j: int
    e_bound: float
    d: float
    flag: str  # "ok" or "violated"


class ErrorLedger:
    def __init__(self, p: int, epsilon: float):
        self.p = p
        self.epsilon = epsilon
        self.entries: list[LedgerEntry] = []

    @property
    def e_current(self) -> float:
        return self.entries[-1].e_bound if self.entries else 0.0

    def record_step(self, d: float) -> LedgerEntry:
        e_prev = self.e_current
        e_next = (2 * self.p + 3) * (e_prev + self.epsilon)
        flag = "ok"
        if d > (2 * self.p + 1) * (e_prev + self.epsilon):
            flag = "violated"
        entry = LedgerEntry(len(self.entries) + 1, e_next, d, flag)
        self.entries.append(entry)
        return entry

    def hypothesis_violated(self) -> bool:
        return any(e.flag == "violated" for e in self.entries)

    def export_lines(self) -> list[str]:
        return [f"{e.j} {e.e_bound!r} {e.d!r} {e.flag}" for e in self.entries]


@dataclass(frozen=True)
class Certificate:
    e_final: float
    conditional_on_eps: float
    hypothesis_violated: bool

    def summary(self) -> str:
        return f"e_T={self.e_final!r} " \
               f"conditional_on_eps={self.conditional_on_eps!r}"


def required_epsilon(eta: float, p: int, steps: int) -> float:
    """Largest per-step drift for which the output stays within eta:
    eta / (4 * (2p+4)^steps); underflows to 0.0 for very long circuits."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    denom = 4 * (2 * p + 4) ** steps
    try:
        return eta / denom
    except OverflowError:
        return 0.0


def bound_e(eps: float, p: int, j: int) -> float:
    """Closed-form ceiling eps * (2p+4)^j on the recorded bounds; e_0 = 0."""
    if j == 0:
        return 0.0
    try:
        return eps * float((2 * p + 4) ** j)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Rotation:
    """Two-qubit rotation exp(-i * theta * P), P a Pauli pair like 'ZZ'."""
    pauli: str
    theta: float
    targets: tuple[int, int]

    def __post_init__(self):
        _store_tuple(self, "targets")
        if len(self.pauli) != 2 or any(c not in "XYZ" for c in self.pauli):
            raise ValueError("pauli must be two letters from XYZ")
        if self.targets[0] == self.targets[1]:
            raise ValueError("rotation targets must differ")


@dataclass(frozen=True)
class PerturbedCircuit:
    width: int
    input_bits: str
    steps: tuple  # CircuitStep | Rotation
    measured_qubit: int = 0
    base_p: int = field(default=0, compare=False)
    input_blocks = ()   # not a field: every qubit starts in a basis state

    def depth(self) -> int:
        return len(self.steps)


# the identity and every two-qubit library gate, in the order ties keep
_EXACT_CANDIDATES = (_IDENTITY4,) + tuple(
    gate for gate in LIBRARY.values() if gate.arity == 2)


@cache  # nine pairs, each read only
def _overlaps(pauli: str) -> tuple[tuple[GateDef, float, float], ...]:
    """(G, Re tr G^dagger, Im tr G^dagger P) for each candidate G, each
    trace taken exactly and then rounded once."""
    pair = _pauli_pair_exact(pauli).entries
    out = []
    for gate in _EXACT_CANDIDATES:
        # tr G^dagger P = sum over entries of conj(G_ij) P_ij
        b = sum((x.conjugate() * y
                 for x, y in zip(gate.matrix.entries, pair)), ZERO)
        out.append((gate, gate.dagger.trace().to_complex().real,
                    b.to_complex().imag))
    return tuple(out)


def nearest_exact_gate(rotation: Rotation) -> GateDef:
    """Closest two-qubit library gate (or the identity) in Frobenius norm.

    For a unitary 4x4 G and R = cos(theta) I - i sin(theta) P,
    ||G - R||_F^2 = 8 - 2 (a cos(theta) + b sin(theta)) with a = Re tr G^dagger
    and b = Im tr G^dagger P, so the closest candidate is the one that
    maximises a cos(theta) + b sin(theta); an exact tie keeps the first in
    `_EXACT_CANDIDATES`.  b is 0 for every candidate, and a is 4 for the
    identity and 2 for CNOT, CZ and SWAP, so the identity wins exactly when
    cos(theta) > 0."""
    c, s = math.cos(rotation.theta), math.sin(rotation.theta)
    return max(_overlaps(rotation.pauli),
               key=lambda overlap: overlap[1] * c + overlap[2] * s)[0]


def closest_product(block: DensityBlock, p: int
                    ) -> tuple[float, list[DensityBlock]]:
    """Trace-norm distance from a block to its closest product over parts
    <= p, and the parts' exact reduced states, each traced once from the
    block's nonzero map.  The candidates are the shared partitions of
    ranks, rank r standing for the r-th smallest label."""
    labels = block.labels
    nonzeros = block.nonzeros
    positions = rank_positions(labels)
    reduced: dict[tuple, DensityBlock] = {}
    best = None
    for parts in partitions_max_part(len(labels), p):
        for part in parts:
            if part not in reduced:
                reduced[part] = reduced_state(
                    labels, nonzeros, [positions[r] for r in part])
        candidate = product_over_partition(
            labels, [reduced[part] for part in parts])
        diff = dict(nonzeros)
        for e, x in candidate.nonzeros.items():
            y = diff.pop(e, ZERO)
            if y != x:
                diff[e] = y - x
        dist = trace_norm_float(ExactMatrix.from_nonzeros(1 << len(labels),
                                                          diff))
        if best is None or dist < best[0] * (1 - TIE_RTOL):
            best = (dist, parts, candidate)
            if dist == 0.0:
                break  # an exact product: no later partition can replace it
    d, parts, candidate = best
    if DEBUG_CHECKS:
        for part in parts:
            kept = reduced[part]
            assert reduced_state(labels, candidate.nonzeros,
                                 [positions[r] for r in part]).nonzeros \
                == kept.nonzeros, "projection changed a part marginal"
    return d, [reduced[part] for part in parts]


def approx_step(state: BlockedState, step, cfg: ApproxConfig,
                ledger: ErrorLedger) -> BlockedState:
    """Apply one step and force the state back to p-blocked form; the
    residual is 0.0 when nothing split."""
    if isinstance(step, Rotation):
        step = CircuitStep(nearest_exact_gate(step), step.targets)
    d = 0.0

    def split(block):
        nonlocal d
        d, parts = closest_product(block, cfg.p)
        return parts

    out = advance(state, step, cfg.p, split)
    ledger.record_step(d)
    return out


def run_approx(circuit, cfg: ApproxConfig
               ) -> tuple[OutcomeDistribution, ErrorLedger, Certificate]:
    """Run the tolerant engine; the distribution comes from the surrogate's
    exact marginal, the certificate bounds its distance to the true output
    provided the epsilon assumption held."""
    state = start_state(circuit, cfg.p)
    ledger = ErrorLedger(cfg.p, cfg.epsilon)
    for step in circuit.steps:
        state = approx_step(state, step, cfg, ledger)
    dist = measurement_marginal(state, circuit.measured_qubit)
    cert = Certificate(ledger.e_current, cfg.epsilon,
                       ledger.hypothesis_violated())
    return dist, ledger, cert


# -- float reference for perturbed circuits ---
#
# The nonzero amplitudes of a complex statevector, {index: amplitude},
# under the true rotations.  Gates, rotations and the Pauli pair of an
# expectation all go through the dense engine's kernel.

def _pauli_pair_exact(pauli: str) -> ExactMatrix:
    """4x4 matrix of a Pauli pair like 'ZZ', the first letter on the first
    target (the high index bit), as i^#Y X^x Z^z since Y = iXZ."""
    x = sum(2 >> j for j, letter in enumerate(pauli) if letter in "XY")
    z = sum(2 >> j for j, letter in enumerate(pauli) if letter in "YZ")
    return _pauli_matrix(4, x, z, pauli.count("Y"))


@cache  # nine pairs, each read only
def _pauli_pair(pauli: str) -> list[list[complex]]:
    """The Pauli pair's matrix as complex floats."""
    return _pauli_pair_exact(pauli).to_complex_rows()


def _rotation_matrix(pauli: str, theta: float) -> list[list[complex]]:
    """exp(-i * theta * P) = cos(theta) I - i sin(theta) P."""
    c, s = math.cos(theta), math.sin(theta)
    pair = _pauli_pair(pauli)
    return [[(0j + c if i == j else 0j) + -1j * s * pair[i][j]
             for j in range(4)] for i in range(4)]


def _float_apply(amps: dict, width: int, mat, targets) -> dict:
    rows = [[(col, v) for col, v in enumerate(row) if v] for row in mat]
    return apply_rows(amps, target_offsets(width, targets), rows, 0j)


def _float_step(amps: dict, width: int, step) -> dict:
    if isinstance(step, Rotation):
        mat = _rotation_matrix(step.pauli, step.theta)
    else:
        mat = step.gate.complex_rows()
    return _float_apply(amps, width, mat, step.targets)


def _float_basis(bits: str) -> dict:
    return {int(bits, 2): 1.0 + 0j}


def simulate_perturbed_floats(pc: PerturbedCircuit) -> tuple[float, float]:
    """Float statevector reference that applies the true rotations."""
    amps = _float_basis(pc.input_bits)
    for step in pc.steps:
        amps = _float_step(amps, pc.width, step)
    mb = target_offsets(pc.width, (pc.measured_qubit,))[-1]
    # fsum is correctly rounded, so the result is the same on every Python
    # (a plain sum of floats is compensated since 3.12 and naive before)
    p1 = math.fsum(abs(a) ** 2 for i, a in amps.items() if i & mb)
    p0 = math.fsum(abs(a) ** 2 for i, a in amps.items() if not i & mb)
    return p0, p1


def _pauli_expectation(amps: dict, width: int, pauli: str,
                       targets) -> float:
    """<psi| P |psi> for a 2-qubit Pauli pair, summed in ascending index
    order, so that it rounds as a sum over the full statevector does."""
    moved = _float_apply(amps, width, _pauli_pair(pauli), targets)
    acc = 0j
    for i in sorted(amps):
        acc += amps[i].conjugate() * moved.get(i, 0j)
    return acc.real


def gen_perturbed(n: int, p: int, steps: int, eps: float, seed: int
                  ) -> PerturbedCircuit:
    """Exactly p-blocked base circuit with cross-cell rotations spliced in,
    each calibrated (against the float reference) to move the state by at
    most eps in trace norm.  Total step count is `steps`."""
    if steps < 2:
        raise ValueError("need at least 2 steps")
    rng = CounterRng(seed, tag="gen_perturbed")
    n_rot = max(1, steps // 4)
    base = gen_block_local(n, p, steps - n_rot, seed)
    cells = _fixed_cells(n, p)
    positions = sorted(rng.randrange(len(base.steps) + 1)
                       for _ in range(n_rot))
    mixed = list(base.steps)
    for k, pos in enumerate(positions):
        ca = rng.randrange(len(cells))
        cb = ca
        while cb == ca and len(cells) > 1:
            cb = rng.randrange(len(cells))
        qa = cells[ca][rng.randrange(len(cells[ca]))]
        qb = cells[cb][rng.randrange(len(cells[cb]))]
        if qa == qb:
            qb = (qa + 1) % n
        pauli = "XYZ"[rng.randrange(3)] + "XYZ"[rng.randrange(3)]
        # after the base steps before pos and the k rotations spliced so far
        mixed.insert(pos + k, Rotation(pauli, 0.0, (qa, qb)))  # theta below
    # one forward pass: calibrate each rotation on the float state just
    # before it so that the state moves by <= eps, then apply it
    amps = _float_basis(base.input_bits)
    final_steps = []
    for step in mixed:
        if isinstance(step, Rotation):
            expv = _pauli_expectation(amps, n, step.pauli, step.targets)
            wobble = math.sqrt(max(0.0, 1.0 - expv * expv))
            if wobble < 1e-9:
                theta = eps / 2.0
            else:
                theta = min(math.asin(min(1.0, eps / (2.0 * wobble))), 0.2)
            moved = 2.0 * math.sin(theta) * wobble
            assert moved <= eps * (1 + 1e-9), "rotation calibration overshoot"
            step = Rotation(step.pauli, theta, step.targets)
        final_steps.append(step)
        amps = _float_step(amps, n, step)
    return PerturbedCircuit(n, base.input_bits, tuple(final_steps), 0, p)
