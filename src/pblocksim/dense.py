"""Exact full-statevector simulator: the ground truth for the other engines.

A state is its nonzero amplitudes, `{basis index: amplitude}`, the way a
density block is its nonzero entries; a gate touches only the groups of
indices that hold one.  Amplitudes are exact scalars, so two engines
agreeing here agree as rational identities, not to a tolerance.  Width is
capped at the constant 14 (`WIDTH_CAP`), because a fully spread state still
has 2^n entries and the point of this module is oracle duty, not scale.
The gate kernel `apply_rows` works for any scalar whose zero tests false,
so the approx engine's float reference steps complex amplitudes through the
same map.
"""

from __future__ import annotations

from .exact import ExactScalar, ZERO, ONE
from .circuits import Circuit, CircuitStep
from .matrices import target_offsets
from .partitions import finest_factorization
from .sampling import OutcomeDistribution

WIDTH_CAP = 14


class WidthCapExceeded(ValueError):
    pass


def _check_width(width: int) -> None:
    if width > WIDTH_CAP:
        raise WidthCapExceeded(f"width {width} exceeds dense cap {WIDTH_CAP}")


class StateVector:
    __slots__ = ("width", "amps")

    def __init__(self, width: int, amps: dict[int, ExactScalar]):
        self.width = width
        self.amps = amps  # {basis index: amplitude}, never a zero value

    @classmethod
    def from_bits(cls, bits: str) -> "StateVector":
        return cls(len(bits), {int(bits, 2): ONE})

    @classmethod
    def from_support(cls, width: int, support, amplitude: ExactScalar
                     ) -> "StateVector":
        return cls(width, dict.fromkeys(support, amplitude))

    def norm_squared(self) -> ExactScalar:
        acc = ZERO
        for a in self.amps.values():
            acc = acc + a.abs_squared()
        return acc

    def is_normalized(self) -> bool:
        return self.norm_squared() == ONE

    def nonzeros(self) -> dict[int, ExactScalar]:
        return self.amps


def apply_rows(amps: dict, offsets: tuple[int, ...], rows, zero) -> dict:
    """Apply a gate given by its nonzero rows (per row, (column, entry)
    pairs) to the amplitudes at `offsets`, over the groups that hold a
    nonzero; only nonzero results are kept.  Works for any scalar type
    whose zero tests false: exact scalars and complex floats alike."""
    clear = ~offsets[-1]
    out = {}
    for base in {i & clear for i in amps}:
        group = [amps.get(base | o, zero) for o in offsets]
        for r, cols in enumerate(rows):
            acc = zero
            for col, coeff in cols:
                v = group[col]
                if v:
                    acc = acc + coeff * v
            if acc:
                out[base | offsets[r]] = acc
    return out


def dense_apply(state: StateVector, step: CircuitStep) -> StateVector:
    """Exact amplitude update for a 1- or 2-qubit gate at any positions."""
    return StateVector(state.width, apply_rows(
        state.amps, target_offsets(state.width, step.targets),
        step.gate.nonzero_rows(), ZERO))


def dense_run(circuit: Circuit) -> StateVector:
    _check_width(circuit.width)
    if circuit.input_blocks:
        raise ValueError("dense statevector engine cannot take mixed inputs")
    state = StateVector.from_bits(circuit.input_bits)
    for step in circuit.steps:
        state = dense_apply(state, step)
    return state


def dense_marginal(state: StateVector, qubit: int) -> OutcomeDistribution:
    """Exact {p0, p1} for a computational-basis measurement of one qubit."""
    if not 0 <= qubit < state.width:
        raise ValueError(f"qubit {qubit} out of range")
    mb = target_offsets(state.width, (qubit,))[-1]
    p0 = ZERO
    p1 = ZERO
    for i, a in state.amps.items():
        if i & mb:
            p1 = p1 + a.abs_squared()
        else:
            p0 = p0 + a.abs_squared()
    return OutcomeDistribution(p0, p1)


# -- blockedness decision for pure states ---
#
# A pure state factors over a partition exactly when its amplitudes do:
# arranged as a matrix with the part's index bits choosing the row and the
# other bits the column, they have rank one.  `finest_factorization` asks
# that of the nonzero amplitudes, each qubit owning the bit `target_offsets`
# gives it, and rebuilds its answer before returning it.

def dense_blockedness(state: StateVector, p: int):
    """Finest partition (parts <= p) over which the state factors exactly,
    or None when the state is not p-blocked."""
    _check_width(state.width)
    if not state.amps:
        raise ValueError("zero state has no blockedness")
    return finest_factorization(
        state.amps, [target_offsets(state.width, (q,))[-1]
                     for q in range(state.width)], p)
