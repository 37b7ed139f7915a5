"""Classical simulators for quantum circuits with bounded entanglement blocks.

Engines:

- ``blocked``: exact and fast when every intermediate state factors into
  blocks of at most p qubits.
- ``approx``: tolerant variant that projects back to block form each step
  and certifies the accumulated trace-norm error.
- ``dense``: exact full statevector, the ground truth at small widths.
- ``stabilizer``: tableau simulation of Clifford circuits at any width.

Plus an analyzer for the blockedness of arithmetic-progression states and a
fair-coin sampler for the output distributions.
"""

from .exact import ExactScalar, parse_scalar
from .matrices import (ExactMatrix, DensityBlock, mat_mul, is_unitary,
                       trace_norm_float, DimensionMismatch, NotHermitian)
from .circuits import (GateDef, CircuitStep, Circuit, builtin_library,
                       LIBRARY, parse_circuit, serialize_circuit,
                       gen_block_local, gen_entangle_disentangle,
                       CircuitError, UnknownGate, QubitOutOfRange,
                       DuplicateTarget)
from .dense import (StateVector, dense_apply, dense_run, dense_marginal,
                    dense_blockedness, WidthCapExceeded)
from .blocked import (BlockedState, PBlockError, init_blocked, apply_blocked,
                      split_exact, run_blocked, run_blocked_full)
from .approx import (ApproxConfig, ErrorLedger, Certificate, Rotation,
                     PerturbedCircuit, approx_step, run_approx,
                     required_epsilon, bound_e, gen_perturbed,
                     simulate_perturbed_floats)
from .stabilizer import (PauliString, StabilizerTableau, NonCliffordGate,
                         tableau_apply, tableau_marginal, run_stabilizer)
from .ap import (BasisSuperposition, build_ap, build_pair,
                 analyze_blockedness, census, format_partition)
from .sampling import (OutcomeDistribution, CoinSource, coin_sample,
                       truncate_prob, dist_distance, sample_outcomes)

__version__ = "0.1.0"
