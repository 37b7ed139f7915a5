"""Tolerant engine: ledger recursion, projection residuals, bound checks."""

import hashlib
import math

import pytest

import pblocksim.approx
from pblocksim.circuits import parse_circuit, gen_block_local
from pblocksim.dense import dense_run
from pblocksim.blocked import PBlockError, advance, init_blocked, run_blocked
from pblocksim.partitions import partitions_max_part
from pblocksim.approx import (ApproxConfig, ErrorLedger, Rotation,
                              approx_step, run_approx, required_epsilon,
                              bound_e, gen_perturbed, nearest_exact_gate,
                              simulate_perturbed_floats)
from pblocksim.prng import CounterRng

from helpers import OUT_OF_ORDER_INPUTS, product_of_marginals

BELL = parse_circuit("qubits 2\ninput 00\ngate H 0\ngate CNOT 0 1\nmeasure 0\n")


class TestFormulas:
    def test_config_rejects_negative_or_infinite_epsilon(self):
        assert ApproxConfig(1, 0.0).epsilon == 0.0
        for eps in (-1.0, -1e-300, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                ApproxConfig(1, eps)

    def test_required_epsilon_instance(self):
        # eta=0.6, p=1, T=2: 0.6 / (4 * 36) = 1/240
        assert abs(required_epsilon(0.6, 1, 2) - 1 / 240) < 1e-18

    def test_required_epsilon_empty_circuit(self):
        assert required_epsilon(0.8, 3, 0) == 0.8 / 4

    def test_required_epsilon_monotone(self):
        vals_t = [required_epsilon(0.5, 1, t) for t in range(6)]
        assert all(a > b for a, b in zip(vals_t, vals_t[1:]))
        vals_p = [required_epsilon(0.5, p, 3) for p in range(1, 5)]
        assert all(a > b for a, b in zip(vals_p, vals_p[1:]))

    def test_required_epsilon_underflows_to_zero(self):
        assert required_epsilon(0.5, 2, 10 ** 4) == 0.0

    def test_bound_e_instance(self):
        assert abs(bound_e(1e-6, 1, 2) - 3.6e-5) < 1e-18

    def test_bound_e_zero_eps(self):
        assert bound_e(0.0, 3, 17) == 0.0

    def test_bound_e_start_convention(self):
        assert bound_e(0.1, 2, 0) == 0.0


class TestLedger:
    def test_recursion_recorded_as_equality(self):
        led = ErrorLedger(p=2, epsilon=1e-4)
        for d in (0.0, 0.5, 0.1):
            led.record_step(d)
        e = 0.0
        for entry in led.entries:
            e = (2 * 2 + 3) * (e + 1e-4)
            assert entry.e_bound == e  # identical float expression

    def test_bound_inequality(self):
        led = ErrorLedger(p=1, epsilon=3e-5)
        for _ in range(12):
            led.record_step(0.0)
        for entry in led.entries:
            assert entry.e_bound <= bound_e(3e-5, 1, entry.j) + 1e-12

    def test_violation_flag(self):
        led = ErrorLedger(p=1, epsilon=0.0)
        entry = led.record_step(1.5)
        assert entry.flag == "violated"
        led2 = ErrorLedger(p=1, epsilon=0.1)
        assert led2.record_step(0.2).flag == "ok"

    def test_export_format(self):
        led = ErrorLedger(p=1, epsilon=0.0)
        led.record_step(0.0)
        line = led.export_lines()[0]
        assert line.split() == ["1", "0.0", "0.0", "ok"]


class TestApproxRuns:
    def test_bell_p1_projects_to_coin_flip(self):
        """Best 1-partition of the Bell pair is I/2 x I/2, residual 3/2."""
        dist, ledger, cert = run_approx(BELL, ApproxConfig(1, 0.0))
        f0, f1 = dist.floats()
        assert abs(f0 - 0.5) < 1e-12 and abs(f1 - 0.5) < 1e-12
        assert abs(ledger.entries[1].d - 1.5) <= 1e-9
        assert ledger.entries[1].flag == "violated"
        assert cert.hypothesis_violated

    def test_merged_within_p_no_residual(self):
        dist, ledger, _ = run_approx(BELL, ApproxConfig(2, 0.0))
        assert all(e.d == 0.0 for e in ledger.entries)
        assert dist.exact_eq(run_blocked(BELL, 2))

    def test_eps0_equivalence_with_blocked(self):
        rng = CounterRng(90, "eps0")
        for k in range(8):
            p = 1 + rng.randrange(2)
            c = gen_block_local(6, p, 30, k)
            approx_dist, ledger, cert = run_approx(c, ApproxConfig(p, 0.0))
            exact_dist = run_blocked(c, p)
            a0, a1 = approx_dist.floats()
            b0, b1 = exact_dist.floats()
            assert abs(a0 - b0) <= 1e-10 and abs(a1 - b1) <= 1e-10
            assert approx_dist.exact_eq(exact_dist)
            assert cert.e_final == 0.0
            assert not cert.hypothesis_violated

    def test_eps0_equivalence_with_cross_block_merges(self):
        """Circuits whose stale amalgamated blocks force 3- and 4-qubit
        merges: the engine must search the full partition lattice and keep
        picking the zero-residual split."""
        from pblocksim.circuits import gen_entangle_disentangle
        from pblocksim.dense import dense_marginal
        for seed in range(6):
            c = gen_entangle_disentangle(6, 2, 40, seed)
            approx_dist, ledger, cert = run_approx(c, ApproxConfig(2, 0.0))
            want = dense_marginal(dense_run(c), c.measured_qubit)
            assert approx_dist.exact_eq(want)
            assert all(e.d == 0.0 for e in ledger.entries)
            assert not cert.hypothesis_violated

    def test_exact_ties_keep_the_first_partition(self, monkeypatch):
        """GHZ at p = 2: the last merge scores 1.75 for three parts and
        exactly 1.5 for each of {0}{1,2}, {0,1}{2} and {0,2}{1}.  Rounding
        that shaves each later trace norm by one more 1e-15 must not move
        the choice off the first of the equal partitions."""
        true_norm = pblocksim.approx.trace_norm_float
        norms = []

        def shaved(matrix):
            norms.append(true_norm(matrix) * (1 - len(norms) * 1e-15))
            return norms[-1]

        monkeypatch.setattr(pblocksim.approx, "trace_norm_float", shaved)
        ghz = parse_circuit("qubits 3\ninput 000\ngate H 0\n"
                            "gate CNOT 0 1\ngate CNOT 1 2\nmeasure 0\n")
        cfg = ApproxConfig(2, 0.0)
        ledger = ErrorLedger(2, 0.0)
        state = init_blocked(ghz)
        for step in ghz.steps:
            state = approx_step(state, step, cfg, ledger)
        # the last merge's four partitions, each scored once, in order
        assert [round(d, 12) for d in norms] == [1.75, 1.5, 1.5, 1.5]
        assert sorted(b.labels for b in state.blocks.values()) == \
            [(0,), (1, 2)]
        assert ledger.entries[-1].d == norms[1]

    @pytest.mark.parametrize("debug_checks", [False, True])
    def test_search_stops_at_the_first_exact_product(self, monkeypatch,
                                                     debug_checks):
        """Bell pairs on (0, 2) and (1, 3), then SWAP 0 3: the merged
        block is a product over {0,1}{2,3}, the 8th of 10 partitions.  The
        step scores exactly those 8, with the debug checks on or off."""
        monkeypatch.setattr(pblocksim.approx, "DEBUG_CHECKS", debug_checks)
        true_norm = pblocksim.approx.trace_norm_float
        norms = []

        def counted(matrix):
            norms.append(true_norm(matrix))
            return norms[-1]

        c = parse_circuit("qubits 4\ninput 0000\ngate H 0\ngate CNOT 0 2\n"
                          "gate H 1\ngate CNOT 1 3\ngate SWAP 0 3\n")
        cfg = ApproxConfig(2, 0.0)

        def before_swap(ledger):
            state = init_blocked(c)
            for step in c.steps[:-1]:
                state = approx_step(state, step, cfg, ledger)
            return state

        ledger = ErrorLedger(2, 0.0)
        state = before_swap(ledger)
        # the shared transition at p = width never splits; it advances a
        # state of its own
        merged = advance(before_swap(ErrorLedger(2, 0.0)), c.steps[-1], 4,
                         None).block_of(0)
        order = partitions_max_part(len(merged.labels), 2)
        ranked = sorted(merged.labels)
        k = 1 + next(i for i, parts in enumerate(order)
                     if product_of_marginals(
                         merged, [[ranked[r] for r in part]
                                  for part in parts]).matrix == merged.matrix)
        assert (k, len(order)) == (8, 10)
        monkeypatch.setattr(pblocksim.approx, "trace_norm_float", counted)
        state = approx_step(state, c.steps[-1], cfg, ledger)
        assert len(norms) == k
        assert norms[k - 1] == ledger.entries[-1].d == 0.0
        assert all(d > 0 for d in norms[:k - 1])
        assert sorted(state.block_of(q).labels for q in (0, 2)) == \
            [(0, 1), (2, 3)]

    def test_ledger_length_matches_steps(self):
        c = gen_block_local(5, 2, 23, 4)
        _, ledger, _ = run_approx(c, ApproxConfig(2, 1e-6))
        assert len(ledger.entries) == 23

    def test_oversized_input_is_refused(self):
        """The start check is the blocked engine's: the same error."""
        with pytest.raises(PBlockError) as caught:
            run_approx(OUT_OF_ORDER_INPUTS, ApproxConfig(2, 0.0))
        assert str(caught.value) == \
            "step -1: block (3, 1, 6) input block larger than p = 2"


class TestPerturbed:
    def test_nearest_gate_for_tiny_rotation_is_identity(self):
        rot = Rotation("ZZ", 1e-5, (0, 1))
        assert nearest_exact_gate(rot).name == "II"

    def test_rotation_validation(self):
        with pytest.raises(ValueError):
            Rotation("QQ", 0.1, (0, 1))
        with pytest.raises(ValueError):
            Rotation("XX", 0.1, (1, 1))

    def test_generator_deterministic(self):
        a = gen_perturbed(6, 1, 5, 1e-5, 3)
        b = gen_perturbed(6, 1, 5, 1e-5, 3)
        assert a == b

    def test_generator_output_is_pinned(self):
        """Steps and float reference of 3 configurations x 5 seeds, hashed
        by their reprs; a change to the generator, the calibration or the
        float kernel shows here."""
        digest = hashlib.sha256()
        for cfg in [(8, 3, 12, 1.25e-13), (6, 2, 16, 1e-3), (5, 1, 10, 1e-2)]:
            for seed in range(5):
                pc = gen_perturbed(*cfg, seed)
                digest.update(repr(
                    (pc.steps, simulate_perturbed_floats(pc))).encode())
        assert digest.hexdigest() == ("a47b3687344883853f0e5781ac18a368"
                                      "9a4cf821ef5d651deef273b4299f4f34")

    def test_rotations_move_state_at_most_eps(self):
        """Trace-norm move of each splice, measured on float states."""
        eps = 2e-5
        for seed in (0, 1, 2):
            pc = gen_perturbed(6, 1, 8, eps, seed)
            rotations = [s for s in pc.steps if isinstance(s, Rotation)]
            assert rotations
            for rot in rotations:
                # pure-state trace distance: 2 sin(theta) sqrt(1 - <P>^2)
                assert 2 * math.sin(rot.theta) <= eps + 1e-12 or \
                    rot.theta <= eps

    @pytest.mark.parametrize("p,steps,eta,width", [(1, 5, 0.5, 7),
                                                   (2, 6, 0.3, 8)])
    def test_perturbed_output_within_ledger_bound(self, p, steps, eta, width):
        eps = required_epsilon(eta, p, steps)
        hits_eta = hits_ledger = 0
        trials = 30
        for seed in range(trials):
            pc = gen_perturbed(width, p, steps, eps, seed)
            dist, ledger, cert = run_approx(pc, ApproxConfig(p, eps))
            f0, f1 = dist.floats()
            q0, q1 = simulate_perturbed_floats(pc)
            gap = abs(f0 - q0) + abs(f1 - q1)
            if gap <= eta:
                hits_eta += 1
            if gap <= cert.e_final:
                hits_ledger += 1
        assert hits_eta == trials
        assert hits_ledger >= trials - 1

    def test_split_changes_state_by_measured_residual(self):
        """After a lossy projection the global state moved by exactly the
        recorded d (trace norm is multiplicative against the untouched
        factors); checked via the engine's own debug recompute plus the
        final-state distance here."""
        dist, ledger, _ = run_approx(BELL, ApproxConfig(1, 0.0))
        # after the Bell projection the surrogate is I/2 x I/2; the true
        # state is the Bell projector; their distance is the recorded d
        from pblocksim.matrices import trace_norm_float, ExactMatrix
        from helpers import density_from_statevector, full_amps
        from pblocksim.dense import dense_run
        true_rho = density_from_statevector(full_amps(dense_run(BELL)))
        from pblocksim.exact import ExactScalar
        from fractions import Fraction
        quarter = ExactScalar(Fraction(1, 4))
        surrogate = ExactMatrix.identity(4).scale(quarter)
        gap = trace_norm_float(true_rho.sub(surrogate))
        assert abs(gap - ledger.entries[1].d) <= 1e-9
