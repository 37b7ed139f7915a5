"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time
from fractions import Fraction

from pblocksim.exact import ExactScalar, ONE, MINUS_ONE
from pblocksim.matrices import trace_norm_float
from pblocksim.circuits import gen_block_local, gen_entangle_disentangle
from pblocksim.dense import (StateVector, dense_run, dense_marginal,
                             dense_blockedness, WidthCapExceeded)
from pblocksim.blocked import run_blocked_full
from pblocksim.approx import (ApproxConfig, run_approx, required_epsilon,
                              bound_e, gen_perturbed,
                              simulate_perturbed_floats)
from pblocksim.stabilizer import run_stabilizer
from pblocksim.ap import build_ap, analyze_blockedness, census
from pblocksim.sampling import CoinSource, coin_sample
from pblocksim.prng import CounterRng

from helpers import (combine, ghz_circuit, random_clifford_circuit,
                     random_mixed_density, random_pure_density,
                     reduced_by_definition)


def _verdict(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name} failed{tail}"


def test_01_exact_oracle_equivalence():
    """100 seeded circuits, both generators, rational equality, < 60 s."""
    started = time.perf_counter()
    rng = CounterRng(2024, "acceptance1")
    mismatches = 0
    for k in range(100):
        p = 1 + rng.randrange(3)
        n = max(p + 1, 4 + rng.randrange(7))  # n <= 10
        steps = 20 + rng.randrange(41)        # T <= 60
        seed = rng.randrange(10 ** 6)
        gen = gen_block_local if k % 2 == 0 else gen_entangle_disentangle
        circuit = gen(n, p, steps, seed)
        _, blocked_dist = run_blocked_full(circuit, p)
        dense_dist = dense_marginal(dense_run(circuit),
                                    circuit.measured_qubit)
        if not blocked_dist.exact_eq(dense_dist):
            mismatches += 1
    elapsed = time.perf_counter() - started
    _verdict("01 exact-oracle-equivalence",
             mismatches == 0 and elapsed < 60.0,
             f"mismatches={mismatches} time={elapsed:.1f}s")


def test_02_polynomial_scaling():
    """n=200, T=5000, p=2 in < 10 s with block storage linear in n, while
    the dense oracle refuses the width."""
    circuit = gen_block_local(200, 2, 5000, 11)
    started = time.perf_counter()
    state, _ = run_blocked_full(circuit, 2)
    elapsed = time.perf_counter() - started
    refused = False
    try:
        dense_run(circuit)
    except WidthCapExceeded:
        refused = True
    # entries stored: at most n blocks, each at most 4^p entries -> O(n)
    blocks_linear = (len(state.blocks) <= 200
                     and max(len(b.labels)
                             for b in state.assignment) <= 2
                     and sum(1 << (2 * len(b.labels))
                             for b in state.blocks.values()) <= 200 * 16)
    _verdict("02 polynomial-scaling",
             elapsed < 10.0 and refused and blocks_linear,
             f"time={elapsed:.2f}s digits={state.digit_count()}")


def test_03_ap1_reproduction():
    started = time.perf_counter()
    state = build_ap(3, 3, 4, 4)
    combinatorial = analyze_blockedness(state, 2)
    ok = combinatorial == [(0, 2), (1, 3)]  # bit positions {3,1} and {2,0}
    ok &= analyze_blockedness(state, 1) is None
    amp = ExactScalar(Fraction(1, 2))
    sv = StateVector(4, dict.fromkeys((3, 6, 9, 12), amp))
    dense_parts = dense_blockedness(sv, 2)
    # circuit qubit q carries bit position 3-q
    converted = None if dense_parts is None else \
        sorted(tuple(sorted(3 - q for q in part)) for part in dense_parts)
    ok &= converted == [(0, 2), (1, 3)]
    ok &= dense_blockedness(sv, 1) is None
    elapsed = time.perf_counter() - started
    _verdict("03 ap1-reproduction", ok and elapsed < 1.0,
             f"time={elapsed:.2f}s")


def test_04_ap_census():
    """Fraction of 12-bit-period progressions that stay 3-blocked; the
    development baseline measured 0.000, hard gate < 0.10."""
    started = time.perf_counter()
    result = census(r_bits=12, trials=200, p=3, n=15, seed=7)
    elapsed = time.perf_counter() - started
    _verdict("04 ap-census", result.fraction < 0.10 and elapsed < 30.0,
             f"fraction={result.fraction:.4f} time={elapsed:.1f}s")


def test_05_approximate_bound_validation():
    """p=1, T=5, eta=0.5 (eps ~ 1.6e-5): output within eta in 100/100
    seeded perturbed circuits and within the ledger bound in >= 95."""
    started = time.perf_counter()
    eta, p, steps = 0.5, 1, 5
    eps = required_epsilon(eta, p, steps)
    within_eta = within_ledger = 0
    trials = 100
    for seed in range(trials):
        pc = gen_perturbed(8, p, steps, eps, seed)
        dist, ledger, cert = run_approx(pc, ApproxConfig(p, eps))
        f0, f1 = dist.floats()
        q0, q1 = simulate_perturbed_floats(pc)
        gap = abs(f0 - q0) + abs(f1 - q1)
        if gap <= eta:
            within_eta += 1
        if gap <= cert.e_final:
            within_ledger += 1
    elapsed = time.perf_counter() - started
    _verdict("05 approximate-bound",
             within_eta == trials and within_ledger >= 95 and elapsed < 300,
             f"eta-ok={within_eta}/100 ledger-ok={within_ledger}/100 "
             f"time={elapsed:.1f}s")


def test_06_error_ledger_invariants():
    """Recursion recorded as exact float equality; closed-form bound holds
    with 1e-12 slack; 50 runs."""
    started = time.perf_counter()
    rng = CounterRng(606, "ledger_inv")
    ok = True
    for k in range(50):
        p = 1 + rng.randrange(3)
        eps = [0.0, 1e-8, 1e-5, 1e-3][rng.randrange(4)]
        circuit = gen_block_local(6, p, 10 + rng.randrange(20),
                                  rng.randrange(10 ** 6))
        _, ledger, _ = run_approx(circuit, ApproxConfig(p, eps))
        e_prev = 0.0
        for entry in ledger.entries:
            want = (2 * p + 3) * (e_prev + eps)
            if entry.e_bound != want:
                ok = False
            if entry.e_bound > bound_e(eps, p, entry.j) + 1e-12:
                ok = False
            e_prev = entry.e_bound
    elapsed = time.perf_counter() - started
    _verdict("06 error-ledger-invariants", ok and elapsed < 60,
             f"time={elapsed:.1f}s")


def test_07_stabilizer_equivalence():
    """100 random Clifford circuits vs dense, exactly; then a 60-qubit,
    2000-gate run in < 1 s."""
    started = time.perf_counter()
    rng = CounterRng(707, "cliff_acc")
    agree = 0
    dyadic = True
    for _ in range(100):
        n = 2 + rng.randrange(7)  # n <= 8
        circuit = random_clifford_circuit(rng, n, 20 + rng.randrange(181))
        got = run_stabilizer(circuit)
        want = dense_marginal(dense_run(circuit), circuit.measured_qubit)
        if got.exact_eq(want):
            agree += 1
        f0, _ = got.floats()
        if f0 not in (0.0, 0.5, 1.0):
            dyadic = False
    wide = random_clifford_circuit(CounterRng(708, "wide"), 60, 2000)
    wide_start = time.perf_counter()
    run_stabilizer(wide)
    wide_time = time.perf_counter() - wide_start
    elapsed = time.perf_counter() - started
    _verdict("07 stabilizer-equivalence",
             agree == 100 and dyadic and wide_time < 1.0 and elapsed < 120,
             f"agree={agree}/100 wide={wide_time:.3f}s time={elapsed:.1f}s")


def test_08_entangled_yet_efficient():
    """GHZ is not (n-1)-blocked for n = 3..12, yet the tableau engine runs
    it at n = 60."""
    started = time.perf_counter()
    ok = True
    for n in range(3, 13):
        sv = dense_run(ghz_circuit(n))
        if dense_blockedness(sv, n - 1) is not None:
            ok = False
    dist = run_stabilizer(ghz_circuit(60))
    half = ExactScalar(Fraction(1, 2))
    ok &= dist.p0 == half and dist.p1 == half
    elapsed = time.perf_counter() - started
    _verdict("08 entangled-yet-efficient", ok and elapsed < 60,
             f"time={elapsed:.1f}s")


def test_09_sampler_statistics():
    """Empirical frequency within 4 sigma at 1e5 draws for four probability
    values; toss counter consumes exactly n per draw."""
    started = time.perf_counter()
    cases = [((0, 1), 0.25), ((1,), 0.5), ((1, 1), 0.75), ((1, 0, 1), 0.625)]
    draws = 100_000
    ok = True
    details = []
    for bits, x in cases:
        coins = CoinSource(9000 + len(bits))
        zeros = 0
        for _ in range(draws):
            before = coins.tosses
            if coin_sample(bits, coins) == 0:
                zeros += 1
            if coins.tosses - before != len(bits):
                ok = False
        freq = zeros / draws
        sigma = math.sqrt(x * (1 - x) / draws)
        details.append(f"{x}:{freq:.4f}")
        if abs(freq - x) > 4 * sigma:
            ok = False
    elapsed = time.perf_counter() - started
    _verdict("09 sampler-statistics", ok and elapsed < 30,
             " ".join(details) + f" time={elapsed:.1f}s")


def test_10_trace_norm_checks():
    """||rho|| = 1 within 1e-10 for 50 random exact densities; reduction
    never increases trace-norm distance."""
    started = time.perf_counter()
    rng = CounterRng(1010, "tnorm_acc")
    ok = True
    for k in range(50):
        qubits = 1 + rng.randrange(2)
        rho = random_mixed_density(rng, qubits) if k % 2 else \
            random_pure_density(rng, qubits)
        if abs(trace_norm_float(rho.matrix) - 1.0) > 1e-10:
            ok = False
    for _ in range(20):
        rho = random_mixed_density(rng, 2)
        sigma = random_mixed_density(rng, 2)
        whole = trace_norm_float(combine((ONE, rho.matrix),
                                         (MINUS_ONE, sigma.matrix)))
        part = trace_norm_float(
            combine((ONE, reduced_by_definition(rho, (0,)).matrix),
                    (MINUS_ONE, reduced_by_definition(sigma, (0,)).matrix)))
        if part > whole + 1e-9:
            ok = False
    elapsed = time.perf_counter() - started
    _verdict("10 trace-norm-checks", ok and elapsed < 30,
             f"time={elapsed:.1f}s")
