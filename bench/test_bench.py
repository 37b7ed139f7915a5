"""Checks of the benchmark itself, on small versions of its workloads."""

import json
import sys

import pytest

import run
from workloads import (WORKLOADS, ApproxPerturbed, CliffordMirror,
                       EntangleSplit, LocalWide)

sys.path.insert(0, str(run.SRC))

SMALL = {
    "local-wide": lambda: LocalWide(count=4),
    "entangle-split": lambda: EntangleSplit(count=3, twin_count=2),
    "approx-perturbed": lambda: ApproxPerturbed(pool=3, census=40),
    "clifford-mirror": lambda: CliffordMirror(count=8, u_gates=10),
}

# Which workloads each span must fire on; on every other workload it must
# report 0.  Spans of a function a later commit removed are skipped.
FIRES = {
    "blocked.apply_blocked.calls": {"local-wide", "entangle-split"},
    "blocked.BlockedState.copy.calls":
        {"local-wide", "entangle-split", "approx-perturbed"},
    "blocked.embed_gate.self_s":
        {"local-wide", "entangle-split", "approx-perturbed"},
    "matrices.mat_mul.calls":
        {"local-wide", "entangle-split", "approx-perturbed"},
    "exact.mul_per_gate": {"local-wide", "entangle-split", "approx-perturbed"},
    "blocked.split_exact.calls": {"entangle-split"},
    "partitions.partitions_max_part.calls":
        {"entangle-split", "approx-perturbed"},
    "approx.approx_step.calls": {"approx-perturbed"},
    "matrices.product_over_partition.calls": {"approx-perturbed"},
    "matrices.trace_norm_float.calls": {"approx-perturbed"},
    "stabilizer.tableau_apply.calls": {"clifford-mirror"},
    "stabilizer.pauli_allocs_per_gate": {"clifford-mirror"},
    "circuits.parse_circuit.self_s": set(SMALL),
    "circuits.generate.self_s":
        {"local-wide", "entangle-split", "approx-perturbed"},
}


@pytest.fixture
def program():
    pb = run.Program()
    assert not run.production_problems(pb)
    return pb


def traced(name, pb, seed=1):
    workload = SMALL[name]()
    plan = workload.plan(pb, seed)
    session, metrics, _ = run.trace_metrics(workload, pb, seed, plan, 0)
    return session, {k: v for k, (v, _) in metrics.items()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_spans_fire_where_designed(name, program):
    session, metrics = traced(name, program)
    assert session.failed_calls() == 0
    for metric, workloads in FIRES.items():
        module, function = metric.split(".")[:2]
        if module == "blocked" and not hasattr(program.blocked, function):
            continue
        assert (metrics[metric] > 0) == (name in workloads), metric
    assert 0 < metrics["trace.overhead_ratio"]


def test_block_local_workload_never_splits(program):
    _, metrics = traced("local-wide", program)
    assert metrics["blocked.split_exact.calls"] == 0
    assert metrics["matrices.trace_norm_float.calls"] == 0
    assert metrics["blocked.max_block_size"] == 2


def test_counting_pass_repeats_exactly(program):
    _, first = traced("entangle-split", program)
    _, second = traced("entangle-split", program)
    for key in ("exact.mul_per_gate", "exact.add_per_gate"):
        assert first[key] == second[key] > 0


def outputs_of(name, pb, seed=1):
    workload = SMALL[name]()
    plan = workload.plan(pb, seed)
    items = workload.arrange(pb, workload.generate(pb, seed, plan), plan)
    return workload, items, {item: workload.run(pb, item) for item in items}


def test_clifford_oracle_rejects_a_no_op_engine(program):
    workload, items, outputs = outputs_of("clifford-mirror", program)
    assert not workload.verify(program, items, outputs)
    one, zero = program.exact.ONE, program.exact.ZERO
    dist = type(outputs[items[0]])
    no_op = {item: dist(*((zero, one) if item.circuit.input_bits[
        item.circuit.measured_qubit] == "1" else (one, zero)))
        for item in items}
    assert workload.verify(program, items, no_op)


def test_blocked_oracle_rejects_a_changed_block(program):
    workload, items, outputs = outputs_of("entangle-split", program)
    assert not workload.verify(program, items, outputs)
    state, _ = outputs[items[0]]
    block = max(state.blocks.values(), key=lambda b: len(b.labels))
    entries = block.matrix.entries
    entries[0], entries[-1] = entries[-1], entries[0]
    if entries[0] == entries[-1]:
        entries[0] = entries[0] + program.exact.ONE
    assert items[0] in workload.verify(program, items, outputs)


def test_approx_oracle_rejects_a_broken_ledger(program):
    workload, items, outputs = outputs_of("approx-perturbed", program)
    assert not workload.verify(program, items, outputs)
    _, ledger, _ = outputs[items[0]]
    entry = ledger.entries[3]
    ledger.entries[3] = type(entry)(entry.j, entry.e_bound * 2, entry.d,
                                    entry.flag)
    assert items[0] in workload.verify(program, items, outputs)


def test_approx_twin_without_a_reference_fails(program):
    workload, items, outputs = outputs_of("approx-perturbed", program)
    [twin] = [item for item in items if item.side == "wide"]
    reference = next(item for item in items
                     if item.side == "narrow"
                     and item.segments[0][0] == twin.segments[0][0])
    del outputs[reference]
    kept = [item for item in items if item is not reference]
    assert twin in workload.verify(program, kept, outputs)


def test_refuses_debug_mode_and_dense_cap(program, monkeypatch):
    monkeypatch.setattr(program.approx, "DEBUG_CHECKS", True)
    monkeypatch.setenv("PBLOCK_DENSE_CAP", "20")
    assert len(run.production_problems(program)) == 2


def test_refuses_inputs_other_than_recorded(program, monkeypatch):
    workload = SMALL["local-wide"]()
    monkeypatch.setattr(workload, "canary", lambda pb: "qubits 1\n")
    assert not run.inputs_match_record(workload, program)


def test_benchmark_json_lists_what_the_benchmark_reports(program):
    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: cls.why for name, cls in WORKLOADS.items()}
    workload = SMALL["local-wide"]()
    _, metrics, _ = run.trace_metrics(workload, program, 1, None, 0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in metrics.items()]
