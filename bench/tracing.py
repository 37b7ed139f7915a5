"""Per-layer spans and counts for the pblocksim benchmark, taken from outside
the package.

A traced pass replaces program functions with timing wrappers and puts the
originals back afterwards.  A module that bound a name through
`from .matrices import ...` holds its own reference, so the wrapper goes into
every pblocksim module that holds the original object.  A name that is gone
at some commit records no calls and reports 0.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter

ENGINE_SPANS = (
    ("blocked", "apply_blocked"),
    ("blocked", "BlockedState.copy"),
    ("blocked", "conjugate_block"),
    ("blocked", "embed_gate"),
    ("blocked", "split_exact"),
    ("matrices", "mat_mul"),
    ("matrices", "partial_trace"),
    ("matrices", "product_over_partition"),
    ("matrices", "trace_norm_float"),
    ("partitions", "partitions_max_part"),
    ("approx", "approx_step"),
    ("stabilizer", "tableau_apply"),
    ("stabilizer", "tableau_marginal"),
)
GENERATORS = (("circuits", "gen_block_local"),
              ("circuits", "gen_entangle_disentangle"),
              ("approx", "gen_perturbed"))
SETUP_SPANS = (("circuits", "parse_circuit"),) + GENERATORS

# spans whose per-call times are also kept by input size
BUCKETS = {
    "blocked.conjugate_block": lambda args: f"k{len(args[0].labels)}",
    "blocked.split_exact": lambda args: f"k{len(args[0].labels)}",
    "matrices.trace_norm_float": lambda args: f"dim{args[0].rows}",
}
# spans that also sum the length of what they return
SIZED = {"partitions.partitions_max_part"}

# (module, class, method, counter) of the counting pass
COUNTED = (("exact", "ExactScalar", "__mul__", "mul"),
           ("exact", "ExactScalar", "__add__", "add"),
           ("stabilizer", "PauliString", "__init__", "pauli"))


def program_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "pblocksim" or name.startswith("pblocksim.")]


class Span:
    __slots__ = ("calls", "self_s", "durations", "buckets", "returned")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations = []
        self.buckets = defaultdict(list)
        self.returned = 0


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer(Patches):
    """Spans nest: a span's self time is its duration minus its children's."""

    def __init__(self):
        super().__init__()
        self.spans = defaultdict(Span)
        self._open = []     # time spent in children, one entry per open span

    def install(self, spans):
        for module, name in spans:
            self._patch(module, name)

    def _patch(self, module, name):
        span_name = f"{module}.{name}"
        span = self.spans[span_name]
        home = sys.modules.get(f"pblocksim.{module}")
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = self._wrap(span, original, BUCKETS.get(span_name),
                             span_name in SIZED)
        if owner_name:
            self.replace(owner, attr, wrapper)
            return
        for mod in program_modules():
            if getattr(mod, attr, None) is original:
                self.replace(mod, attr, wrapper)

    def _wrap(self, span, fn, bucket, sized):
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                span.calls += 1
                span.self_s += elapsed - children
                span.durations.append(elapsed)
                if bucket is not None:
                    span.buckets[bucket(args)].append(elapsed)
            if sized:
                span.returned += len(result)
            return result
        return traced


class Counter(Patches):
    """Counts scalar multiplications and additions and Pauli-string
    allocations; these repeat exactly from run to run."""

    def __init__(self):
        super().__init__()
        self.counts = {key: 0 for *_, key in COUNTED}

    def install(self):
        for module, cls_name, method, key in COUNTED:
            home = sys.modules.get(f"pblocksim.{module}")
            cls = getattr(home, cls_name, None)
            if cls is not None:
                counted = self._counting(cls.__dict__[method], key)
                self.replace(cls, method, counted)

    def _counting(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted


def _us(values) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def _p99_us(values) -> float:
    if len(values) < 2:
        return _us(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98] * 1e6


def layer_metrics(tracer: Tracer, counts: dict, gates: int, max_digits: int,
                  overhead_ratio: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    spans = tracer.spans
    out = {}

    def calls(name):
        out[f"{name}.calls"] = (spans[name].calls, "count")

    def self_s(name):
        out[f"{name}.self_s"] = (spans[name].self_s, "s")

    def latency(name):
        calls(name)
        self_s(name)
        out[f"{name}.p50_us"] = (_us(spans[name].durations), "us")
        out[f"{name}.p99_us"] = (_p99_us(spans[name].durations), "us")

    def buckets(name, keys):
        for key in keys:
            out[f"{name}.us.{key}"] = (_us(spans[name].buckets.get(key)), "us")

    latency("blocked.apply_blocked")
    calls("blocked.BlockedState.copy")
    self_s("blocked.BlockedState.copy")
    buckets("blocked.conjugate_block", [f"k{k}" for k in range(1, 7)])
    self_s("blocked.embed_gate")
    calls("blocked.split_exact")
    self_s("blocked.split_exact")
    buckets("blocked.split_exact", ["k4", "k5", "k6"])
    sizes = [int(k[1:]) for k in spans["blocked.conjugate_block"].buckets]
    out["blocked.max_block_size"] = (max(sizes, default=0), "qubits")
    for name in ("matrices.mat_mul", "matrices.partial_trace",
                 "matrices.product_over_partition",
                 "matrices.trace_norm_float"):
        calls(name)
        self_s(name)
    buckets("matrices.trace_norm_float", ["dim16", "dim32"])
    partitions = spans["partitions.partitions_max_part"]
    calls("partitions.partitions_max_part")
    out["partitions.candidates_per_call"] = (
        partitions.returned / partitions.calls if partitions.calls else 0.0,
        "count")
    latency("approx.approx_step")
    steps = spans["approx.approx_step"].calls
    out["approx.trace_norms_per_step"] = (
        spans["matrices.trace_norm_float"].calls / steps if steps else 0.0,
        "count")
    latency("stabilizer.tableau_apply")
    self_s("stabilizer.tableau_marginal")
    out["stabilizer.pauli_allocs_per_gate"] = (counts["pauli"] / gates,
                                                "count")
    self_s("circuits.parse_circuit")
    out["circuits.generate.self_s"] = (
        sum(spans[f"{m}.{f}"].self_s for m, f in GENERATORS), "s")
    out["exact.mul_per_gate"] = (counts["mul"] / gates, "count")
    out["exact.add_per_gate"] = (counts["add"] / gates, "count")
    out["exact.max_digits"] = (max_digits, "digits")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
