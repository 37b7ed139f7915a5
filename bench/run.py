"""Benchmark of the pblocksim engines.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of workloads.py in this process, on one thread.  Inputs
come from the seed.  Each call of a public engine entry point is timed on
its own; rounds over the workload's circuits repeat until S seconds of
engine time have passed.  Every output is checked exactly against an oracle
outside the timed region.

Times are scaled to a quiet host: a fixed pure-Python reference loop is
timed between the calls (see `Clock`), and a round's times are multiplied by
REFERENCE_S over the median of the loop's times in that round.  Other
tenants of a shared host slow the loop and the engines alike: on a 2-vCPU
virtual machine where the time of the same work varied by 18% (coefficient
of variation over one-second windows), the scaled times varied by 5%.

--trace 0 reports the end-to-end metrics: gates_per_s and width_cost_ratio
(medians over rounds), setup_s (median of SETUP_REPEATS timed imports,
generations and parses) and peak_rss_mb.  gates_per_s and setup_s are
normalised to the reference loop; the run also prints them unscaled and the
scale factor of each round and set-up ("unscaled_*", "scale_*" lines).
--trace 1 reports the per-layer metrics of one traced pass and one counting
pass over the primary circuits (tracing.py), and the tracing overhead
against untraced passes.

Every metric is printed as "name value unit"; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
`--record-digests` rewrites digests.json after the inputs were changed on
purpose.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from collections import Counter as Tally
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

from tracing import (ENGINE_SPANS, SETUP_SPANS, Counter,  # noqa: E402
                     Tracer, layer_metrics)
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 3
REFERENCE_S = 0.004     # reference loop time on a quiet host
CALIBRATE_EVERY = 0.1   # seconds of engine time between reference timings
DIGESTS = BENCH / "digests.json"
DEBUG_MODULES = ("blocked", "approx", "stabilizer")


class Program:
    """The pblocksim modules the benchmark calls into."""
    MODULES = ("exact", "matrices", "partitions", "circuits", "dense",
               "blocked", "approx", "stabilizer")

    def __init__(self):
        importlib.import_module("pblocksim")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"pblocksim.{name}"))


def forget_program() -> None:
    """Drop the imported package, so that the next import is timed whole."""
    for name in [n for n in sys.modules
                 if n == "pblocksim" or n.startswith("pblocksim.")]:
        del sys.modules[name]


def production_problems(pb: Program) -> list[str]:
    """Reasons the program is not in the mode users run it in."""
    problems = [f"pblocksim.{m}.DEBUG_CHECKS is on" for m in DEBUG_MODULES
                if getattr(getattr(pb, m), "DEBUG_CHECKS", False)]
    if "PBLOCK_DENSE_CAP" in os.environ:
        problems.append("PBLOCK_DENSE_CAP is set")
    return problems


def canary_digest(workload, pb: Program) -> str:
    return hashlib.sha256(workload.canary(pb).encode()).hexdigest()


def inputs_match_record(workload, pb: Program) -> bool:
    recorded = json.loads(DIGESTS.read_text()).get(workload.name)
    if canary_digest(workload, pb) == recorded:
        return True
    print(f"{workload.name}: the program's generators give other inputs "
          f"than those recorded in {DIGESTS.name}; results are not "
          f"comparable with earlier commits", file=sys.stderr)
    return False


def reference_loop() -> None:
    """Fixed work that shares no code with the program but has the shape of
    its exact arithmetic: products of five-integer scalars with a gcd
    normalisation, over a list the size of a small dense state."""
    state = [(i % 7 - 3, i % 5 - 2, i % 3 - 1, i % 2, 1 + i % 4)
             for i in range(512)]
    for rep in range(6):
        out = []
        for k in range(512):
            xa, xb, xc, xd, xden = state[k]
            ya, yb, yc, yd, yden = state[(k * 7 + rep) % 512]
            na = xa * ya - xb * yb + 2 * (xc * yc - xd * yd)
            nb = xa * yb + xb * ya + 2 * (xc * yd + xd * yc)
            nc = xa * yc - xb * yd + xc * ya - xd * yb
            nd = xa * yd + xb * yc + xc * yb + xd * ya
            den = xden * yden
            g = math.gcd(na, nb, nc, nd, den)
            out.append((na // g, nb // g, nc // g, nd // g, den // g))
        state = out


class Clock:
    """Times the reference loop every CALIBRATE_EVERY seconds of engine
    work; `scale` gives the factor that turns the work timed since its last
    call into time on a quiet host."""

    def __init__(self):
        self.samples = []
        self.since = CALIBRATE_EVERY

    def tick(self, elapsed: float = 0.0) -> None:
        self.since += elapsed
        if self.since >= CALIBRATE_EVERY:
            self.sample()

    def sample(self) -> None:
        start = perf_counter()
        reference_loop()
        self.samples.append(perf_counter() - start)
        self.since = 0.0

    def scale(self) -> float:
        factor = REFERENCE_S / statistics.median(self.samples)
        self.samples = []
        self.since = CALIBRATE_EVERY    # the next span starts with a timing
        return factor


class Session:
    """Every engine call of a run, with the first output of each item kept
    for the oracle and later outputs compared with it."""

    def __init__(self, workload, pb: Program):
        self.workload = workload
        self.pb = pb
        self.first = {}
        self.calls = Tally()
        self.bad = Tally()      # calls that raised or differed from the first
        self.clock = Clock()

    def call(self, item) -> float:
        self.clock.tick()
        start = perf_counter()
        try:
            out = self.workload.run(self.pb, item)
        except Exception:
            elapsed = perf_counter() - start
            if not self.bad[item]:
                traceback.print_exc()
            self.bad[item] += 1
            out = None
        else:
            elapsed = perf_counter() - start
        self.calls[item] += 1
        if out is not None:
            if item not in self.first:
                self.first[item] = out
            elif not self.workload.same(self.first[item], out):
                self.bad[item] += 1
        self.clock.tick(elapsed)
        return elapsed

    def rounds(self, items, seconds: float, least: int = 1) -> list[tuple]:
        """Rounds over `items` until `seconds` of engine time and at least
        `least` rounds, each as (measured, scaled) times by item and its
        scale factor.  Every other round runs in reverse order, so the
        narrow and wide sides of width_cost_ratio take turns going first."""
        out, busy = [], 0.0
        while busy < seconds or len(out) < least:
            gc.collect()    # garbage of earlier rounds and checks
            order = items if len(out) % 2 == 0 else items[::-1]
            measured = {item: self.call(item) for item in order}
            busy += sum(measured.values())
            scale = self.clock.scale()
            out.append((measured, {k: v * scale for k, v in measured.items()},
                        scale))
        return out

    def failed_calls(self) -> int:
        wrong = self.workload.verify(self.pb, list(self.first), self.first)
        return sum(n if item in wrong or item not in self.first
                   else self.bad[item] for item, n in self.calls.items())


def gates_per_s(times: dict) -> float:
    primary = [(item, t) for item, t in times.items() if item.primary]
    return sum(item.gates for item, _ in primary) / sum(t for _, t in primary)


def width_cost_ratio(times: dict) -> float:
    per_gate = {}
    for side in ("narrow", "wide"):
        part = [(item, t) for item, t in times.items() if item.side == side]
        per_gate[side] = sum(t for _, t in part) / \
            sum(item.gates for item, _ in part)
    return per_gate["wide"] / per_gate["narrow"]


def output_digits(out) -> int:
    if isinstance(out, tuple) and hasattr(out[0], "digit_count"):
        return out[0].digit_count()
    dist = out[0] if isinstance(out, tuple) else out
    return max(dist.p0.digit_count(), dist.p1.digit_count())


def report(session: Session, metrics: dict, correct: bool) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    attempted = sum(session.calls.values())
    failed = session.failed_calls()
    print(f"failed_frac {failed / attempted!r} fraction")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def end_to_end(workload, pb: Program, seed: int, plan, seconds: float) -> int:
    setup, setup_scales, clock = [], [], Clock()
    for _ in range(SETUP_REPEATS):
        forget_program()
        for _ in range(3):
            clock.sample()
        start = perf_counter()
        pb = Program()
        generated = workload.generate(pb, seed, plan)
        setup.append(perf_counter() - start)
        setup_scales.append(clock.scale())
    items = workload.arrange(pb, generated, plan)
    if not ready(workload, pb, items, seed, plan):
        return 2
    correct = inputs_match_record(workload, pb)
    session = Session(workload, pb)
    rounds = session.rounds(items, seconds, MIN_ROUNDS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The two sides of the ratio alternate within each round, so it needs
    # no scaling.
    metrics = {
        "gates_per_s": (statistics.median(
            gates_per_s(scaled) for _, scaled, _ in rounds), "gates/s"),
        "width_cost_ratio": (statistics.median(
            width_cost_ratio(measured) for measured, _, _ in rounds), "ratio"),
        "setup_s": (statistics.median(
            t * f for t, f in zip(setup, setup_scales)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"rounds {len(rounds)}")
    unscaled = statistics.median(gates_per_s(measured)
                                 for measured, _, _ in rounds)
    print(f"unscaled_gates_per_s {unscaled!r} gates/s")
    print(f"unscaled_setup_s {statistics.median(setup)!r} s")
    print("scale_rounds " + " ".join(repr(f) for _, _, f in rounds))
    print("scale_setup " + " ".join(repr(f) for f in setup_scales))
    report(session, metrics, correct)
    return 0


def traced(workload, pb: Program, seed: int, plan, seconds: float) -> int:
    result = trace_metrics(workload, pb, seed, plan, seconds)
    if result is None:
        return 2
    report(*result)
    return 0


def trace_metrics(workload, pb: Program, seed: int, plan, seconds: float):
    """(session, per-layer metrics, inputs as recorded), or None when the
    program is not in production mode."""
    tracer = Tracer()
    tracer.install(SETUP_SPANS)
    try:
        generated = workload.generate(pb, seed, plan)
    finally:
        tracer.restore()
    items = workload.arrange(pb, generated, plan)
    if not ready(workload, pb, items, seed, plan):
        return None
    correct = inputs_match_record(workload, pb)
    session = Session(workload, pb)
    primary = [item for item in items if item.primary]
    untraced = session.rounds(primary, seconds, MIN_ROUNDS)
    tracer.install(ENGINE_SPANS)
    try:
        [(_, traced_round, _)] = session.rounds(primary, 0)
    finally:
        tracer.restore()
    counter = Counter()
    counter.install()
    try:
        session.rounds(primary, 0)
    finally:
        counter.restore()
    overhead = gates_per_s(traced_round) / \
        statistics.median(gates_per_s(scaled) for _, scaled, _ in untraced)
    digits = max((output_digits(session.first[item]) for item in primary
                  if item in session.first), default=0)
    gates = sum(item.gates for item in primary)
    metrics = layer_metrics(tracer, counter.counts, gates, digits, overhead)
    return session, metrics, correct


def ready(workload, pb: Program, items, seed: int, plan) -> bool:
    """Refuse to time a program with its self-checks on; print the digest
    and the workload's notes on this run's inputs."""
    problems = production_problems(pb)
    for problem in problems:
        print(f"not timing: {problem}", file=sys.stderr)
    for line in workload.notes(plan):
        print(line)
    digest = hashlib.sha256("".join(item.text for item in items).encode())
    print(f"input_digest {workload.name} seed={seed} "
          f"sha256={digest.hexdigest()}")
    return not problems


def record_digests() -> int:
    pb = Program()
    digests = {name: canary_digest(cls(), pb)
               for name, cls in WORKLOADS.items()}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pblocksim" / "__init__.py").is_file():
        print(f"no pblocksim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        return record_digests()
    # First import: compiles the package outside the timed set-ups.
    pb = Program()
    if not Path(pb.exact.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"pblocksim imported from {pb.exact.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    plan = workload.plan(pb, args.seed)
    run = traced if args.trace else end_to_end
    return run(workload, pb, args.seed, plan, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
