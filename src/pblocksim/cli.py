"""Command-line interface: simulate, compare, analyze-ap.

Exit codes: 0 success, 1 usage or parse failure, 2 a blocked run hit a state
that does not factor or a blocked or approx run got an input block larger
than p (PBlockError), 3 a stabilizer run hit a gate that is not Clifford by
its matrix.  stdout is deterministic for fixed flags and
seed; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .exact import ExactScalar
from .circuits import Circuit, CircuitError, parse_circuit
from .dense import dense_run, dense_marginal
from .blocked import PBlockError, run_blocked_full
from .approx import ApproxConfig, run_approx
from .stabilizer import NonCliffordGate, run_stabilizer
from .sampling import (OutcomeDistribution, CoinSource, dist_distance,
                       sample_outcomes)
from . import ap as ap_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PBLOCK = 2
EXIT_NONCLIFFORD = 3

ENGINES = ("blocked", "approx", "dense", "stabilizer")
# simulate's flags that only some engines read; any other engine refuses
# them, so no flag is silently ignored
_ENGINE_FLAGS = (("p", ("blocked", "approx")),
                 ("epsilon", ("approx",)),
                 ("ledger", ("approx",)))

# exit code of each engine failure; the first row that matches wins
_FAILURE_CODES = ((PBlockError, EXIT_PBLOCK),
                  (NonCliffordGate, EXIT_NONCLIFFORD),
                  (ValueError, EXIT_USAGE))  # WidthCapExceeded among them
_ENGINE_FAILURES = tuple(kind for kind, _ in _FAILURE_CODES)


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(EXIT_USAGE, f"usage error: {message}")


def _format_prob(label: str, value: ExactScalar) -> str:
    return f"{label} = {value.to_text()} ({value.to_float():.12f})"


def _failure_code(exc: Exception) -> int:
    return next(code for kind, code in _FAILURE_CODES
                if isinstance(exc, kind))


def _load_circuit(path: str) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_USAGE, f"cannot read {path}: {exc}")
    try:
        return parse_circuit(text)
    except CircuitError as exc:
        raise _CliError(EXIT_USAGE, f"{path}: {exc}")


def _check_engine(engine: str, p: int | None) -> None:
    if engine not in ENGINES:
        raise _CliError(EXIT_USAGE, f"unknown engine {engine!r}")
    if engine in ("blocked", "approx") and p is None:
        raise _CliError(EXIT_USAGE, f"--p is required for --engine {engine}")


def _run_engine(engine: str, circuit: Circuit, p: int | None,
                epsilon: float):
    """Returns (distribution, ledger, digit_stats)."""
    _check_engine(engine, p)
    if engine == "blocked":
        state, dist = run_blocked_full(circuit, p)
        return dist, None, state.digit_count()
    if engine == "dense":
        state = dense_run(circuit)
        dist = dense_marginal(state, circuit.measured_qubit)
        digits = max(a.digit_count() for a in state.amps.values())
        return dist, None, digits
    if engine == "approx":
        cfg = ApproxConfig(p, epsilon)
        dist, ledger, cert = run_approx(circuit, cfg)
        return dist, (ledger, cert), None
    return run_stabilizer(circuit), None, None


def _check_ledger_writable(path: str) -> None:
    """Fail before the run, with nothing on stdout, when the ledger cannot
    be written.  Opening for appending truncates nothing, and a file it
    creates is removed again, so a run that fails leaves the path as it
    was."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot write {path}: {exc}")
    if not existed:
        os.remove(path)


def cmd_simulate(args) -> None:
    if args.samples < 0:
        raise _CliError(EXIT_USAGE, "--samples must be >= 0")
    if args.samples and not args.eta > 0:
        raise _CliError(EXIT_USAGE, "--eta must be positive")
    for flag, engines in _ENGINE_FLAGS:
        if getattr(args, flag) is not None and args.engine not in engines:
            raise _CliError(EXIT_USAGE, f"--{flag} needs --engine "
                            + " or ".join(engines))
    circuit = _load_circuit(args.circuit)
    if args.ledger:
        _check_ledger_writable(args.ledger)
    started = time.perf_counter()
    try:
        dist, ledger_info, digits = _run_engine(
            args.engine, circuit, args.p,
            0.0 if args.epsilon is None else args.epsilon)
    except _ENGINE_FAILURES as exc:
        code = _failure_code(exc)
        raise _CliError(code, f"not p-blocked: {exc}"
                        if code == EXIT_PBLOCK else str(exc))
    wall = time.perf_counter() - started
    # drawn before anything prints, so a distribution that cannot be
    # sampled leaves stdout empty
    drawn = []
    if args.samples:
        try:
            drawn = sample_outcomes(dist, args.eta, CoinSource(args.seed),
                                    args.samples)
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, f"cannot sample: {exc}")

    print(_format_prob("p0", dist.p0))
    print(_format_prob("p1", dist.p1))
    if digits is not None:
        print(f"digits = {digits}")
    if ledger_info is not None:
        ledger, cert = ledger_info
        print(cert.summary())
        if args.ledger:
            try:
                with open(args.ledger, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(ledger.export_lines()))
                    fh.write("\n" + cert.summary() + "\n")
            except OSError as exc:
                raise _CliError(EXIT_USAGE,
                                f"cannot write {args.ledger}: {exc}")
    if args.samples:
        for b in drawn:
            print(b)
        print(f"samples={args.samples} zeros={drawn.count(0)} "
              f"ones={drawn.count(1)} seed={args.seed}")
    print(f"wall_time={wall:.3f}s", file=sys.stderr)


def cmd_compare(args) -> int:
    circuit = _load_circuit(args.circuit)
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    if len(engines) < 2:
        raise _CliError(EXIT_USAGE, "--engines needs at least two entries")
    for engine in engines:
        _check_engine(engine, args.p)
    results: dict[str, OutcomeDistribution] = {}
    failures: dict[str, int] = {}
    for engine in engines:
        try:
            # the ledger is discarded, so approx runs with epsilon 0
            dist, _, _ = _run_engine(engine, circuit, args.p, 0.0)
            results[engine] = dist
            print(_format_prob(f"{engine} p0", dist.p0))
        except _ENGINE_FAILURES as exc:
            failures[engine] = code = _failure_code(exc)
            print(f"{engine}: not p-blocked ({exc})"
                  if code == EXIT_PBLOCK else f"{engine}: {exc}")
    names = [e for e in engines if e in results]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            da, db = results[a], results[b]
            gap = dist_distance(da, db)
            verdict = " MATCH" if da.exact_eq(db) else " MISMATCH"
            print(f"dist({a},{b}) = {gap:.12f}{verdict}")
    if failures:
        return failures[next(iter(failures))]
    return EXIT_OK


def cmd_analyze_ap(args) -> int:
    if args.census:
        try:
            result = ap_mod.census(args.rbits, args.trials, args.p, args.n,
                                   args.seed)
        except ap_mod.BadArgs as exc:
            raise _CliError(EXIT_USAGE, f"bad --census: {exc}")
        print(result.line())
        return EXIT_OK
    if args.pair:
        try:
            x0, x1 = (int(v) for v in args.pair.split(","))
            state = ap_mod.build_pair(x0, x1, args.n)
        except (ValueError, ap_mod.BadArgs, ap_mod.RangeOverflow) as exc:
            raise _CliError(EXIT_USAGE, f"bad --pair: {exc}")
    else:
        if args.x0 is None or args.r is None or args.count is None:
            raise _CliError(EXIT_USAGE,
                            "need --x0/--r/--count (or --pair / --census)")
        try:
            state = ap_mod.build_ap(args.x0, args.r, args.count, args.n)
        except (ap_mod.BadArgs, ap_mod.RangeOverflow) as exc:
            raise _CliError(EXIT_USAGE, str(exc))
    try:
        parts = ap_mod.analyze_blockedness(state, args.p)
    except ap_mod.BadArgs as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    if parts is None:
        print(f"NOT {args.p}-BLOCKED")
    else:
        print(ap_mod.format_partition(parts))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="pblocksim",
                     description="exact simulators for block-factored "
                                 "quantum circuits")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one engine on a circuit file")
    sim.add_argument("--engine", required=True,
                     choices=ENGINES)
    sim.add_argument("--circuit", required=True)
    sim.add_argument("--p", type=int, default=None,
                     help="block size bound (blocked and approx only)")
    sim.add_argument("--epsilon", type=float, default=None,
                     help="per-step distance assumption (approx only; "
                          "default 0)")
    sim.add_argument("--eta", type=float, default=1e-6)
    sim.add_argument("--samples", type=int, default=0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--ledger", default=None,
                     help="write the error ledger here (approx only)")

    cmp_ = sub.add_parser("compare", help="run several engines and compare")
    cmp_.add_argument("--engines", required=True,
                      help="comma-separated engine list")
    cmp_.add_argument("--circuit", required=True)
    cmp_.add_argument("--p", type=int, default=None)

    ana = sub.add_parser("analyze-ap",
                         help="blockedness of progression/pair states")
    ana.add_argument("--n", type=int, required=True)
    ana.add_argument("--p", type=int, required=True)
    ana.add_argument("--x0", type=int, default=None)
    ana.add_argument("--r", type=int, default=None)
    ana.add_argument("--count", type=int, default=None)
    ana.add_argument("--pair", default=None)
    ana.add_argument("--census", action="store_true")
    ana.add_argument("--rbits", type=int, default=8)
    ana.add_argument("--trials", type=int, default=100)
    ana.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    # an exact probability prints in full however many digits it has: the
    # interpreter's int-to-str limit (3.11+, and 3.10 from 3.10.7) is lifted
    # for this run and restored after it
    old_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            cmd_simulate(args)
            return EXIT_OK
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "analyze-ap":
            return cmd_analyze_ap(args)
        return EXIT_USAGE
    except _CliError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
