"""Command-line surface: output format, exit codes, determinism."""

import io
import contextlib
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import pblocksim

from pblocksim import cli
from pblocksim.circuits import serialize_circuit
from pblocksim.exact import ExactScalar
from pblocksim.sampling import OutcomeDistribution
from pblocksim.cli import main, EXIT_OK, EXIT_USAGE, EXIT_PBLOCK, \
    EXIT_NONCLIFFORD

from helpers import OUT_OF_ORDER_INPUTS

BELL = "qubits 2\ninput 00\ngate H 0\ngate CNOT 0 1\nmeasure 0\n"
T_GATE = "qubits 1\ninput 0\ngate T 0\nmeasure 0\n"
# defgates run on the stabilizer engine by matrix: "H" here is X, "TT" is T
SHADOWED_H = "qubits 1\ndefgate H 1\n0 1\n1 0\ngate H 0\nmeasure 0\n"
RENAMED_T = "qubits 1\ndefgate TT 1\n1 0\n0 1/2*r2+1/2*i*r2\ngate TT 0\n"


@pytest.fixture
def bell_path(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL)
    return str(path)


@pytest.fixture
def t_path(tmp_path):
    path = tmp_path / "t_gate.qc"
    path.write_text(T_GATE)
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestSimulate:
    def test_blocked_bell(self, bell_path):
        code, out, _ = run_cli(["simulate", "--engine", "blocked",
                                "--p", "2", "--circuit", bell_path])
        assert code == EXIT_OK
        assert "p0 = 1/2 (0.500000000000)" in out
        assert "p1 = 1/2 (0.500000000000)" in out

    def test_blocked_bell_p1_exit2(self, bell_path):
        code, _, err = run_cli(["simulate", "--engine", "blocked",
                                "--p", "1", "--circuit", bell_path])
        assert code == EXIT_PBLOCK
        assert "step 1" in err

    def test_oversized_input_block_exit2_on_both_block_engines(self,
                                                              tmp_path):
        path = tmp_path / "mixed.qc"
        path.write_text(serialize_circuit(OUT_OF_ORDER_INPUTS))
        blocked, approx = (
            run_cli(["simulate", "--engine", engine, "--p", "2",
                     "--circuit", str(path)])
            for engine in ("blocked", "approx"))
        assert blocked == approx == (
            EXIT_PBLOCK, "", "not p-blocked: step -1: block (3, 1, 6) "
            "input block larger than p = 2\n")

    def test_stabilizer_t_gate_exit3(self, t_path, tmp_path):
        renamed = tmp_path / "renamed_t.qc"
        renamed.write_text(RENAMED_T)
        for path, name in ((t_path, "T"), (str(renamed), "TT")):
            code, _, err = run_cli(["simulate", "--engine", "stabilizer",
                                    "--circuit", path])
            assert code == EXIT_NONCLIFFORD
            assert f"step 0: gate {name} has no tableau update rule" in err

    def test_parse_failure_exit1(self, tmp_path):
        bad = tmp_path / "bad.qc"
        bad.write_text("qubits 2\ngate CNOT 0 0\n")
        code, _, _ = run_cli(["simulate", "--engine", "dense",
                              "--circuit", str(bad)])
        assert code == EXIT_USAGE

    def test_memory_error_while_loading_exit1(self, bell_path, monkeypatch):
        def exhausted(text):
            raise MemoryError()
        monkeypatch.setattr(cli, "parse_circuit", exhausted)
        code, out, err = run_cli(["simulate", "--engine", "dense",
                                  "--circuit", bell_path])
        assert (code, out, err) == (EXIT_USAGE, "",
                                    f"{bell_path}: out of memory\n")

    def test_memory_error_while_running_exit1(self, bell_path, monkeypatch):
        def exhausted(circuit):
            raise MemoryError()
        monkeypatch.setattr(cli, "dense_run", exhausted)
        code, out, err = run_cli(["simulate", "--engine", "dense",
                                  "--circuit", bell_path])
        assert (code, out, err) == (EXIT_USAGE, "", "out of memory\n")
        code, out, _ = run_cli(["compare", "--engines", "blocked,dense",
                                "--p", "2", "--circuit", bell_path])
        assert code == EXIT_USAGE
        assert out.splitlines()[-1] == "dense: out of memory"

    def test_missing_flag_exit1(self, bell_path):
        code, _, _ = run_cli(["simulate", "--engine", "blocked",
                              "--circuit", bell_path])
        assert code == EXIT_USAGE  # --p required

    def test_sampling_deterministic(self, bell_path):
        args = ["simulate", "--engine", "dense", "--circuit", bell_path,
                "--samples", "10", "--seed", "4"]
        code1, out1, _ = run_cli(args)
        code2, out2, _ = run_cli(args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert "samples=10" in out1

    def test_samples_truncate_once(self, bell_path, monkeypatch):
        truncate = pblocksim.sampling.truncate_prob
        calls = []

        def counted(*args):
            calls.append(args)
            return truncate(*args)

        monkeypatch.setattr(pblocksim.sampling, "truncate_prob", counted)
        code, out, _ = run_cli(["simulate", "--engine", "dense",
                                "--circuit", bell_path, "--samples", "50"])
        assert code == EXIT_OK
        assert "samples=50" in out
        assert len(calls) == 1

    def test_probabilities_print_in_full_past_the_str_limit(
            self, bell_path, monkeypatch):
        """A 5001-digit probability prints whole, and the interpreter's
        int-to-str limit is as it was once main returns."""
        big = 10**5000 + 1
        dist = OutcomeDistribution(ExactScalar(Fraction(1, big)),
                                   ExactScalar(Fraction(big - 1, big)))
        monkeypatch.setattr(cli, "_run_engine",
                            lambda *args: (dist, None, dist.p0.digit_count()))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, _ = run_cli(["simulate", "--engine", "dense",
                                "--circuit", bell_path])
        assert code == EXIT_OK
        big_text = "1" + "0" * 4999 + "1"
        assert out.splitlines() == [
            f"p0 = 1/{big_text} (0.000000000000)",
            f"p1 = 1{'0' * 5000}/{big_text} (1.000000000000)",
            "digits = 5001"]
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() \
            == limit

    def test_approx_writes_ledger(self, bell_path, tmp_path):
        ledger_path = tmp_path / "ledger.txt"
        code, out, _ = run_cli(["simulate", "--engine", "approx",
                                "--p", "1", "--epsilon", "0.001",
                                "--circuit", bell_path,
                                "--ledger", str(ledger_path)])
        assert code == EXIT_OK
        assert "e_T=" in out and "conditional_on_eps=" in out
        lines = ledger_path.read_text().splitlines()
        assert len(lines) == 3  # two steps + certificate line
        assert lines[0].split()[0] == "1"
        assert lines[-1].startswith("e_T=")

    def test_unwritable_ledger_fails_before_the_run(self, bell_path,
                                                    tmp_path, monkeypatch):
        def no_run(*args):
            raise AssertionError("the approx run started")
        monkeypatch.setattr(cli, "run_approx", no_run)
        code, out, err = run_cli(["simulate", "--engine", "approx",
                                  "--p", "1", "--circuit", bell_path,
                                  "--ledger", str(tmp_path / "no" / "x.txt")])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("cannot write ") and len(err.splitlines()) == 1

    def test_failed_run_leaves_no_ledger(self, bell_path, tmp_path):
        ledger_path = tmp_path / "ledger.txt"
        code, out, _ = run_cli(["simulate", "--engine", "approx",
                                "--p", "0", "--circuit", bell_path,
                                "--ledger", str(ledger_path)])
        assert code == EXIT_USAGE and out == ""
        assert not ledger_path.exists()


class TestCompare:
    def test_match_across_engines(self, bell_path, tmp_path):
        shadowed = tmp_path / "shadowed_h.qc"
        shadowed.write_text(SHADOWED_H)
        for path in (bell_path, str(shadowed)):
            code, out, _ = run_cli(["compare",
                                    "--engines", "blocked,dense,stabilizer",
                                    "--p", "2", "--circuit", path])
            assert code == EXIT_OK
            assert out.count(" MATCH") == 3 and "MISMATCH" not in out
            assert "dist(blocked,dense) = 0.000000000000" in out
        assert "stabilizer p0 = 0 " in out    # the shadowing H is X

    def test_failing_engine_reports_code(self, t_path):
        code, out, _ = run_cli(["compare", "--engines", "stabilizer,dense",
                                "--circuit", t_path])
        assert code == EXIT_NONCLIFFORD
        assert "dense p0" in out

    def test_needs_two_engines(self, bell_path):
        code, _, _ = run_cli(["compare", "--engines", "dense",
                              "--circuit", bell_path])
        assert code == EXIT_USAGE

    def test_approx_in_compare(self, bell_path):
        code, out, _ = run_cli(["compare", "--engines", "approx,dense",
                                "--p", "2", "--circuit", bell_path])
        assert code == EXIT_OK
        assert "dist(approx,dense) = 0.000000000000 MATCH" in out


class TestAnalyzeAp:
    def test_ap1(self):
        code, out, _ = run_cli(["analyze-ap", "--x0", "3", "--r", "3",
                                "--count", "4", "--n", "4", "--p", "2"])
        assert code == EXIT_OK
        assert out.strip() == "{3,1}{2,0}"

    def test_pair_not_blocked(self):
        code, out, _ = run_cli(["analyze-ap", "--pair", "0,3",
                                "--n", "2", "--p", "1"])
        assert code == EXIT_OK
        assert out.strip() == "NOT 1-BLOCKED"

    def test_census_line(self):
        code, out, _ = run_cli(["analyze-ap", "--census", "--rbits", "8",
                                "--trials", "50", "--p", "2", "--n", "11",
                                "--seed", "7"])
        assert code == EXIT_OK
        line = out.strip()
        assert line.startswith("fraction=")
        assert line.endswith("trials=50 seed=7")

    def test_bad_args(self):
        code, _, _ = run_cli(["analyze-ap", "--n", "4", "--p", "2"])
        assert code == EXIT_USAGE


GOLDEN_EXIT_CASES = [
    (["simulate", "--engine", "blocked", "--p", "2"], EXIT_USAGE),  # no file
    (["no-such-command"], EXIT_USAGE),
    ([], EXIT_USAGE),
]


@pytest.mark.parametrize("argv,want", GOLDEN_EXIT_CASES)
def test_exit_code_table(argv, want):
    code, _, _ = run_cli(argv)
    assert code == want


def test_stdout_byte_identical(bell_path):
    """Same flags and seed give byte-identical stdout."""
    for args in (
        ["simulate", "--engine", "blocked", "--p", "2",
         "--circuit", bell_path, "--samples", "6", "--seed", "1"],
        ["compare", "--engines", "blocked,dense", "--p", "2",
         "--circuit", bell_path],
        ["analyze-ap", "--census", "--rbits", "6", "--trials", "30",
         "--p", "2", "--n", "9", "--seed", "2"],
    ):
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2


# inputs that must fail with a one-line message, never with a traceback
# eigenvalues 1 + 1e-12 and -1e-12: not positive semidefinite, which the
# parser decides exactly
OVER_ONE = ("qubits 1\ninputblock 0\n1000000000001/1000000000000 0\n"
            "0 -1/1000000000000\nmeasure 0\n")

HUGE_WIDTH = "qubits 100000000000000000000\ngate H 0\nmeasure 0\n"

REJECTED = [
    ["simulate", "--engine", "approx", "--p", "1", "--circuit", "{bell}",
     "--ledger", "{tmp}/no/such/dir/ledger.txt"],
    ["simulate", "--engine", "blocked", "--p", "2", "--circuit", "{bell}",
     "--ledger", "{tmp}/ledger.txt"],
    ["simulate", "--engine", "dense", "--circuit", "{bell}",
     "--samples", "3", "--eta", "0"],
    ["simulate", "--engine", "dense", "--circuit", "{bell}",
     "--samples", "3", "--eta", "-1"],
    ["simulate", "--engine", "dense", "--circuit", "{bell}",
     "--samples", "-2"],
    ["simulate", "--engine", "approx", "--p", "1", "--circuit", "{bell}",
     "--epsilon", "-1"],
    ["simulate", "--engine", "approx", "--p", "1", "--circuit", "{bell}",
     "--epsilon", "nan"],
    # a flag the engine does not read is refused, not ignored
    ["simulate", "--engine", "dense", "--p", "1", "--circuit", "{bell}"],
    ["simulate", "--engine", "stabilizer", "--p", "0", "--circuit",
     "{bell}"],
    ["simulate", "--engine", "blocked", "--p", "2", "--circuit", "{bell}",
     "--epsilon", "nan"],
    ["compare", "--engines", "dense,nosuch", "--circuit", "{bell}"],
    ["compare", "--engines", "dense,blocked", "--circuit", "{bell}"],
    ["compare", "--engines", "dense,approx", "--circuit", "{bell}"],
    ["compare", "--engines", "approx,dense", "--p", "2", "--epsilon", "0.0",
     "--circuit", "{bell}"],
    ["analyze-ap", "--census", "--n", "3", "--rbits", "8", "--p", "2"],
    ["analyze-ap", "--census", "--n", "9", "--rbits", "0", "--p", "2"],
    ["analyze-ap", "--census", "--n", "11", "--p", "2", "--trials", "0"],
    ["analyze-ap", "--p", "0", "--x0", "1", "--r", "1", "--count", "2",
     "--n", "4"],
    ["analyze-ap", "--n", "-1", "--x0", "0", "--r", "1", "--count", "1",
     "--p", "1"],
    ["analyze-ap", "--n", "0", "--x0", "0", "--r", "1", "--count", "1",
     "--p", "1"],
    ["simulate", "--engine", "dense", "--circuit", "{tmp}/not_utf8.qc"],
    ["simulate", "--engine", "blocked", "--p", "1", "--circuit",
     "{tmp}/over_one.qc", "--samples", "2"],
    ["simulate", "--engine", "blocked", "--p", "1", "--circuit",
     "{tmp}/over_one.qc"],
    ["simulate", "--engine", "dense", "--circuit", "{tmp}/two_inputs.qc"],
    # a qubit count past sys.maxsize, which no string or list can index
    ["simulate", "--engine", "dense", "--circuit", "{tmp}/huge_width.qc"],
]


@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_bad_input_exits_1_without_traceback(argv, bell_path, tmp_path):
    (tmp_path / "not_utf8.qc").write_bytes(b"qubits 1\n\xff\xfe gate H 0\n")
    (tmp_path / "over_one.qc").write_text(OVER_ONE)
    (tmp_path / "two_inputs.qc").write_text("qubits 1\ninput 0\ninput 1\n")
    (tmp_path / "huge_width.qc").write_text(HUGE_WIDTH)
    argv = [a.format(bell=bell_path, tmp=tmp_path) for a in argv]
    src = os.path.dirname(os.path.dirname(pblocksim.__file__))
    out = subprocess.run([sys.executable, "-m", "pblocksim.cli", *argv],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == EXIT_USAGE, out.stderr
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1, out.stderr
