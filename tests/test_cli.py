"""Command-line interface tests: exit codes, JSON validity, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qccs import lp
from qccs.cli import main


def run_cli(*argv, env=None):
    """Run in-process, capturing stdout; returns (exit_code, output)."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


TELEPORT = "corpus/teleport.qccs"
CHOICE = "corpus/choice.qccs"
RESTRICTION = "corpus/restriction.qccs"
WEAK = "corpus/weak_example.qccs"
STUCK = "corpus/stuck.qccs"


class TestCheck:
    def test_ok_file(self):
        code, out = run_cli("check", TELEPORT)
        assert code == 0 and "ok" in out

    def test_output_then_use_fails(self, tmp_path):
        bad = tmp_path / "bad.qccs"
        bad.write_text("qchannel qc\nprocess P = qc!q.H[q].nil\n")
        code, out = run_cli("check", str(bad))
        assert code == 1 and "output-then-use" in out

    def test_unparseable_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "syntax.qccs"
        bad.write_text("process = nil\n")
        code, _ = run_cli("check", str(bad))
        assert code == 1
        err = capsys.readouterr().err
        assert "1:" in err  # line:col present

    def test_nonexistent_file(self):
        code, _ = run_cli("check", "no_such_file.qccs")
        assert code == 2


class TestArithmeticFaults:
    # a division by zero raised ZeroDivisionError out of every command, and
    # an overflowing literal ran as inf; both are parse errors now
    @pytest.mark.parametrize("text, error", [
        ("gate G = 1/0 * [[1,0],[0,1]]\nconfig Main = < nil >\n", "1:11: division by zero"),
        ("config Main = < nil ; q = (1/0)|0> >\n", "1:29: division by zero"),
        ("channel c\nconfig Main = < c!1e999.nil >\n", "2:19: number out of range"),
        # state arithmetic that overflowed printed a NumPy warning, then
        # "not a density matrix" or "not unitary"
        ("config Main = < nil ; q = 1e200*1e200|0> >\n", "1:32: number out of range"),
        ("gate G = 1e200 [[1e200,0],[0,1]]\nconfig Main = < nil >\n",
         "1:10: number out of range"),
        ("config Main = < nil ; q = 1e308 [[1,0],[0,0]] + 1e308 [[1,0],[0,0]] >\n",
         "1:47: number out of range"),
    ])
    @pytest.mark.parametrize("command, exit_code", [("check", 1), ("lts", 2), ("run", 2)])
    def test_parse_error_line(self, tmp_path, capsys, text, error, command, exit_code):
        f = tmp_path / "fault.qccs"
        f.write_text(text)
        assert run_cli(command, str(f)) == (exit_code, "")
        assert capsys.readouterr().err.splitlines() == [f"parse error: {error}"]

    @pytest.mark.parametrize("text", [
        "channel c\nconfig Main = < c!1e308*10.nil >\n",
        "channel c\nconfig Main = < if 1e308*10 < 1 then c!1.nil >\n",
    ], ids=["output", "condition"])
    def test_run_time_overflow_is_an_error(self, tmp_path, capsys, text):
        # an output ran as the action c!inf, which does not re-parse;
        # check evaluates nothing and still passes the file
        f = tmp_path / "overflow.qccs"
        f.write_text(text)
        assert run_cli("check", str(f))[0] == 0
        for argv in (["run"], ["lts"], ["bisim", "--left", "Main", "--right", "Main"]):
            capsys.readouterr()
            assert run_cli(argv[0], str(f), *argv[1:]) == (2, ""), argv
            assert capsys.readouterr().err.splitlines() == [
                "error: classical value out of range: 1e+308 * 10"], argv

    @pytest.mark.parametrize("alpha, error", [("1/0", "1:2: division by zero"),
                                              ("1e999", "1:1: number out of range")])
    def test_demo_amplitude(self, capsys, alpha, error):
        assert run_cli("demo", "teleport", "--alpha", alpha) == (2, "")
        assert capsys.readouterr().err.splitlines() == [f"parse error: {error}"]


class TestBadShapes:
    # a gate or measurement must act on qubits, and on as many as it is
    # given: `check` lists each fault once, a declared process's under its
    # own name, and the other commands stop with an error that names the
    # first configuration it spoils
    CASES = {
        "gate-dimension": (
            "gate G = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
            "config A = < G[q].nil ; q = |0> >\n",
            "gate G: matrix must be square over qubits",
            "gate G: matrix must be square over qubits"),
        "measurement-dimension": (
            "measure M = { 0: [[1, 0, 0], [0, 0, 0], [0, 0, 0]],"
            " 1: [[0, 0, 0], [0, 1, 0], [0, 0, 1]] }\n"
            "config A = < M[q; x].nil ; q = |0> >\n",
            "measurement M: projectors must be square over qubits",
            "measurement M: projectors must be square over qubits"),
        # a declared process that applies a misshapen operator repeats no
        # arity fault of it, as a configuration does not
        "gate-dimension-in-a-process": (
            "gate G = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
            "process P = G[q].nil\n"
            "config A = < P ; q = |0> >\n",
            "gate G: matrix must be square over qubits",
            "gate G: matrix must be square over qubits"),
        "measurement-dimension-in-a-process": (
            "measure M = { 0: [[1, 0, 0], [0, 0, 0], [0, 0, 0]],"
            " 1: [[0, 0, 0], [0, 1, 0], [0, 0, 1]] }\n"
            "process P = M[q; x].nil\n"
            "config A = < P ; q = |0> >\n",
            "measurement M: projectors must be square over qubits",
            "measurement M: projectors must be square over qubits"),
        "gate-arity": (
            "process P = CNOT[q].nil\n"
            "config A = < P ; q = |0> >\n",
            "process P: arity at root: CNOT has dimension 4, applied to [q]",
            "config A: invalid process: arity at root: CNOT has dimension 4, applied to [q]"),
        "measurement-arity": (
            "measure M = { 0: |0><0|, 1: |1><1| }\n"
            "process P = M[q, r; x].nil\n"
            "config A = < P ; q, r = |00> >\n",
            "process P: arity at root: M has dimension 2, applied to [q, r]",
            "config A: invalid process: arity at root: M has dimension 2, applied to [q, r]"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_reported_without_traceback(self, tmp_path, capsys, case):
        text, problem, error = self.CASES[case]
        f = tmp_path / "shape.qccs"
        f.write_text(text)
        assert run_cli("check", str(f)) == (1, f"{f}: {problem}\n")
        for argv in (["lts"], ["run"], ["bisim", "--left", "A", "--right", "A"]):
            capsys.readouterr()
            assert run_cli(argv[0], str(f), *argv[1:]) == (2, ""), argv
            assert capsys.readouterr().err == f"error: {error}\n", argv

    def test_config_fault_outside_a_declared_process_is_kept(self, tmp_path):
        # a configuration that wraps a faulty declared process is not that
        # process, so its own line stays
        f = tmp_path / "wrapped.qccs"
        f.write_text("process P = CNOT[q].nil\n"
                     "config A = < P || nil ; q = |0> >\n")
        fault = "arity at 0: CNOT has dimension 4, applied to [q]"
        assert run_cli("check", str(f)) == (1, (
            f"{f}: process P: arity at root: CNOT has dimension 4, applied to [q]\n"
            f"{f}: config A: invalid process: {fault}\n"))

    def test_every_configuration_fault_is_listed(self, tmp_path, capsys):
        f = tmp_path / "two.qccs"
        f.write_text("config A = < H[s].nil ; q = |0> >\n"
                     "config B = < H[r].nil ; q = |0> >\n")
        assert run_cli("check", str(f)) == (1, (
            f"{f}: config A: context does not declare ['s']\n"
            f"{f}: config B: context does not declare ['r']\n"))
        capsys.readouterr()
        assert run_cli("lts", str(f)) == (2, "")
        assert capsys.readouterr().err == "error: config A: context does not declare ['s']\n"

    def test_a_later_fault_follows_a_faulty_declared_process(self, tmp_path):
        # A repeats P's fault and is dropped; B's own fault stays
        f = tmp_path / "pab.qccs"
        f.write_text("process P = CNOT[q].nil\n"
                     "config A = < P ; q = |0> >\n"
                     "config B = < H[r].nil ; q = |0> >\n")
        assert run_cli("check", str(f)) == (1, (
            f"{f}: process P: arity at root: CNOT has dimension 4, applied to [q]\n"
            f"{f}: config B: context does not declare ['r']\n"))

    def test_a_misshapen_gate_spoils_no_other_line(self, tmp_path):
        # G fails every arity check, so A's arity is not checked; the
        # non-unitary gate U and B's state are faults of their own
        f = tmp_path / "gates.qccs"
        f.write_text("gate G = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
                     "gate U = [[1, 0], [0, 0]]\n"
                     "config A = < G[q].nil ; q = |0> >\n"
                     "config B = < U[q].nil ; q = 2|0> >\n")
        assert run_cli("check", str(f)) == (1, (
            f"{f}: gate G: matrix must be square over qubits\n"
            f"{f}: gate U: matrix is not unitary\n"
            f"{f}: config B: state is not a density matrix (trace 1, Hermitian, PSD)\n"))


class TestLts:
    def test_json_output(self):
        code, out = run_cli("lts", WEAK, "--config", "C")
        assert code == 0
        payload = json.loads(out)
        assert payload["format"] == "qccs-lts"
        assert len(payload["nodes"]) == 8

    def test_dot_output(self):
        code, out = run_cli("lts", WEAK, "--format", "dot")
        assert code == 0 and out.startswith("digraph")

    def test_bound_exceeded_exit_2(self, capsys):
        code, out = run_cli("lts", TELEPORT, "--max-nodes", "3")
        assert code == 2 and out == ""
        assert capsys.readouterr().err.splitlines() == [
            "error: exploration exceeded max_nodes=3 (3 nodes, depth 2, 0 queued)"]

    def test_depth_bound_exceeded_exit_2(self, capsys):
        code, out = run_cli("lts", TELEPORT, "--max-depth", "2")
        assert code == 2 and out == ""
        assert capsys.readouterr().err.splitlines() == [
            "error: exploration exceeded max_depth=2 (3 nodes, depth 2, 0 queued)"]

    def test_single_config_is_default(self):
        code, _ = run_cli("lts", WEAK)
        assert code == 0


class TestRun:
    def test_teleport_quarter_split(self):
        code, out = run_cli("run", TELEPORT, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "terminated"
        assert len(payload["final"]) == 4
        assert all(abs(b["prob"] - 0.25) < 1e-9 for b in payload["final"])

    def test_step_bound_reports_maxed(self):
        code, out = run_cli("run", TELEPORT, "--max-steps", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "maxed"
        assert len(payload["steps"]) == 2

    def test_deterministic_output(self):
        _, out1 = run_cli("run", TELEPORT, "--json", "--seed", "1")
        _, out2 = run_cli("run", TELEPORT, "--json", "--seed", "1")
        assert out1 == out2

    def test_sampled_run(self):
        code, out = run_cli("run", TELEPORT, "--sample", "--seed", "9", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["final"]) == 1

    def test_script_needs_the_scripted_scheduler(self, tmp_path, capsys):
        # the file was ignored and the run exited 0
        script = tmp_path / "choices.txt"
        script.write_text("1\n")
        assert run_cli("run", "corpus/choice.qccs", "--config", "Left",
                       "--script", str(script)) == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            "error: --script needs --scheduler interactive-script"]

    def test_stuck_reports_blocked(self, tmp_path, capsys):
        f = tmp_path / "stuck.qccs"
        f.write_text("channel c\nconfig K = < c!0.nil \\ {c} >\n")
        code, _ = run_cli("run", str(f))
        assert code == 1
        assert "blocked" in capsys.readouterr().err

    @pytest.mark.parametrize("config, report", [
        ("Blocked", "blocked actions: c!1, qc!q"),
        ("Disagree", "no action is enabled at every support point; "
                     "enabled at each: c!0 (p=0.5); c!1 (p=0.5)"),
        ("Half", "no action is enabled at every support point; "
                 "enabled at each: c!0 (p=0.5); terminated (p=0.5)"),
    ])
    def test_stuck_corpus_reports(self, capsys, config, report):
        assert run_cli("run", STUCK, "--config", config) == (1, "")
        assert capsys.readouterr().err == f"stuck: execution is stuck; {report}\n"

    def test_script_scheduler(self, tmp_path):
        script = tmp_path / "choices.txt"
        script.write_text("0 0 0 0 0 0 0 0 0 0 0\n")
        code, _ = run_cli("run", TELEPORT, "--scheduler", "interactive-script",
                          "--script", str(script))
        assert code == 0

    def test_script_scheduler_missing_file(self, tmp_path, capsys):
        code, _ = run_cli("run", TELEPORT, "--scheduler", "interactive-script",
                          "--script", str(tmp_path / "absent.txt"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and "Traceback" not in err

    def test_script_scheduler_non_integer_choice(self, tmp_path, capsys):
        script = tmp_path / "choices.txt"
        script.write_text("0 1 x\n")
        code, _ = run_cli("run", TELEPORT, "--scheduler", "interactive-script",
                          "--script", str(script))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "integers" in err and "Traceback" not in err


class TestBisim:
    def test_equivalent_exit_0(self):
        code, out = run_cli("bisim", CHOICE, "--left", "Left", "--right", "Right",
                            "--mode", "strong", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "equivalent"
        weights = [m.get("weights") for m in payload["witness"] if m.get("weights")]
        assert any(sorted(round(x, 4) for x in w) == [0.5, 0.5] for w in weights)

    def test_distinguished_exit_1(self, tmp_path):
        f = tmp_path / "intro.qccs"
        f.write_text(
            "channel c\n"
            "config A = < c!0.nil ; q = |0> >\n"
            "config B = < c!0.nil ; q = |1> >\n")
        code, out = run_cli("bisim", str(f), "--left", "A", "--right", "B", "--json")
        assert code == 1
        assert json.loads(out)["verdict"] == "distinguished"

    def test_check_directives_from_file(self):
        code, out = run_cli("bisim", RESTRICTION)
        assert code == 1  # second directive is distinguished
        assert "P0 vs Q0: equivalent" in out
        assert "PR0 vs QR0: distinguished" in out

    def test_weak_and_eq_modes(self, tmp_path):
        f = tmp_path / "weakeq.qccs"
        f.write_text(
            "config A = < I[q].nil ; q = |+> >\n"
            "config B = < nil ; q = |+> >\n")
        code, _ = run_cli("bisim", str(f), "--left", "A", "--right", "B", "--mode", "weak")
        assert code == 0
        code, _ = run_cli("bisim", str(f), "--left", "A", "--right", "B", "--mode", "eq")
        assert code == 1

    def test_eq_witness_names_the_first_internal_step(self):
        # a strict tau move crosses one tau edge as its labelled step x_u_k
        code, out = run_cli("bisim", CHOICE, "--left", "Left", "--right", "Right",
                            "--mode", "eq", "--json")
        assert code == 0
        assert [m["flow"] for m in json.loads(out)["witness"]] == [
            {"x_1_0": 1.0, "a_2": 1.0},
            {"x_1_1": 1.0, "a_3": 1.0},
            {"x_1_0": 0.5, "x_1_1": 0.5, "a_2": 0.5, "a_3": 0.5},
            {"x_0_0": 1.0, "a_2": 1.0},
            {"x_0_1": 1.0, "a_3": 1.0},
        ]

    def test_open_input_refused_without_flag(self, tmp_path, capsys):
        f = tmp_path / "open.qccs"
        f.write_text("channel c\nconfig A = < c?x.nil >\nconfig B = < c?x.nil >\n")
        code, _ = run_cli("bisim", str(f), "--left", "A", "--right", "B")
        assert code == 2
        assert "--open" in capsys.readouterr().err

    def test_open_flag_enables_enumeration(self, tmp_path, capsys):
        f = tmp_path / "open.qccs"
        f.write_text("channel c\nconfig A = < c?x.nil >\nconfig B = < c?x.c!x.nil >\n")
        code, _ = run_cli("bisim", str(f), "--left", "A", "--right", "B", "--open")
        assert code == 1  # B answers with an output, A does not
        assert "sound" in capsys.readouterr().err  # caveat printed

    def test_numerical_failure_exit_2(self, monkeypatch, capsys):
        def fail(prog, tol=lp.TOL, loose=None):
            raise lp.NumericalFailure("pivot budget exhausted (50000)")

        monkeypatch.setattr(lp, "feasible", fail)
        code, out = run_cli("bisim", CHOICE, "--left", "Left", "--right", "Right",
                            "--mode", "strong", "--json")
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: pivot budget exhausted (50000)"]

    def test_missing_pair_and_no_directives(self, tmp_path):
        f = tmp_path / "plain.qccs"
        f.write_text("config A = < nil >\n")
        code, _ = run_cli("bisim", str(f))
        assert code == 2


class TestLaws:
    def test_small_run_passes(self):
        code, out = run_cli("laws", "--samples", "4", "--seed", "11", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and sum(payload["checked"].values()) == 20

    def test_reproducible(self):
        _, out1 = run_cli("laws", "--samples", "3", "--seed", "5", "--json")
        _, out2 = run_cli("laws", "--samples", "3", "--seed", "5", "--json")
        assert out1 == out2

    def test_mutation_is_caught(self):
        code, out = run_cli("laws", "--samples", "5", "--seed", "2", "--mutate")
        assert code == 1
        assert "caught" in out

    def test_mutation_run_keeps_json_stdout_one_document(self, capsys):
        code, out = run_cli("laws", "--samples", "3", "--seed", "0", "--mutate", "--json")
        assert code == 1
        assert json.loads(out)["failures"]
        assert capsys.readouterr().err.startswith("mutation run: checker caught ")


class TestDemo:
    def test_teleport_ok(self):
        code, out = run_cli("demo", "teleport", "--alpha", "0.6", "--beta", "0.8i", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and len(payload["branches"]) == 4

    def test_invalid_amplitudes(self, capsys):
        code, out = run_cli("demo", "teleport", "--alpha", "2", "--beta", "0")
        assert code == 2 and out == ""
        assert capsys.readouterr().err.splitlines() == [
            "error: |alpha|^2 + |beta|^2 = 4, not 1"]

    def test_sqrt_amplitudes(self):
        code, _ = run_cli("demo", "teleport", "--alpha", "1/sqrt(2)",
                          "--beta=-1/sqrt(2)")
        assert code == 0


class TestTolerance:
    # PR0 and QR0 are distinguished at the default tolerance; a tolerance that
    # is not a finite positive number made every matching question pass
    PAIR = (RESTRICTION, "--left", "PR0", "--right", "QR0")

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize("command", [("bisim", *PAIR), ("demo", "teleport")],
                             ids=["bisim", "demo"])
    def test_bad_flag_exit_2(self, command, tol, capsys):
        code, out = run_cli(*command, "--tol", tol)
        assert code == 2 and out == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --tol must be a finite number > 0")

    @pytest.mark.parametrize("env", ["nan", "-1", "inf", "abc"])
    def test_bad_env_falls_back_to_default(self, monkeypatch, capsys, env):
        monkeypatch.setenv("QCCS_TOL", env)
        code, out = run_cli("bisim", *self.PAIR)
        assert code == 1 and "PR0 vs QR0: distinguished" in out
        assert capsys.readouterr().err.splitlines() == [
            f"warning: ignoring bad QCCS_TOL={env!r}"]

    def test_bad_env_keeps_laws_mutation_caught(self, monkeypatch):
        monkeypatch.setenv("QCCS_TOL", "nan")
        code, out = run_cli("laws", "--samples", "3", "--mutate")
        assert code == 1 and "caught 10 of 10 mutated instances" in out


class TestIntegerOptions:
    # a negative seed made NumPy raise, and a negative count or bound, or no
    # qubits, was taken as given; each now fails like a bad --tol
    @pytest.mark.parametrize("argv, error", [
        (("run", CHOICE, "--config", "Left", "--seed", "-1"),
         "--seed must be an integer >= 0, not -1"),
        (("run", CHOICE, "--config", "Left", "--max-steps", "-3"),
         "--max-steps must be an integer >= 0, not -3"),
        (("lts", CHOICE, "--config", "Left", "--max-nodes", "-1"),
         "--max-nodes must be an integer >= 0, not -1"),
        (("lts", CHOICE, "--config", "Left", "--max-depth", "-1"),
         "--max-depth must be an integer >= 0, not -1"),
        (("laws", "--seed", "-1"), "--seed must be an integer >= 0, not -1"),
        (("laws", "--samples", "-1"), "--samples must be an integer >= 0, not -1"),
        (("laws", "--depth", "-1"), "--depth must be an integer >= 0, not -1"),
        (("laws", "--qubits", "0"), "--qubits must be an integer >= 1, not 0"),
    ])
    def test_out_of_range_exit_2(self, argv, error, capsys):
        code, out = run_cli(*argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]

    def test_least_values_pass(self):
        code, out = run_cli("run", CHOICE, "--config", "Left", "--seed", "0",
                            "--max-steps", "0", "--json")
        assert code == 0 and json.loads(out)["status"] == "maxed"
        code, out = run_cli("laws", "--samples", "0", "--seed", "0", "--qubits", "1")
        assert code == 0 and out.startswith("laws: 0 instance(s) over 0 samples, seed 0")


class TestEnvironment:
    def test_qcc_tol_env(self, monkeypatch):
        monkeypatch.setenv("QCCS_TOL", "1e-6")
        code, _ = run_cli("bisim", CHOICE)
        assert code == 0

    def test_entry_point_installed(self):
        # the child does not inherit pytest's pythonpath, so point it at src
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-m", "qccs.cli", "--help"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0 and "bisim" in out.stdout
