import os
import subprocess
import sys

import pytest

from psikit import cli, interp, ir, pipeline
from psikit.out_of_ssa import ClassInterferenceDetected

from helpers import DATA, diamond_chain_source


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "psikit.cli", *args],
        capture_output=True, text=True, check=False)


DIAMOND = str(DATA / "diamond.pir")


def test_run_pipeline_with_verify_exits_zero():
    proc = run_cli("run", DIAMOND, "--passes=ssa,ifconvert,out-of-ssa",
                   "--verify")
    assert proc.returncode == 0, proc.stderr
    assert "psi" not in proc.stdout  # fully out of SSA again


def test_out_of_ssa_without_ssa_is_a_flag_error():
    proc = run_cli("run", DIAMOND, "--passes=out-of-ssa")
    assert proc.returncode == 1
    assert "requires 'ssa'" in proc.stderr


def test_in_ssa_inputs_can_skip_construction():
    proc = run_cli("run", str(DATA / "order_swap.pir"), "--in-ssa",
                   "--passes=out-of-ssa", "--verify")
    assert proc.returncode == 0, proc.stderr


def test_parse_error_exits_one():
    proc = run_cli("run", str(DATA / "missing.pir"))
    assert proc.returncode == 1


def test_unknown_pass_exits_one():
    proc = run_cli("run", DIAMOND, "--passes=ssa,frobnicate")
    assert proc.returncode == 1
    assert "unknown pass" in proc.stderr


def test_evaluate_function():
    proc = run_cli("run", DIAMOND, "--passes=ssa", "--func", "@f",
                   "--args", "5,1")
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("result: 6")


def test_evaluating_an_unknown_function_is_a_diagnostic():
    proc = run_cli("run", DIAMOND, "--func", "nosuch")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "@nosuch" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_evaluating_with_the_wrong_arity_is_a_diagnostic():
    proc = run_cli("run", DIAMOND, "--func", "f", "--args", "1,2,3,4,5,6,7")
    assert proc.returncode == 1
    assert proc.stderr == "error: @f expects 2 args, got 7\n"
    assert proc.stdout == ""


def test_evaluating_with_non_integer_args_is_a_diagnostic():
    proc = run_cli("run", DIAMOND, "--func", "f", "--args", "x")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: --args must be comma-separated")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_identical_invocations_are_byte_identical():
    args = ("run", DIAMOND, "--passes=ssa,ifconvert,psi-promote,out-of-ssa",
            "--dump-after=ifconvert", "--dump-liveness", "--dump-interference")
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_a_reader_that_closes_the_pipe_early_ends_the_run_quietly(tmp_path):
    """As in `psikit run f.pir | head -1`: the reader takes one line and
    closes its end while psikit still writes, since the printed chain is
    far longer than a pipe holds.  psikit writes nothing to standard error
    and exits with `cli.OUTPUT_CLOSED`.  Standard output is buffered, as
    by default: unbuffered, a write that the pipe cuts short is dropped
    without an error."""
    path = tmp_path / "chain.pir"
    path.write_text(ir.print_function(diamond_chain_source(2000)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "psikit.cli", "run",
                             str(path)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"func @f(%x) {\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait() == cli.OUTPUT_CLOSED
    assert stderr == b""


def test_fuzz_subcommand_reports_zero_mismatches():
    proc = run_cli("fuzz", "--trials", "10", "--seed", "7",
                   "--passes=ssa,fold,ifconvert,psi-promote,out-of-ssa")
    assert proc.returncode == 0, proc.stderr
    assert "0 mismatches" in proc.stdout


def test_fuzz_counts_refusals_apart_from_mismatches(monkeypatch, capsys):
    def refuse(func, opts):
        raise ClassInterferenceDetected(f"@{func.name}: %a and %b interfere")

    monkeypatch.setattr(pipeline, "run_out_of_ssa", refuse)
    code = cli.main(["fuzz", "--trials", "3", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ("fuzz: 3 programs, 0 runs compared, "
                            "0 mismatches, 3 refused\n")
    assert captured.err.count("pipeline error: @f") == 3


@pytest.mark.parametrize("command", [["run", DIAMOND,
                                      "--passes=ssa,ifconvert"],
                                     ["fuzz", "--trials", "1"]])
@pytest.mark.parametrize("flag", ["--predicable", "--speculatable"])
def test_unknown_opcode_in_a_machine_override_is_a_flag_error(command, flag):
    proc = run_cli(*command, f"{flag}=add,foo")
    assert proc.returncode == 1
    assert proc.stderr == f"error: {flag}: unknown opcode 'foo'\n"
    assert proc.stdout == ""


def test_stats_table_shapes():
    proc = run_cli("run", DIAMOND, "--stats")
    assert proc.returncode == 0
    assert "without psi-predicate promotion" in proc.stdout
    assert "with psi-predicate promotion" in proc.stdout
    for row in ("psi-normalize", "psi-congruence", "phi-congruence",
                "total copies"):
        assert row in proc.stdout


def test_stats_on_unconvertible_input_is_a_diagnostic():
    proc = run_cli("run", str(DATA / "shared_arg.pir"), "--stats")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags, message", [
    (["--stats", "--verify", "--passes=ssa", "--func=@f", "--args=1,0",
      "--dump-liveness"], "--stats cannot be combined with --passes, "
                          "--verify, --dump-liveness, --func, --args"),
    (["--stats", "--dump-interference"],
     "--stats cannot be combined with --dump-interference"),
    (["--stats", "--passes=ssa", "--dump-after=ssa"],
     "--stats cannot be combined with --passes, --dump-after"),
    (["--passes=ssa", "--args=1,0"], "--args needs --func"),
    (["--passes=ssa", "--trials=8"], "--trials needs --verify"),
    (["--passes=ssa", "--stats-format=csv"], "--stats-format needs --stats"),
], ids=["stats-with-many", "stats-with-dump", "stats-with-dump-after",
        "args-without-func", "trials-without-verify",
        "stats-format-without-stats"])
def test_flags_that_would_be_ignored_are_flag_errors(flags, message, capsys):
    assert cli.main(["run", DIAMOND, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_stats_csv_is_machine_readable():
    proc = run_cli("run", DIAMOND, "--stats", "--stats-format=csv")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    assert header[0] == "phase" and len(header) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4


def test_stats_tabulates_a_psi_ssa_input():
    """Criterion 2's loop, already in psi-SSA form: the variants skip `ssa`,
    and the "no if-conv" column shows its copy counts."""
    proc = run_cli("run", str(DATA / "loop_carried.pir"), "--in-ssa",
                   "--stats", "--stats-format=csv")
    assert proc.returncode == 0, proc.stderr
    plain, promoted = proc.stdout.split("\n\n")[:2]

    def no_ifconv(table):
        rows = [line.split(",") for line in table.splitlines()[2:]]
        return {row[0]: int(row[1]) for row in rows}

    assert no_ifconv(plain) == {"psi-normalize": 1, "psi-congruence": 0,
                                "phi-congruence": 1, "total copies": 2}
    assert set(no_ifconv(promoted).values()) == {0}


def test_counts_below_one_are_flag_errors():
    for args in (("run", DIAMOND, "--passes=ssa", "--verify", "--trials=-3"),
                 ("fuzz", "--trials", "0"), ("fuzz", "--vectors", "0")):
        proc = run_cli(*args)
        assert proc.returncode == 1, args
        assert "must be at least 1" in proc.stderr
        assert proc.stdout == ""


def test_verification_mismatch_exits_two(monkeypatch, capsys):
    bad = interp.DiffReport(trials=1, compared=1, skipped=0, mismatches=[
        interp.Mismatch([0], [0], interp.ExecResult(value=1),
                        interp.ExecResult(value=2))])
    monkeypatch.setattr(cli.interp, "differential_check",
                        lambda *a, **k: bad)
    code = cli.main(["run", DIAMOND, "--passes=ssa", "--verify"])
    assert code == 2
    assert "mismatch" in capsys.readouterr().err


def test_mixed_improvement_flags_accepted():
    proc = run_cli("run", DIAMOND, "--passes=ssa,ifconvert,out-of-ssa",
                   "--no-left-only", "--no-ignore-result", "--phi-naive",
                   "--machine=partial", "--verify")
    assert proc.returncode == 0, proc.stderr


def test_dump_after_a_pass_outside_the_pipeline_is_a_flag_error():
    proc = run_cli("run", DIAMOND, "--passes=ssa", "--dump-after=ifconvert")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot dump after 'ifconvert'")
    assert proc.stdout == ""


IN_SSA_VIOLATIONS = {
    "twice_defined": """
func @f(%a, %p:guard) {
b0:
  %w = add %a, 1
  %p? %w = add %a, 2
  %x = psi(1 ? %w, %p ? %w)
  ret %x
}
""",
    "args_below_psi": """
func @f(%a, %p:guard) {
b0:
  %x = psi(1 ? %u, %p ? %v)
  %u = add %a, 1
  %p? %v = add %a, 2
  ret %x
}
""",
    # %y's psi chain starts above the psi that reads %y, but %y itself is
    # defined below it: evaluating %x reads %y undefined.
    "arg_defined_below_psi": """
func @f(%a, %p:guard) {
b0:
  %b = add %a, 1
  %x = psi(1 ? %a, %p ? %y)
  %y = psi(1 ? %b, %p ? %b)
  ret %x
}
""",
    "guard_below_use": """
func @f(%a) {
b0:
  %q? %y.1 = add %a, 1
  %q = cmp_lt %a, 3
  ret %y.1
}
""",
    "ret_not_dominated": """
func @f(%a, %p:guard) {
b0:
  br %p, b1, b2
b1:
  %x = add %a, 1
  goto b2
b2:
  ret %x
}
""",
}


def test_in_ssa_input_that_is_not_ssa_is_a_diagnostic(tmp_path):
    expected = {"twice_defined": ["multiple definitions of %w"],
                "args_below_psi": ["psi arg %u definition does not dominate",
                                   "psi arg %v definition does not dominate"],
                "arg_defined_below_psi": [
                    "psi arg %y definition does not dominate"],
                "guard_below_use": ["use of %q not dominated by its definition"],
                "ret_not_dominated": [
                    "use of %x not dominated by its definition"]}
    for name, text in IN_SSA_VIOLATIONS.items():
        path = tmp_path / f"{name}.pir"
        path.write_text(text)
        proc = run_cli("run", str(path), "--in-ssa", "--passes=out-of-ssa")
        assert proc.returncode == 1, name
        assert proc.stdout == "", name
        for message in expected[name]:
            assert message in proc.stderr, name
        # Without --in-ssa the same text is valid non-SSA input.
        assert run_cli("run", str(path)).returncode == 0, name


ENTRY_PHI = """
func @f(%a) {
b0:
  %x = phi(b1: %y)
  %c = cmp_lt %a, 10
  br %c, b1, b2
b1:
  %y = add %a, 1
  goto b0
b2:
  ret %a
}
"""


@pytest.mark.parametrize("flags", [
    ["--in-ssa", "--func=@f", "--args=3"],
    ["--in-ssa", "--passes=out-of-ssa", "--verify"],
    ["--func=@f", "--args=3"],
], ids=["evaluate", "verify", "evaluate-non-ssa"])
def test_a_phi_in_the_entry_block_is_a_diagnostic(tmp_path, capsys, flags):
    """No edge enters the entry block with the function's inputs, so a phi
    there has no argument to take; evaluating it used to raise KeyError."""
    path = tmp_path / "entry_phi.pir"
    path.write_text(ENTRY_PHI)
    assert cli.main(["run", str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: @f/b0: phi %x in the entry block: the function's inputs "
        "enter it by no edge\n")


def test_redefining_a_guard_parameter_by_a_value_is_a_diagnostic(tmp_path,
                                                                 capsys):
    """SSA construction would rename the definition to `%p.1` and print it
    without a kind, so its output would not validate."""
    path = tmp_path / "guard_param.pir"
    path.write_text("func @f(%a, %p:guard) {\nb0:\n  %p = add %a, 1\n"
                    "  br %p, b1, b2\nb1:\n  goto b2\nb2:\n  ret %a\n}\n")
    assert cli.main(["run", str(path), "--passes=ssa"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: @f/b0: guard-kind %p is defined by add, which yields a "
        "value\n")


def test_loop_exit_psi_over_two_phis_leaves_ssa():
    proc = run_cli("run", str(DATA / "loop_exit_psi_over_phis.pir"),
                   "--in-ssa", "--passes=out-of-ssa", "--verify")
    assert proc.returncode == 0, proc.stderr


def test_class_interference_is_a_diagnostic(monkeypatch, capsys):
    def refuse(func, opts):
        raise ClassInterferenceDetected(f"@{func.name}: %a and %b interfere")

    monkeypatch.setattr(pipeline, "run_out_of_ssa", refuse)
    code = cli.main(["run", DIAMOND, "--passes=ssa,out-of-ssa"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: @f: %a and %b interfere\n"


def test_a_psi_argument_read_outside_its_domain_is_refused(tmp_path, capsys):
    """select_chain with %b defined under !%p but read under %p: out of
    psi-SSA would copy %b under %p, where it has no value."""
    text = (DATA / "select_chain.pir").read_text()
    path = tmp_path / "psi_domain.pir"
    path.write_text(text.replace("%p? %b", "!%p? %b"))
    code = cli.main(["run", str(path), "--in-ssa", "--passes=out-of-ssa"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "error: @f/b0: psi %x arg %b is read under %p, outside its "
        f"definition's domain\nerror: {path}: 1 validation error(s)\n")


def test_copy_of_a_psi_result_beside_its_own_argument_compiles(tmp_path):
    # Phi-congruence copies a psi result where one of that psi's arguments
    # is still live, read by a later psi.  Both copy and source are in the
    # argument's class, so the copy renames to a no-op: no conflict.
    func = interp.gen_random_program(
        2229, interp.SizeProfile("mid", 40, 4, 3, True))
    path = tmp_path / "copied_psi_result.pir"
    path.write_text(ir.print_module(ir.Module([func])))
    proc = run_cli("run", str(path), "--passes=" + ",".join(pipeline.STANDARD),
                   "--verify", "--trials=256")
    assert proc.returncode == 0, proc.stderr
