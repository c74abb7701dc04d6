import re
from pathlib import Path

import pytest

from psikit import interp, ir
from psikit.machine import FULL, PARTIAL
from psikit.out_of_ssa import PassStats, run_out_of_ssa
from psikit.pipeline import PASSES, STANDARD, PipelineError, check, run

from helpers import (MID, assert_no_errors, count_calls, latch_refusal_params,
                     load_func)

README = Path(__file__).parent.parent / "README.md"


def test_readme_lists_the_registered_passes():
    text = README.read_text()
    listed = re.search(r"^Passes: (.*?)\.", text, re.S | re.M).group(1)
    assert re.findall(r"`([^`]+)`", listed) == list(PASSES)


@pytest.mark.parametrize("passes, in_ssa, dump_after, message", [
    (["ssa", "frobnicate"], False, None, "unknown pass 'frobnicate'"),
    (["fold", "ssa"], False, None, "pass 'fold' requires 'ssa'"),
    (["ssa"], False, "ifconvert", "cannot dump after 'ifconvert'"),
    ([], True, "ssa", "cannot dump after 'ssa'"),
])
def test_check_rejects(passes, in_ssa, dump_after, message):
    with pytest.raises(PipelineError, match=message):
        check(passes, in_ssa, dump_after)


def test_run_reports_out_of_ssa_copies_and_each_pass():
    func = load_func("loop_carried.pir")
    seen = []
    result = func.clone()
    stats = run(result, ["psi-inline", "psi-reduce", "out-of-ssa"], PARTIAL,
                after=lambda name, f: seen.append((name, f)))
    expected = func.clone()
    assert stats == run_out_of_ssa(expected)
    assert ir.alpha_equivalent(result, expected)
    assert [name for name, _ in seen] == ["psi-inline", "psi-reduce",
                                          "out-of-ssa"]
    assert all(f is result for _, f in seen)


def test_every_registered_pass_keeps_the_semantics():
    func = interp.gen_random_program(3, "small")
    for name in PASSES:
        passes = ["ssa"] if name == "ssa" else ["ssa", name]
        work = func.clone()
        stats = run(work, passes)
        assert interp.differential_check(func, work, trials=8, seed=3).ok
        if name != "out-of-ssa":
            assert stats == PassStats(), name


@pytest.mark.parametrize("seed, machine", latch_refusal_params(
    "a psi in a loop can leave an argument copy live around the back edge"))
def test_psis_in_loop_latches_compile_and_keep_their_semantics(seed, machine):
    func = interp.gen_random_program(seed, MID)
    work = func.clone()
    run(work, STANDARD, machine)
    report = interp.differential_check(func, work, trials=32, seed=seed)
    assert not report.mismatches, report.mismatches[:1]


@pytest.mark.parametrize("machine", [FULL, PARTIAL], ids=["full", "partial"])
@pytest.mark.parametrize("profile, seeds", [
    (interp.SizeProfile("large", 200, 3, 2, True), range(2)),
    (interp.SizeProfile("deep", 60, 8, 2, True), range(4)),
    (interp.SizeProfile("l", 400, 3, 2, True), range(2)),
], ids=["large", "deep", "l400"])
def test_large_and_deep_programs_compile_and_keep_their_semantics(
        profile, seeds, machine):
    for seed in seeds:
        func = interp.gen_random_program(seed, profile)
        work = func.clone()
        run(work, STANDARD, machine)
        report = interp.differential_check(func, work, trials=8, seed=seed)
        assert report.ok, (seed, report.mismatches[:1])


# Guards that a loop carries through a phi: a declared guard parameter
# redefined in the loop, the same without a declaration, and the latter
# guarding a diamond inside the loop.
GUARD_CYCLES = ["guard_cycle_declared.pir", "guard_cycle_inferred.pir",
                "guard_cycle_diamond.pir"]


@pytest.mark.parametrize("name", GUARD_CYCLES)
def test_loop_carried_guards_compile_and_keep_their_semantics(name):
    func = load_func(name)
    for machine in (FULL, PARTIAL):
        work = func.clone()
        run(work, STANDARD, machine)
        report = interp.differential_check(func, work, trials=32, seed=0)
        assert report.compared > 0
        assert not report.mismatches, (machine.name, report.mismatches[:1])


@pytest.mark.parametrize("name", GUARD_CYCLES)
def test_loop_carried_guards_stay_guards_in_the_printed_text(name):
    """The printed `ssa` and `ssa,ifconvert` states parse back with the
    guards they hold, and validate clean as SSA."""
    func = load_func(name)
    for passes in (["ssa"], ["ssa", "ifconvert"]):
        work = func.clone()
        run(work, passes)
        again = ir.parse_module(ir.print_function(work))
        assert_no_errors(again, "ssa")
        assert again.functions[0].guards == work.guards & (
            set(work.params) | work.defs().keys()), passes


def test_kinds_are_inferred_only_where_a_function_enters(monkeypatch):
    """A compile and its check read the guards the function holds; only
    parsing infers them, once per function."""
    func = interp.gen_random_program(7, "small")
    text = ir.print_function(func)
    counts: dict[str, int] = {}
    count_calls(monkeypatch, ir, "infer_kinds", counts)
    count_calls(monkeypatch, interp, "infer_kinds", counts)
    for machine in (FULL, PARTIAL):
        work = func.clone()
        run(work, STANDARD, machine)
        assert interp.differential_check(func, work, trials=32).compared > 0
    assert counts == {}
    assert ir.parse_module(text).functions[0] == func
    assert counts == {"infer_kinds": 1}
