import re
from pathlib import Path

import pytest

from psikit import interp, ir
from psikit.machine import FULL, PARTIAL
from psikit.out_of_ssa import PassStats, run_out_of_ssa
from psikit.pipeline import PASSES, STANDARD, PipelineError, check, run

from helpers import load_func

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
