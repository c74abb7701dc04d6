import hashlib
import itertools
import random

import pytest

from psikit import interp, ir
from psikit.interp import (DEFAULT_MEM_SIZE, OUT_OF_BOUNDS, PSI_NONE_TRUE,
                           UNDEFINED_READ, decode, differential_check,
                           eval_function, gen_random_program)
from psikit.machine import FULL, PARTIAL

from helpers import assert_no_errors, count_calls, load_func, pipeline


def test_guarded_instruction_keeps_previous_value():
    func = ir.parse_module("""
func @f(%a) {
b0:
  %x = const 1
  %p = cmp_lt %a, 0
  %p? %x = const 2
  ret %x
}
""").functions[0]
    assert eval_function(func, [-5]).value == 2
    assert eval_function(func, [5]).value == 1


def test_guarded_instruction_leaves_ssa_target_undefined():
    func = ir.parse_module("""
func @f(%a) {
b0:
  %p = cmp_lt %a, 0
  %p? %x = const 2
  ret %x
}
""").functions[0]
    assert eval_function(func, [-1]).value == 2
    assert eval_function(func, [1]).trap == UNDEFINED_READ


def test_psi_selects_rightmost_true_argument():
    func = load_func("diamond_predicated.pir")
    assert eval_function(func, [10, 1]).value == 11  # add path
    assert eval_function(func, [10, 0]).value == 20  # mul path


def test_single_true_psi_is_the_argument():
    func = ir.parse_module("""
func @f(%a) {
b0:
  %x = psi(1 ? %a)
  ret %x
}
""").functions[0]
    assert eval_function(func, [7]).value == 7


def test_psi_with_no_true_predicate_traps():
    func = ir.parse_module("""
func @f(%a, %p:guard) {
b0:
  %p? %v = const 1
  %x = psi(%p ? %v)
  ret %x
}
""").functions[0]
    assert eval_function(func, [0, 0]).trap == PSI_NONE_TRUE
    assert eval_function(func, [0, 1]).value == 1


def test_psi_and_select_forms_agree_on_all_assignments():
    psi_form = load_func("select_chain.pir")
    select_form = load_func("select_chain_selects.pir")
    for p, q in itertools.product((0, 1), repeat=2):
        a = eval_function(psi_form, [5, p, q])
        b = eval_function(select_form, [5, p, q])
        assert (a.value, a.trap) == (b.value, b.trap), (p, q)


def test_memory_bounds_are_checked():
    func = ir.parse_module("""
func @f(%a) {
b0:
  %x = load %a
  ret %x
}
""").functions[0]
    assert eval_function(func, [DEFAULT_MEM_SIZE]).trap == OUT_OF_BOUNDS
    assert eval_function(func, [-1]).trap == OUT_OF_BOUNDS
    assert eval_function(func, [0], mem=[42] + [0] * 7).value == 42


def test_step_budget_exhaustion():
    func = ir.parse_module("""
func @f() {
b0:
  goto b0
}
""").functions[0]
    assert eval_function(func, [], budget=100).trap == interp.BUDGET_EXHAUSTED


def test_step_budget_is_checked_inside_a_phi_section():
    # The budget runs out at the first phi.  The second phi reads an
    # undefined variable, so a check made only after the phi section would
    # report an undefined read instead.
    func = ir.parse_module("""
func @f(%a) {
b0:
  goto b1
b1:
  %x = phi(b0: %a)
  %y = phi(b0: %u)
  ret %x
}
""").functions[0]
    assert eval_function(func, [1], budget=1).trap == interp.BUDGET_EXHAUSTED
    assert eval_function(func, [1], budget=3).trap == UNDEFINED_READ


def test_wrapping_arithmetic():
    func = ir.parse_module("""
func @f(%a) {
b0:
  %x = mul %a, %a
  ret %x
}
""").functions[0]
    big = 1 << 40
    assert eval_function(func, [big]).value == interp.wrap64(big * big)
    # An argument from outside is wrapped on the way in; a guard argument
    # is read for its truth, unwrapped.
    assert eval_function(func, [(1 << 64) + 3]).value == 9
    guarded = ir.parse_module("""
func @g(%p:guard) {
b0:
  %x = const 0
  %p? %x = const 1
  ret %x
}
""").functions[0]
    assert eval_function(guarded, [1 << 64]).value == 1


def test_eval_is_deterministic():
    func = gen_random_program(11, "small")
    first = eval_function(func, [3, 4])
    second = eval_function(func, [3, 4])
    assert (first.value, first.trap, first.memory) == \
           (second.value, second.trap, second.memory)


# -- differential checking ----------------------------------------------------

def test_differential_reflexivity():
    func = gen_random_program(5, "small")
    report = differential_check(func, func.clone(), trials=32, seed=9)
    assert report.ok and report.compared + report.skipped == 32


def test_differential_check_refuses_a_function_compared_with_itself():
    # A pass that rewrites its argument in place, checked against that same
    # argument, would pass any check: the call must fail instead.
    func = gen_random_program(5, "small")
    with pytest.raises(ValueError, match="@main compared with itself"):
        differential_check(func, func, trials=32, seed=9)


def test_differential_full_vs_partial_conversion():
    base = load_func("speculate_add.pir")
    spec = load_func("speculate_add_predicated.pir")
    report = differential_check(base, spec, trials=32, seed=10)
    assert report.ok


def test_differential_detects_bad_mutation():
    func = load_func("diamond_predicated.pir")
    bad = func.clone()
    psi = bad.blocks[0].body[-1]
    # Swap the argument values without any justification.
    (p1, v1), (p2, v2) = psi.args
    psi.args = [(p1, v2), (p2, v1)]
    report = differential_check(func, bad, trials=32, seed=11)
    assert report.mismatches


def test_differential_skips_partial_baseline_runs():
    partial = ir.parse_module("""
func @f(%a, %p:guard) {
b0:
  %p? %x = const 1
  ret %x
}
""").functions[0]
    total = ir.parse_module("""
func @f(%a, %p:guard) {
b0:
  %x = const 1
  ret %x
}
""").functions[0]
    report = differential_check(partial, total, trials=64, seed=12)
    assert report.ok
    assert report.skipped > 0


# -- random program generation --------------------------------------------------

def test_generation_is_deterministic():
    assert gen_random_program(0, "tiny") == gen_random_program(0, "tiny")
    assert gen_random_program(0, "tiny") != gen_random_program(1, "tiny")


def test_generated_corpus_is_valid_and_runs_clean():
    traps = 0
    for seed in range(1000):
        func = gen_random_program(seed, "tiny" if seed % 2 == 0 else "small")
        assert_no_errors(ir.Module([func]), "non_ssa")
        result = eval_function(func, [seed % 7 - 3, seed % 5])
        if result.trap is not None:
            assert result.trap != interp.BUDGET_EXHAUSTED
            traps += 1
    assert traps <= 10  # generator guarantees initialization and bounds


def test_differential_check_infers_no_kinds(monkeypatch):
    """A check reads the kinds `Function.guards` holds; it infers none."""
    func = gen_random_program(7, "small")
    counts: dict[str, int] = {}
    count_calls(monkeypatch, interp, "infer_kinds", counts)
    count_calls(monkeypatch, ir, "infer_kinds", counts)
    report = differential_check(func, func.clone(), trials=32, seed=0)
    assert report.compared > 0
    assert counts == {}


def test_differential_check_decodes_each_function_once(monkeypatch):
    decoded = []

    def counting(func):
        decoded.append(func)
        return decode(func)

    monkeypatch.setattr(interp, "decode", counting)
    func = gen_random_program(7, "small")
    other = func.clone()
    report = differential_check(func, other, trials=32, seed=0)
    assert report.compared > 0
    assert len(decoded) == 2
    assert decoded[0] is func and decoded[1] is other


# -- pinned results and evaluation order ----------------------------------------

PINNED_PASSES = ["ssa", "fold", "ifconvert", "psi-promote", "out-of-ssa"]
PINNED_BUDGETS = (interp.DEFAULT_BUDGET, *range(1, 41))
PINNED_RESULTS = ("d12feeb544dfdd9798b828851fc0d531"
                  "81d3e4585e52fba106b80d55ebbbf850")


@pytest.fixture(scope="module")
def pinned_variants() -> list[tuple]:
    """Per generator seed 0-99: the program, then its FULL and PARTIAL
    pipeline outputs.  The pinned tests share them and change none."""
    out = []
    for seed in range(100):
        func = gen_random_program(seed, "tiny" if seed % 2 == 0 else "small")
        out.append((func, *(pipeline(func, PINNED_PASSES, machine)[0]
                            for machine in (FULL, PARTIAL))))
    return out


def test_interpreter_results_are_pinned(pinned_variants):
    # (trap, value, memory) of generated programs, as generated and after
    # the FULL and PARTIAL pipelines, on 8 vectors at the default budget and
    # at budgets 1-40.  The digest is fixed: if it changes, the
    # interpreter's semantics changed.  Each variant is decoded once and
    # run on every vector and budget, so a decoded function must carry
    # nothing from one run to the next.
    digest = hashlib.sha256()
    for seed, variants in enumerate(pinned_variants):
        func = variants[0]
        rng = random.Random(seed)
        vectors = [([rng.randint(-4, 12) for _ in func.params],
                    [rng.randint(-8, 8) for _ in range(DEFAULT_MEM_SIZE)])
                   for _ in range(8)]
        for variant in variants:
            code = decode(variant)
            for args, mem in vectors:
                for budget in PINNED_BUDGETS:
                    r = interp.run(code, args, mem, budget)
                    digest.update(repr((r.trap, r.value, r.memory)).encode())
    assert digest.hexdigest() == PINNED_RESULTS
    # The public wrapper decodes and runs in one call.
    args, mem = vectors[-1]
    assert eval_function(variants[-1], args, mem, PINNED_BUDGETS[-1]) == r


PINNED_REPORTS = ("f2c7fa695b06efa0330c2dfdf44acd88"
                  "c603d675f87b7b0c22facae48b35af51")


def test_differential_reports_are_pinned(pinned_variants):
    # Trials, compared, skipped and each mismatch's text of the checks of
    # generator seeds 0-99 against their FULL and PARTIAL pipeline outputs
    # and against a copy of each output whose first add is a sub, so that
    # mismatches show their drawn arguments and memory.  A sub can turn a
    # loop's counter away from its bound, so the checks run at a budget of
    # 2000 steps.  The digest is fixed: if it changes, the checker draws
    # other vectors or reports them otherwise.
    digest = hashlib.sha256()
    mismatches = 0
    for seed, (func, *outputs) in enumerate(pinned_variants):
        for out in outputs:
            broken = out.clone()
            adds = [ins for _, ins in broken.instructions()
                    if ins.opcode == "add"]
            if adds:
                adds[0].opcode = "sub"
            for other in (out, broken):
                r = differential_check(func, other, trials=32, seed=seed,
                                       budget=2000)
                mismatches += len(r.mismatches)
                digest.update(repr((r.trials, r.compared, r.skipped,
                                    [str(m) for m in r.mismatches])).encode())
    assert mismatches > 1000
    assert digest.hexdigest() == PINNED_REPORTS


def test_vector_draws_are_those_of_randint_and_choice():
    for seed in range(1000):
        guards = [bool(seed >> i & 1) for i in range(seed % 5)]
        rng, reference = random.Random(seed), random.Random(seed)
        for mem_size in (DEFAULT_MEM_SIZE, 0, 3):
            expected = (
                [reference.choice([0, 1]) if guard
                 else reference.randint(-4, 12) for guard in guards],
                [reference.randint(-8, 8) for _ in range(mem_size)])
            assert interp.draw_vector(rng, guards, mem_size) == expected
        assert rng.getstate() == reference.getstate()


def test_guard_is_read_before_the_operands():
    undefined_guard = ir.parse_module("""
func @f(%a) {
b0:
  %q? %y = add %a, 1
  ret %a
}
""").functions[0]
    assert eval_function(undefined_guard, [3]).trap == UNDEFINED_READ
    # A false guard skips the instruction, so its undefined operand is
    # never read.
    undefined_operand = ir.parse_module("""
func @f(%a, %p:guard) {
b0:
  %p? %x = add %u, 1
  ret %a
}
""").functions[0]
    assert eval_function(undefined_operand, [3, 0]).value == 3
    assert eval_function(undefined_operand, [3, 1]).trap == UNDEFINED_READ


def test_store_reads_the_value_before_checking_the_address():
    func = ir.parse_module("""
func @f(%a) {
b0:
  store %a, %u
  ret %a
}
""").functions[0]
    assert eval_function(func, [DEFAULT_MEM_SIZE]).trap == UNDEFINED_READ
    assert eval_function(func, [0]).trap == UNDEFINED_READ
    func = ir.parse_module("""
func @f(%a) {
b0:
  store %a, 5
  ret %a
}
""").functions[0]
    assert eval_function(func, [DEFAULT_MEM_SIZE]).trap == OUT_OF_BOUNDS
    assert eval_function(func, [-1]).trap == OUT_OF_BOUNDS
    assert eval_function(func, [0]).memory[0] == 5


def test_psi_reads_only_its_matching_argument():
    func = ir.parse_module("""
func @f(%a, %p:guard, %q:guard) {
b0:
  %x = psi(%p ? %a, %q ? %u)
  ret %x
}
""").functions[0]
    # The rightmost true argument is undefined: the psi traps rather than
    # falling back to a defined argument on its left.
    assert eval_function(func, [5, 1, 1]).trap == UNDEFINED_READ
    assert eval_function(func, [5, 0, 1]).trap == UNDEFINED_READ
    assert eval_function(func, [5, 1, 0]).value == 5
    assert eval_function(func, [5, 0, 0]).trap == PSI_NONE_TRUE


def test_value_operations_read_guards_as_integers():
    func = ir.parse_module("""
func @f(%a) {
b0:
  %p = cmp_lt %a, 10
  %x = add %p, 5
  %y = and %p, %a
  %z = or %y, %x
  store 0, %p
  %n = not %p
  store 1, %n
  %m = not %y
  store 2, %m
  ret %z
}
""").functions[0]
    result = eval_function(func, [3])
    assert result.value == 7 and type(result.value) is int
    assert result.memory[:3] == [1, 0, -2]
    assert all(type(v) is int for v in result.memory)
    func = ir.parse_module("""
func @f(%a) {
b0:
  %p = cmp_lt %a, 10
  ret %p
}
""").functions[0]
    result = eval_function(func, [1])
    assert result.value == 1 and type(result.value) is int


def test_guard_operations_read_operands_as_registers():
    # A guard-kind and/or/not reads every operand as a register, so an
    # immediate there is an undefined read (the validator rejects it).
    func = ir.parse_module("""
func @f(%a) {
b0:
  %p = cmp_lt %a, 10
  %y = and %p, 1
  ret %a
}
""").functions[0]
    assert ir.infer_kinds(func)["y"] == "guard"
    assert eval_function(func, [3]).trap == UNDEFINED_READ


def test_budget_exhausted_mid_block_keeps_earlier_stores():
    func = ir.parse_module("""
func @f(%a) {
b0:
  store 0, 7
  store 1, %a
  %x = add %a, 1
  store 2, %x
  ret %x
}
""").functions[0]
    for budget, memory in ((1, [7, 0, 0]), (2, [7, 9, 0]), (3, [7, 9, 0]),
                           (4, [7, 9, 10])):
        result = eval_function(func, [9], budget=budget)
        assert result.trap == interp.BUDGET_EXHAUSTED
        assert result.memory[:3] == memory
    assert eval_function(func, [9], budget=5).value == 10
