import itertools

from psikit import interp, ir
from psikit.interp import (DEFAULT_MEM_SIZE, OUT_OF_BOUNDS, PSI_NONE_TRUE,
                           UNDEFINED_READ, differential_check, eval_function,
                           gen_random_program)

from helpers import assert_no_errors, load_func


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


def test_eval_is_deterministic():
    func = gen_random_program(11, "small")
    first = eval_function(func, [3, 4])
    second = eval_function(func, [3, 4])
    assert (first.value, first.trap, first.memory) == \
           (second.value, second.trap, second.memory)


# -- differential checking ----------------------------------------------------

def test_differential_reflexivity():
    func = gen_random_program(5, "small")
    report = differential_check(func, func, trials=32, seed=9)
    assert report.ok and report.compared + report.skipped == 32


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


def test_differential_check_infers_kinds_once_per_function(monkeypatch):
    calls = []

    def counting(func):
        calls.append(func)
        return ir.infer_kinds(func)

    monkeypatch.setattr(interp, "infer_kinds", counting)
    func = gen_random_program(7, "small")
    report = differential_check(func, func.clone(), trials=32, seed=0)
    assert report.compared > 0
    assert len(calls) <= 2
