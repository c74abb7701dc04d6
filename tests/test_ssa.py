import pytest

from psikit import analysis, interp, ir
from psikit.machine import FULL, PARTIAL
from psikit.predicates import guard_env_or_conservative
from psikit.ssa import (ConditionViolated, EmptyProjection, NotPsiDefined,
                        all_psis, construct_ssa, copy_fold, is_normalized,
                        psi_inline, psi_inline_all, psi_project, psi_promote,
                        psi_promote_pass, psi_reduce, rewrite_psis_to_selects)

from helpers import assert_no_errors, load_func, pipeline


def test_construct_renames_and_places_phi():
    func = load_func("diamond.pir")
    ssa = construct_ssa(func)
    assert_no_errors(ir.Module([ssa]), "ssa")
    merge = ssa.block_map()["b3"]
    assert len(merge.phis) == 1
    assert len(merge.phis[0].args) == 2
    defined = {i.dest for _, i in ssa.instructions() if i.dest}
    assert len(defined) == 3  # two arm values plus the merged one


def test_construct_keeps_straight_line_code():
    func = ir.parse_module("""
func @f(%a) {
b0:
  %x = add %a, 1
  %y = mul %x, 2
  ret %y
}
""").functions[0]
    ssa = construct_ssa(func.clone())
    assert ir.alpha_equivalent(func, ssa)


def test_construct_rejects_guarded_definitions():
    func = ir.parse_module("""
func @f(%a, %p:guard) {
b0:
  %p? %x = add %a, 1
  ret %x
}
""").functions[0]
    with pytest.raises(ValueError, match="guarded definition"):
        construct_ssa(func)


# Each refused input also holds an unreachable block, which an accepted
# input loses.
REFUSED_BY_CONSTRUCTION = {
    "guarded definition of %x": """
func @f(%a, %p:guard) {
b0:
  %p? %x = add %a, 1
  ret %x
dead:
  goto b0
}
""",
    "already in SSA form": """
func @f(%a, %p:guard) {
b0:
  br %p, b1, b2
b1:
  goto b2
b2:
  %x = phi(b0: %a, b1: %a)
  ret %x
dead:
  goto b2
}
""",
    "%x may be used before it is defined": """
func @f(%a, %p:guard) {
b0:
  br %p, b1, b2
b1:
  %x = add %a, 1
  goto b2
b2:
  ret %x
dead:
  goto b1
}
""",
}


def test_construct_renames_in_place_and_leaves_a_refused_input_unchanged():
    func = load_func("diamond.pir")
    assert construct_ssa(func) is func
    assert_no_errors(ir.Module([func]), "ssa")
    for message, text in REFUSED_BY_CONSTRUCTION.items():
        func = ir.parse_module(text).functions[0]
        before = ir.print_function(func)
        with pytest.raises(ValueError, match=message):
            construct_ssa(func)
        assert ir.print_function(func) == before, message


def test_construct_refuses_an_entry_block_with_predecessors():
    """A phi in the entry block could not take the function's inputs, so a
    loop headed by the entry is refused; it used to lose %a's phi there
    and run forever."""
    func = ir.parse_module("""
func @f(%a) {
b0:
  %c = cmp_lt %a, 10
  br %c, b1, b2
b1:
  %a = add %a, 1
  goto b0
b2:
  ret %a
}
""").functions[0]
    before = ir.print_function(func)
    with pytest.raises(ValueError, match="entry block b0 has predecessors"):
        construct_ssa(func)
    assert ir.print_function(func) == before


def test_construct_checks_only_reachable_blocks():
    func = ir.parse_module("""
func @f(%a, %p:guard) {
b0:
  %x = add %a, 1
  ret %x
dead:
  %p? %y = add %a, 2
  %z = psi(%p ? %y)
  ret %z
}
""").functions[0]
    construct_ssa(func)
    assert [b.label for b in func.blocks] == ["b0"]


def test_construct_is_interpreter_equivalent():
    for seed in range(200):
        func = interp.gen_random_program(seed, "tiny" if seed % 2 else "small")
        ssa = construct_ssa(func.clone())
        assert_no_errors(ir.Module([ssa]), "ssa")
        report = interp.differential_check(func, ssa, trials=32, seed=seed)
        assert not report.mismatches, f"seed {seed}: {report.mismatches[0]}"


def test_deep_block_chain_builds_without_recursion():
    # 1200 blocks in a straight line: deeper than Python's default
    # recursion limit of 1000, so a recursive CFG or dominator-tree walk
    # raises RecursionError.
    depth = 1200
    lines = ["func @f(%a) {", "b0:", "  %x = add %a, 1", "  goto b1"]
    for k in range(1, depth):
        lines += [f"b{k}:", "  %x = add %x, 1",
                  f"  goto b{k + 1}" if k + 1 < depth else "  ret %x"]
    func = ir.parse_module("\n".join(lines + ["}"]) + "\n").functions[0]
    tree = analysis.Analyses(func).dom
    assert tree.depth[f"b{depth - 1}"] == depth - 1
    ssa = construct_ssa(func)
    assert_no_errors(ir.Module([ssa]), "ssa")
    assert interp.eval_function(ssa, [0]).value == depth


# -- copy folding -------------------------------------------------------------

def test_fold_plain_mov():
    func = ir.parse_module("""
func @f(%y) {
b0:
  %x = mov %y
  %z = add %x, 1
  ret %z
}
""").functions[0]
    copy_fold(func, guard_env_or_conservative(func))
    add = func.blocks[0].body[0]
    assert add.opcode == "add" and add.operands == ["y", 1]


def test_fold_predicated_copy_into_psi(tmp_path):
    func = load_func("fold_pred_copy.pir")
    expected = load_func("fold_pred_copy_folded.pir")
    removed = copy_fold(func, guard_env_or_conservative(func))
    assert removed == 1
    assert ir.alpha_equivalent(func, expected)


def test_fold_refuses_without_containment_proof():
    # The argument predicate is constant-true, which is not contained in p.
    func = ir.parse_module("""
func @f(%i, %p:guard) {
b0:
  %p? %a = add %i, 1
  %p? %c = mov %a
  %x = psi(1 ? %c)
  ret %x
}
""").functions[0]
    before = ir.print_function(func)
    copy_fold(func, guard_env_or_conservative(func))
    assert ir.print_function(func) == before


# -- psi transformations ------------------------------------------------------

def psi_text(func, dest):
    for psi in all_psis(func):
        if psi.dest == dest:
            return [(str(p), v) for p, v in psi.args]
    raise KeyError(dest)


def test_inline_splices_inner_arguments():
    func = load_func("two_merges_predicated.pir")
    # Rebuild the pre-inline shape: y = psi(1 ? x, q ? c).
    y = all_psis(func)[1]
    y.args = [(ir.TRUE, "x"), (ir.Pred("q"), "c")]
    psi_inline(func, y, 0)
    assert psi_text(func, "y") == [("%p", "a"), ("!%p", "b"), ("%q", "c")]


def test_inline_single_argument_psi():
    func = ir.parse_module("""
func @f(%i, %p:guard) {
b0:
  %p? %a = add %i, 1
  %x = psi(%p ? %a)
  %y = psi(1 ? %x)
  ret %y
}
""").functions[0]
    psi_inline(func, all_psis(func)[1], 0)
    assert psi_text(func, "y") == [("%p", "a")]


def test_inline_requires_psi_defined_argument():
    func = load_func("diamond_predicated.pir")
    with pytest.raises(NotPsiDefined):
        psi_inline(func, all_psis(func)[0], 0)


def test_inline_pass_preserves_semantics_on_chains():
    for seed in range(50):
        func = interp.gen_random_program(seed, "small")
        work, _ = pipeline(func, ["ssa", "ifconvert"])
        before = work.clone()
        psi_inline_all(analysis.Analyses(work))
        report = interp.differential_check(before, work, trials=16, seed=seed)
        assert not report.mismatches, f"seed {seed}"


def test_reduce_drops_covered_arguments():
    func = ir.parse_module("""
func @f(%i, %p:guard) {
b0:
  %p? %a = add %i, 1
  %b = add %i, 2
  %x = psi(%p ? %a, 1 ? %b)
  ret %x
}
""").functions[0]
    env = guard_env_or_conservative(func)
    before = func.clone()
    assert psi_reduce(all_psis(func)[0], env) == 1
    assert psi_text(func, "x") == [("1", "b")]
    assert psi_reduce(all_psis(func)[0], env) == 0  # fixpoint
    report = interp.differential_check(before, func, trials=16, seed=0)
    assert not report.mismatches


def test_reduce_keeps_uncovered_arguments():
    func = load_func("diamond_predicated.pir")
    env = guard_env_or_conservative(func)
    assert psi_reduce(all_psis(func)[0], env) == 0


def test_reduce_middle_argument():
    func = ir.parse_module("""
func @f(%i, %p:guard) {
b0:
  %p? %a = add %i, 1
  %p? %b = add %i, 2
  !%p? %c = add %i, 3
  %x = psi(%p ? %a, %p ? %b, !%p ? %c)
  ret %x
}
""").functions[0]
    env = guard_env_or_conservative(func)
    assert psi_reduce(all_psis(func)[0], env) == 1
    assert psi_text(func, "x") == [("%p", "b"), ("!%p", "c")]


def test_project_onto_predicate():
    func = load_func("diamond_predicated.pir")
    env = guard_env_or_conservative(func)
    psi = all_psis(func)[0]
    new = psi_project(func, psi, env.pred_formula(ir.Pred("p")), env)
    assert psi_text(func, new) == [("%p", "a")]
    assert psi_text(func, "x") == [("%p", "a"), ("!%p", "b")]  # untouched


def test_project_onto_true_copies_everything():
    from psikit.predicates import TRUE_EXPR
    func = load_func("diamond_predicated.pir")
    env = guard_env_or_conservative(func)
    new = psi_project(func, all_psis(func)[0], TRUE_EXPR, env)
    assert psi_text(func, new) == psi_text(func, "x")


def test_project_keeps_independent_predicates():
    func = ir.parse_module("""
func @f(%i, %p:guard, %q:guard) {
b0:
  %p? %a = add %i, 1
  %q? %b = add %i, 2
  %x = psi(%p ? %a, %q ? %b)
  ret %x
}
""").functions[0]
    env = guard_env_or_conservative(func)
    new = psi_project(func, all_psis(func)[0], env.pred_formula(ir.Pred("p")),
                      env)
    assert len(psi_text(func, new)) == 2


def test_project_empty_is_an_error():
    from psikit.predicates import FALSE_EXPR
    func = load_func("diamond_predicated.pir")
    env = guard_env_or_conservative(func)
    with pytest.raises(EmptyProjection):
        psi_project(func, all_psis(func)[0], FALSE_EXPR, env)


def test_promote_first_argument_with_speculation():
    func = load_func("diamond_predicated.pir")
    env = guard_env_or_conservative(func)
    before = func.clone()
    psi_promote(func.defs(), all_psis(func)[0], 0, ir.TRUE, env, FULL)
    assert psi_text(func, "x") == [("1", "a"), ("!%p", "b")]
    assert func.blocks[0].body[0].guard is None  # definition speculated
    report = interp.differential_check(before, func, trials=16, seed=1)
    assert not report.mismatches


def test_promote_phi_defined_argument_needs_no_speculation():
    func = load_func("loop_carried.pir")
    env = guard_env_or_conservative(func)
    psi = all_psis(func)[0]
    psi_promote(func.defs(), psi, 0, ir.TRUE, env, FULL)
    assert [str(p) for p, _ in psi.args] == ["1", "%p"]


def test_promote_rejects_widening_beyond_tail_union():
    func = load_func("diamond_predicated.pir")
    env = guard_env_or_conservative(func)
    with pytest.raises(ConditionViolated) as exc:
        psi_promote(func.defs(), all_psis(func)[0], 1, ir.TRUE, env, FULL)
    assert exc.value.which == 2


def test_promote_rejects_unspeculatable_definition():
    func = ir.parse_module("""
func @f(%i, %p:guard) {
b0:
  %p? %a = load 0
  !%p? %b = add %i, 2
  %x = psi(%p ? %a, !%p ? %b)
  ret %x
}
""").functions[0]
    env = guard_env_or_conservative(func)
    with pytest.raises(ConditionViolated) as exc:
        psi_promote(func.defs(), all_psis(func)[0], 0, ir.TRUE, env, FULL)
    assert exc.value.which == 1


def test_promote_speculation_reads_operands_not_the_guard():
    """Speculating %v drops its guard %q, so only its operand %a must be
    defined under the new predicate; %q itself is defined only under %p."""
    func = ir.parse_module("""
func @f(%a, %p:guard) {
b0:
  %p? %q = cmp_lt %a, 3
  %q? %v = add %a, 1
  %w = add %a, 2
  %x = psi(%q ? %v, 1 ? %w)
  ret %x
}
""").functions[0]
    env = guard_env_or_conservative(func)
    psi_promote(func.defs(), all_psis(func)[0], 0, ir.TRUE, env, FULL)
    assert psi_text(func, "x") == [("1", "v"), ("1", "w")]
    assert func.blocks[0].body[1].guard is None  # definition speculated


def test_promote_pass_applies_first_argument_policy():
    func = load_func("speculate_add_predicated.pir")
    env = guard_env_or_conservative(func)
    assert psi_promote_pass(func, env, PARTIAL) == 1
    assert psi_text(func, "x") == [("1", "a"), ("!%p", "b")]


# -- normalization predicate --------------------------------------------------

def test_is_normalized_on_folding_example():
    func = load_func("fold_pred_copy_folded.pir")
    cache = analysis.Analyses(func)
    x, y = all_psis(func)
    assert is_normalized(cache, x)
    assert not is_normalized(cache, y)  # argument order inverted


def test_is_normalized_detects_predicate_mismatch():
    func = load_func("speculate_add_predicated.pir")
    assert not is_normalized(analysis.Analyses(func), all_psis(func)[0])


def test_fresh_if_converted_psis_are_normalized():
    for name in ("diamond.pir", "two_merges.pir"):
        func = load_func(name)
        work, _ = pipeline(func, ["ssa", "ifconvert"])
        cache = analysis.Analyses(work)
        for psi in all_psis(work):
            assert is_normalized(cache, psi), name


def test_select_rewrite_matches_reference():
    func = load_func("select_chain.pir")
    expected = load_func("select_chain_selects.pir")
    sel = rewrite_psis_to_selects(func)
    assert ir.alpha_equivalent(sel, expected)
    report = interp.differential_check(func, sel, trials=32, seed=2)
    assert not report.mismatches
