import pytest

from psikit import analysis, interp, ir, out_of_ssa
from psikit.machine import FULL, PARTIAL
from psikit.out_of_ssa import (CongruenceClasses, OutOfSsaOptions, count_movs,
                               psi_normalize, rename_and_strip, run_out_of_ssa)
from psikit.pipeline import FAILURES, STANDARD
from psikit.pipeline import run as run_passes
from psikit.predicates import guard_env_or_conservative
from psikit.ssa import all_psis, is_normalized

import liveness_oracle
from helpers import (ALL_OFF, BEFORE_OUT_OF_SSA, DATA, LATCH_REFUSALS, MID,
                     assert_no_errors, assert_same_order,
                     class_checked_to_cssa, count_calls, latch_refusal_params,
                     load, load_func, pipeline, to_cssa)


def normalize_only(func, reorder=True):
    work = func.clone()
    copies = psi_normalize(analysis.Analyses(work),
                           OutOfSsaOptions(reorder_disjoint=reorder))
    return work, copies


# -- psi-normalize ------------------------------------------------------------

def test_normalize_three_shapes():
    func = load_func("normalize_three.pir")
    expected = load_func("normalize_three_normalized.pir")
    work, copies = normalize_only(func)
    assert copies == 3
    assert ir.alpha_equivalent(work, expected)
    cache = analysis.Analyses(work)
    assert all(is_normalized(cache, p) for p in all_psis(work))


def test_normalize_is_idempotent():
    func = load_func("normalize_three.pir")
    work, first = normalize_only(func)
    again, second = normalize_only(work)
    assert first == 3 and second == 0
    assert ir.alpha_equivalent(work, again)


def test_normalize_already_normalized_is_identity():
    func = load_func("diamond_predicated.pir")
    work, copies = normalize_only(func)
    assert copies == 0
    assert ir.alpha_equivalent(work, func)


def test_normalize_order_violation_inserts_predicated_copy():
    func = load_func("order_swap.pir")
    expected = load_func("order_swap_cssa.pir")
    work, copies = normalize_only(func, reorder=False)
    assert copies == 1
    assert ir.alpha_equivalent(work, expected)


def test_oracle_and_normalizer_share_the_order_rule():
    """A psi-defined left argument is defined at its psi, not at its chain
    head, for `is_normalized` as for `psi_normalize`."""
    func = load_func("order_psi_left.pir")
    y = all_psis(func)[-1]
    assert not is_normalized(analysis.Analyses(func), y)
    work, copies = normalize_only(func)
    assert copies == 1
    cache = analysis.Analyses(work)
    assert all(is_normalized(cache, p) for p in all_psis(work))
    assert not interp.differential_check(func, work, trials=32,
                                         seed=3).mismatches


# -- psi-congruence -----------------------------------------------------------

def test_congruence_repairs_live_overlap():
    func = load_func("live_overlap.pir")
    expected = load_func("live_overlap_repaired.pir")
    cache, classes, counts = to_cssa(func, ALL_OFF)
    assert counts == (0, 3, 0)
    assert ir.alpha_equivalent(cache.func, expected)
    # a joins the three repair variables in one class.
    group = classes.members("a")
    assert len(group) == 4 and "a" in group
    for name in ("b", "c", "x"):
        assert name not in group
    report = interp.differential_check(func, cache.func, trials=32, seed=0)
    assert not report.mismatches


def test_congruence_clean_psi_needs_no_copies():
    func = load_func("diamond_predicated.pir")
    _, classes, counts = to_cssa(func, ALL_OFF)
    assert counts == (0, 0, 0)
    assert sorted(classes.members("x")) == ["a", "b", "x"]


def test_congruence_shared_argument_is_detached():
    func = load_func("shared_arg.pir")
    expected = load_func("shared_arg_cssa.pir")
    cache, classes, counts = to_cssa(func)
    assert counts == (0, 1, 0)
    assert ir.alpha_equivalent(cache.func, expected)
    assert len(classes.members("x")) == 3
    assert len(classes.members("y")) == 3
    assert classes.find("x") != classes.find("y")


def test_rename_and_strip_matches_reference_outputs():
    for src, want in [("order_swap.pir", "order_swap_nonssa.pir"),
                      ("shared_arg.pir", "shared_arg_nonssa.pir")]:
        func = load_func(src)
        cache, classes, _ = to_cssa(func)
        rename_and_strip(cache, classes, OutOfSsaOptions())
        work = cache.func
        assert ir.alpha_equivalent(work, load_func(want)), src
        assert_no_errors(ir.Module([work]), "non_ssa")
        report = interp.differential_check(func, work, trials=32, seed=1)
        assert not report.mismatches, src


def test_rename_and_strip_adds_no_names_to_the_classes():
    for seed in range(20):
        func = interp.gen_random_program(seed, "small")
        work, _ = pipeline(func, ["ssa", "fold", "ifconvert"])
        cache, classes, _ = to_cssa(work)
        names, groups = set(classes.rep), classes.classes()
        rename_and_strip(cache, classes, OutOfSsaOptions())
        work = cache.func
        assert set(classes.rep) == names, seed
        assert classes.classes() == groups, seed
        assert not interp.differential_check(func, work, 8, seed).mismatches


def test_rename_and_strip_without_merges_is_identity():
    func = ir.parse_module("""
func @f(%a) {
b0:
  %x = add %a, 1
  ret %x
}
""").functions[0]
    work = func.clone()
    rename_and_strip(analysis.Analyses(work), CongruenceClasses(),
                     OutOfSsaOptions())
    assert ir.alpha_equivalent(work, func)


def test_rename_and_strip_keeps_what_names_no_renamed_variable():
    # shared_arg's classes are {a, c, y} and {a.1, b, x}, a.1 being the
    # copy psi-congruence inserts.  Only %s = add %x, %y reads a renamed
    # variable; the others keep their operand list and guard, whether or
    # not their destination is renamed.
    cache, classes, _ = to_cssa(load_func("shared_arg.pir"))
    work = cache.func
    assert classes.classes() == [["a", "c", "y"], ["a.1", "b", "x"]]
    before = [(ins, ins.operands, ins.guard) for _, ins in work.instructions()
              if isinstance(ins, ir.Instr)]
    rename_and_strip(cache, classes, OutOfSsaOptions())
    changed = [ins for ins, operands, guard in before
               if ins.operands is not operands or ins.guard is not guard]
    assert len(before) == 6
    assert [(ins.dest, ins.operands) for ins in changed] == [
        ("s", ["a.1", "a"])]
    assert ir.alpha_equivalent(work, load_func("shared_arg_nonssa.pir"))


def test_rename_and_strip_runs_on_a_function_with_dead_blocks():
    """Without `to_cssa`, nothing removes the unreachable b1; its live
    ranges are built over every block, and renaming keeps it."""
    func = ir.parse_module("""
func @f(%a) {
b0:
  %x = add %a, 1
  goto b2
b1:
  %y = add %x, 2
  goto b2
b2:
  %z = phi(b0: %x, b1: %y)
  ret %z
}
""").functions[0]
    classes = CongruenceClasses()
    classes.union("x", "z")
    classes.union("y", "z")
    rename_and_strip(analysis.Analyses(func), classes, OutOfSsaOptions())
    assert ir.print_function(func) == """func @f(%a) {
b0:
  %x = add %a, 1
  goto b2
b1:
  %x = add %x, 2
  goto b2
b2:
  ret %x
}
"""


# -- phi-congruence -----------------------------------------------------------

def test_clean_phi_merges_without_copies():
    _, stats = pipeline(load_func("diamond.pir"), ["ssa", "out-of-ssa"])
    assert stats.copies_phi_congruence == 0
    assert stats.total_copies == 0


def test_lost_copy_loop_needs_one_copy():
    func = ir.parse_module("""
func @f(%n) {
b0:
  %i0 = const 0
  goto b1
b1:
  %i1 = phi(b0: %i0, b1: %i2)
  %i2 = add %i1, 1
  %c = cmp_lt %i2, %n
  br %c, b1, b2
b2:
  ret %i1
}
""").functions[0]
    work = func.clone()
    stats = run_out_of_ssa(work)
    assert stats.copies_phi_congruence == 1
    assert_no_errors(ir.Module([work]), "non_ssa")
    report = interp.differential_check(func, work, trials=32, seed=2)
    assert not report.mismatches


def test_swap_loop_stays_correct():
    func = ir.parse_module("""
func @f(%n, %a, %b) {
b0:
  %k = const 0
  goto b1
b1:
  %x = phi(b0: %a, b1: %y)
  %y = phi(b0: %b, b1: %x)
  %k2 = phi(b0: %k, b1: %k3)
  %k3 = add %k2, 1
  %c = cmp_lt %k3, %n
  br %c, b1, b2
b2:
  ret %x
}
""").functions[0]
    work = func.clone()
    run_out_of_ssa(work)
    assert_no_errors(ir.Module([work]), "non_ssa")
    report = interp.differential_check(func, work, trials=32, seed=3)
    assert not report.mismatches


def test_phi_naive_mode_is_equivalent():
    func = load_func("loop_carried.pir")
    work = func.clone()
    stats = run_out_of_ssa(work, OutOfSsaOptions(phi_naive=True))
    assert_no_errors(ir.Module([work]), "non_ssa")
    report = interp.differential_check(func, work, trials=32, seed=4,
                                       budget=5000)
    assert not report.mismatches
    lean = func.clone()
    lean_stats = run_out_of_ssa(lean)
    assert lean_stats.copies_phi_congruence <= stats.copies_phi_congruence


# -- the loop example and promotion -------------------------------------------

def test_loop_carried_copy_counts_without_promotion():
    func = load_func("loop_carried.pir")
    work = func.clone()
    stats = run_out_of_ssa(work)
    assert stats.copies_normalize == 1
    assert stats.copies_psi_congruence == 0
    assert stats.copies_phi_congruence == 1
    report = interp.differential_check(func, work, trials=32, seed=5,
                                       budget=5000)
    assert not report.mismatches


def test_loop_carried_copy_counts_with_promotion():
    func = load_func("loop_carried.pir")
    work, stats = pipeline(func, ["psi-promote", "out-of-ssa"])
    assert stats.copies_inserted() == 0
    report = interp.differential_check(func, work, trials=32, seed=5,
                                       budget=5000)
    assert not report.mismatches


# -- the four refinements -----------------------------------------------------

REORDER_WITNESS = """
func @f(%i) {
b0:
  %p = cmp_lt %i, 5
  !%p? %b = add %i, 1
  %p? %a = add %i, 2
  %x = psi(%p ? %a, !%p ? %b)
  ret %x
}
"""

DISJOINT_WITNESS = """
func @f(%i) {
b0:
  %p = cmp_lt %i, 5
  %p? %a = add %i, 1
  !%p? %b = add %i, 2
  %x = psi(%p ? %a, !%p ? %b)
  %p? %d = add %a, 3
  %u = add %x, %d
  ret %u
}
"""


def run_with(text_or_name, opts):
    if text_or_name.endswith(".pir"):
        func = load_func(text_or_name)
    else:
        func = ir.parse_module(text_or_name).functions[0]
    work = func.clone()
    stats = run_out_of_ssa(work, opts)
    report = interp.differential_check(func, work, trials=32, seed=6)
    assert not report.mismatches
    return stats.copies_inserted()


def opts_with(**changes):
    base = dict(reorder_disjoint=False, disjoint_interference=False,
                left_only=False, ignore_result=False)
    base.update(changes)
    return OutOfSsaOptions(**base)


def test_reorder_disjoint_witness():
    off = run_with(REORDER_WITNESS, opts_with())
    on = run_with(REORDER_WITNESS, opts_with(reorder_disjoint=True))
    assert (off, on) == (1, 0)


def test_disjoint_interference_witness():
    off = run_with(DISJOINT_WITNESS, opts_with(left_only=True,
                                               ignore_result=True))
    on = run_with(DISJOINT_WITNESS, opts_with(left_only=True,
                                              ignore_result=True,
                                              disjoint_interference=True))
    assert (off, on) == (1, 0)


def test_left_only_witness():
    off = run_with("live_overlap.pir", opts_with())
    on = run_with("live_overlap.pir", opts_with(left_only=True))
    assert (off, on) == (3, 2)


def test_ignore_result_witness():
    off = run_with("live_overlap.pir", opts_with())
    on = run_with("live_overlap.pir", opts_with(ignore_result=True))
    assert (off, on) == (3, 2)


CRAFTED = ["diamond.pir", "two_merges.pir", "speculate_add.pir",
           "order_swap.pir", "shared_arg.pir", "fold_pred_copy.pir",
           "normalize_three.pir", "select_chain.pir", "live_overlap.pir",
           "loop_carried.pir"]


def crafted_corpus():
    for name in CRAFTED:
        func = load_func(name)
        already_ssa = any(b.phis for b in func.blocks) or any(
            isinstance(i, ir.PsiInstr) for b in func.blocks for i in b.body)
        if already_ssa:
            work = func.clone()
        else:
            work, _ = pipeline(func, ["ssa", "ifconvert"])
        yield name, work


def test_each_improvement_never_increases_copies_on_crafted_corpus():
    for name, func in crafted_corpus():
        base = run_out_of_ssa(func.clone(), ALL_OFF).copies_inserted()
        for flag in ("reorder_disjoint", "disjoint_interference",
                     "left_only", "ignore_result"):
            improved = run_out_of_ssa(
                func.clone(), opts_with(**{flag: True})).copies_inserted()
            assert improved <= base, (name, flag)


# -- accounting ----------------------------------------------------------------

def test_copy_accounting_matches_mov_delta():
    for name, func in crafted_corpus():
        for opts in (OutOfSsaOptions(), ALL_OFF):
            work = func.clone()
            before = count_movs(work)
            stats = run_out_of_ssa(work, opts)
            after = count_movs(work)
            assert stats.copies_inserted() == after - before, name
            assert stats.total_copies == after, name


# -- live ranges carried through the conversion --------------------------------

def assert_matches_fresh(live: analysis.LiveRanges, refine: bool):
    """The carried live ranges equal the oracle's fresh liveness, asked of
    `live_at` for every block and every variable, and `interferes` equals
    an `interference_graph` built on it on every pair of variables."""
    func = live.func
    fresh = liveness_oracle.liveness(func)
    names = sorted(func.var_names())
    for out, sets in ((False, fresh.live_in), (True, fresh.live_out)):
        assert {block.label: frozenset(v for v in names
                                       if live.live_at(v, block.label, out))
                for block in func.blocks} == sets
    env = guard_env_or_conservative(func)
    graph = analysis.interference_graph(func, fresh, env if refine else None)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert live.interferes(a, b, refine) == graph.interferes(a, b), \
                (func.name, a, b)


def stepped_to_cssa(monkeypatch, func: ir.Function, opts: OutOfSsaOptions):
    """to_cssa on `func`, comparing the carried live ranges with fresh ones
    after each update (the copies of each psi in psi-congruence, the end of
    phi-congruence) and at the end, and the carried positions with a fresh
    numbering after psi-normalize and after each update; returns the cache
    and the number of comparisons."""
    steps = []
    update = analysis.LiveRanges.update
    normalize = out_of_ssa.psi_normalize

    def checked(self, *args, **kwargs):
        update(self, *args, **kwargs)
        assert_same_order(self.positions, self.func)
        assert_matches_fresh(self, opts.disjoint_interference)
        steps.append(1)

    def normalized(cache, *args, **kwargs):
        copies = normalize(cache, *args, **kwargs)
        assert_same_order(cache.positions, cache.func)
        return copies

    monkeypatch.setattr(analysis.LiveRanges, "update", checked)
    monkeypatch.setattr(out_of_ssa, "psi_normalize", normalized)
    cache, _, _ = out_of_ssa.to_cssa(func, opts)
    assert_matches_fresh(cache.live, opts.disjoint_interference)
    monkeypatch.undo()
    return cache, len(steps)


def test_carried_live_ranges_equal_fresh_ones_after_every_copy(monkeypatch):
    steps = 0
    for seed in range(24):
        func = interp.gen_random_program(seed, "tiny" if seed % 2 == 0
                                         else "small", name=f"f{seed}")
        for machine in (FULL, PARTIAL):
            work, _ = pipeline(func, ["ssa", "fold", "ifconvert",
                                      "psi-promote"], machine)
            for opts in (OutOfSsaOptions(), ALL_OFF):
                steps += stepped_to_cssa(monkeypatch, work.clone(), opts)[1]
    assert steps > 200


@pytest.mark.parametrize("machine", [FULL, PARTIAL], ids=["F", "P"])
def test_an_irreducible_loop_keeps_its_live_ranges_and_its_output(
        monkeypatch, machine):
    """irreducible_loop.pir enters its loop at b1 and at b2, so no block of
    the cycle b1 -> b2 -> b3 dominates the others.  The carried live
    ranges equal fresh ones after every update, under default options and
    with every refinement off, and the standard pipeline gives the
    committed output, which keeps the input's semantics."""
    func = load_func("irreducible_loop.pir")
    work, _ = pipeline(func, BEFORE_OUT_OF_SSA, machine)
    dom = analysis.Analyses(work).dom
    assert dom.idom["b1"] == dom.idom["b2"] == "b0"
    for opts in (OutOfSsaOptions(), ALL_OFF):
        cache, steps = stepped_to_cssa(monkeypatch, work.clone(), opts)
        assert steps == 1 and count_movs(cache.func) > 0, opts
    final, _ = pipeline(func, STANDARD, machine)
    assert ir.print_function(final) == ir.print_function(
        load_func("irreducible_loop_nonssa.pir"))
    report = interp.differential_check(func, final, trials=256, seed=1)
    assert report.ok and report.compared > 0


def test_live_ranges_are_explored_when_first_asked(monkeypatch):
    """Building `cache.live` explores no variable, and `interferes(a, b)`
    at most a and b, once each.  A copy of %x.3 at the end of b3 gives
    %x.3 a use; the update that records it explores nothing, queries on
    other variables explore nothing, and only the next query on %x.3
    explores it again."""
    work, _ = pipeline(load_func("irreducible_loop.pir"), ["ssa"])
    cache = analysis.Analyses(work)
    counts = {"_explore": 0}
    count_calls(monkeypatch, analysis.LiveRanges, "_explore", counts)
    live = cache.live
    assert counts["_explore"] == 0
    assert live.interferes("x.4", "y")
    assert 1 <= counts["_explore"] <= 2
    for var in ("x.4", "y"):
        live.live_at(var, "b3")
        live.live_at(var, "b3", out=True)
    assert counts["_explore"] == 2
    assert not live.interferes("x.3", "e")
    assert counts["_explore"] == 4
    block, key = cache.locate(cache.blocks["b3"].term)
    copy = out_of_ssa._insert_copy(cache, (block, key - 1),
                                   cache.names.fresh("x.3"), "x.3")
    live.update([copy])
    assert counts["_explore"] == 4
    assert live.live_at("y", "b3", out=True)
    assert live.live_at("x.4", "b3", out=True)
    assert not live.live_at("e", "b3", out=True)
    assert live.interferes("x.3", "e") and live.interferes("x.4", "y")
    assert counts["_explore"] == 4
    assert live.live_at("x.3", "b3")
    assert counts["_explore"] == 5
    assert not live.live_at("x.3", "b3", out=True)
    assert counts["_explore"] == 5
    monkeypatch.undo()
    assert_matches_fresh(live, False)


def test_phi_result_rename_moves_a_synthetic_use_onto_its_copy(monkeypatch):
    func = load_func("phi_result_heads_chain.pir")
    work = func.clone()
    cache, steps = stepped_to_cssa(monkeypatch, work,
                                   OutOfSsaOptions(phi_naive=True))
    assert steps == 1
    mov = cache.defs["x"]
    assert mov.opcode == "mov" and mov.operands == ["x.1"]
    assert analysis.liveness(work).synthetic_uses[id(mov)] == ["w"]
    assert cache.live.live_at("w", "b1", out=True)
    assert cache.live.live_at("w", "b3")
    assert not cache.live.interferes("w", "x")
    assert cache.live.interferes("w", "y1")
    final = func.clone()
    run_out_of_ssa(final, OutOfSsaOptions(phi_naive=True))
    report = interp.differential_check(func, final, trials=32, seed=6)
    assert not report.mismatches


def test_psi_argument_copy_moves_a_synthetic_use_in_a_later_psi(monkeypatch):
    func = load_func("psi_chain_copy.pir")
    stepped_to_cssa(monkeypatch, func.clone(), ALL_OFF)
    work = func.clone()
    cache, steps = stepped_to_cssa(monkeypatch, work, OutOfSsaOptions())
    assert steps == 2  # the copied psi, then the end of phi-congruence
    mov = cache.defs["a.1"]
    assert mov.opcode == "mov" and mov.operands == ["a"]
    assert analysis.liveness(work).synthetic_uses[id(mov)] == ["u"]
    assert cache.live.interferes("u", "a", True)


@pytest.mark.parametrize("name, opts, pair", [
    ("psi_chain_copy.pir", OutOfSsaOptions(), ("u", "a")),
    ("phi_result_heads_chain.pir", OutOfSsaOptions(phi_naive=True),
     ("w", "y1")),
])
def test_an_answer_kept_before_a_copy_of_its_variables_is_asked_anew(
        name, opts, pair):
    """The pair does not interfere after psi-normalize.  A copy then moves
    the first variable's synthetic use (onto `%a.1 = mov %a` in
    psi-congruence; onto the renamed phi result's copy in naive
    phi-congruence, which also copies `%y1`), and from then on the pair
    interferes: the update that records the copy drops the kept answer."""
    a, b = pair
    cache = analysis.Analyses(load_func(name))
    psi_normalize(cache, opts)
    assert not cache.live.interferes(a, b, True)
    classes = CongruenceClasses()
    out_of_ssa.psi_congruence(cache, classes, opts)
    out_of_ssa.phi_congruence(cache, classes, opts)
    assert any(ins.opcode == "mov" and ins.operands[0] in pair
               for _, ins in cache.func.instructions())
    assert cache.live.interferes(b, a, True)
    assert analysis.LiveRanges(cache).interferes(a, b, True)


def test_phi_result_copy_goes_below_a_psi_argument_copy_at_the_head():
    """Psi-congruence copies %w at the head of the loop; phi-congruence then
    renames %x's phi.  %w.1's synthetic use moves onto the result copy
    `%x = mov %x.1`, so that copy must follow `%w.1 = mov %w`, or %w.1 is
    used before its definition and live around the loop."""
    func = load_func("loop_exit_psi_over_phis.pir")
    for opts in (OutOfSsaOptions(), OutOfSsaOptions(phi_naive=True)):
        cache, _, _ = to_cssa(func, opts)
        head = [ins.dest for ins in cache.blocks["b1"].body
                if ins.opcode == "mov"]
        assert head.index("w.1") < head.index("x"), opts
        final, _ = pipeline(func, ["out-of-ssa"], opts=opts)
        assert_no_errors(ir.Module([final]))
        report = interp.differential_check(func, final, trials=32, seed=9,
                                           budget=5000)
        assert report.ok and report.compared > 0, opts


def test_argument_dying_at_a_phi_is_copied_at_the_end_of_its_start_block():
    """%a dies at the loop phi %h in b1; its copy cannot go above the phi,
    so it goes at the end of b0, which every path into b1 from b0 ends."""
    func = load_func("arg_dies_at_phi.pir")
    work = func.clone()
    cache = analysis.Analyses(work)
    psi_normalize(cache, OutOfSsaOptions())
    out_of_ssa.psi_congruence(cache, CongruenceClasses(), OutOfSsaOptions())
    [psi] = all_psis(work)
    copy = cache.blocks["b0"].body[-1]
    assert (copy.dest, copy.opcode, copy.operands) == (psi.args[0][1], "mov",
                                                       ["a"])
    final, _ = pipeline(func, ["out-of-ssa"])
    assert_no_errors(ir.Module([final]))
    report = interp.differential_check(func, final, trials=32, seed=9,
                                       budget=5000)
    assert report.ok and report.compared > 0


@pytest.mark.parametrize("machine", [FULL, PARTIAL], ids=["F", "P"])
def test_out_of_ssa_drops_an_unreachable_predecessor_of_a_merge(
        monkeypatch, machine):
    """unreachable_pred.pir's merge phi also takes %z from b4, which no
    path reaches.  If-conversion keeps the merge; `to_cssa` drops b4 and
    the phi's edge from it, and the output keeps the input's semantics."""
    func = load_func("unreachable_pred.pir")
    dropped = []
    remove = analysis.remove_unreachable

    def removing(work):
        dropped.append(remove(work))
        return dropped[-1]
    monkeypatch.setattr(analysis, "remove_unreachable", removing)
    final, _ = pipeline(func, ["ifconvert", "psi-promote", "out-of-ssa"],
                        machine)
    assert dropped == [["b4"]]
    assert [b.label for b in final.blocks] == ["b0", "b1", "b2", "b3"]
    assert_no_errors(ir.Module([final]))
    report = interp.differential_check(func, final, trials=64, seed=4)
    assert report.ok and report.compared > 0


@pytest.mark.parametrize("machine", [FULL, PARTIAL], ids=["F", "P"])
def test_an_argument_copy_falls_back_to_just_above_its_psi(monkeypatch,
                                                           machine):
    """On mid seed 2025, the only one of seeds 2000-2299 where this
    happens, the predicate register %t8 of an argument copy is not defined
    at the point `_place_arg_copy` first chooses, so the copy goes just
    above the psi.  The output keeps the input's semantics."""
    placing, undefined = [], []
    place = out_of_ssa._place_arg_copy
    defined_at = analysis.Analyses.defined_at

    def place_arg_copy(*args, **kwargs):
        placing.append(True)
        try:
            return place(*args, **kwargs)
        finally:
            placing.pop()

    def asked(cache, var, point, strict=False):
        answer = defined_at(cache, var, point, strict)
        if placing and not answer:
            undefined.append(var)
        return answer
    monkeypatch.setattr(out_of_ssa, "_place_arg_copy", place_arg_copy)
    monkeypatch.setattr(analysis.Analyses, "defined_at", asked)
    func = interp.gen_random_program(2025, MID)
    final, _ = pipeline(func, STANDARD, machine)
    assert undefined == ["t8"]
    report = interp.differential_check(func, final, trials=64, seed=2025)
    assert report.ok and report.compared > 0


def test_copies_at_one_point_renumber_their_block_rarely(monkeypatch):
    """k copies inserted just above one instruction, as `_place_arg_copy`
    puts a copy above an argument's death point, each below the ones before
    (the case that closes a gap fastest), renumber their block once per
    run of halvings of a gap, not once per copy, and keep a fresh
    numbering's order."""
    k = 200
    body = "".join(f"  %v{i} = add %a, {i}\n" for i in range(50))
    func = ir.parse_module(
        f"func @f(%a) {{\nb0:\n{body}  ret %v0\n}}").functions[0]
    cache = analysis.Analyses(func)
    cache.positions  # the initial numbering, before the count
    counts: dict[str, int] = {}
    count_calls(monkeypatch, analysis, "number_block", counts)
    for i in range(k):
        block, key = cache.locate(cache.defs["v11"])
        out_of_ssa._insert_copy(cache, (block, key - 1), f"c{i}", "a")
    assert counts["number_block"] <= k // 8
    assert [ins.dest for ins in func.blocks[0].body[10:12 + k]] == (
        ["v10"] + [f"c{i}" for i in range(k)] + ["v11"])
    assert_same_order(cache.positions, func)


def test_run_out_of_ssa_builds_each_analysis_once(monkeypatch):
    counts: dict[str, int] = {}

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for seed in (3, 7, 23):
        func = interp.gen_random_program(seed, "small")
        work, _ = pipeline(func, ["ssa", "fold", "ifconvert", "psi-promote"])
        counts.clear()
        monkeypatch.undo()
        count(analysis, "guard_env_or_conservative")
        count(out_of_ssa, "guard_env_or_conservative")
        count(analysis, "liveness")
        count(analysis, "interference_graph")
        count(analysis.LiveRanges, "__init__")
        stats = run_out_of_ssa(work)
        assert stats.copies_psi_congruence and stats.copies_phi_congruence
        assert counts.get("guard_env_or_conservative", 0) <= 1
        assert counts.get("liveness", 0) <= 1
        assert counts.get("interference_graph", 0) == 0
        assert counts.get("__init__", 0) == 1
    monkeypatch.undo()


def test_live_ranges_index_once_and_the_class_check_reuses_answers(
        monkeypatch):
    """Building `LiveRanges` indexes the uses of each instruction exactly
    once, and after both congruence phases `class_interference` derives at
    most half of the pairs it checks: the phases asked the rest, and no
    update has dropped either variable's range since."""
    checked = derived = 0
    reindex = analysis.LiveRanges._reindex
    for seed in range(40):
        func = interp.gen_random_program(seed, "tiny" if seed % 2 == 0
                                         else "small")
        for machine in (FULL, PARTIAL):
            work, _ = pipeline(func, BEFORE_OUT_OF_SSA, machine)
            analysis.remove_unreachable(work)
            cache = analysis.Analyses(work)
            psi_normalize(cache, OutOfSsaOptions())
            indexed = []

            def recording(self, ins, label, dirty):
                indexed.append(id(ins))
                reindex(self, ins, label, dirty)
            monkeypatch.setattr(analysis.LiveRanges, "_reindex", recording)
            cache.live
            monkeypatch.undo()
            assert sorted(indexed) == sorted(id(ins) for _, ins
                                             in work.instructions())
            classes = CongruenceClasses()
            out_of_ssa.psi_congruence(cache, classes, OutOfSsaOptions())
            out_of_ssa.phi_congruence(cache, classes, OutOfSsaOptions())
            counts: dict[str, int] = {}
            count_calls(monkeypatch, analysis.LiveRanges, "interferes", counts)
            count_calls(monkeypatch, analysis.LiveRanges, "_overlap", counts)
            assert out_of_ssa.class_interference(
                cache, classes, OutOfSsaOptions()) is None
            monkeypatch.undo()
            checked += counts.get("interferes", 0)
            derived += counts.get("_overlap", 0)
    assert checked > 1000
    assert 2 * derived <= checked


def test_each_psi_records_its_copies_in_one_update(monkeypatch):
    """With every refinement off, the psi of live_overlap.pir gets two
    argument copies and a result copy; psi-congruence records all three in
    one `LiveRanges.update`, and phi-congruence its (no) copies in one more
    when it ends."""
    calls = []
    update = analysis.LiveRanges.update

    def recording(self, inserted=(), changed=()):
        calls.append((sorted(ins.dest for ins in inserted), list(changed)))
        update(self, inserted, changed)

    monkeypatch.setattr(analysis.LiveRanges, "update", recording)
    cache, _, counts = to_cssa(load_func("live_overlap.pir"), ALL_OFF)
    assert counts == (0, 3, 0)
    psi, = all_psis(cache.func)
    copied = sorted([v for _, v in psi.args[1:]] + ["x"])
    assert calls == [(copied, [psi]), ([], [])]


# -- class invariant and dominance of interfering definitions ------------------

def test_psi_congruence_leaves_no_class_with_interfering_members(monkeypatch):
    """After each psi's copies, and after phi-congruence, no congruence
    class holds two members that interfere (`class_checked_to_cssa`)."""
    checks = 0
    for seed in range(100):
        func = interp.gen_random_program(seed, "tiny" if seed % 2 == 0
                                         else "small")
        for machine in (FULL, PARTIAL):
            work, _ = pipeline(func, BEFORE_OUT_OF_SSA, machine)
            for opts in (OutOfSsaOptions(), ALL_OFF):
                checks += class_checked_to_cssa(monkeypatch, work.clone(),
                                                opts)
    assert checks > 1000


@pytest.mark.parametrize("seed, machine", latch_refusal_params(
    "psi-congruence leaves a class with interfering members at the psi"))
def test_psi_congruence_keeps_classes_free_of_interference_in_loops(
        seed, machine, monkeypatch):
    work, _ = pipeline(interp.gen_random_program(seed, MID),
                       BEFORE_OUT_OF_SSA, machine)
    class_checked_to_cssa(monkeypatch, work, OutOfSsaOptions())


def interfering_definitions_nest(cache: analysis.Analyses) -> int:
    """Assert that of every two variables `cache.live` reports interfering,
    with refinement off, one definition dominates the other (a parameter's
    dominates all); returns the number of interfering pairs."""
    live, defs = cache.live, cache.defs
    names = sorted(cache.func.var_names())
    pairs = 0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if not live.interferes(a, b):
                continue
            pairs += 1
            assert (a not in defs or b not in defs
                    or cache.defined_at(a, cache.locate(defs[b]))
                    or cache.defined_at(b, cache.locate(defs[a]))), (a, b)
    return pairs


def _inputs_to_out_of_ssa():
    """States before out of psi-SSA: generator seeds 0-39 and the
    `tests/data` functions that the standard pipeline accepts, on both
    machines, and the loop-latch refusals."""
    programs = [interp.gen_random_program(seed, ("tiny", "small")[seed % 2])
                for seed in range(40)]
    for path in sorted(DATA.glob("*.pir")):
        programs += load(path.name).functions
    for func in programs:
        for machine in (FULL, PARTIAL):
            try:
                run_passes(func.clone(), STANDARD, machine)
            except FAILURES:
                continue
            yield pipeline(func, BEFORE_OUT_OF_SSA, machine)[0]
    for seed, machine, _ in LATCH_REFUSALS:
        yield pipeline(interp.gen_random_program(seed, MID),
                       BEFORE_OUT_OF_SSA, machine)[0]


def test_one_of_two_interfering_definitions_dominates_the_other(
        monkeypatch):
    """The precondition of merging classes in dominance order (ROADMAP
    item 2), after psi-normalize and after all three phases."""
    normalize = out_of_ssa.psi_normalize
    counts = []

    def normalized(cache, *args):
        copies = normalize(cache, *args)
        counts.append(interfering_definitions_nest(cache))
        return copies

    monkeypatch.setattr(out_of_ssa, "psi_normalize", normalized)
    for func in _inputs_to_out_of_ssa():
        cache, _, _ = out_of_ssa.to_cssa(func, OutOfSsaOptions())
        counts.append(interfering_definitions_nest(cache))
    assert len(counts) > 150 and sum(counts) > 50000
